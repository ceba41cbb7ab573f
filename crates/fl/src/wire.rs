//! The binary wire format for PS ↔ worker model exchange.
//!
//! The loop engines account for communication analytically (4 bytes per
//! parameter); this module is the *actual* serialisation every
//! transport moves ([`crate::runtime`]'s channels and sockets alike):
//! one length-exact, checksummed frame holding a model snapshot.
//! [`wire_size_v2`] computes the exact frame size (name table +
//! payloads) analytically, giving the engines a precise byte count
//! without an encoding pass and letting [`encode_state_v2`] pre-size
//! its buffer in one allocation.
//!
//! There is one frame format. Its tensor payload is encoded by a
//! [`Codec`] — dense `f32` (lossless, the default), dense `f16`,
//! symmetric per-tensor `int8`, or a top-k sparse *delta* against a
//! reference snapshot both ends already share (the last model the
//! receiver acknowledged). Lossy codecs pair with a per-worker
//! [`ErrorFeedback`] accumulator that folds each round's encode
//! residual into the next round's payload, so nothing is permanently
//! lost. Which codec a device uses is decided by a
//! [`CompressionPolicy`] from its edgesim bandwidth profile. (The
//! format is "v2" in names and magic; v1, a dense-only layout without
//! the codec byte, is retired and its magic is rejected.)
//!
//! Frame layout (little-endian):
//!
//! ```text
//! magic  u32 = 0xFED7_7A2E
//! codec  u8 (0 = dense-f32, 1 = dense-f16, 2 = int8,
//!            3 = top-k f32, 4 = top-k int8)
//! keep   f32 (top-k codecs only: the configured keep fraction)
//! entry_count u32
//! per entry:
//!   name_len u16, name bytes (UTF-8)
//!   trainable u8
//!   rank u8, dims u32 × rank
//!   payload (see below)
//! checksum u32 (FNV-1a over everything after the magic)
//! ```
//!
//! Per-entry payloads by codec (`n` = numel, `k` = [`topk_len`]`(n)`):
//!
//! | codec | payload | bytes |
//! |---|---|---|
//! | dense-f32 | `f32 × n` | `4n` |
//! | dense-f16 | `u16 × n` (IEEE binary16 bits) | `2n` |
//! | int8 | `scale f32`, `i8 × n` | `4 + n` |
//! | top-k f32 | `k u32`, `idx u32 × k`, `val f32 × k` | `4 + 8k` |
//! | top-k int8 | `k u32`, `scale f32`, `idx u32 × k`, `val i8 × k` | `8 + 5k` |
//!
//! Because `k` is an analytic function of the tensor shape alone,
//! [`wire_size_v2`] stays data-independent and [`encode_state_v2`]
//! pre-sizes its buffer exactly.
//!
//! **Determinism.** Decoding a frame is *exact* with respect to what
//! was encoded: all lossiness happens at encode time, and the encoder
//! can predict the receiver's reconstruction bit-for-bit via
//! [`codec_delivered`] (the shared compress/reconstruct core). Top-k
//! selection uses `f32::total_cmp` with an index tie-break, so the
//! transmitted support is a pure function of the input bits — no
//! thread-count or iteration-order dependence anywhere.

use crate::checksum::fnv1a32;
use bytes::{BufMut, Bytes, BytesMut};
use fedmp_edgesim::DeviceProfile;
use fedmp_nn::StateEntry;
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

const MAGIC: u32 = 0xFED7_7A2E;

/// Errors while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame does not start with the protocol magic.
    BadMagic,
    /// Frame ended before the declared content.
    Truncated,
    /// Checksum mismatch (corrupted frame).
    BadChecksum,
    /// Malformed entry (bad UTF-8 name or impossible shape).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a model snapshot into a dense-`f32` (lossless) frame —
/// [`encode_state_v2`] with [`Codec::DenseF32`], no reference and no
/// error feedback.
pub fn encode_state(state: &[StateEntry]) -> Bytes {
    encode_state_v2(state, Codec::DenseF32, None, None)
}

fn put_entry_header(buf: &mut BytesMut, e: &StateEntry) {
    assert!(e.name.len() <= u16::MAX as usize, "entry name too long");
    buf.put_u16_le(e.name.len() as u16);
    buf.put_slice(e.name.as_bytes());
    buf.put_u8(e.trainable as u8);
    let dims = e.tensor.dims();
    assert!(dims.len() <= u8::MAX as usize, "tensor rank too high");
    buf.put_u8(dims.len() as u8);
    for &d in dims {
        buf.put_u32_le(d as u32);
    }
}

/// Cheap transport-integrity check: verifies only the magic and the
/// trailing FNV-1a checksum, without building tensors. This is
/// what the threaded runtime's PS runs on every arriving upload to
/// decide between accepting the frame and requesting a retransmit — a
/// frame that fails here is corrupt in transit; a frame that passes can
/// only fail decoding through an encoder-side protocol violation.
pub fn frame_checksum_ok(frame: &[u8]) -> bool {
    verified_body(frame).is_ok()
}

/// The checksummed body of a frame — everything between the magic and
/// the trailing checksum — once both have verified.
fn verified_body(frame: &[u8]) -> Result<&[u8], WireError> {
    if frame.len() < 12 {
        return Err(WireError::Truncated);
    }
    if u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) != MAGIC {
        return Err(WireError::BadMagic);
    }
    let tail = frame.len() - 4;
    let declared =
        u32::from_le_bytes([frame[tail], frame[tail + 1], frame[tail + 2], frame[tail + 3]]);
    if fnv1a32(&frame[4..tail]) != declared {
        return Err(WireError::BadChecksum);
    }
    Ok(&frame[4..tail])
}

fn checked_numel(dims: &[usize]) -> Result<usize, WireError> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(WireError::Malformed("tensor shape overflow"))
}

fn checked_mul(a: usize, b: usize) -> Result<usize, WireError> {
    a.checked_mul(b).ok_or(WireError::Malformed("payload length overflow"))
}

// ---------------------------------------------------------------------
// f16 bit conversion (IEEE 754 binary16, round-to-nearest-even)
// ---------------------------------------------------------------------

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest
/// with ties to even. Overflow saturates to ±Inf, underflow flushes to
/// signed zero through the subnormal range, NaNs become quiet NaN.
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf / NaN: keep the class, quiet any NaN payload.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127;
    if e >= 16 {
        return sign | 0x7C00; // overflow → ±Inf
    }
    if e >= -14 {
        // Normal f16: round the 23-bit mantissa to 10 bits.
        let mut m = mant >> 13;
        let rem = mant & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut he = (e + 15) as u32;
        if m == 0x400 {
            // Rounded past 10 bits: carry into the exponent.
            m = 0;
            he += 1;
            if he >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((he as u16) << 10) | (m as u16);
    }
    if e >= -25 {
        // Subnormal f16: shift the implicit leading 1 into the mantissa.
        let full = mant | 0x0080_0000;
        let shift = (13 - 14 - e) as u32;
        let mut m = full >> shift;
        let half = 1u32 << (shift - 1);
        let rem = full & ((1u32 << shift) - 1);
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1;
        }
        // A carry out of the subnormal range lands exactly on the
        // smallest normal encoding (0x0400), which is correct as-is.
        return sign | m as u16;
    }
    sign // underflow → signed zero
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m · 2⁻²⁴, renormalised for f32.
            let p = 31 - m.leading_zeros(); // top set bit, 0..=9
            let e = p + 103; // (p − 24) + 127
            let frac = (m << (23 - p)) & 0x007F_FFFF;
            sign | (e << 23) | frac
        }
        (31, 0) => sign | 0x7F80_0000,
        (31, _) => sign | 0x7FC0_0000, // quiet NaN
        (e, m) => sign | ((e + 112) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

// ---------------------------------------------------------------------
// Codecs and compression policy
// ---------------------------------------------------------------------

/// A v2 payload codec: how one frame's tensor data is carried.
///
/// The top-k codecs transmit a sparse **delta** against a reference
/// snapshot both ends already share (the last model the receiver
/// acknowledged); without a reference the delta is taken against zeros,
/// i.e. the absolute values. Every lossy codec composes with
/// [`ErrorFeedback`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Codec {
    /// Dense `f32` — lossless: the payload is the tensor's exact bits.
    DenseF32,
    /// Dense IEEE binary16 — 2 bytes/parameter, ~2⁻¹¹ relative error.
    DenseF16,
    /// Symmetric per-tensor 8-bit quantization — 1 byte/parameter plus
    /// one `f32` scale, error bounded by `scale / 2 = max|x| / 254`.
    Int8,
    /// Top-k sparse delta with `f32` values.
    TopK {
        /// Fraction of coordinates transmitted per tensor, in (0, 1].
        keep: f32,
    },
    /// Top-k sparse delta with int8-quantized values — the slow-link
    /// workhorse: ~`5k` bytes for `k = keep · numel` coordinates.
    TopKInt8 {
        /// Fraction of coordinates transmitted per tensor, in (0, 1].
        keep: f32,
    },
}

impl Codec {
    /// Human-readable codec name, used in trace events and reports.
    pub fn label(&self) -> String {
        match *self {
            Codec::DenseF32 => "dense-f32".to_string(),
            Codec::DenseF16 => "dense-f16".to_string(),
            Codec::Int8 => "int8".to_string(),
            Codec::TopK { keep } => format!("topk({keep})"),
            Codec::TopKInt8 { keep } => format!("topk-int8({keep})"),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Codec::DenseF32 => 0,
            Codec::DenseF16 => 1,
            Codec::Int8 => 2,
            Codec::TopK { .. } => 3,
            Codec::TopKInt8 { .. } => 4,
        }
    }

    fn keep(&self) -> Option<f32> {
        match *self {
            Codec::TopK { keep } | Codec::TopKInt8 { keep } => Some(keep),
            _ => None,
        }
    }

    /// Exact per-entry payload bytes for a tensor of `numel` elements —
    /// an analytic function of the shape alone, never of the data.
    pub fn payload_bytes(&self, numel: usize) -> usize {
        match *self {
            Codec::DenseF32 => 4 * numel,
            Codec::DenseF16 => 2 * numel,
            Codec::Int8 => 4 + numel,
            Codec::TopK { keep } => 4 + 8 * topk_len(numel, keep),
            Codec::TopKInt8 { keep } => 8 + 5 * topk_len(numel, keep),
        }
    }
}

/// The number of coordinates a top-k codec transmits for a tensor of
/// `numel` elements at the given keep fraction: `⌈keep · numel⌉`,
/// clamped into `[1, numel]` (0 for empty tensors). Analytic, so
/// [`wire_size_v2`] never depends on tensor values.
pub fn topk_len(numel: usize, keep: f32) -> usize {
    if numel == 0 {
        return 0;
    }
    (((numel as f64) * keep as f64).ceil() as usize).clamp(1, numel)
}

/// The codec pair one device uses for a round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCodecs {
    /// PS → worker sub-model codec. Decoded against a zero reference,
    /// so delta codecs here carry absolute values.
    pub downlink: Codec,
    /// Worker → PS trained-model codec. Decoded against the sub-model
    /// the PS just sent, so delta codecs transmit the training update.
    pub uplink: Codec,
}

impl LinkCodecs {
    /// Dense `f32` both ways — the lossless pair.
    pub fn dense() -> Self {
        LinkCodecs { downlink: Codec::DenseF32, uplink: Codec::DenseF32 }
    }
}

/// Per-device codec selection, driven by the edgesim bandwidth profile:
/// devices at or below `slow_link_bps` get the `slow` pair, everyone
/// else the `fast` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionPolicy {
    /// Bandwidth threshold (bits/s) separating slow from fast links.
    pub slow_link_bps: f64,
    /// Codec pair for fast links.
    pub fast: LinkCodecs,
    /// Codec pair for slow links.
    pub slow: LinkCodecs,
}

impl Default for CompressionPolicy {
    fn default() -> Self {
        CompressionPolicy::dense()
    }
}

impl CompressionPolicy {
    /// Everything dense `f32` — the default: lossless frames, and the
    /// engines keep the analytic 4-bytes-per-parameter Eq. 5 terms.
    pub fn dense() -> Self {
        CompressionPolicy {
            slow_link_bps: 0.0,
            fast: LinkCodecs::dense(),
            slow: LinkCodecs::dense(),
        }
    }

    /// The paper-style adaptive policy: fast links stay dense, slow
    /// links (at or below [`fedmp_edgesim::SLOW_LINK_BPS`]) download in
    /// `f16` and upload int8-quantized top-k deltas at a 10% keep
    /// fraction — roughly an 8× uplink reduction.
    pub fn adaptive() -> Self {
        CompressionPolicy {
            slow_link_bps: fedmp_edgesim::SLOW_LINK_BPS,
            fast: LinkCodecs::dense(),
            slow: LinkCodecs { downlink: Codec::DenseF16, uplink: Codec::TopKInt8 { keep: 0.1 } },
        }
    }

    /// Applies `codec` to every worker's uplink (downlink stays dense)
    /// regardless of bandwidth — the ablation-grid constructor.
    pub fn uniform_uplink(codec: Codec) -> Self {
        let pair = LinkCodecs { downlink: Codec::DenseF32, uplink: codec };
        CompressionPolicy { slow_link_bps: 0.0, fast: pair, slow: pair }
    }

    /// The codec pair for one device.
    pub fn select(&self, device: &DeviceProfile) -> LinkCodecs {
        if device.is_slow_link(self.slow_link_bps) {
            self.slow
        } else {
            self.fast
        }
    }

    /// Whether the policy is a no-op (dense `f32` everywhere): engines
    /// then skip the Eq. 5 byte override and `CompressionApplied`
    /// events.
    pub fn is_dense(&self) -> bool {
        self.fast.downlink == Codec::DenseF32
            && self.fast.uplink == Codec::DenseF32
            && self.slow.downlink == Codec::DenseF32
            && self.slow.uplink == Codec::DenseF32
    }
}

// ---------------------------------------------------------------------
// Error feedback
// ---------------------------------------------------------------------

/// Per-worker error-feedback accumulator: the residual each lossy
/// encode leaves behind, folded into the next round's payload so the
/// transmitted mass converges to the generated mass. Keyed by entry
/// name; an entry whose shape changes (a new pruning plan) resets its
/// residual to zero, since the old coordinates no longer correspond.
///
/// All updates are pure functions of the encoded snapshots, so feedback
/// state is bit-identical across thread counts and retransmits never
/// touch it (frames are cached, not re-encoded).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorFeedback {
    slots: Vec<FeedbackSlot>,
}

#[derive(Debug, Clone, PartialEq)]
struct FeedbackSlot {
    name: String,
    dims: Vec<usize>,
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// An empty accumulator (no residual anywhere).
    pub fn new() -> Self {
        ErrorFeedback::default()
    }

    /// Removes and returns the residual for `name` if its recorded
    /// shape matches `dims`; otherwise an empty vector (treated as
    /// zeros by the encoder).
    fn take(&mut self, name: &str, dims: &[usize]) -> Vec<f32> {
        match self.slots.iter().position(|s| s.name == name) {
            Some(idx) => {
                let slot = self.slots.swap_remove(idx);
                if slot.dims.as_slice() == dims {
                    slot.residual
                } else {
                    Vec::new()
                }
            }
            None => Vec::new(),
        }
    }

    fn put(&mut self, name: &str, dims: &[usize], residual: Vec<f32>) {
        self.slots.push(FeedbackSlot { name: name.to_string(), dims: dims.to_vec(), residual });
    }

    /// Total accumulated residual magnitude (L1), for tests and
    /// diagnostics.
    pub fn l1(&self) -> f32 {
        let mut total = 0.0f32;
        for slot in &self.slots {
            for v in &slot.residual {
                total += v.abs();
            }
        }
        total
    }

    /// Largest absolute residual coordinate across all entries.
    pub fn max_abs(&self) -> f32 {
        let mut max = 0.0f32;
        for slot in &self.slots {
            for v in &slot.residual {
                max = max.max(v.abs());
            }
        }
        max
    }
}

// ---------------------------------------------------------------------
// Shared compress / reconstruct core
// ---------------------------------------------------------------------

enum PayloadCodes {
    F32(Vec<f32>),
    F16(Vec<u16>),
    I8 { scale: f32, codes: Vec<i8> },
    TopK { indices: Vec<u32>, values: Vec<f32> },
    TopKI8 { scale: f32, indices: Vec<u32>, codes: Vec<i8> },
}

/// `x + r` with exact-zero residuals skipped, so an all-zero feedback
/// state leaves the input bit-identical (`-0.0 + 0.0` would flip sign
/// bits otherwise).
fn corrected_values(x: &[f32], r: &[f32]) -> Vec<f32> {
    x.iter().zip(r).map(|(&v, &e)| if e == 0.0 { v } else { v + e }).collect()
}

fn delta_values(x: &[f32], reference: Option<&[f32]>) -> Vec<f32> {
    match reference {
        Some(r) if r.len() == x.len() => x.iter().zip(r).map(|(&a, &b)| a - b).collect(),
        _ => x.to_vec(),
    }
}

fn int8_scale(values: &[f32]) -> f32 {
    let max = values.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
    if max > 0.0 {
        max / 127.0
    } else {
        1.0
    }
}

fn int8_code(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// The `k` largest-|·| coordinate indices, ascending; ties go to the
/// lower index. The order — |v| by `total_cmp`, then index — is a
/// strict total order over every float, so the selected *set* is
/// unique and a linear-time selection returns what a full sort would:
/// each coordinate packs into one `u64` key, |v|'s bits above the
/// complemented index, whose integer order is that order.
fn topk_indices(values: &[f32], k: usize) -> Vec<u32> {
    let n = values.len();
    let k = k.min(n);
    let mut keys: Vec<u64> = (0u32..)
        .zip(values)
        .map(|(i, v)| u64::from(v.abs().to_bits()) << 32 | u64::from(!i))
        .collect();
    if 0 < k && k < n {
        keys.select_nth_unstable(n - k);
    }
    let mut indices: Vec<u32> = keys[n - k..].iter().map(|&key| !(key as u32)).collect();
    indices.sort_unstable();
    indices
}

/// [`topk_indices`] as it was defined through PR 23: stable-sort every
/// index by the comparator, keep the first `k`.
#[cfg(test)]
fn topk_indices_by_sort(values: &[f32], k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_by(|&a, &b| {
        values[b as usize].abs().total_cmp(&values[a as usize].abs()).then(a.cmp(&b))
    });
    order.truncate(k);
    order.sort_unstable();
    order
}

fn update_sparse_residual(residual: &mut [f32], corrected: &[f32], indices: &[u32], sent: &[f32]) {
    residual.copy_from_slice(corrected);
    for (&i, &v) in indices.iter().zip(sent) {
        if let Some(slot) = residual.get_mut(i as usize) {
            *slot = corrected[i as usize] - v;
        }
    }
}

/// Compresses one tensor's data, updating its error-feedback residual
/// in place (the residual is resized with zeros if its length does not
/// match the tensor).
fn compress_entry(
    x: &[f32],
    reference: Option<&[f32]>,
    codec: Codec,
    residual: &mut Vec<f32>,
) -> PayloadCodes {
    if residual.len() != x.len() {
        *residual = vec![0.0; x.len()];
    }
    match codec {
        Codec::DenseF32 => {
            let corrected = corrected_values(x, residual);
            for r in residual.iter_mut() {
                *r = 0.0;
            }
            PayloadCodes::F32(corrected)
        }
        Codec::DenseF16 => {
            let corrected = corrected_values(x, residual);
            let codes: Vec<u16> = corrected.iter().map(|&v| f32_to_f16_bits(v)).collect();
            for ((r, &c), &h) in residual.iter_mut().zip(&corrected).zip(&codes) {
                *r = c - f16_bits_to_f32(h);
            }
            PayloadCodes::F16(codes)
        }
        Codec::Int8 => {
            let corrected = corrected_values(x, residual);
            let scale = int8_scale(&corrected);
            let codes: Vec<i8> = corrected.iter().map(|&v| int8_code(v, scale)).collect();
            for ((r, &c), &q) in residual.iter_mut().zip(&corrected).zip(&codes) {
                *r = c - q as f32 * scale;
            }
            PayloadCodes::I8 { scale, codes }
        }
        Codec::TopK { keep } => {
            let delta = delta_values(x, reference);
            let corrected = corrected_values(&delta, residual);
            let k = topk_len(x.len(), keep);
            let indices = topk_indices(&corrected, k);
            let values: Vec<f32> = indices.iter().map(|&i| corrected[i as usize]).collect();
            update_sparse_residual(residual, &corrected, &indices, &values);
            PayloadCodes::TopK { indices, values }
        }
        Codec::TopKInt8 { keep } => {
            let delta = delta_values(x, reference);
            let corrected = corrected_values(&delta, residual);
            let k = topk_len(x.len(), keep);
            let indices = topk_indices(&corrected, k);
            let raw: Vec<f32> = indices.iter().map(|&i| corrected[i as usize]).collect();
            let scale = int8_scale(&raw);
            let codes: Vec<i8> = raw.iter().map(|&v| int8_code(v, scale)).collect();
            let sent: Vec<f32> = codes.iter().map(|&c| c as f32 * scale).collect();
            update_sparse_residual(residual, &corrected, &indices, &sent);
            PayloadCodes::TopKI8 { scale, indices, codes }
        }
    }
}

/// Reconstructs the delivered values for one entry — the *only*
/// reconstruction routine, shared by the decoder and the encoder-side
/// oracle, which is what makes `decode(encode(x))` exact by
/// construction.
fn deliver_entry(codes: &PayloadCodes, reference: Option<&[f32]>, numel: usize) -> Vec<f32> {
    match codes {
        PayloadCodes::F32(v) => v.clone(),
        PayloadCodes::F16(h) => h.iter().map(|&b| f16_bits_to_f32(b)).collect(),
        PayloadCodes::I8 { scale, codes } => {
            let s = *scale;
            codes.iter().map(|&c| c as f32 * s).collect()
        }
        PayloadCodes::TopK { indices, values } => apply_sparse(reference, numel, indices, values),
        PayloadCodes::TopKI8 { scale, indices, codes } => {
            let s = *scale;
            let values: Vec<f32> = codes.iter().map(|&c| c as f32 * s).collect();
            apply_sparse(reference, numel, indices, &values)
        }
    }
}

fn apply_sparse(
    reference: Option<&[f32]>,
    numel: usize,
    indices: &[u32],
    values: &[f32],
) -> Vec<f32> {
    let mut out = match reference {
        Some(r) if r.len() == numel => r.to_vec(),
        _ => vec![0.0; numel],
    };
    for (&i, &v) in indices.iter().zip(values) {
        if let Some(slot) = out.get_mut(i as usize) {
            *slot += v;
        }
    }
    out
}

/// The reference data for entry `i`, usable only when the positional
/// entry matches by name and shape — the same rule on both ends of the
/// link, so encoder prediction and decoder reconstruction agree.
fn ref_slice<'a>(
    reference: Option<&'a [StateEntry]>,
    i: usize,
    name: &str,
    dims: &[usize],
) -> Option<&'a [f32]> {
    reference
        .and_then(|r| r.get(i))
        .filter(|re| re.name == name && re.tensor.dims() == dims)
        .map(|re| re.tensor.data())
}

fn compress_state(
    state: &[StateEntry],
    codec: Codec,
    reference: Option<&[StateEntry]>,
    mut feedback: Option<&mut ErrorFeedback>,
) -> Vec<PayloadCodes> {
    state
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let ref_data = ref_slice(reference, i, &e.name, e.tensor.dims());
            let mut residual = match feedback.as_mut() {
                Some(fb) => fb.take(&e.name, e.tensor.dims()),
                None => Vec::new(),
            };
            let codes = compress_entry(e.tensor.data(), ref_data, codec, &mut residual);
            if let Some(fb) = feedback.as_mut() {
                fb.put(&e.name, e.tensor.dims(), residual);
            }
            codes
        })
        .collect()
}

// ---------------------------------------------------------------------
// v2 encode / decode / size
// ---------------------------------------------------------------------

/// Encodes a snapshot into a v2 frame with the given codec.
///
/// `reference` is the snapshot the receiver will decode against (the
/// last acknowledged model) — used by delta codecs; dense codecs ignore
/// it. `feedback` is the sender's error-feedback accumulator; when
/// present, each entry's stored residual is folded into the payload and
/// replaced by the new encode residual. The buffer is pre-sized from
/// [`wire_size_v2`] exactly, so encoding is a single allocation.
pub fn encode_state_v2(
    state: &[StateEntry],
    codec: Codec,
    reference: Option<&[StateEntry]>,
    feedback: Option<&mut ErrorFeedback>,
) -> Bytes {
    let codes = compress_state(state, codec, reference, feedback);
    let size = wire_size_v2(state, codec);
    let mut buf = BytesMut::with_capacity(size);
    buf.put_u32_le(MAGIC);
    buf.put_u8(codec.tag());
    if let Some(keep) = codec.keep() {
        buf.put_f32_le(keep);
    }
    buf.put_u32_le(state.len() as u32);
    for (e, pc) in state.iter().zip(&codes) {
        put_entry_header(&mut buf, e);
        put_payload(&mut buf, pc);
    }
    let checksum = fnv1a32(&buf[4..]);
    buf.put_u32_le(checksum);
    debug_assert_eq!(buf.len(), size, "analytic wire_size_v2 disagrees with encoded frame");
    buf.freeze()
}

fn put_payload(buf: &mut BytesMut, codes: &PayloadCodes) {
    match codes {
        PayloadCodes::F32(v) => {
            for &x in v {
                buf.put_f32_le(x);
            }
        }
        PayloadCodes::F16(h) => {
            for &x in h {
                buf.put_u16_le(x);
            }
        }
        PayloadCodes::I8 { scale, codes } => {
            buf.put_f32_le(*scale);
            for &c in codes {
                buf.put_u8(c as u8);
            }
        }
        PayloadCodes::TopK { indices, values } => {
            buf.put_u32_le(indices.len() as u32);
            for &i in indices {
                buf.put_u32_le(i);
            }
            for &v in values {
                buf.put_f32_le(v);
            }
        }
        PayloadCodes::TopKI8 { scale, indices, codes } => {
            buf.put_u32_le(indices.len() as u32);
            buf.put_f32_le(*scale);
            for &i in indices {
                buf.put_u32_le(i);
            }
            for &c in codes {
                buf.put_u8(c as u8);
            }
        }
    }
}

/// Exact wire size of a frame for `state` under `codec` — analytic: a
/// pure function of entry names and shapes, never of the data (the
/// top-k coordinate count is [`topk_len`]).
pub fn wire_size_v2(state: &[StateEntry], codec: Codec) -> usize {
    let header = 4 + 1 + if codec.keep().is_some() { 4 } else { 0 } + 4;
    let entries: usize = state
        .iter()
        .map(|e| {
            2 + e.name.len()
                + 1
                + 1
                + 4 * e.tensor.dims().len()
                + codec.payload_bytes(e.tensor.numel())
        })
        .sum();
    header + entries + 4
}

/// What the receiver will reconstruct from [`encode_state_v2`] with the
/// same arguments — the encoder-side oracle. Bit-identical to
/// `decode_state_v2(&encode_state_v2(…), reference)` by construction
/// (both run the same compress/reconstruct core), letting loop engines
/// model compressed exchanges without serialising, and letting the PS
/// predict a worker's decode exactly.
///
/// Like the encoder, this consumes and updates `feedback` — call
/// either this *or* [`encode_state_v2`] per logical transmission, not
/// both with the same accumulator.
pub fn codec_delivered(
    state: &[StateEntry],
    codec: Codec,
    reference: Option<&[StateEntry]>,
    feedback: Option<&mut ErrorFeedback>,
) -> Vec<StateEntry> {
    let codes = compress_state(state, codec, reference, feedback);
    state
        .iter()
        .enumerate()
        .zip(&codes)
        .map(|((i, e), pc)| {
            let dims = e.tensor.dims();
            let ref_data = ref_slice(reference, i, &e.name, dims);
            let data = deliver_entry(pc, ref_data, e.tensor.numel());
            let tensor = Tensor::from_vec(data, dims).unwrap_or_else(|_| Tensor::zeros(dims));
            StateEntry { name: e.name.clone(), tensor, trainable: e.trainable }
        })
        .collect()
}

/// What a compressed link delivers and what it costs: the state the
/// receiver reconstructs ([`codec_delivered`], same arguments), the
/// frame's bytes under `codec`, and the bytes the same state costs sent
/// dense — the one oracle every engine that models a link reads.
pub(crate) fn link_delivered(
    state: &[StateEntry],
    codec: Codec,
    reference: Option<&[StateEntry]>,
    feedback: Option<&mut ErrorFeedback>,
) -> (Vec<StateEntry>, u64, u64) {
    (
        codec_delivered(state, codec, reference, feedback),
        wire_size_v2(state, codec) as u64,
        wire_size_v2(state, Codec::DenseF32) as u64,
    )
}

/// The codec a frame was encoded with. Only inspects the header.
pub fn frame_codec(frame: &[u8]) -> Result<Codec, WireError> {
    if frame.len() < 12 {
        return Err(WireError::Truncated);
    }
    if u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) != MAGIC {
        return Err(WireError::BadMagic);
    }
    Cursor { buf: &frame[4..] }.codec()
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// The codec header: tag byte, then the keep fraction for top-k.
    fn codec(&mut self) -> Result<Codec, WireError> {
        match self.u8()? {
            0 => Ok(Codec::DenseF32),
            1 => Ok(Codec::DenseF16),
            2 => Ok(Codec::Int8),
            3 => Ok(Codec::TopK { keep: self.f32()? }),
            4 => Ok(Codec::TopKInt8 { keep: self.f32()? }),
            _ => Err(WireError::Malformed("unknown codec tag")),
        }
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let b = self.take(checked_mul(4, n)?)?;
        Ok(b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    fn u16s(&mut self, n: usize) -> Result<Vec<u16>, WireError> {
        let b = self.take(checked_mul(2, n)?)?;
        Ok(b.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect())
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        let b = self.take(checked_mul(4, n)?)?;
        Ok(b.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    fn i8s(&mut self, n: usize) -> Result<Vec<i8>, WireError> {
        let b = self.take(n)?;
        Ok(b.iter().map(|&v| v as i8).collect())
    }
}

fn check_sparse_indices(indices: &[u32], numel: usize) -> Result<(), WireError> {
    let mut prev: Option<u32> = None;
    for &ix in indices {
        if ix as usize >= numel {
            return Err(WireError::Malformed("sparse index out of range"));
        }
        if prev.is_some_and(|p| p >= ix) {
            return Err(WireError::Malformed("sparse indices not ascending"));
        }
        prev = Some(ix);
    }
    Ok(())
}

/// Decodes a frame against the receiver's `reference` snapshot. Exact with respect to what was
/// encoded — all lossiness happened at encode time — and never panics:
/// every malformed input maps to a typed [`WireError`].
pub fn decode_state_v2(
    frame: &[u8],
    reference: Option<&[StateEntry]>,
) -> Result<Vec<StateEntry>, WireError> {
    let mut cur = Cursor { buf: verified_body(frame)? };
    let codec = cur.codec()?;
    let count = cur.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for i in 0..count {
        let name_len = cur.u16()? as usize;
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| WireError::Malformed("entry name is not UTF-8"))?
            .to_string();
        let trainable = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("trainable flag")),
        };
        let rank = cur.u8()? as usize;
        if rank == 0 {
            return Err(WireError::Malformed("zero-rank tensor"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(cur.u32()? as usize);
        }
        let numel = checked_numel(&dims)?;
        let codes = match codec {
            Codec::DenseF32 => PayloadCodes::F32(cur.f32s(numel)?),
            Codec::DenseF16 => PayloadCodes::F16(cur.u16s(numel)?),
            Codec::Int8 => {
                let scale = cur.f32()?;
                PayloadCodes::I8 { scale, codes: cur.i8s(numel)? }
            }
            Codec::TopK { .. } => {
                let k = cur.u32()? as usize;
                if k > numel {
                    return Err(WireError::Malformed("sparse length exceeds tensor"));
                }
                let indices = cur.u32s(k)?;
                check_sparse_indices(&indices, numel)?;
                let values = cur.f32s(k)?;
                PayloadCodes::TopK { indices, values }
            }
            Codec::TopKInt8 { .. } => {
                let k = cur.u32()? as usize;
                if k > numel {
                    return Err(WireError::Malformed("sparse length exceeds tensor"));
                }
                let scale = cur.f32()?;
                let indices = cur.u32s(k)?;
                check_sparse_indices(&indices, numel)?;
                let codes = cur.i8s(k)?;
                PayloadCodes::TopKI8 { scale, indices, codes }
            }
        };
        let ref_data = ref_slice(reference, i, &name, &dims);
        let data = deliver_entry(&codes, ref_data, numel);
        let tensor =
            Tensor::from_vec(data, &dims).map_err(|_| WireError::Malformed("tensor shape"))?;
        out.push(StateEntry { name, tensor, trainable });
    }
    if !cur.buf.is_empty() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn checksum_check_agrees_with_decode() {
        let mut rng = seeded_rng(255);
        let m = zoo::cnn_mnist(0.1, &mut rng);
        let frame = encode_state(&m.state());
        assert!(frame_checksum_ok(&frame));
        // A single flipped byte anywhere in the body fails the check.
        for pos in [4, frame.len() / 2, frame.len() - 5] {
            let mut bad = frame.to_vec();
            bad[pos] ^= 0xFF;
            assert!(!frame_checksum_ok(&bad), "flip at {pos} undetected");
        }
        assert!(!frame_checksum_ok(&[0u8; 16])); // bad magic
        assert!(!frame_checksum_ok(&[1, 2, 3])); // truncated
    }

    const ALL_CODECS: [Codec; 5] = [
        Codec::DenseF32,
        Codec::DenseF16,
        Codec::Int8,
        Codec::TopK { keep: 0.25 },
        Codec::TopKInt8 { keep: 0.25 },
    ];

    fn bits(state: &[StateEntry]) -> Vec<(String, bool, Vec<usize>, Vec<u32>)> {
        state
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    e.trainable,
                    e.tensor.dims().to_vec(),
                    e.tensor.data().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn v2_decode_matches_encoder_oracle_for_every_codec() {
        let mut rng = seeded_rng(260);
        let m = zoo::cnn_mnist(0.1, &mut rng);
        let state = m.state();
        let reference: Vec<StateEntry> = zoo::cnn_mnist(0.1, &mut rng).state();
        for codec in ALL_CODECS {
            for reference in [None, Some(reference.as_slice())] {
                let mut ef_enc = ErrorFeedback::new();
                let mut ef_oracle = ErrorFeedback::new();
                let frame = encode_state_v2(&state, codec, reference, Some(&mut ef_enc));
                let oracle = codec_delivered(&state, codec, reference, Some(&mut ef_oracle));
                let decoded = decode_state_v2(&frame, reference).expect("decode");
                assert_eq!(bits(&decoded), bits(&oracle), "{}", codec.label());
                assert_eq!(ef_enc, ef_oracle, "{}", codec.label());
                assert!(frame_checksum_ok(&frame), "{}", codec.label());
                assert_eq!(frame.len(), wire_size_v2(&state, codec), "{}", codec.label());
                assert_eq!(frame_codec(&frame), Ok(codec), "{}", codec.label());
            }
        }
    }

    #[test]
    fn v2_dense_f32_is_lossless() {
        let mut rng = seeded_rng(261);
        let state = zoo::cnn_mnist(0.1, &mut rng).state();
        let frame = encode_state(&state);
        assert_eq!(frame_codec(&frame), Ok(Codec::DenseF32));
        let decoded = decode_state_v2(&frame, None).expect("decode");
        assert_eq!(bits(&decoded), bits(&state));
        // Lossless codec ⇒ no residual accumulates.
        let mut ef = ErrorFeedback::new();
        codec_delivered(&state, Codec::DenseF32, None, Some(&mut ef));
        assert_eq!(ef.l1(), 0.0);
    }

    #[test]
    fn v2_presizing_is_exact_for_every_codec() {
        let mut rng = seeded_rng(263);
        let m = zoo::cnn_mnist(0.2, &mut rng);
        let plan = fedmp_pruning::plan_sequential(&m, (1, 28, 28), 0.5);
        let sub = fedmp_pruning::extract_sequential(&m, &plan);
        for codec in ALL_CODECS {
            for state in [m.state(), sub.state(), vec![]] {
                assert_eq!(
                    encode_state_v2(&state, codec, None, None).len(),
                    wire_size_v2(&state, codec),
                    "{}",
                    codec.label()
                );
            }
            // Pruning shrinks the frame under every codec, not just the
            // analytic parameter count.
            assert!(
                wire_size_v2(&sub.state(), codec) < wire_size_v2(&m.state(), codec) / 2,
                "{}",
                codec.label()
            );
        }
    }

    #[test]
    fn f16_bits_roundtrip_exhaustively() {
        for h in 0..=u16::MAX {
            let exp = (h >> 10) & 0x1F;
            let mant = h & 0x03FF;
            if exp == 31 && mant != 0 {
                continue; // NaN payloads are quieted, not preserved
            }
            assert_eq!(f32_to_f16_bits(f16_bits_to_f32(h)), h, "h = {h:#06x}");
        }
        // NaN stays NaN (quiet).
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn topk_len_is_clamped_and_analytic() {
        assert_eq!(topk_len(0, 0.5), 0);
        assert_eq!(topk_len(10, 0.0), 1);
        assert_eq!(topk_len(10, 0.25), 3); // ceil(2.5)
        assert_eq!(topk_len(10, 1.0), 10);
        assert_eq!(topk_len(10, 2.0), 10);
    }

    #[test]
    fn topk_selection_equals_the_sort_it_replaced() {
        use rand::Rng;
        // Ties on |v| across signs and positions, both zeros, NaN of
        // either sign (above ∞ in the total order), a subnormal.
        let crafted = vec![
            1.0,
            -1.0,
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            2.5,
            -2.5,
            0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -1.0,
        ];
        let mut cases = vec![crafted, vec![], vec![3.0], vec![0.0; 9], vec![-7.0; 9]];
        let mut rng = seeded_rng(0x709C);
        for n in [2, 17, 100, 1000] {
            // Seven distinct magnitudes: most comparisons are ties.
            cases.push((0..n).map(|_| rng.gen_range(-3i32..4) as f32 * 0.5).collect());
            // Raw bit patterns: every class of float.
            cases.push((0..n).map(|_| f32::from_bits(rng.gen())).collect());
        }
        for values in &cases {
            let n = values.len();
            for k in [0, 1, n / 10, n / 2, n.saturating_sub(1), n, n + 3] {
                assert_eq!(
                    topk_indices(values, k),
                    topk_indices_by_sort(values, k),
                    "n {n}, k {k}"
                );
            }
        }
    }

    #[test]
    fn corrupted_v2_frames_yield_typed_errors() {
        let mut rng = seeded_rng(264);
        let state = zoo::cnn_mnist(0.1, &mut rng).state();
        let frame = encode_state_v2(&state, Codec::TopKInt8 { keep: 0.1 }, None, None);
        let mut bad = frame.to_vec();
        bad[frame.len() / 2] ^= 0xFF;
        assert!(matches!(decode_state_v2(&bad, None), Err(WireError::BadChecksum)));
        assert!(!frame_checksum_ok(&bad));
        assert!(decode_state_v2(&frame[..frame.len() - 6], None).is_err());
        assert!(matches!(decode_state_v2(&[7u8; 20], None), Err(WireError::BadMagic)));
        assert!(matches!(decode_state_v2(&[1, 2, 3], None), Err(WireError::Truncated)));
    }

    #[test]
    fn error_feedback_resets_on_shape_change() {
        let lossy = Codec::Int8;
        let a = vec![StateEntry::trainable(
            "w",
            Tensor::from_vec(vec![0.31, -0.73, 0.11], &[3]).expect("shape"),
        )];
        let b = vec![StateEntry::trainable(
            "w",
            Tensor::from_vec(vec![0.31, -0.73], &[2]).expect("shape"),
        )];
        let mut ef = ErrorFeedback::new();
        codec_delivered(&a, lossy, None, Some(&mut ef));
        assert!(ef.l1() > 0.0, "int8 encode of irrational values must leave a residual");
        // Shape change: the stored residual must reset, producing the
        // same output as a fresh accumulator.
        let out_changed = codec_delivered(&b, lossy, None, Some(&mut ef));
        let out_fresh = codec_delivered(&b, lossy, None, Some(&mut ErrorFeedback::new()));
        assert_eq!(bits(&out_changed), bits(&out_fresh));
    }

    #[test]
    fn adaptive_policy_splits_on_bandwidth() {
        let policy = CompressionPolicy::adaptive();
        let far = tx2_profile(ComputeMode::Mode3, LinkQuality::Far);
        let near = tx2_profile(ComputeMode::Mode0, LinkQuality::Near);
        assert_eq!(policy.select(&far), policy.slow);
        assert_eq!(policy.select(&near), policy.fast);
        assert!(!policy.is_dense());
        assert!(CompressionPolicy::dense().is_dense());
        assert!(CompressionPolicy::default().is_dense());
        // The slow uplink is the int8 top-k workhorse.
        assert!(matches!(policy.slow.uplink, Codec::TopKInt8 { .. }));
    }

    #[test]
    fn topk_uplink_shrinks_the_frame() {
        let mut rng = seeded_rng(265);
        let state = zoo::cnn_mnist(0.1, &mut rng).state();
        let dense = wire_size_v2(&state, Codec::DenseF32);
        let sparse = wire_size_v2(&state, Codec::TopKInt8 { keep: 0.1 });
        assert!(sparse * 4 < dense, "topk-int8(0.1) must cut ≥ 4x: {sparse} vs {dense}");
    }
}
