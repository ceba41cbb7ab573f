//! Wire-format v2 property battery.
//!
//! Three contracts, each exercised for **every** codec:
//!
//! 1. **Round-trip exactness** — decoding an encoded frame reproduces
//!    the encoder-side [`codec_delivered`] oracle bit-for-bit (all
//!    lossiness happens at encode; decode is exact w.r.t. what was
//!    encoded), with and without a delta reference, and the error
//!    feedback the encoder accumulates equals the oracle's.
//! 2. **Analytic sizing** — [`wire_size_v2`] matches the encoded frame
//!    length byte-exactly, so the PS can budget Eq. 5 communication
//!    time without encoding.
//! 3. **Typed failure** — any corruption of 1–4 consecutive bytes, or
//!    any truncation, fails [`frame_checksum_ok`] and decodes to a
//!    typed [`WireError`], never a panic; the same runs never decode
//!    from an `HPar` frame.
//!
//! Plus the analytic per-tensor error budgets for the lossy codecs and
//! the 20-round error-feedback bias bound (the residual telescopes, so
//! the time-averaged delivered signal converges to the generated one).

use bytes::Bytes;
use fedmp_fl::{
    codec_delivered, decode_state_v2, encode_state_v2, f16_bits_to_f32, f32_to_f16_bits,
    frame_checksum_ok, wire_size_v2, Codec, ErrorFeedback, ExactState, WireError,
};
use fedmp_nn::{zoo, StateEntry};
use fedmp_tensor::{crc32c, seeded_rng, uniform_vec, Tensor};
use proptest::prelude::*;
use rand::Rng;

fn entry(name: &str, data: Vec<f32>, dims: &[usize], trainable: bool) -> StateEntry {
    StateEntry {
        name: name.to_string(),
        tensor: Tensor::from_vec(data, dims).expect("test tensor"),
        trainable,
    }
}

/// Bit-exact view of a state for comparisons (NaN-safe, −0.0-aware).
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

/// The codec under test, indexed by the proptest draw; `keep` only
/// matters for the two sparse codecs.
fn codec_from(idx: usize, keep: f32) -> Codec {
    match idx {
        0 => Codec::DenseF32,
        1 => Codec::DenseF16,
        2 => Codec::Int8,
        3 => Codec::TopK { keep },
        _ => Codec::TopKInt8 { keep },
    }
}

/// 1–4 tensors, rank 1–3, dims 1–5, values in ±8 — small enough for
/// many cases, varied enough to hit every codec branch (including
/// `k < numel` and `k == numel` top-k selections).
fn random_state(seed: u64) -> Vec<StateEntry> {
    let mut rng = seeded_rng(seed);
    let entries = rng.gen_range(1..5usize);
    (0..entries)
        .map(|i| {
            let rank = rng.gen_range(1..4usize);
            let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..6usize)).collect();
            let numel = dims.iter().product();
            let data = uniform_vec(numel, -8.0, 8.0, &mut rng);
            entry(&format!("tensor{i}"), data, &dims, i % 2 == 0)
        })
        .collect()
}

/// A same-shaped reference snapshot (the "last acknowledged model"),
/// derived deterministically so delta codecs see non-trivial deltas.
fn reference_for(state: &[StateEntry]) -> Vec<StateEntry> {
    state
        .iter()
        .map(|e| {
            let data = e.tensor.data().iter().map(|v| v * 0.5 - 1.0).collect();
            entry(&e.name, data, e.tensor.dims(), e.trainable)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_matches_the_encoder_oracle_bit_for_bit(
        seed in 0u64..100_000,
        codec_idx in 0usize..5,
        keep in 0.05f32..1.0,
        use_ref in 0u8..2,
    ) {
        let state = random_state(seed);
        let codec = codec_from(codec_idx, keep);
        let reference = if use_ref == 1 { Some(reference_for(&state)) } else { None };
        let mut ef_encode = ErrorFeedback::new();
        let mut ef_oracle = ErrorFeedback::new();
        let frame = encode_state_v2(&state, codec, reference.as_deref(), Some(&mut ef_encode));
        let oracle = codec_delivered(&state, codec, reference.as_deref(), Some(&mut ef_oracle));
        prop_assert!(ef_encode == ef_oracle, "feedback diverged for {}", codec.label());
        prop_assert!(frame_checksum_ok(&frame));
        // A sparse delta decodes only against a reference.
        if reference.is_none() && matches!(codec, Codec::TopK { .. } | Codec::TopKInt8 { .. }) {
            prop_assert_eq!(
                decode_state_v2(&frame, None).err(),
                Some(WireError::Malformed("a sparse frame needs a reference")),
                "{}", codec.label()
            );
            return Ok(());
        }
        let decoded = decode_state_v2(&frame, reference.as_deref()).expect("clean frame decodes");
        prop_assert_eq!(bits(&decoded), bits(&oracle), "decode != oracle for {}", codec.label());
        // Decoding the same frame twice is identical (retransmit path).
        let again = decode_state_v2(&frame, reference.as_deref()).expect("second decode");
        prop_assert_eq!(bits(&again), bits(&decoded));
    }

    #[test]
    fn wire_size_matches_encoded_length_byte_exactly(
        seed in 0u64..100_000,
        codec_idx in 0usize..5,
        keep in 0.05f32..1.0,
    ) {
        let state = random_state(seed);
        let codec = codec_from(codec_idx, keep);
        let frame = encode_state_v2(&state, codec, None, None);
        prop_assert_eq!(frame.len(), wire_size_v2(&state, codec), "{}", codec.label());
        if codec == Codec::DenseF32 {
            // Dense framing overhead is the header, the checksum and a
            // name/shape record per entry — never a function of numel.
            let payload = 4 * state.iter().map(|e| e.tensor.numel()).sum::<usize>();
            let records: usize =
                state.iter().map(|e| 4 + e.name.len() + 4 * e.tensor.dims().len()).sum();
            prop_assert_eq!(frame.len(), 9 + records + payload + 4);
        }
    }

    #[test]
    fn corrupted_frames_fail_typed_never_panic(
        seed in 0u64..100_000,
        codec_idx in 0usize..5,
        keep in 0.05f32..1.0,
        flip in 0.0f64..1.0,
        xors in prop::collection::vec(1u16..256, 1..5),
    ) {
        let state = random_state(seed);
        let codec = codec_from(codec_idx, keep);
        let frame = encode_state_v2(&state, codec, None, None);
        let (bad, pos) = corrupt_run(&frame, flip, &xors);
        let xors = xors.len();
        // 1–4 consecutive corrupted bytes anywhere must be caught: the
        // transport check rejects them, and full decoding returns a
        // typed error. A run of ≤ 4 bytes is a burst of ≤ 32 bits, and
        // a CRC-32 detects every such burst in the body and trailer;
        // runs touching the magic fail the magic check first.
        prop_assert!(!frame_checksum_ok(&bad), "{} bytes at {} passed the checksum", xors, pos);
        prop_assert!(decode_state_v2(&bad, None).is_err(), "{} bytes at {} decoded", xors, pos);
        // The retired v1 magic is a foreign frame, not a legacy one.
        let mut v1 = frame.to_vec();
        v1[..4].copy_from_slice(&0xFED7_7A1Eu32.to_le_bytes());
        prop_assert!(!frame_checksum_ok(&v1));
        prop_assert_eq!(decode_state_v2(&v1, None).err(), Some(WireError::BadMagic));
        // So is the magic of the FNV-1a-checksummed layout.
        let mut fnv_era = frame.to_vec();
        fnv_era[..4].copy_from_slice(&0xFED7_7A2Eu32.to_le_bytes());
        prop_assert!(!frame_checksum_ok(&fnv_era));
        prop_assert_eq!(decode_state_v2(&fnv_era, None).err(), Some(WireError::BadMagic));
    }

    #[test]
    fn corrupted_hpar_frames_never_decode(
        seed in 0u64..100_000,
        flip in 0.0f64..1.0,
        xors in prop::collection::vec(1u16..256, 1..5),
    ) {
        let state = random_state(seed);
        let template = ExactState::like(&state);
        let mut acc = ExactState::like(&state);
        acc.fold(&state);
        let frame = acc.encode();
        prop_assert!(matches!(ExactState::decode(&frame, &template), Ok(Some(_))));
        let (bad, pos) = corrupt_run(&frame, flip, &xors);
        let xors = xors.len();
        prop_assert!(
            !matches!(ExactState::decode(&bad, &template), Ok(Some(_))),
            "{} bytes at {} survived the checksum", xors, pos
        );
        // The FNV-1a-era `HPar` magic is a protocol violation, not
        // transit corruption to retransmit.
        let mut fnv_era = frame.to_vec();
        fnv_era[..4].copy_from_slice(&0x4850_6172u32.to_le_bytes());
        prop_assert_eq!(ExactState::decode(&fnv_era, &template), Err(()));
    }

    #[test]
    fn truncated_frames_fail_typed_never_panic(
        seed in 0u64..100_000,
        codec_idx in 0usize..5,
        keep in 0.05f32..1.0,
        cut in 0.0f64..1.0,
    ) {
        let state = random_state(seed);
        let codec = codec_from(codec_idx, keep);
        let frame = encode_state_v2(&state, codec, None, None);
        let len = ((cut * frame.len() as f64) as usize).min(frame.len() - 1);
        prop_assert!(decode_state_v2(&frame[..len], None).is_err(), "prefix {} decoded", len);
        prop_assert!(!frame_checksum_ok(&frame[..len]));
    }

    /// One size field of a valid sparse frame — the entry count, a name
    /// length, a dim or `k` — set to 0, 1, its maximum or one past the
    /// bytes that remain, or one index set equal to its predecessor,
    /// with the CRC resealed so the parser itself runs. Decoding against
    /// the reference returns an error or a state of the reference's
    /// shape and never panics; a repeated index, whose value would be
    /// added twice, is always an error.
    #[test]
    fn resealed_sparse_field_edits_fail_typed_or_keep_the_reference_shape(
        seed in 0u64..100_000,
        int8 in 0u8..2,
        keep in 0.3f32..1.0,
        pick in 0usize..1024,
        value in 0usize..4,
    ) {
        let state = random_state(seed);
        let reference = reference_for(&state);
        let int8 = int8 == 1;
        let codec = if int8 { Codec::TopKInt8 { keep } } else { Codec::TopK { keep } };
        let frame = encode_state_v2(&state, codec, Some(&reference), None);
        let (fields, lists) = sparse_fields(&frame, int8);
        let shape = |s: &[StateEntry]| -> Vec<(String, Vec<usize>)> {
            s.iter().map(|e| (e.name.clone(), e.tensor.dims().to_vec())).collect()
        };

        let (at, width) = fields[pick % fields.len()];
        let max = if width == 2 { u16::MAX as usize } else { u32::MAX as usize };
        let past = (frame.len() - 4 - (at + width) + 1).min(max);
        let mut bad = frame.to_vec();
        bad[at..at + width].copy_from_slice(&([0, 1, max, past][value] as u32).to_le_bytes()[..width]);
        reseal(&mut bad);
        prop_assert!(frame_checksum_ok(&bad));
        if let Ok(decoded) = decode_state_v2(&bad, Some(&reference)) {
            prop_assert_eq!(shape(&decoded), shape(&reference), "field at {} set to {}", at, value);
        }

        for &(at, k) in lists.iter().filter(|&&(_, k)| k >= 2) {
            let j = at + 4 * (1 + pick % (k - 1));
            let mut dup = frame.to_vec();
            dup.copy_within(j - 4..j, j);
            reseal(&mut dup);
            prop_assert_eq!(
                decode_state_v2(&dup, Some(&reference)).err(),
                Some(WireError::Malformed("sparse indices not ascending"))
            );
        }
    }
}

/// Pairs of a byte offset and a length.
type Spans = Vec<(usize, usize)>;

/// The size fields of a top-k / top-k-int8 frame as `(offset, width)` —
/// the entry count, then per entry its name length, each dim and `k` —
/// and `(offset, k)` of every entry's index list.
fn sparse_fields(frame: &[u8], int8: bool) -> (Spans, Spans) {
    let u32_at =
        |p: usize| u32::from_le_bytes([frame[p], frame[p + 1], frame[p + 2], frame[p + 3]]);
    // Magic (4), codec tag (1) and keep (4) come first.
    let (mut fields, mut lists, mut p) = (vec![(9, 4)], Vec::new(), 13);
    for _ in 0..u32_at(9) {
        fields.push((p, 2));
        p += 2 + usize::from(u16::from_le_bytes([frame[p], frame[p + 1]])) + 1;
        let rank = usize::from(frame[p]);
        fields.extend((0..rank).map(|d| (p + 1 + 4 * d, 4)));
        p += 1 + 4 * rank;
        let k = u32_at(p) as usize;
        fields.push((p, 4));
        p += if int8 { 8 } else { 4 };
        lists.push((p, k));
        p += k * if int8 { 5 } else { 8 };
    }
    assert_eq!(p, frame.len() - 4, "the walk ends at the trailer");
    (fields, lists)
}

/// Rewrites `frame`'s CRC-32C trailer over its edited body.
fn reseal(frame: &mut [u8]) {
    let tail = frame.len() - 4;
    let crc = crc32c(&frame[4..tail]);
    frame[tail..].copy_from_slice(&crc.to_le_bytes());
}

/// `frame` with `xors.len()` consecutive bytes XORed by `xors` (each
/// in `1..=255`), starting at a position `flip` of the way through the
/// frame; also returns that position.
fn corrupt_run(frame: &[u8], flip: f64, xors: &[u16]) -> (Vec<u8>, usize) {
    let mut bad = frame.to_vec();
    let last = bad.len() - xors.len();
    let pos = ((flip * (last + 1) as f64) as usize).min(last);
    for (b, &x) in bad[pos..].iter_mut().zip(xors) {
        *b ^= x as u8;
    }
    (bad, pos)
}

// ---------------------------------------------------------------------
// Analytic error budgets
// ---------------------------------------------------------------------

fn one_tensor_state(data: Vec<f32>) -> Vec<StateEntry> {
    let n = data.len();
    vec![entry("w", data, &[n], true)]
}

#[test]
fn int8_error_is_within_half_a_quantization_step() {
    // Symmetric int8: scale = max|x| / 127 per tensor, rounding error
    // ≤ scale / 2, i.e. ≤ max|x| / 254 per coordinate. Inputs: a uniform
    // vector, and cnn_mnist states scaled by 0.01–10, as PS-side residual
    // stores hold them.
    let mut rng = seeded_rng(41);
    let mut states = vec![one_tensor_state(uniform_vec(512, -3.0, 3.0, &mut rng))];
    for _ in 0..16 {
        let scale = rng.gen_range(0.01f32..10.0);
        let mut state = zoo::cnn_mnist(0.1, &mut seeded_rng(rng.gen_range(0..1000))).state();
        state.iter_mut().for_each(|e| e.tensor.scale_in_place(scale));
        states.push(state);
    }
    for state in &states {
        let delivered = codec_delivered(state, Codec::Int8, None, None);
        for (e, d) in state.iter().zip(&delivered) {
            let max_abs = e.tensor.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let bound = max_abs / 254.0 * (1.0 + 1e-5);
            for (x, y) in e.tensor.data().iter().zip(d.tensor.data()) {
                assert!(
                    (x - y).abs() <= bound,
                    "int8 error {} exceeds bound {bound}",
                    (x - y).abs()
                );
            }
        }
    }
}

#[test]
fn f16_error_is_within_half_an_ulp() {
    // binary16 round-to-nearest: relative error ≤ 2⁻¹¹ in the normal
    // range, absolute error ≤ 2⁻²⁵ in the subnormal range.
    let mut rng = seeded_rng(43);
    let mut data = uniform_vec(512, -4.0, 4.0, &mut rng);
    data.extend([0.0, -0.0, 1e-6, -1e-6, 6.1e-5, 65504.0]);
    let state = one_tensor_state(data.clone());
    let delivered = codec_delivered(&state, Codec::DenseF16, None, None);
    for (x, y) in data.iter().zip(delivered[0].tensor.data()) {
        let bound = x.abs() * (1.0 / 2048.0) + f32::powi(2.0, -25);
        assert!((x - y).abs() <= bound, "f16 error for {x}: {y}");
        // And the bit conversion itself round-trips through the same
        // public helpers the codec uses.
        assert_eq!(*y, f16_bits_to_f32(f32_to_f16_bits(*x)));
    }
}

#[test]
fn error_feedback_keeps_twenty_round_bias_below_epsilon() {
    // EF telescopes: corrected_r = x_r + residual_{r-1} and
    // delivered_r = corrected_r − residual_r, so over R rounds
    //   Σ delivered = Σ x − residual_R.
    // The residual stays bounded (it is re-fed and re-quantized every
    // round), so the accumulated bias |Σ delivered − Σ x| / R vanishes
    // as 1/R — the delivered signal carries the full generated mass.
    for codec in [Codec::DenseF16, Codec::Int8, Codec::TopKInt8 { keep: 0.25 }] {
        let mut rng = seeded_rng(47);
        let n = 64;
        let rounds = 20;
        let mut feedback = ErrorFeedback::new();
        let mut sum_x = vec![0.0f64; n];
        let mut sum_delivered = vec![0.0f64; n];
        let mut residual = vec![0.0f32; n];
        for _ in 0..rounds {
            let data = uniform_vec(n, -1.0, 1.0, &mut rng);
            let state = one_tensor_state(data.clone());
            let delivered = codec_delivered(&state, codec, None, Some(&mut feedback));
            for i in 0..n {
                sum_x[i] += data[i] as f64;
                sum_delivered[i] += delivered[0].tensor.data()[i] as f64;
            }
            for (r, (x, y)) in residual.iter_mut().zip(data.iter().zip(delivered[0].tensor.data()))
            {
                *r += x - y;
            }
        }
        let label = codec.label();
        for i in 0..n {
            // Telescoping identity: the undelivered mass IS the final
            // residual, to float tolerance.
            let gap = sum_x[i] - sum_delivered[i];
            assert!(
                (gap - residual[i] as f64).abs() < 1e-3,
                "{label}: residual accounting broke at {i}: gap {gap} vs {}",
                residual[i]
            );
            // Bias vanishes as 1/R: far below one quantization step.
            let bias = gap.abs() / rounds as f64;
            assert!(bias < 0.05, "{label}: accumulated bias {bias} at {i}");
        }
        assert!(feedback.max_abs() > 0.0, "{label}: lossy codec left no residual");
    }
}

#[test]
fn without_error_feedback_topk_bias_persists() {
    // The control: the same top-k codec with NO feedback starves the
    // never-selected coordinates entirely, so its accumulated bias is
    // an order of magnitude worse — this is what EF buys.
    let mut rng = seeded_rng(47);
    let n = 64;
    let rounds = 20;
    let codec = Codec::TopKInt8 { keep: 0.25 };
    let mut gaps = vec![0.0f64; n];
    for _ in 0..rounds {
        let data = uniform_vec(n, -1.0, 1.0, &mut rng);
        let state = one_tensor_state(data.clone());
        let delivered = codec_delivered(&state, codec, None, None);
        for i in 0..n {
            gaps[i] += (data[i] - delivered[0].tensor.data()[i]) as f64;
        }
    }
    let worst_gap = gaps.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    assert!(
        worst_gap / rounds as f64 > 0.05,
        "feedback-free top-k unexpectedly unbiased: {worst_gap}"
    );
}

// ---- cross-commit frame goldens --------------------------------------------
//
// Everything above compares the codecs with an oracle at the same
// commit. These two compare the frames with **their own past**, in the
// style of `tensor/tests/goldens.rs`: one FNV-1a over every byte of the
// five codec frames (two rounds each, so the error-feedback residual is
// in play) and one over an `ExactState::encode` frame plus the bits of
// its finalised mean, both recorded at `1abb939` (the parent of PR 24)
// and required to come out unchanged by every change to `fl::wire`,
// `fl::hierarchy` and `tensor::exact` since, except the switch to
// CRC-32C, which moved magics and trailers only (the body pins below
// prove it). A PR that claims "every frame byte unchanged" leaves the
// constants alone.
//
// Inputs are integer-derived (a multiplicative hash reduced mod 2001,
// scaled by a power of two) — no `randn`, no libm — so the operands are
// the same floats on any host and toolchain. Reduction mod 2001 makes
// |v| ties common, which is what the top-k tie-break has to survive.

/// Recorded at `1abb939` as `0x903c_3c2b_244b_fdd2`; re-recorded when
/// model frames moved to CRC-32C (body pinned below).
const GOLDEN_CODEC_FRAMES: u64 = 0x55aa_e69a_18e9_3ece;
/// Recorded at `1abb939` as `0x50dd_f449_15a1_dc46`; re-recorded when
/// `HPar` frames moved to CRC-32C (body and mean pinned below).
const GOLDEN_HPAR_FRAME: u64 = 0xff48_1b35_d6f9_c579;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// `len` floats in `[-15.6, 15.65]` from integer arithmetic alone.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| ((i + salt).wrapping_mul(2_654_435_761) % 2001) as f32 / 64.0 - 15.6)
        .collect()
}

/// A three-tensor state: a matrix full of |v| ties, a vector seeded
/// with signed zeros and exact ± pairs, and a small entry of specials
/// (NaN, ±∞, a subnormal, `f32::MAX`).
fn golden_state(salt: u64) -> Vec<StateEntry> {
    let mut v = fill(40, salt + 1000);
    for i in (0..40).step_by(5) {
        v[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    v[7] = -v[6];
    v[23] = -v[22];
    let specials = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x0000_0123),
        f32::MAX,
        -1.5,
        1.5,
    ];
    vec![
        entry("conv.weight", fill(63, salt), &[7, 9], true),
        entry("fc.bias", v, &[40], true),
        entry("bn.stat", specials, &[7], false),
    ]
}

/// Every golden codec frame, in the order the hash folds them.
fn golden_codec_frames() -> Vec<Bytes> {
    let reference = reference_for(&golden_state(3));
    let mut frames = Vec::new();
    for keep in [0.1f32, 0.5] {
        for idx in 0..5 {
            let codec = codec_from(idx, keep);
            let mut feedback = ErrorFeedback::new();
            for round in 0..2u64 {
                let state = golden_state(17 * round + 5);
                frames.push(encode_state_v2(&state, codec, Some(&reference), Some(&mut feedback)));
            }
            frames.push(encode_state_v2(&golden_state(9), codec, None, None));
        }
    }
    frames
}

/// The golden `HPar` frame and the bits of its decoded, finalised mean.
fn golden_hpar() -> (Bytes, Vec<u32>) {
    // Two shard accumulators over different snapshot multisets — finite
    // in-range values, exact cancellations, magnitudes from 2⁻¹⁴⁰ to
    // 2¹²⁰, and the specials of `golden_state` — merged as an edge
    // would, then encoded.
    let scaled = |salt: u64, scale: f32| -> Vec<StateEntry> {
        golden_state(salt)
            .into_iter()
            .map(|e| {
                let data = e.tensor.data().iter().map(|v| v * scale).collect();
                entry(&e.name, data, e.tensor.dims(), e.trainable)
            })
            .collect()
    };
    let template = golden_state(0);
    let mut a = ExactState::like(&template);
    let mut b = ExactState::like(&template);
    for salt in 0..6u64 {
        a.fold(&golden_state(salt));
        b.fold(&scaled(salt + 40, if salt % 2 == 0 { 1.0 } else { -1.0 }));
    }
    a.fold(&scaled(2, 2.0f32.powi(-140)));
    a.fold(&scaled(3, 2.0f32.powi(-70)));
    b.fold(&scaled(4, 2.0f32.powi(40)));
    b.fold(&scaled(5, 2.0f32.powi(120)));
    b.fold(&scaled(5, -(2.0f32.powi(120))));
    a.merge(&b);
    let frame = a.encode();
    let decoded = ExactState::decode(&frame, &ExactState::like(&template))
        .expect("own frame is well-formed")
        .expect("own frame passes its checksum");
    let mean = decoded
        .finalize(16)
        .iter()
        .flat_map(|e| e.tensor.data().iter().map(|v| v.to_bits()))
        .collect();
    (frame, mean)
}

/// The golden hash over `frame` followed by the mean's bits.
fn hpar_hash(frame: &[u8], mean: &[u32]) -> u64 {
    mean.iter().fold(fnv1a(FNV_OFFSET, frame), |h, v| fnv1a(h, &v.to_le_bytes()))
}

#[test]
fn codec_frames_match_the_golden_hash() {
    let hash = golden_codec_frames().iter().fold(FNV_OFFSET, |h, frame| fnv1a(h, frame));
    assert_eq!(hash, GOLDEN_CODEC_FRAMES, "a codec frame byte moved: {hash:#018x}");
}

#[test]
fn hpar_frame_matches_the_golden_hash() {
    let (frame, mean) = golden_hpar();
    let hash = hpar_hash(&frame, &mean);
    assert_eq!(hash, GOLDEN_HPAR_FRAME, "an HPar frame byte or mean bit moved: {hash:#018x}");
}

// The checksum switch moved the two constants above on purpose: new
// magics and a CRC-32C trailer. These pins hold everything else — each
// frame minus its 4-byte magic and its trailing checksum, and the HPar
// mean — to the bytes of `00fca51`, the last commit with FNV-1a
// trailers (8 bytes on HPar frames then, 4 now).

/// Recorded at `00fca51`.
const GOLDEN_CODEC_BODIES: u64 = 0xec0a_5c3c_944c_6149;
/// Recorded at `00fca51`.
const GOLDEN_HPAR_BODY: u64 = 0x5c8a_3187_400f_a7bd;

#[test]
fn codec_frame_bodies_match_the_fnv_era() {
    let hash = golden_codec_frames()
        .iter()
        .fold(FNV_OFFSET, |h, frame| fnv1a(h, &frame[4..frame.len() - 4]));
    assert_eq!(hash, GOLDEN_CODEC_BODIES, "a codec frame body byte moved: {hash:#018x}");
}

#[test]
fn hpar_frame_body_matches_the_fnv_era() {
    let (frame, mean) = golden_hpar();
    let hash = hpar_hash(&frame[4..frame.len() - 4], &mean);
    assert_eq!(hash, GOLDEN_HPAR_BODY, "an HPar body byte or mean bit moved: {hash:#018x}");
}
