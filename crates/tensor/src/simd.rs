//! Explicit SIMD GEMM microkernels, the AVX2 exact window fold behind
//! [`crate::ExactVec::add`], the SSE4.2 CRC-32C loop behind
//! [`crate::crc32c`], the F16C and AVX2 wire-code kernels behind
//! [`crate::f32s_to_f16_le`], [`crate::f16_le_to_f32s`] and
//! [`crate::int8_codes`], and the `FEDMP_SIMD` path switch.
//!
//! The byte-path kernels each return exactly what a portable
//! formulation returns, and that formulation stays as the path taken
//! under `FEDMP_SIMD=scalar` (or without the instructions) and as the
//! oracle the kernel is tested against:
//!
//! | kernel | portable path and oracle | proof |
//! |---|---|---|
//! | `crc32c_sse42`: three streams over 512-byte blocks, joined by `crc::advance_block` | slicing-by-8 in `crc` | `crc::tests`: every length to 3·512+64 at 8 offsets |
//! | `f32_to_f16_f16c`: `vcvtps2ph`, nearest-even immediate, NaN → `sign \| 0x7E00` | [`crate::f32_to_f16_bits`] | `tests/codes.rs`: all 2³² inputs (`--ignored`) |
//! | `f16_to_f32_f16c`: `vcvtph2ps`, NaN → `sign \| 0x7FC0_0000` | [`crate::f16_bits_to_f32`] | `tests/codes.rs`: all 2¹⁶ inputs (`--ignored`) |
//! | `int8_codes_avx2`: divide, truncate, step away from zero at ½, clamp, NaN → 0 | [`crate::int8_code`] | `tests/codes.rs`: all 2³² inputs at scale 1 (`--ignored`) |
//!
//! The blocked scalar kernel in `crate::matmul` is what LLVM
//! auto-vectorises against the x86-64 baseline (SSE2). This module adds
//! a hand-written AVX2/FMA band kernel — one register block of 1–6
//! rows × 1–2 eight-lane vectors (up to twelve YMM accumulators held
//! across each `KC`-sized `k` tile), generic over where its operands
//! live (`matmul::Operand`), a vector masked where a contiguous stretch
//! of B's columns is not a multiple of 8 — plus the runtime machinery
//! that decides, once per process, which kernel the dispatch in
//! `matmul::gemm_nn_into` (and in `ExactVec::add` and the code slice
//! functions) uses:
//!
//! 1. a test/bench override ([`override_path`]),
//! 2. the `FEDMP_SIMD` environment variable (`auto` | `avx2` | `scalar`),
//! 3. runtime CPU feature detection (`avx2` **and** `fma` required; the
//!    f16 kernels also need `f16c`, and the CRC loop `sse4.2` alone).
//!
//! A request for `avx2` on a host without the features downgrades to
//! the scalar path with a warning rather than risking an illegal
//! instruction; `scalar` always wins so any run can be reproduced
//! bit-for-bit on a machine without AVX2.
//!
//! # Determinism under SIMD
//!
//! The workspace contract — bit-identical results run-to-run and at any
//! thread count for a fixed configuration — holds for the AVX2 kernel
//! by the same argument as the scalar one:
//!
//! * every output element is accumulated in **one fixed lane** of one
//!   accumulator register as a single FMA chain ascending in `k`; there
//!   are no horizontal sums, so lanes never interact. The `KC` tiling
//!   only inserts exact f32 store/load round-trips of the running value
//!   between tiles — tile boundaries are a function of `k` alone;
//! * which register block (1–6 rows high, split near-equally), column
//!   strip (two 8-lane pieces of B's contiguous stretches) and lane mask
//!   own an element is a function of `(rows, n)` and B's layout alone,
//!   never of the thread count — the band decomposition above this kernel is
//!   likewise shape-only. And it could not matter if it were not: the
//!   chain above reads row `i` of A, column `j` of B and `k`, nothing
//!   of the block around it, and a masked-off lane is neither loaded
//!   from nor stored to memory;
//! * FMA is an IEEE 754 fused operation (one rounding), so each chain
//!   is a pure function of its inputs.
//!
//! The SIMD result *differs* from the scalar path in the last ulps
//! (fused vs separate rounding, different tile widths) — that
//! cross-path difference is bounded by the tolerance proptests, while
//! each path is exactly reproducible on its own.
//!
//! The other kernels here do not differ at all. The 8×8 transpose and
//! the CRC-32C loop move or hash the same bytes either way, and the
//! exact window fold (`exact_fold_avx2`) is integer arithmetic: four
//! 128-bit two's-complement additions per step, the same integers the
//! scalar loop in `crate::exact` adds. The f16 conversions are IEEE
//! operations with one defined result, once every NaN is mapped to the
//! software's one quiet NaN, and the int8 quantiser performs the same
//! IEEE division as the scalar code and then rounds its quotient by
//! exact comparisons. So every window, spill, sum, code and frame byte
//! is **bit-identical** across paths, and `FEDMP_SIMD` decides only
//! how fast they come out.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::matmul::Operand;

/// Which inner GEMM kernel the dispatch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Hand-written AVX2/FMA register-blocked kernel.
    Avx2,
    /// The portable blocked scalar kernel (LLVM auto-vectorised against
    /// the target baseline).
    Scalar,
}

impl SimdPath {
    /// Stable lowercase name, as accepted by `FEDMP_SIMD` and reported
    /// in benches/traces.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Avx2 => "avx2",
            SimdPath::Scalar => "scalar",
        }
    }
}

/// Whether this host can run the AVX2 kernel (needs `avx2` + `fma`).
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this host has the SSE4.2 `crc32` instruction.
pub(crate) fn sse42_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED.get_or_init(|| is_x86_feature_detected!("sse4.2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this host has the F16C conversions (`vcvtps2ph`,
/// `vcvtph2ps`).
fn f16c_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED.get_or_init(|| is_x86_feature_detected!("f16c"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the slice conversions in [`crate::codes`] run the F16C
/// kernels: the selected path is [`SimdPath::Avx2`] (so the host has
/// avx2) and the host has F16C. Either way the bits are the same.
pub(crate) fn f16c_active() -> bool {
    active_path() == SimdPath::Avx2 && f16c_supported()
}

/// Detected ISA summary for bench metadata, e.g. `"x86_64:avx2+fma"` or
/// `"x86_64:baseline"`; non-x86 hosts report the architecture alone.
pub fn detected_features() -> String {
    let arch = std::env::consts::ARCH;
    if avx2_supported() {
        format!("{arch}:avx2+fma")
    } else {
        format!("{arch}:baseline")
    }
}

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_AVX2: u8 = 1;
const OVERRIDE_SCALAR: u8 = 2;

static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

/// What `FEDMP_SIMD` asked for, before it is resolved against the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Auto,
    Avx2,
    Scalar,
}

static REQUESTED: OnceLock<Request> = OnceLock::new();

#[expect(clippy::disallowed_methods, reason = "FEDMP_SIMD, read once and pinned (below)")]
fn requested() -> Request {
    *REQUESTED.get_or_init(|| {
        // The env read below is the one sanctioned ambient input of this
        // module (mirroring FEDMP_THREADS in `parallel`): read once,
        // pre-run, then pinned for the process lifetime.
        match std::env::var("FEDMP_SIMD") {
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "scalar" => Request::Scalar,
                "avx2" => {
                    if !avx2_supported() {
                        eprintln!(
                            "FEDMP_SIMD=avx2 requested but this host lacks avx2+fma; \
                             falling back to the scalar kernel"
                        );
                    }
                    Request::Avx2
                }
                "auto" | "" => Request::Auto,
                _ => {
                    eprintln!("FEDMP_SIMD={raw:?} is not one of auto|avx2|scalar; using auto");
                    Request::Auto
                }
            },
            Err(_) => Request::Auto,
        }
    })
}

static CONFIGURED: OnceLock<SimdPath> = OnceLock::new();

fn configured_path() -> SimdPath {
    *CONFIGURED.get_or_init(|| match requested() {
        Request::Scalar => SimdPath::Scalar,
        Request::Avx2 | Request::Auto => auto_path(),
    })
}

fn auto_path() -> SimdPath {
    if avx2_supported() {
        SimdPath::Avx2
    } else {
        SimdPath::Scalar
    }
}

/// The kernel path GEMM dispatch will use: the [`override_path`] value
/// if one is set, else the `FEDMP_SIMD` choice, else auto-detection.
/// An override of [`SimdPath::Avx2`] on a host without the features
/// resolves to [`SimdPath::Scalar`] (the kernel is never selected
/// unsupported, which is what makes `gemm_band_avx2` safe to call).
pub fn active_path() -> SimdPath {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_AVX2 if avx2_supported() => SimdPath::Avx2,
        OVERRIDE_AVX2 => SimdPath::Scalar,
        OVERRIDE_SCALAR => SimdPath::Scalar,
        _ => configured_path(),
    }
}

/// Whether [`crate::crc32c`] runs the SSE4.2 loop: the host has the
/// instruction and the path selection ([`override_path`], else
/// `FEDMP_SIMD`) did not ask for `scalar`. Either path returns the same
/// value, so this decides speed only; `scalar` keeps the portable table
/// path testable end to end on any host.
pub(crate) fn crc32c_hardware() -> bool {
    sse42_supported()
        && match OVERRIDE.load(Ordering::Relaxed) {
            OVERRIDE_SCALAR => false,
            OVERRIDE_AVX2 => true,
            _ => requested() != Request::Scalar,
        }
}

/// Forces the kernel path for this process (`None` restores the
/// `FEDMP_SIMD`/auto default). Intended for tests and benches that
/// compare both paths within one process; like
/// [`crate::parallel::override_threads`], kernels running concurrently
/// with a change may use either path, so bitwise path comparisons must
/// serialise their flips.
pub fn override_path(path: Option<SimdPath>) {
    let v = match path {
        None => OVERRIDE_NONE,
        Some(SimdPath::Avx2) => OVERRIDE_AVX2,
        Some(SimdPath::Scalar) => OVERRIDE_SCALAR,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// One band of the AVX2/FMA kernel: `C += A @ B` over `rows × n` of the
/// output (rows `row0..` of `A`) with the full `k` extent, matching the
/// contract of the scalar `matmul::gemm_band`.
///
/// # Panics
/// Panics if `c` disagrees with `rows`/`n`, if an operand element lies
/// outside its data, or if the caller selected this kernel on a host
/// without avx2+fma — dispatch must route through [`active_path`],
/// which never does.
pub(crate) fn gemm_band_avx2<A: Operand, B: Operand>(
    a: &A,
    row0: usize,
    b: &B,
    rows: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    assert_eq!(c.len(), rows * n, "gemm_band_avx2: out len");
    assert!(avx2_supported(), "gemm_band_avx2 selected without avx2+fma");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2+fma at
    // runtime, which is the only precondition of the target_feature fn.
    unsafe {
        x86::gemm_band(a, row0, b, rows, k, n, c)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx2_supported() is false on non-x86_64, so the assert above already fired");
}

/// Cache-tiled transpose (`dst[c * rows + r] = src[r * cols + c]`)
/// through AVX2 8×8 in-register blocks. A transpose is pure element
/// copies, so this is **bit-identical** to the scalar tile loop in
/// `matmul::pack_transpose_into` — which path packs a panel never
/// affects any numeric result, only how fast the pack runs.
///
/// # Panics
/// Panics if the slice lengths disagree with `rows`/`cols`, or if
/// called on a host without avx2+fma (dispatch must check
/// [`active_path`] first).
pub(crate) fn transpose_avx2(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose_avx2: src len");
    assert_eq!(dst.len(), src.len(), "transpose_avx2: dst len");
    assert!(avx2_supported(), "transpose_avx2 selected without avx2+fma");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2+fma at
    // runtime, which is the only precondition of the target_feature fn.
    unsafe {
        x86::transpose(src, rows, cols, dst)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx2_supported() is false on non-x86_64, so the assert above already fired");
}

/// CRC-32C of `bytes` through the SSE4.2 `crc32` instruction: three
/// interleaved 8-byte streams over each whole run of three
/// `crate::crc::STREAM_BLOCK`-byte blocks, joined through
/// `crate::crc::advance_block`, then one stream over the rest. Returns
/// what the table path in `crate::crc` returns.
///
/// # Panics
/// Panics if called on a host without SSE4.2 (dispatch must check
/// [`crc32c_hardware`] first).
pub(crate) fn crc32c_sse42(bytes: &[u8]) -> u32 {
    assert!(sse42_supported(), "crc32c_sse42 selected without sse4.2");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports sse4.2 at
    // runtime, which is the only precondition of the target_feature fn.
    unsafe {
        x86::crc32c(bytes)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("sse42_supported() is false on non-x86_64, so the assert above already fired");
}

/// `crate::codes::f32_to_f16_bits` over the leading whole eight-value
/// steps of `src`, through F16C, each half written as two
/// little-endian bytes; returns how many values it converted (the
/// caller converts the rest).
///
/// # Panics
/// Panics if `dst` is not two bytes per value, or if called when
/// [`f16c_active`] is false.
pub(crate) fn f32_to_f16_f16c(src: &[f32], dst: &mut [u8]) -> usize {
    assert_eq!(2 * src.len(), dst.len(), "f32_to_f16_f16c: length mismatch");
    assert!(f16c_active(), "f32_to_f16_f16c selected without avx2+f16c");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2 and f16c
    // at runtime, which is the only precondition of the target_feature fn.
    unsafe {
        x86::f32_to_f16(src, dst)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("f16c_active() is false on non-x86_64, so the assert above already fired");
}

/// `crate::codes::f16_bits_to_f32` over the leading whole eight-value
/// steps of `src`, two little-endian bytes per half, through F16C;
/// returns how many values it converted.
///
/// # Panics
/// Panics if `src` is not two bytes per value, or if called when
/// [`f16c_active`] is false.
pub(crate) fn f16_to_f32_f16c(src: &[u8], dst: &mut [f32]) -> usize {
    assert_eq!(src.len(), 2 * dst.len(), "f16_to_f32_f16c: length mismatch");
    assert!(f16c_active(), "f16_to_f32_f16c selected without avx2+f16c");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2 and f16c
    // at runtime, which is the only precondition of the target_feature fn.
    unsafe {
        x86::f16_to_f32(src, dst)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("f16c_active() is false on non-x86_64, so the assert above already fired");
}

/// `crate::codes::int8_code` at `scale` over the leading whole
/// eight-value steps of `src`, through AVX2; returns how many values it
/// coded.
///
/// # Panics
/// Panics if the lengths differ, or if called on a host without avx2
/// (dispatch must check [`active_path`] first).
pub(crate) fn int8_codes_avx2(src: &[f32], scale: f32, dst: &mut [i8]) -> usize {
    assert_eq!(src.len(), dst.len(), "int8_codes_avx2: length mismatch");
    assert!(avx2_supported(), "int8_codes_avx2 selected without avx2");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2 at runtime,
    // which is the only precondition of the target_feature fn.
    unsafe {
        x86::int8_codes(src, scale, dst)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx2_supported() is false on non-x86_64, so the assert above already fired");
}

/// The in-window half of `ExactVec::add` through AVX2, four slots per
/// step: adds each `xs[i]` with |x| ∈ [2⁻⁶², 2²¹) into `window[i]` as
/// the same shifted-mantissa integer the scalar loop adds, and leaves
/// every other slot's window as it was. Returns whether any of those
/// other slots held a nonzero value — subnormal, out of range or
/// non-finite — which the caller must then spill.
///
/// # Panics
/// Panics if the lengths differ or are not a multiple of four, or if
/// called on a host without avx2 (dispatch must check [`active_path`]
/// first).
pub(crate) fn exact_fold_avx2(window: &mut [i128], xs: &[f32]) -> bool {
    assert_eq!(window.len(), xs.len(), "exact_fold_avx2: length mismatch");
    assert_eq!(xs.len() % 4, 0, "exact_fold_avx2: {} slots is not whole steps", xs.len());
    assert!(avx2_supported(), "exact_fold_avx2 selected without avx2");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2 at runtime,
    // which is the only precondition of the target_feature fn.
    unsafe {
        x86::exact_fold(window, xs)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx2_supported() is false on non-x86_64, so the assert above already fired");
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2/FMA band kernel proper and the exact window fold,
    //! compiled with `target_feature(enable = "avx2,fma")` (the fold and
    //! the int8 quantiser: `avx2` alone), the f16 conversions, compiled
    //! with `avx2,f16c`, and the CRC-32C loop, compiled with
    //! `target_feature(enable = "sse4.2")`. Each is reached only through
    //! its runtime-detection gate in the parent module.

    use crate::crc::{advance_block, STREAM_BLOCK};
    use crate::exact::{WINDOW_EXP_MIN, WINDOW_SPAN};
    use crate::matmul::Operand;
    use core::arch::x86_64::{
        __m256, __m256i, _mm256_add_epi64, _mm256_add_ps, _mm256_and_ps, _mm256_and_si256,
        _mm256_andnot_ps, _mm256_andnot_si256, _mm256_blendv_ps, _mm256_bslli_epi128,
        _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64,
        _mm256_cvtepu32_epi64, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_cvttps_epi32,
        _mm256_div_ps, _mm256_extracti128_si256, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_max_ps, _mm256_min_ps,
        _mm256_or_ps, _mm256_or_si256, _mm256_permute2f128_ps, _mm256_round_ps, _mm256_set1_epi64x,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_shuffle_ps,
        _mm256_slli_epi64, _mm256_sllv_epi64, _mm256_srli_epi64, _mm256_srlv_epi64,
        _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_sub_ps, _mm256_testz_si256,
        _mm256_unpackhi_epi64, _mm256_unpackhi_ps, _mm256_unpacklo_epi64, _mm256_unpacklo_ps,
        _mm256_xor_si256, _mm_and_si128, _mm_andnot_si128, _mm_cmpgt_epi16, _mm_crc32_u64,
        _mm_crc32_u8, _mm_loadu_si128, _mm_or_si128, _mm_packs_epi16, _mm_packs_epi32,
        _mm_set1_epi16, _mm_shuffle_epi32, _mm_storel_epi64, _mm_storeu_si128, _CMP_GE_OQ,
        _CMP_UNORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT, _MM_FROUND_TO_ZERO,
    };

    /// f32 → f16 bits, eight per step: `vcvtps2ph` rounding to nearest
    /// even (the immediate, not MXCSR), which is the software rule for
    /// every non-NaN input. For a NaN it keeps the top payload bits;
    /// the fix-up clears the whole mantissa of every NaN lane and sets
    /// the quiet bit, so a NaN codes as `sign | 0x7E00` as in software.
    /// Returns the values converted: every whole step.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn f32_to_f16(src: &[f32], dst: &mut [u8]) -> usize {
        let abs = _mm_set1_epi16(0x7FFF);
        let inf = _mm_set1_epi16(0x7C00);
        let mant = _mm_set1_epi16(0x03FF);
        let quiet = _mm_set1_epi16(0x0200);
        let mut done = 0;
        for (x, h) in src.chunks_exact(8).zip(dst.chunks_exact_mut(16)) {
            // SAFETY: `x` is a checked slice of exactly 8 f32s; the
            // unaligned load reads precisely those 32 bytes.
            let v = unsafe { _mm256_loadu_ps(x.as_ptr()) };
            let bits = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            // A NaN half is one whose magnitude bits exceed Inf's.
            let nan = _mm_cmpgt_epi16(_mm_and_si128(bits, abs), inf);
            let bits = _mm_or_si128(
                _mm_andnot_si128(_mm_and_si128(nan, mant), bits),
                _mm_and_si128(nan, quiet),
            );
            // SAFETY: `h` is a checked slice of exactly 16 bytes; the
            // unaligned store writes precisely those, each half's low
            // byte first (x86 is little-endian).
            unsafe { _mm_storeu_si128(h.as_mut_ptr().cast(), bits) };
            done += 8;
        }
        done
    }

    /// f16 bits → f32, eight per step: `vcvtph2ps` is exact for every
    /// non-NaN input. A NaN lane is replaced by `sign | 0x7FC0_0000`,
    /// the software rule, whatever payload the instruction kept.
    /// Returns the values converted: every whole step.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn f16_to_f32(src: &[u8], dst: &mut [f32]) -> usize {
        let sign = _mm256_set1_ps(-0.0);
        let quiet = _mm256_set1_ps(f32::from_bits(0x7FC0_0000));
        let mut done = 0;
        for (h, x) in src.chunks_exact(16).zip(dst.chunks_exact_mut(8)) {
            // SAFETY: `h` is a checked slice of exactly 16 bytes, eight
            // little-endian halves; the unaligned load reads precisely
            // those.
            let v = _mm256_cvtph_ps(unsafe { _mm_loadu_si128(h.as_ptr().cast()) });
            let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
            let fixed = _mm256_or_ps(_mm256_and_ps(v, sign), quiet);
            let v = _mm256_blendv_ps(v, fixed, nan);
            // SAFETY: `x` is a checked slice of exactly 8 f32s; the
            // unaligned store writes precisely those 32 bytes.
            unsafe { _mm256_storeu_ps(x.as_mut_ptr(), v) };
            done += 8;
        }
        done
    }

    /// The int8 code `(v / scale).round().clamp(-127.0, 127.0) as i8`,
    /// eight per step, without a `roundf` call: the same IEEE division,
    /// then truncation, then one step away from zero where the
    /// remainder `q − trunc(q)` — exact, as both share `q`'s leading
    /// bits — is at least ½ in magnitude; that is rounding half away
    /// from zero. An infinite `q` keeps its sign (its remainder is NaN,
    /// which never steps), the clamp bounds it, and a NaN `q` codes as
    /// 0, as the saturating cast does. Returns the values coded: every
    /// whole step.
    #[target_feature(enable = "avx2")]
    pub(super) fn int8_codes(src: &[f32], scale: f32, dst: &mut [i8]) -> usize {
        let scale = _mm256_set1_ps(scale);
        let sign = _mm256_set1_ps(-0.0);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let (lo, hi) = (_mm256_set1_ps(-127.0), _mm256_set1_ps(127.0));
        let mut done = 0;
        for (x, c) in src.chunks_exact(8).zip(dst.chunks_exact_mut(8)) {
            // SAFETY: `x` is a checked slice of exactly 8 f32s; the
            // unaligned load reads precisely those 32 bytes.
            let q = _mm256_div_ps(unsafe { _mm256_loadu_ps(x.as_ptr()) }, scale);
            let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
            let rem = _mm256_andnot_ps(sign, _mm256_sub_ps(q, t));
            let step = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(rem, half), one);
            let r = _mm256_add_ps(t, _mm256_or_ps(step, _mm256_and_ps(q, sign)));
            let r = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
            let r = _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(q, q), r);
            let words = _mm256_cvttps_epi32(r);
            let halves = _mm_packs_epi32(
                _mm256_castsi256_si128(words),
                _mm256_extracti128_si256::<1>(words),
            );
            // SAFETY: `c` is a checked slice of exactly 8 i8s; the
            // 64-bit store writes precisely those 8 bytes (the low half
            // of the pack, codes 0..8 in order).
            unsafe { _mm_storel_epi64(c.as_mut_ptr().cast(), _mm_packs_epi16(halves, halves)) };
            done += 8;
        }
        done
    }

    /// The window fold, four slots per step. Each lane widens one `f32`
    /// bit pattern to a `u64` and builds the 128-bit addend
    /// `mant << off` (`off = exp − WINDOW_EXP_MIN ∈ 0..=82`) from its
    /// halves: `lo = mant << off`, and `hi = (mant << 40) >> (104 − off)`
    /// — the 24-bit mantissa parked at the top of a word, so one right
    /// shift by `104 − off ∈ 22..=104` lands every bit `mant << off`
    /// puts above bit 63. Both rely on a variable shift by a count ≥ 64
    /// (a negative one included, read unsigned) yielding 0, and
    /// out-of-window lanes have their mantissa zeroed first, so they
    /// add 0. A set sign bit negates the pair in two's complement; the
    /// pair is then added to the slot's little-endian `(lo, hi)` words
    /// with the carry out of `lo` taken from an unsigned compare. All
    /// integer arithmetic: the same bits as the scalar loop's `i128`
    /// addition.
    #[target_feature(enable = "avx2")]
    pub(super) fn exact_fold(window: &mut [i128], xs: &[f32]) -> bool {
        let zero = _mm256_setzero_si256();
        let top = _mm256_set1_epi64x(i64::MIN);
        let exp_min = _mm256_set1_epi64x(i64::from(WINDOW_EXP_MIN));
        // `off` reads as unsigned through `^ top`, so one signed compare
        // finds both ends: below the window wraps to the top.
        let span = _mm256_set1_epi64x(i64::from(WINDOW_SPAN) ^ i64::MIN);
        let frac = _mm256_set1_epi64x(0x7F_FFFF);
        let hidden = _mm256_set1_epi64x(0x80_0000);
        let byte = _mm256_set1_epi64x(0xFF);
        let abs = _mm256_set1_epi64x(0x7FFF_FFFF);
        let hi_shift = _mm256_set1_epi64x(i64::from(WINDOW_EXP_MIN) + 104);
        let mut outside = zero;
        for (w, x) in window.chunks_exact_mut(4).zip(xs.chunks_exact(4)) {
            // SAFETY: `x` is a checked slice of exactly 4 f32s; the
            // unaligned load reads precisely those 16 bytes.
            let raw = unsafe { _mm_loadu_si128(x.as_ptr().cast()) };
            // Slots in lane order 0, 2, 1, 3: the order the 64-bit
            // unpacks below interleave back into memory order.
            let bits = _mm256_cvtepu32_epi64(_mm_shuffle_epi32::<0b11_01_10_00>(raw));
            let exp = _mm256_and_si256(_mm256_srli_epi64::<23>(bits), byte);
            let off = _mm256_sub_epi64(exp, exp_min);
            let out = _mm256_cmpgt_epi64(_mm256_xor_si256(off, top), span);
            let mant =
                _mm256_andnot_si256(out, _mm256_or_si256(_mm256_and_si256(bits, frac), hidden));
            let lo = _mm256_sllv_epi64(mant, off);
            let hi =
                _mm256_srlv_epi64(_mm256_slli_epi64::<40>(mant), _mm256_sub_epi64(hi_shift, exp));
            // −(hi, lo) = (!hi + [lo == 0], !lo + 1) where negative.
            let neg = _mm256_cmpgt_epi64(bits, abs);
            let lo_carry = _mm256_and_si256(neg, _mm256_cmpeq_epi64(lo, zero));
            let lo = _mm256_sub_epi64(_mm256_xor_si256(lo, neg), neg);
            let hi = _mm256_sub_epi64(_mm256_xor_si256(hi, neg), lo_carry);
            let (w01, w23) = w.split_at_mut(2);
            add_pairs(w01, _mm256_unpacklo_epi64(lo, hi));
            add_pairs(w23, _mm256_unpackhi_epi64(lo, hi));
            // Nonzero where an out-of-window lane has a nonzero magnitude.
            outside = _mm256_or_si256(outside, _mm256_and_si256(out, _mm256_and_si256(bits, abs)));
        }
        _mm256_testz_si256(outside, outside) == 0
    }

    /// Adds two 128-bit addends, laid out `[lo0, hi0, lo1, hi1]`, into
    /// the two slots of `w`: 64-bit adds, then each `lo` word's carry
    /// (`sum < addend` unsigned) subtracted as −1 from the `hi` word
    /// beside it. The byte shift stays inside each 128-bit lane, so it
    /// moves a `lo` carry up one word and drops the `hi` compare.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_pairs(w: &mut [i128], addend: __m256i) {
        let w = &mut w[..2];
        let top = _mm256_set1_epi64x(i64::MIN);
        // SAFETY: `w` is a checked slice of exactly 2 i128s; the
        // unaligned load reads precisely those 32 bytes.
        let old = unsafe { _mm256_loadu_si256(w.as_ptr().cast()) };
        let sum = _mm256_add_epi64(old, addend);
        let carry = _mm256_cmpgt_epi64(_mm256_xor_si256(addend, top), _mm256_xor_si256(sum, top));
        let sum = _mm256_sub_epi64(sum, _mm256_bslli_epi128::<8>(carry));
        // SAFETY: `w` is a checked slice of exactly 2 i128s; the
        // unaligned store writes precisely those 32 bytes.
        unsafe { _mm256_storeu_si256(w.as_mut_ptr().cast(), sum) }
    }

    /// CRC-32C (reflected, init and final XOR `!0`). The instruction
    /// computes the Castagnoli polynomial's reflected update, the same
    /// step the table path applies byte by byte, with a 3-cycle latency
    /// and a throughput of one per cycle. So each run of three
    /// `STREAM_BLOCK`-byte blocks `a ‖ b ‖ c` is hashed as three
    /// interleaved chains, `a` from the running register and `b`, `c`
    /// from 0, and joined by linearity:
    /// `h(r, a‖b‖c) = A(A(h(r, a)) ^ h(0, b)) ^ h(0, c)`, with `A` the
    /// advance over one block of zeros ([`advance_block`]). The rest is
    /// one `crc32` per little-endian 8-byte word, then one per byte.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn crc32c(bytes: &[u8]) -> u32 {
        let word = |w: &[u8]| {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            u64::from_le_bytes(b)
        };
        let mut crc = u32::MAX;
        let mut steps = bytes.chunks_exact(3 * STREAM_BLOCK);
        for step in &mut steps {
            let (a, bc) = step.split_at(STREAM_BLOCK);
            let (b, c) = bc.split_at(STREAM_BLOCK);
            let (mut ha, mut hb, mut hc) = (u64::from(crc), 0, 0);
            for ((wa, wb), wc) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
                ha = _mm_crc32_u64(ha, word(wa));
                hb = _mm_crc32_u64(hb, word(wb));
                hc = _mm_crc32_u64(hc, word(wc));
            }
            crc = advance_block(advance_block(ha as u32) ^ hb as u32) ^ hc as u32;
        }
        let mut words = steps.remainder().chunks_exact(8);
        let mut wide = u64::from(crc);
        for w in &mut words {
            wide = _mm_crc32_u64(wide, word(w));
        }
        let mut crc = wide as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        !crc
    }

    /// Cache-tiled transpose with an 8×8 in-register inner block
    /// (unpack / shuffle / 128-bit-lane permute — the classic AVX
    /// pattern). Element copies only: bit-identical to the scalar
    /// tile loop whatever the tiling.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
        const TILE: usize = 32;
        for r0 in (0..rows).step_by(TILE) {
            let r_end = (r0 + TILE).min(rows);
            for c0 in (0..cols).step_by(TILE) {
                let c_end = (c0 + TILE).min(cols);
                let mut r = r0;
                while r + 8 <= r_end {
                    let mut c = c0;
                    while c + 8 <= c_end {
                        t8x8(src, rows, cols, r, c, dst);
                        c += 8;
                    }
                    for rr in r..r + 8 {
                        for cc in c..c_end {
                            dst[cc * rows + rr] = src[rr * cols + cc];
                        }
                    }
                    r += 8;
                }
                for rr in r..r_end {
                    for cc in c0..c_end {
                        dst[cc * rows + rr] = src[rr * cols + cc];
                    }
                }
            }
        }
    }

    /// Transposes the 8×8 block at `src[r.., c..]` into `dst[c.., r..]`
    /// entirely in registers.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn t8x8(src: &[f32], rows: usize, cols: usize, r: usize, c: usize, dst: &mut [f32]) {
        let mut i = [_mm256_setzero_ps(); 8];
        for (q, iq) in i.iter_mut().enumerate() {
            *iq = load8(src, (r + q) * cols + c);
        }
        store_t8x8(shuffle8(i), dst, rows, r, c);
    }

    /// The classic AVX 8×8 transpose shuffle network (unpack / shuffle
    /// / 128-bit-lane permute): returns the transposed registers.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn shuffle8(i: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(i[0], i[1]);
        let t1 = _mm256_unpackhi_ps(i[0], i[1]);
        let t2 = _mm256_unpacklo_ps(i[2], i[3]);
        let t3 = _mm256_unpackhi_ps(i[2], i[3]);
        let t4 = _mm256_unpacklo_ps(i[4], i[5]);
        let t5 = _mm256_unpackhi_ps(i[4], i[5]);
        let t6 = _mm256_unpacklo_ps(i[6], i[7]);
        let t7 = _mm256_unpackhi_ps(i[6], i[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// Stores the transposed 8×8 block to `dst[c.., r..]` (dst stride
    /// `rows`).
    #[target_feature(enable = "avx2", enable = "fma")]
    fn store_t8x8(o: [__m256; 8], dst: &mut [f32], rows: usize, r: usize, c: usize) {
        for (q, oq) in o.iter().enumerate() {
            store8(dst, (c + q) * rows + r, *oq);
        }
    }

    /// `k`-tile size: large enough to amortise the C round-trip between
    /// tiles, small enough that a tile's 16-column B strip (`KC × 16`
    /// floats = 16 KiB) stays L1-resident while every row block of the
    /// band traverses it.
    const KC: usize = 256;

    /// Tallest register block: `6 × 2` accumulators, two B vectors and
    /// one A broadcast fill 15 of the 16 YMM registers.
    const MR_MAX: usize = 6;

    /// Lane-mask source: the eight words starting at `8 - live` have the
    /// sign bit set in exactly the first `live` lanes.
    const LANE_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// The last vector of a column strip: how many of its lanes hold
    /// columns of the matrix (`1..=8`) and the mask enabling exactly
    /// those. Only [`Lanes::first`] builds one, which is what lets the
    /// masked load/store trust `mask` against a slice of `live` floats.
    #[derive(Clone, Copy)]
    struct Lanes {
        live: usize,
        mask: __m256i,
    }

    impl Lanes {
        #[target_feature(enable = "avx2", enable = "fma")]
        fn first(live: usize) -> Self {
            assert!((1..=8).contains(&live), "Lanes::first: {live} of 8 lanes");
            let words = &LANE_MASKS[8 - live..16 - live];
            // SAFETY: `words` is a checked slice of exactly 8 i32s; the
            // unaligned load reads precisely those 32 bytes.
            let mask = unsafe { _mm256_loadu_si256(words.as_ptr().cast()) };
            Lanes { live, mask }
        }
    }

    /// One `k` tile `p0..p1` of a band whose first row is row `row0` of
    /// `A`; `n` is the width of `C`.
    #[derive(Clone, Copy)]
    struct Tile {
        row0: usize,
        n: usize,
        p0: usize,
        p1: usize,
    }

    /// One vector of a column strip: where its first column sits in a
    /// row of `B` (`b`) and of `C` (`c`), and how many of its 8 lanes
    /// hold columns.
    #[derive(Clone, Copy)]
    struct Piece {
        b: usize,
        c: usize,
        live: usize,
    }

    /// `B`'s columns `0..n` as vectors: each contiguous stretch of a
    /// `B` row cut into 8-lane windows, the last window of a stretch
    /// short when fewer than 8 columns are left. A dense `B` is one
    /// stretch; a tap view one per output row.
    fn pieces<B: Operand>(b: &B, n: usize) -> impl Iterator<Item = Piece> + '_ {
        b.stretches(0, n).flat_map(|(q, off, len)| {
            (0..len).step_by(8).map(move |x| Piece { b: off + x, c: q + x, live: (len - x).min(8) })
        })
    }

    /// Entry point: `KC`-sized `k` tiles; inside each tile the column
    /// strips are the outer loop (so a strip's B panel is reused by all
    /// row blocks straight out of L1) and the row blocks the inner one.
    /// A strip is two consecutive full [`pieces`], a full piece and the
    /// short one after it (masked), or one piece alone, so only a
    /// strip's last vector is ever masked; for a dense B that is
    /// 16-wide strips, then one strip for the 1–15 columns left over.
    /// Rows are cut by [`strip`]. Both cuts read `(rows, n)` and B's
    /// layout only. Tiling only inserts exact f32 store/load
    /// round-trips of the running C value between tiles — the
    /// per-element FMA chain still consumes `k` in ascending order. The
    /// caller (`gemm_band_avx2`) has asserted the geometry of `c`;
    /// operand reads are bounds-checked slices (`block`'s A reads are
    /// checked once per stretch).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn gemm_band<A: Operand, B: Operand>(
        a: &A,
        row0: usize,
        b: &B,
        rows: usize,
        k: usize,
        n: usize,
        c: &mut [f32],
    ) {
        if rows == 0 || n == 0 {
            return;
        }
        let full = Lanes::first(8);
        let mut p0 = 0;
        loop {
            let p1 = (p0 + KC).min(k);
            let t = Tile { row0, n, p0, p1 };
            let mut vectors = pieces(b, n);
            while let Some(v0) = vectors.next() {
                if v0.live < 8 {
                    strip::<1, true, A, B>(a, b, c, rows, t, [v0], Lanes::first(v0.live));
                    continue;
                }
                match vectors.next() {
                    Some(v1) if v1.live == 8 => {
                        strip::<2, false, A, B>(a, b, c, rows, t, [v0, v1], full)
                    }
                    Some(v1) => {
                        strip::<2, true, A, B>(a, b, c, rows, t, [v0, v1], Lanes::first(v1.live))
                    }
                    None => strip::<1, false, A, B>(a, b, c, rows, t, [v0], full),
                }
            }
            p0 = p1;
            if p0 >= k {
                break;
            }
        }
    }

    /// All row blocks of one column strip: `rows` is cut into
    /// `ceil(rows / 6)` blocks of near-equal height (taller ones first),
    /// so no block is ever a lone leftover row — 5 → 5, 10 → 5+5,
    /// 39 → 6+6+6+6+5+5+5.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn strip<const NV: usize, const MASKED: bool, A: Operand, B: Operand>(
        a: &A,
        b: &B,
        c: &mut [f32],
        rows: usize,
        t: Tile,
        vectors: [Piece; NV],
        lanes: Lanes,
    ) {
        let blocks = rows.div_ceil(MR_MAX);
        let (height, taller) = (rows / blocks, rows % blocks);
        let mut i = 0;
        for q in 0..blocks {
            let mr = height + usize::from(q < taller);
            let v = &vectors;
            match mr {
                1 => block::<1, NV, MASKED, A, B>(a, b, c, i, t, v, lanes),
                2 => block::<2, NV, MASKED, A, B>(a, b, c, i, t, v, lanes),
                3 => block::<3, NV, MASKED, A, B>(a, b, c, i, t, v, lanes),
                4 => block::<4, NV, MASKED, A, B>(a, b, c, i, t, v, lanes),
                5 => block::<5, NV, MASKED, A, B>(a, b, c, i, t, v, lanes),
                6 => block::<6, NV, MASKED, A, B>(a, b, c, i, t, v, lanes),
                _ => unreachable!("block height {mr} outside 1..={MR_MAX}"),
            }
            i += mr;
        }
    }

    /// The register block: rows `i..i+MR` of the band, the strip's `NV`
    /// vectors of columns, over one `k` tile, with `MR × NV` YMM
    /// accumulators live across the tile. Each element is one FMA chain
    /// ascending in `k` in a fixed lane; `A` is read by scalar
    /// broadcast along its contiguous stretches of `k`, and each `B`
    /// vector is one window of a `B` row. With `MASKED` the last vector
    /// holds only `lanes.live` columns: its other lanes are never loaded
    /// from or stored to memory, and no lane reads another, so what they
    /// accumulate is discarded unseen.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn block<const MR: usize, const NV: usize, const MASKED: bool, A: Operand, B: Operand>(
        a: &A,
        b: &B,
        c: &mut [f32],
        i: usize,
        t: Tile,
        vectors: &[Piece; NV],
        lanes: Lanes,
    ) {
        // A row of B or C is read as one window, from the first vector's
        // column to the last's end: one bounds check per row, and the
        // vectors' checks inside it are the same for every row.
        let width = if MASKED { lanes.live } else { 8 };
        let (b_lo, c_lo) = (vectors[0].b, vectors[0].c);
        let (b_hi, c_hi) = (vectors[NV - 1].b + width, vectors[NV - 1].c + width);
        let (b_cols, c_cols) = (vectors.map(|v| v.b - b_lo), vectors.map(|v| v.c - c_lo));
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let row = (i + r) * t.n;
            *accr = load_vectors::<NV, MASKED>(&c[row + c_lo..row + c_hi], c_cols, lanes);
        }
        for (q, off, len) in a.stretches(t.p0, t.p1) {
            let a_segs = a.segments::<MR>(t.row0 + i, off, len);
            assert!(a_segs.iter().all(|seg| seg.len() == len), "block: A segment length");
            for (s, b_window) in (0..len).zip(b.windows(q, q + len, b_lo, b_hi)) {
                let bv = load_vectors::<NV, MASKED>(b_window, b_cols, lanes);
                for (accr, seg) in acc.iter_mut().zip(&a_segs) {
                    // SAFETY: `s < len`, and every segment holds exactly
                    // `len` floats (asserted above). A checked index here
                    // costs the loop one compare per row per step, which
                    // LLVM does not hoist.
                    let av = _mm256_set1_ps(*unsafe { seg.get_unchecked(s) });
                    for (x, &bx) in accr.iter_mut().zip(&bv) {
                        *x = _mm256_fmadd_ps(av, bx, *x);
                    }
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let row = (i + r) * t.n;
            store_vectors::<NV, MASKED>(&mut c[row + c_lo..row + c_hi], c_cols, accr, lanes);
        }
    }

    /// `NV` vectors of `s`, vector `q` at `s[cols[q]..]`; with `MASKED`
    /// the last one is a masked load of its `lanes.live` floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn load_vectors<const NV: usize, const MASKED: bool>(
        s: &[f32],
        cols: [usize; NV],
        lanes: Lanes,
    ) -> [__m256; NV] {
        let mut v = [_mm256_setzero_ps(); NV];
        for (q, (vq, col)) in v.iter_mut().zip(cols).enumerate() {
            *vq = if MASKED && q == NV - 1 {
                let live = &s[col..col + lanes.live];
                // SAFETY: `live` is a checked slice of `lanes.live`
                // f32s and `lanes.mask` enables exactly that many
                // leading lanes (`Lanes::first`); a masked load neither
                // reads nor faults on the lanes it disables.
                unsafe { _mm256_maskload_ps(live.as_ptr(), lanes.mask) }
            } else {
                load8(s, col)
            };
        }
        v
    }

    /// Stores what [`load_vectors`] loaded, back to the same places.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn store_vectors<const NV: usize, const MASKED: bool>(
        s: &mut [f32],
        cols: [usize; NV],
        v: &[__m256; NV],
        lanes: Lanes,
    ) {
        for (q, (&vq, col)) in v.iter().zip(cols).enumerate() {
            if MASKED && q == NV - 1 {
                let live = &mut s[col..col + lanes.live];
                // SAFETY: `live` is a checked slice of `lanes.live`
                // f32s and `lanes.mask` enables exactly that many
                // leading lanes (`Lanes::first`); a masked store writes
                // only enabled lanes and does not fault on the rest.
                unsafe { _mm256_maskstore_ps(live.as_mut_ptr(), lanes.mask, vq) }
            } else {
                store8(s, col, vq);
            }
        }
    }

    /// Eight lanes of `s` starting at `off`, bounds-checked.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn load8(s: &[f32], off: usize) -> __m256 {
        let lanes = &s[off..off + 8];
        // SAFETY: `lanes` is a checked slice of exactly 8 f32s; the
        // unaligned load reads precisely those 32 bytes.
        unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
    }

    /// Stores eight lanes into `s` starting at `off`, bounds-checked.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn store8(s: &mut [f32], off: usize, v: __m256) {
        let lanes = &mut s[off..off + 8];
        // SAFETY: `lanes` is a checked slice of exactly 8 f32s; the
        // unaligned store writes precisely those 32 bytes.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::Dense;

    #[test]
    fn path_names_round_trip() {
        assert_eq!(SimdPath::Avx2.name(), "avx2");
        assert_eq!(SimdPath::Scalar.name(), "scalar");
    }

    #[test]
    fn detected_features_names_the_arch() {
        assert!(detected_features().starts_with(std::env::consts::ARCH));
    }

    #[test]
    fn scalar_override_always_wins() {
        override_path(Some(SimdPath::Scalar));
        assert_eq!(active_path(), SimdPath::Scalar);
        override_path(None);
    }

    #[test]
    fn avx2_override_is_clamped_to_support() {
        override_path(Some(SimdPath::Avx2));
        let got = active_path();
        if avx2_supported() {
            assert_eq!(got, SimdPath::Avx2);
        } else {
            assert_eq!(got, SimdPath::Scalar);
        }
        override_path(None);
    }

    #[test]
    fn avx2_band_matches_scalar_shape_contract() {
        if !avx2_supported() {
            return;
        }
        // 5 rows is a single 5-row block; n = 21 is one 16-wide strip
        // plus a one-vector strip with 5 of its 8 lanes enabled.
        let (rows, k, n) = (5, 7, 21);
        let a: Vec<f32> = (0..rows * k).map(|v| (v as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32 * 0.21).cos()).collect();
        let mut c = vec![0.0f32; rows * n];
        let (a_op, b_op) = (Dense { data: &a, cols: k }, Dense { data: &b, cols: n });
        gemm_band_avx2(&a_op, 0, &b_op, rows, k, n, &mut c);
        for i in 0..rows {
            for j in 0..n {
                let mut want = 0.0f64;
                for p in 0..k {
                    want += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
                let got = c[i * n + j] as f64;
                assert!((got - want).abs() < 1e-4, "c[{i},{j}] = {got} vs {want}");
            }
        }
    }
}
