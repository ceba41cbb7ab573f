//! Explicit SIMD GEMM microkernels and the `FEDMP_SIMD` path switch.
//!
//! The blocked scalar kernel in `crate::matmul` is what LLVM
//! auto-vectorises against the x86-64 baseline (SSE2). This module adds
//! a hand-written AVX2/FMA band kernel — one register block of 1–6
//! rows × 1–2 eight-lane vectors (up to twelve YMM accumulators held
//! across each `KC`-sized `k` tile), its last vector masked where the
//! column count is not a multiple of 8 — plus the runtime machinery
//! that decides, once per process, which kernel the dispatch in
//! `matmul::gemm_nn_into` uses:
//!
//! 1. a test/bench override ([`override_path`]),
//! 2. the `FEDMP_SIMD` environment variable (`auto` | `avx2` | `scalar`),
//! 3. runtime CPU feature detection (`avx2` **and** `fma` required).
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
//!   strip (16-wide, or the one strip of 1–15 left over) and lane mask
//!   own an element is a function of `(rows, n)` alone, never of the
//!   thread count — the band decomposition above this kernel is
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

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

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
static CONFIGURED: OnceLock<SimdPath> = OnceLock::new();

fn configured_path() -> SimdPath {
    *CONFIGURED.get_or_init(|| {
        // The env read below is the one sanctioned ambient input of this
        // module (mirroring FEDMP_THREADS in `parallel`): read once,
        // pre-run, then pinned for the process lifetime.
        match std::env::var("FEDMP_SIMD") {
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "scalar" => SimdPath::Scalar,
                "avx2" => {
                    if avx2_supported() {
                        SimdPath::Avx2
                    } else {
                        eprintln!(
                            "FEDMP_SIMD=avx2 requested but this host lacks avx2+fma; \
                             falling back to the scalar kernel"
                        );
                        SimdPath::Scalar
                    }
                }
                "auto" | "" => auto_path(),
                _ => {
                    eprintln!("FEDMP_SIMD={raw:?} is not one of auto|avx2|scalar; using auto");
                    auto_path()
                }
            },
            Err(_) => auto_path(),
        }
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
/// output with the full `k` extent, matching the contract of the scalar
/// `matmul::gemm_band`.
///
/// # Panics
/// Panics if the slice lengths disagree with `rows`/`k`/`n`, or if the
/// caller selected this kernel on a host without avx2+fma — dispatch
/// must route through [`active_path`], which never does.
pub(crate) fn gemm_band_avx2(a: &[f32], b: &[f32], rows: usize, k: usize, n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), rows * k, "gemm_band_avx2: lhs len");
    assert_eq!(b.len(), k * n, "gemm_band_avx2: rhs len");
    assert_eq!(c.len(), rows * n, "gemm_band_avx2: out len");
    assert!(avx2_supported(), "gemm_band_avx2 selected without avx2+fma");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above proves the host supports avx2+fma at
    // runtime, which is the only precondition of the target_feature fn.
    unsafe {
        x86::gemm_band(a, b, rows, k, n, c)
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2/FMA band kernel proper. Everything here is compiled
    //! with `target_feature(enable = "avx2,fma")` and reached only
    //! through the runtime-detection gate in the parent module.

    use core::arch::x86_64::{
        __m256, __m256i, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };

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

    /// One `k` tile `p0..p1` of a `[_, k] × [k, n]` product.
    #[derive(Clone, Copy)]
    struct Tile {
        k: usize,
        n: usize,
        p0: usize,
        p1: usize,
    }

    /// Entry point: `KC`-sized `k` tiles; inside each tile the column
    /// strips are the outer loop (so a strip's B panel is reused by all
    /// row blocks straight out of L1) and the row blocks the inner one.
    /// Columns are cut into 16-wide strips plus one strip for the 1–15
    /// left over, whose last vector is masked unless 8 are left; rows
    /// are cut by [`strip`]. Both cuts read `(rows, n)` only. Tiling
    /// only inserts exact f32 store/load round-trips of the running C
    /// value between tiles — the per-element FMA chain still consumes
    /// `k` in ascending order. The caller (`gemm_band_avx2`) has
    /// asserted all slice geometry.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn gemm_band(a: &[f32], b: &[f32], rows: usize, k: usize, n: usize, c: &mut [f32]) {
        if rows == 0 || n == 0 {
            return;
        }
        let left = n % 16;
        let full = Lanes::first(8);
        let mut p0 = 0;
        loop {
            let p1 = (p0 + KC).min(k);
            let t = Tile { k, n, p0, p1 };
            for j in (0..n - left).step_by(16) {
                strip::<2, false>(a, b, c, rows, t, j, full);
            }
            match left {
                0 => {}
                1..=7 => strip::<1, true>(a, b, c, rows, t, n - left, Lanes::first(left)),
                8 => strip::<1, false>(a, b, c, rows, t, n - left, full),
                _ => strip::<2, true>(a, b, c, rows, t, n - left, Lanes::first(left - 8)),
            }
            p0 = p1;
            if p0 >= k {
                break;
            }
        }
    }

    /// All row blocks of the strip starting at column `j`: `rows` is cut
    /// into `ceil(rows / 6)` blocks of near-equal height (taller ones
    /// first), so no block is ever a lone leftover row — 5 → 5,
    /// 10 → 5+5, 39 → 6+6+6+6+5+5+5.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn strip<const NV: usize, const MASKED: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        rows: usize,
        t: Tile,
        j: usize,
        lanes: Lanes,
    ) {
        let blocks = rows.div_ceil(MR_MAX);
        let (height, taller) = (rows / blocks, rows % blocks);
        let mut i = 0;
        for q in 0..blocks {
            let mr = height + usize::from(q < taller);
            match mr {
                1 => block::<1, NV, MASKED>(a, b, c, i, t, j, lanes),
                2 => block::<2, NV, MASKED>(a, b, c, i, t, j, lanes),
                3 => block::<3, NV, MASKED>(a, b, c, i, t, j, lanes),
                4 => block::<4, NV, MASKED>(a, b, c, i, t, j, lanes),
                5 => block::<5, NV, MASKED>(a, b, c, i, t, j, lanes),
                6 => block::<6, NV, MASKED>(a, b, c, i, t, j, lanes),
                _ => unreachable!("block height {mr} outside 1..={MR_MAX}"),
            }
            i += mr;
        }
    }

    /// The register block: rows `i..i+MR`, `NV` vectors of columns from
    /// `j`, over one `k` tile, with `MR × NV` YMM accumulators live
    /// across the tile. Each element is one FMA chain ascending in `k`
    /// in a fixed lane. With `MASKED` the last vector holds only
    /// `lanes.live` columns: its other lanes are never loaded from or
    /// stored to memory, and no lane reads another, so what they
    /// accumulate is discarded unseen.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn block<const MR: usize, const NV: usize, const MASKED: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i: usize,
        t: Tile,
        j: usize,
        lanes: Lanes,
    ) {
        let w = 8 * (NV - 1) + lanes.live;
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            *accr = load_row::<NV, MASKED>(&c[(i + r) * t.n + j..][..w], lanes);
        }
        let mut a_rows = [&a[..0]; MR];
        for (r, a_row) in a_rows.iter_mut().enumerate() {
            *a_row = &a[(i + r) * t.k + t.p0..(i + r) * t.k + t.p1];
        }
        for (p, b_row) in b[t.p0 * t.n..t.p1 * t.n].chunks_exact(t.n).enumerate() {
            let bv = load_row::<NV, MASKED>(&b_row[j..j + w], lanes);
            for (accr, a_row) in acc.iter_mut().zip(a_rows) {
                let av = _mm256_set1_ps(a_row[p]);
                for (x, &bx) in accr.iter_mut().zip(&bv) {
                    *x = _mm256_fmadd_ps(av, bx, *x);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            store_row::<NV, MASKED>(&mut c[(i + r) * t.n + j..][..w], accr, lanes);
        }
    }

    /// `NV` vectors from a row segment of `8 * (NV - 1) + lanes.live`
    /// floats; with `MASKED` the last one is a masked load.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn load_row<const NV: usize, const MASKED: bool>(s: &[f32], lanes: Lanes) -> [__m256; NV] {
        let mut v = [_mm256_setzero_ps(); NV];
        for (q, vq) in v.iter_mut().enumerate() {
            *vq = if MASKED && q == NV - 1 {
                let live = &s[8 * q..8 * q + lanes.live];
                // SAFETY: `live` is a checked slice of `lanes.live`
                // f32s and `lanes.mask` enables exactly that many
                // leading lanes (`Lanes::first`); a masked load neither
                // reads nor faults on the lanes it disables.
                unsafe { _mm256_maskload_ps(live.as_ptr(), lanes.mask) }
            } else {
                load8(s, 8 * q)
            };
        }
        v
    }

    /// Stores what [`load_row`] loaded, back to the same segment.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn store_row<const NV: usize, const MASKED: bool>(
        s: &mut [f32],
        v: &[__m256; NV],
        lanes: Lanes,
    ) {
        for (q, &vq) in v.iter().enumerate() {
            if MASKED && q == NV - 1 {
                let live = &mut s[8 * q..8 * q + lanes.live];
                // SAFETY: `live` is a checked slice of `lanes.live`
                // f32s and `lanes.mask` enables exactly that many
                // leading lanes (`Lanes::first`); a masked store writes
                // only enabled lanes and does not fault on the rest.
                unsafe { _mm256_maskstore_ps(live.as_mut_ptr(), lanes.mask, vq) }
            } else {
                store8(s, 8 * q, vq);
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
        gemm_band_avx2(&a, &b, rows, k, n, &mut c);
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
