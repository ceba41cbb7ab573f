//! Deterministic data parallelism for the tensor kernels.
//!
//! Every parallel kernel in this crate decomposes its **output** buffer
//! into fixed-size disjoint row bands and lets worker threads claim
//! bands from a shared counter. Three properties make the results
//! bit-identical to a sequential run at any thread count:
//!
//! 1. the band geometry depends only on the problem shape, never on the
//!    worker count;
//! 2. each band is computed by straight-line code with a fixed
//!    per-element accumulation order; and
//! 3. bands write disjoint output ranges, so there is no cross-thread
//!    reduction whose order could vary.
//!
//! The worker count is configured once per process from the
//! `FEDMP_THREADS` environment variable (default: all available cores;
//! `1` forces sequential execution). Tests and benches can flip the
//! count at runtime with [`override_threads`].
//!
//! Nested regions run sequentially: a kernel invoked from inside a band
//! worker (e.g. a GEMM inside a batch-parallel convolution) must not
//! spawn its own workers, both to bound the thread count and to keep
//! the outer decomposition the only source of scheduling.

// `ordered_map` is the round executor's claim loop: a panic here wedges
// the parameter server's round.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Minimum number of scalar operations before a kernel is worth
/// parallelising; below this, thread launch overhead dominates.
pub const MIN_PARALLEL_WORK: usize = 1 << 19;

static CONFIGURED: OnceLock<usize> = OnceLock::new();
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

static DISPATCHES: AtomicU64 = AtomicU64::new(0);
static BANDS: AtomicU64 = AtomicU64::new(0);

static GEMM_SIMD_DENSE: AtomicU64 = AtomicU64::new(0);
static GEMM_SCALAR_DENSE: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide kernel-scheduler counters, read by the
/// observability layer (`fedmp-obs`) to emit per-round `KernelDispatch`
/// events as deltas between two snapshots.
///
/// Two groups. `dispatches` / `bands` count [`for_each_band`]
/// invocations and the bands each call decomposes its output into;
/// `gemm_simd_dense` / `gemm_scalar_dense` count GEMM calls by the
/// kernel path that ran them, once per call before banding. Both groups
/// are **thread-count-invariant** — functions of the problem shape (and,
/// for the second, of the `FEDMP_SIMD` setting) only, identical whether
/// the bands then run sequentially or across workers. That keeps traces
/// byte-identical across `FEDMP_THREADS` settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total [`for_each_band`] invocations (with non-empty output).
    pub dispatches: u64,
    /// Total bands those invocations were decomposed into.
    pub bands: u64,
    /// GEMM calls that ran the SIMD kernel.
    pub gemm_simd_dense: u64,
    /// GEMM calls that ran the scalar kernel.
    pub gemm_scalar_dense: u64,
    /// Always 0: nothing tags a GEMM pruned any more; removed together
    /// with the `tensor.gemm_calls_*_pruned` metrics by the `[benchmark]`
    /// hygiene PR of ROADMAP item 5 (`benchmark/src/probes.rs` reads it).
    pub gemm_simd_pruned: u64,
    /// Always 0, kept for the same reader as `gemm_simd_pruned`.
    pub gemm_scalar_pruned: u64,
}

/// Snapshot of the process-wide [`KernelStats`] counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        dispatches: DISPATCHES.load(Ordering::Relaxed),
        bands: BANDS.load(Ordering::Relaxed),
        gemm_simd_dense: GEMM_SIMD_DENSE.load(Ordering::Relaxed),
        gemm_scalar_dense: GEMM_SCALAR_DENSE.load(Ordering::Relaxed),
        gemm_simd_pruned: 0,
        gemm_scalar_pruned: 0,
    }
}

/// Records which GEMM kernel path a dispatch selected. Counted once
/// per GEMM call, before banding, so the numbers are
/// thread-count-invariant for a fixed `FEDMP_SIMD` setting (they *do*
/// differ across settings — path choice is configuration, like the
/// thread count itself).
pub(crate) fn record_gemm_path(simd: bool) {
    let counter = if simd { &GEMM_SIMD_DENSE } else { &GEMM_SCALAR_DENSE };
    counter.fetch_add(1, Ordering::Relaxed);
}

thread_local! {
    static IN_BAND_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling thread marked as a parallel worker, so any
/// kernel dispatched inside runs sequentially instead of spawning its
/// own band workers.
///
/// This is how higher-level schedulers (the round executor in
/// `fedmp-fl`) compose with the kernel scheduler without multiplying
/// thread counts: the outer fan-out claims the configured threads, and
/// everything beneath it stays single-threaded. Results are unaffected
/// — kernels are bit-identical at any thread count — only scheduling
/// changes.
pub fn with_nested_sequential<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_BAND_WORKER.with(|flag| flag.replace(true));
    let out = f();
    IN_BAND_WORKER.with(|flag| flag.set(prev));
    out
}

/// Whether the calling thread is already inside a parallel worker
/// (a band worker, or a [`with_nested_sequential`] scope). Outer
/// schedulers check this to run nested fan-outs inline.
pub fn in_parallel_worker() -> bool {
    IN_BAND_WORKER.with(|flag| flag.get())
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The worker count kernels will use: the [`override_threads`] value if
/// one is set, else `FEDMP_THREADS`, else the available core count.
#[expect(
    clippy::disallowed_methods,
    reason = "FEDMP_THREADS is read once, pre-run, and pinned; results are thread-count-invariant"
)]
pub fn configured_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    *CONFIGURED.get_or_init(|| match std::env::var("FEDMP_THREADS") {
        Ok(raw) => raw.trim().parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            eprintln!("FEDMP_THREADS={raw:?} is not a positive integer; using core count");
            default_threads()
        }),
        Err(_) => default_threads(),
    })
}

/// Forces the worker count for this process (`None` restores the
/// `FEDMP_THREADS`/core-count default). Intended for tests and benches
/// that compare thread counts within one process; kernels running
/// concurrently with a change may use either count, which is safe
/// precisely because results are thread-count-invariant.
pub fn override_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Maps `f` over `items` in parallel, returning results in input
/// order. `f` receives `(index, item)`. This is the one claim loop of
/// the workspace: [`for_each_band`] runs its bands through it, and the
/// round executor (`fedmp_fl::exec`, which re-exports it and documents
/// the determinism contract closures must keep) its per-worker work.
///
/// Runs inline (a plain sequential loop) when there is at most one
/// item or configured thread, or when called from inside another
/// parallel worker. Otherwise scoped threads claim item indices from an
/// atomic counter, the calling thread acts as the final worker, and
/// each closure runs inside [`with_nested_sequential`], so kernels (and
/// maps) beneath it run inline — one level of the stack owns the
/// threads.
pub fn ordered_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = configured_threads().min(n);
    if threads <= 1 || in_parallel_worker() {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    // One slot per item: workers take the item out, run `f` inside a
    // nested-sequential scope, and park the result back in the same
    // slot, so output order is input order however claims interleave.
    // No lock is held across `f`, and each critical section is one
    // whole-value move, so a slot cannot be left poisoned or torn; the
    // guard is recovered rather than unwrapped to keep this path free of
    // a panic branch (a panicking `f` resurfaces when the scope joins).
    type Slot<T, R> = (Mutex<Option<T>>, Mutex<Option<R>>);
    let slots: Vec<Slot<T, R>> =
        items.into_iter().map(|item| (Mutex::new(Some(item)), Mutex::new(None))).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        with_nested_sequential(|| loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some((item_slot, result_slot)) = slots.get(idx) else { break };
            let Some(item) = item_slot.lock().unwrap_or_else(PoisonError::into_inner).take() else {
                continue;
            };
            let result = f(idx, item);
            *result_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        })
    };
    std::thread::scope(|scope| {
        for _ in 0..threads - 1 {
            scope.spawn(worker);
        }
        // The calling thread is the final worker.
        worker();
    });

    let out: Vec<R> = slots
        .into_iter()
        .filter_map(|(_, result)| result.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    // Every index < n is claimed exactly once and `f` always returns,
    // so no slot can be empty.
    debug_assert_eq!(out.len(), n, "ordered_map: missing result slot");
    out
}

/// Splits `out` (logically `rows × row_len`) into bands of `band_rows`
/// rows and runs `f(first_row, band)` over every band, in parallel when
/// `work` (a scalar-op estimate) and the configured thread count warrant
/// it. Band geometry is independent of the thread count, so the output
/// is identical — bit for bit — however many workers run.
pub fn for_each_band<T, F>(
    out: &mut [T],
    rows: usize,
    row_len: usize,
    band_rows: usize,
    work: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(out.len(), rows * row_len, "for_each_band: buffer/shape mismatch");
    if rows == 0 || row_len == 0 {
        return;
    }
    let band_rows = band_rows.max(1);
    let threads = configured_threads();
    let nested = in_parallel_worker();
    let n_bands = rows.div_ceil(band_rows);
    // Counted before the sequential/parallel branch so the numbers are
    // identical at every thread count.
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    BANDS.fetch_add(n_bands as u64, Ordering::Relaxed);
    if threads == 1 || nested || n_bands == 1 || work < MIN_PARALLEL_WORK {
        for (band_idx, band) in out.chunks_mut(band_rows * row_len).enumerate() {
            f(band_idx * band_rows, band);
        }
        return;
    }

    // Bands from `chunks_mut` are disjoint `&mut` slices — plain `Send`
    // items for the claim loop.
    let bands: Vec<(usize, &mut [T])> = out
        .chunks_mut(band_rows * row_len)
        .enumerate()
        .map(|(i, band)| (i * band_rows, band))
        .collect();
    ordered_map(bands, |_, (row0, band)| f(row0, band));
}

/// Fixed-order `f32` sum: a strict left-to-right fold in the order the
/// iterator yields its items.
///
/// Floating-point addition is not associative, so *any* reordering of a
/// reduction — parallel tree sums, unordered-container iteration — can
/// change the result bit-for-bit. The deterministic crates therefore
/// route every order-sensitive float reduction through this function
/// (or [`sum_f64`]) instead of ad-hoc `iter().sum()` calls, so the
/// accumulation order is auditable in a single place; the goldens
/// (`tests/goldens.rs`, every engine at 1 and 4 threads) catch a
/// reduction whose order drifts. Order-*insensitive* reductions
/// (`max`/`min`) may use plain folds.
pub fn sum_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    xs.into_iter().fold(0.0f32, |acc, v| acc + v)
}

/// `acc[r] += sum_f32(row r)` for every row of a row-major
/// `[acc.len(), row_len]` matrix — bit for bit what that expression
/// gives, row by row.
///
/// Each row's sum is still its own strict left-to-right fold from
/// `+0.0`; what changes is the schedule. [`sum_f32`] over one row is a
/// single dependent chain, one add latency per element; here eight rows
/// advance **in lock-step** — element `p` of each before element `p + 1`
/// of any — so eight independent chains are in flight and the adds
/// pipeline. No chain reads another, so no sum can differ. (The conv
/// bias gradient sums `oc` rows of 196–1024 gradients per image.)
pub fn add_row_sums_f32(xs: &[f32], row_len: usize, acc: &mut [f32]) {
    const LANES: usize = 8;
    assert_eq!(xs.len(), acc.len() * row_len, "add_row_sums_f32: matrix/accumulator mismatch");
    for (group, out) in acc.chunks_mut(LANES).enumerate() {
        let first = group * LANES;
        // A short last group pads its lanes with the group's first row;
        // those sums are computed and dropped.
        let rows: [&[f32]; LANES] = std::array::from_fn(|lane| {
            let r = first + if lane < out.len() { lane } else { 0 };
            &xs[r * row_len..(r + 1) * row_len]
        });
        let mut sums = [0.0f32; LANES];
        for p in 0..row_len {
            for (s, row) in sums.iter_mut().zip(&rows) {
                *s += row[p];
            }
        }
        for (a, s) in out.iter_mut().zip(sums) {
            *a += s;
        }
    }
}

/// Fixed-order `f64` sum: the [`sum_f32`] contract at double precision.
pub fn sum_f64<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    xs.into_iter().fold(0.0f64, |acc, v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_bands(threads: usize, rows: usize, band_rows: usize) -> Vec<f32> {
        override_threads(Some(threads));
        let row_len = 3;
        let mut out = vec![0.0f32; rows * row_len];
        // `work` above the threshold so the parallel path is exercised.
        for_each_band(&mut out, rows, row_len, band_rows, MIN_PARALLEL_WORK * 2, |row0, band| {
            for (r, row) in band.chunks_mut(row_len).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (row0 + r) as f32 * 10.0 + j as f32;
                }
            }
        });
        override_threads(None);
        out
    }

    #[test]
    fn bands_cover_every_row_once() {
        let out = fill_bands(1, 37, 4);
        for r in 0..37 {
            assert_eq!(out[r * 3], r as f32 * 10.0);
            assert_eq!(out[r * 3 + 2], r as f32 * 10.0 + 2.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let one = fill_bands(1, 53, 8);
        for threads in [2, 3, 7] {
            assert_eq!(fill_bands(threads, 53, 8), one);
        }
    }

    #[test]
    fn empty_work_is_a_noop() {
        let mut out: Vec<f32> = vec![];
        for_each_band(&mut out, 0, 5, 4, 0, |_, _| panic!("no bands expected"));
        for_each_band(&mut out, 5, 0, 4, 0, |_, _| panic!("no bands expected"));
    }

    #[test]
    fn nested_regions_run_sequentially() {
        override_threads(Some(4));
        let mut out = vec![0.0f32; 16];
        for_each_band(&mut out, 16, 1, 1, MIN_PARALLEL_WORK * 2, |row0, band| {
            // A nested call must not deadlock or spawn; it just runs.
            let mut inner = vec![0.0f32; 4];
            for_each_band(&mut inner, 4, 1, 1, MIN_PARALLEL_WORK * 2, |r0, b| {
                b[0] = r0 as f32;
            });
            band[0] = row0 as f32 + inner.iter().sum::<f32>();
        });
        override_threads(None);
        for (r, &v) in out.iter().enumerate() {
            assert_eq!(v, r as f32 + 6.0);
        }
    }

    #[test]
    fn nested_sequential_scope_sets_and_restores_the_flag() {
        assert!(!in_parallel_worker());
        let out = with_nested_sequential(|| {
            assert!(in_parallel_worker());
            // Nesting keeps the flag set and still restores correctly.
            with_nested_sequential(|| assert!(in_parallel_worker()));
            assert!(in_parallel_worker());
            7
        });
        assert_eq!(out, 7);
        assert!(!in_parallel_worker());
    }

    #[test]
    fn nested_sequential_scope_does_not_change_kernel_output() {
        override_threads(Some(4));
        let direct = fill_bands(4, 53, 8);
        override_threads(Some(4));
        let row_len = 3;
        let mut out = vec![0.0f32; 53 * row_len];
        with_nested_sequential(|| {
            for_each_band(&mut out, 53, row_len, 8, MIN_PARALLEL_WORK * 2, |row0, band| {
                for (r, row) in band.chunks_mut(row_len).enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (row0 + r) as f32 * 10.0 + j as f32;
                    }
                }
            });
        });
        override_threads(None);
        assert_eq!(out, direct);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn fixed_order_sums_match_sequential_iteration() {
        let xs: Vec<f32> = (0..100).map(|i| (i as f32).sin() * 1e-3).collect();
        let mut acc = 0.0f32;
        for &v in &xs {
            acc += v;
        }
        assert_eq!(sum_f32(xs.iter().copied()), acc);
        let ys: Vec<f64> = (0..100).map(|i| (i as f64).cos() * 1e-7).collect();
        let mut acc64 = 0.0f64;
        for &v in &ys {
            acc64 += v;
        }
        assert_eq!(sum_f64(ys.iter().copied()), acc64);
        assert_eq!(sum_f32(std::iter::empty()), 0.0);
    }

    #[test]
    fn kernel_stats_count_dispatches_and_bands() {
        // Counters are process-global and other tests run concurrently,
        // so assert monotone growth by at least this call's contribution
        // rather than exact deltas (exact thread-invariance is asserted
        // by the single-threaded trace tests in `fedmp-fl`).
        let before = kernel_stats();
        let mut out = vec![0.0f32; 10 * 3];
        for_each_band(&mut out, 10, 3, 4, 0, |_, _| {});
        let after = kernel_stats();
        assert!(after.dispatches > before.dispatches);
        assert!(after.bands >= before.bands + 3); // ceil(10/4) = 3 bands
    }
}
