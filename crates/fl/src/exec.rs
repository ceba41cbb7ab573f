//! The deterministic round executor: an ordered parallel map for
//! per-worker round work.
//!
//! Every loop engine spends its round fanning the same shape of work
//! over the worker fleet — extract a sub-model, run `local_train`,
//! package the result — and then folds the results back **in worker
//! order**. [`ordered_map`] is that fan-out: it runs `f(i, item)` for
//! every item on a pool of `FEDMP_THREADS` scoped workers and returns
//! the results in input order, so the sequential fold that follows
//! (timing, aggregation, trace emission) is untouched by scheduling.
//!
//! # Determinism argument
//!
//! The executor keeps runs bit-identical to a serial loop at any
//! thread count because of a strict division of labour:
//!
//! 1. **Order-sensitive state never enters the closure.** Bandit
//!    `select()` calls, fault-injector RNG steps, and every
//!    `fedmp-obs` event emission happen on the caller's thread, before
//!    or after the fan-out, in fixed worker order. The closure may
//!    only touch its own item plus shared *read-only* state (the
//!    global model, the task, the config).
//! 2. **Per-item work is self-seeded.** Each worker's stochasticity
//!    derives from a per-`(seed, round, worker)` RNG, so the value
//!    `f(i, item)` produces is a pure function of its inputs — not of
//!    which thread ran it or when.
//! 3. **Results return by slot, not by completion.** Each item writes
//!    its result into its own index; the output vector reads the slots
//!    in input order, which makes downstream float accumulation order
//!    (aggregation, `ResourceTotals`) identical to the serial loop.
//!
//! # Scheduling
//!
//! The pool is `fedmp_tensor::parallel`'s — the same claim loop the
//! band scheduler runs its bands through, re-exported here under the
//! path the engines call: scoped threads claim item indices from an
//! atomic counter, the calling thread acts as the final worker, and a
//! closure running on a pool worker is wrapped in
//! [`fedmp_tensor::parallel::with_nested_sequential`] so kernels beneath
//! it (and any nested `ordered_map`) run inline instead of spawning
//! their own workers — one level of the stack owns the threads. Spawning is
//! per-call (threads are not parked between rounds), but per-thread
//! state that matters for throughput — the `fedmp_tensor::workspace`
//! scratch pools backing im2col/GEMM — lives for a worker's whole
//! claim streak, so buffer reuse spans every batch of a worker's
//! `local_train`.

pub use fedmp_tensor::parallel::ordered_map;

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::parallel::{self, override_threads};
    use std::sync::atomic::Ordering;

    #[test]
    fn results_come_back_in_input_order() {
        override_threads(Some(4));
        let out = ordered_map((0..100).collect(), |i, v: usize| {
            assert_eq!(i, v);
            v * 3
        });
        override_threads(None);
        assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads| {
            override_threads(Some(threads));
            // A float fold whose value depends on per-item order.
            let out = ordered_map((0..64).collect(), |_, v: usize| {
                (0..200).fold(v as f32, |acc, j| acc + (acc * 1e-3 + j as f32).sin())
            });
            override_threads(None);
            out
        };
        let serial = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads), serial);
        }
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        override_threads(Some(4));
        let none: Vec<i32> = ordered_map(Vec::<i32>::new(), |_, v| v);
        assert!(none.is_empty());
        assert_eq!(ordered_map(vec![41], |_, v| v + 1), vec![42]);
        override_threads(None);
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        override_threads(Some(4));
        let out = ordered_map((0..8).collect(), |_, v: usize| {
            // From inside a pool worker, the nested map must not spawn.
            assert!(parallel::in_parallel_worker());
            let inner = ordered_map((0..4).collect(), |_, w: usize| w + v);
            inner.iter().sum::<usize>()
        });
        override_threads(None);
        assert_eq!(out[0], 1 + 2 + 3);
        assert_eq!(out[7], 7 * 4 + 6);
    }

    #[test]
    fn pool_workers_see_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        override_threads(Some(3));
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        let _ = ordered_map((0..97).collect(), |i, _v: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        override_threads(None);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
