//! Per-thread scratch-buffer pools for the convolution kernels.
//!
//! The convolution kernels need several short-lived `f32` buffers per
//! image (the zero-bordered phase planes their GEMMs read the columns
//! from, GEMM products, packed transposes). Under the round executor in
//! `fedmp-fl`, one worker thread trains a whole local model — hundreds
//! of such buffers per round — so allocating them afresh each call puts
//! the allocator on the hot path and makes concurrent workers contend
//! on it. A [`Workspace`] keeps returned buffers and hands them back on
//! the next request, smallest sufficient capacity first.
//!
//! Determinism rests on one of two contracts per buffer, chosen by the
//! take:
//!
//! * [`Workspace::take_zeroed`] zero-fills what it returns — exactly the
//!   state a fresh `vec![0.0; len]` starts in, so a kernel that
//!   *accumulates* into the buffer (a running sum, a GEMM output, the
//!   phase planes' border) is bit-identical to its allocating
//!   counterpart.
//! * [`Workspace::take_dirty`] returns initialised floats of
//!   **unspecified value** — whatever an earlier user left. It is for
//!   buffers whose every element the taker overwrites before anything
//!   reads it (a transposed gradient block, a packed transpose);
//!   skipping the fill is the point. Nothing can leak through such a
//!   buffer *if* the overwrite really is total, so the dirty takes in
//!   `conv.rs` are covered by a test that poisons the pool with NaN
//!   first (`workspace_path_is_bit_identical` in the conv module, which
//!   seeds the pool with NaN-filled buffers and compares against a fresh
//!   thread whose pool is empty).
//!
//! The pool is reached through a thread-local via
//! [`with_thread_workspace`]; each kernel borrows it for one leaf-level
//! scope (the closure must not re-enter `with_thread_workspace`, which
//! the kernels honour by taking every buffer they need up front).

use std::cell::RefCell;

/// Buffers kept per thread; beyond this, returned buffers are dropped.
/// The conv kernels use at most four distinct buffers at a time, so a
/// small cap bounds memory without ever thrashing.
const MAX_POOLED: usize = 8;

/// A pool of reusable `f32` scratch buffers. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// An empty workspace (no buffers pooled yet).
    pub const fn new() -> Self {
        Workspace { pool: Vec::new() }
    }

    /// Returns a zero-filled buffer of exactly `len` elements,
    /// preferring a pooled buffer whose capacity already suffices.
    /// The contents are indistinguishable from `vec![0.0; len]`.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pick(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer of exactly `len` initialised elements of
    /// **unspecified value** (a previous user's data, zeros where the
    /// buffer had to grow). For scratch the caller overwrites in full
    /// before reading; see the module docs for the contract.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pick(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Removes the pooled buffer both takes start from: the one with
    /// the **smallest** capacity that holds `len` (first-fit would hand
    /// the big column buffer to the small padded-image request taken
    /// just before it, and then allocate a second big one), else any
    /// buffer to grow, else a new one.
    fn pick(&mut self, len: usize) -> Vec<f32> {
        let fits = self.pool.iter().enumerate().filter(|(_, b)| b.capacity() >= len);
        match fits.min_by_key(|(_, b)| b.capacity()) {
            Some((i, _)) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        }
    }

    /// Returns a buffer to the pool for reuse by a later take.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.pool.len() < MAX_POOLED {
            self.pool.push(buf);
        }
    }

    /// Number of buffers currently pooled (for tests/diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// Runs `f` with exclusive access to the calling thread's [`Workspace`].
///
/// Not re-entrant: `f` must not call `with_thread_workspace` again
/// (kernels take all their buffers at the top of one scope instead).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_returns_cleared_buffers() {
        let mut ws = Workspace::new();
        let mut a = ws.take_zeroed(16);
        assert_eq!(a, vec![0.0; 16]);
        a.iter_mut().for_each(|v| *v = f32::NAN);
        ws.give(a);
        // The polluted buffer comes back zeroed, like a fresh vec.
        let b = ws.take_zeroed(16);
        assert_eq!(b, vec![0.0; 16]);
    }

    #[test]
    fn pool_reuses_capacity_across_sizes() {
        let mut ws = Workspace::new();
        let big = ws.take_zeroed(1024);
        let cap = big.capacity();
        ws.give(big);
        // A smaller request reuses the big buffer's allocation.
        let small = ws.take_zeroed(100);
        assert_eq!(small.len(), 100);
        assert_eq!(small.capacity(), cap);
        ws.give(small);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn take_dirty_sizes_without_filling() {
        let mut ws = Workspace::new();
        // A fresh buffer has nothing to leak: it is zeros.
        let mut a = ws.take_dirty(16);
        assert_eq!(a, vec![0.0; 16]);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.give(a);
        // Shrinking keeps the old data; growing appends zeros.
        let b = ws.take_dirty(8);
        assert_eq!(b, vec![7.0; 8]);
        ws.give(b);
        let c = ws.take_dirty(12);
        assert_eq!(c[..8], [7.0; 8]);
        assert_eq!(c[8..], [0.0; 4]);
    }

    /// Both takes pick the smallest sufficient capacity, so the conv
    /// kernels' small-then-large sequence (padded image, then columns)
    /// over a warmed pool never allocates. First-fit handed the large
    /// buffer to the small request and grew the small one for the
    /// large request.
    #[test]
    fn small_then_large_takes_reuse_a_warmed_pool() {
        let mut ws = Workspace::new();
        let (small, large) = (ws.take_zeroed(1_600), ws.take_dirty(24_500));
        let caps = [small.capacity(), large.capacity()];
        // Returned large-first, so a first-fit scan meets it first.
        ws.give(large);
        ws.give(small);
        for round in 0..3 {
            let small = ws.take_zeroed(1_600);
            let large = ws.take_dirty(24_500);
            assert_eq!([small.capacity(), large.capacity()], caps, "round {round}");
            assert_eq!(ws.pooled(), 0, "both requests were served from the pool");
            ws.give(large);
            ws.give(small);
            assert_eq!(ws.pooled(), 2);
        }
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..MAX_POOLED + 5 {
            ws.give(vec![0.0; 8]);
        }
        assert_eq!(ws.pooled(), MAX_POOLED);
        // Zero-capacity buffers are never pooled.
        let mut empty = Workspace::new();
        empty.give(Vec::new());
        assert_eq!(empty.pooled(), 0);
    }

    #[test]
    fn thread_workspace_is_per_thread() {
        with_thread_workspace(|ws| {
            ws.give(vec![1.0; 32]);
        });
        let other =
            std::thread::spawn(|| with_thread_workspace(|ws| ws.pooled())).join().expect("thread");
        assert_eq!(other, 0, "fresh thread starts with an empty pool");
        with_thread_workspace(|ws| assert!(ws.pooled() >= 1));
    }
}
