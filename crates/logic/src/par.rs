//! Deterministic scoped-thread worker pool — the workspace's only one.
//!
//! The build environment has no rayon (no crates.io access), so parallel
//! sections run on a tiny [`std::thread::scope`]-based pool instead. The
//! design constraint, inherited by every caller, is **bit-for-bit
//! determinism**: `pool.map_range(n, f)` returns exactly what the
//! sequential `(0..n).map(f)` loop returns, in the same order, for any
//! thread count — items are split into contiguous index ranges, each
//! worker computes its range independently (`f` receives the *global*
//! index, so seed-stream splitting is just "derive the seed from the
//! index"), and results are reassembled in range order. Threads only
//! change wall-clock time, never results.
//!
//! `logic` sits at the bottom of the workspace dependency graph, so the
//! pool lives here; `ambipla_core` re-exports it as `WorkerPool`. Used by
//! [`mod@crate::espresso`] to shard the per-output OFF-set complements and
//! the per-cube EXPAND step, by `fault::yield_analysis` to shard
//! Monte-Carlo trials, and by `ambipla_serve` to shard bulk sweeps.

use std::num::NonZeroUsize;

/// A fixed-width fork-join pool over [`std::thread::scope`].
///
/// Holds no threads while idle — each [`map_range`](Pool::map_range) call
/// spawns, joins and tears down its scoped workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running `threads` workers per parallel section.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Pool {
        assert!(threads > 0, "pool needs at least one thread");
        Pool { threads }
    }

    /// A pool sized to the machine's available parallelism (1 if unknown).
    pub fn available() -> Pool {
        Pool::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Worker count per parallel section.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel, returning results in item
    /// order. `f` gets the item's global index alongside the item, so
    /// index-derived seeding is identical no matter how items are sharded.
    ///
    /// Equivalent to `items.iter().enumerate().map(|(i, t)| f(i, t))` —
    /// including on panic: a panicking worker propagates the panic.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_range(items.len(), |i| f(i, &items[i]))
    }

    /// Apply `f` to every index in `0..n`, in parallel, returning results
    /// in index order — bit-identical to `(0..n).map(f).collect()`,
    /// including on panic (a panicking worker propagates the panic).
    pub fn map_range<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let chunk = n.div_ceil(self.threads);
        let mut shards: Vec<Vec<U>> = Vec::with_capacity(self.threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|lo| {
                    let f = &f;
                    let hi = (lo + chunk).min(n);
                    s.spawn(move || (lo..hi).map(f).collect::<Vec<U>>())
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(shard) => shards.push(shard),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        let mut out = Vec::with_capacity(n);
        out.extend(shards.into_iter().flatten());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_matches_sequential_loop_for_any_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3;
        let expected: Vec<u64> = (0..500).map(f).collect();
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(
                Pool::new(threads).map_range(500, f),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_tiny_ranges_are_fine() {
        let pool = Pool::new(8);
        assert_eq!(pool.map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_range(1, |i| i * 2), vec![0]);
        assert_eq!(pool.map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(pool.map(&[9u8], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        Pool::new(0);
    }

    #[test]
    fn map_preserves_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16, 300] {
            assert_eq!(
                Pool::new(threads).map(&items, |_, &x| x * x + 1),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn map_hands_out_global_indices() {
        let items = vec![(); 100];
        for threads in [1, 3, 8] {
            let idx = Pool::new(threads).map(&items, |i, ()| i);
            assert_eq!(idx, (0..100).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map_range(64, |i| {
                assert!(i != 40, "injected failure");
                i
            })
        });
        assert!(result.is_err());
    }
}
