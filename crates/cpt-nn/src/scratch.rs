//! Reusable scratch-buffer arena for per-batch graph allocations.
//!
//! Training builds a fresh tape every batch; without reuse, every node's
//! value, every backward intermediate and every gradient is a fresh heap
//! allocation. A [`ScratchArena`] is a shared pool of `Vec<f32>` buffers:
//! a [`crate::layers::Session`] created with
//! [`crate::layers::Session::with_scratch`] draws node storage from the
//! pool, and when the session's graph is dropped all node buffers return
//! to it. Every buffer the graph gives back is one it took, so after the
//! first batch the pool holds one tape's working set and the
//! forward/backward loop stops allocating.
//!
//! A buffer is either zeroed when taken ([`ScratchArena::take_zeroed`], for
//! an op that accumulates into it) or handed back with whatever it held
//! ([`ScratchArena::take_dirty`], for an op that writes every element), so
//! a buffer about to be overwritten is never zero-filled first, and earlier
//! contents never reach a result.
//!
//! Buffers are handed out by value (ownership moves out of the pool), so
//! no borrow is held while tensor ops may run rayon work inside — a stolen
//! nested task simply pops its own buffer or allocates fresh.

use std::cell::RefCell;
use std::rc::Rc;

/// What [`ScratchArena::take_dirty`] puts in elements no earlier use of the
/// buffer wrote: NaN in debug builds (where every element is this), so a
/// missed write shows in tests, and 0.0 in release builds.
pub(crate) const UNWRITTEN: f32 = if cfg!(debug_assertions) {
    f32::NAN
} else {
    0.0
};

/// Upper bound on pooled buffers; beyond this, returned buffers are freed.
/// A pool holds one tape's working set: 165 buffers per pool thread for the
/// `offline_pipeline` benchmark's shard (two transformer blocks), steady
/// from the first shard on. The bound only caps what a much larger tape
/// could retain.
const MAX_POOLED: usize = 4096;

/// A shared pool of reusable `f32` buffers. Cloning shares the pool.
#[derive(Clone, Default)]
pub struct ScratchArena {
    /// Ascending by capacity.
    pool: Rc<RefCell<Vec<Vec<f32>>>>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Takes a zeroed buffer of exactly `len` elements, for an op that
    /// accumulates into it.
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take_fit(len);
        buf.clear();
        buf.reserve_exact(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a buffer of exactly `len` elements for an op that overwrites
    /// every one of them. It keeps whatever the pooled buffer held (it is
    /// truncated, or grown at the tail with `UNWRITTEN`), so nothing the
    /// op is about to write is zero-filled first. Debug builds fill all of
    /// it with NaN instead: an element the op misses poisons its results
    /// rather than leaking an earlier tape's values into them.
    pub fn take_dirty(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take_fit(len);
        if cfg!(debug_assertions) {
            buf.clear();
        }
        buf.reserve_exact(len.saturating_sub(buf.len()));
        buf.resize(len, UNWRITTEN);
        buf
    }

    /// A pooled buffer for `len` elements, grown by the caller if smaller:
    /// the smallest that holds `len` if it is at most twice `len`, else the
    /// largest smaller one if it is at least half of `len`, else whichever
    /// of the two exists (the larger first), else a new one.
    ///
    /// Keeping every buffer within a factor of two of the request it serves
    /// keeps it near the size of one kind of node, tape after tape, even
    /// when the tapes' shapes vary (a packed shard's row count does). A
    /// loose best fit lets a small node take a large buffer; the large node
    /// then grows another, and over many tapes the pool creeps towards
    /// every buffer at the largest node's size — there is one arena per
    /// pool thread.
    fn take_fit(&self, len: usize) -> Vec<f32> {
        let mut pool = self.pool.borrow_mut();
        let fit = pool.partition_point(|b| b.capacity() < len);
        let above = pool.get(fit).map(|b| b.capacity() <= len.saturating_mul(2));
        let below = fit
            .checked_sub(1)
            .map(|i| pool[i].capacity().saturating_mul(2) >= len);
        match (above, below) {
            (Some(true), _) | (Some(false), Some(false) | None) => pool.remove(fit),
            (_, Some(_)) => pool.remove(fit - 1),
            (None, None) => Vec::new(),
        }
    }

    /// Returns a buffer to the pool.
    pub fn give(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.pool.borrow_mut();
        if pool.len() < MAX_POOLED {
            let at = pool.partition_point(|b| b.capacity() < buf.capacity());
            pool.insert(at, buf);
        }
    }

    /// Number of buffers currently pooled (for tests/diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.borrow().len()
    }

    /// The calling thread's private arena.
    ///
    /// `ScratchArena` is deliberately `Rc`-based and not `Send`, so
    /// data-parallel workers cannot share one pool across a rayon
    /// dispatch. Each worker instead draws from a `thread_local!` arena
    /// that lives as long as its pool thread: the first step on a thread
    /// populates it, later steps reuse it. Arena contents never influence
    /// numerical results — a buffer is zeroed where an op accumulates into
    /// it and fully overwritten everywhere else, and debug builds fill
    /// every dirty take with NaN so a missed element would show — so which
    /// thread (and therefore which arena) serves a shard is irrelevant to
    /// determinism.
    pub fn for_current_thread() -> ScratchArena {
        thread_local! {
            static THREAD_ARENA: ScratchArena = ScratchArena::new();
        }
        THREAD_ARENA.with(|a| a.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_buffers() {
        let arena = ScratchArena::new();
        let mut a = arena.take_zeroed(16);
        a[3] = 7.0;
        let cap = a.capacity();
        arena.give(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.take_zeroed(8);
        // Reused storage, re-zeroed.
        assert!(b.capacity() >= 8 && cap >= 8);
        assert!(b.iter().all(|x| *x == 0.0));
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn dirty_take_keeps_old_contents_in_release_and_is_nan_in_debug() {
        let arena = ScratchArena::new();
        arena.give(vec![7.0; 16]);
        let shorter = arena.take_dirty(10);
        arena.give(shorter);
        // Capacity 16, length 10: four elements grow back at the tail.
        let grown = arena.take_dirty(14);
        assert_eq!(grown.len(), 14);
        if cfg!(debug_assertions) {
            assert!(grown.iter().all(|x| x.is_nan()), "{grown:?}");
        } else {
            assert_eq!(grown, [[7.0; 10].as_slice(), &[0.0; 4]].concat());
        }
    }

    /// An op that misses one element of a dirty buffer leaves NaN in its
    /// result in a debug build (the one tier-1 tests), rather than a value
    /// of an earlier tape.
    #[test]
    #[cfg(debug_assertions)]
    fn a_missed_write_poisons_the_result_in_debug_builds() {
        let arena = ScratchArena::new();
        arena.give(vec![1.0; 8]);
        let mut out = arena.take_dirty(8);
        for (i, o) in out.iter_mut().enumerate().skip(1) {
            *o = i as f32;
        }
        assert!(out.iter().sum::<f32>().is_nan());
        let complete: f32 = {
            let mut out = arena.take_dirty(8);
            out.fill(2.0);
            out.iter().sum()
        };
        assert_eq!(complete, 16.0);
    }

    #[test]
    fn take_uses_the_smallest_buffer_that_fits() {
        let arena = ScratchArena::new();
        for len in [64, 4, 16] {
            arena.give(Vec::with_capacity(len));
        }
        let fit = arena.take_zeroed(10);
        assert_eq!((fit.len(), fit.capacity()), (10, 16));
        // Nothing holds 100 floats: the largest buffer grows.
        assert!(arena.take_zeroed(100).capacity() >= 100);
        assert_eq!(arena.take_zeroed(1).capacity(), 4);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn buffers_stay_within_a_factor_of_two_of_their_requests() {
        let arena = ScratchArena::new();
        arena.give(Vec::with_capacity(100));
        // Half a request's size is still grown rather than a buffer four
        // times too large taken.
        arena.give(Vec::with_capacity(400));
        assert_eq!(arena.take_dirty(180).capacity(), 180);
        // Below half, the larger buffer is taken as it is.
        arena.give(Vec::with_capacity(60));
        assert_eq!(arena.take_dirty(150).capacity(), 400);
    }

    /// Tapes of two kinds of node, four times apart in size, with a row
    /// count that varies from tape to tape as a packed shard's does: the
    /// pool stays near the largest tape's own size.
    #[test]
    fn a_pool_under_varying_tapes_stays_near_the_largest_tape() {
        let arena = ScratchArena::new();
        let mut largest = 0;
        for tape in 0..200usize {
            let rows = 64 + (tape * 37) % 193;
            let sizes: Vec<usize> = (0..12)
                .map(|i| rows * if i % 3 == 0 { 192 } else { 48 })
                .collect();
            largest = largest.max(sizes.iter().sum::<usize>());
            let bufs: Vec<Vec<f32>> = sizes.iter().map(|&n| arena.take_dirty(n)).collect();
            bufs.into_iter().for_each(|b| arena.give(b));
        }
        let pooled: usize = arena.pool.borrow().iter().map(Vec::capacity).sum();
        assert_eq!(arena.pooled(), 12);
        assert!(
            pooled <= largest + largest / 4,
            "pool {pooled} floats, largest tape {largest}"
        );
    }

    #[test]
    fn per_thread_arena_is_stable_within_a_thread() {
        let a = ScratchArena::for_current_thread();
        a.give(vec![0.0; 8]);
        // Same thread → same pool.
        assert_eq!(ScratchArena::for_current_thread().pooled(), a.pooled());
        // Another thread gets its own, initially empty pool.
        let other = std::thread::spawn(|| ScratchArena::for_current_thread().pooled())
            .join()
            .expect("thread");
        assert_eq!(other, 0);
    }

    #[test]
    fn clones_share_the_pool() {
        let arena = ScratchArena::new();
        let alias = arena.clone();
        alias.give(vec![0.0; 4]);
        assert_eq!(arena.pooled(), 1);
    }
}
