//! Pooled, reusable byte buffers for wire framing — the DPDK mbuf idiom.
//!
//! The binary wire path ([`crate::protocol::wire`]) encodes each frame into
//! a `Vec<u8>`. Allocating a fresh vector per response would put the
//! allocator back on the per-event hot path the engine worked to clear, so
//! connection handlers check buffers out of a [`BufferPool`] instead: a
//! checked-out [`PooledBuf`] derefs to `Vec<u8>`, and dropping it clears
//! the buffer (length, not capacity) and returns it to the pool. A frame's
//! steady-state cost is therefore zero allocations — the same few buffers
//! cycle between encode and write, already grown to the connection's
//! typical frame size.
//!
//! The pool is deliberately simple: a mutex over a stack of vectors. It is
//! per-connection-scoped in the server (contention-free) and global in the
//! loadgen client (shared across driver threads, where a single
//! uncontended mutex is noise next to the syscall each frame already
//! pays). Two bounds keep a burst from turning into a permanent memory
//! tax: at most `BufferPool::max_pooled` buffers are retained, and a
//! buffer that grew beyond `BufferPool::max_buf_capacity` is dropped
//! rather than pooled.

#![deny(clippy::unwrap_used)]

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// A bounded pool of reusable `Vec<u8>` frame buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Retain at most this many idle buffers.
    max_pooled: usize,
    /// Never pool a buffer whose capacity grew beyond this (one giant
    /// frame must not pin its memory forever).
    max_buf_capacity: usize,
}

impl BufferPool {
    /// A pool retaining up to `max_pooled` idle buffers of at most
    /// `max_buf_capacity` bytes each.
    pub fn new(max_pooled: usize, max_buf_capacity: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            free: Mutex::new(Vec::new()),
            max_pooled,
            max_buf_capacity,
        })
    }

    /// Defaults sized for a connection handler: a handful of in-flight
    /// frames, 1 MiB retention cap per buffer.
    pub fn for_connection() -> Arc<BufferPool> {
        BufferPool::new(8, 1 << 20)
    }

    /// Checks out an empty buffer (pooled if available, fresh otherwise).
    /// Dropping the returned handle recycles it.
    pub fn get(self: &Arc<BufferPool>) -> PooledBuf {
        let buf = {
            let mut free = match self.free.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            free.pop()
        };
        PooledBuf {
            buf: buf.unwrap_or_default(),
            pool: Arc::clone(self),
        }
    }

    /// Idle buffers currently retained (for tests/stats).
    pub fn idle(&self) -> usize {
        match self.free.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_buf_capacity {
            return;
        }
        buf.clear();
        let mut free = match self.free.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }
}

/// A checked-out pool buffer; derefs to `Vec<u8>` and returns itself to
/// the pool on drop.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<BufferPool>,
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = BufferPool::new(4, 1 << 20);
        {
            let mut b = pool.get();
            b.extend_from_slice(b"hello frame");
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1, "dropped buffer returned to the pool");
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffer comes back cleared");
        assert!(b.capacity() >= 11, "recycled buffer keeps its capacity");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_bounds_idle_count_and_buffer_size() {
        let pool = BufferPool::new(2, 64);
        let bufs: Vec<PooledBuf> = (0..4)
            .map(|_| {
                let mut b = pool.get();
                b.push(1);
                b
            })
            .collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2, "retention is capped at max_pooled");

        let mut big = pool.get();
        assert_eq!(pool.idle(), 1);
        big.extend_from_slice(&[0u8; 1024]);
        drop(big);
        assert_eq!(pool.idle(), 1, "oversized buffers are dropped, not pooled");
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool = BufferPool::new(4, 64);
        drop(pool.get());
        assert_eq!(pool.idle(), 0, "an untouched buffer has nothing to recycle");
    }
}
