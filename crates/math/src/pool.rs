//! `PolyPool`: a size-classed buffer pool for the kernel hot path.
//!
//! Steady-state HE evaluation (key switching, hoisted rotations, matvec
//! kernels) churns through polynomial-sized `Vec<u64>` scratch and result
//! rows at a furious rate. This module recycles them: every buffer handed
//! out comes from a free list keyed by exact length when one is available,
//! and `recycle` returns buffers to that list instead of the allocator, so
//! after a warmup pass the evaluator performs **zero fresh heap
//! allocations** for polynomial data (proven by the counter-based test in
//! `crates/he/tests/zero_alloc.rs`).
//!
//! Design points:
//!
//! * **Thread-aware sharding.** The pool is a process-global set of
//!   mutex-guarded shards; each thread is assigned a home shard round-robin
//!   on first use. The [`crate::par`] workers are standing threads, so
//!   their home shards are stable and concurrent workers rarely contend on
//!   the same lock. A `thread_local!` cache would not do: a row filled by a
//!   worker is dropped by the caller that collects it (and connection
//!   threads come and go), so buffers migrate between threads — which is
//!   why a take that misses at home probes the sibling shards before it
//!   allocates.
//! * **Exact size classes.** HE rows come in a handful of lengths (the
//!   ring degree per parameter set, occasionally a digit count), so classes
//!   are keyed by exact element count — no rounding waste, no
//!   wrong-length reuse.
//! * **Debug poisoning.** In debug builds recycled buffers are filled with
//!   `0xDEAD_DEAD_DEAD_DEAD` so any consumer of [`PolyPool::take_scratch`]
//!   that reads before writing fails loudly in tests.
//! * **Bounded caching.** Each (shard, class) free list is capped; beyond
//!   the cap buffers fall back to the allocator, so a transient burst
//!   cannot pin memory forever.
//!
//! The `u128` classes serve the lazy MAC accumulators of the key-switch
//! inner loop, which are the largest per-call scratch in the system.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of independent free-list shards (threads map round-robin).
const SHARD_COUNT: usize = 8;

/// Maximum buffers cached per (shard, size-class) before falling back to
/// the allocator on recycle.
const MAX_CACHED_PER_CLASS: usize = 256;

/// Debug-build poison pattern written into recycled `u64` buffers.
#[cfg(debug_assertions)]
const POISON_U64: u64 = 0xDEAD_DEAD_DEAD_DEAD;
/// Debug-build poison pattern for `u128` accumulator buffers.
#[cfg(debug_assertions)]
const POISON_U128: u128 = 0xDEAD_DEAD_DEAD_DEAD_DEAD_DEAD_DEAD_DEADu128;

#[derive(Default)]
struct Shard {
    u64s: Mutex<HashMap<usize, Vec<Vec<u64>>>>,
    u128s: Mutex<HashMap<usize, Vec<Vec<u128>>>>,
}

struct Pool {
    shards: [Shard; SHARD_COUNT],
    fresh: AtomicU64,
    reused: AtomicU64,
    recycled: AtomicU64,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shards: Default::default(),
        fresh: AtomicU64::new(0),
        reused: AtomicU64::new(0),
        recycled: AtomicU64::new(0),
    })
}

/// The shard this thread checks first (assigned round-robin on first use).
fn home_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
    }
    HOME.with(|h| *h)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The pool holds plain buffers; a panic elsewhere cannot leave them in
    // an invalid state, so poisoned locks are safe to re-enter.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counters describing pool traffic since process start.
///
/// `fresh` counts buffers the pool had to obtain from the allocator,
/// `reused` counts free-list hits, and `recycled` counts buffers returned.
/// The zero-alloc steady-state property is `Δfresh == 0` over a warm
/// evaluation loop while `Δreused > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    pub fresh: u64,
    pub reused: u64,
    pub recycled: u64,
}

/// Facade for the process-global polynomial buffer pool.
pub struct PolyPool;

impl PolyPool {
    /// A `len`-element buffer with **unspecified contents** (debug builds
    /// poison recycled memory): the caller must overwrite every element
    /// before reading. Use for rows that are fully written by construction.
    // choco-lint: ct-safe
    pub fn take_scratch(len: usize) -> Vec<u64> {
        if len == 0 {
            return Vec::new();
        }
        let p = pool();
        // Probe the home shard first, then steal from siblings: rows are
        // filled on one thread and dropped on another, so a buffer recycled
        // under one shard must stay reachable from every thread.
        for probe in 0..SHARD_COUNT {
            let shard = &p.shards[(home_shard() + probe) % SHARD_COUNT];
            let mut classes = lock(&shard.u64s);
            if let Some(v) = classes.get_mut(&len).and_then(|l| l.pop()) {
                p.reused.fetch_add(1, Ordering::Relaxed);
                return v;
            }
        }
        p.fresh.fetch_add(1, Ordering::Relaxed);
        vec![0u64; len]
    }

    /// A zero-filled `len`-element buffer.
    // choco-lint: ct-safe
    pub fn take_zeroed(len: usize) -> Vec<u64> {
        let mut v = Self::take_scratch(len);
        v.fill(0);
        v
    }

    /// A buffer holding a copy of `src`.
    // choco-lint: ct-safe
    pub fn take_copy(src: &[u64]) -> Vec<u64> {
        let mut v = Self::take_scratch(src.len());
        v.copy_from_slice(src);
        v
    }

    /// A zero-filled `u128` accumulator buffer.
    // choco-lint: ct-safe
    pub fn take_zeroed_u128(len: usize) -> Vec<u128> {
        if len == 0 {
            return Vec::new();
        }
        let p = pool();
        for probe in 0..SHARD_COUNT {
            let shard = &p.shards[(home_shard() + probe) % SHARD_COUNT];
            let mut classes = lock(&shard.u128s);
            if let Some(mut v) = classes.get_mut(&len).and_then(|l| l.pop()) {
                p.reused.fetch_add(1, Ordering::Relaxed);
                v.fill(0);
                return v;
            }
        }
        p.fresh.fetch_add(1, Ordering::Relaxed);
        vec![0u128; len]
    }

    /// Returns a buffer to the pool (or the allocator once the class cap
    /// is reached). Zero-length buffers are dropped outright.
    // choco-lint: ct-safe
    pub fn recycle(v: Vec<u64>) {
        let len = v.len();
        if len == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        let v = {
            let mut v = v;
            v.fill(POISON_U64);
            v
        };
        let p = pool();
        let shard = &p.shards[home_shard()];
        let mut classes = lock(&shard.u64s);
        let list = classes.entry(len).or_default();
        if list.len() < MAX_CACHED_PER_CLASS {
            list.push(v);
            p.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Returns a `u128` accumulator buffer to the pool.
    // choco-lint: ct-safe
    pub fn recycle_u128(v: Vec<u128>) {
        let len = v.len();
        if len == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        let v = {
            let mut v = v;
            v.fill(POISON_U128);
            v
        };
        let p = pool();
        let shard = &p.shards[home_shard()];
        let mut classes = lock(&shard.u128s);
        let list = classes.entry(len).or_default();
        if list.len() < MAX_CACHED_PER_CLASS {
            list.push(v);
            p.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Traffic counters (monotone since process start).
    pub fn stats() -> PoolStats {
        let p = pool();
        PoolStats {
            fresh: p.fresh.load(Ordering::Relaxed),
            reused: p.reused.load(Ordering::Relaxed),
            recycled: p.recycled.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached buffer (counters are preserved). Mainly for
    /// tests that want a cold pool.
    pub fn clear() {
        let p = pool();
        for shard in &p.shards {
            lock(&shard.u64s).clear();
            lock(&shard.u128s).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffers_are_reused() {
        let before = PolyPool::stats();
        let v = PolyPool::take_zeroed(4093); // length no other test uses
        PolyPool::recycle(v);
        let v2 = PolyPool::take_zeroed(4093);
        assert_eq!(v2.len(), 4093);
        assert!(v2.iter().all(|&x| x == 0), "take_zeroed must clear poison");
        let after = PolyPool::stats();
        assert!(
            after.reused > before.reused,
            "second take must hit the pool"
        );
        PolyPool::recycle(v2);
    }

    #[test]
    fn take_copy_round_trips() {
        let src: Vec<u64> = (0..533).collect();
        let v = PolyPool::take_copy(&src);
        assert_eq!(v, src);
        PolyPool::recycle(v);
        let v2 = PolyPool::take_copy(&src);
        assert_eq!(v2, src);
        PolyPool::recycle(v2);
    }

    #[test]
    fn u128_accumulators_come_back_zeroed() {
        let mut v = PolyPool::take_zeroed_u128(777);
        v.iter_mut().for_each(|x| *x = u128::MAX);
        PolyPool::recycle_u128(v);
        let v2 = PolyPool::take_zeroed_u128(777);
        assert!(v2.iter().all(|&x| x == 0));
        PolyPool::recycle_u128(v2);
    }

    #[test]
    fn zero_length_requests_are_cheap_noops() {
        let before = PolyPool::stats();
        let v = PolyPool::take_scratch(0);
        assert!(v.is_empty());
        PolyPool::recycle(v);
        let after = PolyPool::stats();
        assert_eq!(before, after, "empty buffers never touch the pool");
    }

    #[test]
    fn steady_state_take_recycle_is_allocation_free() {
        // Warm one class, then hammer it: fresh must not move.
        let v = PolyPool::take_zeroed(911);
        PolyPool::recycle(v);
        let warm = PolyPool::stats();
        for _ in 0..100 {
            let v = PolyPool::take_scratch(911);
            PolyPool::recycle(v);
        }
        let end = PolyPool::stats();
        assert_eq!(end.fresh, warm.fresh, "steady state must not allocate");
        assert!(end.reused >= warm.reused + 100);
    }
}
