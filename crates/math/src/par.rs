//! A dependency-free persistent worker pool for the HE hot paths.
//!
//! The repo's offline-build constraint rules out rayon, so this module
//! provides the minimal slice-parallel primitives the kernel layers need.
//! Work is split into one contiguous chunk per thread, each chunk owning a
//! disjoint sub-slice, so the result is **bit-identical** to the sequential
//! order regardless of thread count: every item is computed by exactly the
//! same pure function and written to exactly the same slot.
//!
//! All four `par_*` primitives funnel into one internal `run`: it
//! publishes the call's chunks to a process-wide pool of standing workers
//! (started on first need, parked on a condvar in between) and then
//! **claims chunks itself** until none is left. A call therefore never
//! waits for a worker to become free — if every worker is busy on another
//! caller's job, the caller runs its whole plan — and returns once every
//! chunk has completed. A panicking chunk is caught, the remaining chunks
//! still run, and the panic is re-raised in the caller; the pool stays
//! usable. A dispatch costs a wake-up, so only call sites whose tasks are
//! worth one are routed here: DESIGN.md §6 has the measured keep/drop table.
//!
//! The thread count comes from, in priority order:
//!
//! 1. [`set_num_threads`] (programmatic override, used by benches/tests),
//! 2. the `CHOCO_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! With one thread every primitive degrades to a plain sequential loop and
//! never touches the pool. Nested parallelism is suppressed: a task already
//! running on a pool worker — or on a caller working through its own share
//! — executes further `par_*` calls sequentially, so batching at the
//! ciphertext level composes with per-residue parallelism without
//! oversubscribing the pool.

// The crate root denies unsafe code; this module opts back in for the one
// lifetime erasure in `run` (pinned by count in lint.toml, UNSAFE002).
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard cap on the worker count (sanity bound for `CHOCO_THREADS`).
pub const MAX_THREADS: usize = 256;

/// Programmatic override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Seed for deterministic schedule perturbation; 0 means "off".
static PERTURB: AtomicU64 = AtomicU64::new(0);

/// Environment/hardware default, resolved once.
static DEFAULT: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// True on pool workers, and on a caller while it works through its own
    /// share of a call (suppresses nesting).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    *DEFAULT.get_or_init(|| {
        std::env::var("CHOCO_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(MAX_THREADS)
    })
}

/// The worker count `par_*` primitives will use on this thread right now.
///
/// Returns 1 inside a pool task (nested parallelism is sequential).
pub fn num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the worker count process-wide; `0` restores the
/// `CHOCO_THREADS`/hardware default. Values are clamped to
/// `[1, MAX_THREADS]` (except the reset value 0).
pub fn set_num_threads(n: usize) {
    let v = if n == 0 { 0 } else { n.min(MAX_THREADS) };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Perturbs the work schedule deterministically from `seed` (0 disables).
///
/// With a non-zero seed the chunk boundaries are jittered and the order in
/// which chunks are claimed is permuted — both derived purely from the seed,
/// so a given seed always produces the same plan. The *results* of every
/// `par_*` primitive must remain bit-identical to the sequential loop no
/// matter the seed; the race tests sweep seeds to prove that the disjoint
/// index→slot ownership really is schedule-independent.
pub fn set_schedule_perturbation(seed: u64) {
    PERTURB.store(seed, Ordering::Relaxed);
}

fn xorshift64(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Splits `0..len` into up to `threads` non-empty contiguous ranges.
///
/// Without perturbation the split is the plain equal-chunk plan. With a
/// non-zero perturbation seed, each interior boundary moves by a
/// seed-derived offset of up to a quarter chunk (kept strictly increasing),
/// and the returned order of ranges is a seed-derived permutation — which
/// is also the claim order, so threads start on different parts of the
/// slice from run configuration to run configuration.
fn chunk_plan(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(threads);
    let mut bounds: Vec<usize> = (0..=threads).map(|c| (c * chunk).min(len)).collect();
    let seed = PERTURB.load(Ordering::Relaxed);
    if seed != 0 {
        let mut s = seed;
        let jitter = (chunk / 4).max(1);
        // Only interior boundaries move; the 0 and `len` endpoints are fixed.
        for b in &mut bounds[1..threads] {
            s = xorshift64(s);
            let delta = (s % (2 * jitter as u64 + 1)) as isize - jitter as isize;
            *b = b
                .saturating_add_signed(delta)
                .clamp(1, len.saturating_sub(1).max(1));
        }
        bounds.sort_unstable();
    }
    bounds.dedup();
    let mut ranges: Vec<(usize, usize)> = bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0], w[1]))
        .collect();
    if seed != 0 {
        // Fisher–Yates from the same stream: permute the claim order.
        let mut s = xorshift64(seed ^ 0x9e37_79b9_7f4a_7c15);
        for i in (1..ranges.len()).rev() {
            s = xorshift64(s);
            ranges.swap(i, (s % (i as u64 + 1)) as usize);
        }
    }
    ranges
}

/// Splits `items` into the planned ranges, preserving the plan's order.
fn split_by_plan<'a, T>(
    mut items: &'a mut [T],
    plan: &[(usize, usize)],
) -> Vec<(usize, &'a mut [T])> {
    // Slices must be carved in ascending start order; reorder afterwards.
    let mut order: Vec<usize> = (0..plan.len()).collect();
    order.sort_unstable_by_key(|&i| plan[i].0);
    let mut carved: Vec<Option<(usize, &mut [T])>> = (0..plan.len()).map(|_| None).collect();
    let mut consumed = 0usize;
    for &i in &order {
        let (start, end) = plan[i];
        let (piece, rest) = items.split_at_mut(end - consumed);
        let (_, piece) = piece.split_at_mut(start - consumed);
        carved[i] = Some((start, piece));
        items = rest;
        consumed = end;
    }
    carved.into_iter().flatten().collect()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Pool and job state are plain counters and lists that every update
    // leaves valid, and chunk panics are caught before they can unwind
    // through a guard, so a poisoned lock is safe to re-enter.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Holds `IN_WORKER`'s previous value while a caller works through its own
/// share; restores it on drop.
struct WorkerMark(bool);

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

/// One published `par_*` call: `chunks` invocations of `task`, claimed by
/// index.
struct Job {
    /// The caller's chunk closure, borrow lifetime erased (see [`run`]).
    task: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Next unclaimed chunk. `Relaxed` throughout: the counter only hands
    /// out indices. The job itself reaches workers through the pool mutex,
    /// and chunk results reach the caller through the `done` mutex.
    next: AtomicUsize,
    done: Mutex<Done>,
    all_done: Condvar,
}

struct Done {
    /// Chunks not yet completed.
    remaining: usize,
    /// The first panic payload caught in a chunk, re-raised by the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Claims and runs chunks until none is left unclaimed.
    fn work(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.task)(chunk)));
            let mut done = lock(&self.done);
            if let Err(payload) = result {
                done.panic.get_or_insert(payload);
            }
            done.remaining -= 1;
            if done.remaining == 0 {
                self.all_done.notify_one();
            }
        }
    }
}

/// The standing workers and the calls currently open to them.
struct Pool {
    /// Published jobs; each is removed by its own caller.
    jobs: Vec<Arc<Job>>,
    /// Workers started so far (they never exit).
    workers: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    jobs: Vec::new(),
    workers: 0,
});

/// Signalled once per chunk a new job offers to the workers.
static WAKE: Condvar = Condvar::new();

fn worker_loop() {
    IN_WORKER.set(true);
    let mut state = lock(&POOL);
    loop {
        let unclaimed = |j: &&Arc<Job>| j.next.load(Ordering::Relaxed) < j.chunks;
        let open = state.jobs.iter().find(unclaimed).cloned();
        state = match open {
            Some(job) => {
                drop(state);
                job.work();
                lock(&POOL)
            }
            None => wait(&WAKE, state),
        };
    }
}

/// Runs `task(0) .. task(chunks - 1)`, each exactly once, on the pool and
/// the calling thread; returns when all have completed. Re-raises the first
/// panic a chunk raised.
fn run(chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the borrow's lifetime changes. `task` is invoked solely
    // through `Job::work`, for a chunk index below `chunks` that the
    // invoking thread claimed, and this function does not return until
    // `remaining` — decremented once per chunk, after its invocation has
    // ended — reaches zero, i.e. until every invocation has ended. It
    // cannot unwind earlier either: between here and that wait it runs only
    // lock, condvar and atomic operations (lock poisoning is absorbed by
    // `lock`/`wait`) and `Job::work`, which catches the chunks' panics.
    // Workers may keep the `Arc<Job>` a little longer, but once every chunk
    // is claimed they only read `next` and drop it.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        chunks,
        next: AtomicUsize::new(0),
        done: Mutex::new(Done {
            remaining: chunks,
            panic: None,
        }),
        all_done: Condvar::new(),
    });
    {
        let mut state = lock(&POOL);
        // Grow the pool to what this call can use; a failed spawn only
        // means the caller keeps more of the chunks.
        while state.workers + 1 < chunks {
            let spawned = std::thread::Builder::new()
                .name("choco-par".into())
                .spawn(worker_loop);
            if spawned.is_err() {
                break;
            }
            state.workers += 1;
        }
        state.jobs.push(Arc::clone(&job));
    }
    for _ in 1..chunks {
        WAKE.notify_one();
    }
    {
        let _mark = WorkerMark(IN_WORKER.replace(true));
        job.work();
    }
    lock(&POOL).jobs.retain(|j| !Arc::ptr_eq(j, &job));
    let mut done = lock(&job.done);
    while done.remaining > 0 {
        done = wait(&job.all_done, done);
    }
    if let Some(payload) = done.panic.take() {
        drop(done);
        resume_unwind(payload);
    }
}

/// Applies `f(index, item)` to every item, splitting the slice across the
/// pool. Each chunk is a disjoint contiguous sub-slice, so the output is
/// bit-identical to the sequential loop for any thread count.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let plan = chunk_plan(items.len(), threads);
    // Whoever claims chunk `c` takes piece `c` out of its cell.
    let pieces: Vec<_> = split_by_plan(items, &plan)
        .into_iter()
        .map(|piece| Mutex::new(Some(piece)))
        .collect();
    run(pieces.len(), &|c| {
        let piece = pieces.get(c).and_then(|cell| lock(cell).take());
        if let Some((start, slice)) = piece {
            for (i, item) in slice.iter_mut().enumerate() {
                f(start + i, item);
            }
        }
    });
}

/// Maps `f(index, item)` over the slice in parallel, preserving order. The
/// chunking depends only on the item count and the thread count, never on
/// the items.
// choco-lint: ct-safe
pub fn par_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// Maps `f(i)` over `0..count` in parallel, preserving order. Convenience
/// for loops indexed by residue/row number rather than by a slice.
pub fn par_map_range<O, F>(count: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if num_threads().min(count) <= 1 {
        return (0..count).map(f).collect();
    }
    let mut out: Vec<Option<O>> = (0..count).map(|_| None).collect();
    par_for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
    out.into_iter().map(written).collect()
}

/// Maps `f` over a fixed-size array in parallel, one task per item, into
/// an array: the shape of the few large tasks one request splits into (the
/// components of a ciphertext), which a caller then destructures.
pub fn par_map_array<I, O, F, const N: usize>(items: [I; N], f: F) -> [O; N]
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if num_threads().min(N) <= 1 {
        return items.each_ref().map(f);
    }
    let mut work = items.each_ref().map(|item| (item, None));
    par_for_each_mut(&mut work, |_, (item, slot)| *slot = Some(f(item)));
    work.map(|(_, slot)| written(slot))
}

/// A slot of a `par_map_*` output after the call.
fn written<O>(slot: Option<O>) -> O {
    slot.expect("every slot is written by exactly one chunk")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// The thread count, the perturbation seed and the pool are process
    /// globals: tests that set or measure them run one at a time.
    static SETTINGS: Mutex<()> = Mutex::new(());

    fn mix(i: usize, x: u64) -> u64 {
        x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let _settings = lock(&SETTINGS);
        let base: Vec<u64> = (0..1000).collect();
        for threads in [1usize, 2, 4, 7] {
            set_num_threads(threads);
            let mut a = base.clone();
            par_for_each_mut(&mut a, |i, x| {
                *x = x.wrapping_mul(31).wrapping_add(i as u64)
            });
            let mapped = par_map(&base, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
            let ranged = par_map_range(base.len(), |i| {
                base[i].wrapping_mul(31).wrapping_add(i as u64)
            });
            let arrayed = par_map_array([3u64, 5, 7], |&x| x.wrapping_mul(31));
            set_num_threads(1);
            assert_eq!(arrayed, [93, 155, 217], "map_array with {threads} threads");
            let expect: Vec<u64> = base
                .iter()
                .enumerate()
                .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
                .collect();
            assert_eq!(a, expect, "for_each_mut with {threads} threads");
            assert_eq!(mapped, expect, "map with {threads} threads");
            assert_eq!(ranged, expect, "map_range with {threads} threads");
        }
        set_num_threads(0);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let _settings = lock(&SETTINGS);
        set_num_threads(4);
        let mut empty: Vec<u64> = vec![];
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        assert!(par_map(&empty, |_, &x: &u64| x).is_empty());
        assert!(par_map_range(0, |i| i).is_empty());
        let mut one = vec![5u64];
        par_for_each_mut(&mut one, |_, x| *x += 1);
        assert_eq!(one, vec![6]);
        set_num_threads(0);
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let _settings = lock(&SETTINGS);
        set_num_threads(4);
        let outer: Vec<usize> = (0..8).collect();
        // The inner par_map must not deadlock or explode: inside a worker it
        // degrades to a sequential loop.
        let result = par_map(&outer, |_, &x| {
            let inner: Vec<usize> = (0..4).collect();
            par_map(&inner, |_, &y| x * 10 + y).iter().sum::<usize>()
        });
        let expect: Vec<usize> = outer.iter().map(|&x| 4 * (x * 10) + 6).collect();
        assert_eq!(result, expect);
        set_num_threads(0);
    }

    #[test]
    fn override_clamps_and_resets() {
        let _settings = lock(&SETTINGS);
        let before = lock(&POOL).workers;
        set_num_threads(100_000);
        assert_eq!(num_threads(), MAX_THREADS);
        // Workers start on demand, sized by the call, not by the setting.
        assert_eq!(lock(&POOL).workers, before);
        let mut three = [1u64, 2, 3];
        par_for_each_mut(&mut three, |_, x| *x += 1);
        assert_eq!(three, [2, 3, 4]);
        assert!(lock(&POOL).workers <= before.max(2));
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn chunk_plan_covers_exactly_under_any_seed() {
        let _settings = lock(&SETTINGS);
        for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            set_schedule_perturbation(seed);
            for len in [1usize, 2, 7, 64, 1000, 1001] {
                for threads in [2usize, 3, 4, 8, 17] {
                    let mut plan = chunk_plan(len, threads);
                    plan.sort_unstable();
                    assert!(plan[0].0 == 0, "seed {seed}, len {len}, t {threads}");
                    assert_eq!(plan.last().unwrap().1, len);
                    for w in plan.windows(2) {
                        assert_eq!(w[0].1, w[1].0, "gap/overlap at seed {seed}");
                    }
                    assert!(plan.iter().all(|&(a, b)| a < b), "empty range");
                }
            }
        }
        set_schedule_perturbation(0);
    }

    #[test]
    fn perturbed_schedules_stay_bit_identical() {
        let _settings = lock(&SETTINGS);
        let base: Vec<u64> = (0..4096).collect();
        set_num_threads(1);
        let expect: Vec<u64> = base
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64))
            .collect();
        for seed in [1u64, 7, 0x5eed, 0xfeed_face_cafe] {
            set_schedule_perturbation(seed);
            for threads in [2usize, 4, 8] {
                set_num_threads(threads);
                let mut a = base.clone();
                par_for_each_mut(&mut a, |i, x| {
                    *x = x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)
                });
                let mapped = par_map(&base, |i, &x| {
                    x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)
                });
                let ranged = par_map_range(base.len(), |i| {
                    base[i].wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)
                });
                let arrayed = par_map_array([0usize, 1, 2, 3], |&i| mix(i, base[i]));
                assert_eq!(a, expect, "for_each_mut seed {seed}, {threads} threads");
                assert_eq!(
                    arrayed[..],
                    expect[..4],
                    "map_array seed {seed}, {threads} threads"
                );
                assert_eq!(mapped, expect, "map seed {seed}, {threads} threads");
                assert_eq!(ranged, expect, "map_range seed {seed}, {threads} threads");
            }
        }
        set_schedule_perturbation(0);
        set_num_threads(0);
    }

    #[test]
    fn workers_are_reused_across_calls() {
        let _settings = lock(&SETTINGS);
        set_num_threads(4);
        let base: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = base.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        assert_eq!(par_map(&base, |i, &x| mix(i, x)), expect);
        let warm = lock(&POOL).workers;
        assert!(warm >= 3, "a 4-chunk call starts 3 workers, found {warm}");
        for _ in 0..10_000 {
            assert_eq!(par_map(&base, |i, &x| mix(i, x)), expect);
        }
        assert_eq!(lock(&POOL).workers, warm, "calls must not spawn");
        set_num_threads(0);
    }

    #[test]
    fn a_panicking_chunk_reraises_and_the_pool_survives() {
        let _settings = lock(&SETTINGS);
        set_num_threads(4);
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_range(8, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(i != 5, "chunk boom");
                i
            })
        }));
        let payload = caught.expect_err("the chunk's panic reaches the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("chunk boom"), "payload: {message:?}");
        // Chunks other than the panicking one still ran to the end: items
        // 0..4 and 6..8 at least (the panicking chunk stops at item 5).
        assert!(ran.load(Ordering::SeqCst) >= 7);
        assert!(!IN_WORKER.get(), "the caller's mark is restored");
        assert_eq!(par_map_range(8, |i| i * i), [0, 1, 4, 9, 16, 25, 36, 49]);
        set_num_threads(0);
    }

    #[test]
    fn concurrent_nested_callers_all_complete() {
        // "Caller helps": four threads call in at once with fewer workers
        // than callers, every task nests another call, and every schedule
        // must finish with the sequential answer.
        let _settings = lock(&SETTINGS);
        let expect: Vec<u64> = (0..16u64)
            .map(|x| (0..32).map(|y| mix(y, x)).fold(0, u64::wrapping_add))
            .collect();
        for seed in [1u64, 7, 0x5eed] {
            set_schedule_perturbation(seed);
            set_num_threads(3);
            let start = Arc::new(Barrier::new(4));
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    let (start, expect) = (Arc::clone(&start), expect.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        for _ in 0..50 {
                            let got = par_map_range(16, |x| {
                                par_map_range(32, |y| mix(y, x as u64))
                                    .into_iter()
                                    .fold(0, u64::wrapping_add)
                            });
                            assert_eq!(got, expect, "seed {seed}");
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("caller thread completes");
            }
        }
        set_schedule_perturbation(0);
        set_num_threads(0);
    }
}
