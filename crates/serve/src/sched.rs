//! The cross-connection batching scheduler, with fault isolation.
//!
//! Connection workers do not execute HE kernels on their own threads —
//! they submit jobs here and the result comes back on the connection's
//! reply channel. One dispatcher thread runs **rounds**: it takes every
//! queued job, groups them by `(params_hash, program_ref)`, and executes
//! each group as **one batch**: every member shares the same
//! `Arc<CachedProgram>` (compiled schedule + encoded-operand cache), and
//! members run concurrently as tasks of the `choco_math::par` worker pool.
//! That is what coalescing buys: N compatible requests — from one
//! pipelining client or from N different tenants — pay for one program
//! resolution and one warm operand set, and their kernel work overlaps.
//!
//! A round starts the moment the dispatcher is free and a job is queued:
//! a request that arrives at an idle scheduler waits for nothing. Batches
//! form in two ways. Under load, everything submitted while the previous
//! round ran is one round. And a submitter that knows more is coming (a
//! connection with the next pipelined request already on its socket)
//! takes a [`Hold`], which keeps the round open until it is dropped —
//! never longer than `window_ms`, the upper bound on how long queued
//! work waits for company. Batching never changes results (each job
//! still evaluates its own inputs; the shared cache is bit-transparent)
//! and never changes billing (each tenant is billed exactly its own
//! request/response payloads by its connection worker).
//!
//! **Fault isolation.** Batches fate-share: if any member's evaluation
//! returns a *poison* fault (an execution failure, as opposed to a
//! per-job input rejection), the whole batch's results are discarded and
//! the batch is recursively halved and re-run, so healthy co-batched jobs
//! — possibly other tenants' — still complete with correct results. Jobs
//! are therefore **re-runnable** ([`Job::run`] is `Fn`, deterministic by
//! construction) while delivery is once ([`Job::deliver`] is `FnOnce`).
//! A job that faults alone (a batch of one, or the single offender left
//! after bisection) has its `(params_hash, program_ref)` quarantined via
//! [`crate::isolate::Isolation`]; bisection costs at most
//! `n · (log₂ n + 1)` job evaluations for a poisoned batch of `n`.
//!
//! Jobs may also carry a dispatch **deadline**: a job whose deadline has
//! passed when its round starts is shed with its pre-built typed
//! response instead of evaluated — load shedding that never counts
//! against the tenant's circuit breaker.
//!
//! [`BatchScheduler::flush`] blocks until every submitted job has
//! *executed* — the drain path calls it so scheduled batches are never
//! abandoned mid-queue.

use crate::chaos::{EvalChaosState, EvalStage};
use crate::isolate::Isolation;
use choco_math::par;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Jobs are grouped (and coalesced) by `(params_hash, program_ref)`.
pub type GroupKey = ([u8; 32], [u8; 32]);

/// Why a job's execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFault {
    /// The typed failure message (also carried by the job's response).
    pub reason: String,
    /// Whether the fault indicts the *program* (an execution failure):
    /// poison faults trigger batch bisection and, once isolated,
    /// quarantine. Non-poison faults (e.g. a rejected input blob) are
    /// job-local and deliver normally.
    pub poison: bool,
}

/// What one execution of a job produced: the response payload to deliver
/// and the fault classification, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Serialized `EvalResponse` payload for the connection worker.
    pub response: Vec<u8>,
    /// Set when the execution failed (the response is then a typed
    /// error).
    pub fault: Option<JobFault>,
}

/// One unit of submitted work.
pub struct Job {
    /// Coalescing group: `(params_hash, program_ref)`.
    pub group: GroupKey,
    /// The submitting tenant — breaker outcomes are recorded against it.
    pub tenant: u64,
    /// Shed the job (typed response, no evaluation) if dispatch starts
    /// after this instant.
    pub deadline: Option<Instant>,
    /// Pre-built `DeadlineExceeded` response delivered on a shed.
    pub shed_response: Vec<u8>,
    /// Executes the job. Must be deterministic and side-effect free on
    /// shared state: bisection re-runs it, and every run of a batch must
    /// produce bit-identical outcomes.
    pub run: Box<dyn Fn() -> JobOutcome + Send + Sync>,
    /// Delivers the final response payload to the connection's reply
    /// channel. Called exactly once per job.
    pub deliver: Box<dyn FnOnce(Vec<u8>) + Send>,
}

/// Isolation state and fault-injection hooks threaded into the
/// dispatcher. [`SchedHooks::default`] is a no-op harness (fresh
/// isolation state, no chaos, no kill).
pub struct SchedHooks {
    /// Quarantine + breaker state shared with the admission path.
    pub isolation: Arc<Isolation>,
    /// Deterministic fault plan, if any.
    pub chaos: Option<Arc<EvalChaosState>>,
    /// Invoked when the chaos plan hard-kills the server at a scheduler
    /// stage; the owner flips its kill switch here.
    pub on_kill: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Default for SchedHooks {
    fn default() -> Self {
        SchedHooks {
            isolation: Arc::new(Isolation::default()),
            chaos: None,
            on_kill: None,
        }
    }
}

/// Point-in-time batching counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs executed (shed jobs included; bisection re-runs are not
    /// double-counted).
    pub jobs: u64,
    /// Batches executed (one per group per round).
    pub batches: u64,
    /// Jobs that shared a batch with at least one other job — the count
    /// of kernel invocations *saved* relative to sequential dispatch.
    pub coalesced: u64,
    /// Largest batch executed so far.
    pub max_batch: u64,
    /// Microseconds jobs spent queued, submit → round start, summed over
    /// `jobs`. With `run_us` it answers "was this request waiting or
    /// computing" from the server's own output.
    pub queue_wait_us: u64,
    /// Microseconds from round start to a job's delivery, summed over
    /// evaluated jobs: its own evaluation, the batches run ahead of it in
    /// the same round, and any bisection re-runs. Shed jobs add nothing.
    pub run_us: u64,
    /// Rounds the dispatcher kept open for a [`Hold`]. A client that
    /// sends one request at a time never causes one.
    pub held_rounds: u64,
}

/// What the dispatcher sleeps on.
#[derive(Default)]
struct State {
    /// Queued jobs with their submit times.
    queue: Vec<(Instant, Job)>,
    /// Outstanding [`Hold`]s.
    holds: u32,
    /// Submitted but not yet finished executing (queued + running).
    in_flight: u64,
    /// Callers inside [`BatchScheduler::flush`]; holds are ignored while
    /// there is one.
    flushing: u32,
    stop: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes the dispatcher (its only waiter): a job was queued, a hold
    /// dropped, a flush or the stop began.
    wake: Condvar,
    /// Wakes flushers: `in_flight` reached zero.
    idle: Condvar,
    stats: Mutex<SchedStats>,
    window: Duration,
    hooks: SchedHooks,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Inner {
    /// Marks one job finished (delivered, shed or discarded).
    fn finish_one(&self) {
        let mut state = lock(&self.state);
        state.in_flight -= 1;
        if state.in_flight == 0 {
            self.idle.notify_all();
        }
    }
}

/// Keeps the scheduler's current round — or, if none is open, its next —
/// from starting until dropped. Taken by a submitter that knows another
/// of its jobs is about to follow, so the two run as one batch. Bounded:
/// the dispatcher never waits on holds longer than the window.
pub struct Hold {
    inner: Arc<Inner>,
}

impl Drop for Hold {
    fn drop(&mut self) {
        lock(&self.inner.state).holds -= 1;
        self.inner.wake.notify_one();
    }
}

/// The scheduler: one dispatcher thread that fans each batch out through
/// the `par` pool. See the module docs.
pub struct BatchScheduler {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl BatchScheduler {
    /// Starts the dispatcher with the given hold bound and no-op hooks.
    pub fn new(window_ms: u64) -> Self {
        BatchScheduler::with_hooks(window_ms, SchedHooks::default())
    }

    /// Starts the dispatcher with shared isolation state and (optional)
    /// chaos hooks. `window_ms` bounds how long a round stays open for
    /// [`Hold`]s; 0 ignores them.
    pub fn with_hooks(window_ms: u64, hooks: SchedHooks) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
            stats: Mutex::new(SchedStats::default()),
            window: Duration::from_millis(window_ms),
            hooks,
        });
        let run_inner = Arc::clone(&inner);
        let dispatcher = thread::spawn(move || dispatch_loop(&run_inner));
        BatchScheduler {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Queues a job. It runs in the next round, batched with every other
    /// queued job sharing its group.
    pub fn submit(&self, job: Job) {
        let submitted = Instant::now();
        let mut state = lock(&self.inner.state);
        state.in_flight += 1;
        state.queue.push((submitted, job));
        drop(state);
        self.inner.wake.notify_one();
    }

    /// Takes a [`Hold`] on the round.
    pub fn hold(&self) -> Hold {
        lock(&self.inner.state).holds += 1;
        Hold {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks until every job submitted so far has finished executing, or
    /// `budget` elapses. Returns whether the scheduler went idle. Holds do
    /// not delay a flush.
    pub fn flush(&self, budget: Duration) -> bool {
        let mut state = lock(&self.inner.state);
        state.flushing += 1;
        self.inner.wake.notify_one();
        let (mut state, _) = self
            .inner
            .idle
            .wait_timeout_while(state, budget, |s| s.in_flight > 0)
            .unwrap_or_else(PoisonError::into_inner);
        state.flushing -= 1;
        state.in_flight == 0
    }

    /// Jobs submitted but not yet executed.
    pub fn in_flight(&self) -> u64 {
        lock(&self.inner.state).in_flight
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedStats {
        *lock(&self.inner.stats)
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        lock(&self.inner.state).stop = true;
        self.inner.wake.notify_one();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

/// Blocks until there is a round to run and returns its jobs; `None` once
/// the scheduler is stopped and the queue is empty (stop is a flush, not
/// an abort).
fn next_round(inner: &Inner) -> Option<Vec<(Instant, Job)>> {
    let mut state = inner
        .wake
        .wait_while(lock(&inner.state), |s| s.queue.is_empty() && !s.stop)
        .unwrap_or_else(PoisonError::into_inner);
    if state.queue.is_empty() {
        return None;
    }
    // The round is open. It closes now unless a submitter holds it for
    // the rest of its pipeline, and then within the window at the latest.
    let holding = |s: &mut State| s.holds > 0 && !s.stop && s.flushing == 0;
    if holding(&mut state) && !inner.window.is_zero() {
        lock(&inner.stats).held_rounds += 1;
        (state, _) = inner
            .wake
            .wait_timeout_while(state, inner.window, holding)
            .unwrap_or_else(PoisonError::into_inner);
    }
    Some(std::mem::take(&mut state.queue))
}

fn dispatch_loop(inner: &Arc<Inner>) {
    while let Some(mut jobs) = next_round(inner) {
        // Chaos: a stalled round sleeps past its jobs' deadlines, before
        // the shed check below runs, and whatever is submitted meanwhile
        // joins it. Rounds only fire with queued jobs, so the occurrence
        // count is deterministic.
        if let Some(chaos) = inner.hooks.chaos.as_deref() {
            if let Some(stall) = chaos.stall_this_round() {
                thread::sleep(stall);
                jobs.append(&mut lock(&inner.state).queue);
            }
        }

        // Deadline shedding at dispatch: deliver the typed response
        // without evaluating. Sheds never count against the tenant's
        // breaker — load is not the tenant's error.
        let started = Instant::now();
        let mut queue_wait_us = 0;
        let mut groups: BTreeMap<GroupKey, Vec<Job>> = BTreeMap::new();
        for (submitted, job) in jobs {
            queue_wait_us += micros(started.saturating_duration_since(submitted));
            if job.deadline.is_some_and(|d| started > d) {
                inner.hooks.isolation.count_shed();
                lock(&inner.stats).jobs += 1;
                let shed = job.shed_response;
                (job.deliver)(shed);
                inner.finish_one();
            } else {
                groups.entry(job.group).or_default().push(job);
            }
        }
        lock(&inner.stats).queue_wait_us += queue_wait_us;
        if groups.is_empty() {
            continue;
        }
        if kill_at(inner, EvalStage::Coalesce) {
            discard(inner, groups.into_values().flatten());
            continue;
        }
        for (_, batch) in groups {
            let n = batch.len() as u64;
            {
                let mut stats = lock(&inner.stats);
                stats.jobs += n;
                stats.batches += 1;
                if n > 1 {
                    stats.coalesced += n;
                }
                stats.max_batch = stats.max_batch.max(n);
            }
            if kill_at(inner, EvalStage::MidEval) {
                discard(inner, batch.into_iter());
                continue;
            }
            execute(inner, batch, started);
        }
    }
}

/// Fires the chaos kill for `stage` (if planned for this occurrence) and
/// invokes the owner's kill switch.
fn kill_at(inner: &Inner, stage: EvalStage) -> bool {
    let Some(chaos) = inner.hooks.chaos.as_deref() else {
        return false;
    };
    if !chaos.kill_at(stage) {
        return false;
    }
    if let Some(on_kill) = inner.hooks.on_kill.as_deref() {
        on_kill();
    }
    true
}

/// Drops killed jobs without delivery (the process is "dead"), keeping
/// the in-flight count honest so a later flush cannot hang.
fn discard(inner: &Inner, jobs: impl Iterator<Item = Job>) {
    for job in jobs {
        drop(job);
        inner.finish_one();
    }
}

/// Executes one batch with fate-sharing, bisecting around poison faults;
/// every job is delivered exactly once (or dropped by design on kill).
/// `started` is when the batch's round began (the origin of `run_us`).
fn execute(inner: &Inner, mut jobs: Vec<Job>, started: Instant) {
    let outcomes = run_all(&jobs);
    let poisoned = outcomes
        .iter()
        .any(|o| o.fault.as_ref().is_some_and(|f| f.poison));
    if poisoned && jobs.len() > 1 {
        // Discard the whole batch's results and isolate the offender by
        // recursive halving: healthy members re-run bit-identically and
        // still succeed.
        inner.hooks.isolation.count_bisection();
        let right = jobs.split_off(jobs.len() / 2);
        execute(inner, jobs, started);
        execute(inner, right, started);
        return;
    }
    for (job, outcome) in jobs.into_iter().zip(outcomes) {
        match &outcome.fault {
            Some(fault) => {
                if fault.poison {
                    // Isolated offender (batch of one, or the single job
                    // left after bisection): quarantine its program.
                    inner.hooks.isolation.count_fault();
                    inner.hooks.isolation.quarantine(job.group, &fault.reason);
                }
                inner.hooks.isolation.record_outcome(job.tenant, false);
            }
            None => inner.hooks.isolation.record_outcome(job.tenant, true),
        }
        (job.deliver)(outcome.response);
        lock(&inner.stats).run_us += micros(started.elapsed());
        inner.finish_one();
    }
}

/// Runs every job in the (sub-)batch as tasks of the `par` pool: up to
/// `par::num_threads()` members run at once, each with its row-level
/// `par_*` calls inline, while a batch of one stays on the dispatcher and
/// keeps row-level fan-out. A panicking job becomes a poison fault instead
/// of taking the dispatcher down.
fn run_all(jobs: &[Job]) -> Vec<JobOutcome> {
    // `Job` is not `Sync` (its `deliver` is a plain `FnOnce + Send`); the
    // `run` closures are.
    let runs: Vec<_> = jobs.iter().map(|job| &*job.run).collect();
    par::par_map(&runs, |_, run| {
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| JobOutcome {
            response: Vec::new(),
            fault: Some(JobFault {
                reason: "job panicked".into(),
                poison: true,
            }),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn ok_outcome(tag: u8) -> JobOutcome {
        JobOutcome {
            response: vec![tag],
            fault: None,
        }
    }

    fn poison_outcome(tag: u8) -> JobOutcome {
        JobOutcome {
            response: vec![tag],
            fault: Some(JobFault {
                reason: "poison".into(),
                poison: true,
            }),
        }
    }

    fn job(
        group: GroupKey,
        run: impl Fn() -> JobOutcome + Send + Sync + 'static,
        deliver: impl FnOnce(Vec<u8>) + Send + 'static,
    ) -> Job {
        Job {
            group,
            tenant: 1,
            deadline: None,
            shed_response: Vec::new(),
            run: Box::new(run),
            deliver: Box::new(deliver),
        }
    }

    /// A window no test outlives: anything that waits it out hangs the
    /// suite, so every prompt delivery below is prompt because of the
    /// scheduler's logic, not because a short window happened to lapse.
    const NEVER_MS: u64 = 10_000;

    #[test]
    fn jobs_execute_and_flush_waits_for_all() {
        let sched = BatchScheduler::new(NEVER_MS);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..8u8 {
            let hits = Arc::clone(&hits);
            sched.submit(job(
                ([i % 2; 32], [0; 32]),
                move || ok_outcome(i),
                move |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                },
            ));
        }
        assert!(sched.flush(Duration::from_secs(5)));
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        assert_eq!(sched.in_flight(), 0);
        let stats = sched.stats();
        assert_eq!(stats.jobs, 8);
        assert!(stats.batches >= 2, "two groups → at least two batches");
    }

    #[test]
    fn lone_job_runs_at_once_whatever_the_window() {
        let sched = BatchScheduler::new(NEVER_MS);
        let (tx, rx) = mpsc::channel();
        for i in 0..3u8 {
            let tx = tx.clone();
            sched.submit(job(
                ([2; 32], [2; 32]),
                move || ok_outcome(i),
                move |resp| {
                    let _ = tx.send(resp);
                },
            ));
            let got = rx.recv_timeout(Duration::from_secs(1));
            assert_eq!(got, Ok(vec![i]), "a lone job must not wait out the window");
        }
        let stats = sched.stats();
        assert_eq!((stats.jobs, stats.batches, stats.coalesced), (3, 3, 0));
        assert_eq!(stats.held_rounds, 0, "nothing asked for a hold");
    }

    #[test]
    fn jobs_submitted_under_one_hold_run_as_exactly_one_batch() {
        let sched = BatchScheduler::new(NEVER_MS);
        let (tx, rx) = mpsc::channel();
        let hold = sched.hold();
        for i in 0..4u8 {
            let tx = tx.clone();
            sched.submit(job(
                ([9; 32], [9; 32]),
                move || {
                    thread::sleep(Duration::from_millis(5));
                    ok_outcome(i)
                },
                move |resp| {
                    let _ = tx.send(resp);
                },
            ));
            // Arbitrary gaps: the dispatcher has long since seen the queue.
            thread::sleep(Duration::from_millis(u64::from(i) * 7));
        }
        assert!(rx.try_recv().is_err(), "the hold kept the round open");
        drop(hold);
        assert!(sched.flush(Duration::from_secs(5)));
        let mut got: Vec<u8> = rx.try_iter().map(|r| r[0]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        let stats = sched.stats();
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.batches, 1, "one hold, one batch");
        assert_eq!(stats.max_batch, 4);
        assert_eq!(stats.coalesced, 4);
        assert_eq!(stats.held_rounds, 1);
        // Job 0 sat in the queue through every gap (7 + 14 + 21 ms), and
        // every job's own evaluation took 5 ms.
        assert!(stats.queue_wait_us >= 42_000, "{stats:?}");
        assert!(stats.run_us >= 4 * 5_000, "{stats:?}");
    }

    #[test]
    fn hold_never_released_is_bounded_by_the_window() {
        let sched = BatchScheduler::new(40);
        let (tx, rx) = mpsc::channel();
        let _hold = sched.hold();
        let submitted = Instant::now();
        sched.submit(job(
            ([4; 32], [4; 32]),
            || ok_outcome(4),
            move |resp| {
                let _ = tx.send(resp);
            },
        ));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(vec![4]));
        assert!(submitted.elapsed() >= Duration::from_millis(40));
        assert_eq!(sched.stats().held_rounds, 1);
    }

    #[test]
    fn flush_does_not_wait_for_an_outstanding_hold() {
        let sched = BatchScheduler::new(NEVER_MS);
        let hits = Arc::new(AtomicUsize::new(0));
        let _hold = sched.hold();
        for _ in 0..3 {
            let hits = Arc::clone(&hits);
            sched.submit(job(
                ([1; 32], [1; 32]),
                || ok_outcome(0),
                move |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                },
            ));
        }
        assert!(sched.flush(Duration::from_secs(5)), "flush overrides holds");
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn drop_with_queued_jobs_and_a_hold_still_runs_them() {
        // Stop is a flush, not an abort: pending jobs execute before the
        // dispatcher exits (drain correctness depends on this), hold or no
        // hold.
        let hits = Arc::new(AtomicUsize::new(0));
        let hold = {
            let sched = BatchScheduler::new(NEVER_MS);
            let hold = sched.hold();
            for _ in 0..3 {
                let hits = Arc::clone(&hits);
                sched.submit(job(
                    ([1; 32], [1; 32]),
                    || ok_outcome(0),
                    move |_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    },
                ));
            }
            hold
            // Dropped here: the dispatcher must still drain the queue.
        };
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        drop(hold);
    }

    #[test]
    fn bisection_isolates_the_poison_job_and_quarantines_it() {
        let isolation = Arc::new(Isolation::default());
        let sched = BatchScheduler::with_hooks(
            NEVER_MS,
            SchedHooks {
                isolation: Arc::clone(&isolation),
                ..SchedHooks::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        let group = ([3; 32], [4; 32]);
        let hold = sched.hold();
        for i in 0..4u8 {
            let tx = tx.clone();
            sched.submit(Job {
                group,
                tenant: u64::from(i),
                deadline: None,
                shed_response: Vec::new(),
                run: Box::new(move || {
                    if i == 2 {
                        poison_outcome(i)
                    } else {
                        ok_outcome(i)
                    }
                }),
                deliver: Box::new(move |resp| {
                    let _ = tx.send((i, resp));
                }),
            });
        }
        drop(hold);
        assert!(sched.flush(Duration::from_secs(5)));
        let mut got: Vec<(u8, Vec<u8>)> = rx.try_iter().collect();
        got.sort();
        // Every job delivered exactly once, healthy ones with their own
        // (re-run, bit-identical) results; the poison job its typed error.
        assert_eq!(
            got,
            vec![(0, vec![0]), (1, vec![1]), (2, vec![2]), (3, vec![3])]
        );
        let stats = isolation.stats();
        assert_eq!(stats.bisections, 2, "4 → 2 + 2 → 1 + 1");
        assert_eq!(stats.faults, 1, "exactly one isolated fault");
        assert_eq!(stats.quarantined, 1);
        assert_eq!(
            isolation.check_quarantine(&group).as_deref(),
            Some("poison")
        );
    }

    #[test]
    fn panicking_batch_member_is_a_poison_fault_and_the_rest_deliver() {
        let isolation = Arc::new(Isolation::default());
        let sched = BatchScheduler::with_hooks(
            NEVER_MS,
            SchedHooks {
                isolation: Arc::clone(&isolation),
                ..SchedHooks::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        let group = ([7; 32], [8; 32]);
        let hold = sched.hold();
        for i in 0..4u8 {
            let tx = tx.clone();
            sched.submit(job(
                group,
                move || {
                    assert!(i != 1, "job {i} blew up");
                    ok_outcome(i)
                },
                move |resp| {
                    let _ = tx.send((i, resp));
                },
            ));
        }
        drop(hold);
        assert!(sched.flush(Duration::from_secs(5)));
        let mut got: Vec<(u8, Vec<u8>)> = rx.try_iter().collect();
        got.sort();
        // The panicking member gets the empty poison response; the three
        // healthy members their own results, re-run after bisection.
        assert_eq!(
            got,
            vec![(0, vec![0]), (1, vec![]), (2, vec![2]), (3, vec![3])]
        );
        assert_eq!(sched.stats().max_batch, 4, "all four coalesced");
        let stats = isolation.stats();
        assert_eq!(stats.bisections, 2, "4 → 2 + 2 → 1 + 1");
        assert_eq!(stats.faults, 1, "exactly one isolated fault");
        assert_eq!(
            isolation.check_quarantine(&group).as_deref(),
            Some("job panicked")
        );
        // The dispatcher and the pool survived the panic.
        let (tx2, rx2) = mpsc::channel();
        sched.submit(job(
            ([9; 32], [9; 32]),
            || ok_outcome(9),
            move |resp| {
                let _ = tx2.send(resp);
            },
        ));
        assert!(sched.flush(Duration::from_secs(5)));
        assert_eq!(rx2.try_iter().collect::<Vec<_>>(), vec![vec![9]]);
    }

    #[test]
    fn expired_deadline_sheds_with_the_prebuilt_response() {
        let isolation = Arc::new(Isolation::default());
        let sched = BatchScheduler::with_hooks(
            NEVER_MS,
            SchedHooks {
                isolation: Arc::clone(&isolation),
                ..SchedHooks::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in_job = Arc::clone(&ran);
        let tx2 = tx.clone();
        sched.submit(Job {
            group: ([5; 32], [5; 32]),
            tenant: 1,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            shed_response: b"shed".to_vec(),
            run: Box::new(move || {
                ran_in_job.fetch_add(1, Ordering::SeqCst);
                ok_outcome(0)
            }),
            deliver: Box::new(move |resp| {
                let _ = tx2.send(resp);
            }),
        });
        assert!(sched.flush(Duration::from_secs(5)));
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![b"shed".to_vec()]);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "shed jobs never evaluate");
        assert_eq!(isolation.stats().shed_deadline, 1);
        let _ = tx;
    }

    #[test]
    fn chaos_kill_at_coalesce_drops_jobs_without_delivery() {
        use crate::chaos::EvalChaos;
        let killed = Arc::new(AtomicBool::new(false));
        let killed_hook = Arc::clone(&killed);
        let sched = BatchScheduler::with_hooks(
            NEVER_MS,
            SchedHooks {
                chaos: Some(Arc::new(EvalChaosState::new(EvalChaos {
                    kill: Some((EvalStage::Coalesce, 1)),
                    ..EvalChaos::default()
                }))),
                on_kill: Some(Box::new(move || killed_hook.store(true, Ordering::SeqCst))),
                ..SchedHooks::default()
            },
        );
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let tx2 = tx.clone();
        sched.submit(job(
            ([6; 32], [6; 32]),
            || ok_outcome(0),
            move |resp| {
                let _ = tx2.send(resp);
            },
        ));
        assert!(sched.flush(Duration::from_secs(5)), "kill frees in-flight");
        assert!(killed.load(Ordering::SeqCst), "kill switch invoked");
        assert!(rx.try_iter().next().is_none(), "no delivery after a kill");
        let _ = tx;
    }
}
