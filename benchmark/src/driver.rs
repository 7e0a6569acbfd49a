//! The run shape shared by all workloads: a cold set-up, a warm-up, then a
//! measured closed-loop window, per repetition.
//!
//! Closed loop because a CHOCO client cannot start its next client-aided
//! round before the reply to the last one arrives. Each generator is one
//! thread that builds its own session (a `Session` is not `Send`) and keeps
//! one round in flight.

use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::trace::{OpTimer, Span, Tracer};
use choco::protocol::CommLedger;
use choco_math::pool::PolyPool;
use choco_serve::ServeStats;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Input sets per workload; ops cycle through them.
pub const POOL: usize = 8;

/// What one closed-loop round did.
pub struct Round {
    pub ops: u64,
    pub failed: u64,
}

/// What a generator reports once its window is over.
#[derive(Default)]
pub struct GenEnd {
    /// Per-repetition checks made after the window (bit identity).
    pub checks: u64,
    pub checks_failed: u64,
    /// `(tenant, client ledger)` for the billing comparison.
    pub ledger: Option<(u64, CommLedger)>,
    pub values: Values,
    /// The first error a round met, if any.
    pub error: Option<String>,
}

pub trait Generator {
    /// One round: quantize, encrypt, evaluate, decrypt and check `ops`
    /// input sets. An op that errors or decrypts wrong counts as failed.
    fn round(&mut self, op: &mut OpTimer) -> Round;
    /// Client ledger `upload_bytes + download_bytes` so far.
    fn comm_bytes(&self) -> u64;
    fn end(self) -> GenEnd;
}

pub trait Workload: Sync {
    /// What the generators of one repetition share (the in-process server).
    type Shared: Sync;
    type Gen<'w>: Generator
    where
        Self: 'w;

    fn generators(&self) -> usize;
    /// Starts repetition `rep`'s fresh server, if the workload has one.
    fn start(&self, rep: u32) -> Result<Self::Shared, String>;
    /// Generator `g`'s cold set-up: context, keys, connection, key upload
    /// and a first checked round.
    fn connect(&self, shared: &Self::Shared, rep: u32, g: usize) -> Result<Self::Gen<'_>, String>;
    fn server_stats(&self, shared: &Self::Shared) -> Option<ServeStats>;
    /// Ends the repetition: shuts the server down and compares its book
    /// with the generators' `(tenant, client ledger)` pairs. Returns
    /// `(checks, checks_failed, values)`.
    fn finish(&self, shared: Self::Shared, ledgers: &[(u64, CommLedger)]) -> (u64, u64, Values);
    /// The per-layer replay of the traced run: the same request through
    /// the public pieces in isolation, each timed for about `budget`.
    fn probe(&self, budget: Duration, evaluate_rtt_ms: f64) -> Result<Values, String>;
}

/// A generator that panics would leave the others waiting at a barrier for
/// ever; end the process instead.
struct ExitOnPanic;

impl Drop for ExitOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::process::exit(3);
        }
    }
}

/// One measured window of one generator.
#[derive(Default)]
struct GenWindow {
    /// `(latency_ms, traced)` of every round in which no op failed.
    samples: Vec<(f64, bool)>,
    attempted: u64,
    failed: u64,
    client_ns: u64,
    comm_bytes: u64,
    /// From the window's start to the completion of its last round.
    elapsed_s: f64,
    spans: Vec<Span>,
    end: GenEnd,
    error: Option<String>,
}

/// One repetition, all generators pooled.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub samples: Vec<(f64, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub throughput_ops_s: f64,
    pub client_ms_per_op: f64,
    pub comm_kib_per_op: f64,
    pub pool_fresh_per_op: f64,
    /// Server counters at the window's start and end.
    pub serve_window: Option<(ServeStats, ServeStats)>,
    pub spans: Vec<Span>,
    pub values: Values,
    pub errors: Vec<String>,
}

impl Rep {
    pub fn latencies_sorted(&self, traced: Option<bool>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|(_, t)| traced.is_none_or(|want| want == *t))
            .map(|(ms, _)| *ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn offload_p50_ms(&self) -> f64 {
        percentile(&self.latencies_sorted(None), 50.0)
    }
}

fn run_loop<G: Generator>(
    gen: &mut G,
    tracer: &mut Tracer,
    window: Duration,
    trace: bool,
    op_base: u64,
    out: &mut GenWindow,
) {
    let start = Instant::now();
    let comm_start = gen.comm_bytes();
    let mut last_done = start;
    let mut round_id = 0u64;
    while start.elapsed() < window {
        // Alternating traced and untraced rounds inside one window gives
        // the tracing overhead free of drift between runs.
        let traced = trace && round_id % 2 == 1;
        let mut op = OpTimer::start(tracer, op_base + round_id, traced);
        let round = gen.round(&mut op);
        let (latency_ns, client_ns) = op.finish();
        last_done = Instant::now();
        out.attempted += round.ops;
        out.failed += round.failed;
        out.client_ns += client_ns;
        if round.failed == 0 {
            out.samples.push((latency_ns as f64 / 1e6, traced));
        }
        round_id += 1;
    }
    out.comm_bytes = gen.comm_bytes() - comm_start;
    out.elapsed_s = (last_done - start).as_secs_f64();
}

/// Runs one repetition of `w`: cold set-up, warm-up, measured window.
pub fn run_rep<W: Workload>(
    w: &W,
    rep: u32,
    warmup: Duration,
    window: Duration,
    trace: bool,
) -> Result<Rep, String> {
    let g_count = w.generators();
    let epoch = Instant::now();
    let shared = w.start(rep)?;
    // The main thread joins every barrier so it can read the server's
    // counters while all generators stand still.
    let barrier = Barrier::new(g_count + 1);
    let mut setup_s = 0.0;
    let mut serve_window = None;
    let mut pool_fresh = (0u64, 0u64);

    let windows: Vec<GenWindow> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..g_count)
            .map(|g| {
                let (barrier, shared) = (&barrier, &shared);
                scope.spawn(move || {
                    let _guard = ExitOnPanic;
                    let mut out = GenWindow::default();
                    let mut gen = match w.connect(shared, rep, g) {
                        Ok(gen) => Some(gen),
                        Err(e) => {
                            out.error = Some(format!("generator {g} set-up: {e}"));
                            None
                        }
                    };
                    barrier.wait(); // set-up done
                    let mut tracer = Tracer::new(epoch);
                    if let Some(gen) = gen.as_mut() {
                        let mut discard = GenWindow::default();
                        run_loop(gen, &mut tracer, warmup, false, 0, &mut discard);
                    }
                    barrier.wait(); // warm-up done
                    barrier.wait(); // window opens
                    if let Some(gen) = gen.as_mut() {
                        // Distinct op ids per generator.
                        let op_base = (g as u64) << 32;
                        run_loop(gen, &mut tracer, window, trace, op_base, &mut out);
                    }
                    barrier.wait(); // window closed
                    barrier.wait(); // counters read
                    out.spans = tracer.into_spans();
                    if let Some(gen) = gen {
                        out.end = gen.end();
                    }
                    out
                })
            })
            .collect();

        barrier.wait();
        setup_s = epoch.elapsed().as_secs_f64();
        barrier.wait();
        let before = w.server_stats(&shared);
        pool_fresh.0 = PolyPool::stats().fresh;
        barrier.wait();
        barrier.wait();
        pool_fresh.1 = PolyPool::stats().fresh;
        serve_window = before.zip(w.server_stats(&shared));
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    let ledgers: Vec<(u64, CommLedger)> = windows.iter().filter_map(|gw| gw.end.ledger).collect();
    let (checks, checks_failed, values) = w.finish(shared, &ledgers);

    let mut rep_out = Rep {
        setup_s,
        attempted: checks,
        failed: checks_failed,
        serve_window,
        values,
        ..Rep::default()
    };
    let (mut ops, mut client_ns, mut comm_bytes) = (0u64, 0u64, 0u64);
    for gw in windows {
        if gw.error.is_some() {
            // A generator that never came up is one failed op, so the run
            // cannot read as correct.
            rep_out.attempted += 1;
            rep_out.failed += 1;
        }
        rep_out.errors.extend(gw.error);
        rep_out.errors.extend(gw.end.error);
        rep_out.attempted += gw.attempted + gw.end.checks;
        rep_out.failed += gw.failed + gw.end.checks_failed;
        ops += gw.attempted;
        client_ns += gw.client_ns;
        comm_bytes += gw.comm_bytes;
        if gw.elapsed_s > 0.0 {
            rep_out.throughput_ops_s += (gw.attempted - gw.failed) as f64 / gw.elapsed_s;
        }
        // Span parents index into their own generator's list.
        let offset = rep_out.spans.len();
        rep_out.spans.extend(gw.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        rep_out.samples.extend(gw.samples);
        rep_out.values.extend(gw.end.values);
    }
    if ops > 0 {
        rep_out.client_ms_per_op = client_ns as f64 / 1e6 / ops as f64;
        rep_out.comm_kib_per_op = comm_bytes as f64 / 1024.0 / ops as f64;
        rep_out.pool_fresh_per_op = (pool_fresh.1 - pool_fresh.0) as f64 / ops as f64;
    }
    Ok(rep_out)
}

/// Times `f` repeatedly for about `budget` (at least 3 calls) and returns
/// the median seconds per call.
pub fn time_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (start.elapsed() < budget && times.len() < 10_000) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}
