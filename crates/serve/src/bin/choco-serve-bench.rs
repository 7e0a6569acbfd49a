//! `choco-serve-bench` — loopback load generator for `choco-serve`.
//!
//! Spawns N concurrent clients against one server (in-process by default,
//! or an external one via `--addr`). Each client runs the paper's four
//! workload kinds round-robin over real TCP sessions — PageRank (BFV),
//! a conv layer (BFV), the LeNet-like pipeline (BFV) and K-Means (CKKS) —
//! and reports wall-clock percentiles per kind plus server-side totals as
//! JSON (`--json PATH`).
//!
//! With `--batch N` the bench switches to the remote-evaluation protocol:
//! each client uploads its evaluation keys once, warms the server's
//! program/operand caches, then alternates measured **sequential** rounds
//! (N evaluate requests, one blocking round trip each) against measured
//! **batched** rounds (one pipelined `evaluate_batch` of N that the server
//! runs as a single kernel dispatch). The report records per-round
//! latency percentiles, request throughput for both modes, and their
//! ratio (`speedup`), plus the server's cache counters — steady-state
//! rounds show zero compiles and zero operand encodes.
//!
//! With `--faults` the bench additionally measures the fault-isolation
//! machinery under injected evaluation faults: per round it boots a fresh
//! in-process server with a deterministic `EvalChaos` plan and drives a
//! pipelined batch through it — a clean baseline, a poison fault bisected
//! out of the batch (the other jobs re-run and succeed), and a stalled
//! dispatch round that sheds every job past its deadline (the client
//! retries through the typed `DeadlineExceeded`). Every round's outputs
//! are compared bit-for-bit against the local reference; any mismatch is
//! a hard failure (`wrong_results` in the report, nonzero exit).

#![forbid(unsafe_code)]

use choco::remote::RemoteEvaluator;
use choco::transport::tcp::TcpOptions;
use choco::transport::{Redialer, RetryPolicy, Session, TcpChannel, TransportError};
use choco_apps::distance::{distance_rotation_steps, PackingVariant, ResumableKmeans};
use choco_apps::dnn::ResumableConvLayer;
use choco_apps::pagerank::{pagerank_rotation_steps, Graph, ResumablePagerank};
use choco_apps::pipeline::{all_rotation_steps, seeded_weights, LenetLikeSpec, ResumablePipeline};
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_apps::resumable::{drive_over_tcp, ResumableWorkload};
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, HeScheme};
use choco_serve::{EvalChaos, OffloadServer, ServeConfig, ServeStats, TenantRegistry};
use std::time::Instant;

const USAGE: &str = "\
choco-serve-bench: loopback load generator for choco-serve

USAGE:
  choco-serve-bench [--clients N] [--reps N] [--addr HOST:PORT] [--json PATH]
                    [--batch N] [--faults] [--smoke]

OPTIONS:
  --clients N   concurrent client threads (default 8)
  --reps N      workload runs per client (default 3)
  --addr A      benchmark an external choco-serve (tenants must be
                registered as ID=serve-bench tenant ID); default is an
                in-process server
  --json PATH   write the report as JSON to PATH (default: stdout only)
  --batch N     remote-evaluation mode: compare N sequential evaluate
                round trips per round against one pipelined batch of N
                (the PageRank circuit under BFV), report both latency
                distributions and the throughput speedup
  --faults      fault-injection phase against dedicated in-process chaos
                servers: per-kind latency percentiles for a clean round,
                a bisected poison fault, and a shed-and-retried deadline,
                asserting zero wrong results
  --smoke       tiny run (2 clients x 1 rep) for CI";

const KINDS: [&str; 4] = ["pagerank_bfv", "conv_bfv", "pipeline_bfv", "kmeans_ckks"];

fn fail(msg: &str) -> ! {
    eprintln!("choco-serve-bench: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn tenant_seed(tenant: u64) -> String {
    format!("serve-bench-tenant-{tenant}")
}

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Drives `workload` to completion over its own TCP session (fresh keys
/// from `params`, up to two redials).
fn drive<W: ResumableWorkload>(
    redialer: &Redialer,
    seed: &[u8],
    params: &HeParams,
    rotation_steps: &[i64],
    workload: W,
) -> Result<(), TransportError> {
    let (up, down) = redialer.dial_fresh()?;
    let session = Session::<W::Scheme, TcpChannel>::over(
        params,
        seed,
        rotation_steps,
        up,
        down,
        RetryPolicy::default(),
    )?;
    drive_over_tcp(redialer, session, workload, 2)?;
    Ok(())
}

/// One workload run over its own TCP session. Failures are returned (the
/// bench reports them, it does not panic).
fn run_workload(
    kind: usize,
    addr: &str,
    tenant: u64,
    session_id: u64,
) -> Result<(), TransportError> {
    let seed = tenant_seed(tenant);
    let seed = seed.as_bytes();
    let redialer = Redialer::new(addr, seed, tenant, session_id);
    let bfv = |plain_bits| HeParams::bfv_insecure(1024, &[45, 45, 46], plain_bits);
    match kind {
        0 => {
            let g = Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]]);
            let steps = pagerank_rotation_steps(g.len());
            let w = ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, 10);
            drive(&redialer, seed, &bfv(24)?, &steps, w?)
        }
        1 => {
            let input: Vec<Vec<u64>> = vec![(0..64).map(|i| (i * 5 + 1) % 16).collect()];
            let weights: Vec<Vec<Vec<u64>>> = (0..2)
                .map(|c| vec![(0..9).map(|i| ((i + c * 3) % 16) as u64).collect()])
                .collect();
            let steps = choco_apps::dnn::conv_rotation_steps(1, 8, 8, 3);
            let w = ResumableConvLayer::new(&input, &weights, 8, 8, 3);
            drive(&redialer, seed, &bfv(18)?, &steps, w?)
        }
        2 => {
            let params = bfv(18)?;
            let spec = LenetLikeSpec::tiny();
            let weights = seeded_weights(&spec, b"serve-bench pipe");
            let image: Vec<u64> = (0..spec.img * spec.img)
                .map(|i| ((i * 7 + 3) % 16) as u64)
                .collect();
            let steps = all_rotation_steps(&spec, params.degree() / 2);
            let w = ResumablePipeline::new(&spec, &weights, &image);
            drive(&redialer, seed, &params, &steps, w?)
        }
        _ => {
            let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38)?;
            let points = vec![
                vec![0.0, 0.1, 0.0, 0.0],
                vec![0.1, 0.0, 0.1, 0.1],
                vec![0.05, 0.05, 0.0, 0.1],
                vec![2.0, 2.1, 2.0, 1.9],
                vec![2.1, 2.0, 1.9, 2.0],
                vec![1.9, 1.9, 2.1, 2.1],
            ];
            let init = vec![vec![0.5; 4], vec![1.5; 4]];
            let steps = distance_rotation_steps(4, points.len(), 512);
            let w = ResumableKmeans::new(PackingVariant::DimensionMajor, &points, &init, 2, 1e-6);
            drive(&redialer, seed, &params, &steps, w?)
        }
    }
}

fn percentile(sorted_ms: &[u64], pct: u64) -> u64 {
    if sorted_ms.is_empty() {
        return 0;
    }
    let rank = (pct * (sorted_ms.len() as u64 - 1) + 50) / 100;
    sorted_ms
        .get(rank as usize)
        .or_else(|| sorted_ms.last())
        .copied()
        .unwrap_or(0)
}

fn kind_json(label: &str, ms: &mut [u64], failed: u64) -> String {
    ms.sort_unstable();
    let mean = if ms.is_empty() {
        0
    } else {
        ms.iter().sum::<u64>() / ms.len() as u64
    };
    format!(
        "    \"{label}\": {{ \"runs\": {}, \"failed\": {failed}, \"p50_ms\": {}, \
         \"p90_ms\": {}, \"p99_ms\": {}, \"mean_ms\": {mean}, \"min_ms\": {}, \"max_ms\": {} }}",
        ms.len(),
        percentile(ms, 50),
        percentile(ms, 90),
        percentile(ms, 99),
        ms.first().copied().unwrap_or(0),
        ms.last().copied().unwrap_or(0),
    )
}

/// One client's measured remote-eval rounds: per-round wall times for the
/// sequential and the batched shape, in that order.
fn run_batch_client(
    addr: &str,
    tenant: u64,
    reps: u64,
    batch: usize,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let circuits = choco_apps::circuits::all_workloads();
    let circuit = circuits
        .iter()
        .find(|w| w.name == "pagerank")
        .ok_or("pagerank circuit missing")?;
    let params = workload_params(SchemeType::Bfv).map_err(err_str)?;
    let seed = tenant_seed(tenant);
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, seed.as_bytes()).map_err(err_str)?;
    // Session ids above the relay phase's rep counter, so a combined run
    // gives the eval connection its own dedup cursor.
    let mut client = RemoteEvaluator::<Bfv>::connect(
        addr,
        seed.as_bytes(),
        tenant,
        10_000,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .map_err(err_str)?;
    let inputs = w.input_refs();

    // Warm-up: uploads the program body and fills the operand cache, so
    // both measured shapes see identical steady-state server work.
    client.evaluate(&w.prepared, &inputs).map_err(err_str)?;

    let mut sequential = Vec::with_capacity(reps as usize);
    let mut batched = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..batch {
            client.evaluate(&w.prepared, &inputs).map_err(err_str)?;
        }
        sequential.push(u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX));

        let round: Vec<_> = (0..batch).map(|_| inputs.as_slice()).collect();
        let t0 = Instant::now();
        client
            .evaluate_batch(&w.prepared, &round)
            .map_err(err_str)?;
        batched.push(u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX));
    }
    Ok((sequential, batched))
}

fn mode_json(label: &str, ms: &mut [u64], requests_per_round: u64) -> (String, f64) {
    ms.sort_unstable();
    let total_ms: u64 = ms.iter().sum();
    let total_requests = requests_per_round * ms.len() as u64;
    let throughput = if total_ms == 0 {
        0.0
    } else {
        total_requests as f64 * 1_000.0 / total_ms as f64
    };
    let mean = if ms.is_empty() {
        0
    } else {
        total_ms / ms.len() as u64
    };
    let json = format!(
        "    \"{label}\": {{ \"rounds\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \
         \"p99_ms\": {}, \"mean_ms\": {mean}, \"throughput_per_s\": {throughput:.3} }}",
        ms.len(),
        percentile(ms, 50),
        percentile(ms, 90),
        percentile(ms, 99),
    );
    (json, throughput)
}

/// The `--batch N` phase: remote evaluation, sequential vs pipelined,
/// against the already-running server. Returns the `remote_eval` JSON
/// section and the number of failed clients.
fn run_batch_phase(clients: usize, reps: u64, batch: usize, addr: &str) -> (String, u64) {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.to_string();
            std::thread::spawn(move || run_batch_client(&addr, i as u64 + 1, reps, batch))
        })
        .collect();
    let mut sequential = Vec::new();
    let mut batched = Vec::new();
    let mut failed = 0u64;
    for handle in handles {
        match handle.join() {
            Ok(Ok((mut s, mut b))) => {
                sequential.append(&mut s);
                batched.append(&mut b);
            }
            Ok(Err(e)) => {
                failed += 1;
                eprintln!("choco-serve-bench: batch client failed: {e}");
            }
            Err(_) => fail("a batch client thread panicked"),
        }
    }
    let wall_ms = u64::try_from(wall.elapsed().as_millis()).unwrap_or(u64::MAX);

    let (seq_json, seq_tp) = mode_json("sequential", &mut sequential, batch as u64);
    let (bat_json, bat_tp) = mode_json("batched", &mut batched, batch as u64);
    let speedup = if seq_tp > 0.0 { bat_tp / seq_tp } else { 0.0 };
    let section = format!(
        "  \"remote_eval\": {{\n    \"batch\": {batch}, \"rounds_per_mode\": {},\n\
         {seq_json},\n{bat_json},\n    \
         \"speedup\": {speedup:.3}, \"failed_clients\": {failed}, \
         \"wall_ms\": {wall_ms}\n  }}",
        reps * clients as u64,
    );
    (section, failed)
}

/// One fault-injection configuration: the chaos plan a dedicated
/// in-process server boots with, and how the measuring client behaves.
struct FaultKind {
    label: &'static str,
    chaos: EvalChaos,
    /// Client-side dispatch deadline, for the shedding kind.
    deadline_ms: Option<u64>,
}

/// Pipelined requests per fault round; the bisection kind injects exactly
/// one poison fault into the batch, so the injected fault rate is
/// `1 / FAULT_BATCH` of that kind's requests.
const FAULT_BATCH: usize = 3;

fn fault_kinds() -> [FaultKind; 3] {
    [
        FaultKind {
            label: "clean",
            chaos: EvalChaos::default(),
            deadline_ms: None,
        },
        FaultKind {
            // One job of the coalesced batch faults (poison); the
            // scheduler bisects, the healthy jobs re-run bit-identically,
            // and the once-firing fault recovers on its own re-run — every
            // result still correct, the fault paid for in latency only.
            label: "bisected_fault",
            chaos: EvalChaos {
                fail_job: Some(1),
                ..EvalChaos::default()
            },
            deadline_ms: None,
        },
        FaultKind {
            // The first dispatch round stalls past every job's deadline;
            // the jobs are shed with typed `DeadlineExceeded` responses
            // and the client resends them with a fresh budget.
            label: "shed_deadline",
            chaos: EvalChaos {
                stall: Some((1, 400)),
                ..EvalChaos::default()
            },
            deadline_ms: Some(80),
        },
    ]
}

/// Phase-wide server-counter totals, accumulated across fault rounds.
#[derive(Default)]
struct FaultTotals {
    requests: u64,
    bisections: u64,
    shed: u64,
    quarantined: u64,
}

/// One measured fault round against a fresh chaos server. Returns the
/// round latency and the number of result vectors that differed from the
/// local reference (always 0 unless the isolation machinery is broken).
fn run_fault_round(
    kind: &FaultKind,
    w: &RemoteWorkload<Bfv>,
    local: &[Vec<u8>],
    session_id: u64,
    totals: &mut FaultTotals,
) -> Result<(u64, u64), String> {
    let seed = tenant_seed(1);
    let mut registry = TenantRegistry::new();
    registry.register(1, seed.as_bytes());
    let config = ServeConfig {
        max_sessions: 4,
        eval_chaos: kind.chaos,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).map_err(err_str)?;
    let mut client = RemoteEvaluator::<Bfv>::connect(
        &server.addr().to_string(),
        seed.as_bytes(),
        1,
        session_id,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .map_err(err_str)?;
    client.set_deadline_ms(kind.deadline_ms);
    let inputs = w.input_refs();
    let round: Vec<_> = (0..FAULT_BATCH).map(|_| inputs.as_slice()).collect();

    let t0 = Instant::now();
    let results = client
        .evaluate_batch(&w.prepared, &round)
        .map_err(err_str)?;
    let ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let wrong = results
        .iter()
        .filter(|outs| {
            let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
            wires != local
        })
        .count() as u64;
    drop(client);
    let stats = server.shutdown();
    let iso = stats.eval.isolation;
    totals.requests += stats.eval.counters.requests;
    totals.bisections += iso.bisections;
    totals.shed += iso.shed_deadline;
    totals.quarantined += iso.quarantined;
    Ok((ms, wrong))
}

/// The `--faults` phase: three server configurations, `rounds` measured
/// rounds each, every output compared against the local reference.
/// Returns the `faults` JSON section plus (failed_rounds, wrong_results).
fn run_faults_phase(reps: u64) -> (String, u64, u64) {
    let rounds = 2 * reps;
    eprintln!(
        "choco-serve-bench: fault-injection phase — {rounds} rounds x 3 kinds, \
         batch {FAULT_BATCH}, one poison fault or stalled dispatch per chaos round"
    );
    let setup = || -> Result<(RemoteWorkload<Bfv>, Vec<Vec<u8>>), String> {
        let circuits = choco_apps::circuits::all_workloads();
        let circuit = circuits
            .iter()
            .find(|w| w.name == "pagerank")
            .ok_or("pagerank circuit missing")?;
        let params = workload_params(SchemeType::Bfv).map_err(err_str)?;
        let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, tenant_seed(1).as_bytes())
            .map_err(err_str)?;
        let local = w.local_output_wires().map_err(err_str)?;
        Ok((w, local))
    };
    let (w, local) = match setup() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("choco-serve-bench: faults phase setup failed: {e}");
            return (String::from("  \"faults\": { \"setup_failed\": 1 }"), 1, 0);
        }
    };

    let wall = Instant::now();
    let mut kind_lines = Vec::new();
    let mut failed = 0u64;
    let mut wrong_total = 0u64;
    let mut injected = 0u64;
    let mut totals = FaultTotals::default();
    for (k, kind) in fault_kinds().iter().enumerate() {
        let mut ms = Vec::with_capacity(rounds as usize);
        let mut kind_failed = 0u64;
        for round in 0..rounds {
            let session_id = 20_000 + (k as u64) * 1_000 + round;
            match run_fault_round(kind, &w, &local, session_id, &mut totals) {
                Ok((elapsed, wrong)) => {
                    ms.push(elapsed);
                    wrong_total += wrong;
                }
                Err(e) => {
                    kind_failed += 1;
                    eprintln!(
                        "choco-serve-bench: faults round {round} ({}) failed: {e}",
                        kind.label
                    );
                }
            }
            if kind.label != "clean" {
                injected += 1;
            }
        }
        failed += kind_failed;
        kind_lines.push(kind_json(kind.label, &mut ms, kind_failed));
    }
    let wall_ms = u64::try_from(wall.elapsed().as_millis()).unwrap_or(u64::MAX);

    let rate = if totals.requests == 0 {
        0.0
    } else {
        injected as f64 / totals.requests as f64
    };
    let section = format!(
        "  \"faults\": {{\n    \"batch\": {FAULT_BATCH}, \"rounds_per_kind\": {rounds},\n\
         {},\n    \"injected_faults\": {injected}, \"injected_fault_rate\": {rate:.3},\n    \
         \"requests\": {}, \"bisections\": {}, \"shed\": {}, \"quarantined\": {},\n    \
         \"wrong_results\": {wrong_total}, \"failed_rounds\": {failed}, \
         \"wall_ms\": {wall_ms}\n  }}",
        kind_lines.join(",\n"),
        totals.requests,
        totals.bisections,
        totals.shed,
        totals.quarantined,
    );
    (section, failed, wrong_total)
}

/// Server-side evaluator counters: cache effectiveness and coalescing.
fn eval_json(stats: &ServeStats) -> String {
    let e = &stats.eval;
    format!(
        "  \"eval\": {{ \"requests\": {}, \"errors\": {}, \"compiles\": {}, \
         \"program_hits\": {}, \"program_misses\": {}, \"program_evictions\": {}, \
         \"operand_hits\": {}, \"operand_misses\": {}, \"batches\": {}, \
         \"coalesced\": {}, \"max_batch\": {} }}",
        e.counters.requests,
        e.counters.errors,
        e.cache.compiles,
        e.cache.programs.hits,
        e.cache.programs.misses,
        e.cache.programs.evictions,
        e.cache.operands.hits,
        e.cache.operands.misses,
        e.sched.batches,
        e.sched.coalesced,
        e.sched.max_batch,
    )
}

fn server_json(stats: &ServeStats) -> String {
    let total = stats.book.combined();
    format!(
        "  \"server\": {{ \"accepted\": {}, \"resumed\": {}, \"rejected_overload\": {}, \
         \"tenants\": {}, \"fresh_frames\": {}, \"fresh_payload_bytes\": {}, \
         \"retransmit_bytes\": {}, \"sessions\": {} }}",
        stats.accepted,
        stats.resumed,
        stats.rejected_overload,
        stats.book.tenants(),
        total.uploads,
        total.upload_bytes,
        total.retransmit_bytes,
        stats.sessions.len(),
    )
}

fn main() {
    let mut clients: usize = 8;
    let mut reps: u64 = 3;
    let mut addr: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut batch: Option<usize> = None;
    let mut faults = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut need = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--clients" => {
                clients = need("--clients")
                    .parse()
                    .unwrap_or_else(|_| fail("--clients: not a number"));
            }
            "--reps" => {
                reps = need("--reps")
                    .parse()
                    .unwrap_or_else(|_| fail("--reps: not a number"));
            }
            "--addr" => addr = Some(need("--addr")),
            "--json" => json_path = Some(need("--json")),
            "--batch" => {
                batch = Some(
                    need("--batch")
                        .parse()
                        .unwrap_or_else(|_| fail("--batch: not a number")),
                );
            }
            "--faults" => faults = true,
            "--smoke" => {
                clients = 2;
                reps = 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if clients == 0 || reps == 0 {
        fail("--clients and --reps must be positive");
    }
    if batch == Some(0) {
        fail("--batch must be positive");
    }

    // In-process server unless an external address was given.
    let mut registry = TenantRegistry::new();
    for i in 0..clients {
        let tenant = i as u64 + 1;
        registry.register(tenant, tenant_seed(tenant).as_bytes());
    }
    let server = match addr {
        Some(_) => None,
        None => {
            let config = ServeConfig {
                max_sessions: clients as u32 + 4,
                ..ServeConfig::default()
            };
            Some(
                OffloadServer::bind("127.0.0.1:0", config, registry)
                    .unwrap_or_else(|e| fail(&format!("bind in-process server: {e}"))),
            )
        }
    };
    let addr = addr.unwrap_or_else(|| {
        server
            .as_ref()
            .map(|s| s.addr().to_string())
            .unwrap_or_else(|| fail("no server"))
    });

    eprintln!(
        "choco-serve-bench: {clients} clients x {reps} reps against {addr} \
         ({} threads in the par pool)",
        choco_math::par::num_threads()
    );

    let wall = Instant::now();
    let mut handles = Vec::new();
    for i in 0..clients {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let tenant = i as u64 + 1;
            let kind = i % KINDS.len();
            let mut runs: Vec<(usize, u64, Result<(), String>)> = Vec::new();
            for rep in 0..reps {
                let t0 = Instant::now();
                let outcome = run_workload(kind, &addr, tenant, rep).map_err(err_str);
                let ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
                runs.push((kind, ms, outcome));
            }
            runs
        }));
    }
    let mut runs: Vec<(usize, u64, Result<(), String>)> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(mut r) => runs.append(&mut r),
            Err(_) => fail("a client thread panicked"),
        }
    }
    let wall_ms = u64::try_from(wall.elapsed().as_millis()).unwrap_or(u64::MAX);

    let mut failed_total = 0u64;
    for (kind, _, outcome) in &runs {
        if let Err(e) = outcome {
            failed_total += 1;
            eprintln!(
                "choco-serve-bench: {} run failed: {e}",
                KINDS.get(*kind).copied().unwrap_or("?")
            );
        }
    }

    let mut kind_lines = Vec::new();
    for (kind, label) in KINDS.iter().enumerate() {
        let mut ms: Vec<u64> = runs
            .iter()
            .filter(|(k, _, outcome)| *k == kind && outcome.is_ok())
            .map(|(_, ms, _)| *ms)
            .collect();
        let failed = runs
            .iter()
            .filter(|(k, _, outcome)| *k == kind && outcome.is_err())
            .count() as u64;
        if !ms.is_empty() || failed > 0 {
            kind_lines.push(kind_json(label, &mut ms, failed));
        }
    }

    // The remote-eval phase reuses the same server (and its registry) so
    // its counters land in the same report.
    let batch_phase = batch.map(|n| {
        eprintln!(
            "choco-serve-bench: remote-eval phase — {clients} clients, \
             {reps} rounds of {n} sequential vs one batch of {n}"
        );
        run_batch_phase(clients, reps, n, &addr)
    });

    // The faults phase boots its own chaos servers, so it runs regardless
    // of --addr, after the shared-server phases are done measuring.
    let faults_phase = faults.then(|| run_faults_phase(reps));

    let stats = server.map(OffloadServer::shutdown);
    let total_runs = runs.len() as u64;
    let throughput_per_s = if wall_ms == 0 {
        0.0
    } else {
        (total_runs - failed_total) as f64 * 1_000.0 / wall_ms as f64
    };
    let mut sections = vec![
        format!(
            "  \"config\": {{ \"clients\": {clients}, \"reps\": {reps}, \"addr\": \"{addr}\" }}"
        ),
        format!(
            "  \"total\": {{ \"runs\": {total_runs}, \"failed\": {failed_total}, \
             \"wall_ms\": {wall_ms}, \"throughput_per_s\": {throughput_per_s:.3} }}"
        ),
        format!("  \"workloads\": {{\n{}\n  }}", kind_lines.join(",\n")),
    ];
    let mut failed_batch_clients = 0u64;
    if let Some((section, failed)) = batch_phase {
        sections.push(section);
        failed_batch_clients = failed;
    }
    let mut failed_fault_rounds = 0u64;
    let mut wrong_results = 0u64;
    if let Some((section, failed, wrong)) = faults_phase {
        sections.push(section);
        failed_fault_rounds = failed;
        wrong_results = wrong;
    }
    if let Some(stats) = &stats {
        sections.push(server_json(stats));
        if batch.is_some() {
            sections.push(eval_json(stats));
        }
    }
    let report = format!("{{\n{}\n}}\n", sections.join(",\n"));

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &report) {
            fail(&format!("write {path}: {e}"));
        }
        eprintln!("choco-serve-bench: wrote {path}");
    }
    print!("{report}");
    if wrong_results > 0 {
        eprintln!(
            "choco-serve-bench: FAULT ISOLATION BROKEN — {wrong_results} result(s) \
             differed from the local reference under injected faults"
        );
    }
    if failed_total > 0 || failed_batch_clients > 0 || failed_fault_rounds > 0 || wrong_results > 0
    {
        std::process::exit(1);
    }
}
