//! `choco-serve-bench` — loopback load generator for `choco-serve`.
//!
//! Spawns N concurrent clients against one server (in-process by default,
//! or an external one via `--addr`). Each client uploads its evaluation
//! keys once, warms the server's program/operand caches, then alternates
//! measured **sequential** rounds (`--batch` evaluate requests, one
//! blocking round trip each) against measured **batched** rounds (one
//! pipelined `evaluate_batch` of the same size, which the server runs as a
//! single kernel dispatch). The report (`--json PATH`) records per-round
//! latency percentiles, request throughput for both modes, and their ratio
//! (`speedup`); for an in-process server it also embeds the server's own
//! stats line (`ServeStats::to_json_line`) — steady-state rounds show zero
//! compiles and zero operand encodes.
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
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, HeScheme};
use choco_serve::{EvalChaos, OffloadServer, ServeConfig, TenantRegistry};
use std::time::Instant;

const USAGE: &str = "\
choco-serve-bench: loopback load generator for choco-serve

USAGE:
  choco-serve-bench [--clients N] [--reps N] [--addr HOST:PORT] [--json PATH]
                    [--batch N] [--faults] [--smoke]

OPTIONS:
  --clients N   concurrent client threads (default 8)
  --reps N      measured rounds per mode per client (default 3)
  --addr A      benchmark an external choco-serve (tenants must be
                registered as ID=serve-bench-tenant-ID); default is an
                in-process server
  --json PATH   write the report as JSON to PATH (default: stdout only)
  --batch N     requests per round (default 4): N sequential evaluate
                round trips against one pipelined batch of N (the PageRank
                circuit under BFV); the report has both latency
                distributions and the throughput speedup
  --faults      fault-injection phase against dedicated in-process chaos
                servers: per-kind latency percentiles for a clean round,
                a bisected poison fault, and a shed-and-retried deadline,
                asserting zero wrong results
  --smoke       tiny run (2 clients x 1 rep) for CI";

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

/// The PageRank circuit under BFV with `tenant`'s own keys and inputs.
fn pagerank_workload(tenant: u64) -> Result<RemoteWorkload<Bfv>, String> {
    let circuits = choco_apps::circuits::all_workloads();
    let circuit = circuits
        .iter()
        .find(|w| w.name == "pagerank")
        .ok_or("pagerank circuit missing")?;
    let params = workload_params(SchemeType::Bfv).map_err(err_str)?;
    RemoteWorkload::prepare(circuit, &params, tenant_seed(tenant).as_bytes()).map_err(err_str)
}

/// An evaluation session for `tenant` (session id 0) with `w`'s keys.
fn connect(
    addr: &str,
    tenant: u64,
    w: &RemoteWorkload<Bfv>,
) -> Result<RemoteEvaluator<Bfv>, String> {
    RemoteEvaluator::connect(
        addr,
        tenant_seed(tenant).as_bytes(),
        tenant,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .map_err(err_str)
}

/// One client's measured remote-eval rounds: per-round wall times for the
/// sequential and the batched shape, in that order.
fn run_batch_client(
    addr: &str,
    tenant: u64,
    reps: u64,
    batch: usize,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let w = pagerank_workload(tenant)?;
    let mut client = connect(addr, tenant, &w)?;
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

/// The measured phase: remote evaluation, sequential vs pipelined, against
/// the already-running server. Returns the `remote_eval` JSON section and
/// the number of failed clients.
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
    totals: &mut FaultTotals,
) -> Result<(u64, u64), String> {
    let mut registry = TenantRegistry::new();
    registry.register(1, tenant_seed(1).as_bytes());
    let config = ServeConfig {
        max_sessions: 4,
        eval_chaos: kind.chaos,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).map_err(err_str)?;
    let mut client = connect(&server.addr().to_string(), 1, w)?;
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
    let setup = pagerank_workload(1).and_then(|w| {
        let local = w.local_output_wires().map_err(err_str)?;
        Ok((w, local))
    });
    let (w, local) = match setup {
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
    for kind in &fault_kinds() {
        let mut ms = Vec::with_capacity(rounds as usize);
        for round in 0..rounds {
            match run_fault_round(kind, &w, &local, &mut totals) {
                Ok((elapsed, wrong)) => {
                    ms.push(elapsed);
                    wrong_total += wrong;
                }
                Err(e) => {
                    failed += 1;
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
        kind_lines.push(mode_json(kind.label, &mut ms, FAULT_BATCH as u64).0);
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

fn main() {
    let mut clients: usize = 8;
    let mut reps: u64 = 3;
    let mut addr: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut batch: usize = 4;
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
                batch = need("--batch")
                    .parse()
                    .unwrap_or_else(|_| fail("--batch: not a number"));
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
    if clients == 0 || reps == 0 || batch == 0 {
        fail("--clients, --reps and --batch must be positive");
    }

    // In-process server unless an external address was given.
    let (server, addr) = match addr {
        Some(addr) => (None, addr),
        None => {
            let mut registry = TenantRegistry::new();
            for tenant in 1..=clients as u64 {
                registry.register(tenant, tenant_seed(tenant).as_bytes());
            }
            let config = ServeConfig {
                max_sessions: clients as u32 + 4,
                ..ServeConfig::default()
            };
            let server = OffloadServer::bind("127.0.0.1:0", config, registry)
                .unwrap_or_else(|e| fail(&format!("bind in-process server: {e}")));
            let addr = server.addr().to_string();
            (Some(server), addr)
        }
    };

    eprintln!(
        "choco-serve-bench: {clients} clients against {addr}, {reps} rounds of \
         {batch} sequential vs one batch of {batch} ({} threads in the par pool)",
        choco_math::par::num_threads()
    );
    let (eval_section, failed_clients) = run_batch_phase(clients, reps, batch, &addr);

    // The faults phase boots its own chaos servers, so it runs regardless
    // of --addr, after the shared server is done measuring.
    let faults_phase = faults.then(|| run_faults_phase(reps));

    let mut sections = vec![
        format!(
            "  \"config\": {{ \"clients\": {clients}, \"reps\": {reps}, \"addr\": \"{addr}\" }}"
        ),
        eval_section,
    ];
    let mut failed_fault_rounds = 0u64;
    let mut wrong_results = 0u64;
    if let Some((section, failed, wrong)) = faults_phase {
        sections.push(section);
        failed_fault_rounds = failed;
        wrong_results = wrong;
    }
    if let Some(server) = server {
        sections.push(format!(
            "  \"server\": {}",
            server.shutdown().to_json_line()
        ));
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
    if failed_clients > 0 || failed_fault_rounds > 0 || wrong_results > 0 {
        std::process::exit(1);
    }
}
