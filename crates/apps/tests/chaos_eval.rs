//! Eval-pipeline chaos sweep: hard kills at every evaluation stage, plus
//! poison-job isolation, deadline shedding, and circuit-breaker recovery —
//! all over real loopback TCP.
//!
//! This suite proves the remote-evaluation protocol survives the server
//! process dying mid-batch, at every stage of a request's life:
//!
//! * **Accept** — admitted but never scheduled;
//! * **Coalesce** — queued, died as its round formed batches;
//! * **MidEval** — died with the kernel invocation in flight;
//! * **PreReply** — evaluated, died before the response write.
//!
//! For each stage × both schemes, a supervisor binds a fresh server, the
//! client recovers (redial → re-setup → resend every unanswered request),
//! and the run must end with **bit-identical** output ciphertext wire
//! bytes and **exactly** the uninterrupted run's primary ledger lines —
//! the re-setup lands on `recovery_bytes` and the resends on
//! `retransmit_bytes`, never on the primary lines.
//!
//! The isolation tests then prove the scheduler's blast-radius bounds: a
//! poison job co-batched with three healthy tenants is bisected out
//! (healthy results correct and billed), its program group is quarantined
//! (second submission refused without entering the scheduler), a fault
//! that does not recur is bisected away with nothing quarantined, a stalled
//! dispatch sheds past-deadline jobs with a typed response the client
//! retries through, and an error storm trips the tenant's breaker open —
//! typed `Unavailable` — until a half-open probe succeeds. Last, a bit
//! flipped in flight inside a request frame is rejected by its tag: a typed
//! timeout for the client, never a wrong result.

use choco::compiler::Program;
use choco::protocol::CommLedger;
use choco::remote::{PreparedProgram, RemoteEvaluator, SessionSetup};
use choco::transport::frame::{encode_frame, FrameKind};
use choco::transport::tcp::{TcpOptions, HELLO_BYTES};
use choco::transport::{RetryPolicy, TagKey, TransportError};
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::remote::{workload_options, workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_serve::{
    ChaosPlan, ChaosProxy, EvalChaos, EvalStage, IsolationConfig, OffloadServer, ServeConfig,
    TenantRegistry,
};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const TENANT: u64 = 1;
const COPIES: usize = 3;

fn tenant_seed(tenant: u64) -> String {
    format!("chaos-eval tenant {tenant}")
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn bind_server(tenants: u64, eval_chaos: EvalChaos) -> OffloadServer {
    let mut registry = TenantRegistry::new();
    for t in 1..=tenants {
        registry.register(t, tenant_seed(t).as_bytes());
    }
    let config = ServeConfig {
        eval_chaos,
        ..ServeConfig::default()
    };
    OffloadServer::bind("127.0.0.1:0", config, registry).expect("bind chaos-eval server")
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 20,
        max_backoff_ms: 500,
        round_timeout_ms: 10_000,
    }
}

/// Client options with a widened recv deadline. Chaos-eval clients spend
/// long stretches waiting on an open-but-silent connection (bisection
/// re-runs, injected dispatch stalls), and under heavy test
/// parallelism the default 2 s deadline can fire from CPU starvation alone.
fn wide_opts() -> TcpOptions {
    TcpOptions {
        recv_deadline_ms: 10_000,
        ..TcpOptions::default()
    }
}

fn assert_primary_lines_match(label: &str, base: &CommLedger, got: &CommLedger) {
    assert_eq!(got.upload_bytes, base.upload_bytes, "{label}: upload_bytes");
    assert_eq!(
        got.download_bytes, base.download_bytes,
        "{label}: download_bytes"
    );
    assert_eq!(got.uploads, base.uploads, "{label}: uploads");
    assert_eq!(got.downloads, base.downloads, "{label}: downloads");
}

/// The full kill sweep for one scheme: an uninterrupted baseline, then a
/// hard kill at each eval stage with a supervisor-driven restart.
fn kill_sweep<S: choco::compiler::CompilerScheme>(scheme: SchemeType, label: &str) {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(scheme).unwrap();
    let prep_seed = format!("chaos-eval keys {label}");
    let w = RemoteWorkload::<S>::prepare(circuit, &params, prep_seed.as_bytes())
        .unwrap_or_else(|e| panic!("{label}: prepare: {e}"));
    let local = w.local_output_wires().unwrap();
    let opts = wide_opts();

    // Uninterrupted baseline through the same reliable client path.
    let server = bind_server(1, EvalChaos::default());
    let addr = Arc::new(Mutex::new(server.addr().to_string()));
    let mut client = w
        .connect_reliable(
            addr,
            tenant_seed(TENANT).as_bytes(),
            TENANT,
            0,
            &opts,
            policy(),
        )
        .unwrap_or_else(|e| panic!("{label}: baseline connect: {e}"));
    let base_wires = w
        .drive_to_completion(&mut client, COPIES)
        .unwrap_or_else(|e| panic!("{label}: baseline batch: {e}"));
    for copy in &base_wires {
        assert_eq!(copy, &local, "{label}: baseline remote != local");
    }
    let base_ledger = *client.ledger();
    assert_eq!(base_ledger.recovery_bytes, 0, "{label}: baseline recovery");
    assert_eq!(
        base_ledger.retransmit_bytes, 0,
        "{label}: baseline retransmit"
    );
    drop(client);
    let stats = server.shutdown();
    // No-crash run: exact per-tenant ledger-vs-book equality.
    let book = stats.book.get(TENANT).expect("baseline book entry");
    assert_eq!(book.upload_bytes, base_ledger.upload_bytes, "{label}: book");
    assert_eq!(book.download_bytes, base_ledger.download_bytes);

    let stages = [
        EvalStage::Accept,
        EvalStage::Coalesce,
        EvalStage::MidEval,
        EvalStage::PreReply,
    ];
    for (i, &stage) in stages.iter().enumerate() {
        let point = format!("{label} kill@{stage:?}");
        let server_a = bind_server(
            1,
            EvalChaos {
                kill: Some((stage, 1)),
                ..EvalChaos::default()
            },
        );
        let addr = Arc::new(Mutex::new(server_a.addr().to_string()));

        // Supervisor: wait for the kill, reclaim the dead instance, bind a
        // successor, repoint the client.
        let sup_addr = Arc::clone(&addr);
        let sup_point = point.clone();
        let supervisor = std::thread::spawn(move || {
            let start = Instant::now();
            while !server_a.was_hard_killed() {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "{sup_point}: kill never fired"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            server_a.shutdown();
            let server_b = bind_server(1, EvalChaos::default());
            *lock(&sup_addr) = server_b.addr().to_string();
            server_b
        });

        let session = 1 + i as u64;
        let mut client = w
            .connect_reliable(
                Arc::clone(&addr),
                tenant_seed(TENANT).as_bytes(),
                TENANT,
                session,
                &opts,
                policy(),
            )
            .unwrap_or_else(|e| panic!("{point}: connect: {e}"));
        let wires = w
            .drive_to_completion(&mut client, COPIES)
            .unwrap_or_else(|e| panic!("{point}: batch did not survive the kill: {e}"));
        assert_eq!(
            wires, base_wires,
            "{point}: outputs differ from the uninterrupted run"
        );
        let ledger = *client.ledger();
        assert_primary_lines_match(&point, &base_ledger, &ledger);
        assert!(
            ledger.recovery_bytes > 0,
            "{point}: the re-setup billed no recovery bytes"
        );
        assert!(
            ledger.retransmit_bytes > 0,
            "{point}: the unanswered requests were not resent"
        );
        drop(client);

        let server_b = supervisor.join().expect("supervisor panicked");
        let stats_b = server_b.shutdown();
        assert_eq!(stats_b.bad_frames, 0, "{point}: successor saw bad frames");
    }
}

#[test]
fn kill_at_every_eval_stage_recovers_bit_identical_bfv() {
    kill_sweep::<Bfv>(SchemeType::Bfv, "eval/bfv");
}

#[test]
fn kill_at_every_eval_stage_recovers_bit_identical_ckks() {
    kill_sweep::<Ckks>(SchemeType::Ckks, "eval/ckks");
}

/// One poison job co-batched with three healthy tenants: all four submit
/// the *same program* under the same parameters (one coalesced group), but
/// the poison tenant's session uploaded no Galois keys, so only its
/// evaluation faults. Bisection must rescue the healthy three, the poison
/// group is quarantined, and a second submission is refused without
/// entering the scheduler.
#[test]
fn poison_job_is_bisected_out_and_quarantined_healthy_tenants_unharmed() {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    // Same program (same program_ref), no key coverage: compiles fine,
    // faults at execution — a poison program the static path can't see.
    let poison_circuit = WorkloadCircuit {
        galois_steps: vec![],
        ..circuit.clone()
    };
    let params = workload_params(SchemeType::Bfv).unwrap();

    let mut registry = TenantRegistry::new();
    for t in 1..=4 {
        registry.register(t, tenant_seed(t).as_bytes());
    }
    let config = ServeConfig {
        // The first round stalls until all four tenants (released off one
        // barrier) have a request queued: one dispatch of four, whichever
        // tenant's frame arrives first.
        eval_chaos: EvalChaos {
            stall: Some((1, 300)),
            ..EvalChaos::default()
        },
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.addr().to_string();

    let barrier = Arc::new(Barrier::new(4));
    let healthy: Vec<_> = (1u64..=3)
        .map(|tenant| {
            let addr = addr.clone();
            let circuit = circuit.clone();
            let params = params.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let seed = format!("poison-iso tenant {tenant}");
                let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, seed.as_bytes()).unwrap();
                let local = w.local_output_wires().unwrap();
                let mut client = choco::remote::RemoteEvaluator::<Bfv>::connect(
                    &addr,
                    tenant_seed(tenant).as_bytes(),
                    tenant,
                    0,
                    &w.params,
                    &w.relin,
                    &w.galois,
                    &wide_opts(),
                )
                .unwrap();
                let inputs = w.input_refs();
                barrier.wait();
                let outs = client
                    .evaluate(&w.prepared, &inputs)
                    .unwrap_or_else(|e| panic!("healthy tenant {tenant} failed: {e}"));
                let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
                assert_eq!(
                    wires, local,
                    "healthy tenant {tenant}: result corrupted by co-batched poison job"
                );
                *client.ledger()
            })
        })
        .collect();

    // Poison tenant on this thread (keys cover no rotations).
    let pw =
        RemoteWorkload::<Bfv>::prepare(&poison_circuit, &params, b"poison-iso tenant 4").unwrap();
    let mut poison_client = choco::remote::RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(4).as_bytes(),
        4,
        0,
        &pw.params,
        &pw.relin,
        &pw.galois,
        &wide_opts(),
    )
    .unwrap();
    let poison_inputs = pw.input_refs();
    barrier.wait();
    match poison_client.evaluate(&pw.prepared, &poison_inputs) {
        Err(TransportError::Rejected(msg)) => {
            assert!(
                msg.contains("execution failed"),
                "poison refusal should name the execution fault: {msg}"
            );
        }
        Err(e) => panic!("poison job: expected a typed execution refusal, got {e}"),
        Ok(_) => panic!("poison job evaluated successfully without Galois keys"),
    }
    let ledgers: Vec<_> = healthy
        .into_iter()
        .map(|h| h.join().expect("healthy tenant panicked"))
        .collect();

    // Second submission of the quarantined program: typed refusal straight
    // from the quarantine list — the scheduler never sees the job.
    let before = server.stats().eval;
    match poison_client.evaluate(&pw.prepared, &poison_inputs) {
        Err(TransportError::Quarantined(reason)) => {
            assert!(
                reason.contains("execution failed"),
                "quarantine should carry the original fault: {reason}"
            );
        }
        Err(e) => panic!("expected Quarantined, got {e}"),
        Ok(_) => panic!("quarantined program evaluated successfully"),
    }
    let after = server.stats().eval;
    assert_eq!(
        after.sched.jobs, before.sched.jobs,
        "quarantined resubmission entered the scheduler"
    );
    assert_eq!(
        after.counters.requests, before.counters.requests,
        "quarantined resubmission counted as an accepted request"
    );
    assert_eq!(after.isolation.quarantine_refusals, 1);

    let stats = server.shutdown();
    assert_eq!(stats.eval.isolation.quarantined, 1);
    assert!(stats.eval.isolation.faults >= 1);
    assert!(
        stats.eval.isolation.bisections >= 1,
        "poison job was never co-batched: {:?}",
        stats.eval
    );
    assert_eq!(stats.eval.sched.max_batch, 4, "{:?}", stats.eval.sched);
    // Healthy tenants billed exactly: book equals each client's own ledger.
    for (tenant, ledger) in ledgers.iter().enumerate() {
        let tenant = tenant as u64 + 1;
        let book = stats
            .book
            .get(tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} missing from book"));
        assert_eq!(book.upload_bytes, ledger.upload_bytes, "tenant {tenant}");
        assert_eq!(
            book.download_bytes, ledger.download_bytes,
            "tenant {tenant}"
        );
        assert_eq!(book.downloads, ledger.downloads, "tenant {tenant}");
    }
}

/// A stalled dispatch round (chaos) holds the queue past the job's
/// deadline: the scheduler sheds it with a typed `DeadlineExceeded`, the
/// client retries on the retransmit line, and the second round completes
/// with the correct result.
#[test]
fn stalled_dispatch_sheds_past_deadline_jobs_and_client_retries() {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"deadline-shed").unwrap();
    let local = w.local_output_wires().unwrap();

    let mut registry = TenantRegistry::new();
    registry.register(TENANT, tenant_seed(TENANT).as_bytes());
    let config = ServeConfig {
        eval_chaos: EvalChaos {
            stall: Some((1, 400)),
            ..EvalChaos::default()
        },
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.addr().to_string();

    let mut client = choco::remote::RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(TENANT).as_bytes(),
        TENANT,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &wide_opts(),
    )
    .unwrap();
    client.set_deadline_ms(Some(80));
    let inputs = w.input_refs();
    let outs = client
        .evaluate(&w.prepared, &inputs)
        .unwrap_or_else(|e| panic!("shed request never completed: {e}"));
    let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, local, "post-shed retry returned a wrong result");
    let ledger = *client.ledger();
    assert!(
        ledger.retransmit_bytes > 0,
        "shed retry must bill the retransmit line"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.eval.isolation.shed_deadline, 1,
        "{:?}",
        stats.eval.isolation
    );
    assert_eq!(stats.eval.counters.errors, 0);
}

/// A fault that does not recur (chaos fails the first job run, once) in a
/// pipelined batch of three: the scheduler bisects, every job — the one
/// that faulted included — re-runs bit-identically, and since no isolated
/// job faults again nothing is quarantined and the client never retries.
#[test]
fn transient_fault_is_bisected_away_and_nothing_quarantined() {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"transient-fault").unwrap();
    let local = w.local_output_wires().unwrap();

    let server = bind_server(
        1,
        EvalChaos {
            fail_job: Some(1),
            ..EvalChaos::default()
        },
    );
    let mut client = RemoteEvaluator::<Bfv>::connect(
        &server.addr().to_string(),
        tenant_seed(TENANT).as_bytes(),
        TENANT,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &wide_opts(),
    )
    .unwrap();
    let inputs = w.input_refs();
    let batch = [inputs.as_slice(); COPIES];
    let results = client
        .evaluate_batch(&w.prepared, &batch)
        .unwrap_or_else(|e| panic!("batch with a transient fault failed: {e}"));
    assert_eq!(results.len(), COPIES);
    for (i, outs) in results.iter().enumerate() {
        let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
        assert_eq!(wires, local, "job {i}: wrong result after bisection");
    }
    assert_eq!(client.ledger().retransmit_bytes, 0);

    let stats = server.shutdown();
    let (sched, iso) = (stats.eval.sched, stats.eval.isolation);
    assert_eq!(sched.max_batch, COPIES as u64, "one dispatch: {sched:?}");
    assert_eq!(iso.bisections, 1, "{iso:?}");
    assert_eq!((iso.faults, iso.quarantined), (0, 0), "{iso:?}");
    assert_eq!(stats.eval.counters.errors, 0);
}

/// A compiler-IR program whose single rotation the session's (empty)
/// Galois key set cannot cover — compiles cleanly, faults at execution.
fn uncovered_rotation_program(step: i64) -> Program {
    let mut p = Program::new();
    let x = p.input("x");
    let r = p.rotate(x, step);
    let y = p.add(x, r);
    p.output(y);
    p
}

/// A rotation-free probe program the same (keyless) session *can* run.
fn rotation_free_circuit() -> WorkloadCircuit {
    let mut p = Program::new();
    let x = p.input("x");
    let c = p.constant(&[0.25, 0.5, 0.75, 1.0]);
    let m = p.mul_plain(x, c);
    let y = p.add_plain(m, c);
    p.output(y);
    WorkloadCircuit {
        name: "breaker-probe",
        program: p,
        galois_steps: vec![],
    }
}

/// An error storm trips the tenant's circuit breaker: subsequent requests
/// get a typed `Unavailable { retry_after_ms }` without touching the
/// pipeline, and after the cool-down a half-open probe closes the breaker
/// again — proven end-to-end through the client's retry loop.
#[test]
fn error_storm_trips_breaker_and_half_open_probe_recovers() {
    let params = workload_params(SchemeType::Bfv).unwrap();
    let probe = rotation_free_circuit();
    let w = RemoteWorkload::<Bfv>::prepare(&probe, &params, b"breaker storm").unwrap();
    let local = w.local_output_wires().unwrap();

    let mut registry = TenantRegistry::new();
    registry.register(TENANT, tenant_seed(TENANT).as_bytes());
    let config = ServeConfig {
        isolation: IsolationConfig {
            breaker_threshold: 2,
            breaker_window: 8,
            breaker_cooldown_ms: 150,
            ..IsolationConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.addr().to_string();

    let mut client = choco::remote::RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(TENANT).as_bytes(),
        TENANT,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &wide_opts(),
    )
    .unwrap();
    let inputs = w.input_refs();

    // Two distinct poison programs → two error outcomes → breaker opens.
    for step in [1i64, 2] {
        let poison =
            PreparedProgram::new(&uncovered_rotation_program(step), &workload_options()).unwrap();
        match client.evaluate(&poison, &inputs) {
            Err(TransportError::Rejected(msg)) => {
                assert!(msg.contains("execution failed"), "{msg}");
            }
            Err(e) => panic!("storm program {step}: expected typed refusal, got {e}"),
            Ok(_) => panic!("storm program {step} evaluated without its Galois key"),
        }
    }

    // The healthy probe rides through the open breaker: typed Unavailable
    // absorbed by the client's retry loop, half-open probe succeeds.
    let outs = client
        .evaluate(&w.prepared, &inputs)
        .unwrap_or_else(|e| panic!("probe never recovered through the breaker: {e}"));
    let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, local, "post-breaker probe returned a wrong result");
    let ledger = *client.ledger();
    assert!(
        ledger.retransmit_bytes > 0,
        "breaker retries must bill the retransmit line"
    );

    let stats = server.shutdown();
    assert!(
        stats.eval.isolation.breaker_refusals >= 1,
        "{:?}",
        stats.eval.isolation
    );
    assert_eq!(stats.eval.isolation.quarantined, 2);
}

/// A bit flipped in-flight inside an eval request frame must surface as a
/// typed error, never a panic and never a wrong result: the keyed-BLAKE3
/// tag rejects the frame server-side (counted in `bad_frames`, connection
/// left up), the client's receive deadline turns the missing answer into a
/// typed `TimeoutExceeded`, and a clean follow-up connection still
/// computes the bit-exact local reference.
#[test]
fn corrupted_eval_frame_is_typed_never_wrong() {
    let seed = tenant_seed(TENANT);
    let seed = seed.as_bytes();
    let server = bind_server(1, EvalChaos::default());

    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"corrupt-frame keys").unwrap();
    let local = w.local_output_wires().unwrap();

    // Locate the first eval-request frame on the client→server stream:
    // hello, then the session-setup frame (seq 0), then the request. The
    // flip lands 200 bytes into the request frame, so session setup passes
    // untouched and only the request is mangled.
    let key = TagKey::from_session_seed(seed);
    let setup = SessionSetup {
        params: w.params.clone(),
        relin_wire: Bfv::relin_to_wire(&w.relin),
        galois_wire: Bfv::galois_to_wire(&w.galois),
    };
    let setup_frame = encode_frame(FrameKind::EvalRequest, 0, &setup.to_wire(), &key);
    let plan = ChaosPlan {
        corrupt_at_byte: Some((HELLO_BYTES + setup_frame.len() + 200) as u64),
        corrupt_seed: 5,
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), plan).expect("spawn chaos proxy");

    let opts = TcpOptions {
        recv_deadline_ms: 500,
        ..TcpOptions::default()
    };
    let mut through_proxy = RemoteEvaluator::<Bfv>::connect(
        &proxy.addr().to_string(),
        seed,
        TENANT,
        1,
        &w.params,
        &w.relin,
        &w.galois,
        &opts,
    )
    .expect("session setup must cross the proxy untouched");
    let err = through_proxy
        .evaluate(&w.prepared, &w.input_refs())
        .expect_err("a corrupted request frame must not yield a result");
    assert!(
        matches!(err, TransportError::TimeoutExceeded { .. }),
        "expected a typed timeout for the dropped frame, got {err}"
    );
    assert!(proxy.corrupted(), "the planned bit flip never fired");
    drop(through_proxy);
    proxy.stop();

    // A clean, direct connection still computes the right answer — the
    // corruption cost a round trip, never correctness.
    let mut direct = RemoteEvaluator::<Bfv>::connect(
        &server.addr().to_string(),
        seed,
        TENANT,
        2,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .expect("clean connect after corruption");
    let out = direct
        .evaluate(&w.prepared, &w.input_refs())
        .expect("clean evaluate after corruption");
    let wires: Vec<Vec<u8>> = out.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, local, "clean retry must match the local reference");
    drop(direct);

    // Exactly the one mangled frame failed its tag; the clean session's
    // frames all verified.
    assert_eq!(server.shutdown().bad_frames, 1);
}
