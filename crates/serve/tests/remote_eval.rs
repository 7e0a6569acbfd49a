//! End-to-end remote-evaluation tests over real loopback TCP.
//!
//! The contract under test, from ISSUE 9:
//!
//! * **bit identity** — for all four workload circuits under both
//!   schemes, evaluating remotely (batched and unbatched) returns the
//!   exact ciphertext wire bytes the local compiled twin produces;
//! * **steady state** — a warm cache serves repeat traffic with *zero*
//!   recompilations and *zero* plaintext re-encodes, proven by counters;
//! * **eviction** — at capacity the LRU program is dropped, the server
//!   answers `NeedProgram`, and the client transparently re-uploads;
//! * **batching correctness** — requests coalesced across tenants into
//!   one kernel invocation stay per-tenant correct (each tenant's outputs
//!   match *its own* local reference) and per-tenant billed (each book
//!   ledger equals that client's own ledger, exactly);
//! * **drain** — draining mid-batch still delivers every scheduled
//!   result, and session records are persisted only after delivery.

use choco::remote::RemoteEvaluator;
use choco::transport::tcp::TcpOptions;
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, Ckks};
use choco_serve::{OffloadServer, ServeConfig, TenantRegistry};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tenant_seed(tenant: u64) -> String {
    format!("remote-eval tenant {tenant}")
}

fn registry(tenants: u64) -> TenantRegistry {
    let mut reg = TenantRegistry::new();
    for t in 1..=tenants {
        reg.register(t, tenant_seed(t).as_bytes());
    }
    reg
}

fn bind(config: ServeConfig, tenants: u64) -> (OffloadServer, String) {
    let server = OffloadServer::bind("127.0.0.1:0", config, registry(tenants)).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

fn connect<S: choco::compiler::CompilerScheme>(
    addr: &str,
    tenant: u64,
    w: &RemoteWorkload<S>,
) -> RemoteEvaluator<S> {
    RemoteEvaluator::<S>::connect(
        addr,
        tenant_seed(tenant).as_bytes(),
        tenant,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .unwrap_or_else(|e| panic!("connect failed: {e}"))
}

fn wires<S: choco::compiler::CompilerScheme>(outs: &[S::Ciphertext]) -> Vec<Vec<u8>> {
    outs.iter().map(|ct| S::ct_to_wire(ct)).collect()
}

/// Drives one workload remotely — unbatched, then a pipelined batch of
/// three — and asserts every result is byte-identical to the local twin.
fn assert_workload_bit_identical<S: choco::compiler::CompilerScheme>(
    addr: &str,
    circuit: &WorkloadCircuit,
    scheme: SchemeType,
) {
    let params = workload_params(scheme).unwrap();
    let seed = format!("bit-identity {} {scheme:?}", circuit.name);
    let w = RemoteWorkload::<S>::prepare(circuit, &params, seed.as_bytes())
        .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", circuit.name));
    let local = w.local_output_wires().unwrap();
    assert!(!local.is_empty(), "{}: no outputs", circuit.name);

    let mut client = connect::<S>(addr, 1, &w);
    let inputs = w.input_refs();

    // Unbatched (cold cache for this program).
    let remote = client
        .evaluate(&w.prepared, &inputs)
        .unwrap_or_else(|e| panic!("{}: remote evaluate failed: {e}", circuit.name));
    assert_eq!(
        wires::<S>(&remote),
        local,
        "{}: unbatched remote != local",
        circuit.name
    );

    // Pipelined batch of three (warm cache), all coalescible.
    let batch = [inputs.as_slice(), inputs.as_slice(), inputs.as_slice()];
    let results = client
        .evaluate_batch(&w.prepared, &batch)
        .unwrap_or_else(|e| panic!("{}: batch evaluate failed: {e}", circuit.name));
    assert_eq!(results.len(), 3);
    for (i, outs) in results.iter().enumerate() {
        assert_eq!(
            wires::<S>(outs),
            local,
            "{}: batched result {i} != local",
            circuit.name
        );
    }
}

#[test]
fn all_workloads_are_bit_identical_remote_vs_local_bfv() {
    let (server, addr) = bind(ServeConfig::default(), 1);
    for circuit in all_workloads() {
        assert_workload_bit_identical::<Bfv>(&addr, &circuit, SchemeType::Bfv);
    }
    let stats = server.shutdown();
    // Four programs, each compiled exactly once across 4 requests each.
    assert_eq!(stats.eval.cache.compiles, 4);
    assert_eq!(stats.eval.counters.requests, 16);
    assert_eq!(stats.eval.counters.errors, 0);
}

#[test]
fn all_workloads_are_bit_identical_remote_vs_local_ckks() {
    let (server, addr) = bind(ServeConfig::default(), 1);
    for circuit in all_workloads() {
        assert_workload_bit_identical::<Ckks>(&addr, &circuit, SchemeType::Ckks);
    }
    let stats = server.shutdown();
    assert_eq!(stats.eval.cache.compiles, 4);
    assert_eq!(stats.eval.counters.requests, 16);
    assert_eq!(stats.eval.counters.errors, 0);
}

#[test]
fn steady_state_traffic_does_zero_recompilation_and_zero_reencoding() {
    let (server, addr) = bind(ServeConfig::default(), 1);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"steady state").unwrap();
    let mut client = connect::<Bfv>(&addr, 1, &w);
    let inputs = w.input_refs();

    // Cold: one compile, every constant encoded once (operand misses).
    client.evaluate(&w.prepared, &inputs).unwrap();
    let cold = server.stats().eval;
    assert_eq!(cold.cache.compiles, 1);
    assert!(
        cold.cache.operands.misses > 0,
        "cold run must encode operands: {cold:?}"
    );

    // Warm: same request again — zero new compiles, zero new encodes.
    client.evaluate(&w.prepared, &inputs).unwrap();
    let warm = server.stats().eval;
    assert_eq!(warm.cache.compiles, cold.cache.compiles, "recompiled");
    assert_eq!(
        warm.cache.operands.misses, cold.cache.operands.misses,
        "re-encoded a cached operand"
    );
    assert!(
        warm.cache.operands.hits > cold.cache.operands.hits,
        "warm run did not hit the operand cache"
    );
    assert!(warm.cache.programs.hits > cold.cache.programs.hits);
    server.shutdown();
}

#[test]
fn program_eviction_at_capacity_answers_need_program_and_recovers() {
    let config = ServeConfig {
        program_cache_capacity: 1,
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 2);
    let circuits = all_workloads();
    let a_circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let b_circuit = circuits.iter().find(|w| w.name == "dnn_conv").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let a = RemoteWorkload::<Bfv>::prepare(a_circuit, &params, b"evict a").unwrap();
    let b = RemoteWorkload::<Bfv>::prepare(b_circuit, &params, b"evict b").unwrap();
    let a_local = a.local_output_wires().unwrap();
    let b_local = b.local_output_wires().unwrap();

    // Two connections (each session's Galois keys cover its own
    // workload); the program cache is global, so tenant 2's program
    // evicts tenant 1's.
    let mut client_a = connect::<Bfv>(&addr, 1, &a);
    let mut client_b = connect::<Bfv>(&addr, 2, &b);
    let a_inputs = a.input_refs();
    let b_inputs = b.input_refs();

    // A compiles into the single slot; B evicts it; asking for A again
    // makes the server answer NeedProgram and the client re-upload.
    let got_a = client_a.evaluate(&a.prepared, &a_inputs).unwrap();
    let got_b = client_b.evaluate(&b.prepared, &b_inputs).unwrap();
    let got_a2 = client_a.evaluate(&a.prepared, &a_inputs).unwrap();
    assert_eq!(wires::<Bfv>(&got_a), a_local);
    assert_eq!(wires::<Bfv>(&got_b), b_local);
    assert_eq!(
        wires::<Bfv>(&got_a2),
        a_local,
        "post-eviction result differs"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.eval.cache.compiles, 3,
        "evicted program must recompile"
    );
    assert!(stats.eval.cache.programs.evictions >= 2);
    assert_eq!(stats.eval.counters.need_program, 1);
    assert_eq!(stats.eval.counters.errors, 0);
}

#[test]
fn coalesced_cross_tenant_batches_stay_per_tenant_correct_and_billed() {
    // A wide window so both tenants' pipelined requests land in one
    // scheduler dispatch.
    let config = ServeConfig {
        batch_window_ms: 100,
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 2);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();

    // Different seeds: each tenant has its own keys and its own inputs, so
    // any cross-request mixup inside a coalesced batch is a wrong answer.
    let handles: Vec<_> = [1u64, 2u64]
        .into_iter()
        .map(|tenant| {
            let addr = addr.clone();
            let circuit = circuit.clone();
            let params = params.clone();
            std::thread::spawn(move || {
                let seed = format!("tenant {tenant} inputs");
                let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, seed.as_bytes()).unwrap();
                let local = w.local_output_wires().unwrap();
                let mut client = connect::<Bfv>(&addr, tenant, &w);
                let inputs = w.input_refs();
                let batch = [inputs.as_slice(), inputs.as_slice()];
                let results = client.evaluate_batch(&w.prepared, &batch).unwrap();
                for outs in &results {
                    assert_eq!(
                        wires::<Bfv>(outs),
                        local,
                        "tenant {tenant}: batched result != own local reference"
                    );
                }
                *client.ledger()
            })
        })
        .collect();
    let ledgers: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread panicked"))
        .collect();

    let stats = server.shutdown();
    // Billing under batching: each tenant's book entry equals that
    // client's own ledger — payload bytes both ways, nothing shared.
    for (tenant, ledger) in ledgers.iter().enumerate() {
        let tenant = tenant as u64 + 1;
        let book = stats
            .book
            .get(tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} missing from book"));
        assert_eq!(
            book.upload_bytes, ledger.upload_bytes,
            "tenant {tenant} upload attribution"
        );
        assert_eq!(
            book.download_bytes, ledger.download_bytes,
            "tenant {tenant} download attribution"
        );
        assert_eq!(book.downloads, ledger.downloads);
    }
    // Both tenants sent identical-shape traffic but distinct ciphertexts:
    // identical byte totals, and the shared program compiled exactly once.
    assert_eq!(ledgers[0].upload_bytes, ledgers[1].upload_bytes);
    assert_eq!(stats.eval.cache.compiles, 1);
    assert_eq!(stats.eval.counters.errors, 0);
}

#[test]
fn pipelined_batch_coalesces_into_one_kernel_dispatch() {
    let config = ServeConfig {
        batch_window_ms: 150,
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 1);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"coalesce").unwrap();
    let local = w.local_output_wires().unwrap();
    let mut client = connect::<Bfv>(&addr, 1, &w);
    let inputs = w.input_refs();

    // Warm the program cache so the batch itself is pure evaluation.
    client.evaluate(&w.prepared, &inputs).unwrap();
    let batch = [
        inputs.as_slice(),
        inputs.as_slice(),
        inputs.as_slice(),
        inputs.as_slice(),
    ];
    let results = client.evaluate_batch(&w.prepared, &batch).unwrap();
    for outs in &results {
        assert_eq!(wires::<Bfv>(outs), local);
    }

    let stats = server.shutdown();
    assert!(
        stats.eval.sched.max_batch >= 2,
        "pipelined requests never coalesced: {:?}",
        stats.eval.sched
    );
    assert!(stats.eval.sched.coalesced >= 2);
}

#[test]
fn drain_mid_batch_delivers_results_before_persisting_records() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("choco-remote-eval-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        batch_window_ms: 120,
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 1);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pipeline").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"drain").unwrap();
    let local = w.local_output_wires().unwrap();
    let mut client = connect::<Bfv>(&addr, 1, &w);
    let inputs = w.input_refs();

    // Compile the program first so the batch sits in the scheduler window
    // when the drain lands.
    client.evaluate(&w.prepared, &inputs).unwrap();

    let server_handle = std::thread::spawn(move || {
        // Let the client's batch reach the scheduler queue, then drain
        // while it is still inside the batching window.
        std::thread::sleep(Duration::from_millis(40));
        server.drain();
        server.shutdown()
    });

    let batch = [inputs.as_slice(), inputs.as_slice(), inputs.as_slice()];
    let start = Instant::now();
    let results = client
        .evaluate_batch(&w.prepared, &batch)
        .unwrap_or_else(|e| panic!("drain must flush scheduled batches, not drop them: {e}"));
    assert_eq!(results.len(), 3);
    for outs in &results {
        assert_eq!(
            wires::<Bfv>(outs),
            local,
            "mid-drain batch result differs from local"
        );
    }
    assert!(start.elapsed() < Duration::from_secs(10));

    let stats = server_handle.join().expect("server thread panicked");
    // The session record was persisted (after delivery), and the book
    // billed every response the client actually received.
    assert_eq!(stats.sessions.len(), 1);
    let persisted = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert!(persisted >= 1, "no session record persisted to {dir:?}");
    let book = stats.book.get(1).expect("tenant 1 billed");
    let ledger = client.ledger();
    assert_eq!(book.download_bytes, ledger.download_bytes);
    assert_eq!(book.upload_bytes, ledger.upload_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wire program whose rotation step names no rotation at the session's
/// ring degree (`|step| ≥ N/2`, or `i64::MIN`) is refused with a typed
/// `execution failed` error, not a dropped connection — and the same
/// connection goes on serving.
fn assert_bad_rotation_step_is_refused<S: choco::compiler::CompilerScheme>(scheme: SchemeType) {
    let (server, addr) = bind(ServeConfig::default(), 1);
    let params = workload_params(scheme).unwrap();
    let rotate_by = |name: &'static str, step: i64| {
        let mut program = choco::compiler::Program::new();
        let x = program.input("x");
        let y = program.rotate(x, step);
        program.output(y);
        let circuit = WorkloadCircuit {
            name,
            program,
            galois_steps: vec![1],
        };
        RemoteWorkload::<S>::prepare(&circuit, &params, b"bad rotation step").unwrap()
    };
    let good = rotate_by("rotate by 1", 1);
    let mut client = connect::<S>(&addr, 1, &good);
    for step in [600, -512, i64::MIN] {
        let bad = rotate_by("rotate out of range", step);
        match client.evaluate(&bad.prepared, &bad.input_refs()) {
            Err(choco::transport::TransportError::Rejected(m)) => {
                assert!(m.contains("execution failed"), "step {step}: {m}")
            }
            other => panic!("step {step}: expected a typed refusal, got {other:?}"),
        }
        let served = client.evaluate(&good.prepared, &good.input_refs());
        let served = served.unwrap_or_else(|e| panic!("step {step}: connection lost: {e}"));
        assert_eq!(wires::<S>(&served), good.local_output_wires().unwrap());
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.eval.isolation.faults, 3,
        "one isolated fault per bad program"
    );
}

#[test]
fn out_of_range_rotation_step_is_a_typed_refusal_on_a_live_connection() {
    assert_bad_rotation_step_is_refused::<Bfv>(SchemeType::Bfv);
    assert_bad_rotation_step_is_refused::<Ckks>(SchemeType::Ckks);
}
