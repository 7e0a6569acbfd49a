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
//!   result, each written and billed before the drain returns;
//! * **billing by direction** — a request is an upload and a response a
//!   download whatever its sequence number: a `(tenant, session)` id used
//!   again, in one server's life or across a restart, bills like the first
//!   time, and a frame of a kind the evaluator does not speak is billed,
//!   refused with a typed error, and leaves the connection serving;
//! * **no waiting** — a request with nothing behind it is a round of its
//!   own that the scheduler never holds open, while a pipelined batch is
//!   exactly one round, both at `ServeConfig::default()`;
//! * **one writer** — immediate and scheduled responses interleaved on
//!   one connection leave under strictly increasing sequence numbers,
//!   and a response the writer never wrote is not billed.
//!
//! Where a test needs requests from *different* connections in one batch
//! it stalls the scheduler's first round (`EvalChaos::stall`) and starts
//! the clients off a barrier, instead of widening a window and hoping.

use choco::remote::{EvalRequest, EvalResponse, RemoteEvaluator, SessionSetup};
use choco::transport::frame::{decode_frame, encode_frame, FrameKind};
use choco::transport::tcp::{dial, BlobIo, TcpOptions};
use choco::transport::TagKey;
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, Ckks, HeScheme};
use choco_serve::{EvalChaos, EvalStage, OffloadServer, ServeConfig, TenantRegistry};
use std::sync::{Arc, Barrier};
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
    // Three of them hold one dot chain; the distance kernel holds none.
    assert_eq!(stats.eval.cache.fused_groups, 3);
    assert!(stats.to_json_line().contains("\"fused_groups\":3}"));
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
    // The first round stalls until both tenants' pipelined requests are
    // queued: one dispatch of four.
    let config = ServeConfig {
        eval_chaos: EvalChaos {
            stall: Some((1, 250)),
            ..EvalChaos::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 2);
    let barrier = Arc::new(Barrier::new(2));
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
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let seed = format!("tenant {tenant} inputs");
                let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, seed.as_bytes()).unwrap();
                let local = w.local_output_wires().unwrap();
                let mut client = connect::<Bfv>(&addr, tenant, &w);
                let inputs = w.input_refs();
                let batch = [inputs.as_slice(), inputs.as_slice()];
                barrier.wait();
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
    let sched = stats.eval.sched;
    assert_eq!((sched.batches, sched.max_batch), (1, 4), "{sched:?}");
}

#[test]
fn pipelined_batch_of_four_is_one_kernel_dispatch_and_lone_requests_never_hold() {
    let (server, addr) = bind(ServeConfig::default(), 1);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"coalesce").unwrap();
    let local = w.local_output_wires().unwrap();
    let mut client = connect::<Bfv>(&addr, 1, &w);
    let inputs = w.input_refs();

    // One request at a time: each is a round of its own, and the
    // scheduler never once keeps a round open.
    for _ in 0..5 {
        client.evaluate(&w.prepared, &inputs).unwrap();
    }
    let lone = server.stats().eval.sched;
    assert_eq!((lone.jobs, lone.batches, lone.coalesced), (5, 5, 0));
    assert_eq!(lone.held_rounds, 0, "a lone request waited: {lone:?}");

    // Four pipelined: the next request is on the socket behind each of
    // the first three, so the round stays open for exactly this batch.
    let batch = [inputs.as_slice(); 4];
    let results = client.evaluate_batch(&w.prepared, &batch).unwrap();
    for outs in &results {
        assert_eq!(wires::<Bfv>(outs), local);
    }

    let sched = server.shutdown().eval.sched;
    assert_eq!(sched.max_batch, 4, "{sched:?}");
    assert_eq!((sched.jobs, sched.batches, sched.coalesced), (9, 6, 4));
    // (At most: the dispatcher may only get to look once all four are in.)
    assert!(sched.held_rounds <= 1, "{sched:?}");
}

/// A hand-driven connection: the tests below need to pipeline payloads
/// `RemoteEvaluator` never mixes and to see the response frames' own
/// sequence numbers.
struct RawClient {
    io: BlobIo,
    key: TagKey,
    seq: u64,
    uploaded: u64,
    downloaded: u64,
}

impl RawClient {
    fn connect(addr: &str, tenant: u64, w: &RemoteWorkload<Bfv>) -> Self {
        let key = TagKey::from_session_seed(tenant_seed(tenant).as_bytes());
        let io = dial(addr, &key, tenant, 0, false, &TcpOptions::default()).unwrap();
        let mut client = RawClient {
            io,
            key,
            seq: 0,
            uploaded: 0,
            downloaded: 0,
        };
        let setup = SessionSetup {
            params: w.params.clone(),
            relin_wire: Bfv::relin_to_wire(&w.relin),
            galois_wire: Bfv::galois_to_wire(&w.galois),
        };
        client.send(&setup.to_wire());
        assert!(matches!(client.recv(), (0, EvalResponse::SetupOk)));
        client
    }

    fn send(&mut self, payload: &[u8]) {
        self.send_kind(FrameKind::EvalRequest, payload);
    }

    fn send_kind(&mut self, kind: FrameKind, payload: &[u8]) {
        let wire = encode_frame(kind, self.seq, payload, &self.key);
        self.seq += 1;
        self.io.write_all(&wire).unwrap();
        self.uploaded += payload.len() as u64;
    }

    /// The next response frame: its sequence number and its message.
    fn recv(&mut self) -> (u64, EvalResponse) {
        let wire = self.io.read_blob(30_000).unwrap().expect("a response");
        let frame = decode_frame(&wire, &self.key).unwrap();
        assert_eq!(frame.kind, FrameKind::EvalResponse);
        self.downloaded += frame.payload.len() as u64;
        (frame.seq, EvalResponse::from_wire(&frame.payload).unwrap())
    }
}

fn request(w: &RemoteWorkload<Bfv>, request_id: u64, with_body: bool) -> EvalRequest {
    EvalRequest {
        request_id,
        program_ref: w.prepared.program_ref,
        program: with_body.then(|| (w.prepared.wire.clone(), w.prepared.options)),
        deadline_ms: None,
        inputs: w
            .inputs
            .iter()
            .map(|(name, ct)| (name.clone(), Bfv::ct_to_wire(ct)))
            .collect(),
    }
}

#[test]
fn interleaved_immediate_and_scheduled_responses_leave_in_sequence_and_bill_exactly() {
    let (server, addr) = bind(ServeConfig::default(), 2);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let handles: Vec<_> = [1u64, 2u64]
        .into_iter()
        .map(|tenant| {
            let addr = addr.clone();
            let circuit = circuit.clone();
            let params = params.clone();
            std::thread::spawn(move || {
                let seed = format!("writer tenant {tenant}");
                let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, seed.as_bytes()).unwrap();
                let local = w.local_output_wires().unwrap();
                let mut client = RawClient::connect(&addr, tenant, &w);
                // Everything goes out before anything is read: evaluations
                // (answered by scheduler jobs) with payloads of unknown
                // magic and a reference to a program nobody uploaded (all
                // answered by the reader on the spot) in between.
                let unknown = EvalRequest {
                    program_ref: [0xAA; 32],
                    ..request(&w, 2, false)
                };
                let unknown_magic = b"CRZ9";
                client.send(&request(&w, 0, true).to_wire());
                client.send(unknown_magic);
                client.send(&request(&w, 1, false).to_wire());
                client.send(&unknown.to_wire());
                client.send(unknown_magic);
                client.send(&request(&w, 3, false).to_wire());
                let mut evaluated = Vec::new();
                let (mut errors, mut need_program) = (0, 0);
                for expect_seq in 1..=6 {
                    let (seq, resp) = client.recv();
                    assert_eq!(seq, expect_seq, "tenant {tenant}: response out of sequence");
                    match resp {
                        EvalResponse::Outputs {
                            request_id,
                            outputs,
                        } => {
                            assert_eq!(outputs, local, "tenant {tenant} request {request_id}");
                            evaluated.push(request_id);
                        }
                        EvalResponse::Error { message, .. } => {
                            assert!(message.contains("unrecognized"), "{message}");
                            errors += 1;
                        }
                        EvalResponse::NeedProgram { request_id } => {
                            assert_eq!(request_id, 2);
                            need_program += 1;
                        }
                        other => panic!("tenant {tenant}: unexpected {other:?}"),
                    }
                }
                evaluated.sort_unstable();
                assert_eq!(evaluated, vec![0, 1, 3]);
                assert_eq!((errors, need_program), (2, 1));
                (client.uploaded, client.downloaded)
            })
        })
        .collect();
    let ledgers: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread panicked"))
        .collect();
    let stats = server.shutdown();
    for (tenant, (uploaded, downloaded)) in (1u64..).zip(ledgers) {
        let book = stats.book.get(tenant).expect("tenant billed");
        assert_eq!(book.upload_bytes, uploaded, "tenant {tenant} upload");
        assert_eq!(book.download_bytes, downloaded, "tenant {tenant} download");
        assert_eq!((book.uploads, book.downloads), (7, 7), "tenant {tenant}");
    }
    // Per tenant: three evaluations, the `NeedProgram` and two errors.
    let counters = stats.eval.counters;
    assert_eq!(
        (counters.requests, counters.need_program, counters.errors),
        (6, 2, 4)
    );
}

#[test]
fn reused_session_id_bills_every_request_as_an_upload_within_and_across_a_restart() {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"reused id").unwrap();
    // Two server lives; in each, two clients in a row on the same
    // (tenant 1, session 0), sequence numbers and request ids starting
    // over every time.
    for life in 0..2 {
        let (server, addr) = bind(ServeConfig::default(), 1);
        let mut sum = choco::CommLedger::new();
        for _ in 0..2 {
            let mut client = connect::<Bfv>(&addr, 1, &w);
            for _ in 0..2 {
                client.evaluate(&w.prepared, &w.input_refs()).unwrap();
            }
            sum.merge(client.ledger());
        }
        let stats = server.shutdown();
        let book = stats.book.get(1).expect("tenant 1 billed");
        assert_eq!(
            (book.uploads, book.upload_bytes),
            (sum.uploads, sum.upload_bytes),
            "life {life}: uploads"
        );
        assert_eq!(
            (book.downloads, book.download_bytes),
            (sum.downloads, sum.download_bytes),
            "life {life}: downloads"
        );
        assert_eq!(book.retransmit_bytes, 0, "life {life}");
    }
}

#[test]
fn unsupported_frame_kind_is_billed_refused_with_a_typed_error_and_the_connection_serves_on() {
    let (server, addr) = bind(ServeConfig::default(), 1);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"wrong kind").unwrap();
    let local = w.local_output_wires().unwrap();
    let mut client = RawClient::connect(&addr, 1, &w);
    client.send_kind(FrameKind::Control, b"a session-layer control frame");
    match client.recv() {
        (1, EvalResponse::Error { message, .. }) => {
            assert!(message.contains("unsupported frame kind"), "{message}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    client.send(&request(&w, 0, true).to_wire());
    match client.recv() {
        (2, EvalResponse::Outputs { outputs, .. }) => assert_eq!(outputs, local),
        other => panic!("expected the evaluation's outputs, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.eval.counters.errors, 1);
    let book = stats.book.get(1).expect("tenant 1 billed");
    assert_eq!((book.uploads, book.upload_bytes), (3, client.uploaded));
    assert_eq!(
        (book.downloads, book.download_bytes),
        (3, client.downloaded)
    );
}

#[test]
fn response_the_writer_never_wrote_is_not_billed() {
    // The server dies between the first and the second response of one
    // batch: the second is refused at the socket, the third is still
    // queued behind it.
    let config = ServeConfig {
        eval_chaos: EvalChaos {
            kill: Some((EvalStage::PreReply, 2)),
            ..EvalChaos::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 1);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"unwritten").unwrap();
    let mut client = connect::<Bfv>(&addr, 1, &w);
    let inputs = w.input_refs();
    let batch = [inputs.as_slice(); 3];
    let lost = client.evaluate_batch(&w.prepared, &batch);
    assert!(lost.is_err(), "two of three results died with the server");
    assert!(server.was_hard_killed());

    let stats = server.shutdown();
    assert_eq!(stats.eval.counters.requests, 3, "all three were admitted");
    // The setup ack and the one result that reached the socket: exactly
    // what the client counted coming in.
    let book = stats.book.get(1).expect("tenant 1 billed");
    let ledger = client.ledger();
    assert_eq!((book.downloads, ledger.downloads), (2, 2));
    assert_eq!(book.download_bytes, ledger.download_bytes);
    assert_eq!(book.upload_bytes, ledger.upload_bytes);
}

#[test]
fn drain_mid_batch_writes_and_bills_every_result_before_it_returns() {
    let config = ServeConfig {
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
    // Once the drain has returned, the book has billed a response for
    // each of the four requests the server accepted, plus the setup ack:
    // exactly what the client received.
    let book = stats.book.get(1).expect("tenant 1 billed");
    let ledger = client.ledger();
    assert_eq!(stats.eval.counters.requests, 4);
    assert_eq!((book.downloads, ledger.downloads), (5, 5));
    assert_eq!(book.download_bytes, ledger.download_bytes);
    assert_eq!(book.upload_bytes, ledger.upload_bytes);
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

/// Tenant 1 uploads ciphertexts over moduli of another parameter set (same
/// ring degree and residue count, other primes) — compact uploads, or
/// `full` evaluator outputs, whose frames carry their moduli too — while
/// tenant 2's pipelined pair waits in the same stalled round. The foreign
/// inputs decode — their frames are well formed — and are refused as the
/// tenant's own fault: a typed error, no bisection, no quarantine. Tenant
/// 2's outputs are its local reference, byte for byte.
fn assert_foreign_moduli_refused_without_harming_the_neighbour<
    S: choco::compiler::CompilerScheme,
>(
    scheme: SchemeType,
    foreign: choco_he::HeParams,
    full: bool,
) {
    let config = ServeConfig {
        eval_chaos: EvalChaos {
            stall: Some((1, 250)),
            ..EvalChaos::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) = bind(config, 2);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(scheme).unwrap();
    assert_eq!(foreign.degree(), params.degree());
    assert_eq!(foreign.data_prime_count(), params.data_prime_count());
    assert_ne!(foreign.primes(), params.primes());
    let barrier = Arc::new(Barrier::new(2));

    let intruder = {
        let (addr, circuit, params) = (addr.clone(), circuit.clone(), params.clone());
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let w = RemoteWorkload::<S>::prepare(&circuit, &params, b"foreign tenant").unwrap();
            let ctx = S::context(&foreign).unwrap();
            let mut rng = choco_prng::Blake3Rng::from_seed(b"foreign moduli");
            let keys = S::keygen(&ctx, &mut rng);
            let zeros = vec![S::Value::default(); S::slot_width(&ctx)];
            let cts: Vec<(String, S::Ciphertext)> = w
                .input_refs()
                .iter()
                .map(|(name, _)| {
                    let mut ct = S::encrypt(&ctx, &keys, &zeros, &mut rng).unwrap();
                    if full {
                        ct = S::add(&ctx, &ct, &ct).unwrap();
                    }
                    (name.to_string(), ct)
                })
                .collect();
            let named: Vec<(&str, &S::Ciphertext)> =
                cts.iter().map(|(n, ct)| (n.as_str(), ct)).collect();
            let mut client = connect::<S>(&addr, 1, &w);
            barrier.wait();
            client
                .evaluate(&w.prepared, &named)
                .map(|outs| wires::<S>(&outs))
        })
    };
    let w = RemoteWorkload::<S>::prepare(circuit, &params, b"neighbour tenant").unwrap();
    let local = w.local_output_wires().unwrap();
    let mut client = connect::<S>(&addr, 2, &w);
    let inputs = w.input_refs();
    barrier.wait();
    let results = client
        .evaluate_batch(&w.prepared, &[inputs.as_slice(), inputs.as_slice()])
        .unwrap();
    for outs in &results {
        assert_eq!(wires::<S>(outs), local, "neighbour's output moved");
    }
    match intruder.join().expect("intruder thread panicked") {
        Err(choco::transport::TransportError::Rejected(m)) => {
            assert!(m.contains("rejected") && m.contains("moduli"), "{m}")
        }
        Err(e) => panic!("expected a typed refusal, got {e}"),
        Ok(outs) => panic!("foreign inputs were evaluated into {} outputs", outs.len()),
    }

    let stats = server.shutdown();
    let iso = stats.eval.isolation;
    assert_eq!(iso.quarantined, 0, "{iso:?}");
    assert_eq!(iso.bisections, 0, "{iso:?}");
    assert_eq!(stats.eval.sched.batches, 1, "{:?}", stats.eval.sched);
}

#[test]
fn compact_input_with_foreign_moduli_is_the_tenants_fault_only() {
    assert_foreign_moduli_refused_without_harming_the_neighbour::<Bfv>(
        SchemeType::Bfv,
        choco_he::HeParams::bfv_insecure(1024, &[50, 40, 46], 17).unwrap(),
        false,
    );
    assert_foreign_moduli_refused_without_harming_the_neighbour::<Ckks>(
        SchemeType::Ckks,
        choco_he::HeParams::ckks_insecure(1024, &[50, 40, 45, 46], 30).unwrap(),
        false,
    );
}

#[test]
fn full_frame_input_with_foreign_moduli_is_the_tenants_fault_only() {
    assert_foreign_moduli_refused_without_harming_the_neighbour::<Bfv>(
        SchemeType::Bfv,
        choco_he::HeParams::bfv_insecure(1024, &[50, 40, 46], 17).unwrap(),
        true,
    );
    assert_foreign_moduli_refused_without_harming_the_neighbour::<Ckks>(
        SchemeType::Ckks,
        choco_he::HeParams::ckks_insecure(1024, &[50, 40, 45, 46], 30).unwrap(),
        true,
    );
}

/// Tenant 1 sets up a session under set-B parameters with set A's
/// evaluation keys. Every key blob carries the moduli it lives over, so the
/// setup is refused at the door — a typed refusal naming the moduli, never
/// a quarantine — and tenant 2, served alongside, gets its local reference
/// byte for byte.
#[test]
fn keys_of_another_parameter_set_are_refused_at_session_setup() {
    let (server, addr) = bind(ServeConfig::default(), 2);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let set_a = choco_he::HeParams::set_a();
    let keys_of_a = RemoteWorkload::<Bfv>::prepare(circuit, &set_a, b"set-A keys").unwrap();
    let refused = RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(1).as_bytes(),
        1,
        0,
        &choco_he::HeParams::set_b(),
        &keys_of_a.relin,
        &keys_of_a.galois,
        &TcpOptions::default(),
    );
    match refused {
        Err(choco::transport::TransportError::Rejected(m)) => {
            assert!(m.contains("setup refused") && m.contains("moduli"), "{m}")
        }
        Err(e) => panic!("expected a typed setup refusal, got {e}"),
        Ok(_) => panic!("set-A keys were accepted under set-B parameters"),
    }

    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"neighbour tenant").unwrap();
    let mut neighbour = connect::<Bfv>(&addr, 2, &w);
    let outs = neighbour.evaluate(&w.prepared, &w.input_refs()).unwrap();
    assert_eq!(
        wires::<Bfv>(&outs),
        w.local_output_wires().unwrap(),
        "neighbour's output moved"
    );
    let stats = server.shutdown();
    let iso = stats.eval.isolation;
    assert_eq!(iso.quarantined, 0, "{iso:?}");
    assert_eq!(iso.bisections, 0, "{iso:?}");
    assert_eq!(
        stats.eval.counters.setups, 1,
        "only the neighbour's setup is accepted"
    );
}

/// Tenant 1 re-submits its own download as the next request's input. A
/// BFV output leaves the server a compressed reply and a CKKS one where
/// the rescales left it, so the input is refused at the door: a typed
/// error naming `why`, the tenant's own fault, no bisection and no
/// quarantine of the shared program. Tenant 2's next request on that
/// program is its local reference, byte for byte.
fn assert_resubmitted_download_is_refused_at_the_door<S: choco::compiler::CompilerScheme>(
    params: &HeParams,
    why: &str,
) {
    let (server, addr) = bind(ServeConfig::default(), 2);
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let w = RemoteWorkload::<S>::prepare(circuit, params, b"resubmitting tenant").unwrap();
    let mut client = connect::<S>(&addr, 1, &w);
    let outs = client.evaluate(&w.prepared, &w.input_refs()).unwrap();
    assert_eq!(wires::<S>(&outs), w.local_output_wires().unwrap());
    let resubmitted: Vec<(&str, &S::Ciphertext)> = w
        .input_refs()
        .into_iter()
        .map(|(name, _)| (name, &outs[0]))
        .collect();
    match client.evaluate(&w.prepared, &resubmitted) {
        Err(choco::transport::TransportError::Rejected(m)) => {
            assert!(m.contains("rejected") && m.contains("top level"), "{m}");
            assert!(m.contains(why), "{m}");
        }
        Err(e) => panic!("expected a typed refusal, got {e}"),
        Ok(outs) => panic!("a download was evaluated into {} outputs", outs.len()),
    }

    let w = RemoteWorkload::<S>::prepare(circuit, params, b"neighbour tenant").unwrap();
    let mut neighbour = connect::<S>(&addr, 2, &w);
    let outs = neighbour.evaluate(&w.prepared, &w.input_refs()).unwrap();
    assert_eq!(
        wires::<S>(&outs),
        w.local_output_wires().unwrap(),
        "neighbour's output moved"
    );
    let stats = server.shutdown();
    let iso = stats.eval.isolation;
    assert_eq!(iso.quarantined, 0, "{iso:?}");
    assert_eq!(iso.bisections, 0, "{iso:?}");
}

#[test]
fn resubmitted_download_is_refused_at_the_door_not_quarantined() {
    let bfv = workload_params(SchemeType::Bfv).unwrap();
    assert_resubmitted_download_is_refused_at_the_door::<Bfv>(&bfv, "compressed");
    // An 18-bit `t` licenses no lower level: the reply is lifted over the
    // full data basis, the top level's own moduli, so only its compressed
    // marker tells it from an input.
    let top = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let ctx = choco_he::bfv::BfvContext::new(&top).unwrap();
    assert_eq!(ctx.download_level(), top.data_prime_count());
    assert_resubmitted_download_is_refused_at_the_door::<Bfv>(&top, "compressed");
    let ckks = workload_params(SchemeType::Ckks).unwrap();
    assert_resubmitted_download_is_refused_at_the_door::<Ckks>(&ckks, "level");
}
