//! End-to-end serving tests over real loopback TCP, driven through the
//! evaluator protocol (`RemoteWorkload` + `connect_reliable`).
//!
//! * concurrency: 8 simultaneous client sessions evaluate with zero
//!   failures, every result bit-identical to the local reference, and each
//!   tenant's book entry equals that client's own ledger — in bytes, both
//!   directions;
//! * admission: the session over the limit gets a *typed*
//!   `Overloaded { active, limit }`, and capacity freed by a disconnect is
//!   reusable;
//! * chaos proxy: a mid-frame connection cut — inside a request, and inside
//!   a response — is absorbed by redial + resend with the uncut run's
//!   outputs and primary ledger lines, and a uniformly delayed link merely
//!   slows the run down.

use choco::protocol::CommLedger;
use choco::remote::{EvalResponse, SessionSetup};
use choco::transport::frame::{encode_frame, FrameKind};
use choco::transport::tcp::{TcpOptions, ACK_BYTES, HELLO_BYTES};
use choco::transport::{dial, RetryPolicy, TagKey, TransportError};
use choco_apps::circuits::all_workloads;
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, HeScheme};
use choco_serve::{ChaosPlan, ChaosProxy, OffloadServer, ServeConfig, ServeStats, TenantRegistry};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const COPIES: usize = 3;

fn tenant_seed(tenant: u64) -> String {
    format!("e2e tenant {tenant}")
}

fn registry(tenants: u64) -> TenantRegistry {
    let mut reg = TenantRegistry::new();
    for t in 1..=tenants {
        reg.register(t, tenant_seed(t).as_bytes());
    }
    reg
}

/// The PageRank circuit under BFV with `tenant`'s own keys and inputs.
fn workload(tenant: u64) -> RemoteWorkload<Bfv> {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let seed = format!("e2e keys {tenant}");
    RemoteWorkload::<Bfv>::prepare(circuit, &params, seed.as_bytes()).unwrap()
}

/// One client session against `addr`: a pipelined batch of [`COPIES`]
/// evaluations, each compared with the local reference. Returns the
/// client's ledger.
fn run_session(
    w: &RemoteWorkload<Bfv>,
    addr: &str,
    tenant: u64,
    session: u64,
) -> Result<CommLedger, TransportError> {
    let local = w.local_output_wires().map_err(TransportError::He)?;
    let mut client = w.connect_reliable(
        Arc::new(Mutex::new(addr.to_string())),
        tenant_seed(tenant).as_bytes(),
        tenant,
        session,
        &TcpOptions::default(),
        RetryPolicy::default(),
    )?;
    for copy in w.drive_to_completion(&mut client, COPIES)? {
        assert_eq!(copy, local, "tenant {tenant}: remote != local");
    }
    Ok(*client.ledger())
}

fn assert_book_equals_ledger(stats: &ServeStats, tenant: u64, ledger: &CommLedger) {
    let book = stats.book.get(tenant).copied().unwrap_or_default();
    assert_eq!(
        (book.uploads, book.upload_bytes),
        (ledger.uploads, ledger.upload_bytes),
        "tenant {tenant}: uploads"
    );
    assert_eq!(
        (book.downloads, book.download_bytes),
        (ledger.downloads, ledger.download_bytes),
        "tenant {tenant}: downloads"
    );
    assert_eq!(book.retransmit_bytes, 0, "tenant {tenant}");
}

fn assert_primary_lines_match(base: &CommLedger, got: &CommLedger) {
    assert_eq!(got.upload_bytes, base.upload_bytes, "upload_bytes");
    assert_eq!(got.download_bytes, base.download_bytes, "download_bytes");
    assert_eq!(got.uploads, base.uploads, "uploads");
    assert_eq!(got.downloads, base.downloads, "downloads");
}

#[test]
fn eight_concurrent_sessions_complete_with_zero_failures() {
    let config = ServeConfig {
        max_sessions: 16,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry(8)).unwrap();
    let addr = server.addr().to_string();

    let handles: Vec<_> = (1..=8u64)
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || run_session(&workload(tenant), &addr, tenant, 0))
        })
        .collect();
    let ledgers: Vec<CommLedger> = handles
        .into_iter()
        .zip(1u64..)
        .map(|(handle, tenant)| {
            let outcome = handle.join().expect("client thread panicked");
            outcome.unwrap_or_else(|e| panic!("client {tenant} failed: {e}"))
        })
        .collect();

    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.rejected_overload), (8, 0));
    assert_eq!((stats.book.tenants(), stats.bad_frames), (8, 0));
    assert_eq!(stats.eval.counters.errors, 0);
    for (tenant, ledger) in (1u64..).zip(&ledgers) {
        // Same circuit, same shapes: identical traffic, nothing recovered.
        assert_primary_lines_match(&ledgers[0], ledger);
        assert_eq!((ledger.retransmit_bytes, ledger.recovery_bytes), (0, 0));
        assert_book_equals_ledger(&stats, tenant, ledger);
    }
}

#[test]
fn session_over_the_limit_gets_typed_overloaded_and_capacity_recovers() {
    let config = ServeConfig {
        max_sessions: 8,
        worker_poll_ms: 10,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry(1)).unwrap();
    let addr = server.addr().to_string();
    let key = TagKey::from_session_seed(tenant_seed(1).as_bytes());
    let opts = TcpOptions::default();

    // Fill all 8 admission slots and let the server count them.
    let mut held = Vec::new();
    for session_id in 0..8 {
        held.push(dial(&addr, &key, 1, session_id, false, &opts).unwrap());
    }
    let start = Instant::now();
    while server.active_sessions() < 8 {
        assert!(start.elapsed() < Duration::from_secs(5), "admission lagged");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The 9th concurrent session is refused with the typed error.
    match dial(&addr, &key, 1, 8, false, &opts) {
        Err(TransportError::Overloaded { active, limit }) => {
            assert_eq!(active, 8);
            assert_eq!(limit, 8);
        }
        Err(other) => panic!("expected Overloaded, got {other}"),
        Ok(_) => panic!("expected Overloaded, got an admitted session"),
    }

    // Freeing one slot makes the next hello admissible again.
    drop(held.pop());
    let start = Instant::now();
    loop {
        match dial(&addr, &key, 1, 9, false, &opts) {
            Ok(_) => break,
            Err(TransportError::Overloaded { .. }) if start.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("redial after capacity freed: {e}"),
        }
    }
    let stats = server.shutdown();
    assert!(stats.rejected_overload >= 1);
    assert_eq!(stats.accepted, 9);
}

#[test]
fn mid_frame_connection_cut_is_absorbed_by_redial_and_resend() {
    let w = workload(1);
    let key = TagKey::from_session_seed(tenant_seed(1).as_bytes());
    // Where the first evaluate request and the first result start on the
    // two byte streams: behind the hello and the session-setup frame going
    // up, behind the ack and the setup acknowledgement coming down.
    let setup = SessionSetup {
        params: w.params.clone(),
        relin_wire: Bfv::relin_to_wire(&w.relin),
        galois_wire: Bfv::galois_to_wire(&w.galois),
    };
    let setup_frame = encode_frame(FrameKind::EvalRequest, 0, &setup.to_wire(), &key);
    let setup_ok = encode_frame(
        FrameKind::EvalResponse,
        0,
        &EvalResponse::SetupOk.to_wire(),
        &key,
    );
    let inside_a_request = ChaosPlan {
        kill_after_bytes: Some((HELLO_BYTES + setup_frame.len() + 1_000) as u64),
        ..ChaosPlan::default()
    };
    let inside_a_response = ChaosPlan {
        kill_after_reply_bytes: Some((ACK_BYTES + setup_ok.len() + 1_000) as u64),
        ..ChaosPlan::default()
    };

    let server = OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry(1)).unwrap();
    // Baseline without the proxy.
    let base = run_session(&w, &server.addr().to_string(), 1, 0).unwrap();
    assert_eq!((base.retransmit_bytes, base.recovery_bytes), (0, 0));

    for (session, plan) in (1u64..).zip([inside_a_request, inside_a_response]) {
        let proxy = ChaosProxy::spawn(server.addr(), plan).unwrap();
        let ledger = run_session(&w, &proxy.addr().to_string(), 1, session).unwrap();
        assert!(proxy.killed(), "{plan:?}: the planned cut never fired");
        assert_primary_lines_match(&base, &ledger);
        assert!(ledger.recovery_bytes > 0, "{plan:?}: nothing recovered");
    }

    let stats = server.shutdown();
    // The truncated frames died inside the proxy: the server saw a
    // connection end, never a bad tag, and two redials.
    assert_eq!((stats.bad_frames, stats.resumed), (0, 2));
    assert_eq!(stats.eval.counters.errors, 0);
}

#[test]
fn uniformly_delayed_link_completes_without_recovery() {
    let server = OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry(1)).unwrap();
    let plan = ChaosPlan {
        delay_ms: 2,
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), plan).unwrap();
    let ledger = run_session(&workload(1), &proxy.addr().to_string(), 1, 0).unwrap();
    assert_eq!((ledger.retransmit_bytes, ledger.recovery_bytes), (0, 0));
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_book_equals_ledger(&stats, 1, &ledger);
}
