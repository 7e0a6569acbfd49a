//! End-to-end serving tests over real loopback TCP.
//!
//! * concurrency: ≥ 8 simultaneous client sessions complete real HE
//!   workloads with zero failures, and the per-tenant book's fresh frame
//!   counts reconcile exactly against each client's ledger;
//! * admission: the session over the limit gets a *typed*
//!   `Overloaded { active, limit }`, and capacity freed by a disconnect is
//!   reusable;
//! * drain/restart: a server drain mid-workload kills the client's link;
//!   the client redials a restarted server (same checkpoint directory) and
//!   resumes to a bit-identical result, billing only recovery bytes extra;
//! * chaos proxy: a mid-frame connection cut is absorbed by redial +
//!   resume, and a uniformly delayed link merely slows the run down.

use choco::transport::tcp::TcpOptions;
use choco::transport::TagKey;
use choco::transport::{dial, Redialer, RetryPolicy, Session, TcpChannel, TransportError};
use choco_apps::pagerank::{pagerank_rotation_steps, Graph, ResumablePagerank};
use choco_apps::resumable::{drive_over_tcp, is_reconnectable, ResumableWorkload};
use choco_he::params::HeParams;
use choco_he::Bfv;
use choco_serve::{ChaosPlan, ChaosProxy, OffloadServer, ServeConfig, TenantRegistry};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn graph() -> Graph {
    Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]])
}

fn params() -> HeParams {
    HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap()
}

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

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("choco-serve-e2e-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one full PageRank workload for `tenant` against `addr`; returns the
/// client's final primary ledger lines and result wire.
fn run_pagerank(
    addr: &str,
    tenant: u64,
    session_id: u64,
    max_reconnects: u32,
) -> Result<(choco::CommLedger, Vec<u8>), TransportError> {
    let g = graph();
    let params = params();
    let steps = pagerank_rotation_steps(g.len());
    let seed = tenant_seed(tenant);
    let redialer = Redialer::new(addr, seed.as_bytes(), tenant, session_id);
    let (up, down) = redialer.dial_fresh()?;
    let session = Session::<Bfv, TcpChannel>::over(
        &params,
        seed.as_bytes(),
        &steps,
        up,
        down,
        RetryPolicy::default(),
    )?;
    let w = ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, 10)?;
    let (session, w) = drive_over_tcp(&redialer, session, w, max_reconnects)?;
    Ok((*session.ledger(), w.final_ct_wire()))
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
            std::thread::spawn(move || run_pagerank(&addr, tenant, 0, 0))
        })
        .collect();
    let mut ledgers = Vec::new();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.join().expect("client thread panicked");
        let (ledger, wire) = outcome.unwrap_or_else(|e| panic!("client {} failed: {e}", i + 1));
        assert!(!wire.is_empty());
        ledgers.push(ledger);
    }

    // All 8 clients ran the same deterministic workload: identical primary
    // ledgers, no retransmissions, no recovery.
    for ledger in &ledgers {
        assert_eq!(ledger.retransmit_bytes, 0);
        assert_eq!(ledger.recovery_bytes, 0);
        assert_eq!(ledger.uploads, ledgers[0].uploads);
        assert_eq!(ledger.downloads, ledgers[0].downloads);
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.rejected_overload, 0);
    assert_eq!(stats.book.tenants(), 8);
    // Per-tenant reconciliation: every physical frame the server verified
    // fresh is one client transfer (the relay cannot tell uploads from
    // downloads apart — it sees their sum), and nothing was retransmitted
    // or rejected.
    for (tenant, ledger) in ledgers.iter().enumerate() {
        let tenant = tenant as u64 + 1;
        let server_side = stats.book.get(tenant).copied().unwrap();
        assert_eq!(
            server_side.uploads,
            ledger.uploads + ledger.downloads,
            "tenant {tenant}: server fresh frames vs client transfers"
        );
        assert_eq!(server_side.retransmit_bytes, 0, "tenant {tenant}");
    }
    assert!(stats
        .sessions
        .iter()
        .all(|r| r.bad_frames == 0 && r.dup_frames == 0));
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
fn drain_restart_and_resume_is_bit_identical() {
    let dir = scratch_dir("drain-restart");
    let g = graph();
    let params = params();
    let steps = pagerank_rotation_steps(g.len());
    let seed = tenant_seed(1);
    let config = || ServeConfig {
        max_sessions: 4,
        worker_poll_ms: 10,
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Uninterrupted baseline against its own session id.
    let server = OffloadServer::bind("127.0.0.1:0", config(), registry(1)).unwrap();
    let (base_ledger, base_wire) = run_pagerank(&server.addr().to_string(), 1, 0, 0).unwrap();

    // Interrupted run: two steps against the first server...
    let redial_policy = RetryPolicy {
        max_attempts: 3,
        base_backoff_ms: 5,
        max_backoff_ms: 50,
        round_timeout_ms: 10_000,
    };
    // A short recv deadline keeps the failing step quick: once the server
    // drains, every retry sees a dry pipe until the budget is spent.
    let fast_opts = TcpOptions {
        recv_deadline_ms: 100,
        ..TcpOptions::default()
    };
    let mut redialer = Redialer::new(server.addr().to_string(), seed.as_bytes(), 1, 1);
    redialer.opts = fast_opts;
    let (up, down) = redialer.dial_fresh().unwrap();
    let mut session =
        Session::<Bfv, TcpChannel>::over(&params, seed.as_bytes(), &steps, up, down, redial_policy)
            .unwrap();
    let mut w = ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, 10).unwrap();
    w.step(&mut session).unwrap();
    assert!(!w.is_done(), "workload too small to interrupt");
    let ckpt = session.checkpoint(&w.progress());

    // ... then the server drains and shuts down underneath the client.
    let stats1 = server.shutdown();
    assert_eq!(stats1.accepted, 2);
    let rec1 = stats1
        .sessions
        .iter()
        .find(|r| r.session == 1)
        .copied()
        .expect("drained server persisted the live session record");
    assert!(rec1.frames > 0);

    let err = loop {
        match w.step(&mut session) {
            Ok(()) => continue,
            Err(e) => break e,
        }
    };
    assert!(is_reconnectable(&err), "expected a link error, got {err}");
    drop(session);

    // A restarted server over the same checkpoint directory picks the
    // session record back up; the client redials and resumes.
    let server2 = OffloadServer::bind("127.0.0.1:0", config(), registry(1)).unwrap();
    let mut redialer2 = Redialer::new(server2.addr().to_string(), seed.as_bytes(), 1, 1);
    redialer2.opts = fast_opts;
    let (up, down) = redialer2.redial().unwrap();
    let (mut session, progress) = Session::<Bfv, TcpChannel>::resume(&ckpt, up, down).unwrap();
    let mut w = ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, 10)
        .unwrap()
        .restore(&progress)
        .unwrap();
    while !w.is_done() {
        w.step(&mut session).unwrap();
    }

    assert_eq!(w.final_ct_wire(), &base_wire[..], "result diverged");
    let ledger = session.ledger();
    assert_eq!(ledger.upload_bytes, base_ledger.upload_bytes);
    assert_eq!(ledger.download_bytes, base_ledger.download_bytes);
    assert_eq!(ledger.uploads, base_ledger.uploads);
    assert_eq!(ledger.downloads, base_ledger.downloads);
    assert_eq!(ledger.rounds, base_ledger.rounds);
    assert!(ledger.recovery_bytes > 0, "resume billed no recovery bytes");
    assert_eq!(base_ledger.recovery_bytes, 0);

    let stats2 = server2.shutdown();
    assert!(stats2.resumed >= 1, "resume hello not counted");
    let rec2 = stats2
        .sessions
        .iter()
        .find(|r| r.session == 1)
        .copied()
        .expect("restarted server kept the session record");
    assert!(
        rec2.seen_below > rec1.seen_below,
        "dedup cursor did not advance across the restart"
    );
    assert_eq!(rec2.bad_frames, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_connection_cut_is_absorbed_by_redial_and_resume() {
    let server = OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry(1)).unwrap();
    // Baseline without the proxy.
    let (base_ledger, base_wire) = run_pagerank(&server.addr().to_string(), 1, 0, 0).unwrap();

    // Cut the first connection mid-frame: the threshold lands inside a
    // ciphertext frame (tens of KB each), well past the 55-byte hello.
    let plan = ChaosPlan {
        kill_after_bytes: Some(40_000),
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), plan).unwrap();
    let (ledger, wire) = run_pagerank(&proxy.addr().to_string(), 1, 1, 3).unwrap();
    assert!(proxy.killed(), "the planned mid-frame cut never fired");

    assert_eq!(wire, base_wire, "result diverged after the mid-frame cut");
    assert_eq!(ledger.upload_bytes, base_ledger.upload_bytes);
    assert_eq!(ledger.download_bytes, base_ledger.download_bytes);
    assert_eq!(ledger.uploads, base_ledger.uploads);
    assert_eq!(ledger.downloads, base_ledger.downloads);
    assert!(ledger.recovery_bytes > 0);

    let stats = server.shutdown();
    // The truncated frame died inside the proxy, so the server never saw a
    // bad tag; the resumed connection replayed in-flight frames, which the
    // dedup cursor may bill as retransmissions — never as fresh uploads.
    assert!(stats.sessions.iter().all(|r| r.bad_frames == 0));
    assert!(stats.resumed >= 1);
}

#[test]
fn uniformly_delayed_link_completes_without_recovery() {
    let server = OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry(1)).unwrap();
    let plan = ChaosPlan {
        delay_ms: 2,
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), plan).unwrap();
    let (ledger, wire) = run_pagerank(&proxy.addr().to_string(), 1, 0, 0).unwrap();
    assert!(!wire.is_empty());
    assert_eq!(ledger.recovery_bytes, 0);
    assert_eq!(ledger.retransmit_bytes, 0);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert!(stats.sessions.iter().all(|r| r.dup_frames == 0));
}
