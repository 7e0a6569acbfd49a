//! Socket-level chaos sweep: real TCP, real connection kills, real server
//! restarts.
//!
//! The in-memory sweep (`chaos_sweep.rs`) proves the kill → resume →
//! bit-identical invariant over simulated channels. This suite re-proves
//! it over genuine loopback TCP against a live `choco-serve` process
//! object: the baseline run and every crashed run exchange every frame
//! through a real socket, the crash is materialized as a real socket
//! teardown (dropping the session closes the connection under the
//! server's feet), and every *other* crash point additionally restarts
//! the server — graceful drain, session records persisted, a brand-new
//! listener on a brand-new port — before the client redials and resumes.
//!
//! Acceptance bar, per crash point (identical to the in-memory sweep):
//!
//! * final result ciphertext **bit-identical** to the uninterrupted run;
//! * every primary ledger line matches exactly (upload/download bytes and
//!   counts, rounds, refresh rounds);
//! * the uninterrupted run bills zero recovery bytes, every crashed run
//!   bills more than zero;
//! * server-side: no frame ever fails tag verification.

use choco::protocol::CommLedger;
use choco::remote::{RemoteEvaluator, SessionSetup};
use choco::transport::frame::{encode_frame, FrameKind};
use choco::transport::tcp::{TcpOptions, HELLO_BYTES};
use choco::transport::{CrashOp, CrashPlan, Redialer, Session, TagKey, TcpChannel, TransportError};
use choco_apps::circuits::all_workloads;
use choco_apps::distance::{distance_rotation_steps, PackingVariant, ResumableKmeans};
use choco_apps::dnn::ResumableConvLayer;
use choco_apps::pagerank::{pagerank_rotation_steps, Graph, ResumablePagerank};
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_apps::resumable::ResumableWorkload;
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, Ckks, HeScheme};
use choco_serve::{ChaosPlan, ChaosProxy, OffloadServer, ServeConfig, TenantRegistry};
use std::path::{Path, PathBuf};

const OPS: [CrashOp; 4] = [
    CrashOp::Upload,
    CrashOp::Download,
    CrashOp::Refresh,
    CrashOp::Compute,
];

const TENANT: u64 = 1;

fn assert_primary_lines_match(label: &str, base: &CommLedger, got: &CommLedger) {
    assert_eq!(got.upload_bytes, base.upload_bytes, "{label}: upload_bytes");
    assert_eq!(
        got.download_bytes, base.download_bytes,
        "{label}: download_bytes"
    );
    assert_eq!(got.uploads, base.uploads, "{label}: uploads");
    assert_eq!(got.downloads, base.downloads, "{label}: downloads");
    assert_eq!(got.rounds, base.rounds, "{label}: rounds");
    assert_eq!(
        got.refresh_rounds, base.refresh_rounds,
        "{label}: refresh_rounds"
    );
}

fn scratch_dir(label: &str) -> PathBuf {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = std::env::temp_dir().join(format!("choco-chaos-tcp-{slug}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bind_server(seed: &[u8], dir: &Path) -> OffloadServer {
    let mut registry = TenantRegistry::new();
    registry.register(TENANT, seed);
    let config = ServeConfig {
        max_sessions: 4,
        worker_poll_ms: 10,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    OffloadServer::bind("127.0.0.1:0", config, registry).expect("bind chaos server")
}

fn running(server: &Option<OffloadServer>) -> &OffloadServer {
    server
        .as_ref()
        .unwrap_or_else(|| unreachable!("server running"))
}

fn dial(
    server: &OffloadServer,
    seed: &[u8],
    session_id: u64,
    resume: bool,
) -> (TcpChannel, TcpChannel) {
    let redialer = Redialer::new(server.addr().to_string(), seed, TENANT, session_id);
    let dialed = if resume {
        redialer.redial()
    } else {
        redialer.dial_fresh()
    };
    dialed.unwrap_or_else(|e| panic!("dial {}: {e}", server.addr()))
}

/// Runs one workload through the kill → redial → resume sweep over real
/// TCP. Crash points alternate between "socket teardown only" and "socket
/// teardown plus full server restart".
fn sweep_tcp<W: ResumableWorkload>(
    label: &str,
    seed: &'static [u8],
    make_session: impl Fn(TcpChannel, TcpChannel) -> Session<W::Scheme, TcpChannel>,
    make_workload: impl Fn() -> W,
) {
    let dir = scratch_dir(label);
    let mut server = Some(bind_server(seed, &dir));

    // Uninterrupted baseline, itself over real TCP.
    let (up, down) = dial(running(&server), seed, 0, false);
    let mut session = make_session(up, down);
    let mut w = make_workload();
    w.run(&mut session)
        .unwrap_or_else(|e| panic!("{label}: baseline step: {e}"));
    let base_wire = w.final_ct_wire();
    assert!(
        !base_wire.is_empty(),
        "{label}: baseline produced no result"
    );
    let base_ledger = *session.ledger();
    assert_eq!(
        base_ledger.recovery_bytes, 0,
        "{label}: uninterrupted run billed recovery bytes"
    );
    let counts: Vec<(CrashOp, u32)> = OPS
        .iter()
        .map(|&op| (op, session.op_count(op)))
        .filter(|&(_, c)| c > 0)
        .collect();
    assert!(!counts.is_empty(), "{label}: baseline performed no ops");
    drop(session);

    let mut crash_idx = 0u32;
    let mut restarts = 0u32;
    let mut session_id = 0u64;
    let mut accepted_total = 0u64;
    for &(op, count) in &counts {
        let mut nths = vec![1];
        if count > 1 {
            nths.push(count);
        }
        for nth in nths {
            crash_idx += 1;
            session_id += 1;
            let point = format!("{label} {op:?} #{nth}/{count}");
            let (up, down) = dial(running(&server), seed, session_id, false);
            let mut session = make_session(up, down);
            session.arm_crash(CrashPlan { op, nth });
            let mut w = make_workload();
            let mut ckpt = session.checkpoint(&w.progress());
            let mut crashes = 0u32;
            loop {
                match w.step(&mut session) {
                    Ok(()) => {
                        if w.is_done() {
                            break;
                        }
                        ckpt = session.checkpoint(&w.progress());
                    }
                    Err(TransportError::Crashed { .. }) => {
                        crashes += 1;
                        assert_eq!(crashes, 1, "{point}: crash fired more than once");
                        // Materialize the crash as a real teardown: dropping
                        // the session closes the TCP connection under the
                        // server's feet.
                        drop(session);
                        if crash_idx.is_multiple_of(2) {
                            // And on alternate points, restart the whole
                            // server: drain (persists session records), then
                            // a fresh listener on a fresh port.
                            let stats = server
                                .take()
                                .unwrap_or_else(|| unreachable!("server running"))
                                .shutdown();
                            assert!(
                                stats.sessions.iter().all(|r| r.bad_frames == 0),
                                "{point}: server saw bad frames before restart"
                            );
                            accepted_total += stats.accepted;
                            server = Some(bind_server(seed, &dir));
                            restarts += 1;
                        }
                        let (up, down) = dial(running(&server), seed, session_id, true);
                        let (resumed, progress) = Session::resume(&ckpt, up, down)
                            .unwrap_or_else(|e| panic!("{point}: resume: {e}"));
                        session = resumed;
                        w = make_workload()
                            .restore(&progress)
                            .unwrap_or_else(|e| panic!("{point}: restore: {e}"));
                        w.recover(&mut session)
                            .unwrap_or_else(|e| panic!("{point}: recover: {e}"));
                    }
                    Err(e) => panic!("{point}: unexpected error: {e}"),
                }
            }
            assert_eq!(crashes, 1, "{point}: armed crash never fired");
            assert_eq!(
                w.final_ct_wire(),
                base_wire,
                "{point}: final ciphertext differs from the uninterrupted run"
            );
            assert_primary_lines_match(&point, &base_ledger, session.ledger());
            assert!(
                session.ledger().recovery_bytes > 0,
                "{point}: crashed run billed no recovery bytes"
            );
            drop(session);
        }
    }
    assert!(crash_idx > 0, "{label}: no crash point exercised");
    assert!(restarts > 0, "{label}: no crash point restarted the server");

    let stats = server
        .take()
        .unwrap_or_else(|| unreachable!("server running"))
        .shutdown();
    assert!(
        stats.sessions.iter().all(|r| r.bad_frames == 0),
        "{label}: server saw frames that failed tag verification"
    );
    accepted_total += stats.accepted;
    // Baseline + one connection per crash point + one redial per crash.
    assert!(
        accepted_total > 2 * u64::from(crash_idx),
        "{label}: accepted {accepted_total} connections, expected at least {}",
        1 + 2 * u64::from(crash_idx)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flipped in-flight inside an eval request frame must surface as a
/// typed error, never a panic and never a wrong result: the keyed-BLAKE3
/// tag rejects the frame server-side (billed to the session's
/// `bad_frames`, connection left up), the client's receive deadline turns
/// the missing answer into a typed `TimeoutExceeded`, and a clean
/// follow-up connection still computes the bit-exact local reference.
#[test]
fn corrupted_eval_frame_is_typed_never_wrong() {
    let seed: &[u8] = b"chaos-tcp-corrupt";
    let dir = scratch_dir("tcp/corrupt/eval");
    let server = bind_server(seed, &dir);

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

    let stats = server.shutdown();
    let mangled = stats
        .sessions
        .iter()
        .find(|r| r.tenant == TENANT && r.session == 1)
        .expect("proxied session record");
    assert!(
        mangled.bad_frames >= 1,
        "server never rejected the mangled frame: {mangled:?}"
    );
    let clean = stats
        .sessions
        .iter()
        .find(|r| r.tenant == TENANT && r.session == 2)
        .expect("clean session record");
    assert_eq!(clean.bad_frames, 0, "clean session saw bad frames");
    let _ = std::fs::remove_dir_all(&dir);
}

fn chaos_graph() -> Graph {
    Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]])
}

#[test]
fn chaos_tcp_pagerank_bfv() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
    let g = chaos_graph();
    let steps = pagerank_rotation_steps(g.len());
    sweep_tcp(
        "tcp/pagerank/bfv",
        b"chaos-tcp-pagerank",
        |up, down| {
            Session::<Bfv, TcpChannel>::over(
                &params,
                b"chaos-tcp-pagerank",
                &steps,
                up,
                down,
                Default::default(),
            )
            .unwrap()
        },
        || ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, 10).unwrap(),
    );
}

#[test]
fn chaos_tcp_pagerank_ckks() {
    let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
    let g = chaos_graph();
    let steps = pagerank_rotation_steps(g.len());
    sweep_tcp(
        "tcp/pagerank/ckks",
        b"chaos-tcp-pagerank-ckks",
        |up, down| {
            Session::<Ckks, TcpChannel>::over(
                &params,
                b"chaos-tcp-pagerank-ckks",
                &steps,
                up,
                down,
                Default::default(),
            )
            .unwrap()
        },
        || ResumablePagerank::<Ckks>::new(&g, 0.85, 4, 1, 0).unwrap(),
    );
}

/// The conv layer keeps its input ciphertext resident server-side, so this
/// sweep exercises the post-resume recovery re-upload over a real socket;
/// the sky-high refresh floor forces `CrashOp::Refresh` points too.
#[test]
fn chaos_tcp_conv_layer_bfv_with_forced_refreshes() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let input: Vec<Vec<u64>> = vec![(0..64).map(|i| (i * 5 + 1) % 16).collect()];
    let weights: Vec<Vec<Vec<u64>>> = (0..2)
        .map(|c| vec![(0..9).map(|i| ((i + c * 3) % 16) as u64).collect()])
        .collect();
    let steps = choco_apps::dnn::conv_rotation_steps(1, 8, 8, 3);
    sweep_tcp(
        "tcp/conv/bfv",
        b"chaos-tcp-conv",
        |up, down| {
            Session::<Bfv, TcpChannel>::over(
                &params,
                b"chaos-tcp-conv",
                &steps,
                up,
                down,
                Default::default(),
            )
            .unwrap()
            .with_refresh_floor(10_000.0)
        },
        || ResumableConvLayer::new(&input, &weights, 8, 8, 3).unwrap(),
    );
}

#[test]
fn chaos_tcp_kmeans_ckks() {
    let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
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
    sweep_tcp(
        "tcp/kmeans/ckks",
        b"chaos-tcp-kmeans",
        |up, down| {
            Session::<Ckks, TcpChannel>::over(
                &params,
                b"chaos-tcp-kmeans",
                &steps,
                up,
                down,
                Default::default(),
            )
            .unwrap()
        },
        || ResumableKmeans::new(PackingVariant::DimensionMajor, &points, &init, 2, 1e-6).unwrap(),
    );
}
