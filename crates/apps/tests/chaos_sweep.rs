//! Crash-point chaos sweep: kill → checkpoint-resume → bit-identical.
//!
//! For every resumable workload, this harness first runs the workload
//! uninterrupted and records (a) the serialized final result ciphertext
//! and (b) the communication ledger. It then replays the workload once per
//! crash point — the first and last occurrence of every session operation
//! the baseline performed (upload, download, compute) — arming a
//! deterministic [`CrashPlan`] each time. When the simulated crash fires,
//! the harness rebuilds the session from the last durable checkpoint with
//! [`Session::resume`], restores the workload driver from the progress
//! blob the checkpoint carried, and continues: every step is one or more
//! whole client-aided rounds, so nothing on the server needs restoring.
//!
//! The acceptance bar, per crash point:
//!
//! * the final result ciphertext is **bit-identical** to the uninterrupted
//!   run's (the client RNG and all payloads replay exactly);
//! * every *primary* ledger line (upload/download bytes and counts,
//!   rounds) matches the uninterrupted run — recovery
//!   traffic appears only in `recovery_bytes` (and, on faulty links,
//!   `retransmit_bytes`);
//! * the uninterrupted run bills zero recovery bytes, every crashed run
//!   bills more than zero.

use choco::compiler::CompilerScheme;
use choco::protocol::CommLedger;
use choco::transport::{
    Channel, CrashOp, CrashPlan, DirectChannel, FaultPlan, FaultyChannel, LinkConfig, RetryPolicy,
    Session, TransportError,
};
use choco_apps::distance::{distance_rotation_steps, PackingVariant, ResumableKmeans};
use choco_apps::dnn::{conv_rotation_steps, conv_rotation_steps_multi, ResumableConvLayer};
use choco_apps::pagerank::{pagerank_plain, pagerank_rotation_steps, Graph, ResumablePagerank};
use choco_apps::pipeline::{all_rotation_steps, seeded_weights, LenetLikeSpec, ResumablePipeline};
use choco_apps::resumable::ResumableWorkload;
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks, HeScheme};

const OPS: [CrashOp; 3] = [CrashOp::Upload, CrashOp::Download, CrashOp::Compute];

fn assert_primary_lines_match(label: &str, base: &CommLedger, got: &CommLedger) {
    assert_eq!(got.upload_bytes, base.upload_bytes, "{label}: upload_bytes");
    assert_eq!(
        got.download_bytes, base.download_bytes,
        "{label}: download_bytes"
    );
    assert_eq!(got.uploads, base.uploads, "{label}: uploads");
    assert_eq!(got.downloads, base.downloads, "{label}: downloads");
    assert_eq!(got.rounds, base.rounds, "{label}: rounds");
}

/// Runs one workload through the full kill → resume → compare sweep and
/// returns the uninterrupted run's finished workload, whose result every
/// crashed run reproduced bit for bit.
///
/// `make_session` builds the session a fresh run starts from (the same
/// construction for baseline and crashed runs); `resume_channel` builds
/// one fresh post-crash channel per direction; `make_workload` builds the
/// workload a fresh run starts from — and, after a crash, the instance the
/// checkpointed progress blob is restored into.
fn sweep<W: ResumableWorkload>(
    label: &str,
    make_session: impl Fn() -> Session<W::Scheme>,
    resume_channel: impl Fn(&'static str) -> Box<dyn Channel>,
    make_workload: impl Fn() -> W,
) -> W {
    // Uninterrupted baseline.
    let mut session = make_session();
    let mut baseline = make_workload();
    baseline
        .run(&mut session)
        .unwrap_or_else(|e| panic!("{label}: baseline step: {e}"));
    let base_wire = baseline.final_ct_wire();
    assert!(
        !base_wire.is_empty(),
        "{label}: baseline produced no result ciphertext"
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
    assert!(
        !counts.is_empty(),
        "{label}: baseline performed no session ops"
    );

    let mut exercised = 0u32;
    for &(op, count) in &counts {
        let mut nths = vec![1];
        if count > 1 {
            nths.push(count);
        }
        for nth in nths {
            let point = format!("{label} {op:?} #{nth}/{count}");
            let mut session = make_session();
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
                        let (resumed, progress) =
                            Session::resume(&ckpt, resume_channel("up"), resume_channel("down"))
                                .unwrap_or_else(|e| panic!("{point}: resume: {e}"));
                        session = resumed;
                        w = make_workload()
                            .restore(&progress)
                            .unwrap_or_else(|e| panic!("{point}: restore: {e}"));
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
            exercised += 1;
        }
    }
    assert!(exercised > 0, "{label}: no crash point exercised");
    baseline
}

fn chaos_graph() -> Graph {
    Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]])
}

/// The BFV PageRank cases' chain. A burst of two is three chained plaintext
/// multiplies, and its replies keep 24.6 and 24.4 bits here
/// (`noise_margin.rs` measures this exact run).
fn chaos_bfv_params() -> HeParams {
    HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 21).unwrap()
}

/// Scale bits of the BFV PageRank cases.
const CHAOS_BFV_SCALE_BITS: u32 = 6;

/// The four iterations' ranks must track the plaintext reference within the
/// quantization tolerance.
fn assert_ranks_track_plain<S: HeScheme>(label: &str, run: &ResumablePagerank<S>) {
    let plain = pagerank_plain(&chaos_graph(), 0.85, 4);
    for (i, (e, p)) in run.ranks().iter().zip(&plain).enumerate() {
        assert!(
            (e - p).abs() < 0.05,
            "{label}: node {i}: encrypted {e} vs plain {p}"
        );
    }
}

fn pagerank_sweep_over<S: CompilerScheme>(
    label: &str,
    params: &HeParams,
    burst: u32,
    scale_bits: u32,
) {
    let g = chaos_graph();
    let steps = pagerank_rotation_steps(g.len());
    let run = sweep(
        label,
        || Session::<S>::direct(params, b"chaos-pagerank", &steps).unwrap(),
        |_| Box::new(DirectChannel::new()) as Box<dyn Channel>,
        || ResumablePagerank::<S>::new(&g, 0.85, 4, burst, scale_bits).unwrap(),
    );
    assert_ranks_track_plain(label, &run);
}

#[test]
fn chaos_pagerank_bfv() {
    pagerank_sweep_over::<Bfv>("pagerank/bfv", &chaos_bfv_params(), 2, CHAOS_BFV_SCALE_BITS);
}

#[test]
fn chaos_pagerank_ckks() {
    let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
    pagerank_sweep_over::<Ckks>("pagerank/ckks", &params, 1, 0);
}

/// PageRank over lossy links: drops, duplicates, and latency on both
/// directions, for the baseline, the crashed runs, *and* the fresh
/// channels each resume reconnects over. Primary ledger lines must still
/// match exactly; only `retransmit_bytes` (fault-RNG draws shift across a
/// reconnect) and `recovery_bytes` may differ.
#[test]
fn chaos_pagerank_bfv_over_faulty_links() {
    let params = chaos_bfv_params();
    let g = chaos_graph();
    let steps = pagerank_rotation_steps(g.len());
    let plan = FaultPlan::default()
        .with_drop_rate(0.15)
        .with_duplicate_rate(0.2)
        .with_max_latency_ms(5);
    let policy = RetryPolicy {
        max_attempts: 16,
        base_backoff_ms: 1,
        max_backoff_ms: 64,
        round_timeout_ms: 1_000_000,
    };
    let run = sweep(
        "pagerank/bfv/faulty",
        || {
            let link = LinkConfig {
                uplink: Box::new(FaultyChannel::new(b"chaos-up", plan)),
                downlink: Box::new(FaultyChannel::new(b"chaos-down", plan)),
                policy,
            };
            Session::<Bfv>::with_link(&params, b"chaos-pagerank", &steps, link).unwrap()
        },
        |dir| Box::new(FaultyChannel::new(dir.as_bytes(), plan)),
        || ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, CHAOS_BFV_SCALE_BITS).unwrap(),
    );
    assert_ranks_track_plain("pagerank/bfv/faulty", &run);
}

/// A conv layer is one step: a crash anywhere inside it replays the whole
/// layer from the checkpoint before it. `groups` is the layer's (input,
/// output) ciphertext count at `params`' row; with more than one of each,
/// the first and last upload, download and compute tick are distinct
/// crash points.
fn conv_layer_sweep(
    label: &str,
    params: &HeParams,
    (in_ch, out_ch): (usize, usize),
    steps: &[i64],
    groups: (u32, u32),
) {
    let input: Vec<Vec<u64>> = (0..in_ch)
        .map(|c| (0..64).map(|i| (i * 5 + c as u64 + 1) % 16).collect())
        .collect();
    let weights: Vec<Vec<Vec<u64>>> = (0..out_ch)
        .map(|o| {
            (0..in_ch)
                .map(|c| (0..9).map(|i| ((i + o * 3 + c) % 16) as u64).collect())
                .collect()
        })
        .collect();
    let make_session = || Session::<Bfv>::direct(params, b"chaos-conv", steps).unwrap();
    let make_layer = || ResumableConvLayer::new(&input, &weights, 8, 8, 3).unwrap();
    // Every input group is uploaded once, every output group downloaded
    // once.
    let mut session = make_session();
    make_layer().run(&mut session).unwrap();
    let (inputs, outputs) = groups;
    let ledger = session.ledger();
    assert_eq!(ledger.uploads, inputs, "{label}: uploads");
    assert_eq!(ledger.downloads, outputs, "{label}: downloads");
    sweep(
        label,
        make_session,
        |_| Box::new(DirectChannel::new()) as Box<dyn Channel>,
        make_layer,
    );
}

#[test]
fn chaos_conv_layer_bfv() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let steps = conv_rotation_steps(1, 8, 8, 3);
    conv_layer_sweep("conv/bfv", &params, (1, 2), &steps, (1, 1));
}

/// Eight channels of 8 × 8 at a 512-slot row: 4 blocks of 128 slots, so the
/// input is two groups of 4 and the 6 outputs come down as groups of 4 and
/// 2 — a multi-group round, replayed whole.
#[test]
fn chaos_conv_layer_grouped_bfv() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let steps = conv_rotation_steps_multi(8, 8, 8, 3, 512).unwrap();
    conv_layer_sweep("conv/bfv/grouped", &params, (8, 6), &steps, (2, 2));
}

#[test]
fn chaos_pipeline_bfv() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let spec = LenetLikeSpec::tiny();
    let weights = seeded_weights(&spec, b"chaos-pipe");
    let image: Vec<u64> = (0..spec.img * spec.img)
        .map(|i| ((i * 7 + 3) % 16) as u64)
        .collect();
    let steps = all_rotation_steps(&spec, params.degree() / 2);
    sweep(
        "pipeline/bfv",
        || Session::<Bfv>::direct(&params, b"chaos-pipe", &steps).unwrap(),
        |_| Box::new(DirectChannel::new()) as Box<dyn Channel>,
        || ResumablePipeline::new(&spec, &weights, &image).unwrap(),
    );
}

#[test]
fn chaos_kmeans_ckks() {
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
    sweep(
        "kmeans/ckks",
        || Session::<Ckks>::direct(&params, b"chaos-kmeans", &steps).unwrap(),
        |_| Box::new(DirectChannel::new()) as Box<dyn Channel>,
        || ResumableKmeans::new(PackingVariant::DimensionMajor, &points, &init, 2, 1e-6).unwrap(),
    );
}
