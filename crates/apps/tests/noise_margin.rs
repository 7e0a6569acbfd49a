//! The noise margin, measured on what the client holds: the invariant noise
//! budget of every reply it downloads.
//!
//! Noise is bounded before a run — the parameter set is chosen for the
//! round's depth, and each client-aided round's decrypt → re-encrypt starts
//! the next round fresh — so the one place it can run out is the server's
//! output, just before the client decrypts it. This measures that margin
//! with the client's secret key ([`choco::protocol::Client::health`]) on
//! every downloaded frame, as it arrived:
//!
//! * `lenet_direct`'s network at paper set B — both conv layers and the
//!   FC, one stage at a time;
//! * one PageRank burst of one iteration — the only burst length a
//!   workload runs at paper parameters — at set A, the served PageRank
//!   workload's set, and at set B;
//! * the two-iteration bursts `chaos_sweep`'s BFV PageRank cases run, on
//!   their chain.
//!
//! Every reply must keep at least one bit; the values are printed, and
//! DESIGN.md §13 records them.

use choco::transport::frame::decode_frame;
use choco::transport::{
    Channel, Delivery, DirectChannel, FrameKind, LinkConfig, RetryPolicy, Session, TagKey,
};
use choco_apps::pagerank::{pagerank_rotation_steps, Graph, ResumablePagerank};
use choco_apps::pipeline::{all_rotation_steps, seeded_weights, LenetLikeSpec, ResumablePipeline};
use choco_apps::resumable::ResumableWorkload;
use choco_he::params::HeParams;
use choco_he::{Bfv, HeScheme};
use std::cell::RefCell;
use std::rc::Rc;

/// Every frame a [`Tap`] has sent, shared with the test that reads it.
type Sent = Rc<RefCell<Vec<Vec<u8>>>>;

/// A lossless channel that keeps a copy of every frame sent through it.
struct Tap {
    inner: DirectChannel,
    sent: Sent,
}

impl Channel for Tap {
    fn send(&mut self, wire: Vec<u8>) {
        self.sent.borrow_mut().push(wire.clone());
        self.inner.send(wire);
    }

    fn recv(&mut self) -> Option<Delivery> {
        self.inner.recv()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// A direct session whose downlink frames land in the returned log.
fn tapped_session(params: &HeParams, seed: &[u8], steps: &[i64]) -> (Session<Bfv>, Sent) {
    let sent = Sent::default();
    let link = LinkConfig {
        uplink: Box::new(DirectChannel::new()),
        downlink: Box::new(Tap {
            inner: DirectChannel::new(),
            sent: Rc::clone(&sent),
        }),
        policy: RetryPolicy::default(),
    };
    let session = Session::with_link(params, seed, steps, link).unwrap();
    (session, sent)
}

/// Steps `workload` to completion and returns, per step, the noise budget
/// in bits of every reply that step downloaded, as the client received it.
fn margins_per_step<W: ResumableWorkload<Scheme = Bfv>>(
    mut workload: W,
    params: &HeParams,
    seed: &[u8],
    steps: &[i64],
) -> Vec<Vec<f64>> {
    let (mut session, sent) = tapped_session(params, seed, steps);
    let key = TagKey::from_session_seed(seed);
    let mut per_step = Vec::new();
    while !workload.is_done() {
        workload.step(&mut session).unwrap();
        let margins = sent
            .take()
            .iter()
            .map(|wire| {
                let frame = decode_frame(wire, &key).unwrap();
                assert_eq!(frame.kind, FrameKind::BfvCiphertext);
                let reply = Bfv::ct_from_wire(&frame.payload).unwrap();
                session.client_mut().health(&reply)
            })
            .collect();
        per_step.push(margins);
    }
    per_step
}

fn assert_margins(label: &str, margins: &[f64]) {
    println!("{label}: {margins:.2?} bits");
    assert!(!margins.is_empty(), "{label}: no reply downloaded");
    for &bits in margins {
        assert!(bits >= 1.0, "{label}: a reply kept {bits:.2} bits");
    }
}

/// `lenet_direct`'s network (16 × 16 image, 4 → 8 channels, 5 × 5
/// filters, 10 classes) at paper set B.
#[test]
fn lenet_replies_keep_a_margin_at_set_b() {
    let spec = LenetLikeSpec {
        img: 16,
        conv1_ch: 4,
        conv2_ch: 8,
        filter: 5,
        classes: 10,
    };
    let params = HeParams::set_b();
    let weights = seeded_weights(&spec, b"noise margin weights");
    let image: Vec<u64> = (0..spec.img * spec.img)
        .map(|i| ((i * 7 + 3) % 16) as u64)
        .collect();
    let pipeline = ResumablePipeline::new(&spec, &weights, &image).unwrap();
    let steps = all_rotation_steps(&spec, params.degree() / 2);
    let per_stage = margins_per_step(pipeline, &params, b"noise margin lenet", &steps);
    let [conv1, conv2, fc] = per_stage.as_slice() else {
        panic!("expected three stages, got {}", per_stage.len());
    };
    assert_margins("set B conv1", conv1);
    assert_margins("set B conv2", conv2);
    assert_margins("set B FC", fc);
}

/// One single-iteration PageRank burst over eight nodes.
#[test]
fn a_pagerank_burst_reply_keeps_a_margin_at_sets_a_and_b() {
    let adjacency: Vec<Vec<usize>> = (0..8).map(|i| vec![(i + 1) % 8, (i + 3) % 8]).collect();
    let graph = Graph::from_adjacency(&adjacency);
    let steps = pagerank_rotation_steps(graph.len());
    for (set, params) in [("A", HeParams::set_a()), ("B", HeParams::set_b())] {
        let burst = ResumablePagerank::<Bfv>::new(&graph, 0.85, 1, 1, 10).unwrap();
        let per_burst = margins_per_step(burst, &params, b"noise margin pagerank", &steps);
        let [reply] = per_burst.as_slice() else {
            panic!("set {set}: expected one burst, got {}", per_burst.len());
        };
        assert_margins(&format!("set {set} PageRank burst"), reply);
    }
}

/// Two-iteration bursts over `chaos_sweep`'s 4-node graph, on the chain its
/// BFV PageRank cases run: N = 1024, `[50, 50, 50, 51]`, t = 21 bits,
/// scale bits 6.
#[test]
fn two_iteration_bursts_keep_a_margin_on_the_chaos_chain() {
    let graph = Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]]);
    let params = HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 21).unwrap();
    let steps = pagerank_rotation_steps(graph.len());
    let bursts = ResumablePagerank::<Bfv>::new(&graph, 0.85, 4, 2, 6).unwrap();
    let per_burst = margins_per_step(bursts, &params, b"chaos-pagerank", &steps);
    assert_eq!(per_burst.len(), 2, "four iterations in bursts of two");
    for (i, reply) in per_burst.iter().enumerate() {
        assert_margins(&format!("chaos chain burst {}", i + 1), reply);
    }
}
