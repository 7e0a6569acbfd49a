//! End-to-end resilience acceptance tests (deterministic quickprop
//! harness).
//!
//! The transport contract, observed from the application layer:
//!
//! * any seeded fault schedule *within* the retry budget yields results
//!   bit-identical to the fault-free run — faults cost retransmitted bytes,
//!   never correctness — and nothing panics;
//! * a schedule *beyond* the budget surfaces a typed [`TransportError`]
//!   instead of a wrong answer.

use choco::transport::{
    Channel, FaultPlan, FaultyChannel, LinkConfig, RetryPolicy, Session, TransportError,
};
use choco_apps::distance::{
    distance_rotation_steps, encrypted_distances, knn_classify, PackingVariant,
};
use choco_apps::pipeline::{run_encrypted, seeded_weights, LenetLikeSpec};
use choco_he::params::HeParams;
use choco_he::Ckks;
use choco_quickprop::{run_cases, Gen};

fn test_image(spec: &LenetLikeSpec) -> Vec<u64> {
    (0..spec.img * spec.img)
        .map(|i| ((i * 7 + 3) % 16) as u64)
        .collect()
}

fn bfv_params() -> HeParams {
    HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap()
}

/// A random fault schedule that a 16-attempt budget beats with margin.
fn survivable_plan(g: &mut Gen, label: &str) -> Box<dyn Channel> {
    let plan = FaultPlan::lossless()
        .with_drop_rate(g.f64() * 0.3)
        .with_corrupt_rate(g.f64() * 0.25)
        .with_truncate_rate(g.f64() * 0.15)
        .with_duplicate_rate(g.f64() * 0.2)
        .with_max_latency_ms(g.u64_below(30));
    let seed: Vec<u8> = label.bytes().chain(g.array_u8::<8>()).collect();
    Box::new(FaultyChannel::new(&seed, plan))
}

#[test]
fn dnn_pipeline_is_bit_identical_under_survivable_faults() {
    let spec = LenetLikeSpec::tiny();
    let weights = seeded_weights(&spec, b"e2e weights");
    let image = test_image(&spec);
    let params = bfv_params();
    let baseline = run_encrypted(
        &spec,
        &weights,
        &image,
        &params,
        b"e2e pipe",
        LinkConfig::direct(),
    )
    .unwrap();

    run_cases("resilient dnn bit-identical", 5, |g| {
        let link = LinkConfig {
            uplink: survivable_plan(g, "up"),
            downlink: survivable_plan(g, "down"),
            policy: RetryPolicy {
                max_attempts: 16,
                ..RetryPolicy::default()
            },
        };
        let enc = run_encrypted(&spec, &weights, &image, &params, b"e2e pipe", link).unwrap();
        assert_eq!(enc.logits, baseline.logits, "logits diverged under faults");
        assert_eq!(enc.class, baseline.class);
        // Figure-10-comparable counters are unchanged; only the
        // retransmission column grows.
        assert_eq!(enc.ledger.upload_bytes, baseline.ledger.upload_bytes);
        assert_eq!(enc.ledger.download_bytes, baseline.ledger.download_bytes);
        assert_eq!(enc.ledger.rounds, baseline.ledger.rounds);
    });
}

#[test]
fn dnn_pipeline_over_perfect_channels_matches_and_bills_nothing_extra() {
    let spec = LenetLikeSpec::tiny();
    let weights = seeded_weights(&spec, b"e2e weights");
    let image = test_image(&spec);
    let params = bfv_params();
    let baseline = run_encrypted(
        &spec,
        &weights,
        &image,
        &params,
        b"e2e pipe",
        LinkConfig::direct(),
    )
    .unwrap();
    let enc = run_encrypted(
        &spec,
        &weights,
        &image,
        &params,
        b"e2e pipe",
        LinkConfig::direct(),
    )
    .unwrap();
    assert_eq!(enc.logits, baseline.logits);
    assert_eq!(enc.ledger.retransmit_bytes, 0);
}

#[test]
fn dnn_pipeline_beyond_budget_fails_typed_not_wrong() {
    let spec = LenetLikeSpec::tiny();
    let weights = seeded_weights(&spec, b"e2e weights");
    let image = test_image(&spec);
    let params = bfv_params();
    let link = LinkConfig {
        uplink: Box::new(FaultyChannel::new(b"dead uplink", FaultPlan::blackhole())),
        ..LinkConfig::direct()
    };
    let err = run_encrypted(&spec, &weights, &image, &params, b"e2e pipe", link).unwrap_err();
    assert!(
        matches!(err, TransportError::RetriesExhausted { .. }),
        "expected RetriesExhausted, got {err}"
    );
}

#[test]
fn knn_over_faulty_channels_matches_direct_classification() {
    let (dims, n) = (4usize, 6usize);
    let query: Vec<f64> = (0..dims).map(|i| (i as f64 * 0.7).sin()).collect();
    let points: Vec<Vec<f64>> = (0..n)
        .map(|p| {
            (0..dims)
                .map(|i| ((p * dims + i) as f64 * 0.3).cos())
                .collect()
        })
        .collect();
    let labels = [0usize, 1, 0, 1, 0, 1];
    let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
    let steps = distance_rotation_steps(dims, n, 512);

    // Direct reference.
    let mut direct_session = Session::<Ckks>::direct(&params, b"knn e2e", &steps).unwrap();
    let direct = encrypted_distances(
        PackingVariant::PointMajor,
        &mut direct_session,
        &query,
        &points,
    )
    .unwrap();
    let direct_class = knn_classify(&direct.distances, &labels, 3);

    // Same computation across lossy channels (rates high enough that a
    // point-major round's two transfers are certain to see faults).
    let plan = FaultPlan::flaky()
        .with_drop_rate(0.6)
        .with_corrupt_rate(0.5);
    let link = LinkConfig {
        uplink: Box::new(FaultyChannel::new(b"knn up", plan)),
        downlink: Box::new(FaultyChannel::new(b"knn down", plan)),
        policy: RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        },
    };
    let mut session = Session::<Ckks>::with_link(&params, b"knn e2e", &steps, link).unwrap();
    let res =
        encrypted_distances(PackingVariant::PointMajor, &mut session, &query, &points).unwrap();
    assert_eq!(res.distances, direct.distances, "bit-identical distances");
    assert_eq!(knn_classify(&res.distances, &labels, 3), direct_class);
    assert!(
        res.ledger.retransmit_bytes > 0,
        "flaky link must bill retries"
    );
}
