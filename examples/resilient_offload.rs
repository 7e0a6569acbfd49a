//! Encrypted DNN offload over a lossy link.
//!
//! Runs the LeNet-like encrypted pipeline twice — once over perfect
//! in-memory channels, once over seeded fault-injecting channels — and
//! shows that the logits are bit-identical while the ledger separates the
//! fault-tolerance cost (retransmitted bytes) from the
//! paper-comparable upload/download columns.
//!
//! ```sh
//! cargo run --release --example resilient_offload
//! ```

use choco::transport::{FaultPlan, FaultyChannel, LinkConfig, RetryPolicy};
use choco_apps::pipeline::{run_encrypted, seeded_weights, LenetLikeSpec};
use choco_he::params::HeParams;

fn or_die<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("resilient_offload: {what}: {e}");
        std::process::exit(1)
    })
}

fn main() {
    let spec = LenetLikeSpec::tiny();
    let weights = seeded_weights(&spec, b"resilient demo");
    let image: Vec<u64> = (0..spec.img * spec.img)
        .map(|i| ((i * 5 + 1) % 16) as u64)
        .collect();
    let params = or_die("params", HeParams::bfv_insecure(1024, &[45, 45, 46], 18));

    println!("== fault-free baseline ==");
    let base = or_die(
        "baseline run",
        run_encrypted(
            &spec,
            &weights,
            &image,
            &params,
            b"demo",
            LinkConfig::direct(),
        ),
    );
    println!("logits: {:?}  -> class {}", base.logits, base.class);
    println!(
        "upload {} B, download {} B, rounds {}",
        base.ledger.upload_bytes, base.ledger.download_bytes, base.ledger.rounds
    );

    println!();
    println!("== same run over a lossy link (20% drop, 15% corrupt, 10% truncate) ==");
    let plan = FaultPlan::flaky();
    let link = LinkConfig {
        uplink: Box::new(FaultyChannel::new(b"demo uplink", plan)),
        downlink: Box::new(FaultyChannel::new(b"demo downlink", plan)),
        policy: RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        },
    };
    let faulty = or_die(
        "faulty-link run",
        run_encrypted(&spec, &weights, &image, &params, b"demo", link),
    );
    println!("logits: {:?}  -> class {}", faulty.logits, faulty.class);
    println!(
        "upload {} B, download {} B, rounds {} (unchanged: Figure-10 comparable)",
        faulty.ledger.upload_bytes, faulty.ledger.download_bytes, faulty.ledger.rounds
    );
    println!(
        "retransmitted {} B (the fault-tolerance bill)",
        faulty.ledger.retransmit_bytes
    );

    assert_eq!(
        base.logits, faulty.logits,
        "faults must never change results"
    );
    println!();
    println!("bit-identical logits under faults: OK");
}
