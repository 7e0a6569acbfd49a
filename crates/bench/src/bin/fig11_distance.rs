//! Regenerates **Figure 11**: encrypted distance-calculation tradeoffs —
//! server time, client time, and communication for the three packing
//! variants of Figure 9, across representative (dimension, points) pairs.
//!
//! Server times are measured from the real CKKS kernels on this machine;
//! client times are the op counts multiplied by the CHOCO-TACO and IMX6
//! per-op costs (the paper's §5.2 methodology). Point counts are scaled
//! down from the paper's to keep Galois-key material tractable in a demo
//! binary; the *ordering* of variants is the result under test.

#![forbid(unsafe_code)]
use choco::transport::Session;
use choco_apps::distance::{
    distance_rotation_steps, distances_plain, encrypted_distances, PackingVariant,
};
use choco_bench::{header, note, time_str, timed};
use choco_he::params::HeParams;
use choco_he::Ckks;
use choco_taco::baseline::{sw_decryption_time, sw_encryption_time};
use choco_taco::config::AcceleratorConfig;
use choco_taco::model::{decryption_profile, encryption_profile};

fn or_die<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("fig11_distance: {what}: {e}");
        std::process::exit(1)
    })
}

fn main() {
    header("Figure 11: encrypted distance kernels — packing-variant tradeoffs");
    // Deeper CKKS chain than set C so the collapsed variant has a rescale
    // level to spend on its masking multiplies (documented substitution).
    let params = or_die("params", HeParams::ckks(8192, &[50, 50, 40, 59], 40));
    let n_ring = params.degree();
    let k = params.prime_count();
    let cfg = AcceleratorConfig::paper_operating_point();
    let hw_enc = encryption_profile(&cfg, n_ring, k).time_s;
    let hw_dec = decryption_profile(&cfg, n_ring, k).time_s;
    let sw_enc = sw_encryption_time(n_ring, k);
    let sw_dec = sw_decryption_time(n_ring, k);

    for (dims, points_n) in [(4usize, 16usize), (16, 16), (128, 32)] {
        println!("\n--- dims = {dims}, points = {points_n} ---");
        println!(
            "{:<26} {:>11} {:>11} {:>11} {:>10} {:>9}",
            "Variant", "server", "client(sw)", "client(hw)", "comm", "srv ops"
        );
        let query: Vec<f64> = (0..dims).map(|i| (i as f64 * 0.31).sin()).collect();
        let points: Vec<Vec<f64>> = (0..points_n)
            .map(|p| {
                (0..dims)
                    .map(|i| ((p * dims + i) as f64 * 0.17).cos())
                    .collect()
            })
            .collect();
        let want = distances_plain(&query, &points);

        for variant in PackingVariant::all() {
            let steps = distance_rotation_steps(dims, points_n, params.slot_count());
            let mut session = or_die(
                "session",
                Session::<Ckks>::direct(&params, b"fig11", &steps),
            );
            let (res, server_time) = timed(|| {
                or_die(
                    "kernel",
                    encrypted_distances(variant, &mut session, &query, &points),
                )
            });
            // Validate against the plaintext reference.
            for (g, w) in res.distances.iter().zip(&want) {
                assert!((g - w).abs() < 5e-2, "{}: {g} vs {w}", variant.label());
            }
            let client_sw = res.encryptions as f64 * sw_enc + res.decryptions as f64 * sw_dec;
            let client_hw = res.encryptions as f64 * hw_enc + res.decryptions as f64 * hw_dec;
            println!(
                "{:<26} {:>11} {:>11} {:>11} {:>9.2}M {:>9}",
                variant.label(),
                time_str(server_time),
                time_str(client_sw),
                time_str(client_hw),
                res.ledger.total_bytes() as f64 / 1e6,
                res.server_ops,
            );
        }
    }
    note("collapsed point-major: most server ops, single dense reply — the client-optimized choice (§5.4)");
}
