//! Privacy-preserving KNN: a client classifies its secret query against the
//! server's point database using encrypted CKKS distance computation —
//! comparing the three packing variants of Figure 9.
//!
//! ```sh
//! cargo run --release --example knn_offload
//! ```

use choco::transport::Session;
use choco_apps::distance::{
    distance_rotation_steps, distances_plain, encrypted_distances, knn_classify, PackingVariant,
};
use choco_he::params::HeParams;
use choco_he::Ckks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two Gaussian-ish clusters with labels 0 / 1; the query sits in
    // cluster 1's neighbourhood.
    let dims = 4usize;
    let points: Vec<Vec<f64>> = vec![
        vec![0.1, 0.2, 0.0, 0.1],
        vec![0.0, 0.1, 0.2, 0.0],
        vec![0.2, 0.0, 0.1, 0.1],
        vec![1.9, 2.0, 2.1, 1.8],
        vec![2.0, 2.1, 1.9, 2.0],
        vec![2.1, 1.9, 2.0, 2.1],
    ];
    let labels = vec![0usize, 0, 0, 1, 1, 1];
    let query = vec![1.8, 2.2, 2.0, 1.9];

    // Small CKKS parameters keep the example fast; set C is the production
    // choice (use `HeParams::set_c()`).
    let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38)?;
    let expected = distances_plain(&query, &points);

    for variant in PackingVariant::all() {
        let steps = distance_rotation_steps(dims, points.len(), params.slot_count());
        let mut session = Session::<Ckks>::direct(&params, b"knn example", &steps)?;
        let res = encrypted_distances(variant, &mut session, &query, &points)?;
        let label = knn_classify(&res.distances, &labels, 3);
        let max_err = res
            .distances
            .iter()
            .zip(&expected)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:<26} → class {label}  (max dist err {max_err:.4}, {} up / {} down cts, {} server ops)",
            variant.label(),
            res.ledger.uploads,
            res.ledger.downloads,
            res.server_ops
        );
        assert_eq!(label, 1, "query belongs to cluster 1");
    }
    println!("\nall three packings agree; collapsed point-major trades server work for minimal client traffic (§5.4)");
    Ok(())
}
