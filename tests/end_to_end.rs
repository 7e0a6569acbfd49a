//! Cross-crate integration tests: the full CHOCO stack exercised end to
//! end — client-aided DNN convolution, KNN over encrypted distances,
//! encrypted PageRank vs. its reference, and accelerator/parameter-selection
//! consistency.

use choco::params::{select_bfv_params, WorkloadProfile};
use choco::protocol::Client;
use choco::transport::{LinkConfig, Session};
use choco_apps::distance::{
    distance_rotation_steps, distances_plain, encrypted_distances, knn_classify, PackingVariant,
};
use choco_apps::dnn::{
    client_aided_plan, conv2d_plain_circular, conv_rotation_steps, run_encrypted_conv_layer,
    Network,
};
use choco_apps::pagerank::{pagerank_encrypted, pagerank_plain, Graph};
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks};
use choco_taco::baseline::sw_encryption_time;
use choco_taco::config::AcceleratorConfig;
use choco_taco::dse::{explore, select_operating_point};
use choco_taco::link::{compose_client_cost, LinkModel};
use choco_taco::model::{decryption_profile, encryption_profile};

#[test]
fn client_aided_conv_layer_through_the_whole_stack() {
    let params = HeParams::bfv_insecure(2048, &[45, 45, 46], 18).unwrap();
    let (h, w, f, in_ch, out_ch) = (5usize, 5usize, 3usize, 4usize, 3usize);
    let steps = conv_rotation_steps(in_ch, h, w, f);
    let mut session = Session::<Bfv>::direct(&params, b"integration conv", &steps).unwrap();

    let image: Vec<Vec<u64>> = (0..in_ch)
        .map(|c| (0..h * w).map(|i| ((i * 3 + c * 5) % 16) as u64).collect())
        .collect();
    let weights: Vec<Vec<Vec<u64>>> = (0..out_ch)
        .map(|o| {
            (0..in_ch)
                .map(|c| (0..f * f).map(|i| ((i * 2 + o + c) % 16) as u64).collect())
                .collect()
        })
        .collect();

    let got = run_encrypted_conv_layer(&mut session, &image, &weights, h, w, f).unwrap();
    let plain_t = session.server().context().plain_modulus();
    let want = conv2d_plain_circular(&image, &weights, h, w, f, plain_t);
    assert_eq!(got, want);
    // Accounting: one upload, and one download for all three output
    // channels — they come back packed in one ciphertext (16 blocks of 64).
    // Frames bill their residues at their primes' width: a 45-bit residue
    // row of 2048 coefficients is 11 520 bytes. The upload is compact:
    // `c0`'s two rows, the 32-byte seed of `c1` and one word per data
    // prime; the download is a compressed reply, the two words and both
    // parts rounded to 29 and 40 bits a coefficient (18-bit `t`, N = 2048).
    let ledger = session.ledger();
    assert_eq!(ledger.uploads, 1);
    assert_eq!(ledger.downloads, 1);
    let row = 2048 * 45 / 8;
    assert_eq!(ledger.upload_bytes, (2 * row + 32 + 2 * 8) as u64);
    assert_eq!(ledger.download_bytes, (2 * 8 + 2048 * (29 + 40) / 8) as u64);
}

#[test]
fn knn_classification_over_encrypted_distances() {
    let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
    let points = vec![
        vec![0.0, 0.1, 0.0, 0.1],
        vec![0.1, 0.0, 0.1, 0.0],
        vec![3.0, 3.1, 2.9, 3.0],
        vec![3.1, 3.0, 3.0, 2.9],
    ];
    let labels = vec![7usize, 7, 9, 9];
    let query = vec![2.9, 3.0, 3.1, 3.0];
    for variant in PackingVariant::all() {
        let steps = distance_rotation_steps(4, points.len(), params.slot_count());
        let mut session = Session::<Ckks>::direct(&params, b"integration knn", &steps).unwrap();
        let res = encrypted_distances(variant, &mut session, &query, &points).unwrap();
        assert_eq!(
            knn_classify(&res.distances, &labels, 3),
            9,
            "variant {} must classify into the near cluster",
            variant.label()
        );
        let want = distances_plain(&query, &points);
        for (g, w) in res.distances.iter().zip(&want) {
            assert!((g - w).abs() < 5e-2);
        }
    }
}

#[test]
fn encrypted_pagerank_matches_reference_with_refresh() {
    let graph = Graph::from_adjacency(&[vec![1], vec![2, 3], vec![0], vec![0, 2], vec![1, 2]]);
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
    let enc =
        pagerank_encrypted::<Bfv>(&graph, 0.85, 10, 1, &params, 10, LinkConfig::direct()).unwrap();
    let plain = pagerank_plain(&graph, 0.85, 10);
    for (e, p) in enc.ranks.iter().zip(&plain) {
        assert!((e - p).abs() < 0.02, "{e} vs {p}");
    }
    // One round trip per iteration, constant ciphertext size.
    assert_eq!(enc.ledger.rounds, 10);
    assert_eq!(enc.ledger.uploads, 10);
    assert_eq!(enc.ledger.downloads, 10);
}

#[test]
fn parameter_selection_feeds_the_accelerator_envelope() {
    // The parameters CHOCO selects for a conv workload stay inside the
    // hardware envelope the DSE-chosen accelerator supports (§5.6).
    let params = select_bfv_params(&WorkloadProfile::choco_conv(64), 1).unwrap();
    assert!(params.degree() <= 8192);
    assert!(params.prime_count() <= 3);
    let cfg = AcceleratorConfig::paper_operating_point();
    let prof = encryption_profile(&cfg, params.degree(), params.prime_count());
    assert!(prof.time_s < 1e-3, "encryption must stay sub-millisecond");
}

#[test]
fn dse_selected_point_reproduces_published_operating_point() {
    // Subsample the grid for test speed; the full sweep runs in fig7_dse.
    let points: Vec<_> = explore(8192, 3).into_iter().step_by(7).collect();
    let chosen = select_operating_point(&points, 200.0, 0.01).unwrap();
    assert!(chosen.profile.power_w <= 0.2);
    assert!(
        (5.0..40.0).contains(&chosen.profile.area_mm2),
        "area {} mm2",
        chosen.profile.area_mm2
    );
    assert!(
        chosen.profile.time_s < 2e-3,
        "encryption {} s",
        chosen.profile.time_s
    );
}

#[test]
fn end_to_end_dnn_offload_is_communication_bound_on_bluetooth() {
    // Compose a full VGG16 inference and confirm the paper's §5.7 structure:
    // communication dominates, but hardware crypto is sub-second.
    let params = HeParams::set_a();
    let plan = client_aided_plan(&Network::vgg16(), &params);
    let cfg = AcceleratorConfig::paper_operating_point();
    let enc = encryption_profile(&cfg, params.degree(), params.prime_count());
    let dec = decryption_profile(&cfg, params.degree(), params.prime_count());
    let cost = compose_client_cost(
        plan.encryptions,
        plan.decryptions,
        enc.time_s,
        dec.time_s,
        enc.energy_j,
        dec.energy_j,
        0.01,
        plan.comm_bytes,
        &LinkModel::bluetooth(),
    );
    assert!(
        cost.comm_s > cost.crypto_s,
        "comm should dominate with TACO"
    );
    assert!(cost.crypto_s < 1.0, "accelerated crypto under a second");
    // And without the accelerator the same inference is crypto-bound.
    let sw_crypto =
        plan.encryptions as f64 * sw_encryption_time(params.degree(), params.prime_count());
    assert!(
        sw_crypto > cost.comm_s,
        "software crypto dwarfs communication"
    );
}

#[test]
fn communication_shrinks_with_choco_parameters() {
    // Set A (CHOCO, 2 data residues) vs SEAL-default 5-prime chain at the
    // same degree: ~2x smaller ciphertexts → ~2x less traffic (§5.3).
    let choco = HeParams::set_a();
    let seal_default = HeParams::bfv(8192, &[43, 43, 44, 44, 44], 20).unwrap();
    let net = Network::lenet_large();
    let plan_choco = client_aided_plan(&net, &choco);
    let plan_seal = client_aided_plan(&net, &seal_default);
    let ratio = plan_seal.comm_bytes as f64 / plan_choco.comm_bytes as f64;
    assert!(ratio > 1.5, "expected ~2x saving, got {ratio:.2}x");
}

#[test]
fn provisioning_traffic_is_accounted_and_amortizable() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let mut client = Client::<Bfv>::new(&params, b"provision").unwrap();
    let server = client.provision_server(&[1, 2, 4]).unwrap();
    let bytes = server.relin_key().size_bytes() + server.galois_keys().size_bytes();
    // relin (2 digits × 2 polys × 3 residues) + 4 galois keys (3 steps +
    // column swap).
    let ksk = 2 * 2 * 3 * 1024 * 8; // one key-switching key
    assert_eq!(bytes, ksk + 4 * ksk);
    // Provisioning is one-time: it exceeds a single ciphertext but amortizes
    // across inferences.
    assert!(bytes > params.ciphertext_bytes());
}
