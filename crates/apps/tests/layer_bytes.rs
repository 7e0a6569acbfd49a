//! Cross-commit byte oracles for the two layer kernels a DNN round runs.
//!
//! The matvec digests were recorded on the commit *before*
//! `matvec_diagonals` became the hybrid (rows-deep diagonals + folds)
//! kernel; that part of this file, unchanged, passed there. The conv
//! digests were re-recorded when a conv layer's packing became
//! channel-diagonal: a download used to carry one output channel, the
//! per-output pass's ciphertext; it now carries an output group — up to
//! `B = row / stride` channels, summed by a rotate-add tree — so both the
//! number of downloaded ciphertexts and their bytes moved on purpose. What
//! the digests pin:
//!
//! * every ciphertext a conv layer downloads — one per output group, in
//!   order — is the channel-diagonal pass's, bit for bit;
//! * a matvec whose column count has no power-of-two factor to fold over
//!   (square, or an odd column count) *is* the full-diagonal kernel, bit
//!   for bit, under both schemes;
//! * the FC reply of a whole LeNet-style inference — two conv rounds, then
//!   the hybrid matvec — is the same ciphertext however the FC is run. It
//!   was recorded while the FC still ran `matvec_diagonals` by hand.
//!
//! Every digest was re-recorded once more when `HeScheme::encrypt` became
//! the seeded symmetric encryption: the uploads feeding these replies
//! changed on purpose, the kernels did not (with `HeScheme::encrypt`
//! pointed back at the public-key Eq. 2, this file's previous digests
//! pass unchanged).
//!
//! The PageRank digests were recorded while a burst still ran by hand on
//! the server role (diagonal matvec, teleport add, mask + rotate
//! re-replication): they pin the reply and the ranks of BFV PageRank
//! however a burst is run. The distance kernels' server-op counts were
//! recorded the same way, from the hand kernels' own tallies.
//!
//! The burst-2 PageRank digest was re-recorded once more when program
//! outputs began to leave the executor modulus-switched
//! (`CompilerScheme::download`): its `{50, 50, 50}` data primes with a
//! 21-bit `t` license a download at two residues of three. The new digest
//! is the old reply switched down one level with `mod_switch_to_next`,
//! the ranks unchanged. The other parameter sets here license no switch,
//! so their digests did not move.
//!
//! Every digest hashes the residues the wires decode to, laid out in the
//! 8-byte residue layout they were recorded over ([`legacy_wire`]), so
//! packing the frames moved none of them.
//!
//! The conv, pipeline and PageRank digests were re-recorded once more when
//! every BFV reply began to leave compressed (`BfvContext::compress_reply`:
//! each component rounded to `k_i` bits and lifted over the download
//! level's basis, replacing the switch above): they now hash the lifted
//! parts of each reply. Run over tapped channels on the commit before
//! that change and on the change, these workloads showed every upload
//! frame, every key wire and every decrypted slot byte-identical, and only
//! the reply frames moved. The matvec digests hash `matvec_diagonals`'
//! own output, which no download step touches, and did not move.
//!
//! Every digest was re-recorded once more when runtime key generation
//! stopped drawing the public key nothing encrypted under: the client's
//! RNG stream after `keygen` moved, so every key, upload and reply moved
//! with it, and no kernel did. With `rlwe::keygen` made to draw and drop
//! that key's `a` and `e` again, this file's previous digests pass
//! unchanged.
//!
//! The ten BFV digests were re-recorded once more when a BFV key set
//! stopped carrying the column-swap key no program rotates by: it was
//! drawn after every other key, so every upload after provisioning moved,
//! and no kernel did (the matvec digests run the rerouted
//! `HeScheme::dot_diagonals`). With `BfvContext::galois_keys` made to draw
//! and drop that key again, this file's previous digests pass unchanged;
//! the CKKS matvec digest did not move.
//!
//! Re-record them only for a change that means to move those bytes, and say
//! so.

#[path = "../../he/tests/common/legacy_wire.rs"]
mod legacy_wire;

use choco::linalg::{matvec_diagonals, replicate_for_matvec};
use choco::protocol::Client;
use choco::transport::Session;
use choco_apps::distance::{distance_rotation_steps, encrypted_distances, PackingVariant};
use choco_apps::dnn::{conv_rotation_steps, ResumableConvLayer};
use choco_apps::pagerank::{pagerank_rotation_steps, Graph, ResumablePagerank};
use choco_apps::pipeline::{
    all_rotation_steps, run_plain, seeded_weights, LenetLikeSpec, ResumablePipeline,
};
use choco_apps::resumable::ResumableWorkload;
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, Ckks, HeScheme};

/// Short hex BLAKE3 digest of the concatenated wire blobs.
fn digest(blobs: &[Vec<u8>]) -> String {
    let mut h = choco_prng::blake3::Hasher::new();
    for b in blobs {
        h.update(b);
    }
    let hash = h.finalize();
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs a conv layer's round and digests every downloaded output
/// ciphertext, in order.
fn conv_layer_digest(
    params: &HeParams,
    (in_ch, h, w, f, out_ch): (usize, usize, usize, usize, usize),
    output_groups: u32,
) -> String {
    let steps = conv_rotation_steps(in_ch, h, w, f);
    let mut session = Session::<Bfv>::direct(params, b"cross-commit conv oracle", &steps).unwrap();
    let input: Vec<Vec<u64>> = (0..in_ch)
        .map(|c| (0..h * w).map(|i| ((i * 7 + c * 3) % 16) as u64).collect())
        .collect();
    let weights: Vec<Vec<Vec<u64>>> = (0..out_ch)
        .map(|o| {
            (0..in_ch)
                .map(|c| {
                    (0..f * f)
                        .map(|i| ((i + 5 * o + 2 * c) % 16) as u64)
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut layer = ResumableConvLayer::new(&input, &weights, h, w, f).unwrap();
    layer.run(&mut session).unwrap();
    assert_eq!(
        session.ledger().downloads,
        output_groups,
        "one download per output group"
    );
    assert_eq!(layer.maps().len(), out_ch);
    // The round's output-group wires, concatenated in download order: the
    // same bytes, so the same digest, as hashing them one by one.
    digest(&[legacy_wire::ciphertexts(
        SchemeType::Bfv,
        &layer.final_ct_wire(),
    )])
}

#[test]
fn conv_layer_output_group_bytes_are_pinned() {
    // 4 blocks of 128 slots: 3 outputs are one group (4 diagonals, no
    // fold); 6 are a group of 4 and a group of 2 (2 diagonals, one fold).
    let small = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
    assert_eq!(
        conv_layer_digest(&small, (4, 8, 8, 3, 3), 1),
        "4c3fac6d4c8dbeb4"
    );
    assert_eq!(
        conv_layer_digest(&small, (4, 8, 8, 3, 6), 2),
        "03c397b8770e312a"
    );
    // The benchmark's conv2 shape at its parameter set: 16 blocks, 4
    // diagonals, no fold.
    assert_eq!(
        conv_layer_digest(&HeParams::set_b(), (4, 8, 8, 5, 8), 1),
        "607e57701306fcec"
    );
}

#[test]
fn pipeline_fc_reply_bytes_are_pinned() {
    // The tiny network end to end, as `pipeline::run_encrypted` runs it over
    // a direct link.
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let spec = LenetLikeSpec::tiny();
    let weights = seeded_weights(&spec, b"cross-commit pipeline oracle");
    let image: Vec<u64> = (0..spec.img * spec.img)
        .map(|i| ((i * 7 + 3) % 16) as u64)
        .collect();
    let steps = all_rotation_steps(&spec, params.degree() / 2);
    let mut session =
        Session::<Bfv>::direct(&params, b"cross-commit pipeline oracle", &steps).unwrap();
    let mut run = ResumablePipeline::new(&spec, &weights, &image).unwrap();
    run.run(&mut session).unwrap();
    let t = params.plain_modulus();
    assert_eq!(run.logits(), run_plain(&spec, &weights, &image, t).0);
    let reply = legacy_wire::ciphertexts(SchemeType::Bfv, &run.final_ct_wire());
    assert_eq!(digest(&[reply]), "a10b3c578fb36b7c");
}

/// `matrix · x` through `matvec_diagonals` from one fixed seed; the digest
/// of the result ciphertext's wire.
fn matvec_digest<S: HeScheme>(
    params: &HeParams,
    matrix: &[Vec<S::Value>],
    x: &[S::Value],
) -> String {
    let mut client = Client::<S>::new(params, b"cross-commit matvec oracle").unwrap();
    let steps: Vec<i64> = (1..x.len() as i64).collect();
    let server = client.provision_server(&steps).unwrap();
    let ct = client
        .encrypt(&replicate_for_matvec(x, server.slot_width()))
        .unwrap();
    let y = matvec_diagonals(&server, &ct, matrix).unwrap();
    digest(&[legacy_wire::ciphertexts(S::SCHEME, &S::ct_to_wire(&y))])
}

#[test]
fn matvec_with_nothing_to_fold_is_the_full_diagonal_kernel_byte_for_byte() {
    let ints = |rows: usize, cols: usize| -> Vec<Vec<u64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 5 + c * 3 + 1) % 16) as u64)
                    .collect()
            })
            .collect()
    };
    let reals = |rows: usize, cols: usize| -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 5 + c * 3) % 9) as f64 / 8.0 - 0.5)
                    .collect()
            })
            .collect()
    };
    let bfv = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
    let ckks = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
    let x8: Vec<u64> = (0..8).map(|i| (i * 3 + 2) % 16).collect();
    let x7: Vec<u64> = x8[..7].to_vec();
    let r8: Vec<f64> = (0..8).map(|i| i as f64 / 4.0 - 1.0).collect();
    // Square (PageRank's shape): a power of two and an odd prime.
    assert_eq!(
        matvec_digest::<Bfv>(&bfv, &ints(8, 8), &x8),
        "73342bb919c5dc17"
    );
    assert_eq!(
        matvec_digest::<Bfv>(&bfv, &ints(7, 7), &x7),
        "6b43219cb6cdd483"
    );
    assert_eq!(
        matvec_digest::<Ckks>(&ckks, &reals(8, 8), &r8),
        "42ce407e0d6772ca"
    );
    // Short and wide over an odd column count: still nothing to fold.
    assert_eq!(
        matvec_digest::<Bfv>(&bfv, &ints(3, 7), &x7),
        "ad925b93c0658b58"
    );
    // The paper's parameter set for the served PageRank.
    assert_eq!(
        matvec_digest::<Bfv>(&HeParams::set_a(), &ints(8, 8), &x8),
        "a4c9300ab2ad7c91"
    );
}

/// BFV PageRank over a 4-node graph with a dangling node, `iterations`
/// iterations in bursts of `burst`, from one fixed seed: the digest of the
/// last reply's wire followed by the final ranks' bits.
fn pagerank_digest(params: &HeParams, iterations: u32, burst: u32, scale_bits: u32) -> String {
    let graph = Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]]);
    let steps = pagerank_rotation_steps(graph.len());
    let mut session =
        Session::<Bfv>::direct(params, b"cross-commit pagerank oracle", &steps).unwrap();
    let mut run =
        ResumablePagerank::<Bfv>::new(&graph, 0.85, iterations, burst, scale_bits).unwrap();
    run.run(&mut session).unwrap();
    let ranks: Vec<u8> = run.ranks().iter().flat_map(|r| r.to_le_bytes()).collect();
    let reply = legacy_wire::ciphertexts(SchemeType::Bfv, &run.final_ct_wire());
    digest(&[reply, ranks])
}

#[test]
fn bfv_pagerank_reply_bytes_are_pinned() {
    // Burst 1: matvec and teleport add only.
    let short = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
    assert_eq!(pagerank_digest(&short, 3, 1, 10), "1cf9956c822678fb");
    // Burst 2: the mask multiply and the rotate-add re-replication between
    // the two iterations of each burst.
    let long = HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 21).unwrap();
    assert_eq!(pagerank_digest(&long, 4, 2, 6), "e65b4bee0a965d3d");
}

#[test]
fn distance_server_ops_are_pinned_at_the_fig11_shapes() {
    // Figure 11's parameter set and shapes; a count per kept variant:
    // point-major, dimension-major, collapsed point-major.
    let params = HeParams::ckks(8192, &[50, 50, 40, 59], 40).unwrap();
    let want = [
        ((4usize, 16usize), [7u64, 7, 69]),
        ((16, 16), [11, 11, 73]),
        ((128, 32), [17, 31, 143]),
    ];
    let variants = [
        PackingVariant::PointMajor,
        PackingVariant::DimensionMajor,
        PackingVariant::CollapsedPointMajor,
    ];
    for ((dims, n), counts) in want {
        let steps = distance_rotation_steps(dims, n, params.slot_count());
        let mut session =
            Session::<Ckks>::direct(&params, b"cross-commit distance oracle", &steps).unwrap();
        let query: Vec<f64> = (0..dims).map(|i| (i as f64 * 0.31).sin()).collect();
        let points: Vec<Vec<f64>> = (0..n)
            .map(|p| {
                (0..dims)
                    .map(|i| ((p * dims + i) as f64 * 0.17).cos())
                    .collect()
            })
            .collect();
        for (variant, want) in variants.into_iter().zip(counts) {
            let res = encrypted_distances(variant, &mut session, &query, &points).unwrap();
            assert_eq!(res.server_ops, want, "{} at ({dims}, {n})", variant.label());
        }
    }
}
