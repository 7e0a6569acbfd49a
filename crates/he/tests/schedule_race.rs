//! Schedule-permutation race tests: the worker pool's chunk boundaries and
//! spawn order are deterministically perturbed across a sweep of seeds and
//! thread counts, and the *serialized ciphertext bytes* of a deterministic
//! pipeline must come out bit-identical every time. Any data race or
//! schedule-dependent ordering in the parallel NTT/key-switch kernels would
//! show up here as a byte diff. The pipelines between them reach every
//! pool site of one request: the key switch's component tasks (rotations,
//! relinearizations, under both schemes and at a reduced CKKS level), the
//! BFV tensor product's lift tasks (two for a square, four for distinct
//! operands) and output tasks, the fused rotation dot's (ks prime ×
//! coefficient tile) tasks across a chunk boundary and at a reduced CKKS
//! level, and the row- and digit-parallel sites.

use choco_he::bfv::BfvContext;
use choco_he::ckks::CkksContext;
use choco_he::params::HeParams;
use choco_he::serialize::{ciphertext_to_bytes, ckks_ciphertext_to_bytes};
use choco_math::par;
use choco_prng::Blake3Rng;
use std::sync::Mutex;

/// The thread count and the perturbation seed are process globals: the
/// tests of this file sweep them one at a time.
static SETTINGS: Mutex<()> = Mutex::new(());

/// Runs `pipeline` strictly sequentially, then under every thread count
/// and perturbation seed of the sweep, and asserts the bytes never change.
fn assert_schedule_independent(name: &str, pipeline: fn() -> Vec<u8>) {
    let _settings = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    par::set_schedule_perturbation(0);
    par::set_num_threads(1);
    let reference = pipeline();

    for &threads in &[2usize, 4, 8] {
        for &seed in &[0u64, 1, 42, 0xc0ffee, 0x5eed_5eed_5eed_5eed] {
            par::set_num_threads(threads);
            par::set_schedule_perturbation(seed);
            let got = pipeline();
            assert_eq!(
                got, reference,
                "{name}: ciphertext bytes diverged at {threads} threads, perturbation seed {seed:#x}"
            );
        }
    }
    par::set_schedule_perturbation(0);
    par::set_num_threads(0);
}

fn bfv_context() -> BfvContext {
    BfvContext::new(&HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap()).unwrap()
}

/// keygen → encrypt → rotate → multiply → relinearize → add. Everything
/// derives from fixed seeds, so the only degree of freedom left is the
/// worker schedule.
fn pipeline_bytes() -> Vec<u8> {
    let ctx = bfv_context();
    let mut rng = Blake3Rng::from_seed(b"schedule race");
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let gk = ctx
        .galois_keys(keys.secret_key(), &[1, -3], &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();

    let a: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 17 + 3) % t).collect();
    let b: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 29 + 7) % t).collect();
    let ca = ctx.encrypt_symmetric(&encoder.encode(&a).unwrap(), keys.secret_key(), &mut rng);
    let cb = ctx.encrypt_symmetric(&encoder.encode(&b).unwrap(), keys.secret_key(), &mut rng);

    let eval = ctx.evaluator();
    let rot = eval.rotate_rows(&ca, 1, &gk).unwrap();
    let prod = eval.multiply_relin(&rot, &cb, &rk).unwrap();
    let out = eval.add(&prod, &ca).unwrap();
    ciphertext_to_bytes(&out)
}

/// A BFV multiply of two distinct ciphertexts, with no relinearization:
/// the four-task lift and the three tensor outputs, nothing after them.
fn bfv_multiply_bytes() -> Vec<u8> {
    let ctx = bfv_context();
    let mut rng = Blake3Rng::from_seed(b"schedule race: distinct multiply");
    let keys = ctx.keygen(&mut rng);
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    let a: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 5 + 1) % t).collect();
    let b: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 11 + 2) % t).collect();
    let ca = ctx.encrypt_symmetric(&encoder.encode(&a).unwrap(), keys.secret_key(), &mut rng);
    let cb = ctx.encrypt_symmetric(&encoder.encode(&b).unwrap(), keys.secret_key(), &mut rng);
    let prod = ctx.evaluator().multiply(&ca, &cb).unwrap();
    assert_eq!(prod.size(), 3);
    ciphertext_to_bytes(&prod)
}

/// CKKS multiply with relinearization → rescale → rotate: a key switch at
/// the top level, then one at the level below it.
fn ckks_pipeline_bytes() -> Vec<u8> {
    let ctx = CkksContext::new(&HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap()).unwrap();
    let mut rng = Blake3Rng::from_seed(b"schedule race: ckks");
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng);
    let gk = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let vals: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i % 13) as f64 / 16.0)
        .collect();
    let ct = ctx
        .encrypt_symmetric(&ctx.encode(&vals).unwrap(), keys.secret_key(), &mut rng)
        .unwrap();
    let prod = ctx.multiply_relin(&ct, &ct, &rk).unwrap();
    let scaled = ctx.rescale(&prod).unwrap();
    let out = ctx.rotate(&scaled, 1, &gk).unwrap();
    ckks_ciphertext_to_bytes(&out)
}

/// A fused rotation dot of 35 terms, so it spans two chunks of at most 32,
/// with 3 outputs and the identity term both first and mid-list.
fn bfv_fused_dot_bytes() -> Vec<u8> {
    let ctx = bfv_context();
    let mut rng = Blake3Rng::from_seed(b"schedule race: fused dot");
    let keys = ctx.keygen(&mut rng);
    let steps: Vec<i64> = (1..=33).collect();
    let gk = ctx
        .galois_keys(keys.secret_key(), &steps, &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    let n = ctx.degree() as u64;
    let a: Vec<u64> = (0..n).map(|i| (i * 13 + 5) % t).collect();
    let ct = ctx.encrypt_symmetric(&encoder.encode(&a).unwrap(), keys.secret_key(), &mut rng);
    let eval = ctx.evaluator();
    let taps: Vec<i64> = [0]
        .into_iter()
        .chain(1..=17)
        .chain([0])
        .chain(18..=33)
        .collect();
    assert_eq!(taps.len(), 35);
    let terms = taps.iter().enumerate().map(|(k, &step)| {
        let operands = (0..3u64)
            .map(|o| {
                let w: Vec<u64> = (0..n).map(|i| (i + 7 * k as u64 + o) % 16).collect();
                eval.dot_operand(&encoder.encode(&w)?)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((step, operands))
    });
    let outs = eval.dot_rotations_many(&ct, 3, terms, &gk).unwrap();
    outs.iter().flat_map(ciphertext_to_bytes).collect()
}

/// A CKKS fused dot one level down, where the key-switch basis is the one
/// data prime left plus the special prime, whose key row is the key's last.
fn ckks_level_down_dot_bytes() -> Vec<u8> {
    let ctx = CkksContext::new(&HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap()).unwrap();
    let mut rng = Blake3Rng::from_seed(b"schedule race: ckks dot one level down");
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng);
    let gk = ctx
        .galois_keys(keys.secret_key(), &[1, 2, 5], &mut rng)
        .unwrap();
    let vals: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i % 11) as f64 / 16.0)
        .collect();
    let ct = ctx
        .encrypt_symmetric(&ctx.encode(&vals).unwrap(), keys.secret_key(), &mut rng)
        .unwrap();
    let low = ctx
        .rescale(&ctx.multiply_relin(&ct, &ct, &rk).unwrap())
        .unwrap();
    assert_eq!(low.level() + 1, ct.level());
    let terms = [1i64, 0, 2, 5].into_iter().map(|step| {
        let operands = (0..2)
            .map(|o| {
                let w: Vec<f64> = vals
                    .iter()
                    .map(|v| v * 0.25 + (step + o) as f64 / 8.0)
                    .collect();
                ctx.dot_operand(&w, low.level())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((step, operands))
    });
    let outs = ctx.dot_rotations_many(&low, 2, terms, &gk).unwrap();
    outs.iter().flat_map(ckks_ciphertext_to_bytes).collect()
}

#[test]
fn pipeline_bytes_are_schedule_independent() {
    assert_schedule_independent("bfv pipeline", pipeline_bytes);
}

#[test]
fn bfv_multiply_of_distinct_ciphertexts_is_schedule_independent() {
    assert_schedule_independent("bfv multiply", bfv_multiply_bytes);
}

#[test]
fn ckks_multiply_relin_rescale_rotate_is_schedule_independent() {
    assert_schedule_independent("ckks pipeline", ckks_pipeline_bytes);
}

#[test]
fn fused_dot_across_a_chunk_boundary_is_schedule_independent() {
    assert_schedule_independent("bfv fused dot", bfv_fused_dot_bytes);
}

#[test]
fn ckks_fused_dot_one_level_down_is_schedule_independent() {
    assert_schedule_independent("ckks fused dot one level down", ckks_level_down_dot_bytes);
}
