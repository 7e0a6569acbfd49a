//! Schedule-permutation race tests: the worker pool's chunk boundaries and
//! spawn order are deterministically perturbed across a sweep of seeds and
//! thread counts, and the *serialized ciphertext bytes* of a full
//! keygen → encrypt → rotate → multiply → relinearize pipeline must come
//! out bit-identical every time. Any data race or schedule-dependent
//! ordering in the parallel NTT/key-switch kernels would show up here as a
//! byte diff.

use choco_he::bfv::BfvContext;
use choco_he::params::HeParams;
use choco_he::serialize::ciphertext_to_bytes;
use choco_math::par;
use choco_prng::Blake3Rng;

/// One full deterministic pipeline run; everything derives from fixed seeds,
/// so the only degree of freedom left is the worker schedule.
fn pipeline_bytes() -> Vec<u8> {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
    let ctx = BfvContext::new(&params).unwrap();
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

#[test]
fn pipeline_bytes_are_schedule_independent() {
    // Reference: strictly sequential, no perturbation.
    par::set_schedule_perturbation(0);
    par::set_num_threads(1);
    let reference = pipeline_bytes();

    for &threads in &[2usize, 4, 8] {
        for &seed in &[0u64, 1, 42, 0xc0ffee, 0x5eed_5eed_5eed_5eed] {
            par::set_num_threads(threads);
            par::set_schedule_perturbation(seed);
            let got = pipeline_bytes();
            assert_eq!(
                got, reference,
                "ciphertext bytes diverged at {threads} threads, perturbation seed {seed:#x}"
            );
        }
    }
    par::set_schedule_perturbation(0);
    par::set_num_threads(0);
}
