//! Regenerates **Table 1**: the HE operation set with measured cost and
//! noise growth.
//!
//! The paper states asymptotic complexity; this binary measures the real
//! implementation at parameter set B (N = 4096, k = 3) — wall time per op
//! and invariant-noise-budget consumption — confirming the complexity and
//! noise-growth classes.

#![forbid(unsafe_code)]
use choco_bench::{header, time_str, timed_avg};
use choco_he::bfv::{BfvContext, Plaintext};
use choco_he::params::HeParams;
use choco_prng::Blake3Rng;

fn main() {
    header("Table 1: HE operations — measured time and noise growth (set B)");
    let params = HeParams::set_b();
    let ctx = BfvContext::new(&params).expect("context");
    let mut rng = Blake3Rng::from_seed(b"table1");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).expect("relin");
    let gks = ctx
        .galois_keys(keys.secret_key(), &[1], &mut rng)
        .expect("galois");
    let encoder = ctx.batch_encoder().expect("batch");
    let dec = ctx.decryptor(keys.secret_key());
    let eval = ctx.evaluator();

    let values: Vec<u64> = (0..params.degree() as u64).map(|i| i % 16).collect();
    let pt = encoder.encode(&values).expect("encode");
    let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
    let fresh = dec.invariant_noise_budget(&ct);
    let iters = 5;

    println!(
        "{:<22} {:>12} {:>16} {:<10}",
        "Operation", "Time", "Noise cost (bits)", "Class"
    );

    let t_enc = timed_avg(iters, || {
        let _ = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
    });
    println!(
        "{:<22} {:>12} {:>16} {:<10}",
        "Encrypt",
        time_str(t_enc),
        "-",
        "N/A"
    );

    let t_dec = timed_avg(iters, || {
        let _ = dec.decrypt(&ct);
    });
    println!(
        "{:<22} {:>12} {:>16} {:<10}",
        "Decrypt",
        time_str(t_dec),
        "-",
        "N/A"
    );

    let pt_small = Plaintext::from_coeffs(vec![1; params.degree()]);
    let t_pa = timed_avg(iters, || {
        let _ = eval.add_plain(&ct, &pt_small);
    });
    let cost_pa = fresh - dec.invariant_noise_budget(&eval.add_plain(&ct, &pt_small));
    println!(
        "{:<22} {:>12} {:>16.1} {:<10}",
        "Plaintext Add",
        time_str(t_pa),
        cost_pa,
        "Small"
    );

    let t_ca = timed_avg(iters, || {
        let _ = eval.add(&ct, &ct).unwrap();
    });
    let cost_ca = fresh - dec.invariant_noise_budget(&eval.add(&ct, &ct).unwrap());
    println!(
        "{:<22} {:>12} {:>16.1} {:<10}",
        "Ciphertext Add",
        time_str(t_ca),
        cost_ca,
        "Small"
    );

    let t_pm = timed_avg(iters, || {
        let _ = eval.multiply_plain(&ct, &pt);
    });
    let cost_pm = fresh - dec.invariant_noise_budget(&eval.multiply_plain(&ct, &pt));
    println!(
        "{:<22} {:>12} {:>16.1} {:<10}",
        "Plaintext Multiply",
        time_str(t_pm),
        cost_pm,
        "Moderate"
    );

    let t_cm = timed_avg(2, || {
        let _ = eval.multiply_relin(&ct, &ct, &rk).unwrap();
    });
    let cost_cm = fresh - dec.invariant_noise_budget(&eval.multiply_relin(&ct, &ct, &rk).unwrap());
    println!(
        "{:<22} {:>12} {:>16.1} {:<10}",
        "Ciphertext Multiply",
        time_str(t_cm),
        cost_cm,
        "Large"
    );

    let t_rot = timed_avg(iters, || {
        let _ = eval.rotate_rows(&ct, 1, &gks).unwrap();
    });
    let cost_rot = fresh - dec.invariant_noise_budget(&eval.rotate_rows(&ct, 1, &gks).unwrap());
    println!(
        "{:<22} {:>12} {:>16.1} {:<10}",
        "Ciphertext Rotate",
        time_str(t_rot),
        cost_rot,
        "Small"
    );

    println!("\nFresh noise budget: {fresh:.1} bits.");
    println!(
        "Complexity classes (paper): add O(Nr); encrypt/decrypt/plain-mul\n\
         O(N logN r); ct-mul & rotate O(N logN r^2) — visible in the timings."
    );
}
