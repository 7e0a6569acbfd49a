//! Edge-case and failure-injection tests for the HE layer: wrong keys,
//! exhausted budgets, cross-context misuse, and boundary plaintexts.

use choco_he::bfv::{BfvContext, Plaintext};
use choco_he::params::HeParams;
use choco_he::HeError;
use choco_prng::Blake3Rng;

fn ctx() -> BfvContext {
    let params = HeParams::bfv_insecure(512, &[40, 40, 41], 14).unwrap();
    BfvContext::new(&params).unwrap()
}

#[test]
fn wrong_secret_key_decrypts_to_garbage() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"right");
    let keys = ctx.keygen(&mut rng);
    let mut rng2 = Blake3Rng::from_seed(b"wrong");
    let other = ctx.keygen(&mut rng2);

    let msg: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 7).collect();
    let pt = Plaintext::from_coeffs(msg.clone());
    let ct = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
    let wrong = ctx.decryptor(other.secret_key()).decrypt(&ct);
    assert_ne!(wrong.coeffs(), &msg[..], "wrong key must not decrypt");
    // And the wrong key sees zero noise budget (pure noise).
    let budget = ctx
        .decryptor(other.secret_key())
        .invariant_noise_budget(&ct);
    assert!(budget < 1.0, "wrong key sees (near-)zero budget: {budget}");
}

#[test]
fn noise_exhaustion_destroys_the_message() {
    // Chain plaintext multiplies until the budget is gone; decryption then
    // returns garbage, and the budget reports 0 — the undecryptable state
    // §2.1 describes.
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"exhaust");
    let keys = ctx.keygen(&mut rng);
    let dec = ctx.decryptor(keys.secret_key());
    let eval = ctx.evaluator();
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    // A non-constant multiplier (an all-ones slot vector would encode to the
    // constant polynomial 1 and add no noise).
    let mvals: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 16).collect();
    let mpt = encoder.encode(&mvals).unwrap();

    let start: Vec<u64> = vec![3; ctx.degree()];
    let mut expect = start.clone();
    let mut ct = ctx
        .encryptor(keys.public_key())
        .encrypt(&encoder.encode(&start).unwrap(), &mut rng);
    let mut budgets = vec![dec.invariant_noise_budget(&ct)];
    for _ in 0..10 {
        ct = eval.multiply_plain(&ct, &mpt);
        for (e, &m) in expect.iter_mut().zip(&mvals) {
            *e = *e * m % t;
        }
        budgets.push(dec.invariant_noise_budget(&ct));
        if *budgets.last().unwrap() < 0.5 {
            break;
        }
    }
    assert!(
        *budgets.last().unwrap() < 0.5,
        "budget must collapse to ~zero: {budgets:?}"
    );
    assert!(
        budgets.windows(2).all(|w| w[1] <= w[0] + 0.5),
        "budget must be non-increasing: {budgets:?}"
    );
    // With the budget exhausted, decryption no longer matches the
    // mathematically expected slotwise products.
    let out = encoder.decode(&dec.decrypt(&ct)).unwrap();
    assert_ne!(out, expect, "exhausted ciphertext must corrupt");
}

#[test]
fn empty_and_full_slot_vectors_roundtrip() {
    let ctx = ctx();
    let encoder = ctx.batch_encoder().unwrap();
    // Empty input → all-zero slots.
    let pt = encoder.encode(&[]).unwrap();
    assert!(encoder.decode(&pt).unwrap().iter().all(|&v| v == 0));
    // Max values at every slot.
    let t = ctx.plain_modulus();
    let full = vec![t - 1; ctx.degree()];
    let pt = encoder.encode(&full).unwrap();
    assert_eq!(encoder.decode(&pt).unwrap(), full);
}

#[test]
fn galois_keys_report_their_elements() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"gk");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx
        .galois_keys(keys.secret_key(), &[1, 2], &mut rng)
        .unwrap();
    let elements = gks.elements();
    // Two rotation elements plus the column-swap element 2N−1.
    assert_eq!(elements.len(), 3);
    assert!(elements.contains(&(2 * ctx.degree() as u64 - 1)));
    assert!(gks.size_bytes() > 0);
}

#[test]
fn missing_galois_key_is_a_clean_error() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"missing");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let pt = Plaintext::from_coeffs(vec![1; ctx.degree()]);
    let ct = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
    // Step 3 was never provisioned.
    let err = ctx.evaluator().rotate_rows(&ct, 3, &gks).unwrap_err();
    assert!(matches!(err, HeError::MissingGaloisKey(_)));
}

#[test]
fn rotating_a_three_part_ciphertext_is_rejected() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"3part");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let pt = Plaintext::from_coeffs(vec![2; ctx.degree()]);
    let ct = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
    let prod = ctx.evaluator().multiply(&ct, &ct).unwrap();
    assert!(matches!(
        ctx.evaluator().rotate_rows(&prod, 1, &gks).unwrap_err(),
        HeError::InvalidCiphertext(_)
    ));
    // Relinearize first, then rotation works.
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let rel = ctx.evaluator().relinearize(&prod, &rk).unwrap();
    assert!(ctx.evaluator().rotate_rows(&rel, 1, &gks).is_ok());
}

#[test]
fn multiplying_a_modulus_switched_ciphertext_is_a_clean_error() {
    // A 1-residue ciphertext parses off the wire, so a tenant can send one
    // to a ct×ct multiply: it must be refused, not panic in the lift.
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"low level");
    let keys = ctx.keygen(&mut rng);
    let pt = Plaintext::from_coeffs(vec![2; ctx.degree()]);
    let full = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
    let eval = ctx.evaluator();
    let low = eval.mod_switch_to_next(&full).unwrap();
    for (a, b) in [(&low, &low), (&low, &full), (&full, &low)] {
        assert!(matches!(
            eval.multiply(a, b).unwrap_err(),
            HeError::Mismatch(_)
        ));
        assert!(matches!(
            eval.multiply_reference(a, b).unwrap_err(),
            HeError::Mismatch(_)
        ));
    }
    assert!(eval.multiply(&full, &full).is_ok());
}

#[test]
fn plain_modulus_dividing_the_coefficient_modulus_is_rejected() {
    // Same bit size for a data prime and t picks the same prime: q has no
    // inverse modulo t, which decryption needs.
    let params = HeParams::bfv_insecure(64, &[30, 31], 30).unwrap();
    assert!(matches!(
        BfvContext::new(&params).unwrap_err(),
        HeError::InvalidParameters(_)
    ));
}

#[test]
fn keygen_is_deterministic_per_seed() {
    let ctx = ctx();
    let ct_a = {
        let mut rng = Blake3Rng::from_seed(b"det seed");
        let keys = ctx.keygen(&mut rng);
        let pt = Plaintext::from_coeffs(vec![5; ctx.degree()]);
        ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng)
    };
    let ct_b = {
        let mut rng = Blake3Rng::from_seed(b"det seed");
        let keys = ctx.keygen(&mut rng);
        let pt = Plaintext::from_coeffs(vec![5; ctx.degree()]);
        ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng)
    };
    assert_eq!(ct_a, ct_b, "same seed, same keys, same ciphertext");
}

#[test]
fn relin_key_size_accounting() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"sizes");
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    // 2 digits × 2 polys × 3 full-basis residues × 512 coeffs × 8 B.
    assert_eq!(rk.size_bytes(), 2 * 2 * 3 * 512 * 8);
}
