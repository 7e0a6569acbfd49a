//! Edge-case and failure-injection tests for the HE layer: wrong keys,
//! exhausted budgets, cross-context misuse, and boundary plaintexts.

use choco_he::bfv::{BfvContext, Plaintext};
use choco_he::ckks::{CkksCiphertext, CkksContext};
use choco_he::keyswitch::galois_element_rows;
use choco_he::params::HeParams;
use choco_he::rlwe;
use choco_he::HeError;
use choco_math::rns::RnsBasis;
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
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
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
    let mut ct = ctx.encrypt_symmetric(
        &encoder.encode(&start).unwrap(),
        keys.secret_key(),
        &mut rng,
    );
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
        .galois_keys(keys.secret_key(), &[1, 3, -2], &mut rng)
        .unwrap();
    // Exactly the three rotations asked for: no column-swap key rides along.
    let n = ctx.degree();
    let mut want: Vec<u64> = [1, 3, -2]
        .map(|s| galois_element_rows(s, n).unwrap())
        .into();
    want.sort_unstable();
    assert_eq!(gks.elements(), want);
    assert!(gks.size_bytes() > 0);
    // So the column swap (the automorphism 2N − 1) has no key to use.
    let pt = Plaintext::from_coeffs(vec![1; n]);
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
    let full = RnsBasis::new(n, ctx.params().primes()).unwrap();
    let parts = [ct.part(0).clone(), ct.part(1).clone()];
    let swap = rlwe::apply_galois(&parts, 2 * n as u64 - 1, &gks, &full, ctx.data_basis());
    assert!(matches!(swap, Err(HeError::MissingGaloisKey(_))));
}

#[test]
fn missing_galois_key_is_a_clean_error() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"missing");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let pt = Plaintext::from_coeffs(vec![1; ctx.degree()]);
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
    // Step 3 was never provisioned.
    let eval = ctx.evaluator();
    let err = eval.rotate_rows(&ct, 3, &gks).unwrap_err();
    assert!(matches!(err, HeError::MissingGaloisKey(_)));
    let op = eval.dot_operand(&pt).unwrap();
    let terms = [(1, [&op]), (3, [&op])].map(Ok);
    let err = eval.dot_rotations_many(&ct, 1, terms, &gks).unwrap_err();
    assert!(matches!(err, HeError::MissingGaloisKey(_)));
}

#[test]
fn rotating_a_three_part_ciphertext_is_rejected() {
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"3part");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let pt = Plaintext::from_coeffs(vec![2; ctx.degree()]);
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
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
    let full = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
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
        ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
    };
    let ct_b = {
        let mut rng = Blake3Rng::from_seed(b"det seed");
        let keys = ctx.keygen(&mut rng);
        let pt = Plaintext::from_coeffs(vec![5; ctx.degree()]);
        ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
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

fn ckks_ctx() -> CkksContext {
    let params = HeParams::ckks_insecure(512, &[45, 45, 45, 46], 30).unwrap();
    CkksContext::new(&params).unwrap()
}

/// Steps that name no rotation at ring degree 512: zero, `±N/2`, beyond,
/// and `i64::MIN` (which has no absolute value).
const BAD_STEPS: [i64; 6] = [0, 256, -256, 300, i64::MAX, i64::MIN];

#[test]
fn out_of_range_rotation_steps_are_clean_errors_bfv() {
    // Steps arrive in wire programs; a bad one must be refused, not panic.
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"bad steps");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let pt = Plaintext::from_coeffs(vec![1; ctx.degree()]);
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
    let eval = ctx.evaluator();
    let op = eval.dot_operand(&pt).unwrap();
    let bad = |e: HeError| matches!(e, HeError::InvalidParameters(_));
    for step in BAD_STEPS {
        assert!(bad(eval.rotate_rows(&ct, step, &gks).unwrap_err()));
        assert!(bad(ctx
            .galois_keys(keys.secret_key(), &[1, step], &mut rng)
            .unwrap_err()));
        // Step 0 means "the ciphertext itself" to the fused dot.
        if step != 0 {
            let terms = [(1, [&op]), (step, [&op])].map(Ok);
            assert!(bad(eval
                .dot_rotations_many(&ct, 1, terms, &gks)
                .unwrap_err()));
        }
    }
    assert!(eval.rotate_rows(&ct, 1, &gks).is_ok());
}

#[test]
fn out_of_range_rotation_steps_are_clean_errors_ckks() {
    let ctx = ckks_ctx();
    let mut rng = Blake3Rng::from_seed(b"bad steps ckks");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let ct = ctx
        .encrypt_symmetric(&ctx.encode(&[1.0]).unwrap(), keys.secret_key(), &mut rng)
        .unwrap();
    let op = ctx.dot_operand(&[1.0], ct.level()).unwrap();
    let bad = |e: HeError| matches!(e, HeError::InvalidParameters(_));
    for step in BAD_STEPS {
        assert!(bad(ctx.rotate(&ct, step, &gks).unwrap_err()));
        assert!(bad(ctx
            .galois_keys(keys.secret_key(), &[1, step], &mut rng)
            .unwrap_err()));
        if step != 0 {
            let terms = [(1, [&op]), (step, [&op])].map(Ok);
            assert!(bad(ctx
                .dot_rotations_many(&ct, 1, terms, &gks)
                .unwrap_err()));
        }
    }
    assert!(ctx.rotate(&ct, 1, &gks).is_ok());
}

#[test]
fn mixed_level_and_mixed_size_operands_are_clean_errors_bfv() {
    // A 1-residue or 3-component ciphertext parses off the wire: add, sub
    // and rotations must refuse the combinations they cannot serve.
    let ctx = ctx();
    let mut rng = Blake3Rng::from_seed(b"mixed bfv");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let pt = Plaintext::from_coeffs(vec![2; ctx.degree()]);
    let full = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
    let eval = ctx.evaluator();
    let low = eval.mod_switch_to_next(&full).unwrap();
    let three = eval.multiply(&full, &full).unwrap();
    let mismatch = |e: HeError| matches!(e, HeError::Mismatch(_));
    for (a, b) in [
        (&low, &full),
        (&full, &low),
        (&three, &full),
        (&full, &three),
    ] {
        assert!(mismatch(eval.add(a, b).unwrap_err()));
        assert!(mismatch(eval.sub(a, b).unwrap_err()));
    }
    // Both at the same lower level is ordinary arithmetic.
    let dec = ctx.decryptor(keys.secret_key());
    let sum = eval.add(&low, &low).unwrap();
    assert!(dec.decrypt(&sum).coeffs().iter().all(|&c| c == 4));
    let diff = eval.sub(&sum, &low).unwrap();
    assert!(dec.decrypt(&diff).coeffs().iter().all(|&c| c == 2));
    // Key switching exists at the full data modulus only.
    assert!(mismatch(eval.rotate_rows(&low, 1, &gks).unwrap_err()));
    let op = eval.dot_operand(&pt).unwrap();
    let terms = [(0, [&op]), (1, [&op])].map(Ok);
    assert!(mismatch(
        eval.dot_rotations_many(&low, 1, terms, &gks).unwrap_err()
    ));
    let low_three = eval.mod_switch_to_next(&three).unwrap();
    assert!(mismatch(eval.relinearize(&low_three, &rk).unwrap_err()));
}

#[test]
fn mixed_level_and_mixed_size_operands_are_clean_errors_ckks() {
    let ctx = ckks_ctx();
    let mut rng = Blake3Rng::from_seed(b"mixed ckks");
    let keys = ctx.keygen(&mut rng);
    let two = ctx
        .encrypt_symmetric(&ctx.encode(&[1.5]).unwrap(), keys.secret_key(), &mut rng)
        .unwrap();
    // A 3-component CKKS ciphertext never comes out of the evaluator
    // (multiply relinearizes at once) but parses off the wire.
    let parts = vec![
        two.part(0).clone(),
        two.part(1).clone(),
        two.part(1).clone(),
    ];
    let three = CkksCiphertext::from_parts(parts, two.moduli(), two.scale());
    let low = ctx.mod_switch_to(&two, 2).unwrap();
    let mismatch = |e: HeError| matches!(e, HeError::Mismatch(_));
    for (a, b) in [(&three, &two), (&two, &three), (&low, &two), (&two, &low)] {
        assert!(mismatch(ctx.add(a, b).unwrap_err()));
        assert!(mismatch(ctx.sub(a, b).unwrap_err()));
    }
    // Moduli that lie about the rows (hand-built; the wire parser ties
    // the two) are caught by the same check.
    let lying = CkksCiphertext::from_parts(
        vec![low.part(0).clone(), low.part(1).clone()],
        two.moduli(),
        two.scale(),
    );
    assert!(mismatch(ctx.add(&lying, &two).unwrap_err()));
    // Both low is ordinary arithmetic.
    let sum = ctx.add(&low, &low).unwrap();
    let out = ctx.decode(&ctx.decrypt(&ctx.sub(&sum, &low).unwrap(), keys.secret_key()));
    assert!((out[0] - 1.5).abs() < 1e-3);
}

#[test]
fn a_rotation_step_listed_twice_is_keyed_once() {
    // CKKS hands its steps over in caller order, duplicates included; the
    // second occurrence must neither draw from the RNG nor replace the key.
    let ctx = ckks_ctx();
    let keygen = |steps: &[i64]| {
        let mut rng = Blake3Rng::from_seed(b"dup steps");
        let keys = ctx.keygen(&mut rng);
        let gks = ctx.galois_keys(keys.secret_key(), steps, &mut rng).unwrap();
        (
            choco_he::serialize::galois_to_bytes(choco_he::SchemeType::Ckks, &gks),
            rng.next_u64(),
        )
    };
    assert!(keygen(&[1, 2, 1]) == keygen(&[1, 2]));
}
