//! Property-based tests of the HE schemes' homomorphic invariants
//! (deterministic quickprop harness).

mod common;

use choco_he::bfv::{BfvContext, Ciphertext, Plaintext};
use choco_he::ckks::CkksContext;
use choco_he::params::{HeParams, SchemeType};
use choco_he::rlwe::{GaloisKeys, PublicKey};
use choco_he::rnspoly::RnsPoly;
use choco_he::serialize::{ciphertext_from_bytes, ciphertext_to_bytes, HEADER_BYTES};
use choco_he::{Bfv, Ckks, HeError, HeScheme};
use choco_math::prime::try_generate_ntt_primes;
use choco_math::UBig;
use choco_prng::Blake3Rng;
use choco_quickprop::run_cases;
use common::legacy_wire;

fn bfv_ctx() -> BfvContext {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    BfvContext::new(&params).unwrap()
}

/// `Σ_k rotate_rows(ct, s_k) ⊙ pt_k` through the one-output fused dot,
/// each plaintext encoded as its term arrives (what `Bfv::dot_diagonals`
/// does after batch-encoding a diagonal).
fn fused_dot(
    ctx: &BfvContext,
    ct: &Ciphertext,
    pairs: &[(i64, Plaintext)],
    gk: &GaloisKeys,
) -> Result<Ciphertext, HeError> {
    let eval = ctx.evaluator();
    let terms = pairs
        .iter()
        .map(|(step, pt)| Ok((*step, [eval.dot_operand(pt)?])));
    Ok(eval.dot_rotations_many(ct, 1, terms, gk)?.remove(0))
}

#[test]
fn bfv_roundtrip_random_slot_vectors() {
    run_cases("bfv roundtrip", 12, |g| {
        let ctx = bfv_ctx();
        let t = ctx.plain_modulus();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let values: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| i.wrapping_mul(seed | 1) % t)
            .collect();
        let encoder = ctx.batch_encoder().unwrap();
        let pt = encoder.encode(&values).unwrap();
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let out = encoder
            .decode(&ctx.decryptor(keys.secret_key()).decrypt(&ct))
            .unwrap();
        assert_eq!(out, values);
    });
}

#[test]
fn bfv_addition_is_homomorphic() {
    run_cases("bfv addition homomorphic", 12, |g| {
        let ctx = bfv_ctx();
        let t = ctx.plain_modulus();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let encoder = ctx.batch_encoder().unwrap();
        let a: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i ^ seed) % t).collect();
        let b: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| i.rotate_left(7).wrapping_add(seed) % t)
            .collect();
        let ca = ctx.encrypt_symmetric(&encoder.encode(&a).unwrap(), keys.secret_key(), &mut rng);
        let cb = ctx.encrypt_symmetric(&encoder.encode(&b).unwrap(), keys.secret_key(), &mut rng);
        let sum = ctx.evaluator().add(&ca, &cb).unwrap();
        let out = encoder
            .decode(&ctx.decryptor(keys.secret_key()).decrypt(&sum))
            .unwrap();
        for i in 0..a.len() {
            assert_eq!(out[i], (a[i] + b[i]) % t);
        }
    });
}

#[test]
fn bfv_plain_multiplication_is_slotwise() {
    run_cases("bfv plain mul slotwise", 12, |g| {
        let ctx = bfv_ctx();
        let t = ctx.plain_modulus();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let encoder = ctx.batch_encoder().unwrap();
        let a: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| (i.wrapping_mul(3).wrapping_add(seed)) % 16)
            .collect();
        let w: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| (i.wrapping_add(seed >> 5)) % 16)
            .collect();
        let ca = ctx.encrypt_symmetric(&encoder.encode(&a).unwrap(), keys.secret_key(), &mut rng);
        let prod = ctx
            .evaluator()
            .multiply_plain(&ca, &encoder.encode(&w).unwrap());
        let out = encoder
            .decode(&ctx.decryptor(keys.secret_key()).decrypt(&prod))
            .unwrap();
        for i in 0..a.len() {
            assert_eq!(out[i], a[i] * w[i] % t);
        }
    });
}

#[test]
fn bfv_rotation_permutes_rows() {
    run_cases("bfv rotation permutes", 7, |g| {
        let step = g.i64_in(1, 8);
        let ctx = bfv_ctx();
        let mut rng = Blake3Rng::from_seed(b"prop rot");
        let keys = ctx.keygen(&mut rng);
        let gks = ctx
            .galois_keys(keys.secret_key(), &[step], &mut rng)
            .unwrap();
        let encoder = ctx.batch_encoder().unwrap();
        let half = ctx.degree() / 2;
        let values: Vec<u64> = (0..ctx.degree() as u64).collect();
        let ct = ctx.encrypt_symmetric(
            &encoder.encode(&values).unwrap(),
            keys.secret_key(),
            &mut rng,
        );
        let rot = ctx.evaluator().rotate_rows(&ct, step, &gks).unwrap();
        let out = encoder
            .decode(&ctx.decryptor(keys.secret_key()).decrypt(&rot))
            .unwrap();
        for i in 0..half {
            assert_eq!(out[i], values[(i + step as usize) % half]);
        }
    });
}

#[test]
fn ckks_add_tracks_float_sum() {
    run_cases("ckks add tracks sum", 12, |g| {
        let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let seed = g.u32();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let a: Vec<f64> = (0..ctx.slot_count())
            .map(|i| ((i as u32 ^ seed) % 100) as f64 / 10.0)
            .collect();
        let b: Vec<f64> = (0..ctx.slot_count())
            .map(|i| ((i as u32).wrapping_add(seed) % 100) as f64 / 10.0)
            .collect();
        let ca = ctx
            .encrypt_symmetric(&ctx.encode(&a).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let cb = ctx
            .encrypt_symmetric(&ctx.encode(&b).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let sum = ctx.add(&ca, &cb).unwrap();
        let out = ctx.decode(&ctx.decrypt(&sum, keys.secret_key()));
        for i in 0..a.len() {
            assert!((out[i] - (a[i] + b[i])).abs() < 1e-2);
        }
    });
}

#[test]
fn ckks_encoder_is_linear() {
    run_cases("ckks encoder linear", 12, |g| {
        let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let seed = g.u32();
        let a: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (((i as u32) ^ seed) % 64) as f64 / 8.0 - 4.0)
            .collect();
        let b: Vec<f64> = (0..ctx.slot_count())
            .map(|i| ((i as u32).wrapping_mul(seed | 1) % 64) as f64 / 8.0 - 4.0)
            .collect();
        // decode(encode(a)) + decode(encode(b)) ≈ decode over slot sums.
        let da = ctx.decode(&ctx.encode(&a).unwrap());
        let db = ctx.decode(&ctx.encode(&b).unwrap());
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ds = ctx.decode(&ctx.encode(&sum).unwrap());
        for i in 0..8 {
            assert!((da[i] + db[i] - ds[i]).abs() < 1e-4);
        }
    });
}

#[test]
fn serialization_roundtrips_any_fresh_ciphertext() {
    run_cases("serialization roundtrip", 12, |g| {
        let ctx = bfv_ctx();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let t = ctx.plain_modulus();
        let values: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| i.wrapping_add(seed) % t)
            .collect();
        let encoder = ctx.batch_encoder().unwrap();
        let ct = ctx
            .encryptor(&pk)
            .encrypt(&encoder.encode(&values).unwrap(), &mut rng);
        let back = ciphertext_from_bytes(&ciphertext_to_bytes(&ct)).unwrap();
        assert_eq!(&back, &ct);
        let out = encoder
            .decode(&ctx.decryptor(keys.secret_key()).decrypt(&back))
            .unwrap();
        assert_eq!(out, values);
    });
}

#[test]
fn seeded_encryption_roundtrips_any_vector() {
    run_cases("seeded encryption roundtrip", 12, |g| {
        let ctx = bfv_ctx();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let t = ctx.plain_modulus();
        let values: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| ((i * 3) ^ seed) % t)
            .collect();
        let encoder = ctx.batch_encoder().unwrap();
        let pt = encoder.encode(&values).unwrap();
        let seeded = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let wire = ciphertext_to_bytes(&seeded);
        let back = ciphertext_from_bytes(&wire).unwrap();
        assert_eq!(back, seeded);
        assert_eq!(ciphertext_to_bytes(&back), wire);
        let out = encoder
            .decode(&ctx.decryptor(keys.secret_key()).decrypt(&back))
            .unwrap();
        assert_eq!(out, values);
    });
}

#[test]
fn hoisted_rotations_match_naive_per_step() {
    run_cases("hoisted rotations match naive", 5, |g| {
        let ctx = bfv_ctx();
        let t = ctx.plain_modulus();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let steps = vec![1i64, 2, g.i64_in(3, 8)];
        let gks = ctx
            .galois_keys(keys.secret_key(), &steps, &mut rng)
            .unwrap();
        let encoder = ctx.batch_encoder().unwrap();
        let values: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| i.wrapping_mul(seed | 1) % t)
            .collect();
        let ct = ctx.encrypt_symmetric(
            &encoder.encode(&values).unwrap(),
            keys.secret_key(),
            &mut rng,
        );
        let dec = ctx.decryptor(keys.secret_key());
        // One fused dot with an output per step, output `o` weighing only
        // its own step's term by the constant 1: every rotation shares one
        // hoisted decomposition, and output `o` is `rotate_rows(ct, s_o)`.
        let eval = ctx.evaluator();
        let mut unit = vec![0; ctx.degree()];
        let zero = eval
            .dot_operand(&Plaintext::from_coeffs(unit.clone()))
            .unwrap();
        unit[0] = 1;
        let one = eval.dot_operand(&Plaintext::from_coeffs(unit)).unwrap();
        let terms = (0..steps.len()).map(|k| {
            let ops: Vec<_> = (0..steps.len())
                .map(|o| if o == k { &one } else { &zero })
                .collect();
            Ok((steps[k], ops))
        });
        let hoisted = eval
            .dot_rotations_many(&ct, steps.len(), terms, &gks)
            .unwrap();
        for (s, h) in steps.iter().zip(&hoisted) {
            let naive = ctx.evaluator().rotate_rows(&ct, *s, &gks).unwrap();
            assert_eq!(
                encoder.decode(&dec.decrypt(h)).unwrap(),
                encoder.decode(&dec.decrypt(&naive)).unwrap(),
                "hoisted rotation by {s} decrypts differently"
            );
            // Hoisting reorganizes the key switch; it must not cost noise
            // beyond rounding jitter relative to the per-step path.
            assert!(
                dec.invariant_noise_budget(h) >= dec.invariant_noise_budget(&naive) - 1.0,
                "hoisted rotation by {s} lost noise budget"
            );
        }
    });
}

#[test]
fn fused_dot_rotations_matches_rotate_multiply_add_chain() {
    run_cases("fused dot rotations match chain", 5, |g| {
        let ctx = bfv_ctx();
        let t = ctx.plain_modulus();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let steps = [0i64, 1, 2, g.i64_in(3, 8)];
        let gks = ctx
            .galois_keys(keys.secret_key(), &steps[1..], &mut rng)
            .unwrap();
        let encoder = ctx.batch_encoder().unwrap();
        let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i ^ seed) % t).collect();
        let ct = ctx.encrypt_symmetric(
            &encoder.encode(&values).unwrap(),
            keys.secret_key(),
            &mut rng,
        );
        let eval = ctx.evaluator();
        let pairs: Vec<_> = steps
            .iter()
            .enumerate()
            .map(|(j, &s)| {
                let w: Vec<u64> = (0..ctx.degree() as u64)
                    .map(|i| (i.wrapping_add(j as u64).wrapping_add(seed >> 7)) % 32)
                    .collect();
                (s, encoder.encode(&w).unwrap())
            })
            .collect();
        let fused = fused_dot(&ctx, &ct, &pairs, &gks).unwrap();
        let mut chain: Option<choco_he::bfv::Ciphertext> = None;
        for (s, pt) in &pairs {
            let rot = if *s == 0 {
                ct.clone()
            } else {
                eval.rotate_rows(&ct, *s, &gks).unwrap()
            };
            let term = eval.multiply_plain(&rot, pt);
            chain = Some(match chain {
                None => term,
                Some(c) => eval.add(&c, &term).unwrap(),
            });
        }
        let chain = chain.unwrap();
        let dec = ctx.decryptor(keys.secret_key());
        assert_eq!(
            encoder.decode(&dec.decrypt(&fused)).unwrap(),
            encoder.decode(&dec.decrypt(&chain)).unwrap(),
            "fused dot decrypts differently"
        );
        // Second hoisting rounds once for the whole sum, so the fused path
        // must be at least as healthy as the chain (up to estimator jitter).
        assert!(
            dec.invariant_noise_budget(&fused) >= dec.invariant_noise_budget(&chain) - 1.0,
            "fused dot lost noise budget"
        );
    });
}

#[test]
fn parallel_and_sequential_evaluation_bit_identical() {
    run_cases("parallel evaluation bit identical", 3, |g| {
        let seed = g.u64();
        let pipeline = |threads: usize| {
            choco_math::par::set_num_threads(threads);
            let ctx = bfv_ctx();
            let t = ctx.plain_modulus();
            let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
            let keys = ctx.keygen(&mut rng);
            let gks = ctx
                .galois_keys(keys.secret_key(), &[1, 3], &mut rng)
                .unwrap();
            let encoder = ctx.batch_encoder().unwrap();
            let values: Vec<u64> = (0..ctx.degree() as u64)
                .map(|i| i.wrapping_add(seed) % t)
                .collect();
            let pt = encoder.encode(&values).unwrap();
            let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
            let eval = ctx.evaluator();
            let prod = eval.multiply_plain(&ct, &pt);
            let rots = [1, 3].map(|s| eval.rotate_rows(&prod, s, &gks).unwrap());
            let out = eval.add(&rots[0], &rots[1]).unwrap();
            choco_math::par::set_num_threads(0); // restore the default
            out
        };
        let seq = pipeline(1);
        assert_eq!(seq, pipeline(2), "2 worker threads diverged");
        let max = choco_math::par::num_threads().max(2);
        assert_eq!(seq, pipeline(max), "{max} worker threads diverged");
    });
}

#[test]
fn bfv_noise_budget_never_increases_under_ops() {
    run_cases("noise budget monotone", 12, |g| {
        let ctx = bfv_ctx();
        let seed = g.u64();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = ctx.keygen(&mut rng);
        let encoder = ctx.batch_encoder().unwrap();
        let dec = ctx.decryptor(keys.secret_key());
        let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 13).collect();
        let pt = encoder.encode(&values).unwrap();
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let fresh = dec.invariant_noise_budget(&ct);
        let added = ctx.evaluator().add(&ct, &ct).unwrap();
        assert!(dec.invariant_noise_budget(&added) <= fresh + 0.5);
        let mul = ctx.evaluator().multiply_plain(&ct, &pt);
        assert!(dec.invariant_noise_budget(&mul) < fresh);
    });
}

/// `multiply` ≡ `multiply_reference` and `decrypt` ≡ `decrypt_reference`,
/// byte for byte, on everything a ciphertext can be: fresh, squared twice
/// (budget spent on the smaller sets), 3-part, at every modulus-switched
/// level, and uniformly random rows (no budget at all). Every square is
/// checked on both multiply paths: the squaring one (`multiply(&a, &a)`) and
/// the general one on a clone.
fn assert_rns_paths_match_the_big_integer_reference(params: &HeParams, label: &str) {
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(label.as_bytes());
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let eval = ctx.evaluator();
    let dec = ctx.decryptor(keys.secret_key());
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    let mut encrypt = |salt: u64| {
        let values: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| i.wrapping_mul(salt).wrapping_add(salt >> 3) % t)
            .collect();
        let pt = encoder.encode(&values).unwrap();
        ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
    };
    let same_product = |a: &Ciphertext, b: &Ciphertext, what: &str| {
        let fast = eval.multiply(a, b).unwrap();
        let reference = eval.multiply_reference(a, b).unwrap();
        assert!(
            ciphertext_to_bytes(&fast) == ciphertext_to_bytes(&reference),
            "{label}: multiply differs from the reference on {what}"
        );
        fast
    };
    // `multiply(&a, &a)` takes the squaring path, `multiply(&a, &a.clone())`
    // the general one; both must be the oracle's bytes.
    let same_square = |a: &Ciphertext, what: &str| {
        let reference = ciphertext_to_bytes(&eval.multiply_reference(a, a).unwrap());
        let square = eval.multiply(a, a).unwrap();
        assert!(
            ciphertext_to_bytes(&square) == reference,
            "{label}: the squaring path differs from the reference on {what}"
        );
        assert!(
            ciphertext_to_bytes(&eval.multiply(a, &a.clone()).unwrap()) == reference,
            "{label}: the general path differs from the reference on {what} squared"
        );
        square
    };
    let same_plaintext_at_every_level = |ct: &Ciphertext, what: &str| {
        let mut ct = ct.clone();
        loop {
            let rows = ct.part(0).row_count();
            assert!(
                dec.decrypt(&ct) == dec.decrypt_reference(&ct),
                "{label}: decrypt differs from the reference on {what} at {rows} residue(s)"
            );
            match eval.mod_switch_to_next(&ct) {
                Ok(next) => ct = next,
                Err(_) => break,
            }
        }
    };

    let (a, b) = (encrypt(0x9E37_79B9), encrypt(0x85EB_CA6B));
    same_plaintext_at_every_level(&a, "a fresh ciphertext");
    let ab = same_product(&a, &b, "fresh operands");
    same_plaintext_at_every_level(&ab, "a 3-part product");
    let mut squared = a;
    for operand in [
        "a fresh ciphertext",
        "one squared once",
        "one squared twice",
    ] {
        let product = same_square(&squared, operand);
        squared = eval.relinearize(&product, &rk).unwrap();
        same_plaintext_at_every_level(&squared, &format!("the square of {operand}"));
    }

    let mut garbage = |parts: usize| {
        let rows = (0..parts).map(|_| RnsPoly::sample_uniform(&mut rng, ctx.data_basis()));
        Ciphertext::from_parts(rows.collect(), ctx.data_basis().primes())
    };
    let (g, h) = (garbage(2), garbage(2));
    assert!(
        dec.invariant_noise_budget(&g) < 1.0,
        "{label}: uniform rows have no budget"
    );
    same_plaintext_at_every_level(&g, "uniform rows");
    same_plaintext_at_every_level(&garbage(3), "uniform rows, 3 parts");
    let gh = same_product(&g, &h, "uniform rows");
    same_plaintext_at_every_level(&gh, "a product of uniform rows");
    same_square(&g, "uniform rows");
}

#[test]
fn rns_multiply_and_decrypt_match_reference_small_set() {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    assert_rns_paths_match_the_big_integer_reference(&params, "insecure N=256");
    // One data prime, and a plain modulus wider than it (t > q): the
    // tensor basis's auxiliary primes are sized by log2(t) as well.
    let params = HeParams::bfv_insecure(64, &[20, 30], 40).unwrap();
    assert_rns_paths_match_the_big_integer_reference(&params, "insecure N=64, t > q");
}

#[test]
fn rns_multiply_and_decrypt_match_reference_set_a() {
    assert_rns_paths_match_the_big_integer_reference(&HeParams::set_a(), "set A");
}

#[test]
fn rns_multiply_and_decrypt_match_reference_set_b() {
    assert_rns_paths_match_the_big_integer_reference(&HeParams::set_b(), "set B");
}

/// A compressed reply both ways is the big-integer oracle's, at sets A and
/// B and a small set: on uniform rows with the edge coefficients `0` and
/// `q − 1` planted, [`BfvContext::compress_reply`] equals
/// [`BfvContext::compress_reply_reference`] row for row and part for part,
/// the reply round-trips its frame, and compressing its lifted parts again
/// gives the same reply (`2^k < q'`). The lift alone equals the oracle on
/// rows of `0`, `1`, the tie `2^{k−1}`, its neighbours and `2^k − 1`.
#[test]
fn reply_compression_and_lift_match_the_big_integer_oracle() {
    let sets = [
        ("set A", HeParams::set_a()),
        ("set B", HeParams::set_b()),
        (
            "N=256",
            HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap(),
        ),
    ];
    for (label, params) in sets {
        let ctx = BfvContext::new(&params).unwrap();
        let data = ctx.data_basis();
        let widths = ctx.reply_widths().unwrap();
        let mut rng = Blake3Rng::from_seed(label.as_bytes());
        let parts = (0..2).map(|_| {
            let mut part = RnsPoly::sample_uniform(&mut rng, data);
            for (i, &q) in data.primes().iter().enumerate() {
                part.row_mut(i)[..2].copy_from_slice(&[0, q - 1]);
            }
            part
        });
        let ct = Ciphertext::from_parts(parts.collect(), data.primes());
        let reply = ctx.compress_reply(&ct).unwrap();
        assert!(
            reply == ctx.compress_reply_reference(&ct).unwrap(),
            "{label}: compression differs from the big-integer oracle"
        );
        assert_eq!(reply.reply().unwrap().widths(), widths);
        assert_eq!(reply.level(), ctx.download_level(), "{label}");
        assert!(ciphertext_from_bytes(&ciphertext_to_bytes(&reply)).unwrap() == reply);
        let lifted = (0..2).map(|i| reply.part(i).clone()).collect();
        let lifted = Ciphertext::from_parts(lifted, reply.moduli());
        assert!(ctx.compress_reply(&lifted).unwrap() == reply, "{label}");

        let moduli = reply.moduli();
        let q_out = moduli.iter().fold(UBig::one(), |q, &m| q.mul_u64(m));
        let rows = widths.map(|k| {
            let edges = [
                0,
                1,
                (1 << (k - 1)) - 1,
                1 << (k - 1),
                (1 << (k - 1)) + 1,
                (1 << k) - 1,
            ];
            (0..params.degree() as u64)
                .map(|j| {
                    edges
                        .get(j as usize)
                        .copied()
                        .unwrap_or(j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - k))
                })
                .collect::<Vec<u64>>()
        });
        let lifted = Ciphertext::from_reply(widths, rows.clone(), moduli).unwrap();
        for (i, (row, k)) in rows.iter().zip(widths).enumerate() {
            let pow2 = UBig::one().shl(k);
            for (j, &c) in row.iter().enumerate() {
                let want = q_out.mul_u64(c).div_round(&pow2);
                for (r, &q) in moduli.iter().enumerate() {
                    assert_eq!(
                        lifted.part(i).row(r)[j],
                        want.rem_u64(q),
                        "{label}: lift of {c} at {k} bits"
                    );
                }
            }
        }
    }
}

/// Short hex BLAKE3 digest of the concatenated wire blobs.
fn digest(blobs: &[&[u8]]) -> String {
    let mut h = choco_prng::blake3::Hasher::new();
    for b in blobs {
        h.update(b);
    }
    let hash = h.finalize();
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// Digests of everything a session provisions or replays, from one fixed
/// seed that also draws the Eq. 2 public key straight after the secret,
/// where runtime keygen drew it until it stopped: the evaluation-key wires
/// (relinearization, then Galois steps `[1, 3, −2]`), a fresh Eq. 2
/// encryption, and the wires of `rotate(3)`, `add`, `sub` and
/// `multiply_relin` on Eq. 2 encryptions; then the compact
/// upload `HeScheme::encrypt` makes of the first vector. The operations
/// `HeScheme` does not carry (the Eq. 2 key and encryption among them) come
/// in as closures.
fn wire_digests<S: HeScheme>(
    params: &HeParams,
    values: [Vec<S::Value>; 2],
    public_key: impl Fn(&S::Context, &S::KeyBundle, &mut Blake3Rng) -> PublicKey,
    encrypt_eq2: impl Fn(&S::Context, &PublicKey, &[S::Value], &mut Blake3Rng) -> S::Ciphertext,
    multiply_relin: impl Fn(&S::Context, [&S::Ciphertext; 2], &S::RelinKey) -> S::Ciphertext,
) -> [String; 7] {
    let ctx = S::context(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"cross-commit wire oracle");
    let keys = S::keygen(&ctx, &mut rng);
    let pk = public_key(&ctx, &keys, &mut rng);
    let rk = S::relin_key(&ctx, &keys, &mut rng).unwrap();
    let gk = S::galois_keys(&ctx, &keys, &[1, 3, -2], &mut rng).unwrap();
    let a = encrypt_eq2(&ctx, &pk, &values[0], &mut rng);
    let b = encrypt_eq2(&ctx, &pk, &values[1], &mut rng);
    let compact = S::encrypt(&ctx, &keys, &values[0], &mut rng).unwrap();
    let wire = |ct: &S::Ciphertext| legacy_wire::ciphertexts(S::SCHEME, &S::ct_to_wire(ct));
    [
        digest(&[
            &legacy_wire::relin(S::SCHEME, &S::relin_to_wire(&rk)),
            &legacy_wire::galois(S::SCHEME, &S::galois_to_wire(&gk)),
        ]),
        digest(&[&wire(&a)]),
        digest(&[&wire(&S::rotate(&ctx, &a, 3, &gk).unwrap())]),
        digest(&[&wire(&S::add(&ctx, &a, &b).unwrap())]),
        digest(&[&wire(&S::sub(&ctx, &a, &b).unwrap())]),
        digest(&[&wire(&multiply_relin(&ctx, [&a, &b], &rk))]),
        digest(&[&wire(&compact)]),
    ]
}

fn bfv_wire_digests(params: &HeParams) -> [String; 7] {
    let t = params.plain_modulus();
    let n = params.degree() as u64;
    wire_digests::<Bfv>(
        params,
        [
            (0..n).map(|i| i * 7 % t).collect(),
            (0..n).map(|i| (i * i + 3) % t).collect(),
        ],
        |ctx, keys, rng| ctx.public_key(keys.secret_key(), rng),
        |ctx, pk, values, rng| {
            let pt = ctx.batch_encoder().unwrap().encode(values).unwrap();
            ctx.encryptor(pk).encrypt(&pt, rng)
        },
        |ctx, [a, b], rk| ctx.evaluator().multiply_relin(a, b, rk).unwrap(),
    )
}

fn ckks_wire_digests(params: &HeParams) -> [String; 7] {
    let slots = params.degree() / 2;
    wire_digests::<Ckks>(
        params,
        [
            (0..slots).map(|i| (i % 17) as f64 / 4.0).collect(),
            (0..slots).map(|i| 2.0 - (i % 5) as f64).collect(),
        ],
        |ctx, keys, rng| ctx.public_key(keys.secret_key(), rng),
        |ctx, pk, values, rng| {
            let pt = ctx.encode(values).unwrap();
            ctx.encrypt(&pt, pk, rng).unwrap()
        },
        |ctx, [a, b], rk| ctx.multiply_relin(a, b, rk).unwrap(),
    )
}

/// Derived key material and replayed encryptions must not change from one
/// build to the next (every digest in this file hashes the residues a frame
/// decodes to in the 8-byte layout they were recorded over,
/// [`legacy_wire`]; the packed frames have pins of their own): a checkpoint
/// written by an older build resumes on this one, deriving its keys again
/// from the seed. Digests 1 to 5 of each set were recorded on the commit
/// before BFV and CKKS were moved onto the shared `rlwe` core (that part of
/// this test passed there); the seventh, the compact upload, when
/// `HeScheme::encrypt` became the seeded symmetric encryption; the first,
/// over the evaluation keys alone, when the key bundle's wire format was
/// deleted (its value read on the commit before, where those two wires were
/// the same). Digests 1 and 6 are encryptions under the derived keys, so
/// they pin the key pair too; they read the same since runtime key
/// generation stopped drawing the public key, which these digests now draw
/// themselves, where key generation drew it. The BFV digests were
/// re-recorded once more when a BFV key set stopped carrying the
/// column-swap key: that key was drawn last, so the Galois wire lost one
/// entry (the earlier key set less that entry encodes to the new first
/// digest) and every later draw moved by one key (with the key drawn and
/// dropped, the earlier digests 1 to 6 passed). A change to RNG draw order,
/// operation order or a wire layout moves them. Re-record them only for a
/// change that means to break that compatibility, and say so.
#[test]
fn key_and_ciphertext_wires_are_byte_stable_across_builds() {
    // relin ‖ galois, fresh Eq. 2, rotate(3), add, sub, multiply_relin,
    // compact upload — at the N = 1024 shapes `apps::remote`
    // pins and at paper sets A and C.
    let bfv_1024 = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    let ckks_1024 = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
    assert_eq!(
        bfv_wire_digests(&bfv_1024),
        [
            "a7939b0e8243066f",
            "bc4130d585b51b31",
            "4d68e194b1730dc5",
            "aa9b6b624ad88f19",
            "89ed1a304c609ca2",
            "01333c31ed354b55",
            "bb3e25936f8c208c"
        ]
    );
    assert_eq!(
        bfv_wire_digests(&HeParams::set_a()),
        [
            "d95c22c7100c1182",
            "364d4fb7a281daec",
            "1e490d29f3481b90",
            "690bfdce31475728",
            "c07fdf2d7a0a1df5",
            "13e306957e96dd85",
            "1d46b6a7939c72ec"
        ]
    );
    assert_eq!(
        ckks_wire_digests(&ckks_1024),
        [
            "a8ec2e1252603937",
            "3a898403e83d6610",
            "fbcebc1ca0ca55b4",
            "fb36894b18e35b9e",
            "c5ae99831bd7407f",
            "5654e1c772e49440",
            "b5b9aa6892fcee07"
        ]
    );
    assert_eq!(
        ckks_wire_digests(&HeParams::set_c()),
        [
            "ea8e0a4503dadc14",
            "3f282289bc997eee",
            "b579db808932d901",
            "431367c6565aed69",
            "da946f4c0d5c032f",
            "f44806e07411cc4f",
            "02f31fec3bb01c96"
        ]
    );
}

/// The packed frames themselves, pinned from the build that introduced
/// them: per paper set, a fresh Eq. 2 encryption's full frame, the compact
/// frame of `HeScheme::encrypt`, and the relinearization and Galois wires,
/// from [`wire_digests`]' seed. A change to the residue codec or to any
/// frame layout moves them. The BFV ones were re-recorded when a BFV key set
/// stopped carrying the column-swap key (the earlier key set less that
/// entry encodes to the new key digest; with the key drawn and dropped, the
/// earlier frame digests passed).
#[test]
fn packed_frames_are_byte_stable_across_builds() {
    fn packed<S: HeScheme>(
        params: &HeParams,
        values: &[S::Value],
        public_key: impl Fn(&S::Context, &S::KeyBundle, &mut Blake3Rng) -> PublicKey,
        encrypt_eq2: impl Fn(&S::Context, &PublicKey, &[S::Value], &mut Blake3Rng) -> S::Ciphertext,
    ) -> [String; 3] {
        let ctx = S::context(params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"cross-commit wire oracle");
        let keys = S::keygen(&ctx, &mut rng);
        let pk = public_key(&ctx, &keys, &mut rng);
        let rk = S::relin_key(&ctx, &keys, &mut rng).unwrap();
        let gk = S::galois_keys(&ctx, &keys, &[1, 3, -2], &mut rng).unwrap();
        let full = encrypt_eq2(&ctx, &pk, values, &mut rng);
        let compact = S::encrypt(&ctx, &keys, values, &mut rng).unwrap();
        [
            digest(&[&S::ct_to_wire(&full)]),
            digest(&[&S::ct_to_wire(&compact)]),
            digest(&[&S::relin_to_wire(&rk), &S::galois_to_wire(&gk)]),
        ]
    }
    let bfv = |params: &HeParams| {
        let t = params.plain_modulus();
        let values: Vec<u64> = (0..params.degree() as u64).map(|i| i * 7 % t).collect();
        packed::<Bfv>(
            params,
            &values,
            |ctx, keys, rng| ctx.public_key(keys.secret_key(), rng),
            |ctx, pk, values, rng| {
                let pt = ctx.batch_encoder().unwrap().encode(values).unwrap();
                ctx.encryptor(pk).encrypt(&pt, rng)
            },
        )
    };
    let set_c = HeParams::set_c();
    let values: Vec<f64> = (0..set_c.degree() / 2)
        .map(|i| (i % 17) as f64 / 4.0)
        .collect();
    let ckks = packed::<Ckks>(
        &set_c,
        &values,
        |ctx, keys, rng| ctx.public_key(keys.secret_key(), rng),
        |ctx, pk, values, rng| {
            let pt = ctx.encode(values).unwrap();
            ctx.encrypt(&pt, pk, rng).unwrap()
        },
    );
    assert_eq!(
        bfv(&HeParams::set_a()),
        ["39a3b6f055fa096f", "a58deefeb3b4d6b9", "80143ae2ab4ceb2f"]
    );
    assert_eq!(
        bfv(&HeParams::set_b()),
        ["6c3241fc33a25303", "39d051ff9e5463ba", "908a4b46c1a859cf"]
    );
    assert_eq!(
        ckks,
        ["14ba561c48e107d1", "14f4a574cd83bd7c", "28f2ccbc50850a95"]
    );
}

/// The residue codec is the identity at every row width an NTT prime has
/// here (20 to 61 bits) and every degree from 16 to 2^15: a full frame of
/// random residues, both ends of each row's range included, decodes to the
/// ciphertext it encodes, at exactly the size the ledger bills — each
/// residue at its prime's width, one word per modulus.
#[test]
fn packing_then_unpacking_is_the_identity_at_every_width_and_degree() {
    let mut rng = Blake3Rng::from_seed(b"packed residue codec");
    for w in 20..=61u32 {
        for log_n in 4..=15 {
            let n = 1usize << log_n;
            let rows = 1 + (w as usize + log_n) % 3;
            let moduli = (1..=rows)
                .rev()
                .find_map(|k| try_generate_ntt_primes(w, n, k))
                .unwrap();
            let mut part = || {
                let mut row = |q: u64| -> Vec<u64> {
                    (0..n as u64)
                        .map(|j| match j % 5 {
                            0 => 0,
                            1 => q - 1,
                            _ => rng.next_u64() % q,
                        })
                        .collect()
                };
                RnsPoly::from_rows(moduli.iter().map(|&q| row(q)).collect())
            };
            let ct = Ciphertext::from_parts(vec![part(), part()], &moduli);
            let wire = ciphertext_to_bytes(&ct);
            let packed = 8 * moduli.len() + 2 * moduli.len() * n * w as usize / 8;
            assert_eq!(ct.byte_size(), packed, "width {w}, degree {n}");
            assert_eq!(wire.len(), HEADER_BYTES + packed, "width {w}, degree {n}");
            assert_eq!(
                ciphertext_from_bytes(&wire).unwrap(),
                ct,
                "width {w}, degree {n}"
            );
        }
    }
}

/// [`fused_dot`] from one fixed seed: steps cycle through
/// `[0, 1, 3, −2]` (step 0 is the unrotated term; a step may repeat), one
/// distinct plaintext per term.
fn fused_dot_digest(params: &HeParams, terms: usize) -> String {
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"cross-commit fused dot oracle");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let gk = ctx
        .galois_keys(keys.secret_key(), &[1, 3, -2], &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    let n = ctx.degree() as u64;
    let values: Vec<u64> = (0..n).map(|i| i * 7 % t).collect();
    let ct = ctx
        .encryptor(&pk)
        .encrypt(&encoder.encode(&values).unwrap(), &mut rng);
    let pairs: Vec<_> = (0..terms as u64)
        .map(|k| {
            let w: Vec<u64> = (0..n).map(|i| (i * (k + 3) + k * k) % t).collect();
            (
                [0i64, 1, 3, -2][k as usize % 4],
                encoder.encode(&w).unwrap(),
            )
        })
        .collect();
    let wire = ciphertext_to_bytes(&fused_dot(&ctx, &ct, &pairs, &gk).unwrap());
    digest(&[&legacy_wire::ciphertexts(SchemeType::Bfv, &wire)])
}

/// The fused dot is the kernel `lenet_direct` spends its server time in; it
/// was lifted into `rlwe::dot_galois` for both schemes, and BFV's output must
/// not have moved by a bit. Digests recorded on the commit before the lift
/// (this test, unchanged, passed there), and re-recorded when a BFV key set
/// stopped carrying the column-swap key, which moved the encryption drawn
/// after the keys (with that key drawn and dropped, the earlier digests
/// passed): 40 terms cross the 32-term lazy-reduction flush.
#[test]
fn bfv_fused_dot_bytes_are_those_of_the_kernel_before_the_lift() {
    let small = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    assert_eq!(fused_dot_digest(&small, 40), "f719deae391fbe24");
    assert_eq!(fused_dot_digest(&HeParams::set_a(), 5), "ed119478f816b0a6");
    assert_eq!(fused_dot_digest(&HeParams::set_b(), 9), "ad783b0838a978e9");
}

/// A CKKS context, its keys (Galois steps `[1, 3, −2]`) and an encryption of
/// a fixed vector, from one fixed seed.
fn ckks_dot_fixture(
    params: &HeParams,
) -> (
    CkksContext,
    choco_he::rlwe::KeyBundle,
    choco_he::rlwe::GaloisKeys,
    choco_he::ckks::CkksCiphertext,
    Vec<f64>,
) {
    let ctx = CkksContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"cross-commit fused dot oracle");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let gk = ctx
        .galois_keys(keys.secret_key(), &[1, 3, -2], &mut rng)
        .unwrap();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i % 17) as f64 / 4.0 - 2.0)
        .collect();
    let pt = ctx.encode(&values).unwrap();
    let ct = ctx.encrypt(&pt, &pk, &mut rng).unwrap();
    (ctx, keys, gk, ct, values)
}

/// `terms` diagonals over steps cycling through `[0, 1, 3, −2]`.
fn ckks_diagonals(slots: usize, terms: usize) -> Vec<(i64, Vec<f64>)> {
    (0..terms)
        .map(|k| {
            let diag = (0..slots).map(|i| ((i + 3 * k) % 9) as f64 / 8.0 - 0.5);
            ([0i64, 1, 3, -2][k % 4], diag.collect())
        })
        .collect()
}

/// The other wrapper of the shared kernel. CKKS has no older bytes to match
/// (its `dot_diagonals` was a per-rotation loop before the lift); these
/// digests were recorded when the kernel landed and pin it from there: the
/// same bits at every `CHOCO_THREADS` and `CHOCO_SIMD` setting ci.sh runs
/// this file under, and on every later build.
#[test]
fn ckks_fused_dot_bytes_are_stable_across_builds_and_backends() {
    let digest_of = |params: &HeParams, terms: usize| {
        let (ctx, _, gk, ct, _) = ckks_dot_fixture(params);
        let diagonals = ckks_diagonals(ctx.slot_count(), terms);
        let out = Ckks::dot_diagonals(&ctx, &ct, &diagonals, &gk).unwrap();
        digest(&[&legacy_wire::ciphertexts(
            SchemeType::Ckks,
            &Ckks::ct_to_wire(&out),
        )])
    };
    let small = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
    assert_eq!(digest_of(&small, 40), "3f5da3aa7172ce05");
    assert_eq!(digest_of(&HeParams::set_c(), 9), "ae87937927406ae8");
}

/// Steps of a `terms`-term many-output case: the identity first, then
/// `1..=24`, cycling (so 25 terms use every key once and 40 repeat some).
fn many_output_steps(terms: usize) -> Vec<i64> {
    (0..terms).map(|k| (k % 25) as i64).collect()
}

/// An `M`-output dot must equal `M` one-output dots of the same kernel,
/// byte for byte: `one(o)` is output `o`'s wire computed alone, `many(m)`
/// the wires of the first `m` outputs computed in one pass.
fn assert_many_outputs_equal_single_outputs(
    label: &str,
    one: impl Fn(usize) -> Vec<u8>,
    many: impl Fn(usize) -> Vec<Vec<u8>>,
) {
    let ones: Vec<Vec<u8>> = (0..8).map(one).collect();
    assert!(ones[0] != ones[1], "{label}: outputs must differ to tell");
    for m in [1usize, 4, 8] {
        assert!(
            many(m) == ones[..m],
            "{label}: the {m}-output dot differs from {m} one-output dots"
        );
    }
}

/// The conv layer's pass: several output channels over one set of hoisted
/// rotations. 25 terms (a 5 × 5 filter, the unrotated centre tap among them)
/// and 40 (across the 32-term lazy-reduction flush), at a small ring and at
/// the benchmark's set B. Runs under every `CHOCO_THREADS` × `CHOCO_SIMD`
/// setting ci.sh runs this file with.
#[test]
fn bfv_many_output_dot_equals_one_output_dots_byte_for_byte() {
    let small = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    for (label, params, terms) in [
        ("insecure-1024, 25 terms", &small, 25),
        ("insecure-1024, 40 terms", &small, 40),
        ("set B, 25 terms", &HeParams::set_b(), 25),
    ] {
        let ctx = BfvContext::new(params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"many-output dot oracle");
        let keys = ctx.keygen(&mut rng);
        let key_steps: Vec<i64> = (1..25).collect();
        let gk = ctx
            .galois_keys(keys.secret_key(), &key_steps, &mut rng)
            .unwrap();
        let encoder = ctx.batch_encoder().unwrap();
        let (t, n) = (ctx.plain_modulus(), ctx.degree() as u64);
        let values: Vec<u64> = (0..n).map(|i| i * 7 % t).collect();
        let ct = ctx.encrypt_symmetric(
            &encoder.encode(&values).unwrap(),
            keys.secret_key(),
            &mut rng,
        );
        let eval = ctx.evaluator();
        let steps = many_output_steps(terms);
        // operands[k][o]: term k's factor for output o.
        let operands: Vec<Vec<_>> = (0..terms as u64)
            .map(|k| {
                (0..8u64)
                    .map(|o| {
                        let w: Vec<u64> = (0..n).map(|i| (i * (k + 3) + o * o + k) % t).collect();
                        eval.dot_operand(&encoder.encode(&w).unwrap()).unwrap()
                    })
                    .collect()
            })
            .collect();
        let terms_of = || steps.iter().copied().zip(&operands);
        assert_many_outputs_equal_single_outputs(
            label,
            |o| {
                let terms = terms_of().map(|(s, ops)| Ok((s, [&ops[o]])));
                let out = eval.dot_rotations_many(&ct, 1, terms, &gk).unwrap();
                ciphertext_to_bytes(&out[0])
            },
            |m| {
                let terms = terms_of().map(|(s, ops)| Ok((s, &ops[..m])));
                let outs = eval.dot_rotations_many(&ct, m, terms, &gk).unwrap();
                outs.iter().map(ciphertext_to_bytes).collect()
            },
        );
    }
}

#[test]
fn ckks_many_output_dot_equals_one_output_dots_byte_for_byte() {
    let small = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
    for (label, params, terms) in [
        ("insecure-1024, 25 terms", &small, 25),
        ("insecure-1024, 40 terms", &small, 40),
        ("set C, 25 terms", &HeParams::set_c(), 25),
    ] {
        let ctx = CkksContext::new(params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"many-output dot oracle");
        let keys = ctx.keygen(&mut rng);
        let key_steps: Vec<i64> = (1..25).collect();
        let gk = ctx
            .galois_keys(keys.secret_key(), &key_steps, &mut rng)
            .unwrap();
        let slots = ctx.slot_count();
        let values: Vec<f64> = (0..slots).map(|i| (i % 17) as f64 / 4.0 - 2.0).collect();
        let pt = ctx.encode(&values).unwrap();
        let ct = ctx
            .encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
            .unwrap();
        let steps = many_output_steps(terms);
        let operands: Vec<Vec<_>> = (0..terms)
            .map(|k| {
                (0..8)
                    .map(|o| {
                        let diag: Vec<f64> = (0..slots)
                            .map(|i| ((i + 3 * k + 5 * o) % 9) as f64 / 8.0 - 0.5)
                            .collect();
                        ctx.dot_operand(&diag, ct.level()).unwrap()
                    })
                    .collect()
            })
            .collect();
        let terms_of = || steps.iter().copied().zip(&operands);
        assert_many_outputs_equal_single_outputs(
            label,
            |o| {
                let terms = terms_of().map(|(s, ops)| Ok((s, [&ops[o]])));
                let out = ctx.dot_rotations_many(&ct, 1, terms, &gk).unwrap();
                Ckks::ct_to_wire(&out[0])
            },
            |m| {
                let terms = terms_of().map(|(s, ops)| Ok((s, &ops[..m])));
                let outs = ctx.dot_rotations_many(&ct, m, terms, &gk).unwrap();
                outs.iter().map(Ckks::ct_to_wire).collect()
            },
        );
    }
}

/// Operand lists arrive from callers that transpose taps into terms, and
/// steps from wire programs: a list of the wrong length, no output at all
/// and a step without a key are refused, not indexed past.
#[test]
fn many_output_dot_rejects_miscounted_operands_and_missing_keys() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"many-output dot errors");
    let keys = ctx.keygen(&mut rng);
    let gk = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let pt = encoder.encode(&[3, 1, 4]).unwrap();
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
    let eval = ctx.evaluator();
    let op = eval.dot_operand(&pt).unwrap();
    let dot = |outputs: usize, terms: &[(i64, &[&choco_he::rlwe::DotOperand])]| {
        let terms = terms.iter().copied().map(Ok);
        eval.dot_rotations_many(&ct, outputs, terms, &gk)
    };
    assert_eq!(
        dot(2, &[(0, &[&op, &op]), (1, &[&op, &op])]).unwrap().len(),
        2
    );
    let mismatch = |r: Result<Vec<Ciphertext>, HeError>| matches!(r, Err(HeError::Mismatch(_)));
    assert!(mismatch(dot(2, &[(0, &[&op, &op]), (1, &[&op])])));
    assert!(mismatch(dot(2, &[(0, &[&op, &op, &op])])));
    assert!(mismatch(dot(0, &[(0, &[])])));
    assert!(mismatch(dot(1, &[])));
    assert!(matches!(
        dot(2, &[(0, &[&op, &op]), (2, &[&op, &op])]),
        Err(HeError::MissingGaloisKey(_))
    ));
}

#[test]
fn fused_dot_is_bit_identical_at_every_thread_count() {
    let bfv = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    let ckks = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
    let at = |threads: usize| {
        choco_math::par::set_num_threads(threads);
        let (ctx, _, gk, ct, _) = ckks_dot_fixture(&ckks);
        let diagonals = ckks_diagonals(ctx.slot_count(), 40);
        let out = Ckks::dot_diagonals(&ctx, &ct, &diagonals, &gk).unwrap();
        let digests = (fused_dot_digest(&bfv, 40), Ckks::ct_to_wire(&out));
        choco_math::par::set_num_threads(0); // restore the default
        digests
    };
    let seq = at(1);
    assert!(seq == at(2), "2 worker threads diverged");
    assert!(seq == at(4), "4 worker threads diverged");
}

#[test]
fn ckks_fused_dot_matches_the_composition_of_public_ops() {
    // A 3-level and a 2-level chain; on the longer one also one level down.
    // The dot ends in a rescale, so level 1 has nowhere to go.
    let long = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
    let short = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
    for (params, drop_to) in [(&long, None), (&long, Some(2)), (&short, None)] {
        let (ctx, keys, gk, ct, values) = ckks_dot_fixture(params);
        let ct = match drop_to {
            Some(level) => ctx.mod_switch_to(&ct, level).unwrap(),
            None => ct,
        };
        let slots = ctx.slot_count();
        let diagonals = ckks_diagonals(slots, 6);
        let fused = Ckks::dot_diagonals(&ctx, &ct, &diagonals, &gk).unwrap();
        assert_eq!(fused.level(), ct.level() - 1);

        let mut composed: Option<choco_he::ckks::CkksCiphertext> = None;
        for (step, diag) in &diagonals {
            let rotated = match step {
                0 => ct.clone(),
                _ => ctx.rotate(&ct, *step, &gk).unwrap(),
            };
            let pt = ctx
                .encode_at(diag, rotated.level(), ctx.default_scale())
                .unwrap();
            let term = ctx.multiply_plain(&rotated, &pt).unwrap();
            composed = Some(match composed {
                None => term,
                Some(acc) => ctx.add(&acc, &term).unwrap(),
            });
        }
        let composed = ctx.rescale(&composed.unwrap()).unwrap();
        assert_eq!(fused.level(), composed.level());
        assert_eq!(fused.scale(), composed.scale());

        let decode = |c| ctx.decode(&ctx.decrypt(c, keys.secret_key()));
        let (got, want) = (decode(&fused), decode(&composed));
        for j in 0..slots {
            let plain: f64 = diagonals
                .iter()
                .map(|(s, d)| d[j] * values[(j as i64 + s).rem_euclid(slots as i64) as usize])
                .sum();
            assert!(
                (got[j] - plain).abs() < 1e-4,
                "slot {j}: {} vs {plain}",
                got[j]
            );
            assert!(
                (got[j] - want[j]).abs() < 1e-4,
                "slot {j}: {} vs {}",
                got[j],
                want[j]
            );
        }

        let bottom = ctx.mod_switch_to(&ct, 1).unwrap();
        assert!(matches!(
            Ckks::dot_diagonals(&ctx, &bottom, &diagonals, &gk),
            Err(choco_he::HeError::Mismatch(_))
        ));
    }
}

/// A fresh seeded encryption carries one error term, `e`, where Eq. 2
/// carries `u·e + e1 + e2·s`: at the paper's BFV sets A and B its invariant
/// noise budget is at least an Eq. 2 encryption's of the same vector, and at
/// set C its CKKS decrypt error is no larger. The static verifier's
/// fresh-noise model is Eq. 2's, so it stays an upper bound for what the
/// client uploads.
#[test]
fn a_seeded_upload_is_no_noisier_than_an_eq2_encryption() {
    for params in [HeParams::set_a(), HeParams::set_b()] {
        let ctx = BfvContext::new(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"seeded vs eq2 noise");
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let dec = ctx.decryptor(keys.secret_key());
        let t = ctx.plain_modulus();
        for round in 0..4u64 {
            let values: Vec<u64> = (0..ctx.degree() as u64)
                .map(|i| (i * 31 + round) % t)
                .collect();
            let pt = ctx.batch_encoder().unwrap().encode(&values).unwrap();
            let eq2 = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
            let seeded = Bfv::encrypt(&ctx, &keys, &values, &mut rng).unwrap();
            let (seeded, eq2) = (
                dec.invariant_noise_budget(&seeded),
                dec.invariant_noise_budget(&eq2),
            );
            assert!(
                seeded >= eq2,
                "N = {}: seeded budget {seeded} < Eq. 2 budget {eq2}",
                params.degree()
            );
        }
    }
    let ctx = CkksContext::new(&HeParams::set_c()).unwrap();
    let mut rng = Blake3Rng::from_seed(b"seeded vs eq2 ckks error");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let max_error = |ct: &choco_he::ckks::CkksCiphertext, values: &[f64]| {
        let got = ctx.decode(&ctx.decrypt(ct, keys.secret_key()));
        got.iter()
            .zip(values)
            .map(|(g, v)| (g - v).abs())
            .fold(0.0, f64::max)
    };
    for round in 0..4 {
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| ((i * 7 + round) % 23) as f64 / 4.0 - 2.0)
            .collect();
        let pt = ctx.encode(&values).unwrap();
        let eq2 = ctx.encrypt(&pt, &pk, &mut rng).unwrap();
        let seeded = Ckks::encrypt(&ctx, &keys, &values, &mut rng).unwrap();
        let (seeded, eq2) = (max_error(&seeded, &values), max_error(&eq2, &values));
        assert!(seeded <= eq2, "seeded error {seeded} > Eq. 2 error {eq2}");
    }
}
