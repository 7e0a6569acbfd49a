//! The client's own outputs, pinned bit for bit: decrypted BFV slots, CKKS
//! decoded `f64` bits, BFV noise-budget `f64` bits down to an exhausted
//! budget, and the RNG position after key generation and encryptions. The
//! values were recorded on the commit before the client path was reworked
//! (key transforms cached, bulk sampling, limb CRT composition) and this
//! file passed there unedited; a change that moves any of them changes what
//! a client computes or where a resumed session's RNG stands.
//!
//! Besides paper sets A, B and C, two insecure N = 1024 chains with 3 and 4
//! data primes cover composition moduli above 128 bits.
//!
//! Runtime key generation draws the secret alone. The Eq. 2 helpers here
//! draw the public key (`public_key`) straight after it, where key
//! generation drew it until it stopped, so every value below reads as it
//! did then; one pin holds the RNG position after key generation alone.
//!
//! The wire digests were recorded over the 8-byte residue layout that
//! preceded packed frames. They hash a frame's decoded residues laid out
//! that way ([`legacy_wire`]), so they still pin the ciphertexts; the
//! packed frames themselves have pins of their own.

mod common;

use common::legacy_wire;

use choco_he::bfv::{BfvContext, Ciphertext};
use choco_he::ckks::{CkksCiphertext, CkksContext};
use choco_he::params::{HeParams, SchemeType};
use choco_he::serialize::{ciphertext_to_bytes, ckks_ciphertext_to_bytes};
use choco_prng::Blake3Rng;

/// Short hex BLAKE3 digest of 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> String {
    let mut h = choco_prng::blake3::Hasher::new();
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.finalize()[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Short hex BLAKE3 digest of a wire blob.
fn wire_digest(bytes: &[u8]) -> String {
    choco_prng::blake3::hash(bytes)[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn f64_digest(values: &[f64]) -> String {
    digest(values.iter().map(|v| v.to_bits()))
}

/// BFV at `params`: a fresh encryption's wire, its decrypted slots, the
/// slots of its square (relinearized), and of the square switched down one
/// level.
fn bfv_slots(params: &HeParams, seed: &[u8]) -> [String; 4] {
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(seed);
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 31 + 7) % t).collect();
    let ct = ctx
        .encryptor(&pk)
        .encrypt(&encoder.encode(&values).unwrap(), &mut rng);
    let dec = ctx.decryptor(keys.secret_key());
    let slots = |ct: &Ciphertext| digest(encoder.decode(&dec.decrypt(ct)).unwrap());
    let eval = ctx.evaluator();
    let square = eval.multiply_relin(&ct, &ct, &rk).unwrap();
    let switched = eval.mod_switch_to_next(&square).unwrap();
    [
        wire_digest(&legacy_wire::ciphertexts(
            SchemeType::Bfv,
            &ciphertext_to_bytes(&ct),
        )),
        slots(&ct),
        slots(&square),
        slots(&switched),
    ]
}

#[test]
fn bfv_decrypted_slots_at_sets_a_and_b() {
    assert_eq!(
        bfv_slots(&HeParams::set_a(), b"client bytes bfv a"),
        [
            "eab8e33c7f5feba0",
            "f0d1f3e508dfcf92",
            "de269ea147e44ce2",
            "de269ea147e44ce2"
        ]
    );
    assert_eq!(
        bfv_slots(&HeParams::set_b(), b"client bytes bfv b"),
        [
            "19f607ec13f147b0",
            "412a4eafda9ab15e",
            "b4b83a4c70d0ff3b",
            "b4b83a4c70d0ff3b"
        ]
    );
}

/// CKKS at `params`: a fresh encryption's wire, the decoded bits at the top
/// level, and after `ct × ct`, relinearization and one rescale.
fn ckks_decoded(params: &HeParams, seed: &[u8]) -> [String; 3] {
    let ctx = CkksContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(seed);
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng);
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i % 29) as f64 - 14.0) / 8.0)
        .collect();
    let ct = ctx
        .encrypt(&ctx.encode(&values).unwrap(), &pk, &mut rng)
        .unwrap();
    let decoded =
        |ct: &CkksCiphertext| f64_digest(&ctx.decode(&ctx.decrypt(ct, keys.secret_key())));
    let product = ctx.multiply_relin(&ct, &ct, &rk).unwrap();
    let rescaled = ctx.rescale(&product).unwrap();
    assert_eq!(rescaled.level(), ctx.top_level() - 1);
    let wire = ckks_ciphertext_to_bytes(&ct);
    [
        wire_digest(&legacy_wire::ciphertexts(SchemeType::Ckks, &wire)),
        decoded(&ct),
        decoded(&rescaled),
    ]
}

#[test]
fn ckks_decoded_bits_at_set_c_top_and_after_a_rescale() {
    assert_eq!(
        ckks_decoded(&HeParams::set_c(), b"client bytes ckks c"),
        ["4163c0424e6f86fc", "75221f1e889369e7", "b225af09f07cc139"]
    );
}

/// The noise budget's `f64` bits on a fresh ciphertext and after 1, 2, 3
/// and 4 multiplies by it (each relinearized), then once more on the last
/// product switched down a level.
fn noise_budgets(params: &HeParams, seed: &[u8]) -> Vec<u64> {
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(seed);
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 3).collect();
    let fresh = ctx
        .encryptor(&pk)
        .encrypt(&encoder.encode(&values).unwrap(), &mut rng);
    let dec = ctx.decryptor(keys.secret_key());
    let eval = ctx.evaluator();
    let mut budgets = vec![dec.invariant_noise_budget(&fresh).to_bits()];
    let mut ct = fresh.clone();
    for _ in 0..4 {
        ct = eval.multiply_relin(&ct, &fresh, &rk).unwrap();
        budgets.push(dec.invariant_noise_budget(&ct).to_bits());
    }
    let switched = eval.mod_switch_to_next(&ct).unwrap();
    budgets.push(dec.invariant_noise_budget(&switched).to_bits());
    budgets
}

#[test]
fn bfv_noise_budget_bits_down_to_exhaustion() {
    let a = noise_budgets(&HeParams::set_a(), b"client bytes budget a");
    let b = noise_budgets(&HeParams::set_b(), b"client bytes budget b");
    assert_eq!(
        a,
        [
            4635456458692698757,
            4630128627508120894,
            4595479849905461248,
            4555726761706127360,
            4532951921165598720,
            0
        ]
    );
    assert_eq!(
        b,
        [
            4631367487195681240,
            4620042914138259528,
            4554349067518345216,
            4553751262189977600,
            4545561005043744768,
            0
        ]
    );
    // The chains run the budget out: the last multiplies measure 0.
    assert_eq!(a.last(), Some(&0.0f64.to_bits()));
    assert_eq!(b.last(), Some(&0.0f64.to_bits()));
}

/// `bytes_drawn` after keygen, relin key, Galois keys and each of three
/// encryptions.
fn rng_positions_bfv(params: &HeParams) -> Vec<u64> {
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"client bytes rng bfv");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let mut at = vec![rng.bytes_drawn()];
    ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    at.push(rng.bytes_drawn());
    ctx.galois_keys(keys.secret_key(), &[1, 2, -3], &mut rng)
        .unwrap();
    at.push(rng.bytes_drawn());
    let enc = ctx.encryptor(&pk);
    let pt = ctx.batch_encoder().unwrap().encode(&[5; 8]).unwrap();
    for _ in 0..3 {
        enc.encrypt(&pt, &mut rng);
        at.push(rng.bytes_drawn());
    }
    at
}

fn rng_positions_ckks(params: &HeParams) -> Vec<u64> {
    let ctx = CkksContext::new(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"client bytes rng ckks");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let mut at = vec![rng.bytes_drawn()];
    ctx.relin_key(keys.secret_key(), &mut rng);
    at.push(rng.bytes_drawn());
    ctx.galois_keys(keys.secret_key(), &[1, 2, -3], &mut rng)
        .unwrap();
    at.push(rng.bytes_drawn());
    let pt = ctx.encode(&[0.5; 8]).unwrap();
    for _ in 0..3 {
        ctx.encrypt(&pt, &pk, &mut rng).unwrap();
        at.push(rng.bytes_drawn());
    }
    at
}

#[test]
fn rng_position_after_keys_and_three_encryptions() {
    assert_eq!(
        rng_positions_bfv(&HeParams::set_b()),
        [163840, 491520, 1802240, 1966080, 2129920, 2293760]
    );
    assert_eq!(
        rng_positions_ckks(&HeParams::set_c()),
        [327680, 983040, 2949120, 3276800, 3604480, 3932160]
    );
}

/// `bytes_drawn` after runtime key generation alone — the secret, and
/// nothing else — at sets B and C, from the seeds above.
#[test]
fn rng_position_after_runtime_keygen_alone() {
    let mut rng = Blake3Rng::from_seed(b"client bytes rng bfv");
    BfvContext::new(&HeParams::set_b())
        .unwrap()
        .keygen(&mut rng);
    let mut crng = Blake3Rng::from_seed(b"client bytes rng ckks");
    CkksContext::new(&HeParams::set_c())
        .unwrap()
        .keygen(&mut crng);
    assert_eq!([rng.bytes_drawn(), crng.bytes_drawn()], [32768, 65536]);
}

#[test]
fn wide_moduli_with_three_and_four_data_primes() {
    let bfv3 = HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 17).unwrap();
    let bfv4 = HeParams::bfv_insecure(1024, &[50, 50, 50, 50, 51], 17).unwrap();
    for params in [&bfv3, &bfv4] {
        assert!(BfvContext::new(params).unwrap().q_bits() > 128.0);
    }
    assert_eq!(
        bfv_slots(&bfv3, b"client bytes bfv 3"),
        [
            "aa3db3483d3d490f",
            "bef3a70237fe4380",
            "25617070750390e6",
            "25617070750390e6"
        ]
    );
    assert_eq!(
        bfv_slots(&bfv4, b"client bytes bfv 4"),
        [
            "4d46fbaa08213298",
            "bef3a70237fe4380",
            "25617070750390e6",
            "25617070750390e6"
        ]
    );
    assert_eq!(
        noise_budgets(&bfv3, b"client bytes budget 3"),
        [
            4638380342469716113,
            4636104105914800687,
            4634297478648945127,
            4630734921971081992,
            4623679811611260912,
            4623679811611260912
        ]
    );
    assert_eq!(
        noise_budgets(&bfv4, b"client bytes budget 4"),
        [
            4640303548410502535,
            4639105070730438919,
            4637690983629583108,
            4635844852248434661,
            4633767695431895426,
            4633767695431895426
        ]
    );
    let ckks3 = HeParams::ckks_insecure(1024, &[50, 45, 45, 51], 45).unwrap();
    let ckks4 = HeParams::ckks_insecure(1024, &[50, 45, 45, 45, 51], 45).unwrap();
    assert_eq!(
        ckks_decoded(&ckks3, b"client bytes ckks 3"),
        ["0190a1e80cb2092a", "5cd61f0664e2e43a", "adc011661b086d09"]
    );
    assert_eq!(
        ckks_decoded(&ckks4, b"client bytes ckks 4"),
        ["f62ef7f2cdf7f82b", "69962f7e30ad2fb9", "995b1341255efc19"]
    );
}
