//! Mutation fuzzing of the wire deserializers (deterministic quickprop
//! harness).
//!
//! The deserializers sit on the trust boundary: anything a channel can
//! mangle reaches them verbatim. The contract is *never panic* — every
//! mutated frame either fails with a typed [`HeError`] or parses as some
//! well-formed ciphertext (semantic integrity is the transport tag's job,
//! one layer up). Key blobs (bundle, relinearization key, Galois set) go
//! through one decoder per kind for both schemes, so both schemes' blobs are
//! driven through each from one table.

use choco_he::bfv::{BfvContext, Plaintext};
use choco_he::ckks::CkksContext;
use choco_he::params::HeParams;
use choco_he::serialize::{
    ciphertext_from_bytes, ciphertext_to_bytes, ckks_ciphertext_from_bytes,
    ckks_ciphertext_to_bytes, galois_from_bytes, keys_from_bytes, relin_from_bytes,
};
use choco_he::{Bfv, Ckks, HeError, HeScheme, SchemeType};
use choco_math::rns::RnsBasis;
use choco_prng::Blake3Rng;
use choco_quickprop::{run_cases, Gen};
use std::panic::RefUnwindSafe;

fn bfv_frame() -> Vec<u8> {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize bfv");
    let keys = ctx.keygen(&mut rng);
    let pt = Plaintext::from_coeffs((0..256u64).map(|i| i % 100).collect());
    let ct = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
    ciphertext_to_bytes(&ct)
}

fn ckks_frame() -> Vec<u8> {
    let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
    let ctx = CkksContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize ckks");
    let keys = ctx.keygen(&mut rng);
    let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 / 8.0).collect();
    let pt = ctx.encode(&values).unwrap();
    let ct = ctx.encrypt(&pt, keys.public_key(), &mut rng).unwrap();
    ckks_ciphertext_to_bytes(&ct)
}

/// Applies a random mutation (byte flips, truncation, extension, or a
/// combination) to `frame`.
fn mutate(g: &mut Gen, frame: &[u8]) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    match g.u64_below(4) {
        0 => {
            // Flip 1..=8 random bytes anywhere in the frame.
            for _ in 0..g.usize_in(1, 9) {
                let i = g.usize_in(0, bytes.len());
                bytes[i] ^= g.u8().max(1);
            }
        }
        1 => {
            // Truncate to a random prefix (possibly empty).
            bytes.truncate(g.usize_in(0, bytes.len()));
        }
        2 => {
            // Append random garbage.
            bytes.extend(g.bytes(64));
        }
        _ => {
            // Truncate then flip — compound damage.
            bytes.truncate(g.usize_in(1, bytes.len()));
            let i = g.usize_in(0, bytes.len());
            bytes[i] ^= g.u8().max(1);
        }
    }
    bytes
}

#[test]
fn bfv_deserializer_never_panics_on_mutations() {
    let frame = bfv_frame();
    run_cases("bfv mutation fuzz", 256, |g| {
        let bytes = mutate(g, &frame);
        // Err or Ok are both acceptable; a panic fails the whole property
        // (quickprop catches it and reports the case index).
        let _ = ciphertext_from_bytes(&bytes);
    });
}

#[test]
fn ckks_deserializer_never_panics_on_mutations() {
    let frame = ckks_frame();
    run_cases("ckks mutation fuzz", 256, |g| {
        let bytes = mutate(g, &frame);
        let _ = ckks_ciphertext_from_bytes(&bytes);
    });
}

#[test]
fn deserializers_never_panic_on_pure_noise() {
    run_cases("noise fuzz", 256, |g| {
        let bytes = g.bytes(512);
        let _ = ciphertext_from_bytes(&bytes);
        let _ = ckks_ciphertext_from_bytes(&bytes);
    });
}

#[test]
fn truncations_always_yield_typed_errors() {
    // Every strict prefix must fail cleanly — a shorter frame can never be
    // a valid ciphertext of the same header.
    let frame = bfv_frame();
    for len in 0..frame.len() {
        assert!(
            ciphertext_from_bytes(&frame[..len]).is_err(),
            "prefix of {len} bytes parsed"
        );
    }
    let frame = ckks_frame();
    for len in 0..frame.len() {
        assert!(
            ckks_ciphertext_from_bytes(&frame[..len]).is_err(),
            "ckks prefix of {len} bytes parsed"
        );
    }
}

/// A key-wire decoder with its output dropped.
type KeyDecoder = Box<dyn Fn(SchemeType, &[u8]) -> Result<(), HeError> + RefUnwindSafe>;

/// One scheme's three key blobs, each with the decoder that reads it (the
/// bundle against `params`' full basis).
fn key_blobs<S: HeScheme>(params: &HeParams) -> Vec<(SchemeType, Vec<u8>, KeyDecoder)> {
    let ctx = S::context(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize keys");
    let keys = S::keygen(&ctx, &mut rng);
    let rk = S::relin_key(&ctx, &keys, &mut rng).unwrap();
    let gk = S::galois_keys(&ctx, &keys, &[1, 2], &mut rng).unwrap();
    let full = RnsBasis::new(params.degree(), params.primes()).unwrap();
    vec![
        (
            S::SCHEME,
            S::keys_to_wire(&keys),
            Box::new(move |s, b| keys_from_bytes(s, &full, b).map(drop)),
        ),
        (
            S::SCHEME,
            S::relin_to_wire(&rk),
            Box::new(|s, b| relin_from_bytes(s, b).map(drop)),
        ),
        (
            S::SCHEME,
            S::galois_to_wire(&gk),
            Box::new(|s, b| galois_from_bytes(s, b).map(drop)),
        ),
    ]
}

/// Both schemes' key blobs: the table every key-wire property runs over.
fn all_key_blobs() -> Vec<(SchemeType, Vec<u8>, KeyDecoder)> {
    let bfv = HeParams::bfv_insecure(64, &[40, 40, 41], 14).unwrap();
    let ckks = HeParams::ckks_insecure(64, &[45, 45, 46], 38).unwrap();
    let mut table = key_blobs::<Bfv>(&bfv);
    table.extend(key_blobs::<Ckks>(&ckks));
    table
}

#[test]
fn key_decoders_never_panic_and_answer_only_typed_key_errors() {
    for (scheme, blob, decode) in all_key_blobs() {
        assert_eq!(decode(scheme, &blob), Ok(()));
        run_cases("key blob mutation fuzz", 128, |g| {
            let bytes = mutate(g, &blob);
            for s in [SchemeType::Bfv, SchemeType::Ckks] {
                if let Err(e) = decode(s, &bytes) {
                    assert!(matches!(e, HeError::InvalidKeyMaterial(_)), "{e}");
                }
            }
        });
        // Every strict prefix fails cleanly.
        for len in (0..blob.len())
            .step_by(97)
            .chain(blob.len() - 24..blob.len())
        {
            assert!(decode(scheme, &blob[..len]).is_err(), "prefix {len} parsed");
        }
    }
}

#[test]
fn a_key_blob_of_one_scheme_is_never_accepted_as_the_others() {
    // One decoder serves both schemes, so the scheme byte of the magic is
    // the only thing between a `CHG1` blob and the CKKS decoder (or a
    // `CHB2` blob and the BFV one).
    for (scheme, blob, decode) in all_key_blobs() {
        let other = match scheme {
            SchemeType::Bfv => SchemeType::Ckks,
            SchemeType::Ckks => SchemeType::Bfv,
        };
        assert!(matches!(
            decode(other, &blob),
            Err(HeError::InvalidKeyMaterial(_))
        ));
    }
}
