//! Mutation fuzzing of the wire deserializers (deterministic quickprop
//! harness).
//!
//! The deserializers sit on the trust boundary: anything a channel can
//! mangle reaches them verbatim. The contract is *never panic* — every
//! mutated frame either fails with a typed [`HeError`] or parses as some
//! well-formed ciphertext (semantic integrity is the transport tag's job,
//! one layer up). Key blobs (relinearization key, Galois set) go
//! through one decoder per kind for both schemes, so both schemes' blobs are
//! driven through each from one table.
//!
//! Every decoder is also held to *exactness*: a frame it accepts re-encodes
//! to exactly its bytes, so a residue at or above its prime and a set
//! padding bit are refused, never silently reduced or dropped. Compact
//! frames (a fresh encryption: `c0`, its moduli and the 32-byte seed of
//! `c1`) are an amplifier — the decoder expands the seed into a whole
//! polynomial — so every ciphertext decoder is held to *bounded work*: a
//! frame claiming a huge ring is refused before anything of that size is
//! allocated, which this binary's allocator measures.
//!
//! A compressed reply (`CPD1`: two parts rounded to `k0` and `k1` bits,
//! lifted on decode over the moduli it carries) goes through the same
//! three: mutations and truncations are typed errors or exact frames, a
//! huge ring is refused before allocating, and each way a reply frame can
//! be malformed — a width of 0, of 62 or more, or not below the lift
//! modulus's bits, a part count other than 2, a wrong length — is refused
//! as [`HeError::InvalidCiphertext`]. A reply frame has no padding bits
//! (`N·k_i` is a multiple of 8 for every legal `N`), so its padding check
//! is reached through the row codec's unit tests. Widths the frame carries
//! correctly but that are not the client's licence decode, and the client
//! refuses them before decrypting.

use choco_he::bfv::{BfvContext, Plaintext};
use choco_he::ckks::CkksContext;
use choco_he::params::HeParams;
use choco_he::serialize::{
    ciphertext_from_bytes, ciphertext_to_bytes, ckks_ciphertext_from_bytes,
    ckks_ciphertext_to_bytes, galois_from_bytes, galois_to_bytes, relin_from_bytes, relin_to_bytes,
    HEADER_BYTES, REPLY_HEADER_BYTES,
};
use choco_he::{Bfv, Ckks, HeError, HeScheme, SchemeType};
use choco_prng::Blake3Rng;
use choco_quickprop::{run_cases, Gen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest single request the calling
/// thread has made since [`largest_allocation_during`] last reset it.
struct PeakAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping is a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns the size of the largest single allocation it made.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(Cell::get)
}

fn bfv_frame() -> Vec<u8> {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize bfv");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let pt = Plaintext::from_coeffs((0..256u64).map(|i| i % 100).collect());
    let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
    ciphertext_to_bytes(&ct)
}

fn ckks_frame() -> Vec<u8> {
    let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
    let ctx = CkksContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize ckks");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 / 8.0).collect();
    let pt = ctx.encode(&values).unwrap();
    let ct = ctx.encrypt(&pt, &pk, &mut rng).unwrap();
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
    assert!(decode_is_exact::<Bfv>(&frame));
    run_cases("bfv mutation fuzz", 256, |g| {
        // Err or Ok are both acceptable; a panic fails the whole property
        // (quickprop catches it and reports the case index), and so does an
        // accepted frame that re-encodes differently.
        decode_is_exact::<Bfv>(&mutate(g, &frame));
    });
}

#[test]
fn ckks_deserializer_never_panics_on_mutations() {
    let frame = ckks_frame();
    assert!(decode_is_exact::<Ckks>(&frame));
    run_cases("ckks mutation fuzz", 256, |g| {
        decode_is_exact::<Ckks>(&mutate(g, &frame));
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

/// A key-wire decoder that re-encodes what it accepts.
type KeyDecoder = fn(SchemeType, &[u8]) -> Result<Vec<u8>, HeError>;

/// One scheme's two key blobs, each with the decoder that reads it.
fn key_blobs<S: HeScheme>(params: &HeParams) -> Vec<(SchemeType, Vec<u8>, KeyDecoder)> {
    let ctx = S::context(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize keys");
    let keys = S::keygen(&ctx, &mut rng);
    let rk = S::relin_key(&ctx, &keys, &mut rng).unwrap();
    let gk = S::galois_keys(&ctx, &keys, &[1, 2], &mut rng).unwrap();
    vec![
        (S::SCHEME, S::relin_to_wire(&rk), |s, b| {
            relin_from_bytes(s, b).map(|k| relin_to_bytes(s, &k))
        }),
        (S::SCHEME, S::galois_to_wire(&gk), |s, b| {
            galois_from_bytes(s, b).map(|k| galois_to_bytes(s, &k))
        }),
    ]
}

/// Decodes a key blob; one the decoder accepts re-encodes to exactly its
/// bytes, and one it refuses is refused as key material.
fn key_decode_is_exact(decode: KeyDecoder, scheme: SchemeType, bytes: &[u8]) -> bool {
    match decode(scheme, bytes) {
        Ok(again) => {
            assert_eq!(again, bytes, "accepted key blob re-encodes differently");
            true
        }
        Err(e) => {
            assert!(matches!(e, HeError::InvalidKeyMaterial(_)), "{e}");
            false
        }
    }
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
        assert!(key_decode_is_exact(decode, scheme, &blob));
        run_cases("key blob mutation fuzz", 128, |g| {
            let bytes = mutate(g, &blob);
            for s in [SchemeType::Bfv, SchemeType::Ckks] {
                key_decode_is_exact(decode, s, &bytes);
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
    // the only thing between a `CPG1` blob and the CKKS decoder (or a
    // `CPR2` blob and the BFV one).
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

/// A fresh encryption's compact frame under `S` at `params`.
fn compact_frame<S: HeScheme>(params: &HeParams, values: &[S::Value]) -> Vec<u8> {
    let ctx = S::context(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize compact");
    let keys = S::keygen(&ctx, &mut rng);
    S::ct_to_wire(&S::encrypt(&ctx, &keys, values, &mut rng).unwrap())
}

fn bfv_compact_frame() -> Vec<u8> {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    compact_frame::<Bfv>(&params, &(0..256).map(|i| i % 100).collect::<Vec<u64>>())
}

fn ckks_compact_frame() -> Vec<u8> {
    let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
    compact_frame::<Ckks>(
        &params,
        &(0..128).map(|i| i as f64 / 8.0).collect::<Vec<_>>(),
    )
}

/// Decodes `bytes` as an `S` ciphertext; a frame the decoder accepts
/// re-encodes to exactly its bytes (a decoded compact frame keeps its seed).
fn decode_is_exact<S: HeScheme>(bytes: &[u8]) -> bool {
    match S::ct_from_wire(bytes) {
        Ok(ct) => {
            assert_eq!(
                S::ct_to_wire(&ct),
                bytes,
                "accepted frame re-encodes differently"
            );
            true
        }
        Err(_) => false,
    }
}

#[test]
fn compact_decoders_never_panic_and_accept_only_what_they_reencode() {
    let bfv = bfv_compact_frame();
    let ckks = ckks_compact_frame();
    assert!(decode_is_exact::<Bfv>(&bfv));
    assert!(decode_is_exact::<Ckks>(&ckks));
    run_cases("compact mutation fuzz", 256, |g| {
        decode_is_exact::<Bfv>(&mutate(g, &bfv));
        decode_is_exact::<Ckks>(&mutate(g, &ckks));
    });
    // A flipped seed byte is still a well-formed frame (the transport tag
    // catches it); a flipped header, modulus or residue word mostly is not.
    let mut flipped = bfv.clone();
    flipped[12 + 2 * 8] ^= 1;
    assert!(decode_is_exact::<Bfv>(&flipped));
}

#[test]
fn compact_truncations_always_yield_typed_errors() {
    for (frame, name) in [(bfv_compact_frame(), "bfv"), (ckks_compact_frame(), "ckks")] {
        for len in 0..frame.len() {
            let prefix = &frame[..len];
            assert!(
                Bfv::ct_from_wire(prefix).is_err() && Ckks::ct_from_wire(prefix).is_err(),
                "{name} compact prefix of {len} bytes parsed"
            );
        }
    }
}

#[test]
fn compact_frames_with_bad_moduli_or_residues_are_refused() {
    let frame = bfv_compact_frame();
    // Moduli start after the 12-byte header; two of them, then the seed.
    let modulus = |bytes: &[u8], i: usize| {
        u64::from_le_bytes(bytes[12 + 8 * i..20 + 8 * i].try_into().unwrap())
    };
    let with_modulus = |i: usize, q: u64| {
        let mut bytes = frame.clone();
        bytes[12 + 8 * i..20 + 8 * i].copy_from_slice(&q.to_le_bytes());
        bytes
    };
    let q0 = modulus(&frame, 0);
    for (q, why) in [
        (0, "zero"),
        (1, "one"),
        (q0 * 3, "composite"),
        (modulus(&frame, 1), "duplicate"),
        ((1 << 61) + 1, "too wide"),
        (2 * 256 * 3 + 1, "1537 = 29 · 53"),
    ] {
        assert!(
            Bfv::ct_from_wire(&with_modulus(0, q)).is_err(),
            "modulus {q} ({why}) accepted"
        );
    }
    // A prime that is not NTT-friendly for N = 256.
    assert!(Bfv::ct_from_wire(&with_modulus(0, 1_000_000_007)).is_err());
    // A c0 residue at or above its prime.
    let mut bytes = frame.clone();
    let c0 = 12 + 2 * 8 + 32;
    bytes[c0..c0 + 8].copy_from_slice(&q0.to_le_bytes());
    assert!(Bfv::ct_from_wire(&bytes).is_err());
}

/// A context whose replies are compressed, its keys, and the reply of an
/// encryption: lifted over one 40-bit residue at widths `(25, 33)`.
fn reply_setup() -> (BfvContext, choco_he::rlwe::KeyBundle, Vec<u8>) {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"fuzz serialize reply");
    let keys = ctx.keygen(&mut rng);
    let values: Vec<u64> = (0..256).map(|i| i % 100).collect();
    let ct = Bfv::encrypt(&ctx, &keys, &values, &mut rng).unwrap();
    let reply = ciphertext_to_bytes(&ctx.compress_reply(&ct).unwrap());
    (ctx, keys, reply)
}

fn reply_frame() -> Vec<u8> {
    reply_setup().2
}

/// Header word `i` (after the magic) of a reply frame, set to `value`.
fn with_word(frame: &[u8], i: usize, value: u32) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    bytes[4 + 4 * i..8 + 4 * i].copy_from_slice(&value.to_le_bytes());
    bytes
}

#[test]
fn reply_decoder_never_panics_and_accepts_only_what_it_reencodes() {
    let frame = reply_frame();
    assert_eq!(&frame[..4], b"CPD1");
    assert_eq!(frame.len(), REPLY_HEADER_BYTES + 8 + 256 * (25 + 33) / 8);
    assert!(decode_is_exact::<Bfv>(&frame));
    assert!(Ckks::ct_from_wire(&frame).is_err());
    run_cases("reply mutation fuzz", 256, |g| {
        decode_is_exact::<Bfv>(&mutate(g, &frame));
        // Noise behind a reply magic, to get past the first check.
        let mut noise = b"CPD1".to_vec();
        noise.extend(g.bytes(64));
        decode_is_exact::<Bfv>(&noise);
    });
    // Any flipped bit of `c0'` or `c1'` is still a well-formed reply (the
    // transport tag catches it): it lifts and re-encodes exactly.
    for at in [REPLY_HEADER_BYTES + 8, frame.len() / 2, frame.len() - 1] {
        let mut flipped = frame.clone();
        flipped[at] ^= 0x41;
        assert!(decode_is_exact::<Bfv>(&flipped), "flip at {at}");
    }
    for len in 0..frame.len() {
        assert!(
            Bfv::ct_from_wire(&frame[..len]).is_err(),
            "reply prefix of {len} bytes parsed"
        );
    }
}

#[test]
fn malformed_reply_frames_are_refused_as_invalid_ciphertexts() {
    let frame = reply_frame();
    let invalid =
        |bytes: &[u8]| matches!(Bfv::ct_from_wire(bytes), Err(HeError::InvalidCiphertext(_)));
    // Header words: parts, rows, N, k0, k1. The lift modulus is one 40-bit
    // prime, so a width of 40 is not below its bits; 39 is, but then the
    // length no longer matches.
    for (what, word, value) in [
        ("one part", 0, 1),
        ("three parts", 0, 3),
        ("k0 = 0", 3, 0),
        ("k1 = 0", 4, 0),
        ("k0 = 62", 3, 62),
        ("k1 = 64", 4, 64),
        ("k1 = 2^32 - 1", 4, u32::MAX),
        ("k0 = 40", 3, 40),
        ("k1 = 40", 4, 40),
        ("k1 = 39, length for 33", 4, 39),
        ("two rows, one modulus", 1, 2),
    ] {
        assert!(invalid(&with_word(&frame, word, value)), "{what} accepted");
    }
    // Widths the lift is exact at, with the length they imply, decode.
    let mut wider = with_word(&frame, 4, 34);
    wider.extend(vec![0; 256 / 8]);
    assert!(decode_is_exact::<Bfv>(&wider));
    // Wrong lengths.
    let mut long = frame.clone();
    long.push(0);
    assert!(invalid(&long));
    assert!(invalid(&frame[..frame.len() - 1]));
    // A modulus that is no NTT prime for the degree.
    let mut bad = frame.clone();
    bad[REPLY_HEADER_BYTES..REPLY_HEADER_BYTES + 8]
        .copy_from_slice(&1_000_000_007u64.to_le_bytes());
    assert!(invalid(&bad));
}

#[test]
fn the_client_refuses_a_reply_at_widths_other_than_its_licence() {
    let (ctx, keys, frame) = reply_setup();
    assert_eq!(ctx.reply_widths(), Some([25, 33]));
    let reply = Bfv::ct_from_wire(&frame).unwrap();
    let values = Bfv::decrypt(&ctx, &keys, &reply).unwrap();
    assert_eq!(values[..3], [0, 1, 2]);
    // A well-formed reply one bit wider in `c1`: the frame decodes, the
    // client refuses it before decrypting.
    let mut wider = with_word(&frame, 4, 34);
    wider.extend(vec![0; 256 / 8]);
    let foreign = Bfv::ct_from_wire(&wider).unwrap();
    assert!(matches!(
        Bfv::decrypt(&ctx, &keys, &foreign),
        Err(HeError::Mismatch(_))
    ));
}

#[test]
fn a_compact_frame_claiming_a_huge_ring_is_refused_before_allocating() {
    // ~64 bytes claiming N = 2^30 (one residue, or 32 of them): expanding
    // it would allocate 8 GiB per residue. Its first modulus is a real NTT
    // prime for that degree, so only the shape and length checks stand
    // between the blob and the allocation.
    const NTT_PRIME_2_30: u64 = 0x0004_000e_0000_0001; // 2^31 · 524 316 + 1
                                                       // Full frames carry their moduli too, and are held to the same bound.
                                                       // Compressed replies too: their widths come where the scale would.
    let scale = 2f64.powi(30).to_bits().to_le_bytes();
    let widths: Vec<u8> = [25u32, 33].iter().flat_map(|k| k.to_le_bytes()).collect();
    for (magic, parts, tail) in [
        (*b"CPS1", None, &[][..]),
        (*b"CPS2", None, &scale[..]),
        (*b"CPO1", Some(2u32), &[][..]),
        (*b"CPO2", Some(2), &scale[..]),
        (*b"CPD1", Some(2), &widths[..]),
    ] {
        for rows in [1u32, 32] {
            let mut blob = magic.to_vec();
            blob.extend(parts.map(u32::to_le_bytes).into_iter().flatten());
            blob.extend_from_slice(&rows.to_le_bytes());
            blob.extend_from_slice(&(1u32 << 30).to_le_bytes());
            blob.extend_from_slice(tail);
            blob.extend_from_slice(&NTT_PRIME_2_30.to_le_bytes());
            blob.resize(64, 0x5a);
            let largest = largest_allocation_during(|| {
                assert!(Bfv::ct_from_wire(&blob).is_err());
                assert!(Ckks::ct_from_wire(&blob).is_err());
            });
            assert!(
                largest < 4096,
                "decoder allocated {largest} bytes for a 64-byte blob"
            );
        }
    }
    // The measurement sees a real expansion: the honest frame allocates at
    // least one residue row.
    let frame = bfv_compact_frame();
    let largest = largest_allocation_during(|| assert!(Bfv::ct_from_wire(&frame).is_ok()));
    assert!(largest >= 256 * 8, "{largest}");
}

/// Overwrites residue `i` of the packed row that starts at byte `at`, `w`
/// bits per residue, with `value`.
fn set_residue(bytes: &mut [u8], at: usize, w: usize, i: usize, value: u64) {
    for b in 0..w {
        let bit = i * w + b;
        let mask = 1u8 << (bit % 8);
        if value >> b & 1 == 1 {
            bytes[at + bit / 8] |= mask;
        } else {
            bytes[at + bit / 8] &= !mask;
        }
    }
}

/// The modulus word `i` of a frame whose moduli start at byte `at`.
fn modulus(bytes: &[u8], at: usize, i: usize) -> u64 {
    u64::from_le_bytes(bytes[at + 8 * i..at + 8 * i + 8].try_into().unwrap())
}

#[test]
fn a_residue_at_its_prime_is_refused_in_every_frame_kind() {
    // Each frame with its degree, where its moduli start, how many there
    // are and where its first packed residue row starts. A row of a legal
    // frame never ends in padding bits — N is a multiple of 8 — so the
    // padding check is reached through the row codec's own unit tests in
    // `serialize.rs`.
    type Exact = Box<dyn Fn(&[u8]) -> bool>;
    let blobs = all_key_blobs();
    let key = |i: usize| -> (Vec<u8>, Exact) {
        let (scheme, blob, decode) = blobs[i].clone();
        (
            blob,
            Box::new(move |b: &[u8]| key_decode_is_exact(decode, scheme, b)),
        )
    };
    let (relin, relin_exact) = key(0);
    let (galois, galois_exact) = key(1);
    let cases: Vec<(&str, Vec<u8>, Exact, [usize; 4])> = vec![
        (
            "bfv full",
            bfv_frame(),
            Box::new(decode_is_exact::<Bfv>),
            [256, HEADER_BYTES, 2, HEADER_BYTES + 16],
        ),
        (
            "ckks full",
            ckks_frame(),
            Box::new(decode_is_exact::<Ckks>),
            [256, 24, 2, 24 + 16],
        ),
        (
            "bfv compact",
            bfv_compact_frame(),
            Box::new(decode_is_exact::<Bfv>),
            [256, 12, 2, 12 + 16 + 32],
        ),
        (
            "ckks compact",
            ckks_compact_frame(),
            Box::new(decode_is_exact::<Ckks>),
            [256, 20, 2, 20 + 16 + 32],
        ),
        ("relin key", relin, relin_exact, [64, 16, 3, 16 + 24]),
        ("galois set", galois, galois_exact, [64, 20, 3, 20 + 24 + 8]),
    ];
    for (name, frame, exact, [n, moduli_at, rows, row_at]) in cases {
        assert!(exact(&frame), "{name}: the honest frame");
        let q = modulus(&frame, moduli_at, 0);
        let w = (64 - q.leading_zeros()) as usize;
        let all_ones = u64::MAX >> (64 - w);
        for (i, value, accepted) in [
            (0, q - 1, true),
            (0, q, false),
            (5, q, false),
            (3, all_ones, false),
        ] {
            let mut bytes = frame.clone();
            set_residue(&mut bytes, row_at, w, i, value);
            assert_eq!(
                exact(&bytes),
                accepted,
                "{name}: residue {i} = {value} (q = {q})"
            );
        }
        // The frame's last residue, in a row over its last prime.
        let last = modulus(&frame, moduli_at, rows - 1);
        let w = (64 - last.leading_zeros()) as usize;
        let mut bytes = frame.clone();
        set_residue(&mut bytes, frame.len() - n * w / 8, w, n - 1, last);
        assert!(!exact(&bytes), "{name}: last residue at its prime");
    }
}
