//! The retired 8-byte wire layout, rebuilt from decoded frames so that the
//! digests pinned over it keep their recorded values: every residue as a
//! little-endian `u64` word under the old `CH…` magics, key blobs and
//! compact frames with their old headers. Hashing what a packed frame
//! decodes to, laid out this way, proves the packed codec lossless and the
//! kernels unmoved. A compressed reply (`CPD1`), which the old layout never
//! had, is laid out as the full frame of the parts it lifts to.

#![allow(dead_code)]

use choco_he::keyswitch::KswitchKey;
use choco_he::rnspoly::RnsPoly;
use choco_he::serialize::{
    ciphertext_from_bytes, ckks_ciphertext_from_bytes, galois_from_bytes, payload_bytes,
    relin_from_bytes, reply_payload_bytes, CKKS_HEADER_BYTES, CKKS_SEEDED_HEADER_BYTES,
    HEADER_BYTES, REPLY_HEADER_BYTES, SEEDED_HEADER_BYTES,
};
use choco_he::SchemeType;

fn put_u32(out: &mut Vec<u8>, word: usize) {
    out.extend_from_slice(&(word as u32).to_le_bytes());
}

fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_poly(out: &mut Vec<u8>, poly: &RnsPoly) {
    for r in 0..poly.row_count() {
        put_words(out, poly.row(r));
    }
}

fn digit(scheme: SchemeType) -> u8 {
    match scheme {
        SchemeType::Bfv => b'1',
        SchemeType::Ckks => b'2',
    }
}

/// Ciphertext wires of `scheme`, full or compact, one or several
/// concatenated, in the 8-byte layout.
pub fn ciphertexts(scheme: SchemeType, mut wires: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while !wires.is_empty() {
        let len = frame_len(scheme, wires);
        out.extend(ciphertext(scheme, &wires[..len]));
        wires = &wires[len..];
    }
    out
}

/// The length of the packed ciphertext frame `wires` starts with.
fn frame_len(scheme: SchemeType, wires: &[u8]) -> usize {
    let word = |i: usize| u32::from_le_bytes(wires[4 * i..4 * i + 4].try_into().unwrap()) as usize;
    let seeded = wires[2] == b'S';
    let reply = wires[2] == b'D';
    let (parts, rows, n) = if seeded {
        (1, word(1), word(2))
    } else {
        (word(1), word(2), word(3))
    };
    let header = match (scheme, seeded) {
        _ if reply => REPLY_HEADER_BYTES,
        (SchemeType::Bfv, true) => SEEDED_HEADER_BYTES,
        (SchemeType::Bfv, false) => HEADER_BYTES,
        (SchemeType::Ckks, true) => CKKS_SEEDED_HEADER_BYTES,
        (SchemeType::Ckks, false) => CKKS_HEADER_BYTES,
    };
    let moduli: Vec<u64> = (0..rows)
        .map(|i| {
            u64::from_le_bytes(
                wires[header + 8 * i..header + 8 * i + 8]
                    .try_into()
                    .unwrap(),
            )
        })
        .collect();
    if reply {
        return header + reply_payload_bytes(n, &moduli, [word(4), word(5)].map(|k| k as u32));
    }
    header + payload_bytes(n, &moduli, parts, seeded)
}

/// One ciphertext wire of `scheme`, full or compact, in the 8-byte layout.
fn ciphertext(scheme: SchemeType, wire: &[u8]) -> Vec<u8> {
    let (parts, moduli, seed, degree, scale) = match scheme {
        SchemeType::Bfv => {
            let ct = ciphertext_from_bytes(wire).unwrap();
            let parts: Vec<RnsPoly> = (0..ct.size()).map(|i| ct.part(i).clone()).collect();
            (
                parts,
                ct.moduli().to_vec(),
                ct.seed().map(|s| *s.bytes()),
                ct.degree(),
                None,
            )
        }
        SchemeType::Ckks => {
            let ct = ckks_ciphertext_from_bytes(wire).unwrap();
            let parts: Vec<RnsPoly> = (0..ct.size()).map(|i| ct.part(i).clone()).collect();
            let scale = Some(ct.scale());
            (
                parts,
                ct.moduli().to_vec(),
                ct.seed().map(|s| *s.bytes()),
                ct.degree(),
                scale,
            )
        }
    };
    let kind = if seed.is_some() { b'S' } else { b'O' };
    let mut out = vec![b'C', b'H', kind, digit(scheme)];
    if seed.is_none() {
        put_u32(&mut out, parts.len());
    }
    put_u32(&mut out, moduli.len());
    put_u32(&mut out, degree);
    if let Some(scale) = scale {
        out.extend_from_slice(&scale.to_bits().to_le_bytes());
    }
    match seed {
        Some(seed) => {
            put_words(&mut out, &moduli);
            out.extend_from_slice(&seed);
            put_poly(&mut out, &parts[0]);
        }
        None => parts.iter().for_each(|p| put_poly(&mut out, p)),
    }
    out
}

fn put_ksk_header(out: &mut Vec<u8>, ksk: Option<&KswitchKey>) {
    put_u32(out, ksk.map_or(0, KswitchKey::digit_count));
    put_u32(out, ksk.map_or(0, |k| k.moduli().len()));
    put_u32(out, ksk.map_or(0, KswitchKey::degree));
}

fn put_pairs(out: &mut Vec<u8>, ksk: &KswitchKey) {
    for (b, a) in ksk.pairs() {
        put_poly(out, b);
        put_poly(out, a);
    }
}

/// A relinearization-key wire of `scheme` in the 8-byte layout.
pub fn relin(scheme: SchemeType, wire: &[u8]) -> Vec<u8> {
    let rk = relin_from_bytes(scheme, wire).unwrap();
    let ksk = rk.key_switching_key();
    let mut out = vec![b'C', b'H', b'R', digit(scheme)];
    put_ksk_header(&mut out, Some(ksk));
    put_pairs(&mut out, ksk);
    out
}

/// A Galois-set wire of `scheme` in the 8-byte layout.
pub fn galois(scheme: SchemeType, wire: &[u8]) -> Vec<u8> {
    let gk = galois_from_bytes(scheme, wire).unwrap();
    let elements = gk.elements();
    let keys: Vec<(u64, &KswitchKey)> = elements.iter().map(|&e| (e, gk.get(e).unwrap())).collect();
    let mut out = vec![b'C', b'H', b'G', digit(scheme)];
    put_u32(&mut out, keys.len());
    put_ksk_header(&mut out, keys.first().map(|(_, k)| *k));
    for (e, k) in keys {
        out.extend_from_slice(&e.to_le_bytes());
        put_pairs(&mut out, k);
    }
    out
}
