//! Wire formats for ciphertexts and plaintexts.
//!
//! The paper's communication accounting assumes `s · N · (k−1) · 8` bytes
//! per ciphertext (Table 3); this module makes that concrete: ciphertexts
//! serialize to exactly that many payload bytes plus a fixed header (magic,
//! component count, residue count / level, degree, and for CKKS the scale).
//! The ledger in `choco::protocol` counts payload bytes, so serialized sizes
//! and ledger sizes agree.
//!
//! A fresh encryption travels in *compact* form (`CHS1` / `CHS2`): the
//! header, the residue moduli, the 32-byte seed its mask `c1` expands from
//! ([`crate::rlwe::expand_seed`]) and `c0`'s residues — half the bytes of a
//! full frame. The frame describes itself, so its decoder needs no context:
//! it checks the shape, the exact length and every modulus (an NTT-friendly
//! prime below `2^61` for the claimed degree) before it allocates, checks
//! `c0`'s residues against them, and only then expands `c1`. A decoded
//! compact ciphertext keeps its seed, so it re-encodes to the same bytes.
//!
//! Deserialization is fully checked: every read is bounds-validated and
//! malformed frames surface as [`HeError::InvalidCiphertext`], never as a
//! panic — the transport layer (`choco::transport`) feeds these functions
//! bytes that crossed a lossy link, so "attacker-shaped" input is the normal
//! case, not the exception. Integrity (detecting *valid-shaped but altered*
//! frames) is layered above via the transport's keyed BLAKE3 tags;
//! [`ciphertext_from_bytes`] alone accepts any well-formed frame.

use crate::bfv::Ciphertext;
use crate::ckks::CkksCiphertext;
use crate::error::HeError;
use crate::keyswitch::KswitchKey;
use crate::params::SchemeType;
use crate::rlwe::{self, GaloisKeys, MaskSeed, RelinKey};
use crate::rnspoly::RnsPoly;
use choco_math::prime::is_prime;
use std::collections::HashMap;

/// Magic tag for BFV ciphertext frames.
const MAGIC: [u8; 4] = *b"CHO1";

/// Magic tag for CKKS ciphertext frames.
const CKKS_MAGIC: [u8; 4] = *b"CHO2";

/// Magic tags for compact (seeded) BFV and CKKS ciphertext frames.
const SEEDED_MAGIC: [u8; 4] = *b"CHS1";
const CKKS_SEEDED_MAGIC: [u8; 4] = *b"CHS2";

/// Largest ring degree a compact frame may claim.
const MAX_SEEDED_DEGREE: usize = 1 << 17;

/// Magic of a key blob: `CH`, the kind (`R`elin or `G`alois), then
/// `1` for BFV or `2` for CKKS — the only byte in which the two schemes'
/// key wires differ.
fn key_magic(kind: u8, scheme: SchemeType) -> [u8; 4] {
    let scheme = match scheme {
        SchemeType::Bfv => b'1',
        SchemeType::Ckks => b'2',
    };
    [b'C', b'H', kind, scheme]
}

/// BFV header size in bytes (magic, parts, rows, degree).
pub const HEADER_BYTES: usize = 16;

/// CKKS header size in bytes (magic, parts, level, degree, scale).
pub const CKKS_HEADER_BYTES: usize = 24;

/// Compact BFV header size in bytes (magic, rows, degree).
pub const SEEDED_HEADER_BYTES: usize = 12;

/// Compact CKKS header size in bytes (magic, level, degree, scale).
pub const CKKS_SEEDED_HEADER_BYTES: usize = 20;

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], HeError> {
        let end = self
            .off
            .checked_add(n)
            .ok_or_else(|| HeError::InvalidCiphertext("frame offset overflow".into()))?;
        if end > self.bytes.len() {
            return Err(HeError::InvalidCiphertext(format!(
                "truncated frame: need {end} bytes, have {}",
                self.bytes.len()
            )));
        }
        let out = &self.bytes[self.off..end];
        self.off = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, HeError> {
        let b = self.take(4)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(b);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, HeError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, HeError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Reads `parts` polynomials of `rows × n` little-endian residues.
fn read_polys(
    r: &mut Reader<'_>,
    parts: usize,
    rows: usize,
    n: usize,
) -> Result<Vec<RnsPoly>, HeError> {
    let mut polys = Vec::with_capacity(parts);
    for _ in 0..parts {
        let mut rows_vec = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(r.u64()?);
            }
            rows_vec.push(row);
        }
        polys.push(RnsPoly::from_rows(rows_vec));
    }
    Ok(polys)
}

/// Serializes a BFV ciphertext: 16-byte header + little-endian residues,
/// or the compact frame of a seeded one: 12-byte header (magic, rows,
/// degree), moduli, seed, `c0`.
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    if let Some(seed) = ct.seed() {
        let c0 = ct.part(0);
        let mut head = SEEDED_MAGIC.to_vec();
        head.extend_from_slice(&(c0.row_count() as u32).to_le_bytes());
        head.extend_from_slice(&(c0.degree() as u32).to_le_bytes());
        return seeded_frame(head, c0, seed);
    }
    let parts = ct.size();
    let rows = ct.part(0).row_count();
    let n = ct.part(0).degree();
    let mut out = Vec::with_capacity(HEADER_BYTES + parts * rows * n * 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(parts as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for p in 0..parts {
        for r in 0..rows {
            for &c in ct.part(p).row(r) {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    out
}

/// Deserializes a BFV ciphertext frame.
///
/// # Errors
///
/// Returns [`HeError::InvalidCiphertext`] on malformed frames (bad magic,
/// truncated payload, or implausible shape). Never panics, regardless of
/// input bytes.
pub fn ciphertext_from_bytes(bytes: &[u8]) -> Result<Ciphertext, HeError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic == SEEDED_MAGIC {
        let rows = r.u32()? as usize;
        let n = r.u32()? as usize;
        let (parts, seed) = read_seeded_body(&mut r, rows, n, SEEDED_HEADER_BYTES)?;
        return Ok(Ciphertext::seeded(parts, seed));
    }
    if magic != MAGIC {
        return Err(HeError::InvalidCiphertext("bad frame header".into()));
    }
    let parts = r.u32()? as usize;
    let rows = r.u32()? as usize;
    let n = r.u32()? as usize;
    if parts == 0 || parts > 3 || rows == 0 || rows > 32 || !n.is_power_of_two() {
        return Err(HeError::InvalidCiphertext("implausible frame shape".into()));
    }
    let expect = HEADER_BYTES + parts * rows * n * 8;
    if bytes.len() != expect {
        return Err(HeError::InvalidCiphertext(format!(
            "frame length {} != expected {expect}",
            bytes.len()
        )));
    }
    let polys = read_polys(&mut r, parts, rows, n)?;
    Ok(Ciphertext::from_parts(polys))
}

/// Serializes a CKKS ciphertext: 24-byte header (magic, parts, level,
/// degree, scale bits) + little-endian residues of each part at the
/// ciphertext's level, or the compact frame of a seeded one: 20-byte header
/// (magic, level, degree, scale bits), moduli, seed, `c0`.
pub fn ckks_ciphertext_to_bytes(ct: &CkksCiphertext) -> Vec<u8> {
    let parts = ct.size();
    let level = ct.level();
    let n = ct.part(0).degree();
    if let Some(seed) = ct.seed() {
        let mut head = CKKS_SEEDED_MAGIC.to_vec();
        head.extend_from_slice(&(level as u32).to_le_bytes());
        head.extend_from_slice(&(n as u32).to_le_bytes());
        head.extend_from_slice(&ct.scale().to_bits().to_le_bytes());
        return seeded_frame(head, ct.part(0), seed);
    }
    let mut out = Vec::with_capacity(CKKS_HEADER_BYTES + parts * level * n * 8);
    out.extend_from_slice(&CKKS_MAGIC);
    out.extend_from_slice(&(parts as u32).to_le_bytes());
    out.extend_from_slice(&(level as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&ct.scale().to_bits().to_le_bytes());
    for p in 0..parts {
        for r in 0..level {
            for &c in ct.part(p).row(r) {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    out
}

/// Deserializes a CKKS ciphertext frame.
///
/// # Errors
///
/// Returns [`HeError::InvalidCiphertext`] on malformed frames (bad magic,
/// truncated payload, implausible shape, or a non-finite / non-positive
/// scale). Never panics, regardless of input bytes.
pub fn ckks_ciphertext_from_bytes(bytes: &[u8]) -> Result<CkksCiphertext, HeError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic == CKKS_SEEDED_MAGIC {
        let level = r.u32()? as usize;
        let n = r.u32()? as usize;
        let scale = check_scale(r.f64()?)?;
        let (parts, seed) = read_seeded_body(&mut r, level, n, CKKS_SEEDED_HEADER_BYTES)?;
        return Ok(CkksCiphertext::seeded(parts, level, scale, seed));
    }
    if magic != CKKS_MAGIC {
        return Err(HeError::InvalidCiphertext("bad CKKS frame header".into()));
    }
    let parts = r.u32()? as usize;
    let level = r.u32()? as usize;
    let n = r.u32()? as usize;
    let scale = r.f64()?;
    if parts == 0 || parts > 3 || level == 0 || level > 32 || !n.is_power_of_two() {
        return Err(HeError::InvalidCiphertext(
            "implausible CKKS frame shape".into(),
        ));
    }
    let scale = check_scale(scale)?;
    let expect = CKKS_HEADER_BYTES + parts * level * n * 8;
    if bytes.len() != expect {
        return Err(HeError::InvalidCiphertext(format!(
            "CKKS frame length {} != expected {expect}",
            bytes.len()
        )));
    }
    let polys = read_polys(&mut r, parts, level, n)?;
    Ok(CkksCiphertext::from_parts(polys, level, scale))
}

/// A CKKS scale a frame may carry: finite and positive.
fn check_scale(scale: f64) -> Result<f64, HeError> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(HeError::InvalidCiphertext(format!(
            "implausible CKKS scale {scale}"
        )));
    }
    Ok(scale)
}

/// A compact frame: `head` (magic and shape words), then the seed's moduli,
/// its 32 bytes, and `c0`'s residues.
fn seeded_frame(mut head: Vec<u8>, c0: &RnsPoly, seed: &MaskSeed) -> Vec<u8> {
    head.reserve(seed.wire_bytes() + c0.row_count() * c0.degree() * 8);
    for q in seed.moduli() {
        head.extend_from_slice(&q.to_le_bytes());
    }
    head.extend_from_slice(&seed.bytes);
    write_poly(&mut head, c0);
    head
}

/// Refuses moduli a mask cannot be expanded over at degree `n`: each must
/// be an NTT-friendly prime (`q ≡ 1 mod 2n`) below `2^61`, and no two
/// equal.
fn check_moduli(moduli: &[u64], n: usize) -> Result<(), HeError> {
    let two_n = 2 * n as u64;
    for (i, &q) in moduli.iter().enumerate() {
        if q >= 1 << 61 || q % two_n != 1 || !is_prime(q) || moduli.iter().take(i).any(|&p| p == q)
        {
            return Err(HeError::InvalidCiphertext(format!(
                "compact frame modulus {q} is not a distinct NTT prime for degree {n}"
            )));
        }
    }
    Ok(())
}

/// Reads the body of a compact frame of `rows` residues at degree `n`
/// whose header took `header` bytes: checks the shape and the exact length
/// before reading anything, the moduli before reading `c0`, and `c0`'s
/// residues before expanding `c1`. Returns `[c0, c1]` and the seed.
fn read_seeded_body(
    r: &mut Reader<'_>,
    rows: usize,
    n: usize,
    header: usize,
) -> Result<(Vec<RnsPoly>, MaskSeed), HeError> {
    if !(1..=32).contains(&rows) || !(16..=MAX_SEEDED_DEGREE).contains(&n) || !n.is_power_of_two() {
        return Err(HeError::InvalidCiphertext(format!(
            "implausible compact frame shape: {rows} residues at degree {n}"
        )));
    }
    let expect = header + 8 * rows + 32 + rows * n * 8;
    if r.bytes.len() != expect {
        return Err(HeError::InvalidCiphertext(format!(
            "compact frame length {} != expected {expect}",
            r.bytes.len()
        )));
    }
    let moduli = (0..rows).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
    check_moduli(&moduli, n)?;
    let mut bytes = [0u8; 32];
    bytes.copy_from_slice(r.take(32)?);
    let c0 = read_polys(r, 1, rows, n)?
        .pop()
        .ok_or_else(|| HeError::InvalidCiphertext("missing c0".into()))?;
    if !reduced_over(&c0, &moduli) {
        return Err(HeError::InvalidCiphertext(
            "compact frame residue not reduced modulo its prime".into(),
        ));
    }
    let seed = MaskSeed { bytes, moduli };
    let c1 = rlwe::expand_seed(&seed, n);
    Ok((vec![c0, c1], seed))
}

fn write_poly(out: &mut Vec<u8>, poly: &RnsPoly) {
    for r in 0..poly.row_count() {
        for &c in poly.row(r) {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
}

fn bad_keys(msg: &str) -> HeError {
    HeError::InvalidKeyMaterial(msg.into())
}

/// Opens a key blob: checks the magic, leaves the reader at the header words.
fn open_key_blob(bytes: &[u8], magic: [u8; 4]) -> Result<Reader<'_>, HeError> {
    let mut r = Reader::new(bytes);
    match r.take(4) {
        Ok(m) if m == magic => Ok(r),
        Ok(_) => Err(bad_keys("bad key-blob magic")),
        Err(_) => Err(bad_keys("truncated key-blob header")),
    }
}

/// Reads one `u32` header word of a key blob.
fn header_word(r: &mut Reader<'_>) -> Result<usize, HeError> {
    let word = r.u32().map_err(|_| bad_keys("truncated key-blob header"))?;
    Ok(word as usize)
}

/// Whether every residue of `poly` is below its row's prime — a polynomial
/// the NTT can take. Scans every residue whatever it finds.
fn reduced_over(poly: &RnsPoly, primes: &[u64]) -> bool {
    let rows = (0..poly.row_count()).map(|r| poly.row(r));
    rows.zip(primes).fold(true, |ok, (row, &q)| {
        row.iter().fold(ok, |ok, &x| ok & (x < q))
    })
}

/// The `(digits, full prime count, degree)` header of a key-switching key.
fn ksk_shape(ksk: &KswitchKey) -> (usize, usize, usize) {
    let n = ksk.pairs().first().map_or(0, |(b, _)| b.degree());
    (ksk.digit_count(), ksk.full_prime_count(), n)
}

/// Writes one key-switching key's digit pairs (`b_j` then `a_j`, per digit).
fn write_ksk_pairs(out: &mut Vec<u8>, ksk: &KswitchKey) {
    for (b, a) in ksk.pairs() {
        write_poly(out, b);
        write_poly(out, a);
    }
}

/// Reads one key-switching key of known shape.
fn read_ksk(
    r: &mut Reader<'_>,
    digits: usize,
    fpc: usize,
    n: usize,
) -> Result<KswitchKey, HeError> {
    let mut pairs = Vec::with_capacity(digits);
    for _ in 0..digits {
        let mut pair = read_polys(r, 2, fpc, n)?;
        let a = pair.pop().ok_or_else(|| bad_keys("missing ksk digit"))?;
        let b = pair.pop().ok_or_else(|| bad_keys("missing ksk digit"))?;
        pairs.push((b, a));
    }
    KswitchKey::from_parts(pairs, fpc).ok_or_else(|| bad_keys("inconsistent ksk shape"))
}

/// Validates a serialized key-switch shape: `digits` data primes plus one
/// special prime.
fn check_ksk_shape(digits: usize, fpc: usize, n: usize) -> Result<(), HeError> {
    if digits == 0 || digits > 32 || fpc != digits + 1 || !n.is_power_of_two() {
        return Err(bad_keys("implausible key-switch shape"));
    }
    Ok(())
}

/// Serializes a relinearization key (`CHR1` / `CHR2` blob).
pub fn relin_to_bytes(scheme: SchemeType, rk: &RelinKey) -> Vec<u8> {
    let (digits, fpc, n) = ksk_shape(&rk.ksk);
    let mut out = Vec::with_capacity(16 + digits * 2 * fpc * n * 8);
    out.extend_from_slice(&key_magic(b'R', scheme));
    out.extend_from_slice(&(digits as u32).to_le_bytes());
    out.extend_from_slice(&(fpc as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    write_ksk_pairs(&mut out, &rk.ksk);
    out
}

/// Deserializes a relinearization key of the given scheme.
///
/// # Errors
///
/// Returns [`HeError::InvalidKeyMaterial`] on malformed blobs, including a
/// blob of the other scheme. Never panics.
pub fn relin_from_bytes(scheme: SchemeType, bytes: &[u8]) -> Result<RelinKey, HeError> {
    let mut r = open_key_blob(bytes, key_magic(b'R', scheme))?;
    let digits = header_word(&mut r)?;
    let fpc = header_word(&mut r)?;
    let n = header_word(&mut r)?;
    check_ksk_shape(digits, fpc, n)?;
    let expect = 16 + digits * 2 * fpc * n * 8;
    if bytes.len() != expect {
        return Err(bad_keys("relin-key length mismatch"));
    }
    let ksk =
        read_ksk(&mut r, digits, fpc, n).map_err(|_| bad_keys("truncated relin-key payload"))?;
    Ok(RelinKey { ksk })
}

/// Serializes a Galois key set (`CHG1` / `CHG2` blob). Keys are written in
/// **sorted element order**, so serialization is deterministic regardless
/// of map iteration order — a requirement for bit-identical checkpoints.
pub fn galois_to_bytes(scheme: SchemeType, gk: &GaloisKeys) -> Vec<u8> {
    let mut keys: Vec<(&u64, &KswitchKey)> = gk.keys.iter().collect();
    keys.sort_unstable_by_key(|(e, _)| **e);
    let (digits, fpc, n) = keys.first().map_or((0, 0, 0), |(_, k)| ksk_shape(k));
    let mut out = Vec::with_capacity(20 + keys.len() * (8 + digits * 2 * fpc * n * 8));
    out.extend_from_slice(&key_magic(b'G', scheme));
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    out.extend_from_slice(&(digits as u32).to_le_bytes());
    out.extend_from_slice(&(fpc as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for (e, k) in keys {
        out.extend_from_slice(&e.to_le_bytes());
        write_ksk_pairs(&mut out, k);
    }
    out
}

/// Deserializes a Galois key set of the given scheme.
///
/// # Errors
///
/// Returns [`HeError::InvalidKeyMaterial`] on malformed blobs, including a
/// blob of the other scheme. Never panics.
pub fn galois_from_bytes(scheme: SchemeType, bytes: &[u8]) -> Result<GaloisKeys, HeError> {
    let mut r = open_key_blob(bytes, key_magic(b'G', scheme))?;
    let count = header_word(&mut r)?;
    let digits = header_word(&mut r)?;
    let fpc = header_word(&mut r)?;
    let n = header_word(&mut r)?;
    if count > 4096 {
        return Err(bad_keys("implausible galois-set size"));
    }
    if count == 0 {
        if bytes.len() != 20 || digits != 0 || fpc != 0 {
            return Err(bad_keys("malformed empty galois set"));
        }
        return Ok(GaloisKeys {
            keys: HashMap::new(),
        });
    }
    check_ksk_shape(digits, fpc, n)?;
    let expect = 20 + count * (8 + digits * 2 * fpc * n * 8);
    if bytes.len() != expect {
        return Err(bad_keys("galois-set length mismatch"));
    }
    let mut keys = HashMap::with_capacity(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let elem = r.u64().map_err(|_| bad_keys("truncated galois element"))?;
        if prev.is_some_and(|p| p >= elem) {
            return Err(bad_keys("galois elements not strictly increasing"));
        }
        prev = Some(elem);
        let ksk = read_ksk(&mut r, digits, fpc, n).map_err(|_| bad_keys("truncated galois key"))?;
        keys.insert(elem, ksk);
    }
    Ok(GaloisKeys { keys })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::{BfvContext, Plaintext};
    use crate::ckks::CkksContext;
    use crate::params::HeParams;
    use crate::rlwe::KeyBundle;
    use choco_prng::Blake3Rng;

    fn sample_ct() -> (BfvContext, KeyBundle, Ciphertext) {
        let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
        let ctx = BfvContext::new(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"serialize");
        let keys = ctx.keygen(&mut rng);
        let pt = Plaintext::from_coeffs((0..256u64).map(|i| i % 100).collect());
        let ct = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
        (ctx, keys, ct)
    }

    fn sample_ckks() -> (CkksContext, KeyBundle, CkksCiphertext) {
        let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"ckks serialize");
        let keys = ctx.keygen(&mut rng);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 / 8.0).collect();
        let pt = ctx.encode(&values).unwrap();
        let ct = ctx.encrypt(&pt, keys.public_key(), &mut rng).unwrap();
        (ctx, keys, ct)
    }

    #[test]
    fn roundtrip_preserves_decryption() {
        let (ctx, keys, ct) = sample_ct();
        let bytes = ciphertext_to_bytes(&ct);
        let back = ciphertext_from_bytes(&bytes).unwrap();
        assert_eq!(back, ct);
        let out = ctx.decryptor(keys.secret_key()).decrypt(&back);
        assert_eq!(out.coeffs()[5], 5);
    }

    #[test]
    fn payload_matches_table3_accounting() {
        let (_, _, ct) = sample_ct();
        let bytes = ciphertext_to_bytes(&ct);
        assert_eq!(bytes.len(), HEADER_BYTES + ct.byte_size());
        // 2 parts × 2 data residues × 256 coeffs × 8 B
        assert_eq!(ct.byte_size(), 2 * 2 * 256 * 8);
    }

    #[test]
    fn rejects_corrupted_frames() {
        let (_, _, ct) = sample_ct();
        let bytes = ciphertext_to_bytes(&ct);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ciphertext_from_bytes(&bad).is_err());
        // Truncated.
        assert!(ciphertext_from_bytes(&bytes[..bytes.len() - 9]).is_err());
        // Empty / header-only.
        assert!(ciphertext_from_bytes(&[]).is_err());
        assert!(ciphertext_from_bytes(&bytes[..HEADER_BYTES]).is_err());
        // Implausible shape.
        let mut weird = bytes.clone();
        weird[4..8].copy_from_slice(&100u32.to_le_bytes());
        assert!(ciphertext_from_bytes(&weird).is_err());
    }

    #[test]
    fn tampered_payload_still_parses_but_decrypts_to_garbage() {
        // Integrity is not part of the HE threat model (semi-honest server);
        // flipping payload bits yields a valid frame whose decryption is
        // wrong — documented behaviour, not a defect. The transport layer's
        // keyed tags exist precisely to catch this before decryption.
        let (ctx, keys, ct) = sample_ct();
        let mut bytes = ciphertext_to_bytes(&ct);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let tampered = ciphertext_from_bytes(&bytes).unwrap();
        let out = ctx.decryptor(keys.secret_key()).decrypt(&tampered);
        let orig = ctx.decryptor(keys.secret_key()).decrypt(&ct);
        assert_ne!(out, orig);
    }

    #[test]
    fn ckks_roundtrip_preserves_decryption() {
        let (ctx, keys, ct) = sample_ckks();
        let bytes = ckks_ciphertext_to_bytes(&ct);
        let back = ckks_ciphertext_from_bytes(&bytes).unwrap();
        assert_eq!(back.level(), ct.level());
        assert_eq!(back.scale(), ct.scale());
        assert_eq!(back.size(), ct.size());
        let out = ctx.decode(&ctx.decrypt(&back, keys.secret_key()));
        assert!((out[8] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn ckks_roundtrip_survives_rescale_levels() {
        // After a rescale the ciphertext sits at a lower level with fewer
        // residue rows; the wire format must carry exactly that shape.
        let (ctx, keys, ct) = sample_ckks();
        let rk = {
            let mut rng = Blake3Rng::from_seed(b"ckks serialize rk");
            ctx.relin_key(keys.secret_key(), &mut rng)
        };
        let sq = ctx.multiply_relin(&ct, &ct, &rk).unwrap();
        let dropped = ctx.rescale(&sq).unwrap();
        let bytes = ckks_ciphertext_to_bytes(&dropped);
        let back = ckks_ciphertext_from_bytes(&bytes).unwrap();
        assert_eq!(back.level(), dropped.level());
        let a = ctx.decode(&ctx.decrypt(&back, keys.secret_key()));
        let b = ctx.decode(&ctx.decrypt(&dropped, keys.secret_key()));
        assert!((a[4] - b[4]).abs() < 1e-9);
    }

    #[test]
    fn ckks_payload_matches_byte_size_accounting() {
        let (_, _, ct) = sample_ckks();
        let bytes = ckks_ciphertext_to_bytes(&ct);
        assert_eq!(bytes.len(), CKKS_HEADER_BYTES + ct.byte_size());
    }

    #[test]
    fn ckks_rejects_corrupted_frames() {
        let (_, _, ct) = sample_ckks();
        let bytes = ckks_ciphertext_to_bytes(&ct);
        // Bad magic (a BFV frame is not a CKKS frame).
        let mut bad = bytes.clone();
        bad[..4].copy_from_slice(b"CHO1");
        assert!(ckks_ciphertext_from_bytes(&bad).is_err());
        // Truncated.
        assert!(ckks_ciphertext_from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(ckks_ciphertext_from_bytes(&[]).is_err());
        // Implausible level.
        let mut weird = bytes.clone();
        weird[8..12].copy_from_slice(&77u32.to_le_bytes());
        assert!(ckks_ciphertext_from_bytes(&weird).is_err());
        // Non-finite scale.
        let mut nan = bytes.clone();
        nan[12..20].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(ckks_ciphertext_from_bytes(&nan).is_err());
    }

    const SCHEMES: [SchemeType; 2] = [SchemeType::Bfv, SchemeType::Ckks];

    fn other(scheme: SchemeType) -> SchemeType {
        match scheme {
            SchemeType::Bfv => SchemeType::Ckks,
            SchemeType::Ckks => SchemeType::Bfv,
        }
    }

    /// One scheme's evaluation keys from its sample context: a
    /// relinearization key and Galois keys for `steps`.
    fn key_material(scheme: SchemeType, steps: &[i64]) -> (RelinKey, GaloisKeys) {
        let mut rng = Blake3Rng::from_seed(b"serialize key material");
        match scheme {
            SchemeType::Bfv => {
                let (ctx, keys, _) = sample_ct();
                let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
                let gk = ctx.galois_keys(keys.secret_key(), steps, &mut rng).unwrap();
                (rk, gk)
            }
            SchemeType::Ckks => {
                let (ctx, keys, _) = sample_ckks();
                let rk = ctx.relin_key(keys.secret_key(), &mut rng);
                let gk = ctx.galois_keys(keys.secret_key(), steps, &mut rng).unwrap();
                (rk, gk)
            }
        }
    }

    /// A key-wire decoder with its output dropped.
    type Decoder = fn(SchemeType, &[u8]) -> Result<(), HeError>;

    /// The two key blobs of one scheme, each with its decoder.
    fn key_blobs(scheme: SchemeType) -> [(Vec<u8>, Decoder); 2] {
        let (rk, gk) = key_material(scheme, &[1, 2]);
        [
            (relin_to_bytes(scheme, &rk), |s, b| {
                relin_from_bytes(s, b).map(drop)
            }),
            (galois_to_bytes(scheme, &gk), |s, b| {
                galois_from_bytes(s, b).map(drop)
            }),
        ]
    }

    #[test]
    fn relin_keys_roundtrip_and_still_relinearize() {
        for scheme in SCHEMES {
            let (rk, _) = key_material(scheme, &[]);
            let bytes = relin_to_bytes(scheme, &rk);
            let back = relin_from_bytes(scheme, &bytes).unwrap();
            assert_eq!(relin_to_bytes(scheme, &back), bytes);
            match scheme {
                SchemeType::Bfv => {
                    let (ctx, _, ct) = sample_ct();
                    let sq = ctx.evaluator().multiply_relin(&ct, &ct, &back).unwrap();
                    assert_eq!(sq.size(), 2);
                }
                SchemeType::Ckks => {
                    let (ctx, _, ct) = sample_ckks();
                    assert_eq!(ctx.multiply_relin(&ct, &ct, &back).unwrap().size(), 2);
                }
            }
        }
    }

    #[test]
    fn galois_keys_roundtrip_sorted_and_deterministic() {
        for scheme in SCHEMES {
            let (_, gk) = key_material(scheme, &[1, 3, -2]);
            let bytes = galois_to_bytes(scheme, &gk);
            let back = galois_from_bytes(scheme, &bytes).unwrap();
            assert_eq!(back.elements(), gk.elements());
            // Serialization is sorted-by-element, so it is deterministic
            // even though the underlying storage is a HashMap.
            assert_eq!(galois_to_bytes(scheme, &back), bytes);
            match scheme {
                SchemeType::Bfv => {
                    let (ctx, _, ct) = sample_ct();
                    let rotated = ctx.evaluator().rotate_rows(&ct, 1, &back).unwrap();
                    assert_eq!(rotated.size(), 2);
                }
                SchemeType::Ckks => {
                    let (ctx, _, ct) = sample_ckks();
                    assert_eq!(ctx.rotate(&ct, 1, &back).unwrap().size(), 2);
                }
            }
        }
    }

    #[test]
    fn empty_galois_set_roundtrips() {
        // Sessions constructed with no rotation steps carry a genuinely
        // empty Galois set; the wire format must survive that shape.
        for scheme in SCHEMES {
            let empty = GaloisKeys {
                keys: HashMap::new(),
            };
            let bytes = galois_to_bytes(scheme, &empty);
            assert_eq!(bytes.len(), 20);
            let back = galois_from_bytes(scheme, &bytes).unwrap();
            assert!(back.elements().is_empty());
            assert_eq!(galois_to_bytes(scheme, &back), bytes);
        }
    }

    #[test]
    fn rejects_malformed_key_material() {
        let bad = |r: Result<(), HeError>| matches!(r, Err(HeError::InvalidKeyMaterial(_)));
        for scheme in SCHEMES {
            for (blob, decode) in key_blobs(scheme) {
                assert_eq!(decode(scheme, &blob), Ok(()));
                // Bad magic.
                let mut wrong = blob.clone();
                wrong[0] = b'X';
                assert!(bad(decode(scheme, &wrong)));
                // One decoder serves both schemes: the other scheme's blob
                // (`CHG1` to the CKKS decoder, `CHR2` to the BFV one, …) is
                // refused, never accepted.
                assert!(bad(decode(other(scheme), &blob)));
                // Truncations at several cut points — typed error, never a
                // panic.
                for cut in [0, 3, blob.len() / 2, blob.len() - 1] {
                    assert!(bad(decode(scheme, &blob[..cut])));
                }
                // Trailing garbage fails the exact-length check.
                let mut long = blob.clone();
                long.push(0);
                assert!(bad(decode(scheme, &long)));
                // Implausible header shape.
                let mut weird = blob.clone();
                weird[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                assert!(bad(decode(scheme, &weird)));
            }
            // Galois elements must be strictly increasing (sorted + deduped).
            let [_, (mut unsorted, decode)] = key_blobs(scheme);
            // Swap the first element id for u64::MAX so ordering breaks later.
            unsorted[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(bad(decode(scheme, &unsorted)));
        }
    }
}
