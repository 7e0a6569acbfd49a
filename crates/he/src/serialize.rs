//! Wire formats for ciphertexts and evaluation keys.
//!
//! Every frame packs its residues at their primes' widths: row `i` of a
//! polynomial over moduli `q_0, …, q_{k−1}` is written LSB-first at
//! `w_i = 64 − q_i.leading_zeros()` bits per coefficient, in `⌈N·w_i/8⌉`
//! bytes whose padding bits are zero ([`residue_bits`], [`packed_bytes`]).
//! A set-B residue (36 or 37 bits) takes 4.5 bytes where an 8-byte word
//! would carry 28 zero bits. The paper's Table 3 size, `s · N · (k−1) · 8`,
//! stays `HeParams::ciphertext_bytes`' model; the ledger bills what a frame
//! carries past its header ([`payload_bytes`], `Ciphertext::byte_size`).
//!
//! Frames, integers little-endian, `moduli` one `u64` per residue row:
//!
//! * a ciphertext, `CPO1 | parts:u32 | rows:u32 | N:u32 | moduli | parts`
//!   (BFV) or `CPO2 | parts:u32 | level:u32 | N:u32 | scale:f64 | moduli |
//!   parts` (CKKS) — every evaluator output;
//! * a *compact* ciphertext, `CPS1 | rows | N | moduli | seed:32B | c0` or
//!   `CPS2 | level | N | scale | moduli | seed | c0` — a fresh encryption,
//!   whose mask `c1` expands from the seed ([`crate::rlwe::expand_seed`]):
//!   half the bytes of a full frame. A decoded compact ciphertext keeps its
//!   seed, so it re-encodes to the same bytes;
//! * a *compressed reply*, `CPD1 | parts:u32 | rows | N | k0:u32 | k1:u32 |
//!   moduli | c0' | c1'` — every BFV program output
//!   ([`crate::bfv::BfvContext::compress_reply`]): `c_i'` packed at `k_i`
//!   bits, lifted on decode to `round(q'·c_i'/2^{k_i})` over the moduli,
//!   whose product is `q'` ([`crate::bfv::Ciphertext::from_reply`]). At set
//!   B that is 70 bits a coefficient where the full frame packs 144. A
//!   decoded reply keeps its rows, so it re-encodes to the same bytes;
//! * a relinearization key, `CPR1`/`CPR2 | digits | primes | N | moduli |
//!   digits × (b, a)`, and a Galois key set, `CPG1`/`CPG2 | count | digits |
//!   primes | N | moduli | count × (element:u64 | digits × (b, a))`, over
//!   the full basis, special prime last.
//!
//! Every frame describes itself, so its decoder needs no context: it checks
//! the shape, every modulus (a distinct NTT-friendly prime below `2^61` for
//! the claimed degree) and the exact length they imply before it allocates,
//! then unpacks each residue, refusing one that is not below its prime and
//! any nonzero padding bit — a decoder accepts exactly the bytes its
//! encoder writes. A compact frame's `c1` is expanded only after `c0` has
//! passed. A compressed reply must have two parts and widths the lift is
//! exact at (`bfv::check_reply_widths`: `1 ≤ k_i < 62`, below the
//! bits of `q'`); whether they are the client's licence is the client's
//! check, before it decrypts. Frames of the retired 8-byte layout (`CH…`
//! magics) are refused like any other bad magic.
//!
//! Deserialization is fully checked: every read is bounds-validated and
//! malformed frames surface as [`HeError::InvalidCiphertext`] (key blobs:
//! [`HeError::InvalidKeyMaterial`]), never as a panic — the transport layer
//! (`choco::transport`) feeds these functions bytes that crossed a lossy
//! link, so "attacker-shaped" input is the normal case, not the exception.
//! Integrity (detecting *valid-shaped but altered* frames) is layered above
//! via the transport's keyed BLAKE3 tags; [`ciphertext_from_bytes`] alone
//! accepts any well-formed frame.

use crate::bfv::{check_reply_widths, Ciphertext};
use crate::ckks::CkksCiphertext;
use crate::error::HeError;
use crate::keyswitch::KswitchKey;
use crate::params::SchemeType;
use crate::rlwe::{self, GaloisKeys, MaskSeed, RelinKey};
use crate::rnspoly::RnsPoly;
use choco_math::pool::PolyPool;
use choco_math::prime::is_prime;
use std::collections::HashMap;

/// Smallest and largest ring degree a frame may claim.
const MIN_DEGREE: usize = 16;
const MAX_DEGREE: usize = 1 << 17;

/// Most residue rows (or key-switching digits) a frame may claim.
const MAX_ROWS: usize = 32;

/// Most keys a Galois set may hold.
const MAX_GALOIS_KEYS: usize = 4096;

/// Magic of a frame: `CP` (packed residues), the kind — `O` a ciphertext,
/// `S` a compact one, `D` a compressed reply (BFV only), `R` a
/// relinearization key, `G` a Galois key set —
/// then `1` for BFV or `2` for CKKS, the only byte in which the two
/// schemes' frames of a kind differ.
pub fn magic(kind: u8, scheme: SchemeType) -> [u8; 4] {
    let scheme = match scheme {
        SchemeType::Bfv => b'1',
        SchemeType::Ckks => b'2',
    };
    [b'C', b'P', kind, scheme]
}

/// BFV header size in bytes (magic, parts, rows, degree).
pub const HEADER_BYTES: usize = 16;

/// CKKS header size in bytes (magic, parts, level, degree, scale).
pub const CKKS_HEADER_BYTES: usize = 24;

/// Compact BFV header size in bytes (magic, rows, degree).
pub const SEEDED_HEADER_BYTES: usize = 12;

/// Compact CKKS header size in bytes (magic, level, degree, scale).
pub const CKKS_SEEDED_HEADER_BYTES: usize = 20;

/// Compressed-reply header size in bytes (magic, parts, rows, degree, both
/// widths).
pub const REPLY_HEADER_BYTES: usize = 24;

/// Bits one residue modulo `q` takes on the wire: `q`'s bit length.
pub fn residue_bits(q: u64) -> usize {
    (u64::BITS - q.leading_zeros()) as usize
}

/// Bytes a degree-`n` polynomial over `moduli` takes on the wire: each
/// residue row packed at its prime's width.
pub fn packed_bytes(n: usize, moduli: &[u64]) -> usize {
    moduli
        .iter()
        .map(|&q| (n * residue_bits(q)).div_ceil(8))
        .sum()
}

/// Bytes a ciphertext frame carries past its header: one word per modulus,
/// then the 32-byte seed and `c0` if `seeded`, else `parts` polynomials of
/// degree `n`, all packed over `moduli`.
pub fn payload_bytes(n: usize, moduli: &[u64], parts: usize, seeded: bool) -> usize {
    let polys = if seeded {
        MaskSeed::WIRE_BYTES + packed_bytes(n, moduli)
    } else {
        parts * packed_bytes(n, moduli)
    };
    8 * moduli.len() + polys
}

/// Bytes a compressed reply's frame carries past its header: one word per
/// modulus, then `c0'` and `c1'` of degree `n` packed at their widths.
pub fn reply_payload_bytes(n: usize, moduli: &[u64], widths: [u32; 2]) -> usize {
    let rows: usize = widths.iter().map(|&k| (n * k as usize).div_ceil(8)).sum();
    8 * moduli.len() + rows
}

fn push_u32(out: &mut Vec<u8>, word: usize) {
    out.extend_from_slice(&(word as u32).to_le_bytes());
}

/// Appends `row` LSB-first at `w` bits per residue, zero-padded to a whole
/// byte. Every residue must fit in `w` bits.
fn pack_row(out: &mut Vec<u8>, row: &[u64], w: usize) {
    let mut acc = 0u128;
    let mut bits = 0;
    for &x in row {
        debug_assert!(x >> w == 0, "residue {x} wider than {w} bits");
        acc |= u128::from(x) << bits;
        bits += w;
        if bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            bits -= 64;
        }
    }
    out.extend(acc.to_le_bytes().iter().take(bits.div_ceil(8)));
}

/// Appends `poly`'s residue rows, row `i` packed at `moduli[i]`'s width.
fn write_poly(out: &mut Vec<u8>, poly: &RnsPoly, moduli: &[u64]) {
    for (r, &q) in (0..poly.row_count()).zip(moduli) {
        pack_row(out, poly.row(r), residue_bits(q));
    }
}

/// Appends a ciphertext's body after its header words: the moduli, then
/// the seed and `c0` of a seeded ciphertext, or every part of another.
fn write_body<'a>(
    out: &mut Vec<u8>,
    mut parts: impl Iterator<Item = &'a RnsPoly>,
    moduli: &[u64],
    seed: Option<&MaskSeed>,
) {
    for q in moduli {
        out.extend_from_slice(&q.to_le_bytes());
    }
    if let Some(seed) = seed {
        out.extend_from_slice(seed.bytes());
        if let Some(c0) = parts.next() {
            write_poly(out, c0, moduli);
        }
        return;
    }
    for part in parts {
        write_poly(out, part, moduli);
    }
}

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
        let out = self.bytes.get(self.off..end).ok_or_else(|| {
            HeError::InvalidCiphertext(format!(
                "truncated frame: need {end} bytes, have {}",
                self.bytes.len()
            ))
        })?;
        self.off = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<usize, HeError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf) as usize)
    }

    fn u64(&mut self) -> Result<u64, HeError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    /// Refuses a frame that does not end exactly `rest` bytes past here.
    fn expect_rest(&self, rest: Option<usize>) -> Result<(), HeError> {
        let expect = rest.and_then(|rest| self.off.checked_add(rest));
        if expect != Some(self.bytes.len()) {
            return Err(HeError::InvalidCiphertext(format!(
                "frame length {} != expected {expect:?}",
                self.bytes.len()
            )));
        }
        Ok(())
    }

    /// Reads `rows` modulus words and checks them for degree `n`
    /// ([`check_moduli`]).
    fn moduli(&mut self, rows: usize, n: usize) -> Result<Vec<u64>, HeError> {
        let moduli = (0..rows).map(|_| self.u64());
        let moduli = moduli.collect::<Result<Vec<_>, _>>()?;
        check_moduli(&moduli, n)?;
        Ok(moduli)
    }

    /// Reads one row of `n` residues modulo `q` packed at `q`'s width,
    /// refusing a residue not below `q` and a nonzero padding bit. Scans
    /// the whole row whatever it finds.
    fn unpack_row(&mut self, n: usize, q: u64) -> Result<Vec<u64>, HeError> {
        self.unpack_bits(n, residue_bits(q), q)
    }

    /// Reads one row of `n` values packed at `w ≤ 64` bits, refusing a
    /// value not below `q` and a nonzero padding bit.
    fn unpack_bits(&mut self, n: usize, w: usize, q: u64) -> Result<Vec<u64>, HeError> {
        let mask = u64::MAX.checked_shr(64 - w as u32).unwrap_or(0);
        let bytes = self.take((n * w).div_ceil(8))?;
        let mut row = PolyPool::take_scratch(n);
        let mut reduced = true;
        for (j, x) in row.iter_mut().enumerate() {
            // Residue `j` starts at bit `j·w`: its 16-byte window holds it
            // whole (`w ≤ 64`, shift ≤ 7), zero-extended past the row's end.
            let (at, shift) = ((j * w) / 8, (j * w) % 8);
            let window = match bytes.get(at..at + 16) {
                Some(window) => u128::from_le_bytes(window.try_into().unwrap_or_default()),
                None => {
                    let mut buf = [0u8; 16];
                    let rest = bytes.iter().skip(at);
                    buf.iter_mut().zip(rest).for_each(|(b, &v)| *b = v);
                    u128::from_le_bytes(buf)
                }
            };
            *x = (window >> shift) as u64 & mask;
            reduced &= *x < q;
        }
        let used = (n * w) % 8;
        let padded = used != 0 && bytes.last().is_some_and(|&last| last >> used != 0);
        let why = if !reduced {
            format!("residue not reduced modulo its prime {q}")
        } else if padded {
            "nonzero padding bits after a packed residue row".into()
        } else {
            return Ok(row);
        };
        PolyPool::recycle(row);
        Err(HeError::InvalidCiphertext(why))
    }

    /// Reads a degree-`n` polynomial over `moduli`.
    fn poly(&mut self, n: usize, moduli: &[u64]) -> Result<RnsPoly, HeError> {
        let rows = moduli.iter().map(|&q| self.unpack_row(n, q));
        Ok(RnsPoly::from_rows(rows.collect::<Result<_, _>>()?))
    }

    /// Reads the body of a ciphertext frame whose header ends here and
    /// claimed `parts` parts of `rows` residues at degree `n`: the moduli
    /// and the exact length they imply before anything else, then the
    /// seed, `c0` and `c1` expanded from the seed of a compact frame, or
    /// every part of another.
    fn ciphertext_body(
        &mut self,
        parts: usize,
        rows: usize,
        n: usize,
        seeded: bool,
    ) -> Result<Body, HeError> {
        check_shape(rows, n)?;
        if !(1..=3).contains(&parts) {
            return Err(HeError::InvalidCiphertext(format!(
                "implausible frame shape: {parts} parts"
            )));
        }
        let moduli = self.moduli(rows, n)?;
        self.expect_rest(Some(payload_bytes(n, &moduli, parts, seeded) - 8 * rows))?;
        if !seeded {
            let parts = (0..parts).map(|_| self.poly(n, &moduli));
            let parts = parts.collect::<Result<_, _>>()?;
            return Ok(Body {
                parts,
                moduli,
                seed: None,
            });
        }
        let mut bytes = [0u8; MaskSeed::WIRE_BYTES];
        bytes.copy_from_slice(self.take(MaskSeed::WIRE_BYTES)?);
        let seed = MaskSeed { bytes };
        let c0 = self.poly(n, &moduli)?;
        let c1 = rlwe::expand_seed(&seed, &moduli, n);
        Ok(Body {
            parts: vec![c0, c1],
            moduli,
            seed: Some(seed),
        })
    }

    /// Reads a ciphertext magic of `scheme` and returns its kind: `O`,
    /// `S`, or (BFV) `D`.
    fn ciphertext_kind(&mut self, scheme: SchemeType) -> Result<u8, HeError> {
        let got = self.take(4)?;
        let kinds: &[u8] = match scheme {
            SchemeType::Bfv => b"OSD",
            SchemeType::Ckks => b"OS",
        };
        let kind = kinds.iter().find(|&&kind| got == magic(kind, scheme));
        kind.copied().ok_or_else(|| {
            HeError::InvalidCiphertext(format!("bad {scheme:?} ciphertext magic {got:?}"))
        })
    }

    /// Reads a compressed reply whose magic ends here: two parts, widths
    /// the lift is exact at over the moduli, then the exact length they
    /// imply before the rows are unpacked and lifted.
    fn reply(&mut self) -> Result<Ciphertext, HeError> {
        let (parts, rows, n) = (self.u32()?, self.u32()?, self.u32()?);
        let widths = [self.u32()?, self.u32()?].map(|k| k as u32);
        check_shape(rows, n)?;
        if parts != 2 {
            return Err(HeError::InvalidCiphertext(format!(
                "a compressed reply has 2 parts, not {parts}"
            )));
        }
        let moduli = self.moduli(rows, n)?;
        check_reply_widths(widths, &moduli)?;
        self.expect_rest(Some(reply_payload_bytes(n, &moduli, widths) - 8 * rows))?;
        let [k0, k1] = widths;
        let c0 = self.unpack_bits(n, k0 as usize, 1 << k0)?;
        let c1 = self.unpack_bits(n, k1 as usize, 1 << k1)?;
        Ciphertext::from_reply(widths, [c0, c1], &moduli)
    }
}

/// A decoded ciphertext frame's body.
struct Body {
    parts: Vec<RnsPoly>,
    moduli: Vec<u64>,
    seed: Option<MaskSeed>,
}

/// Refuses a frame shape outside the decoders' bounds: `rows` residue rows
/// (or digits) in `1..=32` at a power-of-two degree `n` in `16..=2^17`.
fn check_shape(rows: usize, n: usize) -> Result<(), HeError> {
    if !(1..=MAX_ROWS).contains(&rows)
        || !(MIN_DEGREE..=MAX_DEGREE).contains(&n)
        || !n.is_power_of_two()
    {
        return Err(HeError::InvalidCiphertext(format!(
            "implausible frame shape: {rows} residues at degree {n}"
        )));
    }
    Ok(())
}

/// Refuses moduli no polynomial of degree `n` can live over: each must be an
/// NTT-friendly prime (`q ≡ 1 mod 2n`) below `2^61`, and no two equal.
fn check_moduli(moduli: &[u64], n: usize) -> Result<(), HeError> {
    let two_n = 2 * n as u64;
    for (i, &q) in moduli.iter().enumerate() {
        if q >= 1 << 61 || q % two_n != 1 || !is_prime(q) || moduli.iter().take(i).any(|&p| p == q)
        {
            return Err(HeError::InvalidCiphertext(format!(
                "frame modulus {q} is not a distinct NTT prime for degree {n}"
            )));
        }
    }
    Ok(())
}

/// Serializes a BFV ciphertext: its `CPO1` frame, the compact `CPS1` frame
/// of a seeded one, or the `CPD1` frame of a compressed reply.
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    let mut out = Vec::with_capacity(REPLY_HEADER_BYTES + ct.byte_size());
    if let Some(reply) = ct.reply() {
        out.extend_from_slice(&magic(b'D', SchemeType::Bfv));
        let widths = reply.widths();
        for word in [2, ct.moduli().len(), ct.degree()]
            .into_iter()
            .chain(widths.map(|k| k as usize))
        {
            push_u32(&mut out, word);
        }
        for q in ct.moduli() {
            out.extend_from_slice(&q.to_le_bytes());
        }
        for (row, k) in reply.rows().iter().zip(widths) {
            pack_row(&mut out, row, k as usize);
        }
        return out;
    }
    if ct.seed().is_some() {
        out.extend_from_slice(&magic(b'S', SchemeType::Bfv));
    } else {
        out.extend_from_slice(&magic(b'O', SchemeType::Bfv));
        push_u32(&mut out, ct.size());
    }
    push_u32(&mut out, ct.moduli().len());
    push_u32(&mut out, ct.degree());
    let parts = (0..ct.size()).map(|i| ct.part(i));
    write_body(&mut out, parts, ct.moduli(), ct.seed());
    out
}

/// Deserializes a BFV ciphertext frame, full, compact or a compressed
/// reply.
///
/// # Errors
///
/// Returns [`HeError::InvalidCiphertext`] on malformed frames: bad magic,
/// truncated or overlong payload, implausible shape, bad moduli, a residue
/// not below its prime or a nonzero padding bit, and a reply of other than
/// two parts or at widths its lift is not exact at. Never panics,
/// regardless of input bytes.
pub fn ciphertext_from_bytes(bytes: &[u8]) -> Result<Ciphertext, HeError> {
    let mut r = Reader::new(bytes);
    let kind = r.ciphertext_kind(SchemeType::Bfv)?;
    if kind == b'D' {
        return r.reply();
    }
    let seeded = kind == b'S';
    let parts = if seeded { 1 } else { r.u32()? };
    let (rows, n) = (r.u32()?, r.u32()?);
    let body = r.ciphertext_body(parts, rows, n, seeded)?;
    Ok(match body.seed {
        Some(seed) => Ciphertext::seeded(body.parts, &body.moduli, seed),
        None => Ciphertext::from_parts(body.parts, &body.moduli),
    })
}

/// Serializes a CKKS ciphertext at its level: its `CPO2` frame, or the
/// compact `CPS2` frame of a seeded one.
pub fn ckks_ciphertext_to_bytes(ct: &CkksCiphertext) -> Vec<u8> {
    let mut out = Vec::with_capacity(CKKS_HEADER_BYTES + ct.byte_size());
    if ct.seed().is_some() {
        out.extend_from_slice(&magic(b'S', SchemeType::Ckks));
    } else {
        out.extend_from_slice(&magic(b'O', SchemeType::Ckks));
        push_u32(&mut out, ct.size());
    }
    push_u32(&mut out, ct.level());
    push_u32(&mut out, ct.degree());
    out.extend_from_slice(&ct.scale().to_bits().to_le_bytes());
    let parts = (0..ct.size()).map(|i| ct.part(i));
    write_body(&mut out, parts, ct.moduli(), ct.seed());
    out
}

/// Deserializes a CKKS ciphertext frame, full or compact.
///
/// # Errors
///
/// Returns [`HeError::InvalidCiphertext`] on malformed frames, as
/// [`ciphertext_from_bytes`], and on a non-finite or non-positive scale.
/// Never panics, regardless of input bytes.
pub fn ckks_ciphertext_from_bytes(bytes: &[u8]) -> Result<CkksCiphertext, HeError> {
    let mut r = Reader::new(bytes);
    let seeded = r.ciphertext_kind(SchemeType::Ckks)? == b'S';
    let parts = if seeded { 1 } else { r.u32()? };
    let (level, n) = (r.u32()?, r.u32()?);
    let scale = check_scale(f64::from_bits(r.u64()?))?;
    let body = r.ciphertext_body(parts, level, n, seeded)?;
    Ok(match body.seed {
        Some(seed) => CkksCiphertext::seeded(body.parts, &body.moduli, scale, seed),
        None => CkksCiphertext::from_parts(body.parts, &body.moduli, scale),
    })
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

/// A key blob's decoding error: what the shared readers report as a
/// malformed ciphertext frame is malformed key material here.
fn key_error(e: HeError) -> HeError {
    match e {
        HeError::InvalidCiphertext(why) => HeError::InvalidKeyMaterial(why),
        other => other,
    }
}

/// Opens a key blob of kind `kind`: checks the magic, leaves the reader at
/// the header words.
fn open_key_blob(bytes: &[u8], kind: u8, scheme: SchemeType) -> Result<Reader<'_>, HeError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != magic(kind, scheme) {
        return Err(HeError::InvalidCiphertext(format!(
            "bad {scheme:?} key-blob magic"
        )));
    }
    Ok(r)
}

/// Appends a key-switching key set's shape words (digits, primes, degree)
/// and moduli; an empty set writes three zero words.
fn write_ksk_header(out: &mut Vec<u8>, ksk: Option<&KswitchKey>) {
    let moduli: &[u64] = ksk.map_or(&[], KswitchKey::moduli);
    push_u32(out, ksk.map_or(0, KswitchKey::digit_count));
    push_u32(out, moduli.len());
    push_u32(out, ksk.map_or(0, KswitchKey::degree));
    for q in moduli {
        out.extend_from_slice(&q.to_le_bytes());
    }
}

/// Appends one key-switching key's digit pairs (`b_j` then `a_j`, per
/// digit).
fn write_ksk_pairs(out: &mut Vec<u8>, ksk: &KswitchKey) {
    for (b, a) in ksk.pairs() {
        write_poly(out, b, ksk.moduli());
        write_poly(out, a, ksk.moduli());
    }
}

/// The shape of a key-switching key set read off its header.
struct KskShape {
    digits: usize,
    n: usize,
    moduli: Vec<u64>,
}

impl KskShape {
    /// Reads the shape words and moduli of `count` keys, each preceded by
    /// `lead` bytes, and checks that exactly they follow: `digits` data
    /// primes plus one special prime at a plausible degree.
    fn read(r: &mut Reader<'_>, count: usize, lead: usize) -> Result<Self, HeError> {
        let (digits, primes, n) = (r.u32()?, r.u32()?, r.u32()?);
        check_shape(digits, n)?;
        if primes != digits + 1 {
            return Err(HeError::InvalidCiphertext(format!(
                "{digits} key-switching digits over {primes} primes"
            )));
        }
        let moduli = r.moduli(primes, n)?;
        let key = (2 * digits * packed_bytes(n, &moduli)).checked_add(lead);
        r.expect_rest(key.and_then(|key| key.checked_mul(count)))?;
        Ok(KskShape { digits, n, moduli })
    }

    /// Reads one key-switching key of this shape.
    fn read_key(&self, r: &mut Reader<'_>) -> Result<KswitchKey, HeError> {
        let pairs = (0..self.digits).map(|_| {
            let b = r.poly(self.n, &self.moduli)?;
            Ok((b, r.poly(self.n, &self.moduli)?))
        });
        let pairs = pairs.collect::<Result<_, HeError>>()?;
        KswitchKey::from_parts(pairs, self.moduli.clone())
            .ok_or_else(|| HeError::InvalidCiphertext("inconsistent key-switch shape".into()))
    }
}

/// Serializes a relinearization key (`CPR1` / `CPR2` blob).
pub fn relin_to_bytes(scheme: SchemeType, rk: &RelinKey) -> Vec<u8> {
    let mut out = magic(b'R', scheme).to_vec();
    write_ksk_header(&mut out, Some(&rk.ksk));
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
    let read = || {
        let mut r = open_key_blob(bytes, b'R', scheme)?;
        let shape = KskShape::read(&mut r, 1, 0)?;
        Ok(RelinKey {
            ksk: shape.read_key(&mut r)?,
        })
    };
    read().map_err(key_error)
}

/// Serializes a Galois key set (`CPG1` / `CPG2` blob). Keys are written in
/// **sorted element order**, so serialization is deterministic regardless
/// of map iteration order — a requirement for bit-identical checkpoints.
pub fn galois_to_bytes(scheme: SchemeType, gk: &GaloisKeys) -> Vec<u8> {
    let mut keys: Vec<(&u64, &KswitchKey)> = gk.keys.iter().collect();
    keys.sort_unstable_by_key(|(e, _)| **e);
    let mut out = magic(b'G', scheme).to_vec();
    push_u32(&mut out, keys.len());
    write_ksk_header(&mut out, keys.first().map(|(_, k)| *k));
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
    let read = || {
        let mut r = open_key_blob(bytes, b'G', scheme)?;
        let count = r.u32()?;
        if count > MAX_GALOIS_KEYS {
            return Err(HeError::InvalidCiphertext(format!(
                "implausible galois-set size {count}"
            )));
        }
        if count == 0 {
            if (r.u32()?, r.u32()?, r.u32()?) != (0, 0, 0) {
                return Err(HeError::InvalidCiphertext(
                    "malformed empty galois set".into(),
                ));
            }
            r.expect_rest(Some(0))?;
            return Ok(GaloisKeys {
                keys: HashMap::new(),
            });
        }
        let shape = KskShape::read(&mut r, count, 8)?;
        let mut keys = HashMap::with_capacity(count);
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let elem = r.u64()?;
            if prev.is_some_and(|p| p >= elem) {
                return Err(HeError::InvalidCiphertext(
                    "galois elements not strictly increasing".into(),
                ));
            }
            prev = Some(elem);
            keys.insert(elem, shape.read_key(&mut r)?);
        }
        Ok(GaloisKeys { keys })
    };
    read().map_err(key_error)
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
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let pt = Plaintext::from_coeffs((0..256u64).map(|i| i % 100).collect());
        let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
        (ctx, keys, ct)
    }

    fn sample_ckks() -> (CkksContext, KeyBundle, CkksCiphertext) {
        let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"ckks serialize");
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 / 8.0).collect();
        let pt = ctx.encode(&values).unwrap();
        let ct = ctx.encrypt(&pt, &pk, &mut rng).unwrap();
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
    fn payload_is_the_moduli_and_the_packed_residues() {
        let (_, _, ct) = sample_ct();
        let bytes = ciphertext_to_bytes(&ct);
        assert_eq!(bytes.len(), HEADER_BYTES + ct.byte_size());
        // 2 moduli words, then 2 parts × 2 data residues × 256 coeffs at
        // 40 bits: 5 B each where Table 3's model bills 8.
        assert_eq!(ct.byte_size(), 2 * 8 + 2 * 2 * 256 * 5);
        let moduli: Vec<u8> = ct.moduli().iter().flat_map(|q| q.to_le_bytes()).collect();
        assert_eq!(bytes[HEADER_BYTES..HEADER_BYTES + 16], moduli[..]);
    }

    #[test]
    fn a_row_packs_lsb_first_and_unpacks_to_itself() {
        // 3 residues at 5 bits (q = 31): 15 bits, 2 bytes, 1 padding bit.
        let row = [0b10110, 0b00001, 0b11110];
        let mut out = Vec::new();
        pack_row(&mut out, &row, 5);
        assert_eq!(out, [0b0011_0110, 0b0111_1000]);
        assert_eq!(Reader::new(&out).unpack_row(3, 31).unwrap(), row);
        // Every width a prime below 2^61 can have, at a length that leaves
        // padding bits, with both ends of the residue range.
        for w in 2..=61 {
            let q = (1u64 << (w - 1)) | 1;
            let row: Vec<u64> = (0..13u64)
                .map(|i| [0, q - 1, i * 7919 % q][i as usize % 3])
                .collect();
            let mut out = Vec::new();
            pack_row(&mut out, &row, w);
            assert_eq!(out.len(), (13 * w).div_ceil(8));
            assert_eq!(
                Reader::new(&out).unpack_row(13, q).unwrap(),
                row,
                "width {w}"
            );
        }
    }

    #[test]
    fn a_row_with_a_residue_at_its_prime_or_a_padding_bit_is_refused() {
        let invalid =
            |r: Result<Vec<u64>, HeError>| matches!(r, Err(HeError::InvalidCiphertext(_)));
        let mut out = Vec::new();
        pack_row(&mut out, &[30, 0, 17], 5);
        assert!(Reader::new(&out).unpack_row(3, 31).is_ok());
        // The last byte's top bit is padding.
        let mut padded = out.clone();
        padded[1] |= 0x80;
        assert!(invalid(Reader::new(&padded).unpack_row(3, 31)));
        // 30 is below 31, but not below 29.
        assert!(invalid(Reader::new(&out).unpack_row(3, 29)));
        // A residue equal to its prime.
        let mut at_q = Vec::new();
        pack_row(&mut at_q, &[0, 31, 1], 5);
        assert!(invalid(Reader::new(&at_q).unpack_row(3, 31)));
        // Short and long rows.
        assert!(invalid(Reader::new(&out[..1]).unpack_row(3, 31)));
        assert!(Reader::new(&[out.clone(), vec![0]].concat())
            .unpack_row(3, 31)
            .is_ok_and(|row| row == [30, 0, 17]));
    }

    #[test]
    fn a_reply_row_unpacks_at_its_width_and_refuses_padding() {
        // 3 values at 5 bits below 2^5: 15 bits, 1 padding bit.
        let row = [31, 0, 16];
        let mut out = Vec::new();
        pack_row(&mut out, &row, 5);
        assert_eq!(Reader::new(&out).unpack_bits(3, 5, 1 << 5).unwrap(), row);
        let mut padded = out.clone();
        padded[1] |= 0x80;
        assert!(matches!(
            Reader::new(&padded).unpack_bits(3, 5, 1 << 5),
            Err(HeError::InvalidCiphertext(_))
        ));
    }

    #[test]
    fn a_reply_frame_is_its_widths_and_roundtrips() {
        let (ctx, keys, ct) = sample_ct();
        let reply = ctx.compress_reply(&ct).unwrap();
        let widths = ctx.reply_widths().unwrap();
        assert_eq!(widths, [25, 33]);
        let bytes = ciphertext_to_bytes(&reply);
        assert_eq!(&bytes[..4], b"CPD1");
        assert_eq!(bytes.len(), REPLY_HEADER_BYTES + reply.byte_size());
        assert_eq!(reply.byte_size(), 8 + 256 * (25 + 33) / 8);
        let back = ciphertext_from_bytes(&bytes).unwrap();
        assert_eq!(back, reply);
        let out = ctx.decryptor(keys.secret_key()).decrypt(&back);
        assert_eq!(out.coeffs()[5], 5);
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
        // The low bit of `c0`'s first residue, past the header and moduli.
        bytes[HEADER_BYTES + 2 * 8] ^= 1;
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
        bad[..4].copy_from_slice(&magic(b'O', SchemeType::Bfv));
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
            // Swap the first element id (past the header and 3 moduli) for
            // u64::MAX so ordering breaks later.
            unsorted[44..52].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(bad(decode(scheme, &unsorted)));
        }
    }
}
