//! The RLWE core under both schemes.
//!
//! BFV and CKKS are the same ring-LWE computation below their encoders:
//! the client's key is the secret `s` ([`keygen`]), its upload form is the
//! symmetric `(−(a·s + e) + msg, a)` whose mask `a` travels as a seed
//! ([`encrypt_symmetric`]), the paper's Eq. 2 public-key encryption
//! (`c = (P0·u + e1 + msg, P1·u + e2)` under `(−(a·s + e), a)`, built on
//! request by [`public_key`]) stays for the reports that price it, and
//! every evaluation-key
//! operation — Galois automorphism ([`apply_galois`]), the fused
//! double-hoisted rotate-and-dot ([`dot_galois`]: one output, or several
//! sharing every rotation's key switch, in one pass per residue tile),
//! relinearization — is a key switch
//! over a `(ks_basis, basis)` pair. This module holds that
//! computation once, as plain functions over ciphertext *parts*
//! (`&[RnsPoly]`) and the bases the calling context already owns. The
//! schemes keep what differs: how a message becomes the polynomial `msg`
//! (BFV scales by `Δ`, CKKS embeds at a scale), which basis a ciphertext
//! lives in (BFV: the data modulus; CKKS: its level), the step → Galois
//! element map, how a plaintext becomes a [`DotOperand`] (the same integer
//! polynomial, reduced into the key-switch basis), and everything specific
//! to one scheme (BFV's scale-and-round multiply and noise budget, CKKS
//! `rescale`).
//!
//! Every entry point that takes ciphertext parts checks their count and
//! shape against the basis it is handed and answers a malformed operand
//! with [`HeError::InvalidCiphertext`] / [`HeError::Mismatch`]: parts parse
//! off the wire, so a wrong shape is input, not a bug.
//!
//! RNG draw order is part of the contract (checkpoints replay it): `s` for
//! a key; `a`, `e` for a public key; `u`, `e1`, `e2` for an Eq. 2
//! encryption; the mask seed, then `e`, for a symmetric one; one
//! [`generate_ksk`] per Galois element in list order.
//!
//! The client's side pays each transform once. Both keys carry their
//! evaluation-domain rows, built once where the key is built ([`keygen`],
//! [`public_key`]); the public key keeps its coefficient form beside them.
//! An Eq. 2 encryption transforms `u` once per prime and
//! multiplies it into both public-key halves (one forward and two inverse
//! NTTs per prime), a decryption multiplies the ciphertext's transformed
//! components into the secret's rows ([`dot_with_secret`]), and key-switch
//! keys are formed over the secret's rows directly. A prefix of
//! the secret's rows is the secret at any level, as an NTT row depends only
//! on its prime.

use crate::error::HeError;
use crate::keyswitch::{
    apply_ksk, generate_ksk, hoist_decompose, mod_down_ntt, DotTerm, DotTile, HoistedDigits,
    KswitchKey, DOT_CHUNK,
};
use crate::rnspoly::{self, RnsPoly};
use choco_math::modops::{add_mod, Barrett};
use choco_math::ntt::galois_ntt_permutation;
use choco_math::par;
use choco_math::pool::PolyPool;
use choco_math::rns::RnsBasis;
use choco_prng::Blake3Rng;
use std::borrow::Borrow;
use std::collections::HashMap;

/// The evaluation-domain copy of a coefficient-form polynomial over `basis`.
// choco-lint: secret (public: basis)
fn to_ntt(poly: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
    let mut ntt = poly.clone();
    ntt.ntt_forward(basis);
    ntt
}

/// The secret key: a ternary polynomial, kept over the full basis so key
/// switching material can be generated, as evaluation-domain rows. It has
/// no wire form: a client that needs it again derives it from its seed.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) ntt: RnsPoly,
}

impl SecretKey {
    /// The key whose coefficient form over `full` is `s`.
    // choco-lint: secret (public: full)
    pub(crate) fn new(s: RnsPoly, full: &RnsBasis) -> Self {
        SecretKey {
            ntt: to_ntt(&s, full),
        }
    }
}

/// The paper's Eq. 2 public encryption key `(P0, P1) = (−(a·s + e), a)`
/// over the top ciphertext basis, in coefficient form and as
/// evaluation-domain rows. No runtime path uses it: it prices the Eq. 2
/// encryption the paper reports ([`public_key`]).
#[derive(Debug, Clone)]
pub struct PublicKey {
    p0: RnsPoly,
    p1: RnsPoly,
    p0_ntt: RnsPoly,
    p1_ntt: RnsPoly,
}

impl PublicKey {
    /// The coefficient form `(P0, P1)`.
    pub fn parts(&self) -> (&RnsPoly, &RnsPoly) {
        (&self.p0, &self.p1)
    }
}

/// The client's key material produced by [`keygen`]: its secret key.
#[derive(Debug, Clone)]
pub struct KeyBundle {
    pub(crate) secret: SecretKey,
}

impl KeyBundle {
    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.secret
    }
}

/// Relinearization key (switches `s²`-keyed components back to `s`).
#[derive(Debug, Clone)]
pub struct RelinKey {
    pub(crate) ksk: KswitchKey,
}

impl RelinKey {
    /// Size in the paper's provisioning model ([`KswitchKey::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        self.ksk.size_bytes()
    }

    /// The key-switching key itself.
    pub fn key_switching_key(&self) -> &KswitchKey {
        &self.ksk
    }
}

/// One key of a [`GaloisKeys`] set: the key-switching key for an element
/// and that element's NTT-domain permutation
/// ([`galois_ntt_permutation`]), built once with the key rather than per
/// rotated term.
#[derive(Debug, Clone)]
pub(crate) struct GaloisKey {
    pub(crate) ksk: KswitchKey,
    pub(crate) perm: Vec<u32>,
}

impl GaloisKey {
    /// A decoded key for `element`, with its permutation.
    ///
    /// # Errors
    ///
    /// [`HeError::InvalidCiphertext`] for an even element, which names no
    /// automorphism of the ring.
    pub(crate) fn new(element: u64, ksk: KswitchKey) -> Result<Self, HeError> {
        if element & 1 == 0 {
            return Err(HeError::InvalidCiphertext(format!(
                "galois element {element} is even"
            )));
        }
        Ok(GaloisKey {
            perm: galois_ntt_permutation(ksk.degree(), element),
            ksk,
        })
    }
}

/// A set of Galois keys, one per automorphism element.
#[derive(Debug, Clone)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<u64, GaloisKey>,
}

impl GaloisKeys {
    /// The Galois elements covered by this key set, in sorted order.
    pub fn elements(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.keys.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Size of all keys in the paper's provisioning model
    /// ([`KswitchKey::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        self.keys.values().map(|k| k.ksk.size_bytes()).sum()
    }

    /// The key for `element`, if the set holds one.
    pub fn get(&self, element: u64) -> Option<&KswitchKey> {
        self.keys.get(&element).map(|k| &k.ksk)
    }

    /// Whether every key lives over `moduli` at degree `n`; true of an
    /// empty set.
    pub fn all_over(&self, moduli: &[u64], n: usize) -> bool {
        self.keys.values().all(|k| k.ksk.is_over(moduli, n))
    }

    /// The key for `element`, or [`HeError::MissingGaloisKey`].
    pub(crate) fn key_for(&self, element: u64) -> Result<&GaloisKey, HeError> {
        self.keys
            .get(&element)
            .ok_or(HeError::MissingGaloisKey(element))
    }
}

/// An RLWE encryption of zero under the secret with evaluation-domain rows
/// `s_ntt` (a prefix of them is used) with the given mask: `−(a·s + e)` for
/// a fresh error `e`.
// choco-lint: secret (public: basis)
fn masked_zero(a: &RnsPoly, s_ntt: &RnsPoly, basis: &RnsBasis, rng: &mut Blake3Rng) -> RnsPoly {
    let e = RnsPoly::sample_error(rng, basis);
    let [mut b] = a.mul_by_ntt([s_ntt], basis);
    b.add_assign_poly(&e, basis);
    b.neg_assign_poly(basis);
    b
}

/// Generates a fresh secret key over `full` (data primes plus the special
/// prime). Every runtime encryption is symmetric under it.
// choco-lint: secret (public: full)
pub fn keygen(full: &RnsBasis, rng: &mut Blake3Rng) -> KeyBundle {
    KeyBundle {
        secret: SecretKey::new(RnsPoly::sample_ternary(rng, full), full),
    }
}

/// Generates the paper's Eq. 2 public key `(−(a·s + e), a)` over `top`,
/// the basis of a fresh ciphertext: a uniform `a`, then the error `e`.
// choco-lint: secret (public: top)
pub fn public_key(sk: &SecretKey, top: &RnsBasis, rng: &mut Blake3Rng) -> PublicKey {
    let a = RnsPoly::sample_uniform(rng, top);
    let p0 = masked_zero(&a, &sk.ntt, top, rng);
    PublicKey {
        p0_ntt: to_ntt(&p0, top),
        p1_ntt: to_ntt(&a, top),
        p0,
        p1: a,
    }
}

/// Generates the relinearization key (for `s²`, formed as `NTT(s) ⊙ NTT(s)`).
/// `full` must be `top` plus the special prime.
// choco-lint: secret (public: full, top)
pub fn relin_key(sk: &SecretKey, full: &RnsBasis, top: &RnsBasis, rng: &mut Blake3Rng) -> RelinKey {
    let mut s2 = RnsPoly::zero(full.len(), full.degree());
    s2.dyadic_accumulate(&sk.ntt, &sk.ntt, full);
    RelinKey {
        ksk: generate_ksk(&sk.ntt, &s2, full, top, rng),
    }
}

/// Generates one Galois key per element of `elements`, in list order (the
/// order fixes the RNG stream); an element seen twice is generated once.
/// `σ(s)` is the Galois NTT permutation of the secret's rows; the key keeps
/// the permutation.
// choco-lint: secret (public: elements, full, top)
pub fn galois_keys(
    sk: &SecretKey,
    elements: &[u64],
    full: &RnsBasis,
    top: &RnsBasis,
    rng: &mut Blake3Rng,
) -> GaloisKeys {
    let mut keys = HashMap::new();
    for &element in elements {
        keys.entry(element).or_insert_with(|| {
            let perm = galois_ntt_permutation(full.degree(), element);
            let s_e = sk.ntt.galois_ntt(&perm);
            GaloisKey {
                ksk: generate_ksk(&sk.ntt, &s_e, full, top, rng),
                perm,
            }
        });
    }
    GaloisKeys { keys }
}

/// Public-key encryption (paper Eq. 2 / Fig. 5 dataflow) of the
/// already-scaled message polynomial `msg` over `basis`:
/// `c0 = P0·u + e1 + msg`, `c1 = P1·u + e2`. `u` is transformed once per
/// prime and multiplied into the key's evaluation-domain rows: one forward
/// and two inverse NTTs per prime.
// choco-lint: secret (public: basis)
pub fn encrypt(
    pk: &PublicKey,
    msg: &RnsPoly,
    basis: &RnsBasis,
    rng: &mut Blake3Rng,
) -> Vec<RnsPoly> {
    let u = RnsPoly::sample_ternary(rng, basis);
    let e1 = RnsPoly::sample_error(rng, basis);
    let e2 = RnsPoly::sample_error(rng, basis);
    let [mut c0, mut c1] = u.mul_by_ntt([&pk.p0_ntt, &pk.p1_ntt], basis);
    c0.add_assign_poly(&e1, basis);
    c0.add_assign_poly(msg, basis);
    c1.add_assign_poly(&e2, basis);
    vec![c0, c1]
}

/// `c0 + c1·s (+ c2·s² + …)` over `basis` for ciphertext `parts` of any
/// size: the polynomial every decryption starts from, against the secret's
/// evaluation-domain rows ([`rnspoly::dot_with_key_powers`]). BFV and CKKS
/// decrypt through it.
// choco-lint: secret (public: parts, basis)
pub fn dot_with_secret(parts: &[RnsPoly], sk: &SecretKey, basis: &RnsBasis) -> RnsPoly {
    match parts.split_first() {
        Some((c0, higher)) => rnspoly::dot_with_key_powers(c0, higher, &sk.ntt, basis),
        None => RnsPoly::zero(basis.len(), basis.degree()),
    }
}

/// What a compact wire frame sends in place of a fresh symmetric
/// encryption's mask `c1 = a`: the 32-byte seed `a` expands over the
/// ciphertext's moduli ([`expand_seed`]). Only encryption sets one; no
/// evaluator output carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSeed {
    pub(crate) bytes: [u8; 32],
}

impl MaskSeed {
    /// Bytes it takes on the wire in place of `c1`.
    pub const WIRE_BYTES: usize = 32;

    /// The seed itself: public, it travels in the clear.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

/// Symmetric encryption of `msg` over `basis` with a seeded mask:
/// `(c0, c1) = (−(a·s + e) + msg, a)`, where `a` expands from a fresh
/// 32-byte seed drawn from `rng` ([`expand_seed`]). Returns both parts and
/// the [`MaskSeed`] that stands for `c1` on the wire. RNG draw order: the
/// seed, then `e`.
// choco-lint: secret (public: basis)
pub fn encrypt_symmetric(
    sk: &SecretKey,
    msg: &RnsPoly,
    basis: &RnsBasis,
    rng: &mut Blake3Rng,
) -> (Vec<RnsPoly>, MaskSeed) {
    let mut bytes = [0u8; 32];
    rng.fill_bytes(&mut bytes);
    let seed = MaskSeed { bytes };
    let a = expand_seed(&seed, basis.primes(), basis.degree());
    let mut c0 = masked_zero(&a, &sk.ntt, basis, rng);
    c0.add_assign_poly(msg, basis);
    (vec![c0, a], seed)
}

/// The uniform degree-`n` mask `a` a seed stands for, over `moduli`. It
/// needs no context, so a decoder expands a compact frame from the frame
/// alone.
// choco-lint: ct-safe
pub fn expand_seed(seed: &MaskSeed, moduli: &[u64], n: usize) -> RnsPoly {
    // The label is part of the compact wire format.
    let mut a_rng = Blake3Rng::from_seed_labeled(&seed.bytes, "rlwe-seeded-c1");
    RnsPoly::sample_uniform_masked(&mut a_rng, moduli, n)
}

/// Rejects parts that are not polynomials over `basis`.
fn check_shape(parts: &[RnsPoly], basis: &RnsBasis) -> Result<(), HeError> {
    match parts
        .iter()
        .find(|p| p.row_count() != basis.len() || p.degree() != basis.degree())
    {
        Some(p) => Err(HeError::Mismatch(format!(
            "ciphertext component of {} residues × degree {} where the operation runs over {} × {}",
            p.row_count(),
            p.degree(),
            basis.len(),
            basis.degree()
        ))),
        None => Ok(()),
    }
}

/// The `(c0, c1)` of a key-switchable (2-component) ciphertext over `basis`.
fn two_parts<'a>(
    parts: &'a [RnsPoly],
    basis: &RnsBasis,
) -> Result<(&'a RnsPoly, &'a RnsPoly), HeError> {
    let [c0, c1] = parts else {
        return Err(HeError::InvalidCiphertext(
            "galois requires a 2-component ciphertext (relinearize first)".into(),
        ));
    };
    check_shape(parts, basis)?;
    Ok((c0, c1))
}

/// `op` applied component-wise to two ciphertexts of one size over `basis`.
fn zip_parts(
    a: &[RnsPoly],
    b: &[RnsPoly],
    basis: &RnsBasis,
    op: fn(&RnsPoly, &RnsPoly, &RnsBasis) -> RnsPoly,
) -> Result<Vec<RnsPoly>, HeError> {
    if a.len() != b.len() {
        return Err(HeError::Mismatch(format!(
            "ciphertext sizes {} vs {}",
            a.len(),
            b.len()
        )));
    }
    check_shape(a, basis)?;
    check_shape(b, basis)?;
    Ok(a.iter().zip(b).map(|(x, y)| op(x, y, basis)).collect())
}

/// Component-wise `a + b` over `basis`.
///
/// # Errors
///
/// [`HeError::Mismatch`] when the component counts differ or a component is
/// not over `basis`.
pub fn add_parts(a: &[RnsPoly], b: &[RnsPoly], basis: &RnsBasis) -> Result<Vec<RnsPoly>, HeError> {
    zip_parts(a, b, basis, rnspoly::add)
}

/// Component-wise `a − b` over `basis`.
///
/// # Errors
///
/// As [`add_parts`].
pub fn sub_parts(a: &[RnsPoly], b: &[RnsPoly], basis: &RnsBasis) -> Result<Vec<RnsPoly>, HeError> {
    zip_parts(a, b, basis, rnspoly::sub)
}

/// Applies the Galois automorphism `x → x^element` with key switching.
/// `ks_basis` is `basis` plus the special prime.
///
/// # Errors
///
/// [`HeError::InvalidCiphertext`] for non-2-component inputs,
/// [`HeError::Mismatch`] for parts not over `basis`, and
/// [`HeError::MissingGaloisKey`] if `gk` lacks the element.
pub fn apply_galois(
    parts: &[RnsPoly],
    element: u64,
    gk: &GaloisKeys,
    ks_basis: &RnsBasis,
    basis: &RnsBasis,
) -> Result<Vec<RnsPoly>, HeError> {
    let (c0, c1) = two_parts(parts, basis)?;
    let key = gk.key_for(element)?;
    let (k0, k1) = apply_ksk(&c1.galois(element, basis), &key.ksk, ks_basis, basis);
    let mut c0 = c0.galois(element, basis);
    c0.add_assign_poly(&k0, basis);
    Ok(vec![c0, k1])
}

/// The Galois element of the identity automorphism: a [`dot_galois`] term
/// carrying it multiplies the ciphertext as it stands, with no key switch.
pub const IDENTITY_ELEMENT: u64 = 1;

/// A plaintext factor of [`dot_galois`]: an integer polynomial in the
/// evaluation (NTT) domain over a *key-switch* basis — the level's data
/// primes plus the special prime `P`. The `P` residue is what second
/// hoisting needs: the factor multiplies key-switched terms while they are
/// still scaled by `P`, so it has to exist modulo `P` too, which an ordinary
/// encoded plaintext (data primes only) does not. Built by the schemes'
/// encoders ([`crate::bfv::Evaluator::dot_operand`],
/// [`crate::ckks::CkksContext::dot_operand`]); immutable afterwards, so a
/// server caches one per constant and use site.
#[derive(Debug, Clone)]
pub struct DotOperand {
    ntt: RnsPoly,
}

impl DotOperand {
    /// Builds an operand row by row over `ks_basis`: `residues(q, row)`
    /// fills `row` with the coefficients modulo `q`, and the row is taken to
    /// the evaluation domain. Rows are independent, so they run on the
    /// worker pool (a caller that streams operands into [`dot_galois`] pays
    /// this once per term).
    pub(crate) fn encode(ks_basis: &RnsBasis, residues: impl Fn(u64, &mut [u64]) + Sync) -> Self {
        let n = ks_basis.degree();
        let tables = ks_basis.ntt_tables();
        let rows = par::par_map(tables, |_, table| {
            let mut row = PolyPool::take_scratch(n);
            residues(table.modulus(), &mut row);
            table.forward(&mut row);
            row
        });
        DotOperand {
            ntt: RnsPoly::from_rows(rows),
        }
    }
}

/// [`dot_galois`] terms from rotation steps: step 0 is the ciphertext itself
/// ([`IDENTITY_ELEMENT`]), any other step goes through the scheme's
/// `element_of(step, n)`.
pub(crate) fn terms_of_steps<O>(
    terms: impl IntoIterator<Item = Result<(i64, O), HeError>>,
    n: usize,
    element_of: fn(i64, usize) -> Result<u64, HeError>,
) -> impl Iterator<Item = Result<(u64, O), HeError>> {
    terms.into_iter().map(move |term| {
        let (step, operand) = term?;
        let element = match step {
            0 => IDENTITY_ELEMENT,
            _ => element_of(step, n)?,
        };
        Ok((element, operand))
    })
}

/// Fused rotate-and-dot with *double hoisting*, for one or many outputs
/// over the same rotations: `out_o = Σ_k σ_{e_k}(ct) ⊙ m_{k,o}` for Galois
/// elements `e_k` of one 2-component ciphertext ([`IDENTITY_ELEMENT`]
/// meaning the ciphertext itself) and, per term, one plaintext factor per
/// output. The digit decomposition of `c1` is shared by every element (first
/// hoisting: computed once, for the first chunk that needs a key switch);
/// each switched term is multiplied by its factors and summed over the ks
/// basis while it still carries the special-prime factor `P`, so a whole dot
/// pays one rounded `mod_down` (second hoisting) instead of one per
/// rotation; everything stays in the evaluation domain until one inverse
/// transform per output row.
///
/// One pass per residue tile: terms are taken in chunks of at most 32
/// (`keyswitch::DOT_CHUNK`), and each chunk is one pool dispatch over tasks
/// of (ks prime × coefficient tile) (`keyswitch::DotTile`). For each term
/// of the chunk a task computes, over its tile, the term's permuted
/// key-switch MAC for both key halves and, at a data prime, the rotated
/// `c0`, and multiply-accumulates them into tile-local `u128` sums for
/// every output; at the end of the chunk it reduces those into the
/// outputs' canonical sums. A tile's sums take two rows' worth of `u128`
/// slots (four per output and coefficient), so the tile narrows as outputs
/// are added.
///
/// The outputs axis is what a layer with several output channels over one
/// resident input needs: a term's Galois permutation, key-switch inner
/// product and rotated `c0` tile are computed once and multiply-accumulated
/// into every output's sums; only the sums, the `mod_down` and the inverse
/// transforms are per output. Each output is, bit for bit, what the same
/// call with that output's factors alone returns.
///
/// Decrypts to what the `apply_galois` / multiply / add chain decrypts to,
/// with less noise: one key-switch rounding for the sum instead of one per
/// term, each scaled by its factor. Sums are exact modular sums, so the
/// output depends on neither the thread count nor the tiling. Terms arrive
/// through an iterator, so a caller with nothing cached encodes one chunk's
/// operands at a time (no set of rotated ciphertexts is ever materialized
/// either).
///
/// # Errors
///
/// [`HeError::Mismatch`] for no terms, no outputs, a term whose operand
/// count is not `outputs`, parts not over `basis` or an operand not over
/// `ks_basis`; [`HeError::InvalidCiphertext`] for non-2-component inputs;
/// [`HeError::MissingGaloisKey`] if `gk` lacks an element; and the first
/// error the term iterator yields.
pub fn dot_galois<O: Borrow<DotOperand>, T: AsRef<[O]>>(
    parts: &[RnsPoly],
    outputs: usize,
    terms: impl IntoIterator<Item = Result<(u64, T), HeError>>,
    gk: &GaloisKeys,
    ks_basis: &RnsBasis,
    basis: &RnsBasis,
) -> Result<Vec<Vec<RnsPoly>>, HeError> {
    let (c0, c1) = two_parts(parts, basis)?;
    let mut terms = terms.into_iter().peekable();
    if terms.peek().is_none() || outputs == 0 {
        return Err(HeError::Mismatch(
            "a fused dot needs terms and an output".into(),
        ));
    }
    let n = basis.degree();
    let ct = [to_ntt(c0, basis), to_ntt(c1, basis)];
    // Per output, its canonical sums: the P-scaled switched pair over the
    // ks basis, the plain pair over the data primes.
    let zero_rows = |b: &RnsBasis| -> Vec<Vec<u64>> {
        (0..b.len()).map(|_| PolyPool::take_zeroed(n)).collect()
    };
    let mut sums: Vec<[Vec<Vec<u64>>; 4]> = (0..outputs)
        .map(|_| [ks_basis, ks_basis, basis, basis].map(zero_rows))
        .collect();
    let mut tiles = dot_tiles(&mut sums, ks_basis.primes(), n);
    let mut hoisted: Option<HoistedDigits> = None;
    let mut chunk = Vec::with_capacity(DOT_CHUNK);
    let mut term = 0;
    loop {
        chunk.clear();
        for next in terms.by_ref().take(DOT_CHUNK) {
            let (element, operands) = next?;
            let factors = operands.as_ref();
            if factors.len() != outputs {
                return Err(HeError::Mismatch(format!(
                    "dot term {term} carries {} operands for {outputs} outputs",
                    factors.len()
                )));
            }
            if let Some(factor) = factors
                .iter()
                .map(|f| &f.borrow().ntt)
                .find(|f| f.row_count() != ks_basis.len() || f.degree() != n)
            {
                return Err(HeError::Mismatch(format!(
                    "dot operand of {} residues × degree {} where the key-switch basis is {} × {n}",
                    factor.row_count(),
                    factor.degree(),
                    ks_basis.len()
                )));
            }
            let key = match element {
                IDENTITY_ELEMENT => None,
                _ => Some(gk.key_for(element)?),
            };
            chunk.push((key, operands));
            term += 1;
        }
        if chunk.is_empty() {
            break;
        }
        if hoisted.is_none() && chunk.iter().any(|(key, _)| key.is_some()) {
            hoisted = Some(hoist_decompose(c1, ks_basis, basis));
        }
        // Every switched term finds the digits: they were hoisted above.
        let view: Vec<DotTerm> = chunk
            .iter()
            .map(|(key, operands)| DotTerm {
                switch: key
                    .zip(hoisted.as_ref())
                    .map(|(key, digits)| (digits, key.perm.as_slice(), &key.ksk)),
                factors: operands.as_ref().iter().map(|o| &o.borrow().ntt).collect(),
            })
            .collect();
        par::par_for_each_mut(&mut tiles, |_, tile| {
            tile.accumulate(&view, &ct, ks_basis);
        });
    }
    // Second hoisting: one rounded mod_down for an output's whole switched
    // sum, one pool task per component; then the plain sums are added and
    // each data row is inverse-transformed in place.
    let finish_output = |[s0, s1, plain0, plain1]: [Vec<Vec<u64>>; 4]| {
        let [m0, m1] = par::par_map_array([s0, s1].map(RnsPoly::from_rows), |switched| {
            mod_down_ntt(switched, ks_basis, basis)
        });
        let mut rows: Vec<_> = basis.ntt_tables().iter().zip(plain0).zip(plain1).collect();
        par::par_for_each_mut(&mut rows, |i, ((table, row0), row1)| {
            for (row, down) in [(row0, m0.row(i)), (row1, m1.row(i))] {
                for (x, &m) in row.iter_mut().zip(down) {
                    *x = add_mod(*x, m, table.modulus());
                }
                table.inverse(row);
            }
        });
        let (rows0, rows1): (Vec<_>, Vec<_>) = rows.into_iter().map(|((_, a), b)| (a, b)).unzip();
        vec![RnsPoly::from_rows(rows0), RnsPoly::from_rows(rows1)]
    };
    Ok(sums.into_iter().map(finish_output).collect())
}

/// The pool tasks of a fused dot ([`dot_galois`]) over its outputs' sums:
/// one per (ks prime × coefficient tile), in row order, each holding that
/// tile of every output's rows. A task's tile-local `u128` sums, four per
/// output and coefficient, fill two rows' worth of slots: a tile narrows as
/// outputs are added, and spans half a row for one.
fn dot_tiles<'a>(sums: &'a mut [[Vec<Vec<u64>>; 4]], primes: &[u64], n: usize) -> Vec<DotTile<'a>> {
    fn row_tiles(rows: &mut [Vec<u64>], tile: usize) -> impl Iterator<Item = &mut [u64]> {
        rows.iter_mut().flat_map(move |row| row.chunks_mut(tile))
    }
    let tile = (n / (2 * sums.len())).max(1);
    let mut columns: Vec<_> = sums
        .iter_mut()
        .map(|[s0, s1, plain0, plain1]| {
            let switched = row_tiles(s0, tile).zip(row_tiles(s1, tile));
            let plain = row_tiles(plain0, tile).zip(row_tiles(plain1, tile));
            let plain = plain.map(|(a, b)| Some([a, b]));
            switched
                .map(|(a, b)| [a, b])
                .zip(plain.chain(std::iter::repeat_with(|| None)))
        })
        .collect();
    primes
        .iter()
        .enumerate()
        .flat_map(|(prime, &q)| (0..n).step_by(tile).map(move |start| (prime, q, start)))
        .map(|(prime, q, start)| DotTile {
            prime,
            r: Barrett::new(q),
            start,
            sums: columns.iter_mut().filter_map(Iterator::next).collect(),
        })
        .collect()
}

/// Folds the `s²`-keyed third component of `(c0, c1, c2)` back into a
/// 2-component ciphertext: `(c0 + k0, c1 + k1)` with `(k0, k1)` the key
/// switch of `c2`.
///
/// # Errors
///
/// [`HeError::InvalidCiphertext`] unless there are exactly 3 components,
/// [`HeError::Mismatch`] for parts not over `basis`.
pub fn relinearize(
    parts: &[RnsPoly],
    rk: &RelinKey,
    ks_basis: &RnsBasis,
    basis: &RnsBasis,
) -> Result<Vec<RnsPoly>, HeError> {
    let [c0, c1, c2] = parts else {
        return Err(HeError::InvalidCiphertext(
            "relinearize requires a 3-component ciphertext".into(),
        ));
    };
    check_shape(parts, basis)?;
    let (k0, k1) = apply_ksk(c2, &rk.ksk, ks_basis, basis);
    Ok(vec![
        rnspoly::add(c0, &k0, basis),
        rnspoly::add(c1, &k1, basis),
    ])
}
