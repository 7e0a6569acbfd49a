//! The RLWE core under both schemes.
//!
//! BFV and CKKS are the same ring-LWE computation below their encoders:
//! the client's key is the secret `s` ([`keygen`]), its upload form is the
//! symmetric `(−(a·s + e) + msg, a)` whose mask `a` travels as a seed
//! ([`encrypt_symmetric`]), the paper's Eq. 2 public-key encryption
//! (`c = (P0·u + e1 + msg, P1·u + e2)` under `(−(a·s + e), a)`, built on
//! request by [`public_key`]) stays for the reports that price it, and
//! every evaluation-key
//! operation — Galois automorphism, hoisted multi-rotation, the fused
//! double-hoisted rotate-and-dot ([`dot_galois`]: one output, or several
//! sharing every rotation's key switch), relinearization — is a key switch
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
    apply_ksk, apply_ksk_hoisted, generate_ksk, hoist_decompose, hoisted_accumulate, mod_down_ntt,
    HoistedDigits, KswitchKey,
};
use crate::rnspoly::{self, RnsPoly};
use choco_math::modops::{add_mod, Barrett};
use choco_math::ntt::{apply_galois_ntt, galois_ntt_permutation, NttTable};
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

/// A set of Galois keys, one per automorphism element.
#[derive(Debug, Clone)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<u64, KswitchKey>,
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
        self.keys.values().map(|k| k.size_bytes()).sum()
    }

    /// The key for `element`, if the set holds one.
    pub fn get(&self, element: u64) -> Option<&KswitchKey> {
        self.keys.get(&element)
    }

    /// Whether every key lives over `moduli` at degree `n`; true of an
    /// empty set.
    pub fn all_over(&self, moduli: &[u64], n: usize) -> bool {
        self.keys.values().all(|k| k.is_over(moduli, n))
    }

    /// The key for `element`, or [`HeError::MissingGaloisKey`].
    pub(crate) fn key_for(&self, element: u64) -> Result<&KswitchKey, HeError> {
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
/// `σ(s)` is the Galois NTT permutation of the secret's rows.
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
            generate_ksk(&sk.ntt, &s_e, full, top, rng)
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
    let ksk = gk.key_for(element)?;
    let (k0, k1) = apply_ksk(&c1.galois(element, basis), ksk, ks_basis, basis);
    let mut c0 = c0.galois(element, basis);
    c0.add_assign_poly(&k0, basis);
    Ok(vec![c0, k1])
}

/// Applies many Galois automorphisms to the *same* ciphertext with one
/// shared ("hoisted") decomposition: the expensive digit decomposition +
/// forward NTTs of `c1` run once, and each element costs only a cheap
/// NTT-domain permutation plus multiply-accumulate against its key.
///
/// The outputs decrypt identically to [`apply_galois`] on each element,
/// with the same noise growth (the permuted digits have the same magnitudes
/// as freshly decomposed ones).
///
/// # Errors
///
/// As [`apply_galois`], for any of the elements.
pub fn apply_galois_many(
    parts: &[RnsPoly],
    elements: &[u64],
    gk: &GaloisKeys,
    ks_basis: &RnsBasis,
    basis: &RnsBasis,
) -> Result<Vec<Vec<RnsPoly>>, HeError> {
    let (c0, c1) = two_parts(parts, basis)?;
    let n = basis.degree();
    // Decompose c1 once; every element below reuses these digits.
    let hoisted = hoist_decompose(c1, ks_basis, basis);
    elements
        .iter()
        .map(|&element| {
            let ksk = gk.key_for(element)?;
            let perm = galois_ntt_permutation(n, element);
            let (k0, k1) = apply_ksk_hoisted(&hoisted, Some(&perm), ksk, ks_basis, basis);
            let mut c0 = c0.galois(element, basis);
            c0.add_assign_poly(&k0, basis);
            Ok(vec![c0, k1])
        })
        .collect()
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

/// `acc[j] += a[j] · b[j]`, unreduced.
fn mac(acc: &mut [u128], a: &[u64], b: &[u64]) {
    for ((slot, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *slot += x as u128 * y as u128;
    }
}

/// Canonical residues of an unreduced accumulator row.
fn reduce_row(acc: &[u128], r: Barrett) -> Vec<u64> {
    let mut out = PolyPool::take_scratch(acc.len());
    for (x, &v) in out.iter_mut().zip(acc) {
        *x = r.reduce(v);
    }
    out
}

/// Fused rotate-and-dot with *double hoisting*, for one or many outputs
/// over the same rotations: `out_o = Σ_k σ_{e_k}(ct) ⊙ m_{k,o}` for Galois
/// elements `e_k` of one 2-component ciphertext ([`IDENTITY_ELEMENT`]
/// meaning the ciphertext itself) and, per term, one plaintext factor per
/// output. The digit decomposition of `c1` is shared by every element (first
/// hoisting: computed once, on the first element that needs a key switch);
/// each switched term is multiplied by its factors and summed over the ks
/// basis while it still carries the special-prime factor `P`, so a whole dot
/// pays one rounded `mod_down` (second hoisting) instead of one per
/// rotation; everything stays in the evaluation domain until one inverse
/// transform per output row.
///
/// The outputs axis is what a layer with several output channels over one
/// resident input needs: a term's Galois permutation, key-switch inner
/// product and rotated `c0` rows are computed once and multiply-accumulated
/// into every output's sums; only the sums, the `mod_down` and the inverse
/// transforms are per output. Each output is, bit for bit, what the same
/// call with that output's factors alone returns.
///
/// Decrypts to what the `apply_galois` / multiply / add chain decrypts to,
/// with less noise: one key-switch rounding for the sum instead of one per
/// term, each scaled by its factor. Sums are exact (unreduced `u128` slots,
/// flushed every 32 terms), so the output does not depend on the thread
/// count. Terms arrive through an iterator so a caller with nothing cached
/// can encode one term's operands at a time (no set of rotated ciphertexts
/// is ever materialized either).
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
    let mut c0_ntt = c0.clone();
    c0_ntt.ntt_forward(basis);
    let mut c1_ntt = c1.clone();
    c1_ntt.ntt_forward(basis);
    // Per ks prime and output: the P-scaled key-switch sums; for the data
    // primes also the ciphertext rows and the unswitched sums Σ m ⊙ σ(c0)
    // and Σ m ⊙ c1 (the latter from identity terms only).
    struct DataRow<'a> {
        table: &'a NttTable,
        c0: &'a [u64],
        c1: &'a [u64],
        plain: (Vec<u128>, Vec<u128>),
    }
    struct RowAcc<'a> {
        r: Barrett,
        switched: (Vec<u128>, Vec<u128>),
        data: Option<DataRow<'a>>,
    }
    let zeroed = || (PolyPool::take_zeroed_u128(n), PolyPool::take_zeroed_u128(n));
    let data_rows = basis
        .ntt_tables()
        .iter()
        .enumerate()
        .map(|(i, table)| Some((table, c0_ntt.row(i), c1_ntt.row(i))));
    // Outer axis: ks primes (the parallel one); inner: the outputs, side by
    // side because they share each term's rotated rows.
    let mut acc: Vec<Vec<RowAcc>> = ks_basis
        .primes()
        .iter()
        .zip(data_rows.chain(std::iter::repeat(None)))
        .map(|(&q, data)| {
            let cell = |_| RowAcc {
                r: Barrett::new(q),
                switched: zeroed(),
                data: data.map(|(table, c0, c1)| DataRow {
                    table,
                    c0,
                    c1,
                    plain: zeroed(),
                }),
            };
            (0..outputs).map(cell).collect()
        })
        .collect();
    let mut hoisted: Option<HoistedDigits> = None;
    for (term, next) in terms.enumerate() {
        let (element, operands) = next?;
        let factors: Vec<&RnsPoly> = operands.as_ref().iter().map(|o| &o.borrow().ntt).collect();
        if factors.len() != outputs {
            return Err(HeError::Mismatch(format!(
                "dot term {term} carries {} operands for {outputs} outputs",
                factors.len()
            )));
        }
        if let Some(factor) = factors
            .iter()
            .find(|f| f.row_count() != ks_basis.len() || f.degree() != n)
        {
            return Err(HeError::Mismatch(format!(
                "dot operand of {} residues × degree {} where the key-switch basis is {} × {n}",
                factor.row_count(),
                factor.degree(),
                ks_basis.len()
            )));
        }
        let switched = if element == IDENTITY_ELEMENT {
            None
        } else {
            let ksk = gk.key_for(element)?;
            let digits = hoisted.get_or_insert_with(|| hoist_decompose(c1, ks_basis, basis));
            let perm = galois_ntt_permutation(n, element);
            let (s0, s1) = hoisted_accumulate(digits, Some(&perm), ksk, ks_basis);
            Some((s0, s1, perm))
        };
        // Products stay below 2^122 (primes < 2^61): 32 fit a u128 slot.
        let flush = term > 0 && term % 32 == 0;
        par::par_for_each_mut(&mut acc, |i, cells| {
            // σ(c0) over this prime: once per term, whatever the outputs.
            let c0_row = cells
                .first()
                .and_then(|cell| cell.data.as_ref())
                .map(|d| d.c0);
            let rotated = switched.as_ref().zip(c0_row).map(|((_, _, perm), c0)| {
                let mut rotated = PolyPool::take_scratch(n);
                apply_galois_ntt(c0, perm, &mut rotated);
                rotated
            });
            for (row, factor) in cells.iter_mut().zip(&factors) {
                if flush {
                    let plain = row.data.as_mut().map(|d| &mut d.plain);
                    for sums in [Some(&mut row.switched), plain].into_iter().flatten() {
                        for v in sums.0.iter_mut().chain(sums.1.iter_mut()) {
                            *v = row.r.reduce(*v) as u128;
                        }
                    }
                }
                let m = factor.row(i);
                match &switched {
                    None => {
                        if let Some(d) = &mut row.data {
                            mac(&mut d.plain.0, m, d.c0);
                            mac(&mut d.plain.1, m, d.c1);
                        }
                    }
                    Some((s0, s1, _)) => {
                        mac(&mut row.switched.0, m, s0.row(i));
                        mac(&mut row.switched.1, m, s1.row(i));
                        if let (Some(d), Some(rotated)) = (&mut row.data, &rotated) {
                            mac(&mut d.plain.0, m, rotated);
                        }
                    }
                }
            }
            if let Some(rotated) = rotated {
                PolyPool::recycle(rotated);
            }
        });
    }
    // From here every output is on its own: regroup by output.
    let mut by_output: Vec<Vec<RowAcc>> = (0..outputs)
        .map(|_| Vec::with_capacity(acc.len()))
        .collect();
    for cells in acc {
        for (rows, cell) in by_output.iter_mut().zip(cells) {
            rows.push(cell);
        }
    }
    // Second hoisting: one rounded mod_down for an output's whole switched sum.
    let down = |sums: Vec<Vec<u64>>| mod_down_ntt(&RnsPoly::from_rows(sums), ks_basis, basis);
    let finish_output = |acc: Vec<RowAcc>| {
        let m0 = down(acc.iter().map(|c| reduce_row(&c.switched.0, c.r)).collect());
        let m1 = down(acc.iter().map(|c| reduce_row(&c.switched.1, c.r)).collect());
        let out = par::par_map(&acc, |i, row| {
            let d = row.data.as_ref()?;
            let finish = |plain: &[u128], down: &[u64]| {
                let mut out = reduce_row(plain, row.r);
                for (dst, &m) in out.iter_mut().zip(down) {
                    *dst = add_mod(*dst, m, row.r.modulus());
                }
                d.table.inverse(&mut out);
                out
            };
            Some((finish(&d.plain.0, m0.row(i)), finish(&d.plain.1, m1.row(i))))
        });
        for row in acc {
            for sums in [Some(row.switched), row.data.map(|d| d.plain)]
                .into_iter()
                .flatten()
            {
                PolyPool::recycle_u128(sums.0);
                PolyPool::recycle_u128(sums.1);
            }
        }
        let (rows0, rows1): (Vec<_>, Vec<_>) = out.into_iter().flatten().unzip();
        vec![RnsPoly::from_rows(rows0), RnsPoly::from_rows(rows1)]
    };
    Ok(by_output.into_iter().map(finish_output).collect())
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
