//! The Brakerski/Fan-Vercauteren (BFV) scheme in RNS form.
//!
//! Implements the full client-aided tool set the paper uses: asymmetric
//! encryption (Eq. 2), decryption (Eq. 3), homomorphic addition, plaintext
//! multiplication, ciphertext multiplication with relinearization, Galois
//! rotations, and SEAL-style invariant-noise-budget measurement (Table 4's
//! metric).
//!
//! Ciphertexts live modulo the *data* modulus `q` (all primes but the last);
//! the last prime is reserved for key switching. Ciphertext–ciphertext
//! multiplication (Halevi–Polyakov–Shoup) keeps each operand's `q` residues
//! and lifts it exactly into `q ∪ P`, where the auxiliary primes `P` are
//! wide enough for the integer tensor product and its `t/q` scaling; the
//! scaled product comes back from `P` alone. That basis is built by the
//! first multiply, and a ciphertext multiplied by itself is lifted and
//! transformed once. Both the multiply and decryption stay in RNS: every
//! change of basis is a [`BaseConverter`] pass, which is exact (not BEHZ's
//! approximate conversion plus correction), so the results are bit-for-bit
//! those of the big-integer CRT formulation kept as
//! [`Evaluator::multiply_reference`] / [`Decryptor::decrypt_reference`].

use crate::batch::BatchEncoder;
use crate::error::HeError;
use crate::keyswitch::{galois_element_columns, galois_element_rows};
use crate::params::{HeParams, SchemeType};
use crate::rlwe::{
    self, DotOperand, GaloisKeys, KeyBundle, MaskSeed, PublicKey, RelinKey, SecretKey,
};
use crate::rnspoly::RnsPoly;
use crate::serialize;
use choco_math::modops::{inv_mod, inv_mod_pow2, mul_mod_shoup, shoup_precompute, Barrett};
use choco_math::par;
use choco_math::pool::PolyPool;
use choco_math::prime::try_generate_ntt_primes;
use choco_math::rns::{BaseConverter, RnsBasis};
use choco_math::UBig;
use choco_prng::Blake3Rng;
use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};

/// A BFV plaintext: `N` coefficients modulo `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
}

impl Plaintext {
    /// Wraps raw coefficients (must already be reduced modulo `t`).
    // choco-lint: ct-safe
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Plaintext { coeffs }
    }

    /// The coefficient vector.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }
}

/// A BFV ciphertext: 2 (fresh) or 3 (post-multiplication) polynomials over
/// the data basis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    parts: Vec<RnsPoly>,
    /// One prime per residue row of every part: the data primes, or the
    /// prefix of them a modulus switch left. The wire carries them.
    moduli: Arc<[u64]>,
    /// Set only by [`BfvContext::encrypt_symmetric`]: the seed `parts[1]`
    /// expands from, which the wire sends in its place.
    seed: Option<MaskSeed>,
    /// Set only on a compressed reply ([`BfvContext::compress_reply`]): the
    /// rows the wire sends in place of the parts, which are their lift.
    reply: Option<CompressedReply>,
}

/// What a compressed reply carries on the wire: component `i` of a
/// ciphertext over `q` rounded to `c_i' = round(2^{k_i}·c_i/q) mod 2^{k_i}`.
/// A reply keeps these rows beside the parts they lift to, so it
/// re-encodes to the bytes it was decoded from, as a compact ciphertext
/// keeps its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedReply {
    widths: [u32; 2],
    rows: [Vec<u64>; 2],
}

impl Drop for CompressedReply {
    fn drop(&mut self) {
        for row in &mut self.rows {
            PolyPool::recycle(std::mem::take(row));
        }
    }
}

impl CompressedReply {
    /// The widths `(k0, k1)` the two components travel at.
    pub fn widths(&self) -> [u32; 2] {
        self.widths
    }

    /// The rounded components, `c_i'` in `[0, 2^{k_i})`.
    pub(crate) fn rows(&self) -> &[Vec<u64>; 2] {
        &self.rows
    }
}

impl Ciphertext {
    /// Assembles a ciphertext from raw components whose residue rows are
    /// modulo `moduli`, in order (deserialization path).
    ///
    /// # Panics
    ///
    /// Panics on an empty component list.
    pub fn from_parts(parts: Vec<RnsPoly>, moduli: &[u64]) -> Self {
        assert!(!parts.is_empty(), "ciphertext needs at least one component");
        Ciphertext {
            parts,
            moduli: moduli.into(),
            seed: None,
            reply: None,
        }
    }

    /// A compressed reply from its wire rows: each `c_i'` lifted to
    /// `round(q'·c_i'/2^{k_i})` over `moduli`, whose product is `q'`
    /// (compressed-frame deserialization, [`BfvContext::compress_reply`]).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidCiphertext`] unless both rows have the
    /// same length, every value is below `2^{k_i}` and every `k_i` is a
    /// width the lift is exact at (`check_reply_widths`).
    pub fn from_reply(
        widths: [u32; 2],
        rows: [Vec<u64>; 2],
        moduli: &[u64],
    ) -> Result<Self, HeError> {
        check_reply_widths(widths, moduli)?;
        let [first, _] = &rows;
        let n = first.len();
        let fits = rows
            .iter()
            .zip(widths)
            .all(|(row, k)| row.len() == n && row.iter().all(|&c| c >> k == 0));
        if n == 0 || !fits {
            return Err(HeError::InvalidCiphertext(
                "compressed reply rows of unequal length or past their width".into(),
            ));
        }
        let parts = rows.iter().zip(widths).map(|(row, k)| lift(row, k, moduli));
        Ok(Ciphertext {
            parts: parts.collect(),
            moduli: moduli.into(),
            seed: None,
            reply: Some(CompressedReply { widths, rows }),
        })
    }

    /// A fresh symmetric encryption `(c0, a)` over `moduli` whose mask `a`
    /// expands from `seed` (compact-frame deserialization).
    // choco-lint: ct-safe
    pub(crate) fn seeded(parts: Vec<RnsPoly>, moduli: &[u64], seed: MaskSeed) -> Self {
        Ciphertext {
            parts,
            moduli: moduli.into(),
            seed: Some(seed),
            reply: None,
        }
    }

    /// An evaluator output at this ciphertext's level: `parts` over the
    /// same moduli, with no seed.
    fn evaluated(&self, parts: Vec<RnsPoly>) -> Self {
        Ciphertext {
            parts,
            moduli: self.moduli.clone(),
            seed: None,
            reply: None,
        }
    }

    /// The seed standing for `c1` on the wire: set on a fresh symmetric
    /// encryption, never on an evaluator output.
    pub fn seed(&self) -> Option<&MaskSeed> {
        self.seed.as_ref()
    }

    /// The rows standing for the parts on the wire: set on a compressed
    /// reply, never on an evaluator output.
    pub fn reply(&self) -> Option<&CompressedReply> {
        self.reply.as_ref()
    }

    /// The residue moduli, one per row of every component.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Modulus level: the number of data residues each component carries
    /// (the parameter set's data-prime count when fresh, fewer once
    /// modulus-switched for download).
    pub fn level(&self) -> usize {
        self.parts.first().map_or(0, RnsPoly::row_count)
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.parts.first().map_or(0, RnsPoly::degree)
    }

    /// Number of polynomial components (2 or 3).
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// Component `i`.
    pub fn part(&self, i: usize) -> &RnsPoly {
        &self.parts[i]
    }

    /// Serialized payload size in bytes — everything of its frame past
    /// the header ([`serialize::payload_bytes`]): the moduli, then every
    /// component (or, seeded, the seed and `c0`), each residue at its
    /// prime's width.
    pub fn byte_size(&self) -> usize {
        match &self.reply {
            Some(reply) => {
                serialize::reply_payload_bytes(self.degree(), &self.moduli, reply.widths)
            }
            None => serialize::payload_bytes(
                self.degree(),
                &self.moduli,
                self.size(),
                self.seed.is_some(),
            ),
        }
    }
}

/// The least noise-budget ceiling ([`BfvContext::switch_ceiling_bits`]) a
/// level must keep for a server→client download to be switched down to it
/// ([`BfvContext::download_level`]).
pub const DOWNLOAD_CEILING_BITS: f64 = 10.0;

/// [`BfvContext::switch_ceiling_bits`] of the level whose basis is `basis`.
fn switch_ceiling(basis: &RnsBasis, t: u64) -> f64 {
    basis.modulus_bits() - 2.0 * (t as f64).log2() - 1.0
}

/// Bits a compressed reply keeps past `⌈log2 t⌉` in `c0`, and past
/// `⌈log2 t⌉ + log2 N` in `c1` ([`BfvContext::reply_widths`]): each
/// component's rounding then adds at most `2^-(REPLY_GUARD_BITS + 1)` of
/// invariant noise, half the `2^-(DOWNLOAD_CEILING_BITS + 1)` licence.
pub const REPLY_GUARD_BITS: u32 = 11;

/// The invariant noise a compressed reply adds at most, with widths
/// `(k0, k1)` lifted over `q'`: `t/2^{k0+1}` from rounding `c0`,
/// `t·N/2^{k1+1}` from rounding `c1` (ternary `s`, `‖s‖₁ ≤ N`) and
/// `t·(1+N)/(2q')` from the lift's own rounding.
fn reply_noise([k0, k1]: [u32; 2], q_bits: f64, t: u64, n: usize) -> f64 {
    let (t, n) = (t as f64, n as f64);
    t / 2f64.powi(k0 as i32 + 1)
        + t * n / 2f64.powi(k1 as i32 + 1)
        + t * (1.0 + n) / 2f64.powf(q_bits + 1.0)
}

/// Refuses reply widths the lift is not exact at over `moduli`: each `k_i`
/// must lie in `1..62` (a [`BaseConverter`] target is below `2^62`) and
/// below the bit length of `q' = Π moduli`. Then `2^{k_i} < q'`, so
/// `round(2^{k_i}·ĉ/q')` of a lifted `ĉ` gives its `c_i'` back.
///
/// # Errors
///
/// Returns [`HeError::InvalidCiphertext`] naming the widths and `q'`'s bits.
pub(crate) fn check_reply_widths(widths: [u32; 2], moduli: &[u64]) -> Result<(), HeError> {
    let q = moduli.iter().fold(UBig::one(), |q, &m| q.mul_u64(m));
    let q_bits = q.bit_len();
    if moduli.is_empty() || widths.iter().any(|&k| !(1..62).contains(&k) || k >= q_bits) {
        return Err(HeError::InvalidCiphertext(format!(
            "compressed reply widths {widths:?} over a {q_bits}-bit modulus"
        )));
    }
    Ok(())
}

/// `round(q'·c/2^k)` over `moduli` (`q' = Π moduli > 2^k`) for every `c` of
/// `row`. With `v = q'·c mod 2^k` and `r` its centered value, `v` or
/// `v − 2^k`, `round(q'·c/2^k) = (q'·c − r)/2^k ≡ −r·2^{-k}` modulo each
/// `q'_j`: that is `−v·2^{-k}`, plus one where `r = v − 2^k`. Single words
/// do it, with no branch: `q' mod 2^k`, one product modulo `2^k`, one per
/// modulus. A tie, `v = 2^{k−1}`, rounds up, as [`UBig::div_round`] does.
fn lift(row: &[u64], k: u32, moduli: &[u64]) -> RnsPoly {
    let pow2 = 1u64 << k;
    let q_mod = moduli.iter().fold(1u64, |q, &m| q.wrapping_mul(m)) & (pow2 - 1);
    let q_shoup = shoup_precompute(q_mod, pow2);
    let mut v = PolyPool::take_scratch(row.len());
    for (v, &c) in v.iter_mut().zip(row) {
        *v = mul_mod_shoup(c, q_mod, q_shoup, pow2);
    }
    let rows = moduli.iter().map(|&q| {
        let w = q - inv_mod(pow2 % q, q);
        let w_shoup = shoup_precompute(w, q);
        let mut out = PolyPool::take_scratch(row.len());
        for (o, &v) in out.iter_mut().zip(v.iter()) {
            let x = mul_mod_shoup(v, w, w_shoup, q) + u64::from(v >= pow2 >> 1);
            *o = x.min(x.wrapping_sub(q));
        }
        out
    });
    let lifted = RnsPoly::from_rows(rows.collect());
    PolyPool::recycle(v);
    lifted
}

/// `x ↦ round(m·x/q) mod m` over one level's basis `q`: with `r = [m·x]_q`
/// centered, `round(m·x/q) = (m·x − r)/q ≡ −r·q^{-1}` modulo `m`, so one
/// exact `q → {m}` conversion of `r` does it (`q` is odd: no ties).
/// Decryption runs it with `m = t`, reply compression with `m = 2^k`.
#[derive(Debug, Clone)]
struct ScaleRound {
    to_target: BaseConverter,
    modulus: u64,
    /// `−q^{-1} mod m` and its Shoup constant.
    neg_q_inv: u64,
    neg_q_inv_shoup: u64,
}

impl ScaleRound {
    fn new(basis: &Arc<RnsBasis>, m: u64) -> Self {
        let q_mod = basis.modulus().rem_u64(m);
        let q_inv = if m.is_power_of_two() {
            inv_mod_pow2(q_mod, m.trailing_zeros())
        } else {
            inv_mod(q_mod, m)
        };
        let neg_q_inv = m - q_inv;
        ScaleRound {
            to_target: BaseConverter::new(basis.clone(), &[m]),
            modulus: m,
            neg_q_inv,
            neg_q_inv_shoup: shoup_precompute(neg_q_inv, m),
        }
    }

    /// `round(m·x/q) mod m` per coefficient of `x`, a polynomial over the
    /// basis this was built for.
    // choco-lint: secret (public: self, basis)
    fn apply(&self, mut x: RnsPoly, basis: &RnsBasis) -> Vec<u64> {
        let m = self.modulus;
        x.scalar_mul(m, basis);
        let r = x.convert_centered(&self.to_target);
        let scale = |&v: &u64| mul_mod_shoup(v, self.neg_q_inv, self.neg_q_inv_shoup, m);
        r.row(0).iter().map(scale).collect()
    }
}

/// The ct × ct multiply's basis `q ∪ P` (Halevi–Polyakov–Shoup): the data
/// primes, then auxiliary primes whose product `P` is at least `4·t·N·q`,
/// i.e. `bits(P) ≥ log2 q + log2 t + log2 N + 2`. That one bound covers both
/// exact steps. The tensor product `d` of two centered operands has
/// `|d| < N·q²/2`, so it is exact over `q·P` (`P > N·q`). Its scaled value
/// `y = round(t·d/q)` has `|y| < t·N·q/2 + 1`, so it is exact over `P`.
#[derive(Debug)]
struct TensorBasis {
    /// The auxiliary primes `P`.
    aux: Arc<RnsBasis>,
    /// `q ∪ P`, over the NTT tables of `q` and `P` ([`RnsBasis::concat`]).
    basis: RnsBasis,
    /// `q → P`: each operand's lift, and `[t·d]_q` carried to `P`.
    to_aux: BaseConverter,
    /// `P → q`: the scaled product back to the data basis.
    from_aux: BaseConverter,
    /// `q^{-1}` modulo each prime of `P`.
    q_inv: Vec<u64>,
}

impl TensorBasis {
    /// Picks the fewest fresh 59-bit NTT primes, none of `used`, whose
    /// product reaches `4·t·N·q` over `data`'s `q`.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidParameters`] when too few such primes
    /// exist for the degree.
    fn new(data: &Arc<RnsBasis>, used: &[u64], t: u64) -> Result<Self, HeError> {
        let n = data.degree();
        let bound = data.modulus().mul_u64(t).mul_u64(4 * n as u64);
        // Each 59-bit prime exceeds 2^58; `used` may claim some candidates.
        let count = bound.bit_len() as usize / 58 + 1 + used.len();
        let candidates = try_generate_ntt_primes(59, n, count).unwrap_or_default();
        let mut product = UBig::one();
        let mut aux = Vec::new();
        for p in candidates.into_iter().filter(|p| !used.contains(p)) {
            if product >= bound {
                break;
            }
            product = product.mul_u64(p);
            aux.push(p);
        }
        if product < bound {
            return Err(HeError::InvalidParameters(format!(
                "no {}-bit tensor basis of 59-bit primes for degree {n}",
                bound.bit_len()
            )));
        }
        let aux = Arc::new(RnsBasis::new(n, &aux)?);
        let q_inv = aux
            .primes()
            .iter()
            .map(|&p| inv_mod(data.modulus().rem_u64(p), p));
        Ok(TensorBasis {
            basis: data.concat(&aux)?,
            to_aux: BaseConverter::new(data.clone(), aux.primes()),
            from_aux: BaseConverter::new(aux.clone(), data.primes()),
            q_inv: q_inv.collect(),
            aux,
        })
    }

    /// A data-basis polynomial's centered value over `q ∪ P`: its own `q`
    /// rows, copied, then one `q → P` conversion.
    fn lift(&self, p: &RnsPoly) -> RnsPoly {
        p.extended(p.convert_centered(&self.to_aux))
    }

    /// `round(t·d/q)` over the data basis `data`, for an exact signed
    /// integer polynomial `d` over `q ∪ P` in coefficient form. With
    /// `r = [t·d]_q` centered (from the `q` rows, one `q → P` conversion),
    /// `y = (t·d − r)/q` is an exact division, which over `P`, where `q` is
    /// invertible, is a multiplication; one `P → q` conversion brings `y`
    /// back.
    fn scale(&self, d: RnsPoly, t: u64, data: &RnsBasis) -> RnsPoly {
        let aux = &*self.aux;
        let (mut td, mut y) = d.split_rows(data.len());
        td.scalar_mul(t, data);
        let r = td.convert_centered(&self.to_aux);
        y.scalar_mul(t, aux);
        y.sub_assign_poly(&r, aux);
        y.scalar_mul_per_row(&self.q_inv, aux);
        y.convert_centered(&self.from_aux)
    }
}

/// Precomputed context for one BFV parameter set.
#[derive(Debug, Clone)]
pub struct BfvContext {
    params: HeParams,
    /// All primes (special last). Equal to `data` when only one prime exists.
    full: Arc<RnsBasis>,
    /// Data primes (fresh-ciphertext modulus `q`).
    data: Arc<RnsBasis>,
    /// Prefix bases of the data primes (`level_bases[l-1]` has `l` primes),
    /// used by modulus-switched ciphertexts.
    level_bases: Vec<Arc<RnsBasis>>,
    /// `Δ_l = ⌊q_l/t⌋` reduced modulo each prime of level `l`, aligned with
    /// `level_bases`; the last entry is the fresh-ciphertext `Δ`.
    level_deltas: Vec<Vec<u64>>,
    /// Per level: `x ↦ round(t·x/q_level) mod t`, decryption's last step.
    level_to_plain: Vec<ScaleRound>,
    /// The compressed-reply licence ([`BfvContext::reply_widths`]).
    reply_widths: Option<[u32; 2]>,
    /// Per level, when a reply is licensed: `x ↦ round(2^{k_i}·x/q_level)
    /// mod 2^{k_i}` for each component's width.
    level_to_reply: Vec<[ScaleRound; 2]>,
    /// The level every compressed reply is lifted over
    /// ([`BfvContext::download_level`]).
    download_level: usize,
    /// The ct × ct multiply's basis `q ∪ P`, built by the first multiply
    /// ([`BfvContext::tensor`]) and shared by every clone of the context:
    /// a context that never multiplies two ciphertexts never builds it.
    tensor: Arc<OnceLock<Result<TensorBasis, HeError>>>,
    t: u64,
    batch: Option<Arc<BatchEncoder>>,
}

impl BfvContext {
    /// Builds the context (bases, NTT tables, encoder) for `params`.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidParameters`] when the parameter set is not
    /// a BFV set or its primes cannot support the ring degree.
    pub fn new(params: &HeParams) -> Result<Self, HeError> {
        if params.scheme() != SchemeType::Bfv {
            return Err(HeError::InvalidParameters(
                "BfvContext requires a BFV parameter set".into(),
            ));
        }
        let n = params.degree();
        let primes = params.primes();
        let t = params.plain_modulus();
        let full = Arc::new(RnsBasis::new(n, primes)?);
        let data = if primes.len() == 1 {
            full.clone()
        } else {
            Arc::new(full.prefix(primes.len() - 1))
        };
        if data.primes().contains(&t) {
            return Err(HeError::InvalidParameters(
                "plain modulus divides the coefficient modulus".into(),
            ));
        }
        let mut level_bases = Vec::with_capacity(data.len());
        let mut level_deltas = Vec::with_capacity(data.len());
        let mut level_to_plain = Vec::with_capacity(data.len());
        for l in 1..=data.len() {
            let basis = if l == data.len() {
                data.clone()
            } else {
                Arc::new(data.prefix(l))
            };
            let delta = basis.modulus().divrem_u64(t).0;
            level_deltas.push(basis.primes().iter().map(|&q| delta.rem_u64(q)).collect());
            level_to_plain.push(ScaleRound::new(&basis, t));
            level_bases.push(basis);
        }
        // A reply is lifted over the lowest level that keeps the noise-budget
        // ceiling of a lower level (the full level needs none), is wide
        // enough for the widths, and keeps the reply's added noise inside
        // the licence.
        let t_bits = u64::BITS - (t - 1).leading_zeros();
        let widths = [0, n.trailing_zeros()].map(|extra| t_bits + extra + REPLY_GUARD_BITS);
        let licence = 2f64.powf(-(DOWNLOAD_CEILING_BITS + 1.0));
        let lift_level = level_bases.iter().position(|basis| {
            (basis.len() == data.len() || switch_ceiling(basis, t) >= DOWNLOAD_CEILING_BITS)
                && check_reply_widths(widths, basis.primes()).is_ok()
                && reply_noise(widths, basis.modulus_bits(), t, n) <= licence
        });
        let (reply_widths, level_to_reply) = match lift_level {
            Some(_) => (
                Some(widths),
                level_bases
                    .iter()
                    .map(|basis| widths.map(|k| ScaleRound::new(basis, 1 << k)))
                    .collect(),
            ),
            None => (None, Vec::new()),
        };
        let download_level = lift_level.map_or(data.len(), |below| below + 1);
        let batch = BatchEncoder::new(n, t).ok().map(Arc::new);
        Ok(BfvContext {
            params: params.clone(),
            full,
            data,
            level_bases,
            level_deltas,
            level_to_plain,
            reply_widths,
            level_to_reply,
            download_level,
            tensor: Arc::default(),
            t,
            batch,
        })
    }

    /// The ct × ct multiply's tensor basis, built on the first call.
    ///
    /// # Errors
    ///
    /// Returns [`TensorBasis::new`]'s error, on this and every later call.
    fn tensor(&self) -> Result<&TensorBasis, HeError> {
        let built = self
            .tensor
            .get_or_init(|| TensorBasis::new(&self.data, self.params.primes(), self.t));
        built.as_ref().map_err(HeError::clone)
    }

    /// The parameter set.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    /// Plaintext modulus `t`.
    pub fn plain_modulus(&self) -> u64 {
        self.t
    }

    /// The data-modulus RNS basis.
    pub fn data_basis(&self) -> &RnsBasis {
        &self.data
    }

    /// log2 of the data modulus `q`.
    pub fn q_bits(&self) -> f64 {
        self.data.modulus_bits()
    }

    /// The noise-budget ceiling, in bits, of a ciphertext switched down to
    /// `level` data residues: `log2(q_level) − 2·log2(t) − 1`, or `None`
    /// for a level the parameter set does not have. However much budget a
    /// ciphertext had, the switch leaves it at most about this much, and
    /// it adds at most `2^-(ceiling+1)` of invariant noise: the message
    /// term scaled by `Δ_level` instead of `q_level/t` is off by
    /// `(q_level mod t)·m/q_level < t²/(2·q_level)`, and the rounding of
    /// both components is smaller by orders of magnitude.
    pub fn switch_ceiling_bits(&self, level: usize) -> Option<f64> {
        let basis = self.level_bases.get(level.checked_sub(1)?)?;
        Some(switch_ceiling(basis, self.t))
    }

    /// The level a compressed reply is lifted over: the lowest whose
    /// [`BfvContext::switch_ceiling_bits`] is at least
    /// [`DOWNLOAD_CEILING_BITS`] (the data-prime count needs none), whose
    /// modulus `q'` exceeds `2^{k1}` (`check_reply_widths`) and over
    /// which the reply adds at most `2^-(DOWNLOAD_CEILING_BITS + 1)` of
    /// invariant noise: `t/2^{k0+1} + t·N/2^{k1+1} + t·(1+N)/(2q')`. The
    /// data-prime count when the set licenses no reply. A fact of the
    /// parameter set, computed once here: a reply can turn a correct
    /// result into a wrong one only if its budget was already under
    /// `−log2(1 − 2^-10)` ≈ 0.0014 bits.
    pub fn download_level(&self) -> usize {
        self.download_level
    }

    /// The widths `(k0, k1)` = `(⌈log2 t⌉ + 11, ⌈log2 t⌉ + log2 N + 11)`
    /// ([`REPLY_GUARD_BITS`]) every reply's components travel at, or
    /// `None` when no level satisfies [`BfvContext::download_level`]'s
    /// conditions and replies leave uncompressed.
    pub fn reply_widths(&self) -> Option<[u32; 2]> {
        self.reply_widths
    }

    /// The form a program output leaves the server in: each component
    /// rounded to `c_i' = round(2^{k_i}·c_i/q) mod 2^{k_i}` at
    /// [`BfvContext::reply_widths`] — decryption's scale-and-round with
    /// `t → 2^{k_i}` — and lifted over [`BfvContext::download_level`]'s
    /// basis ([`Ciphertext::from_reply`]), so the server holds the
    /// ciphertext the client decodes. A reply comes back as it is, and so
    /// does a ciphertext the set (no licence) or its size (three parts)
    /// leaves uncompressed.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] for a ciphertext at no level of the
    /// set.
    pub fn compress_reply(&self, ct: &Ciphertext) -> Result<Ciphertext, HeError> {
        let (Some(widths), [c0, c1], None) = (self.reply_widths, ct.parts.as_slice(), &ct.reply)
        else {
            return Ok(ct.clone());
        };
        let (basis, [round0, round1], lift_to) = self.reply_bases(ct)?;
        let rows = [(c0, round0), (c1, round1)].map(|(c, round)| round.apply(c.clone(), basis));
        Ciphertext::from_reply(widths, rows, lift_to.primes())
    }

    /// [`Self::compress_reply`] by big-integer CRT composition and Knuth
    /// division of every coefficient, both ways: the independent oracle
    /// the RNS path is tested (and benchmarked) against. Not a production
    /// path.
    ///
    /// # Errors
    ///
    /// As [`Self::compress_reply`].
    #[doc(hidden)]
    pub fn compress_reply_reference(&self, ct: &Ciphertext) -> Result<Ciphertext, HeError> {
        let (Some(widths), [c0, c1], None) = (self.reply_widths, ct.parts.as_slice(), &ct.reply)
        else {
            return Ok(ct.clone());
        };
        let (basis, _, lift_to) = self.reply_bases(ct)?;
        let (q, q_out) = (basis.modulus(), lift_to.modulus());
        let n = self.degree();
        let mut residues = vec![0; basis.len()];
        let mut rows = [c0, c1].map(|_| Vec::with_capacity(n));
        let mut parts = [c0, c1].map(|_| RnsPoly::zero(lift_to.len(), n));
        for (((c, k), row), part) in [c0, c1].iter().zip(widths).zip(&mut rows).zip(&mut parts) {
            let pow2 = UBig::one().shl(k);
            for j in 0..n {
                for (i, r) in residues.iter_mut().enumerate() {
                    *r = c.row(i).get(j).copied().unwrap_or(0);
                }
                let rounded = basis.compose(&residues).shl(k).div_round(q).rem_u64(1 << k);
                let lifted = lift_to.decompose(&q_out.mul_u64(rounded).div_round(&pow2));
                for (i, r) in lifted.into_iter().enumerate() {
                    if let Some(slot) = part.row_mut(i).get_mut(j) {
                        *slot = r;
                    }
                }
                row.push(rounded);
            }
        }
        Ok(Ciphertext {
            parts: parts.into(),
            moduli: lift_to.primes().into(),
            seed: None,
            reply: Some(CompressedReply { widths, rows }),
        })
    }

    /// The basis `ct` lives over, its level's reply roundings, and the
    /// basis replies are lifted over.
    fn reply_bases(
        &self,
        ct: &Ciphertext,
    ) -> Result<(&RnsBasis, &[ScaleRound; 2], &RnsBasis), HeError> {
        let at = |level: usize| {
            let i = level.wrapping_sub(1);
            self.level_bases.get(i).zip(self.level_to_reply.get(i))
        };
        let level = ct.level();
        match (at(level), at(self.download_level)) {
            (Some((basis, rounds)), Some((lift_to, _))) => Ok((basis, rounds, lift_to)),
            _ => Err(HeError::Mismatch(format!(
                "no modulus level with {level} residues"
            ))),
        }
    }

    /// The SIMD batch encoder.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::BatchingUnsupported`] when `t ∤ 1 (mod 2N)`.
    pub fn batch_encoder(&self) -> Result<&BatchEncoder, HeError> {
        self.batch
            .as_deref()
            .ok_or(HeError::BatchingUnsupported(self.t))
    }

    /// Generates a fresh secret key.
    // choco-lint: secret
    pub fn keygen(&self, rng: &mut Blake3Rng) -> KeyBundle {
        rlwe::keygen(&self.full, rng)
    }

    /// Generates the paper's Eq. 2 public key for `sk` over the data basis
    /// ([`rlwe::public_key`]), the key an [`Encryptor`] encrypts under.
    // choco-lint: secret
    pub fn public_key(&self, sk: &SecretKey, rng: &mut Blake3Rng) -> PublicKey {
        rlwe::public_key(sk, &self.data, rng)
    }

    /// Generates a relinearization key for `s²`.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::NoSpecialPrime`] for single-prime parameter sets.
    pub fn relin_key(&self, sk: &SecretKey, rng: &mut Blake3Rng) -> Result<RelinKey, HeError> {
        self.require_special_prime()?;
        Ok(rlwe::relin_key(sk, &self.full, &self.data, rng))
    }

    /// Generates Galois keys for the given rotation steps (rows) plus the
    /// column swap.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::NoSpecialPrime`] for single-prime parameter sets
    /// and [`HeError::InvalidParameters`] for a step that is zero or not
    /// below `N/2` in magnitude.
    pub fn galois_keys(
        &self,
        sk: &SecretKey,
        steps: &[i64],
        rng: &mut Blake3Rng,
    ) -> Result<GaloisKeys, HeError> {
        self.require_special_prime()?;
        let mut elements = self.row_elements(steps)?;
        elements.push(galois_element_columns(self.degree()));
        elements.sort_unstable();
        elements.dedup();
        Ok(rlwe::galois_keys(
            sk, &elements, &self.full, &self.data, rng,
        ))
    }

    /// The Galois element of each row-rotation step.
    fn row_elements(&self, steps: &[i64]) -> Result<Vec<u64>, HeError> {
        let n = self.degree();
        steps.iter().map(|&s| galois_element_rows(s, n)).collect()
    }

    fn require_special_prime(&self) -> Result<(), HeError> {
        if self.params.prime_count() < 2 {
            Err(HeError::NoSpecialPrime)
        } else {
            Ok(())
        }
    }

    /// `Δ_l·m` over `basis`, the prefix basis of level `l` (the data basis
    /// for a fresh ciphertext's message term): the plaintext lifted into
    /// each residue, then scaled by `Δ_l mod q_i`.
    fn scaled_message(&self, pt: &Plaintext, basis: &RnsBasis) -> RnsPoly {
        let mut dm = RnsPoly::from_unsigned(pt.coeffs(), basis);
        if let Some(delta) = self.level_deltas.get(basis.len().wrapping_sub(1)) {
            dm.scalar_mul_per_row(delta, basis);
        }
        dm
    }

    /// An encryptor bound to `pk`.
    pub fn encryptor<'a>(&'a self, pk: &'a PublicKey) -> Encryptor<'a> {
        Encryptor { ctx: self, pk }
    }

    /// Symmetric encryption with a seeded mask — the client's upload form:
    /// `c0 = −(a·s + e) + Δ·m`, `c1 = a` expanded from a fresh 32-byte seed
    /// ([`rlwe::encrypt_symmetric`]). The wire carries `c0` and the seed,
    /// half the bytes of an [`Encryptor::encrypt`] ciphertext.
    // choco-lint: secret
    pub fn encrypt_symmetric(
        &self,
        pt: &Plaintext,
        sk: &SecretKey,
        rng: &mut Blake3Rng,
    ) -> Ciphertext {
        let msg = self.scaled_message(pt, &self.data);
        let (parts, seed) = rlwe::encrypt_symmetric(sk, &msg, &self.data, rng);
        Ciphertext::seeded(parts, self.data.primes(), seed)
    }

    /// A decryptor bound to `sk`.
    pub fn decryptor<'a>(&'a self, sk: &'a SecretKey) -> Decryptor<'a> {
        Decryptor { ctx: self, sk }
    }

    /// The homomorphic evaluator.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator { ctx: self }
    }
}

/// Encrypts plaintexts under a public key (paper Eq. 2 / Fig. 5 dataflow).
#[derive(Debug)]
pub struct Encryptor<'a> {
    ctx: &'a BfvContext,
    pk: &'a PublicKey,
}

impl Encryptor<'_> {
    /// Encrypts a plaintext:
    /// `c1 = P1·u + e2`, `c0 = P0·u + e1 + Δ·m`.
    // choco-lint: secret
    pub fn encrypt(&self, pt: &Plaintext, rng: &mut Blake3Rng) -> Ciphertext {
        let ctx = self.ctx;
        Ciphertext {
            parts: rlwe::encrypt(self.pk, &ctx.scaled_message(pt, &ctx.data), &ctx.data, rng),
            moduli: ctx.data.primes().into(),
            seed: None,
            reply: None,
        }
    }
}

/// Decrypts ciphertexts and measures noise budgets (paper Eq. 3).
#[derive(Debug)]
pub struct Decryptor<'a> {
    ctx: &'a BfvContext,
    sk: &'a SecretKey,
}

impl Decryptor<'_> {
    /// The basis a ciphertext lives in (full data modulus, or a prefix after
    /// modulus switching).
    fn basis_of(&self, ct: &Ciphertext) -> &RnsBasis {
        &self.ctx.level_bases[ct.parts[0].row_count() - 1]
    }

    /// Computes `x = c0 + c1·s (+ c2·s²)` over the ciphertext's basis.
    // choco-lint: secret (public: ct)
    fn dot_with_secret(&self, ct: &Ciphertext) -> RnsPoly {
        rlwe::dot_with_secret(&ct.parts, self.sk, self.basis_of(ct))
    }

    /// Decrypts: `m = ⌊t·x/q⌉ mod t` per coefficient.
    // choco-lint: secret (public: ct)
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        self.plaintext_of(self.dot_with_secret(ct), self.basis_of(ct))
    }

    /// The plaintext `⌊t·x/q⌉ mod t` of `x = c0 + c1·s (+ …)` over `basis`.
    ///
    /// With `r = [t·x]_q` centered, `⌊t·x/q⌉ = (t·x − r)/q ≡ −r·q^{-1}`
    /// modulo `t`, so one exact `q → {t}` conversion of `r` does it.
    // choco-lint: secret (public: basis)
    fn plaintext_of(&self, x: RnsPoly, basis: &RnsBasis) -> Plaintext {
        let to_plain = &self.ctx.level_to_plain[basis.len() - 1];
        Plaintext::from_coeffs(to_plain.apply(x, basis))
    }

    /// [`Self::decrypt`] by big-integer CRT composition and Knuth division
    /// of every coefficient: the independent oracle the RNS path is tested
    /// (and benchmarked) against. Not a production path.
    #[doc(hidden)]
    // choco-lint: secret (public: ct)
    pub fn decrypt_reference(&self, ct: &Ciphertext) -> Plaintext {
        let ctx = self.ctx;
        let basis = self.basis_of(ct);
        let x = self.dot_with_secret(ct);
        let q = basis.modulus();
        let n = ctx.degree();
        let mut out = vec![0u64; n];
        for j in 0..n {
            let residues: Vec<u64> = (0..basis.len()).map(|i| x.row(i)[j]).collect();
            let v = basis.compose(&residues);
            let y = v.mul_u64(ctx.t).div_round(q);
            out[j] = y.rem_u64(ctx.t);
        }
        Plaintext::from_coeffs(out)
    }

    /// SEAL-style invariant noise budget in bits:
    /// `log2(q/t) − 1 − log2‖v‖∞` where `v = x − Δ·m (mod q)` centered.
    /// Returns 0 when the budget is exhausted.
    ///
    /// One `x = c0 + c1·s` serves both the decryption of `m` and the noise
    /// `v`, which is formed residue-wise (`Δ mod q_i` per level) and measured
    /// by limb composition.
    // choco-lint: secret (public: ct)
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> f64 {
        let basis = self.basis_of(ct);
        let mut v = self.dot_with_secret(ct);
        let m = self.plaintext_of(v.clone(), basis);
        v.sub_assign_poly(&self.ctx.scaled_message(&m, basis), basis);
        let max_log = v.centered_norm_log2(basis);
        let t = self.ctx.t as f64;
        let budget = basis.modulus_bits() - t.log2() - 1.0 - max_log.max(0.0);
        budget.max(0.0)
    }

    /// [`Self::invariant_noise_budget`] by big-integer CRT composition of
    /// every coefficient, with `Δ·m` formed as a big integer and the
    /// difference reduced by Knuth division: the oracle the residue-wise,
    /// limb-composed path is tested (and benchmarked) against. Not a
    /// production path.
    #[doc(hidden)]
    pub fn invariant_noise_budget_reference(&self, ct: &Ciphertext) -> f64 {
        let ctx = self.ctx;
        let basis = self.basis_of(ct);
        let x = self.dot_with_secret(ct);
        let m = self.decrypt_reference(ct);
        let q = basis.modulus();
        let delta = q.divrem_u64(ctx.t).0;
        let half = q.shr(1);
        let mut max_log = f64::NEG_INFINITY;
        for (j, &mj) in m.coeffs().iter().enumerate() {
            // x's coefficient in [0, q).
            let (magnitude, negative) = x.coeff_centered(j, basis);
            let v = if negative {
                q.sub(&magnitude)
            } else {
                magnitude
            };
            // v_noise = x − Δ·m mod q, centered.
            let dm = delta.mul_u64(mj);
            let diff = if v >= dm {
                v.sub(&dm)
            } else {
                q.sub(&dm.sub(&v).divrem(q).1)
            };
            let centered = if diff > half { q.sub(&diff) } else { diff };
            max_log = max_log.max(centered.log2());
        }
        let budget = q.log2() - (ctx.t as f64).log2() - 1.0 - max_log.max(0.0);
        budget.max(0.0)
    }
}

/// Homomorphic operations over BFV ciphertexts.
#[derive(Debug)]
pub struct Evaluator<'a> {
    ctx: &'a BfvContext,
}

impl Evaluator<'_> {
    /// The basis `a` lives in: the data modulus, or the prefix of it a
    /// modulus-switched ciphertext was taken down to.
    fn level_basis(&self, a: &Ciphertext) -> Result<&RnsBasis, HeError> {
        let rows = a.parts.first().map_or(0, RnsPoly::row_count);
        let basis = self.ctx.level_bases.get(rows.wrapping_sub(1));
        basis
            .map(|b| &**b)
            .ok_or_else(|| HeError::Mismatch(format!("no modulus level with {rows} residues")))
    }

    /// Homomorphic addition (operands at the same modulus level).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] when sizes or levels differ.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, HeError> {
        let parts = rlwe::add_parts(&a.parts, &b.parts, self.level_basis(a)?)?;
        Ok(a.evaluated(parts))
    }

    /// Homomorphic subtraction (operands at the same modulus level).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] when sizes or levels differ.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, HeError> {
        let parts = rlwe::sub_parts(&a.parts, &b.parts, self.level_basis(a)?)?;
        Ok(a.evaluated(parts))
    }

    /// Negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let data = &*self.ctx.data;
        let parts = a
            .parts
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.neg_assign_poly(data);
                p
            })
            .collect();
        a.evaluated(parts)
    }

    /// Adds a plaintext: `c0 += Δ·m`.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let ctx = self.ctx;
        let mut parts = a.parts.clone();
        parts[0].add_assign_poly(&ctx.scaled_message(pt, &ctx.data), &ctx.data);
        a.evaluated(parts)
    }

    /// Multiplies by a plaintext polynomial (the workhorse of encrypted
    /// linear algebra — Table 1's "Plaintext Multiply").
    pub fn multiply_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let data = &*self.ctx.data;
        let parts = a
            .parts
            .iter()
            .map(|p| p.mul_small_poly(pt.coeffs(), data))
            .collect();
        a.evaluated(parts)
    }

    /// Ciphertext–ciphertext multiplication producing a 3-component result
    /// (relinearize to get back to 2). Passing the same ciphertext twice
    /// (`multiply(&a, &a)`) squares it: one operand is lifted and
    /// transformed instead of two, and the result is the same.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidCiphertext`] unless both inputs have 2
    /// components, and [`HeError::Mismatch`] unless both are at the full
    /// data modulus (not modulus-switched).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, HeError> {
        let ctx = self.ctx;
        let tensor = ctx.tensor()?;
        self.multiply_with(
            a,
            b,
            std::ptr::eq(a, b),
            &tensor.basis,
            |p| tensor.lift(p),
            |d| tensor.scale(d, ctx.t, &ctx.data),
        )
    }

    /// [`Self::multiply`] with the lift and the `t/q` scaling done by
    /// big-integer CRT composition of every coefficient, and never the
    /// squaring shortcut: the independent oracle the RNS path is tested
    /// (and benchmarked) against. Not a production path.
    ///
    /// # Errors
    ///
    /// As [`Self::multiply`].
    #[doc(hidden)]
    pub fn multiply_reference(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<Ciphertext, HeError> {
        let ctx = self.ctx;
        let basis = &ctx.tensor()?.basis;
        self.multiply_with(
            a,
            b,
            false,
            basis,
            |p| ctx.lift_reference(p, basis),
            |d| ctx.scale_reference(&d, basis),
        )
    }

    /// The tensor product over `basis` (`q ∪ P`), between a `lift` of the
    /// operand polynomials into it and a `scale` of the three exact product
    /// polynomials by `t/q` back out of it. A `square` lifts and transforms
    /// `a` alone, uses it for `b` too, and forms `d1 = 2·a0·a1`.
    fn multiply_with(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        square: bool,
        basis: &RnsBasis,
        lift: impl Fn(&RnsPoly) -> RnsPoly,
        scale: impl Fn(RnsPoly) -> RnsPoly,
    ) -> Result<Ciphertext, HeError> {
        let ([a0, a1], [b0, b1]) = (a.parts.as_slice(), b.parts.as_slice()) else {
            return Err(HeError::InvalidCiphertext(
                "multiply requires 2-component operands".into(),
            ));
        };
        let rows = self.ctx.data.len();
        if [a0, a1, b0, b1].iter().any(|p| p.row_count() != rows) {
            return Err(HeError::Mismatch(
                "multiply requires operands at the full data modulus".into(),
            ));
        }
        let transformed = |p: &RnsPoly| {
            let mut p = lift(p);
            p.ntt_forward(basis);
            p
        };
        let lifted_a = [a0, a1].map(transformed);
        let lifted_b;
        let [b0, b1] = if square {
            &lifted_a
        } else {
            lifted_b = [b0, b1].map(transformed);
            &lifted_b
        };
        let [a0, a1] = &lifted_a;
        let mut d = [(); 3].map(|_| RnsPoly::zero(basis.len(), self.ctx.degree()));
        let [d0, d1, d2] = &mut d;
        d0.dyadic_accumulate(a0, b0, basis);
        d1.dyadic_accumulate(a0, b1, basis);
        if square {
            d1.scalar_mul(2, basis);
        } else {
            d1.dyadic_accumulate(a1, b0, basis);
        }
        d2.dyadic_accumulate(a1, b1, basis);
        let parts = d.into_iter().map(|mut d| {
            d.ntt_inverse(basis);
            scale(d)
        });
        Ok(a.evaluated(parts.collect()))
    }

    /// Relinearizes a 3-component ciphertext back to 2 components.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidCiphertext`] for other sizes and
    /// [`HeError::Mismatch`] for a modulus-switched input.
    pub fn relinearize(&self, a: &Ciphertext, rk: &RelinKey) -> Result<Ciphertext, HeError> {
        let ctx = self.ctx;
        let parts = rlwe::relinearize(&a.parts, rk, &ctx.full, &ctx.data)?;
        Ok(a.evaluated(parts))
    }

    /// Convenience: multiply then relinearize.
    ///
    /// # Errors
    ///
    /// Propagates [`Evaluator::multiply`] / [`Evaluator::relinearize`] errors.
    pub fn multiply_relin(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rk: &RelinKey,
    ) -> Result<Ciphertext, HeError> {
        let prod = self.multiply(a, b)?;
        self.relinearize(&prod, rk)
    }

    /// Rotates batched rows by each of `steps` (positive = left) from the
    /// same input, sharing one hoisted decomposition across all rotations
    /// ([`rlwe::apply_galois_many`]) — the fast path for diagonal-method
    /// matvec and rotate-reduce kernels.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::rotate_rows`], for any of the steps.
    pub fn rotate_rows_many(
        &self,
        a: &Ciphertext,
        steps: &[i64],
        gk: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, HeError> {
        let ctx = self.ctx;
        let elements = ctx.row_elements(steps)?;
        let rotated = rlwe::apply_galois_many(&a.parts, &elements, gk, &ctx.full, &ctx.data)?;
        Ok(rotated
            .into_iter()
            .map(|parts| a.evaluated(parts))
            .collect())
    }

    /// Inner product against plaintext vectors: `Σ_i ct_i · pt_i` computed
    /// with a single NTT-domain accumulation — one forward transform per
    /// ciphertext row and one inverse per output row, instead of the
    /// forward+inverse per term that `multiply_plain`+`add` chains pay.
    /// The result is bit-identical to that chain (all arithmetic is exact).
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] on empty or unequal-length inputs or mixed
    /// levels; [`HeError::InvalidCiphertext`] unless every ciphertext has 2
    /// components.
    pub fn dot_plain(&self, cts: &[Ciphertext], pts: &[Plaintext]) -> Result<Ciphertext, HeError> {
        if cts.is_empty() || cts.len() != pts.len() {
            return Err(HeError::Mismatch(format!(
                "dot_plain needs matching non-empty inputs ({} cts, {} pts)",
                cts.len(),
                pts.len()
            )));
        }
        if cts.iter().any(|c| c.size() != 2) {
            return Err(HeError::InvalidCiphertext(
                "dot_plain requires 2-component ciphertexts".into(),
            ));
        }
        let rows = cts[0].parts[0].row_count();
        if cts.iter().any(|c| c.parts[0].row_count() != rows) {
            return Err(HeError::Mismatch("dot_plain inputs at mixed levels".into()));
        }
        let ctx = self.ctx;
        let basis = &*ctx.level_bases[rows - 1];
        let n = ctx.degree();
        if pts.iter().any(|p| p.coeffs().len() != n) {
            return Err(HeError::Mismatch("plaintext degree mismatch".into()));
        }
        let acc: Vec<(Vec<u64>, Vec<u64>)> = par::par_map_range(rows, |i| {
            let r = Barrett::new(basis.primes()[i]);
            let table = &basis.ntt_tables()[i];
            // Raw u128 accumulation: products stay below 2^122, so 32 terms
            // fit before a lazy reduction. The modular sum is unique, so the
            // result is bit-identical to a multiply_plain/add chain.
            let mut acc0 = PolyPool::take_zeroed_u128(n);
            let mut acc1 = PolyPool::take_zeroed_u128(n);
            let mut ct_ntt = PolyPool::take_scratch(n);
            let mut pt_ntt = PolyPool::take_scratch(n);
            for (term, (ct, pt)) in cts.iter().zip(pts).enumerate() {
                if term > 0 && term % 32 == 0 {
                    for v in acc0.iter_mut().chain(acc1.iter_mut()) {
                        *v = r.reduce(*v) as u128;
                    }
                }
                for (dst, &coeff) in pt_ntt.iter_mut().zip(pt.coeffs()) {
                    *dst = r.reduce_u64(coeff);
                }
                table.forward(&mut pt_ntt);
                for (part, acc) in ct.parts.iter().zip([&mut acc0, &mut acc1]) {
                    ct_ntt.copy_from_slice(part.row(i));
                    table.forward(&mut ct_ntt);
                    for ((slot, &cv), &pv) in acc.iter_mut().zip(&ct_ntt).zip(&pt_ntt) {
                        *slot += cv as u128 * pv as u128;
                    }
                }
            }
            let reduce = |acc: Vec<u128>| -> Vec<u64> {
                let mut out = PolyPool::take_scratch(acc.len());
                for (x, &v) in out.iter_mut().zip(&acc) {
                    *x = r.reduce(v);
                }
                PolyPool::recycle_u128(acc);
                out
            };
            let mut acc0 = reduce(acc0);
            let mut acc1 = reduce(acc1);
            table.inverse(&mut acc0);
            table.inverse(&mut acc1);
            PolyPool::recycle(ct_ntt);
            PolyPool::recycle(pt_ntt);
            (acc0, acc1)
        });
        let (rows0, rows1): (Vec<_>, Vec<_>) = acc.into_iter().unzip();
        Ok(Ciphertext {
            parts: vec![RnsPoly::from_rows(rows0), RnsPoly::from_rows(rows1)],
            moduli: basis.primes().into(),
            seed: None,
            reply: None,
        })
    }

    /// Encodes a plaintext as a fused-dot factor: its coefficients reduced
    /// into every prime of the full basis (data primes and the special
    /// prime), in the evaluation domain. Do this once for a plaintext that
    /// meets many ciphertexts and hand the result to
    /// [`Evaluator::dot_rotations`].
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] unless `pt` has `N` coefficients.
    pub fn dot_operand(&self, pt: &Plaintext) -> Result<DotOperand, HeError> {
        let full = &*self.ctx.full;
        if pt.coeffs().len() != full.degree() {
            return Err(HeError::Mismatch("plaintext degree mismatch".into()));
        }
        Ok(DotOperand::encode(full, |q, row| {
            let r = Barrett::new(q);
            for (x, &c) in row.iter_mut().zip(pt.coeffs()) {
                *x = r.reduce_u64(c);
            }
        }))
    }

    /// Fused rotate-and-dot: computes `Σ_k rotate_rows(a, s_k) ⊙ pt_k`
    /// (step 0 meaning `a` itself) with the double-hoisted kernel both
    /// schemes share, [`rlwe::dot_galois`]: one key-switch decomposition of
    /// `a` for every rotation, one rounded `mod_down` for the whole sum.
    /// Operands are encoded one term at a time; a caller that reuses its
    /// plaintexts encodes them once with [`Evaluator::dot_operand`] and
    /// calls [`Evaluator::dot_rotations`].
    ///
    /// Decrypts to exactly the same plaintext as the equivalent
    /// `rotate_rows` / `multiply_plain` / `add` chain, with *less* noise:
    /// one key-switch rounding for the sum instead of one scaled by each
    /// `pt_k` (the ciphertext bits differ for that reason).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] for empty input, plaintext length
    /// mismatches or a modulus-switched input,
    /// [`HeError::InvalidCiphertext`] unless `a` has exactly two
    /// components, [`HeError::InvalidParameters`] for a step that names no
    /// rotation, and [`HeError::MissingGaloisKey`] when a step's key is
    /// absent from `gk`.
    pub fn dot_rotations_plain(
        &self,
        a: &Ciphertext,
        pairs: &[(i64, Plaintext)],
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        let terms = pairs
            .iter()
            .map(|(step, pt)| Ok((*step, self.dot_operand(pt)?)));
        self.dot_rotations(a, terms, gk)
    }

    /// [`Evaluator::dot_rotations_plain`] over already-encoded operands
    /// (owned or borrowed), drawn from an iterator: the one-output case of
    /// [`Evaluator::dot_rotations_many`].
    ///
    /// # Errors
    ///
    /// As [`Evaluator::dot_rotations_plain`], plus the first error the
    /// iterator yields.
    pub fn dot_rotations<O: Borrow<DotOperand>>(
        &self,
        a: &Ciphertext,
        terms: impl IntoIterator<Item = Result<(i64, O), HeError>>,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        let terms = terms
            .into_iter()
            .map(|term| term.map(|(step, operand)| (step, [operand])));
        self.dot_rotations_many(a, 1, terms, gk)?
            .pop()
            .ok_or_else(|| HeError::Mismatch("a fused dot needs an output".into()))
    }

    /// Several fused rotate-and-dots over the *same* rotations of `a` in one
    /// pass: each term carries one operand per output, and output `o` is
    /// `Σ_k rotate_rows(a, s_k) ⊙ operand_{k,o}` — bit for bit what
    /// [`Evaluator::dot_rotations`] returns for that output's operands
    /// alone, with every rotation's key switch paid once instead of once
    /// per output ([`rlwe::dot_galois`]). The shape of a convolution layer:
    /// the taps shift one resident input, every output channel weighs them
    /// differently.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::dot_rotations`]; a term whose operand count is not
    /// `outputs`, or `outputs == 0`, is [`HeError::Mismatch`].
    pub fn dot_rotations_many<O: Borrow<DotOperand>, T: AsRef<[O]>>(
        &self,
        a: &Ciphertext,
        outputs: usize,
        terms: impl IntoIterator<Item = Result<(i64, T), HeError>>,
        gk: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, HeError> {
        let ctx = self.ctx;
        let terms = rlwe::terms_of_steps(terms, ctx.degree(), galois_element_rows);
        let outs = rlwe::dot_galois(&a.parts, outputs, terms, gk, &ctx.full, &ctx.data)?;
        Ok(outs.into_iter().map(|parts| a.evaluated(parts)).collect())
    }

    /// Switches a ciphertext down one modulus level (drops the last data
    /// prime with rounding): the message is preserved, the wire size shrinks
    /// by one residue per component, and the noise budget is capped at the
    /// new level's [`BfvContext::switch_ceiling_bits`]. No download takes
    /// this path: a reply is compressed straight from its level
    /// ([`BfvContext::compress_reply`]). It stays as the way tests reach a
    /// lower level and measure that level's ceiling.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] when the ciphertext is already at the
    /// lowest level.
    pub fn mod_switch_to_next(&self, a: &Ciphertext) -> Result<Ciphertext, HeError> {
        let rows = a.level();
        if rows <= 1 {
            return Err(HeError::Mismatch(
                "cannot modulus-switch below one residue".into(),
            ));
        }
        let cur = &*self.ctx.level_bases[rows - 1];
        let next = &*self.ctx.level_bases[rows - 2];
        let parts = a
            .parts
            .iter()
            .map(|p| crate::keyswitch::mod_down(p, cur, next))
            .collect();
        Ok(Ciphertext {
            parts,
            moduli: next.primes().into(),
            seed: None,
            reply: None,
        })
    }

    /// Applies the Galois automorphism `x → x^element` with key switching.
    fn galois(&self, a: &Ciphertext, element: u64, gk: &GaloisKeys) -> Result<Ciphertext, HeError> {
        let ctx = self.ctx;
        let parts = rlwe::apply_galois(&a.parts, element, gk, &ctx.full, &ctx.data)?;
        Ok(a.evaluated(parts))
    }

    /// Rotates batched rows by `steps` (positive = left).
    ///
    /// # Errors
    ///
    /// [`HeError::InvalidParameters`] for a step that is zero or not below
    /// `N/2` in magnitude, [`HeError::MissingGaloisKey`] if `gk` lacks the
    /// step, [`HeError::InvalidCiphertext`] for non-2-component inputs and
    /// [`HeError::Mismatch`] for a modulus-switched input.
    pub fn rotate_rows(
        &self,
        a: &Ciphertext,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        self.galois(a, galois_element_rows(steps, self.ctx.degree())?, gk)
    }

    /// Swaps the two batched rows.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::rotate_rows`], less the step check.
    pub fn rotate_columns(&self, a: &Ciphertext, gk: &GaloisKeys) -> Result<Ciphertext, HeError> {
        self.galois(a, galois_element_columns(self.ctx.degree()), gk)
    }
}

impl BfvContext {
    /// Exactly lifts a data-basis polynomial (centered) into the tensor
    /// basis `basis`, one big-integer composition per coefficient.
    fn lift_reference(&self, p: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        let n = self.degree();
        let data = &*self.data;
        let mut out = RnsPoly::zero(basis.len(), n);
        for j in 0..n {
            let (mag, neg) = p.coeff_centered(j, data);
            let residues = basis.decompose_signed(&mag, neg);
            for (i, r) in residues.into_iter().enumerate() {
                out.row_mut(i)[j] = r;
            }
        }
        out
    }

    /// Composes a tensor-basis polynomial (exact signed integers), scales
    /// by `t/q` with big-integer rounding, and reduces into the data basis.
    fn scale_reference(&self, p: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        let n = self.degree();
        let data = &*self.data;
        let q = data.modulus();
        let mut out = RnsPoly::zero(data.len(), n);
        for j in 0..n {
            let (mag, neg) = p.coeff_centered(j, basis);
            let y = mag.mul_u64(self.t).div_round(q);
            let residues = data.decompose_signed(&y, neg);
            for (i, r) in residues.into_iter().enumerate() {
                out.row_mut(i)[j] = r;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small but real parameter set: N=1024 (insecure, test-only).
    fn ctx_small() -> BfvContext {
        let params = HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap();
        BfvContext::new(&params).unwrap()
    }

    fn rng() -> Blake3Rng {
        Blake3Rng::from_seed(b"bfv tests")
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let t = ctx.plain_modulus();
        let coeffs: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 37) % t).collect();
        let pt = Plaintext::from_coeffs(coeffs.clone());
        let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
        let out = ctx.decryptor(keys.secret_key()).decrypt(&ct);
        assert_eq!(out.coeffs(), &coeffs[..]);
    }

    #[test]
    fn fresh_ciphertext_has_healthy_noise_budget() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let pt = Plaintext::from_coeffs(vec![1; ctx.degree()]);
        let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
        let budget = ctx.decryptor(keys.secret_key()).invariant_noise_budget(&ct);
        // q_data = 80 bits, t = 17 bits, noise ~ 2^9 → expect ~52 bits.
        assert!(budget > 30.0, "budget {budget}");
        assert!(budget < 70.0, "budget {budget}");
    }

    #[test]
    fn noise_budget_is_the_big_integer_budget_bit_for_bit() {
        // Fresh, after multiplies down to exhaustion, and switched down a
        // level: every kind of noise the residue-wise path measures.
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
        let dec = ctx.decryptor(keys.secret_key());
        let eval = ctx.evaluator();
        let pt = Plaintext::from_coeffs((0..ctx.degree() as u64).map(|i| i % 5).collect());
        let fresh = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let mut cts = vec![fresh.clone()];
        for _ in 0..3 {
            let next = eval
                .multiply_relin(cts.last().unwrap(), &fresh, &rk)
                .unwrap();
            cts.push(next);
        }
        cts.push(eval.mod_switch_to_next(&fresh).unwrap());
        for ct in &cts {
            let got = dec.invariant_noise_budget(ct);
            assert_eq!(
                got.to_bits(),
                dec.invariant_noise_budget_reference(ct).to_bits()
            );
        }
        assert!(
            dec.invariant_noise_budget(&cts[3]) < 1.0,
            "chain ran the budget out"
        );
    }

    #[test]
    fn homomorphic_addition() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let t = ctx.plain_modulus();
        let a: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % t).collect();
        let b: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 3 + 1) % t).collect();
        let ca = ctx.encrypt_symmetric(
            &Plaintext::from_coeffs(a.clone()),
            keys.secret_key(),
            &mut rng,
        );
        let cb = ctx.encrypt_symmetric(
            &Plaintext::from_coeffs(b.clone()),
            keys.secret_key(),
            &mut rng,
        );
        let sum = ctx.evaluator().add(&ca, &cb).unwrap();
        let out = ctx.decryptor(keys.secret_key()).decrypt(&sum);
        for i in 0..ctx.degree() {
            assert_eq!(out.coeffs()[i], (a[i] + b[i]) % t);
        }
    }

    #[test]
    fn add_plain_and_sub() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let t = ctx.plain_modulus();
        let a = vec![5u64; ctx.degree()];
        let b = vec![3u64; ctx.degree()];
        let ca = ctx.encrypt_symmetric(&Plaintext::from_coeffs(a), keys.secret_key(), &mut rng);
        let with_plain = ctx.evaluator().add_plain(&ca, &Plaintext::from_coeffs(b));
        let out = ctx.decryptor(keys.secret_key()).decrypt(&with_plain);
        assert!(out.coeffs().iter().all(|&c| c == 8));

        let cb = ctx.encrypt_symmetric(
            &Plaintext::from_coeffs(vec![1u64; ctx.degree()]),
            keys.secret_key(),
            &mut rng,
        );
        let diff = ctx.evaluator().sub(&with_plain, &cb).unwrap();
        let out = ctx.decryptor(keys.secret_key()).decrypt(&diff);
        assert!(out.coeffs().iter().all(|&c| c == 7));

        let neg = ctx.evaluator().negate(&diff);
        let out = ctx.decryptor(keys.secret_key()).decrypt(&neg);
        assert!(out.coeffs().iter().all(|&c| c == t - 7));
    }

    #[test]
    fn multiply_plain_polynomial_semantics() {
        // Multiplying by the monomial x shifts coefficients negacyclically.
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let t = ctx.plain_modulus();
        let n = ctx.degree();
        let mut msg = vec![0u64; n];
        msg[0] = 7;
        msg[n - 1] = 2;
        let ct = ctx.encrypt_symmetric(&Plaintext::from_coeffs(msg), keys.secret_key(), &mut rng);
        let mut x = vec![0u64; n];
        x[1] = 1;
        let prod = ctx
            .evaluator()
            .multiply_plain(&ct, &Plaintext::from_coeffs(x));
        let out = ctx.decryptor(keys.secret_key()).decrypt(&prod);
        assert_eq!(out.coeffs()[1], 7);
        assert_eq!(out.coeffs()[0], t - 2); // wrapped with sign flip
    }

    #[test]
    fn ciphertext_multiply_and_relinearize() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
        let n = ctx.degree();
        // constant polynomials 6 and 7 → product constant 42.
        let mut a = vec![0u64; n];
        a[0] = 6;
        let mut b = vec![0u64; n];
        b[0] = 7;
        let ca = ctx.encrypt_symmetric(&Plaintext::from_coeffs(a), keys.secret_key(), &mut rng);
        let cb = ctx.encrypt_symmetric(&Plaintext::from_coeffs(b), keys.secret_key(), &mut rng);
        let prod = ctx.evaluator().multiply(&ca, &cb).unwrap();
        assert_eq!(prod.size(), 3);
        // Degree-2 decryption works directly.
        let out = ctx.decryptor(keys.secret_key()).decrypt(&prod);
        assert_eq!(out.coeffs()[0], 42);
        assert!(out.coeffs()[1..].iter().all(|&c| c == 0));
        // And after relinearization.
        let rel = ctx.evaluator().relinearize(&prod, &rk).unwrap();
        assert_eq!(rel.size(), 2);
        let out = ctx.decryptor(keys.secret_key()).decrypt(&rel);
        assert_eq!(out.coeffs()[0], 42);
    }

    #[test]
    fn multiply_consumes_noise_budget() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
        let dec = ctx.decryptor(keys.secret_key());
        let pt = Plaintext::from_coeffs(vec![2; ctx.degree()]);
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let fresh = dec.invariant_noise_budget(&ct);
        let prod = ctx.evaluator().multiply_relin(&ct, &ct, &rk).unwrap();
        let after = dec.invariant_noise_budget(&prod);
        assert!(after < fresh - 10.0, "fresh {fresh}, after {after}");
        assert!(after > 0.0, "multiplication should not exhaust the budget");
    }

    #[test]
    fn mismatched_sizes_error() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let pt = Plaintext::from_coeffs(vec![1; ctx.degree()]);
        let c2 = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let c3 = ctx.evaluator().multiply(&c2, &c2).unwrap();
        assert!(matches!(
            ctx.evaluator().add(&c2, &c3).unwrap_err(),
            HeError::Mismatch(_)
        ));
        assert!(matches!(
            ctx.evaluator().multiply(&c2, &c3).unwrap_err(),
            HeError::InvalidCiphertext(_)
        ));
    }

    #[test]
    fn mod_switch_shrinks_ciphertexts_and_preserves_message() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let t = ctx.plain_modulus();
        let coeffs: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 5 + 1) % t).collect();
        let pt = Plaintext::from_coeffs(coeffs.clone());
        // An Eq. 2 ciphertext carries both parts, so its bytes halve with
        // its residues.
        let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
        let dec = ctx.decryptor(keys.secret_key());
        let before_bytes = ct.byte_size();
        let before_budget = dec.invariant_noise_budget(&ct);

        // Data modulus has 2 residues; switching drops to 1 → half the bytes.
        let switched = ctx.evaluator().mod_switch_to_next(&ct).unwrap();
        assert_eq!(switched.byte_size(), before_bytes / 2);
        let out = dec.decrypt(&switched);
        assert_eq!(out.coeffs(), &coeffs[..]);
        // Budget shrinks with the modulus but stays positive.
        let after_budget = dec.invariant_noise_budget(&switched);
        assert!(after_budget > 0.0);
        assert!(after_budget < before_budget);
        // And the floor is enforced.
        assert!(matches!(
            ctx.evaluator().mod_switch_to_next(&switched).unwrap_err(),
            HeError::Mismatch(_)
        ));
    }

    /// `P ≥ 4·t·N·q` exactly, with no prime to spare, for every BFV set
    /// the workspace builds: paper sets A and B, the remote workloads'
    /// `[45, 45, 46]` set, the four-level chain the chaos and noise-margin
    /// tests run, this module's small set and the `t > q` set of `prop_he`.
    #[test]
    fn tensor_basis_meets_its_bound_with_the_fewest_primes() {
        let sets = [
            ("set A", HeParams::set_a(), Some(3)),
            ("set B", HeParams::set_b(), Some(2)),
            (
                "workloads",
                HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap(),
                None,
            ),
            (
                "chaos chain",
                HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 21).unwrap(),
                None,
            ),
            (
                "small",
                HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap(),
                None,
            ),
            (
                "t > q",
                HeParams::bfv_insecure(64, &[20, 30], 40).unwrap(),
                None,
            ),
        ];
        for (label, params, aux_len) in sets {
            let ctx = BfvContext::new(&params).unwrap();
            let tensor = ctx.tensor().unwrap();
            let (q, aux) = (ctx.data.modulus(), tensor.aux.primes());
            let bound = q.mul_u64(ctx.t).mul_u64(4 * ctx.degree() as u64);
            let product = |primes: &[u64]| primes.iter().fold(UBig::one(), |p, &x| p.mul_u64(x));
            assert!(product(aux) >= bound, "{label}: P below 4·t·N·q");
            assert!(product(&aux[1..]) < bound, "{label}: a prime to spare");
            assert!(aux.iter().all(|p| !params.primes().contains(p)), "{label}");
            assert_eq!(tensor.basis.primes(), [ctx.data.primes(), aux].concat());
            if let Some(len) = aux_len {
                assert_eq!(aux.len(), len, "{label}");
            }
        }
    }

    /// A context that only encrypts, rotates and decrypts never builds its
    /// tensor basis; a clone taken before the first multiply, and one taken
    /// after, both multiply to the same bytes as the original.
    #[test]
    fn only_a_multiply_builds_the_tensor_basis() {
        let ctx = ctx_small();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
        let t = ctx.plain_modulus();
        let pt = Plaintext::from_coeffs((0..ctx.degree() as u64).map(|i| i % t).collect());
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let rotated = ctx.evaluator().rotate_rows(&ct, 1, &gks).unwrap();
        ctx.decryptor(keys.secret_key()).decrypt(&rotated);
        assert!(ctx.tensor.get().is_none(), "built without a multiply");

        let early = ctx.clone();
        let product = early.evaluator().multiply(&ct, &rotated).unwrap();
        assert!(ctx.tensor.get().is_some(), "a clone builds it for both");
        let late = ctx.clone();
        for other in [&ctx, &late] {
            assert_eq!(other.evaluator().multiply(&ct, &rotated).unwrap(), product);
        }
        let reference = ctx.evaluator().multiply_reference(&ct, &rotated).unwrap();
        assert_eq!(product, reference);
    }

    #[test]
    fn single_prime_params_reject_keyswitch_keys() {
        let params = HeParams::bfv_insecure(1024, &[40], 17).unwrap();
        let ctx = BfvContext::new(&params).unwrap();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        assert!(matches!(
            ctx.relin_key(keys.secret_key(), &mut rng).unwrap_err(),
            HeError::NoSpecialPrime
        ));
    }
}
