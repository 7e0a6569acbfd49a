//! Residue Number System (RNS) bases.
//!
//! HE ciphertext coefficients live modulo a composite `q = q_1 ⋯ q_k` of
//! NTT-friendly primes and are stored as `k` independent residues (one per
//! prime). [`RnsBasis`] bundles the primes with their NTT tables and the CRT
//! constants needed to compose residues back into exact integers.
//! Composition has one production form,
//! [`RnsBasis::compose_centered_into`]: the centered value of one
//! coefficient as limbs in a buffer the caller reuses across a polynomial,
//! for any number of primes, with no heap big integer and no division —
//! what CKKS decoding, the BFV noise budget and norm measurement run on.
//! [`RnsBasis::compose`] / [`RnsBasis::compose_centered`] build a [`UBig`]
//! per value and stay only as the oracle tests and the `*_reference` paths
//! check against. [`BaseConverter`] carries a whole polynomial from one
//! basis to another without composing it: the primitive BFV decryption and
//! the exact tensor-product multiply are built on.

use crate::bigint::{limbs_rem, lt_limbs, mac_limbs, negate_from_masked, sub_limbs_masked, UBig};
use crate::modops::{inv_mod, mul_mod, mul_mod_shoup, mul_mod_shoup_lazy, shoup_precompute};
use crate::ntt::{NttError, NttTable};
use crate::pool::PolyPool;
use std::sync::Arc;

/// A basis of distinct NTT-friendly primes for ring degree `n`.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    n: usize,
    primes: Vec<u64>,
    ntts: Vec<NttTable>,
    /// q = product of all primes.
    modulus: UBig,
    /// q / q_i for each i.
    punctured: Vec<UBig>,
    /// (q / q_i)^{-1} mod q_i.
    inv_punctured: Vec<u64>,
    /// `q`, `⌊q/2⌋` and every `q / q_i` as little-endian limbs, zero-padded
    /// to [`Self::compose_width`].
    limbs: ComposeLimbs,
}

/// The constants of [`RnsBasis::compose_centered_into`]: the limb runs are
/// all `width` limbs wide, enough for the unreduced sum `< k·q`.
#[derive(Debug, Clone)]
struct ComposeLimbs {
    width: usize,
    /// Shoup constants of `(q / q_i)^{-1} mod q_i`.
    inv_punctured_shoup: Vec<u64>,
    modulus: Vec<u64>,
    half: Vec<u64>,
    /// `k` runs of `width` limbs, `q / q_i` in prime order.
    punctured: Vec<u64>,
}

impl ComposeLimbs {
    fn new(primes: &[u64], inv_punctured: &[u64], modulus: &UBig, punctured: &[UBig]) -> Self {
        // k·q < 2^(bits(q) + bits(k)).
        let k = punctured.len() as u64;
        let width = (modulus.bit_len() + (u64::BITS - k.leading_zeros())).div_ceil(64) as usize;
        let padded = |v: &UBig| {
            let mut limbs = v.limbs().to_vec();
            limbs.resize(width, 0);
            limbs
        };
        let shoup = inv_punctured.iter().zip(primes);
        ComposeLimbs {
            width,
            inv_punctured_shoup: shoup.map(|(&w, &q)| shoup_precompute(w, q)).collect(),
            modulus: padded(modulus),
            half: padded(&modulus.shr(1)),
            punctured: punctured.iter().flat_map(padded).collect(),
        }
    }
}

/// Errors from [`RnsBasis::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RnsError {
    /// The prime list was empty or contained duplicates.
    InvalidPrimes,
    /// A prime was rejected by NTT table construction.
    Ntt(NttError),
}

impl std::fmt::Display for RnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RnsError::InvalidPrimes => write!(f, "rns basis primes must be distinct and nonempty"),
            RnsError::Ntt(e) => write!(f, "rns basis prime unusable: {e}"),
        }
    }
}

impl std::error::Error for RnsError {}

impl From<NttError> for RnsError {
    fn from(e: NttError) -> Self {
        RnsError::Ntt(e)
    }
}

impl RnsBasis {
    /// Builds a basis over ring degree `n` from `primes`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::InvalidPrimes`] for an empty or duplicated prime
    /// list, and [`RnsError::Ntt`] if any prime is not NTT-friendly for `n`.
    pub fn new(n: usize, primes: &[u64]) -> Result<Self, RnsError> {
        check_distinct(primes)?;
        let ntts = primes
            .iter()
            .map(|&q| NttTable::new(n, q))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_tables(n, ntts)
    }

    /// The basis of `ntts`' primes, in order, over those tables: no table
    /// is rebuilt, so no `q − 1` is factored again.
    fn from_tables(n: usize, ntts: Vec<NttTable>) -> Result<Self, RnsError> {
        let primes: Vec<u64> = ntts.iter().map(NttTable::modulus).collect();
        check_distinct(&primes)?;
        if ntts.iter().any(|table| table.size() != n) {
            return Err(RnsError::InvalidPrimes);
        }
        let mut modulus = UBig::one();
        for &q in &primes {
            modulus = modulus.mul_u64(q);
        }
        let punctured: Vec<UBig> = primes.iter().map(|&q| modulus.divrem_u64(q).0).collect();
        let inv_punctured: Vec<u64> = primes
            .iter()
            .zip(&punctured)
            .map(|(&q, p)| inv_mod(p.rem_u64(q), q))
            .collect();
        let limbs = ComposeLimbs::new(&primes, &inv_punctured, &modulus, &punctured);
        Ok(RnsBasis {
            n,
            primes,
            ntts,
            modulus,
            punctured,
            inv_punctured,
            limbs,
        })
    }

    /// Ring degree the basis was built for.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of primes in the basis.
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// True iff the basis has no primes (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// The primes.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// NTT tables, aligned with [`Self::primes`].
    pub fn ntt_tables(&self) -> &[NttTable] {
        &self.ntts
    }

    /// The composite modulus `q`.
    pub fn modulus(&self) -> &UBig {
        &self.modulus
    }

    /// The punctured product `q / q_i`.
    pub fn punctured(&self, i: usize) -> &UBig {
        &self.punctured[i]
    }

    /// `(q / q_i)^{-1} mod q_i` — the CRT/decomposition constant.
    pub fn inv_punctured(&self, i: usize) -> u64 {
        self.inv_punctured[i]
    }

    /// log2 of the composite modulus.
    pub fn modulus_bits(&self) -> f64 {
        self.modulus.log2()
    }

    /// A sub-basis containing the first `k` primes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the basis size.
    pub fn prefix(&self, k: usize) -> RnsBasis {
        assert!(k >= 1 && k <= self.len(), "invalid sub-basis size");
        RnsBasis::from_tables(self.n, self.ntts[..k].to_vec())
            .expect("prefix of a valid basis is valid")
    }

    /// The basis of this basis's primes followed by `other`'s, over the NTT
    /// tables both already hold.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::InvalidPrimes`] when the two share a prime or
    /// differ in ring degree.
    pub fn concat(&self, other: &RnsBasis) -> Result<RnsBasis, RnsError> {
        let ntts = self.ntts.iter().chain(&other.ntts).cloned().collect();
        RnsBasis::from_tables(self.n, ntts)
    }

    /// Limbs a [`Self::compose_centered_into`] buffer holds: enough for
    /// `k·q`.
    pub fn compose_width(&self) -> usize {
        self.limbs.width
    }

    /// The centered CRT composition [`Self::compose_centered`] computes,
    /// into a caller's buffer instead of a fresh [`UBig`]: writes the
    /// magnitude of the representative of `residues` (one per prime, in
    /// prime order) in `(−q/2, q/2]` to `limbs` — little-endian,
    /// [`Self::compose_width`] limbs, zero-padded — and returns whether it
    /// is negative. Works for any number of primes and never divides:
    /// `Σ yᵢ·(q/qᵢ)` with `yᵢ = rᵢ·(q/qᵢ)⁻¹ mod qᵢ` is below `k·q`, so `k − 1`
    /// conditional subtractions of `q` reduce it, and a conditional
    /// negation centers it. Each condition is a mask, so every value costs
    /// the same sequence of limb operations. A caller composing a whole
    /// polynomial reuses one buffer for it.
    pub fn compose_centered_into(
        &self,
        residues: impl IntoIterator<Item = u64>,
        limbs: &mut [u64],
    ) -> bool {
        let c = &self.limbs;
        debug_assert_eq!(limbs.len(), c.width, "composition buffer width");
        limbs.fill(0);
        let inv = self.inv_punctured.iter().zip(&c.inv_punctured_shoup);
        let constants = self.primes.iter().zip(inv);
        let terms = residues.into_iter().zip(constants);
        for ((r, (&q, (&w, &w_shoup))), punctured) in terms.zip(c.punctured.chunks_exact(c.width)) {
            // Shoup's product takes any 64-bit `r`: y = r·w mod q.
            mac_limbs(limbs, punctured, mul_mod_shoup(r, w, w_shoup, q));
        }
        for _ in 1..self.primes.len() {
            let below = lt_limbs(limbs, &c.modulus);
            sub_limbs_masked(limbs, &c.modulus, below.wrapping_sub(1));
        }
        let negative = lt_limbs(&c.half, limbs);
        negate_from_masked(limbs, &c.modulus, negative.wrapping_neg());
        negative == 1
    }

    /// CRT-composes one residue per prime into the unique integer in `[0, q)`
    /// — the big-integer oracle: production code composes with
    /// [`Self::compose_centered_into`].
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn compose(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let mut acc = UBig::zero();
        for i in 0..self.len() {
            let coeff = mul_mod(
                residues[i] % self.primes[i],
                self.inv_punctured[i],
                self.primes[i],
            );
            acc = acc.add(&self.punctured[i].mul_u64(coeff));
        }
        acc.divrem(&self.modulus).1
    }

    /// Decomposes an integer into its residues modulo each prime.
    pub fn decompose(&self, value: &UBig) -> Vec<u64> {
        self.primes.iter().map(|&q| value.rem_u64(q)).collect()
    }

    /// Composes residues and centers the result: returns `(magnitude, is_negative)`
    /// for the representative in `(-q/2, q/2]` — the big-integer oracle of
    /// [`Self::compose_centered_into`].
    pub fn compose_centered(&self, residues: &[u64]) -> (UBig, bool) {
        let v = self.compose(residues);
        let half = self.modulus.shr(1);
        if v > half {
            (self.modulus.sub(&v), true)
        } else {
            (v, false)
        }
    }

    /// Decomposes a signed integer (given as magnitude + sign) into residues.
    pub fn decompose_signed(&self, magnitude: &UBig, negative: bool) -> Vec<u64> {
        self.primes
            .iter()
            .map(|&q| signed_residue(magnitude.limbs(), negative, q))
            .collect()
    }
}

/// Refuses an empty or duplicated prime list.
fn check_distinct(primes: &[u64]) -> Result<(), RnsError> {
    let mut sorted = primes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if primes.is_empty() || sorted.len() != primes.len() {
        return Err(RnsError::InvalidPrimes);
    }
    Ok(())
}

/// `±magnitude mod q` in `[0, q)`, for a magnitude given as limbs.
fn signed_residue(magnitude: &[u64], negative: bool, q: u64) -> u64 {
    let r = limbs_rem(magnitude, q);
    if negative && r != 0 {
        q - r
    } else {
        r
    }
}

/// Constants of one source prime `a_i` of a [`BaseConverter`].
#[derive(Debug, Clone)]
struct SourcePrime {
    prime: u64,
    /// `(A/a_i)^{-1} mod a_i` and its Shoup constant.
    inv_punctured: u64,
    inv_punctured_shoup: u64,
    /// `⌊2^128 / a_i⌋`, high and low word.
    recip_hi: u64,
    recip_lo: u64,
}

/// Constants of one target modulus `b_j` of a [`BaseConverter`].
#[derive(Debug, Clone)]
struct TargetModulus {
    modulus: u64,
    /// `(weight, Shoup constant)` of the rounded overflow count, `−A mod b_j`,
    /// then of each `y_i`, `A/a_i mod b_j`: the row order of the scratch.
    weights: Vec<(u64, u64)>,
}

/// Exact centered base conversion: carries every coefficient of a
/// polynomial from residues modulo the source basis `A = a_1 ⋯ a_k` to the
/// residues, modulo each target modulus, of its representative in
/// `(−A/2, A/2)` — what [`RnsBasis::compose_centered`] followed by
/// [`RnsBasis::decompose_signed`] computes, without leaving 64-bit words.
///
/// With `y_i = x_i·(A/a_i)^{-1} mod a_i`, the representative in `[0, A)` is
/// `Σ y_i·(A/a_i) − ⌊Σ y_i/a_i⌋·A`, and the centered one subtracts
/// `⌊Σ y_i/a_i + 1/2⌋·A` instead (`A` is odd, so there is no tie). The
/// rounded sum comes from a fixed-point accumulation with 64 fraction bits
/// that under-estimates each term by less than `2^-63`; a coefficient whose
/// sum lands within `k·2^-63` below a rounding boundary — its value within
/// that fraction of `±A/2` — is the only kind the estimate can get wrong,
/// and those are recomputed with the exact limb composition
/// ([`RnsBasis::compose_centered_into`]). The result is therefore exact on
/// every coefficient.
///
/// Target moduli need not be prime, only below `2^62` (the sums are kept
/// in `[0, 2b)` between corrections); NTT primes are below `2^61`.
#[derive(Debug, Clone)]
pub struct BaseConverter {
    from: Arc<RnsBasis>,
    source: Vec<SourcePrime>,
    target: Vec<TargetModulus>,
}

impl BaseConverter {
    /// Precomputes the `O(k·k′)` constants for converting from `from` to the
    /// moduli `to`.
    pub fn new(from: Arc<RnsBasis>, to: &[u64]) -> Self {
        let source = from
            .primes
            .iter()
            .zip(&from.inv_punctured)
            .map(|(&prime, &inv_punctured)| {
                let recip = u128::MAX / u128::from(prime);
                SourcePrime {
                    prime,
                    inv_punctured,
                    inv_punctured_shoup: shoup_precompute(inv_punctured, prime),
                    recip_hi: (recip >> 64) as u64,
                    recip_lo: recip as u64,
                }
            })
            .collect();
        let target = to
            .iter()
            .map(|&modulus| {
                debug_assert!(modulus < 1 << 62, "target modulus too wide");
                let neg_source = (modulus - from.modulus.rem_u64(modulus)) % modulus;
                let punctured = from.punctured.iter().map(|p| p.rem_u64(modulus));
                let weights = std::iter::once(neg_source)
                    .chain(punctured)
                    .map(|w| (w, shoup_precompute(w, modulus)))
                    .collect();
                TargetModulus { modulus, weights }
            })
            .collect();
        BaseConverter {
            from,
            source,
            target,
        }
    }

    /// Number of source primes (rows [`Self::convert_centered`] reads).
    pub fn source_len(&self) -> usize {
        self.source.len()
    }

    /// Number of target moduli (rows [`Self::convert_centered`] writes).
    pub fn target_len(&self) -> usize {
        self.target.len()
    }

    /// Converts the polynomial whose row `i` holds residues modulo source
    /// prime `i` into `dst`, whose row `j` receives the centered value of
    /// each coefficient modulo target modulus `j`. Rows are processed whole,
    /// one (source, target) pair at a time; scratch comes from [`PolyPool`].
    ///
    /// Returns how many coefficients sat in the ambiguity band and were
    /// recomputed by exact composition (about `k·2^-62` of uniformly random
    /// ones).
    pub fn convert_centered(&self, src: &[Vec<u64>], dst: &mut [Vec<u64>]) -> usize {
        debug_assert_eq!(src.len(), self.source.len(), "source row count");
        debug_assert_eq!(dst.len(), self.target.len(), "target row count");
        let n = src.first().map_or(0, Vec::len);
        debug_assert!(src.iter().chain(dst.iter()).all(|row| row.len() == n));
        if n == 0 {
            return 0;
        }
        // One row for the rounded overflow count, then the y_i rows.
        let mut scratch = PolyPool::take_scratch((1 + self.source.len()) * n);
        let mut sums = PolyPool::take_zeroed_u128(n);
        let (overflow, ys) = scratch.split_at_mut(n);
        for ((y_row, x_row), a) in ys.chunks_exact_mut(n).zip(src).zip(&self.source) {
            for ((y, &x), sum) in y_row.iter_mut().zip(x_row).zip(sums.iter_mut()) {
                *y = mul_mod_shoup(x, a.inv_punctured, a.inv_punctured_shoup, a.prime);
                *sum += u128::from(a.fraction(*y));
            }
        }
        // Each of the k terms is short by less than 2 (in units of 2^-64).
        let band = 2 * self.source.len() as u64;
        let mut ambiguous = 0;
        for (count, &sum) in overflow.iter_mut().zip(sums.iter()) {
            let (rounded, unsure) = round_overflow(sum, band);
            *count = rounded;
            ambiguous += usize::from(unsure);
        }
        for (out, b) in dst.iter_mut().zip(&self.target) {
            // Σ y_i·(A/a_i) − overflow·A, kept in [0, 2b) until the last pass.
            // The corrections are `min`s: on uniform residues a branch would
            // mispredict every other coefficient.
            let twice = 2 * b.modulus;
            out.fill(0);
            for (row, &(w, w_shoup)) in scratch.chunks_exact(n).zip(&b.weights) {
                for (o, &v) in out.iter_mut().zip(row) {
                    let sum = *o + mul_mod_shoup_lazy(v, w, w_shoup, b.modulus);
                    *o = sum.min(sum.wrapping_sub(twice));
                }
            }
            for o in out.iter_mut() {
                *o = (*o).min(o.wrapping_sub(b.modulus));
            }
        }
        if ambiguous > 0 {
            let mut magnitude = vec![0; self.from.compose_width()];
            let unsure = sums.iter().map(|&sum| round_overflow(sum, band).1);
            for (c, _) in unsure.enumerate().filter(|&(_, unsure)| unsure) {
                let residues = src.iter().filter_map(|row| row.get(c)).copied();
                let negative = self.from.compose_centered_into(residues, &mut magnitude);
                for (out, b) in dst.iter_mut().zip(&self.target) {
                    if let Some(o) = out.get_mut(c) {
                        *o = signed_residue(&magnitude, negative, b.modulus);
                    }
                }
            }
        }
        PolyPool::recycle(scratch);
        PolyPool::recycle_u128(sums);
        ambiguous
    }
}

impl SourcePrime {
    /// `y/a_i` as a 64-bit fixed-point fraction, for `y < a_i`: at most the
    /// true `y·2^64/a_i` and less than 2 below it.
    fn fraction(&self, y: u64) -> u64 {
        debug_assert!(y < self.prime);
        y * self.recip_hi + ((u128::from(y) * u128::from(self.recip_lo)) >> 64) as u64
    }
}

/// Rounds a fixed-point sum (64 fraction bits) that under-estimates the
/// true value by less than `band·2^-64` to the nearest integer, and tells
/// whether the true value could round differently.
fn round_overflow(sum: u128, band: u64) -> (u64, bool) {
    let biased = sum + (1u128 << 63);
    ((biased >> 64) as u64, biased as u64 > u64::MAX - band)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn basis() -> RnsBasis {
        let primes = generate_ntt_primes(40, 64, 3);
        RnsBasis::new(64, &primes).unwrap()
    }

    #[test]
    fn compose_decompose_roundtrip() {
        let b = basis();
        let v = UBig::from_limbs(&[0xDEAD_BEEF_1234, 0x42]);
        assert!(v < *b.modulus());
        let residues = b.decompose(&v);
        assert_eq!(b.compose(&residues), v);
    }

    #[test]
    fn compose_of_small_value_is_identity() {
        let b = basis();
        let residues = b.decompose(&UBig::from_u64(12345));
        assert_eq!(b.compose(&residues).to_u64(), 12345);
    }

    #[test]
    fn compose_respects_crt_for_random_residues() {
        let b = basis();
        let residues: Vec<u64> = b.primes().iter().map(|&q| q / 3 + 1).collect();
        let v = b.compose(&residues);
        for (i, &q) in b.primes().iter().enumerate() {
            assert_eq!(v.rem_u64(q), residues[i]);
        }
    }

    #[test]
    fn centered_composition_negates_large_values() {
        let b = basis();
        // -5 mod q
        let neg5 = b.modulus().sub(&UBig::from_u64(5));
        let residues = b.decompose(&neg5);
        let (mag, neg) = b.compose_centered(&residues);
        assert!(neg);
        assert_eq!(mag.to_u64(), 5);
        // +5 stays positive
        let (mag, neg) = b.compose_centered(&b.decompose(&UBig::from_u64(5)));
        assert!(!neg);
        assert_eq!(mag.to_u64(), 5);
    }

    #[test]
    fn limb_composition_matches_the_oracle_at_the_centering_edges() {
        let b = basis();
        let modulus = b.modulus().clone();
        let half = modulus.shr(1);
        let mut limbs = vec![0; b.compose_width()];
        for v in [
            UBig::zero(),
            UBig::one(),
            half.clone(),
            half.add_u64(1),
            modulus.sub(&UBig::one()),
        ] {
            let residues = b.decompose(&v);
            let (mag, neg) = b.compose_centered(&residues);
            assert_eq!(b.compose_centered_into(residues, &mut limbs), neg);
            assert_eq!(UBig::from_limbs(&limbs), mag, "value {v}");
        }
    }

    #[test]
    fn decompose_signed_roundtrips_negatives() {
        let b = basis();
        let residues = b.decompose_signed(&UBig::from_u64(77), true);
        let (mag, neg) = b.compose_centered(&residues);
        assert!(neg);
        assert_eq!(mag.to_u64(), 77);
    }

    #[test]
    fn fixed_point_fraction_is_short_by_less_than_two() {
        let conv = BaseConverter::new(Arc::new(basis()), &[97]);
        for a in &conv.source {
            for y in [0, 1, a.prime / 3, a.prime / 2, a.prime - 2, a.prime - 1] {
                let exact = (u128::from(y) << 64) / u128::from(a.prime);
                let got = u128::from(a.fraction(y));
                assert!(
                    got <= exact && exact - got < 2,
                    "y = {y}, prime {}",
                    a.prime
                );
            }
        }
    }

    #[test]
    fn overflow_rounding_flags_only_the_band_below_a_boundary() {
        let band = 6;
        let just_below = (3u128 << 64) + (1 << 63) - 1;
        assert_eq!(round_overflow(just_below, band), (3, true));
        assert_eq!(round_overflow(just_below - 5, band), (3, true));
        assert_eq!(round_overflow(just_below - 6, band), (3, false));
        assert_eq!(round_overflow(just_below + 1, band), (4, false));
        assert_eq!(round_overflow(0, band), (0, false));
    }

    #[test]
    fn prefix_shares_leading_primes() {
        let b = basis();
        let p = b.prefix(2);
        assert_eq!(p.primes(), &b.primes()[..2]);
        assert_eq!(p.degree(), b.degree());
    }

    #[test]
    fn concat_keeps_both_sides_tables_and_refuses_a_shared_prime() {
        let b = basis();
        let aux = RnsBasis::new(64, &generate_ntt_primes(50, 64, 2)).unwrap();
        let joined = b.concat(&aux).unwrap();
        assert_eq!(joined.primes()[..3], *b.primes());
        assert_eq!(joined.primes()[3..], *aux.primes());
        assert_eq!(*joined.modulus(), b.modulus().mul(aux.modulus()));
        let psis = |basis: &RnsBasis| -> Vec<u64> {
            basis.ntt_tables().iter().map(NttTable::psi).collect()
        };
        assert_eq!(psis(&joined), [psis(&b), psis(&aux)].concat());
        assert_eq!(b.concat(&b.prefix(1)).unwrap_err(), RnsError::InvalidPrimes);
        let other_degree = RnsBasis::new(128, &generate_ntt_primes(50, 128, 1)).unwrap();
        assert_eq!(
            b.concat(&other_degree).unwrap_err(),
            RnsError::InvalidPrimes
        );
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        let q = generate_ntt_primes(40, 64, 1)[0];
        assert_eq!(
            RnsBasis::new(64, &[q, q]).unwrap_err(),
            RnsError::InvalidPrimes
        );
        assert_eq!(RnsBasis::new(64, &[]).unwrap_err(), RnsError::InvalidPrimes);
    }

    #[test]
    fn rejects_non_ntt_prime() {
        // 97 is prime but 97 ≢ 1 mod 128.
        assert!(matches!(
            RnsBasis::new(64, &[97]).unwrap_err(),
            RnsError::Ntt(_)
        ));
    }

    #[test]
    fn modulus_is_product() {
        let b = basis();
        let mut expect = UBig::one();
        for &q in b.primes() {
            expect = expect.mul_u64(q);
        }
        assert_eq!(*b.modulus(), expect);
        let bits: f64 = b.primes().iter().map(|&q| (q as f64).log2()).sum();
        assert!((b.modulus_bits() - bits).abs() < 1e-6);
    }
}
