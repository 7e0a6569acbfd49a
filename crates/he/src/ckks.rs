//! The Cheon-Kim-Kim-Song (CKKS) scheme in RNS form.
//!
//! CKKS encodes a vector of `N/2` real (or complex) numbers into the
//! canonical embedding of `Z[x]/(x^N + 1)` at a fixed-point scale `Δ`, and
//! supports approximate addition, multiplication with rescaling, and slot
//! rotations. The paper uses CKKS (via the EVA compiler in the original
//! artifact) for PageRank, KNN, and K-Means; here the encoder and scheme are
//! implemented directly.
//!
//! Slot `j` of the encoder corresponds to the primitive root `ζ^{5^j}`, so
//! the Galois automorphism `x → x^{5^r}` rotates slots left by `r` — the
//! same generator convention as HEAAN/SEAL.

use crate::error::HeError;
use crate::keyswitch::galois_element_ckks;
use crate::params::{HeParams, SchemeType};
use crate::rlwe::{
    self, DotOperand, GaloisKeys, KeyBundle, MaskSeed, PublicKey, RelinKey, SecretKey,
};
use crate::rnspoly::RnsPoly;
use crate::serialize;
use choco_math::bigint::limbs_to_f64;
use choco_math::fft::{fft_forward, fft_inverse, Complex};
use choco_math::modops::Barrett;
use choco_math::rns::RnsBasis;
use choco_prng::Blake3Rng;
use std::borrow::Borrow;
use std::sync::Arc;

/// A CKKS plaintext: an integer polynomial at some level and scale.
#[derive(Debug, Clone)]
pub struct CkksPlaintext {
    poly: RnsPoly,
    level: usize,
    scale: f64,
}

impl CkksPlaintext {
    /// Level (number of active data primes).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Fixed-point scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A CKKS ciphertext at some level and scale.
#[derive(Debug, Clone)]
pub struct CkksCiphertext {
    parts: Vec<RnsPoly>,
    /// The active data primes, one per residue row of every part: their
    /// count is the level. The wire carries them.
    moduli: Arc<[u64]>,
    scale: f64,
    /// Set only by [`CkksContext::encrypt_symmetric`]: the seed `parts[1]`
    /// expands from, which the wire sends in its place.
    seed: Option<MaskSeed>,
}

impl CkksCiphertext {
    /// Reassembles a ciphertext from raw parts whose residue rows are modulo
    /// `moduli`, in order — the level is their count (wire
    /// deserialization).
    pub fn from_parts(parts: Vec<RnsPoly>, moduli: &[u64], scale: f64) -> Self {
        assert!(!parts.is_empty(), "ciphertext needs at least one part");
        CkksCiphertext {
            parts,
            moduli: moduli.into(),
            scale,
            seed: None,
        }
    }

    /// A fresh symmetric encryption `(c0, a)` over `moduli` whose mask `a`
    /// expands from `seed` (compact-frame deserialization).
    // choco-lint: ct-safe
    pub(crate) fn seeded(parts: Vec<RnsPoly>, moduli: &[u64], scale: f64, seed: MaskSeed) -> Self {
        CkksCiphertext {
            parts,
            moduli: moduli.into(),
            scale,
            seed: Some(seed),
        }
    }

    /// An evaluator output at this ciphertext's level: `parts` over the
    /// same moduli at `scale`, with no seed.
    fn evaluated(&self, parts: Vec<RnsPoly>, scale: f64) -> Self {
        CkksCiphertext {
            parts,
            moduli: self.moduli.clone(),
            scale,
            seed: None,
        }
    }

    /// The seed standing for `c1` on the wire: set on a fresh symmetric
    /// encryption, never on an evaluator output.
    pub fn seed(&self) -> Option<&MaskSeed> {
        self.seed.as_ref()
    }

    /// The active data primes, one per residue row of every part.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of polynomial components.
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// The `i`-th polynomial component.
    pub fn part(&self, i: usize) -> &RnsPoly {
        &self.parts[i]
    }

    /// Level (number of active data primes).
    pub fn level(&self) -> usize {
        self.moduli.len()
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.parts.first().map_or(0, RnsPoly::degree)
    }

    /// Fixed-point scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Serialized payload size in bytes at the current level — everything
    /// of its frame past the header ([`serialize::payload_bytes`]): the
    /// moduli, then every part (or, seeded, the seed and `c0`), each
    /// residue at its prime's width.
    pub fn byte_size(&self) -> usize {
        serialize::payload_bytes(
            self.degree(),
            &self.moduli,
            self.size(),
            self.seed.is_some(),
        )
    }
}

/// Precomputed context for a CKKS parameter set.
#[derive(Debug, Clone)]
pub struct CkksContext {
    params: HeParams,
    full: Arc<RnsBasis>,
    /// `level_bases[l-1]` = prefix of `l` data primes.
    level_bases: Vec<Arc<RnsBasis>>,
    /// `ks_bases[l-1]` = `l` data primes + special prime.
    ks_bases: Vec<Arc<RnsBasis>>,
    /// slot j ↔ FFT bin holding root exponent 5^j; and the conjugate bin.
    slot_bins: Vec<(usize, usize)>,
    /// ζ^i pre-twiddles for the embedding FFT.
    zeta_pows: Vec<Complex>,
    default_scale: f64,
}

impl CkksContext {
    /// Builds the context for a CKKS parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidParameters`] for non-CKKS sets or unusable
    /// primes, and [`HeError::NoSpecialPrime`] for single-prime chains.
    pub fn new(params: &HeParams) -> Result<Self, HeError> {
        if params.scheme() != SchemeType::Ckks {
            return Err(HeError::InvalidParameters(
                "CkksContext requires a CKKS parameter set".into(),
            ));
        }
        if params.prime_count() < 2 {
            return Err(HeError::NoSpecialPrime);
        }
        let n = params.degree();
        let primes = params.primes();
        let full = Arc::new(RnsBasis::new(n, primes)?);
        let data_count = primes.len() - 1;
        let mut level_bases = Vec::with_capacity(data_count);
        let mut ks_bases = Vec::with_capacity(data_count);
        for l in 1..=data_count {
            level_bases.push(Arc::new(full.prefix(l)));
            let mut ks_primes: Vec<u64> = primes[..l].to_vec();
            ks_primes.push(primes[data_count]);
            ks_bases.push(Arc::new(RnsBasis::new(n, &ks_primes)?));
        }
        // Slot map: slot j ↔ exponent 5^j mod 2N; FFT bin of exponent e is
        // ((1 − e)/2) mod N (see encode()); conjugate exponent is 2N − e.
        let m = 2 * n as u64;
        let half = n / 2;
        let mut slot_bins = Vec::with_capacity(half);
        let mut e = 1u64;
        let bin_of = |e: u64| -> usize {
            let k = (1i64 - e as i64).rem_euclid(m as i64) as u64 / 2;
            (k as usize) % n
        };
        for _ in 0..half {
            slot_bins.push((bin_of(e), bin_of(m - e)));
            e = e * 5 % m;
        }
        let zeta_pows: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(std::f64::consts::PI * i as f64 / n as f64))
            .collect();
        Ok(CkksContext {
            params: params.clone(),
            full,
            level_bases,
            ks_bases,
            slot_bins,
            zeta_pows,
            default_scale: params.scale(),
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    /// Number of SIMD slots (`N/2`).
    pub fn slot_count(&self) -> usize {
        self.degree() / 2
    }

    /// Top level (number of data primes).
    pub fn top_level(&self) -> usize {
        self.level_bases.len()
    }

    /// Default encoder scale.
    pub fn default_scale(&self) -> f64 {
        self.default_scale
    }

    fn level_basis(&self, level: usize) -> &RnsBasis {
        &self.level_bases[level - 1]
    }

    /// The `(ks_basis, basis)` pair of `level`, or a typed error for a level
    /// outside the chain (ciphertext levels parse off the wire).
    fn bases_at(&self, level: usize) -> Result<(&RnsBasis, &RnsBasis), HeError> {
        let at = level.wrapping_sub(1);
        match (self.ks_bases.get(at), self.level_bases.get(at)) {
            (Some(ks_basis), Some(basis)) => Ok((ks_basis, basis)),
            _ => Err(HeError::Mismatch(format!("no level {level} in the chain"))),
        }
    }

    /// Encodes real values into a plaintext at the top level and default
    /// scale.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::TooManyValues`] when more than `N/2` values are
    /// given.
    pub fn encode(&self, values: &[f64]) -> Result<CkksPlaintext, HeError> {
        self.encode_at(values, self.top_level(), self.default_scale)
    }

    /// Encodes at an explicit level and scale.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::TooManyValues`] when more than `N/2` values are
    /// given.
    pub fn encode_at(
        &self,
        values: &[f64],
        level: usize,
        scale: f64,
    ) -> Result<CkksPlaintext, HeError> {
        Ok(CkksPlaintext {
            poly: RnsPoly::from_signed(&self.embed(values, scale)?, self.level_basis(level)),
            level,
            scale,
        })
    }

    /// Encodes values as a fused-dot factor for a ciphertext at `level`:
    /// the same integer polynomial [`CkksContext::encode_at`] produces at the
    /// default scale, reduced into the level's *key-switch* basis (data
    /// primes and the special prime) and taken to the evaluation domain.
    /// Feed the result to [`CkksContext::dot_rotations_many`].
    ///
    /// # Errors
    ///
    /// Returns [`HeError::TooManyValues`] when more than `N/2` values are
    /// given and [`HeError::Mismatch`] for a level outside the chain.
    pub fn dot_operand(&self, values: &[f64], level: usize) -> Result<DotOperand, HeError> {
        let (ks_basis, _) = self.bases_at(level)?;
        let coeffs = self.embed(values, self.default_scale)?;
        Ok(DotOperand::encode(ks_basis, |q, row| {
            let r = Barrett::new(q);
            for (x, &c) in row.iter_mut().zip(&coeffs) {
                *x = r.reduce_i64(c);
            }
        }))
    }

    /// The canonical embedding: the integer polynomial whose evaluations at
    /// the slot roots are `values · scale`, rounded.
    fn embed(&self, values: &[f64], scale: f64) -> Result<Vec<i64>, HeError> {
        let n = self.degree();
        let half = n / 2;
        if values.len() > half {
            return Err(HeError::TooManyValues {
                got: values.len(),
                capacity: half,
            });
        }
        // Fill the evaluation vector with conjugate symmetry.
        let mut evals = vec![Complex::zero(); n];
        for (j, &v) in values.iter().enumerate() {
            let (bin, conj_bin) = self.slot_bins[j];
            evals[bin] = Complex::new(v, 0.0);
            evals[conj_bin] = Complex::new(v, 0.0).conj();
        }
        // Inverse embedding: a_i = IFFT(evals)_i · ζ^{−i}.
        fft_inverse(&mut evals);
        let mut coeffs = vec![0i64; n];
        for i in 0..n {
            let c = evals[i] * self.zeta_pows[i].conj();
            coeffs[i] = (c.re * scale).round() as i64;
        }
        Ok(coeffs)
    }

    /// Decodes a plaintext back to `N/2` real values: each coefficient's
    /// centered value (limb composition, `RnsPoly::for_each_centered`)
    /// over the scale, then the forward embedding FFT.
    pub fn decode(&self, pt: &CkksPlaintext) -> Vec<f64> {
        let basis = self.level_basis(pt.level);
        let mut evals = Vec::with_capacity(self.degree());
        let mut zetas = self.zeta_pows.iter();
        pt.poly.for_each_centered(basis, |magnitude, negative| {
            let mut v = limbs_to_f64(magnitude) / pt.scale;
            if negative {
                v = -v;
            }
            let zeta = zetas.next().copied().unwrap_or_else(Complex::zero);
            evals.push(Complex::new(v, 0.0) * zeta);
        });
        self.slots_of(evals)
    }

    /// The slot values of the twisted coefficients `evals`: the forward
    /// embedding FFT, read at each slot's bin.
    fn slots_of(&self, mut evals: Vec<Complex>) -> Vec<f64> {
        fft_forward(&mut evals);
        self.slot_bins
            .iter()
            .map(|&(bin, _)| evals[bin].re)
            .collect()
    }

    /// [`Self::decode`] with every coefficient composed into a big integer
    /// ([`RnsPoly::coeff_centered`]): the oracle the limb-composed path is
    /// tested (and benchmarked) against. Not a production path.
    #[doc(hidden)]
    pub fn decode_reference(&self, pt: &CkksPlaintext) -> Vec<f64> {
        let basis = self.level_basis(pt.level);
        let evals: Vec<Complex> = (0..self.degree())
            .zip(&self.zeta_pows)
            .map(|(i, &zeta)| {
                let (mag, neg) = pt.poly.coeff_centered(i, basis);
                let v = mag.to_f64() / pt.scale;
                Complex::new(if neg { -v } else { v }, 0.0) * zeta
            })
            .collect();
        self.slots_of(evals)
    }

    /// Generates a fresh secret key.
    // choco-lint: secret
    pub fn keygen(&self, rng: &mut Blake3Rng) -> KeyBundle {
        rlwe::keygen(&self.full, rng)
    }

    /// Generates the paper's Eq. 2 public key for `sk` over the top level
    /// ([`rlwe::public_key`]), the key [`CkksContext::encrypt`] encrypts
    /// under.
    // choco-lint: secret
    pub fn public_key(&self, sk: &SecretKey, rng: &mut Blake3Rng) -> PublicKey {
        rlwe::public_key(sk, self.level_basis(self.top_level()), rng)
    }

    /// Generates the relinearization key.
    pub fn relin_key(&self, sk: &SecretKey, rng: &mut Blake3Rng) -> RelinKey {
        rlwe::relin_key(sk, &self.full, self.level_basis(self.top_level()), rng)
    }

    /// Generates Galois keys for the given rotation steps.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidParameters`] for a step that is zero or
    /// not below `N/2` in magnitude.
    pub fn galois_keys(
        &self,
        sk: &SecretKey,
        steps: &[i64],
        rng: &mut Blake3Rng,
    ) -> Result<GaloisKeys, HeError> {
        let top = self.level_basis(self.top_level());
        let n = self.degree();
        let elements = steps
            .iter()
            .map(|&s| galois_element_ckks(s, n))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(rlwe::galois_keys(sk, &elements, &self.full, top, rng))
    }

    /// Refuses a plaintext below the top level: encryption starts there.
    fn require_top_level(&self, pt: &CkksPlaintext) -> Result<(), HeError> {
        // choco-lint: allow(SEC001) level is public ciphertext metadata, not payload
        if pt.level != self.top_level() {
            return Err(HeError::Mismatch(
                "encryption requires a top-level plaintext".into(),
            ));
        }
        Ok(())
    }

    /// Encrypts a plaintext (must be at the top level).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] when the plaintext is not at top level.
    // choco-lint: secret
    pub fn encrypt(
        &self,
        pt: &CkksPlaintext,
        pk: &PublicKey,
        rng: &mut Blake3Rng,
    ) -> Result<CkksCiphertext, HeError> {
        self.require_top_level(pt)?;
        let basis = self.level_basis(pt.level);
        Ok(CkksCiphertext {
            parts: rlwe::encrypt(pk, &pt.poly, basis, rng),
            moduli: basis.primes().into(),
            scale: pt.scale,
            seed: None,
        })
    }

    /// Symmetric encryption with a seeded mask — the client's upload form:
    /// `c0 = −(a·s + e) + m`, `c1 = a` expanded from a fresh 32-byte seed
    /// ([`rlwe::encrypt_symmetric`]). The wire carries `c0` and the seed,
    /// half the bytes of a [`CkksContext::encrypt`] ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] for a plaintext below the top level.
    // choco-lint: secret
    pub fn encrypt_symmetric(
        &self,
        pt: &CkksPlaintext,
        sk: &SecretKey,
        rng: &mut Blake3Rng,
    ) -> Result<CkksCiphertext, HeError> {
        self.require_top_level(pt)?;
        let basis = self.level_basis(pt.level);
        let (parts, seed) = rlwe::encrypt_symmetric(sk, &pt.poly, basis, rng);
        Ok(CkksCiphertext::seeded(
            parts,
            basis.primes(),
            pt.scale,
            seed,
        ))
    }

    /// Decrypts to a plaintext at the ciphertext's level/scale.
    // choco-lint: secret
    pub fn decrypt(&self, ct: &CkksCiphertext, sk: &SecretKey) -> CkksPlaintext {
        CkksPlaintext {
            poly: rlwe::dot_with_secret(&ct.parts, sk, self.level_basis(ct.level())),
            level: ct.level(),
            scale: ct.scale,
        }
    }

    fn check_compatible(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<(), HeError> {
        if a.level() != b.level() {
            return Err(HeError::Mismatch(format!(
                "levels {} vs {}",
                a.level(),
                b.level()
            )));
        }
        let ratio = a.scale / b.scale;
        if !(0.99..1.01).contains(&ratio) {
            return Err(HeError::Mismatch(format!(
                "scales {} vs {}",
                a.scale, b.scale
            )));
        }
        Ok(())
    }

    /// Homomorphic addition.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] on level/scale/size mismatch.
    pub fn add(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<CkksCiphertext, HeError> {
        self.check_compatible(a, b)?;
        let parts = rlwe::add_parts(&a.parts, &b.parts, self.level_basis(a.level()))?;
        Ok(a.evaluated(parts, a.scale))
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] on level/scale/size mismatch.
    pub fn sub(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<CkksCiphertext, HeError> {
        self.check_compatible(a, b)?;
        let parts = rlwe::sub_parts(&a.parts, &b.parts, self.level_basis(a.level()))?;
        Ok(a.evaluated(parts, a.scale))
    }

    /// Adds a plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] on level/scale mismatch.
    pub fn add_plain(
        &self,
        a: &CkksCiphertext,
        pt: &CkksPlaintext,
    ) -> Result<CkksCiphertext, HeError> {
        if a.level() != pt.level || (a.scale / pt.scale - 1.0).abs() > 0.01 {
            return Err(HeError::Mismatch("plaintext level/scale mismatch".into()));
        }
        let basis = self.level_basis(a.level());
        let mut parts = a.parts.clone();
        parts[0].add_assign_poly(&pt.poly, basis);
        Ok(a.evaluated(parts, a.scale))
    }

    /// Multiplies by a plaintext (scales multiply; rescale afterwards).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] on level mismatch.
    pub fn multiply_plain(
        &self,
        a: &CkksCiphertext,
        pt: &CkksPlaintext,
    ) -> Result<CkksCiphertext, HeError> {
        if a.level() != pt.level {
            return Err(HeError::Mismatch("plaintext level mismatch".into()));
        }
        let basis = self.level_basis(a.level());
        let parts = a
            .parts
            .iter()
            .map(|p| p.mul_poly(&pt.poly, basis))
            .collect();
        Ok(a.evaluated(parts, a.scale * pt.scale))
    }

    /// Ciphertext multiplication with immediate relinearization.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] on level mismatch or non-2-component
    /// inputs.
    pub fn multiply_relin(
        &self,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
        rk: &RelinKey,
    ) -> Result<CkksCiphertext, HeError> {
        if a.level() != b.level() {
            return Err(HeError::Mismatch("levels differ".into()));
        }
        if a.size() != 2 || b.size() != 2 {
            return Err(HeError::InvalidCiphertext(
                "multiply requires 2-component operands".into(),
            ));
        }
        let level = a.level();
        let basis = self.level_basis(level);
        let d0 = a.parts[0].mul_poly(&b.parts[0], basis);
        let mut d1 = a.parts[0].mul_poly(&b.parts[1], basis);
        d1.add_assign_poly(&a.parts[1].mul_poly(&b.parts[0], basis), basis);
        let d2 = a.parts[1].mul_poly(&b.parts[1], basis);
        let parts = rlwe::relinearize(&[d0, d1, d2], rk, &self.ks_bases[level - 1], basis)?;
        Ok(a.evaluated(parts, a.scale * b.scale))
    }

    /// Rescales: divides by the level's last prime, dropping one level.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] at level 1 (nothing left to drop).
    pub fn rescale(&self, a: &CkksCiphertext) -> Result<CkksCiphertext, HeError> {
        let level = a.level();
        if level <= 1 {
            return Err(HeError::Mismatch("cannot rescale below level 1".into()));
        }
        let cur = self.level_basis(level);
        let next = self.level_basis(level - 1);
        let q_last = cur.primes()[level - 1];
        let parts = a
            .parts
            .iter()
            // (p − [p]_{q_last}) / q_last per remaining residue: mod_down
            // divides by the last prime of `cur`, which is exactly q_last.
            .map(|p| crate::keyswitch::mod_down(p, cur, next))
            .collect();
        Ok(CkksCiphertext {
            parts,
            moduli: next.primes().into(),
            scale: a.scale / q_last as f64,
            seed: None,
        })
    }

    /// Drops a ciphertext to a lower level without rescaling the message
    /// (mod-switch: used to align levels before addition).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] when the target level is not below the
    /// current one.
    pub fn mod_switch_to(
        &self,
        a: &CkksCiphertext,
        level: usize,
    ) -> Result<CkksCiphertext, HeError> {
        if level == 0 || level > a.level() {
            return Err(HeError::Mismatch("invalid mod-switch target".into()));
        }
        let parts = a.parts.iter().map(|p| p.prefix(level)).collect();
        Ok(CkksCiphertext {
            parts,
            moduli: self.level_basis(level).primes().into(),
            scale: a.scale,
            seed: None,
        })
    }

    /// Rotates slots left by `steps`.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidParameters`] for a step that is zero or
    /// not below `N/2` in magnitude, [`HeError::MissingGaloisKey`] when the
    /// key set lacks the rotation, [`HeError::InvalidCiphertext`] for
    /// 3-part inputs.
    pub fn rotate(
        &self,
        a: &CkksCiphertext,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<CkksCiphertext, HeError> {
        let e = galois_element_ckks(steps, self.degree())?;
        let (ks_basis, basis) = (&self.ks_bases[a.level() - 1], self.level_basis(a.level()));
        let parts = rlwe::apply_galois(&a.parts, e, gk, ks_basis, basis)?;
        Ok(a.evaluated(parts, a.scale))
    }

    /// Fused rotate-and-dot, for one output or several over the *same*
    /// rotations of `a`: each term carries one operand per output, and
    /// output `o` is `Σ_k rotate(a, s_k) ⊙ m_{k,o}` (step 0 meaning `a`
    /// itself) over operands from [`CkksContext::dot_operand`] at `a`'s
    /// level. It runs the double-hoisted kernel both schemes share
    /// ([`rlwe::dot_galois`]): one key-switch decomposition for every
    /// rotation, one key-switch rounding per output for the whole sum, and
    /// every rotation's key switch paid once however many outputs weigh it.
    /// Each output is, bit for bit, what the same call with that output's
    /// operands alone returns. Like [`CkksContext::multiply_plain`] it does
    /// not rescale: every output is at `a`'s level with scale
    /// `a.scale · default_scale`.
    ///
    /// # Errors
    ///
    /// As [`CkksContext::rotate`] for any nonzero step; [`HeError::Mismatch`]
    /// for no terms, no outputs, a term whose operand count is not `outputs`
    /// or an operand encoded for another level; and the first error the
    /// iterator yields.
    pub fn dot_rotations_many<O: Borrow<DotOperand>, T: AsRef<[O]>>(
        &self,
        a: &CkksCiphertext,
        outputs: usize,
        terms: impl IntoIterator<Item = Result<(i64, T), HeError>>,
        gk: &GaloisKeys,
    ) -> Result<Vec<CkksCiphertext>, HeError> {
        let terms = rlwe::terms_of_steps(terms, self.degree(), galois_element_ckks);
        let (ks_basis, basis) = self.bases_at(a.level())?;
        let outs = rlwe::dot_galois(&a.parts, outputs, terms, gk, ks_basis, basis)?;
        let scale = a.scale * self.default_scale;
        Ok(outs
            .into_iter()
            .map(|parts| a.evaluated(parts, scale))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CkksContext {
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        CkksContext::new(&params).unwrap()
    }

    fn rng() -> Blake3Rng {
        Blake3Rng::from_seed(b"ckks tests")
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < tol,
                "slot {i}: got {g}, want {w} (tol {tol})"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = ctx();
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (i as f64 * 0.37).sin() * 3.0)
            .collect();
        let pt = ctx.encode(&values).unwrap();
        let out = ctx.decode(&pt);
        assert_close(&out, &values, 1e-6);
    }

    #[test]
    fn decode_is_the_big_integer_decode_bit_for_bit() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let rk = ctx.relin_key(keys.secret_key(), &mut rng);
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (i as f64).cos() * 9.0)
            .collect();
        let ct = ctx
            .encrypt_symmetric(&ctx.encode(&values).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let rescaled = ctx
            .rescale(&ctx.multiply_relin(&ct, &ct, &rk).unwrap())
            .unwrap();
        for ct in [&ct, &rescaled] {
            let pt = ctx.decrypt(ct, keys.secret_key());
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(ctx.decode(&pt)), bits(ctx.decode_reference(&pt)));
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 / 100.0).collect();
        let pt = ctx.encode(&values).unwrap();
        let ct = ctx.encrypt(&pt, &pk, &mut rng).unwrap();
        let out = ctx.decode(&ctx.decrypt(&ct, keys.secret_key()));
        assert_close(&out, &values, 1e-4);
    }

    #[test]
    fn homomorphic_add_sub() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let a: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..8).map(|i| 10.0 - i as f64).collect();
        let ca = ctx
            .encrypt_symmetric(&ctx.encode(&a).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let cb = ctx
            .encrypt_symmetric(&ctx.encode(&b).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let sum = ctx.add(&ca, &cb).unwrap();
        let out = ctx.decode(&ctx.decrypt(&sum, keys.secret_key()));
        assert_close(&out[..8], &[10.0; 8], 1e-3);
        let diff = ctx.sub(&sum, &cb).unwrap();
        let out = ctx.decode(&ctx.decrypt(&diff, keys.secret_key()));
        assert_close(&out[..8], &a, 1e-3);
    }

    #[test]
    fn multiply_and_rescale() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let rk = ctx.relin_key(keys.secret_key(), &mut rng);
        let a: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let b: Vec<f64> = (0..8).map(|i| 0.5 * (i + 1) as f64).collect();
        let ca = ctx
            .encrypt_symmetric(&ctx.encode(&a).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let cb = ctx
            .encrypt_symmetric(&ctx.encode(&b).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let prod = ctx.multiply_relin(&ca, &cb, &rk).unwrap();
        let rescaled = ctx.rescale(&prod).unwrap();
        assert_eq!(rescaled.level(), ctx.top_level() - 1);
        let out = ctx.decode(&ctx.decrypt(&rescaled, keys.secret_key()));
        let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        assert_close(&out[..8], &want, 1e-2);
    }

    #[test]
    fn multiply_plain_then_rescale() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let a = vec![2.0, 3.0, 4.0];
        let w = vec![1.5, -2.0, 0.25];
        let ca = ctx
            .encrypt_symmetric(&ctx.encode(&a).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let pw = ctx.encode(&w).unwrap();
        let prod = ctx.multiply_plain(&ca, &pw).unwrap();
        let rescaled = ctx.rescale(&prod).unwrap();
        let out = ctx.decode(&ctx.decrypt(&rescaled, keys.secret_key()));
        assert_close(&out[..3], &[3.0, -6.0, 1.0], 1e-2);
    }

    #[test]
    fn rotation_shifts_slots_left() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let gk = ctx
            .galois_keys(keys.secret_key(), &[1, 2], &mut rng)
            .unwrap();
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64).collect();
        let ct = ctx
            .encrypt_symmetric(&ctx.encode(&values).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let rot = ctx.rotate(&ct, 1, &gk).unwrap();
        let out = ctx.decode(&ctx.decrypt(&rot, keys.secret_key()));
        let half = ctx.slot_count();
        for i in 0..half {
            let want = values[(i + 1) % half];
            assert!(
                (out[i] - want).abs() < 1e-2,
                "slot {i}: {} vs {want}",
                out[i]
            );
        }
    }

    #[test]
    fn mod_switch_aligns_levels() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let a = vec![1.0, 2.0];
        let ct = ctx
            .encrypt_symmetric(&ctx.encode(&a).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let dropped = ctx.mod_switch_to(&ct, 2).unwrap();
        assert_eq!(dropped.level(), 2);
        let out = ctx.decode(&ctx.decrypt(&dropped, keys.secret_key()));
        assert_close(&out[..2], &a, 1e-3);
    }

    #[test]
    fn level_and_scale_mismatches_error() {
        let ctx = ctx();
        let mut rng = rng();
        let keys = ctx.keygen(&mut rng);
        let ct = ctx
            .encrypt_symmetric(&ctx.encode(&[1.0]).unwrap(), keys.secret_key(), &mut rng)
            .unwrap();
        let low = ctx.mod_switch_to(&ct, 1).unwrap();
        assert!(ctx.add(&ct, &low).is_err());
        assert!(ctx.rescale(&low).is_err());
        assert!(ctx.mod_switch_to(&ct, 10).is_err());
    }

    #[test]
    fn too_many_values_rejected() {
        let ctx = ctx();
        let too_many = vec![0.0; ctx.slot_count() + 1];
        assert!(matches!(
            ctx.encode(&too_many).unwrap_err(),
            HeError::TooManyValues { .. }
        ));
    }
}
