//! HE parameter sets (Table 2 / Table 3 of the paper).
//!
//! A parameter set fixes the ring degree `N`, the RNS coefficient-modulus
//! chain, and (for BFV) the plaintext modulus `t`. The **last** prime in the
//! chain is the *special prime* used exclusively for key switching (SEAL's
//! convention); fresh ciphertexts carry `k − 1` data residues, which is why
//! the paper's `{58,58,59}` set at `N = 8192` produces 256 KiB ciphertexts
//! (`2 polys × 8192 coeffs × 2 residues × 8 bytes`).

use crate::error::HeError;
use choco_math::prime::generate_ntt_primes;

/// Which HE scheme a parameter set targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeType {
    /// Brakerski/Fan-Vercauteren: exact integers modulo `t`.
    Bfv,
    /// Cheon-Kim-Kim-Song: approximate fixed point.
    Ckks,
}

impl std::fmt::Display for SchemeType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeType::Bfv => write!(f, "BFV"),
            SchemeType::Ckks => write!(f, "CKKS"),
        }
    }
}

/// Bytes per stored ciphertext coefficient (the paper's word size `w`).
pub const WORD_BYTES: usize = 8;

/// Maximum total coefficient-modulus bits for 128-bit security with ternary
/// secrets, per the HomomorphicEncryption.org standard (the table SEAL
/// enforces).
///
/// Returns `None` when the degree is below the standardized range.
pub fn max_coeff_bits_128(n: usize) -> Option<u32> {
    match n {
        1024 => Some(27),
        2048 => Some(54),
        4096 => Some(109),
        8192 => Some(218),
        16384 => Some(438),
        32768 => Some(881),
        _ => None,
    }
}

/// A validated HE parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeParams {
    scheme: SchemeType,
    n: usize,
    prime_bits: Vec<u32>,
    primes: Vec<u64>,
    plain_modulus: u64,
    scale_bits: u32,
    security_checked: bool,
}

impl HeParams {
    /// Builds a BFV parameter set: ring degree `n`, one coefficient prime per
    /// entry of `coeff_bits` (the last is the key-switching prime), and a
    /// batching-friendly plaintext modulus of `plain_bits` bits.
    ///
    /// # Errors
    ///
    /// Fails when the shape is invalid or the set misses 128-bit security.
    pub fn bfv(n: usize, coeff_bits: &[u32], plain_bits: u32) -> Result<Self, HeError> {
        Self::build(SchemeType::Bfv, n, coeff_bits, plain_bits, 0, true)
    }

    /// Like [`HeParams::bfv`] but skips the security check. Intended for unit
    /// tests and microbenchmarks at small degrees; never use for real data.
    pub fn bfv_insecure(n: usize, coeff_bits: &[u32], plain_bits: u32) -> Result<Self, HeError> {
        Self::build(SchemeType::Bfv, n, coeff_bits, plain_bits, 0, false)
    }

    /// Builds a CKKS parameter set with the given rescaling prime chain and
    /// default encoder scale `2^scale_bits`.
    ///
    /// # Errors
    ///
    /// Fails when the shape is invalid or the set misses 128-bit security.
    pub fn ckks(n: usize, coeff_bits: &[u32], scale_bits: u32) -> Result<Self, HeError> {
        Self::build(SchemeType::Ckks, n, coeff_bits, 0, scale_bits, true)
    }

    /// Like [`HeParams::ckks`] but skips the security check (tests only).
    pub fn ckks_insecure(n: usize, coeff_bits: &[u32], scale_bits: u32) -> Result<Self, HeError> {
        Self::build(SchemeType::Ckks, n, coeff_bits, 0, scale_bits, false)
    }

    fn build(
        scheme: SchemeType,
        n: usize,
        coeff_bits: &[u32],
        plain_bits: u32,
        scale_bits: u32,
        check_security: bool,
    ) -> Result<Self, HeError> {
        if !n.is_power_of_two() || n < 16 {
            return Err(HeError::InvalidParameters(format!(
                "ring degree {n} must be a power of two >= 16"
            )));
        }
        if coeff_bits.is_empty() {
            return Err(HeError::InvalidParameters(
                "coefficient modulus chain is empty".into(),
            ));
        }
        if coeff_bits.iter().any(|&b| !(20..=61).contains(&b)) {
            return Err(HeError::InvalidParameters(
                "coefficient prime sizes must be 20..=61 bits".into(),
            ));
        }
        let total_bits: u32 = coeff_bits.iter().sum();
        if check_security {
            let max = max_coeff_bits_128(n).ok_or_else(|| {
                HeError::InvalidParameters(format!("degree {n} below the standardized range"))
            })?;
            if total_bits > max {
                return Err(HeError::InsecureParameters {
                    n,
                    total_bits,
                    max_bits: max,
                });
            }
        }
        // Generate one prime per requested size; same-size requests take
        // successive primes scanning downward, so all primes are distinct.
        let mut primes = Vec::with_capacity(coeff_bits.len());
        let mut by_size: std::collections::HashMap<u32, Vec<u64>> =
            std::collections::HashMap::new();
        for &bits in coeff_bits {
            let pool = by_size.entry(bits).or_default();
            let needed = coeff_bits.iter().filter(|&&b| b == bits).count();
            if pool.is_empty() {
                *pool = generate_ntt_primes(bits, n, needed);
            }
            primes.push(pool.remove(0));
        }
        let plain_modulus = match scheme {
            SchemeType::Bfv => {
                if !(13..=40).contains(&plain_bits) {
                    return Err(HeError::InvalidParameters(
                        "plain modulus must be 13..=40 bits".into(),
                    ));
                }
                choco_math::prime::try_generate_plain_modulus(plain_bits, n).ok_or_else(|| {
                    HeError::InvalidParameters(format!(
                        "no {plain_bits}-bit batching plain modulus exists for degree {n}"
                    ))
                })?
            }
            SchemeType::Ckks => 0,
        };
        if scheme == SchemeType::Ckks && !(20..=50).contains(&scale_bits) {
            return Err(HeError::InvalidParameters(
                "ckks scale must be 20..=50 bits".into(),
            ));
        }
        Ok(HeParams {
            scheme,
            n,
            prime_bits: coeff_bits.to_vec(),
            primes,
            plain_modulus,
            scale_bits,
            security_checked: check_security,
        })
    }

    /// Rebuilds a parameter set from its recorded recipe — the form session
    /// checkpoints and the remote-evaluation setup message carry instead of
    /// the primes themselves — and cross-checks the values construction
    /// derives (plain modulus under BFV, scale bits under CKKS, degree)
    /// against the recorded ones. Construction is deterministic, so a
    /// faithful recipe reproduces the original set exactly.
    ///
    /// # Errors
    ///
    /// Fails like the constructors on an invalid shape, and with
    /// [`HeError::InvalidParameters`] when the rebuilt set disagrees with
    /// the recorded values.
    pub fn from_recipe(
        scheme: SchemeType,
        security_checked: bool,
        n: usize,
        prime_bits: &[u32],
        plain_modulus: u64,
        scale_bits: u32,
    ) -> Result<Self, HeError> {
        let params = match scheme {
            SchemeType::Bfv => {
                let plain_bits = 64 - plain_modulus.leading_zeros();
                Self::build(scheme, n, prime_bits, plain_bits, 0, security_checked)
            }
            SchemeType::Ckks => Self::build(scheme, n, prime_bits, 0, scale_bits, security_checked),
        }?;
        let consistent = match scheme {
            SchemeType::Bfv => params.plain_modulus == plain_modulus,
            SchemeType::Ckks => params.scale_bits == scale_bits,
        };
        if !consistent || params.n != n {
            return Err(HeError::InvalidParameters(
                "rebuilt parameters disagree with the recorded recipe".into(),
            ));
        }
        Ok(params)
    }

    /// Paper Table 3, set **A**: BFV, `N = 8192`, `{58,58,59}`, 23-bit `t`.
    pub fn set_a() -> Self {
        Self::bfv(8192, &[58, 58, 59], 23).expect("paper set A is valid")
    }

    /// Paper Table 3, set **B**: BFV, `N = 4096`, `{36,36,37}`, 18-bit `t`.
    pub fn set_b() -> Self {
        Self::bfv(4096, &[36, 36, 37], 18).expect("paper set B is valid")
    }

    /// Paper Table 3, set **C**: CKKS, `N = 8192`, `{60,60,60}`, scale 2^40.
    pub fn set_c() -> Self {
        Self::ckks(8192, &[60, 60, 60], 40).expect("paper set C is valid")
    }

    /// Scheme this set targets.
    pub fn scheme(&self) -> SchemeType {
        self.scheme
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// All coefficient primes, key-switching prime last.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Bit sizes of the coefficient primes.
    pub fn prime_bits(&self) -> &[u32] {
        &self.prime_bits
    }

    /// Number of primes `k` (including the key-switching prime).
    pub fn prime_count(&self) -> usize {
        self.primes.len()
    }

    /// Number of data primes carried by a fresh ciphertext (`k − 1`, or 1
    /// when the chain has a single prime and key switching is unavailable).
    pub fn data_prime_count(&self) -> usize {
        self.primes.len().max(2) - 1
    }

    /// BFV plaintext modulus `t` (0 for CKKS).
    pub fn plain_modulus(&self) -> u64 {
        self.plain_modulus
    }

    /// Default CKKS encoder scale.
    pub fn scale(&self) -> f64 {
        (2f64).powi(self.scale_bits as i32)
    }

    /// CKKS scale exponent in bits (0 for BFV parameter sets). Together with
    /// [`HeParams::prime_bits`] and the plain modulus this is enough to
    /// rebuild the parameter set from a checkpoint.
    pub fn scale_bits(&self) -> u32 {
        self.scale_bits
    }

    /// Total bits of the full coefficient modulus (including the special
    /// prime) — the quantity the security standard bounds.
    pub fn total_coeff_bits(&self) -> u32 {
        self.prime_bits.iter().sum()
    }

    /// Whether this set passed the 128-bit security validation.
    pub fn is_security_checked(&self) -> bool {
        self.security_checked
    }

    /// Serialized size in bytes of a fresh (2-component) ciphertext:
    /// `2 · N · (k−1) · w`. Matches the paper's Table 3 "Size" column.
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.n * self.data_prime_count() * WORD_BYTES
    }

    /// Number of SIMD slots (`N` for BFV batching, `N/2` for CKKS).
    pub fn slot_count(&self) -> usize {
        match self.scheme {
            SchemeType::Bfv => self.n,
            SchemeType::Ckks => self.n / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_math::prime::is_prime;

    #[test]
    fn table3_set_a_matches_paper() {
        let p = HeParams::set_a();
        assert_eq!(p.degree(), 8192);
        assert_eq!(p.prime_count(), 3);
        assert_eq!(p.data_prime_count(), 2);
        assert_eq!(p.ciphertext_bytes(), 262_144);
        assert_eq!(64 - p.plain_modulus().leading_zeros(), 23);
    }

    #[test]
    fn recipe_rebuilds_every_constructor_and_rejects_disagreement() {
        let sets = [
            HeParams::set_a(),
            HeParams::set_c(),
            HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap(),
            HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap(),
        ];
        for p in &sets {
            let rebuild = |plain_modulus, scale_bits| {
                HeParams::from_recipe(
                    p.scheme(),
                    p.is_security_checked(),
                    p.degree(),
                    p.prime_bits(),
                    plain_modulus,
                    scale_bits,
                )
            };
            assert_eq!(&rebuild(p.plain_modulus(), p.scale_bits()).unwrap(), p);
            // A recorded value the deterministic rebuild does not reproduce.
            let wrong = match p.scheme() {
                SchemeType::Bfv => rebuild(p.plain_modulus() + 2, 0),
                SchemeType::Ckks => rebuild(0, p.scale_bits() + 100),
            };
            assert!(matches!(wrong, Err(HeError::InvalidParameters(_))));
        }
    }

    #[test]
    fn table3_set_b_matches_paper() {
        let p = HeParams::set_b();
        assert_eq!(p.degree(), 4096);
        assert_eq!(p.ciphertext_bytes(), 131_072);
        assert_eq!(p.total_coeff_bits(), 109);
    }

    #[test]
    fn table3_set_c_matches_paper() {
        let p = HeParams::set_c();
        assert_eq!(p.scheme(), SchemeType::Ckks);
        assert_eq!(p.ciphertext_bytes(), 262_144);
        assert_eq!(p.slot_count(), 4096);
    }

    #[test]
    fn primes_are_distinct_ntt_friendly() {
        let p = HeParams::bfv(8192, &[58, 58, 59], 20).unwrap();
        let primes = p.primes();
        assert_eq!(primes.len(), 3);
        let mut sorted = primes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "primes must be distinct");
        for &q in primes {
            assert!(is_prime(q));
            assert_eq!(q % (2 * 8192), 1);
        }
    }

    #[test]
    fn security_gate_rejects_oversized_modulus() {
        let err = HeParams::bfv(4096, &[40, 40, 40], 20).unwrap_err();
        assert!(matches!(err, HeError::InsecureParameters { .. }));
        // Same shape allowed when explicitly insecure.
        assert!(HeParams::bfv_insecure(4096, &[40, 40, 40], 20).is_ok());
    }

    #[test]
    fn rejects_malformed_shapes() {
        assert!(HeParams::bfv(100, &[30], 17).is_err()); // non power of two
        assert!(HeParams::bfv(4096, &[], 17).is_err()); // empty chain
        assert!(HeParams::bfv(4096, &[10], 17).is_err()); // prime too small
        assert!(HeParams::bfv(4096, &[36, 36], 5).is_err()); // t too small
        assert!(HeParams::ckks(8192, &[60, 60], 60).is_err()); // scale too big
    }

    #[test]
    fn plain_modulus_supports_batching() {
        let p = HeParams::bfv(4096, &[36, 36, 37], 18).unwrap();
        assert_eq!(p.plain_modulus() % (2 * 4096), 1);
    }

    #[test]
    fn single_prime_set_has_one_data_prime() {
        let p = HeParams::bfv_insecure(2048, &[54], 17).unwrap();
        assert_eq!(p.prime_count(), 1);
        assert_eq!(p.data_prime_count(), 1);
    }

    #[test]
    fn security_table_is_monotone() {
        let degrees = [1024usize, 2048, 4096, 8192, 16384, 32768];
        let mut last = 0;
        for d in degrees {
            let m = max_coeff_bits_128(d).unwrap();
            assert!(m > last);
            last = m;
        }
        assert!(max_coeff_bits_128(512).is_none());
    }
}
