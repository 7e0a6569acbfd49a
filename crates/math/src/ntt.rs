//! Negacyclic Number Theoretic Transform over `Z_q[x]/(x^N + 1)`.
//!
//! The transform follows the classic Longa–Naehrig formulation: a
//! Cooley–Tukey decimation-in-time forward pass and a Gentleman–Sande
//! decimation-in-frequency inverse pass, with powers of the primitive
//! `2N`-th root of unity `ψ` stored in bit-reversed order. With this layout
//! the negacyclic twist is folded into the butterflies, so
//! `INTT(NTT(a) ⊙ NTT(b))` is exactly the product of `a` and `b` in
//! `Z_q[x]/(x^N + 1)`.

use crate::modops::{
    add_mod, inv_mod, mul_mod, mul_mod_shoup, mul_mod_shoup_lazy, reduce_4q, shoup_precompute,
    sub_mod, Barrett,
};
use crate::prime::{is_prime, primitive_nth_root};

/// Upper bound (exclusive) on NTT moduli: `q < 2^61`.
///
/// The lazy-reduction (Harvey) butterflies hold intermediate values in
/// `[0, 4q)`, which must fit a `u64` — that alone needs `q < 2^62`. We
/// enforce the stricter `q < 2^61` so every lazy intermediate also has a
/// spare headroom bit (and `2q` sums stay far from wraparound), matching
/// SEAL's "up to 60/61-bit primes" convention.
pub const MAX_NTT_MODULUS_BITS: u32 = 61;

/// Precomputed tables for a negacyclic NTT of size `n` over prime `q`.
///
/// Construction is `O(n)` after root finding; individual transforms are
/// `O(n log n)`.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    q: u64,
    /// ψ^bitrev(i), ψ a primitive 2n-th root of unity.
    psi_rev: Vec<u64>,
    psi_rev_shoup: Vec<u64>,
    /// ψ^{-bitrev(i)}.
    inv_psi_rev: Vec<u64>,
    inv_psi_rev_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
    psi: u64,
}

/// Errors produced when constructing an [`NttTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NttError {
    /// The transform size was not a power of two (or was < 2).
    InvalidSize(usize),
    /// The modulus is not prime or does not satisfy `q ≡ 1 (mod 2n)`.
    UnsupportedModulus(u64),
}

impl std::fmt::Display for NttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NttError::InvalidSize(n) => write!(f, "ntt size {n} is not a power of two >= 2"),
            NttError::UnsupportedModulus(q) => {
                write!(f, "modulus {q} is not an ntt-friendly prime")
            }
        }
    }
}

impl std::error::Error for NttError {}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds NTT tables for size `n` (a power of two) and prime modulus `q`
    /// with `q ≡ 1 (mod 2n)`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidSize`] or [`NttError::UnsupportedModulus`]
    /// when the preconditions fail.
    pub fn new(n: usize, q: u64) -> Result<Self, NttError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(NttError::InvalidSize(n));
        }
        if q >= 1 << MAX_NTT_MODULUS_BITS {
            return Err(NttError::UnsupportedModulus(q));
        }
        if !is_prime(q) || !(q - 1).is_multiple_of(2 * n as u64) {
            return Err(NttError::UnsupportedModulus(q));
        }
        let log_n = n.trailing_zeros();
        let psi = primitive_nth_root(2 * n as u64, q);
        let psi_inv = inv_mod(psi, q);

        let mut psi_pow = vec![0u64; n];
        let mut inv_psi_pow = vec![0u64; n];
        let (mut p, mut ip) = (1u64, 1u64);
        for i in 0..n {
            psi_pow[i] = p;
            inv_psi_pow[i] = ip;
            p = mul_mod(p, psi, q);
            ip = mul_mod(ip, psi_inv, q);
        }
        let mut psi_rev = vec![0u64; n];
        let mut inv_psi_rev = vec![0u64; n];
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            psi_rev[i] = psi_pow[r];
            inv_psi_rev[i] = inv_psi_pow[r];
        }
        let psi_rev_shoup = psi_rev.iter().map(|&x| shoup_precompute(x, q)).collect();
        let inv_psi_rev_shoup = inv_psi_rev
            .iter()
            .map(|&x| shoup_precompute(x, q))
            .collect();
        let n_inv = inv_mod(n as u64, q);
        Ok(NttTable {
            n,
            q,
            psi_rev,
            psi_rev_shoup,
            inv_psi_rev,
            inv_psi_rev_shoup,
            n_inv,
            n_inv_shoup: shoup_precompute(n_inv, q),
            psi,
        })
    }

    /// The primitive `2n`-th root of unity `ψ` the tables were built from.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Modulus.
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// In-place forward negacyclic NTT.
    ///
    /// Uses lazy (Harvey) reduction: butterflies keep values in `[0, 4q)`
    /// and the final `[0, q)` correction is folded into the last butterfly
    /// stage, so the output is bit-identical to [`Self::forward_strict`].
    /// Dispatches to the vectorized [`crate::simd`] kernel when a backend
    /// is active; the scalar and vector paths are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.size()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "ntt input length mismatch");
        if !crate::simd::ntt_forward_lazy(a, &self.psi_rev, &self.psi_rev_shoup, self.q) {
            self.forward_scalar(a);
        }
    }

    /// The scalar lazy forward transform, bypassing SIMD dispatch. Public
    /// so benches and equivalence tests can time/compare the two paths
    /// explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.size()`.
    pub fn forward_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "ntt input length mismatch");
        let q = self.q;
        // choco-lint: lazy-domain
        let two_q = 2 * q;
        let n = self.n;
        let mut t = n;
        let mut m = 1;
        while 2 * m < n {
            t >>= 1;
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = self.psi_rev[m + i];
                let s_sh = self.psi_rev_shoup[m + i];
                for j in j1..j1 + t {
                    // Harvey butterfly: u in [0, 2q) after the conditional
                    // subtraction, v in [0, 2q) from the lazy Shoup multiply;
                    // both outputs land in [0, 4q).
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = mul_mod_shoup_lazy(a[j + t], s, s_sh, q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
            m <<= 1;
        }
        // Last stage (span 1) with the [0,4q) -> [0,q) correction fused in,
        // saving a full extra sweep over the coefficient array.
        for i in 0..m {
            let j = 2 * i;
            let s = self.psi_rev[m + i];
            let s_sh = self.psi_rev_shoup[m + i];
            let mut u = a[j];
            if u >= two_q {
                u -= two_q;
            }
            let v = mul_mod_shoup_lazy(a[j + 1], s, s_sh, q);
            a[j] = reduce_4q(u + v, q);
            a[j + 1] = reduce_4q(u + two_q - v, q);
        }
        // choco-lint: end-lazy-domain
    }

    /// In-place inverse negacyclic NTT (includes the `1/n` scaling).
    ///
    /// Uses lazy (Harvey) reduction: values stay in `[0, 2q)` between
    /// stages and the final `1/n` scaling multiply fully reduces, so the
    /// output is bit-identical to [`Self::inverse_strict`].
    /// Dispatches to the vectorized [`crate::simd`] kernel when a backend
    /// is active; the scalar and vector paths are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.size()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "intt input length mismatch");
        let vectorized = crate::simd::ntt_inverse_lazy(
            a,
            &self.inv_psi_rev,
            &self.inv_psi_rev_shoup,
            (self.n_inv, self.n_inv_shoup),
            self.q,
        );
        if !vectorized {
            self.inverse_scalar(a);
        }
    }

    /// The scalar lazy inverse transform, bypassing SIMD dispatch: the
    /// twin of [`Self::forward_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.size()`.
    pub fn inverse_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "intt input length mismatch");
        let q = self.q;
        // choco-lint: lazy-domain
        let two_q = 2 * q;
        let n = self.n;
        let mut t = 1;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0;
            for i in 0..h {
                let s = self.inv_psi_rev[h + i];
                let s_sh = self.inv_psi_rev_shoup[h + i];
                for j in j1..j1 + t {
                    // Gentleman–Sande butterfly on values in [0, 2q):
                    // the sum is conditionally reduced back below 2q, the
                    // difference (offset by 2q to stay non-negative) feeds
                    // the lazy multiply which re-enters [0, 2q).
                    let u = a[j];
                    let v = a[j + t];
                    let mut sum = u + v;
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    a[j] = sum;
                    a[j + t] = mul_mod_shoup_lazy(u + two_q - v, s, s_sh, q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            // Full Shoup reduction folds the [0, 2q) slack away.
            *x = mul_mod_shoup(*x, self.n_inv, self.n_inv_shoup, q);
        }
        // choco-lint: end-lazy-domain
    }

    /// Strict-reduction forward NTT: every butterfly fully reduces.
    ///
    /// Kept as the reference implementation the lazy [`Self::forward`] is
    /// property-tested against.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.size()`.
    pub fn forward_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "ntt input length mismatch");
        let q = self.q;
        let n = self.n;
        let mut t = n;
        let mut m = 1;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = self.psi_rev[m + i];
                let s_sh = self.psi_rev_shoup[m + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = mul_mod_shoup(a[j + t], s, s_sh, q);
                    a[j] = add_mod(u, v, q);
                    a[j + t] = sub_mod(u, v, q);
                }
            }
            m <<= 1;
        }
    }

    /// Strict-reduction inverse NTT (includes the `1/n` scaling).
    ///
    /// Reference implementation for [`Self::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.size()`.
    pub fn inverse_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "intt input length mismatch");
        let q = self.q;
        let n = self.n;
        let mut t = 1;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0;
            for i in 0..h {
                let s = self.inv_psi_rev[h + i];
                let s_sh = self.inv_psi_rev_shoup[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = add_mod(u, v, q);
                    a[j + t] = mul_mod_shoup(sub_mod(u, v, q), s, s_sh, q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            *x = mul_mod_shoup(*x, self.n_inv, self.n_inv_shoup, q);
        }
    }

    /// Negacyclic polynomial product `a * b mod (x^N + 1, q)` out of place.
    ///
    /// Scratch comes from [`crate::pool::PolyPool`]; the returned buffer is
    /// an ordinary `Vec` the caller owns.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = crate::pool::PolyPool::take_copy(a);
        let mut fb = crate::pool::PolyPool::take_copy(b);
        self.forward(&mut fa);
        self.forward(&mut fb);
        let r = Barrett::new(self.q);
        for (x, &y) in fa.iter_mut().zip(&fb) {
            *x = r.mul_mod(*x, y);
        }
        crate::pool::PolyPool::recycle(fb);
        self.inverse(&mut fa);
        fa
    }
}

/// Precomputes the index permutation realising the Galois automorphism
/// `x → x^e` directly on NTT-domain (evaluation-form) data.
///
/// With the Longa–Naehrig layout, slot `j` of a forward transform holds the
/// evaluation at `ψ^{2·br(j)+1}` (`br` = bit reversal over `log2 n` bits).
/// The automorphism permutes those evaluation points — there are **no sign
/// flips** in the NTT domain — so `out[j] = in[perm[j]]` with
/// `perm[j] = br((((2·br(j)+1)·e mod 2n) − 1) / 2)`.
///
/// This is what makes rotation hoisting cheap: applying a Galois element to
/// already-transformed key-switch digits is a pure gather.
///
/// # Panics
///
/// Panics if `n` is not a power of two `>= 2` or `e` is even.
// choco-lint: ct-safe
pub fn galois_ntt_permutation(n: usize, e: u64) -> Vec<usize> {
    assert!(n.is_power_of_two() && n >= 2, "invalid ntt size {n}");
    assert!(e & 1 == 1, "galois element must be odd");
    let log_n = n.trailing_zeros();
    let m = 2 * n as u64;
    (0..n)
        .map(|j| {
            let odd_exp = 2 * bit_reverse(j, log_n) as u64 + 1;
            let exp = mul_mod(odd_exp, e, m);
            bit_reverse(((exp - 1) / 2) as usize, log_n)
        })
        .collect()
}

/// Applies a permutation from [`galois_ntt_permutation`] to NTT-domain
/// values: `out[j] = values[perm[j]]`.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
#[inline]
pub fn apply_galois_ntt(values: &[u64], perm: &[usize], out: &mut [u64]) {
    assert_eq!(
        values.len(),
        perm.len(),
        "galois permutation length mismatch"
    );
    assert_eq!(values.len(), out.len(), "galois output length mismatch");
    for (o, &p) in out.iter_mut().zip(perm) {
        *o = values[p];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn table(n: usize) -> NttTable {
        let q = generate_ntt_primes(40, n, 1)[0];
        NttTable::new(n, q).unwrap()
    }

    /// Schoolbook negacyclic multiply for cross-checking.
    fn naive_negacyclic(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let p = mul_mod(a[i], b[j], q);
                let k = i + j;
                if k < n {
                    out[k] = add_mod(out[k], p, q);
                } else {
                    out[k - n] = sub_mod(out[k - n], p, q);
                }
            }
        }
        out
    }

    #[test]
    fn roundtrip_identity() {
        for n in [4usize, 64, 1024] {
            let t = table(n);
            let q = t.modulus();
            let orig: Vec<u64> = (0..n as u64).map(|i| (i * i + 7) % q).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "forward transform must change the data");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn transform_is_linear() {
        let n = 256;
        let t = table(n);
        let q = t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 17 + 3) % q).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| add_mod(x, y, q)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        let expect: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| add_mod(x, y, q))
            .collect();
        assert_eq!(fs, expect);
    }

    #[test]
    fn convolution_theorem_matches_schoolbook() {
        for n in [8usize, 32, 128] {
            let t = table(n);
            let q = t.modulus();
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 1234567 + 89) % q).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| (i * 7654321 + 11) % q).collect();
            assert_eq!(t.negacyclic_mul(&a, &b), naive_negacyclic(&a, &b, q));
        }
    }

    #[test]
    fn multiplying_by_x_rotates_with_sign() {
        // x * (c0..c_{n-1}) = -c_{n-1} + c0 x + ...
        let n = 16;
        let t = table(n);
        let q = t.modulus();
        let mut x = vec![0u64; n];
        x[1] = 1;
        let a: Vec<u64> = (1..=n as u64).collect();
        let out = t.negacyclic_mul(&a, &x);
        assert_eq!(out[0], q - a[n - 1]);
        assert_eq!(&out[1..], &a[..n - 1]);
    }

    #[test]
    fn rejects_bad_size_and_modulus() {
        assert_eq!(NttTable::new(3, 97).unwrap_err(), NttError::InvalidSize(3));
        assert_eq!(
            NttTable::new(8, 15).unwrap_err(),
            NttError::UnsupportedModulus(15)
        );
        // 97 is prime but 97-1=96 is not divisible by 2*64.
        assert_eq!(
            NttTable::new(64, 97).unwrap_err(),
            NttError::UnsupportedModulus(97)
        );
    }

    #[test]
    fn lazy_transforms_match_strict_bitwise() {
        for n in [8usize, 64, 512] {
            for bits in [30u32, 45, 58] {
                let q = generate_ntt_primes(bits, n, 1)[0];
                let t = NttTable::new(n, q).unwrap();
                let orig: Vec<u64> = (0..n as u64).map(|i| (i * i * 37 + 11) % q).collect();
                let mut lazy = orig.clone();
                let mut strict = orig.clone();
                t.forward(&mut lazy);
                t.forward_strict(&mut strict);
                assert_eq!(lazy, strict, "forward n={n} bits={bits}");
                t.inverse(&mut lazy);
                t.inverse_strict(&mut strict);
                assert_eq!(lazy, strict, "inverse n={n} bits={bits}");
                assert_eq!(lazy, orig, "roundtrip n={n} bits={bits}");
            }
        }
    }

    #[test]
    fn rejects_oversized_modulus() {
        // 2^62 + small is well above the q < 2^61 lazy-reduction bound; the
        // size/bound checks fire before primality is even consulted.
        let q = (1u64 << 62) + 1;
        assert_eq!(
            NttTable::new(8, q).unwrap_err(),
            NttError::UnsupportedModulus(q)
        );
    }

    #[test]
    fn galois_ntt_permutation_matches_coefficient_galois() {
        use crate::poly::apply_galois;
        let n = 64;
        let t = table(n);
        let q = t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 91 + 3) % q).collect();
        for e in [1u64, 3, 5, 2 * n as u64 - 1, 9, 127] {
            // Path 1: automorphism in coefficient domain, then NTT.
            let mut coeff = vec![0u64; n];
            apply_galois(&a, e, q, &mut coeff);
            t.forward(&mut coeff);
            // Path 2: NTT, then pure permutation.
            let mut eval = a.clone();
            t.forward(&mut eval);
            let perm = galois_ntt_permutation(n, e);
            let mut permuted = vec![0u64; n];
            apply_galois_ntt(&eval, &perm, &mut permuted);
            assert_eq!(permuted, coeff, "galois element {e}");
        }
    }

    #[test]
    fn galois_ntt_permutation_identity() {
        let perm = galois_ntt_permutation(16, 1);
        assert_eq!(perm, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn works_at_he_scale() {
        let n = 8192;
        let q = generate_ntt_primes(58, n, 1)[0];
        let t = NttTable::new(n, q).unwrap();
        let orig: Vec<u64> = (0..n as u64).map(|i| (i * 987_654_321) % q).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }
}
