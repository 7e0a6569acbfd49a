//! Polynomials in RNS representation over `Z_q[x]/(x^N + 1)`.
//!
//! An [`RnsPoly`] stores one residue row per prime of an [`RnsBasis`]
//! (in coefficient form unless a caller says otherwise — keys and key-switch
//! material keep evaluation-domain copies, see `RnsPoly::mul_by_ntt`). The row
//! order always matches the basis prime order, and a polynomial modulo the
//! data modulus is simply a prefix of the rows of one modulo the full
//! modulus, because the key-switching prime is last; the same holds in the
//! evaluation domain, where a row depends only on its prime.

use choco_math::bigint::limbs_log2;
use choco_math::modops::{add_mod, Barrett};
use choco_math::ntt::apply_galois_ntt;
use choco_math::par;
use choco_math::poly::{
    add_assign, apply_galois, dyadic_acc_assign, neg_assign, scalar_mul_assign, sub_assign,
};
use choco_math::pool::PolyPool;
use choco_math::rns::{BaseConverter, RnsBasis};
use choco_prng::sampler::{
    sample_error_blocks, sample_ternary_signed, sample_uniform_into, sample_uniform_masked_into,
};
use choco_prng::Blake3Rng;

/// A polynomial with `k` RNS residue rows of `n` coefficients each.
///
/// Residue rows are leased from [`PolyPool`]: every constructor draws its
/// rows from the pool and [`Drop`] returns them, so steady-state evaluation
/// recycles row buffers instead of hitting the allocator (the zero-alloc
/// test in `crates/he/tests/zero_alloc.rs` pins this property).
#[derive(Debug, PartialEq, Eq)]
pub struct RnsPoly {
    rows: Vec<Vec<u64>>,
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        RnsPoly {
            rows: self.rows.iter().map(|r| PolyPool::take_copy(r)).collect(),
        }
    }
}

impl Drop for RnsPoly {
    fn drop(&mut self) {
        for row in self.rows.drain(..) {
            PolyPool::recycle(row);
        }
    }
}

/// An empty pooled row with room for `n` coefficients: a row built by
/// appending can only hold what was appended, never a recycled buffer's
/// old contents.
// choco-lint: ct-safe
fn empty_row(n: usize) -> Vec<u64> {
    let mut row = PolyPool::take_scratch(n);
    row.clear();
    row
}

/// Appends the residues of the signed `values` modulo `r`'s prime to `row`.
// choco-lint: secret (public: r)
fn push_signed(row: &mut Vec<u64>, values: impl Iterator<Item = i64>, r: &Barrett) {
    row.extend(values.map(|v| r.reduce_i64(v)));
}

impl RnsPoly {
    /// The zero polynomial with `k` rows of `n` coefficients.
    // choco-lint: ct-safe
    pub fn zero(k: usize, n: usize) -> Self {
        RnsPoly {
            rows: (0..k).map(|_| PolyPool::take_zeroed(n)).collect(),
        }
    }

    /// Wraps existing residue rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<u64>>) -> Self {
        assert!(!rows.is_empty(), "rns poly needs at least one row");
        let n = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == n), "ragged residue rows");
        RnsPoly { rows }
    }

    /// Builds a polynomial from signed coefficients, reducing into every
    /// prime of `basis`.
    // choco-lint: secret (public: basis)
    pub fn from_signed<T: Into<i64> + Copy>(values: &[T], basis: &RnsBasis) -> Self {
        let rows = basis
            .primes()
            .iter()
            .map(|&q| {
                let mut row = empty_row(values.len());
                push_signed(&mut row, values.iter().map(|&v| v.into()), &Barrett::new(q));
                row
            })
            .collect();
        RnsPoly { rows }
    }

    /// Builds a polynomial whose coefficients are the (small, unsigned)
    /// integers of `values`, reduced into every prime of `basis`.
    // choco-lint: secret (public: basis)
    pub fn from_unsigned(values: &[u64], basis: &RnsBasis) -> Self {
        let rows = basis
            .primes()
            .iter()
            .map(|&q| {
                let r = Barrett::new(q);
                let mut row = PolyPool::take_scratch(values.len());
                for (x, &v) in row.iter_mut().zip(values) {
                    *x = r.reduce_u64(v);
                }
                row
            })
            .collect();
        RnsPoly { rows }
    }

    /// Samples ternary coefficients (one signed draw mapped into every row).
    // choco-lint: secret (public: basis)
    pub fn sample_ternary(rng: &mut Blake3Rng, basis: &RnsBasis) -> Self {
        let vals = sample_ternary_signed(rng, basis.degree());
        Self::from_signed(&vals, basis)
    }

    /// Samples clipped-normal error coefficients, each block of them
    /// appended to every row as residues, with no vector of them kept.
    // choco-lint: secret (public: basis)
    pub fn sample_error(rng: &mut Blake3Rng, basis: &RnsBasis) -> Self {
        let n = basis.degree();
        let reducers: Vec<Barrett> = basis.primes().iter().map(|&q| Barrett::new(q)).collect();
        let mut rows: Vec<Vec<u64>> = reducers.iter().map(|_| empty_row(n)).collect();
        sample_error_blocks(rng, n, |values| {
            for (row, r) in rows.iter_mut().zip(&reducers) {
                push_signed(row, values.iter().copied(), r);
            }
        });
        debug_assert!(rows.iter().all(|row| row.len() == n));
        RnsPoly { rows }
    }

    /// Samples a uniform polynomial modulo the basis modulus (independent
    /// uniform residues per prime — exactly uniform by CRT), one bulk draw
    /// per row.
    // choco-lint: secret (public: basis)
    pub fn sample_uniform(rng: &mut Blake3Rng, basis: &RnsBasis) -> Self {
        Self::uniform_rows(basis.primes(), basis.degree(), |q, row| {
            sample_uniform_into(rng, q, row)
        })
    }

    /// A degree-`n` polynomial uniform modulo each of `primes`, drawn by
    /// masked rejection ([`sample_uniform_masked_into`]) with no basis
    /// built: the expansion of a ciphertext's mask seed, which a decoder
    /// runs from the frame alone.
    // choco-lint: secret (public: primes, n)
    pub(crate) fn sample_uniform_masked(rng: &mut Blake3Rng, primes: &[u64], n: usize) -> Self {
        Self::uniform_rows(primes, n, |q, row| sample_uniform_masked_into(rng, q, row))
    }

    /// One pooled row of `n` residues per prime, in order, each filled by
    /// `fill_row`.
    // choco-lint: secret (public: primes, n)
    fn uniform_rows(primes: &[u64], n: usize, mut fill_row: impl FnMut(u64, &mut [u64])) -> Self {
        let rows = primes
            .iter()
            .map(|&q| {
                let mut row = PolyPool::take_scratch(n);
                fill_row(q, &mut row);
                row
            })
            .collect();
        RnsPoly { rows }
    }

    /// Number of residue rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.rows[0].len()
    }

    /// Residue row `i`.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.rows[i]
    }

    /// Mutable residue row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.rows[i]
    }

    /// A copy containing only the first `k` rows (drop to a sub-basis).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the row count.
    pub fn prefix(&self, k: usize) -> RnsPoly {
        assert!(k >= 1 && k <= self.rows.len(), "invalid prefix length");
        RnsPoly {
            rows: self.rows[..k]
                .iter()
                .map(|r| PolyPool::take_copy(r))
                .collect(),
        }
    }

    /// A copy of `self`'s rows followed by `lower`'s: the polynomial over a
    /// basis of `self`'s primes then `lower`'s ([`RnsBasis::concat`]).
    pub(crate) fn extended(&self, mut lower: RnsPoly) -> RnsPoly {
        let copies = self.rows.iter().map(|r| PolyPool::take_copy(r));
        RnsPoly {
            rows: copies.chain(std::mem::take(&mut lower.rows)).collect(),
        }
    }

    /// The first `k` rows and the rest, as two polynomials: the inverse of
    /// [`Self::extended`].
    pub(crate) fn split_rows(mut self, k: usize) -> (RnsPoly, RnsPoly) {
        let mut rows = std::mem::take(&mut self.rows);
        let lower = rows.split_off(k.min(rows.len()));
        (RnsPoly { rows }, RnsPoly { rows: lower })
    }

    fn check_match(&self, rhs: &RnsPoly) {
        assert_eq!(self.rows.len(), rhs.rows.len(), "row count mismatch");
        assert_eq!(self.degree(), rhs.degree(), "degree mismatch");
    }

    /// `self += rhs` over `basis`.
    pub fn add_assign_poly(&mut self, rhs: &RnsPoly, basis: &RnsBasis) {
        self.check_match(rhs);
        for ((row, r), &q) in self.rows.iter_mut().zip(&rhs.rows).zip(basis.primes()) {
            add_assign(row, r, q);
        }
    }

    /// `self -= rhs` over `basis`.
    pub fn sub_assign_poly(&mut self, rhs: &RnsPoly, basis: &RnsBasis) {
        self.check_match(rhs);
        for ((row, r), &q) in self.rows.iter_mut().zip(&rhs.rows).zip(basis.primes()) {
            sub_assign(row, r, q);
        }
    }

    /// `self = -self` over `basis`.
    pub fn neg_assign_poly(&mut self, basis: &RnsBasis) {
        for (row, &q) in self.rows.iter_mut().zip(basis.primes()) {
            neg_assign(row, q);
        }
    }

    /// Negacyclic product `self * rhs` over `basis` (NTT per residue).
    pub fn mul_poly(&self, rhs: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        self.check_match(rhs);
        let tables = basis.ntt_tables();
        let rows = par::par_map_range(self.rows.len(), |i| {
            tables[i].negacyclic_mul(&self.rows[i], &rhs.rows[i])
        });
        RnsPoly { rows }
    }

    /// Negacyclic products of `self` (coefficient form) with `K` factors
    /// given in the evaluation domain, over `basis`, returned in coefficient
    /// form. Per prime, in parallel: `self` is transformed once and
    /// multiplied into every factor's row, one inverse transform per
    /// product — `1 + K` NTTs per prime where `K` `mul_poly` calls pay
    /// `3K`. A factor may carry more rows than `basis` (a key over a wider
    /// basis): its leading rows are the polynomial over `basis`'s primes.
    // choco-lint: secret (public: basis)
    pub(crate) fn mul_by_ntt<const K: usize>(
        &self,
        factors: [&RnsPoly; K],
        basis: &RnsBasis,
    ) -> [RnsPoly; K] {
        let per_prime = par::par_map(basis.ntt_tables(), |i, table| {
            let r = Barrett::new(table.modulus());
            let mut x = PolyPool::take_copy(self.row(i));
            table.forward(&mut x);
            let products = factors.map(|factor| {
                let mut out = PolyPool::take_scratch(x.len());
                for ((o, &a), &b) in out.iter_mut().zip(&x).zip(factor.row(i)) {
                    *o = r.mul_mod(a, b);
                }
                table.inverse(&mut out);
                out
            });
            PolyPool::recycle(x);
            products
        });
        let mut rows: [Vec<Vec<u64>>; K] = std::array::from_fn(|_| Vec::with_capacity(basis.len()));
        for products in per_prime {
            for (poly_rows, row) in rows.iter_mut().zip(products) {
                poly_rows.push(row);
            }
        }
        rows.map(|rows| RnsPoly { rows })
    }

    /// Multiplies by a small-integer polynomial (e.g. a BFV plaintext with
    /// coefficients `< t`), reducing the multiplier into each prime.
    pub fn mul_small_poly(&self, plain: &[u64], basis: &RnsBasis) -> RnsPoly {
        assert_eq!(plain.len(), self.degree(), "plaintext degree mismatch");
        let tables = basis.ntt_tables();
        let primes = basis.primes();
        let rows = par::par_map_range(self.rows.len(), |i| {
            let r = Barrett::new(primes[i]);
            let mut reduced = PolyPool::take_scratch(plain.len());
            for (x, &v) in reduced.iter_mut().zip(plain) {
                *x = r.reduce_u64(v);
            }
            let out = tables[i].negacyclic_mul(&self.rows[i], &reduced);
            PolyPool::recycle(reduced);
            out
        });
        RnsPoly { rows }
    }

    /// Multiplies row `i` by the scalar `scalars[i]` (used for `Δ·m` where
    /// `Δ` is precomputed per residue).
    pub fn scalar_mul_per_row(&mut self, scalars: &[u64], basis: &RnsBasis) {
        assert_eq!(scalars.len(), self.rows.len(), "scalar count mismatch");
        for ((row, &s), &q) in self.rows.iter_mut().zip(scalars).zip(basis.primes()) {
            scalar_mul_assign(row, s, q);
        }
    }

    /// Multiplies every row by the scalar `s` (reduced into each prime).
    pub fn scalar_mul(&mut self, s: u64, basis: &RnsBasis) {
        for (row, &q) in self.rows.iter_mut().zip(basis.primes()) {
            scalar_mul_assign(row, s, q);
        }
    }

    /// Carries the polynomial to `conv`'s target moduli: row `j` of the
    /// result holds each coefficient's centered value over the source basis,
    /// reduced modulo target `j` — [`Self::coeff_centered`] plus a signed
    /// decomposition for every coefficient, exactly, without big integers.
    pub fn convert_centered(&self, conv: &BaseConverter) -> RnsPoly {
        assert_eq!(self.rows.len(), conv.source_len(), "row count mismatch");
        let n = self.degree();
        let mut out = RnsPoly {
            rows: (0..conv.target_len())
                .map(|_| PolyPool::take_scratch(n))
                .collect(),
        };
        conv.convert_centered(&self.rows, &mut out.rows);
        out
    }

    /// Applies a Galois NTT permutation
    /// ([`choco_math::ntt::galois_ntt_permutation`]) to every row of an
    /// evaluation-domain polynomial: the transform of [`Self::galois`] of
    /// its coefficient form.
    pub(crate) fn galois_ntt(&self, perm: &[u32]) -> RnsPoly {
        let rows = self.rows.iter().map(|row| {
            let mut out = PolyPool::take_scratch(row.len());
            apply_galois_ntt(row, perm, &mut out);
            out
        });
        RnsPoly {
            rows: rows.collect(),
        }
    }

    /// Applies the Galois automorphism `x → x^e` to every residue row.
    pub fn galois(&self, e: u64, basis: &RnsBasis) -> RnsPoly {
        let n = self.degree();
        let rows = self
            .rows
            .iter()
            .zip(basis.primes())
            .map(|(row, &q)| {
                // apply_galois zero-fills before scattering, so scratch is fine.
                let mut out = PolyPool::take_scratch(n);
                apply_galois(row, e, q, &mut out);
                out
            })
            .collect();
        RnsPoly { rows }
    }

    /// Element-wise (already-NTT-form) product accumulate:
    /// `self[i] += a[i] ⊙ b[i]` — helper for key switching where operands
    /// are kept in the transform domain. Allocation-free: the products feed
    /// a fused multiply-add directly into the accumulator rows.
    pub fn dyadic_accumulate(&mut self, a: &RnsPoly, b: &RnsPoly, basis: &RnsBasis) {
        self.check_match(a);
        self.check_match(b);
        let operands = a.rows.iter().zip(&b.rows);
        for ((row, (x, y)), &q) in self.rows.iter_mut().zip(operands).zip(basis.primes()) {
            dyadic_acc_assign(row, x, y, q);
        }
    }

    /// Forward NTT on every row.
    pub fn ntt_forward(&mut self, basis: &RnsBasis) {
        for (row, table) in self.rows.iter_mut().zip(basis.ntt_tables()) {
            table.forward(row);
        }
    }

    /// Inverse NTT on every row.
    pub fn ntt_inverse(&mut self, basis: &RnsBasis) {
        for (row, table) in self.rows.iter_mut().zip(basis.ntt_tables()) {
            table.inverse(row);
        }
    }

    /// Composes coefficient `j` into its centered big-integer value
    /// `(magnitude, is_negative)` over `basis`: the oracle of
    /// `for_each_centered` (limb composition), for tests and the `*_reference`
    /// paths.
    pub fn coeff_centered(&self, j: usize, basis: &RnsBasis) -> (choco_math::UBig, bool) {
        let residues: Vec<u64> = self.rows.iter().map(|r| r[j]).collect();
        basis.compose_centered(&residues)
    }

    /// Calls `f(magnitude, is_negative)` with each coefficient's centered
    /// value over `basis`, in coefficient order: the magnitude as
    /// little-endian limbs ([`RnsBasis::compose_centered_into`]) in one
    /// buffer reused across the polynomial.
    pub(crate) fn for_each_centered(&self, basis: &RnsBasis, mut f: impl FnMut(&[u64], bool)) {
        let mut columns: Vec<std::slice::Iter<u64>> = self.rows.iter().map(|r| r.iter()).collect();
        let mut limbs = vec![0; basis.compose_width()];
        for _ in 0..self.degree() {
            let residues = columns.iter_mut().map(|c| c.next().copied().unwrap_or(0));
            let negative = basis.compose_centered_into(residues, &mut limbs);
            f(&limbs, negative);
        }
    }

    /// Infinity norm of the centered coefficients (as log2; `-inf` for zero).
    pub fn centered_norm_log2(&self, basis: &RnsBasis) -> f64 {
        let mut max = f64::NEG_INFINITY;
        self.for_each_centered(basis, |magnitude, _| {
            max = max.max(limbs_log2(magnitude));
        });
        max
    }
}

/// `c0 + higher[0]·s + higher[1]·s² + …` over `basis`: the inner product
/// with the secret's powers that every decryption starts from, for any
/// number of components. `s_ntt` is the secret in the evaluation domain
/// (its leading `basis.len()` rows are used); per prime, each higher
/// component pays one forward transform, the products (and the powers of
/// `s`, formed only when a component uses them) are accumulated there, and
/// one inverse transform brings the sum back before `c0` is added.
// choco-lint: secret (public: c0, higher, basis)
pub fn dot_with_key_powers(
    c0: &RnsPoly,
    higher: &[RnsPoly],
    s_ntt: &RnsPoly,
    basis: &RnsBasis,
) -> RnsPoly {
    let n = c0.degree();
    let rows = par::par_map(basis.ntt_tables(), |i, table| {
        let q = table.modulus();
        let r = Barrett::new(q);
        let s = s_ntt.row(i);
        let mut acc = PolyPool::take_zeroed(n);
        let mut power = PolyPool::take_copy(s);
        let mut part_ntt = PolyPool::take_scratch(n);
        for (k, part) in higher.iter().enumerate() {
            if k > 0 {
                for (p, &x) in power.iter_mut().zip(s) {
                    *p = r.mul_mod(*p, x);
                }
            }
            part_ntt.copy_from_slice(part.row(i));
            table.forward(&mut part_ntt);
            for ((a, &c), &p) in acc.iter_mut().zip(&part_ntt).zip(&power) {
                *a = r.mul_add_mod(c, p, *a);
            }
        }
        table.inverse(&mut acc);
        for (a, &c) in acc.iter_mut().zip(c0.row(i)) {
            *a = add_mod(*a, c, q);
        }
        PolyPool::recycle(power);
        PolyPool::recycle(part_ntt);
        acc
    });
    RnsPoly { rows }
}

/// Convenience: `out = a + b`, built row-wise without an intermediate clone.
pub fn add(a: &RnsPoly, b: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
    a.check_match(b);
    let rows = a.rows.iter().zip(&b.rows).zip(basis.primes());
    let rows = rows.map(|((x, y), &q)| {
        let mut row = PolyPool::take_copy(x);
        add_assign(&mut row, y, q);
        row
    });
    RnsPoly {
        rows: rows.collect(),
    }
}

/// Convenience: `out = a - b`, built row-wise without an intermediate clone.
pub fn sub(a: &RnsPoly, b: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
    a.check_match(b);
    let rows = a.rows.iter().zip(&b.rows).zip(basis.primes());
    let rows = rows.map(|((x, y), &q)| {
        let mut row = PolyPool::take_copy(x);
        sub_assign(&mut row, y, q);
        row
    });
    RnsPoly {
        rows: rows.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_math::prime::generate_ntt_primes;

    fn basis() -> RnsBasis {
        let primes = generate_ntt_primes(30, 64, 3);
        RnsBasis::new(64, &primes).unwrap()
    }

    #[test]
    fn from_signed_round_trips_via_centered_compose() {
        let b = basis();
        let vals: Vec<i64> = (0..64).map(|i| (i as i64 - 32) * 3).collect();
        let p = RnsPoly::from_signed(&vals, &b);
        for (j, &v) in vals.iter().enumerate() {
            let (mag, neg) = p.coeff_centered(j, &b);
            let got = if neg {
                -(mag.to_u64() as i64)
            } else {
                mag.to_u64() as i64
            };
            assert_eq!(got, v);
        }
    }

    #[test]
    fn add_sub_inverse() {
        let b = basis();
        let mut rng = Blake3Rng::from_seed(b"rp");
        let x = RnsPoly::sample_uniform(&mut rng, &b);
        let y = RnsPoly::sample_uniform(&mut rng, &b);
        let mut z = x.clone();
        z.add_assign_poly(&y, &b);
        z.sub_assign_poly(&y, &b);
        assert_eq!(z, x);
    }

    #[test]
    fn mul_distributes_over_add() {
        let b = basis();
        let mut rng = Blake3Rng::from_seed(b"dist");
        let x = RnsPoly::sample_uniform(&mut rng, &b);
        let y = RnsPoly::sample_uniform(&mut rng, &b);
        let z = RnsPoly::sample_uniform(&mut rng, &b);
        let lhs = add(&x, &y, &b).mul_poly(&z, &b);
        let rhs = add(&x.mul_poly(&z, &b), &y.mul_poly(&z, &b), &b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ternary_samples_are_consistent_across_rows() {
        let b = basis();
        let mut rng = Blake3Rng::from_seed(b"tern");
        let p = RnsPoly::sample_ternary(&mut rng, &b);
        for j in 0..p.degree() {
            let (mag, _) = p.coeff_centered(j, &b);
            assert!(mag.to_u64() <= 1, "ternary coefficient magnitude > 1");
        }
    }

    #[test]
    fn galois_then_inverse_galois_is_identity() {
        // e * e_inv ≡ 1 mod 2n restores the original polynomial.
        let b = basis();
        let n = 64u64;
        let mut rng = Blake3Rng::from_seed(b"gal");
        let p = RnsPoly::sample_uniform(&mut rng, &b);
        let e = 3u64;
        // inverse of 3 modulo 128
        let mut e_inv = 0;
        for cand in (1..2 * n).step_by(2) {
            if (cand * e) % (2 * n) == 1 {
                e_inv = cand;
                break;
            }
        }
        let q = p.galois(e, &b).galois(e_inv, &b);
        assert_eq!(q, p);
    }

    #[test]
    fn ntt_roundtrip_per_row() {
        let b = basis();
        let mut rng = Blake3Rng::from_seed(b"ntt");
        let p = RnsPoly::sample_uniform(&mut rng, &b);
        let mut q = p.clone();
        q.ntt_forward(&b);
        q.ntt_inverse(&b);
        assert_eq!(p, q);
    }

    #[test]
    fn prefix_drops_rows() {
        let _b = basis();
        let p = RnsPoly::zero(3, 64);
        assert_eq!(p.prefix(2).row_count(), 2);
    }

    #[test]
    fn centered_norm_of_small_poly() {
        let b = basis();
        let vals = vec![0i64; 64];
        let mut v2 = vals.clone();
        v2[5] = -8;
        let p = RnsPoly::from_signed(&v2, &b);
        assert!((p.centered_norm_log2(&b) - 3.0).abs() < 1e-9);
        let z = RnsPoly::from_signed(&vals, &b);
        assert_eq!(z.centered_norm_log2(&b), f64::NEG_INFINITY);
    }
}
