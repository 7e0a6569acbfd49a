//! RNS key switching with a reserved special prime (SEAL's hybrid method).
//!
//! Key switching re-encrypts a ciphertext component that is "keyed" to some
//! polynomial `s'` (a Galois image of the secret, or `s²` after a
//! multiplication) back to the secret key `s`. The RNS-decomposition +
//! special-prime construction keeps the added noise at a few bits — which is
//! exactly why the paper's rotations are cheap (Table 4: ~2 bits per
//! rotation) while masked permutations are not.
//!
//! For each data prime `q_j` the key holds a pair
//! `(b_j, a_j) = (−(a_j·s + e_j) + P·E_j·s',  a_j)` over the *full* modulus
//! `q·P`, where `E_j` is the CRT idempotent (`E_j ≡ 1 mod q_j`, `≡ 0` mod
//! every other data prime) and `P` is the special prime. Because the
//! idempotents behave identically under any prefix of the prime chain, one
//! key generated at the top level serves every CKKS level after rescaling.
//! Applying the key to an input `d` uses the plain residues `D_j = [d]_{q_j}`
//! as decomposition digits, accumulates `Σ_j D_j·(b_j, a_j)` over the active
//! primes plus `P`, and divides by `P` with rounding.

use crate::error::HeError;
use crate::rnspoly::RnsPoly;
use choco_math::modops::{add_mod, center, inv_mod, mul_mod, pow_mod, Barrett};
use choco_math::ntt::apply_galois_ntt;
use choco_math::par;
use choco_math::poly::{scalar_mul_assign, sub_assign};
use choco_math::pool::PolyPool;
use choco_math::rns::RnsBasis;
use choco_prng::Blake3Rng;

/// A key-switching key: one `(b_j, a_j)` pair per data prime, stored in NTT
/// form over the full basis (special prime last).
#[derive(Debug, Clone)]
pub struct KswitchKey {
    pairs: Vec<(RnsPoly, RnsPoly)>,
    /// The full basis's primes, special prime last: one per pair row.
    moduli: Vec<u64>,
}

impl KswitchKey {
    /// Number of decomposition digits (= data prime count).
    pub fn digit_count(&self) -> usize {
        self.pairs.len()
    }

    /// Size in the paper's provisioning model, 8 bytes per residue
    /// (`2 polys × k residues × N × 8` per digit). The wire packs each
    /// residue at its prime's width (`serialize::relin_to_bytes`).
    pub fn size_bytes(&self) -> usize {
        self.pairs.len() * 2 * self.moduli.len() * self.degree() * 8
    }

    /// The `(b_j, a_j)` digit pairs in NTT form (wire serialization).
    pub fn pairs(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.pairs
    }

    /// The primes of the full basis the pairs are stored over, special
    /// prime last.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// The ring degree of the pairs.
    pub fn degree(&self) -> usize {
        self.pairs.first().map_or(0, |(b, _)| b.degree())
    }

    /// Whether the key lives over `moduli` at degree `n`.
    pub fn is_over(&self, moduli: &[u64], n: usize) -> bool {
        self.moduli == moduli && self.degree() == n
    }

    /// Reassembles a key from raw digit pairs over `moduli` (wire
    /// deserialization).
    ///
    /// Returns `None` when the shape is inconsistent: no digits, or a pair
    /// whose polynomials do not span one residue row per modulus.
    pub fn from_parts(pairs: Vec<(RnsPoly, RnsPoly)>, moduli: Vec<u64>) -> Option<Self> {
        let k = moduli.len();
        if pairs.is_empty()
            || pairs
                .iter()
                .any(|(b, a)| b.row_count() != k || a.row_count() != k)
        {
            return None;
        }
        Some(KswitchKey { pairs, moduli })
    }
}

/// Generates a key-switching key taking `s'`-keyed components to `s`,
/// directly in the evaluation domain the key is stored in.
///
/// `s_ntt` and `s_prime_ntt` are the two keys' NTT rows over the full basis
/// (all `k` primes, special last); `data` is the prefix basis of the first
/// `k − 1` primes. Per digit `j`, `a` and `e` are sampled (that order, the
/// RNG contract) and transformed — two forward NTTs per row — and
/// `b = −(a ⊙ s + e) + P·E_j ⊙ s'`, where the last term is nonzero only in
/// row `j`, as `(P mod q_j)·s'`. By linearity this is, bit for bit, the
/// transform of the same key formed in coefficient form.
// choco-lint: secret (public: full, data)
pub fn generate_ksk(
    s_ntt: &RnsPoly,
    s_prime_ntt: &RnsPoly,
    full: &RnsBasis,
    data: &RnsBasis,
    rng: &mut Blake3Rng,
) -> KswitchKey {
    let k = full.len();
    let d = data.len();
    assert!(
        k == d + 1,
        "full basis must be data basis plus special prime"
    );
    // choco-lint: allow(SEC001) row_count is public geometry, not key material
    assert_eq!(s_ntt.row_count(), k, "secret key must span the full basis");
    // choco-lint: allow(SEC001) row_count is public geometry, not key material
    assert_eq!(
        s_prime_ntt.row_count(),
        k,
        "target key must span the full basis"
    );
    let p_special = full.primes()[k - 1];

    let pairs = data
        .primes()
        .iter()
        .enumerate()
        .map(|(j, &qj)| {
            let mut a = RnsPoly::sample_uniform(rng, full);
            let mut b = RnsPoly::sample_error(rng, full);
            a.ntt_forward(full);
            b.ntt_forward(full);
            // b = −(a ⊙ s + e)
            b.dyadic_accumulate(&a, s_ntt, full);
            b.neg_assign_poly(full);
            // + (P mod q_j)·s' in row j.
            let w = p_special % qj;
            for (x, &sv) in b.row_mut(j).iter_mut().zip(s_prime_ntt.row(j)) {
                *x = add_mod(*x, mul_mod(w, sv, qj), qj);
            }
            (b, a)
        })
        .collect();
    KswitchKey {
        pairs,
        moduli: full.primes().to_vec(),
    }
}

/// Applies a key-switching key to input component `d_poly` (given modulo the
/// level basis, a prefix of the data primes), returning `(delta_c0, c1_new)`
/// modulo the level basis such that `delta_c0 + c1_new·s ≈ d_poly·s'`.
///
/// `ks_basis` must contain the level's data primes followed by the special
/// prime (i.e. `level + 1` primes), and `level_basis` its prefix of data
/// primes. Both are precomputed by the scheme context.
///
/// After the digit-parallel decomposition, each output component is one
/// pool task: its digit MAC over every ks row (the `b` or the `a` half of
/// each key pair), its inverse transforms and its `mod_down`. The two tasks
/// are equal, and nothing is left for the caller to run alone.
pub fn apply_ksk(
    d_poly: &RnsPoly,
    ksk: &KswitchKey,
    ks_basis: &RnsBasis,
    level_basis: &RnsBasis,
) -> (RnsPoly, RnsPoly) {
    let hoisted = hoist_decompose(d_poly, ks_basis, level_basis);
    check_geometry(&hoisted, ksk, ks_basis);
    let [k0, k1] = par::par_map_array([Half::B, Half::A], |&half| {
        let rows = (0..ks_basis.len()).map(|i| {
            let [row] = mac_row(&hoisted, None, ksk, [half], ks_basis, i);
            row
        });
        let mut acc = RnsPoly::from_rows(rows.collect());
        acc.ntt_inverse(ks_basis);
        mod_down(&acc, ks_basis, level_basis)
    });
    (k0, k1)
}

/// The NTT-form decomposition digits of a key-switch input, computed once
/// and reusable across many Galois elements ("hoisting").
///
/// Entry `j` holds `NTT_{q_i}([d]_{q_j} mod q_i)` for every prime `q_i` of
/// the ks basis. Because a Galois automorphism acts on NTT-domain data as a
/// pure index permutation ([`choco_math::ntt::galois_ntt_permutation`]),
/// rotating by `r` different steps costs one decomposition + `r` cheap
/// permute-and-accumulate passes instead of `r` full decompositions.
#[derive(Debug, Clone)]
pub struct HoistedDigits {
    digits: Vec<RnsPoly>,
    level: usize,
}

/// Decomposes `d_poly` into NTT-form digits over `ks_basis` (the expensive
/// half of key switching: `level · (level+1)` modular reductions + forward
/// NTTs). The result feeds [`hoisted_accumulate`] any number of times.
pub fn hoist_decompose(
    d_poly: &RnsPoly,
    ks_basis: &RnsBasis,
    level_basis: &RnsBasis,
) -> HoistedDigits {
    let level = level_basis.len();
    assert_eq!(
        d_poly.row_count(),
        level,
        "input must be over the level basis"
    );
    assert_eq!(
        ks_basis.len(),
        level + 1,
        "ks basis must add the special prime"
    );
    let digits = par::par_map_range(level, |j| {
        // Digit D_j = [d]_{q_j}, interpreted as an integer polynomial and
        // re-reduced into every ks prime.
        let digit = d_poly.row(j);
        let rows = (0..=level)
            .map(|i| {
                let r = Barrett::new(ks_basis.primes()[i]);
                let mut dmod = PolyPool::take_scratch(digit.len());
                for (x, &v) in dmod.iter_mut().zip(digit) {
                    *x = r.reduce_u64(v);
                }
                ks_basis.ntt_tables()[i].forward(&mut dmod);
                dmod
            })
            .collect();
        RnsPoly::from_rows(rows)
    });
    HoistedDigits { digits, level }
}

/// The permuted digit-MAC of the hoisted key-switch path: accumulates
/// `Σ_j perm(D_j) · ksk_j` in the NTT domain over the full ks basis, for
/// the Galois permutation `perm` of the key's element. The result still
/// carries the special-prime factor `P`; the caller divides it out with
/// [`mod_down_ntt`] after summing several switched terms (second hoisting),
/// paying one rounding for the whole sum.
///
/// Rows are independent, so they are the parallel axis: a row's two halves
/// share its permuted digits.
pub fn hoisted_accumulate(
    hoisted: &HoistedDigits,
    perm: &[u32],
    ksk: &KswitchKey,
    ks_basis: &RnsBasis,
) -> (RnsPoly, RnsPoly) {
    check_geometry(hoisted, ksk, ks_basis);
    let rows = par::par_map_range(ks_basis.len(), |i| {
        let [b, a] = mac_row(hoisted, Some(perm), ksk, [Half::B, Half::A], ks_basis, i);
        (b, a)
    });
    let (rows0, rows1): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    (RnsPoly::from_rows(rows0), RnsPoly::from_rows(rows1))
}

/// Checks that `hoisted` was decomposed over `ks_basis` and that `ksk` has
/// a digit for each of its level's primes.
fn check_geometry(hoisted: &HoistedDigits, ksk: &KswitchKey, ks_basis: &RnsBasis) {
    assert_eq!(
        ks_basis.len(),
        hoisted.level + 1,
        "ks basis must add the special prime"
    );
    assert!(
        hoisted.level <= ksk.pairs.len(),
        "level exceeds key digit count"
    );
}

/// One half of every `(b_j, a_j)` key pair: `b` switches into `c0`, `a`
/// into `c1`.
#[derive(Clone, Copy)]
enum Half {
    B,
    A,
}

impl Half {
    fn of(self, (b, a): &(RnsPoly, RnsPoly)) -> &RnsPoly {
        match self {
            Half::B => b,
            Half::A => a,
        }
    }
}

/// Row `i` of the digit MAC `Σ_j perm(D_j) ⊙ K_j` over the ks basis, for
/// each key half `K` of `halves`, reduced to canonical residues. Digits
/// are permuted once per row, whatever the halves; `None` is the identity.
fn mac_row<const H: usize>(
    hoisted: &HoistedDigits,
    perm: Option<&[u32]>,
    ksk: &KswitchKey,
    halves: [Half; H],
    ks_basis: &RnsBasis,
    i: usize,
) -> [Vec<u64>; H] {
    let n = ks_basis.degree();
    let r = Barrett::new(ks_basis.primes()[i]);
    // The special prime's row is the key's last, whatever the level.
    let storage_row = if i < hoisted.level {
        i
    } else {
        ksk.moduli.len() - 1
    };
    // Products are < 2^122 (primes stay below 2^61), so 32 of them fit in
    // a u128 accumulator; reduce lazily instead of per term. The modular
    // sum is unique, so this is bit-identical to eager reduction, in any
    // order of rows and halves.
    // choco-lint: lazy-domain
    let mut acc = halves.map(|_| PolyPool::take_zeroed_u128(n));
    let mut scratch = perm.map(|_| PolyPool::take_scratch(n));
    for (j, (digit, pair)) in hoisted.digits.iter().zip(&ksk.pairs).enumerate() {
        if j > 0 && j % 32 == 0 {
            for v in acc.iter_mut().flatten() {
                *v = r.reduce(*v) as u128;
            }
        }
        let d: &[u64] = match (perm, scratch.as_mut()) {
            (Some(p), Some(permuted)) => {
                apply_galois_ntt(digit.row(i), p, permuted);
                permuted
            }
            _ => digit.row(i),
        };
        for (acc, half) in acc.iter_mut().zip(halves) {
            mac(acc, d, half.of(pair).row(storage_row));
        }
    }
    if let Some(permuted) = scratch {
        PolyPool::recycle(permuted);
    }
    acc.map(|acc| {
        let out = reduce_row(&acc, r);
        PolyPool::recycle_u128(acc);
        out
    })
    // choco-lint: end-lazy-domain
}

/// `acc[j] += a[j] · b[j]`, unreduced.
pub(crate) fn mac(acc: &mut [u128], a: &[u64], b: &[u64]) {
    for ((slot, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *slot += x as u128 * y as u128;
    }
}

/// Canonical residues of an unreduced accumulator row.
pub(crate) fn reduce_row(acc: &[u128], r: Barrett) -> Vec<u64> {
    let mut out = PolyPool::take_scratch(acc.len());
    for (x, &v) in out.iter_mut().zip(acc) {
        *x = r.reduce(v);
    }
    out
}

/// Divides a polynomial over `ks_basis` (level primes + special prime last)
/// by the special prime `P` with rounding, producing a level-basis
/// polynomial: `out ≡ (x − [x]_P)·P^{-1} (mod q_i)`.
pub fn mod_down(x: &RnsPoly, ks_basis: &RnsBasis, level_basis: &RnsBasis) -> RnsPoly {
    let k = ks_basis.len();
    let p = ks_basis.primes()[k - 1];
    let xp = x.row(k - 1);
    let rows = (0..level_basis.len()).map(|i| {
        let qi = level_basis.primes()[i];
        let r = Barrett::new(qi);
        // Three sweeps, not one fused loop: fused measured 61 µs against
        // 37 µs per 8192-coefficient row (DESIGN.md §12).
        let mut delta = PolyPool::take_scratch(xp.len());
        for (d, &v) in delta.iter_mut().zip(xp) {
            *d = r.reduce_i64(center(v, p));
        }
        let mut row = PolyPool::take_copy(x.row(i));
        sub_assign(&mut row, &delta, qi);
        scalar_mul_assign(&mut row, inv_mod(p % qi, qi), qi);
        PolyPool::recycle(delta);
        row
    });
    RnsPoly::from_rows(rows.collect())
}

/// NTT-domain [`mod_down`]: takes `x` in the evaluation domain over the ks
/// basis and returns the rounded scale-down still in the evaluation domain
/// over `level_basis`. Because the NTT is linear and the `P^{-1}` scaling
/// is pointwise, this equals `NTT(mod_down(iNTT(x)))` bit-for-bit while
/// paying only one inverse transform (the special-prime row, which feeds
/// the rounding correction) instead of one per row.
pub fn mod_down_ntt(x: &RnsPoly, ks_basis: &RnsBasis, level_basis: &RnsBasis) -> RnsPoly {
    let k = ks_basis.len();
    let p = ks_basis.primes()[k - 1];
    let mut xp = PolyPool::take_copy(x.row(k - 1));
    ks_basis.ntt_tables()[k - 1].inverse(&mut xp);
    let rows = (0..level_basis.len()).map(|i| {
        let qi = level_basis.primes()[i];
        let r = Barrett::new(qi);
        let mut delta = PolyPool::take_scratch(xp.len());
        for (d, &v) in delta.iter_mut().zip(&xp) {
            *d = r.reduce_i64(center(v, p));
        }
        level_basis.ntt_tables()[i].forward(&mut delta);
        let mut row = PolyPool::take_copy(x.row(i));
        sub_assign(&mut row, &delta, qi);
        scalar_mul_assign(&mut row, inv_mod(p % qi, qi), qi);
        PolyPool::recycle(delta);
        row
    });
    let out = RnsPoly::from_rows(rows.collect());
    PolyPool::recycle(xp);
    out
}

/// `generator^steps mod 2N`, negative steps wrapping around the rotation
/// group's order `N/2`. A step of zero or of magnitude `≥ N/2` names no
/// rotation and is an error: steps arrive in wire programs.
fn rotation_element(generator: u64, steps: i64, n: usize) -> Result<u64, HeError> {
    let half = (n / 2) as u64;
    // `unsigned_abs`: `i64::MIN` has no `abs`.
    if steps == 0 || steps.unsigned_abs() >= half {
        return Err(HeError::InvalidParameters(format!(
            "rotation step {steps} is not a nonzero step below {half}"
        )));
    }
    Ok(pow_mod(
        generator,
        steps.rem_euclid(half as i64) as u64,
        2 * n as u64,
    ))
}

/// The Galois element for a BFV row rotation by `steps` slots:
/// `3^steps mod 2N`.
///
/// # Errors
///
/// [`HeError::InvalidParameters`] if `steps == 0` or `|steps| >= n/2`.
pub fn galois_element_rows(steps: i64, n: usize) -> Result<u64, HeError> {
    rotation_element(3, steps, n)
}

/// The Galois element for a CKKS slot rotation by `steps`: `5^steps mod 2N`.
///
/// # Errors
///
/// [`HeError::InvalidParameters`] if `steps == 0` or `|steps| >= n/2`.
pub fn galois_element_ckks(steps: i64, n: usize) -> Result<u64, HeError> {
    rotation_element(5, steps, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_math::prime::generate_ntt_primes;

    fn ntt(p: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        let mut p = p.clone();
        p.ntt_forward(basis);
        p
    }

    /// The coefficient-domain construction `generate_ksk` replaced:
    /// `b = −(a·s + e) + P·E_j·s'` formed with `mul_poly`, then transformed.
    fn generate_ksk_by_coefficients(
        s: &RnsPoly,
        s_prime: &RnsPoly,
        full: &RnsBasis,
        data: &RnsBasis,
        rng: &mut Blake3Rng,
    ) -> Vec<(RnsPoly, RnsPoly)> {
        let p = full.primes()[full.len() - 1];
        (0..data.len())
            .map(|j| {
                let a = RnsPoly::sample_uniform(rng, full);
                let e = RnsPoly::sample_error(rng, full);
                let mut b = a.mul_poly(s, full);
                b.add_assign_poly(&e, full);
                b.neg_assign_poly(full);
                let qj = data.primes()[j];
                let sp: Vec<u64> = s_prime.row(j).to_vec();
                for (x, sv) in b.row_mut(j).iter_mut().zip(sp) {
                    *x = add_mod(*x, mul_mod(p % qj, sv, qj), qj);
                }
                (ntt(&b, full), ntt(&a, full))
            })
            .collect()
    }

    #[test]
    fn evaluation_domain_keys_are_the_transformed_coefficient_keys() {
        let (full, data) = bases();
        let mut rng = Blake3Rng::from_seed(b"ksk in ntt");
        let s = RnsPoly::sample_ternary(&mut rng, &full);
        // s² and a Galois image, the two targets the schemes switch from.
        let targets = [s.mul_poly(&s, &full), s.galois(3, &full)];
        let n = full.degree();
        let target_ntts = [
            {
                let mut s2 = RnsPoly::zero(full.len(), n);
                s2.dyadic_accumulate(&ntt(&s, &full), &ntt(&s, &full), &full);
                s2
            },
            ntt(&s, &full).galois_ntt(&choco_math::ntt::galois_ntt_permutation(n, 3)),
        ];
        for (target, target_ntt) in targets.iter().zip(&target_ntts) {
            let seed = b"ksk in ntt, per target";
            let (mut a, mut b) = (Blake3Rng::from_seed(seed), Blake3Rng::from_seed(seed));
            let want = generate_ksk_by_coefficients(&s, target, &full, &data, &mut a);
            let got = generate_ksk(&ntt(&s, &full), target_ntt, &full, &data, &mut b);
            assert_eq!(got.pairs(), &want[..]);
            assert_eq!(a.bytes_drawn(), b.bytes_drawn());
        }
    }

    fn bases() -> (RnsBasis, RnsBasis) {
        let n = 256;
        let mut primes = generate_ntt_primes(40, n, 2);
        primes.extend(generate_ntt_primes(41, n, 1)); // special prime last
        let full = RnsBasis::new(n, &primes).unwrap();
        let data = full.prefix(2);
        (full, data)
    }

    #[test]
    fn keyswitch_preserves_relation_with_small_noise() {
        let (full, data) = bases();
        let mut rng = Blake3Rng::from_seed(b"ks test");
        let s = RnsPoly::sample_ternary(&mut rng, &full);
        let s_prime = RnsPoly::sample_ternary(&mut rng, &full);
        let d_in = RnsPoly::sample_uniform(&mut rng, &data);

        let ksk = generate_ksk(
            &ntt(&s, &full),
            &ntt(&s_prime, &full),
            &full,
            &data,
            &mut rng,
        );
        let (k0, k1) = apply_ksk(&d_in, &ksk, &full, &data);

        // k0 + k1·s should equal d·s' up to small noise (all mod data basis).
        let s_data = s.prefix(data.len());
        let sp_data = s_prime.prefix(data.len());
        let mut got = k1.mul_poly(&s_data, &data);
        got.add_assign_poly(&k0, &data);
        let expect = d_in.mul_poly(&sp_data, &data);
        let mut diff = got;
        diff.sub_assign_poly(&expect, &data);
        let noise_bits = diff.centered_norm_log2(&data);
        // Expected noise ~ k · q_j · σ √N / P ≈ 2^10; anything below 2^25
        // proves the relation holds (a wrong implementation is ~2^79).
        assert!(
            noise_bits < 25.0,
            "keyswitch noise too large: 2^{noise_bits:.1}"
        );
    }

    #[test]
    fn keyswitch_works_at_reduced_level() {
        // Drop to a single data prime (as CKKS does after rescaling) and
        // check the same key still switches correctly.
        let n = 256;
        let mut primes = generate_ntt_primes(40, n, 2);
        primes.extend(generate_ntt_primes(41, n, 1));
        let full = RnsBasis::new(n, &primes).unwrap();
        let data = full.prefix(2);
        let level1 = full.prefix(1);
        let ks1 = RnsBasis::new(n, &[primes[0], primes[2]]).unwrap();

        let mut rng = Blake3Rng::from_seed(b"ks level");
        let s = RnsPoly::sample_ternary(&mut rng, &full);
        let s_prime = RnsPoly::sample_ternary(&mut rng, &full);
        let ksk = generate_ksk(
            &ntt(&s, &full),
            &ntt(&s_prime, &full),
            &full,
            &data,
            &mut rng,
        );

        let d_in = RnsPoly::sample_uniform(&mut rng, &level1);
        let (k0, k1) = apply_ksk(&d_in, &ksk, &ks1, &level1);
        let s_l = s.prefix(1);
        let sp_l = s_prime.prefix(1);
        let mut got = k1.mul_poly(&s_l, &level1);
        got.add_assign_poly(&k0, &level1);
        let expect = d_in.mul_poly(&sp_l, &level1);
        let mut diff = got;
        diff.sub_assign_poly(&expect, &level1);
        assert!(
            diff.centered_norm_log2(&level1) < 25.0,
            "level-1 keyswitch failed"
        );
    }

    #[test]
    fn mod_down_divides_exact_multiples() {
        let (full, data) = bases();
        let p = *full.primes().last().unwrap();
        // x = P * y for small y → mod_down(x) == y exactly.
        let n = full.degree();
        let y_vals: Vec<i64> = (0..n as i64).map(|i| i % 17 - 8).collect();
        let mut x = RnsPoly::from_signed(&y_vals, &full);
        let scalars: Vec<u64> = full.primes().iter().map(|&q| p % q).collect();
        x.scalar_mul_per_row(&scalars, &full);
        let out = mod_down(&x, &full, &data);
        let expect = RnsPoly::from_signed(&y_vals, &data);
        assert_eq!(out, expect);
    }

    #[test]
    fn mod_down_rounds_to_nearest() {
        let (full, data) = bases();
        let p = *full.primes().last().unwrap();
        // x = P*y + r with |r| < P/2 → rounds to y.
        let n = full.degree();
        let mut vals: Vec<i64> = vec![0; n];
        vals[0] = 5;
        let mut x = RnsPoly::from_signed(&vals, &full);
        let scalars: Vec<u64> = full.primes().iter().map(|&q| p % q).collect();
        x.scalar_mul_per_row(&scalars, &full);
        // add small residual 3 (well below P/2)
        let mut resid = vec![0i64; n];
        resid[0] = 3;
        x.add_assign_poly(&RnsPoly::from_signed(&resid, &full), &full);
        let out = mod_down(&x, &full, &data);
        let (mag, neg) = out.coeff_centered(0, &data);
        assert!(!neg);
        assert_eq!(mag.to_u64(), 5);
    }

    #[test]
    fn mod_down_ntt_is_the_transform_of_mod_down() {
        use crate::params::HeParams;
        for params in [HeParams::set_a(), HeParams::set_b()] {
            let ks = RnsBasis::new(params.degree(), params.primes()).unwrap();
            let level = ks.prefix(ks.len() - 1);
            let mut rng = Blake3Rng::from_seed(b"mod_down_ntt commutes");
            for _ in 0..3 {
                let x = RnsPoly::sample_uniform(&mut rng, &ks);
                let mut coeff = x.clone();
                coeff.ntt_inverse(&ks);
                let mut want = mod_down(&coeff, &ks, &level);
                want.ntt_forward(&level);
                assert_eq!(mod_down_ntt(&x, &ks, &level), want);
            }
        }
    }

    #[test]
    fn galois_elements_are_odd_and_in_range() {
        let n = 8192;
        for steps in [1i64, 2, 5, -1, -7, 4095] {
            let e = galois_element_rows(steps, n).unwrap();
            assert_eq!(e % 2, 1);
            assert!(e < 2 * n as u64);
        }
    }

    #[test]
    fn galois_rows_inverse_steps_compose_to_identity() {
        let n = 1024;
        let e1 = galois_element_rows(3, n).unwrap();
        let e2 = galois_element_rows(-3, n).unwrap();
        assert_eq!((e1 as u128 * e2 as u128 % (2 * n as u128)) as u64, 1);
    }

    #[test]
    fn galois_rejects_steps_that_name_no_rotation() {
        for element_of in [galois_element_rows, galois_element_ckks] {
            for steps in [0, 512, -512, 600, i64::MAX, i64::MIN] {
                assert!(matches!(
                    element_of(steps, 1024),
                    Err(HeError::InvalidParameters(_))
                ));
            }
            assert!(element_of(511, 1024).is_ok() && element_of(-511, 1024).is_ok());
        }
    }
}
