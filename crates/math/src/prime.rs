//! Primality testing and NTT-friendly prime generation.
//!
//! HE moduli must satisfy `q ≡ 1 (mod 2N)` so that `Z_q` contains a
//! primitive `2N`-th root of unity (needed by the negacyclic NTT). SEAL
//! ships a table of such primes; we generate them on demand with a
//! deterministic Miller–Rabin test that is exact for all 64-bit integers.

use crate::modops::{mul_add_mod, mul_mod, pow_mod};

/// Witnesses sufficient for a deterministic Miller–Rabin test over `u64`
/// (Sinclair's 7-witness set).
const MR_WITNESSES: [u64; 7] = [2, 325, 9375, 28178, 450775, 9780504, 1795265022];

/// Returns `true` iff `n` is prime. Exact for every `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &w in &MR_WITNESSES {
        let w = w % n;
        if w == 0 {
            continue;
        }
        let mut x = pow_mod(w, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates `count` distinct primes of exactly `bits` bits satisfying
/// `p ≡ 1 (mod 2n)`, scanning downward from the top of the bit range.
///
/// This mirrors SEAL's `CoeffModulus::Create`: the largest suitable primes
/// of the requested size are chosen so that moduli across calls are
/// reproducible.
///
/// # Panics
///
/// Panics if `bits` is not in `2..=62`, if `n` is not a power of two, or if
/// not enough primes exist in the requested range (practically impossible
/// for HE-relevant sizes).
pub fn generate_ntt_primes(bits: u32, n: usize, count: usize) -> Vec<u64> {
    try_generate_ntt_primes(bits, n, count).unwrap_or_else(|| {
        panic!(
            "not enough {bits}-bit primes congruent to 1 mod {}",
            2 * n as u64
        )
    })
}

/// Non-panicking variant of [`generate_ntt_primes`]: returns `None` when
/// fewer than `count` suitable primes exist at the requested size (possible
/// for small `bits` relative to `2n`).
pub fn try_generate_ntt_primes(bits: u32, n: usize, count: usize) -> Option<Vec<u64>> {
    assert!((2..=62).contains(&bits), "prime size out of range");
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    let m = 2 * n as u64;
    let hi = if bits == 62 {
        u64::MAX >> 2
    } else {
        (1u64 << bits) - 1
    };
    let lo = 1u64 << (bits - 1);
    if hi < m {
        return None;
    }
    // Largest candidate ≡ 1 mod m at or below hi.
    let mut cand = hi - ((hi - 1) % m);
    let mut out = Vec::with_capacity(count);
    while out.len() < count && cand > lo {
        if is_prime(cand) {
            out.push(cand);
        }
        match cand.checked_sub(m) {
            Some(next) => cand = next,
            None => break,
        }
    }
    (out.len() == count).then_some(out)
}

/// Generates a single prime with `bits` bits congruent to `1 (mod 2n)`,
/// suitable as a BFV plaintext modulus that supports batching.
///
/// # Panics
///
/// Panics when no such prime exists; use [`try_generate_plain_modulus`] to
/// handle that case.
pub fn generate_plain_modulus(bits: u32, n: usize) -> u64 {
    generate_ntt_primes(bits, n, 1)[0]
}

/// Non-panicking variant of [`generate_plain_modulus`].
pub fn try_generate_plain_modulus(bits: u32, n: usize) -> Option<u64> {
    try_generate_ntt_primes(bits, n, 1).map(|v| v[0])
}

/// Finds a generator (primitive root) of the multiplicative group of the
/// prime field `Z_q`: the least `g` of order `q − 1`, tested against the
/// distinct prime factors of `q − 1` (Brent–Pollard rho, so a fresh 62-bit
/// prime costs microseconds, not the milliseconds trial division took).
pub fn primitive_root(q: u64) -> u64 {
    let phi = q - 1;
    let factors = distinct_prime_factors(phi);
    'outer: for g in 2..q {
        for &f in &factors {
            if pow_mod(g, phi / f, q) == 1 {
                continue 'outer;
            }
        }
        return g;
    }
    unreachable!("every prime field has a generator")
}

/// Returns a primitive `order`-th root of unity modulo prime `q`.
///
/// # Panics
///
/// Panics unless `order` divides `q - 1`.
pub fn primitive_nth_root(order: u64, q: u64) -> u64 {
    assert!(
        (q - 1).is_multiple_of(order),
        "no primitive {order}-th root of unity mod {q}"
    );
    let g = primitive_root(q);
    let root = pow_mod(g, (q - 1) / order, q);
    debug_assert_eq!(pow_mod(root, order, q), 1);
    debug_assert_ne!(pow_mod(root, order / 2, q), 1);
    root
}

/// The distinct prime factors of `n ≥ 1`, ascending: the power of two
/// shifted out, then each odd composite part split by [`rho_divisor`] until
/// [`is_prime`] accepts every part.
fn distinct_prime_factors(n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    if n.is_multiple_of(2) {
        factors.push(2);
    }
    let mut parts = vec![n >> n.trailing_zeros()];
    while let Some(m) = parts.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            factors.push(m);
            continue;
        }
        let d = rho_divisor(m);
        parts.extend([d, m / d]);
    }
    factors.sort_unstable();
    factors.dedup();
    factors
}

/// A divisor `1 < d < n` of the odd composite `n`: Brent's variant of
/// Pollard's rho on `x ↦ x² + c mod n`, the differences multiplied together
/// so one gcd covers up to 128 steps, and the steps of a batch that
/// overshoots to `n` retaken one gcd at a time. A `c` whose cycle closes
/// without splitting `n` is replaced by `c + 1`.
fn rho_divisor(n: u64) -> u64 {
    const BATCH: u64 = 128;
    let mut c = 1;
    loop {
        let f = |x: u64| mul_add_mod(x, x, c, n);
        let (mut x, mut y, mut ys) = (2u64, 2u64, 2u64);
        let (mut g, mut r, mut acc) = (1u64, 1u64, 1u64);
        while g == 1 {
            x = y;
            for _ in 0..r {
                y = f(y);
            }
            let mut k = 0;
            while k < r && g == 1 {
                ys = y;
                for _ in 0..BATCH.min(r - k) {
                    y = f(y);
                    acc = mul_mod(acc, x.abs_diff(y), n);
                }
                g = gcd(acc, n);
                k += BATCH;
            }
            r *= 2;
        }
        if g == n {
            loop {
                ys = f(ys);
                g = gcd(x.abs_diff(ys), n);
                if g > 1 {
                    break;
                }
            }
        }
        if g != n {
            return g;
        }
        c += 1;
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trial division [`distinct_prime_factors`] replaced: the oracle.
    fn trial_division_factors(mut n: u64) -> Vec<u64> {
        let mut fs = Vec::new();
        let mut d = 2u64;
        while d.saturating_mul(d) <= n {
            if n.is_multiple_of(d) {
                fs.push(d);
                while n.is_multiple_of(d) {
                    n /= d;
                }
            }
            d += 1;
        }
        if n > 1 {
            fs.push(n);
        }
        fs
    }

    /// [`primitive_root`]'s search over an explicit factor list.
    fn root_from(q: u64, factors: &[u64]) -> u64 {
        (2..q)
            .find(|&g| factors.iter().all(|&f| pow_mod(g, (q - 1) / f, q) != 1))
            .expect("a prime field has a generator")
    }

    #[test]
    fn rho_matches_trial_division_on_every_table_prime() {
        // Sets A, B and C, the 59-bit primes the BFV tensor bases draw
        // from at both degrees, and eight primes of every size the
        // generator accepts.
        let mut primes = [
            (58, 8192, 2),
            (59, 8192, 1),
            (36, 4096, 2),
            (37, 4096, 1),
            (60, 8192, 3),
            (59, 8192, 8),
            (59, 4096, 8),
        ]
        .into_iter()
        .flat_map(|(bits, n, count)| generate_ntt_primes(bits, n, count))
        .collect::<Vec<_>>();
        for bits in 20..=62 {
            primes.extend(generate_ntt_primes(bits, 1024, 8));
        }
        for q in primes {
            let oracle = trial_division_factors(q - 1);
            assert_eq!(distinct_prime_factors(q - 1), oracle, "q = {q}");
            assert_eq!(primitive_root(q), root_from(q, &oracle), "q = {q}");
        }
    }

    #[test]
    fn rho_splits_awkward_composites() {
        // Prime squares and cubes, Carmichael numbers and a strong
        // pseudoprime, and every small n.
        for n in (1..5000u64).chain([
            65_521 * 65_521,
            7 * 7 * 7 * 13 * 13,
            41_041,
            3_825_123_056_546_413_051,
        ]) {
            assert_eq!(
                distinct_prime_factors(n),
                trial_division_factors(n),
                "n = {n}"
            );
        }
        // Two 32-bit primes, past what trial division finishes quickly.
        let (p, q) = (4_294_967_279u64, 4_294_967_291u64);
        assert_eq!(distinct_prime_factors(p * q), [p, q]);
        assert_eq!(distinct_prime_factors(q * q), [q]);
    }

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537];
        let composites = [0u64, 1, 4, 9, 15, 91, 561, 65535];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Classic strong pseudoprimes to individual bases.
        for c in [2047u64, 1373653, 25326001, 3215031751, 3825123056546413051] {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn large_known_prime_accepted() {
        // 2^61 - 1 is a Mersenne prime.
        assert!(is_prime((1u64 << 61) - 1));
    }

    #[test]
    fn generated_primes_have_requested_shape() {
        for (bits, n) in [(30u32, 1024usize), (36, 4096), (58, 8192), (60, 8192)] {
            let ps = generate_ntt_primes(bits, n, 3);
            assert_eq!(ps.len(), 3);
            for p in ps {
                assert!(is_prime(p));
                assert_eq!(p % (2 * n as u64), 1);
                assert_eq!(64 - p.leading_zeros(), bits);
            }
        }
    }

    #[test]
    fn generated_primes_are_distinct_and_descending() {
        let ps = generate_ntt_primes(40, 2048, 5);
        for w in ps.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn primitive_root_has_full_order() {
        let q = generate_ntt_primes(30, 1024, 1)[0];
        let g = primitive_root(q);
        // g^((q-1)/2) must be -1 for a generator.
        assert_eq!(pow_mod(g, (q - 1) / 2, q), q - 1);
    }

    #[test]
    fn nth_root_has_exact_order() {
        let n = 1024u64;
        let q = generate_ntt_primes(30, n as usize, 1)[0];
        let w = primitive_nth_root(2 * n, q);
        assert_eq!(pow_mod(w, 2 * n, q), 1);
        assert_eq!(pow_mod(w, n, q), q - 1); // psi^N = -1 (negacyclic)
    }

    #[test]
    #[should_panic(expected = "no primitive")]
    fn nth_root_requires_divisibility() {
        primitive_nth_root(3, 257); // 3 does not divide 256
    }
}
