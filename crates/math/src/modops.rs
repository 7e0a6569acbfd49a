//! 64-bit modular arithmetic primitives.
//!
//! All moduli handled by the HE stack fit in 61 bits (SEAL-style "up to
//! 60-bit" primes plus headroom), so products fit in `u128`. The free
//! functions take the widening-multiply-and-`%` route: simple, and the
//! oracle for everything else. Hot loops reduce through a [`Barrett`]
//! built once per row instead, since `%` on a `u128` is a call into the
//! compiler's software division and `%` on a `u64` a hardware divide.

/// Adds two residues modulo `q`.
///
/// Both inputs must already be reduced (`< q`); the result is reduced.
#[inline(always)]
// choco-lint: modops
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
#[inline(always)]
// choco-lint: modops
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates a residue modulo `q`.
#[inline(always)]
// choco-lint: modops
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` using a widening 128-bit product.
#[inline(always)]
// choco-lint: modops
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Fused multiply-add `(a*b + c) mod q`.
#[inline(always)]
// choco-lint: modops
pub fn mul_add_mod(a: u64, b: u64, c: u64, q: u64) -> u64 {
    ((a as u128 * b as u128 + c as u128) % q as u128) as u64
}

/// Raises `base` to the power `exp` modulo `q` by square-and-multiply.
// choco-lint: modops
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    let mut acc: u64 = 1 % q;
    base %= q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo prime `q` via Fermat's little
/// theorem.
///
/// # Panics
///
/// Panics if `a` is zero (zero has no inverse).
// choco-lint: modops
pub fn inv_mod(a: u64, q: u64) -> u64 {
    assert!(!a.is_multiple_of(q), "zero has no modular inverse");
    pow_mod(a, q - 2, q)
}

/// The inverse of odd `a` modulo `2^bits` (`1 ≤ bits ≤ 64`) by Newton's
/// iteration: `x = a` is right to 3 bits (an odd square is 1 mod 8), and
/// each step `x ← x·(2 − a·x)` doubles that, so five reach 64.
// choco-lint: modops
pub fn inv_mod_pow2(a: u64, bits: u32) -> u64 {
    debug_assert!(a & 1 == 1 && (1..=64).contains(&bits));
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x & (u64::MAX >> (64 - bits))
}

/// Reduces an arbitrary `u64` into `[0, q)`.
#[inline(always)]
// choco-lint: modops
pub fn reduce(a: u64, q: u64) -> u64 {
    a % q
}

/// Reduces a signed value into `[0, q)`.
#[inline(always)]
// choco-lint: modops
pub fn reduce_signed(a: i64, q: u64) -> u64 {
    let r = a.rem_euclid(q as i64);
    r as u64
}

/// Maps a residue in `[0, q)` to its centered representative in
/// `(-q/2, q/2]` returned as `i64`.
///
/// Only valid for `q < 2^63`.
#[inline(always)]
// choco-lint: modops
pub fn center(a: u64, q: u64) -> i64 {
    debug_assert!(a < q && q < (1 << 63));
    if a > q / 2 {
        a as i64 - q as i64
    } else {
        a as i64
    }
}

/// Shoup precomputation for fast multiplication by a constant: returns
/// `floor(b * 2^64 / q)`.
#[inline]
// choco-lint: modops
pub fn shoup_precompute(b: u64, q: u64) -> u64 {
    (((b as u128) << 64) / q as u128) as u64
}

/// Multiplies `a` by the constant `b` (with its Shoup precomputation
/// `b_shoup`) modulo `q`. Result is in `[0, q)` when `q < 2^63`.
#[inline(always)]
// choco-lint: modops
pub fn mul_mod_shoup(a: u64, b: u64, b_shoup: u64, q: u64) -> u64 {
    let r = mul_mod_shoup_lazy(a, b, b_shoup, q);
    if r >= q {
        r - q
    } else {
        r
    }
}

/// Lazy Shoup multiplication: returns a value congruent to `a·b mod q` in
/// the **half-reduced** range `[0, 2q)`, skipping the final conditional
/// subtraction. This is the Harvey-NTT workhorse: butterflies keep operands
/// in `[0, 4q)` and only correct at the very end.
///
/// `b` must be reduced (`< q`); `a` may be any `u64` (in particular a lazy
/// value in `[0, 4q)`). Requires `q < 2^63` so `2q` fits in a `u64`.
#[inline(always)]
// choco-lint: modops
pub fn mul_mod_shoup_lazy(a: u64, b: u64, b_shoup: u64, q: u64) -> u64 {
    debug_assert!(b < q && q < (1 << 63));
    let hi = ((a as u128 * b_shoup as u128) >> 64) as u64;
    a.wrapping_mul(b).wrapping_sub(hi.wrapping_mul(q))
}

/// Final correction for a lazy value in `[0, 4q)`: reduces into `[0, q)`.
#[inline(always)]
// choco-lint: modops
pub fn reduce_4q(a: u64, q: u64) -> u64 {
    debug_assert!(a < 4 * q);
    let a = if a >= 2 * q { a - 2 * q } else { a };
    if a >= q {
        a - q
    } else {
        a
    }
}

/// Final correction for a lazy value in `[0, 2q)`: reduces into `[0, q)`.
#[inline(always)]
// choco-lint: modops
pub fn reduce_2q(a: u64, q: u64) -> u64 {
    debug_assert!(a < 2 * q);
    if a >= q {
        a - q
    } else {
        a
    }
}

/// A precomputed Barrett reducer for one modulus `q`, `2 ≤ q < 2^63`:
/// `⌊2^128/q⌋` reduces `u128` inputs, `⌊2^64/q⌋` reduces `u64` and `i64`
/// ones, each with a few multiplies and one branch-free correction.
///
/// Both ratios are taken as `⌊(2^w − 1)/q⌋`, which differs from `⌊2^w/q⌋`
/// only when `q` is a power of two. Either way the quotient estimate
/// `⌊x·ratio/2^w⌋` falls short of `⌊x/q⌋` by at most one, so `x` minus
/// the estimate times `q` lies in `[0, 2q)` and a single `min(r, r − q)`
/// makes it canonical. Results equal `%` exactly.
///
/// Build one per row, never one per coefficient: [`Barrett::new`] pays
/// the divisions the reductions then avoid.
#[derive(Debug, Clone, Copy)]
pub struct Barrett {
    q: u64,
    /// `⌊(2^128 − 1)/q⌋`, high and low word.
    ratio_hi: u64,
    ratio_lo: u64,
    /// `⌊(2^64 − 1)/q⌋`.
    ratio64: u64,
    /// `2^64 mod q`: what a negative `i64` read as a `u64` is offset by.
    two64: u64,
}

impl Barrett {
    /// Precomputes the reducer for `q` (`2 ≤ q < 2^63`).
    // choco-lint: modops
    pub fn new(q: u64) -> Self {
        debug_assert!((2..1 << 63).contains(&q), "barrett modulus out of range");
        let ratio = u128::MAX / q as u128;
        Barrett {
            q,
            ratio_hi: (ratio >> 64) as u64,
            ratio_lo: ratio as u64,
            ratio64: u64::MAX / q,
            two64: ((1u128 << 64) % q as u128) as u64,
        }
    }

    /// The modulus.
    #[inline(always)]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// `x mod q` for any `u128`.
    #[inline(always)]
    // choco-lint: modops
    pub fn reduce(&self, x: u128) -> u64 {
        let (x_hi, x_lo) = ((x >> 64) as u64, x as u64);
        // Low word of ⌊x·ratio/2^128⌋: the remainder is below 2q < 2^64,
        // so the quotient's high word never reaches it.
        let carry = ((x_lo as u128 * self.ratio_lo as u128) >> 64) as u64;
        let mid = (x_lo as u128 * self.ratio_hi as u128 + carry as u128)
            .wrapping_add(x_hi as u128 * self.ratio_lo as u128);
        let quotient = x_hi
            .wrapping_mul(self.ratio_hi)
            .wrapping_add((mid >> 64) as u64);
        self.correct(x_lo.wrapping_sub(quotient.wrapping_mul(self.q)))
    }

    /// `x mod q` for a `u64`.
    #[inline(always)]
    // choco-lint: modops
    pub fn reduce_u64(&self, x: u64) -> u64 {
        let quotient = ((x as u128 * self.ratio64 as u128) >> 64) as u64;
        self.correct(x.wrapping_sub(quotient.wrapping_mul(self.q)))
    }

    /// `x mod q` in `[0, q)` for an `i64`, negative or not.
    #[inline(always)]
    // choco-lint: modops
    pub fn reduce_i64(&self, x: i64) -> u64 {
        // A negative x reads as x + 2^64: take 2^64 mod q back off.
        let r = self.reduce_u64(x as u64);
        let d = r.wrapping_sub(self.two64 & (x >> 63) as u64);
        d.min(d.wrapping_add(self.q))
    }

    /// `a·b mod q`.
    #[inline(always)]
    // choco-lint: modops
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }

    /// `(a·b + c) mod q`.
    #[inline(always)]
    // choco-lint: modops
    pub fn mul_add_mod(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce(a as u128 * b as u128 + c as u128)
    }

    /// `[0, 2q) → [0, q)` without a branch: below `q`, `r − q` wraps high.
    #[inline(always)]
    // choco-lint: modops
    fn correct(&self, r: u64) -> u64 {
        r.min(r.wrapping_sub(self.q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 1_152_921_504_606_830_593; // 60-bit NTT prime (1 mod 2^15)

    #[test]
    fn add_sub_roundtrip() {
        let a = Q - 3;
        let b = 17;
        assert_eq!(sub_mod(add_mod(a, b, Q), b, Q), a);
    }

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(Q - 1, 1, Q), 0);
        assert_eq!(add_mod(Q - 1, Q - 1, Q), Q - 2);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub_mod(0, 1, Q), Q - 1);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in [0u64, 1, 12345, Q - 1] {
            assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
        }
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xDEAD_BEEF_CAFE_u64 % Q;
        let b = 0x1234_5678_9ABC_DEF0_u64 % Q;
        assert_eq!(
            mul_mod(a, b, Q),
            ((a as u128 * b as u128) % Q as u128) as u64
        );
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow_mod(2, 10, Q), 1024);
        assert_eq!(pow_mod(7, 0, Q), 1);
        assert_eq!(pow_mod(0, 5, Q), 0);
    }

    #[test]
    fn fermat_inverse() {
        for a in [1u64, 2, 3, 65537, Q - 2] {
            let inv = inv_mod(a, Q);
            assert_eq!(mul_mod(a, inv, Q), 1);
        }
    }

    #[test]
    fn power_of_two_inverse() {
        for a in [1u64, 3, 0x7fff, Q, u64::MAX] {
            for bits in [1, 2, 29, 41, 61, 64] {
                let mask = u64::MAX >> (64 - bits);
                let inv = inv_mod_pow2(a, bits);
                assert!(inv <= mask);
                assert_eq!(a.wrapping_mul(inv) & mask, 1 & mask, "{a} mod 2^{bits}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no modular inverse")]
    fn inverse_of_zero_panics() {
        inv_mod(0, Q);
    }

    #[test]
    fn center_maps_to_half_open_interval() {
        assert_eq!(center(0, 7), 0);
        assert_eq!(center(3, 7), 3);
        assert_eq!(center(4, 7), -3);
        assert_eq!(center(6, 7), -1);
    }

    #[test]
    fn reduce_signed_matches_euclid() {
        assert_eq!(reduce_signed(-1, 7), 6);
        assert_eq!(reduce_signed(-7, 7), 0);
        assert_eq!(reduce_signed(8, 7), 1);
    }

    #[test]
    fn shoup_matches_plain_mul() {
        let b = 987_654_321_123_u64 % Q;
        let bs = shoup_precompute(b, Q);
        for a in [0u64, 1, 999, Q - 1, Q / 2] {
            assert_eq!(mul_mod_shoup(a, b, bs, Q), mul_mod(a, b, Q));
        }
    }

    #[test]
    fn lazy_shoup_is_congruent_and_half_reduced() {
        let b = 987_654_321_123_u64 % Q;
        let bs = shoup_precompute(b, Q);
        // Lazy inputs may sit anywhere in [0, 4q).
        for a in [0u64, 1, Q - 1, Q, 2 * Q - 1, 2 * Q + 5, 4 * Q - 1] {
            let r = mul_mod_shoup_lazy(a, b, bs, Q);
            assert!(r < 2 * Q, "lazy result out of range: {r}");
            assert_eq!(r % Q, mul_mod(a % Q, b, Q));
        }
    }

    #[test]
    fn lazy_corrections_reduce() {
        for a in [0u64, 1, Q - 1, Q, 2 * Q - 1] {
            assert_eq!(reduce_2q(a, Q), a % Q);
        }
        for a in [0u64, Q, 2 * Q, 3 * Q + 7, 4 * Q - 1] {
            assert_eq!(reduce_4q(a, Q), a % Q);
        }
    }

    #[test]
    fn barrett_matches_remainder_at_the_range_edges() {
        for q in [2u64, 3, 1 << 20, Q, (1 << 63) - 25] {
            let r = Barrett::new(q);
            let wide = q as u128;
            for x in [0, 1, wide - 1, wide, 7 * wide, u128::MAX - 1, u128::MAX] {
                assert_eq!(r.reduce(x) as u128, x % wide, "q={q} x={x}");
            }
            for x in [0, 1, q - 1, q, u64::MAX] {
                assert_eq!(r.reduce_u64(x), x % q, "q={q} x={x}");
            }
            for x in [0, -1, 1 - q as i64, -(q as i64), i64::MIN, i64::MAX] {
                assert_eq!(r.reduce_i64(x), reduce_signed(x, q), "q={q} x={x}");
            }
        }
    }

    #[test]
    fn mul_add_matches_composition() {
        let (a, b, c) = (123_456_789, 987_654_321, 555);
        assert_eq!(mul_add_mod(a, b, c, Q), add_mod(mul_mod(a, b, Q), c, Q));
    }
}
