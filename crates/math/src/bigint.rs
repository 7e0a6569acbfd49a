//! Arbitrary-precision unsigned integers on 64-bit limbs.
//!
//! The HE stack needs exact integers a few hundred bits wide: CRT
//! composition of RNS residues (`k ≤ 16` primes of ≤ 60 bits), the `t/q`
//! scale-and-round in BFV decryption and multiplication, and centered-norm
//! noise measurement. [`UBig`] provides exactly those operations — schoolbook
//! multiplication and Knuth Algorithm D division — with no dependencies.
//!
//! The hot paths do not allocate a `UBig` per value: they work on limb
//! slices in a caller's buffer ([`crate::rns::RnsBasis::compose_centered_into`])
//! through the free functions here, and `UBig`'s own `to_f64`, `log2` and
//! `rem_u64` are thin wrappers over the same functions, so the two cannot
//! disagree.

use std::cmp::Ordering;

/// An unsigned big integer stored as little-endian 64-bit limbs with no
/// trailing zero limbs (the canonical form of zero is an empty limb vector).
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// The value 0.
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }

    /// Constructs from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut x = UBig {
            limbs: vec![lo, hi],
        };
        x.normalize();
        x
    }

    /// Constructs from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut x = UBig {
            limbs: limbs.to_vec(),
        };
        x.normalize();
        x
    }

    /// Borrows the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() as u32 * 64 - top.leading_zeros(),
        }
    }

    /// Approximate base-2 logarithm (`-inf` is represented as `f64::NEG_INFINITY`
    /// for the value 0): [`limbs_log2`] of the limbs.
    pub fn log2(&self) -> f64 {
        limbs_log2(&self.limbs)
    }

    /// Approximate conversion to `f64` (exact for values below 2^53):
    /// [`limbs_to_f64`] of the limbs.
    pub fn to_f64(&self) -> f64 {
        limbs_to_f64(&self.limbs)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Converts to `u64`, panicking on overflow.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 64 bits.
    pub fn to_u64(&self) -> u64 {
        match self.limbs.len() {
            0 => 0,
            1 => self.limbs[0],
            _ => panic!("UBig does not fit in u64"),
        }
    }

    /// Sum of two big integers.
    pub fn add(&self, other: &UBig) -> UBig {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.len() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = a[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Adds a `u64`.
    pub fn add_u64(&self, v: u64) -> UBig {
        self.add(&UBig::from_u64(v))
    }

    /// Difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (results are unsigned).
    pub fn sub(&self, other: &UBig) -> UBig {
        assert!(self >= other, "UBig subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Product of two big integers (schoolbook; operands here are ≤ ~8 limbs).
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Product with a `u64`.
    pub fn mul_u64(&self, v: u64) -> UBig {
        self.mul(&UBig::from_u64(v))
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u32) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: u32) -> UBig {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Remainder modulo a `u64` divisor.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        limbs_rem(&self.limbs, d)
    }

    /// Quotient and remainder dividing by a `u64`.
    pub fn divrem_u64(&self, d: u64) -> (UBig, u64) {
        assert!(d != 0, "division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quo = UBig { limbs: q };
        quo.normalize();
        (quo, rem as u64)
    }

    /// Quotient and remainder `(self / d, self % d)` via Knuth Algorithm D.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn divrem(&self, d: &UBig) -> (UBig, UBig) {
        assert!(!d.is_zero(), "division by zero");
        if self < d {
            return (UBig::zero(), self.clone());
        }
        if d.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(d.limbs[0]);
            return (q, UBig::from_u64(r));
        }
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = d.limbs.last().unwrap().leading_zeros();
        let u = self.shl(shift);
        let v = d.shl(shift);
        let n = v.limbs.len();
        let mut u_limbs = u.limbs.clone();
        u_limbs.push(0); // room for the virtual high limb
        let m = u_limbs.len() - n - 1;
        let vn1 = v.limbs[n - 1];
        let vn2 = v.limbs[n - 2];
        let mut q_limbs = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two limbs.
            let num = ((u_limbs[j + n] as u128) << 64) | u_limbs[j + n - 1] as u128;
            let mut qhat = num / vn1 as u128;
            let mut rhat = num % vn1 as u128;
            while qhat >> 64 != 0
                || qhat * vn2 as u128 > ((rhat << 64) | u_limbs[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vn1 as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = u_limbs[j + i] as i128 - (p as u64) as i128 - borrow;
                u_limbs[j + i] = sub as u64;
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = u_limbs[j + n] as i128 - carry as i128 - borrow;
            u_limbs[j + n] = sub as u64;

            if sub < 0 {
                // D6: qhat was one too large; add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u_limbs[j + i] as u128 + v.limbs[i] as u128 + carry;
                    u_limbs[j + i] = s as u64;
                    carry = s >> 64;
                }
                u_limbs[j + n] = (u_limbs[j + n] as u128 + carry) as u64;
            }
            q_limbs[j] = qhat as u64;
        }

        let mut quo = UBig { limbs: q_limbs };
        quo.normalize();
        let mut rem = UBig {
            limbs: u_limbs[..n].to_vec(),
        };
        rem.normalize();
        (quo, rem.shr(shift))
    }

    /// Rounded division `round(self / d)` (round-half-up).
    pub fn div_round(&self, d: &UBig) -> UBig {
        let (q, r) = self.divrem(d);
        // round up when 2r >= d
        if r.mul_u64(2) >= *d {
            q.add_u64(1)
        } else {
            q
        }
    }
}

/// Approximate `f64` value of little-endian `limbs` (high zero limbs
/// allowed): Horner's rule from the top limb, exact below 2^53.
pub fn limbs_to_f64(limbs: &[u64]) -> f64 {
    limbs
        .iter()
        .rev()
        .fold(0.0, |acc, &l| acc * 18446744073709551616.0 + l as f64)
}

/// Approximate base-2 logarithm of little-endian `limbs` (high zero limbs
/// allowed; `f64::NEG_INFINITY` for zero): the top 128 significant bits as
/// the mantissa, plus 64 per limb below them.
pub fn limbs_log2(mut limbs: &[u64]) -> f64 {
    while let [rest @ .., 0] = limbs {
        limbs = rest;
    }
    match limbs {
        [] => f64::NEG_INFINITY,
        [x] => (*x as f64).log2(),
        [.., lo, hi] => {
            let v = (u128::from(*hi) << 64) | u128::from(*lo);
            let exp = (limbs.len() as i64 - 2) * 64;
            (v as f64).log2() + exp as f64
        }
    }
}

/// `limbs mod d` for little-endian `limbs`, `d > 0`.
pub(crate) fn limbs_rem(limbs: &[u64], d: u64) -> u64 {
    let rem = limbs.iter().rev().fold(0u128, |rem, &l| {
        ((rem << 64) | u128::from(l)) % u128::from(d)
    });
    rem as u64
}

/// `acc += a · m` over little-endian limbs of one width; a carry out of
/// the top limb is dropped (callers size `acc` for the sum).
pub(crate) fn mac_limbs(acc: &mut [u64], a: &[u64], m: u64) {
    let mut carry = 0u128;
    for (slot, &x) in acc.iter_mut().zip(a) {
        // ≤ (2^64 − 1) + (2^64 − 1)² + (2^64 − 1) = 2^128 − 1.
        let cur = u128::from(*slot) + u128::from(x) * u128::from(m) + carry;
        *slot = cur as u64;
        carry = cur >> 64;
    }
}

/// Whether `a < b`, for little-endian limb slices of one width, without a
/// data-dependent branch: the borrow out of `a − b`, as 0 or 1.
pub(crate) fn lt_limbs(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).fold(0, |borrow, (&x, &y)| {
        let (d, b1) = x.overflowing_sub(y);
        let (_, b2) = d.overflowing_sub(borrow);
        u64::from(b1 | b2)
    })
}

/// `a −= b & mask` over little-endian limbs of one width (`mask` all ones
/// or zero): a subtraction selected without a branch.
pub(crate) fn sub_limbs_masked(a: &mut [u64], b: &[u64], mask: u64) {
    let mut borrow = 0;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y & mask);
        let (d, b2) = d.overflowing_sub(borrow);
        *x = d;
        borrow = u64::from(b1 | b2);
    }
}

/// `a = b − a` where `mask` is all ones, `a` unchanged where it is zero,
/// over little-endian limbs of one width (`a ≤ b` where selected).
pub(crate) fn negate_from_masked(a: &mut [u64], b: &[u64], mask: u64) {
    let mut borrow = 0;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = y.overflowing_sub(*x);
        let (d, b2) = d.overflowing_sub(borrow);
        borrow = u64::from(b1 | b2);
        *x = (d & mask) | (*x & !mask);
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        UBig::from_u64(v)
    }
}

impl std::fmt::Display for UBig {
    /// Decimal rendering (slow path, used only in debugging output).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        write!(f, "{}", std::str::from_utf8(&digits).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_normalize() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::from_limbs(&[0, 0, 0]), UBig::zero());
        assert_eq!(UBig::one().to_u64(), 1);
        assert_eq!(UBig::zero().bit_len(), 0);
        assert_eq!(UBig::one().bit_len(), 1);
    }

    #[test]
    fn add_with_carries() {
        let a = UBig::from_limbs(&[u64::MAX, u64::MAX]);
        let b = UBig::one();
        assert_eq!(a.add(&b), UBig::from_limbs(&[0, 0, 1]));
    }

    #[test]
    fn sub_with_borrows() {
        let a = UBig::from_limbs(&[0, 0, 1]);
        let b = UBig::one();
        assert_eq!(a.sub(&b), UBig::from_limbs(&[u64::MAX, u64::MAX]));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        UBig::one().sub(&UBig::from_u64(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xFFFF_FFFF_FFFF_FFFFu64;
        let b = 0x1234_5678_9ABC_DEF0u64;
        let prod = UBig::from_u64(a).mul(&UBig::from_u64(b));
        assert_eq!(prod, UBig::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = UBig::from_limbs(&[0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210]);
        for s in [1u32, 13, 64, 65, 100] {
            assert_eq!(a.shl(s).shr(s), a);
        }
    }

    #[test]
    fn divrem_reconstructs_dividend() {
        let a = UBig::from_limbs(&[0xDEAD_BEEF, 0xCAFE_BABE, 0x1234_5678, 0x9]);
        let d = UBig::from_limbs(&[0xFFFF_FFFF_0000_0001, 0x3]);
        let (q, r) = a.divrem(&d);
        assert!(r < d);
        assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn divrem_u64_agrees_with_divrem() {
        let a = UBig::from_limbs(&[123, 456, 789]);
        let d = 1_000_003u64;
        let (q1, r1) = a.divrem_u64(d);
        let (q2, r2) = a.divrem(&UBig::from_u64(d));
        assert_eq!(q1, q2);
        assert_eq!(UBig::from_u64(r1), r2);
        assert_eq!(a.rem_u64(d), r1);
    }

    #[test]
    fn division_add_back_branch() {
        // Crafted so the Knuth D "add back" (step D6) path executes:
        // dividend top limbs make qhat overestimate.
        let u = UBig::from_limbs(&[0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff]);
        let v = UBig::from_limbs(&[1, 0, 0x8000_0000_0000_0000]);
        let (q, r) = u.divrem(&v);
        assert!(r < v);
        assert_eq!(q.mul(&v).add(&r), u);
    }

    #[test]
    fn div_round_half_up() {
        let ten = UBig::from_u64(10);
        assert_eq!(UBig::from_u64(24).div_round(&ten).to_u64(), 2);
        assert_eq!(UBig::from_u64(25).div_round(&ten).to_u64(), 3);
        assert_eq!(UBig::from_u64(26).div_round(&ten).to_u64(), 3);
    }

    #[test]
    fn ordering_is_numeric() {
        let a = UBig::from_limbs(&[0, 1]); // 2^64
        let b = UBig::from_u64(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        let a = UBig::from_u128(123_456_789_012_345_678_901_234_567_890u128);
        assert_eq!(a.to_string(), "123456789012345678901234567890");
        assert_eq!(UBig::zero().to_string(), "0");
    }

    #[test]
    fn log2_tracks_bit_len() {
        let a = UBig::from_u64(1 << 40);
        assert!((a.log2() - 40.0).abs() < 1e-9);
        let b = UBig::one().shl(200);
        assert!((b.log2() - 200.0).abs() < 1e-6);
    }
}
