//! BFV SIMD batch encoding (SEAL's `BatchEncoder`).
//!
//! When the plaintext modulus `t` is a prime with `t ≡ 1 (mod 2N)`, the
//! plaintext ring `Z_t[x]/(x^N + 1)` splits into `N` independent slots
//! arranged as a `2 × N/2` matrix. Polynomial multiplication then acts
//! slot-wise, and the Galois automorphisms `x → x^{3^r}` / `x → x^{-1}`
//! cyclically rotate the rows / swap them.
//!
//! The slot-to-evaluation-point map is derived *empirically* at construction
//! time: we transform the monomial `x` to discover which NTT output index
//! holds which power of `ψ`, then place slot `i` of row one at exponent
//! `3^i` and slot `i` of row two at exponent `−3^i`. This keeps the encoder
//! correct for any NTT output ordering and is validated by the rotation
//! tests below.

use crate::bfv::Plaintext;
use crate::error::HeError;
use choco_math::modops::{mul_mod, Barrett};
use choco_math::ntt::NttTable;
use std::collections::HashMap;

/// Encodes vectors of integers mod `t` into plaintext polynomials and back.
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    n: usize,
    t: u64,
    table: NttTable,
    /// `slot_to_index[i]` = NTT output index holding slot `i`'s value.
    slot_to_index: Vec<usize>,
}

impl BatchEncoder {
    /// Builds the encoder for degree `n` and plain modulus `t`.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::BatchingUnsupported`] when `t` is not an
    /// NTT-friendly prime for degree `n`.
    pub fn new(n: usize, t: u64) -> Result<Self, HeError> {
        let table = NttTable::new(n, t).map_err(|_| HeError::BatchingUnsupported(t))?;
        // Discover exponent at each NTT output index by transforming x:
        // NTT(x)[i] = ψ^{e(i)} for some odd e(i).
        let mut xpoly = vec![0u64; n];
        xpoly[1] = 1;
        table.forward(&mut xpoly);
        let psi = table.psi();
        let m = 2 * n as u64;
        let mut val_to_exp: HashMap<u64, u64> = HashMap::with_capacity(n);
        let psi_sq = mul_mod(psi, psi, t);
        let mut v = psi;
        let mut e = 1u64;
        while e < m {
            val_to_exp.insert(v, e);
            v = mul_mod(v, psi_sq, t);
            e += 2;
        }
        let mut index_of_exp: HashMap<u64, usize> = HashMap::with_capacity(n);
        for (i, &val) in xpoly.iter().enumerate() {
            let exp = *val_to_exp
                .get(&val)
                .ok_or(HeError::BatchingUnsupported(t))?;
            index_of_exp.insert(exp, i);
        }
        // Row 1: slot i at exponent 3^i; row 2: slot i at exponent −3^i.
        let half = n / 2;
        let mut slot_to_index = vec![0usize; n];
        let mut pos = 1u64;
        for i in 0..half {
            slot_to_index[i] = index_of_exp[&pos];
            slot_to_index[half + i] = index_of_exp[&(m - pos)];
            pos = pos * 3 % m;
        }
        Ok(BatchEncoder {
            n,
            t,
            table,
            slot_to_index,
        })
    }

    /// Number of slots (`N`).
    pub fn slot_count(&self) -> usize {
        self.n
    }

    /// The plain modulus.
    pub fn plain_modulus(&self) -> u64 {
        self.t
    }

    /// Encodes up to `N` values (reduced mod `t`) into a plaintext;
    /// missing trailing slots are zero.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::TooManyValues`] when more than `N` values are given.
    pub fn encode(&self, values: &[u64]) -> Result<Plaintext, HeError> {
        if values.len() > self.n {
            return Err(HeError::TooManyValues {
                got: values.len(),
                capacity: self.n,
            });
        }
        let r = Barrett::new(self.t);
        let mut evals = vec![0u64; self.n];
        for (i, &v) in values.iter().enumerate() {
            evals[self.slot_to_index[i]] = r.reduce_u64(v);
        }
        self.table.inverse(&mut evals);
        Ok(Plaintext::from_coeffs(evals))
    }

    /// Encodes signed values (negatives map to `t − |v|`).
    ///
    /// # Errors
    ///
    /// Returns [`HeError::TooManyValues`] when more than `N` values are given.
    pub fn encode_signed(&self, values: &[i64]) -> Result<Plaintext, HeError> {
        let r = Barrett::new(self.t);
        let mapped: Vec<u64> = values.iter().map(|&v| r.reduce_i64(v)).collect();
        self.encode(&mapped)
    }

    /// Decodes a plaintext back into its `N` slot values.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] if the plaintext degree is wrong.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<u64>, HeError> {
        if pt.coeffs().len() != self.n {
            return Err(HeError::Mismatch(format!(
                "plaintext degree {} != {}",
                pt.coeffs().len(),
                self.n
            )));
        }
        let mut evals = pt.coeffs().to_vec();
        self.table.forward(&mut evals);
        Ok((0..self.n).map(|i| evals[self.slot_to_index[i]]).collect())
    }

    /// Decodes into centered signed values in `(−t/2, t/2]`.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] if the plaintext degree is wrong.
    pub fn decode_signed(&self, pt: &Plaintext) -> Result<Vec<i64>, HeError> {
        Ok(self
            .decode(pt)?
            .into_iter()
            .map(|v| choco_math::modops::center(v, self.t))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_math::poly::apply_galois;
    use choco_math::prime::generate_plain_modulus;

    fn encoder(n: usize) -> BatchEncoder {
        let t = generate_plain_modulus(17, n);
        BatchEncoder::new(n, t).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = encoder(64);
        let values: Vec<u64> = (0..64u64).map(|i| i * 11 % enc.plain_modulus()).collect();
        let pt = enc.encode(&values).unwrap();
        assert_eq!(enc.decode(&pt).unwrap(), values);
    }

    #[test]
    fn partial_vectors_pad_with_zero() {
        let enc = encoder(64);
        let pt = enc.encode(&[9, 8, 7]).unwrap();
        let out = enc.decode(&pt).unwrap();
        assert_eq!(&out[..3], &[9, 8, 7]);
        assert!(out[3..].iter().all(|&v| v == 0));
    }

    #[test]
    fn too_many_values_rejected() {
        let enc = encoder(64);
        let err = enc.encode(&vec![1u64; 65]).unwrap_err();
        assert!(matches!(
            err,
            HeError::TooManyValues {
                got: 65,
                capacity: 64
            }
        ));
    }

    #[test]
    fn polynomial_product_is_slotwise_product() {
        let enc = encoder(64);
        let t = enc.plain_modulus();
        let a: Vec<u64> = (0..64u64).map(|i| (i * 7 + 1) % t).collect();
        let b: Vec<u64> = (0..64u64).map(|i| (i * 13 + 5) % t).collect();
        let pa = enc.encode(&a).unwrap();
        let pb = enc.encode(&b).unwrap();
        let prod_poly = enc.table.negacyclic_mul(pa.coeffs(), pb.coeffs());
        let out = enc.decode(&Plaintext::from_coeffs(prod_poly)).unwrap();
        for i in 0..64 {
            assert_eq!(out[i], mul_mod(a[i], b[i], t), "slot {i}");
        }
    }

    #[test]
    fn galois_three_rotates_rows_left() {
        let enc = encoder(64);
        let half = 32usize;
        let values: Vec<u64> = (0..64).map(|i| i as u64 + 1).collect();
        let pt = enc.encode(&values).unwrap();
        let mut rotated = vec![0u64; 64];
        apply_galois(pt.coeffs(), 3, enc.plain_modulus(), &mut rotated);
        let out = enc.decode(&Plaintext::from_coeffs(rotated)).unwrap();
        for i in 0..half {
            assert_eq!(out[i], values[(i + 1) % half], "row1 slot {i}");
            assert_eq!(
                out[half + i],
                values[half + (i + 1) % half],
                "row2 slot {i}"
            );
        }
    }

    #[test]
    fn galois_minus_one_swaps_rows() {
        let enc = encoder(64);
        let values: Vec<u64> = (0..64).map(|i| i as u64 + 1).collect();
        let pt = enc.encode(&values).unwrap();
        let mut swapped = vec![0u64; 64];
        apply_galois(pt.coeffs(), 2 * 64 - 1, enc.plain_modulus(), &mut swapped);
        let out = enc.decode(&Plaintext::from_coeffs(swapped)).unwrap();
        assert_eq!(&out[..32], &values[32..]);
        assert_eq!(&out[32..], &values[..32]);
    }

    #[test]
    fn signed_encoding_centers_values() {
        let enc = encoder(64);
        let values: Vec<i64> = vec![-3, -2, -1, 0, 1, 2, 3];
        let pt = enc.encode_signed(&values).unwrap();
        let out = enc.decode_signed(&pt).unwrap();
        assert_eq!(&out[..7], &values[..]);
    }

    #[test]
    fn rejects_non_batching_modulus() {
        // 97 is prime but 97 ≢ 1 mod 128.
        assert!(matches!(
            BatchEncoder::new(64, 97).unwrap_err(),
            HeError::BatchingUnsupported(97)
        ));
    }

    #[test]
    fn works_at_production_degree() {
        let enc = encoder(8192);
        let values: Vec<u64> = (0..8192u64).collect();
        let pt = enc.encode(&values).unwrap();
        assert_eq!(enc.decode(&pt).unwrap(), values);
    }
}
