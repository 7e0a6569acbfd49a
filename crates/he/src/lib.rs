//! From-scratch RNS homomorphic encryption: the BFV and CKKS schemes.
//!
//! This crate is the reproduction's substitute for Microsoft SEAL. It
//! implements the two vector HE schemes CHOCO targets:
//!
//! * **BFV** ([`bfv`]) — exact integer arithmetic modulo a plaintext
//!   modulus `t`, with SIMD batching ([`batch`]), Galois rotations,
//!   ciphertext multiplication with relinearization, and SEAL-compatible
//!   invariant-noise-budget measurement.
//! * **CKKS** ([`ckks`]) — approximate fixed-point arithmetic with the
//!   canonical-embedding encoder, rescaling, and rotations.
//!
//! Both sit on one RLWE core ([`rlwe`]): key types, key generation, the
//! Eq. 2 encryption, Galois/relinearization key switching and add/sub over
//! ciphertext parts exist once, and the schemes add only what differs.
//!
//! Ciphertext coefficients are stored in RNS form over NTT-friendly primes
//! ([`params`]); the last prime of a parameter set is the *special prime*
//! reserved for key switching, exactly as in SEAL, so a parameter set
//! `{58,58,59}` yields 2-residue data ciphertexts — the property the paper
//! exploits to halve ciphertext size (§3.3, §5.3).
//!
//! # Example: BFV SIMD round trip
//!
//! ```
//! use choco_he::params::HeParams;
//! use choco_he::bfv::BfvContext;
//! use choco_prng::Blake3Rng;
//!
//! # fn main() -> Result<(), choco_he::HeError> {
//! let params = HeParams::bfv(4096, &[36, 36, 37], 17)?;
//! let ctx = BfvContext::new(&params)?;
//! let mut rng = Blake3Rng::from_seed(b"doc example");
//! let keys = ctx.keygen(&mut rng);
//! let values = vec![1u64, 2, 3, 4];
//! let pt = ctx.batch_encoder()?.encode(&values)?;
//! let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
//! let out = ctx.batch_encoder()?.decode(&ctx.decryptor(keys.secret_key()).decrypt(&ct))?;
//! assert_eq!(&out[..4], &values[..]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Panics hide protocol bugs: outside tests, prefer typed errors (PR 1's
// robustness audit). New `unwrap`/`expect` calls in library code must either
// be converted to `Result` or carry a `# Panics` contract at the public API.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Reference-style loops index multiple arrays in lockstep; the index
// form is clearer than zipped iterators for these numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod bfv;
pub mod cache;
pub mod ckks;
pub mod error;
pub mod keyswitch;
pub mod params;
pub mod rlwe;
pub mod rnspoly;
pub mod scheme;
pub mod serialize;

pub use cache::{CacheCounters, OperandCache};
pub use error::HeError;
pub use params::{HeParams, SchemeType};
pub use scheme::{Bfv, Ckks, HeScheme};
