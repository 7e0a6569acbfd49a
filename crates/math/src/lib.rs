//! Number-theoretic and polynomial substrate for the CHOCO reproduction.
//!
//! This crate provides everything the HE layer (`choco-he`) needs and that
//! the paper obtained from Microsoft SEAL's internals:
//!
//! * 64-bit modular arithmetic, and a precomputed Barrett reducer for
//!   the hot loops ([`modops`])
//! * deterministic Miller–Rabin primality and NTT-friendly prime generation
//!   ([`prime`])
//! * negacyclic Number Theoretic Transforms over `Z_q[x]/(x^N + 1)`
//!   ([`ntt`])
//! * an unsigned big-integer type with exact division ([`bigint`])
//! * Residue Number System bases with CRT composition ([`rns`])
//! * a complex FFT for the CKKS canonical embedding ([`fft`])
//! * polynomial helpers over a single modulus ([`poly`])
//! * a dependency-free persistent worker pool for slice-parallel kernels
//!   ([`par`])
//! * the vector kernels — AVX2 and AVX-512 IFMA NTTs, modular add and
//!   subtract, 8-lane BLAKE3, the Box–Muller error draw — runtime-dispatched
//!   ([`simd`])
//! * a size-classed buffer pool for zero-allocation steady state ([`pool`])
//!
//! Everything is implemented from scratch; no external arithmetic crates are
//! used so that the whole cryptographic stack is auditable in-repo.
//!
//! # Example
//!
//! ```
//! use choco_math::{ntt::NttTable, prime::generate_ntt_primes};
//!
//! let q = generate_ntt_primes(30, 1024, 1)[0];
//! let table = NttTable::new(1024, q).unwrap();
//! let mut a: Vec<u64> = (0..1024u64).collect();
//! let orig = a.clone();
//! table.forward(&mut a);
//! table.inverse(&mut a);
//! assert_eq!(a, orig);
//! ```

// Deny (not forbid) so that exactly two audited modules can opt back in
// with a module-local allow: `simd`, which confines `core::arch` intrinsics
// behind runtime feature detection, and `par`, for the one lifetime erasure
// that lets standing pool workers call a borrowed closure. Every unsafe
// token is pinned by count in lint.toml (UNSAFE001/UNSAFE002); all other
// modules remain unsafe-free.
#![deny(unsafe_code)]
// Reference-style loops index multiple arrays in lockstep; the index
// form is clearer than zipped iterators for these numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod bigint;
pub mod fft;
pub mod modops;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod pool;
pub mod prime;
pub mod rns;
pub mod simd;

pub use bigint::UBig;
pub use ntt::NttTable;
pub use rns::RnsBasis;
