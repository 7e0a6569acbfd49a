//! CHOCO: Client-aided HE for Opaque Compute Offloading.
//!
//! This crate is the paper's primary contribution: a *client-optimized*
//! system for encrypted compute offloading. A resource-constrained client
//! encrypts sensitive data; an untrusted server applies encrypted linear
//! algebra; the client decrypts intermediate results, applies plaintext
//! non-linear operations, repacks, and re-encrypts. CHOCO minimizes the
//! client's costs — ciphertext size, communication, and enc/decryption work —
//! through three mechanisms:
//!
//! * **Rotational redundancy** ([`rotation`]): a packing that appends
//!   wrap-around values on both sides of a window so that a *windowed*
//!   rotation costs one cheap ciphertext rotation instead of two masking
//!   multiplies + two rotations + an add. Masking multiplies burn tens of
//!   bits of noise budget (Table 4), forcing larger HE parameters; avoiding
//!   them enables the small parameter sets of Table 3.
//! * **Channel stacking** ([`stacking`]): redundant per-channel windows are
//!   stacked at power-of-two strides in one ciphertext, so convolutions
//!   align with plain rotations only and channel accumulation is a
//!   logarithmic rotate-add tree, split like [`linalg`]'s matvec.
//! * **Client-driven parameter minimization** ([`params`]): choose the
//!   smallest `(N, k, t)` that meets 128-bit security and the workload's
//!   noise demand, shrinking every ciphertext the client must touch.
//!
//! The [`protocol`] module provides the client/server roles and the
//! communication ledger used by every experiment that reports
//! communication (Figures 10, 11, 13, 14).
//!
//! # Example
//!
//! ```
//! use choco::rotation::RedundantLayout;
//!
//! // Pack a window of 4 values with enough redundancy to rotate by ±2.
//! let layout = RedundantLayout::new(4, 2);
//! let packed = layout.pack(&[1, 2, 3, 4]);
//! assert_eq!(packed, vec![3, 4, 1, 2, 3, 4, 1, 2]);
//! // After any cyclic shift by up to 2, the window still holds a clean
//! // windowed rotation of the original values.
//! ```

#![forbid(unsafe_code)]
// Panics hide protocol bugs: outside tests, prefer typed errors (PR 1's
// robustness audit). New `unwrap`/`expect` calls in library code must either
// be converted to `Result` or carry a `# Panics` contract at the public API.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod compiler;
pub mod linalg;
pub mod params;
pub mod protocol;
pub mod remote;
pub mod rotation;
pub mod stacking;
pub mod transport;

pub use protocol::{Client, CommLedger, LedgerBook, Server};
pub use rotation::RedundantLayout;
pub use stacking::StackedLayout;
pub use transport::Session;
