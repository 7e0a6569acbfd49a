//! The CHOCO workload suite (§5.1).
//!
//! Every application the paper evaluates, rebuilt on the `choco` protocol
//! layer:
//!
//! * [`dnn`] — the four quantized image-classification networks of Table 5
//!   (LeNet-5-Small/Large, SqueezeNet, VGG16) with MAC / parameter /
//!   communication accounting, the Figure 15 convolution microbenchmark
//!   generator, and a real encrypted convolution layer executed through the
//!   client-aided protocol;
//! * [`pagerank`] — encrypted PageRank in both BFV and CKKS with a
//!   configurable refresh schedule (Figure 13), plus a plaintext reference;
//! * [`distance`] — KNN / K-Means distance kernels in CKKS with the five
//!   packing variants of Figure 9 (point-major, dimension-major, their
//!   stacked forms, and collapsed point-major);
//! * [`pipeline`] — the whole LeNet-style network chained from the conv
//!   layer, the client-side non-linear stages and the encrypted FC matvec;
//! * [`resumable`] — the step-granular contract the four client-aided
//!   workloads above are written against ([`resumable::ResumableWorkload`]:
//!   one state machine per workload, which the one-shot runners loop over
//!   and the crash-recovery harnesses checkpoint between steps);
//! * [`circuits`] — compiler-IR twins of the four workload kernels, the
//!   programs `choco-verify` statically certifies before upload;
//! * [`protocols`] — analytic communication models of the seven prior
//!   privacy-preserving protocols Figure 10 compares against.

#![forbid(unsafe_code)]
// Panics hide protocol bugs: outside tests, prefer typed errors (PR 1's
// robustness audit). New `unwrap`/`expect` calls in library code must either
// be converted to `Result` or carry a `# Panics` contract at the public API.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Reference-style loops index multiple arrays in lockstep; the index
// form is clearer than zipped iterators for these numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod circuits;
pub mod client_ops;
pub mod distance;
pub mod dnn;
pub mod pagerank;
pub mod pipeline;
pub mod protocols;
pub mod remote;
pub mod resumable;
