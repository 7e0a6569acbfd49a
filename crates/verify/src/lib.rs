//! `choco-verify`: static verification of compiled HE circuits.
//!
//! The offload model only works if the client can trust that a compiled
//! circuit will decrypt correctly *before* paying to upload ciphertexts.
//! This crate checks that — without executing anything — by abstract
//! interpretation over a borrowed [`Circuit`] view of the compiler's own
//! IR, which lives here ([`Op`], [`NodeId`], [`NodeMeta`]; CHET-style
//! static checking; see DESIGN.md §13):
//!
//! * **level/rescale discipline** (`LEVEL001–004`): binary operands meet at
//!   the same level, every multiply is rescaled back to the waterline
//!   before its result is consumed, and the chain never exhausts the
//!   modulus tower;
//! * **CKKS scale tracking** (`SCALE001–003`): `Add`/`Sub` operand scales
//!   agree within tolerance and outputs land on the target scale band;
//! * **BFV noise budget** (`NOISE001`): a conservative worst-case bound
//!   from the paper's parameter cost model must stay positive at every
//!   output;
//! * **Galois-key coverage** (`KEY001`): every rotation step the circuit
//!   requests is in the key set the client will generate;
//! * **slot-shape compatibility** (`SLOT001–002`): packed operand widths
//!   are mutually consistent and fit the parameter set's slot capacity.
//!
//! Structural soundness (`STRUCT001–003`) is checked first; the abstract
//! pass only runs on well-formed graphs. Every diagnostic names the
//! offending node id, its op, and the violated invariant, in the same
//! fixture-pinnable style as `choco-lint`.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod circuit;
pub mod report;

pub use analyze::{analyze, verify, AbstractState, NoiseModel, Scheme, ValueKind, VerifyOptions};
pub use circuit::{Circuit, NodeId, NodeMeta, Op};
pub use report::{NodeRow, VerifyReport};

use std::fmt;

/// Verification rule identifiers (stable textual ids, lint-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// An operand refers to itself or a later node (topology violation).
    Struct001,
    /// Ciphertext/plaintext kind mismatch at an operand position.
    Struct002,
    /// The circuit has no outputs, or an output is not a ciphertext.
    Struct003,
    /// Binary-op operand levels differ.
    Level001,
    /// A value above the rescale waterline is consumed without the rescale
    /// the options demand (the "missed rescale after Mul" case).
    Level002,
    /// The modulus tower is exhausted (rescale/mod-switch below level 1).
    Level003,
    /// A node's claimed (compiler-assigned) level disagrees with the
    /// recomputed level.
    Level004,
    /// `Add`/`Sub` operand scales differ beyond tolerance.
    Scale001,
    /// An output scale misses the target band around the waterline.
    Scale002,
    /// A node's claimed scale disagrees with the recomputed scale.
    Scale003,
    /// The worst-case BFV noise budget goes negative before an output.
    Noise001,
    /// A rotation step is not covered by the Galois key set.
    Key001,
    /// Operand slot widths are incompatible (silent truncation hazard).
    Slot001,
    /// A packed width exceeds the parameter set's slot capacity.
    Slot002,
}

impl RuleId {
    /// Stable id used in diagnostics, tests, and JSON output.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::Struct001 => "STRUCT001",
            RuleId::Struct002 => "STRUCT002",
            RuleId::Struct003 => "STRUCT003",
            RuleId::Level001 => "LEVEL001",
            RuleId::Level002 => "LEVEL002",
            RuleId::Level003 => "LEVEL003",
            RuleId::Level004 => "LEVEL004",
            RuleId::Scale001 => "SCALE001",
            RuleId::Scale002 => "SCALE002",
            RuleId::Scale003 => "SCALE003",
            RuleId::Noise001 => "NOISE001",
            RuleId::Key001 => "KEY001",
            RuleId::Slot001 => "SLOT001",
            RuleId::Slot002 => "SLOT002",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One verification finding: the violated rule, the offending node, its op
/// kind, and a human-readable account of the invariant that broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Index of the offending node in the circuit.
    pub node: usize,
    /// Op kind of the offending node (e.g. `"Mul"`).
    pub op: String,
    /// What broke, with the concrete abstract values involved.
    pub msg: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: RuleId, node: usize, op: &str, msg: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            node,
            op: op.to_string(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} node {} ({}): {}",
            self.rule.id(),
            self.node,
            self.op,
            self.msg
        )
    }
}

/// Verification failure: the non-empty list of diagnostics, ordered by
/// (node, rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// All findings, most upstream node first.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyError {
    /// True when `rule` fired on `node` — the shape mutation tests pin.
    pub fn has(&self, rule: RuleId, node: usize) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.rule == rule && d.node == node)
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.diagnostics.split_first() {
            Some((first, [])) => write!(f, "{first}"),
            Some((first, rest)) => write!(f, "{first} (+{} more)", rest.len()),
            None => write!(f, "verification failed with no diagnostics (bug)"),
        }
    }
}

impl std::error::Error for VerifyError {}
