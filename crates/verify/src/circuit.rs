//! The program IR — one definition, shared by the compiler and the verifier.
//!
//! `choco-verify` sits *below* the compiler in the dependency graph, so the
//! IR lives here and `choco::compiler` re-exports it: a source `Program` and
//! a `CompiledProgram` are lists of [`Op`]s over [`NodeId`]s, and a compiled
//! one also carries one [`NodeMeta`] per node, the compiler's scale/level
//! claim. The verifier reads either through a borrowed [`Circuit`] view —
//! nothing is lowered or copied — and cross-checks the claims against its
//! own recomputation (`LEVEL004`/`SCALE003`).

/// A node handle: the index of a node in its op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Builds a handle from a raw index. An out-of-range or
    /// forward-referencing id is rejected by the compiler
    /// (`CompileError::MalformedProgram`) and by the verifier
    /// (`STRUCT001`), never executed.
    pub fn new(index: usize) -> NodeId {
        NodeId(index)
    }

    /// The raw node index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operation kinds of the IR. Operands are earlier nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// An encrypted input, by name.
    Input(String),
    /// A plaintext constant vector (server-known, e.g. weights).
    Constant(Vec<f64>),
    /// Ciphertext + ciphertext.
    Add(NodeId, NodeId),
    /// Ciphertext − ciphertext.
    Sub(NodeId, NodeId),
    /// Ciphertext × ciphertext (with relinearization).
    Mul(NodeId, NodeId),
    /// Ciphertext × plaintext constant.
    MulPlain(NodeId, NodeId),
    /// Ciphertext + plaintext constant.
    AddPlain(NodeId, NodeId),
    /// Slot rotation (left by the given amount).
    Rotate(NodeId, i64),
    /// Divide by the level's last prime (inserted by the compiler).
    Rescale(NodeId),
    /// Drop to a lower level without rescaling (inserted by the compiler).
    ModSwitch(NodeId),
}

impl Op {
    /// Short op-kind name used in diagnostics (`"Mul"`, `"Rescale"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input(_) => "Input",
            Op::Constant(_) => "Constant",
            Op::Add(..) => "Add",
            Op::Sub(..) => "Sub",
            Op::Mul(..) => "Mul",
            Op::MulPlain(..) => "MulPlain",
            Op::AddPlain(..) => "AddPlain",
            Op::Rotate(..) => "Rotate",
            Op::Rescale(_) => "Rescale",
            Op::ModSwitch(_) => "ModSwitch",
        }
    }

    /// Full rendering with operand indices (`"Mul(3, 5)"`, a constant by
    /// its slot width: `"Constant[8]"`), for the per-node state dump.
    pub fn describe(&self) -> String {
        match self {
            Op::Input(name) => format!("Input({name})"),
            Op::Constant(values) => format!("Constant[{}]", values.len()),
            Op::Add(a, b) => format!("Add({}, {})", a.0, b.0),
            Op::Sub(a, b) => format!("Sub({}, {})", a.0, b.0),
            Op::Mul(a, b) => format!("Mul({}, {})", a.0, b.0),
            Op::MulPlain(a, c) => format!("MulPlain({}, {})", a.0, c.0),
            Op::AddPlain(a, c) => format!("AddPlain({}, {})", a.0, c.0),
            Op::Rotate(a, s) => format!("Rotate({}, {s})", a.0),
            Op::Rescale(a) => format!("Rescale({})", a.0),
            Op::ModSwitch(a) => format!("ModSwitch({})", a.0),
        }
    }

    /// Operands, in order.
    pub fn operands(&self) -> impl Iterator<Item = NodeId> {
        let operands = match *self {
            Op::Input(_) | Op::Constant(_) => [None, None],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MulPlain(a, b)
            | Op::AddPlain(a, b) => [Some(a), Some(b)],
            Op::Rotate(a, _) | Op::Rescale(a) | Op::ModSwitch(a) => [Some(a), None],
        };
        operands.into_iter().flatten()
    }
}

/// Per-node metadata the compiler assigns — its claim, which the verifier
/// cross-checks against its own recomputation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMeta {
    /// log2 of the fixed-point scale carried by the node's value.
    pub scale_bits: f64,
    /// Level (number of active data primes) the node's value lives at.
    pub level: usize,
}

/// A program as the verifier reads it: op list, output nodes, and (for
/// compiled programs) the compiler's per-node claims. `claims == None`
/// marks an *unscheduled* source program: the analyzer then replays the
/// compiler's scheduling abstractly (virtual rescales/mod-switches) to
/// bound depth, but skips the discipline rules that only make sense once a
/// schedule exists.
#[derive(Debug, Clone, Copy)]
pub struct Circuit<'a> {
    /// Operations in topological order.
    pub ops: &'a [Op],
    /// Output nodes (must be ciphertexts).
    pub outputs: &'a [NodeId],
    /// Compiler claims, one per op, for a compiled program.
    pub claims: Option<&'a [NodeMeta]>,
}

impl Circuit<'_> {
    /// True when per-node compiler claims are present (compiled program).
    pub fn is_scheduled(&self) -> bool {
        self.claims.is_some()
    }
}
