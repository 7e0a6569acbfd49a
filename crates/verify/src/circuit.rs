//! The program IR — one definition, shared by the compiler and the verifier.
//!
//! `choco-verify` sits *below* the compiler in the dependency graph, so the
//! IR lives here and `choco::compiler` re-exports it: a source `Program` and
//! a `CompiledProgram` are lists of [`Op`]s over [`NodeId`]s, and a compiled
//! one also carries one [`NodeMeta`] per node, the compiler's scale/level
//! claim. The verifier reads either through a borrowed [`Circuit`] view —
//! nothing is lowered or copied — and cross-checks the claims against its
//! own recomputation (`LEVEL004`/`SCALE003`).
//!
//! The IR has one interpreter: [`walk`] runs a [`Domain`] over a circuit
//! in topological order. [`Slots`] over a [`Ring`] is the plaintext
//! meaning — [`Reals`] for `execute_plain`, [`ModT`] for the ring a BFV
//! program runs in; `analyze`'s abstract state, the compiler's scheduler
//! and `optimize` are domains too.

use std::collections::HashMap;

/// A node handle: the index of a node in its op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Builds a handle from a raw index. An out-of-range or
    /// forward-referencing id is rejected by the compiler
    /// (`CompileError::MalformedProgram`), by the verifier (`STRUCT001`)
    /// and by [`walk`] ([`WalkError::ForwardReference`]), never executed.
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

/// Why a [`walk`] stopped. It never panics on a malformed circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkError {
    /// Node `node` is an input the domain holds no value for.
    MissingInput { node: usize, name: String },
    /// Node `node` reads `operand`, which is not an earlier node.
    ForwardReference { node: usize, operand: usize },
    /// An output names node `output`, past the circuit's last node.
    OutputOutOfRange { output: usize },
}

/// What each [`Op`] does to one domain's values. [`walk`] resolves the
/// operands, so every method sees earlier nodes' values only; `at` is the
/// node's index.
pub trait Domain {
    /// The value a node carries.
    type Value: Clone;
    /// Why the domain stops a walk; the walk's own stops convert into it.
    type Error: From<WalkError>;
    /// An `Input`'s value.
    fn input(&mut self, at: usize, name: &str) -> Step<Self>;
    /// A `Constant`'s value.
    fn constant(&mut self, at: usize, values: &[f64]) -> Step<Self>;
    /// `Add`, `Sub`, `Mul`, `MulPlain` or `AddPlain`, as `op` says.
    fn binary(&mut self, at: usize, op: &Op, a: &Self::Value, b: &Self::Value) -> Step<Self>;
    /// `Rotate`, `Rescale` or `ModSwitch`, as `op` says.
    fn unary(&mut self, at: usize, op: &Op, a: &Self::Value) -> Step<Self>;
}

/// One node's value in domain `D`, or why `D` stops there.
pub type Step<D> = Result<<D as Domain>::Value, <D as Domain>::Error>;

/// What a [`walk`] computed: every node's value, and the outputs' in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Walked<V> {
    /// One value per node, in circuit order.
    pub nodes: Vec<V>,
    /// The value of each output.
    pub outputs: Vec<V>,
}

/// Runs `domain` over `circuit`'s ops in order.
///
/// # Errors
///
/// Stops at the first node the domain refuses, or at the first operand or
/// output that names no earlier node ([`WalkError`]).
pub fn walk<D: Domain>(
    circuit: &Circuit<'_>,
    domain: &mut D,
) -> Result<Walked<D::Value>, D::Error> {
    let mut nodes: Vec<D::Value> = Vec::with_capacity(circuit.ops.len());
    for (at, op) in circuit.ops.iter().enumerate() {
        let arg = |id: NodeId| {
            let operand = id.index();
            nodes
                .get(operand)
                .ok_or(WalkError::ForwardReference { node: at, operand })
        };
        let value = match op {
            Op::Input(name) => domain.input(at, name)?,
            Op::Constant(values) => domain.constant(at, values)?,
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MulPlain(a, b)
            | Op::AddPlain(a, b) => domain.binary(at, op, arg(*a)?, arg(*b)?)?,
            Op::Rotate(a, _) | Op::Rescale(a) | Op::ModSwitch(a) => {
                domain.unary(at, op, arg(*a)?)?
            }
        };
        nodes.push(value);
    }
    let outputs = circuit
        .outputs
        .iter()
        .map(|o| {
            let output = o.index();
            let value = nodes.get(output).cloned();
            value.ok_or(WalkError::OutputOutOfRange { output })
        })
        .collect::<Result<_, _>>()?;
    Ok(Walked { nodes, outputs })
}

/// Slot arithmetic of one scheme's plaintexts.
pub trait Ring {
    /// One slot's value.
    type Slot: Copy + Default;
    /// `a + b`.
    fn add(&self, a: Self::Slot, b: Self::Slot) -> Self::Slot;
    /// `a − b`.
    fn sub(&self, a: Self::Slot, b: Self::Slot) -> Self::Slot;
    /// `a · b`.
    fn mul(&self, a: Self::Slot, b: Self::Slot) -> Self::Slot;
    /// The slots a `len`-value input or constant fills: the encoder
    /// zero-pads it to this many.
    fn width(&self, len: usize) -> usize;
    /// The block a rotation of a `len`-slot vector is cyclic within.
    fn block(&self, len: usize) -> usize;
}

/// BFV's slots: integers modulo `t` in two batching rows of `row` slots
/// each, a rotation cyclic within each row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModT {
    /// The plaintext modulus.
    pub t: u64,
    /// Slots per batching row, `N/2`.
    pub row: usize,
}

impl ModT {
    /// The ring a BFV program runs in under `params`.
    pub fn for_params(params: &choco_he::params::HeParams) -> ModT {
        ModT {
            t: params.plain_modulus(),
            row: params.degree() / 2,
        }
    }
}

impl Ring for ModT {
    type Slot = u64;
    fn add(&self, a: u64, b: u64) -> u64 {
        ((a as u128 + b as u128) % self.t as u128) as u64
    }
    fn sub(&self, a: u64, b: u64) -> u64 {
        ((a as u128 + self.t as u128 - (b % self.t) as u128) % self.t as u128) as u64
    }
    fn mul(&self, a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % self.t as u128) as u64
    }
    fn width(&self, _len: usize) -> usize {
        2 * self.row
    }
    fn block(&self, _len: usize) -> usize {
        self.row
    }
}

/// Real-valued slots, a rotation cyclic over the whole vector: the
/// semantics `execute_plain` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reals;

impl Ring for Reals {
    type Slot = f64;
    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn sub(&self, a: f64, b: f64) -> f64 {
        a - b
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }
    fn width(&self, len: usize) -> usize {
        len
    }
    fn block(&self, len: usize) -> usize {
        len
    }
}

/// The plaintext meaning of the IR over a ring: inputs looked up by name
/// and constants encoded by `constant`, both padded to the ring's width;
/// slot-wise arithmetic that zips to the shorter operand; rotations within
/// the ring's block; `Rescale` and `ModSwitch` as the identity.
pub struct Slots<'a, R: Ring, C> {
    ring: R,
    inputs: &'a HashMap<String, Vec<R::Slot>>,
    constant: C,
}

impl<'a, R: Ring, C: FnMut(&[f64]) -> Vec<R::Slot>> Slots<'a, R, C> {
    /// The domain of `ring` over `inputs`, constants encoded by `constant`.
    pub fn new(ring: R, inputs: &'a HashMap<String, Vec<R::Slot>>, constant: C) -> Self {
        Slots {
            ring,
            inputs,
            constant,
        }
    }

    fn pad(&self, mut slots: Vec<R::Slot>) -> Vec<R::Slot> {
        slots.resize(self.ring.width(slots.len()), R::Slot::default());
        slots
    }
}

impl<R: Ring, C: FnMut(&[f64]) -> Vec<R::Slot>> Domain for Slots<'_, R, C> {
    type Value = Vec<R::Slot>;
    type Error = WalkError;

    fn input(&mut self, at: usize, name: &str) -> Step<Self> {
        match self.inputs.get(name) {
            Some(slots) => Ok(self.pad(slots.clone())),
            None => Err(WalkError::MissingInput {
                node: at,
                name: name.to_string(),
            }),
        }
    }

    fn constant(&mut self, _at: usize, values: &[f64]) -> Step<Self> {
        let slots = (self.constant)(values);
        Ok(self.pad(slots))
    }

    fn binary(&mut self, _at: usize, op: &Op, a: &Vec<R::Slot>, b: &Vec<R::Slot>) -> Step<Self> {
        let f = match op {
            Op::Sub(..) => R::sub,
            Op::Mul(..) | Op::MulPlain(..) => R::mul,
            _ => R::add, // Add, AddPlain
        };
        Ok(a.iter()
            .zip(b)
            .map(|(&x, &y)| f(&self.ring, x, y))
            .collect())
    }

    fn unary(&mut self, _at: usize, op: &Op, a: &Vec<R::Slot>) -> Step<Self> {
        let &Op::Rotate(_, step) = op else {
            return Ok(a.clone());
        };
        let block = self.ring.block(a.len()).max(1);
        let shift = step.rem_euclid(block as i64) as usize;
        let from = |j: usize| j - j % block + (j % block + shift) % block;
        let slot = |j: usize| a.get(from(j)).copied().unwrap_or_default();
        Ok((0..a.len()).map(slot).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(index: usize) -> NodeId {
        NodeId::new(index)
    }

    fn input(name: &str) -> Op {
        Op::Input(name.into())
    }

    /// The outputs of `ops` over `ring`, constants taken as they are.
    fn slots<R: Ring<Slot = u64>>(
        ring: R,
        ops: &[Op],
        outputs: &[NodeId],
        x: Vec<u64>,
    ) -> Vec<Vec<u64>> {
        let inputs = HashMap::from([("x".to_string(), x)]);
        let circuit = Circuit {
            ops,
            outputs,
            claims: None,
        };
        let constant = |c: &[f64]| c.iter().map(|&v| v as u64).collect();
        walk(&circuit, &mut Slots::new(ring, &inputs, constant))
            .unwrap()
            .outputs
    }

    /// Every door a malformed circuit or a short input map knocks on
    /// returns a typed error, never a panic.
    #[test]
    fn walk_stops_with_typed_errors() {
        let cases = [
            (
                vec![input("x"), input("y"), Op::Add(n(0), n(1))],
                vec![n(2)],
                WalkError::MissingInput {
                    node: 1,
                    name: "y".into(),
                },
            ),
            (
                vec![input("x"), Op::Add(n(0), n(2)), input("x")],
                vec![n(1)],
                WalkError::ForwardReference {
                    node: 1,
                    operand: 2,
                },
            ),
            (
                vec![input("x")],
                vec![n(0), n(1)],
                WalkError::OutputOutOfRange { output: 1 },
            ),
        ];
        let inputs = HashMap::from([("x".to_string(), vec![1.0, 2.0])]);
        for (ops, outputs, want) in cases {
            let circuit = Circuit {
                ops: &ops,
                outputs: &outputs,
                claims: None,
            };
            let mut reals = Slots::new(Reals, &inputs, <[f64]>::to_vec);
            assert_eq!(walk(&circuit, &mut reals), Err(want.clone()));
            // `execute_plain` maps the one miss a compiled program can
            // meet to its own typed error.
            if let WalkError::MissingInput { name, .. } = want {
                use choco::compiler::{compile, CompileError, CompilerOptions, Program};
                let mut p = Program::new();
                let (x, y) = (p.input("x"), p.input(&name));
                let sum = p.add(x, y);
                p.output(sum);
                let options = CompilerOptions {
                    scale_bits: 20,
                    prime_bits: 20,
                    max_levels: 1,
                };
                let compiled = compile(&p, &options).unwrap();
                let err = compiled.execute_plain(&inputs).unwrap_err();
                assert_eq!(err, CompileError::MissingInput(name));
            }
        }
    }

    /// The benchmark oracle's hand-computed case, mod 7 in a 4-slot row:
    /// rot(x, 1) = [2,3,4,1]; · [2,3,0,0] = [4,9,0,0] = [4,2,0,0];
    /// rot(−1) = [0,4,2,0]; − x = [6,2,6,3]; squared mod 7. Row 1 is the
    /// zero padding.
    #[test]
    fn mod_t_matches_the_hand_computed_case() {
        let ops = [
            input("x"),
            Op::Constant(vec![2.0, 3.0]),
            Op::Rotate(n(0), 1),
            Op::MulPlain(n(2), n(1)),
            Op::Rotate(n(3), -1),
            Op::Sub(n(4), n(0)),
            Op::Mul(n(5), n(5)),
        ];
        let out = slots(ModT { t: 7, row: 4 }, &ops, &[n(6)], vec![1, 2, 3, 4]);
        assert_eq!(out, [[1, 4, 1, 2, 0, 0, 0, 0]]);
    }

    /// A BFV rotation is cyclic within each batching row: slot `row − 1`
    /// of row 1 reads row 1's first slot, never row 0.
    #[test]
    fn mod_t_rotations_wrap_within_each_row() {
        let ops = [input("x"), Op::Rotate(n(0), 1), Op::Rotate(n(0), -5)];
        let x: Vec<u64> = (1..=8).collect();
        let out = slots(ModT { t: 17, row: 4 }, &ops, &[n(1), n(2)], x);
        assert_eq!(out[0], [2, 3, 4, 1, 6, 7, 8, 5]);
        assert_eq!(out[1], [4, 1, 2, 3, 8, 5, 6, 7]);
    }

    /// `execute_plain`'s geometry: operands zip to the shorter one, and a
    /// rotation wraps the vector's own length, an empty one included.
    #[test]
    fn reals_zip_to_the_shorter_operand_and_rotate_their_own_length() {
        let ops = [
            input("x"),
            Op::Constant(vec![10.0, 20.0]),
            Op::AddPlain(n(0), n(1)),
            Op::Rotate(n(2), 3),
            input("empty"),
            Op::Rotate(n(4), 3),
        ];
        let inputs = HashMap::from([
            ("x".to_string(), vec![1.0, 2.0, 3.0]),
            ("empty".to_string(), Vec::new()),
        ]);
        let circuit = Circuit {
            ops: &ops,
            outputs: &[n(3), n(5)],
            claims: None,
        };
        let mut reals = Slots::new(Reals, &inputs, <[f64]>::to_vec);
        let out = walk(&circuit, &mut reals).unwrap().outputs;
        assert_eq!(out, [vec![22.0, 11.0], vec![]]);
    }
}
