//! An EVA-style compiler for encrypted vector arithmetic (CKKS).
//!
//! The paper selects CKKS parameters "via optimal operation scheduling
//! using the state-of-the-art EVA HE compiler" (§3.2). This module
//! reproduces the relevant part of EVA (Dathathri et al., PLDI 2020): a
//! small expression IR over encrypted vectors, with compiler passes that
//!
//! 1. track fixed-point **scales** through the graph and insert `Rescale`
//!    operations using EVA's *waterline* rule (rescale as soon as the scale
//!    would exceed `waterline · 2^prime_bits`),
//! 2. track **levels** and insert `ModSwitch` operations so binary-op
//!    operands meet at the same level,
//! 3. validate the program against a parameter set (enough rescale primes,
//!    compatible slot counts) and report the required chain length, and
//! 4. count operations by kind — the cost model parameter selection
//!    consumes.
//!
//! The IR itself ([`Op`], [`NodeId`], [`NodeMeta`]) is defined in
//! `choco-verify` and re-exported here, so the static verifier reads the
//! compiler's own op lists.
//!
//! A reference executor runs compiled programs both on plaintext vectors
//! and on real ciphertexts of any [`CompilerScheme`] (CKKS with the full
//! rescaling chain; BFV with identity chain maintenance and fixed-point
//! constants), so every pass is validated by an exactness test against the
//! plain semantics. The encrypted executor's constant encodings are
//! cacheable across calls via [`ExecCache`] — the hook the remote
//! evaluation server uses to do zero re-encoding on warm traffic.
//!
//! The encrypted executor does not interpret every node on its own. A
//! compiled program carries a *fusion plan*, derived from its op list when
//! it is built: every maximal rotate → multiply → accumulate chain over one
//! ciphertext — a tree of `Add`s over `Rescale^r(MulPlain(x | Rotate(x, s),
//! Constant))` leaves whose inner nodes nobody else consumes — is a *dot
//! group*, `Σ_k rot(x, s_k) ⊙ c_k`. Groups over the same `x` with the same
//! rescale count and step list — a conv layer's diagonals, one per output —
//! form a *bundle*, evaluated at its first root by one call of the
//! double-hoisted kernel both schemes share
//! ([`CompilerScheme::dot_operands_many`] → `choco_he::rlwe::dot_galois`):
//! one key-switch decomposition for the bundle and one key-switch rounding
//! per group instead of one per rotation, then the `r` rescales once on
//! each sum. A rotation read by several leaves (one per step, shared by
//! every dot over it, as [`optimize`] leaves it) is part of the bundle when
//! every reader is a leaf of it and the readers span two or more of its
//! groups; otherwise shared rotations stay nodes. The plan is a schedule,
//! not IR — no [`Op`] names it, the program wire, [`OpCounts`] and the
//! verifier never see it, and it cannot be switched off; a node that must
//! be materialized is declared an output, which keeps it out of any group
//! (tests obtain their unfused reference that way).
//! [`CompiledProgram::fused_groups`], [`CompiledProgram::fused_bundles`]
//! and [`CompiledProgram::fused_nodes`] say what the plan covers.

use choco_he::cache::{CacheCounters, OperandCache};
use choco_he::ckks::{CkksCiphertext, CkksContext};
use choco_he::rlwe::DotOperand;
use choco_he::{Bfv, Ckks, HeError, HeScheme};
use choco_verify::{Circuit, VerifyError, VerifyOptions, VerifyReport};
pub use choco_verify::{NodeId, NodeMeta, Op};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The extra capability the compiled-program executor needs beyond
/// [`HeScheme`]: explicit scale management and cacheable encoded operands.
/// The compiler inserts `Rescale` and `ModSwitch` nodes itself, so the
/// executor needs *raw* plaintext multiplication (no implicit rescale),
/// ciphertext multiplication with relinearization, and the two chain
/// maintenance ops. Constant encoding is split into an explicit
/// [`CompilerScheme::Operand`] step so a server can cache the encoded form
/// across requests (see [`ExecCache`]).
///
/// Implemented for [`Ckks`] (the full rescaling chain) and for [`Bfv`],
/// where the chain maintenance ops are identities: BFV has no rescaling
/// chain, so a compiled schedule's `Rescale`/`ModSwitch` nodes are no-ops
/// and constants are fixed-point quantized once at the compiler waterline
/// via [`HeScheme::quantize`].
pub trait CompilerScheme: HeScheme {
    /// A constant vector encoded into the scheme's evaluation domain at a
    /// specific use site — the unit the server-side operand cache stores.
    type Operand: Clone + Send + Sync + std::fmt::Debug;

    /// Whether the scheme has a rescaling chain. Without one (BFV)
    /// [`CompilerScheme::rescale`] and [`CompilerScheme::mod_switch_down`]
    /// return their input, and the executor aliases such nodes to their
    /// operand instead of copying a ciphertext through them. A BFV output
    /// still leaves compressed: [`CompilerScheme::download`].
    const HAS_CHAIN: bool;

    /// Ciphertext × ciphertext with relinearization.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches and exhausted chains.
    fn mul_ct(
        ctx: &Self::Context,
        a: &Self::Ciphertext,
        b: &Self::Ciphertext,
        relin: &Self::RelinKey,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Quantizes an `f64` constant vector into scheme plaintext values at
    /// the compiler's waterline scale (identity for CKKS, fixed-point
    /// `round(v · 2^scale_bits) mod t` for BFV).
    fn quantize_const(ctx: &Self::Context, values: &[f64], scale_bits: u32) -> Vec<Self::Value>;

    /// Encodes a quantized constant for *multiplication* against `ct`
    /// (raw — no implicit rescale; the compiler schedules rescales).
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    fn encode_for_mul(
        ctx: &Self::Context,
        values: &[Self::Value],
        ct: &Self::Ciphertext,
    ) -> Result<Self::Operand, HeError>;

    /// Encodes a quantized constant for *addition* against `ct` (the
    /// operand must match the ciphertext's exact scale).
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    fn encode_for_add(
        ctx: &Self::Context,
        values: &[Self::Value],
        ct: &Self::Ciphertext,
    ) -> Result<Self::Operand, HeError>;

    /// Ciphertext × encoded operand, without rescaling.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches.
    fn mul_operand(
        ctx: &Self::Context,
        ct: &Self::Ciphertext,
        op: &Self::Operand,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Ciphertext + encoded operand.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches.
    fn add_operand(
        ctx: &Self::Context,
        ct: &Self::Ciphertext,
        op: &Self::Operand,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Encodes a quantized constant as a factor of the fused dot against
    /// `ct` ([`CompilerScheme::dot_operands_many`]): evaluation form over
    /// the key-switch basis at `ct`'s level, at the same scale
    /// [`CompilerScheme::encode_for_mul`] uses.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures.
    fn encode_for_dot(
        ctx: &Self::Context,
        values: &[Self::Value],
        ct: &Self::Ciphertext,
    ) -> Result<DotOperand, HeError>;

    /// `outputs` dots over the same rotations of `ct` as one double-hoisted
    /// kernel call, without rescaling: output `o` is `Σ_k rot(ct, step_k) ⊙
    /// operand_{k,o}` (step 0 meaning `ct` itself), where term `k` is
    /// `(step_k, [operand_{k,0}, …])`. Each output is what a rotate →
    /// [`CompilerScheme::mul_operand`] → add chain computes, with one
    /// key-switch rounding for its sum, and bit for bit what the call
    /// returns for that output alone; one output is the case `outputs = 1`.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches and missing Galois keys; a term whose
    /// operand count is not `outputs` is [`HeError::Mismatch`].
    fn dot_operands_many(
        ctx: &Self::Context,
        ct: &Self::Ciphertext,
        outputs: usize,
        terms: &[(i64, Vec<Arc<DotOperand>>)],
        gk: &Self::GaloisKeys,
    ) -> Result<Vec<Self::Ciphertext>, HeError>;

    /// Cache discriminator of an encode site against `ct`: everything the
    /// encoded operand depends on besides the constant itself. CKKS
    /// operands depend on the ciphertext's level (and, for additions, its
    /// exact scale); BFV encoding is site-independent, so the key is
    /// constant. Dot operands share the multiplication sites' key.
    fn operand_site(ct: &Self::Ciphertext, for_mul: bool) -> (u32, u64);

    /// Divides by the level's last prime (one chain level). Identity for
    /// BFV.
    ///
    /// # Errors
    ///
    /// Propagates exhausted chains.
    fn rescale(ctx: &Self::Context, ct: &Self::Ciphertext) -> Result<Self::Ciphertext, HeError>;

    /// Drops one level without rescaling. Identity for BFV.
    ///
    /// # Errors
    ///
    /// Propagates exhausted chains.
    fn mod_switch_down(
        ctx: &Self::Context,
        ct: &Self::Ciphertext,
    ) -> Result<Self::Ciphertext, HeError>;

    /// The form a program output leaves the server in, applied by the
    /// executor to every output and by `Session::download`: the same
    /// message in the fewest bits the parameter set licenses. BFV
    /// compresses each component to `BfvContext::reply_widths` bits
    /// (`BfvContext::compress_reply`), idempotently; CKKS returns its
    /// input, every output already sitting where the compiler's rescales
    /// left it.
    ///
    /// # Errors
    ///
    /// Propagates compression failures.
    fn download(ctx: &Self::Context, ct: &Self::Ciphertext) -> Result<Self::Ciphertext, HeError>;
}

impl CompilerScheme for Ckks {
    type Operand = choco_he::ckks::CkksPlaintext;
    const HAS_CHAIN: bool = true;

    fn mul_ct(
        ctx: &CkksContext,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
        relin: &choco_he::rlwe::RelinKey,
    ) -> Result<CkksCiphertext, HeError> {
        ctx.multiply_relin(a, b, relin)
    }

    fn quantize_const(_ctx: &CkksContext, values: &[f64], _scale_bits: u32) -> Vec<f64> {
        values.to_vec()
    }

    fn encode_for_mul(
        ctx: &CkksContext,
        values: &[f64],
        ct: &CkksCiphertext,
    ) -> Result<Self::Operand, HeError> {
        ctx.encode_at(values, ct.level(), ctx.default_scale())
    }

    fn encode_for_add(
        ctx: &CkksContext,
        values: &[f64],
        ct: &CkksCiphertext,
    ) -> Result<Self::Operand, HeError> {
        ctx.encode_at(values, ct.level(), ct.scale())
    }

    fn mul_operand(
        ctx: &CkksContext,
        ct: &CkksCiphertext,
        op: &Self::Operand,
    ) -> Result<CkksCiphertext, HeError> {
        ctx.multiply_plain(ct, op)
    }

    fn add_operand(
        ctx: &CkksContext,
        ct: &CkksCiphertext,
        op: &Self::Operand,
    ) -> Result<CkksCiphertext, HeError> {
        ctx.add_plain(ct, op)
    }

    fn encode_for_dot(
        ctx: &CkksContext,
        values: &[f64],
        ct: &CkksCiphertext,
    ) -> Result<DotOperand, HeError> {
        ctx.dot_operand(values, ct.level())
    }

    fn dot_operands_many(
        ctx: &CkksContext,
        ct: &CkksCiphertext,
        outputs: usize,
        terms: &[(i64, Vec<Arc<DotOperand>>)],
        gk: &choco_he::rlwe::GaloisKeys,
    ) -> Result<Vec<CkksCiphertext>, HeError> {
        let terms = terms.iter().map(|(step, ops)| Ok((*step, ops.as_slice())));
        ctx.dot_rotations_many(ct, outputs, terms, gk)
    }

    fn operand_site(ct: &CkksCiphertext, for_mul: bool) -> (u32, u64) {
        // Multiplication operands are encoded at the context's default
        // scale, so only the level discriminates; addition operands must
        // match the ciphertext's exact scale bit pattern.
        let scale = if for_mul { 0 } else { ct.scale().to_bits() };
        (ct.level() as u32, scale)
    }

    fn rescale(ctx: &CkksContext, ct: &CkksCiphertext) -> Result<CkksCiphertext, HeError> {
        ctx.rescale(ct)
    }

    fn mod_switch_down(ctx: &CkksContext, ct: &CkksCiphertext) -> Result<CkksCiphertext, HeError> {
        ctx.mod_switch_to(ct, ct.level() - 1)
    }

    fn download(_ctx: &CkksContext, ct: &CkksCiphertext) -> Result<CkksCiphertext, HeError> {
        Ok(ct.clone())
    }
}

impl CompilerScheme for Bfv {
    type Operand = choco_he::bfv::Plaintext;
    // BFV carries no rescaling chain: the schedule's `Rescale` and
    // `ModSwitch` nodes are scale bookkeeping only. Its one change of
    // modulus is `download`'s compression, after the program.
    const HAS_CHAIN: bool = false;

    fn mul_ct(
        ctx: &choco_he::bfv::BfvContext,
        a: &choco_he::bfv::Ciphertext,
        b: &choco_he::bfv::Ciphertext,
        relin: &choco_he::rlwe::RelinKey,
    ) -> Result<choco_he::bfv::Ciphertext, HeError> {
        ctx.evaluator().multiply_relin(a, b, relin)
    }

    fn quantize_const(
        ctx: &choco_he::bfv::BfvContext,
        values: &[f64],
        scale_bits: u32,
    ) -> Vec<u64> {
        <Bfv as HeScheme>::quantize(ctx, values, scale_bits, 1)
    }

    fn encode_for_mul(
        ctx: &choco_he::bfv::BfvContext,
        values: &[u64],
        _ct: &choco_he::bfv::Ciphertext,
    ) -> Result<Self::Operand, HeError> {
        ctx.batch_encoder()?.encode(values)
    }

    fn encode_for_add(
        ctx: &choco_he::bfv::BfvContext,
        values: &[u64],
        _ct: &choco_he::bfv::Ciphertext,
    ) -> Result<Self::Operand, HeError> {
        ctx.batch_encoder()?.encode(values)
    }

    fn mul_operand(
        ctx: &choco_he::bfv::BfvContext,
        ct: &choco_he::bfv::Ciphertext,
        op: &Self::Operand,
    ) -> Result<choco_he::bfv::Ciphertext, HeError> {
        Ok(ctx.evaluator().multiply_plain(ct, op))
    }

    fn add_operand(
        ctx: &choco_he::bfv::BfvContext,
        ct: &choco_he::bfv::Ciphertext,
        op: &Self::Operand,
    ) -> Result<choco_he::bfv::Ciphertext, HeError> {
        Ok(ctx.evaluator().add_plain(ct, op))
    }

    fn encode_for_dot(
        ctx: &choco_he::bfv::BfvContext,
        values: &[u64],
        _ct: &choco_he::bfv::Ciphertext,
    ) -> Result<DotOperand, HeError> {
        ctx.evaluator()
            .dot_operand(&ctx.batch_encoder()?.encode(values)?)
    }

    fn dot_operands_many(
        ctx: &choco_he::bfv::BfvContext,
        ct: &choco_he::bfv::Ciphertext,
        outputs: usize,
        terms: &[(i64, Vec<Arc<DotOperand>>)],
        gk: &choco_he::rlwe::GaloisKeys,
    ) -> Result<Vec<choco_he::bfv::Ciphertext>, HeError> {
        let terms = terms.iter().map(|(step, ops)| Ok((*step, ops.as_slice())));
        ctx.evaluator().dot_rotations_many(ct, outputs, terms, gk)
    }

    fn operand_site(_ct: &choco_he::bfv::Ciphertext, _for_mul: bool) -> (u32, u64) {
        // BFV batch encoding depends only on the parameter set, never on
        // the ciphertext's position in a (nonexistent) chain.
        (0, 0)
    }

    fn rescale(
        _ctx: &choco_he::bfv::BfvContext,
        ct: &choco_he::bfv::Ciphertext,
    ) -> Result<choco_he::bfv::Ciphertext, HeError> {
        Ok(ct.clone())
    }

    fn mod_switch_down(
        _ctx: &choco_he::bfv::BfvContext,
        ct: &choco_he::bfv::Ciphertext,
    ) -> Result<choco_he::bfv::Ciphertext, HeError> {
        Ok(ct.clone())
    }

    fn download(
        ctx: &choco_he::bfv::BfvContext,
        ct: &choco_he::bfv::Ciphertext,
    ) -> Result<choco_he::bfv::Ciphertext, HeError> {
        ctx.compress_reply(ct)
    }
}

/// An un-compiled dataflow program over encrypted vectors.
#[derive(Debug, Clone, Default)]
pub struct Program {
    ops: Vec<Op>,
    outputs: Vec<NodeId>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: Op) -> NodeId {
        self.ops.push(op);
        NodeId::new(self.ops.len() - 1)
    }

    /// Declares an encrypted input.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.push(Op::Input(name.to_string()))
    }

    /// Declares a plaintext constant vector.
    pub fn constant(&mut self, values: &[f64]) -> NodeId {
        self.push(Op::Constant(values.to_vec()))
    }

    /// `a + b` (both encrypted).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Add(a, b))
    }

    /// `a − b` (both encrypted).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Sub(a, b))
    }

    /// `a × b` (both encrypted).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Mul(a, b))
    }

    /// `a × c` for a constant `c`.
    pub fn mul_plain(&mut self, a: NodeId, c: NodeId) -> NodeId {
        self.push(Op::MulPlain(a, c))
    }

    /// `a + c` for a constant `c`.
    pub fn add_plain(&mut self, a: NodeId, c: NodeId) -> NodeId {
        self.push(Op::AddPlain(a, c))
    }

    /// Rotates slots left by `steps`.
    pub fn rotate(&mut self, a: NodeId, steps: i64) -> NodeId {
        self.push(Op::Rotate(a, steps))
    }

    /// Marks a node as a program output.
    pub fn output(&mut self, n: NodeId) {
        self.outputs.push(n);
    }

    /// Number of IR nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The op list, in construction order (node `i` is `ops()[i]`). Read
    /// access for serializers; rebuild a program through the builder API.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The declared output nodes, in declaration order.
    pub fn output_ids(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The verifier's view of the *source* program (no claims: the
    /// schedule does not exist yet, so the verifier replays the compiler's
    /// waterline scheduling abstractly).
    pub fn to_circuit(&self) -> Circuit<'_> {
        Circuit {
            ops: &self.ops,
            outputs: &self.outputs,
            claims: None,
        }
    }
}

/// Operation counts of a compiled program (the cost model output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Ciphertext multiplications (relinearized).
    pub ct_mults: u32,
    /// Plaintext multiplications.
    pub pt_mults: u32,
    /// Additions/subtractions (ct and pt).
    pub adds: u32,
    /// Rotations.
    pub rotations: u32,
    /// Rescales inserted.
    pub rescales: u32,
    /// Mod-switches inserted.
    pub mod_switches: u32,
}

impl OpCounts {
    /// Every operation counted: one per compiled node that is neither an
    /// input nor a constant.
    pub fn total(&self) -> u64 {
        let ops = [self.ct_mults, self.pt_mults, self.adds, self.rotations];
        let inserted = [self.rescales, self.mod_switches];
        ops.into_iter().chain(inserted).map(u64::from).sum()
    }
}

/// One fused dot of the execution schedule: a tree of `Add` nodes whose
/// leaves are `Rescale^r(MulPlain(src, Constant))` with `src` the common
/// ciphertext `x` or a `Rotate(x, s)`. The executor evaluates the whole tree
/// as `Σ_k rot(x, s_k) ⊙ c_k` in the kernel call of its bundle and applies
/// the `r` rescales once to the sum.
#[derive(Debug, Clone, PartialEq)]
struct DotGroup {
    /// The common ciphertext node `x`.
    source: usize,
    /// `Rescale` nodes on every leaf.
    rescales: usize,
    /// `(rotation step, constant node)` per leaf, left to right.
    terms: Vec<(i64, usize)>,
}

/// What the executor does at a node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// Runs through its own per-node arm.
    Node,
    /// Covered by a fused group: never materialized.
    Interior,
    /// The root `Add` of `groups[_]`, where its sum is stored. The first
    /// root of a bundle makes the bundle's kernel call.
    Root(usize),
}

/// The fusion schedule of a compiled program — derived from the op list and
/// the outputs, never serialized: both ends of a remote evaluation derive
/// the same plan from the same program.
#[derive(Debug, Clone, Default)]
struct FusionPlan {
    groups: Vec<DotGroup>,
    /// Groups that run as one kernel call — same source, same rescale count,
    /// same step list — each in root order.
    bundles: Vec<Vec<usize>>,
    /// The bundle of each group.
    bundle_of: Vec<usize>,
    /// One entry per node.
    role: Vec<Role>,
}

/// The groups one pass over an op list finds, and what each covers.
#[derive(Default)]
struct Found {
    groups: Vec<DotGroup>,
    /// Per group: its root node.
    roots: Vec<usize>,
    /// Per group: every node below its root.
    covered: Vec<Vec<usize>>,
    /// Per group: the `Rotate` node each leaf reads through, one entry per
    /// such leaf.
    rotations: Vec<Vec<usize>>,
}

impl FusionPlan {
    /// Finds every maximal dot group and bundles them. A node may be
    /// interior to a group only if it is consumed exactly once and is not an
    /// output, so declaring a node an output keeps it — and every `Add`
    /// above it — out of any group. The one exception is a rotation of the
    /// source read by several leaves — the form [`optimize`] leaves, one
    /// rotation per step shared by every dot over it: it is interior when
    /// every consumer is a leaf of one bundle and the leaves belong to two
    /// or more of its groups, so the bundle's kernel call performs it. The
    /// first pass reads through every rotation; if any shared one fails that
    /// test, a second pass keeps every shared rotation as a node — the
    /// single-use rule, which a program with no multi-group bundle plans by.
    /// Total on any op list: a reference that is not to an earlier node just
    /// does not fuse.
    fn derive(ops: &[Op], outputs: &[NodeId]) -> FusionPlan {
        // Consumers per node, an output counting as one more: a count of
        // exactly 1 means "consumed once and not an output".
        let mut uses = vec![0u32; ops.len()];
        for id in ops
            .iter()
            .flat_map(Op::operands)
            .chain(outputs.iter().copied())
        {
            if let Some(u) = uses.get_mut(id.index()) {
                *u += 1;
            }
        }
        let mut found = Self::find_groups(ops, &uses, true);
        let (mut bundles, mut bundle_of) = Self::bundle(&found.groups);
        // Per rotation read through: the group of each leaf reading it.
        let mut readers: HashMap<usize, Vec<usize>> = HashMap::new();
        for (g, rotations) in found.rotations.iter().enumerate() {
            for &rotation in rotations {
                readers.entry(rotation).or_default().push(g);
            }
        }
        let interior = readers.iter().all(|(&rotation, groups)| {
            let first = groups.first().copied();
            let bundle = first.and_then(|g| bundle_of.get(g));
            let one_bundle = groups.iter().all(|&g| bundle_of.get(g) == bundle);
            let several_groups = groups.iter().any(|&g| Some(g) != first);
            uses.get(rotation) == Some(&(groups.len() as u32))
                && one_bundle
                && (groups.len() == 1 || several_groups)
        });
        if !interior {
            found = Self::find_groups(ops, &uses, false);
            (bundles, bundle_of) = Self::bundle(&found.groups);
        }
        let mut role = vec![Role::Node; ops.len()];
        let mut assign = |node: usize, to: Role| {
            if let Some(slot) = role.get_mut(node) {
                *slot = to;
            }
        };
        for (g, (&root, covered)) in found.roots.iter().zip(&found.covered).enumerate() {
            for &node in covered {
                assign(node, Role::Interior);
            }
            assign(root, Role::Root(g));
        }
        FusionPlan {
            groups: found.groups,
            bundles,
            bundle_of,
            role,
        }
    }

    /// Every maximal dot group in one forward pass plus one walk per group,
    /// reading leaves through a `Rotate` consumed once — or, with
    /// `shared_rotations`, through any `Rotate`.
    fn find_groups(ops: &[Op], uses: &[u32], shared_rotations: bool) -> Found {
        #[derive(Clone, Copy)]
        struct Leaf {
            step: i64,
            constant: usize,
            rotate: Option<usize>,
        }
        // A node seen as a dot subtree: a leaf chain, or (`leaf: None`) a
        // sum of at least two.
        #[derive(Clone, Copy)]
        struct Shape {
            source: usize,
            rescales: usize,
            leaf: Option<Leaf>,
        }
        let single_use = |i: usize| uses.get(i) == Some(&1);
        let read_through = |rotation: usize| shared_rotations || single_use(rotation);

        let mut shapes: Vec<Option<Shape>> = Vec::with_capacity(ops.len());
        let mut absorbed = vec![false; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            let shape_of = |id: &NodeId| shapes.get(id.index()).copied().flatten();
            let shape = match op {
                Op::MulPlain(a, c)
                    if a.index() < i && matches!(ops.get(c.index()), Some(Op::Constant(_))) =>
                {
                    let (source, step, rotate) = match ops.get(a.index()) {
                        Some(Op::Rotate(x, s))
                            if x.index() < a.index() && read_through(a.index()) =>
                        {
                            (x.index(), *s, Some(a.index()))
                        }
                        _ => (a.index(), 0, None),
                    };
                    let constant = c.index();
                    Some(Shape {
                        source,
                        rescales: 0,
                        leaf: Some(Leaf {
                            step,
                            constant,
                            rotate,
                        }),
                    })
                }
                Op::Rescale(a) => shape_of(a)
                    .filter(|inner| inner.leaf.is_some() && single_use(a.index()))
                    .map(|inner| Shape {
                        rescales: inner.rescales + 1,
                        ..inner
                    }),
                Op::Add(a, b) => match (shape_of(a), shape_of(b)) {
                    (Some(l), Some(r))
                        if l.source == r.source
                            && l.rescales == r.rescales
                            && single_use(a.index())
                            && single_use(b.index()) =>
                    {
                        for child in [a, b] {
                            if let Some(flag) = absorbed.get_mut(child.index()) {
                                *flag = true;
                            }
                        }
                        Some(Shape { leaf: None, ..l })
                    }
                    _ => None,
                },
                _ => None,
            };
            shapes.push(shape);
        }

        let mut found = Found::default();
        let roots = shapes.iter().zip(&absorbed).enumerate();
        for (root, (shape, &taken)) in roots {
            let Some(Shape {
                source,
                rescales,
                leaf: None,
            }) = *shape
            else {
                continue;
            };
            if taken {
                continue;
            }
            // Walk the tree left to right; everything below the root is
            // covered. (A loop, not recursion: a chain of adds is as deep as
            // the program is long.)
            let (mut terms, mut covered, mut rotations) = (Vec::new(), Vec::new(), Vec::new());
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                match (shapes.get(node).copied().flatten(), ops.get(node)) {
                    (Some(Shape { leaf: None, .. }), Some(Op::Add(a, b))) => {
                        covered.extend([a.index(), b.index()]);
                        stack.extend([b.index(), a.index()]);
                    }
                    (Some(Shape { leaf: Some(l), .. }), _) => {
                        let mut below = node;
                        while let Some(Op::Rescale(a)) = ops.get(below) {
                            covered.push(a.index());
                            below = a.index();
                        }
                        if let Some(rotate) = l.rotate {
                            covered.push(rotate);
                            rotations.push(rotate);
                        }
                        terms.push((l.step, l.constant));
                    }
                    _ => {}
                }
            }
            found.groups.push(DotGroup {
                source,
                rescales,
                terms,
            });
            found.roots.push(root);
            found.covered.push(covered);
            found.rotations.push(rotations);
        }
        found
    }

    /// Partitions `groups` into bundles by `(source, rescales, steps)`, each
    /// bundle in group order; returns the bundles and each group's bundle.
    fn bundle(groups: &[DotGroup]) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut bundles: Vec<Vec<usize>> = Vec::new();
        let mut index: HashMap<(usize, usize, Vec<i64>), usize> = HashMap::new();
        let bundle_of = groups
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let steps = group.terms.iter().map(|&(step, _)| step).collect();
                let b = *index
                    .entry((group.source, group.rescales, steps))
                    .or_insert(bundles.len());
                if b == bundles.len() {
                    bundles.push(Vec::new());
                }
                if let Some(members) = bundles.get_mut(b) {
                    members.push(g);
                }
                b
            })
            .collect();
        (bundles, bundle_of)
    }
}

/// A program after scale/level assignment.
///
/// [`compile`] is the only constructor, and every value it returns has
/// already passed the static verifier (`choco-verify`), so holding a
/// `CompiledProgram` is proof the circuit satisfies the
/// level/scale/structure invariants.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    ops: Vec<Op>,
    outputs: Vec<NodeId>,
    meta: Vec<NodeMeta>,
    /// Minimum data-prime chain length the program requires.
    pub required_levels: usize,
    /// Operation counts.
    pub counts: OpCounts,
    /// The compiler configuration this program was scheduled against.
    pub options: CompilerOptions,
    /// Which rotate → multiply → accumulate chains execute as one fused dot.
    plan: FusionPlan,
}

/// Compiler configuration.
///
/// For *encrypted* execution, use EVA's standard waterline setup: a uniform
/// rescale-prime chain with `prime_bits == scale_bits`, so every rescale
/// returns scales to the waterline and branches of different multiplicative
/// depth remain addable after level alignment. (The plaintext executor is
/// exact regardless.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerOptions {
    /// Input/encoding scale in bits (EVA's "waterline").
    pub scale_bits: u32,
    /// Bits of each rescaling prime.
    pub prime_bits: u32,
    /// Levels available in the target parameter set.
    pub max_levels: usize,
}

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program needs more rescale levels than the chain provides.
    DepthExceeded {
        /// Levels required.
        needed: usize,
        /// Levels available.
        available: usize,
    },
    /// A constant was used where a ciphertext is required (or vice versa).
    KindMismatch(usize),
    /// The program has no outputs.
    NoOutputs,
    /// Execution was given no value for a named input.
    MissingInput(String),
    /// A node references a later or missing node (possible only through
    /// hand-built [`NodeId`]s; the builder API cannot produce this).
    MalformedProgram(usize),
    /// The compiled output failed static verification — a compiler bug
    /// surfaced as a typed error instead of a wrong decrypt.
    Verify(VerifyError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::DepthExceeded { needed, available } => write!(
                f,
                "program needs {needed} levels but the chain provides {available}"
            ),
            CompileError::KindMismatch(n) => write!(f, "node {n}: ciphertext/plaintext mismatch"),
            CompileError::NoOutputs => write!(f, "program has no outputs"),
            CompileError::MissingInput(name) => write!(f, "missing input {name}"),
            CompileError::MalformedProgram(n) => {
                write!(f, "node {n}: operand references a later or missing node")
            }
            CompileError::Verify(e) => write!(f, "compiled program failed verification: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

fn is_plain(ops: &[Op], id: NodeId) -> bool {
    matches!(ops.get(id.index()), Some(Op::Constant(_)))
}

/// Compiles a program: assigns scales and levels, inserting `Rescale` after
/// any multiply whose result scale crosses the waterline and `ModSwitch`
/// where binary operands' levels differ.
///
/// This is the only constructor of a [`CompiledProgram`], and its output is
/// **verified by construction**: before returning, `choco-verify` reads the
/// schedule — the same op list and claims, no copy — and checks it against
/// the full static rule set, so any scheduling bug surfaces here as
/// [`CompileError::Verify`] instead of a wrong decrypt on the server.
///
/// # Errors
///
/// Returns [`CompileError`] on depth overflow or malformed programs.
pub fn compile(program: &Program, opts: &CompilerOptions) -> Result<CompiledProgram, CompileError> {
    if program.outputs.is_empty() {
        return Err(CompileError::NoOutputs);
    }
    let waterline = opts.scale_bits as f64;
    // The compiled op list, rebuilt with inserted nodes; `remap[i]` is the
    // compiled node carrying source node i's value.
    let mut ops: Vec<Op> = Vec::with_capacity(program.ops.len() * 2);
    let mut meta: Vec<NodeMeta> = Vec::new();
    let mut remap: Vec<NodeId> = Vec::with_capacity(program.ops.len());
    let mut counts = OpCounts::default();
    // Track the deepest level used (levels count down from max_levels).
    let mut min_level = opts.max_levels;

    let push = |ops: &mut Vec<Op>, meta: &mut Vec<NodeMeta>, op: Op, m: NodeMeta| -> NodeId {
        ops.push(op);
        meta.push(m);
        NodeId::new(ops.len() - 1)
    };

    // Rescale a node until its scale sits at the waterline.
    let rescale_to_waterline = |ops: &mut Vec<Op>,
                                meta: &mut Vec<NodeMeta>,
                                counts: &mut OpCounts,
                                min_level: &mut usize,
                                mut id: NodeId|
     -> NodeId {
        while meta[id.index()].scale_bits > waterline + opts.prime_bits as f64 / 2.0 {
            let m = meta[id.index()];
            if m.level == 0 {
                // The chain is already exhausted; stop inserting rescales
                // and pin the floor so the final depth check returns a
                // typed `DepthExceeded` (instead of underflowing here on
                // adversarially deep programs).
                *min_level = 0;
                break;
            }
            let nm = NodeMeta {
                scale_bits: m.scale_bits - opts.prime_bits as f64,
                level: m.level - 1,
            };
            ops.push(Op::Rescale(id));
            meta.push(nm);
            id = NodeId::new(ops.len() - 1);
            counts.rescales += 1;
            *min_level = (*min_level).min(nm.level);
        }
        id
    };

    // Bring a node down to `level` with mod-switches.
    let switch_to = |ops: &mut Vec<Op>,
                     meta: &mut Vec<NodeMeta>,
                     counts: &mut OpCounts,
                     mut id: NodeId,
                     level: usize|
     -> NodeId {
        while meta[id.index()].level > level {
            let m = meta[id.index()];
            ops.push(Op::ModSwitch(id));
            meta.push(NodeMeta {
                scale_bits: m.scale_bits,
                level: m.level - 1,
            });
            id = NodeId::new(ops.len() - 1);
            counts.mod_switches += 1;
        }
        id
    };

    for (i, op) in program.ops.iter().enumerate() {
        // Operands must reference earlier nodes; `remap` holds exactly the
        // nodes already processed, so a failed lookup is a forward or
        // out-of-range reference (hand-built `NodeId`s only).
        let mapped_of = |remap: &[NodeId], id: NodeId| -> Result<NodeId, CompileError> {
            remap
                .get(id.index())
                .copied()
                .ok_or(CompileError::MalformedProgram(i))
        };
        let mapped = match op {
            Op::Input(name) => push(
                &mut ops,
                &mut meta,
                Op::Input(name.clone()),
                NodeMeta {
                    scale_bits: waterline,
                    level: opts.max_levels,
                },
            ),
            Op::Constant(v) => push(
                &mut ops,
                &mut meta,
                Op::Constant(v.clone()),
                NodeMeta {
                    scale_bits: waterline,
                    level: opts.max_levels,
                },
            ),
            Op::Add(a, b) | Op::Sub(a, b) => {
                if is_plain(&program.ops, *a) || is_plain(&program.ops, *b) {
                    return Err(CompileError::KindMismatch(i));
                }
                let (mut ra, mut rb) = (mapped_of(&remap, *a)?, mapped_of(&remap, *b)?);
                // Align levels first, then scales must match: rescale the
                // larger-scale operand.
                ra = rescale_to_waterline(&mut ops, &mut meta, &mut counts, &mut min_level, ra);
                rb = rescale_to_waterline(&mut ops, &mut meta, &mut counts, &mut min_level, rb);
                let lvl = meta[ra.index()].level.min(meta[rb.index()].level);
                ra = switch_to(&mut ops, &mut meta, &mut counts, ra, lvl);
                rb = switch_to(&mut ops, &mut meta, &mut counts, rb, lvl);
                counts.adds += 1;
                let m = NodeMeta {
                    scale_bits: meta[ra.index()].scale_bits.max(meta[rb.index()].scale_bits),
                    level: lvl,
                };
                let new_op = if matches!(op, Op::Add(..)) {
                    Op::Add(ra, rb)
                } else {
                    Op::Sub(ra, rb)
                };
                push(&mut ops, &mut meta, new_op, m)
            }
            Op::Mul(a, b) => {
                if is_plain(&program.ops, *a) || is_plain(&program.ops, *b) {
                    return Err(CompileError::KindMismatch(i));
                }
                let (mut ra, mut rb) = (mapped_of(&remap, *a)?, mapped_of(&remap, *b)?);
                ra = rescale_to_waterline(&mut ops, &mut meta, &mut counts, &mut min_level, ra);
                rb = rescale_to_waterline(&mut ops, &mut meta, &mut counts, &mut min_level, rb);
                let lvl = meta[ra.index()].level.min(meta[rb.index()].level);
                ra = switch_to(&mut ops, &mut meta, &mut counts, ra, lvl);
                rb = switch_to(&mut ops, &mut meta, &mut counts, rb, lvl);
                counts.ct_mults += 1;
                let m = NodeMeta {
                    scale_bits: meta[ra.index()].scale_bits + meta[rb.index()].scale_bits,
                    level: lvl,
                };
                let id = push(&mut ops, &mut meta, Op::Mul(ra, rb), m);
                rescale_to_waterline(&mut ops, &mut meta, &mut counts, &mut min_level, id)
            }
            Op::MulPlain(a, c) | Op::AddPlain(a, c) => {
                if is_plain(&program.ops, *a) || !is_plain(&program.ops, *c) {
                    return Err(CompileError::KindMismatch(i));
                }
                let ra = rescale_to_waterline(
                    &mut ops,
                    &mut meta,
                    &mut counts,
                    &mut min_level,
                    mapped_of(&remap, *a)?,
                );
                let rc = mapped_of(&remap, *c)?;
                if matches!(op, Op::MulPlain(..)) {
                    counts.pt_mults += 1;
                    let m = NodeMeta {
                        scale_bits: meta[ra.index()].scale_bits + waterline,
                        level: meta[ra.index()].level,
                    };
                    let id = push(&mut ops, &mut meta, Op::MulPlain(ra, rc), m);
                    rescale_to_waterline(&mut ops, &mut meta, &mut counts, &mut min_level, id)
                } else {
                    counts.adds += 1;
                    let m = meta[ra.index()];
                    push(&mut ops, &mut meta, Op::AddPlain(ra, rc), m)
                }
            }
            Op::Rotate(a, s) => {
                if is_plain(&program.ops, *a) {
                    return Err(CompileError::KindMismatch(i));
                }
                counts.rotations += 1;
                let ra = mapped_of(&remap, *a)?;
                let m = meta[ra.index()];
                push(&mut ops, &mut meta, Op::Rotate(ra, *s), m)
            }
            Op::Rescale(_) | Op::ModSwitch(_) => {
                // User programs never contain these; the compiler inserts
                // them.
                return Err(CompileError::KindMismatch(i));
            }
        };
        remap.push(mapped);
        min_level = min_level.min(meta[mapped.index()].level);
    }

    let required_levels = opts.max_levels - min_level + 1;
    if min_level < 1 {
        return Err(CompileError::DepthExceeded {
            needed: required_levels,
            available: opts.max_levels,
        });
    }
    let outputs = program
        .outputs
        .iter()
        .map(|o| {
            remap
                .get(o.index())
                .copied()
                .ok_or(CompileError::MalformedProgram(o.index()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let compiled = CompiledProgram {
        plan: FusionPlan::derive(&ops, &outputs),
        ops,
        outputs,
        meta,
        required_levels,
        counts,
        options: *opts,
    };
    // Verified by construction: a scheduling bug becomes a typed error here
    // instead of a wrong decrypt on the server.
    compiled.verify().map_err(CompileError::Verify)?;
    Ok(compiled)
}

impl CompiledProgram {
    /// Metadata of a node, if it exists.
    pub fn meta(&self, n: NodeId) -> NodeMeta {
        self.meta.get(n.index()).copied().unwrap_or(NodeMeta {
            scale_bits: 0.0,
            level: 0,
        })
    }

    /// The verifier's view of the compiled program, carrying the
    /// compiler's per-node scale/level claims so the verifier can
    /// cross-check them against its own recomputation.
    pub fn to_circuit(&self) -> Circuit<'_> {
        Circuit {
            ops: &self.ops,
            outputs: &self.outputs,
            claims: Some(&self.meta),
        }
    }

    /// The CKKS verification options matching this program's
    /// [`CompilerOptions`]. Galois-step and slot-count constraints are
    /// unknown at compile time; callers with a parameter set and key list
    /// should extend these via `with_galois_steps`/`with_slot_count`.
    pub fn verify_options(&self) -> VerifyOptions {
        VerifyOptions::ckks(
            self.options.scale_bits,
            self.options.prime_bits,
            self.options.max_levels,
        )
    }

    /// Statically verifies this program against its own compiler options.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when any verification rule fires.
    pub fn verify(&self) -> Result<VerifyReport, VerifyError> {
        choco_verify::verify(&self.to_circuit(), &self.verify_options())
    }

    /// The compiled op list length (including inserted ops).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when empty (never, for a compiled program).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of fused dot groups in the execution schedule: rotate →
    /// multiply → accumulate chains over one ciphertext that
    /// [`CompiledProgram::execute_encrypted`] never evaluates node by node.
    pub fn fused_groups(&self) -> usize {
        self.plan.groups.len()
    }

    /// Number of kernel calls those groups take: groups over the same
    /// source with the same rescale count and step list form one *bundle*
    /// and run as one double-hoisted call with an output per group.
    pub fn fused_bundles(&self) -> usize {
        self.plan.bundles.len()
    }

    /// Number of compiled nodes those groups cover (their roots included):
    /// nodes the executor never evaluates one by one.
    pub fn fused_nodes(&self) -> usize {
        let covered = |role: &&Role| !matches!(role, Role::Node);
        self.plan.role.iter().filter(covered).count()
    }

    /// Rotation steps the program requests, derived directly from the
    /// compiled `Rotate` nodes (zero steps excluded, deduplicated, sorted).
    /// This is ground truth for Galois-key provisioning: any hand-written
    /// step list must be a superset of it, or execution hits a
    /// missing-Galois-key error at runtime.
    pub fn rotation_steps(&self) -> Vec<i64> {
        let mut steps: Vec<i64> = Vec::new();
        for op in &self.ops {
            if let Op::Rotate(_, s) = op {
                if *s != 0 && !steps.contains(s) {
                    steps.push(*s);
                }
            }
        }
        steps.sort_unstable();
        steps
    }

    /// Executes on plaintext vectors (the reference semantics).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::MissingInput`] when `inputs` lacks a named
    /// input of the program.
    pub fn execute_plain(
        &self,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<Vec<Vec<f64>>, CompileError> {
        // Operand lookups are in-bounds for any program built through
        // `compile` (verified by construction); a miss would still surface
        // as a typed error, not a panic.
        fn node(vals: &[Vec<f64>], id: NodeId, at: usize) -> Result<&Vec<f64>, CompileError> {
            vals.get(id.index())
                .ok_or(CompileError::MalformedProgram(at))
        }
        let mut vals: Vec<Vec<f64>> = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let v = match op {
                Op::Input(name) => inputs
                    .get(name)
                    .ok_or_else(|| CompileError::MissingInput(name.clone()))?
                    .clone(),
                Op::Constant(c) => c.clone(),
                Op::Add(a, b) => node(&vals, *a, i)?
                    .iter()
                    .zip(node(&vals, *b, i)?)
                    .map(|(x, y)| x + y)
                    .collect(),
                Op::Sub(a, b) => node(&vals, *a, i)?
                    .iter()
                    .zip(node(&vals, *b, i)?)
                    .map(|(x, y)| x - y)
                    .collect(),
                Op::Mul(a, b) => node(&vals, *a, i)?
                    .iter()
                    .zip(node(&vals, *b, i)?)
                    .map(|(x, y)| x * y)
                    .collect(),
                Op::MulPlain(a, c) => node(&vals, *a, i)?
                    .iter()
                    .zip(node(&vals, *c, i)?)
                    .map(|(x, y)| x * y)
                    .collect(),
                Op::AddPlain(a, c) => node(&vals, *a, i)?
                    .iter()
                    .zip(node(&vals, *c, i)?)
                    .map(|(x, y)| x + y)
                    .collect(),
                Op::Rotate(a, s) => {
                    let v = node(&vals, *a, i)?;
                    let n = v.len() as i64;
                    (0..n)
                        .map(|j| {
                            v.get(((j + s).rem_euclid(n.max(1))) as usize)
                                .copied()
                                .unwrap_or(0.0)
                        })
                        .collect()
                }
                Op::Rescale(a) | Op::ModSwitch(a) => node(&vals, *a, i)?.clone(),
            };
            vals.push(v);
        }
        self.outputs
            .iter()
            .map(|o| node(&vals, *o, o.index()).cloned())
            .collect()
    }

    /// Executes on real ciphertexts of any [`CompilerScheme`].
    ///
    /// Inputs must be encrypted at the top level with the compiler's
    /// waterline scale. Constants are encoded on demand at each use site's
    /// level and scale. Every output is returned in its download form
    /// ([`CompilerScheme::download`]), so whoever runs the program — the
    /// server or this local oracle — hands back the same ciphertext.
    /// Associated types are not injective, so callers usually name the
    /// scheme: `prog.execute_encrypted::<Ckks>(…)`.
    ///
    /// # Errors
    ///
    /// Propagates HE errors; a missing or mis-typed operand surfaces as
    /// [`HeError::Mismatch`] instead of aborting the evaluation.
    pub fn execute_encrypted<S: CompilerScheme>(
        &self,
        ctx: &S::Context,
        inputs: &HashMap<String, S::Ciphertext>,
        relin: &S::RelinKey,
        galois: &S::GaloisKeys,
    ) -> Result<Vec<S::Ciphertext>, HeError> {
        // A fresh per-call cache: within one execution the working set is
        // bounded by the program's constant count, so unbounded is safe.
        let cache = ExecCache::<S>::unbounded();
        self.execute_encrypted_cached::<S>(ctx, inputs, relin, galois, &cache)
    }

    /// [`CompiledProgram::execute_encrypted`] with a caller-owned operand
    /// cache, so encoded constants survive across calls (and across
    /// threads: the cache is internally locked, letting a batch of
    /// requests against the same program share one set of encodings).
    ///
    /// Caching is bit-transparent: a cached operand is byte-identical to
    /// the one a fresh encode would produce, so results are identical to
    /// [`CompiledProgram::execute_encrypted`] whatever the cache state.
    ///
    /// # Errors
    ///
    /// Propagates HE errors; a missing or mis-typed operand surfaces as
    /// [`HeError::Mismatch`] instead of aborting the evaluation.
    pub fn execute_encrypted_cached<S: CompilerScheme>(
        &self,
        ctx: &S::Context,
        inputs: &HashMap<String, S::Ciphertext>,
        relin: &S::RelinKey,
        galois: &S::GaloisKeys,
        cache: &ExecCache<S>,
    ) -> Result<Vec<S::Ciphertext>, HeError> {
        let download = |ct: &S::Ciphertext| S::download(ctx, ct);
        self.run_encrypted::<S>(ctx, inputs, relin, galois, cache, download)
    }

    /// [`CompiledProgram::execute_encrypted`] without the download step:
    /// every output as its last node left it. The oracle the download
    /// step ([`CompilerScheme::download`]) is measured against; nothing
    /// serves these.
    ///
    /// # Errors
    ///
    /// As [`CompiledProgram::execute_encrypted`].
    pub fn execute_encrypted_uncompressed<S: CompilerScheme>(
        &self,
        ctx: &S::Context,
        inputs: &HashMap<String, S::Ciphertext>,
        relin: &S::RelinKey,
        galois: &S::GaloisKeys,
    ) -> Result<Vec<S::Ciphertext>, HeError> {
        let cache = ExecCache::<S>::unbounded();
        let keep = |ct: &S::Ciphertext| Ok(ct.clone());
        self.run_encrypted::<S>(ctx, inputs, relin, galois, &cache, keep)
    }

    /// The executor: runs every node, then hands each output through
    /// `finish`.
    fn run_encrypted<S: CompilerScheme>(
        &self,
        ctx: &S::Context,
        inputs: &HashMap<String, S::Ciphertext>,
        relin: &S::RelinKey,
        galois: &S::GaloisKeys,
        cache: &ExecCache<S>,
        finish: impl Fn(&S::Ciphertext) -> Result<S::Ciphertext, HeError>,
    ) -> Result<Vec<S::Ciphertext>, HeError> {
        // Programs built through `compile` are verified by construction;
        // debug builds check it again at the door.
        debug_assert!(
            self.verify().is_ok(),
            "execute_encrypted on a program that fails static verification: {:?}",
            self.verify().err()
        );
        // One slot per node. Operands are borrowed from this table, never
        // copied out of it: inputs stay in the caller's map, constants in
        // the op list, and a node that is the identity for the scheme is an
        // alias of its operand.
        enum Slot<'a, Ct> {
            Owned(Ct),
            Input(&'a Ct),
            /// The same ciphertext as an earlier (non-alias) slot.
            Alias(usize),
            /// No ciphertext here: a constant (its values stay in the op
            /// list) or a node interior to a fused group.
            Absent,
        }
        fn ct_at<'s, Ct>(vals: &'s [Slot<'_, Ct>], id: NodeId) -> Result<&'s Ct, HeError> {
            let slot = match vals.get(id.index()) {
                Some(Slot::Alias(to)) => vals.get(*to),
                slot => slot,
            };
            match slot {
                Some(Slot::Owned(c)) => Ok(c),
                Some(Slot::Input(c)) => Ok(c),
                Some(_) => Err(HeError::Mismatch(
                    "compiler invariant violated: ciphertext operand expected".into(),
                )),
                None => Err(HeError::Mismatch(
                    "compiler invariant violated: operand references a missing node".into(),
                )),
            }
        }
        fn alias_of<'a, Ct>(vals: &[Slot<'a, Ct>], id: NodeId) -> Result<Slot<'a, Ct>, HeError> {
            ct_at(vals, id)?;
            Ok(match vals.get(id.index()) {
                Some(Slot::Alias(to)) => Slot::Alias(*to),
                _ => Slot::Alias(id.index()),
            })
        }
        let constant_at = |id: NodeId| match self.ops.get(id.index()) {
            Some(Op::Constant(values)) => Ok(values.as_slice()),
            _ => Err(HeError::Mismatch(
                "compiler invariant violated: constant operand expected".into(),
            )),
        };
        // Constants are quantized where they are encoded: on a cache miss.
        let quantize = |values: &[f64]| S::quantize_const(ctx, values, self.options.scale_bits);

        let no_group = || HeError::Mismatch("compiler invariant violated: no such group".into());
        // Sums of bundle members computed at an earlier root of the bundle.
        let mut ahead: Vec<Option<S::Ciphertext>> = self.plan.groups.iter().map(|_| None).collect();

        let mut vals: Vec<Slot<'_, S::Ciphertext>> = Vec::with_capacity(self.ops.len());
        for (op, role) in self.ops.iter().zip(&self.plan.role) {
            match role {
                Role::Node => {}
                Role::Interior => {
                    vals.push(Slot::Absent);
                    continue;
                }
                Role::Root(g) => {
                    if let Some(sum) = ahead.get_mut(*g).and_then(Option::take) {
                        vals.push(Slot::Owned(sum));
                        continue;
                    }
                    // The bundle's first root: one kernel call for every
                    // group in it, then each group's rescales once on its
                    // sum. Term `k` carries every member's `k`-th constant.
                    let members = self.plan.bundle_of.get(*g);
                    let members = members.and_then(|&b| self.plan.bundles.get(b));
                    let members = members.ok_or_else(no_group)?;
                    let group = self.plan.groups.get(*g).ok_or_else(no_group)?;
                    let x = ct_at(&vals, NodeId::new(group.source))?;
                    let operand = |member: usize, k: usize| {
                        let term = self.plan.groups.get(member).and_then(|m| m.terms.get(k));
                        let c = term.ok_or_else(no_group)?.1;
                        let values = constant_at(NodeId::new(c))?;
                        cache.dot_operand(c, x, || S::encode_for_dot(ctx, &quantize(values), x))
                    };
                    let terms = group
                        .terms
                        .iter()
                        .enumerate()
                        .map(|(k, &(step, _))| {
                            let operands = members.iter().map(|&m| operand(m, k));
                            Ok((step, operands.collect::<Result<Vec<_>, HeError>>()?))
                        })
                        .collect::<Result<Vec<_>, HeError>>()?;
                    let sums = S::dot_operands_many(ctx, x, members.len(), &terms, galois)?;
                    let mut own = None;
                    for (&member, mut sum) in members.iter().zip(sums) {
                        if S::HAS_CHAIN {
                            for _ in 0..group.rescales {
                                sum = S::rescale(ctx, &sum)?;
                            }
                        }
                        if member == *g {
                            own = Some(sum);
                        } else if let Some(slot) = ahead.get_mut(member) {
                            *slot = Some(sum);
                        }
                    }
                    vals.push(Slot::Owned(own.ok_or_else(no_group)?));
                    continue;
                }
            }
            let v = match op {
                Op::Input(name) => Slot::Input(
                    inputs
                        .get(name)
                        .ok_or_else(|| HeError::Mismatch(format!("missing input {name}")))?,
                ),
                Op::Constant(_) => Slot::Absent,
                Op::Add(a, b) => Slot::Owned(S::add(ctx, ct_at(&vals, *a)?, ct_at(&vals, *b)?)?),
                Op::Sub(a, b) => Slot::Owned(S::sub(ctx, ct_at(&vals, *a)?, ct_at(&vals, *b)?)?),
                Op::Mul(a, b) => {
                    Slot::Owned(S::mul_ct(ctx, ct_at(&vals, *a)?, ct_at(&vals, *b)?, relin)?)
                }
                Op::MulPlain(a, c) => {
                    let x = ct_at(&vals, *a)?;
                    let values = constant_at(*c)?;
                    let operand = cache.site_operand(c.index(), OperandUse::Mul, x, || {
                        S::encode_for_mul(ctx, &quantize(values), x)
                    })?;
                    Slot::Owned(S::mul_operand(ctx, x, &operand)?)
                }
                Op::AddPlain(a, c) => {
                    let x = ct_at(&vals, *a)?;
                    let values = constant_at(*c)?;
                    let operand = cache.site_operand(c.index(), OperandUse::Add, x, || {
                        S::encode_for_add(ctx, &quantize(values), x)
                    })?;
                    Slot::Owned(S::add_operand(ctx, x, &operand)?)
                }
                Op::Rotate(a, 0) => alias_of(&vals, *a)?,
                Op::Rotate(a, s) => Slot::Owned(S::rotate(ctx, ct_at(&vals, *a)?, *s, galois)?),
                Op::Rescale(a) | Op::ModSwitch(a) if !S::HAS_CHAIN => alias_of(&vals, *a)?,
                Op::Rescale(a) => Slot::Owned(S::rescale(ctx, ct_at(&vals, *a)?)?),
                Op::ModSwitch(a) => Slot::Owned(S::mod_switch_down(ctx, ct_at(&vals, *a)?)?),
            };
            vals.push(v);
        }
        self.outputs
            .iter()
            .map(|o| finish(ct_at(&vals, *o)?))
            .collect()
    }
}

/// What an encoded operand is for — part of its cache key, since one
/// constant may meet ciphertexts in more than one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum OperandUse {
    Mul,
    Add,
    Dot,
}

/// Key of one encoded-operand cache entry: the constant's node index, the
/// use kind, and the scheme's site discriminator
/// ([`CompilerScheme::operand_site`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OperandSlot {
    node: u32,
    usage: OperandUse,
    site: (u32, u64),
}

/// A cached encoding, shared: a hit is a reference-count bump, never a copy
/// of the operand (the lookup runs under the program-wide mutex that the
/// members of a batch contend for).
#[derive(Debug)]
enum Encoded<S: CompilerScheme> {
    /// For [`CompilerScheme::mul_operand`] / [`CompilerScheme::add_operand`].
    Site(Arc<S::Operand>),
    /// For [`CompilerScheme::dot_operands_many`].
    Dot(Arc<DotOperand>),
}

impl<S: CompilerScheme> Clone for Encoded<S> {
    fn clone(&self) -> Self {
        match self {
            Encoded::Site(op) => Encoded::Site(Arc::clone(op)),
            Encoded::Dot(op) => Encoded::Dot(Arc::clone(op)),
        }
    }
}

/// A thread-safe cache of encoded plaintext operands for *one* compiled
/// program (keys are program node indices, so never share an `ExecCache`
/// between different programs). It holds both operand kinds the executor
/// uses — per-site plaintexts for lone multiplies and adds, key-switch-basis
/// factors for fused dots — under one capacity bound and one set of
/// counters.
///
/// The server keeps one of these per cached [`CompiledProgram`]; a batch
/// of requests executing the same program concurrently shares the
/// encodings, and [`ExecCache::counters`] proves that warm traffic does
/// zero re-encoding.
#[derive(Debug)]
pub struct ExecCache<S: CompilerScheme> {
    inner: Mutex<OperandCache<OperandSlot, Encoded<S>>>,
}

impl<S: CompilerScheme> ExecCache<S> {
    /// A cache bounded to `capacity` operands (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        ExecCache {
            inner: Mutex::new(OperandCache::new(capacity)),
        }
    }

    /// An unbounded cache (per-call scratch; the working set is bounded by
    /// the program's constant count).
    pub fn unbounded() -> Self {
        Self::new(0)
    }

    /// Cached operand count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Snapshot of the hit/encode/eviction counters. `misses` counts real
    /// encodes.
    pub fn counters(&self) -> CacheCounters {
        self.lock().counters()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OperandCache<OperandSlot, Encoded<S>>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn get_or_encode(
        &self,
        node: usize,
        usage: OperandUse,
        ct: &S::Ciphertext,
        encode: impl FnOnce() -> Result<Encoded<S>, HeError>,
    ) -> Result<Encoded<S>, HeError> {
        let key = OperandSlot {
            node: node as u32,
            usage,
            site: S::operand_site(ct, usage != OperandUse::Add),
        };
        self.lock().get_or_insert_with(&key, encode)
    }

    /// The operand of a lone multiply or add (`usage`) of constant `node`
    /// against `ct`.
    fn site_operand(
        &self,
        node: usize,
        usage: OperandUse,
        ct: &S::Ciphertext,
        encode: impl FnOnce() -> Result<S::Operand, HeError>,
    ) -> Result<Arc<S::Operand>, HeError> {
        let encode = || Ok(Encoded::Site(Arc::new(encode()?)));
        match self.get_or_encode(node, usage, ct, encode)? {
            Encoded::Site(op) => Ok(op),
            Encoded::Dot(_) => Err(HeError::Mismatch("operand cache kind".into())),
        }
    }

    /// The fused-dot factor of constant `node` against `ct`.
    fn dot_operand(
        &self,
        node: usize,
        ct: &S::Ciphertext,
        encode: impl FnOnce() -> Result<DotOperand, HeError>,
    ) -> Result<Arc<DotOperand>, HeError> {
        let encode = || Ok(Encoded::Dot(Arc::new(encode()?)));
        match self.get_or_encode(node, OperandUse::Dot, ct, encode)? {
            Encoded::Dot(op) => Ok(op),
            Encoded::Site(_) => Err(HeError::Mismatch("operand cache kind".into())),
        }
    }
}

/// One resident compiled program: the schedule plus the cache of its
/// encoded plaintext operands, so every evaluation after the first encodes
/// nothing. What a server keeps per program it evaluates repeatedly — the
/// serving tier's program cache and a session's resident layers alike.
#[derive(Debug)]
pub struct CachedProgram<S: CompilerScheme> {
    /// The compiled, statically verified schedule.
    pub compiled: CompiledProgram,
    /// Encoded-operand cache shared by every evaluation of this program.
    pub operands: ExecCache<S>,
}

impl<S: CompilerScheme> CachedProgram<S> {
    /// `compiled` with an empty operand cache, unbounded: the working set is
    /// the program's constants.
    pub fn new(compiled: CompiledProgram) -> Self {
        CachedProgram {
            compiled,
            operands: ExecCache::unbounded(),
        }
    }
}

/// Structural optimization over the *source* program (run before
/// [`compile`]): common-subexpression elimination plus rotation-by-zero and
/// duplicate-constant folding. EVA applies the same class of rewrites before
/// scale assignment; on encrypted programs every eliminated node is a saved
/// homomorphic operation.
pub fn optimize(program: &Program) -> Program {
    use std::collections::HashMap;
    #[derive(Hash, PartialEq, Eq)]
    enum Key {
        Input(String),
        Constant(Vec<u64>), // f64 bits for hashability
        Add(usize, usize),
        Sub(usize, usize),
        Mul(usize, usize),
        MulPlain(usize, usize),
        AddPlain(usize, usize),
        Rotate(usize, i64),
    }
    let mut out = Program::new();
    let mut remap: Vec<NodeId> = Vec::with_capacity(program.ops.len());
    let mut seen: HashMap<Key, NodeId> = HashMap::new();
    for op in &program.ops {
        let (key, new_op) = match op {
            Op::Input(n) => (Key::Input(n.clone()), Op::Input(n.clone())),
            Op::Constant(v) => (
                Key::Constant(v.iter().map(|x| x.to_bits()).collect()),
                Op::Constant(v.clone()),
            ),
            Op::Add(a, b) => {
                // Addition commutes: canonicalize operand order.
                let (x, y) = (
                    remap[a.index()].index().min(remap[b.index()].index()),
                    remap[a.index()].index().max(remap[b.index()].index()),
                );
                (Key::Add(x, y), Op::Add(remap[a.index()], remap[b.index()]))
            }
            Op::Sub(a, b) => (
                Key::Sub(remap[a.index()].index(), remap[b.index()].index()),
                Op::Sub(remap[a.index()], remap[b.index()]),
            ),
            Op::Mul(a, b) => {
                let (x, y) = (
                    remap[a.index()].index().min(remap[b.index()].index()),
                    remap[a.index()].index().max(remap[b.index()].index()),
                );
                (Key::Mul(x, y), Op::Mul(remap[a.index()], remap[b.index()]))
            }
            Op::MulPlain(a, c) => (
                Key::MulPlain(remap[a.index()].index(), remap[c.index()].index()),
                Op::MulPlain(remap[a.index()], remap[c.index()]),
            ),
            Op::AddPlain(a, c) => (
                Key::AddPlain(remap[a.index()].index(), remap[c.index()].index()),
                Op::AddPlain(remap[a.index()], remap[c.index()]),
            ),
            Op::Rotate(a, s) => {
                if *s == 0 {
                    // rotate-by-zero is the identity.
                    remap.push(remap[a.index()]);
                    continue;
                }
                (
                    Key::Rotate(remap[a.index()].index(), *s),
                    Op::Rotate(remap[a.index()], *s),
                )
            }
            Op::Rescale(_) | Op::ModSwitch(_) => {
                // Source programs never contain these.
                remap.push(NodeId::new(out.ops.len()));
                out.ops.push(op.clone());
                continue;
            }
        };
        let id = *seen.entry(key).or_insert_with(|| {
            out.ops.push(new_op);
            NodeId::new(out.ops.len() - 1)
        });
        remap.push(id);
    }
    out.outputs = program.outputs.iter().map(|o| remap[o.index()]).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_he::params::HeParams;
    use choco_prng::Blake3Rng;

    fn opts(levels: usize) -> CompilerOptions {
        CompilerOptions {
            scale_bits: 38,
            prime_bits: 45,
            max_levels: levels,
        }
    }

    #[test]
    fn polynomial_program_compiles_and_counts() {
        // y = x^3 + 2x^2 + 1
        let mut p = Program::new();
        let x = p.input("x");
        let x2 = p.mul(x, x);
        let x3 = p.mul(x2, x);
        let two = p.constant(&[2.0; 4]);
        let term = p.mul_plain(x2, two);
        let sum = p.add(x3, term);
        let one = p.constant(&[1.0; 4]);
        let y = p.add_plain(sum, one);
        p.output(y);

        let c = compile(&p, &opts(4)).unwrap();
        assert_eq!(c.counts.ct_mults, 2);
        assert_eq!(c.counts.pt_mults, 1);
        assert!(c.counts.rescales >= 2, "multiplies must trigger rescales");
        assert!(c.required_levels <= 4);
    }

    #[test]
    fn depth_overflow_is_detected() {
        let mut p = Program::new();
        let x = p.input("x");
        let mut acc = x;
        for _ in 0..5 {
            acc = p.mul(acc, acc);
        }
        p.output(acc);
        let err = compile(&p, &opts(3)).unwrap_err();
        assert!(matches!(err, CompileError::DepthExceeded { .. }));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut p = Program::new();
        let c = p.constant(&[1.0]);
        let x = p.input("x");
        let bad = p.add(x, c); // ct+ct op with a constant operand
        p.output(bad);
        assert!(matches!(
            compile(&p, &opts(3)).unwrap_err(),
            CompileError::KindMismatch(_)
        ));
        let empty = Program::new();
        assert_eq!(
            compile(&empty, &opts(3)).unwrap_err(),
            CompileError::NoOutputs
        );
    }

    #[test]
    fn plain_execution_matches_hand_computation() {
        let mut p = Program::new();
        let x = p.input("x");
        let r = p.rotate(x, 1);
        let s = p.add(x, r);
        p.output(s);
        let c = compile(&p, &opts(3)).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![1.0, 2.0, 3.0, 4.0]);
        let out = c.execute_plain(&inputs).unwrap();
        assert_eq!(out[0], vec![3.0, 5.0, 7.0, 5.0]);
        assert_eq!(c.rotation_steps(), vec![1]);
    }

    #[test]
    fn encrypted_execution_matches_plain_reference() {
        // y = (x + rot(x,1)) * w  — a 1D convolution step.
        let mut p = Program::new();
        let x = p.input("x");
        let r = p.rotate(x, 1);
        let s = p.add(x, r);
        let w = p.constant(&[0.5, 1.0, -1.0, 2.0, 0.25, 3.0, 1.5, -0.5]);
        let y = p.mul_plain(s, w);
        let y2 = p.mul(y, y); // exercise ct-mult + rescale too
        p.output(y2);

        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let copts = CompilerOptions {
            scale_bits: 38,
            prime_bits: 45,
            max_levels: ctx.top_level(),
        };
        let c = compile(&p, &copts).unwrap();

        let mut rng = Blake3Rng::from_seed(b"compiler test");
        let keys = ctx.keygen(&mut rng);
        let relin = ctx.relin_key(keys.secret_key(), &mut rng);
        let galois = ctx
            .galois_keys(keys.secret_key(), &c.rotation_steps(), &mut rng)
            .unwrap();

        let x_vals: Vec<f64> = (0..8).map(|i| (i as f64 - 3.0) / 4.0).collect();
        let mut plain_in = HashMap::new();
        plain_in.insert("x".to_string(), {
            let mut v = x_vals.clone();
            v.resize(ctx.slot_count(), 0.0);
            v
        });
        let want = c.execute_plain(&plain_in).unwrap();

        let mut enc_in = HashMap::new();
        let pt = ctx.encode(&x_vals).unwrap();
        enc_in.insert(
            "x".to_string(),
            ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
                .unwrap(),
        );
        let got_ct = c
            .execute_encrypted::<Ckks>(&ctx, &enc_in, &relin, &galois)
            .unwrap();
        let got = ctx.decode(&ctx.decrypt(&got_ct[0], keys.secret_key()));
        for i in 0..8 {
            assert!(
                (got[i] - want[0][i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                got[i],
                want[0][i]
            );
        }
    }

    #[test]
    fn bfv_execution_matches_integer_reference() {
        // out = x + rot(x, 1): no constants, so BFV semantics are exact
        // integer adds — checkable against the batch-decoded reference.
        let mut p = Program::new();
        let x = p.input("x");
        let r = p.rotate(x, 1);
        let s = p.add(x, r);
        p.output(s);
        let copts = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        };
        let c = compile(&p, &copts).unwrap();

        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let ctx = <Bfv as HeScheme>::context(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"bfv compiler test");
        let keys = <Bfv as HeScheme>::keygen(&ctx, &mut rng);
        let relin = <Bfv as HeScheme>::relin_key(&ctx, &keys, &mut rng).unwrap();
        let galois =
            <Bfv as HeScheme>::galois_keys(&ctx, &keys, &c.rotation_steps(), &mut rng).unwrap();

        let width = <Bfv as HeScheme>::slot_width(&ctx);
        let values: Vec<u64> = (0..width as u64).collect();
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            <Bfv as HeScheme>::encrypt(&ctx, &keys, &values, &mut rng).unwrap(),
        );
        let out = c
            .execute_encrypted::<Bfv>(&ctx, &inputs, &relin, &galois)
            .unwrap();
        let got = <Bfv as HeScheme>::decrypt(&ctx, &keys, &out[0]).unwrap();
        // BFV rotations act on the two batching rows independently.
        let half = width;
        for j in 0..half {
            let want = values[j] + values[(j + 1) % half];
            assert_eq!(got[j], want, "slot {j}");
        }
    }

    #[test]
    fn bfv_execution_with_constants_is_deterministic_through_rescale_nodes() {
        // The pipeline-style shape: rotations + plaintext multiplies +
        // a plaintext add. BFV has no chain, so the schedule's inserted
        // Rescale/ModSwitch nodes must pass ciphertexts through untouched
        // and two executions must agree bit-for-bit.
        let mut p = Program::new();
        let x = p.input("x");
        let w = p.constant(&[0.5, 1.0, 1.5, 2.0]);
        let m = p.mul_plain(x, w);
        let b = p.constant(&[1.0, 1.0, 2.0, 2.0]);
        let y = p.add_plain(m, b);
        let sq = p.mul(y, y);
        p.output(sq);
        let copts = CompilerOptions {
            scale_bits: 6,
            prime_bits: 45,
            max_levels: 4,
        };
        let c = compile(&p, &copts).unwrap();

        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let ctx = <Bfv as HeScheme>::context(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"bfv const test");
        let keys = <Bfv as HeScheme>::keygen(&ctx, &mut rng);
        let relin = <Bfv as HeScheme>::relin_key(&ctx, &keys, &mut rng).unwrap();
        let galois =
            <Bfv as HeScheme>::galois_keys(&ctx, &keys, &c.rotation_steps(), &mut rng).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            <Bfv as HeScheme>::encrypt(&ctx, &keys, &[1, 2, 3, 4], &mut rng).unwrap(),
        );
        let a = c
            .execute_encrypted::<Bfv>(&ctx, &inputs, &relin, &galois)
            .unwrap();
        let b = c
            .execute_encrypted::<Bfv>(&ctx, &inputs, &relin, &galois)
            .unwrap();
        assert_eq!(
            <Bfv as HeScheme>::ct_to_wire(&a[0]),
            <Bfv as HeScheme>::ct_to_wire(&b[0]),
            "BFV compiled execution must be deterministic"
        );
    }

    #[test]
    fn shared_exec_cache_skips_reencodes_and_stays_bit_identical() {
        let mut p = Program::new();
        let x = p.input("x");
        let w = p.constant(&[0.25; 8]);
        let y = p.mul_plain(x, w);
        let b = p.constant(&[1.0; 8]);
        let z = p.add_plain(y, b);
        p.output(z);
        let params = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let copts = CompilerOptions {
            scale_bits: 38,
            prime_bits: 45,
            max_levels: ctx.top_level(),
        };
        let c = compile(&p, &copts).unwrap();
        let mut rng = Blake3Rng::from_seed(b"cache test");
        let keys = ctx.keygen(&mut rng);
        let relin = ctx.relin_key(keys.secret_key(), &mut rng);
        let galois = ctx
            .galois_keys(keys.secret_key(), &c.rotation_steps(), &mut rng)
            .unwrap();
        let mut inputs = HashMap::new();
        let pt = ctx.encode(&[1.0; 8]).unwrap();
        inputs.insert(
            "x".to_string(),
            ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
                .unwrap(),
        );

        let cache = ExecCache::<Ckks>::new(16);
        let cold = c
            .execute_encrypted_cached::<Ckks>(&ctx, &inputs, &relin, &galois, &cache)
            .unwrap();
        let after_cold = cache.counters();
        assert_eq!(after_cold.misses, 2, "two constants → two encodes");
        assert_eq!(after_cold.hits, 0);

        let warm = c
            .execute_encrypted_cached::<Ckks>(&ctx, &inputs, &relin, &galois, &cache)
            .unwrap();
        let after_warm = cache.counters();
        assert_eq!(after_warm.misses, 2, "warm run must not re-encode");
        assert_eq!(after_warm.hits, 2);

        // And the uncached twin agrees bit-for-bit.
        let plainpath = c
            .execute_encrypted::<Ckks>(&ctx, &inputs, &relin, &galois)
            .unwrap();
        let wire = |ct: &CkksCiphertext| choco_he::serialize::ckks_ciphertext_to_bytes(ct);
        assert_eq!(wire(&cold[0]), wire(&warm[0]));
        assert_eq!(wire(&cold[0]), wire(&plainpath[0]));
    }

    /// `Σ_d rot(x, steps[d]) ⊙ c_d` the way the workload builders write it:
    /// a left-leaning chain of adds, step 0 meaning `x` itself.
    fn dot_chain(p: &mut Program, x: NodeId, steps: &[i64]) -> NodeId {
        let mut acc = None;
        for (d, &step) in steps.iter().enumerate() {
            let c = p.constant(&[(d % 5) as f64 * 0.25; 4]);
            let rot = if step == 0 { x } else { p.rotate(x, step) };
            let term = p.mul_plain(rot, c);
            acc = Some(acc.map_or(term, |a| p.add(a, term)));
        }
        acc.unwrap()
    }

    /// The waterline `apps::remote::workload_options` pins: a product sits at
    /// 2^60 and takes one rescale.
    fn served_opts() -> CompilerOptions {
        CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        }
    }

    #[test]
    fn a_rotate_multiply_accumulate_chain_is_one_group() {
        // The pagerank shape: an 8-diagonal matvec, a damping multiply, a
        // teleport add.
        let mut p = Program::new();
        let x = p.input("x");
        let matvec = dot_chain(&mut p, x, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let damping = p.constant(&[0.85; 4]);
        let damped = p.mul_plain(matvec, damping);
        let teleport = p.constant(&[0.15; 4]);
        let out = p.add_plain(damped, teleport);
        p.output(out);
        let c = compile(&p, &served_opts()).unwrap();

        let constants: Vec<usize> = (0..c.len())
            .filter(|&i| matches!(c.ops[i], Op::Constant(_)))
            .collect();
        let terms: Vec<(i64, usize)> = (0..8).map(|d| (d as i64, constants[d])).collect();
        assert_eq!(
            c.plan.groups,
            vec![DotGroup {
                source: 0,
                rescales: 1,
                terms
            }]
        );
        // 7 adds + 8 products + 8 rescales + 7 rotations; the damping
        // multiply and the teleport add stay nodes.
        assert_eq!((c.fused_groups(), c.fused_nodes()), (1, 30));
        assert_eq!(c.len(), 43);
        // A schedule, not a rewrite: the program and its counts are what
        // they were.
        let counts = c.counts;
        assert_eq!(
            (
                counts.rotations,
                counts.pt_mults,
                counts.adds,
                counts.rescales
            ),
            (7, 9, 8, 8)
        );
    }

    #[test]
    fn groups_are_maximal_and_independent_of_tree_shape() {
        // A balanced tree over x, and a chain over y, joined by an add: the
        // join has leaves over two sources, so each side is its own group.
        let mut p = Program::new();
        let (x, y) = (p.input("x"), p.input("y"));
        let left = dot_chain(&mut p, x, &[0, 1]);
        let right = dot_chain(&mut p, x, &[2, 3]);
        let over_x = p.add(left, right);
        let over_y = dot_chain(&mut p, y, &[1, 0, 1]);
        let out = p.add(over_x, over_y);
        p.output(out);
        let c = compile(&p, &served_opts()).unwrap();
        let steps = |g: &DotGroup| g.terms.iter().map(|t| t.0).collect::<Vec<_>>();
        assert_eq!(c.fused_groups(), 2);
        assert_eq!(steps(&c.plan.groups[0]), [0, 1, 2, 3]);
        assert_eq!(steps(&c.plan.groups[1]), [1, 0, 1]);
        assert_eq!((c.plan.groups[0].source, c.plan.groups[1].source), (0, 1));

        // Rotations of the running accumulator (rotate-and-add folds, the
        // distance kernel's whole body) are not dots of one ciphertext.
        let mut p = Program::new();
        let x = p.input("x");
        let mut acc = x;
        for step in [1, 2, 4] {
            let r = p.rotate(acc, step);
            acc = p.add(acc, r);
        }
        p.output(acc);
        assert_eq!(compile(&p, &served_opts()).unwrap().fused_groups(), 0);
    }

    /// The plan of a hand-written compiled op list (node `i` is `ops[i]`).
    fn plan_of(ops: &[Op], output: usize) -> FusionPlan {
        FusionPlan::derive(ops, &[NodeId::new(output)])
    }

    #[test]
    fn near_misses_are_not_fused() {
        let n = NodeId::new;
        let input = || Op::Input("x".into());
        let constant = || Op::Constant(vec![1.0]);
        // The reference: x·c + rot(x, 1)·c, each product rescaled once.
        let fusible = vec![
            input(),
            constant(),
            Op::MulPlain(n(0), n(1)),
            Op::Rescale(n(2)),
            Op::Rotate(n(0), 1),
            Op::MulPlain(n(4), n(1)),
            Op::Rescale(n(5)),
            Op::Add(n(3), n(6)),
        ];
        let plan = plan_of(&fusible, 7);
        assert_eq!(
            plan.groups,
            vec![DotGroup {
                source: 0,
                rescales: 1,
                terms: vec![(0, 1), (1, 1)]
            }]
        );
        assert_eq!(plan.role[7], Role::Root(0));
        assert!((2..7).all(|i| plan.role[i] == Role::Interior));
        assert_eq!((plan.role[0], plan.role[1]), (Role::Node, Role::Node));

        let unfused = |ops: &[Op], output: usize, why: &str| {
            let plan = plan_of(ops, output);
            assert!(plan.groups.is_empty(), "{why}: {:?}", plan.groups);
            assert!(plan.role.iter().all(|r| *r == Role::Node), "{why}");
        };

        // A rotation with a second consumer must stay a node, and then the
        // two leaves read two different ciphertexts.
        let mut ops = fusible.clone();
        ops.extend([Op::Add(n(7), n(4))]);
        unfused(&ops, 8, "rotate with two consumers");

        // A product that is also a program output must be materialized.
        let plan = FusionPlan::derive(&fusible, &[n(7), n(6)]);
        assert!(plan.groups.is_empty(), "product that is an output");

        // Leaves over two different sources.
        let mut ops = fusible.clone();
        ops[4] = Op::Input("y".into());
        unfused(&ops, 7, "two sources");

        // A subtraction is not an accumulation.
        let mut ops = fusible.clone();
        ops[7] = Op::Sub(n(3), n(6));
        unfused(&ops, 7, "sub in the tree");

        // One leaf is a plaintext multiply, not a dot.
        unfused(&fusible[..4], 3, "single leaf");

        // Leaves at different rescale depth.
        let mut ops = fusible.clone();
        ops[7] = Op::Add(n(3), n(5));
        ops.push(Op::Rescale(n(7)));
        unfused(&ops, 8, "different rescale depth");

        // x·c + x·c through the *same* product node: consumed twice.
        let ops = vec![
            input(),
            constant(),
            Op::MulPlain(n(0), n(1)),
            Op::Add(n(2), n(2)),
        ];
        unfused(&ops, 3, "one product added to itself");

        // The plan is total on any op list: a forward or missing reference
        // does not fuse and does not panic.
        let mut ops = fusible.clone();
        ops[2] = Op::MulPlain(n(6), n(1));
        ops[5] = Op::MulPlain(n(99), n(98));
        unfused(&ops, 7, "forward and missing references");
        assert!(plan_of(&fusible, 99).groups.len() == 1);

        // A near miss next to a dot costs only itself: with the third
        // product an output, the first two still fuse under the outer add.
        let mut ops = fusible.clone();
        ops.extend([
            Op::Rotate(n(0), 2),
            Op::MulPlain(n(8), n(1)),
            Op::Rescale(n(9)),
            Op::Add(n(7), n(10)),
        ]);
        let plan = FusionPlan::derive(&ops, &[n(11), n(10)]);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].terms.len(), 2);
        assert_eq!(plan.role[7], Role::Root(0));
        assert!((8..12).all(|i| plan.role[i] == Role::Node));

        // A rotation read by leaves of two dots with different step lists —
        // two bundles, two calls — must stay a node, and then each dot reads
        // two ciphertexts.
        let ops = vec![
            input(),
            constant(),
            Op::Rotate(n(0), 1),
            Op::MulPlain(n(0), n(1)),
            Op::MulPlain(n(2), n(1)),
            Op::Add(n(3), n(4)),
            Op::Rotate(n(0), 2),
            Op::MulPlain(n(2), n(1)),
            Op::MulPlain(n(6), n(1)),
            Op::Add(n(7), n(8)),
        ];
        let plan = FusionPlan::derive(&ops, &[n(5), n(9)]);
        assert!(plan.groups.is_empty(), "{:?}", plan.groups);
        assert!(plan.role.iter().all(|r| *r == Role::Node));
        // Read by the leaves of one dot only, it stays a node too: a
        // single-group dot plans as if no rotation were shared.
        let mut ops = ops;
        ops.push(Op::Add(n(5), n(9)));
        unfused(&ops, 10, "rotation shared inside one dot");
    }

    /// `program` with every ciphertext node also declared an output: the
    /// oracle for a fused execution. It computes the same values node by
    /// node, because an interior node of a group may not be an output.
    fn with_every_node_an_output(program: &Program) -> Program {
        let mut twin = program.clone();
        for (i, op) in program.ops().iter().enumerate() {
            if !matches!(op, Op::Constant(_)) {
                twin.output(NodeId::new(i));
            }
        }
        twin
    }

    #[test]
    fn a_forty_term_group_crosses_the_lazy_reduction_flush() {
        // 40 terms over 4 keys: the kernel's unreduced u128 sums are flushed
        // once, after term 32. BFV, so the answer is exact: the fused run,
        // its every-node-an-output twin and the plain semantics agree slot
        // for slot.
        let steps: Vec<i64> = (0..40).map(|d| [0, 1, 3, -2][d % 4]).collect();
        let mut p = Program::new();
        let x = p.input("x");
        let sum = dot_chain(&mut p, x, &steps);
        p.output(sum);
        // Constants are multiples of 1/4: scale 2^2 quantizes them exactly.
        let copts = CompilerOptions {
            scale_bits: 2,
            prime_bits: 2,
            max_levels: 3,
        };
        let fused = compile(&p, &copts).unwrap();
        let twin = compile(&with_every_node_an_output(&p), &copts).unwrap();
        assert_eq!((fused.fused_groups(), twin.fused_groups()), (1, 0));
        assert_eq!(fused.plan.groups[0].terms.len(), 40);
        assert_eq!(fused.plan.groups[0].rescales, 1);

        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let ctx = <Bfv as HeScheme>::context(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"forty terms");
        let keys = <Bfv as HeScheme>::keygen(&ctx, &mut rng);
        let relin = <Bfv as HeScheme>::relin_key(&ctx, &keys, &mut rng).unwrap();
        let galois =
            <Bfv as HeScheme>::galois_keys(&ctx, &keys, &fused.rotation_steps(), &mut rng).unwrap();
        let width = <Bfv as HeScheme>::slot_width(&ctx);
        let values: Vec<u64> = (0..width as u64).map(|i| i % 11).collect();
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            <Bfv as HeScheme>::encrypt(&ctx, &keys, &values, &mut rng).unwrap(),
        );
        let run = |c: &CompiledProgram| {
            let out = c
                .execute_encrypted::<Bfv>(&ctx, &inputs, &relin, &galois)
                .unwrap();
            <Bfv as HeScheme>::decrypt(&ctx, &keys, &out[0]).unwrap()
        };
        let got = run(&fused);
        assert_eq!(got, run(&twin));
        let t = ctx.plain_modulus();
        // The constants are 4 slots wide (zero-padded beyond).
        for (j, &slot) in got.iter().enumerate().take(4) {
            let want: u64 = steps
                .iter()
                .enumerate()
                .map(|(d, &s)| {
                    (d as u64 % 5) * values[(j as i64 + s).rem_euclid(width as i64) as usize]
                })
                .sum();
            assert_eq!(slot, want % t, "slot {j}");
        }
    }

    #[test]
    fn a_warm_fused_request_encodes_nothing_and_is_bit_identical() {
        // Both operand kinds in one cache: eight dot factors, one lone
        // multiply operand, one add operand.
        let mut p = Program::new();
        let x = p.input("x");
        let matvec = dot_chain(&mut p, x, &[0, 1, 2, 3, 0, 1, 2, 3]);
        let damping = p.constant(&[0.5; 4]);
        let damped = p.mul_plain(matvec, damping);
        let teleport = p.constant(&[0.25; 4]);
        let out = p.add_plain(damped, teleport);
        p.output(out);
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let c = compile(&p, &served_opts()).unwrap();
        assert_eq!(c.fused_groups(), 1);
        let mut rng = Blake3Rng::from_seed(b"fused cache test");
        let keys = ctx.keygen(&mut rng);
        let relin = ctx.relin_key(keys.secret_key(), &mut rng);
        let galois = ctx
            .galois_keys(keys.secret_key(), &c.rotation_steps(), &mut rng)
            .unwrap();
        let mut inputs = HashMap::new();
        let pt = ctx.encode(&[0.5; 8]).unwrap();
        inputs.insert(
            "x".to_string(),
            ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
                .unwrap(),
        );
        let cache = ExecCache::<Ckks>::unbounded();
        let run = || {
            c.execute_encrypted_cached::<Ckks>(&ctx, &inputs, &relin, &galois, &cache)
                .unwrap()
        };
        let cold = run();
        let after_cold = cache.counters();
        assert_eq!((after_cold.misses, after_cold.hits), (10, 0));
        assert_eq!(cache.len(), 10);
        let warm = run();
        let after_warm = cache.counters();
        assert_eq!((after_warm.misses, after_warm.hits), (10, 10));
        let wire = |ct: &CkksCiphertext| choco_he::serialize::ckks_ciphertext_to_bytes(ct);
        assert_eq!(wire(&cold[0]), wire(&warm[0]));
        // The result sits where the schedule says: one level down, and at
        // the product scale over the dropped prime.
        assert_eq!(warm[0].level(), c.meta(c.outputs[0]).level);
    }

    /// The dots numbered `chains` over `x`, each `Σ_k rot(x, steps[k]) ⊙ c`
    /// with its own constants, each an output; with `shared`, one rotation
    /// per step serves every chain (the form `optimize` leaves), otherwise
    /// every chain rotates for itself.
    fn conv_like(chains: &[usize], steps: &[i64], shared: bool) -> Program {
        let mut p = Program::new();
        let x = p.input("x");
        let rotate = |p: &mut Program, step: i64| if step == 0 { x } else { p.rotate(x, step) };
        let taps: Vec<NodeId> = steps
            .iter()
            .map(|&s| if shared { rotate(&mut p, s) } else { x })
            .collect();
        for &chain in chains {
            let mut acc = None;
            for (k, (&step, &tap)) in steps.iter().zip(&taps).enumerate() {
                let value = (chain * steps.len() + k) as f64 * 0.125;
                let c = p.constant(&[value, 0.5, 1.0 - value, 0.25]);
                let rotated = if shared { tap } else { rotate(&mut p, step) };
                let term = p.mul_plain(rotated, c);
                acc = Some(acc.map_or(term, |a| p.add(a, term)));
            }
            p.output(acc.unwrap());
        }
        p
    }

    #[test]
    fn dots_over_one_source_and_one_step_list_are_one_bundle_shared_rotations_or_not() {
        // A conv layer's shape: four diagonals over the same tap rotations.
        // Written with a rotation per chain, or with the rotations shared —
        // by hand or by `optimize`'s CSE — it is four groups in one kernel
        // call, the rotations inside the call.
        let steps = [-1, 0, 1, 2];
        let unshared = conv_like(&[0, 1, 2, 3], &steps, false);
        let forms = [
            conv_like(&[0, 1, 2, 3], &steps, true),
            optimize(&unshared),
            unshared,
        ];
        let mut rotations = Vec::new();
        for p in &forms {
            let c = compile(p, &served_opts()).unwrap();
            assert_eq!((c.fused_groups(), c.fused_bundles()), (4, 1));
            assert_eq!(c.plan.bundles, vec![vec![0, 1, 2, 3]]);
            // Nothing but the input and the constants is left a node.
            let nodes = c.plan.role.iter().filter(|r| **r == Role::Node).count();
            assert_eq!(nodes, 1 + 16);
            rotations.push(c.counts.rotations);
        }
        assert_eq!(rotations, [3, 3, 12]);

        // Different step lists over one source are two calls; the same list
        // over another source too.
        let mut p = conv_like(&[0, 1], &steps, true);
        let x = NodeId::new(0);
        let y = p.input("y");
        for (src, list) in [(x, [1, 2]), (y, [-1, 0])] {
            let mut acc = None;
            for step in list {
                let c = p.constant(&[1.0; 4]);
                let r = if step == 0 { src } else { p.rotate(src, step) };
                let term = p.mul_plain(r, c);
                acc = Some(acc.map_or(term, |a| p.add(a, term)));
            }
            p.output(acc.unwrap());
        }
        let c = compile(&p, &served_opts()).unwrap();
        assert_eq!((c.fused_groups(), c.fused_bundles()), (4, 3));
        assert_eq!(c.plan.bundles, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn a_bundle_is_bit_identical_to_its_groups_run_alone() {
        // Two chains over the same rotations of one CKKS ciphertext, each
        // product rescaled: bundled into one call, and each as a program of
        // its own (one group, one call). The kernel's outputs do not depend
        // on which others share the call, and neither do the rescales.
        let steps = [0, 1, 3];
        let bundled = conv_like(&[0, 1], &steps, true);
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
        let ctx = CkksContext::new(&params).unwrap();
        let c = compile(&bundled, &served_opts()).unwrap();
        assert_eq!((c.fused_groups(), c.fused_bundles()), (2, 1));
        assert_eq!(c.plan.groups[0].rescales, 1);
        let mut rng = Blake3Rng::from_seed(b"bundle vs groups");
        let keys = ctx.keygen(&mut rng);
        let relin = ctx.relin_key(keys.secret_key(), &mut rng);
        let galois = ctx
            .galois_keys(keys.secret_key(), &c.rotation_steps(), &mut rng)
            .unwrap();
        let pt = ctx.encode(&[0.5, -0.25, 1.0, 0.75]).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
                .unwrap(),
        );
        let run = |c: &CompiledProgram| {
            c.execute_encrypted::<Ckks>(&ctx, &inputs, &relin, &galois)
                .unwrap()
        };
        let wire = |ct: &CkksCiphertext| choco_he::serialize::ckks_ciphertext_to_bytes(ct);
        let together = run(&c);
        for (chain, out) in together.iter().enumerate() {
            let single = compile(&conv_like(&[chain], &steps, true), &served_opts()).unwrap();
            assert_eq!((single.fused_groups(), single.fused_bundles()), (1, 1));
            assert_eq!(wire(out), wire(&run(&single)[0]), "chain {chain}");
            assert_eq!(out.level(), c.meta(c.outputs[chain]).level);
        }
    }

    #[test]
    fn add_after_different_depths_aligns_levels() {
        // x*x (one rescale) + x must mod-switch x down one level.
        let mut p = Program::new();
        let x = p.input("x");
        let sq = p.mul(x, x);
        let s = p.add(sq, x);
        p.output(s);
        let c = compile(&p, &opts(4)).unwrap();
        assert!(c.counts.mod_switches >= 1, "level alignment required");
        // And it runs correctly end to end on plaintext.
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![2.0, 3.0]);
        let out = c.execute_plain(&inputs).unwrap();
        assert_eq!(out[0], vec![6.0, 12.0]);
    }

    #[test]
    fn cse_deduplicates_repeated_subexpressions() {
        // x*x computed twice, rotate-by-zero, duplicate constants.
        let mut p = Program::new();
        let x = p.input("x");
        let sq1 = p.mul(x, x);
        let sq2 = p.mul(x, x);
        let r0 = p.rotate(sq1, 0);
        let c1 = p.constant(&[2.0]);
        let c2 = p.constant(&[2.0]);
        let t1 = p.mul_plain(r0, c1);
        let t2 = p.mul_plain(sq2, c2);
        let y = p.add(t1, t2); // = 2x² + 2x² — both sides identical after CSE
        p.output(y);

        let opt = optimize(&p);
        assert!(opt.len() < p.len(), "{} -> {}", p.len(), opt.len());
        // Semantics preserved.
        let copts = opts(4);
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![3.0]);
        let before = compile(&p, &copts).unwrap().execute_plain(&inputs).unwrap();
        let after = compile(&opt, &copts)
            .unwrap()
            .execute_plain(&inputs)
            .unwrap();
        assert_eq!(before, after);
        assert_eq!(after[0], vec![36.0]); // 4·x² at x=3
                                          // The optimized program compiles to fewer homomorphic multiplies.
        let c_before = compile(&p, &copts).unwrap().counts;
        let c_after = compile(&opt, &copts).unwrap().counts;
        assert!(c_after.ct_mults < c_before.ct_mults);
        assert!(c_after.pt_mults <= c_before.pt_mults);
    }

    #[test]
    fn cse_respects_commutativity_of_add_and_mul() {
        let mut p = Program::new();
        let x = p.input("x");
        let y = p.input("y");
        let a = p.add(x, y);
        let b = p.add(y, x); // same value, swapped operands
        let s = p.mul(a, b);
        p.output(s);
        let opt = optimize(&p);
        // a and b collapse into one node.
        assert_eq!(opt.len(), p.len() - 1);
    }

    #[test]
    fn required_levels_grow_with_multiplicative_depth() {
        let depth_of = |muls: usize| -> usize {
            let mut p = Program::new();
            let x = p.input("x");
            let mut acc = x;
            for _ in 0..muls {
                acc = p.mul(acc, acc);
            }
            p.output(acc);
            compile(&p, &opts(10)).unwrap().required_levels
        };
        assert!(depth_of(1) < depth_of(2));
        assert!(depth_of(2) < depth_of(4));
    }
}
