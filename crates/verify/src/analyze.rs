//! The abstract interpreter.
//!
//! One forward pass over the compiler's own op list — a source `Program`'s
//! or a `CompiledProgram`'s, read through a [`Circuit`] view — computes,
//! per node, an element of the product domain *kind × level × scale ×
//! noise × width*:
//!
//! * **kind** — ciphertext or plaintext (exact);
//! * **level** — remaining data primes, replaying the compiler's arithmetic
//!   (exact for compiled programs; for source programs the pass simulates
//!   the waterline scheduling the compiler would perform);
//! * **scale** — log2 fixed-point scale, the same f64 recurrence the
//!   compiler uses (exact);
//! * **noise** — *consumed* BFV noise bits, an upper bound from the
//!   `choco::params` cost model (conservative, never tight);
//! * **width** — packed slot width, `Unknown ⊔ Exact(w)` (constants are
//!   exact, encrypted inputs unknown, joins meet at binary ops).
//!
//! Compiled programs additionally carry the compiler's per-node claims
//! ([`NodeMeta`](crate::NodeMeta));
//! the pass cross-checks claim against recomputation (`LEVEL004` /
//! `SCALE003`), which is what catches metadata corruption that a pure
//! recomputation would silently repeat.

use crate::circuit::{Circuit, NodeId, Op};
use crate::report::VerifyReport;
use crate::{Diagnostic, RuleId, VerifyError};
use choco_he::params::{HeParams, SchemeType};

/// Scheme the verification pass targets. Structural, key-coverage, and
/// slot-shape rules apply to both; scale rules are CKKS-only and the noise
/// budget is BFV-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Exact modular arithmetic; noise-budget rule applies.
    Bfv,
    /// Approximate fixed point; scale rules apply.
    Ckks,
}

impl Scheme {
    /// Lower-case name used by the CLI and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Bfv => "bfv",
            Scheme::Ckks => "ckks",
        }
    }
}

/// Whether a node's value is a ciphertext or a plaintext constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Encrypted value.
    Cipher,
    /// Server-known plaintext constant.
    Plain,
}

impl ValueKind {
    /// Lower-case name used by the CLI and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Cipher => "cipher",
            ValueKind::Plain => "plain",
        }
    }
}

/// The BFV worst-case noise cost model, the one set of noise constants
/// (`choco::params::select_bfv_params` prices its candidates with it too):
/// fresh noise `log2(6σ) + ½log2(2N)`,
/// each plaintext multiply `t_bits + ½log2(2N)`, each ciphertext multiply
/// `t_bits + log2(2N)`, rotations ~2 bits, additions and chain-maintenance
/// ops ~1 bit. The budget is `data_bits − t_bits − 1`. Every figure is an
/// upper bound on the measured behaviour of `choco-he`, so `NOISE001` has
/// no false negatives against this model — but it may reject programs that
/// would in fact decrypt (conservative, not tight; see DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Ring degree `N`.
    pub n: usize,
    /// Plaintext-modulus bits.
    pub t_bits: u32,
    /// Total data-modulus bits (special prime excluded).
    pub data_bits: u32,
}

impl NoiseModel {
    /// Noise bits one rotation consumes.
    pub const ROTATE_BITS: f64 = 2.0;
    /// Noise bits one addition consumes.
    pub const ADD_BITS: f64 = 1.0;
    /// Noise bits one rescale/mod-switch consumes.
    pub const SWITCH_BITS: f64 = 1.0;

    /// Derives the model from a BFV parameter set.
    pub fn from_params(params: &HeParams) -> NoiseModel {
        let t_bits = 64 - params.plain_modulus().leading_zeros();
        let data_bits = params
            .prime_bits()
            .iter()
            .take(params.data_prime_count())
            .sum();
        NoiseModel {
            n: params.degree(),
            t_bits,
            data_bits,
        }
    }

    fn half_log_2n(&self) -> f64 {
        0.5 * (2.0 * self.n as f64).log2()
    }

    /// Invariant-noise bits of a fresh ciphertext: `log2(6σ) + ½log2(2N)`.
    pub fn fresh_bits(&self) -> f64 {
        (6.0 * 3.2f64).log2() + self.half_log_2n()
    }

    /// Noise bits one plaintext multiply consumes.
    pub fn plain_mult_bits(&self) -> f64 {
        self.t_bits as f64 + self.half_log_2n()
    }

    /// Noise bits one ciphertext multiply (with relinearization) consumes.
    pub fn ct_mult_bits(&self) -> f64 {
        self.t_bits as f64 + 2.0 * self.half_log_2n()
    }

    /// Total noise budget of a fresh ciphertext: `data_bits − t_bits − 1`.
    pub fn budget_bits(&self) -> f64 {
        self.data_bits as f64 - self.t_bits as f64 - 1.0
    }
}

/// Configuration of one verification pass.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Scheme the pass targets.
    pub scheme: Scheme,
    /// The compiler's waterline (input/encoding scale) in bits.
    pub waterline_bits: u32,
    /// Bits of each rescaling prime.
    pub prime_bits: u32,
    /// Levels the target chain provides.
    pub max_levels: usize,
    /// `SCALE001` tolerance for `Add`/`Sub` operand-scale disagreement, in
    /// bits. Defaults to `prime_bits / 2` — the half-prime band the
    /// compiler's waterline rule keeps all post-rescale scales inside.
    pub scale_tol_bits: f64,
    /// Slot capacity of the parameter set, when known (`SLOT002`).
    pub slot_count: Option<usize>,
    /// Galois key steps the client will generate, when known (`KEY001`).
    pub galois_steps: Option<Vec<i64>>,
    /// BFV noise model (`NOISE001`); `None` disables the noise rule.
    pub noise: Option<NoiseModel>,
}

impl VerifyOptions {
    /// CKKS options matching a `CompilerOptions` triple.
    pub fn ckks(waterline_bits: u32, prime_bits: u32, max_levels: usize) -> VerifyOptions {
        VerifyOptions {
            scheme: Scheme::Ckks,
            waterline_bits,
            prime_bits,
            max_levels,
            scale_tol_bits: prime_bits as f64 / 2.0,
            slot_count: None,
            galois_steps: None,
            noise: None,
        }
    }

    /// BFV options: no scale tracking, noise model active.
    pub fn bfv(noise: NoiseModel, max_levels: usize) -> VerifyOptions {
        VerifyOptions {
            scheme: Scheme::Bfv,
            waterline_bits: 0,
            prime_bits: 0,
            max_levels,
            scale_tol_bits: 0.0,
            slot_count: None,
            galois_steps: None,
            noise: Some(noise),
        }
    }

    /// Derives full options from a parameter set: scheme, waterline, prime
    /// size, chain length, slot capacity, and (BFV) the noise model.
    pub fn for_params(params: &HeParams) -> VerifyOptions {
        let prime_bits = params.prime_bits().first().copied().unwrap_or(0);
        let base = match params.scheme() {
            SchemeType::Ckks => {
                VerifyOptions::ckks(params.scale_bits(), prime_bits, params.data_prime_count())
            }
            SchemeType::Bfv => {
                VerifyOptions::bfv(NoiseModel::from_params(params), params.data_prime_count())
            }
        };
        VerifyOptions {
            slot_count: Some(params.slot_count()),
            ..base
        }
    }

    /// Sets the Galois key steps the client will provision (`KEY001`).
    #[must_use]
    pub fn with_galois_steps(mut self, steps: &[i64]) -> VerifyOptions {
        self.galois_steps = Some(steps.to_vec());
        self
    }

    /// Sets the slot capacity (`SLOT002`).
    #[must_use]
    pub fn with_slot_count(mut self, slots: usize) -> VerifyOptions {
        self.slot_count = Some(slots);
        self
    }
}

/// The abstract value the pass computes for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractState {
    /// Ciphertext or plaintext.
    pub kind: ValueKind,
    /// Remaining data primes (0 marks a node past tower exhaustion).
    pub level: usize,
    /// log2 fixed-point scale (CKKS; 0 under BFV options).
    pub scale_bits: f64,
    /// Consumed worst-case noise bits (BFV; 0 without a noise model).
    pub noise_bits: f64,
    /// Packed slot width, when statically known.
    pub width: Option<usize>,
}

/// Working state: level as `i64` so tower underflow is representable.
#[derive(Clone, Copy)]
struct Work {
    kind: ValueKind,
    level: i64,
    scale: f64,
    noise: f64,
    width: Option<usize>,
}

impl Work {
    fn missing() -> Work {
        Work {
            kind: ValueKind::Cipher,
            level: 0,
            scale: 0.0,
            noise: 0.0,
            width: None,
        }
    }
}

fn get(work: &[Work], i: usize) -> Work {
    work.get(i).copied().unwrap_or_else(Work::missing)
}

/// Pushes `STRUCT002` when operand `j` of node `i` is not of `want` kind.
fn check_kind(
    work: &[Work],
    i: usize,
    name: &str,
    j: usize,
    want: ValueKind,
    diags: &mut Vec<Diagnostic>,
) {
    let have = get(work, j).kind;
    if have != want {
        diags.push(Diagnostic::new(
            RuleId::Struct002,
            i,
            name,
            format!(
                "operand {j} is a {} value where a {} is required",
                have.name(),
                want.name()
            ),
        ));
    }
}

/// Joins two slot widths, reporting `SLOT001` on conflict; the result takes
/// the smaller width (the truncating semantics the executors implement).
fn join_width(
    a: Option<usize>,
    b: Option<usize>,
    i: usize,
    name: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<usize> {
    match (a, b) {
        (Some(wa), Some(wb)) if wa != wb => {
            diags.push(Diagnostic::new(
                RuleId::Slot001,
                i,
                name,
                format!(
                    "operand widths disagree: {wa} vs {wb} slots — zip would silently truncate"
                ),
            ));
            Some(wa.min(wb))
        }
        (Some(w), _) | (_, Some(w)) => Some(w),
        (None, None) => None,
    }
}

/// Runs the abstract pass and returns per-node states plus all diagnostics,
/// sorted by (node, rule). On a malformed topology (`STRUCT001` or an
/// out-of-range output) the states are empty: interpretation is not
/// meaningful over a broken graph.
pub fn analyze(
    circuit: &Circuit<'_>,
    opts: &VerifyOptions,
) -> (Vec<AbstractState>, Vec<Diagnostic>) {
    let mut diags: Vec<Diagnostic> = Vec::new();

    // --- structural pass -------------------------------------------------
    let mut malformed = false;
    for (i, op) in circuit.ops.iter().enumerate() {
        for j in op.operands().map(NodeId::index) {
            if j >= i {
                diags.push(Diagnostic::new(
                    RuleId::Struct001,
                    i,
                    op.name(),
                    format!("operand {j} is not an earlier node (topological order violated)"),
                ));
                malformed = true;
            }
        }
    }
    if circuit.outputs.is_empty() {
        diags.push(Diagnostic::new(
            RuleId::Struct003,
            0,
            "Program",
            "program has no outputs",
        ));
    }
    for out in circuit.outputs.iter().map(|o| o.index()) {
        if out >= circuit.ops.len() {
            diags.push(Diagnostic::new(
                RuleId::Struct003,
                out,
                "Output",
                format!(
                    "output index {out} is out of range ({} nodes)",
                    circuit.ops.len()
                ),
            ));
            malformed = true;
        }
    }
    if malformed {
        diags.sort_by_key(|d| (d.node, d.rule));
        return (Vec::new(), diags);
    }

    // --- abstract pass ----------------------------------------------------
    let scheduled = circuit.is_scheduled();
    let claims = circuit.claims.unwrap_or_default();
    let waterline = opts.waterline_bits as f64;
    let prime = opts.prime_bits as f64;
    let half_prime = prime / 2.0;
    let top = opts.max_levels as i64;
    let fresh_noise = opts.noise.map_or(0.0, |m| m.fresh_bits());
    // Virtual rescale for *unscheduled* circuits: what the compiler's
    // `rescale_to_waterline` would do at this use site.
    let virt = |mut w: Work| -> Work {
        if !scheduled {
            while w.scale > waterline + half_prime {
                w.scale -= prime;
                w.level -= 1;
            }
        }
        w
    };
    // LEVEL002 (scheduled only): no op other than the scheduled `Rescale`
    // may consume a value still above the waterline band.
    let consume = |work: &[Work], i: usize, name: &str, j: usize, diags: &mut Vec<Diagnostic>| {
        let w = get(work, j);
        if scheduled && w.kind == ValueKind::Cipher && w.scale > waterline + half_prime {
            diags.push(Diagnostic::new(
                RuleId::Level002,
                i,
                name,
                format!(
                    "operand {j} carries scale 2^{:.1} above the waterline band 2^{:.1} — a Rescale is missing",
                    w.scale,
                    waterline + half_prime
                ),
            ));
        }
    };

    let mut work: Vec<Work> = Vec::with_capacity(circuit.ops.len());
    for (i, op) in circuit.ops.iter().enumerate() {
        let name = op.name();
        let state = match op {
            Op::Input(_) => Work {
                kind: ValueKind::Cipher,
                level: top,
                scale: waterline,
                noise: fresh_noise,
                width: None,
            },
            Op::Constant(values) => {
                let len = values.len();
                if let Some(slots) = opts.slot_count {
                    if len > slots {
                        diags.push(Diagnostic::new(
                            RuleId::Slot002,
                            i,
                            name,
                            format!(
                                "constant packs {len} slots but the parameter set provides {slots}"
                            ),
                        ));
                    }
                }
                Work {
                    kind: ValueKind::Plain,
                    level: top,
                    scale: waterline,
                    noise: 0.0,
                    width: Some(len),
                }
            }
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                let (a, b) = (a.index(), b.index());
                check_kind(&work, i, name, a, ValueKind::Cipher, &mut diags);
                check_kind(&work, i, name, b, ValueKind::Cipher, &mut diags);
                consume(&work, i, name, a, &mut diags);
                consume(&work, i, name, b, &mut diags);
                let (wa, wb) = (virt(get(&work, a)), virt(get(&work, b)));
                let is_mul = matches!(op, Op::Mul(..));
                if scheduled && wa.level != wb.level {
                    diags.push(Diagnostic::new(
                        RuleId::Level001,
                        i,
                        name,
                        format!(
                            "operand levels differ: node {a} at level {} vs node {b} at level {} — a ModSwitch is missing",
                            wa.level, wb.level
                        ),
                    ));
                }
                if scheduled
                    && !is_mul
                    && opts.scheme == Scheme::Ckks
                    && (wa.scale - wb.scale).abs() > opts.scale_tol_bits
                {
                    diags.push(Diagnostic::new(
                        RuleId::Scale001,
                        i,
                        name,
                        format!(
                            "operand scales disagree beyond tolerance: 2^{:.1} vs 2^{:.1} (tol {:.1} bits)",
                            wa.scale, wb.scale, opts.scale_tol_bits
                        ),
                    ));
                }
                let level = wa.level.min(wb.level);
                let scale = if is_mul {
                    wa.scale + wb.scale
                } else {
                    wa.scale.max(wb.scale)
                };
                let noise_cost = match (is_mul, opts.noise) {
                    (true, Some(m)) => m.ct_mult_bits(),
                    (false, Some(_)) => NoiseModel::ADD_BITS,
                    (_, None) => 0.0,
                };
                let mut w = Work {
                    kind: ValueKind::Cipher,
                    level,
                    scale,
                    noise: wa.noise.max(wb.noise) + noise_cost,
                    width: join_width(wa.width, wb.width, i, name, &mut diags),
                };
                if !scheduled && is_mul {
                    // The compiler rescales a fresh product immediately.
                    while w.scale > waterline + half_prime {
                        w.scale -= prime;
                        w.level -= 1;
                    }
                }
                w
            }
            Op::MulPlain(a, c) | Op::AddPlain(a, c) => {
                let (a, c) = (a.index(), c.index());
                check_kind(&work, i, name, a, ValueKind::Cipher, &mut diags);
                check_kind(&work, i, name, c, ValueKind::Plain, &mut diags);
                consume(&work, i, name, a, &mut diags);
                let wa = virt(get(&work, a));
                let wc = get(&work, c);
                let is_mul = matches!(op, Op::MulPlain(..));
                let (scale, noise_cost) = if is_mul {
                    (
                        wa.scale + waterline,
                        opts.noise.map_or(0.0, |m| m.plain_mult_bits()),
                    )
                } else {
                    (wa.scale, opts.noise.map_or(0.0, |_| NoiseModel::ADD_BITS))
                };
                let mut w = Work {
                    kind: ValueKind::Cipher,
                    level: wa.level,
                    scale,
                    noise: wa.noise + noise_cost,
                    width: join_width(wa.width, wc.width, i, name, &mut diags),
                };
                if !scheduled && is_mul {
                    while w.scale > waterline + half_prime {
                        w.scale -= prime;
                        w.level -= 1;
                    }
                }
                w
            }
            Op::Rotate(a, s) => {
                let a = a.index();
                check_kind(&work, i, name, a, ValueKind::Cipher, &mut diags);
                consume(&work, i, name, a, &mut diags);
                if *s != 0 {
                    if let Some(galois) = &opts.galois_steps {
                        if !galois.contains(s) {
                            diags.push(Diagnostic::new(
                                RuleId::Key001,
                                i,
                                name,
                                format!(
                                    "rotation step {s} is not covered by the Galois key set {galois:?}"
                                ),
                            ));
                        }
                    }
                }
                let wa = get(&work, a);
                let rot_cost = if *s != 0 && opts.noise.is_some() {
                    NoiseModel::ROTATE_BITS
                } else {
                    0.0
                };
                Work {
                    noise: wa.noise + rot_cost,
                    ..wa
                }
            }
            Op::Rescale(a) | Op::ModSwitch(a) => {
                let a = a.index();
                if !scheduled {
                    diags.push(Diagnostic::new(
                        RuleId::Struct002,
                        i,
                        name,
                        "compiler-inserted op in a source program — only compile() may schedule these",
                    ));
                }
                check_kind(&work, i, name, a, ValueKind::Cipher, &mut diags);
                let wa = get(&work, a);
                let scale = if matches!(op, Op::Rescale(_)) {
                    wa.scale - prime
                } else {
                    wa.scale
                };
                Work {
                    kind: ValueKind::Cipher,
                    level: wa.level - 1,
                    scale,
                    noise: wa.noise + opts.noise.map_or(0.0, |_| NoiseModel::SWITCH_BITS),
                    width: wa.width,
                }
            }
        };
        // LEVEL003 at the first node whose level underflows the tower.
        if state.kind == ValueKind::Cipher
            && state.level < 1
            && op.operands().all(|j| get(&work, j.index()).level >= 1)
        {
            diags.push(Diagnostic::new(
                RuleId::Level003,
                i,
                name,
                format!(
                    "level {} underflows the modulus tower (chain provides {}, min usable level is 1)",
                    state.level, opts.max_levels
                ),
            ));
        }
        // Cross-check the compiler's claims against the recomputation.
        if let Some(claim) = claims.get(i) {
            if claim.level as i64 != state.level {
                diags.push(Diagnostic::new(
                    RuleId::Level004,
                    i,
                    name,
                    format!(
                        "compiler claims level {} but recomputation gives {}",
                        claim.level, state.level
                    ),
                ));
            }
            if opts.scheme == Scheme::Ckks && (claim.scale_bits - state.scale).abs() > 1e-6 {
                diags.push(Diagnostic::new(
                    RuleId::Scale003,
                    i,
                    name,
                    format!(
                        "compiler claims scale 2^{:.3} but recomputation gives 2^{:.3}",
                        claim.scale_bits, state.scale
                    ),
                ));
            }
        }
        work.push(state);
    }

    // --- output rules -----------------------------------------------------
    for out in circuit.outputs.iter().map(|o| o.index()) {
        let w = get(&work, out);
        let name = circuit.ops.get(out).map_or("Output", Op::name);
        if w.kind != ValueKind::Cipher {
            diags.push(Diagnostic::new(
                RuleId::Struct003,
                out,
                name,
                "program output is not a ciphertext",
            ));
        }
        if scheduled && opts.scheme == Scheme::Ckks {
            let band = opts.scale_tol_bits.max(half_prime);
            if (w.scale - waterline).abs() > band {
                diags.push(Diagnostic::new(
                    RuleId::Scale002,
                    out,
                    name,
                    format!(
                        "output scale 2^{:.1} misses the target 2^{:.1} by more than {band:.1} bits",
                        w.scale, waterline
                    ),
                ));
            }
        }
    }

    // --- noise budget (live ct nodes, first crossing only) ----------------
    if let Some(model) = opts.noise {
        let budget = model.budget_bits();
        let mut live = vec![false; circuit.ops.len()];
        for out in circuit.outputs {
            if let Some(slot) = live.get_mut(out.index()) {
                *slot = true;
            }
        }
        for (i, op) in circuit.ops.iter().enumerate().rev() {
            if live.get(i).copied().unwrap_or(false) {
                for j in op.operands() {
                    if let Some(slot) = live.get_mut(j.index()) {
                        *slot = true;
                    }
                }
            }
        }
        for (i, op) in circuit.ops.iter().enumerate() {
            let w = get(&work, i);
            let crossing = w.kind == ValueKind::Cipher
                && w.noise >= budget
                && op.operands().all(|j| get(&work, j.index()).noise < budget);
            if live.get(i).copied().unwrap_or(false) && crossing {
                diags.push(Diagnostic::new(
                    RuleId::Noise001,
                    i,
                    op.name(),
                    format!(
                        "worst-case consumed noise {:.1} bits exceeds the budget {budget:.1} \
                         (N={}, t={} bits, data modulus {} bits)",
                        w.noise, model.n, model.t_bits, model.data_bits
                    ),
                ));
            }
        }
    }

    diags.sort_by_key(|d| (d.node, d.rule));
    let states = work
        .into_iter()
        .map(|w| AbstractState {
            kind: w.kind,
            level: w.level.max(0) as usize,
            scale_bits: w.scale,
            noise_bits: w.noise,
            width: w.width,
        })
        .collect();
    (states, diags)
}

/// Verifies a circuit: `Ok(report)` when no rule fires, otherwise a
/// [`VerifyError`] carrying every diagnostic.
///
/// # Errors
///
/// Returns [`VerifyError`] when any verification rule fires.
pub fn verify(circuit: &Circuit<'_>, opts: &VerifyOptions) -> Result<VerifyReport, VerifyError> {
    let rep = VerifyReport::build(circuit, opts);
    if rep.diagnostics.is_empty() {
        Ok(rep)
    } else {
        Err(VerifyError {
            diagnostics: rep.diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NodeMeta;

    fn verify_source(
        ops: &[Op],
        outputs: &[NodeId],
        opts: &VerifyOptions,
    ) -> Result<VerifyReport, VerifyError> {
        let circuit = Circuit {
            ops,
            outputs,
            claims: None,
        };
        verify(&circuit, opts)
    }

    /// Verifies `ops` as a scheduled circuit whose claims are taken from the
    /// scheduled recomputation itself, so only the rule under test can fire.
    /// The probe pass uses dummy claims — states never depend on claims,
    /// only the cross-check diagnostics do.
    fn verify_scheduled(
        ops: &[Op],
        outputs: &[NodeId],
        opts: &VerifyOptions,
    ) -> Result<VerifyReport, VerifyError> {
        let dummy = vec![
            NodeMeta {
                scale_bits: 0.0,
                level: 0,
            };
            ops.len()
        ];
        let probe = Circuit {
            ops,
            outputs,
            claims: Some(&dummy),
        };
        let (states, _) = analyze(&probe, opts);
        let claims: Vec<NodeMeta> = states
            .iter()
            .map(|s| NodeMeta {
                scale_bits: s.scale_bits,
                level: s.level,
            })
            .collect();
        verify(
            &Circuit {
                claims: Some(&claims),
                ..probe
            },
            opts,
        )
    }

    fn n(index: usize) -> NodeId {
        NodeId::new(index)
    }

    fn input(name: &str) -> Op {
        Op::Input(name.into())
    }

    fn constant(len: usize) -> Op {
        Op::Constant(vec![1.0; len])
    }

    #[test]
    fn struct002_plain_operand_where_cipher_required() {
        let ops = [input("x"), constant(4), Op::Add(n(0), n(1))];
        let err = verify_source(&ops, &[n(2)], &VerifyOptions::ckks(40, 40, 3)).unwrap_err();
        assert!(err.has(RuleId::Struct002, 2));
    }

    #[test]
    fn struct002_cipher_operand_where_plain_required() {
        let ops = [input("x"), input("y"), Op::MulPlain(n(0), n(1))];
        let err = verify_source(&ops, &[n(2)], &VerifyOptions::ckks(40, 40, 3)).unwrap_err();
        assert!(err.has(RuleId::Struct002, 2));
    }

    #[test]
    fn struct002_compiler_op_in_source_program() {
        let ops = [input("x"), Op::Rescale(n(0))];
        let err = verify_source(&ops, &[n(1)], &VerifyOptions::ckks(40, 40, 3)).unwrap_err();
        assert!(err.has(RuleId::Struct002, 1));
    }

    #[test]
    fn struct003_no_outputs_and_plain_output() {
        let err = verify_source(&[input("x")], &[], &VerifyOptions::ckks(40, 40, 3)).unwrap_err();
        assert!(err.has(RuleId::Struct003, 0));

        let err =
            verify_source(&[constant(4)], &[n(0)], &VerifyOptions::ckks(40, 40, 3)).unwrap_err();
        assert!(err.has(RuleId::Struct003, 0));
    }

    #[test]
    fn scale001_operand_scales_beyond_tolerance() {
        // MulPlain then Rescale leaves one Add operand at 2^20 against a
        // fresh 2^40 input; with the tolerance tightened to 10 bits the
        // disagreement is flagged.
        let mut opts = VerifyOptions::ckks(40, 60, 3);
        let ops = [
            input("x"),
            constant(4),
            Op::MulPlain(n(0), n(1)),
            Op::Rescale(n(2)),
            Op::ModSwitch(n(0)),
            Op::Add(n(3), n(4)),
        ];
        let out = [n(5)];
        assert!(
            verify_scheduled(&ops, &out, &opts).is_ok(),
            "default half-prime band passes"
        );
        opts.scale_tol_bits = 10.0;
        let err = verify_scheduled(&ops, &out, &opts).unwrap_err();
        assert!(err.has(RuleId::Scale001, 5));
    }

    #[test]
    fn scale002_output_off_the_target_band() {
        // An un-rescaled plaintext product (2^80) reaches the output 40
        // bits off the waterline; nothing consumes it, so only the output
        // rule can complain.
        let opts = VerifyOptions::ckks(40, 60, 3);
        let ops = [input("x"), constant(4), Op::MulPlain(n(0), n(1))];
        let err = verify_scheduled(&ops, &[n(2)], &opts).unwrap_err();
        assert!(err.has(RuleId::Scale002, 2));
    }

    #[test]
    fn slot002_constant_exceeds_slot_capacity() {
        let opts = VerifyOptions::ckks(40, 40, 3).with_slot_count(8);
        let ops = [input("x"), constant(16), Op::AddPlain(n(0), n(1))];
        let err = verify_source(&ops, &[n(2)], &opts).unwrap_err();
        assert!(err.has(RuleId::Slot002, 1));
    }

    #[test]
    fn zero_step_rotation_needs_no_key() {
        let opts = VerifyOptions::ckks(40, 40, 3).with_galois_steps(&[]);
        let ops = [input("x"), Op::Rotate(n(0), 0)];
        assert!(verify_source(&ops, &[n(1)], &opts).is_ok());
    }

    /// NOISE001's verdict depends on how a program associates its sums:
    /// an `Add` costs `max(a, b) + 1` bits, so a k-term chain pays k − 1
    /// bits where a balanced tree pays ⌈log2 k⌉. The executor runs both
    /// shapes as the same fused dot. This pins today's gap so that any
    /// change to the `Add` term is deliberate (ROADMAP item 3).
    #[test]
    fn noise_verdict_depends_on_sum_shape() {
        // 64 plaintext-multiply leaves over one input, 63 of them rotated.
        let mut ops = vec![input("x")];
        let mut leaves = Vec::new();
        for step in 0..64 {
            let source = if step == 0 {
                n(0)
            } else {
                ops.push(Op::Rotate(n(0), step));
                n(ops.len() - 1)
            };
            ops.push(constant(64));
            ops.push(Op::MulPlain(source, n(ops.len() - 1)));
            leaves.push(n(ops.len() - 1));
        }
        fn add(ops: &mut Vec<Op>, a: NodeId, b: NodeId) -> NodeId {
            ops.push(Op::Add(a, b));
            n(ops.len() - 1)
        }
        // A left-leaning chain, as `matvec_into` builds it.
        let mut chain_ops = ops.clone();
        let mut chain = leaves[0];
        for &leaf in &leaves[1..] {
            chain = add(&mut chain_ops, chain, leaf);
        }
        // A balanced tree over the same leaves.
        let mut tree_ops = ops;
        let mut level = leaves;
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| add(&mut tree_ops, pair[0], pair[1]))
                .collect();
        }
        let tree = level[0];

        let model = NoiseModel {
            n: 8192,
            t_bits: 22,
            data_bits: 116,
        };
        let opts = VerifyOptions::bfv(model, 3);
        let run = |ops: &[Op], out: NodeId| {
            let outputs = [out];
            let circuit = Circuit {
                ops,
                outputs: &outputs,
                claims: None,
            };
            let (states, diags) = analyze(&circuit, &opts);
            (states[out.index()].noise_bits, diags)
        };
        let (chain_bits, chain_diags) = run(&chain_ops, chain);
        let (tree_bits, tree_diags) = run(&tree_ops, tree);
        assert!(
            (chain_bits - 105.26).abs() < 0.01,
            "chain: {chain_bits:.2} bits"
        );
        assert!(
            (tree_bits - 48.26).abs() < 0.01,
            "tree: {tree_bits:.2} bits"
        );
        // 63 − 6 adds on the critical path, one bit each.
        assert!((chain_bits - tree_bits - 57.0).abs() < 1e-9);
        assert!(!chain_diags.is_empty());
        assert!(chain_diags.iter().all(|d| d.rule == RuleId::Noise001));
        assert!(tree_diags.is_empty(), "tree: {tree_diags:?}");
    }

    #[test]
    fn noise_model_matches_paper_set_a() {
        let model = NoiseModel::from_params(&HeParams::set_a());
        assert_eq!(model.t_bits, 23);
        assert_eq!(model.data_bits, 116);
        assert!((model.budget_bits() - 92.0).abs() < 1e-9);
        assert!((model.plain_mult_bits() - 30.0).abs() < 1e-9);
        assert!((model.ct_mult_bits() - 37.0).abs() < 1e-9);
    }
}
