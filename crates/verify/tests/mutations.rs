//! Mutation tests: corrupt a compiled program in one targeted way and pin
//! the exact rule + node the verifier rejects it with.
//!
//! Each case follows the same shape: compile a fixture (verified by
//! construction — the uncorrupted twin must pass), break one invariant in a
//! copy of its ops or claims, verify a [`Circuit`] view of that copy, and
//! assert the verifier names precisely the broken invariant at precisely
//! the broken node. The program itself is never corrupted: `compile()` is
//! the only way to build one. A verifier that flags the wrong rule, the
//! wrong node, or the intact twin fails these tests just as hard as one
//! that misses the corruption.

use choco::compiler::{compile, CompiledProgram, CompilerOptions, NodeId, NodeMeta, Op, Program};
use choco_verify::{verify, Circuit, RuleId, Scheme, VerifyError, VerifyOptions, VerifyReport};

/// Uniform-prime options: every post-rescale scale sits exactly on the
/// waterline, so the fixtures are stable under all scale rules.
fn opts() -> CompilerOptions {
    CompilerOptions {
        scale_bits: 40,
        prime_bits: 40,
        max_levels: 4,
    }
}

/// Fixture with a ct×ct multiply (⇒ a scheduled `Rescale`), a rotation,
/// and two constants (⇒ a width join at the final `AddPlain`).
fn fixture() -> CompiledProgram {
    let mut p = Program::new();
    let x = p.input("x");
    let y = p.input("y");
    let prod = p.mul(x, y);
    let r = p.rotate(prod, 2);
    let c1 = p.constant(&[1.0; 8]);
    let m = p.mul_plain(r, c1);
    let c2 = p.constant(&[2.0; 8]);
    let s = p.add_plain(m, c2);
    p.output(s);
    compile(&p, &opts()).expect("fixture compiles and self-verifies")
}

/// A copy of a compiled program's ops and claims, for a mutation to break.
fn copy(compiled: &CompiledProgram) -> (Vec<Op>, Vec<NodeMeta>) {
    let circuit = compiled.to_circuit();
    let claims = circuit.claims.unwrap_or_default();
    (circuit.ops.to_vec(), claims.to_vec())
}

/// Verifies a corrupted copy against the program's outputs and options.
fn verify_copy(
    compiled: &CompiledProgram,
    ops: &[Op],
    claims: &[NodeMeta],
) -> Result<VerifyReport, VerifyError> {
    let circuit = Circuit {
        ops,
        claims: Some(claims),
        ..compiled.to_circuit()
    };
    verify(&circuit, &compiled.verify_options())
}

/// Index of the first op matching `pred`, which every mutation locates
/// dynamically so the tests survive scheduling changes.
fn find(ops: &[Op], pred: impl Fn(&Op) -> bool) -> usize {
    ops.iter()
        .position(pred)
        .expect("fixture contains the op the mutation targets")
}

#[test]
fn uncorrupted_fixture_verifies_clean() {
    let compiled = fixture();
    assert!(compiled.verify().is_ok());
    // Key coverage also holds against the program's own rotation list.
    let verify_opts = compiled
        .verify_options()
        .with_galois_steps(&compiled.rotation_steps());
    assert!(verify(&compiled.to_circuit(), &verify_opts).is_ok());
}

#[test]
fn dropped_rescale_is_level002_at_the_consumer() {
    let compiled = fixture();
    let (mut ops, claims) = copy(&compiled);
    // Rewire every consumer of the first Rescale to the raw product: the
    // schedule now claims a rescale nobody uses, and the consumer reads a
    // value still above the waterline band.
    let resc = find(&ops, |op| matches!(op, Op::Rescale(_)));
    let Op::Rescale(raw) = ops[resc].clone() else {
        unreachable!()
    };
    let mut consumer = None;
    for (i, op) in ops.iter_mut().enumerate().skip(resc + 1) {
        if let Op::Rotate(a, _) = op {
            if a.index() == resc {
                *a = raw;
                consumer = Some(i);
            }
        }
    }
    let consumer = consumer.expect("fixture rotates the rescaled product");
    let err = verify_copy(&compiled, &ops, &claims).expect_err("missing rescale must be rejected");
    assert!(
        err.has(RuleId::Level002, consumer),
        "want LEVEL002 at node {consumer}, got: {}",
        err
    );
}

#[test]
fn bypassed_modswitch_is_level001_at_the_join() {
    // A fresh input added to a rescaled product forces the compiler to
    // insert a ModSwitch on the fresh side; bypassing it leaves the Add's
    // operands at different levels.
    let mut p = Program::new();
    let x = p.input("x");
    let sq = p.mul(x, x);
    let s = p.add(x, sq);
    p.output(s);
    let compiled = compile(&p, &opts()).expect("fixture compiles");
    assert!(compiled.verify().is_ok());

    let (mut ops, claims) = copy(&compiled);
    let ms = find(&ops, |op| matches!(op, Op::ModSwitch(_)));
    let Op::ModSwitch(raw) = ops[ms].clone() else {
        unreachable!()
    };
    let mut join = None;
    for (i, op) in ops.iter_mut().enumerate().skip(ms + 1) {
        if let Op::Add(a, b) = op {
            if a.index() == ms {
                *a = raw;
                join = Some(i);
            }
            if b.index() == ms {
                *b = raw;
                join = Some(i);
            }
        }
    }
    let join = join.expect("fixture adds across the ModSwitch");
    let err = verify_copy(&compiled, &ops, &claims).expect_err("level mismatch must be rejected");
    assert!(
        err.has(RuleId::Level001, join),
        "want LEVEL001 at node {join}, got: {}",
        err
    );
}

#[test]
fn skewed_level_claim_is_level004_at_the_skewed_node() {
    let compiled = fixture();
    let (ops, mut claims) = copy(&compiled);
    let mul = find(&ops, |op| matches!(op, Op::Mul(..)));
    claims[mul].level += 1;
    let err =
        verify_copy(&compiled, &ops, &claims).expect_err("metadata corruption must be rejected");
    assert!(
        err.has(RuleId::Level004, mul),
        "want LEVEL004 at node {mul}, got: {}",
        err
    );
}

#[test]
fn skewed_scale_claim_is_scale003_at_the_skewed_node() {
    let compiled = fixture();
    let (ops, mut claims) = copy(&compiled);
    let mul = find(&ops, |op| matches!(op, Op::Mul(..)));
    claims[mul].scale_bits += 1.5;
    let err =
        verify_copy(&compiled, &ops, &claims).expect_err("metadata corruption must be rejected");
    assert!(
        err.has(RuleId::Scale003, mul),
        "want SCALE003 at node {mul}, got: {}",
        err
    );
}

#[test]
fn removed_galois_step_is_key001_at_the_rotation() {
    let compiled = fixture();
    let rot = find(
        compiled.to_circuit().ops,
        |op| matches!(op, Op::Rotate(_, s) if *s != 0),
    );
    // The client provisions every step except the one the rotation needs.
    let full = compiled.rotation_steps();
    let missing: Vec<i64> = full.iter().copied().filter(|&s| s != 2).collect();
    let verify_opts = compiled.verify_options().with_galois_steps(&missing);
    let err = verify(&compiled.to_circuit(), &verify_opts)
        .expect_err("uncovered rotation must be rejected");
    assert!(
        err.has(RuleId::Key001, rot),
        "want KEY001 at node {rot}, got: {}",
        err
    );
}

#[test]
fn mismatched_constant_width_is_slot001_at_the_join() {
    let compiled = fixture();
    let (mut ops, claims) = copy(&compiled);
    // Shrink the *last* constant: the widths meeting at the final AddPlain
    // now disagree (8 from the first constant's join vs 4).
    let last_const = ops
        .iter()
        .rposition(|op| matches!(op, Op::Constant(_)))
        .expect("fixture has constants");
    ops[last_const] = Op::Constant(vec![2.0; 4]);
    let join = find(&ops, |op| matches!(op, Op::AddPlain(..)));
    let err = verify_copy(&compiled, &ops, &claims).expect_err("width mismatch must be rejected");
    assert!(
        err.has(RuleId::Slot001, join),
        "want SLOT001 at node {join}, got: {}",
        err
    );
}

#[test]
fn over_deep_mul_chain_is_level003_under_ckks() {
    // Depth 4 against a 3-level chain: the verifier's virtual scheduling
    // must report tower exhaustion on the source program — the same
    // program compile() rejects with DepthExceeded.
    let mut p = Program::new();
    let x = p.input("x");
    let mut acc = x;
    let mut muls = Vec::new();
    for _ in 0..4 {
        acc = p.mul(acc, acc);
        muls.push(acc.index());
    }
    p.output(acc);
    let err = verify(&p.to_circuit(), &VerifyOptions::ckks(40, 40, 3))
        .expect_err("over-deep chain must be rejected");
    // The tower (3 levels) is exhausted at the *third* multiply — the
    // first whose virtual rescale lands below level 1.
    let crossing = muls[2];
    assert!(
        err.has(RuleId::Level003, crossing),
        "want LEVEL003 at node {crossing}, got: {}",
        err
    );
    // The same chain fits a 5-level tower.
    assert!(verify(&p.to_circuit(), &VerifyOptions::ckks(40, 40, 5)).is_ok());
}

#[test]
fn over_deep_mul_chain_is_noise001_under_bfv() {
    use choco_he::params::HeParams;
    use choco_verify::NoiseModel;
    // Three ct×ct multiplies under paper set A: 11.3 fresh + 3·37 consumed
    // crosses the 92-bit budget exactly at the third multiply.
    let model = NoiseModel::from_params(&HeParams::set_a());
    let mut p = Program::new();
    let x = p.input("x");
    let m1 = p.mul(x, x);
    let m2 = p.mul(m1, m1);
    let m3 = p.mul(m2, m2);
    p.output(m3);
    let verify_opts = VerifyOptions::bfv(model, 2);
    let err =
        verify(&p.to_circuit(), &verify_opts).expect_err("noise-budget crossing must be rejected");
    assert!(
        err.has(RuleId::Noise001, m3.index()),
        "want NOISE001 at node {}, got: {}",
        m3.index(),
        err
    );
    // Two multiplies stay inside the budget.
    let mut q = Program::new();
    let x = q.input("x");
    let m1 = q.mul(x, x);
    let m2 = q.mul(m1, m1);
    q.output(m2);
    assert!(verify(&q.to_circuit(), &VerifyOptions::bfv(model, 2)).is_ok());
}

#[test]
fn forward_reference_is_struct001_and_suppresses_interpretation() {
    let compiled = fixture();
    let (mut ops, claims) = copy(&compiled);
    let mul = find(&ops, |op| matches!(op, Op::Mul(..)));
    let n = ops.len();
    ops[mul] = Op::Mul(NodeId::new(n + 3), NodeId::new(0));
    let err =
        verify_copy(&compiled, &ops, &claims).expect_err("forward reference must be rejected");
    assert!(
        err.has(RuleId::Struct001, mul),
        "want STRUCT001 at node {mul}, got: {}",
        err
    );
    // No abstract-pass diagnostics piggyback on a malformed topology.
    assert!(err
        .diagnostics
        .iter()
        .all(|d| matches!(d.rule, RuleId::Struct001 | RuleId::Struct003)));
}

#[test]
fn scheme_names_match_cli_flags() {
    assert_eq!(Scheme::Bfv.name(), "bfv");
    assert_eq!(Scheme::Ckks.name(), "ckks");
}
