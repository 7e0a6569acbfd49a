//! Property-based tests for CHOCO's packing and protocol invariants
//! (deterministic quickprop harness).

use choco::compiler::{
    compile, CompiledProgram, CompilerOptions, CompilerScheme, NodeId, Op, Program,
};
use choco::protocol::CommLedger;
use choco::rotation::RedundantLayout;
use choco::stacking::StackedLayout;
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks, HeError, HeScheme};
use choco_prng::Blake3Rng;
use choco_quickprop::{run_cases, Gen};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

#[test]
fn pack_extract_roundtrip() {
    run_cases("pack/extract roundtrip", 128, |g| {
        let window = g.usize_in(1, 64);
        let red_frac = g.usize_in(0, 100);
        let redundancy = red_frac * window / 100;
        let layout = RedundantLayout::new(window, redundancy);
        let values: Vec<u64> = (0..window as u64).map(|i| i * 3 + 1).collect();
        let packed = layout.pack(&values);
        assert_eq!(packed.len(), window + 2 * redundancy);
        assert_eq!(layout.extract(&packed), values);
    });
}

#[test]
fn packed_rotation_equals_windowed_rotation() {
    run_cases("packed rotation windowed", 128, |g| {
        let window = g.usize_in(2, 48);
        let red = g.usize_in(1, 16);
        let rot_seed = g.i64();
        let redundancy = red.min(window);
        let layout = RedundantLayout::new(window, redundancy);
        let r = rot_seed.rem_euclid(2 * redundancy as i64 + 1) - redundancy as i64;
        let values: Vec<u64> = (0..window as u64).map(|i| i + 10).collect();
        // Simulate the ciphertext-level cyclic shift on the packed slots.
        let mut packed = layout.pack(&values);
        if r >= 0 {
            packed.rotate_left(r as usize);
        } else {
            packed.rotate_right((-r) as usize);
        }
        assert_eq!(layout.extract(&packed), layout.reference_rotate(&values, r));
    });
}

#[test]
fn reference_rotation_composes() {
    run_cases("reference rotation composes", 128, |g| {
        let window = g.usize_in(2, 32);
        let r1 = g.i64_in(-8, 8);
        let r2 = g.i64_in(-8, 8);
        let layout = RedundantLayout::new(window, window);
        let values: Vec<u64> = (0..window as u64).collect();
        let once = layout.reference_rotate(&layout.reference_rotate(&values, r1), r2);
        let both = layout.reference_rotate(&values, r1 + r2);
        assert_eq!(once, both);
    });
}

#[test]
fn stacked_pack_extract_roundtrip() {
    run_cases("stacked pack/extract", 128, |g| {
        let channels = g.usize_in(1, 8);
        let window = g.usize_in(1, 16);
        let red = g.usize_in(0, 4);
        let redundancy = red.min(window);
        let layout = StackedLayout::new(channels, RedundantLayout::new(window, redundancy));
        let data: Vec<Vec<u64>> = (0..channels)
            .map(|c| (0..window as u64).map(|i| c as u64 * 100 + i).collect())
            .collect();
        let slots = layout.pack(&data);
        assert_eq!(slots.len(), channels * layout.stride());
        assert!(layout.stride().is_power_of_two());
        assert_eq!(layout.extract(&slots), data);
    });
}

#[test]
fn utilization_decreases_with_redundancy() {
    run_cases("utilization monotone", 64, |g| {
        let window = g.usize_in(4, 64);
        let low = RedundantLayout::new(window, 1);
        let high = RedundantLayout::new(window, window.clamp(2, 8));
        assert!(low.utilization() >= high.utilization());
        assert!(low.utilization() <= 1.0);
    });
}

#[test]
fn ledger_merge_is_commutative() {
    run_cases("ledger merge commutes", 128, |g| {
        let up1 = g.usize_in(0, 1_000_000);
        let dn1 = g.usize_in(0, 1_000_000);
        let up2 = g.usize_in(0, 1_000_000);
        let dn2 = g.usize_in(0, 1_000_000);
        let mut a = CommLedger::new();
        a.record_upload(up1);
        a.record_download(dn1);
        let mut b = CommLedger::new();
        b.record_upload(up2);
        b.record_download(dn2);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_bytes(), (up1 + dn1 + up2 + dn2) as u64);
    });
}

// ---- the executor's fusion schedule against its own unfused twin ----
//
// `CompiledProgram::execute_encrypted` runs every rotate → multiply →
// accumulate chain over one ciphertext as one double-hoisted kernel call.
// There is no second executor and no switch to turn that off; the oracle is
// the same program with every node also declared an output, which the
// schedule must evaluate node by node (an interior node of a fused group may
// not be an output).

/// Slots per rotation group at the `N = 1024` shapes `apps::remote` pins
/// (`bfv_insecure(1024, [45, 45, 46], 17)`,
/// `ckks_insecure(1024, [45, 45, 45, 46], 30)`).
const WIDTH: usize = 512;
/// Rotation steps the generator draws from (0 = the ciphertext itself).
const STEPS: [i64; 5] = [0, 1, 2, 5, -1];

/// A multiple of 1/16 in `[0, 1)`, or in `[−1/2, 1/2)` when `signed`.
fn sixteenth(g: &mut Gen, signed: bool) -> f64 {
    let j = g.i64_in(0, 16) - if signed { 8 } else { 0 };
    j as f64 / 16.0
}

/// One `Σ rot(src, s_k) ⊙ c_k` segment of 1–6 terms over one of `sources`,
/// clean or bent into one of the shapes the fusion plan must refuse: a
/// rotation shared by two products, a product that is also an output
/// (pushed onto `also_outputs`), a term over another source, a subtraction
/// among the adds. Clean segments come as a chain or as a balanced tree.
fn segment(
    p: &mut Program,
    g: &mut Gen,
    sources: &[NodeId],
    signed: bool,
    also_outputs: &mut Vec<NodeId>,
) -> NodeId {
    const BALANCED: usize = 1;
    const SHARED_ROTATION: usize = 2;
    const PRODUCT_IS_OUTPUT: usize = 3;
    const FOREIGN_TERM: usize = 4;
    const SUBTRACTION: usize = 5;
    let twist = g.usize_in(0, 6);
    let at = g.usize_in(0, sources.len());
    let (src, other) = (sources[at], sources[(at + 1) % sources.len()]);
    let terms = g.usize_in(1, 7);
    let bent = g.usize_in(0, terms);
    let mut shared = None;
    let mut products = Vec::new();
    for i in 0..terms {
        let step = STEPS[g.usize_in(0, STEPS.len())];
        let from = if twist == FOREIGN_TERM && i == bent {
            other
        } else {
            src
        };
        let rotated = if twist == SHARED_ROTATION && i < 2 {
            *shared.get_or_insert_with(|| p.rotate(from, 2))
        } else if step == 0 {
            from
        } else {
            p.rotate(from, step)
        };
        let values: Vec<f64> = (0..WIDTH).map(|_| sixteenth(g, signed)).collect();
        let c = p.constant(&values);
        let product = p.mul_plain(rotated, c);
        if twist == PRODUCT_IS_OUTPUT && i == bent {
            also_outputs.push(product);
        }
        products.push(product);
    }
    if twist == BALANCED {
        while products.len() > 1 {
            products = products
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => p.add(*a, *b),
                    _ => pair[0],
                })
                .collect();
        }
        return products[0];
    }
    let mut acc = products[0];
    for (i, &product) in products.iter().enumerate().skip(1) {
        acc = if twist == SUBTRACTION && i == bent.max(1) {
            p.sub(acc, product)
        } else {
            p.add(acc, product)
        };
    }
    acc
}

/// A program of one or two layers of segments — every path from an input
/// to the output crosses exactly `depth` plaintext multiplies — and that
/// depth.
fn layered_program(g: &mut Gen, signed: bool) -> (Program, u32) {
    let mut p = Program::new();
    let mut also_outputs = Vec::new();
    let mut sources = vec![p.input("x")];
    if g.bool_with(0.5) {
        sources.push(p.input("y"));
    }
    let depth = g.usize_in(1, 3) as u32;
    for _ in 0..depth {
        let first = segment(&mut p, g, &sources, signed, &mut also_outputs);
        let second = segment(&mut p, g, &sources, signed, &mut also_outputs);
        sources = vec![first, second];
    }
    let out = p.add(sources[0], sources[1]);
    p.output(out);
    for node in also_outputs {
        p.output(node);
    }
    (p, depth)
}

/// The unfused oracle: every ciphertext node also an output.
fn with_every_node_an_output(program: &Program) -> Program {
    let mut twin = program.clone();
    for (i, op) in program.ops().iter().enumerate() {
        if !matches!(op, Op::Constant(_)) {
            twin.output(NodeId::new(i));
        }
    }
    twin
}

/// Everything one scheme needs to run a compiled program and read the
/// result back.
struct Bench<S: HeScheme> {
    ctx: S::Context,
    keys: S::KeyBundle,
    relin: S::RelinKey,
    galois: S::GaloisKeys,
    inputs: HashMap<String, S::Ciphertext>,
}

impl<S: CompilerScheme> Bench<S> {
    /// Keys for `steps`, and encryptions of `x` and `y`.
    fn new(params: &HeParams, seed: u64, steps: &[i64], x: &[S::Value], y: &[S::Value]) -> Self {
        let ctx = S::context(params).unwrap();
        let mut rng = Blake3Rng::from_seed(&seed.to_le_bytes());
        let keys = S::keygen(&ctx, &mut rng);
        let relin = S::relin_key(&ctx, &keys, &mut rng).unwrap();
        let galois = S::galois_keys(&ctx, &keys, steps, &mut rng).unwrap();
        let mut inputs = HashMap::new();
        for (name, values) in [("x", x), ("y", y)] {
            let ct = S::encrypt(&ctx, &keys, values, &mut rng).unwrap();
            inputs.insert(name.to_string(), ct);
        }
        Bench {
            ctx,
            keys,
            relin,
            galois,
            inputs,
        }
    }

    fn run(&self, compiled: &CompiledProgram) -> Result<Vec<S::Ciphertext>, HeError> {
        compiled.execute_encrypted::<S>(&self.ctx, &self.inputs, &self.relin, &self.galois)
    }

    /// [`Bench::run`] without the download step: the outputs as the
    /// kernels left them, before a BFV reply's rounding.
    fn run_uncompressed(&self, compiled: &CompiledProgram) -> Result<Vec<S::Ciphertext>, HeError> {
        let (ctx, inputs) = (&self.ctx, &self.inputs);
        compiled.execute_encrypted_uncompressed::<S>(ctx, inputs, &self.relin, &self.galois)
    }
}

/// The plain semantics of `compiled` on real-valued `x`, `y`.
fn plain_reference(compiled: &CompiledProgram, x: &[f64], y: &[f64]) -> Vec<f64> {
    let mut inputs = HashMap::new();
    inputs.insert("x".to_string(), x.to_vec());
    inputs.insert("y".to_string(), y.to_vec());
    compiled.execute_plain(&inputs).unwrap().swap_remove(0)
}

#[test]
fn bfv_fused_execution_is_exact_and_no_noisier_than_its_unfused_twin() {
    // Constants are multiples of 1/16 and the waterline is 2^4, so every
    // plaintext multiply scales the integers by exactly 16.
    let options = CompilerOptions {
        scale_bits: 4,
        prime_bits: 4,
        max_levels: 3,
    };
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    let fused_groups = AtomicUsize::new(0);
    run_cases("bfv fused vs unfused twin", 16, |g| {
        let (program, depth) = layered_program(g, false);
        let fused = compile(&program, &options).unwrap();
        let twin = compile(&with_every_node_an_output(&program), &options).unwrap();
        assert_eq!(twin.fused_groups(), 0);
        fused_groups.fetch_add(fused.fused_groups(), Relaxed);

        let x = g.vec_u64_below(WIDTH, 8);
        let y = g.vec_u64_below(WIDTH, 8);
        let bench = Bench::<Bfv>::new(&params, g.u64(), &fused.rotation_steps(), &x, &y);
        let got = &bench.run(&fused).unwrap()[0];
        let want = &bench.run(&twin).unwrap()[0];
        let slots = |ct| Bfv::decrypt(&bench.ctx, &bench.keys, ct).unwrap();
        assert_eq!(slots(got)[..WIDTH], slots(want)[..WIDTH]);

        let reals = |v: &[u64]| v.iter().map(|&s| s as f64).collect::<Vec<_>>();
        let plain = plain_reference(&fused, &reals(&x), &reals(&y));
        let t = bench.ctx.plain_modulus() as i64;
        let scale = 16f64.powi(depth as i32);
        for (j, (&slot, real)) in slots(got).iter().zip(plain).enumerate() {
            let want = ((real * scale).round() as i64).rem_euclid(t) as u64;
            assert_eq!(slot, want, "slot {j}");
        }

        // One key-switch rounding per dot instead of one per rotation, each
        // scaled by its constant. Next to what a plaintext multiply does to
        // the fresh noise that is little: the two budgets agree to a few
        // thousandths of a bit, so "no less" is asserted to a hundredth —
        // on the kernels' outputs, before the download step rounds each
        // reply by an amount of its own.
        let got = &bench.run_uncompressed(&fused).unwrap()[0];
        let want = &bench.run_uncompressed(&twin).unwrap()[0];
        let budget = |ct| Bfv::health(&bench.ctx, &bench.keys, ct);
        assert!(
            budget(got) >= budget(want) - 0.01,
            "fused {} bits, unfused {} bits",
            budget(got),
            budget(want)
        );
    });
    assert!(
        fused_groups.load(Relaxed) >= 16,
        "the generator must produce groups"
    );
}

#[test]
fn ckks_fused_execution_decodes_as_close_as_its_unfused_twin() {
    // Two shapes. At the waterline of `encrypted_execution_matches_plain_
    // reference` (2^38 over 45-bit primes: a product rescales to 2^31) every
    // slot must be within that test's 1e-2. At the served waterline (2^30: a
    // product rescales to 2^15, where one rescale rounding alone is ~7e-3 a
    // slot, fused or not) the bound that means something is the twin's own
    // error.
    let shapes = [(38, 1e-2), (30, f64::INFINITY)];
    let fused_groups = AtomicUsize::new(0);
    run_cases("ckks fused vs unfused twin", 16, |g| {
        let (scale_bits, slot_tolerance) = shapes[g.case as usize % 2];
        let options = CompilerOptions {
            scale_bits,
            prime_bits: 45,
            max_levels: 3,
        };
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], scale_bits).unwrap();
        let (program, _) = layered_program(g, true);
        let fused = compile(&program, &options).unwrap();
        let twin = compile(&with_every_node_an_output(&program), &options).unwrap();
        assert_eq!(twin.fused_groups(), 0);
        fused_groups.fetch_add(fused.fused_groups(), Relaxed);

        let x: Vec<f64> = (0..WIDTH).map(|_| 2.0 * sixteenth(g, true)).collect();
        let y: Vec<f64> = (0..WIDTH).map(|_| 2.0 * sixteenth(g, true)).collect();
        let bench = Bench::<Ckks>::new(&params, g.u64(), &fused.rotation_steps(), &x, &y);
        let plain = plain_reference(&fused, &x, &y);
        let errors = |compiled: &CompiledProgram| -> Vec<f64> {
            let out = &bench.run(compiled).unwrap()[0];
            // Where the schedule says the output sits.
            assert_eq!(out.level(), compiled.meta(first_output(compiled)).level);
            let slots = Ckks::decrypt(&bench.ctx, &bench.keys, out).unwrap();
            slots
                .iter()
                .zip(&plain)
                .map(|(s, p)| (s - p).abs())
                .collect()
        };
        let (got, want) = (errors(&fused), errors(&twin));
        for (j, e) in got.iter().enumerate() {
            assert!(*e < slot_tolerance, "slot {j} is off by {e}");
        }
        // One rescale rounding per dot instead of one per term: the mean
        // error is the twin's or better (5 % for two draws of one noise).
        let mean = |e: &[f64]| e.iter().sum::<f64>() / e.len() as f64;
        assert!(
            mean(&got) <= mean(&want) * 1.05,
            "fused mean error {:e}, unfused {:e}",
            mean(&got),
            mean(&want)
        );
    });
    assert!(
        fused_groups.load(Relaxed) >= 16,
        "the generator must produce groups"
    );
}

/// The node carrying a compiled program's first output.
fn first_output(compiled: &CompiledProgram) -> NodeId {
    compiled.to_circuit().outputs[0]
}

#[test]
fn a_fused_group_without_its_galois_key_is_a_typed_error() {
    let options = CompilerOptions {
        scale_bits: 30,
        prime_bits: 45,
        max_levels: 3,
    };
    let mut p = Program::new();
    let x = p.input("x");
    let mut acc = None;
    for step in [0, 1, 2, 5] {
        let c = p.constant(&[0.5; WIDTH]);
        let rotated = if step == 0 { x } else { p.rotate(x, step) };
        let product = p.mul_plain(rotated, c);
        acc = Some(acc.map_or(product, |a| p.add(a, product)));
    }
    p.output(acc.unwrap());
    let compiled = compile(&p, &options).unwrap();
    assert_eq!(compiled.fused_groups(), 1);
    // Keys for every step but 5.
    let bfv = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    let bench = Bench::<Bfv>::new(&bfv, 7, &[1, 2], &[1; WIDTH], &[0; WIDTH]);
    assert!(matches!(
        bench.run(&compiled),
        Err(HeError::MissingGaloisKey(_))
    ));
    let ckks = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30).unwrap();
    let bench = Bench::<Ckks>::new(&ckks, 7, &[1, 2], &[1.0; WIDTH], &[0.0; WIDTH]);
    assert!(matches!(
        bench.run(&compiled),
        Err(HeError::MissingGaloisKey(_))
    ));
}
