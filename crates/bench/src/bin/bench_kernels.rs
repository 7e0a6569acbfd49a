//! Op-level kernel timing reporter for the parallel HE runtime.
//!
//! Every timing is a race in one table: a candidate kernel and the simpler
//! twins it has to beat, or a lone kernel timed on its own. The races are
//! the strict vs. lazy NTT; the simd kernels of `choco_math::simd` against
//! their scalar loops, the AVX-512 IFMA transforms against the AVX2 ones at
//! a set-B-sized prime, the 8-lane BLAKE3 XOF and keyed hash against the
//! one-block scalar code, and the error draw's Box–Muller parse on
//! `simd::box_muller` against one libm evaluation per pair (sets A and B);
//! `modops::Barrett` against the `%` it replaced; the BFV multiply,
//! decrypt, noise budget and reply compression and the CKKS decode against
//! their big-integer references; the squaring multiply
//! against the general one on a clone of its operand; the seeded upload,
//! the cached Eq. 2 encryption and Eq. 2 spelled with two `mul_poly`s (BFV
//! sets A and B; CKKS at set C without the last); the diagonal matvec of
//! both schemes through the fused double-hoisted dot against the
//! per-rotation path; the compiled-program executor on the two served
//! programs that contain a dot group against the same program with every
//! interior node declared an output (which the fusion plan then leaves
//! alone); a bundle of a conv layer's four diagonals as one kernel call
//! against its groups one call each; the 10 × 128 FC through the hybrid
//! matvec against its 128 full diagonals; and every call site still routed
//! through the `par` pool against its own one-thread loop. Timed alone: the
//! negacyclic NTT product, the RNS base conversions, a rotation batch, a
//! windowed rotation by rotational redundancy and by masked permutation,
//! the CKKS ops at set C, the pool's dispatch cost, and a conv layer's
//! eight output channels through its compiled program on the warm executor
//! (after checking the output against the plaintext convolution).
//!
//! One runner ([`Races::run`]) times the table: a calibration window per
//! side sets its iteration count, then [`SWEEPS`] sweeps each time one
//! window per side of every race, the side order alternating by sweep, so
//! a race's pairs are spread over the whole run. A gate reads the median of
//! its paired `twin / candidate` ratios against its threshold; the gate
//! table, with each threshold and the rule for when it applies (simd,
//! blake3 and error-draw gates while a vector backend is active, ifma
//! gates while the AVX-512 IFMA backend is, `par` gates whenever the pool
//! has more than one thread), is the `gate` calls in `main` and is printed
//! with every run.
//! A race may be timed over a multiple of the run's window
//! ([`Races::window`]): `dyadic_mul`'s is 8. The `par` gates also need the host to run the
//! pool's threads at ≥ 1.4× one: while it does not, the `par` section is
//! timed again, at most twice more, and if it never does they fail. The
//! report lists every gate, then exits non-zero naming every one that
//! failed.
//!
//! `--json <path>` additionally writes a machine-readable report: each
//! side's median time and every gate's median, quartiles, wins (pairs at or
//! above the threshold), threshold and whether it applied (the committed
//! `BENCH_kernels.json` is an older report, taken before the paired
//! runner); `--smoke` shrinks the windows so CI can run the reporter as a
//! gate without inflating wall-clock time.

#![forbid(unsafe_code)]
use std::hint::black_box;

use choco::compiler::{
    compile, CachedProgram, CompilerOptions, CompilerScheme, ExecCache, NodeId, Op, Program,
};
use choco::linalg::{matvec_diagonals, replicate_for_matvec};
use choco::protocol::Client;
use choco::rotation::{windowed_rotate_masked, windowed_rotate_redundant};
use choco::{RedundantLayout, StackedLayout};
use choco_apps::circuits::{dnn_conv_program, pagerank_program};
use choco_apps::dnn::{conv2d_plain_circular, conv_rotation_steps, ConvPacking};
use choco_apps::remote::workload_options;
use choco_bench::{header, note, side, time_str, GateResult, Races, Rule, Side, Timings, SWEEPS};
use choco_he::bfv::{BfvContext, Ciphertext, Plaintext};
use choco_he::ckks::{CkksCiphertext, CkksContext};
use choco_he::keyswitch::{apply_ksk, generate_ksk, hoist_decompose, mod_down_ntt};
use choco_he::params::HeParams;
use choco_he::rlwe::{expand_seed, DotOperand, GaloisKeys, PublicKey};
use choco_he::rnspoly::RnsPoly;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_math::modops::{add_mod, mul_mod, sub_mod, Barrett};
use choco_math::ntt::NttTable;
use choco_math::par;
use choco_math::poly::dyadic_assign;
use choco_math::prime::generate_ntt_primes;
use choco_math::rns::{BaseConverter, RnsBasis};
use choco_math::simd::{self, NttKernel};
use choco_prng::blake3::Hasher;
use choco_prng::sampler::{error_from_bytes, error_from_bytes_libm};
use choco_prng::Blake3Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// The `par_capacity` ratio the `par` gates need: below it, another
/// process holds one of the pool's cores.
const PAR_CAPACITY: f64 = 1.4;

/// How many more times the `par` section is timed while capacity is short.
const PAR_RETIMES: usize = 2;

/// Keeps a race's inputs for the rest of the run: every sweep borrows them.
fn keep<T>(value: T) -> &'static T {
    Box::leak(Box::new(value))
}

/// The sides of a race between in-place slice kernels, each side on its
/// own copy of `values`.
fn in_place<'a>(
    values: &[u64],
    (label, candidate): (&'static str, impl Fn(&mut [u64]) + 'a),
    (twin_label, twin): (&'static str, impl Fn(&mut [u64]) + 'a),
) -> Vec<(&'static str, Side<'a>)> {
    let (mut a, mut b) = (values.to_vec(), values.to_vec());
    vec![
        (label, Box::new(move || candidate(black_box(&mut a)))),
        (twin_label, Box::new(move || twin(black_box(&mut b)))),
    ]
}

/// `f` through the pool at the default thread count, and at one thread
/// (the plain-loop branch of every `par_*` call).
fn pooled_and_one_thread<'a, T>(f: impl Fn() -> T + Copy + 'a) -> Vec<(&'static str, Side<'a>)> {
    let one_thread = move || {
        par::set_num_threads(1);
        let out = f();
        par::set_num_threads(0);
        out
    };
    vec![("pooled", side(f)), ("seq", side(one_thread))]
}

fn json_escape_free(name: &str) -> &str {
    // Entry names are static identifiers; assert rather than escape.
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "entry name {name:?} needs JSON escaping"
    );
    name
}

/// The CPU model and core count the numbers were taken on.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        });
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = model.unwrap_or_else(|| "unknown cpu".into());
    // Keep the field escape-free whatever /proc says.
    let model: String = model
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || " ()@.-_".contains(*c))
        .collect();
    format!("{model}, {cores} cores")
}

fn write_json(
    path: &str,
    mode: &str,
    threads: usize,
    backend: &str,
    races: &Races,
    timings: &Timings,
    gates: &[GateResult],
) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"choco-bench-kernels/2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"host\": \"{}\",\n", host()));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"backend\": \"{}\",\n",
        json_escape_free(backend)
    ));
    out.push_str(&format!("  \"sweeps\": {SWEEPS},\n"));
    // Each side's median seconds per iteration over the sweeps.
    let entries: Vec<String> = races
        .races
        .iter()
        .enumerate()
        .flat_map(|(r, race)| {
            (0..race.labels.len()).map(move |side| {
                format!(
                    "    {{\"name\": \"{}\", \"seconds_per_iter\": {:.9}, \"iters\": {}}}",
                    json_escape_free(&race.entry(side)),
                    timings.median(r, side),
                    timings.iters[r][side]
                )
            })
        })
        .collect();
    out.push_str(&format!(
        "  \"entries\": [\n{}\n  ],\n",
        entries.join(",\n")
    ));
    let gates: Vec<String> = gates
        .iter()
        .map(|g| {
            let s = &g.summary;
            format!(
                "    {{\"name\": \"{}\", \"median\": {:.4}, \"q1\": {:.4}, \"q3\": {:.4}, \
                 \"wins\": {}, \"pairs\": {}, \"threshold\": {}, \"applied\": {}}}",
                json_escape_free(&g.name),
                s.median,
                s.q1,
                s.q3,
                s.wins,
                s.pairs,
                g.threshold,
                g.applied,
            )
        })
        .collect();
    out.push_str(&format!("  \"gates\": [\n{}\n  ]\n}}\n", gates.join(",\n")));
    std::fs::write(path, out).expect("write JSON report");
    println!("\nwrote {path}");
}

/// BFV public-key encryption spelled with two `mul_poly` calls: the draws
/// of [`choco_he::bfv::Encryptor::encrypt`] (`u`, `e1`, `e2`) and its
/// result, with `u` and both key halves transformed again on every call —
/// the twin of the encryption against the key's cached evaluation-domain
/// rows.
fn encrypt_by_mul_poly(
    ctx: &BfvContext,
    pk: &PublicKey,
    pt: &Plaintext,
    rng: &mut Blake3Rng,
) -> Ciphertext {
    let basis = ctx.data_basis();
    let u = RnsPoly::sample_ternary(rng, basis);
    let e1 = RnsPoly::sample_error(rng, basis);
    let e2 = RnsPoly::sample_error(rng, basis);
    let delta = basis.modulus().divrem_u64(ctx.plain_modulus()).0;
    let delta: Vec<u64> = basis.primes().iter().map(|&q| delta.rem_u64(q)).collect();
    let mut msg = RnsPoly::from_unsigned(pt.coeffs(), basis);
    msg.scalar_mul_per_row(&delta, basis);
    let (p0, p1) = pk.parts();
    let mut c0 = p0.mul_poly(&u, basis);
    c0.add_assign_poly(&e1, basis);
    c0.add_assign_poly(&msg, basis);
    let mut c1 = p1.mul_poly(&u, basis);
    c1.add_assign_poly(&e2, basis);
    Ciphertext::from_parts(vec![c0, c1], basis.primes())
}

/// Per-diagonal path: one key-switch decomposition per rotation, one
/// multiply/add pair per diagonal (the pre-hoisting kernel shape).
fn matvec_naive(
    ctx: &BfvContext,
    ct: &Ciphertext,
    pts: &[Plaintext],
    gks: &GaloisKeys,
) -> Ciphertext {
    let eval = ctx.evaluator();
    let mut acc = eval.multiply_plain(ct, &pts[0]);
    for (d, pt) in pts.iter().enumerate().skip(1) {
        let rot = eval.rotate_rows(ct, d as i64, gks).unwrap();
        acc = eval.add(&acc, &eval.multiply_plain(&rot, pt)).unwrap();
    }
    acc
}

/// Hoisted path: decompose once, permute per diagonal, and keep the whole
/// multiply/accumulate in the NTT domain (`dot_rotations_many`, each
/// plaintext encoded as an operand as its term arrives).
fn matvec_hoisted(
    ctx: &BfvContext,
    ct: &Ciphertext,
    pts: &[Plaintext],
    gks: &GaloisKeys,
) -> Ciphertext {
    let eval = ctx.evaluator();
    let terms = pts
        .iter()
        .enumerate()
        .map(|(d, p)| Ok((d as i64, [eval.dot_operand(p)?])));
    eval.dot_rotations_many(ct, 1, terms, gks)
        .unwrap()
        .remove(0)
}

/// The unfused CKKS composition: one full key switch per rotation, one
/// encode / multiply / add per diagonal, one rescale (the shape
/// `matvec_naive` has under BFV).
fn ckks_matvec_naive(
    ctx: &CkksContext,
    ct: &CkksCiphertext,
    diagonals: &[(i64, Vec<f64>)],
    gks: &GaloisKeys,
) -> CkksCiphertext {
    let mut acc: Option<CkksCiphertext> = None;
    for (shift, diag) in diagonals {
        let rotated;
        let term_ct = if *shift == 0 {
            ct
        } else {
            rotated = ctx.rotate(ct, *shift, gks).unwrap();
            &rotated
        };
        let pt = ctx
            .encode_at(diag, term_ct.level(), ctx.default_scale())
            .unwrap();
        let term = ctx.multiply_plain(term_ct, &pt).unwrap();
        acc = Some(match acc {
            None => term,
            Some(a) => ctx.add(&a, &term).unwrap(),
        });
    }
    ctx.rescale(&acc.unwrap()).unwrap()
}

/// `program` with every ciphertext node also declared an output: the same
/// values node by node, and nothing the fusion plan may fuse (an interior
/// node of a dot group must not be an output).
fn with_every_node_an_output(program: &Program) -> Program {
    let mut twin = program.clone();
    for (i, op) in program.ops().iter().enumerate() {
        if !matches!(op, Op::Constant(_)) {
            twin.output(NodeId::new(i));
        }
    }
    twin
}

/// The dots numbered `chains` over one input `x`, dot `o` being `Σ_k rot(x,
/// taps[k]) ⊙ c_{o,k}` with one rotation per tap shared by every dot, each
/// dot an output: a conv layer's diagonals as the executor sees them.
fn conv_dots(chains: std::ops::Range<usize>, taps: &[i64], width: usize) -> Program {
    let mut p = Program::new();
    let x = p.input("x");
    let rotated: Vec<NodeId> = taps
        .iter()
        .map(|&step| if step == 0 { x } else { p.rotate(x, step) })
        .collect();
    for o in chains {
        let mut acc = None;
        for (k, &r) in rotated.iter().enumerate() {
            let values: Vec<f64> = (0..width)
                .map(|i| ((i + 3 * k + 7 * o) % 16) as f64)
                .collect();
            let c = p.constant(&values);
            let term = p.mul_plain(r, c);
            acc = Some(acc.map_or(term, |a| p.add(a, term)));
        }
        p.output(acc.expect("at least one tap"));
    }
    p
}

/// The warm executor (operand cache filled) on `program` as compiled — dot
/// groups fused — and on its every-node-an-output twin: `[fused, nodes]`.
fn exec_fused_and_nodes<S: CompilerScheme + 'static>(
    params: &HeParams,
    program: &Program,
    options: &CompilerOptions,
) -> Vec<(&'static str, Side<'static>)> {
    let ctx = keep(S::context(params).unwrap());
    let mut rng = Blake3Rng::from_seed(b"bench kernels exec");
    let keys = S::keygen(ctx, &mut rng);
    let relin = keep(S::relin_key(ctx, &keys, &mut rng).unwrap());
    let fused = compile(program, options).unwrap();
    let nodes = compile(&with_every_node_an_output(program), options).unwrap();
    assert!(fused.fused_groups() > 0 && nodes.fused_groups() == 0);
    let galois = keep(S::galois_keys(ctx, &keys, &fused.rotation_steps(), &mut rng).unwrap());
    let reals: Vec<f64> = (0..S::slot_width(ctx))
        .map(|i| (i % 13) as f64 / 8.0 - 0.75)
        .collect();
    let values = S::quantize_const(ctx, &reals, options.scale_bits);
    let mut inputs = HashMap::new();
    for op in program.ops() {
        if let Op::Input(name) = op {
            let ct = S::encrypt(ctx, &keys, &values, &mut rng).unwrap();
            inputs.insert(name.clone(), ct);
        }
    }
    let inputs = keep(inputs);
    [("fused", fused), ("nodes", nodes)]
        .into_iter()
        .map(|(label, compiled)| {
            let cache = ExecCache::<S>::unbounded();
            let run = move || {
                let inputs = black_box(inputs);
                compiled.execute_encrypted_cached::<S>(ctx, inputs, relin, galois, &cache)
            };
            (label, side(run))
        })
        .collect()
}

/// One compute-bound task per thread: the pool runs it ~`threads` times
/// faster than a loop on idle cores, ~1.0 when the cores are shared out to
/// someone else — in which case no `par` call site can win and the
/// per-site gates have nothing to measure.
fn spin(threads: usize) -> Vec<u64> {
    let mut slots = vec![1u64; threads];
    par::par_for_each_mut(&mut slots, |_, slot| {
        for i in 0..1_000_000u64 {
            *slot = slot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
    });
    slots
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other:?} (expected --json <path> or --smoke)"),
        }
    }
    let window_ms = if smoke { 15.0 } else { 250.0 };
    let mode = if smoke { "smoke" } else { "full" };
    let threads = choco_math::par::num_threads();
    let backend = simd::backend();
    println!(
        "simd backend: {} (CHOCO_SIMD={}), worker threads: {threads} (CHOCO_THREADS={})",
        backend.name(),
        std::env::var("CHOCO_SIMD").unwrap_or_else(|_| "unset".into()),
        std::env::var("CHOCO_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    let mut races = Races::default();

    races.section("kernel timings: NTT (n=4096, 55-bit prime)");
    let n = 4096;
    let q = generate_ntt_primes(55, n, 1)[0];
    let table = keep(NttTable::new(n, q).unwrap());
    let mut rng = Blake3Rng::from_seed(b"bench kernels ntt");
    let buf: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    // Repeated in-place transforms: the values churn but every iteration
    // does identical work, so the mean is a clean per-transform time.
    let lazy = ("lazy", move |a: &mut [u64]| table.forward(a));
    races.race(
        "ntt_forward",
        in_place(&buf, lazy, ("strict", move |a| table.forward_strict(a))),
    );
    let lazy = ("lazy", move |a: &mut [u64]| table.inverse(a));
    races.race(
        "ntt_inverse",
        in_place(&buf, lazy, ("strict", move |a| table.inverse_strict(a))),
    );

    races.section("kernel timings: NTT negacyclic product (55-bit prime)");
    // Two forward transforms, a dyadic product and an inverse, at the three
    // ring degrees the parameter sets and the tests use, and the forward
    // transform at the smallest.
    let mut nrng = Blake3Rng::from_seed(b"bench kernels negacyclic");
    for (sz, name) in [
        (1024usize, "ntt_negacyclic_mul_1k"),
        (4096, "ntt_negacyclic_mul_4k"),
        (8192, "ntt_negacyclic_mul_8k"),
    ] {
        let qs = generate_ntt_primes(55, sz, 1)[0];
        let ts = keep(NttTable::new(sz, qs).unwrap());
        let a: &Vec<u64> = keep((0..sz).map(|_| nrng.next_below(qs)).collect());
        if sz == 1024 {
            let mut own = a.clone();
            races.time("ntt_forward_1k", move || ts.forward(black_box(&mut own)));
        }
        races.time(name, move || ts.negacyclic_mul(black_box(a), a));
    }

    races.section(format!(
        "simd kernels vs their scalar twins (backend: {})",
        backend.name()
    ));
    // Every kernel `choco_math::simd` vectorizes, at the two ring degrees
    // the paper's parameter sets use (B: 4096; A and C: 8192). ROADMAP's
    // rule: a vector kernel that does not beat its scalar twin on the bench
    // is deleted.
    for (sz, tag) in [(4096usize, "4k"), (8192, "8k")] {
        let qs = generate_ntt_primes(55, sz, 1)[0];
        let ts = keep(NttTable::new(sz, qs).unwrap());
        let a: Vec<u64> = (0..sz).map(|_| rng.next_below(qs)).collect();
        let b: &Vec<u64> = keep((0..sz).map(|_| rng.next_below(qs)).collect());
        type Kernel = fn(&mut [u64], &[u64], &NttTable);
        let mut kernel = |name: &str, vector: Kernel, scalar: Kernel| {
            let vector = move |a: &mut [u64]| vector(a, b, ts);
            let sides = in_place(&a, ("simd", vector), ("scalar", move |a| scalar(a, b, ts)));
            let gate = format!("{name}_{tag}_simd_speedup");
            races
                .race(format!("{name}_{tag}"), sides)
                .gate(gate, 1.0, Rule::Vector);
        };
        kernel(
            "ntt_forward",
            |a, _, t| t.forward(a),
            |a, _, t| {
                t.forward_with(NttKernel::Scalar, a);
            },
        );
        kernel(
            "ntt_inverse",
            |a, _, t| t.inverse(a),
            |a, _, t| {
                t.inverse_with(NttKernel::Scalar, a);
            },
        );
        kernel(
            "add_mod",
            |a, b, t| simd::add_mod_slices(a, b, t.modulus()),
            |a, b, t| {
                a.iter_mut()
                    .zip(b)
                    .for_each(|(x, &y)| *x = add_mod(*x, y, t.modulus()))
            },
        );
        kernel(
            "sub_mod",
            |a, b, t| simd::sub_mod_slices(a, b, t.modulus()),
            |a, b, t| {
                a.iter_mut()
                    .zip(b)
                    .for_each(|(x, &y)| *x = sub_mod(*x, y, t.modulus()))
            },
        );
    }
    // The forward NTT's better size: both run the same butterflies, and the
    // peak holds on a host that is shedding cycles.
    let sizes = ["ntt_forward_4k", "ntt_forward_8k"];
    races.peak("simd_ntt_speedup", 2.0, Rule::Vector, &sizes);
    // The IFMA transforms against the AVX2 kernels they replace, at a
    // set-B-sized prime: 36 bits, N = 4096 (the 55-bit races above stay on
    // AVX2 on every host). The candidate is the table's own kernel, IFMA on
    // an IFMA backend; the twin is AVX2, or scalar where AVX2 cannot run.
    {
        let qb = generate_ntt_primes(36, 4096, 1)[0];
        let tb = keep(NttTable::new(4096, qb).unwrap());
        let ifma_active = backend == simd::Backend::Avx512;
        assert_eq!(ifma_active, tb.kernel() == NttKernel::Ifma);
        let a: Vec<u64> = (0..4096).map(|_| rng.next_below(qb)).collect();
        type Transform = fn(&NttTable, NttKernel, &mut [u64]) -> bool;
        let mut race = |name: &str, transform: Transform| {
            let ifma = move |a: &mut [u64]| {
                transform(tb, tb.kernel(), a);
            };
            let avx2 = move |a: &mut [u64]| {
                let _ = transform(tb, NttKernel::Avx2, a) || transform(tb, NttKernel::Scalar, a);
            };
            races
                .race(name, in_place(&a, ("ifma", ifma), ("avx2", avx2)))
                .gate(format!("{name}_speedup"), 1.5, Rule::Ifma);
        };
        race("ntt_forward_4k_ifma", NttTable::forward_with);
        race("ntt_inverse_4k_ifma", NttTable::inverse_with);
    }

    // The XOF under every encryption's draws and seed expansion (a 1 MiB
    // `Blake3Rng::fill_bytes`), and the keyed hash under every frame tag
    // (a set-A request's two seeded uploads, hashed as a frame tag is:
    // kind byte, sequence number, payload), each against its scalar twin
    // (`Blake3Rng::scalar`, `Hasher::scalar`) after both give the same
    // bytes, with the margins a kernel under every draw and tag has to show.
    {
        let set = HeParams::set_a();
        let ctx = BfvContext::new(&set).unwrap();
        let mut rng = Blake3Rng::from_seed(b"bench kernels blake3 payload");
        let keys = ctx.keygen(&mut rng);
        let values: Vec<u64> = (0..set.degree() as u64).map(|i| i % 17).collect();
        let pt = ctx.batch_encoder().unwrap().encode(&values).unwrap();
        let mut upload =
            || Bfv::ct_to_wire(&ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng));
        let payload: &Vec<u8> = keep([upload(), upload()].concat());
        races.section(format!(
            "blake3 8-lane kernels vs the one-block scalar code (backend: {}; keyed hash \
             payload: {} bytes)",
            backend.name(),
            payload.len()
        ));
        let seed = b"bench kernels blake3 xof";
        let (mut wide, mut scalar) = (
            Blake3Rng::from_seed(seed),
            Blake3Rng::from_seed(seed).scalar(),
        );
        let (mut out, mut twin_out) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
        wide.fill_bytes(&mut out);
        scalar.fill_bytes(&mut twin_out);
        assert!(out == twin_out, "the wide XOF differs from the scalar one");
        races
            .twins(
                "blake3_xof",
                ["wide", "scalar"],
                move || wide.fill_bytes(black_box(&mut out)),
                move || scalar.fill_bytes(black_box(&mut twin_out)),
            )
            .gate("blake3_xof_speedup", 2.0, Rule::Vector);
        let key = [7u8; 32];
        let tag = move |mut h: Hasher| {
            h.update(&[1]).update(&1u64.to_le_bytes()).update(payload);
            h.finalize()
        };
        assert_eq!(
            tag(Hasher::new_keyed(&key)),
            tag(Hasher::new_keyed(&key).scalar()),
            "the wide keyed hash differs from the scalar one"
        );
        races
            .twins(
                "blake3_keyed_hash",
                ["wide", "scalar"],
                move || tag(black_box(Hasher::new_keyed(&key))),
                move || tag(black_box(Hasher::new_keyed(&key).scalar())),
            )
            .gate("blake3_keyed_hash_speedup", 1.5, Rule::Vector);
    }

    // The error draw behind every encryption (one polynomial per seeded
    // upload, three per Eq. 2 encryption, one per key-switch digit): the
    // parse of a ring degree's Box–Muller pairs through
    // `simd::box_muller`, which calls libm only at a rounding boundary,
    // against the per-pair libm parse it replaced, on the same bytes after
    // both give the same values.
    races.section(format!(
        "error draw: the Box-Muller kernel parse vs per-pair libm (backend: {})",
        backend.name()
    ));
    for (tag, degree) in [
        ("a", HeParams::set_a().degree()),
        ("b", HeParams::set_b().degree()),
    ] {
        let mut pairs = vec![0u8; 16 * degree];
        Blake3Rng::from_seed(b"bench kernels error draw").fill_bytes(&mut pairs);
        let pairs: &Vec<u8> = keep(pairs);
        assert!(
            error_from_bytes(pairs).eq(error_from_bytes_libm(pairs)),
            "the kernel parse differs from the libm parse"
        );
        races
            .twins(
                format!("error_draw_{tag}"),
                ["kernel", "libm"],
                move || error_from_bytes(black_box(pairs)).sum::<i64>(),
                move || error_from_bytes_libm(black_box(pairs)).sum::<i64>(),
            )
            .gate(format!("error_draw_{tag}_speedup"), 1.5, Rule::Vector);
    }

    races.section(
        "barrett reducer vs the hardware/software divide it replaced (n=8192, 60-bit prime)",
    );
    // The dyadic product (`poly::dyadic_assign`) and the canonicalization of
    // a key-switch accumulator row (32 products per u128 slot, the flush
    // bound) against the same loops spelled with `%`. Where Barrett does not
    // beat the divide, on any backend, `%` is the simpler code to ship.
    {
        let n = 8192;
        let q = generate_ntt_primes(60, n, 1)[0];
        let reducer = Barrett::new(q);
        let out: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
        let b: &Vec<u64> = keep((0..n).map(|_| rng.next_below(q)).collect());
        let sums: &Vec<u128> = keep(
            (0..n)
                .map(|_| {
                    (0..32)
                        .map(|_| u128::from(rng.next_below(q)) * u128::from(q - 1))
                        .sum()
                })
                .collect(),
        );
        let barrett = ("barrett", move |a: &mut [u64]| dyadic_assign(a, b, q));
        let div = move |a: &mut [u64]| {
            a.iter_mut()
                .zip(b)
                .for_each(|(x, &y)| *x = mul_mod(*x, y, q))
        };
        // The Barrett side's speed drifts on a shared 2-core host for
        // longer than a smoke window, so this race alone is timed over 8
        // windows a pair (in full mode the runner's 10 000-iteration cap
        // binds first).
        races
            .race("dyadic_mul", in_place(&out, barrett, ("div", div)))
            .window(8.0)
            .gate("dyadic_mul_barrett_speedup", 1.0, Rule::Always);
        let barrett = move |row: &mut [u64]| {
            row.iter_mut()
                .zip(sums)
                .for_each(|(x, &v)| *x = reducer.reduce(v))
        };
        let div = move |row: &mut [u64]| {
            row.iter_mut()
                .zip(sums)
                .for_each(|(x, &v)| *x = (v % u128::from(q)) as u64)
        };
        races
            .race(
                "reduce_row",
                in_place(&out, ("barrett", barrett), ("div", div)),
            )
            .gate("reduce_row_barrett_speedup", 1.0, Rule::Always);
    }

    races.section("RNS vs big-integer, and the client's cached key transforms (sets A, B, C)");
    // The production paths against the per-coefficient CRT oracle they
    // replaced, at the degrees of paper sets A (8192) and B (4096) — BFV
    // multiply, decrypt, noise budget and reply compression — and the CKKS
    // decode at set C.
    // ROADMAP's rule: the RNS / limb path exists because it beats the
    // reference; below the gate the reference is the simpler code to ship.
    // The same rule holds the BFV encrypt to its cached evaluation-domain
    // public key: its twin is the encryption spelled with two `mul_poly`s
    // (the key and `u` transformed again on every call).
    const RNS: [&str; 2] = ["rns", "bigint"];
    for (tag, set) in [("a", HeParams::set_a()), ("b", HeParams::set_b())] {
        let ctx = keep(BfvContext::new(&set).unwrap());
        let mut rng = Blake3Rng::from_seed(b"bench kernels bfv rns");
        let keys = keep(ctx.keygen(&mut rng));
        let pk = keep(ctx.public_key(keys.secret_key(), &mut rng));
        let rk = keep(ctx.relin_key(keys.secret_key(), &mut rng).unwrap());
        let values: Vec<u64> = (0..set.degree() as u64).map(|i| i % 17).collect();
        let pt = keep(ctx.batch_encoder().unwrap().encode(&values).unwrap());
        let enc = keep(ctx.encryptor(pk));
        let ct = keep(enc.encrypt(pt, &mut rng));
        let eval = keep(ctx.evaluator());
        let dec = keep(ctx.decryptor(keys.secret_key()));
        races
            .twins(
                format!("bfv_multiply_relin_{tag}"),
                RNS,
                move || eval.multiply_relin(black_box(ct), ct, rk).unwrap(),
                move || {
                    let prod = eval.multiply_reference(black_box(ct), ct).unwrap();
                    eval.relinearize(&prod, rk).unwrap()
                },
            )
            .gate(
                format!("bfv_multiply_relin_{tag}_speedup"),
                3.0,
                Rule::Always,
            );
        if tag == "a" {
            // The squaring path `multiply(&ct, &ct)` takes, against the
            // general path on a clone of the same ciphertext.
            let twin = keep(ct.clone());
            races
                .twins(
                    "bfv_square_relin_a",
                    ["square", "general"],
                    move || eval.multiply_relin(black_box(ct), ct, rk).unwrap(),
                    move || eval.multiply_relin(black_box(ct), twin, rk).unwrap(),
                )
                .gate("bfv_square_relin_a_speedup", 1.0, Rule::Always);
        }
        races
            .twins(
                format!("bfv_decrypt_{tag}"),
                RNS,
                move || dec.decrypt(black_box(ct)),
                move || dec.decrypt_reference(black_box(ct)),
            )
            .gate(format!("bfv_decrypt_{tag}_speedup"), 2.0, Rule::Always);
        races
            .twins(
                format!("bfv_noise_budget_{tag}"),
                RNS,
                move || dec.invariant_noise_budget(black_box(ct)),
                move || dec.invariant_noise_budget_reference(black_box(ct)),
            )
            .gate(format!("bfv_noise_budget_{tag}_speedup"), 3.0, Rule::Always);
        // A program output's download form, compressed and lifted, against
        // the same rounding both ways by big integers.
        races
            .twins(
                format!("bfv_compress_{tag}"),
                RNS,
                move || ctx.compress_reply(black_box(ct)).unwrap(),
                move || ctx.compress_reply_reference(black_box(ct)).unwrap(),
            )
            .gate(format!("bfv_compress_{tag}_speedup"), 1.0, Rule::Always);
        // The twin is a twin: same draws, same ciphertext.
        let seed = b"bench kernels bfv encrypt";
        let (mut cached_rng, mut twin_rng) =
            (Blake3Rng::from_seed(seed), Blake3Rng::from_seed(seed));
        assert_eq!(
            enc.encrypt(pt, &mut cached_rng),
            encrypt_by_mul_poly(ctx, pk, pt, &mut twin_rng)
        );
        // One race of three: the seeded upload `HeScheme::encrypt` makes,
        // the Eq. 2 encryption against the key's cached evaluation-domain
        // rows, and Eq. 2 spelled with two `mul_poly`s.
        let mut seeded_rng = Blake3Rng::from_seed(seed);
        let name = format!("bfv_encrypt_{tag}");
        let sk = keys.secret_key();
        races
            .race(
                name.clone(),
                vec![
                    (
                        "seeded",
                        side(move || ctx.encrypt_symmetric(black_box(pt), sk, &mut seeded_rng)),
                    ),
                    (
                        "cached",
                        side(move || enc.encrypt(black_box(pt), &mut cached_rng)),
                    ),
                    (
                        "mul_poly",
                        side(move || encrypt_by_mul_poly(ctx, pk, black_box(pt), &mut twin_rng)),
                    ),
                ],
            )
            .gate_sides(format!("{name}_speedup"), 1.05, Rule::Always, 2, 1)
            .gate(format!("{name}_seeded_speedup"), 1.0, Rule::Always);
        if tag == "a" {
            // What the server pays to expand a set-A upload's `c1`.
            let ct = keep(ctx.encrypt_symmetric(pt, sk, &mut rng));
            let seed = ct.seed().expect("a symmetric encryption carries its seed");
            races.time("seed_expand_a", move || {
                expand_seed(black_box(seed), ct.moduli(), set.degree())
            });
        }
    }
    {
        let cparams = HeParams::set_c();
        let cctx = keep(CkksContext::new(&cparams).unwrap());
        let mut rng = Blake3Rng::from_seed(b"bench kernels ckks decode");
        let keys = keep(cctx.keygen(&mut rng));
        let pk = keep(cctx.public_key(keys.secret_key(), &mut rng));
        let values: Vec<f64> = (0..cctx.slot_count())
            .map(|i| (i % 17) as f64 * 0.25)
            .collect();
        let ct = cctx
            .encrypt(&cctx.encode(&values).unwrap(), pk, &mut rng)
            .unwrap();
        let pt = keep(cctx.decrypt(&ct, keys.secret_key()));
        // The seeded upload against the cached Eq. 2 encryption.
        let fresh = keep(cctx.encode(&values).unwrap());
        let seed = b"bench kernels ckks encrypt";
        let (mut seeded_rng, mut eq2_rng) =
            (Blake3Rng::from_seed(seed), Blake3Rng::from_seed(seed));
        let sk = keys.secret_key();
        races
            .twins(
                "ckks_encrypt_c",
                ["seeded", "cached"],
                move || {
                    cctx.encrypt_symmetric(black_box(fresh), sk, &mut seeded_rng)
                        .unwrap()
                },
                move || cctx.encrypt(black_box(fresh), pk, &mut eq2_rng).unwrap(),
            )
            .gate("ckks_encrypt_c_seeded_speedup", 1.0, Rule::Always);
        races
            .twins(
                "ckks_decode_c",
                RNS,
                move || cctx.decode(black_box(pt)),
                move || cctx.decode_reference(black_box(pt)),
            )
            .gate("ckks_decode_c_speedup", 2.0, Rule::Always);
    }
    // The primitive itself at set A's shapes: the multiply's `q → P` and
    // `P → q` conversions between the 2 data primes and the 3 auxiliary
    // primes of the tensor basis.
    {
        let pa = HeParams::set_a();
        let n = pa.degree();
        let data = Arc::new(RnsBasis::new(n, &pa.primes()[..2]).unwrap());
        let aux = Arc::new(RnsBasis::new(n, &generate_ntt_primes(59, n, 3)).unwrap());
        let mut rng = Blake3Rng::from_seed(b"bench kernels convert");
        for (name, from, to) in [
            ("rns_convert_2to3", &data, &aux),
            ("rns_convert_3to2", &aux, &data),
        ] {
            let conv = BaseConverter::new(from.clone(), to.primes());
            let x = RnsPoly::sample_uniform(&mut rng, from);
            races.time(name, move || black_box(&x).convert_centered(&conv));
        }
    }

    races.section("kernel timings: rotation batch (15 steps, BFV set B)");
    let params = HeParams::set_b();
    let ctx = keep(BfvContext::new(&params).unwrap());
    let mut rng = Blake3Rng::from_seed(b"bench kernels bfv");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let cols = 16usize;
    let steps: &Vec<i64> = keep((1..cols as i64).collect());
    let gks = keep(ctx.galois_keys(keys.secret_key(), steps, &mut rng).unwrap());
    let encoder = ctx.batch_encoder().unwrap();
    let values: Vec<u64> = (0..params.degree() as u64).map(|i| i % 17).collect();
    let pt = encoder.encode(&values).unwrap();
    let ct = keep(ctx.encryptor(&pk).encrypt(&pt, &mut rng));
    races.time("rotations_naive", move || {
        for &s in steps {
            black_box(ctx.evaluator().rotate_rows(black_box(ct), s, gks).unwrap());
        }
    });

    races.section("kernel timings: windowed rotation by 3 in a 16-slot window (Figure 4)");
    // Rotational redundancy (one rotation of a redundantly packed window)
    // and the masked permutation it replaces (two rotations, two masks).
    let layout = keep(RedundantLayout::new(16, 4));
    let window_gks = keep(
        ctx.galois_keys(keys.secret_key(), &[3, -13], &mut rng)
            .unwrap(),
    );
    let window: Vec<u64> = (1..=16).collect();
    let mut encrypt = |values: &[u64]| {
        let pt = encoder.encode(values).unwrap();
        keep(ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng))
    };
    let (ct_redundant, ct_window) = (encrypt(&layout.pack(&window)), encrypt(&window));
    races.time("windowed_rotate_redundant", move || {
        windowed_rotate_redundant(ctx, black_box(ct_redundant), layout, 3, window_gks).unwrap()
    });
    races.time("windowed_rotate_masked", move || {
        windowed_rotate_masked(ctx, black_box(ct_window), 16, 3, window_gks).unwrap()
    });

    races.section("kernel timings: diagonal matvec (16 diagonals)");
    // ROADMAP's rule: the fused path exists because it beats the
    // node-by-node one; below the gate (1.5x here and for every fused
    // kernel below) the simpler twin is what to ship.
    let pts: &Vec<Plaintext> = keep(
        (0..cols as u64)
            .map(|d| {
                let diag: Vec<u64> = (0..params.degree() as u64).map(|i| (i + d) % 13).collect();
                encoder.encode(&diag).unwrap()
            })
            .collect(),
    );
    races
        .twins(
            "matvec",
            ["hoisted", "naive"],
            move || matvec_hoisted(ctx, black_box(ct), pts, gks),
            move || matvec_naive(ctx, black_box(ct), pts, gks),
        )
        .gate("matvec_speedup", 1.5, Rule::Always);

    races.section("DNN layer kernels, as `lenet_direct` calls them (BFV set B)");
    // conv2's shape: 4 input channels of 8x8, a 5x5 filter (25 taps), 8
    // output channels, as `lenet_direct` runs it: its compiled program
    // through the warm executor — 16 blocks, 4 diagonals in one kernel call
    // over cached operands, 3 rotate-adds, one output ciphertext.
    let mut layer_steps: Vec<i64> = (1..128).collect();
    layer_steps.extend(conv_rotation_steps(4, 8, 8, 5));
    let mut lclient = Client::<Bfv>::new(&params, b"bench kernels layers").unwrap();
    let lserver = keep(lclient.provision_server(&layer_steps).unwrap());
    let conv_weights: Vec<Vec<Vec<u64>>> = (0..8u64)
        .map(|o| {
            (0..4u64)
                .map(|c| (0..25u64).map(|k| (k + o + 2 * c) % 16).collect())
                .collect()
        })
        .collect();
    let channels: Vec<Vec<u64>> = (0..4)
        .map(|c| (0..64).map(|i| (i * 7 + c * 3) % 16).collect())
        .collect();
    let packing = ConvPacking::new(4, 8, 8, 5, lserver.slot_width()).unwrap();
    let packed_ct = lclient.encrypt_slots(&packing.pack(&channels)).unwrap();
    let t = lserver.context().plain_modulus();
    let layer = keep(CachedProgram::<Bfv>::new(
        packing.compile_layer(1, &conv_weights, t).unwrap(),
    ));
    let layer_inputs = keep(HashMap::from([(
        ConvPacking::input_name(0),
        packed_ct.clone(),
    )]));
    // Runs a cached program on the server's keys, warm after its first run.
    let run = move |program: &CachedProgram<Bfv>, inputs: &HashMap<String, Ciphertext>| {
        let (ctx, relin, galois) = (
            lserver.context(),
            lserver.relin_key(),
            lserver.galois_keys(),
        );
        let compiled = &program.compiled;
        compiled
            .execute_encrypted_cached::<Bfv>(
                ctx,
                black_box(inputs),
                relin,
                galois,
                &program.operands,
            )
            .unwrap()
    };
    // The output group's blocks hold the plaintext convolution.
    let channel = RedundantLayout::new(64, 2 * 9);
    let blocks = lserver.slot_width() / StackedLayout::new(1, channel).stride();
    let reply = run(layer, layer_inputs);
    let slots = lclient.decrypt_slots(&reply[0]).unwrap();
    let maps = StackedLayout::new(blocks, channel).extract(&slots);
    let want = conv2d_plain_circular(&channels, &conv_weights, 8, 8, 5, t);
    assert_eq!(maps[..8], want[..], "conv_layer_program");
    races.time("conv_layer_program", move || run(layer, layer_inputs));
    // The FC: 10 x 128. The twin is the square-matrix diagonal method the
    // layer went through before: 128 diagonals, 10 non-zero slots each. A
    // layer kernel that does not beat the plainer way to call the one dot
    // kernel is not worth its shape logic.
    let fc: &Vec<Vec<u64>> = keep(
        (0..10)
            .map(|r| (0..128).map(|c| (r * 5 + c * 3 + 1) % 16).collect())
            .collect(),
    );
    let full_diagonals: &Vec<(i64, Vec<u64>)> = keep(
        (0..128usize)
            .map(|d| {
                let mut diag = vec![0u64; lserver.slot_width()];
                for (i, row) in fc.iter().enumerate() {
                    diag[i] = row[(i + d) % 128];
                }
                (d as i64, diag)
            })
            .collect(),
    );
    let features: Vec<u64> = (0..128).map(|i| (i * 11 + 5) % 16).collect();
    let replicated = replicate_for_matvec(&features, lserver.slot_width());
    let fc_ct = keep(lclient.encrypt_slots(&replicated).unwrap());
    races
        .twins(
            "matvec",
            ["hybrid", "full_diagonals"],
            move || matvec_diagonals(lserver, black_box(fc_ct), fc).unwrap(),
            move || {
                lserver
                    .dot_diagonals(black_box(fc_ct), full_diagonals)
                    .unwrap()
            },
        )
        .gate("matvec_hybrid_speedup", 2.0, Rule::Always);

    races.section(
        "kernel timings: CKKS diagonal matvec, fused vs per-rotation (set C, 8 diagonals)",
    );
    let cparams = HeParams::set_c();
    let cctx = keep(CkksContext::new(&cparams).unwrap());
    let mut crng = Blake3Rng::from_seed(b"bench kernels ckks");
    let ckeys = keep(cctx.keygen(&mut crng));
    let cpk = cctx.public_key(ckeys.secret_key(), &mut crng);
    let ccols = 8usize;
    let csteps: Vec<i64> = (1..ccols as i64).collect();
    let cgks = keep(
        cctx.galois_keys(ckeys.secret_key(), &csteps, &mut crng)
            .unwrap(),
    );
    let cvalues: &Vec<f64> = keep(
        (0..cctx.slot_count())
            .map(|i| (i % 17) as f64 * 0.25)
            .collect(),
    );
    let cpt = cctx.encode(cvalues).unwrap();
    let cct = keep(cctx.encrypt(&cpt, &cpk, &mut crng).unwrap());
    let diags_ckks: &Vec<(i64, Vec<f64>)> = keep(
        (0..ccols)
            .map(|d| {
                let diag: Vec<f64> = (0..cctx.slot_count())
                    .map(|i| ((i + d) % 13) as f64 * 0.125)
                    .collect();
                (d as i64, diag)
            })
            .collect(),
    );
    races
        .twins(
            "ckks_matvec",
            ["fused", "naive"],
            move || Ckks::dot_diagonals(cctx, black_box(cct), diags_ckks, cgks).unwrap(),
            move || ckks_matvec_naive(cctx, black_box(cct), diags_ckks, cgks),
        )
        .gate("ckks_matvec_speedup", 1.5, Rule::Always);

    races.section("kernel timings: CKKS ops (set C)");
    let crk = keep(cctx.relin_key(ckeys.secret_key(), &mut crng));
    races.time("ckks_encode_c", move || {
        cctx.encode(black_box(cvalues)).unwrap()
    });
    races.time("ckks_decrypt_decode_c", move || {
        cctx.decode(&cctx.decrypt(black_box(cct), ckeys.secret_key()))
    });
    races.time("ckks_multiply_relin_c", move || {
        cctx.multiply_relin(black_box(cct), cct, crk).unwrap()
    });
    races.time("ckks_rotate_c", move || {
        cctx.rotate(black_box(cct), 1, cgks).unwrap()
    });

    races.section("compiled-program executor, warm: dot groups fused vs every node an output");
    // The two served programs that contain a dot group, at the parameters
    // `benchmark/` serves them with (`pagerank_remote`, `conv_batched`).
    let pagerank = exec_fused_and_nodes::<Bfv>(
        &HeParams::set_a(),
        &pagerank_program(8),
        &workload_options(),
    );
    races
        .race("exec_pagerank_a", pagerank)
        .gate("exec_pagerank_a_speedup", 1.5, Rule::Always);
    let conv_options = CompilerOptions {
        scale_bits: cparams.scale_bits(),
        prime_bits: cparams.prime_bits()[0],
        max_levels: cparams.data_prime_count(),
    };
    let conv = exec_fused_and_nodes::<Ckks>(&cparams, &dnn_conv_program(4, 8, 8, 3), &conv_options);
    races
        .race("exec_conv_c", conv)
        .gate("exec_conv_c_speedup", 1.5, Rule::Always);
    // A bundle against its groups one kernel call each: conv2's 4
    // diagonals over its 25 shared tap rotations (BFV set B), as one
    // program with 4 outputs and as 4 programs of one.
    let taps: &Vec<i64> = keep(
        conv_rotation_steps(1, 8, 8, 5)
            .into_iter()
            .chain([0])
            .collect(),
    );
    let dots = |chains: std::ops::Range<usize>| {
        let program = conv_dots(chains, taps, lserver.slot_width());
        CachedProgram::<Bfv>::new(compile(&program, &workload_options()).unwrap())
    };
    let bundled = keep(dots(0..4));
    let groups: &Vec<_> = keep((0..4).map(|o| dots(o..o + 1)).collect());
    assert_eq!(
        (
            bundled.compiled.fused_groups(),
            bundled.compiled.fused_bundles()
        ),
        (4, 1)
    );
    let conv_ct = keep(packed_ct.clone());
    let dot_inputs = keep(HashMap::from([("x".to_string(), packed_ct)]));
    let together = run(bundled, dot_inputs);
    for (o, group) in groups.iter().enumerate() {
        assert_eq!(run(group, dot_inputs), together[o..=o], "one output alone");
    }
    races
        .twins(
            "exec_conv",
            ["bundled", "groups"],
            move || run(bundled, dot_inputs),
            move || {
                groups
                    .iter()
                    .flat_map(|g| run(g, dot_inputs))
                    .collect::<Vec<_>>()
            },
        )
        .gate("exec_conv_bundled_speedup", 1.5, Rule::Always);

    races.section("par pool: dispatch cost; kept call sites, pooled vs one thread (set A, n=8192)");
    // One empty task per thread: publish, wake, claim, join.
    let mut empty_tasks = vec![0u8; threads];
    races.time("par_dispatch", move || {
        par::par_for_each_mut(black_box(&mut empty_tasks), |_, _| {})
    });
    // The host's capacity, in the same sweeps as the sites it licenses.
    races.race("par_capacity", pooled_and_one_thread(move || spin(threads)));
    // Every call site that still goes through `par_*` (DESIGN.md §6), at
    // the shape the served workloads give it: two data primes plus the
    // special prime, 8 terms per dot product. ROADMAP's rule: a call site
    // that does not beat its plain loop on the bench becomes one.
    let pa = HeParams::set_a();
    let ks_basis = keep(RnsBasis::new(pa.degree(), pa.primes()).unwrap());
    let level_basis = keep(ks_basis.prefix(ks_basis.len() - 1));
    let mut prng = Blake3Rng::from_seed(b"bench kernels par");
    let x = keep(RnsPoly::sample_uniform(&mut prng, level_basis));
    let y = keep(RnsPoly::sample_uniform(&mut prng, level_basis));
    let small: &Vec<u64> = keep((0..pa.degree() as u64).map(|i| i % 65_537).collect());
    // Key-switch keys are generated over the keys' evaluation-domain rows.
    let mut sk = RnsPoly::sample_ternary(&mut prng, ks_basis);
    sk.ntt_forward(ks_basis);
    let mut sk2 = RnsPoly::zero(ks_basis.len(), ks_basis.degree());
    sk2.dyadic_accumulate(&sk, &sk, ks_basis);
    let ksk = keep(generate_ksk(&sk, &sk2, ks_basis, level_basis, &mut prng));
    let ctx_a = keep(BfvContext::new(&pa).unwrap());
    let keys_a = ctx_a.keygen(&mut prng);
    let pk_a = ctx_a.public_key(keys_a.secret_key(), &mut prng);
    let steps_a: Vec<i64> = (1..8).collect();
    let gks_a = keep(
        ctx_a
            .galois_keys(keys_a.secret_key(), &steps_a, &mut prng)
            .unwrap(),
    );
    let vals_a: Vec<u64> = (0..pa.degree() as u64).map(|i| i % 17).collect();
    let pt_a = keep(ctx_a.batch_encoder().unwrap().encode(&vals_a).unwrap());
    let ct_a = keep(ctx_a.encryptor(&pk_a).encrypt(pt_a, &mut prng));
    let rk_a = keep(ctx_a.relin_key(keys_a.secret_key(), &mut prng).unwrap());
    let switched = keep([0, 1].map(|_| RnsPoly::sample_uniform(&mut prng, ks_basis)));
    let mut site = |name: &str, sides| {
        races
            .race(name, sides)
            .gate(format!("{name}_par_speedup"), 1.0, Rule::Parallel);
    };
    site(
        "rns_mul_poly",
        pooled_and_one_thread(move || x.mul_poly(black_box(y), level_basis)),
    );
    site(
        "rns_mul_small_poly",
        pooled_and_one_thread(move || x.mul_small_poly(black_box(small), level_basis)),
    );
    site(
        "hoist_decompose",
        pooled_and_one_thread(move || hoist_decompose(black_box(x), ks_basis, level_basis)),
    );
    // The component sites: one pool task per ciphertext component. A lone
    // key switch (every rotation and relinearization), the BFV square with
    // its relinearization (the lifts and transforms, then the tensor
    // outputs), the fused dot's two roundings, a reply's two roundings.
    site(
        "apply_ksk",
        pooled_and_one_thread(move || apply_ksk(black_box(x), ksk, ks_basis, level_basis)),
    );
    site(
        "square_relin",
        pooled_and_one_thread(move || {
            ctx_a
                .evaluator()
                .multiply_relin(black_box(ct_a), ct_a, rk_a)
                .unwrap()
        }),
    );
    site(
        "mod_down_ntt_pair",
        pooled_and_one_thread(move || {
            par::par_map_array(black_box(switched).each_ref(), |s| {
                mod_down_ntt(s, ks_basis, level_basis)
            })
        }),
    );
    site(
        "compress_reply",
        pooled_and_one_thread(move || ctx_a.compress_reply(black_box(ct_a)).unwrap()),
    );
    // The fused dot as `HeScheme::dot_diagonals` drives it: each term's
    // operand encoded as it arrives.
    site(
        "dot_rotations_many",
        pooled_and_one_thread(move || {
            let eval = ctx_a.evaluator();
            let terms = (0..8).map(|d| Ok((d, [eval.dot_operand(pt_a)?])));
            eval.dot_rotations_many(black_box(ct_a), 1, terms, gks_a)
                .unwrap()
        }),
    );
    // `lenet_direct`'s conv2 dot: its 25 taps over cached operands, 4
    // outputs, at set B (N = 4096), where every tile task is half the size.
    let conv_eval = lserver.context().evaluator();
    let conv_encoder = lserver.context().batch_encoder().unwrap();
    let conv_operands: &Vec<Vec<DotOperand>> = keep(
        (0..taps.len() as u64)
            .map(|k| {
                (0..4)
                    .map(|o| {
                        let w: Vec<u64> = (0..lserver.context().degree() as u64)
                            .map(|i| (i + 3 * k + o) % 16)
                            .collect();
                        conv_eval
                            .dot_operand(&conv_encoder.encode(&w).unwrap())
                            .unwrap()
                    })
                    .collect()
            })
            .collect(),
    );
    site(
        "dot_conv2_b",
        pooled_and_one_thread(move || {
            let terms = taps.iter().zip(conv_operands).map(|(&s, ops)| Ok((s, ops)));
            lserver
                .context()
                .evaluator()
                .dot_rotations_many(black_box(conv_ct), 4, terms, lserver.galois_keys())
                .unwrap()
        }),
    );

    let mut timings = races.run(window_ms, SWEEPS);
    // A vCPU taken by someone else reads as no capacity, and then the par
    // gates measure nothing: the par section is timed again, at most
    // `PAR_RETIMES` more times, and its gates fail if capacity never holds.
    let (par, capacity_race) = (races.index("par_dispatch"), races.index("par_capacity"));
    let capacity = |timings: &Timings| timings.median_ratio(capacity_race, 1, 0);
    let mut timed = 1;
    while threads > 1 && capacity(&timings) < PAR_CAPACITY && timed <= PAR_RETIMES {
        let section = par..races.races.len();
        races.retime(&mut timings, section, window_ms, SWEEPS);
        timed += 1;
    }
    report_timings(&races, &timings);
    let capacity = capacity(&timings);
    let applies = |rule| match rule {
        Rule::Always => true,
        Rule::Vector => backend.is_vector(),
        Rule::Ifma => backend == simd::Backend::Avx512,
        Rule::Parallel => threads > 1,
    };
    let results = races.judge(&timings, applies);
    let unmet = |r: &GateResult| r.applied && r.rule == Rule::Parallel && capacity < PAR_CAPACITY;
    header(&format!(
        "gates (twin / candidate: median of {SWEEPS} paired ratios [quartiles], wins = pairs at \
         or above the threshold)"
    ));
    for r in &results {
        let s = &r.summary;
        let verdict = match (r.applied, r.failed(), unmet(r)) {
            (false, ..) => "not applied".to_string(),
            (true, _, true) => format!("FAIL (capacity {capacity:.2}x)"),
            (true, false, false) => "pass".to_string(),
            (true, true, false) => "FAIL".to_string(),
        };
        println!(
            "{:<34} {:>7.2}x [{:.2}, {:.2}]  {}/{} >= {:.2}x  {verdict}",
            r.name, s.median, s.q1, s.q3, s.wins, s.pairs, r.threshold
        );
    }
    if !applies(Rule::Vector) {
        note("scalar backend active: both twins ran the scalar loop, simd, blake3 and error-draw gates not applied");
    }
    if !applies(Rule::Ifma) {
        note(
            "no AVX-512 IFMA backend: both ifma twins ran the same kernel, ifma gates not applied",
        );
    }
    if threads > 1 && capacity < PAR_CAPACITY {
        note(&format!(
            "host ran the pool's {threads} threads at {capacity:.2}x one thread after {timed} \
             timings of the par section (gates need {PAR_CAPACITY}x): par gates fail"
        ));
    }
    if let Some(path) = json_path {
        write_json(
            &path,
            mode,
            threads,
            backend.name(),
            &races,
            &timings,
            &results,
        );
    }
    let failed: Vec<&GateResult> = results.iter().filter(|r| r.failed() || unmet(r)).collect();
    if !failed.is_empty() {
        // ROADMAP's rule: a kernel that does not beat its simpler twin on
        // the bench is deleted.
        for r in &failed {
            eprintln!(
                "gate failed: {} is {:.2}x its twin (median of {} pairs; gate: >= {:.2}x){}",
                r.name,
                r.summary.median,
                r.summary.pairs,
                r.threshold,
                if unmet(r) {
                    format!(" on a host at {capacity:.2}x par capacity after {timed} timings")
                } else {
                    String::new()
                }
            );
        }
        std::process::exit(1);
    }
}

/// Prints every side's median time, section by section, and each race's
/// `side 1 / side 0` median ratio.
fn report_timings(races: &Races, timings: &Timings) {
    let mut section = "";
    for (r, race) in races.races.iter().enumerate() {
        if race.section != section {
            section = &race.section;
            header(section);
        }
        for side in 0..race.labels.len() {
            let (seconds, iters) = (timings.median(r, side), timings.iters[r][side]);
            println!(
                "{:<44} {:>12} ({iters} iters)",
                race.entry(side),
                time_str(seconds)
            );
        }
        if let [candidate, twin, ..] = race.labels[..] {
            let ratio = timings.median_ratio(r, 1, 0);
            println!("    {}: {twin} / {candidate} = {ratio:.2}x", race.name);
        }
    }
}
