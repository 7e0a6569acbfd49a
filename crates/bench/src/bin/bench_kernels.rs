//! Op-level kernel timing reporter for the parallel HE runtime.
//!
//! Times the kernels the runtime rework targets — strict vs. lazy NTT,
//! BFV multiply, decrypt, noise budget and reply compression and the CKKS
//! decode against their big-integer references, the BFV encrypt against its two-`mul_poly`
//! spelling, a batch of rotations, the diagonal-method matvec of both
//! schemes through the per-rotation path and through the fused
//! double-hoisted dot, the compiled-program executor on the two served
//! programs that contain a dot group against the same program with every
//! interior node declared an output (which the fusion plan then leaves
//! alone), a bundle of a conv layer's four diagonals as one kernel call
//! against its groups one call each, and the 10 × 128 FC through the hybrid
//! matvec against its 128 full diagonals — and reports the speedups. It
//! also times a conv layer's eight output channels through its compiled
//! program on the warm executor, after checking the output against the
//! plaintext convolution; that layer has no twin left to race.
//! Every ratio the binary asserts on is taken from the best of three
//! interleaved windows per side, in smoke mode too. Ungated, it times the
//! negacyclic NTT product at N = 1024, 4096 and 8192, a windowed rotation
//! by rotational redundancy and by masked permutation (set B), and the CKKS
//! encode, decrypt-and-decode, multiply and rotation (set C). A simd section
//! times every kernel `choco_math::simd` vectorizes against its scalar twin
//! and fails on one the vector code does not speed up, as well as the
//! 8-lane BLAKE3 XOF and keyed hash against the one-block scalar code (at
//! least 2.0x and 1.5x, with the AVX2 backend), and a barrett
//! section does the same for `modops::Barrett` against the `%` it replaced
//! in the dyadic product and the accumulator-row reduction; the RNS multiply,
//! decrypt, noise budget and reply compression and the limb-composed CKKS
//! decode are gated the same way against their big-integer references (at
//! least 3.0x, 2.0x, 3.0x, 1.0x and 2.0x), the squaring multiply against the
//! general one on a clone of its operand (at least 1.0x), the BFV encrypt against the same encryption spelled
//! with two `mul_poly`s (at least 1.05x) and, in the same race, the seeded
//! upload `HeScheme::encrypt` makes against that Eq. 2 encrypt (at least
//! 1.0x; CKKS too, at set C, with `seed_expand_a` timing the server's side
//! of a compact upload), the fused matvec, the fused
//! executor and the bundled one against their unfused twins (at least
//! 1.5x), the hybrid matvec against its full diagonals (at least 2.0x). A
//! `par` section times the worker pool's dispatch cost and every call site
//! still routed through it against its own one-thread loop, and fails on a
//! site the pool does not speed up (skipped, with a note, while the host is
//! not running two threads faster than one).
//! `--json <path>` additionally writes a machine-readable
//! report (the committed baseline lives in `BENCH_kernels.json`);
//! `--smoke` shrinks the measurement windows so CI can run the reporter
//! as a gate without inflating wall-clock time.

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
use choco_bench::{header, measure, note, time_str};
use choco_he::bfv::{BfvContext, Ciphertext, Plaintext};
use choco_he::ckks::{CkksCiphertext, CkksContext};
use choco_he::keyswitch::{generate_ksk, hoist_decompose, hoisted_accumulate};
use choco_he::params::HeParams;
use choco_he::rlwe::{expand_seed, GaloisKeys, PublicKey};
use choco_he::rnspoly::RnsPoly;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_math::modops::{add_mod, mul_mod, sub_mod, Barrett};
use choco_math::ntt::NttTable;
use choco_math::par;
use choco_math::poly::dyadic_assign;
use choco_math::prime::generate_ntt_primes;
use choco_math::rns::{BaseConverter, RnsBasis};
use choco_math::simd;
use choco_prng::blake3::Hasher;
use choco_prng::Blake3Rng;
use std::collections::HashMap;
use std::sync::Arc;

struct Entry {
    name: String,
    seconds: f64,
    iters: usize,
}

fn record(entries: &mut Vec<Entry>, window_ms: f64, name: &'static str, f: impl FnMut()) {
    let (seconds, iters) = measure(window_ms, f);
    println!("{name:<44} {:>12} ({iters} iters)", time_str(seconds));
    entries.push(Entry {
        name: name.into(),
        seconds,
        iters,
    });
}

/// Times the sides of one kernel race — `side(0)` the candidate, `side(1)`
/// the simpler twin it has to beat (and, in a race of three, `side(2)` that
/// twin's own twin) — each the best of three interleaved windows.
fn best_of_three<const N: usize>(mut side: impl FnMut(usize) -> (f64, usize)) -> [(f64, usize); N] {
    let mut best = [(f64::INFINITY, 0usize); N];
    for _ in 0..3 {
        for (i, slot) in best.iter_mut().enumerate() {
            let timing = side(i);
            if timing.0 < slot.0 {
                *slot = timing;
            }
        }
    }
    best
}

/// Times `f` through the pool (default thread count) and at one thread (the
/// plain-loop branch of every `par_*` call): `[pooled, seq]`.
fn pooled_and_seq(window_ms: f64, mut f: impl FnMut()) -> [(f64, usize); 2] {
    let best = best_of_three(|side| {
        // 0 restores the default thread count, 1 pins one thread.
        par::set_num_threads([0, 1][side]);
        measure(window_ms, &mut f)
    });
    par::set_num_threads(0);
    best
}

/// Records `<kernel>_<label>` for every side and returns `side 1 / side 0`
/// (twin / candidate).
fn record_twins<const N: usize>(
    entries: &mut Vec<Entry>,
    kernel: &str,
    labels: [&str; N],
    timings: [(f64, usize); N],
) -> f64 {
    for (label, (seconds, iters)) in labels.into_iter().zip(timings) {
        let name = format!("{kernel}_{label}");
        println!("{name:<44} {:>12} ({iters} iters)", time_str(seconds));
        entries.push(Entry {
            name,
            seconds,
            iters,
        });
    }
    timings[1].0 / timings[0].0
}

/// How much faster the host runs one compute-bound task per thread through
/// the pool than in a loop: ~`threads` on idle cores, ~1.0 when the cores
/// are shared out to someone else — in which case no `par` call site can
/// win and the per-site gate has nothing to measure.
fn par_capacity(threads: usize) -> f64 {
    fn spin(slot: &mut u64) {
        for i in 0..1_000_000u64 {
            *slot = slot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
    }
    let mut slots = vec![1u64; threads];
    let [pooled, seq] = pooled_and_seq(5.0, || {
        par::par_for_each_mut(black_box(&mut slots), |_, s| spin(s))
    });
    seq.0 / pooled.0
}

fn seconds_of(entries: &[Entry], name: &str) -> f64 {
    entries
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.seconds)
        .expect("entry recorded")
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
    entries: &[Entry],
    derived: &[(&str, f64)],
) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"choco-bench-kernels/1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"host\": \"{}\",\n", host()));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"backend\": \"{}\",\n",
        json_escape_free(backend)
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds_per_iter\": {:.9}, \"iters\": {}}}{sep}\n",
            json_escape_free(&e.name),
            e.seconds,
            e.iters
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"derived\": {\n");
    for (i, (name, value)) in derived.iter().enumerate() {
        let sep = if i + 1 == derived.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {value:.4}{sep}\n",
            json_escape_free(name)
        ));
    }
    out.push_str("  }\n}\n");
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

/// Times the warm executor (operand cache filled) on `program` as compiled
/// — dot groups fused — and on its every-node-an-output twin:
/// `[fused, nodes]`.
fn exec_fused_and_nodes<S: CompilerScheme>(
    window_ms: f64,
    params: &HeParams,
    program: &Program,
    options: &CompilerOptions,
) -> [(f64, usize); 2] {
    let ctx = S::context(params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench kernels exec");
    let keys = S::keygen(&ctx, &mut rng);
    let relin = S::relin_key(&ctx, &keys, &mut rng).unwrap();
    let fused = compile(program, options).unwrap();
    let nodes = compile(&with_every_node_an_output(program), options).unwrap();
    assert!(fused.fused_groups() > 0 && nodes.fused_groups() == 0);
    let galois = S::galois_keys(&ctx, &keys, &fused.rotation_steps(), &mut rng).unwrap();
    let reals: Vec<f64> = (0..S::slot_width(&ctx))
        .map(|i| (i % 13) as f64 / 8.0 - 0.75)
        .collect();
    let values = S::quantize_const(&ctx, &reals, options.scale_bits);
    let mut inputs = HashMap::new();
    for op in program.ops() {
        if let Op::Input(name) = op {
            let ct = S::encrypt(&ctx, &keys, &values, &mut rng).unwrap();
            inputs.insert(name.clone(), ct);
        }
    }
    let caches = [ExecCache::<S>::unbounded(), ExecCache::<S>::unbounded()];
    best_of_three(|side| {
        let (compiled, cache) = ([&fused, &nodes][side], &caches[side]);
        measure(window_ms, || {
            compiled
                .execute_encrypted_cached::<S>(&ctx, black_box(&inputs), &relin, &galois, cache)
                .unwrap()
        })
    })
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
    let mut entries = Vec::new();

    header("kernel timings: NTT (n=4096, 55-bit prime)");
    let n = 4096;
    let q = generate_ntt_primes(55, n, 1)[0];
    let table = NttTable::new(n, q).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench kernels ntt");
    let mut buf: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    // Repeated in-place transforms: the values churn but every iteration
    // does identical work, so the mean is a clean per-transform time.
    record(&mut entries, window_ms, "ntt_forward_lazy", || {
        table.forward(black_box(&mut buf))
    });
    record(&mut entries, window_ms, "ntt_forward_strict", || {
        table.forward_strict(black_box(&mut buf))
    });
    record(&mut entries, window_ms, "ntt_inverse_lazy", || {
        table.inverse(black_box(&mut buf))
    });
    record(&mut entries, window_ms, "ntt_inverse_strict", || {
        table.inverse_strict(black_box(&mut buf))
    });

    header("kernel timings: NTT negacyclic product (55-bit prime)");
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
        let ts = NttTable::new(sz, qs).unwrap();
        let mut a: Vec<u64> = (0..sz).map(|_| nrng.next_below(qs)).collect();
        if sz == 1024 {
            record(&mut entries, window_ms, "ntt_forward_1k", || {
                ts.forward(black_box(&mut a))
            });
        }
        record(&mut entries, window_ms, name, || {
            black_box(ts.negacyclic_mul(black_box(&a), black_box(&a)));
        });
    }

    header(&format!(
        "simd kernels vs their scalar twins (backend: {})",
        backend.name()
    ));
    // Every kernel `choco_math::simd` vectorizes, at the two ring degrees
    // the paper's parameter sets use (B: 4096; A and C: 8192).
    let mut simd_speedups: Vec<(String, f64)> = Vec::new();
    // The forward NTT's best ratio across the two sizes: both run the same
    // butterflies, and the peak holds on a host that is shedding cycles.
    let mut simd_ntt_speedup = 0.0f64;
    for (sz, tag) in [(4096usize, "4k"), (8192, "8k")] {
        let qs = generate_ntt_primes(55, sz, 1)[0];
        let ts = NttTable::new(sz, qs).unwrap();
        let mut a: Vec<u64> = (0..sz).map(|_| rng.next_below(qs)).collect();
        let b: Vec<u64> = (0..sz).map(|_| rng.next_below(qs)).collect();
        let mut kernel = |name: &str, vector: &dyn Fn(&mut [u64]), scalar: &dyn Fn(&mut [u64])| {
            let timings = best_of_three(|side| {
                let f = [vector, scalar][side];
                measure(window_ms, || f(black_box(&mut a)))
            });
            let name = format!("{name}_{tag}");
            let ratio = record_twins(&mut entries, &name, ["simd", "scalar"], timings);
            simd_speedups.push((format!("{name}_simd_speedup"), ratio));
            ratio
        };
        let fwd = kernel("ntt_forward", &|a| ts.forward(a), &|a| ts.forward_scalar(a));
        simd_ntt_speedup = simd_ntt_speedup.max(fwd);
        kernel("ntt_inverse", &|a| ts.inverse(a), &|a| ts.inverse_scalar(a));
        kernel("add_mod", &|a| simd::add_mod_slices(a, &b, qs), &|a| {
            for (x, &y) in a.iter_mut().zip(&b) {
                *x = add_mod(*x, y, qs);
            }
        });
        kernel("sub_mod", &|a| simd::sub_mod_slices(a, &b, qs), &|a| {
            for (x, &y) in a.iter_mut().zip(&b) {
                *x = sub_mod(*x, y, qs);
            }
        });
    }

    header(&format!(
        "blake3 8-lane kernels vs the one-block scalar code (backend: {})",
        backend.name()
    ));
    // The XOF under every encryption's draws and seed expansion (a 1 MiB
    // `Blake3Rng::fill_bytes`), and the keyed hash under every frame tag
    // (a set-A request's two seeded uploads, hashed as a frame tag is:
    // kind byte, sequence number, payload), each against its scalar twin
    // (`Blake3Rng::scalar`, `Hasher::scalar`) after both give the same
    // bytes. (speedup name, scalar / wide, gate.)
    let mut blake3_gates: Vec<(String, f64, f64)> = Vec::new();
    {
        let seed = b"bench kernels blake3 xof";
        let (mut wide, mut scalar) = (
            Blake3Rng::from_seed(seed),
            Blake3Rng::from_seed(seed).scalar(),
        );
        let (mut out, mut twin_out) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
        wide.fill_bytes(&mut out);
        scalar.fill_bytes(&mut twin_out);
        assert!(out == twin_out, "the wide XOF differs from the scalar one");
        let mut sides: [&mut dyn FnMut(); 2] = [
            &mut || {
                wide.fill_bytes(black_box(&mut out));
            },
            &mut || {
                scalar.fill_bytes(black_box(&mut twin_out));
            },
        ];
        let timings = best_of_three(|side| measure(window_ms, &mut *sides[side]));
        let ratio = record_twins(&mut entries, "blake3_xof", ["wide", "scalar"], timings);
        blake3_gates.push(("blake3_xof_speedup".into(), ratio, 2.0));

        let set = HeParams::set_a();
        let ctx = BfvContext::new(&set).unwrap();
        let mut rng = Blake3Rng::from_seed(b"bench kernels blake3 payload");
        let keys = ctx.keygen(&mut rng);
        let values: Vec<u64> = (0..set.degree() as u64).map(|i| i % 17).collect();
        let pt = ctx.batch_encoder().unwrap().encode(&values).unwrap();
        let payload: Vec<u8> = (0..2)
            .flat_map(|_| Bfv::ct_to_wire(&ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)))
            .collect();
        let key = [7u8; 32];
        let tag = |mut h: Hasher| {
            h.update(&[1]).update(&1u64.to_le_bytes()).update(&payload);
            h.finalize()
        };
        assert_eq!(
            tag(Hasher::new_keyed(&key)),
            tag(Hasher::new_keyed(&key).scalar()),
            "the wide keyed hash differs from the scalar one"
        );
        let mut sides: [&mut dyn FnMut(); 2] = [
            &mut || {
                black_box(tag(black_box(Hasher::new_keyed(&key))));
            },
            &mut || {
                black_box(tag(black_box(Hasher::new_keyed(&key).scalar())));
            },
        ];
        let timings = best_of_three(|side| measure(window_ms, &mut *sides[side]));
        let ratio = record_twins(
            &mut entries,
            "blake3_keyed_hash",
            ["wide", "scalar"],
            timings,
        );
        note(&format!("keyed hash payload: {} bytes", payload.len()));
        blake3_gates.push(("blake3_keyed_hash_speedup".into(), ratio, 1.5));
    }

    header("barrett reducer vs the hardware/software divide it replaced (n=8192, 60-bit prime)");
    // The dyadic product (`poly::dyadic_assign`) and the canonicalization of
    // a key-switch accumulator row (32 products per u128 slot, the flush
    // bound) against the same loops spelled with `%`.
    let mut barrett_speedups: Vec<(String, f64)> = Vec::new();
    {
        let n = 8192;
        let q = generate_ntt_primes(60, n, 1)[0];
        let reducer = Barrett::new(q);
        let mut out: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
        let sums: Vec<u128> = (0..n)
            .map(|_| {
                (0..32)
                    .map(|_| u128::from(rng.next_below(q)) * u128::from(q - 1))
                    .sum()
            })
            .collect();
        let mut race = |name: &str, barrett: &dyn Fn(&mut [u64]), div: &dyn Fn(&mut [u64])| {
            let timings = best_of_three(|side| {
                let f = [barrett, div][side];
                measure(window_ms, || f(black_box(&mut out)))
            });
            let ratio = record_twins(&mut entries, name, ["barrett", "div"], timings);
            barrett_speedups.push((format!("{name}_barrett_speedup"), ratio));
        };
        race("dyadic_mul", &|a| dyadic_assign(a, &b, q), &|a| {
            for (x, &y) in a.iter_mut().zip(&b) {
                *x = mul_mod(*x, y, q);
            }
        });
        race(
            "reduce_row",
            &|row| {
                for (x, &v) in row.iter_mut().zip(&sums) {
                    *x = reducer.reduce(v);
                }
            },
            &|row| {
                for (x, &v) in row.iter_mut().zip(&sums) {
                    *x = (v % u128::from(q)) as u64;
                }
            },
        );
    }

    header("RNS vs big-integer, and the client's cached key transforms (sets A, B, C)");
    // The production paths against the per-coefficient CRT oracle they
    // replaced, at the degrees of paper sets A (8192) and B (4096) — BFV
    // multiply, decrypt, noise budget and reply compression — and the CKKS
    // decode at set C.
    // ROADMAP's rule: the RNS / limb path exists because it beats the
    // reference; below the gate the reference is the simpler code to ship.
    // The same rule holds the BFV encrypt to its cached evaluation-domain
    // public key: its twin is the encryption spelled with two `mul_poly`s
    // (the key and `u` transformed again on every call).
    let mut rns_speedups: Vec<(String, f64)> = Vec::new();
    // The encryptions' races: (speedup name, twin / candidate, gate).
    let mut encrypt_gates: Vec<(String, f64, f64)> = Vec::new();
    let mut gated_twins = |entries: &mut Vec<Entry>,
                           name: String,
                           labels: [&str; 2],
                           gate: f64,
                           mut sides: [&mut dyn FnMut(); 2]| {
        let timings = best_of_three(|side| measure(window_ms, &mut *sides[side]));
        let ratio = record_twins(entries, &name, labels, timings);
        assert!(
            ratio >= gate,
            "{name} is {ratio:.2}x its {} twin (gate: >= {gate:.2}x)",
            labels[1]
        );
        rns_speedups.push((format!("{name}_speedup"), ratio));
    };
    const RNS: [&str; 2] = ["rns", "bigint"];
    for (tag, set) in [("a", HeParams::set_a()), ("b", HeParams::set_b())] {
        let ctx = BfvContext::new(&set).unwrap();
        let mut rng = Blake3Rng::from_seed(b"bench kernels bfv rns");
        let keys = ctx.keygen(&mut rng);
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
        let values: Vec<u64> = (0..set.degree() as u64).map(|i| i % 17).collect();
        let pt = ctx.batch_encoder().unwrap().encode(&values).unwrap();
        let enc = ctx.encryptor(&pk);
        let ct = enc.encrypt(&pt, &mut rng);
        let (eval, dec) = (ctx.evaluator(), ctx.decryptor(keys.secret_key()));
        gated_twins(
            &mut entries,
            format!("bfv_multiply_relin_{tag}"),
            RNS,
            3.0,
            [
                &mut || {
                    black_box(eval.multiply_relin(black_box(&ct), &ct, &rk).unwrap());
                },
                &mut || {
                    let prod = eval.multiply_reference(black_box(&ct), &ct).unwrap();
                    black_box(eval.relinearize(&prod, &rk).unwrap());
                },
            ],
        );
        if tag == "a" {
            // The squaring path `multiply(&ct, &ct)` takes, against the
            // general path on a clone of the same ciphertext.
            let twin = ct.clone();
            gated_twins(
                &mut entries,
                "bfv_square_relin_a".into(),
                ["square", "general"],
                1.0,
                [
                    &mut || {
                        black_box(eval.multiply_relin(black_box(&ct), &ct, &rk).unwrap());
                    },
                    &mut || {
                        black_box(eval.multiply_relin(black_box(&ct), &twin, &rk).unwrap());
                    },
                ],
            );
        }
        gated_twins(
            &mut entries,
            format!("bfv_decrypt_{tag}"),
            RNS,
            2.0,
            [
                &mut || {
                    black_box(dec.decrypt(black_box(&ct)));
                },
                &mut || {
                    black_box(dec.decrypt_reference(black_box(&ct)));
                },
            ],
        );
        gated_twins(
            &mut entries,
            format!("bfv_noise_budget_{tag}"),
            RNS,
            3.0,
            [
                &mut || {
                    black_box(dec.invariant_noise_budget(black_box(&ct)));
                },
                &mut || {
                    black_box(dec.invariant_noise_budget_reference(black_box(&ct)));
                },
            ],
        );
        // A program output's download form, compressed and lifted, against
        // the same rounding both ways by big integers.
        gated_twins(
            &mut entries,
            format!("bfv_compress_{tag}"),
            RNS,
            1.0,
            [
                &mut || {
                    black_box(ctx.compress_reply(black_box(&ct)).unwrap());
                },
                &mut || {
                    black_box(ctx.compress_reply_reference(black_box(&ct)).unwrap());
                },
            ],
        );
        // The twin is a twin: same draws, same ciphertext.
        let seed = b"bench kernels bfv encrypt";
        let (mut cached_rng, mut twin_rng) =
            (Blake3Rng::from_seed(seed), Blake3Rng::from_seed(seed));
        assert_eq!(
            enc.encrypt(&pt, &mut cached_rng),
            encrypt_by_mul_poly(&ctx, &pk, &pt, &mut twin_rng)
        );
        // One race of three: the seeded upload `HeScheme::encrypt` makes,
        // the Eq. 2 encryption against the key's cached evaluation-domain
        // rows, and Eq. 2 spelled with two `mul_poly`s.
        let mut seeded_rng = Blake3Rng::from_seed(seed);
        let mut sides: [&mut dyn FnMut(); 3] = [
            &mut || {
                black_box(ctx.encrypt_symmetric(
                    black_box(&pt),
                    keys.secret_key(),
                    &mut seeded_rng,
                ));
            },
            &mut || {
                black_box(enc.encrypt(black_box(&pt), &mut cached_rng));
            },
            &mut || {
                black_box(encrypt_by_mul_poly(
                    &ctx,
                    &pk,
                    black_box(&pt),
                    &mut twin_rng,
                ));
            },
        ];
        let timings: [(f64, usize); 3] =
            best_of_three(|side| measure(window_ms, &mut *sides[side]));
        let name = format!("bfv_encrypt_{tag}");
        record_twins(
            &mut entries,
            &name,
            ["seeded", "cached", "mul_poly"],
            timings,
        );
        encrypt_gates.push((format!("{name}_speedup"), timings[2].0 / timings[1].0, 1.05));
        encrypt_gates.push((
            format!("{name}_seeded_speedup"),
            timings[1].0 / timings[0].0,
            1.0,
        ));
        if tag == "a" {
            // What the server pays to expand a set-A upload's `c1`.
            let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut seeded_rng);
            let seed = ct.seed().expect("a symmetric encryption carries its seed");
            record(&mut entries, window_ms, "seed_expand_a", || {
                black_box(expand_seed(black_box(seed), ct.moduli(), set.degree()));
            });
        }
    }
    {
        let cparams = HeParams::set_c();
        let cctx = CkksContext::new(&cparams).unwrap();
        let mut rng = Blake3Rng::from_seed(b"bench kernels ckks decode");
        let keys = cctx.keygen(&mut rng);
        let pk = cctx.public_key(keys.secret_key(), &mut rng);
        let values: Vec<f64> = (0..cctx.slot_count())
            .map(|i| (i % 17) as f64 * 0.25)
            .collect();
        let ct = cctx
            .encrypt(&cctx.encode(&values).unwrap(), &pk, &mut rng)
            .unwrap();
        let pt = cctx.decrypt(&ct, keys.secret_key());
        // The seeded upload against the cached Eq. 2 encryption.
        let fresh = cctx.encode(&values).unwrap();
        let seed = b"bench kernels ckks encrypt";
        let (mut seeded_rng, mut eq2_rng) =
            (Blake3Rng::from_seed(seed), Blake3Rng::from_seed(seed));
        let mut sides: [&mut dyn FnMut(); 2] = [
            &mut || {
                black_box(
                    cctx.encrypt_symmetric(black_box(&fresh), keys.secret_key(), &mut seeded_rng)
                        .unwrap(),
                );
            },
            &mut || {
                black_box(cctx.encrypt(black_box(&fresh), &pk, &mut eq2_rng).unwrap());
            },
        ];
        let timings = best_of_three(|side| measure(window_ms, &mut *sides[side]));
        let ratio = record_twins(
            &mut entries,
            "ckks_encrypt_c",
            ["seeded", "cached"],
            timings,
        );
        encrypt_gates.push(("ckks_encrypt_c_seeded_speedup".into(), ratio, 1.0));
        gated_twins(
            &mut entries,
            "ckks_decode_c".into(),
            RNS,
            2.0,
            [
                &mut || {
                    black_box(cctx.decode(black_box(&pt)));
                },
                &mut || {
                    black_box(cctx.decode_reference(black_box(&pt)));
                },
            ],
        );
    }
    // The primitive itself at set A's shapes: the multiply's `q → P` and
    // `P → q` conversions between the 2 data primes and the 3 auxiliary
    // primes of the tensor basis.
    let mut rns_convert_ns: Vec<(String, f64)> = Vec::new();
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
            record(&mut entries, window_ms, name, || {
                black_box(black_box(&x).convert_centered(&conv));
            });
            let ns = seconds_of(&entries, name) * 1e9 / n as f64;
            rns_convert_ns.push((format!("{name}_ns_per_coeff"), ns));
        }
    }

    header("kernel timings: BFV ops (paper set B)");
    let params = HeParams::set_b();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench kernels bfv");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let cols = 16usize;
    let steps: Vec<i64> = (1..cols as i64).collect();
    let gks = ctx
        .galois_keys(keys.secret_key(), &steps, &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let values: Vec<u64> = (0..params.degree() as u64).map(|i| i % 17).collect();
    let pt = encoder.encode(&values).unwrap();
    let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
    let eval = ctx.evaluator();

    header("kernel timings: rotation batch (15 steps)");
    record(&mut entries, window_ms, "rotations_naive", || {
        for &s in &steps {
            black_box(eval.rotate_rows(black_box(&ct), s, &gks).unwrap());
        }
    });

    header("kernel timings: windowed rotation by 3 in a 16-slot window (Figure 4)");
    // Rotational redundancy (one rotation of a redundantly packed window)
    // and the masked permutation it replaces (two rotations, two masks).
    let layout = RedundantLayout::new(16, 4);
    let window_gks = ctx
        .galois_keys(keys.secret_key(), &[3, -13], &mut rng)
        .unwrap();
    let window: Vec<u64> = (1..=16).collect();
    let mut encrypt = |values: &[u64]| {
        let pt = encoder.encode(values).unwrap();
        ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)
    };
    let (ct_redundant, ct_window) = (encrypt(&layout.pack(&window)), encrypt(&window));
    record(&mut entries, window_ms, "windowed_rotate_redundant", || {
        let out =
            windowed_rotate_redundant(&ctx, black_box(&ct_redundant), &layout, 3, &window_gks);
        black_box(out.unwrap());
    });
    record(&mut entries, window_ms, "windowed_rotate_masked", || {
        let out = windowed_rotate_masked(&ctx, black_box(&ct_window), 16, 3, &window_gks);
        black_box(out.unwrap());
    });

    header("kernel timings: diagonal matvec (16 diagonals)");
    let pts: Vec<Plaintext> = (0..cols as u64)
        .map(|d| {
            let diag: Vec<u64> = (0..params.degree() as u64).map(|i| (i + d) % 13).collect();
            encoder.encode(&diag).unwrap()
        })
        .collect();
    let timings = best_of_three(|side| {
        let f = [matvec_hoisted, matvec_naive][side];
        measure(window_ms, || f(&ctx, black_box(&ct), &pts, &gks))
    });
    let mv = record_twins(&mut entries, "matvec", ["hoisted", "naive"], timings);

    header("DNN layer kernels, as `lenet_direct` calls them (BFV set B)");
    // conv2's shape: 4 input channels of 8x8, a 5x5 filter (25 taps), 8
    // output channels, as `lenet_direct` runs it: its compiled program
    // through the warm executor — 16 blocks, 4 diagonals in one kernel call
    // over cached operands, 3 rotate-adds, one output ciphertext.
    let mut layer_steps: Vec<i64> = (1..128).collect();
    layer_steps.extend(conv_rotation_steps(4, 8, 8, 5));
    let mut lclient = Client::<Bfv>::new(&params, b"bench kernels layers").unwrap();
    let lserver = lclient.provision_server(&layer_steps).unwrap();
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
    let layer = CachedProgram::<Bfv>::new(packing.compile_layer(1, &conv_weights, t).unwrap());
    let mut layer_inputs = HashMap::new();
    layer_inputs.insert(ConvPacking::input_name(0), packed_ct.clone());
    let run_layer = || {
        let inputs = black_box(&layer_inputs);
        let (ctx, relin, galois) = (
            lserver.context(),
            lserver.relin_key(),
            lserver.galois_keys(),
        );
        let compiled = &layer.compiled;
        compiled.execute_encrypted_cached::<Bfv>(ctx, inputs, relin, galois, &layer.operands)
    };
    // The output group's blocks hold the plaintext convolution, and the
    // timed runs are warm.
    let channel = RedundantLayout::new(64, 2 * 9);
    let blocks = lserver.slot_width() / StackedLayout::new(1, channel).stride();
    let reply = run_layer().unwrap();
    let slots = lclient.decrypt_slots(&reply[0]).unwrap();
    let maps = StackedLayout::new(blocks, channel).extract(&slots);
    let want = conv2d_plain_circular(&channels, &conv_weights, 8, 8, 5, t);
    assert_eq!(maps[..8], want[..], "conv_layer_program");
    record(&mut entries, window_ms, "conv_layer_program", || {
        black_box(run_layer().unwrap());
    });
    // The FC: 10 x 128. The twin is the square-matrix diagonal method the
    // layer went through before: 128 diagonals, 10 non-zero slots each.
    let fc: Vec<Vec<u64>> = (0..10)
        .map(|r| (0..128).map(|c| (r * 5 + c * 3 + 1) % 16).collect())
        .collect();
    let full_diagonals: Vec<(i64, Vec<u64>)> = (0..128usize)
        .map(|d| {
            let mut diag = vec![0u64; lserver.slot_width()];
            for (i, row) in fc.iter().enumerate() {
                diag[i] = row[(i + d) % 128];
            }
            (d as i64, diag)
        })
        .collect();
    let features: Vec<u64> = (0..128).map(|i| (i * 11 + 5) % 16).collect();
    let fc_ct = lclient
        .encrypt_slots(&replicate_for_matvec(&features, lserver.slot_width()))
        .unwrap();
    let timings = best_of_three(|side| {
        measure(window_ms, || match side {
            0 => matvec_diagonals(&lserver, black_box(&fc_ct), &fc).unwrap(),
            _ => lserver
                .dot_diagonals(black_box(&fc_ct), &full_diagonals)
                .unwrap(),
        })
    });
    let mv_hybrid = record_twins(
        &mut entries,
        "matvec",
        ["hybrid", "full_diagonals"],
        timings,
    );

    header("kernel timings: CKKS diagonal matvec, fused vs per-rotation (set C, 8 diagonals)");
    let cparams = HeParams::set_c();
    let cctx = CkksContext::new(&cparams).unwrap();
    let mut crng = Blake3Rng::from_seed(b"bench kernels ckks");
    let ckeys = cctx.keygen(&mut crng);
    let cpk = cctx.public_key(ckeys.secret_key(), &mut crng);
    let ccols = 8usize;
    let csteps: Vec<i64> = (1..ccols as i64).collect();
    let cgks = cctx
        .galois_keys(ckeys.secret_key(), &csteps, &mut crng)
        .unwrap();
    let cvalues: Vec<f64> = (0..cctx.slot_count())
        .map(|i| (i % 17) as f64 * 0.25)
        .collect();
    let cpt = cctx.encode(&cvalues).unwrap();
    let cct = cctx.encrypt(&cpt, &cpk, &mut crng).unwrap();
    let diags_ckks: Vec<(i64, Vec<f64>)> = (0..ccols)
        .map(|d| {
            let diag: Vec<f64> = (0..cctx.slot_count())
                .map(|i| ((i + d) % 13) as f64 * 0.125)
                .collect();
            (d as i64, diag)
        })
        .collect();
    let timings = best_of_three(|side| {
        measure(window_ms, || match side {
            0 => Ckks::dot_diagonals(&cctx, black_box(&cct), &diags_ckks, &cgks).unwrap(),
            _ => ckks_matvec_naive(&cctx, black_box(&cct), &diags_ckks, &cgks),
        })
    });
    let ckks_mv = record_twins(&mut entries, "ckks_matvec", ["fused", "naive"], timings);

    header("kernel timings: CKKS ops (set C)");
    let crk = cctx.relin_key(ckeys.secret_key(), &mut crng);
    record(&mut entries, window_ms, "ckks_encode_c", || {
        black_box(cctx.encode(black_box(&cvalues)).unwrap());
    });
    record(&mut entries, window_ms, "ckks_decrypt_decode_c", || {
        black_box(cctx.decode(&cctx.decrypt(black_box(&cct), ckeys.secret_key())));
    });
    record(&mut entries, window_ms, "ckks_multiply_relin_c", || {
        black_box(cctx.multiply_relin(black_box(&cct), &cct, &crk).unwrap());
    });
    record(&mut entries, window_ms, "ckks_rotate_c", || {
        black_box(cctx.rotate(black_box(&cct), 1, &cgks).unwrap());
    });

    header("compiled-program executor, warm: dot groups fused vs every node an output");
    // The two served programs that contain a dot group, at the parameters
    // `benchmark/` serves them with (`pagerank_remote`, `conv_batched`).
    let timings = exec_fused_and_nodes::<Bfv>(
        window_ms,
        &HeParams::set_a(),
        &pagerank_program(8),
        &workload_options(),
    );
    let exec_pagerank = record_twins(&mut entries, "exec_pagerank_a", ["fused", "nodes"], timings);
    let timings = exec_fused_and_nodes::<Ckks>(
        window_ms,
        &cparams,
        &dnn_conv_program(4, 8, 8, 3),
        &CompilerOptions {
            scale_bits: cparams.scale_bits(),
            prime_bits: cparams.prime_bits()[0],
            max_levels: cparams.data_prime_count(),
        },
    );
    let exec_conv = record_twins(&mut entries, "exec_conv_c", ["fused", "nodes"], timings);
    // A bundle against its groups one kernel call each: conv2's 4
    // diagonals over its 25 shared tap rotations (BFV set B), as one
    // program with 4 outputs and as 4 programs of one.
    let taps: Vec<i64> = conv_rotation_steps(1, 8, 8, 5)
        .into_iter()
        .chain([0])
        .collect();
    let dots = |chains: std::ops::Range<usize>| {
        let program = conv_dots(chains, &taps, lserver.slot_width());
        CachedProgram::<Bfv>::new(compile(&program, &workload_options()).unwrap())
    };
    let bundled = dots(0..4);
    let groups: Vec<_> = (0..4).map(|o| dots(o..o + 1)).collect();
    assert_eq!(
        (
            bundled.compiled.fused_groups(),
            bundled.compiled.fused_bundles()
        ),
        (4, 1)
    );
    let mut dot_inputs = HashMap::new();
    dot_inputs.insert("x".to_string(), packed_ct.clone());
    let run = |program: &CachedProgram<Bfv>| {
        let (ctx, relin, galois) = (
            lserver.context(),
            lserver.relin_key(),
            lserver.galois_keys(),
        );
        let inputs = black_box(&dot_inputs);
        let compiled = &program.compiled;
        compiled
            .execute_encrypted_cached::<Bfv>(ctx, inputs, relin, galois, &program.operands)
            .unwrap()
    };
    let together = run(&bundled);
    for (o, group) in groups.iter().enumerate() {
        assert_eq!(run(group), together[o..=o], "one output alone");
    }
    let timings = best_of_three(|side| {
        measure(window_ms, || match side {
            0 => run(&bundled),
            _ => groups.iter().flat_map(run).collect(),
        })
    });
    let exec_bundled = record_twins(&mut entries, "exec_conv", ["bundled", "groups"], timings);

    header("par pool: dispatch cost; kept call sites, pooled vs one thread (set A, n=8192)");
    // One empty task per thread: publish, wake, claim, join.
    let mut empty_tasks = vec![0u8; threads];
    record(&mut entries, window_ms, "par_dispatch", || {
        par::par_for_each_mut(black_box(&mut empty_tasks), |_, _| {})
    });
    let par_dispatch_us = seconds_of(&entries, "par_dispatch") * 1e6;
    let capacity_before = par_capacity(threads);
    // Every call site that still goes through `par_*` (DESIGN.md §6), at
    // the shape the served workloads give it: two data primes plus the
    // special prime, 8 terms per dot product.
    let pa = HeParams::set_a();
    let ks_basis = RnsBasis::new(pa.degree(), pa.primes()).unwrap();
    let level_basis = ks_basis.prefix(ks_basis.len() - 1);
    let mut prng = Blake3Rng::from_seed(b"bench kernels par");
    let x = RnsPoly::sample_uniform(&mut prng, &level_basis);
    let y = RnsPoly::sample_uniform(&mut prng, &level_basis);
    let small: Vec<u64> = (0..pa.degree() as u64).map(|i| i % 65_537).collect();
    // Key-switch keys are generated over the keys' evaluation-domain rows.
    let mut sk = RnsPoly::sample_ternary(&mut prng, &ks_basis);
    sk.ntt_forward(&ks_basis);
    let mut sk2 = RnsPoly::zero(ks_basis.len(), ks_basis.degree());
    sk2.dyadic_accumulate(&sk, &sk, &ks_basis);
    let ksk = generate_ksk(&sk, &sk2, &ks_basis, &level_basis, &mut prng);
    let hoisted = hoist_decompose(&x, &ks_basis, &level_basis);
    let ctx_a = BfvContext::new(&pa).unwrap();
    let keys_a = ctx_a.keygen(&mut prng);
    let pk_a = ctx_a.public_key(keys_a.secret_key(), &mut prng);
    let steps_a: Vec<i64> = (1..8).collect();
    let gks_a = ctx_a
        .galois_keys(keys_a.secret_key(), &steps_a, &mut prng)
        .unwrap();
    let vals_a: Vec<u64> = (0..pa.degree() as u64).map(|i| i % 17).collect();
    let pt_a = ctx_a.batch_encoder().unwrap().encode(&vals_a).unwrap();
    let ct_a = ctx_a.encryptor(&pk_a).encrypt(&pt_a, &mut prng);
    let eval_a = ctx_a.evaluator();
    let mut par_speedups: Vec<(String, f64)> = Vec::new();
    let mut site = |name: &str, f: &dyn Fn()| {
        let timings = pooled_and_seq(window_ms, f);
        let ratio = record_twins(&mut entries, name, ["pooled", "seq"], timings);
        par_speedups.push((format!("{name}_par_speedup"), ratio));
    };
    site("rns_mul_poly", &|| {
        black_box(x.mul_poly(black_box(&y), &level_basis));
    });
    site("rns_mul_small_poly", &|| {
        black_box(x.mul_small_poly(black_box(&small), &level_basis));
    });
    site("hoist_decompose", &|| {
        black_box(hoist_decompose(black_box(&x), &ks_basis, &level_basis));
    });
    site("hoisted_accumulate", &|| {
        black_box(hoisted_accumulate(
            black_box(&hoisted),
            None,
            &ksk,
            &ks_basis,
        ));
    });
    // The fused dot as `HeScheme::dot_diagonals` drives it: each term's
    // operand encoded as it arrives.
    site("dot_rotations_many", &|| {
        let terms = (0..8).map(|d| Ok((d, [eval_a.dot_operand(&pt_a)?])));
        let out = eval_a.dot_rotations_many(black_box(&ct_a), 1, terms, &gks_a);
        black_box(out.unwrap());
    });
    // Shared hosts give and take cores by the minute: bracket the rows.
    let capacity = capacity_before.min(par_capacity(threads));

    let fwd = seconds_of(&entries, "ntt_forward_strict") / seconds_of(&entries, "ntt_forward_lazy");
    let inv = seconds_of(&entries, "ntt_inverse_strict") / seconds_of(&entries, "ntt_inverse_lazy");
    header("speedups (old / new)");
    println!("ntt_forward   {fwd:.2}x");
    println!("ntt_inverse   {inv:.2}x");
    header("fusion speedups (unfused twin / fused; gate: every one >= 1.5x)");
    let fusion_speedups = [
        ("matvec_speedup", mv),
        ("ckks_matvec_speedup", ckks_mv),
        ("exec_pagerank_a_speedup", exec_pagerank),
        ("exec_conv_c_speedup", exec_conv),
        ("exec_conv_bundled_speedup", exec_bundled),
    ];
    for (name, ratio) in fusion_speedups {
        println!("{name:<34} {ratio:.2}x");
        // ROADMAP's rule: the fused path exists because it beats the
        // node-by-node one; below the gate the simpler twin is what to ship.
        assert!(
            ratio >= 1.5,
            "{name} is {ratio:.2}x its unfused twin (gate: >= 1.5x)"
        );
    }
    header("layer speedups (twin / candidate; gate: hybrid matvec >= 2.0x)");
    let layer_speedups = [("matvec_hybrid_speedup", mv_hybrid, 2.0)];
    for (name, ratio, gate) in layer_speedups {
        println!("{name:<34} {ratio:.2}x");
        // Same rule: a layer kernel that does not beat the plainer way to
        // call the one dot kernel is not worth its shape logic.
        assert!(
            ratio >= gate,
            "{name} is {ratio:.2}x its twin (gate: >= {gate:.1}x)"
        );
    }
    header(
        "simd and barrett speedups (scalar / simd: ntt_forward, ntt_inverse, add_mod, sub_mod; \
         div / barrett: dyadic_mul, reduce_row; gate: every kernel >= 1.0x, forward NTT peak \
         >= 2.0x)",
    );
    for (name, ratio) in simd_speedups.iter().chain(&barrett_speedups) {
        println!("{name:<34} {ratio:.2}x");
    }
    // Same rule for the reducer, on any backend: where Barrett does not beat
    // the divide, `%` is the simpler code to ship.
    for (name, ratio) in &barrett_speedups {
        assert!(
            *ratio >= 1.0,
            "{name} is {ratio:.2}x: reduce with % instead (gate: >= 1.0x)"
        );
    }
    if backend.is_vector() {
        // ROADMAP's rule: a vector kernel that does not beat its scalar twin
        // on the bench is deleted. Min-of-rounds timing on both sides.
        for (name, ratio) in &simd_speedups {
            assert!(
                *ratio >= 1.0,
                "{name} is {ratio:.2}x with the {} backend: run the scalar loop instead \
                 (gate: >= 1.0x)",
                backend.name()
            );
        }
        assert!(
            simd_ntt_speedup >= 2.0,
            "simd forward NTT peak speedup is {simd_ntt_speedup:.2}x with the {} backend \
             (gate: >= 2.0x)",
            backend.name()
        );
    } else {
        note("scalar backend active: both twins ran the scalar loop, simd gate skipped");
    }
    header("blake3 speedups (scalar / wide; gate: xof >= 2.0x, keyed hash >= 1.5x)");
    for (name, ratio, gate) in &blake3_gates {
        println!("{name:<34} {ratio:.2}x");
        // Same rule as the simd kernels above, with the margins a kernel
        // under every draw and tag has to show.
        if backend.is_vector() {
            assert!(
                *ratio >= *gate,
                "{name} is {ratio:.2}x with the {} backend: hash one block at a time instead \
                 (gate: >= {gate:.1}x)",
                backend.name()
            );
        }
    }
    let blake3_speedups: Vec<(String, f64)> = blake3_gates
        .into_iter()
        .map(|(name, ratio, _)| (name, ratio))
        .collect();
    header(
        "rns speedups (twin / candidate; gated above: multiply+relin >= 3.0x, square+relin \
         >= 1.0x, decrypt >= 2.0x, noise budget >= 3.0x, compress >= 1.0x, ckks decode >= 2.0x)",
    );
    for (name, value) in rns_speedups.iter().chain(&rns_convert_ns) {
        println!("{name:<34} {value:.2}");
    }
    header(
        "encrypt speedups (twin / candidate; gate: cached Eq. 2 >= 1.05x its mul_poly spelling, \
         seeded upload >= 1.0x the cached Eq. 2)",
    );
    for (name, ratio, gate) in &encrypt_gates {
        println!("{name:<34} {ratio:.2}x");
        assert!(
            *ratio >= *gate,
            "{name} is {ratio:.2}x (gate: >= {gate:.2}x)"
        );
    }
    let encrypt_speedups: Vec<(String, f64)> = encrypt_gates
        .into_iter()
        .map(|(name, ratio, _)| (name, ratio))
        .collect();
    header("par pool (one thread / pooled; gate: every kept site >= 1.0x)");
    println!("par_dispatch  {par_dispatch_us:.1} us");
    println!("par_capacity  {capacity:.2}x  (one spin task per thread, {threads} threads)");
    for (name, ratio) in &par_speedups {
        println!("{name:<34} {ratio:.2}x");
    }
    if threads > 1 && capacity >= 1.4 {
        // ROADMAP's rule: a call site that does not beat its plain loop on
        // the bench becomes one. Min-of-rounds timing on both sides.
        for (name, ratio) in &par_speedups {
            assert!(
                *ratio >= 1.0,
                "{name} is {ratio:.2}x at {threads} threads: make the site a plain loop \
                 (gate: >= 1.0x)"
            );
        }
    } else {
        note("host ran the pool's threads at < 1.4x one thread: par gate skipped");
    }

    if let Some(path) = json_path {
        let mut derived = vec![
            ("ntt_forward_speedup", fwd),
            ("ntt_inverse_speedup", inv),
            ("simd_ntt_speedup", simd_ntt_speedup),
            ("par_dispatch_us", par_dispatch_us),
            ("par_capacity", capacity),
        ];
        derived.extend(fusion_speedups);
        derived.extend(layer_speedups.map(|(name, ratio, _)| (name, ratio)));
        derived.extend(
            simd_speedups
                .iter()
                .chain(&blake3_speedups)
                .chain(&barrett_speedups)
                .chain(&rns_speedups)
                .chain(&encrypt_speedups)
                .chain(&rns_convert_ns)
                .chain(&par_speedups)
                .map(|(name, ratio)| (name.as_str(), *ratio)),
        );
        write_json(&path, mode, threads, backend.name(), &entries, &derived);
    }
}
