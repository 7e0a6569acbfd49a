//! The download switch, measured: every BFV program output leaves the
//! executor switched down to `BfvContext::download_level`
//! (`CompilerScheme::download`), and the switch is licensed by a parameter
//! fact — the level's noise-budget ceiling `log2(q_rest) − 2·log2(t) − 1`
//! at least 10 bits — not by a prediction of the program's noise.
//!
//! Over the four served workload programs at paper set A, the test-size
//! `workload_params(Bfv)` and paper set B, this checks against the
//! unswitched output of the same run:
//!
//! * the switched and unswitched outputs decrypt to the same slots, and
//!   both to a mod-`t` plaintext reference of the program wherever the
//!   program fits the set's noise budget;
//! * the switch costs at most a bit below `min(budget, ceiling)`;
//! * the formula ceiling is at most the measured one (a fresh encryption
//!   switched down to one residue), at sets that license the switch and
//!   at sets that refuse it;
//! * set B licenses none: its outputs keep both residues, byte for byte.

use choco::compiler::{CompilerScheme, Op};
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::bfv::{BfvContext, Ciphertext, DOWNLOAD_CEILING_BITS};
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, HeScheme};
use choco_prng::Blake3Rng;
use std::collections::HashMap;

/// The program's outputs over the quantized inputs of `w`, computed slot by
/// slot modulo `t`: constants quantized as the executor quantizes them,
/// rotations cyclic within each of the two batching rows.
fn reference(w: &RemoteWorkload<Bfv>, circuit: &WorkloadCircuit) -> Vec<Vec<u64>> {
    let t = w.ctx.plain_modulus();
    let slots = w.ctx.degree();
    let row = slots / 2;
    let widen = |values: Vec<u64>| {
        let mut v = values;
        v.resize(slots, 0);
        v
    };
    let inputs: HashMap<&str, Vec<u64>> = w
        .inputs
        .iter()
        .map(|(name, ct)| {
            let values = Bfv::decrypt(&w.ctx, &w.keys, ct).unwrap();
            (name.as_str(), values)
        })
        .collect();
    let zip = |a: &Vec<u64>, b: &Vec<u64>, f: &dyn Fn(u64, u64) -> u64| -> Vec<u64> {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    };
    let mul = |x: u64, y: u64| ((x as u128 * y as u128) % t as u128) as u64;
    let mut vals: Vec<Vec<u64>> = Vec::new();
    for op in circuit.program.ops() {
        let v = match op {
            Op::Input(name) => inputs[name.as_str()].clone(),
            Op::Constant(c) => widen(Bfv::quantize_const(&w.ctx, c, w.options.scale_bits)),
            Op::Add(a, b) | Op::AddPlain(a, b) => {
                zip(&vals[a.index()], &vals[b.index()], &|x, y| (x + y) % t)
            }
            Op::Sub(a, b) => zip(&vals[a.index()], &vals[b.index()], &|x, y| (x + t - y) % t),
            Op::Mul(a, b) | Op::MulPlain(a, b) => zip(&vals[a.index()], &vals[b.index()], &mul),
            Op::Rotate(a, s) => {
                let v = &vals[a.index()];
                (0..slots)
                    .map(|j| {
                        let base = j - j % row;
                        v[base + (j % row + s.rem_euclid(row as i64) as usize) % row]
                    })
                    .collect()
            }
            Op::Rescale(a) | Op::ModSwitch(a) => vals[a.index()].clone(),
        };
        vals.push(v);
    }
    let outputs = circuit.program.output_ids();
    outputs.iter().map(|o| vals[o.index()].clone()).collect()
}

/// The measured ceiling at one residue: the budget a fresh encryption
/// keeps once switched down there.
fn measured_ceiling(ctx: &BfvContext) -> f64 {
    let mut rng = Blake3Rng::from_seed(b"download ceiling");
    let keys = Bfv::keygen(ctx, &mut rng);
    let mut ct = Bfv::encrypt(ctx, &keys, &[1, 2, 3], &mut rng).unwrap();
    while ct.level() > 1 {
        ct = ctx.evaluator().mod_switch_to_next(&ct).unwrap();
    }
    Bfv::health(ctx, &keys, &ct)
}

#[test]
fn the_formula_ceiling_is_at_most_the_measured_one() {
    // (set, formula ceiling at one residue in hundredths of a bit,
    // download level): two sets that license the switch, two that refuse
    // it.
    let sets = [
        ("set A", HeParams::set_a(), 1104, 1),
        (
            "workload",
            workload_params(SchemeType::Bfv).unwrap(),
            1023,
            1,
        ),
        ("set B", HeParams::set_b(), -5, 2),
        (
            "18-bit t",
            HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap(),
            814,
            2,
        ),
    ];
    for (set, params, ceiling_centibits, level) in sets {
        let ctx = BfvContext::new(&params).unwrap();
        let ceiling = ctx.switch_ceiling_bits(1).unwrap();
        assert_eq!((ceiling * 100.0).round() as i64, ceiling_centibits, "{set}");
        assert_eq!(ctx.download_level(), level, "{set}");
        assert_eq!(level == 1, ceiling >= DOWNLOAD_CEILING_BITS, "{set}");
        let measured = measured_ceiling(&ctx);
        assert!(
            ceiling <= measured,
            "{set}: formula {ceiling} > measured {measured}"
        );
    }
}

#[test]
fn bfv_downloads_switch_exactly_where_the_ceiling_licenses_it() {
    let sets = [
        ("set A", HeParams::set_a()),
        ("workload", workload_params(SchemeType::Bfv).unwrap()),
        ("set B", HeParams::set_b()),
    ];
    for (set, params) in sets {
        let ctx = BfvContext::new(&params).unwrap();
        let level = ctx.download_level();
        let licensed = level < params.data_prime_count();
        let ceiling = ctx.switch_ceiling_bits(level).unwrap();
        for circuit in all_workloads() {
            let name = circuit.name;
            let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, b"download gate").unwrap();
            let named: HashMap<String, Ciphertext> = w.inputs.iter().cloned().collect();
            let unswitched = w
                .compiled
                .execute_encrypted_unswitched::<Bfv>(&w.ctx, &named, &w.relin, &w.galois)
                .unwrap();
            let switched = w.local_outputs().unwrap();
            let want = reference(&w, &circuit);
            assert_eq!(switched.len(), want.len(), "{set} {name}");
            for ((low, high), want) in switched.iter().zip(&unswitched).zip(&want) {
                assert_eq!(low.level(), level, "{set} {name}");
                assert_eq!(high.level(), params.data_prime_count(), "{set} {name}");
                let slots = Bfv::decrypt(&w.ctx, &w.keys, low).unwrap();
                assert!(
                    slots == Bfv::decrypt(&w.ctx, &w.keys, high).unwrap(),
                    "{set} {name}"
                );
                // PageRank's program exhausts set B's budget before any
                // switch (the verifier refuses it there, NOISE001): its
                // output is not the reference, switched or not.
                if (set, name) != ("set B", "pagerank") {
                    assert!(&slots == want, "{set} {name}: output is not the reference");
                }
                let (after, before) = (
                    Bfv::health(&w.ctx, &w.keys, low),
                    Bfv::health(&w.ctx, &w.keys, high),
                );
                assert!(
                    after >= before.min(ceiling) - 1.0,
                    "{set} {name}: budget {before} fell to {after} (ceiling {ceiling})"
                );
                if !licensed {
                    assert!(
                        Bfv::ct_to_wire(low) == Bfv::ct_to_wire(high),
                        "{set} {name}"
                    );
                }
            }
        }
    }
}
