//! The download step, measured: every BFV program output leaves the
//! executor compressed (`CompilerScheme::download`,
//! `BfvContext::compress_reply`) — each component rounded to
//! `k0 = ⌈log2 t⌉ + 11` and `k1 = ⌈log2 t⌉ + log2 N + 11` bits and lifted
//! over `BfvContext::download_level`'s basis — under a licence that is a
//! parameter fact, not a prediction of the program's noise: the rounding
//! adds at most `t/2^{k0+1} + t·N/2^{k1+1} + t·(1+N)/(2q')` of invariant
//! noise, under `2^-(DOWNLOAD_CEILING_BITS + 1)`.
//!
//! Over the four served workload programs at paper set A, the test-size
//! `workload_params(Bfv)` and paper set B, this checks against the
//! uncompressed output of the same run:
//!
//! * the compressed and uncompressed outputs decrypt to the same slots, and
//!   both to the program's `ModT` walk (slots mod `t`, rotations cyclic
//!   within each batching row) wherever the program fits the set's noise
//!   budget (wherever `choco-verify` accepts it; where it refuses, the only
//!   rule that fires is NOISE001);
//! * compression costs at most a bit below `min(budget, licence)`;
//! * a reply is the frame its widths imply, lifted over the download
//!   level, and compressing it again changes nothing;
//! * the formula ceiling of a lower level is at most the measured one (a
//!   fresh encryption switched down to one residue), at sets that lift
//!   replies over one residue and at sets that keep them at two.

use choco::compiler::CompilerScheme;
use choco_apps::circuits::all_workloads;
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::bfv::{BfvContext, Ciphertext, DOWNLOAD_CEILING_BITS, REPLY_GUARD_BITS};
use choco_he::params::{HeParams, SchemeType};
use choco_he::serialize::REPLY_HEADER_BYTES;
use choco_he::{Bfv, HeScheme};
use choco_prng::Blake3Rng;
use choco_verify::{verify, walk, ModT, RuleId, Slots, VerifyOptions};
use std::collections::HashMap;

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
    // download level, reply widths, a reply's payload bytes): two sets that
    // lift replies over one residue, two that keep two.
    let sets = [
        ("set A", HeParams::set_a(), 1104, 1, [34, 47], 8 + 82_944),
        (
            "workload",
            workload_params(SchemeType::Bfv).unwrap(),
            1023,
            1,
            [28, 38],
            8 + 8_448,
        ),
        ("set B", HeParams::set_b(), -5, 2, [29, 41], 16 + 35_840),
        (
            "18-bit t",
            HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap(),
            814,
            2,
            [29, 39],
            16 + 8_704,
        ),
    ];
    for (set, params, ceiling_centibits, level, widths, payload) in sets {
        let ctx = BfvContext::new(&params).unwrap();
        let ceiling = ctx.switch_ceiling_bits(1).unwrap();
        assert_eq!((ceiling * 100.0).round() as i64, ceiling_centibits, "{set}");
        assert_eq!(ctx.download_level(), level, "{set}");
        assert_eq!(level == 1, ceiling >= DOWNLOAD_CEILING_BITS, "{set}");
        assert_eq!(ctx.reply_widths(), Some(widths), "{set}");
        // The licence, from the widths and the lift modulus.
        let (t, n) = (ctx.plain_modulus() as f64, params.degree() as f64);
        let q_bits: f64 = params.primes()[..level]
            .iter()
            .map(|&q| (q as f64).log2())
            .sum();
        let [k0, k1] = widths.map(|k| 2f64.powi(k as i32 + 1));
        let added = t / k0 + t * n / k1 + t * (1.0 + n) / 2f64.powf(q_bits + 1.0);
        assert!(
            added <= 2f64.powf(-(DOWNLOAD_CEILING_BITS + 1.0)),
            "{set}: {added}"
        );
        assert_eq!(
            widths[0] + params.degree().trailing_zeros(),
            widths[1],
            "{set}"
        );
        assert!(widths[0] >= REPLY_GUARD_BITS + (t.log2() as u32), "{set}");
        let measured = measured_ceiling(&ctx);
        assert!(
            ceiling <= measured,
            "{set}: formula {ceiling} > measured {measured}"
        );
        // A reply of a fresh encryption: its frame and its level.
        let mut rng = Blake3Rng::from_seed(b"reply frame");
        let keys = Bfv::keygen(&ctx, &mut rng);
        let ct = Bfv::encrypt(&ctx, &keys, &[1, 2, 3], &mut rng).unwrap();
        let reply = <Bfv as CompilerScheme>::download(&ctx, &ct).unwrap();
        assert_eq!(reply.level(), level, "{set}");
        assert_eq!(Bfv::ct_bytes(&reply), payload, "{set}");
        assert_eq!(Bfv::ct_to_wire(&reply).len(), REPLY_HEADER_BYTES + payload);
        assert_eq!(Bfv::decrypt(&ctx, &keys, &reply).unwrap()[..3], [1, 2, 3]);
    }
}

#[test]
fn bfv_replies_compress_within_the_licence() {
    let sets = [
        ("set A", HeParams::set_a()),
        ("workload", workload_params(SchemeType::Bfv).unwrap()),
        ("set B", HeParams::set_b()),
    ];
    for (set, params) in sets {
        let ctx = BfvContext::new(&params).unwrap();
        let level = ctx.download_level();
        for circuit in all_workloads() {
            let name = circuit.name;
            let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, b"download gate").unwrap();
            let named: HashMap<String, Ciphertext> = w.inputs.iter().cloned().collect();
            let uncompressed = w
                .compiled
                .execute_encrypted_uncompressed::<Bfv>(&w.ctx, &named, &w.relin, &w.galois)
                .unwrap();
            let compressed = w.local_outputs().unwrap();
            // The program in the ring it runs in, over the decrypted inputs,
            // its constants quantized as the executor quantizes them.
            let decrypt = |(name, ct): &(String, Ciphertext)| {
                (name.clone(), Bfv::decrypt(&w.ctx, &w.keys, ct).unwrap())
            };
            let inputs = w.inputs.iter().map(decrypt).collect();
            let quantize = |c: &[f64]| Bfv::quantize_const(&w.ctx, c, w.options.scale_bits);
            let mut ring = Slots::new(ModT::for_params(&params), &inputs, quantize);
            let want = walk(&circuit.program.to_circuit(), &mut ring)
                .unwrap()
                .outputs;
            let opts = VerifyOptions::for_params(&params).with_galois_steps(&circuit.galois_steps);
            let verdict = verify(&circuit.program.to_circuit(), &opts);
            assert_eq!(compressed.len(), want.len(), "{set} {name}");
            for ((reply, full), want) in compressed.iter().zip(&uncompressed).zip(&want) {
                assert_eq!(reply.level(), level, "{set} {name}");
                assert_eq!(full.level(), params.data_prime_count(), "{set} {name}");
                assert_eq!(reply.reply().map(|r| r.widths()), ctx.reply_widths());
                assert!(full.reply().is_none(), "{set} {name}");
                assert!(Bfv::ct_bytes(reply) < Bfv::ct_bytes(full), "{set} {name}");
                let again = <Bfv as CompilerScheme>::download(&w.ctx, reply).unwrap();
                assert!(&again == reply, "{set} {name}: compressing twice");
                let slots = Bfv::decrypt(&w.ctx, &w.keys, reply).unwrap();
                assert!(
                    slots == Bfv::decrypt(&w.ctx, &w.keys, full).unwrap(),
                    "{set} {name}"
                );
                // A program the verifier refuses for the set's noise budget
                // (NOISE001) is not bound to the reference, compressed or
                // not: at set B, PageRank's output is wrong before any
                // download, and distance's square leaves under a bit, so
                // whether its output decrypts right turns on the client's
                // draws. Any other program must match.
                match &verdict {
                    Ok(_) => assert!(&slots == want, "{set} {name}: output is not the reference"),
                    Err(err) => assert!(
                        err.diagnostics.iter().all(|d| d.rule == RuleId::Noise001),
                        "{set} {name}: refused for more than its noise budget: {err}"
                    ),
                }
                let (after, before) = (
                    Bfv::health(&w.ctx, &w.keys, reply),
                    Bfv::health(&w.ctx, &w.keys, full),
                );
                assert!(
                    after >= before.min(DOWNLOAD_CEILING_BITS) - 1.0,
                    "{set} {name}: budget {before} fell to {after}"
                );
            }
        }
    }
}
