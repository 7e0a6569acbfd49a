//! Compiler-IR twins of the four paper workloads (§5.1), for static
//! verification.
//!
//! Each builder mirrors the homomorphic structure of one workload kernel —
//! the same rotations, the same multiply depth, the same accumulation
//! shape — as a `choco::compiler` [`Program`]. `choco-verify` interprets
//! these circuits abstractly to certify, before any ciphertext is uploaded,
//! that the workload respects the level/rescale discipline, stays inside
//! the BFV noise budget at the paper's parameter sets, and requests only
//! rotations the client's Galois key set covers.
//!
//! The builders are the source of truth for the key-coverage tests: every
//! rotation a builder's program requests must appear in the corresponding
//! hand-maintained `*_rotation_steps` provisioning list (`dnn`, `distance`,
//! `pagerank`, `pipeline` each pin this in their test modules).
//!
//! Weight and mask *values* are irrelevant to verification — only shapes,
//! shifts, and depths matter — so the builders synthesize small
//! deterministic constants instead of threading real model weights through.

use crate::distance::{dims_per_ciphertext, distance_rotation_steps};
use crate::dnn::{conv_rotation_steps, conv_taps};
use crate::pagerank::pagerank_rotation_steps;
use crate::pipeline::{all_rotation_steps, LenetLikeSpec};
use choco::compiler::Program;
use choco::linalg::matvec_program;
use choco::rotation::RedundantLayout;
use choco::stacking::StackedLayout;

/// One workload's compiler-IR twin plus the Galois steps the client
/// provisions for it (the set `KEY001` checks rotations against).
#[derive(Debug, Clone)]
pub struct WorkloadCircuit {
    /// Short workload name (`"pipeline"`, `"dnn_conv"`, …).
    pub name: &'static str,
    /// The source program, ready for `compile()` / `to_circuit()`.
    pub program: Program,
    /// Rotation steps the client's key set covers for this workload.
    pub galois_steps: Vec<i64>,
}

/// All four workloads at their reference shapes — what the `choco-verify`
/// CLI and ci.sh verify under both paper parameter sets.
pub fn all_workloads() -> Vec<WorkloadCircuit> {
    let spec = LenetLikeSpec::tiny();
    vec![
        WorkloadCircuit {
            name: "pipeline",
            program: pipeline_program(&spec),
            galois_steps: all_rotation_steps(&spec, 512),
        },
        WorkloadCircuit {
            name: "dnn_conv",
            program: dnn_conv_program(4, 8, 8, 3),
            galois_steps: conv_rotation_steps(4, 8, 8, 3),
        },
        WorkloadCircuit {
            name: "pagerank",
            program: pagerank_program(8),
            galois_steps: pagerank_rotation_steps(8),
        },
        WorkloadCircuit {
            name: "distance",
            program: distance_program(4, 6, 512),
            galois_steps: distance_rotation_steps(4, 6, 512),
        },
    ]
}

/// The pipeline's encrypted fully-connected stage: [`matvec_program`], the
/// program `ResumablePipeline` runs, over synthesized `classes × fc_inputs`
/// weights — one rotation + plaintext multiply per extended diagonal of the
/// hybrid split, accumulated, then one rotate-add per fold. Multiplicative
/// depth 1.
pub fn pipeline_program(spec: &LenetLikeSpec) -> Program {
    let weights: Vec<Vec<f64>> = (0..spec.classes)
        .map(|r| {
            let row = 0..spec.fc_inputs();
            row.map(|c| (((r + c) % 16) + 1) as f64).collect()
        })
        .collect();
    matvec_program(&weights)
}

/// One stacked convolution layer: the filter-tap rotations of
/// `conv_taps` with per-tap plaintext mask multiplies, then the
/// `log2(in_ch)` rotate-add channel-accumulation tree over the stacked
/// layout. Multiplicative depth 1.
pub fn dnn_conv_program(in_ch: usize, h: usize, w: usize, f: usize) -> Program {
    let pad = f / 2;
    let layout = StackedLayout::new(in_ch, RedundantLayout::new(h * w, pad * (w + 1)));
    let width = layout.slots_used();
    let weights: Vec<Vec<u64>> = (0..in_ch)
        .map(|c| (0..f * f).map(|i| ((i + c) % 16) as u64).collect())
        .collect();

    let mut prog = Program::new();
    let x = prog.input("channels");
    let mut acc = None;
    for tap in conv_taps(&weights, 0, in_ch, f, w) {
        let mask: Vec<f64> = (0..width)
            .map(|j| {
                let ch = (j / layout.stride()) % in_ch;
                tap.channel_weights.get(ch).copied().unwrap_or(0) as f64
            })
            .collect();
        let c = prog.constant(&mask);
        let rot = if tap.shift == 0 {
            x
        } else {
            prog.rotate(x, tap.shift)
        };
        let term = prog.mul_plain(rot, c);
        acc = Some(match acc {
            None => term,
            Some(a) => prog.add(a, term),
        });
    }
    let mut folded = acc.unwrap_or(x);
    let mut step = 1usize;
    while step < in_ch {
        let r = prog.rotate(folded, (step * layout.stride()) as i64);
        folded = prog.add(folded, r);
        step <<= 1;
    }
    prog.output(folded);
    prog
}

/// One encrypted PageRank iteration: the diagonal-method matvec against
/// the (server-plaintext) transition matrix, a plaintext damping multiply,
/// and the teleport-term plaintext add. Multiplicative depth 2 in
/// plaintext multiplies — within the waterline band of both paper chains.
pub fn pagerank_program(n: usize) -> Program {
    let mut prog = Program::new();
    let r = prog.input("ranks");
    let mut acc = None;
    for d in 0..n {
        let diag: Vec<f64> = (0..n).map(|j| 1.0 / ((j + d + 1) as f64)).collect();
        let c = prog.constant(&diag);
        let rot = if d == 0 { r } else { prog.rotate(r, d as i64) };
        let term = prog.mul_plain(rot, c);
        acc = Some(match acc {
            None => term,
            Some(a) => prog.add(a, term),
        });
    }
    let matvec = acc.unwrap_or(r);
    let damping = prog.constant(&vec![0.85; n]);
    let damped = prog.mul_plain(matvec, damping);
    let teleport = prog.constant(&vec![0.15 / n as f64; n]);
    let out = prog.add_plain(damped, teleport);
    prog.output(out);
    prog
}

/// Squared-distance kernel (point-major packing): ciphertext subtract,
/// ciphertext square, then the three rotation groups of
/// [`distance_rotation_steps`] — the in-block fold, the collapse shifts,
/// and the stacked-dimension band folds. Multiplicative depth 1 (the only
/// ciphertext×ciphertext multiply in the suite).
pub fn distance_program(dims: usize, n_points: usize, slots: usize) -> Program {
    let stride = dims.next_power_of_two();
    let mut prog = Program::new();
    let q = prog.input("query");
    let p = prog.input("points");
    let d = prog.sub(q, p);
    let sq = prog.mul(d, d);

    let mut acc = sq;
    let mut step = 1usize;
    while step < stride {
        let r = prog.rotate(acc, step as i64);
        acc = prog.add(acc, r);
        step <<= 1;
    }
    for b in 1..n_points {
        let r = prog.rotate(acc, (b * stride - b) as i64);
        acc = prog.add(acc, r);
    }
    let per_ct = dims_per_ciphertext(n_points, slots).min(dims);
    let mut band = 1usize;
    while band < per_ct {
        let r = prog.rotate(acc, (band * n_points) as i64);
        acc = prog.add(acc, r);
        band <<= 1;
    }
    prog.output(acc);
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco::compiler::{compile, CompilerOptions};
    use choco::linalg::matvec_hybrid_shape;

    fn opts() -> CompilerOptions {
        CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        }
    }

    #[test]
    fn every_workload_compiles_and_requests_only_advertised_rotations() {
        for w in all_workloads() {
            let compiled = compile(&w.program, &opts())
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
            let requested = compiled.rotation_steps();
            assert!(!requested.is_empty(), "{}: no rotations", w.name);
            for s in requested {
                assert!(
                    w.galois_steps.contains(&s),
                    "{}: rotation {s} not in the provisioning list",
                    w.name
                );
            }
        }
    }

    #[test]
    fn the_executor_fuses_exactly_the_dot_chain_of_each_workload() {
        // A chain of m terms over one ciphertext — the diagonals of a
        // matvec, the tap sum of a convolution — is one group covering its
        // m − 1 adds, m products, m rescales and m − 1 rotations. The FC
        // matvec's and the conv layer's two folds each, and every rotation
        // of the distance kernel, rotate the running accumulator and stay
        // nodes.
        let spec = LenetLikeSpec::tiny();
        let (depth, folds) = matvec_hybrid_shape(spec.classes, spec.fc_inputs());
        assert_eq!((depth, folds), (4, vec![8, 4]));
        let want = [
            ("pipeline", 1, 4 * depth - 2),
            ("dnn_conv", 1, 4 * 9 - 2),
            ("pagerank", 1, 4 * 8 - 2),
            ("distance", 0, 0),
        ];
        for (w, (name, groups, nodes)) in all_workloads().iter().zip(want) {
            assert_eq!(w.name, name);
            let compiled = compile(&w.program, &opts()).unwrap();
            assert_eq!(
                (compiled.fused_groups(), compiled.fused_nodes()),
                (groups, nodes),
                "{name}"
            );
        }
    }

    #[test]
    fn workload_programs_execute_plain() {
        // The IR twins are real programs, not just rotation manifests:
        // plaintext execution must succeed on shape-matched inputs.
        let mut inputs = std::collections::HashMap::new();
        for name in ["x", "channels", "ranks", "query", "points"] {
            let v: Vec<f64> = (0..16).map(|i| i as f64 * 0.1).collect();
            inputs.insert(name.to_string(), v);
        }
        for w in all_workloads() {
            let compiled = compile(&w.program, &opts()).unwrap();
            let out = compiled
                .execute_plain(&inputs)
                .unwrap_or_else(|e| panic!("{}: execute_plain failed: {e}", w.name));
            assert_eq!(out.len(), 1, "{}: one output expected", w.name);
        }
    }
}
