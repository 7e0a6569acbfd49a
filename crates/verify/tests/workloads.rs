//! Acceptance: all four paper workloads verify clean at the paper's
//! parameter sets (Table 3) — the same checks the `choco-verify` CLI and
//! the ci.sh gate run.

use choco::compiler::{compile, CompilerOptions};
use choco_apps::circuits::all_workloads;
use choco_he::params::HeParams;
use choco_verify::{verify, VerifyOptions};

#[test]
fn all_workloads_verify_under_set_a_bfv() {
    let params = HeParams::set_a();
    for w in all_workloads() {
        let opts = VerifyOptions::for_params(&params).with_galois_steps(&w.galois_steps);
        let report = verify(&w.program.to_circuit(), &opts)
            .unwrap_or_else(|e| panic!("{} rejected under set A: {e}", w.name));
        assert!(report.is_clean());
        // The noise rule was genuinely armed, not vacuously skipped.
        assert!(report.rows.iter().any(|r| r.state.noise_bits > 0.0));
    }
}

#[test]
fn all_workloads_verify_under_set_c_ckks() {
    let params = HeParams::set_c();
    let copts = CompilerOptions {
        scale_bits: params.scale_bits(),
        prime_bits: params.prime_bits().first().copied().unwrap_or(0),
        max_levels: params.data_prime_count(),
    };
    for w in all_workloads() {
        let compiled = compile(&w.program, &copts)
            .unwrap_or_else(|e| panic!("{} fails to compile for set C: {e}", w.name));
        let opts = VerifyOptions::for_params(&params).with_galois_steps(&w.galois_steps);
        let report = verify(&compiled.to_circuit(), &opts)
            .unwrap_or_else(|e| panic!("{} rejected under set C: {e}", w.name));
        assert!(report.is_clean());
        // The scheduled circuit really carries compiler claims.
        assert!(compiled.to_circuit().is_scheduled());
    }
}

#[test]
fn set_b_budget_discriminates_between_workloads() {
    // Paper set B is the tight 4096-degree BFV chain (53-bit budget),
    // sized for single shallow kernels: the conv layer and the FC's hybrid
    // matvec (4 diagonals + 2 folds; the 16 full diagonals it replaced did
    // not) fit, while the double plain-multiply of a PageRank iteration and
    // the ct×ct distance square exceed the worst-case bound — and the
    // *only* rule that fires is the noise budget. Evidence the bound is
    // discriminating, not vacuously loose.
    use choco_verify::RuleId;
    let params = HeParams::set_b();
    for w in all_workloads() {
        let opts = VerifyOptions::for_params(&params).with_galois_steps(&w.galois_steps);
        let result = verify(&w.program.to_circuit(), &opts);
        if ["dnn_conv", "pipeline"].contains(&w.name) {
            result.unwrap_or_else(|e| panic!("{} rejected under set B: {e}", w.name));
        } else {
            let Err(err) = result else {
                panic!("{} must exceed set B's budget", w.name)
            };
            assert!(
                err.diagnostics.iter().all(|d| d.rule == RuleId::Noise001),
                "{}: only the noise rule should fire: {err}",
                w.name
            );
        }
    }
}
