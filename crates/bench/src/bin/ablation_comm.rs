//! Ablation: client-communication optimizations beyond the paper's
//! baseline accounting — seed-compressed symmetric uploads (c1 replaced by
//! a 32-byte PRNG seed, the form every runtime upload takes) and
//! modulus-switched downloads (the residues the runtime drops from every
//! BFV program output where the parameter set licenses it). Quantifies how
//! much further the CHOCO communication column of Table 5 shrinks.

#![forbid(unsafe_code)]
use choco_apps::dnn::{client_aided_plan, Network};
use choco_bench::{header, note};
use choco_he::bfv::BfvContext;
use choco_he::params::HeParams;

fn main() {
    header("Ablation: upload seeding + download modulus switching");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "Network", "baseline", "+seeded up", "+modswitch", "both", "saving"
    );
    for net in Network::all() {
        let params = if net.dataset == "MNIST" {
            HeParams::set_b()
        } else {
            HeParams::set_a()
        };
        let ct = params.ciphertext_bytes() as u64;
        let k_data = params.data_prime_count() as u64;
        let plan = client_aided_plan(&net, &params);
        let (ups, downs) = (plan.encryptions, plan.decryptions);

        let baseline = (ups + downs) * ct;
        // A compact upload: c0, the 32-byte seed and one word per modulus.
        let compact = ct / 2 + 32 + 8 * k_data;
        let seeded_up = ups * compact + downs * ct;
        // A download keeps the residues the runtime licenses.
        let kept = BfvContext::new(&params).map_or(k_data, |c| c.download_level() as u64);
        let switched = downs * ct * kept / k_data;
        let switched_down = ups * ct + switched;
        let both = ups * compact + switched;
        println!(
            "{:<8} {:>8.2}MB {:>10.2}MB {:>10.2}MB {:>10.2}MB {:>7.0}%",
            net.name,
            baseline as f64 / 1e6,
            seeded_up as f64 / 1e6,
            switched_down as f64 / 1e6,
            both as f64 / 1e6,
            (1.0 - both as f64 / baseline as f64) * 100.0,
        );
    }
    note("+seeded up is the runtime's upload: HeScheme::encrypt is the seeded symmetric encryption, billed as its compact frame");
    note("+modswitch is the runtime's download: every BFV program output leaves at BfvContext::download_level, one residue of two at set A; set B licenses no switch, so the MNIST rows keep their baseline downloads");
    note("they compose with rotational redundancy: at set A both halve their direction, cutting Table 5 totals by ~50%");
}
