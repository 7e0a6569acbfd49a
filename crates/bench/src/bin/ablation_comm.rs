//! Ablation: client-communication optimizations beyond the paper's
//! baseline accounting — seed-compressed symmetric uploads (c1 replaced by
//! a 32-byte PRNG seed, the form every runtime upload takes) and
//! modulus-switched downloads (dropping a residue before the server
//! replies). Quantifies how much further the CHOCO communication column of
//! Table 5 shrinks.

#![forbid(unsafe_code)]
use choco_apps::dnn::{client_aided_plan, Network};
use choco_bench::{header, note};
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
        // Mod-switching drops one of k_data residues from each download.
        let switched_down = if k_data >= 2 {
            ups * ct + downs * ct * (k_data - 1) / k_data
        } else {
            baseline
        };
        let both = ups * compact
            + if k_data >= 2 {
                downs * ct * (k_data - 1) / k_data
            } else {
                downs * ct
            };
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
    note("+modswitch is implemented and tested in choco-he (mod_switch_to_next) but no served program ends in it yet");
    note("they compose with rotational redundancy: at k_data = 2 both halve their direction, cutting Table 5 totals by ~50%");
}
