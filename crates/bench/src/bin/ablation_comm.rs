//! Ablation: client-communication optimizations beyond the paper's
//! baseline accounting — seed-compressed symmetric uploads (c1 replaced by
//! a 32-byte PRNG seed, the form every runtime upload takes) and
//! compressed replies (every BFV program output rounded to
//! `BfvContext::reply_widths` bits a component, the form every runtime
//! download takes). Quantifies how much further the CHOCO communication
//! column of Table 5 shrinks.

#![forbid(unsafe_code)]
use choco_apps::dnn::{client_aided_plan, Network};
use choco_bench::{header, note};
use choco_he::bfv::BfvContext;
use choco_he::params::HeParams;
use choco_he::{Bfv, HeScheme};
use choco_prng::Blake3Rng;

/// The bytes `Bfv::ct_bytes` bills for a real compressed reply at `params`.
fn reply_bytes(params: &HeParams) -> u64 {
    let ctx = BfvContext::new(params).expect("paper BFV set");
    let mut rng = Blake3Rng::from_seed(b"ablation comm reply");
    let keys = Bfv::keygen(&ctx, &mut rng);
    let ct = Bfv::encrypt(&ctx, &keys, &[0], &mut rng).expect("encrypt");
    Bfv::ct_bytes(&ctx.compress_reply(&ct).expect("compress")) as u64
}

fn main() {
    header("Ablation: upload seeding + reply compression");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "Network", "baseline", "+seeded up", "+compressed", "both", "saving"
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
        let replies = downs * reply_bytes(&params);
        let compressed_down = ups * ct + replies;
        let both = ups * compact + replies;
        println!(
            "{:<8} {:>8.2}MB {:>10.2}MB {:>10.2}MB {:>10.2}MB {:>7.0}%",
            net.name,
            baseline as f64 / 1e6,
            seeded_up as f64 / 1e6,
            compressed_down as f64 / 1e6,
            both as f64 / 1e6,
            (1.0 - both as f64 / baseline as f64) * 100.0,
        );
    }
    note("+seeded up is the runtime's upload: HeScheme::encrypt is the seeded symmetric encryption, billed as its compact frame");
    note("+compressed is the runtime's download: Bfv::ct_bytes of a real compressed reply, (k0, k1) = (29, 41) bits a coefficient at set B and (34, 47) at set A, lifted over BfvContext::download_level");
    note("the baseline and the seeded column bill Table 3's 8-byte residues; the reply column bills its packed frame");
}
