//! Micro-benches for the BFV primitive operations at the paper's parameter
//! sets (Table 1 measured, Figure 8's software column).

use std::hint::black_box;

use choco_bench::{bench, bench_group};
use choco_he::bfv::BfvContext;
use choco_he::params::HeParams;
use choco_prng::Blake3Rng;

fn main() {
    bench_group("bfv_set_b");
    let params = HeParams::set_b();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench bfv");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let values: Vec<u64> = (0..params.degree() as u64).map(|i| i % 16).collect();
    let pt = encoder.encode(&values).unwrap();
    let ct = ctx.encryptor(&pk).encrypt(&pt, &mut rng);
    let eval = ctx.evaluator();

    let mut enc_rng = Blake3Rng::from_seed(b"bench bfv encrypt");
    bench("encrypt", || {
        ctx.encryptor(&pk).encrypt(black_box(&pt), &mut enc_rng)
    });
    bench("decrypt", || {
        ctx.decryptor(keys.secret_key()).decrypt(black_box(&ct))
    });
    bench("add", || eval.add(black_box(&ct), &ct).unwrap());
    bench("multiply_plain", || {
        eval.multiply_plain(black_box(&ct), &pt)
    });
    bench("rotate_rows", || {
        eval.rotate_rows(black_box(&ct), 1, &gks).unwrap()
    });
    bench("multiply_relin", || {
        eval.multiply_relin(black_box(&ct), &ct, &rk).unwrap()
    });
}
