//! Micro-benches for CKKS primitives (the PageRank/KNN substrate; §4.7's
//! encode/decode costs).

use std::hint::black_box;

use choco_bench::{bench, bench_group};
use choco_he::ckks::CkksContext;
use choco_he::params::HeParams;
use choco_prng::Blake3Rng;

fn main() {
    bench_group("ckks_set_c");
    let params = HeParams::set_c();
    let ctx = CkksContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench ckks");
    let keys = ctx.keygen(&mut rng);
    let pk = ctx.public_key(keys.secret_key(), &mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng);
    let gks = ctx.galois_keys(keys.secret_key(), &[1], &mut rng).unwrap();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i as f64 * 0.01).sin())
        .collect();
    let pt = ctx.encode(&values).unwrap();
    let ct = ctx.encrypt(&pt, &pk, &mut rng).unwrap();

    bench("encode", || ctx.encode(black_box(&values)).unwrap());
    let mut enc_rng = Blake3Rng::from_seed(b"bench ckks encrypt");
    bench("encrypt", || {
        ctx.encrypt(black_box(&pt), &pk, &mut enc_rng).unwrap()
    });
    bench("decrypt_decode", || {
        ctx.decode(&ctx.decrypt(black_box(&ct), keys.secret_key()))
    });
    bench("multiply_relin", || {
        ctx.multiply_relin(black_box(&ct), &ct, &rk).unwrap()
    });
    bench("rotate", || ctx.rotate(black_box(&ct), 1, &gks).unwrap());
}
