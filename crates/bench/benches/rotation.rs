//! Bench contrasting the paper's two windowed-rotation paths (Figure 4 /
//! Table 4): rotational redundancy vs. masked permutation.

use std::hint::black_box;

use choco::rotation::{windowed_rotate_masked, windowed_rotate_redundant, RedundantLayout};
use choco_bench::{bench, bench_group};
use choco_he::bfv::BfvContext;
use choco_he::params::HeParams;
use choco_prng::Blake3Rng;

fn main() {
    bench_group("windowed_rotation_set_b");
    let params = HeParams::set_b();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench rot");
    let keys = ctx.keygen(&mut rng);
    let gks = ctx
        .galois_keys(keys.secret_key(), &[3, -13], &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let layout = RedundantLayout::new(16, 4);
    let values: Vec<u64> = (1..=16).collect();
    let ct_red = ctx.encrypt_symmetric(
        &encoder.encode(&layout.pack(&values)).unwrap(),
        keys.secret_key(),
        &mut rng,
    );
    let ct_plain = ctx.encrypt_symmetric(
        &encoder.encode(&values).unwrap(),
        keys.secret_key(),
        &mut rng,
    );

    bench("rotational_redundancy", || {
        windowed_rotate_redundant(&ctx, black_box(&ct_red), &layout, 3, &gks).unwrap()
    });
    bench("masked_permute_baseline", || {
        windowed_rotate_masked(&ctx, black_box(&ct_plain), 16, 3, &gks).unwrap()
    });
}
