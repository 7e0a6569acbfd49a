//! The EVA-style compiler in action: author an encrypted-vector program,
//! optimize it, compile it (automatic rescale/mod-switch insertion), and
//! run it on real CKKS ciphertexts — checking against the plaintext
//! executor.
//!
//! ```sh
//! cargo run --release --example eva_compiler
//! ```

use choco::compiler::{compile, optimize, CompilerOptions, Program};
use choco_he::ckks::CkksContext;
use choco_he::params::HeParams;
use choco_he::Ckks;
use choco_prng::Blake3Rng;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A smoothed finite-difference kernel with a squared non-linearity:
    //   y = (w ⊙ (x + rot(x,1) + rot(x,-1)))², then + x·x (written twice to
    // show CSE earning its keep).
    let mut p = Program::new();
    let x = p.input("x");
    let l = p.rotate(x, 1);
    let r = p.rotate(x, -1);
    let s1 = p.add(x, l);
    let s = p.add(s1, r);
    let w = p.constant(&[1.0 / 3.0; 8]);
    let smooth = p.mul_plain(s, w);
    let sq = p.mul(smooth, smooth);
    let xx1 = p.mul(x, x);
    let xx2 = p.mul(x, x); // duplicate on purpose
    let both = p.add(xx1, xx2);
    let y = p.add(sq, both);
    p.output(y);

    println!("source program: {} nodes", p.len());
    let opt = optimize(&p);
    println!("after CSE:      {} nodes", opt.len());

    // Uniform 40-bit rescale chain matching the 2^40 waterline: every
    // rescale lands scales back at the waterline, so differently-deep
    // branches stay addable (EVA's standard configuration).
    let params = HeParams::ckks(8192, &[40, 40, 40, 59], 40)?;
    let ctx = CkksContext::new(&params)?;
    let copts = CompilerOptions {
        scale_bits: 40,
        prime_bits: 40,
        max_levels: ctx.top_level(),
    };
    let compiled = compile(&opt, &copts)?;
    println!(
        "compiled: {} ops ({} ct-mults, {} pt-mults, {} rotations, {} rescales, {} mod-switches); needs {} levels",
        compiled.len(),
        compiled.counts.ct_mults,
        compiled.counts.pt_mults,
        compiled.counts.rotations,
        compiled.counts.rescales,
        compiled.counts.mod_switches,
        compiled.required_levels,
    );

    // Keys sized by what the compiler says it needs.
    let mut rng = Blake3Rng::from_seed(b"eva example");
    let keys = ctx.keygen(&mut rng);
    let relin = ctx.relin_key(keys.secret_key(), &mut rng);
    let galois = ctx.galois_keys(keys.secret_key(), &compiled.rotation_steps, &mut rng)?;

    let x_vals: Vec<f64> = (0..8).map(|i| (i as f64) / 4.0 - 1.0).collect();
    let mut plain_inputs = HashMap::new();
    plain_inputs.insert("x".to_string(), {
        let mut v = x_vals.clone();
        v.resize(ctx.slot_count(), 0.0);
        v
    });
    let expected = compiled.execute_plain(&plain_inputs)?;

    let mut enc_inputs = HashMap::new();
    let pt = ctx.encode(&x_vals)?;
    enc_inputs.insert(
        "x".to_string(),
        ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng)?,
    );
    let out_ct = compiled.execute_encrypted::<Ckks>(&ctx, &enc_inputs, &relin, &galois)?;
    let got = ctx.decode(&ctx.decrypt(&out_ct[0], keys.secret_key()));

    println!("\nslot | encrypted | plaintext reference");
    for i in 0..8 {
        println!("{i:>4} | {:>9.5} | {:>9.5}", got[i], expected[0][i]);
        assert!((got[i] - expected[0][i]).abs() < 1e-2);
    }
    println!("\nencrypted execution matches the plaintext executor ✓");
    Ok(())
}
