//! Proof of the `PolyPool` steady-state property: once the evaluator is
//! warm, the kernel hot path (ct×ct multiply, key switching, rotations,
//! fused rotation dot products under both schemes — one output, eight over
//! shared rotations, and three over 34 terms, two chunks —, decryption) and the client's round
//! (encrypt → decrypt → noise budget, and a reply compressed, decoded and
//! decrypted, under BFV; encrypt → decrypt → decode under CKKS) perform
//! **zero fresh
//! polynomial-buffer allocations** — every row and scratch buffer is served
//! from the pool's free lists. The pool's global counters make this directly
//! observable: over a warm evaluation loop, `fresh` must not move while
//! `reused` must — on the plain-loop path (one thread) and through the `par`
//! pool (two).
//!
//! Scope note: "zero-alloc" is a statement about polynomial buffers (the
//! `Vec<u64>` rows and `Vec<u128>` accumulators that dominate steady-state
//! traffic), not about every allocation in the process. Small bookkeeping
//! allocations — ciphertext part vectors, the plaintext a decryption
//! returns, a sampler's byte buffer, a composition's
//! limb buffer — are outside the pool by design (see DESIGN.md §12).

use choco_he::bfv::BfvContext;
use choco_he::ckks::CkksContext;
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_math::par;
use choco_math::pool::PolyPool;
use choco_prng::Blake3Rng;

#[test]
fn warm_evaluation_loop_allocates_no_polynomial_buffers() {
    // ---- BFV: keyswitch → rotations → matvec-style fused dot ----
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"zero-alloc-bfv");
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let steps = [1i64, 2, 3];
    let gks = ctx
        .galois_keys(keys.secret_key(), &steps, &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let t = ctx.plain_modulus();
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % t).collect();
    let pt = encoder.encode(&values).unwrap();
    let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
    let eval = ctx.evaluator();
    let dec = ctx.decryptor(keys.secret_key());
    let diagonals: Vec<(i64, Vec<u64>)> = [0i64, 1, 2]
        .iter()
        .map(|&s| {
            let w: Vec<u64> = (0..ctx.degree() as u64)
                .map(|i| (i + s as u64) % 8)
                .collect();
            (s, w)
        })
        .collect();

    // A conv layer's pass: 8 output channels over the same three rotations.
    let operands: Vec<Vec<_>> = diagonals
        .iter()
        .map(|(_, w)| {
            let pt = encoder.encode(w).unwrap();
            (0..8).map(|_| eval.dot_operand(&pt).unwrap()).collect()
        })
        .collect();

    // A dot past one chunk of terms: 34 terms cycling through the keyed
    // steps and the identity, 3 outputs.
    let long_operands: Vec<Vec<_>> = (0..4u64)
        .map(|k| {
            (0..3u64)
                .map(|o| {
                    let w: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * k + o) % 8).collect();
                    eval.dot_operand(&encoder.encode(&w).unwrap()).unwrap()
                })
                .collect()
        })
        .collect();

    let bfv_round = |out: &mut u64| {
        // ct·ct multiply (base conversions in and out of the tensor
        // basis) + relinearization (key switch).
        let relin = eval.multiply_relin(&ct, &ct, &rk).unwrap();
        // Rotations, one key switch each.
        let rots: Vec<_> = steps
            .iter()
            .map(|&s| eval.rotate_rows(&relin, s, &gks).unwrap())
            .collect();
        // Matvec kernel: the double-hoisted rotation dot product, operands
        // encoded on the way in.
        let fused = Bfv::dot_diagonals(&ctx, &ct, &diagonals, &gks).unwrap();
        let terms = diagonals
            .iter()
            .zip(&operands)
            .map(|((s, _), ops)| Ok((*s, ops)));
        let layer = eval.dot_rotations_many(&ct, 8, terms, &gks).unwrap();
        let long_terms = (0..34).map(|k| Ok((k as i64 % 4, &long_operands[k % 4])));
        let long = eval.dot_rotations_many(&ct, 3, long_terms, &gks).unwrap();
        // Client side: decrypt the reply.
        let reply = dec.decrypt(&fused);
        // Keep results observable so nothing is optimised away.
        *out ^= rots[0].part(0).row(0)[0]
            ^ reply.coeffs()[0]
            ^ layer[7].part(1).row(0)[0]
            ^ long[2].part(0).row(0)[0];
    };

    // ---- CKKS: multiply+relin (keyswitch) → rescale → rotations → fused dot ----
    let cparams = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
    let cctx = CkksContext::new(&cparams).unwrap();
    let mut crng = Blake3Rng::from_seed(b"zero-alloc-ckks");
    let ckeys = cctx.keygen(&mut crng);
    let crk = cctx.relin_key(ckeys.secret_key(), &mut crng);
    let cgks = cctx
        .galois_keys(ckeys.secret_key(), &[1, 2], &mut crng)
        .unwrap();
    let vals: Vec<f64> = (0..cctx.slot_count())
        .map(|i| (i % 7) as f64 / 8.0)
        .collect();
    let cpt = cctx.encode(&vals).unwrap();
    let cct = cctx
        .encrypt_symmetric(&cpt, ckeys.secret_key(), &mut crng)
        .unwrap();

    let diagonals: Vec<(i64, Vec<f64>)> = [0i64, 1, 2]
        .iter()
        .map(|&s| (s, vals.iter().map(|v| v * 0.5 + s as f64).collect()))
        .collect();

    let ckks_round = |out: &mut u64| {
        let prod = cctx.multiply_relin(&cct, &cct, &crk).unwrap();
        let scaled = cctx.rescale(&prod).unwrap();
        let r1 = cctx.rotate(&scaled, 1, &cgks).unwrap();
        let r2 = cctx.rotate(&r1, 2, &cgks).unwrap();
        // The shared double-hoisted dot, operands encoded on the way in.
        let dot = Ckks::dot_diagonals(&cctx, &cct, &diagonals, &cgks).unwrap();
        *out ^= r2.part(0).row(0)[0] ^ dot.part(0).row(0)[0];
    };

    // ---- the client's round: what a session pays per upload and download ----
    let mut client_rng = Blake3Rng::from_seed(b"zero-alloc-client");
    let slots: Vec<u64> = (0..ctx.degree() as u64 / 2).map(|i| i % 7).collect();
    let client_round = |out: &mut u64, rng: &mut Blake3Rng| {
        let up = Bfv::encrypt(&ctx, &keys, &slots, rng).unwrap();
        let back = Bfv::decrypt(&ctx, &keys, &up).unwrap();
        let health = Bfv::health(&ctx, &keys, &up);
        // A reply: compressed by the server, decoded (lifted) and decrypted.
        let wire = Bfv::ct_to_wire(&ctx.compress_reply(&up).unwrap());
        let reply = Bfv::decrypt(&ctx, &keys, &Bfv::ct_from_wire(&wire).unwrap()).unwrap();
        let cup = Ckks::encrypt(&cctx, &ckeys, &vals, rng).unwrap();
        let cback = Ckks::decrypt(&cctx, &ckeys, &cup).unwrap();
        *out ^= back[1] ^ health.to_bits() ^ cback[1].to_bits() ^ reply[1];
    };

    // The property must hold on the plain-loop path and through the `par`
    // pool alike: standing workers keep their home shards, and a take that
    // misses at home finds what another thread recycled.
    let mut sink = 0u64;
    for threads in [1usize, 2] {
        par::set_num_threads(threads);
        if threads > 1 {
            // A task that runs beside another needs its scratch while the
            // other still holds its own, so the high-water mark depends on
            // which chunks happen to overlap. Stock one spare working set
            // per size class the loop uses (both contexts share one degree)
            // up front; what is asserted is then schedule-independent. The
            // stock only adds buffers beyond what the one-thread pass left
            // behind, so it has to be larger than the loop's biggest
            // simultaneous hold — the 8-output dot's 80 rows of sums.
            let n = ctx.degree();
            assert_eq!(n, cctx.degree());
            let spare: Vec<_> = (0..128)
                .map(|_| (PolyPool::take_scratch(n), PolyPool::take_zeroed_u128(n)))
                .collect();
            for (row, acc) in spare {
                PolyPool::recycle(row);
                PolyPool::recycle_u128(acc);
            }
            // A base conversion leases one `(1 + k)·n` row block (k source
            // primes: the multiply's lifts and scales, a decryption's and a
            // reply's roundings), and the per-component tasks run two of
            // them side by side, so those classes get a spare set too.
            let blocks: Vec<_> = (2..=4)
                .flat_map(|rows| (0..4).map(move |_| PolyPool::take_scratch(rows * n)))
                .collect();
            for block in blocks {
                PolyPool::recycle(block);
            }
            // A fused dot's tile task leases a `2n` block of `u128` sums
            // (and a `2n` scratch block, stocked above), two tasks side by
            // side.
            let sums: Vec<_> = (0..4).map(|_| PolyPool::take_zeroed_u128(2 * n)).collect();
            for block in sums {
                PolyPool::recycle_u128(block);
            }
        }
        // Warm the pool: the first passes populate every size class the
        // loop touches.
        for _ in 0..2 {
            bfv_round(&mut sink);
            ckks_round(&mut sink);
            client_round(&mut sink, &mut client_rng);
        }

        let before = PolyPool::stats();
        for _ in 0..8 {
            bfv_round(&mut sink);
            ckks_round(&mut sink);
            client_round(&mut sink, &mut client_rng);
        }
        let after = PolyPool::stats();

        assert_eq!(
            after.fresh - before.fresh,
            0,
            "warm evaluation loop hit the allocator for polynomial buffers at {threads} \
             thread(s) (fresh {} -> {}, reused {} -> {})",
            before.fresh,
            after.fresh,
            before.reused,
            after.reused
        );
        assert!(
            after.reused > before.reused,
            "warm loop should be served from the pool (reused {} -> {})",
            before.reused,
            after.reused
        );
        assert!(
            after.recycled > before.recycled,
            "warm loop should return buffers to the pool"
        );
    }
    par::set_num_threads(0);
    assert!(sink != u64::MAX, "keep the results alive");
}
