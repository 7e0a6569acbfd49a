//! The 8-lane BLAKE3 paths against their one-block-at-a-time scalar twins,
//! byte for byte: whole-chunk hashing in `Hasher::update` (plain and keyed,
//! any update splits) and XOF output in groups of eight blocks (one-shot,
//! streamed in pieces, and seeked with `skip`).
//!
//! The official vectors stop at 31,744 bytes of input and 96 bytes of
//! output; these cover what lies past them. Under `CHOCO_SIMD=0` both sides
//! run the scalar code, which is the other half of the CI matrix.

use choco_prng::blake3::Hasher;
use choco_prng::csprng::Blake3Rng;
use choco_quickprop::{run_cases, Gen};

const MAX_LEN: usize = 40 * 1024;

/// `data` hashed in the pieces `cuts` marks (sorted offsets into it).
fn digest(mut h: Hasher, data: &[u8], cuts: &[usize], xof_len: usize) -> ([u8; 32], Vec<u8>) {
    let mut at = 0;
    for &cut in cuts.iter().chain([&data.len()]) {
        h.update(&data[at..cut]);
        at = cut;
    }
    let mut xof = vec![0u8; xof_len];
    h.finalize_xof(&mut xof);
    (h.finalize(), xof)
}

fn random_cuts(g: &mut Gen, len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..g.usize_in(0, 6))
        .map(|_| g.usize_in(0, len + 1))
        .collect();
    // Cuts on the chunk grid and one byte past it, where the wide path
    // starts or is refused.
    if len > 1024 && g.bool_with(0.5) {
        let chunk = 1024 * g.usize_in(1, len / 1024 + 1);
        cuts.push((chunk + g.usize_in(0, 2)).min(len));
    }
    cuts.sort_unstable();
    cuts
}

fn assert_twins(data: &[u8], cuts: &[usize], key: Option<&[u8; 32]>, ctx: &str) {
    let make = || key.map_or_else(Hasher::new, Hasher::new_keyed);
    let wide = digest(make(), data, cuts, 1100);
    let scalar = digest(make().scalar(), data, cuts, 1100);
    assert_eq!(wide.0, scalar.0, "digest: {ctx}");
    assert_eq!(wide.1, scalar.1, "xof: {ctx}");
}

#[test]
fn hasher_matches_its_scalar_twin_at_every_chunk_boundary() {
    // Every `1024·k ± 0/1` up to 40 KiB, so every `8·1024·k ± 0/1` too:
    // exactly eight chunks with nothing after them must not go wide.
    let data: Vec<u8> = (0..MAX_LEN + 1).map(|i| (i % 251) as u8).collect();
    let key = [0x5a; 32];
    for k in 0..=MAX_LEN / 1024 {
        for len in [(1024 * k).saturating_sub(1), 1024 * k, 1024 * k + 1] {
            let data = &data[..len.min(MAX_LEN)];
            for cuts in [vec![], vec![9], vec![1024], vec![1023, 8193]] {
                let cuts: Vec<usize> = cuts.into_iter().filter(|&c| c <= data.len()).collect();
                for key in [None, Some(&key)] {
                    let ctx = format!("len {} cuts {cuts:?} keyed {}", data.len(), key.is_some());
                    assert_twins(data, &cuts, key, &ctx);
                }
            }
        }
    }
}

#[test]
fn hasher_matches_its_scalar_twin_on_random_inputs_and_splits() {
    run_cases("wide hasher twin", 48, |g| {
        let len = g.usize_in(0, MAX_LEN + 1);
        let data: Vec<u8> = (0..len).map(|_| g.u8()).collect();
        let cuts = random_cuts(g, len);
        let key = g.bool_with(0.5).then(|| g.array_u8::<32>());
        let ctx = format!("len {len} cuts {cuts:?} keyed {}", key.is_some());
        assert_twins(&data, &cuts, key.as_ref(), &ctx);
    });
}

#[test]
fn rng_matches_its_scalar_twin_under_fills_and_skips() {
    run_cases("wide rng twin", 48, |g| {
        let seed = g.array_u8::<16>();
        let mut wide = Blake3Rng::from_seed(&seed);
        let mut scalar = Blake3Rng::from_seed(&seed).scalar();
        for step in 0..g.usize_in(1, 24) {
            if g.bool_with(0.3) {
                // Within a group, across a few, far away, and to just
                // before byte 2^38, where output block 2^32 starts and the
                // block counter needs its high word.
                let n = match g.usize_in(0, 4) {
                    0 => g.u64_below(512),
                    1 => g.u64_below(4096),
                    2 => g.u64_below(1 << 40),
                    _ => ((1 << 38) - g.u64_below(4096)).saturating_sub(wide.bytes_drawn()),
                };
                wide.skip(n);
                scalar.skip(n);
            } else {
                let len = match g.usize_in(0, 3) {
                    0 => g.usize_in(0, 64),
                    1 => g.usize_in(0, 1100),
                    _ => g.usize_in(0, 5000),
                };
                let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                wide.fill_bytes(&mut a);
                scalar.fill_bytes(&mut b);
                assert_eq!(a, b, "step {step}: fill of {len}");
            }
            assert_eq!(wide.bytes_drawn(), scalar.bytes_drawn(), "step {step}");
        }
    });
}
