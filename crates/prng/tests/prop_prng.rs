//! Property-based tests for the BLAKE3 implementation and samplers
//! (deterministic quickprop harness).

use choco_prng::blake3::{hash, Hasher};
use choco_prng::csprng::Blake3Rng;
use choco_prng::sampler::{
    sample_error_signed, sample_ternary_signed, sample_uniform, ERROR_BOUND, ERROR_STDDEV,
};
use choco_quickprop::run_cases;

#[test]
fn incremental_hashing_is_chunking_invariant() {
    run_cases("chunking invariance", 32, |g| {
        let data = g.bytes(4096);
        let split = g.u64_below(4096) as usize;
        let oneshot = hash(&data);
        let cut = split.min(data.len());
        let mut h = Hasher::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize(), oneshot);
    });
}

#[test]
fn distinct_inputs_distinct_digests() {
    run_cases("distinct digests", 32, |g| {
        let a = g.bytes(256);
        let b = g.bytes(256);
        if a == b {
            return; // discard collisions in the input generator
        }
        assert_ne!(hash(&a), hash(&b));
    });
}

#[test]
fn xof_prefixes_are_consistent() {
    run_cases("xof prefix consistency", 32, |g| {
        let data = g.bytes(512);
        let len = g.usize_in(1, 200);
        let mut h = Hasher::new();
        h.update(&data);
        let mut long = vec![0u8; 256];
        h.finalize_xof(&mut long);
        let mut short = vec![0u8; len];
        h.finalize_xof(&mut short);
        assert_eq!(&short[..], &long[..len]);
    });
}

#[test]
fn rng_streams_are_seed_determined() {
    run_cases("seed-determined streams", 32, |g| {
        let seed = g.array_u8::<16>();
        let mut a = Blake3Rng::from_seed(&seed);
        let mut b = Blake3Rng::from_seed(&seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}

#[test]
fn bounded_sampling_honors_any_bound() {
    run_cases("bounded sampling", 32, |g| {
        let seed = g.array_u8::<8>();
        let bound = g.u64_in(1, u64::MAX);
        let mut rng = Blake3Rng::from_seed(&seed);
        for _ in 0..8 {
            assert!(rng.next_below(bound) < bound);
        }
    });
}

#[test]
fn samplers_stay_in_their_supports() {
    run_cases("sampler supports", 32, |g| {
        let seed = g.array_u8::<8>();
        let mut rng = Blake3Rng::from_seed(&seed);
        for v in sample_ternary_signed(&mut rng, 256) {
            assert!((-1..=1).contains(&v));
        }
        for e in sample_error_signed(&mut rng, 256) {
            assert!(e.abs() <= ERROR_BOUND);
        }
    });
}

/// The per-draw samplers the bulk ones replaced: one `next_below` /
/// `next_f64` call per draw, straight off the generator.
fn ternary_per_draw(rng: &mut Blake3Rng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| match rng.next_below(3) {
            0 => 0,
            1 => 1,
            _ => -1,
        })
        .collect()
}

fn error_per_draw(rng: &mut Blake3Rng, n: usize) -> Vec<i64> {
    (0..n)
        .map(|_| loop {
            let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let e = (z * ERROR_STDDEV).round() as i64;
            if e.abs() <= ERROR_BOUND {
                break e;
            }
        })
        .collect()
}

fn uniform_per_draw(rng: &mut Blake3Rng, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.next_below(q)).collect()
}

#[test]
fn bulk_samplers_draw_what_the_per_draw_loops_draw() {
    // Values and stream position after each sampler, interleaved as an
    // encryption interleaves them; the bound 2^62 + 1 rejects about one
    // word in four.
    run_cases("bulk == per-draw", 8, |g| {
        let seed = g.array_u8::<16>();
        let q = (1u64 << 62) + 1;
        for n in [1usize, 3, 1024, 8192] {
            let mut bulk = Blake3Rng::from_seed(&seed);
            let mut per_draw = Blake3Rng::from_seed(&seed);
            assert_eq!(
                sample_ternary_signed(&mut bulk, n),
                ternary_per_draw(&mut per_draw, n)
            );
            assert_eq!(bulk.bytes_drawn(), per_draw.bytes_drawn());
            assert_eq!(
                sample_error_signed(&mut bulk, n),
                error_per_draw(&mut per_draw, n)
            );
            assert_eq!(bulk.bytes_drawn(), per_draw.bytes_drawn());
            assert_eq!(
                sample_uniform(&mut bulk, n, q),
                uniform_per_draw(&mut per_draw, n, q)
            );
            assert_eq!(bulk.bytes_drawn(), per_draw.bytes_drawn());
            assert_eq!(bulk.next_u64(), per_draw.next_u64());
        }
    });
}
