//! RLWE noise and secret samplers.
//!
//! Three distributions cover everything BFV/CKKS encryption needs (Eq. 2 of
//! the paper: `u ← R_2` ternary, `e_1, e_2 ← χ` error):
//!
//! * uniform residues modulo `q` (public-key randomness; a division-free
//!   masked variant expands a ciphertext's mask from its seed),
//! * ternary coefficients in `{-1, 0, 1}` (secrets and encryption `u`),
//! * clipped centered normal with σ = 3.2 and tail cut at 6σ — the same
//!   error distribution SEAL uses.
//!
//! Every sampler draws in bulk: one XOF read of exactly the bytes the
//! samples still missing need (8 per uniform or ternary word, 16 per
//! Box–Muller pair), a parse of that buffer, and another read only for the
//! samples a rejection left short. The parses (`*_from_bytes`) apply the
//! per-draw rule (`csprng::word_below`, one Box–Muller attempt per pair)
//! word by word in stream order, and a read never asks for more
//! words than samples are missing, so the values and
//! [`Blake3Rng::bytes_drawn`] are exactly those of drawing one sample at a
//! time — the position a resumed session fast-forwards to.
//!
//! The error parse evaluates Box–Muller 64 pairs at a time with
//! `choco_math::simd::box_muller`, four lanes wide where the CPU has AVX2
//! and FMA, and rounds its approximation itself; a pair whose
//! approximation lies within `10^-7` of a half-integer (or whose `u1` word
//! is the zero draw) is rounded from libm's `ln`, `sqrt` and `cos`
//! instead, the expression every pair took before. The kernel is within
//! `10^-13` of that expression, so every value is the one libm rounds to.
//! Where the kernel does not run (a scalar backend, or no FMA) it leaves
//! no value, and every pair takes libm.

use crate::csprng::{unit_f64, word_below, Blake3Rng};
use choco_math::simd;

/// Standard deviation of the RLWE error distribution (SEAL default).
pub const ERROR_STDDEV: f64 = 3.2;

/// Error samples are clipped to ±6σ like SEAL's clipped normal.
pub const ERROR_BOUND: i64 = 19; // floor(6 * 3.2)

/// Bytes one draw of each sampler consumes.
const WORD: usize = 8;
const PAIR: usize = 16;

/// The little-endian 64-bit word of an 8-byte chunk.
// choco-lint: secret
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; WORD];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Values uniform in `[0, bound)` from a buffer of draws: one per 8-byte
/// word [`word_below`] accepts, in order (a trailing partial word is
/// ignored).
// choco-lint: secret (public: bound)
fn uniform_from_bytes(bytes: &[u8], bound: u64) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(WORD)
        .filter_map(move |w| word_below(word(w), bound))
}

/// Values uniform in `[0, bound)` from a buffer of draws by masked
/// rejection: each 8-byte word is cut to `bound`'s bit length and kept when
/// below `bound` — no division, at least half the words kept, nearly all for
/// a prime just below a power of two.
// choco-lint: secret (public: bound)
fn masked_from_bytes(bytes: &[u8], bound: u64) -> impl Iterator<Item = u64> + '_ {
    let mask = u64::MAX.checked_shr(bound.leading_zeros()).unwrap_or(0);
    bytes
        .chunks_exact(WORD)
        .map(move |w| word(w) & mask)
        // choco-lint: allow(SEC001) rejection sampling on fresh randomness
        .filter(move |&x| x < bound)
}

/// Ternary values from a buffer of draws: one per 8-byte word accepted
/// below 3, mapped `0 → 0`, `1 → 1`, `2 → −1` without a branch.
// choco-lint: secret
fn ternary_from_bytes(bytes: &[u8]) -> impl Iterator<Item = i8> + '_ {
    uniform_from_bytes(bytes, 3).map(|v| v as i8 - 3 * (v >> 1) as i8)
}

/// Half the width of the band around each half-integer where the kernel's
/// `z·σ` does not decide the rounding: 10^-7, six orders of magnitude
/// above the kernel's bound on its gap to libm (10^-13, DESIGN.md §12),
/// and a band a pair falls in about twice in 10^7 draws.
const GUARD: f64 = 1e-7;

/// Clipped-normal error values from a buffer of draws: one Box–Muller
/// attempt per 16-byte pair, kept unless it falls outside ±[`ERROR_BOUND`],
/// the values [`error_from_bytes_libm`] yields for the same bytes. Public
/// for `bench_kernels`, which races the two.
// choco-lint: secret
pub fn error_from_bytes(bytes: &[u8]) -> impl Iterator<Item = i64> + '_ {
    bytes.chunks(BLOCK).flat_map(|block| {
        let mut values = [0; BLOCK / PAIR];
        let kept = error_block(block, &mut values);
        values.into_iter().take(kept)
    })
}

/// The error values of one block of at most [`BLOCK`] bytes, in order, to
/// the front of `out`; returns how many the clip kept.
// choco-lint: secret
fn error_block(block: &[u8], out: &mut [i64; BLOCK / PAIR]) -> usize {
    // A slot the kernel does not write stays NaN, which `needs_libm` sends
    // to libm.
    let mut zs = [f64::NAN; BLOCK / PAIR];
    simd::box_muller(block, ERROR_STDDEV, &mut zs);
    let values = block.chunks_exact(PAIR).zip(zs).filter_map(|(pair, z)| {
        let (w1, w2) = pair.split_at(WORD);
        clip(rounded(word(w1), word(w2), z))
    });
    let mut kept = 0;
    for (slot, e) in out.iter_mut().zip(values) {
        *slot = e;
        kept += 1;
    }
    kept
}

/// The same values by one libm `ln`, `sqrt` and `cos` per pair: the parse
/// every draw took before the kernel, the twin `bench_kernels` times it
/// against and the tests hold it to.
// choco-lint: secret
pub fn error_from_bytes_libm(bytes: &[u8]) -> impl Iterator<Item = i64> + '_ {
    bytes.chunks_exact(PAIR).filter_map(|pair| {
        let (w1, w2) = pair.split_at(WORD);
        clip(box_muller_libm(word(w1), word(w2)).round() as i64)
    })
}

/// `z·σ` of the pair `(w1, w2)` by libm.
// choco-lint: secret
fn box_muller_libm(w1: u64, w2: u64) -> f64 {
    let u1 = unit_f64(w1).max(f64::MIN_POSITIVE);
    let u2 = unit_f64(w2);
    let mag = (-2.0 * u1.ln()).sqrt();
    let z = mag * (2.0 * std::f64::consts::PI * u2).cos();
    z * ERROR_STDDEV
}

/// Whether the kernel's `z` cannot decide the pair's rounding: there is
/// none (`z` is not finite), it lies within [`GUARD`] of a half-integer,
/// or `w1` is the zero draw (`u1` raised to `f64::MIN_POSITIVE`, `|z·σ|`
/// near 120).
// choco-lint: secret
fn needs_libm(w1: u64, z: f64) -> bool {
    let a = z.abs();
    let frac = a - (a as i64) as f64;
    !z.is_finite() || (frac - 0.5).abs() < GUARD || w1 >> 11 == 0
}

/// `z·σ` of the pair rounded half away from zero, as `f64::round` rounds
/// libm's: from the kernel's `z`, or from libm where [`needs_libm`].
// choco-lint: secret
fn rounded(w1: u64, w2: u64, z: f64) -> i64 {
    // Taken on about 2 pairs in 10^7 where the kernel runs, and on every
    // pair where it does not (a public fact of the host), as the parse
    // before the kernel did; libm is no more constant-time than this branch.
    // choco-lint: allow(SEC001) libm fallback on fresh randomness, ~2e-7 of draws
    if needs_libm(w1, z) {
        return box_muller_libm(w1, w2).round() as i64;
    }
    // Outside the band, `z` and libm's value round to the same integer:
    // the whole part of |z|, plus one past the half.
    let a = z.abs();
    let whole = a as i64;
    let r = whole + (a - whole as f64 > 0.5) as i64;
    let neg = (z.to_bits() >> 63) as i64;
    (r ^ -neg) + neg
}

/// `e`, unless it falls outside ±[`ERROR_BOUND`].
// choco-lint: secret
fn clip(e: i64) -> Option<i64> {
    // Rejection sampling on a *fresh* draw: the retry count is
    // independent of any previously established secret, and accepted
    // values leak only the public fact that they passed the clip test.
    // choco-lint: allow(SEC001) rejection sampling on fresh randomness
    if e.abs() <= ERROR_BOUND {
        Some(e)
    } else {
        None
    }
}

/// The next slots of a [`fill_bulk`] output.
type Slots<'a, T> = std::slice::IterMut<'a, T>;

/// Bytes the error parse evaluates at a time: 64 Box–Muller pairs.
const BLOCK: usize = 1024;

/// Fills `slots` from `draw` in bulk: reads `width` bytes per slot still
/// empty, lets `parse_into` fill what they yield ([`store`]), and reads
/// again only for the slots a rejection left empty. `draw` is the byte
/// source (a generator's `fill_bytes`).
// choco-lint: secret (public: slots, width)
fn fill_bulk<S: ExactSizeIterator>(
    mut draw: impl FnMut(&mut [u8]),
    mut slots: S,
    width: usize,
    mut parse_into: impl FnMut(&[u8], &mut S),
) {
    let mut bytes = vec![0u8; width * slots.len()];
    while slots.len() > 0 {
        bytes.truncate(width * slots.len());
        draw(&mut bytes);
        parse_into(&bytes, &mut slots);
    }
}

/// Stores parsed values into the next slots. Values are pulled first, so a
/// parse that runs dry consumes no slot; it never yields more values than
/// slots remain, having been handed one draw per slot.
// choco-lint: secret (public: slots)
fn store<T>(values: impl Iterator<Item = T>, slots: &mut Slots<'_, T>) {
    for (value, slot) in values.zip(slots) {
        *slot = value;
    }
}

/// Fills `out` with residues uniform in `[0, q)`.
// choco-lint: secret (public: q, out)
pub fn sample_uniform_into(rng: &mut Blake3Rng, q: u64, out: &mut [u64]) {
    fill_bulk(
        |b| rng.fill_bytes(b),
        out.iter_mut(),
        WORD,
        |b, slots| store(uniform_from_bytes(b, q), slots),
    );
}

/// Fills `out` with residues uniform in `[0, q)` by masked rejection
/// (`masked_from_bytes`): a division-free sampler for public randomness
/// expanded from a seed, whose stream differs from
/// [`sample_uniform_into`]'s for the same bytes. `q` must be at least 1
/// (callers pass primes): for `q = 0` no draw is ever kept.
// choco-lint: secret (public: q, out)
pub fn sample_uniform_masked_into(rng: &mut Blake3Rng, q: u64, out: &mut [u64]) {
    fill_bulk(
        |b| rng.fill_bytes(b),
        out.iter_mut(),
        WORD,
        |b, slots| store(masked_from_bytes(b, q), slots),
    );
}

/// Samples `n` coefficients uniform in `[0, q)`.
// choco-lint: secret (public: n, q)
pub fn sample_uniform(rng: &mut Blake3Rng, n: usize, q: u64) -> Vec<u64> {
    let mut out = vec![0; n];
    sample_uniform_into(rng, q, &mut out);
    out
}

/// Samples `n` ternary coefficients as signed values in `{-1, 0, 1}`.
///
/// The RNS layer maps one signed draw into every prime's residue ring, so
/// samplers must produce scheme-independent signed values.
// choco-lint: secret (public: n)
pub fn sample_ternary_signed(rng: &mut Blake3Rng, n: usize) -> Vec<i8> {
    let mut out = vec![0; n];
    fill_bulk(
        |b| rng.fill_bytes(b),
        out.iter_mut(),
        WORD,
        |b, slots| store(ternary_from_bytes(b), slots),
    );
    out
}

/// Samples `n` clipped-normal error coefficients as signed integers.
// choco-lint: secret (public: n)
pub fn sample_error_signed(rng: &mut Blake3Rng, n: usize) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    sample_error_blocks(rng, n, |values| out.extend_from_slice(values));
    out
}

/// Draws the `n` clipped-normal error coefficients [`sample_error_signed`]
/// draws and hands them to `put` a block at a time, in order, `n` in all,
/// keeping no vector of them: a caller appends them straight to where they
/// go.
// choco-lint: secret (public: n)
pub fn sample_error_blocks(rng: &mut Blake3Rng, n: usize, put: impl FnMut(&[i64])) {
    error_blocks(|b| rng.fill_bytes(b), n, put);
}

/// [`sample_error_blocks`] over any byte source `draw`.
// choco-lint: secret (public: n)
fn error_blocks(draw: impl FnMut(&mut [u8]), n: usize, mut put: impl FnMut(&[i64])) {
    fill_bulk(draw, 0..n, PAIR, |bytes, slots| {
        for block in bytes.chunks(BLOCK) {
            let mut values = [0; BLOCK / PAIR];
            let kept = error_block(block, &mut values);
            put(values.split_at(kept).0);
            slots.start += kept;
        }
    });
}

/// Samples `n` ternary coefficients in `{-1, 0, 1}` represented modulo `q`
/// (i.e. `-1` is stored as `q - 1`).
// choco-lint: secret (public: n, q)
pub fn sample_ternary(rng: &mut Blake3Rng, n: usize, q: u64) -> Vec<u64> {
    let values = sample_ternary_signed(rng, n);
    // Branchless sign fold: `rem_euclid` maps v < 0 to q + v.
    values
        .into_iter()
        .map(|v| (v as i64).rem_euclid(q as i64) as u64)
        .collect()
}

/// Samples `n` clipped-normal error coefficients represented modulo `q`.
// choco-lint: secret (public: n, q)
pub fn sample_error(rng: &mut Blake3Rng, n: usize, q: u64) -> Vec<u64> {
    let values = sample_error_signed(rng, n);
    // As above (q > 2·ERROR_BOUND for every valid modulus).
    values
        .into_iter()
        .map(|v| v.rem_euclid(q as i64) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 0x3FFF_FFFF_0000_0001 % 0xFFFF_FFFF; // arbitrary test modulus
    const N: usize = 4096;

    #[test]
    fn uniform_stays_in_range_and_spreads() {
        let mut rng = Blake3Rng::from_seed(b"u");
        let v = sample_uniform(&mut rng, N, Q);
        assert!(v.iter().all(|&x| x < Q));
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / N as f64;
        let expect = Q as f64 / 2.0;
        assert!((mean - expect).abs() < 0.05 * Q as f64, "mean {mean}");
    }

    #[test]
    fn masked_uniform_stays_in_range_and_spreads() {
        // A bound far below its bit length's power of two (half the words
        // rejected) and an NTT prime just below 2^45 (almost none).
        for q in [(1u64 << 40) + 1, 35_184_372_088_833] {
            let mut rng = Blake3Rng::from_seed(b"masked");
            let mut v = vec![0; N];
            sample_uniform_masked_into(&mut rng, q, &mut v);
            assert!(v.iter().all(|&x| x < q));
            let mean = v.iter().map(|&x| x as f64).sum::<f64>() / N as f64;
            assert!(
                (mean - q as f64 / 2.0).abs() < 0.05 * q as f64,
                "mean {mean}"
            );
        }
        let mut one = [7u64; 8];
        sample_uniform_masked_into(&mut Blake3Rng::from_seed(b"q = 1"), 1, &mut one);
        assert_eq!(one, [0; 8]);
    }

    #[test]
    fn ternary_hits_all_three_values() {
        let mut rng = Blake3Rng::from_seed(b"t");
        let v = sample_ternary(&mut rng, N, Q);
        let zeros = v.iter().filter(|&&x| x == 0).count();
        let ones = v.iter().filter(|&&x| x == 1).count();
        let negs = v.iter().filter(|&&x| x == Q - 1).count();
        assert_eq!(zeros + ones + negs, N);
        for c in [zeros, ones, negs] {
            let frac = c as f64 / N as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.05, "fraction {frac}");
        }
    }

    #[test]
    fn error_values_clipped_and_centered() {
        let mut rng = Blake3Rng::from_seed(b"e");
        let values = sample_error_signed(&mut rng, N);
        assert!(values.iter().all(|e| e.abs() <= ERROR_BOUND));
        let mean = values.iter().sum::<i64>() as f64 / N as f64;
        let sq = values.iter().map(|&e| (e * e) as f64).sum::<f64>();
        let std = (sq / N as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((std - ERROR_STDDEV).abs() < 0.3, "std {std}");
    }

    #[test]
    fn error_mod_q_encodes_sign() {
        let mut rng = Blake3Rng::from_seed(b"em");
        let v = sample_error(&mut rng, N, Q);
        for &x in &v {
            assert!(
                x <= ERROR_BOUND as u64 || x >= Q - ERROR_BOUND as u64,
                "residue {x} outside clipped band"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = Blake3Rng::from_seed(b"det");
        let mut b = Blake3Rng::from_seed(b"det");
        assert_eq!(sample_error(&mut a, 64, Q), sample_error(&mut b, 64, Q));
    }

    /// A byte source over a fixed string that counts what it hands out.
    struct Crafted {
        bytes: Vec<u8>,
        taken: usize,
    }

    impl Crafted {
        fn new(words: &[u64]) -> Self {
            Crafted {
                bytes: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
                taken: 0,
            }
        }

        fn fill(&mut self, out: &mut [u8]) {
            out.copy_from_slice(&self.bytes[self.taken..self.taken + out.len()]);
            self.taken += out.len();
        }

        fn next_word(&mut self) -> u64 {
            let mut w = [0u8; 8];
            self.fill(&mut w);
            u64::from_le_bytes(w)
        }
    }

    /// The per-draw ternary loop, over any word source.
    fn ternary_per_draw(mut next: impl FnMut() -> u64, n: usize) -> Vec<i8> {
        (0..n)
            .map(|_| loop {
                match word_below(next(), 3) {
                    Some(0) => break 0,
                    Some(1) => break 1,
                    Some(_) => break -1,
                    None => continue,
                }
            })
            .collect()
    }

    /// The sampler's `n` error values over a crafted byte source.
    fn crafted_errors(src: &mut Crafted, n: usize) -> Vec<i64> {
        let mut out = Vec::new();
        error_blocks(|b| src.fill(b), n, |values| out.extend_from_slice(values));
        out
    }

    /// The per-draw Box–Muller loop, over any word source.
    fn error_per_draw(mut next: impl FnMut() -> u64, n: usize) -> Vec<i64> {
        (0..n)
            .map(|_| loop {
                let u1 = unit_f64(next()).max(f64::MIN_POSITIVE);
                let u2 = unit_f64(next());
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let e = (z * ERROR_STDDEV).round() as i64;
                if e.abs() <= ERROR_BOUND {
                    break e;
                }
            })
            .collect()
    }

    #[test]
    fn a_rejected_ternary_word_costs_one_more_read_and_nothing_else() {
        // u64::MAX is the one word `below 3` rejects.
        let words = [5, u64::MAX, 7, u64::MAX, 9, 2, 4];
        let mut bulk_src = Crafted::new(&words);
        let mut bulk = vec![0i8; 5];
        fill_bulk(
            |b| bulk_src.fill(b),
            bulk.iter_mut(),
            WORD,
            |b, slots| store(ternary_from_bytes(b), slots),
        );
        let mut loop_src = Crafted::new(&words);
        let per_draw = ternary_per_draw(|| loop_src.next_word(), 5);
        assert_eq!(bulk, per_draw);
        assert_eq!(bulk, [-1, 1, 0, -1, 1]);
        assert_eq!((bulk_src.taken, loop_src.taken), (56, 56));
    }

    #[test]
    fn a_clipped_error_pair_costs_one_more_read_and_nothing_else() {
        // An all-zero pair is u1 → MIN_POSITIVE, u2 = 0: |z|·σ ≈ 120 > 19.
        let ok = [0x8000_0000_0000_0000, 0x1234_5678_9abc_def0];
        let words = [ok[0], ok[1], 0, 0, ok[1], ok[0], 0, 0, ok[0], ok[0]];
        let mut bulk_src = Crafted::new(&words);
        let bulk = crafted_errors(&mut bulk_src, 3);
        let mut loop_src = Crafted::new(&words);
        let per_draw = error_per_draw(|| loop_src.next_word(), 3);
        assert_eq!(bulk, per_draw);
        assert_eq!((bulk_src.taken, loop_src.taken), (80, 80));
        assert_eq!(
            error_from_bytes(&[0u8; 16]).count(),
            0,
            "the zero pair is clipped"
        );
    }

    /// Whether `simd::box_muller` writes in this process, asserted to be
    /// exactly where the backend is a vector one and the CPU has AVX2 and
    /// FMA.
    fn kernel_runs() -> bool {
        let mut probe = [f64::NAN];
        simd::box_muller(&[0; PAIR], 1.0, &mut probe);
        let runs = !probe[0].is_nan();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            runs,
            simd::backend().is_vector()
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"),
            "the kernel runs exactly on a vector backend with AVX2 and FMA"
        );
        runs
    }

    /// The pair `(w1, w2)` as 16 bytes.
    fn pair_bytes(w1: u64, w2: u64) -> [u8; PAIR] {
        let mut b = [0u8; PAIR];
        let (lo, hi) = b.split_at_mut(WORD);
        lo.copy_from_slice(&w1.to_le_bytes());
        hi.copy_from_slice(&w2.to_le_bytes());
        b
    }

    /// The kernel's `z·σ` of the pair `(w1, w2)`: NaN where it does not run.
    fn kernel_z(w1: u64, w2: u64) -> f64 {
        let mut z = [f64::NAN];
        simd::box_muller(&pair_bytes(w1, w2), ERROR_STDDEV, &mut z);
        z[0]
    }

    /// `words` through the sampler and through the per-draw loop: the same
    /// values, as many as the clip keeps, and the same bytes taken. Returns
    /// the values.
    fn sampler_draws_what_the_loop_draws(words: &[u64]) -> Vec<i64> {
        let kept = words
            .chunks_exact(2)
            .filter(|w| box_muller_libm(w[0], w[1]).round().abs() <= ERROR_BOUND as f64)
            .count();
        let mut bulk_src = Crafted::new(words);
        let bulk = crafted_errors(&mut bulk_src, kept);
        let mut loop_src = Crafted::new(words);
        assert_eq!(bulk, error_per_draw(|| loop_src.next_word(), kept));
        assert_eq!(bulk_src.taken, loop_src.taken);
        bulk
    }

    #[test]
    fn pairs_on_a_rounding_boundary_take_libm_and_draw_what_the_loop_draws() {
        // u2 = 0 (cos 1) or ½ (cos −1) makes z·σ = ±σ·√(−2 ln u1); u1 from
        // the inverse lands it on each half-integer up to the ±19.5 clip
        // edge, and the three u1 grid points either side of that stay within
        // the guard (one grid step moves z·σ by at most 7e-9, at 19.5).
        let runs = kernel_runs();
        let mut words = Vec::new();
        let (mut below, mut above) = (0, 0);
        for half in (0..20).map(|k| k as f64 + 0.5) {
            let u1 = (-0.5 * (half / ERROR_STDDEV).powi(2)).exp();
            let center = (u1 * (1u64 << 53) as f64).round() as i64;
            for w1 in (center - 3..=center + 3).map(|x| (x as u64) << 11) {
                for w2 in [0, 1 << 63] {
                    let exact = box_muller_libm(w1, w2);
                    assert!(
                        (exact.abs() - half).abs() < GUARD / 2.0,
                        "{exact} vs {half}"
                    );
                    if exact.abs() < half {
                        below += 1;
                    } else {
                        above += 1;
                    }
                    let z = kernel_z(w1, w2);
                    assert_eq!(z.is_finite(), runs, "the kernel wrote where it runs");
                    assert!(needs_libm(w1, z), "{z} not in the guard");
                    assert_eq!(rounded(w1, w2, z), exact.round() as i64);
                    words.extend([w1, w2]);
                }
            }
        }
        assert!(
            below > 0 && above > 0,
            "the pairs straddle the half-integers"
        );
        // Through the sampler against the per-draw loop, every one of them
        // (those that round to ±20 are clipped and cost a read).
        let drawn = sampler_draws_what_the_loop_draws(&words);
        assert!(
            drawn.len() < words.len() / 2,
            "some pairs on the clip edge round to ±20"
        );
        assert!(drawn.contains(&19) && drawn.contains(&-19) && drawn.contains(&0));
    }

    #[test]
    fn extreme_pairs_stay_within_the_derived_bound_of_libm() {
        // The words whose unit_f64 is k / 2^53.
        let grid = |k: u64| k << 11;
        // u1: the smallest non-zero draw 2^-53 (the largest |ln u1| the
        // kernel decides, |z·σ| up to 27.4) and its neighbours; mantissas
        // at, below and above √2, where the ln reduction folds, at u1 ≈ √½
        // and u1 ≈ √½·2^-29; ½ (mantissa 1) and 1 − 2^-53 (ln u1 ≈ 0).
        let fold_full = (std::f64::consts::FRAC_1_SQRT_2 * (1u64 << 53) as f64) as u64;
        let fold_low = (std::f64::consts::FRAC_1_SQRT_2 * (1u64 << 24) as f64).round() as u64;
        let mut u1s = vec![1, 2, 3, 1 << 52, (1 << 53) - 1];
        for d in [-1i64, 0, 1] {
            u1s.push(fold_full.wrapping_add_signed(d));
            u1s.push(fold_low.wrapping_add_signed(d) << 29);
        }
        // u2: 0, the smallest step, ¼ and ¾ (where the cos fold turns and
        // cos is 0) one grid step either side, ½, and 1 − 2^-53.
        let q = 1u64 << 51;
        let u2s = [
            0,
            1,
            q - 1,
            q,
            q + 1,
            2 * q,
            3 * q - 1,
            3 * q,
            3 * q + 1,
            4 * q - 1,
        ];
        let runs = kernel_runs();
        let mut words = Vec::new();
        for &k1 in &u1s {
            for &k2 in &u2s {
                let (w1, w2) = (grid(k1), grid(k2));
                let exact = box_muller_libm(w1, w2);
                let z = kernel_z(w1, w2);
                assert_eq!(z.is_finite(), runs, "the kernel wrote where it runs");
                if runs {
                    assert!(
                        (z - exact).abs() < 1e-13,
                        "u1 = {k1}/2^53, u2 = {k2}/2^53: {z} vs {exact}"
                    );
                }
                assert_eq!(rounded(w1, w2, z), exact.round() as i64);
                words.extend([w1, w2]);
            }
        }
        sampler_draws_what_the_loop_draws(&words);
    }

    #[test]
    fn the_kernel_parse_draws_what_libm_draws_over_ten_million_pairs() {
        // 160 blocks of 65536 pairs: the kernel within 1e-13 of libm's z·σ
        // where it runs, and the dispatched parse equal to the libm parse.
        let mut rng = Blake3Rng::from_seed(b"box-muller sweep");
        let mut bytes = vec![0u8; PAIR << 16];
        let mut approx = vec![f64::NAN; 1 << 16];
        let runs = kernel_runs();
        let (mut gap, mut taken) = (0.0f64, 0usize);
        for _ in 0..160 {
            rng.fill_bytes(&mut bytes);
            if runs {
                simd::box_muller(&bytes, ERROR_STDDEV, &mut approx);
                for (pair, &z) in bytes.chunks_exact(PAIR).zip(&approx) {
                    let (w1, w2) = pair.split_at(WORD);
                    let (w1, w2) = (word(w1), word(w2));
                    gap = gap.max((z - box_muller_libm(w1, w2)).abs());
                    taken += needs_libm(w1, z) as usize;
                }
            }
            assert!(
                error_from_bytes(&bytes).eq(error_from_bytes_libm(&bytes)),
                "the kernel parse differs from libm's"
            );
        }
        assert!(gap < 1e-13, "largest gap to libm {gap:e}");
        // About 2 in 10^7 pairs fall in the band: a few here, not hundreds.
        assert!(taken < 20, "{taken} pairs took libm");
    }
}
