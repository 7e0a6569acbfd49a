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

use crate::csprng::{unit_f64, word_below, Blake3Rng};

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

/// Clipped-normal error values from a buffer of draws: one Box–Muller
/// attempt per 16-byte pair, kept unless it falls outside ±[`ERROR_BOUND`].
// choco-lint: secret
fn error_from_bytes(bytes: &[u8]) -> impl Iterator<Item = i64> + '_ {
    bytes.chunks_exact(PAIR).filter_map(|pair| {
        let (w1, w2) = pair.split_at(WORD);
        let u1 = unit_f64(word(w1)).max(f64::MIN_POSITIVE);
        let u2 = unit_f64(word(w2));
        let mag = (-2.0 * u1.ln()).sqrt();
        let z = mag * (2.0 * std::f64::consts::PI * u2).cos();
        let e = (z * ERROR_STDDEV).round() as i64;
        // Rejection sampling on a *fresh* draw: the retry count is
        // independent of any previously established secret, and accepted
        // values leak only the public fact that they passed the clip test.
        // choco-lint: allow(SEC001) rejection sampling on fresh randomness
        if e.abs() <= ERROR_BOUND {
            Some(e)
        } else {
            None
        }
    })
}

/// The next slots of a [`fill_bulk`] output.
type Slots<'a, T> = std::slice::IterMut<'a, T>;

/// Fills `out` from `draw` in bulk: reads `width` bytes per slot still
/// empty, lets `parse_into` store what they yield ([`store`]), and reads again
/// only for the slots a rejection left empty. `draw` is the byte source (a
/// generator's `fill_bytes`).
// choco-lint: secret (public: out, width)
fn fill_bulk<'a, T>(
    mut draw: impl FnMut(&mut [u8]),
    out: &'a mut [T],
    width: usize,
    parse_into: impl Fn(&[u8], &mut Slots<'a, T>),
) {
    let mut slots = out.iter_mut();
    let mut bytes = vec![0u8; width * slots.len()];
    while !slots.as_slice().is_empty() {
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
        out,
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
        out,
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
        &mut out,
        WORD,
        |b, slots| store(ternary_from_bytes(b), slots),
    );
    out
}

/// Samples `n` clipped-normal error coefficients as signed integers.
// choco-lint: secret (public: n)
pub fn sample_error_signed(rng: &mut Blake3Rng, n: usize) -> Vec<i64> {
    let mut out = vec![0; n];
    fill_bulk(
        |b| rng.fill_bytes(b),
        &mut out,
        PAIR,
        |b, slots| store(error_from_bytes(b), slots),
    );
    out
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
            &mut bulk,
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
        let mut bulk = vec![0i64; 3];
        fill_bulk(
            |b| bulk_src.fill(b),
            &mut bulk,
            PAIR,
            |b, slots| store(error_from_bytes(b), slots),
        );
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
}
