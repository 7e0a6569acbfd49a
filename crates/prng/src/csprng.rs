//! A deterministic CSPRNG over the BLAKE3 XOF.
//!
//! Every random value in the HE stack (secrets, errors, public-key `a`
//! polynomials) is drawn from a [`Blake3Rng`] seeded explicitly, so whole
//! protocol runs are reproducible — the property the paper relies on when
//! counting accelerator PRNG throughput (§4.2 reports 565 MB/s peak demand).

use crate::blake3::{Hasher, XofReader};

/// A seeded, deterministic stream of cryptographically strong bytes.
pub struct Blake3Rng {
    reader: XofReader,
    /// Total bytes drawn so far (used by the accelerator model to account
    /// PRNG bandwidth demand).
    bytes_drawn: u64,
}

impl std::fmt::Debug for Blake3Rng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blake3Rng")
            .field("bytes_drawn", &self.bytes_drawn)
            .finish()
    }
}

impl Blake3Rng {
    /// Creates a generator from arbitrary seed bytes.
    // choco-lint: ct-safe
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut h = Hasher::new();
        h.update(seed);
        Blake3Rng {
            reader: h.finalize_xof_reader(),
            bytes_drawn: 0,
        }
    }

    /// Creates a generator from a seed and a domain-separation label, so
    /// independent streams can be derived from one master seed.
    // choco-lint: ct-safe
    pub fn from_seed_labeled(seed: &[u8], label: &str) -> Self {
        let mut h = Hasher::new();
        h.update(seed);
        h.update(&[0xff]);
        h.update(label.as_bytes());
        Blake3Rng {
            reader: h.finalize_xof_reader(),
            bytes_drawn: 0,
        }
    }

    /// This generator on the one-block-at-a-time scalar XOF: the twin the
    /// 8-lane path is tested and timed against (see
    /// [`crate::blake3::Hasher::scalar`]). The stream is the same.
    pub fn scalar(self) -> Self {
        Blake3Rng {
            reader: self.reader.scalar(),
            ..self
        }
    }

    /// Fills `out` with random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.reader.fill(out);
        self.bytes_drawn += out.len() as u64;
    }

    /// Next random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }

    /// Next random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.fill_bytes(&mut buf);
        u32::from_le_bytes(buf)
    }

    /// Uniform value in `[0, bound)` by rejection sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            if let Some(v) = word_below(self.next_u64(), bound) {
                return v;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Total bytes drawn since construction.
    pub fn bytes_drawn(&self) -> u64 {
        self.bytes_drawn
    }

    /// Fast-forwards the stream by `n` bytes, counting them as drawn.
    ///
    /// A generator's state is fully determined by its seed and
    /// [`Blake3Rng::bytes_drawn`], so `from_seed(s)` + `skip(n)` restores a
    /// checkpointed stream exactly — the primitive session resume is built
    /// on. The XOF is seekable, so this costs one group of eight output
    /// blocks whatever `n` is.
    pub fn skip(&mut self, n: u64) {
        self.reader.skip(n);
        self.bytes_drawn += n;
    }
}

/// The value in `[0, bound)` one 64-bit draw stands for, or `None` when
/// rejection sampling discards the draw (so there is no modulo bias): the
/// rule [`Blake3Rng::next_below`] applies draw by draw and the bulk
/// samplers in [`crate::sampler`] apply to a buffer of draws. `bound` must
/// be positive.
// choco-lint: secret (public: bound)
pub(crate) fn word_below(word: u64, bound: u64) -> Option<u64> {
    if bound.is_power_of_two() {
        return Some(word & (bound - 1));
    }
    // Largest multiple of bound that fits in u64.
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    // choco-lint: allow(SEC001) rejection sampling on fresh randomness
    if word <= zone {
        Some(word % bound)
    } else {
        None
    }
}

/// The `f64` in `[0, 1)` one 64-bit draw stands for (its top 53 bits):
/// [`Blake3Rng::next_f64`]'s conversion.
// choco-lint: ct-safe
pub(crate) fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Blake3Rng::from_seed(b"seed");
        let mut b = Blake3Rng::from_seed(b"seed");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Blake3Rng::from_seed(b"seed-a");
        let mut b = Blake3Rng::from_seed(b"seed-b");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn labels_separate_domains() {
        let mut a = Blake3Rng::from_seed_labeled(b"seed", "secret");
        let mut b = Blake3Rng::from_seed_labeled(b"seed", "error");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Blake3Rng::from_seed(b"bounds");
        for bound in [1u64, 2, 3, 7, 100, 1 << 20, u64::MAX / 2 + 3] {
            for _ in 0..50 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = Blake3Rng::from_seed(b"uniformity");
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Blake3Rng::from_seed(b"floats");
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn skip_fast_forwards_exactly() {
        let mut reference = Blake3Rng::from_seed(b"skip");
        let drawn: Vec<u64> = (0..100).map(|_| reference.next_u64()).collect();
        for cut in [0usize, 1, 7, 50, 99] {
            let mut restored = Blake3Rng::from_seed(b"skip");
            restored.skip(cut as u64 * 8);
            assert_eq!(restored.bytes_drawn(), cut as u64 * 8);
            for (i, &want) in drawn[cut..].iter().enumerate() {
                assert_eq!(restored.next_u64(), want, "cut {cut} draw {i}");
            }
        }
        // Byte offsets on both sides of the 64-byte block boundaries, from
        // a fresh generator and from one that has already drawn.
        let mut reference = Blake3Rng::from_seed(b"skip bytes");
        let mut stream = vec![0u8; 400];
        reference.fill_bytes(&mut stream);
        for (drawn_first, cut) in [
            (0, 63),
            (0, 64),
            (0, 65),
            (5, 59),
            (5, 123),
            (64, 64),
            (70, 200),
        ] {
            let mut restored = Blake3Rng::from_seed(b"skip bytes");
            let mut head = vec![0u8; drawn_first];
            restored.fill_bytes(&mut head);
            restored.skip(cut as u64 - drawn_first as u64);
            assert_eq!(restored.bytes_drawn(), cut as u64);
            let mut rest = [0u8; 70];
            restored.fill_bytes(&mut rest);
            assert_eq!(
                &rest[..],
                &stream[cut..cut + 70],
                "drawn {drawn_first}, cut {cut}"
            );
        }
        // A resume past gigabytes of stream seeks rather than replays: a
        // byte-at-a-time skip of 3 GiB would not finish in a test run. One
        // long skip lands where a shorter skip plus the drawn remainder
        // does.
        let far = 3u64 << 30;
        let mut long = Blake3Rng::from_seed(b"skip far");
        long.skip(far + 5);
        assert_eq!(long.bytes_drawn(), far + 5);
        let mut short = Blake3Rng::from_seed(b"skip far");
        short.skip(far - 200);
        let mut gap = [0u8; 205];
        short.fill_bytes(&mut gap);
        assert_eq!(long.next_u64(), short.next_u64());
    }

    #[test]
    fn skip_handles_odd_and_large_offsets() {
        let mut a = Blake3Rng::from_seed(b"skip odd");
        let mut junk = vec![0u8; 1000];
        a.fill_bytes(&mut junk);
        let want = a.next_u64();
        let mut b = Blake3Rng::from_seed(b"skip odd");
        b.skip(1000);
        assert_eq!(b.next_u64(), want);
    }

    #[test]
    fn byte_accounting() {
        let mut rng = Blake3Rng::from_seed(b"count");
        rng.next_u64();
        rng.next_u32();
        let mut buf = [0u8; 10];
        rng.fill_bytes(&mut buf);
        assert_eq!(rng.bytes_drawn(), 8 + 4 + 10);
    }
}
