//! Deterministic fault injection: a seed-driven adversarial link.
//!
//! [`FaultyChannel`] applies a [`FaultPlan`] to every frame it carries. All
//! randomness comes from a domain-separated [`Blake3Rng`], so the same
//! `(seed, plan)` pair replays the exact same fault schedule — failing runs
//! are reproducible by construction.

use super::channel::{Channel, Delivery};
use super::wire::{put_blob, WireCursor};
use super::TransportError;
use choco_prng::Blake3Rng;
use std::collections::VecDeque;

/// Per-frame fault probabilities and latency bounds for a lossy link.
///
/// Rates are evaluated independently, in a fixed order (drop, corrupt,
/// truncate, duplicate), one RNG draw each, so schedules are stable under
/// plan tweaks that don't touch earlier draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a frame vanishes in flight.
    pub drop_rate: f64,
    /// Probability a surviving frame has one random bit flipped.
    pub corrupt_rate: f64,
    /// Probability a surviving frame is cut to a random prefix.
    pub truncate_rate: f64,
    /// Probability a surviving frame is delivered twice.
    pub duplicate_rate: f64,
    /// Uniform extra one-way latency in `[0, max_extra_latency_ms]`.
    pub max_extra_latency_ms: u64,
}

impl FaultPlan {
    /// A perfect link: no faults, no latency.
    pub fn lossless() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            max_extra_latency_ms: 0,
        }
    }

    /// A moderately hostile link: the default stress plan used in tests —
    /// well within the default retry budget.
    pub fn flaky() -> Self {
        FaultPlan {
            drop_rate: 0.2,
            corrupt_rate: 0.15,
            truncate_rate: 0.1,
            duplicate_rate: 0.1,
            max_extra_latency_ms: 20,
        }
    }

    /// A dead link: every frame is dropped. Exceeds any retry budget.
    pub fn blackhole() -> Self {
        FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::lossless()
        }
    }

    /// Sets the drop rate.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the corruption rate.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Sets the truncation rate.
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        self.truncate_rate = rate;
        self
    }

    /// Sets the duplication rate.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Sets the latency bound.
    pub fn with_max_latency_ms(mut self, ms: u64) -> Self {
        self.max_extra_latency_ms = ms;
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::lossless()
    }
}

/// Counters of what a faulty link actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames delivered (possibly altered).
    pub delivered: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames with a flipped bit.
    pub corrupted: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
}

impl FaultStats {
    /// Total faults of any kind injected.
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.corrupted + self.truncated + self.duplicated
    }
}

/// A lossy in-memory channel driven by a [`FaultPlan`] and a seeded RNG.
#[derive(Debug)]
pub struct FaultyChannel {
    queue: VecDeque<Delivery>,
    rng: Blake3Rng,
    seed: Vec<u8>,
    plan: FaultPlan,
    stats: FaultStats,
}

impl FaultyChannel {
    /// Creates a channel whose fault schedule is fully determined by
    /// `seed` and `plan`.
    pub fn new(seed: &[u8], plan: FaultPlan) -> Self {
        FaultyChannel {
            queue: VecDeque::new(),
            rng: Blake3Rng::from_seed_labeled(seed, "faulty-channel"),
            seed: seed.to_vec(),
            plan,
            stats: FaultStats::default(),
        }
    }

    /// What this link has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn chance(&mut self, rate: f64) -> bool {
        // One draw per decision keeps schedules aligned across plans.
        self.rng.next_f64() < rate
    }

    fn mangle(&mut self, mut wire: Vec<u8>) -> Vec<u8> {
        if self.chance(self.plan.corrupt_rate) && !wire.is_empty() {
            let idx = self.rng.next_below(wire.len() as u64) as usize;
            let bit = self.rng.next_below(8) as u8;
            wire[idx] ^= 1 << bit;
            self.stats.corrupted += 1;
        }
        if self.chance(self.plan.truncate_rate) && !wire.is_empty() {
            let keep = self.rng.next_below(wire.len() as u64) as usize;
            wire.truncate(keep);
            self.stats.truncated += 1;
        }
        wire
    }

    fn latency(&mut self) -> u64 {
        if self.plan.max_extra_latency_ms == 0 {
            0
        } else {
            self.rng.next_below(self.plan.max_extra_latency_ms + 1)
        }
    }
}

impl Channel for FaultyChannel {
    fn send(&mut self, wire: Vec<u8>) {
        if self.chance(self.plan.drop_rate) {
            self.stats.dropped += 1;
            return;
        }
        let duplicate = self.chance(self.plan.duplicate_rate);
        let mangled = self.mangle(wire);
        let latency_ms = self.latency();
        self.queue.push_back(Delivery {
            wire: mangled.clone(),
            latency_ms,
        });
        self.stats.delivered += 1;
        if duplicate {
            let latency_ms = self.latency();
            self.queue.push_back(Delivery {
                wire: mangled,
                latency_ms,
            });
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
        }
    }

    fn recv(&mut self) -> Option<Delivery> {
        self.queue.pop_front()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    fn export_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.rng.bytes_drawn().to_le_bytes());
        for c in [
            self.stats.delivered,
            self.stats.dropped,
            self.stats.corrupted,
            self.stats.truncated,
            self.stats.duplicated,
        ] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.queue.len() as u32).to_le_bytes());
        for d in &self.queue {
            out.extend_from_slice(&d.latency_ms.to_le_bytes());
            put_blob(&mut out, &d.wire);
        }
        out
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut rest = WireCursor::sealed(bytes, "faulty channel state");
        let drawn = rest.take_u64()?;
        let mut stats = FaultStats::default();
        for c in [
            &mut stats.delivered,
            &mut stats.dropped,
            &mut stats.corrupted,
            &mut stats.truncated,
            &mut stats.duplicated,
        ] {
            *c = rest.take_u64()?;
        }
        let count = rest.take_u32()? as usize;
        let mut queue = VecDeque::with_capacity(count.min(1024));
        for _ in 0..count {
            let latency_ms = rest.take_u64()?;
            let wire = rest.take_blob()?.to_vec();
            queue.push_back(Delivery { wire, latency_ms });
        }
        if !rest.is_empty() {
            return Err(TransportError::BadCheckpoint(
                "faulty channel: trailing bytes in state".into(),
            ));
        }
        // Rebuild the fault RNG at the exact draw position: the stream is a
        // pure function of (seed, bytes drawn), so skipping `drawn` bytes
        // replays the remainder of the fault schedule bit-for-bit.
        let mut rng = Blake3Rng::from_seed_labeled(&self.seed, "faulty-channel");
        rng.skip(drawn);
        self.rng = rng;
        self.stats = stats;
        self.queue = queue;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_plan_delivers_everything_intact() {
        let mut ch = FaultyChannel::new(b"t0", FaultPlan::lossless());
        for i in 0..50u8 {
            ch.send(vec![i; 16]);
        }
        for i in 0..50u8 {
            let d = ch.recv().unwrap();
            assert_eq!(d.wire, vec![i; 16]);
            assert_eq!(d.latency_ms, 0);
        }
        assert_eq!(ch.stats().total_faults(), 0);
    }

    #[test]
    fn blackhole_drops_everything() {
        let mut ch = FaultyChannel::new(b"t1", FaultPlan::blackhole());
        for _ in 0..20 {
            ch.send(vec![1, 2, 3]);
        }
        assert!(ch.recv().is_none());
        assert_eq!(ch.stats().dropped, 20);
        assert_eq!(ch.stats().delivered, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = |seed: &[u8]| {
            let mut ch = FaultyChannel::new(seed, FaultPlan::flaky());
            let mut out = Vec::new();
            for i in 0..200u8 {
                ch.send(vec![i; 32]);
            }
            while let Some(d) = ch.recv() {
                out.push(d);
            }
            (out, ch.stats())
        };
        let (a, sa) = run(b"same seed");
        let (b, sb) = run(b"same seed");
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(b"other seed");
        assert_ne!(a, c);
    }

    #[test]
    fn flaky_plan_injects_every_fault_kind_eventually() {
        let mut ch = FaultyChannel::new(b"t2", FaultPlan::flaky());
        for i in 0..500u16 {
            ch.send(i.to_le_bytes().repeat(8));
            while ch.recv().is_some() {}
        }
        let s = ch.stats();
        assert!(s.dropped > 0, "no drops in 500 frames");
        assert!(s.corrupted > 0, "no corruption in 500 frames");
        assert!(s.truncated > 0, "no truncation in 500 frames");
        assert!(s.duplicated > 0, "no duplication in 500 frames");
        assert!(s.delivered > 0);
    }

    #[test]
    fn latency_respects_bound() {
        let plan = FaultPlan::lossless().with_max_latency_ms(7);
        let mut ch = FaultyChannel::new(b"t3", plan);
        let mut seen_nonzero = false;
        for _ in 0..100 {
            ch.send(vec![0; 8]);
            let d = ch.recv().unwrap();
            assert!(d.latency_ms <= 7);
            seen_nonzero |= d.latency_ms > 0;
        }
        assert!(seen_nonzero);
    }
}
