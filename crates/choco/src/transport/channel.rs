//! The byte-pipe abstraction frames travel over.

use super::fault::FaultStats;
use super::wire::{put_blob, WireCursor};
use super::TransportError;
use std::collections::VecDeque;

/// One delivered wire blob plus the simulated link latency it accrued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The bytes as they arrived (possibly altered by a faulty link).
    pub wire: Vec<u8>,
    /// Simulated one-way latency in milliseconds.
    pub latency_ms: u64,
}

/// A unidirectional, in-order channel carrying opaque wire frames.
///
/// Implementations may lose, alter, duplicate or delay what they carry —
/// the session layer above assumes nothing about a received blob until the
/// frame tag verifies.
pub trait Channel {
    /// Enqueues one wire frame for delivery.
    fn send(&mut self, wire: Vec<u8>);

    /// Dequeues the next delivery, or `None` if nothing is in flight.
    fn recv(&mut self) -> Option<Delivery>;

    /// Number of deliveries currently in flight.
    fn pending(&self) -> usize;

    /// Fault counters, if the channel injects faults (lossless channels
    /// report all-zero stats).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Serializes the channel's internal state (in-flight queue, RNG
    /// position, counters) for a durable session checkpoint. Stateless
    /// channels return an empty blob.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Channel::export_state`] into a freshly
    /// constructed channel of the same kind and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::BadCheckpoint`] if the blob does not match
    /// this channel kind. The default (stateless) impl accepts only an
    /// empty blob.
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(TransportError::BadCheckpoint(
                "stateless channel given non-empty state".into(),
            ))
        }
    }
}

/// A perfect in-memory channel: every frame arrives intact, in order, with
/// zero latency.
#[derive(Debug, Default)]
pub struct DirectChannel {
    queue: VecDeque<Vec<u8>>,
}

impl DirectChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Channel for DirectChannel {
    fn send(&mut self, wire: Vec<u8>) {
        self.queue.push_back(wire);
    }

    fn recv(&mut self) -> Option<Delivery> {
        self.queue.pop_front().map(|wire| Delivery {
            wire,
            latency_ms: 0,
        })
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn export_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.queue.len() as u32).to_le_bytes());
        for wire in &self.queue {
            put_blob(&mut out, wire);
        }
        out
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut rest = WireCursor::sealed(bytes, "direct channel state");
        let count = rest.take_u32()? as usize;
        let mut queue = VecDeque::with_capacity(count.min(1024));
        for _ in 0..count {
            queue.push_back(rest.take_blob()?.to_vec());
        }
        if !rest.is_empty() {
            return Err(TransportError::BadCheckpoint(
                "direct channel: trailing bytes in state".into(),
            ));
        }
        self.queue = queue;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_channel_is_fifo_and_lossless() {
        let mut ch = DirectChannel::new();
        ch.send(vec![1]);
        ch.send(vec![2, 2]);
        assert_eq!(ch.pending(), 2);
        assert_eq!(ch.recv().unwrap().wire, vec![1]);
        let d = ch.recv().unwrap();
        assert_eq!(d.wire, vec![2, 2]);
        assert_eq!(d.latency_ms, 0);
        assert!(ch.recv().is_none());
        assert_eq!(ch.fault_stats(), FaultStats::default());
    }
}
