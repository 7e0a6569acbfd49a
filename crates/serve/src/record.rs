//! Durable per-session server records.
//!
//! The server keeps one [`SessionRecord`] per `(tenant, session)` pair: the
//! dedup cursor (`seen_below`) plus frame and byte counters. On graceful
//! drain every record is persisted as a small sealed blob
//! (`t<tenant>_s<session>.csr`), and a restarted server loads the directory
//! at bind time — so a client that resumes *across a server restart* still
//! gets exact duplicate accounting: frames it retransmits after the restart
//! are billed as retransmissions, not fresh uploads.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! | "CSR1" | tenant u64 | session u64 | seen_below u64 | frames u64 |
//! | dup_frames u64 | bad_frames u64 | payload_bytes u64 | wire_bytes u64 |
//! | blake3(prior bytes) 32 B |
//! ```

use choco::transport::{TransportError, WireCursor};
use choco_prng::blake3;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of a serialized session record.
pub const RECORD_MAGIC: &[u8; 4] = b"CSR1";

/// Exact size of a serialized record: magic, eight `u64` fields, seal.
pub const RECORD_BYTES: usize = 4 + 8 * 8 + 32;

/// One session's server-side state: the duplicate-detection cursor and the
/// traffic counters that back the per-tenant ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionRecord {
    /// Tenant that owns the session.
    pub tenant: u64,
    /// Client-chosen session id.
    pub session: u64,
    /// Duplicate cursor: a frame is fresh iff `seq >= seen_below`; after
    /// accepting it, `seen_below = seq + 1`. Sequence numbers are monotonic
    /// per session, so one cursor suffices.
    pub seen_below: u64,
    /// Fresh frames verified and echoed.
    pub frames: u64,
    /// Duplicate frames (client retransmissions after a reconnect) —
    /// verified and re-echoed, but billed as retransmit traffic.
    pub dup_frames: u64,
    /// Frames that failed tag verification (never echoed).
    pub bad_frames: u64,
    /// Payload bytes of fresh frames (frame overhead excluded).
    pub payload_bytes: u64,
    /// Total wire bytes received, duplicates and overhead included.
    pub wire_bytes: u64,
}

impl SessionRecord {
    /// A fresh record for one `(tenant, session)` pair.
    pub fn new(tenant: u64, session: u64) -> Self {
        SessionRecord {
            tenant,
            session,
            ..Self::default()
        }
    }

    /// The record's on-disk file name.
    pub fn file_name(&self) -> String {
        format!("t{}_s{}.csr", self.tenant, self.session)
    }

    /// Serializes the record with its BLAKE3 seal.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_BYTES);
        out.extend_from_slice(RECORD_MAGIC);
        for field in [
            self.tenant,
            self.session,
            self.seen_below,
            self.frames,
            self.dup_frames,
            self.bad_frames,
            self.payload_bytes,
            self.wire_bytes,
        ] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        let seal = blake3::hash(&out);
        out.extend_from_slice(&seal);
        out
    }

    /// Deserializes and validates a sealed record.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on bad magic, truncation, trailing
    /// bytes, or a seal mismatch (bit rot / tampering).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TransportError> {
        if bytes.len() != RECORD_BYTES {
            return Err(TransportError::BadCheckpoint(format!(
                "session record: {} bytes, expected {RECORD_BYTES}",
                bytes.len()
            )));
        }
        let body_len = RECORD_BYTES - 32;
        let (body, seal) = bytes.split_at(body_len);
        if blake3::hash(body) != *seal {
            return Err(TransportError::BadCheckpoint(
                "session record: seal mismatch".into(),
            ));
        }
        let mut rest = WireCursor::sealed(body, "session record");
        if rest.take(4)? != RECORD_MAGIC {
            return Err(TransportError::BadCheckpoint(
                "session record: bad magic".into(),
            ));
        }
        Ok(SessionRecord {
            tenant: rest.take_u64()?,
            session: rest.take_u64()?,
            seen_below: rest.take_u64()?,
            frames: rest.take_u64()?,
            dup_frames: rest.take_u64()?,
            bad_frames: rest.take_u64()?,
            payload_bytes: rest.take_u64()?,
            wire_bytes: rest.take_u64()?,
        })
    }

    /// Persists the record into `dir` (created if missing) with a
    /// write-to-temp-then-rename so a crash mid-write never leaves a
    /// half-written record behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let tmp: PathBuf = dir.join(format!("{}.tmp", self.file_name()));
        fs::write(&tmp, self.to_bytes())?;
        fs::rename(&tmp, &path)
    }

    /// Loads every valid record from `dir`. Missing directories yield an
    /// empty set; unreadable or corrupt files are skipped (a torn record is
    /// strictly worse than none — the only cost of dropping one is that
    /// retransmitted frames bill as fresh instead of duplicates).
    pub fn load_dir(dir: &Path) -> Vec<SessionRecord> {
        let Ok(entries) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut records = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("csr") {
                continue;
            }
            if let Ok(bytes) = fs::read(&path) {
                if let Ok(rec) = SessionRecord::from_bytes(&bytes) {
                    records.push(rec);
                }
            }
        }
        records.sort_by_key(|r| (r.tenant, r.session));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_and_detects_corruption() {
        let rec = SessionRecord {
            tenant: 3,
            session: 9,
            seen_below: 41,
            frames: 40,
            dup_frames: 2,
            bad_frames: 1,
            payload_bytes: 123_456,
            wire_bytes: 130_000,
        };
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len(), RECORD_BYTES);
        assert_eq!(SessionRecord::from_bytes(&bytes).unwrap(), rec);

        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1;
            assert!(
                SessionRecord::from_bytes(&bad).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
        assert!(SessionRecord::from_bytes(&bytes[..RECORD_BYTES - 1]).is_err());
    }

    #[test]
    fn save_and_load_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("choco-serve-rec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = SessionRecord::new(1, 1);
        let mut b = SessionRecord::new(2, 5);
        b.seen_below = 17;
        b.frames = 17;
        a.save(&dir).unwrap();
        b.save(&dir).unwrap();
        // A corrupt file in the directory is skipped, not fatal.
        fs::write(dir.join("t9_s9.csr"), b"garbage").unwrap();
        let loaded = SessionRecord::load_dir(&dir);
        assert_eq!(loaded, vec![a, b]);
        assert!(SessionRecord::load_dir(Path::new("/nonexistent-choco")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
