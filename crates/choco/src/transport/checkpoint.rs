//! Durable session checkpoints: a versioned, hash-sealed wire format.
//!
//! A [`SessionCheckpoint`] captures everything a
//! [`Session`](super::session::Session) needs to resume after a crash with
//! bit-identical results, and nothing the session seed already determines:
//!
//! * the parameter **recipe** (scheme, degree, prime bit-lengths, plain
//!   modulus / scale bits, security flag) in the one encoding every wire
//!   format shares ([`params_to_wire`]) — parameters are rebuilt
//!   deterministically on parse and cross-checked against the recorded
//!   values;
//! * the session seed and the rotation steps the server was provisioned
//!   for — no key: every key is a pure function of those two and the
//!   parameter set, so a resume derives them again exactly as
//!   `Session::with_link` first did, and a 32-byte **key fingerprint**
//!   (BLAKE3 of the relinearization key's wire form) catches a binary that
//!   would derive different ones;
//! * every RNG position (client encryption randomness, retry jitter) as a
//!   byte offset into its deterministic stream — the streams are pure
//!   functions of `(seed, offset)`, so a fast-forward replays them exactly;
//! * the frame sequence cursor, simulated clock, retry policy and the full
//!   [`CommLedger`];
//! * opaque channel state (in-flight queue + fault-RNG offset) from
//!   [`Channel::export_state`](super::channel::Channel::export_state); and
//! * an opaque per-workload progress blob owned by the workload.
//!
//! The body is sealed by a trailing unkeyed BLAKE3 hash (a *keyed* tag is
//! impossible — the session seed itself travels inside the blob), so any
//! truncation or bit-flip is rejected with a typed
//! [`TransportError::BadCheckpoint`] before any field is trusted. The seed
//! derives the **secret key**: the blob is client-side state, never sent
//! to the server.

use super::session::RetryPolicy;
use super::wire::{params_to_wire, put_blob, read_params, WireCursor};
use super::TransportError;
use crate::protocol::CommLedger;
use choco_he::params::{HeParams, SchemeType};
use choco_prng::blake3;

/// Wire magic for checkpoint blobs.
const MAGIC: [u8; 4] = *b"CKP1";
/// Current checkpoint format version (2: the parameter set is one
/// [`params_to_wire`] recipe; 3: rotation steps and a key fingerprint in
/// place of the keys; 4: the fingerprint hashes the packed relinearization
/// wire, so a version-3 fingerprint could never match; 5: no refresh floor
/// and no refresh-round count; 6: keygen stops drawing the public key, so
/// the relinearization key a seed derives moved and a version-5 fingerprint
/// could never match).
const VERSION: u16 = 6;
/// BLAKE3 seal and key fingerprint length.
const HASH_BYTES: usize = 32;
/// Most rotation steps a checkpoint may list — as many Galois keys as a
/// key-set decoder accepts.
const MAX_ROTATION_STEPS: usize = 4096;

/// Everything a [`Session`](super::session::Session) needs to resume,
/// in plain decoded form. Produced by [`SessionCheckpoint::from_bytes`] and
/// consumed by `Session::resume`; built by `Session::checkpoint`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The session's parameter set; its scheme must match the resuming
    /// `Session<S>`.
    pub(crate) params: HeParams,
    /// The session seed (drives keygen, tags, jitter and fault schedules).
    pub(crate) seed: Vec<u8>,
    /// Client RNG position in bytes.
    pub(crate) client_rng_drawn: u64,
    /// Encryptions performed so far.
    pub(crate) enc_ops: u64,
    /// Decryptions performed so far.
    pub(crate) dec_ops: u64,
    /// Retry/backoff/timeout policy.
    pub(crate) policy: RetryPolicy,
    /// Simulated link clock in milliseconds.
    pub(crate) clock_ms: u64,
    /// Next frame sequence number.
    pub(crate) next_seq: u64,
    /// Retry-jitter RNG position in bytes.
    pub(crate) jitter_drawn: u64,
    /// Full communication ledger.
    pub(crate) ledger: CommLedger,
    /// The rotation steps the server was provisioned for.
    pub(crate) rotation_steps: Vec<i64>,
    /// BLAKE3 of the relinearization key's wire form.
    pub(crate) key_fingerprint: [u8; HASH_BYTES],
    /// Opaque uplink channel state.
    pub(crate) uplink_state: Vec<u8>,
    /// Opaque downlink channel state.
    pub(crate) downlink_state: Vec<u8>,
    /// Opaque workload progress blob.
    pub(crate) progress: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> TransportError {
    TransportError::BadCheckpoint(msg.into())
}

impl SessionCheckpoint {
    /// Serializes the checkpoint: `CKP1` header, body, 32-byte BLAKE3 seal.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&params_to_wire(&self.params));
        put_blob(&mut out, &self.seed);
        out.extend_from_slice(&self.client_rng_drawn.to_le_bytes());
        out.extend_from_slice(&self.enc_ops.to_le_bytes());
        out.extend_from_slice(&self.dec_ops.to_le_bytes());
        out.extend_from_slice(&self.policy.max_attempts.to_le_bytes());
        out.extend_from_slice(&self.policy.base_backoff_ms.to_le_bytes());
        out.extend_from_slice(&self.policy.max_backoff_ms.to_le_bytes());
        out.extend_from_slice(&self.policy.round_timeout_ms.to_le_bytes());
        out.extend_from_slice(&self.clock_ms.to_le_bytes());
        out.extend_from_slice(&self.next_seq.to_le_bytes());
        out.extend_from_slice(&self.jitter_drawn.to_le_bytes());
        out.extend_from_slice(&self.ledger.upload_bytes.to_le_bytes());
        out.extend_from_slice(&self.ledger.download_bytes.to_le_bytes());
        out.extend_from_slice(&self.ledger.uploads.to_le_bytes());
        out.extend_from_slice(&self.ledger.downloads.to_le_bytes());
        out.extend_from_slice(&self.ledger.rounds.to_le_bytes());
        out.extend_from_slice(&self.ledger.retransmit_bytes.to_le_bytes());
        out.extend_from_slice(&self.ledger.recovery_bytes.to_le_bytes());
        out.extend_from_slice(&(self.rotation_steps.len() as u32).to_le_bytes());
        for step in &self.rotation_steps {
            out.extend_from_slice(&step.to_le_bytes());
        }
        out.extend_from_slice(&self.key_fingerprint);
        put_blob(&mut out, &self.uplink_state);
        put_blob(&mut out, &self.downlink_state);
        put_blob(&mut out, &self.progress);
        let seal = blake3::hash(&out);
        out.extend_from_slice(&seal);
        out
    }

    /// Parses and validates a checkpoint blob.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::BadCheckpoint`] on a bad magic, unknown
    /// version, broken BLAKE3 seal (any truncation or bit-flip), or a
    /// structurally implausible body — a rotation-step count past the cap
    /// among them, refused before the list is read. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TransportError> {
        if bytes.len() < MAGIC.len() + HASH_BYTES {
            return Err(bad("shorter than header + seal"));
        }
        let (body, seal) = bytes.split_at(bytes.len() - HASH_BYTES);
        // Verify the seal before trusting a single field: a sealed blob is
        // bit-for-bit what `to_bytes` produced, so parsing cannot be
        // confused by tampering — only by version skew, checked next.
        if blake3::hash(body) != seal {
            return Err(bad("BLAKE3 seal mismatch (truncated or tampered)"));
        }
        let mut r = WireCursor::sealed(body, "checkpoint body");
        if r.take(4)? != MAGIC {
            return Err(bad("bad magic"));
        }
        let version = r.take_u16()?;
        if version != VERSION {
            return Err(bad(format!("unsupported version {version}")));
        }
        // Truncation is already `BadCheckpoint` on a sealed cursor; a recipe
        // the rebuild refuses becomes one too.
        let params = read_params(&mut r).map_err(|e| match e {
            TransportError::BadCheckpoint(_) => e,
            other => bad(format!("parameter recipe: {other}")),
        })?;
        let seed = r.take_blob()?.to_vec();
        let client_rng_drawn = r.take_u64()?;
        let enc_ops = r.take_u64()?;
        let dec_ops = r.take_u64()?;
        let policy = RetryPolicy {
            max_attempts: r.take_u32()?,
            base_backoff_ms: r.take_u64()?,
            max_backoff_ms: r.take_u64()?,
            round_timeout_ms: r.take_u64()?,
        };
        let clock_ms = r.take_u64()?;
        let next_seq = r.take_u64()?;
        let jitter_drawn = r.take_u64()?;
        let ledger = CommLedger {
            upload_bytes: r.take_u64()?,
            download_bytes: r.take_u64()?,
            uploads: r.take_u32()?,
            downloads: r.take_u32()?,
            rounds: r.take_u32()?,
            retransmit_bytes: r.take_u64()?,
            recovery_bytes: r.take_u64()?,
        };
        let step_count = r.take_u32()? as usize;
        if step_count > MAX_ROTATION_STEPS {
            return Err(bad(format!("implausible rotation-step count {step_count}")));
        }
        let mut rotation_steps = Vec::with_capacity(step_count);
        for _ in 0..step_count {
            rotation_steps.push(r.take_u64()? as i64);
        }
        let mut key_fingerprint = [0u8; HASH_BYTES];
        key_fingerprint.copy_from_slice(r.take(HASH_BYTES)?);
        let uplink_state = r.take_blob()?.to_vec();
        let downlink_state = r.take_blob()?.to_vec();
        let progress = r.take_blob()?.to_vec();
        if !r.is_empty() {
            return Err(bad("trailing bytes in body"));
        }
        Ok(SessionCheckpoint {
            params,
            seed,
            client_rng_drawn,
            enc_ops,
            dec_ops,
            policy,
            clock_ms,
            next_seq,
            jitter_drawn,
            ledger,
            rotation_steps,
            key_fingerprint,
            uplink_state,
            downlink_state,
            progress,
        })
    }

    /// The scheme this checkpoint was taken under.
    pub fn scheme(&self) -> SchemeType {
        self.params.scheme()
    }

    /// The workload progress blob stored at checkpoint time.
    pub fn progress(&self) -> &[u8] {
        &self.progress
    }

    /// The ledger as of the checkpoint.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            params: HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap(),
            seed: b"ckpt test seed".to_vec(),
            client_rng_drawn: 12345,
            enc_ops: 7,
            dec_ops: 6,
            policy: RetryPolicy::default(),
            clock_ms: 9001,
            next_seq: 42,
            jitter_drawn: 88,
            ledger: CommLedger {
                upload_bytes: 100,
                download_bytes: 200,
                uploads: 3,
                downloads: 4,
                rounds: 2,
                retransmit_bytes: 50,
                recovery_bytes: 10,
            },
            rotation_steps: vec![1, -2, 3],
            key_fingerprint: [6; HASH_BYTES],
            uplink_state: vec![],
            downlink_state: vec![7, 8, 9, 10],
            progress: b"progress blob".to_vec(),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = SessionCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        // Re-serialization is bit-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn every_truncation_is_rejected_with_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            match SessionCheckpoint::from_bytes(&bytes[..cut]) {
                Err(TransportError::BadCheckpoint(_)) => {}
                other => panic!("cut at {cut}: expected BadCheckpoint, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        // Flip one bit in each byte (body and seal alike): the BLAKE3 seal
        // must catch all of them.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            match SessionCheckpoint::from_bytes(&bad) {
                Err(TransportError::BadCheckpoint(_)) => {}
                other => panic!("flip at {i}: expected BadCheckpoint, got {other:?}"),
            }
        }
    }

    /// `bytes` with its body edited by `edit` and sealed again, as a blob
    /// `to_bytes` never wrote.
    fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = bytes[..bytes.len() - HASH_BYTES].to_vec();
        edit(&mut body);
        let seal = blake3::hash(&body);
        body.extend_from_slice(&seal);
        body
    }

    /// Checkpoint `bytes` resealed under format `version`.
    pub(crate) fn with_version(bytes: &[u8], version: u16) -> Vec<u8> {
        resealed(bytes, |body| {
            body[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&version.to_le_bytes());
        })
    }

    /// Checkpoint `bytes` resealed with its rotation-step count replaced by
    /// `count`, the list itself left as it is.
    pub(crate) fn claiming_steps(bytes: &[u8], count: u32) -> Vec<u8> {
        let ck = SessionCheckpoint::from_bytes(bytes).unwrap();
        // From the end: seal, the three trailing blobs, fingerprint, list.
        let blobs = [&ck.uplink_state, &ck.downlink_state, &ck.progress];
        let tail = HASH_BYTES
            + blobs.iter().map(|b| 4 + b.len()).sum::<usize>()
            + HASH_BYTES
            + 8 * ck.rotation_steps.len();
        let at = bytes.len() - tail - 4;
        resealed(bytes, |body| {
            let old = ck.rotation_steps.len() as u32;
            assert_eq!(body[at..at + 4], old.to_le_bytes());
            body[at..at + 4].copy_from_slice(&count.to_le_bytes());
        })
    }

    #[test]
    fn a_step_count_past_the_cap_is_refused_before_the_list_is_read() {
        let bytes = sample().to_bytes();
        // At the cap the claim is only a short list: a truncation.
        let at_cap = claiming_steps(&bytes, MAX_ROTATION_STEPS as u32);
        let truncated = TransportError::BadCheckpoint("checkpoint body: truncated".into());
        assert_eq!(SessionCheckpoint::from_bytes(&at_cap), Err(truncated));
        // Past it the count alone is refused, whatever follows.
        for count in [MAX_ROTATION_STEPS as u32 + 1, u32::MAX] {
            let refused = format!("implausible rotation-step count {count}");
            let claim = claiming_steps(&bytes, count);
            let refused = TransportError::BadCheckpoint(refused);
            assert_eq!(SessionCheckpoint::from_bytes(&claim), Err(refused));
        }
    }

    #[test]
    fn params_recipe_rebuilds_and_cross_checks() {
        // The recipe follows magic and version: scheme, security flag,
        // degree, then the plain modulus — set to one the recipe does not
        // regenerate.
        let ck = sample();
        let at = MAGIC.len() + 2 + 1 + 1 + 4;
        let t = ck.params.plain_modulus();
        let wrong = resealed(&ck.to_bytes(), |body| {
            assert_eq!(body[at..at + 8], t.to_le_bytes());
            body[at..at + 8].copy_from_slice(&(t + 2).to_le_bytes());
        });
        assert!(matches!(
            SessionCheckpoint::from_bytes(&wrong),
            Err(TransportError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn a_version_1_blob_is_refused() {
        for version in [1u16, 2, 3, 4, 5] {
            let old = with_version(&sample().to_bytes(), version);
            let refused = format!("unsupported version {version}");
            let refused = TransportError::BadCheckpoint(refused);
            assert_eq!(SessionCheckpoint::from_bytes(&old), Err(refused));
        }
    }
}
