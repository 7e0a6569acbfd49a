//! Fault-tolerant client↔server transport for the offload protocol.
//!
//! The paper's evaluation assumes a perfect link: every ciphertext the
//! client uploads arrives intact. This module keeps the protocol (and its
//! communication accounting) honest when it does not. Noise is not a
//! transport concern: the parameter set bounds it before the run, and every
//! client-aided round's decrypt → re-encrypt starts the next round fresh.
//!
//! * [`frame`] defines a length-delimited wire frame — kind, sequence
//!   number, payload, and a keyed BLAKE3 integrity tag derived from the
//!   session seed. HE gives semantic security but no integrity (a bit-flip
//!   in a ciphertext decrypts to garbage, silently); the tag is the
//!   *systems-level* integrity check layered outside the HE threat model.
//! * [`channel`] is the byte-pipe abstraction: [`channel::DirectChannel`]
//!   is a lossless in-memory queue.
//! * [`fault`] provides [`fault::FaultyChannel`], a deterministic,
//!   seed-driven adversary that drops, corrupts, truncates, duplicates and
//!   delays frames per a configurable [`fault::FaultPlan`].
//! * [`session`] wraps a [`crate::protocol::Client`]/
//!   [`crate::protocol::Server`] pair in a scheme-generic
//!   [`session::Session`]: retries with bounded attempts and deterministic
//!   exponential backoff and a per-round timeout budget, with every
//!   transfer billed to the [`crate::CommLedger`].
//!
//! Everything is deterministic: channels and retry jitter are seeded, and
//! time is a simulated millisecond clock, so a given `(seed, FaultPlan)`
//! pair replays bit-identically.
//!
//! On top of the lossy-link machinery, [`checkpoint`] and the session's
//! [`session::Session::checkpoint`]/[`session::Session::resume`] pair make
//! whole offload runs *crash-tolerant*: a versioned, hash-sealed
//! [`checkpoint::SessionCheckpoint`] blob captures the seed and rotation
//! steps the keys are derived from (never the keys), counters, RNG
//! positions and in-flight channel state, and a seeded
//! [`session::CrashPlan`] kills the run at a chosen operation so the
//! kill→checkpoint→resume path is testable deterministically.

pub mod channel;
pub mod checkpoint;
pub mod fault;
pub mod frame;
pub mod session;
pub mod tcp;
pub mod wire;

pub use channel::{Channel, Delivery, DirectChannel};
pub use checkpoint::SessionCheckpoint;
pub use fault::{FaultPlan, FaultStats, FaultyChannel};
pub use frame::{Frame, FrameKind, TagKey};
pub use session::{CrashOp, CrashPlan, LinkConfig, RetryPolicy, Session};
pub use tcp::{dial, HelloStatus, Redialer, MAX_FRAME_BYTES};
pub use wire::{put_blob, WireCursor};

use choco_he::HeError;

/// Errors surfaced by the transport layer.
///
/// Malformed or tampered frames are *detected*, never propagated into the
/// HE layer: a frame either decodes to exactly the bytes that were sent or
/// the exchange is retried, and a link worse than the retry budget yields
/// [`TransportError::RetriesExhausted`] — a typed error, not garbage
/// plaintext.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// Frame shorter than its own framing overhead or declared length.
    Truncated {
        /// Bytes the frame claimed or minimally requires.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Structurally invalid frame (bad length field, unknown kind byte).
    Malformed(String),
    /// The keyed BLAKE3 tag did not match the payload: the frame was
    /// altered in flight.
    TagMismatch {
        /// Sequence number carried by the tampered frame.
        seq: u64,
    },
    /// The channel delivered nothing (the frame was dropped in flight).
    Dropped,
    /// The simulated clock exceeded the per-round timeout budget.
    TimeoutExceeded {
        /// Configured budget in milliseconds.
        budget_ms: u64,
        /// Simulated time actually spent.
        elapsed_ms: u64,
    },
    /// Every retry attempt failed; the link is worse than the retry policy
    /// can absorb.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last per-attempt failure observed.
        last: String,
    },
    /// An HE-layer error inside a session exchange (encode/encrypt/etc.).
    He(HeError),
    /// A decrypted sentinel slot did not carry its expected value: the
    /// server's result is inconsistent with the client's reserved probe.
    SentinelMismatch {
        /// Slot index of the failed sentinel.
        slot: usize,
    },
    /// The session's armed [`CrashPlan`] fired: the simulated process died
    /// at this operation. Resume from the last checkpoint.
    Crashed {
        /// The operation that was executing when the crash fired.
        op: CrashOp,
        /// 1-based count of that operation at the crash point.
        nth: u32,
    },
    /// A checkpoint blob failed validation: bad magic/version, truncated or
    /// tampered body (hash mismatch), or a scheme/parameter mismatch.
    BadCheckpoint(String),
    /// A real socket closed underneath the session: EOF, connection reset,
    /// or an I/O error that ends the connection. The carried string is the
    /// OS-level cause. A `RemoteEvaluator` opened with `connect_reliable`
    /// redials and resends.
    Disconnected(String),
    /// A length prefix on the wire declared a frame larger than the
    /// configured bound. Rejected *before* allocating, so a hostile or
    /// corrupt peer cannot force a huge allocation.
    Oversized {
        /// Bytes the prefix declared.
        declared: u64,
        /// Configured maximum frame size.
        max: u64,
    },
    /// The server refused admission: it is already serving its configured
    /// maximum number of sessions. A typed rejection, never a silent queue.
    Overloaded {
        /// Sessions active at the server when it refused.
        active: u32,
        /// The server's admission limit.
        limit: u32,
    },
    /// The server rejected the connection handshake for a reason other than
    /// load (unknown tenant, bad hello authentication, draining).
    Rejected(String),
    /// The per-session sequence space is exhausted. Practically unreachable
    /// (2^64 frames), but checked so the cursor can never silently wrap and
    /// alias old frames.
    SeqExhausted,
    /// The evaluator shed the request: its deadline passed before the
    /// scheduler dispatched it. Retryable with a fresh (or no) deadline.
    DeadlineExceeded {
        /// Request id the server shed.
        request_id: u64,
    },
    /// The evaluator's per-tenant circuit breaker is open: the tenant's
    /// recent-error rate tripped it. Retry after the hinted delay — the
    /// breaker half-opens and probes once the window elapses.
    Unavailable {
        /// Server hint: milliseconds to wait before retrying.
        retry_after_ms: u64,
    },
    /// The submitted `(params_hash, program_ref)` is quarantined: a prior
    /// evaluation of it failed in isolation. Terminal — resubmitting the
    /// same program yields the same refusal until the server restarts.
    Quarantined(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            TransportError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            TransportError::TagMismatch { seq } => {
                write!(f, "integrity tag mismatch on frame seq {seq}")
            }
            TransportError::Dropped => write!(f, "frame dropped in flight"),
            TransportError::TimeoutExceeded {
                budget_ms,
                elapsed_ms,
            } => {
                write!(
                    f,
                    "round timeout exceeded: {elapsed_ms} ms spent, budget {budget_ms} ms"
                )
            }
            TransportError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempts (last: {last})"
                )
            }
            TransportError::He(e) => write!(f, "HE error during exchange: {e}"),
            TransportError::SentinelMismatch { slot } => {
                write!(f, "sentinel slot {slot} decrypted to an unexpected value")
            }
            TransportError::Crashed { op, nth } => {
                write!(f, "simulated crash at {op:?} #{nth}")
            }
            TransportError::BadCheckpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            TransportError::Disconnected(msg) => write!(f, "connection lost: {msg}"),
            TransportError::Oversized { declared, max } => {
                write!(
                    f,
                    "oversized frame: prefix declares {declared} bytes, max {max}"
                )
            }
            TransportError::Overloaded { active, limit } => {
                write!(
                    f,
                    "server overloaded: {active} active sessions, limit {limit}"
                )
            }
            TransportError::Rejected(msg) => write!(f, "connection rejected: {msg}"),
            TransportError::SeqExhausted => write!(f, "frame sequence space exhausted"),
            TransportError::DeadlineExceeded { request_id } => {
                write!(
                    f,
                    "request {request_id} shed: deadline passed before dispatch"
                )
            }
            TransportError::Unavailable { retry_after_ms } => {
                write!(
                    f,
                    "tenant circuit breaker open: retry after {retry_after_ms} ms"
                )
            }
            TransportError::Quarantined(msg) => write!(f, "program quarantined: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<HeError> for TransportError {
    fn from(e: HeError) -> Self {
        TransportError::He(e)
    }
}
