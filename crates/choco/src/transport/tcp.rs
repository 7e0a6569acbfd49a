//! Real-socket transport: length-prefixed frames over `std::net::TcpStream`.
//!
//! A served connection carries the same keyed-BLAKE3 frames as the
//! in-memory channels — a frame's own leading `u32` length field doubles as
//! the socket-level length prefix, so the bytes on the wire are the encoded
//! frame, verbatim. What changes is the failure model: real sockets add
//! partial reads, write timeouts, connection resets and absurd length
//! prefixes from corrupt or hostile peers. All of those surface as *typed*
//! [`TransportError`] values, never panics and never unbounded allocations.
//!
//! This module is the socket layer under the remote evaluator
//! (`choco::remote` on the client, `choco-serve` on the server): [`BlobIo`]
//! reads and writes length-prefixed blobs, [`dial`] runs the authenticated
//! hello handshake and hands back the admitted connection, and
//! [`Redialer`] repeats the dial with bounded backoff. Which frames cross
//! the connection, and what answers them, is the evaluator protocol's
//! business, not this module's.

use super::frame::TagKey;
use super::session::RetryPolicy;
use super::wire::WireCursor;
use super::TransportError;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on a single frame accepted off the wire. A length prefix
/// declaring more than this is rejected *before* any allocation happens —
/// a corrupt or hostile peer cannot force the receiver to reserve gigabytes.
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// Socket tuning for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// How long a client waits for an expected response before giving the
    /// read up with [`TransportError::TimeoutExceeded`], in real
    /// milliseconds.
    pub recv_deadline_ms: u64,
    /// Write timeout and handshake-read timeout, in real milliseconds.
    pub io_timeout_ms: u64,
    /// Per-frame size bound enforced on the read path.
    pub max_frame_bytes: u64,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            recv_deadline_ms: 2_000,
            io_timeout_ms: 5_000,
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

fn elapsed_ms(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

fn le_u32(bytes: &[u8]) -> Option<u32> {
    bytes.get(..4)?.try_into().ok().map(u32::from_le_bytes)
}

/// Length-prefixed blob I/O over one [`TcpStream`]: partial reads are
/// kept across calls, length prefixes are bounds-checked before
/// allocating, and every failure is a typed [`TransportError`]. Both ends
/// of a served connection — `RemoteEvaluator` and the `choco-serve`
/// connection threads — read and write through it.
///
/// Reads never run ahead: a message is read into its own buffer, exactly
/// to its end, so whatever the peer sent behind it is still in the socket
/// (see [`BlobIo::bytes_pending`]).
///
/// **Deadlines are coarse.** A read deadline is the socket's
/// `SO_RCVTIMEO`, which the kernel rounds up to scheduler ticks: a 2 ms
/// deadline measures 4–8 ms. Use deadlines to bound how long a dead peer
/// is waited for, never to poll at millisecond granularity. A call may
/// also overrun its deadline by up to one more deadline when bytes keep
/// trickling in.
pub struct BlobIo {
    stream: TcpStream,
    /// The message being assembled: `buf[..have]` has arrived.
    buf: Vec<u8>,
    have: usize,
    /// The `SO_RCVTIMEO` last set on the socket, in milliseconds (0 = not
    /// set yet), so a caller reusing one deadline pays no `setsockopt`.
    read_timeout_ms: u64,
    max_frame_bytes: u64,
}

impl BlobIo {
    /// Wraps a connected stream. Disables Nagle so small control frames
    /// don't stall behind the ACK clock.
    pub fn new(stream: TcpStream, max_frame_bytes: u64) -> Self {
        let _ = stream.set_nodelay(true);
        BlobIo {
            stream,
            buf: Vec::new(),
            have: 0,
            read_timeout_ms: 0,
            max_frame_bytes,
        }
    }

    /// The underlying stream (e.g. for `shutdown` or peer-address logging).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether the peer has already sent bytes behind the last message
    /// read — a pipelining client's next request. Never blocks.
    ///
    /// The probe flips the socket to non-blocking for one `peek`, and that
    /// mode is shared by every clone of the stream: a thread writing
    /// through a clone meanwhile must use [`write_all_beside_probe`].
    pub fn bytes_pending(&self) -> bool {
        if self.have > 0 {
            return true;
        }
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let pending = matches!(self.stream.peek(&mut [0u8; 1]), Ok(n) if n > 0);
        let _ = self.stream.set_nonblocking(false);
        pending
    }

    /// Reads socket bytes straight into `buf` until it holds `n`.
    /// `Ok(false)` means the deadline passed first (what arrived stays in
    /// `buf` for the next call); a zero deadline never touches the socket.
    fn fill(&mut self, n: usize, deadline_ms: u64) -> Result<bool, TransportError> {
        if self.have >= n {
            return Ok(true);
        }
        if deadline_ms == 0 {
            return Ok(false);
        }
        if self.read_timeout_ms != deadline_ms {
            self.stream
                .set_read_timeout(Some(Duration::from_millis(deadline_ms)))
                .map_err(|e| TransportError::Disconnected(format!("set read timeout: {e}")))?;
            self.read_timeout_ms = deadline_ms;
        }
        self.buf.resize(n, 0);
        let start = Instant::now();
        while self.have < n {
            let room = self.buf.get_mut(self.have..).unwrap_or_default();
            match self.stream.read(room) {
                Ok(0) => {
                    return Err(TransportError::Disconnected(
                        "peer closed the connection".into(),
                    ))
                }
                Ok(got) => self.have += got,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(false)
                }
                Err(e) => return Err(TransportError::Disconnected(format!("read: {e}"))),
            }
            if self.have < n && elapsed_ms(start) >= deadline_ms {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Hands out the assembled message and resets for the next one.
    fn take_msg(&mut self) -> Vec<u8> {
        self.have = 0;
        std::mem::take(&mut self.buf)
    }

    /// Reads one length-prefixed blob (prefix included in the returned
    /// bytes, matching the frame wire format). `Ok(None)` if the deadline
    /// passes before a complete blob arrives — partially read bytes stay
    /// buffered and the next call continues where this one stopped.
    ///
    /// # Errors
    ///
    /// [`TransportError::Oversized`] if the prefix declares more than the
    /// configured bound (checked before allocating);
    /// [`TransportError::Disconnected`] on EOF or a socket error.
    pub fn read_blob(&mut self, deadline_ms: u64) -> Result<Option<Vec<u8>>, TransportError> {
        if !self.fill(4, deadline_ms)? {
            return Ok(None);
        }
        let declared = u64::from(le_u32(&self.buf).unwrap_or(0));
        if declared > self.max_frame_bytes {
            return Err(TransportError::Oversized {
                declared,
                max: self.max_frame_bytes,
            });
        }
        if !self.fill(declared as usize + 4, deadline_ms)? {
            return Ok(None);
        }
        Ok(Some(self.take_msg()))
    }

    /// Reads exactly `n` raw bytes (no length prefix) — used for the
    /// fixed-size hello/ack handshake messages. `Ok(None)` on deadline.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] on EOF or a socket error.
    pub fn read_msg(
        &mut self,
        n: usize,
        deadline_ms: u64,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        if !self.fill(n, deadline_ms)? {
            return Ok(None);
        }
        Ok(Some(self.take_msg()))
    }

    /// Writes all of `bytes` to the socket.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] on any write failure — a write
    /// timeout mid-frame leaves the stream unframeable, so it is treated as
    /// a dead connection, not retried in place.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.stream
            .write_all(bytes)
            .and_then(|_| self.stream.flush())
            .map_err(|e| TransportError::Disconnected(format!("write: {e}")))
    }
}

/// `write_all` for a clone of a stream whose owner calls
/// [`BlobIo::bytes_pending`]. While the probe has the socket non-blocking
/// a write into a full send buffer fails with `WouldBlock` at once instead
/// of waiting; that is retried. Only `timeout` (the socket's write
/// timeout) without a byte accepted is the peer not reading.
///
/// # Errors
///
/// The socket's own error, `WriteZero` if it stops accepting bytes.
pub fn write_all_beside_probe(
    mut stream: &TcpStream,
    mut bytes: &[u8],
    timeout: Duration,
) -> std::io::Result<()> {
    let mut progressed = Instant::now();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                bytes = bytes.get(n..).unwrap_or_default();
                progressed = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock && progressed.elapsed() < timeout => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Magic prefix of the client hello.
pub const HELLO_MAGIC: &[u8; 4] = b"CHLO";
/// Magic prefix of the server's hello ack.
pub const ACK_MAGIC: &[u8; 4] = b"CHAK";
/// Handshake wire version.
pub const HELLO_VERSION: u16 = 1;
/// Size of an encoded hello: magic, version, tenant, session, resume flag,
/// keyed auth tag.
pub const HELLO_BYTES: usize = 4 + 2 + 8 + 8 + 1 + 32;
/// Size of an encoded ack: magic, status byte, active, limit.
pub const ACK_BYTES: usize = 4 + 1 + 4 + 4;

/// A decoded client hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Tenant whose key registry entry authenticates this connection.
    pub tenant: u64,
    /// Client-chosen session id (distinguishes a tenant's parallel
    /// sessions; a redial of the session repeats it).
    pub session: u64,
    /// Whether this is a redial of a session that lost its connection.
    pub resume: bool,
    /// Keyed BLAKE3 tag over the fields above under the tenant's tag key.
    pub auth: [u8; 32],
}

fn hello_body(tenant: u64, session: u64, resume: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(17);
    body.extend_from_slice(&tenant.to_le_bytes());
    body.extend_from_slice(&session.to_le_bytes());
    body.push(u8::from(resume));
    body
}

impl Hello {
    /// Checks the hello's auth tag against a tenant tag key.
    pub fn verify(&self, key: &TagKey) -> bool {
        key.labeled_tag(
            "tcp-hello",
            &hello_body(self.tenant, self.session, self.resume),
        ) == self.auth
    }
}

/// Encodes an authenticated client hello.
pub fn encode_hello(key: &TagKey, tenant: u64, session: u64, resume: bool) -> Vec<u8> {
    let body = hello_body(tenant, session, resume);
    let mut out = Vec::with_capacity(HELLO_BYTES);
    out.extend_from_slice(HELLO_MAGIC);
    out.extend_from_slice(&HELLO_VERSION.to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&key.labeled_tag("tcp-hello", &body));
    out
}

/// Decodes a client hello (structure only — verify the auth tag against the
/// tenant's key with [`Hello::verify`] once the tenant is looked up).
///
/// # Errors
///
/// [`TransportError::Malformed`] on bad magic/version,
/// [`TransportError::Truncated`] if bytes are missing.
pub fn decode_hello(bytes: &[u8]) -> Result<Hello, TransportError> {
    let mut rest = WireCursor::new(bytes);
    if rest.take(4)? != HELLO_MAGIC {
        return Err(TransportError::Malformed("bad hello magic".into()));
    }
    let ver = rest.take_u16()?;
    if ver != HELLO_VERSION {
        return Err(TransportError::Malformed(format!(
            "unsupported hello version {ver}"
        )));
    }
    let tenant = rest.take_u64()?;
    let session = rest.take_u64()?;
    let resume = rest.take_u8()? != 0;
    let auth: [u8; 32] = rest
        .take(32)?
        .try_into()
        .map_err(|_| TransportError::Malformed("bad hello auth".into()))?;
    Ok(Hello {
        tenant,
        session,
        resume,
        auth,
    })
}

/// The server's verdict on a client hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloStatus {
    /// Admitted: the connection now carries evaluator frames.
    Ok,
    /// Refused: the server is at its session limit.
    Overloaded {
        /// Sessions active when the hello arrived.
        active: u32,
        /// Configured admission limit.
        limit: u32,
    },
    /// Refused: the tenant id is not in the key registry.
    UnknownTenant,
    /// Refused: the server is draining for shutdown.
    Draining,
    /// Refused: the hello auth tag did not verify under the tenant's key.
    BadAuth,
}

/// Encodes a hello ack.
pub fn encode_ack(status: HelloStatus) -> Vec<u8> {
    let (code, active, limit) = match status {
        HelloStatus::Ok => (0u8, 0, 0),
        HelloStatus::Overloaded { active, limit } => (1, active, limit),
        HelloStatus::UnknownTenant => (2, 0, 0),
        HelloStatus::Draining => (3, 0, 0),
        HelloStatus::BadAuth => (4, 0, 0),
    };
    let mut out = Vec::with_capacity(ACK_BYTES);
    out.extend_from_slice(ACK_MAGIC);
    out.push(code);
    out.extend_from_slice(&active.to_le_bytes());
    out.extend_from_slice(&limit.to_le_bytes());
    out
}

/// Decodes a hello ack.
///
/// # Errors
///
/// [`TransportError::Malformed`] on bad magic or status code,
/// [`TransportError::Truncated`] if bytes are missing.
pub fn decode_ack(bytes: &[u8]) -> Result<HelloStatus, TransportError> {
    let mut rest = WireCursor::new(bytes);
    if rest.take(4)? != ACK_MAGIC {
        return Err(TransportError::Malformed("bad ack magic".into()));
    }
    let code = rest.take_u8()?;
    let active = rest.take_u32()?;
    let limit = rest.take_u32()?;
    Ok(match code {
        0 => HelloStatus::Ok,
        1 => HelloStatus::Overloaded { active, limit },
        2 => HelloStatus::UnknownTenant,
        3 => HelloStatus::Draining,
        4 => HelloStatus::BadAuth,
        other => {
            return Err(TransportError::Malformed(format!(
                "unknown ack status {other}"
            )))
        }
    })
}

/// Connects to a `choco-serve` instance, runs the authenticated hello
/// handshake, and returns the admitted connection.
///
/// # Errors
///
/// [`TransportError::Disconnected`] if the connect or handshake I/O fails,
/// [`TransportError::Overloaded`] if the server refused admission for load,
/// [`TransportError::Rejected`] for every other refusal (unknown tenant,
/// bad auth, draining, ack timeout).
pub fn dial(
    addr: &str,
    key: &TagKey,
    tenant: u64,
    session: u64,
    resume: bool,
    opts: &TcpOptions,
) -> Result<BlobIo, TransportError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| TransportError::Disconnected(format!("connect {addr}: {e}")))?;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(opts.io_timeout_ms.max(1))));
    let mut io = BlobIo::new(stream, opts.max_frame_bytes);
    io.write_all(&encode_hello(key, tenant, session, resume))?;
    let ack = io
        .read_msg(ACK_BYTES, opts.io_timeout_ms)?
        .ok_or_else(|| TransportError::Rejected("hello ack timed out".into()))?;
    match decode_ack(&ack)? {
        HelloStatus::Ok => Ok(io),
        HelloStatus::Overloaded { active, limit } => {
            Err(TransportError::Overloaded { active, limit })
        }
        HelloStatus::UnknownTenant => Err(TransportError::Rejected("unknown tenant".into())),
        HelloStatus::Draining => Err(TransportError::Rejected("server draining".into())),
        HelloStatus::BadAuth => Err(TransportError::Rejected(
            "hello authentication failed".into(),
        )),
    }
}

/// Bounded-backoff redialing for client auto-reconnect: retries transient
/// refusals (connection refused/reset, overloaded, draining) per a
/// [`RetryPolicy`], fails fast on permanent ones (unknown tenant, bad
/// auth). Backoff sleeps are real wall time.
pub struct Redialer {
    addr: String,
    key: TagKey,
    tenant: u64,
    session: u64,
    /// Attempt budget and backoff schedule for one redial.
    pub policy: RetryPolicy,
    /// Socket tuning applied to each dialed connection.
    pub opts: TcpOptions,
}

impl Redialer {
    /// A redialer for one (tenant, session) endpoint; the tag key is
    /// derived from the session seed exactly as the session derives it.
    pub fn new(addr: impl Into<String>, seed: &[u8], tenant: u64, session: u64) -> Self {
        Redialer {
            addr: addr.into(),
            key: TagKey::from_session_seed(seed),
            tenant,
            session,
            policy: RetryPolicy::default(),
            opts: TcpOptions::default(),
        }
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the socket options.
    pub fn with_opts(mut self, opts: TcpOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Dials the initial (non-resume) connection, with retries.
    ///
    /// # Errors
    ///
    /// [`TransportError::RetriesExhausted`] once the attempt budget is
    /// spent; permanent refusals propagate immediately.
    pub fn dial_fresh(&self) -> Result<BlobIo, TransportError> {
        self.attempt(false)
    }

    /// Redials with the resume flag set (after a disconnect), with retries.
    ///
    /// # Errors
    ///
    /// Same as [`Redialer::dial_fresh`].
    pub fn redial(&self) -> Result<BlobIo, TransportError> {
        self.attempt(true)
    }

    fn attempt(&self, resume: bool) -> Result<BlobIo, TransportError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = TransportError::Dropped;
        for attempt in 0..attempts {
            match dial(
                &self.addr,
                &self.key,
                self.tenant,
                self.session,
                resume,
                &self.opts,
            ) {
                Ok(io) => return Ok(io),
                // Transient: the server may be restarting, at capacity, or
                // mid-drain. Back off and retry.
                Err(e @ (TransportError::Disconnected(_) | TransportError::Overloaded { .. })) => {
                    last = e;
                }
                Err(TransportError::Rejected(msg))
                    if msg.contains("draining") || msg.contains("timed out") =>
                {
                    last = TransportError::Rejected(msg);
                }
                Err(e) => return Err(e),
            }
            if attempt + 1 < attempts {
                let backoff = self
                    .policy
                    .base_backoff_ms
                    .saturating_mul(1u64 << attempt.min(16))
                    .min(self.policy.max_backoff_ms);
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
        Err(TransportError::RetriesExhausted {
            attempts,
            last: last.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> TagKey {
        TagKey::from_session_seed(b"tcp hello tests")
    }

    #[test]
    fn hello_roundtrips_and_verifies() {
        let k = key();
        let wire = encode_hello(&k, 7, 42, true);
        assert_eq!(wire.len(), HELLO_BYTES);
        let h = decode_hello(&wire).unwrap();
        assert_eq!(h.tenant, 7);
        assert_eq!(h.session, 42);
        assert!(h.resume);
        assert!(h.verify(&k));
        assert!(!h.verify(&TagKey::from_session_seed(b"wrong key")));
    }

    #[test]
    fn hello_rejects_tampering() {
        let k = key();
        let wire = encode_hello(&k, 1, 2, false);
        for byte in 4..wire.len() - 32 {
            let mut bad = wire.clone();
            bad[byte] ^= 1;
            // Version-byte flips fail structurally in decode; every other
            // flip must fail tag verification.
            if let Ok(h) = decode_hello(&bad) {
                assert!(!h.verify(&k), "tampered byte {byte} still verified");
            }
        }
        assert!(decode_hello(&wire[..HELLO_BYTES - 1]).is_err());
        let mut bad_magic = wire;
        bad_magic[0] = b'X';
        assert!(decode_hello(&bad_magic).is_err());
    }

    #[test]
    fn ack_roundtrips_every_status() {
        for status in [
            HelloStatus::Ok,
            HelloStatus::Overloaded {
                active: 9,
                limit: 8,
            },
            HelloStatus::UnknownTenant,
            HelloStatus::Draining,
            HelloStatus::BadAuth,
        ] {
            let wire = encode_ack(status);
            assert_eq!(wire.len(), ACK_BYTES);
            assert_eq!(decode_ack(&wire).unwrap(), status);
        }
        assert!(decode_ack(b"CHAKxxxxxxxxx").is_err());
        assert!(decode_ack(b"CHAK").is_err());
    }
}
