//! Resilient protocol sessions: retries, backoff and crash recovery — one
//! implementation, generic over the scheme and run over any channel.
//!
//! A [`Session<S>`] owns both protocol roles plus the two directed boxed
//! [`Channel`]s between them, and replaces the bare `upload`/`download`
//! helpers of [`crate::protocol`] with fault-tolerant exchanges. "Direct" and
//! "resilient" are not separate code paths: a session over
//! [`DirectChannel`](super::channel::DirectChannel) *is* the zero-fault
//! instance, and bills identically to the fault-free protocol.
//!
//! * every ciphertext crosses the link as a tagged frame
//!   ([`super::frame`]); the receiver discards corrupt, truncated and stale
//!   duplicate deliveries by tag and sequence number;
//! * a failed exchange is retried up to [`RetryPolicy::max_attempts`]
//!   times with exponential backoff and deterministic jitter on a
//!   *simulated* millisecond clock (runs are reproducible; no wall time);
//! * the first attempt of an exchange bills the ciphertext's payload bytes
//!   to the regular [`CommLedger`] counters — identical to the fault-free
//!   protocol, keeping Figure-10-style reports comparable — while every
//!   retransmission bills its full wire bytes to
//!   [`CommLedger::retransmit_bytes`];
//! * the session never decrypts a server-side ciphertext: noise is bounded
//!   before the run by the parameter set, and each client-aided round's
//!   download → decrypt → re-encrypt → upload starts the next round fresh;
//! * the server half runs every workload's server work as a compiled
//!   program and keeps the programs it runs repeatedly — a conv layer per
//!   weight set, the FC, a PageRank burst per length, a distance kernel per
//!   point set — with their encoded operands ([`Session::run_resident`]),
//!   so a workload's second inference, burst or iteration compiles and
//!   encodes nothing.

use super::channel::Channel;
use super::checkpoint::SessionCheckpoint;
use super::fault::FaultStats;
use super::frame::{self, FrameKind, TagKey};
use super::TransportError;
use crate::compiler::{CachedProgram, CompiledProgram, CompilerScheme};
use crate::protocol::{Client, CommLedger, Server};
use choco_he::cache::{CacheCounters, OperandCache};
use choco_he::params::{HeParams, SchemeType};
use choco_he::{HeError, HeScheme};
use choco_prng::{blake3, Blake3Rng};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiled programs a session's server half keeps resident; past this the
/// least recently used one is dropped.
const RESIDENT_PROGRAMS: usize = 8;

/// Bounded-retry policy for one frame exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per exchange (first try included).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in milliseconds; doubles per
    /// attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
    /// Simulated-time budget for one exchange, in milliseconds.
    pub round_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            round_timeout_ms: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Exponential backoff for `attempt` (0-based), plus deterministic
    /// jitter in `[0, backoff/2]` drawn from the session's jitter stream.
    fn backoff_ms(&self, attempt: u32, jitter: &mut Blake3Rng) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms);
        // Saturating: a near-`u64::MAX` ceiling plus jitter must clamp, not
        // wrap (overflow checks are on in test builds).
        exp.saturating_add(jitter.next_below(exp / 2 + 1))
    }
}

/// Channels plus retry policy — everything a resilient application runner
/// needs to describe its link, bundled so runner signatures stay short.
pub struct LinkConfig {
    /// Client → server channel.
    pub uplink: Box<dyn Channel>,
    /// Server → client channel.
    pub downlink: Box<dyn Channel>,
    /// Retry/backoff/timeout budget per exchange.
    pub policy: RetryPolicy,
}

impl LinkConfig {
    /// Perfect in-memory channels with the default retry policy.
    pub fn direct() -> Self {
        LinkConfig {
            uplink: Box::new(super::channel::DirectChannel::new()),
            downlink: Box::new(super::channel::DirectChannel::new()),
            policy: RetryPolicy::default(),
        }
    }
}

enum Direction {
    Upload,
    Download,
}

/// Which ledger line a transfer's first attempt bills: `Primary` is the
/// regular upload/download accounting, `Recovery` is post-crash traffic
/// (the reconnect handshake) kept on its own line so
/// crash-interrupted runs stay point-comparable to uninterrupted ones.
#[derive(Clone, Copy)]
enum Billing {
    Primary,
    Recovery,
}

/// The session operation kinds a [`CrashPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// A client → server ciphertext transfer.
    Upload,
    /// A server → client ciphertext transfer.
    Download,
    /// A server-side compute step (driven by [`Session::compute_tick`]).
    Compute,
}

/// A deterministic crash point: kill the session at the `nth` occurrence
/// (1-based) of `op`. Armed via [`Session::arm_crash`]; fires exactly once
/// as a typed [`TransportError::Crashed`], *before* the operation bills or
/// draws randomness, so a resume from the last checkpoint replays the run
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Operation kind to kill.
    pub op: CrashOp,
    /// 1-based occurrence count at which the crash fires.
    pub nth: u32,
}

/// The wire frame kind carrying ciphertexts of scheme `S`.
fn ciphertext_kind<S: HeScheme>() -> FrameKind {
    match S::SCHEME {
        SchemeType::Bfv => FrameKind::BfvCiphertext,
        SchemeType::Ckks => FrameKind::CkksCiphertext,
    }
}

/// The shared retry engine: everything except the scheme-specific
/// serialization.
struct Link {
    uplink: Box<dyn Channel>,
    downlink: Box<dyn Channel>,
    tag_key: TagKey,
    policy: RetryPolicy,
    jitter: Blake3Rng,
    clock_ms: u64,
    next_seq: u64,
}

impl Link {
    fn new(
        seed: &[u8],
        uplink: Box<dyn Channel>,
        downlink: Box<dyn Channel>,
        policy: RetryPolicy,
    ) -> Self {
        Link {
            uplink,
            downlink,
            tag_key: TagKey::from_session_seed(seed),
            policy,
            jitter: Blake3Rng::from_seed_labeled(seed, "retry-jitter"),
            clock_ms: 0,
            next_seq: 0,
        }
    }

    /// Sends `payload` one way and waits for it to arrive intact, retrying
    /// per the policy. Returns the delivered payload bytes.
    fn transfer(
        &mut self,
        dir: Direction,
        kind: FrameKind,
        payload: &[u8],
        billed_payload: usize,
        billing: Billing,
        ledger: &mut CommLedger,
    ) -> Result<Vec<u8>, TransportError> {
        let seq = self.next_seq;
        // The cursor must never wrap: a wrapped seq would alias a frame from
        // the beginning of the session and defeat stale-duplicate rejection.
        if seq == u64::MAX {
            return Err(TransportError::SeqExhausted);
        }
        self.next_seq += 1;
        let wire = frame::encode_frame(kind, seq, payload, &self.tag_key);
        let start = self.clock_ms;
        let mut last = TransportError::Dropped;
        for attempt in 0..self.policy.max_attempts {
            let channel = match dir {
                Direction::Upload => &mut self.uplink,
                Direction::Download => &mut self.downlink,
            };
            channel.send(wire.clone());
            if attempt == 0 {
                // Bill exactly what the fault-free protocol would: the
                // ciphertext payload, not the framing overhead. Recovery
                // traffic goes to its own ledger line.
                match billing {
                    Billing::Primary => match dir {
                        Direction::Upload => ledger.record_upload(billed_payload),
                        Direction::Download => ledger.record_download(billed_payload),
                    },
                    Billing::Recovery => ledger.record_recovery(billed_payload),
                }
            } else {
                ledger.record_retransmit(wire.len());
            }
            // Drain deliveries until our frame verifies or the pipe is dry.
            let mut arrived = None;
            loop {
                let channel = match dir {
                    Direction::Upload => &mut self.uplink,
                    Direction::Download => &mut self.downlink,
                };
                let Some(delivery) = channel.recv() else {
                    break;
                };
                self.clock_ms += delivery.latency_ms;
                match frame::decode_frame(&delivery.wire, &self.tag_key) {
                    Ok(f) if f.seq == seq => {
                        arrived = Some(f.payload);
                        break;
                    }
                    // A verified frame with an older seq is a stale
                    // duplicate from a previous exchange: discard.
                    Ok(_) => continue,
                    Err(e) => {
                        last = e;
                        continue;
                    }
                }
            }
            if let Some(bytes) = arrived {
                return Ok(bytes);
            }
            if attempt + 1 < self.policy.max_attempts {
                self.clock_ms += self.policy.backoff_ms(attempt, &mut self.jitter);
            }
            let elapsed = self.clock_ms - start;
            if elapsed > self.policy.round_timeout_ms {
                return Err(TransportError::TimeoutExceeded {
                    budget_ms: self.policy.round_timeout_ms,
                    elapsed_ms: elapsed,
                });
            }
        }
        Err(TransportError::RetriesExhausted {
            attempts: self.policy.max_attempts,
            last: last.to_string(),
        })
    }
}

/// A fault-tolerant offload session, generic over scheme `S`, over the
/// boxed channels of a [`LinkConfig`].
pub struct Session<S: CompilerScheme> {
    client: Client<S>,
    server: Server<S>,
    link: Link,
    ledger: CommLedger,
    params: HeParams,
    seed: Vec<u8>,
    rotation_steps: Vec<i64>,
    crash: Option<CrashPlan>,
    ops: [u32; 3],
    /// Server-side: compiled programs by their callers' exact definitions
    /// (see [`Session::run_resident`]). Not checkpointed.
    programs: OperandCache<Vec<u64>, Arc<CachedProgram<S>>>,
}

impl<S: CompilerScheme> Session<S> {
    /// Builds a session: keygen from `seed`, server provisioned with
    /// `rotation_steps`, frames exchanged over `link`'s channels under its
    /// retry policy.
    ///
    /// # Errors
    ///
    /// Propagates HE-layer setup failures.
    pub fn with_link(
        params: &HeParams,
        seed: &[u8],
        rotation_steps: &[i64],
        link: LinkConfig,
    ) -> Result<Self, TransportError> {
        let mut client = Client::<S>::new(params, seed)?;
        let server = client.provision_server(rotation_steps)?;
        Ok(Session {
            client,
            server,
            link: Link::new(seed, link.uplink, link.downlink, link.policy),
            ledger: CommLedger::new(),
            params: params.clone(),
            seed: seed.to_vec(),
            rotation_steps: rotation_steps.to_vec(),
            crash: None,
            ops: [0; 3],
            programs: OperandCache::new(RESIDENT_PROGRAMS),
        })
    }

    /// Convenience constructor over perfect in-memory channels — the
    /// zero-fault instance that replaces the old "direct" code path.
    ///
    /// # Errors
    ///
    /// Propagates HE-layer setup failures.
    pub fn direct(
        params: &HeParams,
        seed: &[u8],
        rotation_steps: &[i64],
    ) -> Result<Self, TransportError> {
        Self::with_link(params, seed, rotation_steps, LinkConfig::direct())
    }

    /// The client role.
    pub fn client_mut(&mut self) -> &mut Client<S> {
        &mut self.client
    }

    /// The server role.
    pub fn server(&self) -> &Server<S> {
        &self.server
    }

    /// The parameter set both roles were built from.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// The communication ledger.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Mutable ledger access (for marking protocol rounds).
    pub fn ledger_mut(&mut self) -> &mut CommLedger {
        &mut self.ledger
    }

    /// Simulated milliseconds spent on the link so far.
    pub fn clock_ms(&self) -> u64 {
        self.link.clock_ms
    }

    /// Fault counters of the client → server link.
    pub fn uplink_stats(&self) -> FaultStats {
        self.link.uplink.fault_stats()
    }

    /// Fault counters of the server → client link.
    pub fn downlink_stats(&self) -> FaultStats {
        self.link.downlink.fault_stats()
    }

    /// Sends a ciphertext client → server, retrying until it arrives
    /// intact.
    ///
    /// # Errors
    ///
    /// Typed transport errors if the link is worse than the retry budget.
    pub fn upload(&mut self, ct: &S::Ciphertext) -> Result<S::Ciphertext, TransportError> {
        self.crash_check(CrashOp::Upload)?;
        let payload = S::ct_to_wire(ct);
        let billed = S::ct_bytes(ct);
        let bytes = self.link.transfer(
            Direction::Upload,
            ciphertext_kind::<S>(),
            &payload,
            billed,
            Billing::Primary,
            &mut self.ledger,
        )?;
        Ok(S::ct_from_wire(&bytes)?)
    }

    /// Sends a ciphertext server → client in its download form
    /// ([`CompilerScheme::download`]: a BFV reply compressed, which a
    /// resident program's output already is), retrying until it arrives
    /// intact.
    ///
    /// # Errors
    ///
    /// Typed transport errors if the link is worse than the retry budget;
    /// HE errors from the download step.
    pub fn download(&mut self, ct: &S::Ciphertext) -> Result<S::Ciphertext, TransportError> {
        self.crash_check(CrashOp::Download)?;
        let ct = S::download(self.server.context(), ct)?;
        let payload = S::ct_to_wire(&ct);
        let billed = S::ct_bytes(&ct);
        let bytes = self.link.transfer(
            Direction::Download,
            ciphertext_kind::<S>(),
            &payload,
            billed,
            Billing::Primary,
            &mut self.ledger,
        )?;
        Ok(S::ct_from_wire(&bytes)?)
    }

    /// [`Session::download`] plus sentinel verification: downloads the
    /// ciphertext, decrypts it once, and checks that each `(slot, value)`
    /// pair in `expected` holds (exactly under BFV, within `tol` under
    /// CKKS). Returns the delivered ciphertext and the decrypted slots so
    /// callers don't decrypt twice.
    ///
    /// # Errors
    ///
    /// [`TransportError::SentinelMismatch`] names the first failing slot;
    /// transport errors propagate from the download itself.
    pub fn download_checked(
        &mut self,
        ct: &S::Ciphertext,
        expected: &[(usize, S::Value)],
        tol: f64,
    ) -> Result<(S::Ciphertext, Vec<S::Value>), TransportError> {
        let back = self.download(ct)?;
        let values = self.client.decrypt(&back)?;
        for &(slot, want) in expected {
            let got = values
                .get(slot)
                .copied()
                .ok_or(TransportError::SentinelMismatch { slot })?;
            if !S::value_matches(got, want, tol) {
                return Err(TransportError::SentinelMismatch { slot });
            }
        }
        Ok((back, values))
    }

    /// Returns `ct` unchanged. The benchmark crate's LeNet driver
    /// (`benchmark/src/lenet.rs`) still calls it, and the benchmark changes
    /// only together with its baseline; this method goes when that call
    /// does. Nothing else calls it.
    ///
    /// # Errors
    ///
    /// None: the `Result` keeps the driver's call compiling.
    pub fn guard(&mut self, ct: &S::Ciphertext) -> Result<S::Ciphertext, TransportError> {
        Ok(ct.clone())
    }

    /// Consumes the session, returning the roles and the final ledger.
    pub fn into_parts(self) -> (Client<S>, Server<S>, CommLedger) {
        (self.client, self.server, self.ledger)
    }

    /// Arms a deterministic crash point. At the `nth` occurrence of the
    /// planned operation the session returns
    /// [`TransportError::Crashed`] *before* billing or drawing randomness.
    /// One plan per run; [`Session::resume`] does not re-arm.
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
    }

    /// How many times `op` has started in this session instance (crash
    /// checks included). Resets to zero on resume.
    pub fn op_count(&self, op: CrashOp) -> u32 {
        self.ops[op as usize]
    }

    /// Marks one server-side compute step so a [`CrashPlan`] can target
    /// `CrashOp::Compute`. Workload steps call this before each major
    /// server kernel.
    ///
    /// # Errors
    ///
    /// [`TransportError::Crashed`] when the armed plan fires here.
    pub fn compute_tick(&mut self) -> Result<(), TransportError> {
        self.crash_check(CrashOp::Compute)
    }

    fn crash_check(&mut self, op: CrashOp) -> Result<(), TransportError> {
        let idx = op as usize;
        self.ops[idx] += 1;
        if let Some(plan) = self.crash {
            if plan.op == op && self.ops[idx] == plan.nth {
                return Err(TransportError::Crashed { op, nth: plan.nth });
            }
        }
        Ok(())
    }

    /// Serializes the session state — seed, rotation steps, RNG positions,
    /// sequence cursor, clock, policy, ledger, in-flight channel state —
    /// plus the caller's opaque `progress` blob into a durable, hash-sealed
    /// checkpoint. Call at a step boundary. The blob carries no key, only a
    /// fingerprint of them; its seed derives the secret key, so it stays on
    /// the trusted client.
    pub fn checkpoint(&self, progress: &[u8]) -> Vec<u8> {
        SessionCheckpoint {
            params: self.params.clone(),
            seed: self.seed.clone(),
            client_rng_drawn: self.client.rng_bytes_drawn(),
            enc_ops: self.client.encryption_count(),
            dec_ops: self.client.decryption_count(),
            policy: self.link.policy,
            clock_ms: self.link.clock_ms,
            next_seq: self.link.next_seq,
            jitter_drawn: self.link.jitter.bytes_drawn(),
            ledger: self.ledger,
            rotation_steps: self.rotation_steps.clone(),
            key_fingerprint: self.key_fingerprint(),
            uplink_state: self.link.uplink.export_state(),
            downlink_state: self.link.downlink.export_state(),
            progress: progress.to_vec(),
        }
        .to_bytes()
    }

    /// BLAKE3 of the relinearization key's wire form: the checkpoint's
    /// witness that a resume derived the keys this session holds.
    fn key_fingerprint(&self) -> [u8; 32] {
        blake3::hash(&S::relin_to_wire(self.server.relin_key()))
    }

    /// Rebuilds a session from a checkpoint blob over freshly constructed
    /// channels (configured like the originals — e.g. same fault seed and
    /// plan), then runs the reconnect handshake. Returns the session and
    /// the workload progress blob stored at checkpoint time.
    ///
    /// The session is built as [`Session::with_link`] built the original —
    /// keygen and provisioning from the checkpoint's seed and rotation
    /// steps, so a resume costs one setup — and then moved to the
    /// checkpointed state.
    ///
    /// Determinism guarantee: the client RNG and retry jitter resume at
    /// their exact byte offsets, so every ciphertext produced after a
    /// resume is bit-identical to the uninterrupted run. Only
    /// `retransmit_bytes`, `recovery_bytes` and the simulated clock may
    /// differ — the handshake consumes link randomness.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on a malformed/tampered blob, a
    /// scheme/parameter mismatch, a client RNG position behind what keygen
    /// and provisioning draw, or keys whose fingerprint is not the
    /// checkpoint's; transport errors from the handshake.
    pub fn resume(
        blob: &[u8],
        mut uplink: Box<dyn Channel>,
        mut downlink: Box<dyn Channel>,
    ) -> Result<(Self, Vec<u8>), TransportError> {
        let ck = SessionCheckpoint::from_bytes(blob)?;
        if ck.scheme() != S::SCHEME {
            return Err(TransportError::BadCheckpoint(format!(
                "checkpoint is for {:?}, session is {:?}",
                ck.scheme(),
                S::SCHEME
            )));
        }
        uplink.import_state(&ck.uplink_state)?;
        downlink.import_state(&ck.downlink_state)?;
        let link = LinkConfig {
            uplink,
            downlink,
            policy: ck.policy,
        };
        let mut session = Self::with_link(&ck.params, &ck.seed, &ck.rotation_steps, link)?;
        // The client RNG stream is a pure function of (seed, offset):
        // fast-forwarding past every encryption since provisioning makes the
        // next draw identical to the uninterrupted run's.
        if !session
            .client
            .fast_forward(ck.client_rng_drawn, ck.enc_ops, ck.dec_ops)
        {
            return Err(TransportError::BadCheckpoint(format!(
                "client RNG position {} is behind keygen and provisioning",
                ck.client_rng_drawn
            )));
        }
        session.link.jitter.skip(ck.jitter_drawn);
        session.link.clock_ms = ck.clock_ms;
        session.link.next_seq = ck.next_seq;
        session.ledger = ck.ledger;
        if session.key_fingerprint() != ck.key_fingerprint {
            return Err(TransportError::BadCheckpoint(
                "keys derived from the seed do not match the checkpoint's fingerprint".into(),
            ));
        }
        session.reconnect()?;
        Ok((session, ck.progress))
    }

    /// The reconnect handshake after a resume: drains both pipes, treating
    /// every in-flight delivery as a stale replay — verified frames only
    /// advance the sequence cursor past the highest seq seen, so a
    /// duplicated frame from before the crash can never be mistaken for a
    /// fresh exchange — then confirms the agreed cursor with one `Control`
    /// frame billed as recovery traffic.
    fn reconnect(&mut self) -> Result<(), TransportError> {
        for dir in [Direction::Upload, Direction::Download] {
            loop {
                let channel = match dir {
                    Direction::Upload => &mut self.link.uplink,
                    Direction::Download => &mut self.link.downlink,
                };
                let Some(delivery) = channel.recv() else {
                    break;
                };
                self.link.clock_ms += delivery.latency_ms;
                if let Ok(f) = frame::decode_frame(&delivery.wire, &self.link.tag_key) {
                    if f.seq >= self.link.next_seq {
                        self.link.next_seq = f.seq + 1;
                    }
                }
            }
        }
        let cursor = self.link.next_seq.to_le_bytes();
        self.link.transfer(
            Direction::Upload,
            FrameKind::Control,
            &cursor,
            cursor.len(),
            Billing::Recovery,
            &mut self.ledger,
        )?;
        Ok(())
    }

    /// The compiled program the server half keeps for `key`
    /// ([`Session::run_resident`]), if it is resident. Leaves the table's
    /// counters alone.
    pub fn resident_program(&self, key: &[u64]) -> Option<&CompiledProgram> {
        self.programs.peek(&key.to_vec()).map(|p| &p.compiled)
    }

    /// Counters of the resident-program table (`misses` = compiles) and of
    /// the resident programs' operand caches, summed (`misses` = encodes).
    pub fn resident_counters(&self) -> (CacheCounters, CacheCounters) {
        let mut operands = CacheCounters::default();
        for program in self.programs.values() {
            operands.absorb(&program.operands.counters());
        }
        (self.programs.counters(), operands)
    }

    /// Runs, server-side, the compiled program the server half keeps for
    /// `key` over `inputs` — `key` being the caller's exact definition of
    /// the program, such as a conv layer's geometry and raw weights (a few
    /// KB, never the program's expanded constants), and `build` compiling it
    /// against the server's context on a miss. The program keeps its
    /// encoded operands, so every run after the first encodes nothing. The
    /// table holds a few programs, least recently used evicted, and is not
    /// checkpointed: a resumed session compiles again on first use.
    ///
    /// # Errors
    ///
    /// `build`'s error, nothing kept for a failed build; the executor's
    /// errors.
    pub fn run_resident<E: From<HeError>>(
        &mut self,
        key: &[u64],
        build: impl FnOnce(&S::Context) -> Result<CompiledProgram, E>,
        inputs: &HashMap<String, S::Ciphertext>,
    ) -> Result<Vec<S::Ciphertext>, E> {
        let (ctx, relin, galois) = (
            self.server.context(),
            self.server.relin_key(),
            self.server.galois_keys(),
        );
        let program = self.programs.get_or_insert_with(&key.to_vec(), || {
            Ok::<_, E>(Arc::new(CachedProgram::<S>::new(build(ctx)?)))
        })?;
        Ok(program.compiled.execute_encrypted_cached::<S>(
            ctx,
            inputs,
            relin,
            galois,
            &program.operands,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel::DirectChannel;
    use crate::transport::checkpoint::tests::{claiming_steps, with_version};
    use crate::transport::fault::{FaultPlan, FaultyChannel};
    use choco_he::{Bfv, Ckks};

    fn params() -> HeParams {
        HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap()
    }

    /// A session seeded `seed` over faulty channels seeded `up` and `down`,
    /// both under `plan`.
    fn faulty<S: CompilerScheme>(
        params: &HeParams,
        seed: &[u8],
        [up, down]: [&[u8]; 2],
        plan: FaultPlan,
        policy: RetryPolicy,
    ) -> Session<S> {
        let uplink = Box::new(FaultyChannel::new(up, plan));
        let downlink = Box::new(FaultyChannel::new(down, plan));
        let link = LinkConfig {
            uplink,
            downlink,
            policy,
        };
        Session::with_link(params, seed, &[], link).unwrap()
    }

    /// `ct` times the plaintext `values`, through the context's evaluator.
    fn mul_plain(
        s: &Session<Bfv>,
        ct: &choco_he::bfv::Ciphertext,
        values: &[u64],
    ) -> choco_he::bfv::Ciphertext {
        let ctx = s.server().context();
        let pt = ctx.batch_encoder().unwrap().encode(values).unwrap();
        ctx.evaluator().multiply_plain(ct, &pt)
    }

    /// The default policy with `max_attempts` attempts per exchange.
    fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn direct_session_matches_plain_protocol_billing() {
        let mut s = Session::<Bfv>::direct(&params(), b"session direct", &[]).unwrap();
        let values: Vec<u64> = (0..256).collect();
        let ct = s.client_mut().encrypt_slots(&values).unwrap();
        let at_server = s.upload(&ct).unwrap();
        let back = s.download(&at_server).unwrap();
        let out = s.client_mut().decrypt_slots(&back).unwrap();
        assert_eq!(out, values);
        // Billing matches the fault-free protocol: payload bytes only. A
        // fresh encryption is its compact frame — `c0` (256 coeffs × 2 data
        // residues at 40 bits, 5 bytes each), the 32-byte seed of `c1` and a
        // word per data prime. The echo leaves as a compressed reply:
        // `c0'` at 25 bits and `c1'` at 33 (14-bit `t`, N = 256), lifted
        // over one prime, whose word it carries.
        let compact = 256 * 2 * 5 + 32 + 8 * 2;
        let reply = 256 * (25 + 33) / 8 + 8;
        assert_eq!(ct.byte_size(), compact);
        assert_eq!(back.byte_size(), reply);
        assert_eq!(s.ledger().upload_bytes, compact as u64);
        assert_eq!(s.ledger().download_bytes, reply as u64);
        assert_eq!(s.ledger().retransmit_bytes, 0);
    }

    #[test]
    fn flaky_link_recovers_and_bills_retransmits() {
        let plan = FaultPlan::flaky();
        let up_down = [b"up".as_slice(), b"down"];
        let mut s = faulty::<Bfv>(&params(), b"session flaky", up_down, plan, attempts(16));
        let values: Vec<u64> = (0..256).map(|i| i * 7 % 101).collect();
        for round in 0..10 {
            let ct = s.client_mut().encrypt_slots(&values).unwrap();
            let at_server = s.upload(&ct).unwrap();
            let back = s.download(&at_server).unwrap();
            let out = s.client_mut().decrypt_slots(&back).unwrap();
            assert_eq!(out, values, "round {round} corrupted data");
        }
        let faults = s.uplink_stats().total_faults() + s.downlink_stats().total_faults();
        assert!(faults > 0, "flaky plan injected no faults");
        assert!(s.ledger().retransmit_bytes > 0);
        // Primary counters unaffected by retries: 10 uploads + 10 downloads.
        assert_eq!(s.ledger().uploads, 10);
        assert_eq!(s.ledger().downloads, 10);
    }

    #[test]
    fn blackhole_link_yields_typed_error() {
        let up_down = [b"up".as_slice(), b"down"];
        let plan = FaultPlan::blackhole();
        let policy = RetryPolicy::default();
        let mut s = faulty::<Bfv>(&params(), b"session dead", up_down, plan, policy);
        let ct = s.client_mut().encrypt_slots(&[1; 256]).unwrap();
        match s.upload(&ct) {
            Err(TransportError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, RetryPolicy::default().max_attempts);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn timeout_budget_is_enforced() {
        let policy = RetryPolicy {
            max_attempts: 50,
            base_backoff_ms: 100,
            max_backoff_ms: 1000,
            round_timeout_ms: 300,
        };
        let up_down = [b"up".as_slice(), b"down"];
        let plan = FaultPlan::blackhole();
        let mut s = faulty::<Bfv>(&params(), b"session slow", up_down, plan, policy);
        let ct = s.client_mut().encrypt_slots(&[2; 256]).unwrap();
        match s.upload(&ct) {
            Err(TransportError::TimeoutExceeded {
                budget_ms,
                elapsed_ms,
            }) => {
                assert_eq!(budget_ms, 300);
                assert!(elapsed_ms > 300);
            }
            other => panic!("expected TimeoutExceeded, got {other:?}"),
        }
    }

    #[test]
    fn ckks_session_roundtrips_under_faults() {
        let params = HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap();
        let plan = FaultPlan::lossless()
            .with_drop_rate(0.3)
            .with_corrupt_rate(0.2);
        let mut s = faulty::<Ckks>(&params, b"ckks session", [b"cu", b"cd"], plan, attempts(16));
        let values: Vec<f64> = (0..128).map(|i| i as f64 / 16.0).collect();
        let ct = s.client_mut().encrypt_values(&values).unwrap();
        let at_server = s.upload(&ct).unwrap();
        let back = s.download(&at_server).unwrap();
        let out = s.client_mut().decrypt_values(&back).unwrap();
        for i in 0..values.len() {
            assert!((out[i] - values[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let mut jitter = Blake3Rng::from_seed_labeled(b"backoff test", "retry-jitter");
        // Deep retry counts: the shift is clamped at 2^20, the product at
        // the ceiling — no panic under overflow checks.
        let policy = RetryPolicy::default();
        for attempt in [0, 1, 19, 20, 21, 63, 64, 1000, u32::MAX] {
            let b = policy.backoff_ms(attempt, &mut jitter);
            assert!(b <= policy.max_backoff_ms + policy.max_backoff_ms / 2 + 1);
        }
        // Near-u64::MAX base and ceiling: `exp + jitter` would wrap without
        // the saturating add.
        let extreme = RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: u64::MAX - 1,
            max_backoff_ms: u64::MAX,
            round_timeout_ms: u64::MAX,
        };
        for attempt in [0, 1, 20, u32::MAX] {
            let b = extreme.backoff_ms(attempt, &mut jitter);
            assert!(b >= u64::MAX - 1);
        }
    }

    #[test]
    fn duplicate_and_delayed_deliveries_bill_once() {
        // Every frame is duplicated and delayed; the session must count one
        // upload/download per transfer, bill zero retransmits (the first
        // attempt always lands), advance the simulated clock by observed
        // latency, and record the duplicates in the fault stats.
        let plan = FaultPlan::lossless()
            .with_duplicate_rate(1.0)
            .with_max_latency_ms(9);
        let up_down = [b"dup-up".as_slice(), b"dup-down"];
        let policy = RetryPolicy::default();
        let mut s = faulty::<Bfv>(&params(), b"session dup", up_down, plan, policy);
        let values: Vec<u64> = (0..256).map(|i| i * 11 % 103).collect();
        let (mut ct_bytes, mut reply_bytes) = (0u64, 0u64);
        for _ in 0..5 {
            let ct = s.client_mut().encrypt_slots(&values).unwrap();
            ct_bytes = ct.byte_size() as u64;
            let at_server = s.upload(&ct).unwrap();
            let back = s.download(&at_server).unwrap();
            reply_bytes = back.byte_size() as u64;
            assert_eq!(s.client_mut().decrypt_slots(&back).unwrap(), values);
        }
        assert_eq!(s.ledger().uploads, 5);
        assert_eq!(s.ledger().downloads, 5);
        assert_eq!(s.ledger().upload_bytes, 5 * ct_bytes);
        assert_eq!(s.ledger().download_bytes, 5 * reply_bytes);
        assert_eq!(s.ledger().retransmit_bytes, 0);
        assert_eq!(s.uplink_stats().duplicated, 5);
        assert_eq!(s.downlink_stats().duplicated, 5);
        // 10 primary + 10 duplicate deliveries drew latency; the clock saw
        // the ones the drain loop consumed.
        assert!(s.clock_ms() > 0, "latency never advanced the clock");
    }

    #[test]
    fn armed_crash_fires_once_with_typed_error() {
        let mut s = Session::<Bfv>::direct(&params(), b"session crash", &[]).unwrap();
        s.arm_crash(CrashPlan {
            op: CrashOp::Upload,
            nth: 2,
        });
        let ct = s.client_mut().encrypt_slots(&[3; 256]).unwrap();
        let at_server = s.upload(&ct).unwrap(); // #1 passes
        match s.upload(&at_server) {
            Err(TransportError::Crashed {
                op: CrashOp::Upload,
                nth: 2,
            }) => {}
            other => panic!("expected Crashed at upload #2, got {other:?}"),
        }
        assert_eq!(s.op_count(CrashOp::Upload), 2);
        // The crash fired before billing: only upload #1 is in the ledger.
        assert_eq!(s.ledger().uploads, 1);
        // One crash per plan: the next occurrence passes.
        assert!(s.upload(&at_server).is_ok());
    }

    #[test]
    fn sentinel_mismatch_is_detected() {
        let mut s = Session::<Bfv>::direct(&params(), b"session sentinel", &[]).unwrap();
        let mut values = vec![0u64; 256];
        values[250] = 77; // sentinel slot
        let ct = s.client_mut().encrypt_slots(&values).unwrap();
        let at_server = s.upload(&ct).unwrap();
        // Identity compute: the sentinel survives.
        let (_, slots) = s.download_checked(&at_server, &[(250, 77)], 0.0).unwrap();
        assert_eq!(slots[250], 77);
        // A computation that disturbs the sentinel is caught.
        let doubled = mul_plain(&s, &at_server, &[2u64; 256]);
        match s.download_checked(&doubled, &[(250, 77)], 0.0) {
            Err(TransportError::SentinelMismatch { slot: 250 }) => {}
            other => panic!("expected SentinelMismatch, got {other:?}"),
        }
        // Out-of-range sentinel slots are a mismatch, not a panic.
        match s.download_checked(&at_server, &[(1 << 20, 0)], 0.0) {
            Err(TransportError::SentinelMismatch { .. }) => {}
            other => panic!("expected SentinelMismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_roundtrips_session_state() {
        let plan = FaultPlan::lossless()
            .with_duplicate_rate(0.3)
            .with_max_latency_ms(4);
        let mk = || {
            (
                Box::new(FaultyChannel::new(b"ck-up", plan)) as Box<dyn Channel>,
                Box::new(FaultyChannel::new(b"ck-down", plan)) as Box<dyn Channel>,
            )
        };
        let up_down = [b"ck-up".as_slice(), b"ck-down"];
        let policy = RetryPolicy::default();
        let mut s = faulty::<Bfv>(&params(), b"session ckpt", up_down, plan, policy);
        let values: Vec<u64> = (0..256).map(|i| i % 59).collect();
        let ct = s.client_mut().encrypt_slots(&values).unwrap();
        let at_server = s.upload(&ct).unwrap();
        let blob = s.checkpoint(b"my progress");

        let (up2, down2) = mk();
        let (mut r, progress) = Session::<Bfv>::resume(&blob, up2, down2).unwrap();
        assert_eq!(progress, b"my progress");
        // Ledger carried over; handshake billed only to recovery.
        assert_eq!(r.ledger().uploads, s.ledger().uploads);
        assert_eq!(r.ledger().upload_bytes, s.ledger().upload_bytes);
        assert!(r.ledger().recovery_bytes > 0);
        // The restored client still decrypts, and its RNG continues the
        // same stream: the next encryption matches the original session's.
        let next_orig = s.client_mut().encrypt_slots(&values).unwrap();
        let next_res = r.client_mut().encrypt_slots(&values).unwrap();
        assert_eq!(
            choco_he::serialize::ciphertext_to_bytes(&next_orig),
            choco_he::serialize::ciphertext_to_bytes(&next_res)
        );
        let out = r.client_mut().decrypt_slots(&at_server).unwrap();
        assert_eq!(out, values);

        // Tampered blobs are rejected with a typed error.
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let (up3, down3) = mk();
        match Session::<Bfv>::resume(&bad, up3, down3) {
            Err(TransportError::BadCheckpoint(_)) => {}
            other => panic!("expected BadCheckpoint, got {:?}", other.map(|_| ())),
        }
        // A BFV checkpoint cannot resume a CKKS session.
        let (up4, down4) = mk();
        match Session::<Ckks>::resume(&blob, up4, down4) {
            Err(TransportError::BadCheckpoint(_)) => {}
            other => panic!("expected BadCheckpoint, got {:?}", other.map(|_| ())),
        }
    }

    /// A direct session of `params` provisioned for `steps` that has
    /// uploaded one encryption of `values`.
    fn after_one_upload<S: CompilerScheme>(
        params: &HeParams,
        steps: &[i64],
        values: &[S::Value],
    ) -> Session<S> {
        let mut s = Session::<S>::direct(params, b"session rederive", steps).unwrap();
        let ct = s.client_mut().encrypt(values).unwrap();
        s.upload(&ct).unwrap();
        s
    }

    /// `blob` resumed over direct channels.
    fn resume_direct<S: CompilerScheme>(blob: &[u8]) -> Result<Session<S>, TransportError> {
        let (up, down) = (DirectChannel::new(), DirectChannel::new());
        Session::<S>::resume(blob, Box::new(up), Box::new(down)).map(|(s, _)| s)
    }

    fn resume_rederives_the_keys_and_the_next_encryption<S: CompilerScheme>(
        params: &HeParams,
        values: &[S::Value],
    ) {
        let mut s = after_one_upload::<S>(params, &[1, 2, -3], values);
        let mut r = resume_direct::<S>(&s.checkpoint(&[])).unwrap();
        let (keys, again) = (s.server(), r.server());
        let relin = S::relin_to_wire(keys.relin_key());
        assert_eq!(S::relin_to_wire(again.relin_key()), relin);
        let galois = S::galois_to_wire(keys.galois_keys());
        assert_eq!(S::galois_to_wire(again.galois_keys()), galois);
        let next = s.client_mut().encrypt(values).unwrap();
        let replayed = r.client_mut().encrypt(values).unwrap();
        assert_eq!(S::ct_to_wire(&replayed), S::ct_to_wire(&next));
        assert_eq!(r.client_mut().encryption_count(), 2);
        assert_eq!(r.ledger().upload_bytes, s.ledger().upload_bytes);
    }

    fn a_checkpoint_grows_by_its_step_list_only<S: CompilerScheme>(
        params: &HeParams,
        values: &[S::Value],
    ) {
        let one = after_one_upload::<S>(params, &[1], values).checkpoint(&[]);
        let steps: Vec<i64> = (1..=40).collect();
        let forty = after_one_upload::<S>(params, &steps, values).checkpoint(&[]);
        assert_eq!(forty.len(), one.len() + 39 * 8);
    }

    fn resume_refuses_resealed_blobs<S: CompilerScheme>(params: &HeParams, values: &[S::Value]) {
        let blob = after_one_upload::<S>(params, &[1], values).checkpoint(&[]);
        let edited = |edit: fn(&mut SessionCheckpoint)| {
            let mut ck = SessionCheckpoint::from_bytes(&blob).unwrap();
            edit(&mut ck);
            ck.to_bytes()
        };
        let refusal = |blob: &[u8]| match resume_direct::<S>(blob) {
            Err(TransportError::BadCheckpoint(why)) => why,
            other => panic!("expected BadCheckpoint, got {:?}", other.map(|_| ())),
        };
        // A seed of other keys is caught by the key fingerprint, a client
        // RNG position behind provisioning by the fast-forward, a step count
        // past the cap by the decoder before it reads the list.
        let other_seed = refusal(&edited(|ck| ck.seed[0] ^= 1));
        assert!(other_seed.contains("fingerprint"), "{other_seed}");
        let rewound = refusal(&edited(|ck| ck.client_rng_drawn = 0));
        assert!(rewound.contains("behind keygen"), "{rewound}");
        let huge = refusal(&claiming_steps(&blob, u32::MAX));
        assert!(huge.contains("rotation-step count"), "{huge}");
    }

    /// A version-3 checkpoint fingerprinted the 8-byte relinearization
    /// wire, so its fingerprint can never match keys derived now, a
    /// version-4 one carries a refresh floor and count this format dropped,
    /// and a version-5 one fingerprinted the relinearization key drawn after
    /// a public key keygen no longer draws: each is refused as the format
    /// it is, before any key is derived, never misreported as a key
    /// mismatch.
    #[test]
    fn resume_refuses_a_version_3_checkpoint_as_unsupported() {
        let blob = after_one_upload::<Bfv>(&params(), &[1], &bfv_values()).checkpoint(&[]);
        assert!(resume_direct::<Bfv>(&blob).is_ok());
        for version in [3u16, 4, 5] {
            match resume_direct::<Bfv>(&with_version(&blob, version)) {
                Err(TransportError::BadCheckpoint(why)) => {
                    assert_eq!(why, format!("unsupported version {version}"))
                }
                other => panic!("expected BadCheckpoint, got {:?}", other.map(|_| ())),
            }
        }
    }

    fn ckks_params() -> HeParams {
        HeParams::ckks_insecure(256, &[45, 45, 46], 38).unwrap()
    }

    fn bfv_values() -> Vec<u64> {
        (0..256).map(|i| i % 59).collect()
    }

    fn ckks_values() -> Vec<f64> {
        (0..128).map(|i| (i % 11) as f64 / 8.0).collect()
    }

    #[test]
    fn bfv_resume_rederives_the_keys_and_the_next_encryption() {
        resume_rederives_the_keys_and_the_next_encryption::<Bfv>(&params(), &bfv_values());
    }

    #[test]
    fn ckks_resume_rederives_the_keys_and_the_next_encryption() {
        resume_rederives_the_keys_and_the_next_encryption::<Ckks>(&ckks_params(), &ckks_values());
    }

    #[test]
    fn bfv_resume_checkpoint_grows_by_its_step_list_only() {
        a_checkpoint_grows_by_its_step_list_only::<Bfv>(&params(), &bfv_values());
    }

    #[test]
    fn ckks_resume_checkpoint_grows_by_its_step_list_only() {
        a_checkpoint_grows_by_its_step_list_only::<Ckks>(&ckks_params(), &ckks_values());
    }

    #[test]
    fn bfv_resume_refuses_resealed_blobs() {
        resume_refuses_resealed_blobs::<Bfv>(&params(), &bfv_values());
    }

    #[test]
    fn ckks_resume_refuses_resealed_blobs() {
        resume_refuses_resealed_blobs::<Ckks>(&ckks_params(), &ckks_values());
    }

    #[test]
    fn seq_space_exhaustion_is_typed() {
        let mut s = Session::<Bfv>::direct(&params(), b"session seq end", &[]).unwrap();
        s.link.next_seq = u64::MAX;
        let ct = s.client_mut().encrypt_slots(&[1; 256]).unwrap();
        match s.upload(&ct) {
            Err(TransportError::SeqExhausted) => {}
            other => panic!("expected SeqExhausted, got {other:?}"),
        }
        // Nothing was billed and the cursor did not wrap.
        assert_eq!(s.ledger().uploads, 0);
        assert_eq!(s.link.next_seq, u64::MAX);
    }
}
