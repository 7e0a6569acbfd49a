//! The offload server: a batching, caching remote HE evaluator.
//!
//! [`OffloadServer`] listens on a real TCP socket. Each connection starts
//! with the authenticated hello handshake from
//! [`choco::transport::tcp`]: the server looks the tenant up in its
//! [`TenantRegistry`], checks the keyed auth tag, applies admission
//! control, and answers with a typed ack. An admitted connection speaks
//! one protocol, `choco::remote`: `EvalRequest` frames in, `EvalResponse`
//! frames out. It gets two threads. The **reader** blocks on the socket:
//! it reads length-prefixed frames, verifies their keyed-BLAKE3 tags,
//! bills them to a per-tenant [`LedgerBook`], and hands the payload to
//! [`crate::eval`]: a session-key upload gives the connection its
//! [`crate::eval::EvalSession`], and evaluate calls are resolved through
//! the global program/operand cache ([`crate::cache::ServeCache`]) and
//! coalesced across connections by the [`crate::sched::BatchScheduler`]
//! before real kernel work runs. A verified frame of any other kind is
//! answered with a typed error, never dropped. A frame whose tag does not
//! verify cannot be answered (nothing in it can be trusted, its kind
//! included): it is counted in [`ServeStats::bad_frames`] and skipped.
//!
//! The **writer** blocks on the connection's reply channel, which carries
//! every response payload the server sends: immediate answers from the
//! reader, evaluation results straight from the scheduler's jobs. A result
//! is written and billed the moment its job delivers it —
//! nothing on the path polls — and because one thread writes,
//! `EvalResponse` frames leave in the order of their server-side sequence
//! counter.
//!
//! **Billing.** The book bills a frame by what it is: the payload of every
//! verified frame a client sent is that tenant's `upload`, the payload of
//! every response the socket accepted is its `download` — the same two
//! lines, counted at the same two moments, as the client's own
//! `RemoteEvaluator` ledger, so book and ledger agree by construction. The
//! server does not second-guess a payload's role: a request the client
//! resends after a redial is an upload like any other (the client is the
//! one who knows it was recovery traffic and bills it so on its side).
//! Attribution is per request, not per batch: batching shares kernels and
//! caches — never bytes — so the per-tenant book is identical whether
//! requests ran batched or sequentially.
//!
//! **Drain.** [`OffloadServer::drain`] stops admitting, flushes every
//! scheduled batch through the [`crate::sched::BatchScheduler`], lets
//! every reader finish its current read and every writer run dry (a
//! writer exits when the reader and the last in-flight job have dropped
//! their ends of the reply channel), and returns once the server is idle,
//! every request it accepted answered. The server keeps nothing on disk,
//! so a server bound later starts from nothing: a client that loses an
//! answer to a kill resends the request itself after its redial.

use crate::cache::{EvalCacheStats, ServeCache};
use crate::chaos::{EvalChaos, EvalChaosState, EvalStage};
use crate::eval::{handle_eval_payload, refuse_frame_kind, EvalContext, EvalCounters, EvalOutcome};
use crate::isolate::{Isolation, IsolationConfig, IsolationStats};
use crate::registry::TenantRegistry;
use crate::sched::{BatchScheduler, Hold, SchedHooks, SchedStats};
use choco::remote::EvalResponse;
use choco::transport::frame::{decode_frame, encode_frame, FrameKind};
use choco::transport::tcp::{
    decode_hello, encode_ack, write_all_beside_probe, BlobIo, HelloStatus, HELLO_BYTES,
};
use choco::transport::{TagKey, MAX_FRAME_BYTES};
use choco::LedgerBook;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission limit: concurrent sessions beyond this are refused with a
    /// typed `Overloaded` ack, never silently queued.
    pub max_sessions: u32,
    /// Handshake read/write timeout, in milliseconds.
    pub io_timeout_ms: u64,
    /// Reader poll, in milliseconds: the granularity at which a reader
    /// blocked on a silent socket notices a drain request.
    pub worker_poll_ms: u64,
    /// Per-frame size bound (prefixes beyond it are rejected before any
    /// allocation).
    pub max_frame_bytes: u64,
    /// Compiled programs cached per scheme before LRU eviction kicks in
    /// (0 = unbounded).
    pub program_cache_capacity: usize,
    /// Upper bound on how long the scheduler keeps a round open for a
    /// connection whose next pipelined request is still arriving. Not a
    /// delay: a request with nothing behind it dispatches at once.
    pub batch_window_ms: u64,
    /// Quarantine/circuit-breaker tuning.
    pub isolation: IsolationConfig,
    /// Deterministic eval fault plan (tests only; default injects
    /// nothing).
    pub eval_chaos: EvalChaos,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            io_timeout_ms: 5_000,
            worker_poll_ms: 50,
            max_frame_bytes: MAX_FRAME_BYTES,
            program_cache_capacity: 32,
            batch_window_ms: 4,
            isolation: IsolationConfig::default(),
            eval_chaos: EvalChaos::default(),
        }
    }
}

/// Hello/admission counters, and frames refused at the tag check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    accepted: u64,
    resumed: u64,
    rejected_overload: u64,
    rejected_unknown_tenant: u64,
    rejected_bad_auth: u64,
    rejected_draining: u64,
    rejected_malformed: u64,
    bad_frames: u64,
}

/// A point-in-time (or final) view of the server's accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections admitted (hello verified, under the session limit).
    pub accepted: u64,
    /// Subset of `accepted` that carried the resume flag.
    pub resumed: u64,
    /// Hellos refused with `Overloaded`.
    pub rejected_overload: u64,
    /// Hellos refused with `UnknownTenant`.
    pub rejected_unknown_tenant: u64,
    /// Hellos refused with `BadAuth`.
    pub rejected_bad_auth: u64,
    /// Hellos refused because the server was draining.
    pub rejected_draining: u64,
    /// Connections dropped before a well-formed hello arrived.
    pub rejected_malformed: u64,
    /// Frames on admitted connections that failed tag verification
    /// (corrupted in flight, or forged): skipped, billed to nobody.
    pub bad_frames: u64,
    /// Per-tenant traffic ledgers (see the module docs for semantics).
    pub book: LedgerBook,
    /// Remote-evaluation accounting.
    pub eval: EvalStats,
}

impl ServeStats {
    /// Renders the stats as one machine-readable JSON line — what the
    /// `choco-serve` `stats` stdin command and its drain summary print.
    /// Hand-rolled (the workspace takes no serialization dependency); every
    /// value is an unsigned integer, so no escaping is ever needed.
    pub fn to_json_line(&self) -> String {
        let total = self.book.combined();
        let c = &self.eval.counters;
        let cache = &self.eval.cache;
        let s = &self.eval.sched;
        let i = &self.eval.isolation;
        format!(
            concat!(
                "{{\"accepted\":{},\"resumed\":{},\"rejected\":{},\"bad_frames\":{},",
                "\"tenants\":{},\"upload_bytes\":{},\"download_bytes\":{},",
                "\"retransmit_bytes\":{},\"recovery_bytes\":{},",
                "\"eval\":{{\"setups\":{},\"requests\":{},\"need_program\":{},",
                "\"errors\":{}}},",
                "\"cache\":{{\"program_hits\":{},\"program_misses\":{},",
                "\"compiles\":{},\"operand_hits\":{},\"operand_misses\":{},",
                "\"fused_groups\":{}}},",
                "\"sched\":{{\"jobs\":{},\"batches\":{},\"coalesced\":{},",
                "\"max_batch\":{},\"queue_wait_us\":{},\"run_us\":{},",
                "\"held_rounds\":{}}},",
                "\"isolation\":{{\"quarantined\":{},\"quarantine_refusals\":{},",
                "\"open_breakers\":{},\"breaker_refusals\":{},\"bisections\":{},",
                "\"shed_deadline\":{},\"faults\":{}}}}}"
            ),
            self.accepted,
            self.resumed,
            self.rejected_overload
                + self.rejected_unknown_tenant
                + self.rejected_bad_auth
                + self.rejected_draining
                + self.rejected_malformed,
            self.bad_frames,
            self.book.tenants(),
            total.upload_bytes,
            total.download_bytes,
            total.retransmit_bytes,
            total.recovery_bytes,
            c.setups,
            c.requests,
            c.need_program,
            c.errors,
            cache.programs.hits,
            cache.programs.misses,
            cache.compiles,
            cache.operands.hits,
            cache.operands.misses,
            cache.fused_groups,
            s.jobs,
            s.batches,
            s.coalesced,
            s.max_batch,
            s.queue_wait_us,
            s.run_us,
            s.held_rounds,
            i.quarantined,
            i.quarantine_refusals,
            i.open_breakers,
            i.breaker_refusals,
            i.bisections,
            i.shed_deadline,
            i.faults,
        )
    }
}

/// Remote-evaluation accounting: protocol events, cache effectiveness,
/// and batching behavior. The steady-state proof is
/// `cache.compiles` and `cache.operands.misses` staying flat while
/// `counters.requests` grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Setup/request/error event counts.
    pub counters: EvalCounters,
    /// Program + operand cache counters.
    pub cache: EvalCacheStats,
    /// Batch scheduler counters.
    pub sched: SchedStats,
    /// Quarantine, breaker, bisection, and shed counters.
    pub isolation: IsolationStats,
}

struct Shared {
    config: ServeConfig,
    registry: TenantRegistry,
    stop: AtomicBool,
    draining: AtomicBool,
    active: Mutex<u32>,
    /// Wakes [`OffloadServer::drain`] when `active` reaches zero.
    idle: Condvar,
    counters: Mutex<Counters>,
    book: Mutex<LedgerBook>,
    eval_cache: Arc<ServeCache>,
    eval_counters: Mutex<EvalCounters>,
    sched: BatchScheduler,
    isolation: Arc<Isolation>,
    chaos: Option<Arc<EvalChaosState>>,
    /// Set when the chaos plan "kills" the server: workers stop writing
    /// and the accept loop exits — the in-process equivalent of the
    /// process dying mid-pipeline.
    hard_killed: Arc<AtomicBool>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    /// Bills one verified frame's payload as the tenant's upload.
    fn bill_upload(&self, tenant: u64, payload_len: usize) {
        lock(&self.book).bill(tenant).record_upload(payload_len);
    }

    /// Bills one written response payload as the tenant's download.
    fn bill_download(&self, tenant: u64, payload_len: usize) {
        lock(&self.book).bill(tenant).record_download(payload_len);
    }

    /// Gives an admission slot back.
    fn release_slot(&self) {
        let mut active = lock(&self.active);
        *active -= 1;
        if *active == 0 {
            self.idle.notify_all();
        }
    }
}

/// A running server instance. Dropping it stops the accept loop; call
/// [`OffloadServer::shutdown`] for a graceful drain with final stats.
pub struct OffloadServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl OffloadServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration errors.
    pub fn bind(addr: &str, config: ServeConfig, registry: TenantRegistry) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let isolation = Arc::new(Isolation::new(config.isolation));
        let chaos = (config.eval_chaos != EvalChaos::default())
            .then(|| Arc::new(EvalChaosState::new(config.eval_chaos)));
        let hard_killed = Arc::new(AtomicBool::new(false));
        let kill_switch = Arc::clone(&hard_killed);
        let hooks = SchedHooks {
            isolation: Arc::clone(&isolation),
            chaos: chaos.clone(),
            on_kill: Some(Box::new(move || {
                kill_switch.store(true, Ordering::SeqCst);
            })),
        };
        let shared = Arc::new(Shared {
            eval_cache: Arc::new(ServeCache::new(config.program_cache_capacity)),
            eval_counters: Mutex::new(EvalCounters::default()),
            sched: BatchScheduler::with_hooks(config.batch_window_ms, hooks),
            isolation,
            chaos,
            hard_killed,
            config,
            registry,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
            counters: Mutex::new(Counters::default()),
            book: Mutex::new(LedgerBook::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(OffloadServer {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently admitted sessions.
    pub fn active_sessions(&self) -> u32 {
        *lock(&self.shared.active)
    }

    /// Snapshot of the accounting state.
    pub fn stats(&self) -> ServeStats {
        let c = *lock(&self.shared.counters);
        ServeStats {
            accepted: c.accepted,
            resumed: c.resumed,
            rejected_overload: c.rejected_overload,
            rejected_unknown_tenant: c.rejected_unknown_tenant,
            rejected_bad_auth: c.rejected_bad_auth,
            rejected_draining: c.rejected_draining,
            rejected_malformed: c.rejected_malformed,
            bad_frames: c.bad_frames,
            book: lock(&self.shared.book).clone(),
            eval: EvalStats {
                counters: *lock(&self.shared.eval_counters),
                cache: self.shared.eval_cache.stats(),
                sched: self.shared.sched.stats(),
                isolation: self.shared.isolation.stats(),
            },
        }
    }

    /// Whether a chaos plan (or [`OffloadServer::hard_kill`]) has "killed"
    /// this server instance.
    pub fn was_hard_killed(&self) -> bool {
        self.shared.hard_killed.load(Ordering::SeqCst)
    }

    /// Simulates the process dying right now: workers stop writing and
    /// close their sockets (an orderly FIN — responses already written
    /// flush to the client), and the accept loop exits. Every request
    /// still unanswered dies with the instance; a reliable client resends
    /// it to whichever server it redials.
    pub fn hard_kill(&self) {
        self.shared.hard_killed.store(true, Ordering::SeqCst);
    }

    /// Stops admitting, flushes every scheduled batch, and waits for every
    /// connection's writer to run dry and its reader to exit (bounded by
    /// the reader poll plus the handshake timeout).
    pub fn drain(&self) {
        if self.shared.hard_killed.load(Ordering::SeqCst) {
            // A dead process drains nothing: its unanswered requests are
            // the clients' to resend.
            return;
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        let config = &self.shared.config;
        let budget = Duration::from_millis(
            config
                .io_timeout_ms
                .saturating_add(config.worker_poll_ms.saturating_mul(4))
                .saturating_add(1_000),
        );
        // Scheduled batches first: a connection is done once its writer
        // has seen its last in-flight response, which only arrives once
        // the scheduler has executed it.
        let _ = self.shared.sched.flush(budget);
        let active = lock(&self.shared.active);
        drop(
            self.shared
                .idle
                .wait_timeout_while(active, budget, |active| *active > 0),
        );
    }

    /// Graceful shutdown: [`OffloadServer::drain`], stop the accept loop,
    /// and return the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.drain();
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stats()
    }
}

impl Drop for OffloadServer {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) && !shared.hard_killed.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(shared);
                thread::spawn(move || serve_connection(stream, &conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs the hello handshake; on admission, runs the connection's reader
/// on this thread and its writer beside it until the connection dies or
/// the server drains.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut io = BlobIo::new(stream, shared.config.max_frame_bytes);
    let _ = io.stream().set_write_timeout(Some(Duration::from_millis(
        shared.config.io_timeout_ms.max(1),
    )));

    let hello = match io.read_msg(HELLO_BYTES, shared.config.io_timeout_ms.max(1)) {
        Ok(Some(bytes)) => match decode_hello(&bytes) {
            Ok(h) => h,
            Err(_) => {
                lock(&shared.counters).rejected_malformed += 1;
                return;
            }
        },
        _ => {
            lock(&shared.counters).rejected_malformed += 1;
            return;
        }
    };

    if shared.draining.load(Ordering::SeqCst) {
        lock(&shared.counters).rejected_draining += 1;
        let _ = io.write_all(&encode_ack(HelloStatus::Draining));
        return;
    }
    let Some(key) = shared.registry.key_for(hello.tenant) else {
        lock(&shared.counters).rejected_unknown_tenant += 1;
        let _ = io.write_all(&encode_ack(HelloStatus::UnknownTenant));
        return;
    };
    if !hello.verify(&key) {
        lock(&shared.counters).rejected_bad_auth += 1;
        let _ = io.write_all(&encode_ack(HelloStatus::BadAuth));
        return;
    }
    {
        // Admission control: typed refusal, never a silent queue.
        let mut active = lock(&shared.active);
        if *active >= shared.config.max_sessions {
            let status = HelloStatus::Overloaded {
                active: *active,
                limit: shared.config.max_sessions,
            };
            drop(active);
            lock(&shared.counters).rejected_overload += 1;
            let _ = io.write_all(&encode_ack(status));
            return;
        }
        *active += 1;
    }
    let Ok(out) = io.stream().try_clone() else {
        return shared.release_slot();
    };
    if io.write_all(&encode_ack(HelloStatus::Ok)).is_err() {
        return shared.release_slot();
    }
    {
        let mut c = lock(&shared.counters);
        c.accepted += 1;
        if hello.resume {
            c.resumed += 1;
        }
    }

    let conn = Arc::new(Conn {
        shared: Arc::clone(shared),
        tenant: hello.tenant,
        key,
    });
    let (reply_tx, reply_rx) = mpsc::channel();
    let writer_conn = Arc::clone(&conn);
    let writer = thread::spawn(move || conn_writer(&writer_conn, &out, &reply_rx));
    conn_reader(&mut io, &conn, reply_tx);
    // The writer returns once the reader and every in-flight job have
    // dropped their senders, so each result is written (or refused by a
    // dead socket) before the slot is given back and a drain can return.
    let _ = writer.join();
    shared.release_slot();
}

/// One admitted connection, as both of its threads see it.
struct Conn {
    shared: Arc<Shared>,
    tenant: u64,
    key: TagKey,
}

impl Conn {
    /// Writes one `EvalResponse` frame under the server's own sequence
    /// counter to the connection's write half `out`, a clone of the socket
    /// the reader probes (hence the probe-tolerant write). The download is
    /// billed only *after* the socket accepted the bytes, so a hard kill
    /// can never bill a response the client had no chance to receive.
    fn write_response(
        &self,
        out: &TcpStream,
        resp_seq: &mut u64,
        payload: &[u8],
    ) -> Result<(), ()> {
        let shared = &self.shared;
        if EvalResponse::peek_request_id(payload).is_some() {
            // PreReply kill-point: the response exists but the process
            // dies before the write — the write below is what refuses it,
            // so whatever this function did ahead of its write would show.
            // Only evaluation answers count occurrences — setup acks are
            // not replies to jobs.
            if let Some(chaos) = shared.chaos.as_deref() {
                if chaos.kill_at(EvalStage::PreReply) {
                    shared.hard_killed.store(true, Ordering::SeqCst);
                }
            }
        }
        let wire = encode_frame(FrameKind::EvalResponse, *resp_seq, payload, &self.key);
        *resp_seq += 1;
        if shared.hard_killed.load(Ordering::SeqCst) {
            return Err(());
        }
        let timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
        write_all_beside_probe(out, &wire, timeout).map_err(|_| ())?;
        shared.bill_download(self.tenant, payload.len());
        Ok(())
    }
}

/// The connection's read half: read a frame, verify, bill, then hand the
/// payload to the evaluator. Exits on disconnect, I/O error, drain or
/// kill; results still in flight are the writer's.
fn conn_reader(io: &mut BlobIo, conn: &Conn, reply: mpsc::Sender<Vec<u8>>) {
    let shared = &conn.shared;
    let tenant = conn.tenant;
    let poll = shared.config.worker_poll_ms.max(1);
    let mut eval_session = None;
    // Held from a request that has another right behind it until one that
    // has not: a pipelined batch reaches the scheduler as one round.
    let mut hold: Option<Hold> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst)
            || shared.draining.load(Ordering::SeqCst)
            || shared.hard_killed.load(Ordering::SeqCst)
        {
            break;
        }
        let wire = match io.read_blob(poll) {
            Ok(Some(wire)) => wire,
            Ok(None) => {
                // Whatever was behind the last request has stalled.
                hold = None;
                continue;
            }
            Err(_) => break,
        };
        let Ok(frame) = decode_frame(&wire, &conn.key) else {
            lock(&shared.counters).bad_frames += 1;
            continue;
        };
        shared.bill_upload(tenant, frame.payload.len());
        if frame.kind != FrameKind::EvalRequest {
            let refusal = refuse_frame_kind(frame.kind, &shared.eval_counters);
            if reply.send(refusal).is_err() {
                break;
            }
            continue;
        }
        let more = io.bytes_pending();
        if more && hold.is_none() {
            hold = Some(shared.sched.hold());
        }
        let hard_kill = || shared.hard_killed.store(true, Ordering::SeqCst);
        let mut ctx = EvalContext {
            session: &mut eval_session,
            cache: &shared.eval_cache,
            sched: &shared.sched,
            counters: &shared.eval_counters,
            reply: &reply,
            tenant,
            isolation: &shared.isolation,
            chaos: shared.chaos.as_ref(),
            hard_kill: &hard_kill,
        };
        let outcome = handle_eval_payload(&frame.payload, &mut ctx);
        if !more {
            hold = None;
        }
        match outcome {
            EvalOutcome::Immediate(payload) => {
                if reply.send(payload).is_err() {
                    break;
                }
            }
            EvalOutcome::Submitted => {}
            EvalOutcome::Dropped => break,
        }
    }
}

/// The connection's write half: every response payload, in channel order,
/// until the last sender is gone. The first refused write (dead socket,
/// dead server) shuts the socket, which ends the reader too; jobs still in
/// flight then find the channel closed and drop their results.
fn conn_writer(conn: &Conn, out: &TcpStream, replies: &mpsc::Receiver<Vec<u8>>) {
    let mut resp_seq = 0;
    for payload in replies {
        if conn.write_response(out, &mut resp_seq, &payload).is_err() {
            let _ = out.shutdown(Shutdown::Both);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco::transport::tcp::{dial, Redialer, TcpOptions};
    use choco::transport::TransportError;
    use std::time::Instant;

    fn registry() -> TenantRegistry {
        let mut reg = TenantRegistry::new();
        reg.register(1, b"serve unit tenant 1");
        reg
    }

    #[test]
    fn bills_request_and_response_payloads_per_tenant() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        let key = TagKey::from_session_seed(b"serve unit tenant 1");
        let opts = TcpOptions::default();
        let mut io = dial(&server.addr().to_string(), &key, 1, 1, false, &opts).unwrap();
        // A payload of unknown magic needs no session setup and is answered
        // on the spot, with a typed error.
        let unknown = b"CRZ9";
        let wire = encode_frame(FrameKind::EvalRequest, 0, unknown, &key);
        let mut downloaded = 0;
        let mut exchange = |io: &mut BlobIo, expect_seq: u64| {
            io.write_all(&wire).unwrap();
            let answer = io.read_blob(5_000).unwrap().expect("an answer");
            let frame = decode_frame(&answer, &key).unwrap();
            assert_eq!(
                (frame.kind, frame.seq),
                (FrameKind::EvalResponse, expect_seq)
            );
            downloaded += frame.payload.len() as u64;
        };
        exchange(&mut io, 0);
        // The same bytes again (same sequence number): one more request,
        // billed as the upload it is.
        exchange(&mut io, 1);
        // A frame whose tag fails is counted and skipped, and the
        // connection goes on serving.
        let mut forged = wire.clone();
        *forged.last_mut().unwrap() ^= 1;
        io.write_all(&forged).unwrap();
        exchange(&mut io, 2);
        drop(io);
        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.bad_frames), (1, 1));
        let ledger = stats.book.get(1).copied().unwrap();
        assert_eq!((ledger.uploads, ledger.downloads), (3, 3));
        assert_eq!(ledger.upload_bytes, 3 * unknown.len() as u64);
        assert_eq!(ledger.download_bytes, downloaded);
        assert_eq!(ledger.retransmit_bytes, 0);
        assert_eq!(stats.eval.counters.errors, 3);
    }

    #[test]
    fn stats_json_line_is_wellformed_and_single_line() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        let line = server.shutdown().to_json_line();
        assert!(!line.contains('\n'), "must be a single line");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('"').count() % 2, 0, "quotes must balance");
        for field in [
            "\"accepted\":",
            "\"bad_frames\":",
            "\"upload_bytes\":",
            "\"eval\":{",
            "\"operand_misses\":0,\"fused_groups\":0}",
            "\"sched\":{",
            "\"queue_wait_us\":",
            "\"run_us\":",
            "\"held_rounds\":",
            "\"isolation\":{\"quarantined\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }

    #[test]
    fn a_zero_io_timeout_still_reads_the_hello() {
        let config = ServeConfig {
            io_timeout_ms: 0,
            ..ServeConfig::default()
        };
        let server = OffloadServer::bind("127.0.0.1:0", config, registry()).unwrap();
        let key = TagKey::from_session_seed(b"serve unit tenant 1");
        let io = dial(
            &server.addr().to_string(),
            &key,
            1,
            1,
            false,
            &TcpOptions::default(),
        )
        .unwrap();
        let stats = server.shutdown();
        drop(io);
        assert_eq!((stats.accepted, stats.rejected_malformed), (1, 0));
    }

    #[test]
    fn the_largest_io_timeout_admits_and_drains_without_overflow() {
        let config = ServeConfig {
            io_timeout_ms: u64::MAX,
            ..ServeConfig::default()
        };
        let server = OffloadServer::bind("127.0.0.1:0", config, registry()).unwrap();
        let key = TagKey::from_session_seed(b"serve unit tenant 1");
        let io = dial(
            &server.addr().to_string(),
            &key,
            1,
            1,
            false,
            &TcpOptions::default(),
        )
        .unwrap();
        let stats = server.shutdown();
        drop(io);
        assert_eq!((stats.accepted, stats.rejected_malformed), (1, 0));
    }

    #[test]
    fn unknown_tenant_and_bad_auth_are_refused() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        let addr = server.addr().to_string();
        let opts = TcpOptions::default();
        let good = TagKey::from_session_seed(b"serve unit tenant 1");
        let wrong = TagKey::from_session_seed(b"not the tenant seed");
        assert!(matches!(
            dial(&addr, &good, 99, 1, false, &opts),
            Err(TransportError::Rejected(msg)) if msg.contains("unknown tenant")
        ));
        assert!(matches!(
            dial(&addr, &wrong, 1, 1, false, &opts),
            Err(TransportError::Rejected(msg)) if msg.contains("authentication")
        ));
        let stats = server.shutdown();
        assert_eq!(stats.rejected_unknown_tenant, 1);
        assert_eq!(stats.rejected_bad_auth, 1);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn over_admission_is_typed_overloaded() {
        let config = ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        };
        let server = OffloadServer::bind("127.0.0.1:0", config, registry()).unwrap();
        let addr = server.addr().to_string();
        let key = TagKey::from_session_seed(b"serve unit tenant 1");
        let opts = TcpOptions::default();
        let _held = dial(&addr, &key, 1, 1, false, &opts).unwrap();
        // Give the worker a beat to be counted active, then over-admit.
        let start = Instant::now();
        loop {
            match dial(&addr, &key, 1, 2, false, &opts) {
                Err(TransportError::Overloaded { active, limit }) => {
                    assert_eq!(active, 1);
                    assert_eq!(limit, 1);
                    break;
                }
                Ok(_) | Err(_) if start.elapsed() < Duration::from_secs(5) => {
                    thread::sleep(Duration::from_millis(10));
                }
                other => {
                    let _ = other;
                    unreachable!("expected Overloaded within 5s");
                }
            }
        }
        let stats = server.shutdown();
        assert!(stats.rejected_overload >= 1);
    }

    #[test]
    fn draining_server_refuses_and_redialer_backs_off() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        server.drain();
        let addr = server.addr().to_string();
        let key = TagKey::from_session_seed(b"serve unit tenant 1");
        assert!(matches!(
            dial(&addr, &key, 1, 1, false, &TcpOptions::default()),
            Err(TransportError::Rejected(msg)) if msg.contains("draining")
        ));
        // The redialer treats draining as transient and exhausts retries.
        let mut redialer = Redialer::new(addr, b"serve unit tenant 1", 1, 1);
        redialer.policy.max_attempts = 2;
        redialer.policy.base_backoff_ms = 1;
        assert!(matches!(
            redialer.dial_fresh(),
            Err(TransportError::RetriesExhausted { attempts: 2, .. })
        ));
        let stats = server.shutdown();
        assert!(stats.rejected_draining >= 3);
    }
}
