//! Remote evaluation: the client-side half of the offload-server protocol.
//!
//! The paper's deployment model (§2) puts the HE kernels on the *server*:
//! the client keygens, encrypts, uploads its evaluation keys once, and then
//! streams small evaluate requests; the server hosts the compiled circuits
//! and the plaintext models. This module defines the wire protocol both
//! halves share and the [`RemoteEvaluator`] client:
//!
//! * **Session setup** ([`SessionSetup`], magic `CRS1`): the parameter
//!   recipe plus the tenant's relinearization and Galois keys in their
//!   existing `CHR*`/`CHG*` wire formats, sent once right after the
//!   authenticated TCP hello. Only *evaluation* keys ever cross the wire:
//!   the secret key has no wire format at all.
//! * **Evaluate** ([`EvalRequest`], magic `CRQ1`): a [`CompiledProgram`](crate::compiler::CompiledProgram)
//!   reference (BLAKE3 over the canonical source-program wire form and the
//!   compiler options) plus named input ciphertexts. The source program
//!   itself rides along only when the server has not seen the hash
//!   (`NeedProgram` round trip otherwise), so steady-state requests carry
//!   nothing but ciphertexts.
//! * **Responses** ([`EvalResponse`], magic `CRA1`): output ciphertexts,
//!   or a typed error.
//!
//! Every message is carried inside the transport's keyed-BLAKE3 frame
//! format ([`FrameKind::EvalRequest`] / [`FrameKind::EvalResponse`], the
//! only two kinds a served connection speaks), which is where integrity
//! and authentication come from. All decoders are total: truncated,
//! bit-flipped, oversized, or cross-scheme inputs surface as typed
//! [`TransportError`]s, never panics.

use crate::compiler::{CompilerOptions, CompilerScheme, NodeId, Op, Program};
use crate::protocol::CommLedger;
use crate::transport::frame::{decode_frame, encode_frame, FrameKind};
use crate::transport::tcp::{dial, BlobIo, Redialer, TcpOptions};
pub use crate::transport::wire::params_to_wire;
use crate::transport::wire::read_params;
use crate::transport::{put_blob, RetryPolicy, TagKey, TransportError, WireCursor};
use choco_he::params::HeParams;
use choco_he::serialize;
use choco_prng::blake3;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Magic prefix of a serialized session setup.
pub const SETUP_MAGIC: &[u8; 4] = b"CRS1";
/// Magic prefix of a serialized evaluate request.
pub const REQUEST_MAGIC: &[u8; 4] = b"CRQ1";
/// Magic prefix of a serialized response.
pub const RESPONSE_MAGIC: &[u8; 4] = b"CRA1";
/// Upper bound on IR nodes in an uploaded program — a parse-time guard so
/// a hostile length field cannot drive allocation beyond what the frame
/// size bound already admitted.
pub const MAX_PROGRAM_NODES: usize = 1 << 20;

fn bad(msg: impl Into<String>) -> TransportError {
    TransportError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Parameter recipe
// ---------------------------------------------------------------------------

/// Rebuilds a parameter set from its recipe and cross-checks the derived
/// values against the recorded ones.
///
/// # Errors
///
/// [`TransportError::Truncated`]/[`TransportError::Malformed`] on bad
/// bytes, or when the deterministic rebuild disagrees with the recipe.
pub fn params_from_wire(rest: &mut &[u8]) -> Result<HeParams, TransportError> {
    let mut cursor = WireCursor::new(rest);
    let params = read_params(&mut cursor)?;
    *rest = cursor.rest();
    Ok(params)
}

/// The cache key component identifying a parameter set: BLAKE3 over its
/// recipe. Tenants sharing a parameter set share server-side caches;
/// different sets can never collide.
pub fn params_hash(params: &HeParams) -> [u8; 32] {
    blake3::hash(&params_to_wire(params))
}

// ---------------------------------------------------------------------------
// Program wire form
// ---------------------------------------------------------------------------

/// Serializes a *source* program (no `Rescale`/`ModSwitch` nodes) into its
/// canonical wire form — the bytes [`program_ref_of`] hashes.
///
/// # Errors
///
/// [`TransportError::Malformed`] if the program contains compiler-inserted
/// nodes (only source programs travel; the server compiles).
pub fn program_to_wire(program: &Program) -> Result<Vec<u8>, TransportError> {
    let mut out = Vec::with_capacity(16 + program.len() * 12);
    out.extend_from_slice(&(program.len() as u32).to_le_bytes());
    for (i, op) in program.ops().iter().enumerate() {
        match op {
            Op::Input(name) => {
                out.push(0);
                if name.len() > u16::MAX as usize {
                    return Err(bad(format!("node {i}: input name too long")));
                }
                out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            Op::Constant(values) => {
                out.push(1);
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Op::Add(a, b) => {
                out.push(2);
                out.extend_from_slice(&(a.index() as u32).to_le_bytes());
                out.extend_from_slice(&(b.index() as u32).to_le_bytes());
            }
            Op::Sub(a, b) => {
                out.push(3);
                out.extend_from_slice(&(a.index() as u32).to_le_bytes());
                out.extend_from_slice(&(b.index() as u32).to_le_bytes());
            }
            Op::Mul(a, b) => {
                out.push(4);
                out.extend_from_slice(&(a.index() as u32).to_le_bytes());
                out.extend_from_slice(&(b.index() as u32).to_le_bytes());
            }
            Op::MulPlain(a, c) => {
                out.push(5);
                out.extend_from_slice(&(a.index() as u32).to_le_bytes());
                out.extend_from_slice(&(c.index() as u32).to_le_bytes());
            }
            Op::AddPlain(a, c) => {
                out.push(6);
                out.extend_from_slice(&(a.index() as u32).to_le_bytes());
                out.extend_from_slice(&(c.index() as u32).to_le_bytes());
            }
            Op::Rotate(a, s) => {
                out.push(7);
                out.extend_from_slice(&(a.index() as u32).to_le_bytes());
                out.extend_from_slice(&s.to_le_bytes());
            }
            Op::Rescale(_) | Op::ModSwitch(_) => {
                return Err(bad(format!(
                    "node {i}: compiled nodes cannot travel; upload source programs"
                )));
            }
        }
    }
    out.extend_from_slice(&(program.output_ids().len() as u32).to_le_bytes());
    for o in program.output_ids() {
        out.extend_from_slice(&(o.index() as u32).to_le_bytes());
    }
    Ok(out)
}

/// Rebuilds a source program from its wire form through the builder API,
/// revalidating every operand reference.
///
/// # Errors
///
/// Typed [`TransportError`]s on truncation, bad op tags, forward or
/// out-of-range operand references, or implausible node counts. Never
/// panics.
pub fn program_from_wire(bytes: &[u8]) -> Result<Program, TransportError> {
    let mut rest = WireCursor::new(bytes);
    let node_count = rest.take_u32()? as usize;
    if node_count > MAX_PROGRAM_NODES {
        return Err(bad(format!("implausible node count {node_count}")));
    }
    let mut prog = Program::new();
    let operand = |rest: &mut WireCursor, built: usize| -> Result<NodeId, TransportError> {
        let idx = rest.take_u32()? as usize;
        if idx >= built {
            return Err(bad(format!(
                "operand {idx} references node {built} or later"
            )));
        }
        Ok(NodeId::new(idx))
    };
    for i in 0..node_count {
        match rest.take_u8()? {
            0 => {
                let len = rest.take_u16()? as usize;
                let name = std::str::from_utf8(rest.take(len)?)
                    .map_err(|_| bad(format!("node {i}: input name is not UTF-8")))?;
                prog.input(name);
            }
            1 => {
                let len = rest.take_u32()? as usize;
                if len > rest.rest().len() / 8 + 1 {
                    return Err(bad(format!("node {i}: constant length overruns input")));
                }
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(f64::from_bits(rest.take_u64()?));
                }
                prog.constant(&values);
            }
            2 => {
                let (a, b) = (operand(&mut rest, i)?, operand(&mut rest, i)?);
                prog.add(a, b);
            }
            3 => {
                let (a, b) = (operand(&mut rest, i)?, operand(&mut rest, i)?);
                prog.sub(a, b);
            }
            4 => {
                let (a, b) = (operand(&mut rest, i)?, operand(&mut rest, i)?);
                prog.mul(a, b);
            }
            5 => {
                let (a, c) = (operand(&mut rest, i)?, operand(&mut rest, i)?);
                prog.mul_plain(a, c);
            }
            6 => {
                let (a, c) = (operand(&mut rest, i)?, operand(&mut rest, i)?);
                prog.add_plain(a, c);
            }
            7 => {
                let a = operand(&mut rest, i)?;
                let s = rest.take_u64()? as i64;
                prog.rotate(a, s);
            }
            other => return Err(bad(format!("node {i}: unknown op tag {other}"))),
        }
    }
    let output_count = rest.take_u32()? as usize;
    if output_count > node_count {
        return Err(bad("more outputs than nodes"));
    }
    for _ in 0..output_count {
        let idx = rest.take_u32()? as usize;
        if idx >= node_count {
            return Err(bad(format!("output references missing node {idx}")));
        }
        prog.output(NodeId::new(idx));
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after program"));
    }
    Ok(prog)
}

fn options_to_wire(options: &CompilerOptions) -> [u8; 12] {
    let mut out = [0u8; 12];
    let words = options
        .scale_bits
        .to_le_bytes()
        .into_iter()
        .chain(options.prime_bits.to_le_bytes())
        .chain((options.max_levels as u32).to_le_bytes());
    for (dst, src) in out.iter_mut().zip(words) {
        *dst = src;
    }
    out
}

fn options_from_wire(rest: &mut WireCursor) -> Result<CompilerOptions, TransportError> {
    let scale_bits = rest.take_u32()?;
    let prime_bits = rest.take_u32()?;
    let max_levels = rest.take_u32()? as usize;
    if max_levels == 0 || max_levels > 64 {
        return Err(bad(format!("implausible level count {max_levels}")));
    }
    Ok(CompilerOptions {
        scale_bits,
        prime_bits,
        max_levels,
    })
}

/// The identity of a compiled program on the wire: BLAKE3 over the
/// canonical program bytes and the compiler options. Together with
/// [`params_hash`] this is the server's cache key — same hash, same
/// `CompiledProgram`, same encoded operands.
pub fn program_ref_of(program_wire: &[u8], options: &CompilerOptions) -> [u8; 32] {
    let mut h = blake3::Hasher::new();
    h.update(&(program_wire.len() as u64).to_le_bytes());
    h.update(program_wire);
    h.update(&options_to_wire(options));
    h.finalize()
}

/// A program serialized once on the client, ready to reference in any
/// number of [`EvalRequest`]s.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// Canonical source-program bytes.
    pub wire: Vec<u8>,
    /// The compiler configuration the server must compile under.
    pub options: CompilerOptions,
    /// BLAKE3 identity of (wire, options).
    pub program_ref: [u8; 32],
}

impl PreparedProgram {
    /// Serializes and hashes a source program.
    ///
    /// # Errors
    ///
    /// [`TransportError::Malformed`] if the program contains
    /// compiler-inserted nodes.
    pub fn new(program: &Program, options: &CompilerOptions) -> Result<Self, TransportError> {
        let wire = program_to_wire(program)?;
        let program_ref = program_ref_of(&wire, options);
        Ok(PreparedProgram {
            wire,
            options: *options,
            program_ref,
        })
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// The one-time key upload that turns an admitted connection into an
/// evaluation session.
#[derive(Debug, Clone)]
pub struct SessionSetup {
    /// The tenant's parameter set (recipe form).
    pub params: HeParams,
    /// Relinearization key, `CPR1`/`CPR2` wire form.
    pub relin_wire: Vec<u8>,
    /// Galois keys, `CPG1`/`CPG2` wire form.
    pub galois_wire: Vec<u8>,
}

impl SessionSetup {
    /// Serializes the setup message.
    pub fn to_wire(&self) -> Vec<u8> {
        let params = params_to_wire(&self.params);
        let mut out = Vec::with_capacity(
            4 + params.len() + self.relin_wire.len() + self.galois_wire.len() + 8,
        );
        out.extend_from_slice(SETUP_MAGIC);
        out.extend_from_slice(&params);
        put_blob(&mut out, &self.relin_wire);
        put_blob(&mut out, &self.galois_wire);
        out
    }

    /// Decodes and validates a setup message, including the cross-scheme
    /// check: the key blobs' magics must match the parameter scheme (a BFV
    /// session cannot smuggle CKKS keys, and vice versa).
    ///
    /// # Errors
    ///
    /// Typed [`TransportError`]s; never panics.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, TransportError> {
        let mut rest = WireCursor::new(bytes);
        if rest.take(4)? != SETUP_MAGIC {
            return Err(bad("bad setup magic"));
        }
        let params = read_params(&mut rest)?;
        let relin_wire = rest.take_blob()?.to_vec();
        let galois_wire = rest.take_blob()?.to_vec();
        if !rest.is_empty() {
            return Err(bad("trailing bytes after setup"));
        }
        let relin_magic = serialize::magic(b'R', params.scheme());
        let galois_magic = serialize::magic(b'G', params.scheme());
        if relin_wire.get(..4) != Some(relin_magic.as_slice()) {
            return Err(bad(format!(
                "relin key wire does not match the {:?} parameter scheme",
                params.scheme()
            )));
        }
        if galois_wire.get(..4) != Some(galois_magic.as_slice()) {
            return Err(bad(format!(
                "galois key wire does not match the {:?} parameter scheme",
                params.scheme()
            )));
        }
        Ok(SessionSetup {
            params,
            relin_wire,
            galois_wire,
        })
    }
}

/// One evaluate call: a program reference, optionally the program body
/// (first use), and the named input ciphertexts.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    /// Client-chosen id echoed in the response, so pipelined requests can
    /// be matched up.
    pub request_id: u64,
    /// [`program_ref_of`] the referenced program.
    pub program_ref: [u8; 32],
    /// The program body + options, included when the server may not hold
    /// the reference yet.
    pub program: Option<(Vec<u8>, CompilerOptions)>,
    /// Optional dispatch deadline, milliseconds from server-side arrival.
    /// A job still queued when its budget elapses is shed with a typed
    /// `DeadlineExceeded` instead of burning evaluator time on a result
    /// nobody is waiting for.
    pub deadline_ms: Option<u64>,
    /// `(input name, ciphertext wire)` pairs.
    pub inputs: Vec<(String, Vec<u8>)>,
}

impl EvalRequest {
    /// Serializes the request.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self
                .inputs
                .iter()
                .map(|(n, c)| n.len() + c.len() + 8)
                .sum::<usize>(),
        );
        out.extend_from_slice(REQUEST_MAGIC);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&self.program_ref);
        match self.deadline_ms {
            Some(ms) => {
                out.push(1);
                out.extend_from_slice(&ms.to_le_bytes());
            }
            None => out.push(0),
        }
        match &self.program {
            Some((wire, options)) => {
                out.push(1);
                put_blob(&mut out, wire);
                out.extend_from_slice(&options_to_wire(options));
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.inputs.len() as u16).to_le_bytes());
        for (name, ct) in &self.inputs {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            put_blob(&mut out, ct);
        }
        out
    }

    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// Typed [`TransportError`]s; never panics. An inline program body
    /// whose hash disagrees with `program_ref` is rejected here, so cache
    /// poisoning by reference/body mismatch is impossible.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, TransportError> {
        let mut rest = WireCursor::new(bytes);
        if rest.take(4)? != REQUEST_MAGIC {
            return Err(bad("bad request magic"));
        }
        let request_id = rest.take_u64()?;
        let mut program_ref = [0u8; 32];
        program_ref.copy_from_slice(rest.take(32)?);
        let deadline_ms = match rest.take_u8()? {
            0 => None,
            1 => Some(rest.take_u64()?),
            other => return Err(bad(format!("bad deadline flag {other}"))),
        };
        let program = match rest.take_u8()? {
            0 => None,
            1 => {
                let wire = rest.take_blob()?.to_vec();
                let options = options_from_wire(&mut rest)?;
                if program_ref_of(&wire, &options) != program_ref {
                    return Err(bad("program body does not hash to its reference"));
                }
                Some((wire, options))
            }
            other => return Err(bad(format!("bad program flag {other}"))),
        };
        let input_count = rest.take_u16()? as usize;
        let mut inputs = Vec::with_capacity(input_count.min(64));
        for _ in 0..input_count {
            let name_len = rest.take_u16()? as usize;
            let name = std::str::from_utf8(rest.take(name_len)?)
                .map_err(|_| bad("input name is not UTF-8"))?
                .to_string();
            let ct = rest.take_blob()?.to_vec();
            inputs.push((name, ct));
        }
        if !rest.is_empty() {
            return Err(bad("trailing bytes after request"));
        }
        Ok(EvalRequest {
            request_id,
            program_ref,
            program,
            deadline_ms,
            inputs,
        })
    }
}

/// The server's answer to one [`SessionSetup`] or [`EvalRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum EvalResponse {
    /// Session setup accepted; evaluate requests may follow.
    SetupOk,
    /// Output ciphertexts, in program-output order.
    Outputs {
        /// Echo of the request id.
        request_id: u64,
        /// Serialized output ciphertexts.
        outputs: Vec<Vec<u8>>,
    },
    /// The referenced program is unknown here — resend with the body.
    NeedProgram {
        /// Echo of the request id.
        request_id: u64,
    },
    /// The request failed; the message is the typed server-side error,
    /// rendered.
    Error {
        /// Echo of the request id (0 for setup failures).
        request_id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// The job was shed: its deadline passed before the scheduler
    /// dispatched it. The client may resend (with a fresh budget).
    DeadlineExceeded {
        /// Echo of the request id.
        request_id: u64,
    },
    /// The tenant's circuit breaker is open; retry after the hint.
    Unavailable {
        /// Echo of the request id.
        request_id: u64,
        /// Milliseconds until the breaker half-opens.
        retry_after_ms: u64,
    },
    /// The referenced `(params_hash, program_ref)` is quarantined after a
    /// prior isolated failure. Terminal for this program on this server.
    Quarantined {
        /// Echo of the request id.
        request_id: u64,
        /// The recorded failure that caused the quarantine.
        reason: String,
    },
}

impl EvalResponse {
    /// Serializes the response.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(RESPONSE_MAGIC);
        match self {
            EvalResponse::SetupOk => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
            EvalResponse::Outputs {
                request_id,
                outputs,
            } => {
                out.push(1);
                out.extend_from_slice(&request_id.to_le_bytes());
                out.extend_from_slice(&(outputs.len() as u16).to_le_bytes());
                for ct in outputs {
                    put_blob(&mut out, ct);
                }
            }
            EvalResponse::NeedProgram { request_id } => {
                out.push(2);
                out.extend_from_slice(&request_id.to_le_bytes());
            }
            EvalResponse::Error {
                request_id,
                message,
            } => {
                out.push(3);
                out.extend_from_slice(&request_id.to_le_bytes());
                put_blob(&mut out, message.as_bytes());
            }
            EvalResponse::DeadlineExceeded { request_id } => {
                out.push(4);
                out.extend_from_slice(&request_id.to_le_bytes());
            }
            EvalResponse::Unavailable {
                request_id,
                retry_after_ms,
            } => {
                out.push(5);
                out.extend_from_slice(&request_id.to_le_bytes());
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            EvalResponse::Quarantined { request_id, reason } => {
                out.push(6);
                out.extend_from_slice(&request_id.to_le_bytes());
                put_blob(&mut out, reason.as_bytes());
            }
        }
        out
    }

    /// Reads just the echoed request id out of a serialized response —
    /// what the server needs to tell an evaluation answer from a setup ack
    /// without a full decode. `None` for ill-formed payloads and for
    /// `SetupOk`, which answers no request.
    pub fn peek_request_id(payload: &[u8]) -> Option<u64> {
        let mut rest = WireCursor::new(payload);
        if rest.take(4).ok()? != RESPONSE_MAGIC {
            return None;
        }
        let code = rest.take_u8().ok()?;
        let id = rest.take_u64().ok()?;
        matches!(code, 1..=6).then_some(id)
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// Typed [`TransportError`]s; never panics.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, TransportError> {
        let mut rest = WireCursor::new(bytes);
        if rest.take(4)? != RESPONSE_MAGIC {
            return Err(bad("bad response magic"));
        }
        let code = rest.take_u8()?;
        let request_id = rest.take_u64()?;
        let resp = match code {
            0 => EvalResponse::SetupOk,
            1 => {
                let count = rest.take_u16()? as usize;
                let mut outputs = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    outputs.push(rest.take_blob()?.to_vec());
                }
                EvalResponse::Outputs {
                    request_id,
                    outputs,
                }
            }
            2 => EvalResponse::NeedProgram { request_id },
            3 => {
                let msg = String::from_utf8_lossy(rest.take_blob()?).into_owned();
                EvalResponse::Error {
                    request_id,
                    message: msg,
                }
            }
            4 => EvalResponse::DeadlineExceeded { request_id },
            5 => EvalResponse::Unavailable {
                request_id,
                retry_after_ms: rest.take_u64()?,
            },
            6 => {
                let reason = String::from_utf8_lossy(rest.take_blob()?).into_owned();
                EvalResponse::Quarantined { request_id, reason }
            }
            other => return Err(bad(format!("unknown response code {other}"))),
        };
        if !rest.is_empty() {
            return Err(bad("trailing bytes after response"));
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Batch response matching
// ---------------------------------------------------------------------------

/// What one absorbed response means for the batch. Raw ciphertext wires —
/// the collector is scheme-agnostic so the matching logic is fuzzable
/// without an HE context.
#[derive(Debug, Clone, PartialEq)]
pub enum Absorbed {
    /// The slot completed with these output wires.
    Done {
        /// Batch slot (request order).
        slot: usize,
        /// Serialized output ciphertexts.
        outputs: Vec<Vec<u8>>,
    },
    /// `NeedProgram`: resend the slot's request with the program body.
    ResendWithProgram {
        /// Batch slot to resend.
        slot: usize,
    },
    /// The server shed the slot's job past its deadline; resend or fail.
    Shed {
        /// Batch slot that was shed.
        slot: usize,
    },
    /// The tenant breaker is open; back off before resending the slot.
    RetryAfter {
        /// Batch slot refused.
        slot: usize,
        /// Server backoff hint in milliseconds.
        retry_after_ms: u64,
    },
}

/// Tracks a pipelined batch's outstanding request ids and enforces the
/// response discipline: every id matches exactly one live slot, duplicate
/// and unknown ids are typed errors, and terminal refusals surface as
/// typed [`TransportError`]s. Extracted from the evaluator so hostile
/// response streams (truncation, bit-flips, id games) can be fuzzed
/// without a socket.
#[derive(Debug)]
pub struct BatchCollector {
    ids: Vec<u64>,
    done: Vec<bool>,
    pending: usize,
}

impl BatchCollector {
    /// A collector over one in-flight request id per batch slot.
    pub fn new(ids: Vec<u64>) -> Self {
        let pending = ids.len();
        BatchCollector {
            done: vec![false; ids.len()],
            ids,
            pending,
        }
    }

    /// Slots still awaiting a terminal response.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The live request id of `slot`, if the slot exists and is unanswered.
    pub fn live_id(&self, slot: usize) -> Option<u64> {
        if *self.done.get(slot)? {
            return None;
        }
        self.ids.get(slot).copied()
    }

    /// Every unanswered slot, in batch order.
    pub fn unanswered(&self) -> Vec<usize> {
        self.done
            .iter()
            .enumerate()
            .filter(|(_, done)| !**done)
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Repoints `slot` at a fresh request id (resend under a new id).
    pub fn rebind(&mut self, slot: usize, new_id: u64) {
        if let Some(id) = self.ids.get_mut(slot) {
            *id = new_id;
        }
    }

    fn slot_of(&self, request_id: u64) -> Result<usize, TransportError> {
        let slot = self
            .ids
            .iter()
            .position(|id| *id == request_id)
            .ok_or_else(|| bad(format!("unexpected response id {request_id}")))?;
        if self.done.get(slot).copied().unwrap_or(true) {
            return Err(bad(format!("duplicate response for id {request_id}")));
        }
        Ok(slot)
    }

    /// Folds one decoded response into the batch state.
    ///
    /// # Errors
    ///
    /// Typed [`TransportError`]s for unknown ids, duplicate ids, mid-batch
    /// setup acks, and terminal server refusals
    /// ([`TransportError::Quarantined`], [`TransportError::Rejected`]).
    pub fn absorb(&mut self, resp: EvalResponse) -> Result<Absorbed, TransportError> {
        match resp {
            EvalResponse::Outputs {
                request_id,
                outputs,
            } => {
                let slot = self.slot_of(request_id)?;
                if let Some(done) = self.done.get_mut(slot) {
                    *done = true;
                    self.pending -= 1;
                }
                Ok(Absorbed::Done { slot, outputs })
            }
            EvalResponse::NeedProgram { request_id } => {
                let slot = self.slot_of(request_id)?;
                Ok(Absorbed::ResendWithProgram { slot })
            }
            EvalResponse::DeadlineExceeded { request_id } => {
                let slot = self.slot_of(request_id)?;
                Ok(Absorbed::Shed { slot })
            }
            EvalResponse::Unavailable {
                request_id,
                retry_after_ms,
            } => {
                let slot = self.slot_of(request_id)?;
                Ok(Absorbed::RetryAfter {
                    slot,
                    retry_after_ms,
                })
            }
            EvalResponse::Quarantined { request_id, reason } => {
                self.slot_of(request_id)?;
                Err(TransportError::Quarantined(reason))
            }
            EvalResponse::Error {
                request_id,
                message,
            } => Err(TransportError::Rejected(format!(
                "evaluate {request_id} refused: {message}"
            ))),
            EvalResponse::SetupOk => Err(bad("unexpected setup ack mid-batch")),
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The thin client of the remote evaluator: dials `choco-serve`, uploads
/// the evaluation keys once, and then issues evaluate calls — single or
/// pipelined — against programs it references by hash. Keeps a
/// [`CommLedger`] with the same upload/download semantics the local
/// protocol uses, so Figure-10-style accounting carries over to the remote
/// deployment unchanged.
///
/// Connected via [`RemoteEvaluator::connect_reliable`], the client also
/// survives server loss mid-batch: transient failures (connection loss,
/// read timeout, `Unavailable`) trigger bounded retries with exponential
/// backoff — redial with the resume flag, re-upload the session keys, and
/// resend every request that has no answer yet. It cannot know which of
/// them the old server had received, and need not: a resend is the same
/// request under the same id. The re-setup is billed to `recovery_bytes`
/// and every resent request to `retransmit_bytes`, never to the primary
/// upload/download lines, so a crash-interrupted run stays
/// point-comparable to its uninterrupted twin. Terminal refusals
/// ([`TransportError::Quarantined`], cross-scheme setup rejection) are
/// never retried.
pub struct RemoteEvaluator<S: CompilerScheme> {
    io: BlobIo,
    key: TagKey,
    seq: u64,
    next_id: u64,
    ledger: CommLedger,
    sent_programs: BTreeSet<[u8; 32]>,
    opts: TcpOptions,
    deadline_ms: Option<u64>,
    retry: RetryPolicy,
    reconnect: Option<Reconnect>,
    _scheme: PhantomData<S>,
}

/// Everything needed to re-establish a session after the server vanishes.
struct Reconnect {
    /// Shared handle so a supervisor can repoint the client at a restarted
    /// server's new address mid-run.
    addr: Arc<Mutex<String>>,
    seed: Vec<u8>,
    tenant: u64,
    session: u64,
    /// The serialized [`SessionSetup`] re-uploaded on every redial.
    setup_wire: Arc<Vec<u8>>,
}

/// Which ledger line a payload is billed to.
#[derive(Clone, Copy, PartialEq)]
enum Bill {
    Upload,
    Download,
    Retransmit,
    Recovery,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Transient failures the reconnect loop may absorb; everything else is
/// terminal for the batch.
fn is_transient(e: &TransportError) -> bool {
    matches!(
        e,
        TransportError::Disconnected(_)
            | TransportError::Dropped
            | TransportError::TimeoutExceeded { .. }
            | TransportError::Overloaded { .. }
    )
}

impl<S: CompilerScheme> RemoteEvaluator<S> {
    /// Dials the server, authenticates as `(tenant, session)` with the
    /// tenant seed, and uploads the session's evaluation keys.
    ///
    /// # Errors
    ///
    /// Propagates dial/handshake errors ([`TransportError::Rejected`],
    /// [`TransportError::Overloaded`], …) and any typed setup refusal.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        addr: &str,
        seed: &[u8],
        tenant: u64,
        session: u64,
        params: &HeParams,
        relin: &S::RelinKey,
        galois: &S::GaloisKeys,
        opts: &TcpOptions,
    ) -> Result<Self, TransportError> {
        let key = TagKey::from_session_seed(seed);
        let io = dial(addr, &key, tenant, session, false, opts)?;
        let setup_wire = Self::setup_wire(params, relin, galois);
        Self::start(io, key, &setup_wire, opts, RetryPolicy::default(), None)
    }

    /// [`RemoteEvaluator::connect`], but fault-tolerant: the address is a
    /// shared handle (a supervisor may repoint it at a restarted server),
    /// the initial dial retries per `policy`, and every later batch
    /// recovers from connection loss by redialing, re-uploading the setup,
    /// and resending every request it has no answer for.
    ///
    /// # Errors
    ///
    /// Propagates dial/handshake errors once the retry budget is spent and
    /// any typed setup refusal.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_reliable(
        addr: Arc<Mutex<String>>,
        seed: &[u8],
        tenant: u64,
        session: u64,
        params: &HeParams,
        relin: &S::RelinKey,
        galois: &S::GaloisKeys,
        opts: &TcpOptions,
        policy: RetryPolicy,
    ) -> Result<Self, TransportError> {
        let setup_wire = Arc::new(Self::setup_wire(params, relin, galois));
        let io = Redialer::new(lock(&addr).clone(), seed, tenant, session)
            .with_policy(policy)
            .with_opts(*opts)
            .dial_fresh()?;
        let reconnect = Reconnect {
            addr,
            seed: seed.to_vec(),
            tenant,
            session,
            setup_wire: Arc::clone(&setup_wire),
        };
        let key = TagKey::from_session_seed(seed);
        Self::start(io, key, &setup_wire, opts, policy, Some(reconnect))
    }

    fn setup_wire(params: &HeParams, relin: &S::RelinKey, galois: &S::GaloisKeys) -> Vec<u8> {
        SessionSetup {
            params: params.clone(),
            relin_wire: S::relin_to_wire(relin),
            galois_wire: S::galois_to_wire(galois),
        }
        .to_wire()
    }

    /// A client over the admitted connection `io`, once the server has
    /// acknowledged the session setup.
    fn start(
        io: BlobIo,
        key: TagKey,
        setup_wire: &[u8],
        opts: &TcpOptions,
        retry: RetryPolicy,
        reconnect: Option<Reconnect>,
    ) -> Result<Self, TransportError> {
        let mut client = RemoteEvaluator {
            io,
            key,
            seq: 0,
            next_id: 0,
            ledger: CommLedger::new(),
            sent_programs: BTreeSet::new(),
            opts: *opts,
            deadline_ms: None,
            retry,
            reconnect,
            _scheme: PhantomData,
        };
        client.send_request(setup_wire)?;
        match client.read_response()? {
            EvalResponse::SetupOk => Ok(client),
            EvalResponse::Error { message, .. } => Err(TransportError::Rejected(format!(
                "session setup refused: {message}"
            ))),
            other => Err(bad(format!("unexpected setup response {other:?}"))),
        }
    }

    /// The client-side traffic ledger (requests → uploads, responses →
    /// downloads; payload bytes, frame overhead excluded).
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Sets the dispatch deadline attached to every subsequent request
    /// (`None` disables). See [`EvalRequest::deadline_ms`].
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Evaluates `prog` on `inputs`, blocking for the result.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and typed server-side refusals
    /// ([`TransportError::Rejected`] carrying the server's message).
    pub fn evaluate(
        &mut self,
        prog: &PreparedProgram,
        inputs: &[(&str, &S::Ciphertext)],
    ) -> Result<Vec<S::Ciphertext>, TransportError> {
        let mut out = self.evaluate_batch(prog, &[inputs])?;
        out.pop()
            .ok_or_else(|| bad("batch of one returned no result"))
    }

    /// Pipelines one evaluate request per element of `batch` — all
    /// requests are written before the first response is read, which is
    /// what lets the server coalesce them into one kernel invocation —
    /// and returns the results in request order.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; any per-request server refusal fails
    /// the whole batch with its typed message.
    pub fn evaluate_batch(
        &mut self,
        prog: &PreparedProgram,
        batch: &[&[(&str, &S::Ciphertext)]],
    ) -> Result<Vec<Vec<S::Ciphertext>>, TransportError> {
        let first_use = self.sent_programs.insert(prog.program_ref);
        let ids: Vec<u64> = (0..batch.len() as u64).map(|i| self.next_id + i).collect();
        self.next_id += batch.len() as u64;
        let mut coll = BatchCollector::new(ids);
        let mut results: Vec<Option<Vec<S::Ciphertext>>> = vec![None; batch.len()];
        // Work list of slots to (re)send: (slot, attach program body, bill).
        let mut to_send: Vec<(usize, bool, Bill)> = (0..batch.len())
            .rev()
            .map(|i| (i, first_use && i == 0, Bill::Upload))
            .collect();
        let mut attempts = vec![0u32; batch.len()];
        let mut recoveries = 0u32;
        let per_request = self.retry.max_attempts.max(1);
        // Saturates on an out-of-range slot so the retry cap trips instead
        // of panicking (slots always come from the collector, so in
        // practice the range check never fails).
        fn bump(attempts: &mut [u32], slot: usize) -> u32 {
            attempts.get_mut(slot).map_or(u32::MAX, |a| {
                *a += 1;
                *a
            })
        }

        // One request per live slot stays in flight; the loop alternates a
        // send-flush phase with reading one response, recovering across
        // redial whenever the connection (or the server) goes away.
        while coll.pending() > 0 {
            if !to_send.is_empty() {
                // Every queued request goes out in one write, so the
                // server finds the next request on the socket behind each
                // one it reads and schedules the whole batch as one round.
                let mut burst = Vec::new();
                let mut sent = Vec::with_capacity(to_send.len());
                for &(slot, with_body, bill) in to_send.iter().rev() {
                    let inputs = batch
                        .get(slot)
                        .ok_or_else(|| bad("send plan slot out of range"))?;
                    let req = self.build_request(prog, inputs, coll.live_id(slot), with_body);
                    let payload = req.to_wire();
                    burst.extend_from_slice(&self.frame(&payload));
                    sent.push((payload.len(), bill));
                }
                match self.io.write_all(&burst) {
                    Ok(()) => {
                        for (payload_len, bill) in sent {
                            self.bill_sent(payload_len, bill);
                        }
                        to_send.clear();
                        continue;
                    }
                    Err(e) if is_transient(&e) && self.reconnect.is_some() => {
                        recoveries += 1;
                        if recoveries > per_request {
                            return Err(TransportError::RetriesExhausted {
                                attempts: recoveries,
                                last: e.to_string(),
                            });
                        }
                        self.recover()?;
                        // Slots still queued here were never billed as
                        // transmitted: they keep their original bill (the
                        // primary upload line must match a fault-free run
                        // exactly) and body flag. Only already-sent,
                        // unanswered slots become retransmissions — and
                        // they go out first, so their attached program
                        // body reaches the successor before any body-less
                        // queued frame can draw a NeedProgram.
                        let mut merged = std::mem::take(&mut to_send);
                        let queued: BTreeSet<usize> = merged.iter().map(|&(s, _, _)| s).collect();
                        merged.extend(
                            resend_plan(&coll)
                                .into_iter()
                                .filter(|(s, _, _)| !queued.contains(s)),
                        );
                        to_send = merged;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            match self.read_response() {
                Ok(resp) => match coll.absorb(resp)? {
                    Absorbed::Done { slot, outputs } => {
                        let cts = outputs
                            .iter()
                            .map(|wire| S::ct_from_wire(wire))
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(TransportError::He)?;
                        if let Some(r) = results.get_mut(slot) {
                            *r = Some(cts);
                        }
                    }
                    Absorbed::ResendWithProgram { slot } => {
                        // The server lost the program (cache eviction or
                        // restart): resend with the body attached, billed
                        // as a retransmission — the request already paid
                        // its primary upload, and re-supplying the body is
                        // recovery traffic, not fresh work.
                        coll.rebind(slot, self.alloc_id());
                        to_send.push((slot, true, Bill::Retransmit));
                    }
                    Absorbed::Shed { slot } => {
                        if bump(&mut attempts, slot) >= per_request {
                            return Err(TransportError::DeadlineExceeded {
                                request_id: coll.live_id(slot).unwrap_or(0),
                            });
                        }
                        coll.rebind(slot, self.alloc_id());
                        to_send.push((slot, false, Bill::Retransmit));
                    }
                    Absorbed::RetryAfter {
                        slot,
                        retry_after_ms,
                    } => {
                        if bump(&mut attempts, slot) >= per_request {
                            return Err(TransportError::Unavailable { retry_after_ms });
                        }
                        std::thread::sleep(Duration::from_millis(
                            retry_after_ms.min(self.retry.max_backoff_ms),
                        ));
                        coll.rebind(slot, self.alloc_id());
                        to_send.push((slot, false, Bill::Retransmit));
                    }
                },
                Err(e) if is_transient(&e) && self.reconnect.is_some() => {
                    recoveries += 1;
                    if recoveries > per_request {
                        return Err(TransportError::RetriesExhausted {
                            attempts: recoveries,
                            last: e.to_string(),
                        });
                    }
                    self.recover()?;
                    to_send = resend_plan(&coll);
                }
                Err(e) => return Err(e),
            }
        }
        results
            .into_iter()
            .map(|r| r.ok_or_else(|| bad("missing batch result")))
            .collect()
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn build_request(
        &self,
        prog: &PreparedProgram,
        inputs: &[(&str, &S::Ciphertext)],
        request_id: Option<u64>,
        with_body: bool,
    ) -> EvalRequest {
        EvalRequest {
            request_id: request_id.unwrap_or(0),
            program_ref: prog.program_ref,
            program: with_body.then(|| (prog.wire.clone(), prog.options)),
            deadline_ms: self.deadline_ms,
            inputs: inputs
                .iter()
                .map(|(name, ct)| (name.to_string(), S::ct_to_wire(ct)))
                .collect(),
        }
    }

    /// Redial-with-resume and re-upload the session setup, both ways billed
    /// to `recovery_bytes`. The caller then resends what is unanswered.
    fn recover(&mut self) -> Result<(), TransportError> {
        let (addr, seed, tenant, session, setup_wire) = {
            let rc = self
                .reconnect
                .as_ref()
                .ok_or_else(|| TransportError::Disconnected("no reconnect configured".into()))?;
            (
                Arc::clone(&rc.addr),
                rc.seed.clone(),
                rc.tenant,
                rc.session,
                Arc::clone(&rc.setup_wire),
            )
        };
        let policy = self.retry;
        let rounds = policy.max_attempts.max(1);
        let mut last = TransportError::Dropped;
        for round in 0..rounds {
            if round > 0 {
                let backoff = policy
                    .base_backoff_ms
                    .saturating_mul(1u64 << (round - 1).min(16))
                    .min(policy.max_backoff_ms);
                std::thread::sleep(Duration::from_millis(backoff));
            }
            // Re-read the address every round: a hard-killed server may
            // have been restarted on a different port.
            let one = RetryPolicy {
                max_attempts: 1,
                ..policy
            };
            let redialer = Redialer::new(lock(&addr).clone(), &seed, tenant, session)
                .with_policy(one)
                .with_opts(self.opts);
            self.io = match redialer.redial() {
                Ok(io) => io,
                Err(TransportError::RetriesExhausted { last: l, .. }) => {
                    last = TransportError::Disconnected(l);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let setup = self
                .send_payload(&setup_wire, Bill::Recovery)
                .and_then(|()| self.read_response_billed(Bill::Recovery));
            match setup {
                Ok(EvalResponse::SetupOk) => return Ok(()),
                Ok(EvalResponse::Error { message, .. }) => {
                    return Err(TransportError::Rejected(format!(
                        "session re-setup refused: {message}"
                    )))
                }
                Ok(other) => return Err(bad(format!("unexpected re-setup response {other:?}"))),
                Err(e) if is_transient(&e) => {
                    last = e;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(TransportError::RetriesExhausted {
            attempts: rounds,
            last: last.to_string(),
        })
    }

    fn send_request(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_payload(payload, Bill::Upload)
    }

    fn send_payload(&mut self, payload: &[u8], bill: Bill) -> Result<(), TransportError> {
        let wire = self.frame(payload);
        self.io.write_all(&wire)?;
        self.bill_sent(payload.len(), bill);
        Ok(())
    }

    /// Encodes `payload` as the connection's next `EvalRequest` frame.
    fn frame(&mut self, payload: &[u8]) -> Vec<u8> {
        let wire = encode_frame(FrameKind::EvalRequest, self.seq, payload, &self.key);
        self.seq += 1;
        wire
    }

    /// Bills one request payload. Called only after the socket accepted
    /// the bytes, so a send into a dead connection is retried, not
    /// double-billed.
    fn bill_sent(&mut self, payload_len: usize, bill: Bill) {
        match bill {
            Bill::Upload => self.ledger.record_upload(payload_len),
            Bill::Retransmit => self.ledger.record_retransmit(payload_len),
            Bill::Recovery => self.ledger.record_recovery(payload_len),
            Bill::Download => {}
        }
    }

    fn read_response(&mut self) -> Result<EvalResponse, TransportError> {
        self.read_response_billed(Bill::Download)
    }

    fn read_response_billed(&mut self, bill: Bill) -> Result<EvalResponse, TransportError> {
        let wire = self.io.read_blob(self.opts.recv_deadline_ms)?.ok_or(
            TransportError::TimeoutExceeded {
                budget_ms: self.opts.recv_deadline_ms,
                elapsed_ms: self.opts.recv_deadline_ms,
            },
        )?;
        let frame = decode_frame(&wire, &self.key)?;
        if frame.kind != FrameKind::EvalResponse {
            return Err(bad(format!(
                "expected an EvalResponse frame, got {:?}",
                frame.kind
            )));
        }
        match bill {
            Bill::Download => self.ledger.record_download(frame.payload.len()),
            Bill::Recovery => self.ledger.record_recovery(frame.payload.len()),
            Bill::Upload | Bill::Retransmit => {}
        }
        EvalResponse::from_wire(&frame.payload)
    }
}

/// After a recovery, every unanswered slot is resent with the program
/// body attached (the restarted server's cache is cold), billed to
/// `retransmit_bytes`: the request already paid its primary upload.
fn resend_plan(coll: &BatchCollector) -> Vec<(usize, bool, Bill)> {
    coll.unanswered()
        .into_iter()
        .rev()
        .map(|slot| (slot, true, Bill::Retransmit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        let mut p = Program::new();
        let x = p.input("x");
        let r = p.rotate(x, 1);
        let s = p.add(x, r);
        let w = p.constant(&[0.5, 1.5]);
        let y = p.mul_plain(s, w);
        p.output(y);
        p
    }

    fn opts() -> CompilerOptions {
        CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        }
    }

    #[test]
    fn program_wire_roundtrips_and_hash_is_stable() {
        let p = sample_program();
        let wire = program_to_wire(&p).unwrap();
        let back = program_from_wire(&wire).unwrap();
        assert_eq!(program_to_wire(&back).unwrap(), wire);
        assert_eq!(
            program_ref_of(&wire, &opts()),
            program_ref_of(&wire, &opts())
        );
        // Different options → different identity.
        let other = CompilerOptions {
            scale_bits: 31,
            ..opts()
        };
        assert_ne!(
            program_ref_of(&wire, &opts()),
            program_ref_of(&wire, &other)
        );
    }

    #[test]
    fn params_recipe_roundtrips_both_schemes() {
        for params in [
            HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap(),
            HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap(),
        ] {
            let wire = params_to_wire(&params);
            let mut rest = wire.as_slice();
            let back = params_from_wire(&mut rest).unwrap();
            assert!(rest.is_empty());
            assert_eq!(params_hash(&params), params_hash(&back));
            assert_eq!(back.degree(), params.degree());
            assert_eq!(back.scheme(), params.scheme());
        }
        let a = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let b = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
        assert_ne!(params_hash(&a), params_hash(&b));
    }

    #[test]
    fn request_and_response_roundtrip() {
        let p = sample_program();
        let prep = PreparedProgram::new(&p, &opts()).unwrap();
        let req = EvalRequest {
            request_id: 42,
            program_ref: prep.program_ref,
            program: Some((prep.wire.clone(), prep.options)),
            deadline_ms: Some(250),
            inputs: vec![("x".into(), vec![1, 2, 3])],
        };
        let back = EvalRequest::from_wire(&req.to_wire()).unwrap();
        assert_eq!(back.request_id, 42);
        assert_eq!(back.program_ref, prep.program_ref);
        assert_eq!(back.inputs, req.inputs);

        for resp in [
            EvalResponse::SetupOk,
            EvalResponse::Outputs {
                request_id: 7,
                outputs: vec![vec![9, 9], vec![]],
            },
            EvalResponse::NeedProgram { request_id: 3 },
            EvalResponse::Error {
                request_id: 1,
                message: "nope".into(),
            },
        ] {
            assert_eq!(EvalResponse::from_wire(&resp.to_wire()).unwrap(), resp);
        }
    }

    #[test]
    fn mismatched_program_body_is_rejected() {
        let p = sample_program();
        let prep = PreparedProgram::new(&p, &opts()).unwrap();
        let mut tampered_ref = prep.program_ref;
        tampered_ref[0] ^= 1;
        let req = EvalRequest {
            request_id: 1,
            program_ref: tampered_ref,
            program: Some((prep.wire.clone(), prep.options)),
            deadline_ms: None,
            inputs: vec![],
        };
        assert!(matches!(
            EvalRequest::from_wire(&req.to_wire()),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_op_tags_are_rejected() {
        // Rescale/ModSwitch have no wire tag at all (only source programs
        // travel; the server compiles), so any unassigned tag must come
        // back as a typed error, not a panic.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(9);
        assert!(matches!(
            program_from_wire(&wire),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn forward_references_are_rejected() {
        // Node 0 referencing node 1 (not yet built) must be refused.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(2); // Add
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            program_from_wire(&wire),
            Err(TransportError::Malformed(_))
        ));
    }
}
