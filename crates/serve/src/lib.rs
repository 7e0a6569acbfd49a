//! `choco-serve`: the offload protocol's remote peer over real TCP.
//!
//! The [`crate::server::OffloadServer`] is the paper's server: a
//! **batching, caching HE evaluator**. Clients upload their evaluation
//! keys once, then stream evaluate requests that reference compiled
//! programs by hash (`choco::remote` — the one protocol a served
//! connection speaks); the server coalesces compatible requests across
//! connections and tenants into batched kernel invocations and caches
//! compiled programs plus NTT-domain plaintext operands so steady-state
//! traffic does zero recompilation and zero re-encoding. The secret key
//! stays with the client; client-aided `choco::Session` workloads run in
//! the client's process, not through this server. What the server adds
//! around the evaluation loop:
//!
//! * a per-tenant key [`registry::TenantRegistry`] and an authenticated
//!   hello handshake (a client that does not know the tenant seed is
//!   rejected before any frame is exchanged),
//! * admission control with a typed `Overloaded` refusal instead of
//!   silent queueing,
//! * a reader and a writer thread per connection: the reader verifies,
//!   bills and dispatches frames, the writer sends every response the
//!   moment it exists,
//! * a per-tenant [`choco::LedgerBook`] billed by direction — verified
//!   request payloads as upload, written response payloads as download —
//!   so it equals each client's own ledger by construction,
//! * the global [`cache::ServeCache`] (LRU over `(params_hash,
//!   program_ref)` with hit/miss/eviction counters) and the
//!   [`sched::BatchScheduler`] (cross-connection coalescing that never
//!   makes a lone request wait),
//! * graceful drain: admission stops, scheduled batches are flushed and
//!   every pending result is written before the drain returns,
//! * fault isolation ([`isolate::Isolation`]): poison-program quarantine
//!   with batch bisection in the scheduler (healthy co-batched jobs still
//!   succeed), per-tenant circuit breakers with typed
//!   `Unavailable { retry_after_ms }` refusals, and per-job dispatch
//!   deadlines with typed `DeadlineExceeded` shedding, and
//! * [`chaos::ChaosProxy`], a socket-level fault injector for the chaos
//!   tests (mid-frame connection kills on either byte stream, per-chunk
//!   delays, seeded bit-flips), plus [`chaos::EvalChaos`], the in-process
//!   eval-pipeline fault plan (stage kills, injected job faults, dispatch
//!   stalls).
//!
//! The server keeps nothing on disk. A killed server loses every request
//! it had not answered, and its successor knows nothing of them: the
//! client recovers them itself. `RemoteEvaluator::connect_reliable`
//! redials, re-uploads the session keys and resends every request it has
//! no answer for.

#![forbid(unsafe_code)]
// Panics hide protocol bugs: outside tests, prefer typed errors (PR 1's
// robustness audit). New `unwrap`/`expect` calls in library code must either
// be converted to `Result` or carry a `# Panics` contract at the public API.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod chaos;
pub mod eval;
pub mod isolate;
pub mod registry;
pub mod sched;
pub mod server;

pub use cache::{CachedProgram, EvalCacheStats, ProgramLookup, ServeCache};
pub use chaos::{ChaosPlan, ChaosProxy, EvalChaos, EvalChaosState, EvalStage};
pub use eval::{EvalCounters, EvalSession};
pub use isolate::{Isolation, IsolationConfig, IsolationStats};
pub use registry::TenantRegistry;
pub use sched::{BatchScheduler, SchedStats};
pub use server::{EvalStats, OffloadServer, ServeConfig, ServeStats};
