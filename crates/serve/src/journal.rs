//! The in-flight eval journal: crash recovery for accepted requests.
//!
//! A hard-killed server takes every accepted-but-unanswered eval request
//! with it. The journal is what survives: an *append-only* per-session log
//! written **before** a request enters the scheduler and appended again
//! when its response is actually written back. A restarted server loads
//! the directory, diffs accepted against delivered, and can tell a
//! resuming client (`CRJ1` journal query) exactly which request ids died
//! with the old process and must be resent — instead of the client
//! guessing.
//!
//! Each entry is individually sealed, so a record torn by the crash is
//! detected and parsing stops at the last good entry:
//!
//! ```text
//! accepted:  | "CEJA" | request_id u64 | program_ref 32 B |
//!            | input_digest 32 B | blake3(prior bytes) 32 B |
//! delivered: | "CEJD" | request_id u64 | blake3(prior bytes) 32 B |
//! ```
//!
//! File name: `t<tenant>_s<session>.cej`, in the server's
//! `checkpoint_dir` — the only thing kept there.

use choco_prng::blake3;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Magic of an accepted-entry.
pub const ACCEPT_MAGIC: &[u8; 4] = b"CEJA";
/// Magic of a delivered-entry.
pub const DELIVER_MAGIC: &[u8; 4] = b"CEJD";

/// Size of one accepted entry on disk.
pub const ACCEPT_BYTES: usize = 4 + 8 + 32 + 32 + 32;
/// Size of one delivered entry on disk.
pub const DELIVER_BYTES: usize = 4 + 8 + 32;

/// One accepted-but-unanswered request reconstructed from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadRequest {
    /// The client-chosen request id.
    pub request_id: u64,
    /// `program_ref` of the referenced program.
    pub program_ref: [u8; 32],
    /// BLAKE3 over the request's input ciphertext wires.
    pub input_digest: [u8; 32],
}

/// Point-in-time journal counters, exported through `ServeStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Accepted entries written.
    pub accepted: u64,
    /// Delivered entries written.
    pub delivered: u64,
    /// Requests reported dead to resuming clients.
    pub reported_dead: u64,
}

fn accept_entry(request_id: u64, program_ref: &[u8; 32], input_digest: &[u8; 32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ACCEPT_BYTES);
    out.extend_from_slice(ACCEPT_MAGIC);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(program_ref);
    out.extend_from_slice(input_digest);
    let seal = blake3::hash(&out);
    out.extend_from_slice(&seal);
    out
}

fn deliver_entry(request_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(DELIVER_BYTES);
    out.extend_from_slice(DELIVER_MAGIC);
    out.extend_from_slice(&request_id.to_le_bytes());
    let seal = blake3::hash(&out);
    out.extend_from_slice(&seal);
    out
}

/// Little-endian u64 at `at`, or 0 when the slice is too short (the
/// caller has already length-checked the entry; 0 keeps this total).
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    bytes
        .get(at..at + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map_or(0, u64::from_le_bytes)
}

/// 32-byte digest at `at`, zero-filled when the slice is too short.
fn arr32_at(bytes: &[u8], at: usize) -> [u8; 32] {
    let mut out = [0u8; 32];
    if let Some(src) = bytes.get(at..at + 32) {
        out.copy_from_slice(src);
    }
    out
}

fn magic_is(rest: &[u8], magic: &[u8; 4]) -> bool {
    rest.get(..4).is_some_and(|m| m == magic)
}

/// Parses a journal byte stream into its surviving dead set. Stops at the
/// first entry whose magic is unknown or whose seal fails — everything
/// after a torn record is untrusted.
fn parse(bytes: &[u8]) -> Vec<DeadRequest> {
    let mut accepted: BTreeMap<u64, DeadRequest> = BTreeMap::new();
    let mut rest = bytes;
    loop {
        if rest.len() >= ACCEPT_BYTES && magic_is(rest, ACCEPT_MAGIC) {
            let (entry, tail) = rest.split_at(ACCEPT_BYTES);
            let (body, seal) = entry.split_at(ACCEPT_BYTES - 32);
            if blake3::hash(body) != *seal {
                break;
            }
            let request_id = u64_at(body, 4);
            accepted.insert(
                request_id,
                DeadRequest {
                    request_id,
                    program_ref: arr32_at(body, 12),
                    input_digest: arr32_at(body, 44),
                },
            );
            rest = tail;
        } else if rest.len() >= DELIVER_BYTES && magic_is(rest, DELIVER_MAGIC) {
            let (entry, tail) = rest.split_at(DELIVER_BYTES);
            let (body, seal) = entry.split_at(DELIVER_BYTES - 32);
            if blake3::hash(body) != *seal {
                break;
            }
            accepted.remove(&u64_at(body, 4));
            rest = tail;
        } else {
            break;
        }
    }
    accepted.into_values().collect()
}

/// BLAKE3 over a request's input ciphertext wires (name + blob, length
/// prefixed) — the digest journaled with each accepted request.
fn input_digest(inputs: &[(String, Vec<u8>)]) -> [u8; 32] {
    let mut h = blake3::Hasher::new();
    for (name, wire) in inputs {
        h.update(&(name.len() as u64).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&(wire.len() as u64).to_le_bytes());
        h.update(wire);
    }
    h.finalize()
}

struct OpenJournal {
    file: File,
}

struct Inner {
    /// Open append handles per live `(tenant, session)`.
    open: BTreeMap<(u64, u64), OpenJournal>,
    /// Dead sets loaded from the previous incarnation's journals.
    dead: BTreeMap<(u64, u64), Vec<DeadRequest>>,
    stats: JournalStats,
}

/// The server-side journal set: one append-only file per live session,
/// plus the dead sets recovered from the previous process's files.
/// `None`-directory servers (no `checkpoint_dir`) journal nothing and
/// report every session as having no dead requests.
pub struct JournalSet {
    dir: Option<PathBuf>,
    inner: Mutex<Inner>,
}

fn lock<'a>(m: &'a Mutex<Inner>) -> MutexGuard<'a, Inner> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn file_name(tenant: u64, session: u64) -> String {
    format!("t{tenant}_s{session}.cej")
}

impl JournalSet {
    /// Opens the journal set over `dir`, loading every prior journal's
    /// dead set, then truncating the files — the recovered information
    /// lives in memory and will be re-journaled as clients resend.
    pub fn open(dir: Option<&Path>) -> Self {
        let mut dead = BTreeMap::new();
        if let Some(dir) = dir {
            if let Ok(entries) = fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().and_then(|e| e.to_str()) != Some("cej") {
                        continue;
                    }
                    let Some(key) = parse_file_name(&path) else {
                        continue;
                    };
                    if let Ok(bytes) = fs::read(&path) {
                        let set = parse(&bytes);
                        if !set.is_empty() {
                            dead.insert(key, set);
                        }
                    }
                    let _ = fs::remove_file(&path);
                }
            }
        }
        JournalSet {
            dir: dir.map(Path::to_path_buf),
            inner: Mutex::new(Inner {
                open: BTreeMap::new(),
                dead,
                stats: JournalStats::default(),
            }),
        }
    }

    /// Whether journaling is active (a checkpoint directory is set).
    pub fn active(&self) -> bool {
        self.dir.is_some()
    }

    /// Journals one accepted request *before* it enters the scheduler.
    /// The inputs are hashed only when the journal persists: without a
    /// checkpoint directory the entry would be dropped, digest and all.
    /// Write failures disable nothing — the journal is best-effort, and a
    /// lost entry only costs the client a guess it already had to make.
    pub fn accept(
        &self,
        tenant: u64,
        session: u64,
        request_id: u64,
        program_ref: &[u8; 32],
        inputs: &[(String, Vec<u8>)],
    ) {
        if self.active() {
            let entry = accept_entry(request_id, program_ref, &input_digest(inputs));
            self.append(tenant, session, &entry);
        }
        lock(&self.inner).stats.accepted += 1;
    }

    /// Journals one delivered response (called after the response frame
    /// was written back to the client's connection).
    pub fn deliver(&self, tenant: u64, session: u64, request_id: u64) {
        self.append(tenant, session, &deliver_entry(request_id));
        lock(&self.inner).stats.delivered += 1;
    }

    /// The dead requests the previous server process left behind for this
    /// session, consumed on first query (counted as reported).
    pub fn dead_requests(&self, tenant: u64, session: u64) -> Vec<DeadRequest> {
        let mut inner = lock(&self.inner);
        let set = inner.dead.remove(&(tenant, session)).unwrap_or_default();
        inner.stats.reported_dead += set.len() as u64;
        set
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JournalStats {
        lock(&self.inner).stats
    }

    fn append(&self, tenant: u64, session: u64, entry: &[u8]) {
        let Some(dir) = &self.dir else { return };
        let mut inner = lock(&self.inner);
        let open = match inner.open.entry((tenant, session)) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                let Ok(file) = open_append(dir, tenant, session) else {
                    return;
                };
                v.insert(OpenJournal { file })
            }
        };
        // One write per entry: either the whole sealed entry lands or the
        // parser stops at the torn tail. Flush so a kill -9 right after
        // scheduling still finds the accept on disk.
        let _ = open.file.write_all(entry);
        let _ = open.file.flush();
    }
}

fn open_append(dir: &Path, tenant: u64, session: u64) -> io::Result<File> {
    fs::create_dir_all(dir)?;
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(file_name(tenant, session)))
}

fn parse_file_name(path: &Path) -> Option<(u64, u64)> {
    let stem = path.file_stem()?.to_str()?;
    let rest = stem.strip_prefix('t')?;
    let (tenant, session) = rest.split_once("_s")?;
    Some((tenant.parse().ok()?, session.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("choco-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn accepted_minus_delivered_survives_restart() {
        let dir = scratch("basic");
        let j = JournalSet::open(Some(&dir));
        let inputs = [("x".to_string(), vec![8u8; 40])];
        j.accept(1, 2, 10, &[7; 32], &[]);
        j.accept(1, 2, 11, &[7; 32], &inputs);
        j.deliver(1, 2, 10);
        j.accept(3, 4, 50, &[1; 32], &[]);
        drop(j);

        // "Restart": a fresh set over the same directory.
        let j2 = JournalSet::open(Some(&dir));
        let dead = j2.dead_requests(1, 2);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].request_id, 11);
        assert_eq!(dead[0].program_ref, [7; 32]);
        assert_eq!(dead[0].input_digest, input_digest(&inputs));
        // Consumed on first query.
        assert!(j2.dead_requests(1, 2).is_empty());
        assert_eq!(j2.dead_requests(3, 4).len(), 1);
        assert_eq!(j2.stats().reported_dead, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_parsing_but_keeps_prefix() {
        let mut bytes = accept_entry(1, &[1; 32], &[2; 32]);
        bytes.extend_from_slice(&accept_entry(2, &[1; 32], &[3; 32]));
        // Simulate a crash mid-append: half an entry.
        let torn = accept_entry(3, &[1; 32], &[4; 32]);
        bytes.extend_from_slice(&torn[..ACCEPT_BYTES / 2]);
        let dead = parse(&bytes);
        assert_eq!(
            dead.iter().map(|d| d.request_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // A flipped bit in a sealed entry invalidates it and the tail.
        let mut flipped = accept_entry(1, &[1; 32], &[2; 32]);
        flipped[10] ^= 1;
        flipped.extend_from_slice(&accept_entry(2, &[1; 32], &[3; 32]));
        assert!(parse(&flipped).is_empty());
    }

    #[test]
    fn inactive_journal_is_a_no_op() {
        let j = JournalSet::open(None);
        assert!(!j.active());
        j.accept(1, 1, 1, &[0; 32], &[]);
        assert!(j.dead_requests(1, 1).is_empty());
    }
}
