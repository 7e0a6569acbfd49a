//! The client-aided protocol: roles, key distribution, and the
//! communication ledger — generic over the homomorphic scheme.
//!
//! CHOCO's trust model (§3.1): a trusted, resource-constrained client holds
//! the secret key and is the only party that encrypts; an untrusted but
//! semi-honest server holds only public evaluation keys (relinearization
//! key, Galois keys) and performs every encrypted linear operation, over
//! plaintext operands (model weights) that are public. The client decrypts
//! intermediate results, applies non-linear plaintext operations, repacks,
//! re-encrypts.
//!
//! The roles are [`Client<S>`] and [`Server<S>`] for any
//! [`HeScheme`](choco_he::HeScheme) — `Client<Bfv>` for the exact integer
//! workloads, `Client<Ckks>` for the approximate ones. A workload's server
//! half is a compiled program ([`crate::compiler::Program`]), written once
//! and run under either scheme.
//!
//! Every byte that crosses the link is recorded in a [`CommLedger`] — the
//! quantity Figures 10, 11, 13 and 14 report — and the client counts its
//! encryption/decryption operations, which the CHOCO-TACO model multiplies
//! by per-op hardware costs (§5.2 methodology).

use choco_he::bfv::Ciphertext;
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks, HeError, HeScheme};
use choco_prng::Blake3Rng;

/// Running totals of client↔server traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommLedger {
    /// Bytes sent client → server.
    pub upload_bytes: u64,
    /// Bytes sent server → client.
    pub download_bytes: u64,
    /// Ciphertexts sent client → server.
    pub uploads: u32,
    /// Ciphertexts sent server → client.
    pub downloads: u32,
    /// Communication rounds (one round = at least one transfer each way).
    pub rounds: u32,
    /// Extra wire bytes spent re-sending frames the transport layer lost or
    /// rejected (tag mismatch, truncation, drop). Kept separate from
    /// `upload_bytes`/`download_bytes` so Figure-10-style reports under a
    /// fault schedule stay point-comparable to the fault-free baseline.
    pub retransmit_bytes: u64,
    /// Extra wire bytes spent recovering from a crash: the reconnect
    /// handshake after a resume. Kept separate
    /// from `upload_bytes` so a crash-interrupted run stays point-comparable
    /// to its uninterrupted twin.
    pub recovery_bytes: u64,
}

impl CommLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a client → server transfer of `bytes`.
    pub fn record_upload(&mut self, bytes: usize) {
        self.upload_bytes += bytes as u64;
        self.uploads += 1;
    }

    /// Records a server → client transfer of `bytes`.
    pub fn record_download(&mut self, bytes: usize) {
        self.download_bytes += bytes as u64;
        self.downloads += 1;
    }

    /// Marks the end of a communication round.
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Records `bytes` of retransmitted wire traffic (lost/corrupt frames
    /// re-sent by the transport layer).
    pub fn record_retransmit(&mut self, bytes: usize) {
        self.retransmit_bytes += bytes as u64;
    }

    /// Records `bytes` of crash-recovery traffic (the reconnect handshake
    /// after a resume).
    pub fn record_recovery(&mut self, bytes: usize) {
        self.recovery_bytes += bytes as u64;
    }

    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.upload_bytes + self.download_bytes
    }

    /// Total bytes in mebibytes.
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &CommLedger) {
        self.upload_bytes += other.upload_bytes;
        self.download_bytes += other.download_bytes;
        self.uploads += other.uploads;
        self.downloads += other.downloads;
        self.rounds += other.rounds;
        self.retransmit_bytes += other.retransmit_bytes;
        self.recovery_bytes += other.recovery_bytes;
    }
}

/// Per-tenant communication accounting: a keyed map of [`CommLedger`]s, one
/// per tenant id, so a multi-tenant server bills each tenant exactly. Kept
/// as a separate type (rather than a tenant field on [`CommLedger`]) so the
/// single-session ledger — and the checkpoint format that serializes it
/// field by field — is unchanged.
///
/// Iteration order is the tenant-id order (`BTreeMap`), so reports are
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerBook {
    ledgers: std::collections::BTreeMap<u64, CommLedger>,
}

impl LedgerBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mutable ledger for `tenant`, created empty on first touch.
    pub fn bill(&mut self, tenant: u64) -> &mut CommLedger {
        self.ledgers.entry(tenant).or_default()
    }

    /// The ledger for `tenant`, if it has ever been billed.
    pub fn get(&self, tenant: u64) -> Option<&CommLedger> {
        self.ledgers.get(&tenant)
    }

    /// Number of tenants with an entry.
    pub fn tenants(&self) -> usize {
        self.ledgers.len()
    }

    /// Iterates `(tenant, ledger)` in tenant-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CommLedger)> {
        self.ledgers.iter().map(|(t, l)| (*t, l))
    }

    /// Folds another book into this one, tenant by tenant.
    pub fn merge(&mut self, other: &LedgerBook) {
        for (tenant, ledger) in other.iter() {
            self.bill(tenant).merge(ledger);
        }
    }

    /// The sum of every tenant's ledger.
    pub fn combined(&self) -> CommLedger {
        let mut total = CommLedger::new();
        for (_, ledger) in self.iter() {
            total.merge(ledger);
        }
        total
    }
}

/// The trusted client role: owns the secret key, encrypts, decrypts, and
/// counts its cryptographic operations. Generic over the scheme `S`.
#[derive(Debug)]
pub struct Client<S: HeScheme> {
    ctx: S::Context,
    keys: S::KeyBundle,
    rng: Blake3Rng,
    enc_ops: u64,
    dec_ops: u64,
}

impl<S: HeScheme> Client<S> {
    /// Creates a client with fresh keys from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates context construction errors.
    pub fn new(params: &HeParams, seed: &[u8]) -> Result<Self, HeError> {
        let ctx = S::context(params)?;
        let mut rng = Blake3Rng::from_seed(seed);
        let keys = S::keygen(&ctx, &mut rng);
        Ok(Client {
            ctx,
            keys,
            rng,
            enc_ops: 0,
            dec_ops: 0,
        })
    }

    /// The HE context (shared with the server).
    pub fn context(&self) -> &S::Context {
        &self.ctx
    }

    /// Provisions the untrusted server with its evaluation keys: the relin
    /// key and Galois keys for the requested rotation steps. (One-time
    /// offline setup.)
    ///
    /// # Errors
    ///
    /// Propagates key-generation errors.
    pub fn provision_server(&mut self, rotation_steps: &[i64]) -> Result<Server<S>, HeError> {
        let relin = S::relin_key(&self.ctx, &self.keys, &mut self.rng)?;
        let galois = S::galois_keys(&self.ctx, &self.keys, rotation_steps, &mut self.rng)?;
        Ok(Server {
            ctx: self.ctx.clone(),
            relin,
            galois,
        })
    }

    /// Encrypts a slot vector (counted as one encryption op).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    // choco-lint: secret (public: values)
    pub fn encrypt(&mut self, values: &[S::Value]) -> Result<S::Ciphertext, HeError> {
        self.enc_ops += 1;
        S::encrypt(&self.ctx, &self.keys, values, &mut self.rng)
    }

    /// Decrypts to a slot vector (counted as one decryption op).
    ///
    /// # Errors
    ///
    /// Propagates decoding errors.
    // choco-lint: secret (public: ct)
    pub fn decrypt(&mut self, ct: &S::Ciphertext) -> Result<Vec<S::Value>, HeError> {
        self.dec_ops += 1;
        S::decrypt(&self.ctx, &self.keys, ct)
    }

    /// Remaining computation headroom of a ciphertext: noise-budget bits
    /// (BFV) or remaining rescale levels (CKKS). A diagnostic: it decrypts
    /// with the secret key, so it measures what the client holds.
    pub fn health(&self, ct: &S::Ciphertext) -> f64 {
        S::health(&self.ctx, &self.keys, ct)
    }

    /// Number of encryptions performed so far.
    pub fn encryption_count(&self) -> u64 {
        self.enc_ops
    }

    /// Number of decryptions performed so far.
    pub fn decryption_count(&self) -> u64 {
        self.dec_ops
    }

    /// Bytes drawn from the client RNG so far — together with the session
    /// seed this pins the RNG state for exact resume.
    pub(crate) fn rng_bytes_drawn(&self) -> u64 {
        self.rng.bytes_drawn()
    }

    /// Moves the client to a checkpointed position: its RNG forward to
    /// `rng_drawn` bytes, its op counters to `enc_ops` and `dec_ops`.
    /// Returns `false`, changing nothing, when the RNG has already drawn
    /// more than `rng_drawn` bytes.
    pub(crate) fn fast_forward(&mut self, rng_drawn: u64, enc_ops: u64, dec_ops: u64) -> bool {
        let Some(skip) = rng_drawn.checked_sub(self.rng.bytes_drawn()) else {
            return false;
        };
        self.rng.skip(skip);
        self.enc_ops = enc_ops;
        self.dec_ops = dec_ops;
        true
    }
}

impl Client<Bfv> {
    /// Encrypts a slot vector (BFV-named convenience for
    /// [`Client::encrypt`]).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn encrypt_slots(&mut self, values: &[u64]) -> Result<Ciphertext, HeError> {
        self.encrypt(values)
    }

    /// Decrypts to a slot vector (BFV-named convenience for
    /// [`Client::decrypt`]).
    ///
    /// # Errors
    ///
    /// Propagates decoding errors.
    pub fn decrypt_slots(&mut self, ct: &Ciphertext) -> Result<Vec<u64>, HeError> {
        self.decrypt(ct)
    }
}

impl Client<Ckks> {
    /// Encrypts a real-valued vector (CKKS-named convenience for
    /// [`Client::encrypt`]).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn encrypt_values(
        &mut self,
        values: &[f64],
    ) -> Result<choco_he::ckks::CkksCiphertext, HeError> {
        self.encrypt(values)
    }

    /// Decrypts to real values (CKKS-named convenience for
    /// [`Client::decrypt`]).
    ///
    /// # Errors
    ///
    /// Propagates decoding errors.
    pub fn decrypt_values(
        &mut self,
        ct: &choco_he::ckks::CkksCiphertext,
    ) -> Result<Vec<f64>, HeError> {
        self.decrypt(ct)
    }
}

/// The untrusted server role: holds the context and the public evaluation
/// keys, nothing more. Generic over the scheme `S`. Workloads do not call
/// it op by op: their server work is a compiled program
/// ([`crate::compiler`]) that a session runs against these keys. What it
/// evaluates itself is the three calls the hand-run
/// [`matvec_diagonals`](crate::linalg::matvec_diagonals) needs: `add`,
/// `rotate` and the fused `dot_diagonals`.
#[derive(Debug)]
pub struct Server<S: HeScheme> {
    ctx: S::Context,
    relin: S::RelinKey,
    galois: S::GaloisKeys,
}

impl<S: HeScheme> Server<S> {
    /// The HE context.
    pub fn context(&self) -> &S::Context {
        &self.ctx
    }

    /// The evaluation key for relinearization.
    pub fn relin_key(&self) -> &S::RelinKey {
        &self.relin
    }

    /// The Galois key set.
    pub fn galois_keys(&self) -> &S::GaloisKeys {
        &self.galois
    }

    /// Width of one rotation group (the packing unit for tiled kernels).
    pub fn slot_width(&self) -> usize {
        S::slot_width(&self.ctx)
    }

    /// Ciphertext + ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches.
    pub fn add(&self, a: &S::Ciphertext, b: &S::Ciphertext) -> Result<S::Ciphertext, HeError> {
        S::add(&self.ctx, a, b)
    }

    /// Rotates slots left by `step` within the rotation group.
    ///
    /// # Errors
    ///
    /// Returns a missing-Galois-key error for unprovisioned steps.
    pub fn rotate(&self, ct: &S::Ciphertext, step: i64) -> Result<S::Ciphertext, HeError> {
        S::rotate(&self.ctx, ct, step, &self.galois)
    }

    /// Fused diagonal dot kernel: `Σ_k rot(ct, shift_k) ⊙ diag_k`, routed
    /// through the scheme's hoisted fast path.
    ///
    /// # Errors
    ///
    /// Propagates missing Galois keys and encoding errors.
    pub fn dot_diagonals(
        &self,
        ct: &S::Ciphertext,
        diagonals: &[(i64, Vec<S::Value>)],
    ) -> Result<S::Ciphertext, HeError> {
        S::dot_diagonals(&self.ctx, ct, diagonals, &self.galois)
    }
}

/// Transfers a ciphertext client → server, recording its bytes.
pub fn upload<S: HeScheme>(ledger: &mut CommLedger, ct: &S::Ciphertext) -> S::Ciphertext {
    ledger.record_upload(S::ct_bytes(ct));
    ct.clone()
}

/// Transfers a ciphertext server → client, recording its bytes.
pub fn download<S: HeScheme>(ledger: &mut CommLedger, ct: &S::Ciphertext) -> S::Ciphertext {
    ledger.record_download(S::ct_bytes(ct));
    ct.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bfv_params() -> HeParams {
        HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap()
    }

    #[test]
    fn ledger_book_bills_per_tenant() {
        let mut book = LedgerBook::new();
        book.bill(7).record_upload(100);
        book.bill(7).record_download(40);
        book.bill(3).record_upload(9);
        book.bill(3).record_retransmit(5);
        assert_eq!(book.tenants(), 2);
        assert_eq!(book.get(7).map(|l| l.upload_bytes), Some(100));
        assert_eq!(book.get(7).map(|l| l.download_bytes), Some(40));
        assert_eq!(book.get(3).map(|l| l.retransmit_bytes), Some(5));
        assert_eq!(book.get(99), None);
        // Deterministic (tenant-id) iteration order.
        let ids: Vec<u64> = book.iter().map(|(t, _)| t).collect();
        assert_eq!(ids, vec![3, 7]);
        // Merge folds tenant-wise; combined sums everything.
        let mut other = LedgerBook::new();
        other.bill(7).record_upload(1);
        other.bill(11).record_download(2);
        book.merge(&other);
        assert_eq!(book.get(7).map(|l| l.upload_bytes), Some(101));
        assert_eq!(book.tenants(), 3);
        let total = book.combined();
        assert_eq!(total.upload_bytes, 101 + 9);
        assert_eq!(total.download_bytes, 40 + 2);
        assert_eq!(total.retransmit_bytes, 5);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = CommLedger::new();
        a.record_upload(100);
        a.record_download(250);
        a.end_round();
        assert_eq!(a.total_bytes(), 350);
        assert_eq!(a.uploads, 1);
        assert_eq!(a.downloads, 1);
        assert_eq!(a.rounds, 1);
        let mut b = CommLedger::new();
        b.record_upload(50);
        b.merge(&a);
        assert_eq!(b.total_bytes(), 400);
        assert_eq!(b.uploads, 2);
    }

    #[test]
    fn client_server_roundtrip_with_accounting() {
        let params = bfv_params();
        let mut client = Client::<Bfv>::new(&params, b"proto test").unwrap();
        let server = client.provision_server(&[1, -1]).unwrap();
        let mut ledger = CommLedger::new();

        let values: Vec<u64> = (0..16).collect();
        let ct = client.encrypt_slots(&values).unwrap();
        let at_server = upload::<Bfv>(&mut ledger, &ct);

        // Server doubles the values homomorphically.
        let ctx = server.context();
        let two = ctx.batch_encoder().unwrap().encode(&[2u64; 512]).unwrap();
        let doubled = ctx.evaluator().multiply_plain(&at_server, &two);
        let back = download::<Bfv>(&mut ledger, &doubled);
        ledger.end_round();

        let out = client.decrypt_slots(&back).unwrap();
        assert_eq!(
            &out[..16],
            &(0..16).map(|i| i * 2).collect::<Vec<u64>>()[..]
        );
        assert_eq!(client.encryption_count(), 1);
        assert_eq!(client.decryption_count(), 1);
        assert_eq!(ledger.rounds, 1);
        // Up: the compact upload, c0 (1024 coeffs × 2 data residues at
        // 40 bits, 5 bytes each), the 32-byte seed and its 2 moduli. Down:
        // the 2 moduli and 2 polys.
        assert_eq!(ledger.upload_bytes, 10240 + 32 + 16);
        assert_eq!(ledger.download_bytes, 16 + 2 * 10240);
    }

    #[test]
    fn server_rotations_work_through_protocol() {
        let params = bfv_params();
        let mut client = Client::<Bfv>::new(&params, b"proto rot").unwrap();
        let server = client.provision_server(&[2]).unwrap();
        let values: Vec<u64> = (0..512).collect();
        let ct = client.encrypt_slots(&values).unwrap();
        let rotated = server.rotate(&ct, 2).unwrap();
        let out = client.decrypt_slots(&rotated).unwrap();
        assert_eq!(out[0], 2);
        assert_eq!(out[509], 511);
        assert_eq!(out[510], 0); // wrapped within the row
    }

    #[test]
    fn ckks_protocol_roundtrip() {
        let params = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
        let mut client = Client::<Ckks>::new(&params, b"ckks proto").unwrap();
        let server = client.provision_server(&[1]).unwrap();
        let mut ledger = CommLedger::new();
        let ct = client.encrypt_values(&[1.0, 2.0, 3.0]).unwrap();
        let up = upload::<Ckks>(&mut ledger, &ct);
        let rot = server.rotate(&up, 1).unwrap();
        let down = download::<Ckks>(&mut ledger, &rot);
        let out = client.decrypt_values(&down).unwrap();
        assert!((out[0] - 2.0).abs() < 1e-2);
        assert!((out[1] - 3.0).abs() < 1e-2);
        assert!(ledger.total_bytes() > 0);
    }

    #[test]
    fn generic_workload_runs_under_both_schemes() {
        // The same generic function body serves both schemes — the rule
        // DESIGN.md §9 states: a workload is written once, as a program,
        // and the server runs it compiled.
        use crate::compiler::{compile, CompilerOptions, CompilerScheme, Program};
        use std::collections::HashMap;

        fn double_first_slots<S: CompilerScheme>(
            params: &HeParams,
            opts: &CompilerOptions,
            inputs: &[f64],
        ) -> Result<Vec<f64>, HeError> {
            let mut p = Program::new();
            let x = p.input("x");
            let two = p.constant(&vec![2.0; inputs.len()]);
            let doubled = p.mul_plain(x, two);
            p.output(doubled);
            let program = compile(&p, opts).map_err(|e| HeError::Mismatch(e.to_string()))?;

            let mut client = Client::<S>::new(params, b"generic demo")?;
            let server = client.provision_server(&[])?;
            let q = S::quantize(client.context(), inputs, opts.scale_bits, 1);
            let ct = client.encrypt(&q)?;
            let (ctx, relin, galois) = (server.context(), server.relin_key(), server.galois_keys());
            let named = HashMap::from([("x".to_string(), ct)]);
            let out = program.execute_encrypted::<S>(ctx, &named, relin, galois)?;
            let slots = client.decrypt(&out[0])?;
            // The product carries the input's scale times the constant's.
            let out = S::dequantize(client.context(), &slots, opts.scale_bits, 2);
            Ok(out[..inputs.len()].to_vec())
        }

        let inputs = [0.5f64, 1.25, 3.0];
        let bfv = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let ckks = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
        // A BFV product's 6 + 6 scale bits stay under the compiler's rescale
        // threshold (scale + half a prime), so BFV needs no chain; CKKS's
        // 38 + 38 cross it, and the product is rescaled once.
        let opts = |scale_bits| CompilerOptions {
            scale_bits,
            prime_bits: 45,
            max_levels: 2,
        };
        for out in [
            double_first_slots::<Bfv>(&bfv, &opts(6), &inputs).unwrap(),
            double_first_slots::<Ckks>(&ckks, &opts(38), &inputs).unwrap(),
        ] {
            for (o, i) in out.iter().zip(&inputs) {
                assert!((o - 2.0 * i).abs() < 1e-2, "{o} vs {}", 2.0 * i);
            }
        }
    }
}
