//! The scheme abstraction: one trait, two homomorphic schemes.
//!
//! CHOCO's client-aided offload model is scheme-agnostic — the paper runs
//! the same rotational-redundancy algorithms over BFV (exact workloads)
//! and CKKS (PageRank, K-Means), and CHET/EVA-style runtimes retarget
//! kernels without per-scheme rewrites. [`HeScheme`] captures the slice of
//! both schemes the offload protocol needs:
//!
//! * role setup (context, key generation, evaluation keys),
//! * the client boundary (encrypt / decrypt / health probe) — an encryption
//!   is the symmetric, seeded upload form, whose wire carries `c0` and a
//!   32-byte seed in place of `c1`,
//! * the server-side ciphertext algebra (`add`, `sub`, rotations, and the
//!   fused diagonal dot — one double-hoisted kernel,
//!   [`crate::rlwe::dot_galois`], under both schemes); plaintext operands
//!   are the compiled-program executor's, which encodes them once per use
//!   site and caches them (`choco::compiler::CompilerScheme`),
//! * wire serialization hooks for ciphertexts and the server's evaluation
//!   keys (the client's key bundle has none: a resumed session derives it
//!   again from its seed), and
//! * fixed-point **quantization hooks** that unify the two numeric models:
//!   BFV carries an explicit scale `2^(scale_bits·depth)` modulo `t`, while
//!   CKKS tracks its scale inside the ciphertext, so [`HeScheme::quantize`]
//!   is modular fixed-point for [`Bfv`] and the identity for [`Ckks`].
//!
//! Every method is an associated function on a zero-sized scheme marker
//! ([`Bfv`], [`Ckks`]), so generic code monomorphizes — there is no dynamic
//! dispatch anywhere on the hot path.
//!
//! The *health* probe measures a ciphertext's remaining headroom: for BFV
//! the invariant noise budget in bits (which needs the secret key), for
//! CKKS the remaining rescaling levels. It is a diagnostic; noise is bounded
//! before a run, by the parameter choice and the verifier, not watched
//! during one.

use crate::bfv::{self, BfvContext};
use crate::ckks::{self, CkksContext};
use crate::params::{HeParams, SchemeType};
use crate::rlwe::{GaloisKeys, KeyBundle, RelinKey};
use crate::serialize;
use crate::HeError;
use choco_prng::Blake3Rng;

/// The homomorphic-scheme capability the offload protocol is generic over.
///
/// Implementations are zero-sized markers; all state lives in the
/// associated `Context`/key types. See the [module docs](self) for the
/// design rationale.
pub trait HeScheme: Sized + std::fmt::Debug + 'static {
    /// The slot value type: `u64` (exact, mod `t`) or `f64` (approximate).
    type Value: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync;
    /// The scheme context (parameters, tables, encoders).
    type Context: Clone + std::fmt::Debug;
    /// A ciphertext.
    type Ciphertext: Clone + std::fmt::Debug;
    /// Client key material: the secret key every encryption and
    /// decryption uses.
    type KeyBundle: std::fmt::Debug;
    /// The relinearization key.
    type RelinKey: std::fmt::Debug;
    /// The Galois rotation key set.
    type GaloisKeys: std::fmt::Debug;

    /// Which scheme this is (drives transport frame kinds and reports).
    const SCHEME: SchemeType;

    /// Builds a context from parameters.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    fn context(params: &HeParams) -> Result<Self::Context, HeError>;

    /// Generates a fresh secret key.
    fn keygen(ctx: &Self::Context, rng: &mut Blake3Rng) -> Self::KeyBundle;

    /// Generates the relinearization key.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    fn relin_key(
        ctx: &Self::Context,
        keys: &Self::KeyBundle,
        rng: &mut Blake3Rng,
    ) -> Result<Self::RelinKey, HeError>;

    /// Generates Galois keys for the given rotation steps.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    fn galois_keys(
        ctx: &Self::Context,
        keys: &Self::KeyBundle,
        steps: &[i64],
        rng: &mut Blake3Rng,
    ) -> Result<Self::GaloisKeys, HeError>;

    /// Encodes and encrypts a slot vector (the client boundary): a
    /// symmetric encryption under the bundle's secret key whose mask `c1`
    /// expands from a fresh 32-byte seed drawn from `rng`, so its wire is the
    /// compact frame of `c0` and the seed. (The paper's public-key Eq. 2
    /// stays on the scheme contexts.)
    ///
    /// # Errors
    ///
    /// Propagates encoding/encryption failures.
    fn encrypt(
        ctx: &Self::Context,
        keys: &Self::KeyBundle,
        values: &[Self::Value],
        rng: &mut Blake3Rng,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Decrypts and decodes to a slot vector (the client boundary).
    ///
    /// # Errors
    ///
    /// Propagates decoding failures. A BFV reply compressed to widths
    /// other than `ctx`'s licence is [`HeError::Mismatch`], before any
    /// decryption.
    fn decrypt(
        ctx: &Self::Context,
        keys: &Self::KeyBundle,
        ct: &Self::Ciphertext,
    ) -> Result<Vec<Self::Value>, HeError>;

    /// Remaining computation headroom of a ciphertext: invariant noise
    /// budget in bits (BFV, requires the secret key) or remaining rescale
    /// levels (CKKS, public).
    fn health(ctx: &Self::Context, keys: &Self::KeyBundle, ct: &Self::Ciphertext) -> f64;

    /// Width of one rotation group: the unit all packed kernels tile into
    /// (`degree/2` for BFV row rotations, the slot count for CKKS).
    fn slot_width(ctx: &Self::Context) -> usize;

    /// Serializes a ciphertext for the wire.
    fn ct_to_wire(ct: &Self::Ciphertext) -> Vec<u8>;

    /// Deserializes a ciphertext from the wire.
    ///
    /// # Errors
    ///
    /// Returns [`HeError`] on malformed bytes.
    fn ct_from_wire(bytes: &[u8]) -> Result<Self::Ciphertext, HeError>;

    /// Payload size of a ciphertext (the quantity the ledger bills): its
    /// compact frame's for a fresh encryption.
    fn ct_bytes(ct: &Self::Ciphertext) -> usize;

    /// Refuses a ciphertext that cannot be a program input in `ctx`: one
    /// below the top modulus level or a compressed BFV reply (such as a
    /// download re-submitted, whatever level it was lifted over), or one
    /// over moduli other than
    /// `ctx`'s data primes or at another degree — an upload made for
    /// another parameter set, which the evaluator would compute over the
    /// wrong ring. Every frame carries its moduli, full or compact.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] naming the levels or both sets of
    /// moduli.
    fn check_moduli(ctx: &Self::Context, ct: &Self::Ciphertext) -> Result<(), HeError>;

    /// Refuses evaluation keys that cannot serve `ctx`: a relinearization
    /// or Galois key over moduli other than `ctx`'s full basis, or at
    /// another degree — keys made for another parameter set, which would
    /// key-switch over the wrong ring.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::Mismatch`] naming both sets of moduli.
    fn check_keys(
        ctx: &Self::Context,
        rk: &Self::RelinKey,
        gk: &Self::GaloisKeys,
    ) -> Result<(), HeError>;

    /// Wire size of the Galois key set.
    fn galois_keys_bytes(gk: &Self::GaloisKeys) -> usize;

    /// Ciphertext + ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches.
    fn add(
        ctx: &Self::Context,
        a: &Self::Ciphertext,
        b: &Self::Ciphertext,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Ciphertext − ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates operand mismatches.
    fn sub(
        ctx: &Self::Context,
        a: &Self::Ciphertext,
        b: &Self::Ciphertext,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Rotates slots left by `step` within the rotation group.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::MissingGaloisKey`] for unprovisioned steps.
    fn rotate(
        ctx: &Self::Context,
        ct: &Self::Ciphertext,
        step: i64,
        gk: &Self::GaloisKeys,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Fused diagonal dot kernel: `Σ_k rot(ct, shift_k) ⊙ diag_k` through
    /// the one double-hoisted kernel both schemes share
    /// ([`crate::rlwe::dot_galois`]): one call to the scheme's
    /// `dot_rotations_many` with one output, each diagonal encoded as its
    /// term arrives; CKKS rescales the sum once. The workhorse of the
    /// diagonal-method matvec.
    ///
    /// # Errors
    ///
    /// Propagates missing Galois keys and encoding failures.
    fn dot_diagonals(
        ctx: &Self::Context,
        ct: &Self::Ciphertext,
        diagonals: &[(i64, Vec<Self::Value>)],
        gk: &Self::GaloisKeys,
    ) -> Result<Self::Ciphertext, HeError>;

    /// Quantizes reals into the scheme's slot domain at fixed-point depth
    /// `depth`: BFV maps `v ↦ round(v · 2^(scale_bits·depth)) mod t`, CKKS
    /// passes values through (its ciphertexts carry the scale).
    fn quantize(
        ctx: &Self::Context,
        values: &[f64],
        scale_bits: u32,
        depth: u32,
    ) -> Vec<Self::Value>;

    /// Inverse of [`HeScheme::quantize`]: strips `depth` accumulated scale
    /// factors (BFV) or passes through (CKKS).
    fn dequantize(
        ctx: &Self::Context,
        values: &[Self::Value],
        scale_bits: u32,
        depth: u32,
    ) -> Vec<f64>;

    /// Serializes the relinearization key.
    fn relin_to_wire(rk: &Self::RelinKey) -> Vec<u8>;

    /// Deserializes a relinearization key.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidKeyMaterial`] on malformed bytes.
    fn relin_from_wire(bytes: &[u8]) -> Result<Self::RelinKey, HeError>;

    /// Serializes the Galois key set, deterministically (sorted elements).
    fn galois_to_wire(gk: &Self::GaloisKeys) -> Vec<u8>;

    /// Deserializes a Galois key set.
    ///
    /// # Errors
    ///
    /// Returns [`HeError::InvalidKeyMaterial`] on malformed bytes.
    fn galois_from_wire(bytes: &[u8]) -> Result<Self::GaloisKeys, HeError>;

    /// Whether a decrypted slot matches an expected sentinel value: exact
    /// equality for BFV, `|got − want| ≤ tol` for CKKS (approximate).
    fn value_matches(got: Self::Value, want: Self::Value, tol: f64) -> bool;
}

/// [`HeScheme::check_moduli`] for a degree-`degree` ciphertext over
/// `moduli` against a context of degree `n` whose top level has the data
/// primes `primes`.
fn check_input_moduli(
    moduli: &[u64],
    degree: usize,
    primes: &[u64],
    n: usize,
) -> Result<(), HeError> {
    if moduli.len() != primes.len() {
        return Err(HeError::Mismatch(format!(
            "ciphertext at level {} where inputs enter at the top level {}",
            moduli.len(),
            primes.len()
        )));
    }
    if moduli != primes || degree != n {
        return Err(HeError::Mismatch(format!(
            "ciphertext over moduli {moduli:?} at degree {degree} where the context's are \
             {primes:?} at degree {n}"
        )));
    }
    Ok(())
}

/// [`HeScheme::check_keys`] against the parameter set `params`: both keys
/// must live over its full basis at its degree.
fn check_key_moduli(rk: &RelinKey, gk: &GaloisKeys, params: &HeParams) -> Result<(), HeError> {
    let (primes, n) = (params.primes(), params.degree());
    let which = if !rk.key_switching_key().is_over(primes, n) {
        "relinearization key"
    } else if !gk.all_over(primes, n) {
        "Galois key"
    } else {
        return Ok(());
    };
    Err(HeError::Mismatch(format!(
        "{which} not over the parameter set's moduli {primes:?} at degree {n}"
    )))
}

/// The ciphertext a one-output fused dot (`dot_rotations_many(ct, 1, …)`)
/// returns.
fn one_output<C>(mut outputs: Vec<C>) -> Result<C, HeError> {
    outputs
        .pop()
        .ok_or_else(|| HeError::Mismatch("a fused dot needs an output".into()))
}

/// Marker for the exact integer scheme (BFV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfv;

/// Marker for the approximate fixed-point scheme (CKKS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ckks;

impl HeScheme for Bfv {
    type Value = u64;
    type Context = BfvContext;
    type Ciphertext = bfv::Ciphertext;
    type KeyBundle = KeyBundle;
    type RelinKey = RelinKey;
    type GaloisKeys = GaloisKeys;

    const SCHEME: SchemeType = SchemeType::Bfv;

    fn context(params: &HeParams) -> Result<BfvContext, HeError> {
        BfvContext::new(params)
    }

    // choco-lint: secret
    fn keygen(ctx: &BfvContext, rng: &mut Blake3Rng) -> KeyBundle {
        ctx.keygen(rng)
    }

    // choco-lint: secret (public: ctx)
    fn relin_key(
        ctx: &BfvContext,
        keys: &KeyBundle,
        rng: &mut Blake3Rng,
    ) -> Result<RelinKey, HeError> {
        ctx.relin_key(keys.secret_key(), rng)
    }

    // choco-lint: secret (public: ctx, steps)
    fn galois_keys(
        ctx: &BfvContext,
        keys: &KeyBundle,
        steps: &[i64],
        rng: &mut Blake3Rng,
    ) -> Result<GaloisKeys, HeError> {
        ctx.galois_keys(keys.secret_key(), steps, rng)
    }

    // choco-lint: secret (public: ctx, values)
    fn encrypt(
        ctx: &BfvContext,
        keys: &KeyBundle,
        values: &[u64],
        rng: &mut Blake3Rng,
    ) -> Result<bfv::Ciphertext, HeError> {
        let pt = ctx.batch_encoder()?.encode(values)?;
        Ok(ctx.encrypt_symmetric(&pt, keys.secret_key(), rng))
    }

    // choco-lint: secret (public: ctx, ct)
    fn decrypt(
        ctx: &BfvContext,
        keys: &KeyBundle,
        ct: &bfv::Ciphertext,
    ) -> Result<Vec<u64>, HeError> {
        let widths = ct.reply().map(bfv::CompressedReply::widths);
        if widths.is_some() && widths != ctx.reply_widths() {
            return Err(HeError::Mismatch(format!(
                "reply compressed to widths {widths:?}, not this set's licence {:?}",
                ctx.reply_widths()
            )));
        }
        let pt = ctx.decryptor(keys.secret_key()).decrypt(ct);
        ctx.batch_encoder()?.decode(&pt)
    }

    // choco-lint: secret (public: ctx, ct)
    fn health(ctx: &BfvContext, keys: &KeyBundle, ct: &bfv::Ciphertext) -> f64 {
        ctx.decryptor(keys.secret_key()).invariant_noise_budget(ct)
    }

    fn slot_width(ctx: &BfvContext) -> usize {
        ctx.degree() / 2
    }

    fn ct_to_wire(ct: &bfv::Ciphertext) -> Vec<u8> {
        serialize::ciphertext_to_bytes(ct)
    }

    fn ct_from_wire(bytes: &[u8]) -> Result<bfv::Ciphertext, HeError> {
        serialize::ciphertext_from_bytes(bytes)
    }

    fn ct_bytes(ct: &bfv::Ciphertext) -> usize {
        ct.byte_size()
    }

    fn check_moduli(ctx: &BfvContext, ct: &bfv::Ciphertext) -> Result<(), HeError> {
        if let Some(reply) = ct.reply() {
            return Err(HeError::Mismatch(format!(
                "a reply compressed to widths {:?} where inputs enter at the top level uncompressed",
                reply.widths()
            )));
        }
        let primes = ctx.data_basis().primes();
        check_input_moduli(ct.moduli(), ct.degree(), primes, ctx.degree())
    }

    fn check_keys(ctx: &BfvContext, rk: &RelinKey, gk: &GaloisKeys) -> Result<(), HeError> {
        check_key_moduli(rk, gk, ctx.params())
    }

    fn galois_keys_bytes(gk: &GaloisKeys) -> usize {
        gk.size_bytes()
    }

    fn add(
        ctx: &BfvContext,
        a: &bfv::Ciphertext,
        b: &bfv::Ciphertext,
    ) -> Result<bfv::Ciphertext, HeError> {
        ctx.evaluator().add(a, b)
    }

    fn sub(
        ctx: &BfvContext,
        a: &bfv::Ciphertext,
        b: &bfv::Ciphertext,
    ) -> Result<bfv::Ciphertext, HeError> {
        ctx.evaluator().sub(a, b)
    }

    fn rotate(
        ctx: &BfvContext,
        ct: &bfv::Ciphertext,
        step: i64,
        gk: &GaloisKeys,
    ) -> Result<bfv::Ciphertext, HeError> {
        ctx.evaluator().rotate_rows(ct, step, gk)
    }

    fn dot_diagonals(
        ctx: &BfvContext,
        ct: &bfv::Ciphertext,
        diagonals: &[(i64, Vec<u64>)],
        gk: &GaloisKeys,
    ) -> Result<bfv::Ciphertext, HeError> {
        let (encoder, eval) = (ctx.batch_encoder()?, ctx.evaluator());
        // One operand alive at a time.
        let terms = diagonals
            .iter()
            .map(|(shift, diag)| Ok((*shift, [eval.dot_operand(&encoder.encode(diag)?)?])));
        one_output(eval.dot_rotations_many(ct, 1, terms, gk)?)
    }

    fn quantize(ctx: &BfvContext, values: &[f64], scale_bits: u32, depth: u32) -> Vec<u64> {
        let t = ctx.plain_modulus();
        let factor = ((1u64 << scale_bits) as f64).powi(depth as i32);
        values
            .iter()
            .map(|&v| ((v * factor).round() as u64) % t)
            .collect()
    }

    fn dequantize(_ctx: &BfvContext, values: &[u64], scale_bits: u32, depth: u32) -> Vec<f64> {
        let factor = ((1u64 << scale_bits) as f64).powi(depth as i32);
        values.iter().map(|&v| v as f64 / factor).collect()
    }

    fn relin_to_wire(rk: &RelinKey) -> Vec<u8> {
        serialize::relin_to_bytes(Self::SCHEME, rk)
    }

    fn relin_from_wire(bytes: &[u8]) -> Result<RelinKey, HeError> {
        serialize::relin_from_bytes(Self::SCHEME, bytes)
    }

    fn galois_to_wire(gk: &GaloisKeys) -> Vec<u8> {
        serialize::galois_to_bytes(Self::SCHEME, gk)
    }

    fn galois_from_wire(bytes: &[u8]) -> Result<GaloisKeys, HeError> {
        serialize::galois_from_bytes(Self::SCHEME, bytes)
    }

    fn value_matches(got: u64, want: u64, _tol: f64) -> bool {
        got == want
    }
}

impl HeScheme for Ckks {
    type Value = f64;
    type Context = CkksContext;
    type Ciphertext = ckks::CkksCiphertext;
    type KeyBundle = KeyBundle;
    type RelinKey = RelinKey;
    type GaloisKeys = GaloisKeys;

    const SCHEME: SchemeType = SchemeType::Ckks;

    fn context(params: &HeParams) -> Result<CkksContext, HeError> {
        CkksContext::new(params)
    }

    // choco-lint: secret
    fn keygen(ctx: &CkksContext, rng: &mut Blake3Rng) -> KeyBundle {
        ctx.keygen(rng)
    }

    // choco-lint: secret (public: ctx)
    fn relin_key(
        ctx: &CkksContext,
        keys: &KeyBundle,
        rng: &mut Blake3Rng,
    ) -> Result<RelinKey, HeError> {
        Ok(ctx.relin_key(keys.secret_key(), rng))
    }

    // choco-lint: secret (public: ctx, steps)
    fn galois_keys(
        ctx: &CkksContext,
        keys: &KeyBundle,
        steps: &[i64],
        rng: &mut Blake3Rng,
    ) -> Result<GaloisKeys, HeError> {
        ctx.galois_keys(keys.secret_key(), steps, rng)
    }

    // choco-lint: secret (public: ctx, values)
    fn encrypt(
        ctx: &CkksContext,
        keys: &KeyBundle,
        values: &[f64],
        rng: &mut Blake3Rng,
    ) -> Result<ckks::CkksCiphertext, HeError> {
        let pt = ctx.encode(values)?;
        ctx.encrypt_symmetric(&pt, keys.secret_key(), rng)
    }

    // choco-lint: secret (public: ctx, ct)
    fn decrypt(
        ctx: &CkksContext,
        keys: &KeyBundle,
        ct: &ckks::CkksCiphertext,
    ) -> Result<Vec<f64>, HeError> {
        let pt = ctx.decrypt(ct, keys.secret_key());
        Ok(ctx.decode(&pt))
    }

    fn health(_ctx: &CkksContext, _keys: &KeyBundle, ct: &ckks::CkksCiphertext) -> f64 {
        ct.level() as f64
    }

    fn slot_width(ctx: &CkksContext) -> usize {
        ctx.slot_count()
    }

    fn ct_to_wire(ct: &ckks::CkksCiphertext) -> Vec<u8> {
        serialize::ckks_ciphertext_to_bytes(ct)
    }

    fn ct_from_wire(bytes: &[u8]) -> Result<ckks::CkksCiphertext, HeError> {
        serialize::ckks_ciphertext_from_bytes(bytes)
    }

    fn ct_bytes(ct: &ckks::CkksCiphertext) -> usize {
        ct.byte_size()
    }

    fn check_moduli(ctx: &CkksContext, ct: &ckks::CkksCiphertext) -> Result<(), HeError> {
        let top = ctx.params().primes().get(..ctx.top_level());
        check_input_moduli(ct.moduli(), ct.degree(), top.unwrap_or(&[]), ctx.degree())
    }

    fn check_keys(ctx: &CkksContext, rk: &RelinKey, gk: &GaloisKeys) -> Result<(), HeError> {
        check_key_moduli(rk, gk, ctx.params())
    }

    fn galois_keys_bytes(gk: &GaloisKeys) -> usize {
        gk.size_bytes()
    }

    fn add(
        ctx: &CkksContext,
        a: &ckks::CkksCiphertext,
        b: &ckks::CkksCiphertext,
    ) -> Result<ckks::CkksCiphertext, HeError> {
        ctx.add(a, b)
    }

    fn sub(
        ctx: &CkksContext,
        a: &ckks::CkksCiphertext,
        b: &ckks::CkksCiphertext,
    ) -> Result<ckks::CkksCiphertext, HeError> {
        ctx.sub(a, b)
    }

    fn rotate(
        ctx: &CkksContext,
        ct: &ckks::CkksCiphertext,
        step: i64,
        gk: &GaloisKeys,
    ) -> Result<ckks::CkksCiphertext, HeError> {
        ctx.rotate(ct, step, gk)
    }

    fn dot_diagonals(
        ctx: &CkksContext,
        ct: &ckks::CkksCiphertext,
        diagonals: &[(i64, Vec<f64>)],
        gk: &GaloisKeys,
    ) -> Result<ckks::CkksCiphertext, HeError> {
        // One operand alive at a time; one rescale for the whole dot.
        let terms = diagonals
            .iter()
            .map(|(shift, diag)| Ok((*shift, [ctx.dot_operand(diag, ct.level())?])));
        ctx.rescale(&one_output(ctx.dot_rotations_many(ct, 1, terms, gk)?)?)
    }

    fn quantize(_ctx: &CkksContext, values: &[f64], _scale_bits: u32, _depth: u32) -> Vec<f64> {
        values.to_vec()
    }

    fn dequantize(_ctx: &CkksContext, values: &[f64], _scale_bits: u32, _depth: u32) -> Vec<f64> {
        values.to_vec()
    }

    fn relin_to_wire(rk: &RelinKey) -> Vec<u8> {
        serialize::relin_to_bytes(Self::SCHEME, rk)
    }

    fn relin_from_wire(bytes: &[u8]) -> Result<RelinKey, HeError> {
        serialize::relin_from_bytes(Self::SCHEME, bytes)
    }

    fn galois_to_wire(gk: &GaloisKeys) -> Vec<u8> {
        serialize::galois_to_bytes(Self::SCHEME, gk)
    }

    fn galois_from_wire(bytes: &[u8]) -> Result<GaloisKeys, HeError> {
        serialize::galois_from_bytes(Self::SCHEME, bytes)
    }

    fn value_matches(got: f64, want: f64, tol: f64) -> bool {
        (got - want).abs() <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Blake3Rng {
        Blake3Rng::from_seed(b"scheme tests")
    }

    /// The generic boundary round-trips for any scheme; exactness is
    /// asserted by each monomorphization below. A fresh encryption travels
    /// as its compact frame of exactly `header + ct_bytes` bytes — `c0`
    /// packed at its primes' widths, the 32-byte seed and a word per data
    /// prime — and its decoding (`c1` expanded from the frame alone)
    /// re-encodes to the same bytes. Returns the encryption, its decoding
    /// and the decoding's decryption.
    fn roundtrip<S: HeScheme>(
        params: &HeParams,
        values: &[S::Value],
        header: usize,
    ) -> (S::Ciphertext, S::Ciphertext, Vec<S::Value>) {
        let ctx = S::context(params).unwrap();
        let mut rng = rng();
        let keys = S::keygen(&ctx, &mut rng);
        let ct = S::encrypt(&ctx, &keys, values, &mut rng).unwrap();
        let k = params.data_prime_count();
        let c0 = serialize::packed_bytes(params.degree(), &params.primes()[..k]);
        assert_eq!(S::ct_bytes(&ct), c0 + 32 + 8 * k);
        assert!(c0 < params.ciphertext_bytes() / 2);
        let wire = S::ct_to_wire(&ct);
        assert_eq!(wire.len(), header + S::ct_bytes(&ct));
        let back = S::ct_from_wire(&wire).unwrap();
        assert_eq!(S::ct_to_wire(&back), wire);
        assert!(S::check_moduli(&ctx, &back).is_ok());
        let out = S::decrypt(&ctx, &keys, &back).unwrap();
        (ct, back, out)
    }

    #[test]
    fn bfv_generic_roundtrip_is_exact() {
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let values: Vec<u64> = (0..64).collect();
        let (ct, back, out) = roundtrip::<Bfv>(&params, &values, serialize::SEEDED_HEADER_BYTES);
        assert_eq!(back, ct);
        assert_eq!(&out[..64], &values[..]);
    }

    #[test]
    fn ckks_generic_roundtrip_is_close() {
        let params = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
        let values: Vec<f64> = (0..64).map(|i| i as f64 / 8.0).collect();
        let header = serialize::CKKS_SEEDED_HEADER_BYTES;
        let (ct, back, out) = roundtrip::<Ckks>(&params, &values, header);
        assert_eq!((back.part(0), back.part(1)), (ct.part(0), ct.part(1)));
        assert_eq!((back.level(), back.scale()), (ct.level(), ct.scale()));
        for (g, w) in out.iter().zip(&values) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
    }

    /// The ledger bills `ct_bytes`; the link carries the frame. At every
    /// paper set, both schemes, compact and full frames (3-part products
    /// too), every level down to one residue and BFV's compressed replies,
    /// they differ by exactly the frame's header.
    #[test]
    fn ct_bytes_is_the_frame_past_its_header_at_every_set_and_level() {
        let billed = |bytes: usize, wire: Vec<u8>, header: usize| {
            assert_eq!(bytes, wire.len() - header);
        };
        for params in [HeParams::set_a(), HeParams::set_b()] {
            let ctx = Bfv::context(&params).unwrap();
            let keys = Bfv::keygen(&ctx, &mut rng());
            let compact = Bfv::encrypt(&ctx, &keys, &[1, 2, 3], &mut rng()).unwrap();
            let header = serialize::SEEDED_HEADER_BYTES;
            billed(Bfv::ct_bytes(&compact), Bfv::ct_to_wire(&compact), header);
            let eval = ctx.evaluator();
            let mut full = Bfv::add(&ctx, &compact, &compact).unwrap();
            let mut levels = 0;
            loop {
                // A 3-part product exists at the full data modulus only.
                let product = eval.multiply(&full, &full).ok();
                for ct in std::iter::once(&full).chain(&product) {
                    billed(
                        Bfv::ct_bytes(ct),
                        Bfv::ct_to_wire(ct),
                        serialize::HEADER_BYTES,
                    );
                }
                levels += 1;
                match eval.mod_switch_to_next(&full) {
                    Ok(next) => full = next,
                    Err(_) => break,
                }
            }
            assert_eq!(levels, params.data_prime_count());
            let reply = ctx.compress_reply(&compact).unwrap();
            let header = serialize::REPLY_HEADER_BYTES;
            billed(Bfv::ct_bytes(&reply), Bfv::ct_to_wire(&reply), header);
        }
        let params = HeParams::set_c();
        let ctx = Ckks::context(&params).unwrap();
        let keys = Ckks::keygen(&ctx, &mut rng());
        let compact = Ckks::encrypt(&ctx, &keys, &[0.5, 0.25], &mut rng()).unwrap();
        let header = serialize::CKKS_SEEDED_HEADER_BYTES;
        billed(Ckks::ct_bytes(&compact), Ckks::ct_to_wire(&compact), header);
        let full = Ckks::add(&ctx, &compact, &compact).unwrap();
        for level in (1..=ctx.top_level()).rev() {
            let ct = ctx.mod_switch_to(&full, level).unwrap();
            let header = serialize::CKKS_HEADER_BYTES;
            billed(Ckks::ct_bytes(&ct), Ckks::ct_to_wire(&ct), header);
        }
    }

    #[test]
    fn a_seed_expands_over_the_context_moduli_only() {
        // The same upload checked against a context of other primes at the
        // same degree: refused as a mismatch, not evaluated. An evaluator
        // output's full frame carries its moduli too, so it is refused the
        // same way.
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let foreign = HeParams::bfv_insecure(1024, &[50, 40, 46], 17).unwrap();
        let ctx = Bfv::context(&params).unwrap();
        let mut r = rng();
        let keys = Bfv::keygen(&ctx, &mut r);
        let ct = Bfv::encrypt(&ctx, &keys, &[1, 2, 3], &mut r).unwrap();
        let other = Bfv::context(&foreign).unwrap();
        assert!(matches!(
            Bfv::check_moduli(&other, &ct),
            Err(HeError::Mismatch(_))
        ));
        let sum = Bfv::ct_from_wire(&Bfv::ct_to_wire(&Bfv::add(&ctx, &ct, &ct).unwrap())).unwrap();
        assert!(sum.seed().is_none());
        assert!(Bfv::check_moduli(&ctx, &sum).is_ok());
        assert!(matches!(
            Bfv::check_moduli(&other, &sum),
            Err(HeError::Mismatch(_))
        ));
    }

    #[test]
    fn a_reply_is_no_input_and_no_evaluator_output_is_a_reply() {
        // An 18-bit `t` licenses no lower level: the reply is lifted over
        // the data primes, so its marker alone keeps it out.
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
        let ctx = Bfv::context(&params).unwrap();
        let mut r = rng();
        let keys = Bfv::keygen(&ctx, &mut r);
        let ct = Bfv::encrypt(&ctx, &keys, &[1, 2, 3], &mut r).unwrap();
        let reply = ctx
            .compress_reply(&Bfv::add(&ctx, &ct, &ct).unwrap())
            .unwrap();
        assert_eq!(reply.moduli(), ctx.data_basis().primes());
        match Bfv::check_moduli(&ctx, &reply) {
            Err(HeError::Mismatch(why)) => assert!(why.contains("compressed"), "{why}"),
            other => panic!("a reply was accepted as an input: {other:?}"),
        }
        let sum = Bfv::add(&ctx, &reply, &reply).unwrap();
        assert!(sum.reply().is_none());
        assert!(Bfv::ct_to_wire(&sum).starts_with(b"CPO1"));
        assert_eq!(Bfv::decrypt(&ctx, &keys, &sum).unwrap()[..3], [4, 8, 12]);
    }

    #[test]
    fn keys_are_checked_against_the_context_they_serve() {
        let own = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        let foreign = HeParams::bfv_insecure(1024, &[50, 40, 46], 17).unwrap();
        let keys_of = |params: &HeParams| {
            let ctx = Bfv::context(params).unwrap();
            let keys = Bfv::keygen(&ctx, &mut rng());
            let rk = Bfv::relin_key(&ctx, &keys, &mut rng()).unwrap();
            let gk = Bfv::galois_keys(&ctx, &keys, &[1], &mut rng()).unwrap();
            (ctx, rk, gk)
        };
        let (ctx, rk, gk) = keys_of(&own);
        let (_, foreign_rk, foreign_gk) = keys_of(&foreign);
        assert_eq!(Bfv::check_keys(&ctx, &rk, &gk), Ok(()));
        for (rk, gk, which) in [
            (&foreign_rk, &gk, "relinearization key"),
            (&rk, &foreign_gk, "Galois key"),
        ] {
            match Bfv::check_keys(&ctx, rk, gk) {
                Err(HeError::Mismatch(why)) => assert!(why.starts_with(which), "{why}"),
                other => panic!("expected a mismatch, got {other:?}"),
            }
        }
    }

    /// Every evaluator output of a seeded encryption is a plain ciphertext:
    /// no seed, and a full frame on the wire. `context_ops` makes the
    /// outputs `HeScheme` does not carry, through the scheme's context
    /// evaluator: the plaintext add and multiply, `multiply_relin` and CKKS
    /// `rescale`.
    fn outputs_carry_no_seed<S: HeScheme>(
        params: &HeParams,
        has_seed: impl Fn(&S::Ciphertext) -> bool,
        context_ops: impl Fn(&S::Context, &S::Ciphertext, &S::RelinKey) -> Vec<S::Ciphertext>,
    ) {
        let ctx = S::context(params).unwrap();
        let mut r = rng();
        let keys = S::keygen(&ctx, &mut r);
        let rk = S::relin_key(&ctx, &keys, &mut r).unwrap();
        let gk = S::galois_keys(&ctx, &keys, &[1], &mut r).unwrap();
        let zeros = vec![S::Value::default(); S::slot_width(&ctx)];
        let ct = S::encrypt(&ctx, &keys, &zeros, &mut r).unwrap();
        assert!(has_seed(&ct));
        let mut outputs = vec![
            S::add(&ctx, &ct, &ct).unwrap(),
            S::sub(&ctx, &ct, &ct).unwrap(),
            S::rotate(&ctx, &ct, 1, &gk).unwrap(),
        ];
        outputs.extend(context_ops(&ctx, &ct, &rk));
        for (i, out) in outputs.iter().enumerate() {
            assert!(!has_seed(out), "output {i} carries a seed");
            assert!(!S::ct_to_wire(out).starts_with(b"CHS"), "output {i}");
        }
    }

    #[test]
    fn no_evaluator_output_carries_a_seed() {
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
        outputs_carry_no_seed::<Bfv>(
            &params,
            |ct| ct.seed().is_some(),
            |ctx, ct, rk| {
                let eval = ctx.evaluator();
                let zeros = ctx.batch_encoder().unwrap().encode(&[0]).unwrap();
                vec![
                    eval.add_plain(ct, &zeros),
                    eval.multiply_plain(ct, &zeros),
                    eval.multiply_relin(ct, ct, rk).unwrap(),
                ]
            },
        );
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        outputs_carry_no_seed::<Ckks>(
            &params,
            |ct| ct.seed().is_some(),
            |ctx, ct, rk| {
                let at = |scale| ctx.encode_at(&[0.0], ct.level(), scale).unwrap();
                let sum = ctx.add_plain(ct, &at(ct.scale())).unwrap();
                let scaled = ctx.multiply_plain(ct, &at(ctx.default_scale())).unwrap();
                let product = ctx.multiply_relin(ct, ct, rk).unwrap();
                let rescaled = [&scaled, &product].map(|c| ctx.rescale(c).unwrap());
                let mut outputs = vec![sum, scaled, product];
                outputs.extend(rescaled);
                outputs
            },
        );
    }

    #[test]
    fn generic_dot_diagonals_matches_per_scheme_reference() {
        // BFV: exact agreement with the rotate/multiply/add chain.
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let ctx = Bfv::context(&params).unwrap();
        let mut r = rng();
        let keys = Bfv::keygen(&ctx, &mut r);
        let gks = Bfv::galois_keys(&ctx, &keys, &[1, 2], &mut r).unwrap();
        let width = Bfv::slot_width(&ctx);
        let x: Vec<u64> = (0..width as u64).map(|i| i % 31).collect();
        let ct = Bfv::encrypt(&ctx, &keys, &x, &mut r).unwrap();
        let diags: Vec<(i64, Vec<u64>)> = vec![
            (0, vec![2u64; width]),
            (1, vec![3u64; width]),
            (2, vec![5u64; width]),
        ];
        let got = Bfv::dot_diagonals(&ctx, &ct, &diags, &gks).unwrap();
        let slots = Bfv::decrypt(&ctx, &keys, &got).unwrap();
        let t = ctx.plain_modulus();
        for i in 0..8 {
            let want = (2 * x[i] + 3 * x[(i + 1) % width] + 5 * x[(i + 2) % width]) % t;
            assert_eq!(slots[i], want, "slot {i}");
        }

        // CKKS: close agreement with the plain dot.
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let ctx = Ckks::context(&params).unwrap();
        let mut r = rng();
        let keys = Ckks::keygen(&ctx, &mut r);
        let gks = Ckks::galois_keys(&ctx, &keys, &[1, 2], &mut r).unwrap();
        let width = Ckks::slot_width(&ctx);
        let x: Vec<f64> = (0..width).map(|i| ((i % 13) as f64) / 13.0).collect();
        let ct = Ckks::encrypt(&ctx, &keys, &x, &mut r).unwrap();
        let diags: Vec<(i64, Vec<f64>)> = vec![
            (0, vec![0.5; width]),
            (1, vec![-1.0; width]),
            (2, vec![2.0; width]),
        ];
        let got = Ckks::dot_diagonals(&ctx, &ct, &diags, &gks).unwrap();
        let out = Ckks::decrypt(&ctx, &keys, &got).unwrap();
        for i in 0..8 {
            let want = 0.5 * x[i] - x[(i + 1) % width] + 2.0 * x[(i + 2) % width];
            assert!(
                (out[i] - want).abs() < 1e-2,
                "slot {i}: {} vs {want}",
                out[i]
            );
        }
    }

    #[test]
    fn quantize_hooks_invert_each_other() {
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let ctx = Bfv::context(&params).unwrap();
        let values = [0.25f64, 0.5, 0.125];
        let q = Bfv::quantize(&ctx, &values, 8, 1);
        assert_eq!(q, vec![64, 128, 32]);
        let back = Bfv::dequantize(&ctx, &q, 8, 1);
        for (b, v) in back.iter().zip(&values) {
            assert!((b - v).abs() < 1e-9);
        }
        // Depth compounds the scale.
        let q2 = Bfv::quantize(&ctx, &[0.5], 4, 2);
        assert_eq!(q2, vec![128]); // 0.5 · 2^(4·2)

        let cparams = HeParams::ckks_insecure(1024, &[45, 45, 46], 38).unwrap();
        let cctx = Ckks::context(&cparams).unwrap();
        assert_eq!(Ckks::quantize(&cctx, &values, 8, 3), values.to_vec());
        assert_eq!(Ckks::dequantize(&cctx, &values, 8, 3), values.to_vec());
    }

    #[test]
    fn health_probe_reports_scheme_native_headroom() {
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let ctx = Bfv::context(&params).unwrap();
        let mut r = rng();
        let keys = Bfv::keygen(&ctx, &mut r);
        let ct = Bfv::encrypt(&ctx, &keys, &[1; 64], &mut r).unwrap();
        assert!(Bfv::health(&ctx, &keys, &ct) > 8.0);

        let cparams = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let cctx = Ckks::context(&cparams).unwrap();
        let mut r = rng();
        let ckeys = Ckks::keygen(&cctx, &mut r);
        let cct = Ckks::encrypt(&cctx, &ckeys, &[1.0; 64], &mut r).unwrap();
        assert_eq!(Ckks::health(&cctx, &ckeys, &cct), cctx.top_level() as f64);
        let one = cctx
            .encode_at(&[1.0; 64], cct.level(), cctx.default_scale())
            .unwrap();
        let dropped = cctx
            .rescale(&cctx.multiply_plain(&cct, &one).unwrap())
            .unwrap();
        assert_eq!(
            Ckks::health(&cctx, &ckeys, &dropped),
            (cctx.top_level() - 1) as f64
        );
    }
}
