//! Client-side remote-offload drivers for the four workload circuits.
//!
//! [`RemoteWorkload::prepare`] packages everything one tenant session
//! needs to evaluate a [`crate::circuits::WorkloadCircuit`] on a
//! `choco-serve` evaluator: the compiled program and its wire form
//! ([`PreparedProgram`]), the session's evaluation keys (relinearization
//! plus the workload's provisioned Galois steps), and deterministic
//! encrypted inputs for every `Input` node the circuit declares.
//!
//! The same struct also runs the **local reference execution**
//! ([`RemoteWorkload::local_outputs`]) through the identical compiled
//! artifact, which is what makes the e2e suite's strongest claim cheap to
//! state: remote evaluation returns *bit-identical ciphertext wire bytes*
//! to evaluating locally, batched or not, warm cache or cold.
//!
//! Input values are a deterministic fixed-point ramp quantized through
//! [`CompilerScheme::quantize_const`], so BFV sessions get integer slots
//! and CKKS sessions get the raw reals — the same client-side quantization
//! boundary the paper's workloads use.

use crate::circuits::WorkloadCircuit;
use choco::compiler::{
    compile, CompileError, CompiledProgram, CompilerOptions, CompilerScheme, Op,
};
use choco::remote::{PreparedProgram, RemoteEvaluator};
use choco::transport::tcp::TcpOptions;
use choco::transport::{RetryPolicy, TransportError};
use choco_he::params::{HeParams, SchemeType};
use choco_he::HeError;
use choco_prng::Blake3Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The compiler options the remote drivers pin — the same waterline the
/// circuit verification tests use (`scale 2^30`, 45-bit rescale primes,
/// 3 levels).
pub fn workload_options() -> CompilerOptions {
    CompilerOptions {
        scale_bits: 30,
        prime_bits: 45,
        max_levels: 3,
    }
}

/// Test-size (insecure) parameter sets matching [`workload_options`]:
/// degree 1024, three data levels, and — for CKKS — an encoder scale equal
/// to the compiler waterline, so encrypted inputs land exactly where the
/// compiled rescale schedule expects them.
///
/// # Errors
///
/// Propagates parameter-shape errors (none for these pinned shapes).
pub fn workload_params(scheme: SchemeType) -> Result<HeParams, HeError> {
    match scheme {
        SchemeType::Bfv => HeParams::bfv_insecure(1024, &[45, 45, 46], 17),
        SchemeType::Ckks => HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 30),
    }
}

/// Errors from preparing a workload for remote evaluation.
#[derive(Debug)]
pub enum DriverError {
    /// The circuit failed to compile at the driver options.
    Compile(CompileError),
    /// The program wire form was rejected (compiled nodes, size caps).
    Wire(TransportError),
    /// Context, key generation, or input encryption failed.
    He(HeError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Compile(e) => write!(f, "compile failed: {e}"),
            DriverError::Wire(e) => write!(f, "program wire rejected: {e}"),
            DriverError::He(e) => write!(f, "he error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<CompileError> for DriverError {
    fn from(e: CompileError) -> Self {
        DriverError::Compile(e)
    }
}

impl From<TransportError> for DriverError {
    fn from(e: TransportError) -> Self {
        DriverError::Wire(e)
    }
}

impl From<HeError> for DriverError {
    fn from(e: HeError) -> Self {
        DriverError::He(e)
    }
}

/// One workload, fully provisioned for a remote-evaluation session under
/// scheme `S`: program (wire + compiled twin), session keys, and encrypted
/// inputs.
pub struct RemoteWorkload<S: CompilerScheme> {
    /// Workload name (`"pipeline"`, `"dnn_conv"`, …).
    pub name: &'static str,
    /// The parameter set the session was provisioned under.
    pub params: HeParams,
    /// The compiler options baked into `prepared`'s program reference.
    pub options: CompilerOptions,
    /// The program's wire form + content-addressed reference.
    pub prepared: PreparedProgram,
    /// The locally compiled twin (the reference executor).
    pub compiled: CompiledProgram,
    /// The scheme context.
    pub ctx: S::Context,
    /// The full key bundle (client side keeps the secret key).
    pub keys: S::KeyBundle,
    /// Relinearization key — uploaded at session setup.
    pub relin: S::RelinKey,
    /// Galois keys over the workload's provisioned rotation steps —
    /// uploaded at session setup.
    pub galois: S::GaloisKeys,
    /// One encrypted input per `Input` node, in declaration order.
    pub inputs: Vec<(String, S::Ciphertext)>,
}

impl<S: CompilerScheme> RemoteWorkload<S> {
    /// Compiles `circuit` at [`workload_options`], generates session keys
    /// from `seed`, and encrypts a deterministic fixed-point ramp for each
    /// declared input (offset per input so multi-input circuits like
    /// `distance` get distinct operands).
    ///
    /// # Errors
    ///
    /// Propagates compile, wire-encoding, and HE failures.
    pub fn prepare(
        circuit: &WorkloadCircuit,
        params: &HeParams,
        seed: &[u8],
    ) -> Result<Self, DriverError> {
        let options = workload_options();
        let prepared = PreparedProgram::new(&circuit.program, &options)?;
        let compiled = compile(&circuit.program, &options)?;
        let ctx = S::context(params)?;
        let mut rng = Blake3Rng::from_seed(seed);
        let keys = S::keygen(&ctx, &mut rng);
        let relin = S::relin_key(&ctx, &keys, &mut rng)?;
        let galois = S::galois_keys(&ctx, &keys, &circuit.galois_steps, &mut rng)?;

        let width = S::slot_width(&ctx);
        let mut inputs = Vec::new();
        for op in circuit.program.ops() {
            if let Op::Input(name) = op {
                let offset = inputs.len();
                let reals: Vec<f64> = (0..width)
                    .map(|j| (((j + 3 * offset) % 13) as f64 - 6.0) / 8.0)
                    .collect();
                let values = S::quantize_const(&ctx, &reals, options.scale_bits);
                let ct = S::encrypt(&ctx, &keys, &values, &mut rng)?;
                inputs.push((name.clone(), ct));
            }
        }
        Ok(RemoteWorkload {
            name: circuit.name,
            params: params.clone(),
            options,
            prepared,
            compiled,
            ctx,
            keys,
            relin,
            galois,
            inputs,
        })
    }

    /// The inputs as the borrowed slice shape
    /// [`choco::remote::RemoteEvaluator::evaluate`] takes.
    pub fn input_refs(&self) -> Vec<(&str, &S::Ciphertext)> {
        self.inputs
            .iter()
            .map(|(name, ct)| (name.as_str(), ct))
            .collect()
    }

    /// Executes the compiled program locally on the same encrypted inputs
    /// — the bit-identity reference for the remote path.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn local_outputs(&self) -> Result<Vec<S::Ciphertext>, HeError> {
        let named: HashMap<String, S::Ciphertext> = self.inputs.iter().cloned().collect();
        let prog = &self.compiled;
        // choco-lint: allow(VERIFY001) `prog` comes straight out of compile() in prepare()
        prog.execute_encrypted::<S>(&self.ctx, &named, &self.relin, &self.galois)
    }

    /// The local reference outputs as ciphertext wire bytes.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn local_output_wires(&self) -> Result<Vec<Vec<u8>>, HeError> {
        Ok(self
            .local_outputs()?
            .iter()
            .map(|ct| S::ct_to_wire(ct))
            .collect())
    }

    /// Opens a fault-tolerant evaluator session for this workload:
    /// [`RemoteEvaluator::connect_reliable`] with this session's
    /// parameters and evaluation keys. The shared `addr` handle lets a
    /// supervisor repoint the client at a restarted server mid-run.
    ///
    /// # Errors
    ///
    /// Propagates dial/handshake errors once the retry budget is spent.
    pub fn connect_reliable(
        &self,
        addr: Arc<Mutex<String>>,
        seed: &[u8],
        tenant: u64,
        session: u64,
        opts: &TcpOptions,
        policy: RetryPolicy,
    ) -> Result<RemoteEvaluator<S>, TransportError> {
        RemoteEvaluator::connect_reliable(
            addr,
            seed,
            tenant,
            session,
            &self.params,
            &self.relin,
            &self.galois,
            opts,
            policy,
        )
    }

    /// Drives `copies` pipelined evaluations of this workload through
    /// `evaluator` with one [`RemoteEvaluator::evaluate_batch`] call and
    /// returns each copy's output ciphertext wire bytes, ready for
    /// bit-identity comparison against
    /// [`RemoteWorkload::local_output_wires`]. A session opened with
    /// [`RemoteWorkload::connect_reliable`] rides out server loss and shed
    /// deadlines inside that call: it redials, re-uploads its keys and
    /// resends every unanswered request.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and terminal typed refusals.
    pub fn drive_to_completion(
        &self,
        evaluator: &mut RemoteEvaluator<S>,
        copies: usize,
    ) -> Result<Vec<Vec<Vec<u8>>>, TransportError> {
        let refs = self.input_refs();
        let batch: Vec<&[(&str, &S::Ciphertext)]> = (0..copies).map(|_| refs.as_slice()).collect();
        let results = evaluator.evaluate_batch(&self.prepared, &batch)?;
        Ok(results
            .iter()
            .map(|cts| cts.iter().map(|ct| S::ct_to_wire(ct)).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::all_workloads;
    use choco_he::{Bfv, Ckks};

    #[test]
    fn every_workload_prepares_under_both_schemes() {
        for w in all_workloads() {
            let bfv = RemoteWorkload::<Bfv>::prepare(
                &w,
                &workload_params(SchemeType::Bfv).unwrap(),
                b"driver test bfv",
            )
            .unwrap_or_else(|e| panic!("{}: bfv prepare failed: {e}", w.name));
            assert!(!bfv.inputs.is_empty());
            let ckks = RemoteWorkload::<Ckks>::prepare(
                &w,
                &workload_params(SchemeType::Ckks).unwrap(),
                b"driver test ckks",
            )
            .unwrap_or_else(|e| panic!("{}: ckks prepare failed: {e}", w.name));
            assert_eq!(bfv.prepared.program_ref, ckks.prepared.program_ref);
            // The distance workload is the suite's two-input circuit.
            if w.name == "distance" {
                assert_eq!(bfv.inputs.len(), 2);
            }
        }
    }

    #[test]
    fn local_reference_is_deterministic() {
        let w = &all_workloads()[2]; // pagerank: depth-2, single input
        let params = workload_params(SchemeType::Bfv).unwrap();
        let a = RemoteWorkload::<Bfv>::prepare(w, &params, b"det seed").unwrap();
        let b = RemoteWorkload::<Bfv>::prepare(w, &params, b"det seed").unwrap();
        assert_eq!(
            a.local_output_wires().unwrap(),
            b.local_output_wires().unwrap()
        );
    }
}
