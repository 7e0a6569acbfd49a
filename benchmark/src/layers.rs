//! The traced run's per-layer replay: because `serve.evaluate` (and the
//! conv-layer drivers) are opaque from outside, the same request is pushed
//! through each layer's public pieces in isolation, at the workload's own
//! ring degree and prime chain, after the workload's server has shut down.

use crate::driver::time_median;
use crate::metrics::Values;
use crate::oracle::Checked;
use choco::compiler::{compile, CompilerOptions, ExecCache, Program};
use choco::remote::{EvalRequest, EvalResponse, PreparedProgram};
use choco::transport::frame::{decode_frame, encode_frame};
use choco::transport::{FrameKind, TagKey};
use choco_he::HeParams;
use choco_math::{par, poly, simd, NttTable};
use choco_prng::Blake3Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

/// The IR program a remote workload evaluates, with one input set.
pub struct ProgramUnderTest<'a> {
    pub program: &'a Program,
    pub options: CompilerOptions,
    pub inputs: &'a [(String, Vec<f64>)],
    /// The measured `evaluate` round trip, when the workload sends single
    /// requests: `serve.overhead_ms` is what of it the pieces leave
    /// unexplained.
    pub evaluate_rtt_ms: Option<f64>,
}

/// Diagonals in the `he.dot_diagonals_ms` kernel call.
const DOT_DIAGONALS: usize = 8;

const MIB: f64 = 1024.0 * 1024.0;

fn lanes(backend: simd::Backend) -> f64 {
    match backend {
        simd::Backend::Scalar => 1.0,
        simd::Backend::Neon => 2.0,
        simd::Backend::Avx2 => 4.0,
        simd::Backend::Avx512 => 8.0,
    }
}

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// The values measured so far and the time each item gets.
struct Timings {
    values: Values,
    budget: Duration,
}

impl Timings {
    /// Times `call` for about the budget and stores its median duration,
    /// in the unit `per_second` converts to, under `name`. `call` says
    /// whether it succeeded; a kernel that fails is an error, not a time.
    fn time(
        &mut self,
        name: &'static str,
        per_second: f64,
        mut call: impl FnMut() -> bool,
    ) -> Result<(), String> {
        self.time_within(self.budget, name, per_second, &mut call)
    }

    fn time_within(
        &mut self,
        budget: Duration,
        name: &'static str,
        per_second: f64,
        call: &mut dyn FnMut() -> bool,
    ) -> Result<(), String> {
        let mut ok = true;
        let seconds = time_median(budget, || ok &= black_box(call()));
        self.values.set(name, per_second * seconds);
        if ok {
            Ok(())
        } else {
            Err(format!("{name}: the call failed"))
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).unwrap_or(0.0)
    }
}

/// Measures every `math.*`, `prng.*`, `he.*` metric and, given a program,
/// every `choco.*` kernel metric and `verify.verify_ms`. Each item is timed
/// for about `budget`; the value is the median call.
///
/// # Errors
///
/// Any error a layer returns, rendered.
pub fn probe<S: Checked>(
    params: &HeParams,
    steps: &[i64],
    seed: &str,
    program: Option<&ProgramUnderTest>,
    budget: Duration,
) -> Result<Values, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut t = Timings {
        values: Values::default(),
        budget,
    };
    let mut rng = Blake3Rng::from_seed_labeled(seed.as_bytes(), "layer probe");

    // math: one residue of the workload's chain.
    let (n, q) = (params.degree(), params.primes()[0]);
    let table = NttTable::new(n, q).map_err(|e| err(&e))?;
    let mut a: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    let b: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    let mut acc = vec![0u64; n];
    t.time("math.ntt_forward_us", US, || {
        table.forward(black_box(&mut a));
        true
    })?;
    t.time("math.ntt_inverse_us", US, || {
        table.inverse(black_box(&mut a));
        true
    })?;
    // The fused multiply-accumulate is the dyadic kernel the key-switch
    // inner product runs on.
    t.time("math.dyadic_mul_us", US, || {
        poly::dyadic_acc_assign(black_box(&mut acc), &a, &b, q);
        true
    })?;
    t.values.set("math.par_threads", par::num_threads() as f64);
    t.values.set("math.simd_backend", lanes(simd::backend()));

    // prng
    let mut buf = vec![0u8; 1 << 20];
    let fill_s = time_median(budget, || rng.fill_bytes(black_box(&mut buf)));
    t.values
        .set("prng.xof_mib_s", buf.len() as f64 / MIB / fill_s);

    // he: keys
    let ctx = S::context(params).map_err(|e| err(&e))?;
    t.time("he.keygen_ms", MS, || {
        black_box(S::keygen(&ctx, &mut rng));
        true
    })?;
    let keys = S::keygen(&ctx, &mut rng);
    let relin = S::relin_key(&ctx, &keys, &mut rng).map_err(|e| err(&e))?;
    // The most expensive item by far (one key-switch key per step): three
    // calls, whatever the budget.
    t.time_within(Duration::ZERO, "he.galois_keygen_ms", MS, &mut || {
        S::galois_keys(&ctx, &keys, steps, &mut rng).is_ok()
    })?;
    let galois = S::galois_keys(&ctx, &keys, steps, &mut rng).map_err(|e| err(&e))?;
    t.values.set(
        "he.galois_key_mib",
        S::galois_keys_bytes(&galois) as f64 / MIB,
    );

    // he: client side
    let scale_bits = program.map_or(4, |p| p.options.scale_bits);
    let reals: Vec<f64> = (0..S::slot_width(&ctx))
        .map(|_| (rng.next_below(13) as f64 - 6.0) / 8.0)
        .collect();
    let values = S::quantize_const(&ctx, &reals, scale_bits);
    let drawn = rng.bytes_drawn();
    let ct = S::encrypt(&ctx, &keys, &values, &mut rng).map_err(|e| err(&e))?;
    t.values
        .set("prng.bytes_per_encrypt", (rng.bytes_drawn() - drawn) as f64);
    t.time("he.encrypt_ms", MS, || {
        S::encrypt(&ctx, &keys, &values, &mut rng).is_ok()
    })?;
    t.time("he.decrypt_ms", MS, || S::decrypt(&ctx, &keys, &ct).is_ok())?;
    t.time("he.encode_us", US, || {
        S::encode_for_mul(&ctx, &values, &ct).is_ok()
    })?;

    // he: server side
    let operand = S::encode_for_mul(&ctx, &values, &ct).map_err(|e| err(&e))?;
    let product = S::mul_operand(&ctx, &ct, &operand).map_err(|e| err(&e))?;
    let step = *steps.first().ok_or("workload provisions no rotation")?;
    let diagonals: Vec<(i64, Vec<S::Value>)> = steps
        .iter()
        .take(DOT_DIAGONALS)
        .map(|&s| (s, values.clone()))
        .collect();
    t.time("he.rotate_ms", MS, || {
        S::rotate(&ctx, &ct, step, &galois).is_ok()
    })?;
    t.time("he.mul_plain_ms", MS, || {
        S::mul_operand(&ctx, &ct, &operand).is_ok()
    })?;
    t.time("he.add_us", US, || S::add(&ctx, &ct, &ct).is_ok())?;
    t.time("he.mul_ct_ms", MS, || {
        S::mul_ct(&ctx, &ct, &ct, &relin).is_ok()
    })?;
    // What the executor rescales: a plaintext product. (BFV has no chain;
    // its rescale is a clone.)
    t.time("he.rescale_ms", MS, || S::rescale(&ctx, &product).is_ok())?;
    t.time("he.dot_diagonals_ms", MS, || {
        S::dot_diagonals(&ctx, &ct, &diagonals, &galois).is_ok()
    })?;

    // he: wire
    let wire = S::ct_to_wire(&ct);
    t.time("he.ct_to_wire_us", US, || !S::ct_to_wire(&ct).is_empty())?;
    t.time("he.ct_from_wire_us", US, || S::ct_from_wire(&wire).is_ok())?;
    t.values.set("he.ct_bytes", S::ct_bytes(&ct) as f64);

    let Some(put) = program else {
        return Ok(t.values);
    };

    // choco: compiler
    t.time("choco.compile_ms", MS, || {
        compile(put.program, &put.options).is_ok()
    })?;
    let compiled = compile(put.program, &put.options).map_err(|e| err(&e))?;
    let prepared = PreparedProgram::new(put.program, &put.options).map_err(|e| err(&e))?;
    t.values
        .set("choco.program_wire_bytes", prepared.wire.len() as f64);
    let counts = compiled.counts;
    t.values
        .set("choco.ops.rotations", f64::from(counts.rotations));
    t.values
        .set("choco.ops.pt_mults", f64::from(counts.pt_mults));
    t.values
        .set("choco.ops.ct_mults", f64::from(counts.ct_mults));
    t.values.set("choco.ops.adds", f64::from(counts.adds));
    t.values
        .set("choco.ops.rescales", f64::from(counts.rescales));
    t.time("verify.verify_ms", MS, || compiled.verify().is_ok())?;

    // choco: executor, cold (fresh operand cache: three calls) and warm
    // (the server's steady state: at least half a second of calls).
    let mut named = HashMap::new();
    for (name, reals) in put.inputs {
        let values = S::quantize_const(&ctx, reals, put.options.scale_bits);
        let ct = S::encrypt(&ctx, &keys, &values, &mut rng).map_err(|e| err(&e))?;
        named.insert(name.clone(), ct);
    }
    let run = |cache: &ExecCache<S>| {
        compiled.execute_encrypted_cached::<S>(&ctx, &named, &relin, &galois, cache)
    };
    t.time_within(Duration::ZERO, "choco.exec_cold_ms", MS, &mut || {
        run(&ExecCache::unbounded()).is_ok()
    })?;
    let warm_cache = ExecCache::<S>::unbounded();
    let outputs = run(&warm_cache).map_err(|e| err(&e))?;
    let warm_budget = budget.max(Duration::from_millis(500));
    t.time_within(warm_budget, "choco.exec_warm_ms", MS, &mut || {
        run(&warm_cache).is_ok()
    })?;
    let modelled_ms = f64::from(counts.rotations) * t.get("he.rotate_ms")
        + f64::from(counts.pt_mults) * t.get("he.mul_plain_ms")
        + f64::from(counts.ct_mults) * t.get("he.mul_ct_ms")
        + f64::from(counts.adds) * t.get("he.add_us") / 1e3
        + f64::from(counts.rescales) * t.get("he.rescale_ms");
    t.values.set(
        "choco.exec_model_ratio",
        modelled_ms / t.get("choco.exec_warm_ms"),
    );

    // choco: wire
    let request = EvalRequest {
        request_id: 1,
        program_ref: prepared.program_ref,
        program: None,
        deadline_ms: None,
        inputs: named
            .iter()
            .map(|(name, ct)| (name.clone(), S::ct_to_wire(ct)))
            .collect(),
    };
    let payload = request.to_wire();
    let key = TagKey::from_session_seed(seed.as_bytes());
    let frame = encode_frame(FrameKind::EvalRequest, 1, &payload, &key);
    let response = EvalResponse::Outputs {
        request_id: 1,
        outputs: outputs.iter().map(S::ct_to_wire).collect(),
    }
    .to_wire();
    t.time("choco.request_wire_us", US, || {
        !request.to_wire().is_empty()
    })?;
    t.time("choco.response_wire_us", US, || {
        EvalResponse::from_wire(&response).is_ok()
    })?;
    t.time("choco.frame_encode_us", US, || {
        !encode_frame(FrameKind::EvalRequest, 1, &payload, &key).is_empty()
    })?;
    t.time("choco.frame_decode_us", US, || {
        decode_frame(&frame, &key).is_ok()
    })?;

    if let Some(rtt_ms) = put.evaluate_rtt_ms {
        let cts = (named.len() + outputs.len()) as f64;
        let wire_us = cts * (t.get("he.ct_to_wire_us") + t.get("he.ct_from_wire_us"))
            + t.get("choco.request_wire_us")
            + t.get("choco.response_wire_us")
            + t.get("choco.frame_encode_us")
            + t.get("choco.frame_decode_us");
        t.values.set(
            "serve.overhead_ms",
            rtt_ms - t.get("choco.exec_warm_ms") - wire_us / 1e3,
        );
    }
    Ok(t.values)
}
