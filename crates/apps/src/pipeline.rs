//! Whole-network client-aided encrypted inference.
//!
//! Chains the encrypted convolution kernel, client-side non-linear stages
//! (requantization + max-pooling, §5.1's "client computes all non-linear
//! operations locally on plaintext data" — see [`crate::client_ops`]), and
//! the encrypted fully-connected matvec into a complete LeNet-style
//! inference — every linear layer on the server, every boundary crossing
//! counted. The plaintext twin ([`run_plain`]) applies bit-identical integer
//! arithmetic, so the encrypted pipeline must match it *exactly*.
//!
//! There is one encrypted implementation, the stage-granular
//! [`ResumablePipeline`] that [`run_encrypted`] steps to completion, generic
//! over the transport: a [`LinkConfig::direct`] link is the fault-free paper
//! protocol, any other link adds framed retries without changing the
//! numbers. Every server half is a compiled program
//! the session keeps resident: the conv layers' [`crate::dnn::ConvPacking`]
//! programs and the FC's [`matvec_program`].

pub use crate::client_ops::{max_pool2x2, requantize};
use crate::dnn::{
    conv2d_plain_circular, conv_rotation_steps, run_encrypted_conv_layer, LAYER_OPTIONS,
};
use crate::resumable::{
    bad_progress, ct_wire, finish_progress, progress_cursor, put_ct, put_maps, put_u64s, read_ct,
    read_maps, read_u64s, ResumableWorkload,
};
use choco::compiler::compile;
use choco::linalg::{matvec_program, matvec_rotation_steps, replicate_for_matvec};
use choco::protocol::CommLedger;
use choco::transport::{LinkConfig, Session, TransportError, WireCursor};
use choco_he::bfv::{BfvContext, Ciphertext};
use choco_he::params::HeParams;
use choco_he::{Bfv, HeError};
use choco_prng::Blake3Rng;
use std::collections::HashMap;

/// Geometry of a two-conv + FC quantized network (LeNet-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LenetLikeSpec {
    /// Input image height = width.
    pub img: usize,
    /// Conv-1 output channels (conv 2 pads its input to a power of two).
    pub conv1_ch: usize,
    /// Conv-2 output channels.
    pub conv2_ch: usize,
    /// Square filter size for both convs (odd).
    pub filter: usize,
    /// Output classes of the FC layer.
    pub classes: usize,
}

impl LenetLikeSpec {
    /// A miniature spec that fits small test parameters.
    pub fn tiny() -> Self {
        LenetLikeSpec {
            img: 8,
            conv1_ch: 2,
            conv2_ch: 4,
            filter: 3,
            classes: 4,
        }
    }

    /// The real LeNet-5-Small geometry (28×28, 6→16 channels, 5×5 filters),
    /// with channel counts rounded up to powers of two for stacking.
    pub fn lenet_small() -> Self {
        LenetLikeSpec {
            img: 28,
            conv1_ch: 8, // 6 rounded up
            conv2_ch: 16,
            filter: 5,
            classes: 10,
        }
    }

    fn pooled(img: usize) -> usize {
        img / 2
    }

    /// FC input features = conv2 channels × (img/4)².
    pub fn fc_inputs(&self) -> usize {
        let p2 = Self::pooled(Self::pooled(self.img));
        self.conv2_ch * p2 * p2
    }
}

/// 4-bit weights for a [`LenetLikeSpec`].
#[derive(Debug, Clone)]
pub struct LenetLikeWeights {
    /// `[conv1_ch][1][f·f]`.
    pub conv1: Vec<Vec<Vec<u64>>>,
    /// `[conv2_ch][conv1_ch][f·f]`.
    pub conv2: Vec<Vec<Vec<u64>>>,
    /// `[classes][fc_inputs]`.
    pub fc: Vec<Vec<u64>>,
}

/// Deterministic pseudo-random 4-bit weights from a seed.
pub fn seeded_weights(spec: &LenetLikeSpec, seed: &[u8]) -> LenetLikeWeights {
    let mut rng = Blake3Rng::from_seed_labeled(seed, "weights");
    let mut w4 = |count: usize| -> Vec<u64> { (0..count).map(|_| rng.next_below(16)).collect() };
    let f2 = spec.filter * spec.filter;
    let conv1 = (0..spec.conv1_ch).map(|_| vec![w4(f2)]).collect();
    let conv2 = (0..spec.conv2_ch)
        .map(|_| (0..spec.conv1_ch).map(|_| w4(f2)).collect())
        .collect();
    let fc = (0..spec.classes).map(|_| w4(spec.fc_inputs())).collect();
    LenetLikeWeights { conv1, conv2, fc }
}

/// Result of one whole-network inference.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Raw class scores.
    pub logits: Vec<u64>,
    /// Predicted class (argmax).
    pub class: usize,
    /// Communication ledger across all boundaries.
    pub ledger: CommLedger,
    /// Client encryption / decryption operation counts.
    pub crypto_ops: (u64, u64),
}

/// All rotation steps any pipeline stage needs, provisioned once (offline
/// setup): each conv layer's taps and channel folds, and the FC matvec's
/// own step list for its `classes × fc_inputs` shape
/// ([`matvec_rotation_steps`] — diagonals and folds, not one key per
/// column). Public so chaos harnesses can provision a session before
/// stepping a [`ResumablePipeline`] through it.
pub fn all_rotation_steps(spec: &LenetLikeSpec, row: usize) -> Vec<i64> {
    let p1 = spec.img / 2;
    let mut steps = conv_rotation_steps(1, spec.img, spec.img, spec.filter);
    steps.extend(conv_rotation_steps(spec.conv1_ch, p1, p1, spec.filter));
    steps.extend(matvec_rotation_steps(spec.classes, spec.fc_inputs()));
    steps.sort_unstable();
    steps.dedup();
    steps.retain(|&s| s != 0 && s.unsigned_abs() < row as u64);
    steps
}

const PIPELINE_MAGIC: &[u8; 4] = b"RPL1";

/// Whole-network LeNet-style inference as a stage-granular state machine:
/// step 0 runs the first encrypted convolution (plus client
/// requantize/pool), step 1 the second, step 2 the fully-connected layer.
/// The FC download goes through [`Session::download_checked`] with the
/// class-0 logit as a sentinel — the client can compute it exactly from its
/// own plaintext features, so a server returning an inconsistent result
/// surfaces as [`TransportError::SentinelMismatch`] instead of a silently
/// wrong argmax.
#[derive(Debug, Clone)]
pub struct ResumablePipeline {
    spec: LenetLikeSpec,
    weights: LenetLikeWeights,
    image: Vec<u64>,
    stage: u8,
    pooled1: Vec<Vec<u64>>,
    pooled2: Vec<Vec<u64>>,
    logits: Vec<u64>,
    last_reply: Option<Ciphertext>,
}

impl ResumablePipeline {
    /// Starts a fresh inference. The plaintext modulus of the sessions it
    /// runs over must hold `15·15·conv2_ch·f²` accumulations (e.g. 18 bits
    /// for the tiny spec).
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) when the image does not match the
    /// spec geometry, the spec has no output class or more classes than FC
    /// inputs, or the weights are not shaped `[conv1_ch][1][f²]`,
    /// `[conv2_ch][conv1_ch][f²]` and `[classes][fc_inputs]` — refused
    /// here, before anything is encrypted.
    pub fn new(
        spec: &LenetLikeSpec,
        weights: &LenetLikeWeights,
        image: &[u64],
    ) -> Result<Self, TransportError> {
        let refuse = |msg: String| Err(HeError::Mismatch(msg).into());
        let (img, f2, fc_inputs) = (spec.img, spec.filter * spec.filter, spec.fc_inputs());
        let (pixels, classes) = (image.len(), spec.classes);
        if pixels != img * img {
            return refuse(format!("image has {pixels} pixels, spec wants {img}x{img}"));
        }
        if classes == 0 || classes > fc_inputs {
            return refuse(format!("need 1 to {fc_inputs} output classes"));
        }
        let shaped = |w: &[Vec<Vec<u64>>], outs: usize, ins: usize| {
            let taps = |w_o: &Vec<Vec<u64>>| w_o.iter().all(|w_oc| w_oc.len() == f2);
            w.len() == outs && w.iter().all(|w_o| w_o.len() == ins && taps(w_o))
        };
        let (c1, c2) = (spec.conv1_ch, spec.conv2_ch);
        if !shaped(&weights.conv1, c1, 1) {
            return refuse(format!("conv1 weights are not [{c1}][1][{f2}]"));
        }
        if !shaped(&weights.conv2, c2, c1) {
            return refuse(format!("conv2 weights are not [{c2}][{c1}][{f2}]"));
        }
        let fc = &weights.fc;
        if fc.len() != classes || fc.iter().any(|row| row.len() != fc_inputs) {
            return refuse(format!("FC weights are not [{classes}][{fc_inputs}]"));
        }
        Ok(ResumablePipeline {
            spec: *spec,
            weights: weights.clone(),
            image: image.to_vec(),
            stage: 0,
            pooled1: Vec::new(),
            pooled2: Vec::new(),
            logits: Vec::new(),
            last_reply: None,
        })
    }

    /// Raw class scores (complete once done).
    pub fn logits(&self) -> &[u64] {
        &self.logits
    }

    /// Predicted class (argmax of the logits).
    pub fn class(&self) -> usize {
        argmax(&self.logits)
    }
}

fn argmax(logits: &[u64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|&(_, v)| *v)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// One FC logit, `row · features mod t`, accumulated without overflow.
fn logit(row: &[u64], features: &[u64], t: u64) -> u64 {
    let (pairs, t) = (row.iter().zip(features), t as u128);
    let dot: u128 = pairs.map(|(&w, &x)| w as u128 * x as u128 % t).sum();
    (dot % t) as u64
}

/// Client-side stage boundary: requantize + pool every channel map.
fn pool_maps(maps: &[Vec<u64>], side: usize) -> Vec<Vec<u64>> {
    maps.iter()
        .map(|m| max_pool2x2(&requantize(m), side, side))
        .collect()
}

impl ResumableWorkload for ResumablePipeline {
    type Scheme = Bfv;

    /// Runs the next network stage.
    fn step(&mut self, session: &mut Session<Bfv>) -> Result<(), TransportError> {
        let spec = self.spec;
        let p1 = spec.img / 2;
        match self.stage {
            0 => {
                // Encrypted conv over the single input channel.
                let maps1 = run_encrypted_conv_layer(
                    session,
                    std::slice::from_ref(&self.image),
                    &self.weights.conv1,
                    spec.img,
                    spec.img,
                    spec.filter,
                )?;
                self.pooled1 = pool_maps(&maps1, spec.img);
                self.stage = 1;
            }
            1 => {
                // Encrypted conv over conv1_ch channels.
                let maps2 = run_encrypted_conv_layer(
                    session,
                    &self.pooled1,
                    &self.weights.conv2,
                    p1,
                    p1,
                    spec.filter,
                )?;
                self.pooled2 = pool_maps(&maps2, p1);
                self.stage = 2;
            }
            2 => {
                // Encrypted fully-connected layer over the flattened
                // features.
                let row = session.server().context().degree() / 2;
                let t = session.server().context().plain_modulus();
                let features = self.pooled2.concat();
                // The sentinel: class 0's logit, computed exactly from state
                // the client already holds.
                let class0 =
                    self.weights.fc.first().ok_or_else(|| {
                        HeError::Mismatch("FC layer has no class weight rows".into())
                    })?;
                let expected0 = logit(class0, &features, t);
                let ct = session
                    .client_mut()
                    .encrypt_slots(&replicate_for_matvec(&features, row))?;
                let at_server = session.upload(&ct)?;
                session.compute_tick()?;
                let logits_ct = run_fc(session, &self.weights.fc, at_server)?;
                let (back, slots) = session.download_checked(&logits_ct, &[(0, expected0)], 0.0)?;
                session.ledger_mut().end_round();
                self.logits = slots[..spec.classes].to_vec();
                self.last_reply = Some(back);
                self.stage = 3;
            }
            _ => {}
        }
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.stage >= 3
    }

    fn progress(&self) -> Vec<u8> {
        let mut out = PIPELINE_MAGIC.to_vec();
        out.push(self.stage);
        if self.stage >= 1 {
            put_maps(&mut out, &self.pooled1);
        }
        if self.stage >= 2 {
            put_maps(&mut out, &self.pooled2);
        }
        if self.stage >= 3 {
            put_u64s(&mut out, &self.logits);
        }
        put_ct::<Bfv>(&mut out, self.last_reply.as_ref());
        out
    }

    fn restore(mut self, progress: &[u8]) -> Result<Self, TransportError> {
        let spec = self.spec;
        let mut r = progress_cursor(progress, PIPELINE_MAGIC)?;
        let stage = r.take_u8()?;
        if stage > 3 {
            return Err(bad_progress("unknown pipeline stage"));
        }
        // A completed stage stores exactly one pooled map per channel.
        let stage_maps = |r: &mut WireCursor, channels: usize, pixels: usize| {
            let maps = read_maps(r, channels, pixels)?;
            if maps.len() != channels {
                return Err(bad_progress("pooled map count mismatch"));
            }
            Ok(maps)
        };
        let p1 = spec.img / 2;
        let p2 = p1 / 2;
        if stage >= 1 {
            self.pooled1 = stage_maps(&mut r, spec.conv1_ch, p1 * p1)?;
        }
        if stage >= 2 {
            self.pooled2 = stage_maps(&mut r, spec.conv2_ch, p2 * p2)?;
        }
        if stage >= 3 {
            let logits = read_u64s(&mut r)?;
            if logits.len() != spec.classes {
                return Err(bad_progress("logit count mismatch"));
            }
            self.logits = logits;
        }
        self.last_reply = read_ct::<Bfv>(&mut r)?;
        finish_progress(&r)?;
        self.stage = stage;
        Ok(self)
    }

    fn final_ct_wire(&self) -> Vec<u8> {
        ct_wire::<Bfv>(self.last_reply.as_ref())
    }
}

/// The leading word of the FC's resident-program key, distinct from a conv
/// layer's ([`crate::dnn::ConvPacking`]).
const FC_KEY_TAG: u64 = u64::from_le_bytes(*b"fc layer");

/// What the FC's program is a function of: its shape and raw weights,
/// behind [`FC_KEY_TAG`].
fn fc_key(fc: &[Vec<u64>]) -> Vec<u64> {
    let cols = fc.first().map_or(0, Vec::len);
    let mut key = vec![FC_KEY_TAG, fc.len() as u64, cols as u64];
    key.extend(fc.iter().flatten());
    key
}

/// The FC's server half: [`matvec_program`] over the weights reduced mod
/// `t`, compiled like a conv layer ([`LAYER_OPTIONS`]) and kept resident in
/// the session under [`fc_key`], run over the uploaded features.
fn run_fc(
    session: &mut Session<Bfv>,
    fc: &[Vec<u64>],
    features: Ciphertext,
) -> Result<Ciphertext, TransportError> {
    let build = |ctx: &BfvContext| {
        let t = ctx.plain_modulus();
        let reduced = |row: &Vec<u64>| row.iter().map(|&w| (w % t) as f64).collect();
        let matrix: Vec<Vec<f64>> = fc.iter().map(reduced).collect();
        compile(&matvec_program(&matrix), &LAYER_OPTIONS)
            .map_err(|e| HeError::Mismatch(format!("FC program: {e}")))
    };
    let inputs = HashMap::from([("x".to_string(), features)]);
    let mut outputs = session.run_resident(&fc_key(fc), build, &inputs)?;
    let logits = outputs.pop();
    logits.ok_or_else(|| HeError::Mismatch("FC program has no output".into()).into())
}

/// Runs the full encrypted pipeline ([`ResumablePipeline`]) over the given
/// link.
///
/// A [`LinkConfig::direct`] link is the fault-free paper protocol. Under
/// any fault schedule within the retry budget this returns logits
/// **bit-identical** to the direct run with the same `seed`; a link worse
/// than the budget yields a typed [`TransportError`], never garbage.
///
/// # Errors
///
/// Transport errors when the link defeats the retry policy — including
/// [`TransportError::SentinelMismatch`] when the FC reply contradicts the
/// client-computed class-0 logit; HE-layer failures wrapped in
/// [`TransportError::He`].
pub fn run_encrypted(
    spec: &LenetLikeSpec,
    weights: &LenetLikeWeights,
    image: &[u64],
    params: &HeParams,
    seed: &[u8],
    link: LinkConfig,
) -> Result<PipelineRun, TransportError> {
    let mut run = ResumablePipeline::new(spec, weights, image)?;
    let steps = all_rotation_steps(spec, params.degree() / 2);
    let mut session = Session::<Bfv>::with_link(params, seed, &steps, link)?;
    run.run(&mut session)?;
    let (client, _server, ledger) = session.into_parts();
    Ok(PipelineRun {
        class: run.class(),
        logits: run.logits,
        crypto_ops: (client.encryption_count(), client.decryption_count()),
        ledger,
    })
}

/// The bit-identical plaintext twin of [`run_encrypted`].
pub fn run_plain(
    spec: &LenetLikeSpec,
    weights: &LenetLikeWeights,
    image: &[u64],
    plain_modulus: u64,
) -> (Vec<u64>, usize) {
    let t = plain_modulus;
    let maps1 = conv2d_plain_circular(
        &[image.to_vec()],
        &weights.conv1,
        spec.img,
        spec.img,
        spec.filter,
        t,
    );
    let pooled1 = pool_maps(&maps1, spec.img);
    let p1 = spec.img / 2;
    let maps2 = conv2d_plain_circular(&pooled1, &weights.conv2, p1, p1, spec.filter, t);
    let features = pool_maps(&maps2, p1).concat();
    let logits: Vec<u64> = weights
        .fc
        .iter()
        .map(|row| logit(row, &features, t))
        .collect();
    let class = argmax(&logits);
    (logits, class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_rotation_steps_cover_fc_matvec_rotations() {
        // The pipeline's FC-stage compiler-IR twin requests one rotation
        // per extended diagonal and one per fold of the hybrid matvec; the
        // all-stage provisioning list must be a superset.
        use crate::circuits::pipeline_program;
        use choco::compiler::{compile, CompilerOptions};
        let spec = LenetLikeSpec::tiny();
        let opts = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        };
        let compiled = compile(&pipeline_program(&spec), &opts).unwrap();
        let advertised = all_rotation_steps(&spec, 512);
        let requested = compiled.rotation_steps();
        assert!(!requested.is_empty());
        for s in requested {
            assert!(
                advertised.contains(&s),
                "FC matvec requests rotation {s} that all_rotation_steps does not advertise"
            );
        }
    }

    #[test]
    fn fc_keys_follow_the_matvec_shape_not_the_feature_count() {
        // The benchmark's network: 34 distinct tap shifts and 2 channel
        // folds for the convs, and of the 10 × 128 FC's 18 steps (15
        // diagonals + 3 folds) the 7 the convs do not already need — not
        // one key per feature (146 steps).
        let spec = LenetLikeSpec {
            img: 16,
            conv1_ch: 4,
            conv2_ch: 8,
            filter: 5,
            classes: 10,
        };
        assert_eq!(spec.fc_inputs(), 128);
        assert_eq!(all_rotation_steps(&spec, 2048).len(), 43);
    }

    #[test]
    fn seeded_weights_are_4bit_and_deterministic() {
        let spec = LenetLikeSpec::tiny();
        let a = seeded_weights(&spec, b"w");
        let b = seeded_weights(&spec, b"w");
        assert_eq!(a.fc, b.fc);
        assert!(a.conv1.iter().flatten().flatten().all(|&w| w < 16));
        assert_eq!(a.fc.len(), spec.classes);
        assert_eq!(a.fc[0].len(), spec.fc_inputs());
    }

    #[test]
    fn encrypted_pipeline_matches_plaintext_twin_exactly() {
        let spec = LenetLikeSpec::tiny();
        let weights = seeded_weights(&spec, b"pipeline test");
        let image: Vec<u64> = (0..spec.img * spec.img)
            .map(|i| ((i * 7 + 3) % 16) as u64)
            .collect();
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
        let enc = run_encrypted(
            &spec,
            &weights,
            &image,
            &params,
            b"pipe",
            LinkConfig::direct(),
        )
        .unwrap();
        let ctx_t = {
            use choco_he::bfv::BfvContext;
            BfvContext::new(&params).unwrap().plain_modulus()
        };
        let (logits, class) = run_plain(&spec, &weights, &image, ctx_t);
        assert_eq!(enc.logits, logits, "bit-exact logits");
        assert_eq!(enc.class, class);
        // Boundaries: conv1 down, conv2 up+down, fc up+down.
        assert!(enc.ledger.rounds >= 3);
        // One encryption and one decryption per stage: each conv layer's
        // output channels come back in one ciphertext (2 of 4 blocks, 4 of
        // 16), and the sentinel check decrypts the FC reply once, not in
        // addition.
        assert_eq!(enc.crypto_ops, (3, 3));
    }

    /// Asserts `ResumablePipeline::new` refuses the tiny spec's seeded
    /// weights after each of `edits`, naming the shape they should have.
    fn assert_refused(edits: &[fn(&mut LenetLikeWeights)], shape: &str) {
        let spec = LenetLikeSpec::tiny();
        let image = vec![1u64; spec.img * spec.img];
        for edit in edits {
            let mut weights = seeded_weights(&spec, b"mis-shaped");
            edit(&mut weights);
            match ResumablePipeline::new(&spec, &weights, &image) {
                Err(TransportError::He(HeError::Mismatch(msg))) => {
                    assert!(msg.contains(shape), "{msg}")
                }
                other => panic!("expected a Mismatch refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn fc_rows_of_the_wrong_length_are_refused() {
        // They used to compute another product, which the class-0 sentinel
        // then blamed on the server.
        let edits: [fn(&mut LenetLikeWeights); 2] = [|w| w.fc[1].truncate(15), |w| w.fc[0].push(1)];
        assert_refused(&edits, "FC weights are not [4][16]");
    }

    #[test]
    fn fewer_fc_rows_than_classes_are_refused() {
        // They used to come back as zeros and fold partial sums, unreported.
        assert_refused(&[|w| w.fc.truncate(3)], "FC weights are not [4][16]");
    }

    #[test]
    fn mis_shaped_conv_weights_are_refused() {
        let conv1: [fn(&mut LenetLikeWeights); 3] = [
            |w| w.conv1.truncate(1),
            |w| w.conv1[0].push(vec![1; 9]),
            |w| w.conv1[1][0].truncate(8),
        ];
        assert_refused(&conv1, "conv1 weights are not [2][1][9]");
        let conv2: [fn(&mut LenetLikeWeights); 3] = [
            |w| w.conv2.push(vec![vec![1; 9]; 2]),
            |w| w.conv2[3].truncate(1),
            |w| w.conv2[0][1].push(1),
        ];
        assert_refused(&conv2, "conv2 weights are not [4][2][9]");
    }

    #[test]
    fn a_warm_session_encodes_the_fc_program_once() {
        let spec = LenetLikeSpec::tiny();
        let weights = seeded_weights(&spec, b"warm fc");
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
        let t = params.plain_modulus();
        let steps = all_rotation_steps(&spec, 512);
        let mut session = Session::<Bfv>::direct(&params, b"warm fc", &steps).unwrap();
        // Operand encodes so far, after each stage of one inference.
        let mut infer = |seed: usize| {
            let image: Vec<u64> = (0..spec.img * spec.img)
                .map(|i| ((i * 7 + seed) % 16) as u64)
                .collect();
            let mut run = ResumablePipeline::new(&spec, &weights, &image).unwrap();
            let mut encodes = Vec::new();
            while !run.is_done() {
                run.step(&mut session).unwrap();
                encodes.push(session.resident_counters().1.misses);
            }
            assert_eq!(run.logits(), run_plain(&spec, &weights, &image, t).0);
            encodes
        };
        let first = infer(3);
        // The FC's 4 diagonals are encoded by the first inference's FC stage.
        let (depth, _) = choco::linalg::matvec_hybrid_shape(spec.classes, spec.fc_inputs());
        assert_eq!(first[2] - first[1], depth as u64);
        let flat = vec![first[2]; 3];
        assert_eq!(infer(5), flat);
        assert_eq!(infer(11), flat);
        // conv1, conv2 and the FC: three programs, each compiled once.
        assert_eq!(session.resident_counters().0.misses, 3);
    }

    #[test]
    fn an_fc_program_and_a_conv_layer_of_the_same_numbers_do_not_alias() {
        // 63 channels of 8 × 8 into four 1 × 1 outputs at a 512-slot row (8
        // blocks of 64, eight input groups): untagged, the layer's key reads
        // as the key of an 8 × 64 FC.
        use crate::dnn::{conv_rotation_steps_multi, ConvPacking};
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 20).unwrap();
        let t = params.plain_modulus();
        let weights: Vec<Vec<Vec<u64>>> = (0..4)
            .map(|o| (0..63).map(|c| vec![(o + c) % 16]).collect())
            .collect();
        let conv_key = ConvPacking::new(8, 8, 8, 1, 512)
            .unwrap()
            .layer_key(8, &weights);
        let (rows, cols) = (conv_key[1] as usize, conv_key[2] as usize);
        assert_eq!((rows, cols), (8, 64));
        let fc: Vec<Vec<u64>> = conv_key[3..].chunks(cols).map(<[u64]>::to_vec).collect();
        assert_eq!(fc_key(&fc)[1..], conv_key[1..]);
        assert_ne!(fc_key(&fc), conv_key);

        let mut steps = conv_rotation_steps_multi(63, 8, 8, 1, 512).unwrap();
        steps.extend(matvec_rotation_steps(rows, cols));
        let mut session = Session::<Bfv>::direct(&params, b"tagged keys", &steps).unwrap();
        let input: Vec<Vec<u64>> = (0..63)
            .map(|c| (0..64).map(|i| (i + c) % 16).collect())
            .collect();
        let maps = run_encrypted_conv_layer(&mut session, &input, &weights, 8, 8, 1).unwrap();
        assert_eq!(maps, conv2d_plain_circular(&input, &weights, 8, 8, 1, t));
        let features: Vec<u64> = (0..64).map(|i| i % 16).collect();
        let packed = replicate_for_matvec(&features, 512);
        let ct = session.client_mut().encrypt_slots(&packed).unwrap();
        let logits = run_fc(&mut session, &fc, ct).unwrap();
        let slots = session.client_mut().decrypt_slots(&logits).unwrap();
        let want: Vec<u64> = fc.iter().map(|row| logit(row, &features, t)).collect();
        assert_eq!(slots[..rows], want);
        // Each run compiled its own program: neither found the other's.
        assert_eq!(session.resident_counters().0.misses, 2);

        // Every kind of resident key leads with its own tag word, so no two
        // kinds alias whatever numbers follow it.
        let graph = crate::pagerank::Graph::from_adjacency(&[vec![1], vec![0]]);
        let point_major = crate::distance::PackingVariant::PointMajor;
        let tags = [
            conv_key[0],
            fc_key(&fc)[0],
            crate::pagerank::burst_key(&graph, 0.85, 1, 0)[0],
            crate::distance::kernel_key(point_major, &[vec![0.5]])[0],
        ];
        for (i, tag) in tags.iter().enumerate() {
            assert!(!tags[i + 1..].contains(tag), "tag {i} is shared");
        }
    }
}
