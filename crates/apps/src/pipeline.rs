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
//! protocol, any other link adds framed retries and watchdog refreshes
//! without changing the numbers.

pub use crate::client_ops::{max_pool2x2, requantize};
use crate::dnn::{conv2d_plain_circular, conv_rotation_steps, run_encrypted_conv_layer};
use crate::resumable::{
    bad_progress, ct_wire, finish_progress, progress_cursor, put_ct, put_maps, put_u64s, read_ct,
    read_maps, read_u64s, ResumableWorkload,
};
use choco::linalg::{matvec_diagonals, matvec_rotation_steps, replicate_for_matvec};
use choco::protocol::CommLedger;
use choco::transport::{Channel, LinkConfig, Session, TransportError, WireCursor};
use choco_he::bfv::Ciphertext;
use choco_he::params::HeParams;
use choco_he::{Bfv, HeError};
use choco_prng::Blake3Rng;

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
    /// spec geometry or the spec has no output class.
    pub fn new(
        spec: &LenetLikeSpec,
        weights: &LenetLikeWeights,
        image: &[u64],
    ) -> Result<Self, TransportError> {
        if image.len() != spec.img * spec.img {
            return Err(HeError::Mismatch(format!(
                "image has {} pixels, spec wants {}x{}",
                image.len(),
                spec.img,
                spec.img
            ))
            .into());
        }
        if spec.classes == 0 {
            return Err(HeError::Mismatch("need at least one output class".into()).into());
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

/// Client-side stage boundary: requantize + pool every channel map.
fn pool_maps(maps: &[Vec<u64>], side: usize) -> Vec<Vec<u64>> {
    maps.iter()
        .map(|m| max_pool2x2(&requantize(m), side, side))
        .collect()
}

impl ResumableWorkload for ResumablePipeline {
    type Scheme = Bfv;

    /// Runs the next network stage.
    fn step<C: Channel>(&mut self, session: &mut Session<Bfv, C>) -> Result<(), TransportError> {
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
                // The sentinel: class 0's logit, computed exactly in
                // plaintext (mod t, u128 accumulation) from state the
                // client already holds.
                let class0 =
                    self.weights.fc.first().ok_or_else(|| {
                        HeError::Mismatch("FC layer has no class weight rows".into())
                    })?;
                let expected0 = class0.iter().zip(&features).fold(0u64, |acc, (w, x)| {
                    ((acc as u128 + (*w as u128 * *x as u128) % t as u128) % t as u128) as u64
                });
                let ct = session
                    .client_mut()
                    .encrypt_slots(&replicate_for_matvec(&features, row))?;
                let uploaded = session.upload(&ct)?;
                let at_server = session.guard(&uploaded)?;
                session.compute_tick()?;
                let logits_ct = matvec_diagonals(session.server(), &at_server, &self.weights.fc)?;
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
        .map(|row| {
            row.iter()
                .zip(&features)
                .fold(0u64, |acc, (w, x)| (acc + w * x) % t)
        })
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
}
