//! The step-granular workload contract and its progress codec.
//!
//! Every client-aided workload of the suite is *defined* as a state machine
//! that advances in discrete steps — one body per workload, in the module
//! that owns it:
//!
//! * [`crate::pagerank::ResumablePagerank`] — one refresh burst per step
//!   (BFV or CKKS);
//! * [`crate::dnn::ResumableConvLayer`] — the whole layer in one step: the
//!   input groups up, the layer's compiled program, every output group down;
//! * [`crate::pipeline::ResumablePipeline`] — one network stage per step
//!   (conv1, conv2, FC), the FC output sentinel-checked via
//!   [`Session::download_checked`];
//! * [`crate::distance::ResumableKmeans`] — one K-Means iteration per step.
//!
//! The one-shot runners (`pagerank_encrypted`, `run_encrypted_conv_layer`,
//! `pipeline::run_encrypted`, `kmeans_encrypted`) build the state machine
//! and call [`ResumableWorkload::run`]; they contain no protocol logic of
//! their own. A caller that wants crash tolerance interleaves
//! [`Session::checkpoint`] between steps instead and, after a crash
//! ([`TransportError::Crashed`] or a real process death), rebuilds session
//! and workload from the last checkpoint with [`Session::resume`] +
//! [`ResumableWorkload::restore`] and continues exactly where the run left
//! off. Every step downloads what it computed: nothing is server-resident
//! between steps, so a resumed run replays the interrupted step from its
//! start and re-establishes nothing on the server. Client-aided workloads
//! run in process (their sessions over
//! [`choco::transport::DirectChannel`] or a
//! [`choco::transport::FaultyChannel`]); what crosses a real socket is the
//! remote evaluator's protocol ([`crate::remote`]).
//!
//! Determinism contract: a step is a pure function of the workload's
//! progress state and the session state at the step boundary — every
//! random draw comes from the checkpointed client RNG. Replaying a crashed
//! step from the last checkpoint therefore reproduces the uninterrupted
//! run's ciphertexts bit for bit, and the primary ledger lines (uploads,
//! downloads, bytes, rounds) land on identical totals; only
//! `retransmit_bytes`, `recovery_bytes` and the simulated clock may
//! differ. The crash-point sweep in `tests/chaos_sweep.rs` enforces this
//! for every workload × crash point.
//!
//! Progress blobs carry only the *mutable* workload state; static
//! configuration (graph, weights, image, point set) is plaintext the
//! restarted client binary already has — `restore` is called on a freshly
//! built instance and keeps its configuration. Ciphertexts are held as
//! ciphertexts and serialized only when a blob is written. Integrity comes
//! from the checkpoint seal around the whole blob; `restore` still
//! validates shape and never panics on garbage.

use choco::compiler::CompilerScheme;
use choco::transport::{put_blob, Session, TransportError, WireCursor};
use choco_he::HeScheme;

/// A client-aided workload as a step-granular state machine over a
/// [`Session`] of scheme [`Self::Scheme`]. A step is one or more whole
/// client-aided rounds, so between steps the server holds nothing a resumed
/// client would have to re-establish.
pub trait ResumableWorkload: Sized {
    /// The HE scheme the workload's sessions run.
    type Scheme: CompilerScheme;

    /// Advances by one step (a no-op once [`Self::is_done`]).
    ///
    /// # Errors
    ///
    /// Transport and HE errors; a crashed session surfaces
    /// [`TransportError::Crashed`]. A failed step may leave the instance
    /// part-way through its update: continue from the last checkpointed
    /// [`Self::progress`], not from the instance.
    fn step(&mut self, session: &mut Session<Self::Scheme>) -> Result<(), TransportError>;

    /// Whether every step has completed.
    fn is_done(&self) -> bool;

    /// Serializes the mutable workload state for a session checkpoint.
    fn progress(&self) -> Vec<u8>;

    /// Replaces this instance's mutable state with a checkpointed
    /// [`Self::progress`] blob, keeping its static configuration.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on malformed blobs and blobs that
    /// do not fit the configuration.
    fn restore(self, progress: &[u8]) -> Result<Self, TransportError>;

    /// Wire bytes of the most recently downloaded result, every ciphertext
    /// of it in download order (empty until the first download) — the
    /// bit-identity witness crash sweeps compare against the uninterrupted
    /// run.
    fn final_ct_wire(&self) -> Vec<u8>;

    /// Steps to completion — the whole of a one-shot run.
    ///
    /// # Errors
    ///
    /// The first step error.
    fn run(&mut self, session: &mut Session<Self::Scheme>) -> Result<(), TransportError> {
        while !self.is_done() {
            self.step(session)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Progress codec
// ---------------------------------------------------------------------------

pub(crate) fn bad_progress(msg: impl Into<String>) -> TransportError {
    TransportError::BadCheckpoint(format!("workload progress: {}", msg.into()))
}

/// Opens a progress blob, checking its format magic.
pub(crate) fn progress_cursor<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
) -> Result<WireCursor<'a>, TransportError> {
    let mut r = WireCursor::sealed(bytes, "workload progress");
    let got = r.take(4)?;
    if got != magic {
        return Err(bad_progress(format!(
            "expected magic {magic:?}, found {got:?}"
        )));
    }
    Ok(r)
}

pub(crate) fn finish_progress(r: &WireCursor) -> Result<(), TransportError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(bad_progress("trailing bytes"))
    }
}

pub(crate) fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

pub(crate) fn read_u64s(r: &mut WireCursor) -> Result<Vec<u64>, TransportError> {
    let count = r.take_u32()? as usize;
    let mut v = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        v.push(r.take_u64()?);
    }
    Ok(v)
}

/// Writes a list of equally sized channel maps.
pub(crate) fn put_maps(out: &mut Vec<u8>, maps: &[Vec<u64>]) {
    out.extend_from_slice(&(maps.len() as u32).to_le_bytes());
    for m in maps {
        put_u64s(out, m);
    }
}

/// Reads a list written by [`put_maps`]: at most `max_maps` maps of exactly
/// `pixels` values each.
pub(crate) fn read_maps(
    r: &mut WireCursor,
    max_maps: usize,
    pixels: usize,
) -> Result<Vec<Vec<u64>>, TransportError> {
    let count = r.take_u32()? as usize;
    if count > max_maps {
        return Err(bad_progress("more channel maps than channels"));
    }
    let mut maps = Vec::with_capacity(count);
    for _ in 0..count {
        let m = read_u64s(r)?;
        if m.len() != pixels {
            return Err(bad_progress("channel map has the wrong pixel count"));
        }
        maps.push(m);
    }
    Ok(maps)
}

pub(crate) fn read_f64s(r: &mut WireCursor) -> Result<Vec<f64>, TransportError> {
    Ok(read_u64s(r)?.into_iter().map(f64::from_bits).collect())
}

/// Wire bytes of an optional ciphertext (empty for `None`).
pub(crate) fn ct_wire<S: HeScheme>(ct: Option<&S::Ciphertext>) -> Vec<u8> {
    ct.map(S::ct_to_wire).unwrap_or_default()
}

/// Writes [`ct_wire`] as a length-prefixed blob.
pub(crate) fn put_ct<S: HeScheme>(out: &mut Vec<u8>, ct: Option<&S::Ciphertext>) {
    put_blob(out, &ct_wire::<S>(ct));
}

/// Reads a blob written by [`put_ct`].
pub(crate) fn read_ct<S: HeScheme>(
    r: &mut WireCursor,
) -> Result<Option<S::Ciphertext>, TransportError> {
    let wire = r.take_blob()?;
    if wire.is_empty() {
        return Ok(None);
    }
    S::ct_from_wire(wire)
        .map(Some)
        .map_err(|e| bad_progress(format!("stored ciphertext: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{distance_rotation_steps, PackingVariant, ResumableKmeans};
    use crate::dnn::{conv_rotation_steps, ResumableConvLayer};
    use crate::pagerank::{pagerank_rotation_steps, Graph, ResumablePagerank};
    use crate::pipeline::{all_rotation_steps, seeded_weights, LenetLikeSpec, ResumablePipeline};
    use choco_he::params::HeParams;
    use choco_he::{Bfv, Ckks};

    fn is_bad_checkpoint<W>(r: Result<W, TransportError>) -> bool {
        matches!(r, Err(TransportError::BadCheckpoint(_)))
    }

    /// Runs `fresh()` to completion and checks the progress blob at every
    /// step boundary (before the first step, mid-run, done): restoring it
    /// re-serializes to the same bytes, and every truncation, a foreign
    /// magic and a trailing byte are `BadCheckpoint` — never a panic.
    /// Returns the blobs.
    fn assert_progress_is_total<W: ResumableWorkload>(
        label: &str,
        fresh: impl Fn() -> W,
        session: &mut Session<W::Scheme>,
    ) -> Vec<Vec<u8>> {
        let mut w = fresh();
        let mut blobs = vec![w.progress()];
        while !w.is_done() {
            w.step(session).unwrap();
            blobs.push(w.progress());
        }
        assert!(!w.final_ct_wire().is_empty(), "{label}: no result");
        for (at, blob) in blobs.iter().enumerate() {
            let back = fresh().restore(blob).unwrap();
            assert_eq!(&back.progress(), blob, "{label} step {at}: round trip");
            for cut in 0..blob.len() {
                assert!(
                    is_bad_checkpoint(fresh().restore(&blob[..cut])),
                    "{label} step {at}: cut at {cut}"
                );
            }
            let mut foreign = blob.clone();
            foreign[..4].copy_from_slice(b"CKP1");
            assert!(is_bad_checkpoint(fresh().restore(&foreign)), "{label}");
            let mut long = blob.clone();
            long.push(0);
            assert!(is_bad_checkpoint(fresh().restore(&long)), "{label}");
        }
        blobs
    }

    #[test]
    fn progress_blobs_roundtrip_and_reject_garbage() {
        // Small rings keep the every-offset truncation sweep quick.
        let bfv = |plain_bits| HeParams::bfv_insecure(256, &[45, 45, 46], plain_bits).unwrap();

        let g = Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]]);
        let pagerank = || ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 2, 10).unwrap();
        let steps = pagerank_rotation_steps(g.len());
        let mut session = Session::<Bfv>::direct(&bfv(24), b"blob pagerank", &steps).unwrap();
        let blobs = assert_progress_is_total("pagerank", pagerank, &mut session);
        // A blob that does not fit the configuration it is restored into.
        let other = Graph::from_adjacency(&[vec![1], vec![0]]);
        let mismatched = ResumablePagerank::<Bfv>::new(&other, 0.85, 4, 2, 10).unwrap();
        assert!(is_bad_checkpoint(mismatched.restore(&blobs[1])));
        // Bytes that are not a ciphertext where one is stored.
        let mut garbage = blobs[0].clone();
        garbage.truncate(garbage.len() - 4);
        put_blob(&mut garbage, &[7; 33]);
        assert!(is_bad_checkpoint(pagerank().restore(&garbage)));

        // Conv layer: one step, whose blob carries the downloaded output.
        let input: Vec<Vec<u64>> = vec![(0..64).map(|i| (i * 5 + 1) % 16).collect()];
        let weights: Vec<Vec<Vec<u64>>> = (0..2)
            .map(|c| vec![(0..9).map(|i| ((i + c * 3) % 16) as u64).collect()])
            .collect();
        let steps = conv_rotation_steps(1, 8, 8, 3);
        let mut session = Session::<Bfv>::direct(&bfv(18), b"blob conv", &steps).unwrap();
        let blobs = assert_progress_is_total(
            "conv",
            || ResumableConvLayer::new(&input, &weights, 8, 8, 3).unwrap(),
            &mut session,
        );
        assert_eq!(blobs.len(), 2, "one step per layer");
        assert!(blobs[1].len() > blobs[0].len() + 4096, "no output group");

        // Pipeline: one blob per stage.
        let spec = LenetLikeSpec::tiny();
        let net = seeded_weights(&spec, b"blob pipe");
        let image: Vec<u64> = (0..spec.img * spec.img)
            .map(|i| ((i * 7 + 3) % 16) as u64)
            .collect();
        let steps = all_rotation_steps(&spec, 128);
        let mut session = Session::<Bfv>::direct(&bfv(18), b"blob pipe", &steps).unwrap();
        let blobs = assert_progress_is_total(
            "pipeline",
            || ResumablePipeline::new(&spec, &net, &image).unwrap(),
            &mut session,
        );
        assert_eq!(blobs.len(), 4);

        let points = vec![
            vec![0.0, 0.1, 0.0, 0.0],
            vec![0.1, 0.0, 0.1, 0.1],
            vec![2.0, 2.1, 2.0, 1.9],
            vec![2.1, 2.0, 1.9, 2.0],
        ];
        let init = vec![vec![0.5; 4], vec![1.5; 4]];
        let params = HeParams::ckks_insecure(256, &[45, 45, 45, 46], 38).unwrap();
        let steps = distance_rotation_steps(4, points.len(), 128);
        let mut session = Session::<Ckks>::direct(&params, b"blob kmeans", &steps).unwrap();
        assert_progress_is_total(
            "kmeans",
            || {
                ResumableKmeans::new(PackingVariant::DimensionMajor, &points, &init, 2, 1e-6)
                    .unwrap()
            },
            &mut session,
        );
    }
}
