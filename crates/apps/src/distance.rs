//! Distance-based algorithms: KNN and K-Means over encrypted distances
//! (§5.1, §5.4, Figures 9 and 11).
//!
//! The Euclidean kernel is modified to a sum of squared differences (no
//! square root), so the server can compute it homomorphically in CKKS. The
//! client sends encrypted query/centroid coordinates; the server holds the
//! reference points (aggregated across many clients — the centralization
//! benefit) in plaintext; the client decrypts distances and performs the
//! non-linear `min` / argmin / label vote.
//!
//! Three packing variants of Figure 9 are implemented. They trade input
//! utilization against output utilization:
//!
//! | variant               | input cts        | output cts | server extra        |
//! |-----------------------|------------------|------------|---------------------|
//! | point-major           | 1 (pt blocks)    | 1 sparse   | rotate tree         |
//! | dimension-major       | ⌈d / per ct⌉     | 1 dense    | band folds          |
//! | collapsed point-major | 1                | 1 dense    | rotate tree + a dot |
//!
//! Point-major puts each point's dimensions in a power-of-two block, so
//! small dimension counts stack many points in one ciphertext; dimension-
//! major stacks as many dimensions as fit in `n`-slot bands and folds them,
//! so small point counts stack many dimensions. Each variant's server half
//! is one compiled program over the session's point set
//! (`kernel_program`), which the session keeps resident: a K-Means run
//! compiles and encodes it once.

use crate::dnn::resident_options;
use crate::resumable::{
    bad_progress, ct_wire, finish_progress, progress_cursor, put_ct, put_f64s, read_ct, read_f64s,
    ResumableWorkload,
};
use choco::compiler::{compile, NodeId, Program};
use choco::protocol::CommLedger;
use choco::transport::{Session, TransportError};
use choco_he::ckks::CkksCiphertext;
use choco_he::{Ckks, HeError};
use std::collections::HashMap;

/// Packing variants of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackingVariant {
    /// One point's dimensions per power-of-two block; the query replicated
    /// into every block.
    PointMajor,
    /// One dimension across all points per `n`-slot band, as many bands
    /// per ciphertext as fit; the server folds the bands together.
    DimensionMajor,
    /// Point-major input, masked/accumulated into one dense output.
    CollapsedPointMajor,
}

impl PackingVariant {
    /// All three variants in Figure 9 order.
    pub fn all() -> [PackingVariant; 3] {
        [
            PackingVariant::PointMajor,
            PackingVariant::DimensionMajor,
            PackingVariant::CollapsedPointMajor,
        ]
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            PackingVariant::PointMajor => "point-major",
            PackingVariant::DimensionMajor => "dimension-major",
            PackingVariant::CollapsedPointMajor => "collapsed point-major",
        }
    }
}

/// Outcome of one encrypted distance computation.
#[derive(Debug, Clone)]
pub struct DistanceResult {
    /// Squared distances from the query to every reference point.
    pub distances: Vec<f64>,
    /// Communication ledger for the round.
    pub ledger: CommLedger,
    /// Client encryptions performed.
    pub encryptions: u64,
    /// Client decryptions performed.
    pub decryptions: u64,
    /// Homomorphic operations the server evaluates (rough server-cost
    /// proxy): the compiled kernel's op nodes.
    pub server_ops: u64,
    /// The reply ciphertext as delivered — the bit-identity witness
    /// [`ResumableKmeans`] keeps for its checkpoint progress.
    pub reply: CkksCiphertext,
}

fn block_stride(dims: usize) -> usize {
    dims.next_power_of_two()
}

/// Rejects empty or ragged inputs before any packing arithmetic runs.
fn validate_point_set(query: &[f64], points: &[Vec<f64>]) -> Result<(), HeError> {
    if points.is_empty() {
        return Err(HeError::Mismatch(
            "need at least one reference point".into(),
        ));
    }
    if query.is_empty() {
        return Err(HeError::Mismatch("need at least one dimension".into()));
    }
    let d = query.len();
    if points.iter().any(|p| p.len() != d) {
        return Err(HeError::Mismatch(format!(
            "ragged point set: all points must have {d} dimensions"
        )));
    }
    Ok(())
}

/// The leading word of a distance kernel's resident-program key, distinct
/// from every other kind's.
pub(crate) const DISTANCE_KEY_TAG: u64 = u64::from_le_bytes(*b"distance");

/// What [`kernel_program`] is a function of in one session, exactly: the
/// variant and the point set with its shape, behind [`DISTANCE_KEY_TAG`].
pub(crate) fn kernel_key(variant: PackingVariant, points: &[Vec<f64>]) -> Vec<u64> {
    let (d, n) = (points.first().map_or(0, Vec::len), points.len());
    let mut key = vec![DISTANCE_KEY_TAG, variant as u64, d as u64, n as u64];
    key.extend(points.iter().flatten().map(|v| v.to_bits()));
    key
}

/// The name of the kernel program's `i`-th input: the query ciphertext, or
/// under dimension-major the `i`-th dimension batch.
fn input_name(i: usize) -> String {
    format!("q{i}")
}

/// How many dimensions fit in one ciphertext at `n`-slot strides. Slot
/// rotations wrap cyclically, so the fold tree needs the top band plus one
/// band of headroom to stay clear of wrapped-in values; cap at the largest
/// power of two with `per_ct·n + n ≤ slots`.
pub(crate) fn dims_per_ciphertext(n: usize, slots: usize) -> usize {
    let mut per_ct = 1usize;
    while 2 * per_ct * n + n <= slots {
        per_ct *= 2;
    }
    per_ct
}

/// Dimension-major's batches of a `d`-dimensional query over `n` points at
/// `slots` slots: `(first dimension, dimensions)`, one per uploaded
/// ciphertext.
fn dimension_batches(d: usize, n: usize, slots: usize) -> Vec<(usize, usize)> {
    let per_ct = dims_per_ciphertext(n, slots).min(d);
    (0..d)
        .step_by(per_ct)
        .map(|dim| (dim, per_ct.min(d - dim)))
        .collect()
}

/// The client's upload slots for `variant`: point-major's query replicated
/// into every point block, or dimension-major's batches, `q_dim` broadcast
/// across the `n` points of each band.
fn client_slots(
    variant: PackingVariant,
    query: &[f64],
    n: usize,
    slots: usize,
) -> Result<Vec<Vec<f64>>, HeError> {
    let d = query.len();
    if variant == PackingVariant::DimensionMajor {
        if n > slots {
            return Err(HeError::Mismatch(
                "too many points for one ciphertext".into(),
            ));
        }
        let band = |&(dim, batch): &(usize, usize)| -> Vec<f64> {
            let coords = query[dim..dim + batch].iter();
            coords.flat_map(|&q| std::iter::repeat_n(q, n)).collect()
        };
        return Ok(dimension_batches(d, n, slots).iter().map(band).collect());
    }
    let stride = block_stride(d);
    if n * stride > slots {
        return Err(HeError::Mismatch(
            "point-major packing exceeds ciphertext capacity".into(),
        ));
    }
    let mut qslots = vec![0.0f64; n * stride];
    for block in qslots.chunks_mut(stride) {
        block[..d].copy_from_slice(query);
    }
    Ok(vec![qslots])
}

/// Squares `diff`, then sums `count` slot runs `unit` apart onto the first
/// with one rotate-add per doubling: by `unit`, `2·unit`, … below
/// `count·unit`.
fn square_and_fold(p: &mut Program, diff: NodeId, count: usize, unit: usize) -> NodeId {
    let mut acc = p.mul(diff, diff);
    let mut runs = 1;
    while runs < count {
        let rotated = p.rotate(acc, (runs * unit) as i64);
        acc = p.add(acc, rotated);
        runs <<= 1;
    }
    acc
}

/// The server half of `variant` over `points` at `slots` slots, as one
/// program over the uploaded query ciphertexts (`q0`, `q1`, …): `q − p` (a
/// plaintext add of the negated points, packed as the client packs the
/// query), the square, then
///
/// * point-major: the rotate-add tree over each power-of-two block, which
///   leaves each distance at its block's slot 0;
/// * collapsed point-major: that tree, then one dot `Σ_b rot(acc, b·stride
///   − b) ⊙ e_b` — a rotation and mask per block moving block `b`'s head to
///   slot `b`, one chain the executor fuses into a hoisted dot;
/// * dimension-major: per dimension batch the band folds onto band 0, then
///   the batches' sum.
///
/// One output: the reply.
pub(crate) fn kernel_program(
    variant: PackingVariant,
    points: &[Vec<f64>],
    slots: usize,
) -> Program {
    let d = points.first().map_or(0, Vec::len);
    let n = points.len();
    let mut p = Program::new();
    let reply = if variant == PackingVariant::DimensionMajor {
        let mut total = None;
        for (i, (dim, batch)) in dimension_batches(d, n, slots).into_iter().enumerate() {
            let x = p.input(&input_name(i));
            let coords = (dim..dim + batch).flat_map(|j| points.iter().map(move |pt| -pt[j]));
            let negated = p.constant(&coords.collect::<Vec<f64>>());
            let diff = p.add_plain(x, negated);
            let folded = square_and_fold(&mut p, diff, batch, n);
            total = Some(total.map_or(folded, |t| p.add(t, folded)));
        }
        total
    } else {
        let stride = block_stride(d);
        let x = p.input(&input_name(0));
        let mut negated = vec![0.0f64; n * stride];
        for (block, pt) in negated.chunks_mut(stride).zip(points) {
            for (slot, &v) in block.iter_mut().zip(pt) {
                *slot = -v;
            }
        }
        let negated = p.constant(&negated);
        let diff = p.add_plain(x, negated);
        let acc = square_and_fold(&mut p, diff, stride, 1);
        if variant == PackingVariant::CollapsedPointMajor {
            let mut dense = None;
            for b in 0..n {
                let mut head = vec![0.0f64; n * stride];
                head[b] = 1.0;
                let mask = p.constant(&head);
                let shifted = if b == 0 {
                    acc
                } else {
                    p.rotate(acc, (b * stride - b) as i64)
                };
                let term = p.mul_plain(shifted, mask);
                dense = Some(dense.map_or(term, |s| p.add(s, term)));
            }
            dense
        } else {
            Some(acc)
        }
    };
    if let Some(reply) = reply {
        p.output(reply);
    }
    p
}

/// Computes squared distances with the requested packing variant over the
/// session's link.
///
/// `query` has `d` coordinates; `points` is `n` reference points of the same
/// dimension, held in plaintext by the server. The client packs, encrypts
/// and uploads the query; the server runs the variant's `kernel_program`
/// for `points`, which the session keeps resident; the client downloads and
/// decrypts the one reply. Every ciphertext crosses the session's framed,
/// retried channels; over a
/// [`DirectChannel`](choco::transport::DirectChannel) link this is the
/// fault-free paper protocol. The reported ledger covers only this call
/// (the session's cumulative ledger keeps growing).
///
/// # Errors
///
/// Typed [`TransportError`]s when the link defeats the retry budget;
/// HE-layer failures — capacity, missing keys, empty or ragged point sets
/// ([`HeError::Mismatch`]) — wrapped in [`TransportError::He`].
pub fn encrypted_distances(
    variant: PackingVariant,
    session: &mut Session<Ckks>,
    query: &[f64],
    points: &[Vec<f64>],
) -> Result<DistanceResult, TransportError> {
    validate_point_set(query, points)?;
    let n = points.len();
    let slots = session.server().context().slot_count();
    let uploads = client_slots(variant, query, n, slots)?;
    let before = *session.ledger();
    let mut inputs = HashMap::new();
    for (i, values) in uploads.iter().enumerate() {
        let ct = session.client_mut().encrypt_values(values)?;
        inputs.insert(input_name(i), session.upload(&ct)?);
    }
    let options = resident_options(session.params());
    let build = |_: &_| {
        compile(&kernel_program(variant, points, slots), &options)
            .map_err(|e| HeError::Mismatch(format!("distance program: {e}")))
    };
    let key = kernel_key(variant, points);
    let reply = session.run_resident(&key, build, &inputs)?.pop();
    let reply = reply.ok_or_else(|| HeError::Mismatch("distance program has no output".into()))?;
    let server_ops = session
        .resident_program(&key)
        .map_or(0, |program| program.counts.total());
    let back = session.download(&reply)?;
    session.ledger_mut().end_round();
    let out = session.client_mut().decrypt_values(&back)?;
    let distances = if variant == PackingVariant::PointMajor {
        let stride = block_stride(query.len());
        out.iter().step_by(stride).take(n).copied().collect()
    } else {
        out[..n].to_vec()
    };
    let ledger = ledger_delta(session.ledger(), &before);
    let client = session.client_mut();
    Ok(DistanceResult {
        distances,
        ledger,
        encryptions: client.encryption_count(),
        decryptions: client.decryption_count(),
        server_ops,
        reply: back,
    })
}

/// Per-call traffic: the session ledger's growth since `before`.
fn ledger_delta(after: &CommLedger, before: &CommLedger) -> CommLedger {
    CommLedger {
        upload_bytes: after.upload_bytes - before.upload_bytes,
        download_bytes: after.download_bytes - before.download_bytes,
        uploads: after.uploads - before.uploads,
        downloads: after.downloads - before.downloads,
        rounds: after.rounds - before.rounds,
        retransmit_bytes: after.retransmit_bytes - before.retransmit_bytes,
        recovery_bytes: after.recovery_bytes - before.recovery_bytes,
    }
}

/// Plaintext reference: squared Euclidean distances.
pub fn distances_plain(query: &[f64], points: &[Vec<f64>]) -> Vec<f64> {
    points
        .iter()
        .map(|p| {
            p.iter()
                .zip(query)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .collect()
}

/// KNN classification: the client takes decrypted distances and votes among
/// the `k` nearest labels.
pub fn knn_classify(distances: &[f64], labels: &[usize], k: usize) -> usize {
    let n = distances.len().min(labels.len());
    let k = k.clamp(1, n.max(1));
    let mut idx: Vec<usize> = (0..n).collect();
    // total_cmp: NaN distances (e.g. from a corrupted reply) sort last
    // instead of panicking mid-vote.
    idx.sort_by(|&a, &b| distances[a].total_cmp(&distances[b]));
    let mut votes = std::collections::HashMap::new();
    for &i in idx.iter().take(k) {
        *votes.entry(labels[i]).or_insert(0usize) += 1;
    }
    votes
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(l, _)| l)
        .unwrap_or(0)
}

/// One K-Means step on the client given per-centroid distance vectors:
/// assigns each point to its nearest centroid and returns the new centroids.
pub fn kmeans_update(points: &[Vec<f64>], distances_per_centroid: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let k = distances_per_centroid.len();
    let n = points.len();
    let d = points[0].len();
    let mut sums = vec![vec![0.0f64; d]; k];
    let mut counts = vec![0usize; k];
    for i in 0..n {
        let mut best = 0usize;
        for c in 1..k {
            if distances_per_centroid[c][i] < distances_per_centroid[best][i] {
                best = c;
            }
        }
        counts[best] += 1;
        for j in 0..d {
            sums[best][j] += points[i][j];
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            for j in 0..d {
                sums[c][j] /= counts[c] as f64;
            }
        }
    }
    sums
}

/// Result of a full client-aided K-Means run over encrypted distances.
#[derive(Debug, Clone)]
pub struct KMeansRun {
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Iterations executed (each = one encrypted distance round per
    /// centroid + one plaintext update).
    pub iterations: u32,
    /// Whether the run converged within tolerance.
    pub converged: bool,
    /// Total communication across all rounds.
    pub ledger: CommLedger,
}

const KMEANS_MAGIC: &[u8; 4] = b"RKM1";

/// Client-aided K-Means over encrypted distances as a round-granular state
/// machine: each step is one full iteration — the client encrypts every
/// centroid, the server returns encrypted distances to all points, and the
/// client performs the assignment + centroid update in plaintext (§5.1:
/// "K-Means iterates client-server interaction until convergence").
///
/// The run converges when no centroid moved by `tolerance` or more: the
/// maximum over centroids of the squared Euclidean movement is below
/// `tolerance²`.
#[derive(Debug, Clone)]
pub struct ResumableKmeans {
    variant: PackingVariant,
    points: Vec<Vec<f64>>,
    max_iterations: u32,
    tolerance: f64,
    centroids: Vec<Vec<f64>>,
    iterations: u32,
    converged: bool,
    finished: bool,
    last_reply: Option<CkksCiphertext>,
}

impl ResumableKmeans {
    /// Starts a fresh clustering run.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) for empty points or centroids.
    pub fn new(
        variant: PackingVariant,
        points: &[Vec<f64>],
        initial_centroids: &[Vec<f64>],
        max_iterations: u32,
        tolerance: f64,
    ) -> Result<Self, TransportError> {
        if points.is_empty() || initial_centroids.is_empty() {
            return Err(HeError::Mismatch(
                "k-means needs at least one point and one centroid".into(),
            )
            .into());
        }
        Ok(ResumableKmeans {
            variant,
            points: points.to_vec(),
            max_iterations,
            tolerance,
            centroids: initial_centroids.to_vec(),
            iterations: 0,
            converged: false,
            finished: max_iterations == 0,
            last_reply: None,
        })
    }

    /// Current centroids (final once done).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Iterations executed so far (each = one encrypted distance round per
    /// centroid + one plaintext update).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Whether the run converged within tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

impl ResumableWorkload for ResumableKmeans {
    type Scheme = Ckks;

    /// Runs one K-Means iteration.
    fn step(&mut self, session: &mut Session<Ckks>) -> Result<(), TransportError> {
        if self.is_done() {
            return Ok(());
        }
        let mut dists = Vec::with_capacity(self.centroids.len());
        for c in &self.centroids {
            session.compute_tick()?;
            let res = encrypted_distances(self.variant, session, c, &self.points)?;
            dists.push(res.distances);
            self.last_reply = Some(res.reply);
        }
        self.iterations += 1;
        let updated = kmeans_update(&self.points, &dists);
        let movement = self
            .centroids
            .iter()
            .zip(&updated)
            .map(|(a, b)| distances_plain(a, std::slice::from_ref(b))[0])
            .fold(0.0f64, f64::max);
        self.centroids = updated;
        self.converged = movement < self.tolerance * self.tolerance;
        self.finished = self.converged || self.iterations >= self.max_iterations;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    fn progress(&self) -> Vec<u8> {
        let mut out = KMEANS_MAGIC.to_vec();
        out.extend_from_slice(&self.iterations.to_le_bytes());
        out.push(self.converged as u8);
        out.push(self.finished as u8);
        out.extend_from_slice(&(self.centroids.len() as u32).to_le_bytes());
        for c in &self.centroids {
            put_f64s(&mut out, c);
        }
        put_ct::<Ckks>(&mut out, self.last_reply.as_ref());
        out
    }

    fn restore(mut self, progress: &[u8]) -> Result<Self, TransportError> {
        let mut r = progress_cursor(progress, KMEANS_MAGIC)?;
        let iterations = r.take_u32()?;
        let converged = r.take_u8()?;
        let finished = r.take_u8()?;
        let k = r.take_u32()? as usize;
        if k != self.centroids.len() {
            return Err(bad_progress("centroid count mismatch"));
        }
        let d = self.points.first().map_or(0, Vec::len);
        let mut centroids = Vec::with_capacity(k);
        for _ in 0..k {
            let c = read_f64s(&mut r)?;
            if c.len() != d {
                return Err(bad_progress("centroid dimension mismatch"));
            }
            centroids.push(c);
        }
        let last_reply = read_ct::<Ckks>(&mut r)?;
        finish_progress(&r)?;
        if converged > 1 || finished > 1 {
            return Err(bad_progress("flag byte out of range"));
        }
        if iterations > self.max_iterations {
            return Err(bad_progress("iteration counter exceeds the budget"));
        }
        self.iterations = iterations;
        self.converged = converged == 1;
        self.finished = finished == 1;
        self.centroids = centroids;
        self.last_reply = last_reply;
        Ok(self)
    }

    fn final_ct_wire(&self) -> Vec<u8> {
        ct_wire::<Ckks>(self.last_reply.as_ref())
    }
}

/// Runs K-Means ([`ResumableKmeans`]) to convergence over the session's
/// link. The reported ledger covers only this call.
///
/// # Errors
///
/// Propagates transport and HE errors from the distance kernels; empty
/// inputs are reported as [`HeError::Mismatch`].
pub fn kmeans_encrypted(
    variant: PackingVariant,
    session: &mut Session<Ckks>,
    points: &[Vec<f64>],
    initial_centroids: &[Vec<f64>],
    max_iterations: u32,
    tolerance: f64,
) -> Result<KMeansRun, TransportError> {
    let mut run = ResumableKmeans::new(
        variant,
        points,
        initial_centroids,
        max_iterations,
        tolerance,
    )?;
    let before = *session.ledger();
    run.run(session)?;
    Ok(KMeansRun {
        centroids: run.centroids,
        iterations: run.iterations,
        converged: run.converged,
        ledger: ledger_delta(session.ledger(), &before),
    })
}

/// Rotation steps the distance kernels need for `(dims, points)` shapes.
pub fn distance_rotation_steps(dims: usize, n_points: usize, slots: usize) -> Vec<i64> {
    let stride = block_stride(dims);
    let mut steps = Vec::new();
    let mut s = 1usize;
    while s < stride {
        steps.push(s as i64);
        s <<= 1;
    }
    // Collapse shifts (block b head → slot b) only exist when the
    // point-major packing fits at all.
    if n_points * stride <= slots {
        for b in 1..n_points {
            steps.push((b * stride - b) as i64);
        }
    }
    // Dimension-major's band folds.
    let per_ct = dims_per_ciphertext(n_points, slots);
    let mut band = 1usize;
    while band < per_ct {
        steps.push((band * n_points) as i64);
        band <<= 1;
    }
    steps.sort_unstable();
    steps.dedup();
    steps.retain(|&x| x != 0 && x.unsigned_abs() < slots as u64);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_he::params::HeParams;

    #[test]
    fn distance_rotation_steps_cover_every_kernel_rotation() {
        // The distance kernel's compiler-IR twin requests every rotation
        // group (point-major rotate-add tree, collapsed block shifts,
        // stacked-dimension folds); the hand-maintained provisioning list
        // must be a superset — a missing Galois key would otherwise only
        // surface as a runtime error.
        use crate::circuits::distance_program;
        use choco::compiler::{compile, CompilerOptions};
        let (dims, n, slots) = (4usize, 6usize, 512usize);
        let opts = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        };
        let compiled = compile(&distance_program(dims, n, slots), &opts).unwrap();

        let advertised = distance_rotation_steps(dims, n, slots);
        let requested = compiled.rotation_steps();
        assert!(!requested.is_empty());
        for s in requested {
            assert!(
                advertised.contains(&s),
                "kernel requests rotation {s} that distance_rotation_steps does not advertise"
            );
        }
    }

    fn setup(dims: usize, n: usize) -> Session<Ckks> {
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let steps = distance_rotation_steps(dims, n, 512);
        Session::<Ckks>::direct(&params, b"distance", &steps).unwrap()
    }

    fn test_data(dims: usize, n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let query: Vec<f64> = (0..dims).map(|i| (i as f64 * 0.7).sin()).collect();
        let points: Vec<Vec<f64>> = (0..n)
            .map(|p| {
                (0..dims)
                    .map(|i| ((p * dims + i) as f64 * 0.3).cos())
                    .collect()
            })
            .collect();
        (query, points)
    }

    #[test]
    fn all_variants_match_plain_distances() {
        let (dims, n) = (4usize, 6usize);
        let (query, points) = test_data(dims, n);
        let want = distances_plain(&query, &points);
        for variant in PackingVariant::all() {
            let mut session = setup(dims, n);
            let res = encrypted_distances(variant, &mut session, &query, &points).unwrap();
            assert_eq!(res.distances.len(), n);
            for (i, (g, w)) in res.distances.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-2,
                    "{}: point {i}: {g} vs {w}",
                    variant.label()
                );
            }
        }
    }

    #[test]
    fn collapsed_costs_more_server_ops_same_comm_fewer_sparse_slots() {
        let (dims, n) = (4usize, 6usize);
        let (query, points) = test_data(dims, n);
        let mut s1 = setup(dims, n);
        let plain =
            encrypted_distances(PackingVariant::PointMajor, &mut s1, &query, &points).unwrap();
        let mut s2 = setup(dims, n);
        let collapsed = encrypted_distances(
            PackingVariant::CollapsedPointMajor,
            &mut s2,
            &query,
            &points,
        )
        .unwrap();
        // §5.4: the collapsed variant shifts work to the server...
        assert!(collapsed.server_ops > plain.server_ops);
        // ...to produce a dense output the client reads directly.
        assert_eq!(collapsed.distances.len(), n);
    }

    #[test]
    fn the_collapse_is_one_fused_dot() {
        // Collapsed point-major's per-block mask and shift is one dot
        // chain, fused: the n masked products, their rescales, the n − 1
        // shifts and the n − 1 adds summing them.
        let (_, points) = test_data(4, 6);
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let program = kernel_program(PackingVariant::CollapsedPointMajor, &points, 512);
        let compiled = compile(&program, &resident_options(&params)).unwrap();
        let fused = (compiled.fused_groups(), compiled.fused_nodes());
        assert_eq!(fused, (1, 4 * 6 - 2));
    }

    #[test]
    fn dimension_major_uploads_scale_with_dims() {
        let (query_small, points_small) = test_data(2, 100);
        let mut s = setup(2, 100);
        let small = encrypted_distances(
            PackingVariant::DimensionMajor,
            &mut s,
            &query_small,
            &points_small,
        )
        .unwrap();
        // 100-point bands: 512/100 → 5 dims per ct; 2 dims → one upload.
        assert_eq!(small.ledger.uploads, 1);
        let (query_big, points_big) = test_data(16, 100);
        let mut s = setup(16, 100);
        let big = encrypted_distances(
            PackingVariant::DimensionMajor,
            &mut s,
            &query_big,
            &points_big,
        )
        .unwrap();
        assert!(big.ledger.uploads > small.ledger.uploads);
        // Accuracy holds for the stacked path too.
        let want = distances_plain(&query_big, &points_big);
        for (g, w) in big.distances.iter().zip(&want) {
            assert!((g - w).abs() < 2e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn knn_votes_among_nearest() {
        let distances = vec![0.5, 0.1, 0.2, 3.0, 0.15];
        let labels = vec![0, 1, 1, 0, 2];
        assert_eq!(knn_classify(&distances, &labels, 1), 1);
        assert_eq!(knn_classify(&distances, &labels, 3), 1);
    }

    #[test]
    fn kmeans_step_moves_centroids_toward_clusters() {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ];
        let centroids = [vec![1.0, 1.0], vec![4.0, 4.0]];
        let dists: Vec<Vec<f64>> = centroids
            .iter()
            .map(|c| distances_plain(c, &points))
            .collect();
        let updated = kmeans_update(&points, &dists);
        assert!((updated[0][0] - 0.05).abs() < 1e-9);
        assert!((updated[1][0] - 5.05).abs() < 1e-9);
    }

    #[test]
    fn kmeans_encrypted_full_loop_converges() {
        let points = vec![
            vec![0.0, 0.1, 0.0, 0.0],
            vec![0.1, 0.0, 0.1, 0.1],
            vec![0.05, 0.05, 0.0, 0.1],
            vec![2.0, 2.1, 2.0, 1.9],
            vec![2.1, 2.0, 1.9, 2.0],
            vec![1.9, 1.9, 2.1, 2.1],
        ];
        let init = vec![vec![0.5; 4], vec![1.5; 4]];
        let mut session = setup(4, 6);
        let run = kmeans_encrypted(
            PackingVariant::DimensionMajor,
            &mut session,
            &points,
            &init,
            10,
            1e-3,
        )
        .unwrap();
        assert!(run.converged, "k-means should converge in 10 iterations");
        // Centroids land at the two cluster means.
        let c0 = &run.centroids[0];
        let c1 = &run.centroids[1];
        assert!(c0[0] < 0.2, "cluster 0 centroid {c0:?}");
        assert!((c1[0] - 2.0).abs() < 0.1, "cluster 1 centroid {c1:?}");
        assert!(run.ledger.total_bytes() > 0);
        assert!(run.iterations >= 2);
    }

    #[test]
    fn kmeans_converges_on_euclidean_not_per_coordinate_movement() {
        // One centroid owns every point, so it lands on their mean after
        // the first iteration whatever the (approximate) distances read.
        // Starting 0.6·tolerance away in each of four coordinates it moves
        // 1.2·tolerance in Euclidean norm: iteration 1 must not count as
        // converged, although no single coordinate moved by the tolerance.
        let tolerance = 0.1;
        let points = vec![vec![0.9, 1.0, 1.1, 1.0], vec![1.1, 1.0, 0.9, 1.0]];
        let init = vec![vec![1.0 - 0.6 * tolerance; 4]];
        let mut session = setup(4, 2);
        let run = kmeans_encrypted(
            PackingVariant::DimensionMajor,
            &mut session,
            &points,
            &init,
            5,
            tolerance,
        )
        .unwrap();
        assert!(run.converged);
        assert_eq!(run.iterations, 2);
        for x in &run.centroids[0] {
            assert!((x - 1.0).abs() < 1e-12, "centroid {:?}", run.centroids[0]);
        }
    }

    #[test]
    fn a_second_kmeans_iteration_compiles_and_encodes_nothing() {
        // Every centroid of every iteration runs the one program of the
        // point set: the first centroid compiles it and encodes the negated
        // points (and the collapse masks); nothing after that does.
        let (_, points) = test_data(4, 6);
        let init = vec![vec![0.5; 4], vec![1.5; 4]];
        for variant in PackingVariant::all() {
            let mut session = setup(4, 6);
            // A zero tolerance never converges: the run takes every step.
            let mut run = ResumableKmeans::new(variant, &points, &init, 2, 0.0).unwrap();
            run.step(&mut session).unwrap();
            let (programs, operands) = session.resident_counters();
            assert_eq!(programs.misses, 1, "{}", variant.label());
            run.step(&mut session).unwrap();
            let (again, reused) = session.resident_counters();
            assert_eq!(again.misses, 1, "{}", variant.label());
            assert_eq!(reused.misses, operands.misses, "{}", variant.label());
            assert!(reused.hits > operands.hits, "{}", variant.label());
        }
    }

    #[test]
    fn encrypted_kmeans_iteration_converges_like_plain() {
        // One full client-aided K-Means round using encrypted distances.
        let points = vec![
            vec![0.0, 0.2, 0.1, 0.0],
            vec![0.1, 0.1, 0.0, 0.1],
            vec![2.0, 2.1, 1.9, 2.0],
            vec![2.1, 2.0, 2.0, 1.9],
        ];
        let centroids = vec![vec![0.5; 4], vec![1.5; 4]];
        let mut session = setup(4, 4);
        let mut enc_dists = Vec::new();
        for c in &centroids {
            let r = encrypted_distances(PackingVariant::DimensionMajor, &mut session, c, &points)
                .unwrap();
            enc_dists.push(r.distances);
        }
        let plain_dists: Vec<Vec<f64>> = centroids
            .iter()
            .map(|c| distances_plain(c, &points))
            .collect();
        assert_eq!(
            kmeans_update(&points, &enc_dists),
            kmeans_update(&points, &plain_dists)
        );
    }
}
