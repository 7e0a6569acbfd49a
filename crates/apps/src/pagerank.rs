//! Encrypted PageRank (§5.1, §5.6, Figure 13).
//!
//! PageRank is pure linear algebra — `r ← d·M·r + (1−d)/n` — so iterations
//! can run entirely in encrypted space. The client-aided variant decrypts
//! and re-encrypts every `s` iterations to refresh noise (BFV) or restore
//! scale/levels (CKKS). Figure 13's finding: *frequent refreshes with small
//! parameters beat long fully-encrypted runs*, and the optimal schedules fit
//! the CHOCO-TACO envelope (`N ≤ 8192`, `k ≤ 3`).
//!
//! Both a real encrypted implementation, generic over the scheme, and the
//! analytic communication model behind Figure 13 live here. Each refresh
//! burst's server half is one compiled program (`burst_program`) that the
//! session keeps resident, so a repeated burst compiles and encodes nothing.

use crate::dnn::resident_options;
use crate::resumable::{
    bad_progress, ct_wire, finish_progress, progress_cursor, put_ct, put_f64s, read_ct, read_f64s,
    ResumableWorkload,
};
use choco::compiler::{compile, CompilerScheme, Program};
use choco::linalg::{matvec_into, replicate_for_matvec};
use choco::protocol::CommLedger;
use choco::transport::{LinkConfig, Session, TransportError};
use choco_he::params::{max_coeff_bits_128, HeParams, SchemeType, WORD_BYTES};
use choco_he::{HeError, HeScheme};
use std::collections::HashMap;

/// A row-stochastic link graph for PageRank.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Column-stochastic transition matrix `M[i][j]` = weight of `j → i`.
    pub transition: Vec<Vec<f64>>,
}

impl Graph {
    /// Builds the transition matrix from an adjacency list (dangling nodes
    /// distribute uniformly).
    pub fn from_adjacency(adj: &[Vec<usize>]) -> Graph {
        let n = adj.len();
        let mut m = vec![vec![0.0; n]; n];
        for (j, outs) in adj.iter().enumerate() {
            if outs.is_empty() {
                for row in m.iter_mut() {
                    row[j] = 1.0 / n as f64;
                }
            } else {
                for &i in outs {
                    m[i][j] = 1.0 / outs.len() as f64;
                }
            }
        }
        Graph { transition: m }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.transition.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.transition.is_empty()
    }
}

/// Plaintext PageRank reference.
pub fn pagerank_plain(graph: &Graph, damping: f64, iterations: u32) -> Vec<f64> {
    let n = graph.len();
    let mut r = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        for i in 0..n {
            for j in 0..n {
                next[i] += damping * graph.transition[i][j] * r[j];
            }
        }
        r = next;
    }
    r
}

/// Result of a client-aided encrypted PageRank run.
#[derive(Debug, Clone)]
pub struct EncryptedPageRank {
    /// Final rank vector (dequantized).
    pub ranks: Vec<f64>,
    /// Communication ledger across all refresh rounds.
    pub ledger: CommLedger,
    /// Client encryption count.
    pub encryptions: u64,
    /// Client decryption count.
    pub decryptions: u64,
}

/// Rotation steps the PageRank kernels need: diagonal shifts plus the
/// replication shift for multi-iteration bursts.
pub fn pagerank_rotation_steps(n: usize) -> Vec<i64> {
    let mut steps: Vec<i64> = (1..n as i64).collect();
    steps.push(-(n as i64));
    steps
}

const PAGERANK_MAGIC: &[u8; 4] = b"RPG1";

/// The leading word of a PageRank burst's resident-program key, distinct
/// from every other kind's.
pub(crate) const PAGERANK_KEY_TAG: u64 = u64::from_le_bytes(*b"pagerank");

/// What [`burst_program`] is a function of, exactly: the graph's
/// transition matrix, the damping, the burst length and the fixed-point
/// scale, behind [`PAGERANK_KEY_TAG`] — the key a session keeps the
/// compiled burst under.
pub(crate) fn burst_key(graph: &Graph, damping: f64, burst: u32, scale_bits: u32) -> Vec<u64> {
    let mut key = vec![PAGERANK_KEY_TAG, graph.len() as u64, burst.into()];
    key.extend([scale_bits.into(), damping.to_bits()]);
    key.extend(graph.transition.iter().flatten().map(|v| v.to_bits()));
    key
}

/// `burst` encrypted PageRank iterations as one program over the input
/// `ranks`, the rank vector packed by [`replicate_for_matvec`]. Each
/// iteration is the damped transition matrix's diagonal matvec
/// ([`matvec_into`]) plus the teleport vector; between two iterations the
/// ranks are masked to their first copy and re-replicated with one
/// rotate-add for the next matvec — the noise and level tax that makes long
/// bursts lose to frequent refresh (§5.6).
///
/// Every constant is quantized here with [`HeScheme::quantize`] at the
/// fixed-point depth where it meets the ranks — the matrix at 1, iteration
/// `it`'s teleport vector at `it + 2` (every term carries that depth after
/// the matvec), the mask at 0 — and enters the program as the slot values
/// it quantized to. Under BFV those are integers below `t`, compiled at
/// scale `2^0`; under CKKS quantization is the identity. An empty graph
/// yields a program with no output, which [`compile`] refuses.
pub(crate) fn burst_program<S: HeScheme>(
    ctx: &S::Context,
    graph: &Graph,
    damping: f64,
    burst: u32,
    scale_bits: u32,
) -> Program {
    // A quantized vector's slot values as reals (dequantizing at depth 0
    // strips no scale).
    let fixed = |values: &[f64], depth| {
        S::dequantize(ctx, &S::quantize(ctx, values, scale_bits, depth), 0, 0)
    };
    let n = graph.len();
    let damped = |row: &Vec<f64>| row.iter().map(|&v| damping * v).collect::<Vec<_>>();
    let matrix: Vec<Vec<f64>> = graph
        .transition
        .iter()
        .map(|row| fixed(&damped(row), 1))
        .collect();
    let teleport = vec![(1.0 - damping) / n as f64; n];
    let mut p = Program::new();
    let mut ranks = p.input("ranks");
    for it in 0..burst {
        let Some(product) = matvec_into(&mut p, ranks, &matrix) else {
            return p;
        };
        let constant = p.constant(&fixed(&teleport, it + 2));
        ranks = p.add_plain(product, constant);
        if it + 1 < burst {
            let mask = p.constant(&fixed(&vec![1.0; n], 0));
            let masked = p.mul_plain(ranks, mask);
            let copy = p.rotate(masked, -(n as i64));
            ranks = p.add(masked, copy);
        }
    }
    p.output(ranks);
    p
}

/// Client-aided PageRank as a burst-granular state machine, generic over
/// the HE scheme: each step is one refresh burst — quantize + encrypt +
/// upload, `burst` encrypted iterations (`burst_program`, run by the
/// session), download, decrypt + renormalize.
///
/// Under BFV the matrix and ranks are quantized with `scale_bits`
/// fractional bits via [`HeScheme::quantize`]: every encrypted iteration
/// multiplies the rank scale by the matrix scale, so after a burst of
/// `iters_per_refresh` iterations the values carry `scale^(burst+1)` which
/// the client strips in plaintext (the noise refresh). Under CKKS the
/// quantize hooks are the identity (`scale_bits` is ignored — ciphertexts
/// carry the scale natively) and each iteration consumes rescale levels
/// instead, so a refresh restores the level chain.
#[derive(Debug)]
pub struct ResumablePagerank<S: HeScheme> {
    graph: Graph,
    damping: f64,
    total_iterations: u32,
    iters_per_refresh: u32,
    scale_bits: u32,
    ranks: Vec<f64>,
    done: u32,
    last_reply: Option<S::Ciphertext>,
}

impl<S: HeScheme> ResumablePagerank<S> {
    /// Starts a fresh run at the uniform rank vector.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) for a zero refresh cadence or an
    /// empty graph.
    pub fn new(
        graph: &Graph,
        damping: f64,
        total_iterations: u32,
        iters_per_refresh: u32,
        scale_bits: u32,
    ) -> Result<Self, TransportError> {
        if iters_per_refresh < 1 {
            return Err(HeError::Mismatch("need at least one iteration per refresh".into()).into());
        }
        if graph.is_empty() {
            return Err(HeError::Mismatch("empty graph".into()).into());
        }
        let n = graph.len();
        Ok(ResumablePagerank {
            graph: graph.clone(),
            damping,
            total_iterations,
            iters_per_refresh,
            scale_bits,
            ranks: vec![1.0 / n as f64; n],
            done: 0,
            last_reply: None,
        })
    }

    /// Current rank vector (final answer once done).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }
}

impl<S: CompilerScheme> ResumableWorkload for ResumablePagerank<S> {
    type Scheme = S;

    /// Runs one refresh burst.
    ///
    /// HE-layer failures include insufficient CKKS levels when
    /// `iters_per_refresh` exceeds what the prime chain supports — the
    /// Figure 13 tradeoff surfacing as an API error; an oversized graph is
    /// [`HeError::Mismatch`].
    fn step(&mut self, session: &mut Session<S>) -> Result<(), TransportError> {
        if self.is_done() {
            return Ok(());
        }
        let n = self.graph.len();
        let width = session.server().slot_width();
        if 2 * n > width {
            return Err(HeError::Mismatch("graph too large for one ciphertext row".into()).into());
        }
        let burst = self
            .iters_per_refresh
            .min(self.total_iterations - self.done);

        // Client: quantize at depth 1, replicate for the diagonal matvec,
        // encrypt, upload.
        let qr = S::quantize(session.server().context(), &self.ranks, self.scale_bits, 1);
        let replicated = replicate_for_matvec(&qr, width);
        let ct = session.client_mut().encrypt(&replicated)?;
        let at_server = session.upload(&ct)?;

        // Server: the burst's program — looked up in the session by its
        // definition, built and compiled on a miss. Its terms meet at depth
        // `burst + 1` for the client to strip.
        session.compute_tick()?;
        let (graph, damping, scale_bits) = (&self.graph, self.damping, self.scale_bits);
        let options = resident_options(session.params());
        let build = |ctx: &S::Context| {
            let program = burst_program::<S>(ctx, graph, damping, burst, scale_bits);
            compile(&program, &options)
                .map_err(|e| HeError::Mismatch(format!("PageRank burst program: {e}")))
        };
        let inputs = HashMap::from([("ranks".to_string(), at_server)]);
        let key = burst_key(graph, damping, burst, scale_bits);
        let reply = session.run_resident(&key, build, &inputs)?.pop();
        let reply = reply.ok_or_else(|| HeError::Mismatch("burst program has no output".into()))?;
        let back = session.download(&reply)?;
        session.ledger_mut().end_round();

        // Client: decrypt, strip the accumulated depth, renormalize to a
        // probability vector.
        let slots = session.client_mut().decrypt(&back)?;
        let ctx = session.server().context();
        let stripped = S::dequantize(ctx, &slots[..n], self.scale_bits, burst + 1);
        self.ranks.copy_from_slice(&stripped);
        let sum: f64 = self.ranks.iter().sum();
        for r in self.ranks.iter_mut() {
            *r /= sum;
        }
        self.last_reply = Some(back);
        self.done += burst;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.done >= self.total_iterations
    }

    fn progress(&self) -> Vec<u8> {
        let mut out = PAGERANK_MAGIC.to_vec();
        out.extend_from_slice(&self.done.to_le_bytes());
        put_f64s(&mut out, &self.ranks);
        put_ct::<S>(&mut out, self.last_reply.as_ref());
        out
    }

    fn restore(mut self, progress: &[u8]) -> Result<Self, TransportError> {
        let mut r = progress_cursor(progress, PAGERANK_MAGIC)?;
        let done = r.take_u32()?;
        let ranks = read_f64s(&mut r)?;
        let last_reply = read_ct::<S>(&mut r)?;
        finish_progress(&r)?;
        if done > self.total_iterations {
            return Err(bad_progress("iteration counter exceeds the schedule"));
        }
        if ranks.len() != self.graph.len() {
            return Err(bad_progress("rank vector does not match the graph"));
        }
        if ranks.iter().any(|x| !x.is_finite()) {
            return Err(bad_progress("non-finite rank"));
        }
        self.done = done;
        self.ranks = ranks;
        self.last_reply = last_reply;
        Ok(self)
    }

    fn final_ct_wire(&self) -> Vec<u8> {
        ct_wire::<S>(self.last_reply.as_ref())
    }
}

/// Runs client-aided PageRank ([`ResumablePagerank`]) to completion over
/// the given link, generic over the HE scheme.
///
/// A [`LinkConfig::direct`] link is the fault-free paper protocol; any
/// other link adds framed retries (billed to `retransmit_bytes`) without
/// changing the ranks: under
/// any fault schedule within the retry budget the result is bit-identical
/// to the direct run.
///
/// # Errors
///
/// A zero refresh cadence and an empty graph are [`HeError::Mismatch`],
/// reported before any key is generated. Transport errors when the link
/// defeats the retry policy; HE-layer failures as
/// [`ResumablePagerank::step`], wrapped in [`TransportError::He`].
pub fn pagerank_encrypted<S: CompilerScheme>(
    graph: &Graph,
    damping: f64,
    total_iterations: u32,
    iters_per_refresh: u32,
    params: &HeParams,
    scale_bits: u32,
    link: LinkConfig,
) -> Result<EncryptedPageRank, TransportError> {
    let mut run = ResumablePagerank::<S>::new(
        graph,
        damping,
        total_iterations,
        iters_per_refresh,
        scale_bits,
    )?;
    let steps = pagerank_rotation_steps(graph.len());
    let mut session = Session::<S>::with_link(params, b"pagerank", &steps, link)?;
    run.run(&mut session)?;
    let (client, _server, ledger) = session.into_parts();
    Ok(EncryptedPageRank {
        ranks: run.ranks,
        encryptions: client.encryption_count(),
        decryptions: client.decryption_count(),
        ledger,
    })
}

/// Analytic communication model behind Figure 13.
///
/// Achieving `total_iterations` with encrypted bursts of `set_size`
/// iterations costs `ceil(total/set)` refresh rounds of one upload + one
/// download. Larger bursts force larger parameters:
///
/// * **BFV**: each iteration multiplies the rank scale by the quantized
///   matrix (`scale_bits` per iteration), so the data modulus must hold
///   `set_size·(scale_bits + log2 n)` bits of signal plus noise headroom.
/// * **CKKS**: each iteration consumes one rescaling prime
///   (`ckks_prime_bits`), so the chain needs `set_size + 1` data primes —
///   smaller per-iteration cost, hence Figure 13's "CKKS communicates less
///   across the board".
///
/// Returns `(params_n, k_total, bytes_total)`, or `None` when no
/// standardized degree can support the burst at 128-bit security.
pub fn pagerank_comm_model(
    scheme: SchemeType,
    total_iterations: u32,
    set_size: u32,
    graph_nodes: usize,
    scale_bits: u32,
) -> Option<(usize, usize, u64)> {
    if set_size < 1 || set_size > total_iterations {
        return None;
    }
    let rounds = total_iterations.div_ceil(set_size) as u64;
    let s = set_size;
    let (needed_data_bits, k_data_floor) = match scheme {
        SchemeType::Bfv => {
            // Signal: values carry scale^(s+1) plus n-fan-in accumulation,
            // all of which must fit the plaintext modulus t.
            let acc_bits = (graph_nodes as f64).log2().ceil() as u32;
            let t_bits = (s + 1) * scale_bits + acc_bits;
            // Noise: each encrypted iteration is a plaintext multiply at
            // modulus t (≈ t_bits + 7 bits), so the demand is *quadratic*
            // in the burst length — the physics behind Figure 13.
            let fresh = 11u32;
            let noise = s * (t_bits + 7) + fresh;
            (t_bits + 1 + noise, 1usize)
        }
        SchemeType::Ckks => {
            // One ~40-bit rescaling prime per iteration plus a 60-bit base:
            // linear in the burst length.
            (40 * s + 60, (s + 1) as usize)
        }
    };
    // Special prime sized like a data prime.
    let special_bits = 60u32;
    for n in [2048usize, 4096, 8192, 16384, 32768] {
        if 2 * graph_nodes > n / 2 {
            continue;
        }
        let max = max_coeff_bits_128(n)?;
        if needed_data_bits + special_bits > max {
            continue;
        }
        // Residues of ≤60 bits each.
        let k_data = (needed_data_bits.div_ceil(60).max(1) as usize).max(k_data_floor);
        let k_total = k_data + 1;
        let ct_bytes = (2 * n * k_data * WORD_BYTES) as u64;
        return Some((n, k_total, rounds * 2 * ct_bytes));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_he::{Bfv, Ckks};

    #[test]
    fn pagerank_rotation_steps_cover_every_kernel_rotation() {
        // The PageRank iteration's compiler-IR twin requests one rotation
        // per matrix diagonal; the provisioning list must be a superset.
        use crate::circuits::pagerank_program;
        use choco::compiler::{compile, CompilerOptions};
        let n = 8usize;
        let opts = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        };
        let compiled = compile(&pagerank_program(n), &opts).unwrap();
        let advertised = pagerank_rotation_steps(n);
        let requested = compiled.rotation_steps();
        assert!(!requested.is_empty());
        for s in requested {
            assert!(
                advertised.contains(&s),
                "kernel requests rotation {s} that pagerank_rotation_steps does not advertise"
            );
        }
    }

    fn small_graph() -> Graph {
        // Classic 4-node example with a dangling node.
        Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]])
    }

    #[test]
    fn transition_matrix_is_column_stochastic() {
        let g = small_graph();
        for j in 0..g.len() {
            let col: f64 = (0..g.len()).map(|i| g.transition[i][j]).sum();
            assert!((col - 1.0).abs() < 1e-12, "column {j} sums to {col}");
        }
    }

    #[test]
    fn plain_pagerank_converges_to_stationary() {
        let g = small_graph();
        let r20 = pagerank_plain(&g, 0.85, 100);
        let r40 = pagerank_plain(&g, 0.85, 200);
        for (a, b) in r20.iter().zip(&r40) {
            assert!((a - b).abs() < 1e-6);
        }
        let sum: f64 = r40.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn encrypted_pagerank_tracks_plain_reference() {
        let g = small_graph();
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
        let enc =
            pagerank_encrypted::<Bfv>(&g, 0.85, 6, 1, &params, 10, LinkConfig::direct()).unwrap();
        let plain = pagerank_plain(&g, 0.85, 6);
        for (i, (e, p)) in enc.ranks.iter().zip(&plain).enumerate() {
            assert!((e - p).abs() < 0.02, "node {i}: encrypted {e} vs plain {p}");
        }
        assert_eq!(enc.encryptions, 6);
        assert_eq!(enc.decryptions, 6);
        assert_eq!(enc.ledger.rounds, 6);
    }

    #[test]
    fn empty_graph_is_rejected_before_any_key_is_generated() {
        // The parameters are never looked at: the graph check comes first.
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
        let empty = Graph {
            transition: Vec::new(),
        };
        let err = pagerank_encrypted::<Bfv>(&empty, 0.85, 2, 1, &params, 10, LinkConfig::direct())
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::He(HeError::Mismatch("empty graph".into()))
        );
    }

    #[test]
    fn ckks_pagerank_tracks_plain_reference() {
        let g = small_graph();
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let enc =
            pagerank_encrypted::<Ckks>(&g, 0.85, 6, 1, &params, 0, LinkConfig::direct()).unwrap();
        let plain = pagerank_plain(&g, 0.85, 6);
        for (i, (e, p)) in enc.ranks.iter().zip(&plain).enumerate() {
            assert!((e - p).abs() < 0.01, "node {i}: {e} vs {p}");
        }
        assert_eq!(enc.ledger.rounds, 6);
    }

    #[test]
    fn ckks_pagerank_bursts_consume_levels() {
        let g = small_graph();
        // Each burst iteration costs one matvec rescale plus (between
        // iterations) one mask rescale: burst 2 needs 3 levels + headroom,
        // so a 4-data-prime chain fits and burst 3 must fail — the Figure 13
        // tradeoff surfacing as levels.
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 45, 46], 38).unwrap();
        let enc =
            pagerank_encrypted::<Ckks>(&g, 0.85, 4, 2, &params, 0, LinkConfig::direct()).unwrap();
        let plain = pagerank_plain(&g, 0.85, 4);
        for (e, p) in enc.ranks.iter().zip(&plain) {
            assert!((e - p).abs() < 0.02, "{e} vs {p}");
        }
        assert_eq!(enc.ledger.rounds, 2);
        // A burst of 3 needs more levels than the chain has.
        assert!(
            pagerank_encrypted::<Ckks>(&g, 0.85, 3, 3, &params, 0, LinkConfig::direct()).is_err()
        );
    }

    #[test]
    fn encrypted_bursts_stay_correct_and_cost_more_noise() {
        // Two encrypted iterations per refresh: the server re-replicates
        // with a masking multiply, and results still track the reference.
        // Note the *larger* coefficient modulus this demands — three chained
        // plaintext multiplies per burst — which is Figure 13's lesson about
        // continuous encrypted operation.
        let g = small_graph();
        let params = HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 21).unwrap();
        let enc =
            pagerank_encrypted::<Bfv>(&g, 0.85, 4, 2, &params, 6, LinkConfig::direct()).unwrap();
        let plain = pagerank_plain(&g, 0.85, 4);
        for (i, (e, p)) in enc.ranks.iter().zip(&plain).enumerate() {
            assert!((e - p).abs() < 0.05, "node {i}: encrypted {e} vs plain {p}");
        }
        // Half the refreshes of the burst-1 schedule.
        assert_eq!(enc.ledger.rounds, 2);
    }

    #[test]
    fn a_second_burst_of_a_length_compiles_and_encodes_nothing() {
        // Bursts of 2, 2 and 1: the session compiles one program per burst
        // length and encodes its constants on that length's first burst
        // only — the matrix's 4 diagonals and a teleport vector per
        // iteration plus the one mask of a 2-burst, 11 operands.
        fn misses_per_burst<S: CompilerScheme>(
            params: &HeParams,
            scale_bits: u32,
        ) -> Vec<(u64, u64)> {
            let g = small_graph();
            let steps = pagerank_rotation_steps(g.len());
            let mut session = Session::<S>::direct(params, b"resident bursts", &steps).unwrap();
            let mut run = ResumablePagerank::<S>::new(&g, 0.85, 5, 2, scale_bits).unwrap();
            let mut misses = Vec::new();
            while !run.is_done() {
                run.step(&mut session).unwrap();
                let (programs, operands) = session.resident_counters();
                misses.push((programs.misses, operands.misses));
            }
            misses
        }
        let bfv = HeParams::bfv_insecure(1024, &[50, 50, 50, 51], 21).unwrap();
        let ckks = HeParams::ckks_insecure(1024, &[45, 45, 45, 45, 46], 38).unwrap();
        for misses in [
            misses_per_burst::<Bfv>(&bfv, 6),
            misses_per_burst::<Ckks>(&ckks, 0),
        ] {
            assert_eq!(misses, [(1, 11), (1, 11), (2, 16)]);
        }
    }

    #[test]
    fn resilient_pagerank_matches_direct_under_faults() {
        use choco::transport::{FaultPlan, FaultyChannel, RetryPolicy};

        let g = small_graph();
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
        let baseline =
            pagerank_encrypted::<Bfv>(&g, 0.85, 4, 1, &params, 10, LinkConfig::direct()).unwrap();

        let plan = FaultPlan::lossless()
            .with_drop_rate(0.25)
            .with_corrupt_rate(0.2)
            .with_max_latency_ms(15);
        let link = LinkConfig {
            uplink: Box::new(FaultyChannel::new(b"pagerank up", plan)),
            downlink: Box::new(FaultyChannel::new(b"pagerank down", plan)),
            policy: RetryPolicy {
                max_attempts: 16,
                ..RetryPolicy::default()
            },
        };
        let enc = pagerank_encrypted::<Bfv>(&g, 0.85, 4, 1, &params, 10, link).unwrap();
        // Bit-identical ranks: faults only cost retries, never precision.
        assert_eq!(enc.ranks, baseline.ranks);
        assert_eq!(enc.ledger.rounds, baseline.ledger.rounds);
        assert!(
            enc.ledger.retransmit_bytes > 0,
            "a lossy channel must bill retransmissions"
        );
        // Paper-visible counters stay comparable to the direct run.
        assert_eq!(enc.ledger.upload_bytes, baseline.ledger.upload_bytes);
        assert_eq!(enc.ledger.download_bytes, baseline.ledger.download_bytes);
    }

    #[test]
    fn resilient_pagerank_surfaces_dead_channel() {
        use choco::transport::{FaultPlan, FaultyChannel};

        let g = small_graph();
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
        let link = LinkConfig {
            uplink: Box::new(FaultyChannel::new(b"void", FaultPlan::blackhole())),
            ..LinkConfig::direct()
        };
        let err = pagerank_encrypted::<Bfv>(&g, 0.85, 2, 1, &params, 10, link).unwrap_err();
        assert!(matches!(err, TransportError::RetriesExhausted { .. }));
    }

    #[test]
    fn cross_scheme_pagerank_agrees_under_direct_and_faulty_links() {
        // The same generic runner under both schemes, over both a perfect
        // link and a seeded lossy link: all four runs must agree with the
        // plaintext reference (and hence with each other), faults costing
        // only retransmissions.
        use choco::transport::{FaultPlan, FaultyChannel, RetryPolicy};

        let g = small_graph();
        let plain = pagerank_plain(&g, 0.85, 4);
        let bfv_params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
        let ckks_params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let plan = FaultPlan::lossless()
            .with_drop_rate(0.25)
            .with_corrupt_rate(0.2);
        let faulty = |label: &'static [u8]| LinkConfig {
            uplink: Box::new(FaultyChannel::new(label, plan)),
            downlink: Box::new(FaultyChannel::new(label, plan)),
            policy: RetryPolicy {
                max_attempts: 16,
                ..RetryPolicy::default()
            },
        };

        let runs = [
            pagerank_encrypted::<Bfv>(&g, 0.85, 4, 1, &bfv_params, 10, LinkConfig::direct())
                .unwrap(),
            pagerank_encrypted::<Bfv>(&g, 0.85, 4, 1, &bfv_params, 10, faulty(b"xs bfv")).unwrap(),
            pagerank_encrypted::<Ckks>(&g, 0.85, 4, 1, &ckks_params, 0, LinkConfig::direct())
                .unwrap(),
            pagerank_encrypted::<Ckks>(&g, 0.85, 4, 1, &ckks_params, 0, faulty(b"xs ckks"))
                .unwrap(),
        ];
        for (which, run) in runs.iter().enumerate() {
            for (i, (e, p)) in run.ranks.iter().zip(&plain).enumerate() {
                assert!((e - p).abs() < 0.02, "run {which} node {i}: {e} vs {p}");
            }
        }
        // Faults never change the answer, only the retransmit bill.
        assert_eq!(runs[0].ranks, runs[1].ranks);
        assert_eq!(runs[2].ranks, runs[3].ranks);
        assert!(runs[1].ledger.retransmit_bytes > 0);
        assert!(runs[3].ledger.retransmit_bytes > 0);
    }

    #[test]
    fn comm_model_prefers_frequent_refresh() {
        // Figure 13's headline: for 24 total iterations, bursts of 1–2
        // communicate less than one burst of 24.
        let total = 24;
        let frequent = pagerank_comm_model(SchemeType::Bfv, total, 1, 64, 8).unwrap();
        let rare = pagerank_comm_model(SchemeType::Bfv, total, 24, 64, 8);
        // 24 encrypted iterations may simply not fit any secure set — an
        // even stronger version of the paper's point — otherwise frequent
        // refresh must communicate strictly less.
        if let Some((_, _, bytes)) = rare {
            assert!(
                frequent.2 < bytes,
                "frequent {} vs rare {bytes}",
                frequent.2
            );
        }
    }

    #[test]
    fn optimal_schedules_fit_the_taco_envelope() {
        // §5.6: the best client-aided combinations use N ≤ 8192, k ≤ 3.
        for total in [8u32, 16, 24, 48] {
            let mut best: Option<(u32, usize, usize, u64)> = None;
            for set in 1..=total {
                if let Some((n, k, bytes)) = pagerank_comm_model(SchemeType::Bfv, total, set, 64, 8)
                {
                    if best.is_none() || bytes < best.unwrap().3 {
                        best = Some((set, n, k, bytes));
                    }
                }
            }
            let (set, n, k, _) = best.expect("some schedule must work");
            assert!(n <= 8192, "total {total}: optimal N {n}");
            assert!(k <= 3, "total {total}: optimal k {k}");
            assert!(set <= 4, "total {total}: optimal burst {set}");
        }
    }

    #[test]
    fn ckks_communicates_less_than_bfv() {
        // Figure 13: CKKS curves sit below BFV for matched schedules.
        let total = 12;
        let mut bfv_best = u64::MAX;
        let mut ckks_best = u64::MAX;
        for set in 1..=3u32 {
            // 16 fractional bits: the precision PageRank convergence needs,
            // where CKKS's native rescaling precision pulls ahead.
            if let Some((_, _, b)) = pagerank_comm_model(SchemeType::Bfv, total, set, 64, 16) {
                bfv_best = bfv_best.min(b);
            }
            if let Some((_, _, b)) = pagerank_comm_model(SchemeType::Ckks, total, set, 64, 16) {
                ckks_best = ckks_best.min(b);
            }
        }
        assert!(ckks_best <= bfv_best, "ckks {ckks_best} vs bfv {bfv_best}");
    }
}
