//! Encrypted linear algebra built on rotational redundancy (§3.3).
//!
//! Two kernels cover the paper's workloads:
//!
//! * [`stacked_conv`] — convolution over channel-stacked, redundantly packed
//!   inputs: one rotation per filter tap *for the whole layer* (every output
//!   shares the pass) and one plaintext multiply per tap and output, no
//!   masking multiplies (the headline win of rotational redundancy). Its
//!   weights are per channel *block*, so a conv layer's channel-diagonal
//!   packing (`choco_apps::dnn::ConvPacking`) runs its diagonals through it
//!   and sums channels with the same hybrid split as the FC below;
//! * [`matvec_diagonals`] — diagonal matrix-vector product for
//!   fully-connected layers and PageRank-style iterations, generic over the
//!   scheme (`u64` slots under BFV, `f64` under CKKS). It is Gazelle's
//!   *hybrid* method: as many extended diagonals as the matrix has rows
//!   (rounded up to a divisor of the column count), then a few rotate-adds
//!   folding the partial sums — which for a square matrix is exactly the
//!   Halevi–Shoup diagonal method, no folds. [`matvec_rotation_steps`] is
//!   the Galois-key set that kernel needs, derived from the shape the same
//!   way the kernel derives its rotations ([`matvec_hybrid_shape`]).

use crate::protocol::Server;
use crate::stacking::StackedLayout;
use choco_he::bfv::Ciphertext;
use choco_he::{Bfv, HeError, HeScheme};

/// One convolution tap: rotate the stacked input by `shift` slots, then
/// multiply by per-block weights broadcast over each channel block.
#[derive(Debug, Clone)]
pub struct ConvTap {
    /// Row-rotation distance (positive = left), bounded by the layout's
    /// redundancy.
    pub shift: i64,
    /// One weight per channel block of the layout.
    pub channel_weights: Vec<u64>,
}

/// Applies the taps of every output of a layer to one stacked ciphertext
/// in a single pass: `out_o = Σ_taps rotate(ct, shift) ⊙ weights_o`
/// for each tap list `outputs[o]`. All outputs shift the same input by the
/// same distances (that is what makes them one layer), so each tap's
/// rotation is key-switched once and multiply-accumulated into every
/// output ([`choco_he::bfv::Evaluator::dot_rotations_many`]); output `o` is,
/// bit for bit, what this function returns for `&outputs[o..=o]`.
///
/// Every output term passes through exactly **one** plaintext
/// multiplication, so noise grows as a single multiply plus `log2(#taps)`
/// bits of accumulation — the "optimal multiplication efficiency" the paper
/// claims for rotational redundancy.
///
/// # Errors
///
/// Propagates rotation (missing Galois key) and encoding errors.
/// [`HeError::Mismatch`]: no outputs, an empty tap list, outputs whose shift
/// lists differ, a tap shift exceeding the layout redundancy, or a tap whose
/// weight count is not the layout's channel count.
pub fn stacked_conv(
    server: &Server<Bfv>,
    ct: &Ciphertext,
    layout: &StackedLayout,
    outputs: &[Vec<ConvTap>],
) -> Result<Vec<Ciphertext>, HeError> {
    let Some(first) = outputs.first() else {
        return Err(HeError::Mismatch(
            "convolution needs at least one output".into(),
        ));
    };
    if first.is_empty() {
        return Err(HeError::Mismatch(
            "convolution needs at least one tap".into(),
        ));
    }
    let redundancy = layout.channel_layout().redundancy();
    for taps in outputs {
        if !taps
            .iter()
            .map(|t| t.shift)
            .eq(first.iter().map(|t| t.shift))
        {
            return Err(HeError::Mismatch(
                "outputs of one convolution must share their tap shifts".into(),
            ));
        }
        for tap in taps {
            if tap.shift.unsigned_abs() as usize > redundancy {
                return Err(HeError::Mismatch(format!(
                    "tap shift {} exceeds redundancy {redundancy}",
                    tap.shift
                )));
            }
            if tap.channel_weights.len() != layout.channels() {
                return Err(HeError::Mismatch(format!(
                    "tap carries {} channel weights for {} stacked channels",
                    tap.channel_weights.len(),
                    layout.channels()
                )));
            }
        }
    }
    // All tap shifts rotate the same input, so the fused kernel shares one
    // hoisted decomposition across them and collapses each output's tap
    // products into a single NTT-domain inner product with one key-switch
    // rounding. Term k carries tap k of every output, encoded as it is
    // consumed.
    let eval = server.evaluator();
    let terms = first.iter().enumerate().map(|(k, tap)| {
        let operands = outputs
            .iter()
            .filter_map(|taps| taps.get(k))
            .map(|tap| {
                let weights = layout.broadcast_weights(&tap.channel_weights);
                eval.dot_operand(&server.encode(&weights)?)
            })
            .collect::<Result<Vec<_>, HeError>>()?;
        Ok((tap.shift, operands))
    });
    eval.dot_rotations_many(ct, outputs.len(), terms, server.galois_keys())
}

/// Replicates an `n`-vector twice in a slot row so that row rotations by up
/// to `n` read `x[(i+d) mod n]` at slot `i` — the packing
/// [`matvec_diagonals`] expects.
///
/// # Panics
///
/// Panics if `2n` exceeds `row_size`.
pub fn replicate_for_matvec<V: Copy + Default>(x: &[V], row_size: usize) -> Vec<V> {
    let n = x.len();
    assert!(2 * n <= row_size, "vector too long to replicate in one row");
    let mut slots = vec![V::default(); row_size];
    slots[..n].copy_from_slice(x);
    slots[n..2 * n].copy_from_slice(x);
    slots
}

/// How [`matvec_diagonals`] splits a `rows × cols` product: `(depth, folds)`
/// with `depth = cols / 2^j` for the largest `j` such that `2^j` divides
/// `cols` and `depth ≥ rows`, and `folds` the `j` rotate-add distances
/// `cols/2, cols/4, …, depth`. The kernel runs `depth` extended diagonals
/// and then the folds in that order; a square matrix (or any column count
/// with no even factor to spare) gets `(cols, [])`.
pub fn matvec_hybrid_shape(rows: usize, cols: usize) -> (usize, Vec<usize>) {
    let mut depth = cols;
    let mut folds = Vec::new();
    while depth.is_multiple_of(2) && depth / 2 >= rows.max(1) {
        depth /= 2;
        folds.push(depth);
    }
    (depth, folds)
}

/// Every rotation step [`matvec_diagonals`] performs on a `rows × cols`
/// matrix — the Galois keys a server needs for it, no more: the diagonal
/// shifts `1..depth`, then the fold distances of [`matvec_hybrid_shape`].
/// `cols − 1` steps for a square matrix, 18 for 10 × 128.
pub fn matvec_rotation_steps(rows: usize, cols: usize) -> Vec<i64> {
    let (depth, folds) = matvec_hybrid_shape(rows, cols);
    (1..depth).chain(folds).map(|s| s as i64).collect()
}

/// Diagonal matrix-vector product `y = M·x`, generic over the scheme (`u64`
/// entries under BFV, `f64` under CKKS, where the result comes back one
/// level down after the kernel's single rescale).
///
/// The method is Gazelle's hybrid of the Halevi–Shoup diagonals and a
/// rotate-add fold, with `(depth, folds) =` [`matvec_hybrid_shape`]`(rows,
/// cols)`: extended diagonal `d < depth` holds
/// `M[i mod depth][(i + d) mod cols]` at slot `i < cols` (zero where
/// `i mod depth ≥ rows`), so one fused dot over `depth` rotations leaves
/// `Σ_d M[i mod depth][(i + d) mod cols] · x[(i + d) mod cols]` at slot `i`
/// — the part of row `i mod depth`'s product that starts at column `i` —
/// and the rotate-adds by `folds = [cols/2, cols/4, …, depth]` sum the
/// `cols / depth` parts of each row into slots `[0, depth)`. A square
/// matrix has `depth = cols` and no fold: the plain diagonal method.
///
/// `ct_x` must hold `x` packed by [`replicate_for_matvec`]. The result holds
/// `y` in slots `[0, rows)`; slots `[rows, depth)` are zero and, when the
/// product folded, slots from `depth` up hold partial sums — read `y` and
/// nothing else. Needs Galois keys for [`matvec_rotation_steps`]`(rows,
/// cols)`. One hoisted decomposition serves every diagonal's rotation, so
/// the dot pays a single key-switch rounding; each fold is a key switch of
/// its own and doubles the noise, about one bit of BFV budget per fold —
/// the price of `depth + folds` rotations instead of `cols`.
///
/// # Errors
///
/// Propagates rotation and encoding errors; an empty or ragged matrix,
/// `rows > cols`, or `2·cols` exceeding the slot width (no room for the
/// replicated vector) is reported as [`HeError::Mismatch`].
pub fn matvec_diagonals<S: HeScheme>(
    server: &Server<S>,
    ct_x: &S::Ciphertext,
    matrix: &[Vec<S::Value>],
) -> Result<S::Ciphertext, HeError> {
    let rows = matrix.len();
    let Some(cols) = matrix.first().map(Vec::len) else {
        return Err(HeError::Mismatch("matrix must be nonempty".into()));
    };
    if matrix.iter().any(|r| r.len() != cols) {
        return Err(HeError::Mismatch("ragged matrix".into()));
    }
    if rows > cols {
        return Err(HeError::Mismatch(
            "diagonal method requires rows <= cols".into(),
        ));
    }
    let width = server.slot_width();
    if 2 * cols > width {
        return Err(HeError::Mismatch(format!(
            "{cols} columns, replicated, exceed the {width}-slot row"
        )));
    }
    let (depth, folds) = matvec_hybrid_shape(rows, cols);
    let diagonals: Vec<(i64, Vec<S::Value>)> = (0..depth)
        .map(|d| {
            let mut diag = vec![S::Value::default(); width];
            for (i, s) in diag.iter_mut().enumerate().take(cols) {
                let entry = matrix.get(i % depth).and_then(|r| r.get((i + d) % cols));
                *s = entry.copied().unwrap_or_default();
            }
            (d as i64, diag)
        })
        .collect();
    let mut acc = server.dot_diagonals(ct_x, &diagonals)?;
    for step in folds {
        acc = server.add(&acc, &server.rotate(&acc, step as i64)?)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Client;
    use crate::rotation::RedundantLayout;
    use choco_he::params::HeParams;
    use choco_he::Ckks;

    fn setup(steps: &[i64]) -> (Client<Bfv>, Server<Bfv>) {
        let params = HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap();
        let mut client = Client::<Bfv>::new(&params, b"linalg").unwrap();
        let server = client.provision_server(steps).unwrap();
        (client, server)
    }

    #[test]
    fn stacked_conv_matches_plain_reference() {
        // 1D conv, 2 channels of 8 samples, 3-tap filter [1, 2, 3] per
        // channel with channel weights (ch0: w, ch1: 2w).
        let layout = StackedLayout::new(2, RedundantLayout::new(8, 2));
        let (mut client, server) = setup(&[1, -1, (layout.stride()) as i64]);
        let ch0: Vec<u64> = (1..=8).collect();
        let ch1: Vec<u64> = (11..=18).collect();
        let slots = layout.pack(&[ch0.clone(), ch1.clone()]);
        let ct = client.encrypt_slots(&slots).unwrap();
        let taps = vec![
            ConvTap {
                shift: -1,
                channel_weights: vec![1, 2],
            },
            ConvTap {
                shift: 0,
                channel_weights: vec![2, 4],
            },
            ConvTap {
                shift: 1,
                channel_weights: vec![3, 6],
            },
        ];
        let out = stacked_conv(&server, &ct, &layout, &[taps]).unwrap();
        let got = layout.extract(&client.decrypt_slots(&out[0]).unwrap());
        // Reference: per-channel circular conv with taps at -1/0/+1.
        let reference = |v: &[u64], w: &[u64; 3]| -> Vec<u64> {
            (0..8)
                .map(|j| w[0] * v[(j + 7) % 8] + w[1] * v[j] + w[2] * v[(j + 1) % 8])
                .collect::<Vec<u64>>()
        };
        assert_eq!(got[0], reference(&ch0, &[1, 2, 3]));
        assert_eq!(got[1], reference(&ch1, &[2, 4, 6]));
    }

    #[test]
    fn matvec_matches_plain_product() {
        let steps: Vec<i64> = (1..6).collect();
        let (mut client, server) = setup(&steps);
        let matrix: Vec<Vec<u64>> = vec![
            vec![1, 2, 3, 4, 5, 6],
            vec![7, 8, 9, 1, 2, 3],
            vec![4, 5, 6, 7, 8, 9],
        ];
        let x = vec![2u64, 3, 5, 7, 11, 13];
        let slots = replicate_for_matvec(&x, 512);
        let ct = client.encrypt_slots(&slots).unwrap();
        let y = matvec_diagonals(&server, &ct, &matrix).unwrap();
        let got = client.decrypt_slots(&y).unwrap();
        for (i, row) in matrix.iter().enumerate() {
            let want: u64 = row.iter().zip(&x).map(|(m, v)| m * v).sum();
            assert_eq!(got[i], want, "row {i}");
        }
    }

    #[test]
    fn conv_consumes_single_multiply_of_noise() {
        // The whole conv (3 taps) should cost roughly ONE plaintext multiply
        // of budget, not three — terms are multiplied independently then
        // added.
        let layout = StackedLayout::new(2, RedundantLayout::new(8, 2));
        let (mut client, server) = setup(&[1, -1]);
        let slots = layout.pack(&[vec![1; 8], vec![2; 8]]);
        let ct = client.encrypt_slots(&slots).unwrap();
        let fresh = client.noise_budget(&ct);
        let taps = vec![
            ConvTap {
                shift: -1,
                channel_weights: vec![3, 1],
            },
            ConvTap {
                shift: 0,
                channel_weights: vec![2, 2],
            },
            ConvTap {
                shift: 1,
                channel_weights: vec![1, 3],
            },
        ];
        let out = stacked_conv(&server, &ct, &layout, &[taps]).unwrap();
        let after = client.noise_budget(&out[0]);
        let cost = fresh - after;
        // One multiply at t≈17 bits costs ≲ t_bits + 7 + slack.
        assert!(cost < 40.0, "conv cost {cost} bits");
    }

    #[test]
    fn ckks_matvec_matches_plain_product() {
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        let mut client = Client::<Ckks>::new(&params, b"ckks mv").unwrap();
        let steps: Vec<i64> = (1..4).collect();
        let server = client.provision_server(&steps).unwrap();
        let matrix = vec![
            vec![0.5, -1.0, 2.0, 0.25],
            vec![1.0, 1.0, -0.5, 0.0],
            vec![0.0, 2.0, 1.0, -1.0],
        ];
        let x = vec![1.0, 2.0, -1.0, 0.5];
        let mut slots = vec![0.0; 512];
        slots[..4].copy_from_slice(&x);
        slots[4..8].copy_from_slice(&x);
        let ct = client.encrypt_values(&slots).unwrap();
        let y = matvec_diagonals(&server, &ct, &matrix).unwrap();
        let out = client.decrypt_values(&y).unwrap();
        for (i, row) in matrix.iter().enumerate() {
            let want: f64 = row.iter().zip(&x).map(|(m, v)| m * v).sum();
            assert!(
                (out[i] - want).abs() < 1e-2,
                "row {i}: {} vs {want}",
                out[i]
            );
        }
    }

    /// `result` must be a [`HeError::Mismatch`] whose message contains `why`.
    fn assert_mismatch<T: std::fmt::Debug>(result: Result<T, HeError>, why: &str) {
        let err = result.unwrap_err();
        assert!(
            matches!(err, HeError::Mismatch(ref m) if m.contains(why)),
            "{err}"
        );
    }

    #[test]
    fn matvec_rejects_what_it_cannot_pack() {
        let (mut client, server) = setup(&[1]);
        let ct = client.encrypt_slots(&[1]).unwrap();
        let rejects = |matrix: &[Vec<u64>], why: &str| {
            assert_mismatch(matvec_diagonals(&server, &ct, matrix), why)
        };
        rejects(&[vec![1], vec![2], vec![3]], "rows <= cols");
        rejects(&[], "nonempty");
        rejects(&[vec![1, 2], vec![3]], "ragged");
        // 257 columns, replicated, no longer fit the 512-slot row.
        rejects(&[vec![1; 257]], "exceed the 512-slot row");
        // 256 fit: the shape is accepted, and only this server's keys are
        // short of its folds.
        let fits = matvec_diagonals(&server, &ct, &[vec![1; 256]]);
        assert!(matches!(fits, Err(HeError::MissingGaloisKey(_))));
    }

    #[test]
    fn stacked_conv_rejects_malformed_outputs() {
        let layout = StackedLayout::new(2, RedundantLayout::new(8, 2));
        let (mut client, server) = setup(&[1, -1]);
        let ct = client
            .encrypt_slots(&layout.pack(&[vec![1; 8], vec![2; 8]]))
            .unwrap();
        let tap = |shift: i64, weights: &[u64]| ConvTap {
            shift,
            channel_weights: weights.to_vec(),
        };
        let good = vec![tap(-1, &[1, 2]), tap(1, &[3, 4])];
        let rejects = |outputs: &[Vec<ConvTap>], why: &str| {
            assert_mismatch(stacked_conv(&server, &ct, &layout, outputs), why)
        };
        rejects(&[], "at least one output");
        rejects(&[vec![]], "at least one tap");
        rejects(&[vec![tap(3, &[1, 2])]], "exceeds redundancy");
        // One weight, three weights: neither is the layout's two channels.
        rejects(&[vec![tap(1, &[1])]], "channel weights");
        rejects(&[good.clone(), vec![tap(-1, &[1, 2, 3])]], "share");
        // Same taps in another order, and one tap short.
        let swapped = vec![tap(1, &[3, 4]), tap(-1, &[1, 2])];
        rejects(&[good.clone(), swapped], "share their tap shifts");
        rejects(
            &[good.clone(), good[..1].to_vec()],
            "share their tap shifts",
        );
        assert_eq!(
            stacked_conv(&server, &ct, &layout, &[good.clone(), good])
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn hybrid_shape_is_rows_deep_over_a_power_of_two_fold() {
        for (rows, cols, depth, folds) in [
            (10, 128, 16, vec![64, 32, 16]),
            (4, 16, 4, vec![8, 4]),
            (3, 12, 3, vec![6, 3]),
            (10, 100, 25, vec![50, 25]),
            (1, 8, 1, vec![4, 2, 1]),
            // Nothing to fold: square, or no even factor to spare.
            (8, 8, 8, vec![]),
            (5, 8, 8, vec![]),
            (3, 13, 13, vec![]),
            (1, 1, 1, vec![]),
        ] {
            assert_eq!(
                matvec_hybrid_shape(rows, cols),
                (depth, folds),
                "{rows}x{cols}"
            );
        }
        assert_eq!(matvec_rotation_steps(10, 128).len(), 18);
        assert_eq!(matvec_rotation_steps(8, 8), (1..8).collect::<Vec<i64>>());
    }

    /// A random `rows × cols` case: the shape list covers powers of two,
    /// 12 and 100 (an odd factor stops the fold early) and odd primes (no
    /// fold at all).
    fn random_shape(g: &mut choco_quickprop::Gen) -> (usize, usize) {
        const COLS: [usize; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 12, 100, 7, 13];
        let cols = COLS[g.usize_in(0, COLS.len())];
        (g.usize_in(1, cols + 1), cols)
    }

    #[test]
    fn hybrid_matvec_equals_the_plain_product_bfv() {
        let params = HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap();
        choco_quickprop::run_cases("hybrid matvec bfv", 16, |g| {
            let (rows, cols) = random_shape(g);
            let mut client = Client::<Bfv>::new(&params, &g.u64().to_le_bytes()).unwrap();
            // Exactly the kernel's own key set, nothing spare.
            let server = client
                .provision_server(&matvec_rotation_steps(rows, cols))
                .unwrap();
            let t = server.context().plain_modulus();
            let matrix: Vec<Vec<u64>> = (0..rows)
                .map(|_| (0..cols).map(|_| g.u64_below(t)).collect())
                .collect();
            let x: Vec<u64> = (0..cols).map(|_| g.u64_below(16)).collect();
            let ct = client
                .encrypt_slots(&replicate_for_matvec(&x, 512))
                .unwrap();
            let y = matvec_diagonals(&server, &ct, &matrix).unwrap();
            let got = client.decrypt_slots(&y).unwrap();
            let want = matrix.iter().map(|row| {
                let dot = row.iter().zip(&x).map(|(&m, &v)| m as u128 * v as u128);
                (dot.sum::<u128>() % t as u128) as u64
            });
            let (depth, _) = matvec_hybrid_shape(rows, cols);
            let padded: Vec<u64> = want.chain(std::iter::repeat(0)).take(depth).collect();
            assert_eq!(got[..depth], padded[..], "{rows}x{cols}");
        });
    }

    #[test]
    fn hybrid_matvec_equals_the_plain_product_ckks() {
        let params = HeParams::ckks_insecure(1024, &[45, 45, 45, 46], 38).unwrap();
        choco_quickprop::run_cases("hybrid matvec ckks", 8, |g| {
            let (rows, cols) = random_shape(g);
            let mut client = Client::<Ckks>::new(&params, &g.u64().to_le_bytes()).unwrap();
            let server = client
                .provision_server(&matvec_rotation_steps(rows, cols))
                .unwrap();
            let matrix: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..cols).map(|_| g.f64() * 2.0 - 1.0).collect())
                .collect();
            let x: Vec<f64> = (0..cols).map(|_| g.f64() * 2.0 - 1.0).collect();
            let ct = client
                .encrypt_values(&replicate_for_matvec(&x, 512))
                .unwrap();
            let y = matvec_diagonals(&server, &ct, &matrix).unwrap();
            let got = client.decrypt_values(&y).unwrap();
            for (i, row) in matrix.iter().enumerate() {
                let want: f64 = row.iter().zip(&x).map(|(m, v)| m * v).sum();
                assert!(
                    (got[i] - want).abs() < 1e-2,
                    "{rows}x{cols} row {i}: {} vs {want}",
                    got[i]
                );
            }
        });
    }

    #[test]
    fn matvec_rotation_steps_are_exactly_the_keys_the_kernel_uses() {
        // A folded shape and an unfolded one: the full list works (the
        // property tests above run on nothing else), and every single step
        // is load-bearing.
        for (rows, cols) in [(3usize, 12usize), (3, 5)] {
            let steps = matvec_rotation_steps(rows, cols);
            let matrix = vec![vec![1u64; cols]; rows];
            for removed in 0..steps.len() {
                let mut short = steps.clone();
                let step = short.remove(removed);
                let (mut client, server) = setup(&short);
                let ct = client
                    .encrypt_slots(&replicate_for_matvec(&vec![1u64; cols], 512))
                    .unwrap();
                assert!(
                    matches!(
                        matvec_diagonals(&server, &ct, &matrix),
                        Err(HeError::MissingGaloisKey(_))
                    ),
                    "{rows}x{cols} ran without step {step}"
                );
            }
        }
    }

    #[test]
    fn folded_fc_output_keeps_a_decryption_margin_at_set_b() {
        // The benchmark's FC: 10 × 128 at paper set B, where every fold
        // costs about a bit of a budget the conv layers already run down
        // to ~6. The three folds must leave the logits well clear of zero.
        let mut client = Client::<Bfv>::new(&HeParams::set_b(), b"fc budget").unwrap();
        let server = client
            .provision_server(&matvec_rotation_steps(10, 128))
            .unwrap();
        let t = server.context().plain_modulus();
        let mut rng = choco_prng::Blake3Rng::from_seed(b"fc budget inputs");
        let matrix: Vec<Vec<u64>> = (0..10)
            .map(|_| (0..128).map(|_| rng.next_below(16)).collect())
            .collect();
        for input in 0..8 {
            let x: Vec<u64> = (0..128).map(|_| rng.next_below(16)).collect();
            let ct = client
                .encrypt_slots(&replicate_for_matvec(&x, server.slot_width()))
                .unwrap();
            let y = matvec_diagonals(&server, &ct, &matrix).unwrap();
            let budget = client.noise_budget(&y);
            assert!(budget >= 4.0, "input {input}: {budget:.1} bits left");
            let got = client.decrypt_slots(&y).unwrap();
            for (i, row) in matrix.iter().enumerate() {
                let want: u64 = row.iter().zip(&x).map(|(m, v)| m * v).sum();
                assert_eq!(got[i], want % t, "input {input} row {i}");
            }
        }
    }
}
