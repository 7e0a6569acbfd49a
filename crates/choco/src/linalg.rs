//! Encrypted linear algebra: the diagonal matrix-vector product.
//!
//! [`matvec_diagonals`] multiplies a plaintext matrix into an encrypted
//! vector — fully-connected layers and PageRank-style iterations — generic
//! over the scheme (`u64` slots under BFV, `f64` under CKKS). It is
//! Gazelle's *hybrid* method: as many extended diagonals as the matrix has
//! rows (rounded up to a divisor of the column count), then a few
//! rotate-adds folding the partial sums — which for a square matrix is
//! exactly the Halevi–Shoup diagonal method, no folds.
//! [`matvec_rotation_steps`] is the Galois-key set that kernel needs,
//! derived from the shape the same way the kernel derives its rotations
//! ([`matvec_hybrid_shape`]). [`matvec_program`] is the same product as a
//! compiler-IR [`Program`], node for node: the form a session keeps
//! resident with its encoded diagonals, and the form `choco-verify` checks.
//! A conv layer's channel-diagonal packing (`choco_apps::dnn::ConvPacking`)
//! sums its channels with the same hybrid split.

use crate::compiler::{NodeId, Program};
use crate::protocol::Server;
use choco_he::{HeError, HeScheme};

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

/// Extended diagonal `d` of a `depth`-deep split, `len` slots long:
/// `M[i mod depth][(i + d) mod cols]` at slot `i < cols`, zero past `cols`
/// and where row `i mod depth` does not exist.
fn extended_diagonal<V: Copy + Default>(
    matrix: &[Vec<V>],
    depth: usize,
    d: usize,
    len: usize,
) -> Vec<V> {
    let cols = matrix.first().map_or(0, Vec::len);
    let mut diag = vec![V::default(); len];
    for (i, s) in diag.iter_mut().enumerate().take(cols) {
        let entry = matrix.get(i % depth).and_then(|r| r.get((i + d) % cols));
        *s = entry.copied().unwrap_or_default();
    }
    diag
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
        .map(|d| (d as i64, extended_diagonal(matrix, depth, d, width)))
        .collect();
    let mut acc = server.dot_diagonals(ct_x, &diagonals)?;
    for step in folds {
        acc = server.add(&acc, &server.rotate(&acc, step as i64)?)?;
    }
    Ok(acc)
}

/// [`matvec_diagonals`] as a compiler-IR program over the input `x` (the
/// vector packed by [`replicate_for_matvec`]), node for node: term `d <
/// depth` multiplies `x` — rotated by `d` when `d > 0` — by extended
/// diagonal `d` as a `cols`-slot constant, the terms are summed in order,
/// and each fold of [`matvec_hybrid_shape`] is one rotate-add; one output.
/// The executor runs the terms as one fused dot, so under BFV, compiled at
/// scale `2^0` over a matrix of integers below `t`, the program returns the
/// kernel's ciphertext byte for byte. Its rotations are
/// [`matvec_rotation_steps`]; `rows ≤ cols` is the caller's to keep, as
/// [`matvec_diagonals`] requires it. An empty matrix yields a program with
/// no output, which [`compile`](crate::compiler::compile) refuses.
pub fn matvec_program(matrix: &[Vec<f64>]) -> Program {
    let mut p = Program::new();
    let x = p.input("x");
    if let Some(y) = matvec_into(&mut p, x, matrix) {
        p.output(y);
    }
    p
}

/// Appends [`matvec_program`]'s nodes to `p` over the ciphertext node `x`
/// and returns the product's node — `None` for an empty matrix, which adds
/// nothing. For programs that compute past the product (PageRank's burst).
pub fn matvec_into(p: &mut Program, x: NodeId, matrix: &[Vec<f64>]) -> Option<NodeId> {
    let cols = matrix.first().map_or(0, Vec::len);
    let (depth, folds) = matvec_hybrid_shape(matrix.len(), cols);
    let mut acc = None;
    for d in 0..depth {
        let diagonal = p.constant(&extended_diagonal(matrix, depth, d, cols));
        let rotated = if d == 0 { x } else { p.rotate(x, d as i64) };
        let term = p.mul_plain(rotated, diagonal);
        acc = Some(acc.map_or(term, |a| p.add(a, term)));
    }
    let mut acc = acc?;
    for fold in folds {
        let rotated = p.rotate(acc, fold as i64);
        acc = p.add(acc, rotated);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerOptions, CompilerScheme};
    use crate::protocol::Client;
    use choco_he::bfv::Ciphertext;
    use choco_he::params::HeParams;
    use choco_he::{Bfv, Ckks};
    use std::collections::HashMap;

    fn setup(steps: &[i64]) -> (Client<Bfv>, Server<Bfv>) {
        let params = HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap();
        let mut client = Client::<Bfv>::new(&params, b"linalg").unwrap();
        let server = client.provision_server(steps).unwrap();
        (client, server)
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

    /// Provisions `client` for a `rows × cols` matvec, draws the matrix
    /// (entries `below(t)`) and an input (`below(16)`), and asserts that
    /// `matvec_program`, compiled at scale `2^0` and executed, returns
    /// `matvec_diagonals`' ciphertext byte for byte, once that is in the
    /// download form every program output takes (`CompilerScheme::download`).
    fn assert_program_is_the_kernel(
        client: &mut Client<Bfv>,
        (rows, cols): (usize, usize),
        below: &mut dyn FnMut(u64) -> u64,
    ) {
        let steps = matvec_rotation_steps(rows, cols);
        let server = client.provision_server(&steps).unwrap();
        let t = server.context().plain_modulus();
        let matrix: Vec<Vec<u64>> = (0..rows)
            .map(|_| (0..cols).map(|_| below(t)).collect())
            .collect();
        let x: Vec<u64> = (0..cols).map(|_| below(16)).collect();
        let packed = replicate_for_matvec(&x, server.slot_width());
        let ct = client.encrypt_slots(&packed).unwrap();
        let reals: Vec<Vec<f64>> = matrix
            .iter()
            .map(|row| row.iter().map(|&w| w as f64).collect())
            .collect();
        let opts = CompilerOptions {
            scale_bits: 0,
            prime_bits: 0,
            max_levels: 1,
        };
        let compiled = compile(&matvec_program(&reals), &opts).unwrap();
        let mut sorted = steps.clone();
        sorted.sort_unstable();
        assert_eq!(compiled.rotation_steps(), sorted);
        let inputs = HashMap::from([("x".to_string(), ct.clone())]);
        let (ctx, relin, galois) = (server.context(), server.relin_key(), server.galois_keys());
        let program = compiled
            .execute_encrypted::<Bfv>(ctx, &inputs, relin, galois)
            .unwrap();
        let kernel = matvec_diagonals(&server, &ct, &matrix).unwrap();
        let kernel = Bfv::download(ctx, &kernel).unwrap();
        let wire = |cts: &[Ciphertext]| cts.iter().map(Bfv::ct_to_wire).collect::<Vec<_>>();
        assert!(wire(&program) == wire(&[kernel]), "{rows}x{cols}");
    }

    #[test]
    fn matvec_program_is_the_kernel_byte_for_byte() {
        // Every shape `random_shape` draws, folded or not, at a 512-slot row.
        let params = HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap();
        choco_quickprop::run_cases("matvec program vs kernel", 16, |g| {
            let shape = random_shape(g);
            let mut client = Client::<Bfv>::new(&params, &g.u64().to_le_bytes()).unwrap();
            assert_program_is_the_kernel(&mut client, shape, &mut |n| g.u64_below(n));
        });
        // The benchmark's FC at paper set B: 16 diagonals, 3 folds.
        let mut client = Client::<Bfv>::new(&HeParams::set_b(), b"fc program").unwrap();
        let mut rng = choco_prng::Blake3Rng::from_seed(b"fc program inputs");
        assert_program_is_the_kernel(&mut client, (10, 128), &mut |n| rng.next_below(n));
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
            let budget = client.health(&y);
            assert!(budget >= 4.0, "input {input}: {budget:.1} bits left");
            let got = client.decrypt_slots(&y).unwrap();
            for (i, row) in matrix.iter().enumerate() {
                let want: u64 = row.iter().zip(&x).map(|(m, v)| m * v).sum();
                assert_eq!(got[i], want % t, "input {input} row {i}");
            }
        }
    }
}
