//! Rotational redundancy: the paper's windowed-rotation algorithm (§3.3).
//!
//! A *windowed rotation* cyclically rotates the elements of a sub-range of a
//! vector. Standard HE can only rotate whole ciphertexts, so prior work
//! (Gazelle/HElib-style) synthesizes windowed rotations from two full
//! rotations, two masking multiplies, and an addition (Figure 4A) — and each
//! masking multiply is a plaintext multiplication that consumes
//! `≈ log2(t·√2N)` bits of noise budget (Table 4).
//!
//! Rotational redundancy (Figure 4B) instead packs the window with its
//! wrap-around values replicated on both sides **before encryption**. Any
//! windowed rotation by up to the redundancy amount then becomes a *single*
//! plain ciphertext rotation, whose noise cost is a couple of bits. The
//! client discards the redundant slots when it unpacks.
//!
//! Both the redundant path and the masked baseline are implemented here and
//! verified against each other; Table 4's bench contrasts their noise
//! behaviour.

use choco_he::bfv::{BfvContext, Ciphertext};
use choco_he::rlwe::GaloisKeys;
use choco_he::HeError;

/// A packing of a `window`-element vector with `redundancy` wrap-around
/// entries replicated on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundantLayout {
    window: usize,
    redundancy: usize,
}

impl RedundantLayout {
    /// Creates a layout for `window` values supporting rotations up to
    /// `±redundancy`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `redundancy > window` (wrapping more than
    /// a full window is never needed: rotations are modulo the window).
    pub fn new(window: usize, redundancy: usize) -> Self {
        assert!(window > 0, "window must be nonempty");
        assert!(
            redundancy <= window,
            "redundancy beyond one window is redundant"
        );
        RedundantLayout { window, redundancy }
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Redundancy `R` (maximum supported windowed-rotation distance).
    pub fn redundancy(&self) -> usize {
        self.redundancy
    }

    /// Total packed length `W + 2R`.
    pub fn packed_len(&self) -> usize {
        self.window + 2 * self.redundancy
    }

    /// Slot offset where the window of interest starts.
    pub fn window_offset(&self) -> usize {
        self.redundancy
    }

    /// Utilization: fraction of packed slots that carry unique values.
    pub fn utilization(&self) -> f64 {
        self.window as f64 / self.packed_len() as f64
    }

    /// Packs `values` (length `W`) into a `W + 2R` slot vector:
    /// `[v_{W−R}…v_{W−1} | v_0…v_{W−1} | v_0…v_{R−1}]`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != window`.
    pub fn pack(&self, values: &[u64]) -> Vec<u64> {
        assert_eq!(values.len(), self.window, "value count must equal window");
        let mut out = Vec::with_capacity(self.packed_len());
        out.extend_from_slice(&values[self.window - self.redundancy..]);
        out.extend_from_slice(values);
        out.extend_from_slice(&values[..self.redundancy]);
        out
    }

    /// Reads the window of interest back out of a packed slot vector.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is shorter than the packed length.
    pub fn extract(&self, slots: &[u64]) -> Vec<u64> {
        assert!(slots.len() >= self.packed_len(), "slot vector too short");
        slots[self.redundancy..self.redundancy + self.window].to_vec()
    }

    /// The plaintext-side reference result: `values` rotated left by `r`
    /// within the window (negative `r` rotates right).
    pub fn reference_rotate(&self, values: &[u64], r: i64) -> Vec<u64> {
        let w = self.window as i64;
        (0..w)
            .map(|j| values[((j + r).rem_euclid(w)) as usize])
            .collect()
    }
}

/// Performs a windowed rotation on a ciphertext packed with rotational
/// redundancy: a single row rotation (Figure 4B).
///
/// The rotation distance `r` is positive-left / negative-right and must not
/// exceed the layout's redundancy.
///
/// # Errors
///
/// Propagates missing-Galois-key and ciphertext-shape errors.
///
/// # Panics
///
/// Panics if `|r|` exceeds the layout redundancy.
pub fn windowed_rotate_redundant(
    ctx: &BfvContext,
    ct: &Ciphertext,
    layout: &RedundantLayout,
    r: i64,
    gks: &GaloisKeys,
) -> Result<Ciphertext, HeError> {
    assert!(
        r.unsigned_abs() as usize <= layout.redundancy(),
        "rotation {r} exceeds redundancy {}",
        layout.redundancy()
    );
    if r == 0 {
        return Ok(ct.clone());
    }
    ctx.evaluator().rotate_rows(ct, r, gks)
}

/// Performs a windowed rotation via the arbitrary-permutation baseline
/// (Figure 4A): rotate + mask, counter-rotate + mask, add.
///
/// The ciphertext must hold the window's values in slots `[0, W)` with
/// anything elsewhere; slots outside the window are zeroed in the result.
///
/// # Errors
///
/// Propagates rotation/encoding errors.
///
/// # Panics
///
/// Panics if `r` is not in `(0, W)` (use the redundant path for `r == 0`).
pub fn windowed_rotate_masked(
    ctx: &BfvContext,
    ct: &Ciphertext,
    window: usize,
    r: usize,
    gks: &GaloisKeys,
) -> Result<Ciphertext, HeError> {
    assert!(r > 0 && r < window, "masked rotation needs 0 < r < window");
    let encoder = ctx.batch_encoder()?;
    let eval = ctx.evaluator();
    let row = ctx.degree() / 2;
    assert!(window <= row, "window exceeds row size");

    // Part 1: values that stay in range after rotating left by r.
    let rot1 = eval.rotate_rows(ct, r as i64, gks)?;
    let mut mask1 = vec![0u64; row];
    for slot in mask1.iter_mut().take(window - r) {
        *slot = 1;
    }
    let m1 = encoder.encode(&mask1)?;
    let part1 = eval.multiply_plain(&rot1, &m1);

    // Part 2: wrap-around values, brought in by rotating right by W − r.
    let rot2 = eval.rotate_rows(ct, -((window - r) as i64), gks)?;
    let mut mask2 = vec![0u64; row];
    for slot in mask2.iter_mut().skip(window - r).take(r) {
        *slot = 1;
    }
    let m2 = encoder.encode(&mask2)?;
    let part2 = eval.multiply_plain(&rot2, &m2);

    eval.add(&part1, &part2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_he::params::HeParams;
    use choco_prng::Blake3Rng;

    fn setup() -> (BfvContext, choco_he::rlwe::KeyBundle, GaloisKeys, Blake3Rng) {
        let params = HeParams::bfv_insecure(1024, &[40, 40, 41], 17).unwrap();
        let ctx = BfvContext::new(&params).unwrap();
        let mut rng = Blake3Rng::from_seed(b"rotation tests");
        let keys = ctx.keygen(&mut rng);
        let gks = ctx
            .galois_keys(
                keys.secret_key(),
                &[1, 2, 3, 4, -1, -2, -3, -4, -12, -13, -14, -15],
                &mut rng,
            )
            .unwrap();
        (ctx, keys, gks, rng)
    }

    #[test]
    fn pack_matches_figure_4b() {
        let layout = RedundantLayout::new(4, 2);
        assert_eq!(layout.pack(&[1, 2, 3, 4]), vec![3, 4, 1, 2, 3, 4, 1, 2]);
        assert_eq!(layout.packed_len(), 8);
        assert_eq!(layout.window_offset(), 2);
        assert!((layout.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pack_extract_roundtrip() {
        let layout = RedundantLayout::new(7, 3);
        let values: Vec<u64> = (10..17).collect();
        let packed = layout.pack(&values);
        assert_eq!(layout.extract(&packed), values);
    }

    #[test]
    fn reference_rotation_wraps_both_ways() {
        let layout = RedundantLayout::new(4, 2);
        let v = [1u64, 2, 3, 4];
        assert_eq!(layout.reference_rotate(&v, 1), vec![2, 3, 4, 1]);
        assert_eq!(layout.reference_rotate(&v, -1), vec![4, 1, 2, 3]);
        assert_eq!(layout.reference_rotate(&v, 0), vec![1, 2, 3, 4]);
    }

    #[test]
    fn redundant_rotation_equals_reference() {
        let (ctx, keys, gks, mut rng) = setup();
        let encoder = ctx.batch_encoder().unwrap();
        let layout = RedundantLayout::new(16, 4);
        let values: Vec<u64> = (1..=16).collect();
        let packed = layout.pack(&values);
        let pt = encoder.encode(&packed).unwrap();
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        for r in [1i64, 3, -2, -4] {
            let rotated = windowed_rotate_redundant(&ctx, &ct, &layout, r, &gks).unwrap();
            let slots = encoder
                .decode(&ctx.decryptor(keys.secret_key()).decrypt(&rotated))
                .unwrap();
            assert_eq!(
                layout.extract(&slots),
                layout.reference_rotate(&values, r),
                "rotation by {r}"
            );
        }
    }

    #[test]
    fn masked_rotation_equals_reference() {
        let (ctx, keys, gks, mut rng) = setup();
        let encoder = ctx.batch_encoder().unwrap();
        let window = 16usize;
        let values: Vec<u64> = (1..=16).collect();
        let pt = encoder.encode(&values).unwrap();
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let layout = RedundantLayout::new(window, window);
        for r in [1usize, 3, 4] {
            let rotated = windowed_rotate_masked(&ctx, &ct, window, r, &gks).unwrap();
            let slots = encoder
                .decode(&ctx.decryptor(keys.secret_key()).decrypt(&rotated))
                .unwrap();
            assert_eq!(
                &slots[..window],
                &layout.reference_rotate(&values, r as i64)[..],
                "masked rotation by {r}"
            );
        }
    }

    #[test]
    fn redundant_path_preserves_noise_budget_vs_masked() {
        // The paper's Table 4 claim in miniature: one redundant windowed
        // rotation costs a few bits; the masked baseline costs tens. Like
        // Table 4, it starts from Eq. 2 encryptions.
        let (ctx, keys, gks, mut rng) = setup();
        let pk = ctx.public_key(keys.secret_key(), &mut rng);
        let encoder = ctx.batch_encoder().unwrap();
        let dec = ctx.decryptor(keys.secret_key());
        let layout = RedundantLayout::new(16, 4);
        let values: Vec<u64> = (1..=16).collect();

        let packed_pt = encoder.encode(&layout.pack(&values)).unwrap();
        let ct_red = ctx.encryptor(&pk).encrypt(&packed_pt, &mut rng);
        let fresh = dec.invariant_noise_budget(&ct_red);

        let red = windowed_rotate_redundant(&ctx, &ct_red, &layout, 3, &gks).unwrap();
        let after_red = dec.invariant_noise_budget(&red);

        let plain_pt = encoder.encode(&values).unwrap();
        let ct_mask = ctx.encryptor(&pk).encrypt(&plain_pt, &mut rng);
        let masked = windowed_rotate_masked(&ctx, &ct_mask, 16, 3, &gks).unwrap();
        let after_mask = dec.invariant_noise_budget(&masked);

        let red_cost = fresh - after_red;
        let mask_cost = fresh - after_mask;
        assert!(red_cost < 10.0, "redundant rotation cost {red_cost} bits");
        assert!(
            mask_cost > red_cost + 8.0,
            "masked permute should cost much more: {mask_cost} vs {red_cost}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds redundancy")]
    fn redundant_rotation_rejects_overlong_step() {
        let (ctx, keys, gks, mut rng) = setup();
        let encoder = ctx.batch_encoder().unwrap();
        let layout = RedundantLayout::new(8, 2);
        let pt = encoder
            .encode(&layout.pack(&[1, 2, 3, 4, 5, 6, 7, 8]))
            .unwrap();
        let ct = ctx.encrypt_symmetric(&pt, keys.secret_key(), &mut rng);
        let _ = windowed_rotate_redundant(&ctx, &ct, &layout, 3, &gks);
    }

    #[test]
    #[should_panic(expected = "redundancy beyond one window")]
    fn layout_rejects_excess_redundancy() {
        RedundantLayout::new(4, 5);
    }
}
