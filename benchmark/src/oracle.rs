//! The benchmark's own answers: a plaintext evaluator for compiler-IR
//! programs, independent of the program's executors, over each scheme's
//! slot domain (integers mod `t` for BFV, reals for CKKS).

use choco::compiler::{CompilerScheme, Op, Program};
use choco_he::{Bfv, Ckks};
use std::collections::HashMap;

/// Slot arithmetic of one scheme.
pub trait Ring {
    type V: Copy + Default;
    fn add(&self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(&self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(&self, a: Self::V, b: Self::V) -> Self::V;
}

/// Integers modulo the BFV plaintext modulus.
pub struct ModT(pub u64);

impl Ring for ModT {
    type V = u64;
    fn add(&self, a: u64, b: u64) -> u64 {
        ((a as u128 + b as u128) % self.0 as u128) as u64
    }
    fn sub(&self, a: u64, b: u64) -> u64 {
        ((a as u128 + self.0 as u128 - (b % self.0) as u128) % self.0 as u128) as u64
    }
    fn mul(&self, a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % self.0 as u128) as u64
    }
}

/// CKKS slots.
pub struct Reals;

impl Ring for Reals {
    type V = f64;
    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn sub(&self, a: f64, b: f64) -> f64 {
        a - b
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }
}

/// A scheme the benchmark can check answers for.
pub trait Checked: CompilerScheme {
    type R: Ring<V = Self::Value>;
    /// `|got - want|` allowed in any one slot (0 = exact).
    const SLOT_TOLERANCE: f64;
    /// Mean `|got - want|` allowed over all slots.
    const MEAN_TOLERANCE: f64;
    fn ring(ctx: &Self::Context) -> Self::R;
    fn abs_diff(a: Self::Value, b: Self::Value) -> f64;
}

impl Checked for Bfv {
    type R = ModT;
    const SLOT_TOLERANCE: f64 = 0.0;
    const MEAN_TOLERANCE: f64 = 0.0;
    fn ring(ctx: &Self::Context) -> ModT {
        ModT(ctx.plain_modulus())
    }
    fn abs_diff(a: u64, b: u64) -> f64 {
        a.abs_diff(b) as f64
    }
}

impl Checked for Ckks {
    type R = Reals;
    // Set C under the compiler's waterline policy leaves `conv_batched` a
    // 2^20 scale after its one rescale, and the two channel-fold rotations
    // key-switch at that scale. Measured against outputs of magnitude up to
    // 45: mean error 0.010 over the 4096 slots, with the same three slots
    // off by up to 1.31 on every op. The bounds below are 3-5x that; a wrong
    // input, rotation or mask moves the mean by more than 1.
    const SLOT_TOLERANCE: f64 = 4.0;
    const MEAN_TOLERANCE: f64 = 0.05;
    fn ring(_ctx: &Self::Context) -> Reals {
        Reals
    }
    fn abs_diff(a: f64, b: f64) -> f64 {
        (a - b).abs()
    }
}

/// Evaluates `program`'s first output on `width`-slot vectors. Rotation by
/// `s` reads slot `j + s` cyclically — one BFV row, or all CKKS slots.
/// Shorter inputs and constants are zero-padded, as the encoders pad them.
///
/// # Errors
///
/// A message naming the missing input or malformed node.
pub fn eval_program<R: Ring>(
    ring: &R,
    program: &Program,
    width: usize,
    inputs: &HashMap<String, Vec<R::V>>,
    constant: impl Fn(&[f64]) -> Vec<R::V>,
) -> Result<Vec<R::V>, String> {
    let pad = |mut v: Vec<R::V>| {
        v.resize(width, R::V::default());
        v
    };
    let mut vals: Vec<Vec<R::V>> = Vec::with_capacity(program.len());
    for (i, op) in program.ops().iter().enumerate() {
        let node = |id: &choco::compiler::NodeId| {
            vals.get(id.index())
                .ok_or_else(|| format!("node {i} references a later node"))
        };
        let zip = |a: &[R::V], b: &[R::V], f: &dyn Fn(R::V, R::V) -> R::V| -> Vec<R::V> {
            a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
        };
        let v = match op {
            Op::Input(name) => pad(inputs
                .get(name)
                .ok_or_else(|| format!("missing input {name}"))?
                .clone()),
            Op::Constant(c) => pad(constant(c)),
            Op::Add(a, b) => zip(node(a)?, node(b)?, &|x, y| ring.add(x, y)),
            Op::Sub(a, b) => zip(node(a)?, node(b)?, &|x, y| ring.sub(x, y)),
            Op::Mul(a, b) | Op::MulPlain(a, b) => zip(node(a)?, node(b)?, &|x, y| ring.mul(x, y)),
            Op::AddPlain(a, c) => zip(node(a)?, node(c)?, &|x, y| ring.add(x, y)),
            Op::Rotate(a, s) => {
                let src = node(a)?;
                (0..width)
                    .map(|j| src[(j as i64 + s).rem_euclid(width as i64) as usize])
                    .collect()
            }
            Op::Rescale(_) | Op::ModSwitch(_) => {
                return Err(format!(
                    "node {i}: compiler-inserted op in a source program"
                ))
            }
        };
        vals.push(v);
    }
    let out = program
        .output_ids()
        .first()
        .ok_or("program has no output")?;
    Ok(vals[out.index()].clone())
}

/// Whether `got` matches `want` under `S`'s two tolerances.
pub fn slots_match<S: Checked>(got: &[S::Value], want: &[S::Value]) -> bool {
    if got.len() < want.len() || want.is_empty() {
        return false;
    }
    let (mut worst, mut total) = (0.0f64, 0.0f64);
    for (&g, &w) in got.iter().zip(want) {
        let d = S::abs_diff(g, w);
        worst = worst.max(d);
        total += d;
    }
    // A NaN slot makes the mean NaN, and `NaN <= tol` is false.
    worst <= S::SLOT_TOLERANCE && total / want.len() as f64 <= S::MEAN_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_rotations_products_and_padding_mod_t() {
        let mut p = Program::new();
        let x = p.input("x");
        let c = p.constant(&[2.0, 3.0]);
        let r = p.rotate(x, 1);
        let m = p.mul_plain(r, c);
        let back = p.rotate(m, -1);
        let s = p.sub(back, x);
        let sq = p.mul(s, s);
        p.output(sq);
        let inputs = HashMap::from([("x".to_string(), vec![1u64, 2, 3, 4])]);
        let out = eval_program(&ModT(7), &p, 4, &inputs, |c| {
            c.iter().map(|&v| v as u64).collect()
        })
        .unwrap();
        // rot(x,1) = [2,3,4,1]; ·[2,3,0,0] = [4,9,0,0] = [4,2,0,0] mod 7;
        // rot(-1) = [0,4,2,0]; − x = [-1,2,-1,-4] = [6,2,6,3]; squared mod 7.
        assert_eq!(out, vec![1, 4, 1, 2]);
    }

    #[test]
    fn slots_match_is_exact_for_bfv_and_bounded_for_ckks() {
        assert!(slots_match::<Bfv>(&[1, 2, 3], &[1, 2, 3]));
        assert!(!slots_match::<Bfv>(&[1, 2, 4], &[1, 2, 3]));
        assert!(!slots_match::<Bfv>(&[1, 2], &[1, 2, 3]));
        let want = vec![10.0; 100];
        let mut got = want.clone();
        got[0] += 1.3; // one slot inside the slot bound, mean 0.013
        assert!(slots_match::<Ckks>(&got, &want));
        got[0] = 15.0; // beyond the slot bound
        assert!(!slots_match::<Ckks>(&got, &want));
        let drift: Vec<f64> = want.iter().map(|w| w + 0.1).collect();
        assert!(!slots_match::<Ckks>(&drift, &want), "mean bound");
        got[0] = f64::NAN;
        assert!(!slots_match::<Ckks>(&got, &want));
    }

    #[test]
    fn missing_input_is_an_error() {
        let mut p = Program::new();
        let x = p.input("x");
        p.output(x);
        assert!(eval_program(&Reals, &p, 4, &HashMap::new(), |c| c.to_vec()).is_err());
    }
}
