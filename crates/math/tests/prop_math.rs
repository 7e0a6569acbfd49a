//! Property-based tests for the arithmetic substrate (deterministic
//! quickprop harness; each property runs seeded random cases).

use choco_math::bigint::{limbs_log2, limbs_to_f64, UBig};
use choco_math::modops::{
    add_mod, center, inv_mod, mul_mod, pow_mod, reduce_signed, sub_mod, Barrett,
};
use choco_math::ntt::{apply_galois_ntt, galois_ntt_permutation, NttTable};
use choco_math::par;
use choco_math::poly::apply_galois;
use choco_math::prime::generate_ntt_primes;
use choco_math::rns::{BaseConverter, RnsBasis};
use choco_math::simd::NttKernel;
use choco_quickprop::run_cases;
use std::sync::Arc;

const Q: u64 = 1_152_921_504_606_830_593; // 60-bit prime

#[test]
fn modops_match_u128_semantics() {
    run_cases("modops match u128", 256, |g| {
        let (a, b) = (g.u64_below(Q), g.u64_below(Q));
        assert_eq!(
            add_mod(a, b, Q) as u128,
            (a as u128 + b as u128) % Q as u128
        );
        assert_eq!(
            mul_mod(a, b, Q) as u128,
            (a as u128 * b as u128) % Q as u128
        );
        assert_eq!(
            sub_mod(a, b, Q) as u128,
            (a as u128 + Q as u128 - b as u128) % Q as u128
        );
    });
}

#[test]
fn modular_inverse_is_inverse() {
    run_cases("inverse is inverse", 256, |g| {
        let a = g.u64_in(1, Q);
        let inv = inv_mod(a, Q);
        assert_eq!(mul_mod(a, inv, Q), 1);
    });
}

#[test]
fn pow_satisfies_exponent_addition() {
    run_cases("pow exponent addition", 128, |g| {
        let base = g.u64_in(1, Q);
        let e1 = g.u64_below(1000);
        let e2 = g.u64_below(1000);
        let lhs = pow_mod(base, e1 + e2, Q);
        let rhs = mul_mod(pow_mod(base, e1, Q), pow_mod(base, e2, Q), Q);
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn center_roundtrips() {
    run_cases("center roundtrip", 256, |g| {
        let a = g.u64_below(Q);
        let c = center(a, Q);
        let back = c.rem_euclid(Q as i64) as u64;
        assert_eq!(back, a);
        assert!(c.unsigned_abs() <= Q / 2 + 1);
    });
}

#[test]
fn ubig_add_sub_roundtrip() {
    run_cases("ubig add/sub roundtrip", 256, |g| {
        let x = UBig::from_limbs(&g.array_u64::<4>());
        let y = UBig::from_limbs(&g.array_u64::<3>());
        let sum = x.add(&y);
        assert_eq!(sum.sub(&y), x);
    });
}

#[test]
fn ubig_mul_matches_u128() {
    run_cases("ubig mul vs u128", 256, |g| {
        let (a, b) = (g.u64(), g.u64());
        let prod = UBig::from_u64(a).mul(&UBig::from_u64(b));
        assert_eq!(prod, UBig::from_u128(a as u128 * b as u128));
    });
}

#[test]
fn ubig_divrem_reconstructs() {
    run_cases("ubig divrem reconstructs", 256, |g| {
        let x = UBig::from_limbs(&g.array_u64::<5>());
        let y = UBig::from_limbs(&g.array_u64::<2>());
        if y.is_zero() {
            return; // discard the (astronomically rare) zero divisor
        }
        let (q, r) = x.divrem(&y);
        assert!(r < y);
        assert_eq!(q.mul(&y).add(&r), x);
    });
}

#[test]
fn ubig_shift_roundtrip() {
    run_cases("ubig shift roundtrip", 256, |g| {
        let x = UBig::from_limbs(&g.array_u64::<3>());
        let s = g.u64_below(130) as u32;
        assert_eq!(x.shl(s).shr(s), x);
    });
}

#[test]
fn ubig_mul_distributes() {
    run_cases("ubig mul distributes", 128, |g| {
        let x = UBig::from_limbs(&g.array_u64::<2>());
        let y = UBig::from_limbs(&g.array_u64::<2>());
        let z = UBig::from_limbs(&g.array_u64::<2>());
        assert_eq!(x.add(&y).mul(&z), x.mul(&z).add(&y.mul(&z)));
    });
}

#[test]
fn ntt_roundtrip_random_polys() {
    run_cases("ntt roundtrip", 16, |g| {
        let n = 256usize;
        let q = generate_ntt_primes(45, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let seed = g.u64();
        let orig: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(seed | 1)) % q)
            .collect();
        let mut a = orig.clone();
        table.forward(&mut a);
        table.inverse(&mut a);
        assert_eq!(a, orig);
    });
}

#[test]
fn ntt_mul_commutes() {
    run_cases("ntt mul commutes", 16, |g| {
        let n = 128usize;
        let q = generate_ntt_primes(45, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let seed = g.u64();
        let a: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(seed | 1)) % q)
            .collect();
        let b: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_add(seed >> 3)) % q)
            .collect();
        assert_eq!(table.negacyclic_mul(&a, &b), table.negacyclic_mul(&b, &a));
    });
}

#[test]
fn lazy_ntt_matches_strict_on_random_polys() {
    run_cases("lazy ntt matches strict", 24, |g| {
        let n = 1usize << g.usize_in(5, 10); // 32..512
        let bits = g.u64_in(30, 61) as u32;
        let q = generate_ntt_primes(bits, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let orig = g.vec_u64_below(n, q);

        let mut lazy = orig.clone();
        let mut strict = orig.clone();
        table.forward(&mut lazy);
        table.forward_strict(&mut strict);
        assert_eq!(lazy, strict, "forward diverged (n={n}, q={q})");

        table.inverse(&mut lazy);
        table.inverse_strict(&mut strict);
        assert_eq!(lazy, strict, "inverse diverged (n={n}, q={q})");
        assert_eq!(lazy, orig, "roundtrip lost data (n={n}, q={q})");
    });
}

#[test]
fn galois_ntt_permutation_matches_coefficient_automorphism() {
    run_cases("galois ntt permutation", 24, |g| {
        let n = 1usize << g.usize_in(4, 9); // 16..256
        let q = generate_ntt_primes(45, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let e = 2 * g.u64_below(n as u64) + 1; // odd element in [1, 2n)
        let a = g.vec_u64_below(n, q);

        // Coefficient-domain automorphism, then NTT.
        let mut coeff = vec![0u64; n];
        apply_galois(&a, e, q, &mut coeff);
        table.forward(&mut coeff);

        // NTT, then the pure evaluation-domain permutation.
        let mut ntt = a.clone();
        table.forward(&mut ntt);
        let perm = galois_ntt_permutation(n, e);
        let mut permuted = vec![0u64; n];
        apply_galois_ntt(&ntt, &perm, &mut permuted);

        assert_eq!(coeff, permuted, "galois mismatch (n={n}, e={e})");
    });
}

#[test]
fn parallel_primitives_match_sequential_at_any_thread_count() {
    // The workspace invariant: results are bit-identical no matter how many
    // worker threads run, because each worker owns a contiguous chunk.
    run_cases("parallel matches sequential", 12, |g| {
        let len = g.usize_in(1, 300);
        let q = 1_152_921_504_606_830_593u64;
        let data = g.vec_u64_below(len, q);

        let expect_map: Vec<u64> = data.iter().map(|&x| mul_mod(x, x, q)).collect();
        let mut expect_each = data.clone();
        for (i, v) in expect_each.iter_mut().enumerate() {
            *v = add_mod(*v, i as u64 % q, q);
        }

        for threads in [1usize, 2, par::num_threads().max(2)] {
            par::set_num_threads(threads);
            let mapped = par::par_map_range(len, |i| mul_mod(data[i], data[i], q));
            assert_eq!(mapped, expect_map, "par_map_range at {threads} threads");
            let mut each = data.clone();
            par::par_for_each_mut(&mut each, |i, v| *v = add_mod(*v, i as u64 % q, q));
            assert_eq!(each, expect_each, "par_for_each_mut at {threads} threads");
        }
        par::set_num_threads(0); // restore the environment default
    });
}

#[test]
fn rns_compose_decompose_roundtrip() {
    run_cases("rns compose/decompose", 16, |g| {
        let n = 64usize;
        let primes = generate_ntt_primes(50, n, 3);
        let basis = RnsBasis::new(n, &primes).unwrap();
        let x = UBig::from_limbs(&g.array_u64::<2>());
        if x >= *basis.modulus() {
            return; // discard values outside the RNS range
        }
        let residues = basis.decompose(&x);
        assert_eq!(basis.compose(&residues), x);
    });
}

#[test]
fn rns_compose_is_additive() {
    run_cases("rns compose additive", 16, |g| {
        let n = 64usize;
        let primes = generate_ntt_primes(50, n, 2);
        let basis = RnsBasis::new(n, &primes).unwrap();
        let (a, b) = (g.u64(), g.u64());
        let ra = basis.decompose(&UBig::from_u64(a));
        let rb = basis.decompose(&UBig::from_u64(b));
        let sum: Vec<u64> = ra
            .iter()
            .zip(&rb)
            .zip(basis.primes())
            .map(|((&x, &y), &q)| add_mod(x % q, y % q, q))
            .collect();
        let composed = basis.compose(&sum);
        let expect = UBig::from_u128(a as u128 + b as u128)
            .divrem(basis.modulus())
            .1;
        assert_eq!(composed, expect);
    });
}

#[test]
fn limb_composition_matches_big_integer_composition() {
    // 1–5 primes of 30–61 bits; random residues (some unreduced) and the
    // values where reduction and centering turn: 0, q − 1, ⌊q/2⌋, ⌊q/2⌋ + 1.
    run_cases("limb composition vs UBig", 48, |g| {
        let n = 64usize;
        let bits = g.u64_in(30, 62) as u32;
        let k = g.usize_in(1, 6);
        let basis = RnsBasis::new(n, &generate_ntt_primes(bits, n, k)).unwrap();
        let modulus = basis.modulus();
        let half = modulus.shr(1);
        let mut cases: Vec<Vec<u64>> = [
            UBig::zero(),
            modulus.sub(&UBig::one()),
            half.clone(),
            half.add_u64(1),
        ]
        .iter()
        .map(|v| basis.decompose(v))
        .collect();
        cases.push(basis.primes().iter().map(|&q| g.u64_below(q)).collect());
        cases.push(basis.primes().iter().map(|_| g.u64()).collect());
        let mut limbs = vec![0u64; basis.compose_width()];
        for residues in cases {
            let (mag, neg) = basis.compose_centered(&residues);
            let got_neg = basis.compose_centered_into(residues.iter().copied(), &mut limbs);
            let ctx = format!("{k} primes of {bits} bits, residues {residues:?}");
            assert_eq!(got_neg, neg, "sign: {ctx}");
            let mut want = mag.limbs().to_vec();
            want.resize(limbs.len(), 0);
            assert_eq!(limbs, want, "limbs: {ctx}");
            assert_eq!(
                limbs_to_f64(&limbs).to_bits(),
                mag.to_f64().to_bits(),
                "{ctx}"
            );
            assert_eq!(limbs_log2(&limbs).to_bits(), mag.log2().to_bits(), "{ctx}");
        }
    });
}

/// The (source, target) shapes of the base-conversion oracle tests: the ring
/// degree, a source basis of `k` primes and `k2` target moduli disjoint from
/// it — the BFV lift (2→5) and scale-back (5→2) of set A, decryption's
/// q→{t} (2→1, a 23-bit target), and the extremes on either side.
fn converter_shapes() -> Vec<(Arc<RnsBasis>, Vec<u64>)> {
    let n = 64usize;
    [
        (2usize, 5usize, 59u32),
        (5, 2, 55),
        (2, 1, 23),
        (3, 7, 61),
        (1, 3, 40),
    ]
    .into_iter()
    .map(|(k, k2, target_bits)| {
        let source_bits = if target_bits == 59 { 55 } else { 59 };
        let from = RnsBasis::new(n, &generate_ntt_primes(source_bits, n, k)).unwrap();
        (Arc::new(from), generate_ntt_primes(target_bits, n, k2))
    })
    .collect()
}

/// The oracle: big-integer centered composition and signed reduction of
/// every coefficient.
fn convert_by_composition(from: &RnsBasis, to: &[u64], src: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); to.len()];
    for c in 0..src[0].len() {
        let residues: Vec<u64> = src.iter().map(|row| row[c]).collect();
        let (mag, neg) = from.compose_centered(&residues);
        for (row, &b) in out.iter_mut().zip(to) {
            let r = mag.rem_u64(b);
            row.push(if neg && r != 0 { b - r } else { r });
        }
    }
    out
}

/// Rows of residues for the given integers (one coefficient each).
fn residue_rows(from: &RnsBasis, values: &[UBig]) -> Vec<Vec<u64>> {
    let mut rows = vec![Vec::new(); from.len()];
    for v in values {
        for (row, r) in rows.iter_mut().zip(from.decompose(v)) {
            row.push(r);
        }
    }
    rows
}

#[test]
fn base_conversion_matches_big_integer_composition_on_random_residues() {
    let shapes = converter_shapes();
    run_cases("base conversion vs composition", 8, |g| {
        for (from, to) in &shapes {
            let conv = BaseConverter::new(from.clone(), to);
            let n = from.degree();
            let src: Vec<Vec<u64>> = from
                .primes()
                .iter()
                .map(|&a| g.vec_u64_below(n, a))
                .collect();
            let mut dst = vec![vec![0u64; n]; to.len()];
            let fallbacks = conv.convert_centered(&src, &mut dst);
            let shape = format!("{} -> {}", from.len(), to.len());
            assert_eq!(dst, convert_by_composition(from, to, &src), "{shape}");
            // ~k·2^-62 of uniform coefficients are ambiguous: none here.
            assert_eq!(fallbacks, 0, "{shape}");
        }
    });
}

#[test]
fn base_conversion_is_exact_at_the_centering_boundary() {
    for (from, to) in &converter_shapes() {
        let conv = BaseConverter::new(from.clone(), to);
        let shape = format!("{} -> {}", from.len(), to.len());
        let modulus = from.modulus();
        let half = modulus.shr(1); // ⌊A/2⌋, the largest positive value
        let ends = [
            UBig::zero(),
            UBig::one(),
            half.clone(),              // +⌊A/2⌋
            half.add_u64(1),           // −⌊A/2⌋
            modulus.sub(&UBig::one()), // −1
        ];
        // Values whose distance below A/2 is under 2^-64·A: the fixed-point
        // sum cannot tell which side they are on, so each must be flagged.
        // (Under one prime no integer is that close: ⌊A/2⌋/A is 1/(2A) >
        // 2^-62 short of 1/2, and the fast path alone gets it right.)
        let flagged = if modulus.bit_len() > 70 {
            let below = [UBig::zero(), UBig::one(), modulus.shr(66)];
            below.iter().map(|d| half.sub(d)).collect()
        } else {
            Vec::new()
        };
        // Within 2^-60·A on either side: flagged or not, still exact.
        let mut near = Vec::new();
        for shift in [60, 61, 63, 64, 70] {
            let d = modulus.shr(shift);
            near.push(half.sub(&d));
            near.push(half.add_u64(1).add(&d));
        }
        let exact = |values: &[UBig]| {
            let src = residue_rows(from, values);
            let mut dst = vec![vec![0u64; values.len()]; to.len()];
            let fallbacks = conv.convert_centered(&src, &mut dst);
            assert_eq!(dst, convert_by_composition(from, to, &src), "{shape}");
            fallbacks
        };
        exact(&ends);
        exact(&near);
        assert_eq!(
            exact(&flagged),
            flagged.len(),
            "{shape}: fallback not taken"
        );
        // Mixed into an otherwise ordinary polynomial, only the flagged
        // coefficients take the fallback.
        let mut mixed = vec![UBig::zero(), modulus.sub(&UBig::one())];
        mixed.extend(flagged.iter().cloned());
        // Odd multiples of ⌊A/128⌋: spread over the range, never near A/2.
        mixed.extend((0..50u64).map(|i| modulus.shr(7).mul_u64(2 * i + 1)));
        assert_eq!(exact(&mixed), flagged.len(), "{shape}");
    }
}

/// Moduli sizes matched to the bench suite's parameter sets, plus the
/// 61-bit ceiling (`q` just below `2^61`, the lazy-reduction limit).
const SIMD_MOD_BITS: [u32; 6] = [30, 45, 55, 58, 60, 61];

/// Whether this CPU runs the kernel `NttTable::forward_with` offers
/// for `kernel`, so that a kernel that declines where it should run fails
/// the test instead of going untested.
fn cpu_runs(kernel: NttKernel, n: usize, q: u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    let (avx2, ifma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, ifma) = (false, false);
    match kernel {
        NttKernel::Scalar => true,
        NttKernel::Avx2 => avx2 && n >= 8,
        NttKernel::Ifma => ifma && n >= 16 && q < choco_math::simd::IFMA_MODULUS_BOUND,
    }
}

#[test]
fn dispatched_ntt_bit_identical_to_scalar_and_strict() {
    // Each kernel, called directly, and the table's own choice must agree
    // bit for bit with the fully-reduced strict references, whatever
    // `CHOCO_SIMD` selected for this process (ci.sh runs this suite under
    // CHOCO_SIMD=0 and =1 × CHOCO_THREADS=1/4), from the smallest vector
    // size to twice the largest ring, on random inputs and on the
    // all-(q − 1) input that maximizes every lazy intermediate. The moduli
    // cover the paper's small primes (set B's 36 and 37 bits, plain moduli
    // of 20 bits), the largest NTT prime below 2^50 (the IFMA bound), and
    // the wide primes up to the 61-bit lazy-reduction ceiling.
    let mut tables = Vec::new();
    for log_n in 3..=15 {
        let n = 1usize << log_n;
        for bits in [20, 30, 36, 37, 45, 50, 55, 58, 60, 61] {
            let q = generate_ntt_primes(bits, n, 1)[0];
            tables.push(NttTable::new(n, q).unwrap());
        }
    }
    let kernels = [NttKernel::Scalar, NttKernel::Avx2, NttKernel::Ifma];
    run_cases("ntt kernels bit identity", 2, |g| {
        for t in &tables {
            let (n, q) = (t.size(), t.modulus());
            let random: Vec<u64> = (0..n).map(|_| g.u64_below(q)).collect();
            for (input, a) in [("random", random), ("all q-1", vec![q - 1; n])] {
                let ctx = format!("n={n}, q={q} ({} bits), {input}", 64 - q.leading_zeros());
                let mut fwd_strict = a.clone();
                t.forward_strict(&mut fwd_strict);
                let mut inv_strict = a.clone();
                t.inverse_strict(&mut inv_strict);
                for kernel in kernels {
                    let mut fwd = a.clone();
                    let ran = t.forward_with(kernel, &mut fwd);
                    assert_eq!(ran, cpu_runs(kernel, n, q), "{kernel:?} forward ran: {ctx}");
                    let mut inv = a.clone();
                    assert_eq!(t.inverse_with(kernel, &mut inv), ran, "{kernel:?}: {ctx}");
                    if ran {
                        assert_eq!(fwd, fwd_strict, "{kernel:?} forward != strict: {ctx}");
                        assert_eq!(inv, inv_strict, "{kernel:?} inverse != strict: {ctx}");
                    } else {
                        assert_eq!((&fwd, &inv), (&a, &a), "{kernel:?} declined: {ctx}");
                    }
                }

                let mut fwd = a.clone();
                t.forward(&mut fwd);
                assert_eq!(fwd, fwd_strict, "dispatched forward != strict: {ctx}");
                let mut inv = a.clone();
                t.inverse(&mut inv);
                assert_eq!(inv, inv_strict, "dispatched inverse != strict: {ctx}");
                t.inverse(&mut fwd);
                assert_eq!(fwd, a, "roundtrip != identity: {ctx}");
            }
        }
    });
}

#[test]
fn barrett_reducer_matches_remainder() {
    // Random moduli of every width from 2 to 61 bits, the BFV plain moduli
    // (17- to 24-bit primes ≡ 1 mod 2N), and the edge inputs: 0, q − 1,
    // q, multiples of q, the 32-term accumulator bound 32·(q − 1)², and
    // values around 2^127 and 2^128.
    let plain: Vec<u64> = (17..=24)
        .map(|bits| generate_ntt_primes(bits, 4096, 1)[0])
        .collect();
    run_cases("barrett matches %", 64, |g| {
        let bits = g.u64_in(2, 62) as u32;
        let random = g.u64_in(1 << (bits - 1), 1 << bits);
        for q in [random, plain[g.usize_in(0, plain.len())]] {
            let r = Barrett::new(q);
            let wide = q as u128;
            let k = g.u64() as u128;
            let edges = [
                0,
                wide - 1,
                wide,
                k * wide,
                32 * (wide - 1) * (wide - 1),
                (1 << 127) - 1,
                1 << 127,
                (1 << 127) + g.u64() as u128,
                u128::MAX - g.u64() as u128,
                u128::MAX,
            ];
            let randoms = [
                (g.u64() as u128) << 64 | g.u64() as u128,
                g.u64() as u128 * g.u64() as u128,
            ];
            for x in edges.into_iter().chain(randoms) {
                assert_eq!(r.reduce(x) as u128, x % wide, "u128 {x} mod {q}");
            }
            for x in [0, q - 1, q, u64::MAX, g.u64(), g.u64() >> g.u64_below(64)] {
                assert_eq!(r.reduce_u64(x), x % q, "u64 {x} mod {q}");
            }
            let half = (q / 2) as i64;
            for x in [
                0,
                -1,
                i64::MIN,
                i64::MAX,
                g.i64(),
                g.i64_in(-half - 1, half + 1),
            ] {
                assert_eq!(r.reduce_i64(x), reduce_signed(x, q), "i64 {x} mod {q}");
            }
            let (a, b, c) = (g.u64(), g.u64(), g.u64());
            assert_eq!(r.mul_mod(a, b) as u128, a as u128 * b as u128 % wide);
            let fused = a as u128 * b as u128 + c as u128;
            assert_eq!(r.mul_add_mod(a, b, c) as u128, fused % wide);
        }
    });
}

#[test]
fn simd_slice_ops_match_scalar_reference() {
    use choco_math::simd;
    // Odd lengths exercise the vector tails; length < lane width exercises
    // the all-tail case.
    run_cases("simd slice ops match scalar", 48, |g| {
        let bits = SIMD_MOD_BITS[g.usize_in(0, SIMD_MOD_BITS.len() - 1)];
        let q = generate_ntt_primes(bits, 64, 1)[0];
        let len = g.usize_in(1, 131);
        let a: Vec<u64> = (0..len).map(|_| g.u64_below(q)).collect();
        let b: Vec<u64> = (0..len).map(|_| g.u64_below(q)).collect();

        let mut got = a.clone();
        simd::add_mod_slices(&mut got, &b, q);
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| add_mod(x, y, q)).collect();
        assert_eq!(got, want, "add_mod_slices (len {len}, q {q})");

        let mut got = a.clone();
        simd::sub_mod_slices(&mut got, &b, q);
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| sub_mod(x, y, q)).collect();
        assert_eq!(got, want, "sub_mod_slices (len {len}, q {q})");
    });
}
