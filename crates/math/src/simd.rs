//! The four AVX2 kernels that beat their scalar twins on the bench: the
//! Harvey lazy forward and inverse NTTs and the row-wise modular add and
//! subtract.
//!
//! Everything else in the crate — the Shoup scalar and dyadic multiplies —
//! runs the scalar loops in [`crate::ntt`] and [`crate::poly`];
//! `bench_kernels` times each kernel kept here against its scalar twin and
//! fails on a ratio below 1.0 (DESIGN.md §12).
//!
//! Apart from the single lifetime erasure in [`crate::par`], this is the
//! only module in the workspace that contains `unsafe` code, and every
//! unsafe token in it is one of exactly two shapes:
//!
//! 1. an unaligned vector load/store through a length-checked slice
//!    pointer (`_mm256_loadu_si256` / `_mm256_storeu_si256`), and
//! 2. a call from safe dispatch code into a `#[target_feature]` function,
//!    guarded by the one-time runtime CPU detection below.
//!
//! All lane arithmetic uses the safe-intrinsics-in-`target_feature`
//! rules (Rust ≥ 1.87). The crate root is `#![deny(unsafe_code)]` and this
//! module opts out locally; `choco-lint` pins the exact unsafe token count
//! in `lint.toml` (UNSAFE001/UNSAFE002) so any new unsafe site fails CI
//! until it is reviewed.
//!
//! # Bit-identical by construction
//!
//! Every vector kernel performs the *same* integer operations as its
//! scalar twin in [`crate::modops`] / [`crate::ntt`] — Shoup high-half
//! multiplies, wrapping low-half multiplies, conditional subtractions —
//! just four lanes at a time. The one regrouping is the inverse NTT's last
//! stage, which folds the `1/n` scaling into its twiddle instead of
//! sweeping once more; both forms end in fully reduced residues, and those
//! are unique. Modular arithmetic on `u64` is exact, so the results are
//! bit-identical, not merely numerically close; the property suite in
//! `crates/math/tests/prop_math.rs` and the `CHOCO_SIMD=0/1` CI matrix
//! enforce this.
//!
//! # Dispatch model
//!
//! [`backend`] resolves once per process (`OnceLock`): `CHOCO_SIMD=0` (or
//! `scalar`) forces the scalar reference the CI matrix compares against;
//! any other value, or none, selects AVX2 when the CPU has it. Each public
//! op dispatches on the cached backend and falls back to the scalar loop,
//! so hosts without AVX2 run exactly the code a forced-scalar process runs.

// The workspace-wide forbid is relaxed to deny at the choco-math crate
// root precisely so this audited module can opt back in.
#![allow(unsafe_code)]

use crate::modops::{add_mod, sub_mod};
use std::sync::OnceLock;

/// The vectorization backend selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar code (also the forced `CHOCO_SIMD=0` mode).
    Scalar,
    /// 4×u64 lanes via AVX2 on x86_64.
    Avx2,
    /// Never returned; the last two variants stay only while `benchmark/`
    /// matches on them.
    Avx512,
    /// Never returned.
    Neon,
}

impl Backend {
    /// Stable lowercase name for logs and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Whether this backend vectorizes (anything but scalar).
    pub fn is_vector(self) -> bool {
        !matches!(self, Backend::Scalar)
    }
}

/// The process-wide backend: detected once, then cached.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| detect(std::env::var("CHOCO_SIMD").ok().as_deref(), have_avx2()))
}

/// `forced` is the `CHOCO_SIMD` value, if set: `0`/`scalar` selects the
/// scalar reference, and nothing else changes the choice.
fn detect(forced: Option<&str>, have_avx2: bool) -> Backend {
    match forced.map(str::trim) {
        Some("0" | "scalar") => Backend::Scalar,
        _ if have_avx2 => Backend::Avx2,
        _ => Backend::Scalar,
    }
}

fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Minimum transform size the vector NTT accepts; smaller inputs (only
/// reachable from unit tests — HE rings start at 1024) fall back to scalar
/// in the caller.
const MIN_VECTOR_N: usize = 8;

/// Vectorized in-place forward lazy NTT (Cooley–Tukey, bit-reversed
/// twiddles, final `[0,4q) → [0,q)` correction folded into the last
/// stage). Returns `false` when no vector backend is active — the caller
/// runs its scalar path instead.
///
/// `a.len()` must be a power of two and equal the twiddle table length.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn ntt_forward_lazy(
    a: &mut [u64],
    psi_rev: &[u64],
    psi_rev_shoup: &[u64],
    q: u64,
) -> bool {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if a.len() >= MIN_VECTOR_N => {
            // SAFETY: Backend::Avx2 is only returned after runtime
            // detection confirmed the avx2 feature on this CPU.
            unsafe { avx2::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        _ => false,
    }
}

/// Vectorized in-place inverse lazy NTT (Gentleman–Sande, bit-reversed
/// inverse twiddles, the `1/n` scaling folded into the last stage; output
/// in `[0, q)`). `n_inv` is `(n⁻¹ mod q, its Shoup constant)`. Returns
/// `false` when no vector backend is active — the caller runs its scalar
/// path instead.
///
/// `a.len()` must be a power of two and equal the twiddle table length.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn ntt_inverse_lazy(
    a: &mut [u64],
    inv_psi_rev: &[u64],
    inv_psi_rev_shoup: &[u64],
    n_inv: (u64, u64),
    q: u64,
) -> bool {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if a.len() >= MIN_VECTOR_N => {
            // SAFETY: Backend::Avx2 is only returned after runtime
            // detection confirmed the avx2 feature on this CPU.
            unsafe { avx2::ntt_inverse(a, inv_psi_rev, inv_psi_rev_shoup, n_inv, q) };
            true
        }
        _ => false,
    }
}

/// `a[i] = add_mod(a[i], b[i], q)` over whole rows, vectorized when a
/// backend is active (scalar fallback built in — callers never dispatch).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx2::add_mod_slices(a, b, q) }
        }
        _ => {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = add_mod(*x, y, q);
            }
        }
    }
}

/// `a[i] = sub_mod(a[i], b[i], q)` over whole rows (see [`add_mod_slices`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx2::sub_mod_slices(a, b, q) }
        }
        _ => {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = sub_mod(*x, y, q);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 kernels: 4×u64 lanes. x86 has no 64×64 vector multiply below
    //! AVX-512DQ, so the 128-bit products are assembled from four
    //! `vpmuludq` 32×32→64 partials — still ~2.5 hardware multiplies per
    //! butterfly multiply versus 3 scalar `mul`s, with the branchy
    //! conditional subtractions turned into straight-line mask arithmetic.
    //!
    //! Signed comparisons (`vpcmpgtq`) stand in for the unsigned compares
    //! of the scalar code: every value here is below `4q < 2^63`, where
    //! the two orders agree.

    use super::{add_mod, sub_mod};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(src: &[u64]) -> __m256i {
        debug_assert!(src.len() >= 4);
        // SAFETY: the slice holds at least four elements (checked above in
        // debug builds, by construction in callers); unaligned load.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(dst: &mut [u64], v: __m256i) {
        debug_assert!(dst.len() >= 4);
        // SAFETY: the slice holds at least four elements; unaligned store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// The two 4-lane halves of an 8-lane chunk.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load8(src: &[u64; 8]) -> (__m256i, __m256i) {
        let (lo, hi) = src.split_at(4);
        (load(lo), load(hi))
    }

    /// Stores `lo` and `hi` as the two halves of an 8-lane chunk.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store8(dst: &mut [u64; 8], lo: __m256i, hi: __m256i) {
        let (l, h) = dst.split_at_mut(4);
        store(l, lo);
        store(h, hi);
    }

    /// High 64 bits of the unsigned 64×64 product, lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mulhi_u64(a: __m256i, b: __m256i) -> __m256i {
        let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // carry out of the middle 32-bit column: at most 3·(2^32−1), so the
        // column sum never overflows a u64 lane.
        let cross = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(ll), _mm256_and_si256(hl, lo32)),
            _mm256_and_si256(lh, lo32),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(cross)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(hl), _mm256_srli_epi64::<32>(lh)),
        )
    }

    /// Low 64 bits of the product (wrapping), lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mullo_u64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(cross))
    }

    /// [`crate::modops::mul_mod_shoup_lazy`] lane-wise: result in `[0, 2q)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn shoup_lazy(a: __m256i, b: __m256i, b_shoup: __m256i, q: __m256i) -> __m256i {
        let hi = mulhi_u64(a, b_shoup);
        _mm256_sub_epi64(mullo_u64(a, b), mullo_u64(hi, q))
    }

    /// `if x >= bound { x - bound } else { x }` lane-wise. Valid while
    /// `x < 2^63` and `bound < 2^63` (signed compare).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn csub(x: __m256i, bound: __m256i) -> __m256i {
        let lt = _mm256_cmpgt_epi64(bound, x);
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, bound))
    }

    /// [`crate::modops::reduce_4q`] lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn reduce_4q_v(x: __m256i, two_q: __m256i, q: __m256i) -> __m256i {
        csub(csub(x, two_q), q)
    }

    /// Two broadcast pairs: `[s0, s0, s1, s1]` from a 2-element slice.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn spread2(s: &[u64]) -> __m256i {
        debug_assert!(s.len() >= 2);
        _mm256_set_epi64x(s[1] as i64, s[1] as i64, s[0] as i64, s[0] as i64)
    }

    /// Forward lazy NTT with the final correction folded into the last
    /// (span-1) stage. `a.len()` is a power of two ≥ 8.
    #[target_feature(enable = "avx2")]
    pub fn ntt_forward(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) {
        let n = a.len();
        debug_assert!(n >= 8 && n.is_power_of_two());
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((2 * q) as i64);
        let mut m = 1usize;
        let mut t = n >> 1;
        // Stages with butterfly span >= 4: one broadcast twiddle per block,
        // contiguous 4-lane loads on both block halves.
        while t >= 4 {
            let tw = psi_rev[m..2 * m].iter().zip(&psi_rev_shoup[m..2 * m]);
            for (block, (&s, &s_sh)) in a.chunks_exact_mut(2 * t).zip(tw) {
                let s = _mm256_set1_epi64x(s as i64);
                let s_sh = _mm256_set1_epi64x(s_sh as i64);
                // Exact-chunk iteration over the two block halves: the
                // compiler proves every lane access in range, so the loop
                // body is branch-free. Two independent butterflies per
                // 8-chunk keep the long Shoup multiply chains overlapped.
                let (lo_half, hi_half) = block.split_at_mut(t);
                let (l8, l_rem) = lo_half.as_chunks_mut::<8>();
                let (h8, h_rem) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in l8.iter_mut().zip(h8.iter_mut()) {
                    let (u0, u1) = load8(lc);
                    let (v0, v1) = load8(hc);
                    let (u0, u1) = (csub(u0, two_q), csub(u1, two_q));
                    let v0 = shoup_lazy(v0, s, s_sh, qv);
                    let v1 = shoup_lazy(v1, s, s_sh, qv);
                    store8(lc, _mm256_add_epi64(u0, v0), _mm256_add_epi64(u1, v1));
                    store8(
                        hc,
                        _mm256_add_epi64(u0, _mm256_sub_epi64(two_q, v0)),
                        _mm256_add_epi64(u1, _mm256_sub_epi64(two_q, v1)),
                    );
                }
                // The t == 4 stage leaves one 4-lane remainder per half.
                let (l4, _) = l_rem.as_chunks_mut::<4>();
                let (h4, _) = h_rem.as_chunks_mut::<4>();
                for (lc, hc) in l4.iter_mut().zip(h4.iter_mut()) {
                    let u = csub(load(lc), two_q);
                    let v = shoup_lazy(load(hc), s, s_sh, qv);
                    store(lc, _mm256_add_epi64(u, v));
                    store(hc, _mm256_add_epi64(u, _mm256_sub_epi64(two_q, v)));
                }
            }
            m <<= 1;
            t >>= 1;
        }
        // Span-2 stage: blocks are [u0 u1 v0 v1]; two blocks per iteration,
        // gathered into u/v vectors with 128-bit-lane permutes.
        debug_assert_eq!(t, 2);
        {
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<2>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<2>();
            for ((block, s2), s2_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let (v0, v1) = load8(block);
                let u = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let v = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let s = spread2(s2);
                let s_sh = spread2(s2_sh);
                let uu = csub(u, two_q);
                let vv = shoup_lazy(v, s, s_sh, qv);
                let lo = _mm256_add_epi64(uu, vv);
                let hi = _mm256_add_epi64(uu, _mm256_sub_epi64(two_q, vv));
                store8(
                    block,
                    _mm256_permute2x128_si256::<0x20>(lo, hi),
                    _mm256_permute2x128_si256::<0x31>(lo, hi),
                );
            }
            m <<= 1;
        }
        // Span-1 stage, fused with the [0,4q) -> [0,q) correction: pairs are
        // deinterleaved with unpack/permute so the last pass over the array
        // both finishes the transform and canonicalizes.
        {
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<4>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<4>();
            for ((block, s4), s4_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let (v0, v1) = load8(block);
                let e = _mm256_unpacklo_epi64(v0, v1); // [x0 x4 x2 x6]
                let o = _mm256_unpackhi_epi64(v0, v1); // [x1 x5 x3 x7]
                let u_vec = _mm256_permute4x64_epi64::<0b1101_1000>(e); // evens
                let v_vec = _mm256_permute4x64_epi64::<0b1101_1000>(o); // odds
                let s = load(s4);
                let s_sh = load(s4_sh);
                let uu = csub(u_vec, two_q);
                let vv = shoup_lazy(v_vec, s, s_sh, qv);
                let lo = reduce_4q_v(_mm256_add_epi64(uu, vv), two_q, qv);
                let hi = reduce_4q_v(_mm256_add_epi64(uu, _mm256_sub_epi64(two_q, vv)), two_q, qv);
                let lp = _mm256_permute4x64_epi64::<0b1101_1000>(lo); // [y0 y4 y2 y6]
                let hp = _mm256_permute4x64_epi64::<0b1101_1000>(hi); // [y1 y5 y3 y7]
                store8(
                    block,
                    _mm256_unpacklo_epi64(lp, hp),
                    _mm256_unpackhi_epi64(lp, hp),
                );
            }
        }
    }

    /// Gentleman–Sande butterfly on lanes in `[0, 2q)`: the sum folded back
    /// below `2q`, and the difference (offset by `2q`) times the twiddle,
    /// lazily, so it lands in `[0, 2q)` as well.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn gs_butterfly(
        u: __m256i,
        v: __m256i,
        (s, s_sh): (__m256i, __m256i),
        q: __m256i,
        two_q: __m256i,
    ) -> (__m256i, __m256i) {
        let sum = csub(_mm256_add_epi64(u, v), two_q);
        let dif = shoup_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), s, s_sh, q);
        (sum, dif)
    }

    /// Inverse lazy NTT: [`ntt_forward`]'s stages in reverse order, with the
    /// `1/n` scaling folded into the last (span `n/2`) stage. `a.len()` is
    /// a power of two ≥ 8.
    #[target_feature(enable = "avx2")]
    pub fn ntt_inverse(
        a: &mut [u64],
        inv_psi_rev: &[u64],
        inv_psi_rev_shoup: &[u64],
        (n_inv, n_inv_shoup): (u64, u64),
        q: u64,
    ) {
        let n = a.len();
        debug_assert!(n >= 8 && n.is_power_of_two());
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((2 * q) as i64);
        // Span-1 stage (twiddles h = n/2 ..): pairs deinterleaved with
        // unpack/permute, four butterflies per 8-chunk.
        let h = n >> 1;
        {
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<4>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<4>();
            for ((block, s4), s4_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let (v0, v1) = load8(block);
                let e = _mm256_unpacklo_epi64(v0, v1); // [x0 x4 x2 x6]
                let o = _mm256_unpackhi_epi64(v0, v1); // [x1 x5 x3 x7]
                let u = _mm256_permute4x64_epi64::<0b1101_1000>(e); // evens
                let v = _mm256_permute4x64_epi64::<0b1101_1000>(o); // odds
                let (sum, dif) = gs_butterfly(u, v, (load(s4), load(s4_sh)), qv, two_q);
                let lp = _mm256_permute4x64_epi64::<0b1101_1000>(sum);
                let hp = _mm256_permute4x64_epi64::<0b1101_1000>(dif);
                store8(
                    block,
                    _mm256_unpacklo_epi64(lp, hp),
                    _mm256_unpackhi_epi64(lp, hp),
                );
            }
        }
        // Span-2 stage (twiddles h = n/4 ..): blocks are [u0 u1 v0 v1],
        // two per 8-chunk, gathered with 128-bit-lane permutes.
        let h = h >> 1;
        {
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<2>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<2>();
            for ((block, s2), s2_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let (v0, v1) = load8(block);
                let u = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let v = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let (sum, dif) = gs_butterfly(u, v, (spread2(s2), spread2(s2_sh)), qv, two_q);
                store8(
                    block,
                    _mm256_permute2x128_si256::<0x20>(sum, dif),
                    _mm256_permute2x128_si256::<0x31>(sum, dif),
                );
            }
        }
        // Stages with span >= 4 up to n/4: one broadcast twiddle per block,
        // two butterflies per 8-chunk (see the forward transform).
        let mut t = 4usize;
        let mut h = h >> 1;
        while h >= 2 {
            let tw = inv_psi_rev[h..2 * h]
                .iter()
                .zip(&inv_psi_rev_shoup[h..2 * h]);
            for (block, (&s, &s_sh)) in a.chunks_exact_mut(2 * t).zip(tw) {
                let s = (
                    _mm256_set1_epi64x(s as i64),
                    _mm256_set1_epi64x(s_sh as i64),
                );
                let (lo_half, hi_half) = block.split_at_mut(t);
                let (l8, l_rem) = lo_half.as_chunks_mut::<8>();
                let (h8, h_rem) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in l8.iter_mut().zip(h8.iter_mut()) {
                    let (u0, u1) = load8(lc);
                    let (v0, v1) = load8(hc);
                    let (sum0, dif0) = gs_butterfly(u0, v0, s, qv, two_q);
                    let (sum1, dif1) = gs_butterfly(u1, v1, s, qv, two_q);
                    store8(lc, sum0, sum1);
                    store8(hc, dif0, dif1);
                }
                // The t == 4 stage leaves one 4-lane remainder per half.
                let (l4, _) = l_rem.as_chunks_mut::<4>();
                let (h4, _) = h_rem.as_chunks_mut::<4>();
                for (lc, hc) in l4.iter_mut().zip(h4.iter_mut()) {
                    let (sum, dif) = gs_butterfly(load(lc), load(hc), s, qv, two_q);
                    store(lc, sum);
                    store(hc, dif);
                }
            }
            t <<= 1;
            h >>= 1;
        }
        // Last stage (span n/2, one twiddle) fused with the 1/n scaling: the
        // sum is multiplied by n⁻¹ and the difference by s·n⁻¹, each with a
        // full Shoup reduction, saving a separate scaling sweep and a
        // multiply on every difference lane. Canonical residues are unique,
        // so this is bit-identical to the two-pass scalar form.
        debug_assert_eq!(t, n >> 1);
        let s_ninv = crate::modops::mul_mod(inv_psi_rev[1], n_inv, q);
        let s_ninv_sh = crate::modops::shoup_precompute(s_ninv, q);
        let sv = _mm256_set1_epi64x(s_ninv as i64);
        let sv_sh = _mm256_set1_epi64x(s_ninv_sh as i64);
        let ni = _mm256_set1_epi64x(n_inv as i64);
        let ni_sh = _mm256_set1_epi64x(n_inv_shoup as i64);
        let (lo_half, hi_half) = a.split_at_mut(t);
        let (lcs, _) = lo_half.as_chunks_mut::<4>();
        let (hcs, _) = hi_half.as_chunks_mut::<4>();
        for (lc, hc) in lcs.iter_mut().zip(hcs.iter_mut()) {
            let (u, v) = (load(lc), load(hc));
            let sum = csub(_mm256_add_epi64(u, v), two_q);
            let dif = _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v);
            store(lc, csub(shoup_lazy(sum, ni, ni_sh, qv), qv));
            store(hc, csub(shoup_lazy(dif, sv, sv_sh, qv), qv));
        }
    }

    /// Vector body + scalar tail for `add_mod` over rows.
    #[target_feature(enable = "avx2")]
    pub fn add_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = _mm256_set1_epi64x(q as i64);
        let len4 = a.len() & !3;
        let mut j = 0;
        while j < len4 {
            let s = _mm256_add_epi64(load(&a[j..j + 4]), load(&b[j..j + 4]));
            store(&mut a[j..j + 4], csub(s, qv));
            j += 4;
        }
        for (x, &y) in a[len4..].iter_mut().zip(&b[len4..]) {
            *x = add_mod(*x, y, q);
        }
    }

    /// Vector body + scalar tail for `sub_mod` over rows.
    #[target_feature(enable = "avx2")]
    pub fn sub_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = _mm256_set1_epi64x(q as i64);
        let len4 = a.len() & !3;
        let mut j = 0;
        while j < len4 {
            let x = load(&a[j..j + 4]);
            let y = load(&b[j..j + 4]);
            // borrow mask: add q back where y > x.
            let borrow = _mm256_cmpgt_epi64(y, x);
            let d = _mm256_sub_epi64(x, y);
            store(
                &mut a[j..j + 4],
                _mm256_add_epi64(d, _mm256_and_si256(borrow, qv)),
            );
            j += 4;
        }
        for (x, &y) in a[len4..].iter_mut().zip(&b[len4..]) {
            *x = sub_mod(*x, y, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_reports_a_name() {
        let b = backend();
        assert!(!b.name().is_empty());
        // On any host the scalar fallback must at least be reachable.
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert!(!Backend::Scalar.is_vector());
        assert!(Backend::Avx2.is_vector());
    }

    #[test]
    fn detect_honours_only_the_scalar_switch() {
        for have_avx2 in [false, true] {
            for forced in ["0", "scalar", " scalar ", " 0\n"] {
                assert_eq!(detect(Some(forced), have_avx2), Backend::Scalar);
            }
        }
        // "1", unset, junk and the retired backend names all mean "best
        // available" — which is AVX2 or nothing.
        for forced in [
            None,
            Some("1"),
            Some(""),
            Some("avx2"),
            Some("avx512"),
            Some("neon"),
        ] {
            assert_eq!(detect(forced, true), Backend::Avx2, "{forced:?}");
            assert_eq!(detect(forced, false), Backend::Scalar, "{forced:?}");
        }
    }

    #[test]
    fn slice_ops_match_scalar_reference() {
        // Exercises whatever backend is active (including the tail path via
        // the odd length) against the modops reference.
        let q = (1u64 << 60) - 93; // any q < 2^61 works for add/sub
        let len = 1027;
        let a: Vec<u64> = (0..len as u64).map(|i| (i * 0x9E37_79B9) % q).collect();
        let b: Vec<u64> = (0..len as u64).map(|i| (i * 0x85EB_CA6B + 1) % q).collect();

        let mut add = a.clone();
        add_mod_slices(&mut add, &b, q);
        let mut sub = a.clone();
        sub_mod_slices(&mut sub, &b, q);
        for i in 0..len {
            assert_eq!(add[i], add_mod(a[i], b[i], q));
            assert_eq!(sub[i], sub_mod(a[i], b[i], q));
        }
    }
}
