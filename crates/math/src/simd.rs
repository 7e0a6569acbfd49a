//! Runtime-dispatched SIMD backends for the Harvey lazy NTT butterflies and
//! the dyadic coefficient-wise ops.
//!
//! Apart from the single lifetime erasure in [`crate::par`], this is the
//! only module in the workspace that contains `unsafe` code, and every
//! unsafe token in it is one of exactly two shapes:
//!
//! 1. an unaligned vector load/store through a length-checked slice
//!    pointer (`_mm256_loadu_si256` / `vld1q_u64` and their stores), and
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
//! just four (AVX2) or two (NEON) lanes at a time. Modular arithmetic on
//! `u64` is exact, so the results are bit-identical, not merely
//! numerically close; the property suite in `crates/math/tests/prop_math.rs`
//! and the `CHOCO_SIMD=0/1` CI matrix enforce this.
//!
//! # Dispatch model
//!
//! [`backend`] resolves once per process (`OnceLock`): the `CHOCO_SIMD`
//! environment variable is consulted first (`0`/`scalar` forces scalar; a
//! backend name — `avx2`, `avx512`, `neon` — forces that backend when the
//! CPU supports it; `1` or unset allows the default), then CPU features
//! are detected. Each public op dispatches on the cached backend and
//! returns scalar results through the exact same code path the pre-SIMD
//! library used, so scalar-only hosts see zero behavior change.

// The workspace-wide forbid is relaxed to deny at the choco-math crate
// root precisely so this audited module can opt back in.
#![allow(unsafe_code)]

use crate::modops::{add_mod, mul_mod_shoup, sub_mod};
use std::sync::OnceLock;

/// The vectorization backend selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar code (also the forced `CHOCO_SIMD=0` mode).
    Scalar,
    /// 4×u64 lanes via AVX2 on x86_64.
    Avx2,
    /// 8×u64 lanes via AVX-512 (F+DQ: native 64-bit `vpmullq` and mask
    /// registers) on x86_64.
    Avx512,
    /// 2×u64 lanes via NEON on aarch64.
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
    *BACKEND.get_or_init(detect)
}

fn detect() -> Backend {
    let forced = std::env::var("CHOCO_SIMD").ok();
    match forced.as_deref().map(str::trim) {
        Some("0") | Some("scalar") => return Backend::Scalar,
        // A named backend is honored only when the CPU supports it;
        // otherwise detection falls through to the best available (never
        // to an unsupported instruction set).
        Some("avx2") if have_avx2() => return Backend::Avx2,
        Some("avx512") if have_avx512() => return Backend::Avx512,
        Some("neon") if have_neon() => return Backend::Neon,
        // "1", unset, or an unsupported name: use the best available.
        _ => {}
    }
    // AVX2 is deliberately preferred over AVX-512: the Shoup kernels are
    // 64-bit-multiply-bound, `vpmullq` is microcoded on most parts, and
    // 512-bit multiply throughput generally equals 2×256-bit — measured on
    // the dev host the AVX-512 path is slightly *slower* (see DESIGN.md
    // §12). `CHOCO_SIMD=avx512` opts in for hardware where it wins.
    if have_avx2() {
        return Backend::Avx2;
    }
    if have_avx512() {
        return Backend::Avx512;
    }
    if have_neon() {
        return Backend::Neon;
    }
    Backend::Scalar
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

fn have_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn have_neon() -> bool {
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        false
    }
}

/// Minimum transform size the vector NTT paths accept; smaller inputs
/// (only reachable from unit tests — HE rings start at 1024) fall back to
/// scalar in the caller.
const MIN_VECTOR_N: usize = 8;

/// Vectorized in-place forward lazy NTT (Cooley–Tukey, bit-reversed
/// twiddles, final `[0,4q) → [0,q)` correction folded into the last
/// stage). Returns `false` when no vector backend is active — the caller
/// runs its scalar path instead.
///
/// `a.len()` must be a power of two and equal the twiddle table length.
pub fn ntt_forward_lazy(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) -> bool {
    if a.len() < MIN_VECTOR_N {
        return false;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if a.len() >= 16 => {
            // SAFETY: Backend::Avx512 is only returned after runtime
            // detection confirmed avx512f+avx512dq on this CPU.
            unsafe { avx512::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            // SAFETY: both backends imply avx2 was detected at runtime
            // (avx512 is a superset; the length guard above routed only
            // sub-16 inputs here).
            unsafe { avx2::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: Backend::Neon is only returned after runtime
            // detection confirmed the neon feature on this CPU.
            unsafe { neon::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        _ => false,
    }
}

/// Vectorized in-place inverse lazy NTT (Gentleman–Sande, including the
/// final `1/n` Shoup scaling sweep). Returns `false` when no vector
/// backend is active.
pub fn ntt_inverse_lazy(
    a: &mut [u64],
    inv_psi_rev: &[u64],
    inv_psi_rev_shoup: &[u64],
    n_inv: u64,
    n_inv_shoup: u64,
    q: u64,
) -> bool {
    if a.len() < MIN_VECTOR_N {
        return false;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if a.len() >= 16 => {
            // SAFETY: Backend::Avx512 is only returned after runtime
            // detection confirmed avx512f+avx512dq on this CPU.
            unsafe {
                avx512::ntt_inverse(a, inv_psi_rev, inv_psi_rev_shoup, n_inv, n_inv_shoup, q)
            };
            true
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            // SAFETY: both backends imply avx2 was detected at runtime.
            unsafe { avx2::ntt_inverse(a, inv_psi_rev, inv_psi_rev_shoup, n_inv, n_inv_shoup, q) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            // SAFETY: Backend::Neon is only returned after runtime
            // detection confirmed the neon feature on this CPU.
            unsafe { neon::ntt_inverse(a, inv_psi_rev, inv_psi_rev_shoup, n_inv, n_inv_shoup, q) };
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
        Backend::Avx512 if a.len() >= 8 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx512::add_mod_slices(a, b, q) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature (avx512
            // implies avx2).
            unsafe { avx2::add_mod_slices(a, b, q) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if a.len() >= 2 => {
            // SAFETY: backend detection guards the feature.
            unsafe { neon::add_mod_slices(a, b, q) }
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
        Backend::Avx512 if a.len() >= 8 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx512::sub_mod_slices(a, b, q) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature (avx512
            // implies avx2).
            unsafe { avx2::sub_mod_slices(a, b, q) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if a.len() >= 2 => {
            // SAFETY: backend detection guards the feature.
            unsafe { neon::sub_mod_slices(a, b, q) }
        }
        _ => {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = sub_mod(*x, y, q);
            }
        }
    }
}

/// `a[i] = mul_mod_shoup(a[i], s, s_shoup, q)` over a whole row: multiply
/// by one Shoup-precomputed constant (`s < q`). The workhorse of mod-down
/// (`P^{-1}` scaling) and plaintext scaling.
pub fn scalar_mul_shoup_slices(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if a.len() >= 8 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx512::scalar_mul_shoup_slices(a, s, s_shoup, q) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature (avx512
            // implies avx2).
            unsafe { avx2::scalar_mul_shoup_slices(a, s, s_shoup, q) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if a.len() >= 2 => {
            // SAFETY: backend detection guards the feature.
            unsafe { neon::scalar_mul_shoup_slices(a, s, s_shoup, q) }
        }
        _ => {
            for x in a.iter_mut() {
                *x = mul_mod_shoup(*x, s, s_shoup, q);
            }
        }
    }
}

/// `a[i] = mul_mod_shoup(a[i], b[i], b_shoup[i], q)`: the dyadic
/// (element-wise) product against an operand with per-coefficient Shoup
/// precomputation — e.g. a cached NTT-domain plaintext.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn dyadic_mul_shoup_slices(a: &mut [u64], b: &[u64], b_shoup: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    assert_eq!(a.len(), b_shoup.len(), "shoup row length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if a.len() >= 8 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx512::dyadic_mul_shoup_slices(a, b, b_shoup, q) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature (avx512
            // implies avx2).
            unsafe { avx2::dyadic_mul_shoup_slices(a, b, b_shoup, q) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if a.len() >= 2 => {
            // SAFETY: backend detection guards the feature.
            unsafe { neon::dyadic_mul_shoup_slices(a, b, b_shoup, q) }
        }
        _ => {
            for ((x, &y), &ys) in a.iter_mut().zip(b).zip(b_shoup) {
                *x = mul_mod_shoup(*x, y, ys, q);
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

    use super::{add_mod, mul_mod_shoup, sub_mod};
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
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = _mm256_set1_epi64x(psi_rev[m + i] as i64);
                let s_sh = _mm256_set1_epi64x(psi_rev_shoup[m + i] as i64);
                // Exact-chunk iteration over the two block halves: the
                // compiler proves every lane access in range, so the loop
                // body is branch-free. Two independent butterflies per
                // 8-chunk keep the long Shoup multiply chains overlapped.
                let (lo_half, hi_half) = a[j1..j1 + 2 * t].split_at_mut(t);
                let (l8, l_rem) = lo_half.as_chunks_mut::<8>();
                let (h8, h_rem) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in l8.iter_mut().zip(h8.iter_mut()) {
                    let u0 = csub(load(&lc[..4]), two_q);
                    let u1 = csub(load(&lc[4..]), two_q);
                    let v0 = shoup_lazy(load(&hc[..4]), s, s_sh, qv);
                    let v1 = shoup_lazy(load(&hc[4..]), s, s_sh, qv);
                    store(&mut lc[..4], _mm256_add_epi64(u0, v0));
                    store(&mut lc[4..], _mm256_add_epi64(u1, v1));
                    store(
                        &mut hc[..4],
                        _mm256_add_epi64(u0, _mm256_sub_epi64(two_q, v0)),
                    );
                    store(
                        &mut hc[4..],
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
                let v0 = load(&block[..4]);
                let v1 = load(&block[4..]);
                let u = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let v = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let s = spread2(s2);
                let s_sh = spread2(s2_sh);
                let uu = csub(u, two_q);
                let vv = shoup_lazy(v, s, s_sh, qv);
                let lo = _mm256_add_epi64(uu, vv);
                let hi = _mm256_add_epi64(uu, _mm256_sub_epi64(two_q, vv));
                store(&mut block[..4], _mm256_permute2x128_si256::<0x20>(lo, hi));
                store(&mut block[4..], _mm256_permute2x128_si256::<0x31>(lo, hi));
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
                let v0 = load(&block[..4]);
                let v1 = load(&block[4..]);
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
                store(&mut block[..4], _mm256_unpacklo_epi64(lp, hp));
                store(&mut block[4..], _mm256_unpackhi_epi64(lp, hp));
            }
        }
    }

    /// Inverse lazy NTT including the `1/n` scaling sweep.
    #[target_feature(enable = "avx2")]
    pub fn ntt_inverse(
        a: &mut [u64],
        inv_psi_rev: &[u64],
        inv_psi_rev_shoup: &[u64],
        n_inv: u64,
        n_inv_shoup: u64,
        q: u64,
    ) {
        let n = a.len();
        debug_assert!(n >= 8 && n.is_power_of_two());
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((2 * q) as i64);
        // Span-1 stage (h = n/2): deinterleave pairs.
        {
            let h = n >> 1;
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<4>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<4>();
            for ((block, s4), s4_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..4]);
                let v1 = load(&block[4..]);
                let e = _mm256_unpacklo_epi64(v0, v1);
                let o = _mm256_unpackhi_epi64(v0, v1);
                let u_vec = _mm256_permute4x64_epi64::<0b1101_1000>(e);
                let v_vec = _mm256_permute4x64_epi64::<0b1101_1000>(o);
                let s = load(s4);
                let s_sh = load(s4_sh);
                let sum = csub(_mm256_add_epi64(u_vec, v_vec), two_q);
                let dif = shoup_lazy(
                    _mm256_sub_epi64(_mm256_add_epi64(u_vec, two_q), v_vec),
                    s,
                    s_sh,
                    qv,
                );
                let lp = _mm256_permute4x64_epi64::<0b1101_1000>(sum);
                let hp = _mm256_permute4x64_epi64::<0b1101_1000>(dif);
                store(&mut block[..4], _mm256_unpacklo_epi64(lp, hp));
                store(&mut block[4..], _mm256_unpackhi_epi64(lp, hp));
            }
        }
        // Span-2 stage (h = n/4): 128-bit-lane permute gathers.
        {
            let h = n >> 2;
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<2>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<2>();
            for ((block, s2), s2_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..4]);
                let v1 = load(&block[4..]);
                let u = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let v = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let s = spread2(s2);
                let s_sh = spread2(s2_sh);
                let sum = csub(_mm256_add_epi64(u, v), two_q);
                let dif = shoup_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), s, s_sh, qv);
                store(&mut block[..4], _mm256_permute2x128_si256::<0x20>(sum, dif));
                store(&mut block[4..], _mm256_permute2x128_si256::<0x31>(sum, dif));
            }
        }
        // Stages with span >= 4, except the last (h == 1) stage.
        let mut t = 4usize;
        let mut h = n >> 3;
        while h >= 2 {
            let mut j1 = 0;
            for i in 0..h {
                let s = _mm256_set1_epi64x(inv_psi_rev[h + i] as i64);
                let s_sh = _mm256_set1_epi64x(inv_psi_rev_shoup[h + i] as i64);
                // Exact-chunk iteration (see the forward transform); two
                // butterflies per 8-chunk keep the multiplier busy.
                let (lo_half, hi_half) = a[j1..j1 + 2 * t].split_at_mut(t);
                let (l8, l_rem) = lo_half.as_chunks_mut::<8>();
                let (h8, h_rem) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in l8.iter_mut().zip(h8.iter_mut()) {
                    let u0 = load(&lc[..4]);
                    let u1 = load(&lc[4..]);
                    let v0 = load(&hc[..4]);
                    let v1 = load(&hc[4..]);
                    let sum0 = csub(_mm256_add_epi64(u0, v0), two_q);
                    let sum1 = csub(_mm256_add_epi64(u1, v1), two_q);
                    let dif0 = shoup_lazy(
                        _mm256_sub_epi64(_mm256_add_epi64(u0, two_q), v0),
                        s,
                        s_sh,
                        qv,
                    );
                    let dif1 = shoup_lazy(
                        _mm256_sub_epi64(_mm256_add_epi64(u1, two_q), v1),
                        s,
                        s_sh,
                        qv,
                    );
                    store(&mut lc[..4], sum0);
                    store(&mut lc[4..], sum1);
                    store(&mut hc[..4], dif0);
                    store(&mut hc[4..], dif1);
                }
                let (l4, _) = l_rem.as_chunks_mut::<4>();
                let (h4, _) = h_rem.as_chunks_mut::<4>();
                for (lc, hc) in l4.iter_mut().zip(h4.iter_mut()) {
                    let u = load(lc);
                    let v = load(hc);
                    let sum = csub(_mm256_add_epi64(u, v), two_q);
                    let dif =
                        shoup_lazy(_mm256_sub_epi64(_mm256_add_epi64(u, two_q), v), s, s_sh, qv);
                    store(lc, sum);
                    store(hc, dif);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            h >>= 1;
        }
        // Last stage (h == 1) fused with the 1/n scaling: scale the sum
        // output by n_inv and the difference output by s·n_inv, both with
        // full Shoup reduction, which skips the separate scaling sweep and
        // its extra multiply on every difference lane. Bit-identical to the
        // two-pass form because canonical residues are unique.
        {
            debug_assert_eq!(t, n >> 1);
            let s = inv_psi_rev[1];
            let s_ninv = crate::modops::mul_mod(s, n_inv, q);
            let s_ninv_sh = crate::modops::shoup_precompute(s_ninv, q);
            let sv = _mm256_set1_epi64x(s_ninv as i64);
            let sv_sh = _mm256_set1_epi64x(s_ninv_sh as i64);
            let ni = _mm256_set1_epi64x(n_inv as i64);
            let ni_sh = _mm256_set1_epi64x(n_inv_shoup as i64);
            let (lo_half, hi_half) = a.split_at_mut(t);
            let (lcs, _) = lo_half.as_chunks_mut::<4>();
            let (hcs, _) = hi_half.as_chunks_mut::<4>();
            for (lc, hc) in lcs.iter_mut().zip(hcs.iter_mut()) {
                let u = load(lc);
                let v = load(hc);
                let sum = csub(_mm256_add_epi64(u, v), two_q);
                let lo = shoup_lazy(sum, ni, ni_sh, qv);
                let hi = shoup_lazy(
                    _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v),
                    sv,
                    sv_sh,
                    qv,
                );
                store(lc, csub(lo, qv));
                store(hc, csub(hi, qv));
            }
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

    /// Vector body + scalar tail for constant Shoup multiplication.
    #[target_feature(enable = "avx2")]
    pub fn scalar_mul_shoup_slices(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
        let qv = _mm256_set1_epi64x(q as i64);
        let sv = _mm256_set1_epi64x(s as i64);
        let sv_sh = _mm256_set1_epi64x(s_shoup as i64);
        let len4 = a.len() & !3;
        let mut j = 0;
        while j < len4 {
            let r = shoup_lazy(load(&a[j..j + 4]), sv, sv_sh, qv);
            store(&mut a[j..j + 4], csub(r, qv));
            j += 4;
        }
        for x in a[len4..].iter_mut() {
            *x = mul_mod_shoup(*x, s, s_shoup, q);
        }
    }

    /// Vector body + scalar tail for the per-lane-Shoup dyadic product.
    #[target_feature(enable = "avx2")]
    pub fn dyadic_mul_shoup_slices(a: &mut [u64], b: &[u64], b_shoup: &[u64], q: u64) {
        let qv = _mm256_set1_epi64x(q as i64);
        let len4 = a.len() & !3;
        let mut j = 0;
        while j < len4 {
            let r = shoup_lazy(
                load(&a[j..j + 4]),
                load(&b[j..j + 4]),
                load(&b_shoup[j..j + 4]),
                qv,
            );
            store(&mut a[j..j + 4], csub(r, qv));
            j += 4;
        }
        for ((x, &y), &ys) in a[len4..].iter_mut().zip(&b[len4..]).zip(&b_shoup[len4..]) {
            *x = mul_mod_shoup(*x, y, ys, q);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 kernels: 8×u64 lanes. Unlike AVX2, the DQ extension gives a
    //! native 64-bit low multiply (`vpmullq`), mask registers turn the
    //! conditional subtractions into single masked ops, and
    //! `vpermt2q` gathers arbitrary lane pairs across two vectors — so the
    //! short-span butterfly stages need one shuffle per operand instead of
    //! an unpack/permute dance. Only the 128-bit-product high half still
    //! needs the four-partial `vpmuludq` assembly.

    use super::{add_mod, mul_mod_shoup, sub_mod};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn load(src: &[u64]) -> __m512i {
        debug_assert!(src.len() >= 8);
        // SAFETY: the slice holds at least eight elements; unaligned load.
        unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn store(dst: &mut [u64], v: __m512i) {
        debug_assert!(dst.len() >= 8);
        // SAFETY: the slice holds at least eight elements; unaligned store.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
    }

    /// Loads two twiddles into lanes 0–1 (upper lanes zero).
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn load2(src: &[u64]) -> __m512i {
        debug_assert!(src.len() >= 2);
        // SAFETY: masked load touches only the two unmasked lanes.
        unsafe { _mm512_maskz_loadu_epi64(0b0000_0011, src.as_ptr().cast()) }
    }

    /// Loads four twiddles into lanes 0–3 (upper lanes zero).
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn load4(src: &[u64]) -> __m512i {
        debug_assert!(src.len() >= 4);
        // SAFETY: masked load touches only the four unmasked lanes.
        unsafe { _mm512_maskz_loadu_epi64(0b0000_1111, src.as_ptr().cast()) }
    }

    /// Lane-index vector for `vpermt2q` gathers (lane 0 first).
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn idx(a: i64, b: i64, c: i64, d: i64, e: i64, f: i64, g: i64, h: i64) -> __m512i {
        _mm512_setr_epi64(a, b, c, d, e, f, g, h)
    }

    /// High 64 bits of the unsigned 64×64 product, lane-wise.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn mulhi_u64(a: __m512i, b: __m512i) -> __m512i {
        let lo32 = _mm512_set1_epi64(0xFFFF_FFFF);
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a, b);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        let cross = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64::<32>(ll), _mm512_and_si512(hl, lo32)),
            _mm512_and_si512(lh, lo32),
        );
        _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(cross)),
            _mm512_add_epi64(_mm512_srli_epi64::<32>(hl), _mm512_srli_epi64::<32>(lh)),
        )
    }

    /// `mul_mod_shoup_lazy` lane-wise: result in `[0, 2q)`. The low halves
    /// use the native `vpmullq`.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn shoup_lazy(a: __m512i, b: __m512i, b_shoup: __m512i, q: __m512i) -> __m512i {
        let hi = mulhi_u64(a, b_shoup);
        _mm512_sub_epi64(_mm512_mullo_epi64(a, b), _mm512_mullo_epi64(hi, q))
    }

    /// `if x >= bound { x - bound } else { x }` lane-wise via a mask
    /// (native unsigned compare — no signed-range trick needed).
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn csub(x: __m512i, bound: __m512i) -> __m512i {
        let ge = _mm512_cmpge_epu64_mask(x, bound);
        _mm512_mask_sub_epi64(x, ge, x, bound)
    }

    /// `reduce_4q` lane-wise.
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn reduce_4q_v(x: __m512i, two_q: __m512i, q: __m512i) -> __m512i {
        csub(csub(x, two_q), q)
    }

    /// Forward lazy NTT with the final correction folded into the last
    /// (span-1) stage. `a.len()` is a power of two ≥ 16.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn ntt_forward(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) {
        let n = a.len();
        debug_assert!(n >= 16 && n.is_power_of_two());
        let qv = _mm512_set1_epi64(q as i64);
        let two_q = _mm512_set1_epi64((2 * q) as i64);
        let mut m = 1usize;
        let mut t = n >> 1;
        // Stages with span >= 8: contiguous 8-lane loads. Each block is
        // split once and walked with exact-chunk iterators so the inner
        // loop carries no per-iteration bounds checks.
        while t >= 8 {
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = _mm512_set1_epi64(psi_rev[m + i] as i64);
                let s_sh = _mm512_set1_epi64(psi_rev_shoup[m + i] as i64);
                let (lo_half, hi_half) = a[j1..j1 + 2 * t].split_at_mut(t);
                let (lcs, _) = lo_half.as_chunks_mut::<8>();
                let (hcs, _) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in lcs.iter_mut().zip(hcs.iter_mut()) {
                    let u = csub(load(lc), two_q);
                    let v = shoup_lazy(load(hc), s, s_sh, qv);
                    store(lc, _mm512_add_epi64(u, v));
                    store(hc, _mm512_add_epi64(u, _mm512_sub_epi64(two_q, v)));
                }
            }
            m <<= 1;
            t >>= 1;
        }
        // Span-4 stage: two 8-element blocks [u(4) v(4)] per 16-chunk.
        debug_assert_eq!(t, 4);
        {
            let gather_u = idx(0, 1, 2, 3, 8, 9, 10, 11);
            let gather_v = idx(4, 5, 6, 7, 12, 13, 14, 15);
            let spread = idx(0, 0, 0, 0, 1, 1, 1, 1);
            let (blocks, _) = a.as_chunks_mut::<16>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<2>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<2>();
            for ((block, s2), s2_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..8]);
                let v1 = load(&block[8..]);
                let u = _mm512_permutex2var_epi64(v0, gather_u, v1);
                let v = _mm512_permutex2var_epi64(v0, gather_v, v1);
                let s = _mm512_permutexvar_epi64(spread, load2(s2));
                let s_sh = _mm512_permutexvar_epi64(spread, load2(s2_sh));
                let uu = csub(u, two_q);
                let vv = shoup_lazy(v, s, s_sh, qv);
                let lo = _mm512_add_epi64(uu, vv);
                let hi = _mm512_add_epi64(uu, _mm512_sub_epi64(two_q, vv));
                store(&mut block[..8], _mm512_permutex2var_epi64(lo, gather_u, hi));
                store(&mut block[8..], _mm512_permutex2var_epi64(lo, gather_v, hi));
            }
            m <<= 1;
        }
        // Span-2 stage: four 4-element blocks [u(2) v(2)] per 16-chunk.
        {
            let gather_u = idx(0, 1, 4, 5, 8, 9, 12, 13);
            let gather_v = idx(2, 3, 6, 7, 10, 11, 14, 15);
            let pack_lo = idx(0, 1, 8, 9, 2, 3, 10, 11);
            let pack_hi = idx(4, 5, 12, 13, 6, 7, 14, 15);
            let spread = idx(0, 0, 1, 1, 2, 2, 3, 3);
            let (blocks, _) = a.as_chunks_mut::<16>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<4>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<4>();
            for ((block, s4), s4_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..8]);
                let v1 = load(&block[8..]);
                let u = _mm512_permutex2var_epi64(v0, gather_u, v1);
                let v = _mm512_permutex2var_epi64(v0, gather_v, v1);
                let s = _mm512_permutexvar_epi64(spread, load4(s4));
                let s_sh = _mm512_permutexvar_epi64(spread, load4(s4_sh));
                let uu = csub(u, two_q);
                let vv = shoup_lazy(v, s, s_sh, qv);
                let lo = _mm512_add_epi64(uu, vv);
                let hi = _mm512_add_epi64(uu, _mm512_sub_epi64(two_q, vv));
                store(&mut block[..8], _mm512_permutex2var_epi64(lo, pack_lo, hi));
                store(&mut block[8..], _mm512_permutex2var_epi64(lo, pack_hi, hi));
            }
            m <<= 1;
        }
        // Span-1 stage, fused with the [0,4q) -> [0,q) correction.
        {
            let gather_u = idx(0, 2, 4, 6, 8, 10, 12, 14);
            let gather_v = idx(1, 3, 5, 7, 9, 11, 13, 15);
            let pack_lo = idx(0, 8, 1, 9, 2, 10, 3, 11);
            let pack_hi = idx(4, 12, 5, 13, 6, 14, 7, 15);
            let (blocks, _) = a.as_chunks_mut::<16>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<8>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<8>();
            for ((block, s8), s8_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..8]);
                let v1 = load(&block[8..]);
                let u = _mm512_permutex2var_epi64(v0, gather_u, v1);
                let v = _mm512_permutex2var_epi64(v0, gather_v, v1);
                let s = load(s8);
                let s_sh = load(s8_sh);
                let uu = csub(u, two_q);
                let vv = shoup_lazy(v, s, s_sh, qv);
                let lo = reduce_4q_v(_mm512_add_epi64(uu, vv), two_q, qv);
                let hi = reduce_4q_v(_mm512_add_epi64(uu, _mm512_sub_epi64(two_q, vv)), two_q, qv);
                store(&mut block[..8], _mm512_permutex2var_epi64(lo, pack_lo, hi));
                store(&mut block[8..], _mm512_permutex2var_epi64(lo, pack_hi, hi));
            }
        }
    }

    /// Inverse lazy NTT; the `1/n` scaling is fused into the last stage
    /// (sum lanes scaled by `n_inv`, difference lanes by `ψ⁻¹·n_inv`).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn ntt_inverse(
        a: &mut [u64],
        inv_psi_rev: &[u64],
        inv_psi_rev_shoup: &[u64],
        n_inv: u64,
        n_inv_shoup: u64,
        q: u64,
    ) {
        let n = a.len();
        debug_assert!(n >= 16 && n.is_power_of_two());
        let qv = _mm512_set1_epi64(q as i64);
        let two_q = _mm512_set1_epi64((2 * q) as i64);
        // Span-1 stage (h = n/2).
        {
            let gather_u = idx(0, 2, 4, 6, 8, 10, 12, 14);
            let gather_v = idx(1, 3, 5, 7, 9, 11, 13, 15);
            let pack_lo = idx(0, 8, 1, 9, 2, 10, 3, 11);
            let pack_hi = idx(4, 12, 5, 13, 6, 14, 7, 15);
            let h = n >> 1;
            let (blocks, _) = a.as_chunks_mut::<16>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<8>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<8>();
            for ((block, s8), s8_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..8]);
                let v1 = load(&block[8..]);
                let u = _mm512_permutex2var_epi64(v0, gather_u, v1);
                let v = _mm512_permutex2var_epi64(v0, gather_v, v1);
                let s = load(s8);
                let s_sh = load(s8_sh);
                let sum = csub(_mm512_add_epi64(u, v), two_q);
                let dif = shoup_lazy(_mm512_sub_epi64(_mm512_add_epi64(u, two_q), v), s, s_sh, qv);
                store(
                    &mut block[..8],
                    _mm512_permutex2var_epi64(sum, pack_lo, dif),
                );
                store(
                    &mut block[8..],
                    _mm512_permutex2var_epi64(sum, pack_hi, dif),
                );
            }
        }
        // Span-2 stage (h = n/4).
        {
            let gather_u = idx(0, 1, 4, 5, 8, 9, 12, 13);
            let gather_v = idx(2, 3, 6, 7, 10, 11, 14, 15);
            let pack_lo = idx(0, 1, 8, 9, 2, 3, 10, 11);
            let pack_hi = idx(4, 5, 12, 13, 6, 7, 14, 15);
            let spread = idx(0, 0, 1, 1, 2, 2, 3, 3);
            let h = n >> 2;
            let (blocks, _) = a.as_chunks_mut::<16>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<4>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<4>();
            for ((block, s4), s4_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..8]);
                let v1 = load(&block[8..]);
                let u = _mm512_permutex2var_epi64(v0, gather_u, v1);
                let v = _mm512_permutex2var_epi64(v0, gather_v, v1);
                let s = _mm512_permutexvar_epi64(spread, load4(s4));
                let s_sh = _mm512_permutexvar_epi64(spread, load4(s4_sh));
                let sum = csub(_mm512_add_epi64(u, v), two_q);
                let dif = shoup_lazy(_mm512_sub_epi64(_mm512_add_epi64(u, two_q), v), s, s_sh, qv);
                store(
                    &mut block[..8],
                    _mm512_permutex2var_epi64(sum, pack_lo, dif),
                );
                store(
                    &mut block[8..],
                    _mm512_permutex2var_epi64(sum, pack_hi, dif),
                );
            }
        }
        // Span-4 stage (h = n/8).
        {
            let gather_u = idx(0, 1, 2, 3, 8, 9, 10, 11);
            let gather_v = idx(4, 5, 6, 7, 12, 13, 14, 15);
            let spread = idx(0, 0, 0, 0, 1, 1, 1, 1);
            let h = n >> 3;
            let (blocks, _) = a.as_chunks_mut::<16>();
            let (tw, _) = inv_psi_rev[h..2 * h].as_chunks::<2>();
            let (tw_sh, _) = inv_psi_rev_shoup[h..2 * h].as_chunks::<2>();
            for ((block, s2), s2_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..8]);
                let v1 = load(&block[8..]);
                let u = _mm512_permutex2var_epi64(v0, gather_u, v1);
                let v = _mm512_permutex2var_epi64(v0, gather_v, v1);
                let s = _mm512_permutexvar_epi64(spread, load2(s2));
                let s_sh = _mm512_permutexvar_epi64(spread, load2(s2_sh));
                let sum = csub(_mm512_add_epi64(u, v), two_q);
                let dif = shoup_lazy(_mm512_sub_epi64(_mm512_add_epi64(u, two_q), v), s, s_sh, qv);
                store(
                    &mut block[..8],
                    _mm512_permutex2var_epi64(sum, gather_u, dif),
                );
                store(
                    &mut block[8..],
                    _mm512_permutex2var_epi64(sum, gather_v, dif),
                );
            }
        }
        // Stages with span >= 8, except the last (h == 1) stage.
        let mut t = 8usize;
        let mut h = n >> 4;
        while h >= 2 {
            let mut j1 = 0;
            for i in 0..h {
                let s = _mm512_set1_epi64(inv_psi_rev[h + i] as i64);
                let s_sh = _mm512_set1_epi64(inv_psi_rev_shoup[h + i] as i64);
                let (lo_half, hi_half) = a[j1..j1 + 2 * t].split_at_mut(t);
                let (lcs, _) = lo_half.as_chunks_mut::<8>();
                let (hcs, _) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in lcs.iter_mut().zip(hcs.iter_mut()) {
                    let u = load(lc);
                    let v = load(hc);
                    let sum = csub(_mm512_add_epi64(u, v), two_q);
                    let dif =
                        shoup_lazy(_mm512_sub_epi64(_mm512_add_epi64(u, two_q), v), s, s_sh, qv);
                    store(lc, sum);
                    store(hc, dif);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            h >>= 1;
        }
        // Last stage (h == 1) fused with the 1/n scaling (see the AVX2
        // twin for the bit-identity argument).
        {
            debug_assert_eq!(t, n >> 1);
            let s = inv_psi_rev[1];
            let s_ninv = crate::modops::mul_mod(s, n_inv, q);
            let s_ninv_sh = crate::modops::shoup_precompute(s_ninv, q);
            let sv = _mm512_set1_epi64(s_ninv as i64);
            let sv_sh = _mm512_set1_epi64(s_ninv_sh as i64);
            let ni = _mm512_set1_epi64(n_inv as i64);
            let ni_sh = _mm512_set1_epi64(n_inv_shoup as i64);
            let (lo_half, hi_half) = a.split_at_mut(t);
            let (lcs, _) = lo_half.as_chunks_mut::<8>();
            let (hcs, _) = hi_half.as_chunks_mut::<8>();
            for (lc, hc) in lcs.iter_mut().zip(hcs.iter_mut()) {
                let u = load(lc);
                let v = load(hc);
                let sum = csub(_mm512_add_epi64(u, v), two_q);
                let lo = shoup_lazy(sum, ni, ni_sh, qv);
                let hi = shoup_lazy(
                    _mm512_sub_epi64(_mm512_add_epi64(u, two_q), v),
                    sv,
                    sv_sh,
                    qv,
                );
                store(lc, csub(lo, qv));
                store(hc, csub(hi, qv));
            }
        }
    }

    /// Vector body + scalar tail for `add_mod` over rows.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn add_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = _mm512_set1_epi64(q as i64);
        let len8 = a.len() & !7;
        let mut j = 0;
        while j < len8 {
            let s = _mm512_add_epi64(load(&a[j..j + 8]), load(&b[j..j + 8]));
            store(&mut a[j..j + 8], csub(s, qv));
            j += 8;
        }
        for (x, &y) in a[len8..].iter_mut().zip(&b[len8..]) {
            *x = add_mod(*x, y, q);
        }
    }

    /// Vector body + scalar tail for `sub_mod` over rows.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn sub_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = _mm512_set1_epi64(q as i64);
        let len8 = a.len() & !7;
        let mut j = 0;
        while j < len8 {
            let x = load(&a[j..j + 8]);
            let y = load(&b[j..j + 8]);
            let borrow = _mm512_cmplt_epu64_mask(x, y);
            let d = _mm512_sub_epi64(x, y);
            store(&mut a[j..j + 8], _mm512_mask_add_epi64(d, borrow, d, qv));
            j += 8;
        }
        for (x, &y) in a[len8..].iter_mut().zip(&b[len8..]) {
            *x = sub_mod(*x, y, q);
        }
    }

    /// Vector body + scalar tail for constant Shoup multiplication.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn scalar_mul_shoup_slices(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
        let qv = _mm512_set1_epi64(q as i64);
        let sv = _mm512_set1_epi64(s as i64);
        let sv_sh = _mm512_set1_epi64(s_shoup as i64);
        let len8 = a.len() & !7;
        let mut j = 0;
        while j < len8 {
            let r = shoup_lazy(load(&a[j..j + 8]), sv, sv_sh, qv);
            store(&mut a[j..j + 8], csub(r, qv));
            j += 8;
        }
        for x in a[len8..].iter_mut() {
            *x = mul_mod_shoup(*x, s, s_shoup, q);
        }
    }

    /// Vector body + scalar tail for the per-lane-Shoup dyadic product.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub fn dyadic_mul_shoup_slices(a: &mut [u64], b: &[u64], b_shoup: &[u64], q: u64) {
        let qv = _mm512_set1_epi64(q as i64);
        let len8 = a.len() & !7;
        let mut j = 0;
        while j < len8 {
            let r = shoup_lazy(
                load(&a[j..j + 8]),
                load(&b[j..j + 8]),
                load(&b_shoup[j..j + 8]),
                qv,
            );
            store(&mut a[j..j + 8], csub(r, qv));
            j += 8;
        }
        for ((x, &y), &ys) in a[len8..].iter_mut().zip(&b[len8..]).zip(&b_shoup[len8..]) {
            *x = mul_mod_shoup(*x, y, ys, q);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON kernels: 2×u64 lanes, mirroring the AVX2 structure. The
    //! 128-bit products come from four `vmull_u32` 32×32→64 partials; the
    //! unsigned compare (`vcgeq_u64`) is native, so no signed-range trick
    //! is needed. With only two lanes, the span-2 stage needs no shuffles
    //! (one vector holds exactly one block half); span-1 uses the
    //! interleaved `vld2q`/`vst2q` pair.

    use super::{add_mod, mul_mod_shoup, sub_mod};
    use core::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    #[inline]
    fn load(src: &[u64]) -> uint64x2_t {
        debug_assert!(src.len() >= 2);
        // SAFETY: the slice holds at least two elements.
        unsafe { vld1q_u64(src.as_ptr()) }
    }

    #[target_feature(enable = "neon")]
    #[inline]
    fn store(dst: &mut [u64], v: uint64x2_t) {
        debug_assert!(dst.len() >= 2);
        // SAFETY: the slice holds at least two elements.
        unsafe { vst1q_u64(dst.as_mut_ptr(), v) }
    }

    /// Interleaved pair load: `.0` = even indices, `.1` = odd indices.
    #[target_feature(enable = "neon")]
    #[inline]
    fn load2(src: &[u64]) -> uint64x2x2_t {
        debug_assert!(src.len() >= 4);
        // SAFETY: the slice holds at least four elements.
        unsafe { vld2q_u64(src.as_ptr()) }
    }

    /// Interleaved pair store (inverse of [`load2`]).
    #[target_feature(enable = "neon")]
    #[inline]
    fn store2(dst: &mut [u64], v: uint64x2x2_t) {
        debug_assert!(dst.len() >= 4);
        // SAFETY: the slice holds at least four elements.
        unsafe { vst2q_u64(dst.as_mut_ptr(), v) }
    }

    /// High 64 bits of the unsigned 64×64 product, lane-wise.
    #[target_feature(enable = "neon")]
    #[inline]
    fn mulhi_u64(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        let lo32 = vdupq_n_u64(0xFFFF_FFFF);
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let ll = vmull_u32(a_lo, b_lo);
        let lh = vmull_u32(a_lo, b_hi);
        let hl = vmull_u32(a_hi, b_lo);
        let hh = vmull_u32(a_hi, b_hi);
        let cross = vaddq_u64(
            vaddq_u64(vshrq_n_u64::<32>(ll), vandq_u64(hl, lo32)),
            vandq_u64(lh, lo32),
        );
        vaddq_u64(
            vaddq_u64(hh, vshrq_n_u64::<32>(cross)),
            vaddq_u64(vshrq_n_u64::<32>(hl), vshrq_n_u64::<32>(lh)),
        )
    }

    /// Low 64 bits of the product (wrapping), lane-wise.
    #[target_feature(enable = "neon")]
    #[inline]
    fn mullo_u64(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let ll = vmull_u32(a_lo, b_lo);
        let cross = vaddq_u64(vmull_u32(a_lo, b_hi), vmull_u32(a_hi, b_lo));
        vaddq_u64(ll, vshlq_n_u64::<32>(cross))
    }

    /// `mul_mod_shoup_lazy` lane-wise: result in `[0, 2q)`.
    #[target_feature(enable = "neon")]
    #[inline]
    fn shoup_lazy(a: uint64x2_t, b: uint64x2_t, b_shoup: uint64x2_t, q: uint64x2_t) -> uint64x2_t {
        let hi = mulhi_u64(a, b_shoup);
        vsubq_u64(mullo_u64(a, b), mullo_u64(hi, q))
    }

    /// `if x >= bound { x - bound } else { x }` lane-wise (native unsigned
    /// compare).
    #[target_feature(enable = "neon")]
    #[inline]
    fn csub(x: uint64x2_t, bound: uint64x2_t) -> uint64x2_t {
        let ge = vcgeq_u64(x, bound);
        vsubq_u64(x, vandq_u64(bound, ge))
    }

    /// `reduce_4q` lane-wise.
    #[target_feature(enable = "neon")]
    #[inline]
    fn reduce_4q_v(x: uint64x2_t, two_q: uint64x2_t, q: uint64x2_t) -> uint64x2_t {
        csub(csub(x, two_q), q)
    }

    /// Forward lazy NTT with the final correction folded into the last
    /// (span-1) stage. `a.len()` is a power of two ≥ 8.
    #[target_feature(enable = "neon")]
    pub fn ntt_forward(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) {
        let n = a.len();
        debug_assert!(n >= 8 && n.is_power_of_two());
        let qv = vdupq_n_u64(q);
        let two_q = vdupq_n_u64(2 * q);
        let mut m = 1usize;
        let mut t = n >> 1;
        // Stages with span >= 2: contiguous 2-lane loads on both halves.
        while t >= 2 {
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = vdupq_n_u64(psi_rev[m + i]);
                let s_sh = vdupq_n_u64(psi_rev_shoup[m + i]);
                let mut j = j1;
                while j < j1 + t {
                    let u = csub(load(&a[j..j + 2]), two_q);
                    let v = shoup_lazy(load(&a[j + t..j + t + 2]), s, s_sh, qv);
                    store(&mut a[j..j + 2], vaddq_u64(u, v));
                    store(&mut a[j + t..j + t + 2], vaddq_u64(u, vsubq_u64(two_q, v)));
                    j += 2;
                }
            }
            m <<= 1;
            t >>= 1;
        }
        // Span-1 stage fused with the [0,4q) -> [0,q) correction.
        {
            let mut i = 0;
            while i < m {
                let j = 2 * i;
                let pair = load2(&a[j..j + 4]);
                let s = load(&psi_rev[m + i..m + i + 2]);
                let s_sh = load(&psi_rev_shoup[m + i..m + i + 2]);
                let uu = csub(pair.0, two_q);
                let vv = shoup_lazy(pair.1, s, s_sh, qv);
                let lo = reduce_4q_v(vaddq_u64(uu, vv), two_q, qv);
                let hi = reduce_4q_v(vaddq_u64(uu, vsubq_u64(two_q, vv)), two_q, qv);
                store2(&mut a[j..j + 4], uint64x2x2_t(lo, hi));
                i += 2;
            }
        }
    }

    /// Inverse lazy NTT including the `1/n` scaling sweep.
    #[target_feature(enable = "neon")]
    pub fn ntt_inverse(
        a: &mut [u64],
        inv_psi_rev: &[u64],
        inv_psi_rev_shoup: &[u64],
        n_inv: u64,
        n_inv_shoup: u64,
        q: u64,
    ) {
        let n = a.len();
        debug_assert!(n >= 8 && n.is_power_of_two());
        let qv = vdupq_n_u64(q);
        let two_q = vdupq_n_u64(2 * q);
        // Span-1 stage (h = n/2): interleaved pair loads.
        {
            let h = n >> 1;
            let mut i = 0;
            while i < h {
                let j = 2 * i;
                let pair = load2(&a[j..j + 4]);
                let s = load(&inv_psi_rev[h + i..h + i + 2]);
                let s_sh = load(&inv_psi_rev_shoup[h + i..h + i + 2]);
                let sum = csub(vaddq_u64(pair.0, pair.1), two_q);
                let dif = shoup_lazy(vsubq_u64(vaddq_u64(pair.0, two_q), pair.1), s, s_sh, qv);
                store2(&mut a[j..j + 4], uint64x2x2_t(sum, dif));
                i += 2;
            }
        }
        // Stages with span >= 2.
        let mut t = 2usize;
        let mut h = n >> 2;
        while h >= 1 {
            let mut j1 = 0;
            for i in 0..h {
                let s = vdupq_n_u64(inv_psi_rev[h + i]);
                let s_sh = vdupq_n_u64(inv_psi_rev_shoup[h + i]);
                let mut j = j1;
                while j < j1 + t {
                    let u = load(&a[j..j + 2]);
                    let v = load(&a[j + t..j + t + 2]);
                    let sum = csub(vaddq_u64(u, v), two_q);
                    let dif = shoup_lazy(vsubq_u64(vaddq_u64(u, two_q), v), s, s_sh, qv);
                    store(&mut a[j..j + 2], sum);
                    store(&mut a[j + t..j + t + 2], dif);
                    j += 2;
                }
                j1 += 2 * t;
            }
            t <<= 1;
            h >>= 1;
        }
        // Final 1/n Shoup scaling: full reduction, one pass.
        let ni = vdupq_n_u64(n_inv);
        let ni_sh = vdupq_n_u64(n_inv_shoup);
        let mut j = 0;
        while j < n {
            let x = shoup_lazy(load(&a[j..j + 2]), ni, ni_sh, qv);
            store(&mut a[j..j + 2], csub(x, qv));
            j += 2;
        }
    }

    /// Vector body + scalar tail for `add_mod` over rows.
    #[target_feature(enable = "neon")]
    pub fn add_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = vdupq_n_u64(q);
        let len2 = a.len() & !1;
        let mut j = 0;
        while j < len2 {
            let s = vaddq_u64(load(&a[j..j + 2]), load(&b[j..j + 2]));
            store(&mut a[j..j + 2], csub(s, qv));
            j += 2;
        }
        for (x, &y) in a[len2..].iter_mut().zip(&b[len2..]) {
            *x = add_mod(*x, y, q);
        }
    }

    /// Vector body + scalar tail for `sub_mod` over rows.
    #[target_feature(enable = "neon")]
    pub fn sub_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = vdupq_n_u64(q);
        let len2 = a.len() & !1;
        let mut j = 0;
        while j < len2 {
            let x = load(&a[j..j + 2]);
            let y = load(&b[j..j + 2]);
            let borrow = vcgtq_u64(y, x);
            let d = vsubq_u64(x, y);
            store(&mut a[j..j + 2], vaddq_u64(d, vandq_u64(borrow, qv)));
            j += 2;
        }
        for (x, &y) in a[len2..].iter_mut().zip(&b[len2..]) {
            *x = sub_mod(*x, y, q);
        }
    }

    /// Vector body + scalar tail for constant Shoup multiplication.
    #[target_feature(enable = "neon")]
    pub fn scalar_mul_shoup_slices(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
        let qv = vdupq_n_u64(q);
        let sv = vdupq_n_u64(s);
        let sv_sh = vdupq_n_u64(s_shoup);
        let len2 = a.len() & !1;
        let mut j = 0;
        while j < len2 {
            let r = shoup_lazy(load(&a[j..j + 2]), sv, sv_sh, qv);
            store(&mut a[j..j + 2], csub(r, qv));
            j += 2;
        }
        for x in a[len2..].iter_mut() {
            *x = mul_mod_shoup(*x, s, s_shoup, q);
        }
    }

    /// Vector body + scalar tail for the per-lane-Shoup dyadic product.
    #[target_feature(enable = "neon")]
    pub fn dyadic_mul_shoup_slices(a: &mut [u64], b: &[u64], b_shoup: &[u64], q: u64) {
        let qv = vdupq_n_u64(q);
        let len2 = a.len() & !1;
        let mut j = 0;
        while j < len2 {
            let r = shoup_lazy(
                load(&a[j..j + 2]),
                load(&b[j..j + 2]),
                load(&b_shoup[j..j + 2]),
                qv,
            );
            store(&mut a[j..j + 2], csub(r, qv));
            j += 2;
        }
        for ((x, &y), &ys) in a[len2..].iter_mut().zip(&b[len2..]).zip(&b_shoup[len2..]) {
            *x = mul_mod_shoup(*x, y, ys, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::shoup_precompute;

    #[test]
    fn backend_reports_a_name() {
        let b = backend();
        assert!(!b.name().is_empty());
        // On any host the scalar fallback must at least be reachable.
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert!(!Backend::Scalar.is_vector());
        assert!(Backend::Avx2.is_vector() && Backend::Neon.is_vector());
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
            assert_eq!(add[i], crate::modops::add_mod(a[i], b[i], q));
            assert_eq!(sub[i], crate::modops::sub_mod(a[i], b[i], q));
        }

        let s = 0x1234_5678_9ABC % q;
        let s_sh = shoup_precompute(s, q);
        let mut smul = a.clone();
        scalar_mul_shoup_slices(&mut smul, s, s_sh, q);
        let b_sh: Vec<u64> = b.iter().map(|&x| shoup_precompute(x, q)).collect();
        let mut dmul = a.clone();
        dyadic_mul_shoup_slices(&mut dmul, &b, &b_sh, q);
        for i in 0..len {
            assert_eq!(smul[i], mul_mod_shoup(a[i], s, s_sh, q));
            assert_eq!(dmul[i], mul_mod_shoup(a[i], b[i], b_sh[i], q));
        }
    }
}
