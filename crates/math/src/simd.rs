//! The vector kernels that beat their twins on the bench: the AVX2 Harvey
//! lazy forward and inverse NTTs, the AVX-512 IFMA forward and inverse
//! NTTs for primes below 2^50 ([`NttKernel`]), the row-wise modular add and
//! subtract, the 8-lane BLAKE3 compression under `choco-prng`'s XOF
//! ([`blake3_root8`]) and whole-chunk hashing ([`blake3_chunks8`]), and the
//! Box–Muller evaluation under `choco-prng`'s error sampler
//! ([`box_muller`], AVX2 + FMA).
//!
//! Everything else in the crate — the Shoup scalar and dyadic multiplies —
//! runs the scalar loops in [`crate::ntt`] and [`crate::poly`], and the
//! rest of BLAKE3 (parent nodes, partial chunks, short outputs) the scalar
//! code in `choco_prng::blake3`; `bench_kernels` times each kernel kept here
//! against its twin (the IFMA transforms against AVX2, the rest against
//! scalar) and fails on a ratio below its gate (DESIGN.md §12).
//!
//! Apart from the single lifetime erasure in [`crate::par`], this is the
//! only module in the workspace that contains `unsafe` code, and every
//! unsafe token in it is one of exactly two shapes:
//!
//! 1. an unaligned vector load/store through a length-checked slice or
//!    array pointer (`_mm256_loadu_si256` / `_mm256_storeu_si256`, and
//!    `_mm512_loadu_si512` / `_mm512_storeu_si512` of one `[u64; 8]`), and
//! 2. a call from safe dispatch code into a `#[target_feature]` function,
//!    guarded by runtime CPU detection.
//!
//! All lane arithmetic uses the safe-intrinsics-in-`target_feature`
//! rules (Rust ≥ 1.89 for the AVX-512 ones). The crate root is
//! `#![deny(unsafe_code)]` and this module opts out locally; `choco-lint`
//! pins the exact unsafe token count in `lint.toml` (UNSAFE001/UNSAFE002)
//! so any new unsafe site fails CI until it is reviewed.
//!
//! # Bit-identical by construction
//!
//! Every AVX2 kernel performs the *same* integer operations as its scalar
//! twin in [`crate::modops`] / [`crate::ntt`] — Shoup high-half
//! multiplies, wrapping low-half multiplies, conditional subtractions —
//! just four lanes at a time; the BLAKE3 kernels run eight independent
//! compressions, one per `u32` lane, each the scalar compression's wrapping
//! adds, xors and rotations word for word (`choco-prng`'s `tests/lanes.rs`
//! holds them to the scalar code). The IFMA transforms run the same
//! butterflies eight lanes at a time with a 52-bit Shoup word, so their
//! lazy intermediates are other representatives of the same residues. The
//! inverse NTTs' vector forms fold the `1/n` scaling into the last stage's
//! twiddle instead of sweeping once more. Every transform ends in fully
//! reduced residues, and those are unique. Modular arithmetic on `u64` is
//! exact, so the results are bit-identical, not merely numerically close;
//! the property suite in `crates/math/tests/prop_math.rs` (each transform
//! kernel called directly) and the `CHOCO_SIMD=0/1` CI matrix enforce this.
//!
//! [`box_muller`] is the one floating-point kernel, and the one without a
//! scalar arm: off AVX2 + FMA it writes nothing and `choco-prng` keeps its
//! libm parse. Its output is an approximation by contract, and the bits
//! that matter are the error values `choco-prng` rounds from it, which are
//! exact by guard and fallback rather than by construction (DESIGN.md §12).
//!
//! # Dispatch model
//!
//! [`backend`] resolves once per process (`OnceLock`): `CHOCO_SIMD=0` (or
//! `scalar`) forces the scalar reference the CI matrix compares against;
//! any other value, or none, selects [`Backend::Avx512`] when the CPU has
//! AVX2, `avx512f` and `avx512ifma`, else [`Backend::Avx2`] when it has
//! AVX2. The row ops and BLAKE3 run AVX2 on both vector backends, and so
//! does [`box_muller`] where the CPU also has FMA. Each
//! [`NttTable`](crate::ntt::NttTable) picks its transform kernel once, at
//! construction: IFMA when the backend is `Avx512` and its prime is below
//! [`IFMA_MODULUS_BOUND`], else AVX2 on a vector backend, else scalar. Hosts
//! without AVX2 run exactly the code a forced-scalar process runs.

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
    /// AVX2, plus the AVX-512 IFMA transforms for primes below 2^50
    /// ([`NttKernel::Ifma`]): x86_64 with `avx512f` and `avx512ifma`.
    Avx512,
    /// Never returned; stays only while `benchmark/` matches on it.
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
    *BACKEND.get_or_init(|| {
        let forced = std::env::var("CHOCO_SIMD").ok();
        detect(forced.as_deref(), have_avx2(), have_ifma())
    })
}

/// `forced` is the `CHOCO_SIMD` value, if set: `0`/`scalar` selects the
/// scalar reference, and nothing else changes the choice.
fn detect(forced: Option<&str>, have_avx2: bool, have_ifma: bool) -> Backend {
    match forced.map(str::trim) {
        Some("0" | "scalar") => Backend::Scalar,
        _ if have_avx2 && have_ifma => Backend::Avx512,
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

/// Whether the CPU has what the IFMA kernels are compiled for: `avx512f`
/// and `avx512ifma`, and AVX2, which `avx512f` implies to the compiler and
/// whose loads they share.
fn have_ifma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        have_avx2()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Primes the IFMA transforms take: below `2^50`, so every lazy value
/// (below `4q`) fits the 52-bit multiplier inputs of `vpmadd52{lo,hi}uq`.
pub const IFMA_MODULUS_BOUND: u64 = 1 << 50;

/// The kernel an [`NttTable`](crate::ntt::NttTable) runs its forward and
/// inverse transforms on; every kernel returns the same canonical residues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttKernel {
    /// The scalar lazy loops in [`crate::ntt`].
    Scalar,
    /// AVX2, 4×u64 lanes, the 64-bit Shoup products built from 32-bit
    /// partial products: any table prime, `n ≥ 8`.
    Avx2,
    /// AVX-512 IFMA, 8×u64 lanes, Shoup products on the native 52-bit
    /// multiplier: primes below [`IFMA_MODULUS_BOUND`], `n ≥ 16`.
    Ifma,
}

impl NttKernel {
    /// The fastest kernel the process [`backend`] allows for an `n`-point
    /// transform mod `q`.
    pub(crate) fn select(n: usize, q: u64) -> NttKernel {
        let allowed: &[NttKernel] = match backend() {
            Backend::Avx512 => &[NttKernel::Ifma, NttKernel::Avx2],
            Backend::Avx2 => &[NttKernel::Avx2],
            Backend::Scalar | Backend::Neon => &[],
        };
        let runs = allowed.iter().find(|k| k.runs(n, q));
        runs.copied().unwrap_or(NttKernel::Scalar)
    }

    /// Whether this CPU can run the kernel on an `n`-point transform mod
    /// `q`, whatever `CHOCO_SIMD` selected.
    fn runs(self, n: usize, q: u64) -> bool {
        match self {
            NttKernel::Scalar => true,
            NttKernel::Avx2 => n >= 8 && have_avx2(),
            NttKernel::Ifma => n >= 16 && q < IFMA_MODULUS_BOUND && have_ifma(),
        }
    }
}

/// Vectorized in-place forward lazy NTT (Cooley–Tukey, bit-reversed
/// twiddles, final `[0,4q) → [0,q)` correction folded into the last
/// stage) on `kernel`. Returns `false` when `kernel` is
/// [`NttKernel::Scalar`] or cannot run here — the caller runs its scalar
/// path instead, or reports that the kernel did not run.
///
/// `a.len()` must be a power of two and equal the twiddle table length.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn ntt_forward_lazy(
    kernel: NttKernel,
    a: &mut [u64],
    psi_rev: &[u64],
    psi_rev_shoup: &[u64],
    q: u64,
) -> bool {
    if !kernel.runs(a.len(), q) {
        return false;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        NttKernel::Avx2 => {
            // SAFETY: `runs` confirmed the avx2 feature on this CPU.
            unsafe { avx2::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        NttKernel::Ifma => {
            // SAFETY: `runs` confirmed avx2, avx512f and avx512ifma here.
            unsafe { ifma::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        _ => false,
    }
}

/// Vectorized in-place inverse lazy NTT (Gentleman–Sande, bit-reversed
/// inverse twiddles, the `1/n` scaling folded into the last stage; output
/// in `[0, q)`) on `kernel`. `n_inv` is `(n⁻¹ mod q, its Shoup constant)`.
/// Returns `false` as [`ntt_forward_lazy`] does.
///
/// `a.len()` must be a power of two and equal the twiddle table length.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn ntt_inverse_lazy(
    kernel: NttKernel,
    a: &mut [u64],
    inv_psi_rev: &[u64],
    inv_psi_rev_shoup: &[u64],
    n_inv: (u64, u64),
    q: u64,
) -> bool {
    if !kernel.runs(a.len(), q) {
        return false;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        NttKernel::Avx2 => {
            // SAFETY: `runs` confirmed the avx2 feature on this CPU.
            unsafe { avx2::ntt_inverse(a, inv_psi_rev, inv_psi_rev_shoup, n_inv, q) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        NttKernel::Ifma => {
            // SAFETY: `runs` confirmed avx2, avx512f and avx512ifma here.
            unsafe { ifma::ntt_inverse(a, inv_psi_rev, inv_psi_rev_shoup, n_inv, q) };
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
        Backend::Avx2 | Backend::Avx512 if a.len() >= 4 => {
            // SAFETY: both backends are returned only after detection
            // confirmed avx2.
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
        Backend::Avx2 | Backend::Avx512 if a.len() >= 4 => {
            // SAFETY: both backends are returned only after detection
            // confirmed avx2.
            unsafe { avx2::sub_mod_slices(a, b, q) }
        }
        _ => {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = sub_mod(*x, y, q);
            }
        }
    }
}

/// BLAKE3 root output blocks `counter..counter + 8` of one node — input
/// chaining value `cv`, message `block` of `block_len` bytes, `flags`
/// (ROOT included) — written to `out` 64 bytes per block, eight
/// compressions at once. Returns `false` when no vector backend is active
/// — the caller runs its scalar compressions instead.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn blake3_root8(
    cv: &[u32; 8],
    block: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
    out: &mut [u8; 512],
) -> bool {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            // SAFETY: both backends are returned only after detection
            // confirmed avx2.
            unsafe { avx2::blake3_root8(cv, block, counter, block_len, flags, out) };
            true
        }
        _ => false,
    }
}

/// The BLAKE3 chaining values of eight whole chunks that follow each other
/// in `chunks`, chunk `j` at chunk counter `counter + j`, under `key` and
/// `flags` (0, or KEYED_HASH), eight compressions at once. None of them may
/// be the root. Returns `false` when no vector backend is active — the
/// caller hashes the chunks one at a time instead.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn blake3_chunks8(
    chunks: &[u8; 8192],
    key: &[u32; 8],
    counter: u64,
    flags: u32,
    cvs: &mut [[u32; 8]; 8],
) -> bool {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            // SAFETY: both backends are returned only after detection
            // confirmed avx2.
            unsafe { avx2::blake3_chunks8(chunks, key, counter, flags, cvs) };
            true
        }
        _ => false,
    }
}

/// Whether the CPU has what the Box–Muller vector arm is compiled for:
/// AVX2 and FMA.
fn have_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        have_avx2() && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `1/(2k + 1)` for `k = 0..=9`: `ln m = 2s·Σ s^{2k}/(2k + 1)` with
/// `s = (m − 1)/(m + 1)`, and `|s| ≤ 0.1716` for `m ∈ [√½, √2)`, so the
/// first term left out is below `2^-55` of the sum.
const ATANH_SERIES: [f64; 10] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
];

/// `(−1)^k (2π)^{2k} / (2k)!` for `k = 0..=10`: `cos 2πr` as a polynomial
/// in `r²`, for `r ∈ [0, ¼]` (the angle in `[0, π/2]`), where the first
/// term left out is below `2·10^-17`.
const COS_SERIES: [f64; 11] = [
    1.0,
    -19.739208802178716,
    64.9393940226683,
    -85.45681720669373,
    60.24464137187666,
    -26.4262567833744,
    7.903536371318469,
    -1.714390711088672,
    0.28200596845579123,
    -0.03638284114254567,
    0.0037798342006800396,
];

/// The bit pattern of `1.0`, and the mask of an `f64`'s mantissa field.
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
const MANTISSA: u64 = (1 << 52) - 1;

/// Box–Muller values `σ·√(−2 ln u1)·cos(2π u2)` of the 16-byte pairs in
/// `pairs`, one per whole pair, written to the front of `out` (as many as
/// both hold) where the backend is a vector one and the CPU has FMA; every
/// other process gets nothing written, and `choco-prng` evaluates each pair
/// by libm there, as it did before this kernel. A pair is two
/// little-endian words `w1`, `w2`, and `u1`, `u2` are `choco-prng`'s
/// `unit_f64` of them (the top 53 bits over `2^53`), `u1` raised to
/// `f64::MIN_POSITIVE`.
///
/// The values are approximations, not libm's: `ln u1` is the exponent plus
/// an atanh series on the mantissa reduced to `[√½, √2)`, and `cos 2πu2` an
/// even polynomial on the angle folded to `[0, π/2]`, four lanes at a time
/// on AVX2 + FMA. They lie within `10^-13` of the libm expression
/// `choco-prng` samples by (DESIGN.md §12 derives the bound, its tests
/// measure the gap), which is how its sampler can round them exactly: it
/// takes libm wherever that gap could move a rounding.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
// choco-lint: ct-safe
pub fn box_muller(pairs: &[u8], sigma: f64, out: &mut [f64]) {
    if !(backend().is_vector() && have_fma()) {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let n = out.len().min(pairs.len() / 16);
        let (pairs, _) = pairs.split_at(16 * n);
        // SAFETY: called only after detection confirmed avx2 and fma.
        unsafe { avx2::box_muller(pairs, sigma, out.split_at_mut(n).0) };
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
    //!
    //! The BLAKE3 kernels at the end use 8×u32 lanes instead.

    use super::{add_mod, sub_mod, ATANH_SERIES, COS_SERIES, MANTISSA, ONE_BITS};
    use core::arch::x86_64::*;

    /// The number types a vector is loaded from and stored to: every bit
    /// pattern is a value and there is no padding, so 32 bytes of them are
    /// one `__m256i` and back.
    pub(super) trait Word: Copy {}
    impl Word for u8 {}
    impl Word for u32 {}
    impl Word for u64 {}
    impl Word for f64 {}

    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn load<T: Word>(src: &[T]) -> __m256i {
        debug_assert!(size_of_val(src) >= 32);
        // SAFETY: the slice holds at least 32 bytes of plain integers
        // (checked above in debug builds, by construction in callers);
        // unaligned load.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store<T: Word>(dst: &mut [T], v: __m256i) {
        debug_assert!(size_of_val(dst) >= 32);
        // SAFETY: the slice holds at least 32 bytes of plain integers, any
        // bit pattern of which is valid; unaligned store.
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

    /// `f64` lanes of integers below `2^52`: the integer in a double's
    /// mantissa under the exponent of `2^52`, less `2^52` (both exact).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn small_to_f64(x: __m256i) -> __m256d {
        let two52 = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        let as_double = _mm256_castsi256_pd(_mm256_or_si256(x, two52));
        _mm256_sub_pd(as_double, _mm256_castsi256_pd(two52))
    }

    /// `unit_f64` lane-wise: the top 53 bits over `2^53`, exactly. The high
    /// 21 bits ride in a double of exponent 84 and the low 32 in one of
    /// exponent 52; their sum less `2^84 + 2^52` is the 53-bit integer.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn unit(w: __m256i) -> __m256d {
        let x = _mm256_srli_epi64::<11>(w);
        let hi = _mm256_or_si256(
            _mm256_srli_epi64::<32>(x),
            _mm256_set1_epi64x(0x4530_0000_0000_0000),
        );
        let lo = _mm256_or_si256(
            _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFF_FFFF)),
            _mm256_set1_epi64x(0x4330_0000_0000_0000),
        );
        let hi = _mm256_sub_pd(
            _mm256_castsi256_pd(hi),
            _mm256_set1_pd(f64::from_bits(0x4530_0000_0010_0000)),
        );
        let x = _mm256_add_pd(hi, _mm256_castsi256_pd(lo));
        _mm256_mul_pd(x, _mm256_set1_pd(1.0 / (1u64 << 53) as f64))
    }

    /// `Σ c_k x^k` over `series` by Horner's rule on FMAs.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn horner(series: &[f64], x: __m256d) -> __m256d {
        series.iter().rev().fold(_mm256_setzero_pd(), |acc, &c| {
            _mm256_fmadd_pd(acc, x, _mm256_set1_pd(c))
        })
    }

    /// `σ·√(−2 ln u1)·cos 2πu2` of four pairs, `w1` and `w2` their words
    /// lane by lane. `ln u1 = e·ln 2 + ln m`, `m` the mantissa in `[1, 2)`
    /// halved above `√2`, and `ln m = 2s·Σ s^{2k}/(2k + 1)` with
    /// `s = (m − 1)/(m + 1)`. `cos 2πu2 = cos 2πt` for
    /// `t = min(u2, 1 − u2) ∈ [0, ½]`, and past `¼` it is
    /// `−cos 2π(½ − t)`; both differences are exact. Selects are blends
    /// and masks.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn box_muller4(w1: __m256i, w2: __m256i, sigma: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let half = _mm256_set1_pd(0.5);
        let u1 = _mm256_max_pd(unit(w1), _mm256_set1_pd(f64::MIN_POSITIVE));
        let u2 = unit(w2);
        let bits = _mm256_castpd_si256(u1);
        let m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi64x(MANTISSA as i64)),
            _mm256_set1_epi64x(ONE_BITS as i64),
        ));
        let big = _mm256_cmp_pd::<_CMP_GT_OQ>(m, _mm256_set1_pd(std::f64::consts::SQRT_2));
        let m = _mm256_mul_pd(m, _mm256_blendv_pd(one, half, big));
        let e = _mm256_add_pd(
            small_to_f64(_mm256_srli_epi64::<52>(bits)),
            _mm256_sub_pd(_mm256_and_pd(big, one), _mm256_set1_pd(1023.0)),
        );
        let s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let atanh = horner(&ATANH_SERIES, _mm256_mul_pd(s, s));
        let ln_m = _mm256_mul_pd(_mm256_add_pd(s, s), atanh);
        let ln_u1 = _mm256_fmadd_pd(e, _mm256_set1_pd(std::f64::consts::LN_2), ln_m);
        let mag = _mm256_sqrt_pd(_mm256_mul_pd(ln_u1, _mm256_set1_pd(-2.0)));
        let t = _mm256_min_pd(u2, _mm256_sub_pd(one, u2));
        let r = _mm256_min_pd(t, _mm256_sub_pd(half, t));
        let past = _mm256_cmp_pd::<_CMP_GT_OQ>(t, _mm256_set1_pd(0.25));
        let cos = horner(&COS_SERIES, _mm256_mul_pd(r, r));
        let cos = _mm256_xor_pd(cos, _mm256_and_pd(past, _mm256_set1_pd(-0.0)));
        _mm256_mul_pd(_mm256_mul_pd(sigma, mag), cos)
    }

    /// [`box_muller4`] of one 64-byte quad of pairs, in pair order. The
    /// quad is two vectors of `[w1, w2, w1, w2]`; unpacking them gives the
    /// lanes in pair order 0, 2, 1, 3, which one permute puts back.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn box_muller_quad(quad: &[u8], sigma: __m256d) -> __m256i {
        let (a, b) = quad.split_at(32);
        let (a, b) = (load(a), load(b));
        let z = box_muller4(
            _mm256_unpacklo_epi64(a, b),
            _mm256_unpackhi_epi64(a, b),
            sigma,
        );
        _mm256_castpd_si256(_mm256_permute4x64_pd::<0b11_01_10_00>(z))
    }

    /// [`super::box_muller`] on `pairs.len() / 16` pairs into as many
    /// slots of `out`, four pairs per step. The last one to three pairs are
    /// copied into a zeroed quad and only their lanes are kept.
    #[target_feature(enable = "avx2,fma")]
    pub fn box_muller(pairs: &[u8], sigma: f64, out: &mut [f64]) {
        debug_assert_eq!(pairs.len(), 16 * out.len());
        let sigma = _mm256_set1_pd(sigma);
        let mut quads = pairs.chunks_exact(64);
        let mut slots = out.chunks_exact_mut(4);
        for (quad, slot) in (&mut quads).zip(&mut slots) {
            store(slot, box_muller_quad(quad, sigma));
        }
        let (rest, tail) = (quads.remainder(), slots.into_remainder());
        if !tail.is_empty() {
            let mut quad = [0u8; 64];
            quad.split_at_mut(rest.len()).0.copy_from_slice(rest);
            let mut lanes = [0.0; 4];
            store(&mut lanes, box_muller_quad(&quad, sigma));
            tail.copy_from_slice(lanes.split_at(tail.len()).0);
        }
    }

    // BLAKE3, eight compressions at once: lane `j` of every vector belongs
    // to compression `j`, so the sixteen state words and sixteen message
    // words of eight compressions are sixteen `__m256i` each, and one G is
    // the scalar G's adds, xors and rotations on all eight at once.

    /// BLAKE3's first four IV words: state words 8–11 of every compression.
    const B3_IV: [u32; 4] = [0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A];
    const B3_CHUNK_START: u32 = 1 << 0;
    const B3_CHUNK_END: u32 = 1 << 1;

    /// Four state or message words, one vector of eight lanes each.
    type Quad = [__m256i; 4];

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(x: u32) -> __m256i {
        _mm256_set1_epi32(x as i32)
    }

    /// `x.rotate_right(16)` lane-wise: a byte shuffle.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotr16(x: __m256i) -> __m256i {
        let order = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        _mm256_shuffle_epi8(x, order)
    }

    /// `x.rotate_right(8)` lane-wise: a byte shuffle.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotr8(x: __m256i) -> __m256i {
        let order = _mm256_setr_epi8(
            1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12, //
            1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12,
        );
        _mm256_shuffle_epi8(x, order)
    }

    /// `x.rotate_right(12)` lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotr12(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_srli_epi32::<12>(x), _mm256_slli_epi32::<20>(x))
    }

    /// `x.rotate_right(7)` lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotr7(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_srli_epi32::<7>(x), _mm256_slli_epi32::<25>(x))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn xor4(x: Quad, y: Quad) -> Quad {
        let [x0, x1, x2, x3] = x;
        let [y0, y1, y2, y3] = y;
        [
            _mm256_xor_si256(x0, y0),
            _mm256_xor_si256(x1, y1),
            _mm256_xor_si256(x2, y2),
            _mm256_xor_si256(x3, y3),
        ]
    }

    /// The scalar G on column `i` of the rows `a, b, c, d` for every `i`,
    /// with message words `mx[i]` and `my[i]`, each step issued for all
    /// four columns before the next, so their dependency chains overlap. A
    /// macro, not a function, so that it always inlines and the state stays
    /// in registers.
    macro_rules! g4 {
        ($a:ident, $b:ident, $c:ident, $d:ident, $mx:expr, $my:expr) => {{
            let (mx, my): (Quad, Quad) = ($mx, $my);
            for (a, (b, m)) in $a.iter_mut().zip($b.iter().zip(mx)) {
                *a = _mm256_add_epi32(_mm256_add_epi32(*a, *b), m);
            }
            for (d, a) in $d.iter_mut().zip(&$a) {
                *d = rotr16(_mm256_xor_si256(*d, *a));
            }
            for (c, d) in $c.iter_mut().zip(&$d) {
                *c = _mm256_add_epi32(*c, *d);
            }
            for (b, c) in $b.iter_mut().zip(&$c) {
                *b = rotr12(_mm256_xor_si256(*b, *c));
            }
            for (a, (b, m)) in $a.iter_mut().zip($b.iter().zip(my)) {
                *a = _mm256_add_epi32(_mm256_add_epi32(*a, *b), m);
            }
            for (d, a) in $d.iter_mut().zip(&$a) {
                *d = rotr8(_mm256_xor_si256(*d, *a));
            }
            for (c, d) in $c.iter_mut().zip(&$d) {
                *c = _mm256_add_epi32(*c, *d);
            }
            for (b, c) in $b.iter_mut().zip(&$c) {
                *b = rotr7(_mm256_xor_si256(*b, *c));
            }
        }};
    }

    /// Eight compressions' state rows `[a, b, c, d]` (words 0–3, 4–7, 8–11,
    /// 12–15) after the seven rounds, before the feed-forward; `cv` is the
    /// input chaining value's two halves, `counter` the lanes' `(low, high)`
    /// counter words.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn compress8(
        cv: [Quad; 2],
        m: [Quad; 4],
        counter: (__m256i, __m256i),
        block_len: u32,
        flags: u32,
    ) -> [Quad; 4] {
        let [mut a, mut b] = cv;
        let [iv0, iv1, iv2, iv3] = B3_IV;
        let mut c = [splat(iv0), splat(iv1), splat(iv2), splat(iv3)];
        let mut d = [counter.0, counter.1, splat(block_len), splat(flags)];
        let [[m0, m1, m2, m3], [m4, m5, m6, m7], [m8, m9, m10, m11], [m12, m13, m14, m15]] = m;
        let m = [
            m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15,
        ];
        // One round on message `$m`, evaluating to the message permuted
        // for the next. Written out seven times below, not looped: the loop
        // does not unroll, and unrolled the permutation is a renaming
        // rather than a shuffle through memory.
        macro_rules! round {
            ($m:expr) => {{
                let [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15] = $m;
                // The columns.
                g4!(a, b, c, d, [m0, m2, m4, m6], [m1, m3, m5, m7]);
                // The diagonals: rows b, c and d turned left by one, two
                // and three words line diagonal `i` up as column `i`, and
                // back.
                let ([b0, b1, b2, b3], [c0, c1, c2, c3], [d0, d1, d2, d3]) = (b, c, d);
                (b, c, d) = ([b1, b2, b3, b0], [c2, c3, c0, c1], [d3, d0, d1, d2]);
                g4!(a, b, c, d, [m8, m10, m12, m14], [m9, m11, m13, m15]);
                let ([b1, b2, b3, b0], [c2, c3, c0, c1], [d3, d0, d1, d2]) = (b, c, d);
                (b, c, d) = ([b0, b1, b2, b3], [c0, c1, c2, c3], [d0, d1, d2, d3]);
                // BLAKE3's message permutation.
                [
                    m2, m6, m3, m10, m7, m0, m4, m13, m1, m11, m12, m5, m9, m14, m15, m8,
                ]
            }};
        }
        let m = round!(m);
        let m = round!(m);
        let m = round!(m);
        let m = round!(m);
        let m = round!(m);
        let m = round!(m);
        round!(m);
        [a, b, c, d]
    }

    /// The low and high words of the counters `counter..counter + 8`, one
    /// per lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn counters8(counter: u64) -> (__m256i, __m256i) {
        let mut lo = [0u32; 8];
        let mut hi = [0u32; 8];
        for (j, (lo, hi)) in (0..).zip(lo.iter_mut().zip(&mut hi)) {
            let c = counter.wrapping_add(j);
            (*lo, *hi) = (c as u32, (c >> 32) as u32);
        }
        (load(&lo), load(&hi))
    }

    /// Eight words broadcast to all lanes, as two quads.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat8(words: &[u32; 8]) -> [Quad; 2] {
        let [w0, w1, w2, w3, w4, w5, w6, w7] = *words;
        [
            [splat(w0), splat(w1), splat(w2), splat(w3)],
            [splat(w4), splat(w5), splat(w6), splat(w7)],
        ]
    }

    /// The 8 × 8 transpose of `u32` words: lane `j` of output `i` is lane
    /// `i` of input `j`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose8([r0, r1, r2, r3, r4, r5, r6, r7]: [__m256i; 8]) -> [Quad; 2] {
        // Pairs of rows interleaved word-wise, then pairs of those
        // interleaved 64-bit-wise: each 128-bit half now holds four words
        // of one column, and the halves are swapped into place last.
        let t0 = _mm256_unpacklo_epi32(r0, r1);
        let t1 = _mm256_unpackhi_epi32(r0, r1);
        let t2 = _mm256_unpacklo_epi32(r2, r3);
        let t3 = _mm256_unpackhi_epi32(r2, r3);
        let t4 = _mm256_unpacklo_epi32(r4, r5);
        let t5 = _mm256_unpackhi_epi32(r4, r5);
        let t6 = _mm256_unpacklo_epi32(r6, r7);
        let t7 = _mm256_unpackhi_epi32(r6, r7);
        let u0 = _mm256_unpacklo_epi64(t0, t2); // column 0 | column 4, rows 0-3
        let u1 = _mm256_unpackhi_epi64(t0, t2); // 1 | 5
        let u2 = _mm256_unpacklo_epi64(t1, t3); // 2 | 6
        let u3 = _mm256_unpackhi_epi64(t1, t3); // 3 | 7
        let u4 = _mm256_unpacklo_epi64(t4, t6); // the same, rows 4-7
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            [
                _mm256_permute2x128_si256::<0x20>(u0, u4),
                _mm256_permute2x128_si256::<0x20>(u1, u5),
                _mm256_permute2x128_si256::<0x20>(u2, u6),
                _mm256_permute2x128_si256::<0x20>(u3, u7),
            ],
            [
                _mm256_permute2x128_si256::<0x31>(u0, u4),
                _mm256_permute2x128_si256::<0x31>(u1, u5),
                _mm256_permute2x128_si256::<0x31>(u2, u6),
                _mm256_permute2x128_si256::<0x31>(u3, u7),
            ],
        ]
    }

    /// Eight root output blocks of one node, counters `counter..counter +
    /// 8`: every lane compresses the same chaining value and message.
    #[target_feature(enable = "avx2")]
    pub fn blake3_root8(
        cv: &[u32; 8],
        block: &[u32; 16],
        counter: u64,
        block_len: u32,
        flags: u32,
        out: &mut [u8; 512],
    ) {
        let h = splat8(cv);
        let (words, _) = block.as_chunks::<8>();
        let mut m = [[_mm256_setzero_si256(); 4]; 4];
        for (m, words) in m.as_chunks_mut::<2>().0.iter_mut().zip(words) {
            *m = splat8(words);
        }
        let [a, b, c, d] = compress8(h, m, counters8(counter), block_len, flags);
        // The root's feed-forward: words 0–7 are (a, b) ^ (c, d), words
        // 8–15 are (c, d) ^ cv; transposed back, lane `j` is block `j`.
        let [[w0, w1, w2, w3], [w4, w5, w6, w7]] = [xor4(a, c), xor4(b, d)];
        let low = transpose8([w0, w1, w2, w3, w4, w5, w6, w7]);
        let [h_low, h_high] = h;
        let [[w8, w9, w10, w11], [w12, w13, w14, w15]] = [xor4(c, h_low), xor4(d, h_high)];
        let high = transpose8([w8, w9, w10, w11, w12, w13, w14, w15]);
        let (blocks, _) = out.as_chunks_mut::<64>();
        let columns = low.into_iter().flatten().zip(high.into_iter().flatten());
        for (block, (low, high)) in blocks.iter_mut().zip(columns) {
            let (first, second) = block.split_at_mut(32);
            store(first, low);
            store(second, high);
        }
    }

    /// The chaining values of eight whole chunks, chunk `j` at
    /// `chunks[1024·j..]` with counter `counter + j`.
    #[target_feature(enable = "avx2")]
    pub fn blake3_chunks8(
        chunks: &[u8; 8192],
        key: &[u32; 8],
        counter: u64,
        flags: u32,
        cvs: &mut [[u32; 8]; 8],
    ) {
        let mut h = splat8(key);
        let counter = counters8(counter);
        let zero = _mm256_setzero_si256();
        for block in 0..16 {
            // Block `block` of every chunk as two rows of eight words per
            // chunk, transposed so vector `i` holds word `i` of every chunk.
            let mut low = [zero; 8];
            let mut high = [zero; 8];
            let rows = low.iter_mut().zip(&mut high);
            for ((low, high), chunk) in rows.zip(chunks.chunks_exact(1024)) {
                let (halves, _) = chunk[64 * block..64 * block + 64].as_chunks::<32>();
                for (row, half) in [low, high].into_iter().zip(halves) {
                    *row = load(half);
                }
            }
            let [m0, m1] = transpose8(low);
            let [m2, m3] = transpose8(high);
            let mut block_flags = flags;
            if block == 0 {
                block_flags |= B3_CHUNK_START;
            }
            if block == 15 {
                block_flags |= B3_CHUNK_END;
            }
            let [a, b, c, d] = compress8(h, [m0, m1, m2, m3], counter, 64, block_flags);
            h = [xor4(a, c), xor4(b, d)];
        }
        let [[h0, h1, h2, h3], [h4, h5, h6, h7]] = h;
        let lanes = transpose8([h0, h1, h2, h3, h4, h5, h6, h7]);
        for (cv, lane) in cvs.iter_mut().zip(lanes.into_iter().flatten()) {
            store(cv, lane);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    //! AVX-512 IFMA kernels: 8×u64 lanes, for primes below
    //! [`super::IFMA_MODULUS_BOUND`]. `vpmadd52luq` / `vpmadd52huq` add the
    //! low or high 52 bits of a 52×52-bit product to a lane, which makes a
    //! Shoup product with the word size `β = 2^52` three instructions: for
    //! `x < 2^52`, `w < q` and `w' = ⌊w·2^52/q⌋`, `x·w − ⌊x·w'/2^52⌋·q`
    //! lies in `[0, 2q)`, below `2^52`, so the low 52 bits of the difference
    //! are the value. Lazy values stay below `4q ≤ 2^52`: that is the prime
    //! bound. `w'` is the table's 64-bit Shoup constant `⌊w·2^64/q⌋`
    //! shifted right by 12, so every kernel reads the same tables. The lazy
    //! stages carry other representatives than the 64-bit kernels (another
    //! `β`); the canonical residues they end in are the same.
    //!
    //! A conditional subtraction is `min(x, x − b)` on unsigned lanes: the
    //! difference wraps above `x` exactly when `x < b`.
    //!
    //! The stages of span 4, 2 and 1 run inside two vectors, sixteen
    //! coefficients at a time: `vpermt2q` gathers the butterflies' tops and
    //! bottoms into one vector each and scatters the results back.

    use core::arch::x86_64::*;

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load(src: &[u64; 8]) -> __m512i {
        // SAFETY: the array is 64 bytes of `u64`; unaligned load.
        unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn store(dst: &mut [u64; 8], v: __m512i) {
        // SAFETY: the array is 64 bytes of `u64`, any bit pattern of which
        // is valid; unaligned store.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
    }

    /// The modulus in every lane, with the constants the butterflies need.
    #[derive(Clone, Copy)]
    struct Modulus {
        q: __m512i,
        two_q: __m512i,
        /// `2^52 − q`: `x·(2^52 − q) ≡ −x·q (mod 2^52)`.
        neg_q: __m512i,
        low52: __m512i,
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn modulus(q: u64) -> Modulus {
        Modulus {
            q: _mm512_set1_epi64(q as i64),
            two_q: _mm512_set1_epi64((2 * q) as i64),
            neg_q: _mm512_set1_epi64(((1u64 << 52) - q) as i64),
            low52: _mm512_set1_epi64(((1u64 << 52) - 1) as i64),
        }
    }

    /// Twiddles and their 52-bit Shoup constants, lane for lane.
    type Twiddle = (__m512i, __m512i);

    /// One twiddle in every lane.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(w: u64, w_shoup: u64) -> Twiddle {
        (
            _mm512_set1_epi64(w as i64),
            _mm512_set1_epi64((w_shoup >> 12) as i64),
        )
    }

    /// Two twiddles, each in four lanes: the span-4 stage's two blocks.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn halves(&[w0, w1]: &[u64; 2], &[s0, s1]: &[u64; 2]) -> Twiddle {
        let ((w0, s0), (w1, s1)) = (splat(w0, s0), splat(w1, s1));
        (
            _mm512_mask_blend_epi64(0xF0, w0, w1),
            _mm512_mask_blend_epi64(0xF0, s0, s1),
        )
    }

    /// Four twiddles, each in two lanes: the span-2 stage's four blocks.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn pairs(w: &[u64; 4], w_shoup: &[u64; 4]) -> Twiddle {
        let spread = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);
        let four = |x: &[u64; 4]| _mm512_castsi256_si512(super::avx2::load(x));
        (
            _mm512_permutexvar_epi64(spread, four(w)),
            _mm512_srli_epi64::<12>(_mm512_permutexvar_epi64(spread, four(w_shoup))),
        )
    }

    /// Eight twiddles, one per lane: the span-1 stage's eight blocks.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes(w: &[u64; 8], w_shoup: &[u64; 8]) -> Twiddle {
        (load(w), _mm512_srli_epi64::<12>(load(w_shoup)))
    }

    /// `x·w mod q` in `[0, 2q)` for `x < 2^52`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn shoup_lazy(x: __m512i, (w, w_shoup): Twiddle, m: Modulus) -> __m512i {
        let zero = _mm512_setzero_si512();
        let hi = _mm512_madd52hi_epu64(zero, x, w_shoup);
        let xw = _mm512_madd52lo_epu64(zero, x, w);
        _mm512_and_si512(_mm512_madd52lo_epu64(xw, hi, m.neg_q), m.low52)
    }

    /// `if x >= bound { x - bound } else { x }` lane-wise.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn csub(x: __m512i, bound: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, bound))
    }

    /// Cooley–Tukey butterfly on lazy values below `4q`; both outputs stay
    /// below `4q`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn ct(u: __m512i, v: __m512i, w: Twiddle, m: Modulus) -> (__m512i, __m512i) {
        let u = csub(u, m.two_q);
        let v = shoup_lazy(v, w, m);
        let diff = _mm512_sub_epi64(m.two_q, v);
        (_mm512_add_epi64(u, v), _mm512_add_epi64(u, diff))
    }

    /// Gentleman–Sande butterfly on values below `2q`; both outputs stay
    /// below `2q`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn gs(u: __m512i, v: __m512i, w: Twiddle, m: Modulus) -> (__m512i, __m512i) {
        let sum = csub(_mm512_add_epi64(u, v), m.two_q);
        let diff = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
        (sum, shoup_lazy(diff, w, m))
    }

    /// The lane shuffles of one in-register stage over sixteen
    /// coefficients held as two vectors (`vpermt2q` indices: below 8 the
    /// first operand's lanes, from 8 the second's).
    struct Shuffle {
        /// The butterflies' tops, out of the coefficients.
        tops: __m512i,
        /// Their bottoms.
        bottoms: __m512i,
        /// Coefficients 0–7, out of the results (tops, then bottoms).
        low: __m512i,
        /// Coefficients 8–15.
        high: __m512i,
    }

    impl Shuffle {
        /// The stage of span `t` ∈ {1, 2, 4}: blocks of `2t`
        /// coefficients, the top half of each butterflied with the bottom.
        #[target_feature(enable = "avx512f")]
        fn new(t: u64) -> Shuffle {
            let (mut tops, mut bottoms) = ([0u64; 8], [0u64; 8]);
            let slots = tops.iter_mut().zip(&mut bottoms);
            for (lane, (top, bottom)) in (0..8).zip(slots) {
                *top = lane / t * 2 * t + lane % t;
                *bottom = *top + t;
            }
            let mut back = [[0u64; 8]; 2];
            for (k, lane) in (0..16).zip(back.iter_mut().flatten()) {
                let (block, offset) = (k / (2 * t), k % (2 * t));
                *lane = if offset < t {
                    block * t + offset
                } else {
                    8 + block * t + offset - t
                };
            }
            let [low, high] = back;
            Shuffle {
                tops: load(&tops),
                bottoms: load(&bottoms),
                low: load(&low),
                high: load(&high),
            }
        }

        /// The butterflies' `(tops, bottoms)` of coefficients `(x, y)`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn split(&self, (x, y): (__m512i, __m512i)) -> (__m512i, __m512i) {
            (
                _mm512_permutex2var_epi64(x, self.tops, y),
                _mm512_permutex2var_epi64(x, self.bottoms, y),
            )
        }

        /// The coefficients of the butterflies' results `(tops, bottoms)`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn join(&self, (u, v): (__m512i, __m512i)) -> (__m512i, __m512i) {
            (
                _mm512_permutex2var_epi64(u, self.low, v),
                _mm512_permutex2var_epi64(u, self.high, v),
            )
        }
    }

    /// The twiddles of the in-register stages of span 4, 2 and 1 — table
    /// entries `n/8..n/4`, `n/4..n/2` and `n/2..n` — as the runs of
    /// sixteen coefficients use them: two, four and eight per run.
    type RunTwiddles<'a> = (&'a [[u64; 2]], &'a [[u64; 4]], &'a [[u64; 8]]);

    fn run_twiddles(table: &[u64]) -> RunTwiddles<'_> {
        let n = table.len();
        let (head, span1) = table.split_at(n / 2);
        let (head, span2) = head.split_at(n / 4);
        let (_, span4) = head.split_at(n / 8);
        (
            span4.as_chunks().0,
            span2.as_chunks().0,
            span1.as_chunks().0,
        )
    }

    /// Forward lazy NTT: the stages of span ≥ 8 with one broadcast twiddle
    /// per block, then spans 4, 2 and 1 in registers, the last with the
    /// `[0, 4q) → [0, q)` correction. `a.len()` is a power of two ≥ 16.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub fn ntt_forward(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) {
        let n = a.len();
        debug_assert!(n >= 16 && n.is_power_of_two() && q < super::IFMA_MODULUS_BOUND);
        let m = modulus(q);
        let mut t = n >> 1;
        while t >= 8 {
            // Stage of span t: n / 2t blocks, twiddles n/2t.. in order.
            let tw = psi_rev.iter().zip(psi_rev_shoup).skip(n / (2 * t));
            for (block, (&w, &w_shoup)) in a.chunks_exact_mut(2 * t).zip(tw) {
                let w = splat(w, w_shoup);
                let (top, bottom) = block.split_at_mut(t);
                let (top, _) = top.as_chunks_mut::<8>();
                let (bottom, _) = bottom.as_chunks_mut::<8>();
                for (x, y) in top.iter_mut().zip(bottom) {
                    let (u, v) = ct(load(x), load(y), w, m);
                    store(x, u);
                    store(y, v);
                }
            }
            t >>= 1;
        }
        let (s4, s2, s1) = (Shuffle::new(4), Shuffle::new(2), Shuffle::new(1));
        let (w4, w2, w1) = run_twiddles(psi_rev);
        let (w4_shoup, w2_shoup, w1_shoup) = run_twiddles(psi_rev_shoup);
        let tw = (w4.iter().zip(w4_shoup))
            .zip(w2.iter().zip(w2_shoup))
            .zip(w1.iter().zip(w1_shoup));
        let (runs, _) = a.as_chunks_mut::<8>();
        let (runs, _) = runs.as_chunks_mut::<2>();
        for ([x, y], ((w4, w2), w1)) in runs.iter_mut().zip(tw) {
            let (u, v) = s4.split((load(x), load(y)));
            let xy = s4.join(ct(u, v, halves(w4.0, w4.1), m));
            let (u, v) = s2.split(xy);
            let xy = s2.join(ct(u, v, pairs(w2.0, w2.1), m));
            let (u, v) = s1.split(xy);
            let (u, v) = ct(u, v, lanes(w1.0, w1.1), m);
            let reduce = |x| csub(csub(x, m.two_q), m.q);
            let (lo, hi) = s1.join((reduce(u), reduce(v)));
            store(x, lo);
            store(y, hi);
        }
    }

    /// Inverse lazy NTT: spans 1, 2 and 4 in registers, the stages of span
    /// 8 to `n/4` with one broadcast twiddle per block, and the last stage
    /// (span `n/2`) fused with the `1/n` scaling as in the AVX2 kernel.
    /// `a.len()` is a power of two ≥ 16.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub fn ntt_inverse(
        a: &mut [u64],
        inv_psi_rev: &[u64],
        inv_psi_rev_shoup: &[u64],
        (n_inv, n_inv_shoup): (u64, u64),
        q: u64,
    ) {
        let n = a.len();
        debug_assert!(n >= 16 && n.is_power_of_two() && q < super::IFMA_MODULUS_BOUND);
        let m = modulus(q);
        let (s1, s2, s4) = (Shuffle::new(1), Shuffle::new(2), Shuffle::new(4));
        let (w4, w2, w1) = run_twiddles(inv_psi_rev);
        let (w4_shoup, w2_shoup, w1_shoup) = run_twiddles(inv_psi_rev_shoup);
        let tw = (w1.iter().zip(w1_shoup))
            .zip(w2.iter().zip(w2_shoup))
            .zip(w4.iter().zip(w4_shoup));
        let (runs, _) = a.as_chunks_mut::<8>();
        let (runs, _) = runs.as_chunks_mut::<2>();
        for ([x, y], ((w1, w2), w4)) in runs.iter_mut().zip(tw) {
            let (u, v) = s1.split((load(x), load(y)));
            let xy = s1.join(gs(u, v, lanes(w1.0, w1.1), m));
            let (u, v) = s2.split(xy);
            let xy = s2.join(gs(u, v, pairs(w2.0, w2.1), m));
            let (u, v) = s4.split(xy);
            let (lo, hi) = s4.join(gs(u, v, halves(w4.0, w4.1), m));
            store(x, lo);
            store(y, hi);
        }
        let mut t = 8;
        while t < n / 2 {
            let tw = inv_psi_rev.iter().zip(inv_psi_rev_shoup).skip(n / (2 * t));
            for (block, (&w, &w_shoup)) in a.chunks_exact_mut(2 * t).zip(tw) {
                let w = splat(w, w_shoup);
                let (top, bottom) = block.split_at_mut(t);
                let (top, _) = top.as_chunks_mut::<8>();
                let (bottom, _) = bottom.as_chunks_mut::<8>();
                for (x, y) in top.iter_mut().zip(bottom) {
                    let (sum, diff) = gs(load(x), load(y), w, m);
                    store(x, sum);
                    store(y, diff);
                }
            }
            t <<= 1;
        }
        // The last stage, one block under twiddle s, with the 1/n scaling:
        // the sum times n⁻¹ and the difference times s·n⁻¹, each reduced
        // in full.
        let n_inv_w = splat(n_inv, n_inv_shoup);
        for (block, &s) in a.chunks_exact_mut(n).zip(inv_psi_rev.iter().skip(1)) {
            let s_ninv = crate::modops::mul_mod(s, n_inv, q);
            let s_ninv = splat(s_ninv, crate::modops::shoup_precompute(s_ninv, q));
            let (top, bottom) = block.split_at_mut(n / 2);
            let (top, _) = top.as_chunks_mut::<8>();
            let (bottom, _) = bottom.as_chunks_mut::<8>();
            for (x, y) in top.iter_mut().zip(bottom) {
                let (u, v) = (load(x), load(y));
                let sum = csub(_mm512_add_epi64(u, v), m.two_q);
                let diff = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
                store(x, csub(shoup_lazy(sum, n_inv_w, m), m.q));
                store(y, csub(shoup_lazy(diff, s_ninv, m), m.q));
            }
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
        assert!(Backend::Avx512.is_vector());
    }

    #[test]
    fn detect_honours_only_the_scalar_switch() {
        for (have_avx2, have_ifma) in [(false, false), (true, false), (true, true)] {
            for forced in ["0", "scalar", " scalar ", " 0\n"] {
                assert_eq!(detect(Some(forced), have_avx2, have_ifma), Backend::Scalar);
            }
        }
        // "1", unset, junk and the retired backend names all mean "best
        // available": AVX-512 with IFMA, else AVX2, else nothing.
        for forced in [
            None,
            Some("1"),
            Some(""),
            Some("avx2"),
            Some("avx512"),
            Some("neon"),
        ] {
            assert_eq!(detect(forced, true, true), Backend::Avx512, "{forced:?}");
            assert_eq!(detect(forced, true, false), Backend::Avx2, "{forced:?}");
            assert_eq!(detect(forced, false, false), Backend::Scalar, "{forced:?}");
            // The IFMA kernels call AVX2 code: IFMA alone selects nothing.
            assert_eq!(detect(forced, false, true), Backend::Scalar, "{forced:?}");
        }
    }

    #[test]
    fn primes_from_2_pow_50_never_take_the_ifma_kernel() {
        use crate::ntt::NttTable;
        use crate::prime::generate_ntt_primes;
        let n = 4096;
        for bits in [51, 55, 60] {
            let q = generate_ntt_primes(bits, n, 1)[0];
            assert!(q >= IFMA_MODULUS_BOUND);
            let t = NttTable::new(n, q).unwrap();
            assert_ne!(t.kernel(), NttKernel::Ifma, "{bits}-bit prime");
            let row: Vec<u64> = (0..n as u64).map(|i| i * 7 % q).collect();
            let mut a = row.clone();
            assert!(!t.forward_with(NttKernel::Ifma, &mut a), "{bits} bits");
            assert!(!t.inverse_with(NttKernel::Ifma, &mut a), "{bits} bits");
            assert_eq!(a, row, "a kernel that did not run left the row alone");
        }
        // Below the bound the table takes IFMA exactly when the process
        // backend is AVX-512 (CHOCO_SIMD=0 keeps it scalar).
        let q = generate_ntt_primes(36, n, 1)[0];
        let kernel = NttTable::new(n, q).unwrap().kernel();
        let expect = match backend() {
            Backend::Avx512 => NttKernel::Ifma,
            Backend::Avx2 => NttKernel::Avx2,
            Backend::Scalar | Backend::Neon => NttKernel::Scalar,
        };
        assert_eq!(kernel, expect);
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

    #[test]
    fn box_muller_agrees_with_libm_lane_for_lane_tails_included() {
        // Pair counts that are not a multiple of four take the padded last
        // quad; a short `out` bounds the write. Words from a fixed LCG, and
        // the zero pair. Off the AVX2 + FMA arm nothing is written.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut words: Vec<u64> = (0..38)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect();
        words.extend([0, 0]);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let libm: Vec<f64> = words
            .chunks_exact(2)
            .map(|w| {
                let unit = |w: u64| (w >> 11) as f64 / (1u64 << 53) as f64;
                let u1 = unit(w[0]).max(f64::MIN_POSITIVE);
                let mag = (-2.0 * u1.ln()).sqrt();
                3.2 * mag * (2.0 * std::f64::consts::PI * unit(w[1])).cos()
            })
            .collect();
        let runs = backend().is_vector() && have_fma();
        for pairs in 0..=libm.len() {
            let (input, _) = bytes.split_at(16 * pairs);
            let mut z = vec![f64::NAN; pairs + 1];
            box_muller(input, 3.2, &mut z);
            assert!(z[pairs].is_nan(), "no value past the last pair");
            for (i, &exact) in libm.iter().take(pairs).enumerate() {
                if runs {
                    assert!((z[i] - exact).abs() < 1e-13, "{pairs}: lane {i}");
                } else {
                    assert!(z[i].is_nan(), "{pairs}: lane {i} written");
                }
            }
            let mut short = vec![f64::NAN; pairs.saturating_sub(1)];
            box_muller(input, 3.2, &mut short);
            assert!(short
                .iter()
                .zip(&z)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
