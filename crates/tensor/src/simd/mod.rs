//! Explicit SIMD lanes with one-time runtime dispatch.
//!
//! The paper's latency budget collapses onto the GEMM/conv microkernel
//! (§6): wide-vector execution is the first rung of the acceleration
//! ladder below full GPU/FPGA offload. This module is that rung for the
//! CPU baseline — a small portable 8-wide `f32` lane abstraction
//! ([`scalar`], `avx2`, `neon` backends share one kernel body via the
//! `lane_kernels!` macro) plus slice-level kernels the tensor ops
//! dispatch through an [`Isa`] tag.
//!
//! # Dispatch
//!
//! [`active`] probes the host once (cached in a `OnceLock`):
//! `x86_64` with AVX2 + FMA + POPCNT selects the 256-bit path,
//! `aarch64` with NEON selects the 128-bit-pair path, anything else —
//! or the `force-scalar` cargo feature — selects the scalar backend.
//! Kernels also accept an explicit [`Isa`], so parity tests and the
//! benchmark harness can pin the scalar path on any host without
//! rebuilding (`Isa::SCALAR`).
//!
//! # Numerics policy
//!
//! * FMA-free kernels (`relu`, `leaky_relu`, `scale_shift`,
//!   `add_scalar`, `max_assign`, `add_assign`, Hamming distance) are
//!   **bit-identical** across backends for finite inputs: every lane
//!   performs the same operation in the same per-element order.
//! * The GEMM kernels contract multiply-add pairs into FMAs on the
//!   vector backends — including the scalar tails, which go through
//!   the backend's own `mul_add_s`, so an element's rounding depends
//!   only on its position in the `k` accumulation order and never on
//!   which column tile it fell in. Per-element accumulation order over
//!   `k` is unchanged, so results agree with the scalar backend to
//!   ≤1e-5 relative error (pinned by `tests/simd_dispatch.rs`), and a
//!   given backend produces bit-identical values for an output element
//!   regardless of its column position — the property the conv
//!   lowering (any panel cut, any batch) relies on.
//! * The int8 GEMM kernels ([`gemm4_i8`] / [`gemm1_i8`]) accumulate
//!   i8×i8 products exactly in `i32`: **bit-identical** across
//!   backends, tilings and batch layouts by construction.
//! * [`dot`] splits the accumulation across lanes on vector backends
//!   (scalar stays strictly sequential), also within ≤1e-5 relative.
//!
//! For a fixed `Isa`, every kernel is deterministic and independent of
//! the worker count — the runtime decides *where* work runs, never
//! *what* is computed.

use std::sync::OnceLock;

#[macro_use]
mod kernels;

#[macro_use]
mod kernels_i8;

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
mod neon;

/// The instruction-set backend a kernel call runs on.
///
/// Only [`Isa::SCALAR`] and the value returned by [`active`] can be
/// constructed; the vector variants are private so holding an `Isa`
/// proves the corresponding CPU features were detected (the soundness
/// boundary for the `unsafe` dispatch into `#[target_feature]` code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa(Kind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
    Neon,
}

impl Isa {
    /// The portable scalar backend, available everywhere.
    pub const SCALAR: Isa = Isa(Kind::Scalar);

    /// Human-readable backend name (for benchmark reports).
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2Fma => "avx2+fma",
            #[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
            Kind::Neon => "neon",
        }
    }

    /// Whether this is the scalar fallback.
    pub fn is_scalar(self) -> bool {
        self.0 == Kind::Scalar
    }
}

/// The best backend the host supports, probed once per process.
///
/// With the `force-scalar` cargo feature enabled this is always
/// [`Isa::SCALAR`], which pins the portable path for A/B benchmarking
/// and for CI hosts whose vector units should be ignored.
pub fn active() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

fn detect() -> Isa {
    if cfg!(feature = "force-scalar") {
        return Isa::SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // POPCNT ships on every AVX2 part, but probe it explicitly:
        // the Hamming kernel's dispatch relies on it.
        if std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("fma")
            && std::is_x86_feature_detected!("popcnt")
        {
            return Isa(Kind::Avx2Fma);
        }
    }
    #[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
    {
        // NEON is part of the aarch64 baseline; the cfg above already
        // proved it statically.
        return Isa(Kind::Neon);
    }
    #[allow(unreachable_code)]
    Isa::SCALAR
}

/// Expands to one `match` dispatching a kernel call to the backend
/// module named by `isa`. The AVX2 arm is `unsafe`: constructing
/// `Kind::Avx2Fma` is only possible through [`detect`], which proved
/// the features at runtime.
macro_rules! dispatch {
    ($isa:expr, $func:ident ( $($arg:expr),* $(,)? )) => {
        match $isa.0 {
            Kind::Scalar => scalar::$func($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2Fma` is private and only constructed
            // by `detect()` after `is_x86_feature_detected!` confirmed
            // avx2, fma and popcnt on this CPU.
            Kind::Avx2Fma => unsafe { avx2::$func($($arg),*) },
            #[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
            // NEON is statically enabled for this target, so the call
            // is a plain safe call.
            Kind::Neon => neon::$func($($arg),*),
        }
    };
}

/// 4-row GEMM register microkernel over one k-panel:
/// `o_r[j] += Σ_{kk∈k0..k1} a[r·lda + kk] · b[kk·n + j]` for `r∈0..4`.
///
/// `a` holds four row slices of stride `lda`; `b` is the `[k, n]`
/// operand; the four output rows are disjoint `&mut` views of length
/// `n`. Accumulation over `kk` is in increasing order for every
/// element on every backend.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm4(
    isa: Isa,
    a: &[f32],
    lda: usize,
    k0: usize,
    k1: usize,
    b: &[f32],
    n: usize,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    dispatch!(isa, gemm4(a, lda, k0, k1, b, n, o0, o1, o2, o3))
}

/// Single-row GEMM microkernel (the remainder path of [`gemm4`]):
/// `o[j] += Σ_{kk∈k0..k1} a[kk] · b[kk·n + j]`.
pub(crate) fn gemm1(
    isa: Isa,
    a: &[f32],
    k0: usize,
    k1: usize,
    b: &[f32],
    n: usize,
    o: &mut [f32],
) {
    dispatch!(isa, gemm1(a, k0, k1, b, n, o))
}

/// 4-row **int8** GEMM register microkernel over one k-panel:
/// `o_r[j] += Σ_{kk∈k0..k1} a[r·lda + kk] · b[kk·n + j]` with
/// i8×i8→i32 widening arithmetic. `pa` is A pre-widened to i16 with an
/// even (zero-padded) row stride `lda`, so a coefficient pair is one
/// 32-bit broadcast; `bp` is the **widened pair-packed** form of B
/// (`ops::pack_i8_b`: pair rows of `2·n` i16 elements, even element =
/// row `2p`, odd element = row `2p+1`). `k0` must be even so panels
/// start on a pair row. Exact (no rounding), so the result is
/// bit-identical
/// on every backend. Callers bound `k1` so `k` accumulations cannot
/// wrap `i32` (see `ops::matmul_i8_packed_into`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm4_i8(
    isa: Isa,
    pa: &[i16],
    lda: usize,
    k0: usize,
    k1: usize,
    bp: &[i16],
    n: usize,
    o0: &mut [i32],
    o1: &mut [i32],
    o2: &mut [i32],
    o3: &mut [i32],
) {
    dispatch!(isa, gemm4_i8(pa, lda, k0, k1, bp, n, o0, o1, o2, o3))
}

/// Single-row **int8** GEMM microkernel (the remainder path of
/// [`gemm4_i8`]): `o[j] += Σ_{kk∈k0..k1} a[kk] · b[kk·n + j]` in i32,
/// over the same pair-packed B operand.
pub(crate) fn gemm1_i8(
    isa: Isa,
    pa: &[i16],
    k0: usize,
    k1: usize,
    bp: &[i16],
    n: usize,
    o: &mut [i32],
) {
    dispatch!(isa, gemm1_i8(pa, k0, k1, bp, n, o))
}

/// Dot product `Σ x[i]·y[i]` over equal-length slices. The scalar
/// backend accumulates strictly sequentially; vector backends split
/// the sum across lanes (≤1e-5 relative difference).
pub(crate) fn dot(isa: Isa, x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    dispatch!(isa, dot(x, y))
}

/// In-place `x = max(x, 0)`. Bit-identical across backends.
pub(crate) fn relu(isa: Isa, xs: &mut [f32]) {
    dispatch!(isa, relu(xs))
}

/// In-place leaky ReLU: `x = if x ≥ 0 { x } else { alpha·x }`.
/// Bit-identical across backends.
pub(crate) fn leaky_relu(isa: Isa, xs: &mut [f32], alpha: f32) {
    dispatch!(isa, leaky_relu(xs, alpha))
}

/// In-place affine map `x = x·scale + shift` (multiply then add — not
/// FMA-contracted, so it is bit-identical across backends). This is
/// the inference-time batch-norm inner loop.
pub(crate) fn scale_shift(isa: Isa, xs: &mut [f32], scale: f32, shift: f32) {
    dispatch!(isa, scale_shift(xs, scale, shift))
}

/// In-place `x = x + c` (per-channel conv bias). Bit-identical.
pub(crate) fn add_scalar(isa: Isa, xs: &mut [f32], c: f32) {
    dispatch!(isa, add_scalar(xs, c))
}

/// Element-wise `acc[i] = max(acc[i], src[i])` over equal-length
/// slices — the stride-1 max-pool inner step. Bit-identical for
/// finite inputs.
pub(crate) fn max_assign(isa: Isa, acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len());
    dispatch!(isa, max_assign(acc, src))
}

/// Element-wise `acc[i] += src[i]` — the stride-1 avg-pool inner
/// step. Bit-identical.
pub(crate) fn add_assign(isa: Isa, acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len());
    dispatch!(isa, add_assign(acc, src))
}

/// Hamming distance between two 256-bit descriptors as four `u64`
/// XOR + popcount words — the portable widening of the old per-byte
/// loop. Exact on every backend.
pub fn hamming256(a: &[u8; 32], b: &[u8; 32]) -> u32 {
    hamming256_words(a, b)
}

/// [`hamming256`] with a pinned backend: on `x86_64` with a detected
/// vector ISA the words go through the hardware `popcnt` unit, which
/// is the inner loop of brute-force rBRIEF matching (paper §3.1.3).
pub fn hamming256_isa(isa: Isa, a: &[u8; 32], b: &[u8; 32]) -> u32 {
    match isa.0 {
        Kind::Scalar => hamming256_words(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Kind::Avx2Fma` is only constructed by `detect()`
        // after `is_x86_feature_detected!("popcnt")` succeeded.
        Kind::Avx2Fma => unsafe { hamming256_popcnt(a, b) },
        #[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
        Kind::Neon => hamming256_words(a, b),
    }
}

#[inline]
fn hamming256_words(a: &[u8; 32], b: &[u8; 32]) -> u32 {
    let mut n = 0u32;
    for w in 0..4 {
        let x = u64::from_ne_bytes(a[w * 8..w * 8 + 8].try_into().expect("8-byte word"));
        let y = u64::from_ne_bytes(b[w * 8..w * 8 + 8].try_into().expect("8-byte word"));
        n += (x ^ y).count_ones();
    }
    n
}

/// Same word loop compiled against the hardware popcount unit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn hamming256_popcnt(a: &[u8; 32], b: &[u8; 32]) -> u32 {
    hamming256_words(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(seed: u64) -> [u8; 32] {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut d = [0u8; 32];
        for byte in &mut d {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            *byte = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
        d
    }

    /// Bit-by-bit reference count.
    fn hamming_ref(a: &[u8; 32], b: &[u8; 32]) -> u32 {
        let mut n = 0;
        for i in 0..256 {
            let (byte, bit) = (i / 8, i % 8);
            if (a[byte] >> bit) & 1 != (b[byte] >> bit) & 1 {
                n += 1;
            }
        }
        n
    }

    #[test]
    fn active_is_stable_and_scalar_under_force_scalar() {
        let first = active();
        assert_eq!(first, active(), "detection is cached");
        if cfg!(feature = "force-scalar") {
            assert!(first.is_scalar());
        }
        assert!(Isa::SCALAR.is_scalar());
        assert_eq!(Isa::SCALAR.name(), "scalar");
    }

    #[test]
    fn hamming_matches_bit_reference_on_all_backends() {
        for seed in 0..32u64 {
            let a = descriptor(seed);
            let b = descriptor(seed + 100);
            let expect = hamming_ref(&a, &b);
            assert_eq!(hamming256(&a, &b), expect, "portable, seed {seed}");
            assert_eq!(hamming256_isa(Isa::SCALAR, &a, &b), expect);
            assert_eq!(hamming256_isa(active(), &a, &b), expect);
            assert_eq!(hamming256(&a, &a), 0);
        }
    }

    #[test]
    fn dot_backends_agree() {
        let x: Vec<f32> = (0..259).map(|i| ((i * 37) % 97) as f32 * 0.03 - 1.4).collect();
        let y: Vec<f32> = (0..259).map(|i| ((i * 61) % 89) as f32 * 0.02 - 0.9).collect();
        let s = dot(Isa::SCALAR, &x, &y);
        let v = dot(active(), &x, &y);
        assert!((s - v).abs() <= 1e-5 * s.abs().max(1.0), "{s} vs {v}");
    }
}
