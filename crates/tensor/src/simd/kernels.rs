//! Shared lane-kernel bodies, instantiated once per backend.
//!
//! Each backend module defines a `Lanes` type with the same 8-wide
//! API (`splat`, `load`, `store`, `mul_add`, `mul`, `add`, `max`,
//! `select_ge_zero`) and then invokes [`lane_kernels!`], optionally
//! passing a `#[target_feature]` attribute that is applied to every
//! generated kernel so the backend's lane methods inline into straight
//! vector code.
//!
//! The bodies fix the *semantics* shared by all backends: per-element
//! accumulation order, the scalar tails, and which operations may be
//! FMA-contracted (`mul_add` in the GEMM kernels only — everything
//! else is plain multiply/add and therefore bit-identical across
//! backends for finite inputs). The GEMM scalar tails contract through
//! the backend's own `mul_add_s` (fused where `mul_add` fuses), so an
//! output element's rounding depends only on its k-order — never on
//! which column tile it happened to land in. That position-invariance
//! is what pins the conv lowering (which cuts each image's output
//! positions into column panels) bit-identical across panel widths,
//! thread counts and batch sizes.

macro_rules! lane_kernels {
    ($(#[$attr:meta])*) => {
        /// 4-row GEMM panel: `o_r[j] += Σ_k a[r·lda+k]·b[k·n+j]`.
        ///
        /// `n` is B's row stride; the column count is `o0.len()`, which
        /// may be narrower than `n` when the caller works a column
        /// panel of a wider matrix (B then points at the panel's first
        /// column). Tiles 16 columns (two vectors) so the eight
        /// accumulators live in registers across the whole k-panel; an
        /// 8-column then scalar tail covers the remainder in the same
        /// k-order.
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        pub(super) fn gemm4(
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
            let w = o0.len();
            let mut j = 0;
            while j + 16 <= w {
                let mut c00 = Lanes::load(o0, j);
                let mut c01 = Lanes::load(o0, j + 8);
                let mut c10 = Lanes::load(o1, j);
                let mut c11 = Lanes::load(o1, j + 8);
                let mut c20 = Lanes::load(o2, j);
                let mut c21 = Lanes::load(o2, j + 8);
                let mut c30 = Lanes::load(o3, j);
                let mut c31 = Lanes::load(o3, j + 8);
                for kk in k0..k1 {
                    let brow = kk * n + j;
                    let b0 = Lanes::load(b, brow);
                    let b1 = Lanes::load(b, brow + 8);
                    let a0 = Lanes::splat(a[kk]);
                    c00 = a0.mul_add(b0, c00);
                    c01 = a0.mul_add(b1, c01);
                    let a1 = Lanes::splat(a[lda + kk]);
                    c10 = a1.mul_add(b0, c10);
                    c11 = a1.mul_add(b1, c11);
                    let a2 = Lanes::splat(a[2 * lda + kk]);
                    c20 = a2.mul_add(b0, c20);
                    c21 = a2.mul_add(b1, c21);
                    let a3 = Lanes::splat(a[3 * lda + kk]);
                    c30 = a3.mul_add(b0, c30);
                    c31 = a3.mul_add(b1, c31);
                }
                c00.store(o0, j);
                c01.store(o0, j + 8);
                c10.store(o1, j);
                c11.store(o1, j + 8);
                c20.store(o2, j);
                c21.store(o2, j + 8);
                c30.store(o3, j);
                c31.store(o3, j + 8);
                j += 16;
            }
            while j + 8 <= w {
                let mut c0 = Lanes::load(o0, j);
                let mut c1 = Lanes::load(o1, j);
                let mut c2 = Lanes::load(o2, j);
                let mut c3 = Lanes::load(o3, j);
                for kk in k0..k1 {
                    let bv = Lanes::load(b, kk * n + j);
                    c0 = Lanes::splat(a[kk]).mul_add(bv, c0);
                    c1 = Lanes::splat(a[lda + kk]).mul_add(bv, c1);
                    c2 = Lanes::splat(a[2 * lda + kk]).mul_add(bv, c2);
                    c3 = Lanes::splat(a[3 * lda + kk]).mul_add(bv, c3);
                }
                c0.store(o0, j);
                c1.store(o1, j);
                c2.store(o2, j);
                c3.store(o3, j);
                j += 8;
            }
            if j < w {
                for kk in k0..k1 {
                    let a0 = a[kk];
                    let a1 = a[lda + kk];
                    let a2 = a[2 * lda + kk];
                    let a3 = a[3 * lda + kk];
                    let brow = &b[kk * n..kk * n + w];
                    for jj in j..w {
                        let bj = brow[jj];
                        o0[jj] = mul_add_s(a0, bj, o0[jj]);
                        o1[jj] = mul_add_s(a1, bj, o1[jj]);
                        o2[jj] = mul_add_s(a2, bj, o2[jj]);
                        o3[jj] = mul_add_s(a3, bj, o3[jj]);
                    }
                }
            }
        }

        /// Single-row GEMM panel (remainder rows of the blocked
        /// matmul): `o[j] += Σ_k a[k]·b[k·n+j]`. As in [`gemm4`], `n`
        /// is B's row stride and `o.len()` the column count.
        $(#[$attr])*
        pub(super) fn gemm1(
            a: &[f32],
            k0: usize,
            k1: usize,
            b: &[f32],
            n: usize,
            o: &mut [f32],
        ) {
            let w = o.len();
            let mut j = 0;
            while j + 16 <= w {
                let mut c0 = Lanes::load(o, j);
                let mut c1 = Lanes::load(o, j + 8);
                for kk in k0..k1 {
                    let av = Lanes::splat(a[kk]);
                    let brow = kk * n + j;
                    c0 = av.mul_add(Lanes::load(b, brow), c0);
                    c1 = av.mul_add(Lanes::load(b, brow + 8), c1);
                }
                c0.store(o, j);
                c1.store(o, j + 8);
                j += 16;
            }
            while j + 8 <= w {
                let mut c0 = Lanes::load(o, j);
                for kk in k0..k1 {
                    c0 = Lanes::splat(a[kk]).mul_add(Lanes::load(b, kk * n + j), c0);
                }
                c0.store(o, j);
                j += 8;
            }
            if j < w {
                for kk in k0..k1 {
                    let aik = a[kk];
                    let brow = &b[kk * n..kk * n + w];
                    for jj in j..w {
                        o[jj] = mul_add_s(aik, brow[jj], o[jj]);
                    }
                }
            }
        }

        /// In-place `x = max(x, 0)`.
        $(#[$attr])*
        pub(super) fn relu(xs: &mut [f32]) {
            let zero = Lanes::splat(0.0);
            let mut i = 0;
            while i + 8 <= xs.len() {
                Lanes::load(xs, i).max(zero).store(xs, i);
                i += 8;
            }
            for x in &mut xs[i..] {
                *x = x.max(0.0);
            }
        }

        /// In-place `x = if x ≥ 0 { x } else { alpha·x }`.
        $(#[$attr])*
        pub(super) fn leaky_relu(xs: &mut [f32], alpha: f32) {
            let av = Lanes::splat(alpha);
            let mut i = 0;
            while i + 8 <= xs.len() {
                let x = Lanes::load(xs, i);
                x.select_ge_zero(x.mul(av)).store(xs, i);
                i += 8;
            }
            for x in &mut xs[i..] {
                if *x < 0.0 {
                    *x *= alpha;
                }
            }
        }

        /// In-place `x = x·scale + shift` (separate multiply and add
        /// — never FMA — so every backend rounds identically).
        $(#[$attr])*
        pub(super) fn scale_shift(xs: &mut [f32], scale: f32, shift: f32) {
            let sv = Lanes::splat(scale);
            let hv = Lanes::splat(shift);
            let mut i = 0;
            while i + 8 <= xs.len() {
                Lanes::load(xs, i).mul(sv).add(hv).store(xs, i);
                i += 8;
            }
            for x in &mut xs[i..] {
                *x = *x * scale + shift;
            }
        }

        /// In-place `x = x + c`.
        $(#[$attr])*
        pub(super) fn add_scalar(xs: &mut [f32], c: f32) {
            let cv = Lanes::splat(c);
            let mut i = 0;
            while i + 8 <= xs.len() {
                Lanes::load(xs, i).add(cv).store(xs, i);
                i += 8;
            }
            for x in &mut xs[i..] {
                *x += c;
            }
        }

        /// `acc[i] = max(acc[i], src[i])` over equal-length slices.
        $(#[$attr])*
        pub(super) fn max_assign(acc: &mut [f32], src: &[f32]) {
            let n = acc.len();
            let mut i = 0;
            while i + 8 <= n {
                Lanes::load(acc, i).max(Lanes::load(src, i)).store(acc, i);
                i += 8;
            }
            for (a, s) in acc[i..].iter_mut().zip(&src[i..n]) {
                *a = a.max(*s);
            }
        }

        /// `acc[i] += src[i]` over equal-length slices.
        $(#[$attr])*
        pub(super) fn add_assign(acc: &mut [f32], src: &[f32]) {
            let n = acc.len();
            let mut i = 0;
            while i + 8 <= n {
                Lanes::load(acc, i).add(Lanes::load(src, i)).store(acc, i);
                i += 8;
            }
            for (a, s) in acc[i..].iter_mut().zip(&src[i..n]) {
                *a += *s;
            }
        }
    };
}
