use std::cell::RefCell;

use adsim_runtime::Runtime;

use crate::simd::{self, Isa};
use crate::{Result, Tensor, TensorError};

/// A-rows per register block of the matmul microkernel: four output
/// rows share every loaded element of a B row.
const MR: usize = 4;
/// k-panel extent: one panel of B rows (`KC × n` values) is streamed
/// per output block while it is still cache-resident.
const KC: usize = 256;
/// Target byte size of one single-thread B column panel (`KC`-rows ×
/// `NC`-columns): comfortably inside a per-core L2 so the panel stays
/// resident while *every* output-row block consumes it.
const COL_PANEL_BYTES: usize = 768 * 1024;

/// Column-panel width for a `[k, n]` B operand with `elem`-byte
/// elements: the widest multiple of 16 columns (so vector tiles align
/// exactly as in an unpanelled run) whose `k × nc` panel fits the
/// [`COL_PANEL_BYTES`] budget, floored at 64.
fn col_panel(k: usize, elem: usize) -> usize {
    (COL_PANEL_BYTES / (k * elem).max(1) / 16).max(4) * 16
}

/// Matrix multiply of a `[m, k]` tensor by a `[k, n]` tensor.
///
/// This is the compute core of both the fully-connected layers and the
/// convolution lowering — the operation the paper notes consumes
/// most machine-learning execution time and parallelizes onto GPUs (§6).
/// Runs serially; [`matmul_with`] is the multicore entry point.
///
/// # Errors
///
/// Returns an error if either operand is not rank 2 or the inner
/// dimensions disagree.
///
/// # Examples
///
/// ```
/// use adsim_tensor::{ops, Tensor};
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec([2, 1], vec![1.0, 1.0])?;
/// assert_eq!(ops::matmul(&a, &b)?.as_slice(), &[3.0, 7.0]);
/// # Ok::<(), adsim_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(&Runtime::serial(), a, b)
}

/// [`matmul`] on a worker pool with the host's detected SIMD backend.
/// Equivalent to [`matmul_isa`] with [`simd::active`].
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_with(rt: &Runtime, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_isa(rt, a, b, simd::active())
}

/// [`matmul`] on a worker pool and an explicit SIMD backend: output
/// row blocks are partitioned across the runtime's workers, and each
/// block runs a register-blocked `MR = 4` lane microkernel over
/// `KC`-row panels of B. Per output element the k-accumulation order
/// is identical on every thread count, so results do not depend on the
/// runtime; vector backends contract multiply-add pairs into FMAs, so
/// results agree with [`Isa::SCALAR`] to ≤1e-5 relative error.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_isa(rt: &Runtime, a: &Tensor, b: &Tensor, isa: Isa) -> Result<Tensor> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: b.shape().rank(),
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let _sp = adsim_trace::span("tensor.matmul")
        .with_cost(2 * (m * n * k) as u64, 4 * (m * k + k * n + m * n) as u64);
    let mut out = Tensor::zeros([m, n]);
    matmul_into(
        rt.for_work(2 * m * n * k),
        isa,
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
        m,
        k,
        n,
    );
    Ok(out)
}

/// `rows[r][j] += Σ_kk av[r·k + kk] · bv[kk·ldb + j]` over disjoint
/// output row slices of equal width — the block GEMM shared by the
/// conv2d lowering (`bv` a packed column panel) and wide [`matmul_into`]
/// (`bv` a column window of B). `MR`-row blocks run [`simd::gemm4`],
/// remainder rows [`simd::gemm1`], one `KC`-row panel of `bv` at a time
/// so it is reused by every row block while cache-resident.
pub(crate) fn gemm_rows(
    isa: Isa,
    av: &[f32],
    k: usize,
    bv: &[f32],
    ldb: usize,
    rows: &mut [&mut [f32]],
) {
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for (blk, orows) in rows.chunks_mut(MR).enumerate() {
            let i0 = blk * MR;
            if let [o0, o1, o2, o3] = orows {
                simd::gemm4(isa, &av[i0 * k..], k, k0, k1, bv, ldb, o0, o1, o2, o3);
            } else {
                for (r, orow) in orows.iter_mut().enumerate() {
                    simd::gemm1(isa, &av[(i0 + r) * k..], k0, k1, bv, ldb, orow);
                }
            }
        }
    }
}

/// The raw-slice matmul core: `ov[m × n] += av[m × k] · bv[k × n]`
/// (callers pass zeroed output). Row blocks of `MR` rows go to the
/// pool's workers; within a block the `simd` lane microkernels
/// accumulate one `KC`-row panel of B at a time while it is
/// cache-resident.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_into(
    rt: Runtime,
    isa: Isa,
    av: &[f32],
    bv: &[f32],
    ov: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(av.len(), m * k);
    debug_assert_eq!(bv.len(), k * n);
    debug_assert_eq!(ov.len(), m * n);
    if n == 0 {
        return;
    }
    let nc = col_panel(k, 4);
    if rt.threads() == 1 && n > nc {
        // Single-thread GEMM whose B is much larger than L2 (only wide
        // plain `matmul_isa` calls get here). Walk column panels
        // outermost so one `KC × NC` slab of B is fetched once and
        // stays cache-resident while *every* row block consumes it,
        // instead of re-streaming all of B per row block. Per output
        // element the k-panel order and lane position are unchanged
        // (`NC` is a multiple of the 16-column tile), so results are
        // bit-identical to the unpanelled schedule.
        for c0 in (0..n).step_by(nc) {
            let c1 = (c0 + nc).min(n);
            let mut rows: Vec<&mut [f32]> = ov.chunks_mut(n).map(|r| &mut r[c0..c1]).collect();
            gemm_rows(isa, av, k, &bv[c0..], n, &mut rows);
        }
        return;
    }
    rt.par_chunks_mut(ov, MR * n, |blk, orows| {
        let i0 = blk * MR;
        let rows = orows.len() / n;
        // Panel over k so the streamed slab of B stays cache-resident
        // while all `rows` output rows accumulate it.
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            if rows == MR {
                let (o0, rest) = orows.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                simd::gemm4(
                    isa,
                    &av[i0 * k..],
                    k,
                    k0,
                    k1,
                    bv,
                    n,
                    o0,
                    o1,
                    o2,
                    o3,
                );
            } else {
                for (r, orow) in orows.chunks_mut(n).enumerate() {
                    simd::gemm1(isa, &av[(i0 + r) * k..], k0, k1, bv, n, orow);
                }
            }
        }
    });
}

/// Upper bound on the shared dimension of [`matmul_i8_into`]: with
/// |a|,|b| ≤ 128 every per-element product is ≤ 2¹⁴, so any `k` up to
/// `i32::MAX / 2¹⁴` accumulates without wrapping. Real networks sit
/// orders of magnitude below this (YOLO's largest im2col `k` is 9·512).
pub(crate) const MATMUL_I8_MAX_K: usize = (i32::MAX / (128 * 128)) as usize;

/// Element length of the pair-packed form of a `[k, n]` int8 B
/// operand: `⌈k/2⌉` pair rows of `2·n` i16s (an odd trailing row is
/// zero-padded to a full pair).
pub(crate) fn packed_i8_len(k: usize, n: usize) -> usize {
    k.div_ceil(2) * 2 * n
}

/// Pack a row-major `[k, n]` int8 matrix into the widened
/// pair-interleaved layout the i8 lane kernels consume: source rows
/// `2p` and `2p+1` merge into one `2·n`-element i16 pair row
/// `[b₂ₚ[0], b₂ₚ₊₁[0], b₂ₚ[1], b₂ₚ₊₁[1], …]`; when `k` is odd the
/// last pair row carries zeros in its odd elements. This is exactly
/// the lane order `vpmaddwd`/`vmlal` consume, and the i8→i16 widening
/// happens *here*, once per operand — the kernels' inner loop is then
/// a single full-width vector load per eight columns with no shuffle
/// or sign-extension at all, at half the memory traffic of the f32
/// path. Because integer accumulation is exact, the packed and
/// unpacked operand orders produce bit-identical results by
/// construction.
///
/// `out` is cleared and resized to [`packed_i8_len`]; quantized layer
/// caches pack their weights once and reuse the buffer across every
/// forward pass, which is why this is exposed rather than kept inside
/// [`matmul_i8_into`].
///
/// # Panics
///
/// Panics if `bv.len() != k * n`.
pub(crate) fn pack_i8_b(bv: &[i8], k: usize, n: usize, out: &mut Vec<i16>) {
    assert_eq!(bv.len(), k * n, "pack_i8_b: B length");
    out.clear();
    out.resize(packed_i8_len(k, n), 0);
    for p in 0..k / 2 {
        let (r0, r1) = bv[2 * p * n..].split_at(n);
        for (d, (&x0, &x1)) in out[p * 2 * n..(p + 1) * 2 * n]
            .chunks_exact_mut(2)
            .zip(r0.iter().zip(&r1[..n]))
        {
            d[0] = x0 as i16;
            d[1] = x1 as i16;
        }
    }
    if k % 2 == 1 {
        for (d, &x0) in out[(k / 2) * 2 * n..]
            .chunks_exact_mut(2)
            .zip(&bv[(k - 1) * n..])
        {
            d[0] = x0 as i16;
        }
    }
}

thread_local! {
    /// Reused pair-packing buffer for [`matmul_i8_into`] — activations
    /// repack every call and fresh multi-hundred-KB allocations would
    /// hit the allocator's mmap path per GEMM.
    static PACK_SCRATCH: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
    /// Reused A-widening buffer for [`matmul_i8_packed_into`].
    static A_SCRATCH: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Raw-slice **int8** matmul: `ov[m × n] += av[m × k] · bv[k × n]`
/// with i8×i8→i32 widening arithmetic (callers pass zeroed output).
/// Pair-packs `bv` into thread-local scratch and runs
/// `matmul_i8_packed_into`; callers that reuse one B across many
/// GEMMs (cached quantized weights) should pack once with
/// `pack_i8_b` and call the packed entry point directly.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`/`k`/`n` or if
/// `k > MATMUL_I8_MAX_K` (the no-overflow bound).
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_into(
    rt: &Runtime,
    isa: Isa,
    av: &[i8],
    bv: &[i8],
    ov: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(bv.len(), k * n, "matmul_i8: B length");
    PACK_SCRATCH.with_borrow_mut(|buf| {
        pack_i8_b(bv, k, n, buf);
        matmul_i8_packed_into(rt, isa, av, buf, ov, m, k, n);
    });
}

/// [`matmul_i8_into`] over a B operand already pair-packed by
/// [`pack_i8_b`].
///
/// Same blocking as the f32 path (`MR = 4` row blocks over the pool's
/// workers, `KC`-row cache panels of B, serial column panels for wide
/// single-thread GEMMs), but exact: integer accumulation has no
/// rounding, so the result is bit-identical across SIMD backends,
/// thread counts, column layouts and packing by construction — the
/// property the quantized batched-inference path leans on. This is
/// the fixed-point GEMM of the paper's ASIC exploration (§4.2.3) as a
/// CPU lane kernel.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`/`k`/`n`
/// (`bp.len()` must equal [`packed_i8_len`]) or if
/// `k > MATMUL_I8_MAX_K` (the no-overflow bound).
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_i8_packed_into(
    rt: &Runtime,
    isa: Isa,
    av: &[i8],
    bp: &[i16],
    ov: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(av.len(), m * k, "matmul_i8: A length");
    assert_eq!(bp.len(), packed_i8_len(k, n), "matmul_i8: packed B length");
    assert_eq!(ov.len(), m * n, "matmul_i8: output length");
    assert!(
        k <= MATMUL_I8_MAX_K,
        "matmul_i8: k = {k} exceeds the i32 accumulation bound {MATMUL_I8_MAX_K}"
    );
    if n == 0 {
        return;
    }
    let _sp = adsim_trace::span("tensor.matmul_i8")
        .with_cost(2 * (m * n * k) as u64, (m * k + k * n + 4 * m * n) as u64);
    let rt = rt.for_work(2 * m * n * k);
    A_SCRATCH.with_borrow_mut(|pa_buf| {
        // Widen A to i16 rows with an even padded stride, so the
        // kernels broadcast each `(a_k, a_{k+1})` coefficient pair as
        // one 32-bit load instead of assembling it from i8 scalars —
        // the assembly work dominated the frontend-bound inner loop.
        // O(m·k), negligible against the 2·m·n·k multiply work.
        let kp = k.div_ceil(2) * 2;
        pa_buf.clear();
        pa_buf.resize(m * kp, 0);
        for (row, arow) in pa_buf.chunks_exact_mut(kp).zip(av.chunks_exact(k)) {
            for (d, &x) in row.iter_mut().zip(arow) {
                *d = x as i16;
            }
        }
        let pa = &pa_buf[..];
        // A column panel spans `⌈k/2⌉` pair rows × `2·nc` i16s ≈
        // `2·k·nc` bytes — half the f32 panel footprint.
        let nc = col_panel(k, 2);
        if rt.threads() == 1 && n > nc {
            // Same column-panel schedule as the f32 path (see
            // `matmul_into`); for int8 the result is exact, so any
            // schedule is bitwise-equivalent by construction. Column
            // `c0` starts `2·c0` elements into each pair row, hence
            // the doubled base offset.
            for c0 in (0..n).step_by(nc) {
                let c1 = (c0 + nc).min(n);
                for k0 in (0..k).step_by(KC) {
                    let k1 = (k0 + KC).min(k);
                    let mut i0 = 0;
                    while i0 + MR <= m {
                        let (o0, rest) = ov[i0 * n..].split_at_mut(n);
                        let (o1, rest) = rest.split_at_mut(n);
                        let (o2, rest) = rest.split_at_mut(n);
                        simd::gemm4_i8(
                            isa,
                            &pa[i0 * kp..],
                            kp,
                            k0,
                            k1,
                            &bp[2 * c0..],
                            n,
                            &mut o0[c0..c1],
                            &mut o1[c0..c1],
                            &mut o2[c0..c1],
                            &mut rest[c0..c1],
                        );
                        i0 += MR;
                    }
                    for r in i0..m {
                        let orow = &mut ov[r * n + c0..r * n + c1];
                        simd::gemm1_i8(isa, &pa[r * kp..], k0, k1, &bp[2 * c0..], n, orow);
                    }
                }
            }
            return;
        }
        rt.par_chunks_mut(ov, MR * n, |blk, orows| {
            let i0 = blk * MR;
            let rows = orows.len() / n;
            for k0 in (0..k).step_by(KC) {
                let k1 = (k0 + KC).min(k);
                if rows == MR {
                    let (o0, rest) = orows.split_at_mut(n);
                    let (o1, rest) = rest.split_at_mut(n);
                    let (o2, o3) = rest.split_at_mut(n);
                    simd::gemm4_i8(
                        isa,
                        &pa[i0 * kp..],
                        kp,
                        k0,
                        k1,
                        bp,
                        n,
                        o0,
                        o1,
                        o2,
                        o3,
                    );
                } else {
                    for (r, orow) in orows.chunks_mut(n).enumerate() {
                        simd::gemm1_i8(isa, &pa[(i0 + r) * kp..], k0, k1, bp, n, orow);
                    }
                }
            }
        });
    });
}

/// Fully-connected layer: `input [batch, features] × weightᵀ + bias`.
///
/// * `input`: `[batch, in_features]`
/// * `weight`: `[out_features, in_features]` (row per output neuron)
/// * `bias`: optional `[out_features]`
///
/// Runs serially; [`linear_with`] is the multicore entry point.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
///
/// # Examples
///
/// ```
/// use adsim_tensor::{ops, Tensor};
///
/// let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0])?;
/// let w = Tensor::from_vec([2, 3], vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0])?;
/// let y = ops::linear(&x, &w, None)?;
/// assert_eq!(y.as_slice(), &[1.0, 3.0]);
/// # Ok::<(), adsim_tensor::TensorError>(())
/// ```
pub fn linear(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    linear_with(&Runtime::serial(), input, weight, bias)
}

/// [`linear`] on a worker pool with the host's detected SIMD backend.
/// Equivalent to [`linear_isa`] with [`simd::active`].
///
/// # Errors
///
/// Same conditions as [`linear`].
pub fn linear_with(
    rt: &Runtime,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Tensor> {
    linear_isa(rt, input, weight, bias, simd::active())
}

/// [`linear`] on a worker pool and an explicit SIMD backend. Large
/// batches partition across batch rows; the inference-common
/// `batch = 1` case partitions across contiguous spans of output
/// features, so the GOTURN-style regression head still uses every
/// core. Each output is one [`simd::dot`] over the input row and a
/// weight row (scalar backend: strictly sequential accumulation).
///
/// # Errors
///
/// Same conditions as [`linear`].
pub fn linear_isa(
    rt: &Runtime,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    isa: Isa,
) -> Result<Tensor> {
    if input.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "linear",
            expected: 2,
            actual: input.shape().rank(),
        });
    }
    if weight.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "linear",
            expected: 2,
            actual: weight.shape().rank(),
        });
    }
    let (batch, in_f) = (input.shape().dim(0), input.shape().dim(1));
    let (out_f, w_in) = (weight.shape().dim(0), weight.shape().dim(1));
    if in_f != w_in {
        return Err(TensorError::ShapeMismatch {
            op: "linear",
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
        });
    }
    if let Some(b) = bias {
        if b.shape().rank() != 1 || b.shape().dim(0) != out_f {
            return Err(TensorError::InvalidParameter {
                op: "linear",
                reason: format!(
                    "bias shape {} does not match {out_f} output features",
                    b.shape()
                ),
            });
        }
    }
    let _sp = adsim_trace::span("tensor.linear").with_cost(
        2 * (batch * out_f * in_f) as u64,
        4 * (batch * in_f + out_f * in_f + batch * out_f) as u64,
    );
    let mut out = Tensor::zeros([batch, out_f]);
    let rt = rt.for_work(2 * batch * out_f * in_f);
    let xv = input.as_slice();
    let wv = weight.as_slice();
    let bv = bias.map(Tensor::as_slice);
    let ov = out.as_mut_slice();
    let dot_row = |bi: usize, of0: usize, orow: &mut [f32]| {
        let xrow = &xv[bi * in_f..(bi + 1) * in_f];
        for (o, of) in orow.iter_mut().zip(of0..) {
            let wrow = &wv[of * in_f..(of + 1) * in_f];
            let acc = simd::dot(isa, xrow, wrow);
            *o = acc + bv.map_or(0.0, |b| b[of]);
        }
    };
    if batch >= rt.threads() || batch == 0 || out_f == 0 {
        // One task per batch row.
        rt.par_chunks_mut(ov, out_f.max(1), |bi, orow| dot_row(bi, 0, orow));
    } else {
        // Few batch rows: split each row's output features instead.
        let span = out_f.div_ceil(4 * rt.threads()).max(1);
        for bi in 0..batch {
            let orow = &mut ov[bi * out_f..(bi + 1) * out_f];
            rt.par_chunks_mut(orow, span, |ci, ochunk| dot_row(bi, ci * span, ochunk));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(matmul(&a, &id).unwrap(), a);
        assert_eq!(matmul(&id, &a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros([3]);
        assert!(matmul(&v, &b).is_err());
    }

    #[test]
    fn linear_matches_matmul_with_transpose() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let w = Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 1.0, 1.0, 1.0]).unwrap();
        let y = linear(&x, &w, None).unwrap();
        // Manual transpose of w for comparison via matmul. The two
        // paths use different microkernels (dot vs GEMM), which may
        // round differently under FMA backends — compare to tolerance.
        let wt = Tensor::from_vec([3, 2], vec![0.5, 1.0, -1.0, 1.0, 2.0, 1.0]).unwrap();
        let expect = matmul(&x, &wt).unwrap();
        for (a, b) in y.iter().zip(expect.iter()) {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn linear_applies_bias() {
        let x = Tensor::zeros([1, 4]);
        let w = Tensor::zeros([2, 4]);
        let b = Tensor::from_vec([2], vec![3.0, -3.0]).unwrap();
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.as_slice(), &[3.0, -3.0]);
    }

    #[test]
    fn linear_rejects_mismatched_bias() {
        let x = Tensor::zeros([1, 4]);
        let w = Tensor::zeros([2, 4]);
        let b = Tensor::zeros([3]);
        assert!(linear(&x, &w, Some(&b)).is_err());
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Non-multiple-of-MR row count exercises the remainder kernel.
        let a = Tensor::from_vec(
            [7, 9],
            (0..63).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            [9, 5],
            (0..45).map(|i| (i as f32 * 0.61).cos()).collect(),
        )
        .unwrap();
        let serial = matmul(&a, &b).unwrap();
        for threads in [2, 3, 8] {
            let par = matmul_with(&Runtime::new(threads), &a, &b).unwrap();
            for (x, y) in par.iter().zip(serial.iter()) {
                assert!((x - y).abs() < 1e-5, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_linear_matches_serial_for_single_batch() {
        let x = Tensor::from_vec([1, 33], (0..33).map(|i| i as f32 * 0.1).collect()).unwrap();
        let w = Tensor::from_vec(
            [17, 33],
            (0..17 * 33).map(|i| ((i % 13) as f32 - 6.0) * 0.05).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec([17], (0..17).map(|i| i as f32).collect()).unwrap();
        let serial = linear(&x, &w, Some(&b)).unwrap();
        let par = linear_with(&Runtime::new(4), &x, &w, Some(&b)).unwrap();
        for (p, s) in par.iter().zip(serial.iter()) {
            assert!((p - s).abs() < 1e-5);
        }
    }
}
