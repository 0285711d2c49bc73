use super::linear::gemm_rows;
use super::out_extent;
use adsim_runtime::Runtime;
use std::cell::RefCell;
use std::ops::Range;

use crate::simd::{self, Isa};
use crate::{Result, Tensor, TensorError};

thread_local! {
    /// Reusable `[k, NC]` column-panel scratch for [`conv2d_isa`]: at
    /// most [`PANEL_BYTES`] (one 16-column panel for very deep
    /// kernels), fully overwritten by every pack, so contents never
    /// survive a task and results are unaffected.
    static CONV_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Byte budget of one packed `[k, NC]` column panel: small enough to
/// stay cache-resident next to the (L1-sized) weight matrix while
/// every output-row block consumes it.
const PANEL_BYTES: usize = 128 * 1024;

/// Column-panel width `NC` for a conv with `k = c_in·kh·kw`: the widest
/// multiple of 16 output positions (whole vector tiles) whose `[k, NC]`
/// panel fits [`PANEL_BYTES`], floored at one tile.
fn conv_panel(k: usize) -> usize {
    (PANEL_BYTES / (4 * k) / 16).max(1) * 16
}

/// 2-D convolution (really cross-correlation, as in every DNN framework)
/// of an NCHW `input` with an OIHW `weight`, lowered to a matrix
/// multiply over im2col columns — the same lowering cuDNN and the
/// paper's FPGA processing elements use — one cache-sized column panel
/// at a time (see [`conv2d_isa`]).
///
/// * `input`: `[n, c_in, h, w]`
/// * `weight`: `[c_out, c_in, kh, kw]`
/// * `bias`: optional `[c_out]`
/// * output: `[n, c_out, h_out, w_out]`
///
/// # Errors
///
/// Returns an error if ranks differ from 4/1, the channel counts
/// disagree, the bias length differs from `c_out`, the stride is zero,
/// or the kernel does not fit the padded input.
///
/// # Examples
///
/// ```
/// use adsim_tensor::{ops, Tensor};
///
/// let input = Tensor::filled([1, 1, 3, 3], 1.0);
/// let weight = Tensor::filled([1, 1, 3, 3], 1.0);
/// let out = ops::conv2d(&input, &weight, None, 1, 0).unwrap();
/// assert_eq!(out.as_slice(), &[9.0]);
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    conv2d_with(&Runtime::serial(), input, weight, bias, stride, pad)
}

/// [`conv2d`] on a worker pool with the host's detected SIMD backend.
/// Equivalent to [`conv2d_isa`] with [`simd::active`].
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_with(
    rt: &Runtime,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    conv2d_isa(rt, input, weight, bias, stride, pad, simd::active())
}

/// [`conv2d`] on a worker pool and an explicit SIMD backend.
///
/// The lowering is **panel-fused**: the `[k, h_out·w_out]` im2col
/// matrix (`k = c_in·kh·kw`) is never materialised. Each image's output
/// positions are cut into column panels of `NC` positions (a multiple
/// of 16 sized so a `[k, NC]` panel stays cache-resident); one task
/// packs its panel straight from the image into thread-local scratch,
/// runs the `simd` lane microkernels over every `c_out` row block
/// while the panel is hot, and adds the bias on the same tile. A batch
/// is simply `n` times as many `(image, panel)` tasks, handed to the
/// pool with their disjoint output rows.
///
/// Every output element is still one FMA chain over `k` in increasing
/// order starting from zero, with the bias added after accumulation,
/// and the lane kernels are column-position-invariant (see `simd`), so
/// the result does not depend on the panel width, the thread count or
/// the batch an image rides in: image `b` of any batch is
/// **bit-identical** to running that image alone.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_isa(
    rt: &Runtime,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    isa: Isa,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, wc_in, kh, kw) = weight.shape().as_nchw()?;
    validate_conv_args(c_in, wc_in, bias, c_out, stride)?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;
    let sweep = Sweep { c_in, h, w, kh, kw, stride, pad, w_out };

    // OIHW weight data is already laid out as [c_out, c_in*kh*kw].
    let k = c_in * kh * kw;
    let cols_n = h_out * w_out;
    let _sp = adsim_trace::span("tensor.conv2d").with_cost(
        2 * (n * c_out * k * cols_n) as u64,
        4 * (input.len() + weight.len() + n * c_out * cols_n) as u64,
    );
    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    let rt = rt.for_work(2 * n * c_out * k * cols_n);
    let nc = conv_panel(k);
    let panels = cols_n.div_ceil(nc);
    // Task `b·panels + j` owns columns `j·nc..` of all `c_out` planes
    // of image `b`: disjoint `&mut` rows, so workers need no locking.
    let mut tasks: Vec<Vec<&mut [f32]>> =
        (0..n * panels).map(|_| Vec::with_capacity(c_out)).collect();
    for (p, plane) in out.as_mut_slice().chunks_mut(cols_n).enumerate() {
        let first = p / c_out * panels;
        for (task, rows) in tasks[first..first + panels].iter_mut().zip(plane.chunks_mut(nc)) {
            task.push(rows);
        }
    }
    let (images, wv) = (input.as_slice(), weight.as_slice());
    let image_len = c_in * h * w;
    let bias = bias.map(Tensor::as_slice);
    rt.par_chunks_mut(&mut tasks, 1, |t, task| {
        let rows = &mut task[0];
        let (b, c0) = (t / panels, t % panels * nc);
        let cw = rows[0].len();
        CONV_SCRATCH.with_borrow_mut(|scratch| {
            if scratch.len() < k * cw {
                scratch.resize(k * cw, 0.0);
            }
            let panel = &mut scratch[..k * cw];
            im2col_into(&images[b * image_len..][..image_len], &sweep, c0..c0 + cw, panel, cw);
            gemm_rows(isa, wv, k, panel, cw, rows);
        });
        if let Some(bias) = bias {
            for (row, &bias_ch) in rows.iter_mut().zip(bias) {
                simd::add_scalar(isa, row, bias_ch);
            }
        }
    });
    Ok(out)
}

/// Reference direct (sextuple-loop) convolution, used to validate the
/// GEMM lowering in tests. Same contract as [`conv2d`].
///
/// # Errors
///
/// See [`conv2d`].
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, wc_in, kh, kw) = weight.shape().as_nchw()?;
    validate_conv_args(c_in, wc_in, bias, c_out, stride)?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;

    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    for b in 0..n {
        for oc in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut acc = 0.0f32;
                    for ic in 0..c_in {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at(&[b, ic, iy as usize, ix as usize])
                                    * weight.at(&[oc, ic, ky, kx]);
                            }
                        }
                    }
                    *out.at_mut(&[b, oc, oy, ox]) = acc;
                }
            }
        }
    }
    if let Some(bias) = bias {
        add_channel_bias(&mut out, bias, Isa::SCALAR);
    }
    Ok(out)
}

/// Unrolls one image into convolution columns: the result is a
/// `[c_in*kh*kw, h_out*w_out]` matrix whose columns are flattened
/// receptive fields.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the kernel does not fit.
pub fn im2col(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (_, c_in, h, w) = input.shape().as_nchw()?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;
    let sweep = Sweep { c_in, h, w, kh, kw, stride, pad, w_out };
    let cols_n = h_out * w_out;
    let mut cols = Tensor::zeros([c_in * kh * kw, cols_n]);
    let image = &input.as_slice()[..c_in * h * w];
    im2col_into(image, &sweep, 0..cols_n, cols.as_mut_slice(), cols_n);
    Ok(cols)
}

/// [`im2col`] over a whole `[n, c, h, w]` batch with column appending:
/// the result is `[c·kh·kw, n·h_out·w_out]` where image `b` owns the
/// column band `b·h_out·w_out..(b+1)·h_out·w_out` — the layout the
/// quantized conv GEMM consumes.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the kernel does not fit.
pub fn im2col_batched(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (h_out, w_out) = conv_output_hw(h, w, kh, kw, stride, pad)?;
    let sweep = Sweep { c_in, h, w, kh, kw, stride, pad, w_out };
    let cols_n = h_out * w_out;
    let total_cols = n * cols_n;
    let mut cols = Tensor::zeros([c_in * kh * kw, total_cols]);
    let dst = cols.as_mut_slice();
    for (b, image) in input.as_slice().chunks(c_in * h * w).enumerate() {
        im2col_into(image, &sweep, 0..cols_n, &mut dst[b * cols_n..], total_cols);
    }
    Ok(cols)
}

/// Geometry of one convolution window sweep over a `[c_in, h, w]` image.
struct Sweep {
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    w_out: usize,
}

/// Unrolls output positions `cols` (flattened `oy·w_out + ox`) of one
/// `[c_in, h, w]` image into `out`: row `r` of the `[c_in·kh·kw,
/// cols.len()]` block lands at `out[r·row_stride..]`. A range may start
/// and end mid-output-row. **Every** element of the block is written —
/// padding taps as explicit zeros — so `out` needs no clearing; the
/// in-bounds run of a stride-1 row is a single `copy_from_slice`.
fn im2col_into(image: &[f32], g: &Sweep, cols: Range<usize>, out: &mut [f32], row_stride: usize) {
    let Sweep { c_in, h, w, kh, kw, stride, pad, w_out } = *g;
    debug_assert_eq!(image.len(), c_in * h * w);
    debug_assert!(cols.len() <= row_stride);
    for ic in 0..c_in {
        let plane = &image[ic * h * w..][..h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ic * kh + ky) * kw + kx;
                let dst = &mut out[row * row_stride..][..cols.len()];
                // Output columns whose tap `ox·stride + kx - pad`
                // falls inside the image row.
                let valid_lo = pad.saturating_sub(kx).div_ceil(stride);
                let valid_hi = (w + pad).saturating_sub(kx).div_ceil(stride);
                let mut c = cols.start;
                while c < cols.end {
                    // One output-row segment `ox0..ox1` of row `oy`.
                    let (oy, ox0) = (c / w_out, c % w_out);
                    let ox1 = (ox0 + cols.end - c).min(w_out);
                    let seg = &mut dst[c - cols.start..][..ox1 - ox0];
                    c += ox1 - ox0;
                    let iy = oy * stride + ky;
                    let lo = valid_lo.clamp(ox0, ox1);
                    let hi = valid_hi.clamp(lo, ox1);
                    if iy < pad || iy - pad >= h || lo == hi {
                        seg.fill(0.0);
                        continue;
                    }
                    let src = &plane[(iy - pad) * w..][..w];
                    let (left, rest) = seg.split_at_mut(lo - ox0);
                    let (mid, right) = rest.split_at_mut(hi - lo);
                    left.fill(0.0);
                    right.fill(0.0);
                    let ix0 = lo * stride + kx - pad;
                    if stride == 1 {
                        mid.copy_from_slice(&src[ix0..ix0 + mid.len()]);
                    } else {
                        for (d, &v) in mid.iter_mut().zip(src[ix0..].iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

fn validate_conv_args(
    c_in: usize,
    wc_in: usize,
    bias: Option<&Tensor>,
    c_out: usize,
    stride: usize,
) -> Result<()> {
    if c_in != wc_in {
        return Err(TensorError::InvalidParameter {
            op: "conv2d",
            reason: format!("input has {c_in} channels but weight expects {wc_in}"),
        });
    }
    if stride == 0 {
        return Err(TensorError::InvalidParameter {
            op: "conv2d",
            reason: "stride must be positive".into(),
        });
    }
    if let Some(b) = bias {
        if b.shape().rank() != 1 || b.shape().dim(0) != c_out {
            return Err(TensorError::InvalidParameter {
                op: "conv2d",
                reason: format!(
                    "bias shape {} does not match {c_out} output channels",
                    b.shape()
                ),
            });
        }
    }
    Ok(())
}

fn conv_output_hw(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<(usize, usize)> {
    match (out_extent(h, kh, stride, pad), out_extent(w, kw, stride, pad)) {
        (Some(h_out), Some(w_out)) => Ok((h_out, w_out)),
        _ => Err(TensorError::InvalidParameter {
            op: "conv2d",
            reason: format!("kernel {kh}x{kw} does not fit input {h}x{w} with pad {pad}"),
        }),
    }
}

fn add_channel_bias(out: &mut Tensor, bias: &Tensor, isa: Isa) {
    let (n, c, h, w) = out.shape().as_nchw().expect("conv output is rank 4");
    let b = bias.as_slice();
    let data = out.as_mut_slice();
    for batch in 0..n {
        for (ch, &bias_ch) in b.iter().enumerate().take(c) {
            let base = (batch * c + ch) * h * w;
            simd::add_scalar(isa, &mut data[base..base + h * w], bias_ch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: impl Into<crate::Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.len();
        Tensor::from_vec(shape, (0..n).map(|i| i as f32 * 0.1 - 1.0).collect()).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = seq_tensor([1, 1, 5, 5]);
        let mut weight = Tensor::zeros([1, 1, 3, 3]);
        *weight.at_mut(&[0, 0, 1, 1]) = 1.0;
        let out = conv2d(&input, &weight, None, 1, 1).unwrap();
        assert_eq!(out.shape(), input.shape());
        for y in 0..5 {
            for x in 0..5 {
                assert!((out.at(&[0, 0, y, x]) - input.at(&[0, 0, y, x])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        let input = seq_tensor([2, 3, 7, 6]);
        let weight = seq_tensor([4, 3, 3, 3]);
        let bias = Tensor::from_vec([4], vec![0.1, -0.2, 0.3, 0.0]).unwrap();
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0)] {
            let fast = conv2d(&input, &weight, Some(&bias), stride, pad).unwrap();
            let slow = conv2d_direct(&input, &weight, Some(&bias), stride, pad).unwrap();
            assert_eq!(fast.shape(), slow.shape());
            // Relative tolerance: the im2col GEMM may use FMA while
            // the direct reference accumulates with separate roundings.
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!(
                    (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                    "stride={stride} pad={pad}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn stride_two_halves_output() {
        let input = Tensor::filled([1, 1, 8, 8], 1.0);
        let weight = Tensor::filled([1, 1, 2, 2], 1.0);
        let out = conv2d(&input, &weight, None, 2, 0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 4, 4]);
        assert!(out.iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn bias_adds_per_channel() {
        let input = Tensor::filled([1, 1, 2, 2], 0.0);
        let weight = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::from_vec([2], vec![1.5, -2.5]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), 1, 0).unwrap();
        assert!(out.as_slice()[..4].iter().all(|&v| v == 1.5));
        assert!(out.as_slice()[4..].iter().all(|&v| v == -2.5));
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([1, 3, 3, 3]);
        assert!(conv2d(&input, &weight, None, 1, 0).is_err());
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([1, 1, 3, 3]);
        assert!(conv2d(&input, &weight, None, 1, 0).is_err());
    }

    #[test]
    fn bad_bias_is_rejected() {
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::zeros([3]);
        assert!(conv2d(&input, &weight, Some(&bias), 1, 0).is_err());
    }

    #[test]
    fn im2col_shape_is_receptive_fields_by_positions() {
        let input = Tensor::zeros([1, 3, 5, 5]);
        let cols = im2col(&input, 3, 3, 1, 1).unwrap();
        assert_eq!(cols.shape().dims(), &[3 * 3 * 3, 5 * 5]);
    }
}
