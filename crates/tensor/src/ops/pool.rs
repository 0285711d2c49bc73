use super::out_extent;
use adsim_runtime::Runtime;

use crate::simd::{self, Isa};
use crate::{Result, Tensor, TensorError};

/// 2-D max pooling over an NCHW tensor.
///
/// YOLO's trunk interleaves these with convolutions to halve spatial
/// resolution (Fig. 3 of the paper).
///
/// # Errors
///
/// Returns an error if the input is not rank 4, the window or stride is
/// zero, or the window does not fit.
///
/// # Examples
///
/// ```
/// use adsim_tensor::{ops, Tensor};
///
/// let t = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let out = ops::max_pool2d(&t, 2, 2).unwrap();
/// assert_eq!(out.as_slice(), &[4.0]);
/// ```
pub fn max_pool2d(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    max_pool2d_isa(&Runtime::serial(), input, window, stride, simd::active())
}

/// [`max_pool2d`] on a worker pool: each `n × c` plane is one task.
///
/// # Errors
///
/// Same conditions as [`max_pool2d`].
pub fn max_pool2d_with(
    rt: &Runtime,
    input: &Tensor,
    window: usize,
    stride: usize,
) -> Result<Tensor> {
    max_pool2d_isa(rt, input, window, stride, simd::active())
}

/// [`max_pool2d`] on a worker pool and an explicit SIMD backend. The
/// kernel is FMA-free, so every backend is bit-identical.
///
/// # Errors
///
/// Same conditions as [`max_pool2d`].
pub fn max_pool2d_isa(
    rt: &Runtime,
    input: &Tensor,
    window: usize,
    stride: usize,
    isa: Isa,
) -> Result<Tensor> {
    pool2d(rt, input, window, stride, PoolKind::Max, isa)
}

/// 2-D average pooling over an NCHW tensor.
///
/// # Errors
///
/// Same conditions as [`max_pool2d`].
pub fn avg_pool2d(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    avg_pool2d_isa(&Runtime::serial(), input, window, stride, simd::active())
}

/// [`avg_pool2d`] on a worker pool.
///
/// # Errors
///
/// Same conditions as [`avg_pool2d`].
pub fn avg_pool2d_with(
    rt: &Runtime,
    input: &Tensor,
    window: usize,
    stride: usize,
) -> Result<Tensor> {
    avg_pool2d_isa(rt, input, window, stride, simd::active())
}

/// [`avg_pool2d`] on a worker pool and an explicit SIMD backend. The
/// kernel is FMA-free, so every backend is bit-identical.
///
/// # Errors
///
/// Same conditions as [`avg_pool2d`].
pub fn avg_pool2d_isa(
    rt: &Runtime,
    input: &Tensor,
    window: usize,
    stride: usize,
    isa: Isa,
) -> Result<Tensor> {
    pool2d(rt, input, window, stride, PoolKind::Avg, isa)
}

#[derive(Clone, Copy)]
enum PoolKind {
    Max,
    Avg,
}

fn pool2d(
    rt: &Runtime,
    input: &Tensor,
    window: usize,
    stride: usize,
    kind: PoolKind,
    isa: Isa,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (h_out, w_out) = match (
        out_extent(h, window, stride, 0),
        out_extent(w, window, stride, 0),
    ) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(TensorError::InvalidParameter {
                op: "pool2d",
                reason: format!("window {window} stride {stride} does not fit {h}x{w}"),
            })
        }
    };
    let mut out = Tensor::zeros([n, c, h_out, w_out]);
    let src = input.as_slice();
    let in_plane = h * w;
    let out_plane = h_out * w_out;
    let rt = rt.for_work(n * c * out_plane * window * window);
    if out_plane > 0 {
        rt.par_chunks_mut(out.as_mut_slice(), out_plane, |img, dplane| {
            let sbase = img * in_plane;
            if stride == 1 {
                // Stride-1 windows overlap: accumulate whole output
                // rows with the lane kernels — each (ky, kx) tap is
                // one shifted input-row segment, visited in the same
                // order as the per-element loop, so every backend is
                // bit-identical.
                for oy in 0..h_out {
                    let drow = &mut dplane[oy * w_out..(oy + 1) * w_out];
                    drow.fill(match kind {
                        PoolKind::Max => f32::NEG_INFINITY,
                        PoolKind::Avg => 0.0,
                    });
                    for ky in 0..window {
                        let row = sbase + (oy + ky) * w;
                        for kx in 0..window {
                            let srow = &src[row + kx..row + kx + w_out];
                            match kind {
                                PoolKind::Max => simd::max_assign(isa, drow, srow),
                                PoolKind::Avg => simd::add_assign(isa, drow, srow),
                            }
                        }
                    }
                    if let PoolKind::Avg = kind {
                        // Multiply by the reciprocal (not divide) so
                        // the vector and scalar backends round
                        // identically; exact for power-of-two windows.
                        simd::scale_shift(isa, drow, 1.0 / (window * window) as f32, 0.0);
                    }
                }
            } else if let PoolKind::Max = kind {
                // Strided max: a lane-wide vertical max over the
                // window's rows, then a short horizontal max per
                // output. Max is order-free on finite inputs, so this
                // equals the per-element `(ky, kx)` scan bit for bit.
                let span = (w_out - 1) * stride + window;
                let mut colmax = vec![0.0f32; span];
                for (oy, drow) in dplane.chunks_mut(w_out).enumerate() {
                    let row = sbase + oy * stride * w;
                    colmax.copy_from_slice(&src[row..row + span]);
                    for ky in 1..window {
                        simd::max_assign(isa, &mut colmax, &src[row + ky * w..][..span]);
                    }
                    for (ox, d) in drow.iter_mut().enumerate() {
                        let taps = &colmax[ox * stride..][..window];
                        *d = taps.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    }
                }
            } else {
                // Strided average keeps the per-element loop: its
                // `(ky, kx)` summation order is part of the result.
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let mut acc = 0.0;
                        for ky in 0..window {
                            let row = sbase + (oy * stride + ky) * w + ox * stride;
                            for kx in 0..window {
                                acc += src[row + kx];
                            }
                        }
                        dplane[oy * w_out + ox] = acc / (window * window) as f32;
                    }
                }
            }
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_maxima() {
        let t = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.0, 9.0,
            ],
        )
        .unwrap();
        let out = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(out.as_slice(), &[4.0, 8.0, -1.0, 9.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let t = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = avg_pool2d(&t, 2, 2).unwrap();
        assert_eq!(out.as_slice(), &[2.5]);
    }

    #[test]
    fn overlapping_windows_with_stride_one() {
        let t = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let out = max_pool2d(&t, 2, 1).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn pooling_preserves_batch_and_channels() {
        let t = Tensor::filled([2, 3, 4, 4], 1.0);
        let out = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(out.shape().dims(), &[2, 3, 2, 2]);
    }

    #[test]
    fn parallel_pooling_matches_serial() {
        let t = Tensor::from_vec(
            [2, 3, 6, 6],
            (0..2 * 3 * 36).map(|i| ((i * 7) % 23) as f32 - 11.0).collect(),
        )
        .unwrap();
        let rt = Runtime::new(4);
        assert_eq!(max_pool2d_with(&rt, &t, 2, 2).unwrap(), max_pool2d(&t, 2, 2).unwrap());
        assert_eq!(avg_pool2d_with(&rt, &t, 3, 1).unwrap(), avg_pool2d(&t, 3, 1).unwrap());
    }

    #[test]
    fn too_large_window_is_rejected() {
        let t = Tensor::zeros([1, 1, 2, 2]);
        assert!(max_pool2d(&t, 3, 1).is_err());
        assert!(max_pool2d(&t, 2, 0).is_err());
    }
}
