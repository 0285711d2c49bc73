//! Int8 quantization for DNN inference.
//!
//! The ASIC accelerators the paper builds on (EIE, Eyeriss — §4.2.3)
//! run fixed-point arithmetic: weights and activations are quantized
//! to 8 bits and accumulated in wide integers. This module provides
//! symmetric int8 quantization — per-tensor or per-output-row — with
//! i32 accumulation on the SIMD int8 GEMM
//! ([`ops::matmul_i8_into`]), batched quantized convolution/linear
//! kernels, and [`QuantNetwork`]: int8 inference over a float
//! [`Network`] with measured per-layer accuracy deltas.
//!
//! # Determinism
//!
//! The int8 GEMM accumulates exactly in `i32` (no rounding), and every
//! dequantization multiply is written as the same expression on every
//! path, so quantized outputs are **bit-identical** across SIMD
//! backends, thread counts, and — because activations are quantized
//! with a *per-image* scale — across batch sizes: running a batch of
//! `n` images produces byte-for-byte the same values as `n` batch-1
//! runs.
//!
//! # Examples
//!
//! ```
//! use adsim_dnn::quant::QuantTensor;
//! use adsim_tensor::Tensor;
//!
//! let t = Tensor::from_vec([4], vec![-1.0, -0.5, 0.5, 1.0]).unwrap();
//! let q = QuantTensor::quantize(&t);
//! let back = q.dequantize();
//! for (a, b) in t.iter().zip(back.iter()) {
//!     assert!((a - b).abs() < 0.01);
//! }
//! ```

use crate::layer::Layer;
use crate::{Network, Result};
use adsim_runtime::Runtime;
use adsim_tensor::{ops, simd, Shape, Tensor, TensorError};

/// A symmetric int8 quantized tensor: `value ≈ data × scale`.
///
/// Scales are either **per-tensor** (one scale for every element, from
/// [`QuantTensor::quantize`]) or **per-row** (one scale per slice of
/// the leading dimension, from `QuantTensor::quantize_per_row`).
/// Per-row scales matter for weights: one saturated output channel no
/// longer forces a coarse grid onto every other channel.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    shape: Shape,
    data: Vec<i8>,
    /// Length 1 (per-tensor) or `shape.dim(0)` (per-row).
    scales: Vec<f32>,
}

/// Symmetric scale for a slice: maps the largest magnitude to ±127.
fn slice_scale(values: &[f32]) -> f32 {
    let max = values.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max == 0.0 {
        1.0
    } else {
        max / 127.0
    }
}

/// Quantizes `src` onto `dst` with the given scale.
fn quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = (x / scale).round().clamp(-127.0, 127.0) as i8;
    }
}

impl QuantTensor {
    /// Quantizes a float tensor with one per-tensor scale.
    pub fn quantize(t: &Tensor) -> QuantTensor {
        let scale = slice_scale(t.as_slice());
        let mut data = vec![0i8; t.len()];
        quantize_slice(t.as_slice(), scale, &mut data);
        QuantTensor { shape: t.shape().clone(), data, scales: vec![scale] }
    }

    /// Quantizes a float tensor with one scale per leading-dimension
    /// row — for an OIHW conv filter bank or an `[out, in]` linear
    /// weight this is per-output-channel quantization.
    pub(crate) fn quantize_per_row(t: &Tensor) -> QuantTensor {
        let rows = t.shape().dim(0);
        let cols = t.len() / rows;
        let src = t.as_slice();
        let mut data = vec![0i8; t.len()];
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let scale = slice_scale(&src[r * cols..(r + 1) * cols]);
            quantize_slice(&src[r * cols..(r + 1) * cols], scale, &mut data[r * cols..(r + 1) * cols]);
            scales.push(scale);
        }
        QuantTensor { shape: t.shape().clone(), data, scales }
    }

    /// The scale that applies to leading-dimension row `r`.
    pub(crate) fn row_scale(&self, r: usize) -> f32 {
        if self.scales.len() == 1 {
            self.scales[0]
        } else {
            self.scales[r]
        }
    }

    /// Reconstructs the float tensor.
    pub fn dequantize(&self) -> Tensor {
        let rows = self.shape.dim(0);
        let cols = self.data.len() / rows;
        let data = self
            .data
            .iter()
            .enumerate()
            .map(|(i, &q)| q as f32 * self.row_scale(i / cols))
            .collect();
        Tensor::from_vec(self.shape.clone(), data).expect("length preserved")
    }
}

/// Int8 2-D convolution over a full `[n, c, h, w]` batch: im2col
/// lowering onto one int8 GEMM, matching [`ops::conv2d`]'s contract
/// with quantized weights.
///
/// Activations are quantized with a **per-image** scale (each image's
/// own max magnitude), so a batch of `n` produces bit-identical values
/// to `n` single-image calls; weights may be per-tensor or per-row
/// (per-output-channel) quantized.
///
/// # Errors
///
/// Same conditions as [`ops::conv2d`].
pub fn quant_conv2d(
    input: &Tensor,
    weight: &QuantTensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    quant_conv2d_with(&Runtime::serial(), input, weight, bias, stride, pad)
}

/// [`quant_conv2d`] with the GEMM distributed over `rt`'s workers;
/// bit-identical on any thread count.
///
/// # Errors
///
/// Same conditions as [`ops::conv2d`].
pub(crate) fn quant_conv2d_with(
    rt: &Runtime,
    input: &Tensor,
    weight: &QuantTensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let (n, c_in, _, _) = input.shape().as_nchw()?;
    let (c_out, wc_in, kh, kw) = weight.shape.as_nchw()?;
    if c_in != wc_in {
        return Err(TensorError::InvalidParameter {
            op: "quant_conv2d",
            reason: format!("input has {c_in} channels, weight expects {wc_in}"),
        });
    }
    let k = c_in * kh * kw;
    // Unroll the whole batch into appended column bands: image `b`
    // owns columns `b·cols_n..(b+1)·cols_n`.
    let cols = ops::im2col_batched(input, kh, kw, stride, pad)?;
    let total = cols.shape().dim(1);
    let cols_n = total / n;
    let cs = cols.as_slice();
    // Per-image activation quantization: image `b`'s scale comes from
    // its own column band only, which is exactly the band a batch-1
    // call would quantize — the root of batch-size invariance.
    let mut qcols = vec![0i8; k * total];
    let mut act_scales = vec![0f32; n];
    for b in 0..n {
        let mut max = 0.0f32;
        for row in 0..k {
            let band = &cs[row * total + b * cols_n..row * total + (b + 1) * cols_n];
            max = band.iter().fold(max, |m, &x| m.max(x.abs()));
        }
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        act_scales[b] = scale;
        for row in 0..k {
            let off = row * total + b * cols_n;
            quantize_slice(&cs[off..off + cols_n], scale, &mut qcols[off..off + cols_n]);
        }
    }
    // One GEMM for the whole batch: [c_out, k] × [k, n·cols_n].
    let mut acc = vec![0i32; c_out * total];
    ops::matmul_i8_into(rt, simd::active(), &weight.data, &qcols, &mut acc, c_out, k, total);
    let (h_out, w_out) = infer_out_hw(input, kh, kw, stride, pad, cols_n)?;
    // Dequantize + bias, scattering column bands back to NCHW.
    let mut out = Tensor::zeros([n, c_out, h_out, w_out]);
    let od = out.as_mut_slice();
    for b in 0..n {
        for oc in 0..c_out {
            let rescale = weight.row_scale(oc) * act_scales[b];
            let bias_v = bias.map_or(0.0, |t| t.as_slice()[oc]);
            let src = &acc[oc * total + b * cols_n..oc * total + (b + 1) * cols_n];
            let dst = &mut od[(b * c_out + oc) * cols_n..(b * c_out + oc + 1) * cols_n];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s as f32 * rescale + bias_v;
            }
        }
    }
    Ok(out)
}

/// Int8 fully-connected layer over a `[n, in]` batch: each input row
/// is quantized with its own scale (batch-size invariance, as in
/// [`quant_conv2d`]) and the contraction runs on the int8 GEMM as
/// `weight × inputᵀ`.
///
/// # Errors
///
/// Returns an error on rank or inner-dimension mismatch.
pub(crate) fn quant_linear_with(
    rt: &Runtime,
    input: &Tensor,
    weight: &QuantTensor,
    bias: Option<&Tensor>,
) -> Result<Tensor> {
    if input.shape().rank() != 2 || weight.shape.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "quant_linear",
            expected: 2,
            actual: if input.shape().rank() != 2 { input.shape().rank() } else { weight.shape.rank() },
        });
    }
    let (n, in_f) = (input.shape().dim(0), input.shape().dim(1));
    let (out_f, w_in) = (weight.shape.dim(0), weight.shape.dim(1));
    if in_f != w_in {
        return Err(TensorError::ShapeMismatch {
            op: "quant_linear",
            lhs: input.shape().clone(),
            rhs: weight.shape.clone(),
        });
    }
    let xs = input.as_slice();
    // Quantize each input row with its own scale, transposed to
    // `[in_f, n]` so rows of the GEMM's B operand are contraction
    // steps.
    let mut xt = vec![0i8; in_f * n];
    let mut x_scales = vec![0f32; n];
    for i in 0..n {
        let row = &xs[i * in_f..(i + 1) * in_f];
        let scale = slice_scale(row);
        x_scales[i] = scale;
        for (kk, &x) in row.iter().enumerate() {
            xt[kk * n + i] = (x / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }
    let mut acc = vec![0i32; out_f * n];
    ops::matmul_i8_into(rt, simd::active(), &weight.data, &xt, &mut acc, out_f, in_f, n);
    let mut out = vec![0f32; n * out_f];
    for o in 0..out_f {
        let bias_v = bias.map_or(0.0, |t| t.as_slice()[o]);
        let wscale = weight.row_scale(o);
        for i in 0..n {
            out[i * out_f + o] = acc[o * n + i] as f32 * (wscale * x_scales[i]) + bias_v;
        }
    }
    Tensor::from_vec([n, out_f], out)
}

fn infer_out_hw(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    positions: usize,
) -> Result<(usize, usize)> {
    let (_, _, h, w) = input.shape().as_nchw()?;
    let h_out = ops::out_extent(h, kh, stride, pad).ok_or(TensorError::InvalidParameter {
        op: "quant_conv2d",
        reason: format!("kernel {kh}x{kw} does not fit"),
    })?;
    let w_out = ops::out_extent(w, kw, stride, pad).ok_or(TensorError::InvalidParameter {
        op: "quant_conv2d",
        reason: format!("kernel {kh}x{kw} does not fit"),
    })?;
    debug_assert_eq!(h_out * w_out, positions);
    Ok((h_out, w_out))
}

/// Per-layer accuracy delta of int8 vs f32, from
/// [`QuantNetwork::layer_errors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerError {
    /// Layer index in the network.
    pub index: usize,
    /// Layer kind name (`"conv2d"`, `"linear"`).
    pub kind: &'static str,
    /// Worst absolute difference between the int8 and f32 outputs of
    /// this layer **on the same (f32) input** — local error, not
    /// accumulated drift.
    pub max_abs_error: f32,
    /// Largest f32 output magnitude, for normalizing the error.
    pub output_scale: f32,
}

/// A float [`Network`] with per-output-channel int8 weights for every
/// conv/linear layer, which run the int8 lane path. Every other layer
/// (pooling, batch-norm, reshape, activations) runs f32 — they are
/// memory-bound and gain nothing from int8 here.
///
/// The wrapped network is cloned cheaply: parameter tensors share
/// storage (`Arc` copy-on-write), so a `QuantNetwork` adds only the
/// int8 weight copies (~¼ of the f32 parameter bytes).
#[derive(Debug, Clone)]
pub struct QuantNetwork {
    net: Network,
    qweights: Vec<Option<QuantTensor>>,
}

impl QuantNetwork {
    /// Quantizes every conv/linear weight of `net` per output channel.
    pub fn from_network(net: &Network) -> QuantNetwork {
        let qweights: Vec<Option<QuantTensor>> = net
            .layers()
            .iter()
            .map(|l| match l {
                Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => {
                    Some(QuantTensor::quantize_per_row(weight))
                }
                _ => None,
            })
            .collect();
        QuantNetwork { net: net.clone(), qweights }
    }

    /// The wrapped float network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Runs the network on `input` with kernels distributed over `rt`.
    /// Conv/linear layers run the int8 lane path; everything else runs
    /// the float kernels. Accepts any batch size
    /// (the per-image dims must match the declared input shape), and
    /// is bit-identical across batch sizes and thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if per-image dims differ
    /// from the declared input shape, or propagates kernel errors.
    pub fn forward_with(&self, rt: &Runtime, input: &Tensor) -> Result<Tensor> {
        let want = self.net.input_shape().dims();
        let got = input.shape().dims();
        if got.len() != want.len() || got[1..] != want[1..] {
            return Err(TensorError::ShapeMismatch {
                op: "quant_network_forward",
                lhs: input.shape().clone(),
                rhs: self.net.input_shape().clone(),
            });
        }
        let mut x = input.clone();
        for i in 0..self.net.layers().len() {
            x = self.layer_forward(rt, i, &x)?;
        }
        Ok(x)
    }

    /// Runs layer `i` on `x`: int8 where it has quantized weights.
    fn layer_forward(&self, rt: &Runtime, i: usize, x: &Tensor) -> Result<Tensor> {
        let layer = &self.net.layers()[i];
        match (layer, &self.qweights[i]) {
            (Layer::Conv2d { bias, stride, pad, activation, .. }, Some(qw)) => {
                let out = quant_conv2d_with(rt, x, qw, bias.as_ref(), *stride, *pad)?;
                Ok(activation.apply_owned(rt, out))
            }
            (Layer::Linear { bias, activation, .. }, Some(qw)) => {
                let out = quant_linear_with(rt, x, qw, bias.as_ref())?;
                Ok(activation.apply_owned(rt, out))
            }
            _ => layer.forward_with(rt, x),
        }
    }

    /// Measures each eligible layer's int8-vs-f32 accuracy on `input`:
    /// both kernels run on the **same f32 layer input** (produced by
    /// the float network), so each entry isolates one layer's
    /// quantization error rather than accumulated drift.
    ///
    /// # Errors
    ///
    /// Propagates shape/kernel errors.
    pub fn layer_errors(&self, rt: &Runtime, input: &Tensor) -> Result<Vec<LayerError>> {
        let mut x = input.clone();
        let mut report = Vec::new();
        for (i, layer) in self.net.layers().iter().enumerate() {
            let f32_out = layer.forward_with(rt, &x)?;
            if self.qweights[i].is_some() {
                let q_out = self.layer_forward(rt, i, &x)?;
                let mut worst = 0.0f32;
                let mut scale = 0.0f32;
                for (a, b) in q_out.iter().zip(f32_out.iter()) {
                    worst = worst.max((a - b).abs());
                    scale = scale.max(b.abs());
                }
                report.push(LayerError {
                    index: i,
                    kind: layer.kind(),
                    max_abs_error: worst,
                    output_scale: scale,
                });
            }
            x = f32_out;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, NetworkBuilder};

    fn noisy(shape: impl Into<Shape>, seed: u64) -> Tensor {
        let mut s = seed;
        Tensor::from_fn(shape, |_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i32 % 256) as f32 / 128.0 - 1.0
        })
    }

    #[test]
    fn quantize_round_trip_error_is_bounded() {
        let t = noisy([64], 1);
        let q = QuantTensor::quantize(&t);
        // Half an LSB of the scale.
        let back = q.dequantize();
        let err = back.iter().zip(t.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(err <= q.scales[0] * 0.5 + 1e-6);
        assert_eq!(q.data.len(), 64);
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let t = Tensor::zeros([8]);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn per_row_scales_beat_per_tensor_on_skewed_rows() {
        // Row 0 is 100× larger than row 1: a per-tensor scale wastes
        // almost the whole grid on row 0 and butchers row 1.
        let t = Tensor::from_vec(
            [2, 4],
            vec![100.0, -50.0, 25.0, 75.0, 0.9, -0.4, 0.7, -0.2],
        )
        .unwrap();
        let per_tensor = QuantTensor::quantize(&t);
        let per_row = QuantTensor::quantize_per_row(&t);
        assert_eq!(per_row.scales.len(), 2);
        let row1 = Tensor::from_vec([4], vec![0.9, -0.4, 0.7, -0.2]).unwrap();
        let pt_row1 = Tensor::from_vec([4], per_tensor.dequantize().as_slice()[4..].to_vec()).unwrap();
        let pr_row1 = Tensor::from_vec([4], per_row.dequantize().as_slice()[4..].to_vec()).unwrap();
        let pt_err: f32 = pt_row1.iter().zip(row1.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        let pr_err: f32 = pr_row1.iter().zip(row1.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(pr_err < pt_err / 10.0, "per-row {pr_err} vs per-tensor {pt_err}");
    }

    #[test]
    fn quant_conv_tracks_float_conv() {
        let input = noisy([1, 3, 10, 10], 4);
        let weight = noisy([4, 3, 3, 3], 5);
        let bias = noisy([4], 6);
        let exact = ops::conv2d(&input, &weight, Some(&bias), 1, 1).unwrap();
        let approx =
            quant_conv2d(&input, &QuantTensor::quantize(&weight), Some(&bias), 1, 1).unwrap();
        assert_eq!(exact.shape(), approx.shape());
        let scale = exact.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let mut worst = 0.0f32;
        for (x, y) in exact.iter().zip(approx.iter()) {
            worst = worst.max((x - y).abs());
        }
        assert!(worst < 0.05 * scale.max(1.0), "worst error {worst} at output scale {scale}");
    }

    #[test]
    fn quant_conv_batch_matches_per_image_bitwise() {
        // Per-image activation scales make the batched int8 conv
        // byte-identical to single-image calls — the quantized twin of
        // the f32 batched-conv parity contract.
        let input = noisy([3, 2, 9, 9], 13);
        let weight = QuantTensor::quantize_per_row(&noisy([4, 2, 3, 3], 14));
        let bias = noisy([4], 15);
        let per_img = 2 * 9 * 9;
        let batched = quant_conv2d(&input, &weight, Some(&bias), 1, 1).unwrap();
        let out_len = batched.len() / 3;
        for img in 0..3 {
            let single = Tensor::from_vec(
                [1, 2, 9, 9],
                input.as_slice()[img * per_img..(img + 1) * per_img].to_vec(),
            )
            .unwrap();
            let one = quant_conv2d(&single, &weight, Some(&bias), 1, 1).unwrap();
            let got = &batched.as_slice()[img * out_len..(img + 1) * out_len];
            for (i, (x, y)) in got.iter().zip(one.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "img={img} elem={i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn quant_linear_batch_matches_per_row_bitwise() {
        let input = noisy([4, 24], 21);
        let weight = QuantTensor::quantize_per_row(&noisy([7, 24], 22));
        let bias = noisy([7], 23);
        let rt = Runtime::serial();
        let batched = quant_linear_with(&rt, &input, &weight, Some(&bias)).unwrap();
        for i in 0..4 {
            let row =
                Tensor::from_vec([1, 24], input.as_slice()[i * 24..(i + 1) * 24].to_vec()).unwrap();
            let one = quant_linear_with(&rt, &row, &weight, Some(&bias)).unwrap();
            for (j, (x, y)) in
                batched.as_slice()[i * 7..(i + 1) * 7].iter().zip(one.iter()).enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "row={i} col={j}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn memory_footprint_is_quarter_of_f32() {
        let t = noisy([1, 8, 16, 16], 9);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.data.len() * 4, t.len() * std::mem::size_of::<f32>());
    }

    fn tiny_net() -> Network {
        NetworkBuilder::new([1, 2, 12, 12], 31)
            .conv(4, 3, 1, 1, Activation::LeakyRelu(0.1))
            .max_pool(2, 2)
            .conv(6, 3, 1, 1, Activation::Relu)
            .flatten()
            .linear(5, Activation::None)
            .build()
            .unwrap()
    }

    #[test]
    fn quant_network_tracks_float_network() {
        let net = tiny_net();
        let qnet = QuantNetwork::from_network(&net);
        assert_eq!(qnet.qweights.iter().flatten().count(), 3);
        let input = noisy([1, 2, 12, 12], 41);
        let exact = net.forward(&input).unwrap();
        let approx = qnet.forward_with(&Runtime::serial(), &input).unwrap();
        let scale = exact.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for (x, y) in exact.iter().zip(approx.iter()) {
            assert!((x - y).abs() < 0.1 * scale.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn quant_network_batch_matches_per_image_bitwise() {
        let net = tiny_net();
        let qnet = QuantNetwork::from_network(&net);
        let input = noisy([3, 2, 12, 12], 43);
        let per_img = 2 * 12 * 12;
        let batched = qnet.forward_with(&Runtime::serial(), &input).unwrap();
        let out_len = batched.len() / 3;
        for img in 0..3 {
            let single = Tensor::from_vec(
                [1, 2, 12, 12],
                input.as_slice()[img * per_img..(img + 1) * per_img].to_vec(),
            )
            .unwrap();
            let one = qnet.forward_with(&Runtime::serial(), &single).unwrap();
            for (i, (x, y)) in
                batched.as_slice()[img * out_len..(img + 1) * out_len].iter().zip(one.iter()).enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "img={img} elem={i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn layer_errors_reports_each_eligible_layer() {
        let net = tiny_net();
        let qnet = QuantNetwork::from_network(&net);
        let input = noisy([1, 2, 12, 12], 44);
        let errs = qnet.layer_errors(&Runtime::serial(), &input).unwrap();
        assert_eq!(errs.len(), 3);
        assert_eq!(errs[0].kind, "conv2d");
        assert_eq!(errs[2].kind, "linear");
        for e in &errs {
            assert!(e.max_abs_error.is_finite());
            assert!(e.max_abs_error < 0.05 * e.output_scale.max(1.0), "{e:?}");
        }
    }
}
