use crate::cost::LayerCost;
use crate::Result;
use adsim_runtime::Runtime;
use adsim_tensor::{ops, Shape, Tensor, TensorError};

/// Element-wise non-linearity applied after a layer's affine part.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Activation {
    /// No activation (identity).
    #[default]
    None,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope (YOLO uses 0.1).
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply_with(self, rt: &Runtime, t: &Tensor) -> Tensor {
        match self {
            Activation::None => t.clone(),
            Activation::Relu => ops::relu_with(rt, t),
            Activation::LeakyRelu(a) => ops::leaky_relu_with(rt, t, a),
            Activation::Sigmoid => ops::sigmoid_with(rt, t),
            Activation::Tanh => ops::tanh_with(rt, t),
        }
    }

    /// [`Activation::apply_with`] for a tensor the caller owns (a
    /// layer's freshly computed output): ReLU and LeakyReLU rewrite it
    /// in place and `None` hands it back, so no second copy of the
    /// activation map is made.
    pub(crate) fn apply_owned(self, rt: &Runtime, mut t: Tensor) -> Tensor {
        match self {
            Activation::None => t,
            Activation::Relu => {
                ops::relu_inplace_with(rt, &mut t);
                t
            }
            Activation::LeakyRelu(a) => {
                ops::leaky_relu_inplace_with(rt, &mut t, a);
                t
            }
            Activation::Sigmoid | Activation::Tanh => self.apply_with(rt, &t),
        }
    }

    fn flops_per_elem(self) -> u64 {
        match self {
            Activation::None => 0,
            Activation::Relu | Activation::LeakyRelu(_) => 1,
            // exp + div dominate; count a representative 4 ops.
            Activation::Sigmoid | Activation::Tanh => 4,
        }
    }
}

/// One layer of a sequential [`Network`](crate::Network).
///
/// Layers own their parameters; construction validates nothing beyond
/// tensor invariants — shape compatibility is checked when the layer is
/// appended to a network (see
/// [`NetworkBuilder`](crate::NetworkBuilder)).
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution with optional bias and fused activation.
    Conv2d {
        /// OIHW filter bank.
        weight: Tensor,
        /// Optional per-output-channel bias.
        bias: Option<Tensor>,
        /// Spatial stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Fused activation applied to the output.
        activation: Activation,
    },
    /// 2-D max pooling.
    MaxPool2d {
        /// Square window extent.
        window: usize,
        /// Spatial stride.
        stride: usize,
    },
    /// Inference-time batch normalization (folded statistics).
    BatchNorm {
        /// Per-channel scale.
        gamma: Tensor,
        /// Per-channel shift.
        beta: Tensor,
        /// Per-channel running mean.
        mean: Tensor,
        /// Per-channel running variance.
        var: Tensor,
        /// Variance epsilon.
        eps: f32,
    },
    /// Collapses `[n, ...]` to `[n, features]`.
    Flatten,
    /// Fully-connected layer with optional bias and fused activation.
    Linear {
        /// `[out_features, in_features]` weight matrix.
        weight: Tensor,
        /// Optional `[out_features]` bias.
        bias: Option<Tensor>,
        /// Fused activation applied to the output.
        activation: Activation,
    },
    /// Standalone activation layer.
    Activate(Activation),
}

impl Layer {
    /// Short human-readable kind name, used in cost tables.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d { .. } => "conv2d",
            Layer::MaxPool2d { .. } => "maxpool2d",
            Layer::BatchNorm { .. } => "batchnorm",
            Layer::Flatten => "flatten",
            Layer::Linear { .. } => "linear",
            Layer::Activate(_) => "activation",
        }
    }

    /// The layer's parameter tensors (weights, biases, folded batch-norm
    /// statistics) in a fixed order. Parameterless layers return an
    /// empty list. Used for weight-sharing checks and byte accounting.
    pub(crate) fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Conv2d { weight, bias, .. } | Layer::Linear { weight, bias, .. } => {
                let mut p = vec![weight];
                p.extend(bias.as_ref());
                p
            }
            Layer::BatchNorm { gamma, beta, mean, var, .. } => vec![gamma, beta, mean, var],
            Layer::MaxPool2d { .. } | Layer::Flatten | Layer::Activate(_) => Vec::new(),
        }
    }

    /// Runs the layer forward on a worker pool: the compute-heavy
    /// kernels (convolution, linear, pooling, activations) distribute
    /// across `rt`'s threads, while cheap reshapes stay serial.
    ///
    /// # Errors
    ///
    /// Propagates any shape/parameter error from the underlying kernel.
    pub fn forward_with(&self, rt: &Runtime, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d { weight, bias, stride, pad, activation } => {
                let out = ops::conv2d_with(rt, input, weight, bias.as_ref(), *stride, *pad)?;
                Ok(activation.apply_owned(rt, out))
            }
            Layer::MaxPool2d { window, stride } => {
                ops::max_pool2d_with(rt, input, *window, *stride)
            }
            Layer::BatchNorm { gamma, beta, mean, var, eps } => {
                ops::batch_norm_with(rt, input, gamma, beta, mean, var, *eps)
            }
            Layer::Flatten => {
                let n = input.shape().dim(0);
                let features = input.len() / n;
                input.reshape([n, features])
            }
            Layer::Linear { weight, bias, activation } => {
                let out = ops::linear_with(rt, input, weight, bias.as_ref())?;
                Ok(activation.apply_owned(rt, out))
            }
            Layer::Activate(a) => Ok(a.apply_with(rt, input)),
        }
    }

    /// Computes the output shape for a given input shape without
    /// running the layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the
    /// layer (wrong rank, channel mismatch, window does not fit).
    pub fn output_shape(&self, input: &Shape) -> Result<Shape> {
        match self {
            Layer::Conv2d { weight, stride, pad, .. } => {
                let (n, c_in, h, w) = input.as_nchw()?;
                let (c_out, wc_in, kh, kw) = weight.shape().as_nchw()?;
                if c_in != wc_in {
                    return Err(TensorError::InvalidParameter {
                        op: "conv2d",
                        reason: format!("input has {c_in} channels, weight expects {wc_in}"),
                    });
                }
                let h_out = ops::out_extent(h, kh, *stride, *pad);
                let w_out = ops::out_extent(w, kw, *stride, *pad);
                match (h_out, w_out) {
                    (Some(a), Some(b)) => Ok(Shape::from([n, c_out, a, b])),
                    _ => Err(TensorError::InvalidParameter {
                        op: "conv2d",
                        reason: format!("kernel {kh}x{kw} does not fit {h}x{w}"),
                    }),
                }
            }
            Layer::MaxPool2d { window, stride } => {
                let (n, c, h, w) = input.as_nchw()?;
                let h_out = ops::out_extent(h, *window, *stride, 0);
                let w_out = ops::out_extent(w, *window, *stride, 0);
                match (h_out, w_out) {
                    (Some(a), Some(b)) => Ok(Shape::from([n, c, a, b])),
                    _ => Err(TensorError::InvalidParameter {
                        op: "maxpool2d",
                        reason: format!("window {window} does not fit {h}x{w}"),
                    }),
                }
            }
            Layer::BatchNorm { gamma, .. } => {
                let (_, c, _, _) = input.as_nchw()?;
                if gamma.shape().dim(0) != c {
                    return Err(TensorError::InvalidParameter {
                        op: "batch_norm",
                        reason: format!(
                            "input has {c} channels, parameters expect {}",
                            gamma.shape().dim(0)
                        ),
                    });
                }
                Ok(input.clone())
            }
            Layer::Flatten => {
                let n = input.dim(0);
                Ok(Shape::from([n, input.len() / n]))
            }
            Layer::Linear { weight, .. } => {
                if input.rank() != 2 {
                    return Err(TensorError::RankMismatch {
                        op: "linear",
                        expected: 2,
                        actual: input.rank(),
                    });
                }
                let (out_f, in_f) = (weight.shape().dim(0), weight.shape().dim(1));
                if input.dim(1) != in_f {
                    return Err(TensorError::ShapeMismatch {
                        op: "linear",
                        lhs: input.clone(),
                        rhs: weight.shape().clone(),
                    });
                }
                Ok(Shape::from([input.dim(0), out_f]))
            }
            Layer::Activate(_) => Ok(input.clone()),
        }
    }

    /// Exact compute/memory cost of running this layer on the given
    /// input shape. A multiply-accumulate counts as 2 FLOPs, matching
    /// how the paper's accelerator literature reports throughput.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub(crate) fn cost(&self, input: &Shape) -> Result<LayerCost> {
        let out = self.output_shape(input)?;
        let out_elems = out.len() as u64;
        let cost = match self {
            Layer::Conv2d { weight, bias, activation, .. } => {
                let (_, c_in, kh, kw) = weight.shape().as_nchw()?;
                let macs = out_elems * (c_in * kh * kw) as u64;
                let params =
                    weight.len() as u64 + bias.as_ref().map_or(0, |b| b.len() as u64);
                LayerCost {
                    kind: self.kind(),
                    flops: 2 * macs
                        + bias.as_ref().map_or(0, |_| out_elems)
                        + activation.flops_per_elem() * out_elems,
                    params,
                    output_elems: out_elems,
                    input_elems: input.len() as u64,
                }
            }
            Layer::MaxPool2d { window, .. } => LayerCost {
                kind: self.kind(),
                flops: out_elems * (window * window) as u64,
                params: 0,
                output_elems: out_elems,
                input_elems: input.len() as u64,
            },
            Layer::BatchNorm { gamma, .. } => LayerCost {
                kind: self.kind(),
                flops: 2 * out_elems,
                params: 4 * gamma.len() as u64,
                output_elems: out_elems,
                input_elems: input.len() as u64,
            },
            Layer::Flatten => LayerCost {
                kind: self.kind(),
                flops: 0,
                params: 0,
                output_elems: out_elems,
                input_elems: input.len() as u64,
            },
            Layer::Linear { weight, bias, activation } => {
                let (out_f, in_f) = (weight.shape().dim(0), weight.shape().dim(1));
                let batch = input.dim(0) as u64;
                LayerCost {
                    kind: self.kind(),
                    flops: batch
                        * (2 * (out_f * in_f) as u64
                            + bias.as_ref().map_or(0, |_| out_f as u64)
                            + activation.flops_per_elem() * out_f as u64),
                    params: weight.len() as u64
                        + bias.as_ref().map_or(0, |b| b.len() as u64),
                    output_elems: out_elems,
                    input_elems: input.len() as u64,
                }
            }
            Layer::Activate(a) => LayerCost {
                kind: self.kind(),
                flops: a.flops_per_elem() * out_elems,
                params: 0,
                output_elems: out_elems,
                input_elems: input.len() as u64,
            },
        };
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer() -> Layer {
        Layer::Conv2d {
            weight: Tensor::filled([2, 1, 3, 3], 0.1),
            bias: Some(Tensor::zeros([2])),
            stride: 1,
            pad: 1,
            activation: Activation::Relu,
        }
    }

    #[test]
    fn conv_output_shape_matches_forward() {
        let layer = conv_layer();
        let input = Tensor::zeros([1, 1, 8, 8]);
        let predicted = layer.output_shape(input.shape()).unwrap();
        let actual = layer.forward_with(&Runtime::serial(), &input).unwrap();
        assert_eq!(&predicted, actual.shape());
        assert_eq!(predicted.dims(), &[1, 2, 8, 8]);
    }

    #[test]
    fn conv_cost_counts_macs() {
        let layer = conv_layer();
        let input = Shape::from([1, 1, 8, 8]);
        let c = layer.cost(&input).unwrap();
        // 2 out channels * 8*8 positions * 1*3*3 taps * 2 + bias + relu
        let out_elems = 2 * 8 * 8;
        assert_eq!(c.flops, 2 * out_elems * 9 + out_elems + out_elems);
        assert_eq!(c.params, 2 * 9 + 2);
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let input = Tensor::zeros([2, 3, 4, 4]);
        let out = Layer::Flatten.forward_with(&Runtime::serial(), &input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 48]);
    }

    #[test]
    fn linear_shape_validation() {
        let layer = Layer::Linear {
            weight: Tensor::zeros([10, 48]),
            bias: None,
            activation: Activation::None,
        };
        assert!(layer.output_shape(&Shape::from([1, 48])).is_ok());
        assert!(layer.output_shape(&Shape::from([1, 47])).is_err());
        assert!(layer.output_shape(&Shape::from([48])).is_err());
    }

    #[test]
    fn activation_layers_preserve_shape_and_apply() {
        let input = Tensor::from_vec([1, 2], vec![-1.0, 1.0]).unwrap();
        let rt = Runtime::serial();
        let out = Layer::Activate(Activation::Relu).forward_with(&rt, &input).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 1.0]);
        let out = Layer::Activate(Activation::LeakyRelu(0.5)).forward_with(&rt, &input).unwrap();
        assert_eq!(out.as_slice(), &[-0.5, 1.0]);
    }

    #[test]
    fn owned_activation_matches_borrowed_and_none_is_free() {
        let rt = Runtime::serial();
        let t = Tensor::from_vec([1, 4], vec![-2.0, -0.5, 0.5, 2.0]).unwrap();
        for a in [
            Activation::None,
            Activation::Relu,
            Activation::LeakyRelu(0.1),
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            assert_eq!(a.apply_owned(&rt, t.clone()), a.apply_with(&rt, &t), "{a:?}");
        }
        let owned = Tensor::zeros([1, 4]);
        let storage = owned.storage_ptr();
        assert_eq!(Activation::None.apply_owned(&rt, owned).storage_ptr(), storage);
    }

    #[test]
    fn pool_cost_scales_with_window() {
        let small = Layer::MaxPool2d { window: 2, stride: 2 };
        let input = Shape::from([1, 1, 8, 8]);
        let c = small.cost(&input).unwrap();
        assert_eq!(c.flops, 16 * 4);
        assert_eq!(c.output_elems, 16);
    }

    #[test]
    fn batchnorm_channel_mismatch_rejected() {
        let layer = Layer::BatchNorm {
            gamma: Tensor::zeros([3]),
            beta: Tensor::zeros([3]),
            mean: Tensor::zeros([3]),
            var: Tensor::filled([3], 1.0),
            eps: 1e-5,
        };
        assert!(layer.output_shape(&Shape::from([1, 2, 4, 4])).is_err());
        assert!(layer.output_shape(&Shape::from([1, 3, 4, 4])).is_ok());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(conv_layer().kind(), "conv2d");
        assert_eq!(Layer::Flatten.kind(), "flatten");
    }
}
