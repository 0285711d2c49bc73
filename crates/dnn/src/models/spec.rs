use crate::cost::{LayerCost, NetworkCost};
use crate::layer::Activation;
use crate::network::{Network, NetworkBuilder};
use crate::Result;
use adsim_tensor::{ops, Shape, TensorError};

/// A weight-free description of one layer, sufficient for shape
/// propagation and cost analysis.
///
/// Materialize into a runnable [`Network`] with [`ArchSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerSpec {
    /// Convolution: `out` filters of `k`×`k`, stride, padding, fused
    /// activation.
    Conv {
        /// Output channels.
        out: usize,
        /// Kernel extent.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Fused activation.
        act: Activation,
    },
    /// Max pooling with a square window.
    MaxPool {
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Inference-time batch normalization.
    BatchNorm,
    /// Collapse to `[batch, features]`.
    Flatten,
    /// Fully-connected layer.
    Linear {
        /// Output features.
        out: usize,
        /// Fused activation.
        act: Activation,
    },
}

/// An architecture: input shape plus layer specs.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::{ArchSpec, LayerSpec};
/// use adsim_dnn::Activation;
///
/// let spec = ArchSpec::new(
///     [1, 1, 8, 8],
///     vec![
///         LayerSpec::Conv { out: 4, k: 3, stride: 1, pad: 1, act: Activation::Relu },
///         LayerSpec::Flatten,
///         LayerSpec::Linear { out: 2, act: Activation::None },
///     ],
/// );
/// assert!(spec.cost().unwrap().total.flops > 0);
/// let net = spec.build(7).unwrap();
/// assert_eq!(net.output_shape().unwrap().dims(), &[1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    input_shape: Shape,
    layers: Vec<LayerSpec>,
}

impl ArchSpec {
    /// Creates a spec from its parts.
    pub fn new(input_shape: impl Into<Shape>, layers: Vec<LayerSpec>) -> Self {
        Self { input_shape: input_shape.into(), layers }
    }

    /// Exact cost of a forward pass, computed analytically (no weight
    /// allocation — usable for the full-size paper networks at any
    /// resolution).
    ///
    /// # Errors
    ///
    /// Returns an error if any layer is incompatible with its input.
    pub fn cost(&self) -> Result<NetworkCost> {
        let mut shape = self.input_shape.clone();
        let mut layers = Vec::with_capacity(self.layers.len());
        for l in &self.layers {
            layers.push(spec_cost(l, &shape)?);
            shape = spec_output_shape(l, &shape)?;
        }
        Ok(NetworkCost::from_layers(layers))
    }

    /// Materializes a runnable network with deterministically
    /// initialized weights.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer is incompatible with its input.
    pub fn build(&self, seed: u64) -> Result<Network> {
        let mut b = NetworkBuilder::new(self.input_shape.clone(), seed);
        for l in &self.layers {
            b = match *l {
                LayerSpec::Conv { out, k, stride, pad, act } => b.conv(out, k, stride, pad, act),
                LayerSpec::MaxPool { window, stride } => b.max_pool(window, stride),
                LayerSpec::BatchNorm => b.batch_norm(),
                LayerSpec::Flatten => b.flatten(),
                LayerSpec::Linear { out, act } => b.linear(out, act),
            };
        }
        b.build()
    }
}

fn act_flops(act: Activation) -> u64 {
    match act {
        Activation::None => 0,
        Activation::Relu | Activation::LeakyRelu(_) => 1,
        Activation::Sigmoid | Activation::Tanh => 4,
    }
}

fn spec_output_shape(l: &LayerSpec, input: &Shape) -> Result<Shape> {
    match *l {
        LayerSpec::Conv { out, k, stride, pad, .. } => {
            let (n, _, h, w) = input.as_nchw()?;
            match (ops::out_extent(h, k, stride, pad), ops::out_extent(w, k, stride, pad)) {
                (Some(a), Some(b)) => Ok(Shape::from([n, out, a, b])),
                _ => Err(TensorError::InvalidParameter {
                    op: "conv2d",
                    reason: format!("kernel {k} does not fit {h}x{w}"),
                }),
            }
        }
        LayerSpec::MaxPool { window, stride } => {
            let (n, c, h, w) = input.as_nchw()?;
            match (
                ops::out_extent(h, window, stride, 0),
                ops::out_extent(w, window, stride, 0),
            ) {
                (Some(a), Some(b)) => Ok(Shape::from([n, c, a, b])),
                _ => Err(TensorError::InvalidParameter {
                    op: "maxpool2d",
                    reason: format!("window {window} does not fit {h}x{w}"),
                }),
            }
        }
        LayerSpec::BatchNorm => {
            input.as_nchw()?;
            Ok(input.clone())
        }
        LayerSpec::Flatten => {
            let n = input.dim(0);
            Ok(Shape::from([n, input.len() / n]))
        }
        LayerSpec::Linear { out, .. } => {
            if input.rank() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "linear",
                    expected: 2,
                    actual: input.rank(),
                });
            }
            Ok(Shape::from([input.dim(0), out]))
        }
    }
}

fn spec_cost(l: &LayerSpec, input: &Shape) -> Result<LayerCost> {
    let out_shape = spec_output_shape(l, input)?;
    let out_elems = out_shape.len() as u64;
    let in_elems = input.len() as u64;
    let cost = match *l {
        LayerSpec::Conv { out, k, act, .. } => {
            let (_, c_in, _, _) = input.as_nchw()?;
            let macs = out_elems * (c_in * k * k) as u64;
            LayerCost {
                kind: "conv2d",
                flops: 2 * macs + out_elems + act_flops(act) * out_elems,
                params: (out * (c_in * k * k + 1)) as u64,
                output_elems: out_elems,
                input_elems: in_elems,
            }
        }
        LayerSpec::MaxPool { window, .. } => LayerCost {
            kind: "maxpool2d",
            flops: out_elems * (window * window) as u64,
            params: 0,
            output_elems: out_elems,
            input_elems: in_elems,
        },
        LayerSpec::BatchNorm => {
            let (_, c, _, _) = input.as_nchw()?;
            LayerCost {
                kind: "batchnorm",
                flops: 2 * out_elems,
                params: 4 * c as u64,
                output_elems: out_elems,
                input_elems: in_elems,
            }
        }
        LayerSpec::Flatten => LayerCost {
            kind: "flatten",
            flops: 0,
            params: 0,
            output_elems: out_elems,
            input_elems: in_elems,
        },
        LayerSpec::Linear { out, act } => {
            let in_f = input.dim(1) as u64;
            let batch = input.dim(0) as u64;
            LayerCost {
                kind: "linear",
                flops: batch * (2 * out as u64 * in_f + out as u64 + act_flops(act) * out as u64),
                params: out as u64 * (in_f + 1),
                output_elems: out_elems,
                input_elems: in_elems,
            }
        }
    };
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArchSpec {
        /// Output shape after all layers: the analytic shape the built
        /// networks and the paper's architectures are checked against.
        pub(crate) fn output_shape(&self) -> Result<Shape> {
            let mut shape = self.input_shape.clone();
            for l in &self.layers {
                shape = spec_output_shape(l, &shape)?;
            }
            Ok(shape)
        }
    }

    fn toy() -> ArchSpec {
        ArchSpec::new([1, 2, 8, 8],
            vec![
                LayerSpec::Conv { out: 4, k: 3, stride: 1, pad: 1, act: Activation::Relu },
                LayerSpec::BatchNorm,
                LayerSpec::MaxPool { window: 2, stride: 2 },
                LayerSpec::Flatten,
                LayerSpec::Linear { out: 3, act: Activation::None },
            ],
        )
    }

    #[test]
    fn spec_cost_matches_built_network_cost() {
        let spec = toy();
        let analytic = spec.cost().unwrap();
        let built = spec.build(11).unwrap().cost().unwrap();
        assert_eq!(analytic.total.flops, built.total.flops);
        assert_eq!(analytic.total.params, built.total.params);
        assert_eq!(analytic.layers.len(), built.layers.len());
        for (a, b) in analytic.layers.iter().zip(&built.layers) {
            assert_eq!(a.flops, b.flops, "layer {}", a.kind);
            assert_eq!(a.params, b.params, "layer {}", a.kind);
        }
    }

    #[test]
    fn spec_output_shape_matches_built_network() {
        let spec = toy();
        assert_eq!(spec.output_shape().unwrap(), spec.build(1).unwrap().output_shape().unwrap());
    }

    #[test]
    fn invalid_spec_errors_at_analysis_time() {
        let spec = ArchSpec::new([1, 1, 4, 4],
            vec![LayerSpec::MaxPool { window: 8, stride: 8 }],
        );
        assert!(spec.cost().is_err());
        assert!(spec.build(1).is_err());
    }
}
