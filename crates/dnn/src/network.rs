use crate::cost::NetworkCost;
use crate::layer::{Activation, Layer};
use crate::{Result, WeightInit};
use adsim_runtime::Runtime;
use adsim_tensor::{Shape, Tensor, TensorError};

/// A sequential feed-forward network.
///
/// Built with [`NetworkBuilder`], which validates layer compatibility
/// as layers are appended so that a constructed `Network` can always
/// run any input matching its declared input shape.
///
/// # Examples
///
/// ```
/// use adsim_dnn::{Activation, NetworkBuilder};
/// use adsim_tensor::Tensor;
///
/// let net = NetworkBuilder::new([1, 1, 8, 8], 42)
///     .conv(4, 3, 1, 1, Activation::LeakyRelu(0.1))
///     .max_pool(2, 2)
///     .flatten()
///     .linear(10, Activation::None)
///     .build()
///     .unwrap();
/// let out = net.forward(&Tensor::zeros([1, 1, 8, 8])).unwrap();
/// assert_eq!(out.shape().dims(), &[1, 10]);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    input_shape: Shape,
    layers: Vec<Layer>,
}

impl Network {
    /// Declared input shape (batch dimension included).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Every parameter tensor in the network, in layer order.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Whether every parameter tensor of `self` shares its underlying
    /// storage with the corresponding tensor of `other` — the pointer-
    /// equality form of the fleet's "weights allocated once" guarantee.
    /// Networks with different layer structure trivially return false.
    pub fn shares_weights(&self, other: &Network) -> bool {
        let (a, b) = (self.params(), other.params());
        a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.ptr_eq(y))
    }

    /// Output shape obtained by propagating the input shape through
    /// every layer.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer rejects its input shape; cannot
    /// happen for networks produced by [`NetworkBuilder::build`].
    pub fn output_shape(&self) -> Result<Shape> {
        let mut shape = self.input_shape.clone();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }

    /// Runs the network on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `input` does not match
    /// the declared input shape, or propagates kernel errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_with(&Runtime::serial(), input)
    }

    /// Runs the network on `input` with every layer's kernels
    /// distributed over `rt`'s worker pool.
    ///
    /// Layers still execute in sequence — inference is a dependency
    /// chain — but each convolution/linear/pool/activation partitions
    /// its own work across threads. Results are bit-identical to
    /// [`Network::forward`] on any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `input` does not match
    /// the declared input shape, or propagates kernel errors.
    pub fn forward_with(&self, rt: &Runtime, input: &Tensor) -> Result<Tensor> {
        if input.shape() != &self.input_shape {
            return Err(TensorError::ShapeMismatch {
                op: "network_forward",
                lhs: input.shape().clone(),
                rhs: self.input_shape.clone(),
            });
        }
        self.run_layers(rt, input)
    }

    /// Runs the network on a `[n, ...]` batch whose per-image dims
    /// match the declared input shape, with any `n ≥ 1`.
    ///
    /// Every layer kind is batch-agnostic, so the whole batch flows
    /// through each kernel as one call — a batch of `n` detector
    /// frames is one parallel region of `(image, panel)` tasks per conv
    /// layer instead of `n` regions. Thanks to the tensor crate's
    /// column-position-invariant GEMM tails, the output for image `b`
    /// is **bit-identical** to running that image alone through
    /// [`Network::forward_with`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `input`'s rank or
    /// per-image dims differ from the declared input shape, or
    /// propagates kernel errors.
    pub fn forward_batched(&self, rt: &Runtime, input: &Tensor) -> Result<Tensor> {
        let want = self.input_shape.dims();
        let got = input.shape().dims();
        if got.len() != want.len() || got[1..] != want[1..] {
            return Err(TensorError::ShapeMismatch {
                op: "network_forward_batched",
                lhs: input.shape().clone(),
                rhs: self.input_shape.clone(),
            });
        }
        self.run_layers(rt, input)
    }

    /// Shared layer loop for [`Network::forward_with`] and
    /// [`Network::forward_batched`]; assumes `input` already validated.
    fn run_layers(&self, rt: &Runtime, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        if adsim_trace::enabled() {
            // The traced path propagates the shape alongside the data so
            // each layer span carries its exact FLOP/byte cost from
            // `Layer::cost` (DESIGN.md §8). Compute is unchanged.
            let _net = adsim_trace::span("dnn.forward");
            let mut shape = input.shape().clone();
            for (i, layer) in self.layers.iter().enumerate() {
                let cost = layer.cost(&shape)?;
                shape = layer.output_shape(&shape)?;
                let sp = adsim_trace::span_at(span_name(layer.kind()), i)
                    .with_cost(cost.flops, cost.total_bytes());
                x = layer.forward_with(rt, &x)?;
                drop(sp);
            }
        } else {
            for layer in &self.layers {
                x = layer.forward_with(rt, &x)?;
            }
        }
        Ok(x)
    }

    /// Exact cost of one forward pass at the declared input shape.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible for built networks).
    pub fn cost(&self) -> Result<NetworkCost> {
        let mut shape = self.input_shape.clone();
        let mut layers = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            layers.push(layer.cost(&shape)?);
            shape = layer.output_shape(&shape)?;
        }
        Ok(NetworkCost::from_layers(layers))
    }
}

/// Trace span name for a layer kind. Spans need `&'static str` names,
/// so the mapping is a closed match over [`Layer::kind`] values.
fn span_name(kind: &'static str) -> &'static str {
    match kind {
        "conv2d" => "dnn.conv2d",
        "maxpool2d" => "dnn.maxpool2d",
        "batchnorm" => "dnn.batchnorm",
        "flatten" => "dnn.flatten",
        "linear" => "dnn.linear",
        "activation" => "dnn.activation",
        _ => "dnn.layer",
    }
}

/// Incrementally constructs a [`Network`], validating shapes as layers
/// are appended and initializing parameters deterministically from the
/// seed.
#[derive(Debug)]
pub struct NetworkBuilder {
    input_shape: Shape,
    current: Result<Shape>,
    layers: Vec<Layer>,
    init: WeightInit,
}

impl NetworkBuilder {
    /// Starts a network with the given input shape (NCHW for
    /// convolutional fronts) and weight seed.
    pub fn new(input_shape: impl Into<Shape>, seed: u64) -> Self {
        let input_shape = input_shape.into();
        Self {
            current: Ok(input_shape.clone()),
            input_shape,
            layers: Vec::new(),
            init: WeightInit::new(seed),
        }
    }

    /// Appends a convolution with `out_channels` filters of size
    /// `k`×`k`, given stride/padding and a fused activation.
    pub fn conv(
        mut self,
        out_channels: usize,
        k: usize,
        stride: usize,
        pad: usize,
        activation: Activation,
    ) -> Self {
        let Ok(shape) = self.current.clone() else { return self };
        let Ok((_, c_in, _, _)) = shape.as_nchw() else {
            self.current = Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: shape.rank(),
            });
            return self;
        };
        let fan_in = c_in * k * k;
        let weight = Tensor::from_vec(
            [out_channels, c_in, k, k],
            self.init.uniform(out_channels * fan_in, fan_in),
        )
        .expect("weight length matches by construction");
        let bias = Tensor::from_vec([out_channels], self.init.bias(out_channels))
            .expect("bias length matches by construction");
        self.push(Layer::Conv2d { weight, bias: Some(bias), stride, pad, activation })
    }

    /// Appends a max-pooling layer.
    pub fn max_pool(self, window: usize, stride: usize) -> Self {
        self.push(Layer::MaxPool2d { window, stride })
    }

    /// Appends an inference-time batch-norm layer with identity-ish
    /// folded statistics (deterministic small perturbations).
    pub(crate) fn batch_norm(mut self) -> Self {
        let Ok(shape) = self.current.clone() else { return self };
        let Ok((_, c, _, _)) = shape.as_nchw() else {
            self.current = Err(TensorError::RankMismatch {
                op: "batch_norm",
                expected: 4,
                actual: shape.rank(),
            });
            return self;
        };
        let gamma = Tensor::from_vec([c], self.init.uniform(c, 1).iter().map(|v| 1.0 + 0.01 * v).collect())
            .expect("length matches");
        let beta = Tensor::from_vec([c], self.init.bias(c)).expect("length matches");
        let mean = Tensor::from_vec([c], self.init.bias(c)).expect("length matches");
        let var = Tensor::filled([c], 1.0);
        self.push(Layer::BatchNorm { gamma, beta, mean, var, eps: 1e-5 })
    }

    /// Appends a flatten layer.
    pub fn flatten(self) -> Self {
        self.push(Layer::Flatten)
    }

    /// Appends a fully-connected layer with `out_features` outputs.
    pub fn linear(mut self, out_features: usize, activation: Activation) -> Self {
        let Ok(shape) = self.current.clone() else { return self };
        if shape.rank() != 2 {
            self.current = Err(TensorError::RankMismatch {
                op: "linear",
                expected: 2,
                actual: shape.rank(),
            });
            return self;
        }
        let in_f = shape.dim(1);
        let weight =
            Tensor::from_vec([out_features, in_f], self.init.uniform(out_features * in_f, in_f))
                .expect("weight length matches by construction");
        let bias = Tensor::from_vec([out_features], self.init.bias(out_features))
            .expect("bias length matches by construction");
        self.push(Layer::Linear { weight, bias: Some(bias), activation })
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Returns the first shape error encountered while appending
    /// layers, so misconfigured architectures fail loudly at build time
    /// rather than at inference time.
    pub fn build(self) -> Result<Network> {
        self.current?;
        Ok(Network { input_shape: self.input_shape, layers: self.layers })
    }

    fn push(mut self, layer: Layer) -> Self {
        if let Ok(shape) = self.current.clone() {
            match layer.output_shape(&shape) {
                Ok(next) => {
                    self.current = Ok(next);
                    self.layers.push(layer);
                }
                Err(e) => self.current = Err(e),
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_shapes() {
        let net = NetworkBuilder::new([1, 3, 16, 16], 1)
            .conv(8, 3, 1, 1, Activation::Relu)
            .max_pool(2, 2)
            .conv(16, 3, 1, 1, Activation::Relu)
            .max_pool(2, 2)
            .flatten()
            .linear(5, Activation::None)
            .build()
            .unwrap();
        assert_eq!(net.output_shape().unwrap().dims(), &[1, 5]);
        assert_eq!(net.layers().len(), 6);
    }

    #[test]
    fn builder_rejects_incompatible_layers() {
        let err = NetworkBuilder::new([1, 1, 4, 4], 1)
            .max_pool(8, 8)
            .build();
        assert!(err.is_err());
        // Linear before flatten on a 4-D tensor is also a build error.
        let err = NetworkBuilder::new([1, 1, 4, 4], 1)
            .linear(3, Activation::None)
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn forward_validates_input_shape() {
        let net = NetworkBuilder::new([1, 1, 4, 4], 1)
            .flatten()
            .linear(2, Activation::None)
            .build()
            .unwrap();
        assert!(net.forward(&Tensor::zeros([1, 1, 4, 4])).is_ok());
        assert!(net.forward(&Tensor::zeros([1, 1, 5, 5])).is_err());
    }

    #[test]
    fn forward_is_deterministic_across_equal_seeds() {
        let make = || {
            NetworkBuilder::new([1, 1, 6, 6], 99)
                .conv(2, 3, 1, 0, Activation::Tanh)
                .flatten()
                .linear(3, Activation::Sigmoid)
                .build()
                .unwrap()
        };
        let input = Tensor::from_fn([1, 1, 6, 6], |i| (i[2] * 6 + i[3]) as f32 / 36.0);
        let a = make().forward(&input).unwrap();
        let b = make().forward(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forward_with_matches_forward_on_any_thread_count() {
        let net = NetworkBuilder::new([2, 2, 12, 12], 7)
            .conv(6, 3, 1, 1, Activation::LeakyRelu(0.1))
            .max_pool(2, 2)
            .conv(8, 3, 1, 1, Activation::Relu)
            .flatten()
            .linear(10, Activation::Sigmoid)
            .build()
            .unwrap();
        let input = Tensor::from_fn([2, 2, 12, 12], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 19) as f32 / 19.0 - 0.4
        });
        let serial = net.forward(&input).unwrap();
        for threads in [1, 2, 8] {
            let par = net.forward_with(&Runtime::new(threads), &input).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn forward_batched_matches_per_image_forward_bitwise() {
        let net = NetworkBuilder::new([1, 2, 12, 12], 7)
            .conv(6, 3, 1, 1, Activation::LeakyRelu(0.1))
            .max_pool(2, 2)
            .conv(8, 3, 1, 1, Activation::Relu)
            .flatten()
            .linear(10, Activation::Sigmoid)
            .build()
            .unwrap();
        let batch = Tensor::from_fn([5, 2, 12, 12], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 19) as f32 / 19.0 - 0.4
        });
        let per_img = 2 * 12 * 12;
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            let batched = net.forward_batched(&rt, &batch).unwrap();
            assert_eq!(batched.shape().dims(), &[5, 10]);
            for img in 0..5 {
                let single = Tensor::from_vec(
                    [1, 2, 12, 12],
                    batch.as_slice()[img * per_img..(img + 1) * per_img].to_vec(),
                )
                .unwrap();
                let one = net.forward_with(&rt, &single).unwrap();
                for (j, (x, y)) in
                    batched.as_slice()[img * 10..(img + 1) * 10].iter().zip(one.iter()).enumerate()
                {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "img={img} out={j} t={threads}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_batched_validates_per_image_dims() {
        let net = NetworkBuilder::new([1, 1, 4, 4], 1)
            .flatten()
            .linear(2, Activation::None)
            .build()
            .unwrap();
        let rt = Runtime::serial();
        assert!(net.forward_batched(&rt, &Tensor::zeros([3, 1, 4, 4])).is_ok());
        assert!(net.forward_batched(&rt, &Tensor::zeros([3, 1, 5, 5])).is_err());
        assert!(net.forward_batched(&rt, &Tensor::zeros([1, 4, 4])).is_err());
    }

    #[test]
    fn cost_matches_layer_count() {
        let net = NetworkBuilder::new([1, 1, 8, 8], 1)
            .conv(4, 3, 1, 1, Activation::Relu)
            .batch_norm()
            .max_pool(2, 2)
            .flatten()
            .linear(2, Activation::None)
            .build()
            .unwrap();
        let cost = net.cost().unwrap();
        assert_eq!(cost.layers.len(), 5);
        assert!(cost.total.flops > 0);
        let conv_share = cost.flop_fraction(|l| l.kind == "conv2d" || l.kind == "linear");
        assert!(conv_share > 0.8, "affine layers dominate: {conv_share}");
    }

    #[test]
    fn batch_norm_keeps_values_finite() {
        let net = NetworkBuilder::new([1, 2, 4, 4], 5)
            .conv(2, 3, 1, 1, Activation::None)
            .batch_norm()
            .build()
            .unwrap();
        let out = net.forward(&Tensor::filled([1, 2, 4, 4], 0.5)).unwrap();
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
