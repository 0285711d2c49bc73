use super::error::ModelError;
use super::spec::{ArchSpec, LayerSpec};
use crate::layer::Activation;
use crate::network::{Network, NetworkBuilder};

/// Full-scale GOTURN-style tracking architecture: an AlexNet-like
/// convolutional trunk over the stacked (previous-crop, current-crop)
/// pair, followed by three 4096-wide fully-connected layers regressing
/// the target bounding box (paper §3.1.2, Fig. 4).
///
/// The published GOTURN runs two weight-shared CaffeNet trunks and
/// concatenates their features; this spec stacks both RGB crops into a
/// six-channel input processed by one trunk of the same depth, which
/// preserves the layer structure and total arithmetic within a few
/// percent while remaining a sequential graph.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::goturn_spec;
///
/// let cost = goturn_spec().cost().unwrap();
/// assert!(cost.gflops() > 1.0);
/// ```
pub fn goturn_spec() -> ArchSpec {
    let relu = Activation::Relu;
    ArchSpec::new(// Two 227x227 RGB crops stacked channel-wise.
        [1, 6, 227, 227],
        vec![
            LayerSpec::Conv { out: 96, k: 11, stride: 4, pad: 0, act: relu },
            LayerSpec::MaxPool { window: 3, stride: 2 },
            LayerSpec::Conv { out: 256, k: 5, stride: 1, pad: 2, act: relu },
            LayerSpec::MaxPool { window: 3, stride: 2 },
            LayerSpec::Conv { out: 384, k: 3, stride: 1, pad: 1, act: relu },
            LayerSpec::Conv { out: 384, k: 3, stride: 1, pad: 1, act: relu },
            LayerSpec::Conv { out: 256, k: 3, stride: 1, pad: 1, act: relu },
            LayerSpec::MaxPool { window: 3, stride: 2 },
            LayerSpec::Flatten,
            LayerSpec::Linear { out: 4096, act: relu },
            LayerSpec::Linear { out: 4096, act: relu },
            LayerSpec::Linear { out: 4096, act: relu },
            // Bounding-box regression: (cx, cy, w, h).
            LayerSpec::Linear { out: 4, act: Activation::None },
        ],
    )
}

/// Reduced-scale GOTURN-like tracker that runs natively.
///
/// Input `[1, 2, 32, 32]`: the previous frame's target crop and the
/// current frame's search-region crop, stacked as two grayscale
/// channels. Output `[1, 4]`: sigmoid-squashed `(cx, cy, w, h)` of the
/// target inside the search region.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::goturn_tiny;
/// use adsim_tensor::Tensor;
///
/// let net = goturn_tiny();
/// let out = net.forward(&Tensor::zeros([1, 2, 32, 32])).unwrap();
/// assert_eq!(out.shape().dims(), &[1, 4]);
/// ```
pub fn goturn_tiny() -> Network {
    try_goturn_tiny().expect("goturn_tiny layer stack is shape-consistent")
}

/// Fallible form of [`goturn_tiny`].
///
/// # Errors
///
/// Returns [`ModelError::Build`] if the layer stack fails shape
/// propagation (it cannot with the fixed stack below, but the decode
/// path is typed rather than panicking).
pub(crate) fn try_goturn_tiny() -> Result<Network, ModelError> {
    let net = NetworkBuilder::new([1, 2, 32, 32], 0x607)
        .conv(8, 5, 2, 2, Activation::Relu)
        .max_pool(2, 2)
        .conv(16, 3, 1, 1, Activation::Relu)
        .flatten()
        .linear(64, Activation::Relu)
        .linear(4, Activation::Sigmoid)
        .build()?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_tensor::Tensor;

    #[test]
    fn full_spec_regresses_four_outputs() {
        assert_eq!(goturn_spec().output_shape().unwrap().dims(), &[1, 4]);
    }

    #[test]
    fn full_spec_dnn_dominates_cycles() {
        let cost = goturn_spec().cost().unwrap();
        let dnn = cost.flop_fraction(|l| l.kind == "conv2d" || l.kind == "linear");
        assert!(dnn > 0.98, "DNN fraction {dnn} (paper Fig. 7: 99.0%)");
    }

    #[test]
    fn tiny_output_is_normalized_bbox() {
        let net = goturn_tiny();
        let out = net
            .forward(&Tensor::from_fn([1, 2, 32, 32], |i| (i[2] + i[3]) as f32 / 64.0))
            .unwrap();
        for &v in out.iter() {
            assert!((0.0..=1.0).contains(&v), "sigmoid output in range, got {v}");
        }
    }

    #[test]
    fn tiny_is_sensitive_to_input() {
        let net = goturn_tiny();
        let a = net.forward(&Tensor::filled([1, 2, 32, 32], 0.0)).unwrap();
        let b = net.forward(&Tensor::filled([1, 2, 32, 32], 1.0)).unwrap();
        assert_ne!(a, b, "different crops must regress different boxes");
    }
}
