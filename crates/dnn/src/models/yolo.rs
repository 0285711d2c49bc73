use super::error::ModelError;
use super::spec::{ArchSpec, LayerSpec};
use crate::detection::ObjectClass;
use crate::layer::Activation;
use crate::network::{Network, NetworkBuilder};

/// Validates that a spatial extent pair is a positive multiple of the
/// network's total downsampling factor.
fn check_alignment(
    model: &'static str,
    height: usize,
    width: usize,
    multiple: usize,
) -> Result<(), ModelError> {
    if height > 0 && width > 0 && height.is_multiple_of(multiple) && width.is_multiple_of(multiple)
    {
        Ok(())
    } else {
        Err(ModelError::UnalignedResolution { model, height, width, multiple })
    }
}

const LEAKY: Activation = Activation::LeakyRelu(0.1);

fn conv(out: usize, k: usize, pad: usize) -> LayerSpec {
    LayerSpec::Conv { out, k, stride: 1, pad, act: LEAKY }
}

fn pool() -> LayerSpec {
    LayerSpec::MaxPool { window: 2, stride: 2 }
}

/// Full-scale YOLOv2-style detection architecture (Darknet-19 trunk +
/// detection head), the multi-object detector the paper selects for its
/// DET engine because it "outperforms all the other multiple object
/// detection algorithms in both accuracy and speed" (§3.1.1).
///
/// `height` and `width` are the input resolution and must be multiples
/// of 32 (five 2× poolings). The returned spec is used for cost
/// analysis; it is far too large to execute natively in tests — use
/// [`yolo_tiny`] for that.
///
/// # Panics
///
/// Panics if `height` or `width` is not a positive multiple of 32.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::yolo_v2_spec;
///
/// let spec = yolo_v2_spec(416, 416);
/// // Tens of GFLOPs, like the published network.
/// assert!(spec.cost().unwrap().gflops() > 10.0);
/// ```
pub fn yolo_v2_spec(height: usize, width: usize) -> ArchSpec {
    try_yolo_v2_spec(height, width)
        .unwrap_or_else(|e| panic!("YOLO input must be a positive multiple of 32: {e}"))
}

/// Fallible form of [`yolo_v2_spec`] for resolutions that come from
/// configuration rather than code.
///
/// # Errors
///
/// Returns [`ModelError::UnalignedResolution`] unless `height` and
/// `width` are positive multiples of 32.
pub(crate) fn try_yolo_v2_spec(height: usize, width: usize) -> Result<ArchSpec, ModelError> {
    check_alignment("yolo-v2", height, width, 32)?;
    let mut layers = vec![
        conv(32, 3, 1),
        LayerSpec::BatchNorm,
        pool(),
        conv(64, 3, 1),
        LayerSpec::BatchNorm,
        pool(),
        conv(128, 3, 1),
        conv(64, 1, 0),
        conv(128, 3, 1),
        LayerSpec::BatchNorm,
        pool(),
        conv(256, 3, 1),
        conv(128, 1, 0),
        conv(256, 3, 1),
        LayerSpec::BatchNorm,
        pool(),
        conv(512, 3, 1),
        conv(256, 1, 0),
        conv(512, 3, 1),
        conv(256, 1, 0),
        conv(512, 3, 1),
        LayerSpec::BatchNorm,
        pool(),
        conv(1024, 3, 1),
        conv(512, 1, 0),
        conv(1024, 3, 1),
        conv(512, 1, 0),
        conv(1024, 3, 1),
        LayerSpec::BatchNorm,
    ];
    // Detection head: two 3x3 convs and a 1x1 projection to the grid
    // channels (tx, ty, tw, th, objectness, per-class scores).
    layers.push(conv(1024, 3, 1));
    layers.push(conv(1024, 3, 1));
    layers.push(LayerSpec::Conv {
        out: 5 + ObjectClass::COUNT,
        k: 1,
        stride: 1,
        pad: 0,
        act: Activation::None,
    });
    Ok(ArchSpec::new([1, 3, height, width], layers))
}

/// VGG16 (Simonyan & Zisserman), the reference network of the paper's
/// §5.4 accuracy discussion: "doubling the input resolution can
/// improve the accuracy of VGG16 ... from 80.3% to 87.4%". Provided
/// for cost analysis at arbitrary input resolutions.
///
/// # Panics
///
/// Panics if `height` or `width` is not a positive multiple of 32.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::vgg16_spec;
///
/// let cost = vgg16_spec(224, 224).cost().unwrap();
/// // The canonical ~31 GFLOPs (15.5 GMACs) at 224x224.
/// assert!(cost.gflops() > 25.0 && cost.gflops() < 40.0);
/// ```
pub fn vgg16_spec(height: usize, width: usize) -> ArchSpec {
    try_vgg16_spec(height, width)
        .unwrap_or_else(|e| panic!("VGG16 input must be a positive multiple of 32: {e}"))
}

/// Fallible form of [`vgg16_spec`] for resolutions that come from
/// configuration rather than code.
///
/// # Errors
///
/// Returns [`ModelError::UnalignedResolution`] unless `height` and
/// `width` are positive multiples of 32.
pub(crate) fn try_vgg16_spec(height: usize, width: usize) -> Result<ArchSpec, ModelError> {
    check_alignment("vgg16", height, width, 32)?;
    let relu = Activation::Relu;
    let c = |out: usize| LayerSpec::Conv { out, k: 3, stride: 1, pad: 1, act: relu };
    let mut layers = Vec::new();
    for &(reps, ch) in &[(2usize, 64usize), (2, 128), (3, 256), (3, 512), (3, 512)] {
        for _ in 0..reps {
            layers.push(c(ch));
        }
        layers.push(pool());
    }
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::Linear { out: 4096, act: relu });
    layers.push(LayerSpec::Linear { out: 4096, act: relu });
    layers.push(LayerSpec::Linear { out: 1000, act: Activation::None });
    Ok(ArchSpec::new([1, 3, height, width], layers))
}

/// Reduced-scale YOLO-like detector that runs natively: a three-stage
/// conv/pool trunk on a single-channel image followed by the same grid
/// detection head as the full model.
///
/// The input is `[1, 1, 8·grid, 8·grid]` and the output grid is
/// `grid`×`grid`, decodable with
/// [`decode_grid`](crate::detection::decode_grid).
///
/// # Panics
///
/// Panics if `grid == 0`.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::yolo_tiny;
///
/// let net = yolo_tiny(4);
/// assert_eq!(net.input_shape().dims(), &[1, 1, 32, 32]);
/// assert_eq!(net.output_shape().unwrap().dims(), &[1, 9, 4, 4]);
/// ```
pub fn yolo_tiny(grid: usize) -> Network {
    try_yolo_tiny(grid).unwrap_or_else(|e| panic!("grid must be positive: {e}"))
}

/// Fallible form of [`yolo_tiny`].
///
/// # Errors
///
/// Returns [`ModelError::ZeroSize`] when `grid == 0`, or
/// [`ModelError::Build`] if the layer stack fails shape propagation.
pub(crate) fn try_yolo_tiny(grid: usize) -> Result<Network, ModelError> {
    if grid == 0 {
        return Err(ModelError::ZeroSize { model: "yolo-tiny", parameter: "grid" });
    }
    let side = 8 * grid;
    let net = NetworkBuilder::new([1, 1, side, side], 0xDE7)
        .conv(8, 3, 1, 1, LEAKY)
        .max_pool(2, 2)
        .conv(16, 3, 1, 1, LEAKY)
        .max_pool(2, 2)
        .conv(32, 3, 1, 1, LEAKY)
        .max_pool(2, 2)
        .conv(5 + ObjectClass::COUNT, 1, 1, 0, Activation::None)
        .build()?;
    Ok(net)
}

/// Reduced-scale YOLOv2-style detector that runs natively: the same
/// input/output geometry as [`yolo_tiny`] (`[1, 1, 8·grid, 8·grid]` in,
/// `grid`×`grid` head out) but with a richer trunk — wider stages with
/// the 1×1 bottleneck convs characteristic of the full
/// [`yolo_v2_spec`] architecture. Roughly an order of magnitude more
/// FLOPs than `yolo_tiny` at the same grid: the executable stand-in
/// for the "full model" end of the anytime quality ladder, with
/// `yolo_tiny` as the degraded variant.
///
/// # Panics
///
/// Panics if `grid == 0`.
///
/// # Examples
///
/// ```
/// use adsim_dnn::models::{yolo_tiny, yolo_v2_tiny};
///
/// let full = yolo_v2_tiny(4);
/// let tiny = yolo_tiny(4);
/// assert_eq!(full.input_shape(), tiny.input_shape());
/// assert_eq!(full.output_shape().unwrap(), tiny.output_shape().unwrap());
/// let (f, t) = (full.cost().unwrap().total.flops, tiny.cost().unwrap().total.flops);
/// assert!(f > 5 * t, "v2 trunk must cost several times the tiny trunk");
/// ```
pub fn yolo_v2_tiny(grid: usize) -> Network {
    try_yolo_v2_tiny(grid).unwrap_or_else(|e| panic!("grid must be positive: {e}"))
}

/// Fallible form of [`yolo_v2_tiny`].
///
/// # Errors
///
/// Returns [`ModelError::ZeroSize`] when `grid == 0`, or
/// [`ModelError::Build`] if the layer stack fails shape propagation.
pub(crate) fn try_yolo_v2_tiny(grid: usize) -> Result<Network, ModelError> {
    if grid == 0 {
        return Err(ModelError::ZeroSize { model: "yolo-v2-tiny", parameter: "grid" });
    }
    let side = 8 * grid;
    let net = NetworkBuilder::new([1, 1, side, side], 0xDE72)
        .conv(16, 3, 1, 1, LEAKY)
        .max_pool(2, 2)
        .conv(32, 3, 1, 1, LEAKY)
        .conv(16, 1, 1, 0, LEAKY)
        .conv(32, 3, 1, 1, LEAKY)
        .max_pool(2, 2)
        .conv(64, 3, 1, 1, LEAKY)
        .conv(32, 1, 1, 0, LEAKY)
        .conv(64, 3, 1, 1, LEAKY)
        .max_pool(2, 2)
        .conv(5 + ObjectClass::COUNT, 1, 1, 0, Activation::None)
        .build()?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::decode_grid;
    use adsim_tensor::Tensor;

    #[test]
    fn full_spec_output_is_32x_downsampled_grid() {
        let spec = yolo_v2_spec(416, 416);
        let out = spec.output_shape().unwrap();
        assert_eq!(out.dims(), &[1, 9, 13, 13]);
    }

    #[test]
    fn full_spec_flops_scale_with_resolution() {
        let a = yolo_v2_spec(416, 416).cost().unwrap().total.flops;
        let b = yolo_v2_spec(416, 832).cost().unwrap().total.flops;
        let ratio = b as f64 / a as f64;
        assert!((ratio - 2.0).abs() < 0.05, "conv FLOPs ~linear in pixels: {ratio}");
    }

    #[test]
    fn full_spec_dnn_flops_dominate() {
        let cost = yolo_v2_spec(448, 448).cost().unwrap();
        let dnn = cost.flop_fraction(|l| l.kind == "conv2d" || l.kind == "linear");
        assert!(dnn > 0.99, "DNN fraction {dnn} should exceed 99% (paper Fig. 7)");
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn rejects_unaligned_resolution() {
        yolo_v2_spec(100, 100);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert_eq!(
            try_yolo_v2_spec(100, 100).unwrap_err(),
            ModelError::UnalignedResolution { model: "yolo-v2", height: 100, width: 100, multiple: 32 }
        );
        assert_eq!(
            try_vgg16_spec(0, 224).unwrap_err(),
            ModelError::UnalignedResolution { model: "vgg16", height: 0, width: 224, multiple: 32 }
        );
        assert_eq!(
            try_yolo_tiny(0).unwrap_err(),
            ModelError::ZeroSize { model: "yolo-tiny", parameter: "grid" }
        );
    }

    #[test]
    fn try_constructors_agree_with_panicking_forms() {
        assert_eq!(try_yolo_v2_spec(416, 416).unwrap(), yolo_v2_spec(416, 416));
        assert_eq!(try_vgg16_spec(224, 224).unwrap(), vgg16_spec(224, 224));
        let a = try_yolo_tiny(4).unwrap();
        let b = yolo_tiny(4);
        assert_eq!(a.output_shape().unwrap(), b.output_shape().unwrap());
    }

    #[test]
    fn vgg16_cost_matches_published_flops() {
        let cost = vgg16_spec(224, 224).cost().unwrap();
        // Published: ~15.5 GMACs = ~31 GFLOPs for the conv+fc stack.
        assert!(
            (cost.gflops() - 31.0).abs() < 4.0,
            "VGG16 GFLOPs {:.1}",
            cost.gflops()
        );
        assert_eq!(vgg16_spec(224, 224).output_shape().unwrap().dims(), &[1, 1000]);
    }

    #[test]
    fn vgg16_flops_scale_linearly_in_conv_resolution() {
        // The 5.4 accuracy-for-compute trade: doubling the input
        // resolution roughly quadruples the conv FLOPs (FC is fixed
        // at... actually FC input grows too; conv dominates).
        let a = vgg16_spec(224, 224).cost().unwrap().total.flops as f64;
        let b = vgg16_spec(448, 448).cost().unwrap().total.flops as f64;
        assert!(b / a > 3.5, "ratio {}", b / a);
    }

    #[test]
    fn v2_tiny_matches_tiny_geometry_and_decodes() {
        let net = yolo_v2_tiny(4);
        assert_eq!(net.input_shape().dims(), &[1, 1, 32, 32]);
        assert_eq!(net.output_shape().unwrap().dims(), yolo_tiny(4).output_shape().unwrap().dims());
        let input = Tensor::from_fn([1, 1, 32, 32], |i| ((i[2] ^ i[3]) & 1) as f32);
        let dets = decode_grid(&net.forward(&input).unwrap(), 0.0);
        assert_eq!(dets.len(), 16);
        assert_eq!(
            try_yolo_v2_tiny(0).unwrap_err(),
            ModelError::ZeroSize { model: "yolo-v2-tiny", parameter: "grid" }
        );
    }

    #[test]
    fn v2_tiny_weights_differ_from_tiny() {
        // Different seed and architecture: the variants must not alias.
        let a = yolo_v2_tiny(2);
        let b = yolo_tiny(2);
        assert_ne!(a.params().len(), b.params().len());
    }

    #[test]
    fn tiny_net_runs_and_decodes() {
        let net = yolo_tiny(4);
        let input = Tensor::from_fn([1, 1, 32, 32], |i| ((i[2] ^ i[3]) & 1) as f32);
        let out = net.forward(&input).unwrap();
        // With random weights we only require structural validity:
        // decodable output and scores in range.
        let dets = decode_grid(&out, 0.0);
        assert_eq!(dets.len(), 16, "threshold 0 keeps every cell");
        for d in dets {
            assert!(d.score >= 0.0 && d.score <= 1.0);
            assert!(d.bbox.cx >= 0.0 && d.bbox.cx <= 1.0);
        }
    }
}
