//! Reference kernel probes for the two bottom layers, `adsim-tensor`
//! and `adsim-dnn`: fixed shapes taken from the models the workloads
//! run, one thread (the DNN's share of the urban fork), best of a few
//! repetitions. They read the same on every workload; what changes
//! them is a change to the kernels.

use crate::report::Metrics;
use adsim_dnn::models::{goturn_tiny_shared, yolo_tiny_shared};
use adsim_dnn::{Layer, Network};
use adsim_runtime::Runtime;
use adsim_tensor::{ops, Shape, Tensor};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Best wall time of `REPS` runs, in seconds.
fn best_s<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A tensor of reproducible values in [-1, 1).
fn filled(shape: impl Into<Shape>, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(shape, |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    })
}

/// A layer's input shape with the batch dimension replaced.
fn batched(shape: &Shape, batch: usize) -> Vec<usize> {
    let mut dims: Vec<usize> = (0..shape.rank()).map(|i| shape.dim(i)).collect();
    dims[0] = batch;
    dims
}

/// `(layer, its input shape)` for every layer of `net`.
fn layer_inputs(net: &Network) -> Vec<(&Layer, Shape)> {
    let mut shape = net.input_shape().clone();
    net.layers()
        .iter()
        .map(|layer| {
            let input = shape.clone();
            shape = layer.output_shape(&input).expect("built network");
            (layer, input)
        })
        .collect()
}

/// FLOP-weighted GFLOP/s of `conv2d_with` over every convolution of
/// `net` at the given batch size.
fn conv_gflops(net: &Network, batch: usize, rt: &Runtime, seed: u64) -> f64 {
    let (mut flops, mut seconds) = (0.0, 0.0);
    for (layer, shape) in layer_inputs(net) {
        let Layer::Conv2d {
            weight,
            bias,
            stride,
            pad,
            ..
        } = layer
        else {
            continue;
        };
        let input = filled(batched(&shape, batch), seed);
        let out = ops::conv2d_with(rt, &input, weight, bias.as_ref(), *stride, *pad)
            .expect("model shapes are valid");
        let macs_per_output = weight.len() / weight.shape().dim(0);
        flops += 2.0 * out.len() as f64 * macs_per_output as f64;
        seconds += best_s(|| ops::conv2d_with(rt, &input, weight, bias.as_ref(), *stride, *pad));
    }
    flops / seconds / 1e9
}

/// GFLOP/s of `linear_with` over every fully-connected layer of `net`.
fn linear_gflops(net: &Network, rt: &Runtime, seed: u64) -> f64 {
    let (mut flops, mut seconds) = (0.0, 0.0);
    for (layer, shape) in layer_inputs(net) {
        let Layer::Linear { weight, bias, .. } = layer else {
            continue;
        };
        let input = filled(batched(&shape, 1), seed);
        flops += 2.0 * weight.len() as f64;
        seconds += best_s(|| ops::linear_with(rt, &input, weight, bias.as_ref()));
    }
    flops / seconds / 1e9
}

/// Share of the summed per-layer forward time spent in each layer kind.
fn layer_shares(net: &Network, rt: &Runtime, input: &Tensor) -> impl Fn(&str) -> f64 {
    let mut by_kind: Vec<(&'static str, f64)> = Vec::new();
    let mut x = input.clone();
    for layer in net.layers() {
        let s = best_s(|| layer.forward_with(rt, &x));
        x = layer.forward_with(rt, &x).expect("built network");
        match by_kind.iter_mut().find(|(k, _)| *k == layer.kind()) {
            Some((_, total)) => *total += s,
            None => by_kind.push((layer.kind(), s)),
        }
    }
    let total: f64 = by_kind.iter().map(|(_, s)| s).sum();
    move |kind| {
        by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, s)| s / total)
    }
}

/// Fills every `tensor.*` and the model-level `dnn.*` metrics.
pub fn probe(seed: u64, metrics: &mut Metrics) {
    let rt = Runtime::serial();

    let (a, b) = (filled([256, 256], seed), filled([256, 256], seed ^ 0xB));
    let matmul = 2.0 * 256f64.powi(3) / best_s(|| ops::matmul_with(&rt, &a, &b)) / 1e9;
    metrics.put("tensor.matmul256_gflops", matmul, REPS);

    let yolo56 = yolo_tiny_shared(56);
    let yolo8 = yolo_tiny_shared(8);
    let goturn = goturn_tiny_shared();
    let conv = conv_gflops(&yolo56, 1, &rt, seed);
    metrics.put("tensor.conv2d_gflops", conv, REPS);
    metrics.put(
        "tensor.conv2d_batched_gflops",
        conv_gflops(&yolo8, 8, &rt, seed),
        REPS,
    );
    metrics.put(
        "tensor.linear_gflops",
        linear_gflops(&goturn, &rt, seed),
        REPS,
    );
    metrics.put("tensor.conv2d_over_matmul", conv / matmul, REPS);

    let input56 = filled(batched(yolo56.input_shape(), 1), seed);
    let forward_s = best_s(|| yolo56.forward_with(&rt, &input56));
    let cost = yolo56.cost().expect("built network").total;
    metrics.put("dnn.forward_ms", forward_s * 1e3, REPS);
    metrics.put(
        "dnn.forward_gflops",
        cost.flops as f64 / forward_s / 1e9,
        REPS,
    );
    let share = layer_shares(&yolo56, &rt, &input56);
    metrics.put("dnn.conv_share", share("conv2d"), REPS);
    metrics.put("dnn.pool_share", share("maxpool2d"), REPS);
    metrics.put("dnn.linear_share", share("linear"), REPS);

    let crops = filled(batched(goturn.input_shape(), 1), seed);
    metrics.put(
        "dnn.goturn_forward_ms",
        best_s(|| goturn.forward_with(&rt, &crops)) * 1e3,
        REPS,
    );

    const BATCH: usize = 8;
    let one = filled(batched(yolo8.input_shape(), 1), seed);
    let many = filled(batched(yolo8.input_shape(), BATCH), seed);
    metrics.put(
        "dnn.forward_batch1_ms",
        best_s(|| yolo8.forward_with(&rt, &one)) * 1e3,
        REPS,
    );
    metrics.put(
        "dnn.forward_batched_ms_per_image",
        best_s(|| yolo8.forward_batched(&rt, &many)) * 1e3 / BATCH as f64,
        REPS,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_tensors_are_reproducible_and_bounded() {
        let (a, b) = (filled([4, 5], 9), filled([4, 5], 9));
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), filled([4, 5], 10).as_slice());
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(a.iter().any(|v| *v != a.as_slice()[0]));
    }

    #[test]
    fn layer_inputs_chain_shapes_through_the_detector() {
        let net = yolo_tiny_shared(4);
        let inputs = layer_inputs(&net);
        assert_eq!(inputs.len(), net.layers().len());
        assert_eq!(&inputs[0].1, net.input_shape());
        let convs = inputs
            .iter()
            .filter(|(l, _)| matches!(l, Layer::Conv2d { .. }))
            .count();
        assert!(convs >= 2, "yolo_tiny is a convolutional trunk");
        assert_eq!(batched(&inputs[0].1, 8)[0], 8);
    }
}
