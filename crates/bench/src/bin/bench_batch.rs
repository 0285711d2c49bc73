//! Cross-vehicle batched inference + int8 lane-path contracts.
//!
//! Two checks from this workspace's batching/quantization work:
//!
//! * **Batch=1 bit-identity** — one `[1, c, h, w]` `forward_batched`
//!   must reproduce the per-vehicle `forward_with` path bit for bit, so
//!   batching can never change what a vehicle sees.
//! * **Quantization accuracy** — per-layer max-abs-error of int8 vs
//!   f32 on the same input (local error, not accumulated drift) and
//!   the detection-level delta after decode + NMS.
//!
//! Timing lives in perfbench: `dnn.forward_batched_ms_per_image` vs
//! `dnn.forward_batch1_ms` for the batched forward, `tensor.linear_gflops`
//! for the FC-head regime batching targets.
//!
//! Everything lands in `target/bench/BENCH_batch.json`.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_batch [-- --smoke]
//! ```

use adsim_dnn::detection::{decode_grid, nms};
use adsim_dnn::models::yolo_tiny_shared;
use adsim_dnn::quant::QuantNetwork;
use adsim_runtime::Runtime;
use adsim_tensor::Tensor;
use adsim_vision::GrayImage;

/// Deterministic workload seed (patterns below derive from it).
const SEED: u64 = 0xBA7C4;

/// YOLO output grid (side = 8 × grid).
const GRID: usize = 8;

/// A deterministic pseudo-random f32 in [-1, 1).
fn noise(i: u64) -> f32 {
    let h = (i ^ SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

/// Whether a batch-of-one `forward_batched` reproduces the per-vehicle
/// `forward_with` path bit for bit on one single-thread frame.
fn batch1_parity() -> bool {
    let rt = Runtime::serial();
    let net = yolo_tiny_shared(GRID);
    let side = 8 * GRID;
    let pixels = (0..side * side).map(|i| noise(i as u64) * 0.5 + 0.5).collect();
    let one = Tensor::from_vec(vec![1, 1, side, side], pixels).expect("frame shape");
    let batched = net.forward_batched(&rt, &one).expect("model accepts its input");
    let single = net.forward_with(&rt, &one).expect("model accepts its input");
    batched.as_slice() == single.as_slice()
}

struct DetectionDelta {
    raw_cells: usize,
    max_box_delta: f32,
    max_score_delta: f32,
    dets_f32: usize,
    dets_int8: usize,
}

/// Detection-level int8-vs-f32 delta on a deterministic frame.
fn measure_detection_delta(qnet: &QuantNetwork, rt: &Runtime, input: &Tensor) -> DetectionDelta {
    let f32_out = qnet.network().forward_with(rt, input).expect("model accepts its input");
    let i8_out = qnet.forward_with(rt, input).expect("model accepts its input");
    // Threshold 0 decodes every grid cell, index-aligned across paths.
    let raw_f = decode_grid(&f32_out, 0.0);
    let raw_q = decode_grid(&i8_out, 0.0);
    let mut max_box = 0f32;
    let mut max_score = 0f32;
    for (a, b) in raw_f.iter().zip(&raw_q) {
        for (x, y) in [
            (a.bbox.cx, b.bbox.cx),
            (a.bbox.cy, b.bbox.cy),
            (a.bbox.w, b.bbox.w),
            (a.bbox.h, b.bbox.h),
        ] {
            max_box = max_box.max((x - y).abs());
        }
        max_score = max_score.max((a.score - b.score).abs());
    }
    DetectionDelta {
        raw_cells: raw_f.len(),
        max_box_delta: max_box,
        max_score_delta: max_score,
        dets_f32: nms(decode_grid(&f32_out, 0.5), 0.5).len(),
        dets_int8: nms(decode_grid(&i8_out, 0.5), 0.5).len(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };

    adsim_bench::header(
        "Batch",
        "cross-vehicle batched DNN inference + int8 quantized lane path",
    );

    // -- Batch=1 bit-identity (1 thread). -------------------------------
    let parity = batch1_parity();
    println!("batch=1 bitwise-identical to per-vehicle path: {}", adsim_bench::mark(parity));
    assert!(parity, "batch=1 must reproduce the per-vehicle forward bit for bit");

    // -- Quantization accuracy: per-layer + detection-level. ------------
    let rt = Runtime::serial();
    let net = yolo_tiny_shared(GRID);
    let side = 8 * GRID;
    let frame = GrayImage::from_fn(80, 60, |x, y| ((x * 5 + y * 3) % 251) as u8);
    let input = frame.resize(side, side).to_tensor();
    let qnet = QuantNetwork::from_network(&net);
    let errors = qnet.layer_errors(&rt, &input).expect("model accepts its input");
    println!("\nper-layer int8 accuracy (same f32 input per layer):");
    for e in &errors {
        println!(
            "  layer {:>2} {:<8} max|err| {:>10.6}  (output scale {:>8.4})",
            e.index, e.kind, e.max_abs_error, e.output_scale
        );
    }
    let delta = measure_detection_delta(&qnet, &rt, &input);
    println!(
        "detection delta over {} grid cells: max box {:.6}, max score {:.6}, \
         detections {} (f32) vs {} (int8)",
        delta.raw_cells, delta.max_box_delta, delta.max_score_delta, delta.dets_f32,
        delta.dets_int8
    );

    adsim_bench::write_artifact("BENCH_batch.json", &to_json(mode, parity, &errors, &delta));
}

/// Hand-rolled JSON (offline policy: no serde). All values are numbers,
/// booleans or plain ASCII identifiers, so no escaping is required.
fn to_json(
    mode: &str,
    parity: bool,
    errors: &[adsim_dnn::quant::LayerError],
    delta: &DetectionDelta,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"bench_batch\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"batch1_parity_bitwise\": {parity},\n"));
    s.push_str("  \"layer_errors\": [\n");
    for (i, e) in errors.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"layer\": {}, \"kind\": \"{}\", \"max_abs_error\": {:.6}, \
             \"output_scale\": {:.6}}}{}\n",
            e.index,
            e.kind,
            e.max_abs_error,
            e.output_scale,
            if i + 1 < errors.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"detection_delta\": {{\"raw_cells\": {}, \"max_box_delta\": {:.6}, \
         \"max_score_delta\": {:.6}, \"dets_f32\": {}, \"dets_int8\": {}}}\n",
        delta.raw_cells,
        delta.max_box_delta,
        delta.max_score_delta,
        delta.dets_f32,
        delta.dets_int8,
    ));
    s.push_str("}\n");
    s
}
