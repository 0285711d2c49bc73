//! Cross-vehicle batched DNN inference.
//!
//! N vehicle cells running the same detector variant produce N
//! identical-shape `[1, c, side, side]` inputs per frame. Running them
//! one at a time opens every layer's parallel region with a single
//! image's worth of work; stacking them into one `[n, c, side, side]`
//! batch runs each layer once per wave over the shared weights — a conv
//! layer becomes n times as many `(image, column-panel)` tasks in one
//! region — the paper's accelerator-utilization argument (§5) applied
//! at fleet level.
//!
//! Determinism: requests are grouped by *every* parameter that could
//! change the output (model variant, grid, decode thresholds) in
//! `BTreeMap` order, the batched forward pass is bit-identical to the
//! per-image pass by kernel construction (pinned in
//! `crates/tensor/tests/simd_dispatch.rs` and the dnn batch-parity
//! tests), and decode + NMS run per image slice exactly as the inline
//! detector would. A batched campaign therefore reproduces the
//! unbatched campaign's outputs byte for byte.

use adsim_dnn::detection::{decode_grid, nms, Detection};
use adsim_dnn::models::{yolo_tiny_shared, yolo_v2_tiny_shared};
use adsim_perception::{BatchRequest, DetectorVariant};
use adsim_runtime::Runtime;
use adsim_tensor::Tensor;
use std::collections::BTreeMap;

/// Batching effectiveness counters (wall-clock-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batched forward passes executed.
    pub batches: u64,
    /// Detector requests served through them.
    pub requests: u64,
    /// Largest single batch (vehicles per forward pass).
    pub largest_batch: usize,
}

/// The fleet-level batched-inference service.
///
/// Collects same-variant detector inputs that the supervisors staged
/// at the hand-off point, runs one batched forward per model on the
/// process-wide shared-cache network, and scatters each vehicle's
/// decoded detections back. See the module docs for the determinism
/// argument.
#[derive(Debug)]
pub(crate) struct BatchedInference {
    rt: Runtime,
    stats: BatchStats,
}

impl BatchedInference {
    /// A service running its forward passes on `rt`. Outputs are
    /// bit-identical on any thread count.
    pub(crate) fn new(rt: Runtime) -> Self {
        Self { rt, stats: BatchStats::default() }
    }

    /// Batching counters so far.
    pub(crate) fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Serves one frame's worth of staged requests: returns the
    /// decoded, NMS-filtered detections index-aligned with `requests`.
    ///
    /// Requests are grouped by (variant, grid, threshold, iou); each
    /// group becomes one `[n, c, side, side]` forward pass on the
    /// shared cached network — the same `Arc`-backed weights every
    /// cell's own detector reads, so results match the inline path
    /// bit for bit.
    pub(crate) fn infer(&mut self, requests: &[&BatchRequest]) -> Vec<Vec<Detection>> {
        let mut groups: BTreeMap<(u8, usize, u32, u32), Vec<usize>> = BTreeMap::new();
        for (i, r) in requests.iter().enumerate() {
            let variant = match r.variant {
                DetectorVariant::Reduced => 0u8,
                DetectorVariant::Full => 1u8,
            };
            groups
                .entry((variant, r.grid, r.threshold.to_bits(), r.iou.to_bits()))
                .or_default()
                .push(i);
        }
        let mut out: Vec<Vec<Detection>> = vec![Vec::new(); requests.len()];
        for ((variant, grid, _, _), idxs) in &groups {
            let net = match variant {
                0 => yolo_tiny_shared(*grid),
                _ => yolo_v2_tiny_shared(*grid),
            };
            let n = idxs.len();
            let dims = requests[idxs[0]].input.shape().dims().to_vec();
            let mut data = Vec::with_capacity(n * requests[idxs[0]].input.len());
            for &i in idxs {
                data.extend_from_slice(requests[i].input.as_slice());
            }
            let batched = Tensor::from_vec(vec![n, dims[1], dims[2], dims[3]], data)
                .expect("stacked batch dims are consistent by grouping");
            let output = net
                .forward_batched(&self.rt, &batched)
                .expect("shared-cache model accepts its own input shape");
            let odims = output.shape().dims().to_vec();
            let stride: usize = odims[1..].iter().product();
            for (j, &i) in idxs.iter().enumerate() {
                let slice = &output.as_slice()[j * stride..(j + 1) * stride];
                let img_out =
                    Tensor::from_vec(vec![1, odims[1], odims[2], odims[3]], slice.to_vec())
                        .expect("per-image slice matches the output shape");
                let raw = decode_grid(&img_out, requests[i].threshold);
                out[i] = nms(raw, requests[i].iou);
            }
            self.stats.batches += 1;
            self.stats.requests += n as u64;
            self.stats.largest_batch = self.stats.largest_batch.max(n);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_perception::{Detector, YoloDetector};
    use adsim_vision::GrayImage;

    #[test]
    fn batched_service_matches_inline_detectors_bitwise() {
        let images: Vec<GrayImage> = (0..3)
            .map(|v| GrayImage::from_fn(80, 60, move |x, y| ((x * 3 + y * 7 + v * 11) % 255) as u8))
            .collect();
        // Inline reference: each vehicle's own detector.
        let inline: Vec<Vec<Detection>> = images
            .iter()
            .map(|img| YoloDetector::new(4, 0.0).detect(img))
            .collect();
        // Batched: stage all three, serve in one call.
        let mut dets: Vec<YoloDetector> =
            (0..3).map(|_| YoloDetector::new(4, 0.0)).collect();
        let reqs: Vec<BatchRequest> = dets
            .iter_mut()
            .zip(&images)
            .map(|(d, img)| d.batch_request(img).expect("yolo is batchable"))
            .collect();
        for workers in [1, 2, 8] {
            let mut svc = BatchedInference::new(Runtime::new(workers));
            let got = svc.infer(&reqs.iter().collect::<Vec<_>>());
            assert_eq!(got, inline, "workers={workers}");
            let stats = svc.stats();
            assert_eq!(stats.batches, 1, "same variant/grid must share one forward pass");
            assert_eq!(stats.requests, 3);
            assert_eq!(stats.largest_batch, 3);
        }
    }

    #[test]
    fn mixed_variants_split_into_separate_batches() {
        let img = GrayImage::from_fn(64, 64, |x, y| ((x + 2 * y) % 255) as u8);
        let mut a = YoloDetector::new(4, 0.0);
        let mut b = YoloDetector::new(4, 0.0);
        b.set_quality(1.0, DetectorVariant::Full);
        let want_a = YoloDetector::new(4, 0.0).detect(&img);
        let mut b_ref = YoloDetector::new(4, 0.0);
        b_ref.set_quality(1.0, DetectorVariant::Full);
        let want_b = b_ref.detect(&img);
        let ra = a.batch_request(&img).unwrap();
        let rb = b.batch_request(&img).unwrap();
        let mut svc = BatchedInference::new(Runtime::serial());
        let got = svc.infer(&[&ra, &rb]);
        assert_eq!(got[0], want_a);
        assert_eq!(got[1], want_b);
        assert_eq!(svc.stats().batches, 2, "different variants cannot share a batch");
    }
}
