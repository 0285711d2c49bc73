use adsim_dnn::detection::{decode_grid, nms, BBox, Detection, ObjectClass};
use adsim_dnn::models::{yolo_tiny_shared, yolo_v2_tiny_shared};
use adsim_dnn::Network;
use adsim_runtime::Runtime;
use adsim_tensor::Tensor;
use adsim_vision::GrayImage;

/// A detector's prepared DNN input, handed to a cross-vehicle batching
/// service instead of being run inline.
///
/// Produced by [`Detector::batch_request`]: the detector does its
/// pre-processing (resize, tensor conversion) and packages everything a
/// batch runner needs to reproduce [`Detector::detect`] bit-exactly —
/// the input tensor plus the decode parameters. The runner stacks
/// same-shaped requests into one `[n, c, h, w]` batch, executes a
/// single forward pass, and decodes each image's output slice with the
/// recorded `threshold`/`iou` exactly as the inline path would.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The pre-processed network input, shape `[1, c, side, side]`.
    pub input: Tensor,
    /// Which model family the forward pass must use.
    pub variant: DetectorVariant,
    /// The model's output grid (identifies the shared-cache network
    /// together with `variant`).
    pub grid: usize,
    /// Confidence threshold for grid decoding.
    pub threshold: f32,
    /// IoU threshold for non-maximum suppression.
    pub iou: f32,
}

/// Which detection model family a [`Detector`] should run — the
/// anytime governor's model-variant knob, kept independent of the
/// policy crate so perception has no upward dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorVariant {
    /// The richer, costlier model (`yolo_v2_tiny` on the DNN path).
    Full,
    /// The cheap fallback model (`yolo_tiny`).
    Reduced,
}

/// Work performed by one detection pass, for the platform cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetCost {
    /// FLOPs executed by the DNN (0 for classical detectors).
    pub dnn_flops: u64,
    /// Pixels of the input frame.
    pub pixels: usize,
    /// Detections produced before NMS.
    pub raw_detections: usize,
}

/// A multi-object detector over camera frames (the paper's DET engine).
pub trait Detector {
    /// Detects objects, returning boxes in normalized image
    /// coordinates.
    fn detect(&mut self, frame: &GrayImage) -> Vec<Detection>;

    /// Work performed by the most recent [`Detector::detect`] call.
    fn last_cost(&self) -> DetCost;

    /// Human-readable engine name.
    fn name(&self) -> &'static str;

    /// Applies an anytime quality setting: input-resolution scale in
    /// `(0, 1]` (the paper's Fig. 13 axis) and model variant. Must be
    /// O(1) — detectors switch models through the process-wide shared
    /// caches, never by rebuilding weights. The default implementation
    /// ignores the request (a detector without quality knobs).
    fn set_quality(&mut self, _scale: f32, _variant: DetectorVariant) {}

    /// Prepares this frame for cross-vehicle batched execution instead
    /// of running [`Detector::detect`] inline.
    ///
    /// Returns `None` when the detector has no batchable DNN stage
    /// (the default); the caller must then fall back to `detect`. A
    /// `Some` request carries everything needed to reproduce `detect`'s
    /// output bit-exactly from a batched forward pass.
    fn batch_request(&mut self, _frame: &GrayImage) -> Option<BatchRequest> {
        None
    }
}

/// The DNN path: a YOLO-style grid detector (paper §3.1.1).
///
/// The frame is resized to the network input, run through the
/// convolutional trunk, and the grid output is decoded and filtered by
/// confidence threshold and NMS — exactly Fig. 3's flow. Weights are
/// deterministic pseudo-random (untrained), so outputs exercise the
/// full compute/decode path but carry no semantic accuracy; use
/// [`BlobDetector`] when ground-truth-faithful detections are needed.
#[derive(Debug)]
pub struct YoloDetector {
    net: Network,
    base_grid: usize,
    grid: usize,
    variant: DetectorVariant,
    side: usize,
    threshold: f32,
    iou_threshold: f32,
    runtime: Runtime,
    last_cost: DetCost,
}

impl YoloDetector {
    /// Creates a detector with a `grid`×`grid` output and the given
    /// confidence threshold. The forward pass runs serially; use
    /// [`YoloDetector::with_runtime`] to parallelize it.
    ///
    /// Weights come from the process-wide shared model instance
    /// ([`yolo_tiny_shared`]), so every detector in a fleet campaign
    /// reads the same `Arc`-backed parameter buffers.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    pub fn new(grid: usize, threshold: f32) -> Self {
        let net = yolo_tiny_shared(grid);
        Self {
            net,
            base_grid: grid,
            grid,
            variant: DetectorVariant::Reduced,
            side: 8 * grid,
            threshold,
            iou_threshold: 0.5,
            runtime: Runtime::serial(),
            last_cost: DetCost::default(),
        }
    }

    /// Runs the detection network's kernels on the given worker pool.
    /// Detections are identical on any thread count.
    pub fn with_runtime(mut self, rt: Runtime) -> Self {
        self.runtime = rt;
        self
    }
}

impl Detector for YoloDetector {
    fn detect(&mut self, frame: &GrayImage) -> Vec<Detection> {
        let resized = frame.resize(self.side, self.side);
        let input = resized.to_tensor();
        let output = self
            .net
            .forward_with(&self.runtime, &input)
            .expect("yolo_tiny accepts its own input shape");
        let raw = decode_grid(&output, self.threshold);
        self.last_cost = DetCost {
            dnn_flops: self.net.cost().expect("built network").total.flops,
            pixels: frame.pixels(),
            raw_detections: raw.len(),
        };
        nms(raw, self.iou_threshold)
    }

    fn last_cost(&self) -> DetCost {
        self.last_cost
    }

    fn name(&self) -> &'static str {
        "yolo-dnn"
    }

    /// O(1): both variants come from process-wide shared caches, so a
    /// switch is a pointer-bump clone — no weight copies, mid-run.
    fn set_quality(&mut self, scale: f32, variant: DetectorVariant) {
        let scale = scale.clamp(0.25, 1.0);
        let grid = ((self.base_grid as f32 * scale).round() as usize).max(1);
        if grid == self.grid && variant == self.variant {
            return;
        }
        self.net = match variant {
            DetectorVariant::Full => yolo_v2_tiny_shared(grid),
            DetectorVariant::Reduced => yolo_tiny_shared(grid),
        };
        self.grid = grid;
        self.side = 8 * grid;
        self.variant = variant;
    }

    /// The batched hand-off: same resize + tensor conversion as
    /// [`YoloDetector::detect`], but the forward pass is deferred to
    /// the batch runner. `raw_detections` is not yet known (decode
    /// happens in the runner), so the cost record reports zero.
    fn batch_request(&mut self, frame: &GrayImage) -> Option<BatchRequest> {
        let resized = frame.resize(self.side, self.side);
        let input = resized.to_tensor();
        self.last_cost = DetCost {
            dnn_flops: self.net.cost().expect("built network").total.flops,
            pixels: frame.pixels(),
            raw_detections: 0,
        };
        Some(BatchRequest {
            input,
            variant: self.variant,
            grid: self.grid,
            threshold: self.threshold,
            iou: self.iou_threshold,
        })
    }
}

/// The classical path: connected-component blob detection with
/// intensity-band classification.
///
/// The synthetic worlds render each object class in a disjoint
/// intensity band (see [`ObjectClass::render_intensity`]); this
/// detector thresholds the frame, extracts connected components, and
/// classifies each by mean intensity. It is functionally accurate on
/// those worlds, which lets the tracker pool, fusion and planning be
/// validated end-to-end against ground truth.
#[derive(Debug)]
pub struct BlobDetector {
    /// Pixels above this value are candidate object pixels.
    min_intensity: u8,
    /// Components smaller than this many pixels are noise.
    min_area: usize,
    /// Input-resolution scale in `(0, 1]`; below 1.0 the frame is
    /// downsampled before component extraction, trading recall on
    /// small objects for proportionally less work (Fig. 13).
    scale: f32,
    /// Components whose intensity standard deviation exceeds this are
    /// rejected: objects are painted in a tight band around their
    /// class intensity, whereas map landmarks are high-contrast
    /// textures.
    max_stddev: f64,
    /// Components whose sub-threshold border pixels average brighter
    /// than this are rejected: objects stand on dark road, while
    /// bright cells inside a landmark are bordered by mid-intensity
    /// texture.
    max_border_mean: f64,
    last_cost: DetCost,
}

impl BlobDetector {
    /// Creates a detector with defaults tuned to the synthetic worlds.
    pub fn new() -> Self {
        Self {
            min_intensity: 120,
            min_area: 6,
            scale: 1.0,
            max_stddev: 20.0,
            max_border_mean: 60.0,
            last_cost: DetCost::default(),
        }
    }

    /// Sets the minimum component area in pixels. Real classifiers
    /// need a minimum *apparent* size to identify an object (the
    /// resolution/accuracy trade-off of the paper's §5.4); raising
    /// this models that requirement.
    ///
    /// # Panics
    ///
    /// Panics if `min_area` is zero.
    pub fn with_min_area(mut self, min_area: usize) -> Self {
        assert!(min_area > 0, "minimum area must be positive");
        self.min_area = min_area;
        self
    }
}

impl Default for BlobDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl BlobDetector {
    /// Component extraction at the frame's native resolution. Boxes
    /// are normalized, so detections from a downsampled frame need no
    /// coordinate correction.
    fn detect_at_native(&mut self, frame: &GrayImage) -> Vec<Detection> {
        let (w, h) = (frame.width(), frame.height());
        let mut visited = vec![false; w * h];
        let mut detections = Vec::new();
        let mut stack = Vec::new();
        for sy in 0..h {
            for sx in 0..w {
                let idx = sy * w + sx;
                if visited[idx] || frame.get(sx, sy) < self.min_intensity {
                    continue;
                }
                // Flood-fill one component.
                let (mut x0, mut y0, mut x1, mut y1) = (sx, sy, sx, sy);
                let mut sum = 0u64;
                let mut sum_sq = 0u64;
                let mut count = 0usize;
                let mut border_sum = 0u64;
                let mut border_count = 0usize;
                stack.push((sx, sy));
                visited[idx] = true;
                while let Some((x, y)) = stack.pop() {
                    let v = frame.get(x, y);
                    sum += v as u64;
                    sum_sq += v as u64 * v as u64;
                    count += 1;
                    x0 = x0.min(x);
                    y0 = y0.min(y);
                    x1 = x1.max(x);
                    y1 = y1.max(y);
                    let neighbours = [
                        (x.wrapping_sub(1), y),
                        (x + 1, y),
                        (x, y.wrapping_sub(1)),
                        (x, y + 1),
                    ];
                    for (nx, ny) in neighbours {
                        if nx < w && ny < h {
                            let nidx = ny * w + nx;
                            let nv = frame.get(nx, ny);
                            if nv >= self.min_intensity {
                                if !visited[nidx] {
                                    visited[nidx] = true;
                                    stack.push((nx, ny));
                                }
                            } else {
                                border_sum += nv as u64;
                                border_count += 1;
                            }
                        }
                    }
                }
                if count < self.min_area {
                    continue;
                }
                // Components clipped by the frame boundary are slivers
                // of partially visible content; their intensity
                // statistics are unreliable, so skip them (they are
                // re-detected once fully in frame).
                if x0 == 0 || y0 == 0 || x1 == w - 1 || y1 == h - 1 {
                    continue;
                }
                let mean = sum as f64 / count as f64;
                let var = (sum_sq as f64 / count as f64 - mean * mean).max(0.0);
                if var.sqrt() > self.max_stddev {
                    // High-contrast texture: a map landmark, not an
                    // object.
                    continue;
                }
                // Objects stand on dark road; bright cells inside a
                // textured landmark are bordered by mid-intensity
                // texture instead.
                if border_count > 0
                    && border_sum as f64 / border_count as f64 > self.max_border_mean
                {
                    continue;
                }
                // Clutter whose mean falls outside every class band is
                // also ignored.
                let Some(class) = ObjectClass::from_intensity(mean) else { continue };
                detections.push(Detection {
                    bbox: BBox::from_corners(
                        x0 as f32 / w as f32,
                        y0 as f32 / h as f32,
                        (x1 + 1) as f32 / w as f32,
                        (y1 + 1) as f32 / h as f32,
                    ),
                    class,
                    score: 0.9,
                });
            }
        }
        self.last_cost = DetCost {
            dnn_flops: 0,
            pixels: frame.pixels(),
            raw_detections: detections.len(),
        };
        detections
    }
}

impl Detector for BlobDetector {
    fn detect(&mut self, frame: &GrayImage) -> Vec<Detection> {
        if self.scale < 1.0 {
            let rw = ((frame.width() as f32 * self.scale).round() as usize).max(8);
            let rh = ((frame.height() as f32 * self.scale).round() as usize).max(8);
            let resized = frame.resize(rw, rh);
            return self.detect_at_native(&resized);
        }
        self.detect_at_native(frame)
    }

    fn last_cost(&self) -> DetCost {
        self.last_cost
    }

    fn name(&self) -> &'static str {
        "blob-classical"
    }

    /// The classical path has no model variant; only the resolution
    /// knob applies.
    fn set_quality(&mut self, scale: f32, _variant: DetectorVariant) {
        self.scale = scale.clamp(0.25, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_detector_finds_and_classifies_objects() {
        let mut img = GrayImage::new(200, 150);
        img.fill_rect(20, 20, 18, 9, ObjectClass::Vehicle.render_intensity());
        img.fill_rect(100, 80, 4, 4, ObjectClass::Pedestrian.render_intensity());
        let mut det = BlobDetector::new();
        let found = det.detect(&img);
        assert_eq!(found.len(), 2);
        let classes: Vec<_> = found.iter().map(|d| d.class).collect();
        assert!(classes.contains(&ObjectClass::Vehicle));
        assert!(classes.contains(&ObjectClass::Pedestrian));
    }

    #[test]
    fn blob_detector_bbox_is_tight() {
        let mut img = GrayImage::new(100, 100);
        img.fill_rect(10, 20, 30, 10, ObjectClass::Vehicle.render_intensity());
        let mut det = BlobDetector::new();
        let d = det.detect(&img)[0];
        assert!((d.bbox.cx - 0.25).abs() < 0.02, "cx {}", d.bbox.cx);
        assert!((d.bbox.w - 0.30).abs() < 0.02, "w {}", d.bbox.w);
        assert!((d.bbox.h - 0.10).abs() < 0.02, "h {}", d.bbox.h);
    }

    #[test]
    fn blob_detector_ignores_small_noise_and_landmarks() {
        let mut img = GrayImage::new(100, 100);
        img.fill_rect(5, 5, 2, 2, 235); // too small
        img.fill_rect(50, 50, 10, 10, 90); // landmark-band intensity
        let mut det = BlobDetector::new();
        assert!(det.detect(&img).is_empty());
    }

    #[test]
    fn blob_detector_rejects_frame_edge_slivers() {
        let mut img = GrayImage::new(100, 100);
        // Clipped at the left edge.
        img.fill_rect(0, 40, 8, 8, ObjectClass::Vehicle.render_intensity());
        // Fully visible.
        img.fill_rect(50, 40, 8, 8, ObjectClass::Vehicle.render_intensity());
        let mut det = BlobDetector::new();
        let found = det.detect(&img);
        assert_eq!(found.len(), 1);
        assert!((found[0].bbox.cx - 0.54).abs() < 0.01);
    }

    #[test]
    fn blob_detector_rejects_high_variance_textures() {
        // A beacon-like patch whose *mean* lands in the traffic-sign
        // band but whose per-pixel texture is high contrast.
        let mut img = GrayImage::new(100, 100);
        for dy in 0..12isize {
            for dx in 0..12isize {
                let v = if (dx + dy) % 2 == 0 { 250 } else { 90 };
                img.put(40 + dx, 40 + dy, v);
            }
        }
        let mut det = BlobDetector::new();
        assert!(det.detect(&img).is_empty(), "textured landmark must not be an object");
        // The same patch painted flat at the band center *is* one.
        img.fill_rect(40, 40, 12, 12, ObjectClass::TrafficSign.render_intensity());
        assert_eq!(det.detect(&img).len(), 1);
    }

    #[test]
    fn blob_detector_separates_disjoint_objects() {
        let mut img = GrayImage::new(100, 100);
        let v = ObjectClass::Vehicle.render_intensity();
        img.fill_rect(10, 10, 10, 10, v);
        img.fill_rect(40, 10, 10, 10, v);
        img.fill_rect(10, 40, 10, 10, v);
        let mut det = BlobDetector::new();
        assert_eq!(det.detect(&img).len(), 3);
    }

    #[test]
    fn yolo_detector_runs_and_reports_cost() {
        let mut det = YoloDetector::new(4, 0.5);
        let img = GrayImage::from_fn(100, 80, |x, y| ((x * y) % 255) as u8);
        let dets = det.detect(&img);
        // Untrained network: only structural guarantees.
        for d in &dets {
            assert!(d.score >= 0.5);
        }
        let cost = det.last_cost();
        assert!(cost.dnn_flops > 1_000_000);
        assert_eq!(cost.pixels, 8000);
    }

    #[test]
    fn yolo_detector_is_deterministic() {
        let img = GrayImage::from_fn(64, 64, |x, y| ((x + 2 * y) % 255) as u8);
        let mut a = YoloDetector::new(4, 0.0);
        // The parallel runtime must not perturb the detections.
        let mut b = YoloDetector::new(4, 0.0).with_runtime(Runtime::new(4));
        assert_eq!(a.detect(&img), b.detect(&img));
    }

    #[test]
    fn batch_request_reproduces_detect_bitwise() {
        let img = GrayImage::from_fn(90, 70, |x, y| ((3 * x + y) % 255) as u8);
        let mut inline = YoloDetector::new(4, 0.0);
        let mut staged = YoloDetector::new(4, 0.0);
        let want = inline.detect(&img);
        let req = staged.batch_request(&img).expect("yolo is batchable");
        assert_eq!(req.grid, 4);
        assert_eq!(req.variant, DetectorVariant::Reduced);
        assert_eq!(req.input.shape().dims(), &[1, 1, 32, 32]);
        // Replay the deferred stages exactly as a batch runner would.
        let net = yolo_tiny_shared(req.grid);
        let out = net.forward_with(&Runtime::serial(), &req.input).unwrap();
        let got = nms(decode_grid(&out, req.threshold), req.iou);
        assert_eq!(got, want);
        // Staged cost matches inline except the not-yet-known raw count.
        assert_eq!(staged.last_cost().dnn_flops, inline.last_cost().dnn_flops);
        assert_eq!(staged.last_cost().pixels, inline.last_cost().pixels);
    }

    #[test]
    fn blob_detector_declines_batch_requests() {
        let img = GrayImage::new(32, 32);
        assert!(BlobDetector::new().batch_request(&img).is_none());
    }

    #[test]
    fn detector_names_differ() {
        assert_ne!(BlobDetector::new().name(), YoloDetector::new(2, 0.5).name());
    }

    #[test]
    fn yolo_quality_switch_is_shared_cache_backed() {
        use adsim_dnn::models::{yolo_tiny_shared, yolo_v2_tiny_shared};
        let mut det = YoloDetector::new(4, 0.5);
        assert_eq!(det.variant, DetectorVariant::Reduced);
        assert!(det.net.shares_weights(&yolo_tiny_shared(4)), "default is the tiny cache");
        det.set_quality(1.0, DetectorVariant::Full);
        assert_eq!(det.variant, DetectorVariant::Full);
        assert_eq!(det.grid, 4);
        assert!(
            det.net.shares_weights(&yolo_v2_tiny_shared(4)),
            "variant switch clones from the v2 cache — no weight copy"
        );
        det.set_quality(0.5, DetectorVariant::Reduced);
        assert_eq!(det.grid, 2, "resolution knob halves the grid");
        assert!(det.net.shares_weights(&yolo_tiny_shared(2)));
    }

    #[test]
    fn yolo_resolution_knob_cuts_flops() {
        let img = GrayImage::from_fn(100, 80, |x, y| ((x * y) % 255) as u8);
        let mut det = YoloDetector::new(4, 0.5);
        det.detect(&img);
        let full = det.last_cost().dnn_flops;
        det.set_quality(0.5, DetectorVariant::Reduced);
        det.detect(&img);
        let half = det.last_cost().dnn_flops;
        assert!(half * 3 < full, "half resolution must cut FLOPs ~4x: {half} vs {full}");
    }

    #[test]
    fn blob_resolution_knob_cuts_pixels_and_keeps_big_objects() {
        let mut img = GrayImage::new(200, 150);
        img.fill_rect(40, 40, 30, 20, ObjectClass::Vehicle.render_intensity());
        let mut det = BlobDetector::new();
        let native = det.detect(&img);
        assert_eq!(native.len(), 1);
        let native_pixels = det.last_cost().pixels;
        det.set_quality(0.5, DetectorVariant::Reduced);
        let scaled = det.detect(&img);
        assert_eq!(scaled.len(), 1, "a 30x20 vehicle survives half resolution");
        assert!(
            det.last_cost().pixels * 3 < native_pixels,
            "half resolution must process ~1/4 the pixels"
        );
        // Normalized coordinates need no correction after downsampling.
        assert!((scaled[0].bbox.cx - native[0].bbox.cx).abs() < 0.03);
        assert!((scaled[0].bbox.w - native[0].bbox.w).abs() < 0.03);
    }
}
