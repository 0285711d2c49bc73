//! Bounding boxes, grid decoding and non-maximum suppression for the
//! YOLO-style detection head (paper Fig. 3).

use adsim_tensor::Tensor;

/// The four object categories the paper's detection engine keeps
/// (§3.1.1): vehicles, bicycles, traffic signs and pedestrians.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Cars, trucks, buses.
    Vehicle,
    /// Bicycles and motorcycles.
    Bicycle,
    /// Traffic signs and signals.
    TrafficSign,
    /// Pedestrians.
    Pedestrian,
}

impl ObjectClass {
    /// All classes, index-aligned with the detection head's channels.
    pub const ALL: [ObjectClass; 4] = [
        ObjectClass::Vehicle,
        ObjectClass::Bicycle,
        ObjectClass::TrafficSign,
        ObjectClass::Pedestrian,
    ];

    /// Number of classes.
    pub const COUNT: usize = 4;

    /// The class at channel `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub(crate) fn from_index(index: usize) -> ObjectClass {
        Self::ALL[index]
    }

    /// The channel index of this class.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("class is in ALL")
    }

    /// Canonical rendering intensity of this class in the synthetic
    /// workloads. Classes live in disjoint intensity bands so the
    /// classical (non-DNN) detector can recover them and ground truth
    /// stays consistent with rendering.
    pub fn render_intensity(self) -> u8 {
        match self {
            ObjectClass::Vehicle => 235,
            ObjectClass::Bicycle => 200,
            ObjectClass::TrafficSign => 170,
            ObjectClass::Pedestrian => 140,
        }
    }

    /// Recovers the class from a mean patch intensity (inverse of
    /// [`ObjectClass::render_intensity`], ±15 tolerance).
    pub fn from_intensity(mean: f64) -> Option<ObjectClass> {
        Self::ALL.into_iter().find(|c| (mean - c.render_intensity() as f64).abs() <= 15.0)
    }
}

impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ObjectClass::Vehicle => "vehicle",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::TrafficSign => "traffic-sign",
            ObjectClass::Pedestrian => "pedestrian",
        };
        f.write_str(s)
    }
}

/// An axis-aligned bounding box in normalized image coordinates
/// (`0.0..=1.0`), stored as center + extent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    /// Center x in `[0, 1]`.
    pub cx: f32,
    /// Center y in `[0, 1]`.
    pub cy: f32,
    /// Width in `[0, 1]`.
    pub w: f32,
    /// Height in `[0, 1]`.
    pub h: f32,
}

impl BBox {
    /// Creates a box from center and extent.
    pub fn new(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        Self { cx, cy, w, h }
    }

    /// Creates a box from corner coordinates `(x0, y0)-(x1, y1)`.
    pub fn from_corners(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        Self {
            cx: (x0 + x1) / 2.0,
            cy: (y0 + y1) / 2.0,
            w: (x1 - x0).abs(),
            h: (y1 - y0).abs(),
        }
    }

    /// Box area.
    pub(crate) fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Corner coordinates `(x0, y0, x1, y1)`.
    pub(crate) fn corners(&self) -> (f32, f32, f32, f32) {
        (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )
    }

    /// Intersection-over-union with another box, in `[0, 1]`.
    pub fn iou(&self, other: &BBox) -> f32 {
        let (ax0, ay0, ax1, ay1) = self.corners();
        let (bx0, by0, bx1, by1) = other.corners();
        let ix = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
        let iy = (ay1.min(by1) - ay0.max(by0)).max(0.0);
        let inter = ix * iy;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Euclidean distance between box centers.
    pub fn center_distance(&self, other: &BBox) -> f32 {
        ((self.cx - other.cx).powi(2) + (self.cy - other.cy).powi(2)).sqrt()
    }
}

/// One detected object: a box, a class and a confidence score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Where the object is.
    pub bbox: BBox,
    /// What the object is.
    pub class: ObjectClass,
    /// Detector confidence in `[0, 1]`.
    pub score: f32,
}

/// Decodes a YOLO-style grid output tensor of shape
/// `[1, 5 + ObjectClass::COUNT, s, s]` into detections.
///
/// Channel layout per cell: `tx, ty, tw, th, objectness` followed by
/// one score per class. `tx`/`ty` are sigmoid offsets within the cell,
/// `tw`/`th` sigmoid fractions of the image, matching the paper's
/// "predicts the coordinates of detected objects and the confidence for
/// each sub-region" description (Fig. 3). Cells whose
/// `objectness × class` score falls below `threshold` are filtered out,
/// as in §3.1.1.
///
/// # Panics
///
/// Panics if the tensor rank is not 4 or the channel count is not
/// `5 + ObjectClass::COUNT`.
pub fn decode_grid(output: &Tensor, threshold: f32) -> Vec<Detection> {
    let (n, c, gh, gw) = output.shape().as_nchw().expect("grid output is NCHW");
    assert_eq!(n, 1, "decode_grid expects a single image");
    assert_eq!(
        c,
        5 + ObjectClass::COUNT,
        "expected {} channels, got {c}",
        5 + ObjectClass::COUNT
    );
    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
    let mut out = Vec::new();
    for gy in 0..gh {
        for gx in 0..gw {
            let at = |ch: usize| output.at(&[0, ch, gy, gx]);
            let objectness = sigmoid(at(4));
            // Per-class score = objectness * softmax-ish class confidence.
            let mut best_class = 0;
            let mut best_score = f32::NEG_INFINITY;
            for k in 0..ObjectClass::COUNT {
                let s = at(5 + k);
                if s > best_score {
                    best_score = s;
                    best_class = k;
                }
            }
            let score = objectness * sigmoid(best_score);
            if score < threshold {
                continue;
            }
            let cx = (gx as f32 + sigmoid(at(0))) / gw as f32;
            let cy = (gy as f32 + sigmoid(at(1))) / gh as f32;
            let w = sigmoid(at(2));
            let h = sigmoid(at(3));
            out.push(Detection {
                bbox: BBox::new(cx, cy, w, h),
                class: ObjectClass::from_index(best_class),
                score,
            });
        }
    }
    out
}

/// Greedy non-maximum suppression: keeps the highest-scoring detection
/// and drops same-class detections overlapping it by more than
/// `iou_threshold`, repeating until no detections remain.
pub fn nms(mut detections: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    detections.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    let mut kept: Vec<Detection> = Vec::new();
    for d in detections {
        let suppressed = kept
            .iter()
            .any(|k| k.class == d.class && k.bbox.iou(&d.bbox) > iou_threshold);
        if !suppressed {
            kept.push(d);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let b = BBox::new(0.5, 0.5, 0.2, 0.2);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_of_disjoint_boxes_is_zero() {
        let a = BBox::new(0.2, 0.2, 0.1, 0.1);
        let b = BBox::new(0.8, 0.8, 0.1, 0.1);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_of_half_overlap() {
        let a = BBox::from_corners(0.0, 0.0, 0.2, 0.2);
        let b = BBox::from_corners(0.1, 0.0, 0.3, 0.2);
        // intersection 0.1x0.2, union 0.04+0.04-0.02
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn corners_round_trip() {
        let b = BBox::new(0.5, 0.4, 0.2, 0.1);
        let (x0, y0, x1, y1) = b.corners();
        let r = BBox::from_corners(x0, y0, x1, y1);
        assert!((r.cx - b.cx).abs() < 1e-6 && (r.h - b.h).abs() < 1e-6);
    }

    #[test]
    fn nms_keeps_highest_and_drops_overlaps() {
        let mk = |cx: f32, score: f32| Detection {
            bbox: BBox::new(cx, 0.5, 0.2, 0.2),
            class: ObjectClass::Vehicle,
            score,
        };
        let dets = vec![mk(0.50, 0.8), mk(0.52, 0.9), mk(0.9, 0.5)];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert!((kept[1].bbox.cx - 0.9).abs() < 1e-6);
    }

    #[test]
    fn nms_does_not_suppress_across_classes() {
        let a = Detection {
            bbox: BBox::new(0.5, 0.5, 0.2, 0.2),
            class: ObjectClass::Vehicle,
            score: 0.9,
        };
        let b = Detection { class: ObjectClass::Pedestrian, ..a };
        assert_eq!(nms(vec![a, b], 0.5).len(), 2);
    }

    #[test]
    fn decode_grid_thresholds_and_positions() {
        // 2x2 grid, all logits strongly negative except cell (1, 0).
        let c = 5 + ObjectClass::COUNT;
        let mut t = Tensor::filled([1, c, 2, 2], -10.0);
        *t.at_mut(&[0, 4, 0, 1]) = 10.0; // objectness at gy=0, gx=1
        *t.at_mut(&[0, 5 + ObjectClass::Pedestrian.index(), 0, 1]) = 10.0;
        *t.at_mut(&[0, 0, 0, 1]) = 0.0; // tx -> 0.5 within cell
        *t.at_mut(&[0, 1, 0, 1]) = 0.0; // ty
        let dets = decode_grid(&t, 0.5);
        assert_eq!(dets.len(), 1);
        let d = dets[0];
        assert_eq!(d.class, ObjectClass::Pedestrian);
        assert!((d.bbox.cx - 0.75).abs() < 1e-5, "cell gx=1 of 2 -> cx 0.75");
        assert!((d.bbox.cy - 0.25).abs() < 1e-5);
        assert!(d.score > 0.9);
    }

    #[test]
    fn decode_grid_empty_below_threshold() {
        let t = Tensor::filled([1, 5 + ObjectClass::COUNT, 3, 3], -10.0);
        assert!(decode_grid(&t, 0.3).is_empty());
    }

    #[test]
    fn class_index_round_trip() {
        for (i, c) in ObjectClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(ObjectClass::from_index(i), *c);
            assert!(!c.to_string().is_empty());
        }
    }
}
