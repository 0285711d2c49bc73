use adsim_dnn::detection::BBox;
use adsim_dnn::models::goturn_tiny_shared;
use adsim_dnn::Network;
use adsim_tensor::Tensor;
use adsim_vision::GrayImage;

/// A single-object tracker (one member of the paper's tracker pool).
///
/// Following GOTURN's design (Fig. 4), a tracker is given the target's
/// bounding box once and then, for each new frame, predicts the
/// target's new box from the previous target crop and a search region
/// crop of the current frame.
///
/// `Send` is a supertrait so the tracker pool can advance its members
/// on `adsim-runtime` workers; trackers are owned by one pool and never
/// shared, so no `Sync` bound is needed.
pub trait Tracker: Send {
    /// Advances the tracker by one frame, returning the predicted box
    /// in normalized image coordinates.
    fn update(&mut self, frame: &GrayImage) -> BBox;

    /// Current box estimate.
    fn bbox(&self) -> BBox;

    /// Re-anchors the tracker on a detector-confirmed box (the tracker
    /// pool does this whenever a detection is associated).
    fn correct(&mut self, frame: &GrayImage, bbox: BBox);

    /// Human-readable engine name.
    fn name(&self) -> &'static str;

    /// A deep copy of this tracker's full state, boxed. The recovery
    /// layer snapshots the tracker pool through this (trait objects
    /// cannot derive `Clone`); the copy must resume bit-identically.
    fn boxed_clone(&self) -> Box<dyn Tracker>;
}

impl Clone for Box<dyn Tracker> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Side of the square crops fed to the GOTURN-style network.
const CROP_SIDE: usize = 32;

/// The DNN path: a GOTURN-style regression tracker.
///
/// Crops the previous frame to the target and the current frame to a
/// 2× search region, stacks them as two channels, and regresses the
/// target's box within the search region — the exact dataflow of the
/// paper's Fig. 4, with deterministic pseudo-random weights (see
/// DESIGN.md; use [`TemplateTracker`] for functionally accurate
/// tracking on the synthetic worlds).
#[derive(Clone)]
pub struct GoturnTracker {
    net: Network,
    bbox: BBox,
    prev_crop: GrayImage,
}

impl std::fmt::Debug for GoturnTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoturnTracker").field("bbox", &self.bbox).finish()
    }
}

impl GoturnTracker {
    /// Creates a tracker anchored on `bbox` in `frame`. The regression
    /// network runs serially.
    ///
    /// Every tracker clones the process-wide shared model
    /// ([`goturn_tiny_shared`]), so a pool of N trackers holds one copy
    /// of the weights, not N — the pool is rebuilt per track, which
    /// previously made it the pipeline's largest repeated allocation.
    pub fn new(frame: &GrayImage, bbox: BBox) -> Self {
        let prev_crop = crop_box(frame, &bbox, 1.0);
        Self { net: goturn_tiny_shared(), bbox, prev_crop }
    }
}

impl Tracker for GoturnTracker {
    fn update(&mut self, frame: &GrayImage) -> BBox {
        // Search region: the previous box inflated 2x.
        let search = search_region(&self.bbox);
        let cur_crop = crop_box(frame, &search, 1.0);
        let input = stack_crops(&self.prev_crop, &cur_crop);
        let out = self.net.forward(&input).expect("goturn_tiny accepts its input");
        let o = out.as_slice();
        // Outputs are sigmoid-normalized within the search region.
        let new_bbox = BBox::new(
            search.cx - search.w / 2.0 + o[0] * search.w,
            search.cy - search.h / 2.0 + o[1] * search.h,
            (o[2] * search.w).max(1e-3),
            (o[3] * search.h).max(1e-3),
        );
        self.prev_crop = crop_box(frame, &new_bbox, 1.0);
        self.bbox = new_bbox;
        new_bbox
    }

    fn bbox(&self) -> BBox {
        self.bbox
    }

    fn correct(&mut self, frame: &GrayImage, bbox: BBox) {
        self.bbox = bbox;
        self.prev_crop = crop_box(frame, &bbox, 1.0);
    }

    fn name(&self) -> &'static str {
        "goturn-dnn"
    }

    fn boxed_clone(&self) -> Box<dyn Tracker> {
        // Network clones share the `Arc`-backed weights — a snapshot of
        // a GOTURN pool costs crops and boxes, never weight copies.
        Box::new(self.clone())
    }
}

/// The classical path: sum-of-absolute-differences template matching.
///
/// Remembers the target's appearance and scans a search window around
/// the previous position for the best-matching placement. Functionally
/// accurate on the synthetic worlds (rigid textured objects), so the
/// tracker pool's association and expiry logic can be validated
/// against scripted ground truth.
#[derive(Debug, Clone)]
pub struct TemplateTracker {
    template: GrayImage,
    bbox: BBox,
    /// Search radius around the previous position, in pixels.
    search_px: isize,
}

impl TemplateTracker {
    /// Creates a tracker anchored on `bbox` in `frame`.
    pub fn new(frame: &GrayImage, bbox: BBox) -> Self {
        let template = crop_pixels(frame, &bbox);
        Self { template, bbox, search_px: 12 }
    }
}

impl Tracker for TemplateTracker {
    fn update(&mut self, frame: &GrayImage) -> BBox {
        let (w, h) = (frame.width() as f32, frame.height() as f32);
        let tw = self.template.width();
        let th = self.template.height();
        let cx0 = (self.bbox.cx * w) as isize - tw as isize / 2;
        let cy0 = (self.bbox.cy * h) as isize - th as isize / 2;
        let mut best = (i64::MAX, cx0, cy0);
        for dy in -self.search_px..=self.search_px {
            for dx in -self.search_px..=self.search_px {
                let (ox, oy) = (cx0 + dx, cy0 + dy);
                let mut sad = 0i64;
                // Subsampled SAD: every 2nd pixel is plenty for rigid
                // targets and quarters the cost.
                for ty in (0..th).step_by(2) {
                    for tx in (0..tw).step_by(2) {
                        let f = frame.get_clamped(ox + tx as isize, oy + ty as isize) as i64;
                        let t = self.template.get(tx, ty) as i64;
                        sad += (f - t).abs();
                    }
                }
                if sad < best.0 {
                    best = (sad, ox, oy);
                }
            }
        }
        let (_, bx, by) = best;
        self.bbox = BBox::new(
            (bx as f32 + tw as f32 / 2.0) / w,
            (by as f32 + th as f32 / 2.0) / h,
            self.bbox.w,
            self.bbox.h,
        );
        self.bbox
    }

    fn bbox(&self) -> BBox {
        self.bbox
    }

    fn correct(&mut self, frame: &GrayImage, bbox: BBox) {
        self.bbox = bbox;
        self.template = crop_pixels(frame, &bbox);
    }

    fn name(&self) -> &'static str {
        "template-classical"
    }

    fn boxed_clone(&self) -> Box<dyn Tracker> {
        Box::new(self.clone())
    }
}

/// The previous box inflated 2× (clamped to the frame), GOTURN's
/// search region.
fn search_region(bbox: &BBox) -> BBox {
    BBox::new(
        bbox.cx.clamp(0.0, 1.0),
        bbox.cy.clamp(0.0, 1.0),
        (bbox.w * 2.0).min(1.0),
        (bbox.h * 2.0).min(1.0),
    )
}

/// Crops a normalized box (inflated by `scale`) and resizes to the
/// network crop size.
fn crop_box(frame: &GrayImage, bbox: &BBox, scale: f32) -> GrayImage {
    let (w, h) = (frame.width() as f32, frame.height() as f32);
    let cw = (bbox.w * scale * w).max(2.0) as usize;
    let ch = (bbox.h * scale * h).max(2.0) as usize;
    let x = (bbox.cx * w - cw as f32 / 2.0) as isize;
    let y = (bbox.cy * h - ch as f32 / 2.0) as isize;
    frame.crop_resize(x, y, cw, ch, CROP_SIDE, CROP_SIDE)
}

/// Crops a normalized box at native resolution (template tracking).
fn crop_pixels(frame: &GrayImage, bbox: &BBox) -> GrayImage {
    let (w, h) = (frame.width() as f32, frame.height() as f32);
    let cw = (bbox.w * w).max(2.0) as usize;
    let ch = (bbox.h * h).max(2.0) as usize;
    let x = (bbox.cx * w - cw as f32 / 2.0) as isize;
    let y = (bbox.cy * h - ch as f32 / 2.0) as isize;
    frame.crop(x, y, cw, ch)
}

/// Stacks two crops as a `[1, 2, S, S]` tensor.
fn stack_crops(prev: &GrayImage, cur: &GrayImage) -> Tensor {
    let mut data = Vec::with_capacity(2 * CROP_SIDE * CROP_SIDE);
    data.extend(prev.as_slice().iter().map(|&p| p as f32 / 255.0));
    data.extend(cur.as_slice().iter().map(|&p| p as f32 / 255.0));
    Tensor::from_vec([1, 2, CROP_SIDE, CROP_SIDE], data)
        .expect("crops are CROP_SIDE x CROP_SIDE by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A textured square at a given position.
    fn frame_with_target(cx: f32, cy: f32) -> GrayImage {
        let mut img = GrayImage::from_fn(160, 120, |x, y| ((x * 3 + y * 7) % 23) as u8);
        let px = (cx * 160.0) as isize - 8;
        let py = (cy * 120.0) as isize - 8;
        for dy in 0..16 {
            for dx in 0..16 {
                let v = 150 + ((dx * 5 + dy * 11) % 100) as u8;
                img.put(px + dx, py + dy, v);
            }
        }
        img
    }

    fn target_box(cx: f32, cy: f32) -> BBox {
        BBox::new(cx, cy, 16.0 / 160.0, 16.0 / 120.0)
    }

    #[test]
    fn template_tracker_follows_moving_target() {
        let f0 = frame_with_target(0.3, 0.5);
        let mut tracker = TemplateTracker::new(&f0, target_box(0.3, 0.5));
        for step in 1..=8 {
            let cx = 0.3 + step as f32 * 0.02;
            let f = frame_with_target(cx, 0.5);
            let b = tracker.update(&f);
            assert!(
                (b.cx - cx).abs() < 0.02,
                "step {step}: predicted {} truth {cx}",
                b.cx
            );
            assert!((b.cy - 0.5).abs() < 0.02);
        }
    }

    #[test]
    fn template_tracker_is_stationary_for_static_target() {
        let f = frame_with_target(0.5, 0.5);
        let mut tracker = TemplateTracker::new(&f, target_box(0.5, 0.5));
        let b = tracker.update(&f);
        assert!((b.cx - 0.5).abs() < 0.01);
        assert!((b.cy - 0.5).abs() < 0.01);
    }

    #[test]
    fn template_tracker_correct_reanchors() {
        let f0 = frame_with_target(0.3, 0.5);
        let mut tracker = TemplateTracker::new(&f0, target_box(0.3, 0.5));
        let f1 = frame_with_target(0.7, 0.4);
        tracker.correct(&f1, target_box(0.7, 0.4));
        let b = tracker.update(&f1);
        assert!((b.cx - 0.7).abs() < 0.01);
    }

    #[test]
    fn goturn_tracker_stays_in_search_region_and_is_deterministic() {
        let f0 = frame_with_target(0.5, 0.5);
        let bbox = target_box(0.5, 0.5);
        let mut a = GoturnTracker::new(&f0, bbox);
        let mut b = GoturnTracker::new(&f0, bbox);
        let f1 = frame_with_target(0.52, 0.5);
        let ba = a.update(&f1);
        let bb = b.update(&f1);
        assert_eq!(ba, bb, "deterministic weights -> deterministic output");
        // The regressed box lies within the (inflated) search region.
        let search = search_region(&bbox);
        assert!(ba.cx >= search.cx - search.w / 2.0 && ba.cx <= search.cx + search.w / 2.0);
        assert!(ba.w <= search.w && ba.h <= search.h);
    }

    #[test]
    fn goturn_flops_are_substantial() {
        let f = frame_with_target(0.5, 0.5);
        let t = GoturnTracker::new(&f, target_box(0.5, 0.5));
        assert!(t.net.cost().unwrap().total.flops > 100_000);
    }

    #[test]
    fn crop_box_clamps_at_borders() {
        let f = frame_with_target(0.0, 0.0);
        let c = crop_box(&f, &BBox::new(0.0, 0.0, 0.1, 0.1), 1.0);
        assert_eq!((c.width(), c.height()), (CROP_SIDE, CROP_SIDE));
    }
}
