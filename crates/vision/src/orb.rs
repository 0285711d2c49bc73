use crate::brief::{describe, Descriptor};
use crate::fast::{fast_corners, orientation, Keypoint};
use crate::pyramid::Pyramid;
use crate::GrayImage;
use adsim_runtime::Runtime;

/// A keypoint with its rBRIEF descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feature {
    /// The oriented keypoint, in full-resolution coordinates.
    pub keypoint: Keypoint,
    /// The 256-bit binary descriptor.
    pub descriptor: Descriptor,
}

/// Work performed by one extraction, consumed by the platform latency
/// models: the FAST stage scales with pixels scanned, the rBRIEF stage
/// with features described (paper Fig. 9: one binary test per cycle,
/// 256 iterations per feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrbCost {
    /// Pixels scanned by the detector across all pyramid levels.
    pub pixels_scanned: usize,
    /// Corner candidates that passed the segment test (before capping).
    pub corners_detected: usize,
    /// Features actually described.
    pub features_described: usize,
}

/// The combined oFAST + rBRIEF extractor (ORB), Fig. 5's
/// "ORB Extractor" stage.
///
/// # Examples
///
/// ```
/// use adsim_vision::{GrayImage, OrbExtractor};
///
/// let img = GrayImage::from_fn(128, 128, |x, y| ((x * 31 ^ y * 17) % 256) as u8);
/// let orb = OrbExtractor::new(100, 25);
/// let (features, cost) = orb.extract_with_cost(&img);
/// assert!(features.len() <= 100);
/// assert_eq!(cost.features_described, features.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrbExtractor {
    max_features: usize,
    fast_threshold: u8,
    n_levels: usize,
    runtime: Runtime,
}

impl OrbExtractor {
    /// Creates an extractor keeping at most `max_features` strongest
    /// corners, detected with the given FAST threshold, over 4 pyramid
    /// levels.
    ///
    /// # Panics
    ///
    /// Panics if `max_features` is zero.
    pub fn new(max_features: usize, fast_threshold: u8) -> Self {
        assert!(max_features > 0, "max_features must be positive");
        Self {
            max_features,
            fast_threshold,
            n_levels: 4,
            runtime: Runtime::serial(),
        }
    }

    /// Runs per-pyramid-level detection on a worker pool. Results are
    /// bit-identical to the serial extractor at any thread count:
    /// levels land in fixed slots and are flattened in octave order.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the number of pyramid levels (default 4).
    ///
    /// # Panics
    ///
    /// Panics if `n_levels` is zero.
    pub fn with_levels(mut self, n_levels: usize) -> Self {
        assert!(n_levels > 0, "need at least one level");
        self.n_levels = n_levels;
        self
    }

    /// Extracts oriented, described features.
    pub fn extract(&self, img: &GrayImage) -> Vec<Feature> {
        self.extract_with_cost(img).0
    }

    /// Extracts features and reports the work performed.
    pub fn extract_with_cost(&self, img: &GrayImage) -> (Vec<Feature>, OrbCost) {
        let _sp = adsim_trace::span("orb.extract");
        let pyramid = Pyramid::build(img, self.n_levels);
        let mut cost = OrbCost { pixels_scanned: pyramid.total_pixels(), ..Default::default() };
        // Per-level detection is independent work: each level fills
        // its own slot, so the flattened octave-order result is
        // identical on any worker count (and on the serial path).
        let levels = pyramid.levels();
        let mut per_level: Vec<Vec<Keypoint>> = vec![Vec::new(); levels.len()];
        let rt = self.runtime.for_work(pyramid.total_pixels() * 32);
        rt.par_chunks_mut(&mut per_level, 1, |octave, slot| {
            let _lvl = adsim_trace::span_at("orb.level", octave);
            let level = &levels[octave];
            let scale = pyramid.scale(octave);
            let mut kps = fast_corners(level, self.fast_threshold);
            for kp in &mut kps {
                kp.angle = orientation(level, kp.x, kp.y, 15);
                // Report in full-resolution coordinates.
                kp.x *= scale;
                kp.y *= scale;
                kp.octave = octave;
            }
            slot[0] = kps;
        });
        let mut keypoints: Vec<Keypoint> = per_level.into_iter().flatten().collect();
        cost.corners_detected = keypoints.len();
        // Keep the strongest corners (the retention policy ORB uses).
        // The sort is stable, so equal scores keep their octave-order
        // position and the retained set is deterministic.
        keypoints.sort_by(|a, b| b.score.total_cmp(&a.score));
        keypoints.truncate(self.max_features);

        let _desc = adsim_trace::span("orb.describe");
        let features: Vec<Feature> = keypoints
            .into_iter()
            .map(|kp| {
                let level = &pyramid.levels()[kp.octave];
                let scale = pyramid.scale(kp.octave);
                let local = Keypoint { x: kp.x / scale, y: kp.y / scale, ..kp };
                Feature { keypoint: kp, descriptor: describe(level, &local) }
            })
            .collect();
        cost.features_described = features.len();
        (features, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene() -> GrayImage {
        let mut img = GrayImage::new(160, 120);
        for i in 0..6 {
            let x = 10 + i * 24;
            img.fill_rect(x as isize, 20 + (i as isize * 11) % 60, 14, 14, 200 + (i as u8 * 9));
        }
        img
    }

    #[test]
    fn extraction_respects_feature_cap() {
        let orb = OrbExtractor::new(5, 20);
        let features = orb.extract(&scene());
        assert!(features.len() <= 5);
        assert!(!features.is_empty());
    }

    #[test]
    fn strongest_corners_survive_capping() {
        let orb_all = OrbExtractor::new(10_000, 20);
        let orb_few = OrbExtractor::new(3, 20);
        let all = orb_all.extract(&scene());
        let few = orb_few.extract(&scene());
        let min_kept = few.iter().map(|f| f.keypoint.score).fold(f32::INFINITY, f32::min);
        let stronger = all.iter().filter(|f| f.keypoint.score > min_kept).count();
        assert!(stronger <= 3, "capping must keep the strongest corners");
    }

    #[test]
    fn cost_reflects_pyramid_and_features() {
        let img = scene();
        let orb = OrbExtractor::new(50, 20);
        let (features, cost) = orb.extract_with_cost(&img);
        assert!(cost.pixels_scanned >= img.pixels());
        assert_eq!(cost.features_described, features.len());
        assert!(cost.corners_detected >= features.len());
    }

    #[test]
    fn keypoints_are_within_image_bounds() {
        let img = scene();
        let orb = OrbExtractor::new(100, 20);
        for f in orb.extract(&img) {
            assert!(f.keypoint.x >= 0.0 && f.keypoint.x < img.width() as f32);
            assert!(f.keypoint.y >= 0.0 && f.keypoint.y < img.height() as f32);
        }
    }

    #[test]
    fn multiscale_detection_finds_coarse_corners() {
        // One large blob: its corners exist at every octave; verify some
        // keypoint is reported from an octave > 0.
        let mut img = GrayImage::new(256, 256);
        img.fill_rect(64, 64, 128, 128, 255);
        let orb = OrbExtractor::new(500, 30).with_levels(3);
        let features = orb.extract(&img);
        assert!(features.iter().any(|f| f.keypoint.octave > 0));
    }

    #[test]
    fn same_image_gives_identical_features() {
        let orb = OrbExtractor::new(20, 20);
        assert_eq!(orb.extract(&scene()), orb.extract(&scene()));
    }

    #[test]
    fn parallel_extraction_matches_serial_bit_for_bit() {
        // Rich multi-scale texture so every pyramid level contributes
        // corners and the parallel path is actually exercised.
        let img = GrayImage::from_fn(320, 240, |x, y| {
            let mut h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 31;
            (h % 230) as u8
        });
        let base = OrbExtractor::new(300, 20).with_levels(4);
        let (serial, serial_cost) = base.extract_with_cost(&img);
        assert!(!serial.is_empty());
        for threads in [2, 8] {
            let par = base.with_runtime(Runtime::new(threads));
            let (features, cost) = par.extract_with_cost(&img);
            assert_eq!(serial, features, "threads={threads}");
            assert_eq!(serial_cost, cost, "threads={threads}");
        }
    }
}
