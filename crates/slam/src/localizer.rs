use crate::map::SharedMap;
use crate::motion::MotionModel;
use crate::solve::{estimate_pose_with, Correspondence};
use adsim_runtime::Runtime;
use adsim_vision::{match_descriptors, Feature, GrayImage, OrbExtractor, OrthoCamera, Pose2};

/// Map-query radius (m) beyond the camera footprint while tracking.
const SEARCH_RADIUS: f64 = 20.0;
/// Widened map-query radius (m) used by relocalization — the "wider
/// search in the map around the location identified last time" of
/// §3.1.3.
const RELOC_RADIUS: f64 = 150.0;
/// Maximum descriptor Hamming distance for a match.
const MAX_MATCH_DISTANCE: u32 = 64;
/// Lowe ratio-test threshold.
const MATCH_RATIO: f32 = 0.85;
/// Minimum pose-solve inliers to accept tracking.
const MIN_INLIERS: usize = 6;
/// Cap on landmarks added per frame by map update.
const MAX_MAP_ADDITIONS: usize = 10;

/// Tuning parameters of the [`Localizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizerConfig {
    /// Run loop closing every this many frames (paper: "executed
    /// periodically").
    pub loop_close_interval: u64,
    /// Whether unmatched features are added to the map (map update).
    pub map_update: bool,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        Self { loop_close_interval: 100, map_update: true }
    }
}

/// How a frame was localized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalizeOutcome {
    /// Motion-model prediction + narrow search succeeded.
    Tracked,
    /// Narrow search failed; the widened relocalization search
    /// recovered the pose.
    Relocalized,
    /// Both searches failed; no pose this frame.
    Lost,
}

/// Work performed while localizing one frame, consumed by the platform
/// latency models. Relocalized frames do several times the matching
/// work of tracked frames — the mechanism behind LOC's heavy latency
/// tail (Finding 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocCost {
    /// Pixels scanned by feature extraction (all pyramid levels).
    pub pixels_scanned: usize,
    /// Features extracted and described.
    pub features: usize,
    /// Prior-map candidates fetched and matched against.
    pub map_candidates: usize,
    /// Descriptor matches found.
    pub matches: usize,
    /// Whether the relocalization path ran.
    pub relocalized: bool,
    /// Whether loop closing ran this frame.
    pub loop_closed: bool,
}

/// Result of localizing one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizeResult {
    /// Estimated pose (`None` when lost).
    pub pose: Option<Pose2>,
    /// Which path produced the result.
    pub outcome: LocalizeOutcome,
    /// Work performed.
    pub cost: LocCost,
}

/// Running counters over a localizer's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalizerStats {
    /// Frames processed.
    pub frames: u64,
    /// Frames that needed relocalization.
    pub relocalizations: u64,
    /// Frames lost entirely.
    pub lost: u64,
    /// Landmarks added by map update.
    pub map_additions: u64,
    /// Loop-closing passes executed.
    pub loop_closures: u64,
}

/// The ORB-SLAM-style localization engine (paper Fig. 5).
///
/// Per frame: extract ORB features → predict pose with the constant
/// motion model → match descriptors against prior-map landmarks near
/// the prediction → solve the SE(2) pose by trimmed least squares →
/// on failure, relocalize with a widened search → update the map with
/// newly seen features → periodically run loop closing.
///
/// `Clone` deep-copies the mutable state (private map overlay, motion
/// model, stats) while sharing the read-only prior map `Arc` — the
/// recovery layer's checkpoint mechanism.
#[derive(Clone)]
pub struct Localizer {
    map: SharedMap,
    camera: OrthoCamera,
    orb: OrbExtractor,
    motion: MotionModel,
    cfg: LocalizerConfig,
    stats: LocalizerStats,
    runtime: Runtime,
}

impl std::fmt::Debug for Localizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Localizer")
            .field("map_len", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Localizer {
    /// Creates a localizer over a prior map.
    ///
    /// Accepts an owned [`PriorMap`](crate::map::PriorMap) (sole
    /// ownership, the single-vehicle path), an
    /// `Arc<PriorMap>` (read-only prior shared across a fleet of
    /// localizers), or a pre-built [`SharedMap`]. Map updates always go
    /// to this localizer's private overlay, never the shared prior.
    pub fn new(
        map: impl Into<SharedMap>,
        camera: OrthoCamera,
        orb: OrbExtractor,
        cfg: LocalizerConfig,
    ) -> Self {
        Self {
            map: map.into(),
            camera,
            orb,
            motion: MotionModel::new(),
            cfg,
            stats: LocalizerStats::default(),
            runtime: Runtime::serial(),
        }
    }

    /// Runs the RANSAC pose-solve scoring on the given worker pool.
    /// Results are bit-identical on any thread count (see
    /// `estimate_pose_with`).
    #[must_use]
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// The map this localizer queries: the shared prior plus this
    /// vehicle's private overlay (which grows when map update is
    /// enabled).
    pub fn map(&self) -> &SharedMap {
        &self.map
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LocalizerStats {
        self.stats
    }

    /// Last confirmed pose.
    pub fn pose(&self) -> Option<Pose2> {
        self.motion.last_pose()
    }

    /// Seeds the pose estimate (e.g. from GPS at startup, which the
    /// paper notes is not precise enough for driving but suffices to
    /// bootstrap map matching).
    pub fn seed_pose(&mut self, pose: Pose2) {
        self.motion.observe(pose);
    }

    /// Localizes one camera frame.
    pub fn localize(&mut self, frame: &GrayImage) -> LocalizeResult {
        self.stats.frames += 1;
        let (features, orb_cost) = {
            let _sp = adsim_trace::span("loc.orb");
            self.orb.extract_with_cost(frame)
        };
        let mut cost = LocCost {
            pixels_scanned: orb_cost.pixels_scanned,
            features: features.len(),
            ..Default::default()
        };
        let predicted = self.motion.predict();

        // Tracking: narrow search around the motion-model prediction.
        let narrow = self.camera.view_radius() + SEARCH_RADIUS;
        let tracked = {
            let _sp = adsim_trace::span("loc.track");
            self.attempt(&features, predicted, narrow, &mut cost)
        };

        let (estimate, outcome) = match tracked {
            Some(pose) => (Some(pose), LocalizeOutcome::Tracked),
            None => {
                // Relocalization: widened search around the last known
                // location.
                cost.relocalized = true;
                self.stats.relocalizations += 1;
                let _sp = adsim_trace::span("loc.reloc");
                let wide = self.camera.view_radius() + RELOC_RADIUS;
                match self.attempt(&features, predicted, wide, &mut cost) {
                    Some(pose) => (Some(pose), LocalizeOutcome::Relocalized),
                    None => (None, LocalizeOutcome::Lost),
                }
            }
        };

        if let Some(pose) = estimate {
            self.motion.observe(pose);
            if self.cfg.map_update {
                let _sp = adsim_trace::span("loc.map_update");
                self.update_map(&features, &pose, &mut cost);
            }
            if self.cfg.loop_close_interval > 0
                && self.stats.frames.is_multiple_of(self.cfg.loop_close_interval)
            {
                // Loop closing: re-match at double radius to confirm the
                // trajectory against the map and cancel drift.
                cost.loop_closed = true;
                self.stats.loop_closures += 1;
                let _sp = adsim_trace::span("loc.loop_close");
                let radius = self.camera.view_radius() + 2.0 * SEARCH_RADIUS;
                let _ = self.attempt(&features, pose, radius, &mut cost);
            }
        } else {
            self.stats.lost += 1;
            self.motion.reset();
        }
        LocalizeResult { pose: estimate, outcome, cost }
    }

    /// One match-and-solve attempt at the given search radius.
    ///
    /// Matching strategy follows ORB-SLAM: while *tracking* (narrow
    /// radius), each feature is matched only against landmarks near
    /// its pose-predicted world position (guided search); during
    /// *relocalization* (wide radius) the prediction is untrusted, so
    /// matching degrades to a global scan over every candidate — the
    /// reason relocalized frames cost several times a tracked frame
    /// and the source of LOC's latency tail.
    fn attempt(
        &self,
        features: &[Feature],
        around: Pose2,
        radius: f64,
        cost: &mut LocCost,
    ) -> Option<Pose2> {
        if features.is_empty() {
            return None;
        }
        let candidates = self.map.near(around.translation(), radius);
        cost.map_candidates += candidates.len();
        if candidates.is_empty() {
            return None;
        }
        let guided = radius <= self.camera.view_radius() + SEARCH_RADIUS + 1e-9;
        let corrs: Vec<Correspondence> = if guided {
            self.match_guided(features, &around, &candidates, cost)
        } else {
            self.match_global(features, &candidates, cost)
        };
        let est = estimate_pose_with(&self.runtime, &corrs, MIN_INLIERS)?;
        // Reject solves that disagree wildly with where we searched —
        // a pathological association, not a pose.
        if est.pose.translation().distance(&around.translation()) > radius {
            return None;
        }
        Some(est.pose)
    }

    /// Guided matching: each feature is compared only to landmarks
    /// within a few meters of where the predicted pose projects it.
    fn match_guided(
        &self,
        features: &[Feature],
        around: &Pose2,
        candidates: &[&crate::map::Landmark],
        cost: &mut LocCost,
    ) -> Vec<Correspondence> {
        // Bucket the candidate set once (5 m cells).
        const CELL: f64 = 5.0;
        const SEARCH_M: f64 = 6.0;
        let mut grid: std::collections::HashMap<(i64, i64), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, lm) in candidates.iter().enumerate() {
            let key = ((lm.position.x / CELL).floor() as i64, (lm.position.y / CELL).floor() as i64);
            grid.entry(key).or_default().push(i);
        }
        let mut corrs = Vec::new();
        let r_cells = (SEARCH_M / CELL).ceil() as i64;
        for f in features {
            let kp = f.keypoint;
            let predicted =
                self.camera.image_to_world(around, kp.x as f64, kp.y as f64);
            let (cx, cy) =
                ((predicted.x / CELL).floor() as i64, (predicted.y / CELL).floor() as i64);
            let mut best = (usize::MAX, u32::MAX);
            let mut second = u32::MAX;
            for gx in cx - r_cells..=cx + r_cells {
                for gy in cy - r_cells..=cy + r_cells {
                    let Some(bucket) = grid.get(&(gx, gy)) else { continue };
                    for &i in bucket {
                        if candidates[i].position.distance(&predicted) > SEARCH_M {
                            continue;
                        }
                        let d = f.descriptor.hamming(&candidates[i].descriptor);
                        if d < best.1 {
                            second = best.1;
                            best = (i, d);
                        } else if d < second {
                            second = d;
                        }
                    }
                }
            }
            if best.1 > MAX_MATCH_DISTANCE {
                continue;
            }
            if second != u32::MAX && best.1 as f32 > MATCH_RATIO * second as f32 {
                continue;
            }
            cost.matches += 1;
            corrs.push(Correspondence {
                vehicle: self.camera.image_to_vehicle(kp.x as f64, kp.y as f64),
                world: candidates[best.0].position,
            });
        }
        corrs
    }

    /// Global matching: brute force over every candidate (the widened
    /// relocalization search of §3.1.3).
    fn match_global(
        &self,
        features: &[Feature],
        candidates: &[&crate::map::Landmark],
        cost: &mut LocCost,
    ) -> Vec<Correspondence> {
        let query: Vec<_> = features.iter().map(|f| f.descriptor).collect();
        let train: Vec<_> = candidates.iter().map(|l| l.descriptor).collect();
        let matches = match_descriptors(&query, &train, MAX_MATCH_DISTANCE, MATCH_RATIO);
        cost.matches += matches.len();
        matches
            .iter()
            .map(|m| {
                let kp = features[m.query].keypoint;
                Correspondence {
                    vehicle: self.camera.image_to_vehicle(kp.x as f64, kp.y as f64),
                    world: candidates[m.train].position,
                }
            })
            .collect()
    }

    /// Adds strong unmatched features as new landmarks (map update).
    fn update_map(&mut self, features: &[Feature], pose: &Pose2, cost: &mut LocCost) {
        let mut added = 0;
        for f in features {
            if added >= MAX_MAP_ADDITIONS {
                break;
            }
            let world = self.camera.image_to_world(
                pose,
                f.keypoint.x as f64,
                f.keypoint.y as f64,
            );
            // Skip if a similar landmark already exists nearby.
            let exists = self.map.near(world, 1.0).iter().any(|lm| {
                lm.descriptor.hamming(&f.descriptor) <= MAX_MATCH_DISTANCE
            });
            if !exists {
                self.map.insert_new(world, f.descriptor);
                self.stats.map_additions += 1;
                added += 1;
            }
        }
        let _ = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::PriorMap;
    use adsim_vision::Point2;

    /// A synthetic world of textured square beacons. Mapping and
    /// rendering share the exact drawing code, so extracted
    /// descriptors in the map match those seen at localization time.
    struct Beacon {
        position: Point2,
        seed: u64,
    }

    fn beacons() -> Vec<Beacon> {
        let mut out = Vec::new();
        let mut id = 0;
        for gx in -12..=12i64 {
            for gy in -6..=6i64 {
                // Jitter positions deterministically off-grid.
                let jx = ((gx * 7 + gy * 3).rem_euclid(5)) as f64 * 0.9;
                let jy = ((gx * 5 + gy * 11).rem_euclid(7)) as f64 * 0.6;
                out.push(Beacon {
                    position: Point2::new(gx as f64 * 14.0 + jx, gy as f64 * 14.0 + jy),
                    seed: id,
                });
                id += 1;
            }
        }
        out
    }

    fn render(camera: &OrthoCamera, pose: &Pose2, world: &[Beacon]) -> GrayImage {
        let mut img = GrayImage::from_fn(camera.width(), camera.height(), |x, y| {
            // Dim deterministic ground texture.
            (((x * 3 + y * 5) % 13) + 20) as u8
        });
        for b in world {
            let (u, v) = camera.world_to_image(pose, b.position);
            if !camera.in_frame(u, v) {
                continue;
            }
            // 28x28 texture of 4x4 random cells, unique per beacon.
            // The patch exceeds the 27x27 BRIEF sampling window, so
            // descriptors of interior corners see only this beacon's
            // texture and matches are unambiguous.
            for dy in -14isize..14 {
                for dx in -14isize..14 {
                    let (cx, cy) = ((dx + 14) / 4, (dy + 14) / 4);
                    let mut h = b.seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(cx as u64 * 131)
                        .wrapping_add(cy as u64 * 31013);
                    h ^= h >> 29;
                    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    h ^= h >> 32;
                    img.put(
                        u.round() as isize + dx,
                        v.round() as isize + dy,
                        80 + (h % 176) as u8,
                    );
                }
            }
        }
        img
    }

    fn camera() -> OrthoCamera {
        OrthoCamera::new(320, 240, 0.25)
    }

    fn orb() -> OrbExtractor {
        OrbExtractor::new(300, 25).with_levels(2)
    }

    /// Builds a prior map by driving a mapping pass over the world at
    /// known poses and back-projecting extracted features.
    fn build_map(camera: &OrthoCamera, world: &[Beacon]) -> PriorMap {
        let mut map = PriorMap::empty();
        let orb = orb();
        for gx in -5..=5 {
            for gy in -2..=2 {
                let pose = Pose2::new(gx as f64 * 32.0, gy as f64 * 30.0, 0.0);
                let frame = render(camera, &pose, world);
                for f in orb.extract(&frame) {
                    let w =
                        camera.image_to_world(&pose, f.keypoint.x as f64, f.keypoint.y as f64);
                    let dup = map
                        .near(w, 0.5)
                        .iter()
                        .any(|lm| lm.descriptor.hamming(&f.descriptor) < 32);
                    if !dup {
                        map.insert_new(w, f.descriptor);
                    }
                }
            }
        }
        map
    }

    fn localizer(map: PriorMap) -> Localizer {
        Localizer::new(
            map,
            camera(),
            orb(),
            LocalizerConfig { map_update: false, ..LocalizerConfig::default() },
        )
    }

    #[test]
    fn tracks_along_a_straight_drive() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        assert!(map.len() > 50, "mapping found {} landmarks", map.len());
        let mut loc = localizer(map);
        loc.seed_pose(Pose2::new(-20.0, 0.0, 0.0));
        let mut tracked = 0;
        for i in 0..20 {
            let truth = Pose2::new(-20.0 + i as f64 * 1.5, 0.0, 0.0);
            let frame = render(&cam, &truth, &world);
            let res = loc.localize(&frame);
            if let Some(pose) = res.pose {
                let err = pose.distance(&truth);
                assert!(err < 1.0, "frame {i}: error {err:.3} m, outcome {:?}", res.outcome);
                tracked += 1;
            }
        }
        assert!(tracked >= 18, "tracked {tracked}/20 frames");
    }

    #[test]
    fn localization_is_decimeter_accurate_when_tracking() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        let mut loc = localizer(map);
        let truth = Pose2::new(3.0, 2.0, 0.0);
        loc.seed_pose(Pose2::new(2.0, 2.0, 0.0));
        let res = loc.localize(&render(&cam, &truth, &world));
        let pose = res.pose.expect("should localize");
        assert!(pose.distance(&truth) < 0.3, "error {}", pose.distance(&truth));
    }

    #[test]
    fn relocalizes_after_teleport() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        let mut loc = localizer(map);
        loc.seed_pose(Pose2::new(0.0, 0.0, 0.0));
        let _ = loc.localize(&render(&cam, &Pose2::new(0.0, 0.0, 0.0), &world));
        // Teleport 130 m away: far outside the narrow search (view
        // radius 50 m + 20 m), so tracking fails and the widened
        // relocalization search recovers.
        let truth = Pose2::new(120.0, 50.0, 0.0);
        let res = loc.localize(&render(&cam, &truth, &world));
        assert_eq!(res.outcome, LocalizeOutcome::Relocalized);
        assert!(res.cost.relocalized);
        let pose = res.pose.expect("relocalization should succeed");
        assert!(pose.distance(&truth) < 1.0);
    }

    #[test]
    fn relocalization_does_more_matching_work() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        let mut loc = localizer(map);
        loc.seed_pose(Pose2::new(0.0, 0.0, 0.0));
        let near = loc.localize(&render(&cam, &Pose2::new(0.5, 0.0, 0.0), &world));
        let mut loc2 = localizer(build_map(&cam, &world));
        loc2.seed_pose(Pose2::new(0.0, 0.0, 0.0));
        let _ = loc2.localize(&render(&cam, &Pose2::new(0.0, 0.0, 0.0), &world));
        let far = loc2.localize(&render(&cam, &Pose2::new(120.0, 50.0, 0.0), &world));
        assert!(
            far.cost.map_candidates > near.cost.map_candidates,
            "reloc candidates {} <= tracked candidates {}",
            far.cost.map_candidates,
            near.cost.map_candidates
        );
    }

    #[test]
    fn lost_when_world_is_unknown() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        let mut loc = localizer(map);
        loc.seed_pose(Pose2::new(0.0, 0.0, 0.0));
        // Render a region far outside the mapped area.
        let frame = render(&cam, &Pose2::new(5000.0, 5000.0, 0.0), &world);
        let res = loc.localize(&frame);
        assert_eq!(res.outcome, LocalizeOutcome::Lost);
        assert!(res.pose.is_none());
        assert_eq!(loc.stats().lost, 1);
    }

    #[test]
    fn map_update_adds_landmarks() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        let before = map.len();
        let mut loc = Localizer::new(map, cam, orb(), LocalizerConfig::default());
        loc.seed_pose(Pose2::new(0.0, 0.0, 0.0));
        // New beacons appear that were never mapped.
        let mut extended = beacons();
        extended.push(Beacon { position: Point2::new(2.0, -3.0), seed: 999 });
        let _ = loc.localize(&render(&cam, &Pose2::new(0.0, 0.0, 0.0), &extended));
        assert!(loc.map().len() > before, "map update should add landmarks");
        assert!(loc.stats().map_additions > 0);
    }

    #[test]
    fn loop_closing_runs_periodically() {
        let world = beacons();
        let cam = camera();
        let map = build_map(&cam, &world);
        let mut loc = Localizer::new(
            map,
            cam,
            orb(),
            LocalizerConfig { loop_close_interval: 3, map_update: false },
        );
        loc.seed_pose(Pose2::new(0.0, 0.0, 0.0));
        let mut closed = 0;
        for i in 0..6 {
            let truth = Pose2::new(i as f64 * 0.5, 0.0, 0.0);
            let res = loc.localize(&render(&cam, &truth, &world));
            if res.cost.loop_closed {
                closed += 1;
            }
        }
        assert_eq!(closed, 2, "interval 3 over 6 frames -> 2 closures");
        assert_eq!(loc.stats().loop_closures, 2);
    }
}
