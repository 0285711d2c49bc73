use crate::modeled::FrameLatency;
use crate::anytime::{ModelVariant, QualityKnobs};
use adsim_dnn::detection::Detection;
use adsim_perception::{
    BatchRequest, BlobDetector, Detector, DetectorVariant, GoturnTracker, TemplateTracker,
    TrackedObject, Tracker, TrackerPool, TrackerPoolConfig, YoloDetector,
};
use adsim_planning::{Environment, FusedFrame, FusionEngine, MotionPlan, MotionPlanner};
use adsim_runtime::Runtime;
use adsim_slam::{
    LocCost, LocalizeOutcome, LocalizeResult, Localizer, LocalizerConfig, PriorMap, SharedMap,
};
use adsim_vision::{GrayImage, OrbExtractor, OrthoCamera, Pose2};
use adsim_workload::World;
use std::time::Instant;

/// Which detector implementation the native pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// Classical blob detector — functionally accurate on the
    /// synthetic worlds.
    Blob,
    /// Reduced-scale YOLO DNN — exercises the paper's compute
    /// structure (untrained weights; see DESIGN.md).
    Yolo {
        /// Output grid side.
        grid: usize,
        /// Confidence threshold.
        threshold: f32,
    },
}

/// Which single-object tracker the pool is populated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerKind {
    /// Template matcher — functionally accurate on the synthetic
    /// worlds, cheap per track.
    Template,
    /// GOTURN-style regression DNN per track — exercises the paper's
    /// Fig. 4 compute structure and makes TRA a DNN workload whose
    /// cost scales with the number of tracked objects.
    Goturn,
}

/// Native pipeline construction parameters.
#[derive(Debug, Clone)]
pub struct NativePipelineConfig {
    /// Detector implementation.
    pub detector: DetectorKind,
    /// Tracker implementation populating the pool.
    pub tracker: TrackerKind,
    /// ORB feature budget for localization.
    pub orb_features: usize,
    /// FAST threshold for localization.
    pub fast_threshold: u8,
    /// Localizer tuning.
    pub localizer: LocalizerConfig,
    /// Tracker-pool tuning.
    pub tracker_pool: TrackerPoolConfig,
    /// Driving environment for the motion planner.
    pub environment: Environment,
    /// Cruise speed (m/s).
    pub cruise_mps: f64,
    /// Worker pool for the pipeline fork (steps 1a/1b) and the DNN
    /// kernels; `Runtime::serial()` reproduces single-core execution
    /// for the parallelism ablation.
    pub runtime: Runtime,
}

impl Default for NativePipelineConfig {
    fn default() -> Self {
        Self {
            detector: DetectorKind::Blob,
            tracker: TrackerKind::Template,
            orb_features: 300,
            fast_threshold: 25,
            localizer: LocalizerConfig::default(),
            tracker_pool: TrackerPoolConfig::default(),
            environment: Environment::Structured(
                adsim_planning::Centerline::straight(10_000.0),
            ),
            cruise_mps: 11.0,
            runtime: Runtime::max_parallel(),
        }
    }
}

/// Per-frame overrides a supervisor uses to steer a degraded frame
/// through the pipeline. [`ProcessControl::default()`] is the
/// transparent hook: [`NativePipeline::process`] routes through it and
/// behaves bit-identically to the unhooked pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ProcessControl {
    /// Skip the detection engine this frame (tracker-only perception:
    /// the pool advances existing tracks with no new detections).
    pub skip_detection: bool,
    /// Skip the localization engine this frame (models lock loss; the
    /// SLAM module produces no pose and its motion model goes stale).
    pub skip_localization: bool,
    /// Pose to fuse against when localization yields nothing — the
    /// supervisor's dead-reckoned estimate. Never overrides a
    /// successful localization.
    pub pose_fallback: Option<Pose2>,
    /// Normalized offset added to every reported track box (injected
    /// tracker divergence).
    pub track_shift: Option<(f32, f32)>,
    /// Quality operating point commanded by the anytime governor:
    /// detector input scale + model variant and tracker-pool capacity.
    /// `None` leaves every knob untouched — the bit-identity hook for
    /// governor-off runs.
    pub quality: Option<QualityKnobs>,
}

/// Output of processing one frame natively.
#[derive(Debug)]
pub struct NativeFrameResult {
    /// Measured wall-clock latencies (ms).
    pub latency: FrameLatency,
    /// Raw detector output (empty when the stage was skipped) — the
    /// DET → TRA hand-off payload, exposed for stage-boundary
    /// monitoring.
    pub detections: Vec<Detection>,
    /// Localizer pose estimate (`None` when lost).
    pub pose: Option<Pose2>,
    /// Tracked-object table after this frame.
    pub tracks: Vec<TrackedObject>,
    /// Fused world-state.
    pub fused: FusedFrame,
    /// The motion plan.
    pub plan: MotionPlan,
}

/// The real end-to-end system of Fig. 1, running this workspace's
/// actual algorithm implementations and measuring wall-clock latency
/// per stage. Detection and localization run concurrently (steps
/// 1a/1b), exactly as in the paper's architecture.
pub struct NativePipeline {
    camera: OrthoCamera,
    localizer: Localizer,
    detector: Box<dyn Detector + Send>,
    pool: TrackerPool,
    fusion: FusionEngine,
    motion: MotionPlanner,
    runtime: Runtime,
    /// Frames processed so far. The supervisor stamps the track-count
    /// gauge with it, so registry merges pick the later sample
    /// deterministically.
    pub(crate) frames: u64,
}

impl std::fmt::Debug for NativePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativePipeline").finish()
    }
}

impl NativePipeline {
    /// Builds the pipeline over a prior map.
    ///
    /// Accepts an owned [`PriorMap`], an `Arc<PriorMap>` (the fleet
    /// path: every vehicle cell reads one shared prior allocation), or
    /// a pre-built [`SharedMap`]. Map updates stay private to this
    /// pipeline's localizer either way.
    pub fn new(
        camera: OrthoCamera,
        map: impl Into<SharedMap>,
        cfg: NativePipelineConfig,
    ) -> Self {
        // The DET/LOC fork occupies two workers; ORB's per-level fan
        // -out inside the localization arm gets what remains.
        let orb_rt = Runtime::new(cfg.runtime.threads().saturating_sub(1).max(1));
        let orb = OrbExtractor::new(cfg.orb_features, cfg.fast_threshold)
            .with_levels(2)
            .with_runtime(orb_rt);
        let detector: Box<dyn Detector + Send> = match cfg.detector {
            DetectorKind::Blob => Box::new(BlobDetector::new()),
            DetectorKind::Yolo { grid, threshold } => {
                // The fork already occupies two workers; give the DNN
                // kernels whatever parallelism remains beyond the
                // concurrent localization thread.
                let dnn_rt = Runtime::new(cfg.runtime.threads().saturating_sub(1).max(1));
                Box::new(YoloDetector::new(grid, threshold).with_runtime(dnn_rt))
            }
        };
        let pool = match cfg.tracker {
            TrackerKind::Template => TrackerPool::new(cfg.tracker_pool, |frame, bbox| {
                Box::new(TemplateTracker::new(frame, bbox)) as Box<dyn Tracker>
            }),
            TrackerKind::Goturn => TrackerPool::new(cfg.tracker_pool, |frame, bbox| {
                Box::new(GoturnTracker::new(frame, bbox)) as Box<dyn Tracker>
            }),
        }
        // Tracking runs after the DET/LOC fork has joined, so its
        // per-track fan-out may use the full pool.
        .with_runtime(cfg.runtime);
        Self {
            camera,
            localizer: Localizer::new(map, camera, orb, cfg.localizer).with_runtime(orb_rt),
            detector,
            pool,
            fusion: FusionEngine::new(),
            motion: MotionPlanner::new(cfg.environment, cfg.cruise_mps)
                .with_runtime(cfg.runtime),
            runtime: cfg.runtime,
            frames: 0,
        }
    }

    /// Seeds the localizer (GPS bootstrap).
    pub fn seed_pose(&mut self, pose: Pose2) {
        self.localizer.seed_pose(pose);
    }

    /// The localizer (for stats inspection).
    pub fn localizer(&self) -> &Localizer {
        &self.localizer
    }

    /// A deep snapshot of everything mutable across frames: the
    /// localizer (pose/motion model, private map overlay, stats), the
    /// tracker pool, fusion histories, the motion planner and the frame
    /// counter. The detector is deliberately *not* captured: its only
    /// mutable state is the anytime quality operating point, and
    /// [`NativePipeline::apply_quality`] re-commands those knobs from
    /// the frame's control before any stage runs, so restored frames
    /// re-establish it deterministically.
    pub(crate) fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            localizer: self.localizer.clone(),
            pool: self.pool.snapshot(),
            fusion: self.fusion.clone(),
            motion: self.motion.clone(),
            frames: self.frames,
        }
    }

    /// Restores a [`NativePipeline::snapshot`]; the pipeline resumes
    /// bit-identically from the captured frame. Snapshots are reusable
    /// (restoring clones out of them).
    pub(crate) fn restore(&mut self, snap: &PipelineSnapshot) {
        self.localizer = snap.localizer.clone();
        self.pool.restore(&snap.pool);
        self.fusion = snap.fusion.clone();
        self.motion = snap.motion.clone();
        self.frames = snap.frames;
    }

    /// Processes one camera frame through the full Fig. 1 dataflow.
    pub fn process(&mut self, image: &GrayImage, time_s: f64) -> NativeFrameResult {
        self.process_with_det(image, time_s, &ProcessControl::default(), None)
    }

    /// Applies an anytime quality operating point before any stage
    /// runs, so the whole frame executes at one operating point. Both
    /// knob setters are O(1) no-ops when already at the commanded
    /// value (the model-variant switch clones from a shared cache —
    /// never a weight copy), so re-applying the same knobs is free.
    pub(crate) fn apply_quality(&mut self, quality: Option<QualityKnobs>) {
        if let Some(k) = quality {
            let variant = match k.det_variant {
                ModelVariant::Full => DetectorVariant::Full,
                ModelVariant::Reduced => DetectorVariant::Reduced,
            };
            self.detector.set_quality(k.det_scale, variant);
            if self.pool.capacity() != k.tracker_capacity {
                self.pool.set_capacity(k.tracker_capacity);
            }
        }
    }

    /// Prepares this frame's detection stage for cross-vehicle batched
    /// execution: applies the control's quality knobs (so the request
    /// reflects the frame's actual operating point) and asks the
    /// detector to package its DNN input. Returns `None` when the
    /// frame skips detection or the detector has no batchable stage —
    /// the caller then lets [`NativePipeline::process_with_det`] run
    /// detection inline as usual.
    pub(crate) fn det_batch_request(
        &mut self,
        image: &GrayImage,
        ctrl: &ProcessControl,
    ) -> Option<BatchRequest> {
        self.apply_quality(ctrl.quality);
        if ctrl.skip_detection {
            return None;
        }
        self.detector.batch_request(image)
    }

    /// [`NativePipeline::process`] with supervisor overrides. The
    /// default control is transparent; a skipped stage costs zero
    /// measured latency and produces its empty output (no detections /
    /// no pose).
    ///
    /// The detection stage may already have run externally (the
    /// cross-vehicle batched path):
    /// `det_override = Some(d)` means a batch runner executed this
    /// frame's forward pass from an earlier
    /// [`NativePipeline::det_batch_request`]; the detector is not
    /// invoked, `d` feeds tracking/monitoring exactly as an inline
    /// result would, and the stage's measured wall latency is zero
    /// (the batched forward is accounted at the fleet level). All
    /// virtual-clock outputs — detections, tracks, plan, telemetry
    /// counts — are bit-identical to the inline path by construction.
    pub(crate) fn process_with_det(
        &mut self,
        image: &GrayImage,
        time_s: f64,
        ctrl: &ProcessControl,
        det_override: Option<Vec<Detection>>,
    ) -> NativeFrameResult {
        let _frame_sp = adsim_trace::span("pipeline.frame");
        self.apply_quality(ctrl.quality);
        // Steps 1a/1b: detection and localization in parallel (serial
        // in order on a single-worker runtime). When a stage is
        // skipped or pre-computed there is no fork to run concurrently.
        let localizer = &mut self.localizer;
        let detector = &mut self.detector;
        let run_loc = |localizer: &mut Localizer| {
            let _sp = adsim_trace::span("stage.loc");
            let t = Instant::now();
            let r = localizer.localize(image);
            (r, t.elapsed().as_secs_f64() * 1e3)
        };
        let run_det = |detector: &mut Box<dyn Detector + Send>| {
            let _sp = adsim_trace::span("stage.det");
            let t = Instant::now();
            let d = detector.detect(image);
            (d, t.elapsed().as_secs_f64() * 1e3)
        };
        let det_done = det_override.is_some();
        let ((loc_result, loc_ms), (detections, det_ms)) =
            if ctrl.skip_detection || ctrl.skip_localization || det_done {
                let loc = if ctrl.skip_localization {
                    let lost = LocalizeResult {
                        pose: None,
                        outcome: LocalizeOutcome::Lost,
                        cost: LocCost::default(),
                    };
                    (lost, 0.0)
                } else {
                    run_loc(localizer)
                };
                let det = if ctrl.skip_detection {
                    (Vec::new(), 0.0)
                } else if let Some(d) = det_override {
                    (d, 0.0)
                } else {
                    run_det(detector)
                };
                (loc, det)
            } else {
                self.runtime.join(move || run_loc(localizer), move || run_det(detector))
            };

        // Step 1c: tracking.
        let tra_sp = adsim_trace::span("stage.tra");
        let t = Instant::now();
        let mut tracks = self.pool.step(image, &detections);
        if let Some((dx, dy)) = ctrl.track_shift {
            for tr in &mut tracks {
                tr.bbox.cx = (tr.bbox.cx + dx).clamp(0.0, 1.0);
                tr.bbox.cy = (tr.bbox.cy + dy).clamp(0.0, 1.0);
            }
        }
        let tra_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(tra_sp);

        // Step 2: fusion onto the world frame.
        let pose = loc_result
            .pose
            .or(ctrl.pose_fallback)
            .or(self.localizer.pose())
            .unwrap_or_default();
        let fus_sp = adsim_trace::span("stage.fusion");
        let t = Instant::now();
        let rows: Vec<_> = tracks.iter().map(|tr| (tr.track_id, tr.class, tr.bbox)).collect();
        let fused = self.fusion.fuse_with(&self.runtime, &self.camera, pose, time_s, &rows);
        let fus_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(fus_sp);

        // Step 3: motion planning.
        let mot_sp = adsim_trace::span("stage.motplan");
        let t = Instant::now();
        let plan = self.motion.plan(&fused);
        let mot_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(mot_sp);

        self.frames += 1;

        NativeFrameResult {
            latency: FrameLatency {
                detection: det_ms,
                tracking: tra_ms,
                localization: loc_ms,
                fusion: fus_ms,
                motion_planning: mot_ms,
            },
            detections,
            pose: loc_result.pose,
            tracks,
            fused,
            plan,
        }
    }
}

/// A deep copy of a [`NativePipeline`]'s cross-frame mutable state,
/// captured by [`NativePipeline::snapshot`]. The recovery layer wraps
/// it (with the supervisor's own state) into a pipeline checkpoint.
#[derive(Clone)]
pub(crate) struct PipelineSnapshot {
    localizer: Localizer,
    pool: adsim_perception::TrackerPoolSnapshot,
    fusion: FusionEngine,
    motion: MotionPlanner,
    frames: u64,
}

impl PipelineSnapshot {
    /// Rough size of the snapshot's dynamic state in bytes: map-overlay
    /// landmarks plus live trackers. Deterministic (counts only — no
    /// allocator introspection), so benches can report it exactly.
    pub(crate) fn approx_bytes(&self) -> usize {
        const LANDMARK_BYTES: usize = 48; // world point + 256-bit descriptor
        const TRACKER_BYTES: usize = 1_200; // crop/template + box + row
        std::mem::size_of::<Self>()
            + self.localizer.map().overlay().len() * LANDMARK_BYTES
            + self.pool.len() * TRACKER_BYTES
    }
}

impl std::fmt::Debug for PipelineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineSnapshot")
            .field("frames", &self.frames)
            .field("tracks", &self.pool.len())
            .finish()
    }
}

/// Builds a prior map of a synthetic world by sweeping mapping poses
/// and back-projecting extracted ORB features — the offline mapping
/// pass a real deployment performs before the prior map is loaded onto
/// the vehicle (§2.4.3).
pub fn build_prior_map(
    world: &World,
    camera: &OrthoCamera,
    mapping_poses: impl IntoIterator<Item = Pose2>,
    orb_features: usize,
    fast_threshold: u8,
) -> PriorMap {
    let orb = OrbExtractor::new(orb_features, fast_threshold).with_levels(2);
    let mut map = PriorMap::empty();
    for pose in mapping_poses {
        // Map the static world only (objects move; landmarks persist).
        let frame = world.render(camera, &pose, -1_000.0);
        for f in orb.extract(&frame) {
            let w = camera.image_to_world(&pose, f.keypoint.x as f64, f.keypoint.y as f64);
            let dup = map
                .near(w, 0.5)
                .iter()
                .any(|lm| lm.descriptor.hamming(&f.descriptor) < 32);
            if !dup {
                map.insert_new(w, f.descriptor);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_workload::{Resolution, Scenario, ScenarioKind};

    fn pipeline_for(scenario: &Scenario, res: Resolution) -> NativePipeline {
        let camera = scenario.camera(res);
        // Mapping sweep along the first 40 s of trajectory, plus
        // lateral offsets for coverage.
        let poses = (0..40)
            .flat_map(|i| {
                let p = scenario.pose_at(i * 10);
                [p, Pose2::new(p.x, p.y + 25.0, p.theta), Pose2::new(p.x, p.y - 25.0, p.theta)]
            })
            .collect::<Vec<_>>();
        let map = build_prior_map(scenario.world(), &camera, poses, 300, 25);
        let mut pipe = NativePipeline::new(camera, map, NativePipelineConfig::default());
        pipe.seed_pose(scenario.pose_at(0));
        pipe
    }

    #[test]
    fn processes_an_urban_drive_end_to_end() {
        let scenario = Scenario::new(ScenarioKind::UrbanDrive, 11);
        let mut pipe = pipeline_for(&scenario, Resolution::Hhd);
        let mut localized = 0;
        let mut planned = 0;
        for frame in scenario.stream(Resolution::Hhd).take(10) {
            let out = pipe.process(&frame.image, frame.time_s);
            if let Some(pose) = out.pose {
                let err = pose.distance(&frame.truth_pose);
                assert!(err < 3.0, "frame {}: pose error {err:.2} m", frame.index);
                localized += 1;
            }
            if !matches!(out.plan, MotionPlan::EmergencyStop) {
                planned += 1;
            }
            assert!(out.latency.end_to_end() > 0.0);
        }
        assert!(localized >= 7, "localized {localized}/10 frames");
        // Dense urban clutter legitimately forces occasional
        // emergency stops; most frames must still produce a plan.
        assert!(planned >= 4, "planned {planned}/10 frames");
    }

    #[test]
    fn tracker_table_follows_detections() {
        let scenario = Scenario::new(ScenarioKind::UrbanDrive, 13);
        let mut pipe = pipeline_for(&scenario, Resolution::Hhd);
        let mut saw_tracks = false;
        for frame in scenario.stream(Resolution::Hhd).take(8) {
            let out = pipe.process(&frame.image, frame.time_s);
            if !out.tracks.is_empty() {
                saw_tracks = true;
                // Fused objects correspond 1:1 to tracks.
                assert_eq!(out.fused.objects.len(), out.tracks.len());
            }
        }
        assert!(saw_tracks, "urban scenario should yield tracked objects");
    }

    #[test]
    fn yolo_detector_variant_runs() {
        let scenario = Scenario::new(ScenarioKind::ParkingLot, 5);
        let camera = scenario.camera(Resolution::Hhd);
        let map = build_prior_map(
            scenario.world(),
            &camera,
            (0..5).map(|i| scenario.pose_at(i * 20)),
            200,
            25,
        );
        let cfg = NativePipelineConfig {
            detector: DetectorKind::Yolo { grid: 6, threshold: 0.6 },
            ..Default::default()
        };
        let mut pipe = NativePipeline::new(camera, map, cfg);
        pipe.seed_pose(scenario.pose_at(0));
        let frame = scenario.stream(Resolution::Hhd).next().unwrap();
        let out = pipe.process(&frame.image, frame.time_s);
        assert!(out.latency.detection > 0.0);
    }
}
