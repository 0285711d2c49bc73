//! The single-vehicle closed loop: untraced passes for the end-to-end
//! metrics, and the traced pass in which the benchmark builds every
//! stage through its public constructor and drives the Fig. 1 dataflow
//! itself, one span per call.

use crate::catalog::WARMUP_FRAMES;
use crate::estimate::{best_pass_percentile, mean, median, min, percentile, samples_beyond};
use crate::host;
use crate::report::{Failures, Metrics};
use crate::spans::{Recorder, SpanId};
use crate::world::{Vehicle, World};
use adsim_core::{DetectorKind, FrameLatency, NativeFrameResult, TrackerKind};
use adsim_dnn::detection::Detection;
use adsim_dnn::models::{goturn_tiny_shared, yolo_tiny_shared};
use adsim_dnn::Network;
use adsim_guard::Hasher;
use adsim_perception::{
    BlobDetector, Detector, GoturnTracker, TemplateTracker, TrackedObject, Tracker, TrackerPool,
    YoloDetector,
};
use adsim_planning::{FusionEngine, MotionPlan, MotionPlanner};
use adsim_runtime::Runtime;
use adsim_slam::Localizer;
use adsim_vision::{GrayImage, OrbExtractor, OrthoCamera, Pose2};
use std::time::Instant;

/// The paper's frame budget (ms).
const DEADLINE_MS: f64 = 100.0;

/// Every `PROBE_STRIDE`-th traced frame also runs the probes (each
/// stage alone on the frame's exact input), which doubles that
/// frame's cost.
const PROBE_STRIDE: usize = 4;

/// Frames of the auxiliary traced-mode pass (supervisor overhead,
/// `TraceSession` overhead), each processed by three vehicles.
const AUX_FRAMES: usize = 24;

/// The deterministic outputs of one frame — pose, track and plan bits,
/// as `bench_trace` signs them, plus the detections.
pub fn frame_digest(
    detections: &[Detection],
    pose: Option<Pose2>,
    tracks: &[TrackedObject],
    plan: &MotionPlan,
) -> u64 {
    let mut h = Hasher::new();
    for d in detections {
        h.f32s(&[d.bbox.cx, d.bbox.cy, d.bbox.w, d.bbox.h, d.score]);
        h.word(d.class.index() as u64);
    }
    h.word(detections.len() as u64);
    match pose {
        Some(p) => {
            for bits in [1, p.x.to_bits(), p.y.to_bits(), p.theta.to_bits()] {
                h.word(bits);
            }
        }
        None => h.word(0),
    }
    for t in tracks {
        h.word(t.track_id);
        h.word(t.class.index() as u64);
        h.f32s(&[t.bbox.cx, t.bbox.cy, t.bbox.w, t.bbox.h]);
        h.word(t.frames_missing as u64);
        h.word(t.age);
    }
    h.word(tracks.len() as u64);
    h.word(match plan {
        MotionPlan::Trajectory(t) => t.speed_mps.to_bits(),
        MotionPlan::Path(_) => 2,
        MotionPlan::EmergencyStop => 3,
    });
    if let Some(wp) = plan.next_waypoint() {
        for bits in [wp.x.to_bits(), wp.y.to_bits(), wp.theta.to_bits()] {
            h.word(bits);
        }
    }
    h.finish().0
}

fn digest_of(out: &NativeFrameResult) -> u64 {
    frame_digest(&out.detections, out.pose, &out.tracks, &out.plan)
}

/// One untraced pass over the timed frames.
pub struct Pass {
    pub ms: Vec<f64>,
    pub cpu_ms: f64,
    pub digests: Vec<u64>,
    pub latency: Vec<FrameLatency>,
    pub lost: usize,
    /// When the warm-up ended.
    pub timed_from: Instant,
}

impl Pass {
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// Drives `vehicle` over `frames` timed frames. Wall and CPU time are
/// taken around each `process` call only.
pub fn run_pass(world: &World, frames: usize, vehicle: &mut Vehicle) -> Pass {
    let mut pass = Pass {
        ms: Vec::with_capacity(frames),
        cpu_ms: 0.0,
        digests: Vec::with_capacity(frames),
        latency: Vec::with_capacity(frames),
        lost: 0,
        timed_from: Instant::now(),
    };
    world.drive(frames, |timed, image, time_s| {
        let cpu = host::cpu_ms();
        let t = Instant::now();
        let out = vehicle.process(image, time_s);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if timed.is_some() {
            pass.cpu_ms += host::cpu_ms() - cpu;
            pass.ms.push(ms);
            pass.digests.push(digest_of(&out));
            pass.lost += out.pose.is_none() as usize;
            pass.latency.push(out.latency);
        } else {
            pass.timed_from = Instant::now();
        }
    });
    pass
}

/// The untraced vehicle passes of one run and what they say.
pub struct VehicleRuns {
    pub passes: Vec<Pass>,
}

impl VehicleRuns {
    /// `passes` fresh vehicles, each over `frames` timed frames.
    pub fn run(world: &World, frames: usize, passes: usize) -> VehicleRuns {
        let passes = (0..passes)
            .map(|_| run_pass(world, frames, &mut world.vehicle()))
            .collect();
        VehicleRuns { passes }
    }

    pub fn frames(&self) -> usize {
        self.passes[0].ms.len()
    }

    /// One op = one timed frame. A frame fails when it is not
    /// delivered, loses the pose on this fault-free drive, or differs
    /// from pass 0.
    pub fn check(&self, failures: &mut Failures) {
        let reference = &self.passes[0];
        for (p, pass) in self.passes.iter().enumerate() {
            failures.attempt(self.frames() as u64);
            failures.fail(pass.lost as u64, || {
                format!("pass {p}: {} frames lost the pose", pass.lost)
            });
            let short = self.frames() - pass.digests.len().min(self.frames());
            failures.fail(short as u64, || {
                format!("pass {p}: {short} frames not delivered")
            });
            let differ = pass
                .digests
                .iter()
                .zip(&reference.digests)
                .filter(|(a, b)| a != b)
                .count();
            failures.fail(differ as u64, || {
                format!("pass {p}: {differ} frame digests differ from pass 0")
            });
        }
    }

    /// `frame_ms_p50`/`frame_ms_p90`: each pass's percentile over its
    /// frames, then the best pass. Host interference arrives in phases
    /// of seconds to minutes, so a pass is the unit that is clean or
    /// not; stitching indices from different passes made p90 jumpier.
    pub fn frame_metrics(&self, metrics: &mut Metrics) {
        let per_pass: Vec<Vec<f64>> = self.passes.iter().map(|p| p.ms.clone()).collect();
        let raw = per_pass.concat();
        metrics.put(
            "frame_ms_p50",
            best_pass_percentile(&per_pass, 0.5),
            self.frames(),
        );
        metrics.put(
            "frame_ms_p90",
            best_pass_percentile(&per_pass, 0.9),
            self.frames(),
        );
        metrics.note(format!(
            "frame_ms: {} frames x {} passes = {} raw samples; pooled raw p50 {:.3} ms, p90 {:.3} ms; \
             {} samples beyond a pass's p90",
            self.frames(),
            self.passes.len(),
            raw.len(),
            median(&raw),
            percentile(&raw, 0.9),
            samples_beyond(self.frames(), 0.9),
        ));
    }

    /// `frames_per_s` and `cpu_ms_per_frame` of the vehicle loop (the
    /// `urban_*` definitions): best pass each.
    pub fn loop_metrics(&self, metrics: &mut Metrics) {
        let n = self.frames() as f64;
        let best_ms = min(&self.passes.iter().map(Pass::total_ms).collect::<Vec<_>>());
        let best_cpu = min(&self.passes.iter().map(|p| p.cpu_ms).collect::<Vec<_>>());
        metrics.put("frames_per_s", n / (best_ms / 1e3), self.passes.len());
        metrics.put("cpu_ms_per_frame", best_cpu / n, self.passes.len());
    }
}

/// The Fig. 1 dataflow, rebuilt from public constructors with the same
/// thread budget `NativePipeline::new` hands each stage.
struct Rig {
    camera: OrthoCamera,
    runtime: Runtime,
    localizer: Localizer,
    detector: Box<dyn Detector + Send>,
    pool: TrackerPool,
    fusion: FusionEngine,
    motion: MotionPlanner,
    /// The extractor the localizer owns a copy of, for the ORB probe.
    orb: OrbExtractor,
    /// The detector's network, input side and runtime, for the forward
    /// probe (DNN detector only).
    yolo: Option<(Network, usize, Runtime)>,
    /// Bytes one detector forward moves (0 without a DNN detector).
    det_bytes: u64,
    /// FLOPs and bytes of one GOTURN update (DNN tracker only).
    goturn_cost: Option<(u64, u64)>,
}

impl Rig {
    fn new(world: &World) -> Rig {
        let cfg = world.pipeline.clone();
        let camera = world.assets.camera();
        let stage_rt = Runtime::new(cfg.runtime.threads().saturating_sub(1).max(1));
        let orb = OrbExtractor::new(cfg.orb_features, cfg.fast_threshold)
            .with_levels(2)
            .with_runtime(stage_rt);
        let (detector, yolo): (Box<dyn Detector + Send>, _) = match cfg.detector {
            DetectorKind::Blob => (Box::new(BlobDetector::new()), None),
            DetectorKind::Yolo { grid, threshold } => (
                Box::new(YoloDetector::new(grid, threshold).with_runtime(stage_rt)),
                Some((yolo_tiny_shared(grid), 8 * grid, stage_rt)),
            ),
        };
        let (pool, goturn_cost) = match cfg.tracker {
            TrackerKind::Template => (
                TrackerPool::new(cfg.tracker_pool, |frame, bbox| {
                    Box::new(TemplateTracker::new(frame, bbox)) as Box<dyn Tracker>
                }),
                None,
            ),
            TrackerKind::Goturn => {
                let cost = goturn_tiny_shared().cost().expect("built network").total;
                (
                    TrackerPool::new(cfg.tracker_pool, |frame, bbox| {
                        Box::new(GoturnTracker::new(frame, bbox)) as Box<dyn Tracker>
                    }),
                    Some((cost.flops, cost.total_bytes())),
                )
            }
        };
        let det_bytes = yolo
            .as_ref()
            .map_or(0, |(net, ..): &(Network, usize, Runtime)| {
                net.cost().expect("built network").total.total_bytes()
            });
        let mut localizer =
            Localizer::new(world.assets.map(), camera, orb, cfg.localizer).with_runtime(stage_rt);
        localizer.seed_pose(world.assets.scenario().pose_at(0));
        Rig {
            camera,
            runtime: cfg.runtime,
            localizer,
            detector,
            pool: pool.with_runtime(cfg.runtime),
            fusion: FusionEngine::new(),
            motion: MotionPlanner::new(cfg.environment, cfg.cruise_mps).with_runtime(cfg.runtime),
            orb,
            yolo,
            det_bytes,
            goturn_cost,
        }
    }

    /// One frame through DET || LOC -> TRA -> FUS -> MOT, a span per
    /// call and counts at the same boundaries.
    fn step(
        &mut self,
        rec: &mut Recorder,
        root: SpanId,
        frame: u64,
        image: &GrayImage,
        time_s: f64,
    ) -> u64 {
        let pipeline_span = rec.open("core.pipeline_frame", Some(root), frame);

        let fork = rec.open("runtime.fork", Some(pipeline_span), frame);
        let (localizer, detector) = (&mut self.localizer, &mut self.detector);
        let ((loc, loc_at), (detections, det_at)) = self.runtime.join(
            move || {
                let t = Instant::now();
                let r = localizer.localize(image);
                (r, (t, Instant::now()))
            },
            move || {
                let t = Instant::now();
                let d = detector.detect(image);
                (d, (t, Instant::now()))
            },
        );
        rec.close(fork);
        let loc_span = rec.add("slam.localize", Some(fork), frame, loc_at.0, loc_at.1);
        rec.count(loc_span, "features", loc.cost.features as f64);
        let det_span = rec.add("perception.detect", Some(fork), frame, det_at.0, det_at.1);
        rec.count(det_span, "detections", detections.len() as f64);
        let det_flops = self.detector.last_cost().dnn_flops;

        let updated = self.pool.active();
        let (tra_span, tracks) = rec.time("perception.track", Some(pipeline_span), frame, || {
            self.pool.step(image, &detections)
        });
        rec.count(tra_span, "updated", updated as f64);
        rec.count(tra_span, "tracks", tracks.len() as f64);
        let (goturn_flops, goturn_bytes) = self.goturn_cost.unwrap_or((0, 0));
        rec.count(
            pipeline_span,
            "dnn_flops",
            (det_flops + updated as u64 * goturn_flops) as f64,
        );
        rec.count(
            pipeline_span,
            "dnn_bytes",
            (self.det_bytes + updated as u64 * goturn_bytes) as f64,
        );

        let pose = loc.pose.or(self.localizer.pose()).unwrap_or_default();
        let (_, fused) = rec.time("planning.fuse", Some(pipeline_span), frame, || {
            let rows: Vec<_> = tracks
                .iter()
                .map(|t| (t.track_id, t.class, t.bbox))
                .collect();
            self.fusion
                .fuse_with(&self.runtime, &self.camera, pose, time_s, &rows)
        });
        let (_, plan) = rec.time("planning.plan", Some(pipeline_span), frame, || {
            self.motion.plan(&fused)
        });
        rec.close(pipeline_span);

        frame_digest(&detections, loc.pose, &tracks, &plan)
    }

    /// Each stage of the fork alone on this frame's exact input, and
    /// each stage's child alone, so parent self time is a subtraction
    /// of two uncontended measurements. `localizer` is the clone taken
    /// before the frame ran.
    fn probe(
        &mut self,
        rec: &mut Recorder,
        root: SpanId,
        frame: u64,
        image: &GrayImage,
        mut localizer: Localizer,
    ) {
        rec.time("probe.detect_alone", Some(root), frame, || {
            self.detector.detect(image)
        });
        if let Some((net, side, rt)) = &self.yolo {
            let input = image.resize(*side, *side).to_tensor();
            rec.time("probe.dnn_forward", Some(root), frame, || {
                net.forward_with(rt, &input)
                    .expect("yolo_tiny accepts its own input shape")
            });
        }
        rec.time("probe.localize_alone", Some(root), frame, || {
            localizer.localize(image)
        });
        let orb = self.orb;
        rec.time("probe.orb_extract", Some(root), frame, || {
            orb.extract(image)
        });
    }
}

fn frame_wall(l: &FrameLatency) -> f64 {
    l.detection.max(l.localization) + l.tracking + l.fusion + l.motion_planning
}

/// The traced single-vehicle run: a reference pass through
/// `NativePipeline::process`, the recomposed pass with spans, and the
/// auxiliary pass. Fills every per-layer metric that a vehicle can
/// measure and returns the recorder for the span file.
pub fn trace(
    world: &World,
    frames: usize,
    metrics: &mut Metrics,
    failures: &mut Failures,
) -> Recorder {
    let reference = run_pass(
        world,
        frames,
        &mut Vehicle::Bare(Box::new(world.bare_pipeline())),
    );
    let pipeline_self = reference_metrics(&reference, metrics);

    // The recomposed pass must sign every frame as the real pipeline
    // did, or the spans time something other than the real computation.
    let mut rec = Recorder::new();
    let (digests, localizer) = recomposed_pass(world, frames, &mut rec);
    failures.attempt(frames as u64);
    let differ = digests
        .iter()
        .zip(&reference.digests)
        .filter(|(a, b)| a != b)
        .count();
    failures.fail(differ as u64, || {
        format!("traced recomposition: {differ} frame digests differ from NativePipeline::process")
    });
    let stats = localizer.stats();
    metrics.put("slam.relocalizations", stats.relocalizations as f64, frames);
    metrics.put("slam.lost_frames", stats.lost as f64, frames);

    span_metrics(&rec, world, &reference, &pipeline_self, metrics);
    aux_passes(world, frames.min(AUX_FRAMES), metrics, failures);
    rec
}

/// What the untraced reference pass says through the public
/// `NativeFrameResult::latency`. Returns each frame's pipeline self
/// time (frame - max(det, loc) - tra - fus - mot).
fn reference_metrics(reference: &Pass, metrics: &mut Metrics) -> Vec<f64> {
    let frames = reference.ms.len();
    let total = reference.total_ms();
    let stage =
        |f: fn(&FrameLatency) -> f64| -> Vec<f64> { reference.latency.iter().map(f).collect() };
    let (det, tra, loc) = (
        stage(|l| l.detection),
        stage(|l| l.tracking),
        stage(|l| l.localization),
    );
    for (name, values) in [
        ("core.stage_share.det", &det),
        ("core.stage_share.tra", &tra),
        ("core.stage_share.loc", &loc),
        ("core.stage_share.fus", &stage(|l| l.fusion)),
        ("core.stage_share.mot", &stage(|l| l.motion_planning)),
    ] {
        metrics.put(name, values.iter().sum::<f64>() / total, frames);
    }
    let pipeline_self: Vec<f64> = reference
        .ms
        .iter()
        .zip(&reference.latency)
        .map(|(ms, l)| ms - frame_wall(l))
        .collect();
    metrics.put("core.pipeline_self_ms", median(&pipeline_self), frames);
    let missed = reference.ms.iter().filter(|ms| **ms > DEADLINE_MS).count();
    metrics.put(
        "core.deadline_miss_share",
        missed as f64 / frames as f64,
        frames,
    );
    metrics.put("runtime.cpu_over_wall", reference.cpu_ms / total, frames);
    let (det, tra, loc) = (median(&det), median(&tra), median(&loc));
    metrics.note(format!(
        "Fig. 6 ordering DET > TRA > LOC on reference medians ({det:.2} / {tra:.2} / {loc:.2} ms): {}",
        if det > tra && tra > loc { "holds" } else { "does not hold" },
    ));
    pipeline_self
}

/// Drives the rig over the warm-up and `frames` timed frames, probing
/// every [`PROBE_STRIDE`]-th timed frame. Returns the timed frames'
/// digests and the localizer (for its lifetime counters).
fn recomposed_pass(world: &World, frames: usize, rec: &mut Recorder) -> (Vec<u64>, Localizer) {
    let mut rig = Rig::new(world);
    let mut digests = Vec::with_capacity(frames);
    let mut stream = world.assets.scenario().stream(world.resolution());
    for i in 0..WARMUP_FRAMES + frames {
        let fid = i as u64;
        let root = rec.open("bench.frame", None, fid);
        let (_, f) = rec.time("workload.render", Some(root), fid, || {
            stream.next().expect("frame streams are endless")
        });
        let timed = i.checked_sub(WARMUP_FRAMES);
        let probe = timed.is_some_and(|t| t.is_multiple_of(PROBE_STRIDE));
        let before = probe.then(|| rig.localizer.clone());
        let digest = rig.step(rec, root, fid, &f.image, f.time_s);
        if let Some(localizer) = before {
            rig.probe(rec, root, fid, &f.image, localizer);
        }
        rec.close(root);
        if timed.is_some() {
            digests.push(digest);
        }
    }
    (digests, rig.localizer)
}

/// The per-layer metrics read off the recomposed pass's spans. Only
/// the timed frames' spans count.
fn span_metrics(
    rec: &Recorder,
    world: &World,
    reference: &Pass,
    pipeline_self: &[f64],
    metrics: &mut Metrics,
) {
    let frames = reference.ms.len();
    let first_timed = WARMUP_FRAMES as u64;
    let timed_ms = |name: &str| -> Vec<f64> {
        rec.named(name)
            .filter(|s| s.frame >= first_timed)
            .map(|s| s.dur_ms())
            .collect()
    };
    let timed_counts = |name: &str, key: &str| -> Vec<f64> {
        rec.named(name)
            .filter(|s| s.frame >= first_timed)
            .filter_map(|s| s.count(key))
            .collect()
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();

    metrics.put(
        "workload.render_ms",
        mean(&timed_ms("workload.render")),
        frames,
    );
    let track = timed_ms("perception.track");
    metrics.put(
        "perception.detect_ms",
        median(&timed_ms("perception.detect")),
        frames,
    );
    metrics.put("perception.track_ms", median(&track), frames);
    let updated = sum(&timed_counts("perception.track", "updated"));
    metrics.put(
        "perception.track_ms_per_track",
        if updated > 0.0 {
            sum(&track) / updated
        } else {
            0.0
        },
        updated as usize,
    );
    for (name, span, key) in [
        (
            "perception.detections_per_frame",
            "perception.detect",
            "detections",
        ),
        ("perception.tracks_per_frame", "perception.track", "tracks"),
        ("vision.features_per_frame", "slam.localize", "features"),
        ("dnn.flops_per_frame", "core.pipeline_frame", "dnn_flops"),
        ("dnn.bytes_per_frame", "core.pipeline_frame", "dnn_bytes"),
    ] {
        metrics.put(name, mean(&timed_counts(span, key)), frames);
    }
    metrics.put(
        "slam.localize_ms",
        median(&timed_ms("slam.localize")),
        frames,
    );
    metrics.put(
        "planning.fuse_ms",
        median(&timed_ms("planning.fuse")),
        frames,
    );
    metrics.put(
        "planning.plan_ms",
        median(&timed_ms("planning.plan")),
        frames,
    );

    // Probe frames: uncontended parent minus uncontended child.
    let det_alone = timed_ms("probe.detect_alone");
    let loc_alone = timed_ms("probe.localize_alone");
    let orb_alone = timed_ms("probe.orb_extract");
    let forward_alone = timed_ms("probe.dnn_forward");
    let probes = det_alone.len();
    let det_self: Vec<f64> = if forward_alone.is_empty() {
        det_alone.clone()
    } else {
        det_alone
            .iter()
            .zip(&forward_alone)
            .map(|(d, f)| d - f)
            .collect()
    };
    metrics.put("perception.detect_self_ms", median(&det_self), probes);
    let loc_self: Vec<f64> = loc_alone
        .iter()
        .zip(&orb_alone)
        .map(|(l, o)| l - o)
        .collect();
    metrics.put("slam.localize_self_ms", median(&loc_self), probes);
    metrics.put("vision.orb_extract_ms", median(&orb_alone), probes);
    let pixels = world.resolution().pixels() as f64;
    metrics.put(
        "vision.orb_ns_per_pixel",
        median(&orb_alone) * 1e6 / pixels,
        probes,
    );
    let probed_forks = rec.named("runtime.fork").filter(|s| {
        s.frame >= first_timed && ((s.frame - first_timed) as usize).is_multiple_of(PROBE_STRIDE)
    });
    let efficiency: Vec<f64> = det_alone
        .iter()
        .zip(&loc_alone)
        .zip(probed_forks)
        .map(|((d, l), fork)| d.max(*l) / fork.dur_ms())
        .collect();
    metrics.put("runtime.fork_efficiency", median(&efficiency), probes);

    let traced_total = sum(&timed_ms("core.pipeline_frame"));
    metrics.put(
        "bench.trace_overhead_share",
        traced_total / reference.total_ms() - 1.0,
        frames,
    );
    let stages: f64 = [
        "runtime.fork",
        "perception.track",
        "planning.fuse",
        "planning.plan",
    ]
    .iter()
    .map(|name| sum(&timed_ms(name)))
    .sum();
    metrics.note(format!(
        "traced frame accounting: stage spans + core.pipeline_self_ms cover {:.1}% of the traced frame",
        (stages + sum(pipeline_self)) / traced_total * 100.0
    ));
}

/// Supervisor overhead, checkpoint/restore cost, and what `adsim-trace`
/// costs when on. Three vehicles — bare, supervised with faults off,
/// bare inside a `TraceSession` — take every frame one after another
/// in rotating order, so host drift hits all three alike and the
/// differences are paired per frame.
fn aux_passes(world: &World, frames: usize, metrics: &mut Metrics, failures: &mut Failures) {
    const BARE: usize = 0;
    const SUPERVISED: usize = 1;
    const TRACED: usize = 2;
    let mut vehicles = [
        Vehicle::Bare(Box::new(world.bare_pipeline())),
        Vehicle::Supervised(Box::new(world.supervisor())),
        Vehicle::Bare(Box::new(world.bare_pipeline())),
    ];
    let mut ms: [Vec<f64>; 3] = Default::default();
    let mut differ = [0u64; 3];
    world.drive(frames, |timed, image, time_s| {
        let mut digests = [0u64; 3];
        for turn in 0..3 {
            let who = (turn + timed.unwrap_or(0)) % 3;
            let session = (who == TRACED).then(adsim_trace::TraceSession::begin);
            let t = Instant::now();
            let out = vehicles[who].process(image, time_s);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            drop(session.map(adsim_trace::TraceSession::finish));
            digests[who] = digest_of(&out);
            if timed.is_some() {
                ms[who].push(elapsed);
            }
        }
        for who in [SUPERVISED, TRACED] {
            differ[who] += (timed.is_some() && digests[who] != digests[BARE]) as u64;
        }
    });
    failures.attempt(2 * frames as u64);
    failures.fail(differ[SUPERVISED], || {
        format!(
            "fault-free supervisor: {} digests differ from the bare pipeline",
            differ[SUPERVISED]
        )
    });
    failures.fail(differ[TRACED], || {
        format!(
            "TraceSession: {} digests differ from the untraced pipeline",
            differ[TRACED]
        )
    });
    let [bare_ms, supervised_ms, traced_ms] = &ms;
    let paired: Vec<f64> = supervised_ms
        .iter()
        .zip(bare_ms)
        .map(|(s, b)| s - b)
        .collect();
    metrics.put("core.supervisor_overhead_ms", median(&paired), frames);
    let total = |v: &[f64]| v.iter().sum::<f64>();
    metrics.put(
        "trace.overhead_share",
        total(traced_ms) / total(bare_ms) - 1.0,
        frames,
    );

    let [_, Vehicle::Supervised(mut sup), _] = vehicles else {
        unreachable!("the second vehicle was built supervised")
    };
    const REPS: usize = 9;
    let mut checkpoint_ms = Vec::with_capacity(REPS);
    let mut restore_ms = Vec::with_capacity(REPS);
    let mut bytes = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let ck = std::hint::black_box(sup.checkpoint());
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = ck.approx_bytes();
        let t = Instant::now();
        sup.restore(&ck);
        restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    metrics.put("core.checkpoint_ms", median(&checkpoint_ms), REPS);
    metrics.put("core.checkpoint_bytes", bytes as f64, 1);
    metrics.put("core.restore_ms", median(&restore_ms), REPS);
}

/// `runtime.region_overhead_us`: an empty two-way join, i.e. what one
/// fork costs before any work is in it.
pub fn region_overhead(metrics: &mut Metrics) {
    const REPS: usize = 400;
    let rt = Runtime::new(crate::world::THREADS);
    let mut us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(rt.join(|| std::hint::black_box(1), || std::hint::black_box(2)));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    metrics.put("runtime.region_overhead_us", median(&us), REPS);
}
