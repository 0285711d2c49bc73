//! Stage-boundary invariant monitors.
//!
//! Each monitor checks one hand-off of the Fig. 1 pipeline against an
//! invariant the downstream stage silently assumes:
//!
//! | monitor | boundary | invariant |
//! |---|---|---|
//! | detection sanity | DET → TRA | boxes inside the frame, finite scores, NMS overlap bound |
//! | tracker consistency | TRA → fusion | inter-frame box displacement bounded by ego motion |
//! | localization residual | LOC → fusion | pose delta within the kinematic envelope, sane timestamps |
//! | planner envelope | MOT → control | drivable curvature, bounded accel, obstacle clearance |
//!
//! Thresholds are deliberately generous: a monitor that trips on the
//! clean pipeline is worse than no monitor, because the supervisor
//! acts on trips. `tests/guard.rs` pins that a fault-free urban drive
//! produces zero trips while the PR 2 stress campaign produces many.

use adsim_dnn::detection::Detection;
use adsim_perception::TrackedObject;
use adsim_planning::{FusedFrame, MotionPlan};
use adsim_vision::{geometry::normalize_angle, Pose2};

/// Allowed box-center excursion outside `[0, 1]`.
const BBOX_MARGIN: f32 = 0.05;
/// Max IoU two surviving same-class detections may share. The detector
/// suppresses at 0.5; the bound adds slack so boundary rounding never
/// trips it.
const NMS_IOU_BOUND: f32 = 0.65;
/// Base allowed inter-frame track displacement (normalized units).
const TRACK_JUMP_BASE: f64 = 0.20;
/// Additional allowed displacement per meter of ego motion.
const TRACK_JUMP_PER_M: f64 = 0.05;
/// Kinematic envelope: max plausible vehicle speed (m/s).
pub(crate) const MAX_SPEED_MPS: f64 = 40.0;
/// Envelope slack absorbing localization jitter (m). Two consecutive
/// estimates can each carry meters of independent error, so the slack
/// covers twice the worst clean-pipeline residual.
const POSE_SLACK_M: f64 = 4.0;
/// Minimum plausible inter-frame timestamp delta (s).
const MIN_DT_S: f64 = 1e-6;
/// Maximum plausible inter-frame timestamp delta (s).
pub(crate) const MAX_DT_S: f64 = 0.5;
/// Max heading change between consecutive planned poses (rad). One
/// heading increment of the 16-heading lattice is 2π/16 ≈ 0.39 rad;
/// give headroom over both planners.
const MAX_TURN_PER_STEP: f64 = 0.5;
/// Max commanded-speed *surge* per second (m/s²); braking is
/// unbounded. The bound sits far above the IDM's accel parameter
/// because the commanded speed rides on the fused ego-speed estimate,
/// whose differencing jitter aliases into apparent acceleration.
const MAX_ACCEL_MPS2: f64 = 50.0;
/// Required obstacle clearance as a fraction of the obstacle's fused
/// collision radius.
const CLEARANCE_FRAC: f64 = 0.4;
/// How far into the trajectory the clearance check looks (s). Beyond
/// ~1 s the guard's constant-velocity obstacle prediction and the
/// planner's Frenet model diverge enough to false-trip.
const CLEARANCE_HORIZON_S: f64 = 1.0;

/// Which monitor raised a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monitor {
    /// Detection sanity (DET → TRA boundary).
    Detection,
    /// Tracker consistency (TRA → fusion boundary).
    Tracker,
    /// Localization residual (LOC → fusion boundary).
    Localization,
    /// Planner safety envelope (MOT → control boundary).
    Planner,
    /// Checksummed data plane (sensor → DET boundary).
    DataPlane,
}

impl std::fmt::Display for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Monitor::Detection => "detection",
            Monitor::Tracker => "tracker",
            Monitor::Localization => "localization",
            Monitor::Planner => "planner",
            Monitor::DataPlane => "data-plane",
        };
        f.write_str(s)
    }
}

/// One violated invariant, with enough context to debug the trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Violation {
    /// A bounding box lies (partly) outside the unit frame beyond the
    /// allowed margin.
    BoxOutOfFrame {
        /// Offending box center x.
        cx: f32,
        /// Offending box center y.
        cy: f32,
    },
    /// A box has a non-positive or over-unit extent.
    DegenerateBox {
        /// Offending width.
        w: f32,
        /// Offending height.
        h: f32,
    },
    /// A detection score is not a finite probability.
    BadScore {
        /// The offending score.
        score: f32,
    },
    /// Two same-class detections overlap beyond the NMS bound — the
    /// suppression stage cannot have run on this list.
    NmsOverlap {
        /// Observed IoU.
        iou: f32,
        /// Configured bound.
        bound: f32,
    },
    /// A persistent track's box jumped farther than ego motion and
    /// plausible object motion allow.
    TrackJump {
        /// Track that jumped.
        track_id: u64,
        /// Center displacement (normalized units).
        dist: f32,
        /// Allowed displacement.
        limit: f32,
    },
    /// The pose estimate is not finite.
    NonFinitePose,
    /// The pose moved faster than the kinematic envelope allows.
    PoseJump {
        /// Translation since the previous accepted pose (m).
        dist_m: f64,
        /// Envelope bound (m).
        limit_m: f64,
    },
    /// The frame timestamp went backwards, repeated, or gapped
    /// implausibly.
    TimestampAnomaly {
        /// Observed inter-frame delta (s).
        dt_s: f64,
    },
    /// A planned trajectory bends sharper than the vehicle can steer.
    InfeasibleTurn {
        /// Observed per-step heading change (rad).
        turn: f64,
        /// Bound (rad).
        limit: f64,
    },
    /// Commanded speed surged faster than the accel envelope (braking
    /// is always allowed — panic deceleration is the safety action).
    InfeasibleAccel {
        /// Observed acceleration (m/s²).
        accel: f64,
        /// Bound (m/s²).
        limit: f64,
    },
    /// Commanded speed is not a finite non-negative number.
    BadSpeed {
        /// The offending speed (m/s).
        speed_mps: f64,
    },
    /// A planned pose passes closer to a predicted obstacle position
    /// than the clearance floor.
    ClearanceViolated {
        /// Observed clearance (m).
        clearance_m: f64,
        /// Required clearance (m).
        required_m: f64,
    },
    /// A delivered buffer's digest does not match the digest computed
    /// at the producing stage.
    DigestMismatch,
    /// The sensor delivered a bit-identical frame twice in a row
    /// (stuck-at sensor).
    StuckSensor,
}

/// Checks the DET → TRA hand-off: every box inside the frame (within
/// `BBOX_MARGIN`), positive sane extents, finite in-range scores,
/// and no same-class pair overlapping beyond `NMS_IOU_BOUND`.
pub(crate) fn check_detections(dets: &[Detection]) -> Vec<Violation> {
    let mut out = Vec::new();
    let m = BBOX_MARGIN;
    for d in dets {
        let b = d.bbox;
        if !(b.cx.is_finite() && b.cy.is_finite() && b.w.is_finite() && b.h.is_finite()) {
            out.push(Violation::DegenerateBox { w: b.w, h: b.h });
            continue;
        }
        if b.cx < -m || b.cx > 1.0 + m || b.cy < -m || b.cy > 1.0 + m {
            out.push(Violation::BoxOutOfFrame { cx: b.cx, cy: b.cy });
        }
        if b.w <= 0.0 || b.h <= 0.0 || b.w > 1.0 + 2.0 * m || b.h > 1.0 + 2.0 * m {
            out.push(Violation::DegenerateBox { w: b.w, h: b.h });
        }
        if !d.score.is_finite() || !(0.0..=1.0).contains(&d.score) {
            out.push(Violation::BadScore { score: d.score });
        }
    }
    for (i, a) in dets.iter().enumerate() {
        for b in &dets[i + 1..] {
            if a.class == b.class {
                let iou = a.bbox.iou(&b.bbox);
                if iou > NMS_IOU_BOUND {
                    out.push(Violation::NmsOverlap { iou, bound: NMS_IOU_BOUND });
                }
            }
        }
    }
    out
}

/// Checks TRA → fusion consistency: a track present in both frames may
/// move at most `TRACK_JUMP_BASE + TRACK_JUMP_PER_M × ego_motion_m`
/// normalized units between frames. Fresh tracks (absent last frame)
/// and re-associations after misses are exempt — only smooth tracked
/// motion is bounded.
pub(crate) fn check_tracks(
    prev: &[TrackedObject],
    curr: &[TrackedObject],
    ego_motion_m: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let limit = (TRACK_JUMP_BASE + TRACK_JUMP_PER_M * ego_motion_m.abs()) as f32;
    for c in curr {
        // Tracks coasting on misses keep their last box; only compare
        // freshly associated updates.
        if c.frames_missing > 0 {
            continue;
        }
        if let Some(p) = prev.iter().find(|p| p.track_id == c.track_id) {
            let dist = p.bbox.center_distance(&c.bbox);
            if dist > limit {
                out.push(Violation::TrackJump { track_id: c.track_id, dist, limit });
            }
        }
    }
    out
}

/// Checks the LOC → fusion residual: the accepted pose must be finite,
/// the timestamp strictly increasing within `[MIN_DT_S, MAX_DT_S]`,
/// and the translation bounded by `MAX_SPEED_MPS × dt + POSE_SLACK_M`.
///
/// `prev` is the previous *accepted* (pose, time) pair; pass `None`
/// on the first frame or after a lock-loss gap (the envelope restarts).
pub(crate) fn check_pose(prev: Option<(Pose2, f64)>, pose: Pose2, time_s: f64) -> Vec<Violation> {
    let mut out = Vec::new();
    if !(pose.x.is_finite() && pose.y.is_finite() && pose.theta.is_finite()) {
        out.push(Violation::NonFinitePose);
        return out;
    }
    let Some((prev_pose, prev_t)) = prev else {
        return out;
    };
    let dt = time_s - prev_t;
    if !dt.is_finite() || !(MIN_DT_S..=MAX_DT_S).contains(&dt) {
        out.push(Violation::TimestampAnomaly { dt_s: dt });
        return out; // A bad clock makes the envelope meaningless.
    }
    let limit_m = MAX_SPEED_MPS * dt + POSE_SLACK_M;
    let dist_m = pose.distance(&prev_pose);
    if dist_m > limit_m {
        out.push(Violation::PoseJump { dist_m, limit_m });
    }
    out
}

/// Checks the planner safety envelope on the emitted plan:
///
/// * the commanded speed is a finite non-negative number;
/// * trajectory/path heading changes per step within
///   `MAX_TURN_PER_STEP` (steering feasibility);
/// * commanded speed may not *surge* faster than `MAX_ACCEL_MPS2`
///   against the previous frame. Only increases are bounded — panic
///   braking is the safety action, never a violation — and frames
///   adjacent to an emergency stop are exempt (the caller passes
///   `prev_speed_mps = None` after a stop);
/// * near-horizon clearance: every trajectory pose within
///   `CLEARANCE_HORIZON_S` keeps `CLEARANCE_FRAC` × the obstacle's
///   fused radius from that obstacle's predicted position at the
///   pose's time, and every free-space path pose keeps the same floor
///   from the obstacle's current position. The fraction and the short
///   horizon absorb the model gap between the planner's Frenet
///   prediction and the guard's Cartesian one.
pub(crate) fn check_plan(
    prev_speed_mps: Option<f64>,
    fused: &FusedFrame,
    plan: &MotionPlan,
    frame_dt_s: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let speed = plan.speed_mps();
    if !speed.is_finite() || speed < 0.0 {
        out.push(Violation::BadSpeed { speed_mps: speed });
    }
    let poses: &[Pose2] = match plan {
        MotionPlan::Trajectory(t) => &t.poses,
        MotionPlan::Path(p) => &p.poses,
        MotionPlan::EmergencyStop => &[],
    };
    for pair in poses.windows(2) {
        let turn = normalize_angle(pair[1].theta - pair[0].theta).abs();
        if turn > MAX_TURN_PER_STEP {
            out.push(Violation::InfeasibleTurn { turn, limit: MAX_TURN_PER_STEP });
            break;
        }
    }
    if let (Some(prev), MotionPlan::Trajectory(_) | MotionPlan::Path(_)) = (prev_speed_mps, plan) {
        let dt = frame_dt_s.max(1e-3);
        let accel = (speed - prev) / dt;
        if accel > MAX_ACCEL_MPS2 {
            out.push(Violation::InfeasibleAccel { accel, limit: MAX_ACCEL_MPS2 });
        }
    }
    let clearance = |pose: &Pose2, horizon_t: f64| -> Option<Violation> {
        for o in &fused.objects {
            let radius = o.extent.0.max(o.extent.1) / 2.0 + 1.0;
            let required_m = CLEARANCE_FRAC * radius;
            let clearance_m = pose.translation().distance(&o.predicted_position(horizon_t));
            if clearance_m < required_m {
                return Some(Violation::ClearanceViolated { clearance_m, required_m });
            }
        }
        None
    };
    match plan {
        MotionPlan::Trajectory(t) => {
            for (k, pose) in t.poses.iter().enumerate() {
                let horizon_t = (k + 1) as f64 * t.dt_s;
                if horizon_t > CLEARANCE_HORIZON_S {
                    break;
                }
                if let Some(v) = clearance(pose, horizon_t) {
                    out.push(v);
                    break;
                }
            }
        }
        MotionPlan::Path(p) => {
            // Free-space obstacles are static in the fused snapshot;
            // check against their current position.
            for pose in &p.poses {
                if let Some(v) = clearance(pose, 0.0) {
                    out.push(v);
                    break;
                }
            }
        }
        MotionPlan::EmergencyStop => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_dnn::detection::{BBox, ObjectClass};

    fn det(cx: f32, cy: f32, w: f32, h: f32, score: f32) -> Detection {
        Detection { bbox: BBox::new(cx, cy, w, h), class: ObjectClass::Vehicle, score }
    }

    fn track(id: u64, cx: f32, cy: f32) -> TrackedObject {
        TrackedObject {
            track_id: id,
            class: ObjectClass::Vehicle,
            bbox: BBox::new(cx, cy, 0.1, 0.1),
            frames_missing: 0,
            age: 5,
        }
    }

    #[test]
    fn clean_detections_pass() {
        let dets = [det(0.3, 0.3, 0.1, 0.2, 0.9), det(0.7, 0.6, 0.2, 0.2, 0.5)];
        assert!(check_detections(&dets).is_empty());
    }

    #[test]
    fn bad_boxes_and_scores_trip() {
        assert!(matches!(
            check_detections(&[det(1.4, 0.5, 0.1, 0.1, 0.9)])[0],
            Violation::BoxOutOfFrame { .. }
        ));
        assert!(matches!(
            check_detections(&[det(0.5, 0.5, 0.0, 0.1, 0.9)])[0],
            Violation::DegenerateBox { .. }
        ));
        assert!(matches!(
            check_detections(&[det(0.5, 0.5, 0.1, 0.1, f32::NAN)])[0],
            Violation::BadScore { .. }
        ));
        assert!(matches!(
            check_detections(&[det(0.5, 0.5, f32::NAN, 0.1, 0.9)])[0],
            Violation::DegenerateBox { .. }
        ));
    }

    #[test]
    fn nms_bound_applies_within_a_class() {
        // Nearly coincident same-class boxes: NMS could not have run.
        let dets = [det(0.5, 0.5, 0.2, 0.2, 0.9), det(0.51, 0.5, 0.2, 0.2, 0.8)];
        assert!(matches!(check_detections(&dets)[0], Violation::NmsOverlap { .. }));
        // Different classes overlap freely (a sign in front of a car).
        let mut cross = dets;
        cross[1].class = ObjectClass::TrafficSign;
        assert!(check_detections(&cross).is_empty());
    }

    #[test]
    fn track_jump_bounded_by_ego_motion() {
        let prev = [track(1, 0.5, 0.5)];
        // Small drift: fine.
        assert!(check_tracks(&prev, &[track(1, 0.55, 0.5)], 0.0).is_empty());
        // Teleport: trips.
        let v = check_tracks(&prev, &[track(1, 0.95, 0.1)], 0.0);
        assert!(matches!(v[0], Violation::TrackJump { track_id: 1, .. }));
        // The same displacement under fast ego motion is allowed.
        assert!(check_tracks(&prev, &[track(1, 0.95, 0.1)], 10.0).is_empty());
        // Fresh tracks are exempt.
        assert!(check_tracks(&prev, &[track(2, 0.95, 0.1)], 0.0).is_empty());
    }

    #[test]
    fn coasting_tracks_are_exempt() {
        let prev = [track(1, 0.5, 0.5)];
        let mut c = track(1, 0.95, 0.1);
        c.frames_missing = 2;
        assert!(check_tracks(&prev, &[c], 0.0).is_empty());
    }

    #[test]
    fn pose_envelope_and_timestamps() {
        let p0 = Pose2::new(0.0, 0.0, 0.0);
        // Plausible motion at 10 m/s.
        assert!(check_pose(Some((p0, 0.0)), Pose2::new(1.0, 0.0, 0.0), 0.1).is_empty());
        // Teleport.
        let v = check_pose(Some((p0, 0.0)), Pose2::new(50.0, 0.0, 0.0), 0.1);
        assert!(matches!(v[0], Violation::PoseJump { .. }));
        // Clock went backwards.
        let v = check_pose(Some((p0, 1.0)), Pose2::new(0.1, 0.0, 0.0), 0.9);
        assert!(matches!(v[0], Violation::TimestampAnomaly { .. }));
        // Non-finite pose.
        let v = check_pose(None, Pose2::new(f64::NAN, 0.0, 0.0), 0.1);
        assert!(matches!(v[0], Violation::NonFinitePose));
        // No history: envelope restarts silently.
        assert!(check_pose(None, Pose2::new(99.0, 0.0, 0.0), 0.1).is_empty());
    }

    #[test]
    fn emergency_stop_is_always_feasible() {
        let fused = FusedFrame { ego: Pose2::identity(), ego_speed_mps: 15.0, objects: vec![] };
        assert!(check_plan(Some(15.0), &fused, &MotionPlan::EmergencyStop, 0.1).is_empty());
    }
}
