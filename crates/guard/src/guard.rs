//! The stateful pipeline guard: runs the monitor catalog frame by
//! frame, tracks the data-plane digests across hand-offs, and keeps
//! the trip statistics the soak harness asserts on.

use crate::digest::{digest_image, Digest};
use crate::monitors::{self, Monitor, Violation, MAX_DT_S, MAX_SPEED_MPS};
use adsim_dnn::detection::Detection;
use adsim_perception::TrackedObject;
use adsim_planning::{FusedFrame, MotionPlan};
use adsim_vision::{GrayImage, Pose2};

/// Which guard layers run. The thresholds are constants in
/// `monitors.rs`, sized so the *clean* pipeline never trips; the
/// default runs the monitors and the data plane but leaves the
/// dual-execution vote opt-in, since it re-delivers the sensor payload
/// on every digest mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GuardConfig {
    /// Everything off — the guard becomes a transparent no-op.
    Off,
    /// Digest verification at the sensor → DET boundary plus the
    /// stage-boundary invariant monitors.
    #[default]
    Monitors,
    /// [`GuardConfig::Monitors`] plus the dual-execution vote: on a
    /// digest mismatch, request one re-delivery and vote — a match on
    /// the second read classifies the corruption as transient (and
    /// recovers the frame); a second mismatch confirms a persistent
    /// sensor outage.
    Voting,
}

/// One monitor trip, recorded in frame order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardEvent {
    /// Frame the monitor tripped on.
    pub frame: u64,
    /// Which monitor tripped.
    pub monitor: Monitor,
    /// The violated invariant.
    pub violation: Violation,
}

impl std::fmt::Display for GuardEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {:>5}: [{}] {:?}", self.frame, self.monitor, self.violation)
    }
}

/// The data-plane verdict for one delivered sensor frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataVerdict {
    /// Digest matches the capture digest.
    Clean,
    /// Digest mismatch; no vote requested (not [`GuardConfig::Voting`]).
    Corrupted,
    /// Digest mismatch, and the re-delivered payload matched — a
    /// transient transport fault. The caller should process the
    /// re-delivered frame.
    RecoveredTransient,
    /// Digest mismatch on both deliveries — a persistent sensor
    /// outage.
    ConfirmedPersistent,
    /// Payload is bit-identical to the previous delivered frame: a
    /// stuck-at sensor.
    Stuck,
}

impl DataVerdict {
    /// True when the delivered payload must not be trusted.
    pub fn is_bad(self) -> bool {
        !matches!(self, DataVerdict::Clean | DataVerdict::RecoveredTransient)
    }
}

/// Per-monitor trip counters plus data-plane bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Frames observed.
    pub frames: u64,
    /// Sensor payloads digest-checked.
    pub digest_checks: u64,
    /// Digest mismatches at first delivery.
    pub digest_mismatches: u64,
    /// Dual-execution votes that classified the fault as transient.
    pub dual_recovered: u64,
    /// Dual-execution votes that confirmed a persistent outage.
    pub dual_confirmed: u64,
    /// Stuck-sensor detections.
    pub stuck_detected: u64,
    /// Detection-sanity trips.
    pub det_trips: u64,
    /// Tracker-consistency trips.
    pub tra_trips: u64,
    /// Localization-residual trips.
    pub loc_trips: u64,
    /// Planner-envelope trips.
    pub plan_trips: u64,
}

impl GuardStats {
    /// Total invariant-monitor trips (data plane excluded).
    pub fn monitor_trips(&self) -> u64 {
        self.det_trips + self.tra_trips + self.loc_trips + self.plan_trips
    }
}

/// What the guard observed for one frame's stage outputs.
#[derive(Debug, Clone, Default)]
pub struct FrameVerdict {
    /// All monitor trips this frame, in boundary order.
    pub violations: Vec<GuardEvent>,
}

impl FrameVerdict {
    /// True when `monitor` tripped this frame.
    pub fn tripped(&self, monitor: Monitor) -> bool {
        self.violations.iter().any(|v| v.monitor == monitor)
    }
}

/// The stateful guard: owns inter-frame monitor state (previous pose,
/// track table, commanded speed, delivered digest) and the trip log.
#[derive(Debug, Clone, Default)]
pub struct PipelineGuard {
    cfg: GuardConfig,
    prev_pose: Option<(Pose2, f64)>,
    prev_tracks: Vec<TrackedObject>,
    prev_speed: Option<f64>,
    prev_time_s: Option<f64>,
    prev_delivered: Option<Digest>,
    events: Vec<GuardEvent>,
    stats: GuardStats,
}

impl PipelineGuard {
    /// Creates a guard.
    pub fn new(cfg: GuardConfig) -> Self {
        Self { cfg, ..Self::default() }
    }

    /// Every trip so far, in frame order.
    pub fn events(&self) -> &[GuardEvent] {
        &self.events
    }

    /// Counters for the soak report.
    pub fn stats(&self) -> &GuardStats {
        &self.stats
    }

    fn record(&mut self, frame: u64, monitor: Monitor, violation: Violation) {
        match monitor {
            Monitor::Detection => {
                self.stats.det_trips += 1;
                adsim_trace::instant_at("guard.det", frame as usize);
            }
            Monitor::Tracker => {
                self.stats.tra_trips += 1;
                adsim_trace::instant_at("guard.tra", frame as usize);
            }
            Monitor::Localization => {
                self.stats.loc_trips += 1;
                adsim_trace::instant_at("guard.loc", frame as usize);
            }
            Monitor::Planner => {
                self.stats.plan_trips += 1;
                adsim_trace::instant_at("guard.plan", frame as usize);
            }
            Monitor::DataPlane => adsim_trace::instant_at("guard.data", frame as usize),
        }
        self.events.push(GuardEvent { frame, monitor, violation });
    }

    /// Verifies the sensor → DET hand-off. `expected` is the digest
    /// computed where the frame was produced; `delivered` is the
    /// payload that arrived; `redeliver` is called at most once (only
    /// with [`GuardConfig::Voting`], only on a mismatch) to fetch a second
    /// delivery for the vote.
    ///
    /// The stuck-at check runs first: a payload bit-identical to the
    /// previous frame's is a wedged sensor regardless of its digest
    /// matching (the stale frame *was* valid once).
    pub fn check_delivery(
        &mut self,
        frame: u64,
        expected: Digest,
        delivered: &GrayImage,
        redeliver: impl FnOnce() -> GrayImage,
    ) -> (DataVerdict, Option<GrayImage>) {
        if self.cfg == GuardConfig::Off {
            return (DataVerdict::Clean, None);
        }
        self.stats.digest_checks += 1;
        let got = digest_image(delivered);
        let prev = self.prev_delivered.replace(got);
        if prev == Some(got) {
            self.stats.stuck_detected += 1;
            self.record(frame, Monitor::DataPlane, Violation::StuckSensor);
            return (DataVerdict::Stuck, None);
        }
        if got == expected {
            return (DataVerdict::Clean, None);
        }
        self.stats.digest_mismatches += 1;
        self.record(frame, Monitor::DataPlane, Violation::DigestMismatch);
        if self.cfg != GuardConfig::Voting {
            return (DataVerdict::Corrupted, None);
        }
        let second = redeliver();
        if digest_image(&second) == expected {
            self.stats.dual_recovered += 1;
            self.prev_delivered = Some(expected);
            (DataVerdict::RecoveredTransient, Some(second))
        } else {
            self.stats.dual_confirmed += 1;
            (DataVerdict::ConfirmedPersistent, None)
        }
    }

    /// Runs the invariant monitors on one frame's stage outputs and
    /// advances the inter-frame state.
    ///
    /// * `time_s` — the frame timestamp as delivered (skew included);
    /// * `detections` — DET output (`None` when the stage was skipped:
    ///   the sanity check and the DET→TRA digest have nothing to see);
    /// * `tracks` — TRA output (the tracked-object table);
    /// * `pose` — the pose LOC *accepted* (`None` during lock loss —
    ///   the kinematic envelope restarts after the gap);
    /// * `fused`/`plan` — the fusion output the planner consumed and
    ///   the plan it produced.
    #[allow(clippy::too_many_arguments)]
    pub fn check_frame(
        &mut self,
        frame: u64,
        time_s: f64,
        detections: Option<&[Detection]>,
        tracks: &[TrackedObject],
        pose: Option<Pose2>,
        fused: &FusedFrame,
        plan: &MotionPlan,
    ) -> FrameVerdict {
        let mut verdict = FrameVerdict::default();
        if self.cfg == GuardConfig::Off {
            return verdict;
        }
        self.stats.frames += 1;
        let start = self.events.len();

        if let Some(dets) = detections {
            for v in monitors::check_detections(dets) {
                self.record(frame, Monitor::Detection, v);
            }
        }

        // Ego displacement bound for the tracker check: how far the
        // *accepted* pose moved this frame.
        let ego_motion_m = match (pose, self.prev_pose) {
            (Some(p), Some((q, _))) => p.distance(&q),
            // No pose this frame (or no history): be generous and
            // assume envelope-maximal motion over a nominal frame.
            _ => MAX_SPEED_MPS * MAX_DT_S,
        };
        for v in monitors::check_tracks(&self.prev_tracks, tracks, ego_motion_m) {
            self.record(frame, Monitor::Tracker, v);
        }

        if let Some(p) = pose {
            for v in monitors::check_pose(self.prev_pose, p, time_s) {
                self.record(frame, Monitor::Localization, v);
            }
        }

        let frame_dt_s = self.prev_time_s.map_or(0.1, |t| time_s - t);
        for v in monitors::check_plan(self.prev_speed, fused, plan, frame_dt_s) {
            self.record(frame, Monitor::Planner, v);
        }

        // Advance state. The pose envelope only chains across frames
        // whose pose passed: a rejected pose would poison the next
        // frame's residual.
        if let Some(p) = pose {
            let pose_ok = !self.events[start..]
                .iter()
                .any(|e| e.monitor == Monitor::Localization);
            if pose_ok {
                self.prev_pose = Some((p, time_s));
            } else {
                self.prev_pose = None;
            }
        } else {
            self.prev_pose = None;
        }
        self.prev_tracks = tracks.to_vec();
        // An emergency stop clears the speed history: the accel check
        // must not flag the (legitimate) surge back to cruise after a
        // stop any more than the braking into it.
        self.prev_speed = match plan {
            MotionPlan::EmergencyStop => None,
            p => Some(p.speed_mps()),
        };
        self.prev_time_s = Some(time_s);

        verdict.violations.extend_from_slice(&self.events[start..]);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_fused() -> FusedFrame {
        FusedFrame { ego: Pose2::identity(), ego_speed_mps: 0.0, objects: vec![] }
    }

    #[test]
    fn disabled_guard_is_a_no_op() {
        let mut g = PipelineGuard::new(GuardConfig::Off);
        let img = GrayImage::new(8, 8);
        let (v, replacement) =
            g.check_delivery(0, Digest(0xDEAD), &img, || unreachable!("no vote when off"));
        assert_eq!(v, DataVerdict::Clean);
        assert!(replacement.is_none());
        let verdict = g.check_frame(
            0,
            0.0,
            None,
            &[],
            Some(Pose2::new(f64::NAN, 0.0, 0.0)),
            &clean_fused(),
            &MotionPlan::EmergencyStop,
        );
        assert!(verdict.violations.is_empty());
        assert_eq!(g.stats(), &GuardStats::default());
    }

    #[test]
    fn digest_mismatch_without_vote_flags_corruption() {
        let mut g = PipelineGuard::new(GuardConfig::default());
        let pristine = GrayImage::from_fn(16, 16, |x, _| x as u8);
        let mut corrupted = pristine.clone();
        corrupted.as_mut_slice()[5] ^= 0xFF;
        let expected = digest_image(&pristine);
        let (v, _) = g.check_delivery(0, expected, &corrupted, || unreachable!());
        assert_eq!(v, DataVerdict::Corrupted);
        assert!(v.is_bad());
        assert_eq!(g.stats().digest_mismatches, 1);
    }

    #[test]
    fn dual_execution_vote_recovers_transients_and_confirms_outages() {
        let mut g = PipelineGuard::new(GuardConfig::Voting);
        let pristine = GrayImage::from_fn(16, 16, |x, y| (x * y) as u8);
        let mut corrupted = pristine.clone();
        corrupted.as_mut_slice()[0] = !corrupted.as_slice()[0];
        let expected = digest_image(&pristine);

        // Transient: second delivery is clean.
        let clean = pristine.clone();
        let (v, replacement) = g.check_delivery(0, expected, &corrupted, move || clean);
        assert_eq!(v, DataVerdict::RecoveredTransient);
        assert_eq!(digest_image(&replacement.expect("recovered payload")), expected);
        assert_eq!(g.stats().dual_recovered, 1);

        // Persistent: second delivery is the same garbage.
        let again = corrupted.clone();
        let (v, replacement) = g.check_delivery(1, expected, &corrupted, move || again);
        assert_eq!(v, DataVerdict::ConfirmedPersistent);
        assert!(replacement.is_none());
        assert_eq!(g.stats().dual_confirmed, 1);
    }

    #[test]
    fn repeated_payload_is_a_stuck_sensor() {
        let mut g = PipelineGuard::new(GuardConfig::default());
        let img = GrayImage::from_fn(16, 16, |x, y| (x + y) as u8);
        let expected = digest_image(&img);
        let (v, _) = g.check_delivery(0, expected, &img, || unreachable!());
        assert_eq!(v, DataVerdict::Clean);
        let (v, _) = g.check_delivery(1, expected, &img, || unreachable!());
        assert_eq!(v, DataVerdict::Stuck);
        assert!(v.is_bad());
        assert_eq!(g.stats().stuck_detected, 1);
    }

    #[test]
    fn pose_envelope_restarts_after_a_rejected_pose() {
        let mut g = PipelineGuard::new(GuardConfig::default());
        let fused = clean_fused();
        let plan = MotionPlan::EmergencyStop;
        let ok = g.check_frame(0, 0.0, None, &[], Some(Pose2::identity()), &fused, &plan);
        assert!(ok.violations.is_empty());
        // Teleport: trips LOC.
        let bad =
            g.check_frame(1, 0.1, None, &[], Some(Pose2::new(500.0, 0.0, 0.0)), &fused, &plan);
        assert!(bad.tripped(Monitor::Localization));
        // The frame after the teleport is judged without history, so a
        // continuation from the *new* position does not re-trip.
        let next =
            g.check_frame(2, 0.2, None, &[], Some(Pose2::new(500.5, 0.0, 0.0)), &fused, &plan);
        assert!(next.violations.is_empty());
    }

    #[test]
    fn event_log_accumulates_in_frame_order() {
        let mut g = PipelineGuard::new(GuardConfig::default());
        let fused = clean_fused();
        for f in 0..3u64 {
            g.check_frame(
                f,
                f as f64 * 0.1,
                None,
                &[],
                Some(Pose2::new(900.0 * f as f64, 0.0, 0.0)),
                &fused,
                &MotionPlan::EmergencyStop,
            );
        }
        let frames: Vec<u64> = g.events().iter().map(|e| e.frame).collect();
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        assert_eq!(frames, sorted);
        assert!(g.events().iter().all(|e| e.to_string().starts_with("frame ")));
    }
}
