//! Graceful-degradation supervisor for the driving pipeline.
//!
//! The paper's constraint (§2.4.1) is a tail statement: the pipeline
//! must hold 100 ms at the 99.99th percentile, and the 0.01% of frames
//! that threaten it are the faulty ones. This module wraps a pipeline
//! with a per-stage watchdog, bounded retry with backoff, and explicit
//! degraded modes, so component failure degrades service instead of
//! ending it:
//!
//! * **tracker-only perception** when detection misses its budget or
//!   its worker stalls past the retry limit — the tracker pool keeps
//!   predicting existing objects with no fresh detections;
//! * **odometry dead-reckoning** when SLAM loses lock — the last
//!   observed pose is extrapolated by the recent frame-to-frame motion
//!   and fed to fusion in place of a localization fix;
//! * **planner speed reduction / safe stop** when confidence collapses
//!   (sustained lock loss or sensor blackout) — commanded speed is
//!   capped, then the plan is replaced by an emergency stop until the
//!   pipeline has been healthy for `RECOVER_FRAMES` frames;
//! * **anytime quality reduction** when the predictive deadline
//!   governor (`crate::anytime`) forecasts that the current quality
//!   level will miss the frame budget — detector resolution, model
//!   variant and tracker-pool capacity are stepped down a calibrated
//!   ladder *before* the reactive watchdog would have to abandon the
//!   stage, and stepped back up when the forecast clears.
//!
//! Every transition is recorded in a typed [`DegradationEvent`] log.
//! Decisions gate **only** on injected (virtual) fault state and on
//! deterministic pipeline outputs — never on measured wall-clock time
//! — so a seeded campaign produces a bit-identical event log on any
//! runtime thread count, while wall clock is still folded into the
//! *reported* latency for deadline accounting.

use crate::anytime::{AnytimeConfig, Governor, GovernorEvent, QualityKnobs};
use crate::modeled::{FrameLatency, ModeledPipeline, PipelineStats};
use crate::native::{NativeFrameResult, NativePipeline, PipelineSnapshot, ProcessControl};
use adsim_dnn::detection::Detection;
use adsim_faults::{blackout_frame, corrupt_pixels, FaultInjector, FrameFaults, InjectedCrash};
use adsim_guard::{digest_image, GuardConfig, GuardEvent, GuardStats, Monitor, PipelineGuard};
use adsim_perception::BatchRequest;
use adsim_planning::MotionPlan;
use adsim_platform::Component;
use adsim_telemetry::{DumpTrigger, FlightDump, FlightRecorder, FrameRecord, MetricsRegistry};
use adsim_vision::{GrayImage, Pose2};

/// Localization cost charged while dead-reckoning in the modeled
/// pipeline (a constant-time pose extrapolation, ms).
const DEAD_RECKON_MS: f64 = 0.05;

/// A degraded operating mode. Several can be active at once (e.g. a
/// blackout forces tracker-only *and*, once sustained, a safe stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Detection unavailable; perception runs on tracker predictions.
    TrackerOnly,
    /// Localization unavailable; pose is extrapolated odometry.
    DeadReckoning,
    /// Commanded speed capped while another mode is active.
    SpeedReduced,
    /// Confidence collapsed; the plan is an emergency stop.
    SafeStop,
    /// The anytime governor is running perception below full quality
    /// to protect the frame deadline.
    QualityReduced,
}

impl DegradedMode {
    /// Every mode, in declaration order. A mode's index here is its
    /// slot in the supervisor's mode table and its bit position in
    /// [`FrameRecord::mode_bits`] (the `adsim_telemetry::MODE_*` bits).
    pub(crate) const ALL: [DegradedMode; 5] = [
        DegradedMode::TrackerOnly,
        DegradedMode::DeadReckoning,
        DegradedMode::SpeedReduced,
        DegradedMode::SafeStop,
        DegradedMode::QualityReduced,
    ];

    /// The stable name (the `Display` string and the telemetry label)
    /// and the trace instants of entering and leaving the mode, all
    /// three built from the one name literal.
    fn names(self) -> [&'static str; 3] {
        macro_rules! names {
            ($name:literal) => {
                [$name, concat!("degrade.enter.", $name), concat!("degrade.exit.", $name)]
            };
        }
        match self {
            DegradedMode::TrackerOnly => names!("tracker-only"),
            DegradedMode::DeadReckoning => names!("dead-reckoning"),
            DegradedMode::SpeedReduced => names!("speed-reduced"),
            DegradedMode::SafeStop => names!("safe-stop"),
            DegradedMode::QualityReduced => names!("quality-reduced"),
        }
    }

    /// The stable name: the `Display` string and the telemetry label.
    fn name(self) -> &'static str {
        self.names()[0]
    }
}

impl std::fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a degraded mode was entered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationCause {
    /// The detection watchdog fired: the stage's virtual latency
    /// exceeded the per-stage budget.
    DetectionOverBudget {
        /// Virtual stage latency that tripped the watchdog (ms).
        virtual_ms: f64,
    },
    /// Detection's worker stalled and the retry budget ran out.
    DetectionStalled {
        /// Attempts the stalled worker needed (beyond the budget).
        attempts: u32,
    },
    /// The localizer produced no pose.
    LockLost {
        /// Whether the loss was injected (vs. a natural miss).
        injected: bool,
    },
    /// Entered alongside another degraded mode (speed reduction).
    AccompanyingDegradation,
    /// Sustained loss of perception confidence.
    ConfidenceCollapse {
        /// Consecutive frames without a pose.
        lost_frames: u32,
        /// Consecutive blacked-out frames.
        blackout_frames: u32,
    },
    /// A safety monitor rejected a stage output or a delivered sensor
    /// payload (see `adsim-guard`).
    MonitorTripped {
        /// The monitor that tripped.
        monitor: Monitor,
    },
    /// The anytime governor forecast a deadline miss at the current
    /// quality level and degraded pre-emptively.
    PredictedMiss {
        /// Forecast end-to-end latency that triggered the step-down
        /// (ms, at the quality level in force when it was made).
        predicted_ms: f64,
    },
    /// The recovery layer's restart budget ran out: the vehicle keeps
    /// crashing faster than checkpoints can carry it forward, so the
    /// only safe terminal state is a parked vehicle.
    RestartsExhausted {
        /// Restarts attempted before giving up.
        restarts: u64,
    },
}

impl std::fmt::Display for DegradationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationCause::DetectionOverBudget { virtual_ms } => {
                write!(f, "detection over budget ({virtual_ms:.1} ms virtual)")
            }
            DegradationCause::DetectionStalled { attempts } => {
                write!(f, "detection worker stalled ({attempts} attempts)")
            }
            DegradationCause::LockLost { injected: true } => write!(f, "injected lock loss"),
            DegradationCause::LockLost { injected: false } => write!(f, "localization miss"),
            DegradationCause::AccompanyingDegradation => write!(f, "accompanying degradation"),
            DegradationCause::ConfidenceCollapse { lost_frames, blackout_frames } => write!(
                f,
                "confidence collapse ({lost_frames} lost / {blackout_frames} blacked-out frames)"
            ),
            DegradationCause::MonitorTripped { monitor } => {
                write!(f, "safety monitor tripped ({monitor})")
            }
            DegradationCause::PredictedMiss { predicted_ms } => {
                write!(f, "predicted deadline miss ({predicted_ms:.1} ms forecast)")
            }
            DegradationCause::RestartsExhausted { restarts } => {
                write!(f, "restart budget exhausted ({restarts} restarts)")
            }
        }
    }
}

/// One entry of the supervisor's transition log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationEvent {
    /// Frame index the transition happened on.
    pub frame: u64,
    /// The transition.
    pub kind: DegradationEventKind,
}

/// Supervisor state-machine transitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationEventKind {
    /// A degraded mode became active.
    Entered {
        /// The mode.
        mode: DegradedMode,
        /// Why.
        cause: DegradationCause,
    },
    /// A degraded mode cleared.
    Exited {
        /// The mode.
        mode: DegradedMode,
        /// Frames the mode was active.
        frames_degraded: u64,
    },
    /// A stalled stage was retried.
    Retry {
        /// The stage retried.
        stage: Component,
        /// Attempt number (1-based).
        attempt: u32,
        /// Backoff charged before this attempt (ms).
        backoff_ms: f64,
    },
    /// The recovery layer restored the last checkpoint and replayed
    /// the gap after an injected stage crash — the restart escalation
    /// rung above retry and below safe stop.
    Restart {
        /// Stage whose crash triggered the restart.
        stage: Component,
        /// Frame index the restored checkpoint resumes from.
        checkpoint_frame: u64,
        /// Frames deterministically replayed to reach the crash frame.
        replayed: u64,
    },
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {:>5}: ", self.frame)?;
        match self.kind {
            DegradationEventKind::Entered { mode, cause } => {
                write!(f, "entered {mode} ({cause})")
            }
            DegradationEventKind::Exited { mode, frames_degraded } => {
                write!(f, "exited {mode} after {frames_degraded} frame(s)")
            }
            DegradationEventKind::Retry { stage, attempt, backoff_ms } => {
                write!(f, "retry {attempt} on {stage} (backoff {backoff_ms:.1} ms)")
            }
            DegradationEventKind::Restart { stage, checkpoint_frame, replayed } => {
                write!(
                    f,
                    "restart after {stage} crash (checkpoint {checkpoint_frame}, \
                     replayed {replayed} frame(s))"
                )
            }
        }
    }
}

/// Per-stage watchdog budget on *virtual* (injected) latency (ms); a
/// stage exceeding it is abandoned for the frame.
const STAGE_BUDGET_MS: f64 = 50.0;
/// Base retry backoff (ms), doubling per attempt.
const RETRY_BACKOFF_MS: f64 = 2.0;
/// Consecutive pose-less frames before a safe stop.
const LOCK_LOSS_SAFE_STOP: u32 = 6;
/// Consecutive blacked-out frames before a safe stop.
const BLACKOUT_SAFE_STOP: u32 = 4;
/// Consecutive healthy frames required to exit a safe stop.
const RECOVER_FRAMES: u32 = 3;
/// Speed multiplier while speed-reduced.
const DEGRADED_SPEED_FACTOR: f64 = 0.5;
/// End-to-end deadline for reported-latency accounting (ms): the
/// paper's 100 ms / 10 FPS operating point.
const DEADLINE_MS: f64 = 100.0;

/// Supervisor settings. The budgets, safe-stop thresholds and deadline
/// are constants fitted to the paper's 100 ms / 10 FPS operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Retry budget for a stalled stage worker.
    pub max_retries: u32,
    /// Safety-monitor and data-plane configuration (native supervisor
    /// only; the modeled mirror has no stage payloads to check).
    pub guard: GuardConfig,
    /// Predictive deadline governor. Disabled by default — with the
    /// governor off the supervisor is byte-identical to the pre-anytime
    /// policy (no knob is ever touched, no event is ever emitted).
    pub anytime: AnytimeConfig,
    /// Vehicle id stamped onto telemetry series and flight-recorder
    /// dumps. The fleet engine overwrites it with the cell's spec
    /// index; standalone supervisors report as vehicle 0.
    pub vehicle: u32,
    /// Flight-recorder window: how many of the most recent frames the
    /// black-box ring retains for post-mortem dumps.
    pub flight_frames: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            guard: GuardConfig::default(),
            anytime: AnytimeConfig::Off,
            vehicle: 0,
            flight_frames: 32,
        }
    }
}

/// Recovery metrics over a supervised run — the fault-campaign
/// counterpart of [`crate::DeadlineStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Frames processed.
    pub frames: u64,
    /// Frames with at least one degraded mode active.
    pub frames_degraded: u64,
    /// Completed degradation episodes (entered and fully recovered).
    pub episodes: u64,
    /// Total time-to-recover over completed episodes (frames).
    pub recover_frames_total: u64,
    /// Longest completed episode (frames).
    pub max_recover_frames: u64,
    /// Safe stops commanded.
    pub safe_stops: u64,
    /// Frames spent in safe stop.
    pub safe_stop_frames: u64,
    /// Stage retries performed.
    pub retries: u64,
    /// Frames whose reported latency missed the deadline. On the
    /// native [`Supervisor`] reported latency includes measured wall
    /// clock, so this is the one field that can differ between two
    /// runs of the same seed (it moves with host load); on
    /// [`ModeledSupervisor`] every latency is sampled, and it is exact.
    pub deadline_misses: u64,
    /// Frames whose *virtual* end-to-end cost (nominal stage costs at
    /// the active quality level plus injected latency, before the
    /// watchdog clamp) exceeded the deadline — the deterministic miss
    /// count the anytime governor is judged on.
    pub virtual_deadline_misses: u64,
    /// Quality-level switches the anytime governor performed.
    pub quality_switches: u64,
    /// Frames spent below full quality.
    pub quality_reduced_frames: u64,
    /// Injected stage crashes the recovery layer contained (counted
    /// when the crash is recorded post-restore, so the count survives
    /// later checkpoint restores).
    pub crashes: u64,
    /// Checkpoint restarts performed after crashes.
    pub restarts: u64,
    /// Frames deterministically replayed across all restarts. Replayed
    /// frames settle again, so `frames` also counts the re-execution —
    /// the honest cost of recovery.
    pub replayed_frames: u64,
    /// Whether a degradation episode was still open at the end.
    pub degraded_at_end: bool,
}

impl RecoveryStats {
    /// Mean time-to-recover over completed episodes (frames).
    pub fn mean_time_to_recover(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.recover_frames_total as f64 / self.episodes as f64
        }
    }

    /// Fraction of frames spent degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frames_degraded as f64 / self.frames as f64
        }
    }

    /// Fraction of frames whose reported latency missed the deadline:
    /// wall-clock-dependent on the native [`Supervisor`], exact on
    /// [`ModeledSupervisor`] (see [`RecoveryStats::deadline_misses`]).
    pub fn miss_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.frames as f64
        }
    }

    /// Fraction of frames whose virtual end-to-end cost missed the
    /// deadline (deterministic; identical across runtimes and worker
    /// counts for a given seed).
    pub fn virtual_miss_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.virtual_deadline_misses as f64 / self.frames as f64
        }
    }
}

/// Which degraded modes are active after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActiveModes {
    /// Detection unavailable.
    pub tracker_only: bool,
    /// Pose is dead-reckoned.
    pub dead_reckoning: bool,
    /// Speed capped.
    pub speed_reduced: bool,
    /// Emergency stop commanded.
    pub safe_stop: bool,
    /// Perception running below full quality (anytime governor).
    pub quality_reduced: bool,
}

impl ActiveModes {
    /// True when any mode is active.
    pub fn any(&self) -> bool {
        self.tracker_only
            || self.dead_reckoning
            || self.speed_reduced
            || self.safe_stop
            || self.quality_reduced
    }
}

/// Stage dispositions for one frame, derived from the fault schedule
/// before the pipeline runs.
#[derive(Debug, Clone, Copy)]
struct StagePlan {
    skip_detection: bool,
    skip_localization: bool,
    /// Virtual latency added per stage (spikes + stall retries +
    /// latency drift), after the watchdog clamp.
    extra: FrameLatency,
    /// Why detection was skipped, when it was.
    detection_cause: Option<DegradationCause>,
    /// Quality knobs the governor commands for this frame (`None`
    /// when the governor is disabled — no knob is touched).
    quality: Option<QualityKnobs>,
    /// Virtual end-to-end cost of the frame: nominal stage costs at
    /// the active quality level plus pre-clamp injected latency.
    virtual_e2e_ms: f64,
    /// The governor's error on last frame's forecast of this frame's
    /// summed extras (ms), once it has a forecast.
    forecast_err_ms: Option<f64>,
}

/// What the supervisor does to the plan after the frame.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    safe_stop: bool,
    speed_factor: Option<f64>,
    /// The flight dump this frame's transitions triggered, if any.
    dump: Option<DumpTrigger>,
}

/// Which guard monitors tripped this frame, folded into the settle
/// decision. The modeled mirror has no stage payloads, so it settles
/// with the default (all clear).
#[derive(Debug, Clone, Copy, Default)]
struct MonitorFlags {
    detection: bool,
    tracker: bool,
    localization: bool,
    planner: bool,
    data: bool,
}

impl MonitorFlags {
    /// Perception-side trips: distrust the inputs, cap the speed.
    fn soft(&self) -> bool {
        self.detection || self.tracker || self.localization || self.data
    }

    /// Any trip at all (blocks the healthy streak).
    fn any(&self) -> bool {
        self.soft() || self.planner
    }

    /// The first tripped perception-side monitor, boundary order, for
    /// the transition log.
    fn first_soft(&self) -> Option<Monitor> {
        if self.data {
            Some(Monitor::DataPlane)
        } else if self.detection {
            Some(Monitor::Detection)
        } else if self.tracker {
            Some(Monitor::Tracker)
        } else if self.localization {
            Some(Monitor::Localization)
        } else {
            None
        }
    }
}

/// The shared watchdog + degraded-mode state machine. Both the native
/// [`Supervisor`] and the [`ModeledSupervisor`] mirror drive this one
/// policy, so their transition semantics cannot drift apart.
#[derive(Debug, Clone)]
struct SupervisorCore {
    cfg: SupervisorConfig,
    governor: Governor,
    /// The mode table: the frame each mode was entered on while it is
    /// active, indexed by `DegradedMode as usize`.
    since: [Option<u64>; 5],
    consecutive_lost: u32,
    consecutive_blackout: u32,
    healthy_streak: u32,
    episode_start: Option<u64>,
    /// Terminal latch set when the crash-restart budget is exhausted:
    /// the vehicle parks (SafeStop) and never recovers out of it.
    terminal_safe_stop: bool,
    events: Vec<DegradationEvent>,
    stats: RecoveryStats,
    // Odometry for dead-reckoning: last observed pose, last observed
    // frame-to-frame motion, and the extrapolated estimate.
    last_pose: Option<Pose2>,
    delta: Option<(f64, f64, f64)>,
    reckon: Option<Pose2>,
    // Black-box ring of the most recent frames, always on (bounded
    // memory, virtual-clock content only), and the dumps it produced.
    recorder: FlightRecorder,
    dumps: Vec<FlightDump>,
}

/// Static trace-instant name for a mode transition, so degraded-mode
/// changes show up on the Chrome-trace timeline next to the stage
/// spans they interrupt.
fn transition_instant(mode: DegradedMode, entered: bool) -> &'static str {
    mode.names()[if entered { 1 } else { 2 }]
}

/// Packs a frame's injected faults into [`FrameRecord::fault_bits`].
fn fault_bits(faults: &FrameFaults) -> u16 {
    use adsim_telemetry as t;
    let mut bits = 0u16;
    if faults.blackout {
        bits |= t::FAULT_BLACKOUT;
    }
    if faults.stuck {
        bits |= t::FAULT_STUCK;
    }
    if faults.pixel_corruption.is_some() {
        bits |= t::FAULT_CORRUPT;
    }
    if !faults.spikes.is_empty() {
        bits |= t::FAULT_SPIKE;
    }
    if faults.lock_loss {
        bits |= t::FAULT_LOCK_LOSS;
    }
    if faults.tracker_shift.is_some() {
        bits |= t::FAULT_TRACKER_SHIFT;
    }
    if faults.stall.is_some() {
        bits |= t::FAULT_STALL;
    }
    if faults.time_skew_s.is_some() {
        bits |= t::FAULT_TIME_SKEW;
    }
    if !faults.drift.is_empty() {
        bits |= t::FAULT_DRIFT;
    }
    if faults.crash.is_some() {
        bits |= t::FAULT_CRASH;
    }
    bits
}

impl SupervisorCore {
    fn new(cfg: SupervisorConfig) -> Self {
        let governor = Governor::new(cfg.anytime);
        let recorder = FlightRecorder::new(cfg.flight_frames);
        Self {
            cfg,
            governor,
            recorder,
            dumps: Vec::new(),
            since: [None; 5],
            consecutive_lost: 0,
            consecutive_blackout: 0,
            healthy_streak: 0,
            episode_start: None,
            terminal_safe_stop: false,
            events: Vec::new(),
            stats: RecoveryStats::default(),
            last_pose: None,
            delta: None,
            reckon: None,
        }
    }

    /// Plans stage dispositions from the frame's fault schedule: runs
    /// the anytime governor's quality decision, retries stalled
    /// workers (bounded, exponential backoff), charges latency drift
    /// against the active quality level's nominal stage costs, feeds
    /// the pre-clamp virtual latencies to the governor's predictor,
    /// then applies the per-stage watchdog.
    fn plan(&mut self, faults: &FrameFaults) -> StagePlan {
        let frame = faults.frame;
        // The governor decides *first*, on last frame's forecast, so
        // a pre-emptive step-down shrinks this frame's drift charge —
        // that is the whole mechanism by which it averts the miss.
        self.governor.decide(frame, STAGE_BUDGET_MS, DEADLINE_MS);
        let mut extra = FrameLatency::default();
        for &(stage, ms) in &faults.spikes {
            *extra.stage_mut(stage) += ms;
        }

        let mut skip_detection = false;
        let mut detection_cause = None;
        if let Some(stall) = faults.stall {
            // Hard cap independent of config: beyond 32 doublings the
            // backoff alone exceeds any sane stage budget, and the cap
            // keeps the `u32 → i32` exponent cast below wrap range no
            // matter what `max_retries` a config asks for.
            const RETRY_HARD_CAP: u32 = 32;
            let attempts_run = stall.attempts.min(self.cfg.max_retries).min(RETRY_HARD_CAP);
            let mut stall_cost = 0.0;
            for attempt in 1..=attempts_run {
                // Each attempt's backoff saturates at the stage budget
                // — the watchdog would abandon the stage there anyway.
                let backoff =
                    (RETRY_BACKOFF_MS * 2f64.powi(attempt as i32 - 1)).min(STAGE_BUDGET_MS);
                stall_cost += stall.stall_ms + backoff;
                self.events.push(DegradationEvent {
                    frame,
                    kind: DegradationEventKind::Retry { stage: stall.stage, attempt, backoff_ms: backoff },
                });
                adsim_trace::instant("degrade.retry");
                self.stats.retries += 1;
            }
            *extra.stage_mut(stall.stage) += stall_cost;
            if stall.attempts > self.cfg.max_retries && stall.stage == Component::Detection {
                skip_detection = true;
                detection_cause =
                    Some(DegradationCause::DetectionStalled { attempts: stall.attempts });
            }
        }
        // Latency drift is a *multiplicative* load on a stage, so its
        // virtual cost scales with what the stage nominally costs at
        // the quality level in force — a degraded detector pays a
        // proportionally smaller drift tax.
        for &(stage, load) in &faults.drift {
            let charge = (load - 1.0).max(0.0) * self.governor.nominal_stage_ms(stage);
            *extra.stage_mut(stage) += charge;
        }
        // The predictor sees the same pre-clamp virtual latencies the
        // watchdog compares against its budget — the governor never
        // gets information the reactive path lacks, it only uses it
        // one forecast horizon earlier.
        let samples = Component::ALL.map(|c| extra.stage(c));
        let virtual_e2e_ms = self.governor.nominal_e2e_ms() + samples.iter().sum::<f64>();
        let forecast_err_ms = self.governor.observe(samples);
        // Watchdog: a stage whose virtual latency blows the budget is
        // abandoned at the budget mark rather than dragging the frame
        // past the deadline.
        if !skip_detection && extra.detection > STAGE_BUDGET_MS {
            detection_cause =
                Some(DegradationCause::DetectionOverBudget { virtual_ms: extra.detection });
            extra.detection = STAGE_BUDGET_MS;
            skip_detection = true;
        }

        StagePlan {
            skip_detection,
            skip_localization: faults.lock_loss,
            extra,
            detection_cause,
            quality: self.governor.knobs(),
            virtual_e2e_ms,
            forecast_err_ms,
        }
    }

    /// The dead-reckoned pose to offer fusion this frame, when the
    /// supervisor is (or is about to be) covering for localization.
    fn fallback_pose(&self, lock_lost: bool) -> Option<Pose2> {
        if !(lock_lost || self.active(DegradedMode::DeadReckoning)) {
            return None;
        }
        match (self.reckon, self.delta) {
            (Some(p), Some((dx, dy, dt))) => Some(Pose2::new(p.x + dx, p.y + dy, p.theta + dt)),
            _ => None,
        }
    }

    /// Folds the frame's observed pose into the odometry estimate.
    fn observe_pose(&mut self, pose: Option<Pose2>) {
        match pose {
            Some(p) => {
                if let Some(last) = self.last_pose {
                    self.delta = Some((p.x - last.x, p.y - last.y, p.theta - last.theta));
                }
                self.last_pose = Some(p);
                self.reckon = Some(p);
            }
            None => {
                if let (Some(p), Some((dx, dy, dt))) = (self.reckon, self.delta) {
                    self.reckon = Some(Pose2::new(p.x + dx, p.y + dy, p.theta + dt));
                }
            }
        }
    }

    /// Settles the frame: updates streaks and odometry, runs every
    /// mode transition, and returns what to do to the plan.
    fn settle(
        &mut self,
        faults: &FrameFaults,
        pose: Option<Pose2>,
        plan: &StagePlan,
        reported_e2e_ms: f64,
        monitors: MonitorFlags,
        payload_digest: u64,
    ) -> Verdict {
        let frame = faults.frame;
        let had_pose = pose.is_some();
        let detection_ran = !plan.skip_detection;
        // Transitions pushed during this settle decide the flight dump
        // triggers below.
        let events_before = self.events.len();
        self.stats.frames += 1;

        // Dead-reckoning coverage is decided *before* odometry folds
        // in this frame: it reflects what fusion actually consumed.
        let covered = !had_pose && self.fallback_pose(faults.lock_loss).is_some();
        self.observe_pose(pose);

        if had_pose {
            self.consecutive_lost = 0;
        } else {
            self.consecutive_lost += 1;
        }
        if faults.blackout {
            self.consecutive_blackout += 1;
        } else {
            self.consecutive_blackout = 0;
        }
        let healthy = had_pose && !faults.blackout && detection_ran && !monitors.any();
        if healthy {
            self.healthy_streak += 1;
        } else {
            self.healthy_streak = 0;
        }

        let want_tracker_only = !detection_ran;
        let want_dead_reck = covered;
        let mut want_safe = self.active(DegradedMode::SafeStop);
        if want_safe && self.healthy_streak >= RECOVER_FRAMES {
            want_safe = false;
        }
        let collapse = self.consecutive_lost >= LOCK_LOSS_SAFE_STOP
            || self.consecutive_blackout >= BLACKOUT_SAFE_STOP;
        // A planner-envelope trip means the plan itself is unsafe —
        // the only safe output this frame is an emergency stop.
        if collapse || monitors.planner {
            want_safe = true;
        }
        // An exhausted crash-restart budget parks the vehicle for good:
        // no healthy streak can undo it.
        if self.terminal_safe_stop {
            want_safe = true;
        }
        let want_speed_red =
            (want_tracker_only || want_dead_reck || monitors.soft()) && !want_safe;

        // When a monitor trip is the *only* reason for the speed cap,
        // log it as the cause; a cap riding along with tracker-only /
        // dead-reckoning keeps the accompanying-degradation cause.
        let speed_red_cause = match monitors.first_soft() {
            Some(monitor) if !(want_tracker_only || want_dead_reck) => {
                DegradationCause::MonitorTripped { monitor }
            }
            _ => DegradationCause::AccompanyingDegradation,
        };
        let safe_cause = if self.terminal_safe_stop {
            DegradationCause::RestartsExhausted { restarts: self.stats.restarts }
        } else if monitors.planner && !collapse {
            DegradationCause::MonitorTripped { monitor: Monitor::Planner }
        } else {
            DegradationCause::ConfidenceCollapse {
                lost_frames: self.consecutive_lost,
                blackout_frames: self.consecutive_blackout,
            }
        };
        // Quality reduction is proactive, not a failure: it neither
        // blocks the healthy streak nor forces a speed cap — but it is
        // a degraded mode, logged and counted like the others.
        let want_quality = self.governor.enabled() && self.governor.level() > 0;
        for (mode, want, cause) in [
            (
                DegradedMode::TrackerOnly,
                want_tracker_only,
                plan.detection_cause.unwrap_or(DegradationCause::AccompanyingDegradation),
            ),
            (
                DegradedMode::DeadReckoning,
                want_dead_reck,
                DegradationCause::LockLost { injected: faults.lock_loss },
            ),
            (DegradedMode::SpeedReduced, want_speed_red, speed_red_cause),
            (DegradedMode::SafeStop, want_safe, safe_cause),
            (
                DegradedMode::QualityReduced,
                want_quality,
                DegradationCause::PredictedMiss { predicted_ms: self.governor.last_forecast_e2e() },
            ),
        ] {
            self.toggle_mode(mode, want, cause, frame);
        }

        let any_active = self.active_modes().any();
        if any_active {
            self.stats.frames_degraded += 1;
            if self.episode_start.is_none() {
                self.episode_start = Some(frame);
            }
        } else if let Some(start) = self.episode_start.take() {
            let len = frame - start;
            self.stats.episodes += 1;
            self.stats.recover_frames_total += len;
            self.stats.max_recover_frames = self.stats.max_recover_frames.max(len);
        }
        if self.active(DegradedMode::SafeStop) {
            self.stats.safe_stop_frames += 1;
        }
        if self.active(DegradedMode::QualityReduced) {
            self.stats.quality_reduced_frames += 1;
        }
        if reported_e2e_ms > DEADLINE_MS {
            self.stats.deadline_misses += 1;
        }
        if plan.virtual_e2e_ms > DEADLINE_MS {
            self.stats.virtual_deadline_misses += 1;
            // Perfetto counter track: deterministic miss count next to
            // the stage spans that caused it.
            adsim_trace::counter(
                "supervisor.virtual-miss",
                self.stats.virtual_deadline_misses as f64,
            );
        }

        let dump = self.record_frame(faults, plan, monitors, payload_digest, events_before);

        Verdict {
            safe_stop: self.active(DegradedMode::SafeStop),
            speed_factor: self.active(DegradedMode::SpeedReduced).then_some(DEGRADED_SPEED_FACTOR),
            dump,
        }
    }

    /// Whether `mode` is active.
    fn active(&self, mode: DegradedMode) -> bool {
        self.since[mode as usize].is_some()
    }

    /// Emits an enter/exit event when a mode's desired state changes.
    fn toggle_mode(
        &mut self,
        mode: DegradedMode,
        want: bool,
        cause: DegradationCause,
        frame: u64,
    ) {
        let slot = &mut self.since[mode as usize];
        match (*slot, want) {
            (None, true) => {
                *slot = Some(frame);
                let kind = DegradationEventKind::Entered { mode, cause };
                self.events.push(DegradationEvent { frame, kind });
                adsim_trace::instant(transition_instant(mode, true));
                if mode == DegradedMode::SafeStop {
                    self.stats.safe_stops += 1;
                }
            }
            (Some(since), false) => {
                *slot = None;
                let kind = DegradationEventKind::Exited { mode, frames_degraded: frame - since };
                self.events.push(DegradationEvent { frame, kind });
                adsim_trace::instant(transition_instant(mode, false));
            }
            _ => {}
        }
    }

    /// The frame's virtual stage costs: each stage's nominal cost at
    /// the quality level in force plus the plan's injected extras.
    fn stage_virtual_ms(&self, plan: &StagePlan) -> [f64; 5] {
        Component::ALL.map(|c| self.governor.nominal_stage_ms(c) + plan.extra.stage(c))
    }

    /// Black-box tail of settle: pushes the flight record and dumps the
    /// ring when this frame's transitions warrant it; returns its trigger.
    fn record_frame(
        &mut self,
        faults: &FrameFaults,
        plan: &StagePlan,
        monitors: MonitorFlags,
        payload_digest: u64,
        events_before: usize,
    ) -> Option<DumpTrigger> {
        use adsim_telemetry as t;
        let frame = faults.frame;
        // Bit `i` is mode-table slot `i` (the `t::MODE_*` layout).
        let mode_bits = (self.since.iter().enumerate())
            .fold(0u8, |bits, (i, since)| bits | u8::from(since.is_some()) << i);
        let monitor_bits = ((monitors.data as u8) * t::MONITOR_DATA)
            | ((monitors.detection as u8) * t::MONITOR_DETECTION)
            | ((monitors.tracker as u8) * t::MONITOR_TRACKER)
            | ((monitors.localization as u8) * t::MONITOR_LOCALIZATION)
            | ((monitors.planner as u8) * t::MONITOR_PLANNER);
        let quality_rung =
            if self.governor.enabled() { self.governor.current().name } else { "full" };
        self.recorder.push(FrameRecord {
            frame,
            stage_virtual_ms: self.stage_virtual_ms(plan),
            virtual_e2e_ms: plan.virtual_e2e_ms,
            quality_rung,
            mode_bits,
            monitor_bits,
            fault_bits: fault_bits(faults),
            payload_digest,
            forecast_e2e_ms: self.governor.last_forecast_e2e(),
            crashed: false,
            panic_msg: String::new(),
        });

        // Dump triggers, in severity order: entering SafeStop always
        // dumps; otherwise any monitor-tripped escalation does.
        let mut trigger = None;
        for e in &self.events[events_before..] {
            if let DegradationEventKind::Entered { mode, cause } = e.kind {
                if mode == DegradedMode::SafeStop {
                    trigger = Some(DumpTrigger::SafeStop);
                    break;
                }
                if matches!(cause, DegradationCause::MonitorTripped { .. }) {
                    trigger = Some(DumpTrigger::MonitorTripped);
                }
            }
        }
        if let Some(trigger) = trigger {
            self.dump(trigger, frame);
        }
        trigger
    }

    /// Captures a flight dump of the black-box ring as of `frame`.
    fn dump(&mut self, trigger: DumpTrigger, frame: u64) -> FlightDump {
        let dump = self.recorder.dump(self.cfg.vehicle, trigger, frame);
        self.dumps.push(dump.clone());
        dump
    }

    fn active_modes(&self) -> ActiveModes {
        ActiveModes {
            tracker_only: self.active(DegradedMode::TrackerOnly),
            dead_reckoning: self.active(DegradedMode::DeadReckoning),
            speed_reduced: self.active(DegradedMode::SpeedReduced),
            safe_stop: self.active(DegradedMode::SafeStop),
            quality_reduced: self.active(DegradedMode::QualityReduced),
        }
    }

    /// The active quality level's cost multiplier for a stage (1.0
    /// with the governor disabled).
    fn quality_factor(&self, stage: Component) -> f64 {
        if self.governor.enabled() {
            self.governor.current().factor(stage)
        } else {
            1.0
        }
    }

    fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            degraded_at_end: self.active_modes().any(),
            quality_switches: self.governor.switches(),
            ..self.stats
        }
    }

    /// Closes the run: every open degraded mode gets its exit event at
    /// the end-of-run frame — except a safe stop, which is a valid
    /// terminal state (the vehicle is parked). Idempotent.
    fn finish(&mut self) {
        let frame = self.stats.frames;
        for mode in DegradedMode::ALL {
            if mode != DegradedMode::SafeStop {
                self.toggle_mode(mode, false, DegradationCause::AccompanyingDegradation, frame);
            }
        }
        if !self.active(DegradedMode::SafeStop) {
            if let Some(start) = self.episode_start.take() {
                let len = frame - start;
                self.stats.episodes += 1;
                self.stats.recover_frames_total += len;
                self.stats.max_recover_frames = self.stats.max_recover_frames.max(len);
            }
        }
    }
}

/// A frame paused at the cross-vehicle batching hand-off point.
///
/// Produced by [`Supervisor::stage_frame`]: fault injection, data
/// -plane verification and frame planning have run; the pipeline
/// stages have not. The supervisor's mutable state has already
/// advanced (the injector's schedule, guard counters, stuck-frame
/// replay buffer), so every staged frame **must** be completed with
/// [`Supervisor::finish_frame`] before the next frame is staged, with
/// no restore in between.
#[derive(Debug)]
pub struct StagedFrame {
    faults: FrameFaults,
    plan: StagePlan,
    ctrl: ProcessControl,
    delivered_time_s: f64,
    /// The delivered (possibly fault-perturbed, possibly recovered)
    /// sensor payload the pipeline will consume.
    img: GrayImage,
    payload_digest: u64,
    data_bad: bool,
    request: Option<BatchRequest>,
    /// The logs and guard counters as they stood at staging.
    marks: LogMarks,
}

impl StagedFrame {
    /// The detector's prepared DNN input, if this frame's detection
    /// stage is batchable (not skipped, DNN detector). `None` means
    /// [`Supervisor::finish_frame`] will run detection inline.
    pub fn request(&self) -> Option<&BatchRequest> {
        self.request.as_ref()
    }
}

/// Output of one supervised frame.
#[derive(Debug)]
pub struct SupervisedFrameResult {
    /// The pipeline's frame result (plan already adjusted for the
    /// active degraded modes).
    pub result: NativeFrameResult,
    /// What was injected this frame.
    pub faults: FrameFaults,
    /// Modes active after this frame settled.
    pub modes: ActiveModes,
    /// What the safety guard counted this frame: the data-plane checks
    /// at staging plus the stage-boundary monitors.
    pub guard: GuardStats,
}

/// How far the supervisor's logs and guard counters had grown before a
/// frame: its telemetry counts what the frame appended.
#[derive(Debug)]
struct LogMarks {
    events: usize,
    switches: usize,
    guard: GuardStats,
}

/// What `now` counted beyond `was` (saturating: never underflows).
fn guard_delta(was: &GuardStats, now: &GuardStats) -> GuardStats {
    GuardStats {
        frames: now.frames.saturating_sub(was.frames),
        digest_checks: now.digest_checks.saturating_sub(was.digest_checks),
        digest_mismatches: now.digest_mismatches.saturating_sub(was.digest_mismatches),
        dual_recovered: now.dual_recovered.saturating_sub(was.dual_recovered),
        dual_confirmed: now.dual_confirmed.saturating_sub(was.dual_confirmed),
        stuck_detected: now.stuck_detected.saturating_sub(was.stuck_detected),
        det_trips: now.det_trips.saturating_sub(was.det_trips),
        tra_trips: now.tra_trips.saturating_sub(was.tra_trips),
        loc_trips: now.loc_trips.saturating_sub(was.loc_trips),
        plan_trips: now.plan_trips.saturating_sub(was.plan_trips),
    }
}

/// The graceful-degradation supervisor over [`NativePipeline`].
///
/// With a [`FaultInjector::disabled`] injector the supervisor is a
/// transparent wrapper: frames flow through the identical code path
/// and outputs are bit-identical to the bare pipeline (the
/// zero-overhead-when-off parity test pins this).
#[derive(Debug)]
pub struct Supervisor {
    pipeline: NativePipeline,
    injector: FaultInjector,
    core: SupervisorCore,
    guard: PipelineGuard,
    /// The sensor payload delivered last frame, kept only while
    /// stuck-at faults are enabled (a wedged sensor re-delivers it).
    last_delivered: Option<GrayImage>,
    /// Whether scheduled crash faults actually panic. The recovery
    /// layer disarms this while replaying the post-checkpoint gap
    /// (crashes are transient: a restarted process does not re-crash
    /// on the same frame) and re-arms it once the replay catches up.
    /// Deliberately *not* part of [`SupervisorCheckpoint`]: arming is
    /// execution policy, not pipeline state.
    crash_armed: bool,
    /// This vehicle's series. Not in [`SupervisorCheckpoint`]: a restore
    /// never rewinds what was reported, so replayed frames count again.
    telemetry: MetricsRegistry,
}

impl Supervisor {
    /// Wraps a pipeline with a fault schedule and supervision policy.
    pub fn new(pipeline: NativePipeline, injector: FaultInjector, cfg: SupervisorConfig) -> Self {
        let guard = PipelineGuard::new(cfg.guard);
        Self {
            pipeline,
            injector,
            core: SupervisorCore::new(cfg),
            guard,
            last_delivered: None,
            crash_armed: true,
            telemetry: MetricsRegistry::new(),
        }
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &NativePipeline {
        &self.pipeline
    }

    /// The degradation-event log, in frame order.
    pub fn events(&self) -> &[DegradationEvent] {
        &self.core.events
    }

    /// Recovery metrics so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.core.stats()
    }

    /// The anytime governor's quality-switch log, in frame order
    /// (empty when the governor is disabled).
    pub fn governor_events(&self) -> &[GovernorEvent] {
        self.core.governor.events()
    }

    /// Flight-recorder dumps captured so far (SafeStop, monitor-trip
    /// and manual triggers), in capture order.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        &self.core.dumps
    }

    /// Takes ownership of the captured dumps (the fleet engine moves
    /// them into the cell outcome).
    pub fn take_flight_dumps(&mut self) -> Vec<FlightDump> {
        std::mem::take(&mut self.core.dumps)
    }

    /// Takes ownership of the telemetry recorded so far, in canonical
    /// series order (the fleet engine moves it into the cell outcome).
    /// Empty unless a `TelemetrySession` was recording.
    pub fn take_telemetry(&mut self) -> MetricsRegistry {
        let mut registry = std::mem::take(&mut self.telemetry);
        registry.sort();
        registry
    }

    /// Captures an on-demand dump of the black-box window right now.
    pub fn dump_flight(&mut self) -> FlightDump {
        let frame = self.core.stats.frames.saturating_sub(1);
        self.count("flight_dump_total", DumpTrigger::Manual.name(), 1);
        self.core.dump(DumpTrigger::Manual, frame)
    }

    /// The safety guard's trip log, in frame order.
    pub fn guard_events(&self) -> &[GuardEvent] {
        self.guard.events()
    }

    /// The safety guard's counters (digest checks, trips per monitor).
    pub fn guard_stats(&self) -> &GuardStats {
        self.guard.stats()
    }

    /// Processes one camera frame under supervision: injects the
    /// frame's faults, verifies the delivered payload against its
    /// capture digest, steers the pipeline around failed stages, runs
    /// the stage-boundary monitors on the outputs, settles the
    /// degraded-mode state machine, and adjusts the motion plan for
    /// the active modes.
    pub fn process(&mut self, image: &GrayImage, time_s: f64) -> SupervisedFrameResult {
        // Single source of truth with the batched path: the inline
        // path is exactly stage + finish, minus the batch-request
        // packaging (no resize/tensor work is wasted — `detect` does
        // its own).
        let staged = self.stage_frame_inner(image, time_s, false);
        self.finish_frame(staged, None)
    }

    /// First half of [`Supervisor::process`], up to the cross-vehicle
    /// batching hand-off point: injects the frame's faults, verifies
    /// the delivered payload against its capture digest, plans the
    /// frame, and packages the detector's prepared DNN input (if any)
    /// into the returned [`StagedFrame`]. A fleet batch runner
    /// collects requests from many vehicles' staged frames, executes
    /// one batched forward pass per model, and hands each vehicle's
    /// detections back through [`Supervisor::finish_frame`].
    pub fn stage_frame(&mut self, image: &GrayImage, time_s: f64) -> StagedFrame {
        self.stage_frame_inner(image, time_s, true)
    }

    fn stage_frame_inner(
        &mut self,
        image: &GrayImage,
        time_s: f64,
        want_request: bool,
    ) -> StagedFrame {
        let faults = self.injector.next_frame();
        // A scheduled crash takes down the whole frame before any
        // pipeline state mutates: the injector has advanced (so the
        // schedule is burned, exactly like a real crash losing the
        // frame) but the pipeline, guard and mode machine have not.
        // The panic payload is typed so containment layers can tell
        // injected crashes from genuine bugs.
        if self.crash_armed {
            if let Some(stage) = faults.crash {
                std::panic::panic_any(InjectedCrash { frame: faults.frame, stage });
            }
        }
        let marks = self.marks();
        let mut plan = self.core.plan(&faults);
        let frame = faults.frame;
        // The sensor clock the pipeline sees, skew included.
        let delivered_time_s = time_s + faults.time_skew_s.unwrap_or(0.0);

        // Sensor faults perturb the frame before the pipeline sees it.
        // `last` is the previously delivered payload — a stuck sensor
        // re-delivers it verbatim. The staged frame owns its payload
        // so it can outlive the caller's borrow until `finish_frame`.
        let last = self.last_delivered.take();
        let mut img: GrayImage = if faults.blackout {
            blackout_frame(image)
        } else if faults.stuck {
            // Wedged on the very first frame: nothing older to repeat.
            last.clone().unwrap_or_else(|| image.clone())
        } else if let Some(pc) = faults.pixel_corruption {
            corrupt_pixels(image, pc.fraction, pc.salt)
        } else {
            image.clone()
        };

        // Checksummed data plane: the digest travels with the capture;
        // the delivered payload is re-hashed at the pipeline boundary.
        // The optional dual-execution vote asks the sensor once more —
        // persistent faults (blackout, stuck) reproduce on the second
        // delivery, transient transport corruption does not.
        let mut data_bad = false;
        let mut payload_digest = 0u64;
        if self.core.cfg.guard != GuardConfig::Off {
            let expected = digest_image(image);
            payload_digest = expected.0;
            let (dv, replacement) = self.guard.check_delivery(frame, expected, &img, || {
                if faults.blackout {
                    blackout_frame(image)
                } else if faults.stuck {
                    last.clone().unwrap_or_else(|| image.clone())
                } else {
                    image.clone()
                }
            });
            if let Some(r) = replacement {
                img = r;
            }
            data_bad = dv.is_bad();
        }

        // A payload the guard distrusts must not feed the detector:
        // force tracker-only perception for the frame.
        if data_bad && !plan.skip_detection {
            plan.skip_detection = true;
            plan.detection_cause =
                Some(DegradationCause::MonitorTripped { monitor: Monitor::DataPlane });
        }

        // Remember what was delivered (for next frame's stuck replay),
        // but only when stuck faults can occur — the clone is a whole
        // frame.
        if self.injector.config().stuck_rate > 0.0 {
            self.last_delivered = Some(img.clone());
        }

        let ctrl = ProcessControl {
            skip_detection: plan.skip_detection,
            skip_localization: plan.skip_localization,
            pose_fallback: self.core.fallback_pose(plan.skip_localization),
            track_shift: faults.tracker_shift,
            quality: plan.quality,
        };
        let request =
            if want_request { self.pipeline.det_batch_request(&img, &ctrl) } else { None };
        StagedFrame {
            faults,
            plan,
            ctrl,
            delivered_time_s,
            img,
            payload_digest,
            data_bad,
            request,
            marks,
        }
    }

    /// Second half of [`Supervisor::process`]: runs the pipeline on
    /// the staged payload (skipping detection when `det_override`
    /// carries the batched result), applies the stage-boundary
    /// monitors, settles the degraded-mode state machine and adjusts
    /// the motion plan. `det_override = None` runs any un-batched
    /// detection inline — bit-identical to [`Supervisor::process`].
    pub fn finish_frame(
        &mut self,
        staged: StagedFrame,
        det_override: Option<Vec<Detection>>,
    ) -> SupervisedFrameResult {
        let StagedFrame {
            faults,
            plan,
            ctrl,
            delivered_time_s,
            img,
            payload_digest,
            data_bad,
            request: _,
            marks,
        } = staged;
        let frame = faults.frame;
        let mut out = self.pipeline.process_with_det(&img, delivered_time_s, &ctrl, det_override);

        // Reported latency: measured wall clock plus virtual fault
        // latency (spikes, stall retries, watchdog waits). Only the
        // deadline-miss count reads it.
        let reported = FrameLatency {
            detection: out.latency.detection + plan.extra.detection,
            tracking: out.latency.tracking + plan.extra.tracking,
            localization: out.latency.localization + plan.extra.localization,
            fusion: out.latency.fusion + plan.extra.fusion,
            motion_planning: out.latency.motion_planning + plan.extra.motion_planning,
        };

        // Stage-boundary invariant monitors on this frame's outputs.
        let dets =
            if plan.skip_detection { None } else { Some(out.detections.as_slice()) };
        let gv = self.guard.check_frame(
            frame,
            delivered_time_s,
            dets,
            &out.tracks,
            out.pose,
            &out.fused,
            &out.plan,
        );
        let monitors = MonitorFlags {
            detection: gv.tripped(Monitor::Detection),
            tracker: gv.tripped(Monitor::Tracker),
            localization: gv.tripped(Monitor::Localization),
            planner: gv.tripped(Monitor::Planner),
            data: data_bad,
        };

        let verdict = self.core.settle(
            &faults,
            out.pose,
            &plan,
            reported.end_to_end(),
            monitors,
            payload_digest,
        );
        if verdict.safe_stop {
            out.plan = MotionPlan::EmergencyStop;
        } else if let Some(factor) = verdict.speed_factor {
            if let MotionPlan::Trajectory(t) = &mut out.plan {
                t.speed_mps *= factor;
            }
        }

        let done = SupervisedFrameResult {
            result: out,
            faults,
            modes: self.core.active_modes(),
            guard: guard_delta(&marks.guard, self.guard.stats()),
        };
        if adsim_telemetry::enabled() {
            self.record_frame_telemetry(&plan, &ctrl, &marks, verdict.dump, &done);
        }
        done
    }

    /// Adds `n` to one of this vehicle's counters while a session records.
    fn count(&mut self, metric: &'static str, stage: &'static str, n: u64) {
        if adsim_telemetry::enabled() {
            self.telemetry.counter_add(metric, self.core.cfg.vehicle, stage, n);
        }
    }

    /// Where the logs the frame telemetry is derived from stand now.
    fn marks(&self) -> LogMarks {
        LogMarks {
            events: self.core.events.len(),
            switches: self.core.governor.events().len(),
            guard: *self.guard.stats(),
        }
    }

    /// Records one settled frame's series: the supervisor's virtual
    /// costs, the pipeline's outputs, the frame's flight dump and
    /// guard counts, and counters for everything the degradation and
    /// governor logs gained since `marks`. Virtual-clock quantities
    /// only, so the registry stays a pure function of the spec. Called
    /// only while a session records.
    fn record_frame_telemetry(
        &mut self,
        plan: &StagePlan,
        ctrl: &ProcessControl,
        marks: &LogMarks,
        dump: Option<DumpTrigger>,
        done: &SupervisedFrameResult,
    ) {
        let (frame, out) = (done.faults.frame, &done.result);
        let stage_virtual_ms = self.core.stage_virtual_ms(plan);
        let (v, r) = (self.core.cfg.vehicle, &mut self.telemetry);
        r.counter_add("sup_frames_total", v, "", 1);
        if plan.virtual_e2e_ms > DEADLINE_MS {
            r.counter_add("sup_virtual_deadline_miss_total", v, "", 1);
        }
        for (c, ms) in Component::ALL.into_iter().zip(stage_virtual_ms) {
            r.observe_ms("stage_virtual_ms", v, c.key(), ms);
        }
        r.observe_ms("e2e_virtual_ms", v, "", plan.virtual_e2e_ms);
        if let Some(err) = plan.forecast_err_ms {
            r.observe_ms("anytime_forecast_abs_err_ms", v, "", err);
        }
        if self.core.governor.enabled() {
            r.gauge_set("sup_quality_level", v, "", frame, self.core.governor.level() as f64);
        }
        r.counter_add("pipeline_frame_total", v, "", 1);
        if !ctrl.skip_detection {
            let dets = out.detections.len() as u64;
            r.counter_add("pipeline_detection_total", v, Component::Detection.key(), dets);
        }
        let tracks = out.tracks.len() as f64;
        let tra = Component::Tracking.key();
        r.gauge_set("pipeline_track_count", v, tra, self.pipeline.frames, tracks);

        // `get`: a (forbidden) restore since staging may have shortened
        // the logs; it must not panic here.
        for e in self.core.events.get(marks.events..).unwrap_or_default() {
            match e.kind {
                DegradationEventKind::Entered { mode, .. } => {
                    r.counter_add("sup_mode_enter_total", v, mode.name(), 1);
                    if mode == DegradedMode::SafeStop {
                        r.counter_add("sup_safe_stop_total", v, "", 1);
                    }
                }
                DegradationEventKind::Exited { mode, .. } => {
                    r.counter_add("sup_mode_exit_total", v, mode.name(), 1);
                }
                DegradationEventKind::Retry { stage, .. } => {
                    r.counter_add("sup_retry_total", v, stage.key(), 1);
                }
                // Pushed between frames; `record_restart` counts it.
                DegradationEventKind::Restart { .. } => {}
            }
        }
        let switches = self.core.governor.events().get(marks.switches..).unwrap_or_default();
        for e in switches {
            let direction = if e.degrade { "degrade" } else { "upgrade" };
            r.counter_add("anytime_switch_total", v, direction, 1);
        }
        if let Some(trigger) = dump {
            r.counter_add("flight_dump_total", v, trigger.name(), 1);
        }
        let g = &done.guard;
        let trips = "guard_monitor_trip_total";
        for (metric, stage, n) in [
            ("guard_digest_check_total", "", g.digest_checks),
            ("guard_stuck_total", "", g.stuck_detected),
            ("guard_digest_mismatch_total", "", g.digest_mismatches),
            ("guard_dual_recovered_total", "", g.dual_recovered),
            (trips, "det", g.det_trips),
            (trips, "tra", g.tra_trips),
            (trips, "loc", g.loc_trips),
            (trips, "plan", g.plan_trips),
            (trips, "data", g.stuck_detected + g.digest_mismatches),
        ] {
            // The guard counted events, so an idle counter has no series.
            if n > 0 {
                r.counter_add(metric, v, stage, n);
            }
        }
    }

    /// Arms or disarms scheduled crash faults. The recovery layer
    /// disarms crashes while deterministically replaying the frames
    /// between the restored checkpoint and the crash (transient-crash
    /// semantics: a restarted process does not re-crash on the frames
    /// it is re-executing) and re-arms them afterwards.
    pub fn set_crash_armed(&mut self, armed: bool) {
        self.crash_armed = armed;
    }

    /// Snapshots every piece of mutable per-frame state into a
    /// checkpoint: the pipeline (trackers, localizer pose + map
    /// overlay, fusion history, planner), the fault injector's
    /// schedule position, the degradation state machine (governor
    /// forecaster included), the safety guard and the stuck-sensor
    /// replay payload. Restoring it resumes the run bit-identically
    /// from the checkpointed frame. `crash_armed` is deliberately
    /// excluded — arming is the recovery layer's execution policy.
    pub fn checkpoint(&self) -> SupervisorCheckpoint {
        SupervisorCheckpoint {
            pipeline: self.pipeline.snapshot(),
            injector: self.injector.clone(),
            core: self.core.clone(),
            guard: self.guard.clone(),
            last_delivered: self.last_delivered.clone(),
        }
    }

    /// Rewinds the supervisor to a checkpoint taken earlier on this
    /// same supervisor. The inverse of [`Supervisor::checkpoint`]. The
    /// telemetry recorded so far is kept: frames replayed after the
    /// restore are counted again.
    pub fn restore(&mut self, ck: &SupervisorCheckpoint) {
        self.pipeline.restore(&ck.pipeline);
        self.injector = ck.injector.clone();
        self.core = ck.core.clone();
        self.guard = ck.guard.clone();
        self.last_delivered = ck.last_delivered.clone();
    }

    /// Records a contained stage crash at `frame`, after the restore:
    /// bumps the crash counter, pushes a synthetic crash record into
    /// the black box (the crashed frame itself never settled, so no
    /// organic record exists for it) and dumps the flight ring with
    /// the panic payload attached. Call *after* [`Supervisor::restore`]
    /// so the audit trail survives any later restore.
    pub fn record_cell_crash(&mut self, frame: u64, stage: Component, panic_msg: &str) {
        use adsim_telemetry as t;
        self.core.stats.crashes += 1;
        self.count("sup_crash_total", stage.key(), 1);
        self.core.recorder.push(FrameRecord {
            frame,
            fault_bits: t::FAULT_CRASH,
            crashed: true,
            panic_msg: t::truncate_panic_msg(panic_msg),
            ..FrameRecord::default()
        });
        self.count("flight_dump_total", DumpTrigger::CellCrash.name(), 1);
        self.core.dump(DumpTrigger::CellCrash, frame);
    }

    /// Records a completed crash restart: checkpoint restored at
    /// `checkpoint_frame`, `replayed` frames re-executed to catch up
    /// to the crash at `frame`. Pushes a [`DegradationEventKind::Restart`]
    /// audit event and bumps the restart counters.
    pub fn record_restart(
        &mut self,
        frame: u64,
        stage: Component,
        checkpoint_frame: u64,
        replayed: u64,
    ) {
        self.core.stats.restarts += 1;
        self.core.stats.replayed_frames += replayed;
        self.count("sup_restart_total", stage.key(), 1);
        self.core.events.push(DegradationEvent {
            frame,
            kind: DegradationEventKind::Restart { stage, checkpoint_frame, replayed },
        });
    }

    /// Latches the terminal safe stop after the restart budget is
    /// exhausted: every frame from here on settles into SafeStop with
    /// [`DegradationCause::RestartsExhausted`], and no healthy streak
    /// recovers out of it.
    pub fn record_crash_exhausted(&mut self) {
        self.core.terminal_safe_stop = true;
    }
}

/// Everything [`Supervisor::restore`] needs to resume a run
/// bit-identically from a checkpointed frame boundary: the pipeline
/// snapshot, the fault injector (schedule position and RNG streams),
/// the degradation state machine (stats, events, governor, black-box
/// ring, flight dumps), the safety guard (previous-frame monitors,
/// trip log) and the stuck-sensor replay payload.
///
/// Produced by [`Supervisor::checkpoint`]. The checkpoint is a deep
/// value: holding one does not alias the live supervisor (the SLAM
/// map shares its immutable prior via `Arc`; the mutable overlay is
/// deep-copied).
#[derive(Clone)]
pub struct SupervisorCheckpoint {
    pipeline: PipelineSnapshot,
    injector: FaultInjector,
    core: SupervisorCore,
    guard: PipelineGuard,
    last_delivered: Option<GrayImage>,
}

impl std::fmt::Debug for SupervisorCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorCheckpoint")
            .field("frames", &self.core.stats.frames)
            .field("approx_bytes", &self.approx_bytes())
            .finish_non_exhaustive()
    }
}

impl SupervisorCheckpoint {
    /// Frames the checkpointed supervisor had settled — the frame
    /// index execution resumes from after a restore.
    pub fn frames_done(&self) -> u64 {
        self.core.stats.frames
    }

    /// Rough in-memory footprint of the checkpoint: the pipeline
    /// snapshot estimate plus the event log, black-box ring, captured
    /// dumps and the optional retained sensor payload. Deterministic
    /// (no allocator introspection) so benches can report it.
    pub fn approx_bytes(&self) -> usize {
        let events = self.core.events.len() * std::mem::size_of::<DegradationEvent>();
        let ring = self.core.recorder.len() * std::mem::size_of::<FrameRecord>();
        let dumps: usize = self
            .core
            .dumps
            .iter()
            .map(|d| d.records.len() * std::mem::size_of::<FrameRecord>())
            .sum();
        let payload = self
            .last_delivered
            .as_ref()
            .map(|img| img.width() * img.height())
            .unwrap_or(0);
        self.pipeline.approx_bytes() + events + ring + dumps + payload
    }
}

/// The supervisor mirrored over [`ModeledPipeline`]: stage latencies
/// come from the calibrated distributions, faults perturb them, and
/// the same [`SupervisorCore`] policy reacts — cheap large-frame
/// campaigns with the identical transition semantics.
///
/// Crash faults are *not* executed here: the modeled pipeline has no
/// per-frame state worth checkpointing, so a scheduled crash is a
/// no-op beyond its fault-bit in the flight record. Crash containment
/// and restart-replay recovery are native-pipeline features.
#[derive(Debug)]
pub struct ModeledSupervisor {
    pipeline: ModeledPipeline,
    injector: FaultInjector,
    core: SupervisorCore,
}

impl ModeledSupervisor {
    /// Wraps a modeled pipeline with a fault schedule and policy.
    pub fn new(pipeline: ModeledPipeline, injector: FaultInjector, cfg: SupervisorConfig) -> Self {
        Self { pipeline, injector, core: SupervisorCore::new(cfg) }
    }

    /// The degradation-event log, in frame order.
    pub fn events(&self) -> &[DegradationEvent] {
        &self.core.events
    }

    /// Recovery metrics so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.core.stats()
    }

    /// The anytime governor's quality-switch log, in frame order
    /// (empty when the governor is disabled).
    pub fn governor_events(&self) -> &[GovernorEvent] {
        self.core.governor.events()
    }

    /// Closes the run: emits exit events for every still-open degraded
    /// mode (a safe stop is left open as a valid terminal state) and
    /// settles episode accounting. Call once after the last frame;
    /// idempotent.
    pub fn finish(&mut self) {
        self.core.finish();
    }

    /// Simulates one supervised frame, returning the reported latency.
    ///
    /// Degraded stages cost what their degraded implementations cost:
    /// a skipped detection is free (tracker predictions only), and a
    /// dead-reckoned pose costs a constant extrapolation instead of a
    /// localization sample. The modeled pipeline has no natural
    /// localization misses, so lock loss is purely injected.
    pub(crate) fn simulate_frame(&mut self, pixel_ratio: f64) -> FrameLatency {
        let faults = self.injector.next_frame();
        let plan = self.core.plan(&faults);
        let base = self.pipeline.simulate_frame(pixel_ratio);
        // Quality-reduced stages cost their scaled nominal share; the
        // factors are exactly 1.0 with the governor off, keeping the
        // governor-off latency stream bit-identical.
        let det_factor = self.core.quality_factor(Component::Detection);
        let tra_factor = self.core.quality_factor(Component::Tracking);
        let reported = FrameLatency {
            detection: if plan.skip_detection { 0.0 } else { base.detection * det_factor }
                + plan.extra.detection,
            tracking: base.tracking * tra_factor + plan.extra.tracking,
            localization: if plan.skip_localization { DEAD_RECKON_MS } else { base.localization }
                + plan.extra.localization,
            fusion: base.fusion + plan.extra.fusion,
            motion_planning: base.motion_planning + plan.extra.motion_planning,
        };
        let pose = if plan.skip_localization { None } else { Some(Pose2::default()) };
        self.core.settle(
            &faults,
            pose,
            &plan,
            reported.end_to_end(),
            MonitorFlags::default(),
            0,
        );
        reported
    }

    /// Simulates `frames` supervised frames, recording reported
    /// latencies, and returns the distributions with the recovery
    /// metrics.
    pub fn simulate(&mut self, frames: usize, pixel_ratio: f64) -> (PipelineStats, RecoveryStats) {
        let mut stats = PipelineStats::with_capacity(frames);
        for _ in 0..frames {
            let f = self.simulate_frame(pixel_ratio);
            stats.record(&f);
        }
        (stats, self.recovery_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use adsim_faults::FaultConfig;
    use adsim_platform::Platform;

    fn modeled(seed: u64, cfg: FaultConfig) -> ModeledSupervisor {
        ModeledSupervisor::new(
            ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 1),
            FaultInjector::new(seed, cfg),
            SupervisorConfig::default(),
        )
    }

    #[test]
    fn clean_run_never_degrades() {
        let mut sup = modeled(0, FaultConfig::off());
        let (_, rec) = sup.simulate(2_000, 1.0);
        assert_eq!(rec.frames, 2_000);
        assert_eq!(rec.frames_degraded, 0);
        assert!(sup.events().is_empty());
        assert!(!rec.degraded_at_end);
    }

    #[test]
    fn lock_loss_enters_and_exits_dead_reckoning() {
        let cfg = FaultConfig { lock_loss_rate: 0.05, ..FaultConfig::off() };
        let mut sup = modeled(11, cfg);
        let (_, rec) = sup.simulate(2_000, 1.0);
        assert!(rec.frames_degraded > 0);
        assert!(rec.episodes > 0, "degradation must recover");
        assert!(rec.mean_time_to_recover() > 0.0);
        let entered = sup.events().iter().any(|e| {
            matches!(
                e.kind,
                DegradationEventKind::Entered { mode: DegradedMode::DeadReckoning, .. }
            )
        });
        let exited = sup.events().iter().any(|e| {
            matches!(e.kind, DegradationEventKind::Exited { mode: DegradedMode::DeadReckoning, .. })
        });
        assert!(entered && exited);
    }

    #[test]
    fn sustained_blackout_forces_safe_stop_then_recovers() {
        let cfg = FaultConfig {
            blackout_rate: 0.02,
            blackout_frames: (6, 8),
            ..FaultConfig::off()
        };
        let mut sup = modeled(3, cfg);
        let (_, rec) = sup.simulate(3_000, 1.0);
        assert!(rec.safe_stops > 0, "6-frame blackouts must trip the 4-frame threshold");
        assert!(rec.safe_stop_frames >= rec.safe_stops);
        let exited_safe = sup.events().iter().any(|e| {
            matches!(e.kind, DegradationEventKind::Exited { mode: DegradedMode::SafeStop, .. })
        });
        assert!(exited_safe, "safe stop must clear after recovery");
    }

    #[test]
    fn stall_beyond_retry_budget_goes_tracker_only() {
        let cfg = FaultConfig {
            stall_rate: 0.05,
            stall_attempts: (4, 5), // beyond the default budget of 2
            ..FaultConfig::off()
        };
        let mut sup = modeled(5, cfg);
        let (_, rec) = sup.simulate(1_000, 1.0);
        assert!(rec.retries > 0);
        let tracker_only = sup.events().iter().any(|e| {
            matches!(
                e.kind,
                DegradationEventKind::Entered {
                    mode: DegradedMode::TrackerOnly,
                    cause: DegradationCause::DetectionStalled { .. },
                }
            )
        });
        assert!(tracker_only);
    }

    #[test]
    fn spike_over_budget_trips_watchdog() {
        let cfg = FaultConfig {
            latency_spike_rate: 0.05,
            latency_spike_ms: (80.0, 120.0), // over the 50 ms stage budget
            ..FaultConfig::off()
        };
        let mut sup = modeled(9, cfg);
        sup.simulate(1_000, 1.0);
        let over_budget = sup.events().iter().any(|e| {
            matches!(
                e.kind,
                DegradationEventKind::Entered {
                    mode: DegradedMode::TrackerOnly,
                    cause: DegradationCause::DetectionOverBudget { .. },
                }
            )
        });
        assert!(over_budget);
    }

    #[test]
    fn retry_backoff_is_clamped_on_absurd_budgets() {
        // A config asking for effectively unbounded retries must not
        // wrap the backoff exponent or charge unbounded virtual time:
        // retries cap at 32 per frame and each backoff saturates at
        // the stage budget.
        let faults = FaultConfig {
            stall_rate: 1.0,
            stall_attempts: (10_000, 20_000),
            ..FaultConfig::off()
        };
        let sup_cfg = SupervisorConfig { max_retries: u32::MAX, ..SupervisorConfig::default() };
        let mut sup = ModeledSupervisor::new(
            ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 1),
            FaultInjector::new(17, faults),
            sup_cfg.clone(),
        );
        let lat = sup.simulate_frame(1.0);
        assert!(lat.end_to_end().is_finite());
        let rec = sup.recovery_stats();
        assert!(rec.retries <= 32, "retries {} beyond the hard cap", rec.retries);
        assert!(rec.retries > 0);
        for e in sup.events() {
            if let DegradationEventKind::Retry { backoff_ms, .. } = e.kind {
                assert!(backoff_ms.is_finite());
                assert!(backoff_ms <= STAGE_BUDGET_MS, "backoff {backoff_ms}");
            }
        }
    }

    fn native_supervisor(seed: u64, faults: FaultConfig) -> Supervisor {
        use adsim_workload::{Resolution, Scenario, ScenarioKind};
        let scenario = Scenario::new(ScenarioKind::UrbanDrive, 11);
        let camera = scenario.camera(Resolution::Hhd);
        let poses = (0..10).map(|i| scenario.pose_at(i * 10)).collect::<Vec<_>>();
        let map = crate::native::build_prior_map(scenario.world(), &camera, poses, 200, 25);
        let mut pipe =
            NativePipeline::new(camera, map, crate::native::NativePipelineConfig::default());
        pipe.seed_pose(scenario.pose_at(0));
        Supervisor::new(pipe, FaultInjector::new(seed, faults), SupervisorConfig::default())
    }

    #[test]
    fn armed_crash_fault_panics_with_typed_payload() {
        use adsim_workload::{Resolution, Scenario, ScenarioKind};
        let scenario = Scenario::new(ScenarioKind::UrbanDrive, 11);
        let crashy = FaultConfig { crash_rate: 1.0, ..FaultConfig::off() };
        let mut sup = native_supervisor(7, crashy.clone());
        let frame = scenario.stream(Resolution::Hhd).next().unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sup.process(&frame.image, frame.time_s)
        }))
        .expect_err("crash_rate=1 must panic on the first frame");
        let crash = err.downcast_ref::<InjectedCrash>().expect("typed payload");
        assert_eq!(crash.frame, 0);
        // The schedule is burned: the injector advanced before the
        // panic, exactly like a real crash losing the frame.
        assert_eq!(sup.injector.events().len(), 1);

        // Disarmed, the same schedule completes the frame normally.
        let mut sup = native_supervisor(7, crashy);
        sup.set_crash_armed(false);
        let out = sup.process(&frame.image, frame.time_s);
        assert!(out.faults.crash.is_some(), "fault still scheduled, just not executed");
        assert_eq!(sup.recovery_stats().frames, 1);
    }

    #[test]
    fn checkpoint_restore_replays_bit_identically() {
        use adsim_workload::{Resolution, Scenario, ScenarioKind};
        let scenario = Scenario::new(ScenarioKind::UrbanDrive, 11);
        let faults = FaultConfig::stress();
        let mut sup = native_supervisor(21, faults);
        let frames: Vec<_> = scenario.stream(Resolution::Hhd).take(6).collect();
        let mut first = Vec::new();
        let mut ck = None;
        for (i, frame) in frames.iter().enumerate() {
            if i == 3 {
                ck = Some(sup.checkpoint());
            }
            let out = sup.process(&frame.image, frame.time_s);
            first.push((out.result.pose, format!("{:?}", out.result.plan)));
        }
        let end_events = format!("{:?}", sup.events());
        // `deadline_misses` counts reported latency, which includes wall
        // clock and so moves with host load between the two passes;
        // every other field is a pure function of the seeds.
        let seeded = |s: RecoveryStats| RecoveryStats { deadline_misses: 0, ..s };
        let end_stats = seeded(sup.recovery_stats());

        let ck = ck.expect("checkpoint taken at frame 3");
        assert_eq!(ck.frames_done(), 3);
        assert!(ck.approx_bytes() > 0);
        sup.restore(&ck);
        assert_eq!(sup.recovery_stats().frames, 3, "restore rewinds the frame count");
        let mut second = Vec::new();
        for frame in &frames[3..] {
            let out = sup.process(&frame.image, frame.time_s);
            second.push((out.result.pose, format!("{:?}", out.result.plan)));
        }
        assert_eq!(second, first[3..], "replay from the checkpoint is bit-identical");
        assert_eq!(format!("{:?}", sup.events()), end_events);
        assert_eq!(seeded(sup.recovery_stats()), end_stats);
    }

    #[test]
    fn exhausted_restarts_latch_a_terminal_safe_stop() {
        let mut sup = modeled(0, FaultConfig::off());
        sup.core.terminal_safe_stop = true;
        let (_, rec) = sup.simulate(50, 1.0);
        assert_eq!(rec.safe_stop_frames, 50, "no healthy streak recovers a terminal stop");
        let entered = sup.events().iter().any(|e| {
            matches!(
                e.kind,
                DegradationEventKind::Entered {
                    mode: DegradedMode::SafeStop,
                    cause: DegradationCause::RestartsExhausted { .. },
                }
            )
        });
        assert!(entered, "safe stop must cite the exhausted restart budget");
    }

    #[test]
    fn flight_record_mode_bits_match_the_telemetry_layout() {
        use adsim_telemetry as t;
        for (mode, bit) in [
            (DegradedMode::TrackerOnly, t::MODE_TRACKER_ONLY),
            (DegradedMode::DeadReckoning, t::MODE_DEAD_RECKONING),
            (DegradedMode::SpeedReduced, t::MODE_SPEED_REDUCED),
            (DegradedMode::SafeStop, t::MODE_SAFE_STOP),
            (DegradedMode::QualityReduced, t::MODE_QUALITY_REDUCED),
        ] {
            assert_eq!(DegradedMode::ALL[mode as usize], mode);
            let mut core = SupervisorCore::new(SupervisorConfig::default());
            core.since[mode as usize] = Some(0);
            let faults = FrameFaults::default();
            let plan = core.plan(&faults);
            core.record_frame(&faults, &plan, MonitorFlags::default(), 0, 0);
            let dump = core.recorder.dump(0, DumpTrigger::Manual, 0);
            assert_eq!(dump.records[0].mode_bits, bit, "{mode}");
        }
    }

    #[test]
    fn event_log_is_reproducible() {
        let run = |seed| {
            let mut sup = modeled(seed, FaultConfig::stress());
            sup.simulate(1_500, 1.0);
            sup.events().to_vec()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn events_render_for_the_log() {
        let mut sup = modeled(7, FaultConfig::stress());
        sup.simulate(500, 1.0);
        assert!(!sup.events().is_empty());
        for e in sup.events() {
            assert!(e.to_string().starts_with("frame "));
        }
    }

    #[test]
    fn transition_instants_name_the_displayed_mode() {
        for mode in DegradedMode::ALL {
            for entered in [true, false] {
                let dir = if entered { "enter" } else { "exit" };
                assert_eq!(transition_instant(mode, entered), format!("degrade.{dir}.{mode}"));
            }
        }
    }
}
