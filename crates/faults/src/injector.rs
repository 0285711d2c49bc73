use crate::config::FaultConfig;
use adsim_platform::Component;
use adsim_stats::Rng64;

/// Cost of each stalled attempt (ms), charged per retry.
const STALL_MS: f64 = 5.0;

/// Salt-and-pepper corruption parameters for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelCorruption {
    /// Fraction of pixels overwritten.
    pub fraction: f64,
    /// Seed for the pixel positions/values (derived per frame).
    pub salt: u64,
}

/// A wedged stage worker: the stage must be retried `attempts` times
/// before it produces output, each attempt costing `stall_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStall {
    /// Stage whose worker stalled.
    pub stage: Component,
    /// Failed attempts before the worker clears.
    pub attempts: u32,
    /// Cost per failed attempt (ms).
    pub stall_ms: f64,
}

/// The typed panic payload of an executed crash fault. The supervisor
/// raises it with `std::panic::panic_any`, so containment layers
/// (`adsim-fleet`, `adsim-recovery`) can downcast the payload back to
/// the exact stage and frame that died instead of scraping a panic
/// string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Frame being processed when the stage panicked.
    pub frame: u64,
    /// Stage that panicked.
    pub stage: Component,
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash: {} stage panicked at frame {}", self.stage, self.frame)
    }
}

/// Everything injected into one frame. `FrameFaults::default()` (all
/// fields inert) is a clean frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameFaults {
    /// Frame index this schedule entry belongs to.
    pub frame: u64,
    /// Camera delivers an all-black frame.
    pub blackout: bool,
    /// Sensor is stuck: it re-delivers its previous output frame.
    pub stuck: bool,
    /// Salt-and-pepper noise on the camera frame.
    pub pixel_corruption: Option<PixelCorruption>,
    /// Added latency per stage (ms), at most one entry per stage.
    pub spikes: Vec<(Component, f64)>,
    /// SLAM returns no pose this frame.
    pub lock_loss: bool,
    /// Every reported track box drifts by this normalized offset.
    pub tracker_shift: Option<(f32, f32)>,
    /// A stage worker is wedged and needs retries.
    pub stall: Option<WorkerStall>,
    /// Offset added to the frame's capture timestamp (s).
    pub time_skew_s: Option<f64>,
    /// Sustained latency drift: per-stage load multipliers (> 1.0)
    /// for every stage currently inside a drift episode, in pipeline
    /// order. A stage at load `l` costs `l ×` its nominal this frame.
    pub drift: Vec<(Component, f64)>,
    /// The scheduled stage panic for this frame, if any (at most one
    /// stage crashes per frame; the earliest pipeline stage whose
    /// sub-stream fired wins).
    pub crash: Option<Component>,
}

impl FrameFaults {
    /// True when nothing was injected this frame.
    pub fn is_clean(&self) -> bool {
        !self.blackout
            && !self.stuck
            && self.pixel_corruption.is_none()
            && self.spikes.is_empty()
            && !self.lock_loss
            && self.tracker_shift.is_none()
            && self.stall.is_none()
            && self.time_skew_s.is_none()
            && self.drift.is_empty()
            && self.crash.is_none()
    }
}

/// One entry of the injector's own event log (what was injected and
/// when) — the ground truth a supervisor's `DegradationEvent` log is
/// compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Frame the fault fired on.
    pub frame: u64,
    /// What fired.
    pub kind: FaultKind,
}

/// The fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A sensor blackout began.
    BlackoutStarted {
        /// Outage length in frames.
        frames: u32,
    },
    /// The sensor wedged and began repeating its last output frame.
    StuckFrameStarted {
        /// Outage length in frames.
        frames: u32,
    },
    /// Salt-and-pepper noise hit the camera frame.
    PixelCorruption {
        /// Fraction of pixels overwritten.
        fraction: f64,
    },
    /// A stage took an injected latency hit.
    LatencySpike {
        /// Stage hit.
        stage: Component,
        /// Added latency (ms).
        extra_ms: f64,
    },
    /// The localizer lost lock.
    LockLossStarted {
        /// Outage length in frames.
        frames: u32,
    },
    /// Tracker output diverged.
    TrackerDivergence {
        /// Normalized x offset.
        dx: f32,
        /// Normalized y offset.
        dy: f32,
    },
    /// A stage worker wedged.
    WorkerStall {
        /// Stage whose worker stalled.
        stage: Component,
        /// Failed attempts before it clears.
        attempts: u32,
    },
    /// The frame's capture timestamp was skewed.
    TimestampSkew {
        /// Offset added to the timestamp (s).
        skew_s: f64,
    },
    /// A sustained latency drift began on a stage: its cost ramps by
    /// `per_frame × nominal` each frame for `frames` frames.
    LatencyDriftStarted {
        /// Stage whose cost is drifting.
        stage: Component,
        /// Episode length in frames.
        frames: u32,
        /// Per-frame load growth (fraction of nominal).
        per_frame: f64,
    },
    /// A transient software crash was scheduled: the stage panics
    /// while processing the frame.
    StageCrash {
        /// Stage that panics.
        stage: Component,
    },
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {:>5}: ", self.frame)?;
        match self.kind {
            FaultKind::BlackoutStarted { frames } => {
                write!(f, "sensor blackout for {frames} frame(s)")
            }
            FaultKind::StuckFrameStarted { frames } => {
                write!(f, "sensor stuck for {frames} frame(s)")
            }
            FaultKind::PixelCorruption { fraction } => {
                write!(f, "pixel corruption ({:.1}% of pixels)", fraction * 100.0)
            }
            FaultKind::LatencySpike { stage, extra_ms } => {
                write!(f, "latency spike on {stage} (+{extra_ms:.1} ms)")
            }
            FaultKind::LockLossStarted { frames } => {
                write!(f, "localizer lock loss for {frames} frame(s)")
            }
            FaultKind::TrackerDivergence { dx, dy } => {
                write!(f, "tracker divergence ({dx:+.3}, {dy:+.3})")
            }
            FaultKind::WorkerStall { stage, attempts } => {
                write!(f, "worker stall on {stage} ({attempts} attempt(s))")
            }
            FaultKind::TimestampSkew { skew_s } => {
                write!(f, "timestamp skew ({skew_s:+.3} s)")
            }
            FaultKind::LatencyDriftStarted { stage, frames, per_frame } => {
                write!(
                    f,
                    "latency drift on {stage} (+{:.1}%/frame for {frames} frame(s))",
                    per_frame * 100.0
                )
            }
            FaultKind::StageCrash { stage } => {
                write!(f, "stage crash on {stage} (injected panic)")
            }
        }
    }
}

/// A fault class the injector draws independently each frame. Each
/// class owns a private RNG stream derived from
/// `seed ^ mix(frame) ^ mix(class salt)`, so the draw for one class is
/// a pure function of `(seed, config, frame)` — independent of every
/// other class and of the order the classes are evaluated in. This is
/// the draw-order-stability contract `crates/faults/tests/draw_order.rs`
/// pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Sensor blackout.
    Blackout,
    /// Stuck-at sensor (frame repeat).
    StuckFrame,
    /// Salt-and-pepper pixel corruption.
    PixelCorruption,
    /// Per-stage latency spikes.
    LatencySpikes,
    /// Localizer lock loss.
    LockLoss,
    /// Tracker divergence.
    TrackerDivergence,
    /// Worker-pool stall.
    WorkerStall,
    /// Capture-timestamp skew.
    TimestampSkew,
    /// Sustained per-stage latency drift.
    LatencyDrift,
    /// Transient software crash (injected stage panic).
    Crash,
}

impl FaultClass {
    /// The canonical draw order (matches [`FaultInjector::next_frame`]).
    /// Any permutation of this slice produces the identical schedule.
    pub const ALL: [FaultClass; 10] = [
        FaultClass::Blackout,
        FaultClass::StuckFrame,
        FaultClass::PixelCorruption,
        FaultClass::LatencySpikes,
        FaultClass::LockLoss,
        FaultClass::TrackerDivergence,
        FaultClass::WorkerStall,
        FaultClass::TimestampSkew,
        FaultClass::LatencyDrift,
        FaultClass::Crash,
    ];

    /// Salt separating this class's per-frame RNG stream from the
    /// other classes'. Values are arbitrary but fixed: changing them
    /// changes every seeded schedule.
    fn salt(self) -> u64 {
        match self {
            FaultClass::Blackout => 0x01,
            FaultClass::StuckFrame => 0x02,
            FaultClass::PixelCorruption => 0x03,
            FaultClass::LatencySpikes => 0x04,
            FaultClass::LockLoss => 0x05,
            FaultClass::TrackerDivergence => 0x06,
            FaultClass::WorkerStall => 0x07,
            FaultClass::TimestampSkew => 0x08,
            FaultClass::LatencyDrift => 0x09,
            FaultClass::Crash => 0x0A,
        }
    }
}

/// SplitMix-style avalanche, used to derive per-frame and per-class
/// RNG streams from the campaign seed.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Raw per-class draw results for one frame, before outage carry-over
/// and cross-class gating are applied.
#[derive(Debug, Clone, Default)]
struct FrameDraws {
    blackout_frames: Option<u32>,
    stuck_frames: Option<u32>,
    corruption: Option<PixelCorruption>,
    spikes: Vec<(Component, f64)>,
    lock_loss_frames: Option<u32>,
    shift: Option<(f32, f32)>,
    stall: Option<WorkerStall>,
    skew_s: Option<f64>,
    drift: Vec<(Component, u32, f64)>,
    crash: Option<Component>,
}

/// The seeded fault schedule generator.
///
/// Per-frame, per-class draws come from an RNG derived from
/// `seed ^ mix(frame) ^ mix(class)`, so the schedule entry for frame
/// `n` is a pure function of `(seed, config, n, outage carry-over)` —
/// independent of runtime thread counts, of how much work earlier
/// frames did, and of the order the fault classes are drawn in.
/// Multi-frame outages (blackout, stuck frame, lock loss) carry state
/// forward; frames are consumed strictly in order via
/// [`FaultInjector::next_frame`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    seed: u64,
    frame: u64,
    blackout_left: u32,
    stuck_left: u32,
    lock_loss_left: u32,
    drift_left: [u32; Component::ALL.len()],
    drift_step: [f64; Component::ALL.len()],
    drift_load: [f64; Component::ALL.len()],
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Creates an injector for one campaign.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            cfg,
            seed,
            frame: 0,
            blackout_left: 0,
            stuck_left: 0,
            lock_loss_left: 0,
            drift_left: [0; Component::ALL.len()],
            drift_step: [0.0; Component::ALL.len()],
            drift_load: [1.0; Component::ALL.len()],
            events: Vec::new(),
        }
    }

    /// An injector that never injects anything.
    pub fn disabled() -> Self {
        Self::new(0, FaultConfig::off())
    }

    /// The campaign config.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Everything injected so far, in frame order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// RNG for one class's draws on one frame.
    fn class_rng(&self, frame: u64, class: FaultClass) -> Rng64 {
        Rng64::new(self.seed ^ mix(frame) ^ mix(class.salt()))
    }

    /// Computes one class's raw draw for `frame` into `draws`. Pure:
    /// reads only `(seed, cfg, frame)`; carry-over and gating are
    /// resolved canonically afterwards, so evaluation order between
    /// classes cannot matter.
    fn draw_class(&self, frame: u64, class: FaultClass, draws: &mut FrameDraws) {
        let mut rng = self.class_rng(frame, class);
        match class {
            FaultClass::Blackout => {
                if rng.chance(self.cfg.blackout_rate) {
                    let (lo, hi) = self.cfg.blackout_frames;
                    draws.blackout_frames =
                        Some(rng.range_usize(lo as usize, hi as usize + 1) as u32);
                }
            }
            FaultClass::StuckFrame => {
                if rng.chance(self.cfg.stuck_rate) {
                    let (lo, hi) = self.cfg.stuck_frames;
                    draws.stuck_frames =
                        Some(rng.range_usize(lo as usize, hi as usize + 1) as u32);
                }
            }
            FaultClass::PixelCorruption => {
                if rng.chance(self.cfg.pixel_corruption_rate) {
                    let salt = rng.next_u64();
                    draws.corruption =
                        Some(PixelCorruption { fraction: self.cfg.corrupted_fraction, salt });
                }
            }
            FaultClass::LatencySpikes => {
                // One sub-stream per stage, derived from the class
                // stream, so stages are also order-independent.
                for (i, stage) in Component::ALL.into_iter().enumerate() {
                    let mut srng = Rng64::new(rng.next_u64() ^ mix(i as u64));
                    if srng.chance(self.cfg.latency_spike_rate) {
                        let (lo, hi) = self.cfg.latency_spike_ms;
                        let extra_ms = if lo < hi { srng.range_f64(lo, hi) } else { lo };
                        draws.spikes.push((stage, extra_ms));
                    }
                }
            }
            FaultClass::LockLoss => {
                if rng.chance(self.cfg.lock_loss_rate) {
                    let (lo, hi) = self.cfg.lock_loss_frames;
                    draws.lock_loss_frames =
                        Some(rng.range_usize(lo as usize, hi as usize + 1) as u32);
                }
            }
            FaultClass::TrackerDivergence => {
                if rng.chance(self.cfg.tracker_divergence_rate) {
                    let m = self.cfg.tracker_divergence_shift;
                    draws.shift = Some(if m > 0.0 {
                        (rng.range_f32(-m, m), rng.range_f32(-m, m))
                    } else {
                        (0.0, 0.0)
                    });
                }
            }
            FaultClass::WorkerStall => {
                if rng.chance(self.cfg.stall_rate) {
                    let (lo, hi) = self.cfg.stall_attempts;
                    draws.stall = Some(WorkerStall {
                        stage: Component::Detection,
                        attempts: rng.range_usize(lo as usize, hi as usize + 1) as u32,
                        stall_ms: STALL_MS,
                    });
                }
            }
            FaultClass::TimestampSkew => {
                if rng.chance(self.cfg.timestamp_skew_rate) {
                    let (lo, hi) = self.cfg.timestamp_skew_s;
                    let mag = if lo < hi { rng.range_f64(lo, hi) } else { lo };
                    draws.skew_s = Some(if rng.chance(0.5) { mag } else { -mag });
                }
            }
            FaultClass::LatencyDrift => {
                // One sub-stream per stage, like LatencySpikes.
                for (i, stage) in Component::ALL.into_iter().enumerate() {
                    let mut srng = Rng64::new(rng.next_u64() ^ mix(i as u64));
                    if srng.chance(self.cfg.drift_rate) {
                        let (lo, hi) = self.cfg.drift_frames;
                        let frames = srng.range_usize(lo as usize, hi as usize + 1) as u32;
                        let (plo, phi) = self.cfg.drift_per_frame;
                        let per_frame =
                            if plo < phi { srng.range_f64(plo, phi) } else { plo };
                        draws.drift.push((stage, frames, per_frame));
                    }
                }
            }
            FaultClass::Crash => {
                // One sub-stream per stage, like LatencySpikes; the
                // earliest pipeline stage whose sub-stream fires is the
                // frame's (single) crasher.
                for (i, stage) in Component::ALL.into_iter().enumerate() {
                    let mut srng = Rng64::new(rng.next_u64() ^ mix(i as u64));
                    if srng.chance(self.cfg.crash_rate) && draws.crash.is_none() {
                        draws.crash = Some(stage);
                    }
                }
            }
        }
    }

    /// Generates the fault schedule for the next frame, drawing the
    /// classes in canonical order ([`FaultClass::ALL`]). Because each
    /// class has its own derived RNG stream, any permutation produces
    /// the identical schedule — see
    /// [`FaultInjector::next_frame_ordered`].
    pub fn next_frame(&mut self) -> FrameFaults {
        self.next_frame_ordered(&FaultClass::ALL)
    }

    /// [`FaultInjector::next_frame`] with an explicit class evaluation
    /// order. `order` must mention each class at most once; omitted
    /// classes draw nothing this frame. The resulting schedule and
    /// event log are identical for every permutation of
    /// [`FaultClass::ALL`] — the per-class RNG derivation makes draw
    /// order a free refactoring dimension, which
    /// `crates/faults/tests/draw_order.rs` asserts.
    pub fn next_frame_ordered(&mut self, order: &[FaultClass]) -> FrameFaults {
        let frame = self.frame;
        self.frame += 1;
        if self.cfg.is_off() {
            return FrameFaults { frame, ..FrameFaults::default() };
        }

        // Phase 1: raw per-class draws, in the caller's order. Each
        // draw touches only its own RNG stream and its own slot.
        let mut draws = FrameDraws::default();
        for &class in order {
            self.draw_class(frame, class, &mut draws);
        }

        // Phase 2: canonical resolution — outage carry-over and
        // cross-class gating — independent of the draw order above.
        let mut out = FrameFaults { frame, ..FrameFaults::default() };

        // Sensor blackout: ongoing outage, or a new one starting.
        if self.blackout_left > 0 {
            self.blackout_left -= 1;
            out.blackout = true;
        } else if let Some(frames) = draws.blackout_frames {
            self.blackout_left = frames.saturating_sub(1);
            out.blackout = true;
            self.events.push(FaultEvent { frame, kind: FaultKind::BlackoutStarted { frames } });
        }

        // Stuck-at sensor (suppressed during a blackout: the camera is
        // delivering nothing to repeat).
        if self.stuck_left > 0 {
            self.stuck_left -= 1;
            out.stuck = !out.blackout;
        } else if let Some(frames) = draws.stuck_frames {
            if !out.blackout {
                self.stuck_left = frames.saturating_sub(1);
                out.stuck = true;
                self.events
                    .push(FaultEvent { frame, kind: FaultKind::StuckFrameStarted { frames } });
            }
        }

        // Pixel corruption (skipped during a blackout or a stuck
        // frame: corruption perturbs a *fresh* frame in transport).
        if !out.blackout && !out.stuck {
            if let Some(pc) = draws.corruption {
                out.pixel_corruption = Some(pc);
                self.events.push(FaultEvent {
                    frame,
                    kind: FaultKind::PixelCorruption { fraction: pc.fraction },
                });
            }
        }

        // Per-stage latency spikes, in fixed stage order.
        for &(stage, extra_ms) in &draws.spikes {
            out.spikes.push((stage, extra_ms));
            self.events.push(FaultEvent { frame, kind: FaultKind::LatencySpike { stage, extra_ms } });
        }

        // Localizer lock loss.
        if self.lock_loss_left > 0 {
            self.lock_loss_left -= 1;
            out.lock_loss = true;
        } else if let Some(frames) = draws.lock_loss_frames {
            self.lock_loss_left = frames.saturating_sub(1);
            out.lock_loss = true;
            self.events.push(FaultEvent { frame, kind: FaultKind::LockLossStarted { frames } });
        }

        // Tracker divergence.
        if let Some((dx, dy)) = draws.shift {
            out.tracker_shift = Some((dx, dy));
            self.events.push(FaultEvent { frame, kind: FaultKind::TrackerDivergence { dx, dy } });
        }

        // Worker-pool stall (detection stage worker wedges).
        if let Some(stall) = draws.stall {
            out.stall = Some(stall);
            self.events.push(FaultEvent {
                frame,
                kind: FaultKind::WorkerStall { stage: stall.stage, attempts: stall.attempts },
            });
        }

        // Capture-timestamp skew.
        if let Some(skew_s) = draws.skew_s {
            out.time_skew_s = Some(skew_s);
            self.events.push(FaultEvent { frame, kind: FaultKind::TimestampSkew { skew_s } });
        }

        // Sustained latency drift, per stage in pipeline order. An
        // ongoing episode takes precedence over a fresh draw for the
        // same stage (the new draw is discarded — like an outage, a
        // stage drifts one episode at a time); load resets to nominal
        // the frame after the episode ends.
        for (i, stage) in Component::ALL.into_iter().enumerate() {
            if self.drift_left[i] > 0 {
                self.drift_left[i] -= 1;
                self.drift_load[i] += self.drift_step[i];
                out.drift.push((stage, self.drift_load[i]));
            } else if let Some(&(_, frames, per_frame)) =
                draws.drift.iter().find(|(s, _, _)| *s == stage)
            {
                self.drift_left[i] = frames.saturating_sub(1);
                self.drift_step[i] = per_frame;
                self.drift_load[i] = 1.0 + per_frame;
                out.drift.push((stage, self.drift_load[i]));
                self.events.push(FaultEvent {
                    frame,
                    kind: FaultKind::LatencyDriftStarted { stage, frames, per_frame },
                });
            } else {
                self.drift_load[i] = 1.0;
                self.drift_step[i] = 0.0;
            }
        }

        // Transient stage crash: no gating (a stage can die while the
        // sensor is dark) and no carry-over (restart clears it).
        if let Some(stage) = draws.crash {
            out.crash = Some(stage);
            self.events.push(FaultEvent { frame, kind: FaultKind::StageCrash { stage } });
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, cfg: FaultConfig, n: usize) -> (Vec<FrameFaults>, Vec<FaultEvent>) {
        let mut inj = FaultInjector::new(seed, cfg);
        let frames = (0..n).map(|_| inj.next_frame()).collect();
        (frames, inj.events().to_vec())
    }

    /// The drift load multiplier for `stage` (1.0 when the stage is
    /// not inside a drift episode).
    fn drift_load(f: &FrameFaults, stage: Component) -> f64 {
        f.drift.iter().find(|(s, _)| *s == stage).map_or(1.0, |&(_, l)| l)
    }

    #[test]
    fn disabled_injector_emits_only_clean_frames() {
        let mut inj = FaultInjector::disabled();
        for i in 0..64 {
            let f = inj.next_frame();
            assert_eq!(f.frame, i);
            assert!(f.is_clean());
        }
        assert!(inj.events().is_empty());
    }

    #[test]
    fn same_seed_reproduces_schedule_and_event_log() {
        let (fa, ea) = run(42, FaultConfig::stress(), 256);
        let (fb, eb) = run(42, FaultConfig::stress(), 256);
        assert_eq!(fa, fb);
        assert_eq!(ea, eb);
        assert!(!ea.is_empty(), "stress config must inject something in 256 frames");
    }

    #[test]
    fn different_seeds_differ() {
        let (fa, _) = run(1, FaultConfig::stress(), 256);
        let (fb, _) = run(2, FaultConfig::stress(), 256);
        assert_ne!(fa, fb);
    }

    #[test]
    fn blackouts_last_their_drawn_duration() {
        let cfg = FaultConfig {
            blackout_rate: 0.05,
            blackout_frames: (3, 3),
            ..FaultConfig::off()
        };
        let (frames, events) = run(9, cfg, 400);
        assert!(!events.is_empty());
        for e in &events {
            if let FaultKind::BlackoutStarted { frames: n } = e.kind {
                assert_eq!(n, 3);
                // The outage covers this frame and the next two.
                for k in 0..3u64 {
                    assert!(frames[(e.frame + k) as usize].blackout, "frame {}", e.frame + k);
                }
            }
        }
    }

    #[test]
    fn stuck_frames_last_their_drawn_duration() {
        let cfg = FaultConfig { stuck_rate: 0.05, stuck_frames: (2, 2), ..FaultConfig::off() };
        let (frames, events) = run(31, cfg, 400);
        assert!(!events.is_empty(), "stuck faults must fire at 5% over 400 frames");
        for e in &events {
            if let FaultKind::StuckFrameStarted { frames: n } = e.kind {
                assert_eq!(n, 2);
                for k in 0..2u64 {
                    assert!(frames[(e.frame + k) as usize].stuck, "frame {}", e.frame + k);
                }
            }
        }
    }

    #[test]
    fn timestamp_skew_stays_in_range() {
        let cfg = FaultConfig {
            timestamp_skew_rate: 0.2,
            timestamp_skew_s: (0.05, 0.4),
            ..FaultConfig::off()
        };
        let (frames, events) = run(5, cfg, 400);
        assert!(!events.is_empty());
        for f in &frames {
            if let Some(s) = f.time_skew_s {
                assert!((0.05..=0.4).contains(&s.abs()), "skew {s}");
            }
        }
    }

    #[test]
    fn all_fault_kinds_fire_under_stress() {
        let (_, events) = run(7, FaultConfig::stress(), 2_000);
        let has = |pred: fn(&FaultKind) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(|k| matches!(k, FaultKind::BlackoutStarted { .. })));
        assert!(has(|k| matches!(k, FaultKind::StuckFrameStarted { .. })));
        assert!(has(|k| matches!(k, FaultKind::PixelCorruption { .. })));
        assert!(has(|k| matches!(k, FaultKind::LatencySpike { .. })));
        assert!(has(|k| matches!(k, FaultKind::LockLossStarted { .. })));
        assert!(has(|k| matches!(k, FaultKind::TrackerDivergence { .. })));
        assert!(has(|k| matches!(k, FaultKind::WorkerStall { .. })));
        assert!(has(|k| matches!(k, FaultKind::TimestampSkew { .. })));
        assert!(has(|k| matches!(k, FaultKind::LatencyDriftStarted { .. })));
    }

    #[test]
    fn drift_ramps_linearly_for_its_drawn_duration() {
        let cfg = FaultConfig {
            drift_rate: 0.01,
            drift_frames: (10, 10),
            drift_per_frame: (0.05, 0.05),
            ..FaultConfig::off()
        };
        let (frames, events) = run(17, cfg, 600);
        assert!(!events.is_empty(), "drift must fire at 1%/stage over 600 frames");
        for e in &events {
            if let FaultKind::LatencyDriftStarted { stage, frames: n, per_frame } = e.kind {
                assert_eq!(n, 10);
                assert_eq!(per_frame, 0.05);
                // The load ramps 1.05, 1.10, ... 1.50 over the episode
                // (unless a later episode on the same stage overlaps
                // the tail, which the fixed 10-frame duration plus the
                // precedence rule makes impossible to start mid-ramp).
                for k in 0..u64::from(n) {
                    let f = &frames[(e.frame + k) as usize];
                    let expect = 1.0 + 0.05 * (k + 1) as f64;
                    assert!(
                        (drift_load(f, stage) - expect).abs() < 1e-9,
                        "frame {} stage {stage}: load {} want {expect}",
                        e.frame + k,
                        drift_load(f, stage)
                    );
                }
                // The frame after the episode is back to nominal,
                // unless a new episode started exactly there.
                let after = &frames[(e.frame + u64::from(n)) as usize];
                let fresh_start = events.iter().any(|e2| {
                    e2.frame == after.frame
                        && matches!(e2.kind,
                            FaultKind::LatencyDriftStarted { stage: s, .. } if s == stage)
                });
                if !fresh_start {
                    assert_eq!(drift_load(after, stage), 1.0, "frame {}", after.frame);
                }
            }
        }
    }

    #[test]
    fn crash_class_draws_per_frame_and_leaves_others_untouched() {
        let crashy = FaultConfig { crash_rate: 0.10, ..FaultConfig::stress() };
        let (frames, events) = run(42, crashy, 400);
        let crashes = frames.iter().filter(|f| f.crash.is_some()).count();
        assert!(crashes > 10, "10%/stage over 400 frames must crash: {crashes}");
        assert_eq!(
            events.iter().filter(|e| matches!(e.kind, FaultKind::StageCrash { .. })).count(),
            crashes,
            "one StageCrash event per scheduled crash"
        );
        // Private per-class streams: adding the crash class must not
        // shift any pre-existing class's schedule.
        let (base, _) = run(42, FaultConfig::stress(), 400);
        for (f, b) in frames.iter().zip(&base) {
            assert_eq!(f.blackout, b.blackout, "frame {}", f.frame);
            assert_eq!(f.spikes, b.spikes, "frame {}", f.frame);
            assert_eq!(f.stall, b.stall, "frame {}", f.frame);
            assert_eq!(f.drift, b.drift, "frame {}", f.frame);
        }
    }

    #[test]
    fn crash_payload_renders_stage_and_frame() {
        let c = InjectedCrash { frame: 42, stage: Component::Detection };
        assert_eq!(c.to_string(), "injected crash: DET stage panicked at frame 42");
    }

    #[test]
    fn drift_load_defaults_to_nominal() {
        let f = FrameFaults::default();
        assert!(f.is_clean());
        assert_eq!(drift_load(&f, Component::Detection), 1.0);
    }

    #[test]
    fn events_render_for_the_log() {
        let (_, events) = run(3, FaultConfig::stress(), 500);
        for e in &events {
            assert!(e.to_string().starts_with("frame "));
        }
    }

    #[test]
    fn corruption_is_gated_behind_fresh_frames() {
        let cfg = FaultConfig {
            blackout_rate: 0.2,
            stuck_rate: 0.2,
            pixel_corruption_rate: 0.5,
            ..FaultConfig::off()
        };
        let (frames, _) = run(12, cfg, 600);
        for f in &frames {
            if f.blackout || f.stuck {
                assert!(f.pixel_corruption.is_none(), "frame {}", f.frame);
            }
            assert!(!(f.blackout && f.stuck), "blackout dominates stuck");
        }
    }
}
