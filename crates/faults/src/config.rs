/// Fault rates and magnitudes for one campaign.
///
/// All rates are per-frame probabilities in `[0, 1]`. The default is
/// [`FaultConfig::off`] — every rate zero — so a supervisor built over
/// a default config is a transparent wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability per frame of a sensor blackout starting (camera
    /// delivers an all-black frame for the outage duration).
    pub blackout_rate: f64,
    /// Blackout duration range in frames, inclusive.
    pub blackout_frames: (u32, u32),
    /// Probability per frame of salt-and-pepper pixel corruption.
    pub pixel_corruption_rate: f64,
    /// Fraction of pixels corrupted when pixel corruption fires.
    pub corrupted_fraction: f64,
    /// Probability per stage per frame of an added latency spike.
    pub latency_spike_rate: f64,
    /// Spike magnitude range (ms), inclusive.
    pub latency_spike_ms: (f64, f64),
    /// Probability per frame of a localizer lock loss starting (SLAM
    /// returns no pose for the outage duration).
    pub lock_loss_rate: f64,
    /// Lock-loss duration range in frames, inclusive.
    pub lock_loss_frames: (u32, u32),
    /// Probability per frame of tracker divergence (every reported
    /// track box drifts by a random offset this frame).
    pub tracker_divergence_rate: f64,
    /// Maximum divergence offset, in normalized image units.
    pub tracker_divergence_shift: f32,
    /// Probability per frame of a worker-pool stall on the detection
    /// stage (the stage's worker wedges and must be retried).
    pub stall_rate: f64,
    /// Range of failed attempts before a stalled worker clears,
    /// inclusive. Values beyond the supervisor's retry budget make the
    /// stage fail outright for the frame.
    pub stall_attempts: (u32, u32),
    /// Probability per frame of the sensor wedging and re-delivering
    /// its previous frame for the outage duration (stuck-at sensor).
    pub stuck_rate: f64,
    /// Stuck-at outage duration range in frames, inclusive.
    pub stuck_frames: (u32, u32),
    /// Probability per frame of the capture timestamp being skewed.
    pub timestamp_skew_rate: f64,
    /// Skew magnitude range (s), inclusive; the sign is drawn per
    /// fault, so skews move timestamps both forward and backward.
    pub timestamp_skew_s: (f64, f64),
    /// Probability per stage per frame of a sustained latency drift
    /// starting: the stage's cost ramps up by a fixed fraction each
    /// frame for the episode duration (thermal throttling / contention
    /// creep, as opposed to the one-frame [`latency
    /// spikes`](FaultConfig::latency_spike_rate)).
    pub drift_rate: f64,
    /// Drift episode duration range in frames, inclusive.
    pub drift_frames: (u32, u32),
    /// Per-frame load growth range, inclusive, as a fraction of the
    /// stage's nominal cost (0.02 = +2% of nominal per frame).
    pub drift_per_frame: (f64, f64),
    /// Probability per frame of a transient software crash: one stage
    /// (drawn per frame) panics while processing the frame. A crash is
    /// the paper's worst tail — the stage produces *nothing* — and is
    /// executed as a real `panic_any(InjectedCrash)` by the supervisor
    /// so the containment and checkpoint/restore layers are exercised
    /// for real, not simulated. Transient semantics: a restarted
    /// replay of the same frame does not re-crash.
    pub crash_rate: f64,
}

impl FaultConfig {
    /// All fault rates zero: the injector emits only clean frames.
    pub fn off() -> Self {
        Self {
            blackout_rate: 0.0,
            blackout_frames: (1, 3),
            pixel_corruption_rate: 0.0,
            corrupted_fraction: 0.05,
            latency_spike_rate: 0.0,
            latency_spike_ms: (20.0, 80.0),
            lock_loss_rate: 0.0,
            lock_loss_frames: (1, 4),
            tracker_divergence_rate: 0.0,
            tracker_divergence_shift: 0.08,
            stall_rate: 0.0,
            stall_attempts: (1, 4),
            stuck_rate: 0.0,
            stuck_frames: (1, 3),
            timestamp_skew_rate: 0.0,
            timestamp_skew_s: (0.02, 0.25),
            drift_rate: 0.0,
            drift_frames: (20, 60),
            drift_per_frame: (0.02, 0.08),
            crash_rate: 0.0,
        }
    }

    /// A stress preset with every *recoverable-in-place* fault class
    /// active — the determinism tests and the fault campaign's hostile
    /// cells use this shape. Crashes stay opt-in
    /// ([`FaultConfig::crash_rate`] `= 0`): executing one tears down
    /// the frame loop unless the caller runs inside a containment
    /// boundary (`adsim-fleet` / `adsim-recovery`), and keeping them
    /// out of `stress()` leaves every pre-existing seeded schedule
    /// bit-identical.
    pub fn stress() -> Self {
        Self {
            blackout_rate: 0.08,
            pixel_corruption_rate: 0.10,
            latency_spike_rate: 0.10,
            lock_loss_rate: 0.08,
            tracker_divergence_rate: 0.10,
            stall_rate: 0.08,
            stuck_rate: 0.06,
            timestamp_skew_rate: 0.06,
            drift_rate: 0.01,
            ..Self::off()
        }
    }

    /// True when every rate is zero (no fault can ever fire).
    pub fn is_off(&self) -> bool {
        self.blackout_rate == 0.0
            && self.pixel_corruption_rate == 0.0
            && self.latency_spike_rate == 0.0
            && self.lock_loss_rate == 0.0
            && self.tracker_divergence_rate == 0.0
            && self.stall_rate == 0.0
            && self.stuck_rate == 0.0
            && self.timestamp_skew_rate == 0.0
            && self.drift_rate == 0.0
            && self.crash_rate == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert!(FaultConfig::default().is_off());
        assert!(!FaultConfig::stress().is_off());
    }

    #[test]
    fn crash_rate_alone_is_not_off() {
        let cfg = FaultConfig { crash_rate: 0.1, ..FaultConfig::off() };
        assert!(!cfg.is_off());
        // Crashes stay out of the stress preset: executing one needs a
        // containment boundary, and adding the class there would change
        // no schedule but would tear down uncontained stress callers.
        assert_eq!(FaultConfig::stress().crash_rate, 0.0);
    }

    #[test]
    fn stage_order_is_pipeline_order() {
        // The injector draws per-stage faults in `Component::ALL`
        // order, which is part of the deterministic schedule.
        use adsim_platform::Component;
        assert_eq!(Component::ALL[0], Component::Detection);
        assert_eq!(Component::ALL[4], Component::MotionPlanning);
        assert_eq!(Component::Localization.to_string(), "LOC");
    }
}
