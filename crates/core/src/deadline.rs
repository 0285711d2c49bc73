use crate::modeled::ModeledPipeline;

/// Outcome of replaying a real-time camera stream through a pipeline
/// (paper §2.4.1: processing must finish within 100 ms *and* keep up
/// with at least 10 frames per second).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlineStats {
    /// Frames offered by the camera.
    pub offered: usize,
    /// Frames actually processed.
    pub processed: usize,
    /// Frames dropped because the pipeline was still busy when they
    /// arrived (the camera keeps only the latest frame).
    pub dropped: usize,
    /// Processed frames whose latency exceeded the deadline.
    pub deadline_misses: usize,
    /// Achieved processing rate (frames per second).
    pub effective_fps: f64,
    /// Mean age of a result at completion: processing latency plus the
    /// time the frame waited since capture (ms) — the true reaction
    /// delay to a road event.
    pub mean_reaction_ms: f64,
}

impl DeadlineStats {
    /// Fraction of offered frames that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Fraction of processed frames missing the deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.processed as f64
        }
    }

    /// The §2.4.1 performance constraint: every processed frame within
    /// the deadline and ≥ `min_fps` sustained. A replay that processed
    /// nothing has zero misses vacuously — it fails the constraint.
    pub fn meets_constraints(&self, min_fps: f64) -> bool {
        self.processed > 0 && self.deadline_misses == 0 && self.effective_fps >= min_fps
    }
}

/// Whole camera periods elapsed at `now_ms`.
///
/// On a multi-hour horizon the quotient can exceed what fits in the
/// mantissa — and with a degenerate clock it can go negative or
/// non-finite. The `f64 → usize` `as` cast saturates rather than
/// wrapping, and non-finite / negative inputs pin to frame 0, so the
/// replay clock can never jump backwards through a cast.
fn frames_elapsed(now_ms: f64, period_ms: f64) -> usize {
    let n = (now_ms / period_ms).floor();
    if n.is_finite() && n > 0.0 {
        n as usize // saturates at usize::MAX for huge horizons
    } else {
        0
    }
}

/// Replays a camera producing one frame every `period_ms` through the
/// modeled pipeline for `frames` frames.
///
/// The camera holds only the newest frame: when processing finishes,
/// the pipeline grabs the latest capture (dropping any it never saw) —
/// the standard real-time vision arrangement. Latency samples come
/// from the pipeline's calibrated distributions.
///
/// # Examples
///
/// ```
/// use adsim_core::{replay_stream, ModeledPipeline, PlatformConfig};
/// use adsim_platform::Platform;
///
/// let mut pipe = ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 3);
/// let stats = replay_stream(&mut pipe, 2_000, 100.0, 100.0, 1.0);
/// assert!(stats.effective_fps > 9.0);
/// ```
pub fn replay_stream(
    pipeline: &mut ModeledPipeline,
    frames: usize,
    period_ms: f64,
    deadline_ms: f64,
    pixel_ratio: f64,
) -> DeadlineStats {
    assert!(period_ms > 0.0, "camera period must be positive");
    let mut stats = DeadlineStats::default();
    let mut now_ms = 0.0f64;
    let mut next_capture = 0usize; // index of the next frame the camera emits
    let mut reaction_sum = 0.0;
    while next_capture < frames {
        // The pipeline becomes free at `now_ms`; it takes the newest
        // captured frame at or before `now_ms` (or waits for the next).
        let newest = frames_elapsed(now_ms, period_ms);
        let take = newest.min(frames - 1).max(next_capture);
        let (capture_idx, capture_time) = if newest >= next_capture {
            (take, take as f64 * period_ms)
        } else {
            // Idle until the next frame arrives.
            (next_capture, next_capture as f64 * period_ms)
        };
        if capture_idx >= frames {
            break;
        }
        // Everything between next_capture and capture_idx was dropped.
        stats.dropped += capture_idx - next_capture;
        stats.offered += capture_idx - next_capture + 1;
        next_capture = capture_idx + 1;

        let start = now_ms.max(capture_time);
        let latency = pipeline.simulate_frame(pixel_ratio).end_to_end();
        now_ms = start + latency;
        stats.processed += 1;
        if latency > deadline_ms {
            stats.deadline_misses += 1;
        }
        reaction_sum += now_ms - capture_time;
    }
    if stats.processed > 0 {
        stats.mean_reaction_ms = reaction_sum / stats.processed as f64;
        if now_ms > 0.0 {
            // Guarded: a pathological zero-latency pipeline would
            // otherwise divide by zero and report infinite FPS.
            stats.effective_fps = stats.processed as f64 / (now_ms / 1_000.0);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use adsim_platform::Platform;

    #[test]
    fn fast_pipeline_processes_every_frame() {
        let mut pipe = ModeledPipeline::new(
            PlatformConfig {
                detection: Platform::Gpu,
                tracking: Platform::Asic,
                localization: Platform::Asic,
            },
            1,
        );
        let stats = replay_stream(&mut pipe, 3_000, 100.0, 100.0, 1.0);
        assert_eq!(stats.dropped, 0, "16 ms pipeline never misses a 100 ms camera");
        assert!(stats.meets_constraints(10.0), "{stats:?}");
        // Reaction time = latency only (no queueing).
        assert!(stats.mean_reaction_ms < 20.0);
    }

    #[test]
    fn cpu_pipeline_drops_nearly_everything() {
        let mut pipe = ModeledPipeline::new(PlatformConfig::all_cpu(), 2);
        let stats = replay_stream(&mut pipe, 2_000, 100.0, 100.0, 1.0);
        // ~8 s per frame vs 100 ms camera: ~79 of every 80 frames drop.
        assert!(stats.drop_rate() > 0.95, "drop rate {}", stats.drop_rate());
        assert!(stats.effective_fps < 0.2, "fps {}", stats.effective_fps);
        assert!(!stats.meets_constraints(10.0));
    }

    #[test]
    fn borderline_pipeline_misses_some_deadlines_only() {
        // All-ASIC: ~98 ms latency vs 100 ms period — keeps up, but
        // occasionally queues.
        let mut pipe = ModeledPipeline::new(PlatformConfig::uniform(Platform::Asic), 3);
        let stats = replay_stream(&mut pipe, 3_000, 100.0, 100.0, 1.0);
        assert!(stats.effective_fps > 9.0, "fps {}", stats.effective_fps);
        assert!(stats.drop_rate() < 0.2, "drop rate {}", stats.drop_rate());
    }

    #[test]
    fn zero_processed_frames_fail_the_constraint() {
        // A stalled replay reports no misses vacuously; it must not
        // pass as a working design.
        let stats = DeadlineStats::default();
        assert_eq!(stats.deadline_misses, 0);
        assert!(!stats.meets_constraints(10.0));
        assert!(!stats.meets_constraints(0.0));
    }

    #[test]
    fn frames_elapsed_clamps_degenerate_clocks() {
        // Ordinary operation.
        assert_eq!(frames_elapsed(0.0, 100.0), 0);
        assert_eq!(frames_elapsed(99.9, 100.0), 0);
        assert_eq!(frames_elapsed(100.0, 100.0), 1);
        assert_eq!(frames_elapsed(1_000.0, 100.0), 10);
        // A clock that went backwards or broke pins to frame 0 instead
        // of wrapping through the cast.
        assert_eq!(frames_elapsed(-5_000.0, 100.0), 0);
        assert_eq!(frames_elapsed(f64::NAN, 100.0), 0);
        assert_eq!(frames_elapsed(f64::NEG_INFINITY, 100.0), 0);
        // An *infinite* quotient is a broken clock, not a long horizon
        // — it pins to 0 with the other degenerate inputs.
        assert_eq!(frames_elapsed(f64::INFINITY, 100.0), 0);
        // A finite horizon beyond usize saturates instead of wrapping.
        assert_eq!(frames_elapsed(1e300, 1e-3), usize::MAX);
        // Multi-day horizons stay exact (quotient within the mantissa).
        let day_ms = 24.0 * 3_600.0 * 1_000.0;
        assert_eq!(frames_elapsed(30.0 * day_ms, 100.0), 30 * 864_000);
    }

    #[test]
    fn rates_are_consistent() {
        let mut pipe = ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 4);
        let stats = replay_stream(&mut pipe, 1_000, 100.0, 100.0, 1.0);
        assert_eq!(stats.offered, stats.processed + stats.dropped);
        assert!(stats.mean_reaction_ms >= 0.0);
    }
}
