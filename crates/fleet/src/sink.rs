//! The streaming fleet-level result sink.

use adsim_core::FrameLatency;
use adsim_trace::LogHistogram;

use crate::cell::CellOutcome;

/// Per-stage latency histograms for one cell or a whole fleet.
///
/// Fixed memory per instance (`LogHistogram` is bucket-counted), so a
/// campaign of thousands of cells aggregates tails in constant space:
/// each finished cell's histograms merge into the fleet's and are
/// dropped — no per-cell sample buffers survive the cell.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    /// Object detection (DET).
    pub detection: LogHistogram,
    /// Object tracking (TRA).
    pub tracking: LogHistogram,
    /// Localization (LOC).
    pub localization: LogHistogram,
    /// Sensor fusion.
    pub fusion: LogHistogram,
    /// Motion planning.
    pub motion_planning: LogHistogram,
    /// End-to-end critical path.
    pub end_to_end: LogHistogram,
}

impl StageHistograms {
    /// Empty histograms.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one frame's reported stage latencies.
    pub(crate) fn record(&mut self, lat: &FrameLatency) {
        self.detection.record(lat.detection);
        self.tracking.record(lat.tracking);
        self.localization.record(lat.localization);
        self.fusion.record(lat.fusion);
        self.motion_planning.record(lat.motion_planning);
        self.end_to_end.record(lat.end_to_end());
    }

    /// Bucket-wise merge of another cell's histograms into this one.
    pub(crate) fn merge(&mut self, other: &StageHistograms) {
        self.detection.merge(&other.detection);
        self.tracking.merge(&other.tracking);
        self.localization.merge(&other.localization);
        self.fusion.merge(&other.fusion);
        self.motion_planning.merge(&other.motion_planning);
        self.end_to_end.merge(&other.end_to_end);
    }
}

/// Fleet-level aggregation, updated as each cell finishes rather than
/// after the campaign ends. Holds merged per-stage histograms (fleet
/// p50/p95/p99/p99.99 across every vehicle's every frame) plus campaign
/// counters.
#[derive(Debug, Clone, Default)]
pub struct FleetSink {
    /// Merged per-stage latency histograms across all finished cells.
    pub stages: StageHistograms,
    /// Cells finished so far.
    pub cells: u64,
    /// Frames processed across all finished cells.
    pub frames: u64,
    /// Injected data-plane faults across the fleet.
    pub injected_data_faults: u64,
    /// Detected data-plane faults across the fleet.
    pub detected_data_faults: u64,
    /// Escalations dropped (contract: stays 0).
    pub uncaught: u64,
    /// Safe stops commanded across the fleet.
    pub safe_stops: u64,
    /// Completed degradation episodes across the fleet.
    pub episodes: u64,
    /// Anytime-governor quality switches across the fleet.
    pub quality_switches: u64,
    /// Injected stage crashes contained across the fleet.
    pub crashes: u64,
    /// Checkpoint restarts performed across the fleet.
    pub restarts: u64,
    /// Frames deterministically replayed across the fleet.
    pub replayed_frames: u64,
    /// Cells quarantined (crashed with no restart path).
    pub quarantined: u64,
}

impl FleetSink {
    /// An empty sink.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Absorbs one finished cell: counters from the outcome, latency
    /// tails from the cell's histograms (which the caller then drops).
    pub(crate) fn absorb(&mut self, outcome: &CellOutcome, hists: &StageHistograms) {
        self.stages.merge(hists);
        self.cells += 1;
        self.frames += outcome.frames;
        self.injected_data_faults += outcome.injected_data_faults;
        self.detected_data_faults += outcome.detected_data_faults;
        self.uncaught += outcome.uncaught;
        self.safe_stops += outcome.safe_stops;
        self.episodes += outcome.episodes;
        self.quality_switches += outcome.quality_switches;
        self.crashes += outcome.crashes;
        self.restarts += outcome.restarts;
        self.replayed_frames += outcome.replayed_frames;
        self.quarantined += outcome.quarantined as u64;
    }
}
