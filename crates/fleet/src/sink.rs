//! The fleet-level result counters.

use crate::cell::CellOutcome;

/// Fleet-level campaign counters: the sum of every cell's outcome,
/// taken in spec order once the campaign ends. Like each
/// [`CellOutcome`], a pure function of the specs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSink {
    /// Cells finished.
    pub cells: u64,
    /// Frames processed across all cells.
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
    /// Sums the counters of every outcome.
    pub(crate) fn sum(outcomes: &[CellOutcome]) -> Self {
        let mut sink = Self::default();
        for outcome in outcomes {
            sink.cells += 1;
            sink.frames += outcome.frames;
            sink.injected_data_faults += outcome.injected_data_faults;
            sink.detected_data_faults += outcome.detected_data_faults;
            sink.uncaught += outcome.uncaught;
            sink.safe_stops += outcome.safe_stops;
            sink.episodes += outcome.episodes;
            sink.quality_switches += outcome.quality_switches;
            sink.crashes += outcome.crashes;
            sink.restarts += outcome.restarts;
            sink.replayed_frames += outcome.replayed_frames;
            sink.quarantined += outcome.quarantined as u64;
        }
        sink
    }
}
