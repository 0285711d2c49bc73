//! Latency statistics for mission-critical real-time systems.
//!
//! The paper (§2.4.2) argues that autonomous driving systems must be
//! evaluated on *tail latency* — high quantiles such as the 99th or
//! 99.99th percentile — rather than mean latency, because the processing
//! fails if it does not complete within a deadline. This crate provides
//! the sample recorder, exact quantile estimation and summary formatting
//! used by every experiment in the workspace, plus the seeded RNG the
//! modeled pipeline and the property tests draw from.
//!
//! # Examples
//!
//! ```
//! use adsim_stats::LatencyRecorder;
//!
//! let mut rec = LatencyRecorder::new();
//! for ms in [8.0, 9.0, 10.0, 11.0, 95.0] {
//!     rec.record(ms);
//! }
//! let summary = rec.summary();
//! assert!(summary.mean < summary.p99_99);
//! ```

mod recorder;
pub mod rng;
mod summary;

pub use recorder::LatencyRecorder;
pub use rng::Rng64;
pub use summary::LatencySummary;

/// Common latency quantiles used throughout the paper's evaluation.
///
/// The paper reports mean, 99th- and 99.99th-percentile latency
/// (Figures 6, 10 and 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantile {
    /// Median (50th percentile).
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P99_9,
    /// 99.99th percentile — the paper's headline predictability metric.
    P99_99,
    /// Worst observed sample.
    Max,
}

impl Quantile {
    /// The quantile as a fraction in `[0, 1]`.
    pub(crate) fn fraction(self) -> f64 {
        match self {
            Quantile::P50 => 0.50,
            Quantile::P95 => 0.95,
            Quantile::P99 => 0.99,
            Quantile::P99_9 => 0.999,
            Quantile::P99_99 => 0.9999,
            Quantile::Max => 1.0,
        }
    }

    /// All quantiles in ascending order.
    pub fn all() -> [Quantile; 6] {
        [
            Quantile::P50,
            Quantile::P95,
            Quantile::P99,
            Quantile::P99_9,
            Quantile::P99_99,
            Quantile::Max,
        ]
    }
}

impl std::fmt::Display for Quantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Quantile::P50 => "p50",
            Quantile::P95 => "p95",
            Quantile::P99 => "p99",
            Quantile::P99_9 => "p99.9",
            Quantile::P99_99 => "p99.99",
            Quantile::Max => "max",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_fractions_ascend() {
        let all = Quantile::all();
        for pair in all.windows(2) {
            assert!(pair[0].fraction() < pair[1].fraction());
        }
    }

    #[test]
    fn quantile_display_nonempty() {
        for q in Quantile::all() {
            assert!(!q.to_string().is_empty());
        }
    }
}
