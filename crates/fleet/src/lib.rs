//! `adsim-fleet` — the fleet campaign engine.
//!
//! The paper evaluates one vehicle's pipeline end to end, but its
//! tail-latency constraints only matter at fleet scale: the service
//! has to hold the 99.99th-percentile bound under "heavy traffic from
//! millions of users", not on one lucky car. This crate turns the
//! workspace's single-vehicle supervised pipeline into a campaign
//! engine that runs N independent vehicle cells (scenario × fault-mix
//! × seed) concurrently:
//!
//! * [`FleetEngine`] schedules cells over `adsim-runtime`'s
//!   work-stealing pool — a long cell (a hostile fault mix, a
//!   relocalization storm) never blocks the rest of the grid;
//! * each cell owns **shared-nothing** mutable state (pipeline,
//!   supervisor, injector, map overlay) while `Arc`-sharing the two
//!   big read-only assets: DNN model weights (via `adsim-dnn`'s
//!   process-wide model cache and `Arc`-backed tensor storage) and the
//!   prior SLAM map (via `adsim_slam::SharedMap`);
//! * determinism is load-bearing: a cell's [`CellOutcome`] is a pure
//!   function of its [`CellSpec`], equal to a serial reference's and
//!   invariant across 1/2/8 workers and steal order (`tests/fleet.rs`
//!   pins this), and the fleet-level [`FleetSink`] is the sum of the
//!   outcomes in spec order. Wall-clock tails are perfbench's to
//!   measure; no fleet result carries one.
//!
//! # Examples
//!
//! ```
//! use adsim_fleet::{CellSpec, FleetAssets, FleetConfig, FleetEngine};
//! use adsim_faults::FaultConfig;
//! use adsim_workload::Resolution;
//!
//! let engine = FleetEngine::new(
//!     FleetAssets::urban(Resolution::Hhd),
//!     FleetConfig::with_workers(2),
//! );
//! let specs = vec![
//!     CellSpec::new("clean", FaultConfig::off(), 0x5EED, 4),
//!     CellSpec::new("stress", FaultConfig::stress(), 0x5EED, 4),
//! ];
//! let result = engine.run(&specs);
//! assert_eq!(result.outcomes.len(), 2);
//! // Fleet-level counters over every vehicle's every frame:
//! assert_eq!(result.sink.frames, 8);
//! assert_eq!(result.sink.uncaught, 0);
//! ```

mod assets;
mod batch;
mod cell;
mod engine;
mod sink;

pub use assets::FleetAssets;
pub use batch::BatchStats;
pub use cell::{run_cell, CellOutcome, CellSpec};
pub use engine::{CampaignResult, FleetConfig, FleetEngine};
pub use sink::FleetSink;
// Telemetry types surface in the campaign API (per-cell registries and
// flight dumps ride in CellOutcome; the fleet merge in CampaignResult).
pub use adsim_telemetry::{prometheus_text, FlightDump, MetricsRegistry, TelemetrySession};
// Recovery types surface in the cell API (CellSpec carries the policy;
// the crash ledger rides in CellOutcome) — re-exported so campaigns
// and benches need only `adsim_fleet`.
pub use adsim_recovery::{CrashRecord, RecoveryPolicy};
