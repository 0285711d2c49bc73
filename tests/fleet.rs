//! Fleet campaign engine guarantees: per-cell outcomes and the fleet
//! sink are equal between the serial reference and work-stealing fleet
//! runs at any worker count, and weight sharing survives a real
//! campaign (cells never detach the shared model storage).

use adsim::core::{DetectorKind, GuardConfig, NativePipelineConfig, SupervisorConfig, TrackerKind};
use adsim::dnn::models::{goturn_tiny_shared, yolo_tiny_shared};
use adsim::faults::FaultConfig;
use adsim::fleet::{CellSpec, FleetAssets, FleetConfig, FleetEngine};
use adsim::workload::Resolution;

const RES: Resolution = Resolution::Hhd;
const FRAMES: usize = 8;

/// A small but adversarial campaign: a clean cell, a data-fault cell,
/// a voting-guard cell, and a stress cell that escalates all the way to
/// SafeStop mid-campaign.
fn specs() -> Vec<CellSpec> {
    let data = FaultConfig {
        blackout_rate: 0.06,
        blackout_frames: (2, 5),
        pixel_corruption_rate: 0.25,
        corrupted_fraction: 0.05,
        stuck_rate: 0.12,
        stuck_frames: (1, 3),
        ..FaultConfig::off()
    };
    vec![
        CellSpec::new("clean", FaultConfig::off(), 0x5EED1, FRAMES),
        CellSpec::new("data", data.clone(), 0x5EED2, FRAMES),
        CellSpec::new("voting", data, 0x5EED2, FRAMES).with_guard(GuardConfig::Voting),
        CellSpec::new("stress", FaultConfig::stress(), 0x5EED3, FRAMES),
    ]
}

#[test]
fn fleet_outputs_byte_identical_across_worker_counts() {
    let assets = FleetAssets::urban(RES);
    let grid = specs();

    let reference =
        FleetEngine::new(assets.clone(), FleetConfig::with_workers(1)).run_serial(&grid);
    // The stress cell must actually exercise the escalation path, or
    // this parity test proves nothing about degraded-mode determinism.
    let stress = &reference.outcomes[3];
    assert!(stress.safe_stops > 0, "stress cell never reached SafeStop");
    assert!(stress.episodes > 0, "stress cell never degraded");
    assert_eq!(
        reference.outcomes.iter().map(|c| c.uncaught).sum::<u64>(),
        0,
        "escalations dropped in the reference run"
    );

    for workers in [1usize, 2, 8] {
        let run = FleetEngine::new(assets.clone(), FleetConfig::with_workers(workers)).run(&grid);
        assert_eq!(run.workers, workers);
        assert_eq!(run.outcomes, reference.outcomes, "cell outcomes diverged at {workers} workers");
        assert_eq!(run.sink, reference.sink, "fleet sink diverged at {workers} workers");
    }
}

/// A campaign served by cross-vehicle batched DNN inference reproduces
/// the unbatched campaign exactly — every cell outcome (per-cell
/// telemetry included), the fleet sink and the fleet telemetry merge —
/// on any batch-runtime worker count, while actually sharing forward
/// passes across vehicles.
#[test]
fn batched_campaign_matches_unbatched_byte_for_byte() {
    let assets = FleetAssets::urban(RES);
    let fleet_cfg = |workers| FleetConfig {
        pipeline: NativePipelineConfig {
            detector: DetectorKind::Yolo { grid: 4, threshold: 0.5 },
            ..FleetConfig::default().pipeline
        },
        ..FleetConfig::with_workers(workers)
    };
    let grid = specs();
    let reference = FleetEngine::new(assets.clone(), fleet_cfg(1)).run_serial(&grid);

    for workers in [1usize, 2, 8] {
        let engine = FleetEngine::new(assets.clone(), fleet_cfg(workers));
        let (run, stats) = engine.run_batched(&grid);
        assert!(stats.batches > 0, "no batched forward pass ran");
        assert!(
            stats.largest_batch >= 2,
            "same-variant cells never shared a forward pass: {stats:?}"
        );
        assert_eq!(
            run.outcomes, reference.outcomes,
            "batched outcomes diverged at {workers} workers"
        );
        assert_eq!(run.sink, reference.sink, "batched sink diverged at {workers} workers");
        assert_eq!(
            run.telemetry, reference.telemetry,
            "fleet-merged telemetry diverged at {workers} workers"
        );
    }
}

#[test]
fn campaign_cells_share_prior_map_and_weights() {
    let assets = FleetAssets::urban(RES);
    // Two supervisors built from the same assets share the prior map Arc…
    let cfg = FleetConfig::default().pipeline;
    let a = assets.supervisor(1, FaultConfig::off(), SupervisorConfig::default(), &cfg);
    let b = assets.supervisor(2, FaultConfig::off(), SupervisorConfig::default(), &cfg);
    assert!(
        a.pipeline().localizer().map().shares_prior_with(b.pipeline().localizer().map()),
        "cells must share one prior map allocation"
    );
    drop((a, b));

    // …and running a real campaign on the DNN pipeline never detaches
    // the cached model weights: clones taken after the campaign still
    // share storage with clones taken before (inference is read-only on
    // params).
    let yolo_before = yolo_tiny_shared(4);
    let goturn_before = goturn_tiny_shared();
    let fleet_cfg = FleetConfig {
        pipeline: NativePipelineConfig {
            detector: DetectorKind::Yolo { grid: 4, threshold: 0.5 },
            tracker: TrackerKind::Goturn,
            ..FleetConfig::default().pipeline
        },
        ..FleetConfig::with_workers(2)
    };
    let engine = FleetEngine::new(assets, fleet_cfg);
    engine.run(&specs()[..2]);
    assert!(yolo_before.shares_weights(&yolo_tiny_shared(4)));
    assert!(goturn_before.shares_weights(&goturn_tiny_shared()));
}
