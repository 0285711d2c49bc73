//! Cross-crate safety-monitor guarantees: the guard layer is invisible
//! on clean runs (bit-identical outputs, zero trips), the checksummed
//! data plane catches essentially every injected payload fault, every
//! detection escalates the supervisor the same frame, and the whole
//! guarded campaign stays thread-count invariant.

use adsim::core::{
    build_prior_map, GuardConfig, Monitor, NativePipeline, NativePipelineConfig, Supervisor,
    SupervisorConfig,
};
use adsim::faults::{FaultConfig, FaultInjector};
use adsim::runtime::Runtime;
use adsim::vision::Pose2;
use adsim::workload::{Resolution, Scenario, ScenarioKind};

const RES: Resolution = Resolution::Hhd;

fn pipeline(scenario: &Scenario, runtime: Runtime) -> NativePipeline {
    let camera = scenario.camera(RES);
    let poses: Vec<Pose2> = (0..96)
        .step_by(8)
        .flat_map(|i| {
            let p = scenario.pose_at(i);
            [p, Pose2::new(p.x, p.y + 25.0, p.theta), Pose2::new(p.x, p.y - 25.0, p.theta)]
        })
        .collect();
    let map = build_prior_map(scenario.world(), &camera, poses, 300, 25);
    let cfg = NativePipelineConfig { runtime, ..Default::default() };
    let mut pipe = NativePipeline::new(camera, map, cfg);
    pipe.seed_pose(scenario.pose_at(0));
    pipe
}

fn supervisor(scenario: &Scenario, threads: Runtime, faults: FaultConfig, guard: GuardConfig) -> Supervisor {
    Supervisor::new(
        pipeline(scenario, threads),
        FaultInjector::new(0x6A5D, faults),
        SupervisorConfig { guard, ..SupervisorConfig::default() },
    )
}

/// With faults off, the full guard stack (digest checks, dual-execution
/// voting armed, all monitors) must be invisible: every output of every
/// frame bit-identical to the bare pipeline, zero checks tripped.
#[test]
fn armed_guard_is_bit_identical_to_bare_pipeline_on_clean_runs() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 701);
    let mut bare = pipeline(&scenario, Runtime::max_parallel());
    let mut sup = supervisor(
        &scenario,
        Runtime::max_parallel(),
        FaultConfig::off(),
        // Voting is the most invasive guard config; on clean frames the
        // digests match so the second execution never even runs.
        GuardConfig::Voting,
    );
    for frame in scenario.stream(RES).take(8) {
        let a = bare.process(&frame.image, frame.time_s);
        let b = sup.process(&frame.image, frame.time_s);
        assert_eq!(a.pose, b.result.pose, "frame {}", frame.index);
        assert_eq!(a.tracks, b.result.tracks, "frame {}", frame.index);
        assert_eq!(a.fused, b.result.fused, "frame {}", frame.index);
        assert_eq!(a.plan, b.result.plan, "frame {}", frame.index);
        assert!(!b.modes.any(), "no degraded mode on a clean run");
    }
    let gs = sup.guard_stats();
    assert_eq!(gs.frames, 8);
    assert_eq!(gs.digest_checks, 8, "every hand-off must be digest-checked");
    assert_eq!(gs.digest_mismatches, 0, "clean frames must never mismatch");
    assert_eq!(gs.stuck_detected, 0, "a moving scenario never looks stuck");
    assert_eq!(gs.monitor_trips(), 0, "no monitor may trip on a clean run");
    assert!(sup.guard_events().is_empty());
    assert!(sup.events().is_empty(), "no degradation events on a clean run");
}

/// Every injected data-plane fault (blackout, stuck sensor, pixel
/// corruption) is caught at the stage boundary, and every confirmed-bad
/// payload leaves the supervisor degraded the same frame.
#[test]
fn data_plane_faults_are_detected_and_escalated() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 703);
    let faults = FaultConfig {
        blackout_rate: 0.15,
        blackout_frames: (1, 2),
        pixel_corruption_rate: 0.35,
        corrupted_fraction: 0.02,
        stuck_rate: 0.2,
        stuck_frames: (1, 2),
        ..FaultConfig::off()
    };
    let mut sup =
        supervisor(&scenario, Runtime::max_parallel(), faults, GuardConfig::default());
    let mut injected = 0u64;
    for frame in scenario.stream(RES).take(12) {
        let before = *sup.guard_stats();
        let out = sup.process(&frame.image, frame.time_s);
        let after = *sup.guard_stats();
        // The frame result carries the same window as the snapshots.
        let g = out.guard;
        assert_eq!(g.digest_checks, after.digest_checks - before.digest_checks);
        assert_eq!(g.digest_mismatches, after.digest_mismatches - before.digest_mismatches);
        assert_eq!(g.stuck_detected, after.stuck_detected - before.stuck_detected);
        assert_eq!(g.dual_recovered, after.dual_recovered - before.dual_recovered);
        assert_eq!(g.monitor_trips(), after.monitor_trips() - before.monitor_trips());
        let fault = out.faults.blackout
            || out.faults.stuck
            || out.faults.pixel_corruption.is_some();
        injected += fault as u64;
        let caught = (after.digest_mismatches + after.stuck_detected)
            > (before.digest_mismatches + before.stuck_detected);
        assert_eq!(caught, fault, "frame {}: detection must match injection", frame.index);
        if caught {
            assert!(
                out.modes.any(),
                "frame {}: a bad payload must escalate the same frame",
                frame.index
            );
        }
    }
    assert!(injected >= 4, "the seed must inject enough faults to make coverage meaningful");
    let gs = sup.guard_stats();
    assert_eq!(gs.digest_mismatches + gs.stuck_detected, injected, "100% detection coverage");
}

/// Divergence-scale tracker drift trips the tracker-consistency
/// monitor, and the supervisor logs the monitor as the cause.
#[test]
fn tracker_divergence_trips_the_tracker_monitor() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 705);
    let faults = FaultConfig {
        tracker_divergence_rate: 1.0,
        tracker_divergence_shift: 0.5,
        ..FaultConfig::off()
    };
    let mut sup =
        supervisor(&scenario, Runtime::max_parallel(), faults, GuardConfig::default());
    for frame in scenario.stream(RES).take(8) {
        sup.process(&frame.image, frame.time_s);
    }
    assert!(
        sup.guard_stats().tra_trips > 0,
        "0.5-unit track jumps must trip the tracker monitor: {:?}",
        sup.guard_stats()
    );
    assert!(
        sup.guard_events().iter().any(|e| e.monitor == Monitor::Tracker),
        "tracker trips must be logged as guard events"
    );
}

/// Timestamp skew far beyond the plausible inter-frame gap trips the
/// localization-residual monitor's timestamp check.
#[test]
fn timestamp_skew_trips_the_localization_monitor() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 707);
    let faults = FaultConfig {
        timestamp_skew_rate: 1.0,
        timestamp_skew_s: (0.8, 1.5),
        ..FaultConfig::off()
    };
    let mut sup =
        supervisor(&scenario, Runtime::max_parallel(), faults, GuardConfig::default());
    for frame in scenario.stream(RES).take(8) {
        sup.process(&frame.image, frame.time_s);
    }
    assert!(
        sup.guard_stats().loc_trips > 0,
        "0.8-1.5 s skews on a 0.1 s cadence must trip the LOC monitor: {:?}",
        sup.guard_stats()
    );
}

/// A guarded fault campaign is bit-reproducible at any thread count:
/// the degradation log, the guard event log and the guard counters all
/// gate on injected virtual state, never on wall clock.
#[test]
fn guarded_campaign_is_thread_count_invariant() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 709);
    let faults = FaultConfig {
        blackout_frames: (2, 5),
        lock_loss_frames: (2, 5),
        timestamp_skew_s: (0.6, 1.2),
        ..FaultConfig::stress()
    };
    let mut logs: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut sup = supervisor(
            &scenario,
            Runtime::new(threads),
            faults.clone(),
            GuardConfig::default(),
        );
        for frame in scenario.stream(RES).take(10) {
            sup.process(&frame.image, frame.time_s);
        }
        let mut log: Vec<String> = sup.events().iter().map(|e| e.to_string()).collect();
        log.extend(sup.guard_events().iter().map(|e| e.to_string()));
        log.push(format!("{:?}", sup.guard_stats()));
        logs.push(log);
    }
    assert_eq!(logs[0], logs[1], "guarded campaign must not depend on thread count (1 vs 2)");
    assert_eq!(logs[0], logs[2], "guarded campaign must not depend on thread count (1 vs 8)");
}
