//! Cross-crate anytime-governor guarantees: governor-off is
//! bit-identical to the supervised baseline, the governor preserves
//! fleet byte-identity across worker counts, it acts before the
//! reactive watchdog under sustained latency drift, and every
//! degraded-mode entry balances with an exit (or a terminal safe
//! stop) once a run is finished — early termination included.

use adsim::core::anytime::{AnytimeConfig, DWELL_FRAMES};
use adsim::core::{
    build_prior_map, DegradationCause, DegradationEvent, DegradationEventKind, DegradedMode,
    ModeledPipeline, ModeledSupervisor, NativePipeline, NativePipelineConfig, PlatformConfig,
    Supervisor, SupervisorConfig,
};
use adsim::faults::{FaultConfig, FaultInjector};
use adsim::fleet::{CellSpec, FleetAssets, FleetConfig, FleetEngine};
use adsim::platform::Platform;
use adsim::runtime::Runtime;
use adsim::vision::Pose2;
use adsim::workload::{Resolution, Scenario, ScenarioKind};

const RES: Resolution = Resolution::Hhd;

/// A drift mix severe enough to trip the detection watchdog with the
/// governor off (load ramps past `1 + 50/40 = 2.25` within an
/// episode).
fn heavy_drift() -> FaultConfig {
    FaultConfig {
        drift_rate: 0.05,
        drift_frames: (30, 60),
        drift_per_frame: (0.05, 0.08),
        ..FaultConfig::off()
    }
}

fn governor_on() -> SupervisorConfig {
    SupervisorConfig { anytime: AnytimeConfig::On, ..SupervisorConfig::default() }
}

fn modeled(seed: u64, faults: FaultConfig, cfg: SupervisorConfig) -> ModeledSupervisor {
    ModeledSupervisor::new(
        ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 1),
        FaultInjector::new(seed, faults),
        cfg,
    )
}

fn native_pipeline(scenario: &Scenario) -> NativePipeline {
    let camera = scenario.camera(RES);
    let poses: Vec<Pose2> = (0..96)
        .step_by(8)
        .flat_map(|i| {
            let p = scenario.pose_at(i);
            [p, Pose2::new(p.x, p.y + 25.0, p.theta), Pose2::new(p.x, p.y - 25.0, p.theta)]
        })
        .collect();
    let map = build_prior_map(scenario.world(), &camera, poses, 300, 25);
    let cfg = NativePipelineConfig { runtime: Runtime::serial(), ..Default::default() };
    let mut pipe = NativePipeline::new(camera, map, cfg);
    pipe.seed_pose(scenario.pose_at(0));
    pipe
}

/// With the governor disabled (the default), a supervisor must behave
/// bit-identically to the pre-anytime baseline: no knob is touched and
/// no governor event is emitted under a heavy drift campaign, and the
/// default config is the disabled one.
#[test]
fn governor_off_is_bit_identical_to_the_supervised_baseline() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 801);
    let frames = 8;

    let run = |anytime: AnytimeConfig| {
        let mut sup = Supervisor::new(
            native_pipeline(&scenario),
            FaultInjector::new(0xD21F7, heavy_drift()),
            SupervisorConfig { anytime, ..SupervisorConfig::default() },
        );
        let mut sigs = Vec::new();
        for frame in scenario.stream(RES).take(frames) {
            let out = sup.process(&frame.image, frame.time_s);
            sigs.push(format!(
                "{:?} {:?} {:?} {:?}",
                out.result.pose, out.result.tracks, out.result.plan, out.modes
            ));
        }
        assert!(sup.governor_events().is_empty(), "disabled governor must stay silent");
        assert_eq!(sup.recovery_stats().quality_switches, 0);
        assert_eq!(sup.recovery_stats().quality_reduced_frames, 0);
        sigs
    };

    assert_eq!(run(AnytimeConfig::Off), run(SupervisorConfig::default().anytime));
}

/// The anytime campaign (drift × governor-on/off cells) must stay
/// byte-identical across fleet worker counts and same-seed re-runs —
/// the governor gates on virtual latency only, so stealing order and
/// wall clock cannot leak into its decisions.
#[test]
fn anytime_campaign_is_byte_identical_across_worker_counts() {
    let assets = FleetAssets::urban(RES);
    let frames = 20;
    let grid = vec![
        CellSpec::new("heavy/off", heavy_drift(), 0x5EEDA, frames),
        CellSpec::new("heavy/on", heavy_drift(), 0x5EEDA, frames).with_supervisor(governor_on()),
        CellSpec::new("clean/on", FaultConfig::off(), 0x5EEDB, frames)
            .with_supervisor(governor_on()),
    ];

    let reference =
        FleetEngine::new(assets.clone(), FleetConfig::with_workers(1)).run_serial(&grid);
    // The governed cell must actually govern, or the parity proves
    // nothing about governor determinism.
    assert!(
        reference.outcomes[1].quality_switches > 0,
        "heavy drift must engage the governor in the parity grid"
    );
    assert!(
        reference.outcomes[1].virtual_miss_rate <= reference.outcomes[0].virtual_miss_rate,
        "governor-on must not miss more than governor-off on the same schedule"
    );
    assert_eq!(reference.outcomes[2].quality_switches, 0, "no load, no governor action");

    for workers in [1usize, 2, 8] {
        let run = FleetEngine::new(assets.clone(), FleetConfig::with_workers(workers)).run(&grid);
        assert_eq!(
            run.signatures(),
            reference.signatures(),
            "campaign diverged at {workers} workers"
        );
        for (a, b) in run.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(a.gov_log, b.gov_log, "governor log diverged at {workers} workers");
            assert_eq!(a.sup_log, b.sup_log, "supervisor log diverged at {workers} workers");
        }
    }
    let rerun = FleetEngine::new(assets, FleetConfig::with_workers(2)).run(&grid);
    assert_eq!(rerun.signatures(), reference.signatures(), "same-seed re-run diverged");
}

/// Under sustained latency drift the governor's first step-down must
/// land at least one frame before the reactive watchdog would have
/// abandoned detection on the identical fault schedule, and the
/// governed run must miss strictly fewer virtual deadlines.
#[test]
fn governor_acts_before_the_reactive_watchdog_under_drift() {
    let frames = 400;
    let mut checked = 0;
    for seed in 0..200u64 {
        let mut off = modeled(seed, heavy_drift(), SupervisorConfig::default());
        off.simulate(frames, 1.0);
        let watchdog_frame = off.events().iter().find_map(|e| match e.kind {
            DegradationEventKind::Entered {
                mode: DegradedMode::TrackerOnly,
                cause: DegradationCause::DetectionOverBudget { .. },
            } => Some(e.frame),
            _ => None,
        });
        let Some(watchdog_frame) = watchdog_frame else { continue };

        let mut on = modeled(seed, heavy_drift(), governor_on());
        on.simulate(frames, 1.0);
        let governor_frame = on
            .governor_events()
            .first()
            .map(|e| e.frame)
            .expect("drift that trips the watchdog must engage the governor");
        assert!(
            governor_frame < watchdog_frame,
            "seed {seed}: governor acted at {governor_frame}, watchdog at {watchdog_frame}"
        );
        assert!(
            on.recovery_stats().virtual_deadline_misses
                < off.recovery_stats().virtual_deadline_misses,
            "seed {seed}: governed run must miss strictly fewer virtual deadlines"
        );
        checked += 1;
        if checked >= 3 {
            return;
        }
    }
    panic!("no seed in 0..200 tripped the governor-off watchdog under heavy drift");
}

/// Quality switches at the supervised level respect the dwell window:
/// two consecutive governor events are always at least `DWELL_FRAMES`
/// apart, whatever the drift schedule does.
#[test]
fn supervised_quality_switches_respect_the_dwell_window() {
    let cfg = governor_on();
    let dwell = u64::from(DWELL_FRAMES);
    let mut saw_switches = false;
    for seed in [3u64, 7, 11] {
        let mut sup = modeled(seed, heavy_drift(), cfg.clone());
        sup.simulate(600, 1.0);
        let frames: Vec<u64> = sup.governor_events().iter().map(|e| e.frame).collect();
        for w in frames.windows(2) {
            assert!(w[1] - w[0] >= dwell, "switches at {} and {} violate dwell {dwell}", w[0], w[1]);
        }
        saw_switches |= !frames.is_empty();
    }
    assert!(saw_switches, "heavy drift must produce at least one quality switch");
}

/// Replays an event log and returns the modes still open at the end
/// (panicking on double-enters or unmatched exits on the way).
fn open_modes(events: &[DegradationEvent]) -> Vec<DegradedMode> {
    let mut open: Vec<DegradedMode> = Vec::new();
    for e in events {
        match e.kind {
            DegradationEventKind::Entered { mode, .. } => {
                assert!(!open.contains(&mode), "double enter of {mode} at frame {}", e.frame);
                open.push(mode);
            }
            DegradationEventKind::Exited { mode, .. } => {
                let i = open
                    .iter()
                    .position(|m| *m == mode)
                    .unwrap_or_else(|| panic!("exit of {mode} at frame {} without enter", e.frame));
                open.remove(i);
            }
            // Retries and crash restarts are point events, not mode
            // transitions — nothing to balance.
            DegradationEventKind::Retry { .. } | DegradationEventKind::Restart { .. } => {}
        }
    }
    open
}

/// After `finish()`, every `degrade.enter.*` balances with a
/// `degrade.exit.*` — the only mode allowed to remain open is a
/// terminal safe stop. Exercised across fault mixes and run lengths,
/// including early termination mid-episode.
#[test]
fn finished_runs_balance_every_mode_transition() {
    let mixes = [
        ("stress", FaultConfig::stress()),
        ("drift", heavy_drift()),
        (
            "blackout",
            FaultConfig { blackout_rate: 0.04, blackout_frames: (5, 9), ..FaultConfig::off() },
        ),
    ];
    // 37 and 61 frames cut runs off mid-episode on most seeds — the
    // early-termination case the audit must still balance.
    let mut terminal_safe_stops = 0;
    for (name, faults) in &mixes {
        for frames in [37usize, 61, 500] {
            for seed in [1u64, 9, 42] {
                for cfg in [SupervisorConfig::default(), governor_on()] {
                    let mut sup = modeled(seed, faults.clone(), cfg);
                    sup.simulate(frames, 1.0);
                    sup.finish();
                    sup.finish(); // idempotent
                    let open = open_modes(sup.events());
                    assert!(
                        open.is_empty() || open == [DegradedMode::SafeStop],
                        "{name}/{frames}f/seed {seed}: modes still open after finish: {open:?}"
                    );
                    if open == [DegradedMode::SafeStop] {
                        terminal_safe_stops += 1;
                    }
                    assert!(
                        !sup.recovery_stats().degraded_at_end
                            || open == [DegradedMode::SafeStop],
                        "{name}/{frames}f/seed {seed}: degraded_at_end without terminal safe stop"
                    );
                }
            }
        }
    }
    // The grid must include at least one run that ends parked — the
    // terminal state the audit explicitly allows.
    assert!(terminal_safe_stops > 0, "no run ended in a terminal safe stop");
}
