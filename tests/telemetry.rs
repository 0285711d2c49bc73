//! Telemetry-plane guarantees: recording must be a pure observer
//! (telemetry on vs off leaves every pipeline output bit-identical),
//! the fleet-merged registry must be byte-identical across worker
//! counts and re-runs, and the black-box flight recorder must dump on
//! every trigger in the matrix (SafeStop, monitor trip, manual).

use adsim::core::SupervisorConfig;
use adsim::faults::FaultConfig;
use adsim::fleet::{
    run_cell, CellOutcome, CellSpec, FleetAssets, FleetConfig, FleetEngine, RecoveryPolicy,
};
use adsim::platform::Component;
use adsim::telemetry::{prometheus_text, validate_prometheus, DumpTrigger, TelemetrySession};
use adsim::workload::Resolution;

const RES: Resolution = Resolution::Hhd;
const FRAMES: usize = 12;

fn data_mix() -> FaultConfig {
    FaultConfig {
        blackout_rate: 0.06,
        blackout_frames: (2, 5),
        pixel_corruption_rate: 0.25,
        corrupted_fraction: 0.05,
        stuck_rate: 0.12,
        stuck_frames: (1, 3),
        ..FaultConfig::off()
    }
}

fn specs() -> Vec<CellSpec> {
    vec![
        CellSpec::new("clean", FaultConfig::off(), 0x5EED1, FRAMES),
        CellSpec::new("data", data_mix(), 0x5EED2, FRAMES),
        CellSpec::new("stress", FaultConfig::stress(), 0x5EED3, FRAMES),
    ]
}

/// Telemetry must be a pure observer: the same cell run with recording
/// on and with recording off produces bit-identical outputs, logs and
/// flight dumps — the only difference is whether the registry fills.
#[test]
fn telemetry_on_vs_off_outputs_bit_identical() {
    let assets = FleetAssets::urban(RES);
    let pipeline = FleetConfig::default().pipeline;

    let session = TelemetrySession::begin();
    let on: Vec<_> = specs().iter().map(|s| run_cell(&assets, s, &pipeline)).collect();
    session.finish();

    let session = TelemetrySession::quiesced();
    let off: Vec<_> = specs().iter().map(|s| run_cell(&assets, s, &pipeline)).collect();
    drop(session);

    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.signature(), b.signature(), "outputs diverged under recording: {}", a.label);
        assert_eq!(a.sup_log, b.sup_log, "degradation log diverged: {}", a.label);
        assert_eq!(a.guard_log, b.guard_log, "guard log diverged: {}", a.label);
        assert_eq!(a.gov_log, b.gov_log, "governor log diverged: {}", a.label);
        assert_eq!(a.output_digest, b.output_digest, "frame outputs diverged: {}", a.label);
        assert_eq!(a.dumps, b.dumps, "flight dumps diverged: {}", a.label);
        assert!(!a.telemetry.is_empty(), "recording session left no series: {}", a.label);
        assert!(b.telemetry.is_empty(), "quiesced session must record nothing: {}", b.label);
    }
    // The recorded registry carries the supervisor's frame counter.
    assert_eq!(on[0].telemetry.counter("sup_frames_total", 0, ""), FRAMES as u64);
    // ... the pipeline's frame counter ...
    assert_eq!(on[0].telemetry.counter("pipeline_frame_total", 0, ""), FRAMES as u64);
    // ... and the guard's trip counters, which count exactly what the
    // cell's guard statistics count.
    for cell in &on {
        let trips = |stage| cell.telemetry.counter("guard_monitor_trip_total", 0, stage);
        assert_eq!(trips("data"), cell.detected_data_faults, "data-plane trips: {}", cell.label);
        assert_eq!(
            ["det", "tra", "loc", "plan"].map(trips).iter().sum::<u64>(),
            cell.monitor_trips,
            "monitor trips: {}",
            cell.label
        );
    }
}

/// A recorded run of a cell whose stages crash and restart from
/// checkpoints.
fn crashy_cell() -> CellOutcome {
    let assets = FleetAssets::urban(RES);
    let pipeline = FleetConfig::default().pipeline;
    let faults = FaultConfig { crash_rate: 0.08, ..FaultConfig::stress() };
    let spec = CellSpec::new("crashy", faults, 0xC4A5, FRAMES)
        .with_recovery(RecoveryPolicy::new(4, 8));
    let session = TelemetrySession::begin();
    let cell = run_cell(&assets, &spec, &pipeline);
    session.finish();
    cell
}

/// A checkpoint restore rewinds the supervisor, never its telemetry:
/// the frames a crash restart replays are counted again, and the crash
/// and restart counters agree with the cell's own ledger.
#[test]
fn restore_does_not_rewind_telemetry() {
    let cell = crashy_cell();
    assert!(cell.restarts >= 1, "seed must restart at least once");
    assert!(cell.replayed_frames > cell.restarts, "a restart must replay settled frames");
    let by_stage = |metric| {
        Component::ALL.iter().map(|c| cell.telemetry.counter(metric, 0, c.key())).sum::<u64>()
    };
    assert_eq!(by_stage("sup_crash_total"), cell.crashes);
    assert_eq!(by_stage("sup_restart_total"), cell.restarts);
    // Each restart re-settles every replayed frame except the crashed
    // one, which never settled before the crash.
    assert_eq!(
        cell.telemetry.counter("sup_frames_total", 0, ""),
        cell.frames + cell.replayed_frames - cell.restarts,
    );
}

/// Every per-stage series labels its stage with the same key, so a
/// crash or restart counter joins the stage costs it interrupted.
#[test]
fn crash_counters_label_stages_like_stage_costs() {
    let cell = crashy_cell();
    let text = prometheus_text(&cell.telemetry);
    let stages = |metric: &str| {
        let prefix = format!("adsim_{metric}{{");
        text.lines()
            .filter_map(|line| line.strip_prefix(prefix.as_str()))
            .filter_map(|labels| labels.split("stage=\"").nth(1)?.split('"').next())
            .collect::<std::collections::BTreeSet<_>>()
    };
    let costs = stages("stage_virtual_ms");
    assert_eq!(costs.len(), Component::ALL.len(), "stage costs: {costs:?}");
    for metric in ["sup_crash_total", "sup_restart_total"] {
        let labels = stages(metric);
        assert!(!labels.is_empty(), "{metric} recorded no series");
        assert!(labels.is_subset(&costs), "{metric} labels {labels:?} vs stage costs {costs:?}");
    }
}

/// The fleet-merged registry is a pure function of the grid: 1, 2 and 8
/// fleet workers, the serial reference, and a same-seed re-run all
/// export byte-identical Prometheus text and JSON snapshots, and every
/// cell's dumps come back identical in spec order.
#[test]
fn fleet_registry_byte_identical_across_worker_counts_and_reruns() {
    let assets = FleetAssets::urban(RES);
    let grid = specs();
    let session = TelemetrySession::begin();

    let reference =
        FleetEngine::new(assets.clone(), FleetConfig::with_workers(1)).run_serial(&grid);
    assert!(!reference.telemetry.is_empty(), "campaign under a session must record series");
    let ref_prom = prometheus_text(&reference.telemetry);
    validate_prometheus(&ref_prom).expect("reference exposition must validate");
    let ref_json = reference.telemetry.snapshot_json();

    for workers in [1usize, 2, 8, 2] {
        let run = FleetEngine::new(assets.clone(), FleetConfig::with_workers(workers)).run(&grid);
        assert_eq!(
            prometheus_text(&run.telemetry),
            ref_prom,
            "prometheus snapshot diverged at {workers} workers"
        );
        assert_eq!(
            run.telemetry.snapshot_json(),
            ref_json,
            "json snapshot diverged at {workers} workers"
        );
        for (got, want) in run.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(got.dumps, want.dumps, "flight dumps diverged: {}", got.label);
        }
    }
    session.finish();
}

/// The trigger matrix: a stress cell must dump on both escalation
/// triggers, and the dump windows must be well-formed (bounded by the
/// configured ring capacity, oldest-first, ending at the trigger).
#[test]
fn stress_cell_dumps_on_safe_stop_and_monitor_trip() {
    let assets = FleetAssets::urban(RES);
    let pipeline = FleetConfig::default().pipeline;
    let spec = CellSpec::new("stress", FaultConfig::stress(), 0x5EED3, FRAMES);
    let session = TelemetrySession::quiesced();
    let outcome = run_cell(&assets, &spec, &pipeline);
    drop(session);

    let triggers: Vec<DumpTrigger> = outcome.dumps.iter().map(|d| d.trigger).collect();
    assert!(
        triggers.contains(&DumpTrigger::SafeStop),
        "stress cell never dumped on SafeStop: {triggers:?}"
    );
    assert!(
        triggers.contains(&DumpTrigger::MonitorTripped),
        "stress cell never dumped on a monitor trip: {triggers:?}"
    );
    let cap = SupervisorConfig::default().flight_frames;
    for dump in &outcome.dumps {
        assert!(!dump.records.is_empty(), "dump must carry a window");
        assert!(dump.records.len() <= cap, "window exceeds the ring capacity");
        assert!(
            dump.records.windows(2).all(|w| w[0].frame < w[1].frame),
            "window must be oldest-first"
        );
        assert_eq!(
            dump.records.last().expect("non-empty").frame,
            dump.frame,
            "window must end at the trigger frame"
        );
        adsim::trace::validate_json(&dump.to_json()).expect("dump JSON must validate");
    }
}

/// Manual dumps: `dump_flight` captures the current window on demand,
/// stamps the configured vehicle id, and lands in the dump log next to
/// the automatic triggers.
#[test]
fn manual_dump_captures_the_current_window() {
    let assets = FleetAssets::urban(RES);
    let pipeline = FleetConfig::default().pipeline;
    let cfg = SupervisorConfig { vehicle: 7, flight_frames: 4, ..SupervisorConfig::default() };
    let mut sup = assets.supervisor(0x5EED1, FaultConfig::off(), cfg, &pipeline);
    let session = TelemetrySession::quiesced();
    for frame in assets.scenario().stream(RES).take(6) {
        sup.process(&frame.image, frame.time_s);
    }
    drop(session);

    let dump = sup.dump_flight();
    assert_eq!(dump.trigger, DumpTrigger::Manual);
    assert_eq!(dump.vehicle, 7);
    assert_eq!(dump.frame, 5, "manual dump must stamp the last processed frame");
    assert_eq!(dump.records.len(), 4, "window must be the ring capacity once wrapped");
    assert_eq!(
        dump.records.iter().map(|r| r.frame).collect::<Vec<_>>(),
        vec![2, 3, 4, 5],
        "ring must retain the last four frames, oldest first"
    );
    assert_eq!(sup.flight_dumps().last(), Some(&dump), "manual dump must join the dump log");
}
