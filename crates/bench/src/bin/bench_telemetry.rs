//! Fleet telemetry plane + black-box flight recorder harness.
//!
//! Replays the soak fault grid (data and everything mixes × derived
//! seeds) as a fleet campaign under a recording `TelemetrySession` and
//! checks the telemetry plane's two contracts:
//!
//! * **Fleet determinism** — the fleet-merged registry's Prometheus
//!   exposition is byte-identical across 1, 2 and 8 fleet workers and
//!   across same-seed re-runs (only virtual-clock quantities enter the
//!   registry, and the engine merges per-cell registries in spec
//!   order).
//! * **Dump causality** — every SafeStop flight dump in a data-bearing
//!   cell must contain the injector-corrupted frame that preceded the
//!   escalation: the most recent injected data-plane fault at or before
//!   the trigger frame appears in the dump window with its data-fault
//!   bits set. The injector replay is exact (same seed, same schedule),
//!   so the culprit frame is known ground truth.
//!
//! Recording cost is wall clock and lives in perfbench
//! (`telemetry.overhead_share`); `tests/telemetry.rs` pins that
//! recording never perturbs outputs.
//!
//! Artifacts, both in `target/bench/`: `BENCH_telemetry.json`
//! (validated by the workspace JSON checker) and `PROM_telemetry.txt`
//! (the fleet Prometheus snapshot, validated by the hand-rolled
//! exposition validator).
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_telemetry [-- --smoke]
//! ```

use adsim_faults::{FaultConfig, FaultInjector};
use adsim_fleet::{CellOutcome, CellSpec, FleetAssets, FleetConfig, FleetEngine};
use adsim_telemetry::{
    prometheus_text, validate_prometheus, DumpTrigger, MetricsRegistry, TelemetrySession,
    FAULT_DATA_MASK,
};
use adsim_trace::validate_json;
use adsim_workload::Resolution;

/// Campaign base seed (the soak harness's, so the grids line up).
const SEED: u64 = 0x50A_C0DE;

/// The i-th derived campaign seed (golden-ratio stride).
fn derived_seed(i: u64) -> u64 {
    SEED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// The soak grid's data-plane mix (blackouts, stuck frames, pixel
/// corruption) — the mix whose SafeStops have an injector-known cause.
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

struct Grid {
    specs: Vec<CellSpec>,
    mixes: Vec<&'static str>,
}

fn build_grid(n_seeds: u64, frames: usize) -> Grid {
    let mut specs = Vec::new();
    let mut mixes = Vec::new();
    for (name, cfg) in [("data", data_mix()), ("everything", FaultConfig::stress())] {
        for i in 0..n_seeds {
            specs.push(CellSpec::new(format!("{name}/{i}"), cfg.clone(), derived_seed(i), frames));
            mixes.push(name);
        }
    }
    Grid { specs, mixes }
}

/// Replays a cell's injector schedule and returns the frames on which
/// the sensor payload was touched (blackout, stuck, pixel corruption).
fn injected_data_fault_frames(spec: &CellSpec) -> Vec<u64> {
    let mut injector = FaultInjector::new(spec.seed, spec.faults.clone());
    (0..spec.frames as u64)
        .filter(|_| {
            let f = injector.next_frame();
            f.blackout || f.stuck || f.pixel_corruption.is_some()
        })
        .collect()
}

struct Causality {
    safe_stop_dumps: u64,
    checked: u64,
    violations: u64,
}

/// The dump-causality sweep: for every SafeStop dump in a cell, the
/// latest injected data fault at or before the trigger frame must sit
/// in the dump window with its data-fault bits set.
fn check_causality(specs: &[CellSpec], outcomes: &[CellOutcome]) -> Causality {
    let mut c = Causality { safe_stop_dumps: 0, checked: 0, violations: 0 };
    for (spec, outcome) in specs.iter().zip(outcomes) {
        let fault_frames = injected_data_fault_frames(spec);
        for dump in &outcome.dumps {
            if dump.trigger != DumpTrigger::SafeStop {
                continue;
            }
            c.safe_stop_dumps += 1;
            let Some(&culprit) = fault_frames.iter().rev().find(|&&f| f <= dump.frame) else {
                continue; // SafeStop with no prior data fault (timing path)
            };
            c.checked += 1;
            let hit = dump
                .records
                .iter()
                .any(|r| r.frame == culprit && r.fault_bits & FAULT_DATA_MASK != 0);
            if !hit {
                c.violations += 1;
                println!(
                    "  CAUSALITY FAIL {}: dump at frame {} missing corrupted frame {culprit}",
                    outcome.label, dump.frame
                );
            }
        }
    }
    c
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_seeds, frames, mode) = if smoke { (2u64, 12usize, "smoke") } else { (4, 60, "full") };

    adsim_bench::header(
        "Telemetry",
        "fleet metrics registry + black-box flight recorder over the soak fault grid",
    );
    let assets = FleetAssets::urban(Resolution::Hhd);
    let grid = build_grid(n_seeds, frames);
    println!(
        "grid: data+everything x {n_seeds} seeds, {frames} frames/cell ({} cells)",
        grid.specs.len()
    );

    // -- Fleet determinism: Prometheus snapshot across worker counts. --
    let session = TelemetrySession::begin();
    let mut reference: Option<(String, Vec<String>)> = None;
    let mut parity = Vec::new();
    let mut last_outcomes: Vec<CellOutcome> = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = FleetEngine::new(assets.clone(), FleetConfig::with_workers(workers));
        let campaign = engine.run(&grid.specs);
        let prom = prometheus_text(&campaign.telemetry);
        validate_prometheus(&prom).expect("fleet exposition must validate");
        let signatures = campaign.signatures();
        let identical = match &reference {
            None => {
                reference = Some((prom.clone(), signatures));
                true
            }
            Some((ref_prom, ref_sigs)) => prom == *ref_prom && signatures == *ref_sigs,
        };
        println!(
            "  {workers} worker(s): {} series, prometheus {}",
            campaign.telemetry.len(),
            if identical { "byte-identical" } else { "DIVERGED" }
        );
        parity.push((workers, identical));
        last_outcomes = campaign.outcomes;
    }
    assert!(
        parity.iter().all(|&(_, ok)| ok),
        "fleet telemetry must be byte-identical across worker counts"
    );

    // Same-seed re-run (fresh engine, same worker count as the last).
    let rerun = FleetEngine::new(assets, FleetConfig::with_workers(8)).run(&grid.specs);
    let rerun_prom = prometheus_text(&rerun.telemetry);
    let rerun_identical =
        reference.as_ref().is_some_and(|(ref_prom, _)| rerun_prom == *ref_prom);
    println!("  re-run: prometheus {}", if rerun_identical { "byte-identical" } else { "DIVERGED" });
    assert!(rerun_identical, "same-seed re-run must reproduce the fleet registry exactly");

    // -- Dump causality over the grid. ---------------------------------
    let causality = check_causality(&grid.specs, &last_outcomes);
    let total_dumps: usize = last_outcomes.iter().map(|o| o.dumps.len()).sum();
    println!(
        "dump causality: {total_dumps} dump(s), {} safe-stop, {} checked, {} violation(s)",
        causality.safe_stop_dumps, causality.checked, causality.violations
    );
    assert_eq!(causality.violations, 0, "every SafeStop dump must contain its corrupted frame");
    if !smoke {
        assert!(causality.checked > 0, "full grid must exercise data-fault SafeStop dumps");
    }

    let _ = session.finish(); // clears the enable flag; cells already drained their shards

    // The re-run's exposition: sorted by the engine and validated above
    // (it equals the 1-worker reference byte for byte).
    adsim_bench::write_artifact("PROM_telemetry.txt", &rerun_prom);

    let json = to_json(
        mode,
        &parity,
        rerun_identical,
        &rerun.telemetry,
        &causality,
        total_dumps,
        &grid,
        &last_outcomes,
    );
    validate_json(&json).expect("BENCH_telemetry.json must be well-formed");
    adsim_bench::write_artifact("BENCH_telemetry.json", &json);
}

/// Hand-rolled JSON (offline policy: no serde).
#[allow(clippy::too_many_arguments)]
fn to_json(
    mode: &str,
    parity: &[(usize, bool)],
    rerun_identical: bool,
    registry: &MetricsRegistry,
    causality: &Causality,
    total_dumps: usize,
    grid: &Grid,
    outcomes: &[CellOutcome],
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"bench_telemetry\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    let parity_json: Vec<String> = parity
        .iter()
        .map(|(w, ok)| format!("{{\"workers\": {w}, \"prometheus_byte_identical\": {ok}}}"))
        .collect();
    s.push_str(&format!("  \"parity\": [{}],\n", parity_json.join(", ")));
    s.push_str(&format!("  \"rerun_byte_identical\": {rerun_identical},\n"));
    s.push_str(&format!("  \"series\": {},\n", registry.len()));
    s.push_str(&format!(
        "  \"dump_causality\": {{\"dumps\": {total_dumps}, \"safe_stop_dumps\": {}, \
         \"checked\": {}, \"violations\": {}}},\n",
        causality.safe_stop_dumps, causality.checked, causality.violations
    ));
    s.push_str("  \"cells\": [\n");
    for (i, (outcome, mix)) in outcomes.iter().zip(&grid.mixes).enumerate() {
        s.push_str(&format!(
            "    {{\"mix\": \"{mix}\", \"seed\": {}, \"frames\": {}, \"safe_stops\": {}, \
             \"monitor_trips\": {}, \"dumps\": {}}}{}\n",
            outcome.seed,
            outcome.frames,
            outcome.safe_stops,
            outcome.monitor_trips,
            outcome.dumps.len(),
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
