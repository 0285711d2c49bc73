//! Fault-injection campaign over the supervised driving pipeline.
//!
//! Sweeps sensor-blackout and localization lock-loss rates over a grid
//! and runs the graceful-degradation supervisor at each cell — once on
//! the native pipeline (real frames, real perception, scheduled as a
//! fleet campaign by `adsim-fleet`'s work-stealing engine) and once on
//! the modeled pipeline (latency-model frames at scale). Reports
//! degraded-frame rates, mean time-to-recover and safe-stop counts per
//! cell — plus, for the modeled section, the seeded simulation's
//! deadline-miss rate and p99 — re-runs one faulted cell to prove the
//! event log is seed-reproducible, and writes everything to
//! `target/bench/BENCH_faults.json`. The native section's wall-clock
//! latency lives in perfbench (`frame_ms_p50`/`p90` on `fleet_faults`).
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_faults [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the grid and frame counts for smoke-testing the
//! runner itself.

use adsim_bench::json::{self, fixed, obj, Value};
use adsim_bench::Mode;
use adsim_core::{ModeledPipeline, ModeledSupervisor, PlatformConfig, SupervisorConfig};
use adsim_faults::{FaultConfig, FaultInjector};
use adsim_fleet::{run_cell, CellOutcome, CellSpec, FleetConfig, FleetEngine};
use adsim_platform::Platform;
use adsim_stats::Quantile;
use adsim_workload::Resolution;

/// Campaign seed; every injector derives from it deterministically.
const SEED: u64 = 0xFA_0175;

/// One swept cell's outcome, destined for the JSON report.
struct Cell {
    section: &'static str,
    blackout_rate: f64,
    lock_loss_rate: f64,
    frames: u64,
    events: usize,
    episodes: u64,
    mean_ttr_frames: f64,
    degraded_rate: f64,
    safe_stops: u64,
    retries: u64,
    /// `(miss_rate, p99_ms)` of the modeled section: exact, because the
    /// latency model is a seeded simulation. `None` for native cells.
    modeled_latency: Option<(f64, f64)>,
}

impl Cell {
    /// A native-sweep row from a fleet cell outcome. `events` counts
    /// the degradation log only (the guard log is bench_soak's story).
    fn native(blackout_rate: f64, lock_loss_rate: f64, out: &CellOutcome) -> Self {
        Cell {
            section: "native",
            blackout_rate,
            lock_loss_rate,
            frames: out.frames,
            events: out.sup_log.len(),
            episodes: out.episodes,
            mean_ttr_frames: out.mean_ttr_frames,
            degraded_rate: out.degraded_rate,
            safe_stops: out.safe_stops,
            retries: out.retries,
            modeled_latency: None,
        }
    }
}

fn fault_cfg(blackout_rate: f64, lock_loss_rate: f64) -> FaultConfig {
    FaultConfig {
        blackout_rate,
        // Long enough that a sustained outage can cross the
        // supervisor's 4-frame safe-stop threshold; short single-frame
        // blackouts are coasted through by the tracker pool and never
        // surface as degradation events.
        blackout_frames: (2, 6),
        lock_loss_rate,
        lock_loss_frames: (2, 6),
        ..FaultConfig::off()
    }
}

fn report_cell(c: &Cell) {
    let p99 = c.modeled_latency.map_or(String::new(), |(_, p99)| format!(" p99={p99:.2} ms"));
    println!(
        "  {:>7} blackout={:<5} lockloss={:<5} frames={:<5} events={:<4} episodes={:<3} \
         ttr={:<5.2} degraded={:>5.1}% safestops={}{p99}",
        c.section,
        c.blackout_rate,
        c.lock_loss_rate,
        c.frames,
        c.events,
        c.episodes,
        c.mean_ttr_frames,
        c.degraded_rate * 100.0,
        c.safe_stops,
    );
}

fn main() {
    let mode = Mode::from_args();
    let res = Resolution::Hhd;
    let rates: &[f64] = mode.pick(&[0.0, 0.10], &[0.0, 0.05, 0.15]);
    let native_frames = mode.pick(10, 40);
    let modeled_frames = mode.pick(200, 2000);

    adsim_bench::header(
        "Faults",
        "blackout x lock-loss sweep under the graceful-degradation supervisor",
    );
    let mut cells: Vec<Cell> = Vec::new();

    // -- Native sweep: real frames through the supervised pipeline,
    // every (blackout, lock-loss) cell scheduled as one fleet campaign
    // sharing the prior map and model weights.
    let engine =
        FleetEngine::new(adsim_fleet::FleetAssets::urban(res), FleetConfig::default());
    println!(
        "native pipeline ({native_frames} frames/cell, seed {SEED:#x}, {} fleet workers):",
        engine.config().workers,
    );
    let mut specs: Vec<CellSpec> = Vec::new();
    let mut grid: Vec<(f64, f64)> = Vec::new();
    for &b in rates {
        for &l in rates {
            specs.push(CellSpec::new(
                format!("native/b{b}/l{l}"),
                fault_cfg(b, l),
                SEED,
                native_frames,
            ));
            grid.push((b, l));
        }
    }
    let campaign = engine.run(&specs);
    let mut repro: Option<(usize, Vec<String>)> = None;
    for (i, (&(b, l), out)) in grid.iter().zip(&campaign.outcomes).enumerate() {
        let cell = Cell::native(b, l, out);
        report_cell(&cell);
        // Remember the first cell with both fault kinds active for
        // the determinism re-run below.
        if repro.is_none() && b > 0.0 && l > 0.0 {
            repro = Some((i, out.sup_log.clone()));
        }
        cells.push(cell);
    }

    // -- Determinism: same seed + config => identical event log. ------
    let deterministic = match &repro {
        Some((idx, first_log)) => {
            let (second, _) = run_cell(engine.assets(), &specs[*idx], &engine.config().pipeline);
            let ok = *first_log == second.sup_log;
            println!(
                "\ndeterminism re-run ({} events): {}",
                first_log.len(),
                adsim_bench::mark(ok)
            );
            assert!(ok, "same seed and fault config must reproduce the event log");
            ok
        }
        None => {
            println!("\ndeterminism re-run skipped: no faulted cell in the sweep");
            true
        }
    };

    // -- Modeled sweep: latency-model frames at scale. ----------------
    println!("\nmodeled pipeline (GPU platform, {modeled_frames} frames/cell):");
    for &b in rates {
        for &l in rates {
            let cfg = fault_cfg(b, l);
            let mut sup = ModeledSupervisor::new(
                ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), SEED),
                FaultInjector::new(SEED, cfg.clone()),
                SupervisorConfig::default(),
            );
            let (mut stats, recovery) = sup.simulate(modeled_frames, 1.0);
            let cell = Cell {
                section: "modeled",
                blackout_rate: b,
                lock_loss_rate: l,
                frames: recovery.frames,
                events: sup.events().len(),
                episodes: recovery.episodes,
                mean_ttr_frames: recovery.mean_time_to_recover(),
                degraded_rate: recovery.degraded_rate(),
                safe_stops: recovery.safe_stops,
                retries: recovery.retries,
                modeled_latency: Some((
                    recovery.miss_rate(),
                    stats.end_to_end.quantile(Quantile::P99),
                )),
            };
            report_cell(&cell);
            cells.push(cell);
        }
    }

    adsim_bench::write_artifact("BENCH_faults.json", &to_json(mode, deterministic, &cells));
}

fn to_json(mode: Mode, deterministic: bool, cells: &[Cell]) -> String {
    let cells = cells.iter().map(|c| {
        let mut m = vec![
            ("section", c.section.into()), ("blackout_rate", c.blackout_rate.into()),
            ("lock_loss_rate", c.lock_loss_rate.into()), ("frames", c.frames.into()),
            ("events", c.events.into()), ("episodes", c.episodes.into()),
            ("mean_ttr_frames", fixed(c.mean_ttr_frames, 4)),
            ("degraded_rate", fixed(c.degraded_rate, 6)), ("safe_stops", c.safe_stops.into()),
            ("retries", c.retries.into()),
        ];
        if let Some((miss_rate, p99_ms)) = c.modeled_latency {
            m.extend([("miss_rate", fixed(miss_rate, 6)), ("p99_ms", fixed(p99_ms, 4))]);
        }
        obj(m)
    });
    json::render(&obj([
        ("bench", "bench_faults".into()), ("seed", SEED.into()), ("mode", mode.name().into()),
        ("event_log_deterministic", deterministic.into()),
        ("cells", Value::Arr(cells.collect())),
    ]))
}
