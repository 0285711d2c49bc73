//! Chaos soak campaign over the guarded, supervised driving pipeline.
//!
//! Runs a grid of fault mixes × derived seeds through the native
//! pipeline with the safety-monitor guard active and checks the
//! end-to-end safety contract on every run. The grid is scheduled by
//! the `adsim-fleet` work-stealing campaign engine — this harness was
//! its first client, promoted from a hand-rolled serial loop — so cells
//! run in parallel while the contract stays checked per cell:
//!
//! * **Detection coverage** — every injected data-plane fault
//!   (blackout, stuck sensor, pixel corruption) must be caught by the
//!   checksummed hand-off (digest mismatch or stuck-frame verdict);
//!   coverage ≥ 95 % per data-bearing cell.
//! * **No uncaught violations** — any frame on which a monitor trips
//!   or a bad payload is confirmed must leave the supervisor in a
//!   degraded mode that same frame (escalation can never be dropped).
//! * **Bounded recovery** — the longest completed degradation episode
//!   stays under a fixed frame bound.
//! * **Safe-stop reachability** — hostile mixes must command at least
//!   one safe stop somewhere in the campaign.
//! * **Determinism** — re-running one faulted cell with the same seed
//!   reproduces the degradation log, the guard event log and every
//!   non-wall-clock cell field byte for byte (the fleet engine pins the
//!   same property across worker counts in `tests/fleet.rs`).
//!
//! The per-cell table lands in `target/bench/BENCH_soak.json`. Guard
//! cost is wall clock and lives in perfbench
//! (`core.supervisor_overhead_ms`); `tests/guard.rs` pins that an armed
//! guard never perturbs outputs.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_soak [-- --smoke]
//! ```
//!
//! `--smoke` is the tier-1 wiring check: two seeds, three mixes, a
//! dozen frames per run.

use adsim_bench::json::{self, fixed, obj, Value};
use adsim_bench::Mode;
use adsim_core::GuardConfig;
use adsim_faults::FaultConfig;
use adsim_fleet::{run_cell, CellOutcome, CellSpec, FleetAssets, FleetConfig, FleetEngine};
use adsim_workload::Resolution;

/// Campaign base seed; per-run seeds derive from it below.
const SEED: u64 = 0x50A_C0DE;

/// Longest tolerated completed degradation episode (frames). Outages
/// in the mixes run up to 6 frames and recovery hysteresis adds
/// `recover_frames`; anything past this bound means the supervisor
/// wedged in a degraded mode instead of recovering.
const TTR_BOUND_FRAMES: u64 = 50;

/// The i-th derived campaign seed (golden-ratio stride, like the
/// injector's own per-frame derivation).
fn derived_seed(i: u64) -> u64 {
    SEED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// One fault mix of the soak grid.
struct Mix {
    name: &'static str,
    cfg: FaultConfig,
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix { name: "clean", cfg: FaultConfig::off() },
        Mix {
            name: "data",
            cfg: FaultConfig {
                blackout_rate: 0.06,
                blackout_frames: (2, 5),
                pixel_corruption_rate: 0.25,
                corrupted_fraction: 0.05,
                stuck_rate: 0.12,
                stuck_frames: (1, 3),
                ..FaultConfig::off()
            },
        },
        Mix {
            name: "timing",
            cfg: FaultConfig {
                latency_spike_rate: 0.30,
                stall_rate: 0.15,
                timestamp_skew_rate: 0.30,
                // Beyond the guard's max inter-frame gap, so skews are
                // directly observable at the LOC boundary.
                timestamp_skew_s: (0.6, 1.2),
                ..FaultConfig::off()
            },
        },
        Mix {
            name: "divergence",
            cfg: FaultConfig {
                tracker_divergence_rate: 0.30,
                tracker_divergence_shift: 0.40,
                lock_loss_rate: 0.10,
                lock_loss_frames: (2, 5),
                ..FaultConfig::off()
            },
        },
        Mix { name: "everything", cfg: FaultConfig::stress() },
    ]
}

/// A campaign cell plus the mix/guard names it reports under.
struct Cell {
    mix: &'static str,
    guard: &'static str,
    out: CellOutcome,
}

impl Cell {
    /// Everything deterministic about the run. The determinism re-run
    /// compares this (the fleet outcome signature prefixed with the
    /// mix/guard identity).
    fn signature(&self) -> String {
        format!("{}/{} {}", self.mix, self.guard, self.out.signature())
    }

    /// The rendered degradation + guard event logs, concatenated.
    fn log(&self) -> Vec<String> {
        let mut log = self.out.sup_log.clone();
        log.extend(self.out.guard_log.iter().cloned());
        log
    }
}

fn report_cell(c: &Cell) {
    println!(
        "  {:>10}/{:<7} seed={:>18} frames={:<4} injected={:<3} detected={:<3} \
         cov={:>5.1}% trips={:<3} uncaught={} ttr={:<4.1} max={:<3} safestops={}",
        c.mix,
        c.guard,
        format!("{:#x}", c.out.seed),
        c.out.frames,
        c.out.injected_data_faults,
        c.out.detected_data_faults,
        c.out.coverage() * 100.0,
        c.out.monitor_trips,
        c.out.uncaught,
        c.out.mean_ttr_frames,
        c.out.max_ttr_frames,
        c.out.safe_stops,
    );
}

fn main() {
    let mode = Mode::from_args();
    let (n_seeds, frames) = mode.pick((2u64, 12usize), (4, 60));

    adsim_bench::header(
        "Soak",
        "fault-mix x seed chaos campaign under safety monitors and a checksummed data plane",
    );
    let assets = FleetAssets::urban(Resolution::Hhd);
    let all_mixes = mixes();
    let grid: Vec<&Mix> = if mode == Mode::Smoke {
        all_mixes.iter().filter(|m| matches!(m.name, "clean" | "data" | "everything")).collect()
    } else {
        all_mixes.iter().collect()
    };

    // -- Soak grid: every mix × every derived seed, guards on, plus the
    // data mix again under dual-execution voting (transient corruption
    // must be repaired in place while coverage and escalation
    // guarantees keep holding). The whole grid is one fleet campaign;
    // outcomes come back in spec order regardless of steal order.
    let data_mix = all_mixes.iter().find(|m| m.name == "data").expect("data mix exists");
    let mut specs: Vec<CellSpec> = Vec::new();
    let mut names: Vec<(&'static str, &'static str)> = Vec::new();
    for mix in &grid {
        for i in 0..n_seeds {
            specs.push(CellSpec::new(
                format!("{}/default/{i}", mix.name),
                mix.cfg.clone(),
                derived_seed(i),
                frames,
            ));
            names.push((mix.name, "default"));
        }
    }
    for i in 0..n_seeds {
        specs.push(
            CellSpec::new(
                format!("data/voting/{i}"),
                data_mix.cfg.clone(),
                derived_seed(i),
                frames,
            )
            .with_guard(GuardConfig::Voting),
        );
        names.push(("data", "voting"));
    }

    let engine = FleetEngine::new(assets.clone(), FleetConfig::default());
    println!(
        "soak grid ({} mixes x {n_seeds} seeds + voting, {frames} frames/run, {} fleet workers):",
        grid.len(),
        engine.config().workers,
    );
    let campaign = engine.run(&specs);
    let cells: Vec<Cell> = campaign
        .outcomes
        .into_iter()
        .zip(names)
        .map(|(out, (mix, guard))| Cell { mix, guard, out })
        .collect();
    for c in &cells {
        report_cell(c);
    }

    // -- The safety contract, checked over every cell. ----------------
    let mut contract_ok = true;
    for c in &cells {
        if c.out.injected_data_faults > 0 && c.out.coverage() < 0.95 {
            println!(
                "  FAIL {}/{} seed {:#x}: coverage {:.1}% < 95%",
                c.mix,
                c.guard,
                c.out.seed,
                c.out.coverage() * 100.0
            );
            contract_ok = false;
        }
        if c.out.uncaught > 0 {
            println!(
                "  FAIL {}/{} seed {:#x}: {} uncaught violation(s)",
                c.mix, c.guard, c.out.seed, c.out.uncaught
            );
            contract_ok = false;
        }
        if c.out.max_ttr_frames > TTR_BOUND_FRAMES {
            println!(
                "  FAIL {}/{} seed {:#x}: max TTR {} frames > bound {}",
                c.mix, c.guard, c.out.seed, c.out.max_ttr_frames, TTR_BOUND_FRAMES
            );
            contract_ok = false;
        }
    }
    let safe_stops: u64 = cells.iter().map(|c| c.out.safe_stops).sum();
    if safe_stops == 0 {
        println!("  FAIL: no soak run ever reached a safe stop");
        contract_ok = false;
    }
    println!(
        "\nsafety contract (coverage >= 95%, zero uncaught, TTR <= {TTR_BOUND_FRAMES}, \
         safe stop reached): {}",
        adsim_bench::mark(contract_ok)
    );
    assert!(contract_ok, "soak safety contract violated");

    // -- Determinism: same seed + mix => byte-identical logs. ---------
    let (first_idx, first) = cells
        .iter()
        .enumerate()
        .find(|(_, c)| c.out.injected_data_faults > 0)
        .expect("grid has a data-bearing cell");
    let second_out = run_cell(&assets, &specs[first_idx], &engine.config().pipeline);
    let second = Cell { mix: first.mix, guard: first.guard, out: second_out };
    let deterministic = first.log() == second.log() && first.signature() == second.signature();
    println!(
        "determinism re-run ({} log lines): {}",
        first.log().len(),
        adsim_bench::mark(deterministic)
    );
    assert!(deterministic, "same seed and mix must reproduce logs and counters exactly");

    adsim_bench::write_artifact("BENCH_soak.json", &to_json(mode, deterministic, &cells));
}

fn to_json(mode: Mode, deterministic: bool, cells: &[Cell]) -> String {
    let cells = cells.iter().map(|c| {
        let o = &c.out;
        obj([
            ("mix", c.mix.into()), ("guard", c.guard.into()), ("seed", o.seed.into()),
            ("frames", o.frames.into()),
            ("injected_data_faults", o.injected_data_faults.into()),
            ("detected_data_faults", o.detected_data_faults.into()),
            ("coverage", fixed(o.coverage(), 4)), ("dual_recovered", o.dual_recovered.into()),
            ("monitor_trips", o.monitor_trips.into()), ("uncaught", o.uncaught.into()),
            ("episodes", o.episodes.into()), ("mean_ttr_frames", fixed(o.mean_ttr_frames, 4)),
            ("max_ttr_frames", o.max_ttr_frames.into()),
            ("degraded_rate", fixed(o.degraded_rate, 6)), ("safe_stops", o.safe_stops.into()),
        ])
    });
    json::render(&obj([
        ("bench", "bench_soak".into()), ("seed", SEED.into()), ("mode", mode.name().into()),
        ("deterministic", deterministic.into()),
        ("ttr_bound_frames", TTR_BOUND_FRAMES.into()),
        ("cells", Value::Arr(cells.collect())),
    ]))
}
