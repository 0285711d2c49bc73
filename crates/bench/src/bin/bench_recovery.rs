//! Crash-safe execution harness: panic containment, checkpoint/restore
//! and restart-replay recovery over a crash-rate × checkpoint-interval
//! sweep.
//!
//! Runs a fleet grid of vehicle cells whose fault mix includes the
//! seeded **crash** class (an injected stage panic mid-frame) and
//! checks the recovery subsystem's four contracts:
//!
//! * **Containment** — every scheduled crash is caught at the cell
//!   boundary: zero uncaught escalations, zero quarantined cells, and
//!   every cell completes its full frame budget.
//! * **Deterministic replay** — each recovered cell's output digest is
//!   byte-identical to a disarmed reference run in which no crash ever
//!   fires: restore + gap replay loses nothing and invents nothing.
//! * **Checkpoint transparency** — on a crash-free run the most
//!   invasive checkpoint schedule (every frame) leaves the cell
//!   signature byte-identical to a run with checkpointing off.
//! * **Worker parity** — the recovered campaign's signatures and crash
//!   ledgers are invariant across 1/2/8 fleet workers.
//!
//! The sweep reports, per (crash-rate, interval) point: **MTTR** in
//! frames (mean replay gap per restart — the virtual-time cost of one
//! recovery), the **replay ratio** (re-executed frames over budgeted
//! frames — total recovery overhead), and **peak checkpoint bytes**
//! (the state a restart actually needs). Denser checkpoints buy a
//! shorter MTTR with more resident bytes; that trade-off is the whole
//! point of the sweep. Two probes ride along: an exhausted restart
//! budget must park the vehicle in a terminal SafeStop (not lose the
//! cell), and a crash with no recovery policy must quarantine the cell
//! while the rest of the campaign completes.
//!
//! Everything lands in `target/bench/BENCH_recovery.json`; every field
//! is a pure function of the seeds. Recovery's wall-clock cost lives in
//! perfbench (`core.checkpoint_ms`, `core.restore_ms` and
//! `recovery.replay_share` on `fleet_faults`).
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_recovery [-- --smoke]
//! ```

use adsim_bench::json::{self, fixed, obj, Value};
use adsim_bench::{parity_json, Mode};
use adsim_faults::{FaultConfig, FaultInjector};
use adsim_fleet::{CellOutcome, CellSpec, FleetAssets, FleetConfig, FleetEngine, RecoveryPolicy};
use adsim_workload::Resolution;

/// Campaign base seed; per-cell seeds derive from it below.
const SEED: u64 = 0xC4A5;

/// Restart budget for the sweep: generous, so recovery (not parking)
/// is what the sweep measures. Exhaustion has its own probe.
const BUDGET: u32 = 64;

/// The i-th derived campaign seed (golden-ratio stride).
fn derived_seed(i: u64) -> u64 {
    SEED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// The sweep mix: the full stress mix with the crash class dialed to
/// the sweep's rate, so recovery is exercised *under* concurrent data,
/// timing and output faults rather than in a vacuum.
fn crashy(rate: f64) -> FaultConfig {
    FaultConfig { crash_rate: rate, ..FaultConfig::stress() }
}

/// Replays a spec's injector schedule and counts the frames on which a
/// crash is drawn — ground truth for the containment accounting.
fn scheduled_crashes(faults: &FaultConfig, frames: usize, seed: u64) -> u64 {
    let mut inj = FaultInjector::new(seed, faults.clone());
    (0..frames).filter(|_| inj.next_frame().crash.is_some()).count() as u64
}

/// One point of the crash-rate × checkpoint-interval sweep.
struct Point {
    rate: f64,
    interval: u64,
    cells: usize,
    crashes: u64,
    restarts: u64,
    replayed_frames: u64,
    checkpoints: u64,
    peak_checkpoint_bytes: u64,
    mttr_frames: f64,
    replay_ratio: f64,
}

fn main() {
    // Injected crashes unwind through `catch_unwind` by design; keep the
    // default hook from spraying a backtrace per contained crash while
    // leaving genuine panics fully reported.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<adsim_faults::InjectedCrash>().is_none() {
            default_hook(info);
        }
    }));

    let mode = Mode::from_args();
    let (rates, intervals, n_seeds, frames): (&[f64], &[u64], u64, usize) =
        mode.pick((&[0.05, 0.5], &[1, 4], 1, 10), (&[0.02, 0.08, 0.25], &[1, 4, 12], 2, 32));

    adsim_bench::header(
        "Recovery",
        "crash containment, checkpoint/restore and restart-replay over a fleet grid",
    );
    let assets = FleetAssets::urban(Resolution::Hhd);

    // -- The sweep grid: every (rate, interval, seed) cell at once, so
    // one campaign run covers every point and the worker-parity check
    // covers the whole sweep.
    let mut specs: Vec<CellSpec> = Vec::new();
    let mut tags: Vec<(f64, u64)> = Vec::new();
    for &rate in rates {
        for &interval in intervals {
            for i in 0..n_seeds {
                specs.push(
                    CellSpec::new(
                        format!("r{rate}/k{interval}/{i}"),
                        crashy(rate),
                        derived_seed(i),
                        frames,
                    )
                    .with_recovery(RecoveryPolicy::new(interval, BUDGET)),
                );
                tags.push((rate, interval));
            }
        }
    }
    println!(
        "sweep grid: {} crash-rates x {} intervals x {n_seeds} seed(s), \
         {frames} frames/cell ({} cells, seed {SEED:#x})",
        rates.len(),
        intervals.len(),
        specs.len()
    );

    // -- Disarmed references: one per derived seed (the crash draw has
    // its own RNG stream, so zeroing the rate leaves every other fault
    // class's schedule untouched — the reference is what an
    // uninterrupted run of the same cell produces).
    let engine1 = FleetEngine::new(assets.clone(), FleetConfig::with_workers(1));
    let ref_digests: Vec<_> = (0..n_seeds)
        .map(|i| {
            let spec = CellSpec::new(format!("ref/{i}"), crashy(0.0), derived_seed(i), frames);
            engine1.run_serial(std::slice::from_ref(&spec)).outcomes.remove(0).output_digest
        })
        .collect();

    // -- Containment + deterministic replay over the whole grid. -------
    let reference = engine1.run_serial(&specs);
    let mut digest_matches = 0usize;
    let mut total_scheduled = 0u64;
    for (idx, (spec, outcome)) in specs.iter().zip(&reference.outcomes).enumerate() {
        let scheduled = scheduled_crashes(&spec.faults, frames, spec.seed);
        total_scheduled += scheduled;
        assert_eq!(outcome.crashes, scheduled, "{}: crash not contained", outcome.label);
        assert_eq!(outcome.restarts, scheduled, "{}: crash not restarted", outcome.label);
        assert!(!outcome.quarantined, "{}: sweep cell must never quarantine", outcome.label);
        assert_eq!(outcome.uncaught, 0, "{}: escaped escalation", outcome.label);
        assert_eq!(outcome.frames, frames as u64, "{}: frames lost to a crash", outcome.label);
        // The seed index is the innermost loop of the grid builder.
        let want = &ref_digests[idx % n_seeds as usize];
        if outcome.output_digest == *want {
            digest_matches += 1;
        } else {
            println!(
                "  DIGEST FAIL {}: recovery diverged from the disarmed reference",
                outcome.label
            );
        }
    }
    let containment_ok = digest_matches == specs.len();
    println!(
        "containment: {} scheduled crash(es), {} contained, {}/{} digests match reference: {}",
        total_scheduled,
        reference.sink.crashes,
        digest_matches,
        specs.len(),
        adsim_bench::mark(containment_ok)
    );
    assert!(containment_ok, "every recovered cell must converge to its disarmed reference");
    assert!(total_scheduled > 0, "the sweep must actually crash or it proves nothing");

    // -- Worker parity across the recovered campaign. ------------------
    let ref_sigs = reference.signatures();
    let ref_ledgers: Vec<&Vec<String>> =
        reference.outcomes.iter().map(|c| &c.crash_log).collect();
    let mut parity = Vec::new();
    for workers in [1usize, 2, 8] {
        let run = FleetEngine::new(assets.clone(), FleetConfig::with_workers(workers)).run(&specs);
        let ok = run.signatures() == ref_sigs
            && run.outcomes.iter().map(|c| &c.crash_log).eq(ref_ledgers.iter().copied())
            && run.sink.restarts == reference.sink.restarts;
        println!("parity vs serial reference at {workers} worker(s): {}", adsim_bench::mark(ok));
        assert!(ok, "recovered campaigns must be byte-identical across worker counts");
        parity.push((workers, ok));
    }

    // -- Checkpoint transparency on a crash-free run. ------------------
    let base = CellSpec::new("transparent", FaultConfig::stress(), SEED, frames);
    let plain = engine1.run_serial(std::slice::from_ref(&base)).outcomes.remove(0);
    let ck_spec = base.clone().with_recovery(RecoveryPolicy::new(1, BUDGET));
    let checked = engine1.run_serial(std::slice::from_ref(&ck_spec)).outcomes.remove(0);
    let transparent = checked.signature() == plain.signature();
    println!(
        "crash-free transparency: {} checkpoint(s), signature identical to checkpointing-off: {}",
        checked.checkpoints,
        adsim_bench::mark(transparent)
    );
    assert!(transparent, "checkpointing must be invisible to a crash-free run");

    // -- Exhaustion probe: budget 1 under a crash-every-frame mix. -----
    let doomed =
        CellSpec::new("doomed", FaultConfig { crash_rate: 1.0, ..FaultConfig::off() }, 3, frames)
            .with_recovery(RecoveryPolicy::new(2, 1));
    let parked = engine1.run_serial(std::slice::from_ref(&doomed)).outcomes.remove(0);
    let parked_ok = parked.frames == frames as u64
        && parked.restarts == 1
        && !parked.quarantined
        && parked.safe_stops >= 1
        && parked.sup_log.iter().any(|l| l.contains("restart budget exhausted"));
    println!(
        "exhaustion: {} crash(es), 1 restart, parked {} frame(s) in terminal SafeStop: {}",
        parked.crashes,
        parked.frames,
        adsim_bench::mark(parked_ok)
    );
    assert!(parked_ok, "an exhausted restart budget must park, not lose, the vehicle");

    // -- Quarantine probe: the same mix with no recovery policy. -------
    let bare =
        CellSpec::new("bare", FaultConfig { crash_rate: 1.0, ..FaultConfig::off() }, 3, frames);
    let frozen = engine1.run_serial(std::slice::from_ref(&bare)).outcomes.remove(0);
    let frozen_ok = frozen.quarantined && frozen.crashes == 1 && frozen.restarts == 0;
    println!(
        "quarantine (no policy): first crash froze the cell, campaign completed: {}",
        adsim_bench::mark(frozen_ok)
    );
    assert!(frozen_ok, "a crash without a recovery policy must quarantine the cell");

    // -- Fold the grid into sweep points and report the trade-off. -----
    let points = fold_points(rates, intervals, &tags, &reference.outcomes, frames);
    println!("\ncrash-rate x checkpoint-interval sweep ({frames} frames/cell):");
    println!(
        "  {:>6} {:>4} {:>8} {:>9} {:>9} {:>12} {:>12} {:>13}",
        "rate", "K", "crashes", "restarts", "replayed", "mttr_frames", "replay_ratio", "peak_ck_bytes"
    );
    for p in &points {
        println!(
            "  {:>6.2} {:>4} {:>8} {:>9} {:>9} {:>12.2} {:>12.3} {:>13}",
            p.rate,
            p.interval,
            p.crashes,
            p.restarts,
            p.replayed_frames,
            p.mttr_frames,
            p.replay_ratio,
            p.peak_checkpoint_bytes
        );
        // MTTR is bounded by the checkpoint gap: a restart replays at
        // least the crashed frame and at most one full interval.
        if p.restarts > 0 {
            assert!(
                p.mttr_frames >= 1.0 && p.mttr_frames <= p.interval as f64,
                "MTTR {} outside [1, K={}] at rate {}",
                p.mttr_frames,
                p.interval,
                p.rate
            );
        }
    }
    // Denser checkpoints cannot replay more than sparser ones at the
    // same crash schedule (same rate, same seeds).
    for &rate in rates {
        let by_k: Vec<&Point> =
            points.iter().filter(|p| p.rate == rate && p.restarts > 0).collect();
        for pair in by_k.windows(2) {
            assert!(
                pair[0].replayed_frames <= pair[1].replayed_frames,
                "K={} replayed more than K={} at rate {rate}",
                pair[0].interval,
                pair[1].interval
            );
        }
    }

    adsim_bench::write_artifact(
        "BENCH_recovery.json",
        &to_json(
            mode, frames, &parity, &reference.outcomes, total_scheduled, digest_matches, &checked,
            transparent, &parked, &frozen, &points,
        ),
    );
}

/// Aggregates the per-cell outcomes of the sweep grid into one row per
/// (crash-rate, interval) point.
fn fold_points(
    rates: &[f64],
    intervals: &[u64],
    tags: &[(f64, u64)],
    outcomes: &[CellOutcome],
    frames: usize,
) -> Vec<Point> {
    let mut points = Vec::new();
    for &rate in rates {
        for &interval in intervals {
            let mut p = Point {
                rate,
                interval,
                cells: 0,
                crashes: 0,
                restarts: 0,
                replayed_frames: 0,
                checkpoints: 0,
                peak_checkpoint_bytes: 0,
                mttr_frames: 0.0,
                replay_ratio: 0.0,
            };
            for (tag, outcome) in tags.iter().zip(outcomes) {
                if *tag != (rate, interval) {
                    continue;
                }
                p.cells += 1;
                p.crashes += outcome.crashes;
                p.restarts += outcome.restarts;
                p.replayed_frames += outcome.replayed_frames;
                p.checkpoints += outcome.checkpoints;
                p.peak_checkpoint_bytes = p.peak_checkpoint_bytes.max(outcome.checkpoint_bytes);
            }
            p.mttr_frames = p.replayed_frames as f64 / p.restarts.max(1) as f64;
            p.replay_ratio = p.replayed_frames as f64 / (p.cells * frames).max(1) as f64;
            points.push(p);
        }
    }
    points
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    mode: Mode,
    frames: usize,
    parity: &[(usize, bool)],
    outcomes: &[CellOutcome],
    scheduled: u64,
    digest_matches: usize,
    checked: &CellOutcome,
    transparent: bool,
    parked: &CellOutcome,
    frozen: &CellOutcome,
    points: &[Point],
) -> String {
    let crashes: u64 = outcomes.iter().map(|c| c.crashes).sum();
    let restarts: u64 = outcomes.iter().map(|c| c.restarts).sum();
    let containment = obj([
        ("cells", outcomes.len().into()), ("scheduled_crashes", scheduled.into()),
        ("crashes", crashes.into()), ("restarts", restarts.into()),
        ("quarantined", 0.into()), ("uncaught", 0.into()),
        ("digest_matches", digest_matches.into()),
    ]);
    let transparency = obj([
        ("checkpoints", checked.checkpoints.into()),
        ("peak_checkpoint_bytes", checked.checkpoint_bytes.into()),
        ("signature_identical", transparent.into()),
    ]);
    let exhaustion = obj([
        ("restart_budget", 1.into()), ("crashes", parked.crashes.into()),
        ("restarts", parked.restarts.into()), ("parked_frames", parked.frames.into()),
        ("safe_stops", parked.safe_stops.into()), ("quarantined", parked.quarantined.into()),
    ]);
    let quarantine = obj([
        ("crashes", frozen.crashes.into()), ("restarts", frozen.restarts.into()),
        ("frames", frozen.frames.into()), ("quarantined", frozen.quarantined.into()),
    ]);
    let sweep = points.iter().map(|p| {
        obj([
            ("crash_rate", fixed(p.rate, 3)), ("checkpoint_interval", p.interval.into()),
            ("cells", p.cells.into()), ("crashes", p.crashes.into()),
            ("restarts", p.restarts.into()), ("replayed_frames", p.replayed_frames.into()),
            ("checkpoints", p.checkpoints.into()),
            ("peak_checkpoint_bytes", p.peak_checkpoint_bytes.into()),
            ("mttr_frames", fixed(p.mttr_frames, 4)), ("replay_ratio", fixed(p.replay_ratio, 4)),
        ])
    });
    json::render(&obj([
        ("bench", "bench_recovery".into()), ("seed", SEED.into()), ("mode", mode.name().into()),
        ("frames", frames.into()), ("parity", parity_json(parity, "byte_identical")),
        ("containment", containment), ("crash_free_transparency", transparency),
        ("exhaustion", exhaustion), ("quarantine", quarantine),
        ("sweep", Value::Arr(sweep.collect())),
    ]))
}
