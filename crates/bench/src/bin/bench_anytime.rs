//! Anytime-governor benchmark: the latency-accuracy frontier under
//! sustained latency drift.
//!
//! The paper's Fig. 13 shows detector latency and accuracy trading off
//! along the input-resolution axis at *build* time; the anytime
//! governor (`adsim-anytime`) navigates the same frontier at *run*
//! time. This bench drives a fleet campaign over a drift-severity ×
//! governor-policy grid and reports, per drift mix:
//!
//! * **virtual deadline miss rate** — deterministic miss accounting on
//!   the injected (virtual) clock, governor-on vs governor-off;
//! * **tracking accuracy (CLEAR-MOT)** against the scenario's scripted
//!   ground truth — the price paid for the saved deadlines;
//! * **governor activity** — quality switches and frames spent below
//!   full quality.
//!
//! Contracts asserted on the way:
//!
//! * same-seed campaigns are byte-identical across 1/2/8 fleet workers
//!   and across re-runs (the governor preserves fleet determinism);
//! * governor-on never misses more virtual deadlines than governor-off
//!   (quality only shrinks virtual stage costs), and on the heavy
//!   drift mix it misses strictly fewer;
//! * the accuracy cost vs the clean full-quality baseline is bounded
//!   (`MAX_MOTA_COST`);
//! * a modeled early-action probe: under drift the governor's first
//!   quality step-down lands ≥ 1 frame before the reactive watchdog
//!   would have abandoned detection on the same fault schedule.
//!
//! Everything lands in `target/bench/BENCH_anytime.json`.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_anytime [-- --smoke]
//! ```

use adsim_core::{
    AnytimeConfig, DegradationCause, DegradationEventKind, DegradedMode, ModeledPipeline,
    ModeledSupervisor, NativePipelineConfig, PlatformConfig, SupervisorConfig,
};
use adsim_faults::{FaultConfig, FaultInjector};
use adsim_fleet::{CampaignResult, CellSpec, FleetAssets, FleetConfig, FleetEngine};
use adsim_platform::Platform;
use adsim_runtime::Runtime;
use adsim_workload::Resolution;

/// Campaign base seed; per-cell seeds derive from it below.
const SEED: u64 = 0x00A2_713E; // "anytime"

/// Largest tolerated campaign-mean MOTA drop for governor-on on any
/// drift mix, measured against the clean full-quality baseline (the
/// bounded-accuracy-cost contract).
const MAX_MOTA_COST: f64 = 0.35;

/// Frames the modeled early-action probe simulates per seed.
const PROBE_FRAMES: usize = 400;

/// The i-th derived campaign seed (golden-ratio stride).
fn derived_seed(i: u64) -> u64 {
    SEED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// Per-cell pipeline: the functionally-accurate classical engines
/// (blob detector + template tracker), so the MOTA axis of the
/// frontier is meaningful. Serial inner runtime — the fleet workers
/// provide the parallelism.
fn pipeline() -> NativePipelineConfig {
    NativePipelineConfig { runtime: Runtime::serial(), ..Default::default() }
}

/// The drift-severity axis of the grid.
fn drift_mixes() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::off()),
        (
            "mild",
            FaultConfig {
                drift_rate: 0.03,
                drift_frames: (15, 40),
                drift_per_frame: (0.02, 0.04),
                ..FaultConfig::off()
            },
        ),
        (
            "heavy",
            FaultConfig {
                drift_rate: 0.10,
                drift_frames: (20, 60),
                drift_per_frame: (0.05, 0.08),
                ..FaultConfig::off()
            },
        ),
    ]
}

/// The governor-policy axis of the grid.
fn policies() -> [(&'static str, SupervisorConfig); 2] {
    [
        ("off", SupervisorConfig::default()),
        ("on", SupervisorConfig { anytime: AnytimeConfig::on(), ..SupervisorConfig::default() }),
    ]
}

/// The full campaign grid: drift mix × governor policy × derived seed.
fn specs(n_seeds: u64, frames: usize) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for (mix, faults) in &drift_mixes() {
        for (policy, sup) in &policies() {
            for i in 0..n_seeds {
                out.push(
                    CellSpec::new(
                        format!("{mix}/{policy}/{i}"),
                        faults.clone(),
                        derived_seed(i),
                        frames,
                    )
                    .with_supervisor(sup.clone()),
                );
            }
        }
    }
    out
}

/// One (drift mix, policy) point of the frontier, averaged over seeds.
struct FrontierPoint {
    mix: &'static str,
    policy: &'static str,
    virtual_miss_rate: f64,
    mota: f64,
    degraded_rate: f64,
    quality_switches: u64,
    quality_reduced_frames: u64,
}

/// Aggregates the campaign outcomes into frontier points, keyed by the
/// `mix/policy/seed` labels the specs carry.
fn frontier(run: &CampaignResult, n_seeds: u64) -> Vec<FrontierPoint> {
    let mut points = Vec::new();
    for (mix, _) in &drift_mixes() {
        for (policy, _) in &policies() {
            let prefix = format!("{mix}/{policy}/");
            let cells: Vec<_> = run
                .outcomes
                .iter()
                .filter(|c| c.label.starts_with(&prefix))
                .collect();
            assert_eq!(cells.len() as u64, n_seeds, "grid covers {prefix}*");
            let n = cells.len() as f64;
            points.push(FrontierPoint {
                mix,
                policy,
                virtual_miss_rate: cells.iter().map(|c| c.virtual_miss_rate).sum::<f64>() / n,
                mota: cells.iter().map(|c| c.mota).sum::<f64>() / n,
                degraded_rate: cells.iter().map(|c| c.degraded_rate).sum::<f64>() / n,
                quality_switches: cells.iter().map(|c| c.quality_switches).sum(),
                quality_reduced_frames: cells.iter().map(|c| c.quality_reduced_frames).sum(),
            });
        }
    }
    points
}

/// Result of the modeled early-action probe.
struct Probe {
    seed: u64,
    governor_frame: u64,
    watchdog_frame: u64,
    misses_off: u64,
    misses_on: u64,
}

/// Replays one drift schedule through two modeled supervisors — same
/// seed, governor off vs on — and compares the frame of the governor's
/// first quality step-down with the frame the reactive watchdog first
/// abandoned detection. Seeds are scanned deterministically until one
/// produces a watchdog trip governor-off.
fn early_action_probe() -> Probe {
    let drift = FaultConfig {
        drift_rate: 0.05,
        drift_frames: (30, 60),
        drift_per_frame: (0.05, 0.08),
        ..FaultConfig::off()
    };
    for seed in 0..200u64 {
        let mut off = ModeledSupervisor::new(
            ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 1),
            FaultInjector::new(seed, drift.clone()),
            SupervisorConfig::default(),
        );
        off.simulate(PROBE_FRAMES, 1.0);
        let watchdog_frame = off.events().iter().find_map(|e| match e.kind {
            DegradationEventKind::Entered {
                mode: DegradedMode::TrackerOnly,
                cause: DegradationCause::DetectionOverBudget { .. },
            } => Some(e.frame),
            _ => None,
        });
        let Some(watchdog_frame) = watchdog_frame else { continue };

        let mut on = ModeledSupervisor::new(
            ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 1),
            FaultInjector::new(seed, drift.clone()),
            SupervisorConfig { anytime: AnytimeConfig::on(), ..SupervisorConfig::default() },
        );
        on.simulate(PROBE_FRAMES, 1.0);
        let governor_frame = on
            .governor_events()
            .first()
            .map(|e| e.frame)
            .expect("drift severe enough to trip the watchdog must engage the governor");
        return Probe {
            seed,
            governor_frame,
            watchdog_frame,
            misses_off: off.recovery_stats().virtual_deadline_misses,
            misses_on: on.recovery_stats().virtual_deadline_misses,
        };
    }
    panic!("no seed in 0..200 produced a governor-off watchdog trip under heavy drift");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_seeds, frames, mode) = if smoke { (1u64, 60usize, "smoke") } else { (3, 240, "full") };

    adsim_bench::header(
        "Anytime",
        "predictive deadline governor: latency-accuracy frontier under latency drift",
    );
    let assets = FleetAssets::urban(Resolution::Hhd);
    let grid = specs(n_seeds, frames);
    println!("campaign grid: {} cells x {frames} frames (seed {SEED:#x})", grid.len());

    // -- Parity: serial reference vs 1/2/8 workers, plus a re-run. ----
    let fleet_cfg =
        |workers: usize| FleetConfig { pipeline: pipeline(), ..FleetConfig::with_workers(workers) };
    let reference = FleetEngine::new(assets.clone(), fleet_cfg(1)).run_serial(&grid);
    let ref_sigs = reference.signatures();
    let mut parity = Vec::new();
    for workers in [1usize, 2, 8] {
        let run = FleetEngine::new(assets.clone(), fleet_cfg(workers)).run(&grid);
        let ok = run.signatures() == ref_sigs;
        println!("parity vs serial reference at {workers} worker(s): {}", adsim_bench::mark(ok));
        assert!(ok, "campaign must be byte-identical across fleet worker counts");
        parity.push((workers, ok));
    }
    let rerun = FleetEngine::new(assets.clone(), fleet_cfg(2)).run(&grid);
    let rerun_ok = rerun.signatures() == ref_sigs;
    println!("same-seed re-run byte-identical: {}", adsim_bench::mark(rerun_ok));
    assert!(rerun_ok, "same-seed re-run must reproduce the campaign exactly");

    // -- The frontier, with the miss-reduction and accuracy-cost
    // contracts. ------------------------------------------------------
    let points = frontier(&reference, n_seeds);
    println!("\nlatency-accuracy frontier (per drift mix, {n_seeds} seed(s) each):");
    println!(
        "  {:>6} {:>4}  {:>12} {:>8} {:>10} {:>9} {:>8}",
        "mix", "gov", "vmiss_rate", "mota", "degr_rate", "qswitch", "qframes"
    );
    for p in &points {
        println!(
            "  {:>6} {:>4}  {:>12.4} {:>8.4} {:>10.4} {:>9} {:>8}",
            p.mix,
            p.policy,
            p.virtual_miss_rate,
            p.mota,
            p.degraded_rate,
            p.quality_switches,
            p.quality_reduced_frames
        );
    }
    for (mix, _) in &drift_mixes() {
        let at = |policy: &str| {
            points
                .iter()
                .find(|p| p.mix == *mix && p.policy == policy)
                .expect("frontier covers the grid")
        };
        let (off, on) = (at("off"), at("on"));
        // Quality only shrinks virtual stage costs, so governor-on can
        // never miss more than governor-off on the same schedule.
        assert!(
            on.virtual_miss_rate <= off.virtual_miss_rate,
            "{mix}: governor-on misses more ({} > {})",
            on.virtual_miss_rate,
            off.virtual_miss_rate
        );
        if *mix == "heavy" {
            assert!(
                on.virtual_miss_rate < off.virtual_miss_rate,
                "heavy drift: governor must avert misses ({} !< {})",
                on.virtual_miss_rate,
                off.virtual_miss_rate
            );
            assert!(on.quality_switches > 0, "heavy drift must engage the governor");
        }
        if *mix == "none" {
            assert_eq!(on.quality_switches, 0, "no load, no governor action");
        }
        // Accuracy cost is measured against the *clean full-quality*
        // baseline, not governor-off on the same mix: under heavy
        // drift the ungoverned run misses >90 % of virtual deadlines,
        // and accuracy delivered after the deadline is not a baseline
        // worth comparing against (a late detection is a failed one —
        // the paper's predictability argument, §2.4).
        let clean = points
            .iter()
            .find(|p| p.mix == "none" && p.policy == "off")
            .expect("frontier covers the clean baseline");
        let cost = clean.mota - on.mota;
        assert!(
            cost <= MAX_MOTA_COST,
            "{mix}: accuracy cost {cost:.4} vs clean baseline exceeds the {MAX_MOTA_COST} bound"
        );
    }
    println!("miss-reduction and accuracy-cost contracts: {}", adsim_bench::mark(true));

    // -- Early action: governor vs reactive watchdog on one modeled
    // drift schedule. --------------------------------------------------
    let probe = early_action_probe();
    let lead = probe.watchdog_frame as i64 - probe.governor_frame as i64;
    println!(
        "\nearly-action probe (modeled, seed {}): governor acted at frame {}, \
         watchdog would have fired at frame {} (lead {} frame(s)); \
         virtual misses {} -> {}",
        probe.seed,
        probe.governor_frame,
        probe.watchdog_frame,
        lead,
        probe.misses_off,
        probe.misses_on,
    );
    assert!(
        probe.governor_frame < probe.watchdog_frame,
        "the governor must act at least one frame before the reactive watchdog"
    );
    assert!(
        probe.misses_on <= probe.misses_off,
        "the probe schedule must not miss more with the governor on"
    );

    adsim_bench::write_artifact(
        "BENCH_anytime.json",
        &to_json(mode, frames, n_seeds, &parity, rerun_ok, &points, &probe),
    );
}

/// Hand-rolled JSON (offline policy: no serde). All values are numbers,
/// booleans or plain ASCII identifiers, so no escaping is required.
fn to_json(
    mode: &str,
    frames: usize,
    n_seeds: u64,
    parity: &[(usize, bool)],
    rerun_ok: bool,
    points: &[FrontierPoint],
    probe: &Probe,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"bench_anytime\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"frames_per_cell\": {frames},\n"));
    s.push_str(&format!("  \"seeds_per_point\": {n_seeds},\n"));
    s.push_str(&format!("  \"max_mota_cost\": {MAX_MOTA_COST},\n"));
    s.push_str("  \"parity\": [");
    for (i, (workers, ok)) in parity.iter().enumerate() {
        s.push_str(&format!(
            "{{\"workers\": {workers}, \"byte_identical\": {ok}}}{}",
            if i + 1 < parity.len() { ", " } else { "" }
        ));
    }
    s.push_str("],\n");
    s.push_str(&format!("  \"rerun_byte_identical\": {rerun_ok},\n"));
    s.push_str("  \"frontier\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mix\": \"{}\", \"governor\": \"{}\", \"virtual_miss_rate\": {:.6}, \
             \"mota\": {:.6}, \"degraded_rate\": {:.6}, \"quality_switches\": {}, \
             \"quality_reduced_frames\": {}}}{}\n",
            p.mix,
            p.policy,
            p.virtual_miss_rate,
            p.mota,
            p.degraded_rate,
            p.quality_switches,
            p.quality_reduced_frames,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"early_action_probe\": {{\"seed\": {}, \"governor_frame\": {}, \
         \"watchdog_frame\": {}, \"lead_frames\": {}, \"virtual_misses_off\": {}, \
         \"virtual_misses_on\": {}}}\n",
        probe.seed,
        probe.governor_frame,
        probe.watchdog_frame,
        probe.watchdog_frame as i64 - probe.governor_frame as i64,
        probe.misses_off,
        probe.misses_on,
    ));
    s.push_str("}\n");
    s
}
