//! Fleet campaign benchmark: determinism under work stealing and
//! weight-sharing memory amortization.
//!
//! Runs a fault-mix × seed grid of vehicle cells through the
//! `adsim-fleet` engine with the DNN pipeline (YOLO detector + GOTURN
//! tracker pool) and demonstrates the two fleet-scale properties:
//!
//! * **Determinism under stealing** — every cell's deterministic
//!   signature (outputs digest, event logs, counters) is byte-identical
//!   between a serial reference run and fleet runs at 1, 2 and 8
//!   workers.
//! * **Memory amortization** — model weights are `Arc`-shared through
//!   the process-wide model cache, so N vehicles hold one weight copy;
//!   measured by exact unique-storage-pointer accounting vs the
//!   per-vehicle-copies baseline.
//!
//! Fleet throughput and per-stage wall-clock latency live in perfbench
//! (`frames_per_s` and `fleet.*` on the `fleet_faults` workload).
//!
//! Everything lands in `target/bench/BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_fleet [-- --smoke]
//! ```

use adsim_core::{DetectorKind, NativePipelineConfig, TrackerKind};
use adsim_dnn::models::{goturn_tiny, goturn_tiny_shared, yolo_tiny, yolo_tiny_shared};
use adsim_dnn::Network;
use adsim_faults::FaultConfig;
use adsim_fleet::{CampaignResult, CellSpec, FleetAssets, FleetConfig, FleetEngine};
use adsim_runtime::Runtime;
use adsim_workload::Resolution;
use std::collections::HashSet;

/// Campaign base seed; per-cell seeds derive from it below.
const SEED: u64 = 0xF1EE7;

/// YOLO output grid for the fleet pipeline.
const GRID: usize = 4;

/// The i-th derived campaign seed (golden-ratio stride).
fn derived_seed(i: u64) -> u64 {
    SEED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// The DNN-heavy per-cell pipeline: YOLO detection + GOTURN tracking,
/// serial inner runtime (fleet workers provide the parallelism).
fn pipeline() -> NativePipelineConfig {
    NativePipelineConfig {
        detector: DetectorKind::Yolo { grid: GRID, threshold: 0.5 },
        tracker: TrackerKind::Goturn,
        runtime: Runtime::serial(),
        ..Default::default()
    }
}

/// The campaign grid: fault mixes × derived seeds.
fn specs(n_seeds: u64, frames: usize) -> Vec<CellSpec> {
    let mixes: &[(&str, FaultConfig)] = &[
        ("clean", FaultConfig::off()),
        (
            "data",
            FaultConfig {
                blackout_rate: 0.06,
                blackout_frames: (2, 5),
                pixel_corruption_rate: 0.25,
                corrupted_fraction: 0.05,
                stuck_rate: 0.12,
                stuck_frames: (1, 3),
                ..FaultConfig::off()
            },
        ),
        ("everything", FaultConfig::stress()),
    ];
    let mut out = Vec::new();
    for (name, cfg) in mixes {
        for i in 0..n_seeds {
            out.push(CellSpec::new(
                format!("{name}/{i}"),
                cfg.clone(),
                derived_seed(i),
                frames,
            ));
        }
    }
    out
}

/// Exact storage accounting over a set of networks: unique parameter
/// buffers (by storage pointer) and their total bytes, vs the bytes N
/// private copies would hold.
fn storage_accounting(nets: &[Network]) -> (usize, usize, usize) {
    let mut seen: HashSet<*const f32> = HashSet::new();
    let mut unique_bytes = 0usize;
    let mut total_bytes = 0usize;
    for net in nets {
        for p in net.params() {
            total_bytes += p.len() * 4;
            if seen.insert(p.storage_ptr()) {
                unique_bytes += p.len() * 4;
            }
        }
    }
    (seen.len(), unique_bytes, total_bytes)
}

struct MemoryReport {
    vehicles: usize,
    shared_unique_buffers: usize,
    shared_unique_bytes: usize,
    copied_bytes: usize,
    amortization: f64,
}

/// Builds N vehicles' worth of model instances both ways and accounts
/// their storage exactly.
fn measure_memory(vehicles: usize) -> MemoryReport {
    // Shared path: what YoloDetector/GoturnTracker now do — clones of
    // the process-wide cached models.
    let shared: Vec<Network> = (0..vehicles)
        .flat_map(|_| [yolo_tiny_shared(GRID), goturn_tiny_shared()])
        .collect();
    let (unique_buffers, unique_bytes, _) = storage_accounting(&shared);

    // Baseline: one private weight copy per vehicle (the pre-sharing
    // behavior — every pipeline built its own networks).
    let copied: Vec<Network> =
        (0..vehicles).flat_map(|_| [yolo_tiny(GRID), goturn_tiny()]).collect();
    let (_, copied_unique_bytes, copied_total) = storage_accounting(&copied);
    assert_eq!(copied_unique_bytes, copied_total, "fresh builds share nothing");

    MemoryReport {
        vehicles,
        shared_unique_buffers: unique_buffers,
        shared_unique_bytes: unique_bytes,
        copied_bytes: copied_total,
        amortization: copied_total as f64 / unique_bytes.max(1) as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_seeds, frames, vehicles, mode) =
        if smoke { (2u64, 6usize, 64usize, "smoke") } else { (3, 24, 256, "full") };

    adsim_bench::header(
        "Fleet",
        "work-stealing vehicle-cell campaign: determinism and weight sharing",
    );
    let assets = FleetAssets::urban(Resolution::Hhd);
    let grid = specs(n_seeds, frames);
    println!("campaign grid: {} cells x {frames} frames (seed {SEED:#x})", grid.len());

    // -- Parity: serial reference vs 1/2/8 fleet workers. -------------
    let fleet_cfg = |workers: usize| FleetConfig {
        pipeline: pipeline(),
        ..FleetConfig::with_workers(workers)
    };
    let reference = FleetEngine::new(assets.clone(), fleet_cfg(1)).run_serial(&grid);
    let ref_sigs = reference.signatures();
    let ref_logs: Vec<(Vec<String>, Vec<String>)> = reference
        .outcomes
        .iter()
        .map(|c| (c.sup_log.clone(), c.guard_log.clone()))
        .collect();
    let mut parity = Vec::new();
    let mut campaigns: Vec<CampaignResult> = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = FleetEngine::new(assets.clone(), fleet_cfg(workers));
        let run = engine.run(&grid);
        let sigs_ok = run.signatures() == ref_sigs;
        let logs_ok = run
            .outcomes
            .iter()
            .zip(&ref_logs)
            .all(|(c, (sup, guard))| &c.sup_log == sup && &c.guard_log == guard);
        let ok = sigs_ok && logs_ok;
        println!(
            "parity vs serial reference at {workers} worker(s): {}",
            adsim_bench::mark(ok)
        );
        assert!(ok, "fleet outputs must be byte-identical to the serial reference");
        parity.push((workers, ok));
        campaigns.push(run);
    }

    // Contract: the hostile mixes must exercise the escalation path
    // somewhere, and nothing may go uncaught.
    let uncaught: u64 = reference.outcomes.iter().map(|c| c.uncaught).sum();
    assert_eq!(uncaught, 0, "dropped escalations in the fleet campaign");
    assert!(
        reference.sink.safe_stops > 0,
        "the stress mix must reach a safe stop somewhere in the campaign"
    );

    // -- Memory amortization from Arc-shared weights. ------------------
    let mem = measure_memory(vehicles);
    println!(
        "\nweight sharing across {} vehicles (YOLO grid {GRID} + GOTURN each):",
        mem.vehicles
    );
    println!(
        "  shared: {} unique buffers, {:.1} KiB resident weights",
        mem.shared_unique_buffers,
        mem.shared_unique_bytes as f64 / 1024.0,
    );
    println!(
        "  per-vehicle copies: {:.1} KiB ({:.0}x amortization)",
        mem.copied_bytes as f64 / 1024.0,
        mem.amortization,
    );
    assert!(
        mem.amortization >= mem.vehicles as f64 * 0.9,
        "sharing must amortize ~linearly in fleet size"
    );

    adsim_bench::write_artifact(
        "BENCH_fleet.json",
        &to_json(mode, &parity, &mem, &campaigns, &reference),
    );
}

/// Hand-rolled JSON (offline policy: no serde). All values are numbers,
/// booleans or plain ASCII identifiers, so no escaping is required.
/// `full` holds the campaign totals, which are the same at every worker
/// count; they are read from the serial reference.
fn to_json(
    mode: &str,
    parity: &[(usize, bool)],
    mem: &MemoryReport,
    campaigns: &[CampaignResult],
    reference: &CampaignResult,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"bench_fleet\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"parity\": [");
    for (i, (workers, ok)) in parity.iter().enumerate() {
        s.push_str(&format!(
            "{{\"workers\": {workers}, \"byte_identical\": {ok}}}{}",
            if i + 1 < parity.len() { ", " } else { "" }
        ));
    }
    s.push_str("],\n");
    s.push_str(&format!(
        "  \"memory\": {{\"vehicles\": {}, \"shared_unique_buffers\": {}, \
         \"shared_unique_bytes\": {}, \"per_vehicle_copy_bytes\": {}, \
         \"amortization\": {:.2}}},\n",
        mem.vehicles,
        mem.shared_unique_buffers,
        mem.shared_unique_bytes,
        mem.copied_bytes,
        mem.amortization,
    ));
    s.push_str("  \"campaigns\": [\n");
    for (i, r) in campaigns.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"cells\": {}, \"frames\": {}}}{}\n",
            r.workers,
            r.sink.cells,
            r.sink.frames,
            if i + 1 < campaigns.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"full\": {{\"cells\": {}, \"frames\": {}, \"safe_stops\": {}, \"uncaught\": {}}}\n",
        reference.sink.cells,
        reference.sink.frames,
        reference.sink.safe_stops,
        reference.sink.uncaught,
    ));
    s.push_str("}\n");
    s
}
