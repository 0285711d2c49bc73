//! Crash-safe execution guarantees: injected stage crashes are
//! contained at the vehicle-cell boundary, checkpoint/restore plus
//! deterministic gap replay converges to the same output digest as an
//! uninterrupted run, recovered campaigns stay byte-identical across
//! worker counts, and an exhausted restart budget parks the vehicle in
//! a terminal SafeStop instead of losing the cell.

use adsim::faults::FaultConfig;
use adsim::fleet::{CellSpec, FleetAssets, FleetConfig, FleetEngine, RecoveryPolicy};
use adsim::workload::Resolution;

const RES: Resolution = Resolution::Hhd;
const FRAMES: usize = 12;
const SEED: u64 = 0xC4A5;

/// A fault mix that actually crashes within the frame budget: with
/// five stages drawing at 8% per frame, the first crash lands in the
/// first few frames at this seed.
fn crashy() -> FaultConfig {
    FaultConfig { crash_rate: 0.08, ..FaultConfig::stress() }
}

fn crash_count(faults: &FaultConfig, frames: usize, seed: u64) -> usize {
    let mut inj = adsim::faults::FaultInjector::new(seed, faults.clone());
    (0..frames).filter(|_| inj.next_frame().crash.is_some()).count()
}

/// The uninterrupted reference: same schedule, crashes never executed.
/// `run_cell` replays post-checkpoint gaps with crashes disarmed, so a
/// recovered run must converge to exactly this digest.
fn reference(assets: &FleetAssets, spec: &CellSpec) -> adsim::fleet::CellOutcome {
    let mut spec = spec.clone();
    // An absurd interval never checkpoints past frame 0 and the budget
    // is never consumed (no crash executes below) — but keep recovery
    // off entirely to prove the plain path is the baseline.
    spec.recovery = None;
    spec.faults.crash_rate = 0.0;
    let engine = FleetEngine::new(assets.clone(), FleetConfig::with_workers(1));
    engine.run_serial(std::slice::from_ref(&spec)).outcomes.remove(0)
}

#[test]
fn crash_restore_replay_converges_to_the_uninterrupted_digest() {
    let assets = FleetAssets::urban(RES);
    let spec = CellSpec::new("crashy", crashy(), SEED, FRAMES)
        .with_recovery(RecoveryPolicy::new(4, 8));
    let scheduled = crash_count(&spec.faults, FRAMES, SEED);
    assert!(scheduled >= 1, "seed must schedule at least one crash, got {scheduled}");

    let engine = FleetEngine::new(assets.clone(), FleetConfig::with_workers(1));
    let outcome = engine.run_serial(std::slice::from_ref(&spec)).outcomes.remove(0);
    assert_eq!(outcome.crashes as usize, scheduled, "every scheduled crash contained");
    assert_eq!(outcome.restarts as usize, scheduled, "every crash restarted within budget");
    assert!(outcome.replayed_frames >= outcome.restarts, "each restart replays ≥ 1 frame");
    assert!(!outcome.quarantined);
    assert_eq!(outcome.frames, FRAMES as u64, "recovered cell completes all frames");
    assert_eq!(outcome.crash_log.len() as u64, outcome.crashes);

    // The crashed run, restored and replayed, lands on the digest of a
    // run where no crash ever fired. The crash fields differ by design
    // — compare the output digest and the deterministic logs instead
    // of whole signatures.
    let want = reference(&assets, &spec);
    assert_eq!(outcome.output_digest, want.output_digest, "recovery diverged from reference");
    assert_eq!(outcome.sup_log.len(), want.sup_log.len() + outcome.restarts as usize);
    assert_eq!(outcome.mota, want.mota);
    assert_eq!(outcome.frames, want.frames);
}

#[test]
fn checkpointing_off_run_is_byte_identical_to_checkpointing_on_when_crash_free() {
    let assets = FleetAssets::urban(RES);
    let base = CellSpec::new("stress", FaultConfig::stress(), SEED, FRAMES);
    let engine = FleetEngine::new(assets, FleetConfig::with_workers(1));
    let plain = engine.run_serial(std::slice::from_ref(&base)).outcomes.remove(0);
    // Checkpoint every frame — the most invasive schedule possible.
    let ck_spec = base.with_recovery(RecoveryPolicy::new(1, 3));
    let checked = engine.run_serial(std::slice::from_ref(&ck_spec)).outcomes.remove(0);
    assert!(checked.checkpoints >= FRAMES as u64, "K=1 must checkpoint every frame");
    assert!(checked.checkpoint_bytes > 0);
    assert_eq!(
        checked.signature(),
        plain.signature(),
        "checkpointing must be invisible to a crash-free run"
    );
}

#[test]
fn recovered_campaigns_stay_byte_identical_across_worker_counts() {
    let assets = FleetAssets::urban(RES);
    let grid = vec![
        CellSpec::new("clean", FaultConfig::off(), 0x5EED1, 8),
        CellSpec::new("crashy/k2", crashy(), SEED, FRAMES).with_recovery(RecoveryPolicy::new(2, 8)),
        CellSpec::new("crashy/k6", crashy(), SEED ^ 7, FRAMES)
            .with_recovery(RecoveryPolicy::new(6, 8)),
    ];
    let reference =
        FleetEngine::new(assets.clone(), FleetConfig::with_workers(1)).run_serial(&grid);
    assert!(
        reference.sink.crashes > 0,
        "campaign must actually crash or this parity test proves nothing"
    );
    assert_eq!(reference.sink.quarantined, 0);
    for workers in [1usize, 2, 8] {
        let run = FleetEngine::new(assets.clone(), FleetConfig::with_workers(workers)).run(&grid);
        assert_eq!(
            run.outcomes, reference.outcomes,
            "recovered-cell outcomes diverged at {workers} workers"
        );
        assert_eq!(run.sink, reference.sink, "recovered sink diverged at {workers} workers");
    }
}

#[test]
fn checkpoint_interval_edge_cases_k1_and_k_beyond_frames() {
    let assets = FleetAssets::urban(RES);
    let engine = FleetEngine::new(assets.clone(), FleetConfig::with_workers(1));
    let want = reference(&assets, &CellSpec::new("crashy", crashy(), SEED, FRAMES));

    // K=1: checkpoint before every frame; each restart replays exactly
    // the crashed frame.
    let k1 = CellSpec::new("crashy", crashy(), SEED, FRAMES)
        .with_recovery(RecoveryPolicy::new(1, 16));
    let k1 = engine.run_serial(std::slice::from_ref(&k1)).outcomes.remove(0);
    assert_eq!(k1.replayed_frames, k1.restarts, "K=1 replays exactly 1 frame per restart");
    assert_eq!(k1.output_digest, want.output_digest);

    // K far beyond the run: only the unconditional frame-0 checkpoint
    // (plus post-restart refreshes) exists, so the first crash replays
    // the whole prefix.
    let kbig = CellSpec::new("crashy", crashy(), SEED, FRAMES)
        .with_recovery(RecoveryPolicy::new(10 * FRAMES as u64, 16));
    let kbig = engine.run_serial(std::slice::from_ref(&kbig)).outcomes.remove(0);
    assert_eq!(kbig.output_digest, want.output_digest);
    assert!(
        kbig.replayed_frames >= k1.replayed_frames,
        "sparser checkpoints cannot replay less: {} < {}",
        kbig.replayed_frames,
        k1.replayed_frames
    );
    assert_eq!(kbig.frames, FRAMES as u64);
}

#[test]
fn exhausted_restart_budget_parks_in_terminal_safe_stop() {
    let assets = FleetAssets::urban(RES);
    // Crash every frame with a budget of 1: first crash restarts, the
    // second exhausts the budget and parks the vehicle.
    let spec = CellSpec::new("doomed", FaultConfig { crash_rate: 1.0, ..FaultConfig::off() }, 3, 10)
        .with_recovery(RecoveryPolicy::new(2, 1));
    let engine = FleetEngine::new(assets, FleetConfig::with_workers(1));
    let outcome = engine.run_serial(std::slice::from_ref(&spec)).outcomes.remove(0);
    assert_eq!(outcome.frames, 10, "a parked cell still completes its frame budget");
    assert_eq!(outcome.restarts, 1, "budget of 1 allows exactly one restart");
    assert_eq!(outcome.crashes, 2, "restart crash + exhausting crash");
    assert!(!outcome.quarantined, "exhaustion parks; it does not quarantine");
    assert!(outcome.safe_stops >= 1);
    assert!(
        outcome.sup_log.iter().any(|l| l.contains("restart budget exhausted")),
        "SafeStop must cite the exhausted budget: {:?}",
        outcome.sup_log
    );
    assert!(outcome.crash_log.last().expect("ledger").contains("budget exhausted"));
}

#[test]
fn crash_without_recovery_policy_quarantines_the_cell() {
    let assets = FleetAssets::urban(RES);
    let spec = CellSpec::new("bare", FaultConfig { crash_rate: 1.0, ..FaultConfig::off() }, 3, 10);
    let engine = FleetEngine::new(assets, FleetConfig::with_workers(1));
    let result = engine.run_serial(std::slice::from_ref(&spec));
    let outcome = &result.outcomes[0];
    assert!(outcome.quarantined);
    assert_eq!(outcome.crashes, 1, "the first crash froze the cell");
    assert_eq!(outcome.restarts, 0);
    assert_eq!(outcome.frames, 0, "crash on frame 0 means nothing completed");
    assert!(outcome.crash_log[0].contains("quarantined"));
    assert_eq!(result.sink.quarantined, 1);
    // The crash dumped the black box with the panic payload attached.
    assert!(
        outcome.dumps.iter().any(|d| d.records.iter().any(|r| r.crashed)),
        "quarantine must leave a flight dump with the crash record"
    );
}
