//! The fleet campaigns: throughput of `FleetEngine::run` /
//! `run_batched` over the workload's cell grid, their correctness
//! gates, and the campaign-level per-layer metrics.

use crate::estimate::{median, min};
use crate::host;
use crate::report::{Failures, Metrics};
use crate::spans::{Recorder, SpanId};
use crate::world::{engine, World, THREADS};
use adsim_fleet::{BatchStats, CampaignResult, CellSpec, FleetEngine, TelemetrySession};
use std::time::Instant;

/// One timed campaign.
pub struct CampaignPass {
    pub result: CampaignResult,
    pub batch: Option<BatchStats>,
    pub cpu_ms: f64,
    /// When the campaign started.
    pub timed_from: Instant,
}

/// Runs the workload's campaign through its own entry point: lockstep
/// batched when `batched`, work-stealing otherwise.
fn run(engine: &FleetEngine, specs: &[CellSpec], batched: bool) -> CampaignPass {
    let timed_from = Instant::now();
    let cpu = host::cpu_ms();
    let (result, batch) = if batched {
        let (result, stats) = engine.run_batched(specs);
        (result, Some(stats))
    } else {
        (engine.run(specs), None)
    };
    CampaignPass {
        result,
        batch,
        cpu_ms: host::cpu_ms() - cpu,
        timed_from,
    }
}

/// The campaign side of a `fleet_*` world.
pub struct Campaign<'w> {
    engine: &'w FleetEngine,
    specs: &'w [CellSpec],
    batched: bool,
}

impl<'w> Campaign<'w> {
    pub fn of(world: &'w World) -> Option<Campaign<'w>> {
        let (engine, specs) = world.fleet.as_ref()?;
        Some(Campaign {
            engine,
            specs,
            batched: world.workload == crate::catalog::Workload::FleetBatched,
        })
    }

    pub fn frames(&self) -> u64 {
        self.specs.iter().map(|s| s.frames as u64).sum()
    }

    /// Five discarded frames on each of the first two cells: fills the
    /// model cache, the workers' scratch buffers and the page cache.
    pub fn warm_up(&self) {
        let warm: Vec<CellSpec> = self
            .specs
            .iter()
            .take(THREADS)
            .map(|s| CellSpec {
                frames: crate::catalog::WARMUP_FRAMES,
                ..s.clone()
            })
            .collect();
        run(self.engine, &warm, self.batched);
    }

    pub fn pass(&self) -> CampaignPass {
        self.warm_up();
        run(self.engine, self.specs, self.batched)
    }

    /// One op = one vehicle-frame. It fails when its cell did not
    /// deliver it, let a panic or an escalation escape (`uncaught`),
    /// or signed differently from pass 0. Injected crashes,
    /// quarantines and SafeStops are behaviour, not failures.
    pub fn check(&self, passes: &[CampaignPass], failures: &mut Failures) {
        let reference = passes[0].result.signatures();
        for (p, pass) in passes.iter().enumerate() {
            failures.attempt(self.frames());
            self.check_delivery(&format!("pass {p}"), &pass.result, failures);
            self.check_signatures(
                &format!("pass {p}"),
                &pass.result,
                &reference,
                "pass 0",
                failures,
            );
        }
    }

    fn check_delivery(&self, what: &str, result: &CampaignResult, failures: &mut Failures) {
        for (spec, outcome) in self.specs.iter().zip(&result.outcomes) {
            let short = (spec.frames as u64).saturating_sub(outcome.frames);
            failures.fail(short, || {
                format!(
                    "{what}: cell {} delivered {} of {} frames",
                    spec.label, outcome.frames, spec.frames
                )
            });
            failures.fail(outcome.uncaught, || {
                format!(
                    "{what}: cell {} let {} escalations escape",
                    spec.label, outcome.uncaught
                )
            });
        }
    }

    fn check_signatures(
        &self,
        what: &str,
        result: &CampaignResult,
        reference: &[String],
        reference_name: &str,
        failures: &mut Failures,
    ) {
        for ((spec, outcome), expected) in self.specs.iter().zip(&result.outcomes).zip(reference) {
            if outcome.signature() != *expected {
                failures.fail(spec.frames as u64, || {
                    format!(
                        "{what}: cell {} signs differently from {reference_name}",
                        spec.label
                    )
                });
            }
        }
    }

    /// The lockstep engine must sign every cell exactly as the
    /// work-stealing engine does on the same specs. Returns the
    /// unbatched pass for `fleet.batched_over_unbatched`.
    pub fn check_batched_parity(
        &self,
        batched: &CampaignPass,
        failures: &mut Failures,
    ) -> Option<CampaignPass> {
        if !self.batched {
            return None;
        }
        let unbatched = run(self.engine, self.specs, false);
        failures.attempt(self.frames());
        self.check_signatures(
            "run_batched",
            &batched.result,
            &unbatched.result.signatures(),
            "run",
            failures,
        );
        Some(unbatched)
    }

    /// `frames_per_s` and `cpu_ms_per_frame` of the campaign (the
    /// `fleet_*` definitions): best pass each.
    pub fn throughput_metrics(&self, passes: &[CampaignPass], metrics: &mut Metrics) {
        let n = self.frames() as f64;
        let best_wall = min(&passes.iter().map(|p| p.result.wall_s).collect::<Vec<_>>());
        let best_cpu = min(&passes.iter().map(|p| p.cpu_ms).collect::<Vec<_>>());
        metrics.put("frames_per_s", n / best_wall, passes.len());
        metrics.put("cpu_ms_per_frame", best_cpu / n, passes.len());
    }

    /// The traced campaign: campaign -> (cell set-up probe) spans and
    /// the counters the cells and the sink report.
    pub fn trace(
        &self,
        world: &World,
        rec: &mut Recorder,
        frame: u64,
        metrics: &mut Metrics,
        failures: &mut Failures,
    ) {
        self.warm_up();
        let root = rec.open("bench.campaign", None, frame);
        let (span, plain) = rec.time("fleet.campaign", Some(root), frame, || {
            run(self.engine, self.specs, self.batched)
        });
        let sink = &plain.result.sink;
        for (key, value) in [
            ("frames", sink.frames),
            ("crashes", sink.crashes),
            ("restarts", sink.restarts),
            ("replayed_frames", sink.replayed_frames),
        ] {
            rec.count(span, key, value as f64);
        }
        failures.attempt(self.frames());
        self.check_delivery("traced campaign", &plain.result, failures);

        let cells = self.specs.len();
        let frames = sink.frames.max(1) as f64;
        let outcomes = &plain.result.outcomes;
        let total =
            |f: fn(&adsim_fleet::CellOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
        metrics.put("fleet.campaign_s", plain.result.wall_s, 1);
        metrics.put(
            "faults.faulted_frame_share",
            total(|c| c.injected_data_faults) / frames,
            cells,
        );
        metrics.put("guard.trips", total(|c| c.monitor_trips), cells);
        metrics.put(
            "anytime.quality_reduced_frames",
            total(|c| c.quality_reduced_frames),
            cells,
        );
        metrics.put("recovery.crashes", sink.crashes as f64, cells);
        metrics.put("recovery.restarts", sink.restarts as f64, cells);
        metrics.put(
            "recovery.replay_share",
            sink.replayed_frames as f64 / frames,
            cells,
        );
        metrics.put("fleet.safe_stops", sink.safe_stops as f64, cells);
        metrics.put("fleet.quarantined", sink.quarantined as f64, cells);
        metrics.put("fleet.uncaught", sink.uncaught as f64, cells);
        let batch = plain.batch.unwrap_or_default();
        metrics.put(
            "fleet.batch_mean_size",
            if batch.batches > 0 {
                batch.requests as f64 / batch.batches as f64
            } else {
                0.0
            },
            batch.batches as usize,
        );

        // What adsim-telemetry costs when a session is recording.
        let session = TelemetrySession::begin();
        let recorded = run(self.engine, self.specs, self.batched);
        drop(session.finish());
        metrics.put(
            "telemetry.overhead_share",
            recorded.result.wall_s / plain.result.wall_s - 1.0,
            1,
        );

        if let Some(unbatched) = self.check_batched_parity(&plain, failures) {
            metrics.put(
                "fleet.batched_over_unbatched",
                unbatched.result.wall_s / plain.result.wall_s,
                1,
            );
        }

        // Two workers over one, on a third of the grid to bound the
        // serial run's cost.
        let subset = &self.specs[..(cells / 3).max(THREADS).min(cells)];
        let two = run(self.engine, subset, self.batched);
        let one = run(
            &engine(&world.assets, &world.pipeline, 1),
            subset,
            self.batched,
        );
        metrics.put(
            "fleet.worker_scaling",
            one.result.wall_s / two.result.wall_s,
            subset.len(),
        );

        cell_setup(world, rec, root, frame, metrics);
        rec.close(root);
    }
}

/// `fleet.cell_setup_ms`: what `FleetAssets::supervisor` costs per cell.
pub fn cell_setup(
    world: &World,
    rec: &mut Recorder,
    parent: SpanId,
    frame: u64,
    metrics: &mut Metrics,
) {
    const REPS: usize = 9;
    let ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let (id, _) = rec.time("probe.cell_setup", Some(parent), frame, || {
                std::hint::black_box(world.supervisor())
            });
            rec.get(id).dur_ms()
        })
        .collect();
    metrics.put("fleet.cell_setup_ms", median(&ms), REPS);
}
