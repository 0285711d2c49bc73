//! The work-stealing campaign scheduler.

use crate::assets::FleetAssets;
use crate::batch::{BatchStats, BatchedInference};
use crate::cell::{run_cell, CellOutcome, CellRun, CellSpec};
use crate::sink::FleetSink;
use adsim_core::NativePipelineConfig;
use adsim_runtime::Runtime;
use adsim_telemetry::MetricsRegistry;
use std::sync::Mutex;
use std::time::Instant;

/// Campaign scheduling parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet worker threads. Each worker claims cells from the shared
    /// queue (work-stealing via `adsim-runtime`'s atomic cursor), so a
    /// long cell on one worker never blocks the rest of the grid.
    pub workers: usize,
    /// Per-cell pipeline construction parameters. Defaults to a
    /// **serial** inner runtime: parallelism comes from running many
    /// cells at once, and nesting a per-cell pool inside each fleet
    /// worker would oversubscribe the machine. Cell outputs are
    /// bit-identical on any inner thread count, so this only shifts
    /// wall clock.
    pub pipeline: NativePipelineConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: adsim_runtime::available_parallelism(),
            pipeline: NativePipelineConfig { runtime: Runtime::serial(), ..Default::default() },
        }
    }
}

impl FleetConfig {
    /// A config with an explicit fleet worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers: workers.max(1), ..Self::default() }
    }
}

/// A finished campaign: per-cell outcomes in **spec order** (never
/// completion order — slot `i` always holds spec `i`'s outcome, so
/// steal order cannot leak into results) plus their fleet-level sums.
/// Every field except `wall_s` and `workers` is a pure function of the
/// specs.
#[derive(Debug)]
pub struct CampaignResult {
    /// One outcome per input spec, index-aligned.
    pub outcomes: Vec<CellOutcome>,
    /// Fleet-level counters: the outcomes' sum.
    pub sink: FleetSink,
    /// Fleet-merged telemetry registry: per-cell registries folded in
    /// **spec order** (histogram sums are f64 — order matters for byte
    /// identity), so the merged snapshot is identical on any worker
    /// count. Empty unless a `TelemetrySession` recorded the campaign.
    pub telemetry: MetricsRegistry,
    /// Wall-clock seconds for the whole campaign.
    pub wall_s: f64,
    /// Fleet workers that ran it.
    pub workers: usize,
}

impl CampaignResult {
    /// Assembles a campaign from its spec-order outcomes: the sink and
    /// the merged registry are both folds over them in spec order.
    fn new(outcomes: Vec<CellOutcome>, start: Instant, workers: usize) -> Self {
        let mut telemetry = MetricsRegistry::new();
        for outcome in &outcomes {
            telemetry.merge(&outcome.telemetry);
        }
        telemetry.sort();
        Self {
            sink: FleetSink::sum(&outcomes),
            telemetry,
            outcomes,
            wall_s: start.elapsed().as_secs_f64(),
            workers,
        }
    }

    /// Every cell's [`CellOutcome::signature`], in spec order: what the
    /// benches compare across worker counts and checkpoint schedules.
    pub fn signatures(&self) -> Vec<String> {
        self.outcomes.iter().map(|c| c.signature()).collect()
    }
}

/// The fleet campaign engine: schedules N independent vehicle cells
/// over a work-stealing worker pool.
///
/// Each cell owns its pipeline, supervisor, injector and map overlay
/// (shared-nothing mutable state); the prior map and DNN weights are
/// `Arc`-shared read-only across all of them. Each finished cell writes
/// only its own result slot; the fleet-level [`FleetSink`] is summed
/// from the slots once every cell is done.
///
/// # Determinism
///
/// A cell's outcome is a pure function of its spec: the supervisor's
/// watchdog runs on injected *virtual* latency, so wall clock — and
/// therefore worker count, steal order and scheduling jitter — never
/// reaches the outputs, logs or counters. The fleet parity tests pin
/// this: 1, 2 and 8 workers produce equal [`CellOutcome`]s and sinks.
///
/// # Examples
///
/// ```
/// use adsim_fleet::{CellSpec, FleetAssets, FleetConfig, FleetEngine};
/// use adsim_faults::FaultConfig;
/// use adsim_workload::Resolution;
///
/// let engine = FleetEngine::new(
///     FleetAssets::urban(Resolution::Hhd),
///     FleetConfig::with_workers(2),
/// );
/// let specs: Vec<CellSpec> = (0..3)
///     .map(|i| CellSpec::new(format!("clean/{i}"), FaultConfig::off(), 0x5EED + i, 4))
///     .collect();
/// let result = engine.run(&specs);
/// assert_eq!(result.outcomes.len(), 3);
/// assert_eq!(result.sink.cells, 3);
/// ```
#[derive(Debug)]
pub struct FleetEngine {
    assets: FleetAssets,
    cfg: FleetConfig,
}

impl FleetEngine {
    /// Creates an engine over shared campaign assets.
    pub fn new(assets: FleetAssets, cfg: FleetConfig) -> Self {
        Self { assets, cfg }
    }

    /// The campaign assets.
    pub fn assets(&self) -> &FleetAssets {
        &self.assets
    }

    /// The scheduling config.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Runs every spec to completion and returns outcomes in spec
    /// order plus their fleet-level sums.
    pub fn run(&self, specs: &[CellSpec]) -> CampaignResult {
        let start = Instant::now();
        // Per-spec result slots: each cell writes its own index, so
        // completion order (which *does* vary with stealing) never
        // reorders results.
        let slots: Vec<Mutex<Option<CellOutcome>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let rt = Runtime::new(self.cfg.workers);
        rt.run(specs.len(), |i| {
            // The spec index is the vehicle id: every metric and flight
            // dump a cell emits is labeled with it, independent of
            // which fleet worker ran the cell.
            let mut spec = specs[i].clone();
            spec.supervisor.vehicle = i as u32;
            // Last-resort containment: `run_cell` already recovers or
            // quarantines *injected* crashes and re-raises anything
            // else; a panic reaching here is a genuine bug. Convert it
            // to a poisoned outcome so the campaign still completes
            // with every other cell's results intact — the poisoned
            // cell's `uncaught = 1` keeps the breach visible.
            let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_cell(&self.assets, &spec, &self.cfg.pipeline)
            })) {
                Ok(done) => done,
                Err(payload) => {
                    let (msg, _) = adsim_recovery::describe_panic(payload.as_ref());
                    CellOutcome::poisoned(&spec, &msg)
                }
            };
            *slots[i].lock().expect("cell slot poisoned") = Some(outcome);
        });
        let outcomes: Vec<CellOutcome> = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("cell slot poisoned")
                    .expect("runtime ran every task to completion")
            })
            .collect();
        CampaignResult::new(outcomes, start, self.cfg.workers)
    }

    /// [`FleetEngine::run`] with cross-vehicle batched DNN inference.
    ///
    /// Cells advance in **lockstep**: every cell stages frame *k* at
    /// the detection hand-off point, one `BatchedInference` pass
    /// serves all staged detector inputs (one `[n, c, h, w]` forward
    /// per model variant on `workers` threads), and each cell then
    /// finishes its frame with its scattered detections. Because the
    /// batched forward is bit-identical to the per-vehicle pass and
    /// the supervisors' control flow is untouched, outcomes are byte
    /// -identical to [`FleetEngine::run`] / [`FleetEngine::run_serial`]
    /// on any worker count (the fleet parity tests pin this).
    ///
    /// The shared scenario is rendered **once per frame index** for
    /// the whole fleet instead of once per cell — same frames, same
    /// outputs, strictly less render work.
    ///
    /// Returns the campaign result plus the batching counters.
    pub fn run_batched(&self, specs: &[CellSpec]) -> (CampaignResult, BatchStats) {
        let start = Instant::now();
        let mut cells: Vec<CellRun> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut spec = s.clone();
                spec.supervisor.vehicle = i as u32;
                CellRun::new(&self.assets, spec, &self.cfg.pipeline)
            })
            .collect();
        let mut service = BatchedInference::new(Runtime::new(self.cfg.workers));
        let max_frames = specs.iter().map(|s| s.frames).max().unwrap_or(0);
        let mut stream = self.assets.scenario().stream(self.assets.resolution());
        for fidx in 0..max_frames {
            let frame = stream.next().expect("frame streams are endless");
            // Stage every cell still inside its frame budget. Injected
            // crashes are contained per cell — the lockstep engine has
            // no restart path (every cell must stage the *same* frame
            // index), so a crashed cell is quarantined and skipped for
            // the rest of the campaign while the others continue.
            // Non-injected panics re-raise: they are genuine bugs.
            let mut staged = Vec::new();
            for (i, cell) in cells.iter_mut().enumerate() {
                if fidx < cell.frames() && !cell.is_quarantined() {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cell.stage(&frame)
                    })) {
                        Ok(sf) => staged.push((i, sf)),
                        Err(payload) => {
                            let (msg, injected) =
                                adsim_recovery::describe_panic(payload.as_ref());
                            match injected {
                                Some(crash) => cell.quarantine(crash, &msg),
                                None => std::panic::resume_unwind(payload),
                            }
                        }
                    }
                }
            }
            // One batched pass over every staged detector input.
            let requests: Vec<_> =
                staged.iter().filter_map(|(_, sf)| sf.request()).collect();
            let mut served = service.infer(&requests).into_iter();
            // Scatter and finish, in vehicle order.
            for (i, sf) in staged {
                let det = if sf.request().is_some() {
                    Some(served.next().expect("one result per request"))
                } else {
                    None
                };
                cells[i].complete(&frame, sf, det);
            }
        }
        let outcomes = cells.into_iter().map(CellRun::into_outcome).collect();
        (CampaignResult::new(outcomes, start, self.cfg.workers), service.stats())
    }

    /// [`FleetEngine::run`] on a single in-place worker — the serial
    /// reference the parity tests compare fleet runs against.
    pub fn run_serial(&self, specs: &[CellSpec]) -> CampaignResult {
        let start = Instant::now();
        let outcomes = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut spec = spec.clone();
                spec.supervisor.vehicle = i as u32;
                run_cell(&self.assets, &spec, &self.cfg.pipeline)
            })
            .collect();
        CampaignResult::new(outcomes, start, 1)
    }
}
