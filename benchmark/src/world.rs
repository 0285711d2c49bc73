//! Set-up: everything a workload needs before its first timed frame,
//! generated from the seed. The program under test receives only the
//! generated inputs — a scenario, a prior map, fault schedules — never
//! the seed's meaning or the workload's name.

use crate::catalog::{Plan, Workload, WARMUP_FRAMES};
use adsim_core::{
    build_prior_map, DetectorKind, NativeFrameResult, NativePipeline, NativePipelineConfig,
    Supervisor, SupervisorConfig, TrackerKind,
};
use adsim_faults::FaultConfig;
use adsim_fleet::{CellSpec, FleetAssets, FleetConfig, FleetEngine, RecoveryPolicy};
use adsim_perception::TrackerPoolConfig;
use adsim_runtime::Runtime;
use adsim_vision::{GrayImage, Pose2};
use adsim_workload::{Resolution, Scenario, ScenarioKind};
use std::sync::Arc;

/// Threads the load uses — the build host's `nproc`.
pub const THREADS: usize = 2;

/// The `i`-th seed derived from the run seed (golden-ratio stride, as
/// `bench_fleet` derives its campaign seeds).
pub fn derived_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1)
}

/// One workload, ready to run.
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub assets: FleetAssets,
    /// The per-vehicle pipeline configuration.
    pub pipeline: NativePipelineConfig,
    /// The campaign engine and its cells (`fleet_*` only).
    pub fleet: Option<(FleetEngine, Vec<CellSpec>)>,
}

/// The urban world surveyed exactly as `FleetAssets::urban` surveys it
/// (three lateral passes every ten frames), but for the run's seed.
fn assets(seed: u64, resolution: Resolution) -> FleetAssets {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, seed);
    let camera = scenario.camera(resolution);
    let poses: Vec<Pose2> = (0..40)
        .flat_map(|i| {
            let p = scenario.pose_at(i * 10);
            [
                p,
                Pose2::new(p.x, p.y + 25.0, p.theta),
                Pose2::new(p.x, p.y - 25.0, p.theta),
            ]
        })
        .collect();
    let map = Arc::new(build_prior_map(scenario.world(), &camera, poses, 300, 25));
    FleetAssets::new(scenario, resolution, map)
}

fn dnn_pipeline(grid: usize, threshold: f32, runtime: Runtime) -> NativePipelineConfig {
    NativePipelineConfig {
        detector: DetectorKind::Yolo { grid, threshold },
        tracker: TrackerKind::Goturn,
        runtime,
        ..Default::default()
    }
}

/// `bench_fleet`'s "data" mix: sensor-payload faults only, so the
/// lockstep engine (which cannot restore) never sees a crash.
fn data_faults() -> FaultConfig {
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

/// `{clean, faulted} x seeds` cells, interleaved so both workers see
/// both kinds.
fn cells(
    seed: u64,
    seeds: u64,
    frames: usize,
    faulted: (&str, FaultConfig),
    recovery: Option<RecoveryPolicy>,
) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for i in 0..seeds {
        for (label, faults) in [("off", FaultConfig::off()), (faulted.0, faulted.1.clone())] {
            let mut spec = CellSpec::new(
                format!("{label}/{i}"),
                faults,
                derived_seed(seed, i + 1),
                frames,
            );
            spec.recovery = recovery;
            specs.push(spec);
        }
    }
    specs
}

impl World {
    pub fn build(workload: Workload, seed: u64, plan: Plan) -> World {
        let cell_frames = |full: usize| if plan.quick { 10 } else { full };
        let (resolution, pipeline, campaign) = match workload {
            Workload::UrbanDnn => {
                let mut cfg = dnn_pipeline(56, 0.10, Runtime::new(THREADS));
                cfg.tracker_pool = TrackerPoolConfig {
                    capacity: 64,
                    ..Default::default()
                };
                (Resolution::Hhd, cfg, None)
            }
            Workload::UrbanClassicalHd => (
                Resolution::Hd,
                NativePipelineConfig {
                    runtime: Runtime::new(THREADS),
                    ..Default::default()
                },
                None,
            ),
            Workload::FleetFaults => {
                let crashing = FaultConfig {
                    crash_rate: 0.05,
                    ..FaultConfig::stress()
                };
                let specs = cells(
                    seed,
                    6,
                    cell_frames(48),
                    ("stress", crashing),
                    Some(RecoveryPolicy::new(4, 8)),
                );
                (
                    Resolution::Hhd,
                    dnn_pipeline(4, 0.5, Runtime::serial()),
                    Some(specs),
                )
            }
            Workload::FleetBatched => {
                let specs = cells(seed, 4, cell_frames(36), ("data", data_faults()), None);
                (
                    Resolution::Hhd,
                    dnn_pipeline(8, 0.5, Runtime::serial()),
                    Some(specs),
                )
            }
        };
        let assets = assets(seed, resolution);
        let fleet = campaign.map(|specs| (self::engine(&assets, &pipeline, THREADS), specs));
        World {
            workload,
            seed,
            assets,
            pipeline,
            fleet,
        }
    }

    pub fn resolution(&self) -> Resolution {
        self.assets.resolution()
    }

    /// A fresh vehicle at frame 0: the bare pipeline on `urban_*`, a
    /// supervised fault-free cell on `fleet_*` (what a campaign's
    /// clean vehicle-frame is).
    pub fn vehicle(&self) -> Vehicle {
        if self.workload.is_fleet() {
            Vehicle::Supervised(Box::new(self.supervisor()))
        } else {
            Vehicle::Bare(Box::new(self.bare_pipeline()))
        }
    }

    pub fn bare_pipeline(&self) -> NativePipeline {
        let mut pipe = NativePipeline::new(
            self.assets.camera(),
            self.assets.map(),
            self.pipeline.clone(),
        );
        pipe.seed_pose(self.assets.scenario().pose_at(0));
        pipe
    }

    /// A fault-free supervised vehicle, built the way a cell builds it.
    pub fn supervisor(&self) -> Supervisor {
        self.assets.supervisor(
            self.seed,
            FaultConfig::off(),
            SupervisorConfig::default(),
            &self.pipeline,
        )
    }

    /// Runs `frames` frames of the scenario through `step`, the first
    /// [`WARMUP_FRAMES`] discarded. Frames are rendered here, outside
    /// whatever `step` times, and dropped after use. `step` sees the
    /// timed frame index.
    pub fn drive(&self, frames: usize, mut step: impl FnMut(Option<usize>, &GrayImage, f64)) {
        let mut stream = self.assets.scenario().stream(self.resolution());
        for i in 0..WARMUP_FRAMES + frames {
            let frame = stream.next().expect("frame streams are endless");
            step(i.checked_sub(WARMUP_FRAMES), &frame.image, frame.time_s);
        }
    }
}

/// A campaign engine over the world's assets.
pub fn engine(
    assets: &FleetAssets,
    pipeline: &NativePipelineConfig,
    workers: usize,
) -> FleetEngine {
    FleetEngine::new(
        assets.clone(),
        FleetConfig {
            workers,
            pipeline: pipeline.clone(),
        },
    )
}

/// The one client of the closed loop.
pub enum Vehicle {
    Bare(Box<NativePipeline>),
    Supervised(Box<Supervisor>),
}

impl Vehicle {
    pub fn process(&mut self, image: &GrayImage, time_s: f64) -> NativeFrameResult {
        match self {
            Vehicle::Bare(pipe) => pipe.process(image, time_s),
            Vehicle::Supervised(sup) => sup.process(image, time_s).result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_and_depend_on_the_run_seed() {
        let a: Vec<u64> = (1..=6).map(|i| derived_seed(469710, i)).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 6);
        assert_ne!(derived_seed(469710, 1), derived_seed(469711, 1));
    }

    #[test]
    fn campaign_grids_match_the_glossary() {
        let specs = cells(
            7,
            6,
            48,
            ("stress", FaultConfig::stress()),
            Some(RecoveryPolicy::new(4, 8)),
        );
        assert_eq!(specs.len(), 12);
        assert_eq!(specs.iter().map(|s| s.frames).sum::<usize>(), 576);
        assert!(specs.iter().all(|s| s.recovery.is_some()));
        assert_eq!(specs.iter().filter(|s| s.faults.is_off()).count(), 6);
        assert_eq!(
            specs[0].seed, specs[1].seed,
            "a clean and a faulted cell share each seed"
        );
        assert!(
            data_faults().crash_rate == 0.0,
            "the lockstep engine cannot restore a crash"
        );
    }
}
