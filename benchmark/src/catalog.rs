//! The benchmark's fixed vocabulary: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repo root repeats these tables; a unit test pins the two together,
//! and [`crate::report`] refuses to print a result whose metric set
//! differs from them, so later issues can refer to the names safely.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen; per-layer metrics
/// carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with every recorder off.
/// The time bounds sit at the driver's cap: on the shared 2-core build
/// host, ten 2-pass runs of the same code spread by 5-40 % of their
/// median depending on the neighbours (README, "Noise policy").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("frame_ms_p50", "ms", Lower, 0.25),
    e2e("frame_ms_p90", "ms", Lower, 0.25),
    e2e("frames_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_frame", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
];

/// One layer = one crate. A layer that does not run in a workload
/// reads 0 there (README, "Per-layer metrics").
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.render_ms", "ms", Lower),
    layer("tensor.matmul256_gflops", "GFLOP/s", Higher),
    layer("tensor.conv2d_gflops", "GFLOP/s", Higher),
    layer("tensor.conv2d_batched_gflops", "GFLOP/s", Higher),
    layer("tensor.linear_gflops", "GFLOP/s", Higher),
    layer("tensor.conv2d_over_matmul", "ratio", Higher),
    layer("dnn.forward_ms", "ms", Lower),
    layer("dnn.forward_gflops", "GFLOP/s", Higher),
    layer("dnn.conv_share", "ratio", Lower),
    layer("dnn.pool_share", "ratio", Lower),
    layer("dnn.linear_share", "ratio", Lower),
    layer("dnn.goturn_forward_ms", "ms", Lower),
    layer("dnn.forward_batched_ms_per_image", "ms", Lower),
    layer("dnn.forward_batch1_ms", "ms", Lower),
    layer("dnn.flops_per_frame", "count", Lower),
    layer("dnn.bytes_per_frame", "count", Lower),
    layer("perception.detect_ms", "ms", Lower),
    layer("perception.detect_self_ms", "ms", Lower),
    layer("perception.track_ms", "ms", Lower),
    layer("perception.track_ms_per_track", "ms", Lower),
    layer("perception.detections_per_frame", "count", Lower),
    layer("perception.tracks_per_frame", "count", Lower),
    layer("vision.orb_extract_ms", "ms", Lower),
    layer("vision.orb_ns_per_pixel", "ns", Lower),
    layer("vision.features_per_frame", "count", Higher),
    layer("slam.localize_ms", "ms", Lower),
    layer("slam.localize_self_ms", "ms", Lower),
    layer("slam.relocalizations", "count", Lower),
    layer("slam.lost_frames", "count", Lower),
    layer("planning.fuse_ms", "ms", Lower),
    layer("planning.plan_ms", "ms", Lower),
    layer("runtime.fork_efficiency", "ratio", Higher),
    layer("runtime.region_overhead_us", "us", Lower),
    layer("runtime.cpu_over_wall", "ratio", Lower),
    layer("core.stage_share.det", "ratio", Lower),
    layer("core.stage_share.tra", "ratio", Lower),
    layer("core.stage_share.loc", "ratio", Lower),
    layer("core.stage_share.fus", "ratio", Lower),
    layer("core.stage_share.mot", "ratio", Lower),
    layer("core.pipeline_self_ms", "ms", Lower),
    layer("core.deadline_miss_share", "ratio", Lower),
    layer("core.supervisor_overhead_ms", "ms", Lower),
    layer("core.checkpoint_ms", "ms", Lower),
    layer("core.checkpoint_bytes", "count", Lower),
    layer("core.restore_ms", "ms", Lower),
    layer("faults.faulted_frame_share", "ratio", Lower),
    layer("guard.trips", "count", Lower),
    layer("anytime.quality_reduced_frames", "count", Lower),
    layer("recovery.crashes", "count", Lower),
    layer("recovery.restarts", "count", Lower),
    layer("recovery.replay_share", "ratio", Lower),
    layer("telemetry.overhead_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("fleet.campaign_s", "s", Lower),
    layer("fleet.worker_scaling", "ratio", Higher),
    layer("fleet.cell_setup_ms", "ms", Lower),
    layer("fleet.batch_mean_size", "count", Higher),
    layer("fleet.batched_over_unbatched", "ratio", Higher),
    layer("fleet.safe_stops", "count", Lower),
    layer("fleet.quarantined", "count", Lower),
    layer("fleet.uncaught", "count", Lower),
];

/// The four workloads. All are closed loop with one client: a vehicle
/// processes frame n+1 only after frame n.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UrbanDnn,
    UrbanClassicalHd,
    FleetFaults,
    FleetBatched,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UrbanDnn,
        Workload::UrbanClassicalHd,
        Workload::FleetFaults,
        Workload::FleetBatched,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UrbanDnn => "urban_dnn",
            Workload::UrbanClassicalHd => "urban_classical_hd",
            Workload::FleetFaults => "fleet_faults",
            Workload::FleetBatched => "fleet_batched",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_fleet(self) -> bool {
        matches!(self, Workload::FleetFaults | Workload::FleetBatched)
    }

    /// Cold set-ups per run (this process plus fresh child processes);
    /// `setup_s` is the fastest. The Hd survey alone takes ~8 s, long
    /// enough to ride out a noisy-neighbour burst and too long to
    /// repeat inside the driver's time cap.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::UrbanClassicalHd => 1,
            _ => 2,
        }
    }
}

/// Frames discarded at the start of every pass.
pub const WARMUP_FRAMES: usize = 5;

/// Timed frames per single-vehicle pass. 100 is the floor that leaves
/// ten samples beyond a pass's `frame_ms_p90`.
pub const VEHICLE_FRAMES: usize = 100;

/// How much work one run does. Work is fixed by the mode, never by the
/// clock, so two commits are compared over identical frame counts; a
/// pass is 6-10 s on the build host and `--seconds` buys one pass per
/// ten seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub passes: usize,
    pub vehicle_frames: usize,
    /// `--quick`: a smoke run whose numbers mean nothing.
    pub quick: bool,
}

impl Plan {
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            passes: (seconds / 10).clamp(2, 5) as usize,
            vehicle_frames: VEHICLE_FRAMES,
            quick: false,
        }
    }

    pub fn quick() -> Plan {
        Plan {
            passes: 1,
            vehicle_frames: 10,
            quick: true,
        }
    }

    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_bench::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn items(v: &Value, key: &str) -> Vec<Value> {
        match v.get(key) {
            Some(Value::Arr(a)) => a.clone(),
            other => panic!("{key} must be an array, got {other:?}"),
        }
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn check_metrics(section: &str, defs: &[MetricDef]) {
        let listed = items(&manifest(), section);
        let names: Vec<&str> = listed
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(
            names, ours,
            "{section}: BENCHMARK.json and catalog disagree"
        );
        for (m, d) in listed.iter().zip(defs) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("bound").and_then(Value::as_num),
                d.bound,
                "{}",
                d.name
            );
            if let Some(b) = d.bound {
                assert!(
                    b > 0.0 && b <= 0.25,
                    "{}: bound outside the driver's cap",
                    d.name
                );
            }
        }
    }

    #[test]
    fn workloads_round_trip_with_benchmark_json() {
        let listed = items(&manifest(), "workloads");
        let names: Vec<&str> = listed
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("urban"), None);
    }

    #[test]
    fn end_to_end_metrics_round_trip_with_benchmark_json() {
        check_metrics("end_to_end", END_TO_END);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn per_layer_metrics_round_trip_with_benchmark_json() {
        check_metrics("per_layer", PER_LAYER);
    }

    #[test]
    fn metric_names_are_unique_across_both_tables() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn seconds_buy_passes_between_the_floor_and_the_ledger_default() {
        assert_eq!(Plan::for_seconds(1).passes, 2);
        assert_eq!(Plan::for_seconds(20).passes, 2);
        assert_eq!(Plan::for_seconds(30).passes, 3);
        assert_eq!(Plan::for_seconds(50).passes, 5);
        assert_eq!(Plan::for_seconds(60).passes, 5);
        assert!(Plan::quick().quick);
    }
}
