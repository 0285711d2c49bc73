//! Trace export: records a few frames of the DNN pipeline (YOLO grid-56
//! detection, GOTURN tracking, ORB + RANSAC localization) with
//! `adsim-trace` and writes a Chrome trace to
//! `target/TRACE_pipeline.json`. Open it in <https://ui.perfetto.dev>
//! (or `chrome://tracing`) to see the DET∥LOC fork, every DNN layer
//! with its FLOP and byte args, ORB pyramid levels and runtime workers
//! on one timeline.
//!
//! ```sh
//! cargo run --release --example trace_export
//! ```

use adsim::core::{
    build_prior_map, DetectorKind, NativePipeline, NativePipelineConfig, TrackerKind,
};
use adsim::perception::TrackerPoolConfig;
use adsim::trace::{validate_json, TraceSession};
use adsim::vision::Pose2;
use adsim::workload::{Resolution, Scenario, ScenarioKind};

fn main() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 0x72ACE);
    let resolution = Resolution::Hhd;
    let camera = scenario.camera(resolution);
    let mapping_poses: Vec<Pose2> = (0..40)
        .flat_map(|i| {
            let p = scenario.pose_at(i * 10);
            [p, Pose2::new(p.x, p.y + 25.0, p.theta), Pose2::new(p.x, p.y - 25.0, p.theta)]
        })
        .collect();
    let map = build_prior_map(scenario.world(), &camera, mapping_poses, 300, 25);
    let config = NativePipelineConfig {
        detector: DetectorKind::Yolo { grid: 56, threshold: 0.10 },
        tracker: TrackerKind::Goturn,
        tracker_pool: TrackerPoolConfig { capacity: 64, ..Default::default() },
        ..Default::default()
    };
    let mut pipeline = NativePipeline::new(camera, map, config);
    pipeline.seed_pose(scenario.pose_at(0));

    let session = TraceSession::begin();
    for frame in scenario.stream(resolution).take(4) {
        pipeline.process(&frame.image, frame.time_s);
    }
    let trace = session.finish();
    println!("{}", trace.summary().table());

    let chrome = trace.chrome_json();
    validate_json(&chrome).expect("Chrome trace export must be well-formed JSON");
    for span in ["stage.det", "dnn.conv2d", "orb.level"] {
        assert!(chrome.contains(span), "trace has no {span} span");
    }
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/TRACE_pipeline.json", &chrome).expect("write the trace");
    println!("wrote target/TRACE_pipeline.json ({} events)", trace.events.len());
}
