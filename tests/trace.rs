//! Cross-crate tracing guarantees: recording never perturbs pipeline
//! outputs, the disabled recorder is cheap enough to leave compiled
//! in, the Chrome export is well-formed JSON, runtime workers and
//! supervisor degradations surface in the trace.

use adsim::core::{
    build_prior_map, ModeledPipeline, ModeledSupervisor, NativePipeline, NativePipelineConfig,
    PlatformConfig, SupervisorConfig,
};
use adsim::faults::{FaultConfig, FaultInjector};
use adsim::platform::Platform;
use adsim::runtime::Runtime;
use adsim::trace::{json, validate_json, worker_utilization, EventKind, TraceSession};
use adsim::vision::Pose2;
use adsim::workload::{Resolution, Scenario, ScenarioKind};

const RES: Resolution = Resolution::Hhd;
const FRAMES: usize = 5;

fn pipeline(scenario: &Scenario) -> NativePipeline {
    let camera = scenario.camera(RES);
    let poses: Vec<Pose2> = (0..96)
        .step_by(8)
        .flat_map(|i| {
            let p = scenario.pose_at(i);
            [p, Pose2::new(p.x, p.y + 25.0, p.theta), Pose2::new(p.x, p.y - 25.0, p.theta)]
        })
        .collect();
    let map = build_prior_map(scenario.world(), &camera, poses, 300, 25);
    let mut pipe = NativePipeline::new(camera, map, NativePipelineConfig::default());
    pipe.seed_pose(scenario.pose_at(0));
    pipe
}

/// Everything deterministic about a run, down to the bit pattern.
fn drive(scenario: &Scenario, pipe: &mut NativePipeline) -> String {
    let mut sig = String::new();
    for frame in scenario.stream(RES).take(FRAMES) {
        let out = pipe.process(&frame.image, frame.time_s);
        match out.pose {
            Some(p) => sig.push_str(&format!(
                "pose {:016x} {:016x} {:016x}; ",
                p.x.to_bits(),
                p.y.to_bits(),
                p.theta.to_bits()
            )),
            None => sig.push_str("pose none; "),
        }
        for t in &out.tracks {
            sig.push_str(&format!(
                "trk {} {:08x} {:08x} {:08x} {:08x}; ",
                t.track_id,
                t.bbox.cx.to_bits(),
                t.bbox.cy.to_bits(),
                t.bbox.w.to_bits(),
                t.bbox.h.to_bits()
            ));
        }
        sig.push('\n');
    }
    sig
}

/// Recording a session must not change a single output bit relative to
/// the same pipeline running with the recorder disabled.
#[test]
fn traced_pipeline_outputs_are_bit_identical_to_untraced() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 3301);
    let mut bare = pipeline(&scenario);
    let untraced = drive(&scenario, &mut bare);

    // The map build and pipeline construction stay outside the session
    // so the trace holds exactly the per-frame span taxonomy.
    let mut instrumented = pipeline(&scenario);
    let session = TraceSession::begin();
    let traced = drive(&scenario, &mut instrumented);
    let trace = session.finish();

    assert_eq!(untraced, traced, "tracing must observe, never perturb");
    // The session actually recorded the pipeline span taxonomy.
    for name in ["pipeline.frame", "stage.det", "stage.loc", "stage.tra", "stage.fusion",
        "stage.motplan", "orb.extract", "loc.orb"]
    {
        assert_eq!(
            trace.span_count(name),
            FRAMES as u64,
            "expected one {name} span per frame"
        );
    }
    assert!(trace.histogram("stage.loc").is_some());
}

/// The Chrome export of a real pipeline trace must parse as JSON and
/// carry the trace-event envelope.
#[test]
fn chrome_export_of_pipeline_trace_is_well_formed() {
    let scenario = Scenario::new(ScenarioKind::UrbanDrive, 3302);
    let mut pipe = pipeline(&scenario);
    let session = TraceSession::begin();
    drive(&scenario, &mut pipe);
    let trace = session.finish();
    assert!(!trace.is_empty());

    let json = trace.chrome_json();
    validate_json(&json).expect("chrome export must be well-formed JSON");
    let doc = json::parse(&json).expect("chrome export parses");
    let Some(json::Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("chrome export must hold a traceEvents array")
    };
    assert!(
        events.iter().any(|e| e.get("ph").and_then(json::Value::as_str) == Some("X")),
        "must contain complete-span events"
    );
}

/// Runtime fork-join regions surface per-worker busy spans that the
/// utilization summary can aggregate.
#[test]
fn runtime_workers_emit_utilization_spans() {
    let session = TraceSession::begin();
    let rt = Runtime::new(2);
    let mut data = vec![0u64; 64];
    rt.par_chunks_mut(&mut data, 1, |i, slot| {
        slot[0] = (i as u64) * 3 + 1;
    });
    let trace = session.finish();

    assert!(trace.span_count("runtime.region") >= 1);
    assert!(trace.span_count("runtime.worker") >= 2, "both workers must report busy spans");
    let (workers, region_ms) = worker_utilization(&trace.events);
    assert_eq!(workers.len(), 2);
    assert!(region_ms > 0.0);
    assert!(workers.iter().all(|w| w.busy_ms > 0.0 && w.regions >= 1));
    // The parallel work itself ran to completion.
    assert!(data.iter().enumerate().all(|(i, &v)| v == (i as u64) * 3 + 1));
}

/// A worker task that builds its own inner runtime (the DET/LOC fork
/// does this for ORB and DNN fan-out) emits nested region/worker
/// spans. Utilization must bill each wall-clock interval once: no
/// worker may appear busier than the total region time.
#[test]
fn nested_runtimes_keep_utilization_within_wall_clock() {
    let session = TraceSession::begin();
    let outer = Runtime::new(2);
    outer.run(2, |_| {
        let inner = Runtime::new(2);
        let mut data = vec![0u64; 256];
        inner.par_chunks_mut(&mut data, 8, |i, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (i * 8 + j) as u64;
            }
        });
        std::hint::black_box(data);
    });
    let trace = session.finish();

    let (workers, region_ms) = worker_utilization(&trace.events);
    assert!(region_ms > 0.0);
    assert!(!workers.is_empty());
    for w in &workers {
        assert!(
            w.busy_ms <= region_ms * 1.001,
            "worker {} billed {:.4} ms busy against {:.4} ms of region wall clock \
             (nested spans double-counted)",
            w.worker,
            w.busy_ms,
            region_ms
        );
    }
}

/// Supervisor degradation transitions appear as trace instants, one
/// per logged event, so mode changes line up with stage spans on the
/// timeline.
#[test]
fn supervisor_degradations_appear_as_trace_instants() {
    let session = TraceSession::begin();
    let mut sup = ModeledSupervisor::new(
        ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 1),
        FaultInjector::new(7, FaultConfig::stress()),
        SupervisorConfig::default(),
    );
    sup.simulate(500, 1.0);
    let logged = sup.events().len();
    let trace = session.finish();

    assert!(logged > 0, "the stress schedule must trip the supervisor");
    let instants = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name.starts_with("degrade."))
        .count();
    assert_eq!(instants, logged, "one trace instant per degradation-log entry");
}

/// The disabled recorder must be cheap enough to leave compiled into
/// every hot loop: one relaxed atomic load per span. The bound is two
/// orders of magnitude above the expected cost, so the test guards
/// against accidental locking or allocation, not cache noise.
#[test]
fn disabled_recorder_overhead_is_bounded() {
    // Hold the session lock without recording, so a concurrently
    // running test's session cannot enable tracing mid-measurement.
    let quiet = TraceSession::quiesced();
    const CALLS: u32 = 1_000_000;
    let t = std::time::Instant::now();
    for i in 0..CALLS {
        let _sp = adsim::trace::span_at("overhead.probe", i as usize);
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / f64::from(CALLS);
    assert!(quiet.finish().is_empty());
    assert!(
        per_call_ns < 1_000.0,
        "disabled span cost {per_call_ns:.1} ns/call; expected well under 1 us"
    );
}
