//! Thread-count invariance for the parallel planning kernels.
//!
//! `FusionEngine::fuse_with`, `ConformalPlanner::plan_with` and
//! `LatticePlanner::plan_with` fan out on `adsim-runtime` but promise
//! bit-identical results on every thread count: each work item writes
//! its own output slot and every reduction runs serially in index
//! order (the lattice additionally fixes its expansion batch size
//! independent of the worker count). These tests pin that promise
//! with enough work to clear the runtime's serial-degrade threshold,
//! so the parallel code path really executes.

use adsim_dnn::detection::{BBox, ObjectClass};
use adsim_planning::{
    Centerline, ConformalPlanner, FusionEngine, LatticePlanner, Obstacle, RoadObstacle,
};
use adsim_runtime::Runtime;
use adsim_vision::{OrthoCamera, Point2, Pose2};

const THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic pseudo-random f64 in [0, 1) from an index.
fn unit(i: usize) -> f64 {
    ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64
}

/// A tracked-object table big enough that `tracks * PROJECT_WORK_PER_TRACK`
/// exceeds the runtime's serial-degrade threshold (16 Ki work units).
fn tracks(frame: usize) -> Vec<(u64, ObjectClass, BBox)> {
    (0..200)
        .map(|i| {
            let wobble = 0.002 * frame as f32;
            (
                i as u64,
                ObjectClass::Vehicle,
                BBox::new(
                    0.1 + 0.8 * unit(i) as f32 + wobble,
                    0.1 + 0.8 * unit(i + 1000) as f32,
                    0.02 + 0.05 * unit(i + 2000) as f32,
                    0.02 + 0.05 * unit(i + 3000) as f32,
                ),
            )
        })
        .collect()
}

#[test]
fn fusion_is_bit_identical_across_thread_counts() {
    let camera = OrthoCamera::new(640, 480, 0.25);
    // Reference: the serial entry point, fresh engine.
    let mut reference = FusionEngine::new();
    let mut expected = Vec::new();
    for frame in 0..3 {
        let ego = Pose2::new(2.0 * frame as f64, 0.5 * frame as f64, 0.01 * frame as f64);
        expected.push(reference.fuse(&camera, ego, frame as f64 * 0.1, &tracks(frame)));
    }
    for threads in THREADS {
        let rt = Runtime::new(threads);
        let mut engine = FusionEngine::new();
        for (frame, want) in expected.iter().enumerate() {
            let ego = Pose2::new(2.0 * frame as f64, 0.5 * frame as f64, 0.01 * frame as f64);
            let fused = engine.fuse_with(&rt, &camera, ego, frame as f64 * 0.1, &tracks(frame));
            assert_eq!(fused.objects.len(), want.objects.len());
            assert_eq!(fused.ego_speed_mps.to_bits(), want.ego_speed_mps.to_bits());
            for (got, want) in fused.objects.iter().zip(&want.objects) {
                assert_eq!(got.track_id, want.track_id, "{threads} threads");
                assert_eq!(got.position.x.to_bits(), want.position.x.to_bits());
                assert_eq!(got.position.y.to_bits(), want.position.y.to_bits());
                assert_eq!(got.extent.0.to_bits(), want.extent.0.to_bits());
                assert_eq!(got.extent.1.to_bits(), want.extent.1.to_bits());
                assert_eq!(got.velocity.x.to_bits(), want.velocity.x.to_bits());
                assert_eq!(got.velocity.y.to_bits(), want.velocity.y.to_bits());
            }
        }
    }
}

#[test]
fn conformal_planner_is_bit_identical_across_thread_counts() {
    let road = Centerline::straight(500.0);
    let planner = ConformalPlanner;
    // Enough obstacles that the estimated work clears the threshold
    // and candidate costs genuinely differ between lanes.
    let obstacles: Vec<RoadObstacle> = (0..12)
        .map(|i| RoadObstacle {
            station: 15.0 + 10.0 * i as f64,
            lateral: -3.5 + 7.0 * unit(i),
            velocity_mps: 4.0 * unit(i + 50),
            radius: 1.0 + unit(i + 100),
        })
        .collect();
    let reference = planner
        .plan(&road, 5.0, 0.4, 12.0, &obstacles)
        .expect("a clear lane exists");
    for threads in THREADS {
        let rt = Runtime::new(threads);
        let got = planner
            .plan_with(&rt, &road, 5.0, 0.4, 12.0, &obstacles)
            .expect("a clear lane exists");
        assert_eq!(got.cost.to_bits(), reference.cost.to_bits(), "{threads} threads");
        assert_eq!(got.target_lateral.to_bits(), reference.target_lateral.to_bits());
        assert_eq!(got.candidates, reference.candidates);
        assert_eq!(got.poses.len(), reference.poses.len());
        for (g, r) in got.poses.iter().zip(&reference.poses) {
            assert_eq!(g.x.to_bits(), r.x.to_bits(), "{threads} threads");
            assert_eq!(g.y.to_bits(), r.y.to_bits());
            assert_eq!(g.theta.to_bits(), r.theta.to_bits());
        }
    }
}

/// A dense deterministic obstacle field: enough per-node collision
/// work that the lattice's batched expansion clears the runtime's
/// serial-degrade gate, and cluttered enough to force real detours.
fn obstacle_field() -> Vec<Obstacle> {
    (0..160)
        .filter_map(|i| {
            let x = 4.0 + 44.0 * unit(i);
            let y = -22.0 + 44.0 * unit(i + 7_000);
            // Keep the start and the goal approachable.
            if (x * x + y * y) < 16.0 || ((x - 45.0).powi(2) + y * y) < 16.0 {
                return None;
            }
            Some(Obstacle::new(Point2::new(x, y), 0.8 + 0.8 * unit(i + 14_000)))
        })
        .collect()
}

fn assert_paths_identical(
    got: &Option<adsim_planning::Path>,
    want: &Option<adsim_planning::Path>,
    label: &str,
) {
    match (got, want) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_eq!(g.expansions, w.expansions, "{label}: expansion count");
            assert_eq!(g.length_m.to_bits(), w.length_m.to_bits(), "{label}: length");
            assert_eq!(g.poses.len(), w.poses.len(), "{label}: pose count");
            for (a, b) in g.poses.iter().zip(&w.poses) {
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "{label}");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "{label}");
                assert_eq!(a.theta.to_bits(), b.theta.to_bits(), "{label}");
            }
        }
        _ => panic!("{label}: plan feasibility differs across thread counts"),
    }
}

#[test]
fn lattice_planner_is_bit_identical_across_thread_counts() {
    let planner = LatticePlanner::default();
    let obstacles = obstacle_field();
    let goal = Point2::new(45.0, 0.0);
    let reference = planner.plan(Pose2::identity(), goal, &obstacles);
    assert!(reference.is_some(), "the cluttered field must still be traversable");
    for threads in THREADS {
        let rt = Runtime::new(threads);
        let got = planner.plan_with(&rt, Pose2::identity(), goal, &obstacles);
        assert_paths_identical(&got, &reference, &format!("{threads} threads"));
    }
}

#[test]
fn lattice_infeasibility_is_thread_count_invariant() {
    // A goal sealed inside a ring: every thread count must burn the
    // same expansion budget and agree the goal is unreachable.
    let planner = LatticePlanner::new(4_000);
    let goal = Point2::new(18.0, 0.0);
    let ring: Vec<Obstacle> = (0..28)
        .map(|i| {
            let a = i as f64 / 28.0 * std::f64::consts::TAU;
            Obstacle::new(Point2::new(18.0 + 5.0 * a.cos(), 5.0 * a.sin()), 1.4)
        })
        .collect();
    for threads in THREADS {
        let got = planner.plan_with(&Runtime::new(threads), Pose2::identity(), goal, &ring);
        assert!(got.is_none(), "{threads} threads found a path through a sealed ring");
    }
}

#[test]
fn conformal_ties_keep_the_lowest_lattice_index() {
    // With no obstacles and symmetric cost weights the ±offsets tie in
    // cost; the planner must keep the first minimum in lattice order
    // (which is the centered lane here — strictly cheapest — so probe
    // determinism by re-running on every thread count).
    let road = Centerline::straight(200.0);
    let planner = ConformalPlanner;
    let reference = planner.plan(&road, 0.0, 0.0, 10.0, &[]).expect("clear road");
    for threads in THREADS {
        let got = planner
            .plan_with(&Runtime::new(threads), &road, 0.0, 0.0, 10.0, &[])
            .expect("clear road");
        assert_eq!(got.target_lateral.to_bits(), reference.target_lateral.to_bits());
        assert_eq!(got.cost.to_bits(), reference.cost.to_bits());
    }
}
