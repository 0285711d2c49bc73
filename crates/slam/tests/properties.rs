//! Property tests of the robust pose solver, run on seeded
//! [`cases`](adsim_stats::rng::cases).

use adsim_slam::{estimate_pose, Correspondence};
use adsim_stats::rng::cases;
use adsim_stats::Rng64;
use adsim_vision::{Point2, Pose2};

fn pose(rng: &mut Rng64, xy: f64, theta: f64) -> Pose2 {
    Pose2::new(rng.range_f64(-xy, xy), rng.range_f64(-xy, xy), rng.range_f64(-theta, theta))
}

/// 6–14 points uniform in `[-20, 20)²`.
fn spread_points(rng: &mut Rng64) -> Vec<Point2> {
    let n = rng.range_usize(6, 15);
    (0..n).map(|_| Point2::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0))).collect()
}

/// Largest distance from the first point: how far from one cluster.
fn spread(pts: &[Point2]) -> f64 {
    pts.iter().map(|q| q.distance(&pts[0])).fold(0.0f64, f64::max)
}

fn exact(p: Pose2, pts: &[Point2]) -> Vec<Correspondence> {
    pts.iter().map(|&v| Correspondence { vehicle: v, world: p.transform(v) }).collect()
}

#[test]
fn exact_correspondences_recover_the_pose() {
    let check = |p: Pose2, pts: Vec<Point2>| {
        let corrs = exact(p, &pts);
        match estimate_pose(&corrs, corrs.len().min(6)) {
            Some(est) => {
                assert!(est.pose.distance(&p) < 1e-6, "{:?} vs {:?}", est.pose, p);
                assert!(est.pose.heading_error(&p) < 1e-6);
            }
            // Only a degenerate cluster (all points within ~1 mm) may
            // go unsolved.
            None => assert!(spread(&pts) < 1e-3, "non-degenerate solve must succeed"),
        }
    };
    cases(48, |rng| check(pose(rng, 50.0, 3.0), spread_points(rng)));
    // Eight points on a 0.1 grid in [-10, 9.9]², wider poses.
    cases(64, |rng| {
        let p = pose(rng, 100.0, 10.0);
        let mut coord = || rng.range_usize(0, 200) as f64 / 10.0 - 10.0;
        check(p, (0..8).map(|_| Point2::new(coord(), coord())).collect());
    });
}

#[test]
fn minority_outliers_do_not_move_the_solution() {
    cases(48, |rng| {
        let p = pose(rng, 50.0, 3.0);
        let pts = spread_points(rng);
        let (ox, oy) = (rng.range_f64(100.0, 500.0), rng.range_f64(100.0, 500.0));
        if spread(&pts) <= 0.5 {
            return;
        }
        let mut corrs = exact(p, &pts);
        let n_inliers = corrs.len();
        // Up to 1/3 outliers.
        for k in 0..n_inliers / 3 {
            corrs.push(Correspondence {
                vehicle: Point2::new(k as f64, -(k as f64)),
                world: Point2::new(ox + 13.0 * k as f64, oy - 7.0 * k as f64),
            });
        }
        let est = estimate_pose(&corrs, n_inliers.min(6)).expect("solvable");
        assert!(est.pose.distance(&p) < 1e-6);
        assert!(est.inliers >= n_inliers - 1);
    });
}
