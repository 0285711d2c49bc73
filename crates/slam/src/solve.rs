use adsim_runtime::Runtime;
use adsim_vision::{Point2, Pose2};

/// One feature correspondence: where the landmark appears relative to
/// the vehicle, and where the prior map says it is in the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correspondence {
    /// Landmark position in the vehicle frame (from the camera).
    pub vehicle: Point2,
    /// Landmark position in the world frame (from the prior map).
    pub world: Point2,
}

/// Result of a pose solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseEstimate {
    /// Estimated world pose of the vehicle.
    pub pose: Pose2,
    /// Correspondences classified as inliers.
    pub inliers: usize,
    /// Mean residual of the inliers in meters.
    pub mean_residual: f64,
}

/// Residual below which a correspondence counts as an inlier (meters).
/// Camera quantization in this workspace is 0.25 m/px, so a 1 m gate
/// admits legitimate matches while rejecting wrong associations.
const INLIER_THRESHOLD: f64 = 1.0;

/// Maximum RANSAC hypotheses evaluated per solve.
const MAX_HYPOTHESES: usize = 64;

/// Estimates the vehicle's SE(2) world pose from correspondences.
///
/// Descriptor matching against a large prior map inevitably produces
/// wrong associations, so the solve is robust: deterministic RANSAC
/// over 2-point minimal hypotheses selects the largest consensus set,
/// which is then refined by closed-form least squares (2-D Umeyama
/// without scale). Returns `None` when fewer than `min_inliers`
/// correspondences agree — the signal the localizer uses to fall back
/// to relocalization (paper §3.1.3).
///
/// # Examples
///
/// ```
/// use adsim_slam::{estimate_pose, Correspondence};
/// use adsim_vision::{Point2, Pose2};
///
/// let truth = Pose2::new(3.0, -2.0, 0.4);
/// let corrs: Vec<Correspondence> = [(1.0, 0.0), (0.0, 2.0), (-1.0, 1.0)]
///     .iter()
///     .map(|&(x, y)| {
///         let v = Point2::new(x, y);
///         Correspondence { vehicle: v, world: truth.transform(v) }
///     })
///     .collect();
/// let est = estimate_pose(&corrs, 3).unwrap();
/// assert!(est.pose.distance(&truth) < 1e-9);
/// ```
pub fn estimate_pose(corrs: &[Correspondence], min_inliers: usize) -> Option<PoseEstimate> {
    estimate_pose_with(&Runtime::serial(), corrs, min_inliers)
}

/// [`estimate_pose`] with hypothesis scoring spread over a worker pool.
///
/// Hypothesis poses still enumerate serially in the pinned `(gap, i)`
/// pair order — enumeration is cheap — but scoring each hypothesis
/// against every correspondence, the `O(hypotheses × n)` bulk of the
/// solve, fans out over `rt`'s workers into per-hypothesis slots. The
/// winner is then selected by replaying the serial first-wins argmax
/// over those slots, so the result is bit-identical on any thread
/// count (pinned by the `ransac` parity tests).
pub(crate) fn estimate_pose_with(
    rt: &Runtime,
    corrs: &[Correspondence],
    min_inliers: usize,
) -> Option<PoseEstimate> {
    let needed = min_inliers.max(2);
    if corrs.len() < needed {
        return None;
    }
    let n = corrs.len();

    // Deterministic hypothesis enumeration: pairs (i, i + gap) with
    // varying gaps, spread over the correspondence set.
    let mut hypotheses: Vec<Pose2> = Vec::new();
    'outer: for gap in 1..n {
        for i in 0..n - gap {
            if hypotheses.len() >= MAX_HYPOTHESES {
                break 'outer;
            }
            let (a, b) = (&corrs[i], &corrs[i + gap]);
            if let Some(pose) = pose_from_pair(a, b) {
                hypotheses.push(pose);
            }
        }
    }
    let mut counts = vec![0usize; hypotheses.len()];
    // ~16 scalar ops per residual gate; small solves stay serial.
    rt.for_work(hypotheses.len() * n * 16).par_chunks_mut(&mut counts, 1, |h, slot| {
        slot[0] = count_inliers(corrs, &hypotheses[h]);
    });
    let mut best: Option<(Pose2, usize)> = None;
    for (pose, &inliers) in hypotheses.iter().zip(&counts) {
        if best.is_none_or(|(_, best_n)| inliers > best_n) {
            best = Some((*pose, inliers));
        }
    }

    // Fall back to a global least-squares fit (handles degenerate
    // inputs like coincident points where no pair hypothesis exists).
    let candidate = match best {
        Some((pose, _)) => pose,
        None => solve_rigid(corrs)?,
    };

    // Refine on the consensus set, then re-classify.
    let consensus: Vec<Correspondence> =
        corrs.iter().copied().filter(|c| residual(c, &candidate) <= INLIER_THRESHOLD).collect();
    let refined = if consensus.len() >= 2 {
        solve_rigid(&consensus).unwrap_or(candidate)
    } else {
        candidate
    };
    let inlier_set: Vec<&Correspondence> =
        corrs.iter().filter(|c| residual(c, &refined) <= INLIER_THRESHOLD).collect();
    if inlier_set.len() < min_inliers {
        return None;
    }
    let mean_residual =
        inlier_set.iter().map(|c| residual(c, &refined)).sum::<f64>() / inlier_set.len() as f64;
    Some(PoseEstimate { pose: refined, inliers: inlier_set.len(), mean_residual })
}

fn residual(c: &Correspondence, pose: &Pose2) -> f64 {
    pose.transform(c.vehicle).distance(&c.world)
}

fn count_inliers(corrs: &[Correspondence], pose: &Pose2) -> usize {
    corrs.iter().filter(|c| residual(c, pose) <= INLIER_THRESHOLD).count()
}

/// Exact SE(2) from two correspondences: rotation aligns the segment
/// directions, translation aligns the first point. `None` when either
/// segment is too short to define a direction.
fn pose_from_pair(a: &Correspondence, b: &Correspondence) -> Option<Pose2> {
    let dv = b.vehicle - a.vehicle;
    let dw = b.world - a.world;
    if dv.norm() < 1e-6 || dw.norm() < 1e-6 {
        return None;
    }
    let theta = dw.y.atan2(dw.x) - dv.y.atan2(dv.x);
    let (s, c) = theta.sin_cos();
    let rx = c * a.vehicle.x - s * a.vehicle.y;
    let ry = s * a.vehicle.x + c * a.vehicle.y;
    Some(Pose2::new(a.world.x - rx, a.world.y - ry, theta))
}

/// Closed-form 2-D rigid registration minimizing `Σ |R·v + t − w|²`.
fn solve_rigid(corrs: &[Correspondence]) -> Option<Pose2> {
    let n = corrs.len() as f64;
    if corrs.len() < 2 {
        return None;
    }
    let mut vc = Point2::default();
    let mut wc = Point2::default();
    for c in corrs {
        vc = vc + c.vehicle;
        wc = wc + c.world;
    }
    vc = vc * (1.0 / n);
    wc = wc * (1.0 / n);
    let (mut sxx, mut sxy) = (0.0f64, 0.0f64);
    for c in corrs {
        let v = c.vehicle - vc;
        let w = c.world - wc;
        sxx += v.x * w.x + v.y * w.y;
        sxy += v.x * w.y - v.y * w.x;
    }
    if sxx == 0.0 && sxy == 0.0 {
        // Degenerate: no rotational information; translation-only.
        return Some(Pose2::new(wc.x - vc.x, wc.y - vc.y, 0.0));
    }
    let theta = sxy.atan2(sxx);
    let (s, c) = theta.sin_cos();
    let tx = wc.x - (c * vc.x - s * vc.y);
    let ty = wc.y - (s * vc.x + c * vc.y);
    Some(Pose2::new(tx, ty, theta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(truth: &Pose2, pts: &[(f64, f64)]) -> Vec<Correspondence> {
        pts.iter()
            .map(|&(x, y)| {
                let v = Point2::new(x, y);
                Correspondence { vehicle: v, world: truth.transform(v) }
            })
            .collect()
    }

    #[test]
    fn exact_recovery() {
        let truth = Pose2::new(10.0, -4.0, 1.2);
        let corrs = make(&truth, &[(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (3.0, 2.0)]);
        let est = estimate_pose(&corrs, 3).unwrap();
        assert!(est.pose.distance(&truth) < 1e-9);
        assert!(est.pose.heading_error(&truth) < 1e-9);
        assert_eq!(est.inliers, 4);
        assert!(est.mean_residual < 1e-9);
    }

    #[test]
    fn outliers_are_rejected() {
        let truth = Pose2::new(2.0, 3.0, -0.6);
        let mut corrs = make(
            &truth,
            &[(1.0, 1.0), (4.0, -2.0), (-3.0, 2.0), (0.0, 5.0), (6.0, 0.0), (2.0, -4.0)],
        );
        // Several wildly wrong associations.
        for k in 0..3 {
            corrs.push(Correspondence {
                vehicle: Point2::new(k as f64, 0.0),
                world: Point2::new(500.0 + k as f64 * 7.0, 500.0 - k as f64 * 13.0),
            });
        }
        let est = estimate_pose(&corrs, 4).unwrap();
        assert!(est.pose.distance(&truth) < 1e-6, "pose {:?}", est.pose);
        assert_eq!(est.inliers, 6);
    }

    #[test]
    fn noise_is_averaged_out() {
        let truth = Pose2::new(-1.0, 7.0, 0.3);
        let mut corrs = make(
            &truth,
            &[(1.0, 2.0), (-2.0, 4.0), (5.0, -1.0), (3.0, 3.0), (-4.0, -2.0), (0.0, 6.0)],
        );
        for (i, c) in corrs.iter_mut().enumerate() {
            let n = if i % 2 == 0 { 0.05 } else { -0.05 };
            c.world = c.world + Point2::new(n, -n);
        }
        let est = estimate_pose(&corrs, 4).unwrap();
        assert!(est.pose.distance(&truth) < 0.1);
        assert!(est.mean_residual < 0.1);
    }

    #[test]
    fn too_few_correspondences_fail() {
        let truth = Pose2::identity();
        let corrs = make(&truth, &[(1.0, 0.0)]);
        assert!(estimate_pose(&corrs, 2).is_none());
        assert!(estimate_pose(&[], 1).is_none());
    }

    #[test]
    fn min_inliers_is_enforced() {
        let truth = Pose2::new(0.0, 0.0, 0.0);
        let mut corrs = make(&truth, &[(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]);
        corrs.push(Correspondence {
            vehicle: Point2::new(2.0, 2.0),
            world: Point2::new(99.0, 99.0),
        });
        // Only 3 correspondences are consistent, so 4 must fail.
        assert!(estimate_pose(&corrs, 4).is_none());
        let est = estimate_pose(&corrs, 3).unwrap();
        assert_eq!(est.inliers, 3);
        assert!(est.pose.distance(&truth) < 1e-9);
    }

    #[test]
    fn coincident_points_fall_back_to_translation() {
        let corrs = vec![
            Correspondence { vehicle: Point2::new(0.0, 0.0), world: Point2::new(5.0, 5.0) },
            Correspondence { vehicle: Point2::new(0.0, 0.0), world: Point2::new(5.0, 5.0) },
        ];
        let est = estimate_pose(&corrs, 2).unwrap();
        assert!((est.pose.x - 5.0).abs() < 1e-9);
        assert_eq!(est.pose.theta, 0.0);
    }

    #[test]
    fn parallel_scoring_is_bit_identical_across_thread_counts() {
        // A solve large enough to exceed the for_work threshold and
        // hit MAX_HYPOTHESES, with outliers so the argmax has real
        // competition between consensus sets.
        let truth = Pose2::new(7.5, -3.25, 0.625);
        let mut corrs = Vec::new();
        for k in 0..40u32 {
            let k = k as f64;
            let v = Point2::new((k * 0.7).sin() * 9.0, (k * 1.3).cos() * 9.0);
            corrs.push(Correspondence { vehicle: v, world: truth.transform(v) });
        }
        for k in 0..24u32 {
            let k = k as f64;
            corrs.push(Correspondence {
                vehicle: Point2::new(k * 0.9 - 10.0, k * 0.4),
                world: Point2::new(200.0 + (k * 37.0) % 29.0, -150.0 - (k * 53.0) % 31.0),
            });
        }
        let serial = estimate_pose(&corrs, 8).unwrap();
        for threads in [1usize, 2, 8] {
            let par = estimate_pose_with(&Runtime::new(threads), &corrs, 8).unwrap();
            assert_eq!(par.pose.x.to_bits(), serial.pose.x.to_bits(), "threads={threads}");
            assert_eq!(par.pose.y.to_bits(), serial.pose.y.to_bits(), "threads={threads}");
            assert_eq!(
                par.pose.theta.to_bits(),
                serial.pose.theta.to_bits(),
                "threads={threads}"
            );
            assert_eq!(par.inliers, serial.inliers, "threads={threads}");
            assert_eq!(
                par.mean_residual.to_bits(),
                serial.mean_residual.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn majority_outliers_still_recoverable() {
        // 5 inliers, 7 consistent-looking outliers scattered randomly.
        let truth = Pose2::new(4.0, -1.0, 0.8);
        let mut corrs = make(
            &truth,
            &[(0.0, 0.0), (3.0, 1.0), (-2.0, 2.0), (1.0, -3.0), (4.0, 4.0)],
        );
        for k in 0..7u32 {
            let k = k as f64;
            corrs.push(Correspondence {
                vehicle: Point2::new(k * 1.3 - 4.0, k * 0.7),
                world: Point2::new(100.0 + 31.0 * k % 17.0, -50.0 + 23.0 * k % 13.0),
            });
        }
        let est = estimate_pose(&corrs, 5).unwrap();
        assert!(est.pose.distance(&truth) < 1e-6);
        assert_eq!(est.inliers, 5);
    }
}
