//! Free-space motion planning: A* over a state lattice of motion
//! primitives, the approach the paper's motion planner uses "when the
//! vehicle is in a large opening area like parking lot or rural area"
//! (§3.1.5, citing Pivtoraiko et al.).
//!
//! The search expands nodes in fixed-size batches: each round pops up
//! to [`BATCH`] entries from the frontier serially, evaluates their
//! successor primitives and collision tests in parallel (each item
//! writes its own slot), then merges results back into the frontier
//! serially in batch-index order. Because the batch size is a
//! constant — never derived from the worker count — and the merge
//! order is fixed, the planner visits an identical node sequence and
//! returns a bit-identical path on every thread count (pinned by
//! `tests/parallel_parity.rs`).

use adsim_runtime::Runtime;
use adsim_vision::{geometry::normalize_angle, Point2, Pose2};
use std::collections::{BinaryHeap, HashMap};

/// Nodes expanded per parallel round. Fixed — independent of the
/// runtime's thread count — so the visited-node sequence (and thus
/// the returned path) does not depend on available parallelism.
const BATCH: usize = 8;

/// A disc obstacle on the ground plane (a fused object plus a safety
/// margin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Center (m).
    pub center: Point2,
    /// Radius including safety margin (m).
    pub radius: f64,
}

impl Obstacle {
    /// Creates an obstacle.
    pub fn new(center: Point2, radius: f64) -> Self {
        Self { center, radius }
    }
}

/// Grid cell size (m).
const CELL_M: f64 = 1.0;
/// Number of discrete headings (evenly spaced).
const HEADINGS: usize = 16;
/// Arc length of one motion primitive (m).
const STEP_M: f64 = 2.0;
/// Distance to the goal that counts as arrival (m).
const GOAL_TOLERANCE_M: f64 = 1.5;

/// A planned path through free space.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Poses along the path, start first.
    pub poses: Vec<Pose2>,
    /// Total arc length (m).
    pub length_m: f64,
    /// Nodes expanded by the search (the planner's work metric).
    pub expansions: usize,
}

/// State-lattice A* planner.
///
/// States are `(x, y, heading)` quantized to the lattice; motion
/// primitives are straight / left-arc / right-arc steps of
/// `STEP_M` (2 m) that respect the heading quantization, so every edge
/// is kinematically drivable at bounded curvature.
#[derive(Debug, Clone)]
pub struct LatticePlanner {
    /// Maximum nodes expanded before giving up.
    max_expansions: usize,
}

impl Default for LatticePlanner {
    fn default() -> Self {
        Self::new(20_000)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeKey {
    gx: i64,
    gy: i64,
    heading: usize,
}

#[derive(Debug, Clone, Copy)]
struct OpenEntry {
    f: f64,
    /// Cost-to-come at push time; an entry whose `g` exceeds the
    /// node's current best is stale (lazy deletion).
    g: f64,
    key: NodeKey,
}

impl PartialEq for OpenEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for OpenEntry {}
impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on f.
        other.f.partial_cmp(&self.f).expect("costs are finite")
    }
}

impl LatticePlanner {
    /// Creates a planner that gives up after `max_expansions` node
    /// expansions.
    pub fn new(max_expansions: usize) -> Self {
        Self { max_expansions }
    }

    /// Plans from `start` to within the goal tolerance of `goal`,
    /// avoiding all `obstacles`. Returns `None` when no path exists
    /// within the expansion budget. Runs the search serially; see
    /// [`LatticePlanner::plan_with`] for the parallel entry point.
    pub fn plan(&self, start: Pose2, goal: Point2, obstacles: &[Obstacle]) -> Option<Path> {
        self.plan_with(&Runtime::serial(), start, goal, obstacles)
    }

    /// [`LatticePlanner::plan`] with successor evaluation on `runtime`
    /// workers. The result is bit-identical to the serial search on
    /// any thread count: the frontier is popped and merged serially in
    /// a fixed order; only the pure per-node work (primitive
    /// generation, collision tests) fans out.
    pub fn plan_with(
        &self,
        runtime: &Runtime,
        start: Pose2,
        goal: Point2,
        obstacles: &[Obstacle],
    ) -> Option<Path> {
        if self.hits_obstacle(start.translation(), obstacles) {
            return None;
        }
        let start_key = self.key_of(&start);
        let mut open = BinaryHeap::new();
        let mut best_g: HashMap<NodeKey, f64> = HashMap::new();
        let mut parent: HashMap<NodeKey, (NodeKey, Pose2)> = HashMap::new();
        let mut poses: HashMap<NodeKey, Pose2> = HashMap::new();

        poses.insert(start_key, start);
        best_g.insert(start_key, 0.0);
        open.push(OpenEntry { f: start.translation().distance(&goal), g: 0.0, key: start_key });

        // Round scratch, reused: each batch item expands into its own
        // slot (three primitives, `None` where blocked).
        let mut batch: Vec<(NodeKey, Pose2, f64)> = Vec::with_capacity(BATCH);
        let mut slots: Vec<[Option<Pose2>; 3]> = vec![[None; 3]; BATCH];
        // Per-item op estimate for the parallel gate: three successor
        // poses (trig) plus two disc tests per successor per obstacle.
        let work_per_item = 3 * (30 + 16 * obstacles.len());

        let mut expansions = 0;
        loop {
            // Serial phase: pop up to BATCH live entries in heap order.
            batch.clear();
            while batch.len() < BATCH {
                let Some(OpenEntry { g, key, .. }) = open.pop() else { break };
                // Lazy deletion: a cheaper path to `key` was merged
                // after this entry was pushed.
                if best_g.get(&key).is_none_or(|&best| g > best) {
                    continue;
                }
                if batch.iter().any(|(k, _, _)| *k == key) {
                    continue;
                }
                batch.push((key, poses[&key], g));
            }
            if batch.is_empty() {
                return None;
            }
            // Goal test at pop time, first in heap order — as in the
            // serial formulation.
            for &(key, pose, g) in &batch {
                if pose.translation().distance(&goal) <= GOAL_TOLERANCE_M {
                    return Some(self.reconstruct(key, &parent, &poses, g, expansions));
                }
            }
            expansions += batch.len();
            if expansions > self.max_expansions {
                return None;
            }
            // Parallel phase: successor generation and collision
            // checks are pure; every item writes only its own slot.
            let n = batch.len();
            let batch_ref = &batch;
            runtime.for_work(n * work_per_item).par_chunks_mut(
                &mut slots[..n],
                1,
                |i, slot| {
                    let (_, pose, _) = batch_ref[i];
                    let mut out = [None; 3];
                    for (j, next) in self.successors(&pose).into_iter().enumerate() {
                        let free = !self.hits_obstacle(next.translation(), obstacles)
                            && !self.segment_blocked(&pose, &next, obstacles);
                        if free {
                            out[j] = Some(next);
                        }
                    }
                    slot[0] = out;
                },
            );
            // Serial merge in batch-index then primitive order; strict
            // `<` keeps the first writer on ties, so the heap sees one
            // fixed push sequence regardless of thread count.
            for (i, &(key, _, g)) in batch.iter().enumerate() {
                for next in slots[i].into_iter().flatten() {
                    let nk = self.key_of(&next);
                    let ng = g + STEP_M;
                    if best_g.get(&nk).is_none_or(|&old| ng < old) {
                        best_g.insert(nk, ng);
                        poses.insert(nk, next);
                        parent.insert(nk, (key, next));
                        open.push(OpenEntry {
                            f: ng + next.translation().distance(&goal),
                            g: ng,
                            key: nk,
                        });
                    }
                }
            }
        }
    }

    /// The three motion primitives from a pose: straight, arc-left and
    /// arc-right by one heading increment.
    fn successors(&self, pose: &Pose2) -> [Pose2; 3] {
        let dtheta = 2.0 * std::f64::consts::PI / HEADINGS as f64;
        let step = STEP_M;
        let go = |turn: f64| {
            let theta = normalize_angle(pose.theta + turn);
            // Advance along the average heading for arc-like motion.
            let mid = pose.theta + turn / 2.0;
            Pose2::new(pose.x + step * mid.cos(), pose.y + step * mid.sin(), theta)
        };
        [go(0.0), go(dtheta), go(-dtheta)]
    }

    fn key_of(&self, pose: &Pose2) -> NodeKey {
        let h = (normalize_angle(pose.theta) + std::f64::consts::PI)
            / (2.0 * std::f64::consts::PI)
            * HEADINGS as f64;
        NodeKey {
            gx: (pose.x / CELL_M).round() as i64,
            gy: (pose.y / CELL_M).round() as i64,
            heading: (h.round() as usize) % HEADINGS,
        }
    }

    fn hits_obstacle(&self, p: Point2, obstacles: &[Obstacle]) -> bool {
        obstacles.iter().any(|o| o.center.distance(&p) <= o.radius)
    }

    /// Checks the midpoint of a primitive as a cheap swept-collision
    /// test (primitives are short relative to obstacle radii).
    fn segment_blocked(&self, a: &Pose2, b: &Pose2, obstacles: &[Obstacle]) -> bool {
        let mid = Point2::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
        self.hits_obstacle(mid, obstacles)
    }

    fn reconstruct(
        &self,
        mut key: NodeKey,
        parent: &HashMap<NodeKey, (NodeKey, Pose2)>,
        poses: &HashMap<NodeKey, Pose2>,
        length: f64,
        expansions: usize,
    ) -> Path {
        let mut out = vec![poses[&key]];
        while let Some(&(prev, _)) = parent.get(&key) {
            out.push(poses[&prev]);
            key = prev;
        }
        out.reverse();
        Path { poses: out, length_m: length, expansions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_in_open_space() {
        let p = LatticePlanner::default();
        let path = p.plan(Pose2::identity(), Point2::new(20.0, 0.0), &[]).unwrap();
        assert!(path.length_m >= 18.0 && path.length_m <= 24.0, "{}", path.length_m);
        // Path ends near the goal.
        let end = path.poses.last().unwrap();
        assert!(end.translation().distance(&Point2::new(20.0, 0.0)) <= 1.5);
    }

    #[test]
    fn avoids_a_wall_of_obstacles() {
        let p = LatticePlanner::default();
        // A wall at x = 10 with a gap at y = 12.
        let mut obstacles = Vec::new();
        for i in -10..10 {
            if (9..12).contains(&i) {
                continue;
            }
            obstacles.push(Obstacle::new(Point2::new(10.0, i as f64), 1.2));
        }
        let goal = Point2::new(20.0, 0.0);
        let path = p.plan(Pose2::identity(), goal, &obstacles).unwrap();
        // Must detour: longer than the straight-line distance.
        assert!(path.length_m > 24.0, "detour length {}", path.length_m);
        // And never touch an obstacle.
        for pose in &path.poses {
            for o in &obstacles {
                assert!(o.center.distance(&pose.translation()) > o.radius);
            }
        }
    }

    #[test]
    fn enclosed_goal_is_unreachable() {
        let p = LatticePlanner::new(5_000);
        let goal = Point2::new(15.0, 0.0);
        // Ring of obstacles around the goal.
        let obstacles: Vec<Obstacle> = (0..24)
            .map(|i| {
                let a = i as f64 / 24.0 * std::f64::consts::TAU;
                Obstacle::new(Point2::new(15.0 + 5.0 * a.cos(), 5.0 * a.sin()), 1.5)
            })
            .collect();
        assert!(p.plan(Pose2::identity(), goal, &obstacles).is_none());
    }

    #[test]
    fn start_inside_obstacle_fails_fast() {
        let p = LatticePlanner::default();
        let obstacles = [Obstacle::new(Point2::new(0.0, 0.0), 2.0)];
        assert!(p.plan(Pose2::identity(), Point2::new(10.0, 0.0), &obstacles).is_none());
    }

    #[test]
    fn paths_are_kinematically_smooth() {
        let p = LatticePlanner::default();
        let path = p.plan(Pose2::identity(), Point2::new(10.0, 10.0), &[]).unwrap();
        let dtheta_max = 2.0 * std::f64::consts::PI / 16.0 + 1e-9;
        for pair in path.poses.windows(2) {
            let turn = normalize_angle(pair[1].theta - pair[0].theta).abs();
            assert!(turn <= dtheta_max, "turn {turn} exceeds one heading increment");
        }
    }

    #[test]
    fn goal_behind_requires_turning_around() {
        let p = LatticePlanner::default();
        let goal = Point2::new(-10.0, 0.0);
        let path = p.plan(Pose2::identity(), goal, &[]).unwrap();
        // Forward-only primitives: must loop around, well over 10 m.
        assert!(path.length_m > 15.0, "{}", path.length_m);
    }
}
