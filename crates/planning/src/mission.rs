//! Mission planning: rule-based routing over a road network
//! (§3.1.6). The mission planner computes the route once — following
//! navigation output like Google Maps — and is re-invoked only when
//! the vehicle deviates from the planned route.

use adsim_vision::{Point2, Pose2};
use std::collections::{BinaryHeap, HashMap};

/// A directed road segment between two intersections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RoadEdge {
    /// Destination node.
    pub to: usize,
    /// Segment length (m).
    pub length_m: f64,
    /// Speed limit (m/s) — the traffic rule the rule-based policy
    /// enforces along this segment.
    pub speed_limit_mps: f64,
}

/// A road network: intersection positions plus directed edges.
#[derive(Debug, Clone, Default)]
pub struct RoadGraph {
    nodes: Vec<Point2>,
    edges: Vec<Vec<RoadEdge>>,
}

impl RoadGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection, returning its id.
    pub fn add_node(&mut self, position: Point2) -> usize {
        self.nodes.push(position);
        self.edges.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a bidirectional road between two intersections.
    ///
    /// # Panics
    ///
    /// Panics if either node id is unknown or the speed limit is not
    /// positive.
    pub fn add_road(&mut self, a: usize, b: usize, speed_limit_mps: f64) {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        assert!(speed_limit_mps > 0.0, "speed limit must be positive");
        let length_m = self.nodes[a].distance(&self.nodes[b]);
        self.edges[a].push(RoadEdge { to: b, length_m, speed_limit_mps });
        self.edges[b].push(RoadEdge { to: a, length_m, speed_limit_mps });
    }

    /// Number of intersections.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub(crate) fn position(&self, node: usize) -> Point2 {
        self.nodes[node]
    }

    /// Fastest route (by travel time under speed limits) between two
    /// intersections, or `None` if disconnected.
    pub(crate) fn route(&self, from: usize, to: usize) -> Option<Route> {
        #[derive(PartialEq)]
        struct Entry(f64, usize);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.partial_cmp(&self.0).expect("times are finite")
            }
        }

        let mut dist: HashMap<usize, f64> = HashMap::new();
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(from, 0.0);
        heap.push(Entry(0.0, from));
        while let Some(Entry(d, node)) = heap.pop() {
            if node == to {
                break;
            }
            if d > dist.get(&node).copied().unwrap_or(f64::INFINITY) {
                continue;
            }
            for e in &self.edges[node] {
                let nd = d + e.length_m / e.speed_limit_mps;
                if nd < dist.get(&e.to).copied().unwrap_or(f64::INFINITY) {
                    dist.insert(e.to, nd);
                    prev.insert(e.to, node);
                    heap.push(Entry(nd, e.to));
                }
            }
        }
        if !dist.contains_key(&to) {
            return None;
        }
        let mut nodes = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[&cur];
            nodes.push(cur);
        }
        nodes.reverse();
        let length_m = nodes
            .windows(2)
            .map(|w| self.nodes[w[0]].distance(&self.nodes[w[1]]))
            .sum();
        Some(Route { nodes, travel_time_s: dist[&to], length_m })
    }
}

/// A planned route through the road graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Intersections visited, origin first.
    pub nodes: Vec<usize>,
    /// Expected travel time at the speed limits (s).
    pub travel_time_s: f64,
    /// Total length (m).
    pub length_m: f64,
}

/// The mission planner: holds the active route and replans only on
/// deviation, matching the paper's "executed once unless the vehicle
/// deviates from planned routes".
#[derive(Debug, Clone)]
pub struct MissionPlanner {
    graph: RoadGraph,
    destination: usize,
    route: Option<Route>,
    /// How far from the route counts as a deviation (m).
    deviation_tolerance_m: f64,
    replans: u64,
}

impl MissionPlanner {
    /// Creates a planner and computes the initial route.
    pub fn new(graph: RoadGraph, origin: usize, destination: usize) -> Self {
        let route = graph.route(origin, destination);
        Self { graph, destination, route, deviation_tolerance_m: 20.0, replans: 0 }
    }

    /// The active route.
    pub fn route(&self) -> Option<&Route> {
        self.route.as_ref()
    }

    /// Times the mission planner has replanned due to deviation.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Checks the pose against the active route and replans from the
    /// nearest intersection when the vehicle has deviated. Returns
    /// whether a replan happened (mission planning work was done).
    pub fn check(&mut self, pose: &Pose2) -> bool {
        let Some(route) = &self.route else { return false };
        let p = pose.translation();
        // Distance to the closest route segment.
        let mut near = f64::INFINITY;
        for w in route.nodes.windows(2) {
            near = near.min(segment_distance(
                p,
                self.graph.position(w[0]),
                self.graph.position(w[1]),
            ));
        }
        if route.nodes.len() == 1 {
            near = p.distance(&self.graph.position(route.nodes[0]));
        }
        if near <= self.deviation_tolerance_m {
            return false;
        }
        // Deviated: replan from the nearest intersection.
        let nearest = (0..self.graph.len())
            .min_by(|&a, &b| {
                let da = p.distance(&self.graph.position(a));
                let db = p.distance(&self.graph.position(b));
                da.partial_cmp(&db).expect("distances are finite")
            })
            .expect("graph is nonempty if a route exists");
        self.route = self.graph.route(nearest, self.destination);
        self.replans += 1;
        true
    }
}

fn segment_distance(p: Point2, a: Point2, b: Point2) -> f64 {
    let ab = b - a;
    let len2 = ab.x * ab.x + ab.y * ab.y;
    if len2 == 0.0 {
        return p.distance(&a);
    }
    let t = (((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / len2).clamp(0.0, 1.0);
    p.distance(&(a + ab * t))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3x3 grid of intersections, 100 m apart, with a fast diagonal
    /// detour road.
    fn grid() -> RoadGraph {
        let mut g = RoadGraph::new();
        for y in 0..3 {
            for x in 0..3 {
                g.add_node(Point2::new(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let id = y * 3 + x;
                if x < 2 {
                    g.add_road(id, id + 1, 13.0);
                }
                if y < 2 {
                    g.add_road(id, id + 3, 13.0);
                }
            }
        }
        g
    }

    #[test]
    fn route_connects_endpoints() {
        let g = grid();
        let r = g.route(0, 8).unwrap();
        assert_eq!(*r.nodes.first().unwrap(), 0);
        assert_eq!(*r.nodes.last().unwrap(), 8);
        assert_eq!(r.length_m, 400.0, "manhattan distance on the grid");
    }

    #[test]
    fn faster_roads_win_over_shorter_ones() {
        let mut g = grid();
        // A highway bypass 0 -> 8 via a new node, longer but faster.
        let hub = g.add_node(Point2::new(150.0, -100.0));
        g.add_road(0, hub, 40.0);
        g.add_road(hub, 8, 40.0);
        let r = g.route(0, 8).unwrap();
        assert!(r.nodes.contains(&hub), "bypass is faster: {:?}", r.nodes);
        assert!(r.length_m > 400.0, "but longer in distance");
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut g = grid();
        let island = g.add_node(Point2::new(1000.0, 1000.0));
        assert!(g.route(0, island).is_none());
    }

    #[test]
    fn on_route_pose_does_not_replan() {
        let mut m = MissionPlanner::new(grid(), 0, 8);
        // On the first segment.
        assert!(!m.check(&Pose2::new(50.0, 2.0, 0.0)));
        assert_eq!(m.replans(), 0);
    }

    #[test]
    fn deviation_triggers_replan_to_destination() {
        let mut m = MissionPlanner::new(grid(), 0, 8);
        let before = m.route().unwrap().clone();
        // 50 m from every grid road (roads run along the 0/100/200
        // grid lines).
        assert!(m.check(&Pose2::new(250.0, 50.0, 0.0)));
        assert_eq!(m.replans(), 1);
        let after = m.route().unwrap();
        assert_eq!(*after.nodes.last().unwrap(), 8, "destination unchanged");
        assert_ne!(before.nodes, after.nodes, "route recomputed from new position");
    }

    #[test]
    fn route_to_self_is_trivial() {
        let g = grid();
        let r = g.route(4, 4).unwrap();
        assert_eq!(r.nodes, vec![4]);
        assert_eq!(r.length_m, 0.0);
    }
}
