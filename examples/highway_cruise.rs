//! Highway cruise: closed-loop planning and control. The conformal
//! lattice plans around a slower lead vehicle while the pure-pursuit /
//! PID controller drives a kinematic bicycle along the selected
//! trajectory — steps 3 and 5 of the paper's Fig. 1.
//!
//! ```sh
//! cargo run --release --example highway_cruise
//! ```

use adsim::planning::{Centerline, ConformalPlanner, RoadObstacle};
use adsim::vehicle::{BicycleState, VehicleController};
use adsim::vision::{Point2, Pose2};

fn main() {
    let road = Centerline::straight(2_000.0);
    let planner = ConformalPlanner;
    let mut controller = VehicleController::new();

    // Ego starts at 28 m/s; a lead vehicle 60 m ahead drives 18 m/s in
    // the same lane.
    let mut ego = BicycleState { pose: Pose2::new(0.0, 0.0, 0.0), speed_mps: 28.0 };
    let lead_speed = 18.0;
    let lead_start = 60.0;
    let dt = 0.1;

    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "t (s)", "ego x (m)", "ego y (m)", "gap (m)", "target lane", "speed"
    );
    let mut lane_changes = 0;
    let mut last_lane = 0.0;
    let mut min_gap: f64 = f64::INFINITY;
    for step in 0..400 {
        let t = step as f64 * dt;
        let lead_x = lead_start + lead_speed * t;
        let obstacle = RoadObstacle {
            station: lead_x,
            lateral: 0.0,
            velocity_mps: lead_speed,
            // Car half-width plus a safety margin.
            radius: 2.0,
        };
        let plan = planner.plan(&road, ego.pose.x, ego.pose.y, 28.0, &[obstacle]);
        let (waypoint, speed) = match &plan {
            Some(t) => {
                if t.target_lateral != last_lane {
                    lane_changes += 1;
                    last_lane = t.target_lateral;
                }
                // Steer toward the second sample of the trajectory.
                let wp = t
                    .poses
                    .get(1)
                    .or_else(|| t.poses.first())
                    .map(|p| p.translation())
                    .unwrap_or(Point2::new(ego.pose.x + 10.0, t.target_lateral));
                (wp, t.speed_mps)
            }
            // Every lane blocked: brake hard in the current lane.
            None => (Point2::new(ego.pose.x + 10.0, ego.pose.y), 0.0),
        };
        ego = controller.drive_step(&ego, waypoint, speed, dt);
        let gap = ((lead_x - ego.pose.x).powi(2) + ego.pose.y.powi(2)).sqrt();
        min_gap = min_gap.min(gap);
        if step % 40 == 0 {
            let lane = plan.as_ref().map_or(f64::NAN, |p| p.target_lateral);
            println!(
                "{:>6.1} {:>10.1} {:>10.2} {:>10.1} {:>11.2}m {:>7.1}",
                t, ego.pose.x, ego.pose.y, gap, lane, ego.speed_mps
            );
        }
    }
    println!("\nLane changes: {lane_changes}; minimum gap to lead vehicle: {min_gap:.1} m");
    assert!(min_gap > 2.0, "controller must never hit the lead vehicle");
    println!("Overtake completed without violating clearance.");
}
