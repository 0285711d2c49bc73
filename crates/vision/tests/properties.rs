//! Property tests of camera geometry, rigid transforms and
//! descriptors, run on seeded [`cases`](adsim_stats::rng::cases).

use adsim_stats::rng::cases;
use adsim_stats::Rng64;
use adsim_vision::geometry::normalize_angle;
use adsim_vision::{Descriptor, GrayImage, OrthoCamera, Point2, Pose2};

fn pose(rng: &mut Rng64, xy: f64, theta: f64) -> Pose2 {
    Pose2::new(rng.range_f64(-xy, xy), rng.range_f64(-xy, xy), rng.range_f64(-theta, theta))
}

fn point(rng: &mut Rng64) -> Point2 {
    Point2::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0))
}

fn descriptor(rng: &mut Rng64) -> Descriptor {
    Descriptor::new(std::array::from_fn(|_| rng.next_u64() as u8))
}

#[test]
fn camera_world_image_round_trip() {
    cases(64, |rng| {
        let p = pose(rng, 200.0, 7.0);
        let (wx, wy) = (rng.range_f64(-50.0, 50.0), rng.range_f64(-50.0, 50.0));
        let cam = OrthoCamera::new(320, 240, 0.25);
        let world = Point2::new(p.x + wx, p.y + wy);
        let (u, v) = cam.world_to_image(&p, world);
        let back = cam.image_to_world(&p, u, v);
        assert!((back.x - world.x).abs() < 1e-9);
        assert!((back.y - world.y).abs() < 1e-9);
    });
}

#[test]
fn vehicle_frame_distances_preserved() {
    cases(64, |rng| {
        let p = pose(rng, 200.0, 7.0);
        let (ax, ay) = (rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0));
        let cam = OrthoCamera::new(320, 240, 0.25);
        // Pixel distance x GSD equals world distance for an ortho camera.
        let a = Point2::new(p.x, p.y);
        let b = Point2::new(p.x + ax, p.y + ay);
        let (ua, va) = cam.world_to_image(&p, a);
        let (ub, vb) = cam.world_to_image(&p, b);
        let px = ((ua - ub).powi(2) + (va - vb).powi(2)).sqrt();
        assert!((px * 0.25 - a.distance(&b)).abs() < 1e-9);
    });
}

#[test]
fn crop_is_translation_of_clamped_reads() {
    let img = GrayImage::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 251) as u8);
    cases(64, |rng| {
        let (ox, oy) = (rng.range_usize(0, 45) as isize - 5, rng.range_usize(0, 45) as isize - 5);
        let (w, h) = (rng.range_usize(1, 12), rng.range_usize(1, 12));
        let c = img.crop(ox, oy, w, h);
        for cy in 0..h {
            for cx in 0..w {
                assert_eq!(c.get(cx, cy), img.get_clamped(ox + cx as isize, oy + cy as isize));
            }
        }
    });
}

#[test]
fn downsample_output_within_input_range() {
    cases(64, |rng| {
        let seed = rng.range_usize(0, 500) as u64;
        let img = GrayImage::from_fn(16, 16, |x, y| {
            (seed.wrapping_mul(31).wrapping_add((x * 17 + y * 29) as u64) % 256) as u8
        });
        let d = img.downsample();
        let lo = *img.as_slice().iter().min().unwrap();
        let hi = *img.as_slice().iter().max().unwrap();
        assert!(d.as_slice().iter().all(|&p| p >= lo && p <= hi));
    });
}

#[test]
fn pose_transform_round_trips() {
    cases(64, |rng| {
        let (p, q) = (pose(rng, 100.0, 10.0), point(rng));
        let r = p.inverse_transform(p.transform(q));
        assert!((r.x - q.x).abs() < 1e-6 && (r.y - q.y).abs() < 1e-6);
    });
}

#[test]
fn pose_inverse_composes_to_identity() {
    cases(64, |rng| {
        let p = pose(rng, 100.0, 10.0);
        let id = p.compose(&p.inverse());
        assert!(id.x.abs() < 1e-6 && id.y.abs() < 1e-6 && id.theta.abs() < 1e-6, "{id:?}");
    });
}

#[test]
fn pose_transform_preserves_distance() {
    cases(64, |rng| {
        let (p, a, b) = (pose(rng, 100.0, 10.0), point(rng), point(rng));
        let d0 = a.distance(&b);
        let d1 = p.transform(a).distance(&p.transform(b));
        assert!((d0 - d1).abs() < 1e-6, "rigid transforms are isometries");
    });
}

#[test]
fn normalized_angles_stay_in_range() {
    cases(64, |rng| {
        let t = rng.range_f64(-100.0, 100.0);
        let n = normalize_angle(t);
        assert!(n > -std::f64::consts::PI - 1e-12 && n <= std::f64::consts::PI + 1e-12);
        // Same direction: sin/cos agree.
        assert!((n.sin() - t.sin()).abs() < 1e-6);
        assert!((n.cos() - t.cos()).abs() < 1e-6);
    });
}

#[test]
fn hamming_is_a_metric() {
    cases(64, |rng| {
        let (da, db, dc) = (descriptor(rng), descriptor(rng), descriptor(rng));
        assert_eq!(da.hamming(&db), db.hamming(&da));
        assert_eq!(da.hamming(&da), 0);
        assert!(da.hamming(&dc) <= da.hamming(&db) + db.hamming(&dc), "triangle inequality");
    });
}
