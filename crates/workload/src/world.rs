use adsim_dnn::detection::{BBox, ObjectClass};
use adsim_stats::Rng64;
use adsim_vision::{GrayImage, OrthoCamera, Point2, Pose2};

/// A static localization landmark: a uniquely textured ground patch
/// (lane markings, manhole covers, curb paint — anything with stable
/// appearance a prior map would store).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beacon {
    /// World position of the patch center (m).
    pub position: Point2,
    /// Texture seed; every beacon looks different.
    pub seed: u64,
}

/// Physical beacon extent in meters (square).
pub(crate) const BEACON_SIZE_M: f64 = 7.0;

/// A scripted moving object of one of the paper's four classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingObject {
    /// Stable identity (ground truth for tracking metrics).
    pub id: u64,
    /// Object class.
    pub class: ObjectClass,
    /// World position at time 0 (m).
    pub start: Point2,
    /// Constant world velocity (m/s).
    pub velocity: Point2,
    /// Extent across the direction of travel (m).
    pub width_m: f64,
    /// Extent along the direction of travel (m).
    pub length_m: f64,
    /// Texture seed.
    pub seed: u64,
}

impl MovingObject {
    /// World position at `time_s` seconds.
    pub fn position_at(&self, time_s: f64) -> Point2 {
        self.start + self.velocity * time_s
    }

    /// Base rendering intensity encoding the class; each class lives in
    /// a distinct band so the classical detector can classify and the
    /// ground-truth generator stays consistent with rendering.
    pub(crate) fn base_intensity(&self) -> u8 {
        class_intensity(self.class)
    }
}

/// Center of the rendering intensity band for a class (canonical
/// definition lives on [`ObjectClass::render_intensity`]).
pub(crate) fn class_intensity(class: ObjectClass) -> u8 {
    class.render_intensity()
}

/// Ground-truth annotation for one visible object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthObject {
    /// The scripted object's identity.
    pub id: u64,
    /// Its class.
    pub class: ObjectClass,
    /// Its bounding box in normalized image coordinates.
    pub bbox: BBox,
}

/// World-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorldParams {
    /// Half-extent of the square world (m).
    pub extent_m: f64,
    /// Beacon grid spacing (m).
    pub beacon_spacing_m: f64,
    /// Number of moving objects.
    pub n_objects: usize,
    /// Object speed (m/s).
    pub object_speed_mps: f64,
}

impl Default for WorldParams {
    fn default() -> Self {
        Self { extent_m: 250.0, beacon_spacing_m: 14.0, n_objects: 12, object_speed_mps: 4.0 }
    }
}

/// Rendering conditions: photometric perturbations that model weather
/// and illumination changes (the paper's map-update step exists
/// because "the map is built under different weather conditions",
/// §3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conditions {
    /// Uniform brightness offset added to every pixel.
    pub brightness: i16,
    /// Per-pixel noise amplitude (uniform in `±noise`).
    pub noise: u8,
    /// Noise seed; change per frame for temporal noise.
    pub seed: u64,
}

impl Conditions {
    /// Clear daylight: no perturbation.
    pub fn clear() -> Self {
        Self { brightness: 0, noise: 0, seed: 0 }
    }

    /// Mild sensor noise and a small exposure shift.
    pub fn overcast(seed: u64) -> Self {
        Self { brightness: -15, noise: 8, seed }
    }

    /// Heavy noise and strong under-exposure (night, heavy rain):
    /// enough to corrupt most binary-descriptor comparisons.
    pub fn severe(seed: u64) -> Self {
        Self { brightness: -70, noise: 90, seed }
    }

    fn apply(&self, img: &mut GrayImage) {
        if self.brightness == 0 && self.noise == 0 {
            return;
        }
        let w = img.width();
        for y in 0..img.height() {
            for x in 0..w {
                let mut v = img.get(x, y) as i16 + self.brightness;
                if self.noise > 0 {
                    let h = hash2(x as u64, y as u64, self.seed ^ 0xC0DD);
                    v += (h % (2 * self.noise as u64 + 1)) as i16 - self.noise as i16;
                }
                img.put(x as isize, y as isize, v.clamp(0, 255) as u8);
            }
        }
    }
}

impl Default for Conditions {
    fn default() -> Self {
        Self::clear()
    }
}

/// A synthetic driving world: landmark beacons plus scripted moving
/// objects, renderable from any vehicle pose at any resolution.
#[derive(Debug, Clone)]
pub struct World {
    beacons: Vec<Beacon>,
    objects: Vec<MovingObject>,
}

impl World {
    /// Generates a world deterministically from a seed.
    pub(crate) fn generate(seed: u64, params: &WorldParams) -> World {
        let mut rng = Rng64::new(seed);
        let mut beacons = Vec::new();
        let n = (2.0 * params.extent_m / params.beacon_spacing_m) as i64;
        let mut bseed = 0u64;
        for gx in -n / 2..=n / 2 {
            for gy in -n / 2..=n / 2 {
                let jx = rng.range_f64(-2.0, 2.0);
                let jy = rng.range_f64(-2.0, 2.0);
                beacons.push(Beacon {
                    position: Point2::new(
                        gx as f64 * params.beacon_spacing_m + jx,
                        gy as f64 * params.beacon_spacing_m + jy,
                    ),
                    seed: bseed,
                });
                bseed += 1;
            }
        }
        let mut objects = Vec::new();
        for id in 0..params.n_objects as u64 {
            let class = ObjectClass::ALL[rng.range_usize(0, ObjectClass::COUNT)];
            let (w, l) = match class {
                ObjectClass::Vehicle => (2.2, 4.5),
                ObjectClass::Bicycle => (1.0, 2.0),
                ObjectClass::TrafficSign => (1.2, 1.2),
                ObjectClass::Pedestrian => (0.9, 0.9),
            };
            let speed = if class == ObjectClass::TrafficSign {
                0.0
            } else {
                params.object_speed_mps * rng.range_f64(0.5, 1.5)
            };
            let along_x = rng.chance(0.5);
            let dir = if rng.chance(0.5) { 1.0 } else { -1.0 };
            objects.push(MovingObject {
                id,
                class,
                // Objects cluster along the road corridor (the ego
                // trajectories run near y = 0), so scenarios actually
                // encounter traffic.
                start: Point2::new(
                    rng.range_f64(-params.extent_m * 0.4, params.extent_m * 0.4),
                    rng.range_f64(
                        -30.0f64.min(params.extent_m * 0.3),
                        30.0f64.min(params.extent_m * 0.3),
                    ),
                ),
                velocity: if along_x {
                    Point2::new(speed * dir, 0.0)
                } else {
                    Point2::new(0.0, speed * dir)
                },
                width_m: w,
                length_m: l,
                seed: 0xB00 + id,
            });
        }
        World { beacons, objects }
    }

    /// The scripted objects.
    pub fn objects(&self) -> &[MovingObject] {
        &self.objects
    }

    /// Renders the camera view from `pose` at time `time_s` under
    /// clear conditions.
    pub fn render(&self, camera: &OrthoCamera, pose: &Pose2, time_s: f64) -> GrayImage {
        self.render_with(camera, pose, time_s, &Conditions::clear())
    }

    /// Renders under explicit photometric [`Conditions`].
    pub fn render_with(
        &self,
        camera: &OrthoCamera,
        pose: &Pose2,
        time_s: f64,
        conditions: &Conditions,
    ) -> GrayImage {
        let mut img = GrayImage::from_fn(camera.width(), camera.height(), |x, y| {
            // Static road texture: dim, deterministic, non-repeating
            // enough to look like asphalt but below FAST thresholds.
            let h = hash2(x as u64, y as u64, 0);
            25 + (h % 9) as u8
        });
        let radius = camera.view_radius();
        for b in &self.beacons {
            if b.position.distance(&pose.translation()) > radius + BEACON_SIZE_M {
                continue;
            }
            self.draw_world_square(
                &mut img,
                camera,
                pose,
                b.position,
                BEACON_SIZE_M,
                BEACON_SIZE_M,
                |wx, wy| {
                    // 1x1 m texture cells, hashed per beacon.
                    let cx = (wx - b.position.x + BEACON_SIZE_M / 2.0).floor() as u64;
                    let cy = (wy - b.position.y + BEACON_SIZE_M / 2.0).floor() as u64;
                    80 + (hash2(cx, cy, b.seed) % 176) as u8
                },
            );
        }
        for o in &self.objects {
            let p = o.position_at(time_s);
            if p.distance(&pose.translation()) > radius + o.length_m {
                continue;
            }
            let base = o.base_intensity();
            self.draw_world_square(&mut img, camera, pose, p, o.length_m, o.width_m, |wx, wy| {
                // Mild texture inside the class band (±10).
                let cx = ((wx - p.x) * 2.0).floor() as i64 as u64;
                let cy = ((wy - p.y) * 2.0).floor() as i64 as u64;
                let jitter = (hash2(cx, cy, o.seed) % 21) as i16 - 10;
                (base as i16 + jitter).clamp(0, 255) as u8
            });
        }
        conditions.apply(&mut img);
        img
    }

    /// Ground-truth boxes for objects visible from `pose` at `time_s`.
    pub(crate) fn truth_objects(
        &self,
        camera: &OrthoCamera,
        pose: &Pose2,
        time_s: f64,
    ) -> Vec<TruthObject> {
        let mut out = Vec::new();
        for o in &self.objects {
            let p = o.position_at(time_s);
            let (hx, hy) = (o.length_m / 2.0, o.width_m / 2.0);
            let corners = [
                Point2::new(p.x - hx, p.y - hy),
                Point2::new(p.x + hx, p.y - hy),
                Point2::new(p.x - hx, p.y + hy),
                Point2::new(p.x + hx, p.y + hy),
            ];
            let (mut u0, mut v0) = (f64::INFINITY, f64::INFINITY);
            let (mut u1, mut v1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for c in corners {
                let (u, v) = camera.world_to_image(pose, c);
                u0 = u0.min(u);
                v0 = v0.min(v);
                u1 = u1.max(u);
                v1 = v1.max(v);
            }
            // Keep objects whose center is in frame.
            let (cu, cv) = camera.world_to_image(pose, p);
            if !camera.in_frame(cu, cv) {
                continue;
            }
            let w = camera.width() as f32;
            let h = camera.height() as f32;
            out.push(TruthObject {
                id: o.id,
                class: o.class,
                bbox: BBox::from_corners(
                    u0 as f32 / w,
                    v0 as f32 / h,
                    u1 as f32 / w,
                    v1 as f32 / h,
                ),
            });
        }
        out
    }

    /// Draws an axis-aligned (in world space) rectangle by scanning its
    /// projected image bounding box and sampling `texture(wx, wy)`.
    #[allow(clippy::too_many_arguments)]
    fn draw_world_square(
        &self,
        img: &mut GrayImage,
        camera: &OrthoCamera,
        pose: &Pose2,
        center: Point2,
        len_x: f64,
        len_y: f64,
        texture: impl Fn(f64, f64) -> u8,
    ) {
        let half_diag = (len_x * len_x + len_y * len_y).sqrt() / 2.0;
        let (cu, cv) = camera.world_to_image(pose, center);
        let r = (half_diag / camera.meters_per_pixel()).ceil() as isize + 1;
        let (cu, cv) = (cu.round() as isize, cv.round() as isize);
        for v in cv - r..=cv + r {
            for u in cu - r..=cu + r {
                if u < 0 || v < 0 || u >= img.width() as isize || v >= img.height() as isize {
                    continue;
                }
                let w = camera.image_to_world(pose, u as f64, v as f64);
                if (w.x - center.x).abs() <= len_x / 2.0 && (w.y - center.y).abs() <= len_y / 2.0
                {
                    img.put(u, v, texture(w.x, w.y));
                }
            }
        }
    }
}

/// Deterministic 2-D hash used for all textures.
fn hash2(x: u64, y: u64, seed: u64) -> u64 {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(x.wrapping_mul(131))
        .wrapping_add(y.wrapping_mul(31013));
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera() -> OrthoCamera {
        OrthoCamera::new(320, 240, 0.25)
    }

    #[test]
    fn generation_is_deterministic() {
        let p = WorldParams::default();
        let a = World::generate(7, &p);
        let b = World::generate(7, &p);
        assert_eq!(a.beacons, b.beacons);
        assert_eq!(a.objects(), b.objects());
        let c = World::generate(8, &p);
        assert_ne!(a.beacons, c.beacons);
    }

    #[test]
    fn render_is_deterministic_and_shows_beacons() {
        let world = World::generate(1, &WorldParams::default());
        let cam = camera();
        let pose = Pose2::identity();
        let a = world.render(&cam, &pose, 0.0);
        let b = world.render(&cam, &pose, 0.0);
        assert_eq!(a, b);
        // Beacon texture (>= 80) must appear somewhere.
        assert!(a.as_slice().iter().any(|&p| p >= 80));
    }

    #[test]
    fn truth_objects_match_rendered_intensity() {
        let world = World::generate(3, &WorldParams { n_objects: 20, ..Default::default() });
        let cam = camera();
        // Find a pose looking at the first object.
        let o = &world.objects()[0];
        let pose = Pose2::new(o.start.x - 5.0, o.start.y, 0.0);
        let truths = world.truth_objects(&cam, &pose, 0.0);
        let t = truths.iter().find(|t| t.id == o.id).expect("object in view");
        assert_eq!(t.class, o.class);
        // Sample the rendered image at the truth bbox center.
        let img = world.render(&cam, &pose, 0.0);
        let px = img.get(
            (t.bbox.cx * cam.width() as f32) as usize,
            (t.bbox.cy * cam.height() as f32) as usize,
        );
        assert_eq!(
            ObjectClass::from_intensity(px as f64),
            Some(o.class),
            "pixel {px} should encode {:?}",
            o.class
        );
    }

    #[test]
    fn objects_move_over_time() {
        let world = World::generate(5, &WorldParams::default());
        let moving = world.objects().iter().find(|o| o.velocity.norm() > 0.0).unwrap();
        let p0 = moving.position_at(0.0);
        let p1 = moving.position_at(2.0);
        assert!(p0.distance(&p1) > 1.0);
    }

    #[test]
    fn class_intensity_round_trips() {
        for c in ObjectClass::ALL {
            assert_eq!(ObjectClass::from_intensity(class_intensity(c) as f64), Some(c));
            assert_eq!(ObjectClass::from_intensity(class_intensity(c) as f64 + 9.0), Some(c));
        }
        assert_eq!(ObjectClass::from_intensity(30.0), None);
    }

    #[test]
    fn render_rotation_invariant_world_content() {
        // The same world point must render the same texture value
        // regardless of vehicle heading (sampling is in world space).
        let world = World::generate(4, &WorldParams { n_objects: 0, ..Default::default() });
        let cam = camera();
        let b = world.beacons[world.beacons.len() / 2];
        let pose_a = Pose2::new(b.position.x - 10.0, b.position.y, 0.0);
        let pose_b = Pose2::new(b.position.x, b.position.y - 10.0, std::f64::consts::FRAC_PI_2);
        let img_a = world.render(&cam, &pose_a, 0.0);
        let img_b = world.render(&cam, &pose_b, 0.0);
        // Sample texture-cell centers in world space through both views.
        let mut same = 0;
        let mut total = 0;
        for dx in -2i32..=2 {
            for dy in -2i32..=2 {
                let w = Point2::new(
                    b.position.x + dx as f64 + 0.5,
                    b.position.y + dy as f64 + 0.5,
                );
                let (ua, va) = cam.world_to_image(&pose_a, w);
                let (ub, vb) = cam.world_to_image(&pose_b, w);
                let pa = img_a.get_clamped(ua.round() as isize, va.round() as isize);
                let pb = img_b.get_clamped(ub.round() as isize, vb.round() as isize);
                total += 1;
                if pa == pb {
                    same += 1;
                }
            }
        }
        assert!(
            same * 10 >= total * 8,
            "world-space texture should mostly agree: {same}/{total}"
        );
    }
}

#[cfg(test)]
mod condition_tests {
    use super::*;

    fn setup() -> (World, OrthoCamera, Pose2) {
        let world = World::generate(4, &WorldParams::default());
        (world, OrthoCamera::new(160, 120, 0.5), Pose2::identity())
    }

    #[test]
    fn clear_conditions_match_plain_render() {
        let (world, cam, pose) = setup();
        assert_eq!(
            world.render(&cam, &pose, 0.0),
            world.render_with(&cam, &pose, 0.0, &Conditions::clear())
        );
    }

    #[test]
    fn brightness_shifts_the_mean() {
        let (world, cam, pose) = setup();
        let clear = world.render(&cam, &pose, 0.0);
        let dark = world.render_with(
            &cam,
            &pose,
            0.0,
            &Conditions { brightness: -30, noise: 0, seed: 0 },
        );
        let mean = |img: &GrayImage| {
            img.as_slice().iter().map(|&p| p as f64).sum::<f64>() / img.pixels() as f64
        };
        assert!(mean(&dark) < mean(&clear) - 20.0);
    }

    #[test]
    fn noise_is_bounded_and_seeded() {
        let (world, cam, pose) = setup();
        let clear = world.render(&cam, &pose, 0.0);
        let cond = Conditions { brightness: 0, noise: 10, seed: 7 };
        let noisy = world.render_with(&cam, &pose, 0.0, &cond);
        for (a, b) in clear.as_slice().iter().zip(noisy.as_slice()) {
            let diff = (*a as i16 - *b as i16).abs();
            assert!(diff <= 10, "noise exceeded amplitude: {diff}");
        }
        // Same seed -> identical; different seed -> different.
        assert_eq!(noisy, world.render_with(&cam, &pose, 0.0, &cond));
        let other = world.render_with(
            &cam,
            &pose,
            0.0,
            &Conditions { seed: 8, ..cond },
        );
        assert_ne!(noisy, other);
    }

    #[test]
    fn presets_are_ordered_by_severity() {
        let clear = Conditions::clear();
        let overcast = Conditions::overcast(1);
        let severe = Conditions::severe(1);
        assert!(clear.noise < overcast.noise);
        assert!(overcast.noise < severe.noise);
        assert!(severe.brightness < overcast.brightness);
    }
}
