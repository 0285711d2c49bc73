use crate::geometry::{Point2, Pose2};

/// A top-down orthographic ("bird's-eye surround view") camera.
///
/// The paper's localization engine matches camera features against a
/// prior map of landmark positions (§3.1.3). This workspace uses an
/// orthographic ground-plane camera — the fused surround view modern
/// vehicles synthesize from their camera ring — so that world points
/// and image pixels are related by a similarity transform of the
/// vehicle pose. This keeps the *matching and pose-solving* code paths
/// identical to a perspective system while making ground truth exact.
///
/// Conventions: vehicle frame is +x forward / +y left; image frame is
/// +u right / +v down with the vehicle at the image center facing up.
///
/// # Examples
///
/// ```
/// use adsim_vision::{OrthoCamera, Point2, Pose2};
///
/// let cam = OrthoCamera::new(200, 100, 0.5);
/// let pose = Pose2::identity();
/// // A point 10 m ahead appears above the image center.
/// let (u, v) = cam.world_to_image(&pose, Point2::new(10.0, 0.0));
/// assert_eq!((u, v), (100.0, 30.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrthoCamera {
    width: usize,
    height: usize,
    meters_per_pixel: f64,
}

impl OrthoCamera {
    /// Creates a camera with the given image size and ground sampling
    /// distance.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive.
    pub fn new(width: usize, height: usize, meters_per_pixel: f64) -> Self {
        assert!(width > 0 && height > 0, "image size must be positive");
        assert!(meters_per_pixel > 0.0, "ground sampling distance must be positive");
        Self { width, height, meters_per_pixel }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Ground sampling distance in meters per pixel.
    pub fn meters_per_pixel(&self) -> f64 {
        self.meters_per_pixel
    }

    /// Half-diagonal of the ground footprint in meters — the radius of
    /// world content that can appear in frame.
    pub fn view_radius(&self) -> f64 {
        let hw = self.width as f64 / 2.0 * self.meters_per_pixel;
        let hh = self.height as f64 / 2.0 * self.meters_per_pixel;
        (hw * hw + hh * hh).sqrt()
    }

    /// Maps a vehicle-frame point to image coordinates.
    pub(crate) fn vehicle_to_image(&self, p: Point2) -> (f64, f64) {
        let cu = self.width as f64 / 2.0;
        let cv = self.height as f64 / 2.0;
        (cu - p.y / self.meters_per_pixel, cv - p.x / self.meters_per_pixel)
    }

    /// Maps image coordinates to a vehicle-frame point.
    pub fn image_to_vehicle(&self, u: f64, v: f64) -> Point2 {
        let cu = self.width as f64 / 2.0;
        let cv = self.height as f64 / 2.0;
        Point2::new((cv - v) * self.meters_per_pixel, (cu - u) * self.meters_per_pixel)
    }

    /// Maps a world point to image coordinates given the vehicle pose.
    pub fn world_to_image(&self, pose: &Pose2, p: Point2) -> (f64, f64) {
        self.vehicle_to_image(pose.inverse_transform(p))
    }

    /// Maps image coordinates to a world point given the vehicle pose.
    pub fn image_to_world(&self, pose: &Pose2, u: f64, v: f64) -> Point2 {
        pose.transform(self.image_to_vehicle(u, v))
    }

    /// Whether image coordinates fall inside the frame.
    pub fn in_frame(&self, u: f64, v: f64) -> bool {
        u >= 0.0 && v >= 0.0 && u < self.width as f64 && v < self.height as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> OrthoCamera {
        OrthoCamera::new(320, 240, 0.25)
    }

    #[test]
    fn center_is_vehicle_origin() {
        let p = cam().image_to_vehicle(160.0, 120.0);
        assert!(p.x.abs() < 1e-9 && p.y.abs() < 1e-9);
    }

    #[test]
    fn forward_is_up() {
        let (u, v) = cam().vehicle_to_image(Point2::new(10.0, 0.0));
        assert_eq!(u, 160.0);
        assert!(v < 120.0, "forward points up in the image");
    }

    #[test]
    fn left_is_image_left() {
        let (u, _) = cam().vehicle_to_image(Point2::new(0.0, 5.0));
        assert!(u < 160.0);
    }

    #[test]
    fn image_world_round_trip() {
        let cam = cam();
        let pose = Pose2::new(12.0, -7.0, 0.9);
        let p = Point2::new(15.0, -3.0);
        let (u, v) = cam.world_to_image(&pose, p);
        let q = cam.image_to_world(&pose, u, v);
        assert!((p.x - q.x).abs() < 1e-9 && (p.y - q.y).abs() < 1e-9);
    }

    #[test]
    fn in_frame_bounds() {
        let cam = cam();
        assert!(cam.in_frame(0.0, 0.0));
        assert!(cam.in_frame(319.9, 239.9));
        assert!(!cam.in_frame(-0.1, 0.0));
        assert!(!cam.in_frame(0.0, 240.0));
    }

    #[test]
    fn view_radius_covers_corners() {
        let cam = cam();
        let corner = cam.image_to_vehicle(0.0, 0.0);
        assert!(corner.norm() <= cam.view_radius() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gsd_rejected() {
        OrthoCamera::new(10, 10, 0.0);
    }
}
