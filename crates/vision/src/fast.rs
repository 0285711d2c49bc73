//! FAST-9 segment-test corner detection with non-maximum suppression
//! and intensity-centroid orientation — the oFAST feature selector of
//! ORB (paper Fig. 5, Fig. 9).

use crate::GrayImage;

/// A detected interest point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// X coordinate in full-resolution image pixels.
    pub x: f32,
    /// Y coordinate in full-resolution image pixels.
    pub y: f32,
    /// Corner strength (sum of absolute circle differences).
    pub score: f32,
    /// Patch orientation in radians (intensity centroid).
    pub angle: f32,
    /// Pyramid octave the keypoint was detected on (0 = full res).
    pub octave: usize,
}

/// Bresenham circle of radius 3 used by the FAST segment test, in
/// clockwise order starting from the top.
const CIRCLE: [(isize, isize); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Minimum contiguous arc length for the FAST-9 test.
const ARC: usize = 9;

/// Detects FAST-9 corners with threshold `t`, applying 3×3 non-maximum
/// suppression on the corner score.
///
/// A pixel `p` is a corner when at least 9 contiguous circle
/// pixels are all brighter than `p + t` or all darker than `p − t`.
/// The returned keypoints carry a zero angle; call `orientation` (or
/// use [`OrbExtractor`](crate::OrbExtractor), which does) to fill it.
///
/// # Examples
///
/// ```
/// use adsim_vision::{fast_corners, GrayImage};
///
/// let mut img = GrayImage::new(32, 32);
/// img.fill_rect(8, 8, 12, 12, 255);
/// let corners = fast_corners(&img, 30);
/// assert!(!corners.is_empty());
/// ```
pub fn fast_corners(img: &GrayImage, t: u8) -> Vec<Keypoint> {
    let (w, h) = (img.width(), img.height());
    if w < 7 || h < 7 {
        return Vec::new();
    }
    let mut scores = vec![0f32; w * h];
    let mut candidates = Vec::new();
    for y in 3..h - 3 {
        for x in 3..w - 3 {
            if let Some(score) = corner_score(img, x, y, t) {
                scores[y * w + x] = score;
                candidates.push((x, y));
            }
        }
    }
    // 3x3 non-maximum suppression.
    let mut out = Vec::new();
    for (x, y) in candidates {
        let s = scores[y * w + x];
        let mut is_max = true;
        'nms: for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = (x as isize + dx) as usize;
                let ny = (y as isize + dy) as usize;
                let ns = scores[ny * w + nx];
                // Strictly-greater neighbours suppress; ties break by
                // position so exactly one of a tied pair survives.
                if ns > s || (ns == s && (ny, nx) < (y, x)) {
                    is_max = false;
                    break 'nms;
                }
            }
        }
        if is_max {
            out.push(Keypoint { x: x as f32, y: y as f32, score: s, angle: 0.0, octave: 0 });
        }
    }
    out
}

/// Segment test at one pixel: returns the corner score if the pixel
/// passes, `None` otherwise.
fn corner_score(img: &GrayImage, x: usize, y: usize, t: u8) -> Option<f32> {
    let p = img.get(x, y) as i16;
    let t = t as i16;
    let mut brighter = [false; 16];
    let mut darker = [false; 16];
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let v = img.get_clamped(x as isize + dx, y as isize + dy) as i16;
        brighter[i] = v > p + t;
        darker[i] = v < p - t;
    }
    // Quick reject using the 4 compass points: a 9-contiguous arc
    // always covers at least 2 of the 4 (they are spaced 4 apart).
    let compass = [0usize, 4, 8, 12];
    let nb = compass.iter().filter(|&&i| brighter[i]).count();
    let nd = compass.iter().filter(|&&i| darker[i]).count();
    if nb < 2 && nd < 2 {
        return None;
    }
    if !has_arc(&brighter) && !has_arc(&darker) {
        return None;
    }
    // Score: sum of |circle - center| over pixels beyond the threshold.
    let mut score = 0i32;
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        if brighter[i] || darker[i] {
            let v = img.get_clamped(x as isize + dx, y as isize + dy) as i32;
            score += (v - p as i32).abs();
        }
    }
    Some(score as f32)
}

fn has_arc(mask: &[bool; 16]) -> bool {
    let mut run = 0;
    // Walk twice around the circle to catch wrap-around arcs.
    for i in 0..32 {
        if mask[i % 16] {
            run += 1;
            if run >= ARC {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

/// Computes the intensity-centroid orientation of the patch around
/// `(x, y)`: `atan2(m01, m10)` over a disc of radius `radius`.
///
/// This is the "Orient_unit" the paper implements with an `atan2`
/// lookup table on the FPGA (Fig. 9).
pub(crate) fn orientation(img: &GrayImage, x: f32, y: f32, radius: isize) -> f32 {
    let (mut m01, mut m10) = (0f64, 0f64);
    let cx = x.round() as isize;
    let cy = y.round() as isize;
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            if dx * dx + dy * dy > radius * radius {
                continue;
            }
            let v = img.get_clamped(cx + dx, cy + dy) as f64;
            m10 += dx as f64 * v;
            m01 += dy as f64 * v;
        }
    }
    m01.atan2(m10) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn white_square(size: usize) -> GrayImage {
        let mut img = GrayImage::new(64, 64);
        img.fill_rect(20, 20, size, size, 255);
        img
    }

    #[test]
    fn uniform_image_has_no_corners() {
        let img = GrayImage::from_fn(32, 32, |_, _| 128);
        assert!(fast_corners(&img, 20).is_empty());
    }

    #[test]
    fn square_corners_are_detected_near_vertices() {
        let img = white_square(20);
        let corners = fast_corners(&img, 40);
        assert!(corners.len() >= 4, "found {}", corners.len());
        // Every square vertex should have a corner within 3 px.
        for (vx, vy) in [(20.0, 20.0), (39.0, 20.0), (20.0, 39.0), (39.0, 39.0)] {
            let near = corners.iter().any(|k| {
                ((k.x - vx as f32).powi(2) + (k.y - vy as f32).powi(2)).sqrt() < 3.0
            });
            assert!(near, "no corner near ({vx}, {vy})");
        }
    }

    #[test]
    fn straight_edges_are_not_corners() {
        // A long horizontal edge: interior edge pixels fail FAST-9.
        let img = GrayImage::from_fn(64, 64, |_, y| if y < 32 { 0 } else { 255 });
        let corners = fast_corners(&img, 30);
        assert!(corners.is_empty(), "edges must not fire: {corners:?}");
    }

    #[test]
    fn nms_keeps_isolated_maxima() {
        let img = white_square(20);
        let corners = fast_corners(&img, 40);
        // No two kept corners may be adjacent.
        for (i, a) in corners.iter().enumerate() {
            for b in &corners[i + 1..] {
                let d = ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
                assert!(d > 1.5, "adjacent corners survived NMS");
            }
        }
    }

    #[test]
    fn higher_threshold_finds_fewer_corners() {
        let mut img = GrayImage::new(64, 64);
        // Strong square and a weak square.
        img.fill_rect(8, 8, 12, 12, 255);
        img.fill_rect(40, 40, 12, 12, 60);
        let low = fast_corners(&img, 20).len();
        let high = fast_corners(&img, 100).len();
        assert!(low > high, "low {low} vs high {high}");
        assert!(high > 0);
    }

    #[test]
    fn orientation_points_toward_bright_mass() {
        // Bright on the right of the center -> centroid along +x.
        let img = GrayImage::from_fn(31, 31, |x, _| if x > 15 { 255 } else { 0 });
        let angle = orientation(&img, 15.0, 15.0, 15);
        assert!(angle.abs() < 0.2, "angle {angle} should be ~0");
        // Bright below -> +y direction (~pi/2).
        let img = GrayImage::from_fn(31, 31, |_, y| if y > 15 { 255 } else { 0 });
        let angle = orientation(&img, 15.0, 15.0, 15);
        assert!((angle - std::f32::consts::FRAC_PI_2).abs() < 0.2);
    }

    #[test]
    fn tiny_images_are_handled() {
        let img = GrayImage::new(5, 5);
        assert!(fast_corners(&img, 10).is_empty());
    }
}
