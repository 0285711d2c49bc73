//! Steered BRIEF (rBRIEF) binary descriptors.
//!
//! Each descriptor is 256 binary intensity comparisons between pairs of
//! points in a 31×31 patch around the keypoint, with the pair pattern
//! rotated by the keypoint orientation. The paper's FPGA and ASIC
//! designs store this pattern in an on-chip LUT and rotate coordinates
//! with a `Rotate_unit` (Fig. 9); we keep the same structure: a static
//! pattern table plus a rotation step per test.

use crate::fast::Keypoint;
use crate::GrayImage;

/// Number of binary tests (descriptor bits).
pub(crate) const BRIEF_BITS: usize = 256;

/// Patch half-extent: test points live in `[-PATCH_R, PATCH_R]`.
const PATCH_R: i32 = 13;

/// A 256-bit binary descriptor.
///
/// # Examples
///
/// ```
/// use adsim_vision::Descriptor;
///
/// let a = Descriptor::new([0u8; 32]);
/// let b = Descriptor::new([0xFFu8; 32]);
/// assert_eq!(a.hamming(&b), 256);
/// assert_eq!(a.hamming(&a), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Descriptor {
    bits: [u8; BRIEF_BITS / 8],
}

impl Descriptor {
    /// Creates a descriptor from raw bytes.
    pub fn new(bits: [u8; BRIEF_BITS / 8]) -> Self {
        Self { bits }
    }

    /// The raw bytes.
    pub(crate) fn as_bytes(&self) -> &[u8; BRIEF_BITS / 8] {
        &self.bits
    }

    /// Hamming distance to another descriptor, in `0..=256`, computed
    /// as four `u64` XOR + popcount words (endian-agnostic: XOR and
    /// popcount commute with any byte order).
    pub fn hamming(&self, other: &Descriptor) -> u32 {
        adsim_tensor::simd::hamming256(&self.bits, &other.bits)
    }
}

/// The fixed comparison pattern: `BRIEF_BITS` point pairs inside the
/// patch, generated once from a deterministic LCG so every build of the
/// library produces identical descriptors (the "Pattern LUT (256 x 4)"
/// of the paper's Fig. 9).
fn pattern() -> &'static [(i32, i32, i32, i32); BRIEF_BITS] {
    use std::sync::OnceLock;
    static PATTERN: OnceLock<[(i32, i32, i32, i32); BRIEF_BITS]> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            // xorshift64* — deterministic and dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Map to [-PATCH_R, PATCH_R].
            ((v >> 33) % (2 * PATCH_R as u64 + 1)) as i32 - PATCH_R
        };
        let mut pat = [(0, 0, 0, 0); BRIEF_BITS];
        for p in &mut pat {
            *p = (next(), next(), next(), next());
        }
        pat
    })
}

/// Computes the steered BRIEF descriptor for a keypoint.
///
/// Test coordinates are rotated by the keypoint angle before sampling,
/// giving rotation invariance (the "r" in rBRIEF). Samples outside the
/// image are border-clamped.
pub(crate) fn describe(img: &GrayImage, kp: &Keypoint) -> Descriptor {
    let (sin, cos) = kp.angle.sin_cos();
    let cx = kp.x;
    let cy = kp.y;
    let mut bits = [0u8; BRIEF_BITS / 8];
    for (i, &(x0, y0, x1, y1)) in pattern().iter().enumerate() {
        let rot = |x: i32, y: i32| {
            let rx = cos * x as f32 - sin * y as f32;
            let ry = sin * x as f32 + cos * y as f32;
            ((cx + rx).round() as isize, (cy + ry).round() as isize)
        };
        let (ax, ay) = rot(x0, y0);
        let (bx, by) = rot(x1, y1);
        if img.get_clamped(ax, ay) < img.get_clamped(bx, by) {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    Descriptor { bits }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured() -> GrayImage {
        GrayImage::from_fn(64, 64, |x, y| {
            (((x * 7 + y * 13) ^ (x * y)) % 256) as u8
        })
    }

    fn kp(x: f32, y: f32, angle: f32) -> Keypoint {
        Keypoint { x, y, score: 1.0, angle, octave: 0 }
    }

    #[test]
    fn pattern_is_deterministic_and_in_patch() {
        let a = pattern();
        let b = pattern();
        assert_eq!(a.as_slice(), b.as_slice());
        for &(x0, y0, x1, y1) in a {
            for v in [x0, y0, x1, y1] {
                assert!((-PATCH_R..=PATCH_R).contains(&v));
            }
        }
    }

    #[test]
    fn hamming_matches_per_bit_reference() {
        // The u64-word XOR+popcount path must equal a naive bit count
        // on irregular patterns (every byte differing in varied bits).
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            *x = (i as u8).wrapping_mul(151).wrapping_add(43);
            *y = (i as u8).wrapping_mul(97).wrapping_add(211);
        }
        let (da, db) = (Descriptor::new(a), Descriptor::new(b));
        let expect: u32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| {
                let mut d = x ^ y;
                let mut n = 0;
                while d != 0 {
                    n += (d & 1) as u32;
                    d >>= 1;
                }
                n
            })
            .sum();
        assert_eq!(da.hamming(&db), expect);
    }

    #[test]
    fn hamming_distance_properties() {
        let z = Descriptor::new([0; 32]);
        let o = Descriptor::new([0xFF; 32]);
        let mut half = [0u8; 32];
        half[..16].fill(0xFF);
        let h = Descriptor::new(half);
        assert_eq!(z.hamming(&o), 256);
        assert_eq!(z.hamming(&h), 128);
        assert_eq!(h.hamming(&z), 128, "symmetric");
    }

    #[test]
    fn same_patch_gives_identical_descriptor() {
        let img = textured();
        let d1 = describe(&img, &kp(32.0, 32.0, 0.3));
        let d2 = describe(&img, &kp(32.0, 32.0, 0.3));
        assert_eq!(d1, d2);
    }

    #[test]
    fn different_patches_differ() {
        let img = textured();
        let d1 = describe(&img, &kp(20.0, 20.0, 0.0));
        let d2 = describe(&img, &kp(45.0, 45.0, 0.0));
        assert!(d1.hamming(&d2) > 40, "distance {}", d1.hamming(&d2));
    }

    #[test]
    fn rotation_steering_tracks_patch_rotation() {
        // Build a pattern and its 90°-rotated copy; descriptors computed
        // with matching angles should be much closer than with wrong
        // angles.
        let base = GrayImage::from_fn(64, 64, |x, y| {
            let (dx, dy) = (x as i32 - 32, y as i32 - 32);
            if dx * dx + dy * dy > 200 {
                0
            } else {
                (((dx * 3 + dy * 5) % 17 + 17) * 15 % 256) as u8
            }
        });
        // Rotate image content by 90° around (32, 32): (x,y) <- (y, -x).
        let rotated = GrayImage::from_fn(64, 64, |x, y| {
            let (dx, dy) = (x as i32 - 32, y as i32 - 32);
            let sx = 32 + dy;
            let sy = 32 - dx;
            base.get_clamped(sx as isize, sy as isize)
        });
        let d0 = describe(&base, &kp(32.0, 32.0, 0.0));
        let steered = describe(&rotated, &kp(32.0, 32.0, std::f32::consts::FRAC_PI_2));
        let unsteered = describe(&rotated, &kp(32.0, 32.0, 0.0));
        assert!(
            d0.hamming(&steered) + 20 < d0.hamming(&unsteered),
            "steered {} vs unsteered {}",
            d0.hamming(&steered),
            d0.hamming(&unsteered)
        );
    }

    #[test]
    fn border_keypoints_do_not_panic() {
        let img = textured();
        let _ = describe(&img, &kp(0.0, 0.0, 1.0));
        let _ = describe(&img, &kp(63.0, 63.0, -2.0));
    }
}
