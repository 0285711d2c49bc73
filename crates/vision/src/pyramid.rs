use crate::GrayImage;

/// A half-octave image pyramid (scale factor 2 between levels).
///
/// ORB detects keypoints at several scales so features persist as the
/// vehicle approaches landmarks.
///
/// # Examples
///
/// ```
/// use adsim_vision::{GrayImage, Pyramid};
///
/// let img = GrayImage::new(128, 128);
/// let pyr = Pyramid::build(&img, 3);
/// assert_eq!(pyr.levels().len(), 3);
/// assert_eq!(pyr.levels()[1].width(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct Pyramid {
    levels: Vec<GrayImage>,
}

impl Pyramid {
    /// Builds a pyramid with up to `n_levels` levels; construction
    /// stops early once a level would shrink below 16 px on a side.
    ///
    /// # Panics
    ///
    /// Panics if `n_levels` is zero.
    pub fn build(base: &GrayImage, n_levels: usize) -> Self {
        assert!(n_levels > 0, "pyramid needs at least one level");
        let mut levels = vec![base.clone()];
        while levels.len() < n_levels {
            let last = levels.last().expect("at least the base level exists");
            if last.width() / 2 < 16 || last.height() / 2 < 16 {
                break;
            }
            levels.push(last.downsample());
        }
        Self { levels }
    }

    /// The levels, full resolution first.
    pub fn levels(&self) -> &[GrayImage] {
        &self.levels
    }

    /// The scale factor of level `octave` relative to the base image.
    pub(crate) fn scale(&self, octave: usize) -> f32 {
        (1 << octave) as f32
    }

    /// Total pixels across all levels — the amount of data the FAST
    /// detector must scan, used by the platform cost model.
    pub(crate) fn total_pixels(&self) -> usize {
        self.levels.iter().map(GrayImage::pixels).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_halve() {
        let pyr = Pyramid::build(&GrayImage::new(128, 128), 4);
        let sizes: Vec<_> = pyr.levels().iter().map(|l| l.width()).collect();
        assert_eq!(sizes, vec![128, 64, 32, 16]);
    }

    #[test]
    fn stops_before_too_small() {
        let pyr = Pyramid::build(&GrayImage::new(40, 40), 8);
        assert!(pyr.levels().len() < 8);
        assert!(pyr.levels().last().unwrap().width() >= 16);
    }

    #[test]
    fn total_pixels_close_to_four_thirds() {
        let pyr = Pyramid::build(&GrayImage::new(256, 256), 5);
        let total = pyr.total_pixels() as f64;
        let base = (256 * 256) as f64;
        assert!(total / base > 1.30 && total / base < 1.36, "{}", total / base);
    }

    #[test]
    fn scale_is_power_of_two() {
        let pyr = Pyramid::build(&GrayImage::new(64, 64), 2);
        assert_eq!(pyr.scale(0), 1.0);
        assert_eq!(pyr.scale(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_rejected() {
        Pyramid::build(&GrayImage::new(64, 64), 0);
    }
}
