/// An 8-bit grayscale image stored row-major.
///
/// The vision-based pipeline the paper builds consumes camera frames;
/// this workspace renders synthetic frames into `GrayImage`s and feeds
/// them to both the detection and localization engines.
///
/// # Examples
///
/// ```
/// use adsim_vision::GrayImage;
///
/// let mut img = GrayImage::new(64, 48);
/// img.fill_rect(10, 10, 20, 10, 200);
/// assert_eq!(img.get(15, 12), 200);
/// assert_eq!(img.get(0, 0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self { width, height, data: vec![0; width * height] }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel ({x}, {y}) out of bounds");
        self.data[y * self.width + x]
    }

    /// Pixel value at `(x, y)` with border clamping, so samplers can
    /// read near edges safely.
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`, ignoring out-of-bounds writes (so
    /// scene renderers can draw partially visible objects).
    pub fn put(&mut self, x: isize, y: isize, value: u8) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.data[y as usize * self.width + x as usize] = value;
        }
    }

    /// Raw pixels, row-major.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixels, row-major (in-place perturbation: noise
    /// injection, masking).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Fills an axis-aligned rectangle (clipped to the image).
    pub fn fill_rect(&mut self, x: isize, y: isize, w: usize, h: usize, value: u8) {
        for dy in 0..h as isize {
            for dx in 0..w as isize {
                self.put(x + dx, y + dy, value);
            }
        }
    }

    /// Extracts a `w`×`h` sub-image whose top-left corner is `(x, y)`;
    /// reads outside the source are border-clamped.
    pub fn crop(&self, x: isize, y: isize, w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w.max(1), h.max(1), |cx, cy| {
            self.get_clamped(x + cx as isize, y + cy as isize)
        })
    }

    /// Nearest-neighbour resize.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn resize(&self, width: usize, height: usize) -> GrayImage {
        assert!(width > 0 && height > 0, "resize target must be positive");
        GrayImage::from_fn(width, height, |x, y| {
            let sx = x * self.width / width;
            let sy = y * self.height / height;
            self.data[sy * self.width + sx]
        })
    }

    /// `self.crop(x, y, w, h).resize(width, height)` without the
    /// intermediate crop: only the `width`×`height` sampled pixels are
    /// read, so the cost does not grow with the box.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn crop_resize(
        &self,
        x: isize,
        y: isize,
        w: usize,
        h: usize,
        width: usize,
        height: usize,
    ) -> GrayImage {
        assert!(width > 0 && height > 0, "resize target must be positive");
        let (w, h) = (w.max(1), h.max(1));
        GrayImage::from_fn(width, height, |ox, oy| {
            self.get_clamped(x + (ox * w / width) as isize, y + (oy * h / height) as isize)
        })
    }

    /// 2× box-filter downsample, used to build pyramid octaves.
    ///
    /// Output dimensions are halved (rounded down), minimum 1.
    pub fn downsample(&self) -> GrayImage {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        GrayImage::from_fn(w, h, |x, y| {
            let (sx, sy) = (x * 2, y * 2);
            let a = self.get_clamped(sx as isize, sy as isize) as u16;
            let b = self.get_clamped(sx as isize + 1, sy as isize) as u16;
            let c = self.get_clamped(sx as isize, sy as isize + 1) as u16;
            let d = self.get_clamped(sx as isize + 1, sy as isize + 1) as u16;
            ((a + b + c + d) / 4) as u8
        })
    }

    /// Converts to a `[1, 1, h, w]` tensor with pixels scaled to
    /// `[0, 1]`, the input format of the reduced-scale networks.
    pub fn to_tensor(&self) -> adsim_tensor::Tensor {
        let data: Vec<f32> = self.data.iter().map(|&p| p as f32 / 255.0).collect();
        adsim_tensor::Tensor::from_vec([1, 1, self.height, self.width], data)
            .expect("length matches by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_black() {
        let img = GrayImage::new(4, 3);
        assert_eq!(img.pixels(), 12);
        assert!(img.as_slice().iter().all(|&p| p == 0));
    }

    #[test]
    fn put_ignores_out_of_bounds() {
        let mut img = GrayImage::new(4, 4);
        img.put(-1, 0, 255);
        img.put(0, 100, 255);
        assert!(img.as_slice().iter().all(|&p| p == 0));
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = GrayImage::new(4, 4);
        img.fill_rect(2, 2, 10, 10, 9);
        assert_eq!(img.get(3, 3), 9);
        assert_eq!(img.get(1, 1), 0);
    }

    #[test]
    fn clamped_reads_extend_borders() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x + y) as u8);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(2, 2));
    }

    #[test]
    fn crop_reads_clamped() {
        let img = GrayImage::from_fn(4, 4, |x, _| x as u8 * 10);
        let c = img.crop(3, 0, 3, 2);
        assert_eq!(c.get(0, 0), 30);
        assert_eq!(c.get(2, 0), 30, "beyond right edge clamps");
    }

    #[test]
    fn crop_resize_equals_crop_then_resize() {
        let img = GrayImage::from_fn(13, 9, |x, y| (x * 17 + y * 29) as u8);
        // Boxes hanging off each border, 1-pixel and degenerate boxes,
        // and boxes larger than the frame; up- and down-sampling.
        let boxes = [
            (-4, 2, 7, 5),
            (9, 1, 8, 4),
            (3, -6, 5, 9),
            (2, 5, 6, 11),
            (6, 4, 1, 1),
            (-3, -3, 0, 0),
            (-5, -7, 30, 25),
            (40, 40, 3, 3),
            (0, 0, 13, 9),
        ];
        for (x, y, w, h) in boxes {
            for (tw, th) in [(32, 32), (3, 2), (1, 1), (13, 9)] {
                assert_eq!(
                    img.crop_resize(x, y, w, h, tw, th),
                    img.crop(x, y, w, h).resize(tw, th),
                    "box ({x}, {y}, {w}, {h}) -> {tw}x{th}"
                );
            }
        }
    }

    #[test]
    fn resize_preserves_corners() {
        let img = GrayImage::from_fn(8, 8, |x, y| ((x / 4) * 2 + y / 4) as u8 * 50);
        let r = img.resize(2, 2);
        assert_eq!(r.get(0, 0), 0);
        assert_eq!(r.get(1, 0), 100);
        assert_eq!(r.get(0, 1), 50);
        assert_eq!(r.get(1, 1), 150);
    }

    #[test]
    fn downsample_halves_dimensions_and_averages() {
        let img = GrayImage::from_fn(4, 4, |_, _| 100);
        let d = img.downsample();
        assert_eq!((d.width(), d.height()), (2, 2));
        assert!(d.as_slice().iter().all(|&p| p == 100));
    }

    #[test]
    fn to_tensor_normalizes() {
        let img = GrayImage::from_fn(2, 2, |x, y| if x == 0 && y == 0 { 255 } else { 0 });
        let t = img.to_tensor();
        assert_eq!(t.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(t.as_slice()[0], 1.0);
        assert_eq!(t.as_slice()[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sized_image_rejected() {
        GrayImage::new(0, 10);
    }
}
