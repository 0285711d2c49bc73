/// Camera resolutions used by the paper.
///
/// Fig. 13 sweeps the five consumer resolutions from half-HD to Quad
/// HD to study scalability; [`Resolution::Kitti`] matches the KITTI
/// sequences used for the baseline characterization (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Half HD, 640×360.
    Hhd,
    /// HD (720p), 1280×720.
    Hd,
    /// HD+, 1600×900.
    HdPlus,
    /// Full HD (1080p), 1920×1080.
    Fhd,
    /// Quad HD (1440p), 2560×1440.
    Qhd,
    /// KITTI camera resolution, 1242×375.
    Kitti,
}

impl Resolution {
    /// The Fig. 13 sweep, ascending pixel count.
    pub const SWEEP: [Resolution; 5] = [
        Resolution::Hhd,
        Resolution::Hd,
        Resolution::HdPlus,
        Resolution::Fhd,
        Resolution::Qhd,
    ];

    /// Width in pixels.
    pub(crate) fn width(self) -> usize {
        match self {
            Resolution::Hhd => 640,
            Resolution::Hd => 1280,
            Resolution::HdPlus => 1600,
            Resolution::Fhd => 1920,
            Resolution::Qhd => 2560,
            Resolution::Kitti => 1242,
        }
    }

    /// Height in pixels.
    pub(crate) fn height(self) -> usize {
        match self {
            Resolution::Hhd => 360,
            Resolution::Hd => 720,
            Resolution::HdPlus => 900,
            Resolution::Fhd => 1080,
            Resolution::Qhd => 1440,
            Resolution::Kitti => 375,
        }
    }

    /// Total pixels per frame.
    pub fn pixels(self) -> usize {
        self.width() * self.height()
    }

    /// Pixel-count ratio relative to another resolution — the
    /// first-order compute scaling factor for the DNN engines.
    pub fn scale_from(self, base: Resolution) -> f64 {
        self.pixels() as f64 / base.pixels() as f64
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Resolution::Hhd => "HHD",
            Resolution::Hd => "HD (720p)",
            Resolution::HdPlus => "HD+",
            Resolution::Fhd => "FHD (1080p)",
            Resolution::Qhd => "QHD (1440p)",
            Resolution::Kitti => "KITTI",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ascending() {
        for pair in Resolution::SWEEP.windows(2) {
            assert!(pair[0].pixels() < pair[1].pixels());
        }
    }

    #[test]
    fn dimensions_match_standards() {
        assert_eq!((Resolution::Fhd.width(), Resolution::Fhd.height()), (1920, 1080));
        assert_eq!(Resolution::Kitti.pixels(), 1242 * 375);
    }

    #[test]
    fn scale_from_self_is_one() {
        assert_eq!(Resolution::Hd.scale_from(Resolution::Hd), 1.0);
        assert!(Resolution::Qhd.scale_from(Resolution::Hhd) > 15.9);
    }

    #[test]
    fn display_nonempty() {
        for r in Resolution::SWEEP {
            assert!(!r.to_string().is_empty());
        }
    }
}
