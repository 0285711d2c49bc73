//! Computer-vision substrate: images, ORB feature extraction and 2-D
//! geometry.
//!
//! The paper's third computational bottleneck, localization, spends
//! 85.9 % of its cycles in Feature Extraction (Fig. 7) — the oFAST
//! corner detector plus rBRIEF binary descriptor pipeline of ORB
//! (Fig. 5, Fig. 9). This crate implements that pipeline from scratch:
//!
//! * [`GrayImage`]: 8-bit grayscale images with drawing and sampling
//!   helpers used by the synthetic workload generator,
//! * [`Pyramid`]: multi-octave image pyramids,
//! * [`fast`]: FAST-9 segment-test corner detection with non-maximum
//!   suppression and intensity-centroid orientation (oFAST),
//! * [`Descriptor`]: steered 256-bit rBRIEF descriptors with the
//!   pattern lookup table the paper's FPGA/ASIC designs store on-chip,
//! * [`OrbExtractor`]: the combined extractor, reporting the cost
//!   statistics (pixels scanned, features described) that drive the
//!   platform latency models,
//! * [`geometry`]: points and SE(2) poses for localization and
//!   planning.
//!
//! # Examples
//!
//! ```
//! use adsim_vision::{GrayImage, OrbExtractor};
//!
//! let mut img = GrayImage::new(128, 96);
//! img.fill_rect(40, 30, 30, 20, 220);
//! let orb = OrbExtractor::new(200, 20);
//! let features = orb.extract(&img);
//! assert!(!features.is_empty(), "rectangle corners are detected");
//! ```

mod brief;
mod camera;
pub mod fast;
pub mod geometry;
mod image;
mod matcher;
mod orb;
mod pyramid;

pub use brief::Descriptor;
pub use camera::OrthoCamera;
pub use fast::{fast_corners, Keypoint};
pub use geometry::{Point2, Pose2};
pub use image::GrayImage;
pub use matcher::{match_descriptors, DescriptorMatch};
pub use orb::{Feature, OrbCost, OrbExtractor};
pub use pyramid::Pyramid;
