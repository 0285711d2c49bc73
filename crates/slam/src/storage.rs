//! The paper's storage constraint model (§2.4.3).
//!
//! Prior maps must live on the vehicle — connectivity cannot be
//! assumed — and maps of large environments are enormous: 41 TB for the
//! entire United States. This module scales that datapoint to arbitrary
//! coverage areas and landmark databases.

/// Storage for a prior map of the entire United States, from the
/// paper: 41 TB.
pub const US_MAP_BYTES: u64 = 41_000_000_000_000;

/// Land area of the United States in km², used to derive map density.
pub(crate) const US_AREA_KM2: f64 = 9_830_000.0;

/// Bytes of prior map per km² of coverage, derived from the paper's
/// U.S.-scale figure (≈ 4.2 MB/km²).
pub fn bytes_per_km2() -> f64 {
    US_MAP_BYTES as f64 / US_AREA_KM2
}

/// Prior-map size for a coverage area.
///
/// # Examples
///
/// ```
/// use adsim_slam::storage::map_bytes_for_area;
///
/// // A metro area of 10,000 km² needs tens of GB.
/// let bytes = map_bytes_for_area(10_000.0);
/// assert!(bytes > 10e9);
/// assert!(bytes < 100e9);
/// ```
pub fn map_bytes_for_area(area_km2: f64) -> f64 {
    assert!(area_km2 >= 0.0, "area cannot be negative");
    area_km2 * bytes_per_km2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_scale_matches_paper() {
        let b = map_bytes_for_area(US_AREA_KM2);
        let rel = (b - US_MAP_BYTES as f64).abs() / US_MAP_BYTES as f64;
        assert!(rel < 1e-9);
    }

    #[test]
    fn density_is_megabytes_per_km2() {
        let d = bytes_per_km2();
        assert!(d > 3e6 && d < 6e6, "{d}");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_area_rejected() {
        map_bytes_for_area(-1.0);
    }
}
