use adsim_vision::{Descriptor, Point2};
use std::collections::HashMap;
use std::sync::Arc;

/// One mapped feature: a world position with its rBRIEF descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landmark {
    /// Stable identifier.
    pub id: u64,
    /// World position in meters.
    pub position: Point2,
    /// Appearance descriptor used for matching.
    pub descriptor: Descriptor,
}

impl Landmark {
    /// Creates a landmark.
    pub fn new(id: u64, position: Point2, descriptor: Descriptor) -> Self {
        Self { id, position, descriptor }
    }
}

/// The prior map the vehicle carries on board (paper §2.4.3): a
/// spatially indexed landmark database supporting the radius queries
/// the localizer issues around its predicted pose.
///
/// The index is a uniform grid of `CELL`-meter buckets, so `near` costs
/// O(landmarks in the queried disc) rather than O(map size) — on-board
/// maps are tens of terabytes (41 TB for the U.S.), so full scans are
/// never an option.
#[derive(Debug, Clone, Default)]
pub struct PriorMap {
    landmarks: Vec<Landmark>,
    grid: HashMap<(i64, i64), Vec<usize>>,
    next_id: u64,
}

/// Spatial-hash cell size in meters.
const CELL: f64 = 25.0;

impl PriorMap {
    /// Builds a map from landmarks.
    pub fn new(landmarks: Vec<Landmark>) -> Self {
        let mut map = Self::default();
        for lm in landmarks {
            map.insert(lm);
        }
        map
    }

    /// Creates an empty map.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// Whether the map has no landmarks.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Inserts a landmark (used by the map-update step when current
    /// surroundings differ from the prior map).
    pub(crate) fn insert(&mut self, lm: Landmark) {
        let idx = self.landmarks.len();
        self.grid.entry(Self::cell(lm.position)).or_default().push(idx);
        self.next_id = self.next_id.max(lm.id + 1);
        self.landmarks.push(lm);
    }

    /// Inserts a new landmark with a freshly allocated id, returning it.
    pub fn insert_new(&mut self, position: Point2, descriptor: Descriptor) -> u64 {
        let id = self.next_id;
        self.insert(Landmark::new(id, position, descriptor));
        id
    }

    /// Landmarks within `radius` meters of `center`.
    pub fn near(&self, center: Point2, radius: f64) -> Vec<&Landmark> {
        let mut out = Vec::new();
        let r_cells = (radius / CELL).ceil() as i64;
        let (cx, cy) = Self::cell(center);
        for gx in cx - r_cells..=cx + r_cells {
            for gy in cy - r_cells..=cy + r_cells {
                if let Some(bucket) = self.grid.get(&(gx, gy)) {
                    for &i in bucket {
                        let lm = &self.landmarks[i];
                        if lm.position.distance(&center) <= radius {
                            out.push(lm);
                        }
                    }
                }
            }
        }
        out
    }

    fn cell(p: Point2) -> (i64, i64) {
        ((p.x / CELL).floor() as i64, (p.y / CELL).floor() as i64)
    }
}

/// A prior map shared read-only across vehicles, with a private
/// per-vehicle overlay for map updates.
///
/// The paper sizes on-board maps at tens of terabytes (41 TB for the
/// U.S.) — at fleet scale the prior is the one asset that must never be
/// duplicated per vehicle. `SharedMap` keeps the immutable prior behind
/// an [`Arc`] (cloning a `SharedMap` or building many from the same
/// `Arc` shares one copy) while each vehicle's map-update insertions
/// land in its own small [`PriorMap`] overlay, preserving the
/// shared-nothing mutation model the fleet engine requires.
///
/// Queries (`near`) see prior landmarks first, then
/// overlay landmarks; overlay ids continue where the prior's allocation
/// left off, so ids stay unique across both layers.
///
/// # Examples
///
/// ```
/// use adsim_slam::{PriorMap, SharedMap};
/// use std::sync::Arc;
///
/// let prior = Arc::new(PriorMap::empty());
/// let a = SharedMap::new(Arc::clone(&prior));
/// let b = SharedMap::new(prior);
/// assert!(a.shares_prior_with(&b));
/// ```
#[derive(Debug, Clone)]
pub struct SharedMap {
    prior: Arc<PriorMap>,
    overlay: PriorMap,
}

impl SharedMap {
    /// Wraps a shared prior with an empty private overlay. Overlay id
    /// allocation starts where the prior's left off.
    pub fn new(prior: Arc<PriorMap>) -> Self {
        let overlay = PriorMap { next_id: prior.next_id, ..PriorMap::default() };
        Self { prior, overlay }
    }

    /// This vehicle's private overlay (landmarks added by map update).
    pub fn overlay(&self) -> &PriorMap {
        &self.overlay
    }

    /// Total landmarks visible to queries (prior + overlay).
    pub(crate) fn len(&self) -> usize {
        self.prior.len() + self.overlay.len()
    }

    /// Landmarks within `radius` meters of `center`: prior hits first,
    /// then overlay hits.
    pub(crate) fn near(&self, center: Point2, radius: f64) -> Vec<&Landmark> {
        let mut out = self.prior.near(center, radius);
        out.extend(self.overlay.near(center, radius));
        out
    }

    /// Inserts a new landmark into the private overlay with a freshly
    /// allocated id (unique across prior and overlay), returning it.
    pub(crate) fn insert_new(&mut self, position: Point2, descriptor: Descriptor) -> u64 {
        self.overlay.insert_new(position, descriptor)
    }

    /// Whether two shared maps point at the same prior allocation —
    /// the observable form of the fleet's map-sharing guarantee.
    pub fn shares_prior_with(&self, other: &SharedMap) -> bool {
        Arc::ptr_eq(&self.prior, &other.prior)
    }
}

impl From<PriorMap> for SharedMap {
    /// Takes sole ownership of a prior (no sharing with anyone else) —
    /// the single-vehicle construction path.
    fn from(map: PriorMap) -> Self {
        Self::new(Arc::new(map))
    }
}

impl From<Arc<PriorMap>> for SharedMap {
    fn from(prior: Arc<PriorMap>) -> Self {
        Self::new(prior)
    }
}

impl From<&Arc<PriorMap>> for SharedMap {
    fn from(prior: &Arc<PriorMap>) -> Self {
        Self::new(Arc::clone(prior))
    }
}

impl Extend<Landmark> for PriorMap {
    fn extend<T: IntoIterator<Item = Landmark>>(&mut self, iter: T) {
        for lm in iter {
            self.insert(lm);
        }
    }
}

impl FromIterator<Landmark> for PriorMap {
    fn from_iter<T: IntoIterator<Item = Landmark>>(iter: T) -> Self {
        let mut map = PriorMap::empty();
        map.extend(iter);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(id: u64, x: f64, y: f64) -> Landmark {
        Landmark::new(id, Point2::new(x, y), Descriptor::new([id as u8; 32]))
    }

    #[test]
    fn near_returns_only_in_radius() {
        let map = PriorMap::new(vec![lm(0, 0.0, 0.0), lm(1, 30.0, 0.0), lm(2, 300.0, 0.0)]);
        let hits = map.near(Point2::new(0.0, 0.0), 50.0);
        let ids: Vec<u64> = hits.iter().map(|l| l.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn near_spans_cell_boundaries() {
        // Two landmarks straddling a 25 m cell boundary.
        let map = PriorMap::new(vec![lm(0, 24.9, 0.0), lm(1, 25.1, 0.0)]);
        let hits = map.near(Point2::new(25.0, 0.0), 1.0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn near_handles_negative_coordinates() {
        let map = PriorMap::new(vec![lm(0, -100.0, -100.0)]);
        assert_eq!(map.near(Point2::new(-99.0, -99.0), 5.0).len(), 1);
    }

    #[test]
    fn insert_new_allocates_fresh_ids() {
        let mut map = PriorMap::new(vec![lm(7, 0.0, 0.0)]);
        let id = map.insert_new(Point2::new(1.0, 1.0), Descriptor::new([0; 32]));
        assert_eq!(id, 8);
        assert_eq!(map.len(), 2);
        let id2 = map.insert_new(Point2::new(2.0, 2.0), Descriptor::new([1; 32]));
        assert_eq!(id2, 9);
    }

    #[test]
    fn from_iterator_collects() {
        let map: PriorMap = (0..10).map(|i| lm(i, i as f64 * 10.0, 0.0)).collect();
        assert_eq!(map.len(), 10);
        assert_eq!(map.near(Point2::new(0.0, 0.0), 1000.0).len(), 10);
    }

    #[test]
    fn empty_map_queries_are_empty() {
        assert!(PriorMap::empty().near(Point2::new(0.0, 0.0), 100.0).is_empty());
    }

    #[test]
    fn shared_map_queries_both_layers() {
        let prior = Arc::new(PriorMap::new(vec![lm(0, 0.0, 0.0)]));
        let mut shared = SharedMap::new(prior);
        shared.insert_new(Point2::new(1.0, 0.0), Descriptor::new([9; 32]));
        let hits = shared.near(Point2::new(0.0, 0.0), 5.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0, "prior hits come first");
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn shared_map_ids_continue_past_prior() {
        let prior = Arc::new(PriorMap::new(vec![lm(7, 0.0, 0.0)]));
        let mut a = SharedMap::new(Arc::clone(&prior));
        let mut b = SharedMap::new(prior);
        // Both vehicles allocate from the prior's watermark into their
        // own overlays; ids are unique within each vehicle's view.
        assert_eq!(a.insert_new(Point2::new(1.0, 1.0), Descriptor::new([0; 32])), 8);
        assert_eq!(b.insert_new(Point2::new(2.0, 2.0), Descriptor::new([1; 32])), 8);
        assert_eq!(a.insert_new(Point2::new(3.0, 3.0), Descriptor::new([2; 32])), 9);
    }

    #[test]
    fn shared_map_overlay_is_private() {
        let prior = Arc::new(PriorMap::new(vec![lm(0, 0.0, 0.0)]));
        let mut a = SharedMap::new(Arc::clone(&prior));
        let b = SharedMap::new(Arc::clone(&prior));
        a.insert_new(Point2::new(1.0, 0.0), Descriptor::new([5; 32]));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1, "b never sees a's insertions");
        assert!(a.shares_prior_with(&b), "but both share one prior allocation");
        assert_eq!(prior.len(), 1, "the prior itself is untouched");
    }

    #[test]
    fn shared_map_from_owned_prior_does_not_share() {
        let a: SharedMap = PriorMap::new(vec![lm(0, 0.0, 0.0)]).into();
        let b: SharedMap = PriorMap::new(vec![lm(0, 0.0, 0.0)]).into();
        assert!(!a.shares_prior_with(&b));
    }
}
