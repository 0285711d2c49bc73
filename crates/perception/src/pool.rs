use crate::tracker::Tracker;
use adsim_dnn::detection::{BBox, Detection, ObjectClass};
use adsim_runtime::Runtime;
use adsim_vision::GrayImage;
use std::collections::HashMap;

/// One row of the tracked-object table (paper §3.1.2: "we implement a
/// tracked object table to store the objects that are being tracked
/// currently").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedObject {
    /// Stable track identity.
    pub track_id: u64,
    /// Object class from the associating detections.
    pub class: ObjectClass,
    /// Current box estimate in normalized image coordinates.
    pub bbox: BBox,
    /// Frames since this track was associated with a detection.
    pub frames_missing: u32,
    /// Total frames this track has existed.
    pub age: u64,
}

/// Tracker-pool tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerPoolConfig {
    /// Maximum simultaneous trackers (the pre-launched pool size).
    pub capacity: usize,
    /// A track is dropped after this many consecutive frames without a
    /// supporting detection (paper: ten consecutive images).
    pub miss_limit: u32,
}

impl Default for TrackerPoolConfig {
    fn default() -> Self {
        Self { capacity: 32, miss_limit: 10 }
    }
}

/// Minimum detection/track IoU for association.
const MIN_IOU: f32 = 0.25;

/// Factory building a tracker anchored on a detection.
type TrackerFactory = Box<dyn FnMut(&GrayImage, BBox) -> Box<dyn Tracker> + Send>;

/// A deep copy of a [`TrackerPool`]'s mutable state, captured by
/// [`TrackerPool::snapshot`] for the crash-recovery checkpoint layer.
/// Rows are held sorted by track id so snapshot contents are a pure
/// function of the table, never of hash-map iteration order.
#[derive(Clone)]
pub struct TrackerPoolSnapshot {
    cfg: TrackerPoolConfig,
    tracks: Vec<(u64, Box<dyn Tracker>, TrackedObject)>,
    next_id: u64,
}

impl TrackerPoolSnapshot {
    /// Live tracks captured in the snapshot.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// True when no tracks were live at capture time.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }
}

impl std::fmt::Debug for TrackerPoolSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackerPoolSnapshot")
            .field("tracks", &self.tracks.len())
            .field("next_id", &self.next_id)
            .finish()
    }
}

/// The paper's TRA engine: a pool of single-object trackers fed by the
/// detector, with a tracked-object table and ten-frame expiry.
///
/// Each frame: every active tracker advances; detections are greedily
/// associated to tracks by IoU; associated tracks are corrected and
/// refreshed; unassociated detections claim idle trackers; tracks
/// missing for [`TrackerPoolConfig::miss_limit`] consecutive frames
/// are removed and their tracker returned to the idle pool.
pub struct TrackerPool {
    factory: TrackerFactory,
    cfg: TrackerPoolConfig,
    tracks: HashMap<u64, (Box<dyn Tracker>, TrackedObject)>,
    next_id: u64,
    runtime: Runtime,
}

impl std::fmt::Debug for TrackerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackerPool")
            .field("active", &self.tracks.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl TrackerPool {
    /// Creates a pool that builds trackers with `factory`.
    pub fn new(
        cfg: TrackerPoolConfig,
        factory: impl FnMut(&GrayImage, BBox) -> Box<dyn Tracker> + Send + 'static,
    ) -> Self {
        Self {
            factory: Box::new(factory),
            cfg,
            tracks: HashMap::new(),
            next_id: 0,
            runtime: Runtime::serial(),
        }
    }

    /// Advances per-track updates on the given worker pool. Track
    /// updates are independent (each tracker reads the shared frame and
    /// writes only its own state), and association runs afterwards on
    /// the deterministically sorted pair list, so the table is
    /// identical on any thread count.
    #[must_use]
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Number of active tracks.
    pub fn active(&self) -> usize {
        self.tracks.len()
    }

    /// The current pool capacity.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Resizes the pool mid-run (the anytime governor's tracker knob),
    /// clamped to at least one slot. Shrinking below the active track
    /// count deterministically evicts the newest tracks (highest ids)
    /// — the oldest, longest-confirmed tracks survive — so the table
    /// after a shrink is a pure function of the table before it.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.cfg.capacity = capacity.max(1);
        if self.tracks.len() > self.cfg.capacity {
            let mut ids: Vec<u64> = self.tracks.keys().copied().collect();
            ids.sort_unstable();
            for id in ids.into_iter().skip(self.cfg.capacity) {
                self.tracks.remove(&id);
            }
        }
    }

    /// The tracked-object table, sorted by track id.
    pub(crate) fn table(&self) -> Vec<TrackedObject> {
        let mut rows: Vec<TrackedObject> = self.tracks.values().map(|(_, t)| *t).collect();
        rows.sort_by_key(|t| t.track_id);
        rows
    }

    /// A deep snapshot of the pool's mutable state: every live tracker
    /// (via [`Tracker::boxed_clone`]), its table row, the id counter
    /// and the active capacity. The factory and runtime are
    /// construction-time state and stay with the pool.
    pub fn snapshot(&self) -> TrackerPoolSnapshot {
        let mut tracks: Vec<(u64, Box<dyn Tracker>, TrackedObject)> = self
            .tracks
            .iter()
            .map(|(id, (tracker, obj))| (*id, tracker.boxed_clone(), *obj))
            .collect();
        tracks.sort_by_key(|(id, _, _)| *id);
        TrackerPoolSnapshot { cfg: self.cfg, tracks, next_id: self.next_id }
    }

    /// Restores a [`TrackerPool::snapshot`]: the pool resumes
    /// bit-identically from the snapshot's state. The snapshot is
    /// reusable (restoring clones out of it).
    pub fn restore(&mut self, snap: &TrackerPoolSnapshot) {
        self.cfg = snap.cfg;
        self.next_id = snap.next_id;
        self.tracks = snap
            .tracks
            .iter()
            .map(|(id, tracker, obj)| (*id, (tracker.boxed_clone(), *obj)))
            .collect();
    }

    /// Advances the pool by one frame.
    ///
    /// `detections` are this frame's detector outputs; the returned
    /// table reflects all updates, associations and expiries.
    pub fn step(&mut self, frame: &GrayImage, detections: &[Detection]) -> Vec<TrackedObject> {
        // 1. Advance every tracker ("predict the trajectories of
        //    moving objects"). Updates are independent, so they fan
        //    out one-per-worker-task over the pool's runtime; the
        //    track-id sort pins the task order so scheduling is a pure
        //    function of the table contents.
        {
            let _sp = adsim_trace::span("tra.update");
            let mut entries: Vec<&mut (Box<dyn Tracker>, TrackedObject)> =
                self.tracks.values_mut().collect();
            entries.sort_by_key(|(_, obj)| obj.track_id);
            let rt = if entries.len() >= 2 { self.runtime } else { Runtime::serial() };
            rt.par_chunks_mut(&mut entries, 1, |_, slot| {
                let (tracker, obj) = &mut *slot[0];
                obj.bbox = tracker.update(frame);
                obj.age += 1;
                obj.frames_missing += 1;
            });
        }
        let _sp = adsim_trace::span("tra.associate");

        // 2. Greedy association, best pairs first. Primary criterion
        //    is IoU; when a tracker has drifted enough that the boxes
        //    no longer overlap, a center-distance fallback (within one
        //    box diameter) still re-associates rather than spawning a
        //    duplicate track.
        let mut pairs: Vec<(usize, u64, f32)> = Vec::new();
        for (di, d) in detections.iter().enumerate() {
            for (id, (_, obj)) in &self.tracks {
                if d.class != obj.class {
                    continue;
                }
                let iou = d.bbox.iou(&obj.bbox);
                let dist = d.bbox.center_distance(&obj.bbox);
                let limit = d.bbox.w.max(d.bbox.h);
                let score = if iou >= MIN_IOU {
                    iou
                } else if dist <= limit {
                    // Ranks below every true IoU match, above zero.
                    0.5 * MIN_IOU * (1.0 - dist / limit)
                } else {
                    continue;
                };
                pairs.push((di, *id, score));
            }
        }
        // Score-tied pairs are ordered by (detection, track) index so
        // association never depends on hash-map iteration order — the
        // pipeline output is a pure function of its inputs.
        pairs.sort_by(|a, b| {
            b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)).then_with(|| a.1.cmp(&b.1))
        });
        let mut det_used = vec![false; detections.len()];
        let mut track_used: Vec<u64> = Vec::new();
        for (di, id, _) in pairs {
            if det_used[di] || track_used.contains(&id) {
                continue;
            }
            det_used[di] = true;
            track_used.push(id);
            let (tracker, obj) = self.tracks.get_mut(&id).expect("id from iteration");
            tracker.correct(frame, detections[di].bbox);
            obj.bbox = detections[di].bbox;
            obj.frames_missing = 0;
        }

        // 3. New tracks for unmatched detections, pool capacity
        //    permitting.
        for (di, d) in detections.iter().enumerate() {
            if det_used[di] || self.tracks.len() >= self.cfg.capacity {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            let tracker = (self.factory)(frame, d.bbox);
            self.tracks.insert(
                id,
                (
                    tracker,
                    TrackedObject {
                        track_id: id,
                        class: d.class,
                        bbox: d.bbox,
                        frames_missing: 0,
                        age: 0,
                    },
                ),
            );
        }

        // 4. Expire stale tracks (ten consecutive missing frames).
        let limit = self.cfg.miss_limit;
        self.tracks.retain(|_, (_, obj)| obj.frames_missing < limit);

        self.table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::TemplateTracker;

    fn pool(cfg: TrackerPoolConfig) -> TrackerPool {
        TrackerPool::new(cfg, |frame, bbox| Box::new(TemplateTracker::new(frame, bbox)))
    }

    fn det(cx: f32, cy: f32, class: ObjectClass) -> Detection {
        Detection { bbox: BBox::new(cx, cy, 0.1, 0.1), class, score: 0.9 }
    }

    fn frame() -> GrayImage {
        // Locally unique texture so template tracking has an
        // unambiguous optimum at zero displacement.
        GrayImage::from_fn(160, 120, |x, y| {
            let mut h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 31;
            h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 29;
            (h % 60) as u8
        })
    }

    #[test]
    fn detections_create_tracks_up_to_capacity() {
        let mut p = pool(TrackerPoolConfig { capacity: 2, ..Default::default() });
        let dets = vec![
            det(0.2, 0.2, ObjectClass::Vehicle),
            det(0.5, 0.5, ObjectClass::Pedestrian),
            det(0.8, 0.8, ObjectClass::Bicycle),
        ];
        let table = p.step(&frame(), &dets);
        assert_eq!(table.len(), 2, "capacity caps the pool");
    }

    #[test]
    fn association_keeps_track_identity() {
        let mut p = pool(TrackerPoolConfig::default());
        let t0 = p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        let id = t0[0].track_id;
        // Slightly moved detection: must associate, not spawn.
        let t1 = p.step(&frame(), &[det(0.32, 0.3, ObjectClass::Vehicle)]);
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].track_id, id);
        assert_eq!(t1[0].frames_missing, 0);
    }

    #[test]
    fn class_mismatch_prevents_association() {
        let mut p = pool(TrackerPoolConfig::default());
        p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        let t = p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Pedestrian)]);
        assert_eq!(t.len(), 2, "same place, different class -> two tracks");
    }

    #[test]
    fn tracks_expire_after_miss_limit() {
        let mut p = pool(TrackerPoolConfig { miss_limit: 3, ..Default::default() });
        p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        assert_eq!(p.active(), 1);
        // 2 frames missing: still alive; 3rd: expired.
        p.step(&frame(), &[]);
        p.step(&frame(), &[]);
        assert_eq!(p.active(), 1);
        p.step(&frame(), &[]);
        assert_eq!(p.active(), 0);
    }

    #[test]
    fn paper_default_is_ten_frame_expiry() {
        assert_eq!(TrackerPoolConfig::default().miss_limit, 10);
    }

    #[test]
    fn redetection_resets_missing_counter() {
        let mut p = pool(TrackerPoolConfig { miss_limit: 3, ..Default::default() });
        p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        p.step(&frame(), &[]);
        p.step(&frame(), &[]);
        // Re-detected just in time.
        let t = p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].frames_missing, 0);
        p.step(&frame(), &[]);
        assert_eq!(p.active(), 1, "counter was reset");
    }

    #[test]
    fn freed_capacity_is_reused() {
        let mut p = pool(TrackerPoolConfig { capacity: 1, miss_limit: 1 });
        p.step(&frame(), &[det(0.2, 0.2, ObjectClass::Vehicle)]);
        // Expire it, then a new object claims the slot.
        p.step(&frame(), &[]);
        let t = p.step(&frame(), &[det(0.8, 0.8, ObjectClass::Bicycle)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].class, ObjectClass::Bicycle);
    }

    #[test]
    fn parallel_updates_are_bit_identical_across_thread_counts() {
        let signature = |p: &mut TrackerPool| -> Vec<(u64, [u32; 4], u32, u64)> {
            // A multi-frame scenario with association churn: objects
            // drift, one disappears, a new one appears.
            let mut out = Vec::new();
            let f = frame();
            for step in 0..6u32 {
                let s = step as f32 * 0.02;
                let mut dets = vec![
                    det(0.2 + s, 0.2, ObjectClass::Vehicle),
                    det(0.6, 0.6 - s, ObjectClass::Pedestrian),
                ];
                if step < 3 {
                    dets.push(det(0.8, 0.3 + s, ObjectClass::Bicycle));
                }
                if step >= 4 {
                    dets.push(det(0.4, 0.8, ObjectClass::Vehicle));
                }
                for t in p.step(&f, &dets) {
                    out.push((
                        t.track_id,
                        [
                            t.bbox.cx.to_bits(),
                            t.bbox.cy.to_bits(),
                            t.bbox.w.to_bits(),
                            t.bbox.h.to_bits(),
                        ],
                        t.frames_missing,
                        t.age,
                    ));
                }
            }
            out
        };
        let mut serial = pool(TrackerPoolConfig::default());
        let expect = signature(&mut serial);
        for threads in [1usize, 2, 8] {
            let mut par = pool(TrackerPoolConfig::default())
                .with_runtime(adsim_runtime::Runtime::new(threads));
            assert_eq!(signature(&mut par), expect, "threads={threads}");
        }
    }

    #[test]
    fn shrinking_capacity_evicts_newest_tracks_first() {
        let mut p = pool(TrackerPoolConfig::default());
        let f = frame();
        p.step(&f, &[det(0.2, 0.2, ObjectClass::Vehicle)]);
        p.step(
            &f,
            &[
                det(0.2, 0.2, ObjectClass::Vehicle),
                det(0.5, 0.5, ObjectClass::Pedestrian),
                det(0.8, 0.8, ObjectClass::Bicycle),
            ],
        );
        assert_eq!(p.active(), 3);
        p.set_capacity(2);
        let ids: Vec<u64> = p.table().iter().map(|t| t.track_id).collect();
        assert_eq!(ids, vec![0, 1], "oldest tracks survive the shrink");
        assert_eq!(p.capacity(), 2);
        // Growing back re-opens slots for new detections.
        p.set_capacity(32);
        let t = p.step(&f, &[det(0.8, 0.8, ObjectClass::Bicycle)]);
        assert_eq!(t.len(), 3);
        // Zero clamps to one slot rather than an unusable pool.
        p.set_capacity(0);
        assert_eq!(p.capacity(), 1);
        assert_eq!(p.active(), 1);
    }

    #[test]
    fn ages_accumulate() {
        let mut p = pool(TrackerPoolConfig::default());
        p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        for _ in 0..5 {
            p.step(&frame(), &[det(0.3, 0.3, ObjectClass::Vehicle)]);
        }
        assert_eq!(p.table()[0].age, 5);
    }
}

