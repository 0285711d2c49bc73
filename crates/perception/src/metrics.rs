//! Multi-object-tracking quality metrics (CLEAR-MOT style).
//!
//! The paper selects its DET/TRA algorithms for benchmark accuracy
//! (VOC for detection, VOT for tracking — §3.1); this module provides
//! the matching machinery to score this workspace's engines against
//! the synthetic worlds' scripted ground truth.

use crate::pool::TrackedObject;
use adsim_dnn::detection::BBox;
use std::collections::HashMap;

/// A ground-truth object in one frame (identity + box).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthBox {
    /// Scripted object identity.
    pub id: u64,
    /// Normalized image box.
    pub bbox: BBox,
}

/// Accumulates CLEAR-MOT statistics over a sequence.
///
/// Per frame, tracks are greedily matched to ground truth by IoU
/// (threshold 0.3); matches, misses, false positives and identity
/// switches are accumulated into the MOTA score
/// `1 − (FN + FP + IDSW) / GT`.
///
/// # Examples
///
/// ```
/// use adsim_perception::metrics::{MotAccumulator, TruthBox};
/// use adsim_dnn::detection::BBox;
///
/// let mut acc = MotAccumulator::new(0.3);
/// // Perfect single-frame tracking of one object:
/// // (reusing the truth box as the track box).
/// let truth = [TruthBox { id: 1, bbox: BBox::new(0.5, 0.5, 0.1, 0.1) }];
/// acc.observe_boxes(&truth, &[(7, BBox::new(0.5, 0.5, 0.1, 0.1))]);
/// assert_eq!(acc.mota(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct MotAccumulator {
    iou_threshold: f32,
    truth_total: usize,
    matches: usize,
    misses: usize,
    false_positives: usize,
    id_switches: usize,
    iou_sum: f64,
    // truth id -> last associated track id
    assignments: HashMap<u64, u64>,
}

impl MotAccumulator {
    /// Creates an accumulator with the given association IoU threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1]`.
    pub fn new(iou_threshold: f32) -> Self {
        assert!(
            iou_threshold > 0.0 && iou_threshold <= 1.0,
            "IoU threshold must be in (0, 1]"
        );
        Self {
            iou_threshold,
            truth_total: 0,
            matches: 0,
            misses: 0,
            false_positives: 0,
            id_switches: 0,
            iou_sum: 0.0,
            assignments: HashMap::new(),
        }
    }

    /// Scores one frame from the tracked-object table.
    pub fn observe(&mut self, truth: &[TruthBox], tracks: &[TrackedObject]) {
        let boxes: Vec<(u64, BBox)> = tracks.iter().map(|t| (t.track_id, t.bbox)).collect();
        self.observe_boxes(truth, &boxes);
    }

    /// Scores one frame from raw `(track_id, bbox)` pairs.
    pub fn observe_boxes(&mut self, truth: &[TruthBox], tracks: &[(u64, BBox)]) {
        self.truth_total += truth.len();
        // Greedy IoU matching, best pairs first.
        let mut pairs: Vec<(usize, usize, f32)> = Vec::new();
        for (ti, t) in truth.iter().enumerate() {
            for (ki, (_, b)) in tracks.iter().enumerate() {
                let iou = t.bbox.iou(b);
                if iou >= self.iou_threshold {
                    pairs.push((ti, ki, iou));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("IoU is finite"));
        let mut truth_used = vec![false; truth.len()];
        let mut track_used = vec![false; tracks.len()];
        for (ti, ki, iou) in pairs {
            if truth_used[ti] || track_used[ki] {
                continue;
            }
            truth_used[ti] = true;
            track_used[ki] = true;
            self.matches += 1;
            self.iou_sum += iou as f64;
            let truth_id = truth[ti].id;
            let track_id = tracks[ki].0;
            if let Some(&prev) = self.assignments.get(&truth_id) {
                if prev != track_id {
                    self.id_switches += 1;
                }
            }
            self.assignments.insert(truth_id, track_id);
        }
        self.misses += truth_used.iter().filter(|&&u| !u).count();
        self.false_positives += track_used.iter().filter(|&&u| !u).count();
    }

    /// Multi-object tracking accuracy: `1 − (FN + FP + IDSW) / GT`.
    /// Can be negative for very bad trackers; 1.0 is perfect.
    /// Returns 1.0 when no ground truth has been observed.
    pub fn mota(&self) -> f64 {
        if self.truth_total == 0 {
            return 1.0;
        }
        1.0 - (self.misses + self.false_positives + self.id_switches) as f64
            / self.truth_total as f64
    }

    /// Multi-object tracking precision: mean IoU of matched pairs.
    pub fn motp(&self) -> f64 {
        if self.matches == 0 {
            0.0
        } else {
            self.iou_sum / self.matches as f64
        }
    }

    /// Fraction of ground-truth boxes that were tracked.
    pub fn recall(&self) -> f64 {
        if self.truth_total == 0 {
            1.0
        } else {
            self.matches as f64 / self.truth_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(id: u64, cx: f32) -> TruthBox {
        TruthBox { id, bbox: BBox::new(cx, 0.5, 0.1, 0.1) }
    }

    #[test]
    fn perfect_tracking_scores_one() {
        let mut acc = MotAccumulator::new(0.3);
        for _ in 0..10 {
            acc.observe_boxes(
                &[tb(1, 0.3), tb(2, 0.7)],
                &[(10, BBox::new(0.3, 0.5, 0.1, 0.1)), (20, BBox::new(0.7, 0.5, 0.1, 0.1))],
            );
        }
        assert_eq!(acc.mota(), 1.0);
        assert!(acc.motp() > 0.99);
        assert_eq!(acc.recall(), 1.0);
        assert_eq!(acc.id_switches, 0);
    }

    #[test]
    fn misses_and_false_positives_penalize() {
        let mut acc = MotAccumulator::new(0.3);
        // One truth, zero tracks: miss.
        acc.observe_boxes(&[tb(1, 0.5)], &[]);
        // Zero truth, one track: false positive.
        acc.observe_boxes(&[], &[(9, BBox::new(0.2, 0.2, 0.1, 0.1))]);
        // MOTA = 1 - (1 + 1 + 0) / 1 = -1.
        assert_eq!(acc.mota(), -1.0);
        assert_eq!(acc.false_positives, 1);
    }

    #[test]
    fn identity_switches_are_counted_once_per_change() {
        let mut acc = MotAccumulator::new(0.3);
        let b = BBox::new(0.5, 0.5, 0.1, 0.1);
        acc.observe_boxes(&[tb(1, 0.5)], &[(100, b)]);
        acc.observe_boxes(&[tb(1, 0.5)], &[(100, b)]);
        acc.observe_boxes(&[tb(1, 0.5)], &[(200, b)]); // switch
        acc.observe_boxes(&[tb(1, 0.5)], &[(200, b)]); // stable again
        assert_eq!(acc.id_switches, 1);
        // MOTA = 1 - 1/4.
        assert!((acc.mota() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn greedy_matching_prefers_higher_iou() {
        let mut acc = MotAccumulator::new(0.1);
        // Two tracks overlap one truth; the tighter one must match.
        let truth = [tb(1, 0.5)];
        let tracks = [
            (1u64, BBox::new(0.53, 0.5, 0.1, 0.1)),
            (2u64, BBox::new(0.5, 0.5, 0.1, 0.1)),
        ];
        acc.observe_boxes(&truth, &tracks);
        assert_eq!(acc.assignments[&1], 2);
        assert_eq!(acc.false_positives, 1);
    }

    #[test]
    fn empty_sequence_is_perfect() {
        let acc = MotAccumulator::new(0.5);
        assert_eq!(acc.mota(), 1.0);
        assert_eq!(acc.recall(), 1.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        MotAccumulator::new(0.0);
    }
}

/// Average precision of a scored detection set (the VOC-style metric
/// the paper's detector was selected on, §3.1.1).
///
/// `scored` holds `(confidence, is_true_positive)` per detection;
/// `total_truth` is the number of ground-truth objects. Uses
/// all-point interpolation over the precision-recall curve.
///
/// # Examples
///
/// ```
/// use adsim_perception::metrics::average_precision;
///
/// // Two truths, both found with the highest scores: AP = 1.
/// let ap = average_precision(&[(0.9, true), (0.8, true), (0.3, false)], 2);
/// assert!((ap - 1.0).abs() < 1e-9);
/// ```
pub fn average_precision(scored: &[(f32, bool)], total_truth: usize) -> f64 {
    if total_truth == 0 {
        return if scored.iter().any(|(_, tp)| *tp) { 0.0 } else { 1.0 };
    }
    let mut sorted: Vec<(f32, bool)> = scored.to_vec();
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are finite"));
    // Precision at each true-positive rank, then interpolate so the
    // precision envelope is non-increasing.
    let mut precisions = Vec::new();
    let mut recalls = Vec::new();
    let (mut tp, mut fp) = (0usize, 0usize);
    for (_, is_tp) in sorted {
        if is_tp {
            tp += 1;
        } else {
            fp += 1;
        }
        precisions.push(tp as f64 / (tp + fp) as f64);
        recalls.push(tp as f64 / total_truth as f64);
    }
    // Non-increasing precision envelope from the right.
    for i in (0..precisions.len().saturating_sub(1)).rev() {
        precisions[i] = precisions[i].max(precisions[i + 1]);
    }
    // Integrate precision over recall increments.
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for (p, r) in precisions.iter().zip(&recalls) {
        ap += p * (r - prev_recall);
        prev_recall = *r;
    }
    ap
}

#[cfg(test)]
mod ap_tests {
    use super::average_precision;

    #[test]
    fn perfect_ranking_scores_one() {
        let ap = average_precision(&[(0.9, true), (0.8, true), (0.1, false)], 2);
        assert!((ap - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missed_truths_cap_the_recall() {
        // One of two truths found: AP = 0.5 with perfect precision.
        let ap = average_precision(&[(0.9, true)], 2);
        assert!((ap - 0.5).abs() < 1e-9);
    }

    #[test]
    fn false_positives_above_true_ones_hurt() {
        let good = average_precision(&[(0.9, true), (0.5, false)], 1);
        let bad = average_precision(&[(0.9, false), (0.5, true)], 1);
        assert_eq!(good, 1.0);
        assert!((bad - 0.5).abs() < 1e-9, "precision at the hit is 1/2");
        assert!(bad < good);
    }

    #[test]
    fn interpolation_makes_precision_non_increasing() {
        // TP, FP, TP over 2 truths: raw precision dips then recovers;
        // interpolation uses the best precision to the right.
        let ap = average_precision(&[(0.9, true), (0.8, false), (0.7, true)], 2);
        // Envelope: r=0.5 at p=max(1, 2/3)=1 ... second segment p=2/3.
        assert!((ap - (0.5 * 1.0 + 0.5 * (2.0 / 3.0))).abs() < 1e-9);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(average_precision(&[], 0), 1.0);
        assert_eq!(average_precision(&[], 3), 0.0);
        assert_eq!(average_precision(&[(0.5, false)], 0), 1.0);
    }
}
