//! Evaluation metrics: accuracy (with label-permutation tolerance after
//! unsupervised retraining), detection delay, and false positives.

/// Accuracy over `(truth, predicted)` pairs with optional permutation
/// tolerance for two-class problems.
///
/// After an *unsupervised* model reconstruction the cluster-to-label
/// assignment is arbitrary: instance 0 may now hold what ground truth calls
/// class 1. Standard clustering-accuracy practice scores the best label
/// permutation; for the two-class datasets used here that means
/// `max(direct, swapped)` within each retraining epoch. `epochs` splits the
/// stream at retraining completion points so one permutation is chosen per
/// epoch (a method cannot flip its labelling mid-epoch).
pub fn epoch_permutation_accuracy(
    truth: &[usize],
    predicted: &[usize],
    classes: usize,
    retraining_points: &[usize],
) -> f64 {
    assert_eq!(truth.len(), predicted.len());
    if truth.is_empty() {
        return 0.0;
    }
    if classes != 2 {
        // Direct accuracy for C != 2 (the paper only evaluates C = 2).
        let correct = truth
            .iter()
            .zip(predicted.iter())
            .filter(|(t, p)| t == p)
            .count();
        return correct as f64 / truth.len() as f64;
    }
    let mut boundaries: Vec<usize> = Vec::with_capacity(retraining_points.len() + 2);
    boundaries.push(0);
    for &p in retraining_points {
        let b = (p + 1).min(truth.len());
        if b > *boundaries.last().unwrap() {
            boundaries.push(b);
        }
    }
    if *boundaries.last().unwrap() < truth.len() {
        boundaries.push(truth.len());
    }
    let mut correct = 0usize;
    for pair in boundaries.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let direct = truth[lo..hi]
            .iter()
            .zip(&predicted[lo..hi])
            .filter(|(t, p)| t == p)
            .count();
        let swapped = (hi - lo) - direct;
        correct += direct.max(swapped);
    }
    correct as f64 / truth.len() as f64
}

/// Plain accuracy (no permutation tolerance).
pub fn accuracy(truth: &[usize], predicted: &[usize]) -> f64 {
    epoch_permutation_accuracy(truth, predicted, usize::MAX, &[])
}

/// Windowed accuracy series for Figure-4-style plots: one `(window_end,
/// accuracy)` point per `window` samples, permutation-tolerant per window.
pub fn windowed_accuracy(
    truth: &[usize],
    predicted: &[usize],
    classes: usize,
    window: usize,
) -> Vec<(usize, f64)> {
    assert!(window > 0);
    let mut out = Vec::new();
    let mut start = 0;
    while start < truth.len() {
        let end = (start + window).min(truth.len());
        let acc =
            epoch_permutation_accuracy(&truth[start..end], &predicted[start..end], classes, &[]);
        out.push((end, acc));
        start = end;
    }
    out
}

/// Detection delay: samples between the true drift onset and the first
/// detection at or after it. `None` when never detected after onset.
pub fn detection_delay(detections: &[usize], drift_start: usize) -> Option<usize> {
    detections
        .iter()
        .find(|&&d| d >= drift_start)
        .map(|&d| d - drift_start)
}

/// Detections strictly before the drift onset (false positives).
pub fn false_positives(detections: &[usize], drift_start: usize) -> usize {
    detections.iter().filter(|&&d| d < drift_start).count()
}

/// Mean of an f64 slice (0 when empty) — sweep aggregation helper.
pub fn mean_f64(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_accuracy() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn permutation_tolerance_scores_swapped_epoch() {
        // Perfect prediction with labels flipped.
        let truth = vec![0, 1, 0, 1];
        let pred = vec![1, 0, 1, 0];
        assert_eq!(epoch_permutation_accuracy(&truth, &pred, 2, &[]), 1.0);
    }

    #[test]
    fn permutation_chosen_per_epoch() {
        // Epoch 1 (samples 0..3): direct. Retraining completes at index 2.
        // Epoch 2 (samples 3..6): flipped.
        let truth = vec![0, 1, 0, 0, 1, 0];
        let pred = vec![0, 1, 0, 1, 0, 1];
        let acc = epoch_permutation_accuracy(&truth, &pred, 2, &[2]);
        assert_eq!(acc, 1.0);
        // Without the epoch split, one global permutation cannot fix both.
        let global = epoch_permutation_accuracy(&truth, &pred, 2, &[]);
        assert!(global < 1.0);
    }

    #[test]
    fn permutation_never_scores_below_half_per_epoch() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![1, 0, 0, 1];
        assert_eq!(epoch_permutation_accuracy(&truth, &pred, 2, &[]), 0.5);
    }

    #[test]
    fn multiclass_falls_back_to_direct() {
        let truth = vec![0, 1, 2];
        let pred = vec![2, 1, 0];
        assert!((epoch_permutation_accuracy(&truth, &pred, 3, &[]) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_accuracy_buckets() {
        let truth = vec![0, 0, 0, 0, 1, 1];
        let pred = vec![0, 0, 1, 1, 1, 1];
        let w = windowed_accuracy(&truth, &pred, usize::MAX, 2);
        assert_eq!(w, vec![(2, 1.0), (4, 0.0), (6, 1.0)]);
    }

    #[test]
    fn delay_and_false_positives() {
        let detections = vec![50, 120, 300];
        assert_eq!(detection_delay(&detections, 100), Some(20));
        assert_eq!(false_positives(&detections, 100), 1);
        assert_eq!(detection_delay(&detections, 400), None);
        assert_eq!(detection_delay(&[], 0), None);
    }

    #[test]
    fn retraining_boundaries_clamped() {
        // Retraining point beyond the stream must not panic or distort.
        let truth = vec![0, 1];
        let pred = vec![0, 1];
        assert_eq!(epoch_permutation_accuracy(&truth, &pred, 2, &[10]), 1.0);
    }
}
