//! The proposed concept-drift detector — Algorithm 1 of the paper.
//!
//! State: per-label *trained* centroids (fixed between reconstructions) and
//! per-label *test* centroids `cor` with counts `num` that update
//! sequentially. A detection window opens when a sample's anomaly score
//! reaches `θ_error`; for the next `W` samples the predicted-label centroid
//! is updated and the summed L1 displacement `dist` between test and trained
//! centroids is refreshed; when the window closes, `dist >= θ_drift` flags a
//! drift. Everything is O(classes x dim) memory and O(dim) work per sample.

use crate::centroid::{CentroidSet, Recency};
use crate::{CoreError, Result};
use seqdrift_linalg::{vector, Real};

/// Distance used for the drift statistic (Algorithm 1 line 14 uses L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceMetric {
    /// Manhattan distance (the paper's choice).
    #[default]
    L1,
    /// Euclidean distance (ablation variant).
    L2,
}

impl DistanceMetric {
    /// Evaluates the metric between two points.
    #[inline]
    pub fn eval(self, a: &[Real], b: &[Real]) -> Real {
        match self {
            DistanceMetric::L1 => vector::dist_l1(a, b),
            DistanceMetric::L2 => vector::dist_l2(a, b),
        }
    }
}

/// Configuration of the [`CentroidDetector`].
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Number of class labels `C`.
    pub classes: usize,
    /// Feature dimensionality `D`.
    pub dim: usize,
    /// Window size `W` (paper sweeps 10–1000).
    pub window: usize,
    /// Anomaly-score gate `θ_error`: a window only opens on a sample whose
    /// score reaches this. `0.0` disables gating (every sample opens).
    pub theta_error: Real,
    /// Drift threshold `θ_drift` (usually calibrated via Eq. 1; see
    /// [`crate::threshold`]).
    pub theta_drift: Real,
    /// Distance metric for the drift statistic.
    pub metric: DistanceMetric,
    /// Recency weighting of the test centroids.
    pub recency: Recency,
}

impl DetectorConfig {
    /// Sensible defaults for `classes x dim` (window 100, L1, running mean;
    /// thresholds must still be calibrated or set).
    pub fn new(classes: usize, dim: usize) -> Self {
        DetectorConfig {
            classes,
            dim,
            window: 100,
            theta_error: 0.0,
            theta_drift: Real::INFINITY,
            metric: DistanceMetric::L1,
            recency: Recency::RunningMean,
        }
    }

    /// Sets the window size `W`.
    pub fn with_window(mut self, w: usize) -> Self {
        self.window = w;
        self
    }

    /// Sets `θ_error`.
    pub fn with_theta_error(mut self, t: Real) -> Self {
        self.theta_error = t;
        self
    }

    /// Sets `θ_drift`.
    pub fn with_theta_drift(mut self, t: Real) -> Self {
        self.theta_drift = t;
        self
    }

    /// Sets the distance metric.
    pub fn with_metric(mut self, m: DistanceMetric) -> Self {
        self.metric = m;
        self
    }

    /// Sets the recency weighting.
    pub fn with_recency(mut self, r: Recency) -> Self {
        self.recency = r;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.classes == 0 || self.dim == 0 {
            return Err(CoreError::InvalidConfig("classes and dim must be > 0"));
        }
        if self.window == 0 {
            return Err(CoreError::InvalidConfig("window must be > 0"));
        }
        if self.theta_error.is_nan() || self.theta_error < 0.0 {
            return Err(CoreError::InvalidConfig("theta_error must be >= 0"));
        }
        if self.theta_drift <= 0.0 {
            return Err(CoreError::InvalidConfig("theta_drift must be > 0"));
        }
        Ok(())
    }
}

/// What one `observe` call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorOutcome {
    /// No window open, score below `θ_error`: nothing recorded.
    Idle,
    /// A window is open (this sample may have opened it); centroids were
    /// updated; `win` samples of the current window consumed so far.
    Windowing {
        /// Samples consumed in the current window.
        win: usize,
        /// Current drift distance.
        dist: Real,
    },
    /// This sample closed a window: the drift test ran.
    Checked {
        /// Final drift distance of the window.
        dist: Real,
        /// Whether `dist >= θ_drift`.
        drift: bool,
    },
}

/// The Algorithm 1 detector.
#[derive(Debug, Clone)]
pub struct CentroidDetector {
    cfg: DetectorConfig,
    /// Trained centroids (fixed until reconstruction).
    trained: CentroidSet,
    /// Sequentially updated test centroids `cor` with counts `num`.
    test: CentroidSet,
    /// Whether a detection window is open (`check` in Algorithm 1).
    checking: bool,
    /// Samples consumed in the current window (`win`).
    win: usize,
    /// Last computed drift distance (`dist`).
    dist: Real,
    /// Total observe() calls (diagnostics).
    samples_seen: u64,
}

impl CentroidDetector {
    /// Builds a detector from trained centroids.
    ///
    /// `trained` supplies both the reference centroids and the initial test
    /// centroids/counts (the paper initialises `cor`/`num` from training).
    pub fn new(cfg: DetectorConfig, trained: CentroidSet) -> Result<Self> {
        cfg.validate()?;
        if trained.classes() != cfg.classes || trained.dim() != cfg.dim {
            return Err(CoreError::InvalidConfig(
                "trained centroid shape does not match config",
            ));
        }
        Ok(CentroidDetector {
            test: trained.clone(),
            trained,
            cfg,
            checking: false,
            win: 0,
            dist: 0.0,
            samples_seen: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Trained (reference) centroids.
    pub fn trained_centroids(&self) -> &CentroidSet {
        &self.trained
    }

    /// Current test centroids.
    pub fn test_centroids(&self) -> &CentroidSet {
        &self.test
    }

    /// Whether a detection window is currently open.
    pub fn is_checking(&self) -> bool {
        self.checking
    }

    /// Samples consumed by the current (or, once closed, the last)
    /// window: Algorithm 1's `win`.
    pub fn window_fill(&self) -> usize {
        self.win
    }

    /// Last computed drift distance.
    pub fn last_distance(&self) -> Real {
        self.dist
    }

    /// Total samples observed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Feeds one sample: its predicted label `c` and anomaly score `error`
    /// (lines 6–19 of Algorithm 1; prediction itself happens in the
    /// pipeline).
    pub fn observe(&mut self, label: usize, x: &[Real], error: Real) -> Result<DetectorOutcome> {
        if label >= self.cfg.classes {
            return Err(CoreError::BadLabel {
                classes: self.cfg.classes,
                label,
            });
        }
        if x.len() != self.cfg.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.cfg.dim,
                got: x.len(),
            });
        }
        self.samples_seen += 1;

        if !self.checking {
            if error >= self.cfg.theta_error {
                // Lines 8–10: open a window; this sample participates.
                self.checking = true;
                self.win = 0;
            } else {
                return Ok(DetectorOutcome::Idle);
            }
        }

        // Lines 11–15: sequential centroid update and distance refresh.
        self.test.update_with(label, x, self.cfg.recency)?;
        self.dist = self.test.distance_to(&self.trained, self.cfg.metric);
        self.win += 1;

        // Lines 16–19: close the window and test.
        if self.win >= self.cfg.window {
            self.checking = false;
            let drift = self.dist >= self.cfg.theta_drift;
            return Ok(DetectorOutcome::Checked {
                dist: self.dist,
                drift,
            });
        }
        Ok(DetectorOutcome::Windowing {
            win: self.win,
            dist: self.dist,
        })
    }

    /// Rebuilds a detector from persisted state (see `crate::persist`):
    /// explicit trained and test centroid sets, the lifetime sample
    /// counter, and Algorithm 1's window state `checking`/`win`. An open
    /// window holds `1 <= win < window` samples; a closed one holds at most
    /// `window`. The drift distance is recomputed from the restored sets,
    /// which is the value the live detector last computed: the sets only
    /// change where the distance is refreshed.
    pub fn restore(
        cfg: DetectorConfig,
        trained: CentroidSet,
        test: CentroidSet,
        samples_seen: u64,
        checking: bool,
        win: usize,
    ) -> Result<Self> {
        cfg.validate()?;
        for set in [&trained, &test] {
            if set.classes() != cfg.classes || set.dim() != cfg.dim {
                return Err(CoreError::InvalidConfig(
                    "restore: centroid shape does not match config",
                ));
            }
        }
        let win_ok = if checking {
            (1..cfg.window).contains(&win)
        } else {
            win <= cfg.window
        };
        if !win_ok {
            return Err(CoreError::InvalidConfig(
                "restore: window fill out of range",
            ));
        }
        let dist = test.distance_to(&trained, cfg.metric);
        Ok(CentroidDetector {
            trained,
            test,
            cfg,
            checking,
            win,
            dist,
            samples_seen,
        })
    }

    /// Replaces the reference state after a model reconstruction: new
    /// trained centroids/counts, test centroids re-seeded from them, and a
    /// fresh `θ_drift`.
    pub fn rebase(&mut self, trained: CentroidSet, theta_drift: Real) -> Result<()> {
        if trained.classes() != self.cfg.classes || trained.dim() != self.cfg.dim {
            return Err(CoreError::InvalidConfig(
                "rebase centroid shape does not match config",
            ));
        }
        if theta_drift <= 0.0 {
            return Err(CoreError::InvalidConfig("theta_drift must be > 0"));
        }
        self.test = trained.clone();
        self.trained = trained;
        self.cfg.theta_drift = theta_drift;
        self.checking = false;
        self.win = 0;
        self.dist = 0.0;
        Ok(())
    }

    /// Resident scalars: two centroid sets plus O(1) bookkeeping. This is
    /// the number Table 4 compares against the batch detectors' buffers.
    pub fn memory_scalars(&self) -> usize {
        self.trained.memory_scalars() + self.test.memory_scalars() + 4
    }

    /// Drift localisation: the `top_k` feature dimensions contributing most
    /// to the current drift distance (summed per-dimension |test − trained|
    /// over all labels), largest first.
    ///
    /// When a drift fires, this tells an operator *which sensors moved* —
    /// e.g. which spectral bins of a fan, or which flow features of the
    /// intrusion stream — at O(C·D) cost and no extra state.
    pub fn dimension_contributions(&self, top_k: usize) -> Vec<(usize, Real)> {
        let mut contrib = vec![0.0 as Real; self.cfg.dim];
        for c in 0..self.cfg.classes {
            let t = self.trained.centroid(c).expect("class in range");
            let s = self.test.centroid(c).expect("class in range");
            for (slot, (&a, &b)) in contrib.iter_mut().zip(s.iter().zip(t.iter())) {
                *slot += (a - b).abs();
            }
        }
        let mut indexed: Vec<(usize, Real)> = contrib.into_iter().enumerate().collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite contributions"));
        indexed.truncate(top_k);
        indexed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_set() -> CentroidSet {
        let mut s = CentroidSet::zeros(2, 2);
        s.set_centroid(0, &[0.0, 0.0]).unwrap();
        s.set_centroid(1, &[1.0, 1.0]).unwrap();
        // Pretend 100 training samples per class so running-mean updates
        // move slowly, like after real initial training.
        s.set_count(0, 100);
        s.set_count(1, 100);
        s
    }

    fn detector(window: usize, theta_error: Real, theta_drift: Real) -> CentroidDetector {
        let cfg = DetectorConfig::new(2, 2)
            .with_window(window)
            .with_theta_error(theta_error)
            .with_theta_drift(theta_drift);
        CentroidDetector::new(cfg, trained_set()).unwrap()
    }

    #[test]
    fn config_validation() {
        let t = trained_set();
        assert!(CentroidDetector::new(DetectorConfig::new(0, 2), t.clone()).is_err());
        assert!(
            CentroidDetector::new(DetectorConfig::new(2, 2).with_window(0), t.clone()).is_err()
        );
        assert!(
            CentroidDetector::new(DetectorConfig::new(2, 2).with_theta_drift(-1.0), t.clone())
                .is_err()
        );
        // Shape mismatch.
        assert!(CentroidDetector::new(DetectorConfig::new(3, 2).with_theta_drift(1.0), t).is_err());
    }

    #[test]
    fn idle_below_error_gate() {
        let mut d = detector(5, 0.5, 10.0);
        for _ in 0..20 {
            let o = d.observe(0, &[0.0, 0.0], 0.1).unwrap();
            assert_eq!(o, DetectorOutcome::Idle);
        }
        assert!(!d.is_checking());
        // Test centroids untouched while idle.
        assert_eq!(d.test_centroids().count(0), 100);
    }

    #[test]
    fn gate_opens_window_and_counts_to_w() {
        let mut d = detector(3, 0.5, 1000.0);
        // Trigger sample participates in the window (win = 1 after it).
        match d.observe(0, &[0.0, 0.0], 0.9).unwrap() {
            DetectorOutcome::Windowing { win, .. } => assert_eq!(win, 1),
            o => panic!("{o:?}"),
        }
        // Scores are ignored while the window is open.
        match d.observe(0, &[0.0, 0.0], 0.0).unwrap() {
            DetectorOutcome::Windowing { win, .. } => assert_eq!(win, 2),
            o => panic!("{o:?}"),
        }
        match d.observe(0, &[0.0, 0.0], 0.0).unwrap() {
            DetectorOutcome::Checked { drift, .. } => assert!(!drift),
            o => panic!("{o:?}"),
        }
        assert!(!d.is_checking());
    }

    #[test]
    fn detects_displaced_centroid() {
        // Window 10, drift threshold 0.1: stream far-away samples labelled
        // 1 so cor[1] moves away from trained[1].
        let mut d = detector(10, 0.0, 0.1);
        let mut last = DetectorOutcome::Idle;
        for _ in 0..10 {
            last = d.observe(1, &[5.0, 5.0], 1.0).unwrap();
        }
        match last {
            DetectorOutcome::Checked { dist, drift } => {
                assert!(drift);
                // 10 new samples at (5,5) against count 100 at (1,1):
                // centroid moves by 10/110 * 4 per dim -> L1 ≈ 0.72.
                assert!((dist - 8.0 * 10.0 / 110.0).abs() < 1e-3, "dist {dist}");
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn distance_accumulates_across_windows() {
        // The paper's key behaviour: cor/num persist, so repeated windows
        // keep pushing the test centroid and dist grows monotonically under
        // a sustained shift.
        let mut d = detector(5, 0.0, 1e9);
        let mut dists = Vec::new();
        for _ in 0..10 {
            for _ in 0..5 {
                if let DetectorOutcome::Checked { dist, .. } =
                    d.observe(1, &[5.0, 5.0], 1.0).unwrap()
                {
                    dists.push(dist);
                }
            }
        }
        assert_eq!(dists.len(), 10);
        for pair in dists.windows(2) {
            assert!(pair[1] > pair[0], "dist not accumulating: {dists:?}");
        }
    }

    #[test]
    fn stationary_stream_keeps_distance_small() {
        let mut d = detector(10, 0.0, 0.5);
        let mut rng = seqdrift_linalg::Rng::seed_from(3);
        let mut drifts = 0;
        for i in 0..500 {
            let label = i % 2;
            let base = label as Real;
            let x = [rng.normal(base, 0.05), rng.normal(base, 0.05)];
            if let DetectorOutcome::Checked { drift, .. } = d.observe(label, &x, 1.0).unwrap() {
                drifts += u32::from(drift);
            }
        }
        assert_eq!(drifts, 0);
        assert!(d.last_distance() < 0.2, "dist {}", d.last_distance());
    }

    #[test]
    fn smaller_window_checks_more_often() {
        let run = |w: usize| -> usize {
            let mut d = detector(w, 0.0, 1e9);
            let mut checks = 0;
            for _ in 0..100 {
                if matches!(
                    d.observe(0, &[0.0, 0.0], 1.0).unwrap(),
                    DetectorOutcome::Checked { .. }
                ) {
                    checks += 1;
                }
            }
            checks
        };
        assert_eq!(run(10), 10);
        assert_eq!(run(50), 2);
    }

    #[test]
    fn rebase_resets_reference_and_threshold() {
        let mut d = detector(5, 0.0, 0.01);
        for _ in 0..5 {
            d.observe(1, &[5.0, 5.0], 1.0).unwrap();
        }
        assert!(d.last_distance() > 0.0);
        let mut new_trained = CentroidSet::zeros(2, 2);
        new_trained.set_centroid(0, &[0.0, 0.0]).unwrap();
        new_trained.set_centroid(1, &[5.0, 5.0]).unwrap();
        new_trained.set_count(0, 10);
        new_trained.set_count(1, 10);
        d.rebase(new_trained, 2.0).unwrap();
        assert_eq!(d.last_distance(), 0.0);
        assert!(!d.is_checking());
        assert_eq!(d.config().theta_drift, 2.0);
        // Post-rebase, samples near the new centroid do not re-trigger.
        let mut drifted = false;
        for _ in 0..5 {
            if let DetectorOutcome::Checked { drift, .. } = d.observe(1, &[5.0, 5.0], 1.0).unwrap()
            {
                drifted = drift;
            }
        }
        assert!(!drifted);
    }

    #[test]
    fn bad_inputs_rejected() {
        let mut d = detector(5, 0.0, 1.0);
        assert!(matches!(
            d.observe(7, &[0.0, 0.0], 1.0),
            Err(CoreError::BadLabel { .. })
        ));
        assert!(matches!(
            d.observe(0, &[0.0], 1.0),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn memory_constant_in_stream_length() {
        let mut d = detector(10, 0.0, 1e9);
        let before = d.memory_scalars();
        for _ in 0..5000 {
            d.observe(0, &[0.1, 0.1], 1.0).unwrap();
        }
        assert_eq!(d.memory_scalars(), before);
        // 2 sets x (2 classes x 2 dims + 2 counts) + 4.
        assert_eq!(before, 2 * 6 + 4);
    }

    #[test]
    fn dimension_contributions_localise_the_drift() {
        // Shift only dimension 1: it must dominate the contributions.
        let mut d = detector(100, 0.0, 1e9);
        for _ in 0..50 {
            d.observe(1, &[1.0, 4.0], 1.0).unwrap();
        }
        let top = d.dimension_contributions(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1, "dimension 1 should dominate: {top:?}");
        assert!(top[0].1 > 5.0 * top[1].1, "{top:?}");
        // top_k larger than dim is clamped.
        assert_eq!(d.dimension_contributions(10).len(), 2);
    }

    #[test]
    fn l2_metric_variant_detects_too() {
        let cfg = DetectorConfig::new(2, 2)
            .with_window(10)
            .with_theta_drift(0.1)
            .with_metric(DistanceMetric::L2);
        let mut d = CentroidDetector::new(cfg, trained_set()).unwrap();
        let mut drifted = false;
        for _ in 0..10 {
            if let DetectorOutcome::Checked { drift, .. } = d.observe(1, &[5.0, 5.0], 1.0).unwrap()
            {
                drifted = drift;
            }
        }
        assert!(drifted);
    }
}
