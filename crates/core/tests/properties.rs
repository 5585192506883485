//! Property-based tests for the proposed detector's invariants, driven by
//! seeded RNG loops (the workspace builds offline; no proptest).

use seqdrift_core::centroid::CentroidSet;
use seqdrift_core::detector::{CentroidDetector, DetectorConfig, DetectorOutcome};
use seqdrift_core::reconstruct::{ReconOutcome, ReconstructConfig, Reconstructor};
use seqdrift_core::threshold::DriftThresholdCalibrator;
use seqdrift_core::DistanceMetric;
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

const CASES: u64 = 32;

fn for_cases(f: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::seed_from(0x44DD ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f(&mut rng);
    }
}

fn trained_set(classes: usize, dim: usize, count: u64) -> CentroidSet {
    let mut s = CentroidSet::zeros(classes, dim);
    for c in 0..classes {
        let centroid = vec![c as Real; dim];
        s.set_centroid(c, &centroid).unwrap();
        s.set_count(c, count);
    }
    s
}

/// The detector is total over valid inputs: any sequence of
/// (label, sample, score) triples produces outcomes without panicking,
/// windows always close after exactly W updates, and the drift distance
/// stays non-negative.
#[test]
fn detector_is_total_and_windows_close() {
    for_cases(|rng| {
        let classes = 1 + rng.below(3) as usize;
        let dim = 1 + rng.below(5) as usize;
        let window = 1 + rng.below(19) as usize;
        let n = 1 + rng.below(199) as usize;
        let cfg = DetectorConfig::new(classes, dim)
            .with_window(window)
            .with_theta_error(0.5)
            .with_theta_drift(1.0);
        let mut det = CentroidDetector::new(cfg, trained_set(classes, dim, 10)).unwrap();
        let mut updates_in_window = 0usize;
        for _ in 0..n {
            let label = rng.below(classes as u64) as usize;
            let mut x = vec![0.0; dim];
            rng.fill_uniform(&mut x, -2.0, 2.0);
            let score = rng.uniform();
            match det.observe(label, &x, score).unwrap() {
                DetectorOutcome::Idle => {
                    assert_eq!(updates_in_window, 0);
                }
                DetectorOutcome::Windowing { win, dist } => {
                    updates_in_window += 1;
                    assert_eq!(win, updates_in_window);
                    assert!(win < window);
                    assert!(dist >= 0.0);
                }
                DetectorOutcome::Checked { dist, .. } => {
                    assert_eq!(updates_in_window + 1, window);
                    updates_in_window = 0;
                    assert!(dist >= 0.0);
                }
            }
        }
    });
}

/// Feeding a sample equal to the trained centroid never increases the drift
/// distance for that label.
#[test]
fn centroid_samples_do_not_inflate_distance() {
    for_cases(|rng| {
        let dim = 1 + rng.below(5) as usize;
        let trained = trained_set(1, dim, 5);
        let cfg = DetectorConfig::new(1, dim)
            .with_window(1000)
            .with_theta_error(0.0)
            .with_theta_drift(1e9);
        let mut det = CentroidDetector::new(cfg, trained.clone()).unwrap();
        // First push the centroid moves nothing.
        let centroid = trained.centroid(0).unwrap().to_vec();
        let mut prev = 0.0;
        // Alternate noise and centroid samples: after each centroid sample,
        // the distance must be <= the distance after the preceding noise
        // sample (the running mean is pulled back toward the reference).
        for _ in 0..20 {
            let mut x = vec![0.0; dim];
            rng.fill_uniform(&mut x, -1.0, 1.0);
            let after_noise = match det.observe(0, &x, 1.0).unwrap() {
                DetectorOutcome::Windowing { dist, .. } | DetectorOutcome::Checked { dist, .. } => {
                    dist
                }
                DetectorOutcome::Idle => prev,
            };
            let after_centroid = match det.observe(0, &centroid, 1.0).unwrap() {
                DetectorOutcome::Windowing { dist, .. } | DetectorOutcome::Checked { dist, .. } => {
                    dist
                }
                DetectorOutcome::Idle => after_noise,
            };
            assert!(after_centroid <= after_noise + 1e-5);
            prev = after_centroid;
        }
    });
}

/// Eq. 1 threshold: always >= the mean for z >= 0, monotone in z, and
/// exactly the mean when all distances are equal.
#[test]
fn eq1_threshold_properties() {
    for_cases(|rng| {
        let n = 1 + rng.below(99) as usize;
        let mut dists = vec![0.0; n];
        rng.fill_uniform(&mut dists, 0.0, 100.0);
        let z = rng.uniform_range(0.0, 5.0);
        let mut cal = DriftThresholdCalibrator::new();
        let mut mean = 0.0f64;
        for &d in &dists {
            cal.push(d);
            mean += d as f64;
        }
        mean /= dists.len() as f64;
        let t = cal.threshold(z).unwrap() as f64;
        assert!(t >= mean - 1e-3);
        let t2 = cal.threshold(z + 1.0).unwrap() as f64;
        assert!(t2 >= t - 1e-6);
    });
}

/// The reconstructor finishes after exactly `n_total` steps for any stream
/// and produces a positive recalibrated threshold; afterwards it is
/// inactive.
#[test]
fn reconstructor_always_terminates() {
    for_cases(|rng| {
        let seed = rng.below(5000);
        let n_total = 8 + rng.below(52) as usize;
        let classes = 2;
        let dim = 3;
        let cfg = ReconstructConfig::new(n_total);
        let mut rec = Reconstructor::new(cfg, classes, dim).unwrap();
        let mut model =
            MultiInstanceModel::new(classes, OsElmConfig::new(dim, 3).with_seed(seed)).unwrap();
        let mut srng = Rng::seed_from(seed);
        let blob = |rng: &mut Rng, mean: Real| -> Vec<Real> {
            let mut x = vec![0.0; dim];
            rng.fill_normal(&mut x, mean, 0.1);
            x
        };
        let train0: Vec<Vec<Real>> = (0..10).map(|_| blob(&mut srng, 0.0)).collect();
        let train1: Vec<Vec<Real>> = (0..10).map(|_| blob(&mut srng, 1.0)).collect();
        model.init_train_class(0, &train0).unwrap();
        model.init_train_class(1, &train1).unwrap();

        rec.start(&trained_set(classes, dim, 10), &mut model)
            .unwrap();
        let mut done = None;
        for i in 0..n_total + 5 {
            if !rec.is_active() {
                break;
            }
            let mean = srng.uniform_range(0.0, 1.0);
            let x = blob(&mut srng, mean);
            let prediction = model.predict(&x).unwrap();
            if let ReconOutcome::Done {
                theta_drift,
                new_trained,
            } = rec.step(&mut model, &prediction, &x).unwrap()
            {
                assert!(theta_drift > 0.0);
                assert_eq!(new_trained.classes(), classes);
                done = Some(i);
            }
        }
        assert_eq!(done, Some(n_total - 1));
        assert!(!rec.is_active());
    });
}

/// Centroid-set distance under both metrics is symmetric-in-role,
/// non-negative, and zero iff the sets coincide.
#[test]
fn centroid_distance_metric_properties() {
    for_cases(|rng| {
        let classes = 1 + rng.below(3) as usize;
        let dim = 1 + rng.below(4) as usize;
        let mut a = CentroidSet::zeros(classes, dim);
        for c in 0..classes {
            let mut x = vec![0.0; dim];
            rng.fill_uniform(&mut x, -3.0, 3.0);
            a.set_centroid(c, &x).unwrap();
        }
        let b = a.clone();
        for metric in [DistanceMetric::L1, DistanceMetric::L2] {
            assert_eq!(a.distance_to(&b, metric), 0.0);
        }
        let mut c_set = a.clone();
        let mut y = vec![0.0; dim];
        rng.fill_uniform(&mut y, 4.0, 5.0);
        c_set.set_centroid(0, &y).unwrap();
        for metric in [DistanceMetric::L1, DistanceMetric::L2] {
            let d_ab = a.distance_to(&c_set, metric);
            let d_ba = c_set.distance_to(&a, metric);
            assert!(d_ab > 0.0);
            assert!((d_ab - d_ba).abs() < 1e-4);
        }
    });
}
