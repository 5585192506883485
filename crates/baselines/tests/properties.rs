//! Property-based tests for the baseline detectors and their substrates,
//! driven by seeded RNG loops (the workspace builds offline; no proptest).

use seqdrift_baselines::gmm::DiagonalGmm;
use seqdrift_baselines::kmeans::KMeans;
use seqdrift_baselines::quanttree::{monte_carlo_threshold, Partition};
use seqdrift_baselines::{Adwin, Ddm, ErrorRateDetector, PageHinkley};
use seqdrift_linalg::{Real, Rng};

const CASES: u64 = 32;

fn for_cases(f: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::seed_from(0x22BB ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f(&mut rng);
    }
}

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<Real>> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| {
            let mut x = vec![0.0; dim];
            rng.fill_uniform(&mut x, -5.0, 5.0);
            x
        })
        .collect()
}

/// Quant Tree partitions: bin probabilities sum to 1, equal the empirical
/// bin counts of the training data, and every point (training or new) maps
/// to a valid bin.
#[test]
fn quanttree_partition_invariants() {
    for_cases(|rng| {
        let seed = rng.below(5000);
        let k = 2 + rng.below(7) as usize;
        let n = (20 + rng.below(180) as usize).max(k);
        let dim = 1 + rng.below(5) as usize;
        let data = random_points(n, dim, seed);
        let mut prng = Rng::seed_from(seed ^ 1);
        let p = Partition::build(&data, k, &mut prng);
        assert_eq!(p.k(), k);
        let total: Real = p.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-4);

        let mut counts = vec![0usize; k];
        for x in &data {
            let b = p.bin_of(x);
            assert!(b < k);
            counts[b] += 1;
        }
        for (c, &prob) in counts.iter().zip(p.probs()) {
            assert!((*c as Real / n as Real - prob).abs() < 1e-5);
        }
        // Arbitrary new points also land in a valid bin.
        for x in random_points(10, dim, seed ^ 2) {
            assert!(p.bin_of(&x) < k);
        }
    });
}

/// Monte-Carlo thresholds are positive and monotone in alpha.
#[test]
fn quanttree_threshold_monotone() {
    for_cases(|rng| {
        let seed = rng.below(1000);
        let loose = monte_carlo_threshold(100, 4, 32, 0.10, 200, seed);
        let tight = monte_carlo_threshold(100, 4, 32, 0.01, 200, seed);
        assert!(loose > 0.0);
        assert!(tight >= loose);
    });
}

/// k-means invariants: every assignment is the nearest centroid, and the
/// inertia equals the recomputed within-cluster SSE.
#[test]
fn kmeans_assignments_are_nearest() {
    for_cases(|rng| {
        let seed = rng.below(5000);
        let n = 10 + rng.below(90) as usize;
        let k = 1 + rng.below(5) as usize;
        let data = random_points(n, 3, seed);
        let mut krng = Rng::seed_from(seed ^ 3);
        let km = KMeans::fit(&data, k, 30, &mut krng);
        let mut sse = 0.0;
        for (x, &a) in data.iter().zip(km.assignments.iter()) {
            let (nearest, d) = km.assign(x);
            // Nearest may tie; distances must match.
            let assigned_d = seqdrift_linalg::vector::dist_l2_sq(x, &km.centroids[a]);
            assert!(
                assigned_d <= d + 1e-4,
                "assigned {assigned_d} vs nearest {d}"
            );
            let _ = nearest;
            sse += assigned_d;
        }
        assert!((sse - km.inertia).abs() < 1e-2 * (1.0 + sse));
    });
}

/// GMM invariants: weights sum to 1; min-Mahalanobis is bounded by each
/// component's distance and non-negative.
#[test]
fn gmm_invariants() {
    for_cases(|rng| {
        let seed = rng.below(5000);
        let n = 20 + rng.below(80) as usize;
        let data = random_points(n, 4, seed);
        let mut krng = Rng::seed_from(seed ^ 4);
        let km = KMeans::fit(&data, 3.min(n), 30, &mut krng);
        let gmm = DiagonalGmm::from_kmeans(&data, &km);
        let wsum: Real = gmm.weights.iter().sum();
        assert!((wsum - 1.0).abs() < 1e-4);
        for x in random_points(10, 4, seed ^ 5) {
            let min = gmm.min_mahalanobis_sq(&x);
            assert!(min >= 0.0);
            for c in 0..gmm.k() {
                assert!(min <= gmm.mahalanobis_sq(c, &x) + 1e-5);
            }
        }
    });
}

/// Error-rate detectors never panic and keep their statistics sane on
/// arbitrary boolean streams.
#[test]
fn error_rate_detectors_total() {
    for_cases(|rng| {
        let n = 1 + rng.below(499) as usize;
        let stream: Vec<bool> = (0..n).map(|_| rng.uniform() < 0.5).collect();
        let mut ddm = Ddm::default();
        let mut adwin = Adwin::default();
        for &e in &stream {
            let _ = ddm.push(e);
            let _ = adwin.push(e);
        }
        assert_eq!(ddm.count(), stream.len() as u64);
        assert!(ddm.error_rate() >= 0.0 && ddm.error_rate() <= 1.0);
        assert!(adwin.window_len() <= stream.len() as u64);
        assert!(adwin.mean() >= 0.0 && adwin.mean() <= 1.0);
    });
}

/// The Page-Hinkley statistic stays non-negative and resets cleanly on
/// arbitrary real streams.
#[test]
fn scalar_detectors_total() {
    for_cases(|rng| {
        let n = 1 + rng.below(299) as usize;
        let mut stream = vec![0.0; n];
        rng.fill_uniform(&mut stream, -100.0, 100.0);
        let mut ph = PageHinkley::new(0.1, 100.0);
        for &x in &stream {
            let _ = ph.push(x);
        }
        assert!(ph.statistic() >= 0.0);
        ph.reset();
        assert_eq!(ph.statistic(), 0.0);
    });
}
