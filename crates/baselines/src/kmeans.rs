//! k-means clustering: Lloyd's algorithm with k-means++ seeding.
//!
//! Substrates for two places in the paper: SPLL clusters its training window
//! with k-means (§2.2.2), and the proposed method assumes initial samples
//! "can be labeled with a clustering algorithm such as k-means" (§3.2) in
//! the unsupervised setting.

use seqdrift_linalg::{vector, Real, Rng};

/// Result of a batch k-means fit.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids, one `Vec<Real>` of length `dim` per cluster.
    pub centroids: Vec<Vec<Real>>,
    /// Cluster assignment of each training point.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: Real,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
}

impl KMeans {
    /// Fits `k` clusters to `data` with k-means++ seeding.
    ///
    /// `max_iter` caps Lloyd iterations; convergence is declared when no
    /// assignment changes. Panics if `data` is empty or `k == 0`; if
    /// `k > data.len()`, `k` is clamped to the number of points.
    pub fn fit(data: &[Vec<Real>], k: usize, max_iter: usize, rng: &mut Rng) -> KMeans {
        assert!(!data.is_empty(), "kmeans: empty data");
        assert!(k > 0, "kmeans: k must be > 0");
        let k = k.min(data.len());
        let dim = data[0].len();

        let mut centroids = plus_plus_init(data, k, rng);
        let mut assignments = vec![0usize; data.len()];
        let mut counts = vec![0usize; k];
        let mut iterations = 0;

        for it in 0..max_iter.max(1) {
            iterations = it + 1;
            // Assignment step.
            let mut changed = false;
            for (i, x) in data.iter().enumerate() {
                let a = nearest(&centroids, x).0;
                if assignments[i] != a {
                    assignments[i] = a;
                    changed = true;
                }
            }
            if !changed && it > 0 {
                iterations = it; // previous iteration already converged
                break;
            }
            // Update step.
            for c in centroids.iter_mut() {
                c.fill(0.0);
            }
            counts.fill(0);
            for (i, x) in data.iter().enumerate() {
                let a = assignments[i];
                counts[a] += 1;
                vector::axpy(1.0, x, &mut centroids[a]);
            }
            for (c, &n) in centroids.iter_mut().zip(counts.iter()) {
                if n > 0 {
                    vector::scale(1.0 / n as Real, c);
                }
            }
            // Re-seed any emptied cluster at the point farthest from its
            // centroid (standard empty-cluster repair).
            for c in 0..k {
                if counts[c] == 0 {
                    let far = data
                        .iter()
                        .enumerate()
                        .max_by(|(i, x), (j, y)| {
                            let dx = vector::dist_l2_sq(x, &centroids[assignments[*i]]);
                            let dy = vector::dist_l2_sq(y, &centroids[assignments[*j]]);
                            dx.partial_cmp(&dy).unwrap()
                        })
                        .map(|(i, _)| i)
                        .unwrap();
                    centroids[c].copy_from_slice(&data[far]);
                }
            }
            let _ = dim;
        }

        let inertia = data
            .iter()
            .zip(assignments.iter())
            .map(|(x, &a)| vector::dist_l2_sq(x, &centroids[a]))
            .sum();
        KMeans {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Assigns a new point to its nearest centroid, returning
    /// `(cluster, squared distance)`.
    pub fn assign(&self, x: &[Real]) -> (usize, Real) {
        nearest(&self.centroids, x)
    }
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007): first centre uniform,
/// each next centre drawn with probability proportional to its squared
/// distance from the nearest chosen centre.
pub fn plus_plus_init(data: &[Vec<Real>], k: usize, rng: &mut Rng) -> Vec<Vec<Real>> {
    let mut centroids: Vec<Vec<Real>> = Vec::with_capacity(k);
    let first = rng.below(data.len() as u64) as usize;
    centroids.push(data[first].clone());
    let mut d2: Vec<Real> = data
        .iter()
        .map(|x| vector::dist_l2_sq(x, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let idx = rng
            .weighted_index(&d2)
            // All remaining distances zero => duplicate points; any index is
            // as good as any other.
            .unwrap_or_else(|| rng.below(data.len() as u64) as usize);
        centroids.push(data[idx].clone());
        let newest = centroids.last().unwrap();
        for (slot, x) in d2.iter_mut().zip(data.iter()) {
            let d = vector::dist_l2_sq(x, newest);
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

fn nearest(centroids: &[Vec<Real>], x: &[Real]) -> (usize, Real) {
    let mut best = 0;
    let mut best_d = Real::INFINITY;
    for (c, cent) in centroids.iter().enumerate() {
        let d = vector::dist_l2_sq(x, cent);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs(n_per: usize, seed: u64) -> (Vec<Vec<Real>>, Vec<usize>) {
        let mut rng = Rng::seed_from(seed);
        let means = [[0.0, 0.0], [5.0, 5.0], [0.0, 5.0]];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (c, m) in means.iter().enumerate() {
            for _ in 0..n_per {
                data.push(vec![rng.normal(m[0], 0.3), rng.normal(m[1], 0.3)]);
                labels.push(c);
            }
        }
        (data, labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, labels) = three_blobs(50, 1);
        let mut rng = Rng::seed_from(2);
        let km = KMeans::fit(&data, 3, 50, &mut rng);
        // Clusters should be pure: every pair from the same true blob must
        // share a k-means cluster.
        for c in 0..3 {
            let assigned: Vec<usize> = labels
                .iter()
                .zip(km.assignments.iter())
                .filter(|(l, _)| **l == c)
                .map(|(_, a)| *a)
                .collect();
            let first = assigned[0];
            assert!(
                assigned.iter().all(|&a| a == first),
                "blob {c} split across clusters"
            );
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = three_blobs(40, 3);
        let mut rng = Rng::seed_from(4);
        let k1 = KMeans::fit(&data, 1, 30, &mut rng);
        let k3 = KMeans::fit(&data, 3, 30, &mut rng);
        assert!(
            k3.inertia < k1.inertia * 0.2,
            "{} vs {}",
            k3.inertia,
            k1.inertia
        );
    }

    #[test]
    fn k_clamped_to_data_len() {
        let data = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let mut rng = Rng::seed_from(5);
        let km = KMeans::fit(&data, 10, 10, &mut rng);
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn assign_returns_nearest() {
        let (data, _) = three_blobs(30, 6);
        let mut rng = Rng::seed_from(7);
        let km = KMeans::fit(&data, 3, 30, &mut rng);
        let (c, d) = km.assign(&[5.0, 5.0]);
        assert!(d < 1.0);
        // The centroid for (5,5) blob must be near (5,5).
        assert!(vector::dist_l2(&km.centroids[c], &[5.0, 5.0]) < 0.5);
    }

    #[test]
    fn plus_plus_spreads_centres() {
        let (data, _) = three_blobs(50, 8);
        let mut rng = Rng::seed_from(9);
        let seeds = plus_plus_init(&data, 3, &mut rng);
        // All three seeds should land in distinct blobs with overwhelming
        // probability given blob separation >> blob radius.
        let mut blob_of = |x: &Vec<Real>| -> usize {
            nearest(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![0.0, 5.0]], x).0
        };
        let blobs: Vec<usize> = seeds.iter().map(&mut blob_of).collect();
        let mut uniq = blobs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "seeds {blobs:?} not spread");
    }

    #[test]
    fn handles_duplicate_points() {
        let data = vec![vec![1.0, 1.0]; 20];
        let mut rng = Rng::seed_from(10);
        let km = KMeans::fit(&data, 3, 10, &mut rng);
        assert!(km.inertia < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = three_blobs(30, 11);
        let a = KMeans::fit(&data, 3, 30, &mut Rng::seed_from(12));
        let b = KMeans::fit(&data, 3, 30, &mut Rng::seed_from(12));
        assert_eq!(a.assignments, b.assignments);
    }
}
