//! Quant Tree (Boracchi, Carrera, Cervellera & Macciò, ICML 2018).
//!
//! Quant Tree recursively splits the feature space with axis-aligned cuts
//! placed at *quantiles* of the training data, producing `K` bins that each
//! hold a target fraction of the training mass. Its key property: the
//! distribution of any histogram test statistic computed on a fresh batch
//! depends only on `(N_train, K, batch_size)` — not on the data
//! distribution or the dimensionality — so detection thresholds can be
//! computed once by Monte-Carlo simulation on *univariate uniform* data and
//! reused for any stream.
//!
//! The detector buffers `batch_size` samples (this buffer is what Table 4
//! charges it for), bins them, computes the Pearson statistic against the
//! training bin probabilities, and flags drift when it exceeds the
//! threshold.

use crate::{BatchDriftDetector, BatchVerdict};
use seqdrift_linalg::{stats, Real, Rng};
use std::num::NonZeroUsize;

/// One axis-aligned cut in the Quant Tree partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Feature index the cut tests.
    pub dim: usize,
    /// Cut threshold.
    pub threshold: Real,
    /// When true the bin captures `x[dim] <= threshold`; otherwise
    /// `x[dim] >= threshold`.
    pub leq: bool,
}

/// A fitted Quant Tree partition: `K` bins defined by `K - 1` ordered splits
/// plus the remainder bin.
#[derive(Debug, Clone)]
pub struct Partition {
    splits: Vec<Split>,
    /// Empirical training probability of each bin (length `K`).
    probs: Vec<Real>,
}

impl Partition {
    /// Builds a `k`-bin partition of `train` with uniform target
    /// probabilities, choosing a random dimension and tail for each cut.
    pub fn build(train: &[Vec<Real>], k: usize, rng: &mut Rng) -> Partition {
        assert!(k >= 2, "quanttree: need at least 2 bins");
        assert!(
            train.len() >= k,
            "quanttree: need at least k training samples"
        );
        let n = train.len();
        let dim = train[0].len();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut splits = Vec::with_capacity(k - 1);
        let mut probs = Vec::with_capacity(k);
        let mut column: Vec<Real> = Vec::with_capacity(n);

        for bin in 0..(k - 1) {
            // Capture 1/(K - bin) of the remaining points so bins end up
            // with ~1/K of the total each.
            let gamma = 1.0 / (k - bin) as Real;
            let d = rng.below(dim as u64) as usize;
            let leq = rng.below(2) == 0;

            column.clear();
            column.extend(remaining.iter().map(|&i| train[i][d]));
            column.sort_by(|a, b| a.partial_cmp(b).expect("NaN in training data"));
            let q = if leq { gamma } else { 1.0 - gamma };
            let threshold = stats::quantile_sorted(&column, q);

            let captured = |x: &[Real]| {
                if leq {
                    x[d] <= threshold
                } else {
                    x[d] >= threshold
                }
            };
            let before = remaining.len();
            remaining.retain(|&i| !captured(&train[i]));
            let captured_count = before - remaining.len();
            splits.push(Split {
                dim: d,
                threshold,
                leq,
            });
            probs.push(captured_count as Real / n as Real);
        }
        probs.push(remaining.len() as Real / n as Real);
        Partition { splits, probs }
    }

    /// Number of bins.
    pub fn k(&self) -> usize {
        self.probs.len()
    }

    /// Training bin probabilities.
    pub fn probs(&self) -> &[Real] {
        &self.probs
    }

    /// Bin index of a point: the first split that captures it, else the
    /// remainder bin. Order matters — bins were carved out sequentially.
    pub fn bin_of(&self, x: &[Real]) -> usize {
        for (i, s) in self.splits.iter().enumerate() {
            let captured = if s.leq {
                x[s.dim] <= s.threshold
            } else {
                x[s.dim] >= s.threshold
            };
            if captured {
                return i;
            }
        }
        self.splits.len()
    }

    /// Scalars stored by the partition itself.
    pub fn memory_scalars(&self) -> usize {
        // Each split: threshold + dim + direction (count the bookkeeping as
        // one scalar-equivalent each) + the probability table.
        self.splits.len() * 3 + self.probs.len()
    }
}

/// Distribution-free Monte-Carlo threshold for the Pearson statistic.
///
/// Simulates `n_mc` independent (train, batch) pairs of *uniform univariate*
/// data — valid for any distribution/dimension thanks to Quant Tree's
/// distribution-free property — and returns the `1 - alpha` quantile of the
/// resulting statistics. Replications run in parallel across std threads;
/// each replication derives its own seed, so the result is independent of
/// the thread count.
pub fn monte_carlo_threshold(
    n_train: usize,
    k: usize,
    batch_size: usize,
    alpha: Real,
    n_mc: usize,
    seed: u64,
) -> Real {
    let one_rep = |rep: usize| {
        let mut rng = Rng::seed_from(seed ^ (rep as u64).wrapping_mul(0x9E37_79B9));
        let train: Vec<Vec<Real>> = (0..n_train).map(|_| vec![rng.uniform()]).collect();
        let partition = Partition::build(&train, k, &mut rng);
        let mut counts = vec![0u64; k];
        for _ in 0..batch_size {
            counts[partition.bin_of(&[rng.uniform()])] += 1;
        }
        stats::pearson_chi2(&counts, partition.probs())
    };
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(n_mc.max(1));
    let mut stats_out = vec![0.0 as Real; n_mc];
    let one_rep = &one_rep;
    std::thread::scope(|s| {
        // Strided assignment: worker w owns replications w, w+workers, ...
        for part in split_strided(&mut stats_out, workers) {
            s.spawn(move || {
                for (i, slot) in part {
                    *slot = one_rep(i);
                }
            });
        }
    });
    stats_out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    stats::quantile_sorted(&stats_out, 1.0 - alpha)
}

/// Splits `out` into `workers` strided index/slot lists so scoped threads
/// can fill disjoint subsets without locking.
fn split_strided(out: &mut [Real], workers: usize) -> Vec<Vec<(usize, &mut Real)>> {
    let mut parts: Vec<Vec<(usize, &mut Real)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in out.iter_mut().enumerate() {
        parts[i % workers].push((i, slot));
    }
    parts
}

/// Configuration for the [`QuantTree`] detector.
#[derive(Debug, Clone)]
pub struct QuantTreeConfig {
    /// Number of histogram bins `K` (paper: 32 for NSL-KDD, 16 for fan).
    pub bins: usize,
    /// Batch size `ν` (paper: 480 for NSL-KDD, 235 for fan).
    pub batch_size: usize,
    /// False-positive rate for the Monte-Carlo threshold.
    pub alpha: Real,
    /// Monte-Carlo replications for the threshold estimate.
    pub mc_reps: usize,
    /// Seed for partition construction and threshold simulation.
    pub seed: u64,
}

impl Default for QuantTreeConfig {
    fn default() -> Self {
        QuantTreeConfig {
            bins: 32,
            batch_size: 480,
            alpha: 0.01,
            mc_reps: 2000,
            seed: 0x51AB_71EE,
        }
    }
}

/// The Quant Tree drift detector.
#[derive(Debug, Clone)]
pub struct QuantTree {
    partition: Partition,
    threshold: Real,
    /// Precomputed threshold for partitions refitted on one batch
    /// (`n_train = batch_size`). Quant Tree's distribution-free property
    /// makes thresholds a pure function of `(N, K, ν)`, so — like the
    /// original paper's lookup tables — they are simulated once at fit
    /// time, never in the streaming loop.
    refit_threshold: Real,
    batch_size: usize,
    bins: usize,
    seed: u64,
    dim: usize,
    /// Buffered batch (stored samples — the memory cost Table 4 measures).
    buffer: Vec<Vec<Real>>,
    /// Last computed Pearson statistic (diagnostics).
    last_statistic: Option<Real>,
}

impl QuantTree {
    /// Fits the partition on `train` and computes the detection thresholds
    /// (for this training size and for later batch-sized refits).
    pub fn fit(train: &[Vec<Real>], cfg: &QuantTreeConfig) -> QuantTree {
        let mut rng = Rng::seed_from(cfg.seed);
        let partition = Partition::build(train, cfg.bins, &mut rng);
        let threshold = monte_carlo_threshold(
            train.len(),
            cfg.bins,
            cfg.batch_size,
            cfg.alpha,
            cfg.mc_reps,
            cfg.seed,
        );
        let refit_threshold = if train.len() == cfg.batch_size {
            threshold
        } else {
            monte_carlo_threshold(
                cfg.batch_size,
                cfg.bins,
                cfg.batch_size,
                cfg.alpha,
                cfg.mc_reps,
                cfg.seed ^ 0x11EF,
            )
        };
        QuantTree {
            partition,
            threshold,
            refit_threshold,
            batch_size: cfg.batch_size,
            bins: cfg.bins,
            seed: cfg.seed,
            dim: train[0].len(),
            buffer: Vec::with_capacity(cfg.batch_size),
            last_statistic: None,
        }
    }

    /// Rebuilds the partition on fresh data (after a detected drift) using
    /// the precomputed refit threshold — no Monte-Carlo in the hot path.
    pub fn refit_partition(&mut self, data: &[Vec<Real>]) {
        let mut rng = Rng::seed_from(self.seed.wrapping_add(1));
        self.partition = Partition::build(data, self.bins, &mut rng);
        self.threshold = self.refit_threshold;
        self.buffer.clear();
        self.last_statistic = None;
    }

    /// The fitted partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The detection threshold in use.
    pub fn threshold(&self) -> Real {
        self.threshold
    }

    /// Pearson statistic of the most recently completed batch.
    pub fn last_statistic(&self) -> Option<Real> {
        self.last_statistic
    }
}

impl BatchDriftDetector for QuantTree {
    fn batch_size(&self) -> usize {
        self.batch_size
    }

    fn push(&mut self, x: &[Real]) -> BatchVerdict {
        debug_assert_eq!(x.len(), self.dim);
        self.buffer.push(x.to_vec());
        if self.buffer.len() < self.batch_size {
            return BatchVerdict::Pending;
        }
        let mut counts = vec![0u64; self.partition.k()];
        for s in &self.buffer {
            counts[self.partition.bin_of(s)] += 1;
        }
        self.buffer.clear();
        let stat = stats::pearson_chi2(&counts, self.partition.probs());
        self.last_statistic = Some(stat);
        if stat >= self.threshold {
            BatchVerdict::Drift
        } else {
            BatchVerdict::NoDrift
        }
    }

    fn reset_window(&mut self) {
        self.buffer.clear();
    }

    fn memory_scalars(&self) -> usize {
        self.batch_size * self.dim + self.partition.memory_scalars() + self.partition.k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_uniform(&mut x, 0.0, 1.0);
                x
            })
            .collect()
    }

    fn shifted_data(n: usize, dim: usize, shift: Real, seed: u64) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_uniform(&mut x, shift, 1.0 + shift);
                x
            })
            .collect()
    }

    #[test]
    fn partition_probs_sum_to_one_and_are_balanced() {
        let train = uniform_data(1000, 4, 1);
        let mut rng = Rng::seed_from(2);
        let p = Partition::build(&train, 8, &mut rng);
        assert_eq!(p.k(), 8);
        let total: Real = p.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        for &pr in p.probs() {
            assert!(
                (pr - 0.125).abs() < 0.05,
                "bin prob {pr} far from target 1/8"
            );
        }
    }

    #[test]
    fn every_training_point_lands_in_a_bin_matching_probs() {
        let train = uniform_data(500, 3, 3);
        let mut rng = Rng::seed_from(4);
        let p = Partition::build(&train, 6, &mut rng);
        let mut counts = vec![0u64; p.k()];
        for x in &train {
            counts[p.bin_of(x)] += 1;
        }
        for (c, &pr) in counts.iter().zip(p.probs().iter()) {
            assert_eq!(*c as Real / 500.0, pr);
        }
    }

    #[test]
    fn monte_carlo_threshold_is_positive_and_orders_with_alpha() {
        let t_loose = monte_carlo_threshold(200, 8, 64, 0.05, 300, 5);
        let t_tight = monte_carlo_threshold(200, 8, 64, 0.005, 300, 5);
        assert!(t_loose > 0.0);
        assert!(t_tight > t_loose);
    }

    #[test]
    fn no_drift_on_stationary_stream() {
        let train = uniform_data(800, 4, 6);
        let cfg = QuantTreeConfig {
            bins: 8,
            batch_size: 100,
            alpha: 0.005,
            mc_reps: 500,
            seed: 7,
        };
        let mut qt = QuantTree::fit(&train, &cfg);
        let test = uniform_data(1000, 4, 8);
        let mut drifts = 0;
        let mut batches = 0;
        for x in &test {
            match qt.push(x) {
                BatchVerdict::Drift => {
                    drifts += 1;
                    batches += 1;
                }
                BatchVerdict::NoDrift => batches += 1,
                BatchVerdict::Pending => {}
            }
        }
        assert_eq!(batches, 10);
        assert!(drifts <= 1, "{drifts} false alarms in 10 batches");
    }

    #[test]
    fn detects_shifted_distribution() {
        let train = uniform_data(800, 4, 9);
        let cfg = QuantTreeConfig {
            bins: 8,
            batch_size: 100,
            alpha: 0.01,
            mc_reps: 500,
            seed: 10,
        };
        let mut qt = QuantTree::fit(&train, &cfg);
        let test = shifted_data(100, 4, 0.5, 11);
        let mut verdict = BatchVerdict::Pending;
        for x in &test {
            verdict = qt.push(x);
        }
        assert_eq!(verdict, BatchVerdict::Drift);
        assert!(qt.last_statistic().unwrap() > qt.threshold());
    }

    #[test]
    fn pending_until_batch_full() {
        let train = uniform_data(300, 2, 12);
        let cfg = QuantTreeConfig {
            bins: 4,
            batch_size: 50,
            alpha: 0.01,
            mc_reps: 200,
            seed: 13,
        };
        let mut qt = QuantTree::fit(&train, &cfg);
        let test = uniform_data(49, 2, 14);
        for x in &test {
            assert_eq!(qt.push(x), BatchVerdict::Pending);
        }
    }

    #[test]
    fn reset_window_clears_partial_batch() {
        let train = uniform_data(300, 2, 15);
        let cfg = QuantTreeConfig {
            bins: 4,
            batch_size: 10,
            alpha: 0.01,
            mc_reps: 200,
            seed: 16,
        };
        let mut qt = QuantTree::fit(&train, &cfg);
        for x in uniform_data(5, 2, 17) {
            qt.push(&x);
        }
        qt.reset_window();
        // Needs a full 10 more samples for a verdict now.
        let more = uniform_data(10, 2, 18);
        let mut verdicts = 0;
        for x in &more {
            if qt.push(x) != BatchVerdict::Pending {
                verdicts += 1;
            }
        }
        assert_eq!(verdicts, 1);
    }

    #[test]
    fn memory_dominated_by_batch_buffer() {
        let train = uniform_data(300, 511, 19);
        let cfg = QuantTreeConfig {
            bins: 16,
            batch_size: 235,
            alpha: 0.01,
            mc_reps: 50,
            seed: 20,
        };
        let qt = QuantTree::fit(&train, &cfg);
        let mem = qt.memory_scalars();
        assert!(mem >= 235 * 511, "memory {mem} misses the batch buffer");
        assert!(mem < 235 * 511 + 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = uniform_data(200, 3, 21);
        let cfg = QuantTreeConfig {
            bins: 4,
            batch_size: 20,
            alpha: 0.01,
            mc_reps: 100,
            seed: 22,
        };
        let a = QuantTree::fit(&train, &cfg);
        let b = QuantTree::fit(&train, &cfg);
        assert_eq!(a.threshold(), b.threshold());
        assert_eq!(a.partition().probs(), b.partition().probs());
    }
}
