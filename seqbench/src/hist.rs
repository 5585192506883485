//! A mergeable, log-bucketed latency histogram.
//!
//! Values are `u64` (nanoseconds by convention). Values below 128 get a
//! bucket each; above that every power of two is split into 128 equal
//! sub-buckets, so a bucket's midpoint is within 1/256 (< 0.4%) of any
//! value in it. Counts grow on demand up to the highest bucket touched, so
//! a histogram of microsecond latencies stays a few KiB.

/// Sub-bucket bits per power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Percentiles [`Hist::tail`] chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Samples a reported tail percentile needs beyond it.
const TAIL_MIN_BEYOND: u64 = 10;

/// Log-bucketed histogram with exact count, min and max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB + u64::from(e - SUB_BITS) * SUB + sub) as usize
}

/// Midpoint of bucket `i` (exact for the unit-width buckets).
fn value_of(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    let lower = (SUB + sub) << shift;
    lower + ((1u64 << shift) >> 1)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// An empty histogram with buckets allocated up to `max`, so
    /// recording values up to `max` never allocates.
    pub fn with_range(max: u64) -> Hist {
        Hist {
            counts: vec![0; bucket_of(max) + 1],
            ..Hist::default()
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let i = bucket_of(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        if self.total == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.total += 1;
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if other.total == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if self.total == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile `q` in `[0, 1]`: the smallest recorded
    /// value with at least `ceil(q * n)` samples at or below it, reported
    /// as its bucket midpoint clamped to the exact min and max. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The highest percentile of 99.99, 99.9, 99, 90 and 50 that has at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it, with its value.
    /// `None` when even the median lacks that many.
    pub fn tail(&self) -> Option<(f64, u64)> {
        TAIL_LADDER.iter().find_map(|&q| {
            let at_or_below = ((q * self.total as f64).ceil() as u64).max(1);
            (self.total.saturating_sub(at_or_below) >= TAIL_MIN_BEYOND)
                .then(|| (q, self.quantile(q)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::Rng;

    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[(rank - 1) as usize]
    }

    /// Latency-shaped data: a log-normal body spanning four decades.
    fn seeded_latencies(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let z = rng.normal(0.0, 1.0) as f64;
                (20_000.0 * (1.2 * z).exp()) as u64
            })
            .collect()
    }

    #[test]
    fn buckets_round_trip_within_one_percent() {
        for v in (0..200_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let m = value_of(bucket_of(v));
            let err = (m as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 1.0 / 256.0 + 1e-12, "value {v} -> midpoint {m}");
        }
        assert!(bucket_of(u64::MAX) < 128 * 58);
    }

    #[test]
    fn percentiles_match_exact_nearest_rank() {
        for seed in [1u64, 2, 3, 42] {
            let data = seeded_latencies(seed, 50_000);
            let mut h = Hist::new();
            data.iter().for_each(|&v| h.record(v));
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = exact_nearest_rank(&sorted, q);
                let got = h.quantile(q);
                let err = (got as f64 - exact as f64).abs() / exact as f64;
                assert!(err <= 0.01, "seed {seed} q {q}: {got} vs exact {exact}");
            }
            assert_eq!(h.count(), 50_000);
            assert_eq!(h.max(), *sorted.last().unwrap());
        }
    }

    #[test]
    fn merge_equals_building_from_concatenation() {
        let a = seeded_latencies(7, 10_000);
        let b = seeded_latencies(8, 3_000);
        let (mut ha, mut hb, mut hab) = (Hist::new(), Hist::new(), Hist::new());
        a.iter().for_each(|&v| ha.record(v));
        b.iter().for_each(|&v| hb.record(v));
        a.iter().chain(&b).for_each(|&v| hab.record(v));
        ha.merge(&hb);
        assert_eq!(ha, hab);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        (1..=1_000u64).for_each(|v| h.record(v));
        // 1000 samples: 99.9% leaves 1 beyond, 99% leaves 10.
        assert_eq!(h.tail(), Some((0.99, 990)));
        let mut thin = Hist::new();
        (1..=15u64).for_each(|v| thin.record(v));
        assert_eq!(thin.tail(), None);
        assert_eq!(Hist::new().quantile(0.5), 0);
    }
}
