//! Slice-level vector kernels.
//!
//! These are the innermost loops of every model and detector in the
//! workspace; they operate on plain `&[Real]` so they work identically for
//! heap matrices, stack matrices, and borrowed sample buffers.

use crate::Real;

/// Dot product of two equal-length slices.
///
/// Panics in debug builds when lengths differ; in release the shorter length
/// wins (callers are expected to have validated shapes already).
#[inline]
pub fn dot(a: &[Real], b: &[Real]) -> Real {
    debug_assert_eq!(a.len(), b.len());
    // Four-way unrolled accumulation: helps the autovectoriser and reduces
    // f32 rounding by splitting the dependency chain.
    let mut acc = [0.0 as Real; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `N` dot products against one shared vector: `[dot(a[0], b), …,
/// dot(a[N - 1], b)]`, bit for bit.
///
/// Each row keeps [`dot`]'s exact sequence of IEEE operations (lane k sums
/// the products at indices ≡ k mod 4 in order, then `acc0 + acc1 + acc2 +
/// acc3 + tail` left to right); blocking only interleaves the rows'
/// independent chains, so each chunk of `b` is loaded once and the adds
/// run at throughput instead of latency.
#[inline]
pub(crate) fn dot_rows<const N: usize>(a: [&[Real]; N], b: &[Real]) -> [Real; N] {
    debug_assert!(a.iter().all(|row| row.len() == b.len()));
    let body = b.len() / 4 * 4;
    // Cutting every row to `body` lets the compiler prove the chunk
    // indexing below in bounds.
    let rows = a.map(|row| &row[..body]);
    let mut acc = [[0.0 as Real; 4]; N];
    for (c, x) in b[..body].chunks_exact(4).enumerate() {
        let j = c * 4;
        for (acc, row) in acc.iter_mut().zip(rows) {
            let r = &row[j..j + 4];
            acc[0] += r[0] * x[0];
            acc[1] += r[1] * x[1];
            acc[2] += r[2] * x[2];
            acc[3] += r[3] * x[3];
        }
    }
    let mut out = [0.0 as Real; N];
    for ((o, acc), row) in out.iter_mut().zip(acc).zip(a) {
        let mut tail = 0.0;
        for j in body..b.len() {
            tail += row[j] * b[j];
        }
        *o = lane_sum(acc, tail);
    }
    out
}

/// `acc0 + acc1 + acc2 + acc3 + tail`, left to right. Out of line on
/// purpose: inlined, the vectoriser folds the rows of [`dot_rows`] into
/// one reduction and transposes its accumulators on every chunk, which
/// halves the kernel's speed.
#[inline(never)]
fn lane_sum(acc: [Real; 4], tail: Real) -> Real {
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Whether every element is finite (no NaN, no ±inf).
///
/// Same answer as `x.iter().all(|v| v.is_finite())`, without the early
/// exit: `v * 0.0` is ±0 for a finite `v` and NaN otherwise, and summing
/// those in eight independent lanes vectorises.
#[inline]
pub fn all_finite(x: &[Real]) -> bool {
    let mut lanes = FiniteLanes::default();
    lanes.scan(x);
    lanes.all_finite()
}

/// [`all_finite`]'s branch-free scan, fed in pieces. The lane sums are
/// only ever ±0 or NaN, so nothing can overflow into a false alarm.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FiniteLanes([Real; 8]);

impl FiniteLanes {
    /// Folds every element of `x` into the lanes.
    #[inline]
    pub(crate) fn scan(&mut self, x: &[Real]) {
        let mut chunks = x.chunks_exact(8);
        for chunk in &mut chunks {
            for (lane, &v) in self.0.iter_mut().zip(chunk) {
                *lane += v * 0.0;
            }
        }
        for (lane, &v) in self.0.iter_mut().zip(chunks.remainder()) {
            *lane += v * 0.0;
        }
    }

    /// Whether every element scanned so far was finite.
    #[inline]
    pub(crate) fn all_finite(&self) -> bool {
        self.0.iter().sum::<Real>() == 0.0
    }
}

/// `y += alpha * x` (the BLAS axpy kernel).
#[inline]
pub fn axpy(alpha: Real, x: &[Real], y: &mut [Real]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y = x` element-wise copy.
#[inline]
pub fn copy(x: &[Real], y: &mut [Real]) {
    y.copy_from_slice(x);
}

/// In-place scalar multiply.
#[inline]
pub fn scale(alpha: Real, x: &mut [Real]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Sum of elements.
#[inline]
pub fn sum(x: &[Real]) -> Real {
    x.iter().sum()
}

/// Arithmetic mean; 0 for an empty slice.
#[inline]
pub fn mean(x: &[Real]) -> Real {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as Real
    }
}

/// L1 distance between two points.
///
/// This is the distance used by Algorithm 1 line 14 and Algorithms 3-4 of
/// the paper (`|cor[i][j] - train_cor[i][j]|` summed over dimensions).
#[inline]
pub fn dist_l1(a: &[Real], b: &[Real]) -> Real {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| (x - y).abs()).sum()
}

/// Squared L2 distance between two points.
#[inline]
pub fn dist_l2_sq(a: &[Real], b: &[Real]) -> Real {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two points.
#[inline]
pub fn dist_l2(a: &[Real], b: &[Real]) -> Real {
    dist_l2_sq(a, b).sqrt()
}

/// Index of the minimum element; `None` for an empty slice.
///
/// NaN elements are skipped so a single corrupted score cannot poison the
/// argmin used for label prediction.
#[inline]
pub fn argmin(x: &[Real]) -> Option<usize> {
    let mut best: Option<(usize, Real)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum element; `None` for an empty slice (NaN skipped).
#[inline]
pub fn argmax(x: &[Real]) -> Option<usize> {
    let mut best: Option<(usize, Real)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Sequential running-mean update: `c <- (c * n + x) / (n + 1)`.
///
/// This is the exact centroid update of Algorithm 1 line 12 and Algorithm 4
/// line 3 of the paper, performed element-wise in place.
#[inline]
pub fn running_mean_update(centroid: &mut [Real], n: u64, x: &[Real]) {
    debug_assert_eq!(centroid.len(), x.len());
    let n = n as Real;
    let inv = 1.0 / (n + 1.0);
    for (c, &xi) in centroid.iter_mut().zip(x.iter()) {
        *c = (*c * n + xi) * inv;
    }
}

/// Exponentially-weighted mean update: `c <- (1 - alpha) * c + alpha * x`.
///
/// Used for the "assign a higher weight to a newer sample" variant of the
/// recent test centroid discussed in Section 3.2 of the paper.
#[inline]
pub fn ewma_update(centroid: &mut [Real], alpha: Real, x: &[Real]) {
    debug_assert_eq!(centroid.len(), x.len());
    for (c, &xi) in centroid.iter_mut().zip(x.iter()) {
        *c += alpha * (xi - *c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_handles_lengths_not_multiple_of_four() {
        for n in 0..9usize {
            let a: Vec<Real> = (0..n).map(|i| i as Real).collect();
            let expect: Real = a.iter().map(|&x| x * x).sum();
            assert_eq!(dot(&a, &a), expect, "n = {n}");
        }
    }

    #[test]
    fn axpy_known() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn distances_known() {
        assert_eq!(dist_l1(&[0.0, 0.0], &[1.0, -2.0]), 3.0);
        assert_eq!(dist_l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert!((dist_l2(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn argmin_argmax_basic() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmax(&[3.0, 1.0, 2.0]), Some(0));
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn argmin_skips_nan() {
        assert_eq!(argmin(&[Real::NAN, 2.0, 1.0]), Some(2));
        assert_eq!(argmax(&[Real::NAN, 2.0, 1.0]), Some(1));
        assert_eq!(argmin(&[Real::NAN]), None);
    }

    #[test]
    fn argmin_prefers_first_on_tie() {
        assert_eq!(argmin(&[1.0, 1.0, 2.0]), Some(0));
        assert_eq!(argmax(&[2.0, 2.0, 1.0]), Some(0));
    }

    #[test]
    fn running_mean_matches_batch_mean() {
        let xs = [
            [1.0, 10.0],
            [2.0, 20.0],
            [3.0, 30.0],
            [4.0, 40.0],
            [5.0, 50.0],
        ];
        let mut c = [0.0, 0.0];
        for (n, x) in xs.iter().enumerate() {
            running_mean_update(&mut c, n as u64, x);
        }
        assert!((c[0] - 3.0).abs() < 1e-5);
        assert!((c[1] - 30.0).abs() < 1e-4);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut c = [0.0];
        for _ in 0..200 {
            ewma_update(&mut c, 0.1, &[7.0]);
        }
        assert!((c[0] - 7.0).abs() < 1e-3);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
