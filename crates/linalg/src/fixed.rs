//! `const`-generic stack-allocated matrices and vectors.
//!
//! This is the "firmware view" of the math in this workspace: on the
//! Raspberry Pi Pico the paper targets, every model buffer is a statically
//! sized array and the heap is never touched inside the sample loop. These
//! types let the test-suite prove that the algorithms run unchanged with
//! zero heap allocation, and give downstream `no_std`-leaning users a
//! drop-in option when dimensions are known at compile time.
//!
//! Kernels delegate to the same slice routines in [`crate::vector`] that the
//! heap [`crate::Matrix`] uses, so numerical behaviour is identical by
//! construction.

use crate::{vector, LinalgError, Real, Result};

/// Stack vector of `N` scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SVec<const N: usize> {
    /// Element storage.
    pub data: [Real; N],
}

impl<const N: usize> Default for SVec<N> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const N: usize> SVec<N> {
    /// All-zero vector.
    pub const fn zeros() -> Self {
        SVec { data: [0.0; N] }
    }

    /// Builds from an array.
    pub const fn from_array(data: [Real; N]) -> Self {
        SVec { data }
    }

    /// Immutable slice view.
    #[inline]
    pub fn as_slice(&self) -> &[Real] {
        &self.data
    }

    /// Mutable slice view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Real] {
        &mut self.data
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &SVec<N>) -> Real {
        vector::dot(&self.data, &other.data)
    }

    /// L1 distance to another vector.
    #[inline]
    pub fn dist_l1(&self, other: &SVec<N>) -> Real {
        vector::dist_l1(&self.data, &other.data)
    }

    /// Euclidean distance to another vector.
    #[inline]
    pub fn dist_l2(&self, other: &SVec<N>) -> Real {
        vector::dist_l2(&self.data, &other.data)
    }

    /// `self += alpha * other`.
    #[inline]
    pub fn axpy(&mut self, alpha: Real, other: &SVec<N>) {
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// Sequential running-mean update (Algorithm 1 line 12 on the stack).
    #[inline]
    pub fn running_mean_update(&mut self, n: u64, x: &SVec<N>) {
        vector::running_mean_update(&mut self.data, n, &x.data);
    }
}

/// Stack matrix of `R x C` scalars (row-major).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SMat<const R: usize, const C: usize> {
    /// Row-major element storage.
    pub data: [[Real; C]; R],
}

impl<const R: usize, const C: usize> Default for SMat<R, C> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const R: usize, const C: usize> SMat<R, C> {
    /// All-zero matrix.
    pub const fn zeros() -> Self {
        SMat {
            data: [[0.0; C]; R],
        }
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Real {
        self.data[r][c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Real) {
        self.data[r][c] = v;
    }

    /// Row view.
    #[inline]
    pub fn row(&self, r: usize) -> &[Real; C] {
        &self.data[r]
    }

    /// Matrix-vector product into a stack vector.
    pub fn matvec(&self, v: &SVec<C>) -> SVec<R> {
        let mut out = SVec::zeros();
        for r in 0..R {
            out.data[r] = vector::dot(&self.data[r], &v.data);
        }
        out
    }

    /// Transposed matrix-vector product (`selfᵀ v`).
    pub fn tr_matvec(&self, v: &SVec<R>) -> SVec<C> {
        let mut out = SVec::zeros();
        for r in 0..R {
            let vr = v.data[r];
            if vr == 0.0 {
                continue;
            }
            for c in 0..C {
                out.data[c] += vr * self.data[r][c];
            }
        }
        out
    }

    /// Matrix product into a stack matrix.
    pub fn matmul<const K: usize>(&self, rhs: &SMat<C, K>) -> SMat<R, K> {
        let mut out = SMat::zeros();
        for i in 0..R {
            for (k, &a) in self.data[i].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for j in 0..K {
                    out.data[i][j] += a * rhs.data[k][j];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> SMat<C, R> {
        let mut out = SMat::zeros();
        for r in 0..R {
            for c in 0..C {
                out.data[c][r] = self.data[r][c];
            }
        }
        out
    }

    /// Rank-1 update `self += s * u vᵀ`.
    pub fn add_outer(&mut self, s: Real, u: &SVec<R>, v: &SVec<C>) {
        for r in 0..R {
            let su = s * u.data[r];
            if su == 0.0 {
                continue;
            }
            for c in 0..C {
                self.data[r][c] += su * v.data[c];
            }
        }
    }
}

impl<const N: usize> SMat<N, N> {
    /// Identity matrix.
    pub fn identity() -> Self {
        let mut m = Self::zeros();
        for i in 0..N {
            m.data[i][i] = 1.0;
        }
        m
    }

    /// Gauss–Jordan inverse with partial pivoting, entirely on the stack.
    pub fn inverse(&self) -> Result<SMat<N, N>> {
        let mut a = *self;
        let mut inv = Self::identity();
        for k in 0..N {
            // Pivot selection.
            let mut p = k;
            let mut max = a.data[k][k].abs();
            for r in (k + 1)..N {
                if a.data[r][k].abs() > max {
                    max = a.data[r][k].abs();
                    p = r;
                }
            }
            if max <= 1e-12 {
                return Err(LinalgError::Singular);
            }
            a.data.swap(p, k);
            inv.data.swap(p, k);
            let pivot = a.data[k][k];
            let pinv = 1.0 / pivot;
            for c in 0..N {
                a.data[k][c] *= pinv;
                inv.data[k][c] *= pinv;
            }
            for r in 0..N {
                if r == k {
                    continue;
                }
                let f = a.data[r][k];
                if f == 0.0 {
                    continue;
                }
                for c in 0..N {
                    a.data[r][c] -= f * a.data[k][c];
                    inv.data[r][c] -= f * inv.data[k][c];
                }
            }
        }
        Ok(inv)
    }

    /// Sherman–Morrison OS-ELM covariance update on the stack:
    /// `P <- P - (P h)(h P) / (1 + h P h)`.
    pub fn oselm_p_update(&mut self, h: &SVec<N>) -> Result<Real> {
        let ph = self.matvec(h);
        let hp = self.tr_matvec(h);
        let denom = 1.0 + vector::dot(&h.data, &ph.data);
        if denom <= 0.0 || !denom.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        self.add_outer(-1.0 / denom, &ph, &hp);
        Ok(denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svec_dot_and_distances() {
        let a = SVec::from_array([1.0, 2.0, 3.0]);
        let b = SVec::from_array([4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.dist_l1(&b), 9.0);
        assert!((a.dist_l2(&b) - (27.0 as Real).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn smat_matvec_known() {
        let mut m = SMat::<2, 3>::zeros();
        m.data = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let v = SVec::from_array([1.0, 1.0, 1.0]);
        let out = m.matvec(&v);
        assert_eq!(out.data, [6.0, 15.0]);
    }

    #[test]
    fn smat_matmul_matches_heap_matrix() {
        let mut a = SMat::<2, 3>::zeros();
        a.data = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let mut b = SMat::<3, 2>::zeros();
        b.data = [[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]];
        let c = a.matmul(&b);
        assert_eq!(c.data, [[58.0, 64.0], [139.0, 154.0]]);
    }

    #[test]
    fn smat_transpose_roundtrip() {
        let mut a = SMat::<2, 3>::zeros();
        a.data = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().data[2][1], 6.0);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let mut a = SMat::<3, 3>::zeros();
        a.data = [[4.0, 2.0, 1.0], [2.0, 5.0, 3.0], [1.0, 3.0, 6.0]];
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        let mut max_err: Real = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                max_err = max_err.max((prod.data[r][c] - expect).abs());
            }
        }
        assert!(max_err < 1e-4);
    }

    #[test]
    fn singular_inverse_rejected() {
        let mut a = SMat::<2, 2>::zeros();
        a.data = [[1.0, 2.0], [2.0, 4.0]];
        assert_eq!(a.inverse().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn stack_oselm_update_matches_heap_kernel() {
        let h = [0.3, -0.7, 0.2, 0.9];
        // Stack path.
        let mut ps = SMat::<4, 4>::identity();
        ps.oselm_p_update(&SVec::from_array(h)).unwrap();
        // Heap path.
        let mut ph = crate::Matrix::identity(4);
        let mut scratch = crate::sherman::Rank1Scratch::new(4);
        crate::sherman::oselm_p_update(&mut ph, &h, &mut scratch).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert!((ps.data[r][c] - ph.get(r, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn running_mean_update_on_stack() {
        let mut c = SVec::<2>::zeros();
        for (n, v) in [[2.0, 4.0], [4.0, 8.0], [6.0, 12.0]].iter().enumerate() {
            c.running_mean_update(n as u64, &SVec::from_array(*v));
        }
        assert!((c.data[0] - 4.0).abs() < 1e-5);
        assert!((c.data[1] - 8.0).abs() < 1e-5);
    }

    #[test]
    fn add_outer_known() {
        let mut m = SMat::<2, 2>::zeros();
        m.add_outer(
            2.0,
            &SVec::from_array([1.0, 2.0]),
            &SVec::from_array([3.0, 4.0]),
        );
        assert_eq!(m.data, [[6.0, 8.0], [12.0, 16.0]]);
    }
}
