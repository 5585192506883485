//! Heap-backed, row-major dense matrix.
//!
//! Every hot kernel has an `*_into` variant writing into a caller-provided
//! output so that per-sample loops (OS-ELM sequential updates, detector
//! centroid updates) can run allocation-free after setup, as the session's
//! performance guidance and the paper's MCU target both demand.

use crate::{LinalgError, Real, Result};

/// Dense row-major matrix of [`Real`] scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Real>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: Real) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Real>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(
                "data length does not match rows * cols",
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[Real]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument("from_rows: no rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument("from_rows: ragged rows"));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds an n x 1 column matrix from a slice copy.
    pub fn col_vector(v: &[Real]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Real] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Real] {
        &mut self.data
    }

    /// Element accessor. Panics on out-of-bounds in debug builds only.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Real {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter. Panics on out-of-bounds in debug builds only.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Real) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[Real] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Real] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into `out` (which must have `rows` elements).
    pub fn col_into(&self, c: usize, out: &mut [Real]) {
        debug_assert_eq!(out.len(), self.rows);
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.data[r * self.cols + c];
        }
    }

    /// Returns column `c` as a fresh vector.
    pub fn col(&self, c: usize) -> Vec<Real> {
        let mut out = vec![0.0; self.rows];
        self.col_into(c, &mut out);
        out
    }

    /// Fills the matrix with zeros without changing its shape.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Overwrites `self` with the identity; requires a square matrix.
    pub fn set_identity(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::InvalidArgument("set_identity: not square"));
        }
        self.data.fill(0.0);
        for i in 0..self.rows {
            self.data[i * self.cols + i] = 1.0;
        }
        Ok(())
    }

    /// Copies `src` into `self`; shapes must match.
    pub fn copy_from(&mut self, src: &Matrix) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "copy_from",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out)
            .expect("transpose_into with exact shape cannot fail");
        out
    }

    /// Writes the transpose of `self` into `out` (shape `cols x rows`).
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<()> {
        if out.rows != self.cols || out.cols != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_into",
                lhs: (self.cols, self.rows),
                rhs: out.shape(),
            });
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * out.cols + r] = self.data[r * self.cols + c];
            }
        }
        Ok(())
    }

    /// `self * rhs` as a new matrix.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Writes `self * rhs` into `out`.
    ///
    /// Uses the cache-friendly i-k-j loop order so the inner loop walks both
    /// `rhs` and `out` rows contiguously.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.rows != self.rows || out.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into (out)",
                lhs: (self.rows, rhs.cols),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        let n = rhs.cols;
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// Writes `selfᵀ * rhs` into `out` without materialising the transpose.
    pub fn tr_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.rows != self.cols || out.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matmul_into (out)",
                lhs: (self.cols, rhs.cols),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        let n = rhs.cols;
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &rhs.data[k * n..(k + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// Writes `self * v` (matrix-vector product) into `out`.
    pub fn matvec_into(&self, v: &[Real], out: &mut [Real]) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec (out)",
                lhs: (self.rows, 1),
                rhs: (out.len(), 1),
            });
        }
        // Four rows per pass share each chunk of `v`, and the last one to
        // three rows share one more pass; every output is still exactly
        // `vector::dot(row, v)` (see `vector::dot_rows`).
        let cols = self.cols;
        let row = |r: usize| &self.data[r * cols..(r + 1) * cols];
        let blocked = self.rows / 4 * 4;
        for (r, slots) in (0..blocked).step_by(4).zip(out.chunks_exact_mut(4)) {
            let rows = [row(r), row(r + 1), row(r + 2), row(r + 3)];
            slots.copy_from_slice(&crate::vector::dot_rows(rows, v));
        }
        let r = blocked;
        let slots = &mut out[blocked..];
        match slots.len() {
            0 => {}
            1 => slots.copy_from_slice(&crate::vector::dot_rows([row(r)], v)),
            2 => slots.copy_from_slice(&crate::vector::dot_rows([row(r), row(r + 1)], v)),
            _ => slots.copy_from_slice(&crate::vector::dot_rows(
                [row(r), row(r + 1), row(r + 2)],
                v,
            )),
        }
        Ok(())
    }

    /// Returns `self * v` as a fresh vector.
    pub fn matvec(&self, v: &[Real]) -> Result<Vec<Real>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Writes `selfᵀ * v` into `out` without materialising the transpose.
    pub fn tr_matvec_into(&self, v: &[Real], out: &mut [Real]) -> Result<()> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "tr_matvec (out)",
                lhs: (self.cols, 1),
                rhs: (out.len(), 1),
            });
        }
        out.fill(0.0);
        let cols = self.cols;
        let row = |r: usize| &self.data[r * cols..(r + 1) * cols];
        // Rows with an exact-zero weight contribute nothing and are skipped;
        // the rest are applied four per pass over `out` as
        // `(((o + v0·a0) + v1·a1) + v2·a2) + v3·a3`, and the last one to
        // three in one more pass the same way. That is the same per-element
        // sequence of IEEE operations as one row at a time.
        let mut live = v.iter().enumerate().filter(|&(_, &vr)| vr != 0.0);
        loop {
            match [live.next(), live.next(), live.next(), live.next()] {
                [Some((r0, &v0)), Some((r1, &v1)), Some((r2, &v2)), Some((r3, &v3))] => {
                    let lanes = out.iter_mut().zip(row(r0)).zip(row(r1));
                    for (((o, &a0), &a1), (&a2, &a3)) in lanes.zip(row(r2).iter().zip(row(r3))) {
                        *o = *o + v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3;
                    }
                }
                [Some((r0, &v0)), Some((r1, &v1)), Some((r2, &v2)), None] => {
                    let lanes = out.iter_mut().zip(row(r0)).zip(row(r1));
                    for (((o, &a0), &a1), &a2) in lanes.zip(row(r2)) {
                        *o = *o + v0 * a0 + v1 * a1 + v2 * a2;
                    }
                    return Ok(());
                }
                [Some((r0, &v0)), Some((r1, &v1)), None, None] => {
                    for ((o, &a0), &a1) in out.iter_mut().zip(row(r0)).zip(row(r1)) {
                        *o = *o + v0 * a0 + v1 * a1;
                    }
                    return Ok(());
                }
                [Some((r0, &v0)), None, None, None] => {
                    for (o, &a0) in out.iter_mut().zip(row(r0)) {
                        *o += v0 * a0;
                    }
                    return Ok(());
                }
                _ => return Ok(()),
            }
        }
    }

    /// In-place scalar multiplication: `self *= s`.
    pub fn scale(&mut self, s: Real) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Adds `s * rhs` to `self` in place.
    pub fn add_scaled(&mut self, s: Real, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_scaled",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += s * b;
        }
        Ok(())
    }

    /// Rank-1 update `self += s * u * vᵀ` performed in place.
    pub fn add_outer(&mut self, s: Real, u: &[Real], v: &[Real]) -> Result<()> {
        if u.len() != self.rows || v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "add_outer",
                lhs: self.shape(),
                rhs: (u.len(), v.len()),
            });
        }
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let su = s * ur;
            for (a, &b) in row.iter_mut().zip(v.iter()) {
                *a += su * b;
            }
        }
        Ok(())
    }

    /// Writes `self + u vᵀ` into `out` in one pass and reports whether
    /// every entry of `out` is finite.
    ///
    /// `out` ends bit for bit as a copy of `self` would after
    /// [`Matrix::add_outer`]`(1.0, u, v)`: rows with an exact-zero `u[r]`
    /// are copied, the rest get `a + u[r]·v[c]`. The
    /// finiteness verdict is [`crate::vector::all_finite`]'s, taken over
    /// each row while it is still in cache.
    pub fn add_outer_into(&self, u: &[Real], v: &[Real], out: &mut Matrix) -> Result<bool> {
        if u.len() != self.rows || v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "add_outer_into",
                lhs: self.shape(),
                rhs: (u.len(), v.len()),
            });
        }
        if out.shape() != self.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_outer_into (out)",
                lhs: self.shape(),
                rhs: out.shape(),
            });
        }
        if self.cols == 0 {
            return Ok(true);
        }
        let mut lanes = crate::vector::FiniteLanes::default();
        let rows = self.data.chunks_exact(self.cols);
        for ((arow, orow), &ur) in rows.zip(out.data.chunks_exact_mut(self.cols)).zip(u) {
            if ur == 0.0 {
                orow.copy_from_slice(arow);
            } else {
                for ((o, &a), &b) in orow.iter_mut().zip(arow).zip(v) {
                    *o = a + ur * b;
                }
            }
            lanes.scan(orow);
        }
        Ok(lanes.all_finite())
    }

    /// True when every element of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: Real) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Appends a copy of `row` as the last row of the matrix.
    pub fn push_row(&mut self, row: &[Real]) -> Result<()> {
        if self.rows > 0 && row.len() != self.cols {
            return Err(LinalgError::InvalidArgument("push_row: width mismatch"));
        }
        if self.rows == 0 {
            self.cols = row.len();
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Total number of scalar elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl core::fmt::Display for Matrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[Real]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let mut out = Matrix::zeros(2, 2);
        a.tr_matmul_into(&b, &mut out).unwrap();
        let expect = a.transpose().matmul(&b).unwrap();
        assert!(out.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn matvec_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 3];
        a.tr_matvec_into(&[1.0, 2.0], &mut out).unwrap();
        assert_eq!(out, a.transpose().matvec(&[1.0, 2.0]).unwrap());
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn add_outer_matches_matmul() {
        let mut a = Matrix::zeros(2, 3);
        a.add_outer(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0]).unwrap();
        let u = Matrix::col_vector(&[1.0, 2.0]);
        let v = m(1, 3, &[3.0, 4.0, 5.0]);
        let mut expect = u.matmul(&v).unwrap();
        expect.scale(2.0);
        assert!(a.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn add_scaled_combines() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let b = m(1, 2, &[2.0, 4.0]);
        a.add_scaled(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn col_extraction() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut a = Matrix::zeros(0, 0);
        a.push_row(&[1.0, 2.0]).unwrap();
        a.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(a.shape(), (2, 2));
        assert!(a.push_row(&[1.0]).is_err());
    }

    #[test]
    fn set_identity_requires_square() {
        let mut a = Matrix::zeros(2, 3);
        assert!(a.set_identity().is_err());
        let mut b = Matrix::zeros(3, 3);
        b.set_identity().unwrap();
        assert_eq!(b, Matrix::identity(3));
    }

    #[test]
    fn copy_from_checks_shape() {
        let mut a = Matrix::zeros(2, 2);
        let b = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.copy_from(&b).unwrap();
        assert_eq!(a, b);
        let c = Matrix::zeros(3, 2);
        assert!(a.copy_from(&c).is_err());
    }
}

/// The blocked `matvec_into` / `tr_matvec_into` kernels must reproduce the
/// plain one-row-at-a-time loops bit for bit. The references below are
/// those loops, kept verbatim as the oracle.
#[cfg(test)]
mod same_bits {
    use super::*;
    use crate::Rng;

    fn ref_dot(a: &[Real], b: &[Real]) -> Real {
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

    fn ref_matvec(m: &Matrix, v: &[Real]) -> Vec<Real> {
        (0..m.rows())
            .map(|r| ref_dot(&m.as_slice()[r * m.cols()..(r + 1) * m.cols()], v))
            .collect()
    }

    fn ref_tr_matvec(m: &Matrix, v: &[Real]) -> Vec<Real> {
        let mut out = vec![0.0; m.cols()];
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            let row = &m.as_slice()[r * m.cols()..(r + 1) * m.cols()];
            for (o, &a) in out.iter_mut().zip(row.iter()) {
                *o += vr * a;
            }
        }
        out
    }

    /// Bit equality, except that any NaN matches any NaN: Rust leaves the
    /// payload of a NaN produced by arithmetic unspecified.
    fn assert_same_bits(got: &[Real], want: &[Real], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:e} ({:#x}), reference {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// A vector of `n` draws in which every fifth entry is an exact `0.0`
    /// and every seventh an exact `-0.0` (zero rows and signed zeros).
    fn vector_with_zeros(rng: &mut Rng, n: usize) -> Vec<Real> {
        (0..n)
            .map(|i| match (i % 5, i % 7) {
                (3, _) => 0.0,
                (_, 4) => -0.0,
                _ => rng.uniform_range(-2.0, 2.0),
            })
            .collect()
    }

    fn check(m: &Matrix, x: &[Real], h: &[Real], what: &str) {
        let mut out = vec![Real::NAN; m.rows()];
        m.matvec_into(x, &mut out).unwrap();
        assert_same_bits(&out, &ref_matvec(m, x), &format!("matvec {what}"));
        let mut out = vec![Real::NAN; m.cols()];
        m.tr_matvec_into(h, &mut out).unwrap();
        assert_same_bits(&out, &ref_tr_matvec(m, h), &format!("tr_matvec {what}"));
    }

    #[test]
    fn blocked_kernels_match_the_row_loops_for_every_remainder() {
        let mut rng = Rng::seed_from(0xB175);
        // Every remainder mod 4 of rows and columns; past 9 rows
        // `tr_matvec` also runs a second four-row pass onto a non-zero
        // accumulator.
        for rows in 1..=17 {
            for cols in 1..=67 {
                let mut m = Matrix::zeros(rows, cols);
                // Mixed magnitudes make rounding order visible in the bits.
                for v in m.as_mut_slice() {
                    *v = rng.uniform_range(-1.0, 1.0) * (rng.uniform_range(-6.0, 6.0)).exp();
                }
                let x = vector_with_zeros(&mut rng, cols);
                let h = vector_with_zeros(&mut rng, rows);
                check(&m, &x, &h, &format!("{rows}x{cols}"));
            }
        }
    }

    #[test]
    fn blocked_kernels_propagate_nan_and_infinities_like_the_row_loops() {
        let mut rng = Rng::seed_from(0x1F);
        let specials = [Real::NAN, Real::INFINITY, Real::NEG_INFINITY];
        for (rows, cols) in [(4, 8), (5, 13), (9, 67), (8, 3)] {
            for &bad in &specials {
                for at in [0, rows * cols / 2, rows * cols - 1] {
                    let mut m = Matrix::zeros(rows, cols);
                    rng.fill_uniform(m.as_mut_slice(), -1.0, 1.0);
                    m.as_mut_slice()[at] = bad;
                    let x = vector_with_zeros(&mut rng, cols);
                    let h = vector_with_zeros(&mut rng, rows);
                    check(
                        &m,
                        &x,
                        &h,
                        &format!("{rows}x{cols}, {bad} in matrix at {at}"),
                    );
                }
                for at in [0, cols / 2, cols - 1] {
                    let mut m = Matrix::zeros(rows, cols);
                    rng.fill_uniform(m.as_mut_slice(), -1.0, 1.0);
                    let mut x = vector_with_zeros(&mut rng, cols);
                    x[at] = bad;
                    let mut h = vector_with_zeros(&mut rng, rows);
                    h[at % rows] = bad;
                    check(
                        &m,
                        &x,
                        &h,
                        &format!("{rows}x{cols}, {bad} in vector at {at}"),
                    );
                }
                // ±inf against an exact zero weight must still be skipped,
                // and inf - inf must cancel to NaN in the same place.
                let mut m = Matrix::zeros(rows, cols);
                rng.fill_uniform(m.as_mut_slice(), -1.0, 1.0);
                m.as_mut_slice()[0] = bad;
                m.as_mut_slice()[cols] = -bad;
                let x = vec![1.0; cols];
                let mut h = vec![1.0; rows];
                h[0] = 0.0;
                check(
                    &m,
                    &x,
                    &h,
                    &format!("{rows}x{cols}, {bad} in a skipped row"),
                );
            }
        }
    }

    /// `add_outer_into` against the two-step path it replaces: a copy, the
    /// in-place `add_outer(1.0, ..)`, then the separate finiteness scan.
    fn check_outer(m: &Matrix, u: &[Real], v: &[Real], what: &str) {
        let mut want = m.clone();
        want.add_outer(1.0, u, v).unwrap();
        let mut got = Matrix::filled(m.rows(), m.cols(), Real::NAN);
        let finite = m.add_outer_into(u, v, &mut got).unwrap();
        assert_same_bits(got.as_slice(), want.as_slice(), what);
        assert_eq!(
            finite,
            crate::vector::all_finite(want.as_slice()),
            "{what}: finiteness"
        );
    }

    #[test]
    fn add_outer_into_matches_copy_then_add_outer() {
        let mut rng = Rng::seed_from(0x0A7E);
        for rows in 1..=9 {
            for cols in 1..=35 {
                let mut m = Matrix::zeros(rows, cols);
                for v in m.as_mut_slice() {
                    *v = rng.uniform_range(-1.0, 1.0) * (rng.uniform_range(-6.0, 6.0)).exp();
                }
                // Signed zeros in `m` must survive a skipped row untouched.
                m.as_mut_slice()[0] = -0.0;
                let u = vector_with_zeros(&mut rng, rows);
                let v = vector_with_zeros(&mut rng, cols);
                check_outer(&m, &u, &v, &format!("{rows}x{cols}"));
            }
        }
        let specials = [Real::NAN, Real::INFINITY, Real::NEG_INFINITY, Real::MAX];
        for (rows, cols) in [(1, 1), (3, 8), (5, 13), (22, 19)] {
            for &bad in &specials {
                let fresh = |rng: &mut Rng| {
                    let mut m = Matrix::zeros(rows, cols);
                    rng.fill_uniform(m.as_mut_slice(), -1.0, 1.0);
                    let u = vector_with_zeros(rng, rows);
                    let v = vector_with_zeros(rng, cols);
                    (m, u, v)
                };
                for at in [0, rows * cols / 2, rows * cols - 1] {
                    let (mut m, u, v) = fresh(&mut rng);
                    m.as_mut_slice()[at] = bad;
                    check_outer(
                        &m,
                        &u,
                        &v,
                        &format!("{rows}x{cols}, {bad} in matrix at {at}"),
                    );
                }
                for at in [0, cols / 2, cols - 1] {
                    let (m, mut u, mut v) = fresh(&mut rng);
                    v[at] = bad;
                    check_outer(&m, &u, &v, &format!("{rows}x{cols}, {bad} in v at {at}"));
                    u[at % rows] = bad;
                    check_outer(&m, &u, &v, &format!("{rows}x{cols}, {bad} in u and v"));
                }
                // A non-finite `v` against an exact-zero weight is skipped.
                let (m, mut u, mut v) = fresh(&mut rng);
                u.iter_mut().for_each(|x| *x = 0.0);
                v[0] = bad;
                check_outer(
                    &m,
                    &u,
                    &v,
                    &format!("{rows}x{cols}, {bad} on a skipped row"),
                );
            }
        }
    }

    #[test]
    fn all_finite_matches_the_short_circuit_scan() {
        for n in 0..=35 {
            let clean: Vec<Real> = (0..n).map(|i| i as Real - 17.5).collect();
            assert!(crate::vector::all_finite(&clean), "n = {n}");
            for at in 0..n {
                for bad in [Real::NAN, Real::INFINITY, Real::NEG_INFINITY] {
                    let mut v = clean.clone();
                    v[at] = bad;
                    assert!(!crate::vector::all_finite(&v), "n = {n}, {bad} at {at}");
                }
            }
        }
        assert!(crate::vector::all_finite(&[Real::MAX, -Real::MAX, -0.0]));
    }
}
