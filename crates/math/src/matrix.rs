//! A minimal row-major matrix used for centroid tables, OPQ rotations and
//! the synthetic-corpus generators.
//!
//! This is intentionally not a linear-algebra library: the workspace only
//! needs dense storage with row views, matrix–vector products and a
//! Gram-Schmidt orthonormalization (to build random rotations for OPQ).

use crate::distance;

/// Dense row-major `rows x cols` matrix of `f32`.
///
/// # Examples
///
/// ```
/// use hermes_math::Mat;
/// let m = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
/// assert_eq!(m.mat_vec(&[3.0, 4.0]), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer size mismatch");
        Mat { rows, cols, data }
    }

    /// Copies the given rows, in the order given, into a new matrix —
    /// one flat allocation, no per-row `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= rows`.
    pub fn gather_rows(&self, rows: impl IntoIterator<Item = usize>) -> Self {
        let rows = rows.into_iter();
        let mut data = Vec::with_capacity(rows.size_hint().0 * self.cols);
        let mut n = 0;
        for i in rows {
            data.extend_from_slice(self.row(i));
            n += 1;
        }
        Mat {
            rows: n,
            cols: self.cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Flat row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// `M · v` for a column vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mat_vec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        self.iter_rows()
            .map(|r| distance::inner_product(r, v))
            .collect()
    }

    /// `Mᵀ · v`; with `M` orthonormal this is the inverse rotation.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    pub fn transpose_vec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, r) in self.iter_rows().enumerate() {
            let s = v[i];
            for (o, x) in out.iter_mut().zip(r) {
                *o += s * x;
            }
        }
        out
    }

    /// Orthonormalizes the rows in place (modified Gram–Schmidt). Rows that
    /// become numerically zero are re-seeded from the standard basis so the
    /// result is always a full rotation for square matrices.
    pub fn orthonormalize_rows(&mut self) {
        let cols = self.cols;
        for i in 0..self.rows {
            for j in 0..i {
                let proj = {
                    let (head, tail) = self.data.split_at(i * cols);
                    let rj = &head[j * cols..(j + 1) * cols];
                    let ri = &tail[..cols];
                    distance::inner_product(ri, rj)
                };
                let (head, tail) = self.data.split_at_mut(i * cols);
                let rj = &head[j * cols..(j + 1) * cols];
                let ri = &mut tail[..cols];
                for (a, b) in ri.iter_mut().zip(rj) {
                    *a -= proj * b;
                }
            }
            let n = distance::norm(self.row(i));
            if n < 1e-9 {
                // Degenerate row: fall back to a basis vector not yet used.
                let basis = i % cols;
                let row = self.row_mut(i);
                row.fill(0.0);
                row[basis] = 1.0;
            } else {
                distance::scale(self.row_mut(i), 1.0 / n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mat_vec_is_noop() {
        let m = Mat::identity(4);
        let v = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.mat_vec(&v), v);
    }

    #[test]
    fn from_rows_round_trips_row_access() {
        let m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn gather_rows_copies_in_the_order_given() {
        let m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = m.gather_rows([2, 0, 2]);
        assert_eq!(g, Mat::from_flat(3, 2, vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]));
        assert_eq!(m.gather_rows([]), Mat::zeros(0, 2));
    }

    #[test]
    fn transpose_vec_inverts_rotation() {
        // 90-degree rotation in the plane.
        let m = Mat::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]);
        let v = vec![2.0, 5.0];
        let rotated = m.mat_vec(&v);
        let back = m.transpose_vec(&rotated);
        for (a, b) in back.iter().zip(&v) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn orthonormalize_produces_orthonormal_rows() {
        let mut m = Mat::from_rows(&[
            vec![1.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ]);
        m.orthonormalize_rows();
        for i in 0..3 {
            assert!((distance::norm(m.row(i)) - 1.0).abs() < 1e-5);
            for j in 0..i {
                assert!(distance::inner_product(m.row(i), m.row(j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn orthonormalize_recovers_from_degenerate_rows() {
        let mut m = Mat::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]);
        m.orthonormalize_rows();
        assert!(distance::inner_product(m.row(0), m.row(1)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mat_vec_checks_dimension() {
        let m = Mat::identity(3);
        let _ = m.mat_vec(&[1.0, 2.0]);
    }
}
