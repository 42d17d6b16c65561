//! Strided, non-owning views into a [`Matrix`].
//!
//! The 2×2 recursion of Strassen-family algorithms works on quadrants; views
//! let kernels address a quadrant without copying it, which matters both for
//! performance and for the I/O-instrumented executors in `fmm-memsim` (a
//! view preserves the *identity* of the underlying words, so cache
//! simulation sees the true reuse pattern).

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Immutable rectangular window into a matrix.
#[derive(Clone, Copy)]
pub struct MatrixView<'a, T> {
    data: &'a [T],
    /// Offset of element (0,0) of the view within `data`.
    offset: usize,
    /// Row stride of the underlying matrix.
    stride: usize,
    rows: usize,
    cols: usize,
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// View of the whole matrix.
    pub(crate) fn full(m: &'a Matrix<T>) -> Self {
        MatrixView {
            data: m.as_slice(),
            offset: 0,
            stride: m.cols(),
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// Sub-window at `(r0, c0)` of shape `rows × cols`.
    ///
    /// # Panics
    /// Panics if the window exceeds the view bounds.
    pub(crate) fn window(
        &self,
        r0: usize,
        c0: usize,
        rows: usize,
        cols: usize,
    ) -> MatrixView<'a, T> {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "window out of bounds"
        );
        MatrixView {
            data: self.data,
            offset: self.offset + r0 * self.stride + c0,
            stride: self.stride,
            rows,
            cols,
        }
    }

    /// The four quadrants of a square even-order view, in row-major order
    /// `[Q11, Q12, Q21, Q22]`.
    pub(crate) fn quadrants(&self) -> [MatrixView<'a, T>; 4] {
        assert!(
            self.rows == self.cols && self.rows.is_multiple_of(2),
            "need square even view"
        );
        let h = self.rows / 2;
        [
            self.window(0, 0, h, h),
            self.window(0, h, h, h),
            self.window(h, 0, h, h),
            self.window(h, h, h, h),
        ]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Materialize the view as an owned matrix, one row copy per row.
    pub(crate) fn to_matrix(self) -> Matrix<T> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            let start = self.offset + i * self.stride;
            data.extend_from_slice(&self.data[start..start + self.cols]);
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<i64> {
        Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64)
    }

    #[test]
    fn full_view_round_trip() {
        let m = sample();
        let v = MatrixView::full(&m);
        assert_eq!(v.to_matrix(), m);
    }

    #[test]
    fn quadrants_address_correct_elements() {
        let m = sample();
        let v = MatrixView::full(&m);
        let [q11, q12, q21, q22] = v.quadrants();
        assert_eq!(q11.to_matrix()[(0, 0)], 0);
        assert_eq!(q12.to_matrix()[(0, 0)], 2);
        assert_eq!(q21.to_matrix()[(0, 0)], 8);
        assert_eq!(q22.to_matrix()[(1, 1)], 15);
    }

    #[test]
    fn nested_windows_compose() {
        let m = sample();
        let v = MatrixView::full(&m);
        let w = v.window(1, 1, 3, 3).window(1, 1, 2, 2);
        assert_eq!(w.to_matrix()[(0, 0)], m[(2, 2)]);
        assert_eq!(w.to_matrix()[(1, 1)], m[(3, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn window_oob_panics() {
        let m = sample();
        let v = MatrixView::full(&m);
        let _ = v.window(2, 2, 3, 3);
    }

    #[test]
    fn copy_from_view() {
        let src = sample();
        let dst = MatrixView::full(&src).window(1, 1, 2, 2).to_matrix();
        assert_eq!((dst.rows(), dst.cols()), (2, 2));
        assert_eq!(dst[(0, 0)], src[(1, 1)]);
        assert_eq!(dst[(1, 1)], src[(2, 2)]);
    }
}
