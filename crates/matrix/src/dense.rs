//! Row-major dense matrices.

use crate::random;
use crate::scalar::Scalar;
use rand::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of [`Scalar`]s.
///
/// Storage is a single `Vec<T>` of length `rows * cols`; element `(i, j)`
/// lives at `data[i * cols + j]`. All fast-multiplication code in the
/// workspace operates on square power-of-two matrices obtained via
/// [`crate::quad::pad_pow2`], but the type itself is fully general.
///
/// ```
/// use fmm_matrix::Matrix;
/// let m = Matrix::from_rows(&[&[1i64, 2], &[3, 4]]);
/// assert_eq!(m[(1, 0)], 3);
/// assert_eq!(m.transpose()[(0, 1)], 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// All-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major `Vec`.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from nested slices (row per entry), for test literals.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Matrix with entries drawn uniformly from small integers in `[-9, 9]`,
    /// embedded via [`Scalar::from_i64`]. Small entries keep exact-arithmetic
    /// products far from overflow at every size used in tests and benches.
    ///
    /// Each entry, in row-major order, is the draw
    /// `Uniform::new_inclusive(-9, 9)` makes from the next two `u64`s,
    /// `(hi·2⁶⁴ + lo) mod 19 − 9`, and afterwards `rng` is where
    /// `2·rows·cols` draws leave it. A [`StdRng`](rand::rngs::StdRng)
    /// feeding a large matrix is drawn as eight jump-started xoshiro
    /// lanes in vector registers, each filling one contiguous block of
    /// the entries, with the same bytes and end state (the `random`
    /// module's docs say how, and what proves it).
    pub fn random_small(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let data = random::small_entries(random::Isa::best(), rows * cols, rng);
        Self::from_vec(rows, cols, data)
    }

    /// [`random_small`](Self::random_small) into `self`: reshaped to `rows ×
    /// cols`, with the same entries and end state of `rng`, in the storage
    /// `self` already has when it holds `rows·cols` entries.
    pub fn refill_random_small(&mut self, rows: usize, cols: usize, rng: &mut impl Rng) {
        random::fill_small_entries(random::Isa::best(), &mut self.data, rows * cols, rng);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when `rows == cols`.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Underlying row-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable underlying row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i` as a slice.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Apply `f` entrywise, producing a new matrix (possibly of another
    /// scalar type).
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Entrywise approximate comparison (exact for exact scalar types).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(b, tol))
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_identity() {
        let z: Matrix<i64> = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0));

        let id: Matrix<i64> = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1 } else { 0 });
            }
        }
    }

    #[test]
    fn from_fn_layout_row_major() {
        let m = Matrix::<i64>::from_fn(2, 3, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(m[(1, 2)], 12);
        assert_eq!(m.row(1), &[10, 11, 12]);
    }

    #[test]
    fn from_rows_literal() {
        let m = Matrix::from_rows(&[&[1i64, 2], &[3, 4]]);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m[(1, 0)], 3);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1i64, 2], &[3]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_mismatch_panics() {
        let _ = Matrix::<i64>::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::<i64>::random_small(4, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(3, 2)], m[(2, 3)]);
    }

    #[test]
    fn map_changes_type() {
        let m = Matrix::from_rows(&[&[1i64, -2], &[3, 4]]);
        let f = m.map(|x| x as f64 * 0.5);
        assert_eq!(f[(0, 1)], -1.0);
    }

    #[test]
    fn approx_eq_tolerates_noise() {
        let a = Matrix::from_rows(&[&[1.0f64, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0 + 1e-12, 2.0]]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Matrix::from_rows(&[&[1.5f64, 2.0]]), 1e-9));
        // Shape mismatch is never equal.
        assert!(!a.approx_eq(&Matrix::zeros(2, 2), 1e-9));
    }

    #[test]
    fn random_small_draws_what_uniform_draws() {
        use rand::distributions::{Distribution, Uniform};
        let dist = Uniform::new_inclusive(-9i64, 9);
        for seed in 0..200u64 {
            for (r, c) in [(1, 1), (3, 7), (16, 16), (33, 5)] {
                let reference: Vec<i64> = {
                    let mut rng = StdRng::seed_from_u64(seed);
                    (0..r * c).map(|_| dist.sample(&mut rng)).collect()
                };
                let ints = Matrix::<i64>::random_small(r, c, &mut StdRng::seed_from_u64(seed));
                assert_eq!(ints.as_slice(), &reference[..], "i64 seed {seed} {r}x{c}");
                let floats = Matrix::<f64>::random_small(r, c, &mut StdRng::seed_from_u64(seed));
                let want: Vec<u64> = reference.iter().map(|&v| (v as f64).to_bits()).collect();
                let got: Vec<u64> = floats.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "f64 seed {seed} {r}x{c}");
            }
        }
    }

    #[test]
    fn refills_reuse_the_storage_they_have() {
        // Large enough that the lanes run (512² entries), then smaller.
        let mut m = Matrix::<f64>::zeros(0, 0);
        for (n, seed) in [(512, 7), (512, 8), (100, 9)] {
            let want = Matrix::<f64>::random_small(n, n, &mut StdRng::seed_from_u64(seed));
            let ptr = m.as_slice().as_ptr();
            m.refill_random_small(n, n, &mut StdRng::seed_from_u64(seed));
            assert!(m == want, "refill {n} seed {seed}");
            if seed > 7 {
                assert_eq!(m.as_slice().as_ptr(), ptr, "refill {n} reallocated");
            }
        }
    }

    #[test]
    fn random_small_bounded() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = Matrix::<i64>::random_small(16, 16, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (-9..=9).contains(&x)));
    }
}
