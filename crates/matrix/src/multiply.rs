//! Classical (cubic) multiplication kernels.
//!
//! These are the Table I baseline (`Ω((n/√M)³·M/P)` row) and the correctness
//! oracle against which every fast algorithm in `fmm-core` is checked. Two
//! kernels with identical results but different memory behaviour:
//!
//! * [`multiply_naive`] — textbook i-j-k triple loop;
//! * [`multiply_ikj`] — loop-reordered for streaming row access.
//!
//! The cache-blocked and multi-threaded paths are `fmm-kernel`'s
//! `multiply` with `Alg::Classical`.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Textbook i-j-k multiplication. O(n³) time, poor locality.
///
/// ```
/// use fmm_matrix::{Matrix, multiply::multiply_naive};
/// let a = Matrix::from_rows(&[&[1i64, 2], &[3, 4]]);
/// let c = multiply_naive(&a, &Matrix::identity(2));
/// assert_eq!(c, a);
/// ```
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn multiply_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::zero();
            for l in 0..k {
                acc += a[(i, l)] * b[(l, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// i-k-j ordered multiplication: both inner accesses stream along rows.
pub fn multiply_ikj<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c: Matrix<T> = Matrix::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let av = a[(i, l)];
            if av.is_zero() {
                continue;
            }
            let brow = b.row(l);
            let crow = &mut c.as_mut_slice()[i * n..(i + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += av * bj;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zp::Zp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_by_two_known_product() {
        let a = Matrix::from_rows(&[&[1i64, 2], &[3, 4]]);
        let b = Matrix::from_rows(&[&[5i64, 6], &[7, 8]]);
        let expect = Matrix::from_rows(&[&[19i64, 22], &[43, 50]]);
        assert_eq!(multiply_naive(&a, &b), expect);
        assert_eq!(multiply_ikj(&a, &b), expect);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::<i64>::random_small(5, 5, &mut rng);
        let id = Matrix::identity(5);
        assert_eq!(multiply_naive(&a, &id), a);
        assert_eq!(multiply_naive(&id, &a), a);
    }

    #[test]
    fn rectangular_shapes() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::<i64>::random_small(3, 5, &mut rng);
        let b = Matrix::<i64>::random_small(5, 2, &mut rng);
        let c = multiply_naive(&a, &b);
        assert_eq!((c.rows(), c.cols()), (3, 2));
        assert_eq!(multiply_ikj(&a, &b), c);
    }

    #[test]
    fn all_kernels_agree_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 7, 16, 33] {
            let a = Matrix::<i64>::random_small(n, n, &mut rng);
            let b = Matrix::<i64>::random_small(n, n, &mut rng);
            let c = multiply_naive(&a, &b);
            assert_eq!(multiply_ikj(&a, &b), c, "ikj n={n}");
        }
    }

    #[test]
    fn zp_field_multiplication() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::<Zp>::random_small(8, 8, &mut rng);
        let b = Matrix::<Zp>::random_small(8, 8, &mut rng);
        assert_eq!(multiply_naive(&a, &b), multiply_ikj(&a, &b));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<i64>::zeros(2, 3);
        let b = Matrix::<i64>::zeros(2, 3);
        let _ = multiply_naive(&a, &b);
    }

    #[test]
    fn associativity_spot_check() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Matrix::<i64>::random_small(4, 4, &mut rng);
        let b = Matrix::<i64>::random_small(4, 4, &mut rng);
        let c = Matrix::<i64>::random_small(4, 4, &mut rng);
        let ab_c = multiply_naive(&multiply_naive(&a, &b), &c);
        let a_bc = multiply_naive(&a, &multiply_naive(&b, &c));
        assert_eq!(ab_c, a_bc);
    }
}
