//! Quadrant splitting/joining and power-of-two padding.
//!
//! Strassen-family algorithms recurse on 2×2 block structure; these helpers
//! move between an `n×n` matrix (`n` even) and its four `n/2 × n/2`
//! quadrants, and pad arbitrary matrices up to the next power of two
//! (multiplication of padded matrices restricts to the original product).

use crate::dense::Matrix;
use crate::scalar::Scalar;
use crate::view::MatrixView;

/// Split a square even-order matrix into `[Q11, Q12, Q21, Q22]` (copies).
///
/// # Panics
/// Panics unless the matrix is square with even order.
pub fn split_quadrants<T: Scalar>(m: &Matrix<T>) -> [Matrix<T>; 4] {
    let v = MatrixView::full(m);
    let q = v.quadrants();
    [
        q[0].to_matrix(),
        q[1].to_matrix(),
        q[2].to_matrix(),
        q[3].to_matrix(),
    ]
}

/// Join four equally-sized square quadrants into one matrix.
///
/// # Panics
/// Panics if the quadrants are not all square of the same order.
pub fn join_quadrants<T: Scalar>(q: &[Matrix<T>; 4]) -> Matrix<T> {
    let h = q[0].rows();
    for quad in q {
        assert!(
            quad.rows() == h && quad.cols() == h,
            "quadrant shape mismatch"
        );
    }
    let mut data = Vec::with_capacity(4 * h * h);
    for [left, right] in [[&q[0], &q[1]], [&q[2], &q[3]]] {
        for i in 0..h {
            data.extend_from_slice(left.row(i));
            data.extend_from_slice(right.row(i));
        }
    }
    Matrix::from_vec(2 * h, 2 * h, data)
}

/// Next power of two ≥ `n` (with `next_pow2(0) == 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Zero-pad to a `size × size` square; `size` must cover both dimensions.
///
/// # Panics
/// Panics if `size` is smaller than either dimension.
pub fn pad_to<T: Scalar>(m: &Matrix<T>, size: usize) -> Matrix<T> {
    assert!(size >= m.rows() && size >= m.cols(), "pad size too small");
    let mut p = Matrix::zeros(size, size);
    for i in 0..m.rows() {
        p.as_mut_slice()[i * size..i * size + m.cols()].copy_from_slice(m.row(i));
    }
    p
}

/// Zero-pad a matrix up to the next power-of-two square covering both
/// dimensions.
pub fn pad_pow2<T: Scalar>(m: &Matrix<T>) -> Matrix<T> {
    pad_to(m, next_pow2(m.rows().max(m.cols())))
}

/// Extract the top-left `rows × cols` corner (inverse of padding).
///
/// # Panics
/// Panics if the corner exceeds the matrix.
pub fn crop<T: Scalar>(m: &Matrix<T>, rows: usize, cols: usize) -> Matrix<T> {
    assert!(rows <= m.rows() && cols <= m.cols(), "crop exceeds matrix");
    MatrixView::full(m).window(0, 0, rows, cols).to_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn split_join_roundtrip() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = Matrix::<i64>::random_small(8, 8, &mut rng);
        assert_eq!(join_quadrants(&split_quadrants(&m)), m);
    }

    #[test]
    fn row_copy_helpers_match_the_elementwise_definitions() {
        let mut rng = StdRng::seed_from_u64(19);
        for h in [1, 3, 8] {
            let n = 2 * h;
            let m = Matrix::<i64>::random_small(n, n, &mut rng);
            let quads = split_quadrants(&m);
            assert_eq!(join_quadrants(&quads), m, "h={h}");
            let views = MatrixView::full(&m).quadrants();
            for (q, (quad, view)) in quads.iter().zip(&views).enumerate() {
                let (r0, c0) = ((q / 2) * h, (q % 2) * h);
                let reference = Matrix::from_fn(h, h, |i, j| m[(r0 + i, c0 + j)]);
                assert_eq!(*quad, reference, "h={h} quadrant {q}");
                assert_eq!(view.to_matrix(), reference, "h={h} view {q}");
            }
            for (rows, cols) in [(h, h), (n - 1, h), (1, n)] {
                let corner = crop(&m, rows, cols);
                let padded = pad_to(&corner, n + 1);
                let reference = Matrix::from_fn(n + 1, n + 1, |i, j| {
                    if i < rows && j < cols {
                        m[(i, j)]
                    } else {
                        0
                    }
                });
                assert_eq!(padded, reference, "h={h} pad {rows}x{cols}");
                assert_eq!(
                    crop(&padded, rows, cols),
                    corner,
                    "h={h} crop {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn split_addresses() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let [q11, q12, q21, q22] = split_quadrants(&m);
        assert_eq!(q11[(0, 0)], 0);
        assert_eq!(q12[(0, 0)], 2);
        assert_eq!(q21[(0, 0)], 8);
        assert_eq!(q22[(1, 1)], 15);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn padding_preserves_product() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = Matrix::<i64>::random_small(3, 3, &mut rng);
        let b = Matrix::<i64>::random_small(3, 3, &mut rng);
        let c = multiply_naive(&a, &b);
        let cp = multiply_naive(&pad_pow2(&a), &pad_pow2(&b));
        assert_eq!(crop(&cp, 3, 3), c);
        // Padding region of the product stays zero.
        for i in 0..4 {
            assert_eq!(cp[(i, 3)], 0);
            assert_eq!(cp[(3, i)], 0);
        }
    }

    #[test]
    fn pad_rectangular_to_square() {
        let m = Matrix::from_rows(&[&[1i64, 2, 3]]);
        let p = pad_pow2(&m);
        assert_eq!((p.rows(), p.cols()), (4, 4));
        assert_eq!(p[(0, 2)], 3);
        assert_eq!(p[(1, 0)], 0);
    }

    #[test]
    #[should_panic(expected = "pad size too small")]
    fn pad_too_small_panics() {
        let m = Matrix::<i64>::zeros(3, 3);
        let _ = pad_to(&m, 2);
    }

    #[test]
    #[should_panic(expected = "crop exceeds matrix")]
    fn crop_oob_panics() {
        let m = Matrix::<i64>::zeros(2, 2);
        let _ = crop(&m, 3, 1);
    }

    #[test]
    #[should_panic(expected = "quadrant shape mismatch")]
    fn join_mismatched_panics() {
        let q = [
            Matrix::<i64>::zeros(2, 2),
            Matrix::<i64>::zeros(2, 2),
            Matrix::<i64>::zeros(2, 2),
            Matrix::<i64>::zeros(3, 3),
        ];
        let _ = join_quadrants(&q);
    }
}
