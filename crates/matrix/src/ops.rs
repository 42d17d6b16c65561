//! Entrywise matrix operations (the "linear" part of bilinear algorithms).
//!
//! Fast matrix multiplication interleaves O(n²) additions with the seven
//! recursive products; these kernels are that O(n²) part. They are written
//! slice-wise so the compiler can vectorize them.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// `a + b`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let mut out = a.clone();
    add_assign(&mut out, b);
    out
}

/// `a - b`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn sub<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let mut out = a.clone();
    sub_assign(&mut out, b);
    out
}

/// `a += b`, in place.
pub fn add_assign<T: Scalar>(a: &mut Matrix<T>, b: &Matrix<T>) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// `a -= b`, in place.
pub(crate) fn sub_assign<T: Scalar>(a: &mut Matrix<T>, b: &Matrix<T>) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
}

/// `acc += c * m` — the fused kernel used by encoder/decoder application,
/// where `c` is a small integer coefficient embedded into the ring.
///
/// Coefficients 0/±1 take fast paths (no multiply).
pub fn axpy_coeff<T: Scalar>(acc: &mut Matrix<T>, c: i64, m: &Matrix<T>) {
    assert_eq!(
        (acc.rows(), acc.cols()),
        (m.rows(), m.cols()),
        "shape mismatch"
    );
    match c {
        0 => {}
        1 => add_assign(acc, m),
        -1 => sub_assign(acc, m),
        _ => {
            let c = T::from_i64(c);
            for (x, &y) in acc.as_mut_slice().iter_mut().zip(m.as_slice()) {
                *x += c * y;
            }
        }
    }
}

/// Linear combination `Σ coeffs[k] * mats[k]` of equally-shaped matrices.
///
/// # Panics
/// Panics if `coeffs` and `mats` lengths differ or `mats` is empty.
pub fn linear_combination<T: Scalar>(coeffs: &[i64], mats: &[&Matrix<T>]) -> Matrix<T> {
    assert_eq!(
        coeffs.len(),
        mats.len(),
        "coefficient/matrix count mismatch"
    );
    assert!(!mats.is_empty(), "empty combination");
    let mut acc = Matrix::zeros(mats[0].rows(), mats[0].cols());
    for (&c, m) in coeffs.iter().zip(mats) {
        axpy_coeff(&mut acc, c, m);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rational;

    fn a() -> Matrix<i64> {
        Matrix::from_rows(&[&[1i64, 2], &[3, 4]])
    }
    fn b() -> Matrix<i64> {
        Matrix::from_rows(&[&[5i64, 6], &[7, 8]])
    }

    #[test]
    fn add_sub_roundtrip() {
        let s = add(&a(), &b());
        assert_eq!(s, Matrix::from_rows(&[&[6i64, 8], &[10, 12]]));
        assert_eq!(sub(&s, &b()), a());
    }

    #[test]
    fn in_place_matches_functional() {
        let mut x = a();
        add_assign(&mut x, &b());
        assert_eq!(x, add(&a(), &b()));
        sub_assign(&mut x, &b());
        assert_eq!(x, a());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = add(&a(), &Matrix::<i64>::zeros(3, 2));
    }

    #[test]
    fn axpy_coeff_paths() {
        // 0: no-op
        let mut acc = a();
        axpy_coeff(&mut acc, 0, &b());
        assert_eq!(acc, a());
        // +1 / -1
        axpy_coeff(&mut acc, 1, &b());
        assert_eq!(acc, add(&a(), &b()));
        axpy_coeff(&mut acc, -1, &b());
        assert_eq!(acc, a());
        // general coefficient
        axpy_coeff(&mut acc, 2, &b());
        assert_eq!(acc, add(&a(), &b().map(|x| x * 2)));
    }

    #[test]
    fn linear_combination_strassen_style() {
        // S4 = A11 + A12 - A21 - A22 pattern on 1×1 blocks
        let m1 = Matrix::from_rows(&[&[1i64]]);
        let m2 = Matrix::from_rows(&[&[2i64]]);
        let m3 = Matrix::from_rows(&[&[3i64]]);
        let m4 = Matrix::from_rows(&[&[4i64]]);
        let got = linear_combination(&[1, 1, -1, -1], &[&m1, &m2, &m3, &m4]);
        assert_eq!(got[(0, 0)], 1 + 2 - 3 - 4);
    }

    #[test]
    fn linear_combination_exact_rationals() {
        let m = Matrix::from_rows(&[&[Rational::new(1, 2)]]);
        let got = linear_combination(&[3], &[&m]);
        assert_eq!(got[(0, 0)], Rational::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "empty combination")]
    fn empty_combination_panics() {
        let _: Matrix<i64> = linear_combination(&[], &[]);
    }
}
