//! Property-based tests for the matrix substrate.

use fmm_matrix::multiply::{multiply_ikj, multiply_naive};
use fmm_matrix::ops::{add, linear_combination, sub};
use fmm_matrix::quad::{crop, join_quadrants, pad_pow2, split_quadrants};
use fmm_matrix::{Matrix, Rational, Zp};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix<i64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-9i64..=9, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn square_matrix(dim: usize) -> impl Strategy<Value = Matrix<i64>> {
    proptest::collection::vec(-9i64..=9, dim * dim)
        .prop_map(move |data| Matrix::from_vec(dim, dim, data))
}

proptest! {
    #[test]
    fn addition_commutes(a in square_matrix(6), b in square_matrix(6)) {
        prop_assert_eq!(add(&a, &b), add(&b, &a));
    }

    #[test]
    fn addition_associates(a in square_matrix(5), b in square_matrix(5), c in square_matrix(5)) {
        prop_assert_eq!(add(&add(&a, &b), &c), add(&a, &add(&b, &c)));
    }

    #[test]
    fn sub_is_add_inverse(a in square_matrix(6), b in square_matrix(6)) {
        prop_assert_eq!(add(&sub(&a, &b), &b), a);
    }

    #[test]
    fn multiplication_distributes(a in square_matrix(4), b in square_matrix(4), c in square_matrix(4)) {
        let lhs = multiply_naive(&a, &add(&b, &c));
        let rhs = add(&multiply_naive(&a, &b), &multiply_naive(&a, &c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn transpose_reverses_product(a in square_matrix(4), b in square_matrix(4)) {
        let lhs = multiply_naive(&a, &b).transpose();
        let rhs = multiply_naive(&b.transpose(), &a.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn all_multiply_kernels_agree(a in small_matrix(9), b in small_matrix(9)) {
        // Force compatible inner dimensions by multiplying a with bᵀ-shaped b.
        let b = Matrix::from_fn(a.cols(), b.rows(), |i, j| b[(j % b.rows(), i % b.cols())]);
        let c = multiply_naive(&a, &b);
        prop_assert_eq!(multiply_ikj(&a, &b), c);
    }

    #[test]
    fn split_join_identity(a in square_matrix(8)) {
        prop_assert_eq!(join_quadrants(&split_quadrants(&a)), a);
    }

    #[test]
    fn padding_never_changes_product(a in square_matrix(5), b in square_matrix(5)) {
        let c = multiply_naive(&a, &b);
        let cp = multiply_naive(&pad_pow2(&a), &pad_pow2(&b));
        prop_assert_eq!(crop(&cp, 5, 5), c);
    }

    #[test]
    fn linear_combination_is_linear(a in square_matrix(4), b in square_matrix(4), c1 in -3i64..=3, c2 in -3i64..=3) {
        let lhs = linear_combination(&[c1, c2], &[&a, &b]);
        let rhs = add(
            &linear_combination(&[c1], &[&a]),
            &linear_combination(&[c2], &[&b]),
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn rational_roundtrip_ring_ops(n1 in -50i128..50, d1 in 1i128..20, n2 in -50i128..50, d2 in 1i128..20) {
        let a = Rational::new(n1, d1);
        let b = Rational::new(n2, d2);
        prop_assert_eq!(a + b - b, a);
        prop_assert_eq!(a * b, b * a);
        if n2 != 0 {
            prop_assert_eq!(a / b * b, a);
        }
    }

    #[test]
    fn zp_matches_integer_arithmetic_small(x in 0u64..1000, y in 0u64..1000) {
        let (a, b) = (Zp::new(x), Zp::new(y));
        prop_assert_eq!((a + b).value(), x + y);
        prop_assert_eq!((a * b).value(), x * y);
    }
}
