//! Integration: every multiplication path in the workspace agrees with the
//! classical kernel, across scalar types, sizes, cutoffs and bases.

use fastmm::core::altbasis::{karstadt_schwartz, multiply_alt, sparsify};
use fastmm::core::catalog;
use fastmm::core::exec::{multiply_any, multiply_fast};
use fastmm::matrix::multiply::{multiply_ikj, multiply_naive};
use fastmm::matrix::{Matrix, Rational, Zp};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_paths_agree_i64() {
    let mut rng = StdRng::seed_from_u64(100);
    for n in [4usize, 8, 16, 32] {
        let a = Matrix::<i64>::random_small(n, n, &mut rng);
        let b = Matrix::<i64>::random_small(n, n, &mut rng);
        let reference = multiply_naive(&a, &b);
        assert_eq!(multiply_ikj(&a, &b), reference);
        for alg in catalog::all() {
            assert_eq!(
                multiply_fast(&alg, &a, &b, 1),
                reference,
                "{} n={n}",
                alg.name
            );
            assert_eq!(
                multiply_fast(&alg, &a, &b, 8),
                reference,
                "{} n={n}",
                alg.name
            );
        }
        assert_eq!(
            multiply_alt(&karstadt_schwartz(), &a, &b),
            reference,
            "KS n={n}"
        );
    }
}

#[test]
fn all_paths_agree_prime_field() {
    let mut rng = StdRng::seed_from_u64(101);
    let n = 16;
    let a = Matrix::<Zp>::random_small(n, n, &mut rng);
    let b = Matrix::<Zp>::random_small(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);
    for alg in catalog::all_fast() {
        assert_eq!(multiply_fast(&alg, &a, &b, 1), reference, "{}", alg.name);
    }
    assert_eq!(multiply_alt(&karstadt_schwartz(), &a, &b), reference);
}

#[test]
fn all_paths_agree_rationals() {
    // Exact rational arithmetic: numerically pathological for floats,
    // trivially exact here.
    let mut rng = StdRng::seed_from_u64(102);
    let n = 8;
    let a = Matrix::<Rational>::random_small(n, n, &mut rng);
    let b = Matrix::<Rational>::random_small(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);
    for alg in catalog::all_fast() {
        assert_eq!(multiply_fast(&alg, &a, &b, 1), reference, "{}", alg.name);
    }
}

#[test]
fn floats_within_tolerance() {
    let mut rng = StdRng::seed_from_u64(103);
    let n = 64;
    let a = Matrix::<f64>::random_small(n, n, &mut rng);
    let b = Matrix::<f64>::random_small(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);
    for alg in catalog::all_fast() {
        assert!(
            multiply_fast(&alg, &a, &b, 8).approx_eq(&reference, 1e-9),
            "{}",
            alg.name
        );
    }
    assert!(multiply_alt(&karstadt_schwartz(), &a, &b).approx_eq(&reference, 1e-9));
}

#[test]
fn rectangular_and_non_pow2() {
    let mut rng = StdRng::seed_from_u64(104);
    for (r, k, c) in [
        (3usize, 5usize, 7usize),
        (1, 9, 2),
        (10, 10, 10),
        (13, 2, 13),
    ] {
        let a = Matrix::<i64>::random_small(r, k, &mut rng);
        let b = Matrix::<i64>::random_small(k, c, &mut rng);
        let reference = multiply_naive(&a, &b);
        for alg in catalog::all_fast() {
            assert_eq!(
                multiply_any(&alg, &a, &b, 2),
                reference,
                "{} {r}x{k}x{c}",
                alg.name
            );
        }
    }
}

#[test]
fn sparsified_variants_of_every_catalog_algorithm_are_correct() {
    let mut rng = StdRng::seed_from_u64(105);
    let n = 16;
    let a = Matrix::<i64>::random_small(n, n, &mut rng);
    let b = Matrix::<i64>::random_small(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);
    for alg in catalog::all_fast() {
        let ab = sparsify(&alg, format!("{}-alt", alg.name));
        assert_eq!(multiply_alt(&ab, &a, &b), reference, "{}", ab.name);
        // Sparsification never increases the per-step addition count.
        assert!(
            ab.core_additions() <= alg.additions_per_step(),
            "{}",
            ab.name
        );
    }
}

#[test]
fn identity_and_zero_edge_cases() {
    for alg in catalog::all_fast() {
        let id = Matrix::<i64>::identity(8);
        let z = Matrix::<i64>::zeros(8, 8);
        let mut rng = StdRng::seed_from_u64(106);
        let a = Matrix::<i64>::random_small(8, 8, &mut rng);
        assert_eq!(multiply_fast(&alg, &a, &id, 1), a, "{}", alg.name);
        assert_eq!(multiply_fast(&alg, &id, &a, 1), a, "{}", alg.name);
        assert_eq!(multiply_fast(&alg, &a, &z, 1), z, "{}", alg.name);
    }
}

#[test]
fn one_by_one_matrices() {
    let a = Matrix::<i64>::from_rows(&[&[3]]);
    let b = Matrix::<i64>::from_rows(&[&[-4]]);
    for alg in catalog::all() {
        assert_eq!(multiply_fast(&alg, &a, &b, 1)[(0, 0)], -12, "{}", alg.name);
    }
}
