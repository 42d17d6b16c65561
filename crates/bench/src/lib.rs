//! # fmm-bench
//!
//! Benchmark harness for the reproduction:
//!
//! * The `fastmm bench run|diff|list` pipeline: a catalog of named
//!   hot-path targets ([`targets`]), warmup + timed passes with exact
//!   nearest-rank percentiles, a versioned `fmm-bench/v1` JSONL document
//!   with an environment manifest ([`doc`], [`manifest`]), and the
//!   regression gate ([`diff`]).
//! * [`tables`]: Table I and every figure-equivalent as aligned text
//!   tables, printed by `fastmm tables --all` (or one section at a time).

pub mod diff;
pub mod doc;
pub mod manifest;
pub mod tables;
pub mod targets;

use fmm_matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic random square i64 matrix for benches and tables.
pub(crate) fn bench_matrix(n: usize, seed: u64) -> Matrix<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random_small(n, n, &mut rng)
}

/// Deterministic random square f64 matrix.
pub(crate) fn bench_matrix_f64(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random_small(n, n, &mut rng)
}

/// Format a float in compact engineering form for table cells.
pub(crate) fn eng(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let mag = x.abs().log10().floor() as i32;
    match mag {
        0..=4 => format!("{x:.0}"),
        _ => format!("{x:.2e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_matrix_deterministic() {
        assert_eq!(bench_matrix(8, 1), bench_matrix(8, 1));
        assert_ne!(bench_matrix(8, 1), bench_matrix(8, 2));
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1234.0), "1234");
        assert_eq!(eng(1.5e7), "1.50e7");
    }
}
