//! The lower-bound formula library: Theorem 1.1 and every row of Table I.
//!
//! These are the asymptotic expressions (evaluated without hidden
//! constants); the benchmark harness compares them against *measured* I/O of
//! executable schedules, so what is checked is the **shape** — exponents,
//! who dominates whom, and crossover points — exactly the content of the
//! paper's bounds.

/// `ω₀ = log₂ 7`, the exponent of 7-multiplication 2×2-base algorithms.
pub const OMEGA_FAST: f64 = 2.807354922057604; // log2(7)

/// `ω₀ = 3`, the classical exponent.
pub const OMEGA_CLASSICAL: f64 = 3.0;

/// Sequential I/O lower bound of Theorem 1.1:
/// `Ω((n/√M)^{ω₀} · M)` — valid *with recomputation* for `ω₀ = log₂7`.
///
/// ```
/// use fmm_core::bounds::{sequential, OMEGA_FAST, OMEGA_CLASSICAL};
/// // Fast algorithms may do asymptotically less I/O than classical ones.
/// assert!(sequential(4096, 1024, OMEGA_FAST) < sequential(4096, 1024, OMEGA_CLASSICAL));
/// ```
pub fn sequential(n: usize, m: usize, omega: f64) -> f64 {
    let (n, m) = (n as f64, m as f64);
    (n / m.sqrt()).powf(omega) * m
}

/// Parallel memory-dependent bound: `Ω((n/√M)^{ω₀} · M / P)`.
pub fn parallel_memory_dependent(n: usize, m: usize, p: usize, omega: f64) -> f64 {
    sequential(n, m, omega) / p as f64
}

/// Parallel memory-independent bound: `Ω(n² / P^{2/ω₀})`.
pub fn parallel_memory_independent(n: usize, p: usize, omega: f64) -> f64 {
    (n * n) as f64 / (p as f64).powf(2.0 / omega)
}

/// The combined parallel bound of Theorem 1.1:
/// `max{ memory-dependent, memory-independent }`.
pub fn parallel(n: usize, m: usize, p: usize, omega: f64) -> f64 {
    parallel_memory_dependent(n, m, p, omega).max(parallel_memory_independent(n, p, omega))
}

/// The cache size `M*` at which the two parallel bounds cross, for fixed
/// `n, P`: solving `(n/√M)^ω·M/P = n²/P^{2/ω}` gives
/// `M* = n² / P^{2/ω}` (the memory-dependent bound dominates for `M < M*`).
pub fn parallel_crossover_m(n: usize, p: usize, omega: f64) -> f64 {
    (n * n) as f64 / (p as f64).powf(2.0 / omega)
}

/// FFT row of Table I (memory-dependent form):
/// `Ω(n·log n / (P · log M))`.
pub fn fft_memory_dependent(n: usize, m: usize, p: usize) -> f64 {
    let nf = n as f64;
    nf * nf.log2() / (p as f64 * (m as f64).log2())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_special_cases() {
        // M = n²: one pass, bound = M = n².
        assert!((sequential(64, 64 * 64, OMEGA_FAST) - 4096.0).abs() < 1e-6);
        // Doubling n multiplies the fast bound by 2^ω ≈ 7.
        let r = sequential(128, 64, OMEGA_FAST) / sequential(64, 64, OMEGA_FAST);
        assert!((r - 7.0).abs() < 1e-9);
        // Classical bound scales by 8.
        let r3 = sequential(128, 64, OMEGA_CLASSICAL) / sequential(64, 64, OMEGA_CLASSICAL);
        assert!((r3 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fast_bound_below_classical() {
        // For n² > M the fast algorithm's bound is strictly smaller.
        for n in [256usize, 1024] {
            for m in [64usize, 1024] {
                assert!(sequential(n, m, OMEGA_FAST) < sequential(n, m, OMEGA_CLASSICAL));
            }
        }
    }

    #[test]
    fn increasing_cache_reduces_io() {
        let a = sequential(1024, 64, OMEGA_FAST);
        let b = sequential(1024, 4096, OMEGA_FAST);
        assert!(b < a);
    }

    #[test]
    fn parallel_is_max_of_branches() {
        let n = 4096;
        let omega = OMEGA_FAST;
        for p in [8usize, 64, 512] {
            for m in [256usize, 65536] {
                let combined = parallel(n, m, p, omega);
                assert!(combined >= parallel_memory_dependent(n, m, p, omega));
                assert!(combined >= parallel_memory_independent(n, p, omega));
            }
        }
    }

    #[test]
    fn crossover_separates_regimes() {
        let (n, p) = (4096usize, 64usize);
        let mstar = parallel_crossover_m(n, p, OMEGA_FAST);
        // Below M*: memory-dependent dominates; above: memory-independent.
        let m_lo = (mstar / 4.0) as usize;
        let m_hi = (mstar * 4.0) as usize;
        assert!(
            parallel_memory_dependent(n, m_lo, p, OMEGA_FAST)
                > parallel_memory_independent(n, p, OMEGA_FAST)
        );
        assert!(
            parallel_memory_dependent(n, m_hi, p, OMEGA_FAST)
                < parallel_memory_independent(n, p, OMEGA_FAST)
        );
    }

    #[test]
    fn memory_independent_strong_scaling_exponent() {
        // Communication per processor drops as P^{2/ω}: classical 2/3,
        // fast 2/log2(7) ≈ 0.712 — fast algorithms scale *better*.
        let n = 1 << 14;
        let r_fast = parallel_memory_independent(n, 8, OMEGA_FAST)
            / parallel_memory_independent(n, 64, OMEGA_FAST);
        let r_classic = parallel_memory_independent(n, 8, OMEGA_CLASSICAL)
            / parallel_memory_independent(n, 64, OMEGA_CLASSICAL);
        assert!((r_fast - 8f64.powf(2.0 / OMEGA_FAST)).abs() < 1e-9);
        assert!((r_classic - 4.0).abs() < 1e-9);
        assert!(r_fast > r_classic);
    }

    #[test]
    fn fft_rows_behave() {
        assert!(fft_memory_dependent(1 << 20, 1 << 10, 1) > 0.0);
        // Larger cache → smaller FFT bound.
        assert!(
            fft_memory_dependent(1 << 20, 1 << 16, 4) < fft_memory_dependent(1 << 20, 1 << 8, 4)
        );
    }
}
