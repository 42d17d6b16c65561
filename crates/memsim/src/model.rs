//! Closed-form I/O costs of the *schedules* (upper bounds with explicit
//! constants), for the sizes the trace simulator cannot reach.
//!
//! Each function mirrors one executable schedule in [`crate::seq`] /
//! [`crate::par`]; the tests cross-validate model against measurement on
//! small instances, and the benchmark harness uses the models for large
//! sweeps. Bound-vs-schedule ratios are therefore meaningful at any size.

/// I/O of the blocked classical schedule with tile `b = √(M/3)`:
/// `(n/b)³` tile-multiplications, each touching `3b²` words, plus the
/// final write of `C`: `≈ 3√3·n³/√M + n²`.
pub fn blocked_classical_io(n: usize, m_words: usize) -> f64 {
    let nf = n as f64;
    let b = ((m_words as f64) / 3.0).sqrt().max(1.0).min(nf);
    let tiles = (nf / b).powi(3);
    tiles * 3.0 * b * b + nf * nf
}

/// I/O of the recursive fast schedule that recurses until the sub-problem
/// fits in cache: `T(n) = t·T(n/2) + c_add·3·(n/2)²` while `3n² > M`, and
/// `T(s) = 3s²` at the first in-cache size. `adds_per_step` is the
/// algorithm's block-addition count (18 Strassen, 15 Winograd, 12 KS).
pub fn recursive_fast_io(n: usize, m_words: usize, t: u64, adds_per_step: u64) -> f64 {
    let nf = n as f64;
    if 3.0 * nf * nf <= m_words as f64 || n <= 1 {
        return 3.0 * nf * nf;
    }
    let half = (n / 2) as f64;
    // Each block addition reads two half-size blocks and writes one.
    let add_io = adds_per_step as f64 * 3.0 * half * half;
    t as f64 * recursive_fast_io(n / 2, m_words, t, adds_per_step) + add_io
}

/// Per-processor communication of Cannon's 2D algorithm on `p×p`
/// processors: the initial skew plus `p − 1` shift rounds of two blocks of
/// `(n/p)²` words: `≈ 2·(p+1)·(n/p)² ≈ 2n²/√P`.
#[cfg(test)]
pub(crate) fn cannon_per_proc(n: usize, p: usize) -> f64 {
    let bs = n as f64 / p as f64;
    2.0 * (p as f64 + 1.0) * bs * bs
}

/// Per-processor communication of the classical 3D algorithm on `p³`
/// processors with relay-chain collectives: receive + forward each operand
/// block and one reduction hop: `≈ 6(n/p)² = 6n²/P^{2/3}`.
#[cfg(test)]
pub(crate) fn three_d_per_proc(n: usize, p: usize) -> f64 {
    let bs = n as f64 / p as f64;
    6.0 * bs * bs
}

/// Per-processor communication of BFS-CAPS Strassen with `P = 7^k`:
/// `f(n, 7^k) = 14·(n/2)²/7^k + f(n/2, 7^{k−1})`, `f(·, 1) = 0`
/// — geometric with ratio `7/4`, total `Θ(n²/P^{2/ω₀})`.
#[cfg(test)]
pub(crate) fn caps_per_proc(n: usize, levels: usize) -> f64 {
    if levels == 0 {
        return 0.0;
    }
    let group = 7f64.powi(levels as i32);
    let step = 2.0 * 7.0 * ((n / 2) as f64).powi(2) / group;
    step + caps_per_proc(n / 2, levels - 1)
}

/// Per-processor communication of **memory-limited** CAPS (Ballard et al.):
/// a BFS step divides the group by 7 but inflates the per-processor memory
/// footprint by 7/4; when the local memory `m` cannot afford that, a DFS
/// step (all processors cooperating on each of the 7 sub-problems in turn)
/// is taken instead, paying the redistribution `Θ(n²/P)` seven times.
///
/// The result interpolates between the two Theorem 1.1 parallel bounds:
/// `Θ(n²/P^{2/ω₀})` when memory is plentiful (BFS all the way) and
/// `Θ((n/√M)^{ω₀}·M/P)` when memory is scarce (DFS until the footprint
/// fits).
pub fn caps_per_proc_limited(n: usize, p: usize, m: usize) -> f64 {
    if p <= 1 || n <= 1 {
        return 0.0;
    }
    let footprint_after_bfs = 3.0 * (n as f64 / 2.0).powi(2) * 7.0 / p as f64;
    let step = 2.0 * 7.0 * ((n / 2) as f64).powi(2) / p as f64;
    if footprint_after_bfs <= m as f64 {
        // BFS: subgroups of P/7 continue on half-size problems.
        step + caps_per_proc_limited(n / 2, p / 7, m)
    } else {
        // DFS: the whole group runs the 7 sub-problems sequentially.
        7.0 * caps_per_proc_limited(n / 2, p, m) + step
    }
}

/// Empirical I/O leading coefficient of the recursive fast schedule:
/// `C = lim IO(n, M) / ((n/√M)^{log₂7}·M)`, evaluated at a large `n/√M`.
/// Karstadt–Schwartz's Section IV claim — alternative basis reduces not
/// only the arithmetic but also the I/O leading coefficient — shows up as
/// `C(12 adds) < C(15) < C(18)`.
#[cfg(test)]
pub(crate) fn io_leading_coefficient(t: u64, adds_per_step: u64, m_words: usize) -> f64 {
    let n = 1usize << 24;
    let io = recursive_fast_io(n, m_words, t, adds_per_step);
    let ratio = n as f64 / (m_words as f64).sqrt();
    io / (ratio.powf((t as f64).log2()) * m_words as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Policy;
    use crate::seq::{self, natural_tile};
    use fmm_core::bounds;

    #[test]
    fn blocked_model_matches_measurement_shape() {
        // Model and trace measurement within a small constant of each other.
        let n = 32;
        let m_words = 192;
        let (_, stats) = seq::measure(n, m_words, Policy::Lru, |mem, a, b| {
            seq::classical_blocked(mem, a, b, natural_tile(m_words))
        });
        let model = blocked_classical_io(n, m_words);
        let ratio = stats.io() as f64 / model;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn fast_model_matches_measurement_shape() {
        let n = 32;
        let m_words = 128;
        let alg = fmm_core::catalog::strassen();
        let (_, stats) = seq::measure(n, m_words, Policy::Lru, |mem, a, b| {
            seq::fast_recursive(mem, &alg, a, b, natural_tile(m_words))
        });
        let model = recursive_fast_io(n, m_words, 7, 18);
        let ratio = stats.io() as f64 / model;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn models_sit_above_their_lower_bounds() {
        for n in [256usize, 1024, 4096] {
            for m in [1024usize, 16384] {
                let blocked = blocked_classical_io(n, m);
                let classical_lb = bounds::sequential(n, m, bounds::OMEGA_CLASSICAL);
                assert!(blocked >= classical_lb, "n={n} M={m}");

                let fast = recursive_fast_io(n, m, 7, 18);
                let fast_lb = bounds::sequential(n, m, bounds::OMEGA_FAST);
                assert!(fast >= fast_lb, "n={n} M={m}");
                // Constant-factor optimality of the schedules: ratio bounded.
                assert!(
                    fast / fast_lb < 200.0,
                    "n={n} M={m} ratio {}",
                    fast / fast_lb
                );
            }
        }
    }

    #[test]
    fn fast_beats_classical_for_small_cache_asymptotically() {
        // The fast schedule's exponent (log₂7) eventually beats the
        // classical 3 — but the temporaries-based schedule pays a large
        // additive constant (every block addition streams 3 blocks), so
        // the crossover sits at a large n/√M. Verify both facts: a
        // crossover exists, and beyond it the gap widens.
        let m = 1024;
        let crossover = (2..40u32)
            .map(|k| 1usize << k)
            .filter(|&n| 3 * n * n > m) // out-of-cache sizes only
            .find(|&n| recursive_fast_io(n, m, 7, 18) < blocked_classical_io(n, m))
            .expect("fast schedule must eventually win");
        assert!(crossover > 4096, "constant-factor reality check");
        let beyond = crossover * 16;
        let ratio = blocked_classical_io(beyond, m) / recursive_fast_io(beyond, m, 7, 18);
        assert!(
            ratio > 1.5,
            "gap must widen past the crossover, got {ratio}"
        );
        // Winograd's and KS's lighter linear phases move the crossover in.
        assert!(recursive_fast_io(crossover, m, 7, 12) < recursive_fast_io(crossover, m, 7, 18));
    }

    #[test]
    fn fast_model_exponent_is_log2_7() {
        let m = 1024;
        let r = recursive_fast_io(8192, m, 7, 18) / recursive_fast_io(4096, m, 7, 18);
        assert!((r - 7.0).abs() < 0.5, "doubling ratio {r}");
    }

    #[test]
    fn blocked_model_exponent_is_3() {
        let m = 1024;
        let r = blocked_classical_io(8192, m) / blocked_classical_io(4096, m);
        assert!((r - 8.0).abs() < 0.5, "doubling ratio {r}");
    }

    #[test]
    fn in_cache_base_case() {
        // Problem fits: 3n² words move, nothing else.
        assert_eq!(recursive_fast_io(16, 3 * 256, 7, 18), 3.0 * 256.0);
        assert_eq!(blocked_classical_io(16, 3 * 256), 3.0 * 256.0 + 256.0);
    }

    #[test]
    fn io_leading_coefficients_ordered_like_ks_claim() {
        // Section IV: alternative basis reduces the I/O leading coefficient
        // as well as the arithmetic one. Our schedule model reproduces the
        // ordering and a comparable relative improvement (~15%).
        let m = 1 << 12;
        let strassen = io_leading_coefficient(7, 18, m);
        let winograd = io_leading_coefficient(7, 15, m);
        let ks = io_leading_coefficient(7, 12, m);
        assert!(
            ks < winograd && winograd < strassen,
            "{ks} {winograd} {strassen}"
        );
        let improvement = winograd / ks;
        assert!(
            improvement > 1.05 && improvement < 1.35,
            "improvement {improvement}"
        );
    }

    #[test]
    fn parallel_models_ordering() {
        let n = 1 << 14;
        // At equal P: 3D < 2D; CAPS < 3D (in per-proc words).
        let p2d = 64; // P = 4096
        let p3d = 16; // P = 4096
        let caps_levels = 4; // P = 2401 ≈ comparable
        let c2 = cannon_per_proc(n, p2d);
        let c3 = three_d_per_proc(n, p3d);
        let cc = caps_per_proc(n, caps_levels);
        assert!(c3 < c2);
        assert!(cc < c2);
    }

    #[test]
    fn caps_limited_reduces_to_bfs_with_plentiful_memory() {
        let n = 1 << 12;
        for levels in 1..=3usize {
            let p = 7usize.pow(levels as u32);
            let unlimited = caps_per_proc(n, levels);
            let roomy = caps_per_proc_limited(n, p, usize::MAX / 4);
            assert!(
                (unlimited - roomy).abs() / unlimited < 1e-9,
                "levels={levels}"
            );
        }
    }

    #[test]
    fn caps_limited_tracks_memory_dependent_bound_when_scarce() {
        // Scarce memory forces DFS steps; the resulting curve follows the
        // memory-dependent bound's shape: halving M multiplies per-proc
        // comm by ≈ √(7/4)^{…} — concretely, comm grows as M^{1−ω/2}.
        let n = 1 << 14;
        let p = 7usize.pow(5);
        // The BFS memory footprint peaks at ≈ 3n²(7/4)^k/P ≈ 2^18 here, so
        // the first value is in the BFS (memory-independent) regime and the
        // later ones force DFS steps.
        let mut prev = 0.0;
        for m in [1usize << 19, 1 << 15, 1 << 12] {
            let c = caps_per_proc_limited(n, p, m);
            assert!(c >= prev, "smaller memory must not cost less comm");
            prev = c;
            let md = bounds::parallel_memory_dependent(n, m, p, bounds::OMEGA_FAST);
            let mi = bounds::parallel_memory_independent(n, p, bounds::OMEGA_FAST);
            let lb = md.max(mi);
            assert!(c >= lb * 0.5, "m={m}: {c} far below bound {lb}");
            assert!(c <= lb * 60.0, "m={m}: {c} unreasonably above bound {lb}");
        }
        // The scarce-memory end is strictly more expensive than the
        // plentiful-memory end.
        assert!(caps_per_proc_limited(n, p, 1 << 12) > caps_per_proc_limited(n, p, 1 << 19));
    }

    #[test]
    fn caps_model_memory_independent_shape() {
        let n = 1 << 14;
        // P ×7 → per-proc ÷ ~4 (asymptotically; finite-k ratio is smaller).
        let r = caps_per_proc(n, 3) / caps_per_proc(n, 4);
        assert!(r > 2.0 && r < 4.2, "ratio {r}");
        // And it respects the paper's lower bound Ω(n²/P^{2/ω}).
        for levels in 1..=5usize {
            let p = 7usize.pow(levels as u32);
            let lb = bounds::parallel_memory_independent(n, p, bounds::OMEGA_FAST);
            assert!(caps_per_proc(n, levels) >= lb * 0.9, "levels={levels}");
        }
    }
}
