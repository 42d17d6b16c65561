//! Log–log least-squares power-law fitting.
//!
//! The aggregate stage of a sweep fits `y ≈ c · x^e` to (n, io) points by
//! ordinary least squares on `(log₂ x, log₂ y)`. For fast matrix
//! multiplication in the memory-bound regime the fitted exponent should
//! land near `ω = log₂ 7 ≈ 2.807`; classical near `3`.

/// A fitted power law `y = 2^log2_coeff · x^exponent`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerFit {
    /// The slope in log–log space — the exponent of the power law.
    pub exponent: f64,
    /// The intercept in log–log space (base-2 log of the coefficient).
    pub log2_coeff: f64,
    /// Coefficient of determination in log–log space (1.0 = exact fit).
    pub r2: f64,
    /// How many points the fit used.
    pub points: usize,
}

/// Fit a power law through `(x, y)` samples. Returns `None` when fewer
/// than two distinct positive x values exist (the slope would be
/// undefined) or any sample is non-positive (log of it undefined).
pub(crate) fn fit_power_law(samples: &[(f64, f64)]) -> Option<PowerFit> {
    if samples.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let logs: Vec<(f64, f64)> = samples.iter().map(|&(x, y)| (x.log2(), y.log2())).collect();
    let n = logs.len() as f64;
    let first_x = logs.first()?.0;
    if !logs.iter().any(|&(x, _)| (x - first_x).abs() > 1e-12) {
        return None;
    }
    let mean_x = logs.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let mean_y = logs.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let syy: f64 = logs.iter().map(|&(_, y)| (y - mean_y).powi(2)).sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0 // all y equal and we fit them exactly (slope 0)
    } else {
        let ss_res: f64 = logs
            .iter()
            .map(|&(x, y)| (y - (slope * x + intercept)).powi(2))
            .sum();
        1.0 - ss_res / syy
    };
    Some(PowerFit {
        exponent: slope,
        log2_coeff: intercept,
        r2,
        points: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::bounds::{OMEGA_CLASSICAL, OMEGA_FAST};

    #[test]
    fn exact_power_laws_recover_exponent() {
        for &(coeff, exp) in &[
            (1.0, 2.0),
            (3.5, OMEGA_FAST),
            (0.25, OMEGA_CLASSICAL),
            (7.0, 1.0),
        ] {
            let pts: Vec<(f64, f64)> = [4.0, 8.0, 16.0, 32.0, 64.0]
                .iter()
                .map(|&x: &f64| (x, coeff * x.powf(exp)))
                .collect();
            let fit = fit_power_law(&pts).unwrap();
            assert!(
                (fit.exponent - exp).abs() < 1e-6,
                "exponent {} vs expected {}",
                fit.exponent,
                exp
            );
            assert!(
                (fit.log2_coeff - coeff.log2()).abs() < 1e-6,
                "coeff 2^{} vs expected {}",
                fit.log2_coeff,
                coeff
            );
            assert!(fit.r2 > 1.0 - 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(fit_power_law(&[]).is_none());
        assert!(fit_power_law(&[(8.0, 64.0)]).is_none(), "single point");
        assert!(
            fit_power_law(&[(8.0, 64.0), (8.0, 65.0)]).is_none(),
            "single distinct x"
        );
        assert!(fit_power_law(&[(8.0, 64.0), (0.0, 1.0)]).is_none());
        assert!(fit_power_law(&[(8.0, -4.0), (16.0, 2.0)]).is_none());
    }

    #[test]
    fn noisy_law_fits_approximately() {
        // ±5% multiplicative noise must not move a cubic's exponent much.
        let noise = [1.05, 0.95, 1.03, 0.97, 1.01];
        let pts: Vec<(f64, f64)> = [4.0, 8.0, 16.0, 32.0, 64.0]
            .iter()
            .zip(noise.iter())
            .map(|(&x, &e): (&f64, &f64)| (x, 2.0 * x.powi(3) * e))
            .collect();
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.exponent - 3.0).abs() < 0.05, "got {}", fit.exponent);
    }

    #[test]
    fn classical_and_strassen_slopes_separate_on_real_sweeps() {
        // Run a real (tiny) sequential sweep: measured I/O of classical
        // vs Strassen at fixed small M must produce clearly distinct
        // fitted exponents, with the fast slope below the classical one.
        // M = 12 and n ≥ 32 keep both algorithms deep in the memory-bound
        // regime (n ≥ 4√M), where the asymptotic slopes show; the cache
        // simulation is data-oblivious, so these fits are exact constants.
        use crate::cell::run_cell;
        use crate::spec::{AlgKind, Cell, PolicyKind, RunMode};
        let mut fits = Vec::new();
        for alg in [AlgKind::Classical, AlgKind::Strassen] {
            let mut pts = Vec::new();
            for n in [32usize, 64] {
                let cell = Cell {
                    id: 0,
                    alg,
                    n,
                    m: 12,
                    p: 1,
                    policy: PolicyKind::Lru,
                    mode: RunMode::Cache,
                    rep: 0,
                };
                let m = run_cell(&cell, 1).unwrap();
                pts.push((n as f64, m.io as f64));
            }
            fits.push(fit_power_law(&pts).unwrap().exponent);
        }
        let (classical, strassen) = (fits[0], fits[1]);
        assert!(
            classical - strassen > 0.1,
            "slopes failed to separate: classical {classical:.3} vs strassen {strassen:.3}"
        );
        assert!(
            (classical - OMEGA_CLASSICAL).abs() < 0.35,
            "classical slope {classical:.3}"
        );
        assert!(
            (strassen - OMEGA_FAST).abs() < 0.35,
            "strassen slope {strassen:.3}"
        );
    }
}
