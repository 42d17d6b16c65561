//! Grigoriev's information flow of matrix multiplication (Definition 2.8,
//! Lemmas 3.8 and 3.9 of the paper).
//!
//! The flow `ω_{n×n}(u, v)` lower-bounds, for any `u` inputs and `v`
//! outputs of `f_{n×n} : R^{2n²} → R^{n²}`, the information that must cross
//! any separator — hence (Lemma 3.9) the size of any dominator set of `v`
//! output vertices with respect to `u` undominated inputs in *any* CDAG
//! computing `f_{n×n}`. This is the ingredient that makes the whole proof
//! robust to recomputation: it constrains every correct CDAG, not one
//! particular schedule.

/// Lemma 3.8: `ω_{n×n}(u, v) ≥ (v − (2n² − u)²/(4n²)) / 2` for
/// `0 ≤ u ≤ 2n²`, `0 ≤ v ≤ n²` (clamped at 0 below).
pub fn flow_lower_bound(n: usize, u: usize, v: usize) -> f64 {
    assert!(u <= 2 * n * n, "u exceeds input count");
    assert!(v <= n * n, "v exceeds output count");
    let n2 = (n * n) as f64;
    let missing = (2.0 * n2 - u as f64).powi(2) / (4.0 * n2);
    ((v as f64 - missing) / 2.0).max(0.0)
}

/// Lemma 3.9 consequence: any dominator set `Γ` for `u` inputs with respect
/// to `v` outputs satisfies `|Γ| ≥ ω_f(u, v)`. Returns the implied minimum
/// dominator cardinality (rounded up).
pub fn dominator_lower_bound(n: usize, u: usize, v: usize) -> usize {
    flow_lower_bound(n, u, v).ceil() as usize
}

/// The inner inequality of Lemma 3.10: for `q` vertex-disjoint copies of
/// `G^{n×n}`, a set `Γ` with `|Γ| ≤ |O'|/2` leaves at least
/// `2n·√(|O'| − 2|Γ|)` input vertices undominated.
#[cfg(test)]
pub(crate) fn undominated_inputs_bound(n: usize, o_prime: usize, gamma: usize) -> f64 {
    if 2 * gamma >= o_prime {
        return 0.0;
    }
    2.0 * n as f64 * ((o_prime - 2 * gamma) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_information_flow() {
        // All inputs free (u = 2n²), all outputs (v = n²):
        // ω ≥ (n² − 0)/2 = n²/2.
        for n in [1usize, 2, 4, 8] {
            let w = flow_lower_bound(n, 2 * n * n, n * n);
            assert!((w - (n * n) as f64 / 2.0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn zero_when_inputs_fixed() {
        // No free inputs (u = 0): (2n²)²/(4n²) = n² ≥ v ⇒ flow 0.
        for n in [1usize, 4] {
            assert_eq!(flow_lower_bound(n, 0, n * n), 0.0);
        }
    }

    #[test]
    fn monotone_in_u_and_v() {
        let n = 8;
        let mut prev = -1.0;
        for u in (0..=2 * n * n).step_by(16) {
            let w = flow_lower_bound(n, u, n * n);
            assert!(w >= prev);
            prev = w;
        }
        let mut prev = -1.0;
        for v in 0..=n * n {
            let w = flow_lower_bound(n, 2 * n * n, v);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn dominator_bound_lemma_3_7_shape() {
        // With all inputs free and Z = r² outputs: |Γ| ≥ r²/2 — exactly the
        // constant in Lemma 3.7.
        for r in [2usize, 4, 8] {
            assert_eq!(dominator_lower_bound(r, 2 * r * r, r * r), r * r / 2);
        }
    }

    #[test]
    fn undominated_inputs_shape() {
        // Γ = 0: bound = 2n√|O'|; grows with O', shrinks with Γ.
        assert_eq!(undominated_inputs_bound(4, 16, 0), 2.0 * 4.0 * 4.0);
        assert!(undominated_inputs_bound(4, 16, 2) < undominated_inputs_bound(4, 16, 0));
        assert_eq!(undominated_inputs_bound(4, 16, 8), 0.0);
        assert_eq!(undominated_inputs_bound(4, 16, 100), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds input count")]
    fn u_out_of_range_panics() {
        let _ = flow_lower_bound(2, 9, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds output count")]
    fn v_out_of_range_panics() {
        let _ = flow_lower_bound(2, 8, 5);
    }
}
