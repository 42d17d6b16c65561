//! `⟨2,2,2;t⟩` bilinear matrix-multiplication algorithms and their exact
//! validation.
//!
//! An algorithm is a coefficient triple `(U, V, W)`:
//! `M_r = (Σ U[r][ik]·A[ik]) · (Σ V[r][kl]·B[kl])`, `C[il] = Σ W[il][r]·M_r`,
//! with the 2×2 blocks flattened row-major as `(11, 12, 21, 22)`. The triple
//! computes matrix multiplication iff it satisfies **Brent's equations**
//!
//! ```text
//! Σ_r U[r][(i,k)]·V[r][(k',l)]·W[(i',l')][r] = δ_{k,k'}·δ_{i,i'}·δ_{l,l'}
//! ```
//!
//! which [`Bilinear2x2::validate`] checks exhaustively (64 integer
//! identities — exact, no sampling).
//!
//! Each algorithm additionally carries [`Slp`]s for its two encoders and its
//! decoder, capturing the published addition counts; the SLPs are validated
//! symbolically against `(U, V, W)`.

use crate::slp::Slp;
use fmm_cdag::Base2x2;

/// A validated-on-construction fast 2×2 matrix multiplication algorithm.
#[derive(Clone, Debug)]
pub struct Bilinear2x2 {
    /// Human-readable algorithm name.
    pub name: String,
    /// Left encoder coefficients: `t` rows over `(A11, A12, A21, A22)`.
    pub u: Vec<[i64; 4]>,
    /// Right encoder coefficients: `t` rows over `(B11, B12, B21, B22)`.
    pub v: Vec<[i64; 4]>,
    /// Decoder coefficients: 4 rows (`C11, C12, C21, C22`) × `t`.
    pub w: [Vec<i64>; 4],
    /// Encoder SLP for A (4 inputs → t outputs).
    pub enc_a: Slp,
    /// Encoder SLP for B (4 inputs → t outputs).
    pub enc_b: Slp,
    /// Decoder SLP (t inputs → 4 outputs).
    pub dec: Slp,
}

/// A violated Brent equation, for diagnostics (of a 2×2 or a general
/// `⟨m,k,n;t⟩` algorithm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrentViolation {
    /// `(i, k)` index into A.
    pub a_index: (usize, usize),
    /// `(k', l)` index into B.
    pub b_index: (usize, usize),
    /// `(i', l')` index into C.
    pub c_index: (usize, usize),
    /// The sum obtained (expected 0 or 1).
    pub got: i64,
    /// The expected value.
    pub expected: i64,
}

/// The first violated (generalized) Brent equation of an `⟨m,k,n;t⟩`
/// triple, if any — `U` rows over A's `m·k` entries, `V` rows over B's
/// `k·n`, `W` rows (one per entry of C) over the `t` products, all
/// flattened row-major. Checked exhaustively, in a fixed order.
pub(crate) fn brent_violation(
    (m, k, n): (usize, usize, usize),
    u: &[impl AsRef<[i64]>],
    v: &[impl AsRef<[i64]>],
    w: &[impl AsRef<[i64]>],
) -> Option<BrentViolation> {
    for i in 0..m {
        for a in 0..k {
            for b in 0..k {
                for j in 0..n {
                    for ip in 0..m {
                        for jp in 0..n {
                            let sum: i64 = (0..u.len())
                                .map(|r| {
                                    u[r].as_ref()[i * k + a]
                                        * v[r].as_ref()[b * n + j]
                                        * w[ip * n + jp].as_ref()[r]
                                })
                                .sum();
                            let expected = i64::from(a == b && i == ip && j == jp);
                            if sum != expected {
                                return Some(BrentViolation {
                                    a_index: (i, a),
                                    b_index: (b, j),
                                    c_index: (ip, jp),
                                    got: sum,
                                    expected,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

impl Bilinear2x2 {
    /// Build an algorithm with *generic* (chain) SLPs derived from the
    /// coefficient matrices, validating Brent's equations.
    ///
    /// # Panics
    /// Panics if the triple does not compute 2×2 matrix multiplication.
    pub fn from_coefficients(
        name: impl Into<String>,
        u: Vec<[i64; 4]>,
        v: Vec<[i64; 4]>,
        w: [Vec<i64>; 4],
    ) -> Self {
        let enc_a = Slp::from_rows(4, &u.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let enc_b = Slp::from_rows(4, &v.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let t = u.len();
        let dec = Slp::from_rows(t, w.as_ref());
        Self::with_slps(name, u, v, w, enc_a, enc_b, dec)
    }

    /// Build an algorithm with hand-written SLPs (e.g. Winograd's reused
    /// sums), validating both Brent's equations and that each SLP
    /// symbolically implements its coefficient matrix.
    ///
    /// # Panics
    /// Panics if validation fails.
    pub(crate) fn with_slps(
        name: impl Into<String>,
        u: Vec<[i64; 4]>,
        v: Vec<[i64; 4]>,
        w: [Vec<i64>; 4],
        enc_a: Slp,
        enc_b: Slp,
        dec: Slp,
    ) -> Self {
        let alg = Bilinear2x2 {
            name: name.into(),
            u,
            v,
            w,
            enc_a,
            enc_b,
            dec,
        };
        if let Some(viol) = alg.validate() {
            panic!(
                "algorithm '{}' violates Brent equations: {viol:?}",
                alg.name
            );
        }
        assert!(
            alg.enc_a
                .implements(&alg.u.iter().map(|r| r.to_vec()).collect::<Vec<_>>()),
            "enc_a SLP does not implement U for '{}'",
            alg.name
        );
        assert!(
            alg.enc_b
                .implements(&alg.v.iter().map(|r| r.to_vec()).collect::<Vec<_>>()),
            "enc_b SLP does not implement V for '{}'",
            alg.name
        );
        assert!(
            alg.dec.implements(alg.w.as_ref()),
            "dec SLP does not implement W for '{}'",
            alg.name
        );
        alg
    }

    /// Build an algorithm **without** checking Brent's equations, with
    /// generic SLPs. Needed for the bilinear *core* of an alternative-basis
    /// algorithm (Definition 2.6): such a core computes `ν(A·B)` from
    /// `φ(A), ψ(B)` and therefore does not satisfy the plain equations —
    /// its correctness is established at the [`crate::altbasis`] level
    /// instead (effective-triple validation and execution tests).
    pub fn new_unvalidated(
        name: impl Into<String>,
        u: Vec<[i64; 4]>,
        v: Vec<[i64; 4]>,
        w: [Vec<i64>; 4],
    ) -> Self {
        let enc_a = Slp::from_rows(4, &u.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let enc_b = Slp::from_rows(4, &v.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let dec = Slp::from_rows(u.len(), w.as_ref());
        Bilinear2x2 {
            name: name.into(),
            u,
            v,
            w,
            enc_a,
            enc_b,
            dec,
        }
    }

    /// Number of multiplications in the base case.
    pub fn t(&self) -> usize {
        self.u.len()
    }

    /// Total block additions per recursion step (encoders + decoder),
    /// as performed by the carried SLPs.
    pub fn additions_per_step(&self) -> usize {
        self.enc_a.additions() + self.enc_b.additions() + self.dec.additions()
    }

    /// Check Brent's equations; returns the first violation if any.
    pub fn validate(&self) -> Option<BrentViolation> {
        brent_violation((2, 2, 2), &self.u, &self.v, &self.w)
    }

    /// Lower the algorithm to the structural [`Base2x2`] form used by the
    /// CDAG generator in `fmm-cdag`.
    pub fn to_base(&self) -> Base2x2 {
        Base2x2 {
            name: self.name.clone(),
            u: self.u.clone(),
            v: self.v.clone(),
            w: self.w.clone(),
        }
    }

    /// Hopcroft–Kerr sanity (Lemma 3.4 consequence): the paper's bounds
    /// apply to 2×2 base cases with exactly 7 multiplications; 7 is optimal,
    /// so any `t < 7` triple passing [`Self::validate`] would be a
    /// contradiction. Returns `true` when `t ≥ 7`.
    #[cfg(test)]
    pub(crate) fn respects_hopcroft_kerr(&self) -> bool {
        self.t() >= 7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Coeffs = (Vec<[i64; 4]>, Vec<[i64; 4]>, [Vec<i64>; 4]);

    fn strassen_coeffs() -> Coeffs {
        (
            vec![
                [1, 0, 0, 1],
                [0, 0, 1, 1],
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [1, 1, 0, 0],
                [-1, 0, 1, 0],
                [0, 1, 0, -1],
            ],
            vec![
                [1, 0, 0, 1],
                [1, 0, 0, 0],
                [0, 1, 0, -1],
                [-1, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 1, 0, 0],
                [0, 0, 1, 1],
            ],
            [
                vec![1, 0, 0, 1, -1, 0, 1],
                vec![0, 0, 1, 0, 1, 0, 0],
                vec![0, 1, 0, 1, 0, 0, 0],
                vec![1, -1, 1, 0, 0, 1, 0],
            ],
        )
    }

    #[test]
    fn strassen_satisfies_brent() {
        let (u, v, w) = strassen_coeffs();
        let alg = Bilinear2x2::from_coefficients("strassen", u, v, w);
        assert_eq!(alg.t(), 7);
        assert!(alg.validate().is_none());
        assert!(alg.respects_hopcroft_kerr());
    }

    #[test]
    #[should_panic(expected = "violates Brent")]
    fn corrupted_algorithm_rejected() {
        let (mut u, v, w) = strassen_coeffs();
        u[0][1] = 1; // break M1's left operand
        let _ = Bilinear2x2::from_coefficients("broken", u, v, w);
    }

    #[test]
    fn validation_pinpoints_violation() {
        let (u, v, mut w) = strassen_coeffs();
        w[0][2] = 1; // C11 wrongly includes M3
        let alg = Bilinear2x2 {
            name: "bad".into(),
            enc_a: Slp::from_rows(4, &u.iter().map(|r| r.to_vec()).collect::<Vec<_>>()),
            enc_b: Slp::from_rows(4, &v.iter().map(|r| r.to_vec()).collect::<Vec<_>>()),
            dec: Slp::from_rows(7, w.as_ref()),
            u,
            v,
            w,
        };
        let viol = alg.validate().expect("must detect violation");
        assert_eq!(viol.c_index, (0, 0));
    }

    #[test]
    fn generic_slp_addition_count_strassen() {
        let (u, v, w) = strassen_coeffs();
        let alg = Bilinear2x2::from_coefficients("strassen", u, v, w);
        // Strassen's canonical 18 additions: 5 + 5 (encoders) + 8 (decoder).
        assert_eq!(alg.enc_a.additions(), 5);
        assert_eq!(alg.enc_b.additions(), 5);
        assert_eq!(alg.dec.additions(), 8);
        assert_eq!(alg.additions_per_step(), 18);
    }

    #[test]
    fn to_base_round_trip() {
        let (u, v, w) = strassen_coeffs();
        let alg = Bilinear2x2::from_coefficients("strassen", u.clone(), v.clone(), w.clone());
        let base = alg.to_base();
        assert_eq!(base.u, u);
        assert_eq!(base.v, v);
        assert_eq!(base.w, w);
        base.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "does not implement U")]
    fn mismatched_slp_rejected() {
        let (u, v, w) = strassen_coeffs();
        // Wrong SLP: claims A-encoder is the identity on 4 inputs repeated.
        let bad = Slp {
            n_inputs: 4,
            ops: vec![],
            outputs: vec![0, 1, 2, 3, 0, 1, 2],
        };
        let enc_b = Slp::from_rows(4, &v.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        let dec = Slp::from_rows(7, w.as_ref());
        let _ = Bilinear2x2::with_slps("bad-slp", u, v, w, bad, enc_b, dec);
    }
}
