//! The algorithm catalog: every base case the paper's results cover.
//!
//! * [`strassen`] — Strassen 1969 (Algorithm 2 of the paper): 7 products,
//!   18 additions per step, leading coefficient 7.
//! * [`winograd`] — Winograd's variant \[19\]: 7 products, 15 additions via
//!   reused sums, leading coefficient 6.
//! * [`classical`] — the definition-following 8-product algorithm, the
//!   baseline of Table I's first row (no recomputation question arises: its
//!   intermediate values are each used once).
//!
//! The Karstadt–Schwartz alternative-basis algorithm (leading coefficient 5)
//! lives in [`crate::altbasis::karstadt_schwartz`] since it carries basis
//! transformations in addition to a bilinear core.
//!
//! Every constructor validates Brent's equations exhaustively, so a
//! mis-typed coefficient cannot survive construction.

use crate::bilinear::Bilinear2x2;
use crate::slp::{LinOp, Slp};

/// Strassen's original algorithm (7 multiplications, 18 additions).
///
/// ```
/// use fmm_core::{catalog, exec::multiply_fast};
/// use fmm_matrix::{Matrix, multiply::multiply_naive};
/// let alg = catalog::strassen();
/// assert_eq!(alg.t(), 7);
/// let a = Matrix::from_rows(&[&[1i64, 2], &[3, 4]]);
/// let b = Matrix::from_rows(&[&[5i64, 6], &[7, 8]]);
/// assert_eq!(multiply_fast(&alg, &a, &b, 1), multiply_naive(&a, &b));
/// ```
pub fn strassen() -> Bilinear2x2 {
    Bilinear2x2::from_coefficients(
        "strassen",
        vec![
            [1, 0, 0, 1],  // M1: A11+A22
            [0, 0, 1, 1],  // M2: A21+A22
            [1, 0, 0, 0],  // M3: A11
            [0, 0, 0, 1],  // M4: A22
            [1, 1, 0, 0],  // M5: A11+A12
            [-1, 0, 1, 0], // M6: A21−A11
            [0, 1, 0, -1], // M7: A12−A22
        ],
        vec![
            [1, 0, 0, 1],  // B11+B22
            [1, 0, 0, 0],  // B11
            [0, 1, 0, -1], // B12−B22
            [-1, 0, 1, 0], // B21−B11
            [0, 0, 0, 1],  // B22
            [1, 1, 0, 0],  // B11+B12
            [0, 0, 1, 1],  // B21+B22
        ],
        [
            vec![1, 0, 0, 1, -1, 0, 1], // C11 = M1+M4−M5+M7
            vec![0, 0, 1, 0, 1, 0, 0],  // C12 = M3+M5
            vec![0, 1, 0, 1, 0, 0, 0],  // C21 = M2+M4
            vec![1, -1, 1, 0, 0, 1, 0], // C22 = M1−M2+M3+M6
        ],
    )
}

/// Winograd's variant (7 multiplications, 15 additions through reused
/// sums — the 1971 algorithm the paper cites as \[19\]).
///
/// Products: `M1 = A11·B11`, `M2 = A12·B21`, `M3 = S4·B22`, `M4 = A22·T4`,
/// `M5 = S1·T1`, `M6 = S2·T2`, `M7 = S3·T3` with
/// `S1 = A21+A22`, `S2 = S1−A11`, `S3 = A11−A21`, `S4 = A12−S2`,
/// `T1 = B12−B11`, `T2 = B22−T1`, `T3 = B22−B12`, `T4 = T2−B21`.
pub fn winograd() -> Bilinear2x2 {
    let u = vec![
        [1, 0, 0, 0],   // A11
        [0, 1, 0, 0],   // A12
        [1, 1, -1, -1], // S4
        [0, 0, 0, 1],   // A22
        [0, 0, 1, 1],   // S1
        [-1, 0, 1, 1],  // S2
        [1, 0, -1, 0],  // S3
    ];
    let v = vec![
        [1, 0, 0, 0],   // B11
        [0, 0, 1, 0],   // B21
        [0, 0, 0, 1],   // B22
        [1, -1, -1, 1], // T4
        [-1, 1, 0, 0],  // T1
        [1, -1, 0, 1],  // T2
        [0, -1, 0, 1],  // T3
    ];
    let w = [
        vec![1, 1, 0, 0, 0, 0, 0],  // C11 = M1+M2
        vec![1, 0, 1, 0, 1, 1, 0],  // C12 = M1+M3+M5+M6
        vec![1, 0, 0, -1, 0, 1, 1], // C21 = M1−M4+M6+M7
        vec![1, 0, 0, 0, 1, 1, 1],  // C22 = M1+M5+M6+M7
    ];
    // Hand-written SLPs with Winograd's reuse: 4 + 4 + 7 = 15 additions.
    let enc_a = Slp {
        n_inputs: 4,
        ops: vec![
            LinOp {
                c1: 1,
                r1: 2,
                c2: 1,
                r2: 3,
            }, // r4 = S1 = A21+A22
            LinOp {
                c1: 1,
                r1: 4,
                c2: -1,
                r2: 0,
            }, // r5 = S2 = S1−A11
            LinOp {
                c1: 1,
                r1: 0,
                c2: -1,
                r2: 2,
            }, // r6 = S3 = A11−A21
            LinOp {
                c1: 1,
                r1: 1,
                c2: -1,
                r2: 5,
            }, // r7 = S4 = A12−S2
        ],
        outputs: vec![0, 1, 7, 3, 4, 5, 6],
    };
    let enc_b = Slp {
        n_inputs: 4,
        ops: vec![
            LinOp {
                c1: 1,
                r1: 1,
                c2: -1,
                r2: 0,
            }, // r4 = T1 = B12−B11
            LinOp {
                c1: 1,
                r1: 3,
                c2: -1,
                r2: 4,
            }, // r5 = T2 = B22−T1
            LinOp {
                c1: 1,
                r1: 3,
                c2: -1,
                r2: 1,
            }, // r6 = T3 = B22−B12
            LinOp {
                c1: 1,
                r1: 5,
                c2: -1,
                r2: 2,
            }, // r7 = T4 = T2−B21
        ],
        outputs: vec![0, 2, 3, 7, 4, 5, 6],
    };
    let dec = Slp {
        n_inputs: 7,
        ops: vec![
            LinOp {
                c1: 1,
                r1: 0,
                c2: 1,
                r2: 1,
            }, // r7  = U1 = M1+M2
            LinOp {
                c1: 1,
                r1: 0,
                c2: 1,
                r2: 5,
            }, // r8  = U2 = M1+M6
            LinOp {
                c1: 1,
                r1: 8,
                c2: 1,
                r2: 6,
            }, // r9  = U3 = U2+M7
            LinOp {
                c1: 1,
                r1: 8,
                c2: 1,
                r2: 4,
            }, // r10 = U4 = U2+M5
            LinOp {
                c1: 1,
                r1: 10,
                c2: 1,
                r2: 2,
            }, // r11 = C12 = U4+M3
            LinOp {
                c1: 1,
                r1: 9,
                c2: -1,
                r2: 3,
            }, // r12 = C21 = U3−M4
            LinOp {
                c1: 1,
                r1: 9,
                c2: 1,
                r2: 4,
            }, // r13 = C22 = U3+M5
        ],
        outputs: vec![7, 11, 12, 13],
    };
    Bilinear2x2::with_slps("winograd", u, v, w, enc_a, enc_b, dec)
}

/// The classical 8-multiplication algorithm, written in bilinear form.
pub fn classical() -> Bilinear2x2 {
    Bilinear2x2::from_coefficients(
        "classical",
        vec![
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
        vec![
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        [
            vec![1, 1, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 1, 1, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 1, 1, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 1, 1],
        ],
    )
}

/// The names [`by_name`] accepts, in the order error messages list them.
pub const NAMES: [&str; 3] = ["strassen", "winograd", "classical"];

/// The catalog algorithm called `name` (one of [`NAMES`]), or `None`.
pub fn by_name(name: &str) -> Option<Bilinear2x2> {
    match name {
        "strassen" => Some(strassen()),
        "winograd" => Some(winograd()),
        "classical" => Some(classical()),
        _ => None,
    }
}

/// All fast (7-multiplication) algorithms in the catalog — the class the
/// paper's Theorem 1.1 covers directly.
pub fn all_fast() -> Vec<Bilinear2x2> {
    vec![strassen(), winograd()]
}

/// Every catalog algorithm, fast and classical.
pub fn all() -> Vec<Bilinear2x2> {
    vec![strassen(), winograd(), classical()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_catalog_algorithms_validate() {
        for alg in all() {
            assert!(alg.validate().is_none(), "{} failed Brent", alg.name);
        }
    }

    #[test]
    fn published_addition_counts() {
        assert_eq!(strassen().additions_per_step(), 18);
        assert_eq!(winograd().additions_per_step(), 15);
        // Classical: 4 decoder additions, pass-through encoders.
        assert_eq!(classical().additions_per_step(), 4);
    }

    #[test]
    fn multiplication_counts() {
        assert_eq!(strassen().t(), 7);
        assert_eq!(winograd().t(), 7);
        assert_eq!(classical().t(), 8);
    }

    #[test]
    fn fast_algorithms_meet_hopcroft_kerr() {
        for alg in all_fast() {
            assert!(alg.respects_hopcroft_kerr(), "{}", alg.name);
            assert_eq!(alg.t(), 7, "{}", alg.name);
        }
    }

    #[test]
    fn winograd_slps_have_published_structure() {
        let w = winograd();
        assert_eq!(w.enc_a.additions(), 4);
        assert_eq!(w.enc_b.additions(), 4);
        assert_eq!(w.dec.additions(), 7);
    }

    #[test]
    fn by_name_knows_exactly_the_listed_names() {
        for name in NAMES {
            assert_eq!(by_name(name).map(|a| a.name), Some(name.to_string()));
        }
        assert!(by_name("ks").is_none());
        assert!(by_name("Strassen").is_none());
    }

    #[test]
    fn distinct_encoder_structures() {
        // Strassen and Winograd differ as bilinear algorithms.
        assert_ne!(strassen().u, winograd().u);
    }
}
