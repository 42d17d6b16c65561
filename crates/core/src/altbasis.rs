//! Alternative-basis matrix multiplication (Definitions 2.6/2.7,
//! Algorithm 1, and Section IV of the paper).
//!
//! Karstadt and Schwartz \[20\] reduce the leading coefficient of
//! Winograd's algorithm from 6 to 5 by conjugating the bilinear core with
//! recursive basis transformations `φ, ψ, ν`:
//!
//! ```text
//! C = ν⁻¹( CORE( φ(A), ψ(B) ) )
//! ```
//!
//! where the transforms cost only `Θ(n² log n)` operations while the core's
//! per-step addition count drops. Theorem 4.1 of the paper extends the I/O
//! lower bound to this class.
//!
//! This module provides:
//!
//! * the recursive transforms themselves ([`transform_pre`],
//!   [`transform_post`]);
//! * execution of a complete alternative-basis algorithm with operation
//!   counting ([`multiply_alt_counted`]);
//! * **unimodular sparsification search** ([`sparsify`]): given any
//!   `⟨2,2,2;7⟩` algorithm, exhaustively search unimodular change-of-basis
//!   matrices with entries in `{−1,0,1}` that minimize the core's nonzero
//!   count. Applied to Winograd's algorithm this rediscovers a
//!   12-addition core — leading coefficient 5, Karstadt–Schwartz's result;
//! * exact validation: the *effective* coefficient triple
//!   `(U'Φ, V'Ψ, N⁻¹W')` must satisfy Brent's equations
//!   ([`AlternativeBasis::validate`]).

#![allow(clippy::needless_range_loop)] // 4×4 cofactor/matrix code reads clearest with indices

use crate::bilinear::Bilinear2x2;
use crate::exec::{multiply_fast_counted, OpCounts};
use fmm_matrix::ops::axpy_coeff;
use fmm_matrix::quad::{join_quadrants, split_quadrants};
use fmm_matrix::{Matrix, Scalar};

/// A 4×4 integer matrix (acting on flattened 2×2 blocks).
pub(crate) type Mat4 = [[i64; 4]; 4];

/// Determinant of a 4×4 integer matrix (cofactor expansion).
pub(crate) fn det4(m: &Mat4) -> i64 {
    fn det3(m: [[i64; 3]; 3]) -> i64 {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }
    let mut det = 0;
    for col in 0..4 {
        let mut minor = [[0i64; 3]; 3];
        for (i, row) in m.iter().enumerate().skip(1) {
            let mut k = 0;
            for (j, &v) in row.iter().enumerate() {
                if j != col {
                    minor[i - 1][k] = v;
                    k += 1;
                }
            }
        }
        let sign = if col % 2 == 0 { 1 } else { -1 };
        det += sign * m[0][col] * det3(minor);
    }
    det
}

/// Inverse of a unimodular (|det| = 1) 4×4 integer matrix via the adjugate.
///
/// # Panics
/// Panics if `|det| ≠ 1`.
pub(crate) fn inv4_unimodular(m: &Mat4) -> Mat4 {
    let d = det4(m);
    assert!(d == 1 || d == -1, "matrix is not unimodular (det {d})");
    let mut inv = [[0i64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            // Cofactor C_ji (note transpose for the adjugate).
            let mut minor = [[0i64; 3]; 3];
            let mut r = 0;
            for (ii, row) in m.iter().enumerate() {
                if ii == j {
                    continue;
                }
                let mut c = 0;
                for (jj, &v) in row.iter().enumerate() {
                    if jj == i {
                        continue;
                    }
                    minor[r][c] = v;
                    c += 1;
                }
                r += 1;
            }
            let det3 = minor[0][0] * (minor[1][1] * minor[2][2] - minor[1][2] * minor[2][1])
                - minor[0][1] * (minor[1][0] * minor[2][2] - minor[1][2] * minor[2][0])
                + minor[0][2] * (minor[1][0] * minor[2][1] - minor[1][1] * minor[2][0]);
            let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
            inv[i][j] = sign * det3 * d; // divide by det = multiply by ±1
        }
    }
    inv
}

/// A complete alternative-basis algorithm
/// `⟨2,2,2;7⟩_{φ,ψ,ν}` (Definition 2.6).
#[derive(Clone, Debug)]
pub struct AlternativeBasis {
    /// Name for reports.
    pub name: String,
    /// Input basis transform for A (`Ã = φ(A)` blockwise-recursive).
    pub phi: Mat4,
    /// Input basis transform for B.
    pub psi: Mat4,
    /// Output basis transform (`CORE` produces `ν(C)`).
    pub nu: Mat4,
    /// `ν⁻¹`, applied to restore the standard basis.
    pub nu_inv: Mat4,
    /// The bilinear core operating in the alternative bases.
    pub core: Bilinear2x2,
}

impl AlternativeBasis {
    /// Exact validation: the effective triple `(U'·Φ, V'·Ψ, N⁻¹·W')` must
    /// satisfy Brent's equations. Returns the effective algorithm on
    /// success.
    ///
    /// # Panics
    /// Panics (inside `Bilinear2x2::from_coefficients`) if invalid.
    pub fn validate(&self) -> Bilinear2x2 {
        let apply_right = |rows: &[[i64; 4]], m: &Mat4| -> Vec<[i64; 4]> {
            rows.iter()
                .map(|row| {
                    let mut out = [0i64; 4];
                    for (j, o) in out.iter_mut().enumerate() {
                        for (k, &rk) in row.iter().enumerate() {
                            *o += rk * m[k][j];
                        }
                    }
                    out
                })
                .collect()
        };
        let u_eff = apply_right(&self.core.u, &self.phi);
        let v_eff = apply_right(&self.core.v, &self.psi);
        // W_eff = ν⁻¹ · W'  (4×4 times 4×t).
        let t = self.core.t();
        let mut w_eff: [Vec<i64>; 4] = [vec![0; t], vec![0; t], vec![0; t], vec![0; t]];
        for i in 0..4 {
            for r in 0..t {
                for k in 0..4 {
                    w_eff[i][r] += self.nu_inv[i][k] * self.core.w[k][r];
                }
            }
        }
        Bilinear2x2::from_coefficients(format!("{}-effective", self.name), u_eff, v_eff, w_eff)
    }

    /// Additions per recursion step performed by the core.
    pub fn core_additions(&self) -> usize {
        self.core.additions_per_step()
    }
}

/// Apply `m` at block level to four quadrant matrices: output `i` is
/// `Σ_j m[i][j]·q[j]`, counting the scalar operations performed.
fn block_apply<T: Scalar>(m: &Mat4, q: &[Matrix<T>; 4], counts: &mut OpCounts) -> [Matrix<T>; 4] {
    let area = (q[0].rows() * q[0].cols()) as u64;
    let make = |row: &[i64; 4], counts: &mut OpCounts| -> Matrix<T> {
        let mut acc: Option<Matrix<T>> = None;
        for (j, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            match &mut acc {
                None => {
                    acc = Some(match c {
                        1 => q[j].clone(),
                        -1 => {
                            counts.scalar_adds += area;
                            q[j].map(|v| -v)
                        }
                        _ => {
                            counts.coeff_mults += area;
                            let cc = T::from_i64(c);
                            q[j].map(|v| cc * v)
                        }
                    });
                }
                Some(a) => {
                    counts.scalar_adds += area;
                    if c.abs() != 1 {
                        counts.coeff_mults += area;
                    }
                    axpy_coeff(a, c, &q[j]);
                }
            }
        }
        acc.expect("transform row is all-zero (singular matrix)")
    };
    [
        make(&m[0], counts),
        make(&m[1], counts),
        make(&m[2], counts),
        make(&m[3], counts),
    ]
}

/// Recursive basis transform in *pre* order (block combine, then recurse):
/// this is `φ_n` with `φ_n(A)_q = φ_{n/2}(Σ_j φ[q][j]·A_j)`. Used for
/// `φ, ψ` (and `ν` in the forward direction).
pub fn transform_pre<T: Scalar>(
    m: &Matrix<T>,
    phi: &Mat4,
    levels: usize,
    counts: &mut OpCounts,
) -> Matrix<T> {
    if levels == 0 {
        return m.clone();
    }
    let q = split_quadrants(m);
    let before = *counts;
    let combined = block_apply(phi, &q, counts);
    if fmm_obs::detailed() {
        record_transform_level("pre", levels, &before, counts);
    }
    let rec: Vec<Matrix<T>> = combined
        .iter()
        .map(|b| transform_pre(b, phi, levels - 1, counts))
        .collect();
    join_quadrants(&[
        rec[0].clone(),
        rec[1].clone(),
        rec[2].clone(),
        rec[3].clone(),
    ])
}

/// Per-recursion-level transform telemetry (`level` is the remaining
/// recursion depth, so the top of the recursion has the largest label).
fn record_transform_level(dir: &str, level: usize, before: &OpCounts, after: &OpCounts) {
    let labels = [("dir", dir.to_string()), ("level", level.to_string())];
    fmm_obs::add(
        "core.transform.adds",
        &labels,
        after.scalar_adds - before.scalar_adds,
    );
    fmm_obs::add(
        "core.transform.coeff_mults",
        &labels,
        after.coeff_mults - before.coeff_mults,
    );
}

/// Recursive basis transform in *post* order (recurse, then block combine):
/// this is `ν_n⁻¹ = blockN⁻¹ ∘ (ν_{n/2}⁻¹ per quadrant)`. Used to restore
/// the standard basis from `ν(C)`.
pub fn transform_post<T: Scalar>(
    m: &Matrix<T>,
    nu_inv: &Mat4,
    levels: usize,
    counts: &mut OpCounts,
) -> Matrix<T> {
    if levels == 0 {
        return m.clone();
    }
    let q = split_quadrants(m);
    let rec: [Matrix<T>; 4] = [
        transform_post(&q[0], nu_inv, levels - 1, counts),
        transform_post(&q[1], nu_inv, levels - 1, counts),
        transform_post(&q[2], nu_inv, levels - 1, counts),
        transform_post(&q[3], nu_inv, levels - 1, counts),
    ];
    let before = *counts;
    let combined = block_apply(nu_inv, &rec, counts);
    if fmm_obs::detailed() {
        record_transform_level("post", levels, &before, counts);
    }
    join_quadrants(&combined)
}

/// Algorithm 1 of the paper: `C = ν⁻¹(CORE(φ(A), ψ(B)))`, recursing
/// `levels` times (classical multiplication below), with operation counts
/// split into transform cost and core cost.
///
/// # Panics
/// Panics unless the matrices are equal square with power-of-two order and
/// `levels ≤ log₂ n`.
pub fn multiply_alt_counted<T: Scalar>(
    ab: &AlternativeBasis,
    a: &Matrix<T>,
    b: &Matrix<T>,
    levels: usize,
) -> (Matrix<T>, OpCounts, OpCounts) {
    let n = a.rows();
    assert!(n.is_power_of_two(), "order must be a power of two");
    assert!(
        levels <= n.trailing_zeros() as usize,
        "levels exceed log2(n)"
    );
    let _span = fmm_obs::Span::enter("core.multiply_alt");
    let mut tcounts = OpCounts::default();
    let at = transform_pre(a, &ab.phi, levels, &mut tcounts);
    let bt = transform_pre(b, &ab.psi, levels, &mut tcounts);
    let cutoff = n >> levels;
    let (ct, core_counts) = multiply_fast_counted(&ab.core, &at, &bt, cutoff.max(1));
    let c = transform_post(&ct, &ab.nu_inv, levels, &mut tcounts);
    if fmm_obs::enabled() {
        let labels = [("alg", ab.name.clone())];
        fmm_obs::add("core.transform.scalar_adds", &labels, tcounts.scalar_adds);
        fmm_obs::add("core.transform.total_ops", &labels, tcounts.total());
    }
    (c, core_counts, tcounts)
}

/// Convenience wrapper returning only the product (full recursion depth).
pub fn multiply_alt<T: Scalar>(ab: &AlternativeBasis, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let levels = a.rows().trailing_zeros() as usize;
    multiply_alt_counted(ab, a, b, levels).0
}

// ---------------------------------------------------------------------------
// Unimodular sparsification search
// ---------------------------------------------------------------------------

/// Candidate basis vectors: all of `{−1,0,1}⁴ \ {0}` up to global sign
/// (40 representatives — sign does not change nonzero counts or spans).
fn candidate_vectors() -> Vec<[i64; 4]> {
    let mut out = Vec::with_capacity(40);
    for mask in 1..81i64 {
        let mut v = [0i64; 4];
        let mut m = mask;
        for x in &mut v {
            *x = m % 3 - 1;
            m /= 3;
        }
        // Keep one representative per ± pair: first nonzero entry positive.
        if matches!(v.iter().find(|&&c| c != 0), Some(&1)) {
            out.push(v);
        }
    }
    out
}

/// `rows · s` for a t×4 coefficient matrix and a column vector `s`.
fn apply_column(rows: &[[i64; 4]], s: &[i64; 4]) -> Vec<i64> {
    rows.iter()
        .map(|r| r.iter().zip(s).map(|(&a, &b)| a * b).sum())
        .collect()
}

/// Search result for one side of the sparsification.
struct SideResult {
    /// Columns (encoder side) or rows (decoder side) of the chosen
    /// unimodular matrix `S`.
    s: Mat4,
    /// Total nonzeros of the transformed coefficient matrix.
    #[allow(dead_code)] // kept for diagnostics and future reporting
    nnz: usize,
}

/// Find a unimodular `S` (columns drawn from `{−1,0,1}⁴`) minimizing
/// `nnz(rows · S)` by exhaustive search over column combinations.
fn best_unimodular(rows: &[[i64; 4]]) -> SideResult {
    let cands = candidate_vectors();
    let costs: Vec<usize> = cands
        .iter()
        .map(|s| apply_column(rows, s).iter().filter(|&&c| c != 0).count())
        .collect();
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by_key(|&i| costs[i]);

    let mut best_nnz = usize::MAX;
    // Among nnz-optimal choices, prefer the sparsest *inverse*: `S⁻¹` is
    // the transform actually applied at runtime, so its nonzero count is
    // the constant in the Θ(n² log n) transform cost.
    let mut best_inv_nnz = usize::MAX;
    let mut best: Option<Mat4> = None;
    // All 4-combinations (columns unordered; permutations don't change nnz).
    let m = order.len();
    for a in 0..m {
        let ca = costs[order[a]];
        if ca * 4 > best_nnz {
            break;
        }
        for b in a + 1..m {
            let cab = ca + costs[order[b]];
            if cab + 2 * costs[order[b]] > best_nnz {
                break;
            }
            for c in b + 1..m {
                let cabc = cab + costs[order[c]];
                if cabc + costs[order[c]] > best_nnz {
                    break;
                }
                for d in c + 1..m {
                    let total = cabc + costs[order[d]];
                    if total > best_nnz {
                        break;
                    }
                    let cols = [
                        cands[order[a]],
                        cands[order[b]],
                        cands[order[c]],
                        cands[order[d]],
                    ];
                    // S has these as *columns*.
                    let mut s = [[0i64; 4]; 4];
                    for (j, col) in cols.iter().enumerate() {
                        for i in 0..4 {
                            s[i][j] = col[i];
                        }
                    }
                    let det = det4(&s);
                    if det == 1 || det == -1 {
                        let inv_nnz = inv4_unimodular(&s)
                            .iter()
                            .flatten()
                            .filter(|&&x| x != 0)
                            .count();
                        if total < best_nnz || (total == best_nnz && inv_nnz < best_inv_nnz) {
                            best_nnz = total;
                            best_inv_nnz = inv_nnz;
                            best = Some(s);
                        }
                    }
                }
            }
        }
    }
    let s = best.expect("identity columns are always available");
    SideResult { s, nnz: best_nnz }
}

/// Sparsify an algorithm into alternative basis:
/// choose unimodular `Su, Sv` minimizing `nnz(U·Su)`, `nnz(V·Sv)` and a
/// unimodular `N` minimizing `nnz(N·W)`; then
/// `φ = Su⁻¹`, `ψ = Sv⁻¹`, `ν = N`, core `(U·Su, V·Sv, N·W)`.
///
/// Applied to [`crate::catalog::winograd`] this reproduces the
/// Karstadt–Schwartz result (12-addition core, leading coefficient 5).
pub fn sparsify(alg: &Bilinear2x2, name: impl Into<String>) -> AlternativeBasis {
    let su = best_unimodular(&alg.u);
    let sv = best_unimodular(&alg.v);
    // Decoder: rows of N·W are x·W; reuse the column search on Wᵀ.
    let t = alg.t();
    let wt: Vec<[i64; 4]> = (0..t)
        .map(|r| [alg.w[0][r], alg.w[1][r], alg.w[2][r], alg.w[3][r]])
        .collect();
    let sn = best_unimodular(&wt);
    // sn.s has candidate vectors as columns; those columns are the rows of N.
    let mut nu = [[0i64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            nu[i][j] = sn.s[j][i];
        }
    }

    let u2: Vec<[i64; 4]> = (0..t)
        .map(|r| {
            let mut row = [0i64; 4];
            for (j, o) in row.iter_mut().enumerate() {
                for k in 0..4 {
                    *o += alg.u[r][k] * su.s[k][j];
                }
            }
            row
        })
        .collect();
    let v2: Vec<[i64; 4]> = (0..t)
        .map(|r| {
            let mut row = [0i64; 4];
            for (j, o) in row.iter_mut().enumerate() {
                for k in 0..4 {
                    *o += alg.v[r][k] * sv.s[k][j];
                }
            }
            row
        })
        .collect();
    let mut w2: [Vec<i64>; 4] = [vec![0; t], vec![0; t], vec![0; t], vec![0; t]];
    for i in 0..4 {
        for r in 0..t {
            for k in 0..4 {
                w2[i][r] += nu[i][k] * alg.w[k][r];
            }
        }
    }

    // Sign canonicalization: each product has two free sign flips
    // (negate U'ᵣ and/or V'ᵣ, compensating in W' column r), and each output
    // row of W' can be flipped together with the corresponding row of ν.
    // Normalizing leading signs to + eliminates negated-singleton rows,
    // which would otherwise cost a negation op each and inflate the
    // addition count above the nonzero-count optimum.
    let leading_negative =
        |row: &[i64]| -> bool { matches!(row.iter().find(|&&c| c != 0), Some(&c) if c < 0) };
    let mut u2 = u2;
    let mut v2 = v2;
    for r in 0..t {
        let mut flip = 1i64;
        if leading_negative(&u2[r]) {
            u2[r].iter_mut().for_each(|c| *c = -*c);
            flip = -flip;
        }
        if leading_negative(&v2[r]) {
            v2[r].iter_mut().for_each(|c| *c = -*c);
            flip = -flip;
        }
        if flip < 0 {
            for wrow in w2.iter_mut() {
                wrow[r] = -wrow[r];
            }
        }
    }
    for i in 0..4 {
        if leading_negative(&w2[i]) {
            w2[i].iter_mut().for_each(|c| *c = -*c);
            nu[i].iter_mut().for_each(|c| *c = -*c);
        }
    }

    let name = name.into();
    let core = Bilinear2x2::new_unvalidated(format!("{name}-core"), u2, v2, w2);
    let ab = AlternativeBasis {
        name,
        phi: inv4_unimodular(&su.s),
        psi: inv4_unimodular(&sv.s),
        nu,
        nu_inv: inv4_unimodular(&nu),
        core,
    };
    // Construction-time proof of correctness.
    let _ = ab.validate();
    ab
}

/// The Karstadt–Schwartz-style alternative-basis algorithm: Winograd's
/// variant sparsified to a 12-addition core (leading coefficient 5).
pub fn karstadt_schwartz() -> AlternativeBasis {
    sparsify(&crate::catalog::winograd(), "karstadt-schwartz")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const IDENTITY4: Mat4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]];

    /// `a · b` for 4×4 integer matrices.
    fn matmul4(a: &Mat4, b: &Mat4) -> Mat4 {
        let mut c = [[0i64; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                for (k, bk) in b.iter().enumerate() {
                    c[i][j] += a[i][k] * bk[j];
                }
            }
        }
        c
    }

    #[test]
    fn det4_known_values() {
        assert_eq!(det4(&IDENTITY4), 1);
        let mut m = IDENTITY4;
        m[0][0] = 3;
        assert_eq!(det4(&m), 3);
        let swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]];
        assert_eq!(det4(&swap), -1);
    }

    #[test]
    fn inv4_round_trip() {
        let m = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [1, 0, 0, 1]];
        assert_eq!(det4(&m).abs(), 1);
        let inv = inv4_unimodular(&m);
        assert_eq!(matmul4(&m, &inv), IDENTITY4);
        assert_eq!(matmul4(&inv, &m), IDENTITY4);
    }

    #[test]
    #[should_panic(expected = "not unimodular")]
    fn inv4_rejects_non_unimodular() {
        let mut m = IDENTITY4;
        m[0][0] = 2;
        let _ = inv4_unimodular(&m);
    }

    #[test]
    fn candidate_vectors_shape() {
        let c = candidate_vectors();
        assert_eq!(c.len(), 40);
        // All distinct, first nonzero entry positive.
        for v in &c {
            assert_eq!(*v.iter().find(|&&x| x != 0).unwrap(), 1);
        }
    }

    #[test]
    fn transform_pre_post_inverse() {
        let ab = karstadt_schwartz();
        let mut rng = StdRng::seed_from_u64(2);
        let m = Matrix::<i64>::random_small(8, 8, &mut rng);
        let mut c = OpCounts::default();
        // ν then ν⁻¹ (pre followed by matching post) is the identity.
        let fwd = transform_pre(&m, &ab.nu, 3, &mut c);
        let back = transform_post(&fwd, &ab.nu_inv, 3, &mut c);
        assert_eq!(back, m);
    }

    #[test]
    fn ks_multiplies_correctly_all_depths() {
        let ab = karstadt_schwartz();
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2usize, 4, 8, 16] {
            let a = Matrix::<i64>::random_small(n, n, &mut rng);
            let b = Matrix::<i64>::random_small(n, n, &mut rng);
            let expect = multiply_naive(&a, &b);
            for levels in 0..=n.trailing_zeros() as usize {
                let (c, _, _) = multiply_alt_counted(&ab, &a, &b, levels);
                assert_eq!(c, expect, "n={n} levels={levels}");
            }
        }
    }

    #[test]
    fn ks_core_has_twelve_additions() {
        let ab = karstadt_schwartz();
        // Karstadt–Schwartz: the alternative-basis core needs only 12
        // additions per step (vs Winograd's 15) → leading coefficient 5.
        assert_eq!(
            ab.core_additions(),
            12,
            "sparsifier found {}",
            ab.core_additions()
        );
        assert_eq!(
            crate::exec::leading_coefficient(7, ab.core_additions() as u64),
            5.0
        );
    }

    #[test]
    fn ks_effective_triple_validates() {
        let eff = karstadt_schwartz().validate();
        assert!(eff.validate().is_none());
        assert_eq!(eff.t(), 7);
    }

    #[test]
    fn sparsify_strassen_not_worse() {
        let ab = sparsify(&catalog::strassen(), "strassen-alt");
        assert!(ab.core_additions() <= catalog::strassen().additions_per_step());
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::<i64>::random_small(8, 8, &mut rng);
        let b = Matrix::<i64>::random_small(8, 8, &mut rng);
        assert_eq!(multiply_alt(&ab, &a, &b), multiply_naive(&a, &b));
    }

    #[test]
    fn transform_cost_is_n2_logn_shaped() {
        // Transform ops per level ≈ nnz-dependent · n²; over log n levels
        // the total is Θ(n² log n) — far below the core's Θ(n^2.81).
        let ab = karstadt_schwartz();
        let mut rng = StdRng::seed_from_u64(5);
        let mut prev_ratio = f64::MAX;
        for n in [8usize, 16, 32] {
            let a = Matrix::<i64>::random_small(n, n, &mut rng);
            let b = Matrix::<i64>::random_small(n, n, &mut rng);
            let levels = n.trailing_zeros() as usize;
            let (_, core, transform) = multiply_alt_counted(&ab, &a, &b, levels);
            let ratio = transform.total() as f64 / core.total() as f64;
            assert!(ratio < prev_ratio, "transform share must shrink with n");
            prev_ratio = ratio;
        }
    }

    #[test]
    fn ks_total_flops_beat_winograd() {
        let ab = karstadt_schwartz();
        let w = catalog::winograd();
        let mut rng = StdRng::seed_from_u64(6);
        // Large enough for the Θ(n² log n) transform cost to amortize
        // against the Θ(n^2.81) saving of the 12-addition core.
        let n = 128;
        let a = Matrix::<i64>::random_small(n, n, &mut rng);
        let b = Matrix::<i64>::random_small(n, n, &mut rng);
        let levels = n.trailing_zeros() as usize;
        let (_, core, transform) = multiply_alt_counted(&ab, &a, &b, levels);
        let (_, wc) = multiply_fast_counted(&w, &a, &b, 1);
        assert!(
            core.total() + transform.total() < wc.total(),
            "KS {} vs Winograd {}",
            core.total() + transform.total(),
            wc.total()
        );
    }
}
