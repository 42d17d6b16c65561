//! General `⟨m,k,n;t⟩` bilinear matrix-multiplication algorithms
//! (Definition 2.6) — the class behind Table I's "fast matrix
//! multiplication with general base case" and "rectangular" rows.
//!
//! A base case multiplies an `m×k` by a `k×n` block matrix using `t`
//! products. Beyond hand-written algorithms, the **tensor product** of two
//! base cases `⟨m₁,k₁,n₁;t₁⟩ ⊗ ⟨m₂,k₂,n₂;t₂⟩ = ⟨m₁m₂, k₁k₂, n₁n₂; t₁t₂⟩`
//! ([`tensor`]) generates arbitrarily large validated bases mechanically —
//! e.g. Strassen ⊗ Strassen is a `⟨4,4,4;49⟩` algorithm, and
//! classical `⟨1,2,2;4⟩` ⊗ Strassen a rectangular `⟨2,4,4;28⟩` one.
//!
//! Validation is the generalized Brent identity, checked exhaustively:
//!
//! ```text
//! Σ_r U[r][(i,a)]·V[r][(b,j)]·W[(i',j')][r] = δ_{a,b}·δ_{i,i'}·δ_{j,j'}
//! ```

use crate::bilinear::{brent_violation, BrentViolation};
use fmm_matrix::{Matrix, Scalar};

/// A general `⟨m,k,n;t⟩` bilinear algorithm with integer coefficients.
///
/// Index flattening is row-major: entry `(i, j)` of an `r×c` block matrix
/// is coordinate `i·c + j`.
#[derive(Clone, Debug, PartialEq)]
pub struct BilinearRect {
    /// Name for reports.
    pub name: String,
    /// Block-rows of A (and of C).
    pub m: usize,
    /// Inner dimension (columns of A = rows of B).
    pub k: usize,
    /// Block-columns of B (and of C).
    pub n: usize,
    /// Left encoder: `t` rows of `m·k` coefficients.
    pub u: Vec<Vec<i64>>,
    /// Right encoder: `t` rows of `k·n` coefficients.
    pub v: Vec<Vec<i64>>,
    /// Decoder: `m·n` rows of `t` coefficients.
    pub w: Vec<Vec<i64>>,
}

impl BilinearRect {
    /// Construct and validate.
    ///
    /// # Panics
    /// Panics if shapes are inconsistent or Brent's equations fail.
    pub fn new(
        name: impl Into<String>,
        (m, k, n): (usize, usize, usize),
        u: Vec<Vec<i64>>,
        v: Vec<Vec<i64>>,
        w: Vec<Vec<i64>>,
    ) -> Self {
        let alg = BilinearRect {
            name: name.into(),
            m,
            k,
            n,
            u,
            v,
            w,
        };
        alg.assert_shapes();
        if let Some(viol) = alg.validate() {
            panic!(
                "algorithm '{}' violates Brent equations: {viol:?}",
                alg.name
            );
        }
        alg
    }

    fn assert_shapes(&self) {
        let t = self.t();
        assert!(t > 0, "no products");
        for (r, row) in self.u.iter().enumerate() {
            assert_eq!(row.len(), self.m * self.k, "U row {r} length");
        }
        assert_eq!(self.v.len(), t, "V row count");
        for (r, row) in self.v.iter().enumerate() {
            assert_eq!(row.len(), self.k * self.n, "V row {r} length");
        }
        assert_eq!(self.w.len(), self.m * self.n, "W row count");
        for (r, row) in self.w.iter().enumerate() {
            assert_eq!(row.len(), t, "W row {r} length");
        }
    }

    /// Number of products.
    pub fn t(&self) -> usize {
        self.u.len()
    }

    /// The recursion exponent `ω₀ = log_{(mkn)^{1/3}} t = 3·ln t / ln(mkn)`
    /// (for square-ish interpretations; equals `log₂ 7` for Strassen).
    pub fn omega(&self) -> f64 {
        3.0 * (self.t() as f64).ln() / ((self.m * self.k * self.n) as f64).ln()
    }

    /// Exhaustive generalized Brent check; first violation if any.
    pub fn validate(&self) -> Option<BrentViolation> {
        brent_violation((self.m, self.k, self.n), &self.u, &self.v, &self.w)
    }

    /// The classical (definition-following) `⟨m,k,n; m·k·n⟩` algorithm.
    pub fn classical(m: usize, k: usize, n: usize) -> Self {
        let t = m * k * n;
        let mut u = vec![vec![0i64; m * k]; t];
        let mut v = vec![vec![0i64; k * n]; t];
        let mut w = vec![vec![0i64; t]; m * n];
        let mut r = 0;
        for i in 0..m {
            for a in 0..k {
                for j in 0..n {
                    u[r][i * k + a] = 1;
                    v[r][a * n + j] = 1;
                    w[i * n + j][r] = 1;
                    r += 1;
                }
            }
        }
        BilinearRect::new(format!("classical-{m}x{k}x{n}"), (m, k, n), u, v, w)
    }

    /// Lift a square 2×2 algorithm into this representation.
    pub fn from_2x2(alg: &crate::bilinear::Bilinear2x2) -> Self {
        BilinearRect::new(
            alg.name.clone(),
            (2, 2, 2),
            alg.u.iter().map(|r| r.to_vec()).collect(),
            alg.v.iter().map(|r| r.to_vec()).collect(),
            alg.w.to_vec(),
        )
    }

    /// Arithmetic: number of nonzero coefficients (proxy for the linear
    /// phase's cost).
    pub fn nnz(&self) -> usize {
        let c = |rows: &[Vec<i64>]| rows.iter().flatten().filter(|&&x| x != 0).count();
        c(&self.u) + c(&self.v) + c(&self.w)
    }
}

/// Tensor (Kronecker) product of two bilinear algorithms:
/// the product algorithm multiplies `(m₁m₂)×(k₁k₂)` by `(k₁k₂)×(n₁n₂)`
/// block matrices with `t₁·t₂` products. Index convention: the outer
/// algorithm's blocks are subdivided by the inner one, i.e. coordinate
/// `(i₁·m₂ + i₂, a₁·k₂ + a₂)` in A.
///
/// ```
/// use fmm_core::rectangular::{tensor, BilinearRect};
/// use fmm_core::catalog;
/// let s = BilinearRect::from_2x2(&catalog::strassen());
/// let s2 = tensor(&s, &s);
/// assert_eq!((s2.m, s2.k, s2.n), (4, 4, 4));
/// assert_eq!(s2.t(), 49);            // validated at construction
/// assert!((s2.omega() - 7f64.log2()).abs() < 1e-12);
/// ```
pub fn tensor(outer: &BilinearRect, inner: &BilinearRect) -> BilinearRect {
    let m = outer.m * inner.m;
    let k = outer.k * inner.k;
    let n = outer.n * inner.n;
    let t = outer.t() * inner.t();

    let mut u = vec![vec![0i64; m * k]; t];
    let mut v = vec![vec![0i64; k * n]; t];
    let mut w = vec![vec![0i64; t]; m * n];

    for r1 in 0..outer.t() {
        for r2 in 0..inner.t() {
            let r = r1 * inner.t() + r2;
            for i1 in 0..outer.m {
                for a1 in 0..outer.k {
                    let c1 = outer.u[r1][i1 * outer.k + a1];
                    if c1 == 0 {
                        continue;
                    }
                    for i2 in 0..inner.m {
                        for a2 in 0..inner.k {
                            let c2 = inner.u[r2][i2 * inner.k + a2];
                            if c2 != 0 {
                                let row = i1 * inner.m + i2;
                                let col = a1 * inner.k + a2;
                                u[r][row * k + col] = c1 * c2;
                            }
                        }
                    }
                }
            }
            for b1 in 0..outer.k {
                for j1 in 0..outer.n {
                    let c1 = outer.v[r1][b1 * outer.n + j1];
                    if c1 == 0 {
                        continue;
                    }
                    for b2 in 0..inner.k {
                        for j2 in 0..inner.n {
                            let c2 = inner.v[r2][b2 * inner.n + j2];
                            if c2 != 0 {
                                let row = b1 * inner.k + b2;
                                let col = j1 * inner.n + j2;
                                v[r][row * n + col] = c1 * c2;
                            }
                        }
                    }
                }
            }
            for i1 in 0..outer.m {
                for j1 in 0..outer.n {
                    let c1 = outer.w[i1 * outer.n + j1][r1];
                    if c1 == 0 {
                        continue;
                    }
                    for i2 in 0..inner.m {
                        for j2 in 0..inner.n {
                            let c2 = inner.w[i2 * inner.n + j2][r2];
                            if c2 != 0 {
                                let row = i1 * inner.m + i2;
                                let col = j1 * inner.n + j2;
                                w[row * n + col][r] = c1 * c2;
                            }
                        }
                    }
                }
            }
        }
    }

    BilinearRect::new(format!("{}⊗{}", outer.name, inner.name), (m, k, n), u, v, w)
}

/// Apply the algorithm once (one recursion level) on block matrices whose
/// blocks are scalars — i.e. multiply an `m×k` by a `k×n` matrix exactly.
pub fn apply_once<T: Scalar>(alg: &BilinearRect, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!((a.rows(), a.cols()), (alg.m, alg.k), "A shape");
    assert_eq!((b.rows(), b.cols()), (alg.k, alg.n), "B shape");
    let products: Vec<T> = (0..alg.t())
        .map(|r| {
            let mut left = T::zero();
            for i in 0..alg.m {
                for x in 0..alg.k {
                    let c = alg.u[r][i * alg.k + x];
                    if c != 0 {
                        left += T::from_i64(c) * a[(i, x)];
                    }
                }
            }
            let mut right = T::zero();
            for x in 0..alg.k {
                for j in 0..alg.n {
                    let c = alg.v[r][x * alg.n + j];
                    if c != 0 {
                        right += T::from_i64(c) * b[(x, j)];
                    }
                }
            }
            left * right
        })
        .collect();
    Matrix::from_fn(alg.m, alg.n, |i, j| {
        let mut acc = T::zero();
        for (r, &p) in products.iter().enumerate() {
            let c = alg.w[i * alg.n + j][r];
            if c != 0 {
                acc += T::from_i64(c) * p;
            }
        }
        acc
    })
}

/// Recursive execution: multiply an `(m^d × k^d)` by a `(k^d × n^d)` matrix
/// by `d` levels of the base case with classical multiplication below
/// `depth == 0`.
///
/// # Panics
/// Panics if the matrix dimensions do not match `m^d, k^d, n^d`.
pub fn multiply_rect<T: Scalar>(
    alg: &BilinearRect,
    a: &Matrix<T>,
    b: &Matrix<T>,
    depth: usize,
) -> Matrix<T> {
    assert_eq!(a.rows(), alg.m.pow(depth as u32), "A rows");
    assert_eq!(a.cols(), alg.k.pow(depth as u32), "A cols");
    assert_eq!(b.rows(), alg.k.pow(depth as u32), "B rows");
    assert_eq!(b.cols(), alg.n.pow(depth as u32), "B cols");
    rec(alg, a, b, depth)
}

fn block<T: Scalar>(m: &Matrix<T>, bi: usize, bj: usize, br: usize, bc: usize) -> Matrix<T> {
    Matrix::from_fn(br, bc, |i, j| m[(bi * br + i, bj * bc + j)])
}

fn rec<T: Scalar>(alg: &BilinearRect, a: &Matrix<T>, b: &Matrix<T>, depth: usize) -> Matrix<T> {
    if depth == 0 {
        return fmm_matrix::multiply::multiply_ikj(a, b);
    }
    let (br_a, bc_a) = (a.rows() / alg.m, a.cols() / alg.k);
    let (br_b, bc_b) = (b.rows() / alg.k, b.cols() / alg.n);
    // Gather blocks.
    let a_blocks: Vec<Matrix<T>> = (0..alg.m * alg.k)
        .map(|p| block(a, p / alg.k, p % alg.k, br_a, bc_a))
        .collect();
    let b_blocks: Vec<Matrix<T>> = (0..alg.k * alg.n)
        .map(|p| block(b, p / alg.n, p % alg.n, br_b, bc_b))
        .collect();
    let products: Vec<Matrix<T>> = (0..alg.t())
        .map(|r| {
            let a_refs: Vec<&Matrix<T>> = a_blocks.iter().collect();
            let b_refs: Vec<&Matrix<T>> = b_blocks.iter().collect();
            let left = fmm_matrix::ops::linear_combination(&alg.u[r], &a_refs);
            let right = fmm_matrix::ops::linear_combination(&alg.v[r], &b_refs);
            rec(alg, &left, &right, depth - 1)
        })
        .collect();
    let (cr, cc) = (products[0].rows(), products[0].cols());
    Matrix::from_fn(alg.m * cr, alg.n * cc, |i, j| {
        let (bi, ri) = (i / cr, i % cr);
        let (bj, rj) = (j / cc, j % cc);
        let mut acc = T::zero();
        for (r, p) in products.iter().enumerate() {
            let c = alg.w[bi * alg.n + bj][r];
            if c != 0 {
                acc += T::from_i64(c) * p[(ri, rj)];
            }
        }
        acc
    })
}

/// The catalog of general-base algorithms used in tests and benches.
pub mod rect_catalog {
    use super::*;

    /// Strassen ⊗ Strassen: `⟨4,4,4;49⟩`.
    pub fn strassen_squared() -> BilinearRect {
        let s = BilinearRect::from_2x2(&crate::catalog::strassen());
        tensor(&s, &s)
    }

    /// Strassen ⊗ Winograd: `⟨4,4,4;49⟩` with a lighter linear phase.
    pub fn strassen_winograd() -> BilinearRect {
        tensor(
            &BilinearRect::from_2x2(&crate::catalog::strassen()),
            &BilinearRect::from_2x2(&crate::catalog::winograd()),
        )
    }

    /// Rectangular `⟨1,2,2;4⟩ ⊗ Strassen = ⟨2,4,4;28⟩`.
    pub fn rect_1_2_2_x_strassen() -> BilinearRect {
        tensor(
            &BilinearRect::classical(1, 2, 2),
            &BilinearRect::from_2x2(&crate::catalog::strassen()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::rect_catalog::*;
    use super::*;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classical_bases_validate() {
        for (m, k, n) in [(1usize, 1usize, 1usize), (2, 2, 2), (3, 2, 4), (1, 5, 2)] {
            let alg = BilinearRect::classical(m, k, n);
            assert_eq!(alg.t(), m * k * n);
            assert!(alg.validate().is_none());
        }
    }

    #[test]
    fn lifted_2x2_algorithms_validate() {
        for alg2 in crate::catalog::all() {
            let alg = BilinearRect::from_2x2(&alg2);
            assert!(alg.validate().is_none(), "{}", alg.name);
        }
    }

    #[test]
    #[should_panic(expected = "violates Brent")]
    fn corrupted_rect_rejected() {
        let mut alg = BilinearRect::classical(2, 2, 2);
        alg.u[0][1] = 1;
        // Re-run validation through the constructor.
        let BilinearRect {
            name,
            m,
            k,
            n,
            u,
            v,
            w,
        } = alg;
        let _ = BilinearRect::new(name, (m, k, n), u, v, w);
    }

    #[test]
    fn tensor_dimensions_and_validity() {
        let s2 = strassen_squared();
        assert_eq!((s2.m, s2.k, s2.n), (4, 4, 4));
        assert_eq!(s2.t(), 49);
        assert!(s2.validate().is_none());

        let r = rect_1_2_2_x_strassen();
        assert_eq!((r.m, r.k, r.n), (2, 4, 4));
        assert_eq!(r.t(), 28);
        assert!(r.validate().is_none());
    }

    #[test]
    fn tensor_omega_consistency() {
        // Strassen ⊗ Strassen has the same exponent as Strassen.
        let s = BilinearRect::from_2x2(&crate::catalog::strassen());
        let s2 = strassen_squared();
        assert!((s.omega() - s2.omega()).abs() < 1e-12);
        assert!((s.omega() - 7f64.log2()).abs() < 1e-12);
        // Classical ⊗ anything-classical stays at 3.
        let c = BilinearRect::classical(2, 3, 4);
        assert!((c.omega() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn apply_once_matches_naive() {
        let mut rng = StdRng::seed_from_u64(60);
        for alg in [
            BilinearRect::classical(2, 3, 2),
            BilinearRect::from_2x2(&crate::catalog::winograd()),
            rect_1_2_2_x_strassen(),
        ] {
            let a = Matrix::<i64>::random_small(alg.m, alg.k, &mut rng);
            let b = Matrix::<i64>::random_small(alg.k, alg.n, &mut rng);
            assert_eq!(
                apply_once(&alg, &a, &b),
                multiply_naive(&a, &b),
                "{}",
                alg.name
            );
        }
    }

    #[test]
    fn recursive_rect_execution_correct() {
        let mut rng = StdRng::seed_from_u64(61);
        // ⟨2,4,4;28⟩ at depth 2: A is 4×16, B is 16×16.
        let alg = rect_1_2_2_x_strassen();
        let a = Matrix::<i64>::random_small(4, 16, &mut rng);
        let b = Matrix::<i64>::random_small(16, 16, &mut rng);
        assert_eq!(multiply_rect(&alg, &a, &b, 2), multiply_naive(&a, &b));
    }

    #[test]
    fn strassen_squared_equals_two_strassen_levels() {
        let mut rng = StdRng::seed_from_u64(62);
        let a = Matrix::<i64>::random_small(16, 16, &mut rng);
        let b = Matrix::<i64>::random_small(16, 16, &mut rng);
        let via_tensor = multiply_rect(&strassen_squared(), &a, &b, 2);
        let via_2x2 = crate::exec::multiply_fast(&crate::catalog::strassen(), &a, &b, 1);
        assert_eq!(via_tensor, via_2x2);
    }

    #[test]
    fn tensor_mixed_algorithms_correct() {
        let mut rng = StdRng::seed_from_u64(63);
        let sw = strassen_winograd();
        let a = Matrix::<i64>::random_small(4, 4, &mut rng);
        let b = Matrix::<i64>::random_small(4, 4, &mut rng);
        assert_eq!(multiply_rect(&sw, &a, &b, 1), multiply_naive(&a, &b));
    }

    #[test]
    fn depth_zero_is_classical() {
        let mut rng = StdRng::seed_from_u64(64);
        let alg = BilinearRect::classical(2, 2, 2);
        let a = Matrix::<i64>::random_small(1, 1, &mut rng);
        let b = Matrix::<i64>::random_small(1, 1, &mut rng);
        assert_eq!(
            multiply_rect(&alg, &a, &b, 0)[(0, 0)],
            a[(0, 0)] * b[(0, 0)]
        );
    }

    #[test]
    fn nnz_accounting() {
        let c = BilinearRect::classical(2, 2, 2);
        // 8 products × (1 + 1) encoder nonzeros + 8 decoder nonzeros.
        assert_eq!(c.nnz(), 8 + 8 + 8);
        // Tensoring multiplies sparsity patterns.
        let s = BilinearRect::from_2x2(&crate::catalog::strassen());
        let s2 = tensor(&s, &s);
        let (us, vs, ws) = (
            s.u.iter().flatten().filter(|&&x| x != 0).count(),
            s.v.iter().flatten().filter(|&&x| x != 0).count(),
            s.w.iter().flatten().filter(|&&x| x != 0).count(),
        );
        assert_eq!(s2.nnz(), us * us + vs * vs + ws * ws);
    }
}
