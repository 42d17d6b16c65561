//! Recursive execution of bilinear algorithms with exact operation counting.
//!
//! [`multiply_fast`] runs any catalog algorithm by the textbook recursion
//! (Algorithm 2 of the paper) with a classical `ikj` leaf. Each level is
//! one `step`: split both operands into quadrants, evaluate the encoder
//! SLPs block-wise (counted), multiply the `t` operand pairs, evaluate the
//! decoder SLP (counted), and join. It is the reference executor: it
//! stores every intermediate block. `fmm-kernel`'s measured recursion
//! runs the same bilinear algorithms in a few reused buffers instead.
//! [`multiply_fast_counted`] additionally counts every scalar
//! multiplication and addition performed, which is how the
//! leading-coefficient claims of the paper's introduction (7 → 6 → 5) are
//! measured rather than assumed.

use crate::bilinear::Bilinear2x2;
use crate::slp::Slp;
use fmm_matrix::multiply::multiply_ikj;
use fmm_matrix::quad::{crop, join_quadrants, next_pow2, pad_to, split_quadrants};
use fmm_matrix::{Matrix, Scalar};

/// Exact operation counts of an execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Scalar multiplications from base-case products.
    pub scalar_mults: u64,
    /// Scalar additions/subtractions (from linear phases and base cases).
    pub scalar_adds: u64,
    /// Scalar multiplications by encoder/decoder coefficients ∉ {0, ±1}.
    pub coeff_mults: u64,
}

impl OpCounts {
    /// Total floating-point-style operations.
    pub fn total(&self) -> u64 {
        self.scalar_mults + self.scalar_adds + self.coeff_mults
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        self.scalar_mults += rhs.scalar_mults;
        self.scalar_adds += rhs.scalar_adds;
        self.coeff_mults += rhs.coeff_mults;
    }
}

/// The linear-phase operation counts of one [`step`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct StepCounts {
    /// Both encoders.
    encode: OpCounts,
    /// The decoder.
    decode: OpCounts,
}

/// Block combiner `c1·x + c2·y` with counting, fused into one elementwise
/// pass. Sign flips are folded into the addition (so `−x + y` costs exactly
/// one subtraction per element, matching published addition counts);
/// coefficients outside `{0, ±1}` additionally cost one multiply per element
/// per coefficient. `c2 == 0` (or `c1 == 0`) means pure scaling.
fn combine_blocks<T: Scalar>(
    c1: i64,
    x: &Matrix<T>,
    c2: i64,
    y: &Matrix<T>,
    counts: &mut OpCounts,
) -> Matrix<T> {
    let area = (x.rows() * x.cols()) as u64;
    let scale = |c: i64, m: &Matrix<T>, counts: &mut OpCounts| -> Matrix<T> {
        match c {
            1 => m.clone(),
            -1 => {
                counts.scalar_adds += area; // negation counted as subtraction
                m.map(|v| -v)
            }
            _ => {
                counts.coeff_mults += area;
                let cc = T::from_i64(c);
                m.map(|v| cc * v)
            }
        }
    };
    if c2 == 0 {
        return scale(c1, x, counts);
    }
    if c1 == 0 {
        return scale(c2, y, counts);
    }
    counts.scalar_adds += area;
    if c1.abs() != 1 {
        counts.coeff_mults += area;
    }
    if c2.abs() != 1 {
        counts.coeff_mults += area;
    }
    let xs = x.as_slice();
    let ys = y.as_slice();
    let data: Vec<T> = match (c1, c2) {
        (1, 1) => xs.iter().zip(ys).map(|(&a, &b)| a + b).collect(),
        (1, -1) => xs.iter().zip(ys).map(|(&a, &b)| a - b).collect(),
        (-1, 1) => xs.iter().zip(ys).map(|(&a, &b)| b - a).collect(),
        _ => {
            let (f1, f2) = (T::from_i64(c1), T::from_i64(c2));
            xs.iter().zip(ys).map(|(&a, &b)| f1 * a + f2 * b).collect()
        }
    };
    Matrix::from_vec(x.rows(), x.cols(), data)
}

/// One recursion step of `alg` on the square even-order operands `a`, `b`.
///
/// Splits both into quadrants, encodes them through `alg`'s encoder SLPs,
/// passes the `t` operand pairs `(Σ U[r]·A, Σ V[r]·B)` to `products` (which
/// must return the `t` products in the same order), decodes the products
/// into C's quadrants and joins them. Blocks move through [`Slp::eval`]
/// rather than being copied, and `products` owns its pairs, so it can drop
/// each one as soon as its product is formed.
fn step<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    products: impl FnOnce(Vec<(Matrix<T>, Matrix<T>)>) -> Vec<Matrix<T>>,
) -> (Matrix<T>, StepCounts) {
    let mut counts = StepCounts::default();
    let mut encode = |q: [Matrix<T>; 4], slp: &Slp| {
        slp.eval(q.into(), |c1, x, c2, y| {
            combine_blocks(c1, x, c2, y, &mut counts.encode)
        })
    };
    let left = encode(split_quadrants(a), &alg.enc_a);
    let right = encode(split_quadrants(b), &alg.enc_b);
    let m = products(left.into_iter().zip(right).collect());
    assert_eq!(m.len(), alg.t(), "one product per encoder row");
    let c = alg.dec.eval(m, |c1, x, c2, y| {
        combine_blocks(c1, x, c2, y, &mut counts.decode)
    });
    let quadrants: [Matrix<T>; 4] = c.try_into().expect("decoder yields four quadrants");
    (join_quadrants(&quadrants), counts)
}

fn multiply_rec<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
    level: usize,
    counts: &mut OpCounts,
) -> Matrix<T> {
    let n = a.rows();
    let obs_on = fmm_obs::detailed();
    if n <= cutoff || n == 1 {
        let mults = (n * n * n) as u64;
        let adds = (n * n * (n - 1)) as u64;
        counts.scalar_mults += mults;
        counts.scalar_adds += adds;
        if obs_on {
            let labels = [("level", level.to_string())];
            fmm_obs::add("core.exec.base_mults", &labels, mults);
            fmm_obs::add("core.exec.base_adds", &labels, adds);
        }
        return multiply_ikj(a, b);
    }
    let (c, phases) = step(alg, a, b, |pairs| {
        pairs
            .into_iter()
            .map(|(l, r)| multiply_rec(alg, &l, &r, cutoff, level + 1, counts))
            .collect()
    });
    *counts += phases.encode;
    *counts += phases.decode;
    if obs_on {
        let labels = [("level", level.to_string())];
        fmm_obs::add("core.exec.steps", &labels, 1);
        for (name, value) in [
            ("core.exec.encode_adds", phases.encode.scalar_adds),
            ("core.exec.encode_coeff_mults", phases.encode.coeff_mults),
            ("core.exec.decode_adds", phases.decode.scalar_adds),
            ("core.exec.decode_coeff_mults", phases.decode.coeff_mults),
        ] {
            fmm_obs::add(name, &labels, value);
        }
    }
    c
}

/// Multiply two square power-of-two matrices with the given algorithm,
/// recursing down to `cutoff` (use `cutoff = 1` for the full recursion).
///
/// # Panics
/// Panics unless both matrices are square of the same power-of-two order.
pub fn multiply_fast<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
) -> Matrix<T> {
    multiply_fast_counted(alg, a, b, cutoff).0
}

/// As [`multiply_fast`], returning exact operation counts.
pub fn multiply_fast_counted<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
) -> (Matrix<T>, OpCounts) {
    assert!(
        a.is_square() && b.is_square() && a.rows() == b.rows(),
        "need equal square matrices"
    );
    assert!(a.rows().is_power_of_two(), "order must be a power of two");
    let _span = fmm_obs::Span::enter("core.multiply_fast");
    let mut counts = OpCounts::default();
    let c = multiply_rec(alg, a, b, cutoff.max(1), 0, &mut counts);
    if fmm_obs::enabled() {
        publish_op_counts(&alg.name, &counts);
    }
    (c, counts)
}

/// Publish one execution's operation counts under an `alg` label.
fn publish_op_counts(alg: &str, counts: &OpCounts) {
    let labels = [("alg", alg.to_string())];
    fmm_obs::add("core.exec.scalar_mults", &labels, counts.scalar_mults);
    fmm_obs::add("core.exec.scalar_adds", &labels, counts.scalar_adds);
    fmm_obs::add("core.exec.coeff_mults", &labels, counts.coeff_mults);
}

/// Multiply arbitrary (rectangular) matrices by padding to the covering
/// power-of-two square, running the fast recursion, and cropping.
pub fn multiply_any<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let n = next_pow2(a.rows().max(a.cols()).max(b.cols()));
    let cp = multiply_fast(alg, &pad_to(a, n), &pad_to(b, n), cutoff);
    crop(&cp, a.rows(), b.cols())
}

/// Closed-form operation counts of the full recursion (`cutoff = 1`) for a
/// `⟨2,2,2;t⟩` algorithm with `a` additions per step on an `n×n` problem:
/// `mults = t^k`, `adds = a·(t^k − 4^k)/(t − 4)` where `n = 2^k`.
///
/// The measured counts from [`multiply_fast_counted`] must equal these — a
/// strong cross-check that the executor performs exactly the published
/// operations.
#[cfg(test)]
pub(crate) fn theoretical_counts(t: u64, adds_per_step: u64, n: usize) -> OpCounts {
    assert!(n.is_power_of_two());
    let k = n.trailing_zeros();
    let tk = t.pow(k);
    let fourk = 4u64.pow(k);
    OpCounts {
        scalar_mults: tk,
        scalar_adds: if t == 4 {
            adds_per_step * (k as u64) * fourk / 4
        } else {
            adds_per_step * (tk - fourk) / (t - 4)
        },
        coeff_mults: 0,
    }
}

/// The leading coefficient of the arithmetic complexity `c·n^{log₂ t}`:
/// `1 + a/(t−4)` for a `⟨2,2,2;t⟩` algorithm with `a` additions per step.
/// Strassen: 7, Winograd: 6, Karstadt–Schwartz core: 5.
pub fn leading_coefficient(t: u64, adds_per_step: u64) -> f64 {
    1.0 + adds_per_step as f64 / (t as f64 - 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use fmm_matrix::multiply::multiply_naive;
    use fmm_matrix::Zp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn strassen_matches_classical() {
        let alg = catalog::strassen();
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1usize, 2, 4, 8, 16] {
            let a = Matrix::<i64>::random_small(n, n, &mut rng);
            let b = Matrix::<i64>::random_small(n, n, &mut rng);
            assert_eq!(
                multiply_fast(&alg, &a, &b, 1),
                multiply_naive(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn winograd_matches_classical() {
        let alg = catalog::winograd();
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2usize, 4, 8, 16] {
            let a = Matrix::<i64>::random_small(n, n, &mut rng);
            let b = Matrix::<i64>::random_small(n, n, &mut rng);
            assert_eq!(
                multiply_fast(&alg, &a, &b, 1),
                multiply_naive(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn classical_bilinear_matches() {
        let alg = catalog::classical();
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::<i64>::random_small(8, 8, &mut rng);
        let b = Matrix::<i64>::random_small(8, 8, &mut rng);
        assert_eq!(multiply_fast(&alg, &a, &b, 1), multiply_naive(&a, &b));
    }

    #[test]
    fn cutoff_does_not_change_result() {
        let alg = catalog::strassen();
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::<i64>::random_small(16, 16, &mut rng);
        let b = Matrix::<i64>::random_small(16, 16, &mut rng);
        let full = multiply_fast(&alg, &a, &b, 1);
        for cutoff in [2usize, 4, 8, 16, 32] {
            assert_eq!(multiply_fast(&alg, &a, &b, cutoff), full, "cutoff={cutoff}");
        }
    }

    #[test]
    fn works_over_prime_field() {
        let alg = catalog::winograd();
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::<Zp>::random_small(8, 8, &mut rng);
        let b = Matrix::<Zp>::random_small(8, 8, &mut rng);
        assert_eq!(multiply_fast(&alg, &a, &b, 1), multiply_naive(&a, &b));
    }

    #[test]
    fn works_over_floats() {
        let alg = catalog::strassen();
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::<f64>::random_small(16, 16, &mut rng);
        let b = Matrix::<f64>::random_small(16, 16, &mut rng);
        let fast = multiply_fast(&alg, &a, &b, 2);
        assert!(fast.approx_eq(&multiply_naive(&a, &b), 1e-9));
    }

    #[test]
    fn rectangular_via_padding() {
        let alg = catalog::strassen();
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::<i64>::random_small(3, 5, &mut rng);
        let b = Matrix::<i64>::random_small(5, 7, &mut rng);
        assert_eq!(multiply_any(&alg, &a, &b, 1), multiply_naive(&a, &b));
    }

    #[test]
    fn measured_counts_match_closed_form() {
        let mut rng = StdRng::seed_from_u64(9);
        for (alg, adds) in [(catalog::strassen(), 18u64), (catalog::winograd(), 15u64)] {
            for n in [2usize, 4, 8, 16] {
                let a = Matrix::<i64>::random_small(n, n, &mut rng);
                let b = Matrix::<i64>::random_small(n, n, &mut rng);
                let (_, got) = multiply_fast_counted(&alg, &a, &b, 1);
                let expect = theoretical_counts(7, adds, n);
                assert_eq!(got, expect, "{} n={n}", alg.name);
            }
        }
    }

    #[test]
    fn leading_coefficients_7_6() {
        assert_eq!(leading_coefficient(7, 18), 7.0);
        assert_eq!(leading_coefficient(7, 15), 6.0);
        assert_eq!(leading_coefficient(7, 12), 5.0);
    }

    #[test]
    fn winograd_beats_strassen_in_measured_flops() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 32;
        let a = Matrix::<i64>::random_small(n, n, &mut rng);
        let b = Matrix::<i64>::random_small(n, n, &mut rng);
        let (_, s) = multiply_fast_counted(&catalog::strassen(), &a, &b, 1);
        let (_, w) = multiply_fast_counted(&catalog::winograd(), &a, &b, 1);
        assert!(w.total() < s.total());
        assert_eq!(w.scalar_mults, s.scalar_mults); // same 7^k products
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let alg = catalog::strassen();
        let a = Matrix::<i64>::zeros(3, 3);
        let _ = multiply_fast(&alg, &a, &a, 1);
    }

    #[test]
    fn theoretical_counts_classical_t8() {
        // t=8, 4 additions/step: mults 8^k, adds 4·(8^k−4^k)/4 = 8^k−4^k.
        let c = theoretical_counts(8, 4, 4);
        assert_eq!(c.scalar_mults, 64);
        assert_eq!(c.scalar_adds, 64 - 16);
    }
}
