//! Exact rational arithmetic over `i128`.
//!
//! Used for symbolic validation of bilinear algorithms (Brent's equations)
//! and for computing alternative-basis transformations exactly, where the
//! inverse of a ±1 integer matrix generally has rational entries.

use crate::scalar::Scalar;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A rational number `num/den` in lowest terms with `den > 0`.
///
/// Arithmetic panics on overflow of the underlying `i128`s — acceptable for
/// the small coefficient systems (entries in `{-2,…,2}`, dimensions ≤ 16)
/// this workspace manipulates, and far preferable to silent wraparound in a
/// correctness oracle.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Construct `num/den`, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        if num == 0 {
            return Rational { num: 0, den: 1 };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `v` as a rational.
    pub(crate) fn from_int(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    pub(crate) fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Convert to `f64` (lossy).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Rational {
    type Output = Rational;
    // Exact rational addition necessarily mixes *, /, and gcd reduction.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Rational) -> Rational {
        // Reduce before multiplying to keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let lcm_factor = rhs.den / g;
        Rational::new(
            self.num
                .checked_mul(lcm_factor)
                .and_then(|a| a.checked_add(rhs.num * (self.den / g)))
                .expect("Rational add overflow"),
            self.den
                .checked_mul(lcm_factor)
                .expect("Rational add overflow"),
        )
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce first.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Rational::new(
            (self.num / g1)
                .checked_mul(rhs.num / g2)
                .expect("Rational mul overflow"),
            (self.den / g2)
                .checked_mul(rhs.den / g1)
                .expect("Rational mul overflow"),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl Scalar for Rational {
    fn zero() -> Self {
        Rational { num: 0, den: 1 }
    }
    fn one() -> Self {
        Rational { num: 1, den: 1 }
    }
    fn from_i64(v: i64) -> Self {
        Rational::from_int(v as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::from_int(0));
        assert_eq!(Rational::new(6, 3), Rational::from_int(2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn field_axioms_small() {
        let a = Rational::new(3, 4);
        let b = Rational::new(-5, 6);
        let c = Rational::new(7, 2);
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a * a.recip(), Rational::one());
        assert_eq!(a - a, Rational::zero());
    }

    #[test]
    fn add_reduces() {
        assert_eq!(
            Rational::new(1, 6) + Rational::new(1, 3),
            Rational::new(1, 2)
        );
        assert_eq!(Rational::new(1, 2) + Rational::new(1, 2), Rational::one());
    }

    #[test]
    fn div_and_recip() {
        assert_eq!(
            Rational::new(1, 2) / Rational::new(1, 4),
            Rational::from_int(2)
        );
        assert_eq!(Rational::new(-3, 7).recip(), Rational::new(-7, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert_eq!(
            Rational::new(2, 6).cmp(&Rational::new(1, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn to_f64_is_the_quotient() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::new(8, 4).to_f64(), 2.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Rational::new(3, 6)), "1/2");
        assert_eq!(format!("{}", Rational::from_int(-4)), "-4");
    }
}
