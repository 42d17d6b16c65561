//! The prime field ℤ/pℤ for p = 2³¹ − 1 (a Mersenne prime).
//!
//! Exact modular arithmetic gives a cheap, overflow-free correctness oracle
//! for large random matrices: two multiplication algorithms agreeing over
//! `Zp` on random inputs agree as polynomial identities with overwhelming
//! probability (Schwartz–Zippel).

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Field modulus: the Mersenne prime 2³¹ − 1.
pub(crate) const P: u64 = (1 << 31) - 1;

/// An element of ℤ/pℤ, stored canonically in `[0, p)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Zp(u64);

impl Zp {
    /// Element from any `u64` (reduced mod p).
    pub fn new(v: u64) -> Self {
        Zp(v % P)
    }

    /// Canonical representative in `[0, p)`.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Zp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ₚ", self.0)
    }
}

impl Add for Zp {
    type Output = Zp;
    fn add(self, rhs: Zp) -> Zp {
        let s = self.0 + rhs.0;
        Zp(if s >= P { s - P } else { s })
    }
}

impl Sub for Zp {
    type Output = Zp;
    fn sub(self, rhs: Zp) -> Zp {
        Zp(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P - rhs.0
        })
    }
}

impl Mul for Zp {
    type Output = Zp;
    fn mul(self, rhs: Zp) -> Zp {
        Zp((self.0 as u128 * rhs.0 as u128 % P as u128) as u64)
    }
}

impl Neg for Zp {
    type Output = Zp;
    fn neg(self) -> Zp {
        Zp(if self.0 == 0 { 0 } else { P - self.0 })
    }
}

impl AddAssign for Zp {
    fn add_assign(&mut self, rhs: Zp) {
        *self = *self + rhs;
    }
}
impl SubAssign for Zp {
    fn sub_assign(&mut self, rhs: Zp) {
        *self = *self - rhs;
    }
}
impl MulAssign for Zp {
    fn mul_assign(&mut self, rhs: Zp) {
        *self = *self * rhs;
    }
}

impl Scalar for Zp {
    fn zero() -> Self {
        Zp(0)
    }
    fn one() -> Self {
        Zp(1)
    }
    fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Zp::new(v as u64)
        } else {
            -Zp::new((-v) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_range() {
        assert_eq!(Zp::new(P).value(), 0);
        assert_eq!(Zp::new(P + 5).value(), 5);
    }

    #[test]
    fn add_wraps() {
        let a = Zp::new(P - 1);
        assert_eq!((a + Zp::new(2)).value(), 1);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!((Zp::new(0) - Zp::new(1)).value(), P - 1);
        assert_eq!((Zp::new(5) - Zp::new(3)).value(), 2);
    }

    #[test]
    fn neg_and_from_negative_i64() {
        assert_eq!((-Zp::new(1)).value(), P - 1);
        assert_eq!((-Zp::new(0)).value(), 0);
        assert_eq!(Zp::from_i64(-1), -Zp::new(1));
        assert_eq!(Zp::from_i64(-1) + Zp::one(), Zp::zero());
    }

    #[test]
    fn mul_large_no_overflow() {
        let a = Zp::new(P - 1);
        // (p-1)² ≡ 1 (mod p)
        assert_eq!((a * a).value(), 1);
    }
}
