//! Exact rational arithmetic over `i128`.
//!
//! The simplex core needs exact arithmetic: floating point would make
//! feasibility answers unsound, and unsound feasibility answers would let the
//! decoder emit rule-violating tokens. Values in the LeJIT workloads are
//! small (bytes-per-window counters, at most ~10⁷), so `i128` numerators and
//! denominators with eager normalization never overflow in practice; all
//! operations are checked and panic on overflow rather than silently wrap.

#![expect(
    clippy::expect_used,
    reason = "Rational's operator impls cannot return Result; new/recip assert nonzero denominators (a Rational invariant) and add/mul use checked arithmetic with an explicit overflow abort, never silent wraparound"
)]
#![expect(
    clippy::float_arithmetic,
    reason = "to_f64 is a diagnostic/logging accessor on the exact Rational; no solver decision consumes it"
)]

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn const_abs(x: i128) -> i128 {
    if x < 0 {
        -x
    } else {
        x
    }
}

const fn const_gcd(mut a: i128, mut b: i128) -> i128 {
    a = const_abs(a);
    b = const_abs(b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        let g = const_gcd(num, den);
        let sign = if den < 0 { -1 } else { 1 };
        if g == 0 {
            return Rational { num: 0, den: 1 };
        }
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates a rational from an integer.
    pub const fn from_int(n: i64) -> Rational {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// The numerator (after normalization).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Whether this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Whether this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Whether this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        -(-*self).floor()
    }

    /// Converts to `i64` if this rational is an integer that fits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.den == 1 {
            i64::try_from(self.num).ok()
        } else {
            None
        }
    }

    /// Approximate `f64` value (for diagnostics only — never for decisions).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    // gcd pre-reduction intentionally uses division inside `add`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Rational) -> Rational {
        // a/b + c/d = (a*d + c*b) / (b*d); pre-reduce via gcd(b, d).
        let g = const_gcd(self.den, rhs.den);
        let lcm_part = rhs.den / g;
        let num = self
            .num
            .checked_mul(lcm_part)
            .and_then(|x| {
                x.checked_add(
                    rhs.num
                        .checked_mul(self.den / g)
                        .expect("rational overflow"),
                )
            })
            .expect("rational overflow");
        let den = self.den.checked_mul(lcm_part).expect("rational overflow");
        Rational::new(num, den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
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

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = const_gcd(self.num, rhs.den);
        let g2 = const_gcd(rhs.num, self.den);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .expect("rational overflow");
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .expect("rational overflow");
        Rational::new(num, den)
    }
}

impl Div for Rational {
    type Output = Rational;
    // division *is* multiplication by the reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        let lhs = self.num.checked_mul(other.den).expect("rational overflow");
        let rhs = other.num.checked_mul(self.den).expect("rational overflow");
        lhs.cmp(&rhs)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rational::ZERO);
        assert_eq!(r(6, 3).to_i64(), Some(2));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::ONE);
        assert!(Rational::from_int(-5) < Rational::ZERO);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(6, 2).floor(), 3);
        assert_eq!(r(6, 2).ceil(), 3);
        assert_eq!(r(-6, 2).floor(), -3);
        assert_eq!(r(-6, 2).ceil(), -3);
        assert_eq!(Rational::ZERO.floor(), 0);
        assert_eq!(Rational::ZERO.ceil(), 0);
    }

    #[test]
    fn integer_checks() {
        assert!(r(4, 2).is_integer());
        assert!(!r(5, 2).is_integer());
        assert!(Rational::ZERO.is_zero());
        assert!(r(-1, 5).is_negative());
        assert!(r(1, 5).is_positive());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", r(3, 6)), "1/2");
        assert_eq!(format!("{}", r(4, 2)), "2");
        assert_eq!(format!("{}", r(-3, 6)), "-1/2");
    }

    #[test]
    fn recip() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_den_panics() {
        let _ = Rational::new(1, 0);
    }
}
