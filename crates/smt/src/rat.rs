//! Exact rational arithmetic over [`BigInt`], used by the simplex core.

use crate::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number, always normalized (`den > 0`, `gcd(num, den) = 1`,
/// zero is `0/1`).
///
/// # Examples
///
/// ```
/// use smtkit::Rat;
/// let half = Rat::new(1.into(), 2.into());
/// let third = Rat::new(1.into(), 3.into());
/// assert_eq!((&half + &third).to_string(), "5/6");
/// assert!(half > third);
/// assert_eq!(half.floor(), 0.into());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: BigInt,
    den: BigInt, // invariant: positive
}

impl Rat {
    /// Creates the rational `num/den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Rat {
        assert!(!den.is_zero(), "rational with zero denominator");
        if den == BigInt::one() {
            return Rat { num, den };
        }
        if num.is_zero() {
            return Rat {
                num: BigInt::zero(),
                den: BigInt::one(),
            };
        }
        let g = num.gcd(&den);
        let (mut num, mut den) = if g == BigInt::one() {
            (num, den)
        } else {
            (&num / &g, &den / &g)
        };
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Zero.
    pub fn zero() -> Rat {
        Rat {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// One.
    pub fn one() -> Rat {
        Rat {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// The numerator (sign-carrying).
    pub fn num(&self) -> &BigInt {
        &self.num
    }

    /// The denominator (always positive).
    pub fn den(&self) -> &BigInt {
        &self.den
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Whether the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Largest integer `≤ self`.
    pub fn floor(&self) -> BigInt {
        self.num.div_floor(&self.den)
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(&self) -> BigInt {
        self.num.div_ceil(&self.den)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rat::new(self.den.clone(), self.num.clone())
    }

    /// Sign as -1, 0, or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }
}

impl From<BigInt> for Rat {
    fn from(n: BigInt) -> Rat {
        Rat {
            num: n,
            den: BigInt::one(),
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from(BigInt::from(n))
    }
}

impl Rat {
    /// `self + other`, or `self - other` when `subtract`.
    fn add_signed(&self, other: &Rat, subtract: bool) -> Rat {
        let sum = |a: &BigInt, b: &BigInt| if subtract { a - b } else { a + b };
        // With an integer operand `c`, `a/d ± c` and `c ± a/d` need no
        // normalization: `gcd(a ± c·d, d) = gcd(a, d) = 1`.
        if other.is_integer() {
            Rat {
                num: sum(&self.num, &(&other.num * &self.den)),
                den: self.den.clone(),
            }
        } else if self.is_integer() {
            Rat {
                num: sum(&(&self.num * &other.den), &other.num),
                den: other.den.clone(),
            }
        } else {
            Rat::new(
                sum(&(&self.num * &other.den), &(&other.num * &self.den)),
                &self.den * &other.den,
            )
        }
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, other: &Rat) -> Rat {
        self.add_signed(other, false)
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, other: &Rat) -> Rat {
        self.add_signed(other, true)
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, other: &Rat) -> Rat {
        Rat::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "rational division by zero");
        Rat::new(&self.num * &other.den, &self.den * &other.num)
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        -&self
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, other: Rat) -> Rat {
        &self + &other
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, other: Rat) -> Rat {
        &self - &other
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, other: Rat) -> Rat {
        &self * &other
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, other: Rat) -> Rat {
        &self / &other
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d with b,d > 0: compare a*d vs c*b.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({self})")
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 7), Rat::zero());
        assert!(r(1, -2).is_negative());
        assert!(r(-1, -2).is_positive());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(2, 3) / &r(4, 3), r(1, 2));
        assert_eq!(-&r(1, 2), r(-1, 2));
    }

    #[test]
    fn comparison() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rat::one());
        assert!(r(-5, 2) < r(5, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), 3.into());
        assert_eq!(r(7, 2).ceil(), 4.into());
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(r(6, 2).floor(), 3.into());
        assert_eq!(r(6, 2).ceil(), 3.into());
        assert!(r(6, 2).is_integer());
        assert!(!r(7, 2).is_integer());
    }

    #[test]
    fn recip_and_signum() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
        assert_eq!(r(0, 1).signum(), 0);
        assert_eq!(r(-3, 5).signum(), -1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1.into(), 0.into());
    }

    #[test]
    fn display() {
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn field_laws_spot_check() {
        let vals = [r(1, 2), r(-2, 3), r(5, 1), r(0, 1), r(-7, 4)];
        for a in &vals {
            for b in &vals {
                assert_eq!(&(a + b), &(b + a), "commutativity");
                assert_eq!(&(a - b), &-&(b - a), "antisymmetry");
                for c in &vals {
                    assert_eq!((a + b) + c.clone(), a.clone() + (b + c).clone());
                    assert_eq!(
                        a * &(b + c),
                        (a * b) + (a * c),
                        "distributivity {a} {b} {c}"
                    );
                }
            }
        }
    }
}
