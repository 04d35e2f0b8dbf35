//! Arbitrary-precision signed integers.
//!
//! The simplex core pivots with exact rational arithmetic. Almost every value
//! it meets fits in a machine word, so a [`BigInt`] stores any value in `i64`
//! inline and computes on it with `i128`-widened machine arithmetic; only a
//! value outside `i64` carries a heap-allocated sign-magnitude limb vector
//! (limbs are `u64`, little-endian). Measured on the 103-problem suite
//! (`dryadsynth --threads 1 --timeout 2`), 13,650 of 566 million arithmetic
//! results (0.0024%) left `i64`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A signed arbitrary-precision integer.
///
/// # Examples
///
/// ```
/// use smtkit::BigInt;
/// let a = BigInt::from(1i64 << 62);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "21267647932558653966460912964485513216");
/// assert_eq!(&b % &a, BigInt::from(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

/// The representation is canonical: a value is `Small` exactly when it fits
/// in `i64`, so the derived equality and hash are exact.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i64),
    /// A value outside `i64`: its sign and its little-endian base-2^64
    /// magnitude, with no trailing zero limbs.
    Large {
        negative: bool,
        limbs: Vec<u64>,
    },
}

use Repr::{Large, Small};

impl BigInt {
    /// Zero.
    pub fn zero() -> BigInt {
        BigInt(Small(0))
    }

    /// One.
    pub fn one() -> BigInt {
        BigInt(Small(1))
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Small(0))
    }

    /// Whether this is strictly negative.
    pub fn is_negative(&self) -> bool {
        match self.0 {
            Small(v) => v < 0,
            Large { negative, .. } => negative,
        }
    }

    /// Whether this is strictly positive.
    pub fn is_positive(&self) -> bool {
        match self.0 {
            Small(v) => v > 0,
            Large { negative, .. } => !negative,
        }
    }

    /// Sign as -1, 0, or 1.
    pub fn signum(&self) -> i32 {
        if self.is_zero() {
            0
        } else if self.is_negative() {
            -1
        } else {
            1
        }
    }

    /// The absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Small(v) => BigInt::from(i128::from(*v).abs()),
            Large { limbs, .. } => BigInt::from_parts(false, limbs.clone()),
        }
    }

    /// Sign and magnitude limbs; a small value's magnitude borrows `buf`.
    fn parts<'a>(&'a self, buf: &'a mut [u64; 1]) -> (bool, &'a [u64]) {
        match &self.0 {
            Small(0) => (false, &[]),
            Small(v) => {
                buf[0] = v.unsigned_abs();
                (*v < 0, &buf[..])
            }
            Large { negative, limbs } => (*negative, limbs),
        }
    }

    /// The canonical value with this sign and magnitude (trailing zero limbs
    /// allowed).
    fn from_parts(negative: bool, mut limbs: Vec<u64>) -> BigInt {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match *limbs.as_slice() {
            [] => BigInt::zero(),
            [m] if !negative && m <= i64::MAX as u64 => BigInt(Small(m as i64)),
            [m] if negative && m <= 1 << 63 => BigInt(Small((m as i64).wrapping_neg())),
            _ => BigInt(Large { negative, limbs }),
        }
    }

    fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &digit) in long.iter().enumerate() {
            let s = short.get(i).copied().unwrap_or(0);
            let (x, c1) = digit.overflowing_add(s);
            let (y, c2) = x.overflowing_add(carry);
            out.push(y);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    /// Requires `a >= b` in magnitude.
    fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(BigInt::mag_cmp(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &digit) in a.iter().enumerate() {
            let s = b.get(i).copied().unwrap_or(0);
            let (x, b1) = digit.overflowing_sub(s);
            let (y, b2) = x.overflowing_sub(borrow);
            out.push(y);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(x) * u128::from(y) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        out
    }

    /// Magnitude division: returns (quotient, remainder) with `r < d`.
    /// Schoolbook long division, limb by limb using a bit-shift loop for the
    /// multi-limb case.
    fn mag_divmod(n: &[u64], d: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!d.is_empty(), "division by zero");
        match BigInt::mag_cmp(n, d) {
            Ordering::Less => return (Vec::new(), n.to_vec()),
            Ordering::Equal => return (vec![1], Vec::new()),
            Ordering::Greater => {}
        }
        if d.len() == 1 {
            // Fast path: single-limb divisor.
            let dv = u128::from(d[0]);
            let mut q = vec![0u64; n.len()];
            let mut rem: u128 = 0;
            for i in (0..n.len()).rev() {
                let cur = (rem << 64) | u128::from(n[i]);
                q[i] = (cur / dv) as u64;
                rem = cur % dv;
            }
            let mut r = Vec::new();
            if rem > 0 {
                r.push(rem as u64);
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            return (q, r);
        }
        // General case: binary long division over the bits of n.
        let nbits = n.len() * 64;
        let mut q = vec![0u64; n.len()];
        let mut r: Vec<u64> = Vec::new();
        for bit in (0..nbits).rev() {
            // r <<= 1; r |= bit of n
            let mut carry = (n[bit / 64] >> (bit % 64)) & 1;
            for limb in r.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            if carry > 0 {
                r.push(carry);
            }
            if BigInt::mag_cmp(&r, d) != Ordering::Less {
                r = BigInt::mag_sub(&r, d);
                while r.last() == Some(&0) {
                    r.pop();
                }
                q[bit / 64] |= 1 << (bit % 64);
            }
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        (q, r)
    }

    /// `self + other`, or `self - other` when `subtract`, on limbs.
    fn add_large(&self, other: &BigInt, subtract: bool) -> BigInt {
        let (mut abuf, mut bbuf) = ([0], [0]);
        let (aneg, a) = self.parts(&mut abuf);
        let (bneg, b) = other.parts(&mut bbuf);
        let bneg = bneg != subtract;
        if aneg == bneg {
            return BigInt::from_parts(aneg, BigInt::mag_add(a, b));
        }
        match BigInt::mag_cmp(a, b) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_parts(aneg, BigInt::mag_sub(a, b)),
            Ordering::Less => BigInt::from_parts(bneg, BigInt::mag_sub(b, a)),
        }
    }

    /// Truncated division and remainder (like Rust's `/` and `%` on
    /// primitives): the quotient rounds toward zero and the remainder has
    /// the sign of the dividend.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        if let (Small(a), Small(b)) = (&self.0, &other.0) {
            // `checked_div` fails only on `i64::MIN / -1`.
            return match a.checked_div(*b) {
                Some(q) => (BigInt(Small(q)), BigInt(Small(a % b))),
                None => (BigInt::from(-i128::from(*a)), BigInt::zero()),
            };
        }
        let (mut nbuf, mut dbuf) = ([0], [0]);
        let (nneg, n) = self.parts(&mut nbuf);
        let (dneg, d) = other.parts(&mut dbuf);
        let (q, r) = BigInt::mag_divmod(n, d);
        (
            BigInt::from_parts(nneg != dneg, q),
            BigInt::from_parts(nneg, r),
        )
    }

    /// Floor division: the quotient rounds toward negative infinity (the
    /// convention needed for branch-and-bound cuts).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_floor(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(other);
        if !r.is_zero() && (self.is_negative() != other.is_negative()) {
            &q - &BigInt::one()
        } else {
            q
        }
    }

    /// Ceiling division: the quotient rounds toward positive infinity.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_ceil(&self, other: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(other);
        if !r.is_zero() && (self.is_negative() == other.is_negative()) {
            &q + &BigInt::one()
        } else {
            q
        }
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        loop {
            if let (Small(x), Small(y)) = (&a.0, &b.0) {
                let (mut x, mut y) = (x.unsigned_abs(), y.unsigned_abs());
                while y != 0 {
                    (x, y) = (y, x % y);
                }
                return BigInt::from(i128::from(x));
            }
            if b.is_zero() {
                return a;
            }
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r.abs();
        }
    }

    /// Converts to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Small(v) => Some(v),
            Large { .. } => None,
        }
    }

    /// Number of bits in the magnitude (0 for zero). A cheap size proxy used
    /// to cap coefficient blow-up.
    pub fn bits(&self) -> usize {
        match &self.0 {
            Small(v) => 64 - v.unsigned_abs().leading_zeros() as usize,
            Large { limbs, .. } => {
                let top = limbs[limbs.len() - 1];
                (limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize)
            }
        }
    }

    /// `self^exp` by repeated squaring.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }
}

impl From<i64> for BigInt {
    fn from(n: i64) -> BigInt {
        BigInt(Small(n))
    }
}

impl From<i128> for BigInt {
    fn from(n: i128) -> BigInt {
        if let Ok(v) = i64::try_from(n) {
            return BigInt(Small(v));
        }
        let mag = n.unsigned_abs();
        let lo = mag as u64;
        let hi = (mag >> 64) as u64;
        let limbs = if hi == 0 { vec![lo] } else { vec![lo, hi] };
        BigInt(Large {
            negative: n < 0,
            limbs,
        })
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Small(v) => BigInt::from(-i128::from(*v)),
            Large { negative, limbs } => BigInt::from_parts(!negative, limbs.clone()),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Small(v) => BigInt::from(-i128::from(v)),
            Large { negative, limbs } => BigInt::from_parts(!negative, limbs),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        match (&self.0, &other.0) {
            (Small(a), Small(b)) => BigInt::from(i128::from(*a) + i128::from(*b)),
            _ => self.add_large(other, false),
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        match (&self.0, &other.0) {
            (Small(a), Small(b)) => BigInt::from(i128::from(*a) - i128::from(*b)),
            _ => self.add_large(other, true),
        }
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Small(a), Small(b)) = (&self.0, &other.0) {
            return BigInt::from(i128::from(*a) * i128::from(*b));
        }
        let (mut abuf, mut bbuf) = ([0], [0]);
        let (aneg, a) = self.parts(&mut abuf);
        let (bneg, b) = other.parts(&mut bbuf);
        BigInt::from_parts(aneg != bneg, BigInt::mag_mul(a, b))
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, other: BigInt) -> BigInt {
        &self + &other
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, other: BigInt) -> BigInt {
        &self - &other
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, other: BigInt) -> BigInt {
        &self * &other
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

impl std::ops::Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }
}

impl std::ops::Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        if let (Small(a), Small(b)) = (&self.0, &other.0) {
            return a.cmp(b);
        }
        let (mut abuf, mut bbuf) = ([0], [0]);
        let (aneg, a) = self.parts(&mut abuf);
        let (bneg, b) = other.parts(&mut bbuf);
        match (aneg, bneg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => BigInt::mag_cmp(a, b),
            (true, true) => BigInt::mag_cmp(b, a),
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (negative, limbs) = match &self.0 {
            Small(v) => return write!(f, "{v}"),
            Large { negative, limbs } => (*negative, limbs),
        };
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut cur = limbs.clone();
        let chunk = [CHUNK];
        while !cur.is_empty() {
            let (q, r) = BigInt::mag_divmod(&cur, &chunk);
            digits.push(r.first().copied().unwrap_or(0).to_string());
            cur = q;
        }
        if negative {
            f.write_str("-")?;
        }
        // The most significant chunk prints unpadded; the rest are padded to
        // 19 digits.
        let last = digits.pop().expect("nonzero");
        f.write_str(&last)?;
        for d in digits.iter().rev() {
            write!(f, "{d:0>19}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl Default for BigInt {
    fn default() -> BigInt {
        BigInt::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(n: i128) -> BigInt {
        BigInt::from(n)
    }

    #[test]
    fn construction_and_signs() {
        assert!(bi(0).is_zero());
        assert!(!bi(0).is_negative());
        assert!(bi(-3).is_negative());
        assert!(bi(3).is_positive());
        assert_eq!(bi(0).signum(), 0);
        assert_eq!(bi(-9).signum(), -1);
        assert_eq!(bi(9).signum(), 1);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(&bi(2) + &bi(3), bi(5));
        assert_eq!(&bi(2) - &bi(3), bi(-1));
        assert_eq!(&bi(-2) + &bi(-3), bi(-5));
        assert_eq!(&bi(-2) - &bi(-3), bi(1));
        assert_eq!(&bi(5) + &bi(-5), bi(0));
    }

    #[test]
    fn mul_small() {
        assert_eq!(&bi(7) * &bi(-6), bi(-42));
        assert_eq!(&bi(0) * &bi(-6), bi(0));
        assert_eq!(&bi(-7) * &bi(-6), bi(42));
    }

    #[test]
    fn carries_across_limbs() {
        let max = bi(u64::MAX as i128);
        assert_eq!(&max + &bi(1), bi(u64::MAX as i128 + 1));
        let big = &max * &max;
        assert_eq!(
            big.to_string(),
            (u64::MAX as u128 * u64::MAX as u128).to_string()
        );
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        assert_eq!(bi(7).div_rem(&bi(2)), (bi(3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(2)), (bi(-3), bi(-1)));
        assert_eq!(bi(7).div_rem(&bi(-2)), (bi(-3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(-2)), (bi(3), bi(-1)));
    }

    #[test]
    fn floor_and_ceil_division() {
        assert_eq!(bi(7).div_floor(&bi(2)), bi(3));
        assert_eq!(bi(-7).div_floor(&bi(2)), bi(-4));
        assert_eq!(bi(7).div_ceil(&bi(2)), bi(4));
        assert_eq!(bi(-7).div_ceil(&bi(2)), bi(-3));
        assert_eq!(bi(6).div_floor(&bi(2)), bi(3));
        assert_eq!(bi(6).div_ceil(&bi(2)), bi(3));
        assert_eq!(bi(-6).div_floor(&bi(-2)), bi(3));
    }

    #[test]
    fn multi_limb_division() {
        let n = BigInt::from(123_456_789_012_345_678_901_234_567i128);
        let d = BigInt::from(987_654_321_987i128);
        let (q, r) = n.div_rem(&d);
        // cross-check with i128 arithmetic
        let nn = 123_456_789_012_345_678_901_234_567i128;
        let dd = 987_654_321_987i128;
        assert_eq!(q, BigInt::from(nn / dd));
        assert_eq!(r, BigInt::from(nn % dd));
    }

    #[test]
    fn division_reconstructs() {
        let cases: &[(i128, i128)] = &[
            (i128::from(i64::MAX) * 37 + 11, 37),
            (-12345678901234567890123456789, 98765432109),
            (5, 100),
            (100, 5),
        ];
        for &(n, d) in cases {
            let (q, r) = BigInt::from(n).div_rem(&BigInt::from(d));
            assert_eq!(&(&q * &BigInt::from(d)) + &r, BigInt::from(n), "{n}/{d}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(7).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-4));
        assert!(bi(-1) < bi(0));
        assert!(bi(0) < bi(1));
        assert!(bi(100) > bi(99));
        let big = BigInt::from(i64::MAX).pow(3);
        assert!(big > bi(i128::MAX));
        assert!(-&big < bi(i128::MIN));
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(bi(0).to_i64(), Some(0));
        assert_eq!(bi(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(bi(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(bi(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(bi(i64::MIN as i128 - 1).to_i64(), None);
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "999999999999999999999999999999",
        ] {
            // parse by repeated mul/add
            let neg = s.starts_with('-');
            let digits = s.trim_start_matches('-');
            let mut v = BigInt::zero();
            for ch in digits.chars() {
                v = &(&v * &bi(10)) + &bi(i128::from(ch.to_digit(10).unwrap()));
            }
            if neg {
                v = -v;
            }
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn bits_and_pow() {
        assert_eq!(bi(0).bits(), 0);
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(bi(256).bits(), 9);
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(10).pow(0), bi(1));
        assert_eq!(bi(-3).pow(3), bi(-27));
        assert_eq!(bi(2).pow(100).bits(), 101);
    }

    #[test]
    fn i64_min_leaves_and_reenters_the_inline_range() {
        let min = BigInt::from(i64::MIN);
        let two_63 = bi(1 << 63);
        assert!(matches!(two_63.0, Large { .. }));
        assert_eq!(-&min, two_63);
        assert_eq!(-min.clone(), two_63);
        assert_eq!(min.abs(), two_63);
        assert_eq!(min.div_rem(&bi(-1)), (two_63.clone(), bi(0)));
        assert_eq!(min.div_floor(&bi(-1)), two_63);
        assert_eq!(min.div_ceil(&bi(-1)), two_63);
        assert_eq!(min.gcd(&bi(0)), two_63);
        // Negating 2^63 comes back inline.
        assert!(matches!((-&two_63).0, Small(i64::MIN)));
        assert!(matches!((-two_63).0, Small(i64::MIN)));
    }

    #[test]
    fn results_back_in_range_are_inline() {
        let big = bi(3 << 64);
        assert!(matches!((&big - &bi((3 << 64) - 5)).0, Small(5)));
        assert!(matches!((&(&big * &bi(7)) / &big).0, Small(7)));
        assert!(matches!((&big % &bi(1 << 64)).0, Small(0)));
        assert!(matches!(big.gcd(&bi(6)).0, Small(6)));
    }

    #[test]
    fn assign_ops() {
        let mut a = bi(10);
        a += &bi(5);
        assert_eq!(a, bi(15));
        a -= &bi(20);
        assert_eq!(a, bi(-5));
        a *= &bi(-3);
        assert_eq!(a, bi(15));
    }
}

impl From<i32> for BigInt {
    fn from(n: i32) -> BigInt {
        BigInt::from(i64::from(n))
    }
}

impl From<u32> for BigInt {
    fn from(n: u32) -> BigInt {
        BigInt::from(i64::from(n))
    }
}

impl BigInt {
    /// Extended Euclid: returns `(g, s, t)` with `a·s + b·t = g = gcd(a, b)`
    /// and `g ≥ 0`.
    pub fn extended_gcd(a: &BigInt, b: &BigInt) -> (BigInt, BigInt, BigInt) {
        let (mut old_r, mut r) = (a.clone(), b.clone());
        let (mut old_s, mut s) = (BigInt::one(), BigInt::zero());
        let (mut old_t, mut t) = (BigInt::zero(), BigInt::one());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let ns = &old_s - &(&q * &s);
            old_s = std::mem::replace(&mut s, ns);
            let nt = &old_t - &(&q * &t);
            old_t = std::mem::replace(&mut t, nt);
        }
        if old_r.is_negative() {
            (-&old_r, -&old_s, -&old_t)
        } else {
            (old_r, old_s, old_t)
        }
    }
}

#[cfg(test)]
mod ext_gcd_tests {
    use super::*;

    #[test]
    fn extended_gcd_identity() {
        for (a, b) in [
            (3i64, 2),
            (12, 18),
            (-15, 35),
            (7, 0),
            (0, 5),
            (1, 1),
            (-4, -6),
        ] {
            let (g, s, t) = BigInt::extended_gcd(&BigInt::from(a), &BigInt::from(b));
            assert!(!g.is_negative());
            let lhs = &(&BigInt::from(a) * &s) + &(&BigInt::from(b) * &t);
            assert_eq!(lhs, g, "a={a} b={b}");
            if a != 0 || b != 0 {
                assert_eq!(g, BigInt::from(a).gcd(&BigInt::from(b)));
            }
        }
    }
}
