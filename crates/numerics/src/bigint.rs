//! Arbitrary-precision unsigned and signed integers.
//!
//! The termination analyses in this workspace manipulate exact rational
//! probabilities (the paper reports "rational lower-bounds to avoid rounding
//! errors", §7.1). Most values fit machine words, and
//! [`Rational`](crate::Rational) keeps those inline; the integers here carry
//! the rest: products of many branch probabilities, powers of walk matrices,
//! and the denominators of long paths, which grow to hundreds or thousands
//! of bits. This is a small, dependency-free library: [`BigUint`]
//! (magnitude) and [`BigInt`] (sign + magnitude).
//!
//! Multiplication is schoolbook over 64-bit limbs and division is bitwise
//! long division. The gcd, which every rational operation on big values
//! runs, is binary and strips whole runs of zero bits in place.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Returns the opposite sign (`Zero` stays `Zero`).
    pub fn negate(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// Multiplies two signs.
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Positive, Sign::Positive) | (Sign::Negative, Sign::Negative) => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

/// Defines a binary gcd on one machine-word width (`gcd(0, b) = b`).
macro_rules! binary_gcd {
    ($name:ident, $word:ty) => {
        pub(crate) fn $name(mut a: $word, mut b: $word) -> $word {
            if a == 0 || b == 0 {
                return a | b;
            }
            let shift = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                // Both odd from here on.
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                if a == 1 {
                    return 1 << shift;
                }
                b -= a;
                if b == 0 {
                    return a << shift;
                }
            }
        }
    };
}

binary_gcd!(gcd_u64, u64);
binary_gcd!(gcd_u128, u128);

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with no trailing zero limbs; the value
/// zero is represented by an empty limb vector.
///
/// # Examples
///
/// ```
/// use probterm_numerics::BigUint;
///
/// let a = BigUint::from(10u64).pow(30);
/// let b = BigUint::from(7u64);
/// let (q, r) = a.div_rem(&b);
/// assert_eq!(&q * &b + r, a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> BigUint {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if this value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if this value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Constructs a value from little-endian limbs, normalising trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> BigUint {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Returns `true` if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().map(|l| l % 2 == 0).unwrap_or(true)
    }

    /// Number of trailing zero bits (zero has none).
    fn trailing_zeros(&self) -> u64 {
        match self.limbs.iter().position(|&l| l != 0) {
            None => 0,
            Some(i) => i as u64 * 64 + self.limbs[i].trailing_zeros() as u64,
        }
    }

    /// Right shift by `bits`, in place.
    fn shr_assign_bits(&mut self, bits: u64) {
        let limb_shift = ((bits / 64) as usize).min(self.limbs.len());
        self.limbs.drain(..limb_shift);
        let bit_shift = bits % 64;
        if bit_shift != 0 {
            for i in 0..self.limbs.len() {
                let hi = self.limbs.get(i + 1).map_or(0, |&l| l << (64 - bit_shift));
                self.limbs[i] = (self.limbs[i] >> bit_shift) | hi;
            }
        }
        self.normalize();
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Compares two magnitudes.
    pub fn cmp_mag(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Adds `other` into `self`.
    pub fn add_assign_ref(&mut self, other: &BigUint) {
        let mut carry = 0u64;
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        for i in 0..n {
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub_assign_ref(&mut self, other: &BigUint) {
        assert!(
            self.cmp_mag(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Multiplies two magnitudes (schoolbook).
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Multiplies by a single machine word.
    pub fn mul_u64(&self, w: u64) -> BigUint {
        if w == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = (a as u128) * (w as u128) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: u64) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr_bits(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let slice = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(slice.len());
        if bit_shift == 0 {
            out.extend_from_slice(slice);
        } else {
            for i in 0..slice.len() {
                let hi = if i + 1 < slice.len() {
                    slice[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push((slice[i] >> bit_shift) | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Divides by a single machine word, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn div_rem_u64(&self, w: u64) -> (BigUint, u64) {
        assert!(w != 0, "division by zero");
        let mut rem = 0u128;
        let mut out = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / w as u128) as u64;
            rem = cur % w as u128;
        }
        (BigUint::from_limbs(out), rem as u64)
    }

    /// Divides `self` by `other`, returning `(quotient, remainder)`.
    ///
    /// Uses a bitwise long division which is simple and entirely adequate for
    /// the operand sizes that the termination analyses produce.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigUint) -> (BigUint, BigUint) {
        assert!(!other.is_zero(), "division by zero");
        if other.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(other.limbs[0]);
            return (q, BigUint::from(r));
        }
        match self.cmp_mag(other) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        let shift = self.bits() - other.bits();
        let mut remainder = self.clone();
        let mut quotient_limbs = vec![0u64; (shift / 64 + 1) as usize];
        let mut divisor = other.shl_bits(shift);
        let mut i = shift as i64;
        while i >= 0 {
            if remainder.cmp_mag(&divisor) != Ordering::Less {
                remainder.sub_assign_ref(&divisor);
                quotient_limbs[(i / 64) as usize] |= 1u64 << (i % 64);
            }
            divisor.shr_assign_bits(1);
            i -= 1;
        }
        (BigUint::from_limbs(quotient_limbs), remainder)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let (mut a, mut b) = (self.clone(), other.clone());
        // Factor out the common power of two, then keep both operands odd.
        let shift = a.trailing_zeros().min(b.trailing_zeros());
        a.shr_assign_bits(a.trailing_zeros());
        loop {
            b.shr_assign_bits(b.trailing_zeros());
            if a.cmp_mag(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b.sub_assign_ref(&a);
            if b.is_zero() {
                return a.shl_bits(shift);
            }
        }
    }

    /// Raises the value to the power `exp`.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// Best-effort conversion to `f64` (may overflow to `INFINITY`).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 18446744073709551616.0 + l as f64;
        }
        acc
    }

    /// Attempts a lossless conversion to `u64`.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Attempts a lossless conversion to `u128`.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Option<BigUint> {
        if s.is_empty() {
            return None;
        }
        let mut acc = BigUint::zero();
        for c in s.chars() {
            let d = c.to_digit(10)?;
            acc = acc.mul_u64(10);
            acc.add_assign_ref(&BigUint::from(d as u64));
        }
        Some(acc)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> BigUint {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> BigUint {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> BigUint {
        BigUint::from(v as u64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_mag(other)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut chunks: Vec<u64> = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{:019}", chunk));
            }
        }
        write!(f, "{}", s)
    }
}

impl<'a> Add<&'a BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &'a BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: BigUint) -> BigUint {
        self.add_assign_ref(&rhs);
        self
    }
}

impl AddAssign for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        self.add_assign_ref(&rhs);
    }
}

impl<'a> Sub<&'a BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &'a BigUint) -> BigUint {
        let mut out = self.clone();
        out.sub_assign_ref(rhs);
        out
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(mut self, rhs: BigUint) -> BigUint {
        self.sub_assign_ref(&rhs);
        self
    }
}

impl SubAssign for BigUint {
    fn sub_assign(&mut self, rhs: BigUint) {
        self.sub_assign_ref(&rhs);
    }
}

impl<'a> Mul<&'a BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &'a BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_ref(&rhs)
    }
}

impl MulAssign for BigUint {
    fn mul_assign(&mut self, rhs: BigUint) {
        *self = self.mul_ref(&rhs);
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).0
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).1
    }
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use probterm_numerics::BigInt;
///
/// let a = BigInt::from(-7i64);
/// let b = BigInt::from(3i64);
/// assert_eq!((&a * &b).to_string(), "-21");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl BigInt {
    /// The value `0`.
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    /// The value `1`.
    pub fn one() -> BigInt {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    /// The value `-1`.
    pub fn neg_one() -> BigInt {
        BigInt {
            sign: Sign::Negative,
            mag: BigUint::one(),
        }
    }

    /// Constructs a signed integer from a sign and magnitude.
    pub fn from_sign_mag(sign: Sign, mag: BigUint) -> BigInt {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            let sign = if sign == Sign::Zero { Sign::Positive } else { sign };
            BigInt { sign, mag }
        }
    }

    /// Returns the sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Returns the magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Consumes the value and returns its magnitude.
    pub fn into_magnitude(self) -> BigUint {
        self.mag
    }

    /// Returns `true` if zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_sign_mag(Sign::Positive, self.mag.clone())
    }

    /// Best-effort conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        match self.sign {
            Sign::Negative => -m,
            Sign::Zero => 0.0,
            Sign::Positive => m,
        }
    }

    /// Attempts a lossless conversion to `i64`.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.mag.to_u128()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(m).ok(),
            Sign::Negative => {
                if m <= i64::MAX as u128 + 1 {
                    Some((m as i128).wrapping_neg() as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Multiplies two integers.
    pub fn mul_ref(&self, other: &BigInt) -> BigInt {
        BigInt::from_sign_mag(self.sign.mul(other.sign), self.mag.mul_ref(&other.mag))
    }

    /// Adds two integers.
    pub fn add_ref(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_sign_mag(a, &self.mag + &other.mag),
            _ => match self.mag.cmp_mag(&other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_sign_mag(self.sign, &self.mag - &other.mag),
                Ordering::Less => BigInt::from_sign_mag(other.sign, &other.mag - &self.mag),
            },
        }
    }

    /// Euclidean-style division truncated toward zero, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.mag.div_rem(&other.mag);
        (
            BigInt::from_sign_mag(self.sign.mul(other.sign), q),
            BigInt::from_sign_mag(self.sign, r),
        )
    }

    /// Greatest common divisor (non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigUint {
        self.mag.gcd(&other.mag)
    }

    /// Raises to the power `exp`.
    pub fn pow(&self, exp: u32) -> BigInt {
        let mag = self.mag.pow(exp);
        let sign = if self.is_negative() && exp % 2 == 1 {
            Sign::Negative
        } else if mag.is_zero() {
            Sign::Zero
        } else {
            Sign::Positive
        };
        BigInt::from_sign_mag(sign, mag)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_sign_mag(Sign::Positive, BigUint::from(v as u64)),
            Ordering::Less => {
                BigInt::from_sign_mag(Sign::Negative, BigUint::from((v as i128).unsigned_abs() as u64))
            }
        }
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> BigInt {
        BigInt::from_sign_mag(Sign::Positive, BigUint::from(v))
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> BigInt {
        BigInt::from(v as i64)
    }
}

impl From<BigUint> for BigInt {
    fn from(v: BigUint) -> BigInt {
        BigInt::from_sign_mag(Sign::Positive, v)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Negative, Sign::Negative) => other.mag.cmp_mag(&self.mag),
            (Sign::Negative, _) => Ordering::Less,
            (Sign::Zero, Sign::Negative) => Ordering::Greater,
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Zero, Sign::Positive) => Ordering::Less,
            (Sign::Positive, Sign::Positive) => self.mag.cmp_mag(&other.mag),
            (Sign::Positive, _) => Ordering::Greater,
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-{}", self.mag)
        } else {
            write!(f, "{}", self.mag)
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt::from_sign_mag(self.sign.negate(), self.mag)
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt::from_sign_mag(self.sign.negate(), self.mag.clone())
    }
}

impl<'a> Add<&'a BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &'a BigInt) -> BigInt {
        self.add_ref(rhs)
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, rhs: BigInt) -> BigInt {
        self.add_ref(&rhs)
    }
}

impl<'a> Sub<&'a BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &'a BigInt) -> BigInt {
        self.add_ref(&(-rhs))
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, rhs: BigInt) -> BigInt {
        self.add_ref(&(-rhs))
    }
}

impl<'a> Mul<&'a BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &'a BigInt) -> BigInt {
        self.mul_ref(rhs)
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, rhs: BigInt) -> BigInt {
        self.mul_ref(&rhs)
    }
}

impl Div for BigInt {
    type Output = BigInt;
    fn div(self, rhs: BigInt) -> BigInt {
        self.div_rem(&rhs).0
    }
}

impl Rem for BigInt {
    type Output = BigInt;
    fn rem(self, rhs: BigInt) -> BigInt {
        self.div_rem(&rhs).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biguint_basic_arithmetic() {
        let a = BigUint::from(123456789012345678u64);
        let b = BigUint::from(987654321098765432u64);
        let sum = &a + &b;
        assert_eq!(sum.to_string(), "1111111110111111110");
        let prod = &a * &b;
        assert_eq!(prod.to_string(), "121932631137021794322511812221002896");
    }

    #[test]
    fn biguint_sub() {
        let a = BigUint::from(10u64).pow(25);
        let b = BigUint::from(1u64);
        let d = &a - &b;
        assert_eq!(d.to_string(), "9999999999999999999999999");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn biguint_sub_underflow_panics() {
        let a = BigUint::from(1u64);
        let b = BigUint::from(2u64);
        let _ = &a - &b;
    }

    #[test]
    fn biguint_div_rem_roundtrip() {
        let a = BigUint::from(10u64).pow(40);
        let b = BigUint::from(123456789u64).pow(2);
        let (q, r) = a.div_rem(&b);
        assert!(r.cmp_mag(&b) == Ordering::Less);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn biguint_division_by_larger_is_zero() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(7u64);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn biguint_gcd() {
        let a = BigUint::from(48u64);
        let b = BigUint::from(36u64);
        assert_eq!(a.gcd(&b).to_string(), "12");
        let a = BigUint::from(2u64).pow(40).mul_u64(9);
        let b = BigUint::from(2u64).pow(35).mul_u64(15);
        assert_eq!(a.gcd(&b), BigUint::from(2u64).pow(35).mul_u64(3));
        assert_eq!(BigUint::zero().gcd(&BigUint::from(5u64)).to_string(), "5");
    }

    #[test]
    fn biguint_shifts() {
        let a = BigUint::from(1u64);
        assert_eq!(a.shl_bits(100).bits(), 101);
        assert_eq!(a.shl_bits(100).shr_bits(100), a);
        assert!(a.shr_bits(1).is_zero());
    }

    #[test]
    fn biguint_display_and_parse() {
        let s = "123456789012345678901234567890";
        let v = BigUint::from_decimal(s).unwrap();
        assert_eq!(v.to_string(), s);
        assert_eq!(BigUint::from_decimal("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_decimal("12a").is_none());
    }

    #[test]
    fn biguint_pow() {
        assert_eq!(BigUint::from(2u64).pow(10).to_u64(), Some(1024));
        assert_eq!(BigUint::from(3u64).pow(0).to_u64(), Some(1));
        assert_eq!(
            BigUint::from(10u64).pow(21).to_string(),
            "1000000000000000000000"
        );
    }

    #[test]
    fn bigint_signs() {
        let a = BigInt::from(-5i64);
        let b = BigInt::from(3i64);
        assert_eq!((&a + &b).to_string(), "-2");
        assert_eq!((&a - &b).to_string(), "-8");
        assert_eq!((&a * &b).to_string(), "-15");
        assert_eq!((-&a).to_string(), "5");
        assert!(a < b);
        assert!(BigInt::zero() > a);
    }

    #[test]
    fn bigint_div_rem_truncates_towards_zero() {
        let a = BigInt::from(-7i64);
        let b = BigInt::from(2i64);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.to_string(), "-3");
        assert_eq!(r.to_string(), "-1");
    }

    #[test]
    fn bigint_to_i64_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(BigInt::from(v).to_i64(), Some(v));
        }
    }

    #[test]
    fn bigint_to_f64() {
        assert_eq!(BigInt::from(-3i64).to_f64(), -3.0);
        assert_eq!(BigInt::from(1u64 << 53).to_f64(), (1u64 << 53) as f64);
    }
}
