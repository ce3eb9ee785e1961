//! Exact rational arithmetic.
//!
//! [`Rational`] values are the numeric backbone of every analysis in this
//! workspace: branch probabilities, interval endpoints, weights of interval
//! traces, polytope volumes and expected-step counts are all exact rationals,
//! exactly as the paper's prototype does in §7.1 ("Our tool computes rational
//! lower-bounds to avoid rounding errors").
//!
//! Almost all of those values are small: dyadic box endpoints, branch
//! probabilities such as `7/10`, volumes of short paths. A [`Rational`]
//! is therefore two machine words: a value that fits them is kept inline
//! and does its arithmetic in `i128`/`u128`, with no heap allocation; only
//! values that outgrow the words (long products of branch probabilities,
//! powers of walk matrices) live in a boxed [`BigInt`]/[`BigUint`] pair.
//! Every symbolic value, interval endpoint and path weight the engines move
//! around embeds rationals, so the two-word size is what keeps those small.

use crate::bigint::{gcd_u128, gcd_u64, BigInt, BigUint, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0` and `gcd(|num|, den) = 1`.
///
/// A value has one of two representations:
///
/// * *small*: an inline `i64` numerator and nonzero `u64` denominator;
/// * *big*: a boxed [`BigInt`] numerator and [`BigUint`] denominator.
///
/// A zero denominator never occurs, so the big variant's box pointer sits
/// in the denominator's niche and a `Rational` is two words (16 bytes).
///
/// The choice is canonical. A value is small exactly when its reduced
/// numerator lies in `-(2⁶³ - 1) ..= 2⁶³ - 1` and its denominator fits a
/// `u64`. (Leaving out `i64::MIN` keeps the range symmetric, so negation and
/// [`abs`](Rational::abs) never change the representation.) Every value thus
/// has exactly one representation, and the derived `PartialEq`, `Eq` and
/// `Hash` are value equality.
///
/// Arithmetic on two small values runs in `i128`/`u128`. A product of an
/// `i64` and a `u64` always fits an `i128`; only the sum of two such cross
/// products can overflow. That case, and any big operand, takes the
/// big-integer path. Every result is demoted to the small form when it fits.
///
/// # Examples
///
/// ```
/// use probterm_numerics::Rational;
///
/// let third = Rational::from_ratio(1, 3);
/// let sum = &third + &third + &third;
/// assert_eq!(sum, Rational::one());
/// assert_eq!(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
///
/// // A big intermediate that reduces to a small value is small again.
/// let big = Rational::from_ratio(1, 3) * Rational::from_int(2).pow(70);
/// assert_eq!(&big * &big.recip(), Rational::one());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small { num: i64, den: NonZeroU64 },
    Big(Box<BigParts>),
}

/// The parts of a value that does not fit two words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BigParts {
    num: BigInt,
    den: BigUint,
}

use Repr::{Big, Small};

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

fn sign_of(negative: bool) -> Sign {
    if negative {
        Sign::Negative
    } else {
        Sign::Positive
    }
}

/// `a/b + c/d` for small operands, or `None` if the numerator overflows `i128`.
fn add_small(a: i64, b: u64, c: i64, d: u64) -> Option<Rational> {
    if b == d {
        let num = a as i128 + c as i128;
        return Some(Rational::reduce(num < 0, num.unsigned_abs(), b as u128));
    }
    // |a|·d and |c|·b are each below 2¹²⁷; only their sum can overflow.
    let num = (a as i128 * d as i128).checked_add(c as i128 * b as i128)?;
    // A product of two u64 values always fits a u128.
    Some(Rational::reduce(
        num < 0,
        num.unsigned_abs(),
        b as u128 * d as u128,
    ))
}

/// `±(a/b)·(c/d)` for coprime pairs `(a, b)` and `(c, d)`. Cancelling the
/// cross gcds first leaves a reduced product, which always fits `u128`.
fn mul_small(negative: bool, a: u64, b: u64, c: u64, d: u64) -> Rational {
    if a == 0 || c == 0 {
        return Rational::zero();
    }
    let g1 = gcd_u64(a, d);
    let g2 = gcd_u64(c, b);
    Rational::from_coprime(
        negative,
        (a / g1) as u128 * (c / g2) as u128,
        (b / g2) as u128 * (d / g1) as u128,
    )
}

/// `num / den` as an `f64`, scaling both down first when they are huge.
fn big_ratio_to_f64(num: &BigInt, den: &BigUint) -> f64 {
    let nb = num.magnitude().bits() as i64;
    let db = den.bits() as i64;
    if nb < 900 && db < 900 {
        return num.to_f64() / den.to_f64();
    }
    let shift = (nb.max(db) - 512).max(0) as u64;
    let v = num.magnitude().shr_bits(shift).to_f64() / den.shr_bits(shift).to_f64();
    if num.is_negative() {
        -v
    } else {
        v
    }
}

impl Rational {
    const fn small(num: i64, den: u64) -> Rational {
        Rational(Small { num, den: NonZeroU64::new(den).expect("positive denominator") })
    }

    fn big(num: BigInt, den: BigUint) -> Rational {
        Rational(Big(Box::new(BigParts { num, den })))
    }

    /// The canonical value `±mag / den`, given `den > 0` and `gcd(mag, den) = 1`.
    fn from_coprime(negative: bool, mag: u128, den: u128) -> Rational {
        if mag <= i64::MAX as u128 && den <= u64::MAX as u128 {
            let num = mag as i64;
            Rational::small(if negative { -num } else { num }, den as u64)
        } else {
            Rational::big(
                BigInt::from_sign_mag(sign_of(negative), BigUint::from(mag)),
                BigUint::from(den),
            )
        }
    }

    /// The canonical value `num / den`, given `den > 0` and `gcd(|num|, den) = 1`.
    fn from_big_coprime(num: BigInt, den: BigUint) -> Rational {
        match (num.to_i64(), den.to_u64()) {
            (Some(n), Some(d)) if n != i64::MIN => Rational::small(n, d),
            _ => Rational::big(num, den),
        }
    }

    /// The canonical value `±mag / den` for `den > 0`, reduced by the gcd.
    fn reduce(negative: bool, mag: u128, den: u128) -> Rational {
        // Most operands fit one word, where gcd and division are cheaper.
        if (mag | den) >> 64 == 0 {
            let (mag, den) = (mag as u64, den as u64);
            let g = gcd_u64(mag, den);
            return Rational::from_coprime(negative, (mag / g) as u128, (den / g) as u128);
        }
        let g = gcd_u128(mag, den);
        Rational::from_coprime(negative, mag / g, den / g)
    }

    /// The value as a big numerator and denominator.
    fn to_big(&self) -> (BigInt, BigUint) {
        match &self.0 {
            Small { num, den } => (BigInt::from(*num), BigUint::from(den.get())),
            Big(big) => (big.num.clone(), big.den.clone()),
        }
    }

    /// The value `0`.
    pub fn zero() -> Rational {
        Rational::small(0, 1)
    }

    /// The value `1`.
    pub fn one() -> Rational {
        Rational::small(1, 1)
    }

    /// The value `1/2`.
    pub fn half() -> Rational {
        Rational::small(1, 2)
    }

    /// Constructs `num / den` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: i64) -> Rational {
        assert!(den != 0, "zero denominator");
        let negative = (num < 0) != (den < 0);
        Rational::reduce(
            negative,
            num.unsigned_abs() as u128,
            den.unsigned_abs() as u128,
        )
    }

    /// Constructs `num / den` from big integers, normalising signs and the gcd.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigint_ratio(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "zero denominator");
        let negative = num.is_negative() != den.is_negative();
        if let (Some(n), Some(d)) = (num.magnitude().to_u128(), den.magnitude().to_u128()) {
            return Rational::reduce(negative, n, d);
        }
        let (num, den) = (num.into_magnitude(), den.into_magnitude());
        let g = num.gcd(&den);
        Rational::from_big_coprime(
            BigInt::from_sign_mag(sign_of(negative), num.div_rem(&g).0),
            den.div_rem(&g).0,
        )
    }

    /// Constructs an integer-valued rational.
    pub fn from_int(v: i64) -> Rational {
        if v == i64::MIN {
            return Rational::from_bigint(BigInt::from(v));
        }
        Rational::small(v, 1)
    }

    /// Constructs a rational from a big integer.
    pub fn from_bigint(v: BigInt) -> Rational {
        Rational::from_big_coprime(v, BigUint::one())
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Small { num: 0, .. })
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Small { num: 1, den } if den.get() == 1)
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.0 {
            Small { den, .. } => den.get() == 1,
            Big(big) => big.den.is_one(),
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.0 {
            Small { num, .. } => match num.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Big(big) => big.num.sign(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        match &self.0 {
            Small { num, den } => Rational(Small { num: num.abs(), den: *den }),
            Big(big) => Rational::big(big.num.abs(), big.den.clone()),
        }
    }

    /// Additive inverse.
    pub fn negated(&self) -> Rational {
        match &self.0 {
            Small { num, den } => Rational(Small { num: -num, den: *den }),
            Big(big) => Rational::big(-&big.num, big.den.clone()),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Small { num, den } => {
                Rational::from_coprime(*num < 0, den.get() as u128, num.unsigned_abs() as u128)
            }
            Big(big) => Rational::from_big_coprime(
                BigInt::from_sign_mag(big.num.sign(), big.den.clone()),
                big.num.magnitude().clone(),
            ),
        }
    }

    /// Adds two rationals.
    pub fn add_ref(&self, other: &Rational) -> Rational {
        if let (Small { num: a, den: b }, Small { num: c, den: d }) = (&self.0, &other.0) {
            if let Some(sum) = add_small(*a, b.get(), *c, d.get()) {
                return sum;
            }
        }
        // a/b + c/d = (a d + c b) / (b d)
        let ((a, b), (c, d)) = (self.to_big(), other.to_big());
        let num = &(&a * &BigInt::from(d.clone())) + &(&c * &BigInt::from(b.clone()));
        Rational::from_bigint_ratio(num, BigInt::from(b.mul_ref(&d)))
    }

    /// Subtracts `other` from `self`.
    pub fn sub_ref(&self, other: &Rational) -> Rational {
        self.add_ref(&other.negated())
    }

    /// Multiplies two rationals.
    pub fn mul_ref(&self, other: &Rational) -> Rational {
        if let (Small { num: a, den: b }, Small { num: c, den: d }) = (&self.0, &other.0) {
            let negative = (*a < 0) != (*c < 0);
            return mul_small(negative, a.unsigned_abs(), b.get(), c.unsigned_abs(), d.get());
        }
        let ((a, b), (c, d)) = (self.to_big(), other.to_big());
        Rational::from_bigint_ratio(&a * &c, BigInt::from(b.mul_ref(&d)))
    }

    /// Divides `self` by `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_ref(&self, other: &Rational) -> Rational {
        self.mul_ref(&other.recip())
    }

    /// Raises to an integer power (negative exponents allowed for nonzero values).
    ///
    /// # Panics
    ///
    /// Panics when raising zero to a negative power.
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let positive = self.pow_u32(exp.unsigned_abs());
        if exp > 0 {
            positive
        } else {
            positive.recip()
        }
    }

    fn pow_u32(&self, exp: u32) -> Rational {
        if let Small { num, den } = self.0 {
            let powers = (num.unsigned_abs().checked_pow(exp), den.get().checked_pow(exp));
            if let (Some(mag), Some(den)) = powers {
                let negative = num < 0 && exp % 2 == 1;
                return Rational::from_coprime(negative, mag as u128, den as u128);
            }
        }
        let (num, den) = self.to_big();
        Rational::from_big_coprime(num.pow(exp), den.pow(exp))
    }

    /// The minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Floor as a big integer.
    pub fn floor(&self) -> BigInt {
        match &self.0 {
            Small { num, den } => {
                BigInt::from((*num as i128).div_euclid(den.get() as i128) as i64)
            }
            Big(big) => {
                let num = &big.num;
                let (q, r) = num.div_rem(&BigInt::from(big.den.clone()));
                if num.is_negative() && !r.is_zero() {
                    q - BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Ceiling as a big integer.
    pub fn ceil(&self) -> BigInt {
        -((&-self).floor())
    }

    /// Best-effort conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            // Each part rounds to nearest, as the limb fold of a one-limb
            // big value does, so both representations convert identically.
            Small { num, den } => *num as f64 / den.get() as f64,
            Big(big) => big_ratio_to_f64(&big.num, &big.den),
        }
    }

    /// The largest `f64` at most the value (`−∞` below `−f64::MAX`): exact
    /// for a float, one ulp below the value otherwise.
    pub fn to_f64_down(&self) -> f64 {
        self.f64_bounds()[0]
    }

    /// The smallest `f64` at least the value (`+∞` above `f64::MAX`): exact
    /// for a float, one ulp above the value otherwise.
    pub fn to_f64_up(&self) -> f64 {
        self.f64_bounds()[1]
    }

    /// `[to_f64_down, to_f64_up]`.
    fn f64_bounds(&self) -> [f64; 2] {
        self.small_f64_bounds().unwrap_or_else(|| self.f64_bounds_by_division())
    }

    /// `[to_f64_down, to_f64_up]` of a value stored small; `None` for a value
    /// stored big. Only a value whose numerator is not a float and whose
    /// denominator is not a power of two needs the heap.
    pub(crate) fn small_f64_bounds(&self) -> Option<[f64; 2]> {
        let Small { num, den } = self.0 else { return None };
        let den = den.get();
        let (n, d) = (num as f64, den as f64);
        let q = n / d;
        if n as i128 == num as i128 && d as u128 == den as u128 {
            // A correctly rounded quotient leaves a remainder `n − q·d` that
            // is a float (q ≥ 2⁻⁶⁴ cannot underflow), so `mul_add` computes
            // it exactly and its sign says which way `q` was rounded.
            return crate::brackets::round_out(q, (-q).mul_add(d, n));
        }
        if den.is_power_of_two() {
            // Dividing by a power of two is exact: only `n` was rounded.
            return Some(match (n as i128).cmp(&(num as i128)) {
                Ordering::Greater => [q.next_down(), q],
                _ => [q, q.next_up()],
            });
        }
        Some(self.f64_bounds_by_division())
    }

    /// `[to_f64_down, to_f64_up]` from one integer division: the value's
    /// magnitude is `m·2ᵉ` plus a remainder, with `m < 2⁵³` as wide as the
    /// float format allows at that scale, so `m·2ᵉ` is the float just below.
    #[cold]
    fn f64_bounds_by_division(&self) -> [f64; 2] {
        if self.is_zero() {
            return [0.0, 0.0];
        }
        let (num, den) = self.to_big();
        let mag = num.magnitude();
        // 2^(bits(mag) − bits(den) − 1) < mag/den < 2^(bits(mag) − bits(den) + 1),
        // so this `e` leaves 53 or 54 bits in the quotient; below the float
        // range `e` stops at the subnormal step 2⁻¹⁰⁷⁴.
        let mut e = (mag.bits() as i64 - den.bits() as i64 - 53).max(-1074);
        let (m, exact) = loop {
            let (q, r) = if e >= 0 {
                mag.div_rem(&den.shl_bits(e as u64))
            } else {
                mag.shl_bits(e.unsigned_abs()).div_rem(&den)
            };
            if q.bits() <= 53 {
                break (q.to_u64().expect("a 53-bit quotient"), r.is_zero());
            }
            e += 1;
        };
        // m·2ᵉ is a float (m < 2⁵³; m ≥ 2⁵² unless e = −1074), or overflows.
        let down = if e > 1023 {
            f64::INFINITY
        } else {
            let scale = if e >= -1022 {
                f64::from_bits(((e + 1023) as u64) << 52)
            } else {
                f64::from_bits(1u64 << (e + 1074))
            };
            m as f64 * scale
        };
        let [down, up] = if down.is_infinite() {
            [f64::MAX, f64::INFINITY]
        } else if exact {
            [down, down]
        } else {
            [down, down.next_up()]
        };
        if num.is_negative() {
            [-up, -down]
        } else {
            [down, up]
        }
    }

    /// [`from_f64_exact`](Rational::from_f64_exact) for a float that may not
    /// be finite: `None` for ±inf and NaN.
    #[must_use]
    pub fn from_f64_finite(v: f64) -> Option<Rational> {
        v.is_finite().then(|| Rational::from_f64_exact(v))
    }

    /// Converts a finite `f64` into the exactly-represented rational.
    ///
    /// # Panics
    ///
    /// Panics if the input is not finite.
    pub fn from_f64_exact(v: f64) -> Rational {
        assert!(v.is_finite(), "cannot convert non-finite float to rational");
        if v == 0.0 {
            return Rational::zero();
        }
        let bits = v.to_bits();
        let negative = (bits >> 63) == 1;
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = bits & ((1u64 << 52) - 1);
        let (mantissa, exponent) = if exponent == 0 {
            (mantissa, -1074i64)
        } else {
            (mantissa | (1u64 << 52), exponent - 1075)
        };
        // Box endpoints and most other floats are small dyadics.
        if (-64..=10).contains(&exponent) {
            return if exponent >= 0 {
                Rational::from_coprime(negative, (mantissa as u128) << exponent, 1)
            } else {
                Rational::reduce(negative, mantissa as u128, 1u128 << -exponent)
            };
        }
        let num = BigInt::from_sign_mag(sign_of(negative), BigUint::from(mantissa));
        if exponent >= 0 {
            Rational::from_bigint_ratio(
                BigInt::from_sign_mag(num.sign(), num.magnitude().shl_bits(exponent as u64)),
                BigInt::one(),
            )
        } else {
            Rational::from_bigint_ratio(
                num,
                BigInt::from(BigUint::one().shl_bits((-exponent) as u64)),
            )
        }
    }

    /// Parses a decimal literal such as `"0.25"`, `"-3"`, `"7/9"`.
    pub fn parse(s: &str) -> Option<Rational> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num = Rational::parse_decimal(n)?;
            let den = Rational::parse_decimal(d)?;
            if den.is_zero() {
                return None;
            }
            return Some(num.div_ref(&den));
        }
        Rational::parse_decimal(s)
    }

    fn parse_decimal(s: &str) -> Option<Rational> {
        let s = s.trim();
        let (neg, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if rest.is_empty() {
            return None;
        }
        let (int_part, frac_part) = match rest.split_once('.') {
            Some((i, f)) => (i, f),
            None => (rest, ""),
        };
        let int_part = if int_part.is_empty() { "0" } else { int_part };
        let int_val = BigUint::from_decimal(int_part)?;
        let mut num = BigInt::from(int_val);
        let mut den = BigUint::one();
        if !frac_part.is_empty() {
            let frac_val = BigUint::from_decimal(frac_part)?;
            den = BigUint::from(10u64).pow(frac_part.len() as u32);
            num = BigInt::from(num.into_magnitude().mul_ref(&den)) + BigInt::from(frac_val);
        }
        let r = Rational::from_bigint_ratio(num, BigInt::from(den));
        Some(if neg { r.negated() } else { r })
    }

    /// Renders the value in decimal with `digits` fractional digits,
    /// truncated toward zero (matching how the paper prints lower bounds).
    pub fn to_decimal_string(&self, digits: usize) -> String {
        let (num, den) = self.to_big();
        let scale = BigUint::from(10u64).pow(digits as u32);
        let scaled = (&num.abs() * &BigInt::from(scale)).div_rem(&BigInt::from(den)).0;
        let scaled_str = scaled.to_string();
        let scaled_str = if scaled_str.len() <= digits {
            format!("{}{}", "0".repeat(digits + 1 - scaled_str.len()), scaled_str)
        } else {
            scaled_str
        };
        let (ip, fp) = scaled_str.split_at(scaled_str.len() - digits);
        let sign = if self.is_negative() { "-" } else { "" };
        if digits == 0 {
            format!("{}{}", sign, ip)
        } else {
            format!("{}{}.{}", sign, ip, fp)
        }
    }

    /// Returns `true` if the value lies in the closed unit interval.
    pub fn in_unit_interval(&self) -> bool {
        !self.is_negative() && *self <= Rational::one()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational::from_int(v)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Rational {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        Rational::from_bigint(v)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a d ? c b   (b, d > 0)
        if let (Small { num: a, den: b }, Small { num: c, den: d }) = (&self.0, &other.0) {
            if b == d {
                return a.cmp(c);
            }
            // |a|·d < 2¹²⁷, so neither cross product overflows.
            return (*a as i128 * d.get() as i128).cmp(&(*c as i128 * b.get() as i128));
        }
        let ((a, b), (c, d)) = (self.to_big(), other.to_big());
        (&a * &BigInt::from(d)).cmp(&(&c * &BigInt::from(b)))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Small { num, den } if den.get() == 1 => write!(f, "{}", num),
            Small { num, den } => write!(f, "{}/{}", num, den),
            Big(big) if big.den.is_one() => write!(f, "{}", big.num),
            Big(big) => write!(f, "{}/{}", big.num, big.den),
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$impl_method(&rhs)
            }
        }
        impl<'a> $trait<&'a Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &'a Rational) -> Rational {
                self.$impl_method(rhs)
            }
        }
        impl<'a> $trait<&'a Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &'a Rational) -> Rational {
                self.$impl_method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$impl_method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add_ref);
impl_binop!(Sub, sub, sub_ref);
impl_binop!(Mul, mul, mul_ref);
impl_binop!(Div, div, div_ref);

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = self.add_ref(&rhs);
    }
}

impl<'a> AddAssign<&'a Rational> for Rational {
    fn add_assign(&mut self, rhs: &'a Rational) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = self.sub_ref(&rhs);
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = self.mul_ref(&rhs);
    }
}

impl<'a> MulAssign<&'a Rational> for Rational {
    fn mul_assign(&mut self, rhs: &'a Rational) {
        *self = self.mul_ref(rhs);
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.negated()
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.negated()
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl<'a> std::iter::Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl std::iter::Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::one(), |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn a_rational_is_two_words() {
        assert_eq!(std::mem::size_of::<Rational>(), 16);
    }

    #[test]
    fn normalisation() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(6, -3), Rational::from_int(-2));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 3) + r(1, 6), r(1, 2));
        assert_eq!(r(1, 3) - r(1, 2), r(-1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), Rational::from_int(2));
        assert_eq!(-r(3, 7), r(-3, 7));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::one());
        assert!(r(-5, 2) < Rational::zero());
    }

    #[test]
    fn powers_and_reciprocals() {
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(2, 3).pow(0), Rational::one());
        assert_eq!(r(-1, 2).pow(3), r(-1, 8));
        assert_eq!(r(3, 4).recip(), r(4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor().to_i64(), Some(3));
        assert_eq!(r(7, 2).ceil().to_i64(), Some(4));
        assert_eq!(r(-7, 2).floor().to_i64(), Some(-4));
        assert_eq!(r(-7, 2).ceil().to_i64(), Some(-3));
        assert_eq!(r(4, 2).floor().to_i64(), Some(2));
        assert_eq!(r(4, 2).ceil().to_i64(), Some(2));
    }

    #[test]
    fn parsing() {
        assert_eq!(Rational::parse("0.25"), Some(r(1, 4)));
        assert_eq!(Rational::parse("-1.5"), Some(r(-3, 2)));
        assert_eq!(Rational::parse("7/9"), Some(r(7, 9)));
        assert_eq!(Rational::parse("3"), Some(Rational::from_int(3)));
        assert_eq!(Rational::parse(".5"), Some(r(1, 2)));
        assert_eq!(Rational::parse("1/0"), None);
        assert_eq!(Rational::parse("abc"), None);
    }

    #[test]
    fn decimal_rendering() {
        assert_eq!(r(1, 3).to_decimal_string(10), "0.3333333333");
        assert_eq!(r(-1, 8).to_decimal_string(3), "-0.125");
        assert_eq!(Rational::from_int(2).to_decimal_string(2), "2.00");
        assert_eq!(r(1, 2).to_decimal_string(0), "0");
    }

    #[test]
    fn f64_roundtrips() {
        for v in [0.5f64, 0.25, -0.125, 3.0, 0.1] {
            let q = Rational::from_f64_exact(v);
            assert_eq!(q.to_f64(), v);
        }
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn small_dyadic_floats_convert_to_canonical_rationals() {
        // The inline path must build the same canonical value as the
        // big-integer path it short-cuts.
        for v in [0.5f64, -0.375, 3.0, 1024.0, 1e-19, 0.1, 1.0 / 3.0, -(2f64.powi(62)), 5e-324] {
            let bits = v.abs().to_bits();
            let (m, e) = match bits >> 52 {
                0 => (bits, -1074),
                x => ((bits & ((1 << 52) - 1)) | (1 << 52), x as i32 - 1075),
            };
            let magnitude = Rational::from_bigint(BigInt::from(m)) * Rational::from_int(2).pow(e);
            let expected = if v < 0.0 { -magnitude } else { magnitude };
            assert_eq!(Rational::from_f64_exact(v), expected, "{v:e}");
        }
    }

    #[test]
    fn directed_conversions_bracket_the_value_within_one_ulp() {
        let two = Rational::from_int(2);
        let mut values = vec![
            Rational::zero(),
            r(1, 3),
            r(-1, 3),
            r(7, 10),
            r(3, 8),
            r(i64::MAX, 3),
            r(i64::MIN + 1, 7),
            r((1 << 60) + 1, 1 << 61),
            r(-((1 << 60) + 1), 1 << 61),
            r((1 << 60) + 1, (1 << 60) + 3),
            r(1, i64::MAX),
            &Rational::one() + &Rational::from_f64_exact(f64::EPSILON * 1.5),
            two.pow(-1080),
            -two.pow(-1074) * r(1, 3),
            two.pow(-1022) * r(2, 3),
            two.pow(1024),
            -two.pow(1100),
            Rational::from_f64_exact(f64::MAX) + r(1, 3),
            two.pow(70) + r(1, 3),
            two.pow(-900) * r(1, 3),
            r(1, 3) * two.pow(-90) - two.pow(-1000),
        ];
        values.extend((1..200).map(|k| r(k * 7919 - 700_000, 1 + k * 104_729)));
        for v in &values {
            let [down, up] = [v.to_f64_down(), v.to_f64_up()];
            let exact = |f: f64| Rational::from_f64_exact(f);
            assert!(down <= up, "{v}");
            assert!(down == f64::NEG_INFINITY || exact(down) <= *v, "{v}: {down:e}");
            assert!(up == f64::INFINITY || *v <= exact(up), "{v}: {up:e}");
            if down == up {
                assert_eq!(exact(down), *v);
            } else {
                assert_eq!(up, down.next_up(), "{v}: one ulp wide");
                assert!(down.is_infinite() || exact(down) != *v);
            }
            if let Some(fast) = v.small_f64_bounds() {
                assert_eq!(fast, v.f64_bounds_by_division(), "{v}");
            }
        }
        assert_eq!(two.pow(1024).to_f64_down(), f64::MAX);
        assert_eq!((-two.pow(1100)).to_f64_down(), f64::NEG_INFINITY);
        assert_eq!(two.pow(-1080).to_f64_down(), 0.0);
        assert_eq!(two.pow(-1080).to_f64_up(), 5e-324);
    }

    #[test]
    fn sums_and_products() {
        let xs = vec![r(1, 4), r(1, 4), r(1, 2)];
        let s: Rational = xs.iter().sum();
        assert_eq!(s, Rational::one());
        let p: Rational = xs.into_iter().product();
        assert_eq!(p, r(1, 32));
    }

    #[test]
    fn unit_interval_check() {
        assert!(r(1, 2).in_unit_interval());
        assert!(Rational::zero().in_unit_interval());
        assert!(Rational::one().in_unit_interval());
        assert!(!r(3, 2).in_unit_interval());
        assert!(!r(-1, 2).in_unit_interval());
    }
}
