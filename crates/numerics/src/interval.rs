//! Closed intervals with exact rational endpoints.
//!
//! Intervals are the central abstraction of the paper's §3: interval numerals
//! `[a, b]` replace real numerals, `sample` consumes an interval from an
//! interval trace, and primitive functions act on intervals through their
//! *interval-preserving* lift `f̂` (Definition 3.1). This module provides the
//! interval datatype together with exact lifts for the arithmetic primitives
//! and conservative (outward-rounded) enclosures for the transcendental ones
//! (`exp`, the sigmoid `sig`), which Lemma 3.2 guarantees are interval
//! preserving because they are continuous.

use crate::rational::Rational;
use std::fmt;

/// A closed interval `[lo, hi]` with rational endpoints (`lo <= hi`).
///
/// # Examples
///
/// ```
/// use probterm_numerics::{Interval, Rational};
///
/// let a = Interval::from_ratios(0, 1, 1, 2); // [0, 1/2]
/// let b = Interval::from_ratios(1, 4, 3, 4); // [1/4, 3/4]
/// let sum = a.add(&b);
/// assert_eq!(sum, Interval::from_ratios(1, 4, 5, 4));
/// assert_eq!(a.width(), Rational::from_ratio(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: Rational,
    hi: Rational,
}

impl Interval {
    /// Constructs the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: Rational, hi: Rational) -> Interval {
        assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Constructs the degenerate (point) interval `[v, v]`.
    pub fn point(v: Rational) -> Interval {
        Interval { lo: v.clone(), hi: v }
    }

    /// Constructs `[a/b, c/d]` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if a denominator is zero or the endpoints are out of order.
    pub fn from_ratios(a: i64, b: i64, c: i64, d: i64) -> Interval {
        Interval::new(Rational::from_ratio(a, b), Rational::from_ratio(c, d))
    }

    /// The closed unit interval `[0, 1]`.
    pub fn unit() -> Interval {
        Interval::new(Rational::zero(), Rational::one())
    }

    /// Lower endpoint.
    pub fn lo(&self) -> &Rational {
        &self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> &Rational {
        &self.hi
    }

    /// Destructures into `(lo, hi)`.
    pub fn into_endpoints(self) -> (Rational, Rational) {
        (self.lo, self.hi)
    }

    /// Width `hi - lo` of the interval.
    pub fn width(&self) -> Rational {
        &self.hi - &self.lo
    }

    /// Midpoint `(lo + hi) / 2`.
    pub fn midpoint(&self) -> Rational {
        (&self.lo + &self.hi) * Rational::from_ratio(1, 2)
    }

    /// Returns `true` if the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Returns `true` if `v` lies in the interval.
    pub fn contains(&self, v: &Rational) -> bool {
        &self.lo <= v && v <= &self.hi
    }

    /// Returns `true` if `other` is contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns `true` if the two intervals are *almost disjoint*, i.e. their
    /// intersection contains at most one point (paper §4, "almost disjoint").
    pub fn almost_disjoint(&self, other: &Interval) -> bool {
        self.hi <= other.lo || other.hi <= self.lo
    }

    /// Intersection of two intervals, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.clone().max(other.lo.clone());
        let hi = self.hi.clone().min(other.hi.clone());
        if lo <= hi {
            Some(Interval::new(lo, hi))
        } else {
            None
        }
    }

    /// Smallest interval containing both inputs (the interval hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(
            self.lo.clone().min(other.lo.clone()),
            self.hi.clone().max(other.hi.clone()),
        )
    }

    /// Splits the interval into two halves at the midpoint.
    pub fn bisect(&self) -> (Interval, Interval) {
        let mid = self.midpoint();
        (
            Interval::new(self.lo.clone(), mid.clone()),
            Interval::new(mid, self.hi.clone()),
        )
    }

    /// Splits into `n` equal-width pieces (`n >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn split(&self, n: usize) -> Vec<Interval> {
        assert!(n >= 1, "cannot split into zero pieces");
        let step = self.width() * Rational::from_ratio(1, n as i64);
        let mut pieces = Vec::with_capacity(n);
        let mut lo = self.lo.clone();
        for i in 0..n {
            let hi = if i + 1 == n {
                self.hi.clone()
            } else {
                &lo + &step
            };
            pieces.push(Interval::new(lo.clone(), hi.clone()));
            lo = hi;
        }
        pieces
    }

    /// Interval addition `[a,b] + [c,d] = [a+c, b+d]`.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(&self.lo + &other.lo, &self.hi + &other.hi)
    }

    /// Interval subtraction `[a,b] - [c,d] = [a-d, b-c]`.
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval::new(&self.lo - &other.hi, &self.hi - &other.lo)
    }

    /// Interval negation.
    pub fn neg(&self) -> Interval {
        Interval::new(-&self.hi, -&self.lo)
    }

    /// Interval multiplication (exact: min/max over endpoint products).
    pub fn mul(&self, other: &Interval) -> Interval {
        let candidates = [
            &self.lo * &other.lo,
            &self.lo * &other.hi,
            &self.hi * &other.lo,
            &self.hi * &other.hi,
        ];
        let mut lo = candidates[0].clone();
        let mut hi = candidates[0].clone();
        for c in &candidates[1..] {
            if *c < lo {
                lo = c.clone();
            }
            if *c > hi {
                hi = c.clone();
            }
        }
        Interval::new(lo, hi)
    }

    /// Scales the interval by a rational constant.
    pub fn scale(&self, k: &Rational) -> Interval {
        if k.is_negative() {
            Interval::new(&self.hi * k, &self.lo * k)
        } else {
            Interval::new(&self.lo * k, &self.hi * k)
        }
    }

    /// Translates the interval by a rational constant.
    pub fn translate(&self, k: &Rational) -> Interval {
        Interval::new(&self.lo + k, &self.hi + k)
    }

    /// Interval absolute value.
    pub fn abs(&self) -> Interval {
        if !self.lo.is_negative() {
            self.clone()
        } else if !self.hi.is_positive() {
            self.neg()
        } else {
            Interval::new(Rational::zero(), self.lo.abs().max(self.hi.abs()))
        }
    }

    /// Interval minimum.
    pub fn min_iv(&self, other: &Interval) -> Interval {
        Interval::new(
            self.lo.clone().min(other.lo.clone()),
            self.hi.clone().min(other.hi.clone()),
        )
    }

    /// Interval maximum.
    pub fn max_iv(&self, other: &Interval) -> Interval {
        Interval::new(
            self.lo.clone().max(other.lo.clone()),
            self.hi.clone().max(other.hi.clone()),
        )
    }

    /// Conservative enclosure of `exp` over the interval.
    ///
    /// `exp` is monotone, so it is applied to the lower endpoint rounded down
    /// and the upper endpoint rounded up, and the results are widened by a
    /// relative margin that covers libm's error; the enclosure therefore
    /// contains the true image.
    ///
    /// An end whose `f64` image overflows still gets a bound. libm returns
    /// `+∞` only when `eˣ ≥ f64::MAX·(1 − 2⁻⁵³)`, so an overflowing lower end
    /// becomes `f64::MAX` less the margin. An overflowing upper end `h`
    /// becomes the exact power `2^⌈h·U⌉` with the rational
    /// `U = 1.4426950408889635 > log₂ e`; past the exponent `2¹⁶` the result
    /// is `None`, so no enclosure grows huge.
    pub fn exp(&self) -> Option<Interval> {
        let hi = match outward_hi(self.hi.to_f64_up().exp()) {
            Some(hi) => hi,
            None => {
                let (num, den) = LOG2_E_ABOVE;
                let exponent = (&self.hi * &Rational::from_ratio(num, den)).ceil().to_i64()?;
                if exponent > EXP_OVERFLOW_CAP {
                    return None;
                }
                Rational::from_int(2).pow(exponent as i32)
            }
        };
        let lo = outward_lo(self.lo.to_f64_down().exp().min(f64::MAX))?;
        Some(Interval::new(lo, hi))
    }

    /// Conservative enclosure of the logistic sigmoid `sig(x) = 1/(1+e^{-x})`,
    /// clamped to `[0, 1]` (the sigmoid's true range), rounded outward as for
    /// [`Interval::exp`]. `None` when an endpoint is not a finite `f64`.
    pub fn sig(&self) -> Option<Interval> {
        let lo = outward_lo(sigmoid(self.lo.to_f64_down()))?.max(Rational::zero());
        let hi = outward_hi(sigmoid(self.hi.to_f64_up()))?.min(Rational::one());
        Some(Interval::new(lo, hi))
    }

    /// Conservative enclosure of `log` (natural logarithm) over the interval,
    /// rounded outward as for [`Interval::exp`]. Rounding the endpoints to
    /// nearest instead could move them by half an ulp towards each other,
    /// which near 1 moves `log` by ~1e-16 while the margin is ~1e-28.
    /// `None` when an endpoint overflows `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the interval contains non-positive values.
    pub fn log(&self) -> Option<Interval> {
        assert!(
            self.lo.is_positive(),
            "log enclosure requires a strictly positive interval"
        );
        Some(Interval::new(
            outward_lo(self.lo.to_f64_down().ln())?,
            outward_hi(self.hi.to_f64_up().ln())?,
        ))
    }

    /// Clamps the interval into `[0, 1]` if it overlaps it; returns `None`
    /// when the intersection with the unit interval is empty.
    pub fn clamp_unit(&self) -> Option<Interval> {
        self.intersect(&Interval::unit())
    }

    /// Returns `true` if the whole interval is `<= 0` (the conditional's
    /// then-branch is certain, Fig. 3).
    pub fn certainly_nonpositive(&self) -> bool {
        !self.hi.is_positive()
    }

    /// Returns `true` if the whole interval is `> 0` (the conditional's
    /// else-branch is certain, Fig. 3).
    pub fn certainly_positive(&self) -> bool {
        self.lo.is_positive()
    }

    /// Returns a compact display of the interval using decimal rendering.
    pub fn to_decimal_string(&self, digits: usize) -> String {
        format!(
            "[{}, {}]",
            self.lo.to_decimal_string(digits),
            self.hi.to_decimal_string(digits)
        )
    }
}

/// `U = 1.4426950408889635` as `num/den`, a rational just above
/// `log₂ e = 1.44269504088896340735…`: `eʰ = 2^(h·log₂ e) ≤ 2^⌈h·U⌉` for
/// `h ≥ 0`. (The `f64` nearest `log₂ e` lies below it.)
const LOG2_E_ABOVE: (i64, i64) = (14_426_950_408_889_635, 10_000_000_000_000_000);

/// The largest power of two [`Interval::exp`] returns as an upper end.
const EXP_OVERFLOW_CAP: i64 = 1 << 16;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Rounds a float *down* by a relative ulp-scale margin and converts exactly;
/// `None` when the rounded value is not finite.
fn outward_lo(v: f64) -> Option<Rational> {
    let margin = (v.abs() * 1e-12).max(1e-300);
    Rational::from_f64_finite(v - margin)
}

/// Rounds a float *up* by a relative ulp-scale margin and converts exactly;
/// `None` when the rounded value is not finite.
fn outward_hi(v: f64) -> Option<Rational> {
    let margin = (v.abs() * 1e-12).max(1e-300);
    Rational::from_f64_finite(v + margin)
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// An axis-aligned box, i.e. a product of intervals. Boxes are the shape of
/// constraint solutions used throughout §3 (interval separability talks about
/// countable unions of boxes) and of interval traces.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IntervalBox {
    dims: Vec<Interval>,
}

impl IntervalBox {
    /// The empty (0-dimensional) box, which has volume 1 by convention.
    pub fn empty() -> IntervalBox {
        IntervalBox { dims: Vec::new() }
    }

    /// Constructs a box from its per-dimension intervals.
    pub fn new(dims: Vec<Interval>) -> IntervalBox {
        IntervalBox { dims }
    }

    /// The unit hypercube `[0,1]^n`.
    pub fn unit(n: usize) -> IntervalBox {
        IntervalBox {
            dims: vec![Interval::unit(); n],
        }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// Volume of the box (product of widths); the 0-dimensional box has volume 1.
    pub fn volume(&self) -> Rational {
        self.dims.iter().map(|iv| iv.width()).product()
    }

    /// Appends a dimension.
    pub fn push(&mut self, iv: Interval) {
        self.dims.push(iv);
    }

    /// Returns `true` if the point (given per dimension) lies in the box.
    pub fn contains_point(&self, point: &[Rational]) -> bool {
        point.len() == self.dims.len()
            && self
                .dims
                .iter()
                .zip(point.iter())
                .all(|(iv, v)| iv.contains(v))
    }

    /// Componentwise intersection; `None` if any component is empty.
    pub fn intersect(&self, other: &IntervalBox) -> Option<IntervalBox> {
        if self.dim() != other.dim() {
            return None;
        }
        let mut dims = Vec::with_capacity(self.dim());
        for (a, b) in self.dims.iter().zip(other.dims.iter()) {
            dims.push(a.intersect(b)?);
        }
        Some(IntervalBox::new(dims))
    }

    /// Bisects the widest dimension, returning the two halves.
    ///
    /// Returns `None` if the box is 0-dimensional or all dimensions are points.
    pub fn bisect_widest(&self) -> Option<(IntervalBox, IntervalBox)> {
        let widest = self
            .dims
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.width().cmp(&b.width()))?;
        if widest.1.is_point() {
            return None;
        }
        let idx = widest.0;
        let (lo_half, hi_half) = self.dims[idx].bisect();
        let mut left = self.dims.clone();
        let mut right = self.dims.clone();
        left[idx] = lo_half;
        right[idx] = hi_half;
        Some((IntervalBox::new(left), IntervalBox::new(right)))
    }

    /// Bisects dimension `dim` in place: the box keeps the lower half and the
    /// upper half is returned. One clone, where [`IntervalBox::bisect_widest`]
    /// makes two and compares every width.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn bisect_dim(&mut self, dim: usize) -> IntervalBox {
        let (lo_half, hi_half) = self.dims[dim].bisect();
        let mut upper = self.clone();
        upper.dims[dim] = hi_half;
        self.dims[dim] = lo_half;
        upper
    }
}

impl fmt::Display for IntervalBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, iv) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Interval> for IntervalBox {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> IntervalBox {
        IntervalBox::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64, c: i64, d: i64) -> Interval {
        Interval::from_ratios(a, b, c, d)
    }

    #[test]
    fn construction_and_accessors() {
        let i = iv(1, 2, 3, 4);
        assert_eq!(*i.lo(), Rational::from_ratio(1, 2));
        assert_eq!(*i.hi(), Rational::from_ratio(3, 4));
        assert_eq!(i.width(), Rational::from_ratio(1, 4));
        assert_eq!(i.midpoint(), Rational::from_ratio(5, 8));
        assert!(Interval::point(Rational::one()).is_point());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_endpoints_panic() {
        let _ = iv(3, 4, 1, 2);
    }

    #[test]
    fn arithmetic() {
        let a = iv(0, 1, 1, 2);
        let b = iv(1, 4, 3, 4);
        assert_eq!(a.add(&b), iv(1, 4, 5, 4));
        assert_eq!(a.sub(&b), iv(-3, 4, 1, 4));
        assert_eq!(a.neg(), iv(-1, 2, 0, 1));
        assert_eq!(a.mul(&b), iv(0, 1, 3, 8));
        // Mixed-sign multiplication.
        let c = iv(-1, 1, 2, 1);
        let d = iv(-3, 1, 1, 1);
        assert_eq!(c.mul(&d), iv(-6, 1, 3, 1));
    }

    #[test]
    fn scale_translate_abs() {
        let a = iv(-1, 1, 2, 1);
        assert_eq!(a.scale(&Rational::from_int(-2)), iv(-4, 1, 2, 1));
        assert_eq!(a.translate(&Rational::one()), iv(0, 1, 3, 1));
        assert_eq!(a.abs(), iv(0, 1, 2, 1));
        assert_eq!(iv(-3, 1, -1, 1).abs(), iv(1, 1, 3, 1));
        assert_eq!(iv(1, 1, 3, 1).abs(), iv(1, 1, 3, 1));
    }

    #[test]
    fn set_operations() {
        let a = iv(0, 1, 1, 2);
        let b = iv(1, 4, 3, 4);
        assert_eq!(a.intersect(&b), Some(iv(1, 4, 1, 2)));
        assert_eq!(a.hull(&b), iv(0, 1, 3, 4));
        assert!(a.intersect(&iv(2, 1, 3, 1)).is_none());
        assert!(a.contains(&Rational::from_ratio(1, 3)));
        assert!(!a.contains(&Rational::from_ratio(2, 3)));
        assert!(Interval::unit().contains_interval(&a));
        assert!(iv(0, 1, 1, 2).almost_disjoint(&iv(1, 2, 1, 1)));
        assert!(!iv(0, 1, 3, 4).almost_disjoint(&iv(1, 2, 1, 1)));
    }

    #[test]
    fn splitting() {
        let u = Interval::unit();
        let (l, r) = u.bisect();
        assert_eq!(l, iv(0, 1, 1, 2));
        assert_eq!(r, iv(1, 2, 1, 1));
        let parts = u.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[2], iv(1, 2, 3, 4));
        let total: Rational = parts.iter().map(|p| p.width()).sum();
        assert_eq!(total, Rational::one());
    }

    #[test]
    fn branch_certainty() {
        assert!(iv(-2, 1, 0, 1).certainly_nonpositive());
        assert!(!iv(-2, 1, 1, 2).certainly_nonpositive());
        assert!(iv(1, 4, 1, 2).certainly_positive());
        assert!(!iv(0, 1, 1, 2).certainly_positive());
    }

    #[test]
    fn transcendental_enclosures() {
        let a = iv(0, 1, 1, 1);
        let e = a.exp().unwrap();
        assert!(e.lo().to_f64() <= 1.0 && e.hi().to_f64() >= std::f64::consts::E);
        let s = a.sig().unwrap();
        assert!(s.lo().to_f64() <= 0.5 && s.hi().to_f64() >= 0.731);
        assert!(s.hi() <= &Rational::one());
        let l = iv(1, 1, 2, 1).log().unwrap();
        assert!(l.lo().to_f64() <= 0.0 + 1e-9 && l.hi().to_f64() >= std::f64::consts::LN_2);
    }

    #[test]
    fn transcendental_endpoints_round_outward() {
        // 1 + 3/2⁵³ is halfway between two floats and rounds to nearest
        // *up*, to 1 + 4/2⁵³; its log is below 3/2⁵³ but above 3/2⁵³ − ε².
        let eps = Rational::from_ratio(3, 1 << 53);
        let l = Interval::point(&Rational::one() + &eps).log().unwrap();
        assert!(l.lo() < &eps, "log lower end {} is above log(1 + ε)", l.lo());
        assert!(l.hi() >= &(&eps - &(&eps * &eps)));
    }

    #[test]
    fn enclosures_beyond_f64_are_unknown() {
        // exp(50000) overflows f64, and 50000·log₂ e is past the exponent
        // cap: no upper bound is given.
        assert_eq!(iv(0, 1, 50_000, 1).exp(), None);
        // 10^512 converts to +inf as an f64, and so does its log; the
        // sigmoid of ±inf is still finite.
        let mut huge = Rational::from_int(10);
        for _ in 0..9 {
            huge = &huge * &huge;
        }
        assert_eq!(Interval::new(Rational::one(), huge.clone()).log(), None);
        let s = Interval::new(-&huge, huge).sig().unwrap();
        assert!(s.lo() == &Rational::zero() && s.hi() == &Rational::one());
        // An underflow to 0 is still finite and still encloses.
        let e = iv(-1000, 1, 0, 1).exp().unwrap();
        assert!(e.lo().to_f64() <= 0.0 && e.hi() >= &Rational::one());
    }

    #[test]
    fn exp_enclosures_past_f64_max_contain_the_true_value() {
        // References: e ∈ [e₋, e₊] and log₂ e ∈ [l₋, l₊], exact rationals.
        let e_below = Rational::from_ratio(2_718_281_828_459_045, 1_000_000_000_000_000);
        let e_above = Rational::from_ratio(2_718_281_828_459_046, 1_000_000_000_000_000);
        let log2_e_below = Rational::parse("1.4426950408889634073").unwrap();
        let log2_e_above = Rational::parse("1.4426950408889634074").unwrap();
        let two_to = |k: &Rational| Rational::from_int(2).pow(k.ceil().to_i64().unwrap() as i32);
        // Below the overflow, eˣ ∈ [e₋ˣ, e₊ˣ], and the ends are within the
        // relative margin.
        let below_overflow = Interval::point(Rational::from_int(709)).exp().unwrap();
        assert!(below_overflow.lo() <= &e_below.pow(709));
        assert!(below_overflow.hi() >= &e_above.pow(709));
        assert!(below_overflow.lo().to_f64() >= 709f64.exp() * (1.0 - 2e-12));
        for x in [710, 1000, 5000] {
            let x_q = Rational::from_int(x);
            let enclosure = Interval::point(x_q.clone()).exp().expect("below the cap");
            // eˣ = 2^(x·log₂ e) lies in [2^⌊x·l₋⌋, 2^⌈x·l₊⌉].
            let (floor_exponent, ceil_exponent) = (&x_q * &log2_e_below, &x_q * &log2_e_above);
            let floor_power = floor_exponent.floor().to_i64().unwrap() as i32;
            let e_x_below = Rational::from_int(2).pow(floor_power);
            assert!(enclosure.lo() <= &e_x_below, "exp({x}) lower end above eˣ");
            assert!(enclosure.hi() >= &two_to(&ceil_exponent), "exp({x}) upper end below eˣ");
            // Tight: the lower end is f64::MAX less the margin, the upper end
            // within a binade of eˣ.
            assert!(enclosure.lo().to_f64() >= f64::MAX * (1.0 - 2e-12), "exp({x}) lower end");
            let doubled = two_to(&(&ceil_exponent + &Rational::one()));
            assert!(enclosure.hi() <= &doubled, "exp({x}) upper end too loose");
        }
        // An interval straddling the overflow point keeps its finite lower end.
        let straddle = iv(0, 1, 1000, 1).exp().expect("below the cap");
        assert!(straddle.lo() <= &Rational::one());
        assert!(straddle.hi() >= &two_to(&(&Rational::from_int(1000) * &log2_e_above)));
    }

    #[test]
    fn boxes() {
        let b = IntervalBox::new(vec![iv(0, 1, 1, 2), iv(0, 1, 1, 3)]);
        assert_eq!(b.volume(), Rational::from_ratio(1, 6));
        assert_eq!(IntervalBox::empty().volume(), Rational::one());
        assert_eq!(IntervalBox::unit(3).volume(), Rational::one());
        assert!(b.contains_point(&[Rational::from_ratio(1, 4), Rational::from_ratio(1, 4)]));
        assert!(!b.contains_point(&[Rational::from_ratio(3, 4), Rational::from_ratio(1, 4)]));
        let (l, r) = b.bisect_widest().unwrap();
        assert_eq!(&l.volume() + &r.volume(), b.volume());
        let point_box = IntervalBox::new(vec![Interval::point(Rational::one())]);
        assert!(point_box.bisect_widest().is_none());
        let mut lower = b.clone();
        let upper = lower.bisect_dim(1);
        assert_eq!(lower, IntervalBox::new(vec![iv(0, 1, 1, 2), iv(0, 1, 1, 6)]));
        assert_eq!(upper, IntervalBox::new(vec![iv(0, 1, 1, 2), iv(1, 6, 1, 3)]));
    }

    #[test]
    fn box_intersection() {
        let a = IntervalBox::unit(2);
        let b = IntervalBox::new(vec![iv(1, 2, 3, 2), iv(1, 4, 1, 2)]);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c.intervals()[0], iv(1, 2, 1, 1));
        assert_eq!(c.intervals()[1], iv(1, 4, 1, 2));
        assert!(a.intersect(&IntervalBox::unit(3)).is_none());
    }
}
