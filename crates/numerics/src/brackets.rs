//! Float brackets of an exact interval's endpoints.
//!
//! Interval arithmetic on [`Rational`] endpoints is exact but costs a gcd or
//! two per operation. [`EndpointBrackets`] follows the same computation in
//! `f64` without losing the exact answer: it carries, for each endpoint of
//! the exact interval `[L, H]`, two floats that bracket it, `L ∈ [lo↓, lo↑]`
//! and `H ∈ [hi↓, hi↑]`. Whenever the brackets place an endpoint on one side
//! of a threshold, the exact endpoint lies there too, so a comparison the
//! brackets decide is the comparison exact arithmetic would make.
//!
//! Each operation rounds in `f64` and then moves the result one ulp outward
//! only when it was inexact. Whether it was is read off an error-free
//! transform: TwoSum gives the exact rounding error of a sum, and
//! `a.mul_add(b, -p)` the exact error of the product `p = a·b`. No rounding
//! mode is changed. An operation returns `None` when this cannot be done
//! soundly: a result that is not finite, or a product so small that its
//! error may not be a float.

use crate::interval::Interval;
use crate::rational::Rational;

/// Below this magnitude the rounding error of a product may underflow, and
/// `mul_add` could then report an inexact product as exact (`2⁻⁹⁶⁹`: the
/// error of a product at least this large is a multiple of `2⁻¹⁰⁷⁴`).
const MIN_EXACT_PRODUCT: f64 = f64::from_bits((1023 - 969) << 52);

/// `[v, v]` widened by one ulp on the side where `v` lost `err` (the exact
/// value is `v + err`); `None` unless both ends are finite.
pub(crate) fn round_out(v: f64, err: f64) -> Option<[f64; 2]> {
    let down = if err < 0.0 { v.next_down() } else { v };
    let up = if err > 0.0 { v.next_up() } else { v };
    (down.is_finite() && up.is_finite()).then_some([down, up])
}

/// The floats just below and just above `a + b` (the same float when the sum
/// is exact).
fn sum(a: f64, b: f64) -> Option<[f64; 2]> {
    let s = a + b;
    // TwoSum (Knuth): the exact error `a + b − s`, for any finite `s`.
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    round_out(s, err)
}

/// The floats just below and just above `a · b`.
fn product(a: f64, b: f64) -> Option<[f64; 2]> {
    let p = a * b;
    if p == 0.0 && (a == 0.0 || b == 0.0) {
        return Some([0.0, 0.0]);
    }
    if !(MIN_EXACT_PRODUCT..=f64::MAX).contains(&p.abs()) {
        return None;
    }
    round_out(p, a.mul_add(b, -p))
}

/// Brackets of `x + y` for `x ∈ xs` and `y ∈ ys`.
fn bracket_sum(xs: [f64; 2], ys: [f64; 2]) -> Option<[f64; 2]> {
    if xs[0] == xs[1] && ys[0] == ys[1] {
        return sum(xs[0], ys[0]);
    }
    Some([sum(xs[0], ys[0])?[0], sum(xs[1], ys[1])?[1]])
}

/// Brackets of `x · y` for `x ∈ xs` and `y ∈ ys`: the extreme corner
/// products, rounded outward.
fn bracket_product(xs: [f64; 2], ys: [f64; 2]) -> Option<[f64; 2]> {
    if xs[0] == xs[1] && ys[0] == ys[1] {
        return product(xs[0], ys[0]);
    }
    let mut out = [f64::INFINITY, f64::NEG_INFINITY];
    for x in xs {
        for y in ys {
            let p = product(x, y)?;
            out = [out[0].min(p[0]), out[1].max(p[1])];
        }
    }
    Some(out)
}

/// Float brackets of the endpoints of an exact interval `[L, H]`:
/// `L ∈ [lo[0], lo[1]]` and `H ∈ [hi[0], hi[1]]`, every bound finite.
///
/// Each operation brackets the endpoints of the exact interval operation of
/// [`Interval`] on the bracketed intervals, so a chain of them brackets the
/// exact result of the same chain.
///
/// # Examples
///
/// ```
/// use probterm_numerics::{EndpointBrackets, Rational};
///
/// // 1/3 is not a float: its brackets are the two floats around it.
/// let third = EndpointBrackets::point(&Rational::from_ratio(1, 3)).unwrap();
/// assert!(third.lo()[0] < third.lo()[1]);
/// // Dyadic endpoints are exact, and so is their product.
/// let x = EndpointBrackets::exact(0.5, 0.75).unwrap();
/// let square = x.mul(&x).unwrap();
/// assert_eq!((square.lo(), square.hi()), ([0.25, 0.25], [0.5625, 0.5625]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointBrackets {
    lo: [f64; 2],
    hi: [f64; 2],
}

impl EndpointBrackets {
    /// The exact interval `[lo, hi]` with float endpoints; `None` unless both
    /// are finite and `lo ≤ hi`.
    pub fn exact(lo: f64, hi: f64) -> Option<EndpointBrackets> {
        (lo.is_finite() && hi.is_finite() && lo <= hi)
            .then_some(EndpointBrackets { lo: [lo, lo], hi: [hi, hi] })
    }

    /// The point interval `[v, v]`: exact when `v` is a float, one ulp wide
    /// otherwise. `None` for a value stored as a big rational.
    pub fn point(v: &Rational) -> Option<EndpointBrackets> {
        let ends = v.small_f64_bounds()?;
        Some(EndpointBrackets { lo: ends, hi: ends })
    }

    /// Brackets of the endpoints of `iv`; `None` when an endpoint is stored
    /// as a big rational.
    pub fn of(iv: &Interval) -> Option<EndpointBrackets> {
        Some(EndpointBrackets { lo: iv.lo().small_f64_bounds()?, hi: iv.hi().small_f64_bounds()? })
    }

    /// The bracket `[lo↓, lo↑]` of the lower endpoint.
    pub fn lo(&self) -> [f64; 2] {
        self.lo
    }

    /// The bracket `[hi↓, hi↑]` of the upper endpoint.
    pub fn hi(&self) -> [f64; 2] {
        self.hi
    }

    /// Brackets of [`Interval::add`].
    pub fn add(&self, other: &EndpointBrackets) -> Option<EndpointBrackets> {
        Some(EndpointBrackets {
            lo: bracket_sum(self.lo, other.lo)?,
            hi: bracket_sum(self.hi, other.hi)?,
        })
    }

    /// Brackets of [`Interval::neg`] (exact).
    pub fn neg(&self) -> EndpointBrackets {
        EndpointBrackets { lo: [-self.hi[1], -self.hi[0]], hi: [-self.lo[1], -self.lo[0]] }
    }

    /// Brackets of [`Interval::sub`].
    pub fn sub(&self, other: &EndpointBrackets) -> Option<EndpointBrackets> {
        self.add(&other.neg())
    }

    /// Brackets of [`Interval::mul`]: its endpoints are the least and the
    /// greatest of four endpoint products, so they lie between the least
    /// (greatest) lower and the least (greatest) upper brackets of those
    /// products.
    pub fn mul(&self, other: &EndpointBrackets) -> Option<EndpointBrackets> {
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for (x, y) in
            [(self.lo, other.lo), (self.lo, other.hi), (self.hi, other.lo), (self.hi, other.hi)]
        {
            let p = bracket_product(x, y)?;
            lo = [lo[0].min(p[0]), lo[1].min(p[1])];
            hi = [hi[0].max(p[0]), hi[1].max(p[1])];
        }
        Some(EndpointBrackets { lo, hi })
    }

    /// Brackets of [`Interval::min_iv`] (exact).
    pub fn min(&self, other: &EndpointBrackets) -> EndpointBrackets {
        let min = |a: [f64; 2], b: [f64; 2]| [a[0].min(b[0]), a[1].min(b[1])];
        EndpointBrackets { lo: min(self.lo, other.lo), hi: min(self.hi, other.hi) }
    }

    /// Brackets of [`Interval::max_iv`] (exact).
    pub fn max(&self, other: &EndpointBrackets) -> EndpointBrackets {
        let max = |a: [f64; 2], b: [f64; 2]| [a[0].max(b[0]), a[1].max(b[1])];
        EndpointBrackets { lo: max(self.lo, other.lo), hi: max(self.hi, other.hi) }
    }

    /// Brackets of [`Interval::abs`]; `None` when the brackets do not tell
    /// which of its three cases the exact interval is in.
    pub fn abs(&self) -> Option<EndpointBrackets> {
        if self.lo[0] >= 0.0 {
            return Some(*self);
        }
        if self.lo[1] >= 0.0 {
            return None;
        }
        // L < 0: the result is −[L, H] when H ≤ 0, else [0, max(−L, H)].
        if self.hi[1] <= 0.0 {
            Some(self.neg())
        } else if self.hi[0] > 0.0 {
            let hi = [(-self.lo[1]).max(self.hi[0]), (-self.lo[0]).max(self.hi[1])];
            Some(EndpointBrackets { lo: [0.0, 0.0], hi })
        } else {
            None
        }
    }

    /// Brackets of the floor of each endpoint (exact: `floor` is monotone
    /// and exact on floats).
    pub fn floor(&self) -> EndpointBrackets {
        let floor = |a: [f64; 2]| [a[0].floor(), a[1].floor()];
        EndpointBrackets { lo: floor(self.lo), hi: floor(self.hi) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    /// `true` when `[b[0], b[1]]` contains `v`.
    fn brackets(b: [f64; 2], v: &Rational) -> bool {
        Rational::from_f64_exact(b[0]) <= *v && *v <= Rational::from_f64_exact(b[1])
    }

    #[test]
    fn min_exact_product_is_two_to_the_minus_969() {
        assert_eq!(MIN_EXACT_PRODUCT, 0.5f64.powi(969));
    }

    #[test]
    fn sums_and_products_widen_only_when_inexact() {
        assert_eq!(sum(0.5, 0.25), Some([0.75, 0.75]));
        let [down, up] = sum(1.0, 1e-20).unwrap();
        assert_eq!((down, up), (1.0, 1.0f64.next_up()));
        let [down, up] = sum(-1.0, -1e-20).unwrap();
        assert_eq!((down, up), ((-1.0f64).next_down(), -1.0));
        assert_eq!(product(0.5, 0.75), Some([0.375, 0.375]));
        let third = 1.0 / 3.0;
        let [down, up] = product(third, 3.0).unwrap();
        assert!(brackets([down, up], &(Rational::from_f64_exact(third) * Rational::from_int(3))));
        assert_eq!(up, down.next_up());
        assert_eq!(product(0.0, 1e300), Some([0.0, 0.0]));
        assert_eq!(product(1e-200, 1e-200), None, "the product underflows");
        assert_eq!(product(1e200, 1e200), None, "the product overflows");
        assert_eq!(sum(f64::MAX, f64::MAX), None);
    }

    #[test]
    fn chains_bracket_the_exact_interval_operations() {
        let a = Interval::new(r(1, 3), r(7, 10));
        let b = Interval::new(r(-5, 7), r(2, 9));
        let (fa, fb) = (EndpointBrackets::of(&a).unwrap(), EndpointBrackets::of(&b).unwrap());
        let cases = [
            (a.add(&b), fa.add(&fb).unwrap()),
            (a.sub(&b), fa.sub(&fb).unwrap()),
            (a.mul(&b), fa.mul(&fb).unwrap()),
            (b.mul(&b).mul(&a), fb.mul(&fb).unwrap().mul(&fa).unwrap()),
            (b.abs(), fb.abs().unwrap()),
            (b.neg().abs(), fb.neg().abs().unwrap()),
            (a.min_iv(&b), fa.min(&fb)),
            (a.max_iv(&b), fa.max(&fb)),
        ];
        for (exact, floats) in cases {
            assert!(brackets(floats.lo(), exact.lo()), "{exact} vs {floats:?}");
            assert!(brackets(floats.hi(), exact.hi()), "{exact} vs {floats:?}");
        }
    }

    #[test]
    fn big_values_have_no_brackets() {
        let big = Rational::from_int(2).pow(70) + Rational::from_ratio(1, 3);
        assert_eq!(EndpointBrackets::point(&big), None);
        assert!(EndpointBrackets::point(&r(i64::MAX, 3)).is_some());
    }
}
