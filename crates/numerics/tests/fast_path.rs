//! Differential tests for `Rational`'s inline small-value representation and
//! for the big-integer gcd behind its fallback.
//!
//! Every `Rational` result is checked against a reference computed here from
//! `BigInt` numerators and denominators, reduced with a Euclid gcd built on
//! `div_rem` only. Operands are drawn at and across the boundary between the
//! two representations: `±i64::MAX`, `i64::MIN`, `u64::MAX` denominators,
//! values just past them, and pairs whose cross products overflow `i128`.
//! Beyond value and `Display`, each result must be in canonical form: it
//! equals, and hashes equal to, the same value built through the big path.
//!
//! The suite must also pass in release builds, where integer overflow wraps
//! instead of panicking; `scripts/ci.sh` runs it with `--release`.

use probterm_numerics::{BigInt, BigUint, Rational};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

// ------------------------------------------------------------ the reference

fn euclid_gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let (mut a, mut b) = (a.clone(), b.clone());
    while !b.is_zero() {
        let r = a.div_rem(&b).1;
        a = b;
        b = r;
    }
    a
}

/// An exact rational as a reduced pair with a positive denominator.
#[derive(Clone, Debug)]
struct Exact {
    num: BigInt,
    den: BigInt,
}

impl Exact {
    fn new(num: BigInt, den: BigInt) -> Exact {
        assert!(!den.is_zero());
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        let g = BigInt::from(euclid_gcd(num.magnitude(), den.magnitude()));
        Exact {
            num: num.div_rem(&g).0,
            den: den.div_rem(&g).0,
        }
    }

    fn add(&self, o: &Exact) -> Exact {
        Exact::new(
            &(&self.num * &o.den) + &(&o.num * &self.den),
            &self.den * &o.den,
        )
    }

    fn sub(&self, o: &Exact) -> Exact {
        Exact::new(
            &(&self.num * &o.den) - &(&o.num * &self.den),
            &self.den * &o.den,
        )
    }

    fn mul(&self, o: &Exact) -> Exact {
        Exact::new(&self.num * &o.num, &self.den * &o.den)
    }

    fn div(&self, o: &Exact) -> Exact {
        Exact::new(&self.num * &o.den, &self.den * &o.num)
    }

    fn cmp(&self, o: &Exact) -> Ordering {
        (&self.num * &o.den).cmp(&(&o.num * &self.den))
    }

    fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if self.num.is_negative() && !r.is_zero() {
            q - BigInt::one()
        } else {
            q
        }
    }

    fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if self.num.is_positive() && !r.is_zero() {
            q + BigInt::one()
        } else {
            q
        }
    }

    fn pow(&self, exp: u32) -> Exact {
        Exact::new(self.num.pow(exp), self.den.pow(exp))
    }

    /// The conversion `Rational::to_f64` has always made for values of
    /// fewer than 900 bits: each part folded limb by limb, then divided.
    fn to_f64(&self) -> f64 {
        assert!(self.num.magnitude().bits() < 900 && self.den.magnitude().bits() < 900);
        self.num.to_f64() / self.den.to_f64()
    }

    fn display(&self) -> String {
        if self.den == BigInt::one() {
            self.num.to_string()
        } else {
            format!("{}/{}", self.num, self.den)
        }
    }
}

fn hash_of(r: &Rational) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// `r` has the value of `e`, prints like it, and is in canonical form: it
/// equals and hashes like the value rebuilt from an unreduced big ratio.
fn check(r: &Rational, e: &Exact, what: &str) -> Result<(), String> {
    let expected = e.display();
    if r.to_string() != expected {
        return Err(format!("{what}: got {r}, want {expected}"));
    }
    let k = BigInt::from(BigUint::from(3u64).pow(45));
    let rebuilt = Rational::from_bigint_ratio(&e.num * &k, &e.den * &k);
    if *r != rebuilt || hash_of(r) != hash_of(&rebuilt) {
        return Err(format!(
            "{what}: {r} is not canonical ({r:?} vs {rebuilt:?})"
        ));
    }
    Ok(())
}

// ------------------------------------------------------------- the operands

fn two_pow(k: u32) -> BigInt {
    BigInt::from(BigUint::from(2u64).pow(k))
}

/// Numerators at, next to and past the edge of the small representation.
fn numerator(kind: usize, x: u64) -> BigInt {
    let i = |v: i64| BigInt::from(v);
    match kind {
        0 => i(0),
        1 => i(1),
        2 => i(-1),
        3 => i(i64::MAX),
        4 => i(-i64::MAX),
        5 => i(i64::MIN),
        6 => i(i64::MAX - 1),
        7 => -two_pow(63) - i(1),
        8 => BigInt::from(u64::MAX),
        9 => i((x % 1000) as i64 - 500),
        10 => i(x as i64),
        11 => i((x >> 32) as i64 - (1 << 31)),
        12 => two_pow(70) + i(x as i64),
        _ => -(two_pow(64) * BigInt::from(x | 1)),
    }
}

const NUMERATOR_KINDS: usize = 14;

/// Denominators, likewise: `u64::MAX` is the largest small one.
fn denominator(kind: usize, y: u64) -> BigInt {
    let u = |v: u64| BigInt::from(v);
    match kind {
        0 => u(1),
        1 => u(2),
        2 => u(u64::MAX),
        3 => u(u64::MAX - 1),
        4 => u(1 << 63),
        5 => u(i64::MAX as u64),
        6 => u(y % 1000 + 1),
        7 => u(y | 1),
        8 => u(1 << (y % 64)),
        9 => two_pow(64),
        10 => two_pow(64) + u(1),
        _ => BigInt::from(BigUint::from(3u64).pow(50)),
    }
}

const DENOMINATOR_KINDS: usize = 12;

/// An operand built three ways where they apply: `from_int`/`from_ratio`
/// for machine-word inputs, `from_bigint_ratio` otherwise.
fn operand((nk, x, dk, y): (usize, u64, usize, u64)) -> (Rational, Exact) {
    let (num, den) = (numerator(nk, x), denominator(dk, y));
    let exact = Exact::new(num.clone(), den.clone());
    let rational = match (num.to_i64(), den.to_i64()) {
        (Some(n), Some(1)) if y % 2 == 0 => Rational::from_int(n),
        (Some(n), Some(d)) if y % 3 == 0 => Rational::from_ratio(n, d),
        (Some(n), Some(d)) if y % 3 == 1 && n != i64::MIN => Rational::from_ratio(-n, -d),
        _ => Rational::from_bigint_ratio(num, den),
    };
    (rational, exact)
}

fn operand_strategy() -> (
    std::ops::Range<usize>,
    proptest::AnyStrategy<u64>,
    std::ops::Range<usize>,
    proptest::AnyStrategy<u64>,
) {
    (
        0..NUMERATOR_KINDS,
        any::<u64>(),
        0..DENOMINATOR_KINDS,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn operands_are_canonical(draw in operand_strategy()) {
        let (a, e) = operand(draw);
        check(&a, &e, "operand")?;
        check(&-&a, &Exact::new(-e.num.clone(), e.den.clone()), "neg")?;
        check(&a.abs(), &Exact::new(e.num.abs(), e.den.clone()), "abs")?;
        if !a.is_zero() {
            check(&a.recip(), &Exact::new(e.den.clone(), e.num.clone()), "recip")?;
        }
        prop_assert_eq!(a.floor(), e.floor());
        prop_assert_eq!(a.ceil(), e.ceil());
        prop_assert_eq!(a.to_f64().to_bits(), e.to_f64().to_bits(), "to_f64 of {}", a);
        prop_assert_eq!(a.is_integer(), e.den == BigInt::one());
        prop_assert_eq!(Rational::parse(&a.to_string()), Some(a.clone()));
    }

    #[test]
    fn binary_ops_match_the_reference(
        left in operand_strategy(),
        right in operand_strategy(),
    ) {
        let (a, ea) = operand(left);
        let (b, eb) = operand(right);
        check(&(&a + &b), &ea.add(&eb), "add")?;
        check(&(&a - &b), &ea.sub(&eb), "sub")?;
        check(&(&a * &b), &ea.mul(&eb), "mul")?;
        if !b.is_zero() {
            check(&(&a / &b), &ea.div(&eb), "div")?;
        }
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb), "cmp {} {}", a, b);
        prop_assert_eq!(a == b, ea.cmp(&eb) == Ordering::Equal);
    }

    #[test]
    fn powers_match_the_reference(draw in operand_strategy(), exp in -5i32..=5) {
        let (a, e) = operand(draw);
        if a.is_zero() && exp < 0 {
            return Ok(());
        }
        let want = if exp >= 0 {
            e.pow(exp as u32)
        } else {
            let p = e.pow(exp.unsigned_abs());
            Exact::new(p.den, p.num)
        };
        check(&a.pow(exp), &want, "pow")?;
    }

    #[test]
    fn multi_limb_gcd_matches_euclid(
        g in proptest::collection::vec(any::<u64>(), 1..4),
        a in proptest::collection::vec(any::<u64>(), 0..4),
        b in proptest::collection::vec(any::<u64>(), 0..4),
        twos in 0u64..130,
    ) {
        let g = BigUint::from_limbs(g).shl_bits(twos);
        let a = &g * &BigUint::from_limbs(a);
        let b = &g * &BigUint::from_limbs(b).shl_bits(twos / 3);
        let want = euclid_gcd(&a, &b);
        prop_assert_eq!(a.gcd(&b), want.clone());
        prop_assert_eq!(b.gcd(&a), want);
    }
}

#[test]
fn sums_that_overflow_i128_are_exact() {
    // Each cross product is just below 2¹²⁷; their sum is not.
    let a = Rational::from_bigint_ratio(BigInt::from(i64::MAX), BigInt::from(u64::MAX));
    let b = Rational::from_bigint_ratio(BigInt::from(i64::MAX - 2), BigInt::from(u64::MAX - 1));
    let ea = Exact::new(BigInt::from(i64::MAX), BigInt::from(u64::MAX));
    let eb = Exact::new(BigInt::from(i64::MAX - 2), BigInt::from(u64::MAX - 1));
    check(&(&a + &b), &ea.add(&eb), "add").unwrap();
    check(
        &(-&a - &b),
        &Exact::new(BigInt::zero(), BigInt::one()).sub(&ea).sub(&eb),
        "sub",
    )
    .unwrap();
    assert!(a > b && -&a < -&b);
}

#[test]
fn a_big_computation_that_reduces_to_a_small_value_is_small() {
    let two_70 = Rational::from_bigint(two_pow(70));
    let big = &two_70 / &Rational::from_int(3);
    let product = &big * &Rational::from_int(3).div_ref(&two_70);
    assert_eq!(product, Rational::one());
    assert_eq!(hash_of(&product), hash_of(&Rational::one()));
    assert!(product.is_one());
    let difference = &(&big + &Rational::half()) - &big;
    assert_eq!(difference, Rational::half());
    assert_eq!(hash_of(&difference), hash_of(&Rational::half()));
    assert!((&big - &big).is_zero());
}

#[test]
fn i64_min_is_big_and_its_neighbours_are_exact() {
    let min = Rational::from_int(i64::MIN);
    assert_eq!(min, Rational::from_ratio(i64::MIN, 1));
    assert_eq!(min.to_string(), "-9223372036854775808");
    assert_eq!(
        Rational::from_ratio(i64::MIN, -1).to_string(),
        "9223372036854775808"
    );
    assert_eq!(-&min, Rational::from_ratio(i64::MIN, -1));
    assert_eq!(
        Rational::from_ratio(i64::MIN, 2),
        Rational::from_int(-(1 << 62))
    );
    assert_eq!(&min + &Rational::one(), Rational::from_int(i64::MIN + 1));
    assert_eq!(min.floor().to_i64(), Some(i64::MIN));
    assert_eq!(Rational::from_int(-2).pow(63), min);
    assert_eq!(
        Rational::from_int(-2).pow(64).to_string(),
        "18446744073709551616"
    );
}
