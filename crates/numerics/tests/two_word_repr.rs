//! Seeded property test of `Rational`'s two-word representation: an inline
//! `i64`/nonzero-`u64` pair, or one boxed big numerator and denominator.
//!
//! Operands straddle the boundary between the two forms: numerators at
//! `±(2⁶³ − 1)` and just past it, denominators near `2⁶⁴` on both sides, and
//! products that overflow the words and then reduce back into them. Every
//! result is compared with a reference built from `BigInt` numerators and
//! denominators alone: the value, `Ord`, `Display` and `parse`, and the
//! directed conversions `to_f64_down`/`to_f64_up`, which the reference finds
//! by stepping floats until they bracket the exact value. Equal values must
//! have one representation: the same `Debug` form and the same hash as the
//! value rebuilt from an unreduced big ratio.
//!
//! `scripts/ci.sh` runs the numerics suites in release too, where integer
//! overflow wraps instead of panicking.

use probterm_numerics::{BigInt, BigUint, Rational};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

// ------------------------------------------------------------ the reference

/// An exact rational as a reduced `BigInt` pair with a positive denominator.
#[derive(Clone, Debug)]
struct Exact {
    num: BigInt,
    den: BigInt,
}

impl Exact {
    fn new(num: BigInt, den: BigInt) -> Exact {
        assert!(!den.is_zero());
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        let mut a = num.magnitude().clone();
        let mut b = den.magnitude().clone();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        let g = BigInt::from(a);
        Exact { num: num.div_rem(&g).0, den: den.div_rem(&g).0 }
    }

    fn add(&self, o: &Exact) -> Exact {
        Exact::new(&(&self.num * &o.den) + &(&o.num * &self.den), &self.den * &o.den)
    }

    fn mul(&self, o: &Exact) -> Exact {
        Exact::new(&self.num * &o.num, &self.den * &o.den)
    }

    fn cmp(&self, o: &Exact) -> Ordering {
        (&self.num * &o.den).cmp(&(&o.num * &self.den))
    }

    /// The exact value of a finite float.
    fn of_f64(f: f64) -> Exact {
        let bits = f.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let fraction = bits & ((1 << 52) - 1);
        let (mantissa, exponent) = match exponent {
            0 => (fraction, -1074),
            e => (fraction | (1 << 52), e - 1075),
        };
        let magnitude = BigInt::from(mantissa);
        let signed = if f < 0.0 { -magnitude } else { magnitude };
        let power = BigInt::from(BigUint::from(2u64).pow(exponent.unsigned_abs() as u32));
        if exponent >= 0 {
            Exact::new(&signed * &power, BigInt::one())
        } else {
            Exact::new(signed, power)
        }
    }

    /// The largest float at most the value and the smallest at least it,
    /// found by stepping a nearby float until the two bracket the value.
    /// (Operands here stay far inside the normal float range.)
    fn f64_bounds(&self) -> [f64; 2] {
        let mut down = self.num.to_f64() / self.den.to_f64();
        while Exact::of_f64(down).cmp(self) == Ordering::Greater {
            down = down.next_down();
        }
        while Exact::of_f64(down.next_up()).cmp(self) != Ordering::Greater {
            down = down.next_up();
        }
        let exact = Exact::of_f64(down).cmp(self) == Ordering::Equal;
        let up = if exact { down } else { down.next_up() };
        [down, up]
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

/// `r` has the value of `e` and its one representation: it prints, parses
/// back, converts to floats and compares like `e`, and it equals, hashes and
/// debug-prints like the value rebuilt from an unreduced big ratio.
fn check(r: &Rational, e: &Exact, what: &str) -> Result<(), String> {
    let expected = e.display();
    if r.to_string() != expected {
        return Err(format!("{what}: got {r}, want {expected}"));
    }
    if Rational::parse(&expected).as_ref() != Some(r) {
        return Err(format!("{what}: {expected} does not parse back to {r}"));
    }
    let k = BigInt::from(BigUint::from(7u64).pow(30));
    let rebuilt = Rational::from_bigint_ratio(&e.num * &k, &e.den * &k);
    let same_form = format!("{r:?}") == format!("{rebuilt:?}");
    if *r != rebuilt || hash_of(r) != hash_of(&rebuilt) || !same_form {
        return Err(format!("{what}: two representations of {r}: {r:?} and {rebuilt:?}"));
    }
    let bounds = [r.to_f64_down(), r.to_f64_up()];
    if bounds != e.f64_bounds() {
        return Err(format!("{what}: {r} brackets as {bounds:?}, want {:?}", e.f64_bounds()));
    }
    Ok(())
}

// ------------------------------------------------------------- the operands

fn two_pow(k: u32) -> BigInt {
    BigInt::from(BigUint::from(2u64).pow(k))
}

/// Numerators at `±(2⁶³ − 1)`, the largest small magnitude, and around it.
fn numerator(kind: u64, x: u64) -> BigInt {
    let i = |v: i64| BigInt::from(v);
    match kind % 10 {
        0 => i(i64::MAX),
        1 => i(-i64::MAX),
        2 => i(i64::MAX - (x % 8) as i64),
        3 => -i(i64::MAX - (x % 8) as i64),
        4 => two_pow(63) + i((x % 4) as i64),
        5 => -two_pow(63) - i((x % 4) as i64),
        6 => i((x >> 1) as i64),
        7 => i((x % 2001) as i64 - 1000),
        8 => BigInt::from(u64::MAX - x % 16),
        _ => i(-((x >> 1) as i64)),
    }
}

/// Denominators near `2⁶⁴`, the edge of the small form, on both sides.
fn denominator(kind: u64, y: u64) -> BigInt {
    let u = |v: u64| BigInt::from(v);
    match kind % 9 {
        0 => u(u64::MAX),
        1 => u(u64::MAX - y % 64),
        2 => u(u64::MAX - 58), // the largest prime below 2⁶⁴
        3 => two_pow(64),
        4 => two_pow(64) + u(1 + y % 64),
        5 => u(1 << 63),
        6 => u((y | 1) >> (y % 32)),
        7 => u(y % 1000 + 1),
        _ => u(1),
    }
}

fn operand(nk: u64, x: u64, dk: u64, y: u64) -> (Rational, Exact) {
    let (num, den) = (numerator(nk, x), denominator(dk, y));
    (Rational::from_bigint_ratio(num.clone(), den.clone()), Exact::new(num, den))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn boundary_values_have_one_representation_and_the_reference_value(
        left in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        right in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (a, ea) = operand(left.0, left.1, left.2, left.3);
        let (b, eb) = operand(right.0, right.1, right.2, right.3);
        check(&a, &ea, "operand")?;
        check(&(&a + &b), &ea.add(&eb), "add")?;
        check(&(&a - &b), &ea.add(&Exact::new(-eb.num.clone(), eb.den.clone())), "sub")?;
        let product = &a * &b;
        check(&product, &ea.mul(&eb), "mul")?;
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb), "cmp {} {}", a, b);
        prop_assert_eq!(a == b, ea.cmp(&eb) == Ordering::Equal);
        if !b.is_zero() {
            // The product overflows the words whenever both factors are
            // near the edge; dividing the factor back out must land on the
            // very representation `a` has.
            let back = &product / &b;
            check(&back, &ea, "mul then div")?;
            prop_assert_eq!(format!("{back:?}"), format!("{a:?}"));
            prop_assert_eq!(hash_of(&back), hash_of(&a));
        }
        // A sum that leaves the words and a difference that returns.
        let there_and_back = &(&a + &b) - &b;
        prop_assert_eq!(format!("{there_and_back:?}"), format!("{a:?}"));
    }
}

#[test]
fn the_edge_of_the_small_form_is_where_the_docs_put_it() {
    let max = Rational::from_int(i64::MAX);
    let over = &max + &Rational::one();
    let den = Rational::from_bigint_ratio(BigInt::one(), BigInt::from(u64::MAX));
    let over_den = Rational::from_bigint_ratio(BigInt::one(), two_pow(64));
    // A value that fits prints like an `i64`/`u64` pair and is stored inline;
    // one step past the edge is stored big, and one step back is inline again.
    assert!(format!("{max:?}").contains("Small"));
    assert!(format!("{:?}", -&max).contains("Small"));
    assert!(format!("{over:?}").contains("Big"));
    assert!(format!("{:?}", &over - &Rational::one()).contains("Small"));
    assert!(format!("{den:?}").contains("Small"));
    assert!(format!("{over_den:?}").contains("Big"));
    assert!(format!("{:?}", &over_den * &Rational::from_int(2)).contains("Small"));
}
