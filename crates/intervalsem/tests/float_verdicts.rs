//! Oracle test for the float-first box check.
//!
//! `SymConstraint::check_box` reads its verdict off `f64` brackets of the
//! exact enclosure's endpoints and runs exact rational arithmetic only when
//! the brackets leave the verdict open. Either way the verdict must be the
//! one the exact enclosure `SymValue::eval_interval` gives, computed here by
//! `exact_verdict`. The random systems lean on the cases floats get wrong:
//! constants that are not floats (1/3, 7/10) or not small, point boxes, and
//! products of 30-bit dyadic endpoints compared with their own product
//! rounded to nearest, so that an unwidened float product would land exactly
//! on the threshold.
//!
//! The sweep keeps its boxes as float endpoints until a bisection's midpoint
//! is not a float, and from then on as rationals. A one-dimensional path
//! whose boundary is irrational is bisected far past 53 splits; its sweep
//! must equal the reference loop (every constraint on every exact box).

use probterm_intervalsem::{ConstraintKind, Poll, SymConstraint, SymValue, SymbolicPath};
use probterm_numerics::{Interval, IntervalBox, Rational};
use probterm_spcf::Prim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The verdict of `check_box` from the exact enclosure `[L, H]`: for `≤ 0`
/// true when `H ≤ 0` and false when `L > 0`, and likewise for the other
/// kinds; undecided when no enclosure is known (here only where `exp`
/// overflows: the values below apply no `log`).
fn exact_verdict(c: &SymConstraint, cube: &IntervalBox) -> Option<bool> {
    let iv = c.value.eval_interval(cube)?;
    let (lo, hi) = (iv.lo(), iv.hi());
    match c.kind {
        ConstraintKind::NonPositive if !hi.is_positive() => Some(true),
        ConstraintKind::NonPositive if lo.is_positive() => Some(false),
        ConstraintKind::Positive if lo.is_positive() => Some(true),
        ConstraintKind::Positive if !hi.is_positive() => Some(false),
        ConstraintKind::NonNegative if !lo.is_negative() => Some(true),
        ConstraintKind::NonNegative if hi.is_negative() => Some(false),
        _ => None,
    }
}

fn two_pow(e: i32) -> Rational {
    Rational::from_int(2).pow(e)
}

/// A 30-bit dyadic in `[0, 1]`: a float whose products with another such
/// need up to 60 bits.
fn dyadic30(rng: &mut StdRng) -> Rational {
    Rational::from_ratio(rng.gen_range(0i64..(1 << 30) + 1), 1 << 30)
}

fn random_constant(rng: &mut StdRng) -> Rational {
    match rng.gen_range(0u32..7) {
        0 => Rational::from_ratio(rng.gen_range(-6i64..7), rng.gen_range(1i64..5)),
        1 => [
            Rational::from_ratio(1, 3),
            Rational::from_ratio(7, 10),
            Rational::from_ratio(-2, 7),
            Rational::from_ratio(1, 10),
        ][rng.gen_range(0usize..4)]
        .clone(),
        2 => Rational::from_ratio(rng.gen_range(-1000i64..1000), rng.gen_range(1i64..1000)),
        // Big rationals, on both sides of the float range's middle.
        3 => &two_pow(70) + &Rational::from_ratio(1, 3),
        4 => Rational::from_ratio(1, 3) * two_pow(-70),
        // Small, but the numerator is not a float.
        5 => Rational::from_ratio((1 << 62) + 2 * rng.gen_range(0i64..1000) + 1, 3),
        _ => dyadic30(rng),
    }
}

/// A random value of at most `depth` nested primitives over `n` variables.
/// Every primitive floats can follow, plus `exp` and `sig`, which they
/// cannot (the check then falls back to exact arithmetic).
fn random_value(rng: &mut StdRng, depth: usize, n: usize) -> SymValue {
    if depth == 0 || rng.gen_range(0u32..4) == 0 {
        return if rng.gen_range(0u32..3) == 0 {
            SymValue::Const(random_constant(rng))
        } else {
            SymValue::Var(rng.gen_range(0..n))
        };
    }
    let prims = [
        Prim::Add,
        Prim::Sub,
        Prim::Mul,
        Prim::Mul,
        Prim::Neg,
        Prim::Abs,
        Prim::Min,
        Prim::Max,
        Prim::Floor,
        Prim::Exp,
        Prim::Sig,
    ];
    let prim = prims[rng.gen_range(0..prims.len())];
    let inner = if prim == Prim::Exp { 0 } else { depth - 1 };
    SymValue::Prim(prim, (0..prim.arity()).map(|_| random_value(rng, inner, n)).collect())
}

/// A random box: each side a point (a float or not), a 30-bit dyadic
/// interval, a box of the sweep at depth up to 60, or the unit interval.
fn random_box(rng: &mut StdRng, n: usize) -> IntervalBox {
    (0..n)
        .map(|_| match rng.gen_range(0u32..5) {
            0 => Interval::point(Rational::from_ratio(
                rng.gen_range(-20i64..21),
                rng.gen_range(1i64..8),
            )),
            1 => Interval::point(dyadic30(rng)),
            2 => {
                let (a, b) = (dyadic30(rng), dyadic30(rng));
                Interval::new(a.clone().min(b.clone()), a.max(b))
            }
            3 => {
                let t = rng.gen_range(1i32..61);
                let k = rng.gen_range(0u64..u64::MAX) >> (64 - t);
                let lo = Rational::from_int(k as i64) * two_pow(-t);
                Interval::new(lo.clone(), &lo + &two_pow(-t))
            }
            _ => Interval::unit(),
        })
        .collect()
}

fn random_kind(rng: &mut StdRng) -> ConstraintKind {
    [ConstraintKind::NonPositive, ConstraintKind::Positive, ConstraintKind::NonNegative]
        [rng.gen_range(0usize..3)]
}

/// `±(αi·αj − c)` on a box of 30-bit dyadics in `[0, 1]`, where `c` is one
/// of the product's endpoints rounded to nearest: the exact endpoint misses
/// the threshold by less than an ulp of `c`, or hits it.
fn tight_constraint(rng: &mut StdRng, cube: &IntervalBox) -> SymConstraint {
    let n = cube.dim();
    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
    let end = |iv: &Interval, upper: bool| if upper { iv.hi().clone() } else { iv.lo().clone() };
    let upper = rng.gen_range(0u32..2) == 0;
    let (a, b) = (end(&cube.intervals()[i], upper), end(&cube.intervals()[j], upper));
    let c = Rational::from_f64_exact(a.to_f64() * b.to_f64());
    let product = SymValue::Prim(Prim::Mul, vec![SymValue::Var(i), SymValue::Var(j)]);
    let mut value = SymValue::Prim(Prim::Sub, vec![product, SymValue::Const(c)]);
    if rng.gen_range(0u32..2) == 0 {
        value = SymValue::Prim(Prim::Neg, vec![value]);
    }
    SymConstraint { value, kind: random_kind(rng) }
}

#[test]
fn check_box_matches_the_exact_enclosure() {
    let mut rng = StdRng::seed_from_u64(2021);
    let (mut checks, mut decided, mut near_misses) = (0usize, 0usize, 0usize);
    for _ in 0..3000 {
        let n = rng.gen_range(1usize..5);
        let cube = random_box(&mut rng, n);
        let c = SymConstraint { value: random_value(&mut rng, 4, n), kind: random_kind(&mut rng) };
        let verdict = c.check_box(&cube);
        assert_eq!(verdict, exact_verdict(&c, &cube), "{c} on {cube}");
        checks += 1;
        decided += usize::from(verdict.is_some());
    }
    for _ in 0..3000 {
        let n = rng.gen_range(1usize..4);
        let cube: IntervalBox = (0..n)
            .map(|_| {
                if rng.gen_range(0u32..2) == 0 {
                    Interval::point(dyadic30(&mut rng))
                } else {
                    let (a, b) = (dyadic30(&mut rng), dyadic30(&mut rng));
                    Interval::new(a.clone().min(b.clone()), a.max(b))
                }
            })
            .collect();
        let c = tight_constraint(&mut rng, &cube);
        let verdict = c.check_box(&cube);
        assert_eq!(verdict, exact_verdict(&c, &cube), "{c} on {cube}");
        checks += 1;
        decided += usize::from(verdict.is_some());
        // An endpoint that misses 0 by less than the rounding of the
        // product: rounded to nearest and not widened, floats would put it
        // on 0.
        let iv = c.value.eval_interval(&cube).expect("no transcendental");
        let tiny = two_pow(-52);
        let close = |e: &Rational| !e.is_zero() && e.abs() < tiny;
        near_misses += usize::from(close(iv.lo()) || close(iv.hi()));
    }
    assert!(near_misses >= 1000, "only {near_misses} endpoints within 2⁻⁵² of 0");
    assert!(decided >= checks / 2, "only {decided} of {checks} checks decided");
}

// ------------------------------------------------------- sweeps past 2⁻⁵³

/// The sweep as it ran before boxes carried their undecided constraints or
/// float endpoints, verbatim from `sweep_differential.rs`: every constraint
/// is checked on every box, the widest dimension is bisected, and an
/// accepted box adds its own volume. Also returns the boxes proven inside.
fn reference_sweep<E>(
    path: &SymbolicPath,
    max_boxes: usize,
    check: &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
) -> (Rational, Option<E>, Vec<IntervalBox>) {
    let mut inside = Vec::new();
    let mut total = Rational::zero();
    let mut queue: VecDeque<IntervalBox> = VecDeque::new();
    queue.push_back(IntervalBox::unit(path.sample_count));
    let mut processed = 0usize;
    while let Some(cube) = queue.pop_front() {
        processed += 1;
        if processed > max_boxes {
            break;
        }
        if processed % 64 == 0 {
            if let Err(e) = check(Poll::Sweep) {
                return (total, Some(e), inside);
            }
        }
        let mut all_hold = true;
        let mut any_fail = false;
        for c in &path.constraints {
            match c.check_box(&cube) {
                Some(true) => {}
                Some(false) => {
                    any_fail = true;
                    break;
                }
                None => all_hold = false,
            }
        }
        if any_fail {
            continue;
        }
        if all_hold {
            total += cube.volume();
            inside.push(cube);
            continue;
        }
        match cube.bisect_widest() {
            Some((a, b)) => {
                queue.push_back(a);
                queue.push_back(b);
            }
            None => continue,
        }
    }
    (total, None, inside)
}

fn constraint(value: SymValue, kind: ConstraintKind) -> SymConstraint {
    SymConstraint { value, kind }
}

#[test]
fn sweeps_past_53_splits_match_the_reference_loop() {
    let x = || SymValue::Var(0);
    let c = |r: Rational| SymValue::Const(r);
    let mul = |a, b| SymValue::Prim(Prim::Mul, vec![a, b]);
    let sub = |a, b| SymValue::Prim(Prim::Sub, vec![a, b]);
    // Boundaries at 1/√2, at 1/3 and at the root of x³ + x − 7/10: none is
    // dyadic, so the box around each is bisected until the budget runs out.
    let systems = [
        vec![constraint(sub(mul(x(), x()), c(Rational::half())), ConstraintKind::NonPositive)],
        vec![constraint(
            sub(mul(x(), c(Rational::from_int(3))), c(Rational::one())),
            ConstraintKind::Positive,
        )],
        vec![
            constraint(
                sub(
                    SymValue::Prim(Prim::Add, vec![mul(mul(x(), x()), x()), x()]),
                    c(Rational::from_ratio(7, 10)),
                ),
                ConstraintKind::NonNegative,
            ),
            constraint(sub(x(), c(Rational::from_ratio(1, 10))), ConstraintKind::Positive),
        ],
    ];
    for constraints in systems {
        let path = SymbolicPath {
            sample_count: 1,
            branches: Vec::new(),
            constraints,
            steps: 0,
            result: None,
        };
        for budget in [64, 300] {
            let (total, _, boxes) = reference_sweep::<()>(&path, budget, &mut |_| Ok(()));
            let mut inside = Vec::new();
            let (swept, failed) =
                path.try_sweep_boxes::<()>(budget, &mut |_| Ok(()), &mut |cube| {
                    inside.push(cube.clone())
                });
            assert!(failed.is_none());
            assert_eq!(swept, total, "{:?} with {budget} boxes", path.constraints);
            assert_eq!(inside, boxes, "{:?} with {budget} boxes", path.constraints);
        }
        // Two or four boxes per level: the budget takes the sweep well
        // below the float grid's 2⁻⁵³.
        let (_, _, boxes) = reference_sweep::<()>(&path, 300, &mut |_| Ok(()));
        let finest = boxes.iter().map(|b| b.intervals()[0].width()).min().unwrap();
        assert!(finest < two_pow(-70), "the finest accepted box is only {finest} wide");
    }
}
