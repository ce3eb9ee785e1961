//! Differential harness for the box sweep: `SymbolicPath::try_sweep_boxes`,
//! which re-checks on each box only the undecided constraints its bisection
//! can change, must agree *exactly* with the sweep that checks every
//! constraint on every box (`reference_sweep` below, the loop the engine ran
//! before the incremental sweep) — the same total as an exact rational, the
//! same boxes proven inside in the same order, and the same interruption
//! point when the poll hook fails — on random constraint systems and on the
//! non-affine paths of real programs.

use probterm_intervalsem::{
    explore, ConstraintKind, ExplorationConfig, Poll, SymConstraint, SymValue, SymbolicPath,
};
use probterm_numerics::{IntervalBox, Rational};
use probterm_spcf::{parse_term, Prim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The sweep as it ran before boxes carried their undecided constraints:
/// every constraint is checked on every box, the widest dimension is
/// bisected, and an accepted box adds its own volume. Also returns the boxes
/// proven inside, in order.
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

/// One sweep's observable outcome: the total, the poll at which the hook
/// failed (if it did), how many polls the hook saw, and the inside boxes.
type Outcome = (Rational, Option<usize>, usize, Vec<IntervalBox>);

/// A poll hook that counts its calls in `polls` and fails at the
/// `fail_at`-th `Poll::Sweep` (never, for `None`).
fn failing_hook(
    polls: &mut usize,
    fail_at: Option<usize>,
) -> impl FnMut(Poll<'_>) -> Result<(), usize> + '_ {
    move |poll| {
        assert!(matches!(poll, Poll::Sweep), "the sweep only sends Poll::Sweep");
        *polls += 1;
        if Some(*polls) == fail_at {
            Err(*polls)
        } else {
            Ok(())
        }
    }
}

/// Runs the reference and the incremental sweep with the same hook.
fn both_sweeps(path: &SymbolicPath, max_boxes: usize, fail_at: Option<usize>) -> (Outcome, Outcome) {
    let mut polls = 0;
    let (total, failed, inside) =
        reference_sweep(path, max_boxes, &mut failing_hook(&mut polls, fail_at));
    let reference = (total, failed, polls, inside);
    let mut polls = 0;
    let mut inside = Vec::new();
    let (total, failed) = path.try_sweep_boxes(
        max_boxes,
        &mut failing_hook(&mut polls, fail_at),
        &mut |cube| inside.push(cube.clone()),
    );
    (reference, (total, failed, polls, inside))
}

const BUDGETS: [usize; 6] = [1, 63, 64, 65, 500, 2000];
/// Hook failures at these polls, under a 500-box budget (which polls 7 times).
const FAIL_AT: [usize; 3] = [1, 2, 7];

/// Asserts the two sweeps agree on `path` for every budget and every hook
/// failure point; `what` names the path in failure messages.
fn assert_sweeps_agree(what: &str, path: &SymbolicPath) -> Result<(), String> {
    for budget in BUDGETS {
        let (reference, incremental) = both_sweeps(path, budget, None);
        prop_assert_eq!(incremental, reference, "{} with {} boxes", what, budget);
    }
    for j in FAIL_AT {
        let (reference, incremental) = both_sweeps(path, 500, Some(j));
        prop_assert_eq!(incremental, reference, "{} interrupted at poll {}", what, j);
    }
    Ok(())
}

// ------------------------------------------------------ random constraints

fn random_ratio(rng: &mut StdRng) -> Rational {
    Rational::from_ratio(rng.gen_range(-6i64..7), rng.gen_range(1i64..5))
}

/// A random symbolic value of at most `depth` nested primitives over the
/// variables `vars` (a constant when `vars` is empty). `exp` gets an
/// argument of depth at most 1 without `exp`, so no enclosure overflows
/// a float.
fn random_value(rng: &mut StdRng, depth: usize, vars: &[usize], allow_exp: bool) -> SymValue {
    let leaf = depth == 0 || rng.gen_range(0u32..3) == 0;
    if leaf {
        return if vars.is_empty() || rng.gen_range(0u32..3) == 0 {
            SymValue::Const(random_ratio(rng))
        } else {
            SymValue::Var(vars[rng.gen_range(0usize..vars.len())])
        };
    }
    let prims = [
        Prim::Add,
        Prim::Sub,
        Prim::Mul,
        Prim::Neg,
        Prim::Min,
        Prim::Max,
        Prim::Abs,
        Prim::Floor,
        Prim::Exp,
        Prim::Log,
        Prim::Sig,
    ];
    let mut prim = prims[rng.gen_range(0usize..prims.len())];
    if prim == Prim::Exp && !allow_exp {
        prim = Prim::Sig;
    }
    let args = (0..prim.arity())
        .map(|_| match prim {
            Prim::Exp => random_value(rng, depth.min(2) - 1, vars, false),
            // An enclosure reaching 0 fails the constraint on the whole box,
            // so most `log`s get an argument that is positive everywhere.
            Prim::Log if rng.gen_range(0u32..4) != 0 => {
                let inner = random_value(rng, depth - 1, vars, allow_exp);
                let abs = SymValue::Prim(Prim::Abs, vec![inner]);
                let floor = SymValue::Const(Rational::from_ratio(1, 8));
                SymValue::Prim(Prim::Add, vec![abs, floor])
            }
            _ => random_value(rng, depth - 1, vars, allow_exp),
        })
        .collect();
    SymValue::Prim(prim, args)
}

/// A random path: 1–12 sample variables, some possibly unused, and 1–8
/// constraints of every kind, each over 0–3 of the variables. Most
/// constraints are anchored at one random point `p` of the cube — a random
/// value `f` becomes `f − f(p) ∓ δ` with the kind `p` satisfies — so their
/// boundaries cross the cube and the region around `p` is not empty; the
/// rest are unanchored and often fail on the whole cube.
fn random_path(rng: &mut StdRng) -> SymbolicPath {
    let sample_count = rng.gen_range(1usize..13);
    // Constraints draw from a prefix, a suffix or a random scatter of the
    // dimensions, so unused dimensions sit anywhere in the bisection order.
    let pool: Vec<usize> = match rng.gen_range(0u32..3) {
        0 => (0..rng.gen_range(1..sample_count + 1)).collect(),
        1 => (rng.gen_range(0..sample_count)..sample_count).collect(),
        _ => (0..sample_count).filter(|_| rng.gen_range(0u32..2) == 0).collect(),
    };
    let point: Vec<Rational> =
        (0..sample_count).map(|_| Rational::from_ratio(rng.gen_range(1i64..16), 16)).collect();
    let constraints = (0..rng.gen_range(1usize..9))
        .map(|_| {
            let arity = if pool.is_empty() { 0 } else { rng.gen_range(0usize..4) };
            let vars: Vec<usize> =
                (0..arity).map(|_| pool[rng.gen_range(0usize..pool.len())]).collect();
            let kind = match rng.gen_range(0u32..3) {
                0 => ConstraintKind::NonPositive,
                1 => ConstraintKind::Positive,
                _ => ConstraintKind::NonNegative,
            };
            let value = random_value(rng, 3, &vars, true);
            let anchor = value.eval(&point).filter(|_| rng.gen_range(0u32..10) != 0);
            let Some(at_point) = anchor else { return SymConstraint { value, kind } };
            // δ = 0 puts `p` on the boundary itself.
            let delta = [Rational::zero(), Rational::from_ratio(1, 16), Rational::from_ratio(1, 4)]
                [rng.gen_range(0usize..3)]
            .clone();
            let shift = match kind {
                ConstraintKind::NonPositive => &at_point + &delta,
                ConstraintKind::Positive if delta.is_zero() => &at_point - &Rational::from_ratio(1, 64),
                ConstraintKind::Positive | ConstraintKind::NonNegative => &at_point - &delta,
            };
            let value = SymValue::Prim(Prim::Sub, vec![value, SymValue::Const(shift)]);
            SymConstraint { value, kind }
        })
        .collect();
    SymbolicPath { sample_count, branches: Vec::new(), constraints, steps: 0, result: None }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random constraint systems sweep identically under every budget and
    /// every interruption point.
    #[test]
    fn random_constraint_systems_sweep_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let path = random_path(&mut rng);
        let constraints: Vec<String> = path.constraints.iter().map(ToString::to_string).collect();
        let what = format!("seed {seed}: n = {}, {constraints:?}", path.sample_count);
        assert_sweeps_agree(&what, &path)?;
    }
}

fn collect_vars(value: &SymValue, out: &mut Vec<usize>) {
    match value {
        SymValue::Const(_) => {}
        SymValue::Var(i) => out.push(*i),
        SymValue::Prim(_, args) => args.iter().for_each(|a| collect_vars(a, out)),
    }
}

#[test]
fn generated_systems_cover_every_shape() {
    // The generator must actually produce what the property claims to cover.
    let (mut multivariate, mut constant, mut unused, mut kinds) = (false, false, false, [false; 3]);
    // Sweeps cut by the 2000-box budget after proving some box inside, and
    // sweeps that decide every box before the budget runs out.
    let (mut cut_with_mass, mut finished) = (0, 0);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let path = random_path(&mut rng);
        let mut polls = 0;
        let (_, _, inside) =
            reference_sweep::<usize>(&path, 2000, &mut failing_hook(&mut polls, None));
        if polls == 31 && !inside.is_empty() {
            cut_with_mass += 1;
        } else if polls < 31 {
            finished += 1;
        }
        let mut used = vec![false; path.sample_count];
        for c in &path.constraints {
            let mut vars = Vec::new();
            collect_vars(&c.value, &mut vars);
            vars.sort_unstable();
            vars.dedup();
            multivariate |= vars.len() > 1;
            constant |= vars.is_empty();
            vars.iter().for_each(|&v| used[v] = true);
            kinds[c.kind as usize] = true;
        }
        unused |= used.contains(&false);
    }
    assert!(multivariate && constant && unused && kinds == [true; 3]);
    assert!(cut_with_mass >= 10 && finished >= 10, "{cut_with_mass} cut, {finished} finished");
}

// ------------------------------------------------------------ real programs

#[test]
fn non_affine_program_paths_sweep_identically() {
    // Non-affine guards of the kinds the benchmark families use, plus a
    // transcendental one; every terminated path whose volume is not exact
    // goes through the sweep.
    let programs = [
        "(fix f x. if sample * sample <= 1/4 then x else f (x + 1)) 0",
        "(fix f x. if sample * sample + sample <= 1/2 then x else f (f (x + 1))) 0",
        "(fix f x. if sample * sample * sample <= 1/8 then x else f (x + 2)) 1",
        "(fix f x. if sig (3 * sample - 1) <= 1/2 then x else f (f (x + 1))) 0",
    ];
    let mut swept = 0;
    for source in programs {
        let term = parse_term(source).expect("the program parses");
        let config = ExplorationConfig::default().with_max_steps_per_path(30).with_max_paths(200);
        for path in explore(&term, &config).terminated {
            if path.exact_probability().is_none() {
                swept += 1;
                assert_sweeps_agree(&format!("`{source}`"), &path).unwrap();
            }
        }
    }
    assert!(swept >= 8, "only {swept} non-affine paths were swept");
}

