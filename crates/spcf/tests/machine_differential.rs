//! Property-based differential testing of the environment machine against the
//! substitution-based reference semantics (via the seeded `proptest` shim).
//!
//! For random catalogue terms × random finite traces × both strategies, the
//! machine and the reference stepper must agree on the *entire* [`Run`]:
//! outcome (including stuck reasons and `OutOfFuel` residual terms), step
//! count and sample count. Trace prefixes of a terminating run exercise the
//! `TraceExhausted` path; tight step budgets exercise residualization.

use probterm_spcf::{catalog, run_machine, run_substitution, FixedTrace, Run, Strategy, Term};
use proptest::prelude::*;

fn catalogue() -> Vec<Term> {
    let mut all = catalog::table1_benchmarks();
    all.extend(catalog::table2_benchmarks());
    all.push(catalog::triangle_example());
    all.into_iter().map(|b| b.term).collect()
}

fn run_both(
    strategy: Strategy,
    term: &Term,
    ratios: &[(i64, i64)],
    max_steps: usize,
) -> (Run, Run) {
    let mut machine_trace = FixedTrace::from_ratios(ratios);
    let mut reference_trace = FixedTrace::from_ratios(ratios);
    (
        run_machine(strategy, term, &mut machine_trace, max_steps),
        run_substitution(strategy, term, &mut reference_trace, max_steps),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Machine ≡ reference on random catalogue terms and traces, both
    /// strategies, with a budget comfortably above most terminating runs.
    #[test]
    fn machine_matches_reference_on_random_traces(
        term_index in 0usize..16,
        numerators in proptest::collection::vec(0i64..=1000, 0..24),
    ) {
        let terms = catalogue();
        let term = &terms[term_index % terms.len()];
        let ratios: Vec<(i64, i64)> = numerators.iter().map(|n| (*n, 1001)).collect();
        for strategy in [Strategy::CallByName, Strategy::CallByValue] {
            let (machine, reference) = run_both(strategy, term, &ratios, 600);
            prop_assert_eq!(
                &machine, &reference,
                "{:?} diverged on term #{} trace {:?}",
                strategy, term_index, ratios
            );
        }
    }

    /// Tight, randomised step budgets force fuel exhaustion mid-redex, so the
    /// machine's residualized `OutOfFuel` term must equal the reference's
    /// current term at the same step count.
    #[test]
    fn residual_terms_match_under_random_budgets(
        term_index in 0usize..16,
        budget in 0usize..120,
        seed_num in 0i64..=1000,
    ) {
        let terms = catalogue();
        let term = &terms[term_index % terms.len()];
        // A repeating above-half/below-half trace drives a mix of branches.
        let ratios: Vec<(i64, i64)> = (0..40)
            .map(|i| if i % 3 == 0 { (seed_num, 1001) } else { (900, 1000) })
            .collect();
        for strategy in [Strategy::CallByName, Strategy::CallByValue] {
            let (machine, reference) = run_both(strategy, term, &ratios, budget);
            prop_assert_eq!(
                &machine, &reference,
                "{:?} diverged on term #{} at budget {}",
                strategy, term_index, budget
            );
        }
    }
}

/// Terms whose `fix` frames bind two names that meet: an argument named like
/// its `φ` (which the argument shadows), nested `fix`es whose bodies call an
/// outer `φ` or reuse its name, and a `φ` passed on as a value.
fn fix_frames() -> Vec<Term> {
    [
        "(fix f f. if sample <= 1/2 then f else f (f + 1)) 0",
        "(fix f f. if f <= 2 then f + 1 else 0) 3",
        "(fix phi x. if sample <= 1/2 then x else \
         (fix psi y. if sample <= 1/2 then phi y else psi (y + 1)) (x + 1)) 0",
        "(fix phi x. (fix phi y. if sample <= 1/2 then y else phi (y + 1)) (x + 1)) 0",
        "(fix phi x. if sample <= 1/3 then x else \
         phi ((fix phi phi. if phi <= 0 then phi else phi - 1) x + 2)) 1",
        "(fix phi x. if sample <= 1/2 then x else \
         (fix psi g. if sample <= 1/2 then g (x + 1) else psi g) phi) 0",
    ]
    .iter()
    .map(|src| probterm_spcf::parse_term(src).expect("fix-frame terms parse"))
    .collect()
}

/// Machine ≡ reference on the fix-frame terms, both strategies, at every
/// budget up to 100 steps under three traces: the residual of a run cut
/// short reads back both names of every `fix` frame it holds.
#[test]
fn fix_frames_match_reference_at_every_budget() {
    let traces: [Vec<(i64, i64)>; 3] = [
        vec![(1, 4); 40],
        vec![(3, 4); 40],
        (0..40).map(|i| if i % 3 == 0 { (1, 5) } else { (9, 10) }).collect(),
    ];
    for (index, term) in fix_frames().iter().enumerate() {
        for ratios in &traces {
            for budget in 0..=100 {
                for strategy in [Strategy::CallByName, Strategy::CallByValue] {
                    let (machine, reference) = run_both(strategy, term, ratios, budget);
                    assert_eq!(
                        machine, reference,
                        "{strategy:?} diverged on fix-frame term #{index} at budget {budget} \
                         trace {ratios:?}"
                    );
                }
            }
        }
    }
}

/// Terms whose primitive frames hold an evaluated prefix while a later
/// argument is still a `sample` or a redex: nested unary and binary
/// primitives, non-commutative ones among them, so an argument read back
/// out of order changes the result or the residual.
fn prim_frames() -> Vec<Term> {
    [
        "(fix phi x. if sample <= 1/2 then x else phi (min(x + sample, abs(x - 1)) + 1)) 0",
        "max((lam y. y * 2) sample, floor(sample + (lam z. z + 1) 1)) \
         - neg(sample * (lam w. w) sample)",
        "(fix phi x. if max(sample - 1/2, neg(x)) <= 0 then x else \
         phi (x - min(sample, (lam u. u * u) sample))) 1",
        "(lam a. a - (lam b. b * sample - a) 2) (sample - 1/3)",
        "abs(floor(3 * sample) - (lam k. k - sample) 1) - max(neg(sample), sample - 1)",
        "min((lam x. x) sample - 1, lam x. x)",
    ]
    .iter()
    .map(|src| probterm_spcf::parse_term(src).expect("prim-frame terms parse"))
    .collect()
}

/// Machine ≡ reference on the prim-frame terms, both strategies, at every
/// budget up to 60 steps under three traces: every cut between two
/// arguments reads the frame's inline prefix back into the residual.
#[test]
fn prim_frames_match_reference_at_every_budget() {
    let traces: [Vec<(i64, i64)>; 3] = [
        vec![(1, 4); 40],
        vec![(3, 4); 40],
        (0..40).map(|i| if i % 3 == 0 { (1, 5) } else { (9, 10) }).collect(),
    ];
    for (index, term) in prim_frames().iter().enumerate() {
        for ratios in &traces {
            for budget in 0..=60 {
                for strategy in [Strategy::CallByName, Strategy::CallByValue] {
                    let (machine, reference) = run_both(strategy, term, ratios, budget);
                    assert_eq!(
                        machine, reference,
                        "{strategy:?} diverged on prim-frame term #{index} at budget {budget} \
                         trace {ratios:?}"
                    );
                }
            }
        }
    }
}
