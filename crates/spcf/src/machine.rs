//! Environment-based abstract machine for SPCF: O(1)-amortized small steps.
//!
//! # Why a machine
//!
//! The reference semantics in [`crate::eval`] implements the paper's
//! reduction relation literally: every small step clones the whole term,
//! substitutes, and plugs the evaluation context back together, so a run of
//! `n` steps costs `O(n · |term|)` — and for non-affine terms (whose pending
//! recursive calls make the term grow linearly with the step count) a
//! truncated run costs `O(n²)`. This module replaces textual substitution
//! with the standard environment/closure technique (a CEK-style machine):
//! configurations carry a *control* (a pointer into the original term plus an
//! environment), an *environment* (a persistent cons-list of bindings shared
//! via `Rc`), and a *continuation* (a stack of evaluation-context frames).
//! No term is ever cloned or rebuilt on the hot path, so each transition is
//! O(1) amortized (variable lookup walks the lexical environment, whose depth
//! is bounded by the binder nesting of the source program, not by the run).
//!
//! The machine core itself lives in [`crate::absmachine`], generic over the
//! literal domain, and is shared with the symbolic-exploration, interval and
//! AST-verification engines; this module instantiates it at concrete
//! [`Rational`] samples and drives it against a [`Sampler`].
//!
//! # Correspondence with the paper's configurations `⟨M, s⟩`
//!
//! The trace semantics (paper §2.3, Def. 2.1) reduces configurations
//! `⟨M, s⟩` of a closed term and a trace. A machine state
//! `⟨C, E, K⟩ × sampler` represents `⟨M, s⟩` as follows:
//!
//! * the term `M` is recovered by *readback*: substitute the environment `E`
//!   into the control `C` (innermost bindings first) and plug the result into
//!   the continuation frames `K` from top to bottom;
//! * the trace `s` is exactly the unconsumed suffix of the sampler.
//!
//! Readback is invariant under the machine's administrative moves and is only
//! materialised when a result must be reported (termination value, stuck
//! configuration, or fuel exhaustion), so it costs one `O(|term|)` pass per
//! *run* instead of per *step*.
//!
//! # Step accounting
//!
//! Machine transitions split into *administrative* moves (focusing into a
//! subterm, returning a value to a frame, entering a thunk) and *redex
//! firings*. Only the latter increment `steps`, and they correspond 1:1 to
//! the paper's reduction rules, so the reported count equals the reference
//! stepper's `#s↓(M)` (§2.4) exactly:
//!
//! | counted transition | paper rule (Fig. 2 / Fig. 8) |
//! |---|---|
//! | β-apply a `λ` closure | `(λx. M) N → M[N/x]` |
//! | unroll a `μ` closure | `(μφ x. M) N → M[N/x][μφ x. M/φ]` |
//! | branch on a numeral | `if(r, N, P) → N` or `P` |
//! | draw a sample | `⟨sample, r·s⟩ → ⟨r, s⟩` |
//! | pass a non-negative score | `score(r) → r` |
//! | evaluate a primitive | `f(r₁, …, r_k) → f(r₁, …, r_k)` |
//!
//! `samples` counts exactly the draws the sampler served, as in the
//! reference semantics, so [`run_machine`] is a drop-in replacement for the
//! substitution-based `run` (and is what [`crate::run`] now calls). The
//! reference stepper remains available as [`crate::run_substitution`]; the
//! differential tests below and in `tests/machine_differential.rs` check the
//! two agree on outcome, steps and samples across the whole catalogue, for
//! both strategies.
//!
//! # Call-by-name and call-by-value
//!
//! Both strategies of the paper share the machine; they differ only in how an
//! application consumes its argument:
//!
//! * **CbN** (Fig. 2): the argument is suspended as a *thunk* (term +
//!   environment, Krivine-style, never memoised — re-evaluating a duplicated
//!   `sample` thunk must draw twice);
//! * **CbV** (Fig. 8): the argument is evaluated to a value first, and
//!   environments bind values.

use crate::absmachine::{DomainSpec, Event, Machine, Stuck, Value};
use crate::ast::{Ident, Term};
use crate::eval::{Outcome, Run, StuckReason, Strategy};
use crate::trace::Sampler;
use probterm_numerics::Rational;

fn clone_rational(r: &Rational) -> Rational {
    r.clone()
}

fn clone_ident(x: &Ident) -> Ident {
    x.clone()
}

fn term_of_rational(r: &Rational) -> Term {
    Term::Num(r.clone())
}

fn term_of_free(x: &Ident) -> Term {
    Term::Var(x.clone())
}

fn spec(strategy: Strategy) -> DomainSpec<Rational, Ident> {
    DomainSpec {
        strategy,
        lit_of_num: clone_rational,
        // Free variables are values of the paper's grammar; CbV must carry
        // them through argument position without failing eagerly (the
        // reference semantics only gets stuck when the variable is *used*).
        atom_of_free: Some(clone_ident),
        opaque_fix: false,
        // The reference `run` checks fuel *before* every step, so a term that
        // needs exactly `max_steps` steps reports OutOfFuel even if the final
        // state is a value.
        value_first: false,
    }
}

/// Mirrors `eval::stuck_value`: free variables take precedence as the
/// reported stuck reason.
fn stuck_reason(stuck: Stuck<'_, Rational, Ident>) -> StuckReason {
    match stuck {
        Stuck::FreeVariable(x) => StuckReason::FreeVariable(x.to_string()),
        Stuck::NotANumeral(Value::Atom(x)) => StuckReason::FreeVariable(x.to_string()),
        Stuck::NotANumeral(_) => StuckReason::NotANumeral,
        Stuck::NotAFunction(_) => StuckReason::NotAFunction,
    }
}

/// How a drive ended; terms are only materialised by the caller if wanted.
enum End<'a> {
    Value(Value<'a, Rational, Ident>),
    Stuck(StuckReason),
    Fuel,
}

/// Drives the concrete machine against `sampler`, resolving every effectful
/// redex with the paper's concrete rules. Returns the end state and the
/// number of samples consumed.
fn drive<'a>(
    machine: &mut Machine<'a, Rational, Ident>,
    sampler: &mut dyn Sampler,
) -> (End<'a>, usize) {
    let mut samples = 0usize;
    let end = loop {
        match machine.next_event() {
            // A lone free variable is stuck, not a result (the reference
            // `run` refuses to treat open terms as terminated).
            Event::Done(Value::Atom(x)) => {
                break End::Stuck(StuckReason::FreeVariable(x.to_string()));
            }
            Event::Done(value) => break End::Value(value),
            Event::OutOfFuel => break End::Fuel,
            Event::Stuck(stuck) => break End::Stuck(stuck_reason(stuck)),
            Event::Sample => match sampler.next_sample() {
                Some(r) => {
                    samples += 1;
                    machine.resume_lit(r);
                }
                None => break End::Stuck(StuckReason::TraceExhausted),
            },
            Event::PrimReady(prim, args) => match prim.eval(&args) {
                Some(r) => machine.resume_lit(r),
                // A domain error is stuck *without* reducing, so it does not
                // count as a step (like the reference).
                None => break End::Stuck(StuckReason::PrimDomain(prim)),
            },
            Event::BranchReady(r) => machine.resume_branch(!r.is_positive()),
            Event::ScoreReady(r) => {
                if r.is_negative() {
                    break End::Stuck(StuckReason::NegativeScore(r));
                }
                machine.resume_lit(r);
            }
            Event::AtomApplied(x) => break End::Stuck(StuckReason::FreeVariable(x.to_string())),
            Event::FixEncountered(_) => unreachable!("opaque_fix is off for the concrete machine"),
        }
    };
    (end, samples)
}

/// Runs `term` on the environment machine for at most `max_steps` counted
/// steps, drawing from `sampler`.
///
/// Outcome, step count and sample count agree exactly with the
/// substitution-based reference semantics ([`crate::run_substitution`]); see
/// the module docs for the accounting rule. On fuel exhaustion the machine
/// state is *residualized* back into the term the reference semantics would
/// be holding, so even `Outcome::OutOfFuel` payloads line up.
///
/// # Examples
///
/// ```
/// use probterm_spcf::{parse_term, run_machine, FixedTrace, Strategy};
///
/// let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
/// let mut trace = FixedTrace::from_ratios(&[(7, 10), (1, 5)]);
/// let result = run_machine(Strategy::CallByName, &geo, &mut trace, 1_000);
/// assert!(result.outcome.is_terminated());
/// assert_eq!(result.samples, 2);
/// ```
pub fn run_machine(
    strategy: Strategy,
    term: &Term,
    sampler: &mut dyn Sampler,
    max_steps: usize,
) -> Run {
    let mut machine = Machine::new(spec(strategy), term, max_steps);
    let (end, samples) = drive(&mut machine, sampler);
    let outcome = match end {
        End::Value(value) => Outcome::Terminated(Machine::readback_value(
            &value,
            term_of_rational,
            term_of_free,
        )),
        End::Stuck(reason) => Outcome::Stuck(reason),
        End::Fuel => Outcome::OutOfFuel(machine.residualize(term_of_rational, term_of_free)),
    };
    Run { outcome, steps: machine.steps(), samples }
}

/// The outcome of a [`run_machine_summary`] run, with no materialised terms.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryOutcome {
    /// Evaluation reached a value.
    Terminated,
    /// Evaluation got stuck.
    Stuck(StuckReason),
    /// The step budget was exhausted before reaching a value.
    OutOfFuel,
}

/// A completed (or truncated) evaluation, without the result/residual term.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Final outcome (terms elided).
    pub outcome: SummaryOutcome,
    /// Number of small steps performed (the quantity `#s↓(M)` of §2.4).
    pub steps: usize,
    /// Number of samples consumed.
    pub samples: usize,
}

/// Like [`run_machine`], but reports only outcome kind, steps and samples —
/// no terminal value and no `OutOfFuel` residual term.
///
/// Monte-Carlo estimation discards the terms anyway, and *materialising*
/// them is the only super-constant cost a truncated run has: readback is an
/// `O(|residual term|)` pass, and the residual of a long run is a deep tree
/// whose eventual (recursive) drop glue can even exhaust the stack. The
/// summary path skips all of it; steps and samples are identical to
/// [`run_machine`]'s.
pub fn run_machine_summary(
    strategy: Strategy,
    term: &Term,
    sampler: &mut dyn Sampler,
    max_steps: usize,
) -> RunSummary {
    run_machine_summary_profiled(strategy, term, sampler, max_steps, None)
}

/// Like [`run_machine_summary`], tallying machine steps and events into
/// `profile` when one is given (see `Machine::set_profile`).
pub fn run_machine_summary_profiled(
    strategy: Strategy,
    term: &Term,
    sampler: &mut dyn Sampler,
    max_steps: usize,
    profile: Option<&probterm_telemetry::SharedProfile>,
) -> RunSummary {
    let mut machine = Machine::new(spec(strategy), term, max_steps);
    if let Some(profile) = profile {
        machine.set_profile(std::rc::Rc::clone(profile));
    }
    let (end, samples) = drive(&mut machine, sampler);
    let outcome = match end {
        End::Value(_) => SummaryOutcome::Terminated,
        End::Stuck(reason) => SummaryOutcome::Stuck(reason),
        End::Fuel => SummaryOutcome::OutOfFuel,
    };
    RunSummary { outcome, steps: machine.steps(), samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::eval::run_substitution;
    use crate::parser::parse_term;
    use crate::trace::FixedTrace;

    fn both(strategy: Strategy, term: &Term, ratios: &[(i64, i64)], max_steps: usize) -> (Run, Run) {
        let mut t1 = FixedTrace::from_ratios(ratios);
        let mut t2 = FixedTrace::from_ratios(ratios);
        (
            run_machine(strategy, term, &mut t1, max_steps),
            run_substitution(strategy, term, &mut t2, max_steps),
        )
    }

    fn assert_agree(strategy: Strategy, src: &str, ratios: &[(i64, i64)], max_steps: usize) {
        let term = parse_term(src).unwrap();
        let (machine, reference) = both(strategy, &term, ratios, max_steps);
        assert_eq!(machine, reference, "{strategy:?} disagreement on `{src}`");
    }

    #[test]
    fn agrees_on_arithmetic_and_conditionals() {
        for strategy in [Strategy::CallByName, Strategy::CallByValue] {
            assert_agree(strategy, "1 + 2 * 3", &[], 1_000);
            assert_agree(strategy, "abs(-3) + min(2, 5) + max(0, exp(0))", &[], 1_000);
            assert_agree(strategy, "if 0 then 10 else 20", &[], 1_000);
            assert_agree(strategy, "if 1 <= 2 then 10 else 20", &[], 1_000);
            assert_agree(strategy, "score(0.25) + 1", &[], 1_000);
        }
    }

    #[test]
    fn agrees_on_thunk_duplication() {
        // CbN duplicates the unevaluated sample; CbV draws once.
        let src = "(lam x. x + x) sample";
        assert_agree(Strategy::CallByName, src, &[(1, 4), (1, 2)], 1_000);
        assert_agree(Strategy::CallByValue, src, &[(1, 4)], 1_000);
    }

    #[test]
    fn agrees_on_stuck_configurations() {
        for strategy in [Strategy::CallByName, Strategy::CallByValue] {
            assert_agree(strategy, "score(0 - 1)", &[], 1_000);
            assert_agree(strategy, "sample", &[], 1_000);
            assert_agree(strategy, "log(0)", &[], 1_000);
            assert_agree(strategy, "1 2", &[], 1_000);
            assert_agree(strategy, "x + 1", &[], 1_000);
            assert_agree(strategy, "x", &[], 1_000);
            assert_agree(strategy, "(lam y. 42) x", &[], 1_000);
            assert_agree(strategy, "(lam y. x) 0", &[], 1_000);
            assert_agree(strategy, "x (1 + 1)", &[], 1_000);
        }
    }

    #[test]
    fn agrees_on_fuel_exhaustion_with_residual_term() {
        // The OutOfFuel payloads must be syntactically equal terms.
        for strategy in [Strategy::CallByName, Strategy::CallByValue] {
            assert_agree(strategy, "(fix phi x. phi x) 0", &[], 100);
            assert_agree(
                strategy,
                "(fix phi x. if sample <= 1/2 then x else phi (phi (phi x))) 0",
                &[(9, 10); 40],
                100,
            );
        }
        // Fuel boundary: exactly enough steps to finish still reports
        // OutOfFuel, like the reference loop.
        assert_agree(Strategy::CallByName, "1 + 1", &[], 1);
        assert_agree(Strategy::CallByName, "1 + 1", &[], 0);
    }

    #[test]
    fn differential_whole_catalogue_on_seeded_random_traces() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut all = catalog::table1_benchmarks();
        all.extend(catalog::table2_benchmarks());
        all.push(catalog::triangle_example());
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for benchmark in &all {
            for case in 0..6 {
                let len = rng.gen_range(0usize..24);
                let ratios: Vec<(i64, i64)> =
                    (0..len).map(|_| (rng.gen_range(0i64..1000), 1000)).collect();
                for strategy in [Strategy::CallByName, Strategy::CallByValue] {
                    let (machine, reference) = both(strategy, &benchmark.term, &ratios, 700);
                    assert_eq!(
                        machine, reference,
                        "{}: {strategy:?} case {case} trace {ratios:?}",
                        benchmark.name
                    );
                }
            }
        }
    }

    #[test]
    fn deep_divergent_runs_tear_down_without_overflowing_the_stack() {
        // `(fix phi x. phi x) 0` nests environments through the argument's
        // *binding* (not the `next` pointer), so this is the regression test
        // for the worklist in the generic `EnvNode::drop`: tearing down the
        // state of a few-hundred-thousand-step truncated run must not recurse.
        let term = parse_term("(fix phi x. phi x) 0").unwrap();
        for strategy in [Strategy::CallByName, Strategy::CallByValue] {
            let mut trace = FixedTrace::from_ratios(&[]);
            let result = run_machine_summary(strategy, &term, &mut trace, 300_000);
            assert_eq!(result.outcome, SummaryOutcome::OutOfFuel);
            assert_eq!(result.steps, 300_000);
        }
    }

    #[test]
    fn environment_depth_stays_bounded_while_terms_grow() {
        // gr on an all-failing trace grows its residual term linearly, but
        // the machine's per-step cost stays flat: run a large budget and make
        // sure the step count is exact (would time out quadratically before).
        let gr = catalog::golden_ratio().term;
        let mut trace = FixedTrace::from_ratios(&vec![(9, 10); 20_000]);
        let result = run_machine(Strategy::CallByValue, &gr, &mut trace, 20_000);
        assert!(matches!(result.outcome, Outcome::OutOfFuel(_)));
        assert_eq!(result.steps, 20_000);
    }
}
