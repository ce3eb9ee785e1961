//! Interval terms and the interval-based reduction of paper §3.1.
//!
//! Interval terms replace real-valued numerals by closed intervals `[a, b]`
//! (read as "an unknown value within `[a, b]`"). The reduction relation
//! `⟨M, ℘⟩ ⇝ ⟨M′, ℘′⟩` (Fig. 9) consumes an *interval trace* `℘` — a finite
//! sequence of subintervals of `[0, 1]` — at `sample` redexes, and primitive
//! functions act through their interval-preserving lifts `f̂`.
//!
//! The embedding `(·)^2ℑ` maps a standard term to the interval term in which
//! every numeral `r` becomes the point interval `[r, r]`; soundness
//! (Theorem 3.4) says that the weights of pairwise-compatible terminating
//! interval traces of `M^2ℑ` lower-bound `Pterm(M)`.
//!
//! [`run_interval`] executes the reduction on the shared environment machine
//! ([`probterm_spcf::absmachine`]) instantiated at interval literals — the
//! embedding happens implicitly as numerals are focused, so the reduction
//! runs directly on the source [`Term`] in O(1) amortized per step. The
//! [`ITerm`] datatype survives as the *specification* artifact: the paper's
//! refinement relation `M ⊳ 𝕄` ([`ITerm::refines`]) and the rendered form of
//! interval terms.

use probterm_numerics::{Interval, Rational};
use probterm_spcf::absmachine::{DomainSpec, Event, Machine, NoAtom, Value};
use probterm_spcf::{Ident, Prim, Strategy, Term};
use std::fmt;

/// A term of interval SPCF: identical to [`Term`] except that numerals are
/// intervals.
#[derive(Debug, Clone, PartialEq)]
pub enum ITerm {
    /// A variable.
    Var(Ident),
    /// An interval numeral `[a, b]`.
    Num(Interval),
    /// λ-abstraction.
    Lam(Ident, Box<ITerm>),
    /// Fixpoint `μφ x. M`.
    Fix(Ident, Ident, Box<ITerm>),
    /// Application.
    App(Box<ITerm>, Box<ITerm>),
    /// Conditional branching on `≤ 0`.
    If(Box<ITerm>, Box<ITerm>, Box<ITerm>),
    /// Primitive function application.
    Prim(Prim, Vec<ITerm>),
    /// Uniform sample.
    Sample,
    /// Conditioning.
    Score(Box<ITerm>),
}

impl ITerm {
    /// The canonical embedding `(·)^2ℑ`: every numeral `r` becomes `[r, r]`.
    pub fn embed(term: &Term) -> ITerm {
        match term {
            Term::Var(x) => ITerm::Var(x.clone()),
            Term::Num(r) => ITerm::Num(Interval::point(r.clone())),
            Term::Lam(x, b) => ITerm::Lam(x.clone(), Box::new(ITerm::embed(b))),
            Term::Fix(phi, x, b) => {
                ITerm::Fix(phi.clone(), x.clone(), Box::new(ITerm::embed(b)))
            }
            Term::App(f, a) => ITerm::App(Box::new(ITerm::embed(f)), Box::new(ITerm::embed(a))),
            Term::If(g, t, e) => ITerm::If(
                Box::new(ITerm::embed(g)),
                Box::new(ITerm::embed(t)),
                Box::new(ITerm::embed(e)),
            ),
            Term::Prim(p, args) => ITerm::Prim(*p, args.iter().map(ITerm::embed).collect()),
            Term::Sample => ITerm::Sample,
            Term::Score(m) => ITerm::Score(Box::new(ITerm::embed(m))),
        }
    }

    /// Returns `true` if the term is an interval value.
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            ITerm::Var(_) | ITerm::Num(_) | ITerm::Lam(_, _) | ITerm::Fix(_, _, _)
        )
    }

    /// Returns the interval if the term is an interval numeral.
    pub fn as_num(&self) -> Option<&Interval> {
        match self {
            ITerm::Num(iv) => Some(iv),
            _ => None,
        }
    }

    /// The refinement relation `M ⊳ 𝕄` of App. B.3: `term` refines `self` if
    /// they agree structurally and every numeral of `term` lies in the
    /// corresponding interval numeral of `self`.
    pub fn refines(&self, term: &Term) -> bool {
        match (term, self) {
            (Term::Var(x), ITerm::Var(y)) => x == y,
            (Term::Num(r), ITerm::Num(iv)) => iv.contains(r),
            (Term::Sample, ITerm::Sample) => true,
            (Term::Lam(x, b), ITerm::Lam(y, c)) => x == y && c.refines(b),
            (Term::Fix(p1, x1, b1), ITerm::Fix(p2, x2, b2)) => {
                p1 == p2 && x1 == x2 && b2.refines(b1)
            }
            (Term::App(f1, a1), ITerm::App(f2, a2)) => f2.refines(f1) && a2.refines(a1),
            (Term::If(g1, t1, e1), ITerm::If(g2, t2, e2)) => {
                g2.refines(g1) && t2.refines(t1) && e2.refines(e1)
            }
            (Term::Prim(p1, a1), ITerm::Prim(p2, a2)) => {
                p1 == p2 && a1.len() == a2.len() && a2.iter().zip(a1).all(|(i, t)| i.refines(t))
            }
            (Term::Score(m1), ITerm::Score(m2)) => m2.refines(m1),
            _ => false,
        }
    }
}

impl fmt::Display for ITerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ITerm::Var(x) => write!(f, "{x}"),
            ITerm::Num(iv) => write!(f, "{iv}"),
            ITerm::Lam(x, b) => write!(f, "lam {x}. {b}"),
            ITerm::Fix(phi, x, b) => write!(f, "fix {phi} {x}. {b}"),
            ITerm::App(g, a) => write!(f, "({g}) ({a})"),
            ITerm::If(g, t, e) => write!(f, "if {g} then {t} else {e}"),
            ITerm::Prim(p, args) => {
                write!(f, "{}(", p.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ITerm::Sample => write!(f, "sample"),
            ITerm::Score(m) => write!(f, "score({m})"),
        }
    }
}

/// An interval trace `℘ ∈ Sℑ`: a finite sequence of subintervals of `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalTrace {
    intervals: Vec<Interval>,
}

impl IntervalTrace {
    /// The empty interval trace `ε`.
    pub fn empty() -> IntervalTrace {
        IntervalTrace::default()
    }

    /// Builds an interval trace.
    ///
    /// # Panics
    ///
    /// Panics if some interval is not contained in `[0, 1]`.
    pub fn new(intervals: Vec<Interval>) -> IntervalTrace {
        assert!(
            intervals
                .iter()
                .all(|iv| Interval::unit().contains_interval(iv)),
            "interval traces must consist of subintervals of [0,1]"
        );
        IntervalTrace { intervals }
    }

    /// Builds a trace from `(lo_n, lo_d, hi_n, hi_d)` quadruples.
    ///
    /// # Panics
    ///
    /// Panics on malformed intervals.
    pub fn from_ratios(quads: &[(i64, i64, i64, i64)]) -> IntervalTrace {
        IntervalTrace::new(
            quads
                .iter()
                .map(|(a, b, c, d)| Interval::from_ratios(*a, *b, *c, *d))
                .collect(),
        )
    }

    /// The intervals of the trace.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The weight `ω(℘) = Π (bᵢ − aᵢ)` of the trace (paper §3.2).
    pub fn weight(&self) -> Rational {
        self.intervals.iter().map(Interval::width).product()
    }

    /// Compatibility of two interval traces (Definition 3.3): different
    /// lengths, or almost disjoint at some position.
    pub fn compatible(&self, other: &IntervalTrace) -> bool {
        if self.len() != other.len() {
            return true;
        }
        self.intervals
            .iter()
            .zip(other.intervals.iter())
            .any(|(a, b)| a.almost_disjoint(b))
    }

    /// Returns `true` if the standard trace (sequence of draws) refines this
    /// interval trace: same length and pointwise membership.
    pub fn refined_by(&self, trace: &[Rational]) -> bool {
        trace.len() == self.len()
            && self
                .intervals
                .iter()
                .zip(trace)
                .all(|(iv, r)| iv.contains(r))
    }
}

impl fmt::Display for IntervalTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intervals.is_empty() {
            return write!(f, "ε");
        }
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

/// Checks that a countable (here: finite) set of interval traces is pairwise
/// compatible, as required by the soundness theorem (Thm. 3.4).
pub fn pairwise_compatible(traces: &[IntervalTrace]) -> bool {
    for (i, a) in traces.iter().enumerate() {
        for b in &traces[i + 1..] {
            if !a.compatible(b) {
                return false;
            }
        }
    }
    true
}

/// Evaluates the interval-preserving lift `f̂` of a primitive function.
///
/// Returns `None` when the argument box is outside the primitive's domain
/// (e.g. `log` of an interval touching zero), in which case the interval
/// reduction is stuck, and when a transcendental's enclosure has no finite
/// `f64` bound (e.g. `exp` of `[0, 1000]`): an unknown enclosure leaves a
/// box undecided, which keeps every bound sound.
///
/// # Panics
///
/// Panics on arity mismatch.
pub fn prim_interval(p: Prim, args: &[Interval]) -> Option<Interval> {
    assert_eq!(args.len(), p.arity(), "arity mismatch for {p:?}");
    Some(match p {
        Prim::Add => args[0].add(&args[1]),
        Prim::Sub => args[0].sub(&args[1]),
        Prim::Mul => args[0].mul(&args[1]),
        Prim::Neg => args[0].neg(),
        Prim::Abs => args[0].abs(),
        Prim::Min => args[0].min_iv(&args[1]),
        Prim::Max => args[0].max_iv(&args[1]),
        Prim::Exp => args[0].exp()?,
        Prim::Log => {
            if !args[0].lo().is_positive() {
                return None;
            }
            args[0].log()?
        }
        Prim::Sig => args[0].sig()?,
        Prim::Floor => {
            let lo = Rational::from_bigint(args[0].lo().floor());
            let hi = Rational::from_bigint(args[0].hi().floor());
            Interval::new(lo, hi)
        }
    })
}

/// Why an interval reduction could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IStuck {
    /// The interval trace is exhausted at a `sample` redex.
    TraceExhausted,
    /// A guard interval straddles zero, so the branch cannot be decided.
    UndecidedBranch,
    /// `score` of an interval whose lower end is negative.
    ScoreMaybeNegative,
    /// A primitive was applied outside its domain.
    PrimDomain(Prim),
    /// An ill-formed application or open term.
    IllFormed,
}

/// A terminal interval value (the result of a terminating interval run).
#[derive(Debug, Clone, PartialEq)]
pub enum IValue {
    /// An interval numeral.
    Num(Interval),
    /// A function value (λ or fixpoint closure); base-type programs never
    /// produce one.
    Closure,
}

impl IValue {
    /// Returns the interval if the value is an interval numeral.
    pub fn as_num(&self) -> Option<&Interval> {
        match self {
            IValue::Num(iv) => Some(iv),
            IValue::Closure => None,
        }
    }
}

/// The result of running the interval reduction to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum IOutcome {
    /// Reached a value with the trace fully consumed after the given number of steps.
    Terminated {
        /// The final interval value.
        value: IValue,
        /// Number of reduction steps `#℘↓(M)`.
        steps: usize,
    },
    /// Reached a value but the interval trace was not fully consumed.
    LeftoverTrace,
    /// The reduction is stuck.
    Stuck(IStuck),
    /// The step budget ran out.
    OutOfFuel,
}

impl IOutcome {
    /// Returns `true` if the outcome certifies termination on the trace.
    pub fn is_terminated(&self) -> bool {
        matches!(self, IOutcome::Terminated { .. })
    }
}

fn interval_point(r: &Rational) -> Interval {
    Interval::point(r.clone())
}

fn interval_spec() -> DomainSpec<Interval, NoAtom> {
    DomainSpec {
        strategy: Strategy::CallByName,
        // The embedding `(·)^2ℑ` applied lazily: numerals become point
        // intervals as they are focused.
        lit_of_num: interval_point,
        atom_of_free: None,
        opaque_fix: false,
        // The interval reference tests value-ness before fuel.
        value_first: true,
    }
}

/// Runs the CbN interval reduction of `term^2ℑ` on the interval trace
/// `trace` (Fig. 9), with a step budget.
///
/// A result of [`IOutcome::Terminated`] certifies that `trace` belongs to
/// `Tℑ_{M,term}`, so by Theorem 3.4 its weight is a sound contribution to a
/// lower bound on `Pterm`. Step counts agree with the standard reduction on
/// every refining standard trace (Lemma B.2).
pub fn run_interval(term: &Term, trace: &IntervalTrace, max_steps: usize) -> IOutcome {
    let mut machine = Machine::new(interval_spec(), term, max_steps);
    let mut position = 0usize;
    loop {
        match machine.next_event() {
            Event::Done(value) => {
                if position != trace.len() {
                    return IOutcome::LeftoverTrace;
                }
                let value = match value {
                    Value::Lit(iv) => IValue::Num(iv),
                    Value::Closure { .. } => IValue::Closure,
                    Value::Atom(atom) => match atom {},
                };
                return IOutcome::Terminated { value, steps: machine.steps() };
            }
            Event::OutOfFuel => return IOutcome::OutOfFuel,
            Event::Stuck(_) => return IOutcome::Stuck(IStuck::IllFormed),
            Event::Sample => {
                let Some(iv) = trace.intervals().get(position) else {
                    return IOutcome::Stuck(IStuck::TraceExhausted);
                };
                position += 1;
                machine.resume_lit(iv.clone());
            }
            Event::PrimReady(p, args) => match prim_interval(p, &args) {
                Some(result) => machine.resume_lit(result),
                None => return IOutcome::Stuck(IStuck::PrimDomain(p)),
            },
            Event::BranchReady(iv) => {
                if iv.certainly_nonpositive() {
                    machine.resume_branch(true);
                } else if iv.certainly_positive() {
                    machine.resume_branch(false);
                } else {
                    return IOutcome::Stuck(IStuck::UndecidedBranch);
                }
            }
            Event::ScoreReady(iv) => {
                if iv.lo().is_negative() {
                    return IOutcome::Stuck(IStuck::ScoreMaybeNegative);
                }
                machine.resume_lit(iv);
            }
            Event::AtomApplied(atom) => match atom {},
            Event::FixEncountered(_) => {
                unreachable!("opaque_fix is off for the interval reduction")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::parse_term;

    fn term(src: &str) -> Term {
        parse_term(src).unwrap()
    }

    fn iv(a: i64, b: i64, c: i64, d: i64) -> Interval {
        Interval::from_ratios(a, b, c, d)
    }

    #[test]
    fn embedding_produces_point_intervals() {
        let t = ITerm::embed(&term("1 + 0.5"));
        match t {
            ITerm::Prim(Prim::Add, args) => {
                assert_eq!(args[0].as_num().unwrap(), &Interval::point(Rational::one()));
                assert!(args[1].as_num().unwrap().is_point());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Embedding refines the original term.
        let original = term("(fix phi x. if sample <= 0.5 then x else phi (x+1)) 1");
        assert!(ITerm::embed(&original).refines(&original));
    }

    #[test]
    fn interval_weights_and_compatibility() {
        let a = IntervalTrace::from_ratios(&[(0, 1, 1, 2), (0, 1, 1, 3)]);
        assert_eq!(a.weight(), Rational::from_ratio(1, 6));
        let b = IntervalTrace::from_ratios(&[(1, 2, 1, 1), (0, 1, 1, 1)]);
        assert!(a.compatible(&b));
        let c = IntervalTrace::from_ratios(&[(0, 1, 1, 1)]);
        assert!(a.compatible(&c)); // different length
        let d = IntervalTrace::from_ratios(&[(1, 4, 3, 4), (0, 1, 1, 1)]);
        assert!(!a.compatible(&d));
        assert!(pairwise_compatible(&[a.clone(), b.clone(), c.clone()]));
        assert!(!pairwise_compatible(&[a, b, c, d]));
        // The paper's example of four pairwise compatible traces (§3.2).
        let ts = vec![
            IntervalTrace::from_ratios(&[(0, 1, 1, 1), (0, 1, 1, 3)]),
            IntervalTrace::from_ratios(&[(0, 1, 1, 1), (1, 3, 1, 2)]),
            IntervalTrace::from_ratios(&[(0, 1, 1, 1), (3, 4, 1, 1)]),
            IntervalTrace::from_ratios(&[(0, 1, 1, 1)]),
        ];
        assert!(pairwise_compatible(&ts));
    }

    #[test]
    #[should_panic(expected = "subintervals of [0,1]")]
    fn interval_traces_must_be_in_unit_range() {
        let _ = IntervalTrace::new(vec![Interval::from_ratios(0, 1, 3, 2)]);
    }

    #[test]
    fn prim_interval_lifts() {
        let a = iv(0, 1, 1, 2);
        let b = iv(1, 4, 3, 4);
        assert_eq!(prim_interval(Prim::Add, &[a.clone(), b.clone()]).unwrap(), iv(1, 4, 5, 4));
        assert_eq!(prim_interval(Prim::Sub, &[a.clone(), b.clone()]).unwrap(), iv(-3, 4, 1, 4));
        assert_eq!(prim_interval(Prim::Neg, &[a.clone()]).unwrap(), iv(-1, 2, 0, 1));
        assert_eq!(prim_interval(Prim::Min, &[a.clone(), b.clone()]).unwrap(), iv(0, 1, 1, 2));
        assert_eq!(prim_interval(Prim::Max, &[a.clone(), b.clone()]).unwrap(), iv(1, 4, 3, 4));
        assert_eq!(
            prim_interval(Prim::Floor, &[iv(1, 2, 7, 2)]).unwrap(),
            iv(0, 1, 3, 1)
        );
        assert!(prim_interval(Prim::Log, &[iv(0, 1, 1, 1)]).is_none());
        assert!(prim_interval(Prim::Log, &[iv(1, 2, 1, 1)]).is_some());
    }

    #[test]
    fn interval_reduction_on_deterministic_terms() {
        let out = run_interval(&term("1 + 2 * 3"), &IntervalTrace::empty(), 100);
        match out {
            IOutcome::Terminated { value, steps } => {
                assert_eq!(value.as_num().unwrap(), &Interval::point(Rational::from_int(7)));
                assert!(steps > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interval_reduction_consumes_interval_traces() {
        // Example B.4: if(sample - 0.5, 0, 1) terminates on [0, 1/4] via the then branch.
        let t = term("if sample <= 0.5 then 0 else 1");
        let good = IntervalTrace::from_ratios(&[(0, 1, 1, 4)]);
        assert!(run_interval(&t, &good, 100).is_terminated());
        // The full unit interval cannot decide the branch (Ex. B.4).
        let undecided = IntervalTrace::from_ratios(&[(0, 1, 1, 1)]);
        assert_eq!(
            run_interval(&t, &undecided, 100),
            IOutcome::Stuck(IStuck::UndecidedBranch)
        );
        // Right branch.
        let right = IntervalTrace::from_ratios(&[(3, 4, 1, 1)]);
        assert!(run_interval(&t, &right, 100).is_terminated());
        // Exhausted and leftover traces are rejected.
        assert_eq!(
            run_interval(&t, &IntervalTrace::empty(), 100),
            IOutcome::Stuck(IStuck::TraceExhausted)
        );
        let too_long = IntervalTrace::from_ratios(&[(0, 1, 1, 4), (0, 1, 1, 4)]);
        assert_eq!(run_interval(&t, &too_long, 100), IOutcome::LeftoverTrace);
    }

    #[test]
    fn geometric_term_terminates_on_nested_interval_traces() {
        // geo(1/2): the trace [3/4,1]·[0,1/2] makes one recursive call then
        // stops. (The first interval must be strictly above 1/2: with the
        // interval [1/2, 1] the guard `sample − 1/2` would contain 0 and the
        // branch would be undecidable, cf. Fig. 9.)
        let t = term("(fix phi x. if sample <= 0.5 then x else phi (x + 1)) 0");
        let trace = IntervalTrace::from_ratios(&[(3, 4, 1, 1), (0, 1, 1, 2)]);
        let out = run_interval(&t, &trace, 1000);
        match out {
            IOutcome::Terminated { value, .. } => {
                assert_eq!(
                    value.as_num().unwrap(),
                    &Interval::point(Rational::from_int(1))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Its weight is 1/4 · 1/2 = 1/8, a sound lower-bound contribution.
        assert_eq!(trace.weight(), Rational::from_ratio(1, 8));
        // The boundary-touching trace of Ex. B.4 is genuinely undecided.
        let undecided = IntervalTrace::from_ratios(&[(1, 2, 1, 1), (0, 1, 1, 2)]);
        assert_eq!(
            run_interval(&t, &undecided, 1000),
            IOutcome::Stuck(IStuck::UndecidedBranch)
        );
    }

    #[test]
    fn soundness_lemma_b2_on_refining_traces() {
        // If ℘ terminates for M^2ℑ then every standard trace refining ℘ terminates for M
        // with the same step count (Lemma B.2) — check on a concrete instance.
        use probterm_spcf::{run, FixedTrace, Strategy};
        let src = "(fix phi x. if sample <= 0.5 then x else phi (x + 1)) 0";
        let t = term(src);
        let itrace = IntervalTrace::from_ratios(&[(3, 4, 1, 1), (0, 1, 1, 2)]);
        let iout = run_interval(&t, &itrace, 1000);
        let IOutcome::Terminated { steps, .. } = iout else {
            panic!("interval run did not terminate");
        };
        for standard in [
            vec![Rational::from_ratio(3, 4), Rational::from_ratio(1, 4)],
            vec![Rational::from_ratio(9, 10), Rational::from_ratio(1, 2)],
        ] {
            assert!(itrace.refined_by(&standard));
            let mut fixed = FixedTrace::new(standard);
            let run_result = run(Strategy::CallByName, &t, &mut fixed, 1000);
            assert!(run_result.outcome.is_terminated());
            assert_eq!(run_result.steps, steps);
        }
    }

    #[test]
    fn score_and_fuel_behaviour() {
        let t = term("score(sample)");
        let ok = IntervalTrace::from_ratios(&[(0, 1, 1, 2)]);
        assert!(run_interval(&t, &ok, 100).is_terminated());
        let neg = term("score(sample - 1)");
        assert_eq!(
            run_interval(&neg, &ok, 100),
            IOutcome::Stuck(IStuck::ScoreMaybeNegative)
        );
        let diverge = term("(fix phi x. phi x) 0");
        assert_eq!(
            run_interval(&diverge, &IntervalTrace::empty(), 50),
            IOutcome::OutOfFuel
        );
    }

    #[test]
    fn function_results_and_value_first_fuel_boundary() {
        // A program evaluating to a λ terminates with an (opaque) closure.
        let out = run_interval(&term("(lam f. f) (lam y. y)"), &IntervalTrace::empty(), 100);
        match out {
            IOutcome::Terminated { value, .. } => assert_eq!(value, IValue::Closure),
            other => panic!("unexpected {other:?}"),
        }
        // The interval reference checks value-ness before fuel: a run that
        // needs exactly the budget still terminates.
        let exact = run_interval(&term("1 + 1"), &IntervalTrace::empty(), 1);
        assert!(exact.is_terminated(), "value-first fuel convention: {exact:?}");
        assert_eq!(
            run_interval(&term("1 + 1"), &IntervalTrace::empty(), 0),
            IOutcome::OutOfFuel
        );
    }

    #[test]
    fn display_formats() {
        let t = ITerm::embed(&term("if sample <= 0.5 then 0 else score(1)"));
        let rendered = t.to_string();
        assert!(rendered.contains("sample"));
        assert!(rendered.contains("score"));
        assert_eq!(IntervalTrace::empty().to_string(), "ε");
        let tr = IntervalTrace::from_ratios(&[(0, 1, 1, 2)]);
        assert!(tr.to_string().contains("[0, 1/2]"));
    }
}
