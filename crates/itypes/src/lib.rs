//! The intersection type system of paper §4.
//!
//! Set types annotate a term of base type with a finite set of triples
//! `(α, ℘, τ)`: an interval (or arrow) type `α`, a terminating interval trace
//! `℘`, and a step count `τ`. Theorem 4.1 states that the least upper bound of
//! `ω(A) = Σᵢ ω(℘ᵢ)` over all derivable judgements `⊢ M^2ℑ : A` equals
//! `Pterm(M)`, and that the lub of `E(A) = Σᵢ ω(℘ᵢ)·τᵢ` equals `Eterm(M)` for
//! AST terms.
//!
//! This crate provides
//!
//! * the [`SetType`] data structure with its weight `ω` and expectation `E`,
//! * [`derive_set_type`]: a constructive use of the completeness direction —
//!   every finite, pairwise *strongly compatible* family of terminating
//!   interval traces is turned into a set-type judgement (Prop. C.15) by
//!   re-running the interval reduction and recording the step counts,
//! * [`refine_strongly_compatible`]: the splitting of Lemma C.14 that turns a
//!   compatible family into a strongly compatible one denoting the same set
//!   of standard traces,
//! * [`SetTypeJudgement`]: the judgement with its soundness guarantees
//!   (weights lower-bound `Pterm`, Thm. 3.4 + Thm. 4.1).

#![warn(missing_docs)]

mod nii;

pub use nii::{
    derivation_usage_counts, max_variable_uses, recursive_rank_bound_nii, variable_use_counts,
    UsageCount,
};

use probterm_intervalsem::{run_interval, IOutcome, IntervalTrace};
use probterm_numerics::{Interval, Rational};
use probterm_spcf::Term;
use std::fmt;

/// The "type" component of a set-type element. For base-type programs — the
/// only ones whose termination probability is of interest — this is an
/// interval; higher-order components are summarised by their arity as in the
/// oracle-free reading of the system.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementType {
    /// An interval numeral type `[a, b]`.
    Interval(Interval),
    /// A function value (λ- or μ-abstraction); its intersection structure is
    /// not needed for the weight/expectation computations.
    Function,
}

impl fmt::Display for ElementType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementType::Interval(iv) => write!(f, "{iv}"),
            ElementType::Function => write!(f, "→"),
        }
    }
}

/// One element `(α, ℘, τ)` of a set type: the result type, the terminating
/// interval trace, and the number of reduction steps.
#[derive(Debug, Clone, PartialEq)]
pub struct SetTypeElement {
    /// The result type `α`.
    pub ty: ElementType,
    /// The terminating interval trace `℘`.
    pub trace: IntervalTrace,
    /// The step count `τ` (`#℘↓(M)`).
    pub steps: usize,
}

/// A set type `A = {(α₁, ℘₁, τ₁), …, (αₘ, ℘ₘ, τₘ)}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SetType {
    /// The elements of the set type.
    pub elements: Vec<SetTypeElement>,
}

impl SetType {
    /// The empty set type `{}` (always derivable, carrying no weight).
    pub fn empty() -> SetType {
        SetType::default()
    }

    /// The weight `ω(A) = Σᵢ ω(℘ᵢ)`.
    pub fn weight(&self) -> Rational {
        self.elements.iter().map(|e| e.trace.weight()).sum()
    }

    /// The expectation `E(A) = Σᵢ ω(℘ᵢ)·τᵢ`.
    pub fn expectation(&self) -> Rational {
        self.elements
            .iter()
            .map(|e| e.trace.weight() * Rational::from_int(e.steps as i64))
            .sum()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the set type is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

impl fmt::Display for SetType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {}, {})", e.ty, e.trace, e.steps)?;
        }
        write!(f, "}}")
    }
}

/// A derived judgement `⊢ M^2ℑ : A` together with the term it talks about.
#[derive(Debug, Clone, PartialEq)]
pub struct SetTypeJudgement {
    /// The (standard) subject term `M`.
    pub term: Term,
    /// The derived set type.
    pub set_type: SetType,
}

impl SetTypeJudgement {
    /// The lower bound on `Pterm(M)` certified by this judgement
    /// (Thm. 4.1 (1), soundness direction).
    pub fn termination_lower_bound(&self) -> Rational {
        self.set_type.weight()
    }

    /// The lower bound on `Eterm(M)` certified by this judgement for AST terms
    /// (Thm. 4.1 (2)).
    pub fn expected_steps_lower_bound(&self) -> Rational {
        self.set_type.expectation()
    }
}

/// Errors raised while constructing a set-type derivation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeriveError {
    /// One of the supplied traces is not a terminating interval trace of the
    /// term (so no derivation can mention it).
    NotTerminating(IntervalTrace),
    /// The supplied traces are not pairwise strongly compatible even after
    /// refinement (they overlap on a set of positive measure), so their
    /// weights must not be added up.
    Overlapping(IntervalTrace, IntervalTrace),
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::NotTerminating(t) => {
                write!(f, "interval trace {t} is not terminating for the term")
            }
            DeriveError::Overlapping(a, b) => {
                write!(f, "interval traces {a} and {b} overlap on a set of positive measure")
            }
        }
    }
}

impl std::error::Error for DeriveError {}

/// Splits a family of interval traces into a *strongly compatible* family
/// denoting the same set of standard traces (Lemma C.14): traces either agree
/// on a common prefix or are almost disjoint at the first position where they
/// differ.
///
/// The construction proceeds position by position: all endpoints occurring at
/// a position partition `[0,1]` into sub-intervals; every trace is replaced by
/// the traces obtained by intersecting with each cell of that partition.
pub fn refine_strongly_compatible(traces: &[IntervalTrace]) -> Vec<IntervalTrace> {
    fn go(traces: Vec<Vec<Interval>>, position: usize) -> Vec<Vec<Interval>> {
        // Traces shorter than `position` are finished; group the rest by cell.
        let active: Vec<&Vec<Interval>> = traces.iter().filter(|t| t.len() > position).collect();
        if active.is_empty() {
            return traces;
        }
        // Collect all endpoints at this position.
        let mut endpoints: Vec<Rational> = Vec::new();
        for t in &active {
            endpoints.push(t[position].lo().clone());
            endpoints.push(t[position].hi().clone());
        }
        endpoints.sort();
        endpoints.dedup();
        let cells: Vec<Interval> = endpoints
            .windows(2)
            .map(|w| Interval::new(w[0].clone(), w[1].clone()))
            .filter(|iv| !iv.is_point())
            .collect();
        let mut next: Vec<Vec<Interval>> = Vec::new();
        let mut finished: Vec<Vec<Interval>> = Vec::new();
        for t in traces {
            if t.len() <= position {
                finished.push(t);
                continue;
            }
            for cell in &cells {
                if t[position].contains_interval(cell) {
                    let mut refined = t.clone();
                    refined[position] = cell.clone();
                    next.push(refined);
                }
            }
        }
        let mut result = go(next, position + 1);
        result.extend(finished);
        result
    }
    let raw: Vec<Vec<Interval>> = traces.iter().map(|t| t.intervals().to_vec()).collect();
    go(raw, 0)
        .into_iter()
        .map(IntervalTrace::new)
        .collect()
}

/// Constructs a set-type judgement `⊢ M^2ℑ : A` from a family of terminating
/// interval traces, following the completeness construction of Prop. C.15:
/// the family is first refined into a strongly compatible one (Lemma C.14),
/// each refined trace is replayed through the interval reduction to certify
/// termination and obtain its step count, and the elements are assembled into
/// the set type.
///
/// # Errors
///
/// Returns an error if a refined trace is not terminating for the term or if
/// two traces overlap with positive measure (which would make the weight sum
/// unsound).
pub fn derive_set_type(term: &Term, traces: &[IntervalTrace]) -> Result<SetTypeJudgement, DeriveError> {
    let refined = refine_strongly_compatible(traces);
    // Reject families that still overlap (identical refined traces are merged).
    let mut unique: Vec<IntervalTrace> = Vec::new();
    for t in refined {
        if !unique.contains(&t) {
            unique.push(t);
        }
    }
    for (i, a) in unique.iter().enumerate() {
        for b in &unique[i + 1..] {
            if !a.compatible(b) {
                return Err(DeriveError::Overlapping(a.clone(), b.clone()));
            }
        }
    }
    let mut elements = Vec::new();
    for trace in unique {
        match run_interval(term, &trace, 1_000_000) {
            IOutcome::Terminated { value, steps } => {
                let ty = match value.as_num() {
                    Some(iv) => ElementType::Interval(iv.clone()),
                    None => ElementType::Function,
                };
                elements.push(SetTypeElement { ty, trace, steps });
            }
            _ => return Err(DeriveError::NotTerminating(trace)),
        }
    }
    Ok(SetTypeJudgement {
        term: term.clone(),
        set_type: SetType { elements },
    })
}

/// Builds increasingly precise set-type judgements for a term by harvesting
/// terminating interval traces from the symbolic-execution lower-bound engine
/// at the given exploration depth. The resulting weights form the
/// monotonically increasing chain whose lub is `Pterm(M)` (Thm. 4.1).
pub fn derive_from_exploration(term: &Term, depth: usize) -> SetTypeJudgement {
    use probterm_intervalsem::{explore, ExplorationConfig};
    let exploration = explore(
        term,
        &ExplorationConfig::default()
            .with_max_steps_per_path(depth)
            .with_max_paths(50_000),
    );
    // Turn each symbolic path into interval traces: the box sweep bisects the
    // unit box breadth-first against the path constraints, and every sub-box
    // on which all constraints certainly hold becomes a trace (boundary
    // slivers stay undecided and are simply dropped, keeping the weight a
    // sound lower bound).
    let mut traces: Vec<IntervalTrace> = Vec::new();
    for path in &exploration.terminated {
        path.try_sweep_boxes::<std::convert::Infallible>(256, &mut |_| Ok(()), &mut |cube| {
            let trace = IntervalTrace::new(cube.intervals().to_vec());
            if run_interval(term, &trace, 1_000_000).is_terminated() {
                traces.push(trace);
            }
        });
    }
    derive_set_type(term, &traces).unwrap_or(SetTypeJudgement {
        term: term.clone(),
        set_type: SetType::empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::parse_term;

    fn tr(quads: &[(i64, i64, i64, i64)]) -> IntervalTrace {
        IntervalTrace::from_ratios(quads)
    }

    #[test]
    fn empty_set_type_has_zero_weight() {
        let a = SetType::empty();
        assert!(a.is_empty());
        assert_eq!(a.weight(), Rational::zero());
        assert_eq!(a.expectation(), Rational::zero());
        assert_eq!(a.to_string(), "{}");
    }

    #[test]
    fn derivation_for_single_conditional() {
        let term = parse_term("if sample <= 0.5 then 0 else 1").unwrap();
        // The else-branch trace must stay strictly above 1/2: the boundary
        // trace [1/2, 1] cannot decide the branch (Ex. B.4 / Fig. 9).
        let judgement = derive_set_type(
            &term,
            &[tr(&[(0, 1, 1, 2)]), tr(&[(3, 5, 1, 1)])],
        )
        .unwrap();
        assert_eq!(judgement.set_type.len(), 2);
        assert_eq!(judgement.termination_lower_bound(), Rational::from_ratio(9, 10));
        // Both branches take the same number of steps here, so E(A) equals
        // ω(A) times that count.
        let steps = judgement.set_type.elements[0].steps;
        assert_eq!(
            judgement.expected_steps_lower_bound(),
            Rational::from_ratio(9, 10) * Rational::from_int(steps as i64)
        );
        assert!(judgement.set_type.to_string().contains("[0, 1/2]"));
    }

    #[test]
    fn non_terminating_traces_are_rejected() {
        let term = parse_term("if sample <= 0.5 then 0 else 1").unwrap();
        // The undecidable full-interval trace cannot appear in a derivation (Ex. B.4).
        let err = derive_set_type(&term, &[tr(&[(0, 1, 1, 1)])]).unwrap_err();
        assert!(matches!(err, DeriveError::NotTerminating(_)));
        // Wrong length traces are rejected as well.
        let err = derive_set_type(&term, &[tr(&[(0, 1, 1, 4), (0, 1, 1, 4)])]).unwrap_err();
        assert!(matches!(err, DeriveError::NotTerminating(_)));
    }

    #[test]
    fn example_c13_strong_compatibility_refinement() {
        // The two compatible-but-not-strongly-compatible traces of Ex. C.13:
        // [0,1/2][0,1/2] and [0,1/3][1/2,1].
        let traces = vec![tr(&[(0, 1, 1, 2), (0, 1, 1, 2)]), tr(&[(0, 1, 1, 3), (1, 2, 1, 1)])];
        let refined = refine_strongly_compatible(&traces);
        // The refinement covers the same measure.
        let before: Rational = traces.iter().map(IntervalTrace::weight).sum();
        let after: Rational = refined.iter().map(IntervalTrace::weight).sum();
        assert_eq!(before, after);
        // And is pairwise strongly compatible in particular pairwise compatible.
        for (i, a) in refined.iter().enumerate() {
            for b in &refined[i + 1..] {
                assert!(a.compatible(b), "{a} vs {b}");
            }
        }
        assert!(refined.len() >= 3);
    }

    #[test]
    fn weights_lower_bound_termination_probability_of_the_geometric_term() {
        let term = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        // Traces for 0 and 1 recursive calls (the failure interval must stay
        // strictly above 1/2 for the branch to be decided).
        let judgement = derive_set_type(
            &term,
            &[tr(&[(0, 1, 1, 2)]), tr(&[(3, 5, 1, 1), (0, 1, 1, 2)])],
        )
        .unwrap();
        assert_eq!(judgement.termination_lower_bound(), Rational::from_ratio(7, 10));
        // Deeper runs take strictly more steps, so E(A) exceeds ω(A) times the
        // smallest step count among the elements.
        let shallow_steps = judgement
            .set_type
            .elements
            .iter()
            .map(|e| e.steps)
            .min()
            .unwrap();
        assert!(judgement.expected_steps_lower_bound()
            > Rational::from_ratio(7, 10) * Rational::from_int(shallow_steps as i64));
        // And the element with the longer trace indeed takes more steps.
        let (short, long): (Vec<_>, Vec<_>) = judgement
            .set_type
            .elements
            .iter()
            .partition(|e| e.trace.len() == 1);
        assert!(short[0].steps < long[0].steps);
    }

    #[test]
    fn judgements_from_the_exploration_engine_are_sound_and_improve_with_depth() {
        let term = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let shallow = derive_from_exploration(&term, 30);
        let deep = derive_from_exploration(&term, 80);
        let ws = shallow.termination_lower_bound();
        let wd = deep.termination_lower_bound();
        assert!(ws <= wd, "{ws} vs {wd}");
        assert!(wd <= Rational::one());
        assert!(wd >= Rational::from_ratio(3, 4));
    }

    #[test]
    fn overlapping_traces_are_rejected() {
        let term = parse_term("if sample <= 0.5 then 0 else 1").unwrap();
        // Two identical traces are merged (not an error)…
        let ok = derive_set_type(&term, &[tr(&[(0, 1, 1, 4)]), tr(&[(0, 1, 1, 4)])]).unwrap();
        assert_eq!(ok.set_type.len(), 1);
        // …while properly overlapping, non-identical traces at the same length
        // are refined into almost-disjoint pieces covering the union.
        let j = derive_set_type(&term, &[tr(&[(0, 1, 1, 4)]), tr(&[(1, 8, 3, 8)])]).unwrap();
        assert_eq!(j.termination_lower_bound(), Rational::from_ratio(3, 8));
    }
}
