//! Stochastic symbolic execution (paper App. B.5 and §7.1).
//!
//! Instead of evaluating a term on a fixed trace, symbolic execution
//! abstracts the `i`-th `sample` redex by a fresh *sample variable* `αᵢ` and
//! postpones primitive functions, producing *symbolic values*. Control flow
//! is resolved by exploring both branches of every conditional whose guard is
//! symbolic, recording the corresponding *symbolic constraint* (`V ≤ 0` or
//! `V > 0`), which corresponds to fixing a conditional oracle `κ ∈ {L, R}*`
//! (App. B.4).
//!
//! Every terminating path therefore describes the set of standard traces
//! `Sat_m(Δ) = T^{(κ)}_{M,term}` (Proposition B.8) on which the program
//! terminates with that exact branching behaviour; the lower-bound engine
//! measures these sets.
//!
//! # Execution substrate
//!
//! Exploration runs on the shared environment machine
//! ([`probterm_spcf::absmachine`]) instantiated at symbolic literals: the
//! machine pauses at each `sample`/primitive/branch/`score` redex and this
//! module interprets the effect, *forking* the (cheaply clonable) machine at
//! conditionals whose guard mentions sample variables. Each machine step is
//! O(1) amortized, so exploring to depth `d` is linear in `d` per path — the
//! historical whole-term-substitution stepper was quadratic (the unexplored
//! recursion grows the term as the path deepens). That stepper survives as
//! [`explore_substitution`], the reference the machine is differentially
//! tested against (`tests/symbolic_differential.rs`).
//!
//! # Cost of a fork and of a volume
//!
//! A path carries its branch decisions as a [`BranchPath`]: one bit per
//! decision, the first 128 in two inline words, so a fork copies 32 bytes
//! and pushes one bit. Its constraints live in a shared-prefix persistent
//! list: a fork pushes one node holding the guard inline, both children
//! share it, and each reads the comparison (`V ≤ 0` or `V > 0`) off its own
//! last bit. A fork therefore costs one allocation however deep the path, a
//! cut-off path's [`FrontierPath`] is its bits, moved, and a checkpoint's
//! [`ReplaySeed`] a copy of them. The list is copied out into owned
//! [`SymConstraint`]s only when the path terminates.
//!
//! A resumed path starts from its seed's bits with none of them decided and
//! follows them as its oracle, so a path cut off mid-replay still names its
//! whole seed.
//!
//! [`SymbolicPath::exact_probability`] reads each constraint as a sparse
//! affine form holding only its nonzero coefficients, so apart from the
//! volume oracle it costs O(sample variables + total size of the
//! constraints), where one dense coefficient vector per constraint would cost
//! O(sample variables × constraints). The oracle runs once per independent
//! group of variables, on that group's constraints alone, and not at all on
//! a group of one variable: its constraints `c·α ≤ b` each cap (`c > 0`) or
//! floor (`c < 0`) `α` at `b/c`, so its region is the interval
//! `[max(0, floors), min(1, caps)]` and its volume the interval's length (0
//! when empty). That is the Lebesgue measure the oracle computes, in the
//! same exact arithmetic, so every volume is the same rational; in Table 1
//! every group has one variable.
//!
//! A fork past the path budget costs two copies of the parent's bits and no
//! clone of the machine. The queue is FIFO and the budget cut fires on pop
//! number `max_paths + 1`, so the n-th path pushed is the n-th popped: once
//! `max_paths` paths have been pushed, no later child is ever stepped, and
//! its frontier record (the parent's branches plus its own, one step past
//! the parent) is known at the fork. Both records go to a list kept behind
//! the queue, which every abandonment appends after the queue, so the
//! frontier, the polls and the profile are exactly those of a run that
//! queues every child.
//!
//! # Cost of a box sweep
//!
//! A non-affine path is measured by [`SymbolicPath::try_box_lower_bound`],
//! which bisects `[0,1]ⁿ` breadth-first and counts the boxes on which every
//! constraint certainly holds. Each queued box carries the indices of the
//! constraints still undecided on its parent, and a box re-checks only those
//! of them that mention the variable its parent's bisection split. This
//! reaches the same verdict as checking every constraint, for two reasons:
//!
//! * interval evaluation is inclusion-isotone — the half's enclosure lies
//!   inside the parent's — so a constraint certainly true on the parent is
//!   certainly true on the half (and it holds on the whole parent, so
//!   counting the half is sound in any case);
//! * a constraint that does not mention the split variable sees the same
//!   intervals on the half as on the parent, so its enclosure, and with it
//!   its verdict, is the parent's.
//!
//! So a decided constraint is never evaluated again, and an undecided one
//! only when its own variables shrink; a variable → constraints index is
//! built once per path. The sweep computes no widths either: from `[0,1]ⁿ`,
//! bisecting the widest dimension with ties going to the last one splits
//! dimension `n−1−(t mod n)` at depth `t`, so every box at depth `t` has
//! volume `2⁻ᵗ`. The sum is kept as a count of accepted boxes per depth and
//! becomes a [`Rational`] once, at the end, equal to the sum of the
//! accepted boxes' exact volumes.
//!
//! Each check is decided in `f64` whenever that gives the exact verdict,
//! which on polynomial guards is almost always. The exact enclosure
//! [`SymValue::eval_interval`] is an interval `[L, H]` of rationals, and the
//! verdict depends only on the signs of `L` and `H` (for `V ≤ 0`: true when
//! `H ≤ 0`, false when `L > 0`). The float evaluation follows the same
//! interval operations with [`EndpointBrackets`]: two floats around each
//! exact endpoint, `L ∈ [lo↓, lo↑]` and `H ∈ [hi↓, hi↑]`, each rounded
//! result moved one ulp outward only when an error-free transform shows it
//! was inexact. So `hi↑ ≤ 0` proves `H ≤ 0`, `lo↓ > 0` proves `L > 0`, and
//! `lo↑ ≤ 0 < hi↓` proves the box undecided; a verdict the brackets give is
//! the exact verdict. The exact evaluation runs only when a bracket
//! straddles 0 where the verdict needs a sign, or when floats cannot follow
//! the value: at `exp`, `log` and `sig`, at a big rational, or at an
//! underflow or overflow.
//!
//! The boxes themselves are kept as `f64` endpoints, which are exact: from
//! `[0,1]`, every endpoint after `t` bisections of a dimension is a multiple
//! of `2⁻ᵗ`, a float while `t ≤ 53`. A bisection whose midpoint is not a
//! float would round it onto an endpoint, so from that bisection on the box
//! keeps rational endpoints, and its checks convert them to brackets as any
//! caller of [`SymConstraint::check_box`] does. A float box is turned into an
//! [`IntervalBox`] only when an exact check needs it or when it is accepted
//! and handed to `inside`.
//!
//! # Interruption
//!
//! [`try_explore_seeded`] threads one poll hook through the exploration loop,
//! so a caller (the analysis service enforcing `deadline_ms`) can observe
//! progress and cancel *mid-exploration*, and still receive every path
//! terminated so far — a sound, monotonically improvable partial result by
//! Theorem 3.4.

use crate::lowerbound::Poll;
use probterm_numerics::{EndpointBrackets, Interval, IntervalBox, Rational};
use probterm_polytope::UnitCubePolytope;
use probterm_spcf::absmachine::{DomainSpec, Event, Machine, NoAtom};
use probterm_spcf::{Ident, Prim, Strategy, Term};
use probterm_telemetry::{EngineProfile, ProfileCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// A symbolic value of base type: an expression over sample variables,
/// rational constants and primitive functions.
#[derive(Debug, Clone, PartialEq)]
pub enum SymValue {
    /// A rational constant.
    Const(Rational),
    /// The `i`-th sample variable `αᵢ`.
    Var(usize),
    /// A postponed primitive application `f̄(V₁, …, V_{|f|})`.
    Prim(Prim, Vec<SymValue>),
}

impl SymValue {
    /// Evaluates the symbolic value at a concrete assignment of the sample
    /// variables. Returns `None` if a partial primitive is applied outside
    /// its domain.
    pub fn eval(&self, assignment: &[Rational]) -> Option<Rational> {
        match self {
            SymValue::Const(r) => Some(r.clone()),
            SymValue::Var(i) => assignment.get(*i).cloned(),
            SymValue::Prim(p, args) => {
                let values: Option<Vec<Rational>> =
                    args.iter().map(|a| a.eval(assignment)).collect();
                p.eval(&values?)
            }
        }
    }

    /// Evaluates an interval enclosure of the symbolic value over a box of
    /// sample-variable values. Returns `None` if a partial primitive may be
    /// applied outside its domain anywhere in the box, or if no finite
    /// enclosure is known (a transcendental overflows `f64`).
    pub fn eval_interval(&self, boxes: &IntervalBox) -> Option<Interval> {
        match self {
            SymValue::Const(r) => Some(Interval::point(r.clone())),
            SymValue::Var(i) => boxes.intervals().get(*i).cloned(),
            // Every primitive is unary or binary: its arguments' enclosures
            // go on the stack, so a box check allocates nothing per node.
            SymValue::Prim(p, args) => match args.as_slice() {
                [a] => crate::iterm::prim_interval(*p, &[a.eval_interval(boxes)?]),
                [a, b] => crate::iterm::prim_interval(
                    *p,
                    &[a.eval_interval(boxes)?, b.eval_interval(boxes)?],
                ),
                _ => panic!("arity mismatch for {p:?}"),
            },
        }
    }

    /// Float brackets of the endpoints of
    /// [`eval_interval`](SymValue::eval_interval)'s enclosure, with `var`
    /// bracketing each variable's interval. `None` when floats cannot follow
    /// the exact evaluation: at `exp`, `log` and `sig`, at a constant or an
    /// endpoint stored as a big rational, at a product that underflows and
    /// at a value that is not finite. On the other primitives the exact
    /// evaluation never fails, so a float answer implies an exact one.
    fn enclose_f64(
        &self,
        var: &impl Fn(usize) -> Option<EndpointBrackets>,
    ) -> Option<EndpointBrackets> {
        match self {
            SymValue::Const(r) => EndpointBrackets::point(r),
            SymValue::Var(i) => var(*i),
            SymValue::Prim(p, args) => match (p, args.as_slice()) {
                (Prim::Add, [a, b]) => a.enclose_f64(var)?.add(&b.enclose_f64(var)?),
                (Prim::Sub, [a, b]) => a.enclose_f64(var)?.sub(&b.enclose_f64(var)?),
                (Prim::Mul, [a, b]) => a.enclose_f64(var)?.mul(&b.enclose_f64(var)?),
                (Prim::Min, [a, b]) => Some(a.enclose_f64(var)?.min(&b.enclose_f64(var)?)),
                (Prim::Max, [a, b]) => Some(a.enclose_f64(var)?.max(&b.enclose_f64(var)?)),
                (Prim::Neg, [a]) => Some(a.enclose_f64(var)?.neg()),
                (Prim::Abs, [a]) => a.enclose_f64(var)?.abs(),
                (Prim::Floor, [a]) => Some(a.enclose_f64(var)?.floor()),
                _ => None,
            },
        }
    }

    /// Why [`eval_interval`](SymValue::eval_interval) found no enclosure
    /// over the box; `None` when it found one. Kept off the sweep's hot
    /// path: only a failed evaluation asks.
    #[cold]
    #[inline(never)]
    fn why_unenclosed(&self, boxes: &IntervalBox) -> Option<NoEnclosure> {
        fn enclose(v: &SymValue, boxes: &IntervalBox) -> Result<Interval, NoEnclosure> {
            match v {
                SymValue::Const(r) => Ok(Interval::point(r.clone())),
                SymValue::Var(i) => {
                    boxes.intervals().get(*i).cloned().ok_or(NoEnclosure::Undefined)
                }
                SymValue::Prim(p, args) => {
                    let args = args
                        .iter()
                        .map(|a| enclose(a, boxes))
                        .collect::<Result<Vec<_>, _>>()?;
                    // `log` is the only partial primitive: undefined on the
                    // whole box when its argument's upper end is `≤ 0`, maybe
                    // defined on a smaller box when only the lower end is.
                    // Past that, `prim_interval` fails only on an `f64`
                    // overflow.
                    if matches!(p, Prim::Log) {
                        if !args[0].hi().is_positive() {
                            return Err(NoEnclosure::Undefined);
                        }
                        if !args[0].lo().is_positive() {
                            return Err(NoEnclosure::Unknown);
                        }
                    }
                    crate::iterm::prim_interval(*p, &args).ok_or(NoEnclosure::Unknown)
                }
            }
        }
        enclose(self, boxes).err()
    }

    /// Calls `visit` on every sample-variable occurrence in the value.
    fn visit_vars(&self, visit: &mut dyn FnMut(usize)) {
        match self {
            SymValue::Const(_) => {}
            SymValue::Var(i) => visit(*i),
            SymValue::Prim(_, args) => args.iter().for_each(|a| a.visit_vars(visit)),
        }
    }

    /// The highest sample-variable index occurring in the value, if any.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            SymValue::Const(_) => None,
            SymValue::Var(i) => Some(*i),
            SymValue::Prim(_, args) => args.iter().filter_map(SymValue::max_var).max(),
        }
    }

    /// Attempts to view the value as an affine expression `Σ cᵢ·αᵢ + k` over
    /// `dimension` sample variables. Returns `(coefficients, constant)`: the
    /// dense rendering of the value's sparse affine form, so `None` also when
    /// a variable that survives cancellation has index `≥ dimension`.
    ///
    /// Only addition, subtraction, negation and multiplication in which at
    /// least one factor is constant are affine; anything else returns `None`.
    pub fn as_affine(&self, dimension: usize) -> Option<(Vec<Rational>, Rational)> {
        let form = self.affine_form()?;
        Some((form.dense(dimension)?, form.constant))
    }

    /// The sparse affine view of the value: like [`SymValue::as_affine`], but
    /// holding only the nonzero coefficients, so its cost is proportional to
    /// the size of the value rather than to the number of sample variables.
    fn affine_form(&self) -> Option<AffineForm> {
        match self {
            SymValue::Const(r) => Some(AffineForm { terms: Vec::new(), constant: r.clone() }),
            SymValue::Var(i) => Some(AffineForm {
                terms: vec![(*i, Rational::one())],
                constant: Rational::zero(),
            }),
            SymValue::Prim(p, args) => match p {
                Prim::Add => Some(args[0].affine_form()?.add(args[1].affine_form()?)),
                Prim::Sub => Some(args[0].affine_form()?.add(args[1].affine_form()?.neg())),
                Prim::Neg => Some(args[0].affine_form()?.neg()),
                Prim::Mul => {
                    let a = args[0].affine_form()?;
                    let b = args[1].affine_form()?;
                    if a.terms.is_empty() {
                        Some(b.scale(&a.constant))
                    } else if b.terms.is_empty() {
                        Some(a.scale(&b.constant))
                    } else {
                        None
                    }
                }
                _ => None,
            },
        }
    }

    /// Returns `true` if the value contains no sample variables.
    pub fn is_constant(&self) -> bool {
        self.max_var().is_none()
    }

    /// Appends `V > 0` for every `log(V)` sub-term of the value, innermost
    /// first: the conditions under which the value is defined, as `log` is
    /// the only partial primitive. A path ending in a value that holds a
    /// postponed primitive has not yet applied it; the concrete machine
    /// would, and would get stuck wherever the value is undefined, so a
    /// terminated path records these constraints with its own.
    pub fn push_domain_constraints(&self, out: &mut Vec<SymConstraint>) {
        if let SymValue::Prim(p, args) = self {
            for arg in args {
                arg.push_domain_constraints(out);
            }
            if *p == Prim::Log {
                out.push(SymConstraint { value: args[0].clone(), kind: ConstraintKind::Positive });
            }
        }
    }
}

impl fmt::Display for SymValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymValue::Const(r) => write!(f, "{r}"),
            SymValue::Var(i) => write!(f, "α{i}"),
            SymValue::Prim(p, args) => {
                write!(f, "{}(", p.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An affine expression `Σ cᵢ·αᵢ + k` holding only its nonzero coefficients,
/// sorted by variable index.
#[derive(Debug)]
struct AffineForm {
    terms: Vec<(usize, Rational)>,
    constant: Rational,
}

impl AffineForm {
    /// `self + other`; coefficients that cancel are dropped. A side with no
    /// terms only moves the constant, so the other side's terms are reused.
    fn add(mut self, mut other: AffineForm) -> AffineForm {
        if other.terms.is_empty() {
            self.constant += other.constant;
            return self;
        }
        if self.terms.is_empty() {
            other.constant += self.constant;
            return other;
        }
        self.terms.extend(other.terms);
        self.terms.sort_by_key(|(i, _)| *i);
        let mut terms: Vec<(usize, Rational)> = Vec::with_capacity(self.terms.len());
        for (i, c) in self.terms {
            match terms.last_mut() {
                Some((last, sum)) if *last == i => *sum += c,
                _ => terms.push((i, c)),
            }
        }
        terms.retain(|(_, c)| !c.is_zero());
        AffineForm { terms, constant: self.constant + other.constant }
    }

    /// `−self`, in place.
    fn neg(mut self) -> AffineForm {
        for (_, c) in &mut self.terms {
            *c = c.negated();
        }
        self.constant = self.constant.negated();
        self
    }

    /// `factor · self`, in place; scaling by zero leaves no terms.
    fn scale(mut self, factor: &Rational) -> AffineForm {
        if factor.is_zero() {
            self.terms.clear();
        }
        for (_, c) in &mut self.terms {
            *c = &*c * factor;
        }
        self.constant = &self.constant * factor;
        self
    }

    /// The coefficients as a dense vector over `dimension` variables, `None`
    /// when a variable lies outside it.
    fn dense(&self, dimension: usize) -> Option<Vec<Rational>> {
        let mut coeffs = vec![Rational::zero(); dimension];
        for (i, c) in &self.terms {
            *coeffs.get_mut(*i)? = c.clone();
        }
        Some(coeffs)
    }
}

/// The length of `{α ∈ [0,1] | c·α ≤ b for every form}`, for forms over one
/// and the same variable with `c ≠ 0`: the closed form of
/// [`SymbolicPath::exact_probability`] for a one-variable group.
fn interval_length<'f>(forms: impl Iterator<Item = &'f AffineForm>) -> Rational {
    let (mut lo, mut hi) = (Rational::zero(), Rational::one());
    for form in forms {
        let [(_, c)] = form.terms.as_slice() else {
            unreachable!("a one-variable group holds one term per form")
        };
        let edge = &form.constant / c;
        if c.is_positive() {
            hi = hi.min(edge);
        } else {
            lo = lo.max(edge);
        }
    }
    if hi > lo {
        hi - lo
    } else {
        Rational::zero()
    }
}

/// The comparison recorded for a path constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// The value is `≤ 0` (then-branch of a conditional).
    NonPositive,
    /// The value is `> 0` (else-branch of a conditional).
    Positive,
    /// The value is `≥ 0` (successful `score`).
    NonNegative,
}

/// Why a symbolic value has no interval enclosure over a box.
enum NoEnclosure {
    /// A partial primitive is applied outside its domain on the whole box,
    /// where the path gets stuck.
    Undefined,
    /// A smaller box may have an enclosure: a partial primitive leaves its
    /// domain on part of the box only, or an endpoint overflows `f64`.
    Unknown,
}

/// A symbolic (in)equality `V ⊲⊳ 0` collected along a path (App. B.5).
#[derive(Debug, Clone, PartialEq)]
pub struct SymConstraint {
    /// The symbolic value being compared with zero.
    pub value: SymValue,
    /// The comparison.
    pub kind: ConstraintKind,
}

impl SymConstraint {
    /// Checks the constraint at a concrete assignment (`None` when the value
    /// is undefined there).
    pub fn holds_at(&self, assignment: &[Rational]) -> Option<bool> {
        let v = self.value.eval(assignment)?;
        Some(match self.kind {
            ConstraintKind::NonPositive => !v.is_positive(),
            ConstraintKind::Positive => v.is_positive(),
            ConstraintKind::NonNegative => !v.is_negative(),
        })
    }

    /// Interval check over a box: `Some(true)` when the constraint certainly
    /// holds on the whole box, `Some(false)` when it certainly fails on the
    /// whole box or a primitive leaves its domain on the whole box, and
    /// `None` when undecided. Undecided includes a primitive that leaves its
    /// domain on part of the box only and an enclosure that overflows `f64`:
    /// the sweep bisects such a box, and counts none of it until a smaller
    /// box is decided.
    ///
    /// The verdict is that of the exact enclosure
    /// [`SymValue::eval_interval`], but it is first read off float brackets
    /// of that enclosure's endpoints, which decide almost every box without
    /// rational arithmetic. Only when the brackets do not place an endpoint
    /// the verdict depends on (or floats cannot follow the value, as at
    /// `exp`, `log` and `sig`) does the exact evaluation run.
    pub fn check_box(&self, boxes: &IntervalBox) -> Option<bool> {
        let var = |i: usize| boxes.intervals().get(i).and_then(EndpointBrackets::of);
        match self.float_verdict(&var) {
            Some(verdict) => verdict,
            None => self.exact_verdict(boxes),
        }
    }

    /// [`check_box`](SymConstraint::check_box)'s verdict read off float
    /// brackets of the exact enclosure `[L, H]`, with `var` bracketing each
    /// variable's interval; `None` when the brackets do not decide it.
    ///
    /// The verdict depends only on the signs of `L` and `H` (for `≤ 0`: true
    /// when `H ≤ 0`, false when `L > 0`). A bracket `[a, b]` of an endpoint
    /// with `a > 0` proves it positive and one with `b ≤ 0` proves it not,
    /// so whenever the brackets settle the signs the verdict needs, it is
    /// the exact verdict.
    fn float_verdict(
        &self,
        var: &impl Fn(usize) -> Option<EndpointBrackets>,
    ) -> Option<Option<bool>> {
        let value = self.value.enclose_f64(var)?;
        let (lo, hi) = (value.lo(), value.hi());
        // Whether the endpoint bracketed by `[a, b]` is `> 0` (`< 0`), when
        // the bracket tells.
        let positive = |[a, b]: [f64; 2]| (a > 0.0 || b <= 0.0).then_some(a > 0.0);
        let negative = |[a, b]: [f64; 2]| (b < 0.0 || a >= 0.0).then_some(b < 0.0);
        Some(match self.kind {
            ConstraintKind::NonPositive => {
                if !positive(hi)? {
                    Some(true)
                } else if positive(lo)? {
                    Some(false)
                } else {
                    None
                }
            }
            ConstraintKind::Positive => {
                if positive(lo)? {
                    Some(true)
                } else if !positive(hi)? {
                    Some(false)
                } else {
                    None
                }
            }
            ConstraintKind::NonNegative => {
                if !negative(lo)? {
                    Some(true)
                } else if negative(hi)? {
                    Some(false)
                } else {
                    None
                }
            }
        })
    }

    /// [`check_box`](SymConstraint::check_box)'s verdict from the exact
    /// enclosure alone.
    fn exact_verdict(&self, boxes: &IntervalBox) -> Option<bool> {
        let Some(iv) = self.value.eval_interval(boxes) else {
            return match self.value.why_unenclosed(boxes) {
                Some(NoEnclosure::Unknown) => None,
                _ => Some(false),
            };
        };
        match self.kind {
            ConstraintKind::NonPositive => {
                if iv.certainly_nonpositive() {
                    Some(true)
                } else if iv.certainly_positive() {
                    Some(false)
                } else {
                    None
                }
            }
            ConstraintKind::Positive => {
                if iv.certainly_positive() {
                    Some(true)
                } else if iv.certainly_nonpositive() {
                    Some(false)
                } else {
                    None
                }
            }
            ConstraintKind::NonNegative => {
                if !iv.lo().is_negative() {
                    Some(true)
                } else if iv.hi().is_negative() {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    /// Translates the constraint into a linear inequality `c·α ≤ b` when the
    /// underlying value is affine. For strict constraints the closure is
    /// returned (sound for volume purposes: the boundary is a null set).
    /// This is the dense rendering of the constraint's sparse linear form.
    pub fn as_linear(&self, dimension: usize) -> Option<(Vec<Rational>, Rational)> {
        let form = self.linear_form()?;
        Some((form.dense(dimension)?, form.constant))
    }

    /// The constraint as `c·α ≤ b` in sparse form: `terms` holds `c`, and
    /// `constant` holds `b`.
    fn linear_form(&self) -> Option<AffineForm> {
        // Every kind is `W ≤ 0` for some affine `W = c·α + k` (closed for a
        // strict `V > 0`: the boundary is a null set), i.e. `c·α ≤ −k`.
        let form = self.value.affine_form()?;
        let w = match self.kind {
            ConstraintKind::NonPositive => form,
            ConstraintKind::Positive | ConstraintKind::NonNegative => form.neg(),
        };
        Some(AffineForm { terms: w.terms, constant: -w.constant })
    }
}

impl fmt::Display for SymConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            ConstraintKind::NonPositive => "<= 0",
            ConstraintKind::Positive => "> 0",
            ConstraintKind::NonNegative => ">= 0",
        };
        write!(f, "{} {op}", self.value)
    }
}

/// A branching decision along a path (the conditional oracle `κ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// The then-branch (`𝒍`).
    Then,
    /// The else-branch (`𝒓`).
    Else,
}

impl Branch {
    /// The branch a [`BranchPath`] bit stands for: `0` then, `1` else.
    fn of_bit(bit: bool) -> Branch {
        if bit {
            Branch::Else
        } else {
            Branch::Then
        }
    }

    /// The constraint a path taking this branch of a guard `V` records:
    /// `V ≤ 0` for then, `V > 0` for else.
    fn kind(self) -> ConstraintKind {
        match self {
            Branch::Then => ConstraintKind::NonPositive,
            Branch::Else => ConstraintKind::Positive,
        }
    }
}

/// A path's branch decisions, one bit each (`0` then, `1` else), in 32
/// bytes: a length, two inline words for the first 128 decisions and a
/// boxed spill for the rest. Copying one to fork a path therefore allocates
/// nothing unless the path is deeper than 128 branches.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BranchPath {
    len: u32,
    inline: [u64; 2],
    // A thin pointer: a boxed slice would make the path 40 bytes.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<u64>>>,
}

impl BranchPath {
    /// Decisions kept in the inline words.
    const INLINE: usize = 128;

    /// The number of decisions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no decision has been taken.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one decision.
    pub fn push(&mut self, branch: Branch) {
        let i = self.len();
        let bit = u64::from(branch == Branch::Else) << (i % 64);
        if i < Self::INLINE {
            self.inline[i / 64] |= bit;
        } else {
            let spill = self.spill.get_or_insert_with(Default::default);
            if i.is_multiple_of(64) {
                spill.push(0);
            }
            *spill.last_mut().expect("a word per started 64 decisions") |= bit;
        }
        self.len = u32::try_from(i + 1).expect("fewer than 2³² branch decisions");
    }

    /// The `i`-th decision, `None` past the end.
    pub fn get(&self, i: usize) -> Option<Branch> {
        if i >= self.len() {
            return None;
        }
        let word = match i.checked_sub(Self::INLINE) {
            None => self.inline[i / 64],
            Some(j) => self.spill.as_ref().expect("decisions past the inline words")[j / 64],
        };
        Some(Branch::of_bit(word >> (i % 64) & 1 == 1))
    }

    /// The decisions, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Branch> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("in range"))
    }
}

impl FromIterator<Branch> for BranchPath {
    fn from_iter<I: IntoIterator<Item = Branch>>(iter: I) -> BranchPath {
        let mut path = BranchPath::default();
        for branch in iter {
            path.push(branch);
        }
        path
    }
}

impl fmt::Debug for BranchPath {
    /// The `T`/`E` string of [`ReplaySeed::render`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text: String = self.iter().map(branch_char).collect();
        write!(f, "BranchPath({text:?})")
    }
}

/// A branch as one character of a rendered [`ReplaySeed`].
fn branch_char(branch: Branch) -> char {
    match branch {
        Branch::Then => 'T',
        Branch::Else => 'E',
    }
}

/// A terminating symbolic path: a conditional oracle together with the path
/// constraint and bookkeeping information.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicPath {
    /// Number of sample variables drawn along the path.
    pub sample_count: usize,
    /// The branch decisions taken, in order.
    pub branches: Vec<Branch>,
    /// The collected path constraints `Δ`.
    pub constraints: Vec<SymConstraint>,
    /// Number of small-step reductions performed on the path.
    pub steps: usize,
    /// The symbolic result value (for base-type programs).
    pub result: Option<SymValue>,
}

impl SymbolicPath {
    /// Returns `true` if every constraint is affine in the sample variables,
    /// in which case the path region is a convex polytope and its probability
    /// can be computed exactly.
    pub fn is_linear(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| c.as_linear(self.sample_count).is_some())
    }

    /// Builds the polytope `{α ∈ [0,1]^m | Δ}` for linear paths. Dense in all
    /// `m` sample variables: the reference [`SymbolicPath::exact_probability`]
    /// is tested against.
    pub fn to_polytope(&self) -> Option<UnitCubePolytope> {
        let mut poly = UnitCubePolytope::new(self.sample_count);
        for c in &self.constraints {
            let (coeffs, bound) = c.as_linear(self.sample_count)?;
            poly.add(coeffs, bound);
        }
        Some(poly)
    }

    /// Exact probability of the path region for linear paths.
    ///
    /// The constraint system is split into independent groups of sample
    /// variables (constraints sharing no variable are probabilistically
    /// independent), and the volume of each group is computed on a polytope
    /// over that group's variables alone. Each constraint is read as a sparse
    /// affine form, so apart from the volume oracle the cost is
    /// O(m + Σ size of the constraints) for `m` sample variables; the oracle
    /// is exponential in a group's dimension, which is why groups over more
    /// than 7 variables return `None` (the caller falls back to the sound
    /// box sweep). A group of one variable never reaches the oracle: its
    /// constraints `c·α ≤ b` each cap (`c > 0`) or floor (`c < 0`) `α` at
    /// `b/c`, so its region is `[max(0, floors), min(1, caps)]` and its
    /// volume that interval's length, or 0 when it is empty — exactly the
    /// rational the oracle would return. Paths whose constraints are all
    /// univariate, every path of Table 1, build no polytope at all.
    pub fn exact_probability(&self) -> Option<Rational> {
        // The exact volume oracle is exponential in the dimension; beyond this
        // threshold the caller falls back to the (sound) box-splitting sweep.
        const MAX_EXACT_DIMENSION: usize = 7;
        let n = self.sample_count;
        let linear: Vec<AffineForm> = self
            .constraints
            .iter()
            .map(SymConstraint::linear_form)
            .collect::<Option<Vec<_>>>()?;
        if linear.iter().any(|form| form.terms.last().is_some_and(|(i, _)| *i >= n)) {
            return None;
        }
        // Constant constraints (no variables): either trivially true or the path is empty.
        if linear.iter().any(|form| form.terms.is_empty() && form.constant.is_negative()) {
            return Some(Rational::zero());
        }
        // Union-find over sample variables connected by shared constraints.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            while parent[i] != root {
                i = std::mem::replace(&mut parent[i], root);
            }
            root
        }
        for form in &linear {
            for pair in form.terms.windows(2) {
                let a = find(&mut parent, pair[0].0);
                let b = find(&mut parent, pair[1].0);
                parent[a] = b;
            }
        }
        // One scratch buffer: each component's size, indexed by root, then
        // each variable's position inside its component.
        let mut scratch = vec![0usize; 2 * n];
        let (size, local) = scratch.split_at_mut(n);
        for (i, slot) in local.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            *slot = size[root];
            size[root] += 1;
        }
        // Each constraint with a variable, tagged with its component's root.
        // Sorted, the tags run component by component in ascending root
        // order, so the early returns below (an oversized component, an
        // empty one) fire in a fixed order; inside a run the constraints
        // keep their path order.
        let mut tags: Vec<(usize, usize)> = linear
            .iter()
            .enumerate()
            .filter_map(|(k, form)| Some((find(&mut parent, form.terms.first()?.0), k)))
            .collect();
        tags.sort_unstable();
        let mut probability = Rational::one();
        for run in tags.chunk_by(|a, b| a.0 == b.0) {
            let group = run.iter().map(|&(_, k)| &linear[k]);
            let volume = match size[run[0].0] {
                1 => interval_length(group),
                d if d > MAX_EXACT_DIMENSION => return None,
                d => {
                    let mut poly = UnitCubePolytope::new(d);
                    for form in group {
                        let mut coeffs = vec![Rational::zero(); d];
                        for (i, c) in &form.terms {
                            coeffs[local[*i]] = c.clone();
                        }
                        poly.add(coeffs, form.constant.clone());
                    }
                    poly.probability()
                }
            };
            probability *= &volume;
            if probability.is_zero() {
                return Some(probability);
            }
        }
        Some(probability)
    }

    /// Lower-bounds the probability of the path region by adaptive box
    /// splitting with interval arithmetic — the "sweep" of §7.1. Works for
    /// arbitrary (non-linear) constraints; `max_boxes` bounds the work.
    pub fn box_lower_bound(&self, max_boxes: usize) -> Rational {
        self.try_box_lower_bound::<std::convert::Infallible>(max_boxes, &mut |_| Ok(()))
            .0
    }

    /// Interruptible [`SymbolicPath::box_lower_bound`]: `check(Poll::Sweep)`
    /// runs every 64 boxes of the sweep and, when it fails, the partial sum
    /// accumulated so far is returned together with the error. Boxes already
    /// proven inside the region stay counted — a truncated sweep is still a
    /// sound lower bound, just a looser one, so deadline-bounded measurement
    /// never has to discard work.
    pub fn try_box_lower_bound<E>(
        &self,
        max_boxes: usize,
        check: &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
    ) -> (Rational, Option<E>) {
        self.try_sweep_boxes(max_boxes, check, &mut |_| {})
    }

    /// The box sweep behind [`SymbolicPath::try_box_lower_bound`], which also
    /// hands every box it proves inside the path region to `inside`, in the
    /// order the sweep finds them.
    ///
    /// Boxes are taken first-in first-out from `[0,1]ⁿ`; the `max_boxes`-th
    /// box is the last one examined, and `check(Poll::Sweep)` runs before
    /// every 64th. A box on which some constraint certainly fails is dropped,
    /// one on which every constraint certainly holds is counted, and any
    /// other is bisected (see the module docs for what each box re-checks).
    pub fn try_sweep_boxes<E>(
        &self,
        max_boxes: usize,
        check: &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
        inside: &mut dyn FnMut(&IntervalBox),
    ) -> (Rational, Option<E>) {
        /// A queued box, the number of bisections that made it, and the
        /// constraints (ascending indices) undecided on its parent.
        struct Pending {
            cube: Cube,
            depth: usize,
            undecided: Rc<[usize]>,
        }
        /// A box with float endpoints while every bisection that made it had
        /// a float midpoint, so that they are its exact endpoints; with
        /// rational endpoints from the first bisection that had not.
        enum Cube {
            Float(Vec<[f64; 2]>),
            Exact(IntervalBox),
        }
        let exact_box = |ends: &[[f64; 2]]| -> IntervalBox {
            ends.iter()
                .map(|&[lo, hi]| {
                    Interval::new(Rational::from_f64_exact(lo), Rational::from_f64_exact(hi))
                })
                .collect()
        };
        let n = self.sample_count;
        // The dimension bisected at depth `t`: `bisect_widest` on a box of
        // `[0,1]ⁿ` bisected `t` times, since ties go to the last dimension.
        let split_dim = |depth: usize| n - 1 - depth % n;
        let all: Vec<usize> = (0..self.constraints.len()).collect();
        // The constraints mentioning each sample variable, ascending.
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, c) in self.constraints.iter().enumerate() {
            c.value.visit_vars(&mut |v| {
                if v < n && touching[v].last() != Some(&k) {
                    touching[v].push(k);
                }
            });
        }
        // Boxes proven inside, by depth: a box at depth `t` has volume 2⁻ᵗ.
        let mut accepted: Vec<u64> = Vec::new();
        let mut interruption = None;
        let mut still: Vec<usize> = Vec::new();
        let mut queue: VecDeque<Pending> = VecDeque::from([Pending {
            cube: Cube::Float(vec![[0.0, 1.0]; n]),
            depth: 0,
            undecided: all.as_slice().into(),
        }]);
        let mut processed = 0usize;
        while let Some(Pending { cube, depth, undecided }) = queue.pop_front() {
            processed += 1;
            if processed > max_boxes {
                break;
            }
            if processed % 64 == 0 {
                if let Err(e) = check(Poll::Sweep) {
                    interruption = Some(e);
                    break;
                }
            }
            // Only the constraints mentioning the variable the last bisection
            // split can change verdict; the root checks every constraint.
            let mut touched = if depth == 0 { &all } else { &touching[split_dim(depth - 1)] }
                .iter()
                .peekable();
            // A float box's rational form, built when first needed: for an
            // exact check the brackets leave open, or to report the box.
            let mut exact: Option<IntervalBox> = None;
            still.clear();
            let mut outside = false;
            for &k in undecided.iter() {
                while touched.next_if(|&&j| j < k).is_some() {}
                if touched.next_if_eq(&&k).is_some() {
                    let c = &self.constraints[k];
                    let verdict = match &cube {
                        Cube::Float(ends) => {
                            let var = |i: usize| {
                                ends.get(i).and_then(|&[lo, hi]| EndpointBrackets::exact(lo, hi))
                            };
                            c.float_verdict(&var).unwrap_or_else(|| {
                                c.exact_verdict(exact.get_or_insert_with(|| exact_box(ends)))
                            })
                        }
                        Cube::Exact(cube) => c.check_box(cube),
                    };
                    match verdict {
                        Some(false) => {
                            outside = true;
                            break;
                        }
                        Some(true) => continue,
                        None => {}
                    }
                }
                still.push(k);
            }
            if outside {
                continue;
            }
            if still.is_empty() {
                if accepted.len() <= depth {
                    accepted.resize(depth + 1, 0);
                }
                accepted[depth] += 1;
                match &cube {
                    Cube::Float(ends) => inside(exact.get_or_insert_with(|| exact_box(ends))),
                    Cube::Exact(cube) => inside(cube),
                }
                continue;
            }
            if n == 0 {
                // A 0-dimensional box cannot be split.
                continue;
            }
            let undecided =
                if still.len() == undecided.len() { undecided } else { still.as_slice().into() };
            let dim = split_dim(depth);
            let (lower, upper) = match cube {
                Cube::Float(mut ends) => {
                    let [lo, hi] = ends[dim];
                    // The endpoints are adjacent multiples of some 2⁻ᵗ, so
                    // their midpoint is a float exactly when it rounds
                    // strictly between them, and then the sum and the
                    // halving were exact.
                    let mid = (lo + hi) * 0.5;
                    if lo < mid && mid < hi {
                        let mut upper = ends.clone();
                        ends[dim][1] = mid;
                        upper[dim][0] = mid;
                        (Cube::Float(ends), Cube::Float(upper))
                    } else {
                        let mut lower = exact.unwrap_or_else(|| exact_box(&ends));
                        let upper = lower.bisect_dim(dim);
                        (Cube::Exact(lower), Cube::Exact(upper))
                    }
                }
                Cube::Exact(mut lower) => {
                    let upper = lower.bisect_dim(dim);
                    (Cube::Exact(lower), Cube::Exact(upper))
                }
            };
            queue.push_back(Pending { cube: lower, depth: depth + 1, undecided: undecided.clone() });
            queue.push_back(Pending { cube: upper, depth: depth + 1, undecided });
        }
        let mut total = Rational::zero();
        for (depth, &count) in accepted.iter().enumerate() {
            if count > 0 {
                let volume = Rational::half().pow(i32::try_from(depth).expect("sweep depth"));
                total += &Rational::from_int(count as i64) * &volume;
            }
        }
        (total, interruption)
    }

    /// Probability of the path region: exact for linear constraint systems,
    /// a box-splitting lower bound otherwise.
    pub fn probability(&self, max_boxes: usize) -> Rational {
        match self.exact_probability() {
            Some(p) => p,
            None => self.box_lower_bound(max_boxes),
        }
    }

    /// Searches the path region for a concrete *witness*: a sample vector on
    /// which the concrete machine provably follows this path. The search
    /// bisects the unit cube until it finds a box on which every constraint
    /// certainly holds and the terminal value is certainly defined, then
    /// returns the box midpoints.
    ///
    /// Strict (`> 0`) constraints are satisfied strictly because a box only
    /// passes `check_box` when the enclosure is certainly positive. Under
    /// call-by-name, every primitive application the concrete machine forces
    /// along the path occurs inside a recorded constraint or the terminal
    /// result, so requiring the result's interval enclosure to exist on the
    /// box rules out replays that would strand on a partial primitive (e.g.
    /// `log`) applied outside its domain.
    ///
    /// Returns `None` when `max_boxes` bisections were not enough — possible
    /// for thin or empty regions, never for a region containing an interior
    /// box wider than the budget allows refining to.
    pub fn find_witness(&self, max_boxes: usize) -> Option<Vec<Rational>> {
        // How a box relates to the path region: certainly outside, certainly
        // inside (with the result defined), or ambiguous — carrying the
        // descent heuristic: how many conditions the whole box decides true,
        // and how many its midpoint *point* satisfies.
        enum Fit {
            Outside,
            Inside,
            Ambiguous(usize, usize),
        }
        let conditions = self.constraints.len() + usize::from(self.result.is_some());
        let holds_on = |cube: &IntervalBox| -> Option<usize> {
            let mut decided = 0usize;
            for c in &self.constraints {
                match c.check_box(cube) {
                    Some(true) => decided += 1,
                    Some(false) => return None,
                    None => {}
                }
            }
            if let Some(result) = &self.result {
                if result.eval_interval(cube).is_some() {
                    decided += 1;
                }
            }
            Some(decided)
        };
        let midpoint =
            |cube: &IntervalBox| -> Vec<Rational> { cube.intervals().iter().map(Interval::midpoint).collect() };
        // A rational point is a degenerate box, and interval arithmetic on a
        // point decides affine constraints *exactly* (strict ones included —
        // the very comparisons that stay ambiguous forever on any box whose
        // edge sits on the constraint boundary). Transcendental enclosures
        // stay outward-rounded, so a point test is still conservative, never
        // unsound. Unlike `holds_on`, a failing condition does not zero the
        // score: the count must keep its gradient so the descent can trade
        // one violated constraint off against the others.
        let point_fit = |cube: &IntervalBox| -> usize {
            let point = IntervalBox::new(
                cube.intervals().iter().map(|iv| Interval::point(iv.midpoint())).collect(),
            );
            let mut satisfied = 0usize;
            for c in &self.constraints {
                if c.check_box(&point) == Some(true) {
                    satisfied += 1;
                }
            }
            if let Some(result) = &self.result {
                if result.eval_interval(&point).is_some() {
                    satisfied += 1;
                }
            }
            satisfied
        };
        let fit = |cube: &IntervalBox| -> Fit {
            let Some(decided) = holds_on(cube) else { return Fit::Outside };
            if decided == conditions {
                return Fit::Inside;
            }
            let at_midpoint = point_fit(cube);
            if at_midpoint == conditions {
                // The midpoint itself is certified: every constraint holds
                // there and the result is defined, so it is a witness even
                // though the surrounding box still straddles a boundary.
                return Fit::Inside;
            }
            Fit::Ambiguous(decided, at_midpoint)
        };
        let root = IntervalBox::unit(self.sample_count);
        match fit(&root) {
            Fit::Inside => return Some(midpoint(&root)),
            Fit::Outside => return None,
            Fit::Ambiguous(..) => {}
        }
        // Depth-first over ambiguous boxes — a witness is one point, so the
        // search descends into one half of every ambiguous box and
        // backtracks on refutation (breadth-first bisection would spread the
        // budget over the whole frontier and exhaust it at shallow depths
        // once a path has many sample dimensions). Children are evaluated
        // *before* pushing and ordered by how promising they are: first by
        // conditions the whole box decides true (bisecting the dimension of
        // an undecided single-variable constraint yields one child that
        // settles it), then by conditions the midpoint satisfies (the only
        // gradient available for multivariate constraints like `α_i > α_j`,
        // whose box checks tie on both halves of every bisection along the
        // boundary diagonal).
        let mut stack = vec![root];
        let mut processed = 0usize;
        while let Some(cube) = stack.pop() {
            processed += 1;
            if processed > max_boxes {
                break;
            }
            let Some((a, b)) = cube.bisect_widest() else { continue };
            let fit_a = fit(&a);
            if matches!(fit_a, Fit::Inside) {
                return Some(midpoint(&a));
            }
            let fit_b = fit(&b);
            if matches!(fit_b, Fit::Inside) {
                return Some(midpoint(&b));
            }
            match (fit_a, fit_b) {
                (Fit::Ambiguous(da, pa), Fit::Ambiguous(db, pb)) => {
                    // Last pushed is popped first.
                    if (da, pa) <= (db, pb) {
                        stack.push(a);
                        stack.push(b);
                    } else {
                        stack.push(b);
                        stack.push(a);
                    }
                }
                (Fit::Ambiguous(..), _) => stack.push(a),
                (_, Fit::Ambiguous(..)) => stack.push(b),
                _ => {}
            }
        }
        None
    }
}

/// A path that was abandoned mid-flight: it neither terminated nor got
/// stuck, but ran out of step budget, fell beyond the path budget, or was
/// still paused in the BFS queue when an interruption cut the exploration
/// short. Frontier paths carry the mass the reported lower bound is missing;
/// the provenance layer summarises them as the `unaccounted_mass` gap and a
/// depth histogram (see [`crate::provenance`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPath {
    /// Small-step reductions performed before the path was cut off.
    pub steps: usize,
    /// Branch decisions taken so far — `branches.len()` is the path's depth
    /// in the symbolic execution tree.
    pub branches: BranchPath,
}

impl FrontierPath {
    /// Depth of the path in the symbolic execution tree (branches taken).
    pub fn depth(&self) -> usize {
        self.branches.len()
    }
}

/// The outcome of a bounded symbolic exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Paths that reached a value within the budget.
    pub terminated: Vec<SymbolicPath>,
    /// Number of paths abandoned because the step budget, the path budget or
    /// an interruption cut them off.
    pub out_of_fuel: usize,
    /// One record per abandoned path (so `frontier.len() == out_of_fuel`),
    /// in abandonment order: what was still in flight when the exploration
    /// stopped. The substitution reference populates this identically — the
    /// differential suite compares whole [`Exploration`] values.
    pub frontier: Vec<FrontierPath>,
    /// Number of paths that got stuck.
    pub stuck: usize,
    /// `true` when the exploration was cancelled by the poll hook of
    /// [`try_explore_seeded`]. The `terminated` paths collected up to that
    /// point are still sound (Theorem 3.4): interruption only loses bound
    /// mass, never adds unsound mass.
    pub interrupted: bool,
    /// Machine profile of the run (steps, event kinds, forks, max BFS
    /// frontier), present iff [`ExplorationConfig::profile`] was set. The
    /// substitution reference never profiles, so differential comparisons
    /// against it require profiling off (both sides `None`).
    pub profile: Option<EngineProfile>,
}

/// Configuration of the symbolic exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorationConfig {
    /// Maximum number of small steps per path (the exploration depth `d`).
    pub max_steps_per_path: usize,
    /// Maximum total number of paths to process (safety valve).
    pub max_paths: usize,
    /// When `true`, the exploration attaches a machine profile and reports it
    /// in [`Exploration::profile`]. Off by default: the disabled path costs
    /// one `Option` check per machine step/event.
    pub profile: bool,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        ExplorationConfig {
            max_steps_per_path: 500,
            max_paths: 100_000,
            profile: false,
        }
    }
}

impl ExplorationConfig {
    /// Builder: sets the exploration depth (max small steps per path).
    #[must_use]
    pub fn with_max_steps_per_path(mut self, max_steps_per_path: usize) -> Self {
        self.max_steps_per_path = max_steps_per_path;
        self
    }

    /// Builder: sets the total path budget.
    #[must_use]
    pub fn with_max_paths(mut self, max_paths: usize) -> Self {
        self.max_paths = max_paths;
        self
    }

    /// Builder: enables or disables machine profiling.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

fn sym_const(r: &Rational) -> SymValue {
    SymValue::Const(r.clone())
}

fn sym_spec() -> DomainSpec<SymValue, NoAtom> {
    DomainSpec {
        strategy: Strategy::CallByName,
        lit_of_num: sym_const,
        atom_of_free: None,
        opaque_fix: false,
        // The symbolic stepper tests value-ness before fuel.
        value_first: true,
    }
}

/// One paused path of a checkpointed exploration, as *replayable data*: the
/// branch decisions (`κ` prefix) that lead from the root to the paused node,
/// plus the step count at which the path was cut off.
///
/// Machines borrow the term they run, so a frontier cannot be serialised as
/// machine state; instead a resumed exploration replays each seed
/// deterministically on a fresh machine, consuming the recorded branches as
/// an oracle at every symbolic conditional (constant guards decide
/// themselves and consume nothing). Symbolic execution is deterministic
/// given the oracle, so replay lands on exactly the paused node; the sibling
/// subtrees along the way were already accounted for (terminated, stuck, or
/// their own frontier records) by the run that produced the checkpoint, and
/// are *not* re-explored — replay follows the oracle without forking.
///
/// `steps` lets a resume short-circuit fuel-exhausted paths: a seed with
/// `steps >= max_steps_per_path` would only exhaust again under the same
/// budget, so it is re-tallied into the frontier without replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySeed {
    /// Small-step reductions the path had performed when it was cut off.
    pub steps: usize,
    /// Branch decisions from the root to the paused node.
    pub branches: BranchPath,
}

impl ReplaySeed {
    /// Renders the seed as `"<steps>:<TE...>"` — one `T`/`E` per branch —
    /// the compact form partial-result cache entries store.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}:", self.steps);
        out.extend(self.branches.iter().map(branch_char));
        out
    }

    /// Parses the [`ReplaySeed::render`] form; `None` on any malformation.
    #[must_use]
    pub fn parse(text: &str) -> Option<ReplaySeed> {
        let (steps, branches) = text.split_once(':')?;
        let steps = steps.parse().ok()?;
        let branches = branches
            .chars()
            .map(|c| match c {
                'T' => Some(Branch::Then),
                'E' => Some(Branch::Else),
                _ => None,
            })
            .collect::<Option<BranchPath>>()?;
        Some(ReplaySeed { steps, branches })
    }
}

/// Converts a checkpointed frontier into the seeds a resumed exploration
/// takes: the [`ReplaySeed::render`]-compatible data of every frontier path.
/// A seed copies its path's packed branches, which allocates only for a
/// path deeper than 128 branches.
#[must_use]
pub fn frontier_seeds(frontier: &[FrontierPath]) -> Vec<ReplaySeed> {
    frontier
        .iter()
        .map(|p| ReplaySeed { steps: p.steps, branches: p.branches.clone() })
        .collect()
}

/// A path's recorded constraints as a shared-prefix persistent list, newest
/// first. Cloning shares the whole list, so forking a path costs O(1)
/// however deep it is.
#[derive(Clone, Default)]
struct History(Option<Rc<HistoryNode>>);

/// One recorded constraint: a `score` value (`≥ 0`), or the guard of a
/// symbolic conditional. A fork pushes one guard node that both children
/// share, and each child reads the node's comparison off its own branch
/// decision: `V ≤ 0` on the then side, `V > 0` on the else side. A path
/// copies its nodes out into owned [`SymConstraint`]s only when it
/// terminates.
struct HistoryNode {
    value: SymValue,
    score: bool,
    rest: History,
}

impl Drop for HistoryNode {
    /// A history is as long as its path is deep; the default recursive drop
    /// glue would overflow the stack tearing down a long one. Unlink with a
    /// loop instead, stopping at the first node another path still shares.
    fn drop(&mut self) {
        let mut next = self.rest.0.take();
        while let Some(node) = next {
            next = Rc::try_unwrap(node).ok().and_then(|mut node| node.rest.0.take());
        }
    }
}

impl History {
    fn push(&mut self, value: SymValue, score: bool) {
        let rest = History(self.0.take());
        self.0 = Some(Rc::new(HistoryNode { value, score, rest }));
    }

    /// The constraints, oldest first, of a path whose first `decided`
    /// branch decisions are `branches`'.
    fn constraints(&self, branches: &BranchPath, decided: usize) -> Vec<SymConstraint> {
        let nodes = std::iter::successors(self.0.as_deref(), |node| node.rest.0.as_deref());
        // Walking newest first, the guards meet the decisions last first.
        let mut fork = decided;
        let mut constraints: Vec<SymConstraint> = nodes
            .map(|node| {
                let kind = if node.score {
                    ConstraintKind::NonNegative
                } else {
                    fork -= 1;
                    branches.get(fork).expect("one decision per guard").kind()
                };
                SymConstraint { value: node.value.clone(), kind }
            })
            .collect();
        constraints.reverse();
        constraints
    }
}

/// One in-flight path of the exploration: a paused machine plus the symbolic
/// bookkeeping (sample counter, history, branch decisions). A path has taken
/// the first `decided` of its `branches`; for a path resuming a
/// [`ReplaySeed`], the rest are the seed's decisions still to replay, and
/// for every other path there is no rest.
struct PathState<'a> {
    machine: Machine<'a, SymValue, NoAtom>,
    samples: usize,
    history: History,
    branches: BranchPath,
    decided: usize,
}

impl PathState<'_> {
    /// The frontier record for an abandoned path. A path cut off mid-replay
    /// records its seed's full branch list: recording only the replayed
    /// prefix would name an *ancestor* of the checkpointed node, and resuming
    /// from an ancestor re-explores sibling subtrees whose mass the previous
    /// run already counted — double counting, i.e. an unsound bound.
    fn into_frontier(self) -> FrontierPath {
        FrontierPath { steps: self.machine.steps(), branches: self.branches }
    }
}

/// Explores the CbN symbolic execution tree of a closed term breadth-first,
/// collecting every path that reaches a value within the budget.
pub fn explore(term: &Term, config: &ExplorationConfig) -> Exploration {
    let (exploration, interrupted) = try_explore_seeded::<std::convert::Infallible>(
        term,
        config,
        None,
        &mut |_| Ok(()),
        &mut |_, _| Ok(()),
    );
    debug_assert!(interrupted.is_none());
    exploration
}

/// Like [`explore`], but resumable, incrementally measuring and
/// interruptible.
///
/// * `seeds` — `None` starts a fresh exploration from the root;
///   `Some(seeds)` *resumes* a checkpointed one: each seed is replayed
///   deterministically back to its paused node (see [`ReplaySeed`]) and
///   exploration continues from there. The resulting exploration covers
///   exactly the subtrees the checkpoint left unexplored, so combining it
///   with the checkpointed run's tallies reproduces a from-scratch run —
///   terminated paths partition identically, and no measured path is ever
///   re-explored.
/// * `check` — the poll hook, called with [`Poll::Explore`] (work counter,
///   frontier size, current path depth) once before each path and every 256
///   work units within long paths. When it fails, exploration stops with its
///   error: the returned [`Exploration`] contains every path that terminated
///   before the interruption (a sound partial result), abandoned paths are
///   tallied in `out_of_fuel` and `interrupted` is set.
/// * `on_terminated` — called with every path the instant it terminates,
///   *before* exploration continues, so callers can measure path volumes
///   incrementally instead of post-hoc. It receives the poll hook as its
///   second argument (for deadline-aware measurement); returning an error
///   interrupts the exploration exactly like a failing `check`: the queue
///   drains to the frontier and the partial result stays sound.
///
/// With `seeds = None` and no-op hooks this is exactly [`explore`] — the
/// differential suite's guarantee carries over unchanged.
pub fn try_explore_seeded<'t, E>(
    term: &'t Term,
    config: &ExplorationConfig,
    seeds: Option<&[ReplaySeed]>,
    check: &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
    on_terminated: &mut dyn FnMut(
        &SymbolicPath,
        &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
    ) -> Result<(), E>,
) -> (Exploration, Option<E>) {
    let profile = config.profile.then(ProfileCell::shared);
    let new_machine = |branches: BranchPath| {
        let mut machine = Machine::new(sym_spec(), term, config.max_steps_per_path);
        if let Some(cell) = &profile {
            machine.set_profile(Rc::clone(cell));
        }
        PathState { machine, samples: 0, history: History::default(), branches, decided: 0 }
    };
    let mut queue: VecDeque<PathState<'_>> = VecDeque::new();
    let mut result = Exploration {
        terminated: Vec::new(),
        out_of_fuel: 0,
        frontier: Vec::new(),
        stuck: 0,
        interrupted: false,
        profile: None,
    };
    match seeds {
        None => queue.push_back(new_machine(BranchPath::default())),
        Some(seeds) => {
            for seed in seeds {
                if seed.steps >= config.max_steps_per_path {
                    // The seed exhausted this very step budget: replaying it
                    // would grind through `max_steps_per_path` reductions
                    // only to run out of fuel at the same node. Re-tally it
                    // into the frontier directly.
                    result.out_of_fuel += 1;
                    result
                        .frontier
                        .push(FrontierPath { steps: seed.steps, branches: seed.branches.clone() });
                } else {
                    queue.push_back(new_machine(seed.branches.clone()));
                }
            }
        }
    }
    // The queue is FIFO and the budget cut fires on pop number
    // `max_paths + 1`, so the n-th path pushed is the n-th popped and a path
    // pushed once `pushed >= max_paths` is never stepped. Forks past that
    // point write their children straight into `overflow`, the frontier
    // records that wait behind the queue.
    let mut pushed = queue.len();
    let mut overflow: Vec<FrontierPath> = Vec::new();
    let mut processed = 0usize;
    let mut work = 0usize;
    let mut interruption: Option<E> = None;
    'exploration: while let Some(mut path) = queue.pop_front() {
        processed += 1;
        if processed > config.max_paths {
            result.out_of_fuel += 1;
            result.frontier.push(path.into_frontier());
            break;
        }
        let waiting = queue.len() + overflow.len();
        let poll = Poll::Explore { work, frontier: waiting, depth: path.machine.steps() };
        if let Err(e) = check(poll) {
            result.interrupted = true;
            result.out_of_fuel += 1;
            result.frontier.push(path.into_frontier());
            interruption = Some(e);
            break;
        }
        loop {
            work += 1;
            if work % 256 == 0 {
                let waiting = queue.len() + overflow.len();
                let poll = Poll::Explore { work, frontier: waiting, depth: path.machine.steps() };
                if let Err(e) = check(poll) {
                    result.interrupted = true;
                    result.out_of_fuel += 1;
                    result.frontier.push(path.into_frontier());
                    interruption = Some(e);
                    break 'exploration;
                }
            }
            match path.machine.next_event() {
                Event::Done(value) => {
                    let result_value = value.into_lit();
                    let mut constraints = path.history.constraints(&path.branches, path.decided);
                    if let Some(v) = &result_value {
                        v.push_domain_constraints(&mut constraints);
                    }
                    let terminated = SymbolicPath {
                        sample_count: path.samples,
                        branches: path.branches.iter().take(path.decided).collect(),
                        constraints,
                        steps: path.machine.steps(),
                        result: result_value,
                    };
                    let hooked = on_terminated(&terminated, check);
                    result.terminated.push(terminated);
                    if let Err(e) = hooked {
                        result.interrupted = true;
                        interruption = Some(e);
                        break 'exploration;
                    }
                    break;
                }
                Event::OutOfFuel => {
                    result.out_of_fuel += 1;
                    result.frontier.push(path.into_frontier());
                    break;
                }
                Event::Stuck(_) => {
                    result.stuck += 1;
                    break;
                }
                Event::Sample => {
                    let v = SymValue::Var(path.samples);
                    path.samples += 1;
                    path.machine.resume_lit(v);
                }
                Event::PrimReady(p, mut args) => {
                    // Constant-fold in place when every argument is a
                    // `Const` (a value with no sample variable always is
                    // one); postpone the application otherwise, the only
                    // case that allocates. Every primitive is unary or
                    // binary.
                    let folded = match &mut *args {
                        [SymValue::Const(a)] => Some(p.eval(std::slice::from_ref(a))),
                        [SymValue::Const(a), SymValue::Const(b)] => {
                            Some(p.eval(&[std::mem::take(a), std::mem::take(b)]))
                        }
                        _ => None,
                    };
                    match folded {
                        Some(Some(r)) => path.machine.resume_lit(SymValue::Const(r)),
                        Some(None) => {
                            result.stuck += 1;
                            break;
                        }
                        None => path.machine.resume_lit(SymValue::Prim(p, args.into_vec())),
                    }
                }
                Event::BranchReady(guard) => {
                    // Constant guards are decided outright; symbolic guards
                    // fork the paused machine into both branches — unless a
                    // replay oracle is pending, in which case the recorded
                    // decision is followed without forking (the sibling
                    // subtree belongs to the run that wrote the checkpoint).
                    if let SymValue::Const(r) = &guard {
                        let take_then = !r.is_positive();
                        path.machine.resume_branch(take_then);
                    } else if let Some(b) = path.branches.get(path.decided) {
                        path.machine.resume_branch(b == Branch::Then);
                        path.decided += 1;
                        path.history.push(guard, false);
                    } else if pushed >= config.max_paths {
                        // Neither child is ever popped, so each becomes its
                        // frontier record now: a copy of the parent's
                        // branches plus its own, and no clone of the machine.
                        // The profile still sees the fork and the two branch
                        // steps the children would have taken.
                        let steps = path.machine.steps() + 1;
                        let mut then_branches = path.branches.clone();
                        then_branches.push(Branch::Then);
                        let mut else_branches = std::mem::take(&mut path.branches);
                        else_branches.push(Branch::Else);
                        overflow.push(FrontierPath { steps, branches: then_branches });
                        overflow.push(FrontierPath { steps, branches: else_branches });
                        if let Some(cell) = &profile {
                            cell.count_steps(2);
                            cell.count_fork();
                            cell.observe_frontier(queue.len() + overflow.len());
                        }
                        break;
                    } else {
                        // Both children record the guard in one shared node.
                        path.history.push(guard, false);
                        path.decided += 1;
                        let mut else_path = PathState {
                            machine: path.machine.clone(),
                            samples: path.samples,
                            history: path.history.clone(),
                            branches: path.branches.clone(),
                            decided: path.decided,
                        };
                        path.machine.resume_branch(true);
                        path.branches.push(Branch::Then);
                        else_path.machine.resume_branch(false);
                        else_path.branches.push(Branch::Else);
                        queue.push_back(path);
                        queue.push_back(else_path);
                        pushed += 2;
                        if let Some(cell) = &profile {
                            cell.count_fork();
                            cell.observe_frontier(queue.len());
                        }
                        break;
                    }
                }
                Event::ScoreReady(v) => match &v {
                    SymValue::Const(r) if r.is_negative() => {
                        result.stuck += 1;
                        break;
                    }
                    SymValue::Const(_) => path.machine.resume_lit(v),
                    _ => {
                        path.history.push(v.clone(), true);
                        path.machine.resume_lit(v);
                    }
                },
                Event::AtomApplied(atom) => match atom {},
                Event::FixEncountered(_) => {
                    unreachable!("opaque_fix is off for symbolic exploration")
                }
            }
        }
    }
    // Whatever still waits is abandoned in push order: the queue, then the
    // budget-overflow records behind it.
    result.out_of_fuel += queue.len() + overflow.len();
    result.frontier.extend(queue.drain(..).map(PathState::into_frontier));
    result.frontier.append(&mut overflow);
    result.profile = profile.as_ref().map(|cell| cell.snapshot());
    (result, interruption)
}

// --------------------------------------------------------------- reference

/// The internal symbolic term of the substitution-based reference stepper:
/// SPCF with sample variables and postponed primitive applications.
#[derive(Debug, Clone, PartialEq)]
enum STerm {
    Val(SymValue),
    Var(Ident),
    Lam(Ident, Box<STerm>),
    Fix(Ident, Ident, Box<STerm>),
    App(Box<STerm>, Box<STerm>),
    If(Box<STerm>, Box<STerm>, Box<STerm>),
    Prim(Prim, Vec<STerm>),
    Sample,
    Score(Box<STerm>),
}

impl STerm {
    fn embed(term: &Term) -> STerm {
        match term {
            Term::Var(x) => STerm::Var(x.clone()),
            Term::Num(r) => STerm::Val(SymValue::Const(r.clone())),
            Term::Lam(x, b) => STerm::Lam(x.clone(), Box::new(STerm::embed(b))),
            Term::Fix(p, x, b) => STerm::Fix(p.clone(), x.clone(), Box::new(STerm::embed(b))),
            Term::App(f, a) => STerm::App(Box::new(STerm::embed(f)), Box::new(STerm::embed(a))),
            Term::If(g, t, e) => STerm::If(
                Box::new(STerm::embed(g)),
                Box::new(STerm::embed(t)),
                Box::new(STerm::embed(e)),
            ),
            Term::Prim(p, args) => STerm::Prim(*p, args.iter().map(STerm::embed).collect()),
            Term::Sample => STerm::Sample,
            Term::Score(m) => STerm::Score(Box::new(STerm::embed(m))),
        }
    }

    /// Symbolic values of the grammar. A lone free variable is *not* treated
    /// as a terminated result (an open term carries no termination mass), so
    /// the reference agrees with the environment machine on open inputs.
    fn is_value(&self) -> bool {
        matches!(self, STerm::Val(_) | STerm::Lam(_, _) | STerm::Fix(_, _, _))
    }

    fn as_symvalue(&self) -> Option<&SymValue> {
        match self {
            STerm::Val(v) => Some(v),
            _ => None,
        }
    }

    fn subst(&self, x: &Ident, replacement: &STerm) -> STerm {
        match self {
            STerm::Var(y) => {
                if y == x {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            STerm::Val(_) | STerm::Sample => self.clone(),
            STerm::Lam(y, b) => {
                if y == x {
                    self.clone()
                } else {
                    STerm::Lam(y.clone(), Box::new(b.subst(x, replacement)))
                }
            }
            STerm::Fix(phi, y, b) => {
                if phi == x || y == x {
                    self.clone()
                } else {
                    STerm::Fix(phi.clone(), y.clone(), Box::new(b.subst(x, replacement)))
                }
            }
            STerm::App(f, a) => STerm::App(
                Box::new(f.subst(x, replacement)),
                Box::new(a.subst(x, replacement)),
            ),
            STerm::If(g, t, e) => STerm::If(
                Box::new(g.subst(x, replacement)),
                Box::new(t.subst(x, replacement)),
                Box::new(e.subst(x, replacement)),
            ),
            STerm::Prim(p, args) => {
                STerm::Prim(*p, args.iter().map(|a| a.subst(x, replacement)).collect())
            }
            STerm::Score(m) => STerm::Score(Box::new(m.subst(x, replacement))),
        }
    }
}

struct RefPathState {
    term: STerm,
    samples: usize,
    branches: Vec<Branch>,
    constraints: Vec<SymConstraint>,
    steps: usize,
}

/// The substitution-based reference explorer: semantically identical to
/// [`explore`] but small-stepping by whole-term capture-avoiding substitution
/// (`O(d²)` per path of depth `d` instead of `O(d)`).
///
/// Kept — like `probterm_spcf::run_substitution` — as the executable
/// specification the environment machine is differentially tested against;
/// see `tests/symbolic_differential.rs` and the `symbolic_scaling` benchmark.
pub fn explore_substitution(term: &Term, config: &ExplorationConfig) -> Exploration {
    let mut queue: VecDeque<RefPathState> = VecDeque::new();
    queue.push_back(RefPathState {
        term: STerm::embed(term),
        samples: 0,
        branches: Vec::new(),
        constraints: Vec::new(),
        steps: 0,
    });
    let mut result = Exploration {
        terminated: Vec::new(),
        out_of_fuel: 0,
        frontier: Vec::new(),
        stuck: 0,
        interrupted: false,
        profile: None,
    };
    let mut processed = 0usize;
    while let Some(mut state) = queue.pop_front() {
        processed += 1;
        if processed > config.max_paths {
            result.out_of_fuel += 1 + queue.len();
            result.frontier.push(FrontierPath {
                steps: state.steps,
                branches: state.branches.into_iter().collect(),
            });
            result.frontier.extend(queue.drain(..).map(|s| FrontierPath {
                steps: s.steps,
                branches: s.branches.into_iter().collect(),
            }));
            break;
        }
        loop {
            if state.term.is_value() {
                if let Some(value) = state.term.as_symvalue() {
                    value.push_domain_constraints(&mut state.constraints);
                }
                result.terminated.push(SymbolicPath {
                    sample_count: state.samples,
                    branches: state.branches,
                    constraints: state.constraints,
                    steps: state.steps,
                    result: state.term.as_symvalue().cloned(),
                });
                break;
            }
            if state.steps >= config.max_steps_per_path {
                result.out_of_fuel += 1;
                result.frontier.push(FrontierPath {
                    steps: state.steps,
                    branches: state.branches.drain(..).collect(),
                });
                break;
            }
            match sym_step(state.term.clone(), &mut state) {
                StepResult::Continue(next) => {
                    state.term = next;
                    state.steps += 1;
                }
                StepResult::Fork(then_state, else_state) => {
                    queue.push_back(then_state);
                    queue.push_back(else_state);
                    break;
                }
                StepResult::Stuck => {
                    result.stuck += 1;
                    break;
                }
            }
        }
    }
    result
}

enum StepResult {
    Continue(STerm),
    Fork(RefPathState, RefPathState),
    Stuck,
}

/// One symbolic CbN step by substitution. Forks at conditionals whose guard
/// is a symbolic value that mentions sample variables; guards that are
/// constants are resolved deterministically.
fn sym_step(term: STerm, state: &mut RefPathState) -> StepResult {
    enum Frame {
        AppFun(STerm),
        If(STerm, STerm),
        Score,
        Prim(Prim, Vec<STerm>, Vec<STerm>),
    }
    fn plug(frames: Vec<Frame>, mut t: STerm) -> STerm {
        for frame in frames.into_iter().rev() {
            t = match frame {
                Frame::AppFun(arg) => STerm::App(Box::new(t), Box::new(arg)),
                Frame::If(a, b) => STerm::If(Box::new(t), Box::new(a), Box::new(b)),
                Frame::Score => STerm::Score(Box::new(t)),
                Frame::Prim(p, mut prefix, suffix) => {
                    prefix.push(t);
                    prefix.extend(suffix);
                    STerm::Prim(p, prefix)
                }
            };
        }
        t
    }
    let mut frames: Vec<Frame> = Vec::new();
    let mut current = term;
    loop {
        match current {
            STerm::App(fun, arg) => match *fun {
                STerm::Lam(ref x, ref body) => {
                    return StepResult::Continue(plug(frames, body.subst(x, &arg)));
                }
                STerm::Fix(ref phi, ref x, ref body) => {
                    let unrolled = body.subst(x, &arg).subst(phi, &fun);
                    return StepResult::Continue(plug(frames, unrolled));
                }
                ref f if f.is_value() => return StepResult::Stuck,
                _ => {
                    frames.push(Frame::AppFun(*arg));
                    current = *fun;
                }
            },
            STerm::If(guard, then, els) => match *guard {
                STerm::Val(v) => {
                    // Constant guards are decided outright; symbolic guards fork.
                    if let SymValue::Const(r) = &v {
                        let taken = if r.is_positive() { *els } else { *then };
                        return StepResult::Continue(plug(frames, taken));
                    }
                    // Rebuild both continuations (the frames are shared, so the
                    // then-continuation uses a structural copy of them).
                    let then_frames_term = plug(
                        frames
                            .iter()
                            .map(|f| match f {
                                Frame::AppFun(a) => Frame::AppFun(a.clone()),
                                Frame::If(a, b) => Frame::If(a.clone(), b.clone()),
                                Frame::Score => Frame::Score,
                                Frame::Prim(p, a, b) => Frame::Prim(*p, a.clone(), b.clone()),
                            })
                            .collect(),
                        (*then).clone(),
                    );
                    let else_frames_term = plug(frames, *els);
                    let mut then_state = RefPathState {
                        term: then_frames_term,
                        samples: state.samples,
                        branches: state.branches.clone(),
                        constraints: state.constraints.clone(),
                        steps: state.steps + 1,
                    };
                    then_state.branches.push(Branch::Then);
                    then_state.constraints.push(SymConstraint {
                        value: v.clone(),
                        kind: ConstraintKind::NonPositive,
                    });
                    let mut else_state = RefPathState {
                        term: else_frames_term,
                        samples: state.samples,
                        branches: state.branches.clone(),
                        constraints: state.constraints.clone(),
                        steps: state.steps + 1,
                    };
                    else_state.branches.push(Branch::Else);
                    else_state.constraints.push(SymConstraint {
                        value: v,
                        kind: ConstraintKind::Positive,
                    });
                    return StepResult::Fork(then_state, else_state);
                }
                ref g if g.is_value() => return StepResult::Stuck,
                _ => {
                    frames.push(Frame::If(*then, *els));
                    current = *guard;
                }
            },
            STerm::Score(inner) => match *inner {
                STerm::Val(v) => {
                    match &v {
                        SymValue::Const(r) if r.is_negative() => return StepResult::Stuck,
                        SymValue::Const(_) => {}
                        _ => state.constraints.push(SymConstraint {
                            value: v.clone(),
                            kind: ConstraintKind::NonNegative,
                        }),
                    }
                    return StepResult::Continue(plug(frames, STerm::Val(v)));
                }
                ref m if m.is_value() => return StepResult::Stuck,
                _ => {
                    frames.push(Frame::Score);
                    current = *inner;
                }
            },
            STerm::Sample => {
                let v = SymValue::Var(state.samples);
                state.samples += 1;
                return StepResult::Continue(plug(frames, STerm::Val(v)));
            }
            STerm::Prim(p, mut args) => {
                match args.iter().position(|a| a.as_symvalue().is_none()) {
                    None => {
                        let values: Vec<SymValue> = args
                            .iter()
                            .map(|a| a.as_symvalue().expect("all symbolic values").clone())
                            .collect();
                        // Constant-fold when every argument is a constant.
                        let folded = if values.iter().all(SymValue::is_constant) {
                            let concrete: Option<Vec<Rational>> =
                                values.iter().map(|v| v.eval(&[])).collect();
                            match concrete.and_then(|c| p.eval(&c)) {
                                Some(r) => SymValue::Const(r),
                                None => return StepResult::Stuck,
                            }
                        } else {
                            SymValue::Prim(p, values)
                        };
                        return StepResult::Continue(plug(frames, STerm::Val(folded)));
                    }
                    Some(i) if args[i].is_value() => return StepResult::Stuck,
                    Some(i) => {
                        let suffix = args.split_off(i + 1);
                        let focus = args.pop().expect("argument at position i");
                        frames.push(Frame::Prim(p, args, suffix));
                        current = focus;
                    }
                }
            }
            STerm::Var(_) | STerm::Val(_) | STerm::Lam(_, _) | STerm::Fix(_, _, _) => {
                return StepResult::Stuck;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::parse_term;

    fn explore_src(src: &str, steps: usize) -> Exploration {
        let term = parse_term(src).unwrap();
        explore(
            &term,
            &ExplorationConfig::default()
                .with_max_steps_per_path(steps)
                .with_max_paths(10_000),
        )
    }

    #[test]
    fn deterministic_terms_have_one_trivial_path() {
        let e = explore_src("1 + 2 * 3", 100);
        assert_eq!(e.terminated.len(), 1);
        let p = &e.terminated[0];
        assert_eq!(p.sample_count, 0);
        assert!(p.constraints.is_empty());
        assert_eq!(p.result, Some(SymValue::Const(Rational::from_int(7))));
        assert_eq!(p.probability(100), Rational::one());
    }

    #[test]
    fn single_conditional_splits_the_unit_interval() {
        let e = explore_src("if sample <= 0.25 then 0 else 1", 100);
        assert_eq!(e.terminated.len(), 2);
        let total: Rational = e.terminated.iter().map(|p| p.probability(100)).sum();
        assert_eq!(total, Rational::one());
        let probs: Vec<Rational> = e.terminated.iter().map(|p| p.probability(100)).collect();
        assert!(probs.contains(&Rational::from_ratio(1, 4)));
        assert!(probs.contains(&Rational::from_ratio(3, 4)));
        // Each path records one branch decision and one constraint.
        for p in &e.terminated {
            assert_eq!(p.branches.len(), 1);
            assert_eq!(p.constraints.len(), 1);
            assert!(p.is_linear());
        }
    }

    #[test]
    fn replay_seeds_round_trip_and_reject_garbage() {
        let seed = ReplaySeed {
            steps: 42,
            branches: [Branch::Then, Branch::Else, Branch::Else, Branch::Then].into_iter().collect(),
        };
        assert_eq!(seed.render(), "42:TEET");
        assert_eq!(ReplaySeed::parse("42:TEET"), Some(seed));
        let empty = ReplaySeed { steps: 7, branches: BranchPath::default() };
        assert_eq!(ReplaySeed::parse("7:"), Some(empty));
        for bad in ["", "TEET", "42", "42:TXET", "-1:T", "9:te"] {
            assert_eq!(ReplaySeed::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn packed_branch_paths_agree_with_a_vector_of_branches() {
        // Decision strings of every length up to 300, across the 128 inline
        // decisions and two words into the spill: the packed path must read
        // back as the vector, render as the vector's `T`/`E` text and parse
        // back to itself.
        let mut rng = Rng(0xb175_2021);
        for case in 0..500 {
            let len = if case <= 300 { case } else { rng.below(301) };
            let branches: Vec<Branch> =
                (0..len).map(|_| Branch::of_bit(rng.below(2) == 1)).collect();
            let mut path = BranchPath::default();
            for (i, &b) in branches.iter().enumerate() {
                assert_eq!(path.len(), i);
                path.push(b);
            }
            assert_eq!(path.len(), len);
            assert_eq!(path.is_empty(), len == 0);
            assert_eq!(path.iter().collect::<Vec<_>>(), branches, "length {len}");
            for (i, &b) in branches.iter().enumerate() {
                assert_eq!(path.get(i), Some(b), "length {len}, decision {i}");
            }
            assert_eq!(path.get(len), None);
            assert_eq!(branches.iter().copied().collect::<BranchPath>(), path);
            let steps = rng.below(10_000);
            let mut text = format!("{steps}:");
            for b in &branches {
                text.push(if *b == Branch::Then { 'T' } else { 'E' });
            }
            let seed = ReplaySeed { steps, branches: path };
            assert_eq!(seed.render(), text);
            assert_eq!(ReplaySeed::parse(&text), Some(seed));
        }
        // Paths that differ in one decision, or in length only, differ.
        let ones: BranchPath = std::iter::repeat_n(Branch::Else, 200).collect();
        let mut flipped: BranchPath = std::iter::repeat_n(Branch::Else, 199).collect();
        flipped.push(Branch::Then);
        assert_ne!(ones, flipped);
        let zeros: BranchPath = std::iter::repeat_n(Branch::Then, 129).collect();
        let shorter: BranchPath = std::iter::repeat_n(Branch::Then, 128).collect();
        assert_ne!(zeros, shorter);
    }

    #[test]
    fn seeded_exploration_covers_exactly_the_frontier_subtrees() {
        // Cut a geometric exploration short, then re-explore from its
        // frontier seeds: the union of terminated paths must equal a full
        // exploration's, with no path appearing twice.
        let term =
            parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = ExplorationConfig::default().with_max_steps_per_path(150);
        let full = explore(&term, &config);
        let mut budget = 6usize;
        let mut check = |_: Poll<'_>| {
            if budget == 0 {
                Err(())
            } else {
                budget -= 1;
                Ok(())
            }
        };
        let (first, err) =
            try_explore_seeded(&term, &config, None, &mut check, &mut |_, _| Ok(()));
        assert!(err.is_some());
        assert!(first.interrupted && !first.frontier.is_empty());
        let seeds = frontier_seeds(&first.frontier);
        let (second, err2) = try_explore_seeded::<()>(
            &term,
            &config,
            Some(&seeds),
            &mut |_| Ok(()),
            &mut |_, _| Ok(()),
        );
        assert!(err2.is_none());
        let key = |p: &&SymbolicPath| -> Vec<bool> {
            p.branches.iter().map(|b| matches!(b, Branch::Else)).collect()
        };
        let mut combined: Vec<&SymbolicPath> =
            first.terminated.iter().chain(second.terminated.iter()).collect();
        combined.sort_by_key(key);
        let mut reference: Vec<&SymbolicPath> = full.terminated.iter().collect();
        reference.sort_by_key(key);
        assert_eq!(combined, reference, "resume must partition the path tree");
        assert_eq!(first.stuck + second.stuck, full.stuck);
        assert_eq!(second.out_of_fuel, full.out_of_fuel);
    }

    #[test]
    fn triangle_example_has_nonbox_path_regions() {
        // Ex. 3.5: the no-recursion path terminates iff α0 + α1 ≤ 1, probability 1/2.
        let e = explore_src(
            "(fix phi x. if sample + sample - 1 then x else phi x) 0",
            25,
        );
        assert!(!e.terminated.is_empty());
        let first = &e.terminated[0];
        assert_eq!(first.sample_count, 2);
        assert!(first.is_linear());
        assert_eq!(first.exact_probability(), Some(Rational::from_ratio(1, 2)));
        // The box-splitting lower bound converges towards 1/2 from below.
        let lb = first.box_lower_bound(4_000);
        assert!(lb <= Rational::from_ratio(1, 2));
        assert!(lb > Rational::from_ratio(2, 5), "lower bound too weak: {lb}");
    }

    #[test]
    fn geometric_paths_have_powers_of_p() {
        let e = explore_src(
            "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0",
            200,
        );
        // Terminating after k failures has probability (1/2)^{k+1}.
        let mut probs: Vec<Rational> = e.terminated.iter().map(|p| p.probability(100)).collect();
        probs.sort();
        probs.reverse();
        assert!(probs.len() >= 3);
        assert_eq!(probs[0], Rational::from_ratio(1, 2));
        assert_eq!(probs[1], Rational::from_ratio(1, 4));
        assert_eq!(probs[2], Rational::from_ratio(1, 8));
        // All paths are linear and their branch histories are distinct.
        for p in &e.terminated {
            assert!(p.is_linear());
        }
    }

    #[test]
    fn score_records_nonnegativity_constraints() {
        let e = explore_src("score(sample - 1/2)", 100);
        assert_eq!(e.terminated.len(), 1);
        let p = &e.terminated[0];
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.constraints[0].kind, ConstraintKind::NonNegative);
        assert_eq!(p.exact_probability(), Some(Rational::from_ratio(1, 2)));
        // A certainly-negative score is stuck.
        let e = explore_src("score(0 - 1)", 100);
        assert_eq!(e.terminated.len(), 0);
        assert_eq!(e.stuck, 1);
    }

    #[test]
    fn nonlinear_constraints_fall_back_to_box_bounds() {
        // Terminates iff α0·α1 ≤ 1/2; the region has measure (1 + ln 2)/2 ≈ 0.8466.
        let e = explore_src("if sample * sample <= 1/2 then 0 else 1", 100);
        assert_eq!(e.terminated.len(), 2);
        let nonlinear = e
            .terminated
            .iter()
            .find(|p| p.branches == vec![Branch::Then])
            .unwrap();
        assert!(!nonlinear.is_linear());
        assert!(nonlinear.exact_probability().is_none());
        let lb = nonlinear.probability(3_000);
        let truth = (1.0 + std::f64::consts::LN_2) / 2.0;
        assert!(lb.to_f64() <= truth);
        assert!(lb.to_f64() > truth - 0.1, "lower bound too weak: {}", lb.to_f64());
    }

    #[test]
    fn enclosures_past_f64_max_still_decide_boxes() {
        // exp(1000·α0) overflows f64 wherever α0 > ln(f64::MAX)/1000 ≈ 0.7097;
        // the enclosure's upper end there is an exact power of two, so the
        // boxes past that point are decided too and the bound reaches 1.
        let e = explore_src("if exp (1000 * sample) <= 5 then 0 else 1", 100);
        assert_eq!(e.terminated.len(), 2);
        let root = IntervalBox::unit(1);
        for path in &e.terminated {
            assert_eq!(path.constraints[0].check_box(&root), None);
        }
        let mass: Rational = e.terminated.iter().map(|p| p.probability(3_000)).sum();
        assert!(mass.to_f64() > 0.99 && mass <= Rational::one(), "mass {mass}");
        // log is undefined below α0 = 1/2: a box undefined everywhere is
        // dropped, one undefined on part of it is bisected, so the mass past
        // 1/2, where the program terminates, is recovered.
        let log = explore_src("if log (sample - 1/2) <= 0 then 0 else 1", 100);
        let log_guard = &log.terminated[0].constraints[0];
        let lower = IntervalBox::new(vec![Interval::new(Rational::zero(), Rational::half())]);
        let upper =
            IntervalBox::new(vec![Interval::new(Rational::from_ratio(3, 4), Rational::one())]);
        assert_eq!(log_guard.check_box(&root), None);
        assert_eq!(log_guard.check_box(&lower), Some(false));
        assert_eq!(log_guard.check_box(&upper), Some(true));
        let mass: Rational = log.terminated.iter().map(|p| p.probability(3_000)).sum();
        assert!(mass.to_f64() > 0.49 && mass <= Rational::half(), "mass {mass}");
    }

    #[test]
    fn sample_variable_evaluation_and_affine_views() {
        // α0 + 2·α1 - 1
        let v = SymValue::Prim(
            Prim::Sub,
            vec![
                SymValue::Prim(
                    Prim::Add,
                    vec![
                        SymValue::Var(0),
                        SymValue::Prim(
                            Prim::Mul,
                            vec![SymValue::Const(Rational::from_int(2)), SymValue::Var(1)],
                        ),
                    ],
                ),
                SymValue::Const(Rational::one()),
            ],
        );
        let assignment = vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 4)];
        assert_eq!(v.eval(&assignment), Some(Rational::zero()));
        let (coeffs, k) = v.as_affine(2).unwrap();
        assert_eq!(coeffs, vec![Rational::one(), Rational::from_int(2)]);
        assert_eq!(k, -Rational::one());
        assert_eq!(v.max_var(), Some(1));
        assert!(!v.is_constant());
        // sig(α0) is not affine but has an interval enclosure.
        let s = SymValue::Prim(Prim::Sig, vec![SymValue::Var(0)]);
        assert!(s.as_affine(1).is_none());
        let enclosure = s.eval_interval(&IntervalBox::unit(1)).unwrap();
        assert!(enclosure.lo().to_f64() >= 0.49 && enclosure.hi().to_f64() <= 0.74);
        assert!(format!("{v}").contains("α0"));
    }

    /// splitmix64: a seeded source for the randomised tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A nonzero rational `±p/q` with small `p` and `q`.
        fn coefficient(&mut self) -> Rational {
            let magnitude =
                Rational::from_ratio(1 + self.below(4) as i64, 1 + self.below(3) as i64);
            if self.below(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
    }

    fn prim(p: Prim, args: Vec<SymValue>) -> SymValue {
        SymValue::Prim(p, args)
    }

    fn constant(r: Rational) -> SymValue {
        SymValue::Const(r)
    }

    /// A random affine value over `vars`, written the way exploration
    /// produces them and worse: constant factors on either side of `mul`,
    /// negations, constant sub-expressions, and a cancelling `αⱼ − αⱼ` over a
    /// variable `stray` that need not belong to `vars`.
    fn random_affine(rng: &mut Rng, vars: &[usize], stray: usize) -> SymValue {
        let offset = Rational::from_ratio(rng.below(5) as i64 - 2, 1 + rng.below(3) as i64);
        let mut value = constant(offset);
        for &i in vars {
            let c = rng.coefficient();
            let term = match rng.below(4) {
                0 => prim(Prim::Mul, vec![constant(c), SymValue::Var(i)]),
                1 => prim(Prim::Mul, vec![SymValue::Var(i), constant(c)]),
                2 => prim(Prim::Neg, vec![prim(Prim::Mul, vec![constant(-c), SymValue::Var(i)])]),
                _ => {
                    let folded = prim(Prim::Add, vec![constant(c), constant(Rational::zero())]);
                    prim(Prim::Mul, vec![folded, SymValue::Var(i)])
                }
            };
            value = if rng.below(2) == 0 {
                prim(Prim::Add, vec![value, term])
            } else {
                prim(Prim::Sub, vec![value, prim(Prim::Neg, vec![term])])
            };
        }
        if rng.below(3) == 0 {
            let cancel = prim(Prim::Sub, vec![SymValue::Var(stray), SymValue::Var(stray)]);
            value = prim(Prim::Add, vec![cancel, value]);
        }
        if rng.below(4) == 0 {
            value = prim(Prim::Mul, vec![constant(rng.coefficient()), value]);
        }
        value
    }

    fn random_kind(rng: &mut Rng) -> ConstraintKind {
        [ConstraintKind::NonPositive, ConstraintKind::Positive, ConstraintKind::NonNegative]
            [rng.below(3)]
    }

    fn path_over(sample_count: usize, constraints: Vec<SymConstraint>) -> SymbolicPath {
        SymbolicPath { sample_count, branches: Vec::new(), constraints, steps: 0, result: None }
    }

    #[test]
    fn sparse_exact_volumes_equal_the_dense_polytope() {
        // Random affine systems over at most four sample variables split into
        // random components: the component-wise sparse volume must equal the
        // volume of the one dense polytope over all variables, exactly.
        let mut rng = Rng(0x5eed_2021);
        let (mut zero, mut positive) = (0, 0);
        for case in 0..200 {
            let n = 1 + rng.below(4);
            let groups = 1 + rng.below(n);
            let group_of: Vec<usize> = (0..n).map(|_| rng.below(groups)).collect();
            // Most hyperplanes pass through this interior point, so most
            // regions are neither empty nor the whole cube.
            let point: Vec<Rational> =
                (0..n).map(|_| Rational::from_ratio(1 + rng.below(3) as i64, 4)).collect();
            let mut constraints = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let g = rng.below(groups);
                let members: Vec<usize> = (0..n).filter(|i| group_of[*i] == g).collect();
                let vars: Vec<usize> = members.into_iter().filter(|_| rng.below(3) != 0).collect();
                let stray = rng.below(n);
                let mut value = random_affine(&mut rng, &vars, stray);
                if rng.below(4) != 0 {
                    let at_point = value.eval(&point).expect("affine values are total");
                    value = prim(Prim::Sub, vec![value, constant(at_point)]);
                }
                let constraint = SymConstraint { value, kind: random_kind(&mut rng) };
                // Both volumes share the affine reading, so check it on its
                // own: at sample points, `c·α + k` is the value, and
                // `c·α ≤ b` is the constraint off its boundary.
                let other: Vec<Rational> =
                    (0..n).map(|_| Rational::from_ratio(rng.below(9) as i64, 8)).collect();
                let (coeffs, k) = constraint.value.as_affine(n).expect("affine");
                let (normal, bound) = constraint.as_linear(n).expect("affine");
                for at in [&point, &other] {
                    let dot = |c: &[Rational]| -> Rational {
                        c.iter().zip(at.iter()).map(|(c, a)| c * a).sum()
                    };
                    let value = constraint.value.eval(at).expect("affine values are total");
                    assert_eq!(dot(&coeffs) + &k, value, "case {case}: {}", constraint.value);
                    if !value.is_zero() {
                        let linear = dot(&normal) <= bound;
                        assert_eq!(constraint.holds_at(at), Some(linear), "case {case}: {constraint}");
                    }
                }
                constraints.push(constraint);
            }
            if case % 10 == 0 {
                // A constraint with no variable left, violated half the time.
                let bound = constant(Rational::from_int(rng.below(2) as i64 * 2 - 1));
                let cancel = prim(Prim::Sub, vec![SymValue::Var(0), SymValue::Var(0)]);
                let value = prim(Prim::Add, vec![cancel, bound]);
                constraints.push(SymConstraint { value, kind: ConstraintKind::NonPositive });
            }
            let path = path_over(n, constraints);
            let dense = path.to_polytope().expect("affine").probability();
            assert_eq!(path.exact_probability(), Some(dense.clone()), "case {case}: {path:?}");
            if dense.is_zero() {
                zero += 1;
            } else {
                positive += 1;
            }
        }
        assert!(zero >= 40 && positive >= 100, "weak mix: {zero} empty, {positive} nonempty");
    }

    #[test]
    fn univariate_groups_in_closed_form_equal_the_dense_polytope() {
        // Paths whose one-variable components take the closed form, beside
        // multi-variable components that keep the oracle and constant
        // constraints: the volume must equal the dense polytope's, exactly.
        // Each one-variable constraint puts its edge at a threshold below 0,
        // inside [0,1] or above 1, with either coefficient sign, so its
        // interval is often clipped, sometimes empty and sometimes a point.
        let thresholds = [(-1, 2), (0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (1, 1), (3, 2)];
        let mut rng = Rng(0x1_7a1d_f0e5);
        let (mut zero, mut positive, mut points, mut mixed) = (0, 0, 0, 0);
        for case in 0..300 {
            let n = 1 + rng.below(5);
            // 0: a one-variable component, 1: the multi-variable one, 2: free.
            let role: Vec<usize> = (0..n).map(|_| rng.below(3)).collect();
            let mut constraints = Vec::new();
            let mut singles = Vec::new();
            for i in (0..n).filter(|i| role[*i] == 0) {
                let mut own = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let (p, q) = thresholds[rng.below(thresholds.len())];
                    let mut at = vec![Rational::zero(); n];
                    at[i] = Rational::from_ratio(p, q);
                    let value = random_affine(&mut rng, &[i], i);
                    let edge = value.eval(&at).expect("affine values are total");
                    let value = prim(Prim::Sub, vec![value, constant(edge)]);
                    own.push(SymConstraint { value, kind: random_kind(&mut rng) });
                }
                if rng.below(6) == 0 {
                    // αᵢ ≤ t and αᵢ ≥ t: a single point, of length 0.
                    let t = Rational::from_ratio(1 + rng.below(3) as i64, 4);
                    let value = prim(Prim::Sub, vec![SymValue::Var(i), constant(t)]);
                    for kind in [ConstraintKind::NonPositive, ConstraintKind::NonNegative] {
                        own.push(SymConstraint { value: value.clone(), kind });
                    }
                    points += 1;
                }
                singles.push(own.clone());
                constraints.extend(own);
            }
            let group: Vec<usize> = (0..n).filter(|i| role[*i] == 1).collect();
            if group.len() >= 2 {
                let point: Vec<Rational> =
                    (0..n).map(|_| Rational::from_ratio(1 + rng.below(3) as i64, 4)).collect();
                for _ in 0..1 + rng.below(3) {
                    let value = random_affine(&mut rng, &group, group[0]);
                    let at_point = value.eval(&point).expect("affine values are total");
                    let value = prim(Prim::Sub, vec![value, constant(at_point)]);
                    constraints.push(SymConstraint { value, kind: random_kind(&mut rng) });
                }
                mixed += usize::from(!singles.is_empty());
            }
            if case % 10 == 0 {
                // A constraint with no variable left, violated half the time.
                let bound = constant(Rational::from_int(rng.below(2) as i64 * 2 - 1));
                constraints.push(SymConstraint { value: bound, kind: ConstraintKind::NonPositive });
            }
            let path = path_over(n, constraints);
            let dense = path.to_polytope().expect("affine").probability();
            assert_eq!(path.exact_probability(), Some(dense), "case {case}: {path:?}");
            // A one-variable component's length, from the dense oracle: the
            // other variables are unconstrained there.
            for own in singles {
                let length = path_over(n, own).to_polytope().expect("affine").probability();
                if length.is_zero() {
                    zero += 1;
                } else {
                    positive += 1;
                }
            }
        }
        assert!(
            zero >= 100 && positive >= 80 && points >= 20 && mixed >= 30,
            "weak mix: {zero} empty, {positive} nonempty, {points} points, {mixed} mixed"
        );
    }

    #[test]
    fn exact_volumes_stop_above_seven_dimensions() {
        // A chain α_s ≤ α_{s+1} ≤ … over eight variables is one component too
        // large for the exact oracle. Components are visited in ascending
        // root order, and a chain's root is its last variable: an empty
        // component rooted below the chain answers 0 first, one rooted above
        // it comes too late.
        let chain = |start: usize| -> Vec<SymConstraint> {
            (start + 1..start + 8)
                .map(|i| SymConstraint {
                    value: prim(Prim::Sub, vec![SymValue::Var(i - 1), SymValue::Var(i)]),
                    kind: ConstraintKind::NonPositive,
                })
                .collect()
        };
        let empty = |i: usize| SymConstraint {
            value: prim(Prim::Add, vec![SymValue::Var(i), constant(Rational::one())]),
            kind: ConstraintKind::NonPositive,
        };
        assert_eq!(path_over(8, chain(0)).exact_probability(), None);
        let mut below = chain(1);
        below.push(empty(0));
        assert_eq!(path_over(9, below).exact_probability(), Some(Rational::zero()));
        let mut above = chain(0);
        above.insert(0, empty(8));
        assert_eq!(path_over(9, above).exact_probability(), None);
    }

    #[test]
    fn exploration_state_stays_compact() {
        // Every in-flight path carries these: a two-word rational, a
        // symbolic value of four words, its branch decisions in four words,
        // and per fork one history node of six words that both children
        // share. The breadth-first queue of paths is most of a Table 1
        // run's peak memory.
        assert_eq!(std::mem::size_of::<Rational>(), 16);
        assert!(std::mem::size_of::<SymValue>() <= 32);
        assert!(std::mem::size_of::<BranchPath>() <= 32);
        assert!(std::mem::size_of::<HistoryNode>() <= 48);
    }

    #[test]
    fn million_entry_histories_drop_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut history = History::default();
                for _ in 0..1_000_000 {
                    history.push(SymValue::Var(0), false);
                }
                // A fork shares the million-entry prefix; dropping either
                // side first must leave the other intact.
                let mut fork = history.clone();
                fork.push(SymValue::Var(1), false);
                history.push(SymValue::Var(2), true);
                drop(history);
                let nodes =
                    std::iter::successors(fork.0.as_deref(), |node| node.rest.0.as_deref());
                assert_eq!(nodes.count(), 1_000_001);
                let newest = fork.0.as_deref().expect("nonempty");
                assert_eq!((&newest.value, newest.score), (&SymValue::Var(1), false));
                drop(fork);
            })
            .expect("spawn")
            .join()
            .expect("deep histories drop without overflowing the stack");
    }

    #[test]
    fn out_of_fuel_paths_are_counted_not_lost() {
        let e = explore_src("(fix phi x. if sample <= 1/2 then x else phi x) 0", 12);
        assert!(e.out_of_fuel > 0);
        assert!(!e.terminated.is_empty());
        assert!(!e.interrupted);
    }

    #[test]
    fn machine_and_substitution_reference_agree_on_a_spot_check() {
        // The full catalogue + proptest differential lives in
        // tests/symbolic_differential.rs; this is a fast in-crate smoke check.
        for (src, depth) in [
            ("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0", 60),
            ("(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1", 40),
            ("score(sample - 1/2) + sample", 50),
            ("if sample * sample <= 1/2 then 0 else (lam y. y) 1", 50),
        ] {
            let term = parse_term(src).unwrap();
            let config = ExplorationConfig::default()
                .with_max_steps_per_path(depth)
                .with_max_paths(5_000);
            let machine = explore(&term, &config);
            let reference = explore_substitution(&term, &config);
            assert_eq!(machine, reference, "disagreement on `{src}`");
        }
    }

    #[test]
    fn interruption_returns_sound_partial_results() {
        let term =
            parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = ExplorationConfig::default().with_max_steps_per_path(400);
        // Interrupt after a couple of terminated paths' worth of work.
        let mut budget = 6usize;
        let mut check = |_: Poll<'_>| {
            if budget == 0 {
                Err("deadline")
            } else {
                budget -= 1;
                Ok(())
            }
        };
        let (partial, err) =
            try_explore_seeded(&term, &config, None, &mut check, &mut |_, _| Ok(()));
        assert_eq!(err, Some("deadline"));
        assert!(partial.interrupted);
        let full = explore(&term, &config);
        assert!(!full.interrupted);
        assert!(partial.terminated.len() < full.terminated.len());
        // Every partial path is literally one of the full exploration's
        // paths, so the partial probability mass is a monotone lower bound.
        for path in &partial.terminated {
            assert!(full.terminated.contains(path));
        }
        let partial_mass: Rational =
            partial.terminated.iter().map(|p| p.probability(100)).sum();
        let full_mass: Rational = full.terminated.iter().map(|p| p.probability(100)).sum();
        assert!(partial_mass <= full_mass);
        assert!(partial_mass > Rational::zero());
    }
}
