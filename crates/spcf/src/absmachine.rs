//! The environment machine, generic over its value domain.
//!
//! PR 1 replaced the concrete evaluator's whole-term substitution with a
//! CEK-style environment machine ([`crate::machine`]), making each small step
//! O(1) amortized. But the workspace contains *three more* small-step
//! interpreters — stochastic symbolic execution (`intervalsem::symbolic`),
//! the interval-trace reduction (`intervalsem::iterm`) and the AST verifier's
//! symbolic CbV execution (`astver::tree`) — which until now each carried
//! their own term type, capture-avoiding substitution and redex stepper, all
//! quadratic in the run depth for non-affine programs.
//!
//! This module extracts the machine core so that all four semantics share it.
//! The observation is that every one of them interprets the *same* source
//! syntax ([`Term`]) with the *same* focusing discipline (leftmost-outermost
//! under CbN, function-then-argument under CbV) and differs only in
//!
//! 1. the **literal domain** `L` that numerals live in — concrete
//!    [`Rational`]s, symbolic expressions over sample variables `αᵢ`,
//!    intervals `[a, b]`, or the verifier's guard values with the unknown `⊛`;
//! 2. what the **effectful redexes** do: drawing a `sample`, applying a
//!    primitive, branching on a guard, passing a `score`.
//!
//! The machine therefore handles all *structural* work — focusing,
//! environments, closures, continuation frames, β/fix firing, step
//! accounting — and **pauses** at each effectful redex, returning an
//! [`Event`] to the driving semantics, which interprets the effect and
//! resumes the machine ([`Machine::resume_lit`], [`Machine::resume_branch`]).
//! Because a paused machine is [`Clone`] (environments are `Rc`-shared
//! cons-lists, continuations are plain vectors), a driver can *fork* at a
//! branch whose guard is genuinely symbolic: clone the paused machine and
//! resume one copy into each branch. That single capability is what lets
//! symbolic exploration and the verifier's execution-tree construction run on
//! the same machine as concrete evaluation.
//!
//! # Step accounting
//!
//! Exactly the transitions that correspond to reduction rules of the paper
//! count as steps (cf. the table in [`crate::machine`]): β and fix-unrolling
//! fire inside the machine and count immediately; `sample`, primitive,
//! branch, `score` and atom-application redexes count when the driver resumes
//! them. Focusing, value returns and thunk entry are administrative and free,
//! so the machine's [`steps`](Machine::steps) equals the substitution-based
//! reference count `#s↓(M)` for every domain.
//!
//! # Environments
//!
//! An environment is a cons-list of binding frames shared through `Rc`. β
//! pushes one frame binding the λ's variable. Unrolling `fix φ x. M` also
//! pushes *one* frame, which binds two names: `x` to the argument, and `φ` to
//! the `fix` closure over the frame's tail — the environment the closure
//! itself captured — rebuilt on lookup rather than stored. `x` is matched
//! first, so it shadows `φ` when both are named alike, as in the reference's
//! `M[x := N][φ := fix φ x. M]`, and readback substitutes `x` and then `φ`.
//!
//! # Fuel
//!
//! [`Machine::next_event`] refuses to run past `max_steps` counted steps and
//! reports [`Event::OutOfFuel`] instead. Two conventions exist among the
//! pre-existing steppers and both are supported via
//! [`DomainSpec::value_first`]: the concrete reference semantics checks fuel
//! *before* looking at the state (a run needing exactly `max_steps` steps is
//! out of fuel), while the symbolic engines report a reached value first.
//!
//! # Atoms
//!
//! Some domains need values that are neither literals nor closures: the
//! concrete CbV semantics carries free variables of open terms through
//! argument position, and the AST verifier represents the recursive call
//! `φ` as an opaque marker whose application is recorded as a `μ`-node.
//! These are [`Value::Atom`]s; applying one pauses with
//! [`Event::AtomApplied`] so the driver decides what it means.

use crate::ast::{Ident, Prim, Term};
use crate::eval::Strategy;
use probterm_numerics::Rational;
use probterm_telemetry::{EventKind, SharedProfile};
use std::collections::HashMap;
use std::rc::Rc;

/// The (static) behaviour of a value domain: how source numerals embed, how
/// unbound variables and nested fixpoints are treated, and which fuel
/// convention the domain's reference semantics uses.
///
/// Only plain function pointers appear here so that a spec — and hence the
/// machine — stays `Copy`/`Clone` without bounds beyond `L: Clone, A: Clone`.
pub struct DomainSpec<L, A> {
    /// Evaluation strategy (argument thunking vs. argument evaluation).
    pub strategy: Strategy,
    /// Embeds a source numeral into the literal domain (`r ↦ r`,
    /// `r ↦ [r, r]`, `r ↦ Const(r)`, …).
    pub lit_of_num: fn(&Rational) -> L,
    /// Under CbV, an unbound variable reached in *value* position becomes
    /// this atom (the paper treats free variables of open terms as values);
    /// `None` makes every unbound variable a [`Stuck::FreeVariable`].
    pub atom_of_free: Option<fn(&Ident) -> A>,
    /// When `true`, evaluating a `fix` pauses with [`Event::FixEncountered`]
    /// instead of building a closure (the AST verifier abstracts nested
    /// fixpoints as unknown values).
    pub opaque_fix: bool,
    /// When `true`, an exhausted step budget still permits *administrative*
    /// moves, so a state whose readback is already a value reports
    /// [`Event::Done`] rather than [`Event::OutOfFuel`] (the symbolic
    /// engines' convention: they test value-ness before fuel); when `false`
    /// the fuel check gates every transition (the concrete reference
    /// convention: a run needing exactly `max_steps` steps is out of fuel).
    pub value_first: bool,
}

impl<L, A> Clone for DomainSpec<L, A> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<L, A> Copy for DomainSpec<L, A> {}

/// An uninhabited atom type for domains without atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoAtom {}

/// A machine value: a domain literal, a function closure over the source
/// program, or a domain-specific atom.
#[derive(Clone)]
pub enum Value<'a, L: Clone, A: Clone> {
    /// A literal of the domain.
    Lit(L),
    /// A `Lam` or `Fix` node of the source program together with its defining
    /// environment.
    Closure {
        /// The `Term::Lam` or `Term::Fix` node.
        fun: &'a Term,
        /// The captured environment.
        env: Env<'a, L, A>,
    },
    /// A domain-specific atomic value (see [`DomainSpec::atom_of_free`] and
    /// [`Event::AtomApplied`]).
    Atom(A),
}

impl<'a, L: Clone, A: Clone> Value<'a, L, A> {
    /// The literal, if the value is one.
    pub fn as_lit(&self) -> Option<&L> {
        match self {
            Value::Lit(l) => Some(l),
            _ => None,
        }
    }

    /// Consumes the value, returning the literal if it is one.
    pub fn into_lit(self) -> Option<L> {
        match self {
            Value::Lit(l) => Some(l),
            _ => None,
        }
    }
}

/// A persistent environment: a cons-list shared through `Rc`, so extending
/// costs O(1) and closures alias their defining environment.
pub type Env<'a, L, A> = Option<Rc<EnvNode<'a, L, A>>>;

/// One binding frame of an environment chain: `name` bound to `binding`,
/// and, for a frame made by unrolling a `fix` (see the module docs), that
/// `Term::Fix` node, whose `φ` is bound to the `fix` closure over `next`.
pub struct EnvNode<'a, L: Clone, A: Clone> {
    name: Ident,
    binding: Binding<'a, L, A>,
    fix: Option<&'a Term>,
    next: Env<'a, L, A>,
}

impl<L: Clone, A: Clone> Drop for EnvNode<'_, L, A> {
    /// Environment chains grow linearly with the recursion depth of a run,
    /// and they nest not only through `next` but also through *bindings*:
    /// a thunk or closure argument holds the environment it was made in,
    /// often the previous unrolling's. The default recursive drop glue would
    /// overflow the stack tearing down a long truncated run, so unlink in a
    /// loop that harvests every environment handle a node owns.
    ///
    /// Only a handle this node owns alone is followed: dropping a shared one
    /// just decrements its count. The walk follows a chain of such handles
    /// in a loop and spills to a worklist only at a node that owns both its
    /// binding's environment and `next`, so the common drop, down one chain
    /// or of a node whose chain another path still holds, allocates nothing.
    fn drop(&mut self) {
        type Handle<'a, L, A> = Rc<EnvNode<'a, L, A>>;
        /// Takes the env handles `node` owns alone and returns one to follow
        /// next; when it owns two, the other goes on the worklist.
        fn harvest<'a, L: Clone, A: Clone>(
            node: &mut EnvNode<'a, L, A>,
            work: &mut Vec<Handle<'a, L, A>>,
        ) -> Option<Handle<'a, L, A>> {
            let env = match &mut node.binding {
                Binding::Thunk { env, .. } => env.take(),
                Binding::Val(Value::Closure { env, .. }) => env.take(),
                Binding::Val(_) => None,
            };
            // A shared handle is kept alive by someone else: dropping it
            // here cannot reach its node's own drop.
            let owned = |handle: &Handle<'a, L, A>| Rc::strong_count(handle) == 1;
            match (env.filter(owned), node.next.take().filter(owned)) {
                (Some(env), Some(next)) => {
                    work.push(next);
                    Some(env)
                }
                (env, next) => env.or(next),
            }
        }
        let mut work: Vec<Handle<'_, L, A>> = Vec::new();
        let mut follow = harvest(self, &mut work);
        while let Some(handle) = follow.take().or_else(|| work.pop()) {
            // Sole owner: strip the node's env handles; its own drop then
            // has nothing left to recurse into.
            if let Ok(mut node) = Rc::try_unwrap(handle) {
                follow = harvest(&mut node, &mut work);
            }
        }
    }
}

#[derive(Clone)]
enum Binding<'a, L: Clone, A: Clone> {
    /// Call-by-name suspension: un-memoised term + captured environment.
    Thunk { term: &'a Term, env: Env<'a, L, A> },
    /// An evaluated value (call-by-value arguments, and `φ` under both
    /// strategies, which is always bound to the recursive closure itself).
    Val(Value<'a, L, A>),
}

fn bind<'a, L: Clone, A: Clone>(
    env: &Env<'a, L, A>,
    name: &Ident,
    binding: Binding<'a, L, A>,
) -> Env<'a, L, A> {
    Some(Rc::new(EnvNode { name: name.clone(), binding, fix: None, next: env.clone() }))
}

fn lookup<'a, L: Clone, A: Clone>(
    env: &Env<'a, L, A>,
    name: &Ident,
) -> Option<Binding<'a, L, A>> {
    let mut current = env;
    while let Some(node) = current {
        if node.name == *name {
            return Some(node.binding.clone());
        }
        if let Some(fun @ Term::Fix(phi, _, _)) = node.fix {
            if phi == name {
                return Some(Binding::Val(Value::Closure { fun, env: node.next.clone() }));
            }
        }
        current = &node.next;
    }
    None
}

/// One frame of the continuation (the paper's evaluation context `E`, split
/// into its layers).
#[derive(Clone)]
enum Frame<'a, L: Clone, A: Clone> {
    /// `[·] N` — the argument is pending; under CbN it will be thunked, under
    /// CbV it is evaluated next.
    AppArg { arg: &'a Term, env: Env<'a, L, A> },
    /// `V [·]` — call-by-value only: the function is evaluated, the hole is
    /// the argument.
    AppFun { fun: Value<'a, L, A> },
    /// `if([·], N, P)`.
    If { then: &'a Term, els: &'a Term, env: Env<'a, L, A> },
    /// `score([·])`.
    Score,
    /// `f(l₁, …, [·], M, …)` for the `Term::Prim` node `term` — evaluated
    /// prefix in `done`, the hole is argument `done.len()`, the suffix is
    /// still un-focused.
    Prim { term: &'a Term, done: Prefix<L>, env: Env<'a, L, A> },
}

/// The evaluated prefix of a primitive application's arguments. Every
/// primitive is unary or binary, so a frame waiting for an argument holds
/// at most one literal, and holds it inline: a primitive step allocates
/// nothing. Keeping the `Term::Prim` node instead of its primitive and
/// argument slice leaves room for that literal without growing the frame.
#[derive(Clone)]
enum Prefix<L> {
    Empty,
    One(L),
    Many(Vec<L>),
}

impl<L> Prefix<L> {
    fn as_slice(&self) -> &[L] {
        match self {
            Prefix::Empty => &[],
            Prefix::One(l) => std::slice::from_ref(l),
            Prefix::Many(ls) => ls,
        }
    }

    /// The prefix with `l` appended.
    fn push(self, l: L) -> Prefix<L> {
        match self {
            Prefix::Empty => Prefix::One(l),
            Prefix::One(first) => Prefix::Many(vec![first, l]),
            Prefix::Many(mut ls) => {
                ls.push(l);
                Prefix::Many(ls)
            }
        }
    }

    /// The complete argument list: the prefix with the last argument `l`.
    fn finish(self, l: L) -> PrimArgs<L> {
        PrimArgs(match self {
            Prefix::Empty => ArgsRepr::One(l),
            Prefix::One(first) => ArgsRepr::Two([first, l]),
            Prefix::Many(mut ls) => {
                ls.push(l);
                ArgsRepr::Many(ls)
            }
        })
    }
}

/// The arguments of a primitive application, as [`Event::PrimReady`]
/// delivers them: a slice through [`Deref`](std::ops::Deref). Up to two
/// arguments are held inline, which covers every primitive of the
/// language, so delivering them allocates nothing; a driver that keeps the
/// arguments (a postponed symbolic application) takes them with
/// [`into_vec`](PrimArgs::into_vec).
pub struct PrimArgs<L>(ArgsRepr<L>);

enum ArgsRepr<L> {
    One(L),
    Two([L; 2]),
    Many(Vec<L>),
}

impl<L> PrimArgs<L> {
    /// The arguments as a vector.
    pub fn into_vec(self) -> Vec<L> {
        match self.0 {
            ArgsRepr::One(l) => vec![l],
            ArgsRepr::Two(ls) => Vec::from(ls),
            ArgsRepr::Many(ls) => ls,
        }
    }
}

impl<L> std::ops::Deref for PrimArgs<L> {
    type Target = [L];
    fn deref(&self) -> &[L] {
        match &self.0 {
            ArgsRepr::One(l) => std::slice::from_ref(l),
            ArgsRepr::Two(ls) => ls,
            ArgsRepr::Many(ls) => ls,
        }
    }
}

impl<L> std::ops::DerefMut for PrimArgs<L> {
    fn deref_mut(&mut self) -> &mut [L] {
        match &mut self.0 {
            ArgsRepr::One(l) => std::slice::from_mut(l),
            ArgsRepr::Two(ls) => ls,
            ArgsRepr::Many(ls) => ls,
        }
    }
}

/// The arguments of the `Term::Prim` node `term`.
fn prim_parts(term: &Term) -> (Prim, &[Term]) {
    match term {
        Term::Prim(prim, args) => (*prim, args),
        _ => unreachable!("a primitive frame holds a Term::Prim node"),
    }
}

/// The control: either evaluating a source subterm in an environment, or
/// returning a value to the topmost frame.
#[derive(Clone)]
enum Control<'a, L: Clone, A: Clone> {
    Eval { term: &'a Term, env: Env<'a, L, A> },
    Return(Value<'a, L, A>),
}

/// What the machine is paused on, i.e. which `resume_*` call is legal next.
#[derive(Clone)]
enum Pending<'a, L: Clone, A: Clone> {
    None,
    /// Resume with a literal via [`Machine::resume_lit`]; `counted` says
    /// whether doing so fires a reduction rule.
    Lit { counted: bool },
    /// Resume with a side via [`Machine::resume_branch`] (always counted).
    Branch { then: &'a Term, els: &'a Term, env: Env<'a, L, A> },
}

/// Structural stuck states the machine detects on its own; the driving
/// semantics maps them onto its own error vocabulary.
#[derive(Clone)]
pub enum Stuck<'a, L: Clone, A: Clone> {
    /// An unbound variable was focused in use position.
    FreeVariable(Ident),
    /// A closure or atom reached a position requiring a literal (guard of a
    /// decided `if`, `score` operand, primitive argument). The offending
    /// value is carried so drivers can refine the report (the concrete
    /// semantics gives free variables precedence).
    NotANumeral(Value<'a, L, A>),
    /// A literal was applied as a function.
    NotAFunction(L),
}

/// Why [`Machine::next_event`] returned: a final state, a paused effectful
/// redex, or a failure.
pub enum Event<'a, L: Clone, A: Clone> {
    /// The machine reached a value with an empty continuation.
    Done(Value<'a, L, A>),
    /// The step budget is exhausted (see [`DomainSpec::value_first`]).
    OutOfFuel,
    /// The machine is structurally stuck.
    Stuck(Stuck<'a, L, A>),
    /// A `sample` redex: resume with the drawn/abstracted literal (counted).
    Sample,
    /// A primitive has all its arguments: resume with the result literal
    /// (counted). The machine does not evaluate primitives itself — constant
    /// folding vs. postponement vs. interval lifting is the domain's call.
    /// The arguments read as a slice and are held inline (see [`PrimArgs`]).
    PrimReady(Prim, PrimArgs<L>),
    /// A literal reached an `if` guard: resume with a side (counted), or
    /// clone the machine and resume each copy into one side to fork.
    BranchReady(L),
    /// A literal reached a `score` redex: resume with the literal to pass it
    /// (counted), or stop if the domain rejects it.
    ScoreReady(L),
    /// An atom was applied to an argument (which is discarded): resume with a
    /// literal standing for the application's result (counted), or stop.
    AtomApplied(A),
    /// A `fix` was focused under [`DomainSpec::opaque_fix`]: resume with the
    /// literal abstracting it (administrative, not counted).
    FixEncountered(&'a Term),
}

impl<'a, L: Clone, A: Clone> Event<'a, L, A> {
    /// The telemetry kind of the event (what a
    /// `probterm_telemetry::ProfileCell` tallies).
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Done(_) => EventKind::Done,
            Event::OutOfFuel => EventKind::OutOfFuel,
            Event::Stuck(_) => EventKind::Stuck,
            Event::Sample => EventKind::Sample,
            Event::PrimReady(_, _) => EventKind::PrimReady,
            Event::BranchReady(_) => EventKind::BranchReady,
            Event::ScoreReady(_) => EventKind::ScoreReady,
            Event::AtomApplied(_) => EventKind::AtomApplied,
            Event::FixEncountered(_) => EventKind::FixEncountered,
        }
    }
}

/// The shared environment machine. See the module docs for the protocol:
/// call [`next_event`](Machine::next_event), interpret the [`Event`], resume.
pub struct Machine<'a, L: Clone, A: Clone> {
    spec: DomainSpec<L, A>,
    /// `Some` between transitions; `None` while paused on an event.
    control: Option<Control<'a, L, A>>,
    stack: Vec<Frame<'a, L, A>>,
    pending: Pending<'a, L, A>,
    steps: usize,
    max_steps: usize,
    /// Shared run profile, `None` (the default) when profiling is off. The
    /// `Rc` is what makes forked machines tally into their parent's cell.
    profile: Option<SharedProfile>,
}

impl<'a, L: Clone, A: Clone> Clone for Machine<'a, L, A> {
    fn clone(&self) -> Self {
        Machine {
            spec: self.spec,
            control: self.control.clone(),
            stack: self.stack.clone(),
            pending: self.pending.clone(),
            steps: self.steps,
            max_steps: self.max_steps,
            profile: self.profile.clone(),
        }
    }
}

impl<'a, L: Clone, A: Clone> Machine<'a, L, A> {
    /// A machine about to evaluate the closed term `term`.
    pub fn new(spec: DomainSpec<L, A>, term: &'a Term, max_steps: usize) -> Machine<'a, L, A> {
        Machine::with_bindings(spec, term, max_steps, Vec::new())
    }

    /// A machine about to evaluate `term` under initial bindings (innermost
    /// binding last) — the AST verifier binds `φ` to a marker atom and the
    /// recursion argument to the unknown literal.
    pub fn with_bindings(
        spec: DomainSpec<L, A>,
        term: &'a Term,
        max_steps: usize,
        bindings: Vec<(Ident, Value<'a, L, A>)>,
    ) -> Machine<'a, L, A> {
        let mut env: Env<'a, L, A> = None;
        for (name, value) in bindings {
            env = bind(&env, &name, Binding::Val(value));
        }
        Machine {
            spec,
            control: Some(Control::Eval { term, env }),
            stack: Vec::new(),
            pending: Pending::None,
            steps: 0,
            max_steps,
            profile: None,
        }
    }

    /// Number of counted reduction steps fired so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Attaches a shared profile cell: from now on every counted step and
    /// every reported event is tallied into it (forked machines inherit the
    /// cell through [`Clone`]). The disabled path is a single `Option`
    /// discriminant test per counted step / event.
    pub fn set_profile(&mut self, profile: SharedProfile) {
        self.profile = Some(profile);
    }

    /// The attached profile cell, if any (drivers use it to tally forks and
    /// frontier depths next to the machine's own step/event tallies).
    pub fn profile(&self) -> Option<&SharedProfile> {
        self.profile.as_ref()
    }

    /// Counts one reduction step, mirroring it into the profile when enabled.
    #[inline]
    fn count_step(&mut self) {
        self.steps += 1;
        if let Some(profile) = &self.profile {
            profile.count_steps(1);
        }
    }

    /// Raises or lowers the step budget (used to thread shared fuel through
    /// forked machines).
    pub fn set_max_steps(&mut self, max_steps: usize) {
        self.max_steps = max_steps;
    }

    /// Runs administrative transitions until the next effectful redex, final
    /// state or failure. Must not be called while an event is un-resumed.
    pub fn next_event(&mut self) -> Event<'a, L, A> {
        let event = self.next_event_inner();
        if let Some(profile) = &self.profile {
            profile.count_event(event.kind());
        }
        event
    }

    /// The transition loop behind [`next_event`](Machine::next_event), kept
    /// separate so the event-kind tally has a single return site to observe.
    fn next_event_inner(&mut self) -> Event<'a, L, A> {
        assert!(
            matches!(self.pending, Pending::None),
            "next_event called on a machine paused on an un-resumed event"
        );
        loop {
            if self.steps >= self.max_steps
                && !(self.spec.value_first && self.transition_is_administrative())
            {
                return Event::OutOfFuel;
            }
            match self.control.take().expect("machine control invariant") {
                Control::Eval { term, env } => {
                    if let Some(event) = self.eval(term, env) {
                        return event;
                    }
                }
                Control::Return(value) => {
                    if let Some(event) = self.apply(value) {
                        return event;
                    }
                }
            }
        }
    }

    /// Resumes a machine paused on [`Event::Sample`], [`Event::PrimReady`],
    /// [`Event::ScoreReady`], [`Event::AtomApplied`] or
    /// [`Event::FixEncountered`] with the literal the redex produced.
    pub fn resume_lit(&mut self, lit: L) {
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::Lit { counted } => {
                if counted {
                    self.count_step();
                }
                self.control = Some(Control::Return(Value::Lit(lit)));
            }
            _ => panic!("resume_lit without a pending literal event"),
        }
    }

    /// Resumes a machine paused on [`Event::BranchReady`] into the chosen
    /// side (counted as the conditional rule).
    pub fn resume_branch(&mut self, take_then: bool) {
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::Branch { then, els, env } => {
                self.count_step();
                let term = if take_then { then } else { els };
                self.control = Some(Control::Eval { term, env });
            }
            _ => panic!("resume_branch without a pending branch event"),
        }
    }

    /// Whether the next transition is administrative (readback-preserving:
    /// focusing, value formation, thunk entry, finishing) as opposed to a
    /// redex firing, a pause or a stuck report. Used by the `value_first`
    /// fuel convention: the pre-existing symbolic steppers checked
    /// "is the state a value?" *before* "is the budget exhausted?", so at the
    /// fuel boundary administrative progress towards [`Event::Done`] must
    /// stay possible while every redex (and redex-position failure) reports
    /// [`Event::OutOfFuel`], exactly like the substitution-based reference.
    fn transition_is_administrative(&self) -> bool {
        match self.control.as_ref().expect("machine control invariant") {
            Control::Eval { term, env } => match term {
                Term::Num(_) | Term::Lam(_, _) => true,
                Term::Fix(_, _, _) => !self.spec.opaque_fix,
                Term::Var(x) => {
                    lookup(env, x).is_some()
                        || (self.spec.strategy == Strategy::CallByValue
                            && self.spec.atom_of_free.is_some())
                }
                Term::App(_, _) | Term::If(_, _, _) | Term::Score(_) => true,
                Term::Prim(_, args) => !args.is_empty(),
                Term::Sample => false,
            },
            Control::Return(value) => match self.stack.last() {
                // Delivering a final value is allowed at the boundary.
                None => true,
                Some(Frame::AppArg { .. }) => self.spec.strategy == Strategy::CallByValue,
                Some(Frame::AppFun { .. }) | Some(Frame::If { .. }) | Some(Frame::Score) => false,
                Some(Frame::Prim { term, done, .. }) => {
                    let arity = prim_parts(term).1.len();
                    matches!(value, Value::Lit(_)) && done.as_slice().len() + 1 < arity
                }
            },
        }
    }

    /// Focus transition: decompose `term` or pause at a leaf redex.
    fn eval(&mut self, term: &'a Term, env: Env<'a, L, A>) -> Option<Event<'a, L, A>> {
        match term {
            Term::Num(r) => {
                self.control = Some(Control::Return(Value::Lit((self.spec.lit_of_num)(r))));
            }
            Term::Fix(_, _, _) if self.spec.opaque_fix => {
                self.pending = Pending::Lit { counted: false };
                return Some(Event::FixEncountered(term));
            }
            Term::Lam(_, _) | Term::Fix(_, _, _) => {
                self.control = Some(Control::Return(Value::Closure { fun: term, env }));
            }
            Term::Var(x) => match lookup(&env, x) {
                Some(Binding::Thunk { term, env }) => {
                    // Entering a thunk is administrative: the readback of the
                    // variable *is* the readback of its thunk.
                    self.control = Some(Control::Eval { term, env });
                }
                Some(Binding::Val(value)) => self.control = Some(Control::Return(value)),
                None => match (self.spec.strategy, self.spec.atom_of_free) {
                    // CbV focuses variables in argument position, where the
                    // reference semantics treats them as values.
                    (Strategy::CallByValue, Some(atom_of_free)) => {
                        self.control = Some(Control::Return(Value::Atom(atom_of_free(x))));
                    }
                    _ => return Some(Event::Stuck(Stuck::FreeVariable(x.clone()))),
                },
            },
            Term::App(fun, arg) => {
                self.stack.push(Frame::AppArg { arg: &**arg, env: env.clone() });
                self.control = Some(Control::Eval { term: &**fun, env });
            }
            Term::If(guard, then, els) => {
                self.stack.push(Frame::If { then: &**then, els: &**els, env: env.clone() });
                self.control = Some(Control::Eval { term: &**guard, env });
            }
            Term::Score(inner) => {
                self.stack.push(Frame::Score);
                self.control = Some(Control::Eval { term: &**inner, env });
            }
            Term::Sample => {
                self.pending = Pending::Lit { counted: true };
                return Some(Event::Sample);
            }
            Term::Prim(prim, args) => match args.first() {
                Some(first) => {
                    self.stack.push(Frame::Prim { term, done: Prefix::Empty, env: env.clone() });
                    self.control = Some(Control::Eval { term: first, env });
                }
                // Nullary applications cannot be written in the surface
                // syntax; the driver rejects them like the reference does.
                None => {
                    self.pending = Pending::Lit { counted: true };
                    return Some(Event::PrimReady(*prim, PrimArgs(ArgsRepr::Many(Vec::new()))));
                }
            },
        }
        None
    }

    /// Return transition: deliver `value` to the topmost frame (or finish).
    fn apply(&mut self, value: Value<'a, L, A>) -> Option<Event<'a, L, A>> {
        let Some(frame) = self.stack.pop() else {
            return Some(Event::Done(value));
        };
        match frame {
            Frame::AppArg { arg, env: arg_env } => match self.spec.strategy {
                Strategy::CallByName => {
                    let binding = Binding::Thunk { term: arg, env: arg_env };
                    self.beta(value, binding)
                }
                Strategy::CallByValue => {
                    self.stack.push(Frame::AppFun { fun: value });
                    self.control = Some(Control::Eval { term: arg, env: arg_env });
                    None
                }
            },
            Frame::AppFun { fun } => self.beta(fun, Binding::Val(value)),
            Frame::If { then, els, env } => match value {
                Value::Lit(guard) => {
                    self.pending = Pending::Branch { then, els, env };
                    Some(Event::BranchReady(guard))
                }
                other => Some(Event::Stuck(Stuck::NotANumeral(other))),
            },
            Frame::Score => match value {
                Value::Lit(l) => {
                    self.pending = Pending::Lit { counted: true };
                    Some(Event::ScoreReady(l))
                }
                other => Some(Event::Stuck(Stuck::NotANumeral(other))),
            },
            Frame::Prim { term, done, env } => match value {
                Value::Lit(l) => {
                    let (prim, args) = prim_parts(term);
                    let filled = done.as_slice().len() + 1;
                    if filled == args.len() {
                        self.pending = Pending::Lit { counted: true };
                        Some(Event::PrimReady(prim, done.finish(l)))
                    } else {
                        let done = done.push(l);
                        self.stack.push(Frame::Prim { term, done, env: env.clone() });
                        self.control = Some(Control::Eval { term: &args[filled], env });
                        None
                    }
                }
                other => Some(Event::Stuck(Stuck::NotANumeral(other))),
            },
        }
    }

    /// Applies the function value to the argument binding — the β /
    /// fix-unrolling redexes, the only transitions that extend environments.
    fn beta(
        &mut self,
        fun: Value<'a, L, A>,
        argument: Binding<'a, L, A>,
    ) -> Option<Event<'a, L, A>> {
        match fun {
            Value::Closure { fun: Term::Lam(x, body), env } => {
                self.count_step(); // counted: β
                let env = bind(&env, x, argument);
                self.control = Some(Control::Eval { term: &**body, env });
                None
            }
            Value::Closure { fun: fix @ Term::Fix(_, x, body), env } => {
                self.count_step(); // counted: fix unrolling
                // Mirrors `body.subst(x, arg).subst(phi, fix)` in one frame
                // (see `EnvNode`): x shadows φ on name clashes.
                let env = Some(Rc::new(EnvNode {
                    name: x.clone(),
                    binding: argument,
                    fix: Some(fix),
                    next: env,
                }));
                self.control = Some(Control::Eval { term: &**body, env });
                None
            }
            Value::Closure { .. } => unreachable!("closures wrap Lam or Fix nodes only"),
            Value::Lit(l) => Some(Event::Stuck(Stuck::NotAFunction(l))),
            Value::Atom(atom) => {
                self.pending = Pending::Lit { counted: true };
                Some(Event::AtomApplied(atom))
            }
        }
    }

    /// Reads the whole machine state back into the term the reference
    /// semantics would be holding: readback the control, then plug it into
    /// the continuation frames from the innermost outwards. Only meaningful
    /// for domains whose literals and atoms embed back into [`Term`]s (the
    /// concrete machine's `OutOfFuel` residuals); must not be called while
    /// paused on an event.
    pub fn residualize(&self, term_of_lit: fn(&L) -> Term, term_of_atom: fn(&A) -> Term) -> Term {
        assert!(
            matches!(self.pending, Pending::None),
            "residualize called on a machine paused on an un-resumed event"
        );
        let mut readback = Readback::new(term_of_lit, term_of_atom);
        let mut term = match self.control.as_ref().expect("machine control invariant") {
            Control::Eval { term, env } => readback.term(term, env),
            Control::Return(value) => readback.value(value),
        };
        for frame in self.stack.iter().rev() {
            term = match frame {
                Frame::AppArg { arg, env } => Term::app(term, readback.term(arg, env)),
                Frame::AppFun { fun } => Term::app(readback.value(fun), term),
                Frame::If { then, els, env } => {
                    Term::ite(term, readback.term(then, env), readback.term(els, env))
                }
                Frame::Score => Term::score(term),
                Frame::Prim { term: prim_term, done, env } => {
                    let (prim, args) = prim_parts(prim_term);
                    let done = done.as_slice();
                    let mut full: Vec<Term> = done.iter().map(term_of_lit).collect();
                    full.push(term);
                    for arg in &args[done.len() + 1..] {
                        full.push(readback.term(arg, env));
                    }
                    Term::Prim(prim, full)
                }
            };
        }
        term
    }

    /// Converts a machine value back into a source term (see
    /// [`Machine::residualize`]).
    pub fn readback_value(
        value: &Value<'a, L, A>,
        term_of_lit: fn(&L) -> Term,
        term_of_atom: fn(&A) -> Term,
    ) -> Term {
        Readback::new(term_of_lit, term_of_atom).value(value)
    }
}

/// Reads machine structures back into source terms.
///
/// The replacement terms of every environment node are computed once (the
/// memo is keyed by the node's address, which is stable because nodes live
/// behind `Rc`), and the dependency walk over the environment DAG is
/// iterative — a call-by-name run that suspends thunk-inside-thunk chains
/// thousands deep (e.g. a truncated `fix phi x. phi x` run) must not overflow
/// the stack. A fix-unrolling node has two: its argument's, and the `fix`
/// closure's over the node's `next`, substituted for `φ` right after `x`.
struct Readback<L, A> {
    memo: HashMap<*const (), (Term, Option<Term>)>,
    term_of_lit: fn(&L) -> Term,
    term_of_atom: fn(&A) -> Term,
}

impl<L: Clone, A: Clone> Readback<L, A> {
    fn new(term_of_lit: fn(&L) -> Term, term_of_atom: fn(&A) -> Term) -> Readback<L, A> {
        Readback { memo: HashMap::new(), term_of_lit, term_of_atom }
    }

    /// Converts a machine value back into a source term.
    fn value(&mut self, value: &Value<'_, L, A>) -> Term {
        match value {
            Value::Lit(l) => (self.term_of_lit)(l),
            Value::Closure { fun, env } => self.term(fun, env),
            Value::Atom(a) => (self.term_of_atom)(a),
        }
    }

    /// Substitutes an environment into a source subterm, innermost bindings
    /// first, recovering the term of the paper's configuration. Only called
    /// when a result is reported, never on the hot path.
    fn term(&mut self, term: &Term, env: &Env<'_, L, A>) -> Term {
        self.resolve(env);
        self.apply(term, env)
    }

    /// Substitutes the (already resolved) replacements of `env` into `term`.
    fn apply(&self, term: &Term, env: &Env<'_, L, A>) -> Term {
        let mut result = term.clone();
        let mut current = env;
        while let Some(node) = current {
            let (replacement, recursive) = &self.memo[&node_key(node)];
            result = result.subst(&node.name, replacement);
            if let (Some(Term::Fix(phi, _, _)), Some(recursive)) = (node.fix, recursive) {
                result = result.subst(phi, recursive);
            }
            current = &node.next;
        }
        result
    }

    /// Resolves the replacement term of every node reachable from `env`,
    /// dependencies first, without recursion.
    fn resolve(&mut self, env: &Env<'_, L, A>) {
        let mut work: Vec<(&EnvNode<'_, L, A>, bool)> = Vec::new();
        let mut current = env;
        while let Some(node) = current {
            work.push((node, false));
            current = &node.next;
        }
        while let Some((node, dependencies_ready)) = work.pop() {
            if self.memo.contains_key(&node_key(node)) {
                continue;
            }
            let binding_env = match &node.binding {
                Binding::Thunk { env, .. } => env,
                Binding::Val(Value::Closure { env, .. }) => env,
                Binding::Val(_) => &None,
            };
            let fix_env = if node.fix.is_some() { &node.next } else { &None };
            if dependencies_ready {
                let replacement = match &node.binding {
                    Binding::Thunk { term, env } => self.apply(term, env),
                    Binding::Val(Value::Lit(l)) => (self.term_of_lit)(l),
                    Binding::Val(Value::Closure { fun, env }) => self.apply(fun, env),
                    Binding::Val(Value::Atom(a)) => (self.term_of_atom)(a),
                };
                let recursive = node.fix.map(|fix| self.apply(fix, &node.next));
                self.memo.insert(node_key(node), (replacement, recursive));
            } else {
                work.push((node, true));
                for dependency_env in [binding_env, fix_env] {
                    let mut current = dependency_env;
                    while let Some(dependency) = current {
                        if !self.memo.contains_key(&node_key(dependency)) {
                            work.push((dependency, false));
                        }
                        current = &dependency.next;
                    }
                }
            }
        }
    }
}

fn node_key<L: Clone, A: Clone>(node: &EnvNode<'_, L, A>) -> *const () {
    node as *const EnvNode<'_, L, A> as *const ()
}
