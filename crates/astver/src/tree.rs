//! Symbolic execution trees for the AST proof system (paper §6.1, App. E).
//!
//! The body of a first-order fixpoint `μφ x. M` is executed symbolically under
//! call-by-value with
//!
//! * the actual argument replaced by the unknown value `⊛`,
//! * every `sample` replaced by a fresh sample variable `αᵢ`,
//! * every recursive call `φ V` recorded as a `μ`-node whose outcome is the
//!   unknown value `★`.
//!
//! Conditionals whose guard mentions only sample variables and constants
//! become *probabilistic* branch nodes (annotated with the guard); guards that
//! mention `⊛`/`★` become *Environment* branch nodes, to be resolved
//! adversarially by a strategy (§6.2). The resulting finite binary tree is the
//! object depicted in Fig. 6a.
//!
//! Construction drives the shared environment machine
//! ([`probterm_spcf::absmachine`]) instantiated at [`GuardValue`] literals:
//! `φ` is bound to a marker atom whose application pauses the machine
//! ([`Event::AtomApplied`] → `μ`-node), the recursion argument is bound to
//! the literal `⊛`, and nested fixpoints are abstracted to `⊛` via the
//! machine's opaque-`fix` mode. Branching forks the paused machine — no term
//! is ever substituted or rebuilt, so deep recursion bodies execute in time
//! linear in their step count.

use probterm_numerics::Rational;
use probterm_spcf::absmachine::{DomainSpec, Event, Machine, Stuck, Value};
use probterm_spcf::{Prim, Strategy, Term};
use probterm_telemetry::SharedProfile;
use std::fmt;
use std::rc::Rc;

/// A symbolic value appearing in guards: constants, sample variables, the
/// unknown argument/recursive outcome `⊛`, and postponed primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardValue {
    /// A rational constant.
    Const(Rational),
    /// The sample variable `αᵢ`.
    Var(usize),
    /// The unknown value (`⊛` for the argument, `★` for recursive outcomes).
    Unknown,
    /// A postponed primitive application.
    Prim(Prim, Vec<GuardValue>),
}

impl GuardValue {
    /// Returns `true` if the value mentions the unknown `⊛`/`★`.
    pub fn mentions_unknown(&self) -> bool {
        match self {
            GuardValue::Unknown => true,
            GuardValue::Const(_) | GuardValue::Var(_) => false,
            GuardValue::Prim(_, args) => args.iter().any(GuardValue::mentions_unknown),
        }
    }

    /// Returns the constant if the value is a constant.
    pub fn as_const(&self) -> Option<&Rational> {
        match self {
            GuardValue::Const(r) => Some(r),
            _ => None,
        }
    }

    /// Attempts to view the value as an affine expression `Σ cᵢ·αᵢ + k` over
    /// `dimension` sample variables.
    pub fn as_affine(&self, dimension: usize) -> Option<(Vec<Rational>, Rational)> {
        match self {
            GuardValue::Const(r) => Some((vec![Rational::zero(); dimension], r.clone())),
            GuardValue::Unknown => None,
            GuardValue::Var(i) => {
                if *i >= dimension {
                    return None;
                }
                let mut coeffs = vec![Rational::zero(); dimension];
                coeffs[*i] = Rational::one();
                Some((coeffs, Rational::zero()))
            }
            GuardValue::Prim(p, args) => match p {
                Prim::Add | Prim::Sub => {
                    let (ca, ka) = args[0].as_affine(dimension)?;
                    let (cb, kb) = args[1].as_affine(dimension)?;
                    let op = |a: &Rational, b: &Rational| {
                        if *p == Prim::Add {
                            a + b
                        } else {
                            a - b
                        }
                    };
                    Some((
                        ca.iter().zip(&cb).map(|(a, b)| op(a, b)).collect(),
                        op(&ka, &kb),
                    ))
                }
                Prim::Neg => {
                    let (c, k) = args[0].as_affine(dimension)?;
                    Some((c.iter().map(|v| -v).collect(), -k))
                }
                Prim::Mul => {
                    let (ca, ka) = args[0].as_affine(dimension)?;
                    let (cb, kb) = args[1].as_affine(dimension)?;
                    if ca.iter().all(Rational::is_zero) {
                        Some((cb.iter().map(|v| v * &ka).collect(), &ka * &kb))
                    } else if cb.iter().all(Rational::is_zero) {
                        Some((ca.iter().map(|v| v * &kb).collect(), &ka * &kb))
                    } else {
                        None
                    }
                }
                _ => None,
            },
        }
    }
}

impl fmt::Display for GuardValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardValue::Const(r) => write!(f, "{r}"),
            GuardValue::Var(i) => write!(f, "α{i}"),
            GuardValue::Unknown => write!(f, "⊛"),
            GuardValue::Prim(p, args) => {
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

/// A symbolic execution tree (Fig. 6a).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecTree {
    /// The body evaluated to a value.
    Leaf,
    /// The body got stuck (e.g. a failing `score`); treated as non-terminating.
    Stuck,
    /// A recursive call node `μ`, followed by the rest of the evaluation.
    Mu(Box<ExecTree>),
    /// A probabilistic branch on `guard ≤ 0` over sample variables only.
    Prob {
        /// The guard value (mentions only sample variables and constants).
        guard: GuardValue,
        /// Continuation when `guard ≤ 0`.
        then: Box<ExecTree>,
        /// Continuation when `guard > 0`.
        els: Box<ExecTree>,
    },
    /// An Environment-resolved branch: the guard mentions `⊛`/`★`, so the
    /// branch is treated nondeterministically (coloured red in Fig. 6a).
    Env {
        /// Identifier of the environment node (used to index strategies).
        id: usize,
        /// The (unknown-dependent) guard, kept for display purposes.
        guard: GuardValue,
        /// Continuation when the Environment picks the then-branch.
        then: Box<ExecTree>,
        /// Continuation when the Environment picks the else-branch.
        els: Box<ExecTree>,
    },
    /// A `score` over sample variables: the path continues only where the
    /// scored value is non-negative.
    Score {
        /// The scored value.
        value: GuardValue,
        /// Continuation.
        rest: Box<ExecTree>,
    },
}

impl ExecTree {
    /// Number of Environment nodes in the tree.
    pub fn env_node_count(&self) -> usize {
        match self {
            ExecTree::Leaf | ExecTree::Stuck => 0,
            ExecTree::Mu(rest) => rest.env_node_count(),
            ExecTree::Score { rest, .. } => rest.env_node_count(),
            ExecTree::Prob { then, els, .. } => then.env_node_count() + els.env_node_count(),
            ExecTree::Env { then, els, .. } => 1 + then.env_node_count() + els.env_node_count(),
        }
    }

    /// Number of `μ` (recursive call) nodes in the tree.
    pub fn mu_node_count(&self) -> usize {
        match self {
            ExecTree::Leaf | ExecTree::Stuck => 0,
            ExecTree::Mu(rest) => 1 + rest.mu_node_count(),
            ExecTree::Score { rest, .. } => rest.mu_node_count(),
            ExecTree::Prob { then, els, .. } | ExecTree::Env { then, els, .. } => {
                then.mu_node_count() + els.mu_node_count()
            }
        }
    }

    /// The maximal number of `μ` nodes along any root-to-leaf path — an upper
    /// bound on the recursive rank observable in the tree.
    pub fn max_mu_per_path(&self) -> u64 {
        match self {
            ExecTree::Leaf | ExecTree::Stuck => 0,
            ExecTree::Mu(rest) => 1 + rest.max_mu_per_path(),
            ExecTree::Score { rest, .. } => rest.max_mu_per_path(),
            ExecTree::Prob { then, els, .. } | ExecTree::Env { then, els, .. } => {
                then.max_mu_per_path().max(els.max_mu_per_path())
            }
        }
    }

    /// Renders the tree as indented text (the textual analogue of Fig. 6a).
    pub fn render(&self) -> String {
        fn go(t: &ExecTree, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match t {
                ExecTree::Leaf => out.push_str(&format!("{pad}leaf\n")),
                ExecTree::Stuck => out.push_str(&format!("{pad}stuck\n")),
                ExecTree::Mu(rest) => {
                    out.push_str(&format!("{pad}μ\n"));
                    go(rest, indent, out);
                }
                ExecTree::Score { value, rest } => {
                    out.push_str(&format!("{pad}score({value})\n"));
                    go(rest, indent, out);
                }
                ExecTree::Prob { guard, then, els } => {
                    out.push_str(&format!("{pad}prob [{guard} ≤ 0]\n"));
                    go(then, indent + 1, out);
                    go(els, indent + 1, out);
                }
                ExecTree::Env { id, guard, then, els } => {
                    out.push_str(&format!("{pad}env#{id} [{guard} ≤ 0]\n"));
                    go(then, indent + 1, out);
                    go(els, indent + 1, out);
                }
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }
}

/// Errors raised while building the execution tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The input is not a first-order fixpoint `μφ x. M`.
    NotFirstOrderFixpoint,
    /// The body did not normalise within the step budget (should not happen
    /// for recursion-free bodies; indicates an unsupported shape).
    BodyDidNotNormalise,
    /// An ill-formed application was encountered during symbolic execution.
    IllFormed(String),
    /// The cooperative check of [`try_build_tree`] cancelled the construction
    /// (the analysis service enforcing a deadline).
    Interrupted,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NotFirstOrderFixpoint => {
                write!(f, "expected a first-order fixpoint μφ x. M")
            }
            TreeError::BodyDidNotNormalise => {
                write!(f, "the recursion body did not normalise within the step budget")
            }
            TreeError::IllFormed(what) => write!(f, "ill-formed symbolic execution: {what}"),
            TreeError::Interrupted => {
                write!(f, "symbolic execution tree construction was interrupted")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// The result of building a symbolic execution tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicTree {
    /// The tree itself.
    pub tree: ExecTree,
    /// Total number of sample variables introduced (the tree dimension).
    pub sample_count: usize,
    /// Number of Environment nodes (indexed `0 .. env_count`).
    pub env_count: usize,
}

/// The atom bound to `φ`: applying it is the recursive-call event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecMarker;

fn guard_const(r: &Rational) -> GuardValue {
    GuardValue::Const(r.clone())
}

fn tree_spec() -> DomainSpec<GuardValue, RecMarker> {
    DomainSpec {
        strategy: Strategy::CallByValue,
        lit_of_num: guard_const,
        atom_of_free: None,
        // Nested fixpoints are abstracted as the unknown value `⊛`.
        opaque_fix: true,
        value_first: true,
    }
}

/// Shared mutable counters during tree construction.
struct Builder {
    samples: usize,
    env_nodes: usize,
    /// Remaining *global* step budget, shared by all branches of the tree.
    fuel: usize,
}

const TREE_FUEL: usize = 1_000_000;

/// Builds the symbolic execution tree of a first-order fixpoint term
/// (`μφ x. M`, possibly applied to an argument which is ignored — the analysis
/// replaces the argument by `⊛`).
///
/// # Errors
///
/// Returns a [`TreeError`] if the shape is unsupported or the body does not
/// normalise within an internal step budget.
pub fn build_tree(term: &Term) -> Result<SymbolicTree, TreeError> {
    try_build_tree(term, &mut || Ok(()))
}

/// Like [`build_tree`], but calls `check` periodically during construction
/// and aborts with [`TreeError::Interrupted`] when it fails — the hook
/// through which the analysis service enforces per-request deadlines inside
/// the verifier.
///
/// # Errors
///
/// As [`build_tree`], plus [`TreeError::Interrupted`].
pub fn try_build_tree(
    term: &Term,
    check: &mut dyn FnMut() -> Result<(), ()>,
) -> Result<SymbolicTree, TreeError> {
    try_build_tree_profiled(term, None, check)
}

/// Like [`try_build_tree`], tallying machine steps, events, branch forks and
/// the maximum tree recursion depth into `profile` when one is given.
///
/// # Errors
///
/// As [`build_tree`], plus [`TreeError::Interrupted`].
pub fn try_build_tree_profiled(
    term: &Term,
    profile: Option<&SharedProfile>,
    check: &mut dyn FnMut() -> Result<(), ()>,
) -> Result<SymbolicTree, TreeError> {
    let fixpoint = match term {
        Term::App(f, _) if matches!(**f, Term::Fix(_, _, _)) => &**f,
        other => other,
    };
    let Term::Fix(phi, x, body) = fixpoint else {
        return Err(TreeError::NotFirstOrderFixpoint);
    };
    if !probterm_spcf::is_first_order_fixpoint(fixpoint) {
        return Err(TreeError::NotFirstOrderFixpoint);
    }
    let mut builder = Builder { samples: 0, env_nodes: 0, fuel: TREE_FUEL };
    // The argument is the unknown `⊛`; `φ` is the recursion marker. `φ` has
    // precedence on (pathological) name clashes, like the old embedding.
    let bindings = vec![
        (x.clone(), Value::Lit(GuardValue::Unknown)),
        (phi.clone(), Value::Atom(RecMarker)),
    ];
    let mut machine = Machine::with_bindings(tree_spec(), body, builder.fuel, bindings);
    if let Some(cell) = profile {
        machine.set_profile(Rc::clone(cell));
    }
    let tree = drive_tree(&mut machine, &mut builder, 1, check)?;
    Ok(SymbolicTree {
        tree,
        sample_count: builder.samples,
        env_count: builder.env_nodes,
    })
}

/// What a linear segment of the evaluation wraps around its subtree.
enum Wrap {
    Mu,
    Score(GuardValue),
}

/// Drives one machine until its path of the tree is complete, recursing at
/// branch forks. `μ` and `score` nodes accumulate as wrappers around the
/// eventual tip, exactly mirroring the old recursive substitution builder.
fn drive_tree(
    machine: &mut Machine<'_, GuardValue, RecMarker>,
    builder: &mut Builder,
    depth: usize,
    check: &mut dyn FnMut() -> Result<(), ()>,
) -> Result<ExecTree, TreeError> {
    if let Some(profile) = machine.profile() {
        profile.observe_frontier(depth);
    }
    let mut wraps: Vec<Wrap> = Vec::new();
    let mut charged = machine.steps();
    let tip = loop {
        // Trees are small (the global fuel is a safety valve, not a working
        // budget), so checking every event is cheap and keeps deadline
        // latency tight.
        check().map_err(|()| TreeError::Interrupted)?;
        // Charge this machine's progress against the global budget so that
        // runaway recursion in *any* branch exhausts construction as a whole.
        let now = machine.steps();
        let delta = now - charged;
        charged = now;
        if delta > builder.fuel {
            return Err(TreeError::BodyDidNotNormalise);
        }
        builder.fuel -= delta;
        machine.set_max_steps(now.saturating_add(builder.fuel));
        match machine.next_event() {
            Event::Done(_) => break ExecTree::Leaf,
            Event::OutOfFuel => return Err(TreeError::BodyDidNotNormalise),
            Event::Stuck(Stuck::FreeVariable(x)) => {
                return Err(TreeError::IllFormed(format!("free variable {x}")));
            }
            Event::Stuck(Stuck::NotAFunction(_)) => {
                return Err(TreeError::IllFormed(
                    "application of a non-function value".into(),
                ));
            }
            Event::Stuck(Stuck::NotANumeral(_)) => {
                return Err(TreeError::IllFormed(
                    "a function value reached a first-order position".into(),
                ));
            }
            Event::Sample => {
                let v = GuardValue::Var(builder.samples);
                builder.samples += 1;
                machine.resume_lit(v);
            }
            Event::PrimReady(p, args) => {
                // Constant-fold where possible.
                if args.iter().all(|v| v.as_const().is_some()) {
                    let concrete: Vec<Rational> =
                        args.iter().map(|v| v.as_const().unwrap().clone()).collect();
                    match p.eval(&concrete) {
                        Some(r) => machine.resume_lit(GuardValue::Const(r)),
                        None => break ExecTree::Stuck,
                    }
                } else {
                    machine.resume_lit(GuardValue::Prim(p, args.into_vec()));
                }
            }
            Event::BranchReady(guard) => {
                if let Some(r) = guard.as_const() {
                    let take_then = !r.is_positive();
                    machine.resume_branch(take_then);
                } else {
                    // Fork: this machine continues into the then-branch, the
                    // clone into the else-branch; Environment ids are
                    // assigned post-order, like the old builder.
                    let mut else_machine = machine.clone();
                    if let Some(profile) = machine.profile() {
                        profile.count_fork();
                    }
                    machine.resume_branch(true);
                    else_machine.resume_branch(false);
                    let then_tree = drive_tree(machine, builder, depth + 1, check)?;
                    let else_tree = drive_tree(&mut else_machine, builder, depth + 1, check)?;
                    if guard.mentions_unknown() {
                        let id = builder.env_nodes;
                        builder.env_nodes += 1;
                        break ExecTree::Env {
                            id,
                            guard,
                            then: Box::new(then_tree),
                            els: Box::new(else_tree),
                        };
                    }
                    break ExecTree::Prob {
                        guard,
                        then: Box::new(then_tree),
                        els: Box::new(else_tree),
                    };
                }
            }
            Event::ScoreReady(v) => {
                if let Some(r) = v.as_const() {
                    if r.is_negative() {
                        break ExecTree::Stuck;
                    }
                    machine.resume_lit(v);
                } else if v.mentions_unknown() {
                    // A score whose success depends on an unknown value: be
                    // conservative and treat the path as possibly failing.
                    break ExecTree::Stuck;
                } else {
                    wraps.push(Wrap::Score(v.clone()));
                    machine.resume_lit(v);
                }
            }
            // A recursive call `φ V`: a μ node whose outcome is unknown.
            Event::AtomApplied(RecMarker) => {
                wraps.push(Wrap::Mu);
                machine.resume_lit(GuardValue::Unknown);
            }
            Event::FixEncountered(_) => machine.resume_lit(GuardValue::Unknown),
        }
    };
    Ok(wraps.into_iter().rev().fold(tip, |tree, wrap| match wrap {
        Wrap::Mu => ExecTree::Mu(Box::new(tree)),
        Wrap::Score(value) => ExecTree::Score { value, rest: Box::new(tree) },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::catalog;
    use probterm_spcf::parse_term;

    #[test]
    fn affine_printer_tree_has_one_prob_node_and_one_mu() {
        let b = catalog::printer_affine(Rational::from_ratio(1, 2));
        let tree = build_tree(&b.term).unwrap();
        assert_eq!(tree.env_count, 0);
        assert_eq!(tree.sample_count, 1);
        assert_eq!(tree.tree.mu_node_count(), 1);
        assert_eq!(tree.tree.max_mu_per_path(), 1);
        let rendered = tree.tree.render();
        assert!(rendered.contains("prob"));
        assert!(rendered.contains("μ"));
    }

    #[test]
    fn nonaffine_printer_tree_has_two_mu_nodes_on_the_failure_path() {
        let b = catalog::printer_nonaffine(Rational::from_ratio(1, 2));
        let tree = build_tree(&b.term).unwrap();
        assert_eq!(tree.env_count, 0);
        assert_eq!(tree.tree.max_mu_per_path(), 2);
        assert_eq!(tree.tree.mu_node_count(), 2);
    }

    #[test]
    fn tired_printer_tree_matches_figure_6a() {
        // Ex. 5.1: one Environment node (the sig(x) branching), probabilistic
        // branches for the p-test and the fair choice, paths with 0, 2 and 3 μ nodes.
        let b = catalog::tired_printer(Rational::parse("0.6").unwrap());
        let tree = build_tree(&b.term).unwrap();
        assert_eq!(tree.env_count, 1);
        assert_eq!(tree.tree.max_mu_per_path(), 3);
        let rendered = tree.tree.render();
        assert!(rendered.contains("env#0"));
        assert!(rendered.contains("⊛"), "environment guard should mention ⊛: {rendered}");
    }

    #[test]
    fn error_reuse_printer_has_env_and_reused_sample() {
        let b = catalog::error_reuse_printer(Rational::parse("0.65").unwrap());
        let tree = build_tree(&b.term).unwrap();
        assert_eq!(tree.env_count, 1);
        assert_eq!(tree.tree.max_mu_per_path(), 3);
        // Samples: e, the sig-test sample, the e-test sample.
        assert_eq!(tree.sample_count, 3);
    }

    #[test]
    fn guards_on_the_argument_become_environment_nodes() {
        // The 1dRW guard x ≤ 0 depends on ⊛ and must be Environment-resolved.
        let b = catalog::random_walk_1d(Rational::from_ratio(1, 2), 1);
        let tree = build_tree(&b.term).unwrap();
        assert!(tree.env_count >= 1);
        assert!(tree.tree.max_mu_per_path() >= 1);
    }

    #[test]
    fn rejects_non_fixpoint_terms() {
        assert_eq!(
            build_tree(&parse_term("1 + 2").unwrap()),
            Err(TreeError::NotFirstOrderFixpoint)
        );
        let higher = parse_term("fix phi x. lam d. phi x d").unwrap();
        assert_eq!(build_tree(&higher), Err(TreeError::NotFirstOrderFixpoint));
    }

    #[test]
    fn stuck_scores_produce_stuck_leaves() {
        let t = parse_term("(fix phi x. if sample <= 1/2 then score(0-1) else phi x) 0").unwrap();
        let tree = build_tree(&t).unwrap();
        let rendered = tree.tree.render();
        assert!(rendered.contains("stuck"));
    }

    #[test]
    fn interruption_cancels_construction() {
        let b = catalog::tired_printer(Rational::parse("0.6").unwrap());
        let mut budget = 1usize;
        let result = try_build_tree(&b.term, &mut || {
            if budget == 0 {
                Err(())
            } else {
                budget -= 1;
                Ok(())
            }
        });
        assert_eq!(result, Err(TreeError::Interrupted));
        // An infallible check reproduces build_tree exactly.
        assert_eq!(
            try_build_tree(&b.term, &mut || Ok(())),
            build_tree(&b.term)
        );
    }

    #[test]
    fn guard_value_affine_views() {
        let g = GuardValue::Prim(
            Prim::Sub,
            vec![GuardValue::Var(0), GuardValue::Const(Rational::from_ratio(3, 5))],
        );
        let (coeffs, k) = g.as_affine(1).unwrap();
        assert_eq!(coeffs, vec![Rational::one()]);
        assert_eq!(k, Rational::from_ratio(-3, 5));
        assert!(!g.mentions_unknown());
        let h = GuardValue::Prim(Prim::Sub, vec![GuardValue::Var(0), GuardValue::Unknown]);
        assert!(h.mentions_unknown());
        assert!(h.as_affine(1).is_none());
        assert!(format!("{h}").contains("⊛"));
    }
}
