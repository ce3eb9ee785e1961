//! Differential harness for symbolic exploration: the environment-machine
//! explorer must agree *exactly* with the substitution-based reference
//! stepper (`explore_substitution`) — same terminated paths in the same
//! order, with identical branch oracles, path constraints, sample counts and
//! step counts, and identical out-of-fuel/stuck tallies — across the whole
//! benchmark catalogue and on randomly generated closed terms.
//!
//! This mirrors `crates/spcf/tests/machine_differential.rs`, which plays the
//! same game for the concrete evaluator.

use probterm_intervalsem::{
    explore, explore_substitution, frontier_seeds, try_explore_seeded, Branch, BranchPath,
    ConstraintKind, Exploration, ExplorationConfig, FrontierPath, Poll, ReplaySeed, SymConstraint,
    SymValue, SymbolicPath,
};
use probterm_numerics::Rational;
use probterm_spcf::absmachine::{DomainSpec, Event, Machine, NoAtom};
use probterm_spcf::{catalog, Prim, Strategy, Term};
use probterm_telemetry::ProfileCell;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::rc::Rc;

fn assert_explorations_agree(name: &str, term: &Term, config: &ExplorationConfig) {
    let machine = explore(term, config);
    let reference = explore_substitution(term, config);
    assert_eq!(
        machine.terminated.len(),
        reference.terminated.len(),
        "{name}: terminated path count differs (machine {} vs reference {})",
        machine.terminated.len(),
        reference.terminated.len()
    );
    for (index, (m, r)) in machine
        .terminated
        .iter()
        .zip(reference.terminated.iter())
        .enumerate()
    {
        assert_eq!(m.branches, r.branches, "{name}: path {index} oracle differs");
        assert_eq!(
            m.constraints, r.constraints,
            "{name}: path {index} constraints differ"
        );
        assert_eq!(
            m.sample_count, r.sample_count,
            "{name}: path {index} sample count differs"
        );
        assert_eq!(m.steps, r.steps, "{name}: path {index} step count differs");
        assert_eq!(m.result, r.result, "{name}: path {index} result differs");
    }
    assert_eq!(machine, reference, "{name}: explorations differ");
}

#[test]
fn whole_catalogue_agrees_at_several_depths() {
    let mut all = catalog::table1_benchmarks();
    all.extend(catalog::table2_benchmarks());
    all.push(catalog::triangle_example());
    for b in &all {
        // Pedestrian explodes combinatorially with depth; keep it shallower.
        let depths: &[usize] = if b.name == "pedestrian" { &[12, 25] } else { &[12, 35] };
        for &depth in depths {
            let config = ExplorationConfig::default()
                .with_max_steps_per_path(depth)
                .with_max_paths(4_000);
            assert_explorations_agree(&format!("{} @ depth {depth}", b.name), &b.term, &config);
        }
    }
}

#[test]
fn path_weights_agree_on_recursive_examples() {
    // Paths being equal, their measured probabilities (the weights that feed
    // the lower-bound engine) must be equal too — checked explicitly on the
    // catalogue's recursive workhorses.
    for (name, term, depth) in [
        ("geometric", catalog::geometric(Rational::from_ratio(1, 2)).term, 60),
        ("triangle", catalog::triangle_example().term, 30),
        (
            "printer_nonaffine",
            catalog::printer_nonaffine(Rational::from_ratio(1, 2)).term,
            30,
        ),
    ] {
        let config = ExplorationConfig::default()
            .with_max_steps_per_path(depth)
            .with_max_paths(4_000);
        let machine = explore(&term, &config);
        let reference = explore_substitution(&term, &config);
        let machine_mass: Rational = machine.terminated.iter().map(|p| p.probability(400)).sum();
        let reference_mass: Rational =
            reference.terminated.iter().map(|p| p.probability(400)).sum();
        assert_eq!(machine_mass, reference_mass, "{name}: certified mass differs");
        assert!(machine_mass > Rational::zero(), "{name}: no mass certified");
    }
}

#[test]
fn max_paths_cutoff_is_taken_at_the_same_point() {
    // The breadth-first processing order must match, so the path-budget
    // safety valve abandons exactly the same frontier.
    let gr = catalog::golden_ratio().term;
    let config = ExplorationConfig::default()
        .with_max_steps_per_path(60)
        .with_max_paths(25);
    assert_explorations_agree("golden_ratio (tight path budget)", &gr, &config);
    let cut = explore(&gr, &config);
    assert!(cut.out_of_fuel > 0, "the tight budget must actually cut");
}

#[test]
fn budget_sweep_matches_a_queue_of_every_child() {
    // Past the path budget the engine writes a fork's children straight into
    // the frontier instead of queueing them. Across budgets small enough to
    // cut at every point of the tree (including the fork where one child is
    // still reachable and one is not), the result must equal the reference
    // stepper's, and fresh, interrupted and resumed runs must equal those of
    // an explorer that queues every child: frontier order, `Poll::Explore`
    // sequence and profile counters included.
    let mut all = catalog::table1_benchmarks();
    all.extend(catalog::table2_benchmarks());
    all.push(catalog::triangle_example());
    for b in &all {
        let depths: &[usize] = if b.name == "pedestrian" { &[12, 25] } else { &[12, 35] };
        for &depth in depths {
            for max_paths in [1, 2, 3, 4, 7, 25, 64, 65, 500] {
                let config = ExplorationConfig::default()
                    .with_max_steps_per_path(depth)
                    .with_max_paths(max_paths);
                let name = format!("{} @ depth {depth}, max_paths {max_paths}", b.name);
                assert_explorations_agree(&name, &b.term, &config);
                assert_runs_match_a_queue_of_every_child(
                    &name,
                    &b.term,
                    &config.with_profile(true),
                );
            }
        }
    }
}

/// Where a run is cut short: never, at the `j`-th `Poll::Explore` (1-based),
/// or by an `on_terminated` failure at the `k`-th terminated path.
#[derive(Debug, Clone, Copy)]
enum Cut {
    Never,
    Poll(usize),
    Terminated(usize),
}

/// The `(work, frontier, depth)` of every `Poll::Explore` a run sent.
type Polls = Vec<(usize, usize, usize)>;

/// Runs `run` with a poll hook and a termination hook that fail at `cut`,
/// recording the polls.
fn with_cut(
    cut: Cut,
    run: impl FnOnce(
        &mut dyn FnMut(Poll<'_>) -> Result<(), ()>,
        &mut dyn FnMut(&SymbolicPath) -> Result<(), ()>,
    ) -> Exploration,
) -> (Exploration, Polls) {
    let mut polls = Vec::new();
    let mut terminated = 0usize;
    let exploration = run(
        &mut |poll| {
            let Poll::Explore { work, frontier, depth } = poll else {
                panic!("exploration sent a non-exploration poll")
            };
            polls.push((work, frontier, depth));
            match cut {
                Cut::Poll(j) if polls.len() == j => Err(()),
                _ => Ok(()),
            }
        },
        &mut |_| {
            terminated += 1;
            match cut {
                Cut::Terminated(k) if terminated == k => Err(()),
                _ => Ok(()),
            }
        },
    );
    (exploration, polls)
}

fn engine_run(
    term: &Term,
    config: &ExplorationConfig,
    seeds: Option<&[ReplaySeed]>,
    cut: Cut,
) -> (Exploration, Polls) {
    with_cut(cut, |check, on_terminated| {
        let (exploration, interrupted) =
            try_explore_seeded(term, config, seeds, check, &mut |path, _| on_terminated(path));
        assert_eq!(interrupted.is_some(), exploration.interrupted);
        exploration
    })
}

fn reference_run(
    term: &Term,
    config: &ExplorationConfig,
    seeds: Option<&[ReplaySeed]>,
    cut: Cut,
) -> (Exploration, Polls) {
    with_cut(cut, |check, on_terminated| {
        explore_queueing_every_child(term, config, seeds, check, on_terminated)
    })
}

fn assert_runs_match_a_queue_of_every_child(name: &str, term: &Term, config: &ExplorationConfig) {
    let seeds_of = |e: &Exploration| -> Vec<String> {
        frontier_seeds(&e.frontier).iter().map(ReplaySeed::render).collect()
    };
    let assert_same = |label: &str, seeds: Option<&[ReplaySeed]>, cut: Cut| {
        let (engine, engine_polls) = engine_run(term, config, seeds, cut);
        let (reference, reference_polls) = reference_run(term, config, seeds, cut);
        assert_eq!(seeds_of(&engine), seeds_of(&reference), "{name}, {label}: seeds differ");
        assert_eq!(engine_polls, reference_polls, "{name}, {label}: polls differ");
        assert_eq!(engine, reference, "{name}, {label}: explorations differ");
        (engine, engine_polls.len())
    };
    let (fresh, poll_count) = assert_same("fresh", None, Cut::Never);
    let seeds = frontier_seeds(&fresh.frontier);
    assert_same("resumed from the budget cut", Some(&seeds), Cut::Never);
    let mut cuts: Vec<Cut> = [1, 2, 3, poll_count / 2, poll_count]
        .into_iter()
        .filter(|&j| j >= 1 && j <= poll_count)
        .map(Cut::Poll)
        .collect();
    cuts.extend(
        [1, fresh.terminated.len()]
            .into_iter()
            .filter(|&k| k >= 1 && k <= fresh.terminated.len())
            .map(Cut::Terminated),
    );
    for cut in cuts {
        let label = format!("cut at {cut:?}");
        let (interrupted, _) = assert_same(&label, None, cut);
        assert!(interrupted.interrupted, "{name}, {label}: the run was not interrupted");
        let seeds = frontier_seeds(&interrupted.frontier);
        assert_same(&format!("resumed after {label}"), Some(&seeds), Cut::Never);
    }
}

/// One path of [`explore_queueing_every_child`]: a paused machine, its
/// sample counter and history, and the pending replay of its seed.
struct QueuedPath<'a> {
    machine: Machine<'a, SymValue, NoAtom>,
    samples: usize,
    branches: Vec<Branch>,
    constraints: Vec<SymConstraint>,
    replay: Option<(BranchPath, usize)>,
}

impl QueuedPath<'_> {
    fn next_replayed(&mut self) -> Option<Branch> {
        let (seed, consumed) = self.replay.as_mut()?;
        let branch = seed.get(*consumed).expect("an unconsumed decision");
        *consumed += 1;
        if *consumed == seed.len() {
            self.replay = None;
        }
        Some(branch)
    }

    fn decide(&mut self, branch: Branch, guard: SymValue) {
        let take_then = branch == Branch::Then;
        self.machine.resume_branch(take_then);
        self.branches.push(branch);
        let kind = if take_then { ConstraintKind::NonPositive } else { ConstraintKind::Positive };
        self.constraints.push(SymConstraint { value: guard, kind });
    }

    fn into_frontier(self) -> FrontierPath {
        let branches = match self.replay {
            Some((seed, _)) => seed,
            None => self.branches.into_iter().collect(),
        };
        FrontierPath { steps: self.machine.steps(), branches }
    }
}

/// The engine's breadth-first exploration as it was before budget-aware
/// forks: every fork clones the machine and queues both children, even
/// those the path budget will cut before they are stepped. Histories are
/// plain vectors. The oracle for the engine's frontier order, polls and
/// profile.
fn explore_queueing_every_child<'t>(
    term: &'t Term,
    config: &ExplorationConfig,
    seeds: Option<&[ReplaySeed]>,
    check: &mut dyn FnMut(Poll<'_>) -> Result<(), ()>,
    on_terminated: &mut dyn FnMut(&SymbolicPath) -> Result<(), ()>,
) -> Exploration {
    let spec = DomainSpec {
        strategy: Strategy::CallByName,
        lit_of_num: |r: &Rational| SymValue::Const(r.clone()),
        atom_of_free: None,
        opaque_fix: false,
        value_first: true,
    };
    let profile = config.profile.then(ProfileCell::shared);
    let new_path = |replay: Option<(BranchPath, usize)>| {
        let mut machine = Machine::new(spec, term, config.max_steps_per_path);
        if let Some(cell) = &profile {
            machine.set_profile(Rc::clone(cell));
        }
        QueuedPath { machine, samples: 0, branches: Vec::new(), constraints: Vec::new(), replay }
    };
    let mut result = Exploration {
        terminated: Vec::new(),
        out_of_fuel: 0,
        frontier: Vec::new(),
        stuck: 0,
        interrupted: false,
        profile: None,
    };
    let mut queue: VecDeque<QueuedPath<'t>> = VecDeque::new();
    for seed in seeds.unwrap_or(&[]) {
        if seed.steps >= config.max_steps_per_path {
            result.out_of_fuel += 1;
            result
                .frontier
                .push(FrontierPath { steps: seed.steps, branches: seed.branches.clone() });
        } else {
            queue.push_back(new_path(
                (!seed.branches.is_empty()).then(|| (seed.branches.clone(), 0)),
            ));
        }
    }
    if seeds.is_none() {
        queue.push_back(new_path(None));
    }
    let mut processed = 0usize;
    let mut work = 0usize;
    'exploration: while let Some(mut path) = queue.pop_front() {
        processed += 1;
        if processed > config.max_paths {
            result.out_of_fuel += 1;
            result.frontier.push(path.into_frontier());
            break;
        }
        let poll = Poll::Explore { work, frontier: queue.len(), depth: path.machine.steps() };
        if check(poll).is_err() {
            result.interrupted = true;
            result.out_of_fuel += 1;
            result.frontier.push(path.into_frontier());
            break;
        }
        loop {
            work += 1;
            if work % 256 == 0 {
                let poll =
                    Poll::Explore { work, frontier: queue.len(), depth: path.machine.steps() };
                if check(poll).is_err() {
                    result.interrupted = true;
                    result.out_of_fuel += 1;
                    result.frontier.push(path.into_frontier());
                    break 'exploration;
                }
            }
            match path.machine.next_event() {
                Event::Done(value) => {
                    let result_value = value.into_lit();
                    let mut constraints = path.constraints.clone();
                    if let Some(v) = &result_value {
                        v.push_domain_constraints(&mut constraints);
                    }
                    let terminated = SymbolicPath {
                        sample_count: path.samples,
                        branches: path.branches.clone(),
                        constraints,
                        steps: path.machine.steps(),
                        result: result_value,
                    };
                    let hooked = on_terminated(&terminated);
                    result.terminated.push(terminated);
                    if hooked.is_err() {
                        result.interrupted = true;
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
                Event::PrimReady(p, args) => {
                    if args.iter().all(SymValue::is_constant) {
                        let concrete: Option<Vec<Rational>> =
                            args.iter().map(|v| v.eval(&[])).collect();
                        match concrete.and_then(|c| p.eval(&c)) {
                            Some(r) => path.machine.resume_lit(SymValue::Const(r)),
                            None => {
                                result.stuck += 1;
                                break;
                            }
                        }
                    } else {
                        path.machine.resume_lit(SymValue::Prim(p, args.into_vec()));
                    }
                }
                Event::BranchReady(guard) => {
                    if let SymValue::Const(r) = &guard {
                        path.machine.resume_branch(!r.is_positive());
                    } else if let Some(branch) = path.next_replayed() {
                        path.decide(branch, guard);
                    } else {
                        let mut else_path = QueuedPath {
                            machine: path.machine.clone(),
                            samples: path.samples,
                            branches: path.branches.clone(),
                            constraints: path.constraints.clone(),
                            replay: None,
                        };
                        path.decide(Branch::Then, guard.clone());
                        else_path.decide(Branch::Else, guard);
                        queue.push_back(path);
                        queue.push_back(else_path);
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
                        path.constraints.push(SymConstraint {
                            value: v.clone(),
                            kind: ConstraintKind::NonNegative,
                        });
                        path.machine.resume_lit(v);
                    }
                },
                Event::AtomApplied(atom) => match atom {},
                Event::FixEncountered(_) => unreachable!("opaque_fix is off"),
            }
        }
    }
    result.out_of_fuel += queue.len();
    result.frontier.extend(queue.drain(..).map(QueuedPath::into_frontier));
    result.profile = profile.as_ref().map(|cell| cell.snapshot());
    result
}

// ----------------------------------------------------------------- proptest

/// Binder-name pool (shadowing on purpose, as in the spcf roundtrip tests).
const POOL: [&str; 4] = ["x", "y", "phi", "acc"];

/// Generates a random *closed* term with at most `depth` nested constructors
/// (variables are only drawn from the enclosing scope).
fn random_term(rng: &mut StdRng, depth: usize, scope: &mut Vec<String>) -> Term {
    let choice = if depth == 0 { rng.gen_range(0usize..3) } else { rng.gen_range(0usize..9) };
    match choice {
        0 => Term::Num(random_ratio(rng)),
        1 => Term::Sample,
        2 => {
            if scope.is_empty() {
                Term::Num(random_ratio(rng))
            } else {
                let index = rng.gen_range(0usize..scope.len());
                Term::var(&scope[index])
            }
        }
        3 => {
            let name = POOL[rng.gen_range(0usize..POOL.len())];
            scope.push(name.to_string());
            let body = random_term(rng, depth - 1, scope);
            scope.pop();
            Term::lam(name, body)
        }
        4 => {
            let f = POOL[rng.gen_range(0usize..POOL.len())];
            let x = POOL[rng.gen_range(0usize..POOL.len())];
            scope.push(f.to_string());
            scope.push(x.to_string());
            let body = random_term(rng, depth - 1, scope);
            scope.pop();
            scope.pop();
            Term::fix(f, x, body)
        }
        5 => Term::app(
            random_term(rng, depth - 1, scope),
            random_term(rng, depth - 1, scope),
        ),
        6 => Term::ite(
            random_term(rng, depth - 1, scope),
            random_term(rng, depth - 1, scope),
            random_term(rng, depth - 1, scope),
        ),
        7 => Term::score(random_term(rng, depth - 1, scope)),
        _ => {
            let prims = [
                Prim::Add,
                Prim::Sub,
                Prim::Mul,
                Prim::Neg,
                Prim::Abs,
                Prim::Min,
                Prim::Max,
                Prim::Exp,
                Prim::Log,
                Prim::Sig,
                Prim::Floor,
            ];
            let prim = prims[rng.gen_range(0usize..prims.len())];
            let args = (0..prim.arity())
                .map(|_| random_term(rng, depth - 1, scope))
                .collect();
            Term::Prim(prim, args)
        }
    }
}

fn random_ratio(rng: &mut StdRng) -> Rational {
    Rational::from_ratio(rng.gen_range(-20i64..21), rng.gen_range(1i64..8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Machine and substitution explorations agree on random closed terms,
    /// including stuck shapes, duplicated thunks and nested fixpoints.
    #[test]
    fn random_closed_terms_explore_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = 2 + (seed % 4) as usize;
        let term = random_term(&mut rng, depth, &mut Vec::new());
        let config = ExplorationConfig::default()
            .with_max_steps_per_path(40)
            .with_max_paths(1_500);
        let machine = explore(&term, &config);
        let reference = explore_substitution(&term, &config);
        prop_assert_eq!(machine, reference, "seed {} on `{}`", seed, term);
    }
}
