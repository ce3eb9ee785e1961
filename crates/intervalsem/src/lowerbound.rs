//! The lower-bound engine (paper §3 and §7.1).
//!
//! The engine combines
//!
//! 1. bounded stochastic symbolic execution ([`crate::symbolic`], running on
//!    the shared environment machine), which enumerates the (countably many)
//!    branching behaviours `κ ∈ {L,R}*` and the associated path constraints,
//!    with
//! 2. exact polytope volumes for affine path constraints and an adaptive
//!    box-splitting sweep (interval arithmetic) for the rest,
//!
//! to produce sound, monotonically improving lower bounds on the probability
//! of termination `Pterm(M)` and — via the step counts of each path — on the
//! expected number of reduction steps of terminating runs, exactly as
//! justified by soundness of the interval semantics (Theorem 3.4) and made
//! effective by its completeness (Theorem 3.8).
//!
//! Because every terminating symbolic path contributes *independently* sound
//! mass, the engine is an **anytime algorithm**: [`try_lower_bound`] can be
//! cancelled mid-exploration (the analysis service does so on `deadline_ms`)
//! and the bound computed so far is still valid — merely smaller than what a
//! completed run would certify.

use crate::symbolic::{
    frontier_seeds, try_explore_seeded, Exploration, ExplorationConfig, ReplaySeed, SymbolicPath,
};
use probterm_numerics::Rational;
use probterm_spcf::Term;
use probterm_telemetry::EngineProfile;
use std::time::{Duration, Instant};

/// How the volume contribution of one terminated symbolic path was computed.
///
/// Recorded per path by [`try_lower_bound`] and surfaced verbatim in the
/// provenance artifact ([`crate::provenance`]), so a reported bound can be
/// audited path by path. An interrupted sweep reports its sound partial sum
/// as `BoxSweep`; a sweep that certifies nothing reports volume 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeMethod {
    /// Exact polytope volume — the constraint system is affine.
    Exact,
    /// Adaptive box-splitting sweep with the given box budget: a sound lower
    /// bound on the region's volume, generally below the true volume.
    BoxSweep {
        /// The box budget the sweep ran with.
        max_boxes: usize,
    },
}

/// The volume contribution of one terminated path, aligned index-for-index
/// with `Exploration::terminated`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMeasure {
    /// The (sound lower bound on the) volume of the path region.
    pub volume: Rational,
    /// How `volume` was obtained.
    pub method: VolumeMethod,
}

/// What the engine tells its poll hook. Every interruptible engine entry
/// point ([`try_lower_bound`], [`crate::try_explore_seeded`],
/// [`crate::try_explain`]) calls one hook with one of these; a failing hook
/// stops the run, which still returns its sound partial result.
#[derive(Debug, Clone, Copy)]
pub enum Poll<'a> {
    /// Exploration progress, once before each path and every 256 work units
    /// within long paths: the monotone work counter, the number of paths
    /// waiting and the current path's step count.
    Explore {
        /// Monotone exploration work counter.
        work: usize,
        /// Paths waiting: those in the breadth-first queue plus the children
        /// of forks past the path budget, which never enter the queue
        /// because they would never be popped.
        frontier: usize,
        /// Small steps taken by the current path.
        depth: usize,
    },
    /// A box sweep is under way; sent every 64 boxes.
    Sweep,
    /// A terminated path's volume just landed (sent by [`try_lower_bound`]
    /// only, once per path, in `Exploration::terminated` order).
    Measured(&'a PathMeasure),
}

/// Configuration of the lower-bound computation.
///
/// All defaults live here; the CLI, the analysis service and the benchmark
/// harness derive their configurations through the `with_*` builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerBoundConfig {
    /// Exploration depth: the maximum number of small steps per symbolic path
    /// (the column `d` of Table 1).
    pub depth: usize,
    /// Maximum number of symbolic paths to process.
    pub max_paths: usize,
    /// Budget (number of boxes) for the splitting sweep on non-linear paths.
    pub boxes_per_path: usize,
    /// When `true`, the underlying exploration attaches a machine profile,
    /// reported in [`LowerBoundResult::profile`].
    pub profile: bool,
}

impl Default for LowerBoundConfig {
    fn default() -> Self {
        LowerBoundConfig { depth: 200, max_paths: 50_000, boxes_per_path: 2_000, profile: false }
    }
}

impl LowerBoundConfig {
    /// Builder: sets the exploration depth.
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Builder: sets the symbolic-path budget.
    #[must_use]
    pub fn with_max_paths(mut self, max_paths: usize) -> Self {
        self.max_paths = max_paths;
        self
    }

    /// Builder: sets the box budget of the splitting sweep per non-linear path.
    #[must_use]
    pub fn with_boxes_per_path(mut self, boxes_per_path: usize) -> Self {
        self.boxes_per_path = boxes_per_path;
        self
    }

    /// Builder: enables or disables machine profiling.
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// The exploration configuration this lower-bound configuration induces.
    pub fn exploration(&self) -> ExplorationConfig {
        ExplorationConfig::default()
            .with_max_steps_per_path(self.depth)
            .with_max_paths(self.max_paths)
            .with_profile(self.profile)
    }
}

/// The result of a lower-bound computation.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundResult {
    /// A sound lower bound on the probability of termination.
    pub probability: Rational,
    /// A sound lower bound on `Σ_{terminating traces} weight · steps`, i.e. on
    /// the expected number of reduction steps restricted to terminating runs
    /// (equals a lower bound on `Eterm` for AST programs, Thm. 3.4).
    pub expected_steps: Rational,
    /// Number of terminating symbolic paths found.
    pub paths: usize,
    /// Number of paths abandoned because the step budget ran out (or the
    /// computation was interrupted).
    pub unexplored_paths: usize,
    /// Number of stuck paths (score failures, domain errors).
    pub stuck_paths: usize,
    /// `true` when the poll hook of [`try_lower_bound`] cancelled the
    /// computation before it finished. The bounds are still sound — partial
    /// explorations only lose mass (Thm. 3.4).
    pub interrupted: bool,
    /// Monotonic elapsed time of the computation (measured on
    /// `std::time::Instant`).
    pub elapsed: Duration,
    /// Machine profile of the symbolic exploration, present iff
    /// [`LowerBoundConfig::profile`] was set.
    pub profile: Option<EngineProfile>,
}

impl LowerBoundResult {
    /// The lower bound rendered with `digits` decimal digits (truncated), the
    /// format used by Table 1.
    pub fn probability_decimal(&self, digits: usize) -> String {
        self.probability.to_decimal_string(digits)
    }
}

/// A paused lower-bound computation, complete enough to *resume*: the mass
/// accumulated so far (exact rationals) plus the replayable frontier — one
/// [`ReplaySeed`] per unexplored subtree. A resumed run explores exactly
/// those subtrees and adds its mass to the checkpointed tallies, so chaining
/// runs reproduces a from-scratch run at the combined budget with
/// exact-rational equality (the terminated paths partition identically), and
/// no measured path is ever re-explored.
///
/// The rationals and seeds round-trip through strings
/// ([`Rational`]'s `Display`/`parse`, [`ReplaySeed::render`]/`parse`), which
/// is how the analysis service stores checkpoints in partial-result cache
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundCheckpoint {
    /// Termination mass accumulated across all runs so far.
    pub probability: Rational,
    /// Expected-steps mass accumulated across all runs so far.
    pub expected_steps: Rational,
    /// Terminated (and measured) paths across all runs so far.
    pub paths: usize,
    /// Stuck paths across all runs so far.
    pub stuck_paths: usize,
    /// The unexplored frontier: replay seeds for every paused subtree. Empty
    /// iff the exploration ran to completion (nothing left to resume).
    pub frontier: Vec<ReplaySeed>,
}

/// Everything one [`try_lower_bound`] run produces.
#[derive(Debug, Clone)]
pub struct LowerBoundRun<E> {
    /// The (cumulative, when resumed) bound and tallies.
    pub result: LowerBoundResult,
    /// The checkpoint a later run resumes from.
    pub checkpoint: LowerBoundCheckpoint,
    /// This run's exploration: terminated paths, stuck tally, frontier.
    pub exploration: Exploration,
    /// One measure per path of `exploration.terminated`, index for index.
    pub measures: Vec<PathMeasure>,
    /// The poll hook's error, when it stopped the run.
    pub interruption: Option<E>,
}

/// Computes a lower bound on the termination probability of a closed SPCF
/// term under call-by-name evaluation.
///
/// # Examples
///
/// ```
/// use probterm_intervalsem::{lower_bound, LowerBoundConfig};
/// use probterm_numerics::Rational;
/// use probterm_spcf::parse_term;
///
/// let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
/// let result = lower_bound(&geo, &LowerBoundConfig::default().with_depth(120));
/// assert!(result.probability > Rational::from_ratio(99, 100));
/// assert!(result.probability < Rational::one());
/// ```
pub fn lower_bound(term: &Term, config: &LowerBoundConfig) -> LowerBoundResult {
    let run = try_lower_bound::<std::convert::Infallible>(term, config, None, &mut |_| Ok(()));
    debug_assert!(run.interruption.is_none());
    run.result
}

/// The lower-bound engine: [`lower_bound`] with a resume point and a poll
/// hook.
///
/// * `resume` — `Some(checkpoint)` continues an interrupted computation from
///   its saved frontier instead of recomputing from scratch. The result's
///   tallies are cumulative (they include the checkpointed mass), so a
///   resumed result reads exactly like a from-scratch one. `max_paths` is a
///   per-run safety valve and starts afresh each resume.
/// * `poll` — called at every cooperative poll point ([`Poll::Explore`],
///   [`Poll::Sweep`]) and once per terminated path the instant its volume
///   lands ([`Poll::Measured`]). When it fails the run stops with its error
///   and carries `interrupted: true` together with the **sound partial
///   bound** accumulated so far: every terminating path found before the
///   interruption certifies its probability mass (Thm. 3.4). Volumes are
///   measured inside the exploration loop, and even the non-affine box sweep
///   is interruptible mid-flight (its partial sum stays counted), so the
///   bound tightens monotonically in real time and the engine stops within
///   one poll interval of any step.
///
/// The returned measures are the very numbers the bound sums, which is what
/// makes the provenance artifact's per-path volumes add up *exactly* to
/// [`LowerBoundResult::probability`].
pub fn try_lower_bound<E>(
    term: &Term,
    config: &LowerBoundConfig,
    resume: Option<&LowerBoundCheckpoint>,
    poll: &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
) -> LowerBoundRun<E> {
    let start = Instant::now();
    let boxes_per_path = config.boxes_per_path;
    let mut measures: Vec<PathMeasure> = Vec::new();
    let mut on_terminated = |path: &SymbolicPath,
                             poll: &mut dyn FnMut(Poll<'_>) -> Result<(), E>|
     -> Result<(), E> {
        // An interrupted sweep keeps its partial sum: boxes already proven
        // inside the region are sound mass.
        let (measure, failed) = match path.exact_probability() {
            Some(volume) => (PathMeasure { volume, method: VolumeMethod::Exact }, None),
            None => {
                let (volume, failed) = path.try_box_lower_bound(boxes_per_path, poll);
                let method = VolumeMethod::BoxSweep { max_boxes: boxes_per_path };
                (PathMeasure { volume, method }, failed)
            }
        };
        let measured = poll(Poll::Measured(&measure));
        measures.push(measure);
        match failed {
            Some(e) => Err(e),
            None => measured,
        }
    };
    let seeds = resume.map(|c| c.frontier.as_slice());
    let (exploration, interruption) =
        try_explore_seeded(term, &config.exploration(), seeds, poll, &mut on_terminated);
    let mut probability = Rational::zero();
    let mut expected_steps = Rational::zero();
    for (path, measure) in exploration.terminated.iter().zip(&measures) {
        expected_steps += &measure.volume * &Rational::from_int(path.steps as i64);
        probability += measure.volume.clone();
    }
    let mut paths = exploration.terminated.len();
    let mut stuck = exploration.stuck;
    if let Some(prior) = resume {
        probability += prior.probability.clone();
        expected_steps += prior.expected_steps.clone();
        paths += prior.paths;
        stuck += prior.stuck_paths;
    }
    let checkpoint = LowerBoundCheckpoint {
        probability: probability.clone(),
        expected_steps: expected_steps.clone(),
        paths,
        stuck_paths: stuck,
        frontier: frontier_seeds(&exploration.frontier),
    };
    let result = LowerBoundResult {
        probability,
        expected_steps,
        paths,
        unexplored_paths: exploration.out_of_fuel,
        stuck_paths: stuck,
        interrupted: exploration.interrupted || interruption.is_some(),
        elapsed: start.elapsed(),
        profile: exploration.profile.clone(),
    };
    LowerBoundRun { result, checkpoint, exploration, measures, interruption }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchPath;
    use probterm_spcf::catalog;
    use probterm_spcf::parse_term;

    fn lb(src: &str, depth: usize) -> LowerBoundResult {
        let term = parse_term(src).unwrap();
        lower_bound(&term, &LowerBoundConfig::default().with_depth(depth))
    }

    #[test]
    fn deterministic_terms_get_probability_one() {
        let r = lb("1 + 2", 50);
        assert_eq!(r.probability, Rational::one());
        assert_eq!(r.paths, 1);
        assert_eq!(r.unexplored_paths, 0);
        assert!(!r.interrupted);
    }

    #[test]
    fn diverging_terms_get_probability_zero() {
        let r = lb("(fix phi x. phi x) 0", 100);
        assert_eq!(r.probability, Rational::zero());
        assert_eq!(r.paths, 0);
        assert!(r.unexplored_paths > 0);
    }

    #[test]
    fn geometric_lower_bounds_approach_one() {
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let shallow = lb(geo, 40);
        let deep = lb(geo, 120);
        assert!(shallow.probability < deep.probability);
        assert!(deep.probability < Rational::one());
        assert!(deep.probability > Rational::from_ratio(999, 1000));
        // The expected-steps lower bound is positive and grows with depth.
        assert!(deep.expected_steps > shallow.expected_steps);
        assert!(deep.expected_steps > Rational::from_int(3));
    }

    #[test]
    fn fifty_fifty_divergence_is_bounded_by_half() {
        let r = lb("if sample <= 1/2 then 0 else (fix phi x. phi x) 0", 200);
        assert_eq!(r.probability, Rational::from_ratio(1, 2));
    }

    #[test]
    fn exp_guards_past_f64_max_still_decide_boxes() {
        // exp(1000·α) overflows f64 for α > ln(f64::MAX)/1000 ≈ 0.7097; the
        // enclosure's upper end there is a power of two, which still decides
        // the boxes. Pterm = 1.
        let r = lb("if exp (1000 * sample) <= 5 then 0 else 1", 10);
        assert!(r.probability >= Rational::from_ratio(99, 100), "bound {}", r.probability);
        assert!(r.probability <= Rational::one());
        // The diverging variant terminates exactly when α ≤ ln 5 / 1000 =
        // 0.00160943791243410037…; the bound stays below that.
        let r = lb("if exp (1000 * sample) <= 5 then 0 else (fix f x. f x) 0", 10);
        assert!(r.probability <= Rational::parse("0.0016094379124341003").unwrap());
        assert!(r.probability >= Rational::parse("0.0016").unwrap(), "bound {}", r.probability);
    }

    #[test]
    fn log_guards_near_one_stay_below_the_termination_probability() {
        // With ε = 3/2⁵³ and c = 3.5/2⁵³, log(1 + ε + α·ε) ≈ ε·(1 + α) is
        // ≤ c exactly when α ≤ 1/6, so the program terminates with
        // probability 5/6. Rounding 1 + ε to the nearest float (1 + 4/2⁵³)
        // put the whole guard above c and the bound at 1.
        let src = "if log (1 + 3/9007199254740992 + sample * (3/9007199254740992)) \
                   <= 7/18014398509481984 then (fix f x. f x) 0 else 0";
        for depth in [10, 20, 50] {
            let r = lb(src, depth);
            assert!(
                r.probability <= Rational::from_ratio(5, 6),
                "depth {depth}: bound {} is above Pterm = 5/6",
                r.probability
            );
        }
    }

    #[test]
    fn results_undefined_by_log_do_not_count_as_termination() {
        // A result holding `log(V)` is stuck wherever `V ≤ 0`, so it
        // terminates only where `V > 0`. Counting every such path as
        // terminated put the first bound at 1 and the last at 0.9755.
        let r = lb("log (sample - 2)", 20);
        assert_eq!(r.probability, Rational::zero());
        let r = lb("1 + log (sample - 1/2)", 20);
        assert_eq!(r.probability, Rational::half());
        // Terminates iff α₀·α₁ > 1/2: Pterm = (1 − ln 2)/2 ≈ 0.153426409720027345.
        let r = lb("if sample * sample <= 1/2 then log (sample - 2) else 0", 20);
        assert!(
            r.probability <= Rational::parse("0.15342640972002735").unwrap(),
            "bound {} is above Pterm",
            r.probability
        );
        assert!(r.probability >= Rational::parse("0.15").unwrap(), "bound {}", r.probability);
    }

    #[test]
    fn nonaffine_printer_quarter_converges_to_one_third() {
        // Ex. 1.1 (2) with p = 1/4 has Pterm = 1/3 (CbN and CbV agree for this term).
        let b = catalog::printer_nonaffine(Rational::from_ratio(1, 4));
        let r = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(80));
        assert!(r.probability < Rational::from_ratio(1, 3));
        assert!(
            r.probability > Rational::from_ratio(29, 100),
            "lower bound too weak: {}",
            r.probability
        );
    }

    #[test]
    fn triangle_example_gets_exact_volumes_per_path() {
        let b = catalog::triangle_example();
        let r = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(80));
        // The first path alone contributes exactly 1/2; deeper paths add more.
        assert!(r.probability >= Rational::from_ratio(1, 2));
        assert!(r.probability < Rational::one());
        assert!(r.probability > Rational::from_ratio(7, 10));
    }

    #[test]
    fn bounds_are_sound_wrt_known_probabilities() {
        // For every Table 1 benchmark with a known Pterm, the computed bound
        // never exceeds it (soundness, Thm. 3.4). Kept to modest depths so the
        // test stays fast; the bench harness pushes depths much further.
        for b in catalog::table1_benchmarks() {
            if matches!(b.name.as_str(), "pedestrian") {
                continue; // slower: exercised in the bench harness and integration tests
            }
            let r = lower_bound(&b.term, &LowerBoundConfig::default().with_depth(35));
            if let Some(expected) = b.expected_pterm {
                assert!(
                    r.probability.to_f64() <= expected + 1e-9,
                    "{}: lower bound {} exceeds true probability {}",
                    b.name,
                    r.probability.to_f64(),
                    expected
                );
            }
            assert!(r.probability >= Rational::zero());
        }
    }

    #[test]
    fn decimal_rendering_matches_table_format() {
        let r = lb("if sample <= 1/3 then 0 else 1", 50);
        assert_eq!(r.probability, Rational::one());
        assert_eq!(r.probability_decimal(10), "1.0000000000");
    }

    #[test]
    fn interrupted_lower_bounds_are_nonzero_sound_partials() {
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(300);
        let full = lower_bound(&geo, &config);
        // Cancel after a small fixed amount of exploration work.
        let mut budget = 8usize;
        let LowerBoundRun { result: partial, interruption: err, .. } =
            try_lower_bound(&geo, &config, None, &mut |_| {
                if budget == 0 {
                    Err("deadline exceeded")
                } else {
                    budget -= 1;
                    Ok(())
                }
            });
        assert_eq!(err, Some("deadline exceeded"));
        assert!(partial.interrupted);
        assert!(partial.probability > Rational::zero(), "partial bound must be nonzero");
        // Every path that terminated before the cutoff is affine here, so the
        // partial must carry the mass of all of them, not just the first.
        assert!(partial.paths > 1, "all exactly-measurable terminated paths count");
        assert!(partial.probability <= full.probability, "partial bounds are monotone");
        assert!(partial.expected_steps <= full.expected_steps);
        // Builders: defaults live in exactly one place.
        assert_eq!(
            LowerBoundConfig::default().with_depth(300),
            LowerBoundConfig { depth: 300, ..Default::default() }
        );
        assert_eq!(config.exploration().max_steps_per_path, 300);
        assert_eq!(config.exploration().max_paths, config.max_paths);
    }

    #[test]
    fn resumed_runs_equal_from_scratch_runs_exactly() {
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(200).with_profile(true);
        let full = lower_bound(&geo, &config);
        // Interrupt early, then resume to completion from the checkpoint.
        let mut budget = 10usize;
        let LowerBoundRun { result: partial, checkpoint, interruption: err, .. } =
            try_lower_bound(&geo, &config, None, &mut |poll| {
                // Spend the budget on exploration and sweep polls only.
                if matches!(poll, Poll::Measured(_)) {
                    return Ok(());
                }
                if budget == 0 {
                    Err("deadline exceeded")
                } else {
                    budget -= 1;
                    Ok(())
                }
            });
        assert_eq!(err, Some("deadline exceeded"));
        assert!(partial.interrupted);
        assert!(!checkpoint.frontier.is_empty(), "interrupted run must leave a frontier");
        assert_eq!(checkpoint.probability, partial.probability);
        let LowerBoundRun { result: resumed, checkpoint: done, interruption: err2, .. } =
            try_lower_bound::<std::convert::Infallible>(
                &geo,
                &config,
                Some(&checkpoint),
                &mut |_| Ok(()),
            );
        assert!(err2.is_none());
        assert!(!resumed.interrupted);
        // What is left to resume is exactly what a from-scratch run leaves:
        // the fuel-exhausted leaves at depth 200 (geo never fully explores).
        assert_eq!(resumed.unexplored_paths, full.unexplored_paths);
        assert_eq!(done.frontier.len(), full.unexplored_paths);
        // Exact-rational equality with the from-scratch run at the same
        // depth: the two runs' terminated paths partition identically.
        assert_eq!(resumed.probability, full.probability);
        assert_eq!(resumed.expected_steps, full.expected_steps);
        assert_eq!(resumed.paths, full.paths);
        assert_eq!(resumed.stuck_paths, full.stuck_paths);
        // Monotone tightening: the resumed bound dominates the partial.
        assert!(partial.probability < resumed.probability);
        // No re-exploration of measured paths: the resumed run's machine
        // steps (replay + new work) stay strictly below a from-scratch run.
        let full_steps = full.profile.as_ref().expect("profile on").steps;
        let resumed_steps = resumed.profile.as_ref().expect("profile on").steps;
        assert!(
            resumed_steps < full_steps,
            "resume re-explored measured paths: {resumed_steps} vs {full_steps} steps"
        );
    }

    #[test]
    fn resumes_from_seeds_past_128_branches_equal_from_scratch_runs() {
        // Geo's one open path takes a branch per recursion, so at depth
        // 4,000 the frontier lies past the 128 decisions a path keeps inline.
        // Cut a run there, cut its resumption again while it is still
        // replaying that deep seed, then resume to the end: the tallies must
        // equal a from-scratch run's exactly.
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(4_000).with_profile(true);
        let full = lower_bound(&geo, &config);
        // The first run stops at the first poll past 2,000 steps deep; the
        // second at its second poll, 256 steps into the replay.
        let mut deep = |poll: Poll<'_>| match poll {
            Poll::Explore { depth, .. } if depth > 2_000 => Err(()),
            _ => Ok(()),
        };
        let first = try_lower_bound(&geo, &config, None, &mut deep);
        assert!(first.interruption.is_some());
        let seed = &first.checkpoint.frontier[0];
        assert!(seed.branches.len() > 200, "seed only {} branches deep", seed.branches.len());
        let mut polls = 0;
        let mut early = |poll: Poll<'_>| {
            polls += usize::from(matches!(poll, Poll::Explore { .. }));
            if polls == 2 {
                Err(())
            } else {
                Ok(())
            }
        };
        let second = try_lower_bound(&geo, &config, Some(&first.checkpoint), &mut early);
        assert!(second.interruption.is_some());
        // Cut mid-replay, the path still names its whole seed.
        let branches = |c: &LowerBoundCheckpoint| -> Vec<BranchPath> {
            c.frontier.iter().map(|seed| seed.branches.clone()).collect()
        };
        assert!(second.checkpoint.frontier[0].steps < seed.steps);
        assert_eq!(branches(&second.checkpoint), branches(&first.checkpoint));
        let third = try_lower_bound::<std::convert::Infallible>(
            &geo,
            &config,
            Some(&second.checkpoint),
            &mut |_| Ok(()),
        );
        assert!(third.interruption.is_none());
        let resumed = &third.result;
        assert_eq!(resumed.probability, full.probability);
        assert_eq!(resumed.expected_steps, full.expected_steps);
        assert_eq!(resumed.paths, full.paths);
        assert_eq!(resumed.stuck_paths, full.stuck_paths);
        assert_eq!(resumed.unexplored_paths, full.unexplored_paths);
        let scratch = try_lower_bound::<std::convert::Infallible>(
            &geo,
            &config,
            None,
            &mut |_| Ok(()),
        );
        assert_eq!(third.checkpoint.frontier, scratch.checkpoint.frontier);
    }

    #[test]
    fn exhausted_frontier_seeds_short_circuit_without_replay() {
        // Depth-limited run: every frontier path exhausted its fuel. Resuming
        // at the same depth must not grind through the replays — the seeds
        // are re-tallied directly and the result matches the original run.
        let geo = parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config = LowerBoundConfig::default().with_depth(40).with_profile(true);
        let LowerBoundRun { result: first, checkpoint, interruption: err, .. } =
            try_lower_bound::<std::convert::Infallible>(&geo, &config, None, &mut |_| Ok(()));
        assert!(err.is_none());
        assert!(!checkpoint.frontier.is_empty(), "depth 40 leaves out-of-fuel paths");
        let LowerBoundRun { result: again, checkpoint: checkpoint2, interruption: err2, .. } =
            try_lower_bound::<std::convert::Infallible>(
                &geo,
                &config,
                Some(&checkpoint),
                &mut |_| Ok(()),
            );
        assert!(err2.is_none());
        // No new mass at the same depth; the frontier survives verbatim.
        assert_eq!(again.probability, first.probability);
        assert_eq!(checkpoint2.frontier, checkpoint.frontier);
        // Short-circuit: no machine ran at all in the resumed pass.
        assert_eq!(again.profile.as_ref().expect("profile on").steps, 0);
    }
}
