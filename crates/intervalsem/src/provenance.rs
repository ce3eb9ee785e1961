//! Analysis provenance: an auditable per-path account of a lower bound.
//!
//! `probterm lower` reports a single rational; this module explains it. A
//! [`Provenance`] attributes the reported probability mass path by path —
//! branch-constraint chain, terminal verdict, exact-vs-box volume method and
//! the exact rational contribution — and summarises what a partial run still
//! has in flight (paused machines, their depth histogram, and the
//! `unaccounted_mass` gap `1 − Σ attributed volumes`).
//!
//! Attribution is *by construction* exact: the provenance layer runs the same
//! measuring loop as the lower-bound engine
//! ([`crate::try_lower_bound`]), so the per-path volumes are the very
//! rationals whose sum is [`LowerBoundResult::probability`] — the soundness
//! suite asserts `Rational` equality, not float closeness.
//!
//! Additionally, every terminating path is backed by a **replayable
//! witness**: a concrete sample vector chosen inside the path's
//! polytope/interval region ([`SymbolicPath::find_witness`]) and re-executed
//! by the concrete CEK machine ([`probterm_spcf::terminates_on_trace`]). A
//! path whose witness replays to termination is a machine-checked claim, not
//! just a symbolic one.

use crate::lowerbound::{
    try_lower_bound, LowerBoundConfig, LowerBoundResult, LowerBoundRun, Poll, VolumeMethod,
};
use crate::symbolic::{Branch, FrontierPath, SymConstraint, SymValue, SymbolicPath};
use probterm_numerics::Rational;
use probterm_spcf::{terminates_on_trace, FixedTrace, Strategy, Term};

/// Configuration of a provenance computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainConfig {
    /// The lower-bound configuration the attribution runs under. The
    /// resulting [`Provenance::result`] is exactly what
    /// [`crate::lower_bound`] would report for the same configuration.
    pub lower: LowerBoundConfig,
    /// When `true` (the default), a concrete witness is synthesised and
    /// replayed for every terminating path.
    pub witnesses: bool,
    /// Box-bisection budget per path for the witness search.
    pub witness_boxes: usize,
    /// Extra concrete-machine steps allowed during witness replay beyond the
    /// path's own step count (safety slack; replays are expected to take
    /// exactly `path.steps` steps).
    pub replay_slack: usize,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig {
            lower: LowerBoundConfig::default(),
            witnesses: true,
            witness_boxes: 4_096,
            replay_slack: 16,
        }
    }
}

impl ExplainConfig {
    /// Builder: sets the underlying lower-bound configuration.
    #[must_use]
    pub fn with_lower(mut self, lower: LowerBoundConfig) -> Self {
        self.lower = lower;
        self
    }

    /// Builder: enables or disables witness synthesis.
    #[must_use]
    pub fn with_witnesses(mut self, witnesses: bool) -> Self {
        self.witnesses = witnesses;
        self
    }

    /// Builder: sets the witness-search box budget per path.
    #[must_use]
    pub fn with_witness_boxes(mut self, witness_boxes: usize) -> Self {
        self.witness_boxes = witness_boxes;
        self
    }
}

/// A synthesised concrete witness for a terminating path, together with the
/// outcome of replaying it on the concrete machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The concrete sample vector, one rational in `[0,1]` per sample
    /// variable, in draw order.
    pub trace: Vec<Rational>,
    /// `true` iff the concrete CbN machine, run on exactly this trace,
    /// terminated consuming the trace exactly
    /// ([`probterm_spcf::terminates_on_trace`]).
    pub replayed: bool,
    /// Steps the concrete replay took (`None` when the replay failed). For a
    /// faithful witness this equals the path's symbolic step count.
    pub replay_steps: Option<usize>,
}

/// The provenance record of one terminating symbolic path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathProvenance {
    /// Index of the path in exploration (BFS) order.
    pub index: usize,
    /// The branch decisions taken, in order.
    pub branches: Vec<Branch>,
    /// The collected path constraints `Δ`.
    pub constraints: Vec<SymConstraint>,
    /// Number of sample variables drawn along the path.
    pub sample_count: usize,
    /// Number of small-step reductions of the path.
    pub steps: usize,
    /// The terminal symbolic value (for base-type programs).
    pub result: Option<SymValue>,
    /// How the volume below was computed.
    pub method: VolumeMethod,
    /// The path's volume contribution — exactly the rational the lower-bound
    /// engine added for this path.
    pub volume: Rational,
    /// The replayable witness, when one was requested and found.
    pub witness: Option<Witness>,
}

/// What a (possibly partial) exploration left unaccounted for.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSummary {
    /// Number of paths abandoned mid-flight (paused machines at the cutoff
    /// plus out-of-fuel paths).
    pub paused: usize,
    /// Number of stuck paths (score failures, domain errors).
    pub stuck: usize,
    /// `true` when the run was cancelled by a cooperative check (deadline).
    pub interrupted: bool,
    /// `true` iff the exploration ran to completion: no abandoned paths and
    /// no interruption. A complete run accounts for every non-stuck path,
    /// though box-swept (non-affine) paths may still under-approximate their
    /// region, so `unaccounted_mass` can be positive even when `complete`.
    pub complete: bool,
    /// Histogram of abandoned-path depths (branches taken), as sorted
    /// `(depth, count)` pairs.
    pub depth_histogram: Vec<(usize, usize)>,
    /// `Σ` of the attributed per-path volumes — identical to the reported
    /// lower bound.
    pub attributed_mass: Rational,
    /// `1 − attributed_mass`: an upper bound on how much termination mass the
    /// frontier (plus sweep slack and stuck paths) may still hold.
    pub unaccounted_mass: Rational,
}

/// A full provenance artifact: the lower-bound result plus its per-path
/// attribution and frontier summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The lower-bound result being explained — byte-for-byte what
    /// [`crate::lower_bound`] reports under [`ExplainConfig::lower`].
    pub result: LowerBoundResult,
    /// One record per terminating path, in exploration order.
    pub paths: Vec<PathProvenance>,
    /// The abandoned paths, verbatim (steps + branch prefix each).
    pub frontier_paths: Vec<FrontierPath>,
    /// The frontier summary.
    pub frontier: FrontierSummary,
}

impl Provenance {
    /// `Σ` of the per-path volumes, recomputed from the records. Equals
    /// `self.result.probability` exactly (rational arithmetic); the soundness
    /// suite asserts this invariant over the whole catalogue.
    pub fn attributed_mass(&self) -> Rational {
        let mut total = Rational::zero();
        for p in &self.paths {
            total += p.volume.clone();
        }
        total
    }
}

/// Computes the provenance of a lower-bound run.
pub fn explain(term: &Term, config: &ExplainConfig) -> Provenance {
    let (provenance, interrupted) =
        try_explain::<std::convert::Infallible>(term, config, &mut |_| Ok(()));
    debug_assert!(interrupted.is_none());
    provenance
}

/// Like [`explain`], but threads the cooperative `check` through the
/// underlying exploration and measuring loop, so a deadline-bounded caller
/// (the analysis service) receives the provenance of a sound *partial* bound:
/// the artifact then has `frontier.interrupted` set and positive
/// `unaccounted_mass`.
///
/// Witness synthesis runs after the interruption (its cost is bounded by
/// `witness_boxes · paths`); interrupted runs use a tightly capped box budget
/// so the reply does not overshoot an expired deadline by much.
pub fn try_explain<E>(
    term: &Term,
    config: &ExplainConfig,
    check: &mut dyn FnMut(Poll<'_>) -> Result<(), E>,
) -> (Provenance, Option<E>) {
    let LowerBoundRun { result, exploration, measures, interruption, .. } =
        try_lower_bound(term, &config.lower, None, check);
    let witness_boxes = if interruption.is_some() {
        config.witness_boxes.min(256)
    } else {
        config.witness_boxes
    };
    let paths: Vec<PathProvenance> = exploration
        .terminated
        .into_iter()
        .zip(measures)
        .enumerate()
        .map(|(index, (path, measure))| {
            let witness = config
                .witnesses
                .then(|| synthesize_witness(term, &path, witness_boxes, config.replay_slack))
                .flatten();
            PathProvenance {
                index,
                sample_count: path.sample_count,
                steps: path.steps,
                branches: path.branches,
                constraints: path.constraints,
                result: path.result,
                method: measure.method,
                volume: measure.volume,
                witness,
            }
        })
        .collect();

    let mut histogram: Vec<(usize, usize)> = Vec::new();
    for f in &exploration.frontier {
        let depth = f.depth();
        match histogram.iter_mut().find(|(d, _)| *d == depth) {
            Some((_, count)) => *count += 1,
            None => histogram.push((depth, 1)),
        }
    }
    histogram.sort_unstable();

    let attributed = result.probability.clone();
    let frontier = FrontierSummary {
        paused: exploration.frontier.len(),
        stuck: exploration.stuck,
        interrupted: result.interrupted,
        complete: !result.interrupted && exploration.frontier.is_empty(),
        depth_histogram: histogram,
        unaccounted_mass: Rational::one() - &attributed,
        attributed_mass: attributed,
    };

    let provenance = Provenance {
        result,
        paths,
        frontier_paths: exploration.frontier,
        frontier,
    };
    (provenance, interruption)
}

/// Synthesises and replays a witness for one terminating path: searches the
/// path region for a concrete sample vector, then runs the concrete CbN
/// machine on exactly that trace.
fn synthesize_witness(
    term: &Term,
    path: &SymbolicPath,
    witness_boxes: usize,
    replay_slack: usize,
) -> Option<Witness> {
    let trace = path.find_witness(witness_boxes)?;
    let run = terminates_on_trace(
        Strategy::CallByName,
        term,
        FixedTrace::new(trace.clone()),
        path.steps + replay_slack,
    );
    Some(Witness {
        trace,
        replayed: run.is_some(),
        replay_steps: run.map(|r| r.steps),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::parse_term;

    fn explain_src(src: &str, depth: usize) -> Provenance {
        let term = parse_term(src).unwrap();
        explain(
            &term,
            &ExplainConfig::default().with_lower(LowerBoundConfig::default().with_depth(depth)),
        )
    }

    #[test]
    fn deterministic_term_is_fully_attributed() {
        let p = explain_src("1 + 2", 50);
        assert_eq!(p.paths.len(), 1);
        assert_eq!(p.paths[0].volume, Rational::one());
        assert_eq!(p.paths[0].method, VolumeMethod::Exact);
        assert!(p.frontier.complete);
        assert!(p.frontier.unaccounted_mass.is_zero());
        assert_eq!(p.attributed_mass(), p.result.probability);
        // The (empty) witness replays: no samples are drawn.
        let w = p.paths[0].witness.as_ref().expect("witness");
        assert!(w.replayed);
        assert!(w.trace.is_empty());
        assert_eq!(w.replay_steps, Some(p.paths[0].steps));
    }

    #[test]
    fn single_conditional_attributes_both_paths() {
        let p = explain_src("if sample <= 1/3 then 0 else 1", 50);
        assert_eq!(p.paths.len(), 2);
        assert!(p.frontier.complete);
        assert!(p.frontier.unaccounted_mass.is_zero());
        assert_eq!(p.result.probability, Rational::one());
        for path in &p.paths {
            assert_eq!(path.constraints.len(), 1);
            let w = path.witness.as_ref().expect("witness");
            assert!(w.replayed, "witness of path {} must replay", path.index);
            assert_eq!(w.trace.len(), 1);
            assert_eq!(w.replay_steps, Some(path.steps));
        }
        // The two witnesses land on opposite sides of the guard.
        let sides: Vec<bool> = p
            .paths
            .iter()
            .map(|path| {
                path.witness.as_ref().unwrap().trace[0] <= Rational::from_ratio(1, 3)
            })
            .collect();
        assert_ne!(sides[0], sides[1]);
    }

    #[test]
    fn incomplete_geometric_reports_frontier_gap() {
        let p = explain_src("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0", 40);
        assert!(!p.frontier.complete);
        assert!(p.frontier.paused > 0);
        assert_eq!(p.frontier.paused, p.frontier_paths.len());
        assert_eq!(p.frontier.paused, p.result.unexplored_paths);
        assert!(!p.frontier.interrupted);
        assert!(p.frontier.unaccounted_mass > Rational::zero());
        let histogram_total: usize = p.frontier.depth_histogram.iter().map(|(_, c)| c).sum();
        assert_eq!(histogram_total, p.frontier.paused);
        assert_eq!(p.attributed_mass(), p.result.probability);
        assert_eq!(
            &p.frontier.attributed_mass + &p.frontier.unaccounted_mass,
            Rational::one()
        );
    }

    #[test]
    fn partial_prims_never_produce_false_witnesses() {
        // `log` is partial: the symbolic path terminates with a postponed
        // `log(α₀ − 2)` that is undefined on the whole region, so no witness
        // exists and none may be fabricated.
        let p = explain_src("log (sample - 2)", 50);
        assert_eq!(p.paths.len(), 1);
        assert!(p.paths[0].witness.is_none());
        // A defined use of `log` produces a replaying witness.
        let q = explain_src("log (sample + 2)", 50);
        assert_eq!(q.paths.len(), 1);
        let w = q.paths[0].witness.as_ref().expect("witness");
        assert!(w.replayed);
    }

    #[test]
    fn interrupted_explain_is_a_sound_partial_artifact() {
        let term =
            parse_term("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0").unwrap();
        let config =
            ExplainConfig::default().with_lower(LowerBoundConfig::default().with_depth(300));
        let mut budget = 8usize;
        let (partial, err) = try_explain(&term, &config, &mut |_| {
            if budget == 0 {
                Err("deadline exceeded")
            } else {
                budget -= 1;
                Ok(())
            }
        });
        assert_eq!(err, Some("deadline exceeded"));
        assert!(partial.frontier.interrupted);
        assert!(!partial.frontier.complete);
        assert!(partial.result.probability > Rational::zero());
        assert_eq!(partial.attributed_mass(), partial.result.probability);
        for path in &partial.paths {
            if let Some(w) = &path.witness {
                assert!(w.replayed);
            }
        }
    }
}
