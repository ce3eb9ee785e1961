//! Interval-trace semantics and termination lower bounds for SPCF.
//!
//! This crate implements the first contribution of *"On Probabilistic
//! Termination of Functional Programs with Continuous Distributions"*
//! (Beutner & Ong, PLDI 2021):
//!
//! * **Interval terms and interval reduction** ([`ITerm`], [`run_interval`],
//!   paper §3.1/Fig. 9): evaluation parameterised by a trace of intervals,
//!   sound and complete w.r.t. the standard sampling semantics.
//! * **Interval traces** ([`IntervalTrace`]) with their weights and the
//!   pairwise-compatibility requirement of Theorem 3.4.
//! * **Stochastic symbolic execution** ([`explore`], App. B.5): enumeration of
//!   branching behaviours with symbolic path constraints.
//! * **The lower-bound engine** ([`lower_bound`], §7.1): exact polytope
//!   volumes for affine constraints and an interval box-splitting sweep
//!   otherwise, yielding arbitrarily tight lower bounds on `Pterm` and on the
//!   expected runtime of terminating runs.
//!
//! # Example
//!
//! ```
//! use probterm_intervalsem::{lower_bound, LowerBoundConfig};
//! use probterm_spcf::catalog;
//!
//! // Table 1, row "Ex 1.1, p = 1/4": the true termination probability is 1/3.
//! let bench = catalog::printer_nonaffine(probterm_numerics::Rational::from_ratio(1, 4));
//! let result = lower_bound(&bench.term, &LowerBoundConfig::default().with_depth(50));
//! assert!(result.probability.to_f64() <= 1.0 / 3.0 + 1e-12);
//! assert!(result.probability.to_f64() > 0.29);
//! ```

#![warn(missing_docs)]

mod iterm;
mod lowerbound;
mod past;
pub mod provenance;
mod symbolic;

pub use iterm::{
    pairwise_compatible, prim_interval, run_interval, IOutcome, IStuck, ITerm, IValue,
    IntervalTrace,
};
pub use lowerbound::{
    lower_bound, try_lower_bound, LowerBoundCheckpoint, LowerBoundConfig, LowerBoundResult,
    LowerBoundRun, PathMeasure, Poll, VolumeMethod,
};
pub use past::{
    divergence_ratio, expected_steps_profile, refute_past_bound, ExpectedStepsPoint, PastProbe,
    PastRefutation,
};
pub use provenance::{
    explain, try_explain, ExplainConfig, FrontierSummary, PathProvenance, Provenance, Witness,
};
pub use symbolic::{
    explore, explore_substitution, frontier_seeds, try_explore_seeded, Branch, BranchPath,
    ConstraintKind, Exploration, ExplorationConfig, FrontierPath, ReplaySeed, SymConstraint,
    SymValue, SymbolicPath,
};
