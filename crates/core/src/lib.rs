//! `probterm-core` — the high-level facade of the `probterm` workspace.
//!
//! The workspace reproduces *"On Probabilistic Termination of Functional
//! Programs with Continuous Distributions"* (Beutner & Ong, PLDI 2021). This
//! crate stitches the individual analyses into a single convenient API:
//!
//! * [`analyze_lower_bound`] — lower bounds on the probability of termination
//!   via the interval-trace semantics (paper §3, §7.1; Table 1),
//! * [`analyze_ast`] — automated AST verification of non-affine recursion via
//!   counting, strategies and polytope volumes (paper §5–§6, §7.2; Table 2),
//! * [`TerminationReport`] / [`analyze`] — both analyses plus Monte-Carlo
//!   cross-validation and structural diagnostics in one call,
//! * re-exports of all constituent crates under predictable names.
//!
//! # Quick start
//!
//! ```
//! use probterm_core::{analyze, AnalysisConfig};
//! use probterm_core::spcf::parse_term;
//!
//! let program = parse_term(
//!     "(fix phi x. if sample <= 0.5 then x else phi (phi (x + 1))) 1",
//! ).unwrap();
//! let report = analyze(&program, &AnalysisConfig { lower_bound_depth: 60, ..Default::default() });
//! assert_eq!(report.ast_verified, Some(true));
//! assert!(report.lower_bound.probability.to_f64() > 0.5);
//! ```

#![warn(missing_docs)]

pub use probterm_astver as astver;
pub use probterm_counting as counting;
pub use probterm_intervalsem as intervalsem;
pub use probterm_itypes as itypes;
pub use probterm_numerics as numerics;
pub use probterm_polytope as polytope;
pub use probterm_rwalk as rwalk;
pub use probterm_spcf as spcf;

use probterm_astver::{try_verify_ast_profiled, verify_ast, AstVerification, VerifyError};
use probterm_intervalsem::{lower_bound, try_lower_bound, LowerBoundConfig, LowerBoundResult};
use probterm_numerics::Rational;
use probterm_rwalk::CountingDistribution;
use probterm_spcf::{
    infer_type, try_estimate_termination, MonteCarloConfig, MonteCarloEstimate, SimpleType,
    Strategy, Term, TypeError,
};
use std::fmt;

/// Configuration of the combined analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Exploration depth of the lower-bound engine.
    pub lower_bound_depth: usize,
    /// Number of Monte-Carlo cross-validation runs (0 disables the check).
    pub monte_carlo_runs: usize,
    /// Step budget per Monte-Carlo run.
    pub monte_carlo_steps: usize,
    /// Random seed for the Monte-Carlo cross-check.
    pub seed: u64,
    /// When `true`, the lower-bound exploration and the AST verifier attach
    /// machine profiles, reported in the corresponding result fields
    /// (`lower_bound.profile`, `ast.profile`).
    pub profile: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            lower_bound_depth: 80,
            monte_carlo_runs: 0,
            monte_carlo_steps: 20_000,
            seed: 2021,
            profile: false,
        }
    }
}

/// The combined termination report for one program.
#[derive(Debug, Clone)]
pub struct TerminationReport {
    /// The simple type of the program.
    pub simple_type: SimpleType,
    /// Result of the interval-semantics lower-bound computation.
    pub lower_bound: LowerBoundResult,
    /// Result of the AST verification, when the program shape supports it.
    pub ast: Option<AstVerification>,
    /// `Some(true)` if AST was proven, `Some(false)` if the verifier ran but
    /// could not prove AST, `None` if the verifier was not applicable.
    pub ast_verified: Option<bool>,
    /// The counting distribution `P_approx` reported by the verifier, if any.
    pub papprox: Option<CountingDistribution>,
    /// Why the AST verifier was not applicable, if it was not.
    pub ast_skipped: Option<String>,
    /// Optional Monte-Carlo cross-validation estimate (call-by-name).
    pub monte_carlo: Option<MonteCarloEstimate>,
}

impl fmt::Display for TerminationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "type           : {}", self.simple_type)?;
        writeln!(
            f,
            "Pterm >=       : {} (from {} terminating symbolic paths)",
            self.lower_bound.probability.to_decimal_string(10),
            self.lower_bound.paths
        )?;
        match (&self.ast_verified, &self.papprox) {
            (Some(true), Some(p)) => writeln!(f, "AST            : verified, P_approx = {p}")?,
            (Some(false), Some(p)) => writeln!(f, "AST            : not proved, P_approx = {p}")?,
            _ => writeln!(
                f,
                "AST            : verifier not applicable ({})",
                self.ast_skipped.as_deref().unwrap_or("unknown reason")
            )?,
        }
        if let Some(mc) = &self.monte_carlo {
            writeln!(
                f,
                "Monte-Carlo    : {:.4} ± {:.4}",
                mc.probability(),
                mc.confidence_99()
            )?;
        }
        Ok(())
    }
}

/// Errors of the combined analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The program is open or not simply typed.
    IllTyped(TypeError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::IllTyped(e) => write!(f, "program is not simply typed: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Computes a lower bound on the probability of termination (paper §3/§7.1).
pub fn analyze_lower_bound(term: &Term, depth: usize) -> LowerBoundResult {
    lower_bound(term, &LowerBoundConfig::default().with_depth(depth))
}

/// Runs the counting-based AST verifier (paper §5–§6/§7.2).
///
/// # Errors
///
/// Propagates [`VerifyError`] from the verifier (unsupported shape, non-affine
/// guard, too many Environment nodes).
pub fn analyze_ast(term: &Term) -> Result<AstVerification, VerifyError> {
    verify_ast(term)
}

/// Runs both analyses (plus an optional Monte-Carlo cross-check) and returns a
/// combined report. Programs that are not simply typed yield a report with a
/// zero lower bound via [`try_analyze`]; use that variant to observe errors.
pub fn analyze(term: &Term, config: &AnalysisConfig) -> TerminationReport {
    try_analyze(term, config).unwrap_or_else(|_| TerminationReport {
        simple_type: SimpleType::Real,
        lower_bound: analyze_lower_bound(&Term::int(0), 1),
        ast: None,
        ast_verified: None,
        papprox: None,
        ast_skipped: Some("program is not simply typed".into()),
        monte_carlo: None,
    })
}

/// Like [`analyze`] but reports type errors instead of degrading.
///
/// # Errors
///
/// Returns [`AnalysisError::IllTyped`] when the program is open or not simply
/// typed.
pub fn try_analyze(term: &Term, config: &AnalysisConfig) -> Result<TerminationReport, AnalysisError> {
    try_analyze_budgeted(term, config, &mut || Ok(())).map(|analysis| {
        debug_assert!(analysis.complete);
        analysis.report
    })
}

/// A combined analysis that may have been cut short by its budget check.
#[derive(Debug, Clone)]
pub struct BudgetedAnalysis {
    /// The (possibly partial) report. The lower bound is always sound —
    /// interruption only loses bound mass (Thm. 3.4); skipped stages are
    /// explained by `ast_skipped` / a `None` Monte-Carlo estimate.
    pub report: TerminationReport,
    /// `false` when any stage was interrupted or skipped by the check.
    pub complete: bool,
}

/// Like [`try_analyze`], but threads a cooperative interruption check through
/// every stage: inside the symbolic exploration of the lower-bound engine,
/// inside the AST verifier's tree construction and strategy enumeration, and
/// between Monte-Carlo chunks. When the check fails, the remaining stages
/// are skipped and the report degrades gracefully — the lower bound keeps the
/// sound partial mass accumulated so far. This is the engine behind the
/// analysis service's deadline-bounded `analyze` requests.
///
/// # Errors
///
/// Returns [`AnalysisError::IllTyped`] when the program is open or not simply
/// typed.
pub fn try_analyze_budgeted(
    term: &Term,
    config: &AnalysisConfig,
    check: &mut dyn FnMut() -> Result<(), ()>,
) -> Result<BudgetedAnalysis, AnalysisError> {
    let simple_type = infer_type(term).map_err(AnalysisError::IllTyped)?;
    let mut complete = true;

    let lower_config = LowerBoundConfig::default()
        .with_depth(config.lower_bound_depth)
        .with_profile(config.profile);
    let lower = try_lower_bound(term, &lower_config, None, &mut |_| check()).result;
    complete &= !lower.interrupted;

    let (ast, ast_verified, papprox, ast_skipped) = if check().is_err() {
        complete = false;
        (None, None, None, Some("interrupted before the AST verifier started".to_string()))
    } else {
        match try_verify_ast_profiled(term, config.profile, check) {
            Ok(v) => {
                let verified = v.verified_ast;
                let papprox = v.papprox.clone();
                (Some(v), Some(verified), Some(papprox), None)
            }
            Err(VerifyError::Interrupted) => {
                complete = false;
                (None, None, None, Some("the AST verifier was interrupted".to_string()))
            }
            Err(e) => (None, None, None, Some(e.to_string())),
        }
    };

    let monte_carlo = if config.monte_carlo_runs == 0 {
        None
    } else if check().is_err() {
        complete = false;
        None
    } else {
        let mc_config = MonteCarloConfig {
            runs: config.monte_carlo_runs,
            max_steps: config.monte_carlo_steps,
            seed: config.seed,
            strategy: Strategy::CallByName,
        };
        match try_estimate_termination(term, &mc_config, |i| {
            if i % 32 == 0 {
                check()
            } else {
                Ok(())
            }
        }) {
            Ok(estimate) => Some(estimate),
            Err(()) => {
                complete = false;
                None
            }
        }
    };

    Ok(BudgetedAnalysis {
        report: TerminationReport {
            simple_type,
            lower_bound: lower,
            ast,
            ast_verified,
            papprox,
            ast_skipped,
            monte_carlo,
        },
        complete,
    })
}

/// Convenience: the certified lower bound as an exact rational.
pub fn certified_lower_bound(term: &Term, depth: usize) -> Rational {
    analyze_lower_bound(term, depth).probability
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_spcf::catalog;
    use probterm_spcf::parse_term;

    #[test]
    fn combined_report_for_the_running_example() {
        let b = catalog::printer_nonaffine(Rational::from_ratio(1, 2));
        let report = analyze(
            &b.term,
            &AnalysisConfig {
                lower_bound_depth: 60,
                monte_carlo_runs: 400,
                monte_carlo_steps: 4_000,
                seed: 1,
                ..Default::default()
            },
        );
        assert_eq!(report.simple_type, SimpleType::Real);
        assert_eq!(report.ast_verified, Some(true));
        let lb = report.lower_bound.probability.to_f64();
        assert!(lb > 0.5 && lb < 1.0);
        let mc = report.monte_carlo.as_ref().unwrap().probability();
        assert!(mc > 0.9);
        let rendered = report.to_string();
        assert!(rendered.contains("AST"));
        assert!(rendered.contains("Pterm"));
    }

    #[test]
    fn non_fixpoint_programs_skip_the_verifier_gracefully() {
        let term = parse_term("if sample <= 1/2 then 0 else 1").unwrap();
        let report = analyze(&term, &AnalysisConfig::default());
        assert_eq!(report.ast_verified, None);
        assert!(report.ast_skipped.is_some());
        assert_eq!(report.lower_bound.probability, Rational::one());
    }

    #[test]
    fn ill_typed_programs_are_reported() {
        let term = parse_term("(lam x. x x) (lam x. x x)").unwrap();
        assert!(matches!(
            try_analyze(&term, &AnalysisConfig::default()),
            Err(AnalysisError::IllTyped(_))
        ));
        // The non-erroring variant degrades instead of panicking.
        let degraded = analyze(&term, &AnalysisConfig::default());
        assert!(degraded.ast_skipped.is_some());
    }

    #[test]
    fn certified_lower_bound_is_sound_for_a_non_ast_term() {
        let b = catalog::printer_nonaffine(Rational::from_ratio(1, 4));
        let lb = certified_lower_bound(&b.term, 60);
        assert!(lb.to_f64() <= 1.0 / 3.0 + 1e-12);
        assert!(lb.to_f64() > 0.25);
    }
}
