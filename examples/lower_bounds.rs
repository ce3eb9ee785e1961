//! Anytime lower bounds on the probability of termination (paper §3, §7.1).
//!
//! For three qualitatively different programs this example shows how the
//! certified lower bound grows as the exploration depth increases, and
//! cross-checks the bounds against a Monte-Carlo estimate of the true
//! termination probability:
//!
//! * `geo(1/2)` — AST; the bounds converge to 1 geometrically,
//! * `Ex 1.1(2), p = 1/4` — *not* AST; the bounds converge to the true
//!   termination probability 1/3 from below,
//! * `Ex 3.5` — the terminating traces form a triangle, which no finite union
//!   of boxes covers exactly, yet the interval semantics is complete and the
//!   bounds approach 1.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example lower_bounds
//! ```

use probterm::core::intervalsem::{lower_bound, LowerBoundConfig};
use probterm::core::numerics::Rational;
use probterm::core::spcf::{catalog, estimate_termination, MonteCarloConfig, Strategy};

fn main() {
    let depths = [20usize, 40, 80, 120];
    let programs = vec![
        catalog::geometric(Rational::from_ratio(1, 2)),
        catalog::printer_nonaffine(Rational::from_ratio(1, 4)),
        catalog::triangle_example(),
    ];
    for benchmark in programs {
        println!("\n=== {} ===", benchmark.name);
        println!("    {}", benchmark.description);
        // Each depth is a fresh run: resuming the previous depth's checkpoint
        // would replay every frontier seed's prefix and take more machine
        // steps than exploring from scratch.
        for depth in depths {
            let config = LowerBoundConfig::default().with_depth(depth);
            let result = lower_bound(&benchmark.term, &config);
            println!(
                "  depth {:>4}: Pterm >= {}   ({} paths, {} ms)",
                depth,
                result.probability.to_decimal_string(10),
                result.paths,
                result.elapsed.as_millis()
            );
        }
        let estimate = estimate_termination(
            &benchmark.term,
            &MonteCarloConfig {
                runs: 3_000,
                max_steps: 8_000,
                seed: 7,
                strategy: Strategy::CallByName,
            },
        );
        println!(
            "  Monte-Carlo estimate of Pterm: {:.4} ± {:.4}{}",
            estimate.probability(),
            estimate.confidence_99(),
            benchmark
                .expected_pterm
                .map(|p| format!("   (closed form: {p:.4})"))
                .unwrap_or_default()
        );
    }
}
