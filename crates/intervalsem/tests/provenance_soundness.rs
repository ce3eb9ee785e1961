//! Soundness of the provenance layer: the explainability artifact must be an
//! *exact* decomposition of the lower-bound computation it explains.
//!
//! For every catalogue benchmark (and for randomly generated closed terms):
//!
//! - the per-path volumes in the [`Provenance`] re-sum — by exact rational
//!   arithmetic, not float tolerance — to the probability the standalone
//!   [`lower_bound`] API reports for the same configuration;
//! - `attributed_mass + unaccounted_mass = 1`;
//! - every synthesized witness replays to termination on the concrete CEK
//!   machine, in exactly as many steps as the symbolic path took;
//! - `unaccounted_mass = 0` iff the exploration completed (on the catalogue,
//!   where every abandoned frontier region and box-sweep residue carries
//!   positive mass).

use probterm_intervalsem::{explain, lower_bound, ExplainConfig, LowerBoundConfig, Provenance};
use probterm_numerics::Rational;
use probterm_spcf::{catalog, Prim, Term};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check_provenance(name: &str, term: &Term, lower: &LowerBoundConfig) -> Provenance {
    let reference = lower_bound(term, lower);
    let provenance = explain(term, &ExplainConfig::default().with_lower(lower.clone()));

    // The artifact explains the same computation the standalone API runs.
    assert_eq!(
        provenance.result.probability, reference.probability,
        "{name}: provenance and lower_bound disagree on the bound"
    );
    // Per-path volumes re-sum exactly to the reported probability.
    assert_eq!(
        provenance.attributed_mass(),
        reference.probability,
        "{name}: per-path volumes do not sum to the lower bound"
    );
    assert_eq!(
        provenance.frontier.attributed_mass, provenance.attributed_mass(),
        "{name}: frontier summary caches a different attributed mass"
    );
    assert_eq!(
        &provenance.frontier.attributed_mass + &provenance.frontier.unaccounted_mass,
        Rational::one(),
        "{name}: attributed + unaccounted != 1"
    );
    // Every path with certified mass carries a witness that replayed on the
    // concrete machine, taking exactly the symbolic path's step count.
    for path in &provenance.paths {
        if path.volume > Rational::zero() {
            let witness = path.witness.as_ref().unwrap_or_else(|| {
                panic!("{name}: path {} has mass but no witness", path.index)
            });
            assert!(witness.replayed, "{name}: witness of path {} did not replay", path.index);
            assert_eq!(
                witness.replay_steps,
                Some(path.steps),
                "{name}: witness of path {} replayed in a different step count",
                path.index
            );
        }
    }
    // The headline frontier invariant: no unaccounted mass iff the
    // exploration ran to completion.
    assert_eq!(
        provenance.frontier.unaccounted_mass == Rational::zero(),
        provenance.frontier.complete,
        "{name}: unaccounted_mass = {} but complete = {}",
        provenance.frontier.unaccounted_mass,
        provenance.frontier.complete
    );
    provenance
}

#[test]
fn whole_catalogue_is_exactly_attributed() {
    let mut all = catalog::table1_benchmarks();
    all.extend(catalog::table2_benchmarks());
    all.push(catalog::triangle_example());
    for b in &all {
        // Pedestrian explodes combinatorially with depth; keep it shallower.
        let depth = if b.name == "pedestrian" { 25 } else { 35 };
        let lower = LowerBoundConfig::default().with_depth(depth).with_max_paths(4_000);
        let provenance = check_provenance(&b.name, &b.term, &lower);
        // Catalogue terms certify mass at these depths; a silently empty
        // artifact would make the re-summation check vacuous.
        assert!(
            provenance.attributed_mass() > Rational::zero(),
            "{}: no mass attributed",
            b.name
        );
    }
}

#[test]
fn deterministic_terms_complete_with_zero_unaccounted_mass() {
    // The `iff` direction the recursive catalogue cannot exercise: a finite
    // path tree explores completely and accounts for every drop of mass.
    for (name, source) in [
        ("arith", "1 + 2 * 3"),
        ("single_branch", "if sample <= 1/3 then 0 else 1"),
        ("two_draws", "if sample <= 1/2 then (if sample <= 1/2 then 0 else 1) else 2"),
    ] {
        let term = probterm_spcf::parse_term(source).expect("parse");
        let lower = LowerBoundConfig::default().with_depth(60);
        let provenance = check_provenance(name, &term, &lower);
        assert!(provenance.frontier.complete, "{name}: must complete");
        assert_eq!(provenance.frontier.unaccounted_mass, Rational::zero(), "{name}");
        assert_eq!(provenance.attributed_mass(), Rational::one(), "{name}");
    }
}

// ----------------------------------------------------------------- proptest

/// Binder-name pool (shadowing on purpose, as in the differential tests).
const POOL: [&str; 4] = ["x", "y", "phi", "acc"];

/// Generates a random *closed* term with at most `depth` nested constructors
/// (variables are only drawn from the enclosing scope) — the same shape as
/// `symbolic_differential.rs` uses, so the provenance layer faces stuck
/// terms, duplicated thunks, partial primitives and nested fixpoints.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact attribution and witness replay hold on random closed terms,
    /// not just the curated catalogue.
    #[test]
    fn random_closed_terms_are_exactly_attributed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = 2 + (seed % 4) as usize;
        let term = random_term(&mut rng, depth, &mut Vec::new());
        let lower = LowerBoundConfig::default().with_depth(40).with_max_paths(1_500);
        let reference = lower_bound(&term, &lower);
        let provenance = explain(&term, &ExplainConfig::default().with_lower(lower));
        prop_assert_eq!(
            provenance.attributed_mass(),
            reference.probability,
            "seed {} on `{}`",
            seed,
            term
        );
        for path in &provenance.paths {
            if let Some(witness) = &path.witness {
                prop_assert!(
                    witness.replayed,
                    "seed {}: witness of path {} did not replay on `{}`",
                    seed,
                    path.index,
                    term
                );
            }
        }
    }
}
