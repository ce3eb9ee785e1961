//! Depth-scaling driver for symbolic exploration: measures the
//! environment-machine explorer against the substitution-based reference
//! stepper across doubling exploration depths (the `d` column of Table 1)
//! and records the numbers to `BENCH_symbolic.json` (run from the workspace
//! root, e.g. `cargo run --release -p probterm-bench --bin symbolic_scaling`).
//!
//! The substitution stepper rebuilds the whole term at every small step, and
//! for recursive programs the unexplored recursion grows the term linearly
//! with the path depth — so its per-path cost is quadratic in `d` and its
//! per-depth-doubling time multiplies by ~4 (or worse once the path *count*
//! also grows with depth). The machine's per-step cost is flat: doubling the
//! depth should roughly double the per-path work.
//!
//! The same comparison for the concrete evaluator closes the file: one run
//! of `gr` on an all-failing trace, truncated at 500, 1000 and 2000 steps
//! (its residual term grows with every step), and one 200-failure
//! call-by-name run of `geo(1/2)`. There `depth` is the run's step budget
//! and `paths` is 1.
//!
//! Every cell is timed [`REPETITIONS`] times; the file records the median
//! and the median absolute deviation (MAD) of each.

use probterm_intervalsem::{explore, explore_substitution, ExplorationConfig};
use probterm_numerics::Rational;
use probterm_spcf::{
    catalog, run_machine, run_substitution, FixedTrace, Run, Sampler, Strategy, Term,
};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Timed runs per cell.
const REPETITIONS: usize = 5;

#[derive(Debug, Clone, Serialize)]
struct DepthRow {
    benchmark: String,
    depth: usize,
    paths: usize,
    machine_ns: u128,
    machine_mad_ns: u128,
    substitution_ns: u128,
    substitution_mad_ns: u128,
    speedup: f64,
}

/// Median and MAD of [`REPETITIONS`] timed runs, plus the count the runs
/// return (paths explored, or steps taken).
fn median_of<F: FnMut() -> usize>(mut run: F) -> (Duration, Duration, usize) {
    fn median(sorted: &[Duration]) -> Duration {
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2
        } else {
            sorted[mid]
        }
    }
    let mut paths = 0usize;
    let mut times: Vec<Duration> = (0..REPETITIONS)
        .map(|_| {
            let start = Instant::now();
            paths = run();
            start.elapsed()
        })
        .collect();
    times.sort();
    let mid = median(&times);
    let mut deviations: Vec<Duration> = times.iter().map(|t| t.abs_diff(mid)).collect();
    deviations.sort();
    (mid, median(&deviations), paths)
}

/// Appends one row: the two evaluators' median and MAD on the same cell.
fn record(
    rows: &mut Vec<DepthRow>,
    name: &str,
    depth: usize,
    paths: usize,
    (machine_time, machine_mad): (Duration, Duration),
    (substitution_time, substitution_mad): (Duration, Duration),
) {
    let speedup = substitution_time.as_secs_f64() / machine_time.as_secs_f64().max(1e-12);
    eprintln!(
        "{name:<16} d={depth:<5} paths={paths:<6} machine={machine_time:?} \
         substitution={substitution_time:?} speedup={speedup:.1}x"
    );
    rows.push(DepthRow {
        benchmark: name.to_string(),
        depth,
        paths,
        machine_ns: machine_time.as_nanos(),
        machine_mad_ns: machine_mad.as_nanos(),
        substitution_ns: substitution_time.as_nanos(),
        substitution_mad_ns: substitution_mad.as_nanos(),
        speedup,
    });
}

fn measure(name: &str, term: &Term, depths: &[usize], rows: &mut Vec<DepthRow>) {
    for &depth in depths {
        let config = ExplorationConfig::default()
            .with_max_steps_per_path(depth)
            .with_max_paths(20_000);
        let (machine_time, machine_mad, machine_paths) =
            median_of(|| explore(term, &config).terminated.len());
        let (substitution_time, substitution_mad, substitution_paths) =
            median_of(|| explore_substitution(term, &config).terminated.len());
        assert_eq!(
            machine_paths, substitution_paths,
            "{name} @ {depth}: differential mismatch"
        );
        record(
            rows,
            name,
            depth,
            machine_paths,
            (machine_time, machine_mad),
            (substitution_time, substitution_mad),
        );
    }
}

/// One concrete run on the trace `ratios`, with at most `max_steps` steps.
fn measure_run(
    name: &str,
    strategy: Strategy,
    term: &Term,
    ratios: &[(i64, i64)],
    max_steps: usize,
    rows: &mut Vec<DepthRow>,
) {
    let time = |evaluator: fn(Strategy, &Term, &mut dyn Sampler, usize) -> Run| {
        median_of(|| {
            let mut trace = FixedTrace::from_ratios(ratios);
            evaluator(strategy, term, &mut trace, max_steps).steps
        })
    };
    let (machine_time, machine_mad, machine_steps) = time(run_machine);
    let (substitution_time, substitution_mad, substitution_steps) = time(run_substitution);
    assert_eq!(
        machine_steps, substitution_steps,
        "{name} @ {max_steps}: differential mismatch"
    );
    record(
        rows,
        name,
        max_steps,
        1,
        (machine_time, machine_mad),
        (substitution_time, substitution_mad),
    );
}

fn main() {
    let mut rows: Vec<DepthRow> = Vec::new();
    // Recursive catalogue examples: geometric recursion (linear path count,
    // linearly growing paths), the triangle example (two draws per
    // unfolding) and the non-affine printer (branching recursion).
    measure(
        "geometric",
        &catalog::geometric(Rational::from_ratio(1, 2)).term,
        &[100, 200, 400, 800],
        &mut rows,
    );
    measure(
        "triangle",
        &catalog::triangle_example().term,
        &[100, 200, 400, 800],
        &mut rows,
    );
    measure(
        "printer_nonaffine",
        &catalog::printer_nonaffine(Rational::from_ratio(1, 2)).term,
        &[40, 80, 160],
        &mut rows,
    );

    // The concrete evaluator. Every `gr` sample is 9/10 > 1/2, so the run
    // keeps spawning recursive calls until the step budget runs out.
    let gr = catalog::golden_ratio().term;
    for max_steps in [500, 1_000, 2_000] {
        let failing = vec![(9, 10); max_steps];
        measure_run("evaluator_gr", Strategy::CallByValue, &gr, &failing, max_steps, &mut rows);
    }
    let mut failures_then_success = vec![(9, 10); 200];
    failures_then_success.push((1, 10));
    measure_run(
        "evaluator_geo_cbn",
        Strategy::CallByName,
        &catalog::geometric(Rational::from_ratio(1, 2)).term,
        &failures_then_success,
        100_000,
        &mut rows,
    );

    let rendered: Vec<String> = rows
        .iter()
        .map(|row| serde_json::to_string(row).expect("serialize row"))
        .collect();
    let payload = format!("[\n  {}\n]\n", rendered.join(",\n  "));
    std::fs::write("BENCH_symbolic.json", &payload).expect("write BENCH_symbolic.json");
    probterm_bench::append_history("symbolic_scaling", &rows.serialize());
    println!("wrote BENCH_symbolic.json ({} rows)", rows.len());
}
