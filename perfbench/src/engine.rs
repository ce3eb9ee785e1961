//! The in-process engine workloads: `table1` (the paper's Table 1 rows) and
//! `nonlinear` (seeded non-affine programs). One thread runs
//! `intervalsem::lower_bound` on every program of the workload in a closed
//! loop; each pass computes every bound once.
//!
//! The traced run times each layer from outside: it runs `lower_bound`'s
//! own stages through the crates' public functions, with a span around
//! each call, beside plain `lower_bound` calls on the same programs.

use crate::calib::HostSpeed;
use crate::gen::{self, Rng};
use crate::stats::{self, median, quantile};
use crate::{sanitize, Args, Report};
use probterm_intervalsem::{
    frontier_seeds, lower_bound, try_explore_seeded, LowerBoundConfig, LowerBoundResult,
};
use probterm_numerics::Rational;
use probterm_spcf::{catalog, Term};
use std::convert::Infallible;
use std::hint::black_box;
use std::time::Instant;

/// Exact bounds recorded with `--record`, one `key<TAB>rational` per line.
const TABLE1_EXPECTED: &str = include_str!("../expected/table1.txt");
const NONLINEAR_EXPECTED: &str = include_str!("../expected/nonlinear.txt");

/// Set-ups timed back to back; their median is one set-up reading. The
/// untraced run takes a reading before the first pass and after every pass
/// and reports the median reading: a set-up this small runs up to ±25%
/// faster or slower from one second to the next on a shared machine.
const SETUP_REPS: usize = 51;

/// The explore and volume spans must cover this share of `lower_bound`.
const LEDGER_COVERAGE: f64 = 0.95;

/// Rounds of the traced run at the least, however long they take.
const MIN_TRACED_ROUNDS: usize = 5;

struct Program {
    /// Sanitized display name, used in per-program metric names.
    name: String,
    /// Key of the program's line in the reference file.
    key: String,
    term: Term,
    config: LowerBoundConfig,
    reference: Option<Rational>,
    /// The analytic (nonlinear) or hand-written (catalogue) termination
    /// probability, an upper limit for every sound bound.
    pterm: f64,
}

impl Program {
    fn accepts(&self, result: &LowerBoundResult) -> bool {
        let below_pterm = if self.pterm >= 1.0 {
            result.probability <= Rational::one()
        } else {
            result.probability.to_f64() <= self.pterm + 1e-12
        };
        !result.interrupted && below_pterm && self.reference.as_ref() == Some(&result.probability)
    }
}

fn references(text: &str) -> Result<Vec<(&str, Rational)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (key, value) = line
                .rsplit_once('\t')
                .ok_or(format!("bad reference line {line}"))?;
            let value = Rational::parse(value).ok_or(format!("bad rational in {line}"))?;
            Ok((key, value))
        })
        .collect()
}

fn lookup(refs: &[(&str, Rational)], key: &str) -> Option<Rational> {
    refs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone())
}

/// Builds the workload's programs and loads their references.
fn programs(workload: &str, seed: u64) -> Result<Vec<Program>, String> {
    let programs: Vec<Program> = match workload {
        "table1" => {
            let refs = references(TABLE1_EXPECTED)?;
            catalog::table1_benchmarks()
                .into_iter()
                .zip(probterm_bench::table1_depths())
                .map(|(b, depth)| {
                    let key = format!("{}\t{depth}", b.name);
                    Program {
                        name: sanitize(&b.name),
                        reference: lookup(&refs, &key),
                        key,
                        term: b.term,
                        config: LowerBoundConfig::default().with_depth(depth),
                        pterm: b.expected_pterm.unwrap_or(1.0),
                    }
                })
                .collect()
        }
        "nonlinear" => {
            let refs = references(NONLINEAR_EXPECTED)?;
            gen::nonlinear(&mut Rng::new(seed))
                .into_iter()
                .map(|p| {
                    let key = p.family.name.to_string();
                    Program {
                        name: p.family.name.to_string(),
                        reference: lookup(&refs, &key),
                        key,
                        term: gen::parse(&p.source),
                        config: LowerBoundConfig::default().with_depth(p.family.depth),
                        pterm: p.family.pterm(),
                    }
                })
                .collect()
        }
        other => return Err(format!("{other} is not an engine workload")),
    };
    Ok(programs)
}

/// The sanitized names of every program either engine workload can run.
pub fn program_names() -> Vec<String> {
    let table1 = catalog::table1_benchmarks()
        .into_iter()
        .map(|b| sanitize(&b.name));
    table1
        .chain(gen::FAMILIES.iter().map(|f| f.name.to_string()))
        .collect()
}

/// Sets up `SETUP_REPS` times and returns the last set-up with the median
/// set-up time.
fn setup(args: &Args) -> Result<(Vec<Program>, f64), String> {
    let mut times = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = programs_checked(&args.workload, args.seed)?;
        times.push(t.elapsed().as_secs_f64());
        programs = built;
    }
    Ok((programs, median(&times)))
}

fn programs_checked(workload: &str, seed: u64) -> Result<Vec<Program>, String> {
    let programs = programs(workload, seed)?;
    if let Some(p) = programs.iter().find(|p| p.reference.is_none()) {
        return Err(format!(
            "no reference for {} (run --record {workload})",
            p.key
        ));
    }
    Ok(programs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.trace {
        let (programs, _) = setup(args)?;
        traced(args, &programs, &mut report)?;
    } else {
        untraced(args, &mut report)?;
    }
    Ok(report)
}

/// The untraced run. A request is one pass computing every bound of the
/// workload once: latencies of unlike programs form no distribution, so the
/// percentiles are taken over passes, never over single calls. Every time is
/// scaled to the nominal host by the reference timed around its pass
/// (`calib`).
fn untraced(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut host = HostSpeed::new();
    let (programs, first_setup_s) = setup(args)?;
    let mut setups = vec![first_setup_s * host.factor()];
    let budget = args.seconds.as_secs_f64();
    let start = Instant::now();
    let (mut cpu, mut wall) = (0.0, Vec::new());
    let mut passes = Vec::new();
    loop {
        let pass = Instant::now();
        let cpu_start = stats::cpu_seconds("self")?;
        for p in &programs {
            let result = lower_bound(black_box(&p.term), &p.config);
            report.check(p.accepts(&result));
        }
        let cpu_s = stats::cpu_seconds("self")? - cpu_start;
        let pass_s = pass.elapsed().as_secs_f64();
        let setup_s = setup(args)?.1;
        let factor = host.factor();
        cpu += cpu_s * factor;
        wall.push(pass_s);
        passes.push(pass_s * factor);
        setups.push(setup_s * factor);
        if start.elapsed().as_secs_f64() + median(&wall) > budget {
            break;
        }
    }
    let busy: f64 = passes.iter().sum();
    eprintln!(
        "{}: percentiles over {} passes; median pass {:.4} s on this host, {:.4} s nominal",
        args.workload,
        passes.len(),
        median(&wall),
        median(&passes)
    );
    report.metric("pass_s", median(&passes), "s");
    report.metric("rps", passes.len() as f64 / busy, "1/s");
    report.metric("p50_us", quantile(&passes, 0.50) * 1e6, "us");
    report.metric("p95_us", quantile(&passes, 0.95) * 1e6, "us");
    report.metric("cpu_us_per_req", cpu * 1e6 / passes.len() as f64, "us");
    report.metric("peak_rss_mb", stats::peak_rss_mb("self")?, "MB");
    report.metric("setup_s", median(&setups), "s");
    Ok(())
}

/// Span times of one traced `lower_bound`, in seconds. The outer span
/// holds the others; `explore` is the self time of the exploration call
/// (its span minus the volume spans inside it) plus freeing its paths.
#[derive(Clone, Copy, Default)]
struct SpanTimes {
    lower_bound: f64,
    explore: f64,
    exact: f64,
    boxes: f64,
    checkpoint: f64,
}

impl SpanTimes {
    fn children(&self) -> f64 {
        self.explore + self.exact + self.boxes + self.checkpoint
    }
}

/// Deterministic per-program counts, the same in every round.
#[derive(Default)]
struct Counts {
    steps: u64,
    forks: u64,
    terminated: usize,
    out_of_fuel: usize,
    stuck: usize,
    exact_paths: usize,
    box_paths: usize,
    box_mass: f64,
}

/// One traced `lower_bound`: the engine's own stages, called through the
/// crates' public functions in the engine's order. `try_explore_seeded`
/// explores; its `on_terminated` hook measures each path the instant it
/// terminates (`exact_probability`, else `box_lower_bound`) and adds it into
/// the bound and the expected-steps bound; `frontier_seeds` builds the
/// resume checkpoint. Returns the spans, the counts and the bound.
fn traced_lower_bound(p: &Program, profile: bool) -> (SpanTimes, Counts, Rational) {
    let mut spans = SpanTimes::default();
    let mut counts = Counts::default();
    let mut probability = Rational::zero();
    let mut expected_steps = Rational::zero();
    let config = p.config.exploration().with_profile(profile);
    let outer = Instant::now();
    let (exploration, _) = try_explore_seeded::<Infallible>(
        black_box(&p.term),
        &config,
        None,
        &mut |_| Ok(()),
        &mut |path, _| {
            let t = Instant::now();
            let (volume, exact) = match path.exact_probability() {
                Some(volume) => (volume, true),
                None => (path.box_lower_bound(p.config.boxes_per_path), false),
            };
            expected_steps += &volume * &Rational::from_int(path.steps as i64);
            let elapsed = t.elapsed().as_secs_f64();
            if exact {
                spans.exact += elapsed;
                counts.exact_paths += 1;
            } else {
                spans.boxes += elapsed;
                counts.box_paths += 1;
                counts.box_mass += volume.to_f64();
            }
            probability += volume;
            Ok(())
        },
    );
    let explore_call = outer.elapsed().as_secs_f64();
    let t = Instant::now();
    drop(black_box(frontier_seeds(&exploration.frontier)));
    spans.checkpoint = t.elapsed().as_secs_f64();
    if let Some(profile) = &exploration.profile {
        counts.steps = profile.steps;
        counts.forks = profile.forks;
    }
    counts.terminated = exploration.terminated.len();
    counts.out_of_fuel = exploration.out_of_fuel;
    counts.stuck = exploration.stuck;
    // Freeing the paths is the last of exploring them.
    let t = Instant::now();
    drop(exploration);
    let free = t.elapsed().as_secs_f64();
    black_box(expected_steps);
    spans.lower_bound = outer.elapsed().as_secs_f64();
    spans.explore = explore_call - spans.exact - spans.boxes + free;
    (spans, counts, probability)
}

/// The traced run: rounds of, for every program, one plain `lower_bound`
/// and one traced `lower_bound`. Layer times are medians over the rounds.
fn traced(args: &Args, programs: &[Program], report: &mut Report) -> Result<(), String> {
    // Cold pass: first-touch page faults land here, not in the rounds.
    let faults = stats::minor_faults("self")?;
    for p in programs {
        let result = lower_bound(&p.term, &p.config);
        report.check(p.accepts(&result));
    }
    let cold_faults = stats::minor_faults("self")? - faults;
    // Counts are deterministic; take them once from a profiled exploration.
    let counts: Vec<Counts> = programs
        .iter()
        .map(|p| traced_lower_bound(p, true).1)
        .collect();

    let budget = args.seconds.as_secs_f64();
    let start = Instant::now();
    let mut spans: Vec<Vec<SpanTimes>> = programs.iter().map(|_| Vec::new()).collect();
    let (mut plain_passes, mut traced_passes, mut warm_faults) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut ledger_ok = true;
    let mut round_s: f64 = 0.0;
    while plain_passes.len() < MIN_TRACED_ROUNDS
        || start.elapsed().as_secs_f64() + round_s <= budget
    {
        let round = Instant::now();
        let faults = stats::minor_faults("self")?;
        let (mut plain, mut traced) = (0.0, 0.0);
        for (p, spans) in programs.iter().zip(&mut spans) {
            let t = Instant::now();
            let result = lower_bound(black_box(&p.term), &p.config);
            plain += t.elapsed().as_secs_f64();
            report.check(p.accepts(&result));
            let (times, _, bound) = traced_lower_bound(p, false);
            if bound != result.probability {
                eprintln!(
                    "ledger: {} path volumes sum to {bound}, not to the bound {}",
                    p.name, result.probability
                );
                ledger_ok = false;
            }
            traced += times.lower_bound;
            spans.push(times);
        }
        plain_passes.push(plain);
        traced_passes.push(traced);
        warm_faults.push((stats::minor_faults("self")? - faults) as f64);
        round_s = round.elapsed().as_secs_f64();
    }

    let mut pass = SpanTimes::default();
    let mut unattributed_pass = 0.0;
    let mut min_coverage = f64::INFINITY;
    for (p, spans) in programs.iter().zip(&spans) {
        let of = |f: fn(&SpanTimes) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
        let coverage = of(|s| (s.explore + s.exact + s.boxes) / s.lower_bound);
        eprintln!(
            "ledger: explore and volume spans cover {:.1}% of {}'s lower_bound",
            coverage * 100.0,
            p.name
        );
        ledger_ok &= coverage >= LEDGER_COVERAGE;
        min_coverage = min_coverage.min(coverage);
        let times = SpanTimes {
            lower_bound: of(|s| s.lower_bound),
            explore: of(|s| s.explore),
            exact: of(|s| s.exact),
            boxes: of(|s| s.boxes),
            checkpoint: of(|s| s.checkpoint),
        };
        let unattributed = of(|s| s.lower_bound - s.children());
        report.metric(
            format!("intervalsem.lower_bound_ms.{}", p.name),
            times.lower_bound * 1e3,
            "ms",
        );
        report.metric(
            format!("intervalsem.unattributed_ms.{}", p.name),
            unattributed * 1e3,
            "ms",
        );
        unattributed_pass += unattributed;
        pass.lower_bound += times.lower_bound;
        pass.explore += times.explore;
        pass.exact += times.exact;
        pass.boxes += times.boxes;
        pass.checkpoint += times.checkpoint;
    }
    report.check(ledger_ok);

    let total = |f: fn(&Counts) -> f64| counts.iter().map(f).sum::<f64>();
    let terminated = total(|c| c.terminated as f64);
    let attempts = terminated + total(|c| (c.out_of_fuel + c.stuck) as f64);
    report.metric("intervalsem.lower_bound_ms", pass.lower_bound * 1e3, "ms");
    report.metric("intervalsem.unattributed_ms", unattributed_pass * 1e3, "ms");
    report.metric("intervalsem.explore_ms", pass.explore * 1e3, "ms");
    report.metric("intervalsem.checkpoint_ms", pass.checkpoint * 1e3, "ms");
    report.metric(
        "intervalsem.explore_steps",
        total(|c| c.steps as f64),
        "count",
    );
    report.metric("intervalsem.forks", total(|c| c.forks as f64), "count");
    report.metric("intervalsem.paths_terminated", terminated, "count");
    report.metric(
        "intervalsem.path_yield",
        terminated / attempts.max(1.0),
        "ratio",
    );
    report.metric("polytope.exact_volume_ms", pass.exact * 1e3, "ms");
    report.metric(
        "polytope.exact_paths",
        total(|c| c.exact_paths as f64),
        "count",
    );
    report.metric("intervalsem.box_sweep_ms", pass.boxes * 1e3, "ms");
    report.metric(
        "intervalsem.box_paths",
        total(|c| c.box_paths as f64),
        "count",
    );
    report.metric("intervalsem.box_mass", total(|c| c.box_mass), "probability");
    report.metric("process.minor_faults", cold_faults as f64, "count");
    report.metric("process.minor_faults_warm", median(&warm_faults), "count");
    report.metric("bench.ledger_coverage_min", min_coverage, "ratio");
    report.metric("bench.traced_rounds", plain_passes.len() as f64, "count");
    report.metric(
        "bench.trace_overhead_ms",
        (median(&traced_passes) - median(&plain_passes)) * 1e3,
        "ms",
    );
    Ok(())
}

/// The reference file of an engine workload: every program's exact bound.
/// For `nonlinear` it checks that the increment and start value, which the
/// seed picks, leave the bound unchanged.
pub fn record(workload: &str) -> Result<String, String> {
    let bound = |term: &Term, depth: usize| {
        let result = lower_bound(term, &LowerBoundConfig::default().with_depth(depth));
        assert!(!result.interrupted);
        result.probability
    };
    let mut out = String::new();
    match workload {
        "table1" => {
            for p in programs("table1", 0)? {
                out += &format!("{}\t{}\n", p.key, bound(&p.term, p.config.depth));
            }
        }
        "nonlinear" => {
            for family in gen::FAMILIES {
                let value = bound(&gen::parse(&family.source(1, 0)), family.depth);
                let shifted = bound(&gen::parse(&family.source(57, 93)), family.depth);
                if value != shifted {
                    return Err(format!("{}: the bound depends on k and s", family.name));
                }
                out += &format!("{}\t{value}\n", family.name);
            }
        }
        other => return Err(format!("nothing to record for {other}")),
    }
    Ok(out)
}
