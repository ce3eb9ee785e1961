//! The repository's benchmark: three workloads over the interval-trace
//! lower-bound engine and the NDJSON analysis service. See `README.md` in
//! this directory for why each workload exists and which layer metric should
//! move which end-to-end metric.
//!
//! ```text
//! perfbench --probterm <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record <table1|nonlinear>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! makes the separate traced run and prints the per-layer metrics. Either
//! way the last line of stdout is one JSON object. `--record` prints the
//! reference file for an engine workload (`expected/<name>.txt`).

mod calib;
mod engine;
mod gen;
mod service;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub probterm: PathBuf,
}

/// Operation counts and named metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer the workload never reaches reads 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = Vec::new();
    let programs = engine::program_names();
    for prefix in ["intervalsem.lower_bound_ms", "intervalsem.unattributed_ms"] {
        metrics.extend(programs.iter().map(|p| (format!("{prefix}.{p}"), "ms")));
    }
    let fixed: &[(&str, &'static str)] = &[
        ("intervalsem.lower_bound_ms", "ms"),
        ("intervalsem.unattributed_ms", "ms"),
        ("intervalsem.explore_ms", "ms"),
        ("intervalsem.checkpoint_ms", "ms"),
        ("intervalsem.explore_steps", "count"),
        ("intervalsem.forks", "count"),
        ("intervalsem.paths_terminated", "count"),
        ("intervalsem.path_yield", "ratio"),
        ("polytope.exact_volume_ms", "ms"),
        ("polytope.exact_paths", "count"),
        ("intervalsem.box_sweep_ms", "ms"),
        ("intervalsem.box_paths", "count"),
        ("intervalsem.box_mass", "probability"),
        ("process.minor_faults", "count"),
        ("process.minor_faults_warm", "count"),
        ("bench.ledger_coverage_min", "ratio"),
        ("bench.traced_rounds", "count"),
        ("bench.trace_overhead_ms", "ms"),
        ("service.parse_request_us", "us"),
        ("spcf.canonical_key_us", "us"),
        ("service.handle_line_us", "us"),
        ("service.transport_us", "us"),
        ("service.client_write_us", "us"),
        ("service.transport_open_us", "us"),
        ("service.open_p50_us", "us"),
        ("service.open_p95_us", "us"),
        ("service.open_cpu_us_per_req", "us"),
        ("service.idle_cpu_pct", "%"),
        ("service.cache_hit_ratio", "ratio"),
        ("service.cache_misses", "count"),
        ("service.shed", "count"),
        ("service.coalesced_waiters", "count"),
        ("astver.verify_us", "us"),
        ("intervalsem.cold_lower_bound_ms", "ms"),
        ("bench.late_frac", "ratio"),
    ];
    metrics.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    metrics
}

/// Metric names are sanitized to `[A-Za-z0-9_.-]`.
pub fn sanitize(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut out = String::new();
    for c in mapped.chars() {
        if !(c == '_' && out.ends_with('_')) {
            out.push(c);
        }
    }
    out.trim_matches('_').to_string()
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probterm = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--probterm" => probterm = Some(PathBuf::from(value()?)),
            "--record" => {
                print!("{}", engine::record(&value()?)?);
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        probterm: probterm.unwrap_or_else(|| PathBuf::from("probterm")),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "table1" | "nonlinear" => engine::run(&args),
        "service_hot" => service::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match report {
        Ok(mut report) => {
            if args.trace {
                let declared = per_layer_metrics();
                for (name, _, unit) in &report.metrics {
                    assert!(
                        declared.iter().any(|(n, u)| n == name && u == unit),
                        "undeclared per-layer metric {name} ({unit})"
                    );
                }
                for (name, unit) in declared {
                    if !report.metrics.iter().any(|(n, _, _)| *n == name) {
                        report.metric(name, 0.0, unit);
                    }
                }
            }
            for (name, value, unit) in &report.metrics {
                println!("{name:<48} {value:>16.6} {unit}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
