//! Benchmark harness regenerating the paper's evaluation (Tables 1 and 2).
//!
//! The library part of this crate contains the row-generation logic shared by
//! the `table1` / `table2` binaries and the Criterion benchmarks, so that the
//! printed tables and the timed benchmarks are guaranteed to measure exactly
//! the same computations.

#![warn(missing_docs)]

use probterm_astver::verify_ast;
use probterm_intervalsem::{lower_bound, LowerBoundConfig};
use probterm_spcf::catalog::{self, Benchmark};
use serde::{Serialize, Value};

/// A row of Table 1 (lower-bound computation).
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub term: String,
    /// The true probability of termination, when known.
    pub pterm: Option<f64>,
    /// The computed lower bound (decimal, 10 digits, truncated).
    pub lower_bound: String,
    /// The computed lower bound as a float (for quick comparisons).
    pub lower_bound_f64: f64,
    /// Lower bound on the expected number of reduction steps of terminating runs.
    pub expected_steps_lb: f64,
    /// Exploration depth used.
    pub depth: usize,
    /// Number of terminating symbolic paths found.
    pub paths: usize,
    /// Wall-clock time in milliseconds.
    pub time_ms: u128,
}

/// A row of Table 2 (AST verification).
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub term: String,
    /// The computed counting distribution `P_approx`, rendered.
    pub papprox: String,
    /// Whether AST was verified.
    pub verified: bool,
    /// Number of Environment strategies enumerated.
    pub strategies: usize,
    /// Wall-clock time in milliseconds.
    pub time_ms: u128,
}

/// The exploration depths used for Table 1, mirroring the `d` column of the
/// paper (same order as [`catalog::table1_benchmarks`]). The pedestrian model
/// uses a shallower depth, as in the paper.
pub fn table1_depths() -> Vec<usize> {
    vec![100, 200, 200, 150, 80, 90, 90, 80, 100, 40]
}

/// Depths scaled down by `factor` (for quick runs and the Criterion benches).
pub fn scaled_depths(factor: usize) -> Vec<usize> {
    table1_depths()
        .into_iter()
        .map(|d| (d / factor).max(10))
        .collect()
}

/// Computes one Table 1 row.
pub fn table1_row(benchmark: &Benchmark, depth: usize) -> Table1Row {
    let result = lower_bound(&benchmark.term, &LowerBoundConfig::default().with_depth(depth));
    Table1Row {
        term: benchmark.name.clone(),
        pterm: benchmark.expected_pterm,
        lower_bound: result.probability.to_decimal_string(10),
        lower_bound_f64: result.probability.to_f64(),
        expected_steps_lb: result.expected_steps.to_f64(),
        depth,
        paths: result.paths,
        time_ms: result.elapsed.as_millis(),
    }
}

/// Computes every row of Table 1 at the given depths (falling back to the
/// paper's depths when `depths` is shorter than the benchmark list).
pub fn table1(depths: &[usize]) -> Vec<Table1Row> {
    let defaults = table1_depths();
    catalog::table1_benchmarks()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let depth = depths.get(i).copied().unwrap_or(defaults[i]);
            table1_row(b, depth)
        })
        .collect()
}

/// Computes one Table 2 row.
pub fn table2_row(benchmark: &Benchmark) -> Table2Row {
    match verify_ast(&benchmark.term) {
        Ok(v) => Table2Row {
            term: benchmark.name.clone(),
            papprox: v.papprox.to_string(),
            verified: v.verified_ast,
            strategies: v.strategies,
            time_ms: v.elapsed.as_millis(),
        },
        Err(e) => Table2Row {
            term: benchmark.name.clone(),
            papprox: format!("error: {e}"),
            verified: false,
            strategies: 0,
            time_ms: 0,
        },
    }
}

/// Computes every row of Table 2.
pub fn table2() -> Vec<Table2Row> {
    catalog::table2_benchmarks().iter().map(table2_row).collect()
}

/// Appends one benchmark-trajectory record to `BENCH_history.jsonl` in the
/// current directory, alongside the benchmark's own `BENCH_*.json` report.
///
/// Each record is one JSONL line `{"ts": <unix seconds>, "git_rev":
/// "<short rev, -dirty when uncommitted, or unknown>", "bench": "<name>",
/// "metrics": <metrics>}`, so successive runs accumulate a perf trajectory
/// across revisions that `BENCH_*.json` (which is overwritten per run)
/// cannot show.
pub fn append_history(bench: &str, metrics: &Value) {
    append_history_to(std::path::Path::new("BENCH_history.jsonl"), bench, metrics);
}

/// Path-parameterised variant of [`append_history`] (tests point it at a
/// temporary file). Best-effort: I/O failures are swallowed so a read-only
/// checkout never fails a benchmark run over its history log.
pub fn append_history_to(path: &std::path::Path, bench: &str, metrics: &Value) {
    let record = Value::Object(vec![
        ("ts".into(), Value::UInt(unix_seconds())),
        ("git_rev".into(), Value::Str(git_rev())),
        ("bench".into(), Value::Str(bench.to_string())),
        ("metrics".into(), metrics.clone()),
    ]);
    let Ok(line) = serde_json::to_string(&record) else { return };
    if let Ok(mut file) =
        std::fs::OpenOptions::new().create(true).append(true).open(path)
    {
        use std::io::Write as _;
        let _ = writeln!(file, "{line}");
    }
}

fn unix_seconds() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| u128::from(d.as_secs()))
        .unwrap_or(0)
}

/// The checkout's revision, spelled like `git describe --always --dirty`.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    revision_stamp(
        git(&["rev-parse", "--short", "HEAD"]).as_deref(),
        git(&["status", "--porcelain", "--untracked-files=no"]).as_deref(),
    )
}

/// A history record's revision: the short commit `rev`, with `-dirty` when
/// `status` (`git status --porcelain` without untracked files) lists a
/// change, so that a run on uncommitted changes is not filed under the
/// commit they sit on; `unknown` without a revision.
fn revision_stamp(rev: Option<&str>, status: Option<&str>) -> String {
    match rev.map(str::trim).filter(|r| !r.is_empty()) {
        None => "unknown".to_string(),
        Some(rev) if status.is_some_and(|s| !s.trim().is_empty()) => format!("{rev}-dirty"),
        Some(rev) => rev.to_string(),
    }
}

/// Renders Table 1 rows as an aligned text table.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>10} {:>14} {:>12} {:>6} {:>8} {:>9}\n",
        "term", "Pterm", "LB", "E-steps LB", "d", "paths", "t (ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>10} {:>14} {:>12.4} {:>6} {:>8} {:>9}\n",
            r.term,
            r.pterm.map(|p| format!("{p:.4}")).unwrap_or_else(|| "?".into()),
            r.lower_bound,
            r.expected_steps_lb,
            r.depth,
            r.paths,
            r.time_ms
        ));
    }
    out
}

/// Renders Table 2 rows as an aligned text table.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<52} {:>9} {:>11} {:>9}\n",
        "term", "P_approx", "AST", "strategies", "t (ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<52} {:>9} {:>11} {:>9}\n",
            r.term,
            r.papprox,
            if r.verified { "verified" } else { "no" },
            r.strategies,
            r.time_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_rows_are_sound() {
        let rows = table1(&scaled_depths(4));
        assert_eq!(rows.len(), 10);
        for r in &rows {
            if let Some(p) = r.pterm {
                assert!(
                    r.lower_bound_f64 <= p + 1e-9,
                    "{}: {} > {}",
                    r.term,
                    r.lower_bound_f64,
                    p
                );
            }
            assert!(r.lower_bound_f64 >= 0.0);
        }
        let rendered = render_table1(&rows);
        assert!(rendered.contains("geo"));
        assert!(rendered.contains("pedestrian"));
    }

    #[test]
    fn history_records_append_as_jsonl() {
        let path = std::env::temp_dir()
            .join(format!("BENCH_history_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_history_to(&path, "table1", &Value::Array(vec![]));
        append_history_to(
            &path,
            "table2",
            &Value::Object(vec![("rows".into(), Value::UInt(5))]),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "appends, never overwrites: {text}");
        for line in &lines {
            let v: Value = serde_json::from_str(line).unwrap();
            for field in ["ts", "git_rev", "bench", "metrics"] {
                assert!(v.get(field).is_some(), "missing {field}: {line}");
            }
        }
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("bench").and_then(Value::as_str), Some("table2"));
        assert_eq!(
            second.get("metrics").unwrap().get("rows").and_then(Value::as_u64),
            Some(5)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn revisions_of_uncommitted_trees_are_marked_dirty() {
        assert_eq!(revision_stamp(Some("c873b83\n"), Some("")), "c873b83");
        assert_eq!(
            revision_stamp(Some("c873b83\n"), Some(" M crates/bench/src/lib.rs\n")),
            "c873b83-dirty"
        );
        assert_eq!(revision_stamp(Some("c873b83"), None), "c873b83");
        assert_eq!(revision_stamp(None, Some(" M a.rs\n")), "unknown");
        assert_eq!(revision_stamp(Some("  "), Some("")), "unknown");
    }

    #[test]
    fn table2_rows_match_the_paper() {
        let rows = table2();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.verified), "{rows:?}");
        assert!(rows[0].papprox.contains("δ0"));
        assert!(rows[1].papprox.contains("δ2"));
        assert!(rows[2].papprox.contains("δ3"));
        let rendered = render_table2(&rows);
        assert!(rendered.contains("verified"));
        // Serialisable for the JSON report.
        let json = serde_json::to_string(&rows).unwrap();
        assert!(json.contains("papprox"));
    }
}
