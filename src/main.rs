//! `probterm` — command-line interface to the termination analyses.
//!
//! ```text
//! probterm analyze   (<file> | -e <program>)   [--depth N] [--mc RUNS] [--seed N] [--profile]
//! probterm lower     (<file> | -e <program>)   [--depth N] [--deadline-ms N] [--profile]
//! probterm explain   (<file> | -e <program>)   [--format text|json|dot] [--top K] [--depth N] [--deadline-ms N] [--ast]
//! probterm verify    (<file> | -e <program>)   [--profile]
//! probterm simulate  (<file> | -e <program>)   [--runs N] [--steps N] [--seed N] [--cbv] [--profile]
//! probterm serve     [--addr HOST:PORT] [--workers N] [--cache N] [--trace PATH|-] [--slow-ms N]
//!                    [--queue-depth N] [--idle-timeout-ms N] [--inject SPEC]
//!                    [--cache-path PATH] [--max-conns N]
//! probterm top       --addr HOST:PORT             [--once] [--interval-ms N]
//! probterm bench-report [<history.jsonl>]         [--threshold PCT] [--format text|json] [--strict]
//! probterm trace-check <file>
//! probterm explain-check <file>
//! probterm catalog
//! ```
//!
//! Programs use the SPCF surface syntax, e.g.
//! `(fix phi x. if sample <= 0.5 then x else phi (phi (x + 1))) 1`.
//!
//! `serve` speaks newline-delimited JSON over TCP when `--addr` is given and
//! over stdin/stdout otherwise; see the README for the wire protocol.

use probterm::core::astver::{build_tree, try_verify_ast_profiled};
use probterm::core::intervalsem::{
    lower_bound, try_explain, try_lower_bound, ExplainConfig, LowerBoundConfig, Poll,
};
use probterm::core::{analyze, analyze_ast, AnalysisConfig};
use probterm::numerics::Rational;
use probterm::service::{InjectSpec, Op, Server, ServerConfig, TraceSink};
use probterm::spcf::{
    catalog, estimate_termination, estimate_termination_profiled, parse_term, MonteCarloConfig,
    Strategy, Term,
};
use probterm_telemetry::EngineProfile;
use serde::Value;
use std::process::ExitCode;

struct Options {
    positional: Vec<String>,
    inline: Option<String>,
    depth: usize,
    runs: usize,
    runs_set: bool,
    steps: usize,
    seed: u64,
    cbv: bool,
    deadline_ms: Option<u64>,
    addr: Option<String>,
    workers: usize,
    cache: usize,
    profile: bool,
    trace: Option<String>,
    format: String,
    top: Option<usize>,
    slow_ms: Option<u64>,
    queue_depth: usize,
    idle_timeout_ms: Option<u64>,
    inject: Option<String>,
    cache_path: Option<String>,
    max_conns: usize,
    ast: bool,
    once: bool,
    interval_ms: u64,
    threshold: f64,
    strict: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        positional: Vec::new(),
        inline: None,
        depth: 120,
        runs: 10_000,
        runs_set: false,
        steps: 20_000,
        seed: 2021,
        cbv: false,
        deadline_ms: None,
        addr: None,
        workers: 2,
        cache: 1024,
        profile: false,
        trace: None,
        format: "text".to_string(),
        top: None,
        slow_ms: None,
        queue_depth: 256,
        idle_timeout_ms: None,
        inject: None,
        cache_path: None,
        max_conns: 1024,
        ast: false,
        once: false,
        interval_ms: 1000,
        threshold: 20.0,
        strict: false,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-e" | "--expr" => {
                options.inline = Some(
                    iter.next()
                        .ok_or_else(|| "-e requires a program argument".to_string())?
                        .clone(),
                );
            }
            "--depth" => {
                options.depth = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--depth requires a number".to_string())?;
            }
            "--runs" | "--mc" => {
                options.runs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--runs requires a number".to_string())?;
                options.runs_set = true;
            }
            "--steps" => {
                options.steps = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--steps requires a number".to_string())?;
            }
            "--seed" => {
                options.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--seed requires a number".to_string())?;
            }
            "--cbv" => options.cbv = true,
            "--profile" => options.profile = true,
            "--ast" => options.ast = true,
            "--once" => options.once = true,
            "--strict" => options.strict = true,
            "--interval-ms" => {
                options.interval_ms = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .ok_or_else(|| "--interval-ms requires a positive number".to_string())?;
            }
            "--threshold" => {
                options.threshold = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                    .ok_or_else(|| "--threshold requires a percentage".to_string())?;
            }
            "--format" => {
                options.format = iter
                    .next()
                    .ok_or_else(|| "--format requires text, json or dot".to_string())?
                    .clone();
            }
            "--top" => {
                options.top = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--top requires a number".to_string())?,
                );
            }
            "--slow-ms" => {
                options.slow_ms = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--slow-ms requires a number".to_string())?,
                );
            }
            "--trace" => {
                options.trace = Some(
                    iter.next()
                        .ok_or_else(|| "--trace requires a path (or `-` for stderr)".to_string())?
                        .clone(),
                );
            }
            "--deadline-ms" => {
                options.deadline_ms = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--deadline-ms requires a number".to_string())?,
                );
            }
            "--addr" => {
                options.addr = Some(
                    iter.next()
                        .ok_or_else(|| "--addr requires HOST:PORT".to_string())?
                        .clone(),
                );
            }
            "--workers" => {
                options.workers = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "--workers requires a positive number".to_string())?;
            }
            "--cache" => {
                options.cache = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--cache requires a number".to_string())?;
            }
            "--queue-depth" => {
                options.queue_depth = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "--queue-depth requires a number".to_string())?;
            }
            "--idle-timeout-ms" => {
                options.idle_timeout_ms = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .ok_or_else(|| {
                            "--idle-timeout-ms requires a positive number".to_string()
                        })?,
                );
            }
            "--inject" => {
                options.inject = Some(
                    iter.next()
                        .ok_or_else(|| "--inject requires a fault spec".to_string())?
                        .clone(),
                );
            }
            "--cache-path" => {
                options.cache_path = Some(
                    iter.next()
                        .ok_or_else(|| "--cache-path requires a file path".to_string())?
                        .clone(),
                );
            }
            "--max-conns" => {
                options.max_conns = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "--max-conns requires a positive number".to_string())?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            other => options.positional.push(other.to_string()),
        }
    }
    Ok(options)
}

fn load_program(options: &Options) -> Result<(String, Term), String> {
    let source = if let Some(inline) = &options.inline {
        inline.clone()
    } else if let Some(path) = options.positional.first() {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else {
        return Err("no program given: pass a file or -e '<program>'".to_string());
    };
    let term = parse_term(&source).map_err(|e| format!("parse error: {e}"))?;
    Ok((source, term))
}

fn usage() -> &'static str {
    "usage: probterm <analyze|lower|explain|verify|simulate|serve|top|bench-report|trace-check|explain-check|catalog> [<file> | -e '<program>'] [options]\n\
     options: --depth N   exploration depth for the lower-bound engine (default 120)\n\
              --deadline-ms N  wall-clock budget for `lower`/`explain`; an expired\n\
                          budget reports the sound partial result computed so far\n\
              --runs N    Monte-Carlo runs for `simulate` (default 10000)\n\
              --steps N   step budget per Monte-Carlo run (default 20000)\n\
              --seed N    RNG seed for Monte-Carlo runs (default 2021)\n\
              --cbv       simulate with call-by-value instead of call-by-name\n\
              --profile   print engine event profiles (steps, event kinds,\n\
                          forks, frontier depth) after the analysis\n\
     explain: --format F  text (default), json (documented probterm-explain-v1\n\
                          schema) or dot (graphviz digraph of the path tree)\n\
              --top K     show only the K largest volume contributions\n\
              --ast       render the AST-verifier execution tree instead of\n\
                          the symbolic path provenance (text or dot)\n\
     serve:   --addr H:P  serve NDJSON over TCP on H:P (default: stdin/stdout)\n\
              --workers N worker threads (default 2)\n\
              --cache N   result-cache capacity, 0 disables (default 1024)\n\
              --trace P   stream one JSONL trace record per request to file P\n\
                          (`-` streams to stderr; stdout carries the protocol)\n\
              --slow-ms N log a structured stderr line for every request whose\n\
                          engine phase exceeds N ms\n\
              --queue-depth N  shed engine requests with a structured\n\
                          `overloaded` reply (carrying retry_after_ms) once N\n\
                          jobs are queued; 0 disables (default 256)\n\
              --idle-timeout-ms N  close TCP connections idle for N ms with a\n\
                          structured `idle_timeout` notice (default: off)\n\
              --inject S  deterministic fault injection for chaos testing,\n\
                          e.g. 'seed=7;panic=@4;slow=0.1:50;drop=@9'\n\
                          (RULE is a probability or @N = every Nth engine run)\n\
              --cache-path P  persist the result cache to P at graceful drain\n\
                          and preload it at boot (version-stamped snapshot)\n\
              --max-conns N  refuse TCP connections beyond N concurrently\n\
                          open, with a structured `overloaded` reply\n\
                          (default 1024)\n\
     top:     --addr H:P  poll `stats` + `inspect` on a running server and\n\
                          redraw a terminal dashboard (served/cache/shed plus\n\
                          the in-flight request table with live bounds)\n\
              --once      print one snapshot and exit (for scripts and CI)\n\
              --interval-ms N  redraw period (default 1000)\n\
     bench-report [<file>]  read a BENCH_history.jsonl (default ./), compare\n\
                          the latest record of every bench against the median\n\
                          of its earlier records, and flag regressions\n\
                          (throughput down or latency up beyond the threshold;\n\
                          a metric recorded with a MAD beyond 4 MADs instead)\n\
              --threshold PCT  relative change that counts as a regression\n\
                          (default 20)\n\
              --format F  text (default) or json\n\
              --strict    exit nonzero on regressions (default: warn only)\n\
     trace-check <file>:  validate a --trace output file (each line parses as\n\
                          JSON, carries the trace schema fields with a known\n\
                          `op` name, every `seq` is unique and phase times\n\
                          sum to at most `total_us`)\n\
     explain-check <file>: validate an `explain --format json` artifact (schema\n\
                          fields, exact volume accounting, witness replays)"
}

/// Prints one engine profile under the `--profile` flag.
fn print_profile(label: &str, profile: Option<&EngineProfile>) {
    match profile {
        Some(p) => eprintln!("profile[{label}]: {p}"),
        None => eprintln!("profile[{label}]: (not collected)"),
    }
}

/// `probterm trace-check <file>`: every non-empty line must parse as a JSON
/// object carrying the per-request trace schema, every `seq` must be unique
/// (records land in *completion* order — a shed reply written by the reader
/// thread, or one of several workers finishing early, legitimately outruns
/// an earlier-numbered request still in flight — so uniqueness, not file
/// order, is the invariant: one record per request, none dropped or
/// duplicated), every `op` must name a real service op (or `invalid`, the
/// marker for unparseable requests), and the four phase timings must sum to
/// at most `total_us` (phases nest inside the end-to-end timer window, and
/// flooring to whole microseconds only shrinks sums). Errors name the first
/// offending line. Prints a one-line summary.
fn trace_check(path: &str) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    const REQUIRED: [&str; 8] = [
        "seq", "op", "queue_us", "cache_us", "engine_us", "serialize_us", "total_us", "outcome",
    ];
    const PHASES: [&str; 4] = ["queue_us", "cache_us", "engine_us", "serialize_us"];
    let known = known_ops();
    let mut records = 0usize;
    let mut seen_seqs = std::collections::HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{lineno}: not valid JSON: {e}"))?;
        for field in REQUIRED {
            if value.get(field).is_none() {
                return Err(format!("{path}:{lineno}: trace record is missing `{field}`"));
            }
        }
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{lineno}: `op` is not a string"))?;
        if !known.contains(&op) {
            return Err(format!(
                "{path}:{lineno}: unknown op `{op}` — not in the service op table"
            ));
        }
        let number = |field: &str| -> Result<u64, String> {
            value
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{path}:{lineno}: `{field}` is not a non-negative integer"))
        };
        let seq = number("seq")?;
        if !seen_seqs.insert(seq) {
            return Err(format!(
                "{path}:{lineno}: duplicate `seq` {seq} — every request must trace exactly once"
            ));
        }
        // Optional marker on replies fanned out to coalesced waiters: when
        // present it must be the boolean `true` (leaders and ordinary
        // requests simply omit it).
        if let Some(coalesced) = value.get("coalesced") {
            if coalesced.as_bool() != Some(true) {
                return Err(format!(
                    "{path}:{lineno}: `coalesced` must be the boolean true when present"
                ));
            }
        }
        let total = number("total_us")?;
        let mut phase_sum = 0u64;
        for phase in PHASES {
            phase_sum = phase_sum.saturating_add(number(phase)?);
        }
        if phase_sum > total {
            return Err(format!(
                "{path}:{lineno}: phase times sum to {phase_sum} µs, exceeding total_us {total}"
            ));
        }
        records += 1;
    }
    Ok(records)
}

/// `probterm explain-check <file>`: validates an `explain --format json`
/// artifact. Checks the `probterm-explain-v1` schema fields, that every
/// present witness replayed on the concrete machine, and the exact rational
/// accounting: shown path volumes re-sum to `probability` (equality when
/// the artifact is untruncated, `<=` under `--top`) and
/// `attributed_mass + unaccounted_mass = 1`. Returns a one-line summary.
fn explain_check(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: Value =
        serde_json::from_str(text.trim()).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let schema = value.get("schema").and_then(Value::as_str);
    if schema != Some(probterm::explain::SCHEMA) {
        return Err(format!(
            "{path}: schema is {schema:?}, expected {:?}",
            probterm::explain::SCHEMA
        ));
    }
    for field in [
        "program", "depth", "complete", "probability", "probability_f64", "expected_steps",
        "elapsed_ms", "paths_total", "paths_shown", "paths", "frontier",
    ] {
        if value.get(field).is_none() {
            return Err(format!("{path}: artifact is missing `{field}`"));
        }
    }
    let rational = |object: &Value, field: &str| -> Result<Rational, String> {
        object
            .get(field)
            .and_then(Value::as_str)
            .and_then(Rational::parse)
            .ok_or_else(|| format!("{path}: `{field}` is not a rational string"))
    };
    let probability = rational(&value, "probability")?;
    let frontier = value.get("frontier").unwrap();
    for field in ["paused", "stuck", "interrupted", "exploration_complete", "depth_histogram"] {
        if frontier.get(field).is_none() {
            return Err(format!("{path}: frontier is missing `{field}`"));
        }
    }
    let attributed = rational(frontier, "attributed_mass")?;
    let unaccounted = rational(frontier, "unaccounted_mass")?;
    if &attributed + &unaccounted != Rational::one() {
        return Err(format!(
            "{path}: attributed_mass {attributed} + unaccounted_mass {unaccounted} != 1"
        ));
    }
    let paths = value
        .get("paths")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: `paths` is not an array"))?;
    let shown = value.get("paths_shown").and_then(Value::as_u64).unwrap_or(0);
    let total = value.get("paths_total").and_then(Value::as_u64).unwrap_or(0);
    if paths.len() as u64 != shown {
        return Err(format!("{path}: paths_shown {shown} != {} paths listed", paths.len()));
    }
    let mut sum = Rational::zero();
    let mut witnesses = 0usize;
    for (i, p) in paths.iter().enumerate() {
        for field in ["index", "volume", "method", "samples", "steps", "branches", "constraints"] {
            if p.get(field).is_none() {
                return Err(format!("{path}: path {i} is missing `{field}`"));
            }
        }
        sum = &sum + &rational(p, "volume")?;
        let witness = p.get("witness").unwrap_or(&Value::Null);
        if !witness.is_null() {
            witnesses += 1;
            if witness.get("replayed").and_then(Value::as_bool) != Some(true) {
                return Err(format!(
                    "{path}: path {i} carries a witness that did not replay"
                ));
            }
        }
    }
    if shown == total && sum != probability {
        return Err(format!(
            "{path}: path volumes sum to {sum}, but probability is {probability}"
        ));
    }
    if shown < total && sum > probability {
        return Err(format!(
            "{path}: truncated path volumes sum to {sum}, exceeding probability {probability}"
        ));
    }
    Ok(format!(
        "ok: {shown}/{total} paths, {witnesses} witnesses replayed, probability {probability}, unaccounted {unaccounted}"
    ))
}

/// Every `op` name a trace record may carry: the service op table plus
/// `invalid`, the marker the tracer writes for unparseable requests. Derived
/// from [`Op::ALL`] so a new service op cannot silently desynchronise the
/// checker.
fn known_ops() -> Vec<&'static str> {
    Op::ALL.iter().map(|op| op.as_str()).chain(std::iter::once("invalid")).collect()
}

// ------------------------------------------------------------------- `top`

/// One round-trip to a running `probterm serve --addr`: sends each request
/// line over a fresh TCP connection and returns the `result` payload of each
/// reply, in order. A reconnect per poll keeps the dashboard robust against
/// server idle timeouts and restarts.
fn service_results(addr: &str, requests: &[&str]) -> Result<Vec<Value>, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| format!("cannot configure the connection to {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the connection to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut results = Vec::with_capacity(requests.len());
    // Strictly request/reply: pipelining both requests would let the worker
    // pool finish them in either order, scrambling which payload is which.
    for request in requests {
        writeln!(writer, "{request}").map_err(|e| format!("cannot send to {addr}: {e}"))?;
        writer.flush().map_err(|e| format!("cannot send to {addr}: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("no reply from {addr}: {e}"))?;
        let reply: Value = serde_json::from_str(line.trim())
            .map_err(|e| format!("bad reply from {addr}: {e}"))?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("service error replying to `{request}`: {}", line.trim()));
        }
        results.push(reply.get("result").cloned().unwrap_or(Value::Null));
    }
    Ok(results)
}

/// Renders one `top` screen from a `stats` and an `inspect` payload.
fn render_top(addr: &str, stats: &Value, inspect: &Value) -> String {
    use std::fmt::Write as _;
    let u = |v: &Value, field: &str| v.get(field).and_then(Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "probterm top — {addr}   uptime {:.1}s   workers {}   inflight {}",
        u(stats, "uptime_ms") as f64 / 1000.0,
        u(stats, "workers"),
        u(stats, "inflight"),
    );
    let oldest = match stats.get("oldest_entry_ms").and_then(Value::as_u64) {
        Some(ms) => format!("{ms} ms"),
        None => "-".to_string(),
    };
    let _ = writeln!(
        out,
        "served {}   cache {}/{} entries {} B oldest {oldest}   hits {}   misses {}   shed {}",
        u(stats, "served"),
        u(stats, "cache_entries"),
        u(stats, "cache_capacity"),
        u(stats, "cache_bytes"),
        u(stats, "hits"),
        u(stats, "misses"),
        stats.get("robustness").map_or(0, |r| u(r, "shed")),
    );
    if let Some(Value::Object(ops)) = stats.get("ops") {
        if !ops.is_empty() {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>6} {:>9} {:>9} {:>9}",
                "op", "reqs", "errs", "p50_us", "p95_us", "p99_us"
            );
            for (name, op) in ops {
                let total = op.get("total_us").cloned().unwrap_or(Value::Null);
                let _ = writeln!(
                    out,
                    "{name:<10} {:>8} {:>6} {:>9} {:>9} {:>9}",
                    u(op, "requests"),
                    u(op, "errors"),
                    u(&total, "p50"),
                    u(&total, "p95"),
                    u(&total, "p99"),
                );
            }
        }
    }
    let _ = writeln!(out, "in-flight ({}):", u(inspect, "count"));
    match inspect.get("inflight").and_then(Value::as_array) {
        Some(rows) if !rows.is_empty() => {
            let _ = writeln!(
                out,
                "  {:<14} {:<9} {:>8} {:<7} {:>12} {:>7} {:>9} {:>10}",
                "id", "op", "age_ms", "phase", "steps", "paths", "frontier", "bound"
            );
            for row in rows {
                let id = row.get("id").map_or_else(
                    || "-".to_string(),
                    |v| match v {
                        Value::Str(s) => s.clone(),
                        Value::Null => "-".to_string(),
                        other => serde_json::to_string(other)
                            .unwrap_or_else(|_| "?".to_string()),
                    },
                );
                let empty = Value::Null;
                let p = row.get("progress").unwrap_or(&empty);
                let _ = writeln!(
                    out,
                    "  {id:<14} {:<9} {:>8} {:<7} {:>12} {:>7} {:>9} {:>10.6}",
                    row.get("op").and_then(Value::as_str).unwrap_or("?"),
                    u(row, "age_ms"),
                    row.get("phase").and_then(Value::as_str).unwrap_or("?"),
                    u(p, "steps"),
                    u(p, "paths"),
                    u(p, "frontier"),
                    p.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                );
            }
        }
        _ => {
            let _ = writeln!(out, "  (idle)");
        }
    }
    out
}

/// `probterm top`: polls `stats` + `inspect` and redraws a dashboard.
/// `--once` prints a single snapshot without clearing the screen, so CI logs
/// stay readable.
fn top_command(options: &Options) -> Result<(), String> {
    let addr = options
        .addr
        .as_deref()
        .ok_or_else(|| "top requires --addr HOST:PORT of a running `probterm serve`".to_string())?;
    let requests =
        [r#"{"id":"top","op":"stats"}"#, r#"{"id":"top","op":"inspect"}"#];
    loop {
        let results = service_results(addr, &requests)?;
        let screen = render_top(addr, &results[0], &results[1]);
        if options.once {
            print!("{screen}");
            return Ok(());
        }
        // Clear and repaint with plain ANSI; no terminal library needed.
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

// ---------------------------------------------------------- `bench-report`

/// One flagged metric: the latest record moved beyond the threshold in the
/// bad direction relative to the baseline (median of earlier records).
#[derive(Debug, Clone, PartialEq)]
struct Regression {
    bench: String,
    metric: String,
    baseline: f64,
    latest: f64,
    delta_pct: f64,
}

/// Outcome of a `bench-report` run over one history file.
#[derive(Debug)]
struct BenchReport {
    records: usize,
    benches: usize,
    compared: usize,
    regressions: Vec<Regression>,
}

/// Whether a larger value of `metric` is better (`Some(true)`), worse
/// (`Some(false)`), or not comparable (`None`). Throughputs want to go up;
/// timings want to go down; anything else (counters, sizes, request totals,
/// the MAD recorded beside a timing) has no inherent direction and is
/// skipped rather than guessed.
fn metric_direction(metric: &str) -> Option<bool> {
    let name = metric.rsplit('/').next().unwrap_or(metric);
    if name.contains("_mad") {
        None
    } else if name.contains("per_sec") || name.contains("throughput") || name.contains("speedup") {
        Some(true)
    } else if name.ends_with("_us") || name.ends_with("_ms") {
        Some(false)
    } else {
        None
    }
}

/// Flattens one history record's `metrics` value into `(name, value)` pairs.
/// Arrays of scenario objects (the `service_load` shape) prefix each field
/// with the element's `scenario` name (or its index when unnamed); nested
/// objects flatten with `/`-joined paths; non-numeric leaves are dropped.
fn flatten_metrics(metrics: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match metrics {
        Value::Object(fields) => {
            for (key, value) in fields {
                if key == "scenario" {
                    continue;
                }
                let name = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}/{key}")
                };
                match value.as_f64() {
                    Some(x) => out.push((name, x)),
                    None => flatten_metrics(value, &name, out),
                }
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = item
                    .get("scenario")
                    .and_then(Value::as_str)
                    .map_or_else(|| i.to_string(), str::to_string);
                let nested = if prefix.is_empty() {
                    label
                } else {
                    format!("{prefix}/{label}")
                };
                flatten_metrics(item, &nested, out);
            }
        }
        _ => {}
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// How many spreads a metric must move, in its bad direction, to count as a
/// regression when its record carries a MAD (median absolute deviation).
const MAD_MULTIPLE: f64 = 4.0;

/// The spread (an absolute MAD) of each metric of one flattened record that
/// has one. A timed column `<stem>_<unit>` takes the MAD its record keeps in
/// `<stem>_mad_<unit>`. Any other metric of an object holding exactly two
/// such columns is their ratio (the `speedup` of `symbolic_scaling`): its
/// relative spread is the sum of the two columns' relative spreads, the
/// first-order bound on a quotient's relative error.
fn metric_spreads(flat: &[(String, f64)]) -> std::collections::HashMap<&str, f64> {
    /// `(prefix, leaf)` of a flattened name; the prefix keeps its `/`.
    fn split(name: &str) -> (&str, &str) {
        name.rfind('/').map_or(("", name), |i| name.split_at(i + 1))
    }
    let values: std::collections::HashMap<&str, f64> =
        flat.iter().map(|(name, value)| (name.as_str(), *value)).collect();
    let mut spreads = std::collections::HashMap::new();
    for (name, value) in flat {
        let (prefix, leaf) = split(name);
        if leaf.contains("_mad") {
            continue;
        }
        let own = leaf
            .rsplit_once('_')
            .and_then(|(stem, unit)| values.get(format!("{prefix}{stem}_mad_{unit}").as_str()));
        let spread = own.copied().or_else(|| {
            let columns: Vec<f64> = flat
                .iter()
                .filter_map(|(mad_name, mad)| {
                    let (mad_prefix, mad_leaf) = split(mad_name);
                    let column = mad_leaf.replacen("_mad_", "_", 1);
                    if mad_prefix != prefix || column == mad_leaf {
                        return None;
                    }
                    let column = values.get(format!("{prefix}{column}").as_str())?;
                    (*column > 0.0).then(|| mad / column)
                })
                .collect();
            (columns.len() == 2).then(|| columns.iter().sum::<f64>() * value.abs())
        });
        if let Some(spread) = spread {
            spreads.insert(name.as_str(), spread);
        }
    }
    spreads
}

/// Compares the latest record of every bench against the median of that
/// bench's earlier records, metric by metric. A metric whose latest record
/// carries a spread ([`metric_spreads`]) regresses when it moves in its bad
/// direction by more than [`MAD_MULTIPLE`] times the latest spread and the
/// median earlier spread combined (in quadrature); any other metric when it
/// moves by more than `threshold_pct` percent. Metrics without a direction,
/// without history, or with a non-positive baseline (relative change is
/// undefined) are skipped; `compared` counts only actual comparisons.
fn analyze_history(
    records: &[(String, Vec<(String, f64)>)],
    threshold_pct: f64,
) -> BenchReport {
    let mut latest_index = std::collections::HashMap::new();
    for (i, (bench, _)) in records.iter().enumerate() {
        latest_index.insert(bench.as_str(), i);
    }
    let mut benches: Vec<&str> = latest_index.keys().copied().collect();
    benches.sort_unstable();
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for bench in &benches {
        let last = latest_index[bench];
        let mut history: std::collections::HashMap<&str, Vec<f64>> =
            std::collections::HashMap::new();
        let mut spread_history: std::collections::HashMap<&str, Vec<f64>> =
            std::collections::HashMap::new();
        for (b, flat) in &records[..last] {
            if b.as_str() != *bench {
                continue;
            }
            for (metric, value) in flat {
                history.entry(metric.as_str()).or_default().push(*value);
            }
            for (metric, spread) in metric_spreads(flat) {
                spread_history.entry(metric).or_default().push(spread);
            }
        }
        let latest_spreads = metric_spreads(&records[last].1);
        for (metric, latest) in &records[last].1 {
            let Some(higher_is_better) = metric_direction(metric) else { continue };
            let Some(samples) = history.get_mut(metric.as_str()) else { continue };
            let baseline = median(samples);
            if baseline <= 0.0 {
                continue;
            }
            compared += 1;
            let delta_pct = (latest - baseline) / baseline * 100.0;
            let worse_by = if higher_is_better { baseline - latest } else { latest - baseline };
            let regressed = match latest_spreads.get(metric.as_str()) {
                Some(spread) => {
                    let earlier = spread_history.get_mut(metric.as_str()).map_or(0.0, |s| median(s));
                    worse_by > MAD_MULTIPLE * spread.hypot(earlier)
                }
                None => worse_by / baseline * 100.0 > threshold_pct,
            };
            if regressed {
                regressions.push(Regression {
                    bench: (*bench).to_string(),
                    metric: metric.clone(),
                    baseline,
                    latest: *latest,
                    delta_pct,
                });
            }
        }
    }
    BenchReport { records: records.len(), benches: benches.len(), compared, regressions }
}

/// `probterm bench-report <file>`: parses a `BENCH_history.jsonl` (the
/// append-only log the bench harness writes) and runs the regression
/// sentinel over it. Errors name the first offending line.
fn bench_report(path: &str, threshold_pct: f64) -> Result<BenchReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut parsed = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{lineno}: not valid JSON: {e}"))?;
        let bench = value
            .get("bench")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{lineno}: history record is missing `bench`"))?
            .to_string();
        let metrics = value
            .get("metrics")
            .ok_or_else(|| format!("{path}:{lineno}: history record is missing `metrics`"))?;
        let mut flat = Vec::new();
        flatten_metrics(metrics, "", &mut flat);
        parsed.push((bench, flat));
    }
    Ok(analyze_history(&parsed, threshold_pct))
}

/// Renders a [`BenchReport`] as text or JSON.
fn render_bench_report(
    report: &BenchReport,
    threshold_pct: f64,
    format: &str,
) -> Result<String, String> {
    match format {
        "text" => {
            use std::fmt::Write as _;
            let mut out = format!(
                "bench-report: {} records, {} benches, {} metrics compared, {} regressions (threshold {threshold_pct}%)\n",
                report.records,
                report.benches,
                report.compared,
                report.regressions.len(),
            );
            for r in &report.regressions {
                let _ = writeln!(
                    out,
                    "  regression {}/{}: baseline {:.3} -> latest {:.3} ({:+.1}%)",
                    r.bench, r.metric, r.baseline, r.latest, r.delta_pct
                );
            }
            Ok(out)
        }
        "json" => {
            let value = Value::Object(vec![
                ("records".into(), Value::UInt(report.records as u128)),
                ("benches".into(), Value::UInt(report.benches as u128)),
                ("compared".into(), Value::UInt(report.compared as u128)),
                ("threshold_pct".into(), Value::Num(threshold_pct)),
                (
                    "regressions".into(),
                    Value::Array(
                        report
                            .regressions
                            .iter()
                            .map(|r| {
                                Value::Object(vec![
                                    ("bench".into(), Value::Str(r.bench.clone())),
                                    ("metric".into(), Value::Str(r.metric.clone())),
                                    ("baseline".into(), Value::Num(r.baseline)),
                                    ("latest".into(), Value::Num(r.latest)),
                                    ("delta_pct".into(), Value::Num(r.delta_pct)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            serde_json::to_string(&value)
                .map(|s| s + "\n")
                .map_err(|e| format!("cannot render JSON: {e}"))
        }
        other => Err(format!("unknown format `{other}` (use text or json)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let options = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "catalog" => {
            println!("Table 1 benchmarks:");
            for b in catalog::table1_benchmarks() {
                println!("  {:<18} {}", b.name, b.description);
            }
            println!("Table 2 benchmarks:");
            for b in catalog::table2_benchmarks() {
                println!("  {:<18} {}", b.name, b.description);
            }
            ExitCode::SUCCESS
        }
        "top" => match top_command(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "bench-report" => {
            let path =
                options.positional.first().map_or("BENCH_history.jsonl", String::as_str);
            let rendered = bench_report(path, options.threshold).and_then(|report| {
                render_bench_report(&report, options.threshold, &options.format)
                    .map(|text| (report, text))
            });
            match rendered {
                Ok((report, text)) => {
                    print!("{text}");
                    if report.regressions.is_empty() {
                        ExitCode::SUCCESS
                    } else if options.strict {
                        eprintln!(
                            "error: {} regression(s) beyond {}% in {path}",
                            report.regressions.len(),
                            options.threshold
                        );
                        ExitCode::FAILURE
                    } else {
                        // Soft gate: noisy benches should not block merges
                        // unless the caller opts into --strict.
                        eprintln!(
                            "warning: {} regression(s) beyond {}% in {path} (pass --strict to fail)",
                            report.regressions.len(),
                            options.threshold
                        );
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "trace-check" => match options.positional.first() {
            None => {
                eprintln!("error: trace-check requires a file argument\n{}", usage());
                ExitCode::FAILURE
            }
            Some(path) => match trace_check(path) {
                Ok(records) => {
                    println!("ok: {records} trace records in {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
        },
        "explain-check" => match options.positional.first() {
            None => {
                eprintln!("error: explain-check requires a file argument\n{}", usage());
                ExitCode::FAILURE
            }
            Some(path) => match explain_check(path) {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
        },
        "serve" => {
            let trace = match options.trace.as_deref() {
                None => None,
                Some("-") => Some(TraceSink::to_stderr()),
                Some(path) => match TraceSink::to_file(path) {
                    Ok(sink) => Some(sink),
                    Err(e) => {
                        eprintln!("error: cannot open trace file {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let inject = match options.inject.as_deref().map(InjectSpec::parse) {
                None => None,
                Some(Ok(spec)) => Some(spec),
                Some(Err(e)) => {
                    eprintln!("error: bad --inject spec: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let server = Server::with_trace(
                ServerConfig {
                    workers: options.workers,
                    cache_capacity: options.cache,
                    slow_ms: options.slow_ms,
                    queue_depth: options.queue_depth,
                    idle_timeout_ms: options.idle_timeout_ms,
                    inject,
                    cache_path: options.cache_path.clone(),
                    max_conns: options.max_conns,
                    ..Default::default()
                },
                trace,
            );
            let served = match &options.addr {
                Some(addr) => match std::net::TcpListener::bind(addr) {
                    Ok(listener) => {
                        match listener.local_addr() {
                            Ok(bound) => eprintln!("probterm-service listening on {bound}"),
                            Err(_) => eprintln!("probterm-service listening on {addr}"),
                        }
                        server.serve_listener(listener)
                    }
                    Err(e) => {
                        eprintln!("error: cannot bind {addr}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => server.serve_stdio(),
            };
            match served {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "analyze" | "lower" | "explain" | "verify" | "simulate" => {
            let (source, term) = match load_program(&options) {
                Ok(loaded) => loaded,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match command.as_str() {
                "analyze" => {
                    let report = analyze(
                        &term,
                        &AnalysisConfig {
                            lower_bound_depth: options.depth,
                            // `--mc RUNS` opts the cross-check in; it is off
                            // by default because it can dwarf the exact
                            // analyses on divergent programs.
                            monte_carlo_runs: if options.runs_set { options.runs } else { 0 },
                            monte_carlo_steps: options.steps,
                            seed: options.seed,
                            profile: options.profile,
                        },
                    );
                    print!("{report}");
                    if options.profile {
                        print_profile("lower", report.lower_bound.profile.as_ref());
                        print_profile(
                            "verify",
                            report.ast.as_ref().and_then(|v| v.profile.as_ref()),
                        );
                    }
                }
                "lower" => {
                    // Defaults live in LowerBoundConfig; the CLI only layers
                    // its flags on top (same builder the service and the
                    // bench harness use).
                    let config = LowerBoundConfig::default()
                        .with_depth(options.depth)
                        .with_profile(options.profile);
                    let result = match options.deadline_ms {
                        None => lower_bound(&term, &config),
                        Some(ms) => {
                            let deadline =
                                std::time::Instant::now() + std::time::Duration::from_millis(ms);
                            let mut check = |_: Poll<'_>| {
                                if std::time::Instant::now() > deadline {
                                    Err(())
                                } else {
                                    Ok(())
                                }
                            };
                            // The partial result is sound (Thm. 3.4): an
                            // expired budget only loses bound mass.
                            try_lower_bound(&term, &config, None, &mut check).result
                        }
                    };
                    println!(
                        "Pterm >= {}  ({} paths, {} unexplored, {} ms{})",
                        result.probability.to_decimal_string(10),
                        result.paths,
                        result.unexplored_paths,
                        result.elapsed.as_millis(),
                        if result.interrupted { ", partial: deadline exceeded" } else { "" }
                    );
                    if options.profile {
                        print_profile("lower", result.profile.as_ref());
                    }
                }
                "explain" => {
                    if options.ast {
                        // The AST-verifier execution tree, through the same
                        // DOT renderer the provenance artifacts use.
                        match build_tree(&term) {
                            Ok(sym) => match options.format.as_str() {
                                "dot" => print!("{}", probterm::explain::exec_tree_dot(&sym.tree)),
                                "text" => print!("{}", sym.tree.render()),
                                other => {
                                    eprintln!(
                                        "error: --ast supports text or dot, not `{other}`"
                                    );
                                    return ExitCode::FAILURE;
                                }
                            },
                            Err(e) => {
                                eprintln!("error: cannot build the execution tree: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    } else {
                        let config = ExplainConfig::default()
                            .with_lower(LowerBoundConfig::default().with_depth(options.depth));
                        let deadline = options.deadline_ms.map(|ms| {
                            std::time::Instant::now() + std::time::Duration::from_millis(ms)
                        });
                        let mut check = |_: Poll<'_>| match deadline {
                            Some(d) if std::time::Instant::now() > d => Err(()),
                            _ => Ok(()),
                        };
                        // Under an expired deadline the provenance is still a
                        // sound partial artifact (marked incomplete).
                        let (provenance, _interrupted) = try_explain(&term, &config, &mut check);
                        match options.format.as_str() {
                            "text" => {
                                print!(
                                    "{}",
                                    probterm::explain::render_text(&provenance, options.top)
                                );
                            }
                            "dot" => {
                                print!(
                                    "{}",
                                    probterm::explain::render_dot(&provenance, options.top)
                                );
                            }
                            "json" => {
                                let artifact = probterm::explain::render_json(
                                    &provenance,
                                    &source,
                                    options.depth,
                                    options.top,
                                );
                                match serde_json::to_string_pretty(&artifact) {
                                    Ok(json) => println!("{json}"),
                                    Err(e) => {
                                        eprintln!("error: cannot render JSON: {e}");
                                        return ExitCode::FAILURE;
                                    }
                                }
                            }
                            other => {
                                eprintln!(
                                    "error: unknown format `{other}` (use text, json or dot)"
                                );
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
                "verify" => {
                    let verified = if options.profile {
                        try_verify_ast_profiled(&term, true, &mut || Ok(()))
                    } else {
                        analyze_ast(&term)
                    };
                    match verified {
                        Ok(v) => {
                            println!("{v}");
                            if options.profile {
                                print_profile("verify", v.profile.as_ref());
                            }
                        }
                        Err(e) => {
                            eprintln!("verification not applicable: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                "simulate" => {
                    let config = MonteCarloConfig {
                        runs: options.runs,
                        max_steps: options.steps,
                        seed: options.seed,
                        strategy: if options.cbv {
                            Strategy::CallByValue
                        } else {
                            Strategy::CallByName
                        },
                    };
                    let estimate = if options.profile {
                        let (estimate, profile) = estimate_termination_profiled(&term, &config);
                        print_profile("simulate", Some(&profile));
                        estimate
                    } else {
                        estimate_termination(&term, &config)
                    };
                    println!(
                        "terminated {}/{} runs (estimated Pterm {:.4} ± {:.4}); mean steps {:.1}",
                        estimate.terminated,
                        estimate.runs,
                        estimate.probability(),
                        estimate.confidence_99(),
                        estimate.mean_steps
                    );
                }
                _ => unreachable!(),
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("probterm_cli_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn unknown_options_are_usage_errors() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        for bad in [&["--bogus-flag"][..], &["--workers", "2", "--shards", "4"], &["prog.spcf", "-x"]] {
            let err = parse_options(&args(bad)).err().expect("an unknown option is rejected");
            assert!(err.starts_with("unknown option -"), "{bad:?}: {err}");
        }
        let options = parse_options(&args(&["prog.spcf", "--depth", "7", "--cbv"])).unwrap();
        assert_eq!(options.positional, ["prog.spcf"]);
        assert_eq!((options.depth, options.cbv), (7, true));
    }

    #[test]
    fn trace_check_rejects_unknown_ops_with_line_numbers() {
        let path = temp_path("trace_ops");
        let good = r#"{"seq":1,"id":1,"op":"lower","queue_us":1,"cache_us":1,"engine_us":1,"serialize_us":1,"total_us":10,"outcome":"ok"}"#;
        let bad = r#"{"seq":2,"id":2,"op":"mystery","queue_us":1,"cache_us":1,"engine_us":1,"serialize_us":1,"total_us":10,"outcome":"ok"}"#;
        std::fs::write(&path, format!("{good}\n{bad}\n")).unwrap();
        let err = trace_check(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains(":2:"), "error names the offending line: {err}");
        assert!(err.contains("unknown op `mystery`"), "{err}");
        // Every op the service can emit — including `invalid` for parse
        // failures and the `inspect` control op — passes.
        let ops = known_ops();
        assert!(ops.contains(&"inspect"));
        assert!(ops.contains(&"invalid"));
        let mut lines = String::new();
        for (i, op) in ops.iter().enumerate() {
            lines.push_str(&format!(
                r#"{{"seq":{i},"op":"{op}","queue_us":0,"cache_us":0,"engine_us":0,"serialize_us":0,"total_us":1,"outcome":"ok"}}"#
            ));
            lines.push('\n');
        }
        std::fs::write(&path, lines).unwrap();
        assert_eq!(trace_check(path.to_str().unwrap()).unwrap(), ops.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_check_validates_the_optional_coalesced_marker() {
        let path = temp_path("trace_coalesced");
        // Fanned-out waiter replies carry `coalesced: true`; plain records
        // omit the field entirely.
        let fanned = r#"{"seq":1,"id":1,"op":"lower","queue_us":0,"cache_us":0,"engine_us":0,"serialize_us":0,"total_us":10,"outcome":"ok","cache":"coalesced","coalesced":true}"#;
        let plain = r#"{"seq":2,"id":2,"op":"lower","queue_us":1,"cache_us":1,"engine_us":1,"serialize_us":1,"total_us":10,"outcome":"ok"}"#;
        std::fs::write(&path, format!("{fanned}\n{plain}\n")).unwrap();
        assert_eq!(trace_check(path.to_str().unwrap()).unwrap(), 2);
        // Anything but the boolean true is a schema violation.
        let bogus = r#"{"seq":3,"op":"lower","queue_us":0,"cache_us":0,"engine_us":0,"serialize_us":0,"total_us":1,"outcome":"ok","coalesced":"yes"}"#;
        std::fs::write(&path, format!("{fanned}\n{bogus}\n")).unwrap();
        let err = trace_check(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains(":2:"), "{err}");
        assert!(err.contains("coalesced"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metric_directions_follow_the_name() {
        assert_eq!(metric_direction("hot/requests_per_sec"), Some(true));
        assert_eq!(metric_direction("overload/resume_speedup"), Some(true));
        assert_eq!(metric_direction("overload/latency_p99_us"), Some(false));
        assert_eq!(metric_direction("elapsed_ms"), Some(false));
        assert_eq!(metric_direction("hot/cache_hits"), None);
        assert_eq!(metric_direction("shed"), None);
    }

    #[test]
    fn bench_report_flags_an_injected_regression() {
        let path = temp_path("bench_reg");
        let mut lines = String::new();
        // Three healthy rounds, then a round with p95 latency tripled and
        // throughput halved — both must be flagged at the default threshold.
        for p95 in [100, 110, 90] {
            lines.push_str(&format!(
                r#"{{"ts":1,"git_rev":"aaa","bench":"svc","metrics":[{{"scenario":"hot","latency_p95_us":{p95},"requests_per_sec":1000.0,"cache_hits":5}}]}}"#
            ));
            lines.push('\n');
        }
        lines.push_str(
            r#"{"ts":2,"git_rev":"bbb","bench":"svc","metrics":[{"scenario":"hot","latency_p95_us":300,"requests_per_sec":450.0,"cache_hits":9}]}"#,
        );
        lines.push('\n');
        std::fs::write(&path, &lines).unwrap();
        let report = bench_report(path.to_str().unwrap(), 20.0).unwrap();
        assert_eq!(report.records, 4);
        assert_eq!(report.benches, 1);
        assert_eq!(report.compared, 2, "cache_hits has no direction and is skipped");
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
        let latency = report
            .regressions
            .iter()
            .find(|r| r.metric == "hot/latency_p95_us")
            .expect("latency regression flagged");
        assert_eq!(latency.baseline, 100.0, "median of 100/110/90");
        assert_eq!(latency.latest, 300.0);
        assert!(latency.delta_pct > 100.0);
        let throughput = report
            .regressions
            .iter()
            .find(|r| r.metric == "hot/requests_per_sec")
            .expect("throughput regression flagged");
        assert!(throughput.delta_pct < -20.0);
        // A loose enough threshold flags nothing.
        let quiet = bench_report(path.to_str().unwrap(), 250.0).unwrap();
        assert!(quiet.regressions.is_empty(), "{:?}", quiet.regressions);
        // Rendering: the text report names the regression; the JSON report
        // parses and carries it.
        let text = render_bench_report(&report, 20.0, "text").unwrap();
        assert!(text.contains("regression svc/hot/latency_p95_us"), "{text}");
        let json: Value =
            serde_json::from_str(&render_bench_report(&report, 20.0, "json").unwrap()).unwrap();
        assert_eq!(json.get("records").and_then(Value::as_u64), Some(4));
        assert_eq!(
            json.get("regressions").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert!(render_bench_report(&report, 20.0, "dot").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_report_measures_moves_in_recorded_mads() {
        // A row in the `symbolic_scaling` shape (two timed columns with MADs
        // and their ratio) and a row holding a latency with its own MAD.
        let record = |speedup: f64, rel_mad: f64, latency: f64, latency_mad: f64| {
            let (machine, substitution) = (100.0, 100.0 * speedup);
            let mut flat = Vec::new();
            let row = serde_json::from_str(&format!(
                r#"[{{"benchmark":"p","machine_ns":{machine},"machine_mad_ns":{},"substitution_ns":{substitution},"substitution_mad_ns":{},"speedup":{speedup}}},{{"benchmark":"q","latency_us":{latency},"latency_mad_us":{latency_mad}}}]"#,
                machine * rel_mad,
                substitution * rel_mad,
            ))
            .unwrap();
            flatten_metrics(&row, "", &mut flat);
            ("scaling".to_string(), flat)
        };
        let (_, baseline) = record(10.0, 0.05, 100.0, 2.0);
        let spreads = metric_spreads(&baseline);
        assert!((spreads["0/speedup"] - 1.0).abs() < 1e-9, "{spreads:?}");
        assert_eq!(spreads["1/latency_us"], 2.0);
        assert_eq!(spreads["0/machine_ns"], 5.0);
        let regressions = |latest| {
            let report = analyze_history(&[record(10.0, 0.05, 100.0, 2.0), latest], 20.0);
            assert_eq!(report.compared, 2, "the ratio and the latency");
            report.regressions.into_iter().map(|r| r.metric).collect::<Vec<_>>()
        };
        // Shifts inside the spread: 25 % and 30 % worse, past the flat
        // threshold but within four combined MADs.
        assert!(regressions(record(7.5, 0.05, 130.0, 10.0)).is_empty());
        // Far outside it: each flagged, even a 15 % latency move under a
        // tight MAD that the flat threshold would let pass.
        assert_eq!(regressions(record(2.0, 0.05, 100.0, 2.0)), ["0/speedup"]);
        assert_eq!(regressions(record(10.0, 0.05, 115.0, 1.0)), ["1/latency_us"]);
        // Records without a MAD keep the flat threshold.
        let flat_only = |latency: f64| {
            ("svc".to_string(), vec![("latency_us".to_string(), latency)])
        };
        let report = analyze_history(&[flat_only(100.0), flat_only(115.0)], 20.0);
        assert!(report.regressions.is_empty());
        let report = analyze_history(&[flat_only(100.0), flat_only(125.0)], 20.0);
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn bench_report_passes_on_the_committed_history() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.jsonl");
        let report = bench_report(path, 20.0).unwrap();
        assert!(report.records >= 1);
        // With a single record per bench there is no baseline yet; with
        // more, the committed history must be regression-free.
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }

    #[test]
    fn render_top_reads_stats_and_inspect_payloads() {
        let reply: Value = serde_json::from_str(
            r#"{"id":"x","ok":true,"op":"stats","elapsed_ms":0,"result":{"uptime_ms":508,"served":1,"hits":0,"misses":0,"inflight":0,"cache_entries":3,"cache_capacity":1024,"cache_bytes":2048,"oldest_entry_ms":null,"workers":2,"robustness":{"shed":4},"ops":{"lower":{"requests":7,"errors":0,"total_us":{"p50":10,"p95":20,"p99":30}}}}}"#,
        )
        .unwrap();
        let stats = reply.get("result").cloned().unwrap();
        let inspect: Value = serde_json::from_str(
            r#"{"count":1,"inflight":[{"id":"slow-1","op":"lower","age_ms":210,"phase":"engine","progress":{"steps":1234,"paths":17,"frontier":41,"max_depth":9,"bound":0.912345,"bound_scaled":912345000,"elapsed_ms":210}}]}"#,
        )
        .unwrap();
        let screen = render_top("127.0.0.1:1", &stats, &inspect);
        assert!(screen.contains("uptime 0.5s"), "{screen}");
        assert!(screen.contains("workers 2"), "{screen}");
        assert!(screen.contains("cache 3/1024 entries 2048 B"), "{screen}");
        assert!(screen.contains("shed 4"), "{screen}");
        assert!(screen.contains("lower"), "{screen}");
        assert!(screen.contains("in-flight (1):"), "{screen}");
        assert!(screen.contains("slow-1"), "{screen}");
        assert!(screen.contains("engine"), "{screen}");
        assert!(screen.contains("0.912345"), "{screen}");
    }

    #[test]
    fn median_is_robust_to_order_and_even_sizes() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn flatten_handles_scenario_arrays_and_plain_objects() {
        let nested: Value = serde_json::from_str(
            r#"{"rows":[{"scenario":"hot","latency_p50_us":5},{"latency_p50_us":7}],"total_ms":12}"#,
        )
        .unwrap();
        let mut flat = Vec::new();
        flatten_metrics(&nested, "", &mut flat);
        flat.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            flat,
            vec![
                ("rows/1/latency_p50_us".to_string(), 7.0),
                ("rows/hot/latency_p50_us".to_string(), 5.0),
                ("total_ms".to_string(), 12.0),
            ]
        );
    }
}
