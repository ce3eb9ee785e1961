//! End-to-end latency SLO coverage: `deadline_ms` is a real bound on reply
//! time — for every benchmark in the paper's catalogue, a deadline-bounded
//! `lower` replies within the deadline plus a small fixed slack (one
//! measurement granule plus serialization), and resumed retries only ever
//! tighten the bound.

use probterm_core::spcf::catalog;
use probterm_service::{handle_line, Server, ServerConfig};
use serde::Value;
use std::time::Instant;

/// Fixed reply-latency slack on top of `deadline_ms`: covers the engine's
/// check granularity (one path step or one 64-box measurement slice), reply
/// serialization, and debug-build overhead. The point of the SLO is that the
/// overshoot is *bounded and small* — before incremental in-loop
/// measurement, a deadline-blind post-hoc volume pass could blow through the
/// deadline by arbitrary multiples of it.
const SLACK_MS: u128 = 900;

fn escape(program: &str) -> String {
    program.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Every catalogue benchmark replies within deadline + slack, with a
/// structured, sound answer (complete or checkpointed-partial).
#[test]
fn whole_catalogue_lower_replies_within_deadline_plus_slack() {
    let server = Server::new(ServerConfig { workers: 1, ..Default::default() });
    let deadline_ms: u128 = 80;
    let mut benchmarks = catalog::table1_benchmarks();
    benchmarks.extend(catalog::table2_benchmarks());
    assert!(benchmarks.len() >= 15, "the catalogue covers both tables");
    for bench in &benchmarks {
        let request = format!(
            r#"{{"op":"lower","program":"{}","depth":200,"deadline_ms":{deadline_ms}}}"#,
            escape(&bench.term.to_string())
        );
        let started = Instant::now();
        let reply = handle_line(server.state(), &request).expect("lower always replies");
        let elapsed = started.elapsed().as_millis();
        assert!(
            elapsed <= deadline_ms + SLACK_MS,
            "{}: replied in {elapsed} ms, over the {deadline_ms} ms deadline + {SLACK_MS} ms slack",
            bench.name
        );
        let v = serde_json::from_str(&reply).unwrap();
        let result = v.get("result").unwrap_or(&Value::Null);
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            // Sound bound in [0, 1], complete or an honest partial.
            let p = result.get("probability_f64").and_then(Value::as_f64).unwrap();
            assert!((0.0..=1.0 + 1e-12).contains(&p), "{}: bound {p}", bench.name);
            assert!(result.get("complete").and_then(Value::as_bool).is_some());
        } else {
            // The only structured failure a catalogue term may produce here
            // is an exhausted budget before the first measurement.
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap();
            assert_eq!(code, "budget_exceeded", "{}: {reply}", bench.name);
        }
    }
}

/// A resumed retry never loosens the cached partial bound, and its reply
/// says it resumed.
#[test]
fn resumed_retries_tighten_bounds_monotonically() {
    // Above the default depth cap of 400.
    let server = Server::new(ServerConfig { workers: 1, max_depth: 1600, ..Default::default() });
    // A chain of recursive calls that first fans out into a depth-4 binary
    // tree of 16 terminating leaves, each measured by the box sweep: depth
    // 1600 takes about 4.7 s in a release build, far beyond the first
    // deadline.
    let chain = "(fix phi x. if sample * sample <= 1/2 then (fix t n. if n <= 0 then x else if sample * sample <= 1/2 then t (n - 1) else t (n - 1)) 4 else phi (x + 1)) 0";
    let first = handle_line(
        server.state(),
        &format!(r#"{{"op":"lower","program":"{chain}","depth":1600,"deadline_ms":100}}"#),
    )
    .unwrap();
    let first_v = serde_json::from_str(&first).unwrap();
    let partial = first_v.get("result").unwrap();
    assert_eq!(partial.get("complete").and_then(Value::as_bool), Some(false));
    let p1 = partial.get("probability_f64").and_then(Value::as_f64).unwrap();

    let retry = handle_line(
        server.state(),
        &format!(r#"{{"op":"lower","program":"{chain}","depth":1600,"deadline_ms":2000}}"#),
    )
    .unwrap();
    let retry_v = serde_json::from_str(&retry).unwrap();
    assert_eq!(retry_v.get("cache").and_then(Value::as_str), Some("miss"));
    let resumed = retry_v.get("result").unwrap();
    assert_eq!(resumed.get("resumed").and_then(Value::as_bool), Some(true), "{retry}");
    let p2 = resumed.get("probability_f64").and_then(Value::as_f64).unwrap();
    assert!(p2 >= p1, "resumed bound {p2} regressed below the partial {p1}");
    assert_eq!(server.state().stats().resumed, 1);
}
