//! The service wire protocol: newline-delimited JSON requests and replies.
//!
//! Every request is one JSON object on one line. The `op` field selects the
//! analysis; `id` (any JSON value) is echoed back verbatim so clients can
//! pipeline requests over a single connection and match replies out of order.
//!
//! ```text
//! {"id":1,"op":"lower","program":"(fix phi x. ...) 0","depth":60}
//! {"id":1,"ok":true,"op":"lower","cache":"miss","elapsed_ms":3,"result":{...}}
//! {"id":2,"ok":false,"error":{"code":"parse_error","message":"..."}}
//! ```
//!
//! Error replies are structured: `code` is machine-readable (see
//! [`ErrorCode`]), `message` is human-readable. A `simulate` or `verify`
//! request that runs past its `deadline_ms` budget yields `budget_exceeded`
//! — the worker that served it survives and picks up the next request.
//! `lower` and `analyze` requests are *anytime*: an expired deadline cancels
//! the engine mid-exploration and the reply is still `ok`, carrying the
//! sound partial lower bound computed so far with `"complete": false` in the
//! result. Partial results are cached like complete ones; a retry with a
//! meaningfully richer (or no) deadline recomputes and upgrades the entry.

use probterm_core::spcf::Strategy;
use serde::Value;

/// Machine-readable error categories of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line is not valid JSON, or the program does not parse.
    ParseError,
    /// The request is well-formed JSON but malformed as a request (unknown
    /// op, missing program, field of the wrong type, budget above the
    /// server's hard caps).
    BadRequest,
    /// The per-request deadline or step budget was exhausted.
    BudgetExceeded,
    /// The analysis does not apply to this program (e.g. the AST verifier on
    /// a non-fixpoint program, or `analyze` on an ill-typed term).
    NotApplicable,
    /// The engine panicked or otherwise failed; the worker survived.
    Internal,
    /// Admission control shed the request (queue over depth, or the deadline
    /// would expire before the predicted queue wait) or the server is
    /// draining. The error object carries `retry_after_ms` when a retry can
    /// succeed.
    Overloaded,
    /// The connection sat idle past the server's `--idle-timeout-ms` and is
    /// being closed; sent as a final structured line before the close.
    IdleTimeout,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BudgetExceeded => "budget_exceeded",
            ErrorCode::NotApplicable => "not_applicable",
            ErrorCode::Internal => "internal",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::IdleTimeout => "idle_timeout",
        }
    }
}

/// A structured service error (the payload of an error reply).
#[derive(Debug, Clone)]
pub struct ServiceError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// For `overloaded` sheds: how long (in milliseconds) a client should
    /// wait before retrying — the predicted queue wait, never zero. Rendered
    /// as `retry_after_ms` inside the error object when present.
    pub retry_after_ms: Option<u64>,
}

impl ServiceError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServiceError {
        ServiceError { code, message: message.into(), retry_after_ms: None }
    }

    /// Builder: attaches the shed-retry hint.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after_ms: u64) -> ServiceError {
        self.retry_after_ms = Some(retry_after_ms.max(1));
        self
    }
}

/// The analysis (or control) operation requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Monte-Carlo termination estimation (seeded, hence cacheable).
    Simulate,
    /// Interval-semantics lower bound on `Pterm`.
    Lower,
    /// Provenance of the lower bound: per-path attribution, replayable
    /// witnesses and frontier summary, as the documented JSON artifact.
    Explain,
    /// Counting-based AST verification.
    Verify,
    /// The combined report (type + lower bound + AST + optional Monte-Carlo).
    Analyze,
    /// List the benchmark catalogue.
    Catalog,
    /// Cache and worker counters.
    Stats,
    /// Prometheus-style text exposition of the service metrics.
    Metrics,
    /// The in-flight request table: one row per engine run currently
    /// executing, with live progress from its [`ProgressCell`]
    /// (`probterm_telemetry::ProgressCell`).
    Inspect,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl Op {
    /// The wire spelling of the op (also the cache-key analysis tag).
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Simulate => "simulate",
            Op::Lower => "lower",
            Op::Explain => "explain",
            Op::Verify => "verify",
            Op::Analyze => "analyze",
            Op::Catalog => "catalog",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Inspect => "inspect",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parses the wire spelling back into an [`Op`] — the inverse of
    /// [`Op::as_str`]. Also used by the cache-snapshot loader to map the
    /// persisted analysis tag back onto the `&'static str` the cache keys
    /// intern.
    pub(crate) fn from_str(s: &str) -> Option<Op> {
        Some(match s {
            "simulate" => Op::Simulate,
            "lower" => Op::Lower,
            "explain" => Op::Explain,
            "verify" => Op::Verify,
            "analyze" => Op::Analyze,
            "catalog" => Op::Catalog,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "inspect" => Op::Inspect,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// Whether the op runs an analysis engine (as opposed to serving
    /// metadata or control traffic).
    pub fn is_engine_op(self) -> bool {
        matches!(self, Op::Simulate | Op::Lower | Op::Explain | Op::Verify | Op::Analyze)
    }

    /// Every op, in wire order — the index into the per-op metrics table.
    pub const ALL: [Op; 10] = [
        Op::Simulate,
        Op::Lower,
        Op::Explain,
        Op::Verify,
        Op::Analyze,
        Op::Catalog,
        Op::Stats,
        Op::Metrics,
        Op::Inspect,
        Op::Shutdown,
    ];

    /// The op's position in [`Op::ALL`].
    pub fn index(self) -> usize {
        Op::ALL.iter().position(|&op| op == self).expect("every op is in ALL")
    }
}

/// A parsed request. Option fields default at dispatch time (the defaults
/// match the `probterm` CLI flags).
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed back verbatim in the reply.
    pub id: Option<Value>,
    /// The requested operation.
    pub op: Op,
    /// SPCF source of the program to analyse (engine ops only).
    pub program: Option<String>,
    /// Exploration depth (`lower`, `explain`, `analyze`).
    pub depth: Option<usize>,
    /// Limit the provenance artifact to the `K` largest path contributions
    /// (`explain` only; totals are unaffected).
    pub top: Option<usize>,
    /// Monte-Carlo run count (`simulate`, `analyze`).
    pub runs: Option<usize>,
    /// Step budget per Monte-Carlo run (`simulate`, `analyze`).
    pub steps: Option<usize>,
    /// RNG seed (`simulate`, `analyze`); fixed default keeps replies cacheable.
    pub seed: Option<u64>,
    /// Evaluation strategy for `simulate` (`"cbn"` default, or `"cbv"`).
    pub strategy: Strategy,
    /// Wall-clock budget for this request, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// When `true` on a `lower` request, the server emits periodic
    /// `{"progress": ...}` frames on the connection before the final reply.
    /// Frames carry the same `id`, are monotone (the bound only tightens),
    /// and are *not* trace records.
    pub stream: bool,
}

fn field_usize(object: &Value, key: &str) -> Result<Option<usize>, ServiceError> {
    match object.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|u| Some(u as usize))
            .ok_or_else(|| bad_field(key, "a non-negative integer")),
    }
}

fn field_u64(object: &Value, key: &str) -> Result<Option<u64>, ServiceError> {
    match object.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad_field(key, "a non-negative integer")),
    }
}

fn field_bool(object: &Value, key: &str) -> Result<bool, ServiceError> {
    match object.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| bad_field(key, "a boolean")),
    }
}

fn bad_field(key: &str, expected: &str) -> ServiceError {
    ServiceError::new(ErrorCode::BadRequest, format!("field `{key}` must be {expected}"))
}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// On failure returns the request `id` when one could be extracted (so the
/// error reply can still be correlated) together with the structured error.
pub fn parse_request(line: &str) -> Result<Request, (Option<Value>, ServiceError)> {
    let value = serde_json::from_str(line).map_err(|e| {
        (None, ServiceError::new(ErrorCode::ParseError, format!("invalid JSON: {e}")))
    })?;
    let id = value.get("id").cloned();
    let fail = |e: ServiceError| (id.clone(), e);

    if value.as_object().is_none() {
        return Err(fail(ServiceError::new(
            ErrorCode::BadRequest,
            "request must be a JSON object",
        )));
    }
    let op = match value.get("op").and_then(Value::as_str) {
        Some(name) => Op::from_str(name).ok_or_else(|| {
            fail(ServiceError::new(ErrorCode::BadRequest, format!("unknown op `{name}`")))
        })?,
        None => {
            return Err(fail(ServiceError::new(
                ErrorCode::BadRequest,
                "missing string field `op`",
            )))
        }
    };
    let program = match value.get("program") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| fail(bad_field("program", "a string")))?
                .to_string(),
        ),
    };
    if op.is_engine_op() && program.is_none() {
        return Err(fail(ServiceError::new(
            ErrorCode::BadRequest,
            format!("op `{}` requires a `program` field", op.as_str()),
        )));
    }
    let strategy = match value.get("strategy") {
        None | Some(Value::Null) => Strategy::CallByName,
        Some(v) => match v.as_str() {
            Some("cbn") | Some("call-by-name") => Strategy::CallByName,
            Some("cbv") | Some("call-by-value") => Strategy::CallByValue,
            _ => return Err(fail(bad_field("strategy", "\"cbn\" or \"cbv\""))),
        },
    };
    let depth = field_usize(&value, "depth").map_err(&fail)?;
    let top = field_usize(&value, "top").map_err(&fail)?;
    let runs = field_usize(&value, "runs").map_err(&fail)?;
    let steps = field_usize(&value, "steps").map_err(&fail)?;
    let seed = field_u64(&value, "seed").map_err(&fail)?;
    let deadline_ms = field_u64(&value, "deadline_ms").map_err(&fail)?;
    let stream = field_bool(&value, "stream").map_err(&fail)?;
    Ok(Request { id, op, program, depth, top, runs, steps, seed, strategy, deadline_ms, stream })
}

/// Builds a success reply line (without the trailing newline).
pub fn ok_reply(
    id: &Option<Value>,
    op: Op,
    cache: Option<&str>,
    elapsed_ms: u128,
    result: Value,
) -> String {
    let mut fields = vec![
        ("id".to_string(), id.clone().unwrap_or(Value::Null)),
        ("ok".to_string(), Value::Bool(true)),
        ("op".to_string(), Value::Str(op.as_str().to_string())),
    ];
    if let Some(cache) = cache {
        fields.push(("cache".to_string(), Value::Str(cache.to_string())));
    }
    fields.push(("elapsed_ms".to_string(), Value::UInt(elapsed_ms)));
    fields.push(("result".to_string(), result));
    render_line(Value::Object(fields))
}

/// Builds an error reply line (without the trailing newline).
pub fn error_reply(id: &Option<Value>, error: &ServiceError) -> String {
    let mut body = vec![
        ("code".to_string(), Value::Str(error.code.as_str().to_string())),
        ("message".to_string(), Value::Str(error.message.clone())),
    ];
    if let Some(retry_after_ms) = error.retry_after_ms {
        body.push(("retry_after_ms".to_string(), Value::UInt(u128::from(retry_after_ms))));
    }
    render_line(Value::Object(vec![
        ("id".to_string(), id.clone().unwrap_or(Value::Null)),
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Object(body)),
    ]))
}

/// Builds a streamed progress frame line (without the trailing newline):
/// `{"id":...,"progress":{...}}`. Frames carry the request's `id` so clients
/// multiplexing a connection can attribute them; they have no `ok` field, so
/// reply-scanning clients skip them naturally.
pub fn progress_frame(id: &Option<Value>, progress: Value) -> String {
    render_line(Value::Object(vec![
        ("id".to_string(), id.clone().unwrap_or(Value::Null)),
        ("progress".to_string(), progress),
    ]))
}

pub(crate) fn render_line(value: Value) -> String {
    // Compact rendering never contains literal newlines (they are escaped in
    // strings), so one reply is always exactly one line.
    serde_json::value_to_string(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_simulate_request() {
        let r = parse_request(
            r#"{"id":"a-7","op":"simulate","program":"sample","runs":100,"steps":50,"seed":9,"strategy":"cbv","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(Value::Str("a-7".into())));
        assert_eq!(r.op, Op::Simulate);
        assert_eq!(r.program.as_deref(), Some("sample"));
        assert_eq!(r.runs, Some(100));
        assert_eq!(r.steps, Some(50));
        assert_eq!(r.seed, Some(9));
        assert_eq!(r.strategy, Strategy::CallByValue);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn control_ops_need_no_program() {
        for op in ["catalog", "stats", "metrics", "inspect", "shutdown"] {
            let r = parse_request(&format!(r#"{{"op":"{op}"}}"#)).unwrap();
            assert!(!r.op.is_engine_op());
            assert_eq!(r.id, None);
        }
    }

    #[test]
    fn stream_flag_parses_and_defaults_off() {
        let r = parse_request(r#"{"op":"lower","program":"0","stream":true}"#).unwrap();
        assert!(r.stream);
        let r = parse_request(r#"{"op":"lower","program":"0"}"#).unwrap();
        assert!(!r.stream);
        let (_, e) = parse_request(r#"{"op":"lower","program":"0","stream":"yes"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn bad_requests_keep_the_id_when_possible() {
        // Invalid JSON: no id recoverable.
        let (id, e) = parse_request("{nope").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(e.code, ErrorCode::ParseError);
        // Valid JSON, bad op: id recovered.
        let (id, e) = parse_request(r#"{"id":3,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(id, Some(Value::UInt(3)));
        assert_eq!(e.code, ErrorCode::BadRequest);
        // Engine op without a program.
        let (_, e) = parse_request(r#"{"op":"lower"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        // Wrong field type.
        let (_, e) = parse_request(r#"{"op":"lower","program":"0","depth":-3}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let (_, e) = parse_request(r#"{"op":"simulate","program":"0","strategy":"x"}"#)
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn replies_are_single_lines_and_reparse() {
        let line = ok_reply(
            &Some(Value::UInt(1)),
            Op::Lower,
            Some("miss"),
            12,
            Value::Object(vec![("probability".into(), Value::Str("0.5\nx".into()))]),
        );
        assert!(!line.contains('\n'));
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("miss"));
        let err = error_reply(
            &None,
            &ServiceError::new(ErrorCode::BudgetExceeded, "too slow"),
        );
        let v = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Value::as_str),
            Some("budget_exceeded")
        );
        assert!(v.get("id").unwrap().is_null());
    }

    #[test]
    fn overloaded_errors_carry_retry_after_ms() {
        let err = error_reply(
            &Some(Value::UInt(9)),
            &ServiceError::new(ErrorCode::Overloaded, "admission queue full")
                .with_retry_after(120),
        );
        let v = serde_json::from_str(&err).unwrap();
        let error = v.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(error.get("retry_after_ms").and_then(Value::as_u64), Some(120));
        // The hint is clamped away from zero: "retry immediately" defeats
        // the point of shedding.
        let zero = ServiceError::new(ErrorCode::Overloaded, "x").with_retry_after(0);
        assert_eq!(zero.retry_after_ms, Some(1));
        // Non-shed errors never render the field.
        let plain = error_reply(&None, &ServiceError::new(ErrorCode::Internal, "boom"));
        assert!(!plain.contains("retry_after_ms"));
    }
}
