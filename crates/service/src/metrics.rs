//! Latency-aware service metrics: per-op request counters, per-phase
//! latency histograms, and a Prometheus-style text exposition.
//!
//! Every request the server handles is timed in four phases — queue wait,
//! cache lookup, engine run, reply serialization — on monotonic
//! [`std::time::Instant`] clocks (via [`probterm_telemetry::SpanTimer`]),
//! recorded in microseconds into log-bucketed
//! [`probterm_telemetry::Histogram`]s (≤ ~25 % relative bucket error).
//! The `stats` op reports p50/p95/p99 per op and phase; the `metrics` op
//! renders the same numbers as Prometheus text exposition.

use crate::protocol::Op;
use crate::server::StatsSnapshot;
use probterm_telemetry::{Counter, Histogram, HistogramSnapshot};
use serde::Value;

/// The four measured request phases plus the end-to-end total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time between enqueueing the job and a worker popping it, in µs.
    pub queue_us: u64,
    /// Result-cache lookup (and admission decision) time, in µs.
    pub cache_us: u64,
    /// Engine run time, in µs; `None` when no engine ran (control ops,
    /// cache hits, sheds, coalesced waiters, requests rejected before the
    /// engine started).
    pub engine_us: Option<u64>,
    /// Reply rendering time, in µs.
    pub serialize_us: u64,
    /// End-to-end time including queue wait, in µs.
    pub total_us: u64,
}

/// Counters and per-phase latency histograms for one op.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests handled (including error replies).
    pub requests: Counter,
    /// Requests that produced an error reply.
    pub errors: Counter,
    /// End-to-end latency (µs).
    pub total: Histogram,
    /// Queue-wait latency (µs).
    pub queue: Histogram,
    /// Cache-lookup latency (µs).
    pub cache: Histogram,
    /// Engine-run latency (µs), over the requests that ran an engine — the
    /// admission-control estimate reads its p95.
    pub engine: Histogram,
    /// Reply-serialization latency (µs).
    pub serialize: Histogram,
}

/// A plain-data snapshot of one op's metrics (for the `stats` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMetricsSnapshot {
    /// The op these numbers belong to.
    pub op: Op,
    /// Requests handled.
    pub requests: u64,
    /// Error replies.
    pub errors: u64,
    /// End-to-end latency histogram.
    pub total: HistogramSnapshot,
    /// Per-phase latency histograms, keyed by phase name.
    pub phases: Vec<(&'static str, HistogramSnapshot)>,
}

/// The whole per-op metrics table. One instance lives in the server state;
/// workers record into it concurrently (all counters are relaxed atomics).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    ops: [OpMetrics; Op::ALL.len()],
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    /// The metrics cell of one op.
    pub fn op(&self, op: Op) -> &OpMetrics {
        &self.ops[op.index()]
    }

    /// Records one handled request; its engine phase only if an engine ran.
    pub fn record(&self, op: Op, phases: &PhaseTimes, ok: bool) {
        let cell = self.op(op);
        cell.requests.incr();
        if !ok {
            cell.errors.incr();
        }
        cell.total.record(phases.total_us);
        cell.queue.record(phases.queue_us);
        cell.cache.record(phases.cache_us);
        if let Some(engine_us) = phases.engine_us {
            cell.engine.record(engine_us);
        }
        cell.serialize.record(phases.serialize_us);
    }

    /// Snapshots every op that has seen at least one request.
    #[must_use]
    pub fn snapshot(&self) -> Vec<OpMetricsSnapshot> {
        Op::ALL
            .iter()
            .filter_map(|&op| {
                let cell = self.op(op);
                if cell.requests.get() == 0 {
                    return None;
                }
                Some(OpMetricsSnapshot {
                    op,
                    requests: cell.requests.get(),
                    errors: cell.errors.get(),
                    total: cell.total.snapshot(),
                    phases: vec![
                        ("queue", cell.queue.snapshot()),
                        ("cache", cell.cache.snapshot()),
                        ("engine", cell.engine.snapshot()),
                        ("serialize", cell.serialize.snapshot()),
                    ],
                })
            })
            .collect()
    }
}

fn quantiles_value(h: &HistogramSnapshot) -> Value {
    Value::Object(vec![
        ("p50".into(), Value::UInt(u128::from(h.p50()))),
        ("p95".into(), Value::UInt(u128::from(h.p95()))),
        ("p99".into(), Value::UInt(u128::from(h.p99()))),
        ("max".into(), Value::UInt(u128::from(h.max()))),
        ("mean".into(), Value::Num(h.mean())),
    ])
}

/// The `"ops"` object of the `stats` reply: per-op request/error counts,
/// end-to-end percentiles and the per-phase breakdown, all in microseconds.
#[must_use]
pub fn ops_value(snapshots: &[OpMetricsSnapshot]) -> Value {
    Value::Object(
        snapshots
            .iter()
            .map(|s| {
                (
                    s.op.as_str().to_string(),
                    Value::Object(vec![
                        ("requests".into(), Value::UInt(u128::from(s.requests))),
                        ("errors".into(), Value::UInt(u128::from(s.errors))),
                        ("total_us".into(), quantiles_value(&s.total)),
                        (
                            "phases_us".into(),
                            Value::Object(
                                s.phases
                                    .iter()
                                    .map(|(name, h)| ((*name).to_string(), quantiles_value(h)))
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

/// Renders the Prometheus text exposition format (version 0.0.4): `# HELP` /
/// `# TYPE` comments, `counter` and `summary` families, and `{label="..."}`
/// selectors. Quantile samples use the histogram's bucket upper bounds, so
/// they carry the same ≤ ~25 % relative error as the `stats` percentiles.
#[must_use]
pub fn render_prometheus(snapshots: &[OpMetricsSnapshot], stats: &StatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    out.push_str("# HELP probterm_uptime_milliseconds Milliseconds since the server started.\n");
    out.push_str("# TYPE probterm_uptime_milliseconds gauge\n");
    let _ = writeln!(out, "probterm_uptime_milliseconds {}", stats.uptime_ms);
    out.push_str("# HELP probterm_requests_served_total Request lines handled, including control ops and errors.\n");
    out.push_str("# TYPE probterm_requests_served_total counter\n");
    let _ = writeln!(out, "probterm_requests_served_total {}", stats.served);
    out.push_str("# HELP probterm_cache_hits_total Result-cache lookups served from the cache.\n");
    out.push_str("# TYPE probterm_cache_hits_total counter\n");
    let _ = writeln!(out, "probterm_cache_hits_total {}", stats.hits);
    out.push_str("# HELP probterm_cache_misses_total Result-cache lookups that ran an engine.\n");
    out.push_str("# TYPE probterm_cache_misses_total counter\n");
    let _ = writeln!(out, "probterm_cache_misses_total {}", stats.misses);
    out.push_str("# HELP probterm_cache_entries Entries currently in the result cache.\n");
    out.push_str("# TYPE probterm_cache_entries gauge\n");
    let _ = writeln!(out, "probterm_cache_entries {}", stats.cache_entries);
    out.push_str("# HELP probterm_cache_bytes Approximate bytes held by cached result payloads.\n");
    out.push_str("# TYPE probterm_cache_bytes gauge\n");
    let _ = writeln!(out, "probterm_cache_bytes {}", stats.cache_bytes);
    out.push_str("# HELP probterm_inflight_requests Engine requests currently being computed.\n");
    out.push_str("# TYPE probterm_inflight_requests gauge\n");
    let _ = writeln!(out, "probterm_inflight_requests {}", stats.inflight);
    out.push_str("# HELP probterm_workers Worker threads in the pool.\n");
    out.push_str("# TYPE probterm_workers gauge\n");
    let _ = writeln!(out, "probterm_workers {}", stats.workers);
    out.push_str("# HELP probterm_shed_total Requests shed by admission control with an overloaded reply.\n");
    out.push_str("# TYPE probterm_shed_total counter\n");
    let _ = writeln!(out, "probterm_shed_total {}", stats.shed);
    out.push_str("# HELP probterm_resumed_total Lower-bound runs resumed from a cached exploration checkpoint.\n");
    out.push_str("# TYPE probterm_resumed_total counter\n");
    let _ = writeln!(out, "probterm_resumed_total {}", stats.resumed);
    out.push_str("# HELP probterm_checkpointed_frontiers_total Partial replies that carried a resumable frontier checkpoint.\n");
    out.push_str("# TYPE probterm_checkpointed_frontiers_total counter\n");
    let _ = writeln!(out, "probterm_checkpointed_frontiers_total {}", stats.checkpointed_frontiers);
    out.push_str("# HELP probterm_injected_faults_total Faults injected by the chaos harness.\n");
    out.push_str("# TYPE probterm_injected_faults_total counter\n");
    let _ = writeln!(out, "probterm_injected_faults_total {}", stats.injected_faults);
    out.push_str("# HELP probterm_drained_in_flight_total Engine requests that finished while the server was draining.\n");
    out.push_str("# TYPE probterm_drained_in_flight_total counter\n");
    let _ = writeln!(out, "probterm_drained_in_flight_total {}", stats.drained_in_flight);
    out.push_str("# HELP probterm_idle_closed_total Connections closed by the idle read timeout.\n");
    out.push_str("# TYPE probterm_idle_closed_total counter\n");
    let _ = writeln!(out, "probterm_idle_closed_total {}", stats.idle_closed);
    out.push_str("# HELP probterm_coalesced_waiters_total Requests coalesced onto an identical in-flight engine run.\n");
    out.push_str("# TYPE probterm_coalesced_waiters_total counter\n");
    let _ = writeln!(out, "probterm_coalesced_waiters_total {}", stats.coalesced_waiters);
    out.push_str("# HELP probterm_coalesce_fanout_max Largest waiter fan-out any single coalesced run has served.\n");
    out.push_str("# TYPE probterm_coalesce_fanout_max gauge\n");
    let _ = writeln!(out, "probterm_coalesce_fanout_max {}", stats.coalesce_fanout_max);
    out.push_str("# HELP probterm_queue_depth Jobs waiting in the worker queue.\n");
    out.push_str("# TYPE probterm_queue_depth gauge\n");
    let _ = writeln!(out, "probterm_queue_depth {}", stats.queued);
    out.push_str("# HELP probterm_cache_persist_loaded_total Cache entries loaded from the snapshot file at boot.\n");
    out.push_str("# TYPE probterm_cache_persist_loaded_total counter\n");
    let _ = writeln!(out, "probterm_cache_persist_loaded_total {}", stats.cache_persist_loaded);
    out.push_str("# HELP probterm_cache_persist_saved_total Cache entries written to the snapshot file at drain.\n");
    out.push_str("# TYPE probterm_cache_persist_saved_total counter\n");
    let _ = writeln!(out, "probterm_cache_persist_saved_total {}", stats.cache_persist_saved);
    out.push_str("# HELP probterm_cache_persist_rejected_total Snapshot lines ignored as version-mismatched or corrupt.\n");
    out.push_str("# TYPE probterm_cache_persist_rejected_total counter\n");
    let _ = writeln!(out, "probterm_cache_persist_rejected_total {}", stats.cache_persist_rejected);

    out.push_str("# HELP probterm_requests_total Requests handled, by op.\n");
    out.push_str("# TYPE probterm_requests_total counter\n");
    for s in snapshots {
        let _ = writeln!(out, "probterm_requests_total{{op=\"{}\"}} {}", s.op.as_str(), s.requests);
    }
    out.push_str("# HELP probterm_request_errors_total Error replies, by op.\n");
    out.push_str("# TYPE probterm_request_errors_total counter\n");
    for s in snapshots {
        let _ = writeln!(
            out,
            "probterm_request_errors_total{{op=\"{}\"}} {}",
            s.op.as_str(),
            s.errors
        );
    }

    out.push_str(
        "# HELP probterm_request_duration_microseconds End-to-end request latency, by op.\n",
    );
    out.push_str("# TYPE probterm_request_duration_microseconds summary\n");
    for s in snapshots {
        let op = s.op.as_str();
        for (q, v) in [(0.5, s.total.p50()), (0.95, s.total.p95()), (0.99, s.total.p99())] {
            let _ = writeln!(
                out,
                "probterm_request_duration_microseconds{{op=\"{op}\",quantile=\"{q}\"}} {v}"
            );
        }
        let _ = writeln!(
            out,
            "probterm_request_duration_microseconds_sum{{op=\"{op}\"}} {}",
            s.total.sum()
        );
        let _ = writeln!(
            out,
            "probterm_request_duration_microseconds_count{{op=\"{op}\"}} {}",
            s.total.count()
        );
    }

    out.push_str("# HELP probterm_phase_duration_microseconds Per-phase request latency, by op and phase.\n");
    out.push_str("# TYPE probterm_phase_duration_microseconds summary\n");
    for s in snapshots {
        let op = s.op.as_str();
        for (phase, h) in &s.phases {
            for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
                let _ = writeln!(
                    out,
                    "probterm_phase_duration_microseconds{{op=\"{op}\",phase=\"{phase}\",quantile=\"{q}\"}} {v}"
                );
            }
            let _ = writeln!(
                out,
                "probterm_phase_duration_microseconds_sum{{op=\"{op}\",phase=\"{phase}\"}} {}",
                h.sum()
            );
            let _ = writeln!(
                out,
                "probterm_phase_duration_microseconds_count{{op=\"{op}\",phase=\"{phase}\"}} {}",
                h.count()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(total: u64) -> PhaseTimes {
        PhaseTimes {
            queue_us: total / 10,
            cache_us: total / 20,
            engine_us: Some(total / 2),
            serialize_us: total / 20,
            total_us: total,
        }
    }

    #[test]
    fn records_land_on_the_right_op() {
        let m = ServiceMetrics::new();
        m.record(Op::Lower, &phases(1_000), true);
        m.record(Op::Lower, &phases(3_000), false);
        m.record(Op::Stats, &phases(10), true);
        let snaps = m.snapshot();
        assert_eq!(snaps.len(), 2);
        let lower = snaps.iter().find(|s| s.op == Op::Lower).unwrap();
        assert_eq!(lower.requests, 2);
        assert_eq!(lower.errors, 1);
        assert_eq!(lower.total.count(), 2);
        let stats = snaps.iter().find(|s| s.op == Op::Stats).unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.errors, 0);
        // Untouched ops are omitted from the snapshot.
        assert!(!snaps.iter().any(|s| s.op == Op::Simulate));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = ServiceMetrics::new();
        for i in 1..=100 {
            m.record(Op::Verify, &phases(i * 100), i % 10 != 0);
        }
        let stats = StatsSnapshot {
            uptime_ms: 1234,
            served: 100,
            hits: 3,
            misses: 97,
            inflight: 0,
            cache_entries: 5,
            cache_capacity: 1024,
            cache_bytes: 2048,
            oldest_entry_ms: Some(15),
            workers: 2,
            shed: 7,
            resumed: 2,
            checkpointed_frontiers: 3,
            injected_faults: 1,
            drained_in_flight: 4,
            idle_closed: 6,
            coalesced_waiters: 15,
            coalesce_fanout_max: 8,
            queued: 7,
            cache_persist_loaded: 11,
            cache_persist_saved: 12,
            cache_persist_rejected: 13,
        };
        let text = render_prometheus(&m.snapshot(), &stats);
        assert!(text.contains("probterm_uptime_milliseconds 1234\n"));
        assert!(text.contains("probterm_coalesced_waiters_total 15\n"));
        assert!(text.contains("probterm_coalesce_fanout_max 8\n"));
        assert!(text.contains("probterm_queue_depth 7\n"));
        assert!(text.contains("probterm_cache_persist_loaded_total 11\n"));
        assert!(text.contains("probterm_cache_persist_saved_total 12\n"));
        assert!(text.contains("probterm_cache_persist_rejected_total 13\n"));
        assert!(text.contains("probterm_cache_bytes 2048\n"));
        assert!(text.contains("probterm_shed_total 7\n"));
        assert!(text.contains("probterm_resumed_total 2\n"));
        assert!(text.contains("probterm_checkpointed_frontiers_total 3\n"));
        assert!(text.contains("probterm_injected_faults_total 1\n"));
        assert!(text.contains("probterm_drained_in_flight_total 4\n"));
        assert!(text.contains("probterm_idle_closed_total 6\n"));
        assert!(text.contains("probterm_requests_total{op=\"verify\"} 100\n"));
        assert!(text.contains("probterm_request_errors_total{op=\"verify\"} 10\n"));
        assert!(text
            .contains("probterm_request_duration_microseconds{op=\"verify\",quantile=\"0.5\"}"));
        assert!(text.contains(
            "probterm_phase_duration_microseconds{op=\"verify\",phase=\"engine\",quantile=\"0.99\"}"
        ));
        assert!(text.contains("probterm_request_duration_microseconds_count{op=\"verify\"} 100\n"));
        // Every non-comment line is `name{labels} value` or `name value` with
        // a numeric value.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "), "{line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample value: {line}");
        }
    }

    #[test]
    fn every_family_has_help_before_type_and_no_duplicates() {
        let m = ServiceMetrics::new();
        for &op in &Op::ALL {
            m.record(op, &phases(500), true);
        }
        let stats = StatsSnapshot {
            uptime_ms: 1,
            served: 10,
            hits: 1,
            misses: 9,
            inflight: 1,
            cache_entries: 1,
            cache_capacity: 8,
            cache_bytes: 64,
            oldest_entry_ms: None,
            workers: 1,
            shed: 0,
            resumed: 0,
            checkpointed_frontiers: 0,
            injected_faults: 0,
            drained_in_flight: 0,
            idle_closed: 0,
            coalesced_waiters: 0,
            coalesce_fanout_max: 0,
            queued: 2,
            cache_persist_loaded: 0,
            cache_persist_saved: 0,
            cache_persist_rejected: 0,
        };
        let text = render_prometheus(&m.snapshot(), &stats);
        let mut families: Vec<String> = Vec::new();
        let mut pending_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(
                    pending_help.is_none(),
                    "HELP for `{name}` follows an unconsumed HELP line"
                );
                pending_help = Some(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap();
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary"),
                    "unknown family type `{kind}` for `{name}`"
                );
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(name.as_str()),
                    "TYPE for `{name}` is not directly preceded by its HELP line"
                );
                assert!(!families.contains(&name), "duplicate family `{name}`");
                families.push(name);
            }
        }
        assert!(pending_help.is_none(), "trailing HELP without a TYPE line");
        // Every sample belongs to a declared family (summaries add _sum and
        // _count samples).
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            let family = name.trim_end_matches("_sum").trim_end_matches("_count");
            assert!(
                families.iter().any(|f| f == name || f == family),
                "sample `{name}` has no declared family"
            );
        }
        assert!(families.iter().any(|f| f == "probterm_cache_bytes"));
    }

    #[test]
    fn ops_value_reports_percentiles_per_phase() {
        let m = ServiceMetrics::new();
        m.record(Op::Analyze, &phases(8_000), true);
        let v = ops_value(&m.snapshot());
        let analyze = v.get("analyze").unwrap();
        assert_eq!(analyze.get("requests").and_then(Value::as_u64), Some(1));
        let total = analyze.get("total_us").unwrap();
        assert!(total.get("p50").and_then(Value::as_u64).unwrap() >= 8_000);
        let engine = analyze.get("phases_us").unwrap().get("engine").unwrap();
        assert!(engine.get("p99").and_then(Value::as_u64).unwrap() >= 4_000);
    }
}
