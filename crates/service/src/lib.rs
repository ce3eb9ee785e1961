//! `probterm-service` — a concurrent analysis server for the `probterm`
//! workspace.
//!
//! The service exposes every exact engine of the Beutner–Ong reproduction
//! (Monte-Carlo simulation, interval-semantics lower bounds, counting-based
//! AST verification, and the combined report) behind one long-lived,
//! batching, caching front end:
//!
//! * **wire protocol** ([`protocol`]): newline-delimited JSON over stdio or
//!   `std::net` TCP, with structured machine-readable error replies,
//! * **event-driven transport** ([`server`]): one loop that blocks in
//!   `poll(2)` owns every connection's reads — the TCP clients, or stdin in
//!   stdio mode — with no thread per connection and no timed wakeups but
//!   the next idle deadline, framing lines into **one FIFO job queue** that
//!   the worker threads block on,
//! * **single-flight coalescing** (the `flight` module): each engine run is
//!   one I/O-free flight record from admission to reply — what `inspect`
//!   shows, its live progress, its limit and its waiters. Identical requests
//!   of any op, over TCP or through [`handle_line`], join the run instead of
//!   running their own; richer joiners raise its limit, and a poorer one is
//!   answered at its own deadline — a `lower` waiter with the sound bound of
//!   the run's live progress cell (the run itself continues), any other with
//!   `budget_exceeded`,
//! * **deadlines** — per-request `deadline_ms` budgets enforced between
//!   Monte-Carlo chunks and inside the engines; an expired anytime op
//!   (`lower`, `explain`, `analyze`) returns its sound partial result, the
//!   others a `budget_exceeded` error, and the worker lives on; a run that
//!   completes is always served, however late,
//! * **content-addressed caching** ([`cache`]): results are keyed by the
//!   α-invariant canonical hash of the submitted program
//!   ([`probterm_core::spcf::Term::canonical_key`]) plus the analysis and its
//!   configuration, so α-equivalent resubmissions are cache hits (observable
//!   via the `stats` op); entries are typed — complete, or a partial with
//!   its exact bound — and a partial never displaces a higher bound; with
//!   `--cache-path` the cache additionally survives restarts via a
//!   JSONL snapshot stamped with its schema and engine revision, loaded
//!   (and validated) at boot and atomically rewritten on graceful drain,
//! * **telemetry** ([`metrics`]): every request is timed in phases (queue
//!   wait, cache lookup, engine run, serialization) on monotonic clocks into
//!   log-bucketed latency histograms; the `stats` op reports per-op
//!   p50/p95/p99, the `metrics` op renders a Prometheus-style text
//!   exposition, and an optional [`probterm_telemetry::TraceSink`] streams
//!   one JSONL record per request,
//! * **robustness** ([`inject`], [`server`]): bounded admission with load
//!   shedding (structured `overloaded` replies carrying `retry_after_ms`),
//!   resumable anytime analyses (a deadline-truncated `lower` checkpoints
//!   its exploration frontier into the cache; a richer retry resumes from it
//!   instead of recomputing), graceful drain on shutdown, per-connection
//!   idle timeouts, and a deterministic fault-injection harness
//!   (`--inject`) for chaos testing.
//!
//! Everything is std-only: like the rest of the workspace, the crate builds
//! offline with path-only dependencies (`poll(2)` is declared against the
//! libc std already links).
//!
//! # Example (in-process)
//!
//! ```
//! use probterm_service::{Server, ServerConfig};
//!
//! let server = Server::new(ServerConfig::default());
//! let reply = server
//!     .handle_line(r#"{"id":1,"op":"simulate","program":"sample","runs":50}"#)
//!     .unwrap();
//! assert!(reply.contains("\"ok\":true"));
//! ```

#![warn(missing_docs)]

pub mod cache;
mod flight;
pub mod inject;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::{CacheKey, Entry, EntryStatus, ResultCache, CACHE_SNAPSHOT_VERSION};
pub use inject::{FaultRule, InjectDecision, InjectSpec};
pub use metrics::{OpMetrics, OpMetricsSnapshot, PhaseTimes, ServiceMetrics};
pub use protocol::{ErrorCode, Op, Request, ServiceError};
pub use server::{
    handle_line, handle_line_frames, RunningServer, Server, ServerConfig, ServerState,
    StatsSnapshot,
};
pub use probterm_telemetry::TraceSink;
