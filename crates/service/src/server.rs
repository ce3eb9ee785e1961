//! The analysis server: shared state, request dispatch, a worker thread
//! pool, and NDJSON serving over stdio and TCP.
//!
//! Request lifecycle: each non-blank line is admitted once (`admit`):
//! parsed, checked against the server caps and keyed by the canonical hash
//! of its program plus the analysis and its configuration. A line that
//! fails admission is answered inline with its structured error and never
//! takes a queue slot; so is an admitted control op, except `shutdown`,
//! which a worker answers before it sets the shutdown flag. An admitted
//! engine request is answered from the content-addressed [`ResultCache`]
//! when the cache would serve it; otherwise it joins the identical run in
//! flight, is shed, or leads a new flight and is queued. A worker re-parses
//! only its program (a `Term` cannot cross threads) and runs the engine.
//!
//! Transport: one **event-loop thread** owns every connection — the TCP
//! clients of a listener, or stdin in stdio mode — blocking in `poll(2)` and
//! routing each complete line it reads. Queued requests land on **one FIFO
//! job queue** that `workers` pool threads block on. Replies are written to
//! the originating stream under a per-stream mutex.
//!
//! Single-flight coalescing: every engine run is one record of the flight
//! table (the private `flight` module), which makes every coalescing
//! decision without I/O; this module renders and writes what it decides,
//! outside its lock. A request whose key is in flight joins as a
//! **waiter** — over TCP, or blocking in [`handle_line`] — and is answered
//! with the leader's outcome. Joiners raise the run's shared limit to their
//! own deadline. The engine's cooperative check ticks the flight: it streams
//! `lower` progress frames and answers each waiter whose own deadline
//! expired — a `lower` waiter with the sound partial bound of the run's live
//! progress cell, any other with `budget_exceeded`. With
//! [`ServerConfig::cache_path`] set, the cache survives restarts as a
//! version-stamped JSONL snapshot (see [`crate::cache::CACHE_SNAPSHOT_VERSION`]).
//!
//! Deadlines: `deadline_ms` is measured from admission and enforced
//! cooperatively, between Monte-Carlo chunks and inside the symbolic
//! engines. An expired `simulate` or `verify` gets `budget_exceeded`; an
//! expired `lower`, `explain` or `analyze` returns the **sound partial
//! bound** so far, marked `"complete": false` — by Theorem 3.4 every
//! terminated path certifies its mass independently. A run that completes
//! is served, however late. Partial results are cached; a meaningfully
//! richer retry **resumes** from the partial `lower` entry's exploration
//! checkpoint, and a partial never downgrades a complete entry or a higher
//! bound.
//!
//! Overload protection: an engine request that is neither a hit nor a
//! joiner is shed with a structured `overloaded` reply carrying
//! `retry_after_ms` when the queue is deeper than
//! [`ServerConfig::queue_depth`] or its deadline would expire in the queue;
//! control ops are never shed. On shutdown the server drains gracefully:
//! running engines observe the draining flag and checkpoint, and the
//! workers exit once the queue is empty. A deterministic fault-injection
//! harness ([`crate::inject`], CLI `--inject`) can make engine runs panic,
//! stall, or drop their reply mid-line for chaos testing.

use crate::cache::{CacheKey, Entry, EntryStatus, Lookup, ResultCache};
use crate::flight::{FlightTable, Phase, Role, Run, Tick, Waiter};
use crate::inject::{InjectDecision, InjectSpec};
use crate::metrics::{ops_value, render_prometheus, PhaseTimes, ServiceMetrics};
use crate::protocol::{
    error_reply, ok_reply, parse_request, progress_frame, ErrorCode, Op, Request, ServiceError,
};
use probterm_telemetry::{
    Gauge, ProgressCell, ProgressSnapshot, SpanTimer, TraceSink, BOUND_SCALE,
};
use probterm_core::astver::{try_verify_ast, VerifyError};
use probterm_core::intervalsem::{
    try_explain, try_lower_bound, ExplainConfig, LowerBoundCheckpoint, LowerBoundConfig, Poll,
};
use probterm_core::numerics::Rational;
use probterm_core::spcf::{
    catalog, parse_term, try_estimate_termination, MonteCarloConfig, Strategy, Term,
};
use probterm_core::{try_analyze_budgeted, AnalysisConfig};
use serde::Value;
use std::cell::Cell;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsFd, AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server tuning knobs and hard per-request caps.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads popping the shared request queue.
    pub workers: usize,
    /// Capacity of the content-addressed result cache (0 disables it).
    pub cache_capacity: usize,
    /// Hard cap on the `depth` of `lower`/`analyze` requests.
    pub max_depth: usize,
    /// Hard cap on the `runs` of `simulate`/`analyze` requests.
    pub max_runs: usize,
    /// Hard cap on the per-run `steps` budget.
    pub max_steps: usize,
    /// Hard cap on the byte length of submitted programs.
    pub max_program_bytes: usize,
    /// Slow-request threshold in milliseconds: a request whose *engine-run
    /// phase* exceeds this writes one structured JSONL line to the slow log
    /// (stderr under `probterm serve --slow-ms N`). `None` disables it.
    pub slow_ms: Option<u64>,
    /// Admission-queue depth above which engine requests are shed with a
    /// structured `overloaded` reply (`0` disables admission control).
    pub queue_depth: usize,
    /// Per-connection idle read timeout: a TCP connection that stays silent
    /// this long gets a structured `idle_timeout` notice and is closed.
    /// `None` (the default) disables it.
    pub idle_timeout_ms: Option<u64>,
    /// Deterministic fault injection for chaos testing (`--inject`); `None`
    /// in production.
    pub inject: Option<InjectSpec>,
    /// Path of the persistent cache snapshot: loaded at boot, atomically
    /// rewritten on graceful drain. `None` (the default) keeps the cache
    /// in-memory only.
    pub cache_path: Option<String>,
    /// Maximum concurrently open TCP connections; a connection over the
    /// limit gets a structured `overloaded` notice and is closed.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            cache_capacity: 1024,
            max_depth: 400,
            max_runs: 1_000_000,
            max_steps: 1_000_000,
            max_program_bytes: 64 * 1024,
            slow_ms: None,
            queue_depth: 256,
            idle_timeout_ms: None,
            inject: None,
            cache_path: None,
            max_conns: 1024,
        }
    }
}

/// A point-in-time snapshot of the server counters (the `stats` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Milliseconds since the server state was created, measured on the
    /// monotonic [`std::time::Instant`] clock (immune to wall-clock jumps).
    pub uptime_ms: u128,
    /// Total requests handled (including control ops and errors).
    pub served: u64,
    /// Result-cache lookups that found an entry.
    pub hits: u64,
    /// Result-cache lookups that found nothing.
    pub misses: u64,
    /// Engine requests currently being computed by workers.
    pub inflight: u64,
    /// Entries currently in the result cache.
    pub cache_entries: usize,
    /// Capacity of the result cache.
    pub cache_capacity: usize,
    /// Approximate bytes held by cached result payloads.
    pub cache_bytes: u64,
    /// Milliseconds since the least-recently-served cache entry was last
    /// inserted or hit; `None` when the cache is empty.
    pub oldest_entry_ms: Option<u64>,
    /// Number of worker threads.
    pub workers: usize,
    /// Requests shed by admission control with an `overloaded` reply.
    pub shed: u64,
    /// `lower` runs that resumed from a cached exploration checkpoint.
    pub resumed: u64,
    /// Partial `lower` replies that carried a resumable frontier checkpoint.
    pub checkpointed_frontiers: u64,
    /// Faults injected by the `--inject` harness.
    pub injected_faults: u64,
    /// Engine requests that finished while the server was draining.
    pub drained_in_flight: u64,
    /// Connections closed by the idle read timeout.
    pub idle_closed: u64,
    /// Requests coalesced onto an identical in-flight run instead of
    /// enqueueing their own engine job.
    pub coalesced_waiters: u64,
    /// Largest number of waiters one finishing run fanned its reply out to.
    pub coalesce_fanout_max: u64,
    /// Jobs currently waiting in the worker queue.
    pub queued: u64,
    /// Entries loaded from the cache snapshot at boot.
    pub cache_persist_loaded: u64,
    /// Entries written to the cache snapshot on graceful drain.
    pub cache_persist_saved: u64,
    /// Snapshot lines ignored at load (a version mismatch counts once; each
    /// corrupt or invalid line counts).
    pub cache_persist_rejected: u64,
}

/// Shared server state: configuration, result cache, counters, per-op
/// latency metrics and the optional per-request trace sink.
#[derive(Debug)]
pub struct ServerState {
    config: ServerConfig,
    cache: Mutex<ResultCache>,
    served: AtomicU64,
    inflight: AtomicU64,
    shutdown: AtomicBool,
    /// Set when the server stops accepting work and starts its graceful
    /// drain; engine budget checks observe it and checkpoint early.
    draining: AtomicBool,
    /// Jobs currently waiting in the worker queue (the admission-control
    /// input and the `queued` stat).
    queued: AtomicU64,
    /// Engine runs started, 1-based; the fault-injection schedule is a pure
    /// function of this counter.
    engine_runs: AtomicU64,
    shed: AtomicU64,
    resumed: AtomicU64,
    checkpointed_frontiers: AtomicU64,
    injected_faults: AtomicU64,
    drained_in_flight: AtomicU64,
    idle_closed: AtomicU64,
    started: Instant,
    metrics: ServiceMetrics,
    request_seq: AtomicU64,
    trace: Option<TraceSink>,
    slow: Option<TraceSink>,
    /// One record per engine run from its admission to its reply: what
    /// `inspect` shows, and the waiters coalesced onto the run.
    flights: Mutex<FlightTable<ReplyTo>>,
    coalesced_waiters: AtomicU64,
    /// High-water mark of waiters any single coalesced run fanned out to.
    coalesce_fanout_max: Gauge,
    cache_persist_loaded: AtomicU64,
    cache_persist_saved: AtomicU64,
    cache_persist_rejected: AtomicU64,
    /// Syntactic memo from raw program source to its α-invariant canonical
    /// key. Admission ([`admit`]) keys every engine request, and hot traffic
    /// resubmits byte-identical sources — parsing is a pure function, so
    /// one parse per distinct spelling suffices. Bounded by
    /// [`KEY_MEMO_CAPACITY`]; cleared wholesale when full.
    key_memo: Mutex<HashMap<String, u128>>,
    /// The serve loop polls `wake_rx`; [`ServerState::request_shutdown`]
    /// writes a byte to the nonblocking `wake_tx`.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

/// Entry cap for [`ServerState::key_memo`]; at the protocol's 64 KiB
/// program cap this bounds the memo at a few tens of MiB worst case, and in
/// practice hot workloads cycle a handful of spellings.
const KEY_MEMO_CAPACITY: usize = 1024;

impl ServerState {
    fn new(
        config: ServerConfig,
        trace: Option<TraceSink>,
        slow: Option<TraceSink>,
    ) -> ServerState {
        let (wake_rx, wake_tx) = UnixStream::pair().expect("create the serve loop's wake pair");
        wake_tx.set_nonblocking(true).expect("make the wake pair nonblocking");
        ServerState {
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            config,
            served: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            checkpointed_frontiers: AtomicU64::new(0),
            injected_faults: AtomicU64::new(0),
            drained_in_flight: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            started: Instant::now(),
            metrics: ServiceMetrics::new(),
            request_seq: AtomicU64::new(0),
            trace,
            slow,
            flights: Mutex::new(FlightTable::new()),
            coalesced_waiters: AtomicU64::new(0),
            coalesce_fanout_max: Gauge::new(),
            cache_persist_loaded: AtomicU64::new(0),
            cache_persist_saved: AtomicU64::new(0),
            cache_persist_rejected: AtomicU64::new(0),
            key_memo: Mutex::new(HashMap::new()),
            wake_rx,
            wake_tx,
        }
    }

    /// Sets the shutdown flag, then wakes a serve loop blocked in `poll`
    /// (the byte is never read; a full pair is readable already).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// The canonical key of `source`, via [`ServerState::key_memo`]:
    /// byte-identical resubmissions skip the parse entirely. A program that
    /// does not parse is a structured `parse_error`; parse failures are
    /// never memoized.
    fn memoized_term_key(&self, source: &str) -> Result<u128, ServiceError> {
        if let Ok(memo) = self.key_memo.lock() {
            if let Some(key) = memo.get(source) {
                return Ok(*key);
            }
        }
        let key = parse_program(source)?.canonical_key();
        if let Ok(mut memo) = self.key_memo.lock() {
            if memo.len() >= KEY_MEMO_CAPACITY {
                memo.clear();
            }
            memo.insert(source.to_string(), key);
        }
        Ok(key)
    }

    /// `true` once a `shutdown` request has been processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The per-op request counters and latency histograms.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Snapshots every counter the `stats` op reports.
    pub fn stats(&self) -> StatsSnapshot {
        let cache = self.cache.lock().expect("cache lock");
        StatsSnapshot {
            uptime_ms: self.started.elapsed().as_millis(),
            served: self.served.load(Ordering::SeqCst),
            hits: cache.hits(),
            misses: cache.misses(),
            inflight: self.inflight.load(Ordering::SeqCst),
            cache_entries: cache.len(),
            cache_capacity: cache.capacity(),
            cache_bytes: cache.bytes(),
            oldest_entry_ms: cache.oldest_entry_ms(),
            workers: self.config.workers,
            shed: self.shed.load(Ordering::SeqCst),
            resumed: self.resumed.load(Ordering::SeqCst),
            checkpointed_frontiers: self.checkpointed_frontiers.load(Ordering::SeqCst),
            injected_faults: self.injected_faults.load(Ordering::SeqCst),
            drained_in_flight: self.drained_in_flight.load(Ordering::SeqCst),
            idle_closed: self.idle_closed.load(Ordering::SeqCst),
            coalesced_waiters: self.coalesced_waiters.load(Ordering::Relaxed),
            coalesce_fanout_max: self.coalesce_fanout_max.get(),
            queued: self.queued.load(Ordering::Relaxed),
            cache_persist_loaded: self.cache_persist_loaded.load(Ordering::Relaxed),
            cache_persist_saved: self.cache_persist_saved.load(Ordering::Relaxed),
            cache_persist_rejected: self.cache_persist_rejected.load(Ordering::Relaxed),
        }
    }

    /// Loads the persistent cache snapshot named by
    /// [`ServerConfig::cache_path`], if any. A missing file is a fresh boot;
    /// a version-mismatched file or an invalid line is ignored (counted in
    /// `cache_persist_rejected`) and rebuilt at the next drain.
    fn load_cache_snapshot(&self) {
        let Some(path) = &self.config.cache_path else { return };
        let Ok(text) = fs::read_to_string(path) else { return };
        let (loaded, rejected) = self.cache.lock().expect("cache lock").load_snapshot(&text);
        self.cache_persist_loaded.fetch_add(loaded, Ordering::Relaxed);
        self.cache_persist_rejected.fetch_add(rejected, Ordering::Relaxed);
    }

    /// Writes the cache snapshot to [`ServerConfig::cache_path`] atomically
    /// (temp file + rename). Returns the number of entries written (0 when
    /// no path is configured).
    fn persist_cache_snapshot(&self) -> io::Result<usize> {
        let Some(path) = &self.config.cache_path else { return Ok(0) };
        let (body, count) = self.cache.lock().expect("cache lock").snapshot();
        let tmp = format!("{path}.tmp");
        fs::write(&tmp, body.as_bytes())?;
        fs::rename(&tmp, path)?;
        self.cache_persist_saved.fetch_add(count as u64, Ordering::Relaxed);
        Ok(count)
    }
}

/// The interruption signal threaded into one engine run: its flight's
/// shared limit plus the server-wide draining flag, so a graceful shutdown
/// checkpoints in-flight anytime analyses instead of waiting them out.
///
/// The limit cell holds the milliseconds from the leader's admission the run
/// may burn (`u64::MAX` is unbounded); joiners only ever raise it, so a late
/// joiner without a deadline turns a bounded run into an unbounded one
/// mid-flight. [`RunBudget::check`] is also the run's one observer: it ticks
/// the flight at most once per [`STREAM_FRAME_INTERVAL`].
struct RunBudget<'a> {
    /// When the run's clock started: its leader's admission.
    started: Instant,
    limit_ms: &'a AtomicU64,
    draining: &'a AtomicBool,
    /// Streams progress frames and answers expired waiters; gets the time.
    tick: &'a dyn Fn(Instant),
    last_tick: Cell<Option<Instant>>,
}

impl RunBudget<'_> {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The limit in force, when the run has exceeded it by `now`.
    fn exceeded_limit(&self, now: Instant) -> Option<u64> {
        let limit_ms = self.limit_ms.load(Ordering::Relaxed);
        let exceeded = limit_ms != u64::MAX
            && now.duration_since(self.started) > Duration::from_millis(limit_ms);
        exceeded.then_some(limit_ms)
    }

    fn error(&self, phase: &str) -> ServiceError {
        let now = Instant::now();
        match self.exceeded_limit(now) {
            Some(limit_ms) => deadline_error(limit_ms, now.duration_since(self.started), phase),
            None => ServiceError::new(
                ErrorCode::Overloaded,
                format!("server is draining; interrupted {phase}"),
            ),
        }
    }

    /// The cooperative check every engine polls: ticks the flight when an
    /// interval has passed, then fails once the deadline expired or the
    /// server drains.
    fn check(&self, phase: &str) -> Result<(), ServiceError> {
        let now = Instant::now();
        if self.last_tick.get().is_none_or(|last| now - last >= STREAM_FRAME_INTERVAL) {
            self.last_tick.set(Some(now));
            (self.tick)(now);
        }
        if self.exceeded_limit(now).is_some() || self.draining() {
            Err(self.error(phase))
        } else {
            Ok(())
        }
    }
}

fn deadline_error(limit_ms: u64, elapsed: Duration, phase: &str) -> ServiceError {
    ServiceError::new(
        ErrorCode::BudgetExceeded,
        format!(
            "deadline of {limit_ms} ms exceeded {phase} ({} ms elapsed)",
            elapsed.as_millis()
        ),
    )
}

// -------------------------------------------------------------- coalescing

/// Where a flight's waiter gets its lines: its connection, or the channel
/// of a [`handle_line`] caller blocked on the reply (`true` marks the reply,
/// `false` a progress frame).
#[derive(Clone, Debug)]
enum ReplyTo {
    Conn(SharedWriter),
    Caller(mpsc::Sender<(String, bool)>),
}

impl ReplyTo {
    fn send(&self, line: String, reply: bool) {
        match self {
            ReplyTo::Conn(out) => write_reply_line(out, line),
            ReplyTo::Caller(caller) => {
                let _ = caller.send((line, reply));
            }
        }
    }
}

/// Writes one reply line to a transport, newline appended, in one write:
/// two small writes would interact with Nagle + delayed ACKs and cost
/// ~10 ms per lock-step request on TCP.
fn write_reply_line(out: &SharedWriter, mut line: String) {
    line.push('\n');
    if let Ok(mut out) = out.lock() {
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// The flight table, poison-tolerant: its operations never leave it
/// half-updated.
fn flights(state: &ServerState) -> std::sync::MutexGuard<'_, FlightTable<ReplyTo>> {
    state.flights.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Leads or joins the flight of an admitted engine request's `key`.
fn arrive(state: &ServerState, request: &Request, key: &CacheKey, reply: ReplyTo) -> Role {
    let arrival = Waiter {
        id: request.id.clone(),
        reply,
        deadline_ms: request.deadline_ms,
        stream: request.stream,
        arrived: Instant::now(),
    };
    let role = flights(state).arrive(key, request.op, arrival);
    if role == Role::Join {
        state.coalesced_waiters.fetch_add(1, Ordering::Relaxed);
    }
    role
}

/// Renders and sends one waiter's reply through [`finish`] as a coalesced
/// answer (cache tag `"coalesced"` on success — the waiter consumed neither
/// a cache lookup nor an engine run).
fn reply_waiter(
    state: &ServerState,
    op: Op,
    canonical_key: u128,
    waiter: &Waiter<ReplyTo>,
    outcome: &Result<Value, ServiceError>,
) {
    let answer = Answer {
        canonical_key: Some(canonical_key),
        coalesced: true,
        ..Answer::new(&waiter.id, Some(op), waiter.arrived)
    };
    let line = finish(state, answer, outcome.clone().map(|value| (value, Some("coalesced"))));
    waiter.reply.send(line, true);
}

/// The error of every request of a flight that will never run.
fn retired_error() -> ServiceError {
    ServiceError::new(ErrorCode::Internal, "the worker pool is gone; the run was retired")
}

/// One tick of a running flight: a `lower` run renders a progress frame for
/// its streaming leader and each streaming waiter, and every waiter whose
/// own deadline expired is answered — a `lower` waiter with the sound
/// partial bound of the run's live progress, any other with the
/// `budget_exceeded` a solo run would get.
fn tick_flight(
    state: &ServerState,
    request: &Request,
    resolved: &Resolved,
    progress: &ProgressCell,
    frames: FrameSink,
    engine_started: Instant,
    now: Instant,
) {
    let Tick { expired, streaming } = flights(state).tick(&resolved.key, now);
    let lower = request.op == Op::Lower;
    let snap = progress.snapshot();
    let elapsed_ms = now.saturating_duration_since(engine_started).as_millis();
    if lower {
        if request.stream {
            frames(&progress_frame(&request.id, progress_value(&snap, elapsed_ms)));
        }
        for (id, reply) in &streaming {
            reply.send(progress_frame(id, progress_value(&snap, elapsed_ms)), false);
        }
    }
    for waiter in &expired {
        let outcome = if lower {
            Ok(progress_partial_value(&snap, resolved.depth, elapsed_ms))
        } else {
            let limit_ms = waiter.deadline_ms.unwrap_or(0);
            let elapsed = now.saturating_duration_since(waiter.arrived);
            Err(deadline_error(limit_ms, elapsed, "while coalesced onto an identical run"))
        };
        reply_waiter(state, request.op, resolved.key.term, waiter, &outcome);
    }
}

// ------------------------------------------------------------------ dispatch

/// What serving one admitted request produced (pool-internal).
struct LineOutcome {
    reply: String,
    /// Injected fault: write only half the reply, then hard-close the
    /// connection.
    drop_reply: bool,
}

/// A sink for streamed progress frames: called with one frame line (no
/// trailing newline) the moment it is produced, mid-engine-run. Interior
/// mutability is the caller's business (the engine loop only has `&`).
type FrameSink<'a> = &'a (dyn Fn(&str) + 'a);

/// A request line that passed [`admit`]: parsed, and for an engine op also
/// capped and keyed. Nothing else reaches the cache, the flight table,
/// the queue or a worker.
struct Admitted {
    request: Request,
    /// `None` for control ops.
    engine: Option<Resolved>,
}

/// What admission resolved for an engine request: its CLI-parity
/// parameters, each within the server caps, and its content address — the
/// one key the cache, the flight table and the inline hit path use.
struct Resolved {
    depth: usize,
    runs: usize,
    steps: usize,
    seed: u64,
    key: CacheKey,
}

/// Admits one non-blank request line: the only place a line is parsed,
/// validated and keyed, before any cache lookup, flight join, shedding or
/// enqueue. The checks run in the order that fixes the error code of a line
/// with several faults: JSON and fields ([`parse_request`]), the program
/// byte cap, the term parse (through [`ServerState::key_memo`]), then the
/// depth/runs/steps caps. A rejected line comes back as its rendered,
/// accounted error reply.
fn admit(state: &ServerState, line: &str) -> Result<Admitted, String> {
    let started = Instant::now();
    let (id, op, error) = match parse_request(line) {
        Err((id, error)) => (id, None, error),
        Ok(request) if !request.op.is_engine_op() => {
            return Ok(Admitted { request, engine: None })
        }
        Ok(request) => match resolve(state, &request) {
            Ok(resolved) => return Ok(Admitted { request, engine: Some(resolved) }),
            Err(error) => (request.id, Some(request.op), error),
        },
    };
    Err(finish(state, Answer::new(&id, op, started), Err(error)))
}

/// The admission checks of a parsed engine request, then its parameters:
/// CLI-parity defaults (`analyze` defaults its Monte-Carlo cross-check off,
/// like `probterm analyze` does) under the server's hard caps.
fn resolve(state: &ServerState, request: &Request) -> Result<Resolved, ServiceError> {
    let config = &state.config;
    let source = request.program.as_deref().expect("parse_request requires a program");
    if source.len() > config.max_program_bytes {
        return Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!(
                "program of {} bytes exceeds the {}-byte cap",
                source.len(),
                config.max_program_bytes
            ),
        ));
    }
    let term = state.memoized_term_key(source)?;
    let depth = request.depth.unwrap_or(120);
    let runs = request.runs.unwrap_or(if request.op == Op::Analyze { 0 } else { 10_000 });
    let steps = request.steps.unwrap_or(20_000);
    let seed = request.seed.unwrap_or(2021);
    let caps = [
        ("depth", depth, config.max_depth),
        ("runs", runs, config.max_runs),
        ("steps", steps, config.max_steps),
    ];
    for (what, value, max) in caps {
        if value > max {
            return Err(ServiceError::new(
                ErrorCode::BadRequest,
                format!("{what} {value} exceeds the server cap {max}"),
            ));
        }
    }
    let config = match request.op {
        Op::Simulate => format!(
            "runs={runs};steps={steps};seed={seed};strategy={}",
            strategy_str(request.strategy)
        ),
        Op::Lower => format!("depth={depth}"),
        Op::Explain => format!(
            "depth={depth};top={}",
            request.top.map_or_else(|| "all".to_string(), |t| t.to_string())
        ),
        Op::Verify => String::new(),
        Op::Analyze => format!("depth={depth};runs={runs};steps={steps};seed={seed}"),
        _ => unreachable!("only engine ops are resolved"),
    };
    let key = CacheKey { term, analysis: request.op.as_str(), config };
    Ok(Resolved { depth, runs, steps, seed, key })
}

/// Parses a request's program; a syntax error is a structured `parse_error`.
fn parse_program(source: &str) -> Result<Term, ServiceError> {
    parse_term(source)
        .map_err(|e| ServiceError::new(ErrorCode::ParseError, format!("parse error: {e}")))
}

/// Handles one NDJSON request line; returns the reply line (without trailing
/// newline), or `None` for blank input lines.
///
/// This is the full service pipeline minus the transport and the queue,
/// usable directly by tests and in-process embedders: `admit`, the inline
/// cache hit, then the flight of the request's key. Leading it runs the
/// engine on the calling thread; joining blocks until the leader — another
/// caller, or a worker — answers. A `shutdown` request sets the state's
/// shutdown flag as a side effect. Streamed progress frames are dropped
/// (there is no transport to carry them); use [`handle_line_frames`] to
/// capture them.
pub fn handle_line(state: &ServerState, line: &str) -> Option<String> {
    handle_line_frames(state, line, &|_| {})
}

/// Like [`handle_line`], but delivers streamed `{"progress": ...}` frames to
/// `frames` as they are produced — the transportless counterpart of what a
/// TCP client of a `"stream": true` request sees on the wire.
pub fn handle_line_frames(
    state: &ServerState,
    line: &str,
    frames: &dyn Fn(&str),
) -> Option<String> {
    if line.trim().is_empty() {
        return None;
    }
    let admitted = match admit(state, line) {
        Ok(admitted) => admitted,
        Err(reply) => return Some(reply),
    };
    let request = &admitted.request;
    if let Some(Resolved { key, .. }) = &admitted.engine {
        if let Some(reply) = serve_inline_hit(state, request, key) {
            return Some(reply);
        }
        let (caller, lines) = mpsc::channel();
        if arrive(state, request, key, ReplyTo::Caller(caller)) == Role::Join {
            for (line, reply) in lines {
                if reply {
                    return Some(line);
                }
                frames(&line);
            }
            unreachable!("a flight replies to each waiter it lets go");
        }
    }
    let reply = serve_admitted(state, &admitted, 0, frames).reply;
    if request.op == Op::Shutdown {
        state.request_shutdown();
    }
    Some(reply)
}

/// One answered request, as [`finish`] accounts it.
struct Answer<'a> {
    id: &'a Option<Value>,
    /// `None` for unparseable lines: traced, but kept out of the per-op
    /// histograms.
    op: Option<Op>,
    canonical_key: Option<u128>,
    /// When this request's handling began (after any queue wait).
    started: Instant,
    /// The queue, cache and engine phases; [`finish`] adds the rest.
    phases: PhaseTimes,
    /// Fanned out from an identical in-flight run.
    coalesced: bool,
}

impl<'a> Answer<'a> {
    fn new(id: &'a Option<Value>, op: Option<Op>, started: Instant) -> Answer<'a> {
        Answer {
            id,
            op,
            canonical_key: None,
            started,
            phases: PhaseTimes::default(),
            coalesced: false,
        }
    }
}

/// Renders the reply to one answered request and accounts it. This is the
/// single exit of every request — run by a worker, answered or shed inline
/// by the transport reader, or fanned out from a coalesced run: it bumps
/// `served`, takes the next trace sequence number, records the per-op
/// metrics (whose engine phase counts engine runs only) and writes the
/// trace record and the slow-request line.
fn finish(state: &ServerState, mut answer: Answer<'_>, result: DispatchResult) -> String {
    let serialize = SpanTimer::start();
    let (reply, outcome, cache) = match result {
        Ok((payload, cache)) => {
            let op = answer.op.expect("only parsed requests succeed");
            let elapsed_ms = answer.started.elapsed().as_millis();
            (ok_reply(answer.id, op, cache, elapsed_ms, payload), "ok", cache)
        }
        Err(e) => (error_reply(answer.id, &e), e.code.as_str(), None),
    };
    let phases = &mut answer.phases;
    phases.serialize_us = serialize.elapsed_us();
    phases.total_us = phases.queue_us.saturating_add(micros(answer.started.elapsed()));
    state.served.fetch_add(1, Ordering::SeqCst);
    let seq = state.request_seq.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(op) = answer.op {
        state.metrics.record(op, &answer.phases, outcome == "ok");
    }
    emit_trace(state, seq, &answer, outcome, cache);
    emit_slow(state, seq, &answer);
    reply
}

/// The fields the trace record and the slow-request line share, in schema
/// order: `canonical_key` (first 16 hex digits of the term's α-invariant
/// hash; `null` off the engine path), the four phase timings and `total_us`,
/// in microseconds (`engine_us` is 0 when no engine ran).
fn key_and_phase_fields(answer: &Answer<'_>) -> [(String, Value); 6] {
    let us = |v: u64| Value::UInt(u128::from(v));
    let phases = &answer.phases;
    [
        (
            "canonical_key".into(),
            answer
                .canonical_key
                .map_or(Value::Null, |k| Value::Str(format!("{k:032x}")[..16].to_string())),
        ),
        ("queue_us".into(), us(phases.queue_us)),
        ("cache_us".into(), us(phases.cache_us)),
        ("engine_us".into(), us(phases.engine_us.unwrap_or(0))),
        ("serialize_us".into(), us(phases.serialize_us)),
        ("total_us".into(), us(phases.total_us)),
    ]
}

/// Emits one per-request trace record when the state carries a sink.
///
/// Schema (one JSON object per line, field order fixed): `seq` (server-wide
/// request number), `id` (echoed request id), `op` (`"invalid"` for
/// unparseable lines), the [`key_and_phase_fields`], `outcome` (`"ok"` or
/// the error code) and `cache` (`"hit"`/`"miss"`/`"coalesced"`/`null`).
/// Replies fanned out to coalesced waiters additionally carry
/// `"coalesced": true`.
fn emit_trace(
    state: &ServerState,
    seq: u64,
    answer: &Answer<'_>,
    outcome: &str,
    cache: Option<&str>,
) {
    let Some(sink) = &state.trace else { return };
    let mut record = vec![
        ("seq".into(), Value::UInt(u128::from(seq))),
        ("id".into(), answer.id.clone().unwrap_or(Value::Null)),
        ("op".into(), Value::Str(answer.op.map_or("invalid", Op::as_str).to_string())),
    ];
    record.extend(key_and_phase_fields(answer));
    record.push(("outcome".into(), Value::Str(outcome.to_string())));
    record.push(("cache".into(), cache.map_or(Value::Null, |c| Value::Str(c.to_string()))));
    if answer.coalesced {
        record.push(("coalesced".into(), Value::Bool(true)));
    }
    sink.emit(record);
}

/// Writes one structured slow-request line when a request's *engine-run*
/// phase exceeded the configured [`ServerConfig::slow_ms`] threshold.
///
/// Schema (one JSON object per line): `slow_ms` (the threshold), `seq`,
/// `op` and the [`key_and_phase_fields`]. Requests that ran no engine —
/// cache hits, control ops, sheds, coalesced waiters — never trip it.
fn emit_slow(state: &ServerState, seq: u64, answer: &Answer<'_>) {
    let (Some(threshold_ms), Some(sink), Some(op), Some(engine_us)) =
        (state.config.slow_ms, &state.slow, answer.op, answer.phases.engine_us)
    else {
        return;
    };
    if u128::from(engine_us) <= u128::from(threshold_ms) * 1_000 {
        return;
    }
    let mut record = vec![
        ("slow_ms".into(), Value::UInt(u128::from(threshold_ms))),
        ("seq".into(), Value::UInt(u128::from(seq))),
        ("op".into(), Value::Str(op.as_str().to_string())),
    ];
    record.extend(key_and_phase_fields(answer));
    sink.emit(record);
}

/// Serves one admitted request on the calling thread (a worker, or the
/// caller of [`handle_line`]; the transport also answers control ops this
/// way): a control op's payload, or the flight the engine op leads.
fn serve_admitted(
    state: &ServerState,
    admitted: &Admitted,
    queue_us: u64,
    frames: FrameSink,
) -> LineOutcome {
    let request = &admitted.request;
    let phases = PhaseTimes { queue_us, ..Default::default() };
    let mut answer =
        Answer { phases, ..Answer::new(&request.id, Some(request.op), Instant::now()) };
    let mut drop_reply = false;
    let dispatched = match &admitted.engine {
        None => Ok((control_payload(state, request.op), None)),
        Some(resolved) => {
            answer.canonical_key = Some(resolved.key.term);
            let phases = &mut answer.phases;
            lead_flight(state, request, resolved, phases, &mut drop_reply, frames)
        }
    };
    LineOutcome { reply: finish(state, answer, dispatched), drop_reply }
}

type DispatchResult = Result<(Value, Option<&'static str>), ServiceError>;

/// The payload of a control op.
fn control_payload(state: &ServerState, op: Op) -> Value {
    match op {
        Op::Catalog => catalog_payload(),
        Op::Stats => stats_payload(state),
        Op::Metrics => metrics_payload(state),
        Op::Inspect => inspect_payload(state),
        Op::Shutdown => Value::Object(vec![]),
        Op::Simulate | Op::Lower | Op::Explain | Op::Verify | Op::Analyze => {
            unreachable!("engine ops are admitted with a resolved key")
        }
    }
}

/// Runs the flight this request leads, then finishes it: every waiter still
/// attached gets the leader's outcome — on success and on every error path
/// (deadline, caught engine panic), so no waiter can hang.
fn lead_flight(
    state: &ServerState,
    request: &Request,
    resolved: &Resolved,
    phases: &mut PhaseTimes,
    drop_reply: &mut bool,
    frames: FrameSink,
) -> DispatchResult {
    let Some(run) = flights(state).enter(&resolved.key, Phase::Cache) else {
        return Err(retired_error());
    };
    let dispatched = engine_op(state, request, resolved, &run, phases, drop_reply, frames);
    let waiters = flights(state).finish(&resolved.key);
    if !waiters.is_empty() {
        state.coalesce_fanout_max.ratchet(waiters.len() as u64);
        let outcome = dispatched.as_ref().map(|(value, _)| value.clone()).map_err(Clone::clone);
        for waiter in &waiters {
            reply_waiter(state, request.op, resolved.key.term, waiter, &outcome);
        }
    }
    dispatched
}

fn engine_op(
    state: &ServerState,
    request: &Request,
    resolved: &Resolved,
    run: &Run,
    phases: &mut PhaseTimes,
    drop_reply: &mut bool,
    frames: FrameSink,
) -> DispatchResult {
    let &Resolved { depth, runs, steps, seed, ref key } = resolved;
    // The cache decides (see `cache::decide`): serve the entry, or run the
    // engine — resuming from a declined partial's checkpoint, so the
    // already-measured paths are never re-explored.
    let cache_timer = SpanTimer::start();
    let lookup = state.cache.lock().expect("cache lock").lookup(key, request.deadline_ms);
    phases.cache_us = cache_timer.elapsed_us();
    let resume = match lookup {
        Lookup::Hit(payload) => return Ok((payload, Some("hit"))),
        Lookup::Miss(resume) => resume,
    };
    // Admission validated and keyed the request. Its term is parsed again
    // here only because a `Term` holds `Rc` identifiers and cannot cross
    // threads.
    let source = request.program.as_deref().expect("admitted engine requests carry a program");
    let term = parse_program(source)?;

    // Fault injection draws its decision from the engine-run counter, so the
    // schedule is a pure function of request order over cache misses.
    let inject = state.config.inject.as_ref().map_or_else(InjectDecision::default, |spec| {
        let run = state.engine_runs.fetch_add(1, Ordering::SeqCst) + 1;
        let decision = spec.decide(run);
        let faults = decision.fault_count();
        if faults > 0 {
            state.injected_faults.fetch_add(faults, Ordering::SeqCst);
        }
        decision
    });
    *drop_reply = inject.drop_reply;
    if resume.is_some() {
        state.resumed.fetch_add(1, Ordering::SeqCst);
    }

    // The deadline runs from the flight's admission, not from run start: a
    // queue wait spends the budget, so a request is answered within about
    // its deadline, with the anytime partial computed in what is left.
    let progress = &run.progress;
    let engine_started = Instant::now();
    let tick = |now| tick_flight(state, request, resolved, progress, frames, engine_started, now);
    let budget = RunBudget {
        started: run.admitted,
        limit_ms: &run.limit_ms,
        draining: &state.draining,
        tick: &tick,
        last_tick: Cell::new(None),
    };
    flights(state).enter(key, Phase::Engine);
    let engine_timer = SpanTimer::start();
    state.inflight.fetch_add(1, Ordering::SeqCst);
    let computed = catch_unwind(AssertUnwindSafe(|| {
        if let Some(ms) = inject.slow_ms {
            thread::sleep(Duration::from_millis(ms));
        }
        if inject.panic {
            panic!("injected fault: engine panic");
        }
        match request.op {
            Op::Simulate => {
                simulate_payload(&term, runs, steps, seed, request.strategy, &budget)
            }
            Op::Lower => lower_payload(&term, depth, &budget, resume.as_ref(), progress),
            Op::Explain => explain_payload(&term, source, depth, request.top, &budget),
            Op::Verify => verify_payload(&term, &budget),
            Op::Analyze => analyze_payload(&term, depth, runs, steps, seed, &budget),
            _ => unreachable!("engine_op is only called for engine ops"),
        }
    }));
    state.inflight.fetch_sub(1, Ordering::SeqCst);
    phases.engine_us = Some(engine_timer.elapsed_us());
    if budget.draining() {
        state.drained_in_flight.fetch_add(1, Ordering::SeqCst);
    }
    let entry = computed
        .map_err(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "engine panicked".to_string());
            ServiceError::new(ErrorCode::Internal, format!("engine failure: {message}"))
        })
        .and_then(|r| r)?;
    if matches!(entry.status, EntryStatus::Partial { checkpoint: Some(_), .. }) {
        state.checkpointed_frontiers.fetch_add(1, Ordering::SeqCst);
    }
    // A run that returned is served, however late: a complete result is the
    // answer, and a partial one is the deadline-truncated answer. `offer`
    // applies the no-downgrade rule under the lock: concurrently, another
    // worker may have stored the complete answer, or a higher partial bound,
    // since our lookup above.
    let payload = entry.payload.clone();
    state.cache.lock().expect("cache lock").offer(key.clone(), entry);
    Ok((payload, Some("miss")))
}

fn strategy_str(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CallByName => "cbn",
        Strategy::CallByValue => "cbv",
    }
}

/// Monte-Carlo estimation via the library estimator, with cooperative
/// deadline checks between chunks of runs.
///
/// This is [`probterm_core::spcf::try_estimate_termination`] — the very loop
/// behind [`probterm_core::spcf::estimate_termination`] — so the reply
/// carries exactly the numbers the library call produces.
fn simulate_payload(
    term: &Term,
    runs: usize,
    max_steps: usize,
    seed: u64,
    strategy: Strategy,
    budget: &RunBudget,
) -> Result<Entry, ServiceError> {
    const CHUNK: usize = 32;
    let config = MonteCarloConfig { runs, max_steps, seed, strategy };
    let estimate = try_estimate_termination(term, &config, |i| {
        if i % CHUNK == 0 {
            budget.check(&format!("after {i}/{runs} Monte-Carlo runs"))
        } else {
            Ok(())
        }
    })?;
    Ok(Entry::complete(Value::Object(vec![
        ("runs".into(), Value::UInt(estimate.runs as u128)),
        ("terminated".into(), Value::UInt(estimate.terminated as u128)),
        ("stuck".into(), Value::UInt(estimate.stuck as u128)),
        ("out_of_fuel".into(), Value::UInt(estimate.out_of_fuel as u128)),
        ("probability".into(), Value::Num(estimate.probability())),
        ("confidence_99".into(), Value::Num(estimate.confidence_99())),
        ("mean_steps".into(), Value::Num(estimate.mean_steps)),
        ("mean_samples".into(), Value::Num(estimate.mean_samples)),
        ("steps".into(), Value::UInt(max_steps as u128)),
        ("seed".into(), Value::UInt(seed as u128)),
        ("strategy".into(), Value::Str(strategy_str(strategy).into())),
    ])))
}

/// How often an engine run ticks its flight ([`tick_flight`]): the pace of
/// `"stream": true` progress frames, and the lag with which a waiter is
/// answered at its own deadline. Small enough that a deadline-bounded run
/// still produces several frames; large enough that frames never dominate a
/// fast run's wire traffic.
const STREAM_FRAME_INTERVAL: Duration = Duration::from_millis(20);

/// The sound partial lower bound served to a coalesced waiter whose own
/// deadline expired mid-run: the monotone bound the shared run has
/// accumulated so far, marked incomplete and attributed to the coalesced
/// run's live progress (there is no checkpoint — the run itself continues).
fn progress_partial_value(snap: &ProgressSnapshot, depth: usize, elapsed_ms: u128) -> Value {
    Value::Object(vec![
        ("probability".into(), Value::Str(format!("{:.10}", snap.bound()))),
        ("probability_f64".into(), Value::Num(snap.bound())),
        ("paths".into(), Value::UInt(u128::from(snap.paths_terminated))),
        ("unexplored_paths".into(), Value::UInt(u128::from(snap.frontier))),
        ("depth".into(), Value::UInt(depth as u128)),
        ("complete".into(), Value::Bool(false)),
        ("partial_source".into(), Value::Str("coalesced-progress".into())),
        ("engine_ms".into(), Value::UInt(elapsed_ms)),
    ])
}

/// Renders one progress snapshot as the shared frame/`inspect` payload.
fn progress_value(snap: &ProgressSnapshot, elapsed_ms: u128) -> Value {
    Value::Object(vec![
        ("steps".into(), Value::UInt(u128::from(snap.steps))),
        ("paths".into(), Value::UInt(u128::from(snap.paths_terminated))),
        ("frontier".into(), Value::UInt(u128::from(snap.frontier))),
        ("max_depth".into(), Value::UInt(u128::from(snap.max_depth))),
        ("bound".into(), Value::Num(snap.bound())),
        ("bound_scaled".into(), Value::UInt(u128::from(snap.bound_scaled))),
        ("elapsed_ms".into(), Value::UInt(elapsed_ms)),
    ])
}

/// The `inspect` op: the flight table, one row per engine run from its
/// admission to its reply — its leader's id and op, `age_ms` since
/// admission, its phase (`queue`, `cache`, then `engine`) and a live seqlock
/// snapshot of its progress. Never cached, never shed (it is a control op) —
/// the whole point is to see the server *right now*.
fn inspect_payload(state: &ServerState) -> Value {
    let flights: Vec<_> = flights(state)
        .iter()
        .map(|flight| (flight.id.clone(), flight.op, flight.phase, flight.run.clone()))
        .collect();
    let rows: Vec<Value> = flights
        .into_iter()
        .map(|(id, op, phase, run)| {
            let age_ms = run.admitted.elapsed().as_millis();
            Value::Object(vec![
                ("id".into(), id.unwrap_or(Value::Null)),
                ("op".into(), Value::Str(op.as_str().to_string())),
                ("age_ms".into(), Value::UInt(age_ms)),
                ("phase".into(), Value::Str(phase.as_str().to_string())),
                ("progress".into(), progress_value(&run.progress.snapshot(), age_ms)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("count".into(), Value::UInt(rows.len() as u128)),
        ("inflight".into(), Value::Array(rows)),
    ])
}

/// Interruptible, *resumable* lower-bound computation. The budget (deadline
/// or drain) is polled inside the symbolic exploration — which measures each
/// path's volume the moment it terminates, so the accumulated bound is
/// monotone and interruptible at every step, never a deadline-blind post-hoc
/// pass. An expired budget yields the sound partial bound so far, marked
/// `"complete": false`, together with a replayable `checkpoint` of the
/// exploration frontier; a retry with a richer budget passes the cached
/// checkpoint back in and resumes where the truncated run stopped. The poll
/// hook publishes the run's live progress (seeded with the checkpoint's
/// mass, so the bound stays monotone across a resume chain) and checks the
/// budget, whose tick streams the frames.
fn lower_payload(
    term: &Term,
    depth: usize,
    budget: &RunBudget,
    resume: Option<&(LowerBoundCheckpoint, u64)>,
    progress: &ProgressCell,
) -> Result<Entry, ServiceError> {
    budget.check("before the lower-bound engine started")?;
    let config = LowerBoundConfig::default().with_depth(depth);
    let prior = resume.map(|(checkpoint, _)| checkpoint);
    // The live bound is summed exactly and published rounded down, so no
    // frame, `inspect` row or coalesced partial exceeds the exact bound; the
    // cell's fixed-point ratchet keeps it monotone.
    let mut live_bound = prior.map_or_else(Rational::zero, |c| c.probability.clone());
    let mut live_paths = prior.map_or(0, |c| c.paths as u64);
    let scale = Rational::from(BOUND_SCALE as i64);
    let publish = |paths: u64, bound: &Rational| {
        let scaled = bound.mul_ref(&scale).floor().to_i64().map_or(0, |v| v.max(0) as u64);
        progress.publish_terminated_scaled(paths, scaled);
    };
    publish(live_paths, &live_bound);
    let mut poll = |poll: Poll<'_>| {
        match poll {
            Poll::Explore { work, frontier, depth } => {
                progress.publish_exploration(work as u64, frontier as u64, depth as u64);
            }
            Poll::Sweep => {}
            Poll::Measured(measure) => {
                live_bound += &measure.volume;
                live_paths += 1;
                publish(live_paths, &live_bound);
                return Ok(());
            }
        }
        budget.check("during symbolic exploration")
    };
    let run = try_lower_bound(term, &config, prior, &mut poll);
    let result = &run.result;
    // Cumulative engine time across the resume chain: the cache's yardstick
    // for "is this entry worth serving" must count the work the bound
    // embodies, not just this run's slice.
    let work_ms = resume.map_or(0, |(_, ms)| *ms) + millis(result.elapsed);
    let mut fields = vec![
        ("probability".into(), Value::Str(result.probability.to_decimal_string(10))),
        ("probability_f64".into(), Value::Num(result.probability.to_f64())),
        ("expected_steps_lb".into(), Value::Num(result.expected_steps.to_f64())),
        ("paths".into(), Value::UInt(result.paths as u128)),
        ("unexplored_paths".into(), Value::UInt(result.unexplored_paths as u128)),
        ("stuck_paths".into(), Value::UInt(result.stuck_paths as u128)),
        ("depth".into(), Value::UInt(depth as u128)),
        ("complete".into(), Value::Bool(!result.interrupted)),
        ("engine_ms".into(), Value::UInt(u128::from(work_ms))),
    ];
    if resume.is_some() {
        fields.push(("resumed".into(), Value::Bool(true)));
    }
    Ok(Entry::from_run(
        Value::Object(fields),
        !result.interrupted,
        &result.probability,
        work_ms,
        Some(run.checkpoint),
    ))
}

/// A duration in whole milliseconds, saturating.
fn millis(duration: Duration) -> u64 {
    u64::try_from(duration.as_millis()).unwrap_or(u64::MAX)
}

/// A duration in whole microseconds, saturating.
fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// Interruptible provenance computation: the same symbolic engine as
/// `lower`, but the reply is the full explainability artifact — per-path
/// volume attribution with replayable witnesses, frontier summary and the
/// documented `probterm-explain-v1` schema. Deadline handling mirrors
/// `lower`: an expired budget yields the sound partial artifact (marked
/// `"complete": false`) rather than a bare `budget_exceeded`.
fn explain_payload(
    term: &Term,
    source: &str,
    depth: usize,
    top: Option<usize>,
    budget: &RunBudget,
) -> Result<Entry, ServiceError> {
    budget.check("before the explain engine started")?;
    let config = ExplainConfig::default()
        .with_lower(LowerBoundConfig::default().with_depth(depth));
    let (provenance, _interruption) =
        try_explain(term, &config, &mut |_| budget.check("during symbolic exploration"));
    let result = &provenance.result;
    let engine_ms = millis(result.elapsed);
    let Value::Object(mut fields) =
        probterm_explain::render_json(&provenance, source, depth, top)
    else {
        unreachable!("render_json returns an object");
    };
    // `engine_ms` reports the engine time a partial entry's `work_ms` holds,
    // like every engine reply (the artifact's own `elapsed_ms` is part of
    // the documented schema and stays untouched).
    fields.push(("engine_ms".into(), Value::UInt(u128::from(engine_ms))));
    let payload = Value::Object(fields);
    Ok(Entry::from_run(payload, !result.interrupted, &result.probability, engine_ms, None))
}

/// Interruptible AST verification: the deadline is polled inside tree
/// construction and between Environment strategies. Verification has no
/// sound partial answer (a truncated strategy enumeration proves nothing),
/// so an expired budget is still a structured `budget_exceeded` — but it now
/// fires *mid-engine* instead of only before/after it.
fn verify_payload(term: &Term, budget: &RunBudget) -> Result<Entry, ServiceError> {
    budget.check("before the AST verifier started")?;
    let mut check = || budget.check("inside the AST verifier").map_err(drop);
    let v = try_verify_ast(term, &mut check).map_err(|e| match e {
        VerifyError::Interrupted => budget.error("inside the AST verifier"),
        other => ServiceError::new(ErrorCode::NotApplicable, other.to_string()),
    })?;
    Ok(Entry::complete(Value::Object(vec![
        ("verified".into(), Value::Bool(v.verified_ast)),
        ("papprox".into(), Value::Str(v.papprox.to_string())),
        ("strategies".into(), Value::UInt(v.strategies as u128)),
        ("env_nodes".into(), Value::UInt(v.env_nodes as u128)),
        ("sample_variables".into(), Value::UInt(v.sample_variables as u128)),
        ("rank".into(), Value::UInt(v.rank as u128)),
        ("corollary_5_13".into(), Value::Bool(v.verified_by_corollary_5_13)),
        ("engine_ms".into(), Value::UInt(v.elapsed.as_millis())),
    ])))
}

/// The combined report. The pipeline itself lives in
/// [`probterm_core::try_analyze_budgeted`] (shared with the CLI's `analyze`);
/// the service merely threads the deadline in as the budget check and
/// serializes the result. When the deadline strikes, the lower bound
/// degrades to its sound partial value and the remaining stages (AST
/// verification, Monte-Carlo cross-check) are skipped with an explanation,
/// all under `"complete": false`.
fn analyze_payload(
    term: &Term,
    depth: usize,
    runs: usize,
    steps: usize,
    seed: u64,
    budget: &RunBudget,
) -> Result<Entry, ServiceError> {
    budget.check("before the combined analysis started")?;
    let engine_started = Instant::now();
    let config = AnalysisConfig {
        lower_bound_depth: depth,
        monte_carlo_runs: runs,
        monte_carlo_steps: steps,
        seed,
        profile: false,
    };
    let mut check = || budget.check("during the combined analysis").map_err(drop);
    let analysis = try_analyze_budgeted(term, &config, &mut check)
        .map_err(|e| ServiceError::new(ErrorCode::NotApplicable, e.to_string()))?;
    let engine_ms = millis(engine_started.elapsed());
    let report = &analysis.report;

    let monte_carlo = match &report.monte_carlo {
        None => Value::Null,
        Some(mc) => Value::Object(vec![
            ("runs".into(), Value::UInt(mc.runs as u128)),
            ("terminated".into(), Value::UInt(mc.terminated as u128)),
            ("probability".into(), Value::Num(mc.probability())),
            ("confidence_99".into(), Value::Num(mc.confidence_99())),
            ("mean_steps".into(), Value::Num(mc.mean_steps)),
        ]),
    };
    let papprox = report.papprox.as_ref().map(ToString::to_string);
    let payload = Value::Object(vec![
        ("type".into(), Value::Str(report.simple_type.to_string())),
        (
            "lower".into(),
            Value::Object(vec![
                (
                    "probability".into(),
                    Value::Str(report.lower_bound.probability.to_decimal_string(10)),
                ),
                (
                    "probability_f64".into(),
                    Value::Num(report.lower_bound.probability.to_f64()),
                ),
                ("paths".into(), Value::UInt(report.lower_bound.paths as u128)),
                ("depth".into(), Value::UInt(depth as u128)),
            ]),
        ),
        ("ast_verified".into(), report.ast_verified.map_or(Value::Null, Value::Bool)),
        ("papprox".into(), papprox.map_or(Value::Null, Value::Str)),
        ("ast_skipped".into(), report.ast_skipped.clone().map_or(Value::Null, Value::Str)),
        ("monte_carlo".into(), monte_carlo),
        ("complete".into(), Value::Bool(analysis.complete)),
        ("engine_ms".into(), Value::UInt(u128::from(engine_ms))),
    ]);
    let bound = &report.lower_bound.probability;
    Ok(Entry::from_run(payload, analysis.complete, bound, engine_ms, None))
}

fn catalog_payload() -> Value {
    fn rows(benchmarks: &[catalog::Benchmark]) -> Value {
        Value::Array(
            benchmarks
                .iter()
                .map(|b| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(b.name.clone())),
                        ("description".into(), Value::Str(b.description.clone())),
                        ("program".into(), Value::Str(b.term.to_string())),
                        ("pterm".into(), b.expected_pterm.map_or(Value::Null, Value::Num)),
                        ("ast".into(), b.expected_ast.map_or(Value::Null, Value::Bool)),
                    ])
                })
                .collect(),
        )
    }
    Value::Object(vec![
        ("table1".into(), rows(&catalog::table1_benchmarks())),
        ("table2".into(), rows(&catalog::table2_benchmarks())),
    ])
}

fn stats_payload(state: &ServerState) -> Value {
    let stats = state.stats();
    let n = |v: u64| Value::UInt(u128::from(v));
    let size = |v: usize| Value::UInt(v as u128);
    Value::Object(vec![
        ("uptime_ms".into(), Value::UInt(stats.uptime_ms)),
        ("served".into(), n(stats.served)),
        ("hits".into(), n(stats.hits)),
        ("misses".into(), n(stats.misses)),
        ("inflight".into(), n(stats.inflight)),
        ("cache_entries".into(), size(stats.cache_entries)),
        ("cache_capacity".into(), size(stats.cache_capacity)),
        ("cache_bytes".into(), n(stats.cache_bytes)),
        ("oldest_entry_ms".into(), stats.oldest_entry_ms.map_or(Value::Null, n)),
        ("workers".into(), size(stats.workers)),
        // Transport counters: single-flight coalescing, queue depth and
        // cache-snapshot persistence.
        ("coalesced_waiters".into(), n(stats.coalesced_waiters)),
        ("coalesce_fanout_max".into(), n(stats.coalesce_fanout_max)),
        ("queued".into(), n(stats.queued)),
        ("cache_persist_loaded".into(), n(stats.cache_persist_loaded)),
        ("cache_persist_saved".into(), n(stats.cache_persist_saved)),
        ("cache_persist_rejected".into(), n(stats.cache_persist_rejected)),
        // Robustness counters: load shedding, resumable anytime engines,
        // fault injection, graceful drain and idle-connection reaping.
        (
            "robustness".into(),
            Value::Object(vec![
                ("shed".into(), n(stats.shed)),
                ("resumed".into(), n(stats.resumed)),
                ("checkpointed_frontiers".into(), n(stats.checkpointed_frontiers)),
                ("injected_faults".into(), n(stats.injected_faults)),
                ("drained_in_flight".into(), n(stats.drained_in_flight)),
                ("idle_closed".into(), n(stats.idle_closed)),
            ]),
        ),
        // Per-op latency metrics: requests/errors plus p50/p95/p99/max/mean
        // (µs) for the end-to-end latency and each phase. Ops with zero
        // requests are omitted.
        ("ops".into(), ops_value(&state.metrics.snapshot())),
    ])
}

/// The `metrics` op: the Prometheus text exposition wrapped in JSON (the
/// wire protocol is NDJSON; scrape adapters unwrap the `text` field).
fn metrics_payload(state: &ServerState) -> Value {
    let text = render_prometheus(&state.metrics.snapshot(), &state.stats());
    Value::Object(vec![
        ("format".into(), Value::Str("prometheus-text-0.0.4".into())),
        ("text".into(), Value::Str(text)),
    ])
}

// ---------------------------------------------------------------- transport

/// A reply sink: a writer that can additionally hard-close its transport.
/// `abort` backs the `--inject` mid-reply connection drop and the idle
/// timeout; the default is a no-op (stdio has nothing to close).
trait ReplySink: Write + Send {
    /// Hard-closes the underlying transport, if there is one.
    fn abort(&mut self) {}
}

impl ReplySink for io::Stdout {}

impl std::fmt::Debug for dyn ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySink")
    }
}

type SharedWriter = Arc<Mutex<Box<dyn ReplySink>>>;

/// The reply side of one event-loop connection: a *nonblocking*
/// `TcpStream` adapted to the workers' blocking-style writes. Short
/// `WouldBlock` stalls (a full socket buffer) are absorbed with bounded
/// sleeping retries; a client that stays unwritable for ~2 s gets a
/// `TimedOut` error instead of wedging a worker thread forever.
struct NbWriter {
    stream: TcpStream,
}

impl Write for NbWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let patience = Instant::now();
        loop {
            match self.stream.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if patience.elapsed() > Duration::from_secs(2) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "client stalled; reply write timed out",
                        ));
                    }
                    thread::sleep(Duration::from_micros(200));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl ReplySink for NbWriter {
    fn abort(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Refuses a connection over [`ServerConfig::max_conns`]: one structured
/// `overloaded` error line (best effort), then the socket is dropped. The
/// refusal counts as a shed — the connection carried work the server
/// declined.
fn refuse_conn(state: &ServerState, mut stream: TcpStream, max_conns: usize) {
    state.shed.fetch_add(1, Ordering::SeqCst);
    let error = ServiceError::new(
        ErrorCode::Overloaded,
        format!("connection limit of {max_conns} reached; retry shortly"),
    )
    .with_retry_after(100);
    let mut line = error_reply(&None, &error);
    line.push('\n');
    let _ = stream.set_nonblocking(false);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// `struct pollfd` of `<poll.h>`; `poll(2)` itself comes from the libc that
/// std already links.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

impl PollFd {
    /// Asks for `POLLIN`; `POLLHUP`, `POLLERR` and `POLLNVAL` are reported
    /// regardless, so any `revents` means a `read` will not block.
    fn readable(fd: &impl AsRawFd) -> PollFd {
        PollFd { fd: fd.as_raw_fd(), events: POLLIN, revents: 0 }
    }
}

/// Blocks until a descriptor in `fds` is ready or `timeout` has passed
/// (`None` waits forever); a signal just ends the wait early.
fn poll_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    // Rounded up: a deadline 0.4 ms away must not become a busy 0 ms poll.
    let ms = timeout
        .map_or(-1, |t| i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX));
    // SAFETY: `fds` is an exclusively borrowed array of `pollfd`s and `nfds`
    // is its length; `poll` writes only their `revents` fields.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// One connection of the serve loop: a TCP client, or stdin. Either is read
/// through a plain `File`, and only once `poll` reports it ready.
struct Conn {
    input: File,
    out: SharedWriter,
    buf: Vec<u8>,
    last_activity: Instant,
    closed: bool,
}

impl Conn {
    fn new(input: impl Into<OwnedFd>, out: SharedWriter) -> Conn {
        let input = File::from(input.into());
        Conn { input, out, buf: Vec::new(), last_activity: Instant::now(), closed: false }
    }

    /// One `read` into the buffer, then routes every complete line; at end
    /// of input an unterminated last line counts too. A read error closes
    /// the connection and is returned.
    fn read_and_route(&mut self, state: &ServerState, jobs: &mpsc::Sender<Job>) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.input.read(&mut chunk) {
            Ok(0) => {
                self.closed = true;
                if !self.buf.is_empty() {
                    self.buf.push(b'\n');
                }
            }
            Ok(n) => {
                self.last_activity = Instant::now();
                self.buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {}
            Err(e) => {
                self.closed = true;
                return Err(e);
            }
        }
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&raw[..pos]);
            self.closed |= !route_or_enqueue(state, jobs, line.trim_end_matches('\r'), &self.out);
        }
        Ok(())
    }
}

/// Accepts every pending connection: one over [`ServerConfig::max_conns`]
/// is refused, the others join `conns` as nonblocking sockets.
fn accept_pending(
    state: &ServerState,
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
) -> io::Result<()> {
    let max_conns = state.config.max_conns.max(1);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if conns.len() >= max_conns {
            refuse_conn(state, stream, max_conns);
            continue;
        }
        // The accepted socket may or may not inherit the listener's
        // O_NONBLOCK; make it explicit.
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let Ok(writer) = stream.try_clone() else { continue };
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(NbWriter { stream: writer })));
        conns.push(Conn::new(stream, out));
    }
}

/// The one serve loop: [`Server::serve_listener`] passes its listener,
/// [`Server::serve_stdio`] no listener and stdin as the one connection.
/// Idle timeouts and the connection cap apply to TCP only. It ends on
/// `shutdown` (whose worker wakes it through the wake pair), a fatal accept
/// or poll error, or, in stdio mode, the end of stdin.
fn serve_loop(
    state: &Arc<ServerState>,
    listener: Option<TcpListener>,
    mut conns: Vec<Conn>,
) -> io::Result<()> {
    let (jobs, workers) = spawn_workers(state);
    let idle_limit = listener.as_ref().and(state.config.idle_timeout_ms).map(Duration::from_millis);
    let first_conn = 1 + usize::from(listener.is_some());
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fatal: Option<io::Error> = None;
    // Without a listener the loop serves stdin until it closes.
    while fatal.is_none()
        && !state.shutdown_requested()
        && (listener.is_some() || !conns.is_empty())
    {
        fds.clear();
        fds.push(PollFd::readable(&state.wake_rx));
        fds.extend(listener.iter().map(PollFd::readable));
        fds.extend(conns.iter().map(|conn| PollFd::readable(&conn.input)));
        let timeout = idle_limit
            .and_then(|limit| conns.iter().map(|conn| conn.last_activity + limit).min())
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        if let Err(e) = poll_ready(&mut fds, timeout) {
            fatal = Some(e);
            break;
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[first_conn..]) {
            if fd.revents != 0 {
                // A socket error only loses its client; a stdin error ends
                // the serve.
                if let (Err(e), None) = (conn.read_and_route(state, &jobs), &listener) {
                    fatal = Some(e);
                }
            }
            let idle = idle_limit.is_some_and(|limit| conn.last_activity.elapsed() >= limit);
            if idle && !conn.closed {
                // A structured close instead of a silent hangup.
                idle_close(state, &conn.out);
                conn.closed = true;
            }
        }
        conns.retain(|conn| !conn.closed);
        if let Some(listener) = listener.as_ref().filter(|_| fds[1].revents != 0) {
            fatal = accept_pending(state, listener, &mut conns).err();
        }
    }
    // Dropping the queue's only sender lets the workers run everything
    // queued and in flight, then exit; the snapshot is then written for the
    // next boot. End of stdin only means no more requests, so every run
    // completes. After `shutdown`, and at every end of a TCP serve, the
    // draining flag is set first, so the engines' budget checks cut every
    // run short and checkpoint it.
    if listener.is_some() || state.shutdown_requested() {
        state.draining.store(true, Ordering::SeqCst);
    }
    drop(jobs);
    for worker in workers {
        let _ = worker.join();
    }
    state.persist_cache_snapshot()?;
    fatal.map_or(Ok(()), Err)
}

struct Job {
    admitted: Admitted,
    out: SharedWriter,
    /// When the reader enqueued the job; the worker's pop time minus this is
    /// the request's queue-wait phase.
    enqueued: Instant,
}

/// Load shedding, run by the transport reader *before* enqueueing an
/// admitted engine request that missed the cache and joined no flight.
/// Returns the shed reply to write immediately, or `None` to enqueue. A
/// request is shed when the queue already holds
/// [`ServerConfig::queue_depth`] jobs, or when its `deadline_ms` would
/// expire before the predicted queue wait (queued jobs × the op's p95 engine
/// time ÷ workers, from the live latency histograms).
fn admission_reply(state: &ServerState, request: &Request) -> Option<String> {
    let depth = state.config.queue_depth;
    if depth == 0 {
        return None;
    }
    // Relaxed: `queued` is a gauge feeding a heuristic, and nothing orders
    // against this load; a stale read queues one job deeper or sheds one
    // request early.
    let queued = state.queued.load(Ordering::Relaxed);
    if queued == 0 {
        // An empty queue admits unconditionally — skip the p95 histogram
        // snapshot allocation on the fast path.
        return None;
    }
    let workers = state.config.workers.max(1) as u64;
    let p95_us = state.metrics.op(request.op).engine.snapshot().p95();
    // Cold-start pessimism: with no engine-latency history for this op, a
    // deadline-bearing request is assumed to burn its whole deadline, as
    // deadline-bounded anytime runs on deep trees do. The running jobs count
    // toward the backlog too: a new request waits out both them and the
    // queue before its own run starts.
    let backlog = queued.saturating_add(state.inflight.load(Ordering::Relaxed));
    let est_us = if p95_us == 0 {
        request.deadline_ms.unwrap_or(0).saturating_mul(1000)
    } else {
        p95_us
    };
    let predicted_wait_ms = backlog.saturating_mul(est_us) / workers / 1000;
    let over_depth = queued >= depth as u64;
    let doomed = request.deadline_ms.is_some_and(|d| est_us > 0 && predicted_wait_ms > d);
    if !over_depth && !doomed {
        return None;
    }
    let message = if over_depth {
        format!("admission queue is full ({queued} queued, depth {depth}); request shed")
    } else {
        format!(
            "deadline of {} ms would expire before the predicted queue wait of \
             {predicted_wait_ms} ms; request shed",
            request.deadline_ms.unwrap_or(0)
        )
    };
    let error = ServiceError::new(ErrorCode::Overloaded, message)
        .with_retry_after(predicted_wait_ms.max(1));
    state.shed.fetch_add(1, Ordering::SeqCst);
    let answer = Answer::new(&request.id, Some(request.op), Instant::now());
    Some(finish(state, answer, Err(error)))
}

/// Serves a cached entry straight from the transport reader when the cache
/// would serve it to this request ([`crate::cache::decide`]): a warm hit
/// needs no queue slot and no worker handoff, which on a lock-step client
/// saves two scheduler round-trips per request. Returns `None` for misses
/// and declined partials, whose accounting and resume `engine_op` owns. An
/// inline hit is too fast to observe via `inspect`, so it leads no flight.
fn serve_inline_hit(state: &ServerState, request: &Request, key: &CacheKey) -> Option<String> {
    let started = Instant::now();
    let cached = state.cache.lock().expect("cache lock").serve(key, request.deadline_ms)?;
    let mut answer = Answer::new(&request.id, Some(request.op), started);
    answer.canonical_key = Some(key.term);
    answer.phases.cache_us = micros(started.elapsed());
    Some(finish(state, answer, Ok((cached, Some("hit")))))
}

/// Where a routed line goes.
enum Routed {
    /// Write this reply immediately (an admission error, an inline control
    /// op or cache hit, or a shed); nothing is enqueued.
    Reply(String),
    /// Enqueue the admitted request: `shutdown`, or an engine request that
    /// leads a new flight.
    Enqueue(Admitted),
    /// The request joined an identical in-flight run as a waiter; the
    /// flight will reply. Nothing to enqueue.
    Coalesced,
}

/// Routes one non-blank request line: [`admit`] it, then answer it inline,
/// coalesce it onto an identical in-flight engine run, shed it at
/// admission, or lead a new flight and enqueue it. A line that fails
/// admission is answered inline with its structured error and never takes a
/// queue slot.
///
/// Control ops are cheap state snapshots answered right here, which keeps
/// them responsive when every worker is pinned under engine load — exactly
/// when `stats` matters most — and they are never shed. `shutdown` stays
/// on the pool: its reply-then-flag ordering anchors the graceful drain.
///
/// Admission control applies only to a request whose key is not in flight:
/// a joiner consumes no queue slot and no engine run, so an identical
/// request is never shed — under a flood of one hot term, admission sees
/// exactly one queued job.
fn route_line(state: &ServerState, line: &str, out: &SharedWriter) -> Routed {
    let admitted = match admit(state, line) {
        Ok(admitted) => admitted,
        Err(reply) => return Routed::Reply(reply),
    };
    let request = &admitted.request;
    let Some(Resolved { key, .. }) = &admitted.engine else {
        if request.op == Op::Shutdown {
            return Routed::Enqueue(admitted);
        }
        return Routed::Reply(serve_admitted(state, &admitted, 0, &|_| {}).reply);
    };
    // Warm hits are answered right here on the transport thread; everything
    // else pays the queue.
    if let Some(reply) = serve_inline_hit(state, request, key) {
        return Routed::Reply(reply);
    }
    // The shed path renders, traces and records metrics: outside the
    // flight-table lock.
    if !flights(state).contains(key) {
        if let Some(reply) = admission_reply(state, request) {
            return Routed::Reply(reply);
        }
    }
    match arrive(state, request, key, ReplyTo::Conn(Arc::clone(out))) {
        Role::Lead => Routed::Enqueue(admitted),
        Role::Join => Routed::Coalesced,
    }
}

/// Structured close of a connection that hit the idle read timeout: one
/// `idle_timeout` error line, then a hard shutdown of the stream.
fn idle_close(state: &ServerState, out: &SharedWriter) {
    state.idle_closed.fetch_add(1, Ordering::SeqCst);
    let ms = state.config.idle_timeout_ms.unwrap_or(0);
    let error = ServiceError::new(
        ErrorCode::IdleTimeout,
        format!("connection idle for more than {ms} ms; closing"),
    );
    write_reply_line(out, error_reply(&None, &error));
    if let Ok(mut out) = out.lock() {
        out.abort();
    }
}

/// The step the serve loop takes for each framed line: skip it if blank,
/// else route it ([`route_line`]), then write the inline reply, leave a
/// coalesced request to its leader, or enqueue the admitted request —
/// keeping the queued-jobs gauge (the admission-control input) in sync.
/// Returns `false` when the pool is gone.
fn route_or_enqueue(
    state: &ServerState,
    jobs: &mpsc::Sender<Job>,
    line: &str,
    out: &SharedWriter,
) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    let admitted = match route_line(state, line, out) {
        Routed::Reply(reply) => {
            write_reply_line(out, reply);
            return true;
        }
        Routed::Coalesced => return true,
        Routed::Enqueue(admitted) => admitted,
    };
    // Relaxed: the gauge feeds heuristics (admission, stats), not an
    // ordering-sensitive protocol — see `admission_reply`.
    state.queued.fetch_add(1, Ordering::Relaxed);
    let job = Job { admitted, out: Arc::clone(out), enqueued: Instant::now() };
    if let Err(mpsc::SendError(job)) = jobs.send(job) {
        state.queued.fetch_sub(1, Ordering::Relaxed);
        // The pool is gone, so no flight will ever run: this request and
        // every waiter get a structured error.
        let request = &job.admitted.request;
        let answer = Answer::new(&request.id, Some(request.op), job.enqueued);
        write_reply_line(out, finish(state, answer, Err(retired_error())));
        let retired = flights(state).retire();
        for (key, flight) in retired {
            for waiter in &flight.waiters {
                reply_waiter(state, flight.op, key.term, waiter, &Err(retired_error()));
            }
        }
        return false;
    }
    true
}

/// Starts [`ServerConfig::workers`] threads on one FIFO job queue. Each
/// worker blocks in `recv` under the receiver's lock, which it holds only
/// while waiting for a job, never while running one. `recv` fails only once
/// [`serve_loop`] has dropped the sender *and* the queue is empty, so every
/// queued job is served before the workers exit.
fn spawn_workers(state: &Arc<ServerState>) -> (mpsc::Sender<Job>, Vec<thread::JoinHandle<()>>) {
    let (jobs, queue) = mpsc::channel::<Job>();
    let queue = Arc::new(Mutex::new(queue));
    let handles = (0..state.config.workers.max(1))
        .map(|i| {
            let state = Arc::clone(state);
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name(format!("probterm-worker-{i}"))
                .spawn(move || loop {
                    let next = match queue.lock() {
                        Ok(queue) => queue.recv(),
                        Err(_) => break,
                    };
                    let Ok(job) = next else { break };
                    run_job(&state, job);
                })
                .expect("spawn worker thread")
        })
        .collect();
    (jobs, handles)
}

/// Runs one dequeued job on a worker and writes its reply.
fn run_job(state: &ServerState, job: Job) {
    state.queued.fetch_sub(1, Ordering::Relaxed);
    let queue_us = micros(job.enqueued.elapsed());
    // Streamed progress frames go straight to the originating connection,
    // each under its own lock acquisition so replies to interleaved requests
    // on the same connection are never blocked for a whole run.
    let emit_frame = |frame: &str| write_reply_line(&job.out, frame.into());
    let LineOutcome { reply, drop_reply } =
        serve_admitted(state, &job.admitted, queue_us, &emit_frame);
    if drop_reply {
        // Injected fault: half the bytes, then a hard close mid-line.
        if let Ok(mut out) = job.out.lock() {
            let _ = out.write_all(&reply.as_bytes()[..reply.len() / 2]);
            let _ = out.flush();
            out.abort();
        }
    } else {
        write_reply_line(&job.out, reply);
    }
    // The flag is set only after the reply is flushed, so a `shutdown` reply
    // is on the wire before the serve loop can exit.
    if job.admitted.request.op == Op::Shutdown {
        state.request_shutdown();
    }
}

/// The analysis server. Cheap to clone; clones share state (and cache).
#[derive(Debug, Clone)]
pub struct Server {
    state: Arc<ServerState>,
}

/// A server accepting TCP connections on a background thread.
#[derive(Debug)]
pub struct RunningServer {
    /// The actual bound address (useful with a `:0` request).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    handle: thread::JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The shared server state (for counters in tests and benchmarks).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Waits for the serve loop to exit (i.e. for a `shutdown` request).
    ///
    /// # Errors
    ///
    /// Propagates serve-loop I/O errors.
    pub fn join(self) -> io::Result<()> {
        self.handle.join().unwrap_or_else(|_| {
            Err(io::Error::other("server thread panicked"))
        })
    }
}

impl Server {
    /// Creates a server with the given configuration.
    pub fn new(config: ServerConfig) -> Server {
        Server::with_trace(config, None)
    }

    /// Creates a server that additionally streams one JSONL trace record per
    /// request into `trace` (see [`handle_line`] for the record schema —
    /// `probterm serve --trace <path|->` is the CLI spelling). When the
    /// config sets [`ServerConfig::slow_ms`], slow-request lines go to
    /// stderr.
    pub fn with_trace(config: ServerConfig, trace: Option<TraceSink>) -> Server {
        let slow = config.slow_ms.map(|_| TraceSink::to_stderr());
        Server::with_sinks(config, trace, slow)
    }

    /// Like [`Server::with_trace`], but with an explicit slow-request sink —
    /// tests capture the slow log in memory instead of on stderr. The sink
    /// is only consulted when [`ServerConfig::slow_ms`] is set.
    pub fn with_sinks(
        config: ServerConfig,
        trace: Option<TraceSink>,
        slow: Option<TraceSink>,
    ) -> Server {
        let state = Arc::new(ServerState::new(config, trace, slow));
        // Warm boot: preload the persisted snapshot, if one is configured.
        state.load_cache_snapshot();
        Server { state }
    }

    /// Writes the result cache to [`ServerConfig::cache_path`] (atomic
    /// temp-file + rename; no-op returning 0 without a path). The serve
    /// loops call this at graceful drain; exposed for tests and embedders.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-file write/rename errors.
    pub fn persist_cache(&self) -> io::Result<usize> {
        self.state.persist_cache_snapshot()
    }

    /// The shared state (counters, shutdown flag).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Processes one request line in the calling thread (no pool).
    pub fn handle_line(&self, line: &str) -> Option<String> {
        handle_line(&self.state, line)
    }

    /// Serves newline-delimited JSON over stdin/stdout until EOF or a
    /// `shutdown` request: stdin is the one connection of the event loop
    /// [`Server::serve_listener`] runs. At EOF every queued request still
    /// runs to completion before this returns; after `shutdown` queued and
    /// running engine requests checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates stdin read, `poll` and snapshot-persist errors.
    pub fn serve_stdio(&self) -> io::Result<()> {
        // An unbuffered handle of its own: a buffered reader would hide
        // bytes from `poll`.
        let stdin = io::stdin().as_fd().try_clone_to_owned()?;
        let stdout: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
        serve_loop(&self.state, None, vec![Conn::new(stdin, stdout)])
    }

    /// Serves newline-delimited JSON over TCP until a `shutdown` request,
    /// from one event loop that owns every connection's reads — no thread
    /// per connection. Each round blocks in `poll(2)`, reads once from every
    /// ready socket, frames complete lines and routes them (answer inline,
    /// coalesce, shed or enqueue), accepts pending connections (refusing
    /// over [`ServerConfig::max_conns`] with a structured `overloaded`
    /// line) and reaps idle ones. An idle loop sleeps in `poll` until the
    /// next [`ServerConfig::idle_timeout_ms`] deadline, or for good. Replies
    /// go out on the request's connection, possibly out of request order.
    ///
    /// After shutdown the loop stops and the server drains: workers finish
    /// (or checkpoint, via the draining flag) everything already queued,
    /// then the cache snapshot is persisted; lines a still-connected client
    /// sends after that are not processed.
    ///
    /// # Errors
    ///
    /// Propagates accept errors (other than transient would-block/
    /// interrupted), `poll` errors and snapshot-persist errors.
    pub fn serve_listener(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        serve_loop(&self.state, Some(listener), Vec::new())
    }

    /// Binds `addr` and serves it on a background thread; returns the bound
    /// address (pass port `:0` to let the OS pick) and a join handle.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn_tcp(&self, addr: impl ToSocketAddrs) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let server = self.clone();
        let handle = thread::Builder::new()
            .name("probterm-accept".into())
            .spawn(move || server.serve_listener(listener))?;
        Ok(RunningServer { addr: bound, state: Arc::clone(&self.state), handle })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_core::intervalsem::ReplaySeed;
    use probterm_core::numerics::Rational;

    impl ReplySink for io::Sink {}

    fn server() -> Server {
        Server::new(ServerConfig { workers: 1, ..Default::default() })
    }

    fn result_of(reply: &str) -> Value {
        let v = serde_json::from_str(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{reply}");
        v.get("result").unwrap().clone()
    }

    fn error_code_of(reply: &str) -> String {
        let v = serde_json::from_str(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{reply}");
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn blank_lines_produce_no_reply() {
        let s = server();
        assert_eq!(s.handle_line(""), None);
        assert_eq!(s.handle_line("   \t"), None);
    }

    #[test]
    fn simulate_matches_the_library_estimator() {
        use probterm_core::spcf::{estimate_termination, MonteCarloConfig};
        let s = server();
        let src = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let reply = s
            .handle_line(&format!(
                r#"{{"id":1,"op":"simulate","program":"{src}","runs":200,"steps":400,"seed":7}}"#
            ))
            .unwrap();
        let result = result_of(&reply);
        let direct = estimate_termination(
            &parse_term(src).unwrap(),
            &MonteCarloConfig {
                runs: 200,
                max_steps: 400,
                seed: 7,
                strategy: Strategy::CallByName,
            },
        );
        assert_eq!(
            result.get("terminated").and_then(Value::as_u64),
            Some(direct.terminated as u64)
        );
        assert_eq!(
            result.get("probability").and_then(Value::as_f64),
            Some(direct.probability())
        );
        assert_eq!(
            result.get("mean_steps").and_then(Value::as_f64),
            Some(direct.mean_steps)
        );
    }

    #[test]
    fn alpha_equivalent_resubmission_hits_the_cache() {
        let s = server();
        let a = r#"{"op":"lower","program":"(fix phi x. if sample <= 1/4 then x else phi (phi (x + 1))) 1","depth":30}"#;
        let b = r#"{"op":"lower","program":"(fix loop n. if sample <= 1/4 then n else loop (loop (n + 1))) 1","depth":30}"#;
        let first = s.handle_line(a).unwrap();
        let second = s.handle_line(b).unwrap();
        let v1 = serde_json::from_str(&first).unwrap();
        let v2 = serde_json::from_str(&second).unwrap();
        assert_eq!(v1.get("cache").and_then(Value::as_str), Some("miss"));
        assert_eq!(v2.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(v1.get("result"), v2.get("result"));
        let stats = s.state().stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // A different depth is a different cache entry.
        let c = s
            .handle_line(
                r#"{"op":"lower","program":"(fix phi x. if sample <= 1/4 then x else phi (phi (x + 1))) 1","depth":31}"#,
            )
            .unwrap();
        let v3 = serde_json::from_str(&c).unwrap();
        assert_eq!(v3.get("cache").and_then(Value::as_str), Some("miss"));
    }

    #[test]
    fn deadline_exceeded_is_structured_and_worker_survives() {
        let s = server();
        let reply = s
            .handle_line(
                r#"{"id":9,"op":"simulate","program":"(fix phi x. phi x) 0","runs":500000,"steps":3000,"deadline_ms":30}"#,
            )
            .unwrap();
        assert_eq!(error_code_of(&reply), "budget_exceeded");
        // The same state keeps serving.
        let next = s.handle_line(r#"{"op":"stats"}"#).unwrap();
        let stats = result_of(&next);
        assert_eq!(stats.get("inflight").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn a_run_that_completes_after_its_deadline_is_served() {
        // One Monte-Carlo run checks the deadline only before it starts, so
        // the million steps finish long after the 1 ms deadline.
        let s = server();
        let request = r#"{"op":"simulate","program":"(fix phi x. phi x) 0","runs":1,"steps":1000000,"deadline_ms":1}"#;
        let reply = s.handle_line(request).unwrap();
        let result = result_of(&reply);
        assert_eq!(result.get("out_of_fuel").and_then(Value::as_u64), Some(1));
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("miss"));
        let again: Value = serde_json::from_str(&s.handle_line(request).unwrap()).unwrap();
        assert_eq!(again.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(again.get("result"), Some(&result));
    }

    #[test]
    fn deadline_bounded_lower_returns_a_partial_sound_bound() {
        let s = server();
        // A binary-branching recursion with a cubic guard explores an
        // exponential tree and measures every path with the box sweep: depth
        // 400 takes about 1.3 s in a release build, but the first terminating
        // paths are found and measured within milliseconds, so the partial
        // bound is nonzero.
        let tree = "(fix phi x. if sample * sample * sample <= 1/2 then x else phi (phi x)) 0";
        let request = format!(
            r#"{{"id":1,"op":"lower","program":"{tree}","depth":400,"deadline_ms":120}}"#
        );
        let reply = s.handle_line(&request).unwrap();
        let result = result_of(&reply);
        assert_eq!(
            result.get("complete").and_then(Value::as_bool),
            Some(false),
            "a deadline-cut lower request must be marked incomplete: {reply}"
        );
        let p = result.get("probability_f64").and_then(Value::as_f64).unwrap();
        assert!(p > 0.0, "partial bound must be nonzero, got {p}");
        assert!(p < 1.0, "partial bound must be sound, got {p}");
        assert!(result.get("paths").and_then(Value::as_u64).unwrap() >= 1);
        // A deadline-bounded retry is an instant hit on the partial entry.
        let retry = s.handle_line(&request).unwrap();
        let v = serde_json::from_str(&retry).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));
    }

    #[test]
    fn partial_cache_entries_upgrade_on_richer_retries() {
        use crate::cache::CacheKey;
        let s = server();
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let key = CacheKey {
            term: parse_term(geo).unwrap().canonical_key(),
            analysis: "lower",
            config: "depth=30".into(),
        };
        // Seed the cache with a (synthetic) partial entry that burned 500 ms.
        let partial = Value::Object(vec![
            ("probability_f64".into(), Value::Num(0.25)),
            ("complete".into(), Value::Bool(false)),
            ("engine_ms".into(), Value::UInt(500)),
        ]);
        let status = EntryStatus::Partial {
            bound: Rational::from_ratio(1, 4),
            work_ms: 500,
            checkpoint: None,
        };
        let entry = Entry { payload: partial.clone(), status };
        s.state().cache.lock().unwrap().put(key.clone(), entry);
        // A retry whose budget is comparable to what the entry burned is
        // served the partial as an instant hit.
        let bounded = s
            .handle_line(&format!(
                r#"{{"op":"lower","program":"{geo}","depth":30,"deadline_ms":800}}"#
            ))
            .unwrap();
        let v = serde_json::from_str(&bounded).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(v.get("result"), Some(&partial));
        // A *much* richer budget declines the stale partial, recomputes, and
        // upgrades the entry (counted as a miss: nothing was served).
        let richer = s
            .handle_line(&format!(
                r#"{{"op":"lower","program":"{geo}","depth":30,"deadline_ms":60000}}"#
            ))
            .unwrap();
        let v = serde_json::from_str(&richer).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("miss"));
        let result = v.get("result").unwrap();
        assert_eq!(result.get("complete").and_then(Value::as_bool), Some(true));
        assert!(result.get("probability_f64").and_then(Value::as_f64).unwrap() > 0.9);
        // The upgraded entry now serves every retry, bounded or not.
        {
            let cache = s.state().cache.lock().unwrap();
            let upgraded = &cache.peek(&key).unwrap().payload;
            assert_eq!(upgraded.get("complete").and_then(Value::as_bool), Some(true));
        }
        let unbounded = s
            .handle_line(&format!(r#"{{"op":"lower","program":"{geo}","depth":30}}"#))
            .unwrap();
        let v = serde_json::from_str(&unbounded).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));
        // Counters: seeded-partial decline + recompute = 1 declined miss,
        // then 2 served hits (the bounded partial hit and the final hit).
        let stats = s.state().stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn partial_lower_checkpoints_and_a_richer_retry_resumes() {
        // Above the default depth cap of 400.
        let s = Server::new(ServerConfig { workers: 1, max_depth: 1600, ..Default::default() });
        // A chain of recursive calls that first fans out into a depth-4
        // binary tree of 16 terminating leaves: its frontier stays small, but
        // every leaf is measured by the box sweep over 10 or more dimensions.
        // Depth 1600 takes about 4.7 s in a release build, so the first run
        // truncates with a checkpoint.
        let chain = "(fix phi x. if sample * sample <= 1/2 then (fix t n. if n <= 0 then x else if sample * sample <= 1/2 then t (n - 1) else t (n - 1)) 4 else phi (x + 1)) 0";
        let reply = s
            .handle_line(&format!(
                r#"{{"op":"lower","program":"{chain}","depth":1600,"deadline_ms":120}}"#
            ))
            .unwrap();
        let partial = result_of(&reply);
        assert_eq!(
            partial.get("complete").and_then(Value::as_bool),
            Some(false),
            "{reply}"
        );
        let checkpoint = partial.get("checkpoint").expect("partial carries a checkpoint");
        let frontier = checkpoint.get("frontier").and_then(Value::as_array).unwrap();
        assert!(!frontier.is_empty());
        for seed in frontier {
            assert!(
                ReplaySeed::parse(seed.as_str().unwrap()).is_some(),
                "frontier entries must round-trip as replay seeds: {seed:?}"
            );
        }
        let p1 = partial.get("probability_f64").and_then(Value::as_f64).unwrap();
        let ms1 = partial.get("engine_ms").and_then(Value::as_u64).unwrap();
        // A meaningfully richer budget declines the cached partial and
        // *resumes* from its checkpoint instead of recomputing: the reply
        // says so and the bound is monotone.
        let reply = s
            .handle_line(&format!(
                r#"{{"op":"lower","program":"{chain}","depth":1600,"deadline_ms":2000}}"#
            ))
            .unwrap();
        let resumed = result_of(&reply);
        assert_eq!(resumed.get("resumed").and_then(Value::as_bool), Some(true), "{reply}");
        let p2 = resumed.get("probability_f64").and_then(Value::as_f64).unwrap();
        assert!(p2 >= p1, "resumed bound {p2} must not regress below the partial {p1}");
        // engine_ms is cumulative across the resume chain — the cache
        // yardstick must reflect the work the bound embodies.
        assert!(resumed.get("engine_ms").and_then(Value::as_u64).unwrap() >= ms1);
        let stats = s.state().stats();
        assert_eq!(stats.resumed, 1);
        assert!(stats.checkpointed_frontiers >= 1);
    }

    /// Boots a server on a snapshot file holding `text`; returns it with
    /// its (loaded, rejected) snapshot counters.
    fn boot_from_snapshot(name: &str, text: &str) -> (Server, u64, u64) {
        let path = std::env::temp_dir()
            .join(format!("probterm-server-{name}-{}.jsonl", std::process::id()));
        fs::write(&path, text).unwrap();
        let s = Server::new(ServerConfig {
            workers: 1,
            cache_path: Some(path.to_str().unwrap().to_string()),
            ..Default::default()
        });
        let _ = fs::remove_file(&path);
        let stats = s.state().stats();
        (s, stats.cache_persist_loaded, stats.cache_persist_rejected)
    }

    #[test]
    fn checkpoints_with_impossible_mass_are_not_resumed() {
        // Snapshot lines of partial `lower` entries whose bound equals their
        // checkpoint's tallies. Resuming adds new mass to the checkpoint's,
        // so a probability above 1 would surface as a bound above 1: such
        // lines are rejected at load, never resumed.
        let line = |term: u128, bound: &str, probability: &str, expected_steps: &str| {
            let json = format!(
                r#"{{"term":"{term:032x}","analysis":"lower","config":"depth=30","status":{{"bound":"{bound}","work_ms":5}},"payload":{{"complete":false,"checkpoint":{{"probability":"{probability}","expected_steps":"{expected_steps}","paths":3,"stuck":0,"frontier":["7:EE"]}}}}}}"#
            );
            format!("{} {json}\n", json.len())
        };
        let sound = [("0", "0"), ("7/8", "9/4"), ("1", "12")];
        let impossible = [("3/2", "1"), ("-1/4", "1"), ("1/2", "-3")];
        let mut text = format!("{}\n", crate::cache::CACHE_SNAPSHOT_VERSION);
        for (term, (p, e)) in (0u128..).zip(sound.iter().chain(&impossible)) {
            text.push_str(&line(term, p, p, e));
        }
        // A checkpoint holding a mass other than the bound it claims.
        text.push_str(&line(6, "1/2", "1/4", "1"));
        let (s, loaded, rejected) = boot_from_snapshot("impossible-mass", &text);
        assert_eq!((loaded, rejected), (3, 4));
        let cache = s.state().cache.lock().unwrap();
        for (term, (probability, _)) in (0u128..).zip(sound) {
            let key = CacheKey { term, analysis: "lower", config: "depth=30".into() };
            let entry = cache.peek(&key).expect("sound checkpoints load");
            let EntryStatus::Partial { checkpoint: Some(checkpoint), .. } = &entry.status else {
                panic!("sound checkpoint {probability} lost: {entry:?}");
            };
            assert_eq!(checkpoint.probability, Rational::parse(probability).unwrap());
            assert_eq!(checkpoint.frontier.len(), 1);
        }
        for term in 3..7 {
            let key = CacheKey { term, analysis: "lower", config: "depth=30".into() };
            assert!(cache.peek(&key).is_none(), "impossible checkpoint {term} was loaded");
        }
    }

    #[test]
    fn snapshots_with_another_stamp_are_rejected_once() {
        let json = r#"{"term":"00000000000000000000000000000001","analysis":"lower","config":"depth=30","payload":{"complete":true}}"#;
        let text = format!("probterm-cache-v1\n{} {json}\n{} {json}\n", json.len(), json.len());
        let (s, loaded, rejected) = boot_from_snapshot("v1", &text);
        assert_eq!((loaded, rejected), (0, 1));
        assert!(s.state().cache.lock().unwrap().is_empty());
    }

    #[test]
    fn a_partial_never_displaces_a_higher_bound() {
        let s = Server::new(ServerConfig { workers: 1, max_depth: 1600, ..Default::default() });
        // The chain below cannot finish depth 1600 in 120 ms (see the resume
        // test), so it truncates with a box-swept partial bound.
        let chain = "(fix phi x. if sample * sample <= 1/2 then (fix t n. if n <= 0 then x else if sample * sample <= 1/2 then t (n - 1) else t (n - 1)) 4 else phi (x + 1)) 0";
        let key = CacheKey {
            term: parse_term(chain).unwrap().canonical_key(),
            analysis: "lower",
            config: "depth=1600".into(),
        };
        // Partial A: a bound above anything the box sweep certifies in that
        // time, from 10 ms of engine work, without a checkpoint.
        let bound = Rational::one() - Rational::from_ratio(1, 2).pow(64);
        let partial = Value::Object(vec![
            ("probability".into(), Value::Str(bound.to_decimal_string(10))),
            ("complete".into(), Value::Bool(false)),
            ("engine_ms".into(), Value::UInt(10)),
        ]);
        let status = EntryStatus::Partial { bound, work_ms: 10, checkpoint: None };
        s.state().cache.lock().unwrap().put(key, Entry { payload: partial.clone(), status });
        // 120 ms is richer than twice A's engine time: the run declines A and
        // computes partial B, a lower bound from more engine time.
        let reply = s
            .handle_line(&format!(
                r#"{{"op":"lower","program":"{chain}","depth":1600,"deadline_ms":120}}"#
            ))
            .unwrap();
        let fresh = result_of(&reply);
        assert_eq!(fresh.get("complete").and_then(Value::as_bool), Some(false), "{reply}");
        assert!(fresh.get("engine_ms").and_then(Value::as_u64).unwrap() > 10, "{reply}");
        // A survives: a budget A serves is still answered with A.
        let reply = s
            .handle_line(&format!(
                r#"{{"op":"lower","program":"{chain}","depth":1600,"deadline_ms":20}}"#
            ))
            .unwrap();
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"), "{reply}");
        assert_eq!(v.get("result"), Some(&partial), "B displaced the higher bound A");
    }

    #[test]
    fn admission_estimates_engine_time_from_engine_runs_only() {
        let s = Server::new(ServerConfig {
            workers: 1,
            inject: Some(InjectSpec::parse("slow=@1:200").unwrap()),
            ..Default::default()
        });
        let state = s.state();
        // One 200 ms engine run, then 19 cache hits that run no engine.
        let lower = r#"{"op":"lower","program":"sample","depth":10}"#;
        for _ in 0..20 {
            result_of(&s.handle_line(lower).unwrap());
        }
        // Behind one queued job, a 10 ms deadline cannot survive the 200 ms
        // p95 engine time: the hits must not dilute the estimate.
        state.queued.store(1, Ordering::SeqCst);
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(io::sink())));
        let doomed = r#"{"op":"lower","program":"sample + 0","depth":10,"deadline_ms":10}"#;
        match route_line(state, doomed, &out) {
            Routed::Reply(reply) => assert_eq!(error_code_of(&reply), "overloaded"),
            _ => panic!("a deadline doomed by the engine-time estimate was admitted"),
        }
    }

    #[test]
    fn admission_sheds_engine_ops_when_overloaded() {
        let s = Server::new(ServerConfig { workers: 1, queue_depth: 2, ..Default::default() });
        let state = s.state();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(io::sink())));
        let lower = r#"{"id":9,"op":"lower","program":"sample","depth":10}"#;
        let parsed = parse_request(lower).expect("parseable");
        // Empty queue with no deadline: admitted without consulting p95.
        assert!(admission_reply(state, &parsed).is_none());
        // Queue at depth: shed with a structured overloaded reply.
        state.queued.store(2, Ordering::SeqCst);
        let reply = admission_reply(state, &parsed).expect("over-depth engine op is shed");
        assert_eq!(error_code_of(&reply), "overloaded");
        let v: Value = serde_json::from_str(&reply).unwrap();
        let retry = v
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Value::as_u64)
            .unwrap();
        assert!(retry >= 1);
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(9), "shed echoes the id");
        // The router sheds through the same path...
        assert!(matches!(route_line(state, lower, &out), Routed::Reply(_)));
        // ...but never sheds control ops or unparseable lines — control
        // ops are answered inline by the reader even at full queue depth,
        // and unparseable lines get their structured error inline too.
        match route_line(state, r#"{"op":"stats"}"#, &out) {
            Routed::Reply(reply) => {
                assert!(reply.contains(r#""ok":true"#), "{reply}");
            }
            _ => panic!("stats is answered inline, never shed"),
        }
        match route_line(state, "not json", &out) {
            Routed::Reply(reply) => assert_eq!(error_code_of(&reply), "parse_error"),
            _ => panic!("an unparseable line is answered inline, never enqueued"),
        }
        // Deadline-doomed shedding: with a recorded 1 s p95 engine time and
        // one queued job, a 10 ms deadline cannot survive the predicted wait.
        state.queued.store(1, Ordering::SeqCst);
        let phases =
            PhaseTimes { engine_us: Some(1_000_000), total_us: 1_000_000, ..Default::default() };
        state.metrics.record(Op::Lower, &phases, true);
        let doomed = r#"{"op":"lower","program":"sample","depth":10,"deadline_ms":10}"#;
        let doomed = parse_request(doomed).expect("parseable");
        let reply = admission_reply(state, &doomed).expect("doomed deadline is shed");
        assert_eq!(error_code_of(&reply), "overloaded");
        // Shed requests are counted, and the stats payload mirrors them.
        // Served is 5: the three sheds plus the inline stats and parse
        // error answers above.
        assert_eq!(state.stats().shed, 3);
        assert_eq!(state.stats().served, 5);
        let robustness = stats_payload(state);
        let shed = robustness
            .get("robustness")
            .and_then(|r| r.get("shed"))
            .and_then(Value::as_u64);
        assert_eq!(shed, Some(3));
        // An identical request already in flight is *coalesced*, not shed,
        // even at full queue depth: joiners consume no queue slot.
        state.queued.store(0, Ordering::SeqCst);
        let routed = route_line(state, lower, &out);
        assert!(
            matches!(routed, Routed::Enqueue(_)),
            "first engine op leads a flight"
        );
        state.queued.store(2, Ordering::SeqCst);
        assert!(matches!(route_line(state, lower, &out), Routed::Coalesced));
        assert_eq!(state.stats().coalesced_waiters, 1);
        assert_eq!(state.stats().shed, 3, "the joiner was not shed");
        // queue_depth 0 disables admission control entirely.
        let off = Server::new(ServerConfig { queue_depth: 0, ..Default::default() });
        off.state().queued.store(1000, Ordering::SeqCst);
        assert!(admission_reply(off.state(), &parsed).is_none());
    }

    #[test]
    fn injected_engine_panics_are_structured_and_counted() {
        let s = Server::new(ServerConfig {
            inject: Some(InjectSpec::parse("panic=@2").unwrap()),
            ..Default::default()
        });
        let lower = r#"{"op":"lower","program":"sample","depth":5}"#;
        let first = s.handle_line(lower).unwrap();
        let _ = result_of(&first); // engine run 1: no fault
        let second = s
            .handle_line(r#"{"op":"lower","program":"sample + 0","depth":5}"#)
            .unwrap();
        assert_eq!(error_code_of(&second), "internal", "{second}");
        assert!(second.contains("injected fault"), "{second}");
        // The worker survives and the cache is intact: the first program is
        // still a hit (cache hits never draw injection decisions).
        let again = s.handle_line(lower).unwrap();
        let v: Value = serde_json::from_str(&again).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(s.state().stats().injected_faults, 1);
    }

    #[test]
    fn deadline_cancels_inside_the_ast_verifier() {
        let s = server();
        // A deadline that has already passed when the verifier starts polling
        // must produce budget_exceeded (there is no sound partial proof), and
        // the error message must point inside the engine.
        let reply = s
            .handle_line(
                r#"{"op":"verify","program":"(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1","deadline_ms":0}"#,
            )
            .unwrap();
        assert_eq!(error_code_of(&reply), "budget_exceeded");
    }

    #[test]
    fn analyze_reports_partial_results_under_deadline() {
        let s = server();
        // About 1.3 s of box sweeps in a release build (see above).
        let tree = "(fix phi x. if sample * sample * sample <= 1/2 then x else phi (phi x)) 0";
        let reply = s
            .handle_line(&format!(
                r#"{{"op":"analyze","program":"{tree}","depth":400,"deadline_ms":120}}"#
            ))
            .unwrap();
        let result = result_of(&reply);
        assert_eq!(result.get("complete").and_then(Value::as_bool), Some(false));
        let lower = result.get("lower").unwrap();
        assert!(lower.get("probability_f64").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(result.get("ast_skipped").and_then(Value::as_str).is_some());
    }

    #[test]
    fn verify_not_applicable_and_parse_errors() {
        let s = server();
        let reply = s
            .handle_line(r#"{"op":"verify","program":"if sample <= 1/2 then 0 else 1"}"#)
            .unwrap();
        assert_eq!(error_code_of(&reply), "not_applicable");
        let reply = s.handle_line(r#"{"op":"lower","program":"((("}"#).unwrap();
        assert_eq!(error_code_of(&reply), "parse_error");
        let reply = s.handle_line("{not json").unwrap();
        assert_eq!(error_code_of(&reply), "parse_error");
        let reply = s
            .handle_line(r#"{"op":"lower","program":"0","depth":100000}"#)
            .unwrap();
        assert_eq!(error_code_of(&reply), "bad_request");
    }

    #[test]
    fn stats_reports_per_op_percentiles_and_phase_breakdowns() {
        let s = server();
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        // Scripted batch: one lower miss, two hits on the same entry, and one
        // verify that fails with not_applicable.
        for _ in 0..3 {
            let reply = s
                .handle_line(&format!(r#"{{"op":"lower","program":"{geo}","depth":25}}"#))
                .unwrap();
            result_of(&reply);
        }
        let reply = s
            .handle_line(r#"{"op":"verify","program":"if sample <= 1/2 then 0 else 1"}"#)
            .unwrap();
        assert_eq!(error_code_of(&reply), "not_applicable");

        let stats = result_of(&s.handle_line(r#"{"op":"stats"}"#).unwrap());
        let ops = stats.get("ops").unwrap();
        let lower = ops.get("lower").unwrap();
        assert_eq!(lower.get("requests").and_then(Value::as_u64), Some(3));
        assert_eq!(lower.get("errors").and_then(Value::as_u64), Some(0));
        let total = lower.get("total_us").unwrap();
        let p50 = total.get("p50").and_then(Value::as_u64).unwrap();
        let p99 = total.get("p99").and_then(Value::as_u64).unwrap();
        let max = total.get("max").and_then(Value::as_u64).unwrap();
        assert!(p50 <= p99 && p99 <= max, "p50={p50} p99={p99} max={max}");
        let phases = lower.get("phases_us").unwrap();
        for phase in ["queue", "cache", "engine", "serialize"] {
            let h = phases.get(phase).unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(h.get("p95").and_then(Value::as_u64).is_some(), "{phase} has no p95");
        }
        // The slowest lower request ran an engine; its engine phase dominates
        // the cache-hit replays, so the engine p99 must be nonzero.
        assert!(phases.get("engine").unwrap().get("p99").and_then(Value::as_u64).unwrap() > 0);
        let verify = ops.get("verify").unwrap();
        assert_eq!(verify.get("requests").and_then(Value::as_u64), Some(1));
        assert_eq!(verify.get("errors").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn metrics_op_renders_prometheus_text() {
        let s = server();
        let reply = s
            .handle_line(r#"{"op":"simulate","program":"sample","runs":20}"#)
            .unwrap();
        result_of(&reply);
        let result = result_of(&s.handle_line(r#"{"op":"metrics"}"#).unwrap());
        assert_eq!(
            result.get("format").and_then(Value::as_str),
            Some("prometheus-text-0.0.4")
        );
        let text = result.get("text").and_then(Value::as_str).unwrap();
        assert!(text.contains("probterm_requests_total{op=\"simulate\"} 1\n"));
        assert!(text.contains("# TYPE probterm_request_duration_microseconds summary"));
        assert!(text.contains("probterm_cache_misses_total 1\n"));
    }

    /// A `Write + Send` target collecting trace bytes for inspection.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_sink_gets_one_parseable_record_per_request() {
        let buf = SharedBuf::default();
        let s = Server::with_trace(
            ServerConfig { workers: 1, ..Default::default() },
            Some(TraceSink::new(Box::new(buf.clone()))),
        );
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let lower = format!(r#"{{"id":7,"op":"lower","program":"{geo}","depth":25}}"#);
        s.handle_line(&lower).unwrap();
        s.handle_line(&lower).unwrap();
        s.handle_line("{not json").unwrap();
        s.handle_line(r#"{"op":"stats"}"#).unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let records: Vec<Value> =
            text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(records.len(), 4, "one record per request: {text}");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get("seq").and_then(Value::as_u64), Some(i as u64 + 1));
            for field in ["queue_us", "cache_us", "engine_us", "serialize_us", "total_us"] {
                assert!(r.get(field).and_then(Value::as_u64).is_some(), "missing {field}");
            }
        }
        let (first, second, bad, stats) =
            (&records[0], &records[1], &records[2], &records[3]);
        assert_eq!(first.get("op").and_then(Value::as_str), Some("lower"));
        assert_eq!(first.get("cache").and_then(Value::as_str), Some("miss"));
        assert_eq!(first.get("outcome").and_then(Value::as_str), Some("ok"));
        assert_eq!(first.get("id").and_then(Value::as_u64), Some(7));
        let key = first.get("canonical_key").and_then(Value::as_str).unwrap();
        assert_eq!(key.len(), 16);
        assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(second.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(second.get("canonical_key").and_then(Value::as_str), Some(key));
        assert_eq!(bad.get("op").and_then(Value::as_str), Some("invalid"));
        assert_eq!(bad.get("outcome").and_then(Value::as_str), Some("parse_error"));
        assert!(bad.get("canonical_key").unwrap().is_null());
        assert_eq!(stats.get("op").and_then(Value::as_str), Some("stats"));
        assert!(stats.get("cache").unwrap().is_null());
    }

    #[test]
    fn explain_attributes_path_volumes_and_caches() {
        use probterm_core::numerics::Rational;
        let s = server();
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let request = format!(r#"{{"op":"explain","program":"{geo}","depth":40,"top":3}}"#);
        let reply = s.handle_line(&request).unwrap();
        let result = result_of(&reply);
        assert_eq!(
            result.get("schema").and_then(Value::as_str),
            Some("probterm-explain-v1")
        );
        // No deadline: the run itself is complete even though the geometric
        // exploration frontier never empties.
        assert_eq!(result.get("complete").and_then(Value::as_bool), Some(true));
        let frontier = result.get("frontier").unwrap();
        assert_eq!(
            frontier.get("exploration_complete").and_then(Value::as_bool),
            Some(false)
        );
        assert!(frontier.get("paused").and_then(Value::as_u64).unwrap() >= 1);
        // `top` caps the shown paths without changing the totals.
        let total = result.get("paths_total").and_then(Value::as_u64).unwrap();
        let shown = result.get("paths_shown").and_then(Value::as_u64).unwrap();
        assert!(total > 3, "geometric at depth 40 has many paths, got {total}");
        assert_eq!(shown, 3);
        // Every shown path carries a witness that replayed concretely.
        for path in result.get("paths").and_then(Value::as_array).unwrap() {
            let witness = path.get("witness").unwrap();
            assert_eq!(witness.get("replayed").and_then(Value::as_bool), Some(true));
        }
        // `engine_ms` (a partial entry's engine time) rides on the artifact.
        assert!(result.get("engine_ms").and_then(Value::as_u64).is_some());
        // Identical resubmission is a cache hit; a different `top` is a
        // different entry.
        let again = s.handle_line(&request).unwrap();
        let v = serde_json::from_str(&again).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));
        let full_request = format!(r#"{{"op":"explain","program":"{geo}","depth":40}}"#);
        let full = s.handle_line(&full_request).unwrap();
        let v = serde_json::from_str(&full).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("miss"));
        // The untruncated artifact's per-path volumes sum *exactly* to the
        // reported lower bound (rational equality, not float tolerance).
        let result = v.get("result").unwrap();
        let mut sum = Rational::zero();
        for path in result.get("paths").and_then(Value::as_array).unwrap() {
            let volume = path.get("volume").and_then(Value::as_str).unwrap();
            sum = &sum + &Rational::parse(volume).unwrap();
        }
        let probability = result.get("probability").and_then(Value::as_str).unwrap();
        assert_eq!(sum, Rational::parse(probability).unwrap());
    }

    #[test]
    fn slow_requests_emit_one_structured_line() {
        let buf = SharedBuf::default();
        let s = Server::with_sinks(
            ServerConfig { workers: 1, slow_ms: Some(0), ..Default::default() },
            None,
            Some(TraceSink::new(Box::new(buf.clone()))),
        );
        let geo = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
        let lower = format!(r#"{{"op":"lower","program":"{geo}","depth":25}}"#);
        // One engine run (any engine time beats the 0 ms threshold), one
        // cache hit and one control op — only the engine run is slow-logged.
        s.handle_line(&lower).unwrap();
        s.handle_line(&lower).unwrap();
        s.handle_line(r#"{"op":"stats"}"#).unwrap();

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let records: Vec<Value> =
            text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(records.len(), 1, "only the engine run is slow: {text}");
        let r = &records[0];
        assert_eq!(r.get("slow_ms").and_then(Value::as_u64), Some(0));
        assert_eq!(r.get("op").and_then(Value::as_str), Some("lower"));
        let key = r.get("canonical_key").and_then(Value::as_str).unwrap();
        assert_eq!(key.len(), 16);
        assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
        for field in ["queue_us", "cache_us", "engine_us", "serialize_us", "total_us"] {
            assert!(r.get(field).and_then(Value::as_u64).is_some(), "missing {field}");
        }
        assert!(r.get("engine_us").and_then(Value::as_u64).unwrap() > 0);
    }

    #[test]
    fn catalog_stats_and_shutdown() {
        let s = server();
        let catalog_reply = result_of(&s.handle_line(r#"{"op":"catalog"}"#).unwrap());
        assert_eq!(
            catalog_reply.get("table1").and_then(Value::as_array).map(<[Value]>::len),
            Some(10)
        );
        assert_eq!(
            catalog_reply.get("table2").and_then(Value::as_array).map(<[Value]>::len),
            Some(5)
        );
        assert!(!s.state().shutdown_requested());
        let reply = s.handle_line(r#"{"id":"bye","op":"shutdown"}"#).unwrap();
        let v = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert!(s.state().shutdown_requested());
    }

    #[test]
    fn stats_report_cache_bytes_and_entry_age() {
        let s = server();
        let before = result_of(&s.handle_line(r#"{"op":"stats"}"#).unwrap());
        assert_eq!(before.get("cache_bytes").and_then(Value::as_u64), Some(0));
        assert!(before.get("oldest_entry_ms").unwrap().is_null());
        s.handle_line(r#"{"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":20}"#)
            .unwrap();
        let after = result_of(&s.handle_line(r#"{"op":"stats"}"#).unwrap());
        assert!(after.get("cache_bytes").and_then(Value::as_u64).unwrap() > 0);
        assert!(after.get("oldest_entry_ms").and_then(Value::as_u64).is_some());
    }

    #[test]
    fn inspect_reports_inflight_engine_runs_with_live_bounds() {
        // The first engine run sleeps 200 ms (injected slow fault) before a
        // genuinely long exploration, so the poller below reliably observes
        // it mid-flight: first in the engine phase, then with a nonzero
        // monotone bound once paths start terminating. The non-affine geo at
        // depth 6000 box-sweeps every path and takes about 2.8 s in a release
        // build; the 1.5 s deadline cuts it short in every build, and the
        // partial reply is still `ok`.
        let s = Server::new(ServerConfig {
            workers: 1,
            max_depth: 6000,
            inject: Some(InjectSpec::parse("slow=@1:200").unwrap()),
            ..Default::default()
        });
        let bg = {
            let s = s.clone();
            thread::spawn(move || {
                s.handle_line(
                    r#"{"id":"slow-1","op":"lower","program":"(fix phi x. if sample * sample <= 1/2 then x else phi (x + 1)) 0","depth":6000,"deadline_ms":1500}"#,
                )
            })
        };
        let give_up = Instant::now() + Duration::from_secs(60);
        let mut saw_engine_phase = false;
        let mut saw_bound = false;
        let mut last_steps = 0u64;
        while Instant::now() < give_up && !(saw_engine_phase && saw_bound) {
            let result = result_of(&s.handle_line(r#"{"op":"inspect"}"#).unwrap());
            for row in result.get("inflight").unwrap().as_array().unwrap() {
                if row.get("op").and_then(Value::as_str) != Some("lower") {
                    continue;
                }
                assert_eq!(row.get("id").and_then(Value::as_str), Some("slow-1"));
                assert!(row.get("age_ms").and_then(Value::as_u64).is_some());
                if row.get("phase").and_then(Value::as_str) != Some("engine") {
                    continue;
                }
                saw_engine_phase = true;
                let p = row.get("progress").unwrap();
                let steps = p.get("steps").and_then(Value::as_u64).unwrap();
                assert!(steps >= last_steps, "in-flight steps went backwards");
                last_steps = steps;
                if p.get("bound").and_then(Value::as_f64).unwrap() > 0.0 {
                    assert!(steps > 0, "a nonzero bound implies exploration work");
                    assert!(p.get("paths").and_then(Value::as_u64).unwrap() > 0);
                    saw_bound = true;
                }
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_engine_phase, "never observed the lower run in the engine phase");
        assert!(saw_bound, "never observed a nonzero in-flight bound");
        let reply = bg.join().unwrap().unwrap();
        let _ = result_of(&reply);
        // Once the run completes its row is gone.
        let result = result_of(&s.handle_line(r#"{"op":"inspect"}"#).unwrap());
        assert_eq!(result.get("count").and_then(Value::as_u64), Some(0));
        assert_eq!(result.get("inflight").and_then(Value::as_array).map(<[Value]>::len), Some(0));
    }

    #[test]
    fn live_progress_bounds_round_down_from_the_exact_sum() {
        // Pterm is 1/2 - 2^-60, which rounds to nearest as the float 0.5:
        // summed in floats, the published bound would read 500_000_000.
        let program = "if sample <= 576460752303423487/1152921504606846976 then 0 else (fix f x. f x) 0";
        let draining = AtomicBool::new(false);
        let started = Instant::now();
        let unbounded = AtomicU64::new(u64::MAX);
        let budget = RunBudget {
            started,
            limit_ms: &unbounded,
            draining: &draining,
            tick: &|_| {},
            last_tick: Cell::new(None),
        };
        let progress = ProgressCell::new();
        let term = parse_term(program).unwrap();
        let entry = lower_payload(&term, 40, &budget, None, &progress).unwrap();
        assert_eq!(
            entry.payload.get("probability").and_then(Value::as_str),
            Some("0.4999999999")
        );
        let bound_scaled = progress.snapshot().bound_scaled;
        assert!(bound_scaled <= 499_999_999, "live bound {bound_scaled} exceeds the exact bound");
    }

    #[test]
    fn streamed_lower_emits_monotone_progress_frames() {
        // geo(1/2) at depth 1200 takes about 40 ms in a release build, so it
        // spans several frame intervals; depth 1200 is above the default cap.
        let s = Server::new(ServerConfig { workers: 1, max_depth: 1200, ..Default::default() });
        let frames = std::cell::RefCell::new(Vec::<Value>::new());
        let sink = |frame: &str| {
            frames.borrow_mut().push(serde_json::from_str(frame).unwrap());
        };
        let reply = handle_line_frames(
            s.state(),
            r#"{"id":77,"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":1200,"stream":true}"#,
            &sink,
        )
        .unwrap();
        let result = result_of(&reply);
        assert_eq!(result.get("complete").and_then(Value::as_bool), Some(true));
        let frames = frames.into_inner();
        assert!(
            frames.len() >= 2,
            "a depth-1200 run must emit several progress frames, got {}",
            frames.len()
        );
        let mut prev_steps = 0u64;
        let mut prev_bound = 0u64;
        for f in &frames {
            assert_eq!(f.get("id").and_then(Value::as_u64), Some(77), "frames carry the id");
            assert!(f.get("ok").is_none(), "frames are not replies");
            let p = f.get("progress").unwrap();
            let steps = p.get("steps").and_then(Value::as_u64).unwrap();
            let bound = p.get("bound_scaled").and_then(Value::as_u64).unwrap();
            assert!(steps >= prev_steps, "streamed steps regressed");
            assert!(bound >= prev_bound, "streamed bound regressed: frames must be monotone");
            prev_steps = steps;
            prev_bound = bound;
        }
        assert!(prev_steps > 0, "the final frame shows exploration work");
        assert!(prev_bound > 0, "the final frame shows accumulated mass");
        let first = frames.first().unwrap().get("progress").unwrap();
        assert!(
            prev_steps > first.get("steps").and_then(Value::as_u64).unwrap(),
            "steps must strictly increase across the run"
        );
        // Without "stream": true the same request emits no frames.
        let quiet = std::cell::RefCell::new(0usize);
        let count_sink = |_: &str| *quiet.borrow_mut() += 1;
        let reply = handle_line_frames(
            s.state(),
            r#"{"id":78,"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":1200}"#,
            &count_sink,
        )
        .unwrap();
        let _ = result_of(&reply);
        assert_eq!(*quiet.borrow(), 0, "non-streamed requests are frame-silent");
    }
}
