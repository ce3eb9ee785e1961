//! The `service_hot` workload. It drives a `probterm serve` child process
//! over loopback TCP, so the server's CPU time and memory are read from its
//! own `/proc` entries, apart from the load generator's: a closed loop, one
//! connection per core, of α-renamings of a few catalogue programs, all
//! filled into the cache during set-up, so every timed request is a hit.
//!
//! The traced run adds an open-loop phase: one generator thread at
//! `OPEN_LOOP_RATE` requests per second, latency timed from each request's
//! due time, hits mixed with distinct cold `lower` and `verify` requests
//! against a cache small enough to evict. It also times the in-process
//! layers the same requests cross (`protocol::parse_request`, `parse_term` +
//! `Term::canonical_key`, `Server::handle_line`), the cold programs' engines
//! (`verify_ast`, `lower_bound`), and the server's idle CPU.

use crate::calib::HostSpeed;
use crate::gen::{self, ColdTemplate, Rng};
use crate::stats::{self, median, quantile};
use crate::{Args, Report};
use probterm_astver::verify_ast;
use probterm_intervalsem::{lower_bound, LowerBoundConfig};
use probterm_numerics::Rational;
use probterm_service::protocol::parse_request;
use probterm_service::{Server, ServerConfig};
use probterm_spcf::catalog::{self, Benchmark};
use probterm_spcf::{parse_term, Term};
use serde::Value;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups per run (spawn, first reply, cache fill); `setup_s` is their
/// median and the last one serves the timed phase.
const SETUP_REPS: usize = 7;
/// α-renamings per hot catalogue program.
const HOT_VARIANTS: usize = 32;
/// Offered load of the traced run's open-loop phase, requests per second:
/// well below what one worker sustains on the cold requests.
const OPEN_LOOP_RATE: f64 = 200.0;
/// Length of the open-loop phase.
const OPEN_LOOP_WINDOW: Duration = Duration::from_secs(6);
/// Each block of `MIXED_BLOCK` scheduled open-loop requests holds
/// `COLD_LOWERS` cold `lower` and `COLD_VERIFIES` cold `verify` requests;
/// the rest are hits. Cold lowers are the slowest tenth, so the p95 falls
/// inside them.
const MIXED_BLOCK: usize = 20;
const COLD_LOWERS: usize = 2;
const COLD_VERIFIES: usize = 1;
/// Depth of the cold `lower` requests: a few milliseconds of engine time.
const COLD_DEPTH: usize = 100;
/// Cache capacity of the server: the hot entries stay, the open-loop
/// phase's cold ones evict each other.
const CACHE_CAPACITY: usize = 64;
/// The generator spins for the last `SPIN` before each due time.
const SPIN: Duration = Duration::from_micros(200);
/// A send later than this after its due time counts as late.
const LATE_AFTER: Duration = Duration::from_millis(1);
/// Quiet window over which the traced run reads the server's idle CPU.
const IDLE_WINDOW: Duration = Duration::from_secs(2);
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What a correct reply to one request says.
enum Expect {
    /// The in-process `lower_bound` at the same depth: the reply's decimal
    /// bound and path count.
    Lower { probability: String, paths: u64 },
    /// The catalogue's `expected_ast`.
    Verify(bool),
}

impl Expect {
    fn lower(term: &Term, depth: usize) -> Expect {
        let result = lower_bound(term, &LowerBoundConfig::default().with_depth(depth));
        Expect::Lower {
            probability: result.probability.to_decimal_string(10),
            paths: result.paths as u64,
        }
    }

    fn verify(benchmark: &Benchmark) -> Expect {
        Expect::Verify(
            benchmark
                .expected_ast
                .expect("cold and hot verify programs have a verdict"),
        )
    }

    /// Checks a full reply line.
    fn accepts(&self, reply: &str) -> bool {
        let Ok(value) = serde_json::from_str(reply) else {
            return false;
        };
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            return false;
        }
        let Some(result) = value.get("result") else {
            return false;
        };
        match self {
            Expect::Lower { probability, paths } => {
                result.get("complete").and_then(Value::as_bool) == Some(true)
                    && result.get("probability").and_then(Value::as_str) == Some(probability)
                    && result.get("paths").and_then(Value::as_u64) == Some(*paths)
            }
            Expect::Verify(verdict) => {
                result.get("verified").and_then(Value::as_bool) == Some(*verdict)
            }
        }
    }
}

fn json_string(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A request without its `id`: the rest of the line after `{"id":N,`.
fn request_body(op: &str, source: &str, depth: Option<usize>) -> String {
    let depth = depth.map_or(String::new(), |d| format!(",\"depth\":{d}"));
    format!(
        "\"op\":\"{op}\",\"program\":{}{depth}}}\n",
        json_string(source)
    )
}

fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}")
}

/// One hot catalogue entry and its α-renamed request bodies.
struct HotEntry {
    bodies: Vec<String>,
    expect: Expect,
    /// The `"result":…}` tail every hit on this entry ends with, taken
    /// from a reply checked in full during set-up.
    tail: String,
}

fn hot_entries(rng: &mut Rng) -> Vec<HotEntry> {
    let lower = [
        (catalog::geometric(Rational::from_ratio(1, 2)), 60),
        (catalog::golden_ratio(), 30),
        (catalog::printer_nonaffine(Rational::from_ratio(1, 2)), 30),
    ];
    let verify = [
        catalog::printer_affine(Rational::from_ratio(1, 2)),
        catalog::three_print(Rational::from_ratio(2, 3)),
        catalog::tired_printer(Rational::from_ratio(3, 5)),
    ];
    let variants = |b: &Benchmark, rng: &mut Rng, op: &str, depth: Option<usize>| -> Vec<String> {
        let source = b.term.to_string();
        (0..HOT_VARIANTS)
            .map(|_| request_body(op, &gen::alpha_rename(&source, rng), depth))
            .collect()
    };
    let mut entries = Vec::new();
    for (b, depth) in &lower {
        entries.push(HotEntry {
            bodies: variants(b, rng, "lower", Some(*depth)),
            expect: Expect::lower(&b.term, *depth),
            tail: String::new(),
        });
    }
    for b in &verify {
        entries.push(HotEntry {
            bodies: variants(b, rng, "verify", None),
            expect: Expect::verify(b),
            tail: String::new(),
        });
    }
    entries
}

/// A `probterm serve` child process. Dropping it stops the server with the
/// `shutdown` op and reaps it, killing it only if it does not exit.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    pid: String,
    drain: Option<thread::JoinHandle<()>>,
}

impl ServerProc {
    fn spawn(probterm: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(probterm)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--cache",
                &CACHE_CAPACITY.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", probterm.display()))?;
        let pid = child.id().to_string();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        let read = stderr.read_line(&mut first);
        let addr = first
            .trim()
            .rsplit_once("listening on ")
            .and_then(|(_, a)| a.parse().ok());
        // Keep draining stderr so the server never blocks on a full pipe.
        let drain = thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
            drain: Some(drain),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("server did not report its address: {first:?}")),
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    fn cpu_seconds(&self) -> Result<f64, String> {
        stats::cpu_seconds(&self.pid)
    }

    /// Counters from the `stats` op.
    fn stats(&self) -> Result<Value, String> {
        let reply = self
            .connect()?
            .call("{\"id\":0,\"op\":\"stats\"}\n")
            .map_err(|e| format!("stats: {e}"))?;
        let value = serde_json::from_str(&reply).map_err(|e| format!("stats reply: {e}"))?;
        value
            .get("result")
            .cloned()
            .ok_or(format!("stats failed: {reply}"))
    }

    fn stop(&mut self) {
        if let Ok(mut client) = self.connect() {
            let _ = client.call("{\"id\":0,\"op\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        if let Ok(None) = self.child.try_wait() {
            eprintln!("server {} ignored shutdown; killing it", self.pid);
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> io::Result<&str> {
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }

    fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv().map(str::to_string)
    }
}

/// The `"result":…}` tail of a reply line.
fn result_tail(reply: &str) -> Option<&str> {
    reply.find(",\"result\":").map(|i| &reply[i + 1..])
}

/// A hit reply to request `id` is correct when it is `ok` and its result is
/// the one checked in full during set-up.
fn hit_ok(reply: &str, id: u64, tail: &str) -> bool {
    let head = format!("{{\"id\":{id},\"ok\":true,");
    reply.starts_with(&head) && result_tail(reply) == Some(tail)
}

/// One request of the open-loop schedule.
enum Slot {
    Hot {
        entry: usize,
        variant: usize,
    },
    /// A distinct `lower`, checked against in-process `lower_bound` on its
    /// source after the timed phase.
    ColdLower {
        body: String,
        source: String,
    },
    /// A distinct `verify` and the verdict its reply must carry.
    ColdVerify {
        body: String,
        expect: Expect,
    },
}

/// The open-loop schedule: blocks of `MIXED_BLOCK` requests in a seeded
/// order, every cold program distinct.
fn mixed_schedule(rng: &mut Rng, entries: &[HotEntry], count: usize) -> Vec<Slot> {
    let lower = gen::cold_lower_template();
    let verify = gen::cold_verify_templates();
    let mut used = std::collections::HashSet::new();
    let mut fresh = |t: &ColdTemplate, rng: &mut Rng| loop {
        let (k, s) = (2 + rng.below(998) as u32, rng.below(1000) as u32);
        if used.insert((t.template, k, s)) {
            return gen::alpha_rename(&t.source(k, s), rng);
        }
    };
    let mut schedule = Vec::with_capacity(count);
    let mut hot = 0usize;
    while schedule.len() < count {
        let mut block: Vec<Slot> = Vec::with_capacity(MIXED_BLOCK);
        for _ in 0..COLD_LOWERS {
            let source = fresh(&lower, rng);
            block.push(Slot::ColdLower {
                body: request_body("lower", &source, Some(COLD_DEPTH)),
                source,
            });
        }
        for _ in 0..COLD_VERIFIES {
            let template = rng.pick(&verify);
            let source = fresh(template, rng);
            block.push(Slot::ColdVerify {
                body: request_body("verify", &source, None),
                expect: Expect::verify(&template.catalogue),
            });
        }
        while block.len() < MIXED_BLOCK {
            let entry = hot % entries.len();
            block.push(Slot::Hot {
                entry,
                variant: (hot / entries.len()) % HOT_VARIANTS,
            });
            hot += 1;
        }
        rng.shuffle(&mut block);
        schedule.extend(block);
    }
    schedule.truncate(count);
    schedule
}

/// A server with the hot entries filled and their reply tails checked.
struct Prepared {
    server: ServerProc,
    entries: Vec<HotEntry>,
    /// Request ids already used on this server.
    next_id: u64,
    /// Fill replies checked in full, and how many of them were wrong.
    checked: u64,
    failed: u64,
    /// The seeded stream the hot order and the mix are drawn from.
    rng: Rng,
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let mut rng = Rng::new(args.seed);
    let mut entries = hot_entries(&mut rng);
    let server = ServerProc::spawn(&args.probterm)?;
    let mut client = server.connect()?;
    let first = client
        .call("{\"id\":0,\"op\":\"stats\"}\n")
        .map_err(|e| format!("first request: {e}"))?;
    if !first.contains("\"ok\":true") {
        return Err(format!("first request failed: {first}"));
    }
    let (mut checked, mut failed) = (0, 0);
    let mut next_id = 1;
    for entry in &mut entries {
        // The fill (a miss) and one hit, both checked in full.
        for _ in 0..2 {
            let reply = client
                .call(&line(next_id, &entry.bodies[0]))
                .map_err(|e| format!("fill: {e}"))?;
            next_id += 1;
            checked += 1;
            if !entry.expect.accepts(&reply) {
                eprintln!("fill reply rejected: {reply}");
                failed += 1;
            }
            entry.tail = result_tail(&reply).unwrap_or_default().to_string();
        }
    }
    Ok(Prepared {
        server,
        entries,
        next_id,
        checked,
        failed,
        rng,
    })
}

/// Sets up `SETUP_REPS` times; returns the last set-up and the median time,
/// each set-up's time scaled to the nominal host by the reference timed
/// around it.
fn setup(args: &Args, host: &mut HostSpeed) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous set-up's server before timing the next.
        drop(last.take());
        let t = Instant::now();
        last = Some(prepare(args)?);
        let seconds = t.elapsed().as_secs_f64();
        times.push(seconds * host.factor());
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

pub fn run(args: &Args) -> Result<Report, String> {
    // On a shared 2-core virtual machine a wake-up aimed at the other core
    // stalls whenever the host has descheduled that core, which moved this
    // workload's throughput and tail by ±30% from run to run. With the
    // server and the load generator on one core every wake-up is local, so
    // host contention reaches this workload only as it reaches the
    // single-threaded engine workloads.
    stats::pin_to_one_cpu()?;
    let mut host = HostSpeed::new();
    let (mut prepared, setup_s) = setup(args, &mut host)?;
    let mut report = Report::default();
    report.attempted += prepared.checked;
    report.failed += prepared.failed;
    let count = |report: &mut Report, phase: &Phase| {
        report.attempted += phase.attempted;
        report.failed += phase.failed;
    };
    if args.trace {
        // The untraced half, the traced half, then the open-loop phase, all
        // on the same server.
        let plain = closed_loop(&mut prepared, args.seconds / 2, false)?;
        let traced = closed_loop(&mut prepared, args.seconds / 2, true)?;
        let open = open_loop(&mut prepared, OPEN_LOOP_WINDOW)?;
        for phase in [&plain, &traced, &open] {
            count(&mut report, phase);
        }
        layers(args, &prepared, &plain, &traced, &open, &mut report)?;
        return Ok(report);
    }
    let run = closed_loop(&mut prepared, args.seconds, false)?;
    count(&mut report, &run);
    eprintln!(
        "{}: {} replies; rates and percentiles are medians over {} one-second slices; \
         median p50 {:.1} us on this host",
        args.workload,
        run.samples.len(),
        run.slices.len(),
        run.per_slice(|s, _| quantile(s, 0.50)) * 1e6
    );
    let scaled = |run: &Phase, f: fn(&[f64]) -> f64| {
        run.per_slice(|latencies, slice| f(latencies) * slice.factor)
    };
    report.metric("setup_s", setup_s, "s");
    report.metric("pass_s", median(&run.passes), "s");
    report.metric(
        "rps",
        run.per_slice(|latencies, slice| latencies.len() as f64 / (slice.seconds * slice.factor)),
        "1/s",
    );
    report.metric("p50_us", scaled(&run, |s| quantile(s, 0.50)) * 1e6, "us");
    report.metric("p95_us", scaled(&run, |s| quantile(s, 0.95)) * 1e6, "us");
    report.metric("cpu_us_per_req", run.scaled_cpu_us_per_req(), "us");
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb(&prepared.server.pid)?,
        "MB",
    );
    Ok(report)
}

/// Length of one slice of a timed phase.
const SLICE: Duration = Duration::from_secs(1);

/// One slice of a timed phase: a second of closed-loop load, or a second of
/// the open loop's due times.
#[derive(Clone, Copy)]
struct Slice {
    /// Seconds the slice's load ran.
    seconds: f64,
    /// Converts the slice's times to seconds on the nominal host (`calib`);
    /// 1 in the open loop, whose latencies are reported as measured.
    factor: f64,
    /// Closed loop only: the serve process's CPU seconds in the slice.
    server_cpu_s: f64,
}

/// What one timed load phase measured.
struct Phase {
    attempted: u64,
    failed: u64,
    /// One `(slice, latency)` per correct reply: the latency is the round
    /// trip (closed loop) or the time from the due send time (open loop),
    /// the slice is the one the reply completed (closed loop) or was due
    /// (open loop) in.
    samples: Vec<(usize, f64)>,
    /// Latencies of hits only.
    hit_latencies: Vec<f64>,
    /// Traced phases only: seconds each request spent in the client's
    /// `write`, kept in memory until the phase ends.
    writes: Vec<f64>,
    /// Closed loop only: nominal seconds per pass over every distinct hot
    /// request.
    passes: Vec<f64>,
    slices: Vec<Slice>,
    server_cpu_s: f64,
    /// Open loop only: the share of sends made more than `LATE_AFTER` late.
    late_frac: f64,
}

impl Phase {
    /// The serve process's CPU time per correct reply, in µs.
    fn cpu_us_per_req(&self) -> f64 {
        self.server_cpu_s * 1e6 / self.samples.len() as f64
    }

    /// `cpu_us_per_req` in nominal seconds (closed loop only).
    fn scaled_cpu_us_per_req(&self) -> f64 {
        let cpu: f64 = self.slices.iter().map(|s| s.server_cpu_s * s.factor).sum();
        cpu * 1e6 / self.samples.len() as f64
    }

    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, l)| *l).collect()
    }

    /// The median over the phase's slices of `f` applied to each slice's
    /// latencies. A burst of host contention that stalls a few seconds of
    /// the window does not move it.
    fn per_slice(&self, f: impl Fn(&[f64], &Slice) -> f64) -> f64 {
        let mut latencies = vec![Vec::new(); self.slices.len()];
        for (slice, latency) in &self.samples {
            if let Some(slice) = latencies.get_mut(*slice) {
                slice.push(*latency);
            }
        }
        let values: Vec<f64> = latencies
            .iter()
            .zip(&self.slices)
            .filter(|(l, _)| !l.is_empty())
            .map(|(l, slice)| f(l, slice))
            .collect();
        median(&values)
    }
}

/// `service_hot`'s closed loop: one connection cycling through every hot
/// request line in a seeded order, the next request sent when the previous
/// reply has arrived. The window is cut into `SLICE`s; the reference is
/// timed between slices, while the server idles, to scale each slice's
/// times to the nominal host.
fn closed_loop(prepared: &mut Prepared, window: Duration, traced: bool) -> Result<Phase, String> {
    let mut lines: Vec<(usize, usize)> = (0..prepared.entries.len())
        .flat_map(|e| (0..HOT_VARIANTS).map(move |v| (e, v)))
        .collect();
    prepared.rng.shuffle(&mut lines);
    let mut client = prepared.server.connect()?;
    let (mut failed, mut samples, mut passes, mut writes, mut slices) =
        (0, Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut host = HostSpeed::new();
    for slice in 0..window.as_secs().max(1) as usize {
        let mut slice_passes = Vec::new();
        let cpu_start = prepared.server.cpu_seconds()?;
        let start = Instant::now();
        let mut pass = start;
        let mut next = 0;
        loop {
            if next == lines.len() {
                slice_passes.push(pass.elapsed().as_secs_f64());
                pass = Instant::now();
                next = 0;
            }
            let (e, v) = lines[next];
            next += 1;
            let id = prepared.next_id;
            prepared.next_id += 1;
            let request = line(id, &prepared.entries[e].bodies[v]);
            let t = Instant::now();
            if t >= start + SLICE {
                break;
            }
            client.send(&request).map_err(|e| format!("send: {e}"))?;
            if traced {
                writes.push(t.elapsed().as_secs_f64());
            }
            let reply = client.recv().map_err(|e| format!("recv: {e}"))?;
            let rtt = t.elapsed().as_secs_f64();
            if hit_ok(reply, id, &prepared.entries[e].tail) {
                samples.push((slice, rtt));
            } else {
                failed += 1;
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        let server_cpu_s = prepared.server.cpu_seconds()? - cpu_start;
        let factor = host.factor();
        passes.extend(slice_passes.iter().map(|p| p * factor));
        slices.push(Slice {
            seconds,
            factor,
            server_cpu_s,
        });
    }
    if passes.is_empty() {
        return Err("no complete pass over the hot lines".into());
    }
    Ok(Phase {
        attempted: samples.len() as u64 + failed,
        failed,
        hit_latencies: samples.iter().map(|(_, l)| *l).collect(),
        samples,
        writes,
        passes,
        server_cpu_s: slices.iter().map(|s| s.server_cpu_s).sum(),
        slices,
        late_frac: 0.0,
    })
}

/// The traced run's open-loop phase: one generator thread sends the mix on
/// a fixed schedule at `OPEN_LOOP_RATE`; a reader thread on the same
/// connection timestamps each reply against its request's due time.
fn open_loop(prepared: &mut Prepared, window: Duration) -> Result<Phase, String> {
    let count = (window.as_secs_f64() * OPEN_LOOP_RATE) as usize;
    let schedule = mixed_schedule(&mut prepared.rng, &prepared.entries, count);
    let first_id = prepared.next_id;
    let lines: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let body = match slot {
                Slot::Hot { entry, variant } => &prepared.entries[*entry].bodies[*variant],
                Slot::ColdLower { body, .. } | Slot::ColdVerify { body, .. } => body,
            };
            line(first_id + i as u64, body)
        })
        .collect();
    prepared.next_id += count as u64;
    let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
    let mut client = prepared.server.connect()?;
    let mut reader = BufReader::new(client.writer.try_clone().map_err(|e| e.to_string())?);
    let entries = &prepared.entries;
    let cpu_start = prepared.server.cpu_seconds()?;
    let start = Instant::now() + Duration::from_millis(10);
    let due = |i: usize| start + period * i as u32;

    let (received, late) = thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // Arrival and verdict of every reply, and the replies to cold
            // lowers, whose verdict comes later.
            let mut arrivals: Vec<Option<(Instant, bool)>> = vec![None; count];
            let mut cold_lowers: Vec<(usize, String)> = Vec::new();
            let mut buf = String::new();
            for _ in 0..count {
                buf.clear();
                match reader.read_line(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let now = Instant::now();
                let reply = buf.trim_end();
                let id = reply
                    .strip_prefix("{\"id\":")
                    .and_then(|r| r.split(',').next())
                    .and_then(|n| n.parse::<u64>().ok());
                let Some(i) = id
                    .and_then(|id| id.checked_sub(first_id))
                    .map(|i| i as usize)
                    .filter(|i| *i < count)
                else {
                    continue;
                };
                let ok = match &schedule[i] {
                    Slot::Hot { entry, .. } => {
                        hit_ok(reply, first_id + i as u64, &entries[*entry].tail)
                    }
                    Slot::ColdLower { .. } => {
                        cold_lowers.push((i, reply.to_string()));
                        true
                    }
                    Slot::ColdVerify { expect, .. } => expect.accepts(reply),
                };
                arrivals[i] = Some((now, ok));
            }
            (arrivals, cold_lowers)
        });
        let mut late = 0usize;
        let mut send_error = None;
        for (i, request) in lines.iter().enumerate() {
            let due = due(i);
            // Sleep most of the gap, then spin: a sleep alone overshoots by
            // tens of microseconds, which would count as latency.
            if let Some(gap) = due.checked_duration_since(Instant::now() + SPIN) {
                thread::sleep(gap);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            if Instant::now().saturating_duration_since(due) > LATE_AFTER {
                late += 1;
            }
            if let Err(e) = client.send(request) {
                send_error = Some(e);
                break;
            }
        }
        if send_error.is_some() {
            let _ = client.writer.shutdown(std::net::Shutdown::Both);
        }
        (
            reader.join().map_err(|_| "reader panicked".to_string()),
            late,
        )
    });
    let server_cpu_s = prepared.server.cpu_seconds()? - cpu_start;
    let (mut arrivals, cold_lowers) = received?;

    for (i, reply) in &cold_lowers {
        let Slot::ColdLower { source, .. } = &schedule[*i] else {
            unreachable!("only cold lowers are checked late")
        };
        if !Expect::lower(&gen::parse(source), COLD_DEPTH).accepts(reply) {
            eprintln!("cold lower reply rejected: {reply}");
            arrivals[*i] = arrivals[*i].map(|(at, _)| (at, false));
        }
    }
    let mut failed = 0u64;
    let mut latencies = Vec::with_capacity(count);
    let mut hit_latencies = Vec::new();
    for (i, arrival) in arrivals.iter().enumerate() {
        match arrival {
            Some((at, true)) => {
                let latency = at.saturating_duration_since(due(i)).as_secs_f64();
                latencies.push(((i as f64 / OPEN_LOOP_RATE) as usize, latency));
                if matches!(schedule[i], Slot::Hot { .. }) {
                    hit_latencies.push(latency);
                }
            }
            _ => failed += 1,
        }
    }
    if hit_latencies.is_empty() {
        return Err("no correct replies".into());
    }
    Ok(Phase {
        attempted: count as u64,
        failed,
        samples: latencies,
        hit_latencies,
        writes: Vec::new(),
        passes: Vec::new(),
        slices: vec![
            Slice {
                seconds: SLICE.as_secs_f64(),
                factor: 1.0,
                server_cpu_s: 0.0,
            };
            (window.as_secs_f64() / SLICE.as_secs_f64()) as usize
        ],
        server_cpu_s,
        late_frac: late as f64 / count as f64,
    })
}

/// Median seconds per call of `f` over batches covering at least `budget`.
fn per_call(budget: Duration, calls_per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for i in 0..calls_per_batch {
            f(i);
        }
        batches.push(t.elapsed().as_secs_f64() / calls_per_batch as f64);
    }
    median(&batches)
}

/// The per-layer metrics of a traced service run.
fn layers(
    args: &Args,
    prepared: &Prepared,
    plain: &Phase,
    traced: &Phase,
    open: &Phase,
    report: &mut Report,
) -> Result<(), String> {
    let budget = Duration::from_millis(500);
    let lines: Vec<String> = prepared
        .entries
        .iter()
        .flat_map(|e| e.bodies.iter().enumerate().map(|(v, b)| line(v as u64, b)))
        .collect();
    let sources: Vec<String> = lines
        .iter()
        .map(|l| {
            parse_request(l)
                .ok()
                .and_then(|r| r.program)
                .expect("hot lines are valid requests")
        })
        .collect();
    let parse_s = per_call(budget, lines.len(), |i| {
        black_box(parse_request(black_box(&lines[i])).is_ok());
    });
    let key_s = per_call(budget, sources.len(), |i| {
        black_box(
            parse_term(black_box(&sources[i]))
                .map(|t| t.canonical_key())
                .ok(),
        );
    });
    let server = Server::new(ServerConfig::default());
    for l in &lines {
        server.handle_line(l);
    }
    let handle_s = per_call(budget, lines.len(), |i| {
        black_box(server.handle_line(black_box(&lines[i])));
    });
    report.metric("service.parse_request_us", parse_s * 1e6, "us");
    report.metric("spcf.canonical_key_us", key_s * 1e6, "us");
    report.metric("service.handle_line_us", handle_s * 1e6, "us");
    report.metric(
        "service.transport_us",
        (median(&traced.hit_latencies) - handle_s) * 1e6,
        "us",
    );
    report.metric(
        "bench.trace_overhead_ms",
        (median(&traced.latencies()) - median(&plain.latencies())) * 1e3,
        "ms",
    );
    report.metric(
        "service.client_write_us",
        median(&traced.writes) * 1e6,
        "us",
    );
    report.metric(
        "service.transport_open_us",
        (median(&open.hit_latencies) - handle_s) * 1e6,
        "us",
    );
    report.metric(
        "service.open_p50_us",
        open.per_slice(|s, _| quantile(s, 0.50)) * 1e6,
        "us",
    );
    report.metric(
        "service.open_p95_us",
        open.per_slice(|s, _| quantile(s, 0.95)) * 1e6,
        "us",
    );
    report.metric("service.open_cpu_us_per_req", open.cpu_us_per_req(), "us");
    report.metric("bench.late_frac", open.late_frac, "ratio");

    // The cold programs' engines, in process.
    {
        let mut rng = Rng::new(args.seed);
        let lower = gen::cold_lower_template();
        let verify = gen::cold_verify_templates();
        let mut lower_s = Vec::new();
        let mut verify_s = Vec::new();
        for i in 0..24 {
            let term = gen::parse(&gen::alpha_rename(
                &lower.source(2 + i, rng.below(1000) as u32),
                &mut rng,
            ));
            let t = Instant::now();
            black_box(lower_bound(
                &term,
                &LowerBoundConfig::default().with_depth(COLD_DEPTH),
            ));
            lower_s.push(t.elapsed().as_secs_f64());
            let template = &verify[i as usize % verify.len()];
            let term = gen::parse(&gen::alpha_rename(
                &template.source(2 + i, rng.below(1000) as u32),
                &mut rng,
            ));
            let t = Instant::now();
            let ok =
                verify_ast(&term).map(|v| Some(v.verified_ast) == template.catalogue.expected_ast);
            verify_s.push(t.elapsed().as_secs_f64());
            report.check(ok == Ok(true));
        }
        report.metric(
            "intervalsem.cold_lower_bound_ms",
            median(&lower_s) * 1e3,
            "ms",
        );
        report.metric("astver.verify_us", median(&verify_s) * 1e6, "us");
    }

    let stats = prepared.server.stats()?;
    let count = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0) as f64;
    let hits = count(stats.get("hits"));
    let misses = count(stats.get("misses"));
    report.metric(
        "service.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.metric("service.cache_misses", misses, "count");
    report.metric(
        "service.shed",
        count(stats.get("robustness").and_then(|r| r.get("shed"))),
        "count",
    );
    report.metric(
        "service.coalesced_waiters",
        count(stats.get("coalesced_waiters")),
        "count",
    );

    // Idle CPU: one idle connection open, nothing sent.
    let _idle = prepared.server.connect()?;
    let cpu = prepared.server.cpu_seconds()?;
    thread::sleep(IDLE_WINDOW);
    let idle = prepared.server.cpu_seconds()? - cpu;
    report.metric(
        "service.idle_cpu_pct",
        idle / IDLE_WINDOW.as_secs_f64() * 100.0,
        "%",
    );
    Ok(())
}
