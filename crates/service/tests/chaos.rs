//! Chaos tests: the server stays available and structured under injected
//! engine panics, slowdowns and mid-reply connection drops, sheds load with
//! `overloaded` + `retry_after_ms` when the admission queue saturates, reaps
//! idle connections with a structured notice, and never corrupts the result
//! cache — post-chaos replies still match direct library calls exactly.

use probterm_core::analyze_lower_bound;
use probterm_core::spcf::parse_term;
use probterm_service::{InjectSpec, Server, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A blocking NDJSON client: send one line, read one line.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream }
    }

    fn send(&mut self, line: &str) {
        let framed = format!("{line}\n");
        self.writer.write_all(framed.as_bytes()).expect("send request");
        self.writer.flush().expect("flush request");
    }

    fn read_reply(&mut self) -> Value {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        serde_json::from_str(reply.trim_end()).expect("reply is valid JSON")
    }

    fn request(&mut self, line: &str) -> Value {
        self.send(line);
        self.read_reply()
    }
}

fn is_ok(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(true)
}

fn error_code_of(reply: &Value) -> &str {
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false), "{reply:?}");
    reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error replies carry a code")
}

/// Distinct quickly-terminating programs: each is a fresh cache key, so each
/// request is one engine run and the injection schedule is predictable.
fn program(k: usize) -> String {
    format!("(fix phi x. if sample <= 1/2 then x else phi (x + {k})) 0")
}

const GEO: &str = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
/// A chain of recursive calls that first fans out into a depth-4 binary tree
/// of 16 terminating leaves, each a path measured by the box sweep: depth
/// 1600 takes about 4.7 s even in a release build.
const SLOW_CHAIN: &str =
    "(fix phi x. if sample * sample <= 1/2 then (fix t n. if n <= 0 then x else if sample * sample <= 1/2 then t (n - 1) else t (n - 1)) 4 else phi (x + 1)) 0";

/// Panics and slowdowns hit exactly the scheduled engine runs; every client
/// gets a structured reply; the cache survives uncorrupted and post-chaos
/// results still match direct library calls exactly.
#[test]
fn injected_panics_and_slowdowns_leave_structured_replies_and_a_clean_cache() {
    let server = Server::new(ServerConfig {
        workers: 2,
        inject: Some(InjectSpec::parse("seed=5;panic=@3;slow=@5:30").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);

    let mut failed = Vec::new();
    for k in 1..=12 {
        let reply = client.request(&format!(
            r#"{{"id":{k},"op":"lower","program":"{}","depth":25}}"#,
            program(k)
        ));
        assert_eq!(reply.get("id").and_then(Value::as_u64), Some(k as u64));
        if is_ok(&reply) {
            let p = reply
                .get("result")
                .and_then(|r| r.get("probability_f64"))
                .and_then(Value::as_f64)
                .expect("lower replies carry a bound");
            assert!(p > 0.9, "geometric chains terminate a.s., got {p}");
        } else {
            assert_eq!(error_code_of(&reply), "internal");
            failed.push(k);
        }
    }
    // panic=@3 over 12 lock-step engine runs: exactly runs 3, 6, 9, 12.
    assert_eq!(failed, vec![3, 6, 9, 12]);

    // Cache integrity after chaos: a surviving entry is a hit and matches the
    // direct library call exactly.
    let reply = client.request(&format!(
        r#"{{"id":100,"op":"lower","program":"{}","depth":25}}"#,
        program(1)
    ));
    assert_eq!(reply.get("cache").and_then(Value::as_str), Some("hit"));
    let direct = analyze_lower_bound(&parse_term(&program(1)).unwrap(), 25);
    let served = reply
        .get("result")
        .and_then(|r| r.get("probability"))
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    assert_eq!(served, direct.probability.to_decimal_string(10));

    // Fault accounting: 4 panics + slow runs 5 and 10.
    let stats = client.request(r#"{"id":101,"op":"stats"}"#);
    let robustness = stats
        .get("result")
        .and_then(|r| r.get("robustness"))
        .expect("stats carries robustness counters")
        .clone();
    assert_eq!(robustness.get("injected_faults").and_then(Value::as_u64), Some(6));

    client.send(r#"{"id":102,"op":"shutdown"}"#);
    let _ = client.read_reply();
    running.join().expect("clean shutdown after chaos");
}

/// A dropped reply truncates mid-line and hard-closes that connection only:
/// fresh connections keep working and the computed result was still cached.
#[test]
fn dropped_replies_close_one_connection_but_not_the_server() {
    let server = Server::new(ServerConfig {
        workers: 1,
        inject: Some(InjectSpec::parse("drop=@1").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    let mut victim = Client::connect(running.addr);
    victim.send(&format!(r#"{{"id":1,"op":"lower","program":"{GEO}","depth":20}}"#));
    // The injected drop writes half the reply, then hard-closes: the read
    // ends at EOF without a newline-terminated JSON line.
    let mut dangling = String::new();
    let n = victim.reader.read_to_string(&mut dangling).unwrap_or(0);
    assert!(
        n == 0 || serde_json::from_str(dangling.trim_end()).is_err(),
        "a dropped reply must not arrive whole: {dangling:?}"
    );

    // The server is still healthy: control ops are never injected, and the
    // dropped request's result was cached before the write — so the retry is
    // a hit, which draws no injection decision and arrives intact.
    let mut fresh = Client::connect(running.addr);
    let stats = fresh.request(r#"{"id":2,"op":"stats"}"#);
    assert!(is_ok(&stats));
    let retry =
        fresh.request(&format!(r#"{{"id":3,"op":"lower","program":"{GEO}","depth":20}}"#));
    assert!(is_ok(&retry), "{retry:?}");
    assert_eq!(retry.get("cache").and_then(Value::as_str), Some("hit"));

    fresh.send(r#"{"id":4,"op":"shutdown"}"#);
    let _ = fresh.read_reply();
    running.join().expect("clean shutdown");
}

/// With one worker pinned by a slow request and a queue depth of 1, the
/// second queued engine request is shed immediately with `overloaded` and a
/// positive `retry_after_ms`, while the admitted requests complete.
#[test]
fn saturated_admission_queue_sheds_with_retry_after() {
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_depth: 1,
        // Above the default depth cap of 400, for the pinning run below.
        max_depth: 1600,
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    // Pin the single worker: a deadline-bounded run that takes about 4.7 s
    // in a release build keeps the engine busy for the whole deadline.
    let mut pinner = Client::connect(running.addr);
    pinner.send(&format!(
        r#"{{"id":1,"op":"lower","program":"{SLOW_CHAIN}","depth":1600,"deadline_ms":500}}"#
    ));
    std::thread::sleep(Duration::from_millis(100)); // let the worker pop it

    // Same connection, two quick engine requests back to back: the first is
    // admitted (queued = 1 = depth), the second must be shed by the reader.
    // The two differ in `runs` — an *identical* second request would be
    // coalesced onto the first's in-flight run instead of shed.
    let mut burst = Client::connect(running.addr);
    burst.send(r#"{"id":2,"op":"simulate","program":"sample","runs":10}"#);
    burst.send(r#"{"id":3,"op":"simulate","program":"sample","runs":11}"#);
    // The shed reply is written by the reader thread immediately, so it
    // arrives first; the admitted request replies once the worker frees up.
    let shed = burst.read_reply();
    assert_eq!(shed.get("id").and_then(Value::as_u64), Some(3));
    assert_eq!(error_code_of(&shed), "overloaded");
    let retry_after = shed
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Value::as_u64)
        .expect("shed replies carry retry_after_ms");
    assert!(retry_after >= 1);
    let admitted = burst.read_reply();
    assert_eq!(admitted.get("id").and_then(Value::as_u64), Some(2));
    assert!(is_ok(&admitted), "{admitted:?}");

    // The pinned request still completes with its sound partial bound, and
    // control ops were never sheddable.
    let pinned = pinner.read_reply();
    assert!(is_ok(&pinned), "{pinned:?}");
    let stats = pinner.request(r#"{"id":4,"op":"stats"}"#);
    assert!(is_ok(&stats));
    let shed_count = stats
        .get("result")
        .and_then(|r| r.get("robustness"))
        .and_then(|r| r.get("shed"))
        .and_then(Value::as_u64);
    assert_eq!(shed_count, Some(1));

    pinner.send(r#"{"id":5,"op":"shutdown"}"#);
    let _ = pinner.read_reply();
    running.join().expect("clean shutdown");
}

/// A panic injected into a coalesced engine run errors the leader AND every
/// attached waiter — nobody hangs waiting on a run that died — and the
/// server stays healthy for control ops afterwards.
#[test]
fn a_panicked_coalesced_run_errors_every_waiter_without_hanging() {
    let server = Server::new(ServerConfig {
        workers: 1,
        // The single engine run sleeps 300 ms (time for the waiters to
        // attach), then panics.
        inject: Some(InjectSpec::parse("seed=1;slow=@1:300;panic=@1").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    let lower = format!(r#"{{"id":1,"op":"lower","program":"{GEO}","depth":30}}"#);
    let mut leader = Client::connect(running.addr);
    leader.send(&lower);
    std::thread::sleep(Duration::from_millis(100)); // leader is mid-sleep

    let mut waiters: Vec<Client> =
        (0..2).map(|_| Client::connect(running.addr)).collect();
    for waiter in &mut waiters {
        waiter.send(&lower);
    }

    // Every party gets a structured internal error; none of the reads hang.
    let leader_reply = leader.read_reply();
    assert_eq!(error_code_of(&leader_reply), "internal");
    for waiter in &mut waiters {
        let reply = waiter.read_reply();
        assert_eq!(error_code_of(&reply), "internal", "{reply:?}");
    }

    // The flight was cleaned up and the server still serves: control ops
    // never draw injection decisions.
    let stats = leader.request(r#"{"id":9,"op":"stats"}"#);
    assert!(is_ok(&stats));
    let coalesced = stats
        .get("result")
        .and_then(|r| r.get("coalesced_waiters"))
        .and_then(Value::as_u64);
    assert_eq!(coalesced, Some(2));

    leader.send(r#"{"id":10,"op":"shutdown"}"#);
    let _ = leader.read_reply();
    running.join().expect("clean shutdown after a coalesced panic");
}

/// An idle connection is closed after the configured timeout with one
/// structured `idle_timeout` line; active connections are unaffected.
#[test]
fn idle_connections_are_reaped_with_a_structured_notice() {
    let server = Server::new(ServerConfig {
        idle_timeout_ms: Some(150),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    let mut idle = Client::connect(running.addr);
    // Say nothing; the reaper should speak first.
    let notice = idle.read_reply();
    assert_eq!(error_code_of(&notice), "idle_timeout");
    // After the notice the stream is closed.
    let mut rest = String::new();
    assert_eq!(idle.reader.read_to_string(&mut rest).unwrap_or(0), 0);

    // A busy connection (requests well inside the timeout) never trips it.
    let mut busy = Client::connect(running.addr);
    for i in 0..3 {
        let reply = busy.request(&format!(r#"{{"id":{i},"op":"stats"}}"#));
        assert!(is_ok(&reply));
    }
    let stats = busy.request(r#"{"id":9,"op":"stats"}"#);
    let idle_closed = stats
        .get("result")
        .and_then(|r| r.get("robustness"))
        .and_then(|r| r.get("idle_closed"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(idle_closed >= 1);

    busy.send(r#"{"id":10,"op":"shutdown"}"#);
    let _ = busy.read_reply();
    running.join().expect("clean shutdown");
}
