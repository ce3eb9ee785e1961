//! End-to-end tests of the TCP transport: concurrent mixed request streams
//! answered with results identical to direct library calls, α-equivalent
//! resubmissions observable as cache hits, structured deadline errors that
//! leave workers alive, and graceful shutdown.

use probterm_core::spcf::{
    estimate_termination, parse_term, MonteCarloConfig, Strategy,
};
use probterm_core::{analyze_ast, analyze_lower_bound};
use probterm_service::{Server, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

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

    fn request(&mut self, line: &str) -> Value {
        let framed = format!("{line}\n");
        self.writer.write_all(framed.as_bytes()).expect("send request");
        self.writer.flush().expect("flush request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        serde_json::from_str(reply.trim_end()).expect("reply is valid JSON")
    }
}

fn result_of(reply: &Value) -> &Value {
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected success reply, got {reply:?}"
    );
    reply.get("result").expect("success replies carry a result")
}

fn error_code_of(reply: &Value) -> &str {
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error replies carry a code")
}

const GEO: &str = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";
const PRINTER_QUARTER: &str =
    "(fix phi x. if sample <= 1/4 then x else phi (phi (x + 1))) 1";
const PRINTER_FAIR: &str =
    "(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1";

/// (a) Concurrent clients firing mixed request streams all get replies
/// identical to direct library calls.
#[test]
fn concurrent_mixed_requests_match_direct_library_calls() {
    let server = Server::new(ServerConfig { workers: 3, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let addr = running.addr;

    // Ground truth, computed directly against the libraries.
    let direct_estimate = estimate_termination(
        &parse_term(GEO).unwrap(),
        &MonteCarloConfig { runs: 300, max_steps: 500, seed: 11, strategy: Strategy::CallByValue },
    );
    let direct_lower = analyze_lower_bound(&parse_term(PRINTER_QUARTER).unwrap(), 35);
    let direct_verify = analyze_ast(&parse_term(PRINTER_FAIR).unwrap()).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|client_index| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..3 {
                    let id = client_index * 100 + round;
                    // Monte-Carlo simulation (seeded, call-by-value).
                    let reply = client.request(&format!(
                        r#"{{"id":{id},"op":"simulate","program":"{GEO}","runs":300,"steps":500,"seed":11,"strategy":"cbv"}}"#
                    ));
                    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(id));
                    let result = result_of(&reply).clone();
                    // Interval-semantics lower bound.
                    let reply = client.request(&format!(
                        r#"{{"id":{},"op":"lower","program":"{PRINTER_QUARTER}","depth":35}}"#,
                        id + 50
                    ));
                    let lower = result_of(&reply).clone();
                    // AST verification.
                    let reply = client.request(&format!(
                        r#"{{"id":{},"op":"verify","program":"{PRINTER_FAIR}"}}"#,
                        id + 75
                    ));
                    let verify = result_of(&reply).clone();
                    // Hand the last round's payloads back for comparison
                    // (earlier rounds exercise the cache-hit path).
                    if round == 2 {
                        return (result, lower, verify);
                    }
                }
                unreachable!("loop always returns on the last round")
            })
        })
        .collect();

    for handle in handles {
        let (simulate, lower, verify) = handle.join().expect("client thread");
        assert_eq!(
            simulate.get("terminated").and_then(Value::as_u64),
            Some(direct_estimate.terminated as u64)
        );
        assert_eq!(
            simulate.get("probability").and_then(Value::as_f64),
            Some(direct_estimate.probability())
        );
        assert_eq!(
            simulate.get("mean_steps").and_then(Value::as_f64),
            Some(direct_estimate.mean_steps)
        );
        assert_eq!(
            lower.get("probability").and_then(Value::as_str),
            Some(direct_lower.probability.to_decimal_string(10).as_str())
        );
        assert_eq!(
            lower.get("paths").and_then(Value::as_u64),
            Some(direct_lower.paths as u64)
        );
        assert_eq!(
            verify.get("verified").and_then(Value::as_bool),
            Some(direct_verify.verified_ast)
        );
        assert_eq!(
            verify.get("papprox").and_then(Value::as_str),
            Some(direct_verify.papprox.to_string().as_str())
        );
    }

    let mut control = Client::connect(addr);
    let reply = control.request(r#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    drop(control);
    running.join().expect("server exits cleanly after shutdown");
}

/// (b) An α-renamed resubmission of a `verify` request is a cache hit,
/// observable through the `stats` counters.
#[test]
fn alpha_renamed_verify_resubmission_is_a_cache_hit() {
    let server = Server::new(ServerConfig { workers: 2, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);

    let before = result_of(&client.request(r#"{"op":"stats"}"#)).clone();
    assert_eq!(before.get("hits").and_then(Value::as_u64), Some(0));

    let original = client.request(&format!(
        r#"{{"id":1,"op":"verify","program":"{PRINTER_FAIR}"}}"#
    ));
    assert_eq!(original.get("cache").and_then(Value::as_str), Some("miss"));

    // Same program modulo bound-variable names (and irrelevant whitespace).
    let renamed =
        "(fix retry copies.  if sample <= 1/2 then copies else retry (retry (copies + 1))) 1";
    let resubmitted =
        client.request(&format!(r#"{{"id":2,"op":"verify","program":"{renamed}"}}"#));
    assert_eq!(resubmitted.get("cache").and_then(Value::as_str), Some("hit"));
    assert_eq!(result_of(&original), result_of(&resubmitted));

    let after = result_of(&client.request(r#"{"op":"stats"}"#)).clone();
    assert_eq!(after.get("hits").and_then(Value::as_u64), Some(1));
    assert_eq!(after.get("misses").and_then(Value::as_u64), Some(1));

    client.request(r#"{"op":"shutdown"}"#);
    drop(client);
    running.join().expect("clean shutdown");
}

/// (c) A request exceeding its deadline yields a structured
/// `budget_exceeded` error and the worker keeps serving on the same
/// connection.
#[test]
fn deadline_exceeded_requests_do_not_kill_workers() {
    let server = Server::new(ServerConfig { workers: 1, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);

    let reply = client.request(
        r#"{"id":"slow","op":"simulate","program":"(fix phi x. phi x) 0","runs":400000,"steps":2500,"deadline_ms":40}"#,
    );
    assert_eq!(error_code_of(&reply), "budget_exceeded");
    assert_eq!(reply.get("id").and_then(Value::as_str), Some("slow"));
    let message = reply
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(message.contains("deadline"), "{message}");

    // The single worker survived and still answers.
    let reply = client.request(&format!(
        r#"{{"id":"next","op":"simulate","program":"{GEO}","runs":50,"steps":400,"seed":3}}"#
    ));
    let result = result_of(&reply);
    assert_eq!(result.get("runs").and_then(Value::as_u64), Some(50));
    let stats = result_of(&client.request(r#"{"op":"stats"}"#)).clone();
    assert_eq!(stats.get("inflight").and_then(Value::as_u64), Some(0));

    client.request(r#"{"op":"shutdown"}"#);
    drop(client);
    running.join().expect("clean shutdown");
}

/// (d) A deadline-bounded `lower` request whose exploration cannot finish
/// returns an `ok` reply carrying the sound partial bound (marked
/// `"complete": false`) instead of a bare `budget_exceeded`, the partial
/// entry is served to bounded retries from the cache, and the worker keeps
/// serving.
#[test]
fn deadline_bounded_lower_returns_partial_bounds_over_tcp() {
    let server = Server::new(ServerConfig { workers: 1, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);

    // A binary-branching recursion with a cubic guard explores an
    // exponential tree and measures every path with the box sweep: depth 400
    // takes about 1.3 s in a release build, but its earliest terminating paths
    // are found and measured within milliseconds.
    let tree = "(fix phi x. if sample * sample * sample <= 1/2 then x else phi (phi x)) 0";
    let request = format!(
        r#"{{"id":"partial","op":"lower","program":"{tree}","depth":400,"deadline_ms":150}}"#
    );
    let reply = client.request(&request);
    let result = result_of(&reply);
    assert_eq!(
        result.get("complete").and_then(Value::as_bool),
        Some(false),
        "expected a partial reply, got {reply:?}"
    );
    let partial = result.get("probability_f64").and_then(Value::as_f64).unwrap();
    assert!(partial > 0.0, "partial bound must be nonzero");
    assert!(partial < 1.0, "partial bound must be sound");

    // A bounded retry is an instant cache hit on the partial bound.
    let retry = client.request(&request);
    assert_eq!(retry.get("cache").and_then(Value::as_str), Some("hit"));
    assert_eq!(result_of(&retry), result);

    // The worker survived and still serves complete results.
    let reply = client.request(&format!(
        r#"{{"id":"full","op":"lower","program":"{GEO}","depth":40}}"#
    ));
    let full = result_of(&reply);
    assert_eq!(full.get("complete").and_then(Value::as_bool), Some(true));
    assert!(full.get("probability_f64").and_then(Value::as_f64).unwrap() > 0.9);

    client.request(r#"{"op":"shutdown"}"#);
    drop(client);
    running.join().expect("clean shutdown");
}

/// Malformed lines get structured replies and never wedge the connection.
#[test]
fn malformed_traffic_gets_structured_errors() {
    let server = Server::new(ServerConfig { workers: 2, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);

    let reply = client.request("this is not json");
    assert_eq!(error_code_of(&reply), "parse_error");
    let reply = client.request(r#"{"id":7,"op":"halt_and_catch_fire"}"#);
    assert_eq!(error_code_of(&reply), "bad_request");
    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(7));
    let reply = client.request(r#"{"op":"lower","program":"fix phi x."}"#);
    assert_eq!(error_code_of(&reply), "parse_error");

    // The connection is still healthy.
    let reply = client.request(r#"{"op":"catalog"}"#);
    assert!(result_of(&reply).get("table1").is_some());

    client.request(r#"{"op":"shutdown"}"#);
    drop(client);
    running.join().expect("clean shutdown");
}
