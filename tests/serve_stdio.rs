//! `probterm serve` without `--addr` speaks NDJSON over stdin/stdout: every
//! line piped in gets exactly one reply, and closing stdin lets the worker
//! pool finish every queued request, then exits 0.

use probterm_core::intervalsem::{lower_bound, LowerBoundConfig};
use probterm_core::spcf::parse_term;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};

const LOWER: &str = r#"{"id":"lower","op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":10}"#;
const STATS: &str = r#"{"id":"stats","op":"stats"}"#;

#[test]
fn stdio_serves_every_line_and_exits_cleanly_at_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_probterm"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn probterm serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    writeln!(stdin, "{LOWER}\nthis is not json\n{STATS}").expect("write requests");
    // Read the three replies before closing stdin: EOF starts the graceful
    // drain, which would cut a run still waiting in the queue short.
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut stdout = String::new();
    for _ in 0..3 {
        reader.read_line(&mut stdout).expect("read a reply");
    }
    drop(stdin);
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(rest, "", "no reply beyond one per request line");
    let status = child.wait().expect("wait for probterm serve");
    assert!(status.success(), "serve exited with {status:?}");
    let replies: Vec<Value> = stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("each reply is one JSON line"))
        .collect();
    assert_eq!(replies.len(), 3, "one reply per request line:\n{stdout}");
    // Replies may come out of order (the stats op is answered inline, the
    // others on the pool), so match them by id.
    let by_id = |id: &str| {
        replies
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no reply with id {id}:\n{stdout}"))
    };
    let lower = by_id("lower");
    assert_eq!(lower.get("ok").and_then(Value::as_bool), Some(true), "{lower:?}");
    let bound = lower
        .get("result")
        .and_then(|r| r.get("probability_f64"))
        .and_then(Value::as_f64)
        .expect("lower reports a bound");
    assert!(bound > 0.0 && bound <= 1.0, "bound {bound}");
    let stats = by_id("stats");
    assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true), "{stats:?}");
    assert!(stats.get("result").and_then(|r| r.get("served")).is_some(), "{stats:?}");
    let parse_errors: Vec<&Value> = replies
        .iter()
        .filter(|r| r.get("id") == Some(&Value::Null))
        .collect();
    assert_eq!(parse_errors.len(), 1, "{stdout}");
    let code = parse_errors[0]
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str);
    assert_eq!(code, Some("parse_error"), "{stdout}");
}

/// Two `lower` runs for one worker: the first runs while the second waits in
/// the queue.
const SLOW_PROGRAM: &str = "(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1";
const QUICK_PROGRAM: &str = "(fix phi x. if sample <= 1/3 then x else phi (x + 1)) 0";

#[test]
fn stdio_finishes_queued_requests_after_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_probterm"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn probterm serve");
    let requests = [("slow", SLOW_PROGRAM, 40), ("quick", QUICK_PROGRAM, 20)];
    let mut stdin = child.stdin.take().expect("piped stdin");
    for (id, program, depth) in requests {
        let line = format!(r#"{{"id":"{id}","op":"lower","program":"{program}","depth":{depth}}}"#);
        writeln!(stdin, "{line}").expect("write a request");
    }
    // Closing stdin at once: the queued run must still complete.
    drop(stdin);
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read to EOF");
    let status = child.wait().expect("wait for probterm serve");
    assert!(status.success(), "serve exited with {status:?}");
    let replies: Vec<Value> = stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("each reply is one JSON line"))
        .collect();
    assert_eq!(replies.len(), 2, "one reply per request line:\n{stdout}");
    for (id, program, depth) in requests {
        let reply = replies
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no reply with id {id}:\n{stdout}"));
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{reply:?}");
        let result = reply.get("result").expect("an ok reply has a result");
        assert_eq!(result.get("complete").and_then(Value::as_bool), Some(true), "{reply:?}");
        let term = parse_term(program).expect("the program parses");
        let expected = lower_bound(&term, &LowerBoundConfig::default().with_depth(depth));
        assert_eq!(
            result.get("probability").and_then(Value::as_str),
            Some(expected.probability.to_decimal_string(10).as_str()),
            "{id}: the served bound is the in-process bound"
        );
    }
}

#[test]
fn stdio_shutdown_exits_while_stdin_stays_open() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_probterm"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn probterm serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    writeln!(stdin, r#"{{"id":"bye","op":"shutdown"}}"#).expect("write shutdown");
    let mut reply = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut reply)
        .expect("read the shutdown reply");
    assert!(reply.contains(r#""ok":true"#), "shutdown reply: {reply}");
    // Stdin stays open: only the shutdown may end the serve loop.
    let started = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if started.elapsed() > std::time::Duration::from_secs(5) {
            let _ = child.kill();
            panic!("serve still running 5 s after its shutdown reply");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    drop(stdin);
    assert!(status.success(), "serve exited with {status:?}");
}

/// A `lower` request padded with spaces between its JSON tokens to more
/// than 4 KiB, so one `read` cannot take the whole line.
fn long_request_line() -> String {
    let padding = " ".repeat(5000);
    format!(
        r#"{{"id":"long",{padding}"op":"lower","program":"{QUICK_PROGRAM}",{padding}"depth":20}}"#
    )
}

/// Checks a reply to [`long_request_line`] against the in-process bound.
fn assert_long_reply(reply: &str) {
    let reply: Value = serde_json::from_str(reply.trim_end()).expect("one JSON reply line");
    assert_eq!(reply.get("id").and_then(Value::as_str), Some("long"), "{reply:?}");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{reply:?}");
    let expected = lower_bound(
        &parse_term(QUICK_PROGRAM).expect("the program parses"),
        &LowerBoundConfig::default().with_depth(20),
    );
    assert_eq!(
        reply.get("result").and_then(|r| r.get("probability")).and_then(Value::as_str),
        Some(expected.probability.to_decimal_string(10).as_str()),
        "the served bound is the in-process bound"
    );
}

#[test]
fn request_lines_longer_than_one_read_are_answered_over_stdio_and_tcp() {
    let line = long_request_line();
    assert!(line.len() > 4096);

    let mut child = Command::new(env!("CARGO_BIN_EXE_probterm"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn probterm serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    writeln!(stdin, "{line}").expect("write the long request");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read the stdio reply");
    assert_long_reply(&reply);
    drop(stdin);
    let status = child.wait().expect("wait for probterm serve");
    assert!(status.success(), "serve exited with {status:?}");

    let running = probterm_service::Server::new(probterm_service::ServerConfig::default())
        .spawn_tcp("127.0.0.1:0")
        .expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(running.addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("set read timeout");
    writeln!(stream, "{line}").expect("send the long request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read the TCP reply");
    assert_long_reply(&reply);
    writeln!(stream, r#"{{"id":"bye","op":"shutdown"}}"#).expect("send shutdown");
    reply.clear();
    reader.read_line(&mut reply).expect("read the shutdown reply");
    running.join().expect("the server drains cleanly");
}
