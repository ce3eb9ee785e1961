//! Graceful drain: a `shutdown` that arrives while engine jobs wait in the
//! queue still lets every queued request get exactly one reply before the
//! server exits cleanly.

use probterm_service::{InjectSpec, Server, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(format!("{line}\n").as_bytes()).expect("send request");
    stream.flush().expect("flush request");
}

/// Distinct programs, so each `verify` is a cold engine run of its own.
fn verify_request(id: u64) -> String {
    format!(
        r#"{{"id":{id},"op":"verify","program":"(fix phi x. if sample <= 1/2 then x else phi (phi (x + {id}))) 1"}}"#
    )
}

#[test]
fn shutdown_drains_queued_jobs_with_one_reply_each() {
    // Every engine run sleeps 300 ms, so one worker stays pinned while the
    // rest of the batch waits in the queue.
    let server = Server::new(ServerConfig {
        workers: 1,
        inject: Some(InjectSpec::parse("seed=1;slow=@1:300").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut batch = TcpStream::connect(running.addr).expect("connect batch client");
    batch.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    send(
        &mut batch,
        r#"{"id":0,"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":20}"#,
    );
    // Let the worker pick the pinned run up, then queue four more behind it.
    thread::sleep(Duration::from_millis(50));
    for id in 1..=4 {
        send(&mut batch, &verify_request(id));
    }
    thread::sleep(Duration::from_millis(50));

    let mut control = TcpStream::connect(running.addr).expect("connect control client");
    control.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    send(&mut control, r#"{"id":"bye","op":"shutdown"}"#);
    let mut reply = String::new();
    BufReader::new(&control).read_line(&mut reply).expect("read shutdown reply");
    assert!(reply.contains(r#""ok":true"#), "shutdown reply: {reply}");
    running.join().expect("server drains and exits cleanly");

    // The drained server has closed the batch connection: read it to EOF and
    // check that each request got exactly one reply.
    let mut ids = Vec::new();
    for line in BufReader::new(&batch).lines() {
        let line = line.expect("read batch reply");
        let reply: Value = serde_json::from_str(&line).expect("reply is valid JSON");
        let ok = reply.get("ok").and_then(Value::as_bool).expect("reply carries ok");
        if !ok {
            let code = reply.get("error").and_then(|e| e.get("code")).and_then(Value::as_str);
            assert!(code.is_some(), "an error reply must be structured: {line}");
        }
        let id = reply.get("id").and_then(Value::as_u64).expect("reply carries its id");
        ids.push(id);
    }
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 4], "one reply per queued request");
}
