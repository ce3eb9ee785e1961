//! One flight record per engine run: in-process callers coalesce like TCP
//! clients, a waiter of any op is answered at its own deadline, and
//! `inspect` shows a run from its admission, queue wait included.

use probterm_service::{InjectSpec, Server, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::thread;
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
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send request");
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

    /// `true` when no reply byte has arrived yet.
    fn silent(&self) -> bool {
        let stream = self.reader.get_ref();
        stream.set_nonblocking(true).expect("nonblocking peek");
        let silent = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
        stream.set_nonblocking(false).expect("blocking again");
        silent
    }
}

fn field<'a>(reply: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(reply, |v, k| v.get(k).unwrap_or_else(|| panic!("no {k} in {reply:?}")))
}

/// A server whose first engine run sleeps `ms` before its engine starts.
fn slow_server(workers: usize, ms: u64) -> Server {
    Server::new(ServerConfig {
        workers,
        inject: Some(InjectSpec::parse(&format!("seed=1;slow=@1:{ms}")).unwrap()),
        ..Default::default()
    })
}

const GEO: &str = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";

/// Two concurrent `handle_line` calls of one cold `lower` share one engine
/// run: the second caller joins the first's flight and blocks for its reply.
#[test]
fn concurrent_in_process_callers_share_one_run() {
    let server = slow_server(1, 300);
    let lower = format!(r#"{{"id":1,"op":"lower","program":"{GEO}","depth":40}}"#);
    let leader = {
        let (server, lower) = (server.clone(), lower.clone());
        thread::spawn(move || server.handle_line(&lower).unwrap())
    };
    thread::sleep(Duration::from_millis(80)); // the leader is mid-sleep
    let joined: Value = serde_json::from_str(&server.handle_line(&lower).unwrap()).unwrap();
    let led: Value = serde_json::from_str(&leader.join().unwrap()).unwrap();
    assert_eq!(field(&led, &["cache"]).as_str(), Some("miss"), "{led:?}");
    assert_eq!(field(&joined, &["cache"]).as_str(), Some("coalesced"), "{joined:?}");
    assert_eq!(joined.get("result"), led.get("result"));
    let stats = server.state().stats();
    assert_eq!(stats.misses, 1, "exactly one engine run");
    assert_eq!(stats.coalesced_waiters, 1);
}

/// A `simulate` joiner whose deadline expires while the leader — with no
/// deadline — is still running gets the `budget_exceeded` a solo run would,
/// before the leader replies.
#[test]
fn a_short_deadline_joiner_of_a_long_simulate_is_answered_at_its_deadline() {
    let running = slow_server(1, 300).spawn_tcp("127.0.0.1:0").expect("bind loopback");
    // One run of a diverging loop for a million steps: the leader runs long
    // after its first cooperative check.
    let simulate = |deadline: &str| {
        format!(
            r#"{{"op":"simulate","program":"(fix phi x. phi x) 0","runs":1,"steps":1000000{deadline}}}"#
        )
    };
    let mut leader = Client::connect(running.addr);
    leader.send(&simulate(""));
    thread::sleep(Duration::from_millis(50)); // the leader is mid-sleep
    let mut joiner = Client::connect(running.addr);
    let reply = joiner.request(&simulate(r#","deadline_ms":100"#));
    assert_eq!(field(&reply, &["error", "code"]).as_str(), Some("budget_exceeded"), "{reply:?}");
    assert!(leader.silent(), "the leader replied before its joiner's deadline was served");
    let led = leader.read_reply();
    assert_eq!(field(&led, &["cache"]).as_str(), Some("miss"), "{led:?}");
    leader.send(r#"{"op":"shutdown"}"#);
    let _ = leader.read_reply();
    running.join().expect("clean shutdown");
}

/// With the one worker pinned, a queued engine request is in `inspect` in
/// phase `queue`, aging from its admission, next to the pinned run in phase
/// `engine`.
#[test]
fn inspect_shows_queued_runs_from_admission() {
    let running = slow_server(1, 400).spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut pin = Client::connect(running.addr);
    pin.send(&format!(r#"{{"id":"pin","op":"lower","program":"{GEO}","depth":40}}"#));
    thread::sleep(Duration::from_millis(50)); // the worker is mid-sleep
    let mut queued = Client::connect(running.addr);
    queued.send(r#"{"id":"queued","op":"simulate","program":"sample","runs":10}"#);
    thread::sleep(Duration::from_millis(100));

    let mut probe = Client::connect(running.addr);
    let inspect = probe.request(r#"{"op":"inspect"}"#);
    let rows = field(&inspect, &["result", "inflight"]).as_array().expect("rows");
    let row = |id: &str| {
        rows.iter()
            .find(|row| row.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no row {id}: {inspect:?}"))
    };
    assert_eq!(field(row("pin"), &["phase"]).as_str(), Some("engine"));
    assert_eq!(field(row("queued"), &["phase"]).as_str(), Some("queue"));
    assert_eq!(field(row("queued"), &["op"]).as_str(), Some("simulate"));
    assert!(field(row("queued"), &["age_ms"]).as_u64().unwrap() >= 100, "{inspect:?}");
    assert!(field(row("pin"), &["age_ms"]).as_u64().unwrap() >= 150, "{inspect:?}");

    for client in [&mut pin, &mut queued] {
        let reply = client.read_reply();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{reply:?}");
    }
    let after = probe.request(r#"{"op":"inspect"}"#);
    assert_eq!(field(&after, &["result", "count"]).as_u64(), Some(0));
    probe.send(r#"{"op":"shutdown"}"#);
    let _ = probe.read_reply();
    running.join().expect("clean shutdown");
}
