//! Single-flight coalescing and cache persistence, end to end over TCP:
//! identical concurrent cold requests share exactly one engine run, joiners
//! with divergent deadlines are reconciled soundly (poorer ones get the
//! anytime partial, richer ones upgrade the shared budget), a `--cache-path`
//! snapshot survives a restart, the event loop holds hundreds of
//! concurrent connections on two workers, and a request is validated before
//! it can lead, join or queue behind a flight.

use probterm_service::{InjectSpec, Server, ServerConfig, CACHE_SNAPSHOT_VERSION};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
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

fn cache_tag(reply: &Value) -> &str {
    reply.get("cache").and_then(Value::as_str).expect("reply carries a cache tag")
}

fn stat_u64(stats: &Value, field: &str) -> u64 {
    stats
        .get("result")
        .and_then(|r| r.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats carries {field}: {stats:?}"))
}

const GEO: &str = "(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0";

/// Eight concurrent identical cold `lower` requests: one engine run, eight
/// replies with identical results, seven accounted coalesced waiters. The
/// injected slow fault holds the leader's run open long enough that the
/// joiners demonstrably arrive while it is in flight — no timing luck.
#[test]
fn identical_cold_requests_share_exactly_one_engine_run() {
    let server = Server::new(ServerConfig {
        workers: 2,
        // Every engine run sleeps 250 ms before dispatch: a wide-open window
        // for the seven joiners to attach to the leader's flight.
        inject: Some(InjectSpec::parse("seed=7;slow=@1:250").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    let lower = format!(r#"{{"id":1,"op":"lower","program":"{GEO}","depth":40}}"#);
    let mut leader = Client::connect(running.addr);
    leader.send(&lower);
    std::thread::sleep(Duration::from_millis(80)); // leader is mid-sleep

    let mut joiners: Vec<Client> =
        (0..7).map(|_| Client::connect(running.addr)).collect();
    for joiner in &mut joiners {
        joiner.send(&lower);
    }

    let leader_reply = leader.read_reply();
    assert!(is_ok(&leader_reply), "{leader_reply:?}");
    assert_eq!(cache_tag(&leader_reply), "miss");
    let leader_result = leader_reply.get("result").expect("leader result").clone();
    for joiner in &mut joiners {
        let reply = joiner.read_reply();
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(cache_tag(&reply), "coalesced");
        assert_eq!(reply.get("result"), Some(&leader_result), "fanned-out result differs");
    }

    let stats = leader.request(r#"{"id":99,"op":"stats"}"#);
    assert_eq!(stat_u64(&stats, "misses"), 1, "exactly one engine run");
    assert_eq!(stat_u64(&stats, "hits"), 0, "joiners never touched the cache");
    assert_eq!(stat_u64(&stats, "coalesced_waiters"), 7);
    assert_eq!(stat_u64(&stats, "coalesce_fanout_max"), 7);

    leader.send(r#"{"id":100,"op":"shutdown"}"#);
    let _ = leader.read_reply();
    running.join().expect("clean shutdown");
}

/// Divergent deadlines on one coalesced run: a joiner poorer than the leader
/// receives the sound anytime partial from the run's live progress, while a
/// joiner with no deadline upgrades the shared budget so the run — whose
/// leader deadline alone would have expired during the injected slowdown —
/// completes for everyone still attached.
#[test]
fn divergent_deadlines_are_reconciled_soundly() {
    let server = Server::new(ServerConfig {
        workers: 1,
        // The single engine run sleeps 400 ms before dispatch: longer than
        // the leader's own 200 ms deadline, so completion proves the
        // unbounded joiner upgraded the shared budget.
        inject: Some(InjectSpec::parse("seed=9;slow=@1:400").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    let mut leader = Client::connect(running.addr);
    leader.send(&format!(
        r#"{{"id":1,"op":"lower","program":"{GEO}","depth":60,"deadline_ms":200}}"#
    ));
    std::thread::sleep(Duration::from_millis(120)); // leader is mid-sleep

    // Joiner A is poorer than the run: its 100 ms expire while the leader is
    // still inside the injected sleep.
    let mut poorer = Client::connect(running.addr);
    poorer.send(&format!(
        r#"{{"id":2,"op":"lower","program":"{GEO}","depth":60,"deadline_ms":100}}"#
    ));
    // Joiner B is richer: no deadline at all, which lifts the shared budget
    // to unbounded the moment it registers.
    let mut richer = Client::connect(running.addr);
    richer.send(&format!(r#"{{"id":3,"op":"lower","program":"{GEO}","depth":60}}"#));

    let partial = poorer.read_reply();
    assert!(is_ok(&partial), "{partial:?}");
    assert_eq!(cache_tag(&partial), "coalesced");
    let result = partial.get("result").expect("partial result");
    assert_eq!(result.get("complete").and_then(Value::as_bool), Some(false));
    assert_eq!(
        result.get("partial_source").and_then(Value::as_str),
        Some("coalesced-progress"),
        "{partial:?}"
    );

    for (client, tag) in [(&mut leader, "miss"), (&mut richer, "coalesced")] {
        let reply = client.read_reply();
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(cache_tag(&reply), tag);
        assert_eq!(
            reply.get("result").and_then(|r| r.get("complete")).and_then(Value::as_bool),
            Some(true),
            "the upgraded budget lets the run finish: {reply:?}"
        );
    }

    let stats = leader.request(r#"{"id":99,"op":"stats"}"#);
    assert_eq!(stat_u64(&stats, "misses"), 1);
    assert_eq!(stat_u64(&stats, "coalesced_waiters"), 2);

    leader.send(r#"{"id":100,"op":"shutdown"}"#);
    let _ = leader.read_reply();
    running.join().expect("clean shutdown");
}

/// A `--cache-path` snapshot round-trips a graceful restart: the reborn
/// server answers a previously-computed request as a cache hit without
/// rerunning the engine, and both sides account the persistence traffic.
#[test]
fn cache_snapshot_survives_a_graceful_restart() {
    let path = std::env::temp_dir().join(format!(
        "probterm-coalesce-restart-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cache_path = path.to_str().expect("utf-8 temp path").to_string();
    let lower = format!(r#"{{"id":1,"op":"lower","program":"{GEO}","depth":35}}"#);

    let first = Server::new(ServerConfig {
        workers: 1,
        cache_path: Some(cache_path.clone()),
        ..Default::default()
    });
    let running = first.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);
    let cold = client.request(&lower);
    assert!(is_ok(&cold), "{cold:?}");
    assert_eq!(cache_tag(&cold), "miss");
    let cold_result = cold.get("result").expect("cold result").clone();
    client.send(r#"{"id":2,"op":"shutdown"}"#);
    let _ = client.read_reply();
    running.join().expect("clean shutdown persists the snapshot");

    let snapshot = std::fs::read_to_string(&path).expect("snapshot written on drain");
    assert_eq!(snapshot.lines().next(), Some(CACHE_SNAPSHOT_VERSION));

    let reborn = Server::new(ServerConfig {
        workers: 1,
        cache_path: Some(cache_path),
        ..Default::default()
    });
    let running = reborn.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);
    let warm = client.request(&lower);
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(cache_tag(&warm), "hit", "the reborn server serves from the snapshot");
    assert_eq!(warm.get("result"), Some(&cold_result));

    let stats = client.request(r#"{"id":3,"op":"stats"}"#);
    assert!(stat_u64(&stats, "cache_persist_loaded") >= 1, "{stats:?}");
    assert_eq!(stat_u64(&stats, "misses"), 0, "no engine run after the restart");

    client.send(r#"{"id":4,"op":"shutdown"}"#);
    let _ = client.read_reply();
    running.join().expect("clean shutdown");
    let _ = std::fs::remove_file(&path);
}

/// A checkpointed partial `lower` survives a graceful restart: the snapshot
/// persists its typed status under the v2 stamp, the reborn server loads it
/// without rejections, and a richer retry resumes from the checkpoint with a
/// bound no lower than the first.
#[test]
fn checkpointed_partial_survives_a_graceful_restart_and_resumes() {
    let path = std::env::temp_dir().join(format!(
        "probterm-coalesce-partial-restart-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cache_path = path.to_str().expect("utf-8 temp path").to_string();
    let config = ServerConfig {
        workers: 1,
        // Above the default depth cap of 400.
        max_depth: 1600,
        cache_path: Some(cache_path),
        ..Default::default()
    };
    // A chain of recursive calls that first fans out into a depth-4 binary
    // tree of 16 terminating leaves, each measured by the box sweep; the
    // frontier stays small enough to checkpoint. Depth 1600 takes about
    // 4.7 s in a release build, so both runs below truncate.
    let chain = "(fix phi x. if sample * sample <= 1/2 then (fix t n. if n <= 0 then x else if sample * sample <= 1/2 then t (n - 1) else t (n - 1)) 4 else phi (x + 1)) 0";
    let request = |id: u32, deadline_ms: u32| {
        format!(
            r#"{{"id":{id},"op":"lower","program":"{chain}","depth":1600,"deadline_ms":{deadline_ms}}}"#
        )
    };

    let running = Server::new(config.clone()).spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);
    let first = client.request(&request(1, 120));
    assert!(is_ok(&first), "{first:?}");
    let first = first.get("result").expect("partial result").clone();
    assert_eq!(first.get("complete").and_then(Value::as_bool), Some(false));
    assert!(first.get("checkpoint").is_some(), "{first:?}");
    client.send(r#"{"id":2,"op":"shutdown"}"#);
    let _ = client.read_reply();
    running.join().expect("clean shutdown persists the snapshot");

    let snapshot = std::fs::read_to_string(&path).expect("snapshot written on drain");
    assert_eq!(snapshot.lines().next(), Some("probterm-cache-v3-engine-2"));
    assert!(snapshot.contains(r#""status":{"bound":""#), "typed status persisted: {snapshot}");

    let running = Server::new(config).spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(running.addr);
    let stats = client.request(r#"{"id":3,"op":"stats"}"#);
    assert_eq!(stat_u64(&stats, "cache_persist_loaded"), 1, "{stats:?}");
    assert_eq!(stat_u64(&stats, "cache_persist_rejected"), 0, "{stats:?}");
    let retry = client.request(&request(4, 2000));
    assert!(is_ok(&retry), "{retry:?}");
    assert_eq!(cache_tag(&retry), "miss", "a richer budget declines the partial");
    let resumed = retry.get("result").expect("resumed result");
    assert_eq!(resumed.get("resumed").and_then(Value::as_bool), Some(true), "{retry:?}");
    let bound = |result: &Value| result.get("probability_f64").and_then(Value::as_f64).unwrap();
    assert!(bound(resumed) >= bound(&first), "{resumed:?} regressed below {first:?}");

    client.send(r#"{"id":5,"op":"shutdown"}"#);
    let _ = client.read_reply();
    running.join().expect("clean shutdown");
    let _ = std::fs::remove_file(&path);
}

/// The readiness-polled event loop holds hundreds of concurrent connections
/// on two workers — no thread per connection — and every one of them gets
/// its reply.
#[test]
fn event_loop_sustains_hundreds_of_concurrent_connections() {
    let server = Server::new(ServerConfig { workers: 2, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");

    let mut clients: Vec<Client> =
        (0..260).map(|_| Client::connect(running.addr)).collect();
    // All connections are open simultaneously before anyone speaks.
    for (i, client) in clients.iter_mut().enumerate() {
        client.send(&format!(r#"{{"id":{i},"op":"stats"}}"#));
    }
    for (i, client) in clients.iter_mut().enumerate() {
        let reply = client.read_reply();
        assert!(is_ok(&reply), "connection {i}: {reply:?}");
        assert_eq!(reply.get("id").and_then(Value::as_u64), Some(i as u64));
    }

    clients[0].send(r#"{"id":999,"op":"shutdown"}"#);
    let _ = clients[0].read_reply();
    running.join().expect("clean shutdown");
}

const VERIFY: &str = "(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1";

fn error_code(reply: &Value) -> &str {
    reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("an error reply: {reply:?}"))
}

/// A one-worker server whose first engine run, a `lower` sent on the
/// returned client, sleeps 300 ms: everything routed in that window either
/// queues behind it, joins a flight, or is answered inline.
fn pinned_server() -> (probterm_service::RunningServer, Client) {
    let server = Server::new(ServerConfig {
        workers: 1,
        inject: Some(InjectSpec::parse("seed=1;slow=@1:300").unwrap()),
        ..Default::default()
    });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut pin = Client::connect(running.addr);
    pin.send(&format!(r#"{{"id":"pin","op":"lower","program":"{GEO}","depth":40}}"#));
    std::thread::sleep(Duration::from_millis(50)); // the worker is mid-sleep
    (running, pin)
}

fn shut_down(running: probterm_service::RunningServer, pin: &mut Client) {
    let reply = pin.read_reply();
    assert!(is_ok(&reply), "{reply:?}");
    pin.send(r#"{"id":"bye","op":"shutdown"}"#);
    let _ = pin.read_reply();
    running.join().expect("clean shutdown");
}

/// An over-cap `verify` is refused before it can lead a flight, so a valid
/// `verify` of the same program right behind it runs on its own.
#[test]
fn an_over_cap_request_never_leads_a_flight() {
    let (running, mut pin) = pinned_server();
    let mut over = Client::connect(running.addr);
    over.send(&format!(r#"{{"id":1,"op":"verify","program":"{VERIFY}","depth":100000}}"#));
    std::thread::sleep(Duration::from_millis(50));
    let mut valid = Client::connect(running.addr);
    valid.send(&format!(r#"{{"id":2,"op":"verify","program":"{VERIFY}"}}"#));

    let refused = over.read_reply();
    assert_eq!(error_code(&refused), "bad_request", "{refused:?}");
    let reply = valid.read_reply();
    assert!(is_ok(&reply), "the valid request inherited the over-cap error: {reply:?}");
    assert_eq!(cache_tag(&reply), "miss");
    shut_down(running, &mut pin);
}

/// An over-cap `verify` is refused before it can join a valid in-flight run
/// of the same program: its key leaves depth out, but its caps still hold.
#[test]
fn an_over_cap_request_never_joins_a_flight() {
    let (running, mut pin) = pinned_server();
    let mut valid = Client::connect(running.addr);
    valid.send(&format!(r#"{{"id":1,"op":"verify","program":"{VERIFY}"}}"#));
    std::thread::sleep(Duration::from_millis(50));
    let mut over = Client::connect(running.addr);
    over.send(&format!(r#"{{"id":2,"op":"verify","program":"{VERIFY}","depth":100000}}"#));

    let refused = over.read_reply();
    assert_eq!(refused.get("cache"), None, "{refused:?}");
    assert_eq!(error_code(&refused), "bad_request", "{refused:?}");
    let reply = valid.read_reply();
    assert!(is_ok(&reply), "{reply:?}");
    shut_down(running, &mut pin);
}

/// A malformed line takes no queue slot: its `parse_error` is answered
/// inline, ahead of the pinned run queued before it on the same connection.
#[test]
fn malformed_lines_are_answered_ahead_of_queued_work() {
    let (running, mut pin) = pinned_server();
    pin.send("this is not json");
    let first = pin.read_reply();
    assert_eq!(error_code(&first), "parse_error", "{first:?}");
    shut_down(running, &mut pin);
}
