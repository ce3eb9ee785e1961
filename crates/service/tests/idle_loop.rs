//! An idle serve loop burns no CPU: with 200 open but silent connections
//! the event-loop thread sleeps in `poll(2)` instead of pacing itself with
//! yields and timed sleeps, and a `shutdown` still wakes it at once.

use probterm_service::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU time, in clock ticks, of this process's threads
/// named `comm`, from `/proc/self/task/*/stat` (fields 14 and 15 of
/// `proc(5)`).
fn cpu_ticks_of_threads(comm: &str) -> u64 {
    let mut ticks = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let path = task.expect("read a task entry").path();
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else { continue };
        // `pid (comm) state ...`: the name may hold spaces, the rest follows
        // its closing parenthesis.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else { continue };
        if &stat[open + 1..close] != comm {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // `fields[0]` is field 3 (state), so utime and stime are 11 and 12.
        let field = |i: usize| fields[i].parse::<u64>().expect("a tick count");
        ticks += field(11) + field(12);
    }
    ticks
}

#[test]
fn an_idle_loop_with_200_connections_burns_no_cpu() {
    let server = Server::new(ServerConfig { workers: 1, ..Default::default() });
    let running = server.spawn_tcp("127.0.0.1:0").expect("bind loopback");
    let mut conns: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(running.addr).expect("connect an idle client"))
        .collect();
    // A reply on the last connection means the loop has accepted all 200.
    let last = conns.last_mut().expect("200 connections");
    last.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    last.write_all(b"{\"id\":1,\"op\":\"stats\"}\n").expect("send stats");
    let mut reply = String::new();
    BufReader::new(&*last).read_line(&mut reply).expect("read stats reply");
    assert!(reply.contains("\"ok\":true"), "stats reply: {reply}");

    // SAFETY: `sysconf` only reads a configuration value.
    let ticks_per_second = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let window = Duration::from_secs(2);
    let before = cpu_ticks_of_threads("probterm-accept");
    thread::sleep(window);
    let burned = (cpu_ticks_of_threads("probterm-accept") - before) as f64 / ticks_per_second;
    let share = burned / window.as_secs_f64();
    assert!(
        share < 0.01,
        "the idle loop burned {:.1} % of a core with 200 open connections",
        share * 100.0
    );

    // Every connection stays open, so only the shutdown wake-up can end the
    // loop's `poll`.
    let control = &mut conns[0];
    control.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    control.write_all(b"{\"id\":2,\"op\":\"shutdown\"}\n").expect("send shutdown");
    let mut reply = String::new();
    BufReader::new(&*control).read_line(&mut reply).expect("read shutdown reply");
    assert!(reply.contains("\"ok\":true"), "shutdown reply: {reply}");
    let (done, joined) = mpsc::channel();
    thread::spawn(move || done.send(running.join()));
    joined
        .recv_timeout(Duration::from_secs(5))
        .expect("the loop exits within 5 s of the shutdown reply")
        .expect("the server drains cleanly");
    drop(conns);
}
