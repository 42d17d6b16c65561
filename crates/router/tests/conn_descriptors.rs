//! A closed client connection must give back its descriptor, at a shard
//! and at the router alike. A fleet router opens a fresh health-probe
//! connection to every shard each probe interval, so a long-lived shard
//! that kept one descriptor per connection it ever accepted would
//! eventually hit its descriptor limit and stop accepting.
//!
//! The test counts this process's open descriptors, so it lives alone in
//! its own test binary: no concurrently running test can open or close
//! descriptors under it.

#![cfg(target_os = "linux")]

use fmm_router::{RouterConfig, RouterHandle};
use fmm_serve::proto::{Kind, Request};
use fmm_serve::server::{ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Child;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 200;
/// Descriptors a settled process may hold above its baseline: an
/// in-flight router probe holds two.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// One connection: a `health` round trip, then close.
fn health(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{}", Request::new("h", Kind::Health).to_line()).expect("send");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("read reply");
    assert!(line.contains("\"ok\""), "health reply: {line}");
}

/// Open and close [`CONNECTIONS`] connections to `addr`, then wait for the
/// descriptor count to settle back near where it started.
fn churn_and_settle(what: &str, addr: SocketAddr) {
    health(addr);
    let baseline = open_fds();
    for _ in 0..CONNECTIONS {
        health(addr);
    }
    // Reader threads see EOF asynchronously; give them time to exit.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > baseline + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let settled = open_fds();
    assert!(
        settled <= baseline + SLACK,
        "{what}: {settled} descriptors open after {CONNECTIONS} closed connections \
         (baseline {baseline})"
    );
}

#[test]
fn closed_connections_release_their_descriptors() {
    let shard = ServerHandle::start(ServerConfig::default()).expect("start shard");
    let router = RouterHandle::start(
        RouterConfig {
            shard_addrs: vec![shard.addr().to_string()],
            ..RouterConfig::default()
        },
        vec![None::<Child>],
    )
    .expect("start router");

    churn_and_settle("shard", shard.addr());
    churn_and_settle("router", router.addr());

    router.shutdown_and_wait();
}
