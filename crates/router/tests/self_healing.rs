//! Self-healing integration: supervisor respawn, the crash-loop
//! breaker, and journal resume — all in-process (shards are
//! `ServerHandle`s, "crashing" one means telling it to shut down so the
//! router's persistent connection sees EOF). The invariant under test
//! everywhere is the same fleet conservation law as the happy path:
//! `accepted == completed + errored + cancelled + deadline_exceeded`,
//! now required to hold *across* shard death and router resume.

use fmm_router::journal::{JobKey, Journal, Record};
use fmm_router::{replay, spec_hash, RouterConfig, RouterHandle, ShardSpawner, StartOptions};
use fmm_serve::proto::{Kind, Request, Response, Status};
use fmm_serve::server::{ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Child;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

fn start_shard(id: u64) -> ServerHandle {
    ServerHandle::start(ServerConfig {
        queue_depth: 16,
        workers: 2,
        shard_id: Some(id),
        ..ServerConfig::default()
    })
    .expect("start in-process shard")
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn send(&mut self, req: &Request) {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send line");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).expect("read reply") > 0,
            "connection closed mid-conversation"
        );
        Response::parse(line.trim_end()).expect("reply parses")
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }
}

fn bounds_job(id: &str, n: usize) -> Request {
    Request::new(id, Kind::Bounds)
        .with_param("n", &n.to_string())
        .with_param("m", "512")
        .with_param("seed", &n.to_string())
}

/// "Crash" an in-process shard: a direct shutdown closes its persistent
/// router connection, which is exactly what the router sees on SIGKILL.
fn crash_shard(addr: &str) {
    let mut c = Client::connect(addr);
    c.send(&Request::new("crash", Kind::Shutdown));
    // The shard may or may not get its ack out before exiting; either
    // way the router-facing connection drops.
    let mut line = String::new();
    let _ = c.reader.read_line(&mut line);
}

/// Poll `fleet-stats` until `pred` holds (or a deadline expires).
fn wait_for_stats(
    client: &mut Client,
    what: &str,
    pred: impl Fn(&std::collections::BTreeMap<String, String>) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u32;
    loop {
        let resp = client.roundtrip(&Request::new(&format!("fs{i}"), Kind::FleetStats));
        assert_eq!(resp.status, Status::Ok, "fleet-stats failed: {resp:?}");
        if pred(&resp.result) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {:?}",
            resp.result
        );
        i += 1;
        thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn supervisor_respawns_then_breaker_quarantines() {
    // One shard, supervised: the spawner replaces it with a fresh
    // in-process server at the same ring index. Handles are parked in a
    // vec so crashed servers' threads can finish in peace.
    let handles: Arc<Mutex<Vec<ServerHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let current_addr: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let first = start_shard(0);
    *current_addr.lock().unwrap() = first.addr().to_string();
    let shard0_addr = first.addr().to_string();
    handles.lock().unwrap().push(first);

    let spawner: ShardSpawner = {
        let handles = Arc::clone(&handles);
        let current_addr = Arc::clone(&current_addr);
        Arc::new(
            move |_idx: usize| -> Result<(String, Option<Child>), String> {
                let h = start_shard(0);
                let addr = h.addr().to_string();
                *current_addr.lock().unwrap() = addr.clone();
                handles.lock().unwrap().push(h);
                Ok((addr, None))
            },
        )
    };

    let router = RouterHandle::start_with(
        RouterConfig {
            shard_addrs: vec![shard0_addr],
            seed: 21,
            poll_ms: 25,
            supervise: true,
            breaker_k: 3,
            breaker_window_ms: 60_000,
            ..RouterConfig::default()
        },
        StartOptions {
            procs: vec![None],
            spawner: Some(spawner),
            ..StartOptions::default()
        },
    )
    .expect("start supervised router");
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr);

    let resp = client.roundtrip(&bounds_job("before", 64));
    assert_eq!(resp.status, Status::Completed, "reason: {}", resp.reason);

    // Crash #1 and #2: the supervisor respawns each time, the shard
    // comes back healthy at the same index, and jobs flow again.
    for round in 1..=2u32 {
        crash_shard(&current_addr.lock().unwrap().clone());
        wait_for_stats(&mut client, "respawn", |m| {
            m.get("shard0_state").map(String::as_str) == Some("healthy")
                && m.get("restarts").map(String::as_str) == Some(&round.to_string() as &str)
        });
        let resp = client.roundtrip(&bounds_job(&format!("after{round}"), 64 + round as usize));
        assert_eq!(
            resp.status,
            Status::Completed,
            "respawned shard must serve; reason: {}",
            resp.reason
        );
    }

    // Crash #3 inside the window: three crashes trip the breaker — the
    // shard is quarantined, not respawned again.
    crash_shard(&current_addr.lock().unwrap().clone());
    wait_for_stats(&mut client, "breaker", |m| {
        m.get("shard0_state").map(String::as_str) == Some("quarantined")
            && m.get("breaker_open").map(String::as_str) == Some("1")
    });

    // With the only shard quarantined, admission sheds — never loses.
    let resp = client.roundtrip(&bounds_job("doomed", 99));
    assert_eq!(resp.status, Status::Shed, "reply: {resp:?}");

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(snap.restarts, 2);
    assert_eq!(snap.breaker_open, 1);
    assert_eq!(snap.ledger.completed, 3);
    assert_eq!(snap.ledger.shed, 1);
}

#[test]
fn journal_resume_rebuilds_ledger_reattaches_and_replays_status() {
    let shard = start_shard(0);
    let shard_addr = shard.addr().to_string();

    let dir = std::env::temp_dir().join(format!("fmm-selfheal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("journal.jsonl");
    let path = path.to_str().expect("utf8 path").to_string();

    // Hand-write the journal a SIGKILLed router would have left behind:
    // one job fully settled, one admitted but unsettled (a slow io job
    // so the resumed dispatch is still in flight when its client
    // reattaches).
    let req1 = bounds_job("r1", 64).with_param("client_tag", "lg-c1");
    let k1: JobKey = (
        spec_hash(Kind::Bounds, &req1.params),
        "64".to_string(),
        "lg-c1:r1".to_string(),
    );
    let req2 = Request::new("r2", Kind::Io)
        .with_param("sleep_ms", "400")
        .with_param("seed", "7")
        .with_param("client_tag", "lg-c1");
    let k2: JobKey = (
        spec_hash(Kind::Io, &req2.params),
        "7".to_string(),
        "lg-c1:r2".to_string(),
    );
    {
        let j =
            Journal::create(&path, 5, std::slice::from_ref(&shard_addr)).expect("create journal");
        j.append(&Record::Admit {
            key: k1.clone(),
            trace_id: 0x11,
            shard: 0,
            req_line: req1.to_line(),
        });
        j.append(&Record::Settle {
            key: k1,
            status: Status::Completed,
            reason: String::new(),
        });
        j.append(&Record::Admit {
            key: k2.clone(),
            trace_id: 0x22,
            shard: 0,
            req_line: req2.to_line(),
        });
        j.sync();
    }

    let (contents, journal) = Journal::reopen(&path).expect("reopen journal");
    assert!(contents.torn.is_none(), "clean journal has no torn tail");
    let header = contents.header;
    assert_eq!(header.seed, 5);
    assert_eq!(header.shard_addrs, vec![shard_addr.clone()]);
    let rep = replay(&contents.records);
    assert_eq!(rep.replayed, 3);
    assert_eq!(rep.ledger.accepted, 2);
    assert_eq!(rep.ledger.completed, 1);
    assert_eq!(rep.inflight.len(), 1, "one unsettled admit");

    let router = RouterHandle::start_with(
        RouterConfig {
            shard_addrs: header.shard_addrs,
            seed: header.seed,
            ..RouterConfig::default()
        },
        StartOptions {
            procs: vec![None],
            spawner: None,
            journal: Some(journal),
            resume: Some(rep),
        },
    )
    .expect("resume router");
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr);

    // The reconnecting client re-sends its unsettled request under the
    // same client_tag: it reattaches to the resumed in-flight job (or,
    // if the dispatch already settled, gets the status replayed) and
    // settles exactly once with the job's real terminal status.
    let resp2 = client.roundtrip(&req2);
    assert_eq!(resp2.status, Status::Completed, "reason: {}", resp2.reason);
    assert_eq!(resp2.id, "r2");

    // The already-settled job's re-send is answered straight from the
    // journal-rebuilt settled table — marked as a replay, no re-run.
    let resp1 = client.roundtrip(&req1);
    assert_eq!(resp1.status, Status::Completed, "reason: {}", resp1.reason);
    assert_eq!(
        resp1.result.get("replayed").map(String::as_str),
        Some("journal"),
        "settled journal job must replay, not re-run: {resp1:?}"
    );

    // A job first seen after the resume is journaled like any other.
    let req3 = bounds_job("r3", 32).with_param("client_tag", "lg-c1");
    let k3: JobKey = (
        spec_hash(Kind::Bounds, &req3.params),
        "32".to_string(),
        "lg-c1:r3".to_string(),
    );
    let resp3 = client.roundtrip(&req3);
    assert_eq!(resp3.status, Status::Completed, "reason: {}", resp3.reason);

    wait_for_stats(&mut client, "resume counters", |m| {
        m.get("journal_replayed").map(String::as_str) == Some("3")
            && m.get("resumed_inflight").map(String::as_str) == Some("1")
    });

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(
        snap.ledger.accepted, 3,
        "1 replayed settled + 1 resumed in-flight + 1 new"
    );
    assert_eq!(snap.ledger.completed, 3);
    assert_eq!(snap.journal_replayed, 3);
    assert_eq!(snap.resumed_inflight, 1);
    assert_eq!(snap.dup_suppressed, 2, "both re-sends were suppressed");

    // The resumed router kept appending to the journal it replayed: the
    // resumed job's settle and the new job's admit and settle are there,
    // so a second resume finds nothing left to re-dispatch.
    let (again, _) = Journal::reopen(&path).expect("reopen after the resumed run");
    assert!(again.torn.is_none(), "a drained journal has no torn tail");
    let new = &again.records[3..];
    let settled = |k: &JobKey| {
        new.iter()
            .any(|r| matches!(r, Record::Settle { key, status: Status::Completed, .. } if key == k))
    };
    assert!(settled(&k2), "resumed job's settle journaled: {new:?}");
    assert!(
        new.iter()
            .any(|r| matches!(r, Record::Admit { key, .. } if *key == k3)),
        "new job's admit journaled: {new:?}"
    );
    assert!(settled(&k3), "new job's settle journaled: {new:?}");
    let rep2 = replay(&again.records);
    assert!(
        rep2.inflight.is_empty(),
        "second resume re-dispatches nothing"
    );
    assert_eq!(rep2.ledger.accepted, 3);
    assert_eq!(rep2.ledger.completed, 3);
    shard.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
