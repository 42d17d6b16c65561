//! In-process fleet integration: a router over real `fmm-serve` shard
//! handles (no child processes), plus adversarial fake shards feeding
//! the router malformed replies. Every test closes over the fleet
//! conservation law: `accepted == completed + errored + cancelled +
//! deadline_exceeded`, with shed/rejected strictly pre-admission.

use fmm_faults::LinkChaosSpec;
use fmm_router::ring::{spec_hash, Ring};
use fmm_router::{RouterConfig, RouterHandle};
use fmm_serve::proto::{Kind, Request, Response, Status};
use fmm_serve::server::{ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Child;
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

fn start_fleet(shards: usize, seed: u64) -> (Vec<ServerHandle>, RouterHandle) {
    let handles: Vec<ServerHandle> = (0..shards).map(|i| start_shard(i as u64)).collect();
    let cfg = RouterConfig {
        shard_addrs: handles.iter().map(|h| h.addr().to_string()).collect(),
        seed,
        ..RouterConfig::default()
    };
    let procs: Vec<Option<Child>> = (0..shards).map(|_| None).collect();
    let router = RouterHandle::start(cfg, procs).expect("start router");
    (handles, router)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to router");
        let reader = BufReader::new(writer.try_clone().expect("clone client stream"));
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
            "router closed the connection mid-conversation"
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

#[test]
fn distinct_specs_route_sticky_and_settle() {
    let (shards, router) = start_fleet(2, 11);
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr);

    let mut shard_of: BTreeMap<usize, String> = BTreeMap::new();
    for i in 0..12 {
        let resp = client.roundtrip(&bounds_job(&format!("j{i}"), 64 + i));
        assert_eq!(resp.status, Status::Completed, "reason: {}", resp.reason);
        assert_eq!(resp.id, format!("j{i}"), "reply must echo the client id");
        assert_eq!(resp.result.get("attempts").map(String::as_str), Some("1"));
        shard_of.insert(i, resp.result.get("shard").expect("shard tag").clone());
    }
    // The ring actually splits work: with 12 distinct specs over 2
    // shards, both must have seen at least one job.
    let distinct: std::collections::BTreeSet<&String> = shard_of.values().collect();
    assert_eq!(distinct.len(), 2, "both shards should receive work");

    // Same spec again (fresh id, so no idempotency dedup) lands on the
    // same shard: routing is a pure function of the spec hash.
    for i in 0..12 {
        let resp = client.roundtrip(&bounds_job(&format!("again{i}"), 64 + i));
        assert_eq!(resp.status, Status::Completed);
        assert_eq!(resp.result.get("shard"), shard_of.get(&i));
    }

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(snap.ledger.accepted, 24);
    assert_eq!(snap.ledger.completed, 24);
    assert_eq!(snap.redispatched, 0);
    for shard in shards {
        assert!(shard.wait().balanced(), "shard conservation law");
    }
}

#[test]
fn duplicate_in_flight_spec_is_suppressed() {
    let (shards, router) = start_fleet(2, 3);
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr);

    let req = bounds_job("dup", 128);
    let first = client.roundtrip(&req);
    assert_eq!(first.status, Status::Completed);

    // Same (spec hash, seed, client tag): recently settled, so the
    // retransmit is refused instead of re-run.
    let second = client.roundtrip(&req);
    assert_eq!(second.status, Status::Error);
    assert!(
        second.reason.starts_with("rejected:") && second.reason.contains("duplicate"),
        "unexpected reason: {}",
        second.reason
    );

    // A different client tag for the same spec is a fresh job.
    let third = client.roundtrip(&bounds_job("dup2", 128));
    assert_eq!(third.status, Status::Completed);
    assert_eq!(third.result.get("shard"), first.result.get("shard"));

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced());
    assert_eq!(snap.ledger.accepted, 2);
    assert_eq!(snap.dup_suppressed, 1);
    assert_eq!(snap.ledger.rejected, 1);
    for shard in shards {
        shard.wait();
    }
}

#[test]
fn drain_shard_conserves_inflight_jobs() {
    let (shards, router) = start_fleet(2, 5);
    let addr = router.addr().to_string();
    let mut jobs = Client::connect(&addr);

    // Six slow jobs pipelined so some are still in flight when the
    // drain lands. Distinct seeds keep the idempotency keys distinct.
    for i in 0..6 {
        jobs.send(
            &Request::new(&format!("slow{i}"), Kind::Io)
                .with_param("sleep_ms", "150")
                .with_param("seed", &i.to_string()),
        );
    }
    thread::sleep(Duration::from_millis(30));

    let mut control = Client::connect(&addr);
    let drained =
        control.roundtrip(&Request::new("drain0", Kind::DrainShard).with_param("shard", "0"));
    // The in-process shard acks its drain with its own balanced
    // counters; either way no job may be lost.
    assert!(
        drained.status == Status::Ok || drained.status == Status::Error,
        "drain reply: {drained:?}"
    );

    let mut statuses = Vec::new();
    for _ in 0..6 {
        let resp = jobs.recv();
        assert!(
            resp.is_terminal_job_reply(),
            "every admitted job must settle terminally: {resp:?}"
        );
        statuses.push(resp.status);
    }

    // Post-drain the fleet still serves: shard 0 is gone, shard 1 takes
    // everything.
    let after = control.roundtrip(&bounds_job("after", 256));
    assert_eq!(after.status, Status::Completed);

    let stats = control.roundtrip(&Request::new("fs", Kind::FleetStats));
    assert_eq!(stats.status, Status::Ok);
    assert_eq!(
        stats.result.get("shard0_state").map(String::as_str),
        Some("dead")
    );

    drop(jobs);
    drop(control);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(snap.ledger.accepted, 7);
    for shard in shards {
        // Shard 0 already exited from the drain; wait() is idempotent
        // on an exited server and returns its final counters.
        assert!(shard.wait().balanced(), "shard conservation law");
    }
}

#[test]
fn graceful_drain_finishes_backlog_before_acknowledging_shutdown() {
    let (shards, router) = start_fleet(2, 7);
    let addr = router.addr().to_string();
    let mut jobs = Client::connect(&addr);
    // Fire-and-forget a backlog on one connection; distinct seeds keep
    // the idempotency keys distinct...
    for i in 0..4 {
        jobs.send(
            &Request::new(&format!("slow-{i}"), Kind::Io)
                .with_deadline(10_000)
                .with_param("sleep_ms", "50")
                .with_param("seed", &i.to_string()),
        );
    }
    // The conn thread handles lines in order, so a health ack proves
    // all four jobs were admitted before the shutdown below can race.
    assert_eq!(
        jobs.roundtrip(&Request::new("h", Kind::Health)).status,
        Status::Ok
    );
    // ...then ask a second connection to shut the fleet down.
    let mut ctl = Client::connect(&addr);
    let ack = ctl.roundtrip(&Request::new("bye", Kind::Shutdown));
    assert_eq!(ack.status, Status::Ok);
    // The ack carries the router's final counters, already balanced.
    assert_eq!(ack.result["accepted"], "4");
    assert_eq!(ack.result["completed"], "4");
    // The backlog's replies were written before the ack released the
    // accept loop to close sockets.
    for _ in 0..4 {
        assert_eq!(jobs.recv().status, Status::Completed);
    }
    let snap = router.wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(snap.ledger.completed, 4);
    for shard in shards {
        assert!(shard.wait().balanced(), "shard conservation law");
    }
}

/// A shard that answers every forwarded job with a storm of garbage —
/// non-JSON, an oversized line, an unknown status verb, a reply whose
/// envelope id is unparseable — before finally settling it properly.
/// The router must count the garbage and keep routing, never wedge.
fn garbage_shard(listener: TcpListener, max_line_bytes: usize) {
    thread::spawn(move || {
        // First connection is the router's persistent dispatch/reply pipe.
        let (conn, _) = listener.accept().expect("router connects");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        thread::spawn(move || {
            let mut writer = conn;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let req = match Request::parse(line.trim_end()) {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                let mut storm = String::new();
                storm.push_str("this is not json\n");
                storm.push_str(&"z".repeat(max_line_bytes + 16));
                storm.push('\n');
                storm.push_str(&format!("{{\"id\":\"{}\",\"status\":\"wat\"}}\n", req.id));
                storm.push_str("{\"id\":\"not-an-envelope\",\"status\":\"completed\"}\n");
                let mut done = Response::new(&req.id, Status::Completed);
                done.result.insert("io".into(), "0".into());
                storm.push_str(&done.to_line());
                storm.push('\n');
                if writer.write_all(storm.as_bytes()).is_err() {
                    return;
                }
            }
        });
        // Later connections are control roundtrips (health probes, the
        // shutdown at drain). Ack them so the router's drain isn't left
        // waiting on its 20s control timeout.
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            thread::spawn(move || {
                let mut reader = BufReader::new(conn.try_clone().expect("clone"));
                let mut writer = conn;
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let id = Request::parse(line.trim_end())
                    .map(|r| r.id)
                    .unwrap_or_default();
                let mut ack = Response::new(&id, Status::Ok);
                for k in [
                    "accepted",
                    "completed",
                    "errored",
                    "cancelled",
                    "deadline_exceeded",
                    "shed",
                    "rejected",
                ] {
                    ack.result.insert(k.to_string(), "0".to_string());
                }
                let _ = writer.write_all(format!("{}\n", ack.to_line()).as_bytes());
            });
        }
    });
}

#[test]
fn malformed_shard_replies_never_wedge_the_router() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let shard_addr = listener.local_addr().unwrap().to_string();
    let max_line_bytes = 8 * 1024;
    garbage_shard(listener, max_line_bytes);

    let router = RouterHandle::start(
        RouterConfig {
            shard_addrs: vec![shard_addr],
            seed: 9,
            max_line_bytes,
            // Keep the health poller quiet so the fake shard's reply
            // storm is the only traffic.
            poll_ms: 60_000,
            ..RouterConfig::default()
        },
        vec![None],
    )
    .expect("start router");

    let mut client = Client::connect(&router.addr().to_string());
    for i in 0..3 {
        let resp = client.roundtrip(&bounds_job(&format!("g{i}"), 300 + i));
        assert_eq!(
            resp.status,
            Status::Completed,
            "garbage must not cost the real reply: {resp:?}"
        );
    }

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(snap.ledger.completed, 3);
    // Per job: non-JSON line, oversized line, unknown status, bogus
    // envelope id — all counted, none fatal.
    assert!(
        snap.malformed_shard_replies >= 9,
        "expected the garbage to be counted: {snap:?}"
    );
}

#[test]
fn dead_fleet_sheds_instead_of_losing_jobs() {
    // A shard that accepts the router's persistent connection and
    // immediately hangs up: the reader sees EOF, the shard goes dead.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let shard_addr = listener.local_addr().unwrap().to_string();
    thread::spawn(move || {
        for conn in listener.incoming() {
            drop(conn);
        }
    });

    let router = RouterHandle::start(
        RouterConfig {
            shard_addrs: vec![shard_addr],
            seed: 2,
            poll_ms: 60_000,
            ..RouterConfig::default()
        },
        vec![None],
    )
    .expect("start router");

    let mut client = Client::connect(&router.addr().to_string());
    // Wait for the router to notice the hangup, then submit: the job is
    // either shed pre-dispatch (no live shards) or dispatched into the
    // dead connection and re-dispatched until the attempt budget turns
    // it into a shed — never silently dropped.
    thread::sleep(Duration::from_millis(50));
    let resp = client.roundtrip(&bounds_job("doomed", 77));
    assert_eq!(resp.status, Status::Shed, "reply: {resp:?}");

    let health = client.roundtrip(&Request::new("h", Kind::Health));
    assert_eq!(health.status, Status::Ok);
    assert_eq!(
        health.result.get("shards_live").map(String::as_str),
        Some("0")
    );

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced());
    assert_eq!(snap.ledger.accepted, 0, "shed jobs must roll accepted back");
    assert_eq!(snap.ledger.shed, 1);
    assert_eq!(snap.shards_dead, 1);
}

/// Pick an order `n` whose bounds-job spec routes to `want` on an
/// all-alive fleet of `shards` — lets a test aim a job at the shard it
/// has wrapped in link chaos.
fn bounds_n_routed_to(shards: usize, want: usize) -> usize {
    let ring = Ring::build(shards);
    let alive = vec![true; shards];
    for n in 64..512 {
        let mut params = BTreeMap::new();
        params.insert("n".to_string(), n.to_string());
        params.insert("m".to_string(), "512".to_string());
        params.insert("seed".to_string(), n.to_string());
        if ring.route(spec_hash(Kind::Bounds, &params), &alive) == Some(want) {
            return n;
        }
    }
    unreachable!("some order in 64..512 must land on shard {want}");
}

#[test]
fn hedge_wins_when_the_primary_link_is_delayed() {
    // Shard 0's reply link eats a 600ms delay; the job itself finishes
    // in microseconds. A 40ms hedge to shard 1 must win the race, tag
    // the reply `hedged=1`, and leave both conservation laws balanced.
    let shards: Vec<ServerHandle> = (0..2).map(|i| start_shard(i as u64)).collect();
    let n = bounds_n_routed_to(2, 0);
    let router = RouterHandle::start(
        RouterConfig {
            shard_addrs: shards.iter().map(|h| h.addr().to_string()).collect(),
            seed: 21,
            chaos_link: Some(LinkChaosSpec::parse("seed=21,delay-ms=600@shard0").unwrap()),
            hedge_ms: Some(40),
            poll_ms: 60_000,
            ..RouterConfig::default()
        },
        vec![None, None],
    )
    .expect("start router");

    let mut client = Client::connect(&router.addr().to_string());
    let t0 = Instant::now();
    let resp = client.roundtrip(&bounds_job("hedged", n));
    assert_eq!(resp.status, Status::Completed, "reason: {}", resp.reason);
    assert_eq!(
        resp.result.get("hedged").map(String::as_str),
        Some("1"),
        "the winning attempt must be marked as a hedge: {resp:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(550),
        "the hedge must beat the 600ms link delay, took {:?}",
        t0.elapsed()
    );

    // Give the delayed primary reply time to surface (it becomes a
    // dup-suppressed late reply, never a second settle).
    thread::sleep(Duration::from_millis(700));
    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert!(snap.hedges_balanced(), "hedge conservation law: {snap:?}");
    assert_eq!(snap.ledger.accepted, 1);
    assert_eq!(snap.ledger.completed, 1);
    assert_eq!(snap.hedges_launched, 1);
    assert_eq!(snap.hedges_won, 1);
    for shard in shards {
        assert!(shard.wait().balanced(), "shard conservation law");
    }
}

#[test]
fn hedge_loses_when_the_primary_answers_first() {
    // Clean links, a 150ms job, a 30ms hedge: the primary still answers
    // first, so the hedge is recorded as lost and its duplicate attempt
    // is cancelled on the other shard — exactly-once settle regardless.
    let shards: Vec<ServerHandle> = (0..2).map(|i| start_shard(i as u64)).collect();
    let router = RouterHandle::start(
        RouterConfig {
            shard_addrs: shards.iter().map(|h| h.addr().to_string()).collect(),
            seed: 22,
            hedge_ms: Some(30),
            poll_ms: 60_000,
            ..RouterConfig::default()
        },
        vec![None, None],
    )
    .expect("start router");

    let mut client = Client::connect(&router.addr().to_string());
    let resp = client.roundtrip(
        &Request::new("slowpoke", Kind::Io)
            .with_param("sleep_ms", "150")
            .with_param("seed", "1"),
    );
    assert_eq!(resp.status, Status::Completed, "reason: {}", resp.reason);
    assert_eq!(
        resp.result.get("hedged"),
        None,
        "a primary win must not be marked hedged: {resp:?}"
    );

    // Let the losing hedge's cancel (or its late terminal reply) land.
    thread::sleep(Duration::from_millis(400));
    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert!(snap.hedges_balanced(), "hedge conservation law: {snap:?}");
    assert_eq!(snap.ledger.accepted, 1);
    assert_eq!(snap.ledger.completed, 1);
    assert_eq!(snap.hedges_launched, 1);
    assert_eq!(snap.hedges_lost, 1);
    for shard in shards {
        shard.wait();
    }
}

#[test]
fn delayed_shard_is_ejected_then_readmitted() {
    // Three shards, one slow link: enough settles on either side of the
    // median must strike the slow shard out, and after probation a
    // clean probe must bring it back. Hedging stays off so every settle
    // latency is the genuine link-delayed one.
    let shards: Vec<ServerHandle> = (0..3).map(|i| start_shard(i as u64)).collect();
    let slow = 0usize;
    let router = RouterHandle::start(
        RouterConfig {
            shard_addrs: shards.iter().map(|h| h.addr().to_string()).collect(),
            seed: 23,
            chaos_link: Some(LinkChaosSpec::parse("seed=23,delay-ms=60@shard0").unwrap()),
            poll_ms: 25,
            eject_probation_ms: 250,
            ..RouterConfig::default()
        },
        vec![None, None, None],
    )
    .expect("start router");
    let addr = router.addr().to_string();

    // Closed-loop driver: distinct specs so work spreads over all three
    // shards, fresh seeds per round so dup-suppression never bites.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (ejections, readmissions, live_while_ejected) = thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let mut client = Client::connect(&addr);
            let mut round = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for i in 0..12 {
                    let id = format!("r{round}-{i}");
                    let resp = client.roundtrip(
                        &Request::new(&id, Kind::Bounds)
                            .with_param("n", &(64 + i).to_string())
                            .with_param("m", "512")
                            .with_param("seed", &format!("{round}:{i}")),
                    );
                    assert!(
                        resp.is_terminal_job_reply(),
                        "driver reply must settle: {resp:?}"
                    );
                }
                round += 1;
            }
        });

        let mut control = Client::connect(&addr);
        let fetch = |control: &mut Client, key: &str| -> u64 {
            let resp = control.roundtrip(&Request::new("fs", Kind::FleetStats));
            assert_eq!(resp.status, Status::Ok, "fleet-stats: {resp:?}");
            resp.result
                .get(key)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while fetch(&mut control, "ejections") == 0 {
            assert!(
                Instant::now() < deadline,
                "shard {slow} was never ejected despite its 60ms link delay"
            );
            thread::sleep(Duration::from_millis(25));
        }
        // While a shard sits out its probation, `health` and `fleet-stats`
        // must agree on how many shards are live (routable). Sandwich the
        // health probe between two fleet-stats replies with identical
        // shard states so a concurrent state change cannot blur it. The
        // verdict is asserted after the driver stops, so a failure cannot
        // leave the scoped driver thread spinning.
        let states = |r: &Response| -> Vec<(String, String)> {
            r.result
                .iter()
                .filter(|(k, _)| k.ends_with("_state"))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let mut live_while_ejected = None;
        while live_while_ejected.is_none() && Instant::now() < deadline {
            let before = control.roundtrip(&Request::new("fs1", Kind::FleetStats));
            let health = control.roundtrip(&Request::new("h", Kind::Health));
            let after = control.roundtrip(&Request::new("fs2", Kind::FleetStats));
            let ejected = states(&before).iter().any(|(_, v)| v == "ejected");
            if ejected && states(&before) == states(&after) {
                live_while_ejected = Some((
                    health.result.get("shards_live").cloned(),
                    before.result.get("shards_live").cloned(),
                ));
            }
        }
        // Stop the load so the slow shard goes quiet; probation plus a
        // clean probe must re-admit it.
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        driver.join().expect("driver thread");
        while fetch(&mut control, "readmissions") == 0 {
            assert!(
                Instant::now() < deadline,
                "ejected shard was never re-admitted after probation"
            );
            thread::sleep(Duration::from_millis(25));
        }
        (
            fetch(&mut control, "ejections"),
            fetch(&mut control, "readmissions"),
            live_while_ejected,
        )
    });
    assert!(ejections >= 1 && readmissions >= 1);
    let (health_live, stats_live) =
        live_while_ejected.expect("never observed a stable ejected state");
    assert_eq!(
        health_live, stats_live,
        "health and fleet-stats disagree on shards_live while a shard is ejected"
    );

    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert!(snap.hedges_balanced(), "hedge conservation law: {snap:?}");
    assert!(snap.ejections >= 1, "{snap:?}");
    assert!(snap.readmissions >= 1, "{snap:?}");
    for shard in shards {
        assert!(shard.wait().balanced(), "shard conservation law");
    }
}

/// Kernel jobs ride the same spec-hash ring as the simulators: the same
/// (alg, n, cutoff, dtype) cell always lands on the same shard, fresh
/// ids notwithstanding, and the fleet conservation law still balances
/// around real flop-burning work.
#[test]
fn kernel_jobs_route_sticky_by_spec_hash() {
    let (shards, router) = start_fleet(2, 13);
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr);

    let kernel_job = |id: &str, n: usize, cutoff: usize| {
        Request::new(id, Kind::Kernel)
            .with_deadline(120_000)
            .with_param("alg", "strassen")
            .with_param("n", &n.to_string())
            .with_param("cutoff", &cutoff.to_string())
            .with_param("seed", &n.to_string())
            .with_param("dtype", "i64")
    };

    let mut shard_of: BTreeMap<usize, String> = BTreeMap::new();
    for i in 0..8 {
        let resp = client.roundtrip(&kernel_job(&format!("k{i}"), 16 + 4 * i, 8));
        assert_eq!(resp.status, Status::Completed, "reason: {}", resp.reason);
        assert!(resp.result["checksum"].parse::<i64>().is_ok());
        shard_of.insert(i, resp.result.get("shard").expect("shard tag").clone());
    }
    let distinct: std::collections::BTreeSet<&String> = shard_of.values().collect();
    assert_eq!(
        distinct.len(),
        2,
        "8 distinct cells should split across both shards"
    );

    for i in 0..8 {
        let resp = client.roundtrip(&kernel_job(&format!("re{i}"), 16 + 4 * i, 8));
        assert_eq!(resp.status, Status::Completed);
        assert_eq!(
            resp.result.get("shard"),
            shard_of.get(&i),
            "cell {i} moved shards between runs"
        );
    }

    drop(client);
    let snap = router.shutdown_and_wait();
    assert!(snap.ledger.balanced(), "fleet conservation law: {snap:?}");
    assert_eq!(snap.ledger.accepted, 16);
    assert_eq!(snap.ledger.completed, 16);
    for shard in shards {
        assert!(shard.wait().balanced(), "shard conservation law");
    }
}

fn keys(resp: &Response) -> Vec<String> {
    resp.result.keys().cloned().collect()
}

fn sorted(list: &[String]) -> Vec<String> {
    let mut v = list.to_vec();
    v.sort();
    v
}

fn owned(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

const LEDGER_KEYS: [&str; 7] = [
    "accepted",
    "completed",
    "errored",
    "cancelled",
    "deadline_exceeded",
    "shed",
    "rejected",
];

#[test]
fn fleet_control_replies_carry_exactly_the_pinned_wire_keys() {
    let (shards, router) = start_fleet(3, 17);
    let mut client = Client::connect(&router.addr().to_string());
    assert_eq!(
        client.roundtrip(&bounds_job("j", 64)).status,
        Status::Completed
    );

    let health = client.roundtrip(&Request::new("h", Kind::Health));
    assert_eq!(health.status, Status::Ok);
    assert_eq!(
        keys(&health),
        sorted(&owned(&[
            "uptime_ms",
            "shards",
            "shards_live",
            "pending",
            "draining"
        ])),
        "router health keys"
    );

    let mut fixed = owned(&LEDGER_KEYS);
    fixed.extend(owned(&[
        "redispatched",
        "dup_suppressed",
        "shards_killed",
        "malformed_shard_replies",
        "restarts",
        "breaker_open",
        "journal_replayed",
        "resumed_inflight",
        "ejections",
        "readmissions",
        "hedges_launched",
        "hedges_won",
        "hedges_lost",
        "hedges_cancelled",
        "retry_budget_exhausted",
        "retry_spent",
        "shards",
        "shards_live",
        "shards_dead",
        "shards_quarantined",
        "shards_ejected",
    ]));
    fixed.extend((0..3).map(|i| format!("shard{i}_state")));
    for verb in [Kind::FleetStats, Kind::Stats] {
        let stats = client.roundtrip(&Request::new("fs", verb));
        assert_eq!(stats.status, Status::Ok);
        assert_eq!(keys(&stats), sorted(&fixed), "{} keys", verb.as_str());
    }

    let ack = client.roundtrip(&Request::new("stop", Kind::Shutdown));
    assert_eq!(ack.status, Status::Ok);
    assert_eq!(
        keys(&ack),
        sorted(&owned(&LEDGER_KEYS)),
        "router shutdown ack keys"
    );
    drop(client);
    router.wait();
    for shard in shards {
        shard.wait();
    }
}
