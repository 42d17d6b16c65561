//! Seeded chaos load generator — the client half of the acceptance
//! story. Opens N connections, drives M closed-loop requests each from a
//! splitmix64-seeded mix of cheap / expensive / poison / oversized /
//! tiny-deadline work, and tallies every reply. The cardinal check is
//! `lost == 0`: each request sent got exactly one reply — accepted jobs
//! reached a terminal status, shed and rejected requests were refused
//! explicitly, nothing vanished.
//!
//! The optional **burst phase** makes shedding deterministic: `pause`
//! holds the workers, a blast of B cheap jobs then admits exactly
//! `queue_depth` and sheds `B - queue_depth` regardless of scheduling,
//! and `resume` lets the admitted backlog drain. For a fixed seed and
//! server config the whole run's shed count is reproducible.

use crate::ledger::StatsSnapshot;
use crate::proto::{write_line, Kind, Request, Response, Status};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What to throw at the server.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// `host:port` of a running server.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Closed-loop requests per connection.
    pub requests: usize,
    /// Root seed for the request mix.
    pub seed: u64,
    /// Percent of requests that are poison (Strassen at n=24 — panics
    /// inside the simulator; the worker must survive).
    pub poison_pct: u64,
    /// Percent that are oversized lines (rejected before parsing).
    pub oversized_pct: u64,
    /// Percent that carry a 1 ms deadline on slow work (deterministic
    /// `deadline-exceeded`).
    pub tiny_deadline_pct: u64,
    /// Percent that are genuinely expensive simulator runs.
    pub expensive_pct: u64,
    /// Deadline attached to ordinary jobs.
    pub deadline_ms: u64,
    /// Byte length of the oversized request line's padding.
    pub oversized_bytes: usize,
    /// After the chaos phase: pause → blast this many → resume.
    pub burst: Option<usize>,
    /// After everything: send `shutdown` and record the server's final
    /// counters.
    pub shutdown: bool,
    /// Drive a `fastmm fleet` router rather than a single server. The
    /// wire protocol is identical; the flag gates fleet-only chaos
    /// (`kill_shard_after`) and documents intent in the CLI.
    pub fleet: bool,
    /// Fleet chaos: once this many requests have been sent (summed over
    /// all connections), send one `kill-shard` verb — the router
    /// SIGKILLs a seeded-chosen shard mid-run and must re-dispatch its
    /// orphans so the run still loses nothing.
    pub kill_shard_after: Option<usize>,
    /// Bounded reconnect budget per connection when the server vanishes
    /// mid-run (seeded exponential backoff between attempts, unsettled
    /// requests re-sent under the same id + `client_tag`). `0` keeps
    /// the old behaviour: a dropped connection fails the run.
    pub reconnect: u32,
    /// Fleet chaos: once this many requests have been sent, send one
    /// `kill-router` verb — the router SIGKILLs *itself*, the harness
    /// resumes it from its journal, and the reconnecting workers must
    /// still settle every request exactly once.
    pub kill_router_after: Option<usize>,
    /// Gray-failure chaos: once this many requests have been sent, send
    /// one `stall-shard` verb — the router freezes a seeded-chosen
    /// shard's reply link for its configured stall window. The shard
    /// stays alive (probes pass), so only the latency-outlier detector
    /// and hedging can route around it. Requires a fleet started with
    /// `--chaos-link`.
    pub stall_shard_after: Option<usize>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: String::new(),
            conns: 4,
            requests: 250,
            seed: 1,
            poison_pct: 10,
            oversized_pct: 5,
            tiny_deadline_pct: 5,
            expensive_pct: 10,
            deadline_ms: 10_000,
            oversized_bytes: 70_000,
            burst: None,
            shutdown: false,
            fleet: false,
            kill_shard_after: None,
            reconnect: 0,
            kill_router_after: None,
            stall_shard_after: None,
        }
    }
}

/// Reply tallies across all phases.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub sent: u64,
    pub completed: u64,
    pub shed: u64,
    pub errored: u64,
    pub cancelled: u64,
    pub deadline_exceeded: u64,
    pub rejected: u64,
    /// Requests that never got a reply (must be 0).
    pub lost: u64,
    /// Replies whose id did not match the request (must be 0).
    pub mismatched: u64,
    /// Shed replies within the burst phase alone (deterministic:
    /// `burst - queue_depth` for a paused server).
    pub burst_shed: u64,
    /// Acknowledged `kill-shard` verbs (deterministic: 1 when
    /// `kill_shard_after` was set, else 0).
    pub killed: u64,
    /// Delivered `kill-router` verbs (deterministic: 1 when
    /// `kill_router_after` was set, else 0). "Delivered" because the
    /// verb is never acknowledged — the router dies instead; the hangup
    /// is the confirmation.
    pub router_killed: u64,
    /// Acknowledged `stall-shard` verbs (deterministic: 1 when
    /// `stall_shard_after` was set, else 0).
    pub stalled: u64,
    /// Requests re-sent after a reconnect. Timing-dependent (how many
    /// were in flight when the connection died), so excluded from the
    /// equality contract and the JSON line; reported on stderr.
    pub resent: u64,
    /// Replies whose winning attempt was a hedge (the router marks them
    /// `hedged=1`). Timing-dependent — whether the hedge or the primary
    /// wins the race varies run to run — so in the JSON line for
    /// operators but excluded from the equality contract, like `resent`.
    pub hedged: u64,
    /// The fleet's `ejections` counter at shutdown (0 for a single
    /// server). Timing-dependent: excluded from the equality contract.
    pub ejected_observed: u64,
    /// The fleet's `retry_budget_exhausted` counter at shutdown.
    /// Timing-dependent: excluded from the equality contract.
    pub retry_budget_exhausted: u64,
    /// Client-observed request latency (µs), send to settle. Wall-clock,
    /// so excluded from the equality contract and the JSON line;
    /// reported on stderr so hedged and unhedged runs can be compared.
    pub latency: fmm_obs::Histogram,
    /// The server's own final counters from the shutdown ack, when
    /// `shutdown` was requested.
    pub server_counters: BTreeMap<String, String>,
    /// `trace_id` of every *completed* reply, sorted. These root the
    /// span trees a `FMM_OBS=full` server records (`report --traces`).
    pub trace_ids: Vec<String>,
}

/// Equality ignores `trace_ids`: which trace id lands on which terminal
/// status depends on worker scheduling, so trace ids are excluded from
/// the same-seed reproducibility contract (and from the JSON line).
/// `resent`, `hedged`, `ejected_observed`, `retry_budget_exhausted`, and
/// `latency` are likewise timing-dependent and excluded from equality.
/// The three gray-failure counters do appear in the JSON line (operators
/// want them even when two same-seed runs disagree on the exact counts;
/// same-seed diffs must strip them first), while `resent` and the
/// latency histogram stay on stderr.
impl PartialEq for Summary {
    fn eq(&self, other: &Summary) -> bool {
        self.sent == other.sent
            && self.completed == other.completed
            && self.shed == other.shed
            && self.errored == other.errored
            && self.cancelled == other.cancelled
            && self.deadline_exceeded == other.deadline_exceeded
            && self.rejected == other.rejected
            && self.lost == other.lost
            && self.mismatched == other.mismatched
            && self.burst_shed == other.burst_shed
            && self.killed == other.killed
            && self.router_killed == other.router_killed
            && self.stalled == other.stalled
            && self.server_counters == other.server_counters
    }
}

impl Eq for Summary {}

impl Summary {
    fn absorb(&mut self, other: &Summary) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.shed += other.shed;
        self.errored += other.errored;
        self.cancelled += other.cancelled;
        self.deadline_exceeded += other.deadline_exceeded;
        self.rejected += other.rejected;
        self.lost += other.lost;
        self.mismatched += other.mismatched;
        self.burst_shed += other.burst_shed;
        self.killed += other.killed;
        self.router_killed += other.router_killed;
        self.stalled += other.stalled;
        self.resent += other.resent;
        self.hedged += other.hedged;
        self.ejected_observed += other.ejected_observed;
        self.retry_budget_exhausted += other.retry_budget_exhausted;
        self.latency.merge(&other.latency);
        self.trace_ids.extend(other.trace_ids.iter().cloned());
        self.trace_ids.sort();
    }

    fn classify(&mut self, expected_id: &str, resp: &Response) {
        if resp.id != expected_id && !(resp.status == Status::Error && resp.id.is_empty()) {
            self.mismatched += 1;
        }
        if resp.status == Status::Completed {
            if let Some(trace) = resp.result.get("trace_id") {
                self.trace_ids.push(trace.clone());
            }
        }
        if resp.result.get("hedged").map(String::as_str) == Some("1") {
            self.hedged += 1;
        }
        match resp.status {
            Status::Completed => self.completed += 1,
            Status::Shed => self.shed += 1,
            Status::Cancelled => self.cancelled += 1,
            Status::DeadlineExceeded => self.deadline_exceeded += 1,
            Status::Error => {
                if resp.reason.starts_with("rejected:") {
                    self.rejected += 1;
                } else {
                    self.errored += 1;
                }
            }
            Status::Ok => {}
        }
    }

    /// Did the run uphold the no-lost-jobs contract?
    pub fn ok(&self) -> bool {
        let replies = self.completed
            + self.shed
            + self.errored
            + self.cancelled
            + self.deadline_exceeded
            + self.rejected;
        // No shutdown ack requested — nothing to cross-check.
        let balanced = self.server_counters.is_empty()
            || StatsSnapshot::from_map(&self.server_counters).is_some_and(|s| s.balanced());
        self.lost == 0 && self.mismatched == 0 && replies == self.sent && balanced
    }

    /// One flat JSON line (the loadgen's stdout contract).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"sent\":{},\"completed\":{},\"shed\":{},\"errored\":{},\"cancelled\":{},\
             \"deadline_exceeded\":{},\"rejected\":{},\"lost\":{},\"mismatched\":{},\
             \"burst_shed\":{},\"killed\":{},\"router_killed\":{},\"stalled\":{},\
             \"hedged\":{},\"ejected_observed\":{},\"retry_budget_exhausted\":{},\"ok\":{}",
            self.sent,
            self.completed,
            self.shed,
            self.errored,
            self.cancelled,
            self.deadline_exceeded,
            self.rejected,
            self.lost,
            self.mismatched,
            self.burst_shed,
            self.killed,
            self.router_killed,
            self.stalled,
            self.hedged,
            self.ejected_observed,
            self.retry_budget_exhausted,
            // 1/0 rather than true/false: stays inside the value shapes
            // fmm_obs::json::parse_line understands.
            u64::from(self.ok())
        );
        if !self.server_counters.is_empty() {
            out.push_str(",\"server\":");
            let counters = self.server_counters.iter();
            fmm_obs::json::flat_object_into(&mut out, counters.map(|(k, v)| (&**k, &**v)));
        }
        out.push('}');
        out
    }
}

/// The seeded request mix. Deterministic in `(seed, conn, idx)`.
fn pick_request(cfg: &LoadgenConfig, conn: usize, idx: usize) -> Request {
    let id = format!("c{conn}-r{idx}");
    let roll = fmm_faults::splitmix64(cfg.seed ^ ((conn as u64) << 40) ^ idx as u64);
    let bucket = roll % 100;
    let poison_hi = cfg.poison_pct;
    let oversized_hi = poison_hi + cfg.oversized_pct;
    let tiny_hi = oversized_hi + cfg.tiny_deadline_pct;
    let expensive_hi = tiny_hi + cfg.expensive_pct;
    if bucket < poison_hi {
        // Strassen at a non-power-of-two order: admitted, then panics.
        Request::new(&id, Kind::Io)
            .with_deadline(cfg.deadline_ms)
            .with_param("alg", "strassen")
            .with_param("n", "24")
            .with_param("m", "96")
    } else if bucket < oversized_hi {
        Request::new(&id, Kind::Io)
            .with_deadline(cfg.deadline_ms)
            .with_param("pad", &"x".repeat(cfg.oversized_bytes))
    } else if bucket < tiny_hi {
        // Slow job, 1 ms budget: deadline-exceeded whether it expires in
        // the queue or mid-run.
        Request::new(&id, Kind::Io)
            .with_deadline(1)
            .with_param("sleep_ms", "200")
    } else if bucket < expensive_hi {
        Request::new(&id, Kind::Io)
            .with_deadline(cfg.deadline_ms)
            .with_param("alg", "strassen")
            .with_param("n", "32")
            .with_param("m", "96")
    } else if roll & 1 == 0 {
        Request::new(&id, Kind::Io)
            .with_deadline(cfg.deadline_ms)
            .with_param("alg", "classical")
            .with_param("n", "8")
            .with_param("m", "64")
    } else {
        Request::new(&id, Kind::Bounds)
            .with_deadline(cfg.deadline_ms)
            .with_param("n", "2048")
            .with_param("p", "49")
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        write_line(&mut self.writer, req.to_line()).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Option<Response>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Response::parse(line.trim()).map(Some),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// Seeded backoff between reconnect attempts: the fmm-faults 50µs→5ms
/// curve shaped to process-restart scale (5ms→500ms).
fn reconnect_pause(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_micros(
        fmm_faults::backoff_micros(attempt) * 100,
    ));
}

/// `Conn::open` with the run's reconnect budget applied — a single
/// attempt at `--reconnect 0` (the old behaviour).
fn open_with_retry(cfg: &LoadgenConfig) -> Result<Conn, String> {
    let mut attempt = 0u32;
    loop {
        match Conn::open(&cfg.addr) {
            Ok(c) => return Ok(c),
            Err(e) if attempt >= cfg.reconnect => return Err(e),
            Err(_) => {
                attempt += 1;
                reconnect_pause(attempt);
            }
        }
    }
}

/// One closed-loop connection: send, await the reply, repeat. `sent`
/// is the run-wide send counter the kill-shard/kill-router watchers
/// trigger on.
///
/// With a reconnect budget, a vanished server (router SIGKILL chaos, or
/// a plain restart) is survivable: reconnect with seeded backoff and
/// re-send the unsettled request under the same id and `client_tag` —
/// the resumed router's dup-suppression reattaches or replays the
/// terminal status, so the request still settles exactly once and is
/// still classified exactly once here.
fn conn_worker(cfg: &LoadgenConfig, conn_idx: usize, sent: &AtomicU64) -> Result<Summary, String> {
    let mut conn = Conn::open(&cfg.addr)?;
    let mut s = Summary::default();
    let mut reconnects = 0u32;
    for i in 0..cfg.requests {
        let mut req = pick_request(cfg, conn_idx, i);
        if cfg.fleet {
            // A stable self-chosen identity: what makes the re-sent
            // request the *same* request across reconnects.
            req.params
                .insert("client_tag".into(), format!("lg-c{conn_idx}"));
        }
        let mut counted = false;
        let t0 = std::time::Instant::now();
        loop {
            let outcome = match conn.send(&req) {
                Ok(()) => {
                    if !counted {
                        counted = true;
                        s.sent += 1;
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    conn.recv()
                }
                Err(e) => Err(e),
            };
            match outcome {
                Ok(Some(resp)) => {
                    s.latency.observe(t0.elapsed().as_micros() as u64);
                    s.classify(&req.id, &resp);
                    break;
                }
                dead if reconnects < cfg.reconnect => {
                    let _ = dead;
                    reconnects += 1;
                    if counted {
                        s.resent += 1;
                    }
                    reconnect_pause(reconnects);
                    if let Ok(c) = Conn::open(&cfg.addr) {
                        conn = c;
                    }
                    // A failed reopen burns the attempt and retries on
                    // the dead connection — bounded either way.
                }
                Ok(None) => {
                    // Server hung up mid-run and the budget (default 0)
                    // is spent: this request counts as lost so the run
                    // cannot quietly pass.
                    s.lost += 1;
                    return Ok(s);
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(s)
}

/// Deterministic-shed phase: `pause`, blast `burst` cheap jobs without
/// reading, `resume`, then collect every reply.
fn burst_phase(cfg: &LoadgenConfig, burst: usize) -> Result<Summary, String> {
    let mut conn = Conn::open(&cfg.addr)?;
    let mut s = Summary::default();
    conn.send(&Request::new("pause", Kind::Pause))?;
    match conn.recv()? {
        Some(r) if r.status == Status::Ok => {}
        other => return Err(format!("pause not acknowledged: {other:?}")),
    }
    let ids: Vec<String> = (0..burst)
        .map(|i| {
            let id = format!("burst-{i}");
            let req = Request::new(&id, Kind::Io)
                .with_deadline(cfg.deadline_ms)
                .with_param("alg", "classical")
                .with_param("n", "8")
                .with_param("m", "64");
            conn.send(&req).map(|_| id)
        })
        .collect::<Result<_, _>>()?;
    s.sent += burst as u64;
    conn.send(&Request::new("resume", Kind::Resume))?;
    // Replies arrive interleaved: sheds during the pause, the resume
    // ack, terminal replies after. Count until every burst id is
    // accounted for.
    let mut seen = 0usize;
    let mut resumed = false;
    while seen < burst || !resumed {
        match conn.recv()? {
            Some(resp) => {
                if resp.status == Status::Ok {
                    resumed = true;
                    continue;
                }
                let expected = ids
                    .iter()
                    .find(|id| **id == resp.id)
                    .cloned()
                    .unwrap_or_default();
                if resp.status == Status::Shed {
                    s.burst_shed += 1;
                }
                s.classify(&expected, &resp);
                seen += 1;
            }
            None => {
                s.lost += (burst - seen) as u64;
                break;
            }
        }
    }
    Ok(s)
}

/// Graceful-stop phase: the ack carries the server's final counters.
/// Opens with the reconnect budget — after router-kill chaos the resumed
/// router may still be coming up when the workers finish.
///
/// Against a fleet, a `fleet-stats` query goes out first (every job has
/// settled by now, so the gray-failure counters are quiescent) and the
/// timing-dependent tallies — ejections, retry-budget denials — land in
/// the summary outside the equality contract.
fn shutdown_phase(cfg: &LoadgenConfig, summary: &mut Summary) -> Result<(), String> {
    let mut conn = open_with_retry(cfg)?;
    if cfg.fleet {
        conn.send(&Request::new("gray-stats", Kind::FleetStats))?;
        match conn.recv()? {
            Some(resp) if resp.status == Status::Ok => {
                let num = |k: &str| {
                    resp.result
                        .get(k)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0)
                };
                summary.ejected_observed = num("ejections");
                summary.retry_budget_exhausted = num("retry_budget_exhausted");
            }
            other => return Err(format!("fleet-stats not acknowledged: {other:?}")),
        }
    }
    conn.send(&Request::new("stop", Kind::Shutdown))?;
    match conn.recv()? {
        Some(resp) if resp.status == Status::Ok => {
            summary.server_counters = resp.result;
            Ok(())
        }
        other => Err(format!("shutdown not acknowledged: {other:?}")),
    }
}

/// Chaos watcher: wait until the run-wide send count crosses the
/// threshold (or the chaos phase ends first — a tiny run still gets its
/// kill), then tell the router to SIGKILL one seeded-chosen shard.
fn kill_shard_phase(
    cfg: &LoadgenConfig,
    after: usize,
    sent: &AtomicU64,
    done: &AtomicBool,
) -> Result<Summary, String> {
    while (sent.load(Ordering::Relaxed) as usize) < after && !done.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut conn = Conn::open(&cfg.addr)?;
    conn.send(
        &Request::new("chaos-kill", Kind::KillShard).with_param("seed", &cfg.seed.to_string()),
    )?;
    match conn.recv()? {
        Some(resp) if resp.status == Status::Ok => Ok(Summary {
            killed: 1,
            ..Summary::default()
        }),
        other => Err(format!("kill-shard not acknowledged: {other:?}")),
    }
}

/// Gray-failure watcher: wait for the send threshold, then ask the
/// router to stall one seeded-chosen shard's reply link. Unlike
/// `kill-shard`, the victim stays up and keeps answering probes — the
/// ack is immediate, and the damage is pure latency.
fn stall_shard_phase(
    cfg: &LoadgenConfig,
    after: usize,
    sent: &AtomicU64,
    done: &AtomicBool,
) -> Result<Summary, String> {
    while (sent.load(Ordering::Relaxed) as usize) < after && !done.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut conn = Conn::open(&cfg.addr)?;
    conn.send(
        &Request::new("chaos-stall", Kind::StallShard).with_param("seed", &cfg.seed.to_string()),
    )?;
    match conn.recv()? {
        Some(resp) if resp.status == Status::Ok => Ok(Summary {
            stalled: 1,
            ..Summary::default()
        }),
        other => Err(format!("stall-shard not acknowledged: {other:?}")),
    }
}

/// Chaos watcher for the router itself: wait for the send threshold,
/// then deliver `kill-router`. No ack ever comes — the router SIGKILLs
/// itself mid-verb — so the *hangup* is the success signal; an explicit
/// reply means the verb was refused.
fn kill_router_phase(
    cfg: &LoadgenConfig,
    after: usize,
    sent: &AtomicU64,
    done: &AtomicBool,
) -> Result<Summary, String> {
    while (sent.load(Ordering::Relaxed) as usize) < after && !done.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut conn = Conn::open(&cfg.addr)?;
    conn.send(&Request::new("chaos-kill-router", Kind::KillRouter))?;
    match conn.recv() {
        Ok(None) | Err(_) => Ok(Summary {
            router_killed: 1,
            ..Summary::default()
        }),
        Ok(Some(resp)) => Err(format!("kill-router was refused: {resp:?}")),
    }
}

/// Run the full scenario. `Err` means the scenario could not be driven
/// (connection refused, protocol breakdown) — distinct from a driven run
/// whose invariants failed, which returns `Ok` with `summary.ok() == false`.
pub fn run(cfg: &LoadgenConfig) -> Result<Summary, String> {
    let mut summary = Summary::default();
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (results, kill_result, router_kill_result, stall_result) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|c| {
                let sent = &sent;
                scope.spawn(move || conn_worker(cfg, c, sent))
            })
            .collect();
        let killer = cfg.kill_shard_after.map(|after| {
            let (sent, done) = (&sent, &done);
            scope.spawn(move || kill_shard_phase(cfg, after, sent, done))
        });
        let router_killer = cfg.kill_router_after.map(|after| {
            let (sent, done) = (&sent, &done);
            scope.spawn(move || kill_router_phase(cfg, after, sent, done))
        });
        let staller = cfg.stall_shard_after.map(|after| {
            let (sent, done) = (&sent, &done);
            scope.spawn(move || stall_shard_phase(cfg, after, sent, done))
        });
        let results: Vec<Result<Summary, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("loadgen connection thread panicked".to_string()))
            })
            .collect();
        done.store(true, Ordering::Relaxed);
        let kill_result = killer.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("loadgen kill-shard thread panicked".to_string()))
        });
        let router_kill_result = router_killer.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("loadgen kill-router thread panicked".to_string()))
        });
        let stall_result = staller.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("loadgen stall-shard thread panicked".to_string()))
        });
        (results, kill_result, router_kill_result, stall_result)
    });
    for r in results {
        summary.absorb(&r?);
    }
    if let Some(r) = kill_result {
        summary.absorb(&r?);
    }
    if let Some(r) = router_kill_result {
        summary.absorb(&r?);
    }
    if let Some(r) = stall_result {
        summary.absorb(&r?);
    }
    if let Some(burst) = cfg.burst {
        summary.absorb(&burst_phase(cfg, burst)?);
    }
    if cfg.shutdown {
        shutdown_phase(cfg, &mut summary)?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            seed,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn request_mix_is_deterministic_in_the_seed() {
        let a: Vec<String> = (0..50)
            .map(|i| pick_request(&cfg(7), 0, i).to_line())
            .collect();
        let b: Vec<String> = (0..50)
            .map(|i| pick_request(&cfg(7), 0, i).to_line())
            .collect();
        let c: Vec<String> = (0..50)
            .map(|i| pick_request(&cfg(8), 0, i).to_line())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn request_mix_hits_every_category_at_the_default_rates() {
        let cfg = cfg(1);
        let mut poison = 0usize;
        let mut oversized = 0usize;
        let mut tiny = 0usize;
        for conn in 0..cfg.conns {
            for i in 0..cfg.requests {
                let req = pick_request(&cfg, conn, i);
                if req.params.get("n").map(String::as_str) == Some("24") {
                    poison += 1;
                } else if req.params.contains_key("pad") {
                    oversized += 1;
                } else if req.deadline_ms == Some(1) {
                    tiny += 1;
                }
            }
        }
        let total = cfg.conns * cfg.requests;
        // ~10% / ~5% / ~5%; a uniform mixer stays well inside half-to-
        // double bands at n=1000.
        assert!(poison * 100 / total >= 5, "poison {poison}/{total}");
        assert!(oversized > 0 && tiny > 0);
        // The ISSUE's chaos bar: at least 10% poison-or-oversized.
        assert!((poison + oversized) * 100 / total >= 10);
    }

    #[test]
    fn summary_invariants_catch_losses_and_imbalance() {
        let mut s = Summary {
            sent: 3,
            completed: 2,
            shed: 1,
            ..Summary::default()
        };
        assert!(s.ok());
        s.lost = 1;
        assert!(!s.ok());
        s.lost = 0;
        s.server_counters.insert("accepted".into(), "5".into());
        s.server_counters.insert("completed".into(), "4".into());
        s.server_counters.insert("errored".into(), "0".into());
        s.server_counters.insert("cancelled".into(), "0".into());
        s.server_counters
            .insert("deadline_exceeded".into(), "0".into());
        // A shutdown ack carries all seven ledger counters; one missing
        // any of them cannot be cross-checked and fails the run.
        s.server_counters.insert("shed".into(), "0".into());
        assert!(!s.ok(), "a partial ack must fail the run");
        s.server_counters.insert("rejected".into(), "0".into());
        assert!(!s.ok(), "unbalanced server counters must fail the run");
        s.server_counters.insert("completed".into(), "5".into());
        assert!(s.ok());
    }

    #[test]
    fn summary_json_line_parses_with_the_obs_parser() {
        let s = Summary {
            sent: 10,
            completed: 8,
            shed: 2,
            ..Summary::default()
        };
        let map = fmm_obs::json::parse_line(&s.to_json_line()).unwrap();
        assert_eq!(map["sent"].as_num(), Some(10.0));
        assert_eq!(map["ok"].as_num(), Some(1.0));
    }
}
