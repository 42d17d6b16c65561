//! The fleet front end: a TCP router speaking the exact `fmm-serve`
//! wire protocol on both sides.
//!
//! The client side is an [`fmm_serve::conn::Endpoint`], the same one the
//! single server runs: it owns the listener, the connection readers, the
//! `shutdown` verb and the close. The router supplies admission (a
//! `Request` event), its fleet verbs, and its drain, which shuts the
//! shards down too. Each shard link is a [`fmm_serve::conn::Client`]
//! split in two: the writer half under the shard's slot lock, the
//! bounded reader half on the shard's reader thread.
//!
//! Every decision is made by one `Core` (the crate-private `core`
//! module) behind one `Mutex`. The threads here are I/O drivers: each
//! turns what it sees into an `Event`, steps the core, and carries out
//! the `Effect`s it returns.
//!
//! ```text
//! router-accept ────── the endpoint's accept loop, final drain and close
//!   ├── router-conn (one per client) ── Request events, fleet verbs
//!   ├── router-shard-{0..N} ─ ShardReply/Malformed; ShardDown at EOF
//!   ├── router-health ─────── Probe + ProbeRound; ShardDown on child exit
//!   ├── router-hedge ──────── Tick every 5 ms (only when hedging is on)
//!   ├── router-supervisor ─── RespawnScan; runs the Spawn effects
//!   └── router-cancel ─────── one per Cancel effect (a hedge race's loser)
//! ```
//!
//! One lock orders everything: a thread holding the core lock steps the
//! core and carries out, in order, the journal appends and shard writes
//! it returned, answering each write with `Sent` or `SendFailed` at
//! once. So the journal and the shard sockets see decisions in the order
//! they were made, and a `settle` or `refuse` record is written before
//! its reply. Replies, kills, cancels, backoff sleeps, respawns and log
//! lines run after the lock is released. A shard's connection slot is
//! locked under the core lock or alone, its process slot only alone (a
//! drain may hold it while the acked process exits).

use crate::core::{Core, Effect, Event};
use crate::journal::{Journal, Replay};
use fmm_faults::LinkChaosSpec;
use fmm_serve::conn::{control_roundtrip, Client, Endpoint, Lines, Reply, Service};
use fmm_serve::ledger::Ledger;
use fmm_serve::proto::{write_line, Kind, Request, Response, Status, MAX_LINE_BYTES};
use std::collections::{BTreeMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use crate::core::FleetSnapshot;

/// How the router is sized and seeded.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Front-end bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// One `host:port` per shard, in shard-index order. Fleet
    /// membership is fixed for the router's lifetime; only health
    /// changes.
    pub shard_addrs: Vec<String>,
    /// Seeds trace ids and the `kill-shard` victim choice.
    pub seed: u64,
    /// Deadline attached to jobs that do not carry their own (also
    /// forwarded to the shard).
    pub default_deadline_ms: Option<u64>,
    /// Lines longer than this are rejected unread, on both sides.
    pub max_line_bytes: usize,
    /// Health probe interval (also the supervisor's scan cadence).
    pub poll_ms: u64,
    /// Dispatch attempts per job (first dispatch included) before the
    /// router gives up and sheds it back to the client.
    pub max_attempts: u32,
    /// Respawn dead shards (requires a [`ShardSpawner`] in
    /// [`StartOptions`]; no-op without one).
    pub supervise: bool,
    /// Crash-loop breaker: this many crashes inside
    /// [`RouterConfig::breaker_window_ms`] quarantines the shard.
    pub breaker_k: u32,
    /// Sliding window for the crash-loop breaker.
    pub breaker_window_ms: u64,
    /// Honour the `kill-router` chaos verb (the fleet *binary* enables
    /// this; in-process routers must never SIGKILL their host).
    pub allow_kill_router: bool,
    /// Seeded link-chaos layer wrapped around every shard reply
    /// connection (`None` = clean links). Also a prerequisite for the
    /// `stall-shard` chaos verb.
    pub chaos_link: Option<LinkChaosSpec>,
    /// Hedged-request delay: `Some(0)` disables hedging, `Some(ms)` is
    /// a fixed delay, `None` is auto — the per-kind observed p95 of the
    /// router's own settle latency (50ms until 16 samples exist).
    pub hedge_ms: Option<u64>,
    /// Retry budget: hedges and the re-dispatches of jobs a shard shed
    /// back together may spend at most this percentage of accepted jobs
    /// (plus a floor of 4), so a brown-out can never amplify into a
    /// retry storm. `0` disables both. A job orphaned by a shard's death
    /// (its connection hit EOF or a write to it failed) re-dispatches
    /// free — the fleet failed, not the job — bounded only by
    /// [`RouterConfig::max_attempts`].
    pub retry_budget_pct: u32,
    /// Outlier ejection threshold: a shard whose settle-latency (or
    /// probe-RTT) EWMA exceeds this multiple of the fleet median for
    /// [`crate::outlier::STRIKE_WINDOW`] consecutive prober ticks is
    /// ejected.
    pub eject_k: f64,
    /// How long an ejected shard sits out before a successful probe
    /// re-admits it.
    pub eject_probation_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shard_addrs: Vec::new(),
            seed: 0,
            default_deadline_ms: None,
            max_line_bytes: MAX_LINE_BYTES,
            poll_ms: 100,
            max_attempts: 5,
            supervise: false,
            breaker_k: 3,
            breaker_window_ms: 30_000,
            allow_kill_router: false,
            chaos_link: None,
            hedge_ms: Some(0),
            retry_budget_pct: 10,
            eject_k: 4.0,
            eject_probation_ms: 1_000,
        }
    }
}

/// Respawn callback: given a shard index, bring up a replacement
/// process/listener and return its address (plus the child process when
/// the caller owns one). Supplied by the fleet binary (re-running
/// `spawn_shard`) or by tests (starting an in-process server).
pub type ShardSpawner = Arc<dyn Fn(usize) -> Result<(String, Option<Child>), String> + Send + Sync>;

/// Everything [`RouterHandle::start_with`] may take beyond the config.
#[derive(Default)]
pub struct StartOptions {
    /// Spawned shard processes in shard order (`None` per slot when
    /// attaching to externally managed shards); a missing tail is
    /// treated as all-`None`.
    pub procs: Vec<Option<Child>>,
    /// Respawn callback for the supervisor ([`RouterConfig::supervise`]).
    pub spawner: Option<ShardSpawner>,
    /// Write-ahead job journal, created ([`Journal::create`]) or, on a
    /// resume, reopened ([`Journal::reopen`]) by the caller; `None`
    /// disables journaling.
    pub journal: Option<Journal>,
    /// A replayed journal to resume from (see [`crate::journal::replay`]).
    pub resume: Option<Replay>,
}

/// A running fleet router. Dropping the handle initiates shutdown and
/// blocks until the drain (including shard shutdowns) completes.
pub struct RouterHandle(Endpoint<SharedRouter>);

impl RouterHandle {
    /// Connect to every shard, bind the front end, and return.
    pub fn start(cfg: RouterConfig, procs: Vec<Option<Child>>) -> std::io::Result<RouterHandle> {
        RouterHandle::start_with(
            cfg,
            StartOptions {
                procs,
                ..StartOptions::default()
            },
        )
    }

    /// [`RouterHandle::start`] plus supervision and journal-resume.
    ///
    /// Without a resume, an unreachable shard fails the start (a fresh
    /// fleet must come up whole). *With* one, unreachable shards come up
    /// `dead` instead — shards are separate processes that normally
    /// outlive a router SIGKILL, but any that didn't are exactly what
    /// the supervisor is for.
    pub fn start_with(cfg: RouterConfig, opts: StartOptions) -> std::io::Result<RouterHandle> {
        let (addr, max_line_bytes) = (cfg.addr.clone(), cfg.max_line_bytes);
        let endpoint = Endpoint::start(&addr, "router", max_line_bytes, |stop| {
            SharedRouter::start(cfg, opts, stop)
        })?;
        Ok(RouterHandle(endpoint))
    }

    /// The front-end address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub(crate) fn snapshot(&self) -> FleetSnapshot {
        self.0.service().core().snapshot()
    }

    /// Programmatic equivalent of the `shutdown` wire verb.
    pub fn begin_shutdown(&self) {
        self.0.begin_shutdown();
    }

    /// Block until the fleet has fully drained (no job in flight, every
    /// shard shut down or dead), then return the final counters.
    pub fn wait(mut self) -> FleetSnapshot {
        self.0.join();
        self.snapshot()
    }

    /// [`RouterHandle::begin_shutdown`] + [`RouterHandle::wait`].
    pub fn shutdown_and_wait(self) -> FleetSnapshot {
        self.begin_shutdown();
        self.wait()
    }
}

/// The I/O handles of one shard slot.
struct ShardIo {
    /// Writer half of the persistent job connection; `None` once down.
    conn: Mutex<Option<TcpStream>>,
    /// The spawned `fastmm serve` process, when the router owns it
    /// (kill-shard eligible). `None` in attach mode.
    child: Mutex<Option<Child>>,
}

/// Per-shard runtime state of the chaos link layer.
#[derive(Default)]
struct Link {
    /// Replies read from this shard so far (the `seq` of the garble
    /// oracle and the trigger counter for `stall-after`).
    seq: u64,
    /// The link delivers nothing until this instant (dynamic
    /// `stall-shard` verb, or an engaged `stall-after`).
    stall_until: Option<Instant>,
}

/// The chaos link layer: a seeded adversary between the router and its
/// shards' reply streams. Decisions are pure functions of
/// `(seed, shard, seq)`; the runtime state here only carries them out.
struct LinkChaos {
    spec: LinkChaosSpec,
    links: Vec<Mutex<Link>>,
}

impl LinkChaos {
    /// Carry one reply line from shard `idx` across the link: wait out
    /// an active stall (in small slices, so shutdown is never held
    /// hostage by a chaos plan), add the shard's delay, and say whether
    /// the line arrives intact (`false`: garbled in flight).
    fn carry(&self, idx: usize, shutdown: &AtomicBool) -> bool {
        let seq = {
            let mut link = self.links[idx].lock().unwrap();
            link.seq += 1;
            if self.spec.stall_after_for(idx) == Some(link.seq) {
                link.stall_until = Some(Instant::now() + Duration::from_millis(self.spec.stall_ms));
                eprintln!(
                    "fleet: chaos link to shard {idx} stalling for {}ms (stall-after={} hit)",
                    self.spec.stall_ms, link.seq
                );
            }
            link.seq - 1
        };
        loop {
            let stall = self.links[idx].lock().unwrap().stall_until;
            let Some(until) = stall else { break };
            let now = Instant::now();
            if now >= until || shutdown.load(Ordering::SeqCst) {
                self.links[idx].lock().unwrap().stall_until = None;
                break;
            }
            std::thread::sleep((until - now).min(Duration::from_millis(20)));
        }
        if let Some(ms) = self.spec.delay_for(idx) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        !self.spec.garbles(idx, seq)
    }

    /// Freeze the link to shard `idx` for the plan's `stall-ms`.
    fn stall(&self, idx: usize) {
        self.links[idx].lock().unwrap().stall_until =
            Some(Instant::now() + Duration::from_millis(self.spec.stall_ms));
    }
}

struct SharedRouter {
    cfg: RouterConfig,
    /// Every routing decision and the state it is made over.
    core: Mutex<Core<Reply>>,
    /// The core's ledger, for the connection readers' own rejections.
    ledger: Arc<Ledger>,
    shards: Vec<ShardIo>,
    /// Write-ahead job journal (`None` when journaling is off).
    journal: Option<Journal>,
    /// Chaos link layer (`None` = clean links).
    chaos: Option<LinkChaos>,
    spawner: Option<ShardSpawner>,
    started: Instant,
    /// The endpoint's stop flag: set, it ends the background loops too.
    shutdown: Arc<AtomicBool>,
}

impl SharedRouter {
    /// Connect to every shard and start the reader, probe, hedge and
    /// supervisor threads; the endpoint's accept loop starts after.
    fn start(
        cfg: RouterConfig,
        opts: StartOptions,
        shutdown: &Arc<AtomicBool>,
    ) -> std::io::Result<Arc<SharedRouter>> {
        let mut procs = opts.procs;
        procs.resize_with(cfg.shard_addrs.len(), || None);
        let resuming = opts.resume.is_some();
        let n = cfg.shard_addrs.len();
        let (mut shards, mut readers, mut up) = (Vec::new(), Vec::new(), Vec::new());
        for (idx, (shard_addr, child)) in cfg.shard_addrs.iter().zip(procs).enumerate() {
            let conn = match Client::connect(shard_addr, None, cfg.max_line_bytes) {
                Ok(client) => {
                    let (writer, lines) = client.split();
                    readers.push(Some(lines));
                    Some(writer)
                }
                Err(e) if resuming => {
                    eprintln!(
                        "fleet: shard {idx} at {shard_addr} unreachable on resume ({e}); \
                         starting it dead"
                    );
                    readers.push(None);
                    None
                }
                Err(e) => return Err(e),
            };
            up.push(conn.is_some());
            shards.push(ShardIo {
                conn: Mutex::new(conn),
                child: Mutex::new(child),
            });
        }
        let core = Core::new(&cfg, &up, opts.journal.is_some());
        let chaos = cfg.chaos_link.clone().map(|spec| LinkChaos {
            spec,
            links: (0..n).map(|_| Mutex::default()).collect(),
        });
        let shared = Arc::new(SharedRouter {
            ledger: Arc::clone(core.ledger()),
            core: Mutex::new(core),
            shards,
            journal: opts.journal,
            chaos,
            spawner: opts.spawner,
            started: Instant::now(),
            shutdown: Arc::clone(shutdown),
            cfg,
        });
        for (idx, lines) in readers.into_iter().enumerate() {
            if let Some(lines) = lines {
                shared.spawn_reader(idx, 0, lines);
            }
        }
        if let Some(replay) = opts.resume {
            shared.step(Event::Replay(replay));
        }
        shared.spawn_loop("router-health", |shared| shared.probe_round());
        if shared.cfg.hedge_ms != Some(0) {
            shared.spawn_loop("router-hedge", |shared| {
                std::thread::sleep(Duration::from_millis(5));
                shared.step(Event::Tick);
            });
        }
        if shared.cfg.supervise && shared.spawner.is_some() {
            shared.spawn_loop("router-supervisor", |shared| {
                shared.step(Event::RespawnScan);
                std::thread::sleep(Duration::from_millis(shared.cfg.poll_ms.max(10)));
            });
        }
        Ok(shared)
    }

    fn core(&self) -> MutexGuard<'_, Core<Reply>> {
        self.core
            .lock()
            .expect("core lock poisoned: a router thread panicked")
    }

    /// Step the core with one event and carry out its effects: journal
    /// appends and shard writes (each reported back at once) under the
    /// core lock, in order; everything else after it.
    fn step(self: &Arc<Self>, event: Event<Reply>) {
        let later = {
            let mut core = self.core();
            let now = self.started.elapsed();
            let mut queue = VecDeque::from(core.step(now, event));
            let mut later = Vec::new();
            while let Some(effect) = queue.pop_front() {
                match effect {
                    Effect::Journal(rec) => {
                        if let Some(j) = &self.journal {
                            j.append(&rec);
                        }
                    }
                    Effect::Send { shard, env, line } => {
                        let report = match self.send_to_shard(shard, line) {
                            true => Event::Sent { env },
                            false => Event::SendFailed { shard, env },
                        };
                        for effect in core.step(now, report).into_iter().rev() {
                            queue.push_front(effect);
                        }
                    }
                    effect => later.push(effect),
                }
            }
            later
        };
        for effect in later {
            match effect {
                Effect::Reply { to, resp } => to.send(&resp),
                Effect::Kill { shard } => self.kill(shard),
                Effect::Cancel { addr, env } => self.cancel(addr, env),
                Effect::RetryAfter { job, after } => {
                    std::thread::sleep(after);
                    self.step(Event::Retry { job });
                }
                Effect::Spawn { shard, after } => {
                    std::thread::sleep(after);
                    self.respawn(shard);
                }
                Effect::Log(line) => eprintln!("fleet: {line}"),
                Effect::Journal(_) | Effect::Send { .. } => {
                    unreachable!("carried out under the core lock")
                }
            }
        }
    }

    /// Run `body` on a named thread until shutdown.
    fn spawn_loop(
        self: &Arc<Self>,
        name: &str,
        body: impl Fn(&Arc<SharedRouter>) + Send + 'static,
    ) {
        let shared = Arc::clone(self);
        let _ = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    body(&shared);
                }
            });
    }

    /// Write one line to shard `idx`'s job connection; `false` when the
    /// shard is down or the write fails.
    fn send_to_shard(&self, idx: usize, line: String) -> bool {
        match self.shards[idx].conn.lock().unwrap().as_mut() {
            Some(conn) => write_line(conn, line).is_ok(),
            None => false,
        }
    }

    /// Close shard `idx`'s job connection and kill its process.
    fn kill(&self, idx: usize) {
        let shard = &self.shards[idx];
        if let Some(conn) = shard.conn.lock().unwrap().take() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(mut child) = shard.child.lock().unwrap().take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Best-effort cancel of one envelope on its shard, fire-and-forget:
    /// the job is already settled, nothing waits on this.
    fn cancel(&self, addr: String, env: u64) {
        let max_line_bytes = self.cfg.max_line_bytes;
        let _ = std::thread::Builder::new()
            .name("router-cancel".to_string())
            .spawn(move || {
                let mut req = Request::new("hc", Kind::Cancel);
                req.params.insert("target".into(), format!("f{env:x}"));
                let _ = control_roundtrip(&addr, &req, Duration::from_secs(2), max_line_bytes);
            });
    }

    // -----------------------------------------------------------------
    // Shard side: reply readers, probes, respawns
    // -----------------------------------------------------------------

    /// Read shard `idx`'s replies on their own thread. At EOF (the shard
    /// was killed, drained or shut down) report it down under `epoch`,
    /// which the core ignores if a respawn has replaced the connection.
    fn spawn_reader(self: &Arc<Self>, idx: usize, epoch: u64, lines: Lines) {
        let shared = Arc::clone(self);
        let _ = std::thread::Builder::new()
            .name(format!("router-shard-{idx}"))
            .spawn(move || {
                shared.read_replies(idx, lines);
                shared.step(Event::ShardDown {
                    shard: idx,
                    epoch: Some(epoch),
                });
            });
    }

    fn read_replies(self: &Arc<Self>, idx: usize, mut lines: Lines) {
        lines.each(|line| {
            let Ok(line) = line else {
                self.step(Event::Malformed);
                return true;
            };
            // The chaos link sits on the read path only: the shard
            // already computed, and only its *reply* arrives late, not
            // for a while, or mangled — the gray failure hedges exist for.
            let intact = match &self.chaos {
                Some(chaos) => chaos.carry(idx, &self.shutdown),
                None => true,
            };
            // A malformed line must never wedge or panic the router: it
            // is counted and skipped.
            match Response::parse(line) {
                Ok(resp) if intact => self.step(Event::ShardReply(resp)),
                _ => self.step(Event::Malformed),
            }
            true
        });
    }

    /// Probe every live shard once, then let the core evaluate outliers.
    fn probe_round(self: &Arc<Self>) {
        let poll = Duration::from_millis(self.cfg.poll_ms.max(10));
        let targets = self.core().probe_targets();
        for (idx, addr) in targets {
            // A spawned shard whose process exited is dead, whatever its
            // socket pretends.
            let exited = self.shards[idx]
                .child
                .lock()
                .unwrap()
                .as_mut()
                .is_some_and(|c| matches!(c.try_wait(), Ok(Some(_))));
            if exited {
                self.step(Event::ShardDown {
                    shard: idx,
                    epoch: None,
                });
                continue;
            }
            let probed = Instant::now();
            let rtt = control_roundtrip(
                &addr,
                &Request::new("hp", Kind::Health),
                poll.max(Duration::from_millis(50)),
                self.cfg.max_line_bytes,
            )
            .map(|_| probed.elapsed());
            self.step(Event::Probe { shard: idx, rtt });
        }
        self.step(Event::ProbeRound);
        std::thread::sleep(poll);
    }

    /// Bring up a replacement for shard `idx`, put its connection and
    /// process in the slot (the core still has it dead, so nothing routes
    /// there yet), then report the result and start its reader.
    fn respawn(self: &Arc<Self>, idx: usize) {
        let Some(spawner) = &self.spawner else { return };
        let up = spawner(idx).and_then(|(addr, child)| {
            match Client::connect(&addr, None, self.cfg.max_line_bytes) {
                Ok(client) => {
                    let (writer, lines) = client.split();
                    *self.shards[idx].conn.lock().unwrap() = Some(writer);
                    *self.shards[idx].child.lock().unwrap() = child;
                    Ok((addr, lines))
                }
                Err(e) => {
                    if let Some(mut c) = child {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    Err(format!("connect {addr}: {e}"))
                }
            }
        });
        match up {
            Ok((addr, lines)) => {
                self.step(Event::Respawned {
                    shard: idx,
                    addr: Ok(addr),
                });
                let epoch = self.core().epoch(idx);
                self.spawn_reader(idx, epoch, lines);
            }
            Err(e) => self.step(Event::Respawned {
                shard: idx,
                addr: Err(e),
            }),
        }
    }

    /// A shard that acked a graceful shutdown exits on its own — let it,
    /// so its `--metrics` JSONL gets flushed, instead of letting the
    /// `Kill` effect cut the flush short. Bounded: a shard that acks and
    /// then wedges is killed by the usual path when the wait runs out.
    fn reap_acked_child(&self, idx: usize) {
        let mut slot = self.shards[idx].child.lock().unwrap();
        let Some(child) = slot.as_mut() else { return };
        let waited = Instant::now();
        while waited.elapsed() < Duration::from_secs(10) {
            match child.try_wait() {
                Ok(Some(_)) => {
                    slot.take();
                    return;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => return,
            }
        }
    }

    // -----------------------------------------------------------------
    // Client side: drain-shard and the chaos verbs
    // -----------------------------------------------------------------

    /// Shut down shard `idx`, already out of routing: ask it to stop,
    /// give its reader a moment to absorb the replies already buffered
    /// (so the down sweep finds little to re-dispatch; whatever it finds
    /// re-dispatches correctly either way), keep an ack's final counters,
    /// let an acked process exit on its own, and mark the shard down.
    fn stop_shard(self: &Arc<Self>, idx: usize, addr: &str, id: &str) -> Option<Response> {
        let stop = Request::new(id, Kind::Shutdown);
        let ack = control_roundtrip(
            addr,
            &stop,
            Duration::from_secs(20),
            self.cfg.max_line_bytes,
        );
        let waited = Instant::now();
        while waited.elapsed() < Duration::from_secs(2) && self.core().busy_on(idx) {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(ack) = &ack {
            self.core().record_ack(idx, ack.result.clone());
            self.reap_acked_child(idx);
        }
        self.step(Event::ShardDown {
            shard: idx,
            epoch: None,
        });
        ack
    }

    /// `drain-shard`: planned removal. Stop routing to the shard, ask it
    /// to shut down gracefully, let its in-flight terminal and shed-back
    /// replies flow back over the job connection, then mark it down. The
    /// ack carries the shard's own final (balanced) counters.
    fn drain_shard(self: &Arc<Self>, reply: &Reply, req: &Request) {
        let decided = self.core().drain_shard(req);
        let (idx, addr) = match decided {
            Ok(target) => target,
            Err(rejection) => return reply.send(&rejection),
        };
        let ack = self.stop_shard(idx, &addr, "drain");
        match ack {
            Some(shard_ack) => {
                let mut m = shard_ack.result;
                m.insert("shard".into(), idx.to_string());
                ok(reply, req, m);
            }
            None => reply.send(&Response::new(&req.id, Status::Error).with_reason(&format!(
                "shard {idx} did not acknowledge its drain (marked dead; jobs re-dispatched)"
            ))),
        }
    }

    /// `stall-shard`: chaos verb. Freeze the *link* to a live shard — the
    /// one named by `params.shard`, or a seeded choice — for the chaos
    /// plan's `stall-ms`. The shard keeps executing; its replies just
    /// stop arriving. Requires the chaos link layer.
    fn stall_shard(&self, reply: &Reply, req: &Request) {
        let Some(chaos) = &self.chaos else {
            return self.ledger.reject(
                reply,
                &req.id,
                "stall-shard requires a fleet started with --chaos-link",
            );
        };
        let picked = self
            .core()
            .pick_victim(req, "live", "stall", &vec![true; self.shards.len()]);
        let victim = match picked {
            Ok(victim) => victim,
            Err(rejection) => return reply.send(&rejection),
        };
        chaos.stall(victim);
        let stall_ms = chaos.spec.stall_ms;
        eprintln!(
            "fleet: chaos link to shard {victim} stalled for {stall_ms}ms (stall-shard verb)"
        );
        let mut m = BTreeMap::new();
        m.insert("victim".into(), victim.to_string());
        m.insert("stall_ms".into(), stall_ms.to_string());
        ok(reply, req, m);
    }

    /// `kill-shard`: chaos verb. SIGKILL a spawned live shard — the one
    /// named by `params.shard`, or a seeded choice — and let its reader's
    /// EOF report it down (and, when supervised, respawn it).
    fn kill_shard(&self, reply: &Reply, req: &Request) {
        let spawned: Vec<bool> = self
            .shards
            .iter()
            .map(|s| s.child.lock().unwrap().is_some())
            .collect();
        let picked = self
            .core()
            .pick_victim(req, "spawned live", "kill", &spawned);
        let victim = match picked {
            Ok(victim) => victim,
            Err(rejection) => return reply.send(&rejection),
        };
        if let Some(c) = self.shards[victim].child.lock().unwrap().as_mut() {
            let _ = c.kill(); // SIGKILL on unix
            let _ = c.wait();
        }
        self.core().shard_killed();
        let mut m = BTreeMap::new();
        m.insert("victim".into(), victim.to_string());
        ok(reply, req, m);
    }
}

impl Service for SharedRouter {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn admit(self: &Arc<Self>, reply: &Reply, req: Request, conn: u64) {
        self.step(Event::Request {
            client: reply.clone(),
            conn,
            req,
        });
    }

    fn begin_drain(&self) {
        self.core().begin_drain();
    }

    /// Stop admitting, let everything in flight settle, then shut the
    /// shards down, collecting each ack's final counters.
    fn drain(self: &Arc<Self>) {
        self.begin_drain();
        while !self.core().idle() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let up = self.core().shutdown_shards();
        for (idx, addr) in up {
            self.stop_shard(idx, &addr, "stop");
        }
        // The fleet is down; make the journal durable through its end.
        if let Some(j) = &self.journal {
            j.sync();
        }
        if fmm_obs::enabled() {
            fmm_obs::gauge("router_pending", &[], 0.0);
        }
    }

    /// Answer a fleet verb inline.
    fn control(self: &Arc<Self>, reply: &Reply, req: &Request) {
        let ok = |m| ok(reply, req, m);
        match req.kind {
            Kind::Health => ok(self.core().health(self.started.elapsed())),
            Kind::Stats | Kind::FleetStats => ok(self.core().stats()),
            Kind::DrainShard => self.drain_shard(reply, req),
            Kind::KillShard => self.kill_shard(reply, req),
            Kind::StallShard => self.stall_shard(reply, req),
            Kind::KillRouter => {
                // Chaos verb: die like a machine does — no drain, no
                // reply, no destructors. Only the journal survives, which
                // is the point; an unjournaled or in-process router
                // refuses (a library must never SIGKILL its host).
                let Some(j) = self.journal.as_ref().filter(|_| self.cfg.allow_kill_router) else {
                    return self.ledger.reject(
                        reply,
                        &req.id,
                        "kill-router requires the fleet binary running with --journal",
                    );
                };
                j.sync();
                let _ = std::process::Command::new("kill")
                    .args(["-9", &std::process::id().to_string()])
                    .status();
                // SIGKILL is not deliverable to ourselves on some
                // platforms' shells; die abruptly regardless.
                std::process::abort();
            }
            Kind::Pause | Kind::Resume | Kind::Cancel => self.ledger.reject(
                reply,
                &req.id,
                "pause/resume/cancel are per-shard verbs (send them to a shard directly)",
            ),
            _ => unreachable!("the endpoint answers job kinds and shutdown"),
        }
    }
}

/// Answer a fleet verb `ok` with `result`.
fn ok(reply: &Reply, req: &Request, result: BTreeMap<String, String>) {
    reply.send(&Response::new(&req.id, Status::Ok).with_result(result));
}
