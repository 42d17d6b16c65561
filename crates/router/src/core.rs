//! The router's decisions as plain data: a sans-IO state machine.
//!
//! [`Core`] owns everything the fleet router decides and nothing it
//! does: the job table (jobs, the envelope → job map, live idempotency
//! keys, the bounded settled-recently table), per-shard health, the
//! retry budget, the settle-latency histograms behind auto hedging, the
//! [`OutlierDetector`], and the router-level counters. It has no
//! sockets, processes, threads or clock: every [`Event`] comes in with
//! `now` (time since the router started), and [`Core::step`] answers
//! with the [`Effect`]s to carry out, in order. Fleet verbs call the
//! methods below `step`, which decide and leave the waiting to the
//! caller.
//!
//! The driver ([`crate::router`]) must carry out [`Effect::Journal`] and
//! [`Effect::Send`] in order before it steps the next event, answering
//! every `Send` at once with [`Event::Sent`] or [`Event::SendFailed`]. Then, per idempotency key, the journal's
//! `admit` precedes its `settle` or `refuse`, and that record precedes
//! the client's reply. The unit tests check this, at most one terminal
//! reply per key, and both conservation laws over seeded interleavings.

use crate::journal::{JobKey, Record, Replay};
use crate::outlier::OutlierDetector;
use crate::ring::{spec_hash, Ring};
use crate::router::RouterConfig;
use fmm_faults::{backoff_micros, splitmix64};
use fmm_obs::span::SpanRecord;
use fmm_obs::Histogram;
use fmm_serve::jobs::JobSpec;
use fmm_serve::ledger::{Ledger, Names, StatsSnapshot};
use fmm_serve::proto::{Kind, Request, Response, Status};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// The ledger's [`fmm_obs`] metric names.
const LEDGER_NAMES: Names = [
    "router_accepted",
    "router_completed",
    "router_errored",
    "router_cancelled",
    "router_deadline_exceeded",
    "router_shed",
    "router_rejected",
];

/// Rejection reason for a re-sent idempotency key.
const DUPLICATE: &str = "duplicate (spec_hash, seed, client_tag) in flight or recently settled";

/// How many recently settled idempotency keys to remember.
const SETTLED_CAP: usize = 4096;

/// Point-in-time fleet counters, plus whatever final counter maps the
/// drained shards acknowledged with.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// The router's job ledger. Because settle happens exactly once per
    /// job, a re-dispatched job is counted once here no matter how many
    /// shards saw an envelope for it.
    pub ledger: StatsSnapshot,
    /// Envelopes re-sent after a shard died or shed a job back.
    pub redispatched: u64,
    /// Late or duplicate replies suppressed by the idempotency layer.
    pub dup_suppressed: u64,
    /// Shards SIGKILLed by the `kill-shard` chaos verb.
    pub shards_killed: u64,
    /// Shard reply lines that failed to parse (the router skips them).
    pub malformed_shard_replies: u64,
    /// Dead shards respawned by the supervisor.
    pub restarts: u64,
    /// Crash-loop breakers opened (shards quarantined).
    pub breaker_open: u64,
    /// Journal records replayed at resume (admits + settles + refusals).
    pub journal_replayed: u64,
    /// Unsettled admissions rebuilt from the journal and re-dispatched.
    pub resumed_inflight: u64,
    /// Shards ejected by the latency outlier detector (cumulative).
    pub ejections: u64,
    /// Ejected shards re-admitted after probation (cumulative).
    pub readmissions: u64,
    /// Hedged duplicate dispatches launched. At drain,
    /// `hedges_launched == hedges_won + hedges_lost + hedges_cancelled`.
    pub hedges_launched: u64,
    /// Hedges whose reply settled the job (the primary was slower).
    pub hedges_won: u64,
    /// Hedges beaten by the primary (or otherwise out of the race).
    pub hedges_lost: u64,
    /// Hedges voided because their job was refused before any terminal
    /// reply.
    pub hedges_cancelled: u64,
    /// Hedges or re-dispatches denied by the retry budget.
    pub retry_budget_exhausted: u64,
    /// Retry-budget tokens spent (hedges + shed-back re-dispatches).
    pub retry_spent: u64,
    /// Fleet size (fixed).
    pub shards: usize,
    /// Shards currently routable (healthy or degraded).
    pub shards_live: usize,
    /// Shards currently marked dead.
    pub shards_dead: usize,
    /// Shards quarantined by the crash-loop breaker.
    pub shards_quarantined: usize,
    /// Shards currently ejected by the outlier detector.
    pub shards_ejected: usize,
    /// Final counters per shard from its shutdown ack; `None` for a
    /// shard that died unacknowledged (e.g. SIGKILLed).
    pub shard_acks: Vec<Option<BTreeMap<String, String>>>,
}

impl FleetSnapshot {
    /// The hedge conservation law: every launched hedge got exactly one
    /// outcome. Holds whenever no job is in flight (always after a
    /// drain).
    pub fn hedges_balanced(&self) -> bool {
        self.hedges_launched == self.hedges_won + self.hedges_lost + self.hedges_cancelled
    }

    /// Sum a counter across the shard acks that were collected.
    pub fn shards_sum(&self, key: &str) -> u64 {
        self.shard_acks
            .iter()
            .flatten()
            .filter_map(|m| m.get(key).and_then(|v| v.parse::<u64>().ok()))
            .sum()
    }

    /// Does every acked shard's own conservation law hold? An ack that
    /// is missing a counter counts as unbalanced.
    pub fn shards_balanced(&self) -> bool {
        self.shard_acks
            .iter()
            .flatten()
            .all(|m| StatsSnapshot::from_map(m).is_some_and(|s| s.balanced()))
    }

    /// The full flat map the `fleet-stats` verb answers with.
    pub(crate) fn as_map(&self) -> BTreeMap<String, String> {
        let mut m = self.ledger.as_map();
        for (key, value) in [
            ("redispatched", self.redispatched),
            ("dup_suppressed", self.dup_suppressed),
            ("shards_killed", self.shards_killed),
            ("malformed_shard_replies", self.malformed_shard_replies),
            ("restarts", self.restarts),
            ("breaker_open", self.breaker_open),
            ("journal_replayed", self.journal_replayed),
            ("resumed_inflight", self.resumed_inflight),
            ("ejections", self.ejections),
            ("readmissions", self.readmissions),
            ("hedges_launched", self.hedges_launched),
            ("hedges_won", self.hedges_won),
            ("hedges_lost", self.hedges_lost),
            ("hedges_cancelled", self.hedges_cancelled),
            ("retry_budget_exhausted", self.retry_budget_exhausted),
            ("retry_spent", self.retry_spent),
            ("shards", self.shards as u64),
            ("shards_live", self.shards_live as u64),
            ("shards_dead", self.shards_dead as u64),
            ("shards_quarantined", self.shards_quarantined as u64),
            ("shards_ejected", self.shards_ejected as u64),
        ] {
            m.insert(key.into(), value.to_string());
        }
        m
    }
}

/// Count one router-level event in `tally.<field>`, mirrored into
/// [`fmm_obs`] as `router_<field>`.
macro_rules! count {
    ($core:ident, $field:ident) => {{
        $core.tally.$field += 1;
        if fmm_obs::enabled() {
            fmm_obs::add(concat!("router_", stringify!($field)), &[], 1);
        }
    }};
}

/// Shard health. The order is load-bearing: up to `Degraded` is
/// routable, from `Draining` on the shard is out of the probing
/// rotation, from `Dead` on it is gone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
enum Health {
    #[default]
    Healthy,
    Degraded,
    /// Latency outlier: alive and probed (gray failures answer probes —
    /// that is what makes them gray) but routed around, until probation
    /// ends and a successful probe re-admits it.
    Ejected,
    Draining,
    Dead,
    /// Crash-loop breaker open: like dead, but never respawned and never
    /// downgraded back.
    Quarantined,
}

impl Health {
    fn routable(self) -> bool {
        self <= Health::Degraded
    }
}

#[derive(Default)]
struct Shard {
    /// Current address; a respawned shard comes back on a fresh port but
    /// keeps its ring index.
    addr: String,
    health: Health,
    /// Consecutive failed health probes.
    misses: u32,
    /// Recent unplanned deaths, pruned to the breaker window.
    crashes: Vec<Duration>,
    /// Deliberately removed (drained or shut down): never respawned.
    retired: bool,
    /// Reply-reader generation, bumped at every respawn: only a reader
    /// of the current generation may report the shard down.
    epoch: u64,
    /// When the outlier detector ejected the shard; probation runs from
    /// here.
    ejected_at: Option<Duration>,
    /// Respawn attempts since the last success (the backoff exponent).
    respawns: u32,
}

/// The (single) hedged duplicate of one job.
struct Hedge {
    env: u64,
    shard: usize,
    /// Pre-allocated id of the `hedge.<kind>` span (0 = no telemetry).
    span: u64,
    launched: Duration,
    /// Reached the shard's socket: only then is it launched and owed an
    /// outcome (won, lost or cancelled), counted once `done`.
    on_wire: bool,
    done: bool,
}

/// One admitted job.
struct Job<C> {
    /// Where the terminal reply goes; `None` for a job rebuilt from the
    /// journal whose client has not come back.
    client: Option<C>,
    client_id: String,
    /// As admitted (deadline resolved); each dispatch re-serialises it.
    req: Request,
    idem: JobKey,
    /// Dispatch attempts so far (first dispatch and hedges included).
    attempts: u32,
    /// The outstanding primary envelope and its shard; `None` before the
    /// first dispatch and while a re-dispatch waits out its backoff.
    primary: Option<(usize, u64)>,
    /// The shard the reply reports: the last primary, or the hedge's
    /// shard when the hedge won.
    shard: usize,
    /// The shard the outlier detector charges the settle latency to,
    /// however the job finished: where the first dispatch went.
    first_shard: Option<usize>,
    /// Every envelope sent; all leave the pending map at settle.
    envelopes: Vec<u64>,
    hedge: Option<Hedge>,
    /// Never hedge this job: the budget denied it.
    hedge_denied: bool,
    trace: u64,
    /// Pre-allocated id of the `route.<kind>` span (0 = no telemetry).
    route_span: u64,
    admitted: Duration,
    deadline: Option<Duration>,
    /// Rebuilt from the journal: a re-send reattaches, and the settle
    /// stays replayable.
    resumed: bool,
}

/// Something that happened, as the router's threads report it.
pub(crate) enum Event<C> {
    /// A job request from `client`; `conn` is the connection serial that
    /// identifies a client sending no `client_tag`.
    Request { client: C, conn: u64, req: Request },
    /// A parsed reply line from a shard's job connection.
    ShardReply(Response),
    /// A shard reply line that was oversized, garbled or did not parse.
    Malformed,
    /// The [`Effect::Send`] of envelope `env` reached the shard's socket.
    Sent { env: u64 },
    /// The [`Effect::Send`] of envelope `env` failed.
    SendFailed { shard: usize, env: u64 },
    /// A shard is gone: its reply reader of generation `epoch` hit EOF,
    /// or (`epoch: None`) its process exited or a verb took it down.
    ShardDown { shard: usize, epoch: Option<u64> },
    /// One health probe's round trip; `None` when it failed.
    Probe { shard: usize, rtt: Option<Duration> },
    /// Every live shard has been probed once: evaluate outliers.
    ProbeRound,
    /// Timer tick: launch the hedges that are due.
    Tick,
    /// A re-dispatch's backoff ([`Effect::RetryAfter`]) has elapsed.
    Retry { job: u64 },
    /// Supervisor timer: respawn dead shards or open their breakers.
    RespawnScan,
    /// The result of an [`Effect::Spawn`]: the replacement's address, or
    /// why it could not be brought up.
    Respawned {
        shard: usize,
        addr: Result<String, String>,
    },
    /// A replayed journal to resume from.
    Replay(Replay),
}

/// Something the driver must do.
#[derive(Debug)]
pub(crate) enum Effect<C> {
    /// Write one line to a shard's job connection, then report
    /// [`Event::Sent`] or [`Event::SendFailed`].
    Send {
        shard: usize,
        env: u64,
        line: String,
    },
    /// Write one reply to a client.
    Reply { to: C, resp: Response },
    /// Append one journal record.
    Journal(Record),
    /// Best-effort cancel of envelope `env` on the shard at `addr`.
    Cancel { addr: String, env: u64 },
    /// Close a shard's job connection and kill its process, if owned.
    Kill { shard: usize },
    /// After `after`, bring up a replacement for a dead shard, then
    /// report [`Event::Respawned`].
    Spawn { shard: usize, after: Duration },
    /// After `after`, report [`Event::Retry`] for `job`.
    RetryAfter { job: u64, after: Duration },
    /// One line for the operator's log.
    Log(String),
}

/// The router's state and every decision over it. `C` is the handle a
/// client reply is addressed to.
pub(crate) struct Core<C> {
    cfg: RouterConfig,
    ring: Ring,
    shards: Vec<Shard>,
    ledger: Arc<Ledger>,
    /// The router-level counters and the shard acks; [`Core::snapshot`]
    /// fills in the ledger and the shard census.
    tally: FleetSnapshot,
    jobs: BTreeMap<u64, Job<C>>,
    /// Envelope seq → job.
    pending: HashMap<u64, u64>,
    /// Idempotency keys of admitted, unsettled jobs.
    live: HashMap<JobKey, u64>,
    /// Recently settled keys, oldest first, bounded by [`SETTLED_CAP`].
    /// A `Some((status, reason))` value — journal-replayed settles and
    /// settles of resumed jobs — means a re-send gets that terminal
    /// status replayed rather than a duplicate rejection: the
    /// reconnecting client's answer.
    settled_order: VecDeque<JobKey>,
    settled: HashMap<JobKey, Option<(Status, String)>>,
    outliers: OutlierDetector,
    /// Settle latency per job kind, in µs: the auto hedge delay's source.
    latency: BTreeMap<&'static str, Histogram>,
    draining: bool,
    /// The fleet shutdown sequence has begun (guards a double drain).
    shards_shut: bool,
    next_env: u64,
    next_admit: u64,
    next_job: u64,
    /// The time of the event being stepped.
    now: Duration,
    /// The effects of the event being stepped, in order.
    effects: Vec<Effect<C>>,
    /// Emit [`Effect::Journal`]s: the driver holds a journal.
    journaled: bool,
}

impl<C: Clone> Core<C> {
    /// A core for `cfg`'s fleet; shard `i` starts dead (one crash on
    /// record) when `up[i]` is false. With `journaled`, every admission,
    /// settle, refusal and hedge also yields an [`Effect::Journal`].
    pub(crate) fn new(cfg: &RouterConfig, up: &[bool], journaled: bool) -> Core<C> {
        let n = cfg.shard_addrs.len();
        let shards = cfg
            .shard_addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let up = up.get(i).copied().unwrap_or(true);
                Shard {
                    addr: addr.clone(),
                    health: if up { Health::Healthy } else { Health::Dead },
                    crashes: if up { Vec::new() } else { vec![Duration::ZERO] },
                    ..Shard::default()
                }
            })
            .collect();
        Core {
            ring: Ring::build(n),
            shards,
            ledger: Arc::new(Ledger::new(LEDGER_NAMES)),
            tally: FleetSnapshot {
                shards: n,
                shard_acks: vec![None; n],
                ..FleetSnapshot::default()
            },
            jobs: BTreeMap::new(),
            pending: HashMap::new(),
            live: HashMap::new(),
            settled_order: VecDeque::new(),
            settled: HashMap::new(),
            outliers: OutlierDetector::new(n, cfg.eject_k),
            latency: BTreeMap::new(),
            draining: false,
            shards_shut: false,
            next_env: 0,
            next_admit: 0,
            next_job: 0,
            now: Duration::ZERO,
            effects: Vec::new(),
            journaled,
            cfg: cfg.clone(),
        }
    }

    /// Consume one event at time `now`; the effects, in order.
    pub(crate) fn step(&mut self, now: Duration, event: Event<C>) -> Vec<Effect<C>> {
        self.now = now;
        match event {
            Event::Request { client, conn, req } => self.admit(client, conn, req),
            Event::ShardReply(resp) => self.shard_reply(resp),
            Event::Malformed => count!(self, malformed_shard_replies),
            Event::Sent { env } => self.sent(env),
            Event::SendFailed { shard, env } => self.send_failed(shard, env),
            Event::ShardDown { shard, epoch } => {
                if epoch.is_none_or(|e| e == self.shards[shard].epoch) {
                    self.shard_down(shard);
                }
            }
            Event::Probe { shard, rtt } => self.probe(shard, rtt),
            Event::ProbeRound => self.eject_outliers(),
            Event::Tick => self.launch_due_hedges(),
            Event::Retry { job } => {
                if self.jobs.get(&job).is_some_and(|j| j.primary.is_none()) {
                    self.dispatch(job);
                }
            }
            Event::RespawnScan => self.respawn_scan(),
            Event::Respawned { shard, addr } => self.respawned(shard, addr),
            Event::Replay(replay) => self.replay(replay),
        }
        std::mem::take(&mut self.effects)
    }

    // -----------------------------------------------------------------
    // Admission, dispatch, settle
    // -----------------------------------------------------------------

    fn admit(&mut self, client: C, conn: u64, mut req: Request) {
        if self.draining {
            let resp = self.ledger.shedding(&req.id, "draining");
            self.effects.push(Effect::Reply { to: client, resp });
            return;
        }
        // Validate params at the router so a healthy shard never has
        // cause to reject an admitted job pre-admission (which would
        // unbalance the conservation law).
        if let Err(e) = JobSpec::from_request(req.kind, &req.params) {
            let resp = self.ledger.rejection(&req.id, &e);
            self.effects.push(Effect::Reply { to: client, resp });
            return;
        }
        // A client that names itself (`client_tag`) keeps its identity
        // across reconnects, so its re-sent requests land on the same
        // idempotency keys; an anonymous client's identity is its
        // connection.
        let tag = match req.params.get("client_tag") {
            Some(t) => format!("{t}:{}", req.id),
            None => format!("{conn}:{}", req.id),
        };
        let idem: JobKey = (
            spec_hash(req.kind, &req.params),
            req.params.get("seed").cloned().unwrap_or_default(),
            tag,
        );
        if let Some(id) = self.live.get(&idem) {
            count!(self, dup_suppressed);
            let job = self.jobs.get_mut(id).expect("a live key names a live job");
            if job.resumed {
                // A journal-resumed job whose client came back: the
                // settle answers this connection.
                job.client_id = req.id;
                job.client = Some(client);
            } else {
                let resp = self.ledger.rejection(&req.id, DUPLICATE);
                self.effects.push(Effect::Reply { to: client, resp });
            }
            return;
        }
        if let Some(replayable) = self.settled.get(&idem) {
            count!(self, dup_suppressed);
            let resp = match replayable {
                // Already settled (journal replay, or a resumed job that
                // finished before its client reattached): replay the
                // terminal status. No counter moves; the settle counted.
                Some((status, reason)) => {
                    let mut resp = Response::new(&req.id, *status);
                    if !reason.is_empty() {
                        resp = resp.with_reason(reason);
                    }
                    resp.result.insert("replayed".into(), "journal".into());
                    resp
                }
                None => self.ledger.rejection(&req.id, DUPLICATE),
            };
            self.effects.push(Effect::Reply { to: client, resp });
            return;
        }
        req.deadline_ms = req.deadline_ms.or(self.cfg.default_deadline_ms);
        let seq = self.next_admit;
        self.next_admit += 1;
        let trace = match splitmix64(self.cfg.seed.wrapping_add(seq)) {
            0 => 1,
            t => t,
        };
        let route_span = if fmm_obs::detailed() {
            fmm_obs::span::next_span_id()
        } else {
            0
        };
        // Journal the admission before the first dispatch: a SIGKILL
        // after this line re-dispatches the job at resume.
        if self.journaled {
            self.effects.push(Effect::Journal(Record::Admit {
                key: idem.clone(),
                trace_id: trace,
                shard: self.ring.route(idem.0, &self.alive_mask()).unwrap_or(0),
                req_line: req.to_line(),
            }));
        }
        self.ledger.accept();
        let id = self.insert_job(req, Some(client), idem, trace, route_span);
        self.dispatch(id);
    }

    fn insert_job(
        &mut self,
        req: Request,
        client: Option<C>,
        idem: JobKey,
        trace: u64,
        route_span: u64,
    ) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        self.live.insert(idem.clone(), id);
        let job = Job {
            // Only a job rebuilt from the journal has no client yet.
            resumed: client.is_none(),
            client,
            client_id: req.id.clone(),
            deadline: req
                .deadline_ms
                .map(|ms| self.now + Duration::from_millis(ms)),
            req,
            idem,
            attempts: 0,
            primary: None,
            shard: 0,
            first_shard: None,
            envelopes: Vec::new(),
            hedge: None,
            hedge_denied: false,
            trace,
            route_span,
            admitted: self.now,
        };
        self.jobs.insert(id, job);
        id
    }

    fn alive_mask(&self) -> Vec<bool> {
        self.shards.iter().map(|s| s.health.routable()).collect()
    }

    fn pending_gauge(&self) {
        if fmm_obs::enabled() {
            fmm_obs::gauge("router_pending", &[], self.pending.len() as f64);
        }
    }

    /// Send the job to the shard the ring picks; with no routable shard,
    /// give it back to the client.
    fn dispatch(&mut self, id: u64) {
        let Some(shard) = self.ring.route(self.jobs[&id].idem.0, &self.alive_mask()) else {
            self.refuse(id, None);
            return;
        };
        let env = self.next_env;
        self.next_env += 1;
        let job = self.jobs.get_mut(&id).expect("dispatching a live job");
        let line = envelope(job, env, job.route_span);
        job.attempts += 1;
        job.primary = Some((shard, env));
        job.shard = shard;
        job.first_shard.get_or_insert(shard);
        job.envelopes.push(env);
        self.pending.insert(env, id);
        self.pending_gauge();
        self.effects.push(Effect::Send { shard, env, line });
    }

    /// The job's primary envelope went unanswered: its shard died
    /// (`free`: the fleet's fault, not the job's, so no budget token) or
    /// shed it back (`last` is that reply). Re-dispatch after a seeded
    /// backoff, unless the deadline passed or the attempts or the budget
    /// ran out.
    fn redispatch(&mut self, id: u64, last: Option<Response>, free: bool) {
        let job = &self.jobs[&id];
        if job.deadline.is_some_and(|d| self.now >= d) {
            let expired = Response::new("", Status::DeadlineExceeded)
                .with_reason("expired during re-dispatch");
            self.settle(id, expired, None);
            return;
        }
        if job.attempts >= self.cfg.max_attempts {
            self.refuse(id, last);
            return;
        }
        // A shed-back re-dispatch spends the budget hedges do: a
        // brown-out that sheds jobs back en masse must not amplify into
        // a retry storm.
        if !free && !self.take_retry_token() {
            let shed = Response::new("", Status::Shed).with_reason("retry-budget-exhausted");
            self.refuse(id, Some(shed));
            return;
        }
        count!(self, redispatched);
        let job = self.jobs.get_mut(&id).expect("re-dispatching a live job");
        job.primary = None;
        self.effects.push(Effect::RetryAfter {
            job: id,
            after: Duration::from_micros(backoff_micros(job.attempts)),
        });
    }

    /// Spend one retry-budget token (a hedge or a shed-back
    /// re-dispatch). The budget is `retry_budget_pct`% of accepted jobs
    /// plus a floor of 4, so a cold fleet can still retry its first
    /// jobs; `0` means no tokens, ever.
    fn take_retry_token(&mut self) -> bool {
        let pct = self.cfg.retry_budget_pct as u64;
        let allowed = match pct {
            0 => 0,
            _ => self.ledger.accepted().saturating_mul(pct) / 100 + 4,
        };
        if self.tally.retry_spent < allowed {
            self.tally.retry_spent += 1;
            true
        } else {
            count!(self, retry_budget_exhausted);
            false
        }
    }

    /// Forward a terminal reply to the client and count it, exactly
    /// once. `via_env` is the envelope that carried it (`None` when the
    /// router settled the job itself): it decides a hedge race.
    fn settle(&mut self, id: u64, mut resp: Response, via_env: Option<u64>) {
        let mut job = self.jobs.remove(&id).expect("settling a live job");
        self.ledger.settle(resp.status);
        let total_ns = self.now.saturating_sub(job.admitted).as_nanos() as u64;
        if fmm_obs::enabled() {
            fmm_obs::observe("router_latency_us", &[], total_ns / 1_000);
        }
        // Close the hedge race; the loser's shard gets a best-effort
        // cancel so it stops computing an answer nobody will read.
        let mut loser = None;
        if let Some(hedge) = job.hedge.as_mut().filter(|h| h.on_wire && !h.done) {
            hedge.done = true;
            let won = via_env == Some(hedge.env);
            if won {
                count!(self, hedges_won);
                resp.result.insert("hedged".into(), "1".into());
                loser = job.primary;
                job.shard = hedge.shard;
            } else {
                count!(self, hedges_lost);
                loser = Some((hedge.shard, hedge.env));
            }
            if hedge.span != 0 && fmm_obs::detailed() {
                let ns = self.now.saturating_sub(hedge.launched).as_nanos() as u64;
                fmm_obs::global().record_span(SpanRecord {
                    trace: job.trace,
                    id: hedge.span,
                    parent: job.route_span,
                    name: span_name("hedge", job.req.kind),
                    total_ns: ns,
                    self_ns: ns,
                    fields: vec![("shard", hedge.shard as u64), ("won", won as u64)],
                });
            }
        }
        if job.route_span != 0 && fmm_obs::detailed() {
            // Opened at admission, closed here: recorded by hand. Its self
            // time cannot subtract the shard's compute (that span lives
            // in the shard's process).
            let fields = vec![
                ("attempts", job.attempts as u64),
                ("shard", job.shard as u64),
            ];
            fmm_obs::global().record_span(SpanRecord {
                trace: job.trace,
                id: job.route_span,
                parent: 0,
                name: span_name("route", job.req.kind),
                total_ns,
                self_ns: total_ns,
                fields,
            });
        }
        resp.id = job.client_id;
        resp.result.insert("shard".into(), job.shard.to_string());
        resp.result
            .insert("attempts".into(), job.attempts.to_string());
        // Settle latency feeds the auto hedge delay and the outlier
        // detector, attributed to the *first* shard: a hedge that rescued
        // a slow primary is evidence against the primary.
        self.latency
            .entry(job.req.kind.as_str())
            .or_default()
            .observe(total_ns / 1_000);
        if let Some(first) = job.first_shard {
            self.outliers.record_settle(first, total_ns / 1_000);
        }
        // Journal the settle before the reply: a SIGKILL between the two
        // re-settles (and replays) rather than double-counts.
        if self.journaled {
            self.effects.push(Effect::Journal(Record::Settle {
                key: job.idem.clone(),
                status: resp.status,
                reason: resp.reason.clone(),
            }));
        }
        // A resumed job's client may still be reconnecting: keep its
        // terminal status replayable.
        let replayable = job.resumed.then(|| (resp.status, resp.reason.clone()));
        if let Some(to) = job.client {
            self.effects.push(Effect::Reply { to, resp });
        }
        if let Some((shard, env)) = loser {
            if self.shards[shard].health.routable() {
                let addr = self.shards[shard].addr.clone();
                self.effects.push(Effect::Cancel { addr, env });
            }
        }
        self.forget(&job.envelopes, &job.idem);
        self.remember_settled(job.idem, replayable);
    }

    /// Give a job back to the client unadmitted: roll the acceptance
    /// back and count the refusal — shed, or rejected when the shard's
    /// last reply was a pre-admission rejection.
    fn refuse(&mut self, id: u64, last: Option<Response>) {
        let job = self.jobs.remove(&id).expect("refusing a live job");
        // A refused job never reaches a terminal reply, so its hedge is
        // voided: the third leg of the hedge law.
        if job.hedge.as_ref().is_some_and(|h| h.on_wire && !h.done) {
            count!(self, hedges_cancelled);
        }
        self.ledger.unaccept();
        if self.journaled {
            self.effects.push(Effect::Journal(Record::Refuse {
                key: job.idem.clone(),
            }));
        }
        // A shard's own shed or rejection passes through; anything else
        // means no shard could take the job.
        let cid = &job.client_id;
        let resp = match last {
            Some(r) if r.status == Status::Shed => self.ledger.shedding(cid, &r.reason),
            Some(r) if r.status == Status::Error && r.reason.starts_with("rejected: ") => {
                self.ledger.rejection(cid, &r.reason["rejected: ".len()..])
            }
            _ => self.ledger.shedding(cid, "no-live-shards"),
        };
        if let Some(to) = job.client {
            self.effects.push(Effect::Reply { to, resp });
        }
        self.forget(&job.envelopes, &job.idem);
    }

    /// Drop a finished job's envelopes and live key.
    fn forget(&mut self, envelopes: &[u64], idem: &JobKey) {
        for env in envelopes {
            self.pending.remove(env);
        }
        self.pending_gauge();
        self.live.remove(idem);
    }

    fn remember_settled(&mut self, idem: JobKey, replayable: Option<(Status, String)>) {
        self.settled_order.push_back(idem.clone());
        self.settled.insert(idem, replayable);
        while self.settled_order.len() > SETTLED_CAP {
            if let Some(old) = self.settled_order.pop_front() {
                self.settled.remove(&old);
            }
        }
    }

    fn shard_reply(&mut self, resp: Response) {
        // Envelopes are tagged `f<seq:x>`; anything else (a stray
        // control ack, an unknown-verb reply) cannot be matched to a job.
        let env = resp
            .id
            .strip_prefix('f')
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        let Some(env) = env else {
            count!(self, malformed_shard_replies);
            return;
        };
        let Some(id) = self.pending.remove(&env) else {
            // Settled via another envelope (a late duplicate), or never
            // sent by this router.
            count!(self, dup_suppressed);
            return;
        };
        if resp.is_terminal_job_reply() {
            self.settle(id, resp, Some(env));
            return;
        }
        let job = self
            .jobs
            .get_mut(&id)
            .expect("a pending envelope names a live job");
        if let Some(hedge) = job.hedge.as_mut().filter(|h| h.env == env && !h.done) {
            // A hedge shed back simply drops out of the race; the primary
            // is still in flight.
            hedge.done = true;
            if hedge.on_wire {
                count!(self, hedges_lost);
            }
            return;
        }
        if job.primary.map(|(_, e)| e) != Some(env) {
            // An envelope the job already moved on from (its shard was
            // swept): the current attempt carries the job.
            count!(self, dup_suppressed);
            return;
        }
        // Shed (draining / queue full), a rejection the router's own
        // validation should have caught, or a nonsense `ok`: re-dispatch.
        self.redispatch(id, Some(resp), false);
    }

    // -----------------------------------------------------------------
    // Hedged requests
    // -----------------------------------------------------------------

    /// The hedge delay for one kind: fixed when configured, otherwise
    /// the observed p95 settle latency of that kind (50 ms floor, and
    /// 50 ms until 16 samples exist).
    fn hedge_delay(&self, kind: Kind) -> Duration {
        if let Some(ms) = self.cfg.hedge_ms {
            return Duration::from_millis(ms);
        }
        let p95_us = self
            .latency
            .get(kind.as_str())
            .filter(|h| h.count >= 16)
            .map(Histogram::p95);
        Duration::from_micros(p95_us.unwrap_or(0).max(50_000))
    }

    /// Launch a hedge for every job that has out-waited its kind's hedge
    /// delay. At most one per job; it goes to the next routable ring
    /// shard (primary masked) under the *same* idempotency key, so the
    /// reply that loses the race is a suppressed duplicate.
    fn launch_due_hedges(&mut self) {
        if self.cfg.hedge_ms == Some(0) {
            return;
        }
        let due: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| {
                j.hedge.is_none()
                    && !j.hedge_denied
                    && j.primary.is_some()
                    && self.now.saturating_sub(j.admitted) >= self.hedge_delay(j.req.kind)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            self.launch_hedge(id);
        }
    }

    fn launch_hedge(&mut self, id: u64) {
        let mut alive = self.alive_mask();
        let job = &self.jobs[&id];
        let Some((primary, _)) = job.primary else {
            return;
        };
        alive[primary] = false;
        // Pick the target before spending budget: with nowhere to send a
        // hedge, the job just keeps waiting, for free.
        let Some(shard) = self.ring.route(job.idem.0, &alive) else {
            return;
        };
        if !self.take_retry_token() {
            self.jobs
                .get_mut(&id)
                .expect("hedging a live job")
                .hedge_denied = true;
            return;
        }
        let env = self.next_env;
        self.next_env += 1;
        let job = self.jobs.get_mut(&id).expect("hedging a live job");
        let span = if fmm_obs::detailed() {
            fmm_obs::span::next_span_id()
        } else {
            0
        };
        let line = envelope(job, env, span);
        job.attempts += 1;
        job.envelopes.push(env);
        job.hedge = Some(Hedge {
            env,
            shard,
            span,
            launched: self.now,
            on_wire: false,
            done: false,
        });
        self.pending.insert(env, id);
        self.effects.push(Effect::Send { shard, env, line });
    }

    /// A send made it onto the wire; for a hedge, that is its launch.
    fn sent(&mut self, env: u64) {
        let Some(job) = self.pending.get(&env).and_then(|id| self.jobs.get_mut(id)) else {
            return;
        };
        let Some(hedge) = job.hedge.as_mut().filter(|h| h.env == env && !h.on_wire) else {
            return;
        };
        hedge.on_wire = true;
        count!(self, hedges_launched);
        if self.journaled {
            self.effects.push(Effect::Journal(Record::Hedge {
                key: job.idem.clone(),
                shard: hedge.shard,
            }));
        }
    }

    /// A send failed: the shard's connection is gone. A hedge that never
    /// reached the wire is unwound entirely — its token refunded, since
    /// it bought nothing — and the primary carries the job; a primary is
    /// orphaned and re-dispatches free.
    fn send_failed(&mut self, shard: usize, env: u64) {
        let id = self.pending.remove(&env);
        if let Some(job) = id.and_then(|id| self.jobs.get_mut(&id)) {
            if job.hedge.as_ref().is_some_and(|h| h.env == env) {
                job.hedge = None;
                job.attempts -= 1;
                job.envelopes.retain(|&e| e != env);
                self.tally.retry_spent = self.tally.retry_spent.saturating_sub(1);
            }
        }
        self.shard_down(shard);
        // The sweep re-dispatched an orphaned primary unless the shard was
        // already down; then it is re-dispatched here.
        let orphaned = |j: &Job<C>| j.primary == Some((shard, env));
        if let Some(id) = id.filter(|id| self.jobs.get(id).is_some_and(orphaned)) {
            self.redispatch(id, None, true);
        }
    }

    // -----------------------------------------------------------------
    // Shard health
    // -----------------------------------------------------------------

    /// Mark a shard dead (idempotent, and never downgrading a
    /// quarantine), close it, and re-dispatch every job whose primary was
    /// on it — free of the retry budget, bounded by `max_attempts`.
    fn shard_down(&mut self, idx: usize) {
        let shard = &mut self.shards[idx];
        if matches!(shard.health, Health::Dead | Health::Quarantined) {
            return;
        }
        shard.health = Health::Dead;
        shard.crashes.push(self.now);
        fmm_obs::add("router_shard_down", &[], 1);
        self.effects.push(Effect::Kill { shard: idx });
        let orphans: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.primary.is_some_and(|(s, _)| s == idx))
            .map(|(&id, _)| id)
            .collect();
        for id in orphans {
            self.redispatch(id, None, true);
        }
    }

    fn probe(&mut self, idx: usize, rtt: Option<Duration>) {
        let shard = &mut self.shards[idx];
        if shard.health >= Health::Draining {
            return;
        }
        let Some(rtt) = rtt else {
            shard.misses += 1;
            if shard.misses >= 2 {
                // Two consecutive misses: dead. A killed process's reader
                // EOF usually beats this; it catches wedged shards.
                self.shard_down(idx);
            } else if shard.health == Health::Healthy {
                shard.health = Health::Degraded;
                fmm_obs::add("router_shard_degraded", &[], 1);
            }
            return;
        };
        shard.misses = 0;
        // The RTT feeds the outlier detector: a gray shard answers
        // probes, but often slowly.
        self.outliers.record_rtt(idx, rtt.as_micros() as u64);
        if shard.health == Health::Degraded {
            shard.health = Health::Healthy;
        }
        // An ejected shard that has served its probation and still
        // answers probes rejoins the ring with a clean detector record,
        // so stale slowness cannot re-eject it on the next round.
        let probation = Duration::from_millis(self.cfg.eject_probation_ms);
        if shard.health == Health::Ejected
            && shard
                .ejected_at
                .is_some_and(|at| self.now >= at + probation)
        {
            shard.health = Health::Healthy;
            shard.ejected_at = None;
            self.outliers.reset(idx);
            count!(self, readmissions);
            self.effects.push(Effect::Log(format!(
                "shard {idx} re-admitted after {}ms probation",
                self.cfg.eject_probation_ms
            )));
        }
    }

    /// One outlier round: eject shards whose latency EWMA has been over
    /// `eject_k`× the fleet median for [`crate::outlier::STRIKE_WINDOW`]
    /// rounds — unless that would leave fewer than two routable shards,
    /// too thin to hedge around the slow one.
    fn eject_outliers(&mut self) {
        let eligible = self.alive_mask();
        for idx in self.outliers.tick(&eligible) {
            if self.shards.iter().filter(|s| s.health.routable()).count() <= 2 {
                return;
            }
            let shard = &mut self.shards[idx];
            if !shard.health.routable() {
                continue;
            }
            // Jobs already on the shard stay there (it is slow, not
            // gone); new work routes around it, and hedges rescue what
            // the slow link strands.
            shard.health = Health::Ejected;
            shard.ejected_at = Some(self.now);
            count!(self, ejections);
            self.effects.push(Effect::Log(format!(
                "shard {idx} ejected as a latency outlier (EWMA > {:.1}x fleet median); \
                 probation {}ms",
                self.cfg.eject_k, self.cfg.eject_probation_ms
            )));
        }
    }

    /// The self-healing scan: respawn dead shards at the *same ring
    /// index* after a backoff, unless the crash-loop breaker says the
    /// shard is poison — then it is quarantined for good.
    fn respawn_scan(&mut self) {
        if self.draining {
            return;
        }
        let window = Duration::from_millis(self.cfg.breaker_window_ms);
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            if shard.health != Health::Dead || shard.retired {
                continue;
            }
            shard
                .crashes
                .retain(|&t| self.now.saturating_sub(t) < window);
            let recent = shard.crashes.len() as u32;
            if recent >= self.cfg.breaker_k {
                shard.health = Health::Quarantined;
                count!(self, breaker_open);
                self.effects.push(Effect::Log(format!(
                    "shard {idx} crash-looped ({recent} crashes in {}ms); \
                     breaker open, shard quarantined",
                    self.cfg.breaker_window_ms
                )));
                continue;
            }
            shard.respawns = shard.respawns.saturating_add(1);
            // The fault toolkit's 50µs→5ms curve, shaped to process
            // respawn scale (5ms→500ms).
            self.effects.push(Effect::Spawn {
                shard: idx,
                after: Duration::from_micros(backoff_micros(shard.respawns) * 100),
            });
        }
    }

    fn respawned(&mut self, idx: usize, addr: Result<String, String>) {
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                self.effects
                    .push(Effect::Log(format!("shard {idx} respawn failed: {e}")));
                return;
            }
        };
        let shard = &mut self.shards[idx];
        if shard.health != Health::Dead || shard.retired {
            // The fleet moved on while the replacement came up (a drain
            // retired the slot): stop it rather than orphan it.
            self.effects.push(Effect::Kill { shard: idx });
            return;
        }
        shard.epoch += 1;
        shard.misses = 0;
        shard.respawns = 0;
        shard.health = Health::Healthy;
        count!(self, restarts);
        self.effects.push(Effect::Log(format!(
            "shard {idx} respawned at {addr} (ring index unchanged)"
        )));
        shard.addr = addr;
    }

    /// Seed the counters, the settled table and the in-flight set from a
    /// replayed journal, and re-dispatch the in-flight jobs. The journal
    /// records each job's resolved deadline, not its elapsed runtime: the
    /// budget restarts now.
    fn replay(&mut self, replay: Replay) {
        self.ledger.restore(&replay.ledger);
        self.tally.journal_replayed = replay.replayed;
        self.tally.resumed_inflight = replay.inflight.len() as u64;
        fmm_obs::add("router_journal_replayed", &[], replay.replayed);
        for (key, status, reason) in replay.settled {
            self.remember_settled(key, Some((status, reason)));
        }
        let mut ids = Vec::with_capacity(replay.inflight.len());
        for (idem, trace, req_line) in replay.inflight {
            match Request::parse(&req_line) {
                Ok(req) => ids.push(self.insert_job(req, None, idem, trace, 0)),
                Err(e) => {
                    // Unreplayable: roll its admission back so the
                    // conservation law still closes.
                    self.effects.push(Effect::Log(format!(
                        "resume cannot re-parse a journaled request ({e}); dropping it"
                    )));
                    self.ledger.unaccept();
                    self.tally.resumed_inflight -= 1;
                }
            }
        }
        for id in ids {
            self.dispatch(id);
        }
    }

    // -----------------------------------------------------------------
    // Queries and fleet verbs
    // -----------------------------------------------------------------

    /// The job ledger, shared with the connection readers' rejections.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    pub(crate) fn snapshot(&self) -> FleetSnapshot {
        let census = |h: Health| self.shards.iter().filter(|s| s.health == h).count();
        FleetSnapshot {
            ledger: self.ledger.snapshot(),
            shards_live: self.shards.iter().filter(|s| s.health.routable()).count(),
            shards_dead: census(Health::Dead),
            shards_quarantined: census(Health::Quarantined),
            shards_ejected: census(Health::Ejected),
            ..self.tally.clone()
        }
    }

    /// The `stats` / `fleet-stats` reply: the snapshot plus each shard's
    /// state.
    pub(crate) fn stats(&self) -> BTreeMap<String, String> {
        let mut m = self.snapshot().as_map();
        for (idx, shard) in self.shards.iter().enumerate() {
            // The wire name is the variant's, lowercased.
            let state = format!("{:?}", shard.health).to_lowercase();
            m.insert(format!("shard{idx}_state"), state);
        }
        m
    }

    /// The `health` reply.
    pub fn health(&self, now: Duration) -> BTreeMap<String, String> {
        let snap = self.snapshot();
        BTreeMap::from([
            ("uptime_ms".into(), now.as_millis().to_string()),
            ("shards".into(), snap.shards.to_string()),
            ("shards_live".into(), snap.shards_live.to_string()),
            ("pending".into(), self.pending.len().to_string()),
            ("draining".into(), self.draining.to_string()),
        ])
    }

    /// No job is in flight.
    pub(crate) fn idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Some job's primary envelope is out on shard `idx`.
    pub(crate) fn busy_on(&self, idx: usize) -> bool {
        self.jobs
            .values()
            .any(|j| j.primary.is_some_and(|(s, _)| s == idx))
    }

    /// The current reply-reader generation of shard `idx`.
    pub fn epoch(&self, idx: usize) -> u64 {
        self.shards[idx].epoch
    }

    /// The shards to health-probe this round: not draining, not gone.
    pub(crate) fn probe_targets(&self) -> Vec<(usize, String)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health < Health::Draining)
            .map(|(idx, s)| (idx, s.addr.clone()))
            .collect()
    }

    /// Stop admitting: every later request is shed as `draining`.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// `drain-shard`: retire shard `params.shard` and return its index
    /// and address for the graceful shutdown, or the counted rejection.
    pub(crate) fn drain_shard(&mut self, req: &Request) -> Result<(usize, String), Response> {
        let idx = req
            .params
            .get("shard")
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&i| i < self.shards.len());
        let Some(idx) = idx else {
            return Err(self
                .ledger
                .rejection(&req.id, "drain-shard requires params.shard = <index>"));
        };
        let shard = &mut self.shards[idx];
        if shard.health >= Health::Draining {
            let reason = format!("shard {idx} is already draining or dead");
            return Err(self.ledger.rejection(&req.id, &reason));
        }
        shard.retired = true;
        shard.health = Health::Draining;
        Ok((idx, shard.addr.clone()))
    }

    /// The fleet shutdown: retire every shard and return those still up,
    /// now draining; empty when the sequence already ran.
    pub(crate) fn shutdown_shards(&mut self) -> Vec<(usize, String)> {
        if std::mem::replace(&mut self.shards_shut, true) {
            return Vec::new();
        }
        let mut up = Vec::new();
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            shard.retired = true;
            if shard.health < Health::Dead {
                shard.health = Health::Draining;
                up.push((idx, shard.addr.clone()));
            }
        }
        up
    }

    /// Keep a drained shard's final counters.
    pub(crate) fn record_ack(&mut self, idx: usize, ack: BTreeMap<String, String>) {
        self.tally.shard_acks[idx] = Some(ack);
    }

    /// The victim of a chaos verb among the shards that are up (not
    /// draining or gone) and `eligible`: the one named by
    /// `params.shard`, or a choice seeded by `params.seed` (default: the
    /// router seed). `which` and `verb` word the (counted) rejection.
    pub(crate) fn pick_victim(
        &self,
        req: &Request,
        which: &str,
        verb: &str,
        eligible: &[bool],
    ) -> Result<usize, Response> {
        let seed = req
            .params
            .get("seed")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(self.cfg.seed);
        let victims: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.shards[i].health < Health::Draining && eligible[i])
            .collect();
        if victims.is_empty() {
            return Err(self
                .ledger
                .rejection(&req.id, &format!("no {which} shards to {verb}")));
        }
        match req.params.get("shard").map(|v| v.parse::<usize>()) {
            None => Ok(victims[(splitmix64(seed) % victims.len() as u64) as usize]),
            Some(Ok(idx)) if victims.contains(&idx) => Ok(idx),
            Some(_) => {
                let reason = format!("params.shard must name a {which} shard");
                Err(self.ledger.rejection(&req.id, &reason))
            }
        }
    }

    /// Count one `kill-shard` SIGKILL.
    pub(crate) fn shard_killed(&mut self) {
        count!(self, shards_killed);
    }
}

/// `<prefix>.<kind>`: the route and hedge span names.
fn span_name(prefix: &str, kind: Kind) -> &'static str {
    match (prefix, kind) {
        ("route", Kind::Io) => "route.io",
        ("route", Kind::Bounds) => "route.bounds",
        ("route", Kind::Faults) => "route.faults",
        ("route", Kind::SweepCell) => "route.sweep-cell",
        ("route", Kind::Kernel) => "route.kernel",
        ("route", _) => "route.control",
        (_, Kind::Io) => "hedge.io",
        (_, Kind::Bounds) => "hedge.bounds",
        (_, Kind::Faults) => "hedge.faults",
        (_, Kind::SweepCell) => "hedge.sweep-cell",
        (_, Kind::Kernel) => "hedge.kernel",
        _ => "hedge.control",
    }
}

/// Envelope `env` of the job's request, parented under span `parent`
/// (0 for none) of the shard's trace.
fn envelope<C>(job: &Job<C>, env: u64, parent: u64) -> String {
    let mut fwd = job.req.clone();
    fwd.id = format!("f{env:x}");
    // Client identity is router-side state, not shard spec.
    fwd.params.remove("client_tag");
    fwd.params
        .insert("trace_id".into(), format!("{:016x}", job.trace));
    if parent != 0 {
        fwd.params.insert("parent_span".into(), parent.to_string());
    }
    fwd.to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::replay;

    type Fx = Vec<Effect<u32>>;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn config(shards: usize) -> RouterConfig {
        RouterConfig {
            shard_addrs: (0..shards)
                .map(|i| format!("127.0.0.1:{}", 7000 + i))
                .collect(),
            ..RouterConfig::default()
        }
    }

    /// A named client's bounds job: its key is `(hash, n, "c:<id>")`.
    fn job(id: &str, n: u64) -> Request {
        Request::new(id, Kind::Bounds)
            .with_param("n", &n.to_string())
            .with_param("m", "512")
            .with_param("seed", &n.to_string())
            .with_param("client_tag", "c")
    }

    fn key(req: &Request) -> JobKey {
        let tag = format!("{}:{}", req.params["client_tag"], req.id);
        (
            spec_hash(req.kind, &req.params),
            req.params["seed"].clone(),
            tag,
        )
    }

    fn reply_to(env: u64, status: Status) -> Response {
        Response::new(&format!("f{env:x}"), status)
    }

    fn sends(fx: &Fx) -> Vec<(usize, u64)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send { shard, env, .. } => Some((*shard, *env)),
                _ => None,
            })
            .collect()
    }

    fn replies(fx: &Fx) -> Vec<(u32, Response)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Reply { to, resp } => Some((*to, resp.clone())),
                _ => None,
            })
            .collect()
    }

    fn records(fx: &Fx) -> Vec<Record> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Journal(rec) => Some(rec.clone()),
                _ => None,
            })
            .collect()
    }

    /// A core driven by hand at time `now`; every send succeeds unless
    /// the test reports otherwise.
    struct Rig {
        core: Core<u32>,
        now: Duration,
    }

    impl Rig {
        fn new(cfg: RouterConfig) -> Rig {
            let up = vec![true; cfg.shard_addrs.len()];
            Rig {
                core: Core::new(&cfg, &up, true),
                now: Duration::ZERO,
            }
        }

        fn step(&mut self, event: Event<u32>) -> Fx {
            self.core.step(self.now, event)
        }

        /// Step, then answer every send with `Sent`, as the router does.
        fn step_sent(&mut self, event: Event<u32>) -> Fx {
            let mut fx = self.step(event);
            for (_, env) in sends(&fx) {
                fx.extend(self.step(Event::Sent { env }));
            }
            fx
        }

        fn request(&mut self, client: u32, req: Request) -> Fx {
            self.step_sent(Event::Request {
                client,
                conn: 0,
                req,
            })
        }

        fn snap(&self) -> FleetSnapshot {
            self.core.snapshot()
        }
    }

    #[test]
    fn admit_send_reply_settle() {
        let mut rig = Rig::new(config(3));
        let req = job("r1", 8);
        let fx = rig.request(1, req.clone());
        let [(shard, env)] = sends(&fx)[..] else {
            panic!("one send: {fx:?}")
        };
        assert!(matches!(&records(&fx)[..], [Record::Admit { key: k, .. }] if *k == key(&req)));
        assert!(!rig.core.idle() && rig.core.busy_on(shard));
        let fx = rig.step(Event::ShardReply(reply_to(env, Status::Completed)));
        assert!(
            matches!(fx[0], Effect::Journal(Record::Settle { .. })),
            "settle record first"
        );
        let [(1, ref resp)] = replies(&fx)[..] else {
            panic!("one reply: {fx:?}")
        };
        assert_eq!((resp.id.as_str(), resp.status), ("r1", Status::Completed));
        assert_eq!(resp.result["shard"], shard.to_string());
        assert_eq!(resp.result["attempts"], "1");
        let snap = rig.snap();
        assert!(rig.core.idle() && snap.ledger.balanced());
        assert_eq!((snap.ledger.accepted, snap.ledger.completed), (1, 1));
        // The same envelope answered twice is a suppressed duplicate.
        assert!(rig
            .step(Event::ShardReply(reply_to(env, Status::Completed)))
            .is_empty());
        assert_eq!(rig.snap().dup_suppressed, 1);
    }

    #[test]
    fn duplicate_live_key_is_rejected() {
        let mut rig = Rig::new(config(3));
        let fx = rig.request(1, job("r1", 8));
        let env = sends(&fx)[0].1;
        let fx = rig.request(2, job("r1", 8));
        assert!(sends(&fx).is_empty() && records(&fx).is_empty());
        let [(2, ref resp)] = replies(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(resp.status, Status::Error);
        assert_eq!(resp.reason, format!("rejected: {DUPLICATE}"));
        rig.step(Event::ShardReply(reply_to(env, Status::Completed)));
        // Settled recently, not replayable: still a duplicate.
        let fx = rig.request(3, job("r1", 8));
        assert_eq!(replies(&fx)[0].1.reason, format!("rejected: {DUPLICATE}"));
        let snap = rig.snap();
        assert_eq!(
            (
                snap.ledger.accepted,
                snap.ledger.rejected,
                snap.dup_suppressed
            ),
            (1, 2, 2)
        );
        assert!(snap.ledger.balanced());
    }

    #[test]
    fn resumed_key_reattaches_and_then_replays() {
        let mut rig = Rig::new(config(3));
        let req = job("r1", 8);
        let resume = Replay {
            replayed: 1,
            ledger: StatsSnapshot {
                accepted: 1,
                ..StatsSnapshot::default()
            },
            settled: Vec::new(),
            inflight: vec![(key(&req), 42, req.to_line())],
        };
        let fx = rig.step_sent(Event::Replay(resume));
        let [(_, env)] = sends(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert!(replies(&fx).is_empty(), "nobody to answer yet");
        // The client comes back under the same tag: no reply yet, no new
        // admission — it reattaches.
        let fx = rig.request(7, req.clone());
        assert!(fx.is_empty(), "{fx:?}");
        let fx = rig.step(Event::ShardReply(reply_to(env, Status::Completed)));
        let [(7, ref resp)] = replies(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert_eq!((resp.id.as_str(), resp.status), ("r1", Status::Completed));
        // A later re-send gets the settled status replayed.
        let fx = rig.request(8, req);
        let [(8, ref resp)] = replies(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(resp.status, Status::Completed);
        assert_eq!(resp.result["replayed"], "journal");
        let snap = rig.snap();
        assert_eq!((snap.ledger.accepted, snap.ledger.completed), (1, 1));
        assert_eq!((snap.resumed_inflight, snap.dup_suppressed), (1, 2));
    }

    #[test]
    fn settled_recently_replays_the_journaled_status() {
        let mut rig = Rig::new(config(2));
        let req = job("r1", 8);
        let resume = Replay {
            replayed: 2,
            ledger: StatsSnapshot {
                accepted: 1,
                errored: 1,
                ..StatsSnapshot::default()
            },
            settled: vec![(key(&req), Status::Error, "boom".into())],
            inflight: Vec::new(),
        };
        assert!(rig.step(Event::Replay(resume)).is_empty());
        let fx = rig.request(1, req);
        assert!(sends(&fx).is_empty() && records(&fx).is_empty());
        let [(1, ref resp)] = replies(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert_eq!((resp.status, resp.reason.as_str()), (Status::Error, "boom"));
        assert_eq!(resp.result["replayed"], "journal");
        let snap = rig.snap();
        assert_eq!((snap.ledger.accepted, snap.ledger.errored), (1, 1));
        assert_eq!(snap.journal_replayed, 2);
    }

    #[test]
    fn shard_death_redispatches_without_spending_the_budget() {
        let mut rig = Rig::new(RouterConfig {
            retry_budget_pct: 0,
            ..config(3)
        });
        let mut sent = Vec::new();
        for n in 0..24 {
            let fx = rig.request(n as u32, job(&format!("r{n}"), 8 + n));
            sent.extend(sends(&fx));
        }
        let victim = sent[0].0;
        let orphans = sent.iter().filter(|(s, _)| *s == victim).count();
        let fx = rig.step(Event::ShardDown {
            shard: victim,
            epoch: Some(0),
        });
        assert!(matches!(fx[0], Effect::Kill { shard } if shard == victim));
        let retries: Vec<u64> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::RetryAfter { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(retries.len(), orphans);
        assert!(!rig.core.busy_on(victim));
        for job in retries {
            let fx = rig.step_sent(Event::Retry { job });
            let [(shard, env)] = sends(&fx)[..] else {
                panic!("{fx:?}")
            };
            assert_ne!(shard, victim);
            sent.push((shard, env));
        }
        // A write that fails orphans its job too, and takes its shard
        // down with every job on it: all re-dispatch, still free.
        let fx = rig.step(Event::Request {
            client: 99,
            conn: 0,
            req: job("late", 99),
        });
        let [(broken, env)] = sends(&fx)[..] else {
            panic!("{fx:?}")
        };
        let fx = rig.step(Event::SendFailed { shard: broken, env });
        assert!(matches!(fx[0], Effect::Kill { shard } if shard == broken));
        let retries: Vec<u64> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::RetryAfter { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(!retries.is_empty(), "the failed write re-dispatches");
        for job in retries {
            let fx = rig.step_sent(Event::Retry { job });
            sent.extend(sends(&fx));
        }
        for (shard, env) in sent {
            if shard != victim && shard != broken {
                rig.step(Event::ShardReply(reply_to(env, Status::Completed)));
            }
        }
        let snap = rig.snap();
        assert!(rig.core.idle() && snap.ledger.balanced());
        assert_eq!(
            (
                snap.ledger.accepted,
                snap.ledger.completed,
                snap.ledger.shed
            ),
            (25, 25, 0)
        );
        assert_eq!((snap.retry_spent, snap.retry_budget_exhausted), (0, 0));
        assert!(snap.redispatched as usize > orphans);
    }

    /// A 3-shard rig with fixed 50 ms hedging and one job admitted at 0.
    fn hedged() -> (Rig, usize, u64) {
        let mut rig = Rig::new(RouterConfig {
            hedge_ms: Some(50),
            retry_budget_pct: 100,
            ..config(3)
        });
        let fx = rig.request(1, job("r1", 8));
        let (primary, env) = sends(&fx)[0];
        (rig, primary, env)
    }

    #[test]
    fn a_hedge_is_due_at_its_delay_and_wins() {
        let (mut rig, primary, primary_env) = hedged();
        rig.now = ms(49);
        assert!(rig.step(Event::Tick).is_empty());
        rig.now = ms(50);
        let fx = rig.step(Event::Tick);
        let [(hedge, hedge_env)] = sends(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert_ne!(hedge, primary);
        assert_eq!(rig.snap().hedges_launched, 0, "launched once on the wire");
        let fx = rig.step(Event::Sent { env: hedge_env });
        assert!(matches!(&records(&fx)[..], [Record::Hedge { shard, .. }] if *shard == hedge));
        assert_eq!(rig.snap().hedges_launched, 1);
        // At most one hedge per job.
        rig.now = ms(500);
        assert!(rig.step(Event::Tick).is_empty());
        let fx = rig.step(Event::ShardReply(reply_to(hedge_env, Status::Completed)));
        let resp = &replies(&fx)[0].1;
        assert_eq!(resp.result["hedged"], "1");
        assert_eq!(resp.result["shard"], hedge.to_string());
        assert_eq!(resp.result["attempts"], "2");
        let cancel = fx.iter().find_map(|e| match e {
            Effect::Cancel { addr, env } => Some((addr.clone(), *env)),
            _ => None,
        });
        assert_eq!(
            cancel,
            Some((format!("127.0.0.1:{}", 7000 + primary), primary_env))
        );
        let snap = rig.snap();
        assert_eq!((snap.hedges_won, snap.hedges_lost), (1, 0));
        assert!(snap.hedges_balanced() && snap.ledger.balanced());
    }

    #[test]
    fn a_hedge_whose_write_fails_is_refunded() {
        let (mut rig, primary, primary_env) = hedged();
        rig.now = ms(60);
        let fx = rig.step(Event::Tick);
        let [(hedge, hedge_env)] = sends(&fx)[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(rig.snap().retry_spent, 1);
        let fx = rig.step(Event::SendFailed {
            shard: hedge,
            env: hedge_env,
        });
        assert!(
            matches!(fx[..], [Effect::Kill { shard }] if shard == hedge),
            "{fx:?}"
        );
        let snap = rig.snap();
        assert_eq!(
            (snap.retry_spent, snap.hedges_launched, snap.shards_dead),
            (0, 0, 1)
        );
        // The primary still carries the job.
        let fx = rig.step(Event::ShardReply(reply_to(primary_env, Status::Completed)));
        let resp = &replies(&fx)[0].1;
        assert_eq!(resp.result["shard"], primary.to_string());
        assert_eq!(resp.result["attempts"], "1");
        assert!(!resp.result.contains_key("hedged"));
        let snap = rig.snap();
        assert!(snap.hedges_balanced() && snap.ledger.balanced());
    }

    #[test]
    fn a_primary_win_loses_the_hedge_and_cancels_it() {
        let (mut rig, _, primary_env) = hedged();
        rig.now = ms(50);
        let fx = rig.step_sent(Event::Tick);
        let (hedge, hedge_env) = sends(&fx)[0];
        rig.now = ms(70);
        let fx = rig.step(Event::ShardReply(reply_to(primary_env, Status::Completed)));
        assert!(!replies(&fx)[0].1.result.contains_key("hedged"));
        let cancel = fx.iter().find_map(|e| match e {
            Effect::Cancel { addr, env } => Some((addr.clone(), *env)),
            _ => None,
        });
        assert_eq!(
            cancel,
            Some((format!("127.0.0.1:{}", 7000 + hedge), hedge_env))
        );
        // The hedge's late answer is a suppressed duplicate.
        assert!(rig
            .step(Event::ShardReply(reply_to(hedge_env, Status::Completed)))
            .is_empty());
        let snap = rig.snap();
        assert_eq!(
            (snap.hedges_launched, snap.hedges_lost, snap.dup_suppressed),
            (1, 1, 1)
        );
        assert!(snap.hedges_balanced() && snap.ledger.balanced());
    }

    #[test]
    fn an_outlier_is_ejected_then_readmitted_after_probation() {
        let mut rig = Rig::new(RouterConfig {
            eject_probation_ms: 1_000,
            ..config(3)
        });
        let round = |rig: &mut Rig| {
            for (shard, rtt) in [(0, ms(100)), (1, ms(1)), (2, ms(1))] {
                rig.step(Event::Probe {
                    shard,
                    rtt: Some(rtt),
                });
            }
            rig.step(Event::ProbeRound)
        };
        let mut rounds = 0;
        while rig.snap().ejections == 0 {
            rounds += 1;
            assert!(rounds <= 20, "never ejected");
            rig.now += ms(100);
            round(&mut rig);
        }
        let ejected_at = rig.now;
        assert_eq!(rig.core.stats()["shard0_state"], "ejected");
        assert_eq!(rig.snap().shards_live, 2);
        assert!(
            rig.core.probe_targets().iter().any(|(s, _)| *s == 0),
            "still probed"
        );
        // Routing skips it meanwhile.
        let fx = rig.request(1, job("r1", 8));
        assert_ne!(sends(&fx)[0].0, 0);
        rig.now = ejected_at + ms(999);
        round(&mut rig);
        assert_eq!(rig.snap().readmissions, 0);
        rig.now = ejected_at + ms(1_000);
        let fx = rig.step(Event::Probe {
            shard: 0,
            rtt: Some(ms(100)),
        });
        assert!(matches!(&fx[..], [Effect::Log(line)] if line.contains("re-admitted")));
        let snap = rig.snap();
        assert_eq!(
            (snap.readmissions, snap.shards_ejected, snap.shards_live),
            (1, 0, 3)
        );
    }

    #[test]
    fn two_probe_misses_take_a_shard_down() {
        let mut rig = Rig::new(config(2));
        let miss = Event::Probe {
            shard: 1,
            rtt: None,
        };
        assert!(rig.step(miss).is_empty());
        assert_eq!(rig.core.stats()["shard1_state"], "degraded");
        assert_eq!(rig.snap().shards_live, 2, "degraded still routes");
        let fx = rig.step(Event::Probe {
            shard: 1,
            rtt: None,
        });
        assert!(matches!(fx[..], [Effect::Kill { shard: 1 }]));
        assert_eq!(rig.core.stats()["shard1_state"], "dead");
    }

    #[test]
    fn the_breaker_quarantines_after_k_crashes_in_the_window() {
        let mut rig = Rig::new(RouterConfig {
            breaker_k: 3,
            breaker_window_ms: 30_000,
            ..config(2)
        });
        for crash in 1..=3u64 {
            rig.now = ms(crash * 1_000);
            let epoch = rig.core.epoch(0);
            // A reader of an older generation cannot take the shard down.
            if epoch > 0 {
                let stale = Event::ShardDown {
                    shard: 0,
                    epoch: Some(epoch - 1),
                };
                assert!(rig.step(stale).is_empty());
            }
            let fx = rig.step(Event::ShardDown {
                shard: 0,
                epoch: Some(epoch),
            });
            assert!(matches!(fx[..], [Effect::Kill { shard: 0 }]));
            let fx = rig.step(Event::RespawnScan);
            if crash < 3 {
                assert!(matches!(fx[..], [Effect::Spawn { shard: 0, .. }]), "{fx:?}");
                let addr = Ok(format!("127.0.0.1:{}", 8000 + crash));
                rig.step(Event::Respawned { shard: 0, addr });
                assert_eq!(rig.core.epoch(0), crash);
                assert_eq!(rig.core.stats()["shard0_state"], "healthy");
            } else {
                assert!(matches!(&fx[..], [Effect::Log(line)] if line.contains("breaker open")));
            }
        }
        assert!(rig.step(Event::RespawnScan).is_empty(), "never respawned");
        let snap = rig.snap();
        assert_eq!(
            (snap.restarts, snap.breaker_open, snap.shards_quarantined),
            (2, 1, 1)
        );
        assert_eq!(rig.core.stats()["shard0_state"], "quarantined");
        assert!(rig
            .step(Event::ShardDown {
                shard: 0,
                epoch: None
            })
            .is_empty());
    }

    #[test]
    fn crashes_outside_the_window_do_not_trip_the_breaker() {
        let mut rig = Rig::new(RouterConfig {
            breaker_k: 2,
            breaker_window_ms: 1_000,
            ..config(2)
        });
        for crash in 0..4u64 {
            rig.now = ms(crash * 2_000);
            let epoch = rig.core.epoch(0);
            rig.step(Event::ShardDown {
                shard: 0,
                epoch: Some(epoch),
            });
            let fx = rig.step(Event::RespawnScan);
            assert!(matches!(fx[..], [Effect::Spawn { shard: 0, .. }]), "{fx:?}");
            rig.step(Event::Respawned {
                shard: 0,
                addr: Ok("127.0.0.1:9".into()),
            });
        }
        assert_eq!((rig.snap().restarts, rig.snap().breaker_open), (4, 0));
    }

    // -----------------------------------------------------------------
    // Seeded interleavings
    // -----------------------------------------------------------------

    /// A splitmix64 stream.
    struct Oracle(u64);

    impl Oracle {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(1);
            splitmix64(self.0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The shards, clients and journal around a core, plus the checker:
    /// journal order per key, and at most one terminal reply per key.
    struct World {
        core: Core<u32>,
        now: Duration,
        templates: Vec<Request>,
        /// Envelopes each shard has received and not yet answered.
        inbox: Vec<Vec<u64>>,
        up: Vec<bool>,
        epoch: Vec<u64>,
        retries: Vec<u64>,
        spawns: Vec<usize>,
        journal: Vec<Record>,
        /// Per template: its key's record is open (admitted, unsettled).
        open: Vec<bool>,
        settles: Vec<u32>,
        refuses: Vec<u32>,
        terminal_replies: Vec<u32>,
        refusal_replies: Vec<u32>,
    }

    impl World {
        fn template_of(&self, key: &JobKey) -> usize {
            self.templates
                .iter()
                .position(|t| key == &super::tests::key(t))
                .expect("journaled keys belong to templates")
        }

        fn step(&mut self, rng: &mut Oracle, event: Event<u32>) {
            let mut queue = VecDeque::from(self.core.step(self.now, event));
            while let Some(effect) = queue.pop_front() {
                match effect {
                    Effect::Journal(rec) => {
                        let t = self.template_of(match &rec {
                            Record::Admit { key, .. }
                            | Record::Settle { key, .. }
                            | Record::Refuse { key }
                            | Record::Hedge { key, .. } => key,
                        });
                        match rec {
                            Record::Admit { .. } => {
                                assert!(!self.open[t], "admit of an open key");
                                self.open[t] = true;
                            }
                            Record::Settle { .. } | Record::Refuse { .. } => {
                                assert!(self.open[t], "settle or refuse before admit");
                                self.open[t] = false;
                                match rec {
                                    Record::Settle { .. } => self.settles[t] += 1,
                                    _ => self.refuses[t] += 1,
                                }
                            }
                            Record::Hedge { .. } => assert!(self.open[t], "hedge of a closed key"),
                        }
                        self.journal.push(rec);
                    }
                    Effect::Send { shard, env, .. } => {
                        let report = if self.up[shard] && rng.below(100) >= 3 {
                            self.inbox[shard].push(env);
                            Event::Sent { env }
                        } else {
                            self.up[shard] = false;
                            self.inbox[shard].clear();
                            Event::SendFailed { shard, env }
                        };
                        for effect in self.core.step(self.now, report).into_iter().rev() {
                            queue.push_front(effect);
                        }
                    }
                    Effect::Kill { shard } => {
                        self.up[shard] = false;
                        self.inbox[shard].clear();
                    }
                    Effect::Reply { to, resp } => {
                        let t = to as usize;
                        if resp.result.contains_key("attempts") {
                            assert!(
                                self.settles[t] > self.terminal_replies[t],
                                "reply before its settle record"
                            );
                            self.terminal_replies[t] += 1;
                            assert_eq!(
                                self.terminal_replies[t], 1,
                                "second terminal reply for one key"
                            );
                        } else if resp.status == Status::Shed && resp.reason != "draining" {
                            assert!(
                                self.refuses[t] > self.refusal_replies[t],
                                "refusal before its record"
                            );
                            self.refusal_replies[t] += 1;
                        }
                    }
                    Effect::RetryAfter { job, .. } => self.retries.push(job),
                    Effect::Spawn { shard, .. } => self.spawns.push(shard),
                    Effect::Cancel { .. } | Effect::Log(_) => {}
                }
            }
        }

        fn take(rng: &mut Oracle, list: &mut Vec<u64>) -> Option<u64> {
            (!list.is_empty()).then(|| list.swap_remove(rng.below(list.len() as u64) as usize))
        }

        /// One random event; shards answer out of order.
        fn random_event(&mut self, rng: &mut Oracle) {
            self.now += ms(rng.below(15));
            let n = self.up.len();
            let s = rng.below(n as u64) as usize;
            let event = match rng.below(100) {
                0..=24 => {
                    let t = rng.below(self.templates.len() as u64) as usize;
                    Event::Request {
                        client: t as u32,
                        conn: 0,
                        req: self.templates[t].clone(),
                    }
                }
                25..=49 => {
                    let Some(env) = Self::take(rng, &mut self.inbox[s]) else {
                        return;
                    };
                    let status = match rng.below(10) {
                        0 => Status::Shed,
                        1 => Status::Error,
                        _ => Status::Completed,
                    };
                    Event::ShardReply(reply_to(env, status).with_reason("queue full"))
                }
                50..=54 => {
                    if !self.up[s] {
                        return;
                    }
                    self.up[s] = false;
                    self.inbox[s].clear();
                    Event::ShardDown {
                        shard: s,
                        epoch: Some(self.epoch[s]),
                    }
                }
                55..=64 => {
                    let rtt = match (self.up[s], rng.below(4)) {
                        (false, _) | (true, 0) => None,
                        (true, 1) if s == 0 => Some(ms(80)),
                        _ => Some(ms(1 + rng.below(3))),
                    };
                    Event::Probe { shard: s, rtt }
                }
                65..=69 => Event::ProbeRound,
                70..=79 => Event::Tick,
                80..=89 => match Self::take(rng, &mut self.retries) {
                    Some(job) => Event::Retry { job },
                    None => return,
                },
                90..=93 if self.spawns.is_empty() => Event::RespawnScan,
                94..=97 => {
                    let Some(shard) = self.spawns.pop() else {
                        return;
                    };
                    let addr = match rng.below(5) {
                        0 => Err("spawn failed".to_string()),
                        _ => {
                            self.up[shard] = true;
                            self.inbox[shard].clear();
                            Ok(format!("127.0.0.1:{}", 9000 + shard))
                        }
                    };
                    let ok = addr.is_ok();
                    self.step(rng, Event::Respawned { shard, addr });
                    if ok {
                        self.epoch[shard] = self.core.epoch(shard);
                    }
                    return;
                }
                _ => Event::Malformed,
            };
            self.step(rng, event);
        }

        /// Answer everything, retry everything, until nothing is in flight.
        fn settle_all(&mut self, rng: &mut Oracle) {
            for _ in 0..1_000 {
                if self.core.idle() {
                    return;
                }
                self.now += ms(5);
                while let Some(job) = Self::take(rng, &mut self.retries) {
                    self.step(rng, Event::Retry { job });
                }
                for s in 0..self.up.len() {
                    while let Some(env) = Self::take(rng, &mut self.inbox[s]) {
                        self.step(rng, Event::ShardReply(reply_to(env, Status::Completed)));
                    }
                }
            }
            panic!("jobs still in flight after the drain");
        }
    }

    #[test]
    fn seeded_interleavings_keep_the_laws() {
        // What the seeds exercised, summed, so a generator that stops
        // reaching a path fails loudly instead of passing vacuously.
        let mut reached = [0u64; 8];
        for seed in 0..1_000u64 {
            let mut rng = Oracle(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let shards = 2 + rng.below(3) as usize;
            let cfg = RouterConfig {
                hedge_ms: [Some(0), Some(20), None][rng.below(3) as usize],
                retry_budget_pct: [0, 10, 100][rng.below(3) as usize],
                max_attempts: 1 + rng.below(5) as u32,
                breaker_k: 2 + rng.below(3) as u32,
                default_deadline_ms: [None, Some(150)][rng.below(2) as usize],
                ..config(shards)
            };
            let templates: Vec<Request> = (0..10u64)
                .map(|t| job(&format!("r{t}"), 8 + t % 6))
                .collect();
            let count = templates.len();
            let mut world = World {
                core: Core::new(&cfg, &vec![true; shards], true),
                now: Duration::ZERO,
                templates,
                inbox: vec![Vec::new(); shards],
                up: vec![true; shards],
                epoch: vec![0; shards],
                retries: Vec::new(),
                spawns: Vec::new(),
                journal: Vec::new(),
                open: vec![false; count],
                settles: vec![0; count],
                refuses: vec![0; count],
                terminal_replies: vec![0; count],
                refusal_replies: vec![0; count],
            };
            let steps = 40 + rng.below(160);
            for _ in 0..steps {
                world.random_event(&mut rng);
            }
            world.settle_all(&mut rng);
            let snap = world.core.snapshot();
            assert!(snap.ledger.balanced(), "seed {seed}: {:?}", snap.ledger);
            assert!(snap.hedges_balanced(), "seed {seed}: hedge law");
            assert!(
                world.open.iter().all(|o| !o),
                "seed {seed}: open journal key"
            );
            assert_eq!(world.settles, world.terminal_replies, "seed {seed}");
            // Replaying the journal rebuilds the live ledger.
            let replayed = replay(&world.journal);
            assert!(replayed.inflight.is_empty(), "seed {seed}");
            let terminal_only = StatsSnapshot {
                shed: 0,
                rejected: 0,
                ..snap.ledger
            };
            assert_eq!(replayed.ledger, terminal_only, "seed {seed}");
            for (sum, value) in reached.iter_mut().zip([
                snap.redispatched,
                snap.hedges_won,
                snap.hedges_lost,
                snap.hedges_cancelled,
                snap.restarts,
                snap.breaker_open,
                snap.ledger.deadline_exceeded,
                snap.ledger.shed,
            ]) {
                *sum += value;
            }
        }
        assert!(
            reached.iter().all(|&n| n > 0),
            "unexercised path: {reached:?}"
        );
    }
}
