//! The fleet front end: a TCP router speaking the exact `fmm-serve`
//! wire protocol on both sides.
//!
//! Thread layout:
//!
//! ```text
//! router-accept ────── nonblocking accept; owns the drain sequence
//!   ├── router-conn (one per client; admits jobs, answers fleet verbs)
//!   ├── router-shard-{0..N} ── reply reader per shard job connection
//!   ├── router-health ─────── periodic health probes, degraded/dead marks
//!   ├── router-supervisor ─── respawns dead shards (breaker-guarded)
//!   └── router-resume ─────── re-dispatches journal-replayed in-flight jobs
//! ```
//!
//! Invariant, mirroring the single server's: **every job the router
//! accepts gets exactly one terminal reply forwarded to its client**, so
//! the final router ledger (the server's own [`fmm_serve::ledger`])
//! satisfies `accepted == completed + errored + cancelled +
//! deadline_exceeded`.
//! Shed and rejected requests are refused before acceptance. A
//! re-dispatched job (its shard died or shed it back while draining) is
//! counted **exactly once**: idempotency keyed on
//! `(spec_hash, seed, client_tag)` plus a per-job `settled` latch means
//! the first terminal reply wins and later duplicates only bump
//! `dup_suppressed`.
//!
//! Re-dispatch reuses the fault toolkit: each attempt is a fresh
//! seq-tagged envelope (`f<seq:x>` request id), separated by
//! [`fmm_faults::backoff_micros`] seeded exponential backoff, and the
//! job's [`fmm_faults::CancelToken`] — armed at *router* admission —
//! turns a job that out-waits its deadline while bouncing between
//! shards into an honest `deadline-exceeded`.
//!
//! Two crash-robustness layers sit on top (PR 9):
//!
//! * **Supervision.** When started with a [`ShardSpawner`]
//!   (`fleet --supervise`), a supervisor thread respawns dead shards
//!   with [`fmm_faults::backoff_micros`]-shaped delays, re-inserting the
//!   replacement at the *same ring index* so sticky routing resumes
//!   untouched. A crash-loop breaker quarantines a shard after
//!   `breaker_k` crashes inside `breaker_window_ms` — a poison shard
//!   redistributes permanently instead of flapping.
//! * **Journaling.** With `journal_path` set, every admission,
//!   settlement, and refusal is appended to a write-ahead JSONL journal
//!   ([`crate::journal`]) *before* the corresponding reply is sent.
//!   After a router SIGKILL, `fleet --resume <journal>` replays the log:
//!   counters and the settled-status table are rebuilt, unsettled
//!   admissions are re-dispatched against the surviving shards, and a
//!   reconnecting client re-sending under the same `client_tag` either
//!   reattaches to the live job or gets the already-settled terminal
//!   status replayed — the conservation law closes across the crash.

use crate::journal::{Journal, Record, Replay};
use crate::outlier::OutlierDetector;
use crate::ring::{spec_hash, Ring};
use fmm_faults::{backoff_micros, splitmix64, CancelReason, CancelToken, LinkChaosSpec};
use fmm_obs::span::SpanRecord;
use fmm_obs::Histogram;
use fmm_serve::conn::{self, control_roundtrip, Reply};
use fmm_serve::jobs::JobSpec;
use fmm_serve::ledger::{Ledger, Names, StatsSnapshot};
use fmm_serve::proto::{read_bounded_line, Kind, Request, Response, Status};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Write-ahead job journal path; `None` disables journaling.
    pub journal_path: Option<String>,
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
    /// Retry budget: hedges and re-dispatches together may spend at
    /// most this percentage of accepted jobs (plus a small floor), so a
    /// brown-out can never amplify into a retry storm. `0` disables
    /// all hedging and re-dispatching beyond first attempts.
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
            max_line_bytes: 64 * 1024,
            poll_ms: 100,
            max_attempts: 5,
            supervise: false,
            breaker_k: 3,
            breaker_window_ms: 30_000,
            journal_path: None,
            allow_kill_router: false,
            chaos_link: None,
            hedge_ms: Some(0),
            retry_budget_pct: 10,
            eject_k: 4.0,
            eject_probation_ms: 1_000,
        }
    }
}

/// Shard health states (stored in an `AtomicU8`). The numeric order is
/// load-bearing: `<= DEGRADED` is routable, `>= DRAINING` is out of the
/// routing and probing rotation's fast path, `>= DEAD` is gone.
const HEALTHY: u8 = 0;
const DEGRADED: u8 = 1;
/// Latency outlier: alive and probed (gray failures answer probes —
/// that is what makes them gray) but routed around like a quarantine,
/// until probation ends and a successful probe re-admits it.
const EJECTED: u8 = 2;
const DRAINING: u8 = 3;
const DEAD: u8 = 4;
/// Crash-loop breaker open: like dead, but the supervisor must never
/// respawn it and nothing may downgrade it back.
const QUARANTINED: u8 = 5;

fn state_name(state: u8) -> &'static str {
    match state {
        HEALTHY => "healthy",
        DEGRADED => "degraded",
        EJECTED => "ejected",
        DRAINING => "draining",
        QUARANTINED => "quarantined",
        _ => "dead",
    }
}

struct Shard {
    idx: usize,
    /// Current address; a respawned shard comes back on a fresh
    /// ephemeral port but keeps its ring index.
    addr: Mutex<String>,
    state: AtomicU8,
    /// Writer half of the persistent job connection; `None` once down.
    conn: Mutex<Option<TcpStream>>,
    /// The spawned `fastmm serve` process, when the router owns it
    /// (kill-shard eligible). `None` in attach mode.
    child: Mutex<Option<Child>>,
    /// Consecutive failed health probes.
    misses: AtomicU32,
    /// Recent unplanned-death timestamps, pruned to the breaker window.
    crashes: Mutex<Vec<Instant>>,
    /// Deliberately removed (drained or shut down): the supervisor must
    /// not resurrect it.
    retired: AtomicBool,
    /// Connection generation, bumped at every respawn; a reply reader
    /// only marks the shard down if its generation is still current.
    epoch: AtomicU64,
    /// When the outlier detector ejected this shard (state `EJECTED`);
    /// probation runs from here.
    ejected_at: Mutex<Option<Instant>>,
}

impl Shard {
    fn routable(&self) -> bool {
        self.state.load(Ordering::SeqCst) <= DEGRADED
    }

    fn addr(&self) -> String {
        self.addr.lock().unwrap().clone()
    }
}

/// Respawn callback: given a shard index, bring up a replacement
/// process/listener and return its address (plus the child process when
/// the caller owns one). Supplied by the fleet binary (re-running
/// `spawn_shard`) or by tests (starting an in-process server).
pub type ShardSpawner = Arc<dyn Fn(usize) -> Result<(String, Option<Child>), String> + Send + Sync>;

/// `(spec_hash, seed param, client_tag)` — the identity under which a
/// job is counted exactly once, however many envelopes carry it.
type IdemKey = (u64, String, String);

/// One admitted job, shared between the admitting connection thread,
/// the shard reply readers, and the down-sweep.
struct JobState {
    client_id: String,
    reply: Reply,
    /// The request as stored at admission (deadline resolved); each
    /// dispatch clones it into a fresh envelope.
    req: Request,
    kind: Kind,
    hash: u64,
    idem: IdemKey,
    /// Dispatch attempts so far (first dispatch counts, hedges count).
    attempts: u32,
    /// Current primary shard assignment (`usize::MAX` before first
    /// dispatch). Hedges do not move it.
    shard: usize,
    /// Where the *first* dispatch went (`usize::MAX` before it): the
    /// shard whose slowness the job's settle latency is attributed to
    /// by the outlier detector, however the job actually finished.
    first_shard: usize,
    /// Every envelope seq ever sent for this job; all are purged from
    /// `pending` at settle.
    envelopes: Vec<u64>,
    /// The hedge envelope, when one was launched (at most one per job).
    hedge_env: Option<u64>,
    /// Shard the hedge went to (`usize::MAX` without one).
    hedge_shard: usize,
    /// Pre-allocated id of the `hedge.<kind>` span (0 = no telemetry).
    hedge_span: u64,
    /// When the hedge launched (span timing).
    hedge_launched: Option<Instant>,
    /// The hedge's outcome (won/lost/cancelled) has been counted;
    /// exactly-once accounting for the hedge conservation law.
    hedge_done: bool,
    /// Never (re-)hedge this job: budget denied it, or its hedge was
    /// already spent.
    hedge_denied: bool,
    settled: bool,
    trace: u64,
    /// Pre-allocated id of the `route.<kind>` span (0 when telemetry is
    /// off); recorded manually at settle since the span crosses threads.
    route_span: u64,
    token: CancelToken,
    admitted: Instant,
    /// Rebuilt from the journal: a re-sent duplicate reattaches instead
    /// of being rejected, and the settle is remembered with its status
    /// so an even later re-send gets the terminal reply replayed.
    resumed: bool,
}

type SharedJob = Arc<Mutex<JobState>>;

impl JobState {
    /// A job admitted (or rebuilt from the journal, `resumed`) and not
    /// yet dispatched; its deadline, `req.deadline_ms` as resolved at
    /// admission, starts now.
    fn admit(
        req: Request,
        reply: Reply,
        idem: IdemKey,
        trace: u64,
        route_span: u64,
        resumed: bool,
    ) -> SharedJob {
        let token = match req.deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        Arc::new(Mutex::new(JobState {
            client_id: req.id.clone(),
            reply,
            kind: req.kind,
            hash: idem.0,
            idem,
            attempts: 0,
            shard: usize::MAX,
            first_shard: usize::MAX,
            envelopes: Vec::new(),
            hedge_env: None,
            hedge_shard: usize::MAX,
            hedge_span: 0,
            hedge_launched: None,
            hedge_done: false,
            hedge_denied: false,
            settled: false,
            trace,
            route_span,
            token,
            admitted: Instant::now(),
            resumed,
            req,
        }))
    }
}

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

/// Router-level observability counters (the job ledger itself is
/// [`SharedRouter::ledger`]).
#[derive(Default)]
struct Counters {
    redispatched: AtomicU64,
    dup_suppressed: AtomicU64,
    shards_killed: AtomicU64,
    malformed_shard_replies: AtomicU64,
    restarts: AtomicU64,
    breaker_open: AtomicU64,
    journal_replayed: AtomicU64,
    resumed_inflight: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    hedges_lost: AtomicU64,
    hedges_cancelled: AtomicU64,
    retry_budget_exhausted: AtomicU64,
    /// Retry-budget tokens spent (hedges + re-dispatches).
    retry_spent: AtomicU64,
}

fn bump(which: &AtomicU64, obs_name: &str) {
    which.fetch_add(1, Ordering::SeqCst);
    if fmm_obs::enabled() {
        fmm_obs::add(obs_name, &[], 1);
    }
}

/// Point-in-time fleet counters, plus whatever final counter maps the
/// drained shards acknowledged with.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Retry-budget tokens spent (hedges + re-dispatches).
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
    pub fn as_map(&self) -> BTreeMap<String, String> {
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

/// Per-shard runtime state of the chaos link layer.
struct LinkState {
    /// Replies read from this shard so far (the `seq` of the garble
    /// oracle and the trigger counter for `stall-after`).
    seq: AtomicU64,
    /// The link delivers nothing until this instant (dynamic
    /// `stall-shard` verb, or an engaged `stall-after`).
    stall_until: Mutex<Option<Instant>>,
    /// The one-shot `stall-after` trigger already fired.
    stall_engaged: AtomicBool,
}

/// The chaos link layer: a seeded adversary between the router and its
/// shards' reply streams. Decisions are pure functions of
/// `(seed, shard, seq)`; the runtime state here only carries them out.
struct LinkChaos {
    spec: LinkChaosSpec,
    links: Vec<LinkState>,
}

struct SharedRouter {
    cfg: RouterConfig,
    ring: Ring,
    shards: Vec<Shard>,
    /// The job ledger (conservation law, shed/rejected refusals).
    ledger: Ledger,
    counters: Counters,
    /// Envelope seq → job. Emptiness means nothing is in flight.
    pending: Mutex<HashMap<u64, SharedJob>>,
    /// Live idempotency keys (admitted, not yet settled).
    idem_live: Mutex<HashMap<IdemKey, SharedJob>>,
    /// Recently settled keys, bounded, for late-duplicate admission
    /// suppression. A `Some((status, reason))` value — recorded for
    /// journal-replayed settles and for settles of resumed jobs — means
    /// a duplicate re-send gets that terminal status *replayed* rather
    /// than a duplicate rejection: the reconnecting client's answer.
    #[allow(clippy::type_complexity)]
    settled_recently: Mutex<(
        VecDeque<IdemKey>,
        HashMap<IdemKey, Option<(Status, String)>>,
    )>,
    /// Write-ahead job journal (`None` when journaling is off).
    journal: Option<Journal>,
    /// Chaos link layer (`None` = clean links).
    chaos: Option<LinkChaos>,
    /// Latency-outlier ejection state, fed by settles and probes,
    /// evaluated once per prober tick.
    outliers: Mutex<OutlierDetector>,
    /// Router-side settle latency per job kind, in µs — the source of
    /// the auto (p95) hedge delay.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// The shard shutdown sequence ran (guards double-drain).
    shards_shut: AtomicBool,
    started: Instant,
    env_seq: AtomicU64,
    admit_seq: AtomicU64,
    shard_acks: Mutex<Vec<Option<BTreeMap<String, String>>>>,
}

/// Rejection reason for a re-sent idempotency key.
const DUPLICATE: &str = "duplicate (spec_hash, seed, client_tag) in flight or recently settled";

/// How many recently settled idempotency keys to remember.
const SETTLED_CAP: usize = 4096;

impl SharedRouter {
    fn alive_mask(&self) -> Vec<bool> {
        self.shards.iter().map(Shard::routable).collect()
    }

    /// Routable shards: `shards_live` in both `health` and `fleet-stats`.
    fn shards_live(&self) -> usize {
        self.shards.iter().filter(|s| s.routable()).count()
    }

    fn snapshot(&self) -> FleetSnapshot {
        let c = &self.counters;
        FleetSnapshot {
            ledger: self.ledger.snapshot(),
            redispatched: c.redispatched.load(Ordering::SeqCst),
            dup_suppressed: c.dup_suppressed.load(Ordering::SeqCst),
            shards_killed: c.shards_killed.load(Ordering::SeqCst),
            malformed_shard_replies: c.malformed_shard_replies.load(Ordering::SeqCst),
            restarts: c.restarts.load(Ordering::SeqCst),
            breaker_open: c.breaker_open.load(Ordering::SeqCst),
            journal_replayed: c.journal_replayed.load(Ordering::SeqCst),
            resumed_inflight: c.resumed_inflight.load(Ordering::SeqCst),
            ejections: c.ejections.load(Ordering::SeqCst),
            readmissions: c.readmissions.load(Ordering::SeqCst),
            hedges_launched: c.hedges_launched.load(Ordering::SeqCst),
            hedges_won: c.hedges_won.load(Ordering::SeqCst),
            hedges_lost: c.hedges_lost.load(Ordering::SeqCst),
            hedges_cancelled: c.hedges_cancelled.load(Ordering::SeqCst),
            retry_budget_exhausted: c.retry_budget_exhausted.load(Ordering::SeqCst),
            retry_spent: c.retry_spent.load(Ordering::SeqCst),
            shards: self.shards.len(),
            shards_live: self.shards_live(),
            shards_dead: self
                .shards
                .iter()
                .filter(|s| s.state.load(Ordering::SeqCst) == DEAD)
                .count(),
            shards_quarantined: self
                .shards
                .iter()
                .filter(|s| s.state.load(Ordering::SeqCst) == QUARANTINED)
                .count(),
            shards_ejected: self
                .shards
                .iter()
                .filter(|s| s.state.load(Ordering::SeqCst) == EJECTED)
                .count(),
            shard_acks: self.shard_acks.lock().unwrap().clone(),
        }
    }

    /// Spend one retry-budget token (a hedge or a re-dispatch). The
    /// budget is `retry_budget_pct`% of accepted jobs plus a small
    /// floor (so a cold fleet can still recover its very first jobs);
    /// `retry_budget_pct = 0` means no tokens, ever.
    fn take_retry_token(&self) -> bool {
        let pct = self.cfg.retry_budget_pct as u64;
        let allowed = if pct == 0 {
            0
        } else {
            self.ledger.accepted().saturating_mul(pct) / 100 + 4
        };
        let took = self
            .counters
            .retry_spent
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |spent| {
                (spent < allowed).then_some(spent + 1)
            })
            .is_ok();
        if !took {
            bump(
                &self.counters.retry_budget_exhausted,
                "router_retry_budget_exhausted",
            );
        }
        took
    }

    /// Refund a token taken for a hedge that never made it onto the
    /// wire (write failure): it bought nothing, it costs nothing.
    fn refund_retry_token(&self) {
        let _ = self
            .counters
            .retry_spent
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1));
    }

    /// Remember a settled key (bounded), optionally with its terminal
    /// status for duplicate-replay.
    fn remember_settled(&self, idem: IdemKey, replayable: Option<(Status, String)>) {
        let mut settled = self.settled_recently.lock().unwrap();
        settled.0.push_back(idem.clone());
        settled.1.insert(idem, replayable);
        while settled.0.len() > SETTLED_CAP {
            if let Some(old) = settled.0.pop_front() {
                settled.1.remove(&old);
            }
        }
    }
}

/// Everything [`RouterHandle::start_with`] may take beyond the config.
#[derive(Default)]
pub struct StartOptions {
    /// Spawned shard processes in shard order (`None` per slot when
    /// attaching to externally managed shards); a missing tail is
    /// treated as all-`None`.
    pub procs: Vec<Option<Child>>,
    /// Respawn callback for the supervisor ([`RouterConfig::supervise`]).
    pub spawner: Option<ShardSpawner>,
    /// A replayed journal to resume from (see [`crate::journal::replay`]).
    pub resume: Option<Replay>,
}

/// A running fleet router. Dropping the handle initiates shutdown and
/// blocks until the drain (including shard shutdowns) completes.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<SharedRouter>,
    accept: Option<JoinHandle<()>>,
}

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
        let io_err = |e: String| std::io::Error::other(e);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut procs = opts.procs;
        procs.resize_with(cfg.shard_addrs.len(), || None);
        let resuming = opts.resume.is_some();
        let journal = match (&cfg.journal_path, resuming) {
            (Some(path), false) => {
                Some(Journal::create(path, cfg.seed, &cfg.shard_addrs).map_err(io_err)?)
            }
            (Some(path), true) => Some(Journal::open_append(path).map_err(io_err)?),
            (None, _) => None,
        };
        let mut shards = Vec::with_capacity(cfg.shard_addrs.len());
        let mut readers = Vec::with_capacity(cfg.shard_addrs.len());
        for (idx, (shard_addr, child)) in cfg.shard_addrs.iter().zip(procs).enumerate() {
            let (state, conn, crashes) = match TcpStream::connect(shard_addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    readers.push(Some(stream.try_clone()?));
                    (HEALTHY, Some(stream), Vec::new())
                }
                Err(e) if resuming => {
                    eprintln!(
                        "fleet: shard {idx} at {shard_addr} unreachable on resume ({e}); \
                         starting it dead"
                    );
                    readers.push(None);
                    (DEAD, None, vec![Instant::now()])
                }
                Err(e) => return Err(e),
            };
            shards.push(Shard {
                idx,
                addr: Mutex::new(shard_addr.clone()),
                state: AtomicU8::new(state),
                conn: Mutex::new(conn),
                child: Mutex::new(child),
                misses: AtomicU32::new(0),
                crashes: Mutex::new(crashes),
                retired: AtomicBool::new(false),
                epoch: AtomicU64::new(0),
                ejected_at: Mutex::new(None),
            });
        }
        let ring = Ring::build(shards.len());
        let n = shards.len();
        let chaos = cfg.chaos_link.clone().map(|spec| LinkChaos {
            spec,
            links: (0..n)
                .map(|_| LinkState {
                    seq: AtomicU64::new(0),
                    stall_until: Mutex::new(None),
                    stall_engaged: AtomicBool::new(false),
                })
                .collect(),
        });
        let outliers = Mutex::new(OutlierDetector::new(n, cfg.eject_k));
        let shared = Arc::new(SharedRouter {
            cfg,
            ring,
            shards,
            ledger: Ledger::new(LEDGER_NAMES),
            counters: Counters::default(),
            pending: Mutex::new(HashMap::new()),
            idem_live: Mutex::new(HashMap::new()),
            settled_recently: Mutex::new((VecDeque::new(), HashMap::new())),
            journal,
            chaos,
            outliers,
            latency: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            shards_shut: AtomicBool::new(false),
            started: Instant::now(),
            env_seq: AtomicU64::new(0),
            admit_seq: AtomicU64::new(0),
            shard_acks: Mutex::new(vec![None; n]),
        });
        let resumed_jobs = match opts.resume {
            Some(replay) => apply_replay(&shared, replay),
            None => Vec::new(),
        };
        for (idx, stream) in readers.into_iter().enumerate() {
            if let Some(stream) = stream {
                spawn_shard_reader(&shared, idx, stream);
            }
        }
        {
            let shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name("router-health".to_string())
                .spawn(move || health_poller(&shared));
        }
        if shared.cfg.hedge_ms != Some(0) {
            let shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name("router-hedge".to_string())
                .spawn(move || hedger(&shared));
        }
        if shared.cfg.supervise {
            if let Some(spawner) = opts.spawner {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("router-supervisor".to_string())
                    .spawn(move || supervisor(&shared, spawner));
            }
        }
        if !resumed_jobs.is_empty() {
            // Dispatch blocks (backoff, possibly no live shard yet), so
            // the replayed in-flight set re-dispatches off-thread while
            // the front end comes up and clients reconnect.
            let shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name("router-resume".to_string())
                .spawn(move || {
                    for job in resumed_jobs {
                        dispatch(&shared, &job);
                    }
                });
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("router-accept".to_string())
                .spawn(move || accept_and_drain(&shared, listener))?
        };
        Ok(RouterHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The front-end address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn snapshot(&self) -> FleetSnapshot {
        self.shared.snapshot()
    }

    /// Programmatic equivalent of the `shutdown` wire verb.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the fleet has fully drained (router pending empty,
    /// every shard shut down or dead), then return the final counters.
    pub fn wait(mut self) -> FleetSnapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.snapshot()
    }

    /// [`RouterHandle::begin_shutdown`] + [`RouterHandle::wait`].
    pub fn shutdown_and_wait(self) -> FleetSnapshot {
        self.begin_shutdown();
        self.wait()
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.begin_shutdown();
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch, settle, re-dispatch
// ---------------------------------------------------------------------

fn route_span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Io => "route.io",
        Kind::Bounds => "route.bounds",
        Kind::Faults => "route.faults",
        Kind::SweepCell => "route.sweep-cell",
        Kind::Kernel => "route.kernel",
        _ => "route.control",
    }
}

/// Envelope `env` of `st`'s request, parented under span `parent` (0 for
/// none) of the shard's trace.
fn envelope(st: &JobState, env: u64, parent: u64) -> String {
    let mut fwd = st.req.clone();
    fwd.id = format!("f{env:x}");
    // Client identity is router-side state, not shard spec.
    fwd.params.remove("client_tag");
    fwd.params
        .insert("trace_id".into(), format!("{:016x}", st.trace));
    if parent != 0 {
        fwd.params.insert("parent_span".into(), parent.to_string());
    }
    fwd.to_line()
}

/// Write one line to shard `idx`'s job connection; `false` when the
/// shard is down or the write fails.
fn send_to_shard(shared: &SharedRouter, idx: usize, line: &str) -> bool {
    match shared.shards[idx].conn.lock().unwrap().as_ref() {
        Some(mut conn) => writeln!(conn, "{line}").and_then(|_| conn.flush()).is_ok(),
        None => false,
    }
}

/// Every distinct in-flight job (a hedged job holds two envelopes),
/// cloned out so no job lock is ever taken under the pending lock.
fn inflight_jobs(shared: &SharedRouter) -> Vec<SharedJob> {
    let pending = shared.pending.lock().unwrap();
    let mut seen: HashSet<*const Mutex<JobState>> = HashSet::new();
    pending
        .values()
        .filter(|j| seen.insert(Arc::as_ptr(j)))
        .cloned()
        .collect()
}

/// Forward the job to the shard the ring picks, retrying (with seeded
/// backoff) over write failures. Lock discipline, here and everywhere:
/// never hold a job lock while taking the pending lock or a conn lock,
/// and never hold the pending lock while taking a job lock *except* in
/// read-only sweeps that clone the `Arc`s out first.
fn dispatch(shared: &Arc<SharedRouter>, job: &SharedJob) {
    loop {
        let alive = shared.alive_mask();
        let (line, env, idx) = {
            let mut st = job.lock().unwrap();
            if st.settled {
                return;
            }
            let Some(idx) = shared.ring.route(st.hash, &alive) else {
                drop(st);
                refuse(shared, job, None);
                return;
            };
            let env = shared.env_seq.fetch_add(1, Ordering::SeqCst);
            let line = envelope(&st, env, st.route_span);
            st.attempts += 1;
            st.shard = idx;
            if st.first_shard == usize::MAX {
                st.first_shard = idx;
            }
            st.envelopes.push(env);
            (line, env, idx)
        };
        shared.pending.lock().unwrap().insert(env, Arc::clone(job));
        if fmm_obs::enabled() {
            fmm_obs::gauge(
                "router_pending",
                &[],
                shared.pending.lock().unwrap().len() as f64,
            );
        }
        if send_to_shard(shared, idx, &line) {
            return;
        }
        // The connection died under us: this envelope will never be
        // answered. Remove it, mark the shard down, and try again.
        shared.pending.lock().unwrap().remove(&env);
        on_shard_down(shared, idx);
        let attempts = job.lock().unwrap().attempts;
        if attempts >= shared.cfg.max_attempts {
            refuse(shared, job, None);
            return;
        }
        if !shared.take_retry_token() {
            let shed = Response::new("", Status::Shed).with_reason("retry-budget-exhausted");
            refuse(shared, job, Some(shed));
            return;
        }
        bump(&shared.counters.redispatched, "router_redispatched");
        std::thread::sleep(Duration::from_micros(backoff_micros(attempts)));
    }
}

/// A shard refused an envelope (shed while draining / queue full), or
/// its process died with the envelope unacknowledged: re-dispatch under
/// a fresh envelope, unless the job's own deadline already passed or
/// the attempt budget is spent.
fn redispatch(shared: &Arc<SharedRouter>, job: &SharedJob, last: Option<Response>) {
    let attempts = {
        let st = job.lock().unwrap();
        if st.settled {
            bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
            return;
        }
        if st.token.reason() == Some(CancelReason::DeadlineExceeded) {
            drop(st);
            settle(
                shared,
                job,
                Response::new("", Status::DeadlineExceeded)
                    .with_reason("expired during re-dispatch"),
                None,
            );
            return;
        }
        st.attempts
    };
    if attempts >= shared.cfg.max_attempts {
        refuse(shared, job, last);
        return;
    }
    // Re-dispatches spend the same budget hedges do: a brown-out that
    // sheds jobs back en masse must not amplify into a retry storm.
    if !shared.take_retry_token() {
        let shed = Response::new("", Status::Shed).with_reason("retry-budget-exhausted");
        refuse(shared, job, Some(shed));
        return;
    }
    bump(&shared.counters.redispatched, "router_redispatched");
    std::thread::sleep(Duration::from_micros(backoff_micros(attempts)));
    dispatch(shared, job);
}

/// Forward a terminal reply to the client and count it — exactly once.
/// `via_env` is the envelope that carried the terminal reply (`None`
/// when the router settled the job itself, e.g. an expired deadline):
/// it decides which side of a hedge race won.
fn settle(shared: &Arc<SharedRouter>, job: &SharedJob, mut resp: Response, via_env: Option<u64>) {
    let (envs, idem, reply, resumed, kind, first_shard, total_ns, loser) = {
        let mut st = job.lock().unwrap();
        if st.settled {
            bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
            return;
        }
        st.settled = true;
        shared.ledger.settle(resp.status);
        let total_ns = st.admitted.elapsed().as_nanos() as u64;
        if fmm_obs::enabled() {
            fmm_obs::observe("router_latency_us", &[], total_ns / 1_000);
        }
        // Close the hedge race: the envelope that settled decides, and
        // the loser's shard gets a best-effort cancel so it stops
        // computing an answer nobody will read.
        let mut loser: Option<(usize, u64)> = None;
        if let Some(henv) = st.hedge_env {
            if !st.hedge_done {
                st.hedge_done = true;
                let won = via_env == Some(henv);
                if won {
                    bump(&shared.counters.hedges_won, "router_hedges_won");
                    resp.result.insert("hedged".into(), "1".into());
                    loser = st
                        .envelopes
                        .iter()
                        .rev()
                        .find(|&&e| e != henv)
                        .map(|&e| (st.shard, e));
                    st.shard = st.hedge_shard;
                } else {
                    bump(&shared.counters.hedges_lost, "router_hedges_lost");
                    loser = Some((st.hedge_shard, henv));
                }
                if st.hedge_span != 0 && fmm_obs::detailed() {
                    if let Some(at) = st.hedge_launched {
                        let ns = at.elapsed().as_nanos() as u64;
                        fmm_obs::global().record_span(SpanRecord {
                            trace: st.trace,
                            id: st.hedge_span,
                            parent: st.route_span,
                            name: hedge_span_name(st.kind),
                            total_ns: ns,
                            self_ns: ns,
                            fields: vec![
                                ("shard", st.hedge_shard as u64),
                                ("won", won as u64),
                            ],
                        });
                    }
                }
            }
        }
        if st.route_span != 0 && fmm_obs::detailed() {
            // The route span crosses threads (opened at admission,
            // closed here), so it is recorded by hand rather than RAII.
            // Its self time cannot subtract the shard's compute (that
            // span lives in the shard's process); the merged trace tree
            // shows both totals side by side.
            fmm_obs::global().record_span(SpanRecord {
                trace: st.trace,
                id: st.route_span,
                parent: 0,
                name: route_span_name(st.kind),
                total_ns,
                self_ns: total_ns,
                fields: vec![("attempts", st.attempts as u64), ("shard", st.shard as u64)],
            });
        }
        resp.id = st.client_id.clone();
        resp.result.insert("shard".into(), st.shard.to_string());
        resp.result
            .insert("attempts".into(), st.attempts.to_string());
        (
            st.envelopes.clone(),
            st.idem.clone(),
            st.reply.clone(),
            st.resumed,
            st.kind,
            st.first_shard,
            total_ns,
            loser,
        )
    };
    // Feed the hedger's per-kind p95 and the outlier detector; settle
    // latency is attributed to the *first* shard the job was sent to —
    // a hedge that rescued a slow primary is evidence against the
    // primary, not for the rescuer.
    shared
        .latency
        .lock()
        .unwrap()
        .entry(kind.as_str())
        .or_default()
        .observe(total_ns / 1_000);
    if first_shard != usize::MAX {
        shared
            .outliers
            .lock()
            .unwrap()
            .record_settle(first_shard, total_ns / 1_000);
    }
    if let Some((shard, env)) = loser {
        cancel_envelope(shared, shard, env);
    }
    // Journal the settle *before* the reply leaves: a SIGKILL between
    // the two re-settles (and replays) rather than double-counts.
    if let Some(j) = &shared.journal {
        j.append(&Record::Settle {
            key: idem.clone(),
            status: resp.status,
            reason: resp.reason.clone(),
        });
    }
    reply.send(&resp);
    {
        let mut pending = shared.pending.lock().unwrap();
        for e in envs {
            pending.remove(&e);
        }
        if fmm_obs::enabled() {
            fmm_obs::gauge("router_pending", &[], pending.len() as f64);
        }
    }
    shared.idem_live.lock().unwrap().remove(&idem);
    // A resumed job's client may still be reconnecting: keep the
    // terminal status replayable. Ordinary settles keep the old
    // duplicate-rejection semantics.
    let replayable = resumed.then(|| (resp.status, resp.reason.clone()));
    shared.remember_settled(idem, replayable);
}

/// Give a job back to the client unadmitted: roll the acceptance back
/// and count the refusal (shed, or rejected when the last shard reply
/// was a pre-admission rejection) so the conservation law stays exact.
fn refuse(shared: &Arc<SharedRouter>, job: &SharedJob, last: Option<Response>) {
    let (idem, reply, client_id) = {
        let mut st = job.lock().unwrap();
        if st.settled {
            bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
            return;
        }
        st.settled = true;
        // A refused job never reaches a terminal reply, so a hedge it
        // launched is voided — the third leg of the conservation law.
        if st.hedge_env.is_some() && !st.hedge_done {
            st.hedge_done = true;
            bump(&shared.counters.hedges_cancelled, "router_hedges_cancelled");
        }
        (st.idem.clone(), st.reply.clone(), st.client_id.clone())
    };
    shared.ledger.unaccept();
    // Cancel the admission in the journal too, or a resume would count
    // an accepted job that never got a terminal reply.
    if let Some(j) = &shared.journal {
        j.append(&Record::Refuse { key: idem.clone() });
    }
    // A shard's own shed or pre-admission rejection passes through;
    // anything else means no shard could take the job.
    match last {
        Some(r) if r.status == Status::Shed => shared.ledger.shed(&reply, &client_id, &r.reason),
        Some(r) if r.status == Status::Error && r.reason.starts_with("rejected: ") => shared
            .ledger
            .reject(&reply, &client_id, &r.reason["rejected: ".len()..]),
        _ => shared.ledger.shed(&reply, &client_id, "no-live-shards"),
    }
    let envs = job.lock().unwrap().envelopes.clone();
    let mut pending = shared.pending.lock().unwrap();
    for e in envs {
        pending.remove(&e);
    }
    drop(pending);
    shared.idem_live.lock().unwrap().remove(&idem);
}

// ---------------------------------------------------------------------
// Hedged requests
// ---------------------------------------------------------------------

fn hedge_span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Io => "hedge.io",
        Kind::Bounds => "hedge.bounds",
        Kind::Faults => "hedge.faults",
        Kind::SweepCell => "hedge.sweep-cell",
        Kind::Kernel => "hedge.kernel",
        _ => "hedge.control",
    }
}

/// Best-effort cancel of one in-flight envelope on its shard (the
/// losing side of a settled hedge race). Fire-and-forget on a detached
/// thread: the job is already settled, nothing waits on this.
fn cancel_envelope(shared: &Arc<SharedRouter>, shard: usize, env: u64) {
    if shard >= shared.shards.len() || !shared.shards[shard].routable() {
        return;
    }
    let addr = shared.shards[shard].addr();
    let max_line_bytes = shared.cfg.max_line_bytes;
    let _ = std::thread::Builder::new()
        .name("router-cancel".to_string())
        .spawn(move || {
            let mut req = Request::new("hc", Kind::Cancel);
            req.params.insert("target".into(), format!("f{env:x}"));
            let _ = control_roundtrip(&addr, &req, Duration::from_secs(2), max_line_bytes);
        });
}

/// The hedge delay for one job kind: fixed when configured, otherwise
/// the router's own observed p95 settle latency for that kind (with a
/// 50ms floor until enough samples exist to trust the tail).
fn hedge_delay(shared: &SharedRouter, kind: Kind) -> Duration {
    if let Some(ms) = shared.cfg.hedge_ms {
        return Duration::from_millis(ms);
    }
    let latency = shared.latency.lock().unwrap();
    let p95_us = latency
        .get(kind.as_str())
        .filter(|h| h.count >= 16)
        .map(|h| h.p95());
    match p95_us {
        Some(us) => Duration::from_micros(us.max(50_000)),
        None => Duration::from_millis(50),
    }
}

/// Scan the in-flight set and launch hedges for jobs that have
/// out-waited their kind's hedge delay. At most one hedge per job; the
/// duplicate goes to the next alive ring shard (primary masked) under
/// the *same* idempotency key, so whichever reply loses the race is a
/// dup-suppressed late duplicate, not a double count.
fn hedger(shared: &Arc<SharedRouter>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
        for job in inflight_jobs(shared) {
            let due = {
                let st = job.lock().unwrap();
                if st.settled
                    || st.hedge_env.is_some()
                    || st.hedge_denied
                    || st.shard == usize::MAX
                {
                    continue;
                }
                st.admitted.elapsed() >= hedge_delay(shared, st.kind)
            };
            if due {
                launch_hedge(shared, &job);
            }
        }
    }
}

/// Launch the (single) hedge for one overdue job.
fn launch_hedge(shared: &Arc<SharedRouter>, job: &SharedJob) {
    // Pick the target before spending budget: with nowhere to send a
    // hedge (single live shard), the job just keeps waiting for free.
    let mut alive = shared.alive_mask();
    let (line, env, idx) = {
        let st = job.lock().unwrap();
        if st.settled || st.hedge_env.is_some() || st.hedge_denied {
            return;
        }
        if st.shard < alive.len() {
            alive[st.shard] = false;
        }
        let Some(idx) = shared.ring.route(st.hash, &alive) else {
            return;
        };
        drop(st);
        if !shared.take_retry_token() {
            job.lock().unwrap().hedge_denied = true;
            return;
        }
        let mut st = job.lock().unwrap();
        if st.settled || st.hedge_env.is_some() {
            shared.refund_retry_token();
            return;
        }
        let env = shared.env_seq.fetch_add(1, Ordering::SeqCst);
        st.hedge_span = if fmm_obs::detailed() {
            fmm_obs::span::next_span_id()
        } else {
            0
        };
        let line = envelope(&st, env, st.hedge_span);
        st.attempts += 1;
        st.hedge_env = Some(env);
        st.hedge_shard = idx;
        st.hedge_launched = Some(Instant::now());
        st.envelopes.push(env);
        (line, env, idx)
    };
    shared.pending.lock().unwrap().insert(env, Arc::clone(job));
    if !send_to_shard(shared, idx, &line) {
        // The hedge never made it onto the wire: unwind it entirely —
        // refund the token, clear the fields, and let the primary (or
        // a later hedge attempt) carry the job.
        shared.pending.lock().unwrap().remove(&env);
        let mut st = job.lock().unwrap();
        st.hedge_env = None;
        st.hedge_shard = usize::MAX;
        st.hedge_launched = None;
        st.attempts = st.attempts.saturating_sub(1);
        if let Some(pos) = st.envelopes.iter().rposition(|&e| e == env) {
            st.envelopes.remove(pos);
        }
        drop(st);
        shared.refund_retry_token();
        on_shard_down(shared, idx);
        return;
    }
    bump(&shared.counters.hedges_launched, "router_hedges_launched");
    if let Some(j) = &shared.journal {
        let idem = job.lock().unwrap().idem.clone();
        j.append(&Record::Hedge {
            key: idem,
            shard: idx,
        });
    }
}

// ---------------------------------------------------------------------
// Shard side: reply reader, death sweep, health poller
// ---------------------------------------------------------------------

fn shard_reader(shared: &Arc<SharedRouter>, idx: usize, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut oversized = false;
    loop {
        if !read_bounded_line(
            &mut reader,
            &mut buf,
            shared.cfg.max_line_bytes,
            &mut oversized,
        ) {
            break;
        }
        if oversized {
            bump(
                &shared.counters.malformed_shard_replies,
                "router_malformed_shard_replies",
            );
            continue;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // The chaos link layer sits here, on the read path only: the
        // write already flowed and the shard already computed — only
        // the *reply* arrives late, not at all for a while, or mangled.
        // Exactly the gray failure where recomputing elsewhere (a
        // hedge) beats waiting.
        if let Some(chaos) = &shared.chaos {
            let link = &chaos.links[idx];
            let seq = link.seq.fetch_add(1, Ordering::SeqCst);
            if !link.stall_engaged.load(Ordering::SeqCst) {
                if let Some(after) = chaos.spec.stall_after_for(idx) {
                    if seq + 1 == after && !link.stall_engaged.swap(true, Ordering::SeqCst) {
                        let until = Instant::now() + Duration::from_millis(chaos.spec.stall_ms);
                        *link.stall_until.lock().unwrap() = Some(until);
                        eprintln!(
                            "fleet: chaos link to shard {idx} stalling for {}ms \
                             (stall-after={after} hit)",
                            chaos.spec.stall_ms
                        );
                    }
                }
            }
            // Wait out an active stall in small slices so router
            // shutdown is never held hostage by a chaos plan.
            loop {
                let until = *link.stall_until.lock().unwrap();
                let Some(until) = until else { break };
                let now = Instant::now();
                if now >= until {
                    *link.stall_until.lock().unwrap() = None;
                    break;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep((until - now).min(Duration::from_millis(20)));
            }
            if let Some(ms) = chaos.spec.delay_for(idx) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if chaos.spec.garbles(idx, seq) {
                // Corrupted in flight: indistinguishable from a line
                // that fails to parse, so count it exactly like one.
                bump(
                    &shared.counters.malformed_shard_replies,
                    "router_malformed_shard_replies",
                );
                continue;
            }
        }
        // A malformed or unknown-status line from a shard must never
        // wedge or panic the router: count it, skip it, keep reading.
        let resp = match Response::parse(line) {
            Ok(r) => r,
            Err(_) => {
                bump(
                    &shared.counters.malformed_shard_replies,
                    "router_malformed_shard_replies",
                );
                continue;
            }
        };
        handle_shard_reply(shared, resp);
    }
    // EOF: the shard exited (killed, drained, or shutdown closed it).
    // The epoch-guarded wrapper in [`spawn_shard_reader`] marks it down
    // — unless a respawn already replaced this connection.
}

fn handle_shard_reply(shared: &Arc<SharedRouter>, resp: Response) {
    // Envelopes are seq-tagged `f<seq:x>`; anything else (a stray
    // control ack, an unknown-verb reply echoing some other id) cannot
    // be matched to a job and is dropped after counting.
    let env = resp
        .id
        .strip_prefix('f')
        .and_then(|h| u64::from_str_radix(h, 16).ok());
    let Some(env) = env else {
        bump(
            &shared.counters.malformed_shard_replies,
            "router_malformed_shard_replies",
        );
        return;
    };
    let job = shared.pending.lock().unwrap().remove(&env);
    let Some(job) = job else {
        // Already settled via another envelope (late duplicate), or a
        // reply to an envelope this router never sent.
        bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
        return;
    };
    if resp.is_terminal_job_reply() {
        settle(shared, &job, resp, Some(env));
    } else {
        // A *hedge* envelope shed back (its shard was draining or
        // full) simply drops out of the race: the primary is still in
        // flight, so nothing re-dispatches — the hedge just lost.
        let hedge_out = {
            let mut st = job.lock().unwrap();
            if !st.settled && st.hedge_env == Some(env) && !st.hedge_done {
                st.hedge_done = true;
                true
            } else {
                false
            }
        };
        if hedge_out {
            bump(&shared.counters.hedges_lost, "router_hedges_lost");
            return;
        }
        // Shed (draining / queue-full), a pre-admission rejection the
        // router's own validation should have caught, or a nonsense
        // `ok`: the envelope went unhonoured — re-dispatch.
        redispatch(shared, &job, Some(resp));
    }
}

/// Mark a shard dead (idempotent, and never downgrading a quarantine)
/// and re-dispatch every unsettled job assigned to it.
fn on_shard_down(shared: &Arc<SharedRouter>, idx: usize) {
    let shard = &shared.shards[idx];
    let newly_dead = shard
        .state
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
            (s != DEAD && s != QUARANTINED).then_some(DEAD)
        })
        .is_ok();
    if !newly_dead {
        return;
    }
    shard.crashes.lock().unwrap().push(Instant::now());
    fmm_obs::add("router_shard_down", &[], 1);
    if let Some(conn) = shard.conn.lock().unwrap().take() {
        let _ = conn.shutdown(Shutdown::Both);
    }
    if let Some(mut child) = shard.child.lock().unwrap().take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    // Sweep: anything still assigned here re-dispatches.
    for job in inflight_jobs(shared) {
        let orphaned = {
            let st = job.lock().unwrap();
            !st.settled && st.shard == idx
        };
        if orphaned {
            redispatch(shared, &job, None);
        }
    }
}

/// Spawn the reply-reader thread for one shard job connection. `epoch`
/// guards the EOF mark-down: a stale reader from before a respawn must
/// not kill the replacement shard.
fn spawn_shard_reader(shared: &Arc<SharedRouter>, idx: usize, stream: TcpStream) {
    let epoch = shared.shards[idx].epoch.load(Ordering::SeqCst);
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name(format!("router-shard-{idx}"))
        .spawn(move || {
            shard_reader(&shared, idx, stream);
            if shared.shards[idx].epoch.load(Ordering::SeqCst) == epoch {
                on_shard_down(&shared, idx);
            }
        });
}

/// The self-healing loop: respawn dead shards at the *same ring index*
/// (sticky routing resumes untouched), with fmm-faults exponential
/// backoff between attempts — unless the crash-loop breaker says the
/// shard is poison, in which case it is quarantined for good and its
/// keys stay redistributed.
fn supervisor(shared: &Arc<SharedRouter>, spawner: ShardSpawner) {
    let scan = Duration::from_millis(shared.cfg.poll_ms.max(10));
    let window = Duration::from_millis(shared.cfg.breaker_window_ms);
    let mut attempts: Vec<u32> = vec![0; shared.shards.len()];
    while !shared.shutdown.load(Ordering::SeqCst) && !shared.draining.load(Ordering::SeqCst) {
        for shard in &shared.shards {
            if shard.state.load(Ordering::SeqCst) != DEAD || shard.retired.load(Ordering::SeqCst) {
                continue;
            }
            let recent = {
                let mut crashes = shard.crashes.lock().unwrap();
                crashes.retain(|t| t.elapsed() < window);
                crashes.len() as u32
            };
            if recent >= shared.cfg.breaker_k {
                if shard
                    .state
                    .compare_exchange(DEAD, QUARANTINED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    bump(&shared.counters.breaker_open, "router_breaker_open");
                    eprintln!(
                        "fleet: shard {} crash-looped ({recent} crashes in {}ms); \
                         breaker open, shard quarantined",
                        shard.idx, shared.cfg.breaker_window_ms
                    );
                }
                continue;
            }
            attempts[shard.idx] = attempts[shard.idx].saturating_add(1);
            // The fault toolkit's 50µs→5ms curve, shaped to process
            // respawn scale (5ms→500ms).
            std::thread::sleep(Duration::from_micros(
                backoff_micros(attempts[shard.idx]) * 100,
            ));
            match respawn(shared, shard, &spawner) {
                Ok(()) => {
                    attempts[shard.idx] = 0;
                    bump(&shared.counters.restarts, "router_restarts");
                    eprintln!(
                        "fleet: shard {} respawned at {} (ring index unchanged)",
                        shard.idx,
                        shard.addr()
                    );
                }
                Err(e) => eprintln!("fleet: shard {} respawn failed: {e}", shard.idx),
            }
        }
        std::thread::sleep(scan);
    }
}

/// Bring one replacement shard up and splice it into the same slot.
fn respawn(
    shared: &Arc<SharedRouter>,
    shard: &Shard,
    spawner: &ShardSpawner,
) -> Result<(), String> {
    let (new_addr, child) = spawner(shard.idx)?;
    let stream = match TcpStream::connect(&new_addr) {
        Ok(s) => s,
        Err(e) => {
            if let Some(mut c) = child {
                let _ = c.kill();
                let _ = c.wait();
            }
            return Err(format!("connect {new_addr}: {e}"));
        }
    };
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    shard.epoch.fetch_add(1, Ordering::SeqCst);
    *shard.addr.lock().unwrap() = new_addr;
    *shard.conn.lock().unwrap() = Some(stream);
    *shard.child.lock().unwrap() = child;
    shard.misses.store(0, Ordering::SeqCst);
    shard.state.store(HEALTHY, Ordering::SeqCst);
    spawn_shard_reader(shared, shard.idx, reader);
    Ok(())
}

/// Seed a fresh router's counters, settled table, and in-flight set
/// from a replayed journal. Returns the rebuilt jobs, ready to
/// dispatch once the fleet is up.
fn apply_replay(shared: &Arc<SharedRouter>, replay: Replay) -> Vec<SharedJob> {
    let c = &shared.counters;
    shared.ledger.restore(&replay.ledger);
    c.journal_replayed.store(replay.replayed, Ordering::SeqCst);
    c.resumed_inflight
        .store(replay.inflight.len() as u64, Ordering::SeqCst);
    fmm_obs::add("router_journal_replayed", &[], replay.replayed);
    for (key, status, reason) in replay.settled {
        shared.remember_settled(key, Some((status, reason)));
    }
    let mut jobs = Vec::with_capacity(replay.inflight.len());
    for (idem, trace, req_line) in replay.inflight {
        let req = match Request::parse(&req_line) {
            Ok(r) => r,
            Err(e) => {
                // Unreplayable: roll its admission back so the
                // conservation law still closes.
                eprintln!("fleet: resume cannot re-parse a journaled request ({e}); dropping it");
                shared.ledger.unaccept();
                c.resumed_inflight.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
        };
        // The journal records the *resolved* deadline, not elapsed
        // runtime: the budget restarts at resume.
        let job = JobState::admit(req, Reply::discard(), idem.clone(), trace, 0, true);
        shared
            .idem_live
            .lock()
            .unwrap()
            .insert(idem, Arc::clone(&job));
        jobs.push(job);
    }
    jobs
}

fn health_poller(shared: &Arc<SharedRouter>) {
    let poll = Duration::from_millis(shared.cfg.poll_ms.max(10));
    let probation = Duration::from_millis(shared.cfg.eject_probation_ms);
    while !shared.shutdown.load(Ordering::SeqCst) {
        for shard in &shared.shards {
            let state = shard.state.load(Ordering::SeqCst);
            if state >= DRAINING {
                continue;
            }
            // A spawned shard whose process exited is dead regardless
            // of what its socket pretends.
            let exited = shard
                .child
                .lock()
                .unwrap()
                .as_mut()
                .is_some_and(|c| matches!(c.try_wait(), Ok(Some(_))));
            if exited {
                on_shard_down(shared, shard.idx);
                continue;
            }
            // The probe RTT feeds the outlier detector — a gray shard
            // answers probes (that is what makes it gray), but often
            // answers them *slowly*.
            let probed = Instant::now();
            let probe = control_roundtrip(
                &shard.addr(),
                &Request::new("hp", Kind::Health),
                poll.max(Duration::from_millis(50)),
                shared.cfg.max_line_bytes,
            );
            match probe.map(|_| probed.elapsed()) {
                Some(rtt) => {
                    shard.misses.store(0, Ordering::SeqCst);
                    shared
                        .outliers
                        .lock()
                        .unwrap()
                        .record_rtt(shard.idx, rtt.as_micros() as u64);
                    let _ = shard.state.compare_exchange(
                        DEGRADED,
                        HEALTHY,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    // An ejected shard that has served its probation
                    // *and* still answers probes rejoins the ring; its
                    // detector state restarts from scratch so stale
                    // slowness cannot re-eject it on the next tick.
                    let served = shard
                        .ejected_at
                        .lock()
                        .unwrap()
                        .is_some_and(|at| at.elapsed() >= probation);
                    if served
                        && shard
                            .state
                            .compare_exchange(EJECTED, HEALTHY, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                    {
                        *shard.ejected_at.lock().unwrap() = None;
                        shared.outliers.lock().unwrap().reset(shard.idx);
                        bump(&shared.counters.readmissions, "router_readmissions");
                        eprintln!(
                            "fleet: shard {} re-admitted after {}ms probation",
                            shard.idx, shared.cfg.eject_probation_ms
                        );
                    }
                }
                None => {
                    let misses = shard.misses.fetch_add(1, Ordering::SeqCst) + 1;
                    if misses == 1 {
                        if shard
                            .state
                            .compare_exchange(HEALTHY, DEGRADED, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            fmm_obs::add("router_shard_degraded", &[], 1);
                        }
                    } else {
                        // Two consecutive misses: dead. The reply reader's
                        // EOF usually beats us here for a killed process;
                        // this path catches wedged-but-connected shards.
                        on_shard_down(shared, shard.idx);
                    }
                }
            }
        }
        eject_outliers(shared);
        std::thread::sleep(poll);
    }
}

/// One outlier-detector tick: shards whose latency EWMA has been over
/// `eject_k`× the fleet median for [`crate::outlier::STRIKE_WINDOW`]
/// consecutive ticks are ejected — routed around while staying probed —
/// unless doing so would leave fewer than two routable shards.
fn eject_outliers(shared: &Arc<SharedRouter>) {
    let eligible: Vec<bool> = shared
        .shards
        .iter()
        .map(|s| s.state.load(Ordering::SeqCst) <= DEGRADED)
        .collect();
    let flagged = shared.outliers.lock().unwrap().tick(&eligible);
    for idx in flagged {
        let routable = shared.shards.iter().filter(|s| s.routable()).count();
        if routable <= 2 {
            // Ejecting would leave the ring too thin to hedge at all;
            // keep the slow shard and let hedges paper over it.
            return;
        }
        let shard = &shared.shards[idx];
        let moved = shard
            .state
            .compare_exchange(HEALTHY, EJECTED, Ordering::SeqCst, Ordering::SeqCst)
            .or_else(|_| {
                shard
                    .state
                    .compare_exchange(DEGRADED, EJECTED, Ordering::SeqCst, Ordering::SeqCst)
            })
            .is_ok();
        if moved {
            *shard.ejected_at.lock().unwrap() = Some(Instant::now());
            bump(&shared.counters.ejections, "router_ejections");
            eprintln!(
                "fleet: shard {idx} ejected as a latency outlier \
                 (EWMA > {:.1}x fleet median); probation {}ms",
                shared.cfg.eject_k, shared.cfg.eject_probation_ms
            );
            // Jobs already on the ejected shard stay there (it is slow,
            // not gone); new work routes around it, and the hedger
            // rescues whatever the slow link strands.
        }
    }
}

// ---------------------------------------------------------------------
// Client side: accept loop, admission, fleet verbs
// ---------------------------------------------------------------------

fn accept_and_drain(shared: &Arc<SharedRouter>, listener: TcpListener) {
    let serving = Arc::clone(shared);
    let conns = conn::accept_until(
        listener,
        &shared.shutdown,
        "router-conn",
        move |stream, serial| {
            conn::read_requests(
                stream,
                serving.cfg.max_line_bytes,
                &serving.ledger,
                |reply, req| admit(&serving, reply, req, serial),
                |reply, req| handle_control(&serving, reply, req),
            )
        },
    );
    // Drain (no-ops when a wire shutdown already ran the sequence).
    shared.draining.store(true, Ordering::SeqCst);
    await_pending_empty(shared);
    shutdown_shards(shared);
    if fmm_obs::enabled() {
        fmm_obs::gauge("router_pending", &[], 0.0);
    }
    conns.close();
}

fn await_pending_empty(shared: &Arc<SharedRouter>) {
    while !shared.pending.lock().unwrap().is_empty() {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Gracefully shut down every shard that is still up, collecting each
/// ack's final counters (the per-shard half of the conservation story).
fn shutdown_shards(shared: &Arc<SharedRouter>) {
    if shared.shards_shut.swap(true, Ordering::SeqCst) {
        return;
    }
    for shard in &shared.shards {
        // Retire first so the supervisor can never resurrect a shard
        // the drain already decided about.
        shard.retired.store(true, Ordering::SeqCst);
        if shard.state.load(Ordering::SeqCst) >= DEAD {
            continue;
        }
        shard.state.store(DRAINING, Ordering::SeqCst);
        if control_roundtrip(
            &shard.addr(),
            &Request::new("stop", Kind::Shutdown),
            Duration::from_secs(20),
            shared.cfg.max_line_bytes,
        )
        .map(|ack| shared.shard_acks.lock().unwrap()[shard.idx] = Some(ack.result))
        .is_some()
        {
            reap_acked_child(shard);
        }
        on_shard_down(shared, shard.idx);
    }
    // The fleet is down; make the journal durable through its last line.
    if let Some(j) = &shared.journal {
        j.sync();
    }
}

/// A shard that acked a graceful shutdown exits on its own — let it,
/// so its `--metrics` JSONL (span records included) gets flushed,
/// instead of letting [`on_shard_down`]'s unconditional kill cut the
/// flush short. Bounded: a shard that acks and then wedges is killed
/// by the usual path when the wait runs out.
fn reap_acked_child(shard: &Shard) {
    let mut slot = shard.child.lock().unwrap();
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

fn admit(shared: &Arc<SharedRouter>, reply: &Reply, mut req: Request, conn_serial: u64) {
    if shared.draining.load(Ordering::SeqCst) {
        shared.ledger.shed(reply, &req.id, "draining");
        return;
    }
    // Validate params at the router so a healthy shard never has cause
    // to reject an admitted job pre-admission (which would unbalance
    // the conservation law).
    if let Err(e) = JobSpec::from_request(req.kind, &req.params) {
        shared.ledger.reject(reply, &req.id, &e);
        return;
    }
    let hash = spec_hash(req.kind, &req.params);
    // A client that names itself (`client_tag` param) keeps its identity
    // across reconnects — the whole point: its re-sent requests land on
    // the same idempotency keys. Anonymous clients fall back to the
    // per-connection serial, where a reconnect is a new identity.
    let tag = match req.params.get("client_tag") {
        Some(t) => format!("{t}:{}", req.id),
        None => format!("{conn_serial}:{}", req.id),
    };
    let idem: IdemKey = (
        hash,
        req.params.get("seed").cloned().unwrap_or_default(),
        tag,
    );
    let live = shared.idem_live.lock().unwrap().get(&idem).cloned();
    if let Some(job) = live {
        let mut st = job.lock().unwrap();
        if !st.settled {
            if st.resumed {
                // A journal-resumed job whose client came back: swap the
                // live connection in; the settle answers here.
                st.client_id = req.id.clone();
                st.reply = reply.clone();
                drop(st);
                bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
                return;
            }
            drop(st);
            bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
            shared.ledger.reject(reply, &req.id, DUPLICATE);
            return;
        }
        // Settled while we looked: the settled-recently table below has
        // the verdict.
    }
    let settled_dup = shared
        .settled_recently
        .lock()
        .unwrap()
        .1
        .get(&idem)
        .cloned();
    if let Some(replayable) = settled_dup {
        bump(&shared.counters.dup_suppressed, "router_dup_suppressed");
        match replayable {
            Some((status, reason)) => {
                // The job already settled (journal replay, or a resumed
                // job that finished before its client reattached):
                // replay the terminal status instead of rejecting — the
                // client's re-send settles exactly once, with the same
                // answer. No counter moves; the settle was counted.
                let mut resp = Response::new(&req.id, status);
                if !reason.is_empty() {
                    resp = resp.with_reason(&reason);
                }
                resp.result.insert("replayed".into(), "journal".into());
                reply.send(&resp);
            }
            None => shared.ledger.reject(reply, &req.id, DUPLICATE),
        }
        return;
    }
    req.deadline_ms = req.deadline_ms.or(shared.cfg.default_deadline_ms);
    let seq = shared.admit_seq.fetch_add(1, Ordering::SeqCst);
    let trace = match splitmix64(shared.cfg.seed.wrapping_add(seq)) {
        0 => 1,
        t => t,
    };
    let route_span = if fmm_obs::detailed() {
        fmm_obs::span::next_span_id()
    } else {
        0
    };
    // Journal the admission before the first dispatch: a SIGKILL after
    // this line re-dispatches the job at resume instead of losing it.
    if let Some(j) = &shared.journal {
        let shard_hint = shared.ring.route(hash, &shared.alive_mask()).unwrap_or(0);
        j.append(&Record::Admit {
            key: idem.clone(),
            trace_id: trace,
            shard: shard_hint,
            req_line: req.to_line(),
        });
    }
    let job = JobState::admit(req, reply.clone(), idem.clone(), trace, route_span, false);
    shared.ledger.accept();
    shared
        .idem_live
        .lock()
        .unwrap()
        .insert(idem, Arc::clone(&job));
    dispatch(shared, &job);
}

/// Answer a fleet verb inline. Returns `false` when the connection
/// should stop reading (after acknowledging a shutdown).
fn handle_control(shared: &Arc<SharedRouter>, reply: &Reply, req: &Request) -> bool {
    match req.kind {
        Kind::Health => {
            let mut m = BTreeMap::new();
            m.insert(
                "uptime_ms".into(),
                shared.started.elapsed().as_millis().to_string(),
            );
            m.insert("shards".into(), shared.shards.len().to_string());
            m.insert("shards_live".into(), shared.shards_live().to_string());
            m.insert(
                "pending".into(),
                shared.pending.lock().unwrap().len().to_string(),
            );
            m.insert(
                "draining".into(),
                shared.draining.load(Ordering::SeqCst).to_string(),
            );
            reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
            true
        }
        Kind::Stats | Kind::FleetStats => {
            let mut m = shared.snapshot().as_map();
            for shard in &shared.shards {
                m.insert(
                    format!("shard{}_state", shard.idx),
                    state_name(shard.state.load(Ordering::SeqCst)).to_string(),
                );
            }
            reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
            true
        }
        Kind::DrainShard => {
            drain_shard(shared, reply, req);
            true
        }
        Kind::KillShard => {
            kill_shard(shared, reply, req);
            true
        }
        Kind::KillRouter => {
            // Chaos verb: die like a machine does — no drain, no reply,
            // no destructors. Only the journal survives, which is the
            // point; an unjournaled or in-process router refuses (a
            // library must never SIGKILL its host).
            if !shared.cfg.allow_kill_router || shared.journal.is_none() {
                shared.ledger.reject(
                    reply,
                    &req.id,
                    "kill-router requires the fleet binary running with --journal",
                );
                return true;
            }
            if let Some(j) = &shared.journal {
                j.sync();
            }
            let _ = std::process::Command::new("kill")
                .args(["-9", &std::process::id().to_string()])
                .status();
            // SIGKILL is not deliverable to ourselves on some platforms'
            // shells; die abruptly regardless.
            std::process::abort();
        }
        Kind::StallShard => {
            stall_shard(shared, reply, req);
            true
        }
        Kind::Pause | Kind::Resume | Kind::Cancel => {
            shared.ledger.reject(
                reply,
                &req.id,
                "pause/resume/cancel are per-shard verbs (send them to a shard directly)",
            );
            true
        }
        Kind::Shutdown => {
            // Mirror the single server's ordering: stop admission, let
            // everything in flight settle, shut the shards down
            // (collecting their final counters), ack with the router's
            // final — balanced — counters, and only then release the
            // accept loop to close sockets.
            shared.draining.store(true, Ordering::SeqCst);
            await_pending_empty(shared);
            shutdown_shards(shared);
            reply.send(
                &Response::new(&req.id, Status::Ok).with_result(shared.ledger.snapshot().as_map()),
            );
            shared.shutdown.store(true, Ordering::SeqCst);
            false
        }
        _ => unreachable!("job kinds are routed to admit"),
    }
}

/// `drain-shard`: planned removal. Stop routing to the shard, ask it to
/// shut down gracefully, wait for its in-flight terminal replies to
/// flow back over the job connection, and let the shed-back envelopes
/// re-dispatch as they arrive. The ack carries the shard's own final
/// (balanced) counters.
fn drain_shard(shared: &Arc<SharedRouter>, reply: &Reply, req: &Request) {
    let idx = req
        .params
        .get("shard")
        .and_then(|v| v.parse::<usize>().ok());
    let Some(idx) = idx.filter(|&i| i < shared.shards.len()) else {
        shared.ledger.reject(
            reply,
            &req.id,
            "drain-shard requires params.shard = <index>",
        );
        return;
    };
    let shard = &shared.shards[idx];
    if shard.state.load(Ordering::SeqCst) >= DRAINING {
        shared.ledger.reject(
            reply,
            &req.id,
            &format!("shard {idx} is already draining or dead"),
        );
        return;
    }
    shard.retired.store(true, Ordering::SeqCst);
    shard.state.store(DRAINING, Ordering::SeqCst);
    let ack = control_roundtrip(
        &shard.addr(),
        &Request::new("drain", Kind::Shutdown),
        Duration::from_secs(20),
        shared.cfg.max_line_bytes,
    );
    // The shard acked on a separate connection; give the job-connection
    // reader a moment to absorb the terminal/shed replies that are
    // already buffered, so the death sweep below finds (almost) nothing
    // to re-dispatch. Jobs it still finds re-dispatch correctly — the
    // idempotency layer keeps the count exact either way.
    let waited = Instant::now();
    while waited.elapsed() < Duration::from_secs(2) {
        let any_here = inflight_jobs(shared).iter().any(|j| {
            let st = j.lock().unwrap();
            !st.settled && st.shard == idx
        });
        if !any_here {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if ack.is_some() {
        reap_acked_child(shard);
    }
    on_shard_down(shared, idx);
    match ack {
        Some(shard_ack) => {
            shared.shard_acks.lock().unwrap()[idx] = Some(shard_ack.result.clone());
            let mut m = shard_ack.result;
            m.insert("shard".into(), idx.to_string());
            reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
        }
        None => {
            reply.send(&Response::new(&req.id, Status::Error).with_reason(&format!(
                "shard {idx} did not acknowledge its drain (marked dead; jobs re-dispatched)"
            )));
        }
    }
}

/// The victim of a chaos verb among the live (not draining or dead)
/// shards that pass `eligible`: the one named by `params.shard`, or a
/// choice seeded by `params.seed` (default: the router seed). Rejects
/// the verb and returns `None` when there is no such shard; `which`
/// and `verb` word the rejection.
fn pick_victim(
    shared: &SharedRouter,
    reply: &Reply,
    req: &Request,
    which: &str,
    verb: &str,
    eligible: impl Fn(&Shard) -> bool,
) -> Option<usize> {
    let seed = req
        .params
        .get("seed")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(shared.cfg.seed);
    let victims: Vec<usize> = shared
        .shards
        .iter()
        .filter(|s| s.state.load(Ordering::SeqCst) < DRAINING && eligible(s))
        .map(|s| s.idx)
        .collect();
    if victims.is_empty() {
        shared
            .ledger
            .reject(reply, &req.id, &format!("no {which} shards to {verb}"));
        return None;
    }
    match req.params.get("shard").map(|v| v.parse::<usize>()) {
        None => Some(victims[(splitmix64(seed) % victims.len() as u64) as usize]),
        Some(Ok(idx)) if victims.contains(&idx) => Some(idx),
        Some(_) => {
            let reason = format!("params.shard must name a {which} shard");
            shared.ledger.reject(reply, &req.id, &reason);
            None
        }
    }
}

/// `stall-shard`: chaos verb. Freeze the *link* to a live shard — the
/// one named by `params.shard`, or a seeded choice — for the chaos
/// plan's `stall-ms`. The shard keeps executing; its replies just stop
/// arriving, which is exactly the gray failure the outlier detector
/// and the hedger exist for. Requires the chaos link layer: a clean
/// fleet has no machinery to hold replies with.
fn stall_shard(shared: &Arc<SharedRouter>, reply: &Reply, req: &Request) {
    let Some(chaos) = &shared.chaos else {
        shared.ledger.reject(
            reply,
            &req.id,
            "stall-shard requires a fleet started with --chaos-link",
        );
        return;
    };
    let Some(victim) = pick_victim(shared, reply, req, "live", "stall", |_| true) else {
        return;
    };
    let stall_ms = chaos.spec.stall_ms;
    *chaos.links[victim].stall_until.lock().unwrap() =
        Some(Instant::now() + Duration::from_millis(stall_ms));
    eprintln!("fleet: chaos link to shard {victim} stalled for {stall_ms}ms (stall-shard verb)");
    let mut m = BTreeMap::new();
    m.insert("victim".into(), victim.to_string());
    m.insert("stall_ms".into(), stall_ms.to_string());
    reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
}

/// `kill-shard`: chaos verb. SIGKILL a spawned live shard — the one
/// named by `params.shard`, or a seeded choice — and let the
/// reply-reader's EOF trigger the orphan re-dispatch (and, when
/// supervised, the respawn).
fn kill_shard(shared: &Arc<SharedRouter>, reply: &Reply, req: &Request) {
    let spawned = |s: &Shard| s.child.lock().unwrap().is_some();
    let Some(victim) = pick_victim(shared, reply, req, "spawned live", "kill", spawned) else {
        return;
    };
    {
        let mut child = shared.shards[victim].child.lock().unwrap();
        if let Some(c) = child.as_mut() {
            let _ = c.kill(); // SIGKILL on unix
            let _ = c.wait();
        }
    }
    bump(&shared.counters.shards_killed, "router_shards_killed");
    let mut m = BTreeMap::new();
    m.insert("victim".into(), victim.to_string());
    reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
}
