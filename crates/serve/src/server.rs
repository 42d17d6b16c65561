//! The job server: bounded admission and a worker pool with per-job
//! panic isolation, served by the shared [`crate::conn::Endpoint`] and
//! counting into a [`crate::ledger::Ledger`].
//!
//! Thread layout:
//!
//! ```text
//! serve-accept ──── the endpoint's accept loop, final drain and close
//!   ├── serve-conn (one per connection; parses lines, admits jobs,
//!   │               answers control messages inline)
//!   └── serve-worker-{0..W} ── pop → check deadline → run under
//!                              cancel::isolate → one terminal reply
//! ```
//!
//! Invariant the whole design serves: **every accepted job gets exactly
//! one terminal reply**, so the final counters satisfy
//! `accepted == completed + errored + cancelled + deadline_exceeded`.
//! Shed and rejected requests are refused *before* acceptance and are
//! counted separately.
//!
//! Graceful drain (`shutdown` control message or
//! [`ServerHandle::begin_shutdown`]): admission flips to shedding with
//! reason `draining`, queued and in-flight jobs run to their terminal
//! replies (their own deadlines still apply), the queue closes, workers
//! join, and the endpoint closes the remaining connections.

use crate::conn::{Endpoint, Reply, Service};
use crate::jobs::JobSpec;
use crate::ledger::{Ledger, Names, StatsSnapshot};
use crate::proto::{Kind, Request, Response, Status, MAX_LINE_BYTES};
use crate::queue::{BoundedQueue, PushError};
use fmm_faults::cancel::{self, Stopped};
use fmm_faults::{splitmix64, CancelReason, CancelToken};
use fmm_obs::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is sized and bounded.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the one actually bound).
    pub addr: String,
    /// Admission queue capacity — beyond this, requests are shed.
    pub queue_depth: usize,
    /// Worker threads.
    pub workers: usize,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Request lines longer than this are rejected unread.
    pub max_line_bytes: usize,
    /// Seed mixed into per-job trace ids: job `seq` gets trace id
    /// `splitmix64(trace_seed + seq)`, echoed in every terminal reply as
    /// `trace_id` and attached to every span the job records. A request
    /// carrying its own `trace_id` param (16 hex digits — the router's
    /// propagation) overrides the generated id, so the shard's spans
    /// join the caller's trace.
    pub trace_seed: u64,
    /// This server's identity within a fleet, echoed in `health` and
    /// `stats` replies so the router can attribute probes. `None` for a
    /// standalone server.
    pub shard_id: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 32,
            workers: 2,
            default_deadline_ms: None,
            max_line_bytes: MAX_LINE_BYTES,
            trace_seed: 0,
            shard_id: None,
        }
    }
}

/// The ledger's [`fmm_obs`] metric names.
const LEDGER_NAMES: Names = [
    "serve_accepted",
    "serve_completed",
    "serve_errored",
    "serve_cancelled",
    "serve_deadline_exceeded",
    "serve_shed",
    "serve_rejected",
];

/// One admitted unit of work.
struct Job {
    id: String,
    spec: JobSpec,
    token: CancelToken,
    reply: Reply,
    admitted: Instant,
    /// Trace id: `splitmix64(trace_seed + seq)` — or the request's own
    /// `trace_id` param when present — never 0 (0 means "no trace" to
    /// the span layer).
    trace: u64,
    /// Remote parent span id (the router's `route.<kind>` span,
    /// propagated as the `parent_span` param); 0 when absent.
    parent_span: u64,
}

struct Shared {
    cfg: ServerConfig,
    queue: BoundedQueue<Job>,
    ledger: Ledger,
    /// Admission refuses new jobs (reason `draining`).
    draining: AtomicBool,
    started: Instant,
    /// Next job sequence number (trace id input).
    job_seq: AtomicU64,
    /// Deepest the admission queue has ever been.
    queue_hwm: AtomicU64,
    /// Admission-to-terminal-reply latency per job kind, in µs.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Live cancel tokens by request id, for the `cancel` control verb
    /// (the router's cancel-on-lost-hedge path). Entries live from
    /// admission to terminal reply.
    cancels: Mutex<HashMap<String, CancelToken>>,
    /// The worker pool, joined by the drain.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service for Shared {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn admit(self: &Arc<Self>, reply: &Reply, req: Request, _conn: u64) {
        admit_job(self, reply, req);
    }

    fn control(self: &Arc<Self>, reply: &Reply, req: &Request) {
        handle_control(self, reply, req);
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.set_paused(false);
    }

    /// Shed new work, let the backlog reach its terminal replies, then
    /// close the queue and join the workers, so every reply is written.
    fn drain(self: &Arc<Self>) {
        self.begin_drain();
        while !(self.queue.is_empty() && self.ledger.snapshot().balanced()) {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.queue.close();
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
        if fmm_obs::enabled() {
            fmm_obs::gauge("serve_queue_depth", &[], 0.0);
        }
    }
}

/// A running server. Dropping the handle initiates shutdown and blocks
/// until the drain completes.
pub struct ServerHandle(Endpoint<Shared>);

impl ServerHandle {
    /// Bind, spawn workers and the accept loop, and return immediately.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        cancel::silence_cancel_panics();
        let (addr, max_line_bytes) = (cfg.addr.clone(), cfg.max_line_bytes);
        let endpoint = Endpoint::start(&addr, "serve", max_line_bytes, |_| {
            let workers = cfg.workers.max(1);
            let shared = Arc::new(Shared {
                queue: BoundedQueue::new(cfg.queue_depth),
                cfg,
                ledger: Ledger::new(LEDGER_NAMES),
                draining: AtomicBool::new(false),
                started: Instant::now(),
                job_seq: AtomicU64::new(0),
                queue_hwm: AtomicU64::new(0),
                latency: Mutex::new(BTreeMap::new()),
                cancels: Mutex::new(HashMap::new()),
                workers: Mutex::new(Vec::new()),
            });
            *shared.workers.lock().unwrap() = (0..workers)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn worker")
                })
                .collect();
            Ok(shared)
        })?;
        Ok(ServerHandle(endpoint))
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.0.service().ledger.snapshot()
    }

    /// Deepest the admission queue has ever been (the `queue_depth_hwm`
    /// key of the `stats` control reply, surfaced for bench extras).
    pub fn queue_depth_hwm(&self) -> u64 {
        self.0.service().queue_hwm.load(Ordering::SeqCst)
    }

    /// Programmatic equivalent of the `shutdown` control message.
    pub fn begin_shutdown(&self) {
        self.0.begin_shutdown();
    }

    /// Block until the server has fully drained and exited, then return
    /// the final (balanced) counters. Something must initiate shutdown —
    /// a `shutdown` control message or [`ServerHandle::begin_shutdown`] —
    /// or this blocks forever.
    pub fn wait(mut self) -> StatsSnapshot {
        self.0.join();
        self.stats()
    }

    /// [`ServerHandle::begin_shutdown`] + [`ServerHandle::wait`].
    pub fn shutdown_and_wait(self) -> StatsSnapshot {
        self.begin_shutdown();
        self.wait()
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        if fmm_obs::enabled() {
            fmm_obs::gauge("serve_queue_depth", &[], shared.queue.len() as f64);
        }
        run_job(shared, job);
    }
}

/// Result-map counters worth echoing onto the job's root span, so the
/// trace tree shows I/O alongside wall time at each node.
const SPAN_FIELD_KEYS: [&str; 6] = ["io", "loads", "stores", "words", "total_words", "flops"];

fn run_job(shared: &Arc<Shared>, job: Job) {
    let Job {
        id,
        spec,
        token,
        reply,
        admitted,
        trace,
        parent_span,
    } = job;
    // A job whose deadline expired while queued is never started.
    let (status, reason, result) = match token.reason() {
        Some(CancelReason::DeadlineExceeded) => (
            Status::DeadlineExceeded,
            "expired in queue".to_string(),
            BTreeMap::new(),
        ),
        Some(CancelReason::Cancelled) => (
            Status::Cancelled,
            "cancelled in queue".to_string(),
            BTreeMap::new(),
        ),
        None => {
            let _scope = cancel::enter(&token);
            // Every span the job's simulator opens on this thread closes
            // under the job's trace id; the root span is the tree's top.
            let _tracing = fmm_obs::span::trace_scope(trace);
            let mut root = fmm_obs::Span::enter(spec.span_name());
            if parent_span != 0 {
                // The logical parent is the router's route span in
                // another process; the merged trace tree links them.
                root.set_parent(parent_span);
            }
            // A panic becomes a structured `error` reply below, not a
            // backtrace per request.
            let outcome = cancel::isolate(|| spec.run());
            if let Ok(Ok(map)) = &outcome {
                for key in SPAN_FIELD_KEYS {
                    if let Some(v) = map.get(key).and_then(|v| v.parse().ok()) {
                        root.record(key, v);
                    }
                }
            }
            drop(root);
            match outcome {
                Ok(Ok(map)) => (Status::Completed, String::new(), map),
                Ok(Err(e)) => (Status::Error, e, BTreeMap::new()),
                Err(Stopped::Cancelled(CancelReason::DeadlineExceeded)) => {
                    (Status::DeadlineExceeded, String::new(), BTreeMap::new())
                }
                Err(Stopped::Cancelled(CancelReason::Cancelled)) => {
                    (Status::Cancelled, String::new(), BTreeMap::new())
                }
                Err(panic) => (Status::Error, panic.to_string(), BTreeMap::new()),
            }
        }
    };
    shared.ledger.settle(status);
    let latency_us = admitted.elapsed().as_micros() as u64;
    if fmm_obs::enabled() {
        fmm_obs::observe("serve_latency_us", &[], latency_us);
    }
    shared
        .latency
        .lock()
        .unwrap()
        .entry(spec.span_name())
        .or_default()
        .observe(latency_us);
    let mut result = result;
    result.insert("trace_id".into(), format!("{trace:016x}"));
    let mut resp = Response::new(&id, status).with_result(result);
    if !reason.is_empty() {
        resp = resp.with_reason(&reason);
    }
    // The job is terminal: its token can no longer be cancelled to any
    // effect, so drop it from the cancel-verb registry.
    shared.cancels.lock().unwrap().remove(&id);
    reply.send(&resp);
}

fn admit_job(shared: &Arc<Shared>, reply: &Reply, req: Request) {
    if shared.draining.load(Ordering::SeqCst) {
        shared.ledger.shed(reply, &req.id, "draining");
        return;
    }
    let spec = match JobSpec::from_request(req.kind, &req.params) {
        Ok(spec) => spec,
        Err(e) => {
            shared.ledger.reject(reply, &req.id, &e);
            return;
        }
    };
    let token = match req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let seq = shared.job_seq.fetch_add(1, Ordering::SeqCst);
    // A propagated trace id (16 hex digits, from the router) wins over
    // the locally generated one; malformed values fall back silently —
    // tracing must never fail a job.
    let trace = req
        .params
        .get("trace_id")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .filter(|&t| t != 0)
        .unwrap_or_else(
            || match splitmix64(shared.cfg.trace_seed.wrapping_add(seq)) {
                0 => 1, // 0 is the span layer's "no trace" sentinel
                t => t,
            },
        );
    let parent_span = req
        .params
        .get("parent_span")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let job = Job {
        id: req.id.clone(),
        spec,
        token,
        reply: reply.clone(),
        admitted: Instant::now(),
        trace,
        parent_span,
    };
    // Register the token *before* the push: a worker may pop and finish
    // the job (removing the entry) the instant it lands in the queue.
    shared
        .cancels
        .lock()
        .unwrap()
        .insert(req.id.clone(), job.token.clone());
    let pushed = shared.ledger.try_accept(|| {
        shared.queue.try_push(job).map_err(|refused| match refused {
            PushError::Full(_) => "queue-full",
            PushError::Closed(_) => "draining",
        })
    });
    match pushed {
        Ok(depth) => {
            shared.queue_hwm.fetch_max(depth as u64, Ordering::SeqCst);
            if fmm_obs::enabled() {
                fmm_obs::gauge("serve_queue_depth", &[], depth as f64);
            }
        }
        Err(reason) => {
            shared.cancels.lock().unwrap().remove(&req.id);
            shared.ledger.shed(reply, &req.id, reason);
        }
    }
}

/// Answer a control request inline.
fn handle_control(shared: &Arc<Shared>, reply: &Reply, req: &Request) {
    match req.kind {
        Kind::Health => {
            let snap = shared.ledger.snapshot();
            let mut m = BTreeMap::new();
            m.insert(
                "uptime_ms".into(),
                shared.started.elapsed().as_millis().to_string(),
            );
            m.insert("queue_depth".into(), shared.queue.len().to_string());
            m.insert("queue_capacity".into(), shared.queue.capacity().to_string());
            m.insert(
                "outstanding".into(),
                snap.accepted.saturating_sub(snap.terminal()).to_string(),
            );
            m.insert(
                "draining".into(),
                shared.draining.load(Ordering::SeqCst).to_string(),
            );
            if let Some(id) = shared.cfg.shard_id {
                m.insert("shard_id".into(), id.to_string());
            }
            reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
        }
        Kind::Stats => {
            let mut m = shared.ledger.snapshot().as_map();
            if let Some(id) = shared.cfg.shard_id {
                m.insert("shard_id".into(), id.to_string());
            }
            m.insert(
                "queue_depth_hwm".into(),
                shared.queue_hwm.load(Ordering::SeqCst).to_string(),
            );
            // Per-kind latency summaries, keys like `latency_io_p50_us`
            // (span names `job.io` / `job.sweep-cell` → `io` /
            // `sweep_cell`). Empty histograms are omitted, never zeros.
            for (kind, h) in shared.latency.lock().unwrap().iter() {
                if h.is_empty() {
                    continue;
                }
                let kind = kind.trim_start_matches("job.").replace('-', "_");
                m.insert(format!("latency_{kind}_count"), h.count.to_string());
                m.insert(format!("latency_{kind}_p50_us"), h.p50().to_string());
                m.insert(format!("latency_{kind}_p95_us"), h.p95().to_string());
                m.insert(format!("latency_{kind}_p99_us"), h.p99().to_string());
            }
            reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
        }
        Kind::Pause => {
            shared.queue.set_paused(true);
            reply.send(&Response::new(&req.id, Status::Ok).with_reason("paused"));
        }
        Kind::Resume => {
            // Ack before releasing the workers: a fast job's completion
            // must never reach the wire ahead of the resume ack.
            reply.send(&Response::new(&req.id, Status::Ok).with_reason("resumed"));
            shared.queue.set_paused(false);
        }
        Kind::Cancel => {
            // Cancel one in-flight job by id — the router's
            // cancel-on-lost-hedge path. Best-effort: a job already at
            // its terminal reply simply isn't found.
            let target = req.params.get("target").cloned().unwrap_or_default();
            if target.is_empty() {
                shared
                    .ledger
                    .reject(reply, &req.id, "cancel needs a 'target' param");
                return;
            }
            let token = shared.cancels.lock().unwrap().get(&target).cloned();
            let mut m = BTreeMap::new();
            match token {
                Some(t) => {
                    t.cancel();
                    m.insert("cancelled".into(), "1".to_string());
                }
                None => {
                    m.insert("cancelled".into(), "0".to_string());
                }
            }
            reply.send(&Response::new(&req.id, Status::Ok).with_result(m));
        }
        Kind::FleetStats
        | Kind::DrainShard
        | Kind::KillShard
        | Kind::StallShard
        | Kind::KillRouter => {
            // Fleet verbs exist in the shared protocol so the router can
            // parse them, but a single shard must answer — not wedge, not
            // panic — when one arrives directly.
            shared.ledger.reject(
                reply,
                &req.id,
                &format!(
                    "'{}' is a fleet verb (send it to a fastmm fleet router)",
                    req.kind.as_str()
                ),
            );
        }
        _ => unreachable!("the endpoint answers job kinds and shutdown"),
    }
}
