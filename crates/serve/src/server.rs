//! The job server: accept loop, connection readers, bounded admission,
//! and a worker pool with per-job panic isolation.
//!
//! Thread layout:
//!
//! ```text
//! serve-accept ──── nonblocking accept; owns drain + worker join
//!   ├── conn reader (one per connection; parses lines, admits jobs,
//!   │                answers control messages inline)
//!   └── serve-worker-{0..W} ── pop → check deadline → run under
//!                              catch_unwind → one terminal reply
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
//! join, and remaining connections are closed.

use crate::jobs::JobSpec;
use crate::proto::{read_bounded_line, Request, Response, Status};
use crate::queue::{BoundedQueue, PushError};
use fmm_faults::{cancel, splitmix64, CancelReason, CancelToken};
use fmm_obs::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
            max_line_bytes: 64 * 1024,
            trace_seed: 0,
            shard_id: None,
        }
    }
}

/// Monotonic event counters (also mirrored into [`fmm_obs`] when
/// telemetry is enabled, under the same names prefixed `serve_`).
#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    errored: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub completed: u64,
    pub errored: u64,
    pub cancelled: u64,
    pub deadline_exceeded: u64,
    pub shed: u64,
    pub rejected: u64,
}

impl StatsSnapshot {
    /// Jobs that reached a terminal reply.
    pub fn terminal(&self) -> u64 {
        self.completed + self.errored + self.cancelled + self.deadline_exceeded
    }

    /// The server's core invariant; holds whenever no job is in flight
    /// (always true for the final snapshot after a drain).
    pub fn balanced(&self) -> bool {
        self.accepted == self.terminal()
    }

    /// Flat map for the `stats` control reply.
    pub fn as_map(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("accepted".into(), self.accepted.to_string());
        m.insert("completed".into(), self.completed.to_string());
        m.insert("errored".into(), self.errored.to_string());
        m.insert("cancelled".into(), self.cancelled.to_string());
        m.insert(
            "deadline_exceeded".into(),
            self.deadline_exceeded.to_string(),
        );
        m.insert("shed".into(), self.shed.to_string());
        m.insert("rejected".into(), self.rejected.to_string());
        m
    }
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            errored: self.errored.load(Ordering::SeqCst),
            cancelled: self.cancelled.load(Ordering::SeqCst),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
        }
    }

    fn bump(&self, which: &AtomicU64, obs_name: &str) {
        which.fetch_add(1, Ordering::SeqCst);
        fmm_obs::add(obs_name, &[], 1);
    }
}

/// Serialised writer half of one connection; replies from the conn
/// reader and from workers interleave line-atomically through the lock.
#[derive(Clone)]
struct Reply(Arc<Mutex<TcpStream>>);

impl Reply {
    fn send(&self, resp: &Response) {
        let line = resp.to_line();
        let mut stream = self.0.lock().unwrap();
        // A vanished client must not take the worker down with it; the
        // job still counted its terminal state.
        let _ = writeln!(stream, "{line}");
        let _ = stream.flush();
    }
}

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
    stats: Stats,
    /// Admission refuses new jobs (reason `draining`).
    draining: AtomicBool,
    /// Tells the accept loop to begin the drain-and-exit sequence.
    shutdown: AtomicBool,
    started: Instant,
    /// Reader halves of live connections by connection serial, closed at
    /// shutdown to unblock their reader threads. Each reader thread
    /// removes its own entry when it exits, so closed connections hold no
    /// descriptor.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Next job sequence number (trace id input).
    job_seq: AtomicU64,
    /// Deepest the admission queue has ever been.
    queue_hwm: AtomicU64,
    /// Admission-to-terminal-reply latency per job kind, in µs.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Live cancel tokens by request id, for the `cancel` control verb
    /// (the router's cancel-on-lost-hedge path). Entries live from
    /// admission to terminal reply.
    cancels: Mutex<std::collections::HashMap<String, CancelToken>>,
}

impl Shared {
    /// Nothing queued and every accepted job terminally replied.
    fn drained(&self) -> bool {
        self.queue.is_empty() && self.stats.snapshot().balanced()
    }

    fn await_drain(&self) {
        while !self.drained() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A running server. Dropping the handle initiates shutdown and blocks
/// until the drain completes.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind, spawn workers and the accept loop, and return immediately.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        cancel::silence_cancel_panics();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue_depth = cfg.queue_depth;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            queue: BoundedQueue::new(queue_depth),
            stats: Stats::default(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            conns: Mutex::new(HashMap::new()),
            job_seq: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            latency: Mutex::new(BTreeMap::new()),
            cancels: Mutex::new(std::collections::HashMap::new()),
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&shared, listener, worker_handles))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Deepest the admission queue has ever been (the `queue_depth_hwm`
    /// key of the `stats` control reply, surfaced for bench extras).
    pub fn queue_depth_hwm(&self) -> u64 {
        self.shared.queue_hwm.load(Ordering::SeqCst)
    }

    /// Programmatic equivalent of the `shutdown` control message.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.set_paused(false);
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the server has fully drained and exited, then return
    /// the final (balanced) counters. Something must initiate shutdown —
    /// a `shutdown` control message or [`ServerHandle::begin_shutdown`] —
    /// or this blocks forever.
    pub fn wait(mut self) -> StatsSnapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }

    /// [`ServerHandle::begin_shutdown`] + [`ServerHandle::wait`].
    pub fn shutdown_and_wait(self) -> StatsSnapshot {
        self.begin_shutdown();
        self.wait()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.begin_shutdown();
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, workers: Vec<JoinHandle<()>>) {
    let mut next_serial = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let serial = next_serial;
                next_serial += 1;
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().insert(serial, clone);
                }
                let shared = Arc::clone(shared);
                // Reader threads are not joined: they exit on EOF, and
                // shutdown closes their sockets out from under them.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        conn_loop(&shared, stream);
                        shared.conns.lock().unwrap().remove(&serial);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    drop(listener);
    // Drain: a conn-initiated shutdown has already waited for this, in
    // which case these are no-ops.
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue.set_paused(false);
    shared.await_drain();
    shared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    fmm_obs::gauge("serve_queue_depth", &[], 0.0);
    for (_, conn) in shared.conns.lock().unwrap().drain() {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        fmm_obs::gauge("serve_queue_depth", &[], shared.queue.len() as f64);
        run_job(shared, job);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
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
            // The panic becomes a structured `error` reply below; mute
            // the default hook so a poison job costs one log line, not a
            // backtrace per request.
            let _quiet = cancel::quiet_panics();
            // Every span the job's simulator opens on this thread closes
            // under the job's trace id; the root span is the tree's top.
            let _tracing = fmm_obs::span::trace_scope(trace);
            let mut root = fmm_obs::Span::enter(spec.span_name());
            if parent_span != 0 {
                // The logical parent is the router's route span in
                // another process; the merged trace tree links them.
                root.set_parent(parent_span);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| spec.run()));
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
                Err(payload) => match cancel::cancelled_reason(payload.as_ref()) {
                    Some(CancelReason::DeadlineExceeded) => {
                        (Status::DeadlineExceeded, String::new(), BTreeMap::new())
                    }
                    Some(CancelReason::Cancelled) => {
                        (Status::Cancelled, String::new(), BTreeMap::new())
                    }
                    None => (
                        Status::Error,
                        format!("panic: {}", panic_message(payload.as_ref())),
                        BTreeMap::new(),
                    ),
                },
            }
        }
    };
    match status {
        Status::Completed => shared
            .stats
            .bump(&shared.stats.completed, "serve_completed"),
        Status::Cancelled => shared
            .stats
            .bump(&shared.stats.cancelled, "serve_cancelled"),
        Status::DeadlineExceeded => shared
            .stats
            .bump(&shared.stats.deadline_exceeded, "serve_deadline_exceeded"),
        _ => shared.stats.bump(&shared.stats.errored, "serve_errored"),
    }
    let latency_us = admitted.elapsed().as_micros() as u64;
    fmm_obs::observe("serve_latency_us", &[], latency_us);
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

fn conn_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let reply = match stream.try_clone() {
        Ok(clone) => Reply(Arc::new(Mutex::new(clone))),
        Err(_) => return,
    };
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
            return;
        }
        if oversized {
            shared.stats.bump(&shared.stats.rejected, "serve_rejected");
            reply.send(&Response::new("", Status::Error).with_reason(&format!(
                "rejected: line exceeds {} bytes",
                shared.cfg.max_line_bytes
            )));
            continue;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                shared.stats.bump(&shared.stats.rejected, "serve_rejected");
                reply
                    .send(&Response::new("", Status::Error).with_reason(&format!("rejected: {e}")));
                continue;
            }
        };
        if req.kind.is_job() {
            admit_job(shared, &reply, req);
        } else if !handle_control(shared, &reply, &req) {
            return;
        }
    }
}

fn admit_job(shared: &Arc<Shared>, reply: &Reply, req: Request) {
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.bump(&shared.stats.shed, "serve_shed");
        reply.send(&Response::new(&req.id, Status::Shed).with_reason("draining"));
        return;
    }
    let spec = match JobSpec::from_request(req.kind, &req.params) {
        Ok(spec) => spec,
        Err(e) => {
            shared.stats.bump(&shared.stats.rejected, "serve_rejected");
            reply.send(
                &Response::new(&req.id, Status::Error).with_reason(&format!("rejected: {e}")),
            );
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
    // Count acceptance *before* the push (and roll back on refusal) so
    // the drain condition `accepted == terminal` can never observe a
    // completed job ahead of its own acceptance.
    shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.queue_hwm.fetch_max(depth as u64, Ordering::SeqCst);
            fmm_obs::add("serve_accepted", &[], 1);
            fmm_obs::gauge("serve_queue_depth", &[], depth as f64);
        }
        Err(PushError::Full(_)) => {
            shared.cancels.lock().unwrap().remove(&req.id);
            shared.stats.accepted.fetch_sub(1, Ordering::SeqCst);
            shared.stats.bump(&shared.stats.shed, "serve_shed");
            reply.send(&Response::new(&req.id, Status::Shed).with_reason("queue-full"));
        }
        Err(PushError::Closed(_)) => {
            shared.cancels.lock().unwrap().remove(&req.id);
            shared.stats.accepted.fetch_sub(1, Ordering::SeqCst);
            shared.stats.bump(&shared.stats.shed, "serve_shed");
            reply.send(&Response::new(&req.id, Status::Shed).with_reason("draining"));
        }
    }
}

/// Answer a control request inline. Returns `false` when the connection
/// should stop reading (after acknowledging a shutdown).
fn handle_control(shared: &Arc<Shared>, reply: &Reply, req: &Request) -> bool {
    use crate::proto::Kind;
    match req.kind {
        Kind::Health => {
            let snap = shared.stats.snapshot();
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
            true
        }
        Kind::Stats => {
            let mut m = shared.stats.snapshot().as_map();
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
            true
        }
        Kind::Pause => {
            shared.queue.set_paused(true);
            reply.send(&Response::new(&req.id, Status::Ok).with_reason("paused"));
            true
        }
        Kind::Resume => {
            // Ack before releasing the workers: a fast job's completion
            // must never reach the wire ahead of the resume ack.
            reply.send(&Response::new(&req.id, Status::Ok).with_reason("resumed"));
            shared.queue.set_paused(false);
            true
        }
        Kind::Shutdown => {
            // Order matters: stop admission, let the backlog reach its
            // terminal replies, acknowledge with the final (balanced)
            // counters, and only then release the accept loop to close
            // sockets — the ack must beat the close.
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue.set_paused(false);
            shared.await_drain();
            reply.send(
                &Response::new(&req.id, Status::Ok).with_result(shared.stats.snapshot().as_map()),
            );
            shared.shutdown.store(true, Ordering::SeqCst);
            false
        }
        Kind::Cancel => {
            // Cancel one in-flight job by id — the router's
            // cancel-on-lost-hedge path. Best-effort: a job already at
            // its terminal reply simply isn't found.
            let target = req.params.get("target").cloned().unwrap_or_default();
            if target.is_empty() {
                shared.stats.bump(&shared.stats.rejected, "serve_rejected");
                reply.send(
                    &Response::new(&req.id, Status::Error)
                        .with_reason("rejected: cancel needs a 'target' param"),
                );
                return true;
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
            true
        }
        Kind::FleetStats | Kind::DrainShard | Kind::KillShard | Kind::StallShard => {
            // Fleet verbs exist in the shared protocol so the router can
            // parse them, but a single shard must answer — not wedge, not
            // panic — when one arrives directly.
            shared.stats.bump(&shared.stats.rejected, "serve_rejected");
            reply.send(&Response::new(&req.id, Status::Error).with_reason(&format!(
                "rejected: '{}' is a fleet verb (send it to a fastmm fleet router)",
                req.kind.as_str()
            )));
            true
        }
        _ => unreachable!("job kinds are routed to admit_job"),
    }
}
