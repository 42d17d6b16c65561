//! Wire protocol: one JSON object per line, both directions.
//!
//! Requests and responses reuse the flat-object JSON dialect of
//! [`fmm_obs::json`] — values are strings, numbers, `null`, or one-level
//! string→string objects — so the server parses with the exact parser
//! `fastmm report` already trusts and emits through the same
//! [`escape_into`] and [`flat_object_into`].
//!
//! Every line is encoded into one pre-sized `String` and leaves through
//! [`write_line`] as a single `write` (one `send()` per line); parsing
//! moves `id`, `reason`, `params` and `result` out of the parsed map
//! instead of copying them. The bytes of a line are pinned by literal
//! tests below: router journals persist request lines, so an old line
//! must still replay.
//!
//! Request:  `{"id":"r1","kind":"io","deadline_ms":500,"params":{"alg":"strassen","n":"32"}}`
//! Response: `{"id":"r1","status":"completed","result":{"io":"93696",...}}`
//!
//! A reply whose `reason` starts with `"rejected:"` was refused *before*
//! admission (malformed line, oversized line, bad params); it does not
//! count against the accepted-jobs balance invariant.

use fmm_obs::json::{escape_into, flat_object_into, parse_line, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Read};

/// The one-`write_all` line writer, shared with the append-only logs of
/// [`fmm_obs::jsonl`]: the write-side sibling of [`read_bounded_line`].
pub use fmm_obs::json::write_line;

/// The default line bound of the server, the router and `loadgen`:
/// longer lines are rejected unread.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Request kinds. Jobs go through the bounded queue; control kinds are
/// answered inline by the connection thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Sequential cache-simulator run ([`fmm_memsim::seq`]).
    Io,
    /// Closed-form lower-bound evaluation ([`fmm_core::bounds`]).
    Bounds,
    /// Fault-injected parallel schedule ([`fmm_memsim::par_faults`]).
    Faults,
    /// One cell of a built-in sweep spec ([`fmm_sweep::run_cell`]).
    SweepCell,
    /// A real cache-blocked multiply ([`fmm_kernel`]): the measured hot
    /// path, not a simulation.
    Kernel,
    /// Liveness probe: uptime, queue depth, outstanding jobs.
    Health,
    /// Counter snapshot.
    Stats,
    /// Stop workers pulling from the queue (admission continues).
    Pause,
    /// Resume workers.
    Resume,
    /// Graceful drain: stop admission, finish in-flight, reply, exit.
    Shutdown,
    /// Router-level counter snapshot (fleet only; a single shard rejects
    /// it).
    FleetStats,
    /// Planned removal of one shard: stop routing to it, drain it, and
    /// re-dispatch whatever it sheds back (fleet only).
    DrainShard,
    /// Chaos verb: SIGKILL one seeded-chosen spawned shard (fleet only).
    KillShard,
    /// Chaos verb: SIGKILL the router process itself, mid-run, with no
    /// drain and no reply — the journal is all that survives (fleet
    /// only, and only when the fleet was started with a journal).
    KillRouter,
    /// Chaos verb: stall one shard's reply link for the configured
    /// stall window (fleet only, and only when the fleet was started
    /// with `--chaos-link` — a gray failure needs a chaos layer to
    /// live in).
    StallShard,
    /// Cancel one in-flight job by its server-side envelope id: the
    /// router's cancel-on-lost-hedge path. The reply reports whether a
    /// live token was found.
    Cancel,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "io" => Kind::Io,
            "bounds" => Kind::Bounds,
            "faults" => Kind::Faults,
            "sweep-cell" => Kind::SweepCell,
            "kernel" => Kind::Kernel,
            "health" => Kind::Health,
            "stats" => Kind::Stats,
            "pause" => Kind::Pause,
            "resume" => Kind::Resume,
            "shutdown" => Kind::Shutdown,
            "fleet-stats" => Kind::FleetStats,
            "drain-shard" => Kind::DrainShard,
            "kill-shard" => Kind::KillShard,
            "kill-router" => Kind::KillRouter,
            "stall-shard" => Kind::StallShard,
            "cancel" => Kind::Cancel,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Io => "io",
            Kind::Bounds => "bounds",
            Kind::Faults => "faults",
            Kind::SweepCell => "sweep-cell",
            Kind::Kernel => "kernel",
            Kind::Health => "health",
            Kind::Stats => "stats",
            Kind::Pause => "pause",
            Kind::Resume => "resume",
            Kind::Shutdown => "shutdown",
            Kind::FleetStats => "fleet-stats",
            Kind::DrainShard => "drain-shard",
            Kind::KillShard => "kill-shard",
            Kind::KillRouter => "kill-router",
            Kind::StallShard => "stall-shard",
            Kind::Cancel => "cancel",
        }
    }

    /// Does this kind go through the admission queue?
    pub(crate) fn is_job(self) -> bool {
        matches!(
            self,
            Kind::Io | Kind::Bounds | Kind::Faults | Kind::SweepCell | Kind::Kernel
        )
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id; required for job kinds (every
    /// terminal reply echoes it), optional for control kinds.
    pub id: String,
    pub kind: Kind,
    /// Wall-clock budget from *admission* (queue wait included).
    pub deadline_ms: Option<u64>,
    /// Job parameters, all strings (the parser's flat-object shape).
    pub params: BTreeMap<String, String>,
}

impl Request {
    pub fn new(id: &str, kind: Kind) -> Request {
        Request {
            id: id.to_string(),
            kind,
            deadline_ms: None,
            params: BTreeMap::new(),
        }
    }

    pub fn with_deadline(mut self, ms: u64) -> Request {
        self.deadline_ms = Some(ms);
        self
    }

    pub fn with_param(mut self, key: &str, value: &str) -> Request {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Parse one request line. The error string is safe to echo to the
    /// client (it never contains unescaped input).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut map = parse_line(line).ok_or("malformed JSON line")?;
        let kind_str = map
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing 'kind'")?;
        let kind = Kind::parse(kind_str).ok_or("unknown 'kind'")?;
        let id = take_str(&mut map, "id");
        if kind.is_job() && id.is_empty() {
            return Err("job requests need a non-empty 'id'".to_string());
        }
        let deadline_ms = match map.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let n = v.as_num().ok_or("'deadline_ms' must be a number")?;
                if !n.is_finite() || n < 0.0 {
                    return Err("'deadline_ms' must be a non-negative number".to_string());
                }
                Some(n as u64)
            }
        };
        let params = take_object(&mut map, "params")?;
        Ok(Request {
            id,
            kind,
            deadline_ms,
            params,
        })
    }

    /// Serialise to one line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = line_head(&self.id, "kind", self.kind.as_str(), 0, &self.params);
        if let Some(ms) = self.deadline_ms {
            let _ = write!(out, ",\"deadline_ms\":{ms}");
        }
        line_tail(out, "params", &self.params)
    }
}

/// Terminal (and control) reply statuses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Job ran to completion; `result` holds its measurements.
    Completed,
    /// Refused at admission: queue full or server draining. Not run.
    Shed,
    /// Job (or request) failed; `reason` explains. A reason starting
    /// with `"rejected:"` means the request was never admitted.
    Error,
    /// Job's token was cancelled explicitly.
    Cancelled,
    /// Job's wall-clock deadline fired before it finished.
    DeadlineExceeded,
    /// Control request succeeded.
    Ok,
}

impl Status {
    pub fn parse(s: &str) -> Option<Status> {
        Some(match s {
            "completed" => Status::Completed,
            "shed" => Status::Shed,
            "error" => Status::Error,
            "cancelled" => Status::Cancelled,
            "deadline-exceeded" => Status::DeadlineExceeded,
            "ok" => Status::Ok,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Status::Completed => "completed",
            Status::Shed => "shed",
            Status::Error => "error",
            Status::Cancelled => "cancelled",
            Status::DeadlineExceeded => "deadline-exceeded",
            Status::Ok => "ok",
        }
    }
}

/// One reply line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echo of the request id ("" when the request had none or was too
    /// malformed to carry one).
    pub id: String,
    pub status: Status,
    /// Shed/error detail; empty otherwise.
    pub reason: String,
    /// Job output (completed) or control payload (ok), all strings.
    pub result: BTreeMap<String, String>,
}

impl Response {
    pub fn new(id: &str, status: Status) -> Response {
        Response {
            id: id.to_string(),
            status,
            reason: String::new(),
            result: BTreeMap::new(),
        }
    }

    pub fn with_reason(mut self, reason: &str) -> Response {
        self.reason = reason.to_string();
        self
    }

    pub fn with_result(mut self, result: BTreeMap<String, String>) -> Response {
        self.result = result;
        self
    }

    /// Was the underlying request admitted and given a terminal state?
    /// (Everything except `ok`, `shed`, and `rejected:`-reason errors.)
    pub fn is_terminal_job_reply(&self) -> bool {
        match self.status {
            Status::Completed | Status::Cancelled | Status::DeadlineExceeded => true,
            Status::Error => !self.reason.starts_with("rejected:"),
            Status::Shed | Status::Ok => false,
        }
    }

    pub fn parse(line: &str) -> Result<Response, String> {
        let mut map = parse_line(line).ok_or("malformed JSON line")?;
        let status_str = map
            .get("status")
            .and_then(Value::as_str)
            .ok_or("missing 'status'")?;
        let status = Status::parse(status_str).ok_or("unknown 'status'")?;
        Ok(Response {
            id: take_str(&mut map, "id"),
            status,
            reason: take_str(&mut map, "reason"),
            result: take_object(&mut map, "result")?,
        })
    }

    /// Serialise to one line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = line_head(
            &self.id,
            "status",
            self.status.as_str(),
            self.reason.len(),
            &self.result,
        );
        if !self.reason.is_empty() {
            out.push_str(",\"reason\":\"");
            escape_into(&mut out, &self.reason);
            out.push('"');
        }
        line_tail(out, "result", &self.result)
    }
}

/// Move string field `key` out of a parsed line; `""` when it is absent
/// or not a string.
fn take_str(map: &mut BTreeMap<String, Value>, key: &str) -> String {
    match map.remove(key) {
        Some(Value::Str(s)) => s,
        _ => String::new(),
    }
}

/// Move object field `key` out of a parsed line; empty when it is absent
/// or `null`.
fn take_object(
    map: &mut BTreeMap<String, Value>,
    key: &str,
) -> Result<BTreeMap<String, String>, String> {
    match map.remove(key) {
        None | Some(Value::Null) => Ok(BTreeMap::new()),
        Some(Value::Object(o)) => Ok(o),
        Some(_) => Err(format!("'{key}' must be an object")),
    }
}

/// Start a line: `{"id":"<id>","<tag>":"<name>"`, in a `String` sized
/// for the whole line (`text` more bytes of free text, `map`'s fields and
/// the framing newline included; escapes aside), so encoding it and
/// [`write_line`] allocate once.
fn line_head(
    id: &str,
    tag: &str,
    name: &str,
    text: usize,
    map: &BTreeMap<String, String>,
) -> String {
    let fields: usize = map.iter().map(|(k, v)| k.len() + v.len() + 6).sum();
    let mut out = String::with_capacity(96 + id.len() + text + fields);
    out.push_str("{\"id\":\"");
    escape_into(&mut out, id);
    out.push_str("\",\"");
    out.push_str(tag);
    out.push_str("\":\"");
    out.push_str(name);
    out.push('"');
    out
}

/// Finish a line: `,"<key>":{...}` unless `map` is empty, then `}`.
fn line_tail(mut out: String, key: &str, map: &BTreeMap<String, String>) -> String {
    if !map.is_empty() {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        flat_object_into(&mut out, map.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    }
    out.push('}');
    out
}

/// Read one bounded line into `buf`. Returns `false` on EOF/error (the
/// stream is done), `true` with `oversized` flagged when the line blew
/// the limit (the remainder has been consumed so the stream stays
/// framed). Shared by the server's connection reader, the router's
/// front-end, and the router's shard-reply readers — every party that
/// must survive an arbitrarily long line from the other side.
pub fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
    oversized: &mut bool,
) -> bool {
    buf.clear();
    *oversized = false;
    match reader
        .by_ref()
        .take((max + 1) as u64)
        .read_until(b'\n', buf)
    {
        Ok(0) | Err(_) => return false,
        Ok(_) => {}
    }
    if buf.len() > max {
        *oversized = true;
        // Swallow the rest of the line so the stream stays framed.
        while !buf.ends_with(b"\n") {
            buf.clear();
            match reader.by_ref().take(4096).read_until(b'\n', buf) {
                Ok(0) | Err(_) => return false,
                Ok(_) => {}
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn request_round_trips_through_its_own_line() {
        let req = Request::new("c0-r17", Kind::Io)
            .with_deadline(2500)
            .with_param("alg", "strassen")
            .with_param("n", "32")
            .with_param("note", "quotes \" and \\ and\nnewlines");
        let parsed = Request::parse(&req.to_line()).unwrap();
        assert_eq!(parsed, req);
    }

    /// The exact bytes of a request line. Router journals persist
    /// `req_line`, so an encoder that changes bytes breaks replay of old
    /// journals even when every round trip still passes.
    #[test]
    fn request_line_bytes_are_pinned() {
        let req = Request::new("c0-r17", Kind::Io)
            .with_deadline(2500)
            .with_param("alg", "strassen")
            .with_param("k\"ey", "q\" b\\ n\n t\t c\u{1} é 🦀");
        let line = r#"{"id":"c0-r17","kind":"io","deadline_ms":2500,"params":{"alg":"strassen","k\"ey":"q\" b\\ n\n t\t c\u0001 é 🦀"}}"#;
        assert_eq!(req.to_line(), line);
        assert_eq!(Request::parse(line).unwrap(), req);
        let bare = Request::new("", Kind::Health);
        assert_eq!(bare.to_line(), r#"{"id":"","kind":"health"}"#);
    }

    #[test]
    fn response_line_bytes_are_pinned() {
        let mut result = BTreeMap::new();
        result.insert("io".to_string(), "93696".to_string());
        result.insert("ratio".to_string(), "1.52".to_string());
        let resp = Response::new("f1a", Status::Error)
            .with_reason("panic: \"boom\"\n")
            .with_result(result);
        let line = r#"{"id":"f1a","status":"error","reason":"panic: \"boom\"\n","result":{"io":"93696","ratio":"1.52"}}"#;
        assert_eq!(resp.to_line(), line);
        assert_eq!(Response::parse(line).unwrap(), resp);
        let bare = Response::new("x", Status::DeadlineExceeded);
        assert_eq!(bare.to_line(), r#"{"id":"x","status":"deadline-exceeded"}"#);
    }

    /// A `Write` that records every call it gets.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl io::Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_makes_one_write_per_line() {
        let mut calls = Calls::default();
        for req in [
            Request::new("", Kind::Health),
            Request::new("c0-r1", Kind::Bounds).with_param("note", "a\nb"),
        ] {
            let line = req.to_line();
            write_line(&mut calls, line.clone()).unwrap();
            assert_eq!(calls.0.last().unwrap(), format!("{line}\n").as_bytes());
        }
        assert_eq!(calls.0.len(), 2, "one write call per line");

        // An append-only log (the router journal, the sweep checkpoint)
        // appends through the same helper: one `write()` per record, so a
        // crash leaves a record whole or torn, never split in two.
        // Counted by the kernel's per-thread I/O accounting, where it is
        // available.
        let syscalls = || -> Option<u64> {
            let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
            io.lines()
                .find_map(|l| l.strip_prefix("syscw: "))?
                .parse()
                .ok()
        };
        let path = std::env::temp_dir().join(format!("fmm-proto-log-{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        let mut log = fmm_obs::jsonl::Log::create(path, "{\"type\":\"header\"}").unwrap();
        let lines: Vec<String> = (0..fmm_obs::jsonl::SYNC_EVERY + 3)
            .map(|i| {
                Request::new(&format!("r{i}"), Kind::Io)
                    .with_param("n", "8")
                    .to_line()
            })
            .collect();
        let before = syscalls();
        for line in &lines {
            log.append(line.clone()).unwrap();
        }
        match (before, syscalls()) {
            (Some(before), Some(after)) => {
                assert_eq!(
                    after - before,
                    lines.len() as u64,
                    "one write() per appended line"
                )
            }
            _ => eprintln!("skipped: no per-thread I/O accounting on this system"),
        }
        drop(log);
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().skip(1).collect::<Vec<_>>(), lines);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn minimal_control_request_round_trips() {
        let req = Request::new("", Kind::Health);
        let parsed = Request::parse(&req.to_line()).unwrap();
        assert_eq!(parsed, req);
        assert!(!parsed.kind.is_job());
    }

    #[test]
    fn response_round_trips_with_result_map() {
        let mut result = BTreeMap::new();
        result.insert("io".to_string(), "93696".to_string());
        result.insert("ratio".to_string(), "1.52".to_string());
        let resp = Response::new("c0-r17", Status::Completed).with_result(result);
        let parsed = Response::parse(&resp.to_line()).unwrap();
        assert_eq!(parsed, resp);
        assert!(parsed.is_terminal_job_reply());
    }

    #[test]
    fn shed_and_rejected_replies_are_not_terminal() {
        let shed = Response::new("x", Status::Shed).with_reason("queue-full");
        assert!(!Response::parse(&shed.to_line())
            .unwrap()
            .is_terminal_job_reply());
        let rejected =
            Response::new("", Status::Error).with_reason("rejected: malformed JSON line");
        assert!(!Response::parse(&rejected.to_line())
            .unwrap()
            .is_terminal_job_reply());
        let poison = Response::new("x", Status::Error).with_reason("panic: boom");
        assert!(Response::parse(&poison.to_line())
            .unwrap()
            .is_terminal_job_reply());
    }

    #[test]
    fn every_kind_and_status_round_trips_its_name() {
        for kind in [
            Kind::Io,
            Kind::Bounds,
            Kind::Faults,
            Kind::SweepCell,
            Kind::Kernel,
            Kind::Health,
            Kind::Stats,
            Kind::Pause,
            Kind::Resume,
            Kind::Shutdown,
            Kind::FleetStats,
            Kind::DrainShard,
            Kind::KillShard,
            Kind::KillRouter,
            Kind::StallShard,
            Kind::Cancel,
        ] {
            assert_eq!(Kind::parse(kind.as_str()), Some(kind));
            assert_eq!(
                kind.is_job(),
                matches!(
                    kind,
                    Kind::Io | Kind::Bounds | Kind::Faults | Kind::SweepCell | Kind::Kernel
                )
            );
        }
        for status in [
            Status::Completed,
            Status::Shed,
            Status::Error,
            Status::Cancelled,
            Status::DeadlineExceeded,
            Status::Ok,
        ] {
            assert_eq!(Status::parse(status.as_str()), Some(status));
        }
    }

    #[test]
    fn malformed_requests_fail_with_reportable_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"kind\":\"nope\"}").is_err());
        assert!(Request::parse("{\"id\":\"x\"}").is_err());
        // Job kinds need an id; control kinds do not.
        assert!(Request::parse("{\"kind\":\"io\"}").is_err());
        assert!(Request::parse("{\"kind\":\"health\"}").is_ok());
        assert!(Request::parse("{\"id\":\"x\",\"kind\":\"io\",\"deadline_ms\":\"soon\"}").is_err());
        assert!(Request::parse("{\"id\":\"x\",\"kind\":\"io\",\"deadline_ms\":-5}").is_err());
        assert!(Request::parse("{\"id\":\"x\",\"kind\":\"io\",\"params\":3}").is_err());
    }

    #[test]
    fn deadline_and_null_fields_parse() {
        let req =
            Request::parse("{\"id\":\"a\",\"kind\":\"io\",\"deadline_ms\":250,\"params\":null}")
                .unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        assert!(req.params.is_empty());
    }
}
