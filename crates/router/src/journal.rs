//! Write-ahead job journal: the router's crash-survivable ledger.
//!
//! One JSONL record per admission and one per settlement, appended
//! *before* the corresponding reply leaves the process, so a SIGKILL at
//! any instant loses at most work the client never heard about.
//! `fastmm fleet --resume <journal>` replays the log to rebuild the
//! idempotency map, the settled-status table, and the in-flight set,
//! then re-dispatches every unsettled admission — closing the fleet
//! conservation law `accepted == completed + errored + cancelled +
//! deadline_exceeded` across the crash.
//!
//! The file is an [`fmm_obs::jsonl`] log, the same one behind the sweep
//! checkpoint: a record is committed once its newline is on disk, every
//! append is one `write(2)` of the whole line, and `sync_data` runs every
//! [`fmm_obs::jsonl::SYNC_EVERY`] records and at drain. [`Journal::reopen`]
//! drops a torn tail (the one partial line a crash mid-append leaves)
//! and truncates it away before the resumed router appends; a malformed
//! committed line is corruption and refuses the resume. This module
//! holds only the header and record schema.
//!
//! Schema (`fmm-journal/v1`), one flat JSON object per line in the
//! [`fmm_obs::json`] dialect:
//!
//! ```text
//! {"type":"header","schema":"fmm-journal/v1","seed":"7",
//!  "shards":"127.0.0.1:4411,127.0.0.1:4412"}
//! {"type":"admit","spec_hash":"…16 hex…","seed":"5","client_tag":"lg-c0:c0-r3",
//!  "trace_id":"…16 hex…","shard":2,"req":"{\"id\":\"c0-r3\",…}"}
//! {"type":"settle","spec_hash":"…","seed":"…","client_tag":"…",
//!  "status":"completed","reason":""}
//! {"type":"refuse","spec_hash":"…","seed":"…","client_tag":"…"}
//! {"type":"hedge","spec_hash":"…","seed":"…","client_tag":"…","shard":1}
//! ```
//!
//! The `req` field embeds the original request line as an escaped
//! string (the flat dialect has no nested objects), so a resumed router
//! can re-dispatch the job byte-identically.

use fmm_obs::json::{escape, parse_line, Value};
use fmm_obs::jsonl::{Contents, Log};
use fmm_serve::ledger::StatsSnapshot;
use fmm_serve::proto::Status;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Schema tag written into every header.
pub const SCHEMA: &str = "fmm-journal/v1";

/// `(spec_hash, seed param, client_tag)` — the identity a job is
/// journaled (and counted) under, mirroring the router's idempotency
/// key.
pub type JobKey = (u64, String, String);

/// The first line of a journal file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// The router seed the run started with.
    pub seed: u64,
    /// Shard addresses in shard-index order at journal creation; resume
    /// reattaches to these (shards outlive a router SIGKILL).
    pub shard_addrs: Vec<String>,
}

/// One journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A job passed admission and is about to dispatch.
    Admit {
        key: JobKey,
        trace_id: u64,
        /// Ring assignment at admission (informational; re-dispatch may
        /// move it).
        shard: usize,
        /// The original request line, verbatim.
        req_line: String,
    },
    /// A job reached its terminal reply (journaled *before* the reply
    /// is sent, so a settled record may outlive an undelivered reply).
    Settle {
        key: JobKey,
        status: Status,
        reason: String,
    },
    /// An accepted job was rolled back pre-settle (shed back to the
    /// client); it no longer counts as accepted.
    Refuse { key: JobKey },
    /// A hedged duplicate dispatch launched for an in-flight job.
    /// Observability only: replay ignores it — the job's ledger entry
    /// is its admit/settle pair, however many envelopes raced.
    Hedge { key: JobKey, shard: usize },
}

impl Record {
    fn key(&self) -> &JobKey {
        match self {
            Record::Admit { key, .. }
            | Record::Settle { key, .. }
            | Record::Refuse { key }
            | Record::Hedge { key, .. } => key,
        }
    }

    fn key_fields(key: &JobKey) -> String {
        format!(
            "\"spec_hash\":\"{:016x}\",\"seed\":\"{}\",\"client_tag\":\"{}\"",
            key.0,
            escape(&key.1),
            escape(&key.2)
        )
    }

    /// Serialise to one line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Record::Admit {
                key,
                trace_id,
                shard,
                req_line,
            } => format!(
                "{{\"type\":\"admit\",{},\"trace_id\":\"{trace_id:016x}\",\"shard\":{shard},\
                 \"req\":\"{}\"}}",
                Self::key_fields(key),
                escape(req_line)
            ),
            Record::Settle {
                key,
                status,
                reason,
            } => format!(
                "{{\"type\":\"settle\",{},\"status\":\"{}\",\"reason\":\"{}\"}}",
                Self::key_fields(key),
                status.as_str(),
                escape(reason)
            ),
            Record::Refuse { key } => {
                format!("{{\"type\":\"refuse\",{}}}", Self::key_fields(key))
            }
            Record::Hedge { key, shard } => format!(
                "{{\"type\":\"hedge\",{},\"shard\":{shard}}}",
                Self::key_fields(key)
            ),
        }
    }
}

type Map = std::collections::BTreeMap<String, Value>;

fn text<'a>(map: &'a Map, k: &str) -> Result<&'a str, String> {
    map.get(k)
        .and_then(Value::as_str)
        .ok_or(format!("missing '{k}'"))
}

fn hex(map: &Map, k: &str) -> Result<u64, String> {
    u64::from_str_radix(text(map, k)?, 16).map_err(|_| format!("bad '{k}'"))
}

fn shard(map: &Map) -> Result<usize, String> {
    let shard = map.get("shard").and_then(Value::as_num);
    shard.map(|n| n as usize).ok_or("bad 'shard'".into())
}

fn parse_key(map: &Map) -> Result<JobKey, String> {
    let (seed, tag) = (text(map, "seed")?, text(map, "client_tag")?);
    Ok((hex(map, "spec_hash")?, seed.to_string(), tag.to_string()))
}

fn parse_record(line: &str) -> Result<Record, String> {
    let map = parse_line(line).ok_or("malformed JSON line")?;
    let kind = text(&map, "type")?;
    let key = parse_key(&map)?;
    match kind {
        "admit" => Ok(Record::Admit {
            key,
            trace_id: hex(&map, "trace_id")?,
            shard: shard(&map)?,
            req_line: text(&map, "req")?.to_string(),
        }),
        "settle" => Ok(Record::Settle {
            key,
            status: Status::parse(text(&map, "status")?).ok_or("bad 'status'")?,
            reason: text(&map, "reason").unwrap_or("").to_string(),
        }),
        "refuse" => Ok(Record::Refuse { key }),
        "hedge" => Ok(Record::Hedge {
            key,
            shard: shard(&map)?,
        }),
        other => Err(format!("unknown record type '{other}'")),
    }
}

fn header_line(seed: u64, shard_addrs: &[String]) -> String {
    format!(
        "{{\"type\":\"header\",\"schema\":\"{SCHEMA}\",\"seed\":\"{seed}\",\"shards\":\"{}\"}}",
        escape(&shard_addrs.join(","))
    )
}

fn parse_header(line: &str) -> Result<Header, String> {
    let map = parse_line(line).ok_or("malformed header line")?;
    if map.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not an {SCHEMA} file"));
    }
    let shards = text(&map, "shards").unwrap_or("").split(',').map(str::trim);
    Ok(Header {
        seed: text(&map, "seed")?.parse().map_err(|_| "bad header seed")?,
        shard_addrs: shards
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect(),
    })
}

/// The append-side handle. All methods are infallible by design: a
/// journal write failure after startup is reported once on stderr and
/// the router keeps serving — losing durability is strictly better than
/// losing the fleet.
pub struct Journal {
    log: Mutex<Log>,
    write_failed: AtomicBool,
}

impl Journal {
    fn new(log: Log) -> Journal {
        Journal {
            log: Mutex::new(log),
            write_failed: AtomicBool::new(false),
        }
    }

    /// Create (truncate) a journal and write its header, fsynced.
    pub fn create(path: &str, seed: u64, shard_addrs: &[String]) -> Result<Journal, String> {
        Log::create(path, &header_line(seed, shard_addrs)).map(Journal::new)
    }

    /// Reopen a journal to resume it: its committed header and records,
    /// any torn tail reported and already truncated away, and a handle
    /// that appends after the last committed record.
    pub fn reopen(path: &str) -> Result<(Contents<Header, Record>, Journal), String> {
        let (contents, log) = Log::reopen(path, parse_header, |_, line| parse_record(line))?;
        Ok((contents, Journal::new(log)))
    }

    /// Append one record: a single `write(2)` of the full line (reaches
    /// the page cache before return — SIGKILL-safe), with the log's
    /// batched `sync_data`.
    pub fn append(&self, rec: &Record) {
        let mut log = self.log.lock().expect("journal lock poisoned");
        if log.append(rec.to_line()).is_err() && !self.write_failed.swap(true, Ordering::Relaxed) {
            eprintln!("fleet: journal write failed; continuing without durability");
        }
    }

    /// Force the fsync (drain, and right before a `kill-router` dies).
    pub fn sync(&self) {
        let _ = self.log.lock().expect("journal lock poisoned").sync();
    }
}

/// What a replay rebuilt, ready to seed a resumed router.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// Records consumed (admits + settles + refuses).
    pub replayed: u64,
    /// The rebuilt ledger: net accepted jobs (admits minus refusals) and
    /// the settles by status. Refusals are not re-counted as shed or
    /// rejected.
    pub ledger: StatsSnapshot,
    /// Terminal status + reason per settled key, for duplicate-replay.
    pub settled: Vec<(JobKey, Status, String)>,
    /// Admissions with no settle: the in-flight set to re-dispatch.
    pub inflight: Vec<(JobKey, u64, String)>,
}

/// Fold the record stream into counters, the settled table, and the
/// unsettled in-flight set.
pub fn replay(records: &[Record]) -> Replay {
    let mut out = Replay {
        replayed: records.len() as u64,
        ..Replay::default()
    };
    // Insertion-ordered map of open admits; journals are append-only so
    // the order is admission order.
    let mut open: Vec<(JobKey, u64, String)> = Vec::new();
    for rec in records {
        match rec {
            Record::Admit {
                key,
                trace_id,
                req_line,
                ..
            } => {
                out.ledger.accepted += 1;
                open.push((key.clone(), *trace_id, req_line.clone()));
            }
            Record::Settle {
                key,
                status,
                reason,
            } => {
                out.ledger.settle(*status);
                open.retain(|(k, _, _)| k != rec.key());
                out.settled.push((key.clone(), *status, reason.clone()));
            }
            Record::Refuse { key } => {
                out.ledger.accepted = out.ledger.accepted.saturating_sub(1);
                open.retain(|(k, _, _)| k != key);
            }
            // A hedge is not a ledger event: the job it raced for is
            // already `open` (or already settled) under its own key.
            Record::Hedge { .. } => {}
        }
    }
    out.inflight = open;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read a journal without touching it: a torn tail is reported in
    /// [`Contents::torn`] and left in place.
    fn load(path: &str) -> Result<Contents<Header, Record>, String> {
        fmm_obs::jsonl::load(path, parse_header, |_, line| parse_record(line))
    }

    fn key(n: u64) -> JobKey {
        (n, n.to_string(), format!("tag{n}"))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Admit {
                key: key(1),
                trace_id: 0xabcd,
                shard: 0,
                req_line: "{\"id\":\"a\",\"kind\":\"bounds\",\"params\":{\"n\":\"64\"}}".into(),
            },
            Record::Admit {
                key: key(2),
                trace_id: 0xbeef,
                shard: 1,
                req_line: "{\"id\":\"b\",\"kind\":\"io\",\"params\":{\"n\":\"8\"}}".into(),
            },
            Record::Hedge {
                key: key(2),
                shard: 0,
            },
            Record::Settle {
                key: key(1),
                status: Status::Completed,
                reason: String::new(),
            },
            Record::Admit {
                key: key(3),
                trace_id: 3,
                shard: 0,
                req_line: "{\"id\":\"c\",\"kind\":\"io\"}".into(),
            },
            Record::Refuse { key: key(3) },
        ]
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fmm-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    /// A journal holding `records`, then `tail` written raw after them.
    fn write_journal(path: &str, records: &[Record], tail: &str) {
        let j = Journal::create(path, 7, &["127.0.0.1:1".into()]).unwrap();
        for r in records {
            j.append(r);
        }
        j.sync();
        drop(j);
        let mut bytes = std::fs::read(path).unwrap();
        bytes.extend_from_slice(tail.as_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn records_round_trip_through_their_own_lines() {
        for rec in sample_records() {
            let parsed = parse_record(&rec.to_line()).expect("record parses");
            assert_eq!(parsed, rec);
        }
    }

    /// The bytes of every record type, pinned: a resumed router must
    /// replay journals an older build wrote.
    #[test]
    fn journal_bytes_are_pinned_for_every_record_type() {
        let path = tmp("bytes");
        let mut records = sample_records();
        records.push(Record::Settle {
            key: (u64::MAX, "s\"1".into(), "t\\2".into()),
            status: Status::DeadlineExceeded,
            reason: "deadline 5 ms\n".into(),
        });
        write_journal(&path, &records, "");
        let want = concat!(
            r#"{"type":"header","schema":"fmm-journal/v1","seed":"7","shards":"127.0.0.1:1"}"#,
            "\n",
            r#"{"type":"admit","spec_hash":"0000000000000001","seed":"1","client_tag":"tag1","trace_id":"000000000000abcd","shard":0,"req":"{\"id\":\"a\",\"kind\":\"bounds\",\"params\":{\"n\":\"64\"}}"}"#,
            "\n",
            r#"{"type":"admit","spec_hash":"0000000000000002","seed":"2","client_tag":"tag2","trace_id":"000000000000beef","shard":1,"req":"{\"id\":\"b\",\"kind\":\"io\",\"params\":{\"n\":\"8\"}}"}"#,
            "\n",
            r#"{"type":"hedge","spec_hash":"0000000000000002","seed":"2","client_tag":"tag2","shard":0}"#,
            "\n",
            r#"{"type":"settle","spec_hash":"0000000000000001","seed":"1","client_tag":"tag1","status":"completed","reason":""}"#,
            "\n",
            r#"{"type":"admit","spec_hash":"0000000000000003","seed":"3","client_tag":"tag3","trace_id":"0000000000000003","shard":0,"req":"{\"id\":\"c\",\"kind\":\"io\"}"}"#,
            "\n",
            r#"{"type":"refuse","spec_hash":"0000000000000003","seed":"3","client_tag":"tag3"}"#,
            "\n",
            r#"{"type":"settle","spec_hash":"ffffffffffffffff","seed":"s\"1","client_tag":"t\\2","status":"deadline-exceeded","reason":"deadline 5 ms\n"}"#,
            "\n",
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_round_trips_and_replays() {
        let path = tmp("roundtrip");
        write_journal(&path, &sample_records(), "");
        let c = load(&path).unwrap();
        assert_eq!(c.header.seed, 7);
        assert_eq!(c.header.shard_addrs, vec!["127.0.0.1:1".to_string()]);
        assert_eq!(c.records, sample_records());
        assert_eq!(c.torn, None);

        let r = replay(&c.records);
        assert_eq!(r.replayed, 6);
        assert_eq!(r.ledger.accepted, 2, "3 admits minus 1 refusal");
        assert_eq!(r.ledger.completed, 1);
        assert_eq!(r.settled.len(), 1);
        assert_eq!(r.inflight.len(), 1, "job 2 never settled");
        assert_eq!(r.inflight[0].0, key(2));
        assert_eq!(r.inflight[0].1, 0xbeef);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_journal_survives_reopen_append_and_a_second_load() {
        let path = tmp("torn");
        // SIGKILL mid-append: the final line is cut with no newline.
        write_journal(&path, &sample_records(), "{\"type\":\"settle\",\"spec_");
        let (c, j) = Journal::reopen(&path).unwrap();
        assert_eq!(c.records, sample_records(), "intact records all survive");
        assert_eq!(c.torn.expect("torn tail reported").line, 8);
        // The resumed router keeps journaling into the same file; the
        // new record must start a fresh line, not extend the torn one.
        let settle = Record::Settle {
            key: key(2),
            status: Status::Completed,
            reason: String::new(),
        };
        j.append(&settle);
        j.sync();
        drop(j);
        let again = load(&path).expect("a second resume loads the journal");
        assert_eq!(again.torn, None);
        let mut want = sample_records();
        want.push(settle);
        assert_eq!(again.records, want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_fatal_not_repaired() {
        let path = tmp("corrupt");
        write_journal(
            &path,
            &sample_records(),
            "garbage mid file\n{\"type\":\"refuse\"}\n",
        );
        // The garbage line has its newline, so it is committed: refuse
        // the journal rather than guess.
        let err = load(&path).unwrap_err();
        assert!(err.contains("line 8: malformed JSON line"), "{err}");
        assert!(Journal::reopen(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_wrong_schema_files_are_rejected() {
        let empty = tmp("empty");
        std::fs::write(&empty, "").unwrap();
        assert!(load(&empty).unwrap_err().contains("empty"));
        let wrong = tmp("wrong");
        std::fs::write(
            &wrong,
            "{\"type\":\"header\",\"schema\":\"fmm-sweep/v1\"}\n",
        )
        .unwrap();
        assert!(load(&wrong)
            .unwrap_err()
            .contains("not an fmm-journal/v1 file"));
        std::fs::remove_file(&empty).ok();
        std::fs::remove_file(&wrong).ok();
    }
}
