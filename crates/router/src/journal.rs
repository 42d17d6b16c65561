//! Write-ahead job journal: the router's crash-survivable ledger.
//!
//! One JSONL record per admission and one per settlement, appended (and
//! flushed to the page cache) *before* the corresponding reply leaves
//! the process, so a SIGKILL at any instant loses at most work the
//! client never heard about. `fastmm fleet --resume <journal>` replays
//! the log to rebuild the idempotency map, the settled-status table,
//! and the in-flight set, then re-dispatches every unsettled admission —
//! closing the fleet conservation law `accepted == completed + errored
//! + cancelled + deadline_exceeded` across the crash.
//!
//! Durability discipline: every append is a single `write(2)` of one
//! full line, which survives process death (SIGKILL included) the
//! moment it returns; `sync_data` runs every [`SYNC_EVERY`] records and
//! at drain to bound *machine*-crash loss without paying an fsync per
//! job.
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
//! can re-dispatch the job byte-identically. A crash-truncated final
//! line is repaired by the same torn-tail lenient-load rule as
//! `fmm_sweep`'s checkpoints: warn and drop the tail, refuse anything
//! torn mid-file.

use fmm_obs::json::{escape, parse_line, Value};
use fmm_serve::ledger::StatsSnapshot;
use fmm_serve::proto::Status;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::Mutex;

/// Schema tag written into every header.
pub const SCHEMA: &str = "fmm-journal/v1";

/// `sync_data` cadence, in records. Every append still reaches the page
/// cache immediately; this only bounds machine-crash loss.
pub const SYNC_EVERY: u32 = 32;

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

fn parse_key(map: &std::collections::BTreeMap<String, Value>) -> Result<JobKey, String> {
    let hash = map
        .get("spec_hash")
        .and_then(Value::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("bad 'spec_hash'")?;
    let field = |k: &str| -> Result<String, String> {
        map.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("missing '{k}'"))
    };
    Ok((hash, field("seed")?, field("client_tag")?))
}

fn parse_record(line: &str) -> Result<Record, String> {
    let map = parse_line(line).ok_or("malformed JSON line")?;
    match map.get("type").and_then(Value::as_str) {
        Some("admit") => Ok(Record::Admit {
            key: parse_key(&map)?,
            trace_id: map
                .get("trace_id")
                .and_then(Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or("bad 'trace_id'")?,
            shard: map
                .get("shard")
                .and_then(Value::as_num)
                .map(|n| n as usize)
                .ok_or("bad 'shard'")?,
            req_line: map
                .get("req")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or("missing 'req'")?,
        }),
        Some("settle") => Ok(Record::Settle {
            key: parse_key(&map)?,
            status: map
                .get("status")
                .and_then(Value::as_str)
                .and_then(Status::parse)
                .ok_or("bad 'status'")?,
            reason: map
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        }),
        Some("refuse") => Ok(Record::Refuse {
            key: parse_key(&map)?,
        }),
        Some("hedge") => Ok(Record::Hedge {
            key: parse_key(&map)?,
            shard: map
                .get("shard")
                .and_then(Value::as_num)
                .map(|n| n as usize)
                .ok_or("bad 'shard'")?,
        }),
        Some(other) => Err(format!("unknown record type '{other}'")),
        None => Err("missing 'type'".to_string()),
    }
}

/// A crash-truncated final line that [`load_lenient`] dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the dropped tail.
    pub line: usize,
    pub detail: String,
}

/// The append-side handle. All methods are infallible by design: a
/// journal write failure after startup is reported once on stderr and
/// the router keeps serving — losing durability is strictly better than
/// losing the fleet.
pub struct Journal {
    inner: Mutex<Inner>,
}

struct Inner {
    file: File,
    since_sync: u32,
    write_failed: bool,
}

impl Journal {
    /// Create (truncate) a journal and write its header, fsynced.
    pub fn create(path: &str, seed: u64, shard_addrs: &[String]) -> Result<Journal, String> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("cannot create journal '{path}': {e}"))?;
        let header = format!(
            "{{\"type\":\"header\",\"schema\":\"{SCHEMA}\",\"seed\":\"{seed}\",\"shards\":\"{}\"}}\n",
            escape(&shard_addrs.join(","))
        );
        file.write_all(header.as_bytes())
            .and_then(|_| file.sync_data())
            .map_err(|e| format!("cannot write journal header to '{path}': {e}"))?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                file,
                since_sync: 0,
                write_failed: false,
            }),
        })
    }

    /// Reopen an existing journal for appending (resume keeps writing
    /// to the same file it replayed).
    pub fn open_append(path: &str) -> Result<Journal, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal '{path}': {e}"))?;
        Ok(Journal {
            inner: Mutex::new(Inner {
                file,
                since_sync: 0,
                write_failed: false,
            }),
        })
    }

    /// Append one record: a single `write(2)` of the full line (reaches
    /// the page cache before return — SIGKILL-safe), with a batched
    /// `sync_data` every [`SYNC_EVERY`] records.
    pub fn append(&self, rec: &Record) {
        let mut line = rec.to_line();
        line.push('\n');
        let mut inner = self.inner.lock().unwrap();
        if inner.file.write_all(line.as_bytes()).is_err() {
            if !inner.write_failed {
                inner.write_failed = true;
                eprintln!("fleet: journal write failed; continuing without durability");
            }
            return;
        }
        inner.since_sync += 1;
        if inner.since_sync >= SYNC_EVERY {
            inner.since_sync = 0;
            let _ = inner.file.sync_data();
        }
    }

    /// Force the fsync (drain, and right before a `kill-router` dies).
    pub fn sync(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.since_sync = 0;
        let _ = inner.file.sync_data();
    }
}

/// Load a journal leniently: a torn *final* line (the signature of a
/// crash mid-append) is dropped with a [`TornTail`] report; anything
/// malformed earlier is corruption and fails the load.
pub fn load_lenient(path: &str) -> Result<(Header, Vec<Record>, Option<TornTail>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal '{path}': {e}"))?;
    let ends_clean = text.ends_with('\n');
    let lines: Vec<&str> = text
        .split('\n')
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
        .collect();
    let Some((&first, rest)) = lines.split_first() else {
        return Err(format!("journal '{path}' is empty"));
    };
    let header = {
        let map = parse_line(first).ok_or(format!("journal '{path}': malformed header line"))?;
        if map.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("journal '{path}': not an {SCHEMA} file"));
        }
        Header {
            seed: map
                .get("seed")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or(format!("journal '{path}': bad header seed"))?,
            shard_addrs: map
                .get("shards")
                .and_then(Value::as_str)
                .map(|s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        }
    };
    let mut records = Vec::with_capacity(rest.len());
    let mut torn = None;
    for (i, line) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        match parse_record(line) {
            Ok(rec) => records.push(rec),
            Err(detail) if last && !ends_clean => {
                torn = Some(TornTail {
                    line: i + 2,
                    detail,
                });
            }
            Err(detail) => {
                return Err(format!(
                    "journal '{path}' line {}: {detail} (corruption before the tail)",
                    i + 2
                ));
            }
        }
    }
    Ok((header, records, torn))
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

    fn write_journal(path: &std::path::Path, records: &[Record], tail: &str) {
        let j = Journal::create(path.to_str().unwrap(), 7, &["127.0.0.1:1".into()]).unwrap();
        for r in records {
            j.append(r);
        }
        j.sync();
        drop(j);
        if !tail.is_empty() {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(tail.as_bytes()).unwrap();
        }
    }

    #[test]
    fn records_round_trip_through_their_own_lines() {
        for rec in sample_records() {
            let parsed = parse_record(&rec.to_line()).expect("record parses");
            assert_eq!(parsed, rec);
        }
    }

    #[test]
    fn journal_round_trips_and_replays() {
        let dir = std::env::temp_dir().join("fmm_journal_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        write_journal(&path, &sample_records(), "");
        let (header, records, torn) = load_lenient(path.to_str().unwrap()).unwrap();
        assert_eq!(header.seed, 7);
        assert_eq!(header.shard_addrs, vec!["127.0.0.1:1".to_string()]);
        assert_eq!(records, sample_records());
        assert_eq!(torn, None);

        let r = replay(&records);
        assert_eq!(r.replayed, 6);
        assert_eq!(r.ledger.accepted, 2, "3 admits minus 1 refusal");
        assert_eq!(r.ledger.completed, 1);
        assert_eq!(r.settled.len(), 1);
        assert_eq!(r.inflight.len(), 1, "job 2 never settled");
        assert_eq!(r.inflight[0].0, key(2));
        assert_eq!(r.inflight[0].1, 0xbeef);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_with_a_report() {
        let dir = std::env::temp_dir().join("fmm_journal_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        // SIGKILL mid-append: the final line is cut with no newline.
        write_journal(&path, &sample_records(), "{\"type\":\"settle\",\"spec_");
        let (_, records, torn) = load_lenient(path.to_str().unwrap()).unwrap();
        assert_eq!(records, sample_records(), "intact records all survive");
        let torn = torn.expect("torn tail reported");
        assert_eq!(torn.line, 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_fatal_not_repaired() {
        let dir = std::env::temp_dir().join("fmm_journal_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        write_journal(
            &path,
            &sample_records(),
            "garbage mid file\n{\"type\":\"refuse\"}\n",
        );
        // The garbage is followed by another (newline-terminated) line,
        // so it is not a torn tail: refuse the journal.
        let err = load_lenient(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("corruption"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_wrong_schema_files_are_rejected() {
        let dir = std::env::temp_dir().join("fmm_journal_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(load_lenient(empty.to_str().unwrap())
            .unwrap_err()
            .contains("empty"));
        let wrong = dir.join("wrong.jsonl");
        std::fs::write(
            &wrong,
            "{\"type\":\"header\",\"schema\":\"fmm-sweep/v1\"}\n",
        )
        .unwrap();
        assert!(load_lenient(wrong.to_str().unwrap()).is_err());
        let _ = std::fs::remove_file(&empty);
        let _ = std::fs::remove_file(&wrong);
    }
}
