//! JSONL checkpoint files: one header line, then one line per completed
//! cell, appended as cells finish so a crash or Ctrl-C loses at most the
//! in-flight cells. `resume` replays the file, validates it against the
//! spec, and skips everything already done. The file is an
//! [`fmm_obs::jsonl`] log, so a cell is committed once its newline is on
//! disk; this module holds only the header and record schema.
//!
//! Schema (`fmm-sweep/v1`), one flat JSON object per line:
//!
//! ```text
//! {"type":"header","schema":"fmm-sweep/v1","spec":"table1",
//!  "spec_hash":"…16 hex…","seed":"42","cells":48}
//! {"type":"cell","spec_hash":"…","id":0,"alg":"strassen","n":32,"m":96,
//!  "p":1,"policy":"lru","mode":"cache","rep":0,"seed":"…","status":"ok",
//!  "io":…,"loads":…,"stores":…,"words":…,"flops":…,"recomputes":…,
//!  "hits":…,"accesses":…,"bound":…,"ratio":…,"wall_ms":…}
//! ```
//!
//! `wall_ms` is the only nondeterministic field; error cells carry
//! `"status":"error","error":"…"` and zeroed metrics.

use crate::cell::Measurement;
use crate::spec::{AlgKind, Cell, PolicyKind, RunMode, SweepSpec};
use fmm_obs::json::{escape, parse_line, Value};
use fmm_obs::jsonl::{self, Contents};
use std::collections::BTreeMap;

/// Schema tag written into every header.
pub const SCHEMA: &str = "fmm-sweep/v1";

/// The first line of a checkpoint file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// Spec name.
    pub spec: String,
    /// Canonical spec hash (16 hex digits).
    pub spec_hash: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Number of cells in the expanded grid.
    pub cells: usize,
}

/// Outcome of one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellStatus {
    /// Completed with a measurement.
    Ok(Measurement),
    /// Panicked or returned an error; the message is retained.
    Error(String),
    /// Exceeded the per-cell wall-clock budget. Unlike errors (which are
    /// deterministic), a timeout says nothing about the cell itself, so
    /// `resume` re-runs timed-out cells.
    TimedOut,
}

/// One checkpoint line: the cell, its derived seed, its outcome, and the
/// wall time it took.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// The grid point.
    pub cell: Cell,
    /// The derived workload seed the cell ran with.
    pub seed: u64,
    /// Outcome.
    pub status: CellStatus,
    /// Wall time in milliseconds (nondeterministic).
    pub wall_ms: f64,
}

impl CellRecord {
    /// The measurement, when the cell succeeded.
    pub fn measurement(&self) -> Option<&Measurement> {
        match &self.status {
            CellStatus::Ok(m) => Some(m),
            CellStatus::Error(_) | CellStatus::TimedOut => None,
        }
    }
}

/// Serialise the header line.
pub fn header_line(spec: &SweepSpec, seed: u64, cells: usize) -> String {
    format!(
        "{{\"type\":\"header\",\"schema\":\"{SCHEMA}\",\"spec\":\"{}\",\"spec_hash\":\"{}\",\
         \"seed\":\"{seed}\",\"cells\":{cells}}}",
        escape(&spec.name),
        spec.hash()
    )
}

/// Serialise one cell record. Field order is fixed so that identical runs
/// produce byte-identical lines apart from `wall_ms`.
pub fn cell_line(spec_hash: &str, r: &CellRecord) -> String {
    let c = &r.cell;
    let mut line = format!(
        "{{\"type\":\"cell\",\"spec_hash\":\"{spec_hash}\",\"id\":{},\"alg\":\"{}\",\
         \"n\":{},\"m\":{},\"p\":{},\"policy\":\"{}\",\"mode\":\"{}\",\"rep\":{},\
         \"seed\":\"{}\"",
        c.id,
        c.alg.as_str(),
        c.n,
        c.m,
        c.p,
        c.policy.as_str(),
        c.mode.as_str(),
        c.rep,
        r.seed
    );
    match &r.status {
        CellStatus::Ok(m) => {
            line.push_str(&format!(
                ",\"status\":\"ok\",\"io\":{},\"loads\":{},\"stores\":{},\"words\":{},\
                 \"flops\":{},\"recomputes\":{},\"hits\":{},\"accesses\":{},\
                 \"bound\":{:.4},\"ratio\":{:.6}",
                m.io,
                m.loads,
                m.stores,
                m.words,
                m.flops,
                m.recomputes,
                m.hits,
                m.accesses,
                m.bound,
                m.ratio
            ));
        }
        CellStatus::Error(e) => {
            line.push_str(&format!(
                ",\"status\":\"error\",\"error\":\"{}\"",
                escape(e)
            ));
        }
        CellStatus::TimedOut => {
            line.push_str(",\"status\":\"timeout\"");
        }
    }
    line.push_str(&format!(",\"wall_ms\":{:.3}}}", r.wall_ms));
    line
}

fn get_num(map: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    map.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn get_str<'a>(map: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a str, String> {
    map.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

/// Parse a checkpoint's header line.
pub fn parse_header(line: &str) -> Result<Header, String> {
    let map = parse_line(line).ok_or("malformed JSON")?;
    match get_str(&map, "type")? {
        "header" => {}
        "cell" => return Err("cell before header".into()),
        other => return Err(format!("unknown type '{other}'")),
    }
    let schema = get_str(&map, "schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema '{schema}' (want {SCHEMA})"));
    }
    Ok(Header {
        spec: get_str(&map, "spec")?.to_string(),
        spec_hash: get_str(&map, "spec_hash")?.to_string(),
        seed: get_str(&map, "seed")?
            .parse()
            .map_err(|e| format!("bad seed: {e}"))?,
        cells: get_num(&map, "cells")? as usize,
    })
}

/// Parse one cell line of the checkpoint `header` heads. Every record
/// must carry the header's spec hash — a checkpoint is a
/// machine-readable artifact, not a log to be skimmed.
pub fn parse_record(header: &Header, line: &str) -> Result<CellRecord, String> {
    let map = parse_line(line).ok_or("malformed JSON")?;
    match get_str(&map, "type")? {
        "cell" => {}
        "header" => return Err("duplicate header".into()),
        other => return Err(format!("unknown type '{other}'")),
    }
    let spec_hash = get_str(&map, "spec_hash")?;
    if spec_hash != header.spec_hash {
        return Err(format!(
            "spec hash {spec_hash} does not match header {}",
            header.spec_hash
        ));
    }
    let cell = Cell {
        id: get_num(&map, "id")? as usize,
        alg: AlgKind::parse(get_str(&map, "alg")?)
            .ok_or_else(|| format!("unknown alg '{}'", get_str(&map, "alg").unwrap_or("?")))?,
        n: get_num(&map, "n")? as usize,
        m: get_num(&map, "m")? as usize,
        p: get_num(&map, "p")? as usize,
        policy: PolicyKind::parse(get_str(&map, "policy")?).ok_or("unknown policy")?,
        mode: RunMode::parse(get_str(&map, "mode")?).ok_or("unknown mode")?,
        rep: get_num(&map, "rep")? as usize,
    };
    let seed: u64 = get_str(&map, "seed")?
        .parse()
        .map_err(|e| format!("bad seed: {e}"))?;
    let status = match get_str(&map, "status")? {
        "ok" => CellStatus::Ok(Measurement {
            io: get_num(&map, "io")? as u64,
            loads: get_num(&map, "loads")? as u64,
            stores: get_num(&map, "stores")? as u64,
            words: get_num(&map, "words")? as u64,
            flops: get_num(&map, "flops")? as u64,
            recomputes: get_num(&map, "recomputes")? as u64,
            hits: get_num(&map, "hits")? as u64,
            accesses: get_num(&map, "accesses")? as u64,
            bound: get_num(&map, "bound")?,
            ratio: get_num(&map, "ratio")?,
        }),
        "error" => CellStatus::Error(get_str(&map, "error")?.to_string()),
        "timeout" => CellStatus::TimedOut,
        other => return Err(format!("unknown status '{other}'")),
    };
    Ok(CellRecord {
        cell,
        seed,
        status,
        wall_ms: get_num(&map, "wall_ms")?,
    })
}

/// Collapse duplicate cell ids to the **latest** record in file order.
/// Duplicates are legitimate: a resume re-runs timed-out cells, appending
/// a second record for the same id; the later one supersedes.
pub fn latest_by_id(records: &[CellRecord]) -> Vec<CellRecord> {
    let mut latest: BTreeMap<usize, &CellRecord> = BTreeMap::new();
    for r in records {
        latest.insert(r.cell.id, r);
    }
    latest.into_values().cloned().collect()
}

/// Read a checkpoint without touching it: its header, every committed
/// cell record in file order, and the torn tail a crash mid-append left,
/// if any ([`fmm_obs::jsonl`]'s commit rule).
pub fn read(path: &str) -> Result<Contents<Header, CellRecord>, String> {
    jsonl::load(path, parse_header, parse_record)
}

/// Load a whole checkpoint for reporting: as [`read`], but a torn tail
/// is an error — `sweep resume` repairs it first.
pub fn load(path: &str) -> Result<(Header, Vec<CellRecord>), String> {
    let c = read(path)?;
    match c.torn {
        Some(t) => Err(format!(
            "{path}: line {}: torn trailing record ({}); `sweep resume` repairs it",
            t.line, t.reason
        )),
        None => Ok((c.header, c.records)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_file(text: &str) -> Result<(Header, Vec<CellRecord>), String> {
        let c = jsonl::parse(text.as_bytes(), parse_header, parse_record)?;
        assert_eq!(c.torn, None, "test files end in a newline");
        Ok((c.header, c.records))
    }

    fn sample_record(id: usize, ok: bool) -> CellRecord {
        CellRecord {
            cell: Cell {
                id,
                alg: AlgKind::Strassen,
                n: 32,
                m: 96,
                p: 1,
                policy: PolicyKind::Lru,
                mode: RunMode::Cache,
                rep: 0,
            },
            seed: 0xDEADBEEF,
            status: if ok {
                CellStatus::Ok(Measurement {
                    io: 120_000,
                    loads: 70_000,
                    stores: 50_000,
                    words: 0,
                    flops: 116_000,
                    recomputes: 0,
                    hits: 1_000_000,
                    accesses: 1_120_000,
                    bound: 2663.2,
                    ratio: 45.06,
                })
            } else {
                CellStatus::Error("demand schedule: CapacityTooTight".into())
            },
            wall_ms: 12.345,
        }
    }

    #[test]
    fn round_trip_header_and_cells() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let mut text = header_line(&spec, 42, 6);
        text.push('\n');
        for (i, ok) in [(0, true), (1, false)] {
            text.push_str(&cell_line(&spec.hash(), &sample_record(i, ok)));
            text.push('\n');
        }
        let (h, recs) = parse_file(&text).expect("valid file");
        assert_eq!(h.spec, "smoke");
        assert_eq!(h.seed, 42);
        assert_eq!(h.cells, 6);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], sample_record(0, true));
        assert_eq!(recs[1], sample_record(1, false));
    }

    #[test]
    fn rejects_malformed_files() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let hdr = header_line(&spec, 1, 6);
        let cell = cell_line(&spec.hash(), &sample_record(0, true));
        // Cell before header.
        assert!(parse_file(&format!("{cell}\n{hdr}\n")).is_err());
        // Duplicate header.
        assert!(parse_file(&format!("{hdr}\n{hdr}\n")).is_err());
        // Wrong hash.
        let other = SweepSpec::builtin("x1").unwrap();
        let alien = cell_line(&other.hash(), &sample_record(0, true));
        assert!(parse_file(&format!("{hdr}\n{alien}\n")).is_err());
        // Malformed JSON on a committed line.
        assert!(parse_file(&format!("{hdr}\n{{\"type\":\"cell\"\n")).is_err());
        // Missing header entirely.
        assert!(parse_file("").is_err());
    }

    #[test]
    fn timeout_records_round_trip() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let mut rec = sample_record(3, true);
        rec.status = CellStatus::TimedOut;
        let text = format!(
            "{}\n{}\n",
            header_line(&spec, 7, 6),
            cell_line(&spec.hash(), &rec)
        );
        let (_, recs) = parse_file(&text).expect("valid file");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, CellStatus::TimedOut);
        assert_eq!(recs[0].measurement(), None);
    }

    #[test]
    fn latest_by_id_keeps_the_last_record() {
        let mut early = sample_record(0, true);
        early.status = CellStatus::TimedOut;
        let late = sample_record(0, true);
        let other = sample_record(1, false);
        let deduped = latest_by_id(&[early, other.clone(), late.clone()]);
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0], late);
        assert_eq!(deduped[1], other);
    }

    #[test]
    fn wall_time_is_the_only_varying_field() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let mut a = sample_record(0, true);
        let mut b = sample_record(0, true);
        a.wall_ms = 1.0;
        b.wall_ms = 999.0;
        let strip = |s: &str| {
            let i = s.rfind(",\"wall_ms\":").unwrap();
            s[..i].to_string()
        };
        assert_eq!(
            strip(&cell_line(&spec.hash(), &a)),
            strip(&cell_line(&spec.hash(), &b))
        );
    }
}
