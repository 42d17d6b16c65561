//! The append-only JSONL log behind every crash-survivable file in the
//! workspace, the sweep checkpoint and the router journal: one header
//! line, then one record per line (DESIGN.md §9).
//!
//! A record is committed once its `'\n'` is on disk. Each append is one
//! `write_all` of the whole line through [`write_line`], so a crash
//! leaves at most one partial line, the last: the bytes after the last
//! `'\n'` are the [`TornTail`], which loading drops and [`Log::reopen`]
//! truncates away. A newline-terminated line that fails to parse is
//! corruption. `sync_data` runs every [`SYNC_EVERY`] appends and on
//! [`Log::sync`].

use crate::json::write_line;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::Path;

/// `sync_data` cadence, in appended records.
pub const SYNC_EVERY: u32 = 32;

/// The uncommitted bytes after a log's last `'\n'`: a crash cut the
/// final append short. The load drops them; [`Log::reopen`] truncates
/// the file to `valid_bytes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the torn line.
    pub line: usize,
    /// Length of the committed prefix: the byte offset where the torn
    /// line starts.
    pub valid_bytes: u64,
    /// What was dropped, for the caller's warning.
    pub reason: String,
}

/// A log's committed content, in file order.
#[derive(Clone, Debug, PartialEq)]
pub struct Contents<H, R> {
    /// The parsed header line.
    pub header: H,
    /// Every committed record after it (blank lines skipped).
    pub records: Vec<R>,
    /// The dropped torn tail, if the last append was cut short.
    pub torn: Option<TornTail>,
}

/// Parse a log's text: `header` parses the first committed line and
/// `record` every later one. Errors name the 1-based line.
pub fn parse<H, R>(
    bytes: &[u8],
    header: impl FnOnce(&str) -> Result<H, String>,
    mut record: impl FnMut(&H, &str) -> Result<R, String>,
) -> Result<Contents<H, R>, String> {
    let committed = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = std::str::from_utf8(&bytes[..committed])
        .map_err(|e| format!("committed bytes are not UTF-8: {e}"))?;
    let mut lines = text.lines().enumerate();
    let parsed_header = match lines.next() {
        Some((_, line)) => header(line).map_err(|e| format!("line 1: {e}"))?,
        None if bytes.is_empty() => return Err("empty file".to_string()),
        None => return Err("torn header: the first line has no newline".to_string()),
    };
    let mut records = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        records.push(record(&parsed_header, line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    let torn = (committed < bytes.len()).then(|| TornTail {
        line: text.lines().count() + 1,
        valid_bytes: committed as u64,
        reason: format!("{} bytes with no newline", bytes.len() - committed),
    });
    Ok(Contents {
        header: parsed_header,
        records,
        torn,
    })
}

/// Read and [`parse`] the log at `path` without touching it: the torn
/// tail, if any, is reported and left in place.
pub fn load<H, R>(
    path: &str,
    header: impl FnOnce(&str) -> Result<H, String>,
    record: impl FnMut(&H, &str) -> Result<R, String>,
) -> Result<Contents<H, R>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    parse(&bytes, header, record).map_err(|e| format!("{path}: {e}"))
}

/// The append handle of one log file.
pub struct Log {
    file: File,
    unsynced: u32,
}

impl Log {
    /// Create (or truncate) `path`, then write and sync `header_line`
    /// and the directory entry that names the file.
    pub fn create(path: &str, header_line: &str) -> Result<Log, String> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("cannot create '{path}': {e}"))?;
        let mut log = Log { file, unsynced: 0 };
        let dir = Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty());
        write_line(&mut log.file, header_line.to_string())
            .and_then(|()| log.sync())
            .and_then(|()| File::open(dir.unwrap_or(Path::new("."))))
            .and_then(|dir| dir.sync_all())
            .map_err(|e| format!("cannot write the header of '{path}': {e}"))?;
        Ok(log)
    }

    /// Open an existing log to continue it: [`parse`] its committed
    /// content, truncate a torn tail away, and return the content with
    /// a handle that appends after the last committed record.
    pub fn reopen<H, R>(
        path: &str,
        header: impl FnOnce(&str) -> Result<H, String>,
        record: impl FnMut(&H, &str) -> Result<R, String>,
    ) -> Result<(Contents<H, R>, Log), String> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open '{path}': {e}"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read '{path}': {e}"))?;
        let contents = parse(&bytes, header, record).map_err(|e| format!("{path}: {e}"))?;
        if let Some(t) = &contents.torn {
            file.set_len(t.valid_bytes)
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot truncate the torn tail of '{path}': {e}"))?;
        }
        Ok((contents, Log { file, unsynced: 0 }))
    }

    /// Append one record: a single `write_all` of `line` plus its
    /// newline, and a `sync_data` every [`SYNC_EVERY`] appends.
    pub fn append(&mut self, line: String) -> io::Result<()> {
        write_line(&mut self.file, line)?;
        self.unsynced += 1;
        if self.unsynced >= SYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// `sync_data` now, whatever the cadence.
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Header `H:<name>`, records `R:<n>`: a schema small enough that
    /// every byte of a cut is easy to reason about.
    fn header(line: &str) -> Result<String, String> {
        line.strip_prefix("H:")
            .map(str::to_string)
            .ok_or_else(|| format!("bad header {line:?}"))
    }

    fn record(_: &String, line: &str) -> Result<u32, String> {
        line.strip_prefix("R:")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad record {line:?}"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fmm-obs-jsonl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn a_whole_file_has_no_torn_tail() {
        let c = parse(b"H:x\nR:1\n\nR:2\n", header, record).unwrap();
        assert_eq!(c.header, "x");
        assert_eq!(c.records, vec![1, 2], "blank lines are skipped");
        assert_eq!(c.torn, None);
    }

    #[test]
    fn every_cut_of_the_final_line_is_one_torn_tail_at_its_start() {
        let whole = "H:x\nR:1\nR:22\nR:333\n";
        let tail_start = whole.len() - "R:333\n".len();
        // Every cut from the line's first byte up to just before its
        // newline: the record is not committed, whatever bytes it has.
        for cut in tail_start + 1..whole.len() {
            let c = parse(&whole.as_bytes()[..cut], header, record)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(c.records, vec![1, 22], "cut at {cut}");
            let torn = c
                .torn
                .unwrap_or_else(|| panic!("cut at {cut}: no torn tail"));
            assert_eq!(torn.line, 4, "cut at {cut}");
            assert_eq!(torn.valid_bytes, tail_start as u64, "cut at {cut}");
            assert_eq!(
                torn.reason,
                format!("{} bytes with no newline", cut - tail_start)
            );
        }
        // A cut exactly at a line boundary leaves nothing torn.
        let c = parse(&whole.as_bytes()[..tail_start], header, record).unwrap();
        assert_eq!((c.records, c.torn), (vec![1, 22], None));
    }

    #[test]
    fn a_torn_tail_that_would_parse_is_still_dropped() {
        // A crash between a record's bytes and its newline: the record
        // looks whole but is not committed.
        let c = parse(b"H:x\nR:1\nR:2", header, record).unwrap();
        assert_eq!(c.records, vec![1]);
        assert_eq!(c.torn.map(|t| (t.line, t.valid_bytes)), Some((3, 8)));
    }

    #[test]
    fn mid_file_corruption_and_a_torn_header_are_rejected() {
        let err = parse(b"H:x\nR:1\ngarbage\nR:3\n", header, record).unwrap_err();
        assert_eq!(err, "line 3: bad record \"garbage\"");
        // A malformed *final* line is corruption too once it has its
        // newline: only uncommitted bytes are forgiven.
        let err = parse(b"H:x\nR:1\nR:\n", header, record).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        for torn_header in [&b"H"[..], b"H:", b"H:x"] {
            let err = parse(torn_header, header, record).unwrap_err();
            assert!(err.starts_with("torn header"), "{err}");
        }
        assert_eq!(parse(b"", header, record).unwrap_err(), "empty file");
        let err = parse(b"R:1\nR:2\n", header, record).unwrap_err();
        assert!(err.starts_with("line 1: bad header"), "{err}");
    }

    #[test]
    fn reopen_truncates_the_torn_tail_so_appends_start_a_fresh_line() {
        let path = tmp("reopen");
        let mut log = Log::create(&path, "H:x").unwrap();
        for n in 1..=3 {
            log.append(format!("R:{n}")).unwrap();
        }
        drop(log);
        // A crash mid-append of record 4.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"R:4");
        std::fs::write(&path, &bytes).unwrap();

        let (c, mut log) = Log::reopen(&path, header, record).unwrap();
        assert_eq!(c.records, vec![1, 2, 3]);
        assert_eq!(c.torn.as_ref().map(|t| t.line), Some(5));
        assert_eq!(
            std::fs::read(&path).unwrap().len() as u64,
            c.torn.unwrap().valid_bytes,
            "reopen truncated the torn tail"
        );
        log.append("R:5".to_string()).unwrap();
        drop(log);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "H:x\nR:1\nR:2\nR:3\nR:5\n"
        );
        let again = load(&path, header, record).unwrap();
        assert_eq!((again.records, again.torn), (vec![1, 2, 3, 5], None));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_and_load_leaves_the_tail_in_place() {
        let path = tmp("create");
        std::fs::write(&path, "old content\nR:9").unwrap();
        drop(Log::create(&path, "H:y").unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "H:y\n");
        std::fs::write(&path, "H:y\nR:1\nR:").unwrap();
        let c = load(&path, header, record).unwrap();
        assert_eq!(c.torn.map(|t| t.line), Some(3));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "H:y\nR:1\nR:",
            "load is read-only"
        );
        let err = load("/no/such/log.jsonl", header, record).unwrap_err();
        assert!(err.starts_with("cannot read '/no/such/log.jsonl'"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
