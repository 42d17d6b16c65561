//! The versioned `fmm-bench/v1` benchmark document.
//!
//! Serialised as JSONL so `fmm_obs::json::parse_line` — the only JSON
//! parser in the workspace — can read it back: a header line carrying
//! the schema tag, profile, and environment manifest, then one line per
//! benchmark target with interpolated percentiles and the target's
//! deterministic extra counters.
//!
//! ```text
//! {"schema":"fmm-bench/v1","profile":"quick","manifest":{"rustc":"...",...}}
//! {"target":"memsim/lru/n32_m1024","group":"memsim","tol":0.35,"warmup":1,
//!  "passes":5,"p50_ns":...,"p95_ns":...,"p99_ns":...,"min_ns":...,
//!  "max_ns":...,"extras":{"io":"93696",...}}
//! ```

use fmm_obs::json::{escape, flat_object_into, parse_line, Value};
use std::collections::BTreeMap;

/// The schema tag every document leads with.
pub const SCHEMA: &str = "fmm-bench/v1";

/// Wall-time statistics for one target, in nanoseconds, pulled from an
/// [`fmm_obs::Histogram`] over the timed passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetStats {
    pub warmup: u64,
    pub passes: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// One benchmark target's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetResult {
    /// Stable target name, e.g. `memsim/lru/n32_m1024`.
    pub name: String,
    /// Coarse grouping (`memsim`, `sweep`, `par`, `serve`).
    pub group: String,
    /// Relative p50 tolerance `bench diff` applies to this target.
    pub tol: f64,
    pub stats: TargetStats,
    /// Deterministic counters (I/O words, cells, completions) — exact
    /// across runs for fixed seeds, so `diff` checks them exactly.
    pub extras: BTreeMap<String, String>,
}

/// A full benchmark document: header + targets.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    /// Which profile produced it (`quick` / `standard` / `full`).
    pub profile: String,
    /// Environment manifest ([`crate::manifest::collect`]).
    pub manifest: BTreeMap<String, String>,
    pub targets: Vec<TargetResult>,
}

fn flat_object(map: &BTreeMap<String, String>) -> String {
    let mut out = String::new();
    flat_object_into(&mut out, map.iter().map(|(k, v)| (k.as_str(), v.as_str())));
    out
}

impl BenchDoc {
    /// Serialise to the JSONL document format (trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{SCHEMA}\",\"profile\":\"{}\",\"manifest\":{}}}\n",
            escape(&self.profile),
            flat_object(&self.manifest)
        );
        for t in &self.targets {
            let s = t.stats;
            out.push_str(&format!(
                "{{\"target\":\"{}\",\"group\":\"{}\",\"tol\":{},\"warmup\":{},\
                 \"passes\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{},\"extras\":{}}}\n",
                escape(&t.name),
                escape(&t.group),
                t.tol,
                s.warmup,
                s.passes,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns,
                s.min_ns,
                s.max_ns,
                flat_object(&t.extras)
            ));
        }
        out
    }

    /// Parse a document back. Fails loudly on a missing/mismatched
    /// schema tag or a malformed line — `bench diff` must never compare
    /// against garbage.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("empty document")?;
        let header = parse_line(header_line).ok_or("malformed header line")?;
        let schema = header
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("header has no 'schema'")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want '{SCHEMA}')"));
        }
        let profile = header
            .get("profile")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let manifest = match header.get("manifest") {
            Some(Value::Object(o)) => o.clone(),
            _ => BTreeMap::new(),
        };
        let mut targets = Vec::new();
        for (i, line) in lines.enumerate() {
            let obj = parse_line(line).ok_or_else(|| format!("malformed target line {}", i + 2))?;
            let name = obj
                .get("target")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {} has no 'target'", i + 2))?
                .to_string();
            let num = |key: &str| -> u64 {
                obj.get(key)
                    .and_then(Value::as_num)
                    .map(|n| n as u64)
                    .unwrap_or(0)
            };
            targets.push(TargetResult {
                name,
                group: obj
                    .get("group")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                tol: obj.get("tol").and_then(Value::as_num).unwrap_or(0.0),
                stats: TargetStats {
                    warmup: num("warmup"),
                    passes: num("passes"),
                    p50_ns: num("p50_ns"),
                    p95_ns: num("p95_ns"),
                    p99_ns: num("p99_ns"),
                    min_ns: num("min_ns"),
                    max_ns: num("max_ns"),
                },
                extras: match obj.get("extras") {
                    Some(Value::Object(o)) => o.clone(),
                    _ => BTreeMap::new(),
                },
            });
        }
        Ok(BenchDoc {
            profile,
            manifest,
            targets,
        })
    }

    /// Human-readable run summary: header, one `manifest:` line, then an
    /// aligned table with a trailing `k=v` extras column. Durations and
    /// the manifest line are what the golden snapshot masks.
    pub fn render_table(&self) -> String {
        let mut out = format!("fmm-bench {SCHEMA} profile={}\n", self.profile);
        let manifest: Vec<String> = self
            .manifest
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!("manifest: {}\n", manifest.join(" ")));
        let width = self
            .targets
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        out.push_str(&format!(
            "{:<width$}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}\n",
            "TARGET", "P50", "P95", "P99", "MIN", "MAX", "PASSES"
        ));
        for t in &self.targets {
            let s = t.stats;
            let f = fmm_obs::trace::format_ns;
            out.push_str(&format!(
                "{:<width$}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
                t.name,
                f(s.p50_ns),
                f(s.p95_ns),
                f(s.p99_ns),
                f(s.min_ns),
                f(s.max_ns),
                s.passes
            ));
            for (k, v) in &t.extras {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_doc() -> BenchDoc {
        let mut manifest = BTreeMap::new();
        manifest.insert("rustc".into(), "rustc 1.0 (test)".into());
        manifest.insert("cpu_cores".into(), "8".into());
        let mut extras = BTreeMap::new();
        extras.insert("io".into(), "93696".into());
        BenchDoc {
            profile: "quick".into(),
            manifest,
            targets: vec![TargetResult {
                name: "memsim/lru/n32_m1024".into(),
                group: "memsim".into(),
                tol: 0.35,
                stats: TargetStats {
                    warmup: 1,
                    passes: 5,
                    p50_ns: 1_200_000,
                    p95_ns: 1_500_000,
                    p99_ns: 1_500_000,
                    min_ns: 1_100_000,
                    max_ns: 1_500_000,
                },
                extras,
            }],
        }
    }

    #[test]
    fn document_round_trips() {
        let doc = sample_doc();
        let parsed = BenchDoc::parse(&doc.to_jsonl()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_rejects_bad_schema_and_garbage() {
        assert!(BenchDoc::parse("").is_err());
        assert!(BenchDoc::parse("{\"schema\":\"fmm-bench/v0\",\"profile\":\"quick\"}").is_err());
        assert!(BenchDoc::parse("{\"profile\":\"quick\"}").is_err());
        let doc = format!("{{\"schema\":\"{SCHEMA}\",\"profile\":\"q\"}}\nnot json\n");
        assert!(BenchDoc::parse(&doc).is_err());
    }

    #[test]
    fn table_lists_every_target_with_extras() {
        let table = sample_doc().render_table();
        assert!(table.contains("manifest: cpu_cores=8 rustc=rustc 1.0 (test)"));
        assert!(table.contains("memsim/lru/n32_m1024"));
        assert!(table.contains("io=93696"));
        assert!(table.contains("1.2ms"));
    }
}
