//! Reconstruct per-trace span trees from the JSONL sink.
//!
//! The span JSONL lines (`crate::json::span_line`) carry a trace id plus
//! parent/child span ids. This module parses them back (tolerating
//! non-span lines interleaved in the same file — the sink mixes metrics,
//! events, and spans), groups spans by trace, rebuilds each trace's tree,
//! and renders it for `fastmm report --traces`: per-node duration,
//! self-time, and any recorded counters, plus a top-K slowest-traces
//! summary.
//!
//! Reconstruction is defensive: a span whose parent id is missing from its
//! trace (dropped at `SPAN_CAP`, or recorded on a worker thread outside
//! the trace scope's thread-local reach) is promoted to a root rather than
//! discarded, so partial logs still render.

use crate::json::{self, Value};
use std::collections::{BTreeMap, HashMap};

/// One span parsed back from a JSONL line (owned, unlike
/// [`crate::SpanRecord`] whose name is `&'static str`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Owning trace id.
    pub trace: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Wall time including children.
    pub total_ns: u64,
    /// Wall time excluding same-thread children.
    pub self_ns: u64,
    /// Recorded counters, sorted by key (the JSON object loses
    /// attachment order).
    pub fields: Vec<(String, u64)>,
}

/// A trace id rendered the way the JSONL sink writes it.
pub fn trace_hex(trace: u64) -> String {
    format!("{trace:016x}")
}

/// Parse every `"type":"span"` line in `text`, skipping everything else
/// (metric lines, event lines, malformed lines).
pub fn parse_spans(text: &str) -> Vec<TraceSpan> {
    text.lines().filter_map(parse_span_line).collect()
}

fn parse_span_line(line: &str) -> Option<TraceSpan> {
    let obj = json::parse_line(line)?;
    if obj.get("type")?.as_str()? != "span" {
        return None;
    }
    let num = |key: &str| -> Option<u64> { Some(obj.get(key)?.as_num()? as u64) };
    let fields = match obj.get("fields") {
        Some(Value::Object(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.parse::<u64>().ok()?)))
            .collect(),
        _ => Vec::new(),
    };
    Some(TraceSpan {
        trace: u64::from_str_radix(obj.get("trace")?.as_str()?, 16).ok()?,
        id: num("id")?,
        parent: num("parent")?,
        name: obj.get("name")?.as_str()?.to_string(),
        total_ns: num("total_ns")?,
        self_ns: num("self_ns")?,
        fields,
    })
}

/// All spans of one trace, arranged as a forest.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The trace id.
    pub trace: u64,
    /// Every span in the trace, in id (creation) order.
    pub spans: Vec<TraceSpan>,
    /// Indices into `spans` of the roots: parent 0, or parent absent from
    /// this trace.
    pub roots: Vec<usize>,
    /// Children indices per span index, in id order.
    children: Vec<Vec<usize>>,
}

impl TraceTree {
    /// Wall time of the trace: the largest root total (roots of one job
    /// run sequentially only in degenerate logs; the job root dominates).
    pub(crate) fn total_ns(&self) -> u64 {
        self.roots
            .iter()
            .map(|&i| self.spans[i].total_ns)
            .max()
            .unwrap_or(0)
    }

    /// Name of the first (lowest-id) root, or `"?"` for an empty tree.
    pub(crate) fn root_name(&self) -> &str {
        self.roots
            .first()
            .map(|&i| self.spans[i].name.as_str())
            .unwrap_or("?")
    }

    /// Render this trace's tree, one indented line per span.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} ({} span{}, total {})\n",
            trace_hex(self.trace),
            self.spans.len(),
            if self.spans.len() == 1 { "" } else { "s" },
            format_ns(self.total_ns())
        );
        for &root in &self.roots {
            self.render_node(root, 1, &mut out);
        }
        out
    }

    fn render_node(&self, idx: usize, depth: usize, out: &mut String) {
        let s = &self.spans[idx];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{}  total={} self={}",
            s.name,
            format_ns(s.total_ns),
            format_ns(s.self_ns)
        ));
        for (k, v) in &s.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for &child in &self.children[idx] {
            self.render_node(child, depth + 1, out);
        }
    }
}

/// Group spans by trace and rebuild each trace's forest. Trees are
/// returned in first-creation order (minimum span id), which matches
/// admission order for serve jobs.
pub fn build_trees(spans: Vec<TraceSpan>) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u64, Vec<TraceSpan>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut trees: Vec<TraceTree> = by_trace
        .into_iter()
        .map(|(trace, mut spans)| {
            spans.sort_by_key(|s| s.id);
            spans.dedup_by_key(|s| s.id);
            let index: HashMap<u64, usize> =
                spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
            let mut roots = Vec::new();
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
            for (i, s) in spans.iter().enumerate() {
                match index.get(&s.parent) {
                    Some(&p) if s.parent != 0 && p != i => children[p].push(i),
                    _ => roots.push(i),
                }
            }
            TraceTree {
                trace,
                spans,
                roots,
                children,
            }
        })
        .collect();
    trees.sort_by_key(|t| t.spans.first().map(|s| s.id).unwrap_or(u64::MAX));
    trees
}

/// Full `report --traces` text: every trace's tree in creation order,
/// then the top-`k` slowest traces. Returns a note instead when `text`
/// contains no span lines.
pub fn render_report(text: &str, top_k: usize) -> String {
    let trees = build_trees(parse_spans(text));
    if trees.is_empty() {
        return "no span records found (run with FMM_OBS=full)\n".to_string();
    }
    let mut out = String::new();
    for tree in &trees {
        out.push_str(&tree.render());
    }
    let mut ranked: Vec<&TraceTree> = trees.iter().collect();
    ranked.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.trace.cmp(&b.trace)));
    let k = top_k.min(ranked.len());
    out.push_str(&format!("\nslowest traces (top {k} of {}):\n", trees.len()));
    for (rank, tree) in ranked[..k].iter().enumerate() {
        out.push_str(&format!(
            "  {}. {} {} {}\n",
            rank + 1,
            trace_hex(tree.trace),
            tree.root_name(),
            format_ns(tree.total_ns())
        ));
    }
    out
}

/// Human-scale duration: `950ns`, `12.3us`, `4.0ms`, `1.25s`.
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::span_line;
    use crate::SpanRecord;

    fn record(trace: u64, id: u64, parent: u64, name: &'static str, total: u64) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name,
            total_ns: total,
            self_ns: total / 2,
            fields: vec![("io", id * 10)],
        }
    }

    fn jsonl(records: &[SpanRecord]) -> String {
        let mut out =
            String::from("{\"type\":\"counter\",\"name\":\"noise\",\"labels\":{},\"value\":1}\n");
        for r in records {
            out.push_str(&span_line(r));
            out.push('\n');
        }
        out.push_str("not json at all\n");
        out
    }

    #[test]
    fn parse_skips_non_span_lines() {
        let text = jsonl(&[record(1, 5, 0, "root", 100)]);
        let spans = parse_spans(&text);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace, 1);
        assert_eq!(spans[0].fields, vec![("io".to_string(), 50)]);
    }

    #[test]
    fn trees_group_by_trace_and_link_children() {
        let text = jsonl(&[
            record(7, 2, 1, "child_a", 40),
            record(7, 1, 0, "root7", 100),
            record(7, 3, 1, "child_b", 30),
            record(9, 4, 0, "root9", 500),
        ]);
        let trees = build_trees(parse_spans(&text));
        assert_eq!(trees.len(), 2);
        // Creation order: trace 7's first span id (1) < trace 9's (4).
        assert_eq!(trees[0].trace, 7);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].root_name(), "root7");
        assert_eq!(trees[0].total_ns(), 100);
        let rendered = trees[0].render();
        let root_line = rendered.lines().nth(1).unwrap();
        let child_line = rendered.lines().nth(2).unwrap();
        assert!(root_line.contains("root7"), "{rendered}");
        assert!(child_line.contains("child_a"), "{rendered}");
        assert!(
            child_line.starts_with("    "),
            "children indent deeper: {rendered}"
        );
        assert_eq!(trees[1].trace, 9);
    }

    #[test]
    fn missing_parent_promotes_to_root() {
        let text = jsonl(&[record(3, 10, 99, "orphan", 20)]);
        let trees = build_trees(parse_spans(&text));
        assert_eq!(trees[0].roots, vec![0]);
        assert_eq!(trees[0].root_name(), "orphan");
    }

    #[test]
    fn report_ranks_slowest_and_handles_empty() {
        let text = jsonl(&[
            record(1, 1, 0, "fast", 10),
            record(2, 2, 0, "slow", 9_999_999),
        ]);
        let report = render_report(&text, 1);
        assert!(report.contains("slowest traces (top 1 of 2):"), "{report}");
        assert!(
            report.contains(&format!("1. {} slow", trace_hex(2))),
            "{report}"
        );
        assert!(render_report("", 5).contains("no span records"));
    }

    #[test]
    fn durations_format_per_scale() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(12_300), "12.3us");
        assert_eq!(format_ns(4_000_000), "4.0ms");
        assert_eq!(format_ns(1_250_000_000), "1.25s");
    }
}
