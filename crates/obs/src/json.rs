//! Hand-rolled JSON: escaping, JSONL serialisation of metrics/events, and a
//! small parser for the flat object-per-line format `fastmm report` reads.

use crate::{Event, Key, Metric, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::io;

/// Write `line` and its `'\n'` terminator with one `write_all`, so a line
/// costs one `write()`: on a `TCP_NODELAY` socket one segment, in an
/// append-only file one record that is whole or, after a crash, a torn
/// tail ([`crate::jsonl`]). The server's replies, the router's envelopes
/// and replies, control round-trips, loadgen's requests and every
/// [`crate::jsonl::Log`] append go through it. Nothing is flushed after:
/// every writer is an unbuffered socket or file.
pub fn write_line<W: io::Write>(w: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Escape a string for embedding in a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s`, escaped as by [`escape`], to `out`. Runs of bytes that need
/// no escape are copied as slices, so a plain string costs one scan and
/// one copy.
pub fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Append `{"k":"v",...}` to `out`, keys and values escaped: the one
/// flat string→string object writer behind metric labels and the wire
/// protocol's `params` and `result`.
pub fn flat_object_into<'a>(out: &mut String, pairs: impl IntoIterator<Item = (&'a str, &'a str)>) {
    out.push('{');
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":\"");
        escape_into(out, v);
        out.push('"');
    }
    out.push('}');
}

fn labels_object(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    flat_object_into(
        &mut out,
        labels.iter().map(|(k, v)| (k.as_str(), v.as_str())),
    );
    out
}

/// One JSONL line for a metric.
pub(crate) fn metric_line(key: &Key, metric: &Metric) -> String {
    let name = escape(&key.name);
    let labels = labels_object(&key.labels);
    match metric {
        Metric::Counter(c) => {
            format!(
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"labels\":{labels},\"value\":{c}}}"
            )
        }
        Metric::Gauge(g) => {
            // Emit a JSON-parseable number even for non-finite floats.
            let v = if g.is_finite() {
                format!("{g}")
            } else {
                "null".to_string()
            };
            format!("{{\"type\":\"gauge\",\"name\":\"{name}\",\"labels\":{labels},\"value\":{v}}}")
        }
        Metric::Histogram(h) => format!(
            "{{\"type\":\"histogram\",\"name\":\"{name}\",\"labels\":{labels},\
             \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3}}}",
            h.count,
            h.sum,
            h.min,
            h.max,
            h.mean()
        ),
    }
}

/// One JSONL line for a closed span. The trace id is a 16-digit hex
/// *string* (not a JSON number): [`parse_line`] reads numbers as `f64`,
/// which silently loses precision above 2^53, and splitmix64 trace ids use
/// the full 64 bits. Span ids stay numeric — they are small monotone
/// counters. Field values are stringified for the same reason, riding in
/// the flat string→string object shape the parser already supports.
pub(crate) fn span_line(r: &SpanRecord) -> String {
    let mut fields = String::from("{");
    for (i, (k, v)) in r.fields.iter().enumerate() {
        if i > 0 {
            fields.push(',');
        }
        fields.push_str(&format!("\"{}\":\"{v}\"", escape(k)));
    }
    fields.push('}');
    format!(
        "{{\"type\":\"span\",\"trace\":\"{:016x}\",\"id\":{},\"parent\":{},\
         \"name\":\"{}\",\"total_ns\":{},\"self_ns\":{},\"fields\":{fields}}}",
        r.trace,
        r.id,
        r.parent,
        escape(r.name),
        r.total_ns,
        r.self_ns
    )
}

/// One JSONL line for an event.
pub(crate) fn event_line(ev: &Event) -> String {
    format!(
        "{{\"type\":\"event\",\"seq\":{},\"name\":\"{}\",\"labels\":{}}}",
        ev.seq,
        escape(&ev.name),
        labels_object(&ev.labels)
    )
}

/// A parsed JSON value (only the shapes this crate emits).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON string.
    Str(String),
    /// JSON number (parsed as f64).
    Num(f64),
    /// JSON null.
    Null,
    /// A flat string→string object (only used for `labels`).
    Object(BTreeMap<String, String>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSONL line of the shape this crate writes: a single-depth
/// object whose values are strings, numbers, `null`, or one nested flat
/// string→string object. Returns `None` on malformed input.
pub fn parse_line(line: &str) -> Option<BTreeMap<String, Value>> {
    let src = line.trim();
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None;
    }
    Some(map)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// A string literal. Each run of bytes up to the next `"` or `\` is
    /// copied as one slice of the line, so a literal without escapes
    /// costs one scan and one copy.
    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let len = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')?;
            // `"` and `\` are ASCII, so both ends are char boundaries.
            out.push_str(&self.src[start..start + len]);
            self.pos = start + len + 1;
            if self.bytes[start + len] == b'"' {
                return Some(out);
            }
            let esc = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self.bytes.get(self.pos..self.pos + 4)?;
                    self.pos += 4;
                    let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn flat_string_object(&mut self) -> Option<BTreeMap<String, String>> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(map);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.string()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(map);
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<BTreeMap<String, Value>> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(map);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = match self.peek()? {
                b'"' => Value::Str(self.string()?),
                b'{' => Value::Object(self.flat_string_object()?),
                b'n' => {
                    if self.bytes.get(self.pos..self.pos + 4)? == b"null" {
                        self.pos += 4;
                        Value::Null
                    } else {
                        return None;
                    }
                }
                _ => Value::Num(self.number()?),
            };
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(map);
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("π≈3"), "π≈3");
        let mut out = String::from("x");
        for s in ["", "plain", "\u{1f}é\"\r🦀\\"] {
            escape_into(&mut out, s);
        }
        assert_eq!(out, "xplain\\u001fé\\\"\\r🦀\\\\");
    }

    #[test]
    fn metric_lines_round_trip_through_parser() {
        let key = Key {
            name: "memsim.cache.loads".into(),
            labels: vec![("phase".into(), "recurse \"x\"".into())],
        };
        let line = metric_line(&key, &Metric::Counter(123));
        let parsed = parse_line(&line).expect("valid JSON");
        assert_eq!(parsed["type"].as_str(), Some("counter"));
        assert_eq!(parsed["name"].as_str(), Some("memsim.cache.loads"));
        assert_eq!(parsed["value"].as_num(), Some(123.0));
        match &parsed["labels"] {
            Value::Object(labels) => assert_eq!(labels["phase"], "recurse \"x\""),
            other => panic!("labels should be an object, got {other:?}"),
        }

        let mut h = Histogram::default();
        h.observe(10);
        h.observe(20);
        let hline = metric_line(
            &Key {
                name: "h".into(),
                labels: Vec::new(),
            },
            &Metric::Histogram(h),
        );
        let hp = parse_line(&hline).unwrap();
        assert_eq!(hp["count"].as_num(), Some(2.0));
        assert_eq!(hp["sum"].as_num(), Some(30.0));
        assert_eq!(hp["mean"].as_num(), Some(15.0));
    }

    #[test]
    fn gauge_handles_non_finite() {
        let key = Key {
            name: "g".into(),
            labels: Vec::new(),
        };
        let line = metric_line(&key, &Metric::Gauge(f64::NAN));
        let parsed = parse_line(&line).expect("null-valued gauge still parses");
        assert_eq!(parsed["value"], Value::Null);
        let line = metric_line(&key, &Metric::Gauge(-2.5));
        assert_eq!(parse_line(&line).unwrap()["value"].as_num(), Some(-2.5));
    }

    #[test]
    fn event_lines_parse() {
        let ev = Event {
            seq: 7,
            name: "pebbling.progress".into(),
            labels: vec![("algo".into(), "dijkstra".into())],
        };
        let parsed = parse_line(&event_line(&ev)).unwrap();
        assert_eq!(parsed["type"].as_str(), Some("event"));
        assert_eq!(parsed["seq"].as_num(), Some(7.0));
    }

    #[test]
    fn span_lines_round_trip_through_parser() {
        let r = SpanRecord {
            trace: 0xDEAD_BEEF_0000_0001,
            id: 3,
            parent: 2,
            name: "memsim.measure",
            total_ns: 1500,
            self_ns: 900,
            fields: vec![("io", 4096), ("loads", 7)],
        };
        let parsed = parse_line(&span_line(&r)).expect("valid JSON");
        assert_eq!(parsed["type"].as_str(), Some("span"));
        assert_eq!(parsed["trace"].as_str(), Some("deadbeef00000001"));
        assert_eq!(parsed["id"].as_num(), Some(3.0));
        assert_eq!(parsed["parent"].as_num(), Some(2.0));
        assert_eq!(parsed["name"].as_str(), Some("memsim.measure"));
        assert_eq!(parsed["total_ns"].as_num(), Some(1500.0));
        match &parsed["fields"] {
            Value::Object(fields) => {
                assert_eq!(fields["io"], "4096");
                assert_eq!(fields["loads"], "7");
            }
            other => panic!("fields should be an object, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "not json",
            "{\"a\":1} trailing",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_line(bad).is_none(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn string_runs_around_escapes_parse() {
        let cases = [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""plain\nrest""#, "plain\nrest"),
            (r#""ends in a quote\"""#, "ends in a quote\""),
            (r#""\"starts""#, "\"starts"),
            (r#""\\\\""#, "\\\\"),
            (r#""é 🦀 ≈""#, "é 🦀 ≈"),
            (r#""é\t🦀\u0041ß""#, "é\t🦀Aß"),
        ];
        for (literal, want) in cases {
            let line = format!("{{\"s\":{literal},\"o\":{{\"k\":{literal}}}}}");
            let parsed = parse_line(&line).unwrap_or_else(|| panic!("should parse: {line}"));
            assert_eq!(parsed["s"].as_str(), Some(want), "{line}");
            match &parsed["o"] {
                Value::Object(o) => assert_eq!(o["k"], want, "{line}"),
                other => panic!("o should be an object, got {other:?}"),
            }
        }
        for bad in [
            r#"{"s":"a\"}"#,
            r#"{"s":"a\q"}"#,
            r#"{"s":"\u00"}"#,
            r#"{"s":"\ud83d"}"#,
        ] {
            assert!(parse_line(bad).is_none(), "should reject: {bad}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let parsed = parse_line("{\"name\":\"\\u0041\\n\"}").unwrap();
        assert_eq!(parsed["name"].as_str(), Some("A\n"));
    }
}
