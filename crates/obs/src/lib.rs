//! `fmm-obs`: lightweight telemetry for the fastmm workspace.
//!
//! Design goals, in order:
//!
//! 1. **Near-zero cost when off.** Every instrumentation site is guarded by
//!    [`enabled()`] / [`detailed()`] — a single relaxed atomic load — and
//!    label strings are only materialised inside the guarded branch, so the
//!    kernels' hot loops see one predictable branch and no allocation.
//! 2. **No dependencies** beyond std: per-worker [`LocalCollector`]s
//!    leave scoped threads over an `mpsc` channel, and JSON is
//!    hand-rolled in [`json`], including the escaping and the tiny flat
//!    parser the `fastmm report` subcommand uses. [`jsonl`] is the one
//!    append-only log file (commit rule, torn-tail repair) behind the
//!    sweep checkpoint and the router journal.
//! 3. **Deterministic output.** Snapshots are sorted by metric name and
//!    labels so tables and JSONL diffs are stable across runs.
//!
//! The runtime filter is the `FMM_OBS` environment variable:
//! `off` (default), `summary` (cheap aggregate counters), or `full`
//! (per-level / per-processor breakdowns, spans, event log). The CLI's
//! `--metrics` flag force-enables `full` via [`set_level`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod json;
pub mod jsonl;
pub mod progress;
pub mod span;
pub mod trace;

pub use progress::Progress;
pub use span::{Span, SpanRecord};

// ---------------------------------------------------------------------------
// Level filter
// ---------------------------------------------------------------------------

/// How much telemetry to record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; instrumentation sites reduce to one branch.
    Off = 0,
    /// Aggregate counters and histograms only.
    Summary = 1,
    /// Everything: per-level/per-processor labels, spans, events, progress.
    Full = 2,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Summary,
            2 => Level::Full,
            _ => Level::Off,
        }
    }

    /// Parse a `FMM_OBS` value; unknown strings mean `Off`.
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" | "on" | "1" => Level::Summary,
            "full" | "2" => Level::Full,
            _ => Level::Off,
        }
    }
}

/// 0..=2 once initialised; `UNSET` until the first query.
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 0xFF;

fn init_level() -> Level {
    let lvl = std::env::var("FMM_OBS")
        .map(|v| Level::parse(&v))
        .unwrap_or(Level::Off);
    LEVEL.store(lvl as u8, Ordering::Relaxed);
    lvl
}

/// The current telemetry level (reads `FMM_OBS` on first call).
#[inline]
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == UNSET {
        init_level()
    } else {
        Level::from_u8(raw)
    }
}

/// Override the level programmatically (e.g. when `--metrics` is passed).
pub fn set_level(lvl: Level) {
    LEVEL.store(lvl as u8, Ordering::Relaxed);
}

/// True when any telemetry should be recorded. Guard every call site.
#[inline]
pub fn enabled() -> bool {
    level() != Level::Off
}

/// True when high-cardinality detail (per-level, per-proc, spans, events)
/// should be recorded.
#[inline]
pub fn detailed() -> bool {
    level() == Level::Full
}

// ---------------------------------------------------------------------------
// Metric keys and values
// ---------------------------------------------------------------------------

/// Owned label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// Borrowed labels at call sites: `&[("level", 3.to_string())]`.
pub type LabelRef<'a> = &'a [(&'a str, String)];

fn own_labels(labels: LabelRef<'_>) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, val)| ((*k).to_string(), val.clone()))
        .collect();
    v.sort();
    v
}

/// A metric identity: name plus sorted labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Dotted metric name, e.g. `memsim.cache.evictions`.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
}

/// Power-of-two bucketed histogram with exact count/sum/min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `buckets[i]` counts observations with `floor(log2(v)) == i - 1`
    /// (`buckets[0]` counts zeros).
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum += v;
        let b = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been observed. Callers reporting percentiles
    /// should check this rather than treating a `0` as "no data" — zero is
    /// a legitimate observation.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate `q`-th percentile (`q` in `0.0..=100.0`) from the
    /// power-of-two buckets, with **within-bucket linear interpolation**:
    /// the rank-`⌈q/100·count⌉` observation is placed at its proportional
    /// position inside its bucket's `[2^(i-1), 2^i - 1]` range, and the
    /// result is clamped to `[min, max]` so exact extremes stay exact.
    /// Rank 1 returns `min` and rank `count` returns `max` exactly.
    /// Returns 0 when empty (guard with [`Histogram::is_empty`]).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64)
            .ceil()
            .clamp(1.0, self.count as f64) as u64;
        if rank <= 1 {
            return self.min;
        }
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Bucket 0 holds zeros; bucket i ≥ 1 holds [2^(i-1), 2^i - 1].
                let (lower, upper) = if i == 0 {
                    (0u64, 0u64)
                } else if i >= 64 {
                    (1u64 << 63, u64::MAX)
                } else {
                    (1u64 << (i - 1), (1u64 << i) - 1)
                };
                // Centre of the rank'th observation's share of the bucket.
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                let v = lower as f64 + frac * (upper - lower) as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median observation (interpolated; see [`Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile observation (interpolated).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile observation (interpolated).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// One recorded metric value.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)] // histograms are rare; boxing would cost a deref on every observe
pub enum Metric {
    /// Monotone sum.
    Counter(u64),
    /// Last-write-wins float.
    Gauge(f64),
    /// Distribution of `u64` observations.
    Histogram(Histogram),
}

/// A discrete event for the JSONL event log.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone sequence number within the registry.
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Sorted labels.
    pub labels: Labels,
}

/// Cap on retained events so a runaway loop cannot exhaust memory; overflow
/// is counted in `obs.events.dropped`.
const EVENT_CAP: usize = 100_000;

/// Cap on retained span records, mirroring [`EVENT_CAP`]; overflow is
/// counted in `obs.spans.dropped`.
const SPAN_CAP: usize = 100_000;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    metrics: HashMap<Key, Metric>,
    events: Vec<Event>,
    events_dropped: u64,
    event_seq: u64,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
}

/// Thread-safe store of named metrics and the event log.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry (the process-wide one is [`global()`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to a counter, creating it at zero.
    pub fn add(&self, name: &str, labels: LabelRef<'_>, delta: u64) {
        if delta == 0 {
            return;
        }
        let key = Key {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        let mut inner = self.inner.lock().unwrap();
        match inner.metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => *other = Metric::Counter(delta),
        }
    }

    /// Set a gauge.
    pub fn gauge(&self, name: &str, labels: LabelRef<'_>, value: f64) {
        let key = Key {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        let mut inner = self.inner.lock().unwrap();
        inner.metrics.insert(key, Metric::Gauge(value));
    }

    /// Record one histogram observation.
    pub fn observe(&self, name: &str, labels: LabelRef<'_>, value: u64) {
        let key = Key {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        let mut inner = self.inner.lock().unwrap();
        match inner
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            other => {
                let mut h = Histogram::default();
                h.observe(value);
                *other = Metric::Histogram(h);
            }
        }
    }

    /// Append an event to the log (bounded by an internal cap).
    pub fn event(&self, name: &str, labels: LabelRef<'_>) {
        let mut inner = self.inner.lock().unwrap();
        inner.event_seq += 1;
        if inner.events.len() >= EVENT_CAP {
            inner.events_dropped += 1;
            return;
        }
        let seq = inner.event_seq;
        let ev = Event {
            seq,
            name: name.to_string(),
            labels: own_labels(labels),
        };
        inner.events.push(ev);
    }

    /// Fold a worker-local collector into this registry.
    pub fn absorb(&self, local: LocalCollector) {
        let mut inner = self.inner.lock().unwrap();
        for (key, metric) in local.metrics {
            match (inner.metrics.get_mut(&key), metric) {
                (Some(Metric::Counter(c)), Metric::Counter(d)) => *c += d,
                (Some(Metric::Histogram(h)), Metric::Histogram(other)) => h.merge(&other),
                (_, m) => {
                    inner.metrics.insert(key, m);
                }
            }
        }
    }

    /// Current value of a counter, if present.
    pub fn counter_value(&self, name: &str, labels: LabelRef<'_>) -> Option<u64> {
        let key = Key {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        match self.inner.lock().unwrap().metrics.get(&key) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Sum of every counter whose name matches `name`, across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Sorted copy of every metric.
    pub fn snapshot(&self) -> Vec<(Key, Metric)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<(Key, Metric)> = inner
            .metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Copy of the event log in sequence order, plus the dropped count.
    pub fn events(&self) -> (Vec<Event>, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.events.clone(), inner.events_dropped)
    }

    /// Append a closed span's record to the span log (bounded by an
    /// internal cap). Called by [`Span`]'s drop when a trace is in scope.
    pub fn record_span(&self, record: SpanRecord) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans.len() >= SPAN_CAP {
            inner.spans_dropped += 1;
            return;
        }
        inner.spans.push(record);
    }

    /// Copy of the span log in close order, plus the dropped count.
    pub fn spans(&self) -> (Vec<SpanRecord>, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.spans.clone(), inner.spans_dropped)
    }

    /// Drop all metrics, events, and spans.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.metrics.clear();
        inner.events.clear();
        inner.events_dropped = 0;
        inner.event_seq = 0;
        inner.spans.clear();
        inner.spans_dropped = 0;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.metrics.is_empty() && inner.events.is_empty() && inner.spans.is_empty()
    }

    /// Render a human-readable table of all metrics.
    pub fn render_table(&self) -> String {
        render_table_from(&self.snapshot())
    }

    /// Serialise every metric and event as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for (key, metric) in self.snapshot() {
            writeln!(w, "{}", json::metric_line(&key, &metric))?;
        }
        let (events, dropped) = self.events();
        for ev in &events {
            writeln!(w, "{}", json::event_line(ev))?;
        }
        if dropped > 0 {
            let key = Key {
                name: "obs.events.dropped".into(),
                labels: Vec::new(),
            };
            writeln!(w, "{}", json::metric_line(&key, &Metric::Counter(dropped)))?;
        }
        let (spans, spans_dropped) = self.spans();
        for record in &spans {
            writeln!(w, "{}", json::span_line(record))?;
        }
        if spans_dropped > 0 {
            let key = Key {
                name: "obs.spans.dropped".into(),
                labels: Vec::new(),
            };
            writeln!(
                w,
                "{}",
                json::metric_line(&key, &Metric::Counter(spans_dropped))
            )?;
        }
        Ok(())
    }

    /// [`write_jsonl`](Self::write_jsonl) into a `String`.
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("JSONL output is UTF-8")
    }
}

/// Render a sorted `(Key, Metric)` list as an aligned text table.
pub fn render_table_from(snapshot: &[(Key, Metric)]) -> String {
    let mut rows: Vec<(String, String)> = Vec::with_capacity(snapshot.len());
    for (key, metric) in snapshot {
        let mut name = key.name.clone();
        if !key.labels.is_empty() {
            name.push('{');
            for (i, (k, v)) in key.labels.iter().enumerate() {
                if i > 0 {
                    name.push(',');
                }
                name.push_str(k);
                name.push('=');
                name.push_str(v);
            }
            name.push('}');
        }
        let value = match metric {
            Metric::Counter(c) => c.to_string(),
            Metric::Gauge(g) => format!("{g:.4}"),
            Metric::Histogram(h) => format!(
                "count={} sum={} min={} mean={:.1} max={}",
                h.count,
                h.sum,
                h.min,
                h.mean(),
                h.max
            ),
        };
        rows.push((name, value));
    }
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in rows {
        out.push_str(&format!("{name:<width$}  {value}\n"));
    }
    out
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Free helpers over the global registry (all call sites guard with
// `enabled()`/`detailed()` so the label Strings never allocate when off).
// ---------------------------------------------------------------------------

/// Add to a global counter.
pub fn add(name: &str, labels: LabelRef<'_>, delta: u64) {
    global().add(name, labels, delta);
}

/// Set a global gauge.
pub fn gauge(name: &str, labels: LabelRef<'_>, value: f64) {
    global().gauge(name, labels, value);
}

/// Observe into a global histogram.
pub fn observe(name: &str, labels: LabelRef<'_>, value: u64) {
    global().observe(name, labels, value);
}

/// Append to the global event log.
pub fn event(name: &str, labels: LabelRef<'_>) {
    global().event(name, labels);
}

// ---------------------------------------------------------------------------
// Worker-local collection
// ---------------------------------------------------------------------------

/// Lock-free per-thread metric buffer for parallel simulators.
///
/// Workers record into their own collector, ship it over an `mpsc`
/// channel when done, and the coordinator [`Registry::absorb`]s each one —
/// no shared-lock traffic on the simulation's hot path.
#[derive(Default, Debug)]
pub struct LocalCollector {
    metrics: HashMap<Key, Metric>,
}

impl LocalCollector {
    /// An empty collector.
    pub fn new() -> Self {
        LocalCollector::default()
    }

    /// Add to a local counter.
    pub fn add(&mut self, name: &str, labels: LabelRef<'_>, delta: u64) {
        if delta == 0 {
            return;
        }
        let key = Key {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        match self.metrics.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => *other = Metric::Counter(delta),
        }
    }

    /// Observe into a local histogram.
    pub fn observe(&mut self, name: &str, labels: LabelRef<'_>, value: u64) {
        let key = Key {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            other => {
                let mut h = Histogram::default();
                h.observe(value);
                *other = Metric::Histogram(h);
            }
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

/// A channel for shipping collectors out of scoped worker threads.
pub fn collector_channel() -> (mpsc::Sender<LocalCollector>, mpsc::Receiver<LocalCollector>) {
    mpsc::channel()
}

/// Drain every collector currently in `rx` into the global registry.
/// Call after the workers' scope has joined (so all sends have happened).
pub fn absorb_all(rx: &mpsc::Receiver<LocalCollector>) {
    while let Ok(local) = rx.try_recv() {
        global().absorb(local);
    }
}

// ---------------------------------------------------------------------------
// Timing helpers shared by span/progress
// ---------------------------------------------------------------------------

pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

pub(crate) fn now() -> Instant {
    Instant::now()
}

#[cfg(test)]
pub(crate) mod test_sync {
    //! Serialises tests that read or flip the global level (the test
    //! harness runs tests on concurrent threads).
    use std::sync::{Mutex, MutexGuard};

    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    pub fn lock_level() -> MutexGuard<'static, ()> {
        LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.add("io.words", &[("proc", "0".into())], 5);
        r.add("io.words", &[("proc", "0".into())], 7);
        r.add("io.words", &[("proc", "1".into())], 3);
        assert_eq!(
            r.counter_value("io.words", &[("proc", "0".into())]),
            Some(12)
        );
        assert_eq!(
            r.counter_value("io.words", &[("proc", "1".into())]),
            Some(3)
        );
        assert_eq!(r.counter_total("io.words"), 15);
    }

    #[test]
    fn label_order_is_canonicalised() {
        let r = Registry::new();
        r.add("m", &[("b", "2".into()), ("a", "1".into())], 1);
        r.add("m", &[("a", "1".into()), ("b", "2".into())], 1);
        assert_eq!(
            r.counter_value("m", &[("b", "2".into()), ("a", "1".into())]),
            Some(2)
        );
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn histogram_stats_and_merge() {
        let mut a = Histogram::default();
        for v in [0, 1, 2, 1024] {
            a.observe(v);
        }
        assert_eq!((a.count, a.sum, a.min, a.max), (4, 1027, 0, 1024));
        let mut b = Histogram::default();
        b.observe(7);
        b.merge(&a);
        assert_eq!((b.count, b.sum, b.min, b.max), (5, 1034, 0, 1024));
        assert_eq!(b.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn percentiles_from_buckets() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");

        // All observations equal: every percentile clamps to that value.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.observe(100);
        }
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p95(), 100);
        assert_eq!(h.percentile(0.0), 100);

        // Spread observations: percentiles are monotone, bracketed by
        // [min, max], and the tail reaches max exactly.
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 4, 8, 16, 32, 64, 128, 1000] {
            h.observe(v);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p50() >= h.min && h.p95() <= h.max);
        assert_eq!(h.percentile(100.0), 1000);
        // p50 is the 5th of 10 observations (value 8, bucket [8,15]);
        // interpolated to the centre of its share: 8 + 0.5·7 = 11.5 → 12.
        assert_eq!(h.p50(), 12);
        assert!(!h.is_empty());
        assert!(Histogram::default().is_empty());

        // Zeros live in bucket 0.
        let mut h = Histogram::default();
        for _ in 0..4 {
            h.observe(0);
        }
        h.observe(7);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 7);
    }

    #[test]
    fn absorb_merges_counters_and_histograms() {
        let r = Registry::new();
        r.add("c", &[], 10);
        r.observe("h", &[], 4);
        let mut local = LocalCollector::new();
        local.add("c", &[], 5);
        local.add("only_local", &[], 2);
        local.observe("h", &[], 8);
        r.absorb(local);
        assert_eq!(r.counter_value("c", &[]), Some(15));
        assert_eq!(r.counter_value("only_local", &[]), Some(2));
        match &r.snapshot().iter().find(|(k, _)| k.name == "h").unwrap().1 {
            Metric::Histogram(h) => assert_eq!((h.count, h.sum), (2, 12)),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_clear_empties() {
        let r = Registry::new();
        r.add("z", &[], 1);
        r.add("a", &[("x", "1".into())], 1);
        r.add("a", &[], 1);
        let snap = r.snapshot();
        let names: Vec<_> = snap
            .iter()
            .map(|(k, _)| (k.name.clone(), k.labels.len()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a".to_string(), 0),
                ("a".to_string(), 1),
                ("z".to_string(), 0)
            ]
        );
        r.event("e", &[]);
        assert!(!r.is_empty());
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn events_are_ordered_and_capped_gracefully() {
        let r = Registry::new();
        r.event("first", &[]);
        r.event("second", &[("k", "v".into())]);
        let (events, dropped) = r.events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert_eq!(events[1].labels, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("SUMMARY"), Level::Summary);
        assert_eq!(Level::parse(" full "), Level::Full);
        assert_eq!(Level::parse("garbage"), Level::Off);
    }

    #[test]
    fn collector_channel_round_trip() {
        let r = Registry::new();
        let (tx, rx) = collector_channel();
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    let mut local = LocalCollector::new();
                    local.add("net.words", &[("proc", p.to_string())], p + 1);
                    tx.send(local).unwrap();
                });
            }
        });
        drop(tx);
        while let Ok(local) = rx.try_recv() {
            r.absorb(local);
        }
        assert_eq!(r.counter_total("net.words"), 1 + 2 + 3 + 4);
    }

    #[test]
    fn table_renders_every_kind() {
        let r = Registry::new();
        r.add("counter", &[("level", "3".into())], 9);
        r.gauge("gauge", &[], 0.5);
        r.observe("hist", &[], 16);
        let table = r.render_table();
        assert!(table.contains("counter{level=3}"));
        assert!(table.contains("0.5000"));
        assert!(table.contains("count=1 sum=16"));
    }
}
