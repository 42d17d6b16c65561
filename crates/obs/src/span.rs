//! RAII span timers with nested self-time accounting and per-trace ids.
//!
//! A [`Span`] measures wall time from construction to drop and records two
//! histograms in the global registry: `obs.span.total_ns` (inclusive of
//! children) and `obs.span.self_ns` (exclusive), both labelled
//! `span=<name>`. A thread-local stack attributes child time to the
//! enclosing span, so nested instrumentation (e.g. recursion levels) does
//! not double-count.
//!
//! Beyond the histograms, every span closed while a **trace scope** is
//! open (see [`trace_scope`]) also appends a structured [`SpanRecord`] —
//! trace id, its own process-unique span id, its parent's span id, and any
//! [`Span::record`]ed counters — to the global registry's span log. The
//! JSONL sink emits those as `{"type":"span",...}` lines, which
//! [`crate::trace`] reassembles into per-trace span trees (the
//! `fastmm report --traces` pipeline). Spans closed outside any trace
//! scope keep their histogram behaviour and cost no log entry, so
//! non-serving workloads are unaffected.

use crate::{detailed, duration_ns, now, observe};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One closed span, as stored in the registry's span log.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Owning trace id (0 outside any [`trace_scope`]; such spans are not
    /// logged).
    pub trace: u64,
    /// Process-unique span id (monotone from 1).
    pub id: u64,
    /// Enclosing span's id on the same thread; 0 for a trace root.
    pub parent: u64,
    /// The static name passed to [`Span::enter`].
    pub name: &'static str,
    /// Wall time including children.
    pub total_ns: u64,
    /// Wall time excluding same-thread child spans.
    pub self_ns: u64,
    /// Counters attached via [`Span::record`] (e.g. I/O words), in
    /// attachment order.
    pub fields: Vec<(&'static str, u64)>,
}

/// Process-wide span id source; 0 is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Raise the floor of the span id counter (monotone: a lower base than
/// the counter's current value is a no-op). Multi-process pipelines that
/// merge span JSONL from several processes into one trace — the fleet
/// router plus its shard servers — give each process a disjoint base
/// (e.g. `(shard + 1) << 40`) so ids never collide inside a merged
/// trace. Keep bases below 2^52: span ids travel through a JSON number
/// parsed as `f64`, which is exact only up to 2^53.
pub fn set_span_id_base(base: u64) {
    NEXT_SPAN_ID.fetch_max(base.max(1), Ordering::SeqCst);
}

/// Allocate a span id without opening a [`Span`]. For hand-built
/// [`SpanRecord`]s that cannot use RAII timing — e.g. the router's
/// `route.<kind>` span, which opens at dispatch on one thread and closes
/// at the reply on another.
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// One frame per open span on this thread: (span id, child time).
    static STACK: RefCell<Vec<(u64, Duration)>> = const { RefCell::new(Vec::new()) };
    /// The trace id spans on this thread belong to (0 = none).
    static TRACE: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard restoring the previous trace id on drop.
pub struct TraceScope {
    prev: u64,
}

/// Tag every span closed on this thread until the guard drops with
/// `trace_id`. Nests: the previous id is restored on drop, so a job's
/// scope can safely bracket library code that opens its own.
pub fn trace_scope(trace_id: u64) -> TraceScope {
    let prev = TRACE.with(|t| t.replace(trace_id));
    TraceScope { prev }
}

/// The trace id currently in scope on this thread (0 = none).
pub(crate) fn current_trace() -> u64 {
    TRACE.with(|t| t.get())
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        TRACE.with(|t| t.set(self.prev));
    }
}

/// A running span; records on drop. Inert (zero bookkeeping beyond one
/// branch) unless the level is `full`.
pub struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    fields: Vec<(&'static str, u64)>,
    start: Option<Instant>,
}

impl Span {
    /// Open a span. The timer only runs when [`crate::detailed()`].
    pub fn enter(name: &'static str) -> Span {
        if !detailed() {
            return Span {
                name,
                id: 0,
                parent: 0,
                fields: Vec::new(),
                start: None,
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().map(|(id, _)| *id).unwrap_or(0);
            stack.push((id, Duration::ZERO));
            parent
        });
        Span {
            name,
            id,
            parent,
            fields: Vec::new(),
            start: Some(now()),
        }
    }

    /// Attach a counter to this span's log record (e.g. the I/O words the
    /// work under it measured). No-op when telemetry is off.
    pub fn record(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.fields.push((key, value));
        }
    }

    /// Override the parent span id. A root span whose *logical* parent
    /// lives in another process (the router's `route.<kind>` span,
    /// propagated over the wire as a request param) sets it here so the
    /// merged trace tree links across the process boundary. Only
    /// meaningful on spans with no same-thread parent; no-op when
    /// telemetry is off.
    pub fn set_parent(&mut self, parent: u64) {
        if self.start.is_some() && self.parent == 0 {
            self.parent = parent;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total = start.elapsed();
        let children = STACK
            .with(|stack| stack.borrow_mut().pop())
            .map(|(_, child)| child)
            .unwrap_or(Duration::ZERO);
        // Attribute our total time to the parent span, if one is open.
        STACK.with(|stack| {
            if let Some((_, parent)) = stack.borrow_mut().last_mut() {
                *parent += total;
            }
        });
        let labels = [("span", self.name.to_string())];
        let total_ns = duration_ns(total);
        let self_ns = duration_ns(total.saturating_sub(children));
        observe("obs.span.total_ns", &labels, total_ns);
        observe("obs.span.self_ns", &labels, self_ns);
        let trace = current_trace();
        if trace != 0 {
            crate::global().record_span(SpanRecord {
                trace,
                id: self.id,
                parent: self.parent,
                name: self.name,
                total_ns,
                self_ns,
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_sync::lock_level;
    use crate::{global, set_level, Key, Level, Metric};

    fn hist(name: &str, span: &str) -> Option<crate::Histogram> {
        let key = Key {
            name: name.to_string(),
            labels: vec![("span".to_string(), span.to_string())],
        };
        global()
            .snapshot()
            .into_iter()
            .find(|(k, _)| *k == key)
            .map(|(_, m)| match m {
                Metric::Histogram(h) => h,
                other => panic!("expected histogram, got {other:?}"),
            })
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let _guard = lock_level();
        set_level(Level::Full);
        {
            let _outer = Span::enter("test_outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = Span::enter("test_inner");
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let outer_total = hist("obs.span.total_ns", "test_outer").unwrap();
        let outer_self = hist("obs.span.self_ns", "test_outer").unwrap();
        let inner_total = hist("obs.span.total_ns", "test_inner").unwrap();
        assert_eq!(outer_total.count, 1);
        assert!(outer_total.sum >= inner_total.sum, "outer includes inner");
        assert!(
            outer_self.sum <= outer_total.sum - inner_total.sum,
            "self time excludes the inner span"
        );
        set_level(Level::Off);
    }

    #[test]
    fn spans_are_inert_when_off() {
        let _guard = lock_level();
        set_level(Level::Off);
        let before = global().snapshot().len();
        {
            let mut s = Span::enter("should_not_record");
            s.record("io", 7);
            assert_eq!(s.id, 0);
        }
        assert_eq!(global().snapshot().len(), before);
    }

    #[test]
    fn trace_scope_links_parent_and_child_records() {
        let _guard = lock_level();
        set_level(Level::Full);
        let trace = 0xABCD_1234_u64;
        {
            let _t = trace_scope(trace);
            assert_eq!(current_trace(), trace);
            let mut outer = Span::enter("trace_outer");
            outer.record("io", 42);
            {
                let _inner = Span::enter("trace_inner");
            }
        }
        assert_eq!(current_trace(), 0, "scope restored on drop");
        set_level(Level::Off);
        let (records, dropped) = global().spans();
        let ours: Vec<&SpanRecord> = records.iter().filter(|r| r.trace == trace).collect();
        assert_eq!(dropped, 0);
        assert_eq!(ours.len(), 2, "both spans logged under the trace");
        // Spans close inner-first.
        let inner = ours.iter().find(|r| r.name == "trace_inner").unwrap();
        let outer = ours.iter().find(|r| r.name == "trace_outer").unwrap();
        assert_eq!(inner.parent, outer.id, "child links to parent id");
        assert_eq!(outer.parent, 0, "root has no parent");
        assert_eq!(outer.fields, vec![("io", 42)]);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn span_id_base_partitions_ids_and_set_parent_links_cross_process() {
        let _guard = lock_level();
        set_level(Level::Full);
        set_span_id_base(1 << 40);
        assert!(next_span_id() >= 1 << 40, "ids continue above the base");
        set_span_id_base(5); // lowering is a no-op
        assert!(next_span_id() >= 1 << 40);
        let trace = 0xF1EE_7000_u64;
        let remote_parent = next_span_id();
        {
            let _t = trace_scope(trace);
            let mut s = Span::enter("cross_process_child");
            s.set_parent(remote_parent);
        }
        set_level(Level::Off);
        let (records, _) = global().spans();
        let ours = records
            .iter()
            .find(|r| r.trace == trace)
            .expect("span logged");
        assert_eq!(ours.parent, remote_parent);
    }

    #[test]
    fn spans_outside_a_trace_scope_are_not_logged() {
        let _guard = lock_level();
        set_level(Level::Full);
        let before = global().spans().0.len();
        {
            let _s = Span::enter("untraced");
        }
        set_level(Level::Off);
        assert_eq!(global().spans().0.len(), before);
    }
}
