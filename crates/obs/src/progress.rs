//! Throttled stderr progress reporting for long-running searches.
//!
//! [`Progress`] is cheap to tick from a hot loop: the modulo check is a
//! branch on a local counter, and the wall clock is only consulted every
//! `stride` ticks. Lines are emitted at most once per 200 ms and only when
//! the level is `full`, so batch runs stay quiet by default.

use crate::{detailed, now};
use std::io::Write;
use std::time::{Duration, Instant};

/// Minimum interval between emitted lines.
const THROTTLE: Duration = Duration::from_millis(200);

/// A throttled progress reporter.
pub struct Progress {
    label: &'static str,
    stride: u64,
    count: u64,
    since_check: u64,
    last_emit: Instant,
    emitted: bool,
    active: bool,
}

impl Progress {
    /// A reporter that consults the clock every `stride` ticks.
    pub fn new(label: &'static str, stride: u64) -> Progress {
        Progress {
            label,
            stride: stride.max(1),
            count: 0,
            since_check: 0,
            last_emit: now(),
            emitted: false,
            active: detailed(),
        }
    }

    /// Count `n` units of work, possibly emitting a line.
    #[inline]
    pub fn tick(&mut self, n: u64) {
        if !self.active {
            return;
        }
        self.count += n;
        self.since_check += n;
        if self.since_check >= self.stride {
            self.since_check = 0;
            self.maybe_emit();
        }
    }

    fn maybe_emit(&mut self) {
        let elapsed = self.last_emit.elapsed();
        if elapsed >= THROTTLE {
            self.last_emit = now();
            self.emitted = true;
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "[fmm-obs] {}: {}", self.label, self.count);
        }
    }

    /// Emit a final line (only if at least one line was emitted, so quick
    /// runs stay silent) and stop reporting.
    pub fn finish(&mut self) {
        if self.active && self.emitted {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "[fmm-obs] {}: {} (done)", self.label, self.count);
        }
        self.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_when_not_detailed() {
        let _guard = crate::test_sync::lock_level();
        crate::set_level(crate::Level::Off);
        let mut p = Progress::new("states", 8);
        for _ in 0..100 {
            p.tick(1);
        }
        assert_eq!(p.count, 0, "ticks are ignored when off");
        p.finish();
    }

    #[test]
    fn counts_accumulate_when_forced_active() {
        let mut p = Progress::new("states", 4);
        p.active = true;
        for _ in 0..10 {
            p.tick(3);
        }
        assert_eq!(p.count, 30);
        p.finish();
        p.tick(1);
        assert_eq!(p.count, 30, "finish() stops counting");
    }
}
