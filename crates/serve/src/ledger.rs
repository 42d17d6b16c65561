//! The job ledger: the seven counters behind the conservation law
//!
//! ```text
//! accepted == completed + errored + cancelled + deadline_exceeded
//! ```
//!
//! shared by the single server and the fleet router. This module is the
//! only place a terminal [`Status`] maps to a counter, the only place the
//! law is checked, and — through [`Ledger::reject`] and [`Ledger::shed`] —
//! the only place a refusal is counted, so the counter and the refusal
//! reply the client tallies can never drift apart.
//!
//! Each owner passes its own metric names ([`Names`]), so the mirror into
//! [`fmm_obs`] keeps the `serve_*` / `router_*` prefixes.

use crate::conn::Reply;
use crate::proto::{Response, Status};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

const ACCEPTED: usize = 0;
const COMPLETED: usize = 1;
const ERRORED: usize = 2;
const CANCELLED: usize = 3;
const DEADLINE_EXCEEDED: usize = 4;
const SHED: usize = 5;
const REJECTED: usize = 6;

/// Wire keys of the seven counters, in slot order.
const KEYS: [&str; 7] = [
    "accepted",
    "completed",
    "errored",
    "cancelled",
    "deadline_exceeded",
    "shed",
    "rejected",
];

/// [`fmm_obs`] metric names of the seven counters, in the order
/// accepted, completed, errored, cancelled, deadline_exceeded, shed,
/// rejected.
pub type Names = [&'static str; 7];

/// The counter a terminal status settles into. Anything that is not a
/// clean completion, a cancel, or a deadline counts as `errored`.
fn settled_slot(status: Status) -> usize {
    match status {
        Status::Completed => COMPLETED,
        Status::Cancelled => CANCELLED,
        Status::DeadlineExceeded => DEADLINE_EXCEEDED,
        _ => ERRORED,
    }
}

/// A point-in-time copy of the ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub completed: u64,
    pub errored: u64,
    pub cancelled: u64,
    pub deadline_exceeded: u64,
    pub shed: u64,
    pub rejected: u64,
}

impl StatsSnapshot {
    fn from_counts(c: [u64; 7]) -> StatsSnapshot {
        StatsSnapshot {
            accepted: c[ACCEPTED],
            completed: c[COMPLETED],
            errored: c[ERRORED],
            cancelled: c[CANCELLED],
            deadline_exceeded: c[DEADLINE_EXCEEDED],
            shed: c[SHED],
            rejected: c[REJECTED],
        }
    }

    fn counts(&self) -> [u64; 7] {
        [
            self.accepted,
            self.completed,
            self.errored,
            self.cancelled,
            self.deadline_exceeded,
            self.shed,
            self.rejected,
        ]
    }

    /// Jobs that reached a terminal reply.
    pub fn terminal(&self) -> u64 {
        self.completed + self.errored + self.cancelled + self.deadline_exceeded
    }

    /// The conservation law; holds whenever no job is in flight (always
    /// true for the final snapshot after a drain).
    pub fn balanced(&self) -> bool {
        self.accepted == self.terminal()
    }

    /// Count one settle of `status` (journal replay folds its records
    /// through this, the live ledger through [`Ledger::settle`]).
    pub fn settle(&mut self, status: Status) {
        let mut c = self.counts();
        c[settled_slot(status)] += 1;
        *self = StatsSnapshot::from_counts(c);
    }

    /// Flat map: the `stats` reply's counters and every shutdown ack.
    pub fn as_map(&self) -> BTreeMap<String, String> {
        KEYS.iter()
            .zip(self.counts())
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Inverse of [`StatsSnapshot::as_map`] (extra keys ignored); `None`
    /// when any counter is missing or not a number.
    pub fn from_map(m: &BTreeMap<String, String>) -> Option<StatsSnapshot> {
        let mut c = [0u64; 7];
        for (slot, key) in c.iter_mut().zip(KEYS) {
            *slot = m.get(key)?.parse().ok()?;
        }
        Some(StatsSnapshot::from_counts(c))
    }
}

/// `accepted=… completed=… errored=… cancelled=… deadline_exceeded=…
/// shed=… rejected=…`: the counters of the `drained:` lines.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (key, value)) in KEYS.iter().zip(self.counts()).enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{key}={value}")?;
        }
        Ok(())
    }
}

/// The live ledger: seven monotonic counters (only `accepted` ever rolls
/// back), mirrored into [`fmm_obs`] when telemetry is enabled.
pub struct Ledger {
    names: Names,
    counts: [AtomicU64; 7],
}

impl Ledger {
    pub fn new(names: Names) -> Ledger {
        Ledger {
            names,
            counts: Default::default(),
        }
    }

    fn mirror(&self, slot: usize) {
        if fmm_obs::enabled() {
            fmm_obs::add(self.names[slot], &[], 1);
        }
    }

    fn bump(&self, slot: usize) {
        self.counts[slot].fetch_add(1, Ordering::SeqCst);
        self.mirror(slot);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_counts(self.counts.each_ref().map(|c| c.load(Ordering::SeqCst)))
    }

    /// Jobs accepted so far (net of roll-backs).
    pub fn accepted(&self) -> u64 {
        self.counts[ACCEPTED].load(Ordering::SeqCst)
    }

    /// Count one admission.
    pub fn accept(&self) {
        self.bump(ACCEPTED);
    }

    /// Count an admission *before* handing the job over (`admit`, e.g. a
    /// queue push), so the drain condition `accepted == terminal` can
    /// never see a job settle ahead of its own acceptance; roll it back
    /// if `admit` refuses. Only a kept admission reaches the mirror.
    pub(crate) fn try_accept<T, E>(&self, admit: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.counts[ACCEPTED].fetch_add(1, Ordering::SeqCst);
        let admitted = admit();
        match admitted {
            Ok(_) => self.mirror(ACCEPTED),
            Err(_) => self.unaccept(),
        }
        admitted
    }

    /// Roll back an admission that will never reach a terminal reply
    /// (the caller counts it as shed or rejected instead). The mirror is
    /// a monotonic counter and keeps the admission.
    pub fn unaccept(&self) {
        self.counts[ACCEPTED].fetch_sub(1, Ordering::SeqCst);
    }

    /// Count one terminal reply under the counter its status maps to.
    pub fn settle(&self, status: Status) {
        self.bump(settled_slot(status));
    }

    /// Seed the counters from a journal replay.
    pub fn restore(&self, snap: &StatsSnapshot) {
        for (c, v) in self.counts.iter().zip(snap.counts()) {
            c.store(v, Ordering::SeqCst);
        }
    }

    /// Refuse a request pre-admission as malformed or invalid: count it
    /// and answer `error` with reason `rejected: <reason>`.
    pub fn reject(&self, reply: &Reply, id: &str, reason: &str) {
        reply.send(&self.rejection(id, reason));
    }

    /// Refuse a request pre-admission for lack of capacity: count it and
    /// answer `shed` with `reason`.
    pub fn shed(&self, reply: &Reply, id: &str, reason: &str) {
        reply.send(&self.shedding(id, reason));
    }

    /// [`Ledger::reject`] for a caller that sends the reply itself: count
    /// the rejection and return its reply.
    pub fn rejection(&self, id: &str, reason: &str) -> Response {
        self.bump(REJECTED);
        Response::new(id, Status::Error).with_reason(&format!("rejected: {reason}"))
    }

    /// [`Ledger::shed`] for a caller that sends the reply itself: count
    /// the shed and return its reply.
    pub fn shedding(&self, id: &str, reason: &str) -> Response {
        self.bump(SHED);
        Response::new(id, Status::Shed).with_reason(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn map_round_trips(c in collection::vec(0..=u64::MAX, 7)) {
            let s = StatsSnapshot::from_counts(c.try_into().unwrap());
            prop_assert_eq!(StatsSnapshot::from_map(&s.as_map()), Some(s));
        }
    }

    #[test]
    fn from_map_refuses_missing_or_non_numeric_counters() {
        let full = StatsSnapshot::from_counts([1, 2, 3, 4, 5, 6, 7]).as_map();
        for key in KEYS {
            let mut m = full.clone();
            m.remove(key);
            assert_eq!(StatsSnapshot::from_map(&m), None, "missing {key}");
            m.insert(key.to_string(), "x".into());
            assert_eq!(StatsSnapshot::from_map(&m), None, "non-numeric {key}");
        }
        let mut extra = full.clone();
        extra.insert("queue_depth_hwm".into(), "9".into());
        assert!(StatsSnapshot::from_map(&extra).is_some());
    }

    #[test]
    fn settle_maps_each_status_to_its_counter() {
        let settled = |status| {
            let mut s = StatsSnapshot::default();
            s.settle(status);
            let ledger = Ledger::new([""; 7]);
            ledger.settle(status);
            assert_eq!(ledger.snapshot(), s, "{status:?}");
            s
        };
        let one = |slot| {
            let mut c = [0; 7];
            c[slot] = 1;
            StatsSnapshot::from_counts(c)
        };
        assert_eq!(settled(Status::Completed), one(COMPLETED));
        assert_eq!(settled(Status::Cancelled), one(CANCELLED));
        assert_eq!(settled(Status::DeadlineExceeded), one(DEADLINE_EXCEEDED));
        // Everything else — errors, and statuses no job should settle
        // with — lands in `errored`, as journal replay always counted.
        for status in [Status::Error, Status::Shed, Status::Ok] {
            assert_eq!(settled(status), one(ERRORED), "{status:?}");
        }
    }

    #[test]
    fn display_is_the_drained_line_format() {
        assert_eq!(
            StatsSnapshot::from_counts([1, 2, 3, 4, 5, 6, 7]).to_string(),
            "accepted=1 completed=2 errored=3 cancelled=4 deadline_exceeded=5 shed=6 rejected=7"
        );
    }

    #[test]
    fn try_accept_rolls_back_a_refused_admission() {
        let ledger = Ledger::new([""; 7]);
        assert_eq!(ledger.try_accept(|| Ok::<_, ()>(1)), Ok(1));
        assert_eq!(ledger.try_accept(|| Err::<(), _>("full")), Err("full"));
        assert_eq!(ledger.accepted(), 1);
        ledger.settle(Status::Completed);
        assert!(ledger.snapshot().balanced());
    }
}
