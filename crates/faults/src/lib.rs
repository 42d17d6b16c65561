//! `fmm-faults` — deterministic, seeded fault injection for the
//! distributed simulators and the sweep engine.
//!
//! The paper asks what *recomputation* buys; this crate supplies the
//! question's adversary. A [`FaultPlan`] is a pure function from
//! `(seed, site)` to fault decisions — processor crashes at chosen
//! rounds, message drops and duplications on chosen channels — so a
//! fault-injected run is exactly as reproducible as a fault-free one:
//! the same seed yields the same crashes, the same retries, and the same
//! recovery traffic, bit for bit.
//!
//! Three pieces:
//!
//! * [`FaultSpec`] / [`FaultPlan`] — the declarative description (CLI
//!   string form: `"seed=7,crash=0.02,drop=0.01,dup=0.005"`) and the
//!   counter-based splitmix64 oracle derived from it. Decisions are
//!   *site-keyed*, not sequence-keyed: whether processor 3 crashes in
//!   round 2 does not depend on how many random numbers anyone else
//!   consumed, so a decision does not change with the order in which an
//!   engine visits its sites or with how many other sites it visits.
//! * [`Recovery`] — what a survivor does about a lost block:
//!   [`Recovery::Recompute`] re-derives it from the recursion (charging
//!   every re-moved word), [`Recovery::Checkpoint`] restores a periodic
//!   snapshot (charging the steady-state snapshot traffic *and* the
//!   restore).
//! * [`FaultStats`] and [`backoff_micros`] — the counters every faulty
//!   run reports, and the deterministic exponential backoff schedule the
//!   router, the sweep engine and `loadgen` share.
//! * [`cancel`] — cooperative cancellation ([`CancelToken`]: shared flag
//!   plus optional deadline) polled by the simulators' hot loops, so the
//!   job server and the sweep engine can stop work at loop granularity
//!   instead of abandoning detached threads.
//! * [`link`] — the gray-failure adversary: [`LinkChaosSpec`] describes
//!   seeded per-shard reply delays, stalls, and garbling for the
//!   router's chaos link layer, keyed by `(seed, shard, seq)`.

pub mod cancel;
pub mod link;

pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use link::LinkChaosSpec;

/// splitmix64 — the standard 64-bit finalizing mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a 64-bit hash to a uniform `f64` in `[0, 1)`.
#[inline]
fn to_unit(h: u64) -> f64 {
    // 53 mantissa bits of uniformity.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------------
// Declarative spec
// ---------------------------------------------------------------------------

/// A declarative fault-injection description, parseable from the CLI.
///
/// String grammar (comma-separated `key=value`, any order, all optional):
///
/// ```text
/// seed=7,crash=0.02,drop=0.01,dup=0.005,retries=8,crash@3:1,flush-every=4096
/// ```
///
/// `crash@P:R` forces processor `P` to crash in round `R` regardless of
/// probabilities (repeatable); `flush-every=N` is the sequential-model
/// fault (fast memory wiped every `N` accesses) used by `fastmm io
/// --faults`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault oracle (independent of the workload seed).
    pub seed: u64,
    /// Per-(processor, round) crash probability.
    pub crash: f64,
    /// Per-message-attempt drop probability.
    pub drop: f64,
    /// Per-message duplication probability.
    pub dup: f64,
    /// Bounded retries for a dropped message before the link is declared
    /// dead (the original attempt is not counted as a retry).
    pub retries: u32,
    /// Forced crashes at exact `(processor, round)` sites.
    pub crash_at: Vec<(usize, usize)>,
    /// Sequential-model fault: wipe fast memory every `N` accesses
    /// (`None` = off). Only `fastmm io --faults` consumes this.
    pub flush_every: Option<u64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            crash: 0.0,
            drop: 0.0,
            dup: 0.0,
            retries: 8,
            crash_at: Vec::new(),
            flush_every: None,
        }
    }
}

impl FaultSpec {
    /// Parse the comma-separated `key=value` grammar. Unknown keys and
    /// malformed values are errors — a fault plan silently misread would
    /// invalidate every measurement derived from it.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(site) = part.strip_prefix("crash@") {
                let (p, r) = site
                    .split_once(':')
                    .ok_or_else(|| format!("'{part}': want crash@<proc>:<round>"))?;
                let p = p.parse().map_err(|e| format!("'{part}': bad proc: {e}"))?;
                let r = r.parse().map_err(|e| format!("'{part}': bad round: {e}"))?;
                spec.crash_at.push((p, r));
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("'{part}': want key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|e| format!("'{part}': {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("'{part}': probability outside [0,1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => spec.seed = value.parse().map_err(|e| format!("'{part}': {e}"))?,
                "crash" => spec.crash = prob(value)?,
                "drop" => spec.drop = prob(value)?,
                "dup" => spec.dup = prob(value)?,
                "retries" => spec.retries = value.parse().map_err(|e| format!("'{part}': {e}"))?,
                "flush-every" => {
                    let n: u64 = value.parse().map_err(|e| format!("'{part}': {e}"))?;
                    if n == 0 {
                        return Err(format!("'{part}': flush-every must be positive"));
                    }
                    spec.flush_every = Some(n);
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(spec)
    }

    /// Canonical one-line form (parses back to an equal spec).
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "seed={},crash={},drop={},dup={},retries={}",
            self.seed, self.crash, self.drop, self.dup, self.retries
        );
        for (p, r) in &self.crash_at {
            out.push_str(&format!(",crash@{p}:{r}"));
        }
        if let Some(n) = self.flush_every {
            out.push_str(&format!(",flush-every={n}"));
        }
        out
    }

    /// Build the deterministic oracle.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan { spec: self.clone() }
    }
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// Domain tags keep the three decision streams independent: a crash roll
/// at `(3, 1)` shares no bits with a drop roll at the same site.
const TAG_CRASH: u64 = 0xC0;
const TAG_DROP: u64 = 0xD0;
const TAG_DUP: u64 = 0xD7;

/// The deterministic fault oracle: pure functions of `(seed, site)`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Retry budget for a dropped message.
    pub fn max_retries(&self) -> u32 {
        self.spec.retries
    }

    #[inline]
    fn roll(&self, tag: u64, a: u64, b: u64, c: u64) -> f64 {
        let site = splitmix64(a ^ splitmix64(b ^ splitmix64(c ^ (tag << 56))));
        to_unit(splitmix64(self.spec.seed ^ site))
    }

    /// Does processor `proc` crash at `round`?
    pub fn crashes(&self, proc: usize, round: usize) -> bool {
        if self.spec.crash_at.contains(&(proc, round)) {
            return true;
        }
        self.spec.crash > 0.0
            && self.roll(TAG_CRASH, proc as u64, round as u64, 0) < self.spec.crash
    }

    /// Is delivery attempt `attempt` of the message on `channel` in
    /// `round` dropped? Attempt 0 is the original send; a fresh roll per
    /// attempt makes bounded retries converge almost surely.
    pub fn drops(&self, channel: u64, round: usize, attempt: u32) -> bool {
        self.spec.drop > 0.0
            && self.roll(TAG_DROP, channel, round as u64, attempt as u64) < self.spec.drop
    }

    /// Is the message on `channel` in `round` duplicated in flight?
    pub fn duplicates(&self, channel: u64, round: usize) -> bool {
        self.spec.dup > 0.0 && self.roll(TAG_DUP, channel, round as u64, 0) < self.spec.dup
    }

    /// True when the plan can never fire (lets simulators skip the
    /// fault bookkeeping entirely).
    pub fn is_inert(&self) -> bool {
        self.spec.crash == 0.0
            && self.spec.drop == 0.0
            && self.spec.dup == 0.0
            && self.spec.crash_at.is_empty()
    }
}

/// A stable channel identity for drop/duplication rolls: direction tag
/// (e.g. 0 = A-blocks, 1 = B-blocks) plus source and destination.
#[inline]
pub fn channel_id(direction: u64, from: usize, to: usize) -> u64 {
    (direction << 48) | ((from as u64) << 24) | to as u64
}

// ---------------------------------------------------------------------------
// Recovery strategies
// ---------------------------------------------------------------------------

/// What a processor does about state lost to a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// Nothing: the lost partials stay lost (the product is wrong; useful
    /// only to demonstrate that recovery is doing real work).
    None,
    /// Re-derive lost blocks from the recursion: re-fetch every input the
    /// lost partials were computed from and recompute. Free of overhead
    /// until a fault happens; recovery cost grows with progress lost.
    Recompute,
    /// Periodic snapshots: every `period` rounds each processor writes
    /// its live state to stable storage (charged as recovery words); a
    /// crash restores the latest snapshot and replays only the rounds
    /// since. Steady-state overhead buys bounded per-crash cost.
    Checkpoint {
        /// Snapshot period in rounds (≥ 1).
        period: usize,
    },
}

impl Recovery {
    /// Parse `none | recompute | checkpoint[:period]` (default period 1).
    pub fn parse(s: &str) -> Result<Recovery, String> {
        match s {
            "none" => Ok(Recovery::None),
            "recompute" => Ok(Recovery::Recompute),
            "checkpoint" => Ok(Recovery::Checkpoint { period: 1 }),
            other => {
                if let Some(p) = other.strip_prefix("checkpoint:") {
                    let period: usize = p.parse().map_err(|e| format!("'{other}': {e}"))?;
                    if period == 0 {
                        return Err("checkpoint period must be ≥ 1".into());
                    }
                    return Ok(Recovery::Checkpoint { period });
                }
                Err(format!(
                    "unknown recovery '{other}' (none|recompute|checkpoint[:period])"
                ))
            }
        }
    }

    /// Canonical string form.
    pub fn as_string(&self) -> String {
        match self {
            Recovery::None => "none".into(),
            Recovery::Recompute => "recompute".into(),
            Recovery::Checkpoint { period } => format!("checkpoint:{period}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// What a fault-injected run endured and did about it. All counters are
/// deterministic functions of `(plan, schedule, inputs)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Processor crashes injected.
    pub crashes: u64,
    /// Message delivery attempts dropped.
    pub drops: u64,
    /// Messages duplicated in flight.
    pub dups: u64,
    /// Retransmissions performed (successful or not).
    pub retries: u64,
    /// Checkpoint snapshots written.
    pub checkpoints: u64,
    /// Snapshot restores performed.
    pub restores: u64,
    /// Crashes left unrecovered (only under [`Recovery::None`]).
    pub unrecovered: u64,
}

impl FaultStats {
    /// Publish the counters to the global telemetry registry under a
    /// `schedule` label. No-op when telemetry is off.
    pub fn publish(&self, schedule: &str) {
        if !fmm_obs::enabled() {
            return;
        }
        let labels = [("schedule", schedule.to_string())];
        fmm_obs::add("faults.crashes", &labels, self.crashes);
        fmm_obs::add("faults.drops", &labels, self.drops);
        fmm_obs::add("faults.dups", &labels, self.dups);
        fmm_obs::add("faults.retries", &labels, self.retries);
        fmm_obs::add("faults.checkpoints", &labels, self.checkpoints);
        fmm_obs::add("faults.restores", &labels, self.restores);
        fmm_obs::add("faults.unrecovered", &labels, self.unrecovered);
    }
}

/// A retry gave up: every delivery attempt of one message was dropped.
/// Carries the site so the error message can say *which* link died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkDead {
    /// The channel id ([`channel_id`]) of the dead link.
    pub channel: u64,
    /// The round the message belonged to.
    pub round: usize,
    /// Attempts made (original + retries).
    pub attempts: u32,
}

impl std::fmt::Display for LinkDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {:#x} dead in round {}: all {} delivery attempts dropped",
            self.channel, self.round, self.attempts
        )
    }
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Deterministic exponential backoff before retry `attempt` (1-based):
/// `BASE · 2^(attempt−1)` microseconds, capped. The schedule is data —
/// simulators may charge it, sleepers may sleep it — and identical for
/// every caller, so the router's re-dispatch and respawn delays, the
/// sweep's cell retries and `loadgen`'s reconnect pauses follow one
/// reproducible curve.
pub fn backoff_micros(attempt: u32) -> u64 {
    const BASE: u64 = 50;
    const CAP: u64 = 5_000;
    BASE.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16))
        .min(CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_round_trips() {
        let spec = FaultSpec::parse("seed=7,crash=0.02,drop=0.01,dup=0.005,retries=3").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.crash, 0.02);
        assert_eq!(spec.retries, 3);
        let again = FaultSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(spec, again);

        let forced = FaultSpec::parse("crash@3:1,crash@0:0,seed=9").unwrap();
        assert_eq!(forced.crash_at, vec![(3, 1), (0, 0)]);
        assert_eq!(FaultSpec::parse(&forced.canonical()).unwrap(), forced);

        let seqf = FaultSpec::parse("flush-every=4096").unwrap();
        assert_eq!(seqf.flush_every, Some(4096));
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultSpec::parse("crash=1.5").is_err());
        assert!(FaultSpec::parse("drop=-0.1").is_err());
        assert!(FaultSpec::parse("frobnicate=1").is_err());
        assert!(FaultSpec::parse("crash@3").is_err());
        assert!(FaultSpec::parse("crash").is_err());
        assert!(FaultSpec::parse("flush-every=0").is_err());
    }

    #[test]
    fn empty_spec_is_inert() {
        let plan = FaultSpec::parse("").unwrap().plan();
        assert!(plan.is_inert());
        for proc in 0..16 {
            for round in 0..16 {
                assert!(!plan.crashes(proc, round));
                assert!(!plan.drops(channel_id(0, proc, round), round, 0));
                assert!(!plan.duplicates(channel_id(1, proc, round), round));
            }
        }
        // No-op unless telemetry is on; must not panic either way.
        FaultStats::default().publish("test");
    }

    #[test]
    fn oracle_is_deterministic_and_site_keyed() {
        let a = FaultSpec::parse("seed=42,crash=0.3,drop=0.3,dup=0.3")
            .unwrap()
            .plan();
        let b = FaultSpec::parse("seed=42,crash=0.3,drop=0.3,dup=0.3")
            .unwrap()
            .plan();
        for proc in 0..8 {
            for round in 0..8 {
                assert_eq!(a.crashes(proc, round), b.crashes(proc, round));
                let ch = channel_id(0, proc, (proc + 1) % 8);
                assert_eq!(a.drops(ch, round, 0), b.drops(ch, round, 0));
                assert_eq!(a.duplicates(ch, round), b.duplicates(ch, round));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultSpec::parse("seed=1,crash=0.5").unwrap().plan();
        let b = FaultSpec::parse("seed=2,crash=0.5").unwrap().plan();
        let hits = |p: &FaultPlan| {
            (0..64)
                .flat_map(|q| (0..64).map(move |r| (q, r)))
                .filter(|&(q, r)| p.crashes(q, r))
                .count()
        };
        assert_ne!(
            (0..64)
                .flat_map(|q| (0..64).map(move |r| (q, r)))
                .map(|(q, r)| (a.crashes(q, r), b.crashes(q, r)))
                .collect::<Vec<_>>(),
            vec![(false, false); 64 * 64],
        );
        // Both near the expected rate, neither identical to the other.
        let (ha, hb) = (hits(&a), hits(&b));
        assert!((1000..3000).contains(&ha), "crash rate off: {ha}");
        assert!((1000..3000).contains(&hb), "crash rate off: {hb}");
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let plan = FaultSpec::parse("seed=5,drop=0.1").unwrap().plan();
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&i| plan.drops(channel_id(0, i, i + 1), 0, 0))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn forced_crashes_ignore_probability() {
        let plan = FaultSpec::parse("crash@2:3").unwrap().plan();
        assert!(plan.crashes(2, 3));
        assert!(!plan.crashes(3, 2));
        assert!(!plan.is_inert());
    }

    #[test]
    fn recovery_parses() {
        assert_eq!(Recovery::parse("none").unwrap(), Recovery::None);
        assert_eq!(Recovery::parse("recompute").unwrap(), Recovery::Recompute);
        assert_eq!(
            Recovery::parse("checkpoint").unwrap(),
            Recovery::Checkpoint { period: 1 }
        );
        assert_eq!(
            Recovery::parse("checkpoint:4").unwrap(),
            Recovery::Checkpoint { period: 4 }
        );
        assert!(Recovery::parse("checkpoint:0").is_err());
        assert!(Recovery::parse("magic").is_err());
        for r in [
            Recovery::None,
            Recovery::Recompute,
            Recovery::Checkpoint { period: 3 },
        ] {
            assert_eq!(Recovery::parse(&r.as_string()).unwrap(), r);
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        assert_eq!(backoff_micros(1), 50);
        assert_eq!(backoff_micros(2), 100);
        assert_eq!(backoff_micros(3), 200);
        assert!(backoff_micros(1) < backoff_micros(4));
        assert_eq!(backoff_micros(30), 5_000);
        assert_eq!(backoff_micros(u32::MAX), 5_000);
    }
}
