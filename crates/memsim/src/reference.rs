//! Deliberately naive reference models — the differential-testing oracle.
//!
//! The production simulator ([`crate::cache`], [`crate::trace`]) is
//! O(1)-per-access machinery: slab + intrusive lists + a dense address
//! map + bucket-pointer Belady. Every one of those optimizations is a
//! chance to silently change a counter, and the counters *are* the
//! experiment. So this module keeps the dumbest possible implementations —
//! vectors, linear scans, a `BTreeSet` — whose correctness is auditable by
//! eye, and the differential proptests (`tests/differential.rs`) pin the
//! fast core to them byte for byte on random traces. The scripts may use
//! any `u64` address: the reference models take them as they are, while
//! [`replay_production`] renames them with `crate::trace::densify`
//! first, as every foreign trace entering the dense simulator is.
//!
//! **Do not optimize this module.** Its entire value is being too simple
//! to be wrong. It is `pub` so benches and external tests can call it,
//! but it is not part of the simulator API proper.

use crate::cache::{CacheStats, EvictionStats, Policy};
use crate::trace::Access;
use std::collections::{BTreeSet, HashMap};

/// One step of a cache script: an access or an explicit flush. Flushes in
/// mid-trace exercise the reuse-after-flush paths of both policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read or write one word.
    Access(Access),
    /// Write back everything and empty the cache.
    Flush,
}

/// O(capacity)-per-access model of the online cache: a plain `Vec` of
/// `(addr, dirty, last_touch, inserted_at)` lines, linear search on every
/// access, linear minimum scan on every eviction.
struct RefCache {
    capacity: usize,
    policy: Policy,
    lines: Vec<(u64, bool, u64, u64)>,
    clock: u64,
    stats: CacheStats,
    evictions: EvictionStats,
}

impl RefCache {
    fn new(capacity: usize, policy: Policy) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        RefCache {
            capacity,
            policy,
            lines: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
            evictions: EvictionStats::default(),
        }
    }

    fn access(&mut self, a: Access) {
        self.stats.accesses += 1;
        self.clock += 1;
        if let Some(line) = self.lines.iter_mut().find(|l| l.0 == a.addr) {
            line.1 |= a.write;
            line.2 = self.clock;
            self.stats.hits += 1;
            return;
        }
        if !a.write {
            self.stats.loads += 1;
        }
        if self.lines.len() >= self.capacity {
            let idx = match self.policy {
                Policy::Lru => {
                    // Victim: minimal last-touch time.
                    let mut best = 0;
                    for (i, l) in self.lines.iter().enumerate() {
                        if l.2 < self.lines[best].2 {
                            best = i;
                        }
                    }
                    best
                }
                Policy::Fifo => {
                    // Victim: minimal insertion time.
                    let mut best = 0;
                    for (i, l) in self.lines.iter().enumerate() {
                        if l.3 < self.lines[best].3 {
                            best = i;
                        }
                    }
                    best
                }
            };
            let victim = self.lines.remove(idx);
            self.evictions.evictions += 1;
            if victim.1 {
                self.stats.stores += 1;
                self.evictions.dirty_writebacks += 1;
            } else {
                self.evictions.clean_evictions += 1;
            }
        }
        self.lines.push((a.addr, a.write, self.clock, self.clock));
    }

    fn flush(&mut self) {
        for line in self.lines.drain(..) {
            if line.1 {
                self.stats.stores += 1;
                self.evictions.flush_writebacks += 1;
            }
        }
    }
}

/// Run a script through the naive model; final state is flushed, exactly
/// like [`crate::trace::replay`] plus mid-trace flushes.
pub fn replay_reference(
    ops: &[Op],
    capacity: usize,
    policy: Policy,
) -> (CacheStats, EvictionStats) {
    let mut c = RefCache::new(capacity, policy);
    for op in ops {
        match op {
            Op::Access(a) => c.access(*a),
            Op::Flush => c.flush(),
        }
    }
    c.flush();
    (c.stats, c.evictions)
}

/// Run the same script, its addresses `crate::trace::densify`d, through
/// the production [`crate::cache::Cache`].
pub fn replay_production(
    ops: &[Op],
    capacity: usize,
    policy: Policy,
) -> (CacheStats, EvictionStats) {
    let mut ops = ops.to_vec();
    crate::trace::densify(ops.iter_mut().filter_map(|op| match op {
        Op::Access(a) => Some(&mut a.addr),
        Op::Flush => None,
    }));
    let mut c = crate::cache::Cache::new(capacity, policy);
    for op in &ops {
        match op {
            Op::Access(a) if a.write => c.write(a.addr),
            Op::Access(a) => c.read(a.addr),
            Op::Flush => c.flush(),
        }
    }
    c.flush();
    (c.stats(), c.eviction_stats())
}

/// The original `BTreeSet`-based Belady/MIN simulator, kept verbatim as
/// the oracle for [`crate::trace::opt_stats`].
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn opt_stats_reference(trace: &[Access], capacity: usize) -> CacheStats {
    assert!(capacity > 0, "cache capacity must be positive");
    // next_use[i] = index of the next access to the same address after i.
    const NEVER: usize = usize::MAX;
    let mut next_use = vec![NEVER; trace.len()];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for (i, a) in trace.iter().enumerate().rev() {
        next_use[i] = last_pos.get(&a.addr).copied().unwrap_or(NEVER);
        last_pos.insert(a.addr, i);
    }

    let mut stats = CacheStats::default();
    // Resident set ordered by next use (farthest last); plus per-address
    // state.
    let mut resident: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut state: HashMap<u64, (usize, bool)> = HashMap::new(); // next_use, dirty

    for (i, a) in trace.iter().enumerate() {
        stats.accesses += 1;
        let nu = next_use[i];
        if let Some(&(old_nu, dirty)) = state.get(&a.addr) {
            stats.hits += 1;
            resident.remove(&(old_nu, a.addr));
            resident.insert((nu, a.addr));
            state.insert(a.addr, (nu, dirty || a.write));
        } else {
            if !a.write {
                stats.loads += 1;
            }
            if resident.len() >= capacity {
                let &(victim_nu, victim) = resident.iter().next_back().expect("nonempty");
                resident.remove(&(victim_nu, victim));
                let (_, dirty) = state.remove(&victim).expect("victim resident");
                if dirty {
                    stats.stores += 1;
                }
            }
            resident.insert((nu, a.addr));
            state.insert(a.addr, (nu, a.write));
        }
    }
    // Final flush.
    for (_, (_, dirty)) in state {
        if dirty {
            stats.stores += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, write: bool) -> Op {
        Op::Access(Access { addr, write })
    }

    #[test]
    fn reference_models_agree_on_a_hand_trace() {
        let ops = [
            acc(1, true),
            acc(2, false),
            acc(1, false),
            Op::Flush,
            acc(3, false),
            acc(1, true),
            acc(4, false),
        ];
        for policy in [Policy::Lru, Policy::Fifo] {
            let (rs, re) = replay_reference(&ops, 2, policy);
            let (ps, pe) = replay_production(&ops, 2, policy);
            assert_eq!(rs, ps, "{policy:?}");
            assert_eq!(re, pe, "{policy:?}");
        }
    }

    #[test]
    fn reference_opt_matches_fast_opt_on_a_hand_trace() {
        let trace: Vec<Access> = (0..40)
            .map(|i| Access {
                addr: (i * 7) % 9,
                write: i % 3 == 0,
            })
            .collect();
        for cap in 1..=10 {
            assert_eq!(
                opt_stats_reference(&trace, cap),
                crate::trace::opt_stats(&trace, cap),
                "cap={cap}"
            );
        }
    }
}
