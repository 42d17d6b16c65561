//! Trace-driven fast-memory simulator.
//!
//! Word-granular (one matrix element = one word), fully associative, with
//! LRU or FIFO replacement and dirty-writeback accounting. A read miss
//! costs one load; evicting a dirty word costs one store; [`Cache::flush`]
//! writes back all remaining dirty words (the end-of-algorithm state where
//! outputs must reside in slow memory).
//!
//! ## Implementation
//!
//! This is the hot path of every measured experiment, so the simulator is
//! O(1) per access with no per-access allocation:
//!
//! * resident lines live in a dense **slab** (`Slot`) threaded with an
//!   intrusive doubly-linked recency/insertion list (head = most recent,
//!   tail = eviction victim). LRU moves a hit line to the head; FIFO
//!   leaves the list in insertion order. Both policies share the slab —
//!   there is no separate FIFO queue to fall out of sync with the
//!   resident set (an earlier revision kept one and leaked stale entries
//!   across [`Cache::flush`]).
//! * addresses are dense: [`crate::seq::Mem`] hands them out from 0
//!   upward, so address → slot lookup is a plain `Vec<u32>` indexed by
//!   address (4 bytes per address up to the largest one inserted; it
//!   grows on a miss). [`Cache::flush`] resets only the entries of the
//!   lines it walks, so a wipe costs O(resident), not O(addresses).
//!   A sparse foreign trace goes through `crate::trace::densify` first.
//!
//! Exactness is enforced by the differential harness in
//! [`crate::reference`]: random traces must produce byte-identical
//! [`CacheStats`] and [`EvictionStats`] from this core and from a naive
//! O(capacity)-per-access model.

/// Replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out.
    Fifo,
}

/// I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads from slow memory (read misses and write-allocate misses).
    pub loads: u64,
    /// Stores to slow memory (dirty evictions + flush writebacks).
    pub stores: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Total accesses.
    pub accesses: u64,
}

impl CacheStats {
    /// Total I/O (loads + stores) — the quantity the lower bounds speak of.
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Eviction-side counters, kept separate from [`CacheStats`] so the
/// lower-bound accounting (loads/stores/hits) stays a closed, comparable
/// struct while the telemetry layer can still report *why* stores happen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionStats {
    /// Lines evicted to make room (clean + dirty).
    pub evictions: u64,
    /// Evictions that needed no writeback.
    pub clean_evictions: u64,
    /// Evictions of dirty lines (each also counted as a store).
    pub dirty_writebacks: u64,
    /// Dirty lines written back by [`Cache::flush`].
    pub flush_writebacks: u64,
}

/// Sentinel for "no slot" in list links and address-map entries.
const NIL: u32 = u32::MAX;

/// One resident line in the slab.
struct Slot {
    addr: u64,
    /// Neighbour toward the head (more recent).
    prev: u32,
    /// Neighbour toward the tail (older).
    next: u32,
    dirty: bool,
}

/// A fully associative cache of `capacity` words.
pub struct Cache {
    capacity: usize,
    policy: Policy,
    slots: Vec<Slot>,
    /// Slot ids returned to the slab by [`Cache::flush`].
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    /// Address → slot (`NIL` when not resident).
    map: Vec<u32>,
    stats: CacheStats,
    evictions: EvictionStats,
}

impl Cache {
    /// New empty cache.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, policy: Policy) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Cache {
            capacity,
            policy,
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            map: Vec::new(),
            stats: CacheStats::default(),
            evictions: EvictionStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Eviction/writeback breakdown (telemetry side-channel; not part of
    /// the I/O accounting in [`CacheStats`]).
    pub fn eviction_stats(&self) -> EvictionStats {
        self.evictions
    }

    /// Unlink slot `s` from the recency list.
    #[inline]
    fn unlink(&mut self, s: u32) {
        let (prev, next) = {
            let slot = &self.slots[s as usize];
            (slot.prev, slot.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Link slot `s` at the head (most-recent end) of the list.
    #[inline]
    fn link_front(&mut self, s: u32) {
        let old = self.head;
        {
            let slot = &mut self.slots[s as usize];
            slot.prev = NIL;
            slot.next = old;
        }
        if old != NIL {
            self.slots[old as usize].prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    /// Move a hit line to the most-recent end (LRU only; FIFO ignores
    /// touches by construction of the insertion-ordered list).
    #[inline]
    fn touch(&mut self, s: u32) {
        if self.policy == Policy::Lru && self.head != s {
            self.unlink(s);
            self.link_front(s);
        }
    }

    /// Evict the tail (LRU victim / FIFO first-in) — O(1).
    fn evict_one(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "eviction from empty cache");
        self.unlink(victim);
        let (addr, dirty) = {
            let slot = &self.slots[victim as usize];
            (slot.addr, slot.dirty)
        };
        self.map[addr as usize] = NIL;
        self.free.push(victim);
        self.len -= 1;
        self.evictions.evictions += 1;
        if dirty {
            self.stats.stores += 1;
            self.evictions.dirty_writebacks += 1;
        } else {
            self.evictions.clean_evictions += 1;
        }
    }

    fn insert(&mut self, addr: u64, dirty: bool) {
        while self.len >= self.capacity {
            self.evict_one();
        }
        let s = match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                slot.addr = addr;
                slot.dirty = dirty;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    addr,
                    prev: NIL,
                    next: NIL,
                    dirty,
                });
                s
            }
        };
        self.link_front(s);
        let a = addr as usize;
        if a >= self.map.len() {
            self.map.resize(a + 1, NIL);
        }
        self.map[a] = s;
        self.len += 1;
    }

    /// The slot holding `addr`, if it is resident.
    #[inline]
    fn slot_of(&self, addr: u64) -> Option<u32> {
        self.map.get(addr as usize).copied().filter(|&s| s != NIL)
    }

    /// Read word `addr` (miss → load).
    #[inline]
    pub fn read(&mut self, addr: u64) {
        self.stats.accesses += 1;
        if let Some(s) = self.slot_of(addr) {
            self.stats.hits += 1;
            self.touch(s);
        } else {
            self.stats.loads += 1;
            self.insert(addr, false);
        }
    }

    /// Write word `addr` (write-allocate without fetch: freshly produced
    /// values need no load from slow memory).
    #[inline]
    pub fn write(&mut self, addr: u64) {
        self.stats.accesses += 1;
        if let Some(s) = self.slot_of(addr) {
            self.stats.hits += 1;
            self.slots[s as usize].dirty = true;
            self.touch(s);
        } else {
            self.insert(addr, true);
        }
    }

    /// Write back all dirty lines and empty the cache. The cache remains
    /// usable afterwards (both policies restart from a clean slate).
    pub fn flush(&mut self) {
        let mut s = self.head;
        while s != NIL {
            let slot = &self.slots[s as usize];
            if slot.dirty {
                self.stats.stores += 1;
                self.evictions.flush_writebacks += 1;
            }
            self.map[slot.addr as usize] = NIL;
            let next = slot.next;
            self.free.push(s);
            s = next;
        }
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_counted() {
        let mut c = Cache::new(2, Policy::Lru);
        c.read(1);
        c.read(1);
        c.read(2);
        assert_eq!(c.stats().loads, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(2, Policy::Lru);
        c.read(1);
        c.read(2);
        c.read(1); // 2 is now LRU
        c.read(3); // evicts 2
        c.read(1); // hit
        assert_eq!(c.stats().hits, 2);
        c.read(2); // miss again
        assert_eq!(c.stats().loads, 4);
    }

    #[test]
    fn fifo_evicts_first_in() {
        let mut c = Cache::new(2, Policy::Fifo);
        c.read(1);
        c.read(2);
        c.read(1); // touch does not rescue FIFO order
        c.read(3); // evicts 1
        c.read(2); // hit
        assert_eq!(c.stats().hits, 2);
        c.read(1); // miss
        assert_eq!(c.stats().loads, 4);
    }

    #[test]
    fn dirty_eviction_stores() {
        let mut c = Cache::new(1, Policy::Lru);
        c.write(1);
        c.read(2); // evicts dirty 1 → store
        assert_eq!(c.stats().stores, 1);
        assert_eq!(c.stats().loads, 1); // only the read of 2
    }

    #[test]
    fn clean_eviction_free() {
        let mut c = Cache::new(1, Policy::Lru);
        c.read(1);
        c.read(2);
        assert_eq!(c.stats().stores, 0);
    }

    #[test]
    fn write_allocate_no_fetch() {
        let mut c = Cache::new(4, Policy::Lru);
        c.write(7);
        assert_eq!(c.stats().loads, 0);
        c.flush();
        assert_eq!(c.stats().stores, 1);
    }

    #[test]
    fn flush_writes_all_dirty() {
        let mut c = Cache::new(4, Policy::Lru);
        c.write(1);
        c.write(2);
        c.read(3);
        c.flush();
        assert_eq!(c.stats().stores, 2);
        assert_eq!(c.len, 0);
    }

    #[test]
    fn capacity_respected() {
        let mut c = Cache::new(3, Policy::Lru);
        for a in 0..10 {
            c.read(a);
            assert!(c.len <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Cache::new(0, Policy::Lru);
    }

    #[test]
    fn eviction_stats_break_down_stores() {
        let mut c = Cache::new(1, Policy::Lru);
        c.write(1);
        c.read(2); // dirty eviction of 1
        c.read(3); // clean eviction of 2
        c.write(4); // clean eviction of 3
        c.flush(); // writeback of 4
        let e = c.eviction_stats();
        assert_eq!(e.evictions, 3);
        assert_eq!(e.dirty_writebacks, 1);
        assert_eq!(e.clean_evictions, 2);
        assert_eq!(e.flush_writebacks, 1);
        assert_eq!(c.stats().stores, e.dirty_writebacks + e.flush_writebacks);
    }

    #[test]
    fn streaming_scan_all_misses() {
        let mut c = Cache::new(8, Policy::Lru);
        for a in 0..100 {
            c.read(a);
        }
        assert_eq!(c.stats().loads, 100);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn reuse_after_flush_lru() {
        // Regression: an earlier revision kept a side FIFO queue that
        // `flush` failed to keep in sync with the resident set, so a
        // reused cache could evict phantom lines. Both policies must come
        // back from a flush completely empty and behave like day one.
        let mut c = Cache::new(2, Policy::Lru);
        c.write(1);
        c.read(2);
        c.flush();
        assert_eq!(c.len, 0);
        c.read(1); // miss: flush emptied the cache
        c.read(2); // miss
        c.read(1); // hit
        c.read(3); // evicts LRU 2
        c.read(1); // still a hit
        assert_eq!(c.stats().hits, 2);
        // write(1) was a write-allocate (no load): 2, then 1, 2, 3 again.
        assert_eq!(c.stats().loads, 4);
    }

    #[test]
    fn reuse_after_flush_fifo() {
        let mut c = Cache::new(2, Policy::Fifo);
        c.read(1);
        c.read(2);
        c.flush();
        // Pre-flush insertion order must not leak into post-flush
        // eviction decisions.
        c.read(3);
        c.read(4);
        c.read(3); // hit
        c.read(5); // evicts first-in 3 (not any phantom of 1/2)
        c.read(4); // hit: 4 still resident
        c.read(3); // miss: 3 was evicted
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().loads, 6);
        assert_eq!(c.eviction_stats().evictions, 2);
    }

    #[test]
    fn interleaved_flush_matches_fresh_cache() {
        // After a flush, subsequent stats deltas equal a fresh cache's.
        let run = |ops: &[(u64, bool)], policy: Policy| {
            let mut c = Cache::new(3, policy);
            for &(a, w) in ops {
                if w {
                    c.write(a);
                } else {
                    c.read(a);
                }
            }
            c.flush();
            c.stats()
        };
        let ops = [(1, true), (2, false), (3, false), (4, true), (2, false)];
        for policy in [Policy::Lru, Policy::Fifo] {
            let fresh = run(&ops, policy);
            let mut c = Cache::new(3, policy);
            c.write(9);
            c.read(8);
            c.flush();
            let before = c.stats();
            for &(a, w) in &ops {
                if w {
                    c.write(a);
                } else {
                    c.read(a);
                }
            }
            c.flush();
            let after = c.stats();
            assert_eq!(after.loads - before.loads, fresh.loads, "{policy:?}");
            assert_eq!(after.stores - before.stores, fresh.stores, "{policy:?}");
            assert_eq!(after.hits - before.hits, fresh.hits, "{policy:?}");
        }
    }
}
