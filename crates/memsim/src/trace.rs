//! Offline-optimal (Belady/MIN) replacement, streaming trace plumbing.
//!
//! The online simulator in [`crate::cache`] implements LRU/FIFO; the
//! *optimal offline* policy needs the future, so it is computed here.
//! Comparing LRU against OPT on the same schedule separates "the schedule
//! moves this much data" from "the replacement policy wastes this much" —
//! an ablation the lower bounds themselves are agnostic to (they hold
//! under any policy).
//!
//! ## Streaming two-pass design
//!
//! OPT is split into two streaming passes that never hold `Access`
//! records, both indexing plain vectors by address (addresses are dense,
//! see [`crate::cache`]):
//!
//! 1. `NextUseBuilder` consumes the access stream once and records, per
//!    access, the position of the same address's next access (4 bytes
//!    per access, plus 8 per address while it builds).
//! 2. `OptSim` consumes the *same* stream again (instrumented
//!    executions are deterministic, so the second pass is a re-run) and
//!    simulates Belady eviction with O(1) amortized work per access: the
//!    resident set is indexed by a `pos_owner` bucket array mapping each
//!    future trace position to the line whose next use it is (each
//!    position is the next use of at most one line, so buckets hold at
//!    most one address), a `never` stack of resident lines with no future
//!    use, and a lazy-deletion binary max-heap of filed positions that
//!    yields the farthest-next-use victim in O(log M) amortized — stale
//!    heap entries are recognized in O(1) by their empty bucket and
//!    discarded on pop, so no ordered container is ever rebalanced on
//!    the hit path.
//!
//! [`opt_stats`] and [`replay`] take a foreign trace, whose addresses may
//! be anywhere in `u64`; they rename it with `densify` first, the one
//! place a sparse address is mapped. The naive `BTreeSet` implementation
//! survives as [`crate::reference::opt_stats_reference`], the oracle the
//! differential tests pin this one to.

use crate::cache::CacheStats;
use std::collections::{BinaryHeap, HashMap};

/// One recorded access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Word address.
    pub addr: u64,
    /// `true` for writes.
    pub write: bool,
}

/// A consumer of access-trace chunks. Instrumented executions feed
/// [`Access`] records through a fixed-size chunk buffer (see
/// [`crate::seq::Mem::attach_sink`]) instead of materializing the trace,
/// so a sink sees the stream in order, in batches.
pub trait TraceSink {
    /// Consume the next chunk of the access stream.
    fn consume(&mut self, chunk: &[Access]);
}

/// Materialize the stream (small runs, tests, replay).
impl TraceSink for Vec<Access> {
    fn consume(&mut self, chunk: &[Access]) {
        self.extend_from_slice(chunk);
    }
}

/// Shared-ownership adapter: lets a caller hand a sink to an instrumented
/// execution (which wants an owned `Box<dyn TraceSink>`) while keeping a
/// handle to collect the result afterwards.
impl<T: TraceSink> TraceSink for std::rc::Rc<std::cell::RefCell<T>> {
    fn consume(&mut self, chunk: &[Access]) {
        self.borrow_mut().consume(chunk);
    }
}

/// Rename addresses in place to 0, 1, 2, … in the order of their first
/// touch. The renaming is a bijection, so no policy's counters change; it
/// is how a trace with sparse addresses (up to `u64::MAX`) enters the
/// dense simulators.
pub(crate) fn densify<'a>(addrs: impl IntoIterator<Item = &'a mut u64>) {
    let mut ids: HashMap<u64, u64> = HashMap::new();
    for addr in addrs {
        let fresh = ids.len() as u64;
        *addr = *ids.entry(*addr).or_insert(fresh);
    }
}

/// A copy of `trace` with [`densify`]d addresses.
fn densified(trace: &[Access]) -> Vec<Access> {
    let mut trace = trace.to_vec();
    densify(trace.iter_mut().map(|a| &mut a.addr));
    trace
}

/// Sentinel: "no position" / "no address".
const NONE32: u32 = u32::MAX;

/// Pass 1 of streaming OPT: for each access, the position of the next
/// access to the same address. One `u32` per access — far below the 16
/// bytes per access of a materialized trace.
#[derive(Default)]
pub(crate) struct NextUseBuilder {
    /// Per address: its first access (`NONE32` if untouched).
    first: Vec<u32>,
    /// Per address: its latest access so far.
    last: Vec<u32>,
    /// Per access: the next access to the same address (`NONE32` if none).
    next: Vec<u32>,
}

impl NextUseBuilder {
    /// Empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record the next access of the stream.
    #[inline]
    pub(crate) fn push(&mut self, addr: u64) {
        let t = self.next.len() as u32;
        assert!(t != NONE32, "trace longer than u32::MAX accesses");
        let a = usize::try_from(addr)
            .ok()
            .filter(|&a| a < NONE32 as usize)
            .expect("OPT needs dense addresses below u32::MAX");
        if a >= self.first.len() {
            self.first.resize(a + 1, NONE32);
            self.last.resize(a + 1, NONE32);
        }
        match self.last[a] {
            NONE32 => self.first[a] = t,
            prev => self.next[prev as usize] = t,
        }
        self.last[a] = t;
        self.next.push(NONE32);
    }

    /// Freeze into the pass-2 simulator.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub(crate) fn into_sim(self, capacity: usize) -> OptSim {
        assert!(capacity > 0, "cache capacity must be positive");
        let span = self.first.len();
        OptSim {
            capacity,
            pos_owner: vec![NONE32; self.next.len() + 1],
            expect: self.first,
            next: self.next,
            resident: vec![false; span],
            dirty: vec![false; span],
            never: Vec::new(),
            heap: BinaryHeap::new(),
            t: 0,
            len: 0,
            stats: CacheStats::default(),
        }
    }
}

impl TraceSink for NextUseBuilder {
    fn consume(&mut self, chunk: &[Access]) {
        for a in chunk {
            self.push(a.addr);
        }
    }
}

/// Pass 2 of streaming OPT: Belady/MIN simulation of a fully associative
/// cache of `capacity` words with write-allocate-without-fetch,
/// dirty-writeback accounting and a final flush ([`OptSim::finish`]).
///
/// The stream fed to [`OptSim::access`] must be *identical* to the one
/// the [`NextUseBuilder`] saw; a divergence panics with a diagnostic
/// rather than silently producing wrong counts.
pub(crate) struct OptSim {
    capacity: usize,
    /// Per address: the position of its next access (`NONE32` once it has
    /// none left).
    expect: Vec<u32>,
    /// Per access: the next access to the same address.
    next: Vec<u32>,
    resident: Vec<bool>,
    dirty: Vec<bool>,
    /// For each future trace position, the resident address whose next
    /// use it is (`NONE32` if none) — the "bucket" side of victim
    /// selection.
    pos_owner: Vec<u32>,
    /// Resident addresses with no future use: any of them is an optimal
    /// victim (the counters come out the same whichever is evicted,
    /// because a never-again-used line costs its dirty writeback exactly
    /// once — now, or at the final flush).
    never: Vec<u32>,
    /// Filed next-use positions, max first, with lazy deletion: an entry
    /// whose bucket in `pos_owner` has been retired (hit reached it, or
    /// the line was already evicted) is stale and skipped on pop. Every
    /// position enters the heap at most once, so total heap work is
    /// O(len · log M) regardless of how victim selection interleaves
    /// with retirement.
    heap: BinaryHeap<u32>,
    /// Current trace position.
    t: u32,
    len: usize,
    stats: CacheStats,
}

impl OptSim {
    /// Feed the next access of the (re-run) stream.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64, write: bool) {
        let here = self.expect.get(addr as usize).copied();
        assert!(
            here == Some(self.t),
            "OPT pass 2 diverged at position {}: address {addr} expected at {:?}",
            self.t,
            here.filter(|&p| p != NONE32),
        );
        let i = addr as usize;
        let nu = self.next[self.t as usize];
        self.expect[i] = nu;

        self.stats.accesses += 1;
        if self.resident[i] {
            self.stats.hits += 1;
            self.dirty[i] |= write;
            // This access *is* the line's recorded next use: retire that
            // bucket and file the new one.
            self.pos_owner[self.t as usize] = NONE32;
        } else {
            if !write {
                self.stats.loads += 1;
            }
            if self.len >= self.capacity {
                self.evict();
            }
            self.resident[i] = true;
            self.dirty[i] = write;
            self.len += 1;
        }
        self.file_next_use(i as u32, nu);
        self.t += 1;
    }

    #[inline]
    fn file_next_use(&mut self, addr: u32, nu: u32) {
        if nu == NONE32 {
            self.never.push(addr);
        } else {
            debug_assert_eq!(self.pos_owner[nu as usize], NONE32);
            self.pos_owner[nu as usize] = addr;
            self.heap.push(nu);
        }
    }

    /// Evict the farthest-next-use resident line: the `never` stack
    /// first, else pop the heap past stale entries (empty bucket ⇒
    /// retired) to the live maximum. Buckets are occupied iff their
    /// owner is resident with exactly that next use, so a non-empty
    /// bucket never needs a second validity check.
    fn evict(&mut self) {
        let victim = match self.never.pop() {
            Some(v) => v,
            None => loop {
                let p = self.heap.pop().expect(
                    "no eviction candidate: every resident line must be in `never` or own a bucket",
                ) as usize;
                if self.pos_owner[p] != NONE32 {
                    let v = self.pos_owner[p];
                    self.pos_owner[p] = NONE32;
                    break v;
                }
            },
        };
        let v = victim as usize;
        debug_assert!(self.resident[v]);
        self.resident[v] = false;
        if self.dirty[v] {
            self.stats.stores += 1;
        }
        self.len -= 1;
    }

    /// Final flush: write back resident dirty lines and return the
    /// accumulated statistics.
    pub(crate) fn finish(mut self) -> CacheStats {
        for i in 0..self.resident.len() {
            if self.resident[i] && self.dirty[i] {
                self.stats.stores += 1;
            }
        }
        self.stats
    }
}

impl TraceSink for OptSim {
    fn consume(&mut self, chunk: &[Access]) {
        for a in chunk {
            self.access(a.addr, a.write);
        }
    }
}

/// Simulate the optimal offline (Belady/MIN) policy over `trace` with a
/// fully associative cache of `capacity` words, write-allocate without
/// fetch, dirty-writeback accounting and a final flush.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn opt_stats(trace: &[Access], capacity: usize) -> CacheStats {
    let trace = densified(trace);
    let mut builder = NextUseBuilder::new();
    builder.consume(&trace);
    let mut sim = builder.into_sim(capacity);
    sim.consume(&trace);
    sim.finish()
}

/// Replay a trace through the *online* simulator for a like-for-like
/// comparison with [`opt_stats`].
pub fn replay(trace: &[Access], capacity: usize, policy: crate::cache::Policy) -> CacheStats {
    let mut cache = crate::cache::Cache::new(capacity, policy);
    for a in densified(trace) {
        if a.write {
            cache.write(a.addr);
        } else {
            cache.read(a.addr);
        }
    }
    cache.flush();
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Policy;

    fn r(addr: u64) -> Access {
        Access { addr, write: false }
    }
    fn w(addr: u64) -> Access {
        Access { addr, write: true }
    }

    #[test]
    fn opt_beats_lru_on_adversarial_trace() {
        // Cyclic scan of capacity+1 addresses: LRU misses everything, OPT
        // keeps most of the working set.
        let trace: Vec<Access> = (0..30).map(|i| r(i % 3)).collect();
        let lru = replay(&trace, 2, Policy::Lru);
        let opt = opt_stats(&trace, 2);
        assert_eq!(lru.loads, 30, "LRU thrashes on the cycle");
        // OPT alternates miss/hit after warmup (~half the misses).
        assert!(opt.loads <= 16, "OPT {} vs LRU {}", opt.loads, lru.loads);
    }

    #[test]
    fn opt_never_worse_than_lru_or_fifo() {
        // A pseudo-random but deterministic mixed trace.
        let mut x = 12345u64;
        let trace: Vec<Access> = (0..500)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (x >> 33) % 24;
                if x.is_multiple_of(5) {
                    w(addr)
                } else {
                    r(addr)
                }
            })
            .collect();
        for cap in [2usize, 4, 8, 16] {
            let opt = opt_stats(&trace, cap);
            let lru = replay(&trace, cap, Policy::Lru);
            let fifo = replay(&trace, cap, Policy::Fifo);
            assert!(
                opt.io() <= lru.io(),
                "cap={cap}: OPT {} > LRU {}",
                opt.io(),
                lru.io()
            );
            assert!(opt.io() <= fifo.io(), "cap={cap}");
        }
    }

    #[test]
    fn opt_counts_match_online_when_cache_big_enough() {
        let trace = vec![r(1), r(2), w(3), r(1), r(2), r(3)];
        let opt = opt_stats(&trace, 10);
        let lru = replay(&trace, 10, Policy::Lru);
        assert_eq!(opt, lru);
        assert_eq!(opt.loads, 2); // addresses 1 and 2 (3 is write-allocated)
        assert_eq!(opt.stores, 1); // flush of dirty 3
    }

    #[test]
    fn dirty_eviction_stores_once() {
        // Capacity 1: write 1, then touch 2 → dirty 1 evicted (store).
        let trace = vec![w(1), r(2)];
        let opt = opt_stats(&trace, 1);
        assert_eq!(opt.stores, 1);
        assert_eq!(opt.loads, 1);
    }

    #[test]
    fn hits_counted() {
        let trace = vec![r(1), r(1), r(1)];
        let opt = opt_stats(&trace, 1);
        assert_eq!(opt.hits, 2);
        assert_eq!(opt.loads, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = opt_stats(&[], 0);
    }

    #[test]
    fn two_pass_streaming_matches_slice_api() {
        let mut x = 7u64;
        let trace: Vec<Access> = (0..400)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                Access {
                    addr: (x >> 40) % 31,
                    write: x & 4 == 0,
                }
            })
            .collect();
        for cap in [1usize, 3, 7, 32] {
            let slice = opt_stats(&trace, cap);
            // Streamed in uneven chunks through the TraceSink interface.
            let mut b = NextUseBuilder::new();
            for chunk in trace.chunks(13) {
                b.consume(chunk);
            }
            let mut sim = b.into_sim(cap);
            for chunk in trace.chunks(29) {
                sim.consume(chunk);
            }
            assert_eq!(sim.finish(), slice, "cap={cap}");
        }
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn pass_divergence_detected() {
        let mut b = NextUseBuilder::new();
        b.push(1);
        b.push(2);
        let mut sim = b.into_sim(4);
        sim.access(2, false); // wrong order vs pass 1
    }

    #[test]
    fn empty_trace_is_fine() {
        assert_eq!(opt_stats(&[], 4), CacheStats::default());
    }
}
