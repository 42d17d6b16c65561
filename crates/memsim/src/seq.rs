//! Instrumented sequential executions: real algorithms, every element
//! access routed through the [`crate::cache`] simulator.
//!
//! The executors below actually compute the product (results are checked
//! against the classical kernel in tests) while the cache counts the I/O a
//! two-level machine with `M` words of fast memory would perform. This is
//! the measured side of the Table I comparison:
//!
//! * [`classical_naive`] — the textbook triple loop (pathological reuse);
//! * [`classical_blocked`] — tiled with `b ≈ √(M/3)`, the Hong–Kung-optimal
//!   classical schedule, `Θ(n³/√M)` I/O;
//! * [`fast_recursive`] — any catalog algorithm, recursing until the
//!   sub-problem fits in cache, `Θ((n/√M)^{log₂7}·M)` I/O.

use crate::cache::{Cache, CacheStats, EvictionStats, Policy};
use crate::trace::{Access, NextUseBuilder, TraceSink};
use fmm_core::bilinear::Bilinear2x2;
use fmm_matrix::Matrix;

/// I/O charged while one named execution phase was active.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseDelta {
    /// Phase name (e.g. `split`, `encode`, `base`, `decode`, `join`).
    pub phase: &'static str,
    /// Cache statistics accumulated during the phase.
    pub stats: CacheStats,
    /// Eviction breakdown accumulated during the phase.
    pub evictions: EvictionStats,
}

/// Running per-phase attribution (only allocated when phase recording is
/// on, so the default path pays a single `Option` branch per switch).
struct PhaseLog {
    current: &'static str,
    last_stats: CacheStats,
    last_evict: EvictionStats,
    deltas: Vec<PhaseDelta>,
}

fn stats_delta(now: CacheStats, then: CacheStats) -> CacheStats {
    CacheStats {
        loads: now.loads - then.loads,
        stores: now.stores - then.stores,
        hits: now.hits - then.hits,
        accesses: now.accesses - then.accesses,
    }
}

fn evict_delta(now: EvictionStats, then: EvictionStats) -> EvictionStats {
    EvictionStats {
        evictions: now.evictions - then.evictions,
        clean_evictions: now.clean_evictions - then.clean_evictions,
        dirty_writebacks: now.dirty_writebacks - then.dirty_writebacks,
        flush_writebacks: now.flush_writebacks - then.flush_writebacks,
    }
}

fn merge_deltas(raw: Vec<PhaseDelta>) -> Vec<PhaseDelta> {
    let mut merged: Vec<PhaseDelta> = Vec::new();
    for d in raw {
        if let Some(existing) = merged.iter_mut().find(|e| e.phase == d.phase) {
            existing.stats.loads += d.stats.loads;
            existing.stats.stores += d.stats.stores;
            existing.stats.hits += d.stats.hits;
            existing.stats.accesses += d.stats.accesses;
            existing.evictions.evictions += d.evictions.evictions;
            existing.evictions.clean_evictions += d.evictions.clean_evictions;
            existing.evictions.dirty_writebacks += d.evictions.dirty_writebacks;
            existing.evictions.flush_writebacks += d.evictions.flush_writebacks;
        } else {
            merged.push(d);
        }
    }
    merged
}

/// A matrix whose elements live at simulated addresses. A clone aliases
/// the same addresses (reads through either charge the same words).
#[derive(Clone)]
pub struct TMat {
    base: u64,
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl TMat {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Copy out as an ordinary matrix (no I/O charged — diagnostic only).
    pub fn to_matrix(&self) -> Matrix<f64> {
        Matrix::from_vec(self.rows, self.cols, self.data.clone())
    }
}

/// Number of [`Access`] records buffered before a sink sees them. Large
/// enough to amortize the dynamic dispatch into the sink, small enough
/// (64 KiB) to stay cache-resident.
const TRACE_CHUNK: usize = 4096;

/// Where the access stream goes, if anywhere.
enum Sink {
    /// Materialize the whole trace (small runs / tests / replay).
    Record(Vec<Access>),
    /// Stream to an external consumer through the chunk buffer.
    Stream(Box<dyn TraceSink>),
}

/// The simulated memory: a bump allocator of addresses plus the cache.
pub struct Mem {
    cache: Cache,
    next: u64,
    /// Fixed-size chunk buffer between the executors and the sink; only
    /// allocated (and only consulted beyond one branch) when a sink is
    /// attached.
    chunk: Vec<Access>,
    sink: Option<Sink>,
    phases: Option<PhaseLog>,
    /// Fault injection: wipe the fast level every `.0` accesses (the
    /// sequential analogue of a crash losing fast memory). `.1` counts
    /// accesses since the last wipe, `.2` counts wipes fired.
    fault_flush: Option<(u64, u64, u64)>,
    /// Cooperative cancellation: the scoped [`fmm_faults::CancelToken`]
    /// captured at construction (if any), polled every
    /// [`fmm_faults::cancel::POLL_STRIDE`] accesses. `.1` is the access
    /// countdown to the next poll.
    cancel: Option<(fmm_faults::CancelToken, u32)>,
}

impl Mem {
    /// Memory with a fast level of `m` words. Per-phase attribution is
    /// automatically on when the telemetry level is `full`. If the
    /// current thread has a scoped [`fmm_faults::CancelToken`]
    /// ([`fmm_faults::cancel::enter`]), the instrumented execution polls
    /// it and unwinds with the `Cancelled` sentinel once it fires — this
    /// is how per-job deadlines and graceful shutdown reach the hot loop.
    pub fn new(m: usize, policy: Policy) -> Self {
        let mut mem = Mem {
            cache: Cache::new(m, policy),
            next: 0,
            chunk: Vec::new(),
            sink: None,
            phases: None,
            fault_flush: None,
            cancel: fmm_faults::cancel::current().map(|t| (t, fmm_faults::cancel::POLL_STRIDE)),
        };
        if fmm_obs::detailed() {
            mem.record_phases(true);
        }
        mem
    }

    /// As [`Mem::new`], additionally recording the full access trace so it
    /// can be replayed under the offline-optimal policy
    /// ([`crate::trace::opt_stats`]). Prefer the streaming
    /// [`measure_opt_seeded`] for large runs — it never materializes the
    /// trace.
    pub fn new_recording(m: usize, policy: Policy) -> Self {
        let mut mem = Mem::new(m, policy);
        mem.sink = Some(Sink::Record(Vec::new()));
        mem.chunk.reserve_exact(TRACE_CHUNK);
        mem
    }

    /// Stream every subsequent access into `sink` through a fixed-size
    /// chunk buffer. Replaces any previous sink (its buffered records are
    /// delivered first).
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.flush_chunk();
        self.sink = Some(Sink::Stream(sink));
        self.chunk.reserve_exact(TRACE_CHUNK);
    }

    /// Deliver buffered records and detach the current streaming sink.
    pub fn detach_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush_chunk();
        match self.sink.take() {
            Some(Sink::Stream(s)) => Some(s),
            other => {
                self.sink = other;
                None
            }
        }
    }

    /// Deliver any buffered chunk to the sink.
    fn flush_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        match &mut self.sink {
            Some(Sink::Record(v)) => v.extend_from_slice(&self.chunk),
            Some(Sink::Stream(s)) => s.consume(&self.chunk),
            None => {}
        }
        self.chunk.clear();
    }

    /// Route one access record toward the sink (no-op without one).
    #[inline]
    fn record(&mut self, addr: u64, write: bool) {
        if self.sink.is_some() {
            self.chunk.push(Access { addr, write });
            if self.chunk.len() >= TRACE_CHUNK {
                self.flush_chunk();
            }
        }
    }

    /// Explicitly enable (or disable) per-phase attribution, independent of
    /// the global telemetry level — used by tests so they need no global
    /// state.
    pub fn record_phases(&mut self, on: bool) {
        self.phases = on.then(|| PhaseLog {
            current: "main",
            last_stats: self.cache.stats(),
            last_evict: self.cache.eviction_stats(),
            deltas: Vec::new(),
        });
    }

    /// Switch the active phase, attributing I/O since the last switch to
    /// the previous phase. No-op unless phase recording is on.
    #[inline]
    pub fn set_phase(&mut self, phase: &'static str) {
        if self.phases.is_some() {
            self.close_phase();
            if let Some(log) = &mut self.phases {
                log.current = phase;
            }
        }
    }

    fn close_phase(&mut self) {
        let stats = self.cache.stats();
        let evict = self.cache.eviction_stats();
        if let Some(log) = &mut self.phases {
            let ds = stats_delta(stats, log.last_stats);
            let de = evict_delta(evict, log.last_evict);
            if ds.accesses > 0 || ds.io() > 0 || de.evictions > 0 || de.flush_writebacks > 0 {
                log.deltas.push(PhaseDelta {
                    phase: log.current,
                    stats: ds,
                    evictions: de,
                });
            }
            log.last_stats = stats;
            log.last_evict = evict;
        }
    }

    /// The recorded trace, if recording was enabled.
    pub fn take_trace(&mut self) -> Option<Vec<Access>> {
        self.flush_chunk();
        match self.sink.take() {
            Some(Sink::Record(v)) => Some(v),
            other => {
                self.sink = other;
                None
            }
        }
    }

    /// Allocate an uninitialized (zero) matrix in slow memory.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> TMat {
        let base = self.next;
        self.next += (rows * cols) as u64;
        TMat {
            base,
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Allocate and fill from an ordinary matrix (initial placement in slow
    /// memory; no I/O charged, matching the model where inputs start in
    /// slow memory).
    pub fn alloc_from(&mut self, m: &Matrix<f64>) -> TMat {
        let mut t = self.alloc(m.rows(), m.cols());
        t.data.copy_from_slice(m.as_slice());
        t
    }

    /// Inject periodic fast-memory loss: every `every` accesses the fast
    /// level is flushed (dirty lines written back, everything evicted), as
    /// if the machine crashed and restarted with a cold cache. The extra
    /// I/O relative to an uninjected run is the sequential recovery cost —
    /// the words the schedule must re-move to recompute what was resident.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn inject_flush_every(&mut self, every: u64) {
        assert!(every > 0, "flush period must be positive");
        self.fault_flush = Some((every, 0, 0));
    }

    /// Number of injected fast-memory wipes fired so far.
    pub fn fault_flushes(&self) -> u64 {
        self.fault_flush.map(|(_, _, fired)| fired).unwrap_or(0)
    }

    /// Advance the fault clock by one access, wiping the fast level when
    /// the period elapses.
    #[inline]
    fn fault_tick(&mut self) {
        if let Some((every, ref mut since, ref mut fired)) = self.fault_flush {
            *since += 1;
            if *since >= every {
                *since = 0;
                *fired += 1;
                self.cache.flush();
            }
        }
        if let Some((ref token, ref mut countdown)) = self.cancel {
            *countdown -= 1;
            if *countdown == 0 {
                *countdown = fmm_faults::cancel::POLL_STRIDE;
                token.bail_if_cancelled();
            }
        }
    }

    #[inline]
    fn read(&mut self, m: &TMat, i: usize, j: usize) -> f64 {
        let addr = m.base + (i * m.cols + j) as u64;
        self.cache.read(addr);
        self.record(addr, false);
        self.fault_tick();
        m.data[i * m.cols + j]
    }

    #[inline]
    fn write(&mut self, m: &mut TMat, i: usize, j: usize, v: f64) {
        let addr = m.base + (i * m.cols + j) as u64;
        self.cache.write(addr);
        self.record(addr, true);
        self.fault_tick();
        m.data[i * m.cols + j] = v;
    }

    /// Raw single-element access to `m` (a read, or a write of the value
    /// already there). Lets trace replay and property tests drive the
    /// cache through the full instrumented [`Mem`] path.
    pub fn access(&mut self, m: &mut TMat, i: usize, j: usize, write: bool) {
        if write {
            let v = m.data[i * m.cols + j];
            self.write(m, i, j, v);
        } else {
            let _ = self.read(m, i, j);
        }
    }

    /// Flush dirty state and return the accumulated statistics. Publishes
    /// cache telemetry to the global registry when enabled.
    pub fn finish(self) -> CacheStats {
        self.finish_detailed().0
    }

    /// As [`Mem::finish`], additionally returning the per-phase breakdown
    /// (empty unless phase recording was on). Flush writebacks are
    /// attributed to a synthetic `flush` phase.
    pub fn finish_detailed(mut self) -> (CacheStats, Vec<PhaseDelta>) {
        self.set_phase("flush");
        self.cache.flush();
        self.close_phase();
        let stats = self.cache.stats();
        let evict = self.cache.eviction_stats();
        let deltas = merge_deltas(self.phases.take().map(|log| log.deltas).unwrap_or_default());
        if fmm_obs::enabled() {
            publish_cache_metrics(stats, evict, &deltas);
            if let Some((_, _, fired)) = self.fault_flush {
                fmm_obs::add("memsim.cache.fault_flushes", &[], fired);
            }
        }
        (stats, deltas)
    }

    /// Statistics so far (without flushing).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Eviction breakdown so far.
    pub fn eviction_stats(&self) -> EvictionStats {
        self.cache.eviction_stats()
    }
}

/// Push one finished run's cache counters into the global registry:
/// aggregate totals always (when enabled), per-phase breakdowns when the
/// level is `full`.
fn publish_cache_metrics(stats: CacheStats, evict: EvictionStats, deltas: &[PhaseDelta]) {
    fmm_obs::add("memsim.cache.loads", &[], stats.loads);
    fmm_obs::add("memsim.cache.stores", &[], stats.stores);
    fmm_obs::add("memsim.cache.hits", &[], stats.hits);
    fmm_obs::add("memsim.cache.misses", &[], stats.accesses - stats.hits);
    fmm_obs::add("memsim.cache.accesses", &[], stats.accesses);
    fmm_obs::add("memsim.cache.evictions", &[], evict.evictions);
    fmm_obs::add(
        "memsim.cache.writebacks",
        &[],
        evict.dirty_writebacks + evict.flush_writebacks,
    );
    if fmm_obs::detailed() {
        for d in deltas {
            let labels = [("phase", d.phase.to_string())];
            fmm_obs::add("memsim.phase.loads", &labels, d.stats.loads);
            fmm_obs::add("memsim.phase.stores", &labels, d.stats.stores);
            fmm_obs::add("memsim.phase.hits", &labels, d.stats.hits);
            fmm_obs::add(
                "memsim.phase.misses",
                &labels,
                d.stats.accesses - d.stats.hits,
            );
            fmm_obs::add("memsim.phase.evictions", &labels, d.evictions.evictions);
            fmm_obs::add(
                "memsim.phase.writebacks",
                &labels,
                d.evictions.dirty_writebacks + d.evictions.flush_writebacks,
            );
        }
    }
}

/// Textbook i-j-k multiplication through the cache.
pub fn classical_naive(mem: &mut Mem, a: &TMat, b: &TMat) -> TMat {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = mem.alloc(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += mem.read(a, i, l) * mem.read(b, l, j);
            }
            mem.write(&mut c, i, j, acc);
        }
    }
    c
}

/// Tiled multiplication with square tiles of side `tile`.
pub fn classical_blocked(mem: &mut Mem, a: &TMat, b: &TMat, tile: usize) -> TMat {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = mem.alloc(m, n);
    for i0 in (0..m).step_by(tile) {
        for j0 in (0..n).step_by(tile) {
            for l0 in (0..k).step_by(tile) {
                for i in i0..(i0 + tile).min(m) {
                    for l in l0..(l0 + tile).min(k) {
                        let av = mem.read(a, i, l);
                        for j in j0..(j0 + tile).min(n) {
                            // First accumulation initializes C without
                            // reading it (the value starts in a register).
                            let prev = if l == 0 { 0.0 } else { mem.read(&c, i, j) };
                            let bv = mem.read(b, l, j);
                            mem.write(&mut c, i, j, prev + av * bv);
                        }
                    }
                }
            }
        }
    }
    c
}

/// The tile side `b = ⌊√(M/3)⌋` that fits three tiles in cache.
pub fn natural_tile(m_words: usize) -> usize {
    (((m_words / 3) as f64).sqrt() as usize).max(1)
}

fn quadrant_of(mem: &mut Mem, src: &TMat, qi: usize, qj: usize) -> TMat {
    let h = src.rows / 2;
    let mut dst = mem.alloc(h, h);
    for i in 0..h {
        for j in 0..h {
            let v = mem.read(src, qi * h + i, qj * h + j);
            mem.write(&mut dst, i, j, v);
        }
    }
    dst
}

/// One SLP op `c1·x + c2·y` through the cache (`c2 == 0`: the unary `c1·x`,
/// which reads only `x`).
fn combine(mem: &mut Mem, c1: i64, x: &TMat, c2: i64, y: &TMat) -> TMat {
    let mut out = mem.alloc(x.rows, x.cols);
    for i in 0..x.rows {
        for j in 0..x.cols {
            let mut v = c1 as f64 * mem.read(x, i, j);
            if c2 != 0 {
                v += c2 as f64 * mem.read(y, i, j);
            }
            mem.write(&mut out, i, j, v);
        }
    }
    out
}

fn fast_rec(mem: &mut Mem, alg: &Bilinear2x2, a: &TMat, b: &TMat, cutoff: usize) -> TMat {
    let n = a.rows;
    if n <= cutoff || n == 1 {
        mem.set_phase("base");
        return classical_blocked(mem, a, b, n);
    }
    let h = n / 2;
    mem.set_phase("split");
    let aq: Vec<TMat> = (0..4).map(|q| quadrant_of(mem, a, q / 2, q % 2)).collect();
    let bq: Vec<TMat> = (0..4).map(|q| quadrant_of(mem, b, q / 2, q % 2)).collect();

    mem.set_phase("encode");
    let left = alg
        .enc_a
        .eval(aq, |c1, x, c2, y| combine(mem, c1, x, c2, y));
    let right = alg
        .enc_b
        .eval(bq, |c1, x, c2, y| combine(mem, c1, x, c2, y));
    let products: Vec<TMat> = left
        .iter()
        .zip(&right)
        .map(|(l, r)| fast_rec(mem, alg, l, r, cutoff))
        .collect();
    mem.set_phase("decode");
    let quadrants = alg
        .dec
        .eval(products, |c1, x, c2, y| combine(mem, c1, x, c2, y));

    mem.set_phase("join");
    let mut c = mem.alloc(n, n);
    for (qo, block) in quadrants.iter().enumerate() {
        let (qi, qj) = (qo / 2, qo % 2);
        for i in 0..h {
            for j in 0..h {
                let v = mem.read(block, i, j);
                mem.write(&mut c, qi * h + i, qj * h + j, v);
            }
        }
    }
    c
}

/// Recursive fast multiplication through the cache, recursing until the
/// sub-problem side is at most `cutoff` (choose `cutoff ≈ √(M/3)` so the
/// base case runs in-cache).
///
/// # Panics
/// Panics unless both operands are square of equal power-of-two order.
pub fn fast_recursive(mem: &mut Mem, alg: &Bilinear2x2, a: &TMat, b: &TMat, cutoff: usize) -> TMat {
    assert!(
        a.rows == a.cols && b.rows == b.cols && a.rows == b.rows,
        "need equal squares"
    );
    assert!(a.rows.is_power_of_two(), "order must be a power of two");
    fast_rec(mem, alg, a, b, cutoff.max(1))
}

/// Default workload seed used by [`measure`] and [`measure_traced`] (and
/// by every CLI entry point that does not pass `--seed`).
pub const DEFAULT_WORKLOAD_SEED: u64 = 0xF00D;

/// Measured I/O of one full run: build inputs, run `f`, flush.
///
/// Workload matrices come from [`DEFAULT_WORKLOAD_SEED`]; use
/// [`measure_seeded`] for reproducible sweeps over different inputs.
///
/// ```
/// use fmm_memsim::{cache::Policy, seq};
/// let (product, stats) = seq::measure(8, 48, Policy::Lru, |mem, a, b| {
///     seq::classical_blocked(mem, a, b, 4)
/// });
/// assert_eq!(product.rows(), 8);
/// assert!(stats.io() > 0);
/// ```
pub fn measure<F>(n: usize, m_words: usize, policy: Policy, f: F) -> (Matrix<f64>, CacheStats)
where
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    measure_seeded(n, m_words, policy, DEFAULT_WORKLOAD_SEED, f)
}

/// As [`measure`], with an explicit workload seed for the random inputs.
pub fn measure_seeded<F>(
    n: usize,
    m_words: usize,
    policy: Policy,
    seed: u64,
    f: F,
) -> (Matrix<f64>, CacheStats)
where
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let _span = fmm_obs::Span::enter("memsim.measure");
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<f64>::random_small(n, n, &mut rng);
    let b = Matrix::<f64>::random_small(n, n, &mut rng);
    let mut mem = Mem::new(m_words, policy);
    let ta = mem.alloc_from(&a);
    let tb = mem.alloc_from(&b);
    let c = f(&mut mem, &ta, &tb);
    let result = c.to_matrix();
    let stats = mem.finish();
    (result, stats)
}

/// As [`measure_seeded`], with periodic fast-memory loss injected every
/// `flush_every` accesses ([`Mem::inject_flush_every`]). Returns the
/// product, the cache statistics, and the number of wipes fired. The
/// recovery I/O of the schedule is this run's `io()` minus the same
/// configuration's fault-free `io()`.
pub fn measure_faulty_seeded<F>(
    n: usize,
    m_words: usize,
    policy: Policy,
    seed: u64,
    flush_every: u64,
    f: F,
) -> (Matrix<f64>, CacheStats, u64)
where
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let _span = fmm_obs::Span::enter("memsim.measure_faulty");
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<f64>::random_small(n, n, &mut rng);
    let b = Matrix::<f64>::random_small(n, n, &mut rng);
    let mut mem = Mem::new(m_words, policy);
    mem.inject_flush_every(flush_every);
    let ta = mem.alloc_from(&a);
    let tb = mem.alloc_from(&b);
    let c = f(&mut mem, &ta, &tb);
    let result = c.to_matrix();
    let flushes = mem.fault_flushes();
    let stats = mem.finish();
    (result, stats, flushes)
}

/// As [`measure`], additionally returning the access trace (for replay
/// under other policies, e.g. offline-optimal).
pub fn measure_traced<F>(
    n: usize,
    m_words: usize,
    policy: Policy,
    f: F,
) -> (CacheStats, Vec<Access>)
where
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    measure_traced_seeded(n, m_words, policy, DEFAULT_WORKLOAD_SEED, f)
}

/// As [`measure_traced`], with an explicit workload seed.
pub fn measure_traced_seeded<F>(
    n: usize,
    m_words: usize,
    policy: Policy,
    seed: u64,
    f: F,
) -> (CacheStats, Vec<Access>)
where
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<f64>::random_small(n, n, &mut rng);
    let b = Matrix::<f64>::random_small(n, n, &mut rng);
    let mut mem = Mem::new_recording(m_words, policy);
    let ta = mem.alloc_from(&a);
    let tb = mem.alloc_from(&b);
    let _ = f(&mut mem, &ta, &tb);
    let trace = mem.take_trace().expect("recording enabled");
    let stats = mem.finish();
    (stats, trace)
}

/// Measured I/O of one full run under the **offline-optimal**
/// (Belady/MIN) replacement policy, computed in two streaming passes that
/// never materialize the trace: pass 1 re-runs `f` feeding a
/// [`NextUseBuilder`] (4 bytes of next-use index per access), pass 2
/// re-runs `f` feeding the [`crate::trace::OptSim`] it froze into.
/// Instrumented executions are deterministic, so both passes see the
/// identical access stream (verified at runtime by the simulator).
///
/// This replaces `measure_traced` + [`crate::trace::opt_stats`] for large
/// `n`, where a materialized `Vec<Access>` dwarfs the simulated memory.
pub fn measure_opt_seeded<F>(n: usize, m_words: usize, seed: u64, f: F) -> CacheStats
where
    F: Fn(&mut Mem, &TMat, &TMat) -> TMat,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;
    let _span = fmm_obs::Span::enter("memsim.measure_opt");
    let run_pass = |sink: Box<dyn TraceSink>| {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<f64>::random_small(n, n, &mut rng);
        let b = Matrix::<f64>::random_small(n, n, &mut rng);
        // The online policy is irrelevant here: only the access stream
        // feeds the OPT computation.
        let mut mem = Mem::new(m_words, Policy::Lru);
        mem.attach_sink(sink);
        let ta = mem.alloc_from(&a);
        let tb = mem.alloc_from(&b);
        let _ = f(&mut mem, &ta, &tb);
        mem.detach_sink();
    };
    let builder = Rc::new(RefCell::new(NextUseBuilder::new()));
    run_pass(Box::new(builder.clone()));
    let builder = Rc::try_unwrap(builder)
        .ok()
        .expect("sole owner")
        .into_inner();
    let sim = Rc::new(RefCell::new(builder.into_sim(m_words)));
    run_pass(Box::new(sim.clone()));
    Rc::try_unwrap(sim)
        .ok()
        .expect("sole owner")
        .into_inner()
        .finish()
}

/// As [`measure_opt_seeded`] with the [`DEFAULT_WORKLOAD_SEED`].
pub fn measure_opt<F>(n: usize, m_words: usize, f: F) -> CacheStats
where
    F: Fn(&mut Mem, &TMat, &TMat) -> TMat,
{
    measure_opt_seeded(n, m_words, DEFAULT_WORKLOAD_SEED, f)
}

/// Cache replacement for [`simulate`]: the two online policies, or
/// offline-optimal (Belady), which [`measure_opt_seeded`] computes in two
/// streaming passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Offline-optimal (Belady).
    Opt,
}

impl Replacement {
    /// The names, in the order an error message lists them.
    pub const NAMES: [&'static str; 3] = ["lru", "fifo", "opt"];
    const ALL: [Replacement; 3] = [Replacement::Lru, Replacement::Fifo, Replacement::Opt];

    /// Canonical string form.
    pub fn as_str(self) -> &'static str {
        Replacement::NAMES[self as usize]
    }

    /// Parse the canonical string form.
    pub fn parse(s: &str) -> Option<Replacement> {
        let i = Replacement::NAMES.iter().position(|name| *name == s)?;
        Some(Replacement::ALL[i])
    }
}

/// What [`simulate`] measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Simulated {
    pub stats: CacheStats,
    /// The computed product; `None` under [`Replacement::Opt`], whose
    /// passes only feed the access stream.
    pub product: Option<Matrix<f64>>,
    /// Cache wipes the `flush_every` fault fired.
    pub flushes: u64,
}

/// One seeded `n × n` multiply through a cache of `m_words`: blocked
/// classical when `alg` is `None`, else `alg`'s recursion, both at
/// `tile` (the block side, or the recursion's cutoff). `flush_every`
/// wipes the cache every that many accesses
/// ([`Mem::inject_flush_every`]); it needs an online `replacement`.
pub fn simulate(
    alg: Option<&Bilinear2x2>,
    n: usize,
    m_words: usize,
    tile: usize,
    replacement: Replacement,
    seed: u64,
    flush_every: Option<u64>,
) -> Simulated {
    let run = |mem: &mut Mem, a: &TMat, b: &TMat| match alg {
        None => classical_blocked(mem, a, b, tile),
        Some(alg) => fast_recursive(mem, alg, a, b, tile),
    };
    let policy = match replacement {
        Replacement::Lru => Policy::Lru,
        Replacement::Fifo => Policy::Fifo,
        Replacement::Opt => {
            assert!(flush_every.is_none(), "cache faults need an online policy");
            return Simulated {
                stats: measure_opt_seeded(n, m_words, seed, run),
                product: None,
                flushes: 0,
            };
        }
    };
    let (product, stats, flushes) = match flush_every {
        Some(every) => measure_faulty_seeded(n, m_words, policy, seed, every, run),
        None => {
            let (product, stats) = measure_seeded(n, m_words, policy, seed, run);
            (product, stats, 0)
        }
    };
    Simulated {
        stats,
        product: Some(product),
        flushes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::catalog;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference(n: usize) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let a = Matrix::<f64>::random_small(n, n, &mut rng);
        let b = Matrix::<f64>::random_small(n, n, &mut rng);
        let c = multiply_naive(&a, &b);
        (a, b, c)
    }

    #[test]
    fn naive_computes_correctly() {
        let (_, _, expect) = reference(8);
        let (got, stats) = measure(8, 64, Policy::Lru, classical_naive);
        assert!(got.approx_eq(&expect, 1e-9));
        assert!(stats.io() > 0);
    }

    #[test]
    fn blocked_computes_correctly() {
        let (_, _, expect) = reference(16);
        let (got, _) = measure(16, 192, Policy::Lru, |m, a, b| {
            classical_blocked(m, a, b, 8)
        });
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn fast_recursive_computes_correctly() {
        let (_, _, expect) = reference(16);
        for alg in [catalog::strassen(), catalog::winograd()] {
            let (got, _) = measure(16, 256, Policy::Lru, |m, a, b| {
                fast_recursive(m, &alg, a, b, 4)
            });
            assert!(got.approx_eq(&expect, 1e-9), "{}", alg.name);
        }
    }

    #[test]
    fn blocking_reduces_io() {
        let n = 32;
        let m_words = 3 * 8 * 8; // fits three 8×8 tiles
        let (_, naive) = measure(n, m_words, Policy::Lru, classical_naive);
        let (_, blocked) = measure(n, m_words, Policy::Lru, |m, a, b| {
            classical_blocked(m, a, b, 8)
        });
        assert!(
            blocked.io() < naive.io() / 2,
            "blocked {} vs naive {}",
            blocked.io(),
            naive.io()
        );
    }

    #[test]
    fn natural_tile_sane() {
        assert_eq!(natural_tile(3 * 64), 8);
        assert_eq!(natural_tile(1), 1);
        assert_eq!(natural_tile(12), 2);
    }

    #[test]
    fn bigger_cache_less_io() {
        let n = 32;
        let (_, small) = measure(n, 96, Policy::Lru, |m, a, b| {
            let t = natural_tile(96);
            classical_blocked(m, a, b, t)
        });
        let (_, big) = measure(n, 3 * n * n, Policy::Lru, |m, a, b| {
            classical_blocked(m, a, b, n)
        });
        assert!(big.io() < small.io());
        // With everything in cache: read 2n², write n².
        assert_eq!(big.io(), (3 * n * n) as u64);
    }

    #[test]
    fn fast_io_above_lower_bound() {
        // Measured Strassen I/O must sit above the Theorem 1.1 bound.
        let n = 32;
        let m_words = 128;
        let alg = catalog::strassen();
        let cutoff = natural_tile(m_words);
        let (_, stats) = measure(n, m_words, Policy::Lru, |m, a, b| {
            fast_recursive(m, &alg, a, b, cutoff)
        });
        let bound = fmm_core::bounds::sequential(n, m_words, fmm_core::bounds::OMEGA_FAST);
        assert!(
            (stats.io() as f64) >= bound,
            "measured {} below bound {bound}",
            stats.io()
        );
        // …but within a moderate constant (schedule is near-optimal).
        assert!((stats.io() as f64) < 60.0 * bound);
    }

    #[test]
    fn lru_vs_fifo_both_work() {
        let (_, _, expect) = reference(8);
        for policy in [Policy::Lru, Policy::Fifo] {
            let (got, _) = measure(8, 48, policy, |m, a, b| classical_blocked(m, a, b, 4));
            assert!(got.approx_eq(&expect, 1e-9));
        }
    }

    #[test]
    fn phase_deltas_sum_to_totals() {
        let alg = catalog::strassen();
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::<f64>::random_small(8, 8, &mut rng);
        let b = Matrix::<f64>::random_small(8, 8, &mut rng);
        let mut mem = Mem::new(64, Policy::Lru);
        mem.record_phases(true);
        let ta = mem.alloc_from(&a);
        let tb = mem.alloc_from(&b);
        let _ = fast_recursive(&mut mem, &alg, &ta, &tb, 2);
        let (stats, phases) = mem.finish_detailed();
        for want in ["split", "encode", "base", "decode", "join", "flush"] {
            assert!(
                phases.iter().any(|d| d.phase == want),
                "missing phase {want}"
            );
        }
        let sum = |f: fn(&PhaseDelta) -> u64| phases.iter().map(f).sum::<u64>();
        assert_eq!(sum(|d| d.stats.loads), stats.loads);
        assert_eq!(sum(|d| d.stats.stores), stats.stores);
        assert_eq!(sum(|d| d.stats.hits), stats.hits);
        assert_eq!(sum(|d| d.stats.accesses), stats.accesses);
    }

    #[test]
    fn phases_off_by_default_and_stats_unchanged() {
        let alg = catalog::strassen();
        let run = |record: bool| {
            let mut rng = StdRng::seed_from_u64(2);
            let a = Matrix::<f64>::random_small(8, 8, &mut rng);
            let b = Matrix::<f64>::random_small(8, 8, &mut rng);
            let mut mem = Mem::new(64, Policy::Lru);
            mem.record_phases(record);
            let ta = mem.alloc_from(&a);
            let tb = mem.alloc_from(&b);
            let _ = fast_recursive(&mut mem, &alg, &ta, &tb, 2);
            mem.finish_detailed()
        };
        let (off_stats, off_phases) = run(false);
        let (on_stats, on_phases) = run(true);
        assert_eq!(off_stats, on_stats, "phase recording must not perturb I/O");
        assert!(off_phases.is_empty());
        assert!(!on_phases.is_empty());
    }

    #[test]
    fn streaming_opt_matches_recorded_opt() {
        // The two-pass streaming OPT must equal opt_stats over the
        // materialized trace, for every algorithm family.
        let alg = catalog::strassen();
        type Kernel = Box<dyn Fn(&mut Mem, &TMat, &TMat) -> TMat>;
        let cases: [(&str, Kernel); 3] = [
            (
                "naive",
                Box::new(|m: &mut Mem, a: &TMat, b: &TMat| classical_naive(m, a, b)),
            ),
            (
                "blocked",
                Box::new(|m: &mut Mem, a: &TMat, b: &TMat| classical_blocked(m, a, b, 4)),
            ),
            (
                "fast",
                Box::new(move |m: &mut Mem, a: &TMat, b: &TMat| fast_recursive(m, &alg, a, b, 4)),
            ),
        ];
        for (name, f) in &cases {
            let (_, trace) = measure_traced(16, 48, Policy::Lru, |m, a, b| f(m, a, b));
            let recorded = crate::trace::opt_stats(&trace, 48);
            let streamed = measure_opt(16, 48, |m, a, b| f(m, a, b));
            assert_eq!(streamed, recorded, "{name}");
        }
    }

    #[test]
    fn injected_flushes_cost_io_but_not_correctness() {
        let (_, _, expect) = reference(16);
        let (clean, base) = measure(16, 192, Policy::Lru, |m, a, b| {
            classical_blocked(m, a, b, 8)
        });
        assert!(clean.approx_eq(&expect, 1e-9));
        let (got, faulty, fired) = measure_faulty_seeded(
            16,
            192,
            Policy::Lru,
            DEFAULT_WORKLOAD_SEED,
            512,
            |m, a, b| classical_blocked(m, a, b, 8),
        );
        assert!(got.approx_eq(&expect, 1e-9), "wipes must not corrupt data");
        assert!(fired > 0, "the period must have elapsed at least once");
        assert!(
            faulty.io() > base.io(),
            "losing fast memory must cost recovery I/O: {} vs {}",
            faulty.io(),
            base.io()
        );
    }

    #[test]
    fn injected_flushes_are_deterministic() {
        let run = || {
            measure_faulty_seeded(16, 96, Policy::Lru, 42, 300, |m, a, b| {
                classical_blocked(m, a, b, 4)
            })
        };
        let (c1, s1, f1) = run();
        let (c2, s2, f2) = run();
        assert!(c1.approx_eq(&c2, 0.0));
        assert_eq!(s1, s2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn scoped_cancel_token_stops_instrumented_execution() {
        use fmm_faults::cancel;
        cancel::silence_cancel_panics();
        // An already-expired deadline: the run must unwind with the
        // Cancelled sentinel at the first poll stride, not run to
        // completion.
        let token = fmm_faults::CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let guard = cancel::enter(&token);
        let payload = std::panic::catch_unwind(|| {
            measure(16, 96, Policy::Lru, |m, a, b| classical_blocked(m, a, b, 4))
        })
        .expect_err("expired token must cancel the run");
        assert_eq!(
            cancel::cancelled_reason(payload.as_ref()),
            Some(fmm_faults::CancelReason::DeadlineExceeded)
        );
        drop(guard);
        // Without a scoped token the same run completes untouched.
        let (_, stats) = measure(16, 96, Policy::Lru, |m, a, b| classical_blocked(m, a, b, 4));
        assert!(stats.io() > 0);
    }

    #[test]
    fn live_token_does_not_perturb_counters() {
        use fmm_faults::cancel;
        let run = || measure(16, 96, Policy::Lru, |m, a, b| classical_blocked(m, a, b, 4)).1;
        let bare = run();
        let token = fmm_faults::CancelToken::new();
        let _guard = cancel::enter(&token);
        assert_eq!(run(), bare, "polling a live token must not change I/O");
    }

    #[test]
    fn stats_accumulate_and_flush() {
        let mut mem = Mem::new(4, Policy::Lru);
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let ta = mem.alloc_from(&a);
        let tb = mem.alloc_from(&a);
        let _ = classical_naive(&mut mem, &ta, &tb);
        let s = mem.finish();
        assert!(s.loads > 0);
        assert!(s.stores >= 4); // the 2×2 result must reach slow memory
    }
}
