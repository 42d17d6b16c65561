//! Instrumented sequential executions: real algorithms, every element
//! access routed through the [`crate::cache`] simulator.
//!
//! The executors below actually compute the product (results are checked
//! against the classical kernel in tests) while the cache counts the I/O a
//! two-level machine with `M` words of fast memory would perform. This is
//! the measured side of the Table I comparison:
//!
//! * `classical_naive` (tests only) — the textbook triple loop
//!   (pathological reuse), the baseline blocking is tested against;
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

    /// Copy out as an ordinary matrix (no I/O charged — diagnostic only).
    pub(crate) fn to_matrix(&self) -> Matrix<f64> {
        Matrix::from_vec(self.rows, self.cols, self.data.clone())
    }
}

/// Number of [`Access`] records buffered before a sink sees them. Large
/// enough to amortize the dynamic dispatch into the sink, small enough
/// (64 KiB) to stay cache-resident.
const TRACE_CHUNK: usize = 4096;

/// The cancellation poll period, in accesses.
const POLL_STRIDE: u64 = fmm_faults::cancel::POLL_STRIDE as u64;

/// The simulated memory: a bump allocator of addresses plus the cache.
/// Addresses are handed out densely from 0, so the cache indexes its
/// address map directly.
pub struct Mem {
    cache: Cache,
    next: u64,
    phases: Option<PhaseLog>,
    /// Accesses left until the next [`Mem::event`]. Everything an access
    /// may trigger besides the cache itself — handing the trace to a
    /// sink, an injected wipe, a cancellation poll — happens there, so
    /// the three together cost one decrement and one branch per access.
    countdown: u64,
    /// The access count at which `countdown` reaches zero; the accesses so
    /// far are `due - countdown`.
    due: u64,
    /// Trace consumer, if any. While one is attached every access is an
    /// event, which buffers the access in `chunk` and hands the chunk
    /// over whenever it holds [`TRACE_CHUNK`] records.
    sink: Option<Box<dyn TraceSink>>,
    chunk: Vec<Access>,
    /// Fault injection: wipe the fast level every `.0` accesses (the
    /// sequential analogue of a crash losing fast memory); `.1` is the
    /// access count of the next wipe.
    wipe: Option<(u64, u64)>,
    /// Injected wipes fired so far.
    wipes: u64,
    /// Cooperative cancellation: the scoped [`fmm_faults::CancelToken`]
    /// captured at construction (if any), polled every
    /// [`fmm_faults::cancel::POLL_STRIDE`] accesses; `.1` is the access
    /// count of the next poll.
    cancel: Option<(fmm_faults::CancelToken, u64)>,
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
            phases: None,
            countdown: 0,
            due: 0,
            sink: None,
            chunk: Vec::new(),
            wipe: None,
            wipes: 0,
            cancel: fmm_faults::cancel::current().map(|t| (t, POLL_STRIDE)),
        };
        mem.rearm();
        if fmm_obs::detailed() {
            mem.record_phases(true);
        }
        mem
    }

    /// Accesses so far.
    fn now(&self) -> u64 {
        self.due - self.countdown
    }

    /// Point the countdown at the next access that needs [`Mem::event`].
    fn rearm(&mut self) {
        let now = self.now();
        let mut due = if self.sink.is_some() {
            now + 1
        } else {
            u64::MAX
        };
        if let Some((_, at)) = self.wipe {
            due = due.min(at);
        }
        if let Some((_, at)) = self.cancel {
            due = due.min(at);
        }
        self.due = due;
        self.countdown = due - now;
    }

    /// Count one access; `addr`/`write` describe it for the sink.
    #[inline]
    fn tick(&mut self, addr: u64, write: bool) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.event(addr, write);
        }
    }

    /// The access that brought the countdown to zero: record it, wipe the
    /// fast level, poll the token — whichever is due — then rearm.
    #[cold]
    #[inline(never)]
    fn event(&mut self, addr: u64, write: bool) {
        let now = self.due;
        if let Some(sink) = &mut self.sink {
            self.chunk.push(Access { addr, write });
            if self.chunk.len() == TRACE_CHUNK {
                sink.consume(&self.chunk);
                self.chunk.clear();
            }
        }
        if let Some((every, at)) = &mut self.wipe {
            if *at == now {
                *at += *every;
                self.wipes += 1;
                self.cache.flush();
            }
        }
        if let Some((token, at)) = &mut self.cancel {
            if *at == now {
                *at += POLL_STRIDE;
                token.bail_if_cancelled();
            }
        }
        self.rearm();
    }

    /// Stream every subsequent access into `sink` through a fixed-size
    /// chunk buffer. Replaces any previous sink (its buffered records are
    /// delivered first).
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.deliver_chunk();
        self.sink = Some(sink);
        self.chunk.reserve_exact(TRACE_CHUNK);
        self.rearm();
    }

    /// Deliver buffered records and detach the current sink.
    pub fn detach_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.deliver_chunk();
        let sink = self.sink.take();
        self.rearm();
        sink
    }

    /// Deliver any buffered chunk to the sink.
    fn deliver_chunk(&mut self) {
        if let Some(sink) = &mut self.sink {
            if !self.chunk.is_empty() {
                sink.consume(&self.chunk);
            }
        }
        self.chunk.clear();
    }

    /// Explicitly enable (or disable) per-phase attribution, independent of
    /// the global telemetry level — used by tests so they need no global
    /// state.
    pub(crate) fn record_phases(&mut self, on: bool) {
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
    pub(crate) fn set_phase(&mut self, phase: &'static str) {
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
        self.wipe = Some((every, self.now() + every));
        self.rearm();
    }

    /// Number of injected fast-memory wipes fired so far.
    pub fn fault_flushes(&self) -> u64 {
        self.wipes
    }

    #[inline]
    fn read(&mut self, m: &TMat, i: usize, j: usize) -> f64 {
        let addr = m.base + (i * m.cols + j) as u64;
        self.cache.read(addr);
        self.tick(addr, false);
        m.data[i * m.cols + j]
    }

    #[inline]
    fn write(&mut self, m: &mut TMat, i: usize, j: usize, v: f64) {
        let addr = m.base + (i * m.cols + j) as u64;
        self.cache.write(addr);
        self.tick(addr, true);
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
            if self.wipe.is_some() {
                fmm_obs::add("memsim.cache.fault_flushes", &[], self.wipes);
            }
        }
        (stats, deltas)
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
#[cfg(test)]
pub(crate) fn classical_naive(mem: &mut Mem, a: &TMat, b: &TMat) -> TMat {
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

/// The one seeded runner: draw the two `n × n` operands from `seed`,
/// place them in `mem` (inputs start in slow memory, no I/O charged) and
/// run `f` on them.
fn run_seeded<F>(mem: &mut Mem, n: usize, seed: u64, f: F) -> TMat
where
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<f64>::random_small(n, n, &mut rng);
    let b = Matrix::<f64>::random_small(n, n, &mut rng);
    let ta = mem.alloc_from(&a);
    let tb = mem.alloc_from(&b);
    f(mem, &ta, &tb)
}

/// One seeded run under `policy` with every access streamed into `sink`;
/// returns the run's statistics and the sink.
fn run_into<S, F>(
    sink: S,
    n: usize,
    m_words: usize,
    policy: Policy,
    seed: u64,
    f: F,
) -> (CacheStats, S)
where
    S: TraceSink + 'static,
    F: FnOnce(&mut Mem, &TMat, &TMat) -> TMat,
{
    use std::cell::RefCell;
    use std::rc::Rc;
    let shared = Rc::new(RefCell::new(sink));
    let mut mem = Mem::new(m_words, policy);
    mem.attach_sink(Box::new(shared.clone()));
    run_seeded(&mut mem, n, seed, f);
    mem.detach_sink();
    let stats = mem.finish();
    let sink = Rc::try_unwrap(shared)
        .ok()
        .expect("sole owner")
        .into_inner();
    (stats, sink)
}

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
    let _span = fmm_obs::Span::enter("memsim.measure");
    let mut mem = Mem::new(m_words, policy);
    let product = run_seeded(&mut mem, n, seed, f).to_matrix();
    (product, mem.finish())
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
    run_into(Vec::new(), n, m_words, policy, DEFAULT_WORKLOAD_SEED, f)
}

/// Measured I/O of one full run under the **offline-optimal**
/// (Belady/MIN) replacement policy, computed in two streaming passes that
/// never materialize the trace: pass 1 re-runs `f` feeding a
/// `NextUseBuilder` (4 bytes of next-use index per access), pass 2
/// re-runs `f` feeding the `crate::trace::OptSim` it froze into.
/// Instrumented executions are deterministic, so both passes see the
/// identical access stream (verified at runtime by the simulator).
///
/// This replaces [`measure_traced`] + [`crate::trace::opt_stats`] for
/// large `n`, where a materialized `Vec<Access>` dwarfs the simulated
/// memory.
pub fn measure_opt_seeded<F>(n: usize, m_words: usize, seed: u64, f: F) -> CacheStats
where
    F: Fn(&mut Mem, &TMat, &TMat) -> TMat,
{
    let _span = fmm_obs::Span::enter("memsim.measure_opt");
    // The online policy is irrelevant here: only the access stream feeds
    // the OPT computation.
    let (_, builder) = run_into(NextUseBuilder::new(), n, m_words, Policy::Lru, seed, &f);
    let (_, sim) = run_into(builder.into_sim(m_words), n, m_words, Policy::Lru, seed, &f);
    sim.finish()
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
    let _span = fmm_obs::Span::enter(match flush_every {
        Some(_) => "memsim.measure_faulty",
        None => "memsim.measure",
    });
    let mut mem = Mem::new(m_words, policy);
    if let Some(every) = flush_every {
        mem.inject_flush_every(every);
    }
    let product = run_seeded(&mut mem, n, seed, run).to_matrix();
    let flushes = mem.fault_flushes();
    Simulated {
        stats: mem.finish(),
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
            let streamed = measure_opt_seeded(16, 48, DEFAULT_WORKLOAD_SEED, |m, a, b| f(m, a, b));
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
        let faulty = simulate(
            None,
            16,
            192,
            8,
            Replacement::Lru,
            DEFAULT_WORKLOAD_SEED,
            Some(512),
        );
        let got = faulty.product.expect("online policy");
        assert!(got.approx_eq(&expect, 1e-9), "wipes must not corrupt data");
        assert!(
            faulty.flushes > 0,
            "the period must have elapsed at least once"
        );
        assert!(
            faulty.stats.io() > base.io(),
            "losing fast memory must cost recovery I/O: {} vs {}",
            faulty.stats.io(),
            base.io()
        );
    }

    #[test]
    fn injected_flushes_are_deterministic() {
        let run = || simulate(None, 16, 96, 4, Replacement::Lru, 42, Some(300));
        assert_eq!(run(), run());
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
