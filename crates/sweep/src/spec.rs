//! Declarative sweep grids: axes, expansion into cells, validity
//! filtering, built-in named specs, and the canonical spec hash.
//!
//! A [`SweepSpec`] is a cross product over seven axes (algorithm × n × M ×
//! P × cache policy × run mode × repetition). Expansion walks the axes in
//! a fixed order and drops combinations that no simulator accepts (e.g. a
//! CAPS cell whose processor count is not a power of 7) — the surviving
//! cells get dense, stable ids, so a checkpoint written today can be
//! resumed by any future build of the same spec.

use fmm_core::bounds;

/// Which algorithm family a cell exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgKind {
    /// Classical blocked multiplication (ω = 3).
    Classical,
    /// Strassen's 18-addition algorithm.
    Strassen,
    /// Winograd's 15-addition variant.
    Winograd,
    /// The Karstadt–Schwartz alternative-basis 12-addition core.
    Ks,
}

impl AlgKind {
    /// Canonical string form (used in JSONL and CLI).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            AlgKind::Classical => "classical",
            AlgKind::Strassen => "strassen",
            AlgKind::Winograd => "winograd",
            AlgKind::Ks => "ks",
        }
    }

    /// Parse the canonical string form.
    pub(crate) fn parse(s: &str) -> Option<AlgKind> {
        match s {
            "classical" => Some(AlgKind::Classical),
            "strassen" => Some(AlgKind::Strassen),
            "winograd" => Some(AlgKind::Winograd),
            "ks" => Some(AlgKind::Ks),
            _ => None,
        }
    }

    /// The Table I exponent this family's I/O bound uses.
    pub fn omega(self) -> f64 {
        match self {
            AlgKind::Classical => bounds::OMEGA_CLASSICAL,
            _ => bounds::OMEGA_FAST,
        }
    }

    /// True for the 2×2-base fast family (Strassen/Winograd/KS).
    pub(crate) fn is_fast(self) -> bool {
        self != AlgKind::Classical
    }

    /// Leading flop coefficient (`flops ≈ coeff · n^ω`): 2, 7, 6, 5.
    pub(crate) fn flop_coefficient(self) -> f64 {
        match self {
            AlgKind::Classical => 2.0,
            AlgKind::Strassen => 7.0,
            AlgKind::Winograd => 6.0,
            AlgKind::Ks => 5.0,
        }
    }
}

/// Cache replacement policy axis: memsim's own [`Replacement`], so a cell
/// runs through [`fmm_memsim::seq::simulate`] as it is.
///
/// [`Replacement`]: fmm_memsim::seq::Replacement
pub use fmm_memsim::seq::Replacement as PolicyKind;

/// How a cell is executed — the recompute-mode axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RunMode {
    /// Trace-driven cache simulation of the real execution (no
    /// recomputation: every value is computed once).
    Cache,
    /// Pebbling the recursive CDAG with the store-reload demand player.
    PebbleSr,
    /// Pebbling the recursive CDAG with the recomputing demand player.
    PebbleRc,
}

impl RunMode {
    /// Canonical string form.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RunMode::Cache => "cache",
            RunMode::PebbleSr => "pebble-sr",
            RunMode::PebbleRc => "pebble-rc",
        }
    }

    /// Parse the canonical string form.
    pub(crate) fn parse(s: &str) -> Option<RunMode> {
        match s {
            "cache" => Some(RunMode::Cache),
            "pebble-sr" => Some(RunMode::PebbleSr),
            "pebble-rc" => Some(RunMode::PebbleRc),
            _ => None,
        }
    }
}

/// One point of the expanded grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Dense index within the expanded spec (stable across runs).
    pub id: usize,
    /// Algorithm family.
    pub alg: AlgKind,
    /// Matrix order.
    pub n: usize,
    /// Fast-memory capacity in words.
    pub m: usize,
    /// Processor count (1 = sequential).
    pub p: usize,
    /// Cache replacement policy (sequential cache cells only).
    pub policy: PolicyKind,
    /// Execution mode.
    pub mode: RunMode,
    /// Repetition index (varies the workload seed).
    pub rep: usize,
}

impl Cell {
    /// Identity key independent of `id` — used to match cells across two
    /// result files in `diff`.
    pub fn key(&self) -> String {
        format!(
            "{}/n{}/m{}/p{}/{}/{}/r{}",
            self.alg.as_str(),
            self.n,
            self.m,
            self.p,
            self.policy.as_str(),
            self.mode.as_str(),
            self.rep
        )
    }
}

/// A declarative sweep: per-axis lists, expanded to the cross product with
/// invalid combinations filtered out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Spec name (`table1`, `x1`, … or a user label).
    pub name: String,
    /// Algorithm axis.
    pub algs: Vec<AlgKind>,
    /// Matrix-order axis.
    pub ns: Vec<usize>,
    /// Fast-memory axis (words).
    pub ms: Vec<usize>,
    /// Processor axis (1 = sequential; parallel cells are pinned to the
    /// first entry of `ms`, since the simulated traffic is M-independent).
    pub ps: Vec<usize>,
    /// Replacement-policy axis.
    pub policies: Vec<PolicyKind>,
    /// Run-mode axis.
    pub modes: Vec<RunMode>,
    /// Repetitions per combination.
    pub reps: usize,
}

impl SweepSpec {
    /// Canonical one-line description — the input of [`SweepSpec::hash`].
    pub(crate) fn canonical(&self) -> String {
        let join = |it: Vec<String>| it.join(",");
        format!(
            "{}|algs={}|ns={}|ms={}|ps={}|policies={}|modes={}|reps={}",
            self.name,
            join(self.algs.iter().map(|a| a.as_str().to_string()).collect()),
            join(self.ns.iter().map(|v| v.to_string()).collect()),
            join(self.ms.iter().map(|v| v.to_string()).collect()),
            join(self.ps.iter().map(|v| v.to_string()).collect()),
            join(
                self.policies
                    .iter()
                    .map(|p| p.as_str().to_string())
                    .collect()
            ),
            join(self.modes.iter().map(|m| m.as_str().to_string()).collect()),
            self.reps
        )
    }

    /// FNV-1a hash of the canonical description, as 16 hex digits. Two
    /// runs may only be resumed/diffed when their hashes agree.
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical().as_bytes()))
    }

    /// Expand the cross product into valid cells with dense stable ids.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &alg in &self.algs {
            for &n in &self.ns {
                for &m in &self.ms {
                    for &p in &self.ps {
                        for &policy in &self.policies {
                            for &mode in &self.modes {
                                for rep in 0..self.reps.max(1) {
                                    let cell = Cell {
                                        id: cells.len(),
                                        alg,
                                        n,
                                        m,
                                        p,
                                        policy,
                                        mode,
                                        rep,
                                    };
                                    if self.valid(&cell) {
                                        cells.push(cell);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Whether a candidate combination maps onto a simulator this
    /// workspace has. Filtered combinations are silently dropped during
    /// expansion (the cross product over heterogeneous axes necessarily
    /// contains meaningless points).
    fn valid(&self, c: &Cell) -> bool {
        if c.n == 0 || c.m < 3 {
            return false;
        }
        // The recursive executors need power-of-two orders.
        if c.alg.is_fast() && !c.n.is_power_of_two() {
            return false;
        }
        match c.mode {
            RunMode::Cache => {
                if c.p == 1 {
                    return true;
                }
                // Parallel cells: one canonical policy, M pinned to the
                // first axis entry (traffic is M-independent), and a
                // processor count the schedule's topology accepts.
                if c.policy != self.policies[0] || Some(&c.m) != self.ms.first() {
                    return false;
                }
                if c.alg.is_fast() {
                    // CAPS: P = 7^k, recursion depth k ≤ log₂ n.
                    let levels = log_exact(c.p, 7);
                    matches!(levels, Some(l) if l >= 1 && l <= c.n.trailing_zeros() as usize)
                } else {
                    // Cannon: P = s², s | n.
                    let side = (c.p as f64).sqrt().round() as usize;
                    side >= 2 && side * side == c.p && c.n.is_multiple_of(side)
                }
            }
            RunMode::PebbleSr | RunMode::PebbleRc => {
                // Pebbling walks the explicit CDAG H^{n×n}: only the fast
                // family has one, and only small orders are tractable.
                // A single canonical policy entry avoids duplicate cells.
                c.alg.is_fast() && c.p == 1 && c.policy == self.policies[0] && c.n <= 8 && c.m >= 4
            }
        }
    }

    /// Look up a built-in named spec.
    pub fn builtin(name: &str) -> Option<SweepSpec> {
        let spec = match name {
            // Table I grid: all four families, sequential I/O across
            // n × M (exponent fits need ≥ 3 n per M), plus the parallel
            // rows (Cannon at P = 16, CAPS at P = 49).
            "table1" => SweepSpec {
                name: "table1".into(),
                algs: vec![
                    AlgKind::Classical,
                    AlgKind::Strassen,
                    AlgKind::Winograd,
                    AlgKind::Ks,
                ],
                ns: vec![32, 64, 128, 256],
                ms: vec![96, 192, 768],
                ps: vec![1, 16, 49],
                policies: vec![PolicyKind::Lru],
                modes: vec![RunMode::Cache],
                reps: 1,
            },
            // X1/X5 replacement-policy ablation: LRU vs FIFO vs OPT.
            "x1" => SweepSpec {
                name: "x1".into(),
                algs: vec![AlgKind::Classical, AlgKind::Strassen],
                ns: vec![32],
                ms: vec![96, 384],
                ps: vec![1],
                policies: vec![PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Opt],
                modes: vec![RunMode::Cache],
                reps: 1,
            },
            // X2 recomputation study: store-reload vs recompute pebbling
            // on the real Strassen CDAGs.
            "x2" => SweepSpec {
                name: "x2".into(),
                algs: vec![AlgKind::Strassen],
                ns: vec![2, 4],
                // The recomputing demand player needs roughly twice the
                // store-reload capacity before a schedule exists at all;
                // 16 is the smallest M where every (n, mode) cell runs.
                ms: vec![16, 32],
                ps: vec![1],
                policies: vec![PolicyKind::Lru],
                modes: vec![RunMode::PebbleSr, RunMode::PebbleRc],
                reps: 1,
            },
            // X3 parallel strong scaling: Cannon vs CAPS across P.
            "x3" => SweepSpec {
                name: "x3".into(),
                algs: vec![AlgKind::Classical, AlgKind::Strassen],
                ns: vec![64],
                ms: vec![96],
                ps: vec![4, 16, 64, 7, 49, 343],
                policies: vec![PolicyKind::Lru],
                modes: vec![RunMode::Cache],
                reps: 1,
            },
            // CI-sized grid: finishes in seconds, still fits exponents.
            // M = 12 keeps even n = 16 deep in the memory-bound regime
            // (n ≥ 4√M), so the exponent fit has two usable points.
            "smoke" => SweepSpec {
                name: "smoke".into(),
                algs: vec![AlgKind::Classical, AlgKind::Strassen],
                ns: vec![8, 16, 32],
                ms: vec![12],
                ps: vec![1],
                policies: vec![PolicyKind::Lru],
                modes: vec![RunMode::Cache],
                reps: 1,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Names of every built-in spec, for `fastmm sweep specs`.
    pub fn builtin_names() -> &'static [&'static str] {
        &["table1", "x1", "x2", "x3", "smoke"]
    }
}

/// `log_base(v)` when `v` is an exact power of `base`.
fn log_exact(v: usize, base: usize) -> Option<usize> {
    let mut x = v;
    let mut k = 0;
    while x > 1 {
        if !x.is_multiple_of(base) {
            return None;
        }
        x /= base;
        k += 1;
    }
    (v >= base).then_some(k)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_expand_nonempty() {
        for name in SweepSpec::builtin_names() {
            let spec = SweepSpec::builtin(name).expect("builtin exists");
            let cells = spec.expand();
            assert!(!cells.is_empty(), "{name} expands to zero cells");
            // Dense, stable ids.
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(c.id, i);
            }
        }
        assert!(SweepSpec::builtin("nope").is_none());
    }

    #[test]
    fn expansion_is_deterministic_and_hash_is_stable() {
        let a = SweepSpec::builtin("table1").unwrap();
        let b = SweepSpec::builtin("table1").unwrap();
        assert_eq!(a.expand(), b.expand());
        assert_eq!(a.hash(), b.hash());
        let mut c = SweepSpec::builtin("table1").unwrap();
        c.ns.push(256);
        assert_ne!(a.hash(), c.hash(), "grid change must change the hash");
    }

    #[test]
    fn parallel_cells_are_filtered_to_valid_topologies() {
        let spec = SweepSpec::builtin("x3").unwrap();
        for c in spec.expand() {
            if c.p == 1 {
                continue;
            }
            if c.alg.is_fast() {
                assert!([7, 49, 343].contains(&c.p), "{c:?}");
            } else {
                assert!([4, 16, 64].contains(&c.p), "{c:?}");
            }
        }
    }

    #[test]
    fn pebble_cells_only_for_fast_small_orders() {
        let spec = SweepSpec::builtin("x2").unwrap();
        let cells = spec.expand();
        assert!(!cells.is_empty());
        for c in &cells {
            assert!(c.alg.is_fast());
            assert!(c.n <= 8);
            assert_ne!(c.mode, RunMode::Cache);
        }
    }

    #[test]
    fn string_forms_round_trip() {
        for alg in [
            AlgKind::Classical,
            AlgKind::Strassen,
            AlgKind::Winograd,
            AlgKind::Ks,
        ] {
            assert_eq!(AlgKind::parse(alg.as_str()), Some(alg));
        }
        for p in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Opt] {
            assert_eq!(PolicyKind::parse(p.as_str()), Some(p));
        }
        for m in [RunMode::Cache, RunMode::PebbleSr, RunMode::PebbleRc] {
            assert_eq!(RunMode::parse(m.as_str()), Some(m));
        }
    }

    #[test]
    fn log_exact_works() {
        assert_eq!(log_exact(7, 7), Some(1));
        assert_eq!(log_exact(343, 7), Some(3));
        assert_eq!(log_exact(8, 7), None);
        assert_eq!(log_exact(1, 7), None);
    }
}
