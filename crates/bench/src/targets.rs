//! The named benchmark target catalog and the warmup/timed-pass runner.
//!
//! Each target is a deterministic unit of hot-path work (fixed seeds, so
//! its `extras` counters are exact across runs while only wall time
//! varies). The runner times `passes` passes after `warmup` discarded
//! ones, pulls interpolated percentiles from an [`fmm_obs::Histogram`]
//! of per-pass nanoseconds, and assembles the [`BenchDoc`].

use crate::doc::{BenchDoc, TargetResult, TargetStats};
use crate::manifest;
use fmm_cdag::flow::{max_vertex_disjoint_paths, min_dominator_size};
use fmm_cdag::RecursiveCdag;
use fmm_core::{catalog, lemmas, Bilinear2x2};
use fmm_matrix::Matrix;
use fmm_memsim::seq::Replacement;
use fmm_memsim::{par, seq};
use fmm_obs::Histogram;
use fmm_pebbling::families;
use fmm_pebbling::game::{run_schedule, CostModel};
use fmm_pebbling::optimal::optimal_pebbling;
use fmm_pebbling::players::{belady_schedule, creation_order};
use fmm_serve::loadgen::{self, LoadgenConfig};
use fmm_serve::server::{ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How many passes a run makes. Profiles are ordered: a target gated at
/// `min_profile = Standard` is skipped by `quick` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Profile {
    Quick,
    Standard,
    Full,
}

impl Profile {
    pub fn parse(s: &str) -> Option<Profile> {
        Some(match s {
            "quick" => Profile::Quick,
            "standard" => Profile::Standard,
            "full" => Profile::Full,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Standard => "standard",
            Profile::Full => "full",
        }
    }

    /// Discarded warm-up passes before timing starts.
    pub fn warmup(self) -> u64 {
        match self {
            Profile::Quick => 1,
            Profile::Standard => 2,
            Profile::Full => 3,
        }
    }

    /// Timed passes.
    pub fn passes(self) -> u64 {
        match self {
            Profile::Quick => 5,
            Profile::Standard => 15,
            Profile::Full => 30,
        }
    }
}

/// One named benchmark target.
pub struct Target {
    /// Stable name, e.g. `memsim/lru/n32_m1024` — the `diff` join key.
    pub name: &'static str,
    /// Coarse group, the name's first segment (`memsim`, `kernel`, `lemma`, …).
    pub group: &'static str,
    /// Relative p50 tolerance recorded into the document for `diff`.
    pub tol: f64,
    /// Smallest profile that includes this target.
    pub min_profile: Profile,
    /// One pass of work; returns the deterministic extras.
    run: fn() -> BTreeMap<String, String>,
}

fn extras(pairs: &[(&str, String)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn strassen() -> Bilinear2x2 {
    catalog::strassen()
}

/// One sequential cache-simulator pass (the memsim hot path PR 3
/// rewrote; these targets are the regression net for that 380× win).
fn memsim_pass(policy: Replacement, n: usize, m: usize) -> BTreeMap<String, String> {
    let (tile, seed) = (seq::natural_tile(m), seq::DEFAULT_WORKLOAD_SEED);
    let stats = seq::simulate(Some(&strassen()), n, m, tile, policy, seed, None).stats;
    extras(&[
        ("io", stats.io().to_string()),
        ("loads", stats.loads.to_string()),
        ("stores", stats.stores.to_string()),
    ])
}

fn memsim_lru_n32() -> BTreeMap<String, String> {
    memsim_pass(Replacement::Lru, 32, 1024)
}
fn memsim_fifo_n32() -> BTreeMap<String, String> {
    memsim_pass(Replacement::Fifo, 32, 1024)
}
fn memsim_opt_n32() -> BTreeMap<String, String> {
    memsim_pass(Replacement::Opt, 32, 1024)
}
fn memsim_lru_n128() -> BTreeMap<String, String> {
    memsim_pass(Replacement::Lru, 128, 1024)
}

/// Predicted I/O for a kernel grid cell, from the sequential cache
/// simulator at M = 1024 words with the same seeded workload shape —
/// the number EXPERIMENTS §X16 correlates measured wall time against.
/// A full simulated multiply is far more expensive than the real one,
/// so each cell is computed once per process; timed passes then pay
/// only for the actual kernel work.
fn model_io(alg: fmm_kernel::Alg, n: usize, leaf: usize) -> u64 {
    #[allow(clippy::type_complexity)]
    static CACHE: OnceLock<Mutex<BTreeMap<(&'static str, usize, usize), u64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().expect("model_io cache");
    *map.entry((alg.as_str(), n, leaf)).or_insert_with(|| {
        let algo = (alg != fmm_kernel::Alg::Classical)
            .then(|| catalog::by_name(alg.as_str()).expect("a catalog algorithm"));
        let seed = seq::DEFAULT_WORKLOAD_SEED;
        seq::simulate(algo.as_ref(), n, 1024, leaf, Replacement::Lru, seed, None)
            .stats
            .io()
    })
}

/// The seeded `f64` operand of order `n` ([`crate::bench_matrix_f64`]),
/// generated once per process: kernel passes time the multiply, not the
/// generator.
fn operand(n: usize, seed: u64) -> Arc<Matrix<f64>> {
    #[allow(clippy::type_complexity)]
    static CACHE: OnceLock<Mutex<BTreeMap<(usize, u64), Arc<Matrix<f64>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().expect("operand cache");
    Arc::clone(
        map.entry((n, seed))
            .or_insert_with(|| Arc::new(crate::bench_matrix_f64(n, seed))),
    )
}

/// The largest order whose predicted I/O the kernel targets report:
/// simulating one order-1024 multiply word by word takes over a minute.
const MODEL_IO_MAX_N: usize = 512;

/// One real multiply through `fmm-kernel` (f64, seeded small-integer
/// entries, so the checksum is exact and machine-stable). Extras carry
/// the checksum, the classical-equivalent flop count, and up to order
/// [`MODEL_IO_MAX_N`] the simulator's predicted I/O for the same
/// (alg, n, cutoff) cell.
fn kernel_pass(
    alg: fmm_kernel::Alg,
    n: usize,
    cutoff: usize,
    threads: usize,
) -> BTreeMap<String, String> {
    let (a, b) = (operand(n, 1), operand(n, 2));
    let cfg = fmm_kernel::KernelCfg {
        alg,
        cutoff,
        threads,
    };
    let c = fmm_kernel::multiply(&cfg, &a, &b);
    let sum: f64 = c.as_slice().iter().sum();
    let leaf = match alg {
        fmm_kernel::Alg::Classical => seq::natural_tile(1024),
        _ => cutoff,
    };
    let mut out = extras(&[
        ("checksum", format!("{sum:.0}")),
        ("flops", fmm_kernel::classical_flops(n).to_string()),
    ]);
    if n <= MODEL_IO_MAX_N {
        out.insert("model_io".into(), model_io(alg, n, leaf).to_string());
    }
    out
}

fn kernel_classical_n128() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Classical, 128, 64, 1)
}
fn kernel_strassen_n128() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 128, 32, 1)
}
fn kernel_classical_n512() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Classical, 512, 64, 1)
}
fn kernel_strassen_n512() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 512, 64, 1)
}
fn kernel_strassen_mt_n512() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 512, 64, 2)
}
fn kernel_classical_n1024() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Classical, 1024, 64, 1)
}
fn kernel_strassen_n1024() -> BTreeMap<String, String> {
    kernel_pass(fmm_kernel::Alg::Strassen, 1024, 64, 1)
}

/// One `f64` operand pair of order `n` drawn as a kernel job draws it:
/// one generator seeded 1, A then B, through `Matrix::random_small`.
/// Its `checksum` pins every entry: Fletcher's second sum of the digits
/// `e + 10` (1 to 19) of A's entries then B's, which weights each digit
/// by its distance from the end.
fn kernel_operands(n: usize) -> BTreeMap<String, String> {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Matrix::<f64>::random_small(n, n, &mut rng);
    let b = Matrix::<f64>::random_small(n, n, &mut rng);
    let (mut sum, mut checksum) = (0u64, 0u64);
    for &e in a.as_slice().iter().chain(b.as_slice()) {
        sum += (e as i64 + 10) as u64;
        checksum += sum;
    }
    extras(&[("checksum", checksum.to_string())])
}

fn kernel_operands_n256() -> BTreeMap<String, String> {
    kernel_operands(256)
}
fn kernel_operands_n512() -> BTreeMap<String, String> {
    kernel_operands(512)
}

/// The naive reference at the acceptance grid cell — the denominator of
/// the "Strassen-with-cutoff is ≥5× naive" claim BENCH_kernel.json
/// records.
fn kernel_naive_n512() -> BTreeMap<String, String> {
    let (a, b) = (operand(512, 1), operand(512, 2));
    let c = fmm_matrix::multiply::multiply_naive(&a, &b);
    let sum: f64 = c.as_slice().iter().sum();
    extras(&[
        ("checksum", format!("{sum:.0}")),
        ("flops", fmm_kernel::classical_flops(512).to_string()),
    ])
}

/// Independent accumulator chains per roof pass, and steps per chain.
const ROOF_LANES: usize = 64;
const ROOF_STEPS: usize = 200_000;

/// The multiply-add roof loop: `acc = acc·x + y` over [`ROOF_LANES`]
/// independent chains, so the loop is bound by arithmetic, not latency
/// or memory. `fused` picks the form each micro-kernel computes: a
/// separate multiply and add (portable) or one fused multiply-add.
#[inline(always)]
fn roof_loop(fused: bool) -> [f64; ROOF_LANES] {
    let x = std::hint::black_box([1.000_000_1f64; ROOF_LANES]);
    let y = std::hint::black_box([1.0e-9f64; ROOF_LANES]);
    let mut acc = [1.0f64; ROOF_LANES];
    for _ in 0..ROOF_STEPS {
        for l in 0..ROOF_LANES {
            acc[l] = if fused {
                acc[l].mul_add(x[l], y[l])
            } else {
                acc[l] * x[l] + y[l]
            };
        }
    }
    std::hint::black_box(acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn roof_loop_avx2() -> [f64; ROOF_LANES] {
    roof_loop(true)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn roof_loop_avx512() -> [f64; ROOF_LANES] {
    roof_loop(true)
}

fn roof_extras() -> BTreeMap<String, String> {
    extras(&[("flops", (2 * ROOF_LANES * ROOF_STEPS).to_string())])
}

/// The roof of the portable micro-kernel: the loop compiled for the
/// build's baseline target (no AVX, no FMA).
fn kernel_roof_portable() -> BTreeMap<String, String> {
    roof_loop(false);
    roof_extras()
}

/// The roof of the AVX2+FMA micro-kernel: the same loop under
/// `#[target_feature(enable = "avx2,fma")]`, fused.
#[cfg(target_arch = "x86_64")]
fn kernel_roof_avx2() -> BTreeMap<String, String> {
    // SAFETY: `all_targets` lists this target only when the CPU has
    // AVX2 and FMA.
    unsafe { roof_loop_avx2() };
    roof_extras()
}

/// The roof of the AVX-512F micro-kernel: the same loop under
/// `#[target_feature(enable = "avx512f")]`, fused, in 8-lane registers.
#[cfg(target_arch = "x86_64")]
fn kernel_roof_avx512() -> BTreeMap<String, String> {
    // SAFETY: `all_targets` lists this target only when the CPU has
    // AVX-512F.
    unsafe { roof_loop_avx512() };
    roof_extras()
}

/// The roof targets, one per `f64` micro-kernel, with the kernel's name
/// in [`fmm_kernel::F64_KERNELS`].
const ROOFS: [(&str, &str); 3] = [
    ("kernel/roof/fma_portable", "portable"),
    ("kernel/roof/fma_avx2", "avx2+fma"),
    ("kernel/roof/fma_avx512", "avx512f"),
];

/// The micro-kernel ISA a roof target measures (`None` for every other
/// target, which any CPU runs).
pub fn roof_isa(target: &str) -> Option<&'static str> {
    ROOFS
        .iter()
        .find(|(name, _)| *name == target)
        .map(|&(_, isa)| isa)
}

fn roof(name: &'static str, run: fn() -> BTreeMap<String, String>) -> Target {
    Target {
        name,
        group: "kernel",
        tol: 0.35,
        min_profile: Profile::Standard,
        run,
    }
}

/// The first few smoke-spec sweep cells, end to end (cell throughput).
fn sweep_smoke_cells() -> BTreeMap<String, String> {
    let spec = fmm_sweep::SweepSpec::builtin("smoke").expect("smoke spec exists");
    let cells = spec.expand();
    let take = cells.len().min(4);
    let mut io_total = 0u64;
    for cell in &cells[..take] {
        let m = fmm_sweep::run_cell(cell, fmm_sweep::cell_seed(42, cell))
            .expect("smoke cells are well-formed");
        io_total += m.io;
    }
    extras(&[
        ("cells", take.to_string()),
        ("io_total", io_total.to_string()),
    ])
}

fn par_cannon() -> BTreeMap<String, String> {
    let a = crate::bench_matrix(16, 1);
    let b = crate::bench_matrix(16, 2);
    let (_, net) = par::cannon(&a, &b, 4);
    extras(&[("words", net.total_words.to_string())])
}

fn par_3d() -> BTreeMap<String, String> {
    let a = crate::bench_matrix(16, 1);
    let b = crate::bench_matrix(16, 2);
    let (_, net) = par::replicated_3d(&a, &b, 2);
    extras(&[("words", net.total_words.to_string())])
}

fn par_caps() -> BTreeMap<String, String> {
    let a = crate::bench_matrix(16, 1);
    let b = crate::bench_matrix(16, 2);
    let (_, net) = par::caps_strassen(&strassen(), &a, &b, 1);
    extras(&[("words", net.total_words.to_string())])
}

/// End-to-end serve latency: an in-process server, one closed-loop
/// connection, ten clean (no-chaos) requests, graceful shutdown. The
/// widest tolerance in the catalog — it includes thread spawn and TCP.
fn serve_loadgen_e2e() -> BTreeMap<String, String> {
    let server = ServerHandle::start(ServerConfig {
        queue_depth: 16,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start in-process server");
    let cfg = LoadgenConfig {
        addr: server.addr().to_string(),
        conns: 1,
        requests: 10,
        seed: 7,
        poison_pct: 0,
        oversized_pct: 0,
        tiny_deadline_pct: 0,
        expensive_pct: 0,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let summary = loadgen::run(&cfg).expect("loadgen against own server");
    let queue_depth_hwm = server.queue_depth_hwm();
    let stats = server.wait();
    assert!(summary.ok() && stats.balanced(), "e2e pass lost jobs");
    extras(&[
        ("completed", summary.completed.to_string()),
        // One closed-loop connection: at most one job queued at a time,
        // so both load-shedding extras are deterministically exact.
        ("queue_depth_hwm", queue_depth_hwm.to_string()),
        ("shed", stats.shed.to_string()),
    ])
}

/// End-to-end fleet latency: a router over two in-process shards, one
/// closed-loop connection, ten clean requests, graceful fleet drain.
/// Times the router hop on top of `serve/loadgen_e2e`'s stack.
fn fleet_loadgen_e2e() -> BTreeMap<String, String> {
    let shard = |id: u64| {
        ServerHandle::start(ServerConfig {
            queue_depth: 16,
            workers: 2,
            shard_id: Some(id),
            ..ServerConfig::default()
        })
        .expect("start in-process shard")
    };
    let (shard_a, shard_b) = (shard(0), shard(1));
    let router = fmm_router::RouterHandle::start(
        fmm_router::RouterConfig {
            shard_addrs: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
            seed: 7,
            ..fmm_router::RouterConfig::default()
        },
        vec![None, None],
    )
    .expect("start in-process router");
    let cfg = LoadgenConfig {
        addr: router.addr().to_string(),
        conns: 1,
        requests: 10,
        seed: 7,
        poison_pct: 0,
        oversized_pct: 0,
        tiny_deadline_pct: 0,
        expensive_pct: 0,
        fleet: true,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let summary = loadgen::run(&cfg).expect("loadgen against own fleet");
    let snap = router.wait();
    let (a, b) = (shard_a.wait(), shard_b.wait());
    assert!(
        summary.ok() && snap.ledger.balanced() && a.balanced() && b.balanced(),
        "fleet e2e pass lost jobs"
    );
    extras(&[
        ("completed", summary.completed.to_string()),
        // No shard dies in this pass, so re-dispatch is exactly 0 and
        // the ring split of 10 fixed requests across 2 shards is exact.
        ("redispatched", snap.redispatched.to_string()),
        ("shard0_accepted", a.accepted.to_string()),
        ("shard1_accepted", b.accepted.to_string()),
    ])
}

/// A quick-profile target whose group is its name's first segment.
fn quick(name: &'static str, run: fn() -> BTreeMap<String, String>) -> Target {
    Target {
        name,
        group: name.split('/').next().unwrap_or(name),
        tol: 0.35,
        min_profile: Profile::Quick,
        run,
    }
}

/// Building the Strassen CDAG H^16 (Θ(n^{log₂7}) vertices).
fn cdag_build_h16() -> BTreeMap<String, String> {
    let h = RecursiveCdag::build(&strassen().to_base(), 16);
    extras(&[
        ("vertices", h.graph.len().to_string()),
        ("edges", h.graph.edge_count().to_string()),
    ])
}

/// The exhaustive Lemma 3.1 matching check on the A-encoder of every
/// fast catalog algorithm.
fn lemma_3_1_all_fast() -> BTreeMap<String, String> {
    let algs = catalog::all_fast();
    let holds = algs
        .iter()
        .filter(|alg| lemmas::check_lemma_3_1(&alg.to_base().encoder_bipartite_a(), "bench").holds)
        .count();
    extras(&[
        ("algorithms", algs.len().to_string()),
        ("holds", holds.to_string()),
    ])
}

/// The min-dominator max-flow on H^4, over the outputs of one r = 2
/// sub-CDAG.
fn lemma_dominator_h4() -> BTreeMap<String, String> {
    let h = RecursiveCdag::build(&strassen().to_base(), 4);
    let z = h.sub_output_vertices(1);
    extras(&[("dominator", min_dominator_size(&h.graph, &z).to_string())])
}

/// Vertex-disjoint input-to-output paths on H^8 (the Lemma 3.11 engine).
fn lemma_disjoint_paths_h8() -> BTreeMap<String, String> {
    let h = RecursiveCdag::build(&strassen().to_base(), 8);
    let paths = max_vertex_disjoint_paths(&h.graph, &h.graph.inputs(), &h.outputs, &[]);
    extras(&[("paths", paths.to_string())])
}

/// A Belady no-recompute schedule of H^8 at M = 16, generated and played.
fn pebbling_belady_h8() -> BTreeMap<String, String> {
    let h = RecursiveCdag::build(&strassen().to_base(), 8);
    let moves = belady_schedule(&h.graph, &creation_order(&h.graph), 16);
    let io = run_schedule(&h.graph, &moves, 16, false)
        .expect("Belady schedules are legal")
        .io();
    extras(&[("io", io.to_string())])
}

/// The exact optimal pebbling search, recomputation allowed, on the 3×3
/// DP grid at M = 4.
fn pebbling_optimal_grid3x3() -> BTreeMap<String, String> {
    let g = families::dp_grid(3, 3);
    let cost = optimal_pebbling(&g, 4, true, CostModel::SYMMETRIC, 3_000_000)
        .expect("the 3x3 grid solves within budget")
        .cost;
    extras(&[("cost", cost.to_string())])
}

/// Every named target this CPU can run, in render order
/// (`kernel/roof/fma_avx2` needs AVX2 and FMA, `kernel/roof/fma_avx512`
/// needs AVX-512F).
pub fn all_targets() -> Vec<Target> {
    let mut targets = vec![
        Target {
            name: "memsim/lru/n32_m1024",
            group: "memsim",
            tol: 0.35,
            min_profile: Profile::Quick,
            run: memsim_lru_n32,
        },
        Target {
            name: "memsim/fifo/n32_m1024",
            group: "memsim",
            tol: 0.35,
            min_profile: Profile::Quick,
            run: memsim_fifo_n32,
        },
        Target {
            name: "memsim/opt/n32_m1024",
            group: "memsim",
            tol: 0.35,
            min_profile: Profile::Quick,
            run: memsim_opt_n32,
        },
        Target {
            name: "memsim/lru/n128_m1024",
            group: "memsim",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: memsim_lru_n128,
        },
        Target {
            name: "kernel/classical/n128_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Quick,
            run: kernel_classical_n128,
        },
        Target {
            name: "kernel/strassen/n128_c32_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Quick,
            run: kernel_strassen_n128,
        },
        Target {
            name: "kernel/naive/n512_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_naive_n512,
        },
        Target {
            name: "kernel/classical/n512_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_classical_n512,
        },
        Target {
            name: "kernel/strassen/n512_c64_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_strassen_n512,
        },
        Target {
            name: "kernel/strassen_mt/n512_c64_t2_f64",
            group: "kernel",
            tol: 0.50,
            min_profile: Profile::Standard,
            run: kernel_strassen_mt_n512,
        },
        Target {
            name: "kernel/classical/n1024_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_classical_n1024,
        },
        Target {
            name: "kernel/strassen/n1024_c64_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_strassen_n1024,
        },
        Target {
            name: "kernel/operands/n256_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_operands_n256,
        },
        Target {
            name: "kernel/operands/n512_f64",
            group: "kernel",
            tol: 0.35,
            min_profile: Profile::Standard,
            run: kernel_operands_n512,
        },
        Target {
            name: "sweep/smoke_cells",
            group: "sweep",
            tol: 0.40,
            min_profile: Profile::Quick,
            run: sweep_smoke_cells,
        },
        Target {
            name: "par/cannon/n16_p4",
            group: "par",
            tol: 0.40,
            min_profile: Profile::Quick,
            run: par_cannon,
        },
        Target {
            name: "par/3d/n16_p2",
            group: "par",
            tol: 0.40,
            min_profile: Profile::Quick,
            run: par_3d,
        },
        Target {
            name: "par/caps/n16_l1",
            group: "par",
            tol: 0.40,
            min_profile: Profile::Quick,
            run: par_caps,
        },
        Target {
            name: "serve/loadgen_e2e",
            group: "serve",
            tol: 0.60,
            min_profile: Profile::Quick,
            run: serve_loadgen_e2e,
        },
        Target {
            name: "fleet/loadgen_e2e",
            group: "fleet",
            tol: 0.60,
            min_profile: Profile::Quick,
            run: fleet_loadgen_e2e,
        },
        quick("cdag/build/strassen_h16", cdag_build_h16),
        quick("lemma/3_1/all_fast", lemma_3_1_all_fast),
        quick("lemma/dominator/strassen_h4", lemma_dominator_h4),
        quick("lemma/disjoint_paths/strassen_h8", lemma_disjoint_paths_h8),
        quick("pebbling/belady/strassen_h8_m16", pebbling_belady_h8),
        quick("pebbling/optimal/grid3x3_m4", pebbling_optimal_grid3x3),
        roof(ROOFS[0].0, kernel_roof_portable),
    ];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            targets.push(roof(ROOFS[1].0, kernel_roof_avx2));
        }
        if is_x86_feature_detected!("avx512f") {
            targets.push(roof(ROOFS[2].0, kernel_roof_avx512));
        }
    }
    targets
}

/// How a `bench run` is shaped.
pub struct RunOptions {
    pub profile: Profile,
    /// Only run targets whose name contains this substring.
    pub filter: Option<String>,
    /// Sleep ~25 ms inside each timed pass of matching targets — an
    /// honest injected slowdown for demonstrating `bench diff` failures.
    pub inject_slow: Option<String>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            profile: Profile::Quick,
            filter: None,
            inject_slow: None,
        }
    }
}

/// Run the catalog under `opts` and assemble the document.
pub fn run_targets(opts: &RunOptions) -> BenchDoc {
    let warmup = opts.profile.warmup();
    let passes = opts.profile.passes();
    let mut targets = Vec::new();
    for t in all_targets() {
        if t.min_profile > opts.profile {
            continue;
        }
        if let Some(f) = &opts.filter {
            if !t.name.contains(f.as_str()) {
                continue;
            }
        }
        let slow = opts
            .inject_slow
            .as_ref()
            .is_some_and(|s| t.name.contains(s.as_str()));
        for _ in 0..warmup {
            (t.run)();
        }
        let mut hist = Histogram::default();
        let mut extras = BTreeMap::new();
        for _ in 0..passes {
            let start = Instant::now();
            extras = (t.run)();
            if slow {
                std::thread::sleep(Duration::from_millis(25));
            }
            hist.observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        targets.push(TargetResult {
            name: t.name.to_string(),
            group: t.group.to_string(),
            tol: t.tol,
            stats: TargetStats {
                warmup,
                passes,
                p50_ns: hist.p50(),
                p95_ns: hist.p95(),
                p99_ns: hist.p99(),
                min_ns: hist.min,
                max_ns: hist.max,
            },
            extras,
        });
    }
    BenchDoc {
        profile: opts.profile.as_str().to_string(),
        manifest: manifest::collect(),
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_order_and_parse() {
        assert!(Profile::Quick < Profile::Standard && Profile::Standard < Profile::Full);
        assert_eq!(Profile::parse("quick"), Some(Profile::Quick));
        assert_eq!(Profile::parse("nope"), None);
        assert!(Profile::Full.passes() > Profile::Quick.passes());
    }

    #[test]
    fn catalog_names_are_unique_and_grouped() {
        let targets = all_targets();
        let mut names: Vec<&str> = targets.iter().map(|t| t.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), targets.len(), "duplicate target names");
        for t in &targets {
            assert!(
                t.name.starts_with(t.group),
                "{} not under {}",
                t.name,
                t.group
            );
            assert!(t.tol > 0.0 && t.tol < 1.0);
        }
    }

    #[test]
    fn filtered_quick_run_produces_a_parsable_document() {
        let doc = run_targets(&RunOptions {
            filter: Some("par/cannon".into()),
            ..RunOptions::default()
        });
        assert_eq!(doc.targets.len(), 1);
        let t = &doc.targets[0];
        assert_eq!(t.stats.passes, 5);
        assert!(t.stats.min_ns > 0 && t.stats.min_ns <= t.stats.p50_ns);
        assert!(t.stats.p50_ns <= t.stats.p99_ns && t.stats.p99_ns <= t.stats.max_ns);
        assert!(t.extras["words"].parse::<u64>().unwrap() > 0);
        let round = crate::doc::BenchDoc::parse(&doc.to_jsonl()).unwrap();
        assert_eq!(round, doc);
    }

    #[test]
    fn kernel_quick_targets_have_exact_repeatable_extras() {
        let run = || {
            run_targets(&RunOptions {
                filter: Some("kernel/".into()),
                ..RunOptions::default()
            })
        };
        let (first, second) = (run(), run());
        assert_eq!(first.targets.len(), 2, "two kernel targets in quick");
        for (a, b) in first.targets.iter().zip(&second.targets) {
            assert_eq!(a.extras, b.extras, "{} extras drifted", a.name);
            assert!(a.extras["model_io"].parse::<u64>().unwrap() > 0);
            assert!(a.extras["checksum"].parse::<i64>().is_ok());
        }
        // At n=128 with M=1024 the simulator charges Strassen *more*
        // I/O than blocked classical: the recursion's temporaries all
        // spill, and the asymptotic n^{log2 7} advantage hasn't kicked
        // in yet at this order. §X16 reports the same inversion.
        let io = |doc: &crate::doc::BenchDoc, name: &str| -> u64 {
            doc.targets.iter().find(|t| t.name == name).unwrap().extras["model_io"]
                .parse()
                .unwrap()
        };
        assert!(
            io(&first, "kernel/strassen/n128_c32_f64") > io(&first, "kernel/classical/n128_f64"),
            "strassen's temporaries should out-spill blocked classical at n=128"
        );
    }

    #[test]
    fn inject_slow_inflates_only_matching_targets() {
        let base = run_targets(&RunOptions {
            filter: Some("par/3d".into()),
            ..RunOptions::default()
        });
        let slowed = run_targets(&RunOptions {
            filter: Some("par/3d".into()),
            inject_slow: Some("par/3d".into()),
            ..RunOptions::default()
        });
        assert!(
            slowed.targets[0].stats.p50_ns >= base.targets[0].stats.p50_ns + 20_000_000,
            "injected pass must be ≥20ms slower: {} vs {}",
            slowed.targets[0].stats.p50_ns,
            base.targets[0].stats.p50_ns
        );
        // Determinism of extras: same seeds, same counters.
        assert_eq!(slowed.targets[0].extras, base.targets[0].extras);
    }
}
