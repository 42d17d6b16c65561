//! `fastmm` — command-line driver for the workspace.
//!
//! ```text
//! fastmm multiply --alg winograd --n 256 [--cutoff 16] [--seed 42]
//! fastmm kernel   --alg strassen --n 512 [--cutoff 64] [--threads 1] [--dtype f64] [--check]
//! fastmm bounds   --n 4096 --m 1024 [--p 49]
//! fastmm verify   [--n 4]
//! fastmm io       --alg strassen --n 32 --m 96 [--policy lru|fifo|opt] [--seed 61453]
//! fastmm io       --alg strassen --n 32 --m 96 --faults "flush-every=4096"
//! fastmm faults   --schedule cannon --n 16 --p 4 --spec "seed=7,drop=0.01" --recovery checkpoint:2
//! fastmm pebble   --family tree --m 3 [--optimal]
//! fastmm dot      --alg strassen --n 2 --out h2.dot
//! fastmm report   metrics.jsonl
//! fastmm report   --traces metrics.jsonl [--top 5]
//! fastmm bench    run [--profile quick|standard|full] [--out BENCH_bench.json] [--filter memsim]
//! fastmm bench    diff --base BENCH_bench.json --cand new.json [--tol 0.1] [--warn-timing]
//! fastmm bench    list
//! fastmm sweep    run --spec table1 [--out sweep_table1.jsonl] [--jobs 4] [--cell-timeout ms]
//! fastmm sweep    resume --spec table1 --out sweep_table1.jsonl
//! fastmm sweep    report --file sweep_table1.jsonl [--bench BENCH_sweep.json]
//! fastmm sweep    diff --base a.jsonl --cand b.jsonl [--tol 0.01]
//! fastmm serve    [--addr 127.0.0.1:0] [--queue-depth 32] [--workers 2] [--shard-id <i>]
//! fastmm fleet    [--shards 3] [--addr 127.0.0.1:0] [--seed 0] [--attach a:p,b:p]
//! fastmm fleet    --chaos-link "seed=7,stall-after=40@shard1" [--hedge-ms 50] [--retry-budget-pct 10]
//! fastmm loadgen  --addr HOST:PORT [--conns 4] [--requests 250] [--seed 1] [--burst 64] [--shutdown]
//! fastmm loadgen  --addr HOST:PORT --fleet [--kill-shard-after 40] [--stall-shard-after 40] [--shutdown]
//! ```
//!
//! Every command accepts a global `--metrics <path>` flag that enables
//! full telemetry ([`fmm_obs`]) and writes the collected metrics as JSONL
//! to `path` on exit; `fastmm report` renders such a file as a table.
//!
//! Workload seeds: commands that generate random inputs accept `--seed`.
//! `multiply` defaults to 42; `io` and `sweep` default to the library's
//! [`seq::DEFAULT_WORKLOAD_SEED`] (61453 = 0xF00D) so CLI runs reproduce
//! library defaults exactly. Simulated I/O is data-oblivious — the seed
//! varies the workload, not the traffic — but a fixed default keeps every
//! artifact byte-reproducible.

use fastmm::cdag::dot::to_dot;
use fastmm::cdag::RecursiveCdag;
use fastmm::cli::{die, get_u64, get_usize, parse_flags};
use fastmm::core::altbasis::{karstadt_schwartz, multiply_alt_counted};
use fastmm::core::exec::multiply_fast_counted;
use fastmm::core::{bounds, catalog, lemmas, Bilinear2x2};
use fastmm::matrix::multiply::multiply_naive;
use fastmm::matrix::Matrix;
use fastmm::memsim::cache::Policy;
use fastmm::memsim::seq;
use fastmm::pebbling::families;
use fastmm::pebbling::game::run_schedule;
use fastmm::pebbling::optimal::recompute_gap;
use fastmm::pebbling::players::{belady_schedule, creation_order};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: fastmm <multiply|kernel|bounds|verify|io|faults|pebble|dot|report|bench|sweep|serve|fleet|loadgen> [flags]\n\
       global flags: --metrics <path.jsonl>  (collect full telemetry, write JSONL on exit)";

const KERNEL_USAGE: &str =
    "usage: fastmm kernel [--alg classical|strassen] [--n 256] [--cutoff 64]\n\
       [--threads 1] [--dtype f64|i64] [--seed 42] [--check]\n\
       Runs the real cache-blocked kernel (fmm-kernel) once and prints a\n\
       report: wall time, classical-equivalent GFLOP/s, packing time, and\n\
       micro-tile / recursion counts. --check also runs the naive\n\
       reference and exits 1 unless the products agree exactly.";

const REPORT_USAGE: &str = "usage: fastmm report <metrics.jsonl>\n\
       fastmm report --traces <metrics.jsonl> [--top <k>]\n\
       Without --traces: render counters/histograms/events as a table.\n\
       With --traces: reconstruct per-job span trees from span records\n\
       (written under FMM_OBS=full / --metrics) and rank the slowest jobs.";

const BENCH_USAGE: &str = "usage: fastmm bench <run|diff|list> [flags]\n\
       run  [--profile quick|standard|full] [--out <path.json>]\n\
            [--filter <substr>] [--inject-slow <substr>]\n\
       diff --base <path.json> --cand <path.json> [--tol <fraction>] [--warn-timing]\n\
       list (print the target catalog with groups, tolerances, profiles)";

const SERVE_USAGE: &str =
    "usage: fastmm serve [--addr 127.0.0.1:0] [--queue-depth 32] [--workers 2]\n\
       [--default-deadline-ms <ms>] [--max-line-bytes 65536] [--trace-seed <u64>]\n\
       [--shard-id <i>] [--span-id-base <u64>]\n\
       Prints 'fastmm serve listening on HOST:PORT', serves until a client\n\
       sends {\"kind\":\"shutdown\"}, then drains and exits 0. --shard-id tags\n\
       health/stats replies when the server runs as a fleet shard;\n\
       --span-id-base partitions span ids so merged fleet traces never\n\
       collide.";

const FLEET_USAGE: &str =
    "usage: fastmm fleet [--shards 3] [--addr 127.0.0.1:0] [--queue-depth 32]\n\
       [--workers 2] [--seed 0] [--default-deadline-ms <ms>] [--max-line-bytes 65536]\n\
       [--probe-interval-ms 100] [--max-attempts 5] [--attach host:port,...]\n\
       [--shard-metrics-dir <dir>] [--supervise] [--breaker-k 3]\n\
       [--breaker-window-ms 30000] [--journal <path>] [--resume <path>]\n\
       [--chaos-link \"seed=7,delay-ms=200@shard2,stall-after=40@shard1,garble=0.01\"]\n\
       [--hedge-ms <ms>] [--retry-budget-pct 10] [--eject-k 4] [--eject-probation-ms 1000]\n\
       Spawns N `fastmm serve` shard processes (or attaches to --attach\n\
       addresses), routes jobs to shards by spec hash, prints\n\
       'fastmm fleet listening on HOST:PORT (N shards)', serves until a client\n\
       sends {\"kind\":\"shutdown\"}, drains every shard, and exits 0 iff the\n\
       fleet-wide conservation law holds. --supervise respawns dead shards at\n\
       the same ring index (a crash loop of --breaker-k deaths inside\n\
       --breaker-window-ms quarantines the shard instead). --journal writes a\n\
       write-ahead job journal; --resume <journal> rebuilds counters, the\n\
       idempotency map, and the in-flight set after a router SIGKILL,\n\
       reattaching to the journal's recorded shard addresses. --chaos-link\n\
       wraps every shard reply connection in a seeded gray-failure adversary\n\
       (delay/stall/garble; also enables the stall-shard verb and turns\n\
       hedging on with an auto p95 delay). --hedge-ms sets a fixed hedge\n\
       delay (0 = off). Hedges and the re-dispatch of jobs a shard sheds\n\
       back spend a shared budget of --retry-budget-pct% of accepted jobs;\n\
       jobs orphaned by a shard's death re-dispatch free, up to\n\
       --max-attempts. A shard whose latency EWMA exceeds --eject-k x the\n\
       fleet median is ejected, then re-admitted after --eject-probation-ms.\n\
       Fleet-only verbs: fleet-stats, drain-shard (params.shard), kill-shard\n\
       (chaos SIGKILL, params.seed or params.shard), kill-router (journaled\n\
       fleets), stall-shard (chaos-link fleets).";

const LOADGEN_USAGE: &str =
    "usage: fastmm loadgen --addr <host:port> [--conns 4] [--requests 250]\n\
       [--seed 1] [--poison-pct 10] [--oversized-pct 5] [--tiny-deadline-pct 5]\n\
       [--expensive-pct 10] [--deadline-ms 10000] [--burst <n>] [--shutdown]\n\
       [--fleet] [--kill-shard-after <n>] [--stall-shard-after <n>]\n\
       [--reconnect <n>] [--kill-router-after <n>]\n\
       Drives a seeded chaos mix and prints a one-line JSON summary; exits\n\
       nonzero if any request was lost or the server counters don't balance.\n\
       --fleet targets a `fastmm fleet` router; --kill-shard-after N (fleet\n\
       only) SIGKILLs one seeded-chosen shard once N requests are in flight\n\
       and still demands zero lost replies; --stall-shard-after N (fleet only,\n\
       router must run with --chaos-link) freezes one seeded-chosen shard's\n\
       reply link mid-run — a gray failure the fleet must hedge around.\n\
       --reconnect N survives a vanished server with up to N seeded-backoff\n\
       reconnects per connection, re-sending unsettled requests under the same\n\
       client_tag (0 = old fail-fast behaviour); --kill-router-after N (fleet\n\
       only, needs --reconnect) SIGKILLs the router itself mid-run — resume it\n\
       from its journal and the run must still lose nothing.";

const SWEEP_USAGE: &str = "usage: fastmm sweep <run|resume|report|diff|specs> [flags]\n\
       run    --spec <name> [--out <file>] [--seed <u64>] [--jobs <n>] [--max-cells <k>]\n\
              [--cell-timeout <ms>] [--retry-cells <n>] [--verbose]\n\
       resume --spec <name> --out <file> [--seed <u64>] [--jobs <n>] [--cell-timeout <ms>]\n\
       report --file <file> [--bench <path.json>]\n\
       diff   --base <file> --cand <file> [--tol <fraction>]\n\
       specs  (list the built-in sweep specs)";

const FAULTS_USAGE: &str =
    "usage: fastmm faults [--schedule cannon|3d|caps|cannon-threaded] [--n <order>]\n\
       [--p <grid>] [--levels <k>] [--alg strassen|winograd] [--seed <u64>]\n\
       [--spec \"seed=7,crash=0.02,drop=0.01,dup=0.005,retries=8,crash@3:1\"]\n\
       [--recovery recompute|checkpoint:<period>|none]";

/// The catalog algorithm `--alg` names. Any other name exits 2 with the
/// names the command accepts: the catalog's, then its own `extra` ones.
fn algorithm(flags: &HashMap<String, String>, extra: &[&str]) -> Bilinear2x2 {
    let name = flags.get("alg").map(String::as_str).unwrap_or("strassen");
    catalog::by_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = catalog::NAMES.iter().chain(extra).copied().collect();
        eprintln!("unknown algorithm '{name}' ({})", names.join("|"));
        std::process::exit(2);
    })
}

fn cmd_multiply(flags: &HashMap<String, String>) {
    let n = get_usize(flags, "n", 128);
    let cutoff = get_usize(flags, "cutoff", 16);
    let mut rng = StdRng::seed_from_u64(get_usize(flags, "seed", 42) as u64);
    let a = Matrix::<i64>::random_small(n, n, &mut rng);
    let b = Matrix::<i64>::random_small(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);

    if flags.get("alg").map(String::as_str) == Some("ks") {
        let ks = karstadt_schwartz();
        let levels =
            (n.trailing_zeros() as usize).saturating_sub(cutoff.max(1).trailing_zeros() as usize);
        let start = std::time::Instant::now();
        let (c, core, transform) = multiply_alt_counted(&ks, &a, &b, levels);
        let dt = start.elapsed();
        println!("karstadt-schwartz, n = {n}, levels = {levels}");
        println!("  correct:        {}", c == reference);
        println!(
            "  core ops:       {} mults, {} adds",
            core.scalar_mults, core.scalar_adds
        );
        println!("  transform ops:  {}", transform.total());
        println!("  wall time:      {dt:?}");
        return;
    }
    let alg = algorithm(flags, &["ks"]);
    let start = std::time::Instant::now();
    let (c, counts) = multiply_fast_counted(&alg, &a, &b, cutoff);
    let dt = start.elapsed();
    println!("{}, n = {n}, cutoff = {cutoff}", alg.name);
    println!("  correct:    {}", c == reference);
    println!(
        "  ops:        {} mults, {} adds",
        counts.scalar_mults, counts.scalar_adds
    );
    println!("  wall time:  {dt:?}");
}

/// One seeded multiply through the real kernel: wall time, the [`Report`]
/// the backend accumulated, and — under `--check` — whether the product
/// matched the naive reference. Generic so `--dtype i64` and `--dtype
/// f64` share the whole path; small-integer entries make even the f64
/// comparison exact (every partial sum fits in the 53-bit mantissa).
fn run_kernel_typed<T: fastmm::matrix::Scalar>(
    cfg: &fastmm::kernel::KernelCfg,
    n: usize,
    seed: u64,
    check: bool,
) -> (std::time::Duration, fastmm::kernel::Report, Option<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<T>::random_small(n, n, &mut rng);
    let b = Matrix::<T>::random_small(n, n, &mut rng);
    let start = std::time::Instant::now();
    let (c, report) = fastmm::kernel::multiply_with_report(cfg, &a, &b);
    let dt = start.elapsed();
    let matches = check.then(|| c == multiply_naive(&a, &b));
    (dt, report, matches)
}

fn cmd_kernel(flags: &HashMap<String, String>) -> ExitCode {
    let alg_name = flags.get("alg").map(String::as_str).unwrap_or("strassen");
    let Some(alg) = fastmm::kernel::Alg::parse(alg_name) else {
        die(
            &format!("unknown algorithm '{alg_name}' (classical|strassen)"),
            KERNEL_USAGE,
        );
    };
    let n = get_usize(flags, "n", 256);
    if n == 0 {
        die("--n must be at least 1", KERNEL_USAGE);
    }
    let cutoff = get_usize(flags, "cutoff", 64);
    if cutoff == 0 {
        die("--cutoff must be at least 1", KERNEL_USAGE);
    }
    let threads = get_usize(flags, "threads", 1);
    if threads == 0 {
        die("--threads must be at least 1", KERNEL_USAGE);
    }
    let dtype = flags.get("dtype").map(String::as_str).unwrap_or("f64");
    if !matches!(dtype, "f64" | "i64") {
        die(&format!("unknown dtype '{dtype}' (f64|i64)"), KERNEL_USAGE);
    }
    let seed = get_u64(flags, "seed", 42);
    let check = flags.contains_key("check");
    let cfg = fastmm::kernel::KernelCfg {
        alg,
        cutoff,
        threads,
    };
    let (dt, report, matches) = if dtype == "i64" {
        run_kernel_typed::<i64>(&cfg, n, seed, check)
    } else {
        run_kernel_typed::<f64>(&cfg, n, seed, check)
    };
    let flops = fastmm::kernel::classical_flops(n);
    let gflops = flops as f64 / dt.as_secs_f64() / 1e9;
    println!(
        "{} kernel, n = {n}, cutoff = {cutoff}, threads = {threads}, dtype = {dtype}",
        alg.as_str()
    );
    println!("  wall time:      {dt:?}");
    println!("  rate:           {gflops:.2} GFLOP/s (classical-equivalent, {flops} flops)");
    println!(
        "  packing time:   {:?}",
        std::time::Duration::from_nanos(report.pack_ns)
    );
    println!("  micro tiles:    {}", report.micro_tiles);
    if alg == fastmm::kernel::Alg::Strassen {
        let levels: Vec<String> = report
            .level_products
            .iter()
            .map(|p| p.to_string())
            .collect();
        println!("  leaf products:  {}", report.leaf_products);
        println!("  level products: [{}]", levels.join(", "));
    }
    match matches {
        Some(true) => {
            println!("  check:          product matches naive reference");
            ExitCode::SUCCESS
        }
        Some(false) => {
            eprintln!("  check:          MISMATCH against naive reference");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}

fn cmd_bounds(flags: &HashMap<String, String>) {
    let n = get_usize(flags, "n", 4096);
    let m = get_usize(flags, "m", 1024);
    let p = get_usize(flags, "p", 1);
    println!("I/O lower bounds at n = {n}, M = {m}, P = {p}:");
    println!(
        "  classical sequential:   Ω ≈ {:.3e}",
        bounds::sequential(n, m, bounds::OMEGA_CLASSICAL)
    );
    println!(
        "  fast (2×2) sequential:  Ω ≈ {:.3e}   [holds with recomputation]",
        bounds::sequential(n, m, bounds::OMEGA_FAST)
    );
    if p > 1 {
        println!(
            "  fast parallel (max):    Ω ≈ {:.3e}",
            bounds::parallel(n, m, p, bounds::OMEGA_FAST)
        );
        println!(
            "    memory-dependent:     Ω ≈ {:.3e}",
            bounds::parallel_memory_dependent(n, m, p, bounds::OMEGA_FAST)
        );
        println!(
            "    memory-independent:   Ω ≈ {:.3e}",
            bounds::parallel_memory_independent(n, p, bounds::OMEGA_FAST)
        );
        println!(
            "    crossover M*:         {:.3e}",
            bounds::parallel_crossover_m(n, p, bounds::OMEGA_FAST)
        );
    }
}

fn cmd_verify(flags: &HashMap<String, String>) -> ExitCode {
    let n = get_usize(flags, "n", 4);
    let mut rng = StdRng::seed_from_u64(2019);
    let mut all_ok = true;
    for alg in catalog::all_fast() {
        println!("{}:", alg.name);
        for report in lemmas::full_battery(&alg, n, &mut rng) {
            println!(
                "  Lemma {:<8} {}  {}",
                report.lemma,
                if report.holds { "HOLDS" } else { "FAILS" },
                report.detail
            );
            all_ok &= report.holds;
        }
    }
    if all_ok {
        println!("\nall checks passed");
        ExitCode::SUCCESS
    } else {
        println!("\nSOME CHECKS FAILED");
        ExitCode::FAILURE
    }
}

fn cmd_io(flags: &HashMap<String, String>) {
    let n = get_usize(flags, "n", 32);
    let m = get_usize(flags, "m", 96);
    let seed = get_usize(flags, "seed", seq::DEFAULT_WORKLOAD_SEED as usize) as u64;
    let alg = algorithm(flags, &[]);
    let tile = seq::natural_tile(m);
    let policy = flags.get("policy").map(String::as_str).unwrap_or("lru");
    let run = |mem: &mut seq::Mem, a: &seq::TMat, b: &seq::TMat| -> seq::TMat {
        if alg.name == "classical" {
            seq::classical_blocked(mem, a, b, tile)
        } else {
            seq::fast_recursive(mem, &alg, a, b, tile)
        }
    };
    if let Some(spec_str) = flags.get("faults") {
        cmd_io_faulty(spec_str, n, m, seed, &alg, tile, policy, run);
        return;
    }
    let stats = match policy {
        "lru" => seq::measure_seeded(n, m, Policy::Lru, seed, run).1,
        "fifo" => seq::measure_seeded(n, m, Policy::Fifo, seed, run).1,
        // Offline-optimal replacement, streamed in two passes — no
        // recorded trace, so it runs at the same n as the online policies.
        "opt" => seq::measure_opt_seeded(n, m, seed, run),
        other => {
            eprintln!("unknown policy '{other}' (lru|fifo|opt)");
            std::process::exit(2);
        }
    };
    let omega = if alg.name == "classical" {
        bounds::OMEGA_CLASSICAL
    } else {
        bounds::OMEGA_FAST
    };
    let lb = bounds::sequential(n, m, omega);
    println!(
        "{} at n = {n}, M = {m} ({}, tile {tile}, seed {seed}):",
        alg.name,
        policy.to_uppercase()
    );
    println!(
        "  measured I/O:  {} ({} loads, {} stores)",
        stats.io(),
        stats.loads,
        stats.stores
    );
    println!("  lower bound:   {lb:.0}");
    println!("  ratio:         {:.2}", stats.io() as f64 / lb);
}

/// `fastmm io --faults "<spec>"` — run the same workload twice, clean
/// and with seeded cache-wipe faults, and report the recovery I/O the
/// injected flushes cost. The fault spec must set `flush-every=<N>`.
#[allow(clippy::too_many_arguments)]
fn cmd_io_faulty<F>(
    spec_str: &str,
    n: usize,
    m: usize,
    seed: u64,
    alg: &Bilinear2x2,
    tile: usize,
    policy: &str,
    run: F,
) where
    F: FnOnce(&mut seq::Mem, &seq::TMat, &seq::TMat) -> seq::TMat + Copy,
{
    use fastmm::faults::FaultSpec;
    let spec = match FaultSpec::parse(spec_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        }
    };
    let Some(every) = spec.flush_every else {
        eprintln!("io --faults requires flush-every=<N> in the spec (got '{spec_str}')");
        std::process::exit(2);
    };
    let cache_policy = match policy {
        "lru" => Policy::Lru,
        "fifo" => Policy::Fifo,
        other => {
            eprintln!("io --faults supports --policy lru|fifo (got '{other}')");
            std::process::exit(2);
        }
    };
    let (clean_product, clean) = {
        let (prod, stats) = seq::measure_seeded(n, m, cache_policy, seed, run);
        (prod, stats)
    };
    let (faulty_product, faulty, flushes) =
        seq::measure_faulty_seeded(n, m, cache_policy, seed, every, run);
    let recovery = faulty.io().saturating_sub(clean.io());
    println!(
        "{} at n = {n}, M = {m} ({}, tile {tile}, seed {seed}) under faults flush-every={every}:",
        alg.name,
        policy.to_uppercase()
    );
    println!(
        "  product:       {}",
        if faulty_product == clean_product {
            "matches fault-free run"
        } else {
            "DIVERGES FROM FAULT-FREE RUN"
        }
    );
    println!("  clean I/O:     {}", clean.io());
    println!(
        "  faulty I/O:    {} ({flushes} cache flush(es) injected)",
        faulty.io()
    );
    println!(
        "  recovery I/O:  {recovery} (+{:.2}%)",
        100.0 * recovery as f64 / clean.io().max(1) as f64
    );
    if faulty_product != clean_product {
        std::process::exit(1);
    }
}

/// `fastmm faults` — run a distributed schedule under a seeded fault
/// plan, verify the recovered product against the fault-free run, and
/// report the communication cost of the faults.
fn cmd_faults(flags: &HashMap<String, String>) -> ExitCode {
    use fastmm::faults::{FaultSpec, FaultStats, Recovery};
    use fastmm::memsim::{par, par_faults, par_threads};

    let schedule = flags
        .get("schedule")
        .map(String::as_str)
        .unwrap_or("cannon");
    let spec_str = flags
        .get("spec")
        .map(String::as_str)
        .unwrap_or("seed=7,crash=0.05,drop=0.02,dup=0.01,retries=8");
    let spec = match FaultSpec::parse(spec_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad --spec: {e}");
            eprintln!("{FAULTS_USAGE}");
            return ExitCode::from(2);
        }
    };
    let recovery = match flags.get("recovery").map(String::as_str) {
        None => Recovery::Recompute,
        Some(s) => match Recovery::parse(s) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bad --recovery: {e}");
                eprintln!("{FAULTS_USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    let plan = spec.plan();
    let seed = get_usize(flags, "seed", 42) as u64;

    // A shared workload: the faulty run must reproduce this product.
    let make = |n: usize| -> (Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Matrix::<i64>::random_small(n, n, &mut rng),
            Matrix::<i64>::random_small(n, n, &mut rng),
        )
    };
    // (clean product, clean total words) and the faulty run's
    // (product, total, recovery, stats), normalised across schedules.
    struct Outcome {
        matches: bool,
        clean_words: u64,
        total_words: u64,
        recovery_words: u64,
        faults: FaultStats,
        detail: String,
    }
    let outcome = match schedule {
        "cannon" | "3d" => {
            let p = get_usize(flags, "p", if schedule == "cannon" { 4 } else { 2 });
            let n = get_usize(flags, "n", 16);
            let (a, b) = make(n);
            let (clean, clean_net) = if schedule == "cannon" {
                par::cannon(&a, &b, p)
            } else {
                par::replicated_3d(&a, &b, p)
            };
            let faulty = if schedule == "cannon" {
                par_faults::cannon_faulty(&a, &b, p, &plan, recovery)
            } else {
                par_faults::replicated_3d_faulty(&a, &b, p, &plan, recovery)
            };
            match faulty {
                Ok(r) => Outcome {
                    matches: r.product == clean,
                    clean_words: clean_net.total_words,
                    total_words: r.net.total_words,
                    recovery_words: r.net.recovery_words,
                    faults: r.faults,
                    detail: format!("n = {n}, p = {p}"),
                },
                Err(e) => {
                    eprintln!("faults {schedule}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "caps" => {
            let n = get_usize(flags, "n", 16);
            let levels = get_usize(flags, "levels", 2);
            let alg = algorithm(flags, &[]);
            let (a, b) = make(n);
            let (clean, clean_net) = par::caps_strassen(&alg, &a, &b, levels);
            match par_faults::caps_strassen_faulty(&alg, &a, &b, levels, &plan, recovery) {
                Ok(r) => Outcome {
                    matches: r.product == clean,
                    clean_words: clean_net.total_words,
                    total_words: r.net.total_words,
                    recovery_words: r.net.recovery_words,
                    faults: r.faults,
                    detail: format!("{}, n = {n}, levels = {levels}", alg.name),
                },
                Err(e) => {
                    eprintln!("faults caps: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "cannon-threaded" => {
            let p = get_usize(flags, "p", 4);
            let n = get_usize(flags, "n", 16);
            let (a, b) = make(n);
            let clean =
                par_threads::cannon_threaded_faulty(&a, &b, p, &FaultSpec::default().plan())
                    .expect("an inert fault plan never drops a message");
            match par_threads::cannon_threaded_faulty(&a, &b, p, &plan) {
                Ok(r) => Outcome {
                    matches: r.product == clean.product,
                    clean_words: clean.total_words,
                    total_words: r.total_words,
                    recovery_words: r.recovery_words,
                    faults: r.faults,
                    detail: format!("n = {n}, p = {p}, retry/backoff shim"),
                },
                Err(e) => {
                    eprintln!("faults cannon-threaded: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!("unknown schedule '{other}' (cannon|3d|caps|cannon-threaded)");
            eprintln!("{FAULTS_USAGE}");
            return ExitCode::from(2);
        }
    };
    let f = &outcome.faults;
    println!(
        "fault injection: {schedule} ({}), spec {}, recovery {}",
        outcome.detail,
        spec.canonical(),
        recovery.as_string()
    );
    println!(
        "  product:         {}",
        if outcome.matches {
            "matches fault-free run"
        } else {
            "DIVERGES FROM FAULT-FREE RUN"
        }
    );
    println!(
        "  total words:     {} (fault-free {})",
        outcome.total_words, outcome.clean_words
    );
    println!(
        "  recovery words:  {} (+{:.2}%)",
        outcome.recovery_words,
        100.0 * outcome.recovery_words as f64 / outcome.clean_words.max(1) as f64
    );
    println!(
        "  faults:          {} crash(es), {} drop(s), {} dup(s), {} retry(ies), \
         {} checkpoint(s), {} restore(s)",
        f.crashes, f.drops, f.dups, f.retries, f.checkpoints, f.restores
    );
    if f.unrecovered > 0 {
        println!("  unrecovered:     {} (recovery = none)", f.unrecovered);
    }
    // Recovery::None is *expected* to corrupt the product when a crash
    // fired — that is the demonstration. Everything else must match.
    let expected_mismatch = matches!(recovery, Recovery::None) && f.unrecovered > 0;
    if outcome.matches || expected_mismatch {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_pebble(flags: &HashMap<String, String>) {
    let m = get_usize(flags, "m", 4);
    let fam = flags.get("family").map(String::as_str).unwrap_or("tree");
    let g = match fam {
        "chain" => families::chain(get_usize(flags, "len", 6)),
        "tree" => families::binary_tree(get_usize(flags, "leaves", 4)),
        "grid" => families::dp_grid(get_usize(flags, "rows", 3), get_usize(flags, "cols", 3)),
        "butterfly" => families::butterfly(get_usize(flags, "n", 8)),
        "strassen" => {
            RecursiveCdag::build(&catalog::strassen().to_base(), get_usize(flags, "n", 4)).graph
        }
        other => {
            eprintln!("unknown family '{other}' (chain|tree|grid|butterfly|strassen)");
            std::process::exit(2);
        }
    };
    println!("{fam}: {} vertices, {} edges", g.len(), g.edge_count());
    let moves = belady_schedule(&g, &creation_order(&g), m);
    let r = run_schedule(&g, &moves, m, false).expect("legal schedule");
    println!(
        "  Belady (no recompute) at M = {m}: {} I/O ({} loads, {} stores)",
        r.io(),
        r.loads,
        r.stores
    );
    if flags.contains_key("optimal") {
        match recompute_gap(&g, m, 3_000_000) {
            Ok((without, with)) => {
                println!("  exact optimal without recompute: {}", without.cost);
                println!("  exact optimal with recompute:    {}", with.cost);
                println!(
                    "  recomputation gap:               {}",
                    without.cost - with.cost
                );
            }
            Err(e) => println!("  exact search unavailable: {e:?}"),
        }
    }
}

fn cmd_dot(flags: &HashMap<String, String>) -> ExitCode {
    let n = get_usize(flags, "n", 2);
    let alg = algorithm(flags, &[]);
    let h = RecursiveCdag::build(&alg.to_base(), n);
    let dot = to_dot(&h.graph, &format!("{}_H{n}", alg.name));
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, dot) {
                eprintln!("cannot write '{path}': {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        None => print!("{dot}"),
    }
    ExitCode::SUCCESS
}

/// Render a JSONL metrics file (written by `--metrics`) as a table.
fn cmd_report(path: &str) -> ExitCode {
    use fastmm::obs::json::{parse_line, Value};
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut events: HashMap<String, u64> = HashMap::new();
    let mut spans = 0usize;
    let mut malformed = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Some(obj) = parse_line(line) else {
            malformed += 1;
            continue;
        };
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let labels = match obj.get("labels") {
            Some(Value::Object(l)) if !l.is_empty() => {
                let pairs: Vec<String> = l.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{{{}}}", pairs.join(","))
            }
            _ => String::new(),
        };
        match obj.get("type").and_then(Value::as_str) {
            Some("counter") | Some("gauge") => {
                let v = obj.get("value").and_then(Value::as_num).unwrap_or(f64::NAN);
                rows.push((format!("{name}{labels}"), format!("{v}")));
            }
            Some("histogram") => {
                let field = |k: &str| obj.get(k).and_then(Value::as_num).unwrap_or(f64::NAN);
                rows.push((
                    format!("{name}{labels}"),
                    format!(
                        "count={} sum={} min={} max={} mean={:.3}",
                        field("count"),
                        field("sum"),
                        field("min"),
                        field("max"),
                        field("mean")
                    ),
                ));
            }
            Some("event") => *events.entry(name).or_insert(0) += 1,
            Some("span") => spans += 1,
            _ => malformed += 1,
        }
    }
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, value) in &rows {
        println!("{name:<width$}  {value}");
    }
    if !events.is_empty() {
        let mut by_name: Vec<(String, u64)> = events.into_iter().collect();
        by_name.sort();
        println!("\nevents:");
        for (name, count) in by_name {
            println!("  {name}: {count}");
        }
    }
    if spans > 0 {
        eprintln!("note: {spans} span line(s) present; render trace trees with `fastmm report --traces {path}`");
    }
    if malformed > 0 {
        eprintln!("warning: {malformed} malformed line(s) skipped");
    }
    ExitCode::SUCCESS
}

/// `fastmm report --traces` — reconstruct per-job span trees from the
/// span records in a metrics JSONL file and rank the slowest jobs.
fn cmd_report_traces(path: &str, top: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", fastmm::obs::trace::render_report(&text, top));
    ExitCode::SUCCESS
}

/// `fastmm bench <run|diff|list>` — drive the fmm-bench harness: run the
/// named target catalog, gate a candidate document against a baseline,
/// or list the catalog.
fn cmd_bench(args: &[String]) -> ExitCode {
    use fastmm::bench::diff::{diff, DiffOptions};
    use fastmm::bench::doc::BenchDoc;
    use fastmm::bench::targets::{all_targets, run_targets, Profile, RunOptions};
    let Some(verb) = args.first() else {
        eprintln!("{BENCH_USAGE}");
        return ExitCode::from(2);
    };
    match verb.as_str() {
        "run" => {
            let flags = parse_flags(
                &args[1..],
                &["profile", "out", "filter", "inject-slow"],
                BENCH_USAGE,
            );
            let profile = flags
                .get("profile")
                .map(|v| {
                    Profile::parse(v).unwrap_or_else(|| {
                        eprintln!("--profile expects quick|standard|full, got '{v}'");
                        std::process::exit(2);
                    })
                })
                .unwrap_or(Profile::Quick);
            let opts = RunOptions {
                profile,
                filter: flags.get("filter").cloned(),
                inject_slow: flags.get("inject-slow").cloned(),
            };
            let doc = run_targets(&opts);
            if doc.targets.is_empty() {
                eprintln!(
                    "bench run: no targets matched{}",
                    opts.filter
                        .as_deref()
                        .map(|f| format!(" filter '{f}'"))
                        .unwrap_or_default()
                );
                return ExitCode::from(2);
            }
            print!("{}", doc.render_table());
            if let Some(out) = flags.get("out") {
                if let Err(e) = std::fs::write(out, doc.to_jsonl()) {
                    eprintln!("cannot write '{out}': {e}");
                    return ExitCode::from(2);
                }
                println!("bench document written to {out}");
            }
            ExitCode::SUCCESS
        }
        "diff" => {
            let flags = parse_flags(
                &args[1..],
                &["base", "cand", "tol", "warn-timing"],
                BENCH_USAGE,
            );
            let require = |key: &str| -> String {
                flags.get(key).cloned().unwrap_or_else(|| {
                    eprintln!("bench diff requires --{key}");
                    eprintln!("{BENCH_USAGE}");
                    std::process::exit(2);
                })
            };
            let load = |path: &str| -> BenchDoc {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read '{path}': {e}");
                    std::process::exit(2);
                });
                BenchDoc::parse(&text).unwrap_or_else(|e| {
                    eprintln!("'{path}': {e}");
                    std::process::exit(2);
                })
            };
            let base = load(&require("base"));
            let cand = load(&require("cand"));
            let opts = DiffOptions {
                tol_override: flags.get("tol").map(|v| {
                    v.parse().unwrap_or_else(|_| {
                        eprintln!("--tol expects a fraction, got '{v}'");
                        std::process::exit(2);
                    })
                }),
            };
            let warn_timing = flags.contains_key("warn-timing");
            let report = diff(&base, &cand, &opts);
            print!("{}", report.render());
            if report.is_clean(warn_timing) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "list" => {
            parse_flags(&args[1..], &[], BENCH_USAGE);
            let targets = all_targets();
            let width = targets.iter().map(|t| t.name.len()).max().unwrap_or(6);
            for t in &targets {
                println!(
                    "{:<width$}  group {:<7} tol {:>4.0}%  from profile {}",
                    t.name,
                    t.group,
                    t.tol * 100.0,
                    t.min_profile.as_str()
                );
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown bench verb '{other}'");
            eprintln!("{BENCH_USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `fastmm sweep <run|resume|report|diff|specs>` — drive the fmm-sweep
/// orchestration engine from the CLI.
fn cmd_sweep(args: &[String]) -> ExitCode {
    use fastmm::sweep::{checkpoint, diff, engine, report, SweepSpec};
    let Some(verb) = args.first() else {
        eprintln!("{SWEEP_USAGE}");
        return ExitCode::from(2);
    };
    let require = |flags: &HashMap<String, String>, key: &str| -> String {
        flags.get(key).cloned().unwrap_or_else(|| {
            eprintln!("sweep {verb} requires --{key}");
            eprintln!("{SWEEP_USAGE}");
            std::process::exit(2);
        })
    };
    let load_spec = |name: &str| -> SweepSpec {
        SweepSpec::builtin(name).unwrap_or_else(|| {
            eprintln!(
                "unknown spec '{name}' (built-ins: {})",
                SweepSpec::builtin_names().join(", ")
            );
            std::process::exit(2);
        })
    };
    match verb.as_str() {
        "run" | "resume" => {
            let flags = parse_flags(
                &args[1..],
                &[
                    "spec",
                    "out",
                    "seed",
                    "jobs",
                    "max-cells",
                    "verbose",
                    "cell-timeout",
                    "retry-cells",
                    "inject-hang",
                ],
                SWEEP_USAGE,
            );
            let spec = load_spec(&require(&flags, "spec"));
            let out = flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| format!("sweep_{}.jsonl", spec.name));
            let default_seed = if verb == "resume" {
                // Unless overridden, continue with the seed the
                // checkpoint was started with. Lenient load: a torn tail
                // is the resume engine's job to repair, not a reason to
                // refuse the resume.
                match checkpoint::load_lenient(&out) {
                    Ok((h, _, _)) => h.seed,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                }
            } else {
                seq::DEFAULT_WORKLOAD_SEED
            };
            // Undocumented test hook (CI's fault-smoke job): make cell
            // IDX sleep MS milliseconds, so a timeout can be provoked on
            // purpose. Grammar: --inject-hang IDX:MS
            let inject_hang = flags.get("inject-hang").map(|v| {
                let parsed = v
                    .split_once(':')
                    .and_then(|(i, ms)| Some((i.parse().ok()?, ms.parse().ok()?)));
                parsed.unwrap_or_else(|| {
                    eprintln!("--inject-hang expects <cell>:<millis>, got '{v}'");
                    std::process::exit(2);
                })
            });
            let cfg = engine::RunConfig {
                seed: get_usize(&flags, "seed", default_seed as usize) as u64,
                jobs: get_usize(&flags, "jobs", 0),
                max_cells: flags
                    .contains_key("max-cells")
                    .then(|| get_usize(&flags, "max-cells", 0)),
                verbose: flags.contains_key("verbose"),
                cell_timeout_ms: flags
                    .contains_key("cell-timeout")
                    .then(|| get_usize(&flags, "cell-timeout", 0) as u64),
                cell_retries: get_usize(&flags, "retry-cells", 0) as u32,
                inject_hang,
            };
            let total = spec.expand().len();
            let result = if verb == "run" {
                engine::run_to_file(&spec, &cfg, &out)
            } else {
                engine::resume_file(&spec, &cfg, &out)
            };
            match result {
                Ok(stats) => {
                    println!(
                        "sweep '{}' ({} cells): {} executed ({} ok, {} errors, \
                         {} timed out), {} skipped, {} remaining -> {out}",
                        spec.name,
                        total,
                        stats.executed,
                        stats.ok,
                        stats.errors,
                        stats.timeouts,
                        stats.skipped,
                        stats.remaining
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("sweep {verb} failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "report" => {
            let flags = parse_flags(&args[1..], &["file", "bench"], SWEEP_USAGE);
            let path = require(&flags, "file");
            let (header, records) = match checkpoint::load(&path) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let summary = report::summarize(&records);
            print!("{}", report::render(&header, &summary));
            if let Some(bench) = flags.get("bench") {
                let doc = report::bench_json(&header, &summary);
                if let Err(e) = std::fs::write(bench, doc) {
                    eprintln!("cannot write '{bench}': {e}");
                    return ExitCode::from(2);
                }
                println!("\nbench summary written to {bench}");
            }
            ExitCode::SUCCESS
        }
        "diff" => {
            let flags = parse_flags(&args[1..], &["base", "cand", "tol"], SWEEP_USAGE);
            let base = require(&flags, "base");
            let cand = require(&flags, "cand");
            let tol: f64 = flags
                .get("tol")
                .map(|v| {
                    v.parse().unwrap_or_else(|_| {
                        eprintln!("--tol expects a fraction, got '{v}'");
                        std::process::exit(2);
                    })
                })
                .unwrap_or(0.0);
            let load = |p: &str| match checkpoint::load(p) {
                Ok((_, recs)) => recs,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
            let d = diff::diff(&load(&base), &load(&cand), tol);
            print!("{}", diff::render(&d, tol));
            if d.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "specs" => {
            parse_flags(&args[1..], &[], SWEEP_USAGE);
            for name in SweepSpec::builtin_names() {
                let spec = SweepSpec::builtin(name).expect("builtin exists");
                println!(
                    "{name:<8} {:>4} cells  hash {}",
                    spec.expand().len(),
                    spec.hash()
                );
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown sweep verb '{other}'");
            eprintln!("{SWEEP_USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Write the global registry as JSONL to `path`. Returns `false` (after
/// a one-line error) when the file cannot be written — `parse_flags`
/// validated the path up front, so this only trips if the destination
/// vanished mid-run.
fn write_metrics(path: &str) -> bool {
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        fastmm::obs::global().write_jsonl(&mut out)
    };
    match write() {
        Ok(()) => {
            eprintln!("metrics written to {path}");
            true
        }
        Err(e) => {
            eprintln!("cannot write metrics to '{path}': {e}");
            false
        }
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> ExitCode {
    use fastmm::serve::{ServerConfig, ServerHandle};
    if flags.contains_key("span-id-base") {
        // Fleet shards get disjoint span-id ranges so their span JSONL
        // can be merged into one trace without id collisions.
        fastmm::obs::span::set_span_id_base(get_u64(flags, "span-id-base", 0));
    }
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: flags.get("addr").cloned().unwrap_or(defaults.addr),
        queue_depth: get_usize(flags, "queue-depth", defaults.queue_depth).max(1),
        workers: get_usize(flags, "workers", defaults.workers).max(1),
        default_deadline_ms: flags
            .get("default-deadline-ms")
            .map(|_| get_usize(flags, "default-deadline-ms", 0) as u64),
        max_line_bytes: get_usize(flags, "max-line-bytes", defaults.max_line_bytes).max(1),
        trace_seed: get_usize(flags, "trace-seed", defaults.trace_seed as usize) as u64,
        shard_id: flags.get("shard-id").map(|_| get_u64(flags, "shard-id", 0)),
    };
    let handle = match ServerHandle::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            eprintln!("{SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };
    // The line CI (and humans) parse for the ephemeral port.
    println!("fastmm serve listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = handle.wait();
    println!("fastmm serve drained: {stats}");
    if stats.balanced() {
        ExitCode::SUCCESS
    } else {
        eprintln!("serve: counters do not balance after drain");
        ExitCode::FAILURE
    }
}

fn cmd_loadgen(flags: &HashMap<String, String>) -> ExitCode {
    use fastmm::serve::{loadgen, LoadgenConfig};
    let Some(addr) = flags.get("addr") else {
        eprintln!("loadgen: --addr <host:port> is required");
        eprintln!("{LOADGEN_USAGE}");
        return ExitCode::from(2);
    };
    let defaults = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        addr: addr.clone(),
        conns: get_usize(flags, "conns", defaults.conns).max(1),
        requests: get_usize(flags, "requests", defaults.requests),
        seed: get_usize(flags, "seed", defaults.seed as usize) as u64,
        poison_pct: get_usize(flags, "poison-pct", defaults.poison_pct as usize) as u64,
        oversized_pct: get_usize(flags, "oversized-pct", defaults.oversized_pct as usize) as u64,
        tiny_deadline_pct: get_usize(
            flags,
            "tiny-deadline-pct",
            defaults.tiny_deadline_pct as usize,
        ) as u64,
        expensive_pct: get_usize(flags, "expensive-pct", defaults.expensive_pct as usize) as u64,
        deadline_ms: get_usize(flags, "deadline-ms", defaults.deadline_ms as usize) as u64,
        oversized_bytes: defaults.oversized_bytes,
        burst: flags.get("burst").map(|_| get_usize(flags, "burst", 64)),
        shutdown: flags.contains_key("shutdown"),
        fleet: flags.contains_key("fleet"),
        kill_shard_after: flags
            .get("kill-shard-after")
            .map(|_| get_usize(flags, "kill-shard-after", 0)),
        stall_shard_after: flags
            .get("stall-shard-after")
            .map(|_| get_usize(flags, "stall-shard-after", 0)),
        reconnect: get_usize(flags, "reconnect", 0) as u32,
        kill_router_after: flags
            .get("kill-router-after")
            .map(|_| get_usize(flags, "kill-router-after", 0)),
    };
    if cfg.kill_shard_after.is_some() && !cfg.fleet {
        die(
            "--kill-shard-after is a fleet chaos flag; add --fleet",
            LOADGEN_USAGE,
        );
    }
    if cfg.stall_shard_after.is_some() && !cfg.fleet {
        die(
            "--stall-shard-after is a fleet chaos flag; add --fleet",
            LOADGEN_USAGE,
        );
    }
    if cfg.kill_router_after.is_some() && !cfg.fleet {
        die(
            "--kill-router-after is a fleet chaos flag; add --fleet",
            LOADGEN_USAGE,
        );
    }
    if cfg.kill_router_after.is_some() && cfg.reconnect == 0 {
        die(
            "--kill-router-after needs --reconnect N so workers survive the router's death",
            LOADGEN_USAGE,
        );
    }
    if cfg.fleet && cfg.burst.is_some() {
        // The burst phase leans on pause/resume, which the router
        // rejects (queue discipline is per-shard, not fleet-wide).
        die(
            "--burst drives a single server's pause/resume; drop it with --fleet",
            LOADGEN_USAGE,
        );
    }
    match loadgen::run(&cfg) {
        Ok(summary) => {
            println!("{}", summary.to_json_line());
            if summary.resent > 0 {
                eprintln!(
                    "loadgen: {} request(s) re-sent across reconnects (dup-suppressed server-side)",
                    summary.resent
                );
            }
            if summary.latency.count > 0 {
                // Wall-clock, hence stderr: the stdout JSON line is the
                // same-seed reproducibility contract.
                eprintln!(
                    "loadgen latency: p50_us={} p95_us={} p99_us={} max_us={}",
                    summary.latency.p50(),
                    summary.latency.p95(),
                    summary.latency.p99(),
                    summary.latency.max
                );
            }
            if summary.ok() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "loadgen: invariants violated (lost={} mismatched={})",
                    summary.lost, summary.mismatched
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spawn one `fastmm serve` shard and parse its banner for the bound
/// address. The child's stdout stays attached to a drain thread for the
/// shard's lifetime — the shard prints its drained-counters line at
/// exit, and a closed pipe would turn that println into a panic.
fn spawn_shard(
    idx: usize,
    queue_depth: usize,
    workers: usize,
    seed: u64,
    metrics_dir: Option<&str>,
) -> Result<(String, std::process::Child), String> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--queue-depth")
        .arg(queue_depth.to_string())
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--shard-id")
        .arg(idx.to_string())
        // Disjoint span-id ranges per shard, below 2^52 (span ids ride a
        // JSON number parsed as f64).
        .arg("--span-id-base")
        .arg(((idx as u64 + 1) << 40).to_string())
        .arg("--trace-seed")
        .arg(seed.wrapping_add(idx as u64).to_string())
        .stdout(std::process::Stdio::piped());
    if let Some(dir) = metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return Err(format!("cannot create --shard-metrics-dir '{dir}': {e}"));
        }
        cmd.arg("--metrics").arg(format!("{dir}/shard{idx}.jsonl"));
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn shard {idx}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("shard {idx} exited before printing its banner"));
            }
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix("fastmm serve listening on ") {
                    break rest.to_string();
                }
            }
        }
    };
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => eprintln!("[shard {idx}] {}", line.trim_end()),
            }
        }
    });
    Ok((addr, child))
}

/// `fastmm fleet` — spawn (or attach to) N shards, run the router in the
/// foreground, and at drain time assert the fleet-wide conservation law
/// plus every acked shard's own law.
fn cmd_fleet(flags: &HashMap<String, String>) -> ExitCode {
    use fastmm::router::{journal, RouterConfig, RouterHandle, ShardSpawner, StartOptions};
    let defaults = RouterConfig::default();
    // The spawned shards' own sizing.
    let shard_defaults = fastmm::serve::ServerConfig::default();
    // --resume loads the journal up front: the header fixes the shard
    // addresses and the seed (ring geometry must match the dead router's),
    // and the records rebuild counters + the in-flight set.
    let resume: Option<(String, journal::Header, fastmm::router::Replay)> =
        match flags.get("resume") {
            Some(path) => {
                if flags.contains_key("attach") {
                    die(
                        "--resume replays the journal's recorded shard addresses; drop --attach",
                        FLEET_USAGE,
                    );
                }
                match journal::load_lenient(path) {
                    Ok((header, records, torn)) => {
                        if let Some(t) = torn {
                            eprintln!(
                                "fleet: journal tail torn at line {} ({}); dropped",
                                t.line, t.detail
                            );
                        }
                        Some((path.clone(), header, journal::replay(&records)))
                    }
                    Err(e) => {
                        eprintln!("fleet: cannot resume: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            None => None,
        };
    let seed = match &resume {
        Some((_, header, _)) => get_u64(flags, "seed", header.seed),
        None => get_u64(flags, "seed", 0),
    };
    // Gray-failure flags are validated BEFORE any shard is spawned: a
    // die() below this point would orphan shard children still holding
    // our stderr pipe, wedging callers that wait on it.
    let chaos_link = match flags.get("chaos-link") {
        Some(spec) => match fastmm::faults::LinkChaosSpec::parse(spec) {
            Ok(s) => Some(s),
            Err(e) => die(&format!("--chaos-link: {e}"), FLEET_USAGE),
        },
        None => None,
    };
    // Hedging defaults on (auto p95 delay) exactly when the chaos link
    // layer is active — gray failures are what hedges exist for — and
    // off otherwise, keeping clean-fleet runs byte-stable. --hedge-ms
    // overrides either way (0 = off, N = fixed delay).
    let hedge_ms = match flags.get("hedge-ms") {
        Some(_) => Some(get_u64(flags, "hedge-ms", 0)),
        None if chaos_link.is_some() => None,
        None => Some(0),
    };
    let retry_budget_pct = get_u64(flags, "retry-budget-pct", defaults.retry_budget_pct as u64);
    if retry_budget_pct > 100 {
        die(
            &format!("--retry-budget-pct must be 0..=100, got {retry_budget_pct}"),
            FLEET_USAGE,
        );
    }
    let eject_k = match flags.get("eject-k") {
        Some(v) => match v.parse::<f64>() {
            Ok(k) if k > 1.0 => k,
            _ => die(
                &format!("--eject-k must be a multiplier greater than 1, got '{v}'"),
                FLEET_USAGE,
            ),
        },
        None => defaults.eject_k,
    };
    let (shard_addrs, procs): (Vec<String>, Vec<Option<std::process::Child>>) =
        if let Some((_, header, _)) = &resume {
            let procs = header.shard_addrs.iter().map(|_| None).collect();
            (header.shard_addrs.clone(), procs)
        } else if let Some(list) = flags.get("attach") {
            let addrs: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_string)
                .collect();
            if addrs.is_empty() {
                die("--attach expects host:port[,host:port...]", FLEET_USAGE);
            }
            let procs = addrs.iter().map(|_| None).collect();
            (addrs, procs)
        } else {
            let shards = get_usize(flags, "shards", 3);
            if shards == 0 {
                die("--shards must be at least 1", FLEET_USAGE);
            }
            let queue_depth = get_usize(flags, "queue-depth", shard_defaults.queue_depth).max(1);
            let workers = get_usize(flags, "workers", shard_defaults.workers).max(1);
            let metrics_dir = flags.get("shard-metrics-dir").map(String::as_str);
            let mut addrs = Vec::with_capacity(shards);
            let mut procs: Vec<Option<std::process::Child>> = Vec::with_capacity(shards);
            for idx in 0..shards {
                match spawn_shard(idx, queue_depth, workers, seed, metrics_dir) {
                    Ok((addr, child)) => {
                        addrs.push(addr);
                        procs.push(Some(child));
                    }
                    Err(e) => {
                        for p in procs.iter_mut().flatten() {
                            let _ = p.kill();
                            let _ = p.wait();
                        }
                        eprintln!("fleet: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            (addrs, procs)
        };
    let n = shard_addrs.len();
    let supervise = flags.contains_key("supervise");
    let spawner: Option<ShardSpawner> = if supervise {
        let queue_depth = get_usize(flags, "queue-depth", shard_defaults.queue_depth).max(1);
        let workers = get_usize(flags, "workers", shard_defaults.workers).max(1);
        let metrics_dir = flags.get("shard-metrics-dir").cloned();
        Some(std::sync::Arc::new(move |idx: usize| {
            spawn_shard(idx, queue_depth, workers, seed, metrics_dir.as_deref())
                .map(|(addr, child)| (addr, Some(child)))
        }))
    } else {
        None
    };
    let cfg = RouterConfig {
        addr: flags.get("addr").cloned().unwrap_or(defaults.addr),
        shard_addrs,
        seed,
        default_deadline_ms: flags
            .get("default-deadline-ms")
            .map(|_| get_u64(flags, "default-deadline-ms", 0)),
        max_line_bytes: get_usize(flags, "max-line-bytes", defaults.max_line_bytes).max(1),
        poll_ms: get_u64(flags, "probe-interval-ms", defaults.poll_ms),
        max_attempts: get_u64(flags, "max-attempts", defaults.max_attempts as u64).max(1) as u32,
        supervise,
        breaker_k: get_u64(flags, "breaker-k", defaults.breaker_k as u64).max(1) as u32,
        breaker_window_ms: get_u64(flags, "breaker-window-ms", defaults.breaker_window_ms).max(1),
        journal_path: flags
            .get("journal")
            .cloned()
            .or_else(|| resume.as_ref().map(|(path, _, _)| path.clone())),
        allow_kill_router: true,
        chaos_link,
        hedge_ms,
        retry_budget_pct: retry_budget_pct as u32,
        eject_k,
        eject_probation_ms: get_u64(flags, "eject-probation-ms", defaults.eject_probation_ms)
            .max(1),
    };
    let opts = StartOptions {
        procs,
        spawner,
        resume: resume.map(|(_, _, replay)| replay),
    };
    let handle = match RouterHandle::start_with(cfg, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fleet: cannot start router: {e}");
            eprintln!("{FLEET_USAGE}");
            return ExitCode::from(2);
        }
    };
    // The line CI (and humans) parse for the ephemeral port.
    println!("fastmm fleet listening on {} ({n} shards)", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let snap = handle.wait();
    println!(
        "fastmm fleet drained: {} redispatched={} dup_suppressed={} shards_killed={} \
         restarts={} breaker_open={} journal_replayed={} resumed_inflight={}",
        snap.ledger,
        snap.redispatched,
        snap.dup_suppressed,
        snap.shards_killed,
        snap.restarts,
        snap.breaker_open,
        snap.journal_replayed,
        snap.resumed_inflight
    );
    println!(
        "fastmm fleet hedging: hedges_launched={} hedges_won={} hedges_lost={} \
         hedges_cancelled={} ejections={} readmissions={} retry_budget_exhausted={}",
        snap.hedges_launched,
        snap.hedges_won,
        snap.hedges_lost,
        snap.hedges_cancelled,
        snap.ejections,
        snap.readmissions,
        snap.retry_budget_exhausted
    );
    let acked = snap.shard_acks.iter().flatten().count();
    println!(
        "fastmm fleet shards: acked={acked}/{} accepted_sum={} completed_sum={}",
        snap.shards,
        snap.shards_sum("accepted"),
        snap.shards_sum("completed")
    );
    if !snap.ledger.balanced() {
        eprintln!("fleet: router counters do not balance after drain");
        return ExitCode::FAILURE;
    }
    if !snap.hedges_balanced() {
        eprintln!("fleet: hedge counters do not balance after drain");
        return ExitCode::FAILURE;
    }
    if !snap.shards_balanced() {
        eprintln!("fleet: a shard's final counters do not balance");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "report" {
        return match &args[1..] {
            [path] if !path.starts_with("--") => cmd_report(path),
            [traces, path, rest @ ..] if traces == "--traces" && !path.starts_with("--") => {
                let top = match rest {
                    [] => 5,
                    [flag, k] if flag == "--top" => k.parse().unwrap_or_else(|_| {
                        eprintln!("--top expects a number, got '{k}'");
                        std::process::exit(2);
                    }),
                    _ => {
                        eprintln!("{REPORT_USAGE}");
                        return ExitCode::from(2);
                    }
                };
                cmd_report_traces(path, top)
            }
            _ => {
                eprintln!("{REPORT_USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if cmd == "bench" {
        return cmd_bench(&args[1..]);
    }
    if cmd == "sweep" {
        // The verbs parse their own flags; --metrics still works globally.
        let metrics = args
            .iter()
            .position(|a| a == "--metrics")
            .and_then(|i| args.get(i + 1))
            .cloned();
        if metrics.is_some() {
            fastmm::obs::set_level(fastmm::obs::Level::Full);
        }
        let code = cmd_sweep(&args[1..]);
        if let Some(path) = metrics {
            if !write_metrics(&path) {
                return ExitCode::from(2);
            }
        }
        return code;
    }
    let (allowed, usage): (&[&str], &str) = match cmd.as_str() {
        "multiply" => (&["alg", "n", "cutoff", "seed"], USAGE),
        "kernel" => (
            &["alg", "n", "cutoff", "threads", "dtype", "seed", "check"],
            KERNEL_USAGE,
        ),
        "bounds" => (&["n", "m", "p"], USAGE),
        "verify" => (&["n"], USAGE),
        "io" => (&["alg", "n", "m", "seed", "policy", "faults"], USAGE),
        "faults" => (
            &[
                "schedule", "alg", "n", "p", "levels", "spec", "recovery", "seed",
            ],
            FAULTS_USAGE,
        ),
        "pebble" => (
            &[
                "family", "m", "optimal", "len", "leaves", "rows", "cols", "n",
            ],
            USAGE,
        ),
        "dot" => (&["alg", "n", "out"], USAGE),
        "serve" => (
            &[
                "addr",
                "queue-depth",
                "workers",
                "default-deadline-ms",
                "max-line-bytes",
                "trace-seed",
                "shard-id",
                "span-id-base",
            ],
            SERVE_USAGE,
        ),
        "fleet" => (
            &[
                "shards",
                "addr",
                "queue-depth",
                "workers",
                "seed",
                "default-deadline-ms",
                "max-line-bytes",
                "probe-interval-ms",
                "max-attempts",
                "attach",
                "shard-metrics-dir",
                "supervise",
                "breaker-k",
                "breaker-window-ms",
                "journal",
                "resume",
                "chaos-link",
                "hedge-ms",
                "retry-budget-pct",
                "eject-k",
                "eject-probation-ms",
            ],
            FLEET_USAGE,
        ),
        "loadgen" => (
            &[
                "addr",
                "conns",
                "requests",
                "seed",
                "poison-pct",
                "oversized-pct",
                "tiny-deadline-pct",
                "expensive-pct",
                "deadline-ms",
                "burst",
                "shutdown",
                "fleet",
                "kill-shard-after",
                "stall-shard-after",
                "reconnect",
                "kill-router-after",
            ],
            LOADGEN_USAGE,
        ),
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = parse_flags(&args[1..], allowed, usage);
    if flags.contains_key("metrics") {
        fastmm::obs::set_level(fastmm::obs::Level::Full);
    }
    let code = match cmd.as_str() {
        "multiply" => {
            cmd_multiply(&flags);
            ExitCode::SUCCESS
        }
        "kernel" => cmd_kernel(&flags),
        "bounds" => {
            cmd_bounds(&flags);
            ExitCode::SUCCESS
        }
        "verify" => cmd_verify(&flags),
        "io" => {
            cmd_io(&flags);
            ExitCode::SUCCESS
        }
        "faults" => cmd_faults(&flags),
        "pebble" => {
            cmd_pebble(&flags);
            ExitCode::SUCCESS
        }
        "dot" => cmd_dot(&flags),
        "serve" => cmd_serve(&flags),
        "fleet" => cmd_fleet(&flags),
        "loadgen" => cmd_loadgen(&flags),
        _ => unreachable!("command validated above"),
    };
    if let Some(path) = flags.get("metrics") {
        if !write_metrics(path) {
            return ExitCode::from(2);
        }
    }
    code
}
