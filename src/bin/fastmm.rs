//! `fastmm` — command-line driver for the workspace.
//!
//! [`COMMANDS`] is the whole command line: each subcommand and verb with
//! its flags, its usage text and the function that runs it.
//! [`fastmm::cli::run`] parses and dispatches against it, and gives every
//! command the global `--metrics <path>` flag, which enables full
//! telemetry ([`fastmm::obs`]) and writes the collected metrics as JSONL to
//! `path` on exit; `fastmm report` renders such a file as a table.
//!
//! Workload seeds: commands that generate random inputs accept `--seed`.
//! `multiply` defaults to 42; `io` and `sweep` default to the library's
//! [`fastmm::memsim::seq::DEFAULT_WORKLOAD_SEED`] (61453 = 0xF00D) so CLI
//! runs reproduce library defaults exactly. Simulated I/O is data-oblivious — the seed
//! varies the workload, not the traffic — but a fixed default keeps every
//! artifact byte-reproducible.

use fastmm::bench::tables;
use fastmm::cdag::dot::to_dot;
use fastmm::cdag::RecursiveCdag;
use fastmm::cli::{Args, Command};
use fastmm::core::altbasis::{karstadt_schwartz, multiply_alt_counted};
use fastmm::core::exec::multiply_fast_counted;
use fastmm::core::{catalog, lemmas, Bilinear2x2};
use fastmm::faults::{cancel, Recovery};
use fastmm::matrix::multiply::multiply_naive;
use fastmm::matrix::Matrix;
use fastmm::pebbling::families;
use fastmm::pebbling::game::run_schedule;
use fastmm::pebbling::optimal::recompute_gap;
use fastmm::pebbling::players::{belady_schedule, creation_order};
use fastmm::serve::jobs::{JobSpec, Outcome};
use fastmm::serve::proto::Kind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// `sweep run` and `sweep resume` take the same flags.
const SWEEP_RUN_FLAGS: &[&str] = &[
    "spec",
    "out",
    "seed",
    "jobs",
    "max-cells",
    "verbose",
    "cell-timeout",
    "retry-cells",
    "inject-hang",
];

/// Every command and verb, in the order the global usage lists them.
/// Continuation lines of a usage text print with the indentation they
/// are written with here.
const COMMANDS: &[Command] = &[
    Command::new(
        "multiply",
        &["alg", "n", "cutoff", "seed"],
        "usage: fastmm multiply [--alg strassen|winograd|classical|ks] [--n 128] [--cutoff 16]
       [--seed 42]
       Multiplies two seeded random matrices through the fast recursion (ks:
       the alternative-basis algorithm) and checks the product against naive.",
        cmd_multiply,
    ),
    Command::new(
        "kernel",
        &["alg", "n", "cutoff", "threads", "dtype", "seed", "check"],
        "usage: fastmm kernel [--alg classical|strassen|winograd] [--n 64] [--cutoff 64]
       [--threads 1] [--dtype f64|i64] [--seed 42] [--check]
       Runs the real cache-blocked kernel (fmm-kernel) once and prints a
       report: wall time, classical-equivalent GFLOP/s, packing time, and
       micro-tile / recursion counts. --check also runs the naive
       reference and exits 1 unless the products agree exactly.",
        cmd_kernel,
    ),
    Command::new(
        "bounds",
        &["n", "m", "p"],
        "usage: fastmm bounds [--n 4096] [--m 1024] [--p 1]
       Prints the sequential I/O lower bounds, and the parallel ones when
       --p is above 1.",
        cmd_bounds,
    ),
    Command::new(
        "verify",
        &["n"],
        "usage: fastmm verify [--n 4]
       Runs the lemma battery on every fast catalog algorithm; exits 1 if a
       check fails.",
        cmd_verify,
    ),
    Command::new(
        "io",
        &["alg", "n", "m", "seed", "policy", "faults"],
        "usage: fastmm io [--alg strassen|winograd|classical] [--n 32] [--m 96] [--seed 61453]
       [--policy lru|fifo|opt] [--faults \"flush-every=4096\"]
       Measures one multiply's I/O in a simulated cache of M words against the
       lower bound. --faults runs it twice, clean and with seeded cache wipes,
       and reports the recovery I/O (lru|fifo only).",
        cmd_io,
    ),
    Command::new(
        "faults",
        &[
            "schedule", "alg", "n", "p", "levels", "spec", "recovery", "seed",
        ],
        "usage: fastmm faults [--schedule cannon|3d|caps] [--n <order>]
       [--p <grid>] [--levels <k>] [--alg strassen|winograd] [--seed <u64>]
       [--spec \"seed=7,crash=0.02,drop=0.01,dup=0.005,retries=8,crash@3:1\"]
       [--recovery recompute|checkpoint:<period>|none]",
        cmd_faults,
    ),
    Command::new(
        "pebble",
        &[
            "family", "m", "optimal", "len", "leaves", "rows", "cols", "n",
        ],
        "usage: fastmm pebble [--family chain|tree|grid|butterfly|strassen] [--m 4] [--optimal]
       [--len 6] [--leaves 4] [--rows 3] [--cols 3] [--n <size>]
       Pebbles one CDAG with Belady's rule at cache size M; --optimal adds the
       exact optima with and without recomputation. --len sizes the chain,
       --leaves the tree, --rows and --cols the grid, --n the butterfly (8)
       or the strassen CDAG (4).",
        cmd_pebble,
    ),
    Command::new(
        "dot",
        &["alg", "n", "out"],
        "usage: fastmm dot [--alg strassen|winograd|classical] [--n 2] [--out <file.dot>]
       Writes the H_n CDAG as Graphviz to the --out file, or to stdout.",
        cmd_dot,
    ),
    Command::new(
        "tables",
        &[
            "all",
            "table1",
            "parallel",
            "fig1",
            "fig2",
            "fig3",
            "recompute",
            "flops",
            "fft",
            "policies",
            "segments",
        ],
        "usage: fastmm tables [--all] [--table1] [--parallel] [--fig1] [--fig2] [--fig3]
       [--recompute] [--flops] [--fft] [--policies] [--segments]
       Prints the paper's Table I, figure and recomputation-study sections as
       text tables, in this order: every section under --all, else the ones
       named. Under --metrics each section runs in a span named by its flag.",
        cmd_tables,
    ),
    Command {
        positional: true,
        ..Command::new(
            "report",
            &["traces", "top"],
            "usage: fastmm report <metrics.jsonl>
       fastmm report --traces <metrics.jsonl> [--top <k>]
       Without --traces: render counters/histograms/events as a table.
       With --traces: reconstruct per-job span trees from span records
       (written under FMM_OBS=full / --metrics) and rank the slowest jobs.",
            cmd_report,
        )
    },
    Command::new(
        "bench run",
        &["profile", "out", "filter", "inject-slow"],
        "usage: fastmm bench run [--profile quick|standard|full] [--out <path.json>]
       [--filter <substr>] [--inject-slow <substr>]
       --inject-slow is a test hook: it sleeps ~25 ms in every timed pass of
       the matching targets, so that bench diff has a regression to catch.",
        cmd_bench_run,
    ),
    Command::new(
        "bench diff",
        &["base", "cand", "tol", "warn-timing"],
        "usage: fastmm bench diff --base <path.json> --cand <path.json> [--tol <fraction>]
       [--warn-timing]",
        cmd_bench_diff,
    ),
    Command::new(
        "bench list",
        &[],
        "usage: fastmm bench list
       Prints the target catalog with groups, tolerances and profiles.",
        cmd_bench_list,
    ),
    Command::new(
        "sweep run",
        SWEEP_RUN_FLAGS,
        "usage: fastmm sweep run --spec <name> [--out <file>] [--seed <u64>] [--jobs <n>]
       [--max-cells <k>] [--cell-timeout <ms>] [--retry-cells <n>] [--verbose]
       [--inject-hang <cell>:<ms>]
       --inject-hang is a test hook: cell <cell> sleeps <ms> milliseconds, so
       that a timeout can be provoked on purpose.",
        cmd_sweep_run,
    ),
    Command::new(
        "sweep resume",
        SWEEP_RUN_FLAGS,
        "usage: fastmm sweep resume --spec <name> [--out <file>] [--seed <u64>] [--jobs <n>]
       [--max-cells <k>] [--cell-timeout <ms>] [--retry-cells <n>] [--verbose]
       [--inject-hang <cell>:<ms>]
       Runs only the cells the --out file lacks, under the seed it was started
       with unless --seed is given. The flags are those of sweep run.",
        cmd_sweep_run,
    ),
    Command::new(
        "sweep report",
        &["file"],
        "usage: fastmm sweep report --file <file>",
        cmd_sweep_report,
    ),
    Command::new(
        "sweep diff",
        &["base", "cand", "tol"],
        "usage: fastmm sweep diff --base <file> --cand <file> [--tol <fraction>]",
        cmd_sweep_diff,
    ),
    Command::new(
        "sweep specs",
        &[],
        "usage: fastmm sweep specs
       Lists the built-in sweep specs.",
        cmd_sweep_specs,
    ),
    Command::new(
        "serve",
        &[
            "addr",
            "queue-depth",
            "workers",
            "trace-seed",
            "shard-id",
            "span-id-base",
        ],
        "usage: fastmm serve [--addr 127.0.0.1:0] [--queue-depth 32] [--workers 2]
       [--trace-seed <u64>] [--shard-id <i>] [--span-id-base <u64>]
       Prints 'fastmm serve listening on HOST:PORT', serves until a client
       sends {\"kind\":\"shutdown\"}, then drains and exits 0. --shard-id tags
       health/stats replies when the server runs as a fleet shard;
       --span-id-base partitions span ids so merged fleet traces never
       collide.",
        cmd_serve,
    ),
    Command::new(
        "fleet",
        &[
            "shards",
            "addr",
            "queue-depth",
            "workers",
            "seed",
            "probe-interval-ms",
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
        "usage: fastmm fleet [--shards 3] [--addr 127.0.0.1:0] [--queue-depth 32]
       [--workers 2] [--seed 0] [--probe-interval-ms 100] [--attach host:port,...]
       [--shard-metrics-dir <dir>] [--supervise] [--breaker-k 3]
       [--breaker-window-ms 30000] [--journal <path>] [--resume <path>]
       [--chaos-link \"seed=7,delay-ms=200@shard2,stall-after=40@shard1,garble=0.01\"]
       [--hedge-ms <ms>] [--retry-budget-pct 10] [--eject-k 4] [--eject-probation-ms 1000]
       Spawns N `fastmm serve` shard processes (or attaches to --attach
       addresses), routes jobs to shards by spec hash, prints
       'fastmm fleet listening on HOST:PORT (N shards)', serves until a client
       sends {\"kind\":\"shutdown\"}, drains every shard, and exits 0 iff the
       fleet-wide conservation law holds. --supervise respawns dead shards at
       the same ring index (a crash loop of --breaker-k deaths inside
       --breaker-window-ms quarantines the shard instead). --journal writes a
       write-ahead job journal; --resume <journal> rebuilds counters, the
       idempotency map, and the in-flight set after a router SIGKILL,
       reattaching to the journal's recorded shard addresses and appending
       to the same journal (so it takes no --journal). --chaos-link
       wraps every shard reply connection in a seeded gray-failure adversary
       (delay/stall/garble; also enables the stall-shard verb and turns
       hedging on with an auto p95 delay). --hedge-ms sets a fixed hedge
       delay (0 = off). Hedges and the re-dispatch of jobs a shard sheds
       back spend a shared budget of --retry-budget-pct% of accepted jobs;
       jobs orphaned by a shard's death re-dispatch free, up to five
       attempts. A shard whose latency EWMA exceeds --eject-k x the
       fleet median is ejected, then re-admitted after --eject-probation-ms.
       Fleet-only verbs: fleet-stats, drain-shard (params.shard), kill-shard
       (chaos SIGKILL, params.seed or params.shard), kill-router (journaled
       fleets), stall-shard (chaos-link fleets).",
        cmd_fleet,
    ),
    Command::new(
        "loadgen",
        &[
            "addr",
            "conns",
            "requests",
            "seed",
            "expensive-pct",
            "burst",
            "shutdown",
            "fleet",
            "kill-shard-after",
            "stall-shard-after",
            "reconnect",
            "kill-router-after",
        ],
        "usage: fastmm loadgen --addr <host:port> [--conns 4] [--requests 250]
       [--seed 1] [--expensive-pct 10] [--burst <n>] [--shutdown]
       [--fleet] [--kill-shard-after <n>] [--stall-shard-after <n>]
       [--reconnect <n>] [--kill-router-after <n>]
       Drives a seeded chaos mix (10% poison, 5% oversized and 5% tiny-deadline
       requests, --expensive-pct expensive ones) and prints a one-line JSON
       summary; exits nonzero if any request was lost or the server counters
       don't balance.
       --fleet targets a `fastmm fleet` router; --kill-shard-after N (fleet
       only) SIGKILLs one seeded-chosen shard once N requests are in flight
       and still demands zero lost replies; --stall-shard-after N (fleet only,
       the fleet must run a chaos link) freezes one seeded-chosen shard's
       reply link mid-run — a gray failure the fleet must hedge around.
       --reconnect N survives a vanished server with up to N seeded-backoff
       reconnects per connection, re-sending unsettled requests under the same
       client_tag (0 = old fail-fast behaviour); --kill-router-after N (fleet
       only, needs --reconnect) SIGKILLs the router itself mid-run — resume it
       from its journal and the run must still lose nothing.",
        cmd_loadgen,
    ),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    fastmm::cli::run(COMMANDS, &argv)
}

/// Runs the selected [`tables::SECTIONS`] in their table order.
fn cmd_tables(args: &Args) -> ExitCode {
    let selected: Vec<&(&str, fn())> = tables::SECTIONS
        .iter()
        .filter(|(flag, _)| args.flag("all") || args.flag(&flag[2..]))
        .collect();
    if selected.is_empty() {
        args.die("tables needs --all or at least one section flag");
    }
    for (flag, run) in selected {
        fastmm::obs::event("tables.section", &[("flag", flag.to_string())]);
        let _span = fastmm::obs::Span::enter(flag);
        run();
    }
    ExitCode::SUCCESS
}

/// The catalog algorithm `--alg` names. Any other name exits 2 with the
/// names the command accepts: the catalog's, then its own `extra` ones.
fn algorithm(args: &Args, extra: &[&str]) -> Bilinear2x2 {
    let name = args.str("alg").unwrap_or("strassen");
    catalog::by_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = catalog::NAMES.iter().chain(extra).copied().collect();
        args.die(&format!("unknown algorithm '{name}' ({})", names.join("|")))
    })
}

fn cmd_multiply(args: &Args) -> ExitCode {
    let n: usize = args.get("n", 128);
    let cutoff: usize = args.get("cutoff", 16);
    let mut rng = StdRng::seed_from_u64(args.get("seed", 42));
    let a = Matrix::<i64>::random_small(n, n, &mut rng);
    let b = Matrix::<i64>::random_small(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);

    if args.str("alg") == Some("ks") {
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
        return ExitCode::SUCCESS;
    }
    let alg = algorithm(args, &["ks"]);
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
    ExitCode::SUCCESS
}

/// A workload command (`io`, `bounds`, `faults`, `kernel`) runs the
/// server's job of the same name: its flags are the params a request
/// would carry, checked by the job's own validator (a bad one exits 2),
/// and the job runs as a server worker runs it (a failed run prints one
/// line, `context: reason` or `panic: …`, and exits 1). `print` renders
/// the outcome as text and picks the exit code.
fn workload(args: &Args, kind: Kind, print: impl FnOnce(&Outcome) -> ExitCode) -> ExitCode {
    let spec =
        JobSpec::validate(kind, &args.params()).unwrap_or_else(|e| args.die(&e.flag_message()));
    match cancel::isolate(|| spec.execute()) {
        Ok(Ok(outcome)) => print(&outcome),
        Ok(Err(e)) => {
            match &spec {
                JobSpec::Faults(job) => eprintln!("faults {}: {e}", job.schedule),
                _ => eprintln!("{}: {e}", args.command()),
            }
            ExitCode::FAILURE
        }
        Err(stopped) => {
            eprintln!("{stopped}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_kernel(args: &Args) -> ExitCode {
    workload(args, Kind::Kernel, |outcome| {
        let Outcome::Kernel(job, run) = outcome else {
            unreachable!("a kernel job measures a multiply")
        };
        let (report, flops, wall) = (&run.report, run.flops, run.wall);
        let (n, cutoff, threads, dtype) = (job.n, job.cutoff, job.threads, &job.dtype);
        let alg = job.alg.as_str();
        println!("{alg} kernel, n = {n}, cutoff = {cutoff}, threads = {threads}, dtype = {dtype}");
        println!("  wall time:      {wall:?}");
        let gflops = flops as f64 / wall.as_secs_f64() / 1e9;
        println!("  rate:           {gflops:.2} GFLOP/s (classical-equivalent, {flops} flops)");
        let pack = std::time::Duration::from_nanos(report.pack_ns);
        println!("  packing time:   {pack:?}");
        println!("  micro tiles:    {}", report.micro_tiles);
        if job.alg != fastmm::kernel::Alg::Classical {
            println!("  leaf products:  {}", report.leaf_products);
            println!("  level products: {:?}", report.level_products);
        }
        match run.matches {
            Some(true) => println!("  check:          product matches naive reference"),
            Some(false) => eprintln!("  check:          MISMATCH against naive reference"),
            None => {}
        }
        exit(run.matches != Some(false))
    })
}

fn cmd_bounds(args: &Args) -> ExitCode {
    workload(args, Kind::Bounds, |outcome| {
        let Outcome::Bounds(job, run) = outcome else {
            unreachable!("a bounds job measures bounds")
        };
        let (n, m, p) = (job.n, job.m, job.p);
        println!("I/O lower bounds at n = {n}, M = {m}, P = {p}:");
        println!("  classical sequential:   Ω ≈ {:.3e}", run.classical_seq);
        let fast = run.fast_seq;
        println!("  fast (2×2) sequential:  Ω ≈ {fast:.3e}   [holds with recomputation]");
        if let Some([max, dependent, independent, crossover]) = run.parallel {
            println!("  fast parallel (max):    Ω ≈ {max:.3e}");
            println!("    memory-dependent:     Ω ≈ {dependent:.3e}");
            println!("    memory-independent:   Ω ≈ {independent:.3e}");
            println!("    crossover M*:         {crossover:.3e}");
        }
        ExitCode::SUCCESS
    })
}

fn cmd_verify(args: &Args) -> ExitCode {
    let n = args.get("n", 4);
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

fn cmd_io(args: &Args) -> ExitCode {
    workload(args, Kind::Io, |outcome| {
        let Outcome::Io(job, run) = outcome else {
            unreachable!("an io job measures a cache simulation")
        };
        let (alg, n, m, seed, tile) = (&job.alg.name, job.n, job.m, job.seed, run.tile);
        let policy = job.policy.as_str().to_uppercase();
        let head = format!("{alg} at n = {n}, M = {m} ({policy}, tile {tile}, seed {seed})");
        let (io, stats) = (run.clean.stats.io(), &run.clean.stats);
        let (Some(faulty), Some(every)) = (&run.faulty, job.flush_every) else {
            println!("{head}:");
            let (loads, stores) = (stats.loads, stats.stores);
            println!("  measured I/O:  {io} ({loads} loads, {stores} stores)");
            println!("  lower bound:   {:.0}", run.bound);
            println!("  ratio:         {:.2}", io as f64 / run.bound);
            return ExitCode::SUCCESS;
        };
        // Seeded cache wipes: the same workload, run clean and faulty.
        let matches = faulty.product == run.clean.product;
        let (faulty_io, flushes) = (faulty.stats.io(), faulty.flushes);
        let recovery = faulty_io.saturating_sub(io);
        println!("{head} under faults flush-every={every}:");
        println!("  product:       {}", verdict(matches));
        println!("  clean I/O:     {io}");
        println!("  faulty I/O:    {faulty_io} ({flushes} cache flush(es) injected)");
        let percent = 100.0 * recovery as f64 / io.max(1) as f64;
        println!("  recovery I/O:  {recovery} (+{percent:.2}%)");
        exit(matches)
    })
}

/// How a faulty run's product compares with the fault-free one's.
fn verdict(matches: bool) -> &'static str {
    if matches {
        "matches fault-free run"
    } else {
        "DIVERGES FROM FAULT-FREE RUN"
    }
}

/// Exit 0 when the run's invariants hold, else 1.
fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `fastmm faults` — run a distributed schedule under a seeded fault
/// plan, verify the recovered product against the fault-free run, and
/// report the communication cost of the faults.
fn cmd_faults(args: &Args) -> ExitCode {
    workload(args, Kind::Faults, |outcome| {
        let Outcome::Faults(job, run) = outcome else {
            unreachable!("a faults job measures a faulty schedule")
        };
        let (schedule, n, p, f) = (&job.schedule, job.n, job.p, &run.faults);
        let detail = match schedule.as_str() {
            "caps" => format!("{}, n = {n}, levels = {}", job.alg.name, job.levels),
            _ => format!("n = {n}, p = {p}"),
        };
        let (spec, recovery) = (job.spec.canonical(), job.recovery.as_string());
        println!("fault injection: {schedule} ({detail}), spec {spec}, recovery {recovery}");
        println!("  product:         {}", verdict(run.matches));
        let (total, clean, recovery) = (run.total_words, run.clean_words, run.recovery_words);
        println!("  total words:     {total} (fault-free {clean})");
        let percent = 100.0 * recovery as f64 / clean.max(1) as f64;
        println!("  recovery words:  {recovery} (+{percent:.2}%)");
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
        exit(run.matches || (matches!(job.recovery, Recovery::None) && f.unrecovered > 0))
    })
}

fn cmd_pebble(args: &Args) -> ExitCode {
    let m = args.get("m", 4);
    let fam = args.str("family").unwrap_or("tree");
    let g = match fam {
        "chain" => families::chain(args.get("len", 6)),
        "tree" => families::binary_tree(args.get("leaves", 4)),
        "grid" => families::dp_grid(args.get("rows", 3), args.get("cols", 3)),
        "butterfly" => families::butterfly(args.get("n", 8)),
        "strassen" => RecursiveCdag::build(&catalog::strassen().to_base(), args.get("n", 4)).graph,
        other => args.die(&format!(
            "unknown family '{other}' (chain|tree|grid|butterfly|strassen)"
        )),
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
    if args.flag("optimal") {
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
    ExitCode::SUCCESS
}

fn cmd_dot(args: &Args) -> ExitCode {
    let n = args.get("n", 2);
    let alg = algorithm(args, &[]);
    let h = RecursiveCdag::build(&alg.to_base(), n);
    let dot = to_dot(&h.graph, &format!("{}_H{n}", alg.name));
    match args.str("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, dot) {
                args.die(&format!("cannot write '{path}': {e}"));
            }
            println!("wrote {path}");
        }
        None => print!("{dot}"),
    }
    ExitCode::SUCCESS
}

/// `fastmm report` — render a JSONL metrics file (written by `--metrics`)
/// as a table, or, with `--traces`, reconstruct per-job span trees from
/// its span records and rank the slowest jobs.
fn cmd_report(args: &Args) -> ExitCode {
    use fastmm::obs::json::{parse_line, Value};
    let (path, top) = match (args.positional(), args.path("traces")) {
        (Some(path), None) if !args.flag("top") => (path, None),
        (None, Some(path)) => (path, Some(args.get("top", 5))),
        _ => args.die("report takes one metrics file: <file>, or --traces <file>"),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(top) = top {
        print!("{}", fastmm::obs::trace::render_report(&text, top));
        return ExitCode::SUCCESS;
    }
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut events: std::collections::HashMap<String, u64> = Default::default();
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

/// `fastmm bench run` — run the fmm-bench target catalog.
fn cmd_bench_run(args: &Args) -> ExitCode {
    use fastmm::bench::targets::{run_targets, Profile, RunOptions};
    let opts = RunOptions {
        profile: args
            .opt_with("profile", "quick|standard|full", Profile::parse)
            .unwrap_or(Profile::Quick),
        filter: args.opt("filter"),
        inject_slow: args.opt("inject-slow"),
    };
    let doc = run_targets(&opts);
    if doc.targets.is_empty() {
        args.die(&format!(
            "bench run: no targets matched{}",
            opts.filter
                .as_deref()
                .map(|f| format!(" filter '{f}'"))
                .unwrap_or_default()
        ));
    }
    print!("{}", doc.render_table());
    if let Some(out) = args.str("out") {
        if let Err(e) = std::fs::write(out, doc.to_jsonl()) {
            args.die(&format!("cannot write '{out}': {e}"));
        }
        println!("bench document written to {out}");
    }
    ExitCode::SUCCESS
}

/// `fastmm bench diff` — gate a candidate bench document against a
/// baseline.
fn cmd_bench_diff(args: &Args) -> ExitCode {
    use fastmm::bench::diff::{diff, DiffOptions};
    use fastmm::bench::doc::BenchDoc;
    let load = |key: &str| -> BenchDoc {
        let path: String = args.req(key);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| args.die(&format!("cannot read '{path}': {e}")));
        BenchDoc::parse(&text).unwrap_or_else(|e| args.die(&format!("'{path}': {e}")))
    };
    let base = load("base");
    let cand = load("cand");
    let opts = DiffOptions {
        tol_override: args.opt_with("tol", "a fraction", |v| v.parse().ok()),
    };
    let report = diff(&base, &cand, &opts);
    print!("{}", report.render());
    if report.is_clean(args.flag("warn-timing")) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_bench_list(_: &Args) -> ExitCode {
    let targets = fastmm::bench::targets::all_targets();
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

/// `fastmm sweep run` and `fastmm sweep resume` — execute a built-in
/// sweep spec into a checkpoint file, from scratch or from where an
/// earlier run stopped.
fn cmd_sweep_run(args: &Args) -> ExitCode {
    use fastmm::sweep::{checkpoint, engine, SweepSpec};
    let name: String = args.req("spec");
    let spec = SweepSpec::builtin(&name).unwrap_or_else(|| {
        args.die(&format!(
            "unknown spec '{name}' (built-ins: {})",
            SweepSpec::builtin_names().join(", ")
        ))
    });
    let out = args
        .opt("out")
        .unwrap_or_else(|| format!("sweep_{}.jsonl", spec.name));
    let resume = args.command() == "sweep resume";
    let default_seed = if resume {
        // Unless overridden, continue with the seed the checkpoint was
        // started with. A torn tail is the resume engine's job to
        // repair, not a reason to refuse the resume.
        match checkpoint::read(&out) {
            Ok(c) => c.header.seed,
            Err(e) => args.die(&e.to_string()),
        }
    } else {
        fastmm::memsim::seq::DEFAULT_WORKLOAD_SEED
    };
    let cfg = engine::RunConfig {
        seed: args.get("seed", default_seed),
        jobs: args.get("jobs", 0),
        max_cells: args.opt("max-cells"),
        verbose: args.flag("verbose"),
        cell_timeout_ms: args.opt("cell-timeout"),
        cell_retries: args.get("retry-cells", 0),
        inject_hang: args.opt_with("inject-hang", "<cell>:<millis>", |v| {
            let (cell, ms) = v.split_once(':')?;
            Some((cell.parse().ok()?, ms.parse().ok()?))
        }),
    };
    let total = spec.expand().len();
    let result = if resume {
        engine::resume_file(&spec, &cfg, &out)
    } else {
        engine::run_to_file(&spec, &cfg, &out)
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
        Err(e) => args.die(&format!("{} failed: {e}", args.command())),
    }
}

/// `fastmm sweep report` — summarise a sweep checkpoint file.
fn cmd_sweep_report(args: &Args) -> ExitCode {
    use fastmm::sweep::{checkpoint, report};
    let path: String = args.req("file");
    let (header, records) = checkpoint::load(&path).unwrap_or_else(|e| args.die(&e.to_string()));
    let summary = report::summarize(&records);
    print!("{}", report::render(&header, &summary));
    ExitCode::SUCCESS
}

/// `fastmm sweep diff` — compare two sweep checkpoint files cell by cell.
fn cmd_sweep_diff(args: &Args) -> ExitCode {
    use fastmm::sweep::{checkpoint, diff};
    let base: String = args.req("base");
    let cand: String = args.req("cand");
    let tol = args
        .opt_with("tol", "a fraction", |v| v.parse().ok())
        .unwrap_or(0.0);
    let load = |path: &str| match checkpoint::load(path) {
        Ok((_, records)) => records,
        Err(e) => args.die(&e.to_string()),
    };
    let d = diff::diff(&load(&base), &load(&cand), tol);
    print!("{}", diff::render(&d, tol));
    if d.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_sweep_specs(_: &Args) -> ExitCode {
    use fastmm::sweep::SweepSpec;
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

fn cmd_serve(args: &Args) -> ExitCode {
    use fastmm::serve::{ServerConfig, ServerHandle};
    if let Some(base) = args.opt("span-id-base") {
        // Fleet shards get disjoint span-id ranges so their span JSONL
        // can be merged into one trace without id collisions.
        fastmm::obs::span::set_span_id_base(base);
    }
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: args.get("addr", defaults.addr),
        queue_depth: args.get("queue-depth", defaults.queue_depth).max(1),
        workers: args.get("workers", defaults.workers).max(1),
        trace_seed: args.get("trace-seed", defaults.trace_seed),
        shard_id: args.opt("shard-id"),
        ..defaults
    };
    let handle =
        ServerHandle::start(cfg).unwrap_or_else(|e| args.die(&format!("serve: cannot bind: {e}")));
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

fn cmd_loadgen(args: &Args) -> ExitCode {
    use fastmm::serve::{loadgen, LoadgenConfig};
    let Some(addr) = args.opt("addr") else {
        args.die("loadgen: --addr <host:port> is required");
    };
    let defaults = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        addr,
        conns: args.get("conns", defaults.conns).max(1),
        requests: args.get("requests", defaults.requests),
        seed: args.get("seed", defaults.seed),
        expensive_pct: args.get("expensive-pct", defaults.expensive_pct),
        burst: args.opt("burst"),
        shutdown: args.flag("shutdown"),
        fleet: args.flag("fleet"),
        kill_shard_after: args.opt("kill-shard-after"),
        stall_shard_after: args.opt("stall-shard-after"),
        reconnect: args.get("reconnect", 0),
        kill_router_after: args.opt("kill-router-after"),
        ..defaults
    };
    for (wrong, message) in [
        (
            cfg.kill_shard_after.is_some() && !cfg.fleet,
            "--kill-shard-after is a fleet chaos flag; add --fleet",
        ),
        (
            cfg.stall_shard_after.is_some() && !cfg.fleet,
            "--stall-shard-after is a fleet chaos flag; add --fleet",
        ),
        (
            cfg.kill_router_after.is_some() && !cfg.fleet,
            "--kill-router-after is a fleet chaos flag; add --fleet",
        ),
        (
            cfg.kill_router_after.is_some() && cfg.reconnect == 0,
            "--kill-router-after needs --reconnect N so workers survive the router's death",
        ),
        // The burst phase leans on pause/resume, which the router
        // rejects (queue discipline is per-shard, not fleet-wide).
        (
            cfg.fleet && cfg.burst.is_some(),
            "--burst drives a single server's pause/resume; drop it with --fleet",
        ),
    ] {
        if wrong {
            args.die(message);
        }
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
fn cmd_fleet(args: &Args) -> ExitCode {
    use fastmm::router::{
        journal, Journal, RouterConfig, RouterHandle, ShardSpawner, StartOptions,
    };
    // --resume loads the journal up front: the header fixes the shard
    // addresses and the seed (ring geometry must match the dead router's),
    // and the records rebuild counters + the in-flight set.
    let resume = args.str("resume").map(|path| {
        if args.flag("attach") {
            args.die("--resume replays the journal's recorded shard addresses; drop --attach");
        }
        if args.flag("journal") {
            args.die("--resume keeps appending to the journal it replays; drop --journal");
        }
        match Journal::reopen(path) {
            Ok((contents, journal)) => {
                if let Some(t) = contents.torn {
                    eprintln!(
                        "fleet: journal tail torn at line {} ({}); truncated",
                        t.line, t.reason
                    );
                }
                let replay = journal::replay(&contents.records);
                (contents.header, replay, journal)
            }
            Err(e) => args.die(&format!("fleet: cannot resume: {e}")),
        }
    });
    let seed = args.get(
        "seed",
        resume.as_ref().map_or(0, |(header, _, _)| header.seed),
    );
    // Every flag is parsed BEFORE any shard is spawned: a die() after
    // that point would orphan shard children still holding our stderr
    // pipe, wedging callers that wait on it.
    let chaos_link = args.str("chaos-link").map(|spec| {
        fastmm::faults::LinkChaosSpec::parse(spec)
            .unwrap_or_else(|e| args.die(&format!("--chaos-link: {e}")))
    });
    let defaults = RouterConfig::default();
    let retry_budget_pct = args.get("retry-budget-pct", defaults.retry_budget_pct);
    if retry_budget_pct > 100 {
        args.die(&format!(
            "--retry-budget-pct must be 0..=100, got {retry_budget_pct}"
        ));
    }
    let mut cfg = RouterConfig {
        addr: args.get("addr", defaults.addr),
        shard_addrs: Vec::new(),
        seed,
        poll_ms: args.get("probe-interval-ms", defaults.poll_ms),
        supervise: args.flag("supervise"),
        breaker_k: args.get("breaker-k", defaults.breaker_k).max(1),
        breaker_window_ms: args
            .get("breaker-window-ms", defaults.breaker_window_ms)
            .max(1),
        allow_kill_router: true,
        // Hedging defaults on (auto p95 delay) exactly when the chaos
        // link layer is active — gray failures are what hedges exist for
        // — and off otherwise, keeping clean-fleet runs byte-stable.
        // --hedge-ms overrides either way (0 = off, N = fixed delay).
        hedge_ms: args.opt("hedge-ms").or(chaos_link.is_none().then_some(0)),
        chaos_link,
        retry_budget_pct,
        eject_k: args
            .opt_with("eject-k", "a multiplier greater than 1", |v| {
                v.parse().ok().filter(|k: &f64| *k > 1.0)
            })
            .unwrap_or(defaults.eject_k),
        eject_probation_ms: args
            .get("eject-probation-ms", defaults.eject_probation_ms)
            .max(1),
        ..defaults
    };
    // The spawned shards' own sizing, for the first spawn and for every
    // --supervise respawn.
    let shard_defaults = fastmm::serve::ServerConfig::default();
    let queue_depth = args.get("queue-depth", shard_defaults.queue_depth).max(1);
    let workers = args.get("workers", shard_defaults.workers).max(1);
    let metrics_dir: Option<String> = args.opt("shard-metrics-dir");
    let spawn: ShardSpawner = std::sync::Arc::new(move |idx: usize| {
        spawn_shard(idx, queue_depth, workers, seed, metrics_dir.as_deref())
            .map(|(addr, child)| (addr, Some(child)))
    });
    // Kill the shards spawned so far before a die(): orphans would keep
    // our stderr pipe open.
    let reap = |procs: &mut Vec<Option<std::process::Child>>| {
        for p in procs.iter_mut().flatten() {
            let _ = p.kill();
            let _ = p.wait();
        }
    };
    let mut procs: Vec<Option<std::process::Child>> = Vec::new();
    if let Some((header, _, _)) = &resume {
        cfg.shard_addrs = header.shard_addrs.clone();
    } else if let Some(list) = args.str("attach") {
        cfg.shard_addrs = list
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if cfg.shard_addrs.is_empty() {
            args.die("--attach expects host:port[,host:port...]");
        }
    } else {
        let shards = args.get("shards", 3);
        if shards == 0 {
            args.die("--shards must be at least 1");
        }
        for idx in 0..shards {
            match spawn(idx) {
                Ok((addr, child)) => {
                    cfg.shard_addrs.push(addr);
                    procs.push(child);
                }
                Err(e) => {
                    reap(&mut procs);
                    args.die(&format!("fleet: {e}"));
                }
            }
        }
    }
    procs.resize_with(cfg.shard_addrs.len(), || None);
    let n = cfg.shard_addrs.len();
    // A resume appends to the journal it replayed; --journal creates one
    // over the shard addresses just settled.
    let (replay, journal) = match resume {
        Some((_, replay, journal)) => (Some(replay), Some(journal)),
        None => {
            let create = |path: &str| Journal::create(path, cfg.seed, &cfg.shard_addrs);
            match args.str("journal").map(create).transpose() {
                Ok(journal) => (None, journal),
                Err(e) => {
                    reap(&mut procs);
                    args.die(&format!("fleet: {e}"));
                }
            }
        }
    };
    let opts = StartOptions {
        procs,
        spawner: cfg.supervise.then_some(spawn),
        journal,
        resume: replay,
    };
    let handle = RouterHandle::start_with(cfg, opts)
        .unwrap_or_else(|e| args.die(&format!("fleet: cannot start router: {e}")));
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

#[cfg(test)]
mod tests {
    use super::COMMANDS;
    use std::collections::BTreeSet;

    /// Every `--name` that `text` mentions.
    fn flag_names(text: &str) -> BTreeSet<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn tables_flags_are_all_and_the_sections() {
        let cmd = COMMANDS.iter().find(|c| c.name == "tables").unwrap();
        let sections = fastmm::bench::tables::SECTIONS.iter().map(|(f, _)| &f[2..]);
        let expected: Vec<&str> = std::iter::once("all").chain(sections).collect();
        assert_eq!(cmd.flags, expected);
    }

    #[test]
    fn every_usage_names_exactly_its_flags() {
        for cmd in COMMANDS {
            let mut named = flag_names(cmd.usage);
            // The global flag every command takes.
            named.remove("metrics");
            let flags: BTreeSet<&str> = cmd.flags.iter().copied().collect();
            assert_eq!(named, flags, "usage of '{}'", cmd.name);
        }
    }
}
