//! `perfprobe` — in-process layer timings for the perfbench benchmark.
//!
//! The benchmark driver measures the running `fastmm` processes from
//! outside; this binary supplies the half of the layer split that needs
//! a function call rather than a socket. Every subcommand prints one
//! JSON object per line on stdout.
//!
//! ```text
//! perfprobe fma                        peak multiply-add rate of this build
//! perfprobe proto REQUESTS REPLIES     Request::parse / Response::to_line cost
//! perfprobe classes CLASSES            one line per job class: the class's
//!                                      JobSpec run and its own layer's call
//! ```
//!
//! `CLASSES` holds protocol request lines whose `id` is the class name.
//! For each class the probe times `JobSpec::from_request(..).run()` (the
//! `jobs` layer) and the call into the layer that does the work
//! (`fmm_kernel::multiply_with_report`, `fmm_memsim::seq::measure_*`,
//! `fmm_memsim::par_faults::*_faulty`, `fmm_sweep::run_cell`), and prints
//! that layer's exact counters next to the times.

use fastmm::core::{catalog, Bilinear2x2};
use fastmm::faults::{FaultSpec, Recovery};
use fastmm::kernel::{Alg, KernelCfg};
use fastmm::matrix::Matrix;
use fastmm::memsim::cache::Policy;
use fastmm::memsim::{par_faults, seq};
use fastmm::serve::jobs::JobSpec;
use fastmm::serve::proto::{Kind, Request, Response};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Repetitions per timed call; the median is reported.
const REPS: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v[v.len() / 2]
}

/// Render a flat map as one JSON object line (keys are plain names,
/// values are numbers or already-quoted strings).
fn json_line(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Multiply-add throughput of independent accumulator chains, in
/// GFLOP/s (two flops per element step). Compiled with the same target
/// features as `fmm-kernel`, so it is the roof that kernel can reach.
fn fma_gflops() -> f64 {
    const LANES: usize = 64;
    const STEPS: usize = 400_000;
    let x = black_box([1.000_000_1f64; LANES]);
    let y = black_box([1.0e-9f64; LANES]);
    let mut rates = Vec::new();
    for _ in 0..7 {
        let mut acc = [1.0f64; LANES];
        let t = Instant::now();
        for _ in 0..STEPS {
            for l in 0..LANES {
                acc[l] = acc[l] * x[l] + y[l];
            }
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(acc);
        rates.push(2.0 * (LANES * STEPS) as f64 / secs / 1e9);
    }
    median(rates)
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

/// Mean microseconds per item of `f` over `items`, looping over the
/// whole set until at least 0.2 s has been spent.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut done = 0usize;
    let t = Instant::now();
    while done == 0 || t.elapsed().as_secs_f64() < 0.2 {
        for item in items {
            f(item);
        }
        done += items.len();
    }
    t.elapsed().as_secs_f64() * 1e6 / done as f64
}

fn cmd_proto(requests: &str, replies: &str) -> Result<(), String> {
    let reqs = read_lines(requests)?;
    let reps: Vec<Response> = read_lines(replies)?
        .iter()
        .map(|l| Response::parse(l))
        .collect::<Result<_, _>>()?;
    if reqs.is_empty() || reps.is_empty() {
        return Err("proto needs at least one request and one reply line".into());
    }
    let parse_us = per_item_us(&reqs, |l| {
        black_box(Request::parse(black_box(l)).is_ok());
    });
    let encode_us = per_item_us(&reps, |r| {
        black_box(black_box(r).to_line());
    });
    println!(
        "{}",
        json_line(&[
            ("parse_us", format!("{parse_us:.6}")),
            ("encode_us", format!("{encode_us:.6}")),
        ])
    );
    Ok(())
}

fn param<'a>(p: &'a BTreeMap<String, String>, key: &str, default: &'a str) -> &'a str {
    p.get(key).map(String::as_str).unwrap_or(default)
}

fn num(p: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match p.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad '{key}': {v}")),
    }
}

fn bilinear(name: &str) -> Bilinear2x2 {
    match name {
        "winograd" => catalog::winograd(),
        "classical" => catalog::classical(),
        _ => catalog::strassen(),
    }
}

/// A prepared call into the layer that does a class's work; each call
/// returns that layer's counters.
type LayerCall = Box<dyn Fn() -> Result<Vec<(&'static str, u64)>, String>>;

/// Build the layer call for a class: its inputs are generated here, once,
/// so only the call itself is timed. Mirrors what `JobSpec::run` does for
/// the kind, minus the job plumbing around it. `None` for kinds whose
/// work is all job plumbing (`bounds`).
fn layer_call(req: &Request) -> Result<Option<LayerCall>, String> {
    let p = &req.params;
    let seed = num(p, "seed", 42)?;
    Ok(Some(match req.kind {
        Kind::Kernel => {
            let n = num(p, "n", 64)? as usize;
            let cfg = KernelCfg {
                alg: Alg::parse(param(p, "alg", "strassen")).ok_or("bad kernel alg")?,
                cutoff: num(p, "cutoff", 64)? as usize,
                threads: num(p, "threads", 1)? as usize,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::<f64>::random_small(n, n, &mut rng);
            let b = Matrix::<f64>::random_small(n, n, &mut rng);
            Box::new(move || {
                let (c, report) = fastmm::kernel::multiply_with_report(&cfg, &a, &b);
                black_box(c);
                Ok(vec![
                    ("pack_ns", report.pack_ns),
                    ("micro_tiles", report.micro_tiles),
                    ("leaf_products", report.leaf_products),
                ])
            })
        }
        Kind::Io => {
            let (n, m) = (num(p, "n", 32)? as usize, num(p, "m", 96)? as usize);
            let algo = bilinear(param(p, "alg", "strassen"));
            let policy = param(p, "policy", "lru").to_string();
            Box::new(move || {
                let tile = seq::natural_tile(m);
                let run = |mem: &mut seq::Mem, a: &seq::TMat, b: &seq::TMat| -> seq::TMat {
                    if algo.name == "classical" {
                        seq::classical_blocked(mem, a, b, tile)
                    } else {
                        seq::fast_recursive(mem, &algo, a, b, tile)
                    }
                };
                let stats = match policy.as_str() {
                    "opt" => seq::measure_opt_seeded(n, m, seed, run),
                    "fifo" => seq::measure_seeded(n, m, Policy::Fifo, seed, run).1,
                    _ => seq::measure_seeded(n, m, Policy::Lru, seed, run).1,
                };
                Ok(vec![("io", stats.io()), ("accesses", stats.accesses)])
            })
        }
        Kind::Faults => {
            let schedule = param(p, "schedule", "cannon").to_string();
            let n = num(p, "n", 16)? as usize;
            let procs = num(p, "p", if schedule == "cannon" { 4 } else { 2 })? as usize;
            let levels = num(p, "levels", 2)? as usize;
            let spec = FaultSpec::parse(param(
                p,
                "spec",
                "seed=7,crash=0.05,drop=0.02,dup=0.01,retries=8",
            ))?;
            let recovery = Recovery::parse(param(p, "recovery", "recompute"))?;
            let plan = spec.plan();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::<i64>::random_small(n, n, &mut rng);
            let b = Matrix::<i64>::random_small(n, n, &mut rng);
            let algo = bilinear(param(p, "alg", "strassen"));
            Box::new(move || {
                let run = match schedule.as_str() {
                    "cannon" => par_faults::cannon_faulty(&a, &b, procs, &plan, recovery),
                    "3d" => par_faults::replicated_3d_faulty(&a, &b, procs, &plan, recovery),
                    _ => par_faults::caps_strassen_faulty(&algo, &a, &b, levels, &plan, recovery),
                }
                .map_err(|e| e.to_string())?;
                Ok(vec![
                    ("words", run.net.total_words),
                    ("recovery_words", run.net.recovery_words),
                ])
            })
        }
        Kind::SweepCell => {
            let spec = fastmm::sweep::SweepSpec::builtin(param(p, "spec", "smoke"))
                .ok_or("unknown sweep spec")?;
            let cell = spec
                .expand()
                .into_iter()
                .nth(num(p, "cell", 0)? as usize)
                .ok_or("sweep cell out of range")?;
            let cell_seed = fastmm::sweep::cell_seed(seed, &cell);
            Box::new(move || Ok(vec![("io", fastmm::sweep::run_cell(&cell, cell_seed)?.io)]))
        }
        _ => return Ok(None),
    }))
}

/// Time each class's job run and its layer call, alternating the two so
/// host drift hits both alike; print medians (times in ms, counters as
/// measured).
fn cmd_classes(path: &str) -> Result<(), String> {
    for line in read_lines(path)? {
        let req = Request::parse(&line)?;
        let spec = JobSpec::from_request(req.kind, &req.params)?;
        let layer = layer_call(&req)?;
        let mut exec_ms = Vec::with_capacity(REPS);
        let mut layer_ms = Vec::with_capacity(REPS);
        let mut counters: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(spec.run())?;
            exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(call) = &layer {
                let t = Instant::now();
                let out = call()?;
                layer_ms.push(t.elapsed().as_secs_f64() * 1e3);
                for (k, v) in out {
                    counters.entry(k).or_default().push(v as f64);
                }
            }
        }
        let mut fields = vec![
            ("class", format!("\"{}\"", req.id)),
            ("exec_ms", format!("{:.6}", median(exec_ms))),
        ];
        if !layer_ms.is_empty() {
            fields.push(("layer_ms", format!("{:.6}", median(layer_ms))));
        }
        fields.extend(
            counters
                .into_iter()
                .map(|(k, v)| (k, format!("{}", median(v)))),
        );
        println!("{}", json_line(&fields));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["fma"] => {
            println!(
                "{}",
                json_line(&[("gflops", format!("{:.6}", fma_gflops()))])
            );
            Ok(())
        }
        ["proto", requests, replies] => cmd_proto(requests, replies),
        ["classes", path] => cmd_classes(path),
        _ => Err("usage: perfprobe fma | proto REQUESTS REPLIES | classes CLASSES".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfprobe: {e}");
            ExitCode::from(2)
        }
    }
}
