//! Job specs: what a request's `params` mean for each [`Kind`], parsed
//! *at admission* (bad parameters are rejected before they consume a
//! queue slot) and executed on a worker.
//!
//! Parameter validation is deliberately shallow: it checks shape (numbers
//! parse, names are known) but not simulator preconditions. A Strassen
//! run at a non-power-of-two order parses fine and then panics inside the
//! simulator — that is the poison path the worker's `catch_unwind`
//! isolation exists for, and the chaos tests lean on it.

use crate::proto::Kind;
use fmm_core::{bounds, catalog, Bilinear2x2};
use fmm_faults::{FaultSpec, Recovery};
use fmm_matrix::Matrix;
use fmm_memsim::cache::Policy;
use fmm_memsim::{par, par_faults, seq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A validated, runnable job.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// Sequential cache simulation (mirrors `fastmm io`).
    Io {
        alg: String,
        n: usize,
        m: usize,
        seed: u64,
        /// `lru` / `fifo` (online, [`Policy`]) or `opt` (offline-optimal,
        /// which has its own two-pass entry point).
        policy: String,
    },
    /// Lower-bound evaluation (mirrors `fastmm bounds`).
    Bounds { n: usize, m: usize, p: usize },
    /// Fault-injected parallel schedule (mirrors `fastmm faults`).
    Faults {
        schedule: String,
        n: usize,
        p: usize,
        levels: usize,
        alg: String,
        seed: u64,
        spec: FaultSpec,
        recovery: Recovery,
    },
    /// One cell of a built-in sweep spec, by dense cell id.
    SweepCell {
        spec: String,
        cell: usize,
        seed: u64,
    },
    /// A real cache-blocked multiply (mirrors `fastmm kernel`): the one
    /// job kind that burns actual flops instead of simulating them.
    Kernel {
        alg: fmm_kernel::Alg,
        n: usize,
        cutoff: usize,
        threads: usize,
        seed: u64,
        dtype: String,
        check: bool,
    },
    /// Test-only: spin until cancelled (or `ms` elapse). Lets the
    /// deadline and drain paths be exercised without a heavyweight
    /// simulator run.
    Sleep { ms: u64 },
}

fn p_usize(params: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("param '{key}' expects a number, got '{v}'")),
    }
}

fn p_u64(params: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("param '{key}' expects a number, got '{v}'")),
    }
}

fn p_alg(params: &BTreeMap<String, String>) -> Result<String, String> {
    let alg = params
        .get("alg")
        .map(String::as_str)
        .unwrap_or("strassen")
        .to_string();
    match catalog::by_name(&alg) {
        Some(_) => Ok(alg),
        None => Err(format!(
            "unknown alg '{alg}' ({})",
            catalog::NAMES.join("|")
        )),
    }
}

fn alg_of(name: &str) -> Bilinear2x2 {
    catalog::by_name(name).expect("alg validated at admission")
}

impl JobSpec {
    /// The root span name a worker opens around this job's `run`, and the
    /// label the per-kind latency histograms use.
    pub fn span_name(&self) -> &'static str {
        match self {
            JobSpec::Io { .. } => "job.io",
            JobSpec::Bounds { .. } => "job.bounds",
            JobSpec::Faults { .. } => "job.faults",
            JobSpec::SweepCell { .. } => "job.sweep-cell",
            JobSpec::Kernel { .. } => "job.kernel",
            JobSpec::Sleep { .. } => "job.sleep",
        }
    }

    /// Validate a request's params into a runnable spec. The error is
    /// echoed to the client with a `rejected:` prefix.
    pub fn from_request(kind: Kind, params: &BTreeMap<String, String>) -> Result<JobSpec, String> {
        match kind {
            Kind::Io => {
                if params.get("sleep_ms").is_some() {
                    // Undocumented test hook, reachable only on `io`.
                    return Ok(JobSpec::Sleep {
                        ms: p_u64(params, "sleep_ms", 0)?,
                    });
                }
                let policy = params
                    .get("policy")
                    .map(String::as_str)
                    .unwrap_or("lru")
                    .to_string();
                if !matches!(policy.as_str(), "lru" | "fifo" | "opt") {
                    return Err(format!("unknown policy '{policy}' (lru|fifo|opt)"));
                }
                Ok(JobSpec::Io {
                    alg: p_alg(params)?,
                    n: p_usize(params, "n", 32)?,
                    m: p_usize(params, "m", 96)?,
                    seed: p_u64(params, "seed", seq::DEFAULT_WORKLOAD_SEED)?,
                    policy,
                })
            }
            Kind::Bounds => Ok(JobSpec::Bounds {
                n: p_usize(params, "n", 4096)?,
                m: p_usize(params, "m", 1024)?,
                p: p_usize(params, "p", 1)?,
            }),
            Kind::Faults => {
                let schedule = params
                    .get("schedule")
                    .map(String::as_str)
                    .unwrap_or("cannon")
                    .to_string();
                if !matches!(schedule.as_str(), "cannon" | "3d" | "caps") {
                    return Err(format!("unknown schedule '{schedule}' (cannon|3d|caps)"));
                }
                let spec_str = params
                    .get("spec")
                    .map(String::as_str)
                    .unwrap_or("seed=7,crash=0.05,drop=0.02,dup=0.01,retries=8");
                let spec = FaultSpec::parse(spec_str).map_err(|e| format!("bad spec: {e}"))?;
                let recovery = match params.get("recovery") {
                    None => Recovery::Recompute,
                    Some(s) => Recovery::parse(s).map_err(|e| format!("bad recovery: {e}"))?,
                };
                Ok(JobSpec::Faults {
                    n: p_usize(params, "n", 16)?,
                    p: p_usize(params, "p", if schedule == "cannon" { 4 } else { 2 })?,
                    levels: p_usize(params, "levels", 2)?,
                    alg: p_alg(params)?,
                    seed: p_u64(params, "seed", 42)?,
                    schedule,
                    spec,
                    recovery,
                })
            }
            Kind::SweepCell => {
                let spec = params
                    .get("spec")
                    .map(String::as_str)
                    .unwrap_or("smoke")
                    .to_string();
                if fmm_sweep::SweepSpec::builtin(&spec).is_none() {
                    return Err(format!("unknown sweep spec '{spec}'"));
                }
                Ok(JobSpec::SweepCell {
                    spec,
                    cell: p_usize(params, "cell", 0)?,
                    seed: p_u64(params, "seed", 42)?,
                })
            }
            Kind::Kernel => {
                let alg_name = params.get("alg").map(String::as_str).unwrap_or("strassen");
                let alg = fmm_kernel::Alg::parse(alg_name)
                    .ok_or_else(|| format!("unknown alg '{alg_name}' (classical|strassen)"))?;
                let cutoff = p_usize(params, "cutoff", 64)?;
                if cutoff == 0 {
                    return Err("param 'cutoff' must be at least 1".into());
                }
                let threads = p_usize(params, "threads", 1)?;
                if threads == 0 {
                    return Err("param 'threads' must be at least 1".into());
                }
                let dtype = params
                    .get("dtype")
                    .map(String::as_str)
                    .unwrap_or("f64")
                    .to_string();
                if !matches!(dtype.as_str(), "f64" | "i64") {
                    return Err(format!("unknown dtype '{dtype}' (f64|i64)"));
                }
                let check = match params.get("check").map(String::as_str) {
                    None => false,
                    Some("true") => true,
                    Some("false") => false,
                    Some(v) => return Err(format!("param 'check' expects true|false, got '{v}'")),
                };
                Ok(JobSpec::Kernel {
                    alg,
                    n: p_usize(params, "n", 64)?,
                    cutoff,
                    threads,
                    seed: p_u64(params, "seed", 42)?,
                    dtype,
                    check,
                })
            }
            _ => Err(format!("'{}' is not a job kind", kind.as_str())),
        }
    }

    /// Run the job; `Ok` carries the flat string→string result map that
    /// goes out in the `completed` reply. Panics (poison inputs,
    /// cancellation bails) are the *caller's* responsibility to catch.
    pub fn run(&self) -> Result<BTreeMap<String, String>, String> {
        let mut out = BTreeMap::new();
        match self {
            JobSpec::Io {
                alg,
                n,
                m,
                seed,
                policy,
            } => {
                let algo = alg_of(alg);
                let tile = seq::natural_tile(*m);
                let run = |mem: &mut seq::Mem, a: &seq::TMat, b: &seq::TMat| -> seq::TMat {
                    if algo.name == "classical" {
                        seq::classical_blocked(mem, a, b, tile)
                    } else {
                        seq::fast_recursive(mem, &algo, a, b, tile)
                    }
                };
                let stats = match policy.as_str() {
                    "opt" => seq::measure_opt_seeded(*n, *m, *seed, run),
                    "fifo" => seq::measure_seeded(*n, *m, Policy::Fifo, *seed, run).1,
                    _ => seq::measure_seeded(*n, *m, Policy::Lru, *seed, run).1,
                };
                let omega = if alg == "classical" {
                    bounds::OMEGA_CLASSICAL
                } else {
                    bounds::OMEGA_FAST
                };
                let lb = bounds::sequential(*n, *m, omega);
                out.insert("alg".into(), alg.clone());
                out.insert("io".into(), stats.io().to_string());
                out.insert("loads".into(), stats.loads.to_string());
                out.insert("stores".into(), stats.stores.to_string());
                out.insert("hits".into(), stats.hits.to_string());
                out.insert("accesses".into(), stats.accesses.to_string());
                out.insert("bound".into(), format!("{lb:.0}"));
                out.insert("ratio".into(), format!("{:.4}", stats.io() as f64 / lb));
            }
            JobSpec::Bounds { n, m, p } => {
                out.insert(
                    "classical_seq".into(),
                    format!(
                        "{:.3e}",
                        bounds::sequential(*n, *m, bounds::OMEGA_CLASSICAL)
                    ),
                );
                out.insert(
                    "fast_seq".into(),
                    format!("{:.3e}", bounds::sequential(*n, *m, bounds::OMEGA_FAST)),
                );
                if *p > 1 {
                    out.insert(
                        "fast_par".into(),
                        format!("{:.3e}", bounds::parallel(*n, *m, *p, bounds::OMEGA_FAST)),
                    );
                    out.insert(
                        "fast_par_mem_indep".into(),
                        format!(
                            "{:.3e}",
                            bounds::parallel_memory_independent(*n, *p, bounds::OMEGA_FAST)
                        ),
                    );
                }
            }
            JobSpec::Faults {
                schedule,
                n,
                p,
                levels,
                alg,
                seed,
                spec,
                recovery,
            } => {
                let plan = spec.plan();
                let mut rng = StdRng::seed_from_u64(*seed);
                let a = Matrix::<i64>::random_small(*n, *n, &mut rng);
                let b = Matrix::<i64>::random_small(*n, *n, &mut rng);
                let (matches, clean_words, run) = match schedule.as_str() {
                    "cannon" => {
                        let (clean, net) = par::cannon(&a, &b, *p);
                        let r = par_faults::cannon_faulty(&a, &b, *p, &plan, *recovery)
                            .map_err(|e| e.to_string())?;
                        (r.product == clean, net.total_words, r)
                    }
                    "3d" => {
                        let (clean, net) = par::replicated_3d(&a, &b, *p);
                        let r = par_faults::replicated_3d_faulty(&a, &b, *p, &plan, *recovery)
                            .map_err(|e| e.to_string())?;
                        (r.product == clean, net.total_words, r)
                    }
                    _ => {
                        let algo = alg_of(alg);
                        let (clean, net) = par::caps_strassen(&algo, &a, &b, *levels);
                        let r = par_faults::caps_strassen_faulty(
                            &algo, &a, &b, *levels, &plan, *recovery,
                        )
                        .map_err(|e| e.to_string())?;
                        (r.product == clean, net.total_words, r)
                    }
                };
                out.insert("matches".into(), matches.to_string());
                out.insert("clean_words".into(), clean_words.to_string());
                out.insert("total_words".into(), run.net.total_words.to_string());
                out.insert("recovery_words".into(), run.net.recovery_words.to_string());
                out.insert("crashes".into(), run.faults.crashes.to_string());
                out.insert("drops".into(), run.faults.drops.to_string());
                out.insert("retries".into(), run.faults.retries.to_string());
                out.insert("restores".into(), run.faults.restores.to_string());
            }
            JobSpec::SweepCell { spec, cell, seed } => {
                let sweep = fmm_sweep::SweepSpec::builtin(spec)
                    .ok_or_else(|| format!("unknown sweep spec '{spec}'"))?;
                let cells = sweep.expand();
                let c = cells.get(*cell).ok_or_else(|| {
                    format!("cell {cell} out of range (spec has {})", cells.len())
                })?;
                let m = fmm_sweep::run_cell(c, fmm_sweep::cell_seed(*seed, c))?;
                out.insert("key".into(), c.key());
                out.insert("io".into(), m.io.to_string());
                out.insert("words".into(), m.words.to_string());
                out.insert("flops".into(), m.flops.to_string());
                out.insert("bound".into(), format!("{:.0}", m.bound));
                out.insert("ratio".into(), format!("{:.4}", m.ratio));
            }
            JobSpec::Kernel {
                alg,
                n,
                cutoff,
                threads,
                seed,
                dtype,
                check,
            } => {
                let cfg = fmm_kernel::KernelCfg {
                    alg: *alg,
                    cutoff: *cutoff,
                    threads: *threads,
                };
                let started = std::time::Instant::now();
                let (checksum, matches) = if dtype == "i64" {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    let a = Matrix::<i64>::random_small(*n, *n, &mut rng);
                    let b = Matrix::<i64>::random_small(*n, *n, &mut rng);
                    let c = fmm_kernel::multiply(&cfg, &a, &b);
                    let sum: i64 = c.as_slice().iter().sum();
                    let matches =
                        check.then(|| c == fmm_matrix::multiply::multiply_naive(&a, &b));
                    (sum.to_string(), matches)
                } else {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    let a = Matrix::<f64>::random_small(*n, *n, &mut rng);
                    let b = Matrix::<f64>::random_small(*n, *n, &mut rng);
                    let c = fmm_kernel::multiply(&cfg, &a, &b);
                    let sum: f64 = c.as_slice().iter().sum();
                    // Small-integer entries: every partial sum is exactly
                    // representable, so this is deterministic.
                    let matches =
                        check.then(|| c == fmm_matrix::multiply::multiply_naive(&a, &b));
                    (format!("{sum:.0}"), matches)
                };
                let wall_us = started.elapsed().as_micros();
                out.insert("alg".into(), alg.as_str().into());
                out.insert("n".into(), n.to_string());
                out.insert("cutoff".into(), cutoff.to_string());
                out.insert("threads".into(), threads.to_string());
                out.insert("dtype".into(), dtype.clone());
                out.insert("checksum".into(), checksum);
                out.insert("flops".into(), fmm_kernel::classical_flops(*n).to_string());
                out.insert("wall_us".into(), wall_us.to_string());
                if let Some(matched) = matches {
                    if !matched {
                        return Err("kernel product diverged from naive reference".into());
                    }
                    out.insert("matches".into(), "true".into());
                }
            }
            JobSpec::Sleep { ms } => {
                // Cancellable by construction: polls the scoped token.
                match fmm_faults::cancel::current() {
                    Some(token) => {
                        token.cancellable_sleep(std::time::Duration::from_millis(*ms));
                        token.bail_if_cancelled();
                    }
                    None => std::thread::sleep(std::time::Duration::from_millis(*ms)),
                }
                out.insert("slept_ms".into(), ms.to_string());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn io_job_runs_and_reports_the_bound_ratio() {
        let spec = JobSpec::from_request(
            Kind::Io,
            &params(&[("alg", "classical"), ("n", "8"), ("m", "64")]),
        )
        .unwrap();
        let out = spec.run().unwrap();
        assert!(out["io"].parse::<u64>().unwrap() > 0);
        assert!(out["ratio"].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn bounds_job_reports_parallel_terms_only_when_p_gt_1() {
        let seq_only = JobSpec::from_request(Kind::Bounds, &params(&[("n", "1024")]))
            .unwrap()
            .run()
            .unwrap();
        assert!(!seq_only.contains_key("fast_par"));
        let par = JobSpec::from_request(Kind::Bounds, &params(&[("n", "1024"), ("p", "49")]))
            .unwrap()
            .run()
            .unwrap();
        assert!(par.contains_key("fast_par"));
    }

    #[test]
    fn faults_job_reproduces_the_clean_product() {
        let spec = JobSpec::from_request(
            Kind::Faults,
            &params(&[
                ("schedule", "cannon"),
                ("n", "8"),
                ("p", "4"),
                ("spec", "seed=7,drop=0.05,retries=8"),
            ]),
        )
        .unwrap();
        let out = spec.run().unwrap();
        assert_eq!(out["matches"], "true");
    }

    #[test]
    fn sweep_cell_job_matches_a_direct_run_cell_call() {
        let spec = JobSpec::from_request(
            Kind::SweepCell,
            &params(&[("spec", "smoke"), ("cell", "0")]),
        )
        .unwrap();
        let out = spec.run().unwrap();
        let sweep = fmm_sweep::SweepSpec::builtin("smoke").unwrap();
        let cell = &sweep.expand()[0];
        let direct = fmm_sweep::run_cell(cell, fmm_sweep::cell_seed(42, cell)).unwrap();
        assert_eq!(out["io"], direct.io.to_string());
        assert_eq!(out["key"], cell.key());
    }

    #[test]
    fn bad_params_are_rejected_at_parse_time() {
        assert!(JobSpec::from_request(Kind::Io, &params(&[("n", "eight")])).is_err());
        assert!(JobSpec::from_request(Kind::Io, &params(&[("policy", "mru")])).is_err());
        assert!(JobSpec::from_request(Kind::Faults, &params(&[("schedule", "ring")])).is_err());
        assert!(JobSpec::from_request(Kind::Faults, &params(&[("spec", "drop=lots")])).is_err());
        assert!(JobSpec::from_request(Kind::SweepCell, &params(&[("spec", "nope")])).is_err());
        assert!(JobSpec::from_request(Kind::Kernel, &params(&[("alg", "winograd")])).is_err());
        assert!(JobSpec::from_request(Kind::Kernel, &params(&[("cutoff", "0")])).is_err());
        assert!(JobSpec::from_request(Kind::Kernel, &params(&[("threads", "0")])).is_err());
        assert!(JobSpec::from_request(Kind::Kernel, &params(&[("dtype", "f32")])).is_err());
        assert!(JobSpec::from_request(Kind::Kernel, &params(&[("check", "yes")])).is_err());
        assert!(JobSpec::from_request(Kind::Health, &params(&[])).is_err());
    }

    #[test]
    fn unknown_alg_reason_is_pinned() {
        for kind in [Kind::Io, Kind::Faults] {
            assert_eq!(
                JobSpec::from_request(kind, &params(&[("alg", "ks")])).unwrap_err(),
                "unknown alg 'ks' (strassen|winograd|classical)"
            );
        }
    }

    #[test]
    fn kernel_job_runs_both_dtypes_and_verifies_when_asked() {
        for dtype in ["i64", "f64"] {
            let spec = JobSpec::from_request(
                Kind::Kernel,
                &params(&[
                    ("alg", "strassen"),
                    ("n", "24"),
                    ("cutoff", "8"),
                    ("dtype", dtype),
                    ("check", "true"),
                ]),
            )
            .unwrap();
            assert_eq!(spec.span_name(), "job.kernel");
            let out = spec.run().unwrap();
            assert_eq!(out["matches"], "true");
            assert_eq!(out["alg"], "strassen");
            assert_eq!(out["dtype"], dtype);
            assert_eq!(out["flops"], fmm_kernel::classical_flops(24).to_string());
            assert!(out["wall_us"].parse::<u64>().is_ok());
        }
    }

    #[test]
    fn kernel_job_checksum_is_dtype_independent_for_small_ints() {
        // Same seed, same entries: the f64 sums are exact, so both dtypes
        // land on the same checksum string.
        let run = |dtype: &str| {
            JobSpec::from_request(
                Kind::Kernel,
                &params(&[("alg", "classical"), ("n", "16"), ("dtype", dtype)]),
            )
            .unwrap()
            .run()
            .unwrap()["checksum"]
                .clone()
        };
        assert_eq!(run("i64"), run("f64"));
    }

    #[test]
    fn poison_io_job_panics_inside_run_not_at_parse() {
        // Strassen at a non-power-of-two order: valid shape, poison run.
        let spec = JobSpec::from_request(
            Kind::Io,
            &params(&[("alg", "strassen"), ("n", "24"), ("m", "96")]),
        )
        .unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run()));
        assert!(panicked.is_err(), "n=24 strassen must panic, not succeed");
    }
}
