//! Jobs: what a request's `params` mean for each [`Kind`] — defaults,
//! validation and execution, in one place. A job *is* the `fastmm`
//! command of the same name (`io`, `bounds`, `faults`, `kernel`): the
//! command maps its flags to the same params, validates them with
//! [`JobSpec::validate`], runs the spec under [`cancel::isolate`] and prints the
//! typed [`Outcome`] as text. The server parses params at admission
//! ([`JobSpec::from_request`]: bad ones are rejected before they consume
//! a queue slot), runs the job on a worker under the same [`cancel::isolate`] and
//! replies with `Outcome::fields`.
//!
//! Validation checks shape (numbers parse, names are known, sizes are at
//! least 1) but not simulator preconditions. A Strassen run at a
//! non-power-of-two order parses fine and then panics inside the
//! simulator — that is the poison path [`cancel::isolate`] exists for, and the
//! chaos tests lean on it.

use crate::proto::Kind;
use fmm_core::{bounds, catalog, Bilinear2x2};
use fmm_faults::cancel;
use fmm_faults::{FaultPlan, FaultSpec, FaultStats, Recovery};
use fmm_kernel::{KernelCfg, Report, Workspace};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::{Matrix, Scalar};
use fmm_memsim::par_faults;
use fmm_memsim::seq::{self, Replacement, Simulated};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A validated, runnable job.
#[derive(Clone, Debug)]
pub enum JobSpec {
    Io(Io),
    Bounds(Bounds),
    Faults(Faults),
    /// One cell of a built-in sweep spec, by dense cell id.
    SweepCell {
        spec: String,
        cell: usize,
        seed: u64,
    },
    Kernel(Kernel),
    /// Test-only: spin until cancelled (or `ms` elapse). Lets the
    /// deadline and drain paths be exercised without a heavyweight
    /// simulator run.
    Sleep {
        ms: u64,
    },
}

/// `fastmm io`: one seeded multiply through a simulated cache of `m`
/// words, against the Theorem 1.1 bound.
#[derive(Clone, Debug)]
pub struct Io {
    /// `classical` runs blocked, not through its 2×2 form.
    pub alg: Bilinear2x2,
    pub n: usize,
    pub m: usize,
    pub seed: u64,
    pub policy: Replacement,
    /// Also run it with a cache wipe every this many accesses.
    pub flush_every: Option<u64>,
}

/// `fastmm bounds`: the I/O lower bounds at (n, M, P).
#[derive(Clone, Debug)]
pub struct Bounds {
    pub n: usize,
    pub m: usize,
    pub p: usize,
}

/// `fastmm faults`: a distributed schedule under a seeded fault plan,
/// against its fault-free run.
#[derive(Clone, Debug)]
pub struct Faults {
    pub schedule: String,
    pub n: usize,
    pub p: usize,
    pub levels: usize,
    /// The algorithm `caps` runs.
    pub alg: Bilinear2x2,
    pub seed: u64,
    pub spec: FaultSpec,
    pub recovery: Recovery,
}

/// `fastmm kernel`: a real cache-blocked multiply, the one job that burns
/// actual flops instead of simulating them.
#[derive(Clone, Debug)]
pub struct Kernel {
    pub alg: fmm_kernel::Alg,
    pub n: usize,
    pub cutoff: usize,
    pub threads: usize,
    pub seed: u64,
    pub dtype: String,
    pub check: bool,
}

/// What a job measured, next to the job: `Outcome::fields` is the
/// reply map, and the `fastmm` command of the same name prints it.
#[derive(Clone, Debug)]
pub enum Outcome<'a> {
    Io(&'a Io, IoRun),
    Bounds(&'a Bounds, BoundsRun),
    Faults(&'a Faults, FaultsRun),
    /// The cell's key and what it measured.
    SweepCell(String, fmm_sweep::Measurement),
    Kernel(&'a Kernel, KernelRun),
    Slept(u64),
}

#[derive(Clone, Debug)]
pub struct IoRun {
    pub tile: usize,
    /// The Theorem 1.1 sequential bound at (n, M).
    pub bound: f64,
    pub clean: Simulated,
    /// The run with cache wipes, when the job asks for one.
    pub faulty: Option<Simulated>,
}

#[derive(Clone, Debug)]
pub struct BoundsRun {
    pub classical_seq: f64,
    pub fast_seq: f64,
    /// Above one processor: the fast algorithms' parallel bound (the
    /// larger of the next two), its memory-dependent and
    /// memory-independent terms, and the crossover M*.
    pub parallel: Option<[f64; 4]>,
}

#[derive(Clone, Debug)]
pub struct FaultsRun {
    /// Whether the faulty run's product equals the fault-free one's.
    pub matches: bool,
    pub clean_words: u64,
    pub total_words: u64,
    pub recovery_words: u64,
    pub faults: FaultStats,
}

#[derive(Clone, Debug)]
pub struct KernelRun {
    pub checksum: String,
    pub flops: u64,
    /// The multiply alone: operand generation and the check excluded.
    pub wall: Duration,
    pub report: Report,
    /// Whether the product matched the naive reference, when checked.
    pub matches: Option<bool>,
}

/// The `faults` schedules.
const SCHEDULES: [&str; 3] = ["cannon", "3d", "caps"];

/// The request kinds that are jobs.
const JOBS: [&str; 5] = ["io", "bounds", "faults", "sweep-cell", "kernel"];

/// A parameter that does not make a job: its name, the value it was
/// given, and what is wrong with it. `Display` words it for the wire
/// (`param 'n' expects a number, got 'eight'`),
/// [`ParamError::flag_message`] for the command line (`--n expects a
/// number, got 'eight'`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError {
    pub key: &'static str,
    pub value: String,
    pub problem: Problem,
}

/// What is wrong with a parameter's value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Problem {
    /// It is not what the parameter takes ("a number", "true|false").
    Expected(&'static str),
    /// It is below the least value the job runs at.
    AtLeast(usize),
    /// It names nothing the job knows; the names it does.
    Unknown(&'static [&'static str]),
    /// It did not parse; the parser's reason.
    Malformed(String),
}

impl ParamError {
    fn new(key: &'static str, value: &str, problem: Problem) -> ParamError {
        ParamError {
            key,
            value: value.to_string(),
            problem,
        }
    }

    /// The message in the command line's words: `--key` for `param 'key'`.
    pub fn flag_message(&self) -> String {
        self.message(true)
    }

    fn message(&self, flags: bool) -> String {
        let (key, value) = (self.key, &self.value);
        let subject = if flags {
            format!("--{key}")
        } else {
            format!("param '{key}'")
        };
        match &self.problem {
            Problem::Expected(what) => format!("{subject} expects {what}, got '{value}'"),
            Problem::AtLeast(min) => format!("{subject} must be at least {min}"),
            Problem::Unknown(names) => {
                let noun = match key {
                    "alg" if flags => "algorithm",
                    "spec" => "sweep spec",
                    _ => key,
                };
                format!("unknown {noun} '{value}' ({})", names.join("|"))
            }
            Problem::Malformed(why) if flags => format!("bad --{key}: {why}"),
            Problem::Malformed(why) => format!("bad {key}: {why}"),
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message(false))
    }
}

/// A request's params, read against their defaults.
struct Params<'a>(&'a BTreeMap<String, String>);

impl<'a> Params<'a> {
    fn str(&self, key: &str, default: &'a str) -> &'a str {
        self.0.get(key).map_or(default, String::as_str)
    }

    fn num<T: FromStr>(&self, key: &'static str, default: T) -> Result<T, ParamError> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParamError::new(key, v, Problem::Expected("a number"))),
        }
    }

    fn at_least(&self, key: &'static str, default: usize, min: usize) -> Result<usize, ParamError> {
        let v = self.num(key, default)?;
        if v < min {
            return Err(ParamError::new(key, &v.to_string(), Problem::AtLeast(min)));
        }
        Ok(v)
    }

    /// `key`'s value, which must be one of `names`.
    fn one_of(
        &self,
        key: &'static str,
        default: &'a str,
        names: &'static [&'static str],
    ) -> Result<&'a str, ParamError> {
        let v = self.str(key, default);
        match names.contains(&v) {
            true => Ok(v),
            false => Err(ParamError::new(key, v, Problem::Unknown(names))),
        }
    }

    fn alg(&self) -> Result<Bilinear2x2, ParamError> {
        let name = self.one_of("alg", "strassen", &catalog::NAMES)?;
        Ok(catalog::by_name(name).expect("a catalog name"))
    }

    fn malformed<T>(&self, key: &'static str, parsed: Result<T, String>) -> Result<T, ParamError> {
        parsed.map_err(|why| ParamError::new(key, self.str(key, ""), Problem::Malformed(why)))
    }
}

impl JobSpec {
    /// The root span name a worker opens around this job's `run`, and the
    /// label the per-kind latency histograms use.
    pub(crate) fn span_name(&self) -> &'static str {
        match self {
            JobSpec::Io(_) => "job.io",
            JobSpec::Bounds(_) => "job.bounds",
            JobSpec::Faults(_) => "job.faults",
            JobSpec::SweepCell { .. } => "job.sweep-cell",
            JobSpec::Kernel(_) => "job.kernel",
            JobSpec::Sleep { .. } => "job.sleep",
        }
    }

    /// Validate a request's params into a spec the server runs. The error
    /// is echoed to the client with a `rejected:` prefix.
    pub fn from_request(kind: Kind, params: &BTreeMap<String, String>) -> Result<JobSpec, String> {
        JobSpec::validate(kind, params).map_err(|e| e.to_string())
    }

    /// The one validator: a kind's params, with their defaults, into a
    /// runnable spec.
    pub fn validate(kind: Kind, params: &BTreeMap<String, String>) -> Result<JobSpec, ParamError> {
        let p = Params(params);
        Ok(match kind {
            // Undocumented test hook, reachable only on `io`.
            Kind::Io if params.contains_key("sleep_ms") => JobSpec::Sleep {
                ms: p.num("sleep_ms", 0)?,
            },
            Kind::Io => {
                let mut job = Io {
                    alg: p.alg()?,
                    n: p.at_least("n", 32, 1)?,
                    m: p.at_least("m", 96, 1)?,
                    seed: p.num("seed", seq::DEFAULT_WORKLOAD_SEED)?,
                    policy: Replacement::parse(p.one_of("policy", "lru", &Replacement::NAMES)?)
                        .expect("a listed policy"),
                    flush_every: None,
                };
                if let Some(faults) = params.get("faults") {
                    job.flush_every = p.malformed("faults", FaultSpec::parse(faults))?.flush_every;
                    if job.flush_every.is_none() {
                        let expected = Problem::Expected("a spec with flush-every=<N>");
                        return Err(ParamError::new("faults", faults, expected));
                    }
                    if job.policy == Replacement::Opt {
                        let expected = Problem::Expected("lru|fifo under faults");
                        return Err(ParamError::new("policy", "opt", expected));
                    }
                }
                JobSpec::Io(job)
            }
            Kind::Bounds => JobSpec::Bounds(Bounds {
                n: p.at_least("n", 4096, 1)?,
                m: p.at_least("m", 1024, 1)?,
                p: p.at_least("p", 1, 1)?,
            }),
            Kind::Faults => {
                let schedule = p.one_of("schedule", "cannon", &SCHEDULES)?.to_string();
                let spec = p.str("spec", "seed=7,crash=0.05,drop=0.02,dup=0.01,retries=8");
                let recovery = p.str("recovery", "recompute");
                let procs = if matches!(schedule.as_str(), "3d" | "caps") {
                    2
                } else {
                    4
                };
                JobSpec::Faults(Faults {
                    spec: p.malformed("spec", FaultSpec::parse(spec))?,
                    recovery: p.malformed("recovery", Recovery::parse(recovery))?,
                    n: p.at_least("n", 16, 1)?,
                    p: p.at_least("p", procs, 1)?,
                    levels: p.at_least("levels", 2, 1)?,
                    alg: p.alg()?,
                    seed: p.num("seed", 42)?,
                    schedule,
                })
            }
            Kind::SweepCell => JobSpec::SweepCell {
                spec: p
                    .one_of("spec", "smoke", fmm_sweep::SweepSpec::builtin_names())?
                    .to_string(),
                cell: p.num("cell", 0)?,
                seed: p.num("seed", 42)?,
            },
            Kind::Kernel => JobSpec::Kernel(Kernel {
                alg: fmm_kernel::Alg::parse(p.one_of(
                    "alg",
                    "strassen",
                    &fmm_kernel::Alg::NAMES,
                )?)
                .expect("a listed kernel"),
                n: p.at_least("n", 64, 1)?,
                cutoff: p.at_least("cutoff", 64, 1)?,
                threads: p.at_least("threads", 1, 1)?,
                dtype: p.one_of("dtype", "f64", &["f64", "i64"])?.to_string(),
                seed: p.num("seed", 42)?,
                check: match p.str("check", "false") {
                    "true" => true,
                    "false" => false,
                    v => return Err(ParamError::new("check", v, Problem::Expected("true|false"))),
                },
            }),
            _ => {
                return Err(ParamError::new(
                    "kind",
                    kind.as_str(),
                    Problem::Unknown(&JOBS),
                ))
            }
        })
    }

    /// Run the job; `Ok` carries the flat string→string result map that
    /// goes out in the `completed` reply. A kernel product that diverged
    /// from the checked reference is an error. Panics (poison inputs,
    /// cancellation bails) are the caller's to catch, through [`cancel::isolate`].
    pub fn run(&self) -> Result<BTreeMap<String, String>, String> {
        match self.execute()? {
            Outcome::Kernel(_, run) if run.matches == Some(false) => {
                Err("kernel product diverged from naive reference".into())
            }
            outcome => Ok(outcome.fields()),
        }
    }

    /// Run the job and return what it measured, typed.
    pub fn execute(&self) -> Result<Outcome<'_>, String> {
        Ok(match self {
            JobSpec::Io(job) => Outcome::Io(job, job.run()),
            JobSpec::Bounds(job) => Outcome::Bounds(job, job.run()),
            JobSpec::Faults(job) => Outcome::Faults(job, job.run()?),
            JobSpec::SweepCell { spec, cell, seed } => {
                let sweep = fmm_sweep::SweepSpec::builtin(spec)
                    .ok_or_else(|| format!("unknown sweep spec '{spec}'"))?;
                let cells = sweep.expand();
                let c = cells.get(*cell).ok_or_else(|| {
                    format!("cell {cell} out of range (spec has {})", cells.len())
                })?;
                Outcome::SweepCell(
                    c.key(),
                    fmm_sweep::run_cell(c, fmm_sweep::cell_seed(*seed, c))?,
                )
            }
            JobSpec::Kernel(job) => Outcome::Kernel(job, job.run()),
            JobSpec::Sleep { ms } => {
                // Cancellable by construction: polls the scoped token.
                match cancel::current() {
                    Some(token) => {
                        token.cancellable_sleep(Duration::from_millis(*ms));
                        token.bail_if_cancelled();
                    }
                    None => std::thread::sleep(Duration::from_millis(*ms)),
                }
                Outcome::Slept(*ms)
            }
        })
    }
}

impl Io {
    fn run(&self) -> IoRun {
        let alg = (self.alg.name != "classical").then_some(&self.alg);
        let tile = seq::natural_tile(self.m);
        let (n, m) = (self.n, self.m);
        let sim = |flush| seq::simulate(alg, n, m, tile, self.policy, self.seed, flush);
        let omega = match alg {
            Some(_) => bounds::OMEGA_FAST,
            None => bounds::OMEGA_CLASSICAL,
        };
        IoRun {
            tile,
            bound: bounds::sequential(n, m, omega),
            clean: sim(None),
            faulty: self.flush_every.map(|every| sim(Some(every))),
        }
    }
}

impl Bounds {
    fn run(&self) -> BoundsRun {
        let (n, m, p, fast) = (self.n, self.m, self.p, bounds::OMEGA_FAST);
        BoundsRun {
            classical_seq: bounds::sequential(n, m, bounds::OMEGA_CLASSICAL),
            fast_seq: bounds::sequential(n, m, fast),
            parallel: (p > 1).then(|| {
                [
                    bounds::parallel(n, m, p, fast),
                    bounds::parallel_memory_dependent(n, m, p, fast),
                    bounds::parallel_memory_independent(n, p, fast),
                    bounds::parallel_crossover_m(n, p, fast),
                ]
            }),
        }
    }
}

impl Faults {
    fn run(&self) -> Result<FaultsRun, String> {
        let (a, b) = operands::<i64>(self.n, self.seed);
        // The schedule under `plan`: (product, total words, recovery
        // words, faults). Under the inert plan it is the fault-free run.
        let run = |plan: &FaultPlan, recovery: Recovery| {
            match self.schedule.as_str() {
                "cannon" => par_faults::cannon_faulty(&a, &b, self.p, plan, recovery),
                "3d" => par_faults::replicated_3d_faulty(&a, &b, self.p, plan, recovery),
                _ => {
                    par_faults::caps_strassen_faulty(&self.alg, &a, &b, self.levels, plan, recovery)
                }
            }
            .map(|r| (r.product, r.net.total_words, r.net.recovery_words, r.faults))
            .map_err(|e| e.to_string())
        };
        let (clean, clean_words, _, _) = run(&FaultSpec::default().plan(), Recovery::None)
            .expect("an inert fault plan never drops a message");
        let (product, total_words, recovery_words, faults) = run(&self.spec.plan(), self.recovery)?;
        Ok(FaultsRun {
            matches: product == clean,
            clean_words,
            total_words,
            recovery_words,
            faults,
        })
    }
}

/// The seeded `n × n` operand pair every job that multiplies starts from.
fn operands<T: Scalar>(n: usize, seed: u64) -> (Matrix<T>, Matrix<T>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<T>::random_small(n, n, &mut rng);
    (a, Matrix::<T>::random_small(n, n, &mut rng))
}

impl Kernel {
    fn run(&self) -> KernelRun {
        let cfg = KernelCfg {
            alg: self.alg,
            cutoff: self.cutoff,
            threads: self.threads,
        };
        let (checksum, wall, report, matches) = if self.dtype == "i64" {
            self.multiply::<i64>(&cfg, |c| c.iter().sum::<i64>().to_string())
        } else {
            // Small-integer entries: every partial sum is exactly
            // representable, so even the f64 checksum is deterministic.
            self.multiply::<f64>(&cfg, |c| format!("{:.0}", c.iter().sum::<f64>()))
        };
        KernelRun {
            checksum,
            flops: fmm_kernel::classical_flops(self.n),
            wall,
            report,
            matches,
        }
    }

    /// One seeded multiply in this thread's [`Workspace`]: the `checksum`
    /// of the product, the wall time of the multiply alone, its
    /// [`Report`] and, under `check`, whether the product matched the
    /// naive reference.
    fn multiply<T: Scalar>(
        &self,
        cfg: &KernelCfg,
        checksum: impl FnOnce(&[T]) -> String,
    ) -> (String, Duration, Report, Option<bool>) {
        with_workspace(|ws: &mut Workspace<T>| {
            let mut rng = StdRng::seed_from_u64(self.seed);
            ws.a.refill_random_small(self.n, self.n, &mut rng);
            ws.b.refill_random_small(self.n, self.n, &mut rng);
            let started = Instant::now();
            let report = ws.multiply(cfg);
            let wall = started.elapsed();
            let c = ws.product();
            let matches = self
                .check
                .then(|| c == multiply_naive(&ws.a, &ws.b).as_slice());
            (checksum(c), wall, report, matches)
        })
    }
}

thread_local! {
    /// The kernel workspaces of the thread (one per scalar type it has
    /// multiplied), kept for the thread's life: a serve worker's kernel
    /// jobs reuse one, so a steady run of them allocates nothing.
    static WORKSPACES: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's [`Workspace`] for `T`, made on first use.
fn with_workspace<T: Scalar, R>(f: impl FnOnce(&mut Workspace<T>) -> R) -> R {
    WORKSPACES.with_borrow_mut(|all| {
        let at = match all.iter().position(|ws| ws.is::<Workspace<T>>()) {
            Some(at) => at,
            None => {
                all.push(Box::new(Workspace::<T>::default()));
                all.len() - 1
            }
        };
        f(all[at]
            .downcast_mut()
            .expect("the position matched the type"))
    })
}

impl Outcome<'_> {
    /// The flat string→string map a `completed` reply carries.
    pub(crate) fn fields(&self) -> BTreeMap<String, String> {
        let fields: Vec<(&str, String)> = match self {
            Outcome::Io(job, run) => {
                let (stats, bound) = (&run.clean.stats, run.bound);
                let mut fields = vec![
                    ("alg", job.alg.name.clone()),
                    ("io", stats.io().to_string()),
                    ("loads", stats.loads.to_string()),
                    ("stores", stats.stores.to_string()),
                    ("hits", stats.hits.to_string()),
                    ("accesses", stats.accesses.to_string()),
                    ("bound", format!("{bound:.0}")),
                    ("ratio", format!("{:.4}", stats.io() as f64 / bound)),
                ];
                if let Some(faulty) = &run.faulty {
                    let recovery = faulty.stats.io().saturating_sub(stats.io());
                    fields.extend([
                        ("matches", (faulty.product == run.clean.product).to_string()),
                        ("flushes", faulty.flushes.to_string()),
                        ("faulty_io", faulty.stats.io().to_string()),
                        ("recovery_io", recovery.to_string()),
                    ]);
                }
                fields
            }
            Outcome::Bounds(_, run) => {
                let mut fields = vec![
                    ("classical_seq", format!("{:.3e}", run.classical_seq)),
                    ("fast_seq", format!("{:.3e}", run.fast_seq)),
                ];
                if let Some([max, _, independent, _]) = run.parallel {
                    fields.push(("fast_par", format!("{max:.3e}")));
                    fields.push(("fast_par_mem_indep", format!("{independent:.3e}")));
                }
                fields
            }
            Outcome::Faults(_, run) => vec![
                ("matches", run.matches.to_string()),
                ("clean_words", run.clean_words.to_string()),
                ("total_words", run.total_words.to_string()),
                ("recovery_words", run.recovery_words.to_string()),
                ("crashes", run.faults.crashes.to_string()),
                ("drops", run.faults.drops.to_string()),
                ("retries", run.faults.retries.to_string()),
                ("restores", run.faults.restores.to_string()),
            ],
            Outcome::SweepCell(key, m) => vec![
                ("key", key.clone()),
                ("io", m.io.to_string()),
                ("words", m.words.to_string()),
                ("flops", m.flops.to_string()),
                ("bound", format!("{:.0}", m.bound)),
                ("ratio", format!("{:.4}", m.ratio)),
            ],
            Outcome::Kernel(job, run) => {
                let mut fields = vec![
                    ("alg", job.alg.as_str().to_string()),
                    ("n", job.n.to_string()),
                    ("cutoff", job.cutoff.to_string()),
                    ("threads", job.threads.to_string()),
                    ("dtype", job.dtype.clone()),
                    ("checksum", run.checksum.clone()),
                    ("flops", run.flops.to_string()),
                    ("wall_us", run.wall.as_micros().to_string()),
                ];
                if run.matches == Some(true) {
                    fields.push(("matches", "true".into()));
                }
                fields
            }
            Outcome::Slept(ms) => vec![("slept_ms", ms.to_string())],
        };
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
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
        assert!(JobSpec::from_request(Kind::Kernel, &params(&[("alg", "ks")])).is_err());
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
        for (alg, dtype) in [
            ("strassen", "i64"),
            ("strassen", "f64"),
            ("winograd", "f64"),
        ] {
            let spec = JobSpec::from_request(
                Kind::Kernel,
                &params(&[
                    ("alg", alg),
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
            assert_eq!(out["alg"], alg);
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

    /// A request's or a reply's map, as pairs.
    type Pairs = &'static [(&'static str, &'static str)];

    /// One request per kind, and the whole reply map it completes with
    /// (`wall_us` aside: it is a clock reading).
    #[test]
    fn reply_maps_are_pinned_for_one_request_per_kind() {
        let cases: [(Kind, Pairs, Pairs); 6] = [
            (
                Kind::Io,
                &[
                    ("alg", "strassen"),
                    ("n", "16"),
                    ("m", "64"),
                    ("policy", "fifo"),
                ],
                &[
                    ("accesses", "23136"),
                    ("alg", "strassen"),
                    ("bound", "448"),
                    ("hits", "8064"),
                    ("io", "15072"),
                    ("loads", "9008"),
                    ("ratio", "33.6429"),
                    ("stores", "6064"),
                ],
            ),
            (
                Kind::Bounds,
                &[("n", "1024"), ("m", "256"), ("p", "49")],
                &[
                    ("classical_seq", "6.711e7"),
                    ("fast_par", "6.147e5"),
                    ("fast_par_mem_indep", "6.554e4"),
                    ("fast_seq", "3.012e7"),
                ],
            ),
            (
                Kind::Faults,
                &[("schedule", "cannon")],
                &[
                    ("clean_words", "1920"),
                    ("crashes", "5"),
                    ("drops", "1"),
                    ("matches", "true"),
                    ("recovery_words", "336"),
                    ("restores", "0"),
                    ("retries", "1"),
                    ("total_words", "2256"),
                ],
            ),
            (
                Kind::Faults,
                &[("schedule", "caps"), ("recovery", "checkpoint:1")],
                &[
                    ("clean_words", "2450"),
                    ("crashes", "4"),
                    ("drops", "1"),
                    ("matches", "true"),
                    ("recovery_words", "2582"),
                    ("restores", "4"),
                    ("retries", "1"),
                    ("total_words", "5032"),
                ],
            ),
            (
                Kind::SweepCell,
                &[("spec", "smoke"), ("cell", "1")],
                &[
                    ("bound", "1182"),
                    ("flops", "8192"),
                    ("io", "4352"),
                    ("key", "classical/n16/m12/p1/lru/cache/r0"),
                    ("ratio", "3.6806"),
                    ("words", "0"),
                ],
            ),
            (
                Kind::Kernel,
                &[("n", "64")],
                &[
                    ("alg", "strassen"),
                    ("checksum", "4010"),
                    ("cutoff", "64"),
                    ("dtype", "f64"),
                    ("flops", "520192"),
                    ("n", "64"),
                    ("threads", "1"),
                ],
            ),
        ];
        for (kind, request, reply) in cases {
            let mut out = JobSpec::from_request(kind, &params(request))
                .unwrap()
                .run()
                .unwrap();
            if kind == Kind::Kernel {
                assert!(out.remove("wall_us").unwrap().parse::<u64>().is_ok());
            }
            assert_eq!(out, params(reply), "{kind:?} {request:?}");
        }
    }

    #[test]
    fn zero_sizes_are_rejected_not_run() {
        for (kind, key) in [
            (Kind::Io, "n"),
            (Kind::Io, "m"),
            (Kind::Bounds, "n"),
            (Kind::Bounds, "m"),
            (Kind::Bounds, "p"),
            (Kind::Faults, "n"),
            (Kind::Faults, "p"),
            (Kind::Faults, "levels"),
            (Kind::Kernel, "n"),
        ] {
            let err = JobSpec::validate(kind, &params(&[(key, "0")])).unwrap_err();
            assert_eq!(err.problem, Problem::AtLeast(1), "{kind:?} {key}");
            assert_eq!(err.to_string(), format!("param '{key}' must be at least 1"));
            assert_eq!(err.flag_message(), format!("--{key} must be at least 1"));
        }
    }

    #[test]
    fn each_front_words_the_same_error() {
        let err = JobSpec::validate(Kind::Io, &params(&[("n", "eight")])).unwrap_err();
        assert_eq!(err.to_string(), "param 'n' expects a number, got 'eight'");
        assert_eq!(err.flag_message(), "--n expects a number, got 'eight'");
        let err = JobSpec::validate(Kind::Faults, &params(&[("alg", "ks")])).unwrap_err();
        assert_eq!(
            err.flag_message(),
            "unknown algorithm 'ks' (strassen|winograd|classical)"
        );
        let err = JobSpec::validate(Kind::Faults, &params(&[("recovery", "hope")])).unwrap_err();
        assert!(err.to_string().starts_with("bad recovery: "), "{err}");
        assert!(err.flag_message().starts_with("bad --recovery: "), "{err}");
    }

    #[test]
    fn io_faults_needs_flush_every_and_an_online_policy() {
        let faults = |extra: &[(&str, &str)]| {
            let mut request = params(&[("faults", "flush-every=512")]);
            request.extend(params(extra));
            JobSpec::validate(Kind::Io, &request)
        };
        assert!(faults(&[]).is_ok());
        assert_eq!(faults(&[("policy", "opt")]).unwrap_err().key, "policy");
        let err = faults(&[("faults", "seed=3")]).unwrap_err();
        assert_eq!((err.key, err.value.as_str()), ("faults", "seed=3"));
    }
}
