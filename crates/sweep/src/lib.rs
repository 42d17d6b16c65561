//! fmm-sweep — a parallel, resumable experiment-orchestration engine.
//!
//! The crates below this one *measure* (cache simulators, network
//! simulators, pebbling players); this crate *orchestrates*: a
//! declarative [`spec::SweepSpec`] names a parameter grid
//! (algorithm × n × M × P × policy × recompute mode × repetitions),
//! [`engine`] expands it into cells and executes them on a worker pool
//! with panic isolation and deterministic per-cell seeds, [`checkpoint`]
//! streams every finished cell to a JSONL file so an interrupted sweep
//! resumes without re-running completed work, [`report`] fits log–log
//! I/O exponents (≈ log₂7 for fast algorithms, ≈ 3 for classical) and
//! bound ratios, and [`diff`] compares two result files for regressions.
//!
//! The verbs map onto `fastmm sweep run | resume | report | diff`.

pub mod cell;
pub mod checkpoint;
pub mod diff;
pub mod engine;
mod fit;
pub mod report;
pub mod spec;

pub use cell::{cell_seed, run_cell, Measurement};
pub use checkpoint::{CellRecord, CellStatus, Header};
pub use engine::{execute, resume_file, run_collect, run_to_file, RunConfig, RunStats};
pub use fit::PowerFit;
pub use spec::{AlgKind, Cell, PolicyKind, RunMode, SweepSpec};
