//! # fmm-memsim
//!
//! Operational machine models for the paper's two settings (Section II.B):
//!
//! * **Sequential model** — a two-level memory: unlimited slow memory, fast
//!   memory of `M` words. [`cache`] is a trace-driven simulator of that
//!   fast memory (LRU/FIFO, dirty-writeback); [`seq`] runs *instrumented
//!   executions* of the classical and fast algorithms through it, so the
//!   I/O counts are measured, not modeled. [`model`] provides the
//!   closed-form schedule costs (blocked classical, recursive fast) that
//!   scale to sizes the trace simulator cannot reach.
//! * **Parallel model** — `P` processors with local memories exchanging
//!   words ([`par`]): an owner-computes distributed simulator running
//!   Cannon's 2D algorithm, a 3D replication algorithm, and a BFS-CAPS
//!   parallel Strassen with *real data movement*, every transferred word
//!   counted. Each schedule has one engine, in [`par_faults`], which also
//!   injects faults and recovers from them; [`par`] runs it fault-free.
//!
//! Together with `fmm-core::bounds` these regenerate every matrix-
//! multiplication row of Table I: measured schedule I/O above the bound,
//! same exponent, bounded constant.

pub mod cache;
pub mod model;
pub mod par;
pub mod par_faults;
pub mod reference;
pub mod seq;
pub mod trace;

pub use cache::{Cache, CacheStats, Policy};
