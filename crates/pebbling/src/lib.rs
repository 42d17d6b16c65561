//! # fmm-pebbling
//!
//! The red–blue pebble game of Hong & Kung — the operational model behind
//! every I/O lower bound in the paper — with **recomputation allowed**,
//! which is exactly the regime the paper's Theorem 1.1 addresses.
//!
//! * [`game`] — the game itself: moves, legality, I/O accounting, and an
//!   asymmetric read/write cost model (for the §V discussion of
//!   write-avoiding recomputation);
//! * [`players`] — schedule generators: Belady-evicting no-recompute
//!   scheduling of any topological order, and a demand-driven player that
//!   can either *store-and-reload* or *recompute* evicted values;
//! * [`optimal`] — exact minimum-cost pebbling by Dijkstra over game
//!   states, with recomputation allowed or forbidden, for tiny CDAGs —
//!   the ground truth that lets us *measure* whether recomputation helps;
//! * [`families`] — classic CDAG families (chains, trees, diamonds, DP
//!   grids, FFT butterflies) used as contrast workloads.
//!
//! The headline experiment this crate supports: on fast-matrix-multiply
//! CDAGs the optimal I/O with recomputation equals (or negligibly differs
//! from) the optimal without — as the paper proves asymptotically — while
//! on DP-grid CDAGs under write-expensive cost models, recomputation
//! strictly reduces cost (Blelloch et al., cited in §V).

pub mod families;
pub mod game;
pub mod optimal;
pub mod players;
pub mod segments;

pub use game::{CostModel, GameError, GameResult, Move};
