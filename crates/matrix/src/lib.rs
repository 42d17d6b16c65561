//! # fmm-matrix
//!
//! Dense matrix substrate for the `fastmm` workspace, the reproduction of
//! *"Revisiting the I/O-Complexity of Fast Matrix Multiplication with
//! Recomputations"* (Nissim & Schwartz, IPDPS 2019).
//!
//! The lower bounds in the paper concern matrix multiplication over an
//! arbitrary ring, so this crate provides:
//!
//! * a [`Scalar`] abstraction with floating ([`f32`]/[`f64`]), machine-integer
//!   (`i64`/`i128`), exact rational ([`Rational`]) and prime-field ([`Zp`])
//!   instances — the exact types are what the algorithm-validation machinery
//!   in `fmm-core` uses to check Brent's equations symbolically;
//! * a row-major dense [`Matrix`] with quadrant [views](MatrixView), padding and
//!   splitting/joining helpers matched to the 2×2 recursion the paper
//!   studies;
//! * classical multiplication kernels (naive and loop-reordered) that serve
//!   both as correctness oracles and as the classical baseline of Table I;
//!   the tuned blocked and multi-threaded kernels live in `fmm-kernel`.
//!
//! Nothing in this crate knows about fast (Strassen-like) algorithms; those
//! live in `fmm-core` and are expressed against this substrate.

mod dense;
pub mod multiply;
pub mod ops;
pub mod quad;
mod random;
mod rational;
mod scalar;
mod view;
mod zp;

pub use dense::Matrix;
pub use rational::Rational;
pub use scalar::Scalar;
pub use view::MatrixView;
pub use zp::Zp;
