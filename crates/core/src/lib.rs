//! # fmm-core
//!
//! The paper's primary contribution, made executable:
//!
//! * [`bilinear`] — `⟨2,2,2;t⟩` bilinear matrix-multiplication algorithms as
//!   coefficient triples `(U, V, W)`, validated exactly against **Brent's
//!   equations**;
//! * `slp` — straight-line programs for the linear (encoder/decoder)
//!   phases, capturing the common-subexpression reuse that gives Winograd
//!   its 15-addition count;
//! * [`catalog`] — Strassen, Strassen–Winograd, the classical 8-product
//!   algorithm, and the Karstadt–Schwartz-style alternative-basis algorithm;
//! * [`altbasis`] — alternative-basis matrix multiplication (Definition 2.7 /
//!   Algorithm 1): recursive basis transforms φ, ψ, ν and a unimodular
//!   sparsification search that rediscovers the 12-addition core;
//! * [`exec`] — recursive execution of any algorithm on real matrices with
//!   exact operation counting (the leading-coefficient experiment);
//! * [`bounds`] — the lower-bound formula library of Theorem 1.1 and
//!   Table I;
//! * [`grigoriev`] — the Grigoriev flow of matrix multiplication
//!   (Lemma 3.8) and the dominator bound it implies (Lemma 3.9);
//! * [`lemmas`] — the verification engine that checks Lemmas 3.1, 3.2, 3.3,
//!   2.2, 3.7 and 3.11 on actual encoder graphs and generated CDAGs.

pub mod altbasis;
pub mod bilinear;
pub mod bounds;
pub mod catalog;
pub mod exec;
pub mod grigoriev;
pub mod lemmas;
mod slp;
pub mod symmetry;

pub use bilinear::Bilinear2x2;
pub use slp::Slp;
