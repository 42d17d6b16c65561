//! # fmm-cdag
//!
//! Computational directed acyclic graphs (CDAGs, Definition 2.1 of the
//! paper) and the combinatorial engines the lower-bound proofs rest on.
//!
//! The proofs in *Nissim & Schwartz 2019* manipulate four kinds of objects,
//! each of which this crate makes executable:
//!
//! * **CDAGs** ([`graph::Cdag`]) — vertices are input / internal / output
//!   arguments, edges are direct dependencies.
//! * **The recursive CDAG `H^{n×n}`** (`generator`) of any fast matrix
//!   multiplication algorithm with a 2×2 base case, including the
//!   sub-CDAG bookkeeping (`SUB_H^{r×r}`, Lemma 2.2) the segment argument
//!   needs.
//! * **Bipartite matchings** ([`matching`]) — Hopcroft–Karp maximum
//!   matching and an exhaustive Hall-condition checker, used by Lemma 3.1's
//!   matching argument on encoder graphs.
//! * **Vertex-disjoint paths and dominator sets** ([`flow`])
//!   — Dinic max-flow over vertex-split networks gives exact Menger-style
//!   counts of vertex-disjoint paths (Lemma 3.11) and exact minimum
//!   dominator sets / vertex cuts (Definition 2.3, Lemma 3.7).
//!
//! Everything is exact: on the small instances used in tests the lemmas are
//! checked exhaustively, not sampled.

pub mod census;
pub mod dot;
pub mod flow;
mod generator;
pub mod graph;
pub mod matching;
pub mod topo;

pub use generator::{Base2x2, RecursiveCdag};
pub use graph::{Cdag, VertexId, VertexKind};
