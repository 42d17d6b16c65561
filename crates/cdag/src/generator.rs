//! Recursive construction of the CDAG `H^{n×n}` of a fast matrix
//! multiplication algorithm with a 2×2 base case (Section II of the paper).
//!
//! A base case is given by its coefficient triple `(U, V, W)`:
//! `M_r = (Σ_j U[r][j]·a_j) · (Σ_j V[r][j]·b_j)` and
//! `c_i = Σ_r W[i][r]·M_r`, with `a = (A11,A12,A21,A22)` row-major and
//! likewise for `b`, `c`. The recursive CDAG for `n = 2^k` follows the
//! paper exactly: `2·(n/2)²` element-wise **encoder** copies feed `t`
//! vertex-disjoint sub-CDAGs `H^{(n/2)×(n/2)}`, whose outputs are combined
//! by `(n/2)²` element-wise **decoder** copies.
//!
//! During construction we record, for every recursion size `r = 2^j`, the
//! output vertices of every intermediate multiplication of size `r×r` —
//! the sets `V_out(SUB_H^{r×r})` that the segment argument (Lemmas 2.2 and
//! 3.6) quantifies over.

use crate::graph::{Cdag, VertexId, VertexKind};
use crate::matching::Bipartite;

/// Coefficient description of a `⟨2,2,2;t⟩` bilinear base case.
///
/// This is a *structural* description (integer coefficients suffice for
/// every algorithm the paper covers); numeric execution and validation live
/// in `fmm-core`, which re-exports richer algorithm types and lowers them to
/// this form for CDAG generation.
#[derive(Clone, Debug, PartialEq)]
pub struct Base2x2 {
    /// Algorithm name, for labels and reports.
    pub name: String,
    /// Left encoder: `t` rows of coefficients over `(a11, a12, a21, a22)`.
    pub u: Vec<[i64; 4]>,
    /// Right encoder: `t` rows of coefficients over `(b11, b12, b21, b22)`.
    pub v: Vec<[i64; 4]>,
    /// Decoder: 4 rows (`c11, c12, c21, c22`) of `t` coefficients.
    pub w: [Vec<i64>; 4],
}

impl Base2x2 {
    /// Number of scalar multiplications `t` in the base case.
    pub fn t(&self) -> usize {
        self.u.len()
    }

    /// Structural sanity: matching row counts/lengths and no all-zero rows.
    ///
    /// # Panics
    /// Panics with a description when malformed.
    pub fn assert_well_formed(&self) {
        let t = self.t();
        assert_eq!(self.v.len(), t, "U/V row count mismatch");
        for row in &self.w {
            assert_eq!(row.len(), t, "W row length must equal t");
        }
        for (r, row) in self.u.iter().enumerate() {
            assert!(row.iter().any(|&c| c != 0), "U row {r} is all-zero");
        }
        for (r, row) in self.v.iter().enumerate() {
            assert!(row.iter().any(|&c| c != 0), "V row {r} is all-zero");
        }
        for (i, row) in self.w.iter().enumerate() {
            assert!(row.iter().any(|&c| c != 0), "W row {i} is all-zero");
        }
    }

    /// The bipartite **encoder graph** of matrix A (Figure 2): X = the 4
    /// input arguments, Y = the `t` encoded products, edge iff the input
    /// appears with nonzero coefficient in the product's left operand.
    pub fn encoder_bipartite_a(&self) -> Bipartite {
        Self::bipartite_from(&self.u)
    }

    /// The encoder graph of matrix B.
    pub fn encoder_bipartite_b(&self) -> Bipartite {
        Self::bipartite_from(&self.v)
    }

    fn bipartite_from(rows: &[[i64; 4]]) -> Bipartite {
        let mut g = Bipartite::new(4, rows.len());
        for (y, row) in rows.iter().enumerate() {
            for (x, &c) in row.iter().enumerate() {
                if c != 0 {
                    g.add_edge(x, y);
                }
            }
        }
        g
    }
}

/// The CDAG `H^{n×n}` together with the bookkeeping the proofs need.
///
/// ```
/// use fmm_cdag::{Base2x2, RecursiveCdag};
/// // The classical 2×2 base case as a structural description.
/// let base = Base2x2 {
///     name: "classical".into(),
///     u: vec![[1,0,0,0],[0,1,0,0],[1,0,0,0],[0,1,0,0],
///             [0,0,1,0],[0,0,0,1],[0,0,1,0],[0,0,0,1]],
///     v: vec![[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1],
///             [1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]],
///     w: [vec![1,1,0,0,0,0,0,0], vec![0,0,1,1,0,0,0,0],
///         vec![0,0,0,0,1,1,0,0], vec![0,0,0,0,0,0,1,1]],
/// };
/// let h = RecursiveCdag::build(&base, 2);
/// assert_eq!(h.graph.inputs().len(), 8);
/// assert_eq!(h.outputs.len(), 4);
/// // Lemma 2.2 for t = 8: (n/r)^{log₂8}·r² at r = 1 → 8 scalar products.
/// assert_eq!(h.sub_output_vertices(0).len(), 8);
/// ```
pub struct RecursiveCdag {
    /// The graph itself.
    pub graph: Cdag,
    /// Problem size `n` (a power of two).
    pub n: usize,
    /// Input vertices of matrix A, row-major, length `n²`.
    pub a_inputs: Vec<VertexId>,
    /// Input vertices of matrix B, row-major, length `n²`.
    pub b_inputs: Vec<VertexId>,
    /// Output vertices of C, row-major, length `n²`.
    pub outputs: Vec<VertexId>,
    /// `sub_outputs[j]` lists, for every intermediate multiplication of
    /// size `2^j × 2^j` (including the top-level problem at `j = log₂ n`),
    /// its `4^j` output vertices. This materializes `V_out(SUB_H^{r×r})`.
    pub sub_outputs: Vec<Vec<Vec<VertexId>>>,
    /// `sub_inputs[j]` lists, for the same sub-problems, their `2·4^j`
    /// input vertices (the encoded left and right operand elements) —
    /// `V_inp(SUB_H^{r×r})`, needed by the Lemma 3.11 path argument.
    pub sub_inputs: Vec<Vec<Vec<VertexId>>>,
}

impl RecursiveCdag {
    /// Build `H^{n×n}` for the given base case. `n` must be a power of two.
    ///
    /// # Panics
    /// Panics if `n` is not a positive power of two or the base case is
    /// malformed.
    pub fn build(base: &Base2x2, n: usize) -> Self {
        assert!(n.is_power_of_two(), "n must be a power of two");
        base.assert_well_formed();
        let levels = n.trailing_zeros() as usize + 1;
        let mut g = Cdag::new();
        let a_inputs: Vec<VertexId> = (0..n * n)
            .map(|i| g.add_vertex(VertexKind::Input, format!("a{}_{}", i / n, i % n)))
            .collect();
        let b_inputs: Vec<VertexId> = (0..n * n)
            .map(|i| g.add_vertex(VertexKind::Input, format!("b{}_{}", i / n, i % n)))
            .collect();
        let mut sub_outputs: Vec<Vec<Vec<VertexId>>> = vec![Vec::new(); levels];
        let mut sub_inputs: Vec<Vec<Vec<VertexId>>> = vec![Vec::new(); levels];
        let outputs = build_rec(
            &mut g,
            base,
            &a_inputs,
            &b_inputs,
            n,
            &mut sub_outputs,
            &mut sub_inputs,
        );
        for &o in &outputs {
            g.set_kind(o, VertexKind::Output);
        }
        if fmm_obs::enabled() {
            let labels = [("base", base.name.clone()), ("n", n.to_string())];
            fmm_obs::add("cdag.build.vertices", &labels, g.len() as u64);
            fmm_obs::add("cdag.build.edges", &labels, g.edge_count() as u64);
            fmm_obs::add(
                "cdag.build.multiplications",
                &labels,
                sub_outputs.iter().map(|l| l.len() as u64).sum(),
            );
        }
        RecursiveCdag {
            graph: g,
            n,
            a_inputs,
            b_inputs,
            outputs,
            sub_outputs,
            sub_inputs,
        }
    }

    /// All output vertices of `SUB_H^{r×r}` flattened, `r = 2^j`.
    ///
    /// Lemma 2.2: this has `(n/r)^{log₂ t} · r²` elements.
    pub fn sub_output_vertices(&self, j: usize) -> Vec<VertexId> {
        self.sub_outputs[j].iter().flatten().copied().collect()
    }

    /// All input vertices of `SUB_H^{r×r}` flattened, `r = 2^j`
    /// (deduplicated: a vertex can feed two sibling sub-problems when an
    /// encoder row passes an operand through unchanged).
    pub fn sub_input_vertices(&self, j: usize) -> Vec<VertexId> {
        let mut all: Vec<VertexId> = self.sub_inputs[j].iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Extract quadrant `q` (row-major 2×2 order) of a flat row-major `n×n`
/// block of vertex ids.
fn quadrant(block: &[VertexId], n: usize, q: usize) -> Vec<VertexId> {
    let h = n / 2;
    let (qi, qj) = (q / 2, q % 2);
    let mut out = Vec::with_capacity(h * h);
    for r in 0..h {
        for c in 0..h {
            out.push(block[(qi * h + r) * n + (qj * h + c)]);
        }
    }
    out
}

/// Build a linear-sum vertex chain over `terms`; reuses the single vertex
/// when the combination has one term, otherwise produces a left-deep chain
/// of binary additions (the canonical CDAG of a linear sum).
fn linear_sum(g: &mut Cdag, terms: &[VertexId], label: &str) -> VertexId {
    match terms.len() {
        0 => unreachable!("all-zero coefficient rows are rejected up front"),
        1 => terms[0],
        _ => {
            let mut acc = {
                let v = g.add_vertex(VertexKind::Internal, label);
                g.add_edge(terms[0], v);
                g.add_edge(terms[1], v);
                v
            };
            for &t in &terms[2..] {
                let v = g.add_vertex(VertexKind::Internal, label);
                g.add_edge(acc, v);
                g.add_edge(t, v);
                acc = v;
            }
            acc
        }
    }
}

#[allow(clippy::needless_range_loop)] // product/quadrant indices are structural
fn build_rec(
    g: &mut Cdag,
    base: &Base2x2,
    a: &[VertexId],
    b: &[VertexId],
    n: usize,
    sub_outputs: &mut Vec<Vec<Vec<VertexId>>>,
    sub_inputs: &mut Vec<Vec<Vec<VertexId>>>,
) -> Vec<VertexId> {
    let level = n.trailing_zeros() as usize;
    let mut my_inputs: Vec<VertexId> = Vec::with_capacity(2 * n * n);
    my_inputs.extend_from_slice(a);
    my_inputs.extend_from_slice(b);
    sub_inputs[level].push(my_inputs);
    if n == 1 {
        let m = g.add_vertex(VertexKind::Internal, "×");
        g.add_edge(a[0], m);
        g.add_edge(b[0], m);
        sub_outputs[0].push(vec![m]);
        return vec![m];
    }

    let h = n / 2;
    let hh = h * h;
    let a_quads: Vec<Vec<VertexId>> = (0..4).map(|q| quadrant(a, n, q)).collect();
    let b_quads: Vec<Vec<VertexId>> = (0..4).map(|q| quadrant(b, n, q)).collect();

    // Encode + recurse per product.
    let mut products: Vec<Vec<VertexId>> = Vec::with_capacity(base.t());
    for r in 0..base.t() {
        let mut left = Vec::with_capacity(hh);
        let mut right = Vec::with_capacity(hh);
        for p in 0..hh {
            let terms_l: Vec<VertexId> = (0..4)
                .filter(|&q| base.u[r][q] != 0)
                .map(|q| a_quads[q][p])
                .collect();
            left.push(linear_sum(g, &terms_l, "encA"));
            let terms_r: Vec<VertexId> = (0..4)
                .filter(|&q| base.v[r][q] != 0)
                .map(|q| b_quads[q][p])
                .collect();
            right.push(linear_sum(g, &terms_r, "encB"));
        }
        products.push(build_rec(
            g,
            base,
            &left,
            &right,
            h,
            sub_outputs,
            sub_inputs,
        ));
    }

    // Decode into the four output quadrants.
    let mut out = vec![VertexId(u32::MAX); n * n];
    for qo in 0..4 {
        let (qi, qj) = (qo / 2, qo % 2);
        for p in 0..hh {
            let terms: Vec<VertexId> = (0..base.t())
                .filter(|&r| base.w[qo][r] != 0)
                .map(|r| products[r][p])
                .collect();
            let v = if terms.len() == 1 {
                // A copy vertex keeps every sub-problem's output set made of
                // fresh vertices (so V_out(SUB_H^{r×r}) sets are disjoint per
                // size); asymptotically negligible.
                let c = g.add_vertex(VertexKind::Internal, "cp");
                g.add_edge(terms[0], c);
                c
            } else {
                linear_sum(g, &terms, "dec")
            };
            let (r, c) = (p / h, p % h);
            out[(qi * h + r) * n + (qj * h + c)] = v;
        }
    }
    debug_assert!(out.iter().all(|v| v.0 != u32::MAX));
    sub_outputs[level].push(out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strassen's algorithm (Algorithm 2 of the paper).
    pub fn strassen_base() -> Base2x2 {
        Base2x2 {
            name: "strassen".into(),
            u: vec![
                [1, 0, 0, 1],  // M1: (A11+A22)
                [0, 0, 1, 1],  // M2: (A21+A22)
                [1, 0, 0, 0],  // M3: A11
                [0, 0, 0, 1],  // M4: A22
                [1, 1, 0, 0],  // M5: (A11+A12)
                [-1, 0, 1, 0], // M6: (A21-A11)
                [0, 1, 0, -1], // M7: (A12-A22)
            ],
            v: vec![
                [1, 0, 0, 1],  // B11+B22
                [1, 0, 0, 0],  // B11
                [0, 1, 0, -1], // B12-B22
                [-1, 0, 1, 0], // B21-B11
                [0, 0, 0, 1],  // B22
                [1, 1, 0, 0],  // B11+B12
                [0, 0, 1, 1],  // B21+B22
            ],
            w: [
                vec![1, 0, 0, 1, -1, 0, 1], // C11 = M1+M4-M5+M7
                vec![0, 0, 1, 0, 1, 0, 0],  // C12 = M3+M5
                vec![0, 1, 0, 1, 0, 0, 0],  // C21 = M2+M4
                vec![1, -1, 1, 0, 0, 1, 0], // C22 = M1-M2+M3+M6
            ],
        }
    }

    #[test]
    fn base_well_formed() {
        strassen_base().assert_well_formed();
        assert_eq!(strassen_base().t(), 7);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn zero_row_rejected() {
        let mut b = strassen_base();
        b.u[3] = [0, 0, 0, 0];
        b.assert_well_formed();
    }

    #[test]
    fn h1_is_single_multiplication() {
        let h = RecursiveCdag::build(&strassen_base(), 1);
        assert_eq!(h.graph.len(), 3); // a, b, a·b
        assert_eq!(h.graph.inputs().len(), 2);
        assert_eq!(h.outputs.len(), 1);
        assert_eq!(h.sub_outputs[0].len(), 1);
    }

    #[test]
    fn h2_structure_matches_figure1() {
        // Figure 1: 4+4 inputs, 7 multiplication vertices, encoders and
        // decoders of linear sums, 4 outputs.
        let h = RecursiveCdag::build(&strassen_base(), 2);
        assert_eq!(h.graph.inputs().len(), 8);
        assert_eq!(h.outputs.len(), 4);
        // 7 sub-problems of size 1 (the scalar multiplications).
        assert_eq!(h.sub_outputs[0].len(), 7);
        // 1 problem of size 2 (the whole thing).
        assert_eq!(h.sub_outputs[1].len(), 1);
        // Encoder adds: U rows with 2 terms: M1,M2,M5,M6,M7 → 5 adds; same V.
        // Decoder adds: C11: 3, C12: 1, C21: 1, C22: 3 → 8 adds.
        // Total internal = 5 + 5 + 7 (mults) = 17 plus decoder chains 8 - but
        // the 4 final decode vertices were promoted to outputs.
        let internal = h.graph.internals().len();
        let outputs = h.outputs.len();
        assert_eq!(internal + outputs, 5 + 5 + 7 + 8);
    }

    #[test]
    fn lemma_2_2_output_counts() {
        // |V_out(SUB_H^{r×r})| = (n/r)^{log₂7} · r² = 7^{k-j} · 4^j.
        let base = strassen_base();
        for k in 0..=3usize {
            let n = 1 << k;
            let h = RecursiveCdag::build(&base, n);
            for j in 0..=k {
                let expect_count = 7usize.pow((k - j) as u32);
                assert_eq!(h.sub_outputs[j].len(), expect_count, "n={n} j={j}");
                assert_eq!(
                    h.sub_output_vertices(j).len(),
                    expect_count * (1 << (2 * j)),
                    "n={n} j={j}"
                );
            }
        }
    }

    #[test]
    fn graph_is_acyclic_and_io_clean() {
        let h = RecursiveCdag::build(&strassen_base(), 4);
        assert!(crate::topo::is_acyclic(&h.graph));
        // Inputs have no preds; outputs have no succs (nothing consumes C).
        for &v in &h.a_inputs {
            assert_eq!(h.graph.in_degree(v), 0);
        }
        for &v in &h.outputs {
            assert_eq!(h.graph.out_degree(v), 0, "output consumed internally");
        }
        assert_eq!(h.graph.inputs().len(), 2 * 16);
        assert_eq!(h.outputs.len(), 16);
    }

    #[test]
    fn sub_output_sets_disjoint_within_level() {
        let h = RecursiveCdag::build(&strassen_base(), 4);
        for j in 0..h.sub_outputs.len() {
            let mut seen = std::collections::HashSet::new();
            for subset in &h.sub_outputs[j] {
                for &v in subset {
                    assert!(
                        seen.insert(v),
                        "vertex {v:?} shared between size-2^{j} subproblems"
                    );
                }
            }
        }
    }

    #[test]
    fn every_output_depends_on_inputs() {
        let h = RecursiveCdag::build(&strassen_base(), 2);
        let reach = crate::topo::reachable_from(&h.graph, &h.graph.inputs());
        for &o in &h.outputs {
            assert!(reach[o.idx()]);
        }
    }

    #[test]
    fn encoder_bipartite_shape() {
        let g = strassen_base().encoder_bipartite_a();
        assert_eq!(g.nx(), 4);
        assert_eq!(g.ny(), 7);
        // A11 appears in M1, M3, M5, M6 (4 products).
        assert_eq!(g.neighbours(0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let _ = RecursiveCdag::build(&strassen_base(), 3);
    }

    #[test]
    fn growth_rate_follows_log2_7() {
        // Vertex count should grow by ~7× per doubling (asymptotically).
        let base = strassen_base();
        let v4 = RecursiveCdag::build(&base, 4).graph.len() as f64;
        let v8 = RecursiveCdag::build(&base, 8).graph.len() as f64;
        let ratio = v8 / v4;
        assert!(ratio > 5.0 && ratio < 8.0, "ratio {ratio}");
    }
}
