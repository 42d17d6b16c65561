//! Structural statistics of CDAGs — the executable counterpart of the
//! counting statements in Section II (Lemma 2.2 in particular).

use crate::generator::RecursiveCdag;
use crate::graph::{Cdag, VertexKind};

/// Vertex/edge census of a CDAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Census {
    /// Total vertices.
    pub vertices: usize,
    /// Input vertices (`V_inp`).
    pub inputs: usize,
    /// Internal vertices (`V_int`).
    pub internals: usize,
    /// Output vertices (`V_out`).
    pub outputs: usize,
    /// Total edges.
    pub edges: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
}

/// Compute the census of a graph.
pub fn census(g: &Cdag) -> Census {
    let mut c = Census {
        vertices: g.len(),
        inputs: 0,
        internals: 0,
        outputs: 0,
        edges: g.edge_count(),
        max_in_degree: 0,
        max_out_degree: 0,
    };
    for v in g.vertices() {
        match g.kind(v) {
            VertexKind::Input => c.inputs += 1,
            VertexKind::Internal => c.internals += 1,
            VertexKind::Output => c.outputs += 1,
        }
        c.max_in_degree = c.max_in_degree.max(g.in_degree(v));
        c.max_out_degree = c.max_out_degree.max(g.out_degree(v));
    }
    c
}

/// Check Lemma 2.2 on a generated `H^{n×n}`: for every `r = 2^j ≤ n`, the
/// group of sub-CDAGs of size `r×r` has `(n/r)^{log₂t} · r²` output
/// vertices. Returns the first violated level, if any.
pub fn lemma_2_2_violation(h: &RecursiveCdag, t: usize) -> Option<usize> {
    let k = h.n.trailing_zeros() as usize;
    for j in 0..=k {
        let expect = t.pow((k - j) as u32) * (1usize << (2 * j));
        if h.sub_output_vertices(j).len() != expect {
            return Some(j);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Base2x2, RecursiveCdag};

    fn strassen() -> Base2x2 {
        Base2x2 {
            name: "strassen".into(),
            u: vec![
                [1, 0, 0, 1],
                [0, 0, 1, 1],
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [1, 1, 0, 0],
                [-1, 0, 1, 0],
                [0, 1, 0, -1],
            ],
            v: vec![
                [1, 0, 0, 1],
                [1, 0, 0, 0],
                [0, 1, 0, -1],
                [-1, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 1, 0, 0],
                [0, 0, 1, 1],
            ],
            w: [
                vec![1, 0, 0, 1, -1, 0, 1],
                vec![0, 0, 1, 0, 1, 0, 0],
                vec![0, 1, 0, 1, 0, 0, 0],
                vec![1, -1, 1, 0, 0, 1, 0],
            ],
        }
    }

    #[test]
    fn census_of_h2() {
        let h = RecursiveCdag::build(&strassen(), 2);
        let c = census(&h.graph);
        assert_eq!(c.inputs, 8);
        assert_eq!(c.outputs, 4);
        assert_eq!(c.vertices, c.inputs + c.internals + c.outputs);
        // Multiplication and addition vertices are all binary.
        assert_eq!(c.max_in_degree, 2);
    }

    #[test]
    fn lemma_2_2_holds_generated() {
        for n in [1usize, 2, 4, 8] {
            let h = RecursiveCdag::build(&strassen(), n);
            assert_eq!(lemma_2_2_violation(&h, 7), None, "n={n}");
        }
    }

    #[test]
    fn edge_count_consistency() {
        // Every non-input vertex is binary (in-degree 2) except copy
        // vertices (in-degree 1); edges = Σ in-degrees.
        let h = RecursiveCdag::build(&strassen(), 4);
        let sum_in: usize = h.graph.vertices().map(|v| h.graph.in_degree(v)).sum();
        assert_eq!(sum_in, h.graph.edge_count());
    }
}
