//! The CDAG datatype (Definition 2.1).

use std::fmt;

/// Index of a vertex in a [`Cdag`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Role of a vertex, following the paper's `V_inp / V_int / V_out` split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VertexKind {
    /// An input argument of the computation (no predecessors).
    Input,
    /// An intermediate argument.
    Internal,
    /// An output argument of the computation.
    Output,
}

/// A computational DAG: each vertex is an argument of the computation, each
/// edge a direct dependency (`z = x + y` yields edges `x→z`, `y→z`).
///
/// Stored as an arena with forward (`succs`) and backward (`preds`)
/// adjacency. Vertices carry a human-readable label for DOT export and
/// debugging; labels play no semantic role.
#[derive(Clone)]
pub struct Cdag {
    kinds: Vec<VertexKind>,
    labels: Vec<String>,
    preds: Vec<Vec<VertexId>>,
    succs: Vec<Vec<VertexId>>,
    edge_count: usize,
}

impl Cdag {
    /// Empty CDAG.
    pub fn new() -> Self {
        Cdag {
            kinds: Vec::new(),
            labels: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            edge_count: 0,
        }
    }

    /// Add a vertex of the given kind with a debug label.
    pub fn add_vertex(&mut self, kind: VertexKind, label: impl Into<String>) -> VertexId {
        let id = VertexId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.labels.push(label.into());
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Add a dependency edge `from → to` (`to` consumes `from`).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range, on self-loops, or when the
    /// head is an [`VertexKind::Input`] vertex (inputs have no
    /// predecessors by definition).
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        assert!(
            from.idx() < self.len() && to.idx() < self.len(),
            "edge endpoint out of range"
        );
        assert_ne!(from, to, "self-loop");
        assert!(
            self.kinds[to.idx()] != VertexKind::Input,
            "input vertex cannot have predecessors"
        );
        self.succs[from.idx()].push(to);
        self.preds[to.idx()].push(from);
        self.edge_count += 1;
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when the CDAG has no vertices.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Kind of vertex `v`.
    pub fn kind(&self, v: VertexId) -> VertexKind {
        self.kinds[v.idx()]
    }

    /// Re-classify a vertex (used by the generator to promote the final
    /// decode vertices to outputs).
    pub(crate) fn set_kind(&mut self, v: VertexId, kind: VertexKind) {
        self.kinds[v.idx()] = kind;
    }

    /// Debug label of vertex `v`.
    pub fn label(&self, v: VertexId) -> &str {
        &self.labels[v.idx()]
    }

    /// Direct predecessors (the arguments `v` is computed from).
    pub fn preds(&self, v: VertexId) -> &[VertexId] {
        &self.preds[v.idx()]
    }

    /// Direct successors (the computations consuming `v`).
    pub(crate) fn succs(&self, v: VertexId) -> &[VertexId] {
        &self.succs[v.idx()]
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.len() as u32).map(VertexId)
    }

    /// All input vertices (`V_inp`).
    pub fn inputs(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.kind(v) == VertexKind::Input)
            .collect()
    }

    /// All output vertices (`V_out`).
    pub fn outputs(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.kind(v) == VertexKind::Output)
            .collect()
    }

    /// All internal vertices (`V_int`).
    pub fn internals(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.kind(v) == VertexKind::Internal)
            .collect()
    }

    /// Disjoint union: append a copy of `other`, returning the id offset of
    /// its vertices in `self` (vertex `v` of `other` becomes
    /// `VertexId(offset + v.0)`). Used to build the `q` vertex-disjoint
    /// copies `G^{q,n×n}` of Lemma 3.10.
    pub fn disjoint_union(&mut self, other: &Cdag) -> u32 {
        let offset = self.len() as u32;
        for v in other.vertices() {
            self.add_vertex(other.kind(v), other.label(v).to_string());
        }
        for v in other.vertices() {
            for &s in other.succs(v) {
                self.add_edge(VertexId(offset + v.0), VertexId(offset + s.0));
            }
        }
        offset
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.preds[v.idx()].len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.succs[v.idx()].len()
    }
}

impl Default for Cdag {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Cdag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cdag {{ vertices: {} (inp {}, int {}, out {}), edges: {} }}",
            self.len(),
            self.inputs().len(),
            self.internals().len(),
            self.outputs().len(),
            self.edge_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny CDAG for `z = x + y`.
    fn xyz() -> (Cdag, VertexId, VertexId, VertexId) {
        let mut g = Cdag::new();
        let x = g.add_vertex(VertexKind::Input, "x");
        let y = g.add_vertex(VertexKind::Input, "y");
        let z = g.add_vertex(VertexKind::Output, "z");
        g.add_edge(x, z);
        g.add_edge(y, z);
        (g, x, y, z)
    }

    #[test]
    fn construction_and_counts() {
        let (g, x, y, z) = xyz();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.inputs(), vec![x, y]);
        assert_eq!(g.outputs(), vec![z]);
        assert!(g.internals().is_empty());
        assert_eq!(g.kind(x), VertexKind::Input);
    }

    #[test]
    fn adjacency() {
        let (g, x, y, z) = xyz();
        assert_eq!(g.preds(z), &[x, y]);
        assert_eq!(g.succs(x), &[z]);
        assert_eq!(g.in_degree(z), 2);
        assert_eq!(g.out_degree(y), 1);
        assert_eq!(g.in_degree(x), 0);
    }

    #[test]
    fn labels_kept() {
        let (g, x, _, z) = xyz();
        assert_eq!(g.label(x), "x");
        assert_eq!(g.label(z), "z");
    }

    #[test]
    fn set_kind_promotes() {
        let (mut g, _, _, z) = xyz();
        g.set_kind(z, VertexKind::Internal);
        assert!(g.outputs().is_empty());
        assert_eq!(g.internals(), vec![z]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let (mut g, _, _, z) = xyz();
        g.add_edge(z, z);
    }

    #[test]
    #[should_panic(expected = "input vertex cannot have predecessors")]
    fn edge_into_input_panics() {
        let (mut g, x, y, _) = xyz();
        g.add_edge(y, x);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_oob_panics() {
        let (mut g, x, _, _) = xyz();
        g.add_edge(x, VertexId(99));
    }
}
