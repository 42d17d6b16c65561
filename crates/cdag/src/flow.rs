//! Dinic max-flow and vertex-disjoint path / vertex-cut computations.
//!
//! Menger's theorem turns two statements the paper's proofs need into
//! max-flow problems on a vertex-split network:
//!
//! * the maximum number of **vertex-disjoint paths** between two vertex sets
//!   (the quantity bounded from below in Lemma 3.11), and
//! * the **minimum vertex cut** separating the inputs from a target set,
//!   which is exactly the minimum dominator set of Definition 2.3 (checked
//!   against the `|Γ| ≥ |Z|/2` bound of Lemma 3.7).

use crate::graph::{Cdag, VertexId};
use crate::topo::reachable_avoiding;
use std::collections::VecDeque;

/// A directed flow network with integer capacities, solved by Dinic's
/// algorithm (O(V²E) generally, O(E√V) on unit networks — ours are unit).
pub(crate) struct FlowNetwork {
    /// to, cap, index of reverse edge
    edges: Vec<(usize, i64, usize)>,
    head: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// Network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Add a directed edge `u → v` with capacity `cap` (and its residual).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) {
        assert!(
            u < self.len() && v < self.len(),
            "edge endpoint out of range"
        );
        assert!(cap >= 0, "negative capacity");
        let e1 = self.edges.len();
        self.edges.push((v, cap, e1 + 1));
        self.head[u].push(e1);
        self.edges.push((u, 0, e1));
        self.head[v].push(e1 + 1);
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1; self.len()];
        level[s] = 0;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ei in &self.head[u] {
                let (v, cap, _) = self.edges[ei];
                if cap > 0 && level[v] < 0 {
                    level[v] = level[u] + 1;
                    q.push_back(v);
                }
            }
        }
        (level[t] >= 0).then_some(level)
    }

    fn dfs_augment(
        &mut self,
        u: usize,
        t: usize,
        pushed: i64,
        level: &[i32],
        it: &mut [usize],
    ) -> i64 {
        if u == t {
            return pushed;
        }
        while it[u] < self.head[u].len() {
            let ei = self.head[u][it[u]];
            let (v, cap, rev) = self.edges[ei];
            if cap > 0 && level[v] == level[u] + 1 {
                let d = self.dfs_augment(v, t, pushed.min(cap), level, it);
                if d > 0 {
                    self.edges[ei].1 -= d;
                    self.edges[rev].1 += d;
                    return d;
                }
            }
            it[u] += 1;
        }
        0
    }

    /// Maximum flow from `s` to `t`.
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert_ne!(s, t, "source equals sink");
        let mut flow = 0;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut it = vec![0usize; self.len()];
            loop {
                let pushed = self.dfs_augment(s, t, i64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// After `max_flow`, the set of nodes reachable from `s` in the residual
    /// graph (the source side of a minimum cut).
    pub(crate) fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        seen[s] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &ei in &self.head[u] {
                let (v, cap, _) = self.edges[ei];
                if cap > 0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

/// The vertex-split network used for vertex-disjoint path and vertex-cut
/// problems: CDAG vertex `v` becomes `v_in = 2v`, `v_out = 2v + 1` joined by
/// a unit-capacity internal edge; CDAG edge `u → w` becomes
/// `u_out → w_in` with unit capacity. Node `2·len` is the super-source,
/// `2·len + 1` the super-sink.
fn build_split_network(g: &Cdag, forbidden: &[bool]) -> FlowNetwork {
    let n = g.len();
    let mut net = FlowNetwork::new(2 * n + 2);
    for v in g.vertices() {
        if forbidden[v.idx()] {
            continue;
        }
        net.add_edge(2 * v.idx(), 2 * v.idx() + 1, 1);
        for &s in g.succs(v) {
            if !forbidden[s.idx()] {
                net.add_edge(2 * v.idx() + 1, 2 * s.idx(), 1);
            }
        }
    }
    net
}

/// Maximum number of vertex-disjoint directed paths from `sources` to
/// `targets`, none of which passes through a `forbidden` vertex.
///
/// Paths are *internally and terminally* disjoint: each CDAG vertex
/// (including endpoints) is used by at most one path. A vertex that is both
/// a source and a target yields a length-0 path.
pub fn max_vertex_disjoint_paths(
    g: &Cdag,
    sources: &[VertexId],
    targets: &[VertexId],
    forbidden: &[VertexId],
) -> usize {
    let mut forb = vec![false; g.len()];
    for &v in forbidden {
        forb[v.idx()] = true;
    }
    let mut net = build_split_network(g, &forb);
    let (s, t) = (2 * g.len(), 2 * g.len() + 1);
    for &src in sources {
        if !forb[src.idx()] {
            net.add_edge(s, 2 * src.idx(), 1);
        }
    }
    for &tgt in targets {
        if !forb[tgt.idx()] {
            net.add_edge(2 * tgt.idx() + 1, t, 1);
        }
    }
    net.max_flow(s, t) as usize
}

/// Exact minimum vertex cut separating `sources` from `targets`, where the
/// cut may contain source and target vertices themselves.
///
/// This is precisely the **minimum dominator set** of `targets` with respect
/// to paths from `sources` (Definition 2.3). Returns the cut vertices.
pub fn min_vertex_cut(g: &Cdag, sources: &[VertexId], targets: &[VertexId]) -> Vec<VertexId> {
    let forb = vec![false; g.len()];
    let mut net = build_split_network(g, &forb);
    let (s, t) = (2 * g.len(), 2 * g.len() + 1);
    for &src in sources {
        net.add_edge(s, 2 * src.idx(), i64::MAX / 2);
    }
    for &tgt in targets {
        net.add_edge(2 * tgt.idx() + 1, t, i64::MAX / 2);
    }
    let flow = net.max_flow(s, t);
    // Cut vertices: v whose in-node is residual-reachable but out-node isn't
    // — the saturated internal edges crossing the minimum cut.
    let reach = net.residual_reachable(s);
    let cut: Vec<VertexId> = g
        .vertices()
        .filter(|v| reach[2 * v.idx()] && !reach[2 * v.idx() + 1])
        .collect();
    debug_assert_eq!(cut.len() as i64, flow, "cut size must equal max flow");
    cut
}

/// `true` iff `gamma` is a dominator set for `targets` in `g`: every path
/// from an input vertex to a target contains a vertex of `gamma`.
pub fn is_dominator(g: &Cdag, gamma: &[VertexId], targets: &[VertexId]) -> bool {
    let mut blocked = vec![false; g.len()];
    for &v in gamma {
        blocked[v.idx()] = true;
    }
    let inputs = g.inputs();
    let reach = reachable_avoiding(g, &inputs, &blocked);
    targets.iter().all(|&z| blocked[z.idx()] || !reach[z.idx()])
}

/// Size of the minimum dominator set of `targets` (paths from `V_inp`).
pub fn min_dominator_size(g: &Cdag, targets: &[VertexId]) -> usize {
    min_vertex_cut(g, &g.inputs(), targets).len()
}

/// Brute-force minimum dominator set by exhaustive subset search over the
/// relevant vertices (those lying on some input→target path). Exponential;
/// used only to validate the flow-based computation on tiny graphs.
pub fn min_dominator_brute(g: &Cdag, targets: &[VertexId]) -> usize {
    use crate::topo::{ancestors_of, reachable_from};
    let inputs = g.inputs();
    let fwd = reachable_from(g, &inputs);
    let bwd = ancestors_of(g, targets);
    let relevant: Vec<VertexId> = g
        .vertices()
        .filter(|v| fwd[v.idx()] && bwd[v.idx()])
        .collect();
    assert!(
        relevant.len() <= 20,
        "brute-force dominator limited to 20 relevant vertices"
    );

    /// Try every size-`k` subset of `relevant[from..]` extending `gamma`.
    fn search(
        g: &Cdag,
        targets: &[VertexId],
        relevant: &[VertexId],
        gamma: &mut Vec<VertexId>,
        from: usize,
        k: usize,
    ) -> bool {
        if k == 0 {
            return is_dominator(g, gamma, targets);
        }
        if relevant.len() - from < k {
            return false;
        }
        for i in from..relevant.len() {
            gamma.push(relevant[i]);
            if search(g, targets, relevant, gamma, i + 1, k - 1) {
                gamma.pop();
                return true;
            }
            gamma.pop();
        }
        false
    }

    for size in 0..=relevant.len() {
        if search(g, targets, &relevant, &mut Vec::new(), 0, size) {
            return size;
        }
    }
    relevant.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;

    /// Two sources, two sinks, crossbar through two middle vertices.
    fn crossbar() -> (Cdag, Vec<VertexId>) {
        let mut g = Cdag::new();
        let s1 = g.add_vertex(VertexKind::Input, "s1");
        let s2 = g.add_vertex(VertexKind::Input, "s2");
        let m1 = g.add_vertex(VertexKind::Internal, "m1");
        let m2 = g.add_vertex(VertexKind::Internal, "m2");
        let t1 = g.add_vertex(VertexKind::Output, "t1");
        let t2 = g.add_vertex(VertexKind::Output, "t2");
        for s in [s1, s2] {
            for m in [m1, m2] {
                g.add_edge(s, m);
            }
        }
        for m in [m1, m2] {
            for t in [t1, t2] {
                g.add_edge(m, t);
            }
        }
        (g, vec![s1, s2, m1, m2, t1, t2])
    }

    #[test]
    fn dinic_simple_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn dinic_disconnected_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn disjoint_paths_crossbar() {
        let (g, v) = crossbar();
        // Only 2 middle vertices → at most 2 vertex-disjoint paths.
        assert_eq!(
            max_vertex_disjoint_paths(&g, &[v[0], v[1]], &[v[4], v[5]], &[]),
            2
        );
        // Forbidding one middle vertex drops it to 1.
        assert_eq!(
            max_vertex_disjoint_paths(&g, &[v[0], v[1]], &[v[4], v[5]], &[v[2]]),
            1
        );
        // Forbidding both disconnects.
        assert_eq!(
            max_vertex_disjoint_paths(&g, &[v[0], v[1]], &[v[4], v[5]], &[v[2], v[3]]),
            0
        );
    }

    #[test]
    fn source_equals_target_counts() {
        let mut g = Cdag::new();
        let a = g.add_vertex(VertexKind::Input, "a");
        assert_eq!(max_vertex_disjoint_paths(&g, &[a], &[a], &[]), 1);
    }

    #[test]
    fn min_cut_is_middle_layer() {
        let (g, v) = crossbar();
        let cut = min_vertex_cut(&g, &[v[0], v[1]], &[v[4], v[5]]);
        // The minimum cut has size 2 (sources, middles, and sinks are all
        // valid minimum cuts; which one Dinic returns is not specified).
        assert_eq!(cut.len(), 2);
        assert!(is_dominator(&g, &cut, &[v[4], v[5]]));
    }

    #[test]
    fn min_cut_result_is_dominator() {
        let (g, v) = crossbar();
        let targets = [v[4], v[5]];
        let cut = min_vertex_cut(&g, &g.inputs(), &targets);
        assert!(is_dominator(&g, &cut, &targets));
    }

    #[test]
    fn dominator_checks() {
        let (g, v) = crossbar();
        let targets = [v[4], v[5]];
        assert!(is_dominator(&g, &[v[2], v[3]], &targets));
        assert!(is_dominator(&g, &[v[0], v[1]], &targets)); // inputs dominate
        assert!(is_dominator(&g, &targets, &targets)); // targets dominate themselves
        assert!(!is_dominator(&g, &[v[2]], &targets));
        assert!(!is_dominator(&g, &[], &targets));
    }

    #[test]
    fn min_dominator_flow_matches_brute() {
        let (g, v) = crossbar();
        let targets = [v[4], v[5]];
        assert_eq!(min_dominator_size(&g, &targets), 2);
        assert_eq!(min_dominator_brute(&g, &targets), 2);
        let one = [v[4]];
        assert_eq!(min_dominator_size(&g, &one), min_dominator_brute(&g, &one));
    }

    #[test]
    fn input_target_needs_self_in_cut() {
        let mut g = Cdag::new();
        let a = g.add_vertex(VertexKind::Input, "a");
        let b = g.add_vertex(VertexKind::Output, "b");
        g.add_edge(a, b);
        // Dominating the input vertex a itself requires Γ ∋ a.
        assert_eq!(min_dominator_size(&g, &[a]), 1);
        let cut = min_vertex_cut(&g, &[a], &[a]);
        assert_eq!(cut, vec![a]);
    }

    #[test]
    fn chain_min_cut_is_one() {
        let mut g = Cdag::new();
        let a = g.add_vertex(VertexKind::Input, "a");
        let b = g.add_vertex(VertexKind::Internal, "b");
        let c = g.add_vertex(VertexKind::Internal, "c");
        let d = g.add_vertex(VertexKind::Output, "d");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, d);
        assert_eq!(min_dominator_size(&g, &[d]), 1);
        assert_eq!(max_vertex_disjoint_paths(&g, &[a], &[d], &[]), 1);
        assert_eq!(max_vertex_disjoint_paths(&g, &[a], &[d], &[b]), 0);
    }

    #[test]
    #[should_panic(expected = "source equals sink")]
    fn flow_same_node_panics() {
        let mut net = FlowNetwork::new(2);
        let _ = net.max_flow(1, 1);
    }
}
