//! Bipartite maximum matching (Hopcroft–Karp) and Hall's condition.
//!
//! Lemma 3.1 of the paper asserts that in the encoder bipartite graph
//! `G = (X, Y, E)` of any 2×2-base fast matrix multiplication algorithm
//! (|X| = 4 input arguments, |Y| = 7 encoded products), every subset
//! `Y' ⊆ Y` admits a matching of size at least `1 + ⌈(|Y'|−1)/2⌉` into `X`.
//! This module provides the exact machinery to check such statements:
//! maximum matching on arbitrary bipartite graphs, matchings restricted to
//! a subset of one side, and an exhaustive Hall-condition verifier.

use std::collections::VecDeque;

/// A bipartite graph on parts `X` (size `nx`) and `Y` (size `ny`).
///
/// Adjacency is stored from the `X` side; `adj[x]` lists the `Y`-vertices
/// adjacent to `x`.
///
/// ```
/// use fmm_cdag::matching::Bipartite;
/// let mut g = Bipartite::new(2, 2);
/// g.add_edge(0, 0);
/// g.add_edge(0, 1);
/// g.add_edge(1, 1);
/// assert_eq!(g.max_matching(), 2);
/// assert!(g.hall_violation().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Bipartite {
    nx: usize,
    ny: usize,
    adj: Vec<Vec<usize>>,
}

impl Bipartite {
    /// Empty bipartite graph with `nx` left and `ny` right vertices.
    pub fn new(nx: usize, ny: usize) -> Self {
        Bipartite {
            nx,
            ny,
            adj: vec![Vec::new(); nx],
        }
    }

    /// Add edge `(x, y)`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, x: usize, y: usize) {
        assert!(x < self.nx && y < self.ny, "edge endpoint out of range");
        self.adj[x].push(y);
    }

    /// Left part size.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Right part size.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Neighbours of left vertex `x`.
    pub fn neighbours(&self, x: usize) -> &[usize] {
        &self.adj[x]
    }

    /// Neighbour set of a *set* of left vertices, as a sorted deduplicated
    /// vector (this is `N_G(W)` in Hall's theorem).
    pub fn neighbourhood(&self, xs: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; self.ny];
        for &x in xs {
            for &y in &self.adj[x] {
                seen[y] = true;
            }
        }
        (0..self.ny).filter(|&y| seen[y]).collect()
    }

    /// The same graph with parts swapped (edges reversed).
    pub fn flipped(&self) -> Bipartite {
        let mut g = Bipartite::new(self.ny, self.nx);
        for x in 0..self.nx {
            for &y in &self.adj[x] {
                g.add_edge(y, x);
            }
        }
        g
    }

    /// Maximum matching size via Hopcroft–Karp, O(E·√V).
    pub fn max_matching(&self) -> usize {
        self.max_matching_subset(&(0..self.nx).collect::<Vec<_>>())
    }

    /// Maximum matching size when only the left vertices in `xs` may be
    /// matched. (Used with [`Bipartite::flipped`] to match subsets `Y'`.)
    pub fn max_matching_subset(&self, xs: &[usize]) -> usize {
        const NIL: usize = usize::MAX;
        let mut match_x = vec![NIL; self.nx];
        let mut match_y = vec![NIL; self.ny];
        let mut dist = vec![usize::MAX; self.nx];
        let active: Vec<usize> = xs.to_vec();

        let bfs = |match_x: &[usize], match_y: &[usize], dist: &mut [usize]| -> bool {
            let mut q = VecDeque::new();
            for &x in &active {
                if match_x[x] == NIL {
                    dist[x] = 0;
                    q.push_back(x);
                } else {
                    dist[x] = usize::MAX;
                }
            }
            let mut found = false;
            while let Some(x) = q.pop_front() {
                for &y in &self.adj[x] {
                    let nxt = match_y[y];
                    if nxt == NIL {
                        found = true;
                    } else if dist[nxt] == usize::MAX {
                        dist[nxt] = dist[x] + 1;
                        q.push_back(nxt);
                    }
                }
            }
            found
        };

        fn dfs(
            g: &Bipartite,
            x: usize,
            match_x: &mut [usize],
            match_y: &mut [usize],
            dist: &mut [usize],
        ) -> bool {
            const NIL: usize = usize::MAX;
            for i in 0..g.adj[x].len() {
                let y = g.adj[x][i];
                let nxt = match_y[y];
                if nxt == NIL || (dist[nxt] == dist[x] + 1 && dfs(g, nxt, match_x, match_y, dist)) {
                    match_x[x] = y;
                    match_y[y] = x;
                    return true;
                }
            }
            dist[x] = usize::MAX;
            false
        }

        // Mark non-active left vertices as permanently unreachable.
        let mut result = 0;
        while bfs(&match_x, &match_y, &mut dist) {
            for &x in &active {
                if match_x[x] == NIL && dfs(self, x, &mut match_x, &mut match_y, &mut dist) {
                    result += 1;
                }
            }
        }
        result
    }

    /// Exhaustively verify Hall's condition for all subsets `W` of the left
    /// part: `|N(W)| ≥ |W|`. Returns the first violating subset (as a
    /// bitmask) if any. Exponential in `nx` — intended for the tiny encoder
    /// graphs (`nx ≤ ~20`).
    pub fn hall_violation(&self) -> Option<u64> {
        assert!(
            self.nx <= 63,
            "exhaustive Hall check limited to 63 vertices"
        );
        for mask in 1u64..(1 << self.nx) {
            let xs: Vec<usize> = (0..self.nx).filter(|&x| mask >> x & 1 == 1).collect();
            if self.neighbourhood(&xs).len() < xs.len() {
                return Some(mask);
            }
        }
        None
    }

    /// Brute-force maximum matching by trying all injective assignments.
    /// Exponential; used only to cross-validate Hopcroft–Karp in tests.
    #[cfg(test)]
    pub(crate) fn max_matching_brute(&self) -> usize {
        fn rec(g: &Bipartite, x: usize, used: &mut Vec<bool>) -> usize {
            if x == g.nx {
                return 0;
            }
            // Option 1: leave x unmatched.
            let mut best = rec(g, x + 1, used);
            // Option 2: match x to any free neighbour.
            for &y in &g.adj[x] {
                if !used[y] {
                    used[y] = true;
                    best = best.max(1 + rec(g, x + 1, used));
                    used[y] = false;
                }
            }
            best
        }
        assert!(
            self.nx <= 12,
            "brute-force matching limited to 12 left vertices"
        );
        rec(self, 0, &mut vec![false; self.ny])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Strassen encoder graph for matrix A (Figure 2 of the paper):
    /// X = {a11, a12, a21, a22}, Y = {M1..M7}; x–y edge iff x appears in
    /// the left operand of product y.
    pub fn strassen_encoder() -> Bipartite {
        let rows: [&[usize]; 7] = [
            &[0, 3], // M1: A11+A22
            &[2, 3], // M2: A21+A22
            &[0],    // M3: A11
            &[3],    // M4: A22
            &[0, 1], // M5: A11+A12
            &[2, 3], // M6: A21-A22
            &[1, 3], // M7: A12-A22
        ];
        let mut g = Bipartite::new(4, 7);
        for (y, xs) in rows.iter().enumerate() {
            for &x in xs.iter() {
                g.add_edge(x, y);
            }
        }
        g
    }

    #[test]
    fn perfect_matching_on_k33() {
        let mut g = Bipartite::new(3, 3);
        for x in 0..3 {
            for y in 0..3 {
                g.add_edge(x, y);
            }
        }
        assert_eq!(g.max_matching(), 3);
        assert!(g.hall_violation().is_none());
    }

    #[test]
    fn hall_violation_detected() {
        // Two left vertices share one right neighbour: W = {0,1} violates.
        let mut g = Bipartite::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        assert_eq!(g.max_matching(), 1);
        assert_eq!(g.hall_violation(), Some(0b11));
    }

    #[test]
    fn strassen_encoder_saturates_inputs() {
        let g = strassen_encoder();
        // All four inputs can be matched to distinct products.
        assert_eq!(g.max_matching(), 4);
        assert!(g.hall_violation().is_none());
    }

    #[test]
    fn strassen_encoder_flipped_subsets() {
        // Matching restricted to a subset of products (Lemma 3.1 shape):
        // Y' = {M1, M2} must match at least 2 inputs.
        let f = strassen_encoder().flipped();
        assert!(f.max_matching_subset(&[0, 1]) >= 2);
        // Full Y: matching saturates all 4 inputs.
        assert_eq!(f.max_matching(), 4);
    }

    #[test]
    fn subset_matching_monotone() {
        let f = strassen_encoder().flipped();
        let m_small = f.max_matching_subset(&[0, 2]);
        let m_large = f.max_matching_subset(&[0, 1, 2, 3]);
        assert!(m_small <= m_large);
    }

    #[test]
    fn neighbourhood_dedup() {
        let g = strassen_encoder();
        // a11 and a22 together reach M1,M2,M3,M4,M5,M6,M7.
        let n = g.neighbourhood(&[0, 3]);
        assert_eq!(n, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn empty_graph_matches_zero() {
        let g = Bipartite::new(3, 3);
        assert_eq!(g.max_matching(), 0);
    }

    proptest! {
        /// Hopcroft–Karp agrees with brute force on random small graphs.
        #[test]
        fn hk_matches_brute(edges in proptest::collection::vec((0usize..6, 0usize..6), 0..20)) {
            let mut g = Bipartite::new(6, 6);
            for (x, y) in edges {
                g.add_edge(x, y);
            }
            prop_assert_eq!(g.max_matching(), g.max_matching_brute());
        }

        /// Flipping preserves maximum matching size.
        #[test]
        fn flip_preserves_matching(edges in proptest::collection::vec((0usize..5, 0usize..7), 0..18)) {
            let mut g = Bipartite::new(5, 7);
            for (x, y) in edges {
                g.add_edge(x, y);
            }
            prop_assert_eq!(g.max_matching(), g.flipped().max_matching());
        }

        /// König/Hall consistency: Hall condition holds iff the left part
        /// saturates.
        #[test]
        fn hall_iff_saturating(edges in proptest::collection::vec((0usize..5, 0usize..5), 0..15)) {
            let mut g = Bipartite::new(5, 5);
            for (x, y) in edges {
                g.add_edge(x, y);
            }
            let saturating = g.max_matching() == 5;
            prop_assert_eq!(g.hall_violation().is_none(), saturating);
        }
    }
}
