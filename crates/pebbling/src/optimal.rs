//! Exact minimum-cost pebbling by Dijkstra over game states.
//!
//! For tiny CDAGs (≲ 12 vertices) the whole game graph fits in memory:
//! a state is `(red mask, blue mask, computed mask)` and edges are the four
//! move types, weighted by the [`crate::game::CostModel`]. Running the
//! search twice — once with recomputation allowed and once without — gives
//! the **exact** answer to "does recomputation reduce I/O on this CDAG?",
//! the question the paper answers asymptotically for fast matrix
//! multiplication.

use crate::game::CostModel;
use fmm_cdag::{Cdag, VertexId, VertexKind};
use std::collections::{BinaryHeap, HashMap};

/// Outcome of an exact search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimalResult {
    /// Minimum total cost under the cost model.
    pub cost: u64,
    /// Loads on (one of) the optimal schedule(s) found.
    pub loads: u64,
    /// Stores on that schedule.
    pub stores: u64,
    /// States expanded by the search (diagnostic).
    pub states_explored: usize,
}

/// Error cases of the exact search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimalError {
    /// The CDAG has more vertices than the state encoding supports.
    TooLarge {
        /// Vertices present.
        vertices: usize,
        /// Maximum supported.
        max: usize,
    },
    /// State budget exhausted before reaching a terminal state.
    BudgetExhausted,
    /// No terminal state reachable (capacity below max in-degree + 1).
    Unpebbleable,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    red: u16,
    blue: u16,
    computed: u16,
}

#[derive(PartialEq, Eq)]
struct QueueEntry {
    cost: u64,
    loads: u64,
    stores: u64,
    state: State,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.cost.cmp(&self.cost) // min-heap
    }
}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Maximum CDAG size the `u16` masks support.
pub(crate) const MAX_VERTICES: usize = 16;

/// Publish Dijkstra diagnostics under a `search` label.
fn publish_search(search: &str, explored: usize, frontier_peak: usize) {
    if fmm_obs::enabled() {
        let labels = [("search", search.to_string())];
        fmm_obs::add("pebbling.optimal.states_explored", &labels, explored as u64);
        fmm_obs::gauge(
            "pebbling.optimal.frontier_peak",
            &labels,
            frontier_peak as f64,
        );
    }
}

/// Exact minimum-cost pebbling of `g` with red capacity `capacity`.
///
/// `allow_recompute = false` restricts to schedules computing each vertex
/// at most once. `state_budget` caps the number of distinct states settled
/// (typical tiny instances need well under a million).
pub fn optimal_pebbling(
    g: &Cdag,
    capacity: usize,
    allow_recompute: bool,
    model: CostModel,
    state_budget: usize,
) -> Result<OptimalResult, OptimalError> {
    let n = g.len();
    if n > MAX_VERTICES {
        return Err(OptimalError::TooLarge {
            vertices: n,
            max: MAX_VERTICES,
        });
    }
    let max_indeg = g.vertices().map(|v| g.in_degree(v)).max().unwrap_or(0);
    if capacity < max_indeg + 1 && g.vertices().any(|v| g.in_degree(v) > 0) {
        return Err(OptimalError::Unpebbleable);
    }

    let input_mask: u16 = g.inputs().iter().fold(0, |m, v| m | (1 << v.idx()));
    let output_mask: u16 = g.outputs().iter().fold(0, |m, v| m | (1 << v.idx()));
    let pred_masks: Vec<u16> = g
        .vertices()
        .map(|v| g.preds(v).iter().fold(0u16, |m, p| m | (1 << p.idx())))
        .collect();

    let start = State {
        red: 0,
        blue: input_mask,
        computed: 0,
    };
    let mut dist: HashMap<State, u64> = HashMap::new();
    dist.insert(start, 0);
    let mut heap = BinaryHeap::new();
    heap.push(QueueEntry {
        cost: 0,
        loads: 0,
        stores: 0,
        state: start,
    });
    let mut explored = 0usize;
    let mut frontier_peak = 0usize;
    let mut progress = fmm_obs::Progress::new("dijkstra states", 4096);

    while let Some(QueueEntry {
        cost,
        loads,
        stores,
        state,
    }) = heap.pop()
    {
        if dist.get(&state).is_some_and(|&d| d < cost) {
            continue;
        }
        explored += 1;
        frontier_peak = frontier_peak.max(heap.len());
        progress.tick(1);
        if explored > state_budget {
            progress.finish();
            publish_search("pebbling", explored, frontier_peak);
            return Err(OptimalError::BudgetExhausted);
        }
        if state.blue & output_mask == output_mask {
            progress.finish();
            publish_search("pebbling", explored, frontier_peak);
            return Ok(OptimalResult {
                cost,
                loads,
                stores,
                states_explored: explored,
            });
        }

        let red_count = state.red.count_ones() as usize;
        let push = |next: State,
                    c: u64,
                    l: u64,
                    s: u64,
                    dist: &mut HashMap<State, u64>,
                    heap: &mut BinaryHeap<QueueEntry>| {
            let best = dist.entry(next).or_insert(u64::MAX);
            if c < *best {
                *best = c;
                heap.push(QueueEntry {
                    cost: c,
                    loads: l,
                    stores: s,
                    state: next,
                });
            }
        };

        #[allow(clippy::needless_range_loop)] // vi doubles as the bit index
        for vi in 0..n {
            let bit = 1u16 << vi;
            let v = VertexId(vi as u32);
            // Load.
            if state.blue & bit != 0 && state.red & bit == 0 && red_count < capacity {
                push(
                    State {
                        red: state.red | bit,
                        ..state
                    },
                    cost + model.read_cost,
                    loads + 1,
                    stores,
                    &mut dist,
                    &mut heap,
                );
            }
            // Store (useless if already blue).
            if state.red & bit != 0 && state.blue & bit == 0 {
                push(
                    State {
                        blue: state.blue | bit,
                        ..state
                    },
                    cost + model.write_cost,
                    loads,
                    stores + 1,
                    &mut dist,
                    &mut heap,
                );
            }
            // Compute.
            if g.kind(v) != VertexKind::Input
                && state.red & pred_masks[vi] == pred_masks[vi]
                && state.red & bit == 0
                && red_count < capacity
                && (allow_recompute || state.computed & bit == 0)
            {
                push(
                    State {
                        red: state.red | bit,
                        blue: state.blue,
                        computed: state.computed | bit,
                    },
                    cost,
                    loads,
                    stores,
                    &mut dist,
                    &mut heap,
                );
            }
            // Delete.
            if state.red & bit != 0 {
                push(
                    State {
                        red: state.red & !bit,
                        ..state
                    },
                    cost,
                    loads,
                    stores,
                    &mut dist,
                    &mut heap,
                );
            }
        }
    }
    progress.finish();
    publish_search("pebbling", explored, frontier_peak);
    Err(OptimalError::Unpebbleable)
}

/// Convenience: compare optimal I/O with and without recomputation under
/// the symmetric cost model. Returns `(without, with)`.
pub fn recompute_gap(
    g: &Cdag,
    capacity: usize,
    state_budget: usize,
) -> Result<(OptimalResult, OptimalResult), OptimalError> {
    let without = optimal_pebbling(g, capacity, false, CostModel::SYMMETRIC, state_budget)?;
    let with = optimal_pebbling(g, capacity, true, CostModel::SYMMETRIC, state_budget)?;
    Ok((without, with))
}

/// As [`optimal_pebbling`], additionally reconstructing **an** optimal
/// move sequence (by parent-pointer backtracking through the Dijkstra
/// search). The returned schedule validates under
/// [`crate::game::run_schedule`] and achieves exactly `result.cost` —
/// closing the loop between the search and the game semantics.
#[cfg(test)]
pub(crate) fn optimal_schedule(
    g: &Cdag,
    capacity: usize,
    allow_recompute: bool,
    model: CostModel,
    state_budget: usize,
) -> Result<(OptimalResult, Vec<crate::game::Move>), OptimalError> {
    use crate::game::Move;
    let n = g.len();
    if n > MAX_VERTICES {
        return Err(OptimalError::TooLarge {
            vertices: n,
            max: MAX_VERTICES,
        });
    }
    let max_indeg = g.vertices().map(|v| g.in_degree(v)).max().unwrap_or(0);
    if capacity < max_indeg + 1 && g.vertices().any(|v| g.in_degree(v) > 0) {
        return Err(OptimalError::Unpebbleable);
    }

    let input_mask: u16 = g.inputs().iter().fold(0, |m, v| m | (1 << v.idx()));
    let output_mask: u16 = g.outputs().iter().fold(0, |m, v| m | (1 << v.idx()));
    let pred_masks: Vec<u16> = g
        .vertices()
        .map(|v| g.preds(v).iter().fold(0u16, |m, p| m | (1 << p.idx())))
        .collect();

    let start = State {
        red: 0,
        blue: input_mask,
        computed: 0,
    };
    let mut dist: HashMap<State, u64> = HashMap::new();
    let mut parent: HashMap<State, (State, Move)> = HashMap::new();
    dist.insert(start, 0);
    let mut heap = BinaryHeap::new();
    heap.push(QueueEntry {
        cost: 0,
        loads: 0,
        stores: 0,
        state: start,
    });
    let mut explored = 0usize;
    let mut frontier_peak = 0usize;
    let mut progress = fmm_obs::Progress::new("dijkstra states", 4096);

    while let Some(QueueEntry {
        cost,
        loads,
        stores,
        state,
    }) = heap.pop()
    {
        if dist.get(&state).is_some_and(|&d| d < cost) {
            continue;
        }
        explored += 1;
        frontier_peak = frontier_peak.max(heap.len());
        progress.tick(1);
        if explored > state_budget {
            progress.finish();
            publish_search("schedule", explored, frontier_peak);
            return Err(OptimalError::BudgetExhausted);
        }
        if state.blue & output_mask == output_mask {
            // Backtrack.
            let mut moves = Vec::new();
            let mut cur = state;
            while let Some(&(prev, mv)) = parent.get(&cur) {
                moves.push(mv);
                cur = prev;
            }
            moves.reverse();
            progress.finish();
            publish_search("schedule", explored, frontier_peak);
            return Ok((
                OptimalResult {
                    cost,
                    loads,
                    stores,
                    states_explored: explored,
                },
                moves,
            ));
        }

        let red_count = state.red.count_ones() as usize;
        let push = |next: State,
                    c: u64,
                    l: u64,
                    s: u64,
                    mv: Move,
                    dist: &mut HashMap<State, u64>,
                    parent: &mut HashMap<State, (State, Move)>,
                    heap: &mut BinaryHeap<QueueEntry>| {
            let best = dist.entry(next).or_insert(u64::MAX);
            if c < *best {
                *best = c;
                parent.insert(next, (state, mv));
                heap.push(QueueEntry {
                    cost: c,
                    loads: l,
                    stores: s,
                    state: next,
                });
            }
        };

        #[allow(clippy::needless_range_loop)] // vi doubles as the bit index
        for vi in 0..n {
            let bit = 1u16 << vi;
            let v = VertexId(vi as u32);
            if state.blue & bit != 0 && state.red & bit == 0 && red_count < capacity {
                push(
                    State {
                        red: state.red | bit,
                        ..state
                    },
                    cost + model.read_cost,
                    loads + 1,
                    stores,
                    Move::Load(v),
                    &mut dist,
                    &mut parent,
                    &mut heap,
                );
            }
            if state.red & bit != 0 && state.blue & bit == 0 {
                push(
                    State {
                        blue: state.blue | bit,
                        ..state
                    },
                    cost + model.write_cost,
                    loads,
                    stores + 1,
                    Move::Store(v),
                    &mut dist,
                    &mut parent,
                    &mut heap,
                );
            }
            if g.kind(v) != VertexKind::Input
                && state.red & pred_masks[vi] == pred_masks[vi]
                && state.red & bit == 0
                && red_count < capacity
                && (allow_recompute || state.computed & bit == 0)
            {
                push(
                    State {
                        red: state.red | bit,
                        blue: state.blue,
                        computed: state.computed | bit,
                    },
                    cost,
                    loads,
                    stores,
                    Move::Compute(v),
                    &mut dist,
                    &mut parent,
                    &mut heap,
                );
            }
            if state.red & bit != 0 {
                push(
                    State {
                        red: state.red & !bit,
                        ..state
                    },
                    cost,
                    loads,
                    stores,
                    Move::Delete(v),
                    &mut dist,
                    &mut parent,
                    &mut heap,
                );
            }
        }
    }
    progress.finish();
    publish_search("schedule", explored, frontier_peak);
    Err(OptimalError::Unpebbleable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{binary_tree, chain, dp_grid, shared_core};
    use crate::game::CostModel;

    const BUDGET: usize = 3_000_000;

    #[test]
    fn chain_needs_exactly_two_ios() {
        let g = chain(6);
        let r = optimal_pebbling(&g, 2, false, CostModel::SYMMETRIC, BUDGET).expect("solved");
        assert_eq!(r.cost, 2); // load input, store output
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn tree_costs_by_capacity() {
        let g = binary_tree(4);
        // Capacity 3: holding one subtree root while evaluating the other
        // forces a spill of the first (store + reload): 4 + 1 + 2 = 7.
        let tight = optimal_pebbling(&g, 3, false, CostModel::SYMMETRIC, BUDGET).expect("solved");
        assert_eq!(tight.cost, 7);
        // Capacity 4: both subtree roots fit: 4 leaf loads + 1 root store.
        let roomy = optimal_pebbling(&g, 4, false, CostModel::SYMMETRIC, BUDGET).expect("solved");
        assert_eq!(roomy.cost, 5);
    }

    #[test]
    fn recomputation_cannot_beat_chain_or_tree() {
        for g in [chain(5), binary_tree(4)] {
            let (without, with) = recompute_gap(&g, 3, BUDGET).expect("solved");
            assert_eq!(without.cost, with.cost, "recompute should not help here");
        }
    }

    #[test]
    fn unpebbleable_detected() {
        let g = binary_tree(4);
        assert_eq!(
            optimal_pebbling(&g, 2, false, CostModel::SYMMETRIC, BUDGET),
            Err(OptimalError::Unpebbleable)
        );
    }

    #[test]
    fn too_large_detected() {
        let g = dp_grid(5, 5);
        assert!(matches!(
            optimal_pebbling(&g, 4, false, CostModel::SYMMETRIC, BUDGET),
            Err(OptimalError::TooLarge { .. })
        ));
    }

    #[test]
    fn recompute_helps_write_cost_on_shared_core() {
        // shared_core(2,3): x → c0 → c1; o_j = f(c1, y_j). 12 vertices.
        // With capacity 3 and expensive writes, recomputing c1 avoids
        // storing it, trading writes for reads.
        let g = shared_core(2, 3);
        let model = CostModel::write_heavy(8);
        let without = optimal_pebbling(&g, 3, false, model, BUDGET).expect("solved");
        let with = optimal_pebbling(&g, 3, true, model, BUDGET).expect("solved");
        assert!(with.cost <= without.cost);
        // Under the *write-heavy* model the recompute schedule strictly
        // reduces stores.
        assert!(
            with.stores <= without.stores,
            "with {:?} without {:?}",
            with,
            without
        );
    }

    #[test]
    fn more_capacity_never_costs_more() {
        let g = binary_tree(4);
        let mut prev = u64::MAX;
        for capacity in [3usize, 4, 7] {
            let r =
                optimal_pebbling(&g, capacity, true, CostModel::SYMMETRIC, BUDGET).expect("solved");
            assert!(r.cost <= prev);
            prev = r.cost;
        }
    }

    #[test]
    fn allowing_recompute_never_costs_more() {
        for g in [chain(4), binary_tree(4), shared_core(2, 2)] {
            for capacity in [3usize, 4] {
                let (without, with) = recompute_gap(&g, capacity, BUDGET).expect("solved");
                assert!(with.cost <= without.cost);
            }
        }
    }

    #[test]
    fn optimal_schedule_validates_and_matches_cost() {
        use crate::game::run_schedule;
        for g in [chain(5), binary_tree(4), shared_core(2, 2)] {
            for (cap, recompute) in [(3usize, false), (3, true), (4, true)] {
                let (res, moves) =
                    optimal_schedule(&g, cap, recompute, CostModel::SYMMETRIC, BUDGET)
                        .expect("solved");
                let validated =
                    run_schedule(&g, &moves, cap, recompute).expect("reconstructed schedule legal");
                assert_eq!(validated.io(), res.cost, "cap={cap} rc={recompute}");
                assert_eq!(validated.loads, res.loads);
                assert_eq!(validated.stores, res.stores);
            }
        }
    }

    #[test]
    fn optimal_schedule_agrees_with_optimal_pebbling() {
        let g = binary_tree(4);
        let a = optimal_pebbling(&g, 3, true, CostModel::SYMMETRIC, BUDGET).expect("solved");
        let (b, _) = optimal_schedule(&g, 3, true, CostModel::SYMMETRIC, BUDGET).expect("solved");
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn dp_grid_3x3_exact() {
        // 9 vertices: 5 inputs (row 0 + col 0), interior 4, outputs last row.
        let g = dp_grid(3, 3);
        let (without, with) = recompute_gap(&g, 4, BUDGET).expect("solved");
        // All 5 inputs must be read at least… actually the corner input
        // (0,0) feeds (1,1); every input is needed: ≥ 5 reads + 2 output
        // stores (outputs are (2,1),(2,2)).
        assert!(without.cost >= 7);
        assert!(with.cost <= without.cost);
    }
}
