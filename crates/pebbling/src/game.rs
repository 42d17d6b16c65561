//! The red–blue pebble game (Hong & Kung 1981), recomputation included.
//!
//! Rules, matching the sequential machine model of Section II.B:
//!
//! * a **red** pebble = the value is in fast memory (at most `M` red
//!   pebbles at any time);
//! * a **blue** pebble = the value is in slow memory (unbounded);
//! * inputs start blue; the game ends when all outputs are blue;
//! * moves: [`Move::Load`] (blue→red, an I/O), [`Move::Store`] (red→blue,
//!   an I/O), [`Move::Compute`] (all predecessors red → red on the vertex),
//!   [`Move::Delete`] (remove a red pebble).
//!
//! **Recomputation** is inherent: nothing stops a schedule from computing
//! the same vertex twice. Forbidding recomputation (the assumption most
//! prior lower bounds make) is an extra validation flag.

use fmm_cdag::{Cdag, VertexId};

/// One move of the game.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Move {
    /// Copy a blue-pebbled vertex into fast memory (costs a read).
    Load(VertexId),
    /// Copy a red-pebbled vertex to slow memory (costs a write).
    Store(VertexId),
    /// Place a red pebble on a non-input vertex whose predecessors are all
    /// red (costs nothing in I/O).
    Compute(VertexId),
    /// Remove a red pebble (free).
    Delete(VertexId),
}

/// Read/write costs — symmetric `(1, 1)` reproduces classical I/O
/// counting; `write_cost > read_cost` models the non-volatile-memory
/// regime discussed in Section V.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of one load.
    pub read_cost: u64,
    /// Cost of one store.
    pub write_cost: u64,
}

impl CostModel {
    /// The classical symmetric model.
    pub const SYMMETRIC: CostModel = CostModel {
        read_cost: 1,
        write_cost: 1,
    };

    /// A write-expensive model with the given multiplier.
    pub fn write_heavy(omega: u64) -> CostModel {
        CostModel {
            read_cost: 1,
            write_cost: omega,
        }
    }
}

/// Statistics of a validated schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GameResult {
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
    /// Number of compute moves.
    pub computes: u64,
    /// Number of compute moves beyond the first per vertex.
    pub recomputes: u64,
    /// Peak number of red pebbles in use.
    pub max_red: usize,
}

impl GameResult {
    /// Total I/O operations (loads + stores).
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Why a schedule is illegal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GameError {
    /// Load of a vertex without a blue pebble.
    LoadWithoutBlue(VertexId),
    /// Store of a vertex without a red pebble.
    StoreWithoutRed(VertexId),
    /// Compute of a vertex with a non-red predecessor.
    MissingOperand {
        /// The vertex being computed.
        vertex: VertexId,
        /// The missing predecessor.
        operand: VertexId,
    },
    /// Compute of an input vertex.
    ComputeInput(VertexId),
    /// Red pebble budget exceeded.
    CapacityExceeded {
        /// The offending move's vertex.
        vertex: VertexId,
        /// The capacity in force.
        capacity: usize,
    },
    /// Delete of a vertex without a red pebble.
    DeleteWithoutRed(VertexId),
    /// A vertex was computed twice although recomputation was forbidden.
    ForbiddenRecompute(VertexId),
    /// At game end some output lacks a blue pebble.
    OutputNotStored(VertexId),
}

impl std::fmt::Display for GameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for GameError {}

/// Validate and account a schedule under red capacity `capacity`.
///
/// `allow_recompute = false` additionally rejects any second `Compute` of
/// the same vertex (the classical no-recomputation assumption).
///
/// ```
/// use fmm_cdag::{Cdag, VertexKind};
/// use fmm_pebbling::game::{run_schedule, Move};
/// let mut g = Cdag::new();
/// let x = g.add_vertex(VertexKind::Input, "x");
/// let y = g.add_vertex(VertexKind::Input, "y");
/// let z = g.add_vertex(VertexKind::Output, "z");
/// g.add_edge(x, z);
/// g.add_edge(y, z);
/// let moves = [Move::Load(x), Move::Load(y), Move::Compute(z), Move::Store(z)];
/// let r = run_schedule(&g, &moves, 3, false).unwrap();
/// assert_eq!(r.io(), 3); // two loads + one store
/// ```
pub fn run_schedule(
    g: &Cdag,
    moves: &[Move],
    capacity: usize,
    allow_recompute: bool,
) -> Result<GameResult, GameError> {
    let mut red = vec![false; g.len()];
    let mut blue = vec![false; g.len()];
    let mut computed = vec![false; g.len()];
    for v in g.inputs() {
        blue[v.idx()] = true;
    }
    let mut red_count = 0usize;
    let mut res = GameResult::default();

    for &mv in moves {
        match mv {
            Move::Load(v) => {
                if !blue[v.idx()] {
                    return Err(GameError::LoadWithoutBlue(v));
                }
                if !red[v.idx()] {
                    if red_count + 1 > capacity {
                        return Err(GameError::CapacityExceeded {
                            vertex: v,
                            capacity,
                        });
                    }
                    red[v.idx()] = true;
                    red_count += 1;
                }
                res.loads += 1;
            }
            Move::Store(v) => {
                if !red[v.idx()] {
                    return Err(GameError::StoreWithoutRed(v));
                }
                blue[v.idx()] = true;
                res.stores += 1;
            }
            Move::Compute(v) => {
                if g.kind(v) == fmm_cdag::VertexKind::Input {
                    return Err(GameError::ComputeInput(v));
                }
                for &p in g.preds(v) {
                    if !red[p.idx()] {
                        return Err(GameError::MissingOperand {
                            vertex: v,
                            operand: p,
                        });
                    }
                }
                if computed[v.idx()] && !allow_recompute {
                    return Err(GameError::ForbiddenRecompute(v));
                }
                if computed[v.idx()] {
                    res.recomputes += 1;
                }
                computed[v.idx()] = true;
                if !red[v.idx()] {
                    if red_count + 1 > capacity {
                        return Err(GameError::CapacityExceeded {
                            vertex: v,
                            capacity,
                        });
                    }
                    red[v.idx()] = true;
                    red_count += 1;
                }
                res.computes += 1;
            }
            Move::Delete(v) => {
                if !red[v.idx()] {
                    return Err(GameError::DeleteWithoutRed(v));
                }
                red[v.idx()] = false;
                red_count -= 1;
            }
        }
        res.max_red = res.max_red.max(red_count);
    }

    for v in g.outputs() {
        if !blue[v.idx()] {
            return Err(GameError::OutputNotStored(v));
        }
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_cdag::VertexKind;

    /// z = x + y.
    fn tiny() -> (Cdag, VertexId, VertexId, VertexId) {
        let mut g = Cdag::new();
        let x = g.add_vertex(VertexKind::Input, "x");
        let y = g.add_vertex(VertexKind::Input, "y");
        let z = g.add_vertex(VertexKind::Output, "z");
        g.add_edge(x, z);
        g.add_edge(y, z);
        (g, x, y, z)
    }

    #[test]
    fn minimal_legal_schedule() {
        let (g, x, y, z) = tiny();
        let moves = [
            Move::Load(x),
            Move::Load(y),
            Move::Compute(z),
            Move::Store(z),
        ];
        let r = run_schedule(&g, &moves, 3, false).expect("legal");
        assert_eq!(r.loads, 2);
        assert_eq!(r.stores, 1);
        assert_eq!(r.io(), 3);
        assert_eq!(r.computes, 1);
        assert_eq!(r.recomputes, 0);
        assert_eq!(r.max_red, 3);
    }

    #[test]
    fn capacity_enforced() {
        let (g, x, y, z) = tiny();
        let moves = [Move::Load(x), Move::Load(y), Move::Compute(z)];
        assert!(matches!(
            run_schedule(&g, &moves, 2, false),
            Err(GameError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn deletes_free_capacity() {
        let (g, x, y, z) = tiny();
        // With capacity 2 this CDAG is unpebbleable (compute needs 3), but
        // deleting shows bookkeeping: load x, delete, load y, delete, …
        let moves = [Move::Load(x), Move::Delete(x), Move::Load(y)];
        let r = run_schedule(&g, &moves, 1, false);
        // Outputs never stored → error at the end, but moves were legal.
        assert!(matches!(r, Err(GameError::OutputNotStored(v)) if v == z));
    }

    #[test]
    fn missing_operand_detected() {
        let (g, x, _, z) = tiny();
        let moves = [Move::Load(x), Move::Compute(z)];
        assert!(matches!(
            run_schedule(&g, &moves, 3, false),
            Err(GameError::MissingOperand { .. })
        ));
    }

    #[test]
    fn load_requires_blue() {
        let (g, _, _, z) = tiny();
        assert!(matches!(
            run_schedule(&g, &[Move::Load(z)], 3, false),
            Err(GameError::LoadWithoutBlue(_))
        ));
    }

    #[test]
    fn store_requires_red() {
        let (g, x, _, _) = tiny();
        assert!(matches!(
            run_schedule(&g, &[Move::Store(x)], 3, false),
            Err(GameError::StoreWithoutRed(_))
        ));
    }

    #[test]
    fn compute_input_rejected() {
        let (g, x, _, _) = tiny();
        assert!(matches!(
            run_schedule(&g, &[Move::Compute(x)], 3, false),
            Err(GameError::ComputeInput(_))
        ));
    }

    #[test]
    fn recompute_flag() {
        // Chain x → a → o; recompute a.
        let mut g = Cdag::new();
        let x = g.add_vertex(VertexKind::Input, "x");
        let a = g.add_vertex(VertexKind::Internal, "a");
        let o = g.add_vertex(VertexKind::Output, "o");
        g.add_edge(x, a);
        g.add_edge(a, o);
        let moves = [
            Move::Load(x),
            Move::Compute(a),
            Move::Delete(a),
            Move::Compute(a), // recomputation
            Move::Compute(o),
            Move::Store(o),
        ];
        let ok = run_schedule(&g, &moves, 3, true).expect("recompute allowed");
        assert_eq!(ok.recomputes, 1);
        assert!(matches!(
            run_schedule(&g, &moves, 3, false),
            Err(GameError::ForbiddenRecompute(_))
        ));
    }

    #[test]
    fn io_is_loads_plus_stores() {
        let r = GameResult {
            loads: 10,
            stores: 3,
            ..Default::default()
        };
        assert_eq!(r.io(), 13);
    }

    #[test]
    fn double_load_is_idempotent_on_red() {
        let (g, x, y, z) = tiny();
        let moves = [
            Move::Load(x),
            Move::Load(x), // still one red pebble, but counts as I/O
            Move::Load(y),
            Move::Compute(z),
            Move::Store(z),
        ];
        let r = run_schedule(&g, &moves, 3, false).expect("legal");
        assert_eq!(r.loads, 3);
        assert_eq!(r.max_red, 3);
    }
}
