//! Distributed-memory simulator: `P` virtual processors with local stores,
//! every transferred word counted per processor (the parallel model of
//! Section II.B — exchanging an argument between processors is one I/O per
//! word).
//!
//! Three schedules, all computing the real product (verified against the
//! sequential kernel):
//!
//! * [`cannon`] — the classical 2D algorithm on a `p×p` grid:
//!   per-processor communication `Θ(n²/√P)`;
//! * [`replicated_3d`] — the classical 3D algorithm on a `p×p×p` grid:
//!   per-processor communication `Θ(n²/P^{2/3})` — the classical
//!   memory-independent bound of Table I, attained;
//! * [`caps_strassen`] — BFS-style communication-avoiding parallel
//!   Strassen on `P = 7^k` processors: per-processor communication
//!   `Θ(n²/P^{2/ω₀})`, matching the paper's memory-independent lower
//!   bound for fast matrix multiplication.
//!
//! Data movement in `cannon`/`replicated_3d` is explicit block transfer
//! between local stores. For `caps_strassen` the computation runs the real
//! recursion while communication is charged per the block-cyclic CAPS
//! data distribution (each BFS step redistributes `Θ(n²/|group|)` words to
//! every group member); see DESIGN.md for why this substitution preserves
//! the measured shape.
//!
//! Each schedule has a single engine, in [`crate::par_faults`]. The
//! functions here run it under the inert fault plan (one that can never
//! fire) with [`Recovery::None`]: no fault or recovery code path executes,
//! and telemetry is published under the bare schedule name.

use crate::par_faults::{self, FaultyRun};
use fmm_core::bilinear::Bilinear2x2;
use fmm_faults::{FaultSpec, LinkDead, Recovery};
use fmm_matrix::{Matrix, Scalar};

/// Communication accounting for a distributed run.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Words sent+received per processor.
    pub per_proc: Vec<u64>,
    /// Total words moved (each transfer counted once).
    pub total_words: u64,
    /// Number of point-to-point messages.
    pub messages: u64,
    /// Of `total_words`, the words moved only because of faults: dropped
    /// delivery attempts, duplicated deliveries, checkpoint snapshots and
    /// restores, and recomputation re-fetches. A fault-free run has zero;
    /// a faulty run's `total_words - recovery_words` equals the fault-free
    /// total, which is what lets recovery overhead be compared directly
    /// against the Table I lower bounds.
    pub recovery_words: u64,
}

impl NetStats {
    pub(crate) fn new(p: usize) -> Self {
        NetStats {
            per_proc: vec![0; p],
            total_words: 0,
            messages: 0,
            recovery_words: 0,
        }
    }

    /// Record a transfer of `words` from `from` to `to`.
    pub(crate) fn transfer(&mut self, from: usize, to: usize, words: u64) {
        if from == to || words == 0 {
            return;
        }
        self.per_proc[from] += words;
        self.per_proc[to] += words;
        self.total_words += words;
        self.messages += 1;
    }

    /// Charge `words` of traffic to one processor without a peer (used for
    /// collective redistributions accounted analytically).
    pub(crate) fn charge(&mut self, proc: usize, words: u64) {
        self.per_proc[proc] += words;
        self.total_words += words;
    }

    /// As [`NetStats::transfer`], additionally booking the words under
    /// `recovery_words` — traffic that exists only because of a fault.
    pub(crate) fn transfer_recovery(&mut self, from: usize, to: usize, words: u64) {
        if from == to || words == 0 {
            return;
        }
        self.transfer(from, to, words);
        self.recovery_words += words;
    }

    /// As [`NetStats::charge`], booked under `recovery_words` (snapshot
    /// writes to and restores from stable storage, analytic re-fetches).
    pub(crate) fn charge_recovery(&mut self, proc: usize, words: u64) {
        self.charge(proc, words);
        self.recovery_words += words;
    }

    /// Maximum per-processor communication — the quantity the parallel
    /// lower bounds constrain.
    pub fn max_per_proc(&self) -> u64 {
        self.per_proc.iter().copied().max().unwrap_or(0)
    }

    /// Publish this run's traffic to the global telemetry registry:
    /// totals under a `schedule` label, per-processor words when the level
    /// is `full`. No-op when telemetry is off.
    pub(crate) fn publish(&self, schedule: &str) {
        if !fmm_obs::enabled() {
            return;
        }
        let labels = [("schedule", schedule.to_string())];
        fmm_obs::add("memsim.net.total_words", &labels, self.total_words);
        fmm_obs::add("memsim.net.messages", &labels, self.messages);
        fmm_obs::add("memsim.net.recovery_words", &labels, self.recovery_words);
        fmm_obs::gauge(
            "memsim.net.max_per_proc",
            &labels,
            self.max_per_proc() as f64,
        );
        if fmm_obs::detailed() {
            for (proc, &words) in self.per_proc.iter().enumerate() {
                fmm_obs::add(
                    "memsim.net.proc_words",
                    &[
                        ("schedule", schedule.to_string()),
                        ("proc", proc.to_string()),
                    ],
                    words,
                );
            }
        }
    }

    /// Record the traffic of one communication round (words moved since
    /// `mark`, the total captured before the round). Only at level `full`.
    pub(crate) fn publish_round(&self, schedule: &str, round: usize, mark: u64) {
        if fmm_obs::detailed() {
            fmm_obs::add(
                "memsim.net.round_words",
                &[
                    ("schedule", schedule.to_string()),
                    ("round", round.to_string()),
                ],
                self.total_words - mark,
            );
        }
    }
}

/// Cannon's algorithm on a `p×p` processor grid. `n` must be divisible by
/// `p`. Returns the product and the communication statistics.
///
/// # Panics
/// Panics if `p == 0` or `p` does not divide `n`.
pub fn cannon<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, p: usize) -> (Matrix<T>, NetStats) {
    fault_free(par_faults::cannon_faulty(
        a,
        b,
        p,
        &FaultSpec::default().plan(),
        Recovery::None,
    ))
}

/// The classical 3D algorithm on a `p×p×p` grid (`P = p³`): layer `l`
/// computes the partial products `A[·,l-slice]·B[l-slice,·]`, then partial
/// results are reduced across layers. `n` must be divisible by `p`.
///
/// # Panics
/// Panics if `p == 0` or `p` does not divide `n`.
pub fn replicated_3d<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, p: usize) -> (Matrix<T>, NetStats) {
    fault_free(par_faults::replicated_3d_faulty(
        a,
        b,
        p,
        &FaultSpec::default().plan(),
        Recovery::None,
    ))
}

/// BFS-style CAPS parallel Strassen on `P = 7^k` processors.
///
/// The recursion assigns each of the 7 sub-products to a subgroup of
/// `P/7` processors; forming the encoded operands redistributes the
/// block-cyclically distributed quadrants, charging `Θ(n²/|group|)` words
/// to every member (the CAPS BFS-step cost). At `|group| = 1` the
/// processor computes its sub-product locally (no communication).
///
/// # Panics
/// Panics unless `P = 7^k` and the recursion depth `k ≤ log₂ n`.
pub fn caps_strassen<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    levels: usize,
) -> (Matrix<T>, NetStats) {
    fault_free(par_faults::caps_strassen_faulty(
        alg,
        a,
        b,
        levels,
        &FaultSpec::default().plan(),
        Recovery::None,
    ))
}

/// Unwrap a run under the inert plan, which never drops a message and so
/// never returns [`LinkDead`].
fn fault_free<T: Scalar>(run: Result<FaultyRun<T>, LinkDead>) -> (Matrix<T>, NetStats) {
    let run = run.expect("an inert fault plan never drops a message");
    (run.product, run.net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::catalog;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<i64>::random_small(n, n, &mut rng);
        let b = Matrix::<i64>::random_small(n, n, &mut rng);
        let c = multiply_naive(&a, &b);
        (a, b, c)
    }

    #[test]
    fn cannon_correct_various_grids() {
        for (n, p) in [(8usize, 2usize), (12, 3), (16, 4), (8, 1)] {
            let (a, b, expect) = inputs(n, 7);
            let (c, _) = cannon(&a, &b, p);
            assert_eq!(c, expect, "n={n} p={p}");
        }
    }

    #[test]
    fn cannon_comm_scales_as_inverse_sqrt_p() {
        let n = 32;
        let (a, b, _) = inputs(n, 9);
        let (_, net2) = cannon(&a, &b, 2);
        let (_, net4) = cannon(&a, &b, 4);
        // Per-proc words ≈ c·n²/p: quadrupling P (p 2→4) halves it.
        let r = net2.max_per_proc() as f64 / net4.max_per_proc() as f64;
        assert!(r > 1.5 && r < 3.0, "ratio {r}");
    }

    #[test]
    fn replicated_3d_correct() {
        for (n, p) in [(8usize, 2usize), (12, 2), (8, 1)] {
            let (a, b, expect) = inputs(n, 11);
            let (c, _) = replicated_3d(&a, &b, p);
            assert_eq!(c, expect, "n={n} p={p}");
        }
    }

    #[test]
    fn three_d_beats_cannon_at_scale() {
        // At P = 64: 2D grid p=8 vs 3D grid p=4. 3D moves fewer words per
        // processor (n²/P^{2/3} < n²/√P).
        let n = 64;
        let (a, b, _) = inputs(n, 13);
        let (_, net2d) = cannon(&a, &b, 8);
        let (_, net3d) = replicated_3d(&a, &b, 4);
        assert_eq!(net2d.per_proc.len(), 64);
        assert_eq!(net3d.per_proc.len(), 64);
        assert!(net3d.max_per_proc() < net2d.max_per_proc());
    }

    #[test]
    fn caps_correct() {
        let alg = catalog::strassen();
        for (n, levels) in [(8usize, 1usize), (8, 2), (16, 2)] {
            let (a, b, expect) = inputs(n, 17);
            let (c, net) = caps_strassen(&alg, &a, &b, levels);
            assert_eq!(c, expect, "n={n} levels={levels}");
            assert_eq!(net.per_proc.len(), 7usize.pow(levels as u32));
        }
    }

    #[test]
    fn caps_comm_matches_memory_independent_exponent() {
        // Per-proc comm ≈ c·n²/P^{2/ω}: multiplying P by 7 divides it by 4.
        let alg = catalog::strassen();
        let n = 64;
        let (a, b, _) = inputs(n, 19);
        let (_, net1) = caps_strassen(&alg, &a, &b, 1);
        let (_, net2) = caps_strassen(&alg, &a, &b, 2);
        let r = net1.max_per_proc() as f64 / net2.max_per_proc() as f64;
        assert!(r > 2.0 && r < 4.5, "ratio {r} (expected ≈ 4·(1−ε))");
    }

    #[test]
    fn caps_beats_classical_parallel_comm() {
        // Fast algorithms strong-scale better: at P=49 vs P=7², compare
        // against Cannon at p=7 (P=49).
        let alg = catalog::strassen();
        let n = 56; // divisible by 7, but CAPS needs pow2 — use 64 vs 49.
        let _ = n;
        let n = 64;
        let (a, b, _) = inputs(n, 23);
        let (_, caps) = caps_strassen(&alg, &a, &b, 2); // P = 49
        let (ac, bc, _) = inputs(n - 8, 23); // 56 divisible by 7 → p=7, P=49
        let (_, cann) = cannon(&ac, &bc, 7);
        // Same processor count; CAPS moves asymptotically fewer words.
        assert_eq!(caps.per_proc.len(), cann.per_proc.len());
        assert!(caps.max_per_proc() < cann.max_per_proc());
    }

    #[test]
    fn net_stats_transfer_bookkeeping() {
        let mut net = NetStats::new(3);
        net.transfer(0, 1, 10);
        net.transfer(1, 1, 99); // self-transfer free
        net.charge(2, 5);
        assert_eq!(net.per_proc, vec![10, 10, 5]);
        assert_eq!(net.total_words, 15);
        assert_eq!(net.messages, 1);
        assert_eq!(net.max_per_proc(), 10);
    }

    #[test]
    #[should_panic(expected = "p must divide n")]
    fn cannon_rejects_indivisible() {
        let (a, b, _) = inputs(8, 1);
        let _ = cannon(&a, &b, 3);
    }
}
