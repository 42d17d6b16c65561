//! The segment-partition argument of Theorem 1.1, run on *actual*
//! schedules.
//!
//! The proof partitions a computation schedule into segments, each
//! containing `4M` first-time computations of output vertices of
//! `SUB_H^{2√M×2√M}`, and shows (Lemma 3.6 via Lemma 3.7) that every such
//! segment performs at least `r²/2 − n_init ≥ M` I/O operations. This
//! module performs exactly that partition on a validated move list and
//! reports the per-segment I/O — so the engine of the lower bound can be
//! *watched working* on real schedules, recomputation included (only
//! first-time computations advance the segment counter, exactly as in the
//! paper's proof).

use crate::game::Move;
use fmm_cdag::{Cdag, VertexId};
use std::collections::HashSet;

/// One segment of the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First-time sub-output computations inside the segment (== the
    /// target count except possibly for the final partial segment).
    pub outputs_computed: usize,
    /// Loads performed in the segment.
    pub loads: u64,
    /// Stores performed in the segment.
    pub stores: u64,
}

impl Segment {
    /// Total I/O of the segment.
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Partition `moves` into segments of `outputs_per_segment` first-time
/// computations of the given `sub_outputs` vertices, accumulating I/O per
/// segment. The final (possibly partial) segment is included.
pub(crate) fn partition_segments(
    g: &Cdag,
    moves: &[Move],
    sub_outputs: &[VertexId],
    outputs_per_segment: usize,
) -> Vec<Segment> {
    assert!(outputs_per_segment > 0, "segment size must be positive");
    let targets: HashSet<VertexId> = sub_outputs.iter().copied().collect();
    let mut computed: HashSet<VertexId> = HashSet::new();
    let mut segments = Vec::new();
    let mut cur = Segment {
        outputs_computed: 0,
        loads: 0,
        stores: 0,
    };
    for &mv in moves {
        match mv {
            Move::Load(_) => cur.loads += 1,
            Move::Store(_) => cur.stores += 1,
            Move::Compute(v) => {
                // Only *first* computations count (the paper's "consider
                // only computations that are performed for the first time").
                if targets.contains(&v) && computed.insert(v) {
                    cur.outputs_computed += 1;
                    if cur.outputs_computed == outputs_per_segment {
                        segments.push(cur);
                        cur = Segment {
                            outputs_computed: 0,
                            loads: 0,
                            stores: 0,
                        };
                    }
                }
            }
            Move::Delete(_) => {}
        }
    }
    if cur.outputs_computed > 0 || cur.io() > 0 {
        segments.push(cur);
    }
    let _ = g;
    segments
}

/// The Theorem 1.1 segment audit: pick `r = 2^j` as the largest power of
/// two with `r ≤ 2√M`, partition the schedule into segments of `r²`
/// first-time computations of `V_out(SUB_H^{r×r})`, and report the
/// segments together with the Lemma 3.6 floor `r²/2 − M` (clamped at 0).
///
/// Returns `(r, floor, segments)`.
pub fn theorem_audit(
    g: &Cdag,
    moves: &[Move],
    sub_outputs_by_level: &[Vec<VertexId>],
    m: usize,
) -> (usize, i64, Vec<Segment>) {
    // Largest power of two r with r ≤ 2√M, capped by the deepest level.
    let target = (2.0 * (m as f64).sqrt()) as usize;
    let mut j = 0usize;
    while (1usize << (j + 1)) <= target && j + 1 < sub_outputs_by_level.len() {
        j += 1;
    }
    let r = 1usize << j;
    let floor = (r * r) as i64 / 2 - m as i64;
    let segs = partition_segments(g, moves, &sub_outputs_by_level[j], r * r);
    if fmm_obs::enabled() {
        let labels = [("r", r.to_string())];
        fmm_obs::add("pebbling.segment.count", &labels, segs.len() as u64);
        for s in &segs {
            fmm_obs::observe("pebbling.segment.io", &labels, s.io());
        }
    }
    (r, floor, segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::run_schedule;
    use crate::players::{belady_schedule, creation_order, demand_schedule, EvictionMode};
    use fmm_cdag::RecursiveCdag;

    fn strassen_base() -> fmm_cdag::Base2x2 {
        fmm_cdag::Base2x2 {
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

    fn sub_levels(h: &RecursiveCdag) -> Vec<Vec<fmm_cdag::VertexId>> {
        (0..h.sub_outputs.len())
            .map(|j| h.sub_output_vertices(j))
            .collect()
    }

    #[test]
    fn segment_io_sums_to_total() {
        let h = RecursiveCdag::build(&strassen_base(), 8);
        let m = 16;
        let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
        let total = run_schedule(&h.graph, &moves, m, false).expect("legal");
        let (_, _, segs) = theorem_audit(&h.graph, &moves, &sub_levels(&h), m);
        let seg_io: u64 = segs.iter().map(|s| s.io()).sum();
        assert_eq!(seg_io, total.io());
    }

    #[test]
    fn segment_count_matches_lemma_2_2() {
        // (n/r)^{log₂7} full segments of r² outputs each.
        let h = RecursiveCdag::build(&strassen_base(), 8);
        let m = 4; // r = 2·√4 = 4
        let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
        let (r, _, segs) = theorem_audit(&h.graph, &moves, &sub_levels(&h), m);
        assert_eq!(r, 4);
        let full: usize = segs.iter().filter(|s| s.outputs_computed == r * r).count();
        // 7^{log₂(8/4)} = 7 full segments.
        assert_eq!(full, 7);
    }

    #[test]
    fn lemma_3_6_floor_holds_on_full_segments() {
        // Every full segment must do at least r²/2 − M I/O — on a
        // no-recompute schedule AND on a recomputing one.
        let h = RecursiveCdag::build(&strassen_base(), 8);
        for m in [4usize, 8] {
            let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
            let (r, floor, segs) = theorem_audit(&h.graph, &moves, &sub_levels(&h), m);
            for (i, s) in segs.iter().enumerate() {
                if s.outputs_computed == r * r {
                    assert!(
                        s.io() as i64 >= floor,
                        "M={m} segment {i}: io {} < floor {floor}",
                        s.io()
                    );
                }
            }
        }
    }

    #[test]
    fn lemma_3_6_floor_holds_under_recomputation() {
        // The theorem's whole point: the floor also binds schedules that
        // recompute. Only first-time computations advance segments.
        let h = RecursiveCdag::build(&strassen_base(), 4);
        let m = 16;
        let moves = demand_schedule(&h.graph, m, EvictionMode::Recompute)
            .expect("capacity 16 is schedulable for the recompute player");
        let stats = run_schedule(&h.graph, &moves, m, true).expect("legal");
        assert!(
            stats.recomputes > 0,
            "want a genuinely recomputing schedule"
        );
        let (r, floor, segs) = theorem_audit(&h.graph, &moves, &sub_levels(&h), m);
        let mut full_segments = 0;
        for (i, s) in segs.iter().enumerate() {
            if s.outputs_computed == r * r {
                full_segments += 1;
                assert!(s.io() as i64 >= floor, "segment {i}: {} < {floor}", s.io());
            }
        }
        assert!(
            full_segments > 0,
            "audit must see at least one full segment"
        );
    }

    #[test]
    fn partition_handles_trailing_partial_segment() {
        let h = RecursiveCdag::build(&strassen_base(), 4);
        let m = 4;
        let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
        let subs = sub_levels(&h);
        // Absurdly large segment size → single partial segment.
        let segs = partition_segments(&h.graph, &moves, &subs[1], 10_000);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].outputs_computed, subs[1].len());
    }

    #[test]
    #[should_panic(expected = "segment size must be positive")]
    fn zero_segment_size_rejected() {
        let h = RecursiveCdag::build(&strassen_base(), 2);
        let _ = partition_segments(&h.graph, &[], &h.sub_output_vertices(0), 0);
    }
}
