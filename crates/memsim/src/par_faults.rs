//! The distributed schedules' engines, with fault injection and
//! recomputation-based recovery.
//!
//! Each schedule is one engine that answers "how many words does this
//! schedule move?" and the paper's natural follow-on: *what does recovery
//! cost in words when processors crash and messages are lost?* It
//! threads a deterministic [`FaultPlan`] through its communication rounds
//! and repairs every injected loss with one of two strategies:
//!
//! * [`Recovery::Recompute`] — the survivor re-derives lost state from
//!   the recursion: it re-fetches every input block its lost partials
//!   were computed from (charged word-for-word as recovery traffic) and
//!   recomputes. Zero overhead until a fault fires; per-crash cost grows
//!   linearly with the progress lost.
//! * [`Recovery::Checkpoint`] — every `period` rounds each live
//!   processor snapshots its state to stable storage (charged), a crash
//!   restores the latest snapshot and replays only the rounds since.
//!   Steady-state overhead buys bounded per-crash cost.
//!
//! Recovery is performed *literally*, not analytically: a crashed
//! processor's blocks are wiped and then reconstructed through the same
//! arithmetic the recovery story describes, so the test suite can assert
//! the strongest possible property — the product of a faulty run is
//! byte-identical to the fault-free product, for every schedule × every
//! strategy. All recovery traffic lands in [`NetStats::recovery_words`]
//! (and in the totals), preserving the invariant
//! `faulty.total_words − faulty.recovery_words == fault_free.total_words`.
//!
//! Message-level faults (drops, duplications) are repaired by bounded
//! retransmission: each dropped attempt's words are charged as recovery
//! (the bandwidth was spent), retries re-roll the oracle per attempt, and
//! an exhausted retry budget surfaces as [`LinkDead`] instead of looping.
//!
//! A run under an inert plan (one that can never fire) with
//! [`Recovery::None`] is the fault-free schedule, which is how
//! [`crate::par`] runs it. It publishes telemetry under the bare schedule
//! name (`cannon`, `3d`, `caps`) without `faults.*` counters; every other
//! run publishes under `<schedule>-faulty`, fault counters included.

use crate::par::NetStats;
use fmm_core::bilinear::Bilinear2x2;
use fmm_core::exec::multiply_fast;
use fmm_faults::{channel_id, FaultPlan, FaultStats, LinkDead, Recovery};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::ops::{add_assign, linear_combination};
use fmm_matrix::quad::{join_quadrants, split_quadrants};
use fmm_matrix::{Matrix, Scalar};

/// Outcome of a fault-injected distributed run.
#[derive(Clone, Debug)]
pub struct FaultyRun<T: Scalar> {
    /// The product (byte-identical to the fault-free run whenever
    /// `recovery != Recovery::None`).
    pub product: Matrix<T>,
    /// Communication accounting; recovery traffic is in
    /// [`NetStats::recovery_words`] as well as the totals.
    pub net: NetStats,
    /// Fault and recovery event counters.
    pub faults: FaultStats,
}

/// The telemetry label of a run: the bare schedule name when the run is
/// fault-free, `<schedule>-faulty` otherwise.
fn run_label(schedule: &str, fault_free: bool) -> String {
    if fault_free {
        schedule.to_string()
    } else {
        format!("{schedule}-faulty")
    }
}

/// Direction tags for [`channel_id`].
const DIR_A: u64 = 0;
const DIR_B: u64 = 1;
const DIR_CAPS: u64 = 2;

/// Deliver one logical message of `words` from `from` to `to` in `round`,
/// simulating drops (with bounded, re-rolled retries) and duplications.
/// The successful delivery is charged as normal traffic; every wasted
/// attempt and duplicate is charged as recovery.
#[allow(clippy::too_many_arguments)]
fn deliver(
    net: &mut NetStats,
    faults: &mut FaultStats,
    plan: &FaultPlan,
    dir: u64,
    from: usize,
    to: usize,
    round: usize,
    words: u64,
) -> Result<(), LinkDead> {
    if from == to || words == 0 {
        return Ok(());
    }
    let ch = channel_id(dir, from, to);
    let budget = plan.max_retries();
    let mut attempt = 0u32;
    loop {
        if plan.drops(ch, round, attempt) {
            faults.drops += 1;
            // The dropped attempt consumed bandwidth on both ends.
            net.transfer_recovery(from, to, words);
            if attempt >= budget {
                return Err(LinkDead {
                    channel: ch,
                    round,
                    attempts: attempt + 1,
                });
            }
            attempt += 1;
            faults.retries += 1;
            continue;
        }
        break;
    }
    net.transfer(from, to, words);
    if plan.duplicates(ch, round) {
        faults.dups += 1;
        net.transfer_recovery(from, to, words);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cannon
// ---------------------------------------------------------------------------

/// Cannon's algorithm on a `p×p` grid under a fault plan.
///
/// Crash model: a crash site `(proc, round)` fires at the *start* of
/// round `round` (after any scheduled checkpoint, before the local
/// multiply), wiping the processor's skewed `A`/`B` blocks and its `C`
/// accumulator. Recompute recovery re-fetches the `2·(round+1)` blocks
/// the lost state derives from (owners charge the transfer) and replays
/// the multiply-accumulates; checkpoint recovery restores the latest
/// 3-block snapshot and replays only the rounds since it. Message
/// drops/duplications apply to every shift-phase block transfer.
///
/// # Panics
/// Panics if `p == 0` or `p` does not divide `n`.
pub fn cannon_faulty<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    p: usize,
    plan: &FaultPlan,
    recovery: Recovery,
) -> Result<FaultyRun<T>, LinkDead> {
    let n = a.rows();
    assert!(p > 0 && n.is_multiple_of(p), "p must divide n");
    assert!(
        a.is_square() && b.is_square() && b.rows() == n,
        "need equal squares"
    );
    let bs = n / p;
    let nprocs = p * p;
    let mut net = NetStats::new(nprocs);
    let mut faults = FaultStats::default();
    let fault_free = plan.is_inert() && recovery == Recovery::None;
    let label = run_label("cannon", fault_free);
    let block_words = (bs * bs) as u64;
    let proc = |i: usize, j: usize| i * p + j;

    let take = |m: &Matrix<T>, bi: usize, bj: usize| -> Matrix<T> {
        Matrix::from_fn(bs, bs, |i, j| m[(bi * bs + i, bj * bs + j)])
    };
    // The skewed operand blocks processor (i,j) works on in round k.
    let skewed_a = |i: usize, j: usize, k: usize| take(a, i, (i + j + k) % p);
    let skewed_b = |i: usize, j: usize, k: usize| take(b, (i + j + k) % p, j);

    // Initial skew: processor (i,j) starts with A[i, (i+j) mod p] and
    // B[(i+j) mod p, j]. The skew is a data placement, not a message
    // exchange in-flight faults could hit.
    let mut ablocks: Vec<Matrix<T>> = Vec::with_capacity(nprocs);
    let mut bblocks: Vec<Matrix<T>> = Vec::with_capacity(nprocs);
    for i in 0..p {
        for j in 0..p {
            let src = (i + j) % p;
            ablocks.push(take(a, i, src));
            net.transfer(proc(i, src), proc(i, j), block_words);
            bblocks.push(take(b, src, j));
            net.transfer(proc(src, j), proc(i, j), block_words);
        }
    }
    net.publish_round(&label, 0, 0);

    let mut cblocks: Vec<Matrix<T>> = (0..nprocs).map(|_| Matrix::zeros(bs, bs)).collect();
    // Latest snapshot per processor: the round it was taken at plus the
    // (A, B, C) blocks as of the start of that round.
    type Snapshot<T> = (usize, Matrix<T>, Matrix<T>, Matrix<T>);
    let mut snapshots: Vec<Option<Snapshot<T>>> = (0..nprocs).map(|_| None).collect();

    for step in 0..p {
        // Cooperative cancellation: deadlines/shutdown stop the schedule
        // at the next round boundary.
        fmm_faults::cancel::poll();
        // Scheduled checkpoint: every live processor snapshots its state
        // (3 blocks to stable storage) at the start of the round.
        if let Recovery::Checkpoint { period } = recovery {
            if step % period == 0 {
                for q in 0..nprocs {
                    net.charge_recovery(q, 3 * block_words);
                    faults.checkpoints += 1;
                    snapshots[q] = Some((
                        step,
                        ablocks[q].clone(),
                        bblocks[q].clone(),
                        cblocks[q].clone(),
                    ));
                }
            }
        }
        // Crashes fire after the checkpoint, before the multiply.
        for i in 0..p {
            for j in 0..p {
                let q = proc(i, j);
                if !plan.crashes(q, step) {
                    continue;
                }
                faults.crashes += 1;
                // The crash destroys the processor's live state.
                ablocks[q] = Matrix::zeros(bs, bs);
                bblocks[q] = Matrix::zeros(bs, bs);
                cblocks[q] = Matrix::zeros(bs, bs);
                match recovery {
                    Recovery::None => faults.unrecovered += 1,
                    Recovery::Recompute => {
                        // Re-fetch the operand pair of every completed
                        // round from its owner and replay; the current
                        // round's pair is re-fetched too.
                        let mut acc = Matrix::zeros(bs, bs);
                        for k in 0..=step {
                            let ak = skewed_a(i, j, k);
                            let bk = skewed_b(i, j, k);
                            net.transfer_recovery(proc(i, (i + j + k) % p), q, block_words);
                            net.transfer_recovery(proc((i + j + k) % p, j), q, block_words);
                            if k < step {
                                add_assign(&mut acc, &multiply_naive(&ak, &bk));
                            } else {
                                ablocks[q] = ak;
                                bblocks[q] = bk;
                            }
                        }
                        cblocks[q] = acc;
                    }
                    Recovery::Checkpoint { .. } => {
                        let (at, sa, sb, sc) = snapshots[q]
                            .clone()
                            .expect("checkpoint strategy snapshots at round 0");
                        faults.restores += 1;
                        // Restore the 3-block snapshot from stable storage.
                        net.charge_recovery(q, 3 * block_words);
                        let mut acc = sc;
                        let (mut ca, mut cb) = (sa, sb);
                        // Replay rounds `at..step`: the snapshot's operand
                        // pair multiplies first, later pairs re-fetched.
                        for k in at..=step {
                            if k > at {
                                ca = skewed_a(i, j, k);
                                cb = skewed_b(i, j, k);
                                net.transfer_recovery(proc(i, (i + j + k) % p), q, block_words);
                                net.transfer_recovery(proc((i + j + k) % p, j), q, block_words);
                            }
                            if k < step {
                                add_assign(&mut acc, &multiply_naive(&ca, &cb));
                            }
                        }
                        ablocks[q] = ca;
                        bblocks[q] = cb;
                        cblocks[q] = acc;
                    }
                }
            }
        }
        // Local multiply-accumulate.
        for q in 0..nprocs {
            let prod = multiply_naive(&ablocks[q], &bblocks[q]);
            add_assign(&mut cblocks[q], &prod);
        }
        if step + 1 == p {
            break;
        }
        // Shift A left, B up; every hop is a real message the plan may
        // drop or duplicate.
        let round_mark = net.total_words;
        let mut new_a = ablocks.clone();
        let mut new_b = bblocks.clone();
        for i in 0..p {
            for j in 0..p {
                let from_a = proc(i, (j + 1) % p);
                new_a[proc(i, j)] = ablocks[from_a].clone();
                deliver(
                    &mut net,
                    &mut faults,
                    plan,
                    DIR_A,
                    from_a,
                    proc(i, j),
                    step,
                    block_words,
                )?;
                let from_b = proc((i + 1) % p, j);
                new_b[proc(i, j)] = bblocks[from_b].clone();
                deliver(
                    &mut net,
                    &mut faults,
                    plan,
                    DIR_B,
                    from_b,
                    proc(i, j),
                    step,
                    block_words,
                )?;
            }
        }
        ablocks = new_a;
        bblocks = new_b;
        net.publish_round(&label, step + 1, round_mark);
    }

    net.publish(&label);
    if !fault_free {
        faults.publish(&label);
    }
    let c = Matrix::from_fn(n, n, |i, j| cblocks[proc(i / bs, j / bs)][(i % bs, j % bs)]);
    Ok(FaultyRun {
        product: c,
        net,
        faults,
    })
}

// ---------------------------------------------------------------------------
// 3D
// ---------------------------------------------------------------------------

/// The classical 3D algorithm on a `p×p×p` grid under a fault plan.
///
/// The schedule has three communication phases (A-broadcast relay,
/// B-broadcast relay + multiply, reduction chain), which serve as the
/// crash rounds 0..=2. A phase-0 crash loses the relayed `A` block; a
/// phase-1 or phase-2 crash loses the partial product. Recompute
/// recovery re-fetches the operand blocks from their layer-0 owners and
/// redoes the multiply; checkpoint recovery snapshots each processor's
/// phase state (1 block) at phase starts where `phase % period == 0` and
/// restores the latest one, re-deriving anything newer. Relay-chain hops
/// are subject to drops/duplications.
///
/// # Panics
/// Panics if `p == 0` or `p` does not divide `n`.
pub fn replicated_3d_faulty<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    p: usize,
    plan: &FaultPlan,
    recovery: Recovery,
) -> Result<FaultyRun<T>, LinkDead> {
    let n = a.rows();
    assert!(p > 0 && n.is_multiple_of(p), "p must divide n");
    let bs = n / p;
    let nprocs = p * p * p;
    let mut net = NetStats::new(nprocs);
    let mut faults = FaultStats::default();
    let fault_free = plan.is_inert() && recovery == Recovery::None;
    let label = run_label("3d", fault_free);
    let block_words = (bs * bs) as u64;
    let proc = |i: usize, j: usize, l: usize| (i * p + j) * p + l;

    let take = |m: &Matrix<T>, bi: usize, bj: usize| -> Matrix<T> {
        Matrix::from_fn(bs, bs, |i, j| m[(bi * bs + i, bj * bs + j)])
    };

    let snapshot_due = |phase: usize| match recovery {
        Recovery::Checkpoint { period } => phase.is_multiple_of(period),
        _ => false,
    };

    // Proc (i,j,l) needs A(i,l) and B(l,j). Owners live in layer 0 at
    // (i,l,0) / (l,j,0); broadcasts along the j-fiber (for A) and i-fiber
    // (for B) run as relay chains, so every processor forwards at most one
    // block per operand — the balanced collective a real 3D implementation
    // uses (a serial single-owner fan-out would create a Θ(n²/p) hotspot).
    //
    // Phase 0: broadcast A along j-fibers; owner (i,l,0) seeds the chain
    // at (i,0,l), which relays along j.
    let mut ablk: Vec<Matrix<T>> = vec![Matrix::zeros(0, 0); nprocs];
    for i in 0..p {
        fmm_faults::cancel::poll();
        for l in 0..p {
            let ab = take(a, i, l);
            deliver(
                &mut net,
                &mut faults,
                plan,
                DIR_A,
                proc(i, l, 0),
                proc(i, 0, l),
                0,
                block_words,
            )?;
            for j in 1..p {
                deliver(
                    &mut net,
                    &mut faults,
                    plan,
                    DIR_A,
                    proc(i, j - 1, l),
                    proc(i, j, l),
                    0,
                    block_words,
                )?;
            }
            for j in 0..p {
                ablk[proc(i, j, l)] = ab.clone();
            }
        }
    }
    net.publish_round(&label, 0, 0);
    // Snapshot of the phase-0 state (the received A block).
    let mut snap_a: Vec<Option<Matrix<T>>> = vec![None; nprocs];
    if snapshot_due(0) {
        for q in 0..nprocs {
            net.charge_recovery(q, block_words);
            faults.checkpoints += 1;
            snap_a[q] = Some(ablk[q].clone());
        }
    }
    // Phase-0 crashes: the relayed A block is lost.
    for i in 0..p {
        for j in 0..p {
            for l in 0..p {
                let q = proc(i, j, l);
                if !plan.crashes(q, 0) {
                    continue;
                }
                faults.crashes += 1;
                ablk[q] = Matrix::zeros(bs, bs);
                match recovery {
                    Recovery::None => faults.unrecovered += 1,
                    Recovery::Recompute => {
                        // Re-fetch from the block's layer-0 owner.
                        net.transfer_recovery(proc(i, l, 0), q, block_words);
                        ablk[q] = take(a, i, l);
                    }
                    Recovery::Checkpoint { .. } => {
                        if let Some(s) = &snap_a[q] {
                            faults.restores += 1;
                            net.charge_recovery(q, block_words);
                            ablk[q] = s.clone();
                        } else {
                            // No snapshot covers phase 0: fall back to a
                            // re-fetch from the owner.
                            net.transfer_recovery(proc(i, l, 0), q, block_words);
                            ablk[q] = take(a, i, l);
                        }
                    }
                }
            }
        }
    }

    // Phase 1: broadcast B along i-fibers, multiply into partials.
    let bcast_b_mark = net.total_words;
    let mut partial: Vec<Matrix<T>> = vec![Matrix::zeros(0, 0); nprocs];
    for l in 0..p {
        fmm_faults::cancel::poll();
        for j in 0..p {
            let bb = take(b, l, j);
            deliver(
                &mut net,
                &mut faults,
                plan,
                DIR_B,
                proc(l, j, 0),
                proc(0, j, l),
                1,
                block_words,
            )?;
            for i in 1..p {
                deliver(
                    &mut net,
                    &mut faults,
                    plan,
                    DIR_B,
                    proc(i - 1, j, l),
                    proc(i, j, l),
                    1,
                    block_words,
                )?;
            }
            for i in 0..p {
                partial[proc(i, j, l)] = multiply_naive(&ablk[proc(i, j, l)], &bb);
            }
        }
    }
    net.publish_round(&label, 1, bcast_b_mark);
    let mut snap_partial: Vec<Option<Matrix<T>>> = vec![None; nprocs];
    if snapshot_due(1) {
        for q in 0..nprocs {
            net.charge_recovery(q, block_words);
            faults.checkpoints += 1;
            snap_partial[q] = Some(partial[q].clone());
        }
    }
    // A crash in phase 1 or 2 loses the partial product; recovery
    // re-derives it (or restores the phase-1 snapshot).
    let recover_partial = |q: usize,
                           i: usize,
                           j: usize,
                           l: usize,
                           partial: &mut Vec<Matrix<T>>,
                           net: &mut NetStats,
                           faults: &mut FaultStats,
                           snap_partial: &[Option<Matrix<T>>],
                           snap_a: &[Option<Matrix<T>>]| {
        partial[q] = Matrix::zeros(bs, bs);
        match recovery {
            Recovery::None => faults.unrecovered += 1,
            Recovery::Recompute => {
                // Re-fetch both operands from their layer-0 owners and
                // redo the local multiply (flops are free, words are not).
                net.transfer_recovery(proc(i, l, 0), q, block_words);
                net.transfer_recovery(proc(l, j, 0), q, block_words);
                partial[q] = multiply_naive(&take(a, i, l), &take(b, l, j));
            }
            Recovery::Checkpoint { .. } => {
                if let Some(s) = &snap_partial[q] {
                    faults.restores += 1;
                    net.charge_recovery(q, block_words);
                    partial[q] = s.clone();
                } else {
                    // Replay from the phase-0 snapshot (A restored, B
                    // re-fetched) or, lacking both, from the owners.
                    let ab = if let Some(s) = &snap_a[q] {
                        faults.restores += 1;
                        net.charge_recovery(q, block_words);
                        s.clone()
                    } else {
                        net.transfer_recovery(proc(i, l, 0), q, block_words);
                        take(a, i, l)
                    };
                    net.transfer_recovery(proc(l, j, 0), q, block_words);
                    partial[q] = multiply_naive(&ab, &take(b, l, j));
                }
            }
        }
    };
    for i in 0..p {
        for j in 0..p {
            for l in 0..p {
                let q = proc(i, j, l);
                if plan.crashes(q, 1) {
                    faults.crashes += 1;
                    recover_partial(
                        q,
                        i,
                        j,
                        l,
                        &mut partial,
                        &mut net,
                        &mut faults,
                        &snap_partial,
                        &snap_a,
                    );
                }
            }
        }
    }

    // Phase 2: crashes fire before the reduction consumes the partial.
    for i in 0..p {
        for j in 0..p {
            for l in 0..p {
                let q = proc(i, j, l);
                if plan.crashes(q, 2) {
                    faults.crashes += 1;
                    recover_partial(
                        q,
                        i,
                        j,
                        l,
                        &mut partial,
                        &mut net,
                        &mut faults,
                        &snap_partial,
                        &snap_a,
                    );
                }
            }
        }
    }
    // Reduce across l into layer 0 as a chain (i,j,p−1) → … → (i,j,0),
    // each hop forwarding one accumulated block as a message.
    let reduce_mark = net.total_words;
    let mut cblocks: Vec<Matrix<T>> = (0..p * p).map(|_| Matrix::zeros(bs, bs)).collect();
    for i in 0..p {
        for j in 0..p {
            for l in (0..p).rev() {
                add_assign(&mut cblocks[i * p + j], &partial[proc(i, j, l)]);
                if l != 0 {
                    deliver(
                        &mut net,
                        &mut faults,
                        plan,
                        DIR_B,
                        proc(i, j, l),
                        proc(i, j, l - 1),
                        2,
                        block_words,
                    )?;
                }
            }
        }
    }

    net.publish_round(&label, 2, reduce_mark);
    net.publish(&label);
    if !fault_free {
        faults.publish(&label);
    }
    let c = Matrix::from_fn(n, n, |i, j| {
        cblocks[(i / bs) * p + j / bs][(i % bs, j % bs)]
    });
    Ok(FaultyRun {
        product: c,
        net,
        faults,
    })
}

// ---------------------------------------------------------------------------
// CAPS-Strassen
// ---------------------------------------------------------------------------

/// BFS-style CAPS parallel Strassen on `P = 7^k` processors under a
/// fault plan. Fault sites are `(group member, recursion level)`: a
/// member's share of the BFS redistribution can be dropped (bounded
/// retransmission, each wasted attempt charged), duplicated, or lost to
/// a crash after delivery. Recompute recovery re-runs the member's
/// redistribution from the parent distribution — `2×` its share, since
/// the encoded operands must be re-gathered *and* re-encoded from the
/// scattered quadrants — while checkpoint recovery snapshots each
/// member's share at levels where `level % period == 0` and restores it
/// for one share's worth of words.
///
/// # Panics
/// Panics unless `n` is a power of two and `levels ≤ log₂ n`.
pub fn caps_strassen_faulty<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    levels: usize,
    plan: &FaultPlan,
    recovery: Recovery,
) -> Result<FaultyRun<T>, LinkDead> {
    let n = a.rows();
    assert!(n.is_power_of_two(), "order must be a power of two");
    assert!(
        levels <= n.trailing_zeros() as usize,
        "levels exceed log2 n"
    );
    let nprocs = 7usize.pow(levels as u32);
    let mut net = NetStats::new(nprocs);
    let mut faults = FaultStats::default();
    let fault_free = plan.is_inert() && recovery == Recovery::None;
    let label = run_label("caps", fault_free);

    #[allow(clippy::too_many_arguments)]
    fn rec<T: Scalar>(
        alg: &Bilinear2x2,
        a: &Matrix<T>,
        b: &Matrix<T>,
        group: std::ops::Range<usize>,
        level: usize,
        plan: &FaultPlan,
        recovery: Recovery,
        label: &str,
        net: &mut NetStats,
        faults: &mut FaultStats,
    ) -> Result<Matrix<T>, LinkDead> {
        let gsize = group.end - group.start;
        // Cancellation reaches every BFS node of the recursion.
        fmm_faults::cancel::poll();
        if gsize == 1 {
            // Local computation (choose the fast algorithm locally too).
            return Ok(multiply_fast(alg, a, b, 1));
        }
        let n = a.rows();
        let sub = gsize / 7;
        // BFS redistribution: every group member exchanges its share of the
        // quadrants needed to form the 7 encoded operand pairs. Volume per
        // member: the encoded data 2·7·(n/2)² words spread over the group.
        let volume_per_member = (2 * 7 * (n / 2) * (n / 2)) as u64 / gsize as u64;
        if fmm_obs::detailed() {
            fmm_obs::add(
                "memsim.net.level_words",
                &[
                    ("schedule", label.to_string()),
                    ("level", level.to_string()),
                ],
                volume_per_member * gsize as u64,
            );
        }
        for m in group.clone() {
            // The member's share of the redistribution is one logical
            // message subject to drops and duplication.
            let ch = channel_id(DIR_CAPS, m, m);
            let budget = plan.max_retries();
            let mut attempt = 0u32;
            loop {
                if plan.drops(ch, level, attempt) {
                    faults.drops += 1;
                    net.charge_recovery(m, volume_per_member);
                    if attempt >= budget {
                        return Err(LinkDead {
                            channel: ch,
                            round: level,
                            attempts: attempt + 1,
                        });
                    }
                    attempt += 1;
                    faults.retries += 1;
                    continue;
                }
                break;
            }
            net.charge(m, volume_per_member);
            if plan.duplicates(ch, level) {
                faults.dups += 1;
                net.charge_recovery(m, volume_per_member);
            }
            // Scheduled snapshot of the received share.
            if let Recovery::Checkpoint { period } = recovery {
                if level.is_multiple_of(period) {
                    faults.checkpoints += 1;
                    net.charge_recovery(m, volume_per_member);
                }
            }
            // Post-delivery crash: the member's share is lost.
            if plan.crashes(m, level) {
                faults.crashes += 1;
                match recovery {
                    Recovery::None => faults.unrecovered += 1,
                    Recovery::Recompute => {
                        // Re-gather the scattered quadrants and re-encode:
                        // twice the share (operand gather + encode output).
                        net.charge_recovery(m, 2 * volume_per_member);
                    }
                    Recovery::Checkpoint { period } => {
                        if level.is_multiple_of(period) {
                            faults.restores += 1;
                            net.charge_recovery(m, volume_per_member);
                        } else {
                            // No snapshot at this level: re-derive.
                            net.charge_recovery(m, 2 * volume_per_member);
                        }
                    }
                }
            }
        }
        let aq = split_quadrants(a);
        let bq = split_quadrants(b);
        let aq_ref: Vec<&Matrix<T>> = aq.iter().collect();
        let bq_ref: Vec<&Matrix<T>> = bq.iter().collect();
        let mut products = Vec::with_capacity(7);
        for r in 0..7 {
            let left = linear_combination(&alg.u[r], &aq_ref);
            let right = linear_combination(&alg.v[r], &bq_ref);
            let subgroup = group.start + r * sub..group.start + (r + 1) * sub;
            products.push(rec(
                alg,
                &left,
                &right,
                subgroup,
                level + 1,
                plan,
                recovery,
                label,
                net,
                faults,
            )?);
        }
        let prod_ref: Vec<&Matrix<T>> = products.iter().collect();
        let quads = [
            linear_combination(&alg.w[0], &prod_ref),
            linear_combination(&alg.w[1], &prod_ref),
            linear_combination(&alg.w[2], &prod_ref),
            linear_combination(&alg.w[3], &prod_ref),
        ];
        Ok(join_quadrants(&quads))
    }

    let product = rec(
        alg,
        a,
        b,
        0..nprocs,
        0,
        plan,
        recovery,
        &label,
        &mut net,
        &mut faults,
    )?;
    net.publish(&label);
    if !fault_free {
        faults.publish(&label);
    }
    Ok(FaultyRun {
        product,
        net,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::catalog;
    use fmm_faults::FaultSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<i64>::random_small(n, n, &mut rng);
        let b = Matrix::<i64>::random_small(n, n, &mut rng);
        (a, b)
    }

    #[test]
    fn inert_plan_reproduces_fault_free_cannon_exactly() {
        let (a, b) = inputs(12, 3);
        let plan = FaultSpec::default().plan();
        let run = cannon_faulty(&a, &b, 3, &plan, Recovery::Recompute).unwrap();
        let (c, net) = crate::par::cannon(&a, &b, 3);
        assert_eq!(run.product, c);
        assert_eq!(run.net.total_words, net.total_words);
        assert_eq!(run.net.messages, net.messages);
        assert_eq!(run.net.per_proc, net.per_proc);
        assert_eq!(run.net.recovery_words, 0);
        assert_eq!(run.faults, FaultStats::default());
    }

    #[test]
    fn unrecovered_crash_corrupts_the_product() {
        // Recovery::None must visibly lose work — otherwise the recovery
        // strategies are never exercised by the identity tests below.
        let (a, b) = inputs(8, 5);
        let plan = FaultSpec::parse("crash@0:1").unwrap().plan();
        let run = cannon_faulty(&a, &b, 2, &plan, Recovery::None).unwrap();
        let (c, _) = crate::par::cannon(&a, &b, 2);
        assert_ne!(run.product, c, "a dropped partial must corrupt block 0");
        assert_eq!(run.faults.unrecovered, 1);
    }

    #[test]
    fn forced_crash_recovery_restores_exact_product() {
        let (a, b) = inputs(12, 7);
        let (c, base) = crate::par::cannon(&a, &b, 3);
        for recovery in [
            Recovery::Recompute,
            Recovery::Checkpoint { period: 1 },
            Recovery::Checkpoint { period: 2 },
        ] {
            let plan = FaultSpec::parse("crash@4:1,crash@0:2").unwrap().plan();
            let run = cannon_faulty(&a, &b, 3, &plan, recovery).unwrap();
            assert_eq!(run.product, c, "{recovery:?}");
            assert_eq!(run.faults.crashes, 2);
            assert!(run.net.recovery_words > 0);
            assert_eq!(
                run.net.total_words - run.net.recovery_words,
                base.total_words,
                "{recovery:?}: non-recovery traffic must equal the fault-free run"
            );
        }
    }

    #[test]
    fn recompute_cost_grows_with_progress_lost() {
        let (a, b) = inputs(16, 9);
        let early = FaultSpec::parse("crash@5:0").unwrap().plan();
        let late = FaultSpec::parse("crash@5:3").unwrap().plan();
        let re = |plan| {
            cannon_faulty(&a, &b, 4, plan, Recovery::Recompute)
                .unwrap()
                .net
                .recovery_words
        };
        assert!(
            re(&late) > re(&early),
            "late crash must cost more to recompute"
        );
    }

    #[test]
    fn checkpoint_bounds_late_crash_cost() {
        // With period 1, a late crash replays at most one round, so its
        // *incremental* cost (beyond the steady snapshot traffic, which
        // is identical for both plans) must not grow with the crash round.
        let (a, b) = inputs(16, 11);
        let early = FaultSpec::parse("crash@5:1").unwrap().plan();
        let late = FaultSpec::parse("crash@5:3").unwrap().plan();
        let rw = |plan| {
            cannon_faulty(&a, &b, 4, plan, Recovery::Checkpoint { period: 1 })
                .unwrap()
                .net
                .recovery_words
        };
        assert_eq!(rw(&early), rw(&late));
    }

    #[test]
    fn random_fault_runs_are_seed_deterministic() {
        let (a, b) = inputs(12, 13);
        let mk = || {
            FaultSpec::parse("seed=99,crash=0.2,drop=0.1,dup=0.1")
                .unwrap()
                .plan()
        };
        let x = cannon_faulty(&a, &b, 3, &mk(), Recovery::Recompute).unwrap();
        let y = cannon_faulty(&a, &b, 3, &mk(), Recovery::Recompute).unwrap();
        assert_eq!(x.product, y.product);
        assert_eq!(x.net.total_words, y.net.total_words);
        assert_eq!(x.net.recovery_words, y.net.recovery_words);
        assert_eq!(x.net.messages, y.net.messages);
        assert_eq!(x.faults, y.faults);
        // And a different fault seed moves the counters.
        let z = cannon_faulty(
            &a,
            &b,
            3,
            &FaultSpec::parse("seed=100,crash=0.2,drop=0.1,dup=0.1")
                .unwrap()
                .plan(),
            Recovery::Recompute,
        )
        .unwrap();
        assert_eq!(z.product, x.product, "recovery must hold for any seed");
        assert_ne!(
            (x.faults.crashes, x.faults.drops, x.net.recovery_words),
            (z.faults.crashes, z.faults.drops, z.net.recovery_words),
        );
    }

    #[test]
    fn dropped_messages_are_retried_and_charged() {
        let (a, b) = inputs(8, 15);
        let (c, base) = crate::par::cannon(&a, &b, 2);
        let plan = FaultSpec::parse("seed=3,drop=0.3").unwrap().plan();
        let run = cannon_faulty(&a, &b, 2, &plan, Recovery::Recompute).unwrap();
        assert_eq!(run.product, c);
        assert!(run.faults.drops > 0, "a 30% drop rate must fire on 8 msgs");
        assert_eq!(run.faults.retries, run.faults.drops);
        assert_eq!(
            run.net.total_words - run.net.recovery_words,
            base.total_words
        );
    }

    #[test]
    fn certain_drop_exhausts_retries() {
        let (a, b) = inputs(8, 17);
        let plan = FaultSpec::parse("drop=1.0,retries=2").unwrap().plan();
        let err = cannon_faulty(&a, &b, 2, &plan, Recovery::Recompute).unwrap_err();
        assert_eq!(err.attempts, 3, "original + 2 retries");
    }

    #[test]
    fn replicated_3d_recovers_exactly_across_phases() {
        let (a, b) = inputs(8, 19);
        let (c, base) = crate::par::replicated_3d(&a, &b, 2);
        for recovery in [Recovery::Recompute, Recovery::Checkpoint { period: 1 }] {
            // One crash in each phase, on three different processors.
            let plan = FaultSpec::parse("crash@1:0,crash@3:1,crash@5:2")
                .unwrap()
                .plan();
            let run = replicated_3d_faulty(&a, &b, 2, &plan, recovery).unwrap();
            assert_eq!(run.product, c, "{recovery:?}");
            assert_eq!(run.faults.crashes, 3);
            assert!(run.net.recovery_words > 0);
            assert_eq!(
                run.net.total_words - run.net.recovery_words,
                base.total_words,
                "{recovery:?}"
            );
        }
    }

    #[test]
    fn replicated_3d_unrecovered_crash_corrupts() {
        let (a, b) = inputs(8, 21);
        let (c, _) = crate::par::replicated_3d(&a, &b, 2);
        let plan = FaultSpec::parse("crash@3:1").unwrap().plan();
        let run = replicated_3d_faulty(&a, &b, 2, &plan, Recovery::None).unwrap();
        assert_ne!(run.product, c);
    }

    #[test]
    fn caps_recovers_and_charges_the_bfs_share() {
        let alg = catalog::strassen();
        let (a, b) = inputs(8, 23);
        let (c, base) = crate::par::caps_strassen(&alg, &a, &b, 2);
        for recovery in [Recovery::Recompute, Recovery::Checkpoint { period: 1 }] {
            let plan = FaultSpec::parse("crash@10:1,crash@3:0").unwrap().plan();
            let run = caps_strassen_faulty(&alg, &a, &b, 2, &plan, recovery).unwrap();
            assert_eq!(run.product, c, "{recovery:?}");
            assert_eq!(run.faults.crashes, 2);
            assert!(run.net.recovery_words > 0);
            assert_eq!(
                run.net.total_words - run.net.recovery_words,
                base.total_words,
                "{recovery:?}"
            );
        }
    }

    #[test]
    fn caps_seeded_faults_are_deterministic() {
        let alg = catalog::strassen();
        let (a, b) = inputs(8, 25);
        let mk = || {
            FaultSpec::parse("seed=4,crash=0.1,drop=0.1")
                .unwrap()
                .plan()
        };
        let x = caps_strassen_faulty(&alg, &a, &b, 1, &mk(), Recovery::Checkpoint { period: 1 })
            .unwrap();
        let y = caps_strassen_faulty(&alg, &a, &b, 1, &mk(), Recovery::Checkpoint { period: 1 })
            .unwrap();
        assert_eq!(x.faults, y.faults);
        assert_eq!(x.net.total_words, y.net.total_words);
        assert_eq!(x.net.recovery_words, y.net.recovery_words);
    }

    #[test]
    fn checkpoint_overhead_vs_recompute_tradeoff_is_visible() {
        // No crashes: checkpointing pays steady-state snapshot traffic,
        // recompute pays nothing.
        let (a, b) = inputs(12, 27);
        let plan = FaultSpec::default().plan();
        let ck = cannon_faulty(&a, &b, 3, &plan, Recovery::Checkpoint { period: 1 }).unwrap();
        let rc = cannon_faulty(&a, &b, 3, &plan, Recovery::Recompute).unwrap();
        assert!(ck.net.recovery_words > 0);
        assert_eq!(rc.net.recovery_words, 0);
        assert!(ck.faults.checkpoints > 0);
    }
}
