//! A *concurrently executed* distributed run: Cannon's algorithm with one
//! OS thread per virtual processor and `mpsc` channels as the network.
//!
//! [`crate::par`] simulates the distributed machine round-by-round in a
//! single thread (deterministic, cheap, exact word counts). This module
//! executes the same algorithm with real concurrency — each processor is a
//! `std::thread::scope` thread owning its blocks, and every block exchanged
//! travels through a bounded channel and is counted atomically. The
//! initial skew is performed locally, so the wire carries only the `p−1`
//! shift rounds; the tests check that this volume equals the shift
//! traffic of the round-based simulator.
//!
//! [`cannon_threaded_faulty`] is the only threaded executor: under an
//! inert plan (one that can never fire) it is the fault-free run and
//! publishes telemetry under `cannon-threaded`, per-processor words
//! included; any other plan publishes under `cannon-threaded-faulty`.

use crate::par_faults::run_label;
use fmm_faults::{backoff_micros, channel_id, FaultPlan, FaultStats};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::ops::add_assign;
use fmm_matrix::{Matrix, Scalar};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

/// Result of a fault-injected threaded run.
#[derive(Debug)]
pub struct FaultyThreadedRun<T: Scalar> {
    /// The product matrix (byte-identical to the fault-free run: retries
    /// repair every simulated loss).
    pub product: Matrix<T>,
    /// Total words that crossed the network, retransmissions and
    /// duplicates included.
    pub total_words: u64,
    /// Words attributable to faults alone (wasted attempts + duplicates);
    /// `total_words − recovery_words` equals the fault-free volume.
    pub recovery_words: u64,
    /// Total send attempts.
    pub messages: u64,
    /// Aggregated fault counters across all workers.
    pub faults: FaultStats,
}

/// A block in flight, tagged with the shift round that produced it so
/// receivers can tell a live block from a stale duplicate.
struct Envelope<T> {
    seq: usize,
    data: T,
}

/// Per-message deadline for [`cannon_threaded_faulty`] receivers. A
/// worker whose neighbour died (retry budget exhausted) observes silence,
/// not a hang: the deadline converts it into an error and the scope
/// drains. Generous relative to the µs-scale backoff sleeps.
const RECV_DEADLINE: Duration = Duration::from_secs(5);

/// Cannon's algorithm, one thread per processor, with a lossy network
/// simulated at the send side: each logical send consults the
/// [`FaultPlan`] and may be dropped (the attempt's words are charged as
/// recovery, the sender backs off deterministically and retries, up to
/// the plan's budget) or duplicated (the extra copy charged as recovery;
/// receivers discard stale duplicates by sequence number). Every receive
/// carries a deadline, so an exhausted retry budget surfaces as an `Err`
/// from every affected worker instead of a deadlock.
///
/// Fault rolls are keyed by `(channel, round, attempt)`, never by thread
/// timing, so the product *and* the full counter triple
/// `(total_words, recovery_words, messages)` are deterministic for a
/// given plan. Under an inert plan no send is dropped or duplicated, so
/// the run is exactly the fault-free one.
///
/// # Panics
/// Panics if `p == 0` or `p` does not divide `n`.
pub fn cannon_threaded_faulty<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    p: usize,
    plan: &FaultPlan,
) -> Result<FaultyThreadedRun<T>, String> {
    let n = a.rows();
    assert!(p > 0 && n.is_multiple_of(p), "p must divide n");
    assert!(
        a.is_square() && b.is_square() && b.rows() == n,
        "need equal squares"
    );
    let bs = n / p;
    let nprocs = p * p;
    let block_words = (bs * bs) as u64;
    let words = AtomicU64::new(0);
    let recovery = AtomicU64::new(0);
    let messages = AtomicU64::new(0);
    let fault_free = plan.is_inert();
    let label = run_label("cannon-threaded", fault_free);

    let take = |m: &Matrix<T>, bi: usize, bj: usize| -> Matrix<T> {
        Matrix::from_fn(bs, bs, |i, j| m[(bi * bs + i, bj * bs + j)])
    };
    let proc = |i: usize, j: usize| i * p + j;
    // Capacity 2p: at most one live block plus one duplicate per round can
    // sit in an inbox (stale duplicates are only drained lazily), so sends
    // never block even on a slow receiver — backoff sleeps are the only
    // waits on the send path.
    let (a_tx, a_rx): (Vec<_>, Vec<_>) = (0..nprocs)
        .map(|_| mpsc::sync_channel::<Envelope<Matrix<T>>>(2 * p))
        .unzip();
    let (b_tx, b_rx): (Vec<_>, Vec<_>) = (0..nprocs)
        .map(|_| mpsc::sync_channel::<Envelope<Matrix<T>>>(2 * p))
        .unzip();
    // Each inbox has one reader: processor proc(i, j) takes the proc(i, j)-th
    // receiver of each direction, in spawn order.
    let mut a_rx = a_rx.into_iter();
    let mut b_rx = b_rx.into_iter();

    // What each worker hands back: its accumulator plus local fault
    // counters, or a description of why the network let it down.
    type WorkerResult<T> = Result<(Matrix<T>, FaultStats), String>;
    let mut results: Vec<Option<WorkerResult<T>>> = (0..nprocs).map(|_| None).collect();

    // Per-worker telemetry of a fault-free run: each thread fills a
    // LocalCollector (no shared lock on the hot path) and ships it out
    // through a channel; the coordinator absorbs them after the scope joins.
    let collect = fault_free && fmm_obs::detailed();
    let (obs_tx, obs_rx) = fmm_obs::collector_channel();

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(nprocs);
        for i in 0..p {
            for j in 0..p {
                // Initial skew, performed locally: processor (i,j) starts
                // with A(i, i+j) and B(i+j, j).
                let mut a_blk = take(a, i, (i + j) % p);
                let mut b_blk = take(b, (i + j) % p, j);
                // A shifts left: send to (i, j−1), receive from (i, j+1).
                let a_out = a_tx[proc(i, (j + p - 1) % p)].clone();
                let a_in = a_rx.next().expect("one A inbox per processor");
                // B shifts up: send to (i−1, j), receive from (i+1, j).
                let b_out = b_tx[proc((i + p - 1) % p, j)].clone();
                let b_in = b_rx.next().expect("one B inbox per processor");
                let words = &words;
                let recovery = &recovery;
                let messages = &messages;
                let label = &label;
                let obs_tx = obs_tx.clone();
                handles.push(s.spawn(move || {
                    let result = (|| -> Result<(Matrix<T>, FaultStats), String> {
                        let me = proc(i, j);
                        let mut stats = FaultStats::default();
                        let mut local = collect.then(fmm_obs::LocalCollector::new);
                        // One lossy logical send: roll per attempt, back off
                        // between retries, deliver (plus a possible duplicate).
                        let send = |out: &SyncSender<Envelope<Matrix<T>>>,
                                    dir: u64,
                                    to: usize,
                                    step: usize,
                                    blk: &Matrix<T>,
                                    stats: &mut FaultStats|
                         -> Result<(), String> {
                            let ch = channel_id(dir, me, to);
                            let budget = plan.max_retries();
                            let mut attempt = 0u32;
                            loop {
                                if plan.drops(ch, step, attempt) {
                                    stats.drops += 1;
                                    words.fetch_add(block_words, Ordering::Relaxed);
                                    recovery.fetch_add(block_words, Ordering::Relaxed);
                                    messages.fetch_add(1, Ordering::Relaxed);
                                    if attempt >= budget {
                                        return Err(format!(
                                            "proc {me}: {}",
                                            fmm_faults::LinkDead {
                                                channel: ch,
                                                round: step,
                                                attempts: attempt + 1,
                                            }
                                        ));
                                    }
                                    attempt += 1;
                                    stats.retries += 1;
                                    std::thread::sleep(Duration::from_micros(backoff_micros(
                                        attempt,
                                    )));
                                    continue;
                                }
                                break;
                            }
                            words.fetch_add(block_words, Ordering::Relaxed);
                            messages.fetch_add(1, Ordering::Relaxed);
                            out.send(Envelope {
                                seq: step,
                                data: blk.clone(),
                            })
                            .map_err(|_| format!("proc {me}: peer {to} hung up"))?;
                            if plan.duplicates(ch, step) {
                                stats.dups += 1;
                                words.fetch_add(block_words, Ordering::Relaxed);
                                recovery.fetch_add(block_words, Ordering::Relaxed);
                                messages.fetch_add(1, Ordering::Relaxed);
                                out.send(Envelope {
                                    seq: step,
                                    data: blk.clone(),
                                })
                                .map_err(|_| format!("proc {me}: peer {to} hung up"))?;
                            }
                            Ok(())
                        };
                        // Deadline-bounded receive of the round-`step` block;
                        // stale duplicates from earlier rounds are discarded.
                        let recv = |inbox: &Receiver<Envelope<Matrix<T>>>,
                                    step: usize|
                         -> Result<Matrix<T>, String> {
                            loop {
                                let env =
                                    inbox.recv_timeout(RECV_DEADLINE).map_err(|e| match e {
                                        RecvTimeoutError::Timeout => {
                                            format!(
                                                "proc {me}: recv deadline expired in round {step}"
                                            )
                                        }
                                        RecvTimeoutError::Disconnected => {
                                            format!("proc {me}: neighbour gone in round {step}")
                                        }
                                    })?;
                                if env.seq == step {
                                    return Ok(env.data);
                                }
                                debug_assert!(env.seq < step, "future block cannot arrive early");
                            }
                        };
                        let mut acc: Matrix<T> = Matrix::zeros(bs, bs);
                        for step in 0..p {
                            let prod = multiply_naive(&a_blk, &b_blk);
                            add_assign(&mut acc, &prod);
                            if step + 1 == p {
                                break;
                            }
                            if let Some(local) = &mut local {
                                let labels =
                                    [("schedule", label.clone()), ("proc", me.to_string())];
                                local.add("memsim.net.send_words", &labels, 2 * block_words);
                                local.add("memsim.net.recv_words", &labels, 2 * block_words);
                            }
                            send(
                                &a_out,
                                0,
                                proc(i, (j + p - 1) % p),
                                step,
                                &a_blk,
                                &mut stats,
                            )?;
                            send(
                                &b_out,
                                1,
                                proc((i + p - 1) % p, j),
                                step,
                                &b_blk,
                                &mut stats,
                            )?;
                            a_blk = recv(&a_in, step)?;
                            b_blk = recv(&b_in, step)?;
                        }
                        if let Some(local) = local {
                            let _ = obs_tx.send(local);
                        }
                        Ok((acc, stats))
                    })();
                    // Hand the inboxes back with the result: they stay
                    // open until every worker has joined, so a duplicate
                    // sent after its receiver finished is not a hang-up.
                    (result, a_in, b_in)
                }));
            }
        }
        let mut inboxes = Vec::with_capacity(nprocs);
        for (idx, h) in handles.into_iter().enumerate() {
            results[idx] = Some(match h.join() {
                Ok((r, a_in, b_in)) => {
                    inboxes.push((a_in, b_in));
                    r
                }
                Err(_) => Err(format!("proc {idx}: worker panicked")),
            });
        }
    });
    drop(obs_tx);

    let mut faults = FaultStats::default();
    let mut blocks: Vec<Matrix<T>> = Vec::with_capacity(nprocs);
    let mut errors: Vec<String> = Vec::new();
    for r in results.into_iter().map(|r| r.expect("joined")) {
        match r {
            Ok((acc, s)) => {
                faults.merge(&s);
                blocks.push(acc);
            }
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    fmm_obs::absorb_all(&obs_rx);
    if fmm_obs::enabled() {
        let labels = [("schedule", label.clone())];
        fmm_obs::add(
            "memsim.net.total_words",
            &labels,
            words.load(Ordering::Relaxed),
        );
        fmm_obs::add(
            "memsim.net.messages",
            &labels,
            messages.load(Ordering::Relaxed),
        );
        if !fault_free {
            fmm_obs::add(
                "memsim.net.recovery_words",
                &labels,
                recovery.load(Ordering::Relaxed),
            );
            faults.publish(&label);
        }
    }

    let product = Matrix::from_fn(n, n, |i, j| blocks[proc(i / bs, j / bs)][(i % bs, j % bs)]);
    Ok(FaultyThreadedRun {
        product,
        total_words: words.into_inner(),
        recovery_words: recovery.into_inner(),
        messages: messages.into_inner(),
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_faults::FaultSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<i64>::random_small(n, n, &mut rng);
        let b = Matrix::<i64>::random_small(n, n, &mut rng);
        let c = multiply_naive(&a, &b);
        (a, b, c)
    }

    fn fault_free(a: &Matrix<i64>, b: &Matrix<i64>, p: usize) -> FaultyThreadedRun<i64> {
        cannon_threaded_faulty(a, b, p, &FaultSpec::default().plan()).unwrap()
    }

    #[test]
    fn threaded_cannon_correct() {
        for (n, p) in [(8usize, 2usize), (12, 3), (16, 4), (6, 1)] {
            let (a, b, expect) = inputs(n, 41);
            let run = fault_free(&a, &b, p);
            assert_eq!(run.product, expect, "n={n} p={p}");
        }
    }

    #[test]
    fn threaded_word_count_is_deterministic_and_exact() {
        // p² processors, (p−1) rounds, each moving 2 blocks of (n/p)².
        let (a, b, _) = inputs(16, 43);
        let p = 4;
        let run = fault_free(&a, &b, p);
        let expect = (p * p * (p - 1) * 2 * (16 / p) * (16 / p)) as u64;
        assert_eq!(run.total_words, expect);
        assert_eq!(run.messages, (p * p * (p - 1) * 2) as u64);
        assert_eq!(run.recovery_words, 0);
        assert_eq!(run.faults, FaultStats::default());
    }

    #[test]
    fn threaded_matches_roundbased_shift_volume() {
        // The round-based simulator charges skew + shifts; the threaded one
        // charges shifts only. Their shift volumes agree exactly.
        let (a, b, _) = inputs(16, 47);
        let p = 4;
        let threaded = fault_free(&a, &b, p);
        let (product, net) = crate::par::cannon(&a, &b, p);
        assert_eq!(product, threaded.product);
        // Round-based total includes the skew (2 blocks per proc, minus the
        // unmoved ones): shifts alone are p²·(p−1)·2 blocks.
        let shift_words = (p * p * (p - 1) * 2 * (16 / p) * (16 / p)) as u64;
        assert_eq!(threaded.total_words, shift_words);
        assert!(
            net.total_words >= shift_words,
            "round-based includes the skew"
        );
    }

    #[test]
    fn single_processor_no_communication() {
        let (a, b, expect) = inputs(8, 53);
        let run = fault_free(&a, &b, 1);
        assert_eq!(run.product, expect);
        assert_eq!(run.total_words, 0);
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn faulty_drops_and_dups_are_repaired_and_charged() {
        let (a, b, expect) = inputs(12, 61);
        let clean = fault_free(&a, &b, 3);
        let plan = FaultSpec::parse("seed=8,drop=0.25,dup=0.15")
            .unwrap()
            .plan();
        let run = cannon_threaded_faulty(&a, &b, 3, &plan).unwrap();
        assert_eq!(run.product, expect, "retries must repair every loss");
        assert!(run.faults.drops + run.faults.dups > 0, "faults must fire");
        assert_eq!(run.faults.retries, run.faults.drops);
        assert_eq!(
            run.total_words - run.recovery_words,
            clean.total_words,
            "non-recovery traffic must equal the fault-free volume"
        );
    }

    #[test]
    fn faulty_exhausted_retries_error_without_deadlock() {
        let (a, b, _) = inputs(8, 67);
        let plan = FaultSpec::parse("drop=1.0,retries=1").unwrap().plan();
        let err = cannon_threaded_faulty(&a, &b, 2, &plan).unwrap_err();
        assert!(
            err.contains("dead") || err.contains("deadline") || err.contains("gone"),
            "unexpected error: {err}"
        );
    }
}
