//! Differential reference-model harness.
//!
//! The optimized simulator core (slab LRU/FIFO over a dense address map,
//! bucket-pointer Belady OPT) must be **byte-identical** in its counters
//! to the deliberately naive models in `fmm_memsim::reference` on
//! arbitrary traces — mixed reads/writes/mid-trace flushes, uniform and
//! skewed address distributions (up to 10⁹, renamed by the one
//! `trace::densify` boundary before they reach the core), capacities
//! 1..64 — and so must a whole instrumented `Mem` run with injected
//! wipes. The reference models are the oracle and are kept forever; any
//! divergence is a bug in the fast core, never grounds to adjust the
//! oracle.

use fmm_matrix::Matrix;
use fmm_memsim::cache::Policy;
use fmm_memsim::reference::{self, Op};
use fmm_memsim::seq::{self, Mem, Replacement};
use fmm_memsim::trace::{opt_stats, replay, Access, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Uniform addresses over a range comparable to the capacity (plenty of
/// conflict pressure), with a ~2% sprinkling of mid-trace flushes.
fn uniform_ops(max_addr: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..50, 0..max_addr, proptest::bool::ANY).prop_map(|(sel, addr, write)| {
            if sel == 0 {
                Op::Flush
            } else {
                Op::Access(Access { addr, write })
            }
        }),
        0..len,
    )
}

/// Skewed: a small hot set takes most accesses, a huge cold range the
/// rest — the regime real blocked/recursive schedules produce (hot tile
/// plus streaming traffic), with far-apart addresses that only reach the
/// dense core through `densify`.
fn skewed_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..50, 0u64..1_000_000_000, proptest::bool::ANY).prop_map(
            |(sel, raw, write)| match sel {
                0 => Op::Flush,
                1..=39 => Op::Access(Access {
                    addr: raw % 6,
                    write,
                }),
                _ => Op::Access(Access { addr: raw, write }),
            },
        ),
        0..len,
    )
}

fn accesses_only(ops: &[Op]) -> Vec<Access> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Access(a) => Some(*a),
            Op::Flush => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tentpole exactness: CacheStats AND EvictionStats identical between
    /// the optimized core and the naive model, both policies, uniform
    /// addresses, capacities 1..64.
    #[test]
    fn online_core_matches_reference_uniform(ops in uniform_ops(96, 400), cap in 1usize..64) {
        for policy in [Policy::Lru, Policy::Fifo] {
            let (rs, re) = reference::replay_reference(&ops, cap, policy);
            let (ps, pe) = reference::replay_production(&ops, cap, policy);
            prop_assert_eq!(rs, ps, "CacheStats diverge: cap={} {:?}", cap, policy);
            prop_assert_eq!(re, pe, "EvictionStats diverge: cap={} {:?}", cap, policy);
        }
    }

    /// Same, under the skewed hot/cold distribution.
    #[test]
    fn online_core_matches_reference_skewed(ops in skewed_ops(400), cap in 1usize..64) {
        for policy in [Policy::Lru, Policy::Fifo] {
            let (rs, re) = reference::replay_reference(&ops, cap, policy);
            let (ps, pe) = reference::replay_production(&ops, cap, policy);
            prop_assert_eq!(rs, ps, "CacheStats diverge: cap={} {:?}", cap, policy);
            prop_assert_eq!(re, pe, "EvictionStats diverge: cap={} {:?}", cap, policy);
        }
    }

    /// The bucket-pointer OPT equals the BTreeSet oracle exactly.
    #[test]
    fn opt_matches_reference(ops in uniform_ops(48, 400), cap in 1usize..64) {
        let trace = accesses_only(&ops);
        prop_assert_eq!(
            opt_stats(&trace, cap),
            reference::opt_stats_reference(&trace, cap),
            "cap={}", cap
        );
    }

    /// And under skew (far-apart addresses, densified).
    #[test]
    fn opt_matches_reference_skewed(ops in skewed_ops(400), cap in 1usize..64) {
        let trace = accesses_only(&ops);
        prop_assert_eq!(
            opt_stats(&trace, cap),
            reference::opt_stats_reference(&trace, cap),
            "cap={}", cap
        );
    }

    /// OPT dominance: opt ≤ every online policy's I/O, any trace/capacity.
    #[test]
    fn opt_floors_online_policies(ops in uniform_ops(48, 400), cap in 1usize..64) {
        let trace = accesses_only(&ops);
        let opt = opt_stats(&trace, cap);
        for policy in [Policy::Lru, Policy::Fifo] {
            let online = replay(&trace, cap, policy);
            prop_assert!(
                opt.io() <= online.io(),
                "cap={} {:?}: OPT {} > online {}",
                cap, policy, opt.io(), online.io()
            );
        }
    }

    /// OPT is monotone non-increasing in capacity.
    #[test]
    fn opt_monotone_in_capacity(ops in uniform_ops(48, 300), cap in 1usize..32, bump in 1usize..32) {
        let trace = accesses_only(&ops);
        let small = opt_stats(&trace, cap);
        let big = opt_stats(&trace, cap + bump);
        prop_assert!(
            big.io() <= small.io(),
            "capacity {} io {} vs capacity {} io {}",
            cap, small.io(), cap + bump, big.io()
        );
    }
}

/// Deterministic long-trace differential run at realistic length. The
/// naive reference is O(capacity) per access, so this is release-only
/// (the `test-release` CI job runs ignored tests; `cargo test` in debug
/// skips it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "reference model too slow in debug; run with --release"
)]
fn long_trace_differential() {
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut step = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let mut ops = Vec::with_capacity(300_000);
    for _ in 0..300_000 {
        let r = step();
        let addr = if r % 10 < 7 {
            (r >> 32) % 700 // hot region around the capacity
        } else {
            (r >> 24) % 5_000_000 // cold streaming traffic
        };
        if r % 997 == 0 {
            ops.push(Op::Flush);
        } else {
            ops.push(Op::Access(Access {
                addr,
                write: r % 3 == 0,
            }));
        }
    }
    for cap in [1usize, 2, 63, 512] {
        for policy in [Policy::Lru, Policy::Fifo] {
            let (rs, re) = reference::replay_reference(&ops, cap, policy);
            let (ps, pe) = reference::replay_production(&ops, cap, policy);
            assert_eq!(rs, ps, "CacheStats diverge: cap={cap} {policy:?}");
            assert_eq!(re, pe, "EvictionStats diverge: cap={cap} {policy:?}");
        }
        let trace = accesses_only(&ops);
        assert_eq!(
            opt_stats(&trace, cap),
            reference::opt_stats_reference(&trace, cap),
            "OPT diverges: cap={cap}"
        );
    }
}

/// A sink that keeps the whole access stream.
struct Collect(Vec<Access>);

impl TraceSink for Collect {
    fn consume(&mut self, chunk: &[Access]) {
        self.0.extend_from_slice(chunk);
    }
}

/// Every event of an instrumented run fires at its own access index:
/// trace chunks every 4096 accesses, cancellation polls every 1024 and a
/// wipe every `k`. A wiped `simulate` run under a live scoped token must
/// equal the same run observed through a trace sink, and the reference
/// model replaying that trace with a flush after every `k`-th access.
/// The periods sit on and around the chunk and poll strides.
#[test]
fn injected_wipes_match_reference_under_sink_and_live_token() {
    use fmm_faults::{cancel, CancelToken};
    let (n, m, seed) = (16, 48, seq::DEFAULT_WORKLOAD_SEED);
    let tile = seq::natural_tile(m);
    let alg = fmm_core::catalog::strassen();
    let token = CancelToken::new();
    let _scope = cancel::enter(&token);
    for (policy, replacement) in [
        (Policy::Lru, Replacement::Lru),
        (Policy::Fifo, Replacement::Fifo),
    ] {
        for k in [1u64, 7, 1023, 1024, 4095, 4096, 4097] {
            let sim = seq::simulate(Some(&alg), n, m, tile, replacement, seed, Some(k));

            let sink = Rc::new(RefCell::new(Collect(Vec::new())));
            let mut mem = Mem::new(m, policy);
            mem.inject_flush_every(k);
            mem.attach_sink(Box::new(sink.clone()));
            let mut rng = StdRng::seed_from_u64(seed);
            let a = mem.alloc_from(&Matrix::<f64>::random_small(n, n, &mut rng));
            let b = mem.alloc_from(&Matrix::<f64>::random_small(n, n, &mut rng));
            let _ = seq::fast_recursive(&mut mem, &alg, &a, &b, tile);
            mem.detach_sink();
            let flushes = mem.fault_flushes();
            let observed = mem.finish();
            let trace = std::mem::take(&mut sink.borrow_mut().0);
            assert!(
                trace.len() > 2 * 4097,
                "the run must span several chunks and wipes"
            );
            assert_eq!(observed, sim.stats, "k={k} {policy:?}: observed run");
            assert_eq!(flushes, sim.flushes, "k={k} {policy:?}: wipes fired");
            assert_eq!(sim.flushes, trace.len() as u64 / k, "k={k} {policy:?}");

            let mut ops = Vec::with_capacity(trace.len() + trace.len() / k as usize);
            for (i, access) in trace.iter().enumerate() {
                ops.push(Op::Access(*access));
                if (i as u64 + 1).is_multiple_of(k) {
                    ops.push(Op::Flush);
                }
            }
            let (expected, _) = reference::replay_reference(&ops, m, policy);
            assert_eq!(sim.stats, expected, "k={k} {policy:?}: reference");
        }
    }
}
