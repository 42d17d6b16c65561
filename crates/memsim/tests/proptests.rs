//! Property tests for the memory simulators: the online cache against a
//! naive reference model, OPT as a universal floor, and structural
//! invariants of the distributed runs.

use fmm_memsim::cache::{Cache, Policy};
use fmm_memsim::reference::{self, Op};
use fmm_memsim::trace::{opt_stats, replay, Access};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (0u64..24, proptest::bool::ANY).prop_map(|(addr, write)| Access { addr, write }),
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn production_lru_matches_reference(trace in trace_strategy(), cap in 1usize..12) {
        let mut cache = Cache::new(cap, Policy::Lru);
        for a in &trace {
            if a.write {
                cache.write(a.addr);
            } else {
                cache.read(a.addr);
            }
        }
        cache.flush();
        let ops: Vec<Op> = trace.iter().map(|&a| Op::Access(a)).collect();
        let (ref_stats, ref_evict) = reference::replay_reference(&ops, cap, Policy::Lru);
        prop_assert_eq!(cache.stats(), ref_stats);
        prop_assert_eq!(cache.eviction_stats(), ref_evict);
    }

    #[test]
    fn opt_floors_every_online_policy(trace in trace_strategy(), cap in 1usize..12) {
        let opt = opt_stats(&trace, cap);
        for policy in [Policy::Lru, Policy::Fifo] {
            let online = replay(&trace, cap, policy);
            prop_assert!(
                opt.io() <= online.io(),
                "cap={cap} policy={policy:?}: OPT {} > online {}",
                opt.io(),
                online.io()
            );
        }
    }

    #[test]
    fn bigger_cache_never_more_opt_io(trace in trace_strategy(), cap in 1usize..8) {
        // OPT is monotone in capacity (stack property analogue).
        let small = opt_stats(&trace, cap);
        let big = opt_stats(&trace, cap + 4);
        prop_assert!(big.io() <= small.io());
    }

    #[test]
    fn stats_internally_consistent(trace in trace_strategy(), cap in 1usize..12) {
        let s = replay(&trace, cap, Policy::Lru);
        prop_assert_eq!(s.accesses as usize, trace.len());
        prop_assert!(s.hits <= s.accesses);
        // Every load corresponds to a read miss: loads ≤ reads in trace.
        let reads = trace.iter().filter(|a| !a.write).count() as u64;
        prop_assert!(s.loads <= reads);
        // Stores never exceed distinct dirty addresses × evictions bound.
        let writes = trace.iter().filter(|a| a.write).count() as u64;
        prop_assert!(s.stores <= writes);
    }
}
