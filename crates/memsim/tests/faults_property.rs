//! Property tests for the fault-injection layer: for *any* seeded fault
//! plan the retry budget can survive, the faulty runs must be undetectable
//! in the answer and fully accounted in the counters.
//!
//! The round-based engines ([`fmm_memsim::par_faults`]) run Cannon, 3D
//! and CAPS under random crash/drop/dup plans with both recovery
//! strategies: each run returns the fault-free product, and
//! `total_words − recovery_words` equals the fault-free volume. That the
//! counters are a pure function of the plan is `par_faults`' own unit
//! tests (`random_fault_runs_are_seed_deterministic`,
//! `caps_seeded_faults_are_deterministic`).
//!
//! The fault-free volume each run is held to is the schedule's exact
//! closed form from `common`, not another run of the simulator.

mod common;

use common::{cannon_messages, caps_words, three_d_messages};
use fmm_core::catalog;
use fmm_faults::{FaultSpec, Recovery};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::Matrix;
use fmm_memsim::par_faults;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn inputs(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<i64>::random_small(n, n, &mut rng);
    let b = Matrix::<i64>::random_small(n, n, &mut rng);
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-based Cannon under random crashes + losses recovers exactly
    /// with both strategies, and the recovery words are exactly the
    /// surplus over the fault-free volume.
    #[test]
    fn roundbased_faulty_recovers_under_both_strategies(
        seed in 0u64..1000,
        p in 2usize..=4,
        period in 1usize..=3,
    ) {
        let n = 12;
        let (a, b) = inputs(n, 7);
        let expect = multiply_naive(&a, &b);
        let clean_words = cannon_messages(p as u64) * ((n / p) * (n / p)) as u64;
        let spec = format!("seed={seed},crash=0.15,drop=0.1,dup=0.05,retries=8");
        for recovery in [Recovery::Recompute, Recovery::Checkpoint { period }] {
            let plan = FaultSpec::parse(&spec).unwrap().plan();
            let run = par_faults::cannon_faulty(&a, &b, p, &plan, recovery).unwrap();
            prop_assert_eq!(&run.product, &expect);
            prop_assert_eq!(run.net.total_words - run.net.recovery_words, clean_words);
        }
    }

    /// The 3D schedule under random crashes in all three phases plus
    /// relay/reduction losses: exact product, and the non-recovery words
    /// equal the fault-free closed form.
    #[test]
    fn replicated_3d_faulty_recovers_under_both_strategies(
        seed in 0u64..1000,
        p in 1usize..=3,
        period in 1usize..=3,
        workload in 0u64..100,
    ) {
        let n = 6; // divisible by every grid side in range
        let (a, b) = inputs(n, workload);
        let expect = multiply_naive(&a, &b);
        let clean_words = three_d_messages(p as u64) * ((n / p) * (n / p)) as u64;
        let spec = format!("seed={seed},crash=0.15,drop=0.1,dup=0.05,retries=8");
        for recovery in [Recovery::Recompute, Recovery::Checkpoint { period }] {
            let plan = FaultSpec::parse(&spec).unwrap().plan();
            let run = par_faults::replicated_3d_faulty(&a, &b, p, &plan, recovery).unwrap();
            prop_assert_eq!(&run.product, &expect);
            prop_assert_eq!(run.net.total_words - run.net.recovery_words, clean_words);
        }
    }

    /// CAPS-Strassen under random share losses and post-delivery crashes
    /// at every BFS level: exact product, and the non-recovery words equal
    /// the fault-free closed form.
    #[test]
    fn caps_faulty_recovers_under_both_strategies(
        seed in 0u64..1000,
        levels in 1usize..=2,
        period in 1usize..=2,
        workload in 0u64..100,
    ) {
        let alg = catalog::strassen();
        let n = 8;
        let (a, b) = inputs(n, workload);
        let expect = multiply_naive(&a, &b);
        let spec = format!("seed={seed},crash=0.15,drop=0.1,dup=0.05,retries=8");
        for recovery in [Recovery::Recompute, Recovery::Checkpoint { period }] {
            let plan = FaultSpec::parse(&spec).unwrap().plan();
            let run =
                par_faults::caps_strassen_faulty(&alg, &a, &b, levels, &plan, recovery).unwrap();
            prop_assert_eq!(&run.product, &expect);
            prop_assert_eq!(
                run.net.total_words - run.net.recovery_words,
                caps_words(n as u64, levels as u32)
            );
        }
    }
}
