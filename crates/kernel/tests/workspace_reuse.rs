//! One `Workspace` serving a mixed run of multiplies, as a serve worker's
//! does: algorithms, orders (powers of two or not), cutoffs and thread
//! counts change from step to step, and some steps are cancelled part-way,
//! which leaves the workspace's buffers half written. Whatever ran before,
//! every multiply that completes must equal a fresh
//! `fmm_kernel::multiply` of the same operands bit for bit in `i64`.
//!
//! A cancel fires from another thread after a drawn delay, so which steps
//! complete varies from run to run (about a quarter are cancelled); the
//! property holds for every split.

use fmm_faults::cancel;
use fmm_kernel::{multiply, Alg, KernelCfg, Workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const ALGS: [Alg; 3] = [Alg::Classical, Alg::Strassen, Alg::Winograd];
const CUTOFFS: [usize; 4] = [2, 4, 8, 16];

#[derive(Clone, Debug)]
struct Step {
    cfg: KernelCfg,
    n: usize,
    /// Operand seed, for `Matrix::refill_random_small`.
    seed: u64,
    /// Cancel the step's token this long after the multiply starts.
    cancel_after: Option<Duration>,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0usize..ALGS.len(),
        1usize..=48,
        0usize..CUTOFFS.len(),
        1usize..=3,
        0u64..1_000,
        // A third of the steps are cancelled, after 0–400 µs.
        0u64..1_200,
    )
        .prop_map(|(alg, n, cutoff, threads, seed, cancel)| Step {
            cfg: KernelCfg {
                alg: ALGS[alg],
                cutoff: CUTOFFS[cutoff],
                threads,
            },
            n,
            seed,
            cancel_after: (cancel < 400).then(|| Duration::from_micros(cancel)),
        })
}

/// Run `step` in `ws`; `true` when it completed rather than being
/// cancelled.
fn run(ws: &mut Workspace<i64>, step: &Step) -> bool {
    let mut rng = StdRng::seed_from_u64(step.seed);
    ws.a.refill_random_small(step.n, step.n, &mut rng);
    ws.b.refill_random_small(step.n, step.n, &mut rng);
    let token = cancel::CancelToken::new();
    let _scope = cancel::enter(&token);
    let canceller = step.cancel_after.map(|after| {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(after);
            token.cancel();
        })
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| ws.multiply(&step.cfg)));
    if let Some(handle) = canceller {
        handle.join().expect("canceller thread");
    }
    match outcome {
        Ok(_) => true,
        Err(payload) => {
            assert!(
                cancel::cancelled_reason(payload.as_ref()).is_some(),
                "{step:?}: the multiply panicked with something other than the Cancelled sentinel"
            );
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_completed_multiply_in_a_reused_workspace_equals_a_fresh_one(
        steps in proptest::collection::vec(step(), 1..12)
    ) {
        let _quiet = cancel::quiet_panics();
        let mut ws = Workspace::<i64>::default();
        for (i, step) in steps.iter().enumerate() {
            if !run(&mut ws, step) {
                continue;
            }
            let fresh = multiply(&step.cfg, &ws.a, &ws.b);
            prop_assert!(
                ws.product() == fresh.as_slice(),
                "step {i} of {steps:?}: workspace product differs from a fresh multiply"
            );
        }
    }
}
