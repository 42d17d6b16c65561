//! Every distributed schedule's word and message counts, pinned to the
//! exact closed forms in `common` over a grid of sizes. The fault-free
//! entry points and the fault engines under an inert plan must both hit
//! them exactly, so a change to either one that moves a single word fails
//! here.

mod common;

use common::{cannon_messages, caps_words, three_d_messages};
use fmm_core::catalog;
use fmm_faults::{FaultSpec, Recovery};
use fmm_matrix::Matrix;
use fmm_memsim::par::NetStats;
use fmm_memsim::{par, par_faults};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn inputs(n: usize) -> (Matrix<i64>, Matrix<i64>) {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let a = Matrix::<i64>::random_small(n, n, &mut rng);
    let b = Matrix::<i64>::random_small(n, n, &mut rng);
    (a, b)
}

fn assert_counts(what: &str, net: &NetStats, words: u64, messages: u64) {
    assert_eq!(net.total_words, words, "{what}: total_words");
    assert_eq!(net.messages, messages, "{what}: messages");
    assert_eq!(net.recovery_words, 0, "{what}: recovery_words");
    assert_eq!(
        net.per_proc.iter().sum::<u64>(),
        2 * words,
        "{what}: every message is charged to both ends"
    );
}

#[test]
fn cannon_words_match_closed_form() {
    let plan = FaultSpec::default().plan();
    for p in 1..=5usize {
        for k in 1..=3usize {
            let n = p * k;
            let (a, b) = inputs(n);
            let bs2 = (k * k) as u64;
            let msgs = cannon_messages(p as u64);
            let what = format!("cannon n={n} p={p}");
            assert_counts(&what, &par::cannon(&a, &b, p).1, msgs * bs2, msgs);
            let run = par_faults::cannon_faulty(&a, &b, p, &plan, Recovery::None).unwrap();
            assert_counts(&what, &run.net, msgs * bs2, msgs);
        }
    }
}

#[test]
fn replicated_3d_words_match_closed_form() {
    let plan = FaultSpec::default().plan();
    for p in 1..=4usize {
        for k in 1..=3usize {
            let n = p * k;
            let (a, b) = inputs(n);
            let bs2 = (k * k) as u64;
            let msgs = three_d_messages(p as u64);
            let what = format!("3d n={n} p={p}");
            assert_counts(&what, &par::replicated_3d(&a, &b, p).1, msgs * bs2, msgs);
            let run = par_faults::replicated_3d_faulty(&a, &b, p, &plan, Recovery::None).unwrap();
            assert_counts(&what, &run.net, msgs * bs2, msgs);
        }
    }
}

#[test]
fn caps_words_match_closed_form() {
    let alg = catalog::strassen();
    let plan = FaultSpec::default().plan();
    for n in [1usize, 2, 4, 8, 16, 32] {
        for levels in 0..=(n.trailing_zeros() as usize).min(3) {
            let (a, b) = inputs(n);
            let words = caps_words(n as u64, levels as u32);
            let what = format!("caps n={n} levels={levels}");
            let (_, net) = par::caps_strassen(&alg, &a, &b, levels);
            assert_eq!(net.total_words, words, "{what}");
            assert_eq!(
                net.messages, 0,
                "{what}: CAPS charges, it sends no messages"
            );
            let run = par_faults::caps_strassen_faulty(&alg, &a, &b, levels, &plan, Recovery::None)
                .unwrap();
            assert_eq!(run.net.total_words, words, "{what}");
            assert_eq!(run.net.messages, 0, "{what}");
            assert_eq!(run.net.per_proc.iter().sum::<u64>(), words, "{what}");
        }
    }
}

#[test]
fn closed_forms_reproduce_the_cli_figures() {
    // `fastmm faults` prints these fault-free totals for its defaults.
    assert_eq!(cannon_messages(4) * 16, 1920); // n=16, p=4
    assert_eq!(cannon_messages(3) * 16, 768); // n=12, p=3
    assert_eq!(three_d_messages(2) * 64, 1024); // n=16, p=2
    assert_eq!(three_d_messages(3) * 16, 1056); // n=12, p=3
    assert_eq!(caps_words(16, 2), 2450);
    assert_eq!(caps_words(32, 1), 3584);
}
