//! Quick perf smoke: naive reference vs the packed tile kernel vs
//! Strassen at a few cutoffs, n = 512 f64 (the acceptance grid cell).
//!
//! ```text
//! cargo run --release -p fmm-kernel --example perf_check
//! ```

use fmm_kernel::{multiply, Alg, KernelCfg};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let a = Matrix::<f64>::random_small(512, 512, &mut rng);
    let b = Matrix::<f64>::random_small(512, 512, &mut rng);
    let t = Instant::now();
    let reference = multiply_naive(&a, &b);
    let naive = t.elapsed();
    println!("naive                {naive:?}");
    let t = Instant::now();
    let cfg = |alg, cutoff| KernelCfg {
        alg,
        cutoff,
        threads: 1,
    };
    let c = multiply(&cfg(Alg::Classical, 1), &a, &b);
    println!("classical tiled      {:?}", t.elapsed());
    assert_eq!(c, reference);
    for cutoff in [32, 64, 128, 256] {
        let t = Instant::now();
        let c = multiply(&cfg(Alg::Strassen, cutoff), &a, &b);
        let dt = t.elapsed();
        println!(
            "strassen c{cutoff:<4}       {dt:?}  ({:.2}x naive)",
            naive.as_secs_f64() / dt.as_secs_f64()
        );
        assert_eq!(c, reference);
    }
}
