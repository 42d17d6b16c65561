//! X3 / Table I support: wall-clock of the multiplication kernels —
//! classical (naive, ikj, and `fmm-kernel`'s tiled path on one and four
//! threads) and fast (Strassen, Winograd, Karstadt–Schwartz) across sizes
//! and cutoffs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fmm_bench::bench_matrix_f64;
use fmm_core::altbasis::{karstadt_schwartz, multiply_alt_counted};
use fmm_core::{catalog, exec};
use fmm_matrix::multiply;
use std::hint::black_box;

fn classical_kernels(c: &mut Criterion) {
    let tiled = |threads| fmm_kernel::KernelCfg {
        alg: fmm_kernel::Alg::Classical,
        cutoff: 1,
        threads,
    };
    let mut group = c.benchmark_group("classical");
    for n in [64usize, 128, 256] {
        let a = bench_matrix_f64(n, 1);
        let b = bench_matrix_f64(n, 2);
        if n <= 128 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
                bch.iter(|| black_box(multiply::multiply_naive(&a, &b)))
            });
        }
        group.bench_with_input(BenchmarkId::new("ikj", n), &n, |bch, _| {
            bch.iter(|| black_box(multiply::multiply_ikj(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("tiled", n), &n, |bch, _| {
            bch.iter(|| black_box(fmm_kernel::multiply(&tiled(1), &a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("tiled_mt4", n), &n, |bch, _| {
            bch.iter(|| black_box(fmm_kernel::multiply(&tiled(4), &a, &b)))
        });
    }
    group.finish();
}

fn fast_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast");
    let strassen = catalog::strassen();
    let winograd = catalog::winograd();
    let ks = karstadt_schwartz();
    for n in [64usize, 128, 256] {
        let a = bench_matrix_f64(n, 3);
        let b = bench_matrix_f64(n, 4);
        group.bench_with_input(BenchmarkId::new("strassen_c16", n), &n, |bch, _| {
            bch.iter(|| black_box(exec::multiply_fast(&strassen, &a, &b, 16)))
        });
        group.bench_with_input(BenchmarkId::new("winograd_c16", n), &n, |bch, _| {
            bch.iter(|| black_box(exec::multiply_fast(&winograd, &a, &b, 16)))
        });
        let levels = (n.trailing_zeros() as usize).saturating_sub(4);
        group.bench_with_input(BenchmarkId::new("ks_altbasis_c16", n), &n, |bch, _| {
            bch.iter(|| black_box(multiply_alt_counted(&ks, &a, &b, levels).0))
        });
    }
    group.finish();
}

fn cutoff_ablation(c: &mut Criterion) {
    // Ablation: recursion cutoff of the fast algorithms.
    let mut group = c.benchmark_group("cutoff_ablation");
    let alg = catalog::winograd();
    let n = 256;
    let a = bench_matrix_f64(n, 5);
    let b = bench_matrix_f64(n, 6);
    for cutoff in [8usize, 16, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(cutoff), &cutoff, |bch, &co| {
            bch.iter(|| black_box(exec::multiply_fast(&alg, &a, &b, co)))
        });
    }
    group.finish();
}

criterion_group!(benches, classical_kernels, fast_kernels, cutoff_ablation);
criterion_main!(benches);
