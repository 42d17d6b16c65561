//! Benches for the extension machinery: general/rectangular algorithms,
//! CDAG expansion, the segment audit, the offline-optimal replacement
//! post-processor, and the threaded distributed executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fmm_bench::bench_matrix;
use fmm_cdag::expansion::subproblem_cones;
use fmm_cdag::RecursiveCdag;
use fmm_core::catalog;
use fmm_core::rectangular::{multiply_rect, rect_catalog};
use fmm_faults::FaultSpec;
use fmm_memsim::cache::Policy;
use fmm_memsim::par_threads::cannon_threaded_faulty;
use fmm_memsim::seq;
use fmm_memsim::trace::opt_stats;
use fmm_pebbling::players::{belady_schedule, creation_order};
use fmm_pebbling::segments::theorem_audit;
use std::hint::black_box;

fn rectangular_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("rectangular");
    let s2 = rect_catalog::strassen_squared();
    for depth in [1usize, 2] {
        let n = 4usize.pow(depth as u32);
        let a = bench_matrix(n, 70);
        let b = bench_matrix(n, 71);
        group.bench_with_input(
            BenchmarkId::new("strassen_squared", n),
            &depth,
            |bch, &d| bch.iter(|| black_box(multiply_rect(&s2, &a, &b, d))),
        );
    }
    group.finish();
}

fn tensor_construction(c: &mut Criterion) {
    c.bench_function("tensor_strassen_squared", |bch| {
        bch.iter(|| black_box(rect_catalog::strassen_squared().t()))
    });
}

fn sparsification_search(c: &mut Criterion) {
    // The Karstadt–Schwartz rediscovery: exhaustive unimodular search.
    c.bench_function("ks_sparsify", |bch| {
        bch.iter(|| black_box(fmm_core::altbasis::karstadt_schwartz().core_additions()))
    });
}

fn expansion_cones(c: &mut Criterion) {
    let h = RecursiveCdag::build(&catalog::strassen().to_base(), 8);
    c.bench_function("subproblem_cones_h8_r2", |bch| {
        bch.iter(|| black_box(subproblem_cones(&h, 1).len()))
    });
}

fn segment_audit(c: &mut Criterion) {
    let h = RecursiveCdag::build(&catalog::strassen().to_base(), 8);
    let subs: Vec<_> = (0..h.sub_outputs.len())
        .map(|j| h.sub_output_vertices(j))
        .collect();
    let moves = belady_schedule(&h.graph, &creation_order(&h.graph), 16);
    c.bench_function("theorem_audit_h8", |bch| {
        bch.iter(|| black_box(theorem_audit(&h.graph, &moves, &subs, 16).2.len()))
    });
}

fn opt_replay(c: &mut Criterion) {
    let (_, trace) = seq::measure_traced(32, 96, Policy::Lru, |mem, a, b| {
        seq::classical_blocked(mem, a, b, seq::natural_tile(96))
    });
    c.bench_function("opt_stats_blocked32", |bch| {
        bch.iter(|| black_box(opt_stats(&trace, 96).io()))
    });
}

fn threaded_cannon(c: &mut Criterion) {
    let mut group = c.benchmark_group("cannon_threaded");
    group.sample_size(20);
    let a = bench_matrix(32, 72);
    let b = bench_matrix(32, 73);
    let plan = FaultSpec::default().plan();
    for p in [2usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(p * p), &p, |bch, &p| {
            bch.iter(|| {
                let run = cannon_threaded_faulty(&a, &b, p, &plan).expect("inert plan");
                black_box(run.total_words)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    rectangular_execution,
    tensor_construction,
    sparsification_search,
    expansion_cones,
    segment_audit,
    opt_replay,
    threaded_cannon
);
criterion_main!(benches);
