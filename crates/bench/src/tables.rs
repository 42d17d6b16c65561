//! The paper's evaluation artifacts as aligned text tables, one section
//! per [`SECTIONS`] entry; `fastmm tables --all` prints them all.
//!
//! ```text
//! cargo run --release --bin fastmm -- tables --all
//! ```
//!
//! Sections (each also selectable individually):
//!
//! * `--table1` — Table I, sequential rows: lower bound vs schedule model
//!   vs trace-simulated measurement, per algorithm.
//! * `--parallel` — Table I, parallel rows: measured per-processor
//!   communication of Cannon / 3D / CAPS against the memory-dependent and
//!   memory-independent bounds.
//! * `--fig1` — Figure 1: census of the generated base-case CDAGs
//!   (+ DOT files under `target/figures/`).
//! * `--fig2` — Figure 2: the encoder graphs and the Lemma 3.1/3.2/3.3
//!   battery on them.
//! * `--fig3` — Figure 3: Lemma 3.11 disjoint-path counts on H^{4×4}
//!   (Strassen in detail, then every fast algorithm), Lemma 3.7 and the
//!   Lemma 3.8 Grigoriev flow.
//! * `--recompute` — the recomputation study: exact optimal pebbling with
//!   and without recomputation; store-reload vs recompute players on
//!   matmul CDAGs; write-heavy cost model.
//! * `--flops` — the §I leading-coefficient story (7 → 6 → 5), measured.
//! * `--fft` — the FFT contrast row; `--policies` — LRU/FIFO/OPT ablation;
//!   `--segments` — the Lemma 3.6 segment audit, with each Belady
//!   schedule's total I/O against the bound and the recomputing
//!   schedule segment by segment.

use crate::{bench_matrix, eng};
use fmm_cdag::census::census;
use fmm_cdag::dot::to_dot;
use fmm_cdag::RecursiveCdag;
use fmm_core::altbasis::{karstadt_schwartz, multiply_alt_counted};
use fmm_core::exec::multiply_fast_counted;
use fmm_core::{bounds, catalog, grigoriev, lemmas};
use fmm_memsim::{model, par};
use fmm_pebbling::families;
use fmm_pebbling::game::{run_schedule, CostModel};
use fmm_pebbling::optimal::{optimal_pebbling, recompute_gap};
use fmm_pebbling::players::{belady_schedule, creation_order, demand_schedule, EvictionMode};
use fmm_sweep::{run_collect, AlgKind, PolicyKind, RunConfig, RunMode, SweepSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hr(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

fn table1_sequential() {
    hr("Table I — sequential I/O: bound vs schedule vs measurement");
    println!(
        "{:<12} {:>6} {:>7} {:>12} {:>12} {:>12} {:>7}",
        "algorithm", "n", "M", "lower-bound", "schedule", "measured", "ratio"
    );
    // The measured column runs through the sweep engine: one ad-hoc grid
    // per (n, M) point covering all four families, executed on the worker
    // pool and collected in memory.
    let algs = [
        (AlgKind::Classical, "classical"),
        (AlgKind::Strassen, "strassen"),
        (AlgKind::Winograd, "winograd"),
        (AlgKind::Ks, "ks-altbasis"),
    ];
    let pairs = [(32usize, 96usize), (64, 192), (64, 768)];
    let cfg = RunConfig::default();
    let mut measured = std::collections::BTreeMap::new();
    for (n, m) in pairs {
        let spec = SweepSpec {
            name: format!("table1-seq-n{n}-m{m}"),
            algs: algs.iter().map(|&(a, _)| a).collect(),
            ns: vec![n],
            ms: vec![m],
            ps: vec![1],
            policies: vec![PolicyKind::Lru],
            modes: vec![RunMode::Cache],
            reps: 1,
        };
        for rec in run_collect(&spec, &cfg) {
            if let Some(meas) = rec.measurement() {
                measured.insert((rec.cell.alg, n, m), meas.io as f64);
            }
        }
    }
    for (alg, name) in algs {
        for (n, m) in pairs {
            let lb = bounds::sequential(n, m, alg.omega());
            let schedule = match alg {
                AlgKind::Classical => model::blocked_classical_io(n, m),
                AlgKind::Strassen => model::recursive_fast_io(n, m, 7, 18),
                AlgKind::Winograd => model::recursive_fast_io(n, m, 7, 15),
                AlgKind::Ks => model::recursive_fast_io(n, m, 7, 12),
            };
            let measured = measured[&(alg, n, m)];
            println!(
                "{name:<12} {n:>6} {m:>7} {:>12} {:>12} {:>12} {:>7.2}",
                eng(lb),
                eng(schedule),
                eng(measured),
                measured / lb
            );
        }
    }
    println!("\nLarge-n schedule-model sweep (measured column impractical at these sizes):");
    println!(
        "{:<12} {:>9} {:>7} {:>12} {:>12} {:>7}",
        "algorithm", "n", "M", "lower-bound", "schedule", "ratio"
    );
    for (name, omega, adds) in [
        ("classical", bounds::OMEGA_CLASSICAL, 0u64),
        ("strassen", bounds::OMEGA_FAST, 18),
        ("winograd", bounds::OMEGA_FAST, 15),
        ("ks-altbasis", bounds::OMEGA_FAST, 12),
    ] {
        for (n, m) in [
            (1usize << 14, 1usize << 10),
            (1 << 17, 1 << 10),
            (1 << 17, 1 << 14),
        ] {
            let lb = bounds::sequential(n, m, omega);
            let schedule = if name == "classical" {
                model::blocked_classical_io(n, m)
            } else {
                model::recursive_fast_io(n, m, 7, adds)
            };
            println!(
                "{name:<12} {n:>9} {m:>7} {:>12} {:>12} {:>7.2}",
                eng(lb),
                eng(schedule),
                schedule / lb
            );
        }
    }
}

fn table1_parallel() {
    hr("Table I — parallel: measured per-proc words vs both bounds");
    println!(
        "{:<10} {:>6} {:>6} {:>12} {:>12} {:>12}",
        "schedule", "n", "P", "measured", "bound-MI", "bound-MD(M=n²/P)"
    );
    let n = 64;
    let a = bench_matrix(n, 1);
    let b = bench_matrix(n, 2);
    for p in [2usize, 4, 8] {
        let (_, net) = par::cannon(&a, &b, p);
        let procs = p * p;
        let mi = bounds::parallel_memory_independent(n, procs, bounds::OMEGA_CLASSICAL);
        let m = (n * n / procs).max(1);
        let md = bounds::parallel_memory_dependent(n, m, procs, bounds::OMEGA_CLASSICAL);
        println!(
            "{:<10} {n:>6} {procs:>6} {:>12} {:>12} {:>12}",
            "cannon-2d",
            eng(net.max_per_proc() as f64),
            eng(mi),
            eng(md)
        );
    }
    for p in [2usize, 4] {
        let (_, net) = par::replicated_3d(&a, &b, p);
        let procs = p * p * p;
        let mi = bounds::parallel_memory_independent(n, procs, bounds::OMEGA_CLASSICAL);
        println!(
            "{:<10} {n:>6} {procs:>6} {:>12} {:>12} {:>12}",
            "3d",
            eng(net.max_per_proc() as f64),
            eng(mi),
            "-"
        );
    }
    let alg = catalog::strassen();
    for levels in [1usize, 2, 3] {
        let (_, net) = par::caps_strassen(&alg, &a, &b, levels);
        let procs = 7usize.pow(levels as u32);
        let mi = bounds::parallel_memory_independent(n, procs, bounds::OMEGA_FAST);
        println!(
            "{:<10} {n:>6} {procs:>6} {:>12} {:>12} {:>12}",
            "caps",
            eng(net.max_per_proc() as f64),
            eng(mi),
            "-"
        );
    }
    println!("\nCrossover cache size M* (memory-dependent ↔ independent), fast bound:");
    for (n, p) in [(1usize << 12, 64usize), (1 << 14, 343), (1 << 16, 2401)] {
        println!(
            "  n = {n:>6}, P = {p:>5}:  M* = {}",
            eng(bounds::parallel_crossover_m(n, p, bounds::OMEGA_FAST))
        );
    }
}

fn fig1() {
    hr("Figure 1 — base-case CDAGs, generated and audited");
    let outdir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(outdir).expect("create target/figures");
    println!(
        "{:<12} {:>4} {:>9} {:>7} {:>9} {:>8} {:>6}",
        "algorithm", "n", "vertices", "inputs", "internal", "outputs", "edges"
    );
    for alg in catalog::all() {
        for n in [2usize, 4] {
            let h = RecursiveCdag::build(&alg.to_base(), n);
            let c = census(&h.graph);
            println!(
                "{:<12} {n:>4} {:>9} {:>7} {:>9} {:>8} {:>6}",
                alg.name, c.vertices, c.inputs, c.internals, c.outputs, c.edges
            );
            if n == 2 {
                let path = outdir.join(format!("fig1_{}_h2.dot", alg.name));
                std::fs::write(&path, to_dot(&h.graph, &format!("{}_H2", alg.name)))
                    .expect("write DOT");
                println!("    ↳ DOT written to {}", path.display());
            }
        }
    }
}

fn fig2() {
    hr("Figure 2 — encoder graphs & the Lemma 3.1/3.2/3.3 battery");
    for alg in catalog::all_fast() {
        let base = alg.to_base();
        for (side, enc) in [
            ("A", base.encoder_bipartite_a()),
            ("B", base.encoder_bipartite_b()),
        ] {
            let l31 = lemmas::check_lemma_3_1(&enc, &alg.name);
            let l32 = lemmas::check_lemma_3_2(&enc, &alg.name);
            let l33 = lemmas::check_lemma_3_3(&enc, &alg.name);
            println!(
                "{:<10} enc-{side}: L3.1 {} ({} subsets)  L3.2 {}  L3.3 {}",
                alg.name,
                if l31.holds { "OK " } else { "FAIL" },
                l31.instances,
                if l32.holds { "OK" } else { "FAIL" },
                if l33.holds { "OK" } else { "FAIL" },
            );
        }
        let hk = lemmas::check_hopcroft_kerr_families(&alg);
        println!(
            "{:<10} Hopcroft–Kerr families: {} ({})",
            alg.name,
            if hk.holds { "OK" } else { "FAIL" },
            hk.detail
        );
    }
    println!("\nContrast: the classical 8-product encoder violates Lemma 3.3 (duplicate");
    let c = catalog::classical().to_base();
    let r = lemmas::check_lemma_3_3(&c.encoder_bipartite_a(), "classical");
    println!("supports), as expected for t > 7: holds = {}", r.holds);

    println!("\nWidening — the de Groote symmetry orbit of Strassen (each member is");
    println!("another valid 7-multiplication algorithm; Theorem 1.1 covers them all):");
    for alg in fmm_core::symmetry::orbit(&catalog::strassen()) {
        let base = alg.to_base();
        let l31 = lemmas::check_lemma_3_1(&base.encoder_bipartite_a(), &alg.name);
        println!(
            "  {:<24} L3.1 {} ({} subsets)",
            alg.name,
            if l31.holds { "OK " } else { "FAIL" },
            l31.instances
        );
    }
}

fn fig3() {
    hr("Figure 3 — Lemma 3.11 disjoint-path structure on H^{4×4}");
    let mut rng = StdRng::seed_from_u64(311);
    let alg = catalog::strassen();
    let h = RecursiveCdag::build(&alg.to_base(), 4);
    println!(
        "{:>4} {:>4} {:>22} {:>8}",
        "|Z|", "|Γ|", "bound 2r√(|Z|−2|Γ|)", "holds"
    );
    for (z, g) in [(4usize, 0usize), (4, 1), (4, 2), (3, 1), (2, 1)] {
        let rep = lemmas::check_lemma_3_11_sampled(&h, 1, z, g, 10, &mut rng, "strassen");
        let bound = (2.0 * 2.0 * ((z as f64) - 2.0 * g as f64).max(0.0).sqrt()).floor();
        println!(
            "{z:>4} {g:>4} {bound:>22} {:>8}",
            if rep.holds { "OK" } else { "FAIL" }
        );
    }
    println!("\nLemma 3.7 (min dominator ≥ |Z|/2) on sampled Z ⊆ V_out(SUB_H^{{2×2}}):");
    let rep = lemmas::check_lemma_3_7_sampled(&h, 1, 10, &mut rng, "strassen");
    println!(
        "  {} — {}",
        if rep.holds { "OK" } else { "FAIL" },
        rep.detail
    );
    println!("\nLemma 3.11 on H^{{4×4}} of every fast catalog algorithm (|Z| = 4, |Γ| = 1):");
    for alg in catalog::all_fast() {
        let h = RecursiveCdag::build(&alg.to_base(), 4);
        let rep = lemmas::check_lemma_3_11_sampled(&h, 1, 4, 1, 8, &mut rng, &alg.name);
        let verdict = if rep.holds { "OK" } else { "FAIL" };
        println!("  {:<10} {verdict} — {}", alg.name, rep.detail);
    }
    println!("\nLemma 3.8 — Grigoriev flow of f_{{n×n}}, the recomputation-proof core:");
    for n in [2usize, 4, 8] {
        println!(
            "  n = {n}: ω(2n², n²) = {:>5.1}  → any dominator of all outputs has ≥ {} vertices",
            grigoriev::flow_lower_bound(n, 2 * n * n, n * n),
            grigoriev::dominator_lower_bound(n, 2 * n * n, n * n)
        );
    }
}

fn recompute_study() {
    hr("Recomputation study (X2)");
    println!("Exact optimal pebbling, symmetric costs — I/O without vs with recompute:");
    println!(
        "{:<22} {:>4} {:>9} {:>9} {:>6}",
        "CDAG", "M", "without", "with", "gap"
    );
    let cases: Vec<(&str, fmm_cdag::Cdag, usize)> = vec![
        ("chain(6)", families::chain(6), 2),
        ("binary_tree(4)", families::binary_tree(4), 3),
        ("shared_core(2,2)", families::shared_core(2, 2), 3),
        ("shared_core_wide(2,2)", families::shared_core_wide(2, 2), 3),
        ("dp_grid(3,3)", families::dp_grid(3, 3), 4),
        (
            "H^1 (scalar mult)",
            RecursiveCdag::build(&catalog::strassen().to_base(), 1).graph,
            3,
        ),
    ];
    for (name, g, m) in &cases {
        match recompute_gap(g, *m, 3_000_000) {
            Ok((without, with)) => println!(
                "{name:<22} {m:>4} {:>9} {:>9} {:>6}",
                without.cost,
                with.cost,
                without.cost - with.cost
            ),
            Err(e) => println!("{name:<22} {m:>4} {e:?}"),
        }
    }

    println!("\nWrite-heavy cost model (ω_write = 8), exact optimal — recompute trades");
    println!("stores for loads (the §V direction):");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "CDAG", "w/o cost", "w/o stores", "w/ cost", "w/ stores"
    );
    for (name, g, m) in &cases {
        let model = CostModel::write_heavy(8);
        let a = optimal_pebbling(g, *m, false, model, 3_000_000);
        let b = optimal_pebbling(g, *m, true, model, 3_000_000);
        if let (Ok(a), Ok(b)) = (a, b) {
            println!(
                "{name:<22} {:>10} {:>10} {:>10} {:>10}",
                a.cost, a.stores, b.cost, b.stores
            );
        }
    }

    println!("\nHeuristic players on Strassen CDAGs (store-reload vs recompute):");
    println!(
        "{:<8} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "CDAG", "n", "M", "SR loads", "SR stores", "RC loads", "RC stores", "RC recomputes"
    );
    for n in [2usize, 4] {
        let h = RecursiveCdag::build(&catalog::strassen().to_base(), n);
        for m in [4usize, 8, 16] {
            let sr = demand_schedule(&h.graph, m, EvictionMode::StoreReload).expect("capacity ok");
            let rsr = run_schedule(&h.graph, &sr, m, false).expect("legal");
            match demand_schedule(&h.graph, m, EvictionMode::Recompute) {
                Ok(rc) => {
                    let rrc = run_schedule(&h.graph, &rc, m, true).expect("legal");
                    println!(
                        "H^{n:<6} {n:>4} {m:>4} {:>9} {:>9} {:>9} {:>9} {:>11}",
                        rsr.loads, rsr.stores, rrc.loads, rrc.stores, rrc.recomputes
                    );
                }
                Err(e) => println!(
                    "H^{n:<6} {n:>4} {m:>4} {:>9} {:>9}   recompute: {e}",
                    rsr.loads, rsr.stores
                ),
            }
        }
    }

    println!("\nBelady no-recompute schedules on H^n (the bound's counterpart):");
    println!("{:<6} {:>5} {:>9} {:>13}", "n", "M", "I/O", "bound");
    for n in [4usize, 8] {
        let h = RecursiveCdag::build(&catalog::strassen().to_base(), n);
        for m in [8usize, 16, 32] {
            let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
            let r = run_schedule(&h.graph, &moves, m, false).expect("legal");
            let lb = bounds::sequential(n, m, bounds::OMEGA_FAST);
            println!("{n:<6} {m:>5} {:>9} {:>13}", r.io(), eng(lb));
        }
    }
}

fn flops() {
    hr("Leading coefficients (§I): 7 → 6 → 5, measured");
    let n = 128;
    let a = bench_matrix(n, 3);
    let b = bench_matrix(n, 4);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8}",
        "algorithm", "mults", "adds", "total", "c_eff"
    );
    let nf = (n as f64).powf(bounds::OMEGA_FAST);
    for alg in [catalog::strassen(), catalog::winograd()] {
        let (_, c) = multiply_fast_counted(&alg, &a, &b, 1);
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>8.3}",
            alg.name,
            c.scalar_mults,
            c.scalar_adds,
            c.total(),
            c.total() as f64 / nf
        );
    }
    let ks = karstadt_schwartz();
    let levels = n.trailing_zeros() as usize;
    let (_, core, transform) = multiply_alt_counted(&ks, &a, &b, levels);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8.3}",
        "karstadt-schwartz",
        core.scalar_mults,
        core.scalar_adds + transform.scalar_adds,
        core.total() + transform.total(),
        (core.total() + transform.total()) as f64 / nf
    );
    println!(
        "  (KS transform share: {} ops, Θ(n² log n))",
        transform.total()
    );
    println!(
        "\nAsymptotic leading coefficients: strassen {}, winograd {}, KS core {}",
        fmm_core::exec::leading_coefficient(7, 18),
        fmm_core::exec::leading_coefficient(7, 15),
        fmm_core::exec::leading_coefficient(7, ks.core_additions() as u64),
    );
}

fn fft_row() {
    hr("Table I — FFT row (contrast workload): pebbled butterflies");
    println!("Belady no-recompute pebbling of the FFT butterfly CDAG vs the bound");
    println!("Ω(n·log n / log M):\n");
    println!(
        "{:<6} {:>4} {:>9} {:>12} {:>7}",
        "n", "M", "I/O", "bound", "ratio"
    );
    for n in [8usize, 16, 32] {
        let g = families::butterfly(n);
        for m in [4usize, 8] {
            let moves = belady_schedule(&g, &creation_order(&g), m);
            let r = run_schedule(&g, &moves, m, false).expect("legal");
            let lb = bounds::fft_memory_dependent(n, m, 1);
            println!(
                "{n:<6} {m:>4} {:>9} {:>12.1} {:>7.2}",
                r.io(),
                lb,
                r.io() as f64 / lb
            );
        }
    }
    println!("\n(The FFT bound *with recomputation* is the companion result [13] in");
    println!("Table I; this harness provides the workload and the measured side.)");
}

fn policies() {
    hr("Replacement-policy ablation: LRU vs FIFO vs offline-optimal (OPT)");
    println!("Same schedule, same trace, three policies (n = 32):\n");
    println!(
        "{:<22} {:>5} {:>9} {:>9} {:>9}",
        "schedule", "M", "LRU", "FIFO", "OPT"
    );
    // The whole ablation is one sweep grid: 2 algorithms × 2 cache sizes
    // × 3 policies, run through the engine and pivoted into the table.
    let spec = SweepSpec {
        name: "policies-ablation".into(),
        algs: vec![AlgKind::Classical, AlgKind::Strassen],
        ns: vec![32],
        ms: vec![96, 384],
        ps: vec![1],
        policies: vec![PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Opt],
        modes: vec![RunMode::Cache],
        reps: 1,
    };
    let mut io = std::collections::BTreeMap::new();
    for rec in run_collect(&spec, &RunConfig::default()) {
        if let Some(meas) = rec.measurement() {
            io.insert((rec.cell.alg, rec.cell.m, rec.cell.policy), meas.io);
        }
    }
    for m in [96usize, 384] {
        for (alg, label) in [
            (AlgKind::Classical, "classical-blocked"),
            (AlgKind::Strassen, "strassen-recursive"),
        ] {
            println!(
                "{label:<22} {m:>5} {:>9} {:>9} {:>9}",
                io[&(alg, m, PolicyKind::Lru)],
                io[&(alg, m, PolicyKind::Fifo)],
                io[&(alg, m, PolicyKind::Opt)]
            );
        }
    }
    println!("\nOPT is the floor on every row; LRU and FIFO trade places depending");
    println!("on the schedule (FIFO can beat LRU on blocked sweeps). The lower bound");
    println!("holds under every policy — it constrains the schedule, not the cache.");
}

fn segments() {
    hr("Segment audit — Lemma 3.6 watched working on real schedules");
    use fmm_pebbling::segments::theorem_audit;
    println!("Partition schedules into segments of r² first-time computations of");
    println!("V_out(SUB_H^{{r×r}}), r = 2^⌊log₂(2√M)⌋; every full segment must do at");
    println!("least r²/2 − M I/O — recomputation included.\n");
    println!(
        "{:<10} {:>3} {:>3} {:>6} {:>9} {:>11} {:>7}",
        "schedule", "n", "M", "r", "segments", "min seg I/O", "floor"
    );
    let h = fmm_cdag::RecursiveCdag::build(&catalog::strassen().to_base(), 8);
    let subs: Vec<Vec<fmm_cdag::VertexId>> = (0..h.sub_outputs.len())
        .map(|j| h.sub_output_vertices(j))
        .collect();
    let mut totals = Vec::new();
    for m in [4usize, 8, 16] {
        let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
        let stats = run_schedule(&h.graph, &moves, m, false).expect("legal");
        totals.push((m, stats.io()));
        let (r, floor, segs) = theorem_audit(&h.graph, &moves, &subs, m);
        let full: Vec<_> = segs
            .iter()
            .filter(|s| s.outputs_computed == r * r)
            .collect();
        let min_io = full.iter().map(|s| s.io()).min().unwrap_or(0);
        println!(
            "{:<10} {:>3} {m:>3} {r:>6} {:>9} {:>11} {:>7}",
            "belady",
            8,
            full.len(),
            min_io,
            floor.max(0)
        );
    }
    // A recomputing schedule through the same audit.
    let h4 = fmm_cdag::RecursiveCdag::build(&catalog::strassen().to_base(), 4);
    let subs4: Vec<Vec<fmm_cdag::VertexId>> = (0..h4.sub_outputs.len())
        .map(|j| h4.sub_output_vertices(j))
        .collect();
    let m_rc = 16;
    let (mut rc_r2, mut rc_segments) = (0, Vec::new());
    if let Ok(moves) = demand_schedule(&h4.graph, m_rc, EvictionMode::Recompute) {
        let stats = run_schedule(&h4.graph, &moves, m_rc, true).expect("legal");
        let (r, floor, segs) = theorem_audit(&h4.graph, &moves, &subs4, m_rc);
        let full: Vec<_> = segs
            .iter()
            .filter(|s| s.outputs_computed == r * r)
            .collect();
        let min_io = full.iter().map(|s| s.io()).min().unwrap_or(0);
        println!(
            "{:<10} {:>3} {m_rc:>3} {r:>6} {:>9} {:>11} {:>7}   ({} recomputations)",
            "recompute",
            4,
            full.len(),
            min_io,
            floor.max(0),
            stats.recomputes
        );
        (rc_r2, rc_segments) = (r * r, segs);
    }
    println!("\nBelady totals on H^{{8×8}} against the Theorem 1.1 bound:");
    println!("{:>3} {:>9} {:>9}", "M", "total I/O", "Ω bound");
    for (m, io) in totals {
        let lb = bounds::sequential(8, m, bounds::OMEGA_FAST);
        println!("{m:>3} {io:>9} {:>9}", eng(lb));
    }
    println!("\nThe recomputing schedule (n = 4, M = {m_rc}) segment by segment:");
    for (i, s) in rc_segments.iter().enumerate() {
        let tag = if s.outputs_computed == rc_r2 {
            "full"
        } else {
            "tail"
        };
        println!(
            "  segment {i} ({tag}): {} first-time sub-outputs, {} loads + {} stores = {} I/O",
            s.outputs_computed,
            s.loads,
            s.stores,
            s.io()
        );
    }
}

/// Every section in print order: its flag (also its span name) and the
/// function that prints it to stdout.
pub const SECTIONS: &[(&str, fn())] = &[
    ("--table1", table1_sequential),
    ("--parallel", table1_parallel),
    ("--fig1", fig1),
    ("--fig2", fig2),
    ("--fig3", fig3),
    ("--recompute", recompute_study),
    ("--flops", flops),
    ("--fft", fft_row),
    ("--policies", policies),
    ("--segments", segments),
];
