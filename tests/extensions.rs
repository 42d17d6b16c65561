//! Integration tests for the extension modules: OPT replacement, segment
//! audits, the memory-limited CAPS model and the FFT bound rows.

use fastmm::cdag::RecursiveCdag;
use fastmm::core::{bounds, catalog};
use fastmm::memsim::cache::Policy;
use fastmm::memsim::trace::{opt_stats, replay};
use fastmm::memsim::{model, seq};
use fastmm::pebbling::players::{belady_schedule, creation_order};
use fastmm::pebbling::segments::theorem_audit;

#[test]
fn opt_replacement_floors_measured_io_on_real_schedules() {
    let n = 32;
    for m in [96usize, 384] {
        let tile = seq::natural_tile(m);
        let (lru_stats, trace) = seq::measure_traced(n, m, Policy::Lru, |mem, a, b| {
            seq::classical_blocked(mem, a, b, tile)
        });
        let opt = opt_stats(&trace, m);
        let fifo = replay(&trace, m, Policy::Fifo);
        assert!(opt.io() <= lru_stats.io(), "M={m}");
        assert!(opt.io() <= fifo.io(), "M={m}");
        // The lower bound binds even the offline-optimal policy.
        let lb = bounds::sequential(n, m, bounds::OMEGA_CLASSICAL);
        assert!(
            opt.io() as f64 >= lb,
            "M={m}: OPT {} < bound {lb}",
            opt.io()
        );
    }
}

#[test]
fn opt_replacement_floors_fast_schedule_too() {
    let n = 32;
    let m = 96;
    let alg = catalog::strassen();
    let tile = seq::natural_tile(m);
    let (lru_stats, trace) = seq::measure_traced(n, m, Policy::Lru, |mem, a, b| {
        seq::fast_recursive(mem, &alg, a, b, tile)
    });
    let opt = opt_stats(&trace, m);
    assert!(opt.io() <= lru_stats.io());
    let lb = bounds::sequential(n, m, bounds::OMEGA_FAST);
    assert!(opt.io() as f64 >= lb, "OPT {} < fast bound {lb}", opt.io());
}

#[test]
fn segment_audit_floors_hold_across_algorithms_and_sizes() {
    for alg in catalog::all_fast() {
        let h = RecursiveCdag::build(&alg.to_base(), 8);
        let subs: Vec<_> = (0..h.sub_outputs.len())
            .map(|j| h.sub_output_vertices(j))
            .collect();
        for m in [4usize, 8, 16] {
            let moves = belady_schedule(&h.graph, &creation_order(&h.graph), m);
            let (r, floor, segs) = theorem_audit(&h.graph, &moves, &subs, m);
            for (i, s) in segs.iter().enumerate() {
                if s.outputs_computed == r * r {
                    assert!(
                        s.io() as i64 >= floor,
                        "{} M={m} segment {i}: {} < {floor}",
                        alg.name,
                        s.io()
                    );
                }
            }
        }
    }
}

#[test]
fn limited_memory_caps_interpolates_between_parallel_bounds() {
    let n = 1 << 13;
    let p = 7usize.pow(4);
    let plentiful = model::caps_per_proc_limited(n, p, usize::MAX / 4);
    let scarce = model::caps_per_proc_limited(n, p, 1 << 10);
    assert!(scarce > plentiful);
    // Plentiful regime ≈ the memory-independent curve.
    let mi = bounds::parallel_memory_independent(n, p, bounds::OMEGA_FAST);
    assert!(plentiful >= mi * 0.5 && plentiful <= mi * 20.0);
    // Scarce regime dominated by the memory-dependent curve's growth.
    let md = bounds::parallel_memory_dependent(n, 1 << 10, p, bounds::OMEGA_FAST);
    assert!(scarce >= md * 0.1, "scarce {scarce} vs md {md}");
}

#[test]
fn bounds_fft_rows_sane_against_pebbled_butterflies() {
    use fastmm::pebbling::families::butterfly;
    use fastmm::pebbling::game::run_schedule;
    for n in [8usize, 16] {
        let g = butterfly(n);
        for m in [4usize, 8] {
            let moves = belady_schedule(&g, &creation_order(&g), m);
            let r = run_schedule(&g, &moves, m, false).expect("legal");
            let lb = bounds::fft_memory_dependent(n, m, 1);
            assert!(r.io() as f64 >= lb, "n={n} M={m}: {} < {lb}", r.io());
        }
    }
}
