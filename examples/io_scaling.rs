//! Sequential I/O scaling (Table I, sequential rows): run real algorithms
//! through the trace-driven cache simulator, fit the growth exponent, and
//! compare against the Theorem 1.1 lower bound.
//!
//! ```text
//! cargo run --release --example io_scaling
//! ```

use fastmm::core::{bounds, catalog};
use fastmm::memsim::model;
use fastmm::memsim::seq::{self, Replacement};

fn fit_exponent(points: &[(usize, f64)]) -> f64 {
    // Least-squares slope of log(io) vs log(n).
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, io)| ((n as f64).ln(), io.ln()))
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

fn main() {
    let m = 192; // fast memory: 192 words
    let tile = seq::natural_tile(m);

    println!("Trace-simulated I/O with M = {m} words (LRU), tile/cutoff = {tile}:\n");
    println!(
        "{:<12} {:>6} {:>12} {:>14} {:>8}",
        "algorithm", "n", "measured I/O", "lower bound", "ratio"
    );

    let strassen = catalog::strassen();
    let mut points = Vec::new();
    for (name, alg, omega) in [
        ("classical", None, bounds::OMEGA_CLASSICAL),
        ("strassen", Some(&strassen), bounds::OMEGA_FAST),
    ] {
        let mut pts = Vec::new();
        for n in [16usize, 32, 64] {
            let seed = seq::DEFAULT_WORKLOAD_SEED;
            let io = seq::simulate(alg, n, m, tile, Replacement::Lru, seed, None)
                .stats
                .io();
            let lb = bounds::sequential(n, m, omega);
            println!(
                "{name:<12} {n:>6} {io:>12} {lb:>14.0} {:>8.2}",
                io as f64 / lb
            );
            pts.push((n, io as f64));
        }
        points.push(pts);
    }
    let (classical_pts, strassen_pts) = (&points[0], &points[1]);

    println!("\nFitted growth exponents (I/O ~ n^e at fixed M):");
    println!(
        "  classical: e = {:.2}   (theory: 3.00)",
        fit_exponent(classical_pts)
    );
    println!(
        "  strassen:  e = {:.2}   (theory: log₂7 = {:.2})",
        fit_exponent(strassen_pts),
        bounds::OMEGA_FAST
    );

    println!("\nSchedule-model sweep at larger sizes (same schedules, closed-form):");
    println!(
        "{:<12} {:>9} {:>13} {:>13} {:>7}",
        "algorithm", "n", "schedule I/O", "lower bound", "ratio"
    );
    for n in [1usize << 12, 1 << 15, 1 << 18] {
        let s = model::blocked_classical_io(n, 1 << 12);
        let lb = bounds::sequential(n, 1 << 12, bounds::OMEGA_CLASSICAL);
        println!(
            "{:<12} {n:>9} {:>13.3e} {:>13.3e} {:>7.2}",
            "classical",
            s,
            lb,
            s / lb
        );
    }
    for n in [1usize << 12, 1 << 15, 1 << 18] {
        let s = model::recursive_fast_io(n, 1 << 12, 7, 18);
        let lb = bounds::sequential(n, 1 << 12, bounds::OMEGA_FAST);
        println!(
            "{:<12} {n:>9} {:>13.3e} {:>13.3e} {:>7.2}",
            "strassen",
            s,
            lb,
            s / lb
        );
    }
    println!("\nBoth schedules track their bounds with a bounded constant — the");
    println!("exponent gap (3 vs log₂7 ≈ 2.81) is the content of the fast rows of Table I.");
}
