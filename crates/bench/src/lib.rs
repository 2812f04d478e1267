//! Shared helpers for the Alpenhorn benchmark harness.
//!
//! Each benchmark target regenerates one figure or measurement from §8 of the
//! paper. Targets print paper-style tables to stdout in addition to any
//! Criterion measurements; `docs/PERFORMANCE.md` records the results.

#![forbid(unsafe_code)]

use alpenhorn_sim::costmodel::MeasuredCosts;
use alpenhorn_sim::CostModel;

/// Number of calibration iterations used by the figure benches. High enough
/// for stable medians of the pairing operations, low enough to keep
/// `cargo bench` runtimes reasonable.
pub const CALIBRATION_ITERATIONS: usize = 64;

/// Calibrates the cost model on this machine.
pub fn calibrated_model() -> CostModel {
    CostModel::new(MeasuredCosts::measure(CALIBRATION_ITERATIONS))
}

/// Worker counts for the batch-size × worker-count benchmark sweeps.
///
/// Always includes 1 (the sequential reference) and 2 (so the threaded path
/// is exercised, and its output validated, even on single-core machines);
/// higher counts only where real cores back them.
pub fn worker_sweep_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 2];
    for w in [4, 8] {
        if w <= cores {
            counts.push(w);
        }
    }
    if cores > 2 && !counts.contains(&cores) {
        counts.push(cores);
    }
    counts
}

/// Prints a standard header identifying a benchmark target.
pub fn print_header(title: &str, paper_reference: &str) {
    println!();
    println!("=== {title} ===");
    println!("(paper reference: {paper_reference})");
    println!();
}
