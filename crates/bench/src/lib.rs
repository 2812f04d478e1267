//! Shared helpers for the Alpenhorn benchmark harness.
//!
//! `micro` records the per-operation costs of the primitives (the cost
//! model's calibration) in `BENCH_micro.json`; `mixnet_ops`,
//! `pkg_throughput` and `key_extraction` print their sweeps as paper-style
//! tables. `examples/evaluation_sweep.rs` prints the §8 figure tables, and
//! `docs/PERFORMANCE.md` records the results.

#![forbid(unsafe_code)]

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
