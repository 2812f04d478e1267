//! Figure 7: client bandwidth of the dialing protocol vs round duration,
//! for 100K / 1M / 10M users.

use criterion::{criterion_group, criterion_main, Criterion};

use alpenhorn_bench::{calibrated_model, print_header};
use alpenhorn_sim::experiments::figure_7;
use alpenhorn_sim::CostModel;

fn print_figure_7(_c: &mut Criterion) {
    print_header(
        "Figure 7: dialing client bandwidth",
        "10M users at a 5-minute round is ~3 KB/s (~7.8 GB/month)",
    );
    let measured = calibrated_model();
    println!("Using dial-set sizes from this implementation and measured costs:\n");
    println!("{}", figure_7(&measured, 3).render());
    println!("Using the paper's per-operation reference costs:\n");
    println!("{}", figure_7(&CostModel::paper_reference(), 3).render());
}

criterion_group!(benches, print_figure_7);
criterion_main!(benches);
