//! Figure 8: add-friend round latency vs number of online users for 3/5/10
//! servers, predicted from measured per-operation costs. The end-to-end
//! round latency of the real daemons is `examples/e2e_bench`'s number.

use criterion::{criterion_group, criterion_main, Criterion};

use alpenhorn_bench::{calibrated_model, print_header};
use alpenhorn_sim::experiments::figure_8;
use alpenhorn_sim::CostModel;

fn print_figure_8(_c: &mut Criterion) {
    print_header(
        "Figure 8: AddFriend latency vs online users",
        "10M users on 3 servers: 152 s median; more servers increase latency",
    );
    let measured = calibrated_model();
    println!("Model with costs measured on this machine:\n");
    println!("{}", figure_8(&measured).render());
    println!("Model with the paper's per-operation reference costs:\n");
    println!("{}", figure_8(&CostModel::paper_reference()).render());
}

criterion_group!(benches, print_figure_8);
criterion_main!(benches);
