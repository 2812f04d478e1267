//! Figure 9: dialing round latency vs number of online users for 3/5/10
//! servers, predicted from measured per-operation costs. The end-to-end
//! round latency of the real daemons is `examples/e2e_bench`'s number.

use criterion::{criterion_group, criterion_main, Criterion};

use alpenhorn_bench::{calibrated_model, print_header};
use alpenhorn_sim::experiments::figure_9;
use alpenhorn_sim::CostModel;

fn print_figure_9(_c: &mut Criterion) {
    print_header(
        "Figure 9: Call latency vs online users",
        "10M users on 3 servers: 118 s; same scaling behaviour as add-friend",
    );
    let measured = calibrated_model();
    println!("Model with costs measured on this machine:\n");
    println!("{}", figure_9(&measured).render());
    println!("Model with the paper's per-operation reference costs:\n");
    println!("{}", figure_9(&CostModel::paper_reference()).render());
}

criterion_group!(benches, print_figure_9);
criterion_main!(benches);
