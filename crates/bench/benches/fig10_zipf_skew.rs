//! Figure 10 / §8.4: add-friend latency and mailbox-size spread under a
//! Zipf-skewed popularity distribution (1M users, 3 servers), and the dialing
//! protocol's insensitivity to skew.

use criterion::{criterion_group, criterion_main, Criterion};

use alpenhorn_bench::{calibrated_model, print_header};
use alpenhorn_sim::experiments::figure_10;
use alpenhorn_sim::{CostModel, Table, Workload};

fn print_figure_10(_c: &mut Criterion) {
    print_header(
        "Figure 10: latency under skewed popularity",
        "median flat as skew grows; at s=2 the top 10 users receive 94.2% of requests; \
         mailboxes range 4.15-14.95 MB",
    );
    let measured = calibrated_model();
    println!("Model with costs measured on this machine:\n");
    println!("{}", figure_10(&measured).render());
    println!("Model with the paper's per-operation reference costs:\n");
    println!("{}", figure_10(&CostModel::paper_reference()).render());

    // §8.4's dialing observation: skew barely moves dialing latency because
    // dial-set scanning is so cheap. Report the mailbox token spread at s=2.
    let model = CostModel::paper_reference();
    let workload = Workload::skewed(10_000_000, 2.0);
    let mailboxes = model.dialing_mailboxes(&workload);
    let loads = workload.mailbox_loads(mailboxes);
    let noise = 3.0 * model.noise.dialing_mu;
    let mut table = Table::new(
        "Section 8.4: dialing mailbox spread at s=2 (10M users)",
        &["mailboxes", "smallest (KB)", "largest (KB)"],
    );
    let to_kb = |tokens: f64| (tokens + noise) * 6.0 / 1000.0;
    let min = loads.iter().cloned().fold(f64::MAX, f64::min);
    let max = loads.iter().cloned().fold(f64::MIN, f64::max);
    table.push_row(vec![
        mailboxes.to_string(),
        format!("{:.0}", to_kb(min)),
        format!("{:.0}", to_kb(max)),
    ]);
    println!("{}", table.render());

    // Top-10 share headline number.
    println!(
        "Top-10 users' share of requests at s=2 (1M users): {:.1}% (paper: 94.2%)\n",
        Workload::skewed(1_000_000, 2.0).top_k_share(10) * 100.0
    );
}

criterion_group!(benches, print_figure_10);
criterion_main!(benches);
