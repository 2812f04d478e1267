//! Regenerates the paper's entire evaluation section (§8) in one run,
//! printing Markdown tables suitable for EXPERIMENTS.md: Figures 6–10 and the
//! §8.4 dialing spread from the cost model, the latency figures under both
//! the costs measured on this machine and the paper's reference costs, the
//! client CPU, crypto-sensitivity and differential-privacy tables, and the
//! three ablations.
//!
//! Run with `cargo run --release --example evaluation_sweep`.
//! (Use `--release`: the calibration times real pairing operations.)

use alpenhorn_mixnet::NoiseConfig;
use alpenhorn_sim::costmodel::MeasuredCosts;
use alpenhorn_sim::experiments::ablations::{
    bloom_bits_ablation, mailbox_target_ablation, noise_scale_ablation,
};
use alpenhorn_sim::experiments::crypto_sensitivity::request_size_table;
use alpenhorn_sim::experiments::{
    client_cpu_table, crypto_sensitivity_table, dialing_spread, figure_10, figure_6, figure_7,
    figure_8, figure_9,
};
use alpenhorn_sim::{CostModel, Table, Workload};

fn main() {
    println!("# Alpenhorn evaluation sweep\n");
    println!("Calibrating per-operation costs on this machine (this takes a moment)...\n");
    let measured = MeasuredCosts::measure(64);
    let model = CostModel::new(measured);

    println!("## Calibrated per-operation costs\n");
    let mut calib = Table::new(
        "Measured per-operation costs",
        &["operation", "this machine", "paper prototype"],
    );
    calib.push_row(vec![
        "IBE decrypt (ms)".into(),
        format!("{:.2}", measured.ibe_decrypt * 1e3),
        format!("{:.2}", MeasuredCosts::paper_reference().ibe_decrypt * 1e3),
    ]);
    calib.push_row(vec![
        "IBE encrypt (ms)".into(),
        format!("{:.2}", measured.ibe_encrypt * 1e3),
        format!("{:.2}", MeasuredCosts::paper_reference().ibe_encrypt * 1e3),
    ]);
    calib.push_row(vec![
        "onion peel (us)".into(),
        format!("{:.1}", measured.onion_peel * 1e6),
        format!("{:.1}", MeasuredCosts::paper_reference().onion_peel * 1e6),
    ]);
    calib.push_row(vec![
        "keywheel hash (us)".into(),
        format!("{:.2}", measured.keywheel_hash * 1e6),
        format!(
            "{:.2}",
            MeasuredCosts::paper_reference().keywheel_hash * 1e6
        ),
    ]);
    calib.push_row(vec![
        "PKG extract (ms)".into(),
        format!("{:.2}", measured.pkg_extract * 1e3),
        format!("{:.2}", MeasuredCosts::paper_reference().pkg_extract * 1e3),
    ]);
    println!("{}", calib.render_markdown());

    // Client bandwidth and mailbox sizes involve no per-operation cost, so
    // one table serves both models.
    println!("{}", figure_6(&model, 3).render_markdown());
    println!("{}", figure_7(&model, 3).render_markdown());
    println!("{}", dialing_spread(&model).render_markdown());
    let paper = CostModel::paper_reference();
    for (costs, m) in [
        ("costs measured on this machine", &model),
        ("the paper's per-operation reference costs", &paper),
    ] {
        println!("## Latency with {costs}\n");
        println!("{}", figure_8(m).render_markdown());
        println!("{}", figure_9(m).render_markdown());
        println!("{}", figure_10(m).render_markdown());
    }
    println!("{}", client_cpu_table(&measured).render_markdown());
    println!("{}", request_size_table().render_markdown());
    println!("{}", crypto_sensitivity_table(&measured).render_markdown());

    // Differential-privacy parameter check (§8.1).
    let mut dp = Table::new(
        "Section 8.1: differential-privacy accounting",
        &[
            "protocol",
            "mu",
            "b",
            "actions at (eps=ln2, delta=1e-4)",
            "paper",
        ],
    );
    let add = NoiseConfig::paper_add_friend();
    dp.push_row(vec![
        "add-friend".into(),
        format!("{}", add.mu),
        format!("{}", add.b),
        add.dp()
            .max_actions(core::f64::consts::LN_2, 1e-4)
            .to_string(),
        "900".into(),
    ]);
    let dial = NoiseConfig::paper_dialing();
    dp.push_row(vec![
        "dialing".into(),
        format!("{}", dial.mu),
        format!("{}", dial.b),
        dial.dp()
            .max_actions(core::f64::consts::LN_2, 1e-4)
            .to_string(),
        "26000".into(),
    ]);
    println!("{}", dp.render_markdown());

    // Zipf headline number (§8.4).
    println!(
        "Top-10 share of requests at s=2, 1M users: **{:.1}%** (paper: 94.2%)\n",
        Workload::skewed(1_000_000, 2.0).top_k_share(10) * 100.0
    );

    println!("## Ablations\n");
    let dial_tokens = model.dialing_mailbox_tokens(&Workload::paper(1_000_000), 3);
    println!(
        "{}",
        bloom_bits_ablation(dial_tokens.round() as usize).render_markdown()
    );
    println!(
        "{}",
        mailbox_target_ablation(&model, 1_000_000, 3).render_markdown()
    );
    println!("{}", noise_scale_ablation(1_000_000, 3).render_markdown());

    println!("Sweep complete.");
}
