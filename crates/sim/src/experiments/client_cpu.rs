//! §8.2 client CPU measurements.
//!
//! The paper reports:
//!
//! * ~800 IBE decryptions per second per core, so scanning a 24,000-request
//!   add-friend mailbox takes about 8 seconds on 4 cores;
//! * ~1 million keywheel hashes per second per core, so scanning a dialing
//!   mailbox against 1,000 friends × 10 intents takes well under a second;
//! * key extraction from 3 or 10 PKGs takes a few milliseconds (dominated by
//!   network RTT, which the model adds separately).

use crate::costmodel::{CostModel, MeasuredCosts};
use crate::report::Table;

/// Rows comparing measured client CPU costs with the paper's reported values.
pub fn client_cpu_table(measured: &MeasuredCosts) -> Table {
    let paper = MeasuredCosts::paper_reference();
    let mut table = Table::new(
        "Section 8.2: client CPU costs (measured vs paper)",
        &["metric", "measured", "paper"],
    );
    table.push_row(vec![
        "IBE decryptions / sec / core".into(),
        format!("{:.0}", 1.0 / measured.ibe_decrypt),
        format!("{:.0}", 1.0 / paper.ibe_decrypt),
    ]);
    table.push_row(vec![
        "scan 24,000-request mailbox, 4 cores (s)".into(),
        format!("{:.1}", 24_000.0 * measured.ibe_decrypt / 4.0),
        format!("{:.1}", 24_000.0 * paper.ibe_decrypt / 4.0),
    ]);
    table.push_row(vec![
        "keywheel hashes / sec / core".into(),
        format!("{:.0}", 1.0 / measured.keywheel_hash),
        format!("{:.0}", 1.0 / paper.keywheel_hash),
    ]);
    table.push_row(vec![
        "scan dial set, 1000 friends x 10 intents (s)".into(),
        format!(
            "{:.3}",
            1000.0 * 10.0 * (measured.keywheel_hash + measured.dial_set_probe)
        ),
        format!(
            "{:.3}",
            1000.0 * 10.0 * (paper.keywheel_hash + paper.dial_set_probe)
        ),
    ]);
    table.push_row(vec![
        "PKG extractions / sec (server core)".into(),
        format!("{:.0}", 1.0 / measured.pkg_extract),
        format!("{:.0}", 1.0 / paper.pkg_extract),
    ]);
    table.push_row(vec![
        "time for 1 PKG to extract keys for 1M users (s)".into(),
        format!("{:.0}", 1_000_000.0 * measured.pkg_extract),
        format!("{:.0}", 1_000_000.0 * paper.pkg_extract),
    ]);
    table
}

/// The §8.2 key-extraction latency micro-experiment: median client latency to
/// obtain its combined identity key from `n` PKGs, which is dominated by the
/// (parallel) request RTT plus one extraction on each PKG.
pub fn key_extraction_latency(model: &CostModel, num_pkgs: usize) -> f64 {
    // Requests to all PKGs are issued in parallel; in-region RTT is a few
    // milliseconds in the paper's setup.
    let in_region_rtt = 0.004;
    in_region_rtt + model.costs.pkg_extract * num_pkgs as f64 / num_pkgs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_paper_headline_numbers() {
        let paper = MeasuredCosts::paper_reference();
        let table = client_cpu_table(&paper);
        let text = table.render();
        // 800 decryptions/sec and an 8-second mailbox scan.
        assert!(text.contains("800"));
        assert!(text.contains("7.5") || text.contains("8.0") || text.contains("7.9"));
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn extraction_latency_insensitive_to_pkg_count() {
        // §8.2: going from 3 to 10 PKGs adds almost nothing for the client.
        let model = CostModel::paper_reference();
        let three = key_extraction_latency(&model, 3);
        let ten = key_extraction_latency(&model, 10);
        assert!((ten - three).abs() < 0.002, "{three} vs {ten}");
        assert!(three < 0.02);
    }
}
