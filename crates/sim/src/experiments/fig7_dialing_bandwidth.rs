//! Figure 7: client bandwidth of the dialing protocol vs round duration.
//!
//! Nearly all of the dialing bandwidth is the mailbox download: the paper's
//! 48-bit-per-token Bloom filter, here a dial set at ≈ 35.05 bits per token
//! (`alpenhorn_bloom`), so the download is ≈ 27 % below the paper's. The paper
//! plots KB/s for 100K, 1M and 10M users as the dialing round duration
//! varies from 1 to 10 minutes.

use crate::costmodel::{bytes_per_sec_to_gb_month, bytes_per_sec_to_kb, CostModel};
use crate::report::Table;
use crate::workload::Workload;

/// The round durations (minutes) on the paper's x-axis.
pub const ROUND_DURATIONS_MINUTES: [f64; 7] = [1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0];

/// The user-count series the paper plots.
pub const USER_SERIES: [usize; 3] = [100_000, 1_000_000, 10_000_000];

/// One row of the Figure 7 data.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Round duration in minutes.
    pub round_minutes: f64,
    /// Client bandwidth in KB/s for each entry of [`USER_SERIES`].
    pub kb_per_sec: [f64; 3],
}

/// Computes the Figure 7 series.
pub fn figure_7_rows(model: &CostModel, servers: usize) -> Vec<Fig7Row> {
    ROUND_DURATIONS_MINUTES
        .iter()
        .map(|minutes| {
            let mut kb = [0.0f64; 3];
            for (i, users) in USER_SERIES.iter().enumerate() {
                let w = Workload::paper(*users);
                kb[i] = bytes_per_sec_to_kb(model.dialing_client_bandwidth(
                    &w,
                    servers,
                    minutes * 60.0,
                ));
            }
            Fig7Row {
                round_minutes: *minutes,
                kb_per_sec: kb,
            }
        })
        .collect()
}

/// Renders Figure 7 as a table.
pub fn figure_7(model: &CostModel, servers: usize) -> Table {
    let mut table = Table::new(
        "Figure 7: dialing client bandwidth vs round duration",
        &[
            "round (min)",
            "100K users (KB/s)",
            "1M users (KB/s)",
            "10M users (KB/s)",
            "10M users (GB/month)",
        ],
    );
    for row in figure_7_rows(model, servers) {
        table.push_row(vec![
            format!("{:.0}", row.round_minutes),
            format!("{:.2}", row.kb_per_sec[0]),
            format!("{:.2}", row.kb_per_sec[1]),
            format!("{:.2}", row.kb_per_sec[2]),
            format!(
                "{:.2}",
                bytes_per_sec_to_gb_month(row.kb_per_sec[2] * 1000.0)
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_number_reproduced() {
        // §8.2: 10M users, 5-minute rounds → ~3 KB/s and ~7.8 GB/month.
        let model = CostModel::paper_reference();
        let rows = figure_7_rows(&model, 3);
        let five_min = rows
            .iter()
            .find(|r| (r.round_minutes - 5.0).abs() < 1e-9)
            .unwrap();
        assert!(
            (2.0..4.5).contains(&five_min.kb_per_sec[2]),
            "{} KB/s",
            five_min.kb_per_sec[2]
        );
        let gb_month = bytes_per_sec_to_gb_month(five_min.kb_per_sec[2] * 1000.0);
        assert!((5.0..11.0).contains(&gb_month), "{gb_month} GB/month");
    }

    #[test]
    fn bandwidth_decreases_with_round_duration() {
        let model = CostModel::paper_reference();
        let rows = figure_7_rows(&model, 3);
        for users in 0..3 {
            for pair in rows.windows(2) {
                assert!(pair[1].kb_per_sec[users] <= pair[0].kb_per_sec[users]);
            }
        }
    }

    #[test]
    fn dialing_much_cheaper_than_add_friend_at_same_duration() {
        // The whole point of the dialing protocol: at the same round duration
        // it needs far less bandwidth than add-friend.
        let model = CostModel::paper_reference();
        let w = Workload::paper(1_000_000);
        let dial = model.dialing_client_bandwidth(&w, 3, 3600.0);
        let add = model.add_friend_client_bandwidth(&w, 3, 3600.0);
        assert!(dial * 5.0 < add);
    }

    #[test]
    fn table_renders() {
        let model = CostModel::paper_reference();
        let t = figure_7(&model, 3);
        assert_eq!(t.len(), ROUND_DURATIONS_MINUTES.len());
    }
}
