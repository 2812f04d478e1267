//! Figure 10 and §8.4: latency under skewed (Zipf) user popularity.
//!
//! Instead of choosing recipients uniformly, recipient `i` of `N` is chosen
//! with probability proportional to `i^(-s)`. The paper's finding: the
//! *median* add-friend latency stays flat as the skew grows, while the
//! maximum rises and the minimum falls, because individual mailboxes grow or
//! shrink with the popularity of the users hashed into them — but the effect
//! is damped because roughly half of every mailbox is noise. Dialing is
//! barely affected because dial-set scanning is so cheap.

use crate::costmodel::CostModel;
use crate::report::{fmt_seconds, Table};
use crate::workload::Workload;
use alpenhorn_wire::ADD_FRIEND_REQUEST_LEN;

/// The Zipf skew values on the paper's x-axis.
pub const SKEW_VALUES: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];

/// Latency and mailbox-size spread for one skew value.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Zipf skew parameter `s`.
    pub skew: f64,
    /// Minimum per-recipient latency (smallest mailbox), seconds.
    pub min_latency: f64,
    /// Median per-recipient latency, seconds.
    pub median_latency: f64,
    /// Maximum per-recipient latency (largest mailbox), seconds.
    pub max_latency: f64,
    /// Smallest mailbox size in bytes.
    pub min_mailbox_bytes: f64,
    /// Largest mailbox size in bytes.
    pub max_mailbox_bytes: f64,
}

/// Computes the Figure 10 sweep for the add-friend protocol.
///
/// `users` and `servers` default to the paper's 1M users and 3 servers.
pub fn figure_10_points(model: &CostModel, users: usize, servers: usize) -> Vec<Fig10Point> {
    SKEW_VALUES
        .iter()
        .map(|&skew| {
            let workload = Workload::skewed(users, skew);
            let num_mailboxes = model.add_friend_mailboxes(&workload);
            let loads = workload.mailbox_loads(num_mailboxes);
            let noise = servers as f64 * model.noise.add_friend_mu;
            // The per-recipient latency differs only in the mailbox download
            // and scan component; the mixing time is shared.
            let shared = model.add_friend_latency(&workload, servers).servers;
            let latency_for = |real_load: f64| {
                let requests = real_load + noise;
                let bytes = requests * ADD_FRIEND_REQUEST_LEN as f64;
                shared
                    + bytes / model.network.client_bandwidth
                    + requests * model.costs.ibe_decrypt / model.network.client_cores as f64
            };
            let mut sorted = loads.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite loads"));
            let min = sorted.first().copied().unwrap_or(0.0);
            let max = sorted.last().copied().unwrap_or(0.0);
            let median = sorted[sorted.len() / 2];
            Fig10Point {
                skew,
                min_latency: latency_for(min),
                median_latency: latency_for(median),
                max_latency: latency_for(max),
                min_mailbox_bytes: (min + noise) * ADD_FRIEND_REQUEST_LEN as f64,
                max_mailbox_bytes: (max + noise) * ADD_FRIEND_REQUEST_LEN as f64,
            }
        })
        .collect()
}

/// Renders Figure 10 as a table (1M users, 3 servers, like the paper).
pub fn figure_10(model: &CostModel) -> Table {
    let mut table = Table::new(
        "Figure 10: AddFriend latency vs Zipf skew (1M users, 3 servers)",
        &[
            "skew s",
            "min latency",
            "median latency",
            "max latency",
            "smallest mailbox (MB)",
            "largest mailbox (MB)",
        ],
    );
    for p in figure_10_points(model, 1_000_000, 3) {
        table.push_row(vec![
            format!("{:.1}", p.skew),
            fmt_seconds(p.min_latency),
            fmt_seconds(p.median_latency),
            fmt_seconds(p.max_latency),
            format!("{:.2}", p.min_mailbox_bytes / 1e6),
            format!("{:.2}", p.max_mailbox_bytes / 1e6),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_stays_flat_while_extremes_spread() {
        let model = CostModel::paper_reference();
        let points = figure_10_points(&model, 1_000_000, 3);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        // Median moves little (well under 50%) across the whole sweep.
        assert!(
            (last.median_latency - first.median_latency).abs() < 0.5 * first.median_latency,
            "median moved from {} to {}",
            first.median_latency,
            last.median_latency
        );
        // Max grows and min shrinks as skew increases.
        assert!(last.max_latency > first.max_latency);
        assert!(last.min_latency < first.min_latency);
        assert!(last.max_latency > last.min_latency);
    }

    #[test]
    fn mailbox_size_spread_same_order_as_paper() {
        // §8.4: with 1M users and s = 2 the largest mailbox is 14.95 MB and
        // the smallest 4.15 MB (308-byte requests). Our requests are ~26%
        // larger, so check the ratio rather than the absolute sizes.
        let model = CostModel::paper_reference();
        let points = figure_10_points(&model, 1_000_000, 3);
        let s2 = points.last().unwrap();
        let ratio = s2.max_mailbox_bytes / s2.min_mailbox_bytes;
        assert!((1.5..8.0).contains(&ratio), "ratio {ratio}");
        assert!(s2.max_mailbox_bytes > 8e6, "{}", s2.max_mailbox_bytes);
        assert!(s2.min_mailbox_bytes > 2e6, "{}", s2.min_mailbox_bytes);
    }

    #[test]
    fn zero_skew_has_balanced_mailboxes() {
        let model = CostModel::paper_reference();
        let points = figure_10_points(&model, 1_000_000, 3);
        let s0 = &points[0];
        assert!(s0.max_mailbox_bytes / s0.min_mailbox_bytes < 1.2);
    }

    #[test]
    fn table_covers_all_skews() {
        let model = CostModel::paper_reference();
        assert_eq!(figure_10(&model).len(), SKEW_VALUES.len());
    }
}
