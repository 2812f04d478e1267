//! Figure 10 and §8.4: latency under skewed (Zipf) user popularity.
//!
//! Instead of choosing recipients uniformly, recipient `i` of `N` is chosen
//! with probability proportional to `i^(-s)`. The paper's finding: the
//! *median* add-friend latency stays flat as the skew grows, while the
//! maximum rises and the minimum falls, because individual mailboxes grow or
//! shrink with the popularity of the users hashed into them — but the effect
//! is damped because roughly half of every mailbox is noise. Dialing is
//! barely affected because dial-set scanning is so cheap
//! ([`dialing_spread`]).

use crate::costmodel::{dial_set_bytes, CostModel};
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

/// §8.4's dialing observation at s = 2 with 10M users on 3 servers: the
/// number of dialing mailboxes and the sizes of the smallest and largest, in
/// KB, each token priced as [`CostModel::dialing_mailbox_bytes`] prices it.
pub fn dialing_spread_kb(model: &CostModel) -> (u32, f64, f64) {
    let workload = Workload::skewed(10_000_000, 2.0);
    let mailboxes = model.dialing_mailboxes(&workload);
    let loads = workload.mailbox_loads(mailboxes);
    let noise = 3.0 * model.noise.dialing_mu;
    let min = loads.iter().cloned().fold(f64::MAX, f64::min);
    let max = loads.iter().cloned().fold(f64::MIN, f64::max);
    let to_kb = |tokens: f64| dial_set_bytes(tokens + noise) / 1000.0;
    (mailboxes, to_kb(min), to_kb(max))
}

/// Renders [`dialing_spread_kb`] as a table.
pub fn dialing_spread(model: &CostModel) -> Table {
    let mut table = Table::new(
        "Section 8.4: dialing mailbox spread at s=2 (10M users, 3 servers)",
        &["mailboxes", "smallest (KB)", "largest (KB)"],
    );
    let (mailboxes, min_kb, max_kb) = dialing_spread_kb(model);
    table.push_row(vec![
        mailboxes.to_string(),
        format!("{min_kb:.0}"),
        format!("{max_kb:.0}"),
    ]);
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
        // the smallest 4.15 MB (308-byte requests). Ours are
        // `ADD_FRIEND_REQUEST_LEN` = 380 B, 23 % larger, so check the ratio
        // rather than the absolute sizes.
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
    fn dialing_spread_prices_tokens_as_a_dial_set() {
        let model = CostModel::paper_reference();
        let workload = Workload::skewed(10_000_000, 2.0);
        let mailboxes = model.dialing_mailboxes(&workload);
        let largest = workload
            .mailbox_loads(mailboxes)
            .into_iter()
            .fold(f64::MIN, f64::max)
            + 3.0 * model.noise.dialing_mu;
        let (boxes, min_kb, max_kb) = dialing_spread_kb(&model);
        assert_eq!(boxes, mailboxes);
        assert!(min_kb < max_kb);
        // ≈ 4.38 bytes per token, not the 48-bit Bloom filter's 6.
        let bytes_per_token = max_kb * 1000.0 / largest;
        let expected = alpenhorn_bloom::expected_bits_per_token() / 8.0;
        assert!(
            (bytes_per_token - expected).abs() < 1e-9,
            "{bytes_per_token} bytes per token, expected {expected}"
        );
        let text = dialing_spread(&model).render();
        assert!(text.contains(&format!("{max_kb:.0}")), "{text}");
    }

    #[test]
    fn table_covers_all_skews() {
        let model = CostModel::paper_reference();
        assert_eq!(figure_10(&model).len(), SKEW_VALUES.len());
    }
}
