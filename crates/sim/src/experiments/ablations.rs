//! Ablations of Alpenhorn's design choices.
//!
//! The paper picks three tunables without a sweep; these ablations quantify
//! the trade-offs so the chosen values can be judged:
//!
//! * **Bloom filter bits per dial token** (§5.2 picks 48): false-positive
//!   rate (phantom calls) vs dialing mailbox size, next to the Golomb-coded
//!   dial set this implementation ships instead.
//! * **Add-friend mailbox target size** (§6/§8.2 aims for ~12k real requests
//!   per mailbox): client download size vs noise overhead paid by the servers
//!   (each extra mailbox costs every server µ more noise messages).
//! * **Noise mean µ vs scale b** (§8.1): privacy budget (how many protected
//!   actions fit in ε = ln 2) vs bandwidth overhead of the noise itself.

use alpenhorn_mixnet::{DpParameters, MailboxPolicy};

use crate::costmodel::CostModel;
use crate::report::Table;
use crate::workload::Workload;

/// The analytic false-positive rate of a Bloom filter of `bits_per_element`
/// bits per element with the optimal `k = round(bits · ln 2)` independent
/// hash functions: `(1 - e^(-k/bits))^k`.
fn bloom_false_positive_rate(bits_per_element: usize) -> f64 {
    let bits = bits_per_element as f64;
    let k = (bits * core::f64::consts::LN_2).round();
    (1.0 - (-k / bits).exp()).powf(k)
}

/// Ablation 1: Bloom filter bits per element (analytic, ideal hashing), and
/// the dial set's measured-size row.
pub fn bloom_bits_ablation(tokens_per_mailbox: usize) -> Table {
    let mut table = Table::new(
        "Ablation: Bloom filter bits per dial token vs the Golomb-coded dial set",
        &[
            "bits/element",
            "false-positive rate",
            "phantom calls per decade (7 calls/day scanned x 10 friends x 10 intents)",
            "mailbox size (MB)",
        ],
    );
    // A client scans friends x intents tokens per round; the paper's
    // ten-year framing uses ~26k scanned rounds.
    let probes_per_decade = 26_000.0 * 10.0 * 10.0;
    let mut push = |label: String, fp: f64, bits: f64| {
        table.push_row(vec![
            label,
            format!("{fp:.2e}"),
            format!("{:.4}", fp * probes_per_decade),
            format!("{:.2}", tokens_per_mailbox as f64 * bits / 8.0 / 1e6),
        ]);
    };
    for bits in [16usize, 24, 32, 48, 64] {
        push(
            bits.to_string(),
            bloom_false_positive_rate(bits),
            bits as f64,
        );
    }
    let coded = alpenhorn_bloom::expected_bits_per_token();
    push(
        format!("{coded:.2} (dial set)"),
        alpenhorn_bloom::FALSE_POSITIVE_RATE,
        coded,
    );
    table
}

/// Ablation 2: add-friend mailbox target size (real requests per mailbox).
pub fn mailbox_target_ablation(model: &CostModel, users: usize, servers: usize) -> Table {
    let mut table = Table::new(
        "Ablation: add-friend mailbox target size (1M users unless noted)",
        &[
            "target real requests/mailbox",
            "mailboxes",
            "client download (MB)",
            "total server noise messages",
            "noise fraction of mailbox",
        ],
    );
    let workload = Workload::paper(users);
    for target in [3_000usize, 6_000, 12_000, 24_000, 48_000] {
        let mut m = *model;
        m.mailboxes = MailboxPolicy {
            add_friend_target: target,
            ..MailboxPolicy::default()
        };
        let mailboxes = m.add_friend_mailboxes(&workload);
        let per_mailbox = m.add_friend_mailbox_requests(&workload, servers);
        let noise_per_mailbox = servers as f64 * m.noise.add_friend_mu;
        let total_noise = noise_per_mailbox * (mailboxes as f64 + 1.0);
        table.push_row(vec![
            target.to_string(),
            mailboxes.to_string(),
            format!(
                "{:.2}",
                m.add_friend_mailbox_bytes(&workload, servers) / 1e6
            ),
            format!("{:.0}", total_noise),
            format!("{:.2}", noise_per_mailbox / per_mailbox),
        ]);
    }
    table
}

/// Ablation 3: noise scale b — privacy budget vs noise bandwidth.
pub fn noise_scale_ablation(users: usize, servers: usize) -> Table {
    let mut table = Table::new(
        "Ablation: add-friend noise (mu = 10b as in the paper's mu/b ratio)",
        &[
            "b (Laplace scale)",
            "mu (per mailbox per server)",
            "protected add-friends at eps=ln2, delta=1e-4",
            "noise share of a 1M-user mailbox",
        ],
    );
    let workload = Workload::paper(users);
    let policy = MailboxPolicy::default();
    let mailboxes = policy.add_friend_mailboxes(workload.real_requests()) as f64;
    let real_per_mailbox = workload.real_requests() as f64 / mailboxes;
    for b in [100.0f64, 200.0, 406.0, 800.0, 1600.0] {
        let mu = b * (4000.0 / 406.0);
        let dp = DpParameters { b };
        let noise_per_mailbox = servers as f64 * mu;
        table.push_row(vec![
            format!("{b:.0}"),
            format!("{mu:.0}"),
            dp.max_actions(core::f64::consts::LN_2, 1e-4).to_string(),
            format!(
                "{:.0}%",
                100.0 * noise_per_mailbox / (noise_per_mailbox + real_per_mailbox)
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_ablation_shows_tradeoff() {
        let table = bloom_bits_ablation(125_000);
        assert_eq!(table.len(), 6);
        let text = table.render();
        // The paper's 48-bit point appears with a ~0.75 MB mailbox, and the
        // dial set meets a lower rate in ~0.55 MB.
        assert!(text.contains("48"));
        assert!(text.contains("0.75"));
        assert!(text.contains("35.05 (dial set)"));
        assert!(text.contains("7.78e-11"));
        assert!(text.contains("0.55"));
    }

    #[test]
    fn fewer_bits_mean_smaller_mailboxes_but_more_phantom_calls() {
        assert!(bloom_false_positive_rate(16) > bloom_false_positive_rate(48));
        // The paper's sizing: 48 bits per element is ≈ 1e-10 with ideal
        // hashing, which the dial set meets in fewer bits.
        assert!(bloom_false_positive_rate(48) < 1e-9);
        assert!(alpenhorn_bloom::FALSE_POSITIVE_RATE < bloom_false_positive_rate(48));
        assert!(alpenhorn_bloom::expected_bits_per_token() < 48.0);
    }

    #[test]
    fn mailbox_target_ablation_monotone() {
        let model = CostModel::paper_reference();
        let table = mailbox_target_ablation(&model, 1_000_000, 3);
        assert_eq!(table.len(), 5);
        // Larger targets mean fewer mailboxes (weakly decreasing).
        let workload = Workload::paper(1_000_000);
        let mut last = u32::MAX;
        for target in [3_000usize, 6_000, 12_000, 24_000, 48_000] {
            let policy = MailboxPolicy {
                add_friend_target: target,
                ..MailboxPolicy::default()
            };
            let boxes = policy.add_friend_mailboxes(workload.real_requests());
            assert!(boxes <= last);
            last = boxes;
        }
    }

    #[test]
    fn noise_scale_ablation_shows_privacy_bandwidth_tradeoff() {
        let table = noise_scale_ablation(1_000_000, 3);
        assert_eq!(table.len(), 5);
        // Privacy budget grows with b.
        let low = DpParameters { b: 100.0 }.max_actions(core::f64::consts::LN_2, 1e-4);
        let high = DpParameters { b: 1600.0 }.max_actions(core::f64::consts::LN_2, 1e-4);
        assert!(high > low * 5);
    }
}
