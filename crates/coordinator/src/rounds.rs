//! Round timing configuration.
//!
//! §8.2 of the paper: round durations are the deployment knob trading latency
//! against client bandwidth. Add-friend rounds are long (tens of minutes to
//! hours) because mailboxes are large; dialing rounds are short (minutes)
//! because dial-set mailboxes are small. The expected end-to-end latency
//! of a call is roughly half the dialing round duration plus the processing
//! time, which is how the paper arrives at "about 2.5 minutes" for 5-minute
//! dialing rounds.

/// Round durations for a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTiming {
    /// Add-friend round duration in seconds.
    pub add_friend_round_secs: u64,
    /// Dialing round duration in seconds.
    pub dialing_round_secs: u64,
}

impl Default for RoundTiming {
    fn default() -> Self {
        // The paper's running example: dialing every 5 minutes; add-friend
        // rounds every 4 hours keep add-friend bandwidth under ~1 KB/s for
        // 10M users (Figure 6).
        RoundTiming {
            add_friend_round_secs: 4 * 60 * 60,
            dialing_round_secs: 5 * 60,
        }
    }
}

impl RoundTiming {
    /// Average latency from calling `Call` to the recipient seeing the call:
    /// on average the caller waits half a round for the round to close, then
    /// the processing time.
    pub fn expected_dialing_latency_secs(&self, processing_secs: f64) -> f64 {
        self.dialing_round_secs as f64 / 2.0 + processing_secs
    }

    /// Average latency for an add-friend request to reach the recipient.
    pub fn expected_add_friend_latency_secs(&self, processing_secs: f64) -> f64 {
        self.add_friend_round_secs as f64 / 2.0 + processing_secs
    }

    /// Number of dialing rounds per month (used for GB/month bandwidth figures).
    pub fn dialing_rounds_per_month(&self) -> f64 {
        30.0 * 86_400.0 / self.dialing_round_secs as f64
    }

    /// Number of add-friend rounds per month.
    pub fn add_friend_rounds_per_month(&self) -> f64 {
        30.0 * 86_400.0 / self.add_friend_round_secs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_latency() {
        // §8.2: "With a round duration of 5 minutes, the average end-to-end
        // latency for Call requests is about 2.5 minutes."
        let timing = RoundTiming::default();
        let latency = timing.expected_dialing_latency_secs(0.0);
        assert!((latency - 150.0).abs() < 1.0);
    }

    #[test]
    fn rounds_per_month() {
        let timing = RoundTiming {
            add_friend_round_secs: 3600,
            dialing_round_secs: 300,
        };
        assert!((timing.add_friend_rounds_per_month() - 720.0).abs() < 1e-9);
        assert!((timing.dialing_rounds_per_month() - 8640.0).abs() < 1e-9);
    }

    #[test]
    fn shorter_rounds_mean_lower_latency() {
        let fast = RoundTiming {
            add_friend_round_secs: 600,
            dialing_round_secs: 60,
        };
        let slow = RoundTiming::default();
        assert!(
            fast.expected_dialing_latency_secs(10.0) < slow.expected_dialing_latency_secs(10.0)
        );
    }
}
