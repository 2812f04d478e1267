//! Mailbox partitioning and encoding at the end of the mixnet chain.
//!
//! The last server groups the fully-peeled requests by their plaintext
//! mailbox ID (§3.1 step 3). Requests addressed to the cover mailbox are
//! discarded. Add-friend mailboxes are the concatenation of the IBE
//! ciphertexts they received; dialing mailboxes are encoded as Golomb-coded
//! sets of the dial tokens ([`alpenhorn_bloom::DialSet`], where the paper
//! uses a Bloom filter, §5.2), which is what makes the dialing protocol cheap
//! for clients to download.
//!
//! [`MailboxPolicy`] implements §6's sizing rule: pick the number of
//! mailboxes so that each holds roughly equal amounts of real traffic and
//! noise, keeping per-client download size roughly constant as the user base
//! grows.

use std::collections::BTreeMap;

use alpenhorn_bloom::DialSet;
use alpenhorn_wire::{AddFriendEnvelope, DialRequest, MailboxId};

/// How the coordinator chooses the number of mailboxes for a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxPolicy {
    /// Target number of *real* requests per add-friend mailbox. The paper's
    /// deployment keeps mailboxes around 12,000 real requests (≈ 7.4 MB once
    /// an equal volume of noise is added, §8.2).
    pub add_friend_target: usize,
    /// Target number of real dial tokens per dialing mailbox (the paper's 10M
    /// user experiment uses about 75,000 per mailbox, §8.2).
    pub dialing_target: usize,
}

impl Default for MailboxPolicy {
    fn default() -> Self {
        MailboxPolicy {
            add_friend_target: 12_000,
            dialing_target: 75_000,
        }
    }
}

impl MailboxPolicy {
    /// Number of add-friend mailboxes for an expected number of real requests.
    pub fn add_friend_mailboxes(&self, expected_real: usize) -> u32 {
        Self::count(expected_real, self.add_friend_target)
    }

    /// Number of dialing mailboxes for an expected number of real dial tokens.
    pub fn dialing_mailboxes(&self, expected_real: usize) -> u32 {
        Self::count(expected_real, self.dialing_target)
    }

    fn count(expected_real: usize, target: usize) -> u32 {
        if expected_real == 0 {
            return 1;
        }
        expected_real.div_ceil(target.max(1)).max(1) as u32
    }
}

/// The add-friend mailboxes produced by one round: mailbox ID → the IBE
/// ciphertexts delivered to it.
#[derive(Debug, Clone, Default)]
pub struct AddFriendMailboxes {
    /// Ciphertexts per mailbox.
    pub mailboxes: BTreeMap<u32, Vec<Vec<u8>>>,
}

impl AddFriendMailboxes {
    /// Builds mailboxes from the final batch of fully-peeled envelopes.
    /// Cover-traffic envelopes and malformed entries are dropped.
    pub fn from_batch(batch: &[Vec<u8>], num_mailboxes: u32) -> Self {
        let mut mailboxes: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
        for id in 0..num_mailboxes {
            mailboxes.insert(id, Vec::new());
        }
        for message in batch {
            let Ok(envelope) = AddFriendEnvelope::decode(message) else {
                continue;
            };
            if envelope.mailbox.is_cover() {
                continue;
            }
            // Noise generated by servers picks real mailbox IDs; requests with
            // out-of-range IDs (malicious clients) are dropped.
            if envelope.mailbox.as_u32() >= num_mailboxes {
                continue;
            }
            mailboxes
                .entry(envelope.mailbox.as_u32())
                .or_default()
                .push(envelope.ciphertext);
        }
        AddFriendMailboxes { mailboxes }
    }

    /// The ciphertexts in one mailbox.
    pub fn mailbox(&self, id: MailboxId) -> &[Vec<u8>] {
        self.mailboxes
            .get(&id.as_u32())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Serialized size of a mailbox in bytes (what a client downloads).
    pub fn mailbox_bytes(&self, id: MailboxId) -> usize {
        self.mailbox(id).iter().map(|c| c.len()).sum()
    }

    /// Total number of requests across all mailboxes.
    pub fn total_requests(&self) -> usize {
        self.mailboxes.values().map(|v| v.len()).sum()
    }

    /// Sizes (in requests) of every mailbox, in mailbox-ID order.
    pub fn sizes(&self) -> Vec<usize> {
        self.mailboxes.values().map(|v| v.len()).collect()
    }
}

/// The dialing mailboxes produced by one round: mailbox ID → the encoded
/// [`DialSet`] of the dial tokens delivered to it.
#[derive(Debug, Clone, Default)]
pub struct DialingMailboxes {
    /// The canonical [`DialSet`] encoding per mailbox: the bytes a client
    /// downloads.
    pub mailboxes: BTreeMap<u32, Vec<u8>>,
    /// Number of tokens inserted per mailbox (for diagnostics and sizing).
    pub token_counts: BTreeMap<u32, usize>,
}

impl DialingMailboxes {
    /// Builds the mailboxes from the final batch of dial requests.
    ///
    /// Each set is built from the tokens actually received (the last server
    /// "is responsible for choosing the optimal parameters to encode a given
    /// number of dial tokens", §5.2).
    pub fn from_batch(batch: &[Vec<u8>], num_mailboxes: u32) -> Self {
        let mut tokens_per_mailbox: BTreeMap<u32, Vec<[u8; 32]>> = BTreeMap::new();
        for id in 0..num_mailboxes {
            tokens_per_mailbox.insert(id, Vec::new());
        }
        for message in batch {
            let Ok(request) = DialRequest::decode(message) else {
                continue;
            };
            if request.mailbox.is_cover() || request.mailbox.as_u32() >= num_mailboxes {
                continue;
            }
            tokens_per_mailbox
                .entry(request.mailbox.as_u32())
                .or_default()
                .push(request.token.0);
        }

        let mut mailboxes = BTreeMap::new();
        let mut token_counts = BTreeMap::new();
        for (id, tokens) in tokens_per_mailbox {
            token_counts.insert(id, tokens.len());
            mailboxes.insert(id, DialSet::new(&tokens).to_bytes());
        }
        DialingMailboxes {
            mailboxes,
            token_counts,
        }
    }

    /// The encoded set of one mailbox, if it exists.
    pub fn mailbox(&self, id: MailboxId) -> Option<&[u8]> {
        self.mailboxes.get(&id.as_u32()).map(Vec::as_slice)
    }

    /// Serialized size of one mailbox in bytes.
    pub fn mailbox_bytes(&self, id: MailboxId) -> usize {
        self.mailbox(id).map_or(0, <[u8]>::len)
    }

    /// Total number of tokens encoded across all mailboxes.
    pub fn total_tokens(&self) -> usize {
        self.token_counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_wire::DialToken;

    fn add_friend_msg(mailbox: u32, fill: u8) -> Vec<u8> {
        AddFriendEnvelope {
            mailbox: MailboxId(mailbox),
            ciphertext: vec![fill; AddFriendEnvelope::CIPHERTEXT_LEN],
        }
        .encode()
    }

    fn dial_msg(mailbox: MailboxId, fill: u8) -> Vec<u8> {
        DialRequest {
            mailbox,
            token: DialToken([fill; 32]),
        }
        .encode()
    }

    #[test]
    fn policy_matches_paper_examples() {
        let policy = MailboxPolicy::default();
        // 1M users, 5% active → 50k real requests → ~5 add-friend mailboxes
        // (the paper quotes mailboxes of ~12k real requests each).
        assert_eq!(policy.add_friend_mailboxes(50_000), 5);
        // 10M users, 5% active → 500k dial tokens → 7 dialing mailboxes (§8.2).
        assert_eq!(policy.dialing_mailboxes(500_000), 7);
        // 1M users dialing → a single dialing mailbox (§8.2).
        assert_eq!(policy.dialing_mailboxes(50_000), 1);
        // Degenerate cases.
        assert_eq!(policy.add_friend_mailboxes(0), 1);
        assert_eq!(policy.dialing_mailboxes(1), 1);
    }

    #[test]
    fn add_friend_partitioning() {
        let batch = vec![
            add_friend_msg(0, 1),
            add_friend_msg(1, 2),
            add_friend_msg(0, 3),
            AddFriendEnvelope::cover().encode(),
            vec![1, 2, 3],        // malformed
            add_friend_msg(9, 4), // out of range
        ];
        let boxes = AddFriendMailboxes::from_batch(&batch, 2);
        assert_eq!(boxes.mailbox(MailboxId(0)).len(), 2);
        assert_eq!(boxes.mailbox(MailboxId(1)).len(), 1);
        assert_eq!(boxes.total_requests(), 3);
        assert_eq!(
            boxes.mailbox_bytes(MailboxId(0)),
            2 * AddFriendEnvelope::CIPHERTEXT_LEN
        );
        assert_eq!(boxes.sizes(), vec![2, 1]);
    }

    #[test]
    fn empty_mailboxes_exist() {
        let boxes = AddFriendMailboxes::from_batch(&[], 3);
        assert_eq!(boxes.sizes(), vec![0, 0, 0]);
        assert!(boxes.mailbox(MailboxId(1)).is_empty());
    }

    #[test]
    fn dialing_partitioning_and_membership() {
        let batch = vec![
            dial_msg(MailboxId(0), 1),
            dial_msg(MailboxId(0), 2),
            dial_msg(MailboxId(1), 3),
            dial_msg(MailboxId::COVER, 4),
            vec![9, 9], // malformed
        ];
        let boxes = DialingMailboxes::from_batch(&batch, 2);
        assert_eq!(boxes.total_tokens(), 3);
        let set = |id| DialSet::from_bytes(boxes.mailbox(MailboxId(id)).unwrap()).unwrap();
        let f0 = set(0);
        assert!(f0.contains(&[1u8; 32]));
        assert!(f0.contains(&[2u8; 32]));
        assert!(!f0.contains(&[3u8; 32]));
        let f1 = set(1);
        assert!(f1.contains(&[3u8; 32]));
        // The cover token is not encoded anywhere.
        assert!(!f0.contains(&[4u8; 32]));
        assert!(!f1.contains(&[4u8; 32]));
    }

    #[test]
    fn dialing_mailbox_size_tracks_tokens() {
        let small: Vec<Vec<u8>> = (0..10u8).map(|i| dial_msg(MailboxId(0), i)).collect();
        let large: Vec<Vec<u8>> = (0..200u8).map(|i| dial_msg(MailboxId(0), i)).collect();
        let small_boxes = DialingMailboxes::from_batch(&small, 1);
        let large_boxes = DialingMailboxes::from_batch(&large, 1);
        assert!(large_boxes.mailbox_bytes(MailboxId(0)) > small_boxes.mailbox_bytes(MailboxId(0)));
    }

    #[test]
    fn missing_mailbox_has_zero_bytes() {
        let boxes = DialingMailboxes::from_batch(&[], 1);
        assert_eq!(boxes.mailbox_bytes(MailboxId(5)), 0);
        assert!(boxes.mailbox(MailboxId(5)).is_none());
    }
}
