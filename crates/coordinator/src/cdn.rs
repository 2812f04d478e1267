//! Simulated content-distribution network for mailbox downloads.
//!
//! The paper's prototype relies on a CDN (such as Akamai) to serve mailbox
//! contents to many clients (§7). The CDN is untrusted — mailbox contents
//! are public state — and only matters for bandwidth offload. This module
//! stores each round's mailboxes and counts every download it serves in the
//! registry (`coordinator_mailbox_*`), which the evaluation harness reads
//! for the client-bandwidth figures.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use alpenhorn_bloom::DialSet;
use alpenhorn_mixnet::{AddFriendMailboxes, DialingMailboxes};
use alpenhorn_obs::Counter;
use alpenhorn_wire::cdn::dialing_blob_len;
use alpenhorn_wire::rpc::DialingRoundWire;
use alpenhorn_wire::{MailboxId, Round};

/// The origin's whole-mailbox accounting. Shard and parity traffic is
/// counted where it moves, by the `alpenhorn-cdn` fetch path
/// (`cdn_shard_fetches_total`, `cdn_fetch_parity_bytes_total`, …), so a
/// download reassembled from a shard fleet never shows up here, and no
/// download is counted twice.
struct MailboxMetrics {
    bytes_served: Arc<Counter>,
    downloads: Arc<Counter>,
}

fn mailbox_metrics() -> &'static MailboxMetrics {
    static METRICS: OnceLock<MailboxMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = alpenhorn_obs::global();
        MailboxMetrics {
            bytes_served: registry.counter("coordinator_mailbox_bytes_served_total", &[]),
            downloads: registry.counter("coordinator_mailbox_downloads_total", &[]),
        }
    })
}

/// Counts one mailbox download of `bytes` served by the origin.
fn count_download(bytes: usize) {
    let m = mailbox_metrics();
    m.bytes_served.add(bytes as u64);
    m.downloads.inc();
}

/// The simulated CDN.
///
/// Published mailboxes are immutable, and so is each published map: a
/// read-path snapshot ([`crate::shared`]) takes the maps with two `Arc`
/// clones, however many rounds they hold, and serves downloads without any
/// coordinator lock. Publishing and expiry copy a map on write, once per
/// round, and only while a snapshot still shares it.
#[derive(Default)]
pub struct Cdn {
    add_friend: Arc<HashMap<u64, Arc<AddFriendMailboxes>>>,
    dialing: Arc<HashMap<u64, Arc<PublishedDialing>>>,
}

/// One closed dialing round as published: its dial-set mailboxes and
/// the next round's parameters, which the close announced in every one of
/// them.
pub(crate) struct PublishedDialing {
    mailboxes: DialingMailboxes,
    next_round: Option<DialingRoundWire>,
}

/// Serves one add-friend mailbox download from a published round, counting
/// it. Shared by [`Cdn::fetch_add_friend_mailbox`] and the lock-free
/// snapshot path.
pub(crate) fn serve_add_friend(boxes: &AddFriendMailboxes, mailbox: MailboxId) -> Vec<Vec<u8>> {
    let contents = boxes.mailbox(mailbox).to_vec();
    count_download(contents.iter().map(|c| c.len()).sum());
    contents
}

/// Serves one dialing mailbox download from a published round — the
/// encoded dial set and the announced next round — counting the length of
/// the blob the shard fleet serves for it, so both deployment shapes account
/// the same bytes. Shared by [`Cdn::fetch_dialing_mailbox`] and the lock-free
/// snapshot path.
pub(crate) fn serve_dialing(
    published: &PublishedDialing,
    mailbox: MailboxId,
) -> Option<(&[u8], Option<&DialingRoundWire>)> {
    let set = published.mailboxes.mailbox(mailbox)?;
    let next_round = published.next_round.as_ref();
    count_download(dialing_blob_len(set.len(), next_round));
    Some((set, next_round))
}

impl Cdn {
    /// Creates an empty CDN.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the add-friend mailboxes for `round`.
    pub fn publish_add_friend(&mut self, round: Round, mailboxes: AddFriendMailboxes) {
        Arc::make_mut(&mut self.add_friend).insert(round.0, Arc::new(mailboxes));
    }

    /// Publishes the dialing mailboxes for `round`, each served with
    /// `next_round`: the parameters of round + 1, when the close announced
    /// them.
    pub fn publish_dialing(
        &mut self,
        round: Round,
        mailboxes: DialingMailboxes,
        next_round: Option<DialingRoundWire>,
    ) {
        let published = PublishedDialing {
            mailboxes,
            next_round,
        };
        Arc::make_mut(&mut self.dialing).insert(round.0, Arc::new(published));
    }

    /// The published add-friend rounds, `Arc`-shared for snapshots.
    pub(crate) fn add_friend_rounds(&self) -> Arc<HashMap<u64, Arc<AddFriendMailboxes>>> {
        Arc::clone(&self.add_friend)
    }

    /// The published dialing rounds, `Arc`-shared for snapshots.
    pub(crate) fn dialing_rounds(&self) -> Arc<HashMap<u64, Arc<PublishedDialing>>> {
        Arc::clone(&self.dialing)
    }

    /// Downloads one add-friend mailbox: the list of IBE ciphertexts.
    pub fn fetch_add_friend_mailbox(
        &mut self,
        round: Round,
        mailbox: MailboxId,
    ) -> Option<Vec<Vec<u8>>> {
        let boxes = self.add_friend.get(&round.0)?;
        Some(serve_add_friend(boxes, mailbox))
    }

    /// Downloads one dialing mailbox and decodes its set of dial tokens.
    pub fn fetch_dialing_mailbox(&mut self, round: Round, mailbox: MailboxId) -> Option<DialSet> {
        let published = self.dialing.get(&round.0)?;
        let (set, _) = serve_dialing(published, mailbox)?;
        DialSet::from_bytes(set).ok()
    }

    /// Removes mailboxes older than `keep_from` (the paper keeps mailbox
    /// contents "for a relatively long time", §5.1, but not forever).
    pub fn expire_before(&mut self, keep_from: Round) {
        Arc::make_mut(&mut self.add_friend).retain(|r, _| *r >= keep_from.0);
        Arc::make_mut(&mut self.dialing).retain(|r, _| *r >= keep_from.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_wire::{AddFriendEnvelope, DialRequest, DialToken};

    fn add_friend_boxes() -> AddFriendMailboxes {
        let batch = vec![
            AddFriendEnvelope {
                mailbox: MailboxId(0),
                ciphertext: vec![1u8; AddFriendEnvelope::CIPHERTEXT_LEN],
            }
            .encode(),
            AddFriendEnvelope {
                mailbox: MailboxId(1),
                ciphertext: vec![2u8; AddFriendEnvelope::CIPHERTEXT_LEN],
            }
            .encode(),
        ];
        AddFriendMailboxes::from_batch(&batch, 2)
    }

    fn dialing_boxes() -> DialingMailboxes {
        let batch = vec![DialRequest {
            mailbox: MailboxId(0),
            token: DialToken([7u8; 32]),
        }
        .encode()];
        DialingMailboxes::from_batch(&batch, 1)
    }

    /// The registry's origin totals `(bytes, downloads)`. Other tests serve
    /// downloads concurrently, so a delta over them is a lower bound.
    fn served() -> (u64, u64) {
        let m = mailbox_metrics();
        (m.bytes_served.get(), m.downloads.get())
    }

    #[test]
    fn publish_and_fetch_add_friend() {
        let mut cdn = Cdn::new();
        cdn.publish_add_friend(Round(3), add_friend_boxes());
        let (bytes, downloads) = served();
        let contents = cdn
            .fetch_add_friend_mailbox(Round(3), MailboxId(0))
            .unwrap();
        assert_eq!(contents, vec![vec![1u8; AddFriendEnvelope::CIPHERTEXT_LEN]]);
        assert!(served().0 >= bytes + AddFriendEnvelope::CIPHERTEXT_LEN as u64);
        assert!(served().1 > downloads);
        assert!(cdn
            .fetch_add_friend_mailbox(Round(9), MailboxId(0))
            .is_none());
    }

    #[test]
    fn publish_and_fetch_dialing() {
        let mut cdn = Cdn::new();
        cdn.publish_dialing(Round(5), dialing_boxes(), None);
        let (bytes, downloads) = served();
        let set = cdn.fetch_dialing_mailbox(Round(5), MailboxId(0)).unwrap();
        assert!(set.contains(&[7u8; 32]));
        // Counted as the blob the shard fleet would serve.
        let blob = alpenhorn_wire::cdn::encode_dialing_blob(&set.to_bytes(), None);
        assert!(served().0 >= bytes + blob.len() as u64);
        assert!(served().1 > downloads);
        assert!(cdn.fetch_dialing_mailbox(Round(5), MailboxId(3)).is_none());
    }

    #[test]
    fn expiration_removes_old_rounds() {
        let mut cdn = Cdn::new();
        cdn.publish_add_friend(Round(1), add_friend_boxes());
        cdn.publish_add_friend(Round(2), add_friend_boxes());
        cdn.publish_dialing(Round(1), dialing_boxes(), None);
        cdn.expire_before(Round(2));
        assert!(cdn
            .fetch_add_friend_mailbox(Round(1), MailboxId(0))
            .is_none());
        assert!(cdn
            .fetch_add_friend_mailbox(Round(2), MailboxId(0))
            .is_some());
        assert!(cdn.fetch_dialing_mailbox(Round(1), MailboxId(0)).is_none());
    }
}
