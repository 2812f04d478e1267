//! Simulated content-distribution network for mailbox downloads.
//!
//! The paper's prototype relies on a CDN (such as Akamai) to serve mailbox
//! contents to many clients (§7). The CDN is untrusted — mailbox contents
//! are public state — and only matters for bandwidth offload. This module
//! stores each round's mailboxes and tracks how many bytes have been served,
//! which the evaluation harness uses for the client-bandwidth figures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use alpenhorn_bloom::BloomFilter;
use alpenhorn_mixnet::{AddFriendMailboxes, DialingMailboxes};
use alpenhorn_obs::Counter;
use alpenhorn_wire::cdn::dialing_blob_len;
use alpenhorn_wire::rpc::DialingRoundWire;
use alpenhorn_wire::{CdnStatsWire, MailboxId, Round};

/// Registry mirrors of the whole-mailbox accounting, shared by every
/// [`CdnStats`] instance in the process.
///
/// Only `bytes_served`/`downloads` are mirrored here: the per-shard counters
/// (`cdn_shard_fetches_total`, `cdn_fetch_parity_bytes_total`, …) are owned
/// by the `alpenhorn-cdn` fetch/publish path and counted exactly once there,
/// so distributing mailboxes over a shard fleet never double-accounts a
/// download in the registry.
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

/// Download accounting shared between the CDN and every read-path snapshot
/// serving fetches from it, so concurrent lock-free downloads still show up
/// in the evaluation harness's bandwidth figures.
///
/// `bytes_served`/`downloads` count whole-mailbox payload bytes exactly as
/// they always have, so the `evaluation_sweep` bandwidth figures stay
/// comparable across runs that do and do not distribute shards. The
/// erasure-coded distribution layer adds two *separate* counters: parity
/// overhead bytes (`parity_bytes_served`) and individual shard fetches
/// (`shard_fetches`), both zero in an undistributed deployment.
#[derive(Default, Debug)]
pub struct CdnStats {
    bytes_served: AtomicU64,
    downloads: AtomicU64,
    parity_bytes_served: AtomicU64,
    shard_fetches: AtomicU64,
}

impl CdnStats {
    fn serve(&self, bytes: u64) {
        self.bytes_served.fetch_add(bytes, Ordering::Relaxed);
        self.downloads.fetch_add(1, Ordering::Relaxed);
        let m = mailbox_metrics();
        m.bytes_served.add(bytes);
        m.downloads.inc();
    }

    /// Charges one mailbox download reassembled from the shard fleet:
    /// `shard_fetches` individual shard downloads totalling `data_bytes` of
    /// mailbox payload plus `parity_bytes` of parity overhead. Counts as one
    /// logical download, so `downloads` and `bytes_served` stay comparable
    /// to an undistributed deployment while the overhead is visible in the
    /// two new counters.
    pub fn serve_sharded_download(&self, data_bytes: u64, parity_bytes: u64, shard_fetches: u64) {
        self.bytes_served.fetch_add(data_bytes, Ordering::Relaxed);
        self.downloads.fetch_add(1, Ordering::Relaxed);
        self.parity_bytes_served
            .fetch_add(parity_bytes, Ordering::Relaxed);
        self.shard_fetches
            .fetch_add(shard_fetches, Ordering::Relaxed);
        // Mirror only the whole-mailbox view into the registry; the shard
        // and parity traffic was already counted by the fetch path itself
        // (`cdn_shard_fetches_total` et al.), and mirroring it again here
        // would double-account every distributed download.
        let m = mailbox_metrics();
        m.bytes_served.add(data_bytes);
        m.downloads.inc();
    }

    /// A point-in-time snapshot in the wire representation.
    pub fn wire(&self) -> CdnStatsWire {
        CdnStatsWire {
            bytes_served: self.bytes_served.load(Ordering::Relaxed),
            downloads: self.downloads.load(Ordering::Relaxed),
            parity_bytes_served: self.parity_bytes_served.load(Ordering::Relaxed),
            shard_fetches: self.shard_fetches.load(Ordering::Relaxed),
        }
    }
}

/// The simulated CDN.
///
/// Published mailboxes are immutable, and so is each published map: a
/// read-path snapshot ([`crate::shared`]) takes the maps with two `Arc`
/// clones, however many rounds they hold, and serves downloads without any
/// coordinator lock, charging the shared [`CdnStats`]. Publishing and
/// expiry copy a map on write, once per round, and only while a snapshot
/// still shares it.
#[derive(Default)]
pub struct Cdn {
    add_friend: Arc<HashMap<u64, Arc<AddFriendMailboxes>>>,
    dialing: Arc<HashMap<u64, Arc<PublishedDialing>>>,
    stats: Arc<CdnStats>,
}

/// One closed dialing round as published: its Bloom-filter mailboxes and
/// the next round's parameters, which the close announced in every one of
/// them.
pub(crate) struct PublishedDialing {
    mailboxes: DialingMailboxes,
    next_round: Option<DialingRoundWire>,
}

/// Serves one add-friend mailbox download from a published round, charging
/// `stats`. Shared by [`Cdn::fetch_add_friend_mailbox`] and the lock-free
/// snapshot path.
pub(crate) fn serve_add_friend(
    boxes: &AddFriendMailboxes,
    mailbox: MailboxId,
    stats: &CdnStats,
) -> Vec<Vec<u8>> {
    let contents = boxes.mailbox(mailbox).to_vec();
    let bytes: usize = contents.iter().map(|c| c.len()).sum();
    stats.serve(bytes as u64);
    contents
}

/// Serves one dialing mailbox download from a published round — the filter
/// and the announced next round — charging `stats` the length of the blob
/// the shard fleet serves for it, so both deployment shapes account the
/// same bytes. Shared by [`Cdn::fetch_dialing_mailbox`] and the lock-free
/// snapshot path.
pub(crate) fn serve_dialing<'a>(
    published: &'a PublishedDialing,
    mailbox: MailboxId,
    stats: &CdnStats,
) -> Option<(&'a BloomFilter, Option<&'a DialingRoundWire>)> {
    let filter = published.mailboxes.mailbox(mailbox)?;
    let next_round = published.next_round.as_ref();
    stats.serve(dialing_blob_len(filter.encoded_len(), next_round) as u64);
    Some((filter, next_round))
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

    /// The shared download-accounting counters.
    pub(crate) fn stats(&self) -> Arc<CdnStats> {
        Arc::clone(&self.stats)
    }

    /// Downloads one add-friend mailbox: the list of IBE ciphertexts.
    pub fn fetch_add_friend_mailbox(
        &mut self,
        round: Round,
        mailbox: MailboxId,
    ) -> Option<Vec<Vec<u8>>> {
        let boxes = self.add_friend.get(&round.0)?;
        Some(serve_add_friend(boxes, mailbox, &self.stats))
    }

    /// Downloads one dialing mailbox: the Bloom filter of dial tokens.
    pub fn fetch_dialing_mailbox(
        &mut self,
        round: Round,
        mailbox: MailboxId,
    ) -> Option<BloomFilter> {
        let published = self.dialing.get(&round.0)?;
        serve_dialing(published, mailbox, &self.stats).map(|(filter, _)| filter.clone())
    }

    /// Size in bytes of one add-friend mailbox (without downloading it).
    pub fn add_friend_mailbox_size(&self, round: Round, mailbox: MailboxId) -> Option<usize> {
        self.add_friend
            .get(&round.0)
            .map(|b| b.mailbox_bytes(mailbox))
    }

    /// Size in bytes of one dialing mailbox (without downloading it).
    pub fn dialing_mailbox_size(&self, round: Round, mailbox: MailboxId) -> Option<usize> {
        self.dialing
            .get(&round.0)
            .map(|b| b.mailboxes.mailbox_bytes(mailbox))
    }

    /// Removes mailboxes older than `keep_from` (the paper keeps mailbox
    /// contents "for a relatively long time", §5.1, but not forever).
    pub fn expire_before(&mut self, keep_from: Round) {
        Arc::make_mut(&mut self.add_friend).retain(|r, _| *r >= keep_from.0);
        Arc::make_mut(&mut self.dialing).retain(|r, _| *r >= keep_from.0);
    }

    /// Total bytes served to clients so far (including snapshot-path
    /// downloads).
    pub fn bytes_served(&self) -> u64 {
        self.stats.bytes_served.load(Ordering::Relaxed)
    }

    /// Total number of mailbox downloads served (including snapshot-path
    /// downloads).
    pub fn downloads(&self) -> u64 {
        self.stats.downloads.load(Ordering::Relaxed)
    }

    /// Parity overhead bytes served by the erasure-coded distribution layer
    /// (zero when mailboxes are served whole from the origin).
    pub fn parity_bytes_served(&self) -> u64 {
        self.stats.parity_bytes_served.load(Ordering::Relaxed)
    }

    /// Individual shard fetches served by CDN nodes (zero when mailboxes are
    /// served whole from the origin).
    pub fn shard_fetches(&self) -> u64 {
        self.stats.shard_fetches.load(Ordering::Relaxed)
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

    #[test]
    fn publish_and_fetch_add_friend() {
        let mut cdn = Cdn::new();
        cdn.publish_add_friend(Round(3), add_friend_boxes());
        let contents = cdn
            .fetch_add_friend_mailbox(Round(3), MailboxId(0))
            .unwrap();
        assert_eq!(contents.len(), 1);
        assert_eq!(cdn.downloads(), 1);
        assert_eq!(cdn.bytes_served(), AddFriendEnvelope::CIPHERTEXT_LEN as u64);
        assert_eq!(
            cdn.add_friend_mailbox_size(Round(3), MailboxId(0)),
            Some(AddFriendEnvelope::CIPHERTEXT_LEN)
        );
        assert!(cdn
            .fetch_add_friend_mailbox(Round(9), MailboxId(0))
            .is_none());
    }

    #[test]
    fn publish_and_fetch_dialing() {
        let mut cdn = Cdn::new();
        cdn.publish_dialing(Round(5), dialing_boxes(), None);
        let filter = cdn.fetch_dialing_mailbox(Round(5), MailboxId(0)).unwrap();
        assert!(filter.contains(&[7u8; 32]));
        // Charged as the blob the shard fleet would serve.
        assert_eq!(
            cdn.bytes_served(),
            alpenhorn_wire::cdn::encode_dialing_blob(&filter.to_bytes(), None).len() as u64
        );
        assert!(cdn.fetch_dialing_mailbox(Round(5), MailboxId(3)).is_none());
        assert!(cdn.dialing_mailbox_size(Round(5), MailboxId(0)).unwrap() > 0);
    }

    #[test]
    fn sharded_download_accounting_matches_undistributed() {
        let m = mailbox_metrics();
        let (bytes_before, downloads_before) = (m.bytes_served.get(), m.downloads.get());

        // The same logical mailbox download, served whole from the origin
        // and reassembled from a shard fleet (5 shard fetches, 1 KiB of
        // parity overhead): the whole-mailbox figures must be identical.
        let whole = CdnStats::default();
        let sharded = CdnStats::default();
        whole.serve(4096);
        sharded.serve_sharded_download(4096, 1024, 5);

        let w = whole.wire();
        let s = sharded.wire();
        assert_eq!(w.bytes_served, s.bytes_served);
        assert_eq!(w.downloads, s.downloads);
        assert_eq!((w.parity_bytes_served, w.shard_fetches), (0, 0));
        assert_eq!((s.parity_bytes_served, s.shard_fetches), (1024, 5));

        // The registry mirror counts each logical download exactly once —
        // never the shard fan-out. Other tests may serve downloads
        // concurrently, so the deltas are lower bounds.
        assert!(m.bytes_served.get() >= bytes_before + 2 * 4096);
        assert!(m.downloads.get() >= downloads_before + 2);
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
