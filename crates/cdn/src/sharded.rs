//! The any-k-of-n layer: publish mailbox blobs as erasure shards across a
//! node fleet, read them back from whichever nodes answer.

use std::sync::{Arc, Mutex, OnceLock};

use alpenhorn_erasure::{encode, reconstruct, CodeParams};
use alpenhorn_obs::{Counter, SpanGuard};
use alpenhorn_wire::{CdnRequest, CdnResponse, MailboxId, Round, RoundKind, ShardHeader};

use crate::client::NodeClient;
use crate::error::CdnError;

/// Reader/publisher-side counters for the sharded layer, kept in the shared
/// registry so the erasure-coded deployment's accounting is visible next to
/// the coordinator's origin-serving counters.
struct ShardedMetrics {
    publishes: Arc<Counter>,
    publish_failures: Arc<Counter>,
    fetches: Arc<Counter>,
    shard_fetches: Arc<Counter>,
    data_bytes: Arc<Counter>,
    parity_bytes: Arc<Counter>,
    parity_decodes: Arc<Counter>,
}

fn sharded_metrics() -> &'static ShardedMetrics {
    static METRICS: OnceLock<ShardedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        ShardedMetrics {
            publishes: r.counter("cdn_publishes_total", &[]),
            publish_failures: r.counter("cdn_publish_shard_failures_total", &[]),
            fetches: r.counter("cdn_fetches_total", &[]),
            shard_fetches: r.counter("cdn_shard_fetches_total", &[]),
            data_bytes: r.counter("cdn_fetch_data_bytes_total", &[]),
            parity_bytes: r.counter("cdn_fetch_parity_bytes_total", &[]),
            parity_decodes: r.counter("cdn_parity_decodes_total", &[]),
        }
    })
}

/// What a publish actually landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Shards acknowledged by their nodes.
    pub stored: usize,
    /// Shards whose put failed (node down or erroring).
    pub failed: usize,
}

/// One reconstructed blob plus what it cost: how many bytes came from data
/// shards vs parity shards, and how many shard fetches it took (the same
/// figures [`ShardedCdn::fetch`] adds to the registry's `cdn_fetch*`
/// counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchOutcome {
    /// The reconstructed blob, or `None` if no node holds any shard of it.
    pub blob: Option<Vec<u8>>,
    /// Bytes fetched from data shards.
    pub data_bytes: u64,
    /// Bytes fetched from parity shards (only nonzero when nodes were lost).
    pub parity_bytes: u64,
    /// Shard fetches that returned bytes.
    pub shard_fetches: u64,
}

/// A fleet of CDN nodes holding each blob as `k` data + `m` parity shards,
/// shard `i` on node `i mod n`.
///
/// Reads are data-first: with all nodes up, a blob is the concatenation of
/// its `k` data shards and no decoding happens at all. When nodes are lost,
/// the missing rows are rebuilt from parity by the shift-XOR code — still
/// XOR-only, no field arithmetic. Any `k` surviving shards suffice as long
/// as at most `m` are gone.
///
/// Node handles live behind per-node mutexes so a shared reader (`&self`)
/// can fetch concurrently — matching the coordinator's lock-free read path,
/// where mailbox fetches must not serialize behind a service-wide lock.
pub struct ShardedCdn {
    nodes: Vec<Mutex<Box<dyn NodeClient>>>,
    params: CodeParams,
}

impl ShardedCdn {
    /// Creates the layer over `nodes` with a `data` + `parity` code.
    /// Panics if there are no nodes or the shape is degenerate, like the
    /// mix chain does on an empty server list.
    pub fn new(nodes: Vec<Box<dyn NodeClient>>, data: usize, parity: usize) -> Self {
        assert!(!nodes.is_empty(), "a CDN needs at least one node");
        assert!(data >= 1, "erasure coding needs at least one data shard");
        ShardedCdn {
            nodes: nodes.into_iter().map(Mutex::new).collect(),
            params: CodeParams::new(data, parity),
        }
    }

    /// Number of nodes in the fleet.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The coding shape `(data, parity)`.
    pub fn params(&self) -> (usize, usize) {
        (self.params.data, self.params.parity)
    }

    fn node_for(&self, shard_index: usize) -> &Mutex<Box<dyn NodeClient>> {
        &self.nodes[shard_index % self.nodes.len()]
    }

    fn call_node(&self, shard_index: usize, request: &CdnRequest) -> Result<CdnResponse, CdnError> {
        self.node_for(shard_index)
            .lock()
            .expect("cdn node handle mutex")
            .call(request)
    }

    /// Severs node `index`'s transport (scenario hooks; loopback nodes may
    /// interpret this via their liveness switch instead).
    pub fn disconnect_node(&self, index: usize) {
        self.nodes[index % self.nodes.len()]
            .lock()
            .expect("cdn node handle mutex")
            .disconnect();
    }

    /// Encodes `blob` and stores its shards across the fleet. Succeeds as
    /// long as enough shards landed that any future reader can reconstruct
    /// (at most `m` failures); more failures than that is
    /// [`CdnError::PublishDegraded`].
    pub fn publish(
        &self,
        kind: RoundKind,
        round: Round,
        mailbox: MailboxId,
        blob: &[u8],
    ) -> Result<PublishOutcome, CdnError> {
        let _span = SpanGuard::begin(
            "coordinator",
            "cdn_publish",
            alpenhorn_obs::correlation_id(kind.code(), round.0),
        );
        let shards = encode(&self.params, blob);
        let header = ShardHeader {
            data_shards: self.params.data as u16,
            parity_shards: self.params.parity as u16,
            blob_len: blob.len() as u64,
        };
        let mut outcome = PublishOutcome {
            stored: 0,
            failed: 0,
        };
        for (index, shard) in shards.into_iter().enumerate() {
            let request = CdnRequest::PutShard {
                kind,
                round,
                mailbox,
                index: index as u16,
                header,
                shard,
            };
            match self.call_node(index, &request) {
                Ok(CdnResponse::Ack) => outcome.stored += 1,
                Ok(_) | Err(_) => outcome.failed += 1,
            }
        }
        let m = sharded_metrics();
        m.publishes.inc();
        m.publish_failures.add(outcome.failed as u64);
        if outcome.failed > self.params.parity {
            return Err(CdnError::PublishDegraded {
                stored: outcome.stored,
                failed: outcome.failed,
            });
        }
        Ok(outcome)
    }

    /// Fetches and reconstructs one blob: data shards first (straight
    /// concatenation when all `k` answer), parity fallback when nodes are
    /// lost. `Ok` with `blob: None` means no node holds any shard — the
    /// blob was never published or has expired everywhere.
    pub fn fetch(
        &self,
        kind: RoundKind,
        round: Round,
        mailbox: MailboxId,
    ) -> Result<FetchOutcome, CdnError> {
        let _span = SpanGuard::begin(
            "client",
            "cdn_fetch",
            alpenhorn_obs::correlation_id(kind.code(), round.0),
        );
        let k = self.params.data;
        let total = self.params.total();
        let mut slots: Vec<Option<Vec<u8>>> = vec![None; total];
        let mut outcome = FetchOutcome {
            blob: None,
            data_bytes: 0,
            parity_bytes: 0,
            shard_fetches: 0,
        };
        let mut header: Option<ShardHeader> = None;
        let mut any_answered = false;
        let mut missing_data = 0usize;

        let try_shard = |index: usize,
                         slots: &mut Vec<Option<Vec<u8>>>,
                         outcome: &mut FetchOutcome,
                         header: &mut Option<ShardHeader>,
                         any_answered: &mut bool|
         -> bool {
            let request = CdnRequest::GetShard {
                kind,
                round,
                mailbox,
                index: index as u16,
            };
            match self.call_node(index, &request) {
                Ok(CdnResponse::Shard { header: got, shard }) => {
                    *any_answered = true;
                    outcome.shard_fetches += 1;
                    if index < k {
                        outcome.data_bytes += shard.len() as u64;
                    } else {
                        outcome.parity_bytes += shard.len() as u64;
                    }
                    header.get_or_insert(got);
                    slots[index] = Some(shard);
                    true
                }
                Ok(CdnResponse::NotFound) => {
                    *any_answered = true;
                    false
                }
                Ok(_) | Err(_) => false,
            }
        };

        for index in 0..k {
            if !try_shard(
                index,
                &mut slots,
                &mut outcome,
                &mut header,
                &mut any_answered,
            ) {
                missing_data += 1;
            }
        }
        // Parity fallback: one extra shard per missing data shard.
        let mut parity_index = k;
        let mut recovered = 0usize;
        while recovered < missing_data && parity_index < total {
            if try_shard(
                parity_index,
                &mut slots,
                &mut outcome,
                &mut header,
                &mut any_answered,
            ) {
                recovered += 1;
            }
            parity_index += 1;
        }

        let m = sharded_metrics();
        m.fetches.inc();
        m.shard_fetches.add(outcome.shard_fetches);
        m.data_bytes.add(outcome.data_bytes);
        m.parity_bytes.add(outcome.parity_bytes);

        let Some(header) = header else {
            if any_answered {
                // Nodes are up but hold nothing: expired or never published.
                return Ok(outcome);
            }
            return Err(CdnError::Io {
                kind: std::io::ErrorKind::ConnectionRefused,
                detail: "no cdn node answered".to_string(),
            });
        };
        // Trust the stored geometry over our own config: readers must
        // decode blobs published under a different shape.
        let params = CodeParams::new(header.data_shards as usize, header.parity_shards as usize);
        if outcome.parity_bytes > 0 {
            m.parity_decodes.inc();
        }
        let mut stored_slots = slots;
        stored_slots.resize(params.total(), None);
        let blob = reconstruct(&params, header.blob_len as usize, &stored_slots)
            .map_err(CdnError::NotEnoughShards)?;
        outcome.blob = Some(blob);
        Ok(outcome)
    }

    /// Tells every node to drop shards for rounds before `keep_from`.
    /// Best-effort: downed nodes expire on their own next restart cycle.
    pub fn expire_before(&self, keep_from: Round) {
        let request = CdnRequest::Expire { keep_from };
        for index in 0..self.nodes.len() {
            let _ = self.call_node(index, &request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LoopbackNode;

    fn fleet(n: usize) -> (ShardedCdn, Vec<LoopbackNode>) {
        let handles: Vec<LoopbackNode> = (0..n).map(|_| LoopbackNode::new()).collect();
        let nodes: Vec<Box<dyn NodeClient>> = handles
            .iter()
            .map(|h| Box::new(h.clone_handle()) as Box<dyn NodeClient>)
            .collect();
        (ShardedCdn::new(nodes, 3, 1), handles)
    }

    #[test]
    fn publish_then_fetch_uses_data_shards_only() {
        let (cdn, _handles) = fleet(4);
        let blob: Vec<u8> = (0..100u8).collect();
        let outcome = cdn
            .publish(RoundKind::AddFriend, Round(1), MailboxId(0), &blob)
            .unwrap();
        assert_eq!(
            outcome,
            PublishOutcome {
                stored: 4,
                failed: 0
            }
        );
        let fetched = cdn
            .fetch(RoundKind::AddFriend, Round(1), MailboxId(0))
            .unwrap();
        assert_eq!(fetched.blob.as_deref(), Some(blob.as_slice()));
        assert_eq!(fetched.parity_bytes, 0, "healthy fleet never reads parity");
        assert_eq!(fetched.shard_fetches, 3);
    }

    #[test]
    fn one_lost_node_falls_back_to_parity() {
        let (cdn, handles) = fleet(4);
        let blob: Vec<u8> = (0..77u8).collect();
        cdn.publish(RoundKind::Dialing, Round(2), MailboxId(3), &blob)
            .unwrap();
        // Node 1 holds data shard 1; kill it.
        handles[1].set_alive(false);
        let fetched = cdn
            .fetch(RoundKind::Dialing, Round(2), MailboxId(3))
            .unwrap();
        assert_eq!(fetched.blob.as_deref(), Some(blob.as_slice()));
        assert!(fetched.parity_bytes > 0, "parity must cover the lost node");
    }

    #[test]
    fn two_lost_nodes_exceed_the_parity_budget() {
        let (cdn, handles) = fleet(4);
        cdn.publish(RoundKind::AddFriend, Round(3), MailboxId(0), &[1, 2, 3])
            .unwrap();
        handles[0].set_alive(false);
        handles[1].set_alive(false);
        let err = cdn.fetch(RoundKind::AddFriend, Round(3), MailboxId(0));
        assert!(matches!(err, Err(CdnError::NotEnoughShards(_))), "{err:?}");
    }

    #[test]
    fn unpublished_blob_is_none_not_an_error() {
        let (cdn, _handles) = fleet(4);
        let fetched = cdn
            .fetch(RoundKind::AddFriend, Round(9), MailboxId(0))
            .unwrap();
        assert_eq!(fetched.blob, None);
        assert_eq!(fetched.shard_fetches, 0);
    }

    #[test]
    fn publish_tolerates_at_most_parity_node_failures() {
        let (cdn, handles) = fleet(4);
        handles[2].set_alive(false);
        let outcome = cdn
            .publish(RoundKind::AddFriend, Round(4), MailboxId(0), &[9; 50])
            .unwrap();
        assert_eq!(
            outcome,
            PublishOutcome {
                stored: 3,
                failed: 1
            }
        );
        handles[3].set_alive(false);
        let err = cdn.publish(RoundKind::AddFriend, Round(5), MailboxId(0), &[9; 50]);
        assert!(
            matches!(
                err,
                Err(CdnError::PublishDegraded {
                    stored: 2,
                    failed: 2
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn expire_drops_old_rounds_fleet_wide() {
        let (cdn, handles) = fleet(4);
        cdn.publish(RoundKind::AddFriend, Round(1), MailboxId(0), &[1; 30])
            .unwrap();
        cdn.publish(RoundKind::AddFriend, Round(5), MailboxId(0), &[2; 30])
            .unwrap();
        cdn.expire_before(Round(5));
        assert_eq!(
            cdn.fetch(RoundKind::AddFriend, Round(1), MailboxId(0))
                .unwrap()
                .blob,
            None
        );
        assert!(cdn
            .fetch(RoundKind::AddFriend, Round(5), MailboxId(0))
            .unwrap()
            .blob
            .is_some());
        let stored: u64 = handles
            .iter()
            .map(|h| h.state().lock().unwrap().shards_stored())
            .sum();
        assert_eq!(stored, 4);
    }
}
