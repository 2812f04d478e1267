//! One CDN node: an erasure-shard store behind the `cdnd` request protocol.
//!
//! A node keeps no serving counters of its own. What it stores and serves
//! is counted in the process registry (`cdn_node_*`, see
//! `docs/OBSERVABILITY.md`) and read through `GetTelemetry`, like every
//! other daemon's metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use alpenhorn_obs::SpanGuard;
use alpenhorn_wire::cdn::MAX_SHARDS;
use alpenhorn_wire::rpc::{SpanWire, TelemetryWire};
use alpenhorn_wire::server::{ConnectionEvent, Exclusive, ServerConfig};
use alpenhorn_wire::{CdnRequest, CdnResponse, Round, RoundKind, ShardHeader};

/// The span component tag for code running inside a CDN node. In a real
/// deployment each `cdnd` process only ever records spans with this tag; in
/// single-process tests the tag is what separates node-side spans from
/// coordinator- and mixer-side ones.
pub const SPAN_COMPONENT: &str = "cdn";

/// The node's serving counters and the serve loop's connection accounting,
/// in the shared registry.
struct NodeMetrics {
    shard_puts: Arc<alpenhorn_obs::Counter>,
    shard_fetches: Arc<alpenhorn_obs::Counter>,
    bytes_served: Arc<alpenhorn_obs::Counter>,
    connections_active: Arc<alpenhorn_obs::Gauge>,
    connections_shed: Arc<alpenhorn_obs::Counter>,
}

fn node_metrics() -> &'static NodeMetrics {
    static METRICS: std::sync::OnceLock<NodeMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        NodeMetrics {
            shard_puts: r.counter("cdn_node_shard_puts_total", &[]),
            shard_fetches: r.counter("cdn_node_shard_fetches_total", &[]),
            bytes_served: r.counter("cdn_node_bytes_served_total", &[]),
            connections_active: r.gauge("cdn_node_connections_active", &[]),
            connections_shed: r.counter("cdn_node_connections_shed_total", &[]),
        }
    })
}

/// Builds the node's [`CdnResponse::Telemetry`] payload: the global metrics
/// exposition plus every recent span recorded under [`SPAN_COMPONENT`].
pub fn telemetry_wire() -> TelemetryWire {
    TelemetryWire {
        exposition: alpenhorn_obs::global().expose(),
        spans: alpenhorn_obs::spans_for(SPAN_COMPONENT)
            .into_iter()
            .map(|s| SpanWire {
                component: s.component.to_string(),
                name: s.name.to_string(),
                correlation: s.correlation,
                start_us: s.start_us,
                duration_us: s.duration_us,
            })
            .collect(),
    }
}

/// A stored-shard key, ordered round-first so expiry is a range delete.
pub(crate) type ShardKey = (u64, u8, u32, u16);

pub(crate) fn shard_key(kind: RoundKind, round: Round, mailbox: u32, index: u16) -> ShardKey {
    let kind = match kind {
        RoundKind::AddFriend => 0u8,
        RoundKind::Dialing => 1u8,
    };
    (round.0, kind, mailbox, index)
}

struct StoredShard {
    header: ShardHeader,
    bytes: Vec<u8>,
}

/// One CDN node's state: its stored shards. With a data directory attached,
/// every put/expire is mirrored to disk and a restarted node reloads its
/// shards before serving — a node crash loses nothing that was
/// acknowledged.
pub struct CdnNodeState {
    shards: BTreeMap<ShardKey, StoredShard>,
    data_dir: Option<PathBuf>,
}

impl Default for CdnNodeState {
    fn default() -> Self {
        Self::new()
    }
}

impl CdnNodeState {
    /// An empty, memory-only node.
    pub fn new() -> Self {
        CdnNodeState {
            shards: BTreeMap::new(),
            data_dir: None,
        }
    }

    /// A durable node: shards live under `dir` (one file per shard) and are
    /// reloaded here, before the caller binds a listener.
    pub fn with_data_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut node = CdnNodeState::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(key) = parse_shard_filename(name) else {
                continue;
            };
            let bytes = std::fs::read(&path)?;
            if let Some((header, shard)) = decode_shard_file(&bytes) {
                node.shards.insert(
                    key,
                    StoredShard {
                        header,
                        bytes: shard,
                    },
                );
            }
        }
        node.data_dir = Some(dir);
        Ok(node)
    }

    /// Shards currently stored.
    pub fn shards_stored(&self) -> u64 {
        self.shards.len() as u64
    }

    /// Bytes currently stored across all shards.
    pub fn bytes_stored(&self) -> u64 {
        self.shards.values().map(|s| s.bytes.len() as u64).sum()
    }

    /// Dispatches one request. Failures come back as
    /// [`CdnResponse::Error`], never a panic.
    pub fn handle(&mut self, request: CdnRequest) -> CdnResponse {
        match request {
            CdnRequest::PutShard {
                kind,
                round,
                mailbox,
                index,
                header,
                shard,
            } => {
                let total = header.data_shards as usize + header.parity_shards as usize;
                if index as usize >= total || total > MAX_SHARDS {
                    return CdnResponse::Error(format!(
                        "shard index {index} out of range for {}+{} encoding",
                        header.data_shards, header.parity_shards
                    ));
                }
                let key = shard_key(kind, round, mailbox.0, index);
                if let Some(dir) = &self.data_dir {
                    let path = dir.join(shard_filename(key));
                    if let Err(e) = std::fs::write(&path, encode_shard_file(&header, &shard)) {
                        return CdnResponse::Error(format!(
                            "cannot persist shard to {}: {e}",
                            path.display()
                        ));
                    }
                }
                self.shards.insert(
                    key,
                    StoredShard {
                        header,
                        bytes: shard,
                    },
                );
                node_metrics().shard_puts.inc();
                CdnResponse::Ack
            }
            CdnRequest::GetShard {
                kind,
                round,
                mailbox,
                index,
            } => match self.shards.get(&shard_key(kind, round, mailbox.0, index)) {
                Some(stored) => {
                    let m = node_metrics();
                    m.shard_fetches.inc();
                    m.bytes_served.add(stored.bytes.len() as u64);
                    CdnResponse::Shard {
                        header: stored.header,
                        shard: stored.bytes.clone(),
                    }
                }
                None => CdnResponse::NotFound,
            },
            CdnRequest::Expire { keep_from } => {
                let kept = self.shards.split_off(&(keep_from.0, 0, 0, 0));
                let dropped = std::mem::replace(&mut self.shards, kept);
                if let Some(dir) = &self.data_dir {
                    for key in dropped.keys() {
                        let _ = std::fs::remove_file(dir.join(shard_filename(*key)));
                    }
                }
                CdnResponse::Ack
            }
            CdnRequest::GetTelemetry => CdnResponse::Telemetry(telemetry_wire()),
        }
    }
}

impl Exclusive for CdnNodeState {
    /// Round-scoped requests record a node-side span under the correlation
    /// id of their `(protocol, round)`, so one add-friend round can be traced
    /// from the coordinator into every node that stored or served its
    /// shards. Undecodable payloads come back as encoded
    /// [`CdnResponse::Error`]s, keeping the connection alive and aligned.
    fn respond(&mut self, payload: &[u8]) -> Vec<u8> {
        match CdnRequest::decode(payload) {
            Ok(request) => {
                let _span = request.round_scope().map(|(kind, round)| {
                    SpanGuard::begin(
                        SPAN_COMPONENT,
                        request.name(),
                        alpenhorn_obs::correlation_id(kind.code(), round.0),
                    )
                });
                self.handle(request)
            }
            Err(e) => CdnResponse::Error(format!("undecodable cdn request: {e}")),
        }
        .encode()
    }

    fn error_reply(detail: &str) -> Vec<u8> {
        CdnResponse::Error(detail.to_string()).encode()
    }

    fn on_event(event: ConnectionEvent) {
        let metrics = node_metrics();
        match event {
            ConnectionEvent::Opened => metrics.connections_active.add(1),
            ConnectionEvent::Closed => metrics.connections_active.sub(1),
            ConnectionEvent::Shed => metrics.connections_shed.inc(),
        }
    }
}

fn shard_filename(key: ShardKey) -> String {
    let (round, kind, mailbox, index) = key;
    format!("r{round}-k{kind}-m{mailbox}-s{index}.shard")
}

fn parse_shard_filename(name: &str) -> Option<ShardKey> {
    let rest = name.strip_suffix(".shard")?;
    let mut parts = rest.split('-');
    let round = parts.next()?.strip_prefix('r')?.parse().ok()?;
    let kind: u8 = parts.next()?.strip_prefix('k')?.parse().ok()?;
    let mailbox = parts.next()?.strip_prefix('m')?.parse().ok()?;
    let index = parts.next()?.strip_prefix('s')?.parse().ok()?;
    if parts.next().is_some() || kind > 1 {
        return None;
    }
    Some((round, kind, mailbox, index))
}

/// On-disk shard file: 12-byte geometry header, then the shard bytes.
fn encode_shard_file(header: &ShardHeader, shard: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + shard.len());
    out.extend_from_slice(&header.data_shards.to_be_bytes());
    out.extend_from_slice(&header.parity_shards.to_be_bytes());
    out.extend_from_slice(&header.blob_len.to_be_bytes());
    out.extend_from_slice(shard);
    out
}

fn decode_shard_file(bytes: &[u8]) -> Option<(ShardHeader, Vec<u8>)> {
    if bytes.len() < 12 {
        return None;
    }
    let header = ShardHeader {
        data_shards: u16::from_be_bytes(bytes[0..2].try_into().ok()?),
        parity_shards: u16::from_be_bytes(bytes[2..4].try_into().ok()?),
        blob_len: u64::from_be_bytes(bytes[4..12].try_into().ok()?),
    };
    if header.data_shards == 0 {
        return None;
    }
    Some((header, bytes[12..].to_vec()))
}

/// Read/write timeout per connection, on both ends.
pub(crate) const CONNECTION_IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The serve-loop configuration of a `cdnd`: the default connection cap,
/// both I/O timeouts at 60 s. Serve a node as
/// `alpenhorn_wire::server::serve(addr, server_config(), Mutex::new(state))`.
/// A connection over the cap is closed without a reply, which a reader
/// treats like a dead node: it falls back to parity shards.
/// [`ServerHandle::shutdown`](alpenhorn_wire::server::ServerHandle::shutdown)
/// makes a node look crashed to its clients — connects are refused, open
/// connections see EOF and a buffered request gets no reply — while its
/// state survives on disk (with a data directory), as a real crash's would.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Some(CONNECTION_IO_TIMEOUT),
        write_timeout: Some(CONNECTION_IO_TIMEOUT),
        ..ServerConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_wire::MailboxId;

    fn header() -> ShardHeader {
        ShardHeader {
            data_shards: 3,
            parity_shards: 1,
            blob_len: 10,
        }
    }

    fn put(round: u64, index: u16, fill: u8) -> CdnRequest {
        CdnRequest::PutShard {
            kind: RoundKind::AddFriend,
            round: Round(round),
            mailbox: MailboxId(0),
            index,
            header: header(),
            shard: vec![fill; 4],
        }
    }

    #[test]
    fn put_get_expire_lifecycle() {
        let m = node_metrics();
        let served_before = (m.shard_fetches.get(), m.bytes_served.get());
        let mut node = CdnNodeState::new();
        assert_eq!(node.handle(put(1, 0, 0xaa)), CdnResponse::Ack);
        assert_eq!(node.handle(put(2, 1, 0xbb)), CdnResponse::Ack);
        let got = node.handle(CdnRequest::GetShard {
            kind: RoundKind::AddFriend,
            round: Round(1),
            mailbox: MailboxId(0),
            index: 0,
        });
        assert_eq!(
            got,
            CdnResponse::Shard {
                header: header(),
                shard: vec![0xaa; 4]
            }
        );
        assert_eq!(
            node.handle(CdnRequest::Expire {
                keep_from: Round(2)
            }),
            CdnResponse::Ack
        );
        assert_eq!(
            node.handle(CdnRequest::GetShard {
                kind: RoundKind::AddFriend,
                round: Round(1),
                mailbox: MailboxId(0),
                index: 0,
            }),
            CdnResponse::NotFound
        );
        assert_eq!((node.shards_stored(), node.bytes_stored()), (1, 4));
        // One 4-byte shard served. Other tests serve shards concurrently,
        // so the registry deltas are lower bounds.
        assert!(m.shard_fetches.get() > served_before.0);
        assert!(m.bytes_served.get() >= served_before.1 + 4);
    }

    #[test]
    fn out_of_range_shard_index_is_a_typed_error() {
        let mut node = CdnNodeState::new();
        let response = node.handle(CdnRequest::PutShard {
            kind: RoundKind::Dialing,
            round: Round(1),
            mailbox: MailboxId(0),
            index: 4, // 3 + 1 encoding: valid indices are 0..4
            header: header(),
            shard: vec![0u8; 4],
        });
        assert!(matches!(response, CdnResponse::Error(_)), "{response:?}");
    }

    #[test]
    fn data_dir_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("cdnd-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut node = CdnNodeState::with_data_dir(&dir).unwrap();
            node.handle(put(3, 2, 0xcc));
        }
        let mut reborn = CdnNodeState::with_data_dir(&dir).unwrap();
        assert_eq!(
            reborn.handle(CdnRequest::GetShard {
                kind: RoundKind::AddFriend,
                round: Round(3),
                mailbox: MailboxId(0),
                index: 2,
            }),
            CdnResponse::Shard {
                header: header(),
                shard: vec![0xcc; 4]
            }
        );
        // Expiry removes the on-disk mirror too.
        reborn.handle(CdnRequest::Expire {
            keep_from: Round(4),
        });
        let third = CdnNodeState::with_data_dir(&dir).unwrap();
        assert_eq!(third.shards_stored(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_requests_keep_the_node_alive() {
        let mut node = CdnNodeState::new();
        let bytes = node.respond(&[0xff, 0x01]);
        assert!(matches!(
            CdnResponse::decode(&bytes).unwrap(),
            CdnResponse::Error(_)
        ));
    }
}
