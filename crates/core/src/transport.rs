//! Transports carrying the client ↔ coordinator RPC protocol.
//!
//! The [`Client`](crate::Client) never touches a server object directly; it
//! issues [`Request`]s through a [`Transport`] and interprets the
//! [`Response`]s. Two transports are provided:
//!
//! * [`LoopbackTransport`] — wraps an in-process
//!   [`CoordinatorService`] (and thus a [`Cluster`]). No serialization, no
//!   I/O, fully deterministic: this is what tests, examples, and the
//!   scenario engine use, and it preserves the exact semantics of the
//!   pre-RPC in-process cluster. Cloning a loopback transport yields another
//!   handle to the *same* deployment, mirroring multiple TCP connections to
//!   one daemon.
//! * [`TcpTransport`] — a persistent framed connection to a remote
//!   `alpenhornd` (see `alpenhorn-coordinator`'s `server` module), one
//!   request/response exchange per call.
//!
//! Both paths funnel into the same service dispatch on the server side, so a
//! seeded scenario produces byte-identical client events over either
//! transport (covered by `tests/transport_equivalence.rs`).

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use alpenhorn_bloom::DialSet;
use alpenhorn_cdn::ShardedCdn;
use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ServiceWriteGuard, SharedCoordinator};
use alpenhorn_obs::Counter;
use alpenhorn_wire::cdn::{decode_add_friend_blob, decode_dialing_blob};
use alpenhorn_wire::codec::FrameIoError;
use alpenhorn_wire::server::connect;
use alpenhorn_wire::{Frame, Request, Response, RoundKind, WireError};

/// Errors raised by a transport itself (as opposed to typed errors the
/// coordinator reports inside a [`Response::Error`], which the client
/// surfaces as [`crate::ClientError`] variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A message or frame failed to encode or decode.
    Wire(WireError),
    /// The underlying connection failed.
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The connection was poisoned by an earlier failure and must be
    /// replaced; `original` is that first failure (e.g. the framing error
    /// that desynchronized the stream). Returned by every call made on a
    /// poisoned [`TcpTransport`] until the caller reconnects.
    Poisoned {
        /// The failure that poisoned the connection.
        original: Box<TransportError>,
    },
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Wire(e) => write!(f, "transport wire error: {e}"),
            TransportError::Io { kind, detail } => {
                write!(f, "transport I/O error ({kind:?}): {detail}")
            }
            TransportError::Poisoned { original } => {
                write!(
                    f,
                    "connection poisoned by an earlier transport failure ({original}); reconnect"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<FrameIoError> for TransportError {
    fn from(e: FrameIoError) -> Self {
        match e {
            FrameIoError::Io(e) => e.into(),
            FrameIoError::Wire(e) => e.into(),
        }
    }
}

/// A bidirectional request/response channel to an Alpenhorn coordinator.
pub trait Transport {
    /// Sends one request and waits for its response.
    fn call(&mut self, request: Request) -> Result<Response, TransportError>;

    /// Attempts to restore the transport to a callable state after a
    /// failure — the recovery hook the client's retry policy invokes before
    /// re-attempting a call on a poisoned connection.
    ///
    /// The default is a no-op `Ok(())`, which is correct for stateless
    /// transports (loopback dispatch has no connection to replace).
    /// [`TcpTransport`] reconnects to its original address and clears the
    /// poisoned marker.
    fn reset(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// In-process transport: dispatches requests straight onto a
/// [`SharedCoordinator`] with no serialization or I/O.
///
/// Clones share the underlying deployment, so one test can hand "connections"
/// to several clients plus a round-driving admin, exactly like multiple TCP
/// connections to one daemon. Calls go through the same snapshot fast path
/// the TCP server uses, so loopback tests exercise the concurrent dispatch,
/// not a privileged shortcut.
#[derive(Clone)]
pub struct LoopbackTransport {
    shared: SharedCoordinator,
}

impl LoopbackTransport {
    /// Wraps a cluster in a default-configured service (no rate limiting).
    pub fn new(cluster: Cluster) -> Self {
        Self::with_service(CoordinatorService::new(cluster))
    }

    /// Wraps an explicitly configured service.
    pub fn with_service(service: CoordinatorService) -> Self {
        LoopbackTransport {
            shared: SharedCoordinator::new(service),
        }
    }

    /// The shared coordinator handle behind this transport, for callers that
    /// dispatch requests concurrently (servers, benchmarks).
    pub fn shared(&self) -> &SharedCoordinator {
        &self.shared
    }

    /// Takes the service write lock and returns the guard, for server-side
    /// operations (driving rounds, inspecting the CDN, advancing the
    /// simulated clock). Dropping the guard republishes the read snapshot.
    /// Do not hold the guard across a [`Transport::call`] on the same
    /// transport.
    pub fn service(&self) -> ServiceWriteGuard<'_> {
        self.shared.write()
    }

    /// Runs `f` with mutable access to the underlying cluster — the
    /// server-side escape hatch for round driving and test inspection.
    pub fn with_cluster<R>(&self, f: impl FnOnce(&mut Cluster) -> R) -> R {
        f(self.service().cluster_mut())
    }

    /// Crash-restarts the deployment behind this transport in place: the
    /// current [`CoordinatorService`] is dropped (the "crash" — all
    /// in-memory state is lost) and replaced by whatever `rebuild` returns,
    /// typically a service recovered from durable storage. Every clone of
    /// this transport — including fault-injection wrappers holding one —
    /// sees the recovered deployment on its next call, exactly as TCP
    /// clients see a restarted daemon. The scenario engine's crash-restart
    /// storm events are built on this.
    pub fn restart_with(&self, rebuild: impl FnOnce() -> CoordinatorService) {
        let mut guard = self.service();
        // Swap in a throwaway placeholder first so the old service (and any
        // storage handles it owns, e.g. an open WAL) is fully dropped before
        // `rebuild` reopens the same directory.
        let placeholder =
            CoordinatorService::new(Cluster::new(alpenhorn_coordinator::ClusterConfig::test(0)));
        drop(std::mem::replace(&mut *guard, placeholder));
        *guard = rebuild();
    }
}

impl Transport for LoopbackTransport {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        Ok(self.shared.handle(request))
    }
}

/// TCP transport: one persistent framed connection to an `alpenhornd`
/// daemon, one request/response exchange per call.
///
/// After any I/O or framing failure the connection is poisoned: the stream
/// offset can no longer be trusted (a partial frame may remain buffered), so
/// every later call fails fast with [`TransportError::Poisoned`] — carrying
/// the original failure — instead of parsing mid-frame bytes as a header and
/// hanging. Reconnect to recover.
pub struct TcpTransport {
    stream: TcpStream,
    /// The resolved peer address, kept so [`TcpTransport::reconnect`] can
    /// replace a poisoned connection.
    peer: std::net::SocketAddr,
    /// Read/write timeout applied to the socket (and to reconnections).
    io_timeout: Option<Duration>,
    /// The first failure, kept so reuse reports *why* the connection died.
    poisoned: Option<TransportError>,
}

impl TcpTransport {
    /// How long a connection attempt may take before giving up. Without a
    /// bound, a dead coordinator holds the client in the OS connect default
    /// (minutes).
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
    /// Default socket read/write timeout: long enough for a round close (the
    /// coordinator runs the mixnet synchronously before answering), short
    /// enough that a hung daemon cannot strand the client indefinitely.
    pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(60);

    /// Connects to a coordinator at `addr` with the default connect and I/O
    /// timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with_timeouts(
            addr,
            Self::DEFAULT_CONNECT_TIMEOUT,
            Some(Self::DEFAULT_IO_TIMEOUT),
        )
    }

    /// Connects with explicit timeouts. Each resolved address is tried in
    /// order with [`TcpStream::connect_timeout`]; `io_timeout: None` disables
    /// the socket read/write timeouts.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = connect(addr, connect_timeout, io_timeout)?;
        Ok(TcpTransport {
            peer: stream.peer_addr()?,
            stream,
            io_timeout,
            poisoned: None,
        })
    }

    /// Whether the connection has been poisoned by an earlier failure and
    /// must be replaced.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Replaces the underlying connection with a fresh one to the original
    /// peer address and clears the poisoned marker — the recovery path from
    /// [`TransportError::Poisoned`] that does not require rebuilding the
    /// client. Fails (leaving any poisoned state in place) if the peer cannot
    /// be reached.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = connect(self.peer, Self::DEFAULT_CONNECT_TIMEOUT, self.io_timeout)?;
        self.poisoned = None;
        Ok(())
    }

    fn poison(&mut self, original: TransportError) -> TransportError {
        self.poisoned = Some(original.clone());
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        original
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        if let Some(original) = &self.poisoned {
            return Err(TransportError::Poisoned {
                original: Box::new(original.clone()),
            });
        }
        if let Err(e) = Frame::write_to(&mut self.stream, &request.encode()) {
            return Err(self.poison(e.into()));
        }
        let payload = match Frame::read_from(&mut self.stream) {
            Ok(payload) => payload,
            Err(e) => return Err(self.poison(e.into())),
        };
        // A response that fails to decode arrived inside an intact frame, so
        // the stream is still aligned — no need to poison.
        Ok(Response::decode(&payload)?)
    }

    /// Reconnects if (and only if) the connection is poisoned; a healthy
    /// connection is left alone.
    fn reset(&mut self) -> Result<(), TransportError> {
        if self.poisoned.is_none() {
            return Ok(());
        }
        self.reconnect().map_err(TransportError::from)
    }
}

/// A transport that offloads mailbox downloads to an erasure-coded CDN
/// fleet, passing everything else to the inner transport (the paper's §7
/// deployment: the coordinator hands out mailbox state, a CDN serves it).
///
/// `FetchAddFriendMailbox`/`FetchDialingMailbox` are answered by fetching
/// and reassembling the round's shards from any `k` live nodes. Any miss —
/// unpublished round, empty mailbox, too many dead nodes, or a blob that
/// fails validation — falls back to the inner transport, so the origin stays
/// authoritative and this wrapper can never make a fetch *less* available.
/// Each fallback counts in `client_cdn_origin_fallbacks_total`. The fallback
/// answer is byte-identical to the shard-path answer because the
/// coordinator publishes the same encoded blobs it serves.
pub struct CdnRoutedTransport<T> {
    inner: T,
    fleet: Arc<ShardedCdn>,
}

/// Mailbox fetches the fleet could not answer, served by the origin.
fn origin_fallbacks() -> &'static Counter {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER
        .get_or_init(|| alpenhorn_obs::global().counter("client_cdn_origin_fallbacks_total", &[]))
}

/// The reply a mailbox blob from the fleet stands for, or `None` when the
/// blob fails validation: a corrupt blob must fall back to the origin, not
/// poison the client's scan.
fn fleet_reply(kind: RoundKind, blob: &[u8]) -> Option<Response> {
    match kind {
        RoundKind::AddFriend => decode_add_friend_blob(blob)
            .ok()
            .map(|contents| Response::AddFriendMailbox { contents }),
        RoundKind::Dialing => {
            let (filter, next_round) = decode_dialing_blob(blob).ok()?;
            DialSet::validate(filter).ok()?;
            Some(Response::DialingMailbox {
                filter: filter.to_vec(),
                next_round,
            })
        }
    }
}

impl<T> CdnRoutedTransport<T> {
    /// Routes mailbox fetches to `fleet`, everything else to `inner`.
    pub fn new(inner: T, fleet: Arc<ShardedCdn>) -> Self {
        CdnRoutedTransport { inner, fleet }
    }

    /// The inner transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for CdnRoutedTransport<T> {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        let (kind, round, mailbox) = match &request {
            Request::FetchAddFriendMailbox { round, mailbox } => {
                (RoundKind::AddFriend, *round, *mailbox)
            }
            Request::FetchDialingMailbox { round, mailbox } => {
                (RoundKind::Dialing, *round, *mailbox)
            }
            _ => return self.inner.call(request),
        };
        let blob = self
            .fleet
            .fetch(kind, round, mailbox)
            .ok()
            .and_then(|o| o.blob);
        if let Some(reply) = blob.and_then(|blob| fleet_reply(kind, &blob)) {
            return Ok(reply);
        }
        origin_fallbacks().inc();
        self.inner.call(request)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_cdn::{LoopbackNode, NodeClient};
    use alpenhorn_coordinator::ClusterConfig;
    use alpenhorn_wire::cdn::encode_dialing_blob;
    use alpenhorn_wire::{MailboxId, Round};

    /// Counts the calls that reach the origin.
    struct Origin {
        inner: LoopbackTransport,
        calls: usize,
    }

    impl Transport for Origin {
        fn call(&mut self, request: Request) -> Result<Response, TransportError> {
            self.calls += 1;
            self.inner.call(request)
        }
    }

    #[test]
    fn undecodable_dialing_blobs_fall_back_to_the_origin() {
        let origin = LoopbackTransport::new(Cluster::new(ClusterConfig::test(7)));
        origin
            .with_cluster(|c| {
                c.begin_dialing_round(Round(1), 1)?;
                c.close_dialing_round(Round(1))
            })
            .unwrap();
        let fetch = || Request::FetchDialingMailbox {
            round: Round(1),
            mailbox: MailboxId(0),
        };
        let from_origin = origin.clone().call(fetch()).unwrap();
        let Response::DialingMailbox { filter, next_round } = from_origin.clone() else {
            panic!("the origin serves the mailbox");
        };
        assert_eq!(next_round.as_ref().map(|info| info.round), Some(Round(2)));

        let valid = encode_dialing_blob(&filter, next_round.as_ref());
        let mut trailing = valid.clone();
        trailing.push(0);
        let not_a_filter = encode_dialing_blob(&[1, 2, 3], next_round.as_ref());
        // The frame-v9 mailbox: a Bloom filter's 20-byte header (bit count,
        // hash count, inserted count, big-endian) and its bits, here one
        // token at 48 bits.
        let mut bloom = Vec::new();
        bloom.extend_from_slice(&48u64.to_be_bytes());
        bloom.extend_from_slice(&33u32.to_be_bytes());
        bloom.extend_from_slice(&1u64.to_be_bytes());
        bloom.extend_from_slice(&[0x5A; 6]);
        let bloom_filter = encode_dialing_blob(&bloom, next_round.as_ref());
        for (blob, served_by_fleet) in [
            (valid, true),
            // The pre-announcement layout: the bare filter bytes.
            (filter.clone(), false),
            (trailing, false),
            (not_a_filter, false),
            (bloom_filter, false),
        ] {
            let nodes: Vec<Box<dyn NodeClient>> = (0..4)
                .map(|_| Box::new(LoopbackNode::new()) as Box<dyn NodeClient>)
                .collect();
            let fleet = ShardedCdn::new(nodes, 3, 1);
            fleet
                .publish(RoundKind::Dialing, Round(1), MailboxId(0), &blob)
                .unwrap();
            let mut routed = CdnRoutedTransport::new(
                Origin {
                    inner: origin.clone(),
                    calls: 0,
                },
                Arc::new(fleet),
            );
            // No other test in this binary routes through a fleet, so the
            // counter moves by exactly this fetch's fallback.
            let fallbacks = origin_fallbacks().get();
            assert_eq!(routed.call(fetch()).unwrap(), from_origin);
            let origin_calls = usize::from(!served_by_fleet);
            assert_eq!(routed.inner().calls, origin_calls, "blob {blob:?}");
            assert_eq!(
                origin_fallbacks().get(),
                fallbacks + origin_calls as u64,
                "blob {blob:?}"
            );
        }
    }
}
