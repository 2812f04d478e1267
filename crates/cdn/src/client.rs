//! Client handles to one CDN node: loopback or remote.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alpenhorn_wire::server::connect;
use alpenhorn_wire::{CdnRequest, CdnResponse, Frame};

use crate::error::CdnError;
use crate::node::{CdnNodeState, CONNECTION_IO_TIMEOUT};

/// A readers-and-writers view of one CDN node.
///
/// Puts and gets are idempotent, so any implementation may retry freely
/// after transport failures.
pub trait NodeClient: Send {
    /// One request/response exchange.
    fn call(&mut self, request: &CdnRequest) -> Result<CdnResponse, CdnError>;

    /// Severs the transport (if any); the next call re-establishes it.
    fn disconnect(&mut self) {}
}

/// An in-process node sharing state with (possibly) other handles, plus a
/// liveness switch — the scenario engine's cdn-node-loss lever. A downed
/// node fails every call with a connection-refused I/O error, exactly what
/// a TCP client sees when a `cdnd` process dies.
pub struct LoopbackNode {
    state: Arc<Mutex<CdnNodeState>>,
    alive: Arc<AtomicBool>,
}

impl Default for LoopbackNode {
    fn default() -> Self {
        Self::new()
    }
}

impl LoopbackNode {
    /// A fresh memory-only node.
    pub fn new() -> Self {
        Self::with_state(Arc::new(Mutex::new(CdnNodeState::new())))
    }

    /// A handle over existing shared node state.
    pub fn with_state(state: Arc<Mutex<CdnNodeState>>) -> Self {
        LoopbackNode {
            state,
            alive: Arc::new(AtomicBool::new(true)),
        }
    }

    /// The shared node state (inspection and extra handles).
    pub fn state(&self) -> Arc<Mutex<CdnNodeState>> {
        Arc::clone(&self.state)
    }

    /// The liveness switch, cloneable into scenario hooks: `false` makes
    /// every call on every handle fail like a dead TCP peer.
    pub fn liveness(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.alive)
    }

    /// Flips the node up or down.
    pub fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::SeqCst);
    }

    /// A second handle to the same node (same state, same liveness switch).
    pub fn clone_handle(&self) -> Self {
        LoopbackNode {
            state: Arc::clone(&self.state),
            alive: Arc::clone(&self.alive),
        }
    }
}

impl NodeClient for LoopbackNode {
    fn call(&mut self, request: &CdnRequest) -> Result<CdnResponse, CdnError> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(CdnError::Io {
                kind: std::io::ErrorKind::ConnectionRefused,
                detail: "cdn node is down".to_string(),
            });
        }
        // Through the full codec both ways, like a socket would be.
        let request = CdnRequest::decode(&request.encode())?;
        let response = {
            let mut state = self.state.lock().expect("cdn node state mutex");
            state.handle(request)
        };
        Ok(CdnResponse::decode(&response.encode())?)
    }
}

/// A framed TCP connection to one `cdnd` daemon.
///
/// Connections are lazy and dropped on any failure; the next call
/// reconnects. Unlike the mixer handles, a `TcpNode` does **not** retry
/// internally: the interesting recovery at this layer is *redundancy* — the
/// sharded reader falls back to parity shards on other nodes — so one
/// attempt per node is the right policy and dead nodes cost one timeout,
/// not a backoff ladder.
pub struct TcpNode {
    addr: String,
    stream: Option<TcpStream>,
    connect_timeout: Duration,
}

impl TcpNode {
    /// Default bound on one connection attempt.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

    /// Creates a handle to the daemon at `addr`. Does not connect yet.
    pub fn new(addr: impl Into<String>) -> Self {
        TcpNode {
            addr: addr.into(),
            stream: None,
            connect_timeout: Self::DEFAULT_CONNECT_TIMEOUT,
        }
    }

    /// The daemon address this handle dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl NodeClient for TcpNode {
    fn call(&mut self, request: &CdnRequest) -> Result<CdnResponse, CdnError> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => connect(
                &self.addr,
                self.connect_timeout,
                Some(CONNECTION_IO_TIMEOUT),
            )?,
        };
        let stream = self.stream.insert(stream);
        let result: Result<CdnResponse, CdnError> = (|| {
            Frame::write_to(stream, &request.encode())?;
            let response = Frame::read_from(stream)?;
            Ok(CdnResponse::decode(&response)?)
        })();
        if result.is_err() {
            // The stream offset can no longer be trusted; reconnect next call.
            self.stream = None;
        }
        result
    }

    fn disconnect(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_wire::{MailboxId, Round, RoundKind, ShardHeader};

    #[test]
    fn downed_loopback_node_fails_like_a_dead_peer() {
        let mut node = LoopbackNode::new();
        let request = CdnRequest::GetShard {
            kind: RoundKind::AddFriend,
            round: Round(1),
            mailbox: MailboxId(0),
            index: 0,
        };
        assert_eq!(node.call(&request), Ok(CdnResponse::NotFound));
        node.set_alive(false);
        assert!(matches!(node.call(&request), Err(CdnError::Io { .. })));
        node.set_alive(true);
        assert_eq!(node.call(&request), Ok(CdnResponse::NotFound));
    }

    #[test]
    fn handles_share_state_and_liveness() {
        let node = LoopbackNode::new();
        let mut other = node.clone_handle();
        other
            .call(&CdnRequest::PutShard {
                kind: RoundKind::Dialing,
                round: Round(2),
                mailbox: MailboxId(1),
                index: 0,
                header: ShardHeader {
                    data_shards: 1,
                    parity_shards: 0,
                    blob_len: 3,
                },
                shard: vec![1, 2, 3],
            })
            .unwrap();
        assert_eq!(node.state().lock().unwrap().shards_stored(), 1);
        node.set_alive(false);
        assert!(matches!(
            other.call(&CdnRequest::Expire {
                keep_from: Round(1)
            }),
            Err(CdnError::Io { .. })
        ));
    }

    #[test]
    fn tcp_node_round_trips_against_a_served_node() {
        let handle = alpenhorn_wire::server::serve(
            "127.0.0.1:0",
            crate::node::server_config(),
            Mutex::new(CdnNodeState::new()),
        )
        .unwrap();
        let mut client = TcpNode::new(handle.local_addr().to_string());
        let get = CdnRequest::GetShard {
            kind: RoundKind::Dialing,
            round: Round(2),
            mailbox: MailboxId(1),
            index: 0,
        };
        assert_eq!(client.call(&get), Ok(CdnResponse::NotFound));
        // A severed connection re-establishes transparently.
        client.disconnect();
        assert_eq!(client.call(&get), Ok(CdnResponse::NotFound));
    }
}
