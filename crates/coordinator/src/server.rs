//! A TCP server exposing a [`SharedCoordinator`] to the network.
//!
//! This is the daemon half of the `alpenhornd` deployment: a
//! run-to-completion server.
//!
//! * the **accept loop** admits connections up to `max_connections`, shedding
//!   the excess with a retryable typed error;
//! * each admitted connection gets one **connection thread** that reads a
//!   frame, calls [`SharedCoordinator::handle_request_bytes_with_correlation`]
//!   itself, and writes the reply — one wake-up when the request arrives and
//!   one at the client when the reply does, with no hand-off in between.
//!
//! Connection threads run requests in parallel because [`SharedCoordinator`]
//! lets them: read-mostly RPCs are served from the lock-free snapshot,
//! submissions hit only an intake shard and a verifier stripe, and exclusive
//! RPCs serialize on the service write lock. Concurrency is bounded by
//! `max_connections`, and so is memory: one request is in flight per
//! connection (the RPC protocol is strict request/response, which also
//! preserves per-connection ordering), so at most `max_connections` frames
//! are buffered. Clients speak the framed RPC protocol
//! ([`alpenhorn_wire::rpc`] inside [`alpenhorn_wire::Frame`]); a connection
//! that sends an undecodable frame gets a typed error reply and is then
//! dropped.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use alpenhorn_obs::{Counter, Gauge};
use alpenhorn_wire::codec::FrameIoError;
use alpenhorn_wire::Frame;

use crate::service::CoordinatorService;
use crate::shared::SharedCoordinator;

/// Server-level load metrics: requests executing right now and connection
/// accounting. Process-wide (every server in the process shares them,
/// matching the one-daemon-per-process deployment).
struct ServerMetrics {
    requests_in_flight: Arc<Gauge>,
    connections_active: Arc<Gauge>,
    connections_shed: Arc<Counter>,
}

fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = alpenhorn_obs::global();
        ServerMetrics {
            requests_in_flight: registry.gauge("coordinator_requests_in_flight", &[]),
            connections_active: registry.gauge("coordinator_connections_active", &[]),
            connections_shed: registry.counter("coordinator_connections_shed_total", &[]),
        }
    })
}

/// Tuning knobs for [`serve_with_config`]: per-connection I/O timeouts and
/// the accept-loop overload policy.
///
/// The defaults keep a daemon healthy under hostile or flaky peers: a client
/// that stops reading or writing cannot pin a connection thread forever, and
/// intake beyond `max_connections` is answered with a retryable
/// [`alpenhorn_wire::RpcError::Unavailable`] (carrying a retry-after hint)
/// instead of queueing unboundedly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection thread waits for the next request frame before
    /// dropping the connection. `None` waits forever (pre-PR 6 behaviour).
    pub read_timeout: Option<Duration>,
    /// How long a blocked response write may stall before the connection is
    /// dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections, and with it the bound on
    /// concurrently executing requests and buffered frames. An accept beyond
    /// the cap is shed: the peer gets one `Unavailable` reply and is
    /// disconnected.
    pub max_connections: usize,
    /// The retry-after hint (milliseconds) carried in shed replies.
    pub shed_retry_after_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 1024,
            shed_retry_after_ms: 200,
        }
    }
}

/// A handle to a running RPC server.
///
/// Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] to stop accepting connections, close the open
/// ones, and join every server thread.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: SharedCoordinator,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared coordinator, for server-side inspection and round driving
    /// (e.g. reading round statistics or advancing the simulated clock from
    /// tests). Exclusive access goes through [`SharedCoordinator::write`].
    pub fn service(&self) -> SharedCoordinator {
        self.shared.clone()
    }

    /// Stops accepting new connections, shuts every open connection down
    /// (peers see EOF), and joins the accept thread and through it every
    /// connection thread. A request already executing runs to completion
    /// first; once this returns, no thread of the server holds the
    /// [`SharedCoordinator`] and no further request is dispatched.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Serves `service` on `addr` (use port 0 for an ephemeral port), returning
/// once the listener is bound and accepting.
pub fn serve(
    service: CoordinatorService,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    serve_with_config(service, addr, ServerConfig::default())
}

/// [`serve`] with explicit timeout and shedding configuration.
pub fn serve_with_config(
    service: CoordinatorService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_shared(SharedCoordinator::new(service), addr, config)
}

/// Serves an existing [`SharedCoordinator`] — the entry point when the
/// caller (daemon, tests) also drives rounds through the same handle.
pub fn serve_shared(
    shared: SharedCoordinator,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let accept_stop = Arc::clone(&stop);
    let accept_shared = shared.clone();
    let accept_thread = std::thread::spawn(move || {
        let (stop, shared, config) = (&*accept_stop, &accept_shared, &config);
        // A second handle on every live connection's socket, so shutdown can
        // wake a thread blocked in `read`. A connection thread removes its
        // own entry on exit; the map's size is the live connection count.
        let live: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
        let lock_live = || {
            live.lock()
                .expect("no thread panics holding the connection map")
        };
        // The scope joins every connection thread before the accept thread
        // (and with it `ServerHandle::shutdown`) returns.
        std::thread::scope(|scope| {
            for (id, stream) in (0u64..).zip(listener.incoming()) {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Overload shedding happens here, before a thread is
                // spawned: the daemon's intake pressure is answered with a
                // typed retryable error, never with an unbounded backlog.
                if lock_live().len() >= config.max_connections {
                    server_metrics().connections_shed.inc();
                    shed_connection(stream, config.shed_retry_after_ms);
                    continue;
                }
                // A connection shutdown could not reach is one it could not
                // stop; refuse it rather than serve it untracked.
                let Ok(tracked) = stream.try_clone() else {
                    continue;
                };
                lock_live().insert(id, tracked);
                server_metrics().connections_active.add(1);
                scope.spawn(move || {
                    serve_connection(stream, shared, config, stop);
                    lock_live().remove(&id);
                    server_metrics().connections_active.sub(1);
                });
            }
            for stream in lock_live().values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
    });

    Ok(ServerHandle {
        local_addr,
        shared,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Answers one connection over the cap: a single retryable `Unavailable`
/// reply with the configured retry-after hint, then disconnect. Best-effort
/// — a peer that already hung up just gets dropped.
fn shed_connection(mut stream: TcpStream, retry_after_ms: u32) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let reply = alpenhorn_wire::Response::Error(alpenhorn_wire::RpcError::Unavailable {
        detail: "server at connection capacity; retry shortly".to_string(),
        retry_after_ms,
    })
    .encode();
    let _ = Frame::write_to(&mut stream, &reply);
}

/// Services one connection until the peer disconnects, stalls past the I/O
/// timeouts, sends an undecodable frame, or the server shuts down. Each
/// request runs to completion on this thread: read, handle, reply.
fn serve_connection(
    mut stream: TcpStream,
    shared: &SharedCoordinator,
    config: &ServerConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.read_timeout);
    let _ = stream.set_write_timeout(config.write_timeout);
    loop {
        match Frame::read_from_with_telemetry(&mut stream) {
            Ok((payload, correlation)) => {
                // Requests the socket had already buffered when shutdown
                // closed it are dropped, not dispatched.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let in_flight = &server_metrics().requests_in_flight;
                in_flight.add(1);
                let response = shared.handle_request_bytes_with_correlation(&payload, correlation);
                in_flight.sub(1);
                if Frame::write_to(&mut stream, &response).is_err() {
                    return;
                }
            }
            // Peer went away (EOF surfaces as UnexpectedEof from read_exact);
            // any other I/O failure is equally fatal per-connection.
            Err(FrameIoError::Io(_)) => return,
            Err(FrameIoError::Wire(e)) => {
                // Reply with a typed error, then drop the connection: after a
                // framing error the stream offset can no longer be trusted.
                let reply = alpenhorn_wire::Response::Error(alpenhorn_wire::RpcError::BadRequest {
                    detail: format!("undecodable frame: {e}"),
                })
                .encode();
                let _ = Frame::write_to(&mut stream, &reply);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use alpenhorn_wire::{Request, Response, Round};

    fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
        Frame::write_to(stream, &request.encode()).unwrap();
        let payload = Frame::read_from(stream).unwrap();
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn serves_requests_over_tcp() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(70)));
        let handle = serve(service, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        let Response::PkgKeys(keys) = roundtrip(&mut stream, &Request::GetPkgKeys) else {
            panic!("expected PKG keys");
        };
        assert_eq!(keys.len(), 3);

        // Multiple requests on one connection.
        assert!(matches!(
            roundtrip(&mut stream, &Request::GetAddFriendRoundInfo),
            Response::Error(_)
        ));
        handle.shutdown();
    }

    #[test]
    fn undecodable_frame_gets_typed_reply_then_disconnect() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(71)));
        let handle = serve(service, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        use std::io::Write as _;
        stream.write_all(b"XXjunk frame").unwrap();
        stream.flush().unwrap();
        let payload = Frame::read_from(&mut stream).unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error(alpenhorn_wire::RpcError::BadRequest { .. })
        ));
        handle.shutdown();
    }

    #[test]
    fn concurrent_connections_share_one_deployment() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(72)));
        let handle = serve(service, "127.0.0.1:0").unwrap();
        let addr = handle.local_addr();
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            // A regression that serializes connections fails, not hangs.
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream
        };

        // Park one request: with the service write lock held here, the
        // admin connection's `BeginAddFriendRound` blocks inside its handler.
        let shared = handle.service();
        let write_guard = shared.write();
        let mut admin = connect();
        let begin = Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 8,
        };
        Frame::write_to(&mut admin, &begin.encode()).unwrap();
        let in_flight = &server_metrics().requests_in_flight;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while in_flight.get() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "request never dispatched"
            );
            std::thread::yield_now();
        }

        // Snapshot reads on other connections complete regardless: each
        // connection thread runs its own request, none waits for the parked
        // one, and the read path takes no service lock.
        let mut clients: Vec<TcpStream> = (0..8).map(|_| connect()).collect();
        for client in &mut clients {
            assert!(matches!(
                roundtrip(client, &Request::GetPkgKeys),
                Response::PkgKeys(_)
            ));
            assert!(matches!(
                roundtrip(client, &Request::GetAddFriendRoundInfo),
                Response::Error(alpenhorn_wire::RpcError::NoOpenRound { .. })
            ));
        }

        // Released, the parked request completes and the round opens.
        drop(write_guard);
        let Response::AddFriendRoundInfo(info) =
            Response::decode(&Frame::read_from(&mut admin).unwrap()).unwrap()
        else {
            panic!("round opens");
        };
        let onion_len = info.onion_len as usize;

        // All eight connections submit at once into the one shared round.
        let submitters: Vec<_> = (1u8..)
            .zip(clients)
            .map(|(i, mut stream)| {
                std::thread::spawn(move || {
                    let mut onion = vec![0u8; onion_len];
                    onion[0] = i;
                    assert_eq!(
                        roundtrip(
                            &mut stream,
                            &Request::SubmitAddFriend {
                                round: Round(1),
                                onion,
                                token: None,
                            },
                        ),
                        Response::Ack
                    );
                })
            })
            .collect();
        for t in submitters {
            t.join().unwrap();
        }

        let Response::RoundClosed(stats) = roundtrip(
            &mut admin,
            &Request::CloseAddFriendRound { round: Round(1) },
        ) else {
            panic!("round closes");
        };
        assert_eq!(stats.client_messages, 8);
        handle.shutdown();
    }

    #[test]
    fn shutdown_closes_open_connections_and_stops_dispatch() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(73)));
        let handle = serve(service, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // No other test in this process sends `GetCdnStats` through a
        // server, so its counter isolates this connection's dispatches.
        let dispatched = alpenhorn_obs::global().counter(
            "coordinator_rpc_total",
            &[("rpc", "get_cdn_stats"), ("outcome", "ok")],
        );
        assert!(matches!(
            roundtrip(&mut stream, &Request::GetCdnStats),
            Response::CdnStats(_)
        ));
        let before = dispatched.get();
        assert!(before >= 1);

        handle.shutdown();

        // The still-open client socket sees its connection closed, and a
        // request sent into it is never dispatched. (The write itself may or
        // may not fail, depending on whether the reset has arrived yet.)
        let _ = Frame::write_to(&mut stream, &Request::GetCdnStats.encode());
        assert!(matches!(
            Frame::read_from(&mut stream),
            Err(FrameIoError::Io(_))
        ));
        assert_eq!(dispatched.get(), before);
    }
}
