//! `alpenhornd`'s side of the one serve loop ([`alpenhorn_wire::server`]):
//! the [`Handler`] for a [`SharedCoordinator`], and [`serve`].
//!
//! Connection threads run requests in parallel because [`SharedCoordinator`]
//! lets them: read-mostly RPCs are served from the lock-free snapshot,
//! submissions hit only the round's intake and a verifier stripe, key
//! extraction and token issuance share the service read lock, and the
//! remaining exclusive RPCs serialize on the write lock. Clients speak the
//! framed RPC protocol ([`alpenhorn_wire::rpc`] inside
//! [`alpenhorn_wire::Frame`]): a payload that does not decode to a
//! [`Request`] gets a typed [`RpcError::BadRequest`] and the connection
//! stays open, and a connection over the cap is shed with one retryable
//! [`RpcError::Unavailable`] carrying [`SHED_RETRY_AFTER_MS`].

use std::net::ToSocketAddrs;
use std::sync::{Arc, OnceLock};

use alpenhorn_obs::{Counter, Gauge};
use alpenhorn_wire::server::{ConnectionEvent, Handler, ServerConfig, ServerHandle};
use alpenhorn_wire::{Request, Response, RpcError};

use crate::service::CoordinatorService;
use crate::shared::{run_batch, SharedCoordinator};

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

/// The retry-after hint (milliseconds) a shed connection's `Unavailable`
/// reply carries.
pub const SHED_RETRY_AFTER_MS: u32 = 200;

/// Dispatches `request` through [`SharedCoordinator::handle`], timing it
/// into `coordinator_rpc_latency_us`, counting it by outcome in
/// `coordinator_rpc_total` and — when round-scoped — recording a coordinator
/// span under the round's correlation id. A batch goes through the same member loop as
/// `handle` ([`run_batch`]) with each member observed on its own, under its
/// own `rpc` label, so per-RPC counts and latencies mean the same whether or
/// not a client batched.
fn observed(shared: &SharedCoordinator, request: Request) -> Response {
    if let Request::Batch(members) = request {
        return run_batch(members, |member| observed(shared, member));
    }
    let observation = crate::telemetry::begin_rpc(&request);
    let response = shared.handle(request);
    crate::telemetry::finish_rpc(observation, &response);
    response
}

impl Handler for SharedCoordinator {
    /// Decodes, dispatches through [`SharedCoordinator::handle`] and encodes
    /// (see `observed`).
    fn respond(&self, payload: &[u8]) -> Vec<u8> {
        let in_flight = &server_metrics().requests_in_flight;
        in_flight.add(1);
        let response = match Request::decode(payload) {
            Ok(request) => observed(self, request),
            Err(e) => Response::Error(RpcError::BadRequest {
                detail: format!("undecodable request: {e}"),
            }),
        };
        in_flight.sub(1);
        response.encode()
    }

    fn error_reply(&self, detail: &str) -> Vec<u8> {
        Response::Error(RpcError::BadRequest {
            detail: detail.to_string(),
        })
        .encode()
    }

    fn shed_reply(&self) -> Option<Vec<u8>> {
        Some(
            Response::Error(RpcError::Unavailable {
                detail: "server at connection capacity; retry shortly".to_string(),
                retry_after_ms: SHED_RETRY_AFTER_MS,
            })
            .encode(),
        )
    }

    fn on_event(&self, event: ConnectionEvent) {
        let metrics = server_metrics();
        match event {
            ConnectionEvent::Opened => metrics.connections_active.add(1),
            ConnectionEvent::Closed => metrics.connections_active.sub(1),
            ConnectionEvent::Shed => metrics.connections_shed.inc(),
        }
    }
}

/// Serves `service` on `addr` (port 0 for an ephemeral port) under the
/// default [`ServerConfig`]. A daemon that tunes the config, or keeps
/// driving rounds on the coordinator it serves, hands a
/// [`SharedCoordinator`] to [`alpenhorn_wire::server::serve`] instead.
pub fn serve(
    service: CoordinatorService,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    alpenhorn_wire::server::serve(
        addr,
        ServerConfig::default(),
        SharedCoordinator::new(service),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use alpenhorn_wire::codec::FrameIoError;
    use alpenhorn_wire::{Frame, Round};
    use std::net::TcpStream;
    use std::time::Duration;

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
    fn batch_members_are_observed_under_their_own_rpc_labels() {
        let shared = SharedCoordinator::new(CoordinatorService::new(Cluster::new(
            ClusterConfig::test(74),
        )));
        shared.handle(Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 1,
        });
        // No other test in this process gets a round info answered through
        // `respond`, so this counter moves for this test's members only.
        let answered = alpenhorn_obs::global().counter(
            "coordinator_rpc_total",
            &[("rpc", "get_add_friend_round_info"), ("outcome", "ok")],
        );
        let before = answered.get();
        let batch = Request::Batch(vec![Request::GetAddFriendRoundInfo; 2]);
        let reply = Response::decode(&shared.respond(&batch.encode())).unwrap();
        assert!(matches!(reply, Response::Batch(replies) if replies.len() == 2));
        assert_eq!(answered.get() - before, 2);
        assert!(!alpenhorn_obs::global().expose().contains(r#"rpc="batch""#));
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
            Response::Error(RpcError::BadRequest { .. })
        ));
        assert!(matches!(
            Frame::read_from(&mut stream),
            Err(FrameIoError::Io(_))
        ));
        handle.shutdown();
    }

    #[test]
    fn concurrent_connections_share_one_deployment() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(72)));
        let shared = SharedCoordinator::new(service);
        let handle =
            alpenhorn_wire::server::serve("127.0.0.1:0", ServerConfig::default(), shared.clone())
                .unwrap();
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
                Response::Error(RpcError::NoOpenRound { .. })
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
