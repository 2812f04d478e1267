//! The `mixd` daemon: one chain position's mix servers behind framed TCP.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixnet::{server_seed, MixServer, NoiseConfig, Protocol};
use alpenhorn_obs::SpanGuard;
use alpenhorn_wire::rpc::{SpanWire, TelemetryWire};
use alpenhorn_wire::{Frame, MixerRequest, MixerResponse, RoundKind};

use crate::seeds::chain_seed;

/// The span component tag for code running inside a mix daemon. One tag per
/// process type: in single-process tests it is what separates mixer-side
/// spans from coordinator- and CDN-side ones.
pub const SPAN_COMPONENT: &str = "mixd";

/// Daemon-side mixing counters (noise injected, malformed onions dropped),
/// mirrored into the shared registry for round reconciliation.
struct DaemonMetrics {
    noise_added: Arc<alpenhorn_obs::Counter>,
    dropped: Arc<alpenhorn_obs::Counter>,
}

fn daemon_metrics() -> &'static DaemonMetrics {
    static METRICS: std::sync::OnceLock<DaemonMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        DaemonMetrics {
            noise_added: r.counter("mixd_noise_added_total", &[]),
            dropped: r.counter("mixd_malformed_dropped_total", &[]),
        }
    })
}

/// Builds the daemon's [`MixerResponse::Telemetry`] payload: the global
/// metrics exposition plus every recent span recorded under
/// [`SPAN_COMPONENT`].
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

/// One mix daemon's state: the add-friend and dialing chain servers for a
/// single chain position, both derived from (cluster seed, index) exactly as
/// the coordinator's in-process chains derive them.
///
/// The daemon holds no per-request state beyond the open rounds' onion
/// secrets: every response is a pure function of (seed, index, request), so
/// a retried request — after a timeout, a dropped connection, or a daemon
/// restart plus re-begin — reproduces the byte-identical answer.
pub struct MixdServer {
    index: usize,
    add_friend: MixServer,
    dialing: MixServer,
}

impl MixdServer {
    /// Builds the daemon for chain position `index` of the cluster seeded
    /// with `cluster_seed`.
    pub fn new(cluster_seed: [u8; 32], index: usize) -> Self {
        MixdServer {
            index,
            add_friend: MixServer::new(
                index,
                server_seed(chain_seed(cluster_seed, RoundKind::AddFriend), index),
            ),
            dialing: MixServer::new(
                index,
                server_seed(chain_seed(cluster_seed, RoundKind::Dialing), index),
            ),
        }
    }

    /// The daemon's chain position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Sets the worker-thread count both servers use for round processing
    /// (output bytes are worker-count independent).
    pub fn set_workers(&mut self, workers: usize) {
        self.add_friend.set_workers(workers);
        self.dialing.set_workers(workers);
    }

    fn server_mut(&mut self, protocol: RoundKind) -> &mut MixServer {
        match protocol {
            RoundKind::AddFriend => &mut self.add_friend,
            RoundKind::Dialing => &mut self.dialing,
        }
    }

    /// Dispatches one request. Failures come back as
    /// [`MixerResponse::Error`], never a panic: a hostile or confused
    /// coordinator must not kill the daemon.
    pub fn handle(&mut self, request: MixerRequest) -> MixerResponse {
        self.handle_with_correlation(request, None)
    }

    /// Like [`MixdServer::handle`], preferring the correlation id the
    /// coordinator attached to the request frame over the locally derived
    /// one. Both are the same pure function of (protocol, round), so a peer
    /// that sends plain frames still produces correctly linked spans.
    fn handle_with_correlation(
        &mut self,
        request: MixerRequest,
        wire_correlation: Option<u64>,
    ) -> MixerResponse {
        let metrics = daemon_metrics();
        let phase_timer = request.round_scope().map(|(protocol, round)| {
            let phase = request.name();
            let correlation = wire_correlation
                .unwrap_or_else(|| alpenhorn_obs::correlation_id(protocol.code(), round.0));
            (
                alpenhorn_obs::global().histogram(
                    "mixd_round_phase_us",
                    &[("protocol", protocol.label()), ("phase", phase)],
                ),
                SpanGuard::begin(SPAN_COMPONENT, phase, correlation),
                std::time::Instant::now(),
            )
        });
        let response = match request {
            MixerRequest::BeginRound { protocol, round } => {
                let public = self.server_mut(protocol).begin_round_for(round.0);
                MixerResponse::RoundKey(public.to_bytes())
            }
            MixerRequest::Process {
                protocol,
                round,
                num_mailboxes,
                noise_mu,
                noise_b,
                downstream,
                batch,
            } => {
                let mut publics = Vec::with_capacity(downstream.len());
                for key in &downstream {
                    match DhPublic::from_bytes(key) {
                        Ok(public) => publics.push(public),
                        Err(_) => {
                            return MixerResponse::Error(
                                "undecodable downstream onion key".to_string(),
                            )
                        }
                    }
                }
                let noise = NoiseConfig {
                    mu: f64::from_bits(noise_mu),
                    b: f64::from_bits(noise_b),
                };
                let mix_protocol = match protocol {
                    RoundKind::AddFriend => Protocol::AddFriend,
                    RoundKind::Dialing => Protocol::Dialing,
                };
                let server = self.server_mut(protocol);
                if !server.round_open_for(round.0) {
                    return MixerResponse::Error(format!(
                        "{protocol:?} round {} is not open",
                        round.0
                    ));
                }
                let batch = server.process_for(
                    round.0,
                    batch,
                    &publics,
                    mix_protocol,
                    &noise,
                    num_mailboxes,
                );
                metrics.noise_added.add(server.last_noise_added());
                metrics.dropped.add(server.last_malformed_dropped());
                MixerResponse::Processed {
                    batch,
                    noise_added: server.last_noise_added(),
                    dropped: server.last_malformed_dropped(),
                }
            }
            MixerRequest::EndRound { protocol, round } => {
                self.server_mut(protocol).end_round_for(round.0);
                MixerResponse::Ack
            }
            MixerRequest::GetTelemetry => MixerResponse::Telemetry(telemetry_wire()),
        };
        if let Some((histogram, _span, started)) = phase_timer {
            histogram.observe_since(started);
        }
        response
    }

    /// Handles one framed request payload, returning the encoded response.
    /// Undecodable payloads and oversized responses come back as encoded
    /// [`MixerResponse::Error`]s, keeping the connection alive and aligned.
    pub fn handle_request_bytes(&mut self, payload: &[u8]) -> Vec<u8> {
        self.handle_request_bytes_with_correlation(payload, None)
    }

    /// Like [`MixdServer::handle_request_bytes`], with the correlation id the
    /// peer attached to the request frame (if any).
    pub fn handle_request_bytes_with_correlation(
        &mut self,
        payload: &[u8],
        correlation: Option<u64>,
    ) -> Vec<u8> {
        let response = match MixerRequest::decode(payload) {
            Ok(request) => self.handle_with_correlation(request, correlation),
            Err(e) => MixerResponse::Error(format!("undecodable mixer request: {e}")),
        };
        let bytes = response.encode();
        if bytes.len() > Frame::MAX_PAYLOAD_LEN {
            return MixerResponse::Error("response exceeds the maximum frame size".to_string())
                .encode();
        }
        bytes
    }
}

/// A handle to a running [`serve`] loop.
pub struct MixdHandle {
    local_addr: std::net::SocketAddr,
    server: Arc<Mutex<MixdServer>>,
}

impl MixdHandle {
    /// The bound listen address (with the OS-assigned port for `:0` binds).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The served daemon state, shared with the accept loop (tests and the
    /// binary's diagnostics).
    pub fn server(&self) -> Arc<Mutex<MixdServer>> {
        Arc::clone(&self.server)
    }
}

/// Serves `server` on `addr`: one framed [`MixerRequest`] →
/// [`MixerResponse`] exchange per frame, one thread per connection, requests
/// serialized through the daemon mutex (rounds are driven by a single
/// coordinator; contention is not the bottleneck, the mixing is).
///
/// Returns once the listener is bound; accepting runs on a background
/// thread for the life of the process.
pub fn serve(server: MixdServer, addr: &str) -> std::io::Result<MixdHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let server = Arc::new(Mutex::new(server));
    let accept_server = Arc::clone(&server);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let server = Arc::clone(&accept_server);
            std::thread::spawn(move || serve_connection(stream, server));
        }
    });
    Ok(MixdHandle { local_addr, server })
}

/// Read/write timeout per connection: generous enough for a full-round
/// batch, bounded so a wedged peer cannot pin a thread forever.
const CONNECTION_IO_TIMEOUT: Duration = Duration::from_secs(120);

fn serve_connection(mut stream: TcpStream, server: Arc<Mutex<MixdServer>>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(CONNECTION_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CONNECTION_IO_TIMEOUT));
    loop {
        let (payload, correlation) = match Frame::read_from_with_telemetry(&mut stream) {
            Ok(read) => read,
            // EOF or any framing/IO failure ends the connection; the
            // coordinator reconnects and retries (identical answers).
            Err(_) => return,
        };
        let response = {
            let mut server = server.lock().expect("mixd state mutex");
            server.handle_request_bytes_with_correlation(&payload, correlation)
        };
        match Frame::write_to(&mut stream, &response) {
            Ok(()) => {}
            Err(e) => {
                // A torn write desynchronizes the stream; drop it.
                let _ = e;
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }
}

/// A connect helper with the daemon's defaults (used by [`RemoteMixer`]).
///
/// [`RemoteMixer`]: crate::mixer::RemoteMixer
pub(crate) fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = None;
    for candidate in std::net::ToSocketAddrs::to_socket_addrs(addr)? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(CONNECTION_IO_TIMEOUT))?;
                stream.set_write_timeout(Some(CONNECTION_IO_TIMEOUT))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, "address resolved to no candidates")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_wire::Round;

    #[test]
    fn begin_is_idempotent_and_round_scoped() {
        let mut daemon = MixdServer::new([5u8; 32], 0);
        let MixerResponse::RoundKey(k1) = daemon.handle(MixerRequest::BeginRound {
            protocol: RoundKind::AddFriend,
            round: Round(3),
        }) else {
            panic!("begin returns a key");
        };
        // Retrying the same round returns the same key; a different round
        // and the other protocol's chain return different keys.
        let MixerResponse::RoundKey(again) = daemon.handle(MixerRequest::BeginRound {
            protocol: RoundKind::AddFriend,
            round: Round(3),
        }) else {
            panic!("retry returns a key");
        };
        assert_eq!(k1, again);
        let MixerResponse::RoundKey(k2) = daemon.handle(MixerRequest::BeginRound {
            protocol: RoundKind::AddFriend,
            round: Round(4),
        }) else {
            panic!("begin returns a key");
        };
        assert_ne!(k1, k2);
        let MixerResponse::RoundKey(dial) = daemon.handle(MixerRequest::BeginRound {
            protocol: RoundKind::Dialing,
            round: Round(3),
        }) else {
            panic!("begin returns a key");
        };
        assert_ne!(k1, dial);
    }

    #[test]
    fn process_before_begin_is_a_typed_error() {
        let mut daemon = MixdServer::new([5u8; 32], 0);
        let response = daemon.handle(MixerRequest::Process {
            protocol: RoundKind::Dialing,
            round: Round(9),
            num_mailboxes: 1,
            noise_mu: 0f64.to_bits(),
            noise_b: 0f64.to_bits(),
            downstream: vec![],
            batch: vec![],
        });
        assert!(
            matches!(&response, MixerResponse::Error(d) if d.contains("not open")),
            "{response:?}"
        );
    }

    #[test]
    fn process_retries_are_byte_identical() {
        let mut daemon = MixdServer::new([6u8; 32], 0);
        daemon.set_workers(1);
        daemon.handle(MixerRequest::BeginRound {
            protocol: RoundKind::AddFriend,
            round: Round(1),
        });
        let request = MixerRequest::Process {
            protocol: RoundKind::AddFriend,
            round: Round(1),
            num_mailboxes: 2,
            noise_mu: 3f64.to_bits(),
            noise_b: 0f64.to_bits(),
            downstream: vec![],
            batch: vec![],
        };
        let first = daemon.handle(request.clone());
        let second = daemon.handle(request);
        assert!(matches!(first, MixerResponse::Processed { .. }));
        assert_eq!(first, second, "retried Process must replay identically");
    }

    #[test]
    fn undecodable_requests_keep_the_daemon_alive() {
        let mut daemon = MixdServer::new([7u8; 32], 1);
        let bytes = daemon.handle_request_bytes(&[0xff, 0x00, 0x01]);
        let response = MixerResponse::decode(&bytes).unwrap();
        assert!(matches!(response, MixerResponse::Error(_)));
    }

    #[test]
    fn end_round_is_idempotent() {
        let mut daemon = MixdServer::new([8u8; 32], 0);
        daemon.handle(MixerRequest::BeginRound {
            protocol: RoundKind::Dialing,
            round: Round(2),
        });
        for _ in 0..2 {
            assert_eq!(
                daemon.handle(MixerRequest::EndRound {
                    protocol: RoundKind::Dialing,
                    round: Round(2),
                }),
                MixerResponse::Ack
            );
        }
    }
}
