//! The `mixd` daemon: one chain position's mix servers behind framed TCP.

use std::sync::Arc;
use std::time::Duration;

use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixnet::{MixServer, NoiseConfig};
use alpenhorn_obs::SpanGuard;
use alpenhorn_wire::rpc::{SpanWire, TelemetryWire};
use alpenhorn_wire::server::{ConnectionEvent, Exclusive, ServerConfig};
use alpenhorn_wire::{MixerRequest, MixerResponse, RoundKind};

use crate::seeds::{chain_seed, server_seed};

/// The span component tag for code running inside a mix daemon. One tag per
/// process type: in single-process tests it is what separates mixer-side
/// spans from coordinator- and CDN-side ones.
pub const SPAN_COMPONENT: &str = "mixd";

/// Daemon-side mixing counters (noise injected, malformed onions dropped),
/// mirrored into the shared registry for round reconciliation, and the
/// serve loop's connection accounting.
struct DaemonMetrics {
    noise_added: Arc<alpenhorn_obs::Counter>,
    dropped: Arc<alpenhorn_obs::Counter>,
    connections_active: Arc<alpenhorn_obs::Gauge>,
    connections_shed: Arc<alpenhorn_obs::Counter>,
}

fn daemon_metrics() -> &'static DaemonMetrics {
    static METRICS: std::sync::OnceLock<DaemonMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        DaemonMetrics {
            noise_added: r.counter("mixd_noise_added_total", &[]),
            dropped: r.counter("mixd_malformed_dropped_total", &[]),
            connections_active: r.gauge("mixd_connections_active", &[]),
            connections_shed: r.counter("mixd_connections_shed_total", &[]),
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
/// single chain position, both derived from (cluster seed, index) alone.
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

    fn server_mut(&mut self, protocol: RoundKind) -> &mut MixServer {
        match protocol {
            RoundKind::AddFriend => &mut self.add_friend,
            RoundKind::Dialing => &mut self.dialing,
        }
    }

    /// Dispatches one request. Failures come back as
    /// [`MixerResponse::Error`], never a panic: a hostile or confused
    /// coordinator must not kill the daemon. A round-scoped request is timed
    /// and spanned under the correlation id of its `(protocol, round)`, the
    /// id the coordinator's side of the round derives alike.
    pub fn handle(&mut self, request: MixerRequest) -> MixerResponse {
        let metrics = daemon_metrics();
        let phase_timer = request.round_scope().map(|(protocol, round)| {
            let phase = request.name();
            let correlation = alpenhorn_obs::correlation_id(protocol.code(), round.0);
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
                let public = self.server_mut(protocol).begin_round(round.0);
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
                let processed = self.server_mut(protocol).process(
                    round.0,
                    batch,
                    &publics,
                    protocol,
                    &noise,
                    num_mailboxes,
                );
                let Some(processed) = processed else {
                    return MixerResponse::Error(format!(
                        "{protocol:?} round {} is not open",
                        round.0
                    ));
                };
                metrics.noise_added.add(processed.noise_added);
                metrics.dropped.add(processed.dropped);
                MixerResponse::Processed {
                    batch: processed.batch,
                    noise_added: processed.noise_added,
                    dropped: processed.dropped,
                }
            }
            MixerRequest::EndRound { protocol, round } => {
                self.server_mut(protocol).end_round(round.0);
                MixerResponse::Ack
            }
            MixerRequest::GetTelemetry => MixerResponse::Telemetry(telemetry_wire()),
        };
        if let Some((histogram, _span, started)) = phase_timer {
            histogram.observe_since(started);
        }
        response
    }
}

impl Exclusive for MixdServer {
    /// Undecodable payloads come back as encoded [`MixerResponse::Error`]s,
    /// keeping the connection alive and aligned.
    fn respond(&mut self, payload: &[u8]) -> Vec<u8> {
        match MixerRequest::decode(payload) {
            Ok(request) => self.handle(request),
            Err(e) => MixerResponse::Error(format!("undecodable mixer request: {e}")),
        }
        .encode()
    }

    fn error_reply(detail: &str) -> Vec<u8> {
        MixerResponse::Error(detail.to_string()).encode()
    }

    fn on_event(event: ConnectionEvent) {
        let metrics = daemon_metrics();
        match event {
            ConnectionEvent::Opened => metrics.connections_active.add(1),
            ConnectionEvent::Closed => metrics.connections_active.sub(1),
            ConnectionEvent::Shed => metrics.connections_shed.inc(),
        }
    }
}

/// Read/write timeout per connection, on both ends: generous enough for a
/// full-round batch, bounded so a wedged peer cannot pin a thread forever.
pub(crate) const CONNECTION_IO_TIMEOUT: Duration = Duration::from_secs(120);

/// The serve-loop configuration of a `mixd`: the default connection cap,
/// both I/O timeouts at 120 s. Serve a daemon as
/// `alpenhorn_wire::server::serve(addr, server_config(), Mutex::new(server))`;
/// a connection over the cap is closed without a reply, which
/// [`RemoteMixer`](crate::RemoteMixer) retries like any connection failure.
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
    use crate::{MixRetryPolicy, MixdError, Mixer, RemoteMixer};
    use alpenhorn_wire::server::serve;
    use alpenhorn_wire::Round;
    use std::sync::Mutex;

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
        let bytes = daemon.respond(&[0xff, 0x00, 0x01]);
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

    #[test]
    fn connection_over_the_cap_fails_retryably_and_mixd_shuts_down() {
        let shed_total = alpenhorn_obs::global().counter("mixd_connections_shed_total", &[]);
        let shed_before = shed_total.get();
        let config = ServerConfig {
            max_connections: 1,
            ..server_config()
        };
        let daemon = Mutex::new(MixdServer::new([9u8; 32], 0));
        let handle = serve("127.0.0.1:0", config, daemon).unwrap();
        let addr = handle.local_addr();
        let begin = |mixer: &mut RemoteMixer| mixer.begin_round(RoundKind::AddFriend, Round(1));

        // One mixer holds the only slot.
        let mut first = RemoteMixer::new(addr.to_string()).with_retry(MixRetryPolicy::none());
        let key = begin(&mut first).unwrap();

        // The next connection is closed without a reply: a connection
        // failure the retry policy retries, not a terminal daemon error.
        let mut shed = RemoteMixer::new(addr.to_string()).with_retry(MixRetryPolicy::none());
        match begin(&mut shed) {
            Err(MixdError::Exhausted { last, .. }) => assert!(last.is_retryable(), "{last:?}"),
            other => panic!("expected a retryable connection failure, got {other:?}"),
        }
        assert!(shed_total.get() > shed_before);

        // Once the slot frees, a retrying mixer gets the identical key.
        first.disconnect();
        let mut retrying = RemoteMixer::new(addr.to_string()).with_retry(MixRetryPolicy {
            max_attempts: 200,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(10),
        });
        assert_eq!(begin(&mut retrying).unwrap().to_bytes(), key.to_bytes());

        // Shutdown joins every connection thread and closes the listener.
        handle.shutdown();
        assert!(std::net::TcpStream::connect(addr).is_err());
    }
}
