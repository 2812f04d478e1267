//! The coordinator's handle to one mix server: direct, loopback or remote.

use std::net::TcpStream;
use std::time::Duration;

use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixnet::{NoiseConfig, ProcessedBatch};
use alpenhorn_wire::server::connect;
use alpenhorn_wire::{Frame, MixerRequest, MixerResponse, Round, RoundKind};

use crate::daemon::{MixdServer, CONNECTION_IO_TIMEOUT};
use crate::error::MixdError;

/// The coordinator's view of one mix server in a chain.
///
/// An implementation only says how a request reaches the server
/// ([`Mixer::call`]); the round operations are built on it. All three are
/// idempotent per (protocol, round): the server derives its bytes from
/// (seed, round id), so a caller may retry any of them after a failure
/// without desynchronizing the chain.
///
/// `Send + Sync` because chains of mixers live inside coordinators that are
/// shared across service threads (every method still takes `&mut self`; the
/// bound only promises that *holding* a handle across threads is safe).
pub trait Mixer: Send + Sync {
    /// Delivers one request to the server and returns its response.
    fn call(&mut self, request: MixerRequest) -> Result<MixerResponse, MixdError>;

    /// Opens (or re-derives) a round and returns its onion public key.
    fn begin_round(&mut self, protocol: RoundKind, round: Round) -> Result<DhPublic, MixdError> {
        match self.call(MixerRequest::BeginRound { protocol, round })? {
            MixerResponse::RoundKey(bytes) => {
                DhPublic::from_bytes(&bytes).map_err(|_| MixdError::UnexpectedResponse)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Hands the server one round's batch; returns the processed batch.
    fn process(
        &mut self,
        protocol: RoundKind,
        round: Round,
        num_mailboxes: u32,
        noise: &NoiseConfig,
        downstream: &[DhPublic],
        batch: Vec<Vec<u8>>,
    ) -> Result<ProcessedBatch, MixdError> {
        let request = MixerRequest::Process {
            protocol,
            round,
            num_mailboxes,
            noise_mu: noise.mu.to_bits(),
            noise_b: noise.b.to_bits(),
            downstream: downstream.iter().map(|k| k.to_bytes()).collect(),
            batch,
        };
        match self.call(request)? {
            MixerResponse::Processed {
                batch,
                noise_added,
                dropped,
            } => Ok(ProcessedBatch {
                batch,
                noise_added,
                dropped,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Closes a round, erasing the server's per-round secret.
    fn end_round(&mut self, protocol: RoundKind, round: Round) -> Result<(), MixdError> {
        match self.call(MixerRequest::EndRound { protocol, round })? {
            MixerResponse::Ack => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Severs the transport (if any) so the next call must re-establish it —
    /// the scenario engine's mixer-crash lever. Recovery must be invisible:
    /// retried calls reproduce identical bytes. In-process mixers have no
    /// transport; for them this is a no-op.
    fn disconnect(&mut self) {}
}

/// The error a response of the wrong kind stands for.
fn unexpected(response: MixerResponse) -> MixdError {
    match response {
        MixerResponse::Error(detail) => MixdError::Mixer(detail),
        _ => MixdError::UnexpectedResponse,
    }
}

/// An in-process daemon answers directly: the request reaches
/// [`MixdServer::handle`] with no codec round trip, which is how
/// [`MixChain::in_process`](crate::MixChain::in_process) deployments mix.
impl Mixer for MixdServer {
    fn call(&mut self, request: MixerRequest) -> Result<MixerResponse, MixdError> {
        Ok(self.handle(request))
    }
}

/// Drives requests through the full wire codec into an in-process
/// [`MixdServer`], so loopback deployments exercise the exact bytes a TCP
/// deployment puts on the network (and the equivalence tests pin both).
pub struct LoopbackMixer {
    server: MixdServer,
}

impl LoopbackMixer {
    /// Wraps a daemon.
    pub fn new(server: MixdServer) -> Self {
        LoopbackMixer { server }
    }

    /// Builds the daemon for chain position `index` of `cluster_seed` and
    /// wraps it.
    pub fn for_position(cluster_seed: [u8; 32], index: usize) -> Self {
        Self::new(MixdServer::new(cluster_seed, index))
    }
}

impl Mixer for LoopbackMixer {
    fn call(&mut self, request: MixerRequest) -> Result<MixerResponse, MixdError> {
        // Encode → decode on both legs: the in-process path must not skip
        // the serialization a remote daemon would perform.
        let request = MixerRequest::decode(&request.encode())?;
        let response = self.server.handle(request);
        Ok(MixerResponse::decode(&response.encode())?)
    }
}

/// When (and how often) a [`RemoteMixer`] retries a failed exchange,
/// mirroring the client transport's recovery policy: bounded attempts with
/// exponential backoff, reconnecting before each retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixRetryPolicy {
    /// Total attempts per call, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry (doubled afterwards).
    pub base_backoff: Duration,
    /// Upper bound on a single backoff wait.
    pub max_backoff: Duration,
}

impl MixRetryPolicy {
    /// One attempt, failures surfaced raw.
    pub fn none() -> Self {
        MixRetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The deployment default: 5 attempts, 25 ms base backoff doubling up
    /// to 1 s. Retried rounds replay byte-identically, so persistence is
    /// cheap and safe.
    pub fn standard() -> Self {
        MixRetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }

    /// Test-suite policy: many attempts, near-zero waits.
    pub fn aggressive_test() -> Self {
        MixRetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        }
    }

    fn backoff(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = retry.saturating_sub(1).min(20);
        self.base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
            .max(self.base_backoff)
    }
}

impl Default for MixRetryPolicy {
    fn default() -> Self {
        MixRetryPolicy::standard()
    }
}

/// A framed TCP connection to one `mixd` daemon, with reconnect-and-retry.
///
/// Connections are lazy: the first call dials. After any I/O or framing
/// failure the stream is dropped and the next attempt reconnects — safe
/// because every daemon response is a pure function of the request.
pub struct RemoteMixer {
    addr: String,
    stream: Option<TcpStream>,
    retry: MixRetryPolicy,
    connect_timeout: Duration,
}

impl RemoteMixer {
    /// Default bound on one connection attempt.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

    /// Creates a handle to the daemon at `addr` with the standard retry
    /// policy. Does not connect yet.
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteMixer {
            addr: addr.into(),
            stream: None,
            retry: MixRetryPolicy::standard(),
            connect_timeout: Self::DEFAULT_CONNECT_TIMEOUT,
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: MixRetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The daemon address this handle dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn exchange_once(&mut self, payload: &[u8]) -> Result<MixerResponse, MixdError> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => connect(
                &self.addr,
                self.connect_timeout,
                Some(CONNECTION_IO_TIMEOUT),
            )?,
        };
        let stream = self.stream.insert(stream);
        let result: Result<MixerResponse, MixdError> = (|| {
            Frame::write_to(stream, payload)?;
            let response = Frame::read_from(stream)?;
            Ok(MixerResponse::decode(&response)?)
        })();
        if result.is_err() {
            // The stream offset can no longer be trusted; reconnect next try.
            self.stream = None;
        }
        result
    }
}

impl Mixer for RemoteMixer {
    fn call(&mut self, request: MixerRequest) -> Result<MixerResponse, MixdError> {
        let payload = request.encode();
        let mut last = None;
        for attempt in 1..=self.retry.max_attempts.max(1) {
            if attempt > 1 {
                std::thread::sleep(self.retry.backoff(attempt - 1));
            }
            match self.exchange_once(&payload) {
                Ok(response) => return Ok(response),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(MixdError::Exhausted {
            attempts: self.retry.max_attempts.max(1),
            last: Box::new(last.expect("loop ran at least once")),
        })
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

    #[test]
    fn loopback_round_trip_through_the_codec() {
        let mut mixer = LoopbackMixer::for_position([9u8; 32], 0);
        let key = mixer.begin_round(RoundKind::AddFriend, Round(1)).unwrap();
        let again = mixer.begin_round(RoundKind::AddFriend, Round(1)).unwrap();
        assert_eq!(key.to_bytes(), again.to_bytes());
        let processed = mixer
            .process(
                RoundKind::AddFriend,
                Round(1),
                1,
                &NoiseConfig::deterministic(2.0),
                &[],
                vec![],
            )
            .unwrap();
        assert_eq!(processed.noise_added, 4); // 2 per mailbox x (1 + cover)
        mixer.end_round(RoundKind::AddFriend, Round(1)).unwrap();
        let err = mixer.process(
            RoundKind::AddFriend,
            Round(1),
            1,
            &NoiseConfig::deterministic(2.0),
            &[],
            vec![],
        );
        assert!(matches!(err, Err(MixdError::Mixer(_))), "{err:?}");
    }

    #[test]
    fn remote_mixer_surfaces_exhaustion_with_the_last_failure() {
        // Nothing listens on this port (reserved loopback, port 1).
        let mut mixer = RemoteMixer::new("127.0.0.1:1").with_retry(MixRetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        });
        let err = mixer.begin_round(RoundKind::AddFriend, Round(1));
        match err {
            Err(MixdError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 2);
                assert!(matches!(*last, MixdError::Io { .. }));
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn batch_too_large_for_one_frame_is_a_typed_error() {
        // A bare listener is enough: the request is refused before any byte
        // is written, and the refusal is terminal, not retried.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut mixer = RemoteMixer::new(listener.local_addr().unwrap().to_string());
        let batch = vec![vec![0u8; 1 << 20]; 17];
        let err = mixer.process(
            RoundKind::AddFriend,
            Round(1),
            1,
            &NoiseConfig::deterministic(2.0),
            &[],
            batch,
        );
        assert!(
            matches!(
                err,
                Err(MixdError::Io {
                    kind: std::io::ErrorKind::InvalidInput,
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn backoff_is_bounded() {
        let policy = MixRetryPolicy::standard();
        assert_eq!(policy.backoff(1), Duration::from_millis(25));
        assert_eq!(policy.backoff(2), Duration::from_millis(50));
        assert!(policy.backoff(30) <= policy.max_backoff);
        assert_eq!(MixRetryPolicy::none().backoff(1), Duration::ZERO);
    }
}
