//! Client-side retry, backoff, and deadline policy for coordinator RPCs.
//!
//! Every [`crate::Client`] RPC funnels through [`execute`], which classifies
//! failures into **retryable** and **terminal**:
//!
//! * retryable — any [`TransportError`] (the request may never have reached
//!   the coordinator, or the response was lost; the transport is
//!   [`Transport::reset`] before the next attempt, which reconnects a
//!   poisoned TCP connection), and the typed server fault
//!   [`RpcError::Unavailable`] (overload shedding, storage stalls), whose
//!   `retry_after_ms` hint stretches the backoff;
//! * terminal — every other server-reported error (`BadRequest`,
//!   `RateLimited`, round-state errors, ...): retrying cannot change the
//!   answer, so the error surfaces immediately.
//!
//! The default policy is [`RetryPolicy::none`]: one attempt, failures
//! surfaced raw — exactly the pre-retry client behaviour. Applications (and
//! the chaos test-suite) opt in via [`RetryPolicy::standard`] or a custom
//! policy.
//!
//! Retries are deliberately invisible to the protocol state machine: the
//! jitter stream is independent of the client's cryptographic RNG, so a run
//! that needed five attempts per call emits byte-identical
//! [`crate::ClientEvent`]s to a fault-free run (asserted by
//! `tests/chaos.rs`). Whether retrying a *mutating* RPC is safe is a server
//! contract — every mutating Alpenhorn RPC is replay-idempotent; see
//! "Fault model & retry semantics" in `docs/ARCHITECTURE.md`.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_obs::Counter;
use alpenhorn_wire::{Request, Response, RpcError};

use crate::error::ClientError;
use crate::transport::Transport;

/// Client retry, round-speculation and dialing round-info telemetry.
/// Counters only — never
/// timings — so the values are deterministic for a given fault schedule, and
/// never read back by the protocol.
struct RetryMetrics {
    retries_total: Arc<Counter>,
    unavailable_total: Arc<Counter>,
    exhausted_total: Arc<Counter>,
    deadline_total: Arc<Counter>,
    speculation_hits: Arc<Counter>,
    speculation_misses: Arc<Counter>,
    dialing_info_announced: Arc<Counter>,
    dialing_info_fetched: Arc<Counter>,
}

fn retry_metrics() -> &'static RetryMetrics {
    static METRICS: OnceLock<RetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        RetryMetrics {
            retries_total: r.counter("client_retries_total", &[]),
            unavailable_total: r.counter("client_unavailable_total", &[]),
            exhausted_total: r.counter("client_retries_exhausted_total", &[]),
            deadline_total: r.counter("client_deadline_expired_total", &[]),
            speculation_hits: r.counter("client_round_speculation_total", &[("outcome", "hit")]),
            speculation_misses: r.counter("client_round_speculation_total", &[("outcome", "miss")]),
            dialing_info_announced: r.counter(
                "client_dialing_round_info_total",
                &[("source", "announced")],
            ),
            dialing_info_fetched: r
                .counter("client_dialing_round_info_total", &[("source", "fetched")]),
        }
    })
}

/// Counts one speculative add-friend batch by whether its round guess held.
/// A miss costs the participation the serial calls the batch was meant to
/// save, which a deployment whose clients skip rounds would otherwise pay
/// without seeing it.
pub(crate) fn count_speculation(hit: bool) {
    let metrics = retry_metrics();
    if hit {
        metrics.speculation_hits.inc();
    } else {
        metrics.speculation_misses.inc();
    }
}

/// Counts where a dialing participation took its round info from: the
/// announcement in the previous round's mailbox, or a `GetDialingRoundInfo`
/// call. An announcement the coordinator refuses counts once each way, so
/// `fetched` is exactly the number of round-info calls.
pub(crate) fn count_dialing_round_info(announced: bool) {
    let metrics = retry_metrics();
    if announced {
        metrics.dialing_info_announced.inc();
    } else {
        metrics.dialing_info_fetched.inc();
    }
}

/// When (and how often) a [`crate::Client`] retries a failed RPC.
///
/// Backoff between attempts is exponential with decorrelating jitter: the
/// `n`-th wait is drawn uniformly from `[base/2 .. base] * 2^(n-1)`, capped
/// at `max_backoff`, and stretched to honour any server `retry_after_ms`
/// hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry (scaled exponentially afterwards).
    pub base_backoff: Duration,
    /// Upper bound on a single backoff wait.
    pub max_backoff: Duration,
    /// Overall per-call time budget across all attempts and waits. When it
    /// expires before a retry would start, the call fails with
    /// [`ClientError::Deadline`]. `None` bounds the call only by
    /// `max_attempts`.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// One attempt, no waiting: failures surface raw and unchanged. This is
    /// the default policy, preserving exact pre-retry client behaviour.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: None,
        }
    }

    /// A production-shaped policy: 5 attempts, 25 ms base backoff doubling
    /// up to 1 s, 10 s per-call deadline.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            deadline: Some(Duration::from_secs(10)),
        }
    }

    /// An aggressive test-suite policy: many attempts, near-zero waits, no
    /// deadline — rides out dense fault schedules without slowing the tests.
    pub fn aggressive_test() -> Self {
        RetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: None,
        }
    }

    /// Whether this policy never retries (single attempt).
    pub fn is_none(&self) -> bool {
        self.max_attempts <= 1
    }

    /// The jittered wait before retry number `retry` (1-based).
    fn backoff(&self, retry: u32, rng: &mut ChaChaRng) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = retry.saturating_sub(1).min(20);
        let scaled = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
            .max(self.base_backoff);
        // Decorrelating jitter: uniform in [scaled/2, scaled].
        let nanos = scaled.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + rng.gen_range(nanos / 2 + 1))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// How a failed attempt should be handled.
enum Classified {
    /// Retryable after a transport reset (connection-level failure; the
    /// request may or may not have reached the server).
    ResetAndRetry(ClientError),
    /// Retryable transient server fault; the server suggested waiting at
    /// least this long (0 = no hint).
    RetryAfter(ClientError, u32),
    /// Not retryable; surface immediately.
    Terminal(ClientError),
}

fn classify(
    outcome: Result<Response, crate::transport::TransportError>,
) -> Result<Response, Classified> {
    match outcome {
        Ok(Response::Error(e)) => match e {
            RpcError::Unavailable { retry_after_ms, .. } => {
                let hint = retry_after_ms;
                Err(Classified::RetryAfter(ClientError::from(e), hint))
            }
            other => Err(Classified::Terminal(ClientError::from(other))),
        },
        Ok(response) => Ok(response),
        // Every transport failure is retryable: either the request never
        // made it out (safe to resend) or the response was lost after the
        // server executed it (safe because every mutating RPC is
        // replay-idempotent). Poisoned connections are repaired by reset.
        Err(te) => Err(Classified::ResetAndRetry(ClientError::from(te))),
    }
}

/// Issues `request` through `net` under `policy`, resending on retryable
/// failures with jittered exponential backoff (drawn from `rng`) until the
/// call succeeds, a terminal error surfaces, the attempt budget runs out
/// ([`ClientError::RetriesExhausted`]), or the deadline expires
/// ([`ClientError::Deadline`]).
///
/// Under [`RetryPolicy::none`] this is exactly one `net.call` with no
/// cloning, waiting, or error rewrapping.
pub fn execute<T: Transport + ?Sized>(
    policy: &RetryPolicy,
    rng: &mut ChaChaRng,
    net: &mut T,
    request: Request,
) -> Result<Response, ClientError> {
    if policy.is_none() {
        return match net.call(request)? {
            Response::Error(e) => Err(e.into()),
            response => Ok(response),
        };
    }

    let started = Instant::now();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let (error, reset, hint_ms) = match classify(net.call(request.clone())) {
            Ok(response) => return Ok(response),
            Err(Classified::Terminal(e)) => return Err(e),
            Err(Classified::ResetAndRetry(e)) => (e, true, 0),
            Err(Classified::RetryAfter(e, hint)) => {
                retry_metrics().unavailable_total.inc();
                (e, false, hint)
            }
        };
        if attempts >= policy.max_attempts {
            retry_metrics().exhausted_total.inc();
            return Err(ClientError::RetriesExhausted {
                attempts,
                last: Box::new(error),
            });
        }
        retry_metrics().retries_total.inc();
        let wait = policy
            .backoff(attempts, rng)
            .max(Duration::from_millis(u64::from(hint_ms)));
        if let Some(deadline) = policy.deadline {
            if started.elapsed() + wait >= deadline {
                retry_metrics().deadline_total.inc();
                return Err(ClientError::Deadline {
                    attempts,
                    last: Box::new(error),
                });
            }
        }
        if reset {
            // Repair the transport before resending (reconnects a poisoned
            // TCP connection; no-op on healthy or stateless transports). A
            // failing reset just burns an attempt — the coordinator may come
            // back within the budget.
            let _ = net.reset();
        }
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportError;

    /// A scripted transport: pops one outcome per call.
    struct Scripted {
        outcomes: Vec<Result<Response, TransportError>>,
        resets: u32,
    }

    impl Transport for Scripted {
        fn call(&mut self, _request: Request) -> Result<Response, TransportError> {
            self.outcomes.remove(0)
        }
        fn reset(&mut self) -> Result<(), TransportError> {
            self.resets += 1;
            Ok(())
        }
    }

    fn rng() -> ChaChaRng {
        ChaChaRng::from_seed_bytes([7u8; 32])
    }

    fn io_error() -> TransportError {
        TransportError::Io {
            kind: std::io::ErrorKind::ConnectionReset,
            detail: "scripted".into(),
        }
    }

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: None,
        }
    }

    #[test]
    fn transient_failures_are_retried_with_reset() {
        let mut net = Scripted {
            outcomes: vec![Err(io_error()), Err(io_error()), Ok(Response::Ack)],
            resets: 0,
        };
        let got = execute(&fast_policy(5), &mut rng(), &mut net, Request::GetPkgKeys).unwrap();
        assert_eq!(got, Response::Ack);
        assert_eq!(net.resets, 2);
    }

    #[test]
    fn unavailable_is_retried_without_reset() {
        let unavailable = Response::Error(RpcError::Unavailable {
            detail: "scripted".into(),
            retry_after_ms: 0,
        });
        let mut net = Scripted {
            outcomes: vec![Ok(unavailable), Ok(Response::Ack)],
            resets: 0,
        };
        let got = execute(&fast_policy(5), &mut rng(), &mut net, Request::GetPkgKeys).unwrap();
        assert_eq!(got, Response::Ack);
        assert_eq!(net.resets, 0);
    }

    #[test]
    fn terminal_server_errors_surface_immediately() {
        let mut net = Scripted {
            outcomes: vec![Ok(Response::Error(RpcError::BadRequest {
                detail: "scripted".into(),
            }))],
            resets: 0,
        };
        let err = execute(&fast_policy(5), &mut rng(), &mut net, Request::GetPkgKeys).unwrap_err();
        assert!(matches!(err, ClientError::Rpc(RpcError::BadRequest { .. })));
        assert_eq!(net.resets, 0);
    }

    #[test]
    fn attempt_budget_exhaustion_is_typed() {
        let mut net = Scripted {
            outcomes: vec![Err(io_error()), Err(io_error()), Err(io_error())],
            resets: 0,
        };
        let err = execute(&fast_policy(3), &mut rng(), &mut net, Request::GetPkgKeys).unwrap_err();
        let ClientError::RetriesExhausted { attempts, last } = err else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert_eq!(attempts, 3);
        assert!(matches!(*last, ClientError::Transport(_)));
    }

    #[test]
    fn deadline_expiry_is_typed() {
        let mut net = Scripted {
            outcomes: vec![Err(io_error()); 10],
            resets: 0,
        };
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
            deadline: Some(Duration::from_millis(1)),
        };
        let err = execute(&policy, &mut rng(), &mut net, Request::GetPkgKeys).unwrap_err();
        assert!(matches!(err, ClientError::Deadline { .. }));
    }

    #[test]
    fn none_policy_surfaces_raw_errors() {
        let mut net = Scripted {
            outcomes: vec![Err(io_error())],
            resets: 0,
        };
        let err = execute(
            &RetryPolicy::none(),
            &mut rng(),
            &mut net,
            Request::GetPkgKeys,
        )
        .unwrap_err();
        assert_eq!(err, ClientError::Transport(io_error()));
        assert_eq!(net.resets, 0);
    }
}
