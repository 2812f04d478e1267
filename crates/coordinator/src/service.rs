//! The coordinator service: the deployment's state and the effects that
//! change it.
//!
//! This is the server half of the client ↔ coordinator API defined in
//! [`alpenhorn_wire::rpc`]. [`CoordinatorService`] owns the [`Cluster`], the
//! rate-limit state and the round counter, and exposes one named method per
//! state-changing RPC (`register`, `issue_token`, `begin_round`, …). It does
//! not dispatch requests: every transport — the in-process loopback used by
//! tests and the simulator, and the TCP server in [`crate::server`] — funnels
//! into [`SharedCoordinator::handle`](crate::SharedCoordinator::handle), which
//! answers reads and submissions from its snapshot and calls these methods
//! under the service lock: shared for the two `&self` methods (key
//! extraction and token issuance), exclusive for the rest.
//!
//! Rate limiting (§9 of the paper) is configured here: when a
//! [`RateLimitPolicy`] is set, token issuance is budgeted per user per day
//! ([`CoordinatorService::issue_token`]) and every submission must carry a
//! valid blind-signature token, spent into its round's intake on the
//! submission path in [`crate::shared`]. Deployments without the policy
//! accept token-less submissions, matching the paper's prototype.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::blind::BlindedMessage;
use alpenhorn_ibe::sig::{Signature, SigningKey, VerifyingKey};
use alpenhorn_mixnet::RoundStats;
use alpenhorn_storage::{Durable, RecoveryReport, StorageConfig, StorageError};
use alpenhorn_wire::rpc::{
    AddFriendRoundWire, DialingRoundWire, IdentityKeyShareWire, RoundStatsWire,
};
use alpenhorn_wire::{
    Identity, RateLimitReason, Response, Round, RoundKind, RpcError, G1_LEN, SIGNATURE_LEN,
    SIGNING_PK_LEN,
};

use crate::cluster::{AddFriendRoundInfo, Cluster, DialingRoundInfo};
use crate::error::pkg_error_code;
use crate::persist::{self, CoordinatorCore};
use crate::ratelimit::{self, RateLimitError, TokenIssuer, TokenVerifier};

/// Backoff hint attached to [`RpcError::Unavailable`] replies caused by a
/// transient storage fault: long enough for a stuck disk to come back, short
/// enough that a client with a live deadline gets several attempts in.
const STORAGE_RETRY_AFTER_MS: u32 = 250;

/// Rate-limiting policy for a service (§9): per-user daily issuance budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitPolicy {
    /// Tokens each registered user may be issued per day. One token is spent
    /// per submission (real or cover), so the budget bounds a user's
    /// submissions per day.
    pub budget_per_day: u32,
}

/// Configuration for a [`CoordinatorService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Rate-limiting policy; `None` (the default, matching the paper's
    /// prototype) accepts token-less submissions.
    pub rate_limit: Option<RateLimitPolicy>,
}

/// An in-process [`Cluster`] plus the rate-limit state, with one method per
/// state-changing RPC.
///
/// The cluster, the rate-limit state, and the round counter live inside a
/// [`Durable<CoordinatorCore>`]: ephemeral by default (tests, simulation) or
/// backed by a data directory ([`CoordinatorService::with_storage`]), in
/// which case every state-changing request appends an effect record to the
/// WAL and the whole deployment recovers across a crash (see
/// [`crate::persist`]).
pub struct CoordinatorService {
    core: Durable<CoordinatorCore>,
    /// Tokens spent since this service was built, shared with the read-path
    /// snapshots that spend them. Not durable: the spent tokens themselves
    /// die with their round's intake.
    tokens_spent: Arc<AtomicUsize>,
}

fn build_core(cluster: Cluster, config: ServiceConfig) -> CoordinatorCore {
    let (issuer, verifier) = match config.rate_limit {
        None => (None, None),
        Some(policy) => {
            let mut seed = cluster.config().seed;
            seed[28] ^= 0x77;
            let mut rng = ChaChaRng::from_seed_bytes(seed);
            let issuer = TokenIssuer::new(SigningKey::generate(&mut rng), policy.budget_per_day);
            let verifier = TokenVerifier::new(issuer.verifying_key());
            (Some(issuer), Some(verifier))
        }
    };
    CoordinatorCore {
        cluster,
        issuer,
        verifier,
        add_friend_begun: Round(0),
        dialing_begun: Round(0),
        add_friend_opens: 0,
        dialing_opens: 0,
    }
}

impl CoordinatorService {
    /// Wraps `cluster` with the default configuration (no rate limiting, no
    /// durability).
    pub fn new(cluster: Cluster) -> Self {
        Self::with_config(cluster, ServiceConfig::default())
    }

    /// Wraps `cluster` with an explicit configuration but no backing storage.
    /// The rate-limit issuer key is derived deterministically from the
    /// cluster seed so seeded deployments stay reproducible.
    pub fn with_config(cluster: Cluster, config: ServiceConfig) -> Self {
        Self::from_core(Durable::ephemeral(build_core(cluster, config)))
    }

    /// Wraps `cluster` with durable state in `data_dir`, recovering any
    /// previous deployment's registrations, ratchet positions, rate-limit
    /// budgets, and round counter before returning — so a daemon built this
    /// way has fully recovered before it accepts its first connection.
    ///
    /// `cluster` must be freshly built from the same [`ClusterConfig`]
    /// (seed included) as the crashed deployment, with any remote mixers
    /// already connected: long-term keys are re-derived from the seed, while
    /// the journal and the PKG ratchet file restore everything that evolved
    /// at runtime, and both mix chains resume their round numbering after
    /// the journalled opens.
    ///
    /// [`ClusterConfig`]: crate::cluster::ClusterConfig
    pub fn with_storage(
        cluster: Cluster,
        config: ServiceConfig,
        data_dir: impl AsRef<Path>,
        storage: StorageConfig,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let data_dir = data_dir.as_ref();
        let (mut core, report) = Durable::open(build_core(cluster, config), data_dir, storage)?;
        let state = core.state_mut();
        persist::recover_ratchets(data_dir, state)?;
        state
            .cluster
            .resume_mix_chains(state.add_friend_opens, state.dialing_opens);
        Ok((Self::from_core(core), report))
    }

    fn from_core(core: Durable<CoordinatorCore>) -> Self {
        CoordinatorService {
            core,
            tokens_spent: Arc::default(),
        }
    }

    /// The wrapped cluster (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.core.state().cluster
    }

    /// The wrapped cluster (mutable, for round driving and test inspection).
    ///
    /// Mutations made through this escape hatch are **not journalled**;
    /// durable deployments must drive rounds through
    /// [`CoordinatorService::begin_round`] / [`CoordinatorService::close_round`]
    /// (as `alpenhornd` does) so the effects reach the WAL.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.core.state_mut().cluster
    }

    /// Whether submissions must carry rate-limit tokens.
    pub fn rate_limited(&self) -> bool {
        self.core.state().verifier.is_some()
    }

    /// Rate-limit tokens spent since this service was built (a recovered
    /// service starts at 0), or `None` when rate limiting is off.
    /// Test/inspection hook: a client retry storm must never move this
    /// differently than a fault-free run (each submission spends exactly one
    /// token, retries spend none).
    pub fn spent_token_count(&self) -> Option<usize> {
        self.rate_limited()
            .then(|| self.tokens_spent.load(Ordering::Relaxed))
    }

    /// Remaining token-issuance budget for `identity` today, or `None` when
    /// rate limiting is off. Test/inspection hook: a retried issuance must
    /// charge the budget exactly once (issuance is replay-idempotent).
    pub fn remaining_token_budget(&self, identity: &Identity) -> Option<u32> {
        let state = self.core.state();
        state
            .issuer
            .as_ref()
            .map(|issuer| issuer.remaining(identity, state.cluster.now()))
    }

    /// One past the highest round ever begun — where an automatic round
    /// driver resumes after a restart.
    pub fn next_round(&self) -> Round {
        self.core.state().next_round()
    }

    /// WAL fsyncs this service's store has issued since it opened (0 when
    /// ephemeral). Test/inspection hook: a round costs two — its open and
    /// its close barrier — however many clients take part.
    pub fn wal_fsyncs(&self) -> u64 {
        self.core.fsyncs()
    }

    /// Advances the deployment clock, journalling the advance.
    pub fn advance_clock(&mut self, seconds: u64) {
        self.core.state_mut().cluster.advance_time(seconds);
        // Clock drift on a failed append costs at most coarser rate-limit
        // windows; not worth failing the round loop over.
        let _ = self.journal(persist::REC_CLOCK_ADVANCED, &persist::u64_payload(seconds));
    }

    /// Appends one effect record for a mutation that just succeeded, at its
    /// kind's durability class ([`persist::durability`]). An append failure
    /// surfaces as a typed RPC error: the caller's retry will re-run the
    /// (idempotent) mutation once storage recovers.
    fn journal(&self, kind: u8, payload: &[u8]) -> Result<(), RpcError> {
        self.core
            .record(kind, payload, persist::durability(kind))
            .map_err(|e| storage_unavailable("durable log write", e))
    }

    /// Compacts the snapshot + WAL once `checkpoint_every_records` records
    /// have accumulated. Called at round boundaries only, so no client RPC
    /// ever waits on a full-state encode. A failure is not surfaced: every
    /// record is already durable, and the next boundary retries.
    fn compact_if_due(&mut self) {
        let _ = self.core.checkpoint_if_due();
    }

    /// `Register`: starts registration of `identity` at every PKG. Pending
    /// registrations are deliberately not journalled: the flow is idempotent
    /// and restarts cleanly after a crash.
    pub fn register(&mut self, identity: &Identity, signing_key: [u8; SIGNING_PK_LEN]) -> Response {
        let Ok(key) = VerifyingKey::from_bytes(&signing_key) else {
            return bad_request("malformed signing key");
        };
        match self.cluster_mut().begin_registration(identity, key) {
            Ok(()) => Response::Ack,
            Err(e) => Response::Error(e.into()),
        }
    }

    /// `CompleteRegistration`: confirms the emailed tokens and journals the
    /// installed account.
    pub fn complete_registration(&mut self, identity: &Identity) -> Response {
        if let Err(e) = self
            .cluster_mut()
            .complete_registration_from_inbox(identity)
        {
            // A retry after a journal failure (or a duplicate request after a
            // lost response) finds the account installed but the pending
            // entry consumed. Fall through so the effect record is
            // (re-)journalled — replaying a duplicate is idempotent — instead
            // of stranding an account that exists in memory but never
            // reached the log.
            if self.cluster().registered_signing_key(identity).is_none() {
                return Response::Error(e.into());
            }
        }
        // Journal the registry's stored timestamp, not the clock: a
        // duplicated request must re-record the installed effect verbatim,
        // not refresh the 30-day inactivity window.
        let cluster = self.cluster();
        let (Some(key), Some(last_seen)) = (
            cluster.registered_signing_key(identity),
            cluster.account_registry().account_last_seen(identity),
        ) else {
            return bad_request("registration completed without an account");
        };
        match self.journal(
            persist::REC_ACCOUNT_REGISTERED,
            &persist::account_registered(identity, &key, last_seen),
        ) {
            Ok(()) => Response::Ack,
            Err(e) => Response::Error(e),
        }
    }

    /// `Deregister`: removes `identity` at every PKG and journals the
    /// lockout.
    pub fn deregister(&mut self, identity: &Identity, signature: [u8; SIGNATURE_LEN]) -> Response {
        let Ok(signature) = Signature::from_bytes(&signature) else {
            return bad_request("malformed signature");
        };
        let deregistered_at = match self.cluster_mut().deregister(identity, &signature) {
            Ok(()) => self.cluster().now(),
            // A retry after a journal failure (or a duplicate request) finds
            // the account already gone but locked out. Re-journal the
            // *original* lockout time — the only observable effect is
            // re-recording an existing public fact, so accepting it without a
            // live key to verify against is safe and keeps deregistration
            // idempotent.
            Err(e) => match self.cluster().account_registry().lockout_time(identity) {
                Some(locked_out_at) => locked_out_at,
                None => return Response::Error(e.into()),
            },
        };
        match self.journal(
            persist::REC_ACCOUNT_DEREGISTERED,
            &persist::account_event(identity, deregistered_at),
        ) {
            Ok(()) => Response::Ack,
            Err(e) => Response::Error(e),
        }
    }

    /// `ExtractIdentityKeys`: extracts `identity`'s round key share from every
    /// PKG. Extraction refreshes the account's inactivity window; the refresh
    /// is journalled so the 30-day re-registration policy survives a restart.
    ///
    /// Takes `&self`, and the dispatcher calls it under the service *read*
    /// lock: the round secrets are only read, the refresh is atomic and
    /// forward-only, and `close_round` needs the write lock to erase the
    /// secrets, so it waits for every extraction in flight.
    pub fn extract_identity_keys(
        &self,
        identity: &Identity,
        round: Round,
        auth: [u8; SIGNATURE_LEN],
    ) -> Response {
        let Ok(auth) = Signature::from_bytes(&auth) else {
            return bad_request("malformed extraction signature");
        };
        let cluster = self.cluster();
        let responses = match cluster.extract_identity_keys(identity, round, &auth) {
            Ok(responses) => responses,
            Err(e) => return Response::Error(e.into()),
        };
        if let Err(e) = self.journal(
            persist::REC_ACCOUNT_TOUCHED,
            &persist::account_event(identity, cluster.now()),
        ) {
            return Response::Error(e);
        }
        Response::IdentityKeys(
            responses
                .iter()
                .map(|r| IdentityKeyShareWire {
                    identity_key: r.identity_key.to_bytes(),
                    attestation: r.attestation.to_bytes(),
                })
                .collect(),
        )
    }

    /// `Begin*Round`: opens `round` of `protocol`, sized for `expected_real`
    /// requests, and journals the open before the round info is served.
    ///
    /// A round at or below the highest one of `protocol` already begun is
    /// refused, and nothing is journalled: each (protocol, round) gets one
    /// intake over the deployment's life, also across crashes, which is what
    /// lets that intake be the round's whole double-spend ledger.
    pub fn begin_round(
        &mut self,
        protocol: RoundKind,
        round: Round,
        expected_real: u64,
    ) -> Response {
        let highest = self.core.state().highest_begun(protocol);
        if round <= highest {
            return bad_request(&format!(
                "{} round {} is at or below round {}, which already began",
                protocol.label(),
                round.as_u64(),
                highest.as_u64()
            ));
        }
        let rate_limited = self.rate_limited();
        let cluster = self.cluster_mut();
        let expected_real = expected_real as usize;
        let skips_announced = protocol == RoundKind::Dialing
            && cluster
                .announced_dialing_info()
                .is_some_and(|announced| announced.round != round);
        let begun = match protocol {
            RoundKind::AddFriend => cluster
                .begin_add_friend_round(round, expected_real)
                .map(|info| Response::AddFriendRoundInfo(add_friend_wire(&info, rate_limited))),
            RoundKind::Dialing => cluster
                .begin_dialing_round(round, expected_real)
                .map(|info| Response::DialingRoundInfo(dialing_wire(&info, rate_limited))),
        };
        let reply = match begun {
            Ok(reply) => reply,
            Err(e) => return Response::Error(e.into()),
        };
        if let Err(e) = self.round_begun(protocol, round, skips_announced) {
            return Response::Error(e);
        }
        self.compact_if_due();
        reply
    }

    /// The rate-limit token verifier, if rate limiting is enabled.
    pub(crate) fn verifier(&self) -> Option<TokenVerifier> {
        self.core.state().verifier
    }

    /// The spent-token count the read-path snapshots bump.
    pub(crate) fn tokens_spent_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.tokens_spent)
    }

    /// Journals a begun round, advancing the protocol's highest begun round
    /// and its open count. The round-open record is synced, so it is
    /// durable before the round info is served. A dialing open that skipped
    /// the announced round first journals the skip: that round's chain
    /// round was begun at the last close and ended unopened, and a
    /// recovered coordinator must resume the chain past it, not reopen it.
    /// Opening an add-friend round also advanced every PKG ratchet: the new
    /// positions then replace [`persist::RATCHET_FILE`] (never ahead of the
    /// journal), whose rename unlinks the superseded ones — forward secrecy
    /// for closed rounds even against disk theft.
    fn round_begun(
        &mut self,
        protocol: RoundKind,
        round: Round,
        skips_announced: bool,
    ) -> Result<(), RpcError> {
        self.core.state_mut().note_begun(protocol, round);
        let kind = match protocol {
            RoundKind::AddFriend => persist::REC_ADD_FRIEND_ROUND_BEGUN,
            RoundKind::Dialing => persist::REC_DIALING_ROUND_BEGUN,
        };
        let payload = persist::u64_payload(round.as_u64());
        let skip = || match skips_announced {
            true => self.journal(persist::REC_DIALING_ROUND_SKIPPED, &payload),
            false => Ok(()),
        };
        let result = skip()
            .and_then(|()| self.journal(kind, &payload))
            .and_then(|()| {
                let core = self.core.state_mut();
                if protocol == RoundKind::Dialing {
                    core.dialing_opens += 1 + u64::from(skips_announced);
                    return Ok(());
                }
                core.add_friend_opens += 1;
                match self.core.dir() {
                    Some(dir) => persist::write_ratchets(dir, self.core.state())
                        .map_err(|e| storage_unavailable("PKG ratchet file write", e)),
                    None => Ok(()),
                }
            });
        if let Err(e) = result {
            // The open could not be made durable, so the round must not be
            // served: abandon it before any client can fetch its info. (The
            // PKG ratchet advance cannot roll back — it is one-way by design.
            // If the record is durable but the file is not, recovery replays
            // the advance from the journal; if the record is lost too, a
            // recovery that misses the advance still interoperates, since no
            // client ever saw this round: clients fetch fresh round keys
            // every round and never pin server ratchet state.)
            count_abandoned(protocol);
            let cluster = self.cluster_mut();
            match protocol {
                RoundKind::AddFriend => cluster.abandon_open_add_friend_round(),
                RoundKind::Dialing => cluster.abandon_open_dialing_round(),
            }
            return Err(e);
        }
        Ok(())
    }

    /// `Close*Round`: closes the open round of `protocol`. The close is the
    /// WAL barrier: after the intake is sealed and before the batch reaches
    /// the first mixer, one fsync makes the round's buffered records (key
    /// extractions, token issuance) durable. If it fails the
    /// round is abandoned (submissions dropped, round keys erased) and the
    /// caller gets a retryable `Unavailable`.
    pub fn close_round(&mut self, protocol: RoundKind, round: Round) -> Response {
        let journal = self.core.journal();
        let rate_limited = self.rate_limited();
        let barrier = || {
            journal.sync().map_err(|e| {
                count_abandoned(protocol);
                storage_unavailable("round-close WAL barrier", e)
            })
        };
        let cluster = self.cluster_mut();
        let closed = match protocol {
            RoundKind::AddFriend => cluster.close_add_friend_round_after(round, barrier),
            RoundKind::Dialing => cluster.close_dialing_round_after(round, rate_limited, barrier),
        };
        match closed {
            Ok(stats) => {
                count_round_close(protocol, &stats);
                self.compact_if_due();
                Response::RoundClosed(round_stats_wire(&stats))
            }
            Err(e) => Response::Error(e),
        }
    }

    /// `IssueRateLimitToken`: blind-signs one rate-limit token against
    /// `identity`'s daily budget. Issuance is authenticated like key
    /// extraction: the request must be signed by the key registered for the
    /// identity. Takes `&self` and runs under the service read lock, like
    /// extraction: the check-and-charge is atomic inside the issuer's stripe
    /// for `identity`.
    pub fn issue_token(
        &self,
        identity: &Identity,
        blinded: [u8; G1_LEN],
        auth: [u8; SIGNATURE_LEN],
    ) -> Response {
        let core = self.core.state();
        let Some(issuer) = &core.issuer else {
            return Response::Error(RpcError::RateLimited {
                reason: RateLimitReason::NotEnabled,
            });
        };
        let Some(registered) = core.cluster.registered_signing_key(identity) else {
            return Response::Error(RpcError::Pkg {
                code: pkg_error_code(&alpenhorn_pkg::PkgError::UnknownIdentity),
                detail: alpenhorn_pkg::PkgError::UnknownIdentity.to_string(),
            });
        };
        let Ok(auth) = Signature::from_bytes(&auth) else {
            return bad_request("malformed issuance signature");
        };
        if !registered.verify(&ratelimit::issue_message(identity, &blinded), &auth) {
            return Response::Error(RpcError::Pkg {
                code: pkg_error_code(&alpenhorn_pkg::PkgError::AuthenticationFailed),
                detail: alpenhorn_pkg::PkgError::AuthenticationFailed.to_string(),
            });
        }
        let Ok(blinded_message) = BlindedMessage::from_bytes(&blinded) else {
            return bad_request("malformed blinded message");
        };
        let now = core.cluster.now();
        let blind_sig = match issuer.issue(identity, &blinded_message, now) {
            Ok(blind_sig) => blind_sig,
            Err(RateLimitError::BudgetExhausted) => {
                return Response::Error(RpcError::RateLimited {
                    reason: RateLimitReason::BudgetExhausted,
                })
            }
            Err(RateLimitError::InvalidToken) => return bad_request("unexpected issuance failure"),
        };
        if let Err(e) = self.journal(
            persist::REC_TOKEN_ISSUED,
            &persist::token_issued(identity, now, &blinded),
        ) {
            return Response::Error(e);
        }
        Response::TokenIssued {
            blind_signature: blind_sig.to_bytes(),
        }
    }
}

/// A retryable storage fault, typed for the client.
pub(crate) fn storage_unavailable(what: &str, e: StorageError) -> RpcError {
    RpcError::Unavailable {
        detail: format!("{what} failed: {e}"),
        retry_after_ms: STORAGE_RETRY_AFTER_MS,
    }
}

pub(crate) fn bad_request(detail: &str) -> Response {
    Response::Error(RpcError::BadRequest {
        detail: detail.to_string(),
    })
}

pub(crate) fn add_friend_wire(info: &AddFriendRoundInfo, rate_limited: bool) -> AddFriendRoundWire {
    AddFriendRoundWire {
        round: info.round,
        onion_keys: info.onion_keys.iter().map(|key| key.to_bytes()).collect(),
        pkg_publics: info.pkg_publics.iter().map(|pk| pk.to_bytes()).collect(),
        num_mailboxes: info.num_mailboxes,
        onion_len: info.onion_len as u32,
        rate_limited,
    }
}

pub(crate) fn dialing_wire(info: &DialingRoundInfo, rate_limited: bool) -> DialingRoundWire {
    DialingRoundWire {
        round: info.round,
        onion_keys: info.onion_keys.iter().map(|key| key.to_bytes()).collect(),
        num_mailboxes: info.num_mailboxes,
        onion_len: info.onion_len as u32,
        rate_limited,
    }
}

/// Feeds one closed round's message accounting into the shared registry, so
/// telemetry consumers can reconcile intake against mixnet output
/// (`final == submissions + noise - dropped` on the healthy path).
fn count_round_close(protocol: RoundKind, stats: &RoundStats) {
    let registry = alpenhorn_obs::global();
    let labels = &[("protocol", protocol.label())];
    registry
        .counter("coordinator_round_submissions_total", labels)
        .add(stats.client_messages as u64);
    registry
        .counter("coordinator_round_noise_total", labels)
        .add(stats.noise);
    registry
        .counter("coordinator_round_dropped_total", labels)
        .add(stats.dropped);
    registry
        .counter("coordinator_round_final_messages_total", labels)
        .add(stats.final_messages as u64);
    registry
        .counter("coordinator_rounds_closed_total", labels)
        .inc();
}

/// Counts a round abandoned because its journal could not be made durable:
/// a failed round-open record or a failed close barrier.
fn count_abandoned(protocol: RoundKind) {
    alpenhorn_obs::global()
        .counter(
            "coordinator_rounds_abandoned_total",
            &[("protocol", protocol.label()), ("cause", "journal")],
        )
        .inc();
}

fn round_stats_wire(stats: &RoundStats) -> RoundStatsWire {
    RoundStatsWire {
        client_messages: stats.client_messages as u64,
        total_noise: stats.noise,
        final_messages: stats.final_messages as u64,
    }
}

#[cfg(test)]
mod tests {
    //! The effect methods are tested directly; everything a client reaches
    //! through dispatch (round info, submissions, token spends, undecodable
    //! bytes) is tested through [`SharedCoordinator`], the one dispatcher.

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::shared::SharedCoordinator;
    use alpenhorn_ibe::blind::{blind, unblind, BlindedSignature};
    use alpenhorn_wire::server::Handler;
    use alpenhorn_wire::{RateLimitToken, Request};

    fn service(seed: u8) -> CoordinatorService {
        CoordinatorService::new(Cluster::new(ClusterConfig::test(seed)))
    }

    fn rate_limited_service(seed: u8, budget: u32) -> CoordinatorService {
        CoordinatorService::with_config(
            Cluster::new(ClusterConfig::test(seed)),
            ServiceConfig {
                rate_limit: Some(RateLimitPolicy {
                    budget_per_day: budget,
                }),
            },
        )
    }

    fn register(service: &mut CoordinatorService, email: &str) -> SigningKey {
        let identity = Identity::new(email).unwrap();
        let mut rng = ChaChaRng::from_seed_bytes([email.len() as u8; 32]);
        let key = SigningKey::generate(&mut rng);
        assert_eq!(
            service.register(&identity, key.verifying_key().to_bytes()),
            Response::Ack
        );
        assert_eq!(service.complete_registration(&identity), Response::Ack);
        key
    }

    /// Has the service blind-sign an add-friend round-1 token for `identity`
    /// and unblinds it, as a client would.
    fn issued_token(
        service: &CoordinatorService,
        key: &SigningKey,
        identity: &Identity,
        serial: [u8; 16],
        rng_seed: u8,
    ) -> RateLimitToken {
        let mut rng = ChaChaRng::from_seed_bytes([rng_seed; 32]);
        let message = ratelimit::spend_message(RoundKind::AddFriend, Round(1), &serial);
        let (blinded, factor) = blind(&message, &mut rng);
        let blinded = blinded.to_bytes();
        let auth = key.sign(&ratelimit::issue_message(identity, &blinded));
        let Response::TokenIssued { blind_signature } =
            service.issue_token(identity, blinded, auth.to_bytes())
        else {
            panic!("token issued");
        };
        RateLimitToken {
            serial,
            signature: unblind(
                &BlindedSignature::from_bytes(&blind_signature).unwrap(),
                &factor,
            )
            .to_bytes(),
        }
    }

    fn submit(
        shared: &SharedCoordinator,
        onion: Vec<u8>,
        token: Option<RateLimitToken>,
    ) -> Response {
        shared.handle(Request::SubmitAddFriend {
            round: Round(1),
            onion,
            token,
        })
    }

    fn open_add_friend_round(shared: &SharedCoordinator, expected_real: u64) -> usize {
        let Response::AddFriendRoundInfo(info) = shared.handle(Request::BeginAddFriendRound {
            round: Round(1),
            expected_real,
        }) else {
            panic!("round opens");
        };
        assert_eq!(info.rate_limited, shared.read().rate_limited());
        info.onion_len as usize
    }

    #[test]
    fn round_info_reports_no_open_round() {
        let shared = SharedCoordinator::new(service(40));
        assert_eq!(
            shared.handle(Request::GetAddFriendRoundInfo),
            Response::Error(RpcError::NoOpenRound {
                kind: RoundKind::AddFriend
            })
        );
        assert_eq!(
            shared.handle(Request::GetDialingRoundInfo),
            Response::Error(RpcError::NoOpenRound {
                kind: RoundKind::Dialing
            })
        );
    }

    #[test]
    fn begin_round_info_matches_get() {
        let shared = SharedCoordinator::new(service(41));
        let begun = shared.handle(Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 10,
        });
        let fetched = shared.handle(Request::GetAddFriendRoundInfo);
        assert_eq!(begun, fetched);
        let Response::AddFriendRoundInfo(info) = fetched else {
            panic!("expected round info");
        };
        assert_eq!(info.round, Round(1));
        assert_eq!(info.onion_keys.len(), 3);
        assert_eq!(info.pkg_publics.len(), 3);
        assert!(!info.rate_limited);
    }

    #[test]
    fn malformed_requests_get_typed_errors_not_panics() {
        let shared = SharedCoordinator::new(service(42));
        let identity = Identity::new("alice@example.com").unwrap();
        assert!(matches!(
            shared.handle(Request::Register {
                identity: identity.clone(),
                signing_key: [0xffu8; SIGNING_PK_LEN],
            }),
            Response::Error(RpcError::BadRequest { .. })
        ));
        assert!(matches!(
            shared.handle(Request::Deregister {
                identity,
                signature: [0xffu8; SIGNATURE_LEN],
            }),
            Response::Error(RpcError::BadRequest { .. })
        ));
        // Undecodable request bytes still get an encoded, typed reply.
        let reply = shared.respond(&[0xde, 0xad, 0xbe, 0xef]);
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Error(RpcError::BadRequest { .. })
        ));
    }

    #[test]
    fn rate_limited_submissions_require_valid_tokens() {
        let mut service = rate_limited_service(43, 4);
        let key = register(&mut service, "alice@example.com");
        let identity = Identity::new("alice@example.com").unwrap();
        let token = issued_token(&service, &key, &identity, [7u8; 16], 9);
        let shared = SharedCoordinator::new(service);
        let onion_len = open_add_friend_round(&shared, 4);
        let onion = vec![0u8; onion_len];

        // No token: rejected.
        assert_eq!(
            submit(&shared, onion.clone(), None),
            Response::Error(RpcError::RateLimited {
                reason: RateLimitReason::MissingToken
            })
        );

        // Forged token: rejected.
        let forged = RateLimitToken {
            serial: [1u8; 16],
            signature: [0u8; SIGNATURE_LEN],
        };
        assert_eq!(
            submit(&shared, onion.clone(), Some(forged)),
            Response::Error(RpcError::RateLimited {
                reason: RateLimitReason::InvalidToken
            })
        );

        // Properly issued token: accepted once, double spend rejected.
        assert_eq!(submit(&shared, onion.clone(), Some(token)), Response::Ack);
        // Resubmitting the *same* onion is a retry of an already-accepted
        // submission: acked without consulting (or burning) the token.
        assert_eq!(submit(&shared, onion, Some(token)), Response::Ack);
        assert_eq!(shared.read().spent_token_count(), Some(1));
        // Spending the same token on a *different* submission is the real
        // double-spend and stays rejected.
        assert_eq!(
            submit(&shared, vec![1u8; onion_len], Some(token)),
            Response::Error(RpcError::RateLimited {
                reason: RateLimitReason::DoubleSpend
            })
        );
    }

    #[test]
    fn rejected_submissions_do_not_burn_the_token() {
        // A wrong-sized onion (or wrong round) must be rejected before the
        // token is spent, so the same token still works on the corrected
        // submission — otherwise one malformed request costs a unit of the
        // daily budget.
        let mut service = rate_limited_service(47, 1);
        let key = register(&mut service, "erin@example.com");
        let erin = Identity::new("erin@example.com").unwrap();
        let token = issued_token(&service, &key, &erin, [3u8; 16], 8);
        let shared = SharedCoordinator::new(service);
        let onion_len = open_add_friend_round(&shared, 1);

        // Wrong size: rejected without spending.
        assert!(matches!(
            submit(&shared, vec![0u8; onion_len - 1], Some(token)),
            Response::Error(RpcError::WrongRequestSize { .. })
        ));
        // Wrong round: likewise.
        assert!(matches!(
            shared.handle(Request::SubmitAddFriend {
                round: Round(9),
                onion: vec![0u8; onion_len],
                token: Some(token),
            }),
            Response::Error(RpcError::RoundNotOpen { .. })
        ));
        assert_eq!(shared.read().spent_token_count(), Some(0));
        // The corrected submission spends the same token successfully.
        assert_eq!(
            submit(&shared, vec![0u8; onion_len], Some(token)),
            Response::Ack
        );
    }

    #[test]
    fn issuance_requires_registration_and_valid_auth() {
        let mut service = rate_limited_service(44, 2);
        let identity = Identity::new("ghost@example.com").unwrap();
        let mut rng = ChaChaRng::from_seed_bytes([5u8; 32]);
        let (blinded, _) = blind(b"message", &mut rng);
        // Unknown identity.
        assert!(matches!(
            service.issue_token(&identity, blinded.to_bytes(), [0u8; SIGNATURE_LEN]),
            Response::Error(RpcError::Pkg { code: 4, .. })
        ));
        // Registered identity, wrong key signing the request.
        let _real_key = register(&mut service, "carol@example.com");
        let carol = Identity::new("carol@example.com").unwrap();
        let rogue = SigningKey::generate(&mut rng);
        let auth = rogue.sign(&ratelimit::issue_message(&carol, &blinded.to_bytes()));
        assert!(matches!(
            service.issue_token(&carol, blinded.to_bytes(), auth.to_bytes()),
            Response::Error(RpcError::Pkg { code: 5, .. })
        ));
    }

    #[test]
    fn issuance_budget_is_enforced() {
        let mut service = rate_limited_service(45, 1);
        let key = register(&mut service, "dan@example.com");
        let dan = Identity::new("dan@example.com").unwrap();
        let mut rng = ChaChaRng::from_seed_bytes([6u8; 32]);
        for attempt in 0..2 {
            let (blinded, _) = blind(format!("m{attempt}").as_bytes(), &mut rng);
            let blinded_bytes = blinded.to_bytes();
            let auth = key.sign(&ratelimit::issue_message(&dan, &blinded_bytes));
            let response = service.issue_token(&dan, blinded_bytes, auth.to_bytes());
            if attempt == 0 {
                assert!(matches!(response, Response::TokenIssued { .. }));
            } else {
                assert_eq!(
                    response,
                    Response::Error(RpcError::RateLimited {
                        reason: RateLimitReason::BudgetExhausted
                    })
                );
            }
        }
    }

    #[test]
    fn duplicate_completion_and_deregistration_are_idempotent() {
        // A client retrying after a lost response (or after the server
        // reported a transient journal failure) must get Ack, not an error:
        // the effect is already installed and the retry exists so it can be
        // (re-)journalled.
        let mut service = service(48);
        let key = register(&mut service, "frank@example.com");
        let frank = Identity::new("frank@example.com").unwrap();
        assert_eq!(
            service.complete_registration(&frank),
            Response::Ack,
            "duplicate completion is idempotent"
        );

        let signature = key
            .sign(&alpenhorn_pkg::server::deregistration_message(&frank))
            .to_bytes();
        assert_eq!(service.deregister(&frank, signature), Response::Ack);
        assert_eq!(
            service.deregister(&frank, signature),
            Response::Ack,
            "duplicate deregistration is idempotent"
        );
        // An identity that never existed still gets a typed error.
        assert!(matches!(
            service.deregister(&Identity::new("ghost@example.com").unwrap(), signature),
            Response::Error(RpcError::Pkg { .. })
        ));
    }

    #[test]
    fn a_round_id_opens_once_per_protocol() {
        // Each (protocol, round) gets one intake over the deployment's life:
        // a round at or below the highest begun is refused, journalling
        // nothing, while the other protocol's round of the same id opens.
        let dir =
            std::env::temp_dir().join(format!("alpenhorn-service-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut service, _) = CoordinatorService::with_storage(
            Cluster::new(ClusterConfig::test(49)),
            ServiceConfig::default(),
            &dir,
            StorageConfig::default(),
        )
        .unwrap();
        let files = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    (path.clone(), std::fs::read(path).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let begin = |service: &mut CoordinatorService, protocol, round| {
            service.begin_round(protocol, Round(round), 1)
        };
        assert!(matches!(
            begin(&mut service, RoundKind::AddFriend, 3),
            Response::AddFriendRoundInfo(_)
        ));
        assert!(matches!(
            service.close_round(RoundKind::AddFriend, Round(3)),
            Response::RoundClosed(_)
        ));
        let on_disk = files();
        for round in [3, 2] {
            assert!(matches!(
                begin(&mut service, RoundKind::AddFriend, round),
                Response::Error(RpcError::BadRequest { .. })
            ));
        }
        assert_eq!(files(), on_disk, "a refused begin journals nothing");
        assert!(matches!(
            begin(&mut service, RoundKind::Dialing, 3),
            Response::DialingRoundInfo(_)
        ));
        assert!(matches!(
            begin(&mut service, RoundKind::AddFriend, 4),
            Response::AddFriendRoundInfo(_)
        ));
        assert_eq!(service.next_round(), Round(5));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tokens_are_not_required_when_disabled() {
        let shared = SharedCoordinator::new(service(46));
        let onion_len = open_add_friend_round(&shared, 1);
        assert_eq!(submit(&shared, vec![0u8; onion_len], None), Response::Ack);
        assert_eq!(
            shared.handle(Request::IssueRateLimitToken {
                identity: Identity::new("a@b.co").unwrap(),
                blinded: [0u8; G1_LEN],
                auth: [0u8; SIGNATURE_LEN],
            }),
            Response::Error(RpcError::RateLimited {
                reason: RateLimitReason::NotEnabled
            })
        );
    }
}
