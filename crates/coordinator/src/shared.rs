//! The coordinator's request dispatcher: epoch snapshots over an exclusive
//! core.
//!
//! [`SharedCoordinator::handle`] is the one place a [`Request`] is matched.
//! It wraps a [`CoordinatorService`] so many connections can be served at
//! once without funnelling every RPC through one mutex:
//!
//! * **Exclusive path** — round-driving, registration and clock RPCs take
//!   the service write lock and call the matching [`CoordinatorService`]
//!   method (`register`, `begin_round`, …), so their semantics (validation
//!   order, journalling, idempotency) are those of a single-lock build.
//! * **PKG path** — `ExtractIdentityKeys` and `IssueRateLimitToken` take the
//!   service *read* lock and call the `&self` methods
//!   `extract_identity_keys` and `issue_token`, so concurrent add-friend
//!   participants extract and are issued tokens in parallel. What they
//!   change is interior-mutable and order-free: an atomic, forward-only
//!   `last_seen` refresh and the issuer's per-identity budget stripe, each
//!   journalled (buffered) through the WAL's own mutex. Nothing they change
//!   is in the snapshot, so they do not republish it. Closing a round needs
//!   the write lock to erase the PKG round secrets, so it waits for every
//!   extraction in flight, and no extraction starts until it is done: a
//!   round secret is never read after its round closed.
//! * **Read path** — the hot, read-mostly RPCs (`GetPkgKeys`,
//!   `Get*RoundInfo`, `Fetch*Mailbox`) are answered from an immutable
//!   `ReadSnapshot` behind an `Arc`, with **zero** service-lock
//!   acquisitions.
//! * **Batch** — a [`Request::Batch`] runs its members in order through
//!   these same arms (`run_batch`), stopping after the first error. The
//!   members are round info (read path), key extraction and token issuance
//!   (PKG path). The client puts extraction before issuance, and the
//!   PKGs refuse to extract for any round but the open one, so a batch that
//!   guessed the wrong round stops before issuance charges any budget.
//! * **Submission path** — `Submit*` RPCs validate against the snapshot and
//!   enqueue into the open round's [`SubmissionIntake`], spending
//!   rate-limit tokens through the lock-striped [`TokenVerifier`] and
//!   journalling the spend, buffered, through the shared [`Journal`] (the
//!   round-close barrier makes it durable). Concurrent submitters contend
//!   on the intake mutex, one verifier stripe and one short WAL write.
//!
//! ## Epoch publication rules
//!
//! A fresh snapshot is captured and published **on every write-guard drop,
//! while the write lock is still held** ([`ServiceWriteGuard`]). Because
//! every mutation of snapshot-visible state goes through the write guard
//! (the PKG path changes none), the published snapshot is
//! never older than the last completed mutation: a reader observes either
//! the pre-mutation or the post-mutation world, exactly as if it had taken
//! one mutex just before or just after — never a torn mixture. The
//! `epoch` counter increments per publication so tests and benchmarks can
//! observe publication without comparing snapshot contents.
//!
//! The intake inside a snapshot is shared (`Arc`) with the live round, not
//! copied, and is *sealed* at round close. A submitter holding a stale
//! snapshot whose round just closed finds the intake sealed and gets
//! `RoundNotOpen` — the same answer a request that arrives after the close
//! gets. See `docs/CONCURRENCY.md` for the full determinism argument.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use alpenhorn_ibe::sig::Signature;
use alpenhorn_mixnet::AddFriendMailboxes;
use alpenhorn_storage::Journal;
use alpenhorn_wire::rpc::{AddFriendRoundWire, DialingRoundWire, MAX_BATCH_MEMBERS};
use alpenhorn_wire::{
    RateLimitReason, RateLimitToken, Request, Response, Round, RoundKind, RpcError, SIGNING_PK_LEN,
};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::cdn::{serve_add_friend, serve_dialing, PublishedDialing};
use crate::persist;
use crate::ratelimit::{self, RateLimitError, TokenVerifier};
use crate::service::{
    add_friend_wire, bad_request, dialing_wire, storage_unavailable, CoordinatorService,
};
use crate::shard::{Offer, SubmissionIntake};

/// The open-round slice of a snapshot: everything a round-info or submit RPC
/// needs, plus the shared intake accepting this round's onions.
struct OpenRoundSnapshot<Wire> {
    wire: Wire,
    round: Round,
    num_mailboxes: u32,
    onion_len: usize,
    intake: Arc<SubmissionIntake>,
}

/// One immutable view of the coordinator's read-mostly state, shared by
/// every fast-path RPC served between two write-guard drops.
struct ReadSnapshot {
    pkg_keys: Vec<[u8; SIGNING_PK_LEN]>,
    add_friend: Option<OpenRoundSnapshot<AddFriendRoundWire>>,
    dialing: Option<OpenRoundSnapshot<DialingRoundWire>>,
    verifier: Option<Arc<TokenVerifier>>,
    journal: Journal,
    add_friend_mailboxes: Arc<HashMap<u64, Arc<AddFriendMailboxes>>>,
    dialing_mailboxes: Arc<HashMap<u64, Arc<PublishedDialing>>>,
}

fn capture(service: &CoordinatorService) -> Arc<ReadSnapshot> {
    let rate_limited = service.rate_limited();
    let cluster = service.cluster();
    let cdn = cluster.cdn_ref();
    Arc::new(ReadSnapshot {
        pkg_keys: cluster
            .pkg_verifying_keys()
            .iter()
            .map(|key| key.to_bytes())
            .collect(),
        add_friend: cluster
            .open_add_friend_round()
            .map(|(info, intake)| OpenRoundSnapshot {
                wire: add_friend_wire(info, rate_limited),
                round: info.round,
                num_mailboxes: info.num_mailboxes,
                onion_len: info.onion_len,
                intake: Arc::clone(intake),
            }),
        dialing: cluster
            .open_dialing_round()
            .map(|(info, intake)| OpenRoundSnapshot {
                wire: dialing_wire(info, rate_limited),
                round: info.round,
                num_mailboxes: info.num_mailboxes,
                onion_len: info.onion_len,
                intake: Arc::clone(intake),
            }),
        verifier: service.verifier_handle(),
        journal: service.journal_handle(),
        add_friend_mailboxes: cdn.add_friend_rounds(),
        dialing_mailboxes: cdn.dialing_rounds(),
    })
}

struct Inner {
    service: RwLock<CoordinatorService>,
    snapshot: RwLock<Arc<ReadSnapshot>>,
    epoch: AtomicU64,
}

/// A cloneable, thread-safe handle to one coordinator deployment. See the
/// module docs for which RPCs take the exclusive path vs. the snapshot path.
#[derive(Clone)]
pub struct SharedCoordinator {
    inner: Arc<Inner>,
}

/// Write access to the wrapped [`CoordinatorService`]. Dropping the guard
/// captures and publishes a fresh `ReadSnapshot` *while still holding the
/// write lock*, so the published snapshot can never lag a completed
/// mutation.
pub struct ServiceWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, CoordinatorService>,
    inner: &'a Inner,
}

impl Deref for ServiceWriteGuard<'_> {
    type Target = CoordinatorService;
    fn deref(&self) -> &CoordinatorService {
        &self.guard
    }
}

impl DerefMut for ServiceWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut CoordinatorService {
        &mut self.guard
    }
}

impl Drop for ServiceWriteGuard<'_> {
    fn drop(&mut self) {
        // Republish before the write lock is released (the lock itself drops
        // after this body): readers switch atomically from the pre-mutation
        // snapshot to the post-mutation one with no in-between state.
        *self.inner.snapshot.write() = capture(&self.guard);
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

impl SharedCoordinator {
    /// Wraps a service, capturing the initial snapshot.
    pub fn new(service: CoordinatorService) -> Self {
        let snapshot = capture(&service);
        SharedCoordinator {
            inner: Arc::new(Inner {
                service: RwLock::new(service),
                snapshot: RwLock::new(snapshot),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// Exclusive access to the service. Mutations made through the guard are
    /// published to the read path when the guard drops.
    pub fn write(&self) -> ServiceWriteGuard<'_> {
        ServiceWriteGuard {
            guard: self.inner.service.write(),
            inner: &self.inner,
        }
    }

    /// Shared read access to the service: the PKG path, and inspection that
    /// needs the live state rather than the published snapshot (tests, stats
    /// reporting). Does not republish.
    pub fn read(&self) -> RwLockReadGuard<'_, CoordinatorService> {
        self.inner.service.read()
    }

    /// [`SharedCoordinator::write`] for dispatching `rpc`, timing the wait
    /// for the lock into `coordinator_lock_wait_us{rpc}`.
    fn write_for(&self, rpc: &'static str) -> ServiceWriteGuard<'_> {
        let started = Instant::now();
        let guard = self.write();
        observe_lock_wait(rpc, started);
        guard
    }

    /// [`SharedCoordinator::read`] for dispatching `rpc`, timed like
    /// [`SharedCoordinator::write_for`].
    fn read_for(&self, rpc: &'static str) -> RwLockReadGuard<'_, CoordinatorService> {
        let started = Instant::now();
        let guard = self.read();
        observe_lock_wait(rpc, started);
        guard
    }

    /// Number of snapshot publications so far. Monotone; bumps once per
    /// [`ServiceWriteGuard`] drop.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> Arc<ReadSnapshot> {
        Arc::clone(&self.inner.snapshot.read())
    }

    /// Handles one decoded request: reads and submissions from the current
    /// snapshot, key extraction and token issuance under the service read
    /// lock, everything else through the exclusive write path. Never panics
    /// on hostile input: every failure maps to [`Response::Error`].
    pub fn handle(&self, request: Request) -> Response {
        let rpc = request.name();
        match request {
            Request::Register {
                identity,
                signing_key,
            } => self.write_for(rpc).register(&identity, signing_key),
            Request::CompleteRegistration { identity } => {
                self.write_for(rpc).complete_registration(&identity)
            }
            Request::Deregister {
                identity,
                signature,
            } => self.write_for(rpc).deregister(&identity, signature),
            Request::GetPkgKeys => Response::PkgKeys(self.snapshot().pkg_keys.clone()),
            Request::GetAddFriendRoundInfo => match &self.snapshot().add_friend {
                Some(open) => Response::AddFriendRoundInfo(open.wire.clone()),
                None => Response::Error(RpcError::NoOpenRound {
                    kind: RoundKind::AddFriend,
                }),
            },
            Request::GetDialingRoundInfo => match &self.snapshot().dialing {
                Some(open) => Response::DialingRoundInfo(open.wire.clone()),
                None => Response::Error(RpcError::NoOpenRound {
                    kind: RoundKind::Dialing,
                }),
            },
            Request::ExtractIdentityKeys {
                identity,
                round,
                auth,
            } => self
                .read_for(rpc)
                .extract_identity_keys(&identity, round, auth),
            Request::IssueRateLimitToken {
                identity,
                blinded,
                auth,
            } => self.read_for(rpc).issue_token(&identity, blinded, auth),
            Request::SubmitAddFriend {
                round,
                onion,
                token,
            } => {
                let snapshot = self.snapshot();
                let open = snapshot.add_friend.as_ref();
                snapshot.submit(open, RoundKind::AddFriend, round, None, &onion, token)
            }
            Request::SubmitDialing {
                round,
                num_mailboxes,
                onion,
                token,
            } => {
                let snapshot = self.snapshot();
                let open = snapshot.dialing.as_ref();
                let reply = snapshot.submit(
                    open,
                    RoundKind::Dialing,
                    round,
                    Some(num_mailboxes),
                    &onion,
                    token,
                );
                if let Response::Error(RpcError::StaleRoundInfo { .. }) = reply {
                    alpenhorn_obs::global()
                        .counter("coordinator_dialing_stale_info_total", &[])
                        .inc();
                }
                reply
            }
            Request::FetchAddFriendMailbox { round, mailbox } => {
                let snapshot = self.snapshot();
                match snapshot.add_friend_mailboxes.get(&round.0) {
                    Some(boxes) => Response::AddFriendMailbox {
                        contents: serve_add_friend(boxes, mailbox),
                    },
                    None => Response::Error(RpcError::UnknownMailbox),
                }
            }
            Request::FetchDialingMailbox { round, mailbox } => {
                let snapshot = self.snapshot();
                match snapshot
                    .dialing_mailboxes
                    .get(&round.0)
                    .and_then(|published| serve_dialing(published, mailbox))
                {
                    Some((filter, next_round)) => Response::DialingMailbox {
                        filter: filter.to_bytes(),
                        next_round: next_round.cloned(),
                    },
                    None => Response::Error(RpcError::UnknownMailbox),
                }
            }
            Request::BeginAddFriendRound {
                round,
                expected_real,
            } => self
                .write_for(rpc)
                .begin_round(RoundKind::AddFriend, round, expected_real),
            Request::CloseAddFriendRound { round } => {
                self.write_for(rpc).close_round(RoundKind::AddFriend, round)
            }
            Request::BeginDialingRound {
                round,
                expected_real,
            } => self
                .write_for(rpc)
                .begin_round(RoundKind::Dialing, round, expected_real),
            Request::CloseDialingRound { round } => {
                self.write_for(rpc).close_round(RoundKind::Dialing, round)
            }
            // Telemetry reads only the global registry and span ring — no
            // coordinator state, so no reason to serialize on the write lock.
            Request::GetTelemetry => Response::Telemetry(crate::telemetry::telemetry_wire()),
            Request::Batch(members) => run_batch(members, |member| self.handle(member)),
        }
    }
}

/// Records how long dispatching `rpc` waited for the service lock: the part
/// of `coordinator_rpc_latency_us` spent waiting for other callers rather
/// than running the handler.
fn observe_lock_wait(rpc: &'static str, started: Instant) {
    alpenhorn_obs::global()
        .histogram("coordinator_lock_wait_us", &[("rpc", rpc)])
        .observe_since(started);
}

/// The one batch member loop, behind both [`SharedCoordinator::handle`] and
/// the timed dispatch of [`crate::server`]: runs `members` in order through
/// `run` and stops after the first reply that is a [`Response::Error`],
/// answering the replies of the members it ran. Members must number 1 to
/// [`MAX_BATCH_MEMBERS`] and be [`Request::batchable`] — the decoder refuses
/// anything else off the wire, this covers in-process callers — so a batch
/// never holds another batch.
pub(crate) fn run_batch(
    members: Vec<Request>,
    mut run: impl FnMut(Request) -> Response,
) -> Response {
    if !(1..=MAX_BATCH_MEMBERS).contains(&members.len()) || !members.iter().all(Request::batchable)
    {
        return bad_request(
            "a batch carries 1 to 3 round-info, key-extraction and token-issuance requests",
        );
    }
    let mut replies = Vec::with_capacity(members.len());
    for member in members {
        let reply = run(member);
        let failed = matches!(reply, Response::Error(_));
        replies.push(reply);
        if failed {
            break;
        }
    }
    Response::Batch(replies)
}

impl std::fmt::Debug for SharedCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCoordinator")
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// Checks a submission against the snapshot's open round (if any) without
/// mutating anything, so a rejected submission never spends a rate-limit
/// token, and returns the round's intake. A dialing submission names the
/// mailbox count its onion was built for; a count other than the round's
/// is stale round info. A stale snapshot can pass this check after the
/// round closed; its intake is sealed by then, so the offer reports it.
fn validate_submission<Wire>(
    open: Option<&OpenRoundSnapshot<Wire>>,
    round: Round,
    num_mailboxes: Option<u32>,
    onion_len: usize,
) -> Result<&Arc<SubmissionIntake>, RpcError> {
    let Some(open) = open.filter(|open| open.round == round) else {
        return Err(RpcError::RoundNotOpen { requested: round });
    };
    if let Some(actual) = num_mailboxes.filter(|&count| count != open.num_mailboxes) {
        return Err(RpcError::StaleRoundInfo {
            expected: open.num_mailboxes,
            actual,
        });
    }
    if onion_len != open.onion_len {
        return Err(RpcError::WrongRequestSize {
            expected: open.onion_len as u32,
            actual: onion_len as u32,
        });
    }
    Ok(&open.intake)
}

impl ReadSnapshot {
    /// The lock-free submit path: validate (no side effects) → recognise
    /// retries → spend the token → enqueue the onion. A submission
    /// recognised as a byte-identical retry is acked without touching the
    /// token, so retry storms never misread as double spends.
    fn submit<Wire>(
        &self,
        open: Option<&OpenRoundSnapshot<Wire>>,
        kind: RoundKind,
        round: Round,
        num_mailboxes: Option<u32>,
        onion: &[u8],
        token: Option<RateLimitToken>,
    ) -> Response {
        let intake = match validate_submission(open, round, num_mailboxes, onion.len()) {
            Ok(intake) => intake,
            Err(e) => return Response::Error(e),
        };
        if intake.contains(onion) {
            return Response::Ack;
        }
        if let Err(e) = self.spend_token(kind, round, token) {
            // Two copies of the same retry can race past the `contains`
            // check; the loser's spend reads as a double spend even though
            // the submission is already queued. Re-check and ack it, exactly
            // as a serial arrival order would have.
            if matches!(
                e,
                RpcError::RateLimited {
                    reason: RateLimitReason::DoubleSpend
                }
            ) && intake.contains(onion)
            {
                return Response::Ack;
            }
            return Response::Error(e);
        }
        match intake.offer(onion) {
            Offer::Accepted | Offer::Duplicate => Response::Ack,
            // The round closed between snapshot capture and this offer: the
            // submission missed the round, exactly as if it had arrived
            // after the close. (The spent token stays spent for this closed
            // round — rejecting late arrivals is what §9's per-round tokens
            // are for.)
            Offer::Sealed => Response::Error(RpcError::RoundNotOpen { requested: round }),
        }
    }

    /// Spends a submission's rate-limit token: verify + stripe-ledger
    /// insert, then journal the spend (buffered, no fsync), rolling the
    /// insert back if the journal append fails. The append completes before
    /// the onion is offered to the intake, so the close barrier — which runs
    /// after the seal — covers it.
    fn spend_token(
        &self,
        kind: RoundKind,
        round: Round,
        token: Option<RateLimitToken>,
    ) -> Result<(), RpcError> {
        let Some(verifier) = &self.verifier else {
            return Ok(());
        };
        let Some(token) = token else {
            return Err(RpcError::RateLimited {
                reason: RateLimitReason::MissingToken,
            });
        };
        let signature =
            Signature::from_bytes(&token.signature).map_err(|_| RpcError::RateLimited {
                reason: RateLimitReason::InvalidToken,
            })?;
        let message = ratelimit::spend_message(kind, round, &token.serial);
        verifier
            .spend(&message, &signature)
            .map_err(|e| RpcError::RateLimited {
                reason: match e {
                    RateLimitError::InvalidToken => RateLimitReason::InvalidToken,
                    RateLimitError::DoubleSpend => RateLimitReason::DoubleSpend,
                    RateLimitError::BudgetExhausted => RateLimitReason::BudgetExhausted,
                },
            })?;
        if let Err(e) = self.journal.append(
            persist::REC_TOKEN_SPENT,
            &persist::token_spent(&token.signature),
            persist::durability(persist::REC_TOKEN_SPENT),
        ) {
            // The submission is about to be rejected with a storage error,
            // so the ledger insert must roll back: the client's retry with
            // the same (still unspent) token must not read as a double spend
            // and strand a unit of its daily budget.
            verifier.forget_spent(&token.signature);
            return Err(storage_unavailable("durable log write", e));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};

    fn shared(seed: u8) -> SharedCoordinator {
        SharedCoordinator::new(CoordinatorService::new(Cluster::new(ClusterConfig::test(
            seed,
        ))))
    }

    #[test]
    fn fast_path_round_info_tracks_write_path_epochs() {
        let shared = shared(60);
        assert_eq!(shared.epoch(), 0);
        assert_eq!(
            shared.handle(Request::GetAddFriendRoundInfo),
            Response::Error(RpcError::NoOpenRound {
                kind: RoundKind::AddFriend
            })
        );
        let begun = shared.handle(Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 4,
        });
        assert!(matches!(begun, Response::AddFriendRoundInfo(_)));
        assert!(shared.epoch() >= 1, "begin republished the snapshot");
        // The snapshot path now serves the open round without the lock.
        assert_eq!(shared.handle(Request::GetAddFriendRoundInfo), begun);
    }

    #[test]
    fn snapshot_submissions_reach_the_round() {
        let shared = shared(61);
        let Response::AddFriendRoundInfo(info) = shared.handle(Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 2,
        }) else {
            panic!("round opens");
        };
        let onion = vec![3u8; info.onion_len as usize];
        assert_eq!(
            shared.handle(Request::SubmitAddFriend {
                round: Round(1),
                onion: onion.clone(),
                token: None,
            }),
            Response::Ack
        );
        // Retry of the same onion: acked, queued once.
        assert_eq!(
            shared.handle(Request::SubmitAddFriend {
                round: Round(1),
                onion,
                token: None,
            }),
            Response::Ack
        );
        let stats = shared.handle(Request::CloseAddFriendRound { round: Round(1) });
        let Response::RoundClosed(stats) = stats else {
            panic!("round closes");
        };
        assert_eq!(stats.client_messages, 1);
    }

    #[test]
    fn stale_snapshot_submission_after_close_is_round_not_open() {
        let shared = shared(62);
        let Response::AddFriendRoundInfo(info) = shared.handle(Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 1,
        }) else {
            panic!("round opens");
        };
        // Capture the open-round snapshot, then close the round behind it.
        let stale = shared.snapshot();
        assert!(matches!(
            shared.handle(Request::CloseAddFriendRound { round: Round(1) }),
            Response::RoundClosed(_)
        ));
        assert_eq!(
            stale.submit(
                stale.add_friend.as_ref(),
                RoundKind::AddFriend,
                Round(1),
                None,
                &vec![0u8; info.onion_len as usize],
                None,
            ),
            Response::Error(RpcError::RoundNotOpen {
                requested: Round(1)
            })
        );
    }

    #[test]
    fn mailbox_fetches_come_from_the_snapshot() {
        let served = || {
            alpenhorn_obs::global()
                .counter("coordinator_mailbox_bytes_served_total", &[])
                .get()
        };
        let shared = shared(63);
        shared.handle(Request::BeginDialingRound {
            round: Round(2),
            expected_real: 1,
        });
        shared.handle(Request::CloseDialingRound { round: Round(2) });
        let before = served();
        let reply = shared.handle(Request::FetchDialingMailbox {
            round: Round(2),
            mailbox: alpenhorn_wire::MailboxId(0),
        });
        let Response::DialingMailbox { filter, next_round } = reply else {
            panic!("the snapshot serves the mailbox");
        };
        // The lock-free download still shows up in bandwidth accounting.
        // Other tests serve downloads concurrently: a lower bound.
        let blob = alpenhorn_wire::cdn::encode_dialing_blob(&filter, next_round.as_ref());
        assert!(served() >= before + blob.len() as u64);
        assert_eq!(
            shared.handle(Request::FetchDialingMailbox {
                round: Round(9),
                mailbox: alpenhorn_wire::MailboxId(0),
            }),
            Response::Error(RpcError::UnknownMailbox)
        );
    }

    /// A rate-limited coordinator with `budget` tokens a day, one registered
    /// user, and add-friend round 1 open.
    struct Participant {
        shared: SharedCoordinator,
        identity: alpenhorn_wire::Identity,
        key: alpenhorn_ibe::sig::SigningKey,
        rng: alpenhorn_crypto::ChaChaRng,
    }

    impl Participant {
        fn new(seed: u8, budget: u32) -> Self {
            use crate::service::{RateLimitPolicy, ServiceConfig};
            let shared = SharedCoordinator::new(CoordinatorService::with_config(
                Cluster::new(ClusterConfig::test(seed)),
                ServiceConfig {
                    rate_limit: Some(RateLimitPolicy {
                        budget_per_day: budget,
                    }),
                },
            ));
            let identity = alpenhorn_wire::Identity::new("zoe@example.com").unwrap();
            let mut rng = alpenhorn_crypto::ChaChaRng::from_seed_bytes([seed; 32]);
            let key = alpenhorn_ibe::sig::SigningKey::generate(&mut rng);
            shared.handle(Request::Register {
                identity: identity.clone(),
                signing_key: key.verifying_key().to_bytes(),
            });
            shared.handle(Request::CompleteRegistration {
                identity: identity.clone(),
            });
            shared.handle(Request::BeginAddFriendRound {
                round: Round(1),
                expected_real: 1,
            });
            Participant {
                shared,
                identity,
                key,
                rng,
            }
        }

        fn extract(&self, round: Round) -> Request {
            let message = alpenhorn_pkg::server::extraction_request_message(&self.identity, round);
            Request::ExtractIdentityKeys {
                identity: self.identity.clone(),
                round,
                auth: self.key.sign(&message).to_bytes(),
            }
        }

        /// An issuance request for a fresh blinded message.
        fn issue(&mut self) -> Request {
            let blinded = alpenhorn_ibe::blind::blind(b"spend message", &mut self.rng)
                .0
                .to_bytes();
            let message = ratelimit::issue_message(&self.identity, &blinded);
            Request::IssueRateLimitToken {
                identity: self.identity.clone(),
                blinded,
                auth: self.key.sign(&message).to_bytes(),
            }
        }

        /// The client's speculative pre-submit batch for `round`.
        fn batch(&mut self, round: Round) -> Request {
            Request::Batch(vec![
                Request::GetAddFriendRoundInfo,
                self.extract(round),
                self.issue(),
            ])
        }

        fn budget(&self) -> Option<u32> {
            self.shared.read().remaining_token_budget(&self.identity)
        }
    }

    #[test]
    fn batch_members_run_in_order_and_stop_after_the_first_error() {
        let mut zoe = Participant::new(65, 4);

        // A wrong round guess stops at the PKGs' refusal: issuance never
        // runs, so nothing is charged.
        let batch = zoe.batch(Round(2));
        let Response::Batch(replies) = zoe.shared.handle(batch) else {
            panic!("batch reply");
        };
        assert!(matches!(
            replies.as_slice(),
            [
                Response::AddFriendRoundInfo(_),
                Response::Error(RpcError::Pkg { .. })
            ]
        ));
        assert_eq!(zoe.budget(), Some(4));

        let batch = zoe.batch(Round(1));
        let Response::Batch(replies) = zoe.shared.handle(batch) else {
            panic!("batch reply");
        };
        assert!(matches!(
            replies.as_slice(),
            [
                Response::AddFriendRoundInfo(_),
                Response::IdentityKeys(_),
                Response::TokenIssued { .. }
            ]
        ));
        assert_eq!(zoe.budget(), Some(3));

        // Batches the decoder would refuse are refused whole in process too.
        for members in [
            vec![],
            vec![Request::GetAddFriendRoundInfo; 4],
            vec![zoe.batch(Round(1))],
            vec![Request::GetPkgKeys],
        ] {
            assert!(matches!(
                zoe.shared.handle(Request::Batch(members)),
                Response::Error(RpcError::BadRequest { .. })
            ));
        }
        assert_eq!(zoe.budget(), Some(3));
    }

    #[test]
    fn extraction_and_issuance_run_beside_a_held_read_lock() {
        // The PKG path takes the service lock shared: while another holder
        // of the read lock (an extraction in flight, here the test itself)
        // is inside, a whole pre-submit batch still completes. Under an
        // exclusive lock it would wait for the guard below.
        let mut zoe = Participant::new(66, 4);
        let batch = zoe.batch(Round(1));
        let shared = zoe.shared.clone();
        let epoch = shared.epoch();
        let held = zoe.shared.read();
        let (done, reply) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || done.send(shared.handle(batch)).unwrap());
        let reply = reply
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the batch waited for a shared lock holder");
        drop(held);
        worker.join().unwrap();
        assert!(matches!(
            reply,
            Response::Batch(replies) if matches!(
                replies.as_slice(),
                [_, Response::IdentityKeys(_), Response::TokenIssued { .. }]
            )
        ));
        assert_eq!(zoe.budget(), Some(3));
        // Nothing the PKG path changes is in the snapshot: no republication.
        assert_eq!(zoe.shared.epoch(), epoch);
    }

    #[test]
    fn a_closed_rounds_secret_is_never_read_again() {
        // Extractions racing the close either finish before it (the close
        // waits for them) and get the round's one deterministic key, or
        // start after it and find no round: never a key after the erase.
        let zoe = Participant::new(67, 4);
        let Response::IdentityKeys(key) = zoe.shared.handle(zoe.extract(Round(1))) else {
            panic!("round 1 extracts");
        };
        let request = zoe.extract(Round(1));
        let closed = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut after_close = 0;
                        while after_close < 3 {
                            let was_closed = closed.load(Ordering::Acquire);
                            match zoe.shared.handle(request.clone()) {
                                Response::IdentityKeys(again) => {
                                    assert!(!was_closed, "a closed round's key was served");
                                    assert_eq!(again, key);
                                }
                                Response::Error(RpcError::Pkg { code: 7, .. }) => after_close += 1,
                                other => panic!("unexpected reply {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            assert!(matches!(
                zoe.shared
                    .handle(Request::CloseAddFriendRound { round: Round(1) }),
                Response::RoundClosed(_)
            ));
            closed.store(true, Ordering::Release);
            for racer in racers {
                racer.join().unwrap();
            }
        });
        // The next round extracts again, under a fresh secret.
        zoe.shared.handle(Request::BeginAddFriendRound {
            round: Round(2),
            expected_real: 1,
        });
        let Response::IdentityKeys(next) = zoe.shared.handle(zoe.extract(Round(2))) else {
            panic!("round 2 extracts");
        };
        assert_ne!(next, key);
    }

    #[test]
    fn exclusive_rpcs_still_work_through_the_shared_handle() {
        let shared = shared(64);
        let identity = alpenhorn_wire::Identity::new("zoe@example.com").unwrap();
        let mut rng = alpenhorn_crypto::ChaChaRng::from_seed_bytes([64u8; 32]);
        let key = alpenhorn_ibe::sig::SigningKey::generate(&mut rng);
        assert_eq!(
            shared.handle(Request::Register {
                identity: identity.clone(),
                signing_key: key.verifying_key().to_bytes(),
            }),
            Response::Ack
        );
        assert_eq!(
            shared.handle(Request::CompleteRegistration { identity }),
            Response::Ack
        );
    }
}
