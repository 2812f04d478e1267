//! The Alpenhorn client.
//!
//! Implements Algorithm 1 (the add-friend round) and the dialing protocol of
//! §5 against a coordinator reached through a [`Transport`] — the in-process
//! [`crate::transport::LoopbackTransport`] for tests and simulation, or
//! [`crate::transport::TcpTransport`] against a networked `alpenhornd`
//! daemon. The client is round driven:
//!
//! * **Add-friend round**: [`Client::participate_add_friend`] fetches the
//!   open round's parameters, extracts the round's IBE identity keys from
//!   every PKG, verifies their attestations, and submits exactly one
//!   fixed-size request (a real friend request if one is queued, cover
//!   traffic otherwise). After the coordinator closes the round,
//!   [`Client::process_add_friend_mailbox`] downloads the client's mailbox,
//!   trial-decrypts every ciphertext, verifies signatures, updates the
//!   address book and keywheels, and erases the round's identity keys.
//! * **Dialing round**: [`Client::participate_dialing`] submits one (possibly
//!   cover) dial token; [`Client::process_dialing_mailbox`] downloads the
//!   round's dial set, tests every (friend, intent) token, surfaces
//!   incoming calls, and advances the keywheels (forward secrecy).
//!
//! When the coordinator enforces rate limiting (§9), the client transparently
//! obtains one blind-signed token per submission via
//! [`Request::IssueRateLimitToken`]; issuance is authenticated, spending is
//! unlinkable.
//!
//! An add-friend participation after an acked one costs two coordinator
//! crossings, not four: the client guesses the next round and sends round
//! info, key extraction and token issuance as one [`Request::Batch`], then
//! submits (see `Client::open_add_friend_round`).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use alpenhorn_bloom::DialSet;
use alpenhorn_coordinator::ratelimit;
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::anytrust::{aggregate_identity_keys, aggregate_master_publics};
use alpenhorn_ibe::bf::{
    decrypt as ibe_decrypt, encrypt as ibe_encrypt, hash_identity, HashedIdentity,
    IdentityPrivateKey, MasterPublic,
};
use alpenhorn_ibe::blind::{blind, unblind, BlindedSignature, BlindingFactor};
use alpenhorn_ibe::dh::{DhPublic, DhSecret};
use alpenhorn_ibe::sig::{
    aggregate_signatures, aggregate_verifying_keys, hash_message, Signature, SigningKey,
    VerifyingKey,
};
use alpenhorn_keywheel::{KeywheelTable, SessionKey};
use alpenhorn_mixnet::onion::wrap_onion;
use alpenhorn_obs::Counter;
use alpenhorn_pkg::server::extraction_request_message;
use alpenhorn_wire::rpc::{DialingRoundWire, IdentityKeyShareWire, RATE_LIMIT_SERIAL_LEN};
use alpenhorn_wire::{
    AddFriendEnvelope, DialRequest, DialToken, FriendRequest, Identity, MailboxId, RateLimitToken,
    Request, Response, Round, RoundKind, RpcError, SIGNING_PK_LEN,
};
use rand::RngCore;

use crate::addressbook::{AddressBook, FriendEntry, FriendStatus};
use crate::error::ClientError;
use crate::events::ClientEvent;
use crate::retry::RetryPolicy;
use crate::transport::Transport;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Number of application intents (§5.3). The client enumerates
    /// `0..num_intents` tokens per friend when scanning dialing mailboxes.
    pub num_intents: u32,
    /// Whether to automatically accept incoming friend requests (the paper's
    /// walkthrough behaviour). When false, requests wait for
    /// [`Client::accept_friend_request`].
    pub auto_accept_friends: bool,
    /// How many dialing rounds in the future a newly proposed keywheel should
    /// start (gives both sides time to finish the add-friend exchange).
    pub dialing_round_slack: u64,
    /// Retry/backoff/deadline policy applied to every coordinator RPC (see
    /// [`crate::retry`]). The default, [`RetryPolicy::none`], makes exactly
    /// one attempt and surfaces failures raw. Not persisted by
    /// [`Client::save_state`] — it is an operational knob, not protocol
    /// state; re-apply it after loading.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            num_intents: 10,
            auto_accept_friends: true,
            dialing_round_slack: 2,
            retry: RetryPolicy::none(),
        }
    }
}

/// A queued outgoing add-friend transmission.
enum OutgoingAddFriend {
    /// We are initiating: first request to a new friend.
    Initiate { to: Identity },
    /// We are replying to (confirming) a received request.
    Reply {
        to: Identity,
        their_dh_key: [u8; alpenhorn_wire::DH_PK_LEN],
        their_round: Round,
    },
}

/// State about a request we sent and for which we await the confirmation.
struct PendingOutgoing {
    dh_secret: DhSecret,
    proposed_round: Round,
}

/// A received friend request awaiting an accept/reject decision.
struct PendingIncoming {
    their_key: [u8; SIGNING_PK_LEN],
    their_dh_key: [u8; alpenhorn_wire::DH_PK_LEN],
    their_round: Round,
}

/// A queued outgoing call.
struct OutgoingCall {
    friend: Identity,
    intent: u32,
}

/// The client's typed view of an open add-friend round, reconstructed from
/// the wire-form round info.
struct AddFriendRoundView {
    round: Round,
    onion_keys: Vec<DhPublic>,
    /// Each PKG's revealed master public key, in PKG order: what names the
    /// PKG whose key share fails the aggregate check.
    pkg_publics: Vec<MasterPublic>,
    master_public: MasterPublic,
    num_mailboxes: u32,
    rate_limited: bool,
}

/// What a speculative batch brought for the round it guessed right: the
/// identity key shares and, when the round is rate limited, the token.
struct Speculation {
    shares: Vec<IdentityKeyShareWire>,
    token: Option<RateLimitToken>,
}

/// A token issuance in flight: the serial and blinding factor drawn for it,
/// kept until the blind signature comes back.
struct PendingToken {
    kind: RoundKind,
    round: Round,
    serial: [u8; RATE_LIMIT_SERIAL_LEN],
    factor: BlindingFactor,
}

/// The client's typed view of an open (or announced) dialing round.
struct DialingRoundView {
    round: Round,
    onion_keys: Vec<DhPublic>,
    num_mailboxes: u32,
    rate_limited: bool,
}

/// Validates dialing round parameters — fetched, or announced in a mailbox
/// — into the client's view of the round.
fn dialing_view(info: DialingRoundWire) -> Result<DialingRoundView, ClientError> {
    let onion_keys = decode_onion_keys(&info.onion_keys)?;
    if info.num_mailboxes == 0 {
        return Err(ClientError::UnexpectedResponse {
            context: "validating dialing round info",
        });
    }
    Ok(DialingRoundView {
        round: info.round,
        onion_keys,
        num_mailboxes: info.num_mailboxes,
        rate_limited: info.rate_limited,
    })
}

/// Whether a submission built from an announced round was refused because
/// the announcement no longer holds: the round opened with another size, or
/// a different round opened. The client then fetches the round info.
fn announcement_missed(error: &ClientError) -> bool {
    matches!(
        error,
        ClientError::Rpc(RpcError::StaleRoundInfo { .. })
            | ClientError::Coordinator(
                alpenhorn_coordinator::CoordinatorError::RoundNotOpen { .. }
            )
    )
}

/// Derives the retry-jitter RNG from 32 bytes of seed material. Domain
/// separated from every protocol use of the seed, so drawing jitter never
/// shifts the protocol randomness (a retried run stays byte-identical to a
/// fault-free one).
fn derive_retry_rng(seed: &[u8]) -> ChaChaRng {
    let mut input = Vec::with_capacity(seed.len() + 26);
    input.extend_from_slice(seed);
    input.extend_from_slice(b"alpenhorn retry jitter rng");
    ChaChaRng::from_seed_bytes(alpenhorn_crypto::sha256::digest(&input))
}

/// Decodes the onion keys announced in a round info. An empty chain is
/// rejected: submitting through zero mixnet hops would put the request on
/// the wire unwrapped.
fn decode_onion_keys(bytes: &[[u8; alpenhorn_wire::G1_LEN]]) -> Result<Vec<DhPublic>, ClientError> {
    if bytes.is_empty() {
        return Err(ClientError::UnexpectedResponse {
            context: "validating the round's onion key chain",
        });
    }
    bytes
        .iter()
        .map(|key| DhPublic::from_bytes(key))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| ClientError::UnexpectedResponse {
            context: "decoding round onion keys",
        })
}

/// The sum of the PKG verification keys, or `None` for the empty set.
fn aggregate_pkg_keys(pkg_keys: &[VerifyingKey]) -> Option<VerifyingKey> {
    (!pkg_keys.is_empty()).then(|| aggregate_verifying_keys(pkg_keys))
}

/// Validates an add-friend round-info reply into the client's view of it.
fn add_friend_view(response: Response) -> Result<AddFriendRoundView, ClientError> {
    let Response::AddFriendRoundInfo(info) = response else {
        return Err(ClientError::UnexpectedResponse {
            context: "fetching add-friend round info",
        });
    };
    let onion_keys = decode_onion_keys(&info.onion_keys)?;
    let pkg_publics = info
        .pkg_publics
        .iter()
        .map(|bytes| MasterPublic::from_bytes(bytes))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| ClientError::UnexpectedResponse {
            context: "decoding PKG master publics",
        })?;
    if pkg_publics.is_empty() || info.num_mailboxes == 0 {
        return Err(ClientError::UnexpectedResponse {
            context: "validating add-friend round info",
        });
    }
    Ok(AddFriendRoundView {
        round: info.round,
        onion_keys,
        master_public: aggregate_master_publics(&pkg_publics),
        pkg_publics,
        num_mailboxes: info.num_mailboxes,
        rate_limited: info.rate_limited,
    })
}

/// Identity key shares refused because they failed the aggregate check
/// against the round's master publics.
fn rejected_key_shares() -> &'static Counter {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        alpenhorn_obs::global().counter("client_identity_key_shares_rejected_total", &[])
    })
}

/// The Alpenhorn client for one user.
pub struct Client {
    identity: Identity,
    /// `H2(identity)`, which the client checks its key shares against each
    /// round; constant for the client's lifetime.
    identity_point: HashedIdentity,
    config: ClientConfig,
    signing_key: SigningKey,
    /// The PKGs' long-term verification keys (ship with the software, §3.3).
    pkg_keys: Vec<VerifyingKey>,
    /// Their sum, which verifies an aggregated attestation; `None` when
    /// `pkg_keys` is empty.
    pkg_aggregate_key: Option<VerifyingKey>,
    registered: bool,

    address_book: AddressBook,
    keywheels: KeywheelTable,

    /// Outgoing add-friend transmissions, one sent per round.
    outgoing_add_friend: VecDeque<OutgoingAddFriend>,
    /// Sent requests awaiting the friend's confirmation.
    pending_outgoing: HashMap<Identity, PendingOutgoing>,
    /// Received requests awaiting an application decision.
    pending_incoming: HashMap<Identity, PendingIncoming>,
    /// Outgoing calls, one placed per dialing round.
    outgoing_calls: VecDeque<OutgoingCall>,

    /// Identity key and mailbox count for the currently open add-friend round
    /// (erased after the mailbox is scanned, §4.4).
    round_identity_key: Option<(Round, u32, IdentityPrivateKey)>,
    /// The add-friend round of the last acked submission and whether it was
    /// rate limited: the next participation's guess of the open round. Not
    /// persisted; without it the client asks for the round info alone.
    last_add_friend: Option<(Round, bool)>,
    /// Round and mailbox count of the dialing round last participated in
    /// (consumed by mailbox processing).
    dialing_round_state: Option<(Round, u32)>,
    /// The next dialing round's parameters as the last scanned mailbox
    /// announced them: the next participation submits from these without
    /// asking for the round info. Validated when used, so the scan does not
    /// pay for decoding keys. Not persisted; without it the client asks.
    announced_dialing: Option<DialingRoundWire>,
    /// The client's view of the next dialing round (used to propose keywheel
    /// start rounds).
    next_dialing_round: Round,
    /// The dial token this client itself sent in the current dialing round.
    /// Dial tokens carry no direction, so when caller and callee happen to
    /// share a mailbox the caller would otherwise see its own token and
    /// report a phantom incoming call.
    sent_dial_token: Option<(Round, DialToken)>,
    /// An issued-but-unspent rate-limit token, kept across a failed
    /// participation so the retry reuses it instead of burning another unit
    /// of the daily issuance budget.
    unspent_rate_limit_token: Option<(RoundKind, Round, RateLimitToken)>,

    /// Scratch for the innermost request bytes of the per-round submission,
    /// reused across rounds; [`wrap_onion`] then builds the onion around it
    /// in place, in one buffer of the exact final size.
    payload_scratch: Vec<u8>,

    rng: ChaChaRng,
    /// Jitter stream for retry backoff, deliberately independent of (and
    /// never persisted with) the protocol RNG `rng`: retries must not
    /// perturb the deterministic event stream a seed produces.
    retry_rng: ChaChaRng,
}

impl Client {
    /// Creates a client for `identity`, generating a fresh long-term signing
    /// key. `pkg_keys` are the PKG verification keys distributed with the
    /// application.
    pub fn new(
        identity: Identity,
        pkg_keys: Vec<VerifyingKey>,
        config: ClientConfig,
        seed: [u8; 32],
    ) -> Self {
        let mut rng = ChaChaRng::from_seed_bytes(seed);
        let signing_key = SigningKey::generate(&mut rng);
        let retry_rng = derive_retry_rng(&seed);
        Client {
            identity_point: hash_identity(identity.as_bytes()),
            identity,
            config,
            signing_key,
            pkg_aggregate_key: aggregate_pkg_keys(&pkg_keys),
            pkg_keys,
            registered: false,
            address_book: AddressBook::new(),
            keywheels: KeywheelTable::new(),
            outgoing_add_friend: VecDeque::new(),
            pending_outgoing: HashMap::new(),
            pending_incoming: HashMap::new(),
            outgoing_calls: VecDeque::new(),
            round_identity_key: None,
            last_add_friend: None,
            dialing_round_state: None,
            announced_dialing: None,
            next_dialing_round: Round::FIRST,
            sent_dial_token: None,
            unspent_rate_limit_token: None,
            payload_scratch: Vec::new(),
            rng,
            retry_rng,
        }
    }

    /// Issues `request` through the transport under the configured
    /// [`RetryPolicy`], surfacing server-reported errors as typed
    /// [`ClientError`]s. Every client RPC funnels through here, so the
    /// policy uniformly covers registration, token issuance, submissions,
    /// and mailbox fetches.
    fn rpc<T: Transport + ?Sized>(
        &mut self,
        net: &mut T,
        request: Request,
    ) -> Result<Response, ClientError> {
        crate::retry::execute(&self.config.retry, &mut self.retry_rng, net, request)
    }

    /// Replaces the retry/backoff/deadline policy applied to every RPC.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.config.retry = policy;
    }

    /// The client's own identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// The client's long-term signing public key (the paper's
    /// `MySigningKey()`), for sharing with friends out-of-band.
    pub fn signing_public_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// The address book (read-only view).
    pub fn address_book(&self) -> &AddressBook {
        &self.address_book
    }

    /// The keywheel table (read-only view).
    pub fn keywheels(&self) -> &KeywheelTable {
        &self.keywheels
    }

    /// Whether registration has completed.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Registers this client's identity and signing key with every PKG (the
    /// paper's `Register(email)`), completing the email confirmation
    /// round-trip.
    pub fn register<T: Transport>(&mut self, net: &mut T) -> Result<(), ClientError> {
        if self.registered {
            // Registration is idempotent from the client's point of view; the
            // PKGs already hold this key and re-running the email round trip
            // would be a no-op.
            return Ok(());
        }
        match self.rpc(
            net,
            Request::Register {
                identity: self.identity.clone(),
                signing_key: self.signing_key.verifying_key().to_bytes(),
            },
        )? {
            Response::Ack => {}
            _ => {
                return Err(ClientError::UnexpectedResponse {
                    context: "registering",
                })
            }
        }
        match self.rpc(
            net,
            Request::CompleteRegistration {
                identity: self.identity.clone(),
            },
        )? {
            Response::Ack => {}
            _ => {
                return Err(ClientError::UnexpectedResponse {
                    context: "completing registration",
                })
            }
        }
        self.registered = true;
        Ok(())
    }

    /// Deregisters this identity at every PKG (signed with the long-term
    /// key). The client keeps its local state; pair with
    /// [`Client::reset_after_compromise`] for the §9 recovery flow.
    pub fn deregister<T: Transport>(&mut self, net: &mut T) -> Result<(), ClientError> {
        let signature = self.sign_deregistration();
        match self.rpc(
            net,
            Request::Deregister {
                identity: self.identity.clone(),
                signature: signature.to_bytes(),
            },
        )? {
            Response::Ack => {
                self.registered = false;
                Ok(())
            }
            _ => Err(ClientError::UnexpectedResponse {
                context: "deregistering",
            }),
        }
    }

    /// Queues an add-friend request to `friend` (the paper's
    /// `AddFriend(email, theirKey)`), optionally pinning the friend's
    /// long-term key if it was obtained out-of-band.
    pub fn add_friend(&mut self, friend: Identity, their_key: Option<VerifyingKey>) {
        self.address_book.insert(FriendEntry {
            identity: friend.clone(),
            long_term_key: their_key.map(|k| k.to_bytes()),
            key_out_of_band: their_key.is_some(),
            status: FriendStatus::OutgoingPending,
        });
        self.outgoing_add_friend
            .push_back(OutgoingAddFriend::Initiate { to: friend });
    }

    /// Queues a call to `friend` with the application-specific `intent` (the
    /// paper's `Call(email, intent)`). The session key is surfaced in an
    /// [`ClientEvent::OutgoingCallPlaced`] event when the call is actually
    /// transmitted in the next dialing round.
    pub fn call(&mut self, friend: Identity, intent: u32) -> Result<(), ClientError> {
        if intent >= self.config.num_intents {
            return Err(ClientError::InvalidIntent {
                intent,
                num_intents: self.config.num_intents,
            });
        }
        if !self.keywheels.contains(&friend) {
            return Err(ClientError::NotAFriend(friend));
        }
        self.outgoing_calls
            .push_back(OutgoingCall { friend, intent });
        Ok(())
    }

    /// Accepts a pending incoming friend request, queueing the confirmation
    /// request for the next add-friend round.
    pub fn accept_friend_request(&mut self, from: &Identity) -> Result<(), ClientError> {
        let pending = self
            .pending_incoming
            .remove(from)
            .ok_or_else(|| ClientError::NoPendingRequest(from.clone()))?;
        self.queue_reply(from.clone(), pending);
        Ok(())
    }

    /// Rejects (drops) a pending incoming friend request.
    pub fn reject_friend_request(&mut self, from: &Identity) -> Result<(), ClientError> {
        self.pending_incoming
            .remove(from)
            .ok_or_else(|| ClientError::NoPendingRequest(from.clone()))?;
        self.address_book.remove(from);
        Ok(())
    }

    /// Removes a friend entirely: address book entry and keywheel are erased
    /// (§3.2: after removal, Alpenhorn's guarantees again hide whether the
    /// two users were ever friends).
    pub fn remove_friend(&mut self, friend: &Identity) {
        self.address_book.remove(friend);
        self.keywheels.remove(friend);
        self.pending_outgoing.remove(friend);
        self.pending_incoming.remove(friend);
    }

    /// Wipes all per-friend secrets and pending state, and rotates the
    /// long-term signing key. This is the client-compromise recovery path
    /// (§9): after calling this the user must re-register (after
    /// deregistering with the old key) and re-run add-friend with each friend.
    pub fn reset_after_compromise(&mut self) {
        let friends: Vec<Identity> = self
            .address_book
            .iter()
            .map(|e| e.identity.clone())
            .collect();
        for friend in friends {
            self.keywheels.remove(&friend);
        }
        self.address_book = AddressBook::new();
        self.pending_outgoing.clear();
        self.pending_incoming.clear();
        self.outgoing_add_friend.clear();
        self.outgoing_calls.clear();
        self.round_identity_key = None;
        self.unspent_rate_limit_token = None;
        self.signing_key = SigningKey::generate(&mut self.rng);
        self.registered = false;
    }

    /// Signs a deregistration request for this identity (sent to the PKGs via
    /// [`Request::Deregister`]).
    pub fn sign_deregistration(&self) -> Signature {
        self.signing_key
            .sign(&alpenhorn_pkg::server::deregistration_message(
                &self.identity,
            ))
    }

    // ------------------------------------------------------------------
    // Rate limiting (§9)
    // ------------------------------------------------------------------

    /// Obtains one spendable rate-limit token for a submission to `round`:
    /// the one cached for it if there is one, otherwise a fresh issuance
    /// ([`Client::token_request`]).
    fn acquire_rate_limit_token<T: Transport>(
        &mut self,
        net: &mut T,
        kind: RoundKind,
        round: Round,
    ) -> Result<RateLimitToken, ClientError> {
        if let Some(token) = self.cached_token(kind, round) {
            return Ok(token);
        }
        let (request, pending) = self.token_request(kind, round);
        let response = self.rpc(net, request)?;
        self.finish_token(pending, response)
    }

    /// The token a participation attempt that later failed acquired for
    /// `round`: the budget was already charged for it, so it is reused.
    fn cached_token(&self, kind: RoundKind, round: Round) -> Option<RateLimitToken> {
        self.unspent_rate_limit_token
            .filter(|(cached_kind, cached_round, _)| *cached_kind == kind && *cached_round == round)
            .map(|(_, _, token)| token)
    }

    /// Draws a fresh serial, blinds its spend message for `round` and signs
    /// the issuance request (authenticated, budgeted). The coordinator
    /// blind-signs without seeing the message, so it cannot link the spent
    /// token back to this issuance.
    fn token_request(&mut self, kind: RoundKind, round: Round) -> (Request, PendingToken) {
        let mut serial = [0u8; RATE_LIMIT_SERIAL_LEN];
        self.rng.fill_bytes(&mut serial);
        let message = ratelimit::spend_message(kind, round, &serial);
        let (blinded, factor) = blind(&message, &mut self.rng);
        let blinded_bytes = blinded.to_bytes();
        let auth = self
            .signing_key
            .sign(&ratelimit::issue_message(&self.identity, &blinded_bytes));
        let request = Request::IssueRateLimitToken {
            identity: self.identity.clone(),
            blinded: blinded_bytes,
            auth: auth.to_bytes(),
        };
        (
            request,
            PendingToken {
                kind,
                round,
                serial,
                factor,
            },
        )
    }

    /// Unblinds the coordinator's reply to a [`Client::token_request`] into
    /// a spendable token.
    fn finish_token(
        &mut self,
        pending: PendingToken,
        response: Response,
    ) -> Result<RateLimitToken, ClientError> {
        let Response::TokenIssued { blind_signature } = response else {
            return Err(ClientError::UnexpectedResponse {
                context: "requesting a rate-limit token",
            });
        };
        let blind_signature = BlindedSignature::from_bytes(&blind_signature).map_err(|_| {
            ClientError::UnexpectedResponse {
                context: "unblinding a rate-limit token",
            }
        })?;
        let token = RateLimitToken {
            serial: pending.serial,
            signature: unblind(&blind_signature, &pending.factor).to_bytes(),
        };
        // Remember the token until it is actually spent, so a failure later
        // in this participation does not strand a unit of budget.
        self.unspent_rate_limit_token = Some((pending.kind, pending.round, token));
        Ok(token)
    }

    // ------------------------------------------------------------------
    // Add-friend rounds (Algorithm 1)
    // ------------------------------------------------------------------

    /// Fetches the open add-friend round's parameters and, when this
    /// client's guess of the round was right, its identity key shares and
    /// rate-limit token with them.
    ///
    /// A client whose last submission was acked in round r guesses that
    /// r + 1 is open and asks for everything it needs before submitting in
    /// one [`Request::Batch`]: the round info, the key extraction for r + 1
    /// and — when r was rate limited and no token for r + 1 is cached — a
    /// token issuance, whose serial and blinding factor come from the same
    /// point of the RNG stream as on the serial path. The server runs the
    /// members in order and stops at the first error, and the PKGs refuse to
    /// extract for a round that is not open, so a wrong guess ends the batch
    /// before issuance charges the budget. The guess is a hit when the round
    /// and its rate-limit flag are as guessed and every member answered.
    /// On a miss the caller continues serially from the round info the batch
    /// returned; a token it then needs gets a fresh serial and blinding
    /// factor. A client with nothing to guess from (first participation, or
    /// a reloaded client) asks for the round info alone.
    fn open_add_friend_round<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<(AddFriendRoundView, Option<Speculation>), ClientError> {
        let Some((last, rate_limited)) = self.last_add_friend else {
            let response = self.rpc(net, Request::GetAddFriendRoundInfo)?;
            return Ok((add_friend_view(response)?, None));
        };
        let guess = last.next();
        let cached = self.cached_token(RoundKind::AddFriend, guess);
        let mut members = vec![
            Request::GetAddFriendRoundInfo,
            self.extraction_request(guess),
        ];
        let pending = (rate_limited && cached.is_none()).then(|| {
            let (request, pending) = self.token_request(RoundKind::AddFriend, guess);
            members.push(request);
            pending
        });
        let Response::Batch(replies) = self.rpc(net, Request::Batch(members))? else {
            return Err(ClientError::UnexpectedResponse {
                context: "fetching add-friend round info",
            });
        };
        let mut replies = replies.into_iter();
        let view = match replies.next() {
            // Exactly how a failed round-info call surfaces on its own.
            Some(Response::Error(e)) => return Err(e.into()),
            Some(info) => add_friend_view(info)?,
            None => {
                return Err(ClientError::UnexpectedResponse {
                    context: "fetching add-friend round info",
                })
            }
        };
        let hit = view.round == guess && view.rate_limited == rate_limited;
        let shares = match replies.next() {
            Some(Response::IdentityKeys(shares)) if hit => Some(shares),
            _ => None,
        };
        let token = match pending {
            Some(pending) => match replies.next() {
                Some(issued @ Response::TokenIssued { .. }) if hit => {
                    Some(self.finish_token(pending, issued)?)
                }
                _ => None,
            },
            None => cached.filter(|_| rate_limited),
        };
        let speculation = shares
            .filter(|_| token.is_some() == rate_limited)
            .map(|shares| Speculation { shares, token });
        crate::retry::count_speculation(speculation.is_some());
        Ok((view, speculation))
    }

    /// The signed request for this client's identity key shares of `round`.
    fn extraction_request(&self, round: Round) -> Request {
        let auth = self
            .signing_key
            .sign(&extraction_request_message(&self.identity, round));
        Request::ExtractIdentityKeys {
            identity: self.identity.clone(),
            round,
            auth: auth.to_bytes(),
        }
    }

    /// Verifies the PKGs' identity key shares for `view`'s round, keeps the
    /// aggregated identity key for the mailbox scan and returns the
    /// aggregated attestation this round's request carries.
    ///
    /// Both checks run once on the aggregates, with one shared hash each:
    /// the attestations as one multi-signature on the one attestation
    /// message, e(Σσᵢ, g₂) = e(H(m), Σpkᵢ), then the key shares against the
    /// round's master publics, e(Σmpkᵢ, H₂(id)) = e(g₁, Σdᵢ). Only when an
    /// aggregate check fails do the per-PKG checks run, to name the PKG.
    fn accept_identity_keys(
        &mut self,
        view: &AddFriendRoundView,
        shares: &[IdentityKeyShareWire],
    ) -> Result<Signature, ClientError> {
        let mut identity_keys = Vec::with_capacity(shares.len());
        let mut attestations = Vec::with_capacity(shares.len());
        for share in shares {
            let identity_key =
                IdentityPrivateKey::from_bytes(&share.identity_key).map_err(|_| {
                    ClientError::UnexpectedResponse {
                        context: "decoding an identity key share",
                    }
                })?;
            let attestation = Signature::from_bytes(&share.attestation).map_err(|_| {
                ClientError::UnexpectedResponse {
                    context: "decoding a PKG attestation",
                }
            })?;
            identity_keys.push(identity_key);
            attestations.push(attestation);
        }
        // Every response must be covered by a configured verification key —
        // an extra, unverifiable response folded into the aggregate would
        // defeat the anytrust check. (An empty `pkg_keys` is the explicit
        // verification opt-out.)
        if !self.pkg_keys.is_empty() && shares.len() != self.pkg_keys.len() {
            return Err(ClientError::PkgResponseCount {
                expected: self.pkg_keys.len(),
                actual: shares.len(),
            });
        }
        // One share per revealed master public, or the key check below
        // could not name a PKG.
        if shares.len() != view.pkg_publics.len() {
            return Err(ClientError::PkgResponseCount {
                expected: view.pkg_publics.len(),
                actual: shares.len(),
            });
        }
        // Verify the attestations with the PKGs' long-term keys before
        // trusting the aggregate (a malicious PKG returning garbage would
        // otherwise break our own outgoing requests).
        let attestation = aggregate_signatures(&attestations);
        if let Some(aggregate_key) = &self.pkg_aggregate_key {
            let message = hash_message(&FriendRequest::pkg_attestation_message(
                &self.identity,
                &self.signing_key.verifying_key().to_bytes(),
                view.round,
            ));
            if !aggregate_key.verify_hashed(&message, &attestation) {
                let pkg_index = self
                    .pkg_keys
                    .iter()
                    .zip(&attestations)
                    .position(|(key, share)| !key.verify_hashed(&message, share))
                    .expect("a failed aggregate has a failing share (bilinearity)");
                return Err(ClientError::Coordinator(
                    alpenhorn_coordinator::CoordinatorError::CommitmentMismatch { pkg_index },
                ));
            }
        }
        // A wrong key share would otherwise only show as a mailbox that
        // silently decrypts nothing.
        let identity_key = aggregate_identity_keys(&identity_keys);
        if !view
            .master_public
            .verify_identity_key(&self.identity_point, &identity_key)
        {
            rejected_key_shares().inc();
            let pkg_index = view
                .pkg_publics
                .iter()
                .zip(&identity_keys)
                .position(|(public, share)| {
                    !public.verify_identity_key(&self.identity_point, share)
                })
                .expect("a failed aggregate has a failing share (bilinearity)");
            return Err(ClientError::IdentityKeyShareMismatch { pkg_index });
        }
        self.round_identity_key = Some((view.round, view.num_mailboxes, identity_key));
        Ok(attestation)
    }

    /// Participates in the open add-friend round: fetches the round
    /// parameters, extracts identity keys from the PKGs (step 1), then signs,
    /// encrypts, onion-wraps and submits one request — real if one is queued,
    /// cover otherwise (steps 2-3). Returns the round participated in.
    pub fn participate_add_friend<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<Round, ClientError> {
        if !self.registered {
            return Err(ClientError::NotRegistered);
        }
        let (view, speculation) = self.open_add_friend_round(net)?;

        // Acquire the rate-limit token before any state is mutated: a
        // budget failure here must leave queued friend requests queued, not
        // silently degrade them into cover traffic. Then step 1: acquire
        // identity keys and PKG attestations. A right guess brought both.
        let (token, shares) = match speculation {
            Some(hit) => (hit.token, hit.shares),
            None => {
                let token = if view.rate_limited {
                    Some(self.acquire_rate_limit_token(net, RoundKind::AddFriend, view.round)?)
                } else {
                    None
                };
                let request = self.extraction_request(view.round);
                let Response::IdentityKeys(shares) = self.rpc(net, request)? else {
                    return Err(ClientError::UnexpectedResponse {
                        context: "extracting identity keys",
                    });
                };
                (token, shares)
            }
        };
        let attestation = self.accept_identity_keys(&view, &shares)?;

        // Steps 2-3: build and submit exactly one fixed-size request. The
        // envelope is encoded into a reused scratch buffer and the onion is
        // built in place around it, at its exact final size. The queued item
        // is held aside so a failed submission can put it back at the head
        // of the queue for the next round (over TCP the submit can fail for
        // reasons the old in-process API could not hit); a build failure
        // means the item itself is malformed and it is dropped instead.
        let queued = self.outgoing_add_friend.pop_front();
        let envelope = self.build_add_friend_envelope(queued.as_ref(), &view, &attestation)?;
        envelope.encode_into(&mut self.payload_scratch);
        let onion = wrap_onion(&self.payload_scratch, &view.onion_keys, &mut self.rng);
        let submitted = self.rpc(
            net,
            Request::SubmitAddFriend {
                round: view.round,
                onion,
                token,
            },
        );
        match submitted {
            Ok(Response::Ack) => {
                self.unspent_rate_limit_token = None;
                self.last_add_friend = Some((view.round, view.rate_limited));
                Ok(view.round)
            }
            Ok(_) => {
                if let Some(item) = queued {
                    self.outgoing_add_friend.push_front(item);
                }
                Err(ClientError::UnexpectedResponse {
                    context: "submitting an add-friend request",
                })
            }
            Err(e) => {
                if let Some(item) = queued {
                    self.outgoing_add_friend.push_front(item);
                }
                Err(e)
            }
        }
    }

    /// Builds this round's add-friend envelope: a real request if one is
    /// queued, cover traffic otherwise. The queued item stays owned by the
    /// caller so it can be re-queued if the subsequent submission fails.
    fn build_add_friend_envelope(
        &mut self,
        outgoing: Option<&OutgoingAddFriend>,
        view: &AddFriendRoundView,
        attestation: &Signature,
    ) -> Result<AddFriendEnvelope, ClientError> {
        let Some(outgoing) = outgoing else {
            return Ok(AddFriendEnvelope::cover());
        };
        let (recipient, dialing_round, dh_public) = match outgoing {
            OutgoingAddFriend::Initiate { to } => {
                let dh_secret = DhSecret::generate(&mut self.rng);
                let dh_public = dh_secret.public();
                let proposed = self.propose_dialing_round();
                self.pending_outgoing.insert(
                    to.clone(),
                    PendingOutgoing {
                        dh_secret,
                        proposed_round: proposed,
                    },
                );
                (to.clone(), proposed, dh_public)
            }
            OutgoingAddFriend::Reply {
                to,
                their_dh_key,
                their_round,
            } => {
                // Generate our ephemeral key, agree on the keywheel now, and
                // tell the initiator the final start round.
                let dh_secret = DhSecret::generate(&mut self.rng);
                let dh_public = dh_secret.public();
                let final_round = Round(their_round.0.max(self.propose_dialing_round().0));
                let their_public = DhPublic::from_bytes(their_dh_key)
                    .map_err(|_| ClientError::NoPendingRequest(to.clone()))?;
                let shared = dh_secret.shared_secret(&their_public);
                self.keywheels.insert(to.clone(), shared, final_round);
                if let Some(entry) = self.address_book.get_mut(to) {
                    entry.status = FriendStatus::Confirmed;
                }
                (to.clone(), final_round, dh_public)
            }
        };

        let dialing_key = dh_public.to_bytes();
        let sender_sig = self.signing_key.sign(&FriendRequest::signed_message_parts(
            &self.identity,
            &dialing_key,
            dialing_round,
        ));
        let request = FriendRequest {
            sender: self.identity.clone(),
            sender_key: self.signing_key.verifying_key().to_bytes(),
            sender_sig: sender_sig.to_bytes(),
            pkg_sigs: attestation.to_bytes(),
            pkg_round: view.round,
            dialing_key,
            dialing_round,
        };
        let plaintext = request.encode();
        let ciphertext = ibe_encrypt(
            &view.master_public,
            recipient.as_bytes(),
            &plaintext,
            &mut self.rng,
        );
        debug_assert_eq!(ciphertext.len(), AddFriendEnvelope::CIPHERTEXT_LEN);
        Ok(AddFriendEnvelope {
            mailbox: MailboxId::for_recipient(&recipient, view.num_mailboxes),
            ciphertext,
        })
    }

    /// Downloads and scans this client's add-friend mailbox for the round it
    /// last participated in (steps 4-6 of Algorithm 1), then erases the round
    /// identity key.
    pub fn process_add_friend_mailbox<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<Vec<ClientEvent>, ClientError> {
        // Destroy the round identity key only after the mailbox is in hand:
        // a transient transport failure must leave the round retryable, or
        // every request addressed to this client that round is lost.
        let (round, num_mailboxes, identity_key) =
            self.round_identity_key.ok_or(ClientError::NoRoundState)?;
        let mailbox = MailboxId::for_recipient(&self.identity, num_mailboxes);
        let contents = match self.rpc(net, Request::FetchAddFriendMailbox { round, mailbox })? {
            Response::AddFriendMailbox { contents } => contents,
            _ => {
                return Err(ClientError::UnexpectedResponse {
                    context: "fetching an add-friend mailbox",
                })
            }
        };
        self.round_identity_key = None;

        let mut events = Vec::new();
        for ciphertext in &contents {
            let Ok(plaintext) = ibe_decrypt(&identity_key, ciphertext) else {
                continue; // Someone else's request, or noise.
            };
            let Ok(request) = FriendRequest::decode(&plaintext) else {
                continue;
            };
            if let Some(event) = self.handle_friend_request(request) {
                events.push(event);
            }
        }
        // Forward secrecy: the round identity key is destroyed after the scan
        // (dropping it here; the underlying scalar is not referenced again).
        Ok(events)
    }

    /// Validates and applies one decrypted friend request.
    fn handle_friend_request(&mut self, request: FriendRequest) -> Option<ClientEvent> {
        let from = request.sender.clone();
        if from == self.identity {
            return None;
        }

        // Verify the PKG multi-signature binding (sender, sender_key, round).
        // With no PKG keys configured nothing can verify it.
        let attestation_msg =
            FriendRequest::pkg_attestation_message(&from, &request.sender_key, request.pkg_round);
        let Ok(pkg_sig) = Signature::from_bytes(&request.pkg_sigs) else {
            return Some(self.reject(from, "malformed PKG multi-signature"));
        };
        let verified = self
            .pkg_aggregate_key
            .is_some_and(|key| key.verify(&attestation_msg, &pkg_sig));
        if !verified {
            return Some(self.reject(from, "PKG multi-signature does not verify"));
        }

        // Verify the sender's own signature over the request.
        let Ok(sender_key) = VerifyingKey::from_bytes(&request.sender_key) else {
            return Some(self.reject(from, "malformed sender key"));
        };
        let Ok(sender_sig) = Signature::from_bytes(&request.sender_sig) else {
            return Some(self.reject(from, "malformed sender signature"));
        };
        if !sender_key.verify(&request.sender_signed_message(), &sender_sig) {
            return Some(self.reject(from, "sender signature does not verify"));
        }

        // Out-of-band / trust-on-first-use key check.
        if !self.address_book.observe_key(&from, &request.sender_key) {
            return Some(self.reject(from, "sender key conflicts with previously known key"));
        }

        if let Some(pending) = self.pending_outgoing.remove(&from) {
            // This is the confirmation of a request we sent: compute the
            // shared secret with our stored ephemeral secret.
            let Ok(their_public) = DhPublic::from_bytes(&request.dialing_key) else {
                return Some(self.reject(from, "malformed dialing key"));
            };
            let shared = pending.dh_secret.shared_secret(&their_public);
            let final_round = Round(request.dialing_round.0.max(pending.proposed_round.0));
            self.keywheels.insert(from.clone(), shared, final_round);
            if let Some(entry) = self.address_book.get_mut(&from) {
                entry.status = FriendStatus::Confirmed;
            }
            return Some(ClientEvent::FriendConfirmed {
                friend: from,
                dialing_round: final_round,
            });
        }

        // A new incoming request (the paper's NewFriend callback).
        let incoming = PendingIncoming {
            their_key: request.sender_key,
            their_dh_key: request.dialing_key,
            their_round: request.dialing_round,
        };
        let auto = self.config.auto_accept_friends;
        if auto {
            self.queue_reply(from.clone(), incoming);
        } else {
            if let Some(entry) = self.address_book.get_mut(&from) {
                entry.status = FriendStatus::IncomingPending;
            }
            self.pending_incoming.insert(from.clone(), incoming);
        }
        Some(ClientEvent::FriendRequestReceived {
            from,
            their_key: request.sender_key,
            auto_accepted: auto,
        })
    }

    fn reject(&mut self, from: Identity, reason: &str) -> ClientEvent {
        ClientEvent::FriendRequestRejected {
            from,
            reason: reason.to_string(),
        }
    }

    fn queue_reply(&mut self, to: Identity, incoming: PendingIncoming) {
        if self.address_book.get(&to).is_none() {
            self.address_book.insert(FriendEntry {
                identity: to.clone(),
                long_term_key: Some(incoming.their_key),
                key_out_of_band: false,
                status: FriendStatus::IncomingPending,
            });
        }
        self.outgoing_add_friend
            .push_back(OutgoingAddFriend::Reply {
                to,
                their_dh_key: incoming.their_dh_key,
                their_round: incoming.their_round,
            });
    }

    fn propose_dialing_round(&self) -> Round {
        self.next_dialing_round
            .plus(self.config.dialing_round_slack)
    }

    // ------------------------------------------------------------------
    // Dialing rounds (§5)
    // ------------------------------------------------------------------

    /// Fetches and validates the open dialing round's parameters.
    fn fetch_dialing_round<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<DialingRoundView, ClientError> {
        crate::retry::count_dialing_round_info(false);
        let Response::DialingRoundInfo(info) = self.rpc(net, Request::GetDialingRoundInfo)? else {
            return Err(ClientError::UnexpectedResponse {
                context: "fetching dialing round info",
            });
        };
        dialing_view(info)
    }

    /// Participates in the open dialing round: submits one (possibly cover)
    /// dial token through the mixnet. Returns the outgoing-call event if a
    /// real call was placed.
    ///
    /// A client that scanned the previous round's mailbox holds this
    /// round's parameters from it and submits in one crossing. If the
    /// coordinator refuses the submission because the announcement no
    /// longer holds (the round opened with another mailbox count, or
    /// another round opened), the client fetches the round info once and
    /// submits again. The resubmission draws a fresh onion: the entry
    /// server saw the refused one, and an onion re-drawn from the same
    /// randomness would repeat its ephemeral keys and tell real calls from
    /// cover ones by the bytes that changed. Neither attempt charges the
    /// rate-limit budget beyond the round's one token, since announcements
    /// of rate-limited rounds are not held (see
    /// [`Client::process_dialing_mailbox`]).
    pub fn participate_dialing<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<Option<ClientEvent>, ClientError> {
        let announced = self
            .announced_dialing
            .take()
            .and_then(|info| dialing_view(info).ok());
        let Some(announced) = announced else {
            let view = self.fetch_dialing_round(net)?;
            let rate_token = self.enter_dialing_round(net, &view)?;
            return self.submit_dial(net, &view, rate_token);
        };
        crate::retry::count_dialing_round_info(true);
        let rate_token = self.enter_dialing_round(net, &announced)?;
        match self.submit_dial(net, &announced, rate_token) {
            Err(e) if announcement_missed(&e) => {
                let view = self.fetch_dialing_round(net)?;
                let rate_token = self.enter_dialing_round(net, &view)?;
                self.submit_dial(net, &view, rate_token)
            }
            result => result,
        }
    }

    /// Notes `view`'s round as the client's current dialing round and
    /// obtains the rate-limit token the round requires, if any: the one
    /// already issued for the round, or a fresh issuance.
    fn enter_dialing_round<T: Transport>(
        &mut self,
        net: &mut T,
        view: &DialingRoundView,
    ) -> Result<Option<RateLimitToken>, ClientError> {
        self.next_dialing_round = Round(self.next_dialing_round.0.max(view.round.0));
        // Acquire the rate-limit token before popping a queued call: a
        // budget failure here must leave the call queued for a later round.
        if !view.rate_limited {
            return Ok(None);
        }
        self.acquire_rate_limit_token(net, RoundKind::Dialing, view.round)
            .map(Some)
    }

    /// Builds and submits this client's dial onion for `view`'s round.
    fn submit_dial<T: Transport>(
        &mut self,
        net: &mut T,
        view: &DialingRoundView,
        rate_token: Option<RateLimitToken>,
    ) -> Result<Option<ClientEvent>, ClientError> {
        // The chosen call is held aside so a failed submission can put it
        // back at the head of the queue; its token and event only become
        // client state once the coordinator has accepted the submission.
        let chosen = self.next_sendable_call(view.round);
        let mut event = None;
        let request = match &chosen {
            Some(call) => {
                let token = self
                    .keywheels
                    .dial_token(&call.friend, view.round, call.intent)
                    .ok_or_else(|| ClientError::NotAFriend(call.friend.clone()))??;
                let session_key = self
                    .keywheels
                    .session_key(&call.friend, view.round, call.intent)
                    .ok_or_else(|| ClientError::NotAFriend(call.friend.clone()))??;
                event = Some(ClientEvent::OutgoingCallPlaced {
                    friend: call.friend.clone(),
                    intent: call.intent,
                    session_key,
                    round: view.round,
                });
                DialRequest {
                    mailbox: MailboxId::for_recipient(&call.friend, view.num_mailboxes),
                    token,
                }
            }
            None => {
                // Cover traffic: a random token to the cover mailbox.
                let mut token = [0u8; 32];
                self.rng.fill_bytes(&mut token);
                DialRequest {
                    mailbox: MailboxId::COVER,
                    token: DialToken(token),
                }
            }
        };
        request.encode_into(&mut self.payload_scratch);
        let onion = wrap_onion(&self.payload_scratch, &view.onion_keys, &mut self.rng);
        let submitted = self.rpc(
            net,
            Request::SubmitDialing {
                round: view.round,
                num_mailboxes: view.num_mailboxes,
                onion,
                token: rate_token,
            },
        );
        match submitted {
            Ok(Response::Ack) => {}
            other => {
                if let Some(call) = chosen {
                    self.outgoing_calls.push_front(call);
                }
                return match other {
                    Err(e) => Err(e),
                    _ => Err(ClientError::UnexpectedResponse {
                        context: "submitting a dial request",
                    }),
                };
            }
        }
        self.unspent_rate_limit_token = None;
        if chosen.is_some() {
            self.sent_dial_token = Some((view.round, request.token));
        }
        self.dialing_round_state = Some((view.round, view.num_mailboxes));
        Ok(event)
    }

    /// Pops the first queued call whose keywheel is usable in `round`
    /// (keywheels established for a future round wait until it arrives).
    fn next_sendable_call(&mut self, round: Round) -> Option<OutgoingCall> {
        let mut deferred = VecDeque::new();
        let mut chosen = None;
        while let Some(call) = self.outgoing_calls.pop_front() {
            let usable = self
                .keywheels
                .get(&call.friend)
                .map(|w| w.round() <= round)
                .unwrap_or(false);
            if usable && chosen.is_none() {
                chosen = Some(call);
            } else {
                deferred.push_back(call);
            }
        }
        self.outgoing_calls = deferred;
        chosen
    }

    /// Downloads the dial-set mailbox of the dialing round last
    /// participated in, scans it for calls from any friend with any intent,
    /// and advances all keywheels past the round (erasing old keys, §5.1).
    pub fn process_dialing_mailbox<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<Vec<ClientEvent>, ClientError> {
        let (round, num_mailboxes) = self.dialing_round_state.ok_or(ClientError::NoRoundState)?;
        let mailbox = MailboxId::for_recipient(&self.identity, num_mailboxes);
        let (filter_bytes, next_round) =
            match self.rpc(net, Request::FetchDialingMailbox { round, mailbox })? {
                Response::DialingMailbox { filter, next_round } => (filter, next_round),
                _ => {
                    return Err(ClientError::UnexpectedResponse {
                        context: "fetching a dialing mailbox",
                    })
                }
            };
        let dial_set =
            DialSet::from_bytes(&filter_bytes).map_err(|_| ClientError::UnexpectedResponse {
                context: "decoding a dialing mailbox's dial set",
            })?;
        self.dialing_round_state = None;
        // Hold the next round's announced parameters for the next
        // participation. An announcement for any other round, or one that
        // does not validate there, is ignored: the participation then asks.
        // So is a rate-limited one: its token would be issued before the
        // client learns whether the round opens, and a token for a skipped
        // round is a unit of the day's budget lost.
        self.announced_dialing =
            next_round.filter(|info| info.round == round.next() && !info.rate_limited);

        let own_token = match self.sent_dial_token {
            Some((token_round, token)) if token_round == round => Some(token),
            _ => None,
        };
        let mut events = Vec::new();
        for (friend, intent, token) in self
            .keywheels
            .expected_tokens(round, self.config.num_intents)
        {
            if own_token == Some(token) {
                // Our own outgoing token for this round; not an incoming call.
                continue;
            }
            if dial_set.contains(token.as_bytes()) {
                let session_key: SessionKey = self
                    .keywheels
                    .session_key(&friend, round, intent)
                    .expect("friend has a keywheel")?;
                events.push(ClientEvent::IncomingCall {
                    from: friend,
                    intent,
                    session_key,
                    round,
                });
            }
        }

        // The round is fully handled (sent and scanned): advance keywheels so
        // a later compromise cannot reconstruct this round's tokens.
        self.keywheels.advance_to(round.next());
        self.next_dialing_round = Round(self.next_dialing_round.0.max(round.next().0));
        Ok(events)
    }

    /// Gives up on a dialing round whose mailbox could not be fetched (§5.1:
    /// after retrying for a while the client advances its keywheels anyway to
    /// preserve forward secrecy, accepting that calls from that round are
    /// lost).
    pub fn abandon_dialing_round(&mut self, round: Round) {
        if matches!(self.dialing_round_state, Some((r, _)) if r == round) {
            self.dialing_round_state = None;
        }
        self.drop_announcements_before(round.next());
        self.keywheels.advance_to(round.next());
        self.next_dialing_round = Round(self.next_dialing_round.0.max(round.next().0));
    }

    /// Catches a mobile client up after sleeping through many rounds: every
    /// keywheel is ratcheted forward to `round` (preserving forward secrecy
    /// for the missed interval, §5.2 — the skipped keys are derived and
    /// discarded, so a later compromise cannot reconstruct them) and any
    /// stale in-flight dialing-round state from before the sleep is
    /// abandoned. Calls dialed to this client during the gap are lost, which
    /// is the paper's intended semantics for offline users. A no-op for a
    /// client already at or past `round`.
    pub fn fast_forward(&mut self, round: Round) {
        if matches!(self.dialing_round_state, Some((r, _)) if r < round) {
            self.dialing_round_state = None;
        }
        self.drop_announcements_before(round);
        self.keywheels.advance_to(round);
        self.next_dialing_round = Round(self.next_dialing_round.0.max(round.0));
    }

    /// Forgets a held dialing announcement for a round before `round`: the
    /// client will not participate in it.
    fn drop_announcements_before(&mut self, round: Round) {
        if matches!(&self.announced_dialing, Some(info) if info.round < round) {
            self.announced_dialing = None;
        }
    }

    /// The dialing round whose announced parameters the client holds for
    /// its next participation, if any.
    pub fn announced_dialing_round(&self) -> Option<Round> {
        self.announced_dialing.as_ref().map(|info| info.round)
    }
}

// ---------------------------------------------------------------------------
// Durable client state (`alpenhorn-storage`)
// ---------------------------------------------------------------------------

/// Record kind for a serialized client state (see `alpenhorn_storage::record`).
const CLIENT_STATE_RECORD_KIND: u8 = 0x20;
/// Client snapshot payload version; bump on any layout change (no
/// negotiation — a loader rejects every other version).
const CLIENT_STATE_VERSION: u8 = 1;

use alpenhorn_storage::codec::{get_identity, put_identity};
use alpenhorn_storage::StorageError;

fn round_kind_tag(kind: RoundKind) -> u8 {
    match kind {
        RoundKind::AddFriend => 0,
        RoundKind::Dialing => 1,
    }
}

fn round_kind_from_tag(tag: u8) -> Result<RoundKind, StorageError> {
    match tag {
        0 => Ok(RoundKind::AddFriend),
        1 => Ok(RoundKind::Dialing),
        _ => Err(StorageError::BadPayload {
            context: "round kind tag",
        }),
    }
}

fn status_tag(status: FriendStatus) -> u8 {
    match status {
        FriendStatus::OutgoingPending => 0,
        FriendStatus::IncomingPending => 1,
        FriendStatus::Confirmed => 2,
    }
}

fn status_from_tag(tag: u8) -> Result<FriendStatus, StorageError> {
    match tag {
        0 => Ok(FriendStatus::OutgoingPending),
        1 => Ok(FriendStatus::IncomingPending),
        2 => Ok(FriendStatus::Confirmed),
        _ => Err(StorageError::BadPayload {
            context: "friend status tag",
        }),
    }
}

impl Client {
    /// Serializes the client's full durable state as one checksummed,
    /// versioned record: identity, config, long-term signing key, PKG keys,
    /// address book, keywheels, queued friend requests and calls, pending
    /// handshakes (with their ephemeral DH secrets), the cached unspent
    /// rate-limit token, and the RNG position — everything needed for a
    /// client process to die and resume at the next round.
    ///
    /// Deliberately **excluded**: the open round's IBE identity key and PKG
    /// attestation. Those are erased after every mailbox scan for forward
    /// secrecy (§4.4), and persisting them would extend their lifetime onto
    /// disk; a reloaded client simply cannot scan the mailbox of a round it
    /// was mid-way through, and participates in the next round instead.
    ///
    /// The output contains long-term and ephemeral secrets; store it like a
    /// key file, and overwrite rather than archive old saves (a hoarded old
    /// save is a hoarded old keywheel position).
    pub fn save_state(&self) -> Vec<u8> {
        alpenhorn_storage::record::encode(CLIENT_STATE_RECORD_KIND, &self.encode_state_payload())
    }

    /// Reconstructs a client from [`Client::save_state`] bytes, verifying the
    /// record checksum and version. Corruption (torn write, bit flip) is
    /// detected and reported, never silently loaded.
    pub fn load_state(bytes: &[u8]) -> Result<Self, StorageError> {
        let record = alpenhorn_storage::record::decode_exact(bytes)?;
        if record.kind != CLIENT_STATE_RECORD_KIND {
            return Err(StorageError::BadPayload {
                context: "client state record kind",
            });
        }
        Self::decode_state_payload(&record.payload)
    }

    /// Saves the client's state to `path` atomically (write-temp, fsync,
    /// rename), so a crash mid-save leaves the previous save intact.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), StorageError> {
        alpenhorn_storage::snapshot::write_atomic(path, &self.encode_state_payload())
    }

    /// Loads a client saved with [`Client::save_to`]. Returns `Ok(None)` if
    /// no save exists at `path`.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> Result<Option<Self>, StorageError> {
        match alpenhorn_storage::snapshot::read(path)? {
            None => Ok(None),
            Some(payload) => Self::decode_state_payload(&payload).map(Some),
        }
    }

    fn encode_state_payload(&self) -> Vec<u8> {
        let mut e = alpenhorn_wire::Encoder::new();
        e.put_u8(CLIENT_STATE_VERSION);
        put_identity(&mut e, &self.identity);
        e.put_u32(self.config.num_intents);
        e.put_u8(self.config.auto_accept_friends as u8);
        e.put_u64(self.config.dialing_round_slack);
        e.put_bytes(&self.signing_key.to_bytes());
        e.put_u32(self.pkg_keys.len() as u32);
        for key in &self.pkg_keys {
            e.put_bytes(&key.to_bytes());
        }
        e.put_u8(self.registered as u8);

        e.put_u32(self.address_book.len() as u32);
        for entry in self.address_book.iter() {
            put_identity(&mut e, &entry.identity);
            match &entry.long_term_key {
                None => {
                    e.put_u8(0);
                }
                Some(key) => {
                    e.put_u8(1);
                    e.put_bytes(key);
                }
            }
            e.put_u8(entry.key_out_of_band as u8);
            e.put_u8(status_tag(entry.status));
        }

        e.put_u32(self.keywheels.len() as u32);
        for (friend, wheel) in self.keywheels.wheels() {
            put_identity(&mut e, friend);
            e.put_bytes(&wheel.export_secret());
            e.put_u64(wheel.round().as_u64());
        }

        e.put_u32(self.outgoing_add_friend.len() as u32);
        for outgoing in &self.outgoing_add_friend {
            match outgoing {
                OutgoingAddFriend::Initiate { to } => {
                    e.put_u8(0);
                    put_identity(&mut e, to);
                }
                OutgoingAddFriend::Reply {
                    to,
                    their_dh_key,
                    their_round,
                } => {
                    e.put_u8(1);
                    put_identity(&mut e, to);
                    e.put_bytes(their_dh_key);
                    e.put_u64(their_round.as_u64());
                }
            }
        }

        let mut pending_outgoing: Vec<_> = self.pending_outgoing.iter().collect();
        pending_outgoing.sort_by(|a, b| a.0.cmp(b.0));
        e.put_u32(pending_outgoing.len() as u32);
        for (to, pending) in pending_outgoing {
            put_identity(&mut e, to);
            e.put_bytes(&pending.dh_secret.to_bytes());
            e.put_u64(pending.proposed_round.as_u64());
        }

        let mut pending_incoming: Vec<_> = self.pending_incoming.iter().collect();
        pending_incoming.sort_by(|a, b| a.0.cmp(b.0));
        e.put_u32(pending_incoming.len() as u32);
        for (from, pending) in pending_incoming {
            put_identity(&mut e, from);
            e.put_bytes(&pending.their_key);
            e.put_bytes(&pending.their_dh_key);
            e.put_u64(pending.their_round.as_u64());
        }

        e.put_u32(self.outgoing_calls.len() as u32);
        for call in &self.outgoing_calls {
            put_identity(&mut e, &call.friend);
            e.put_u32(call.intent);
        }

        e.put_u64(self.next_dialing_round.as_u64());
        match &self.sent_dial_token {
            None => {
                e.put_u8(0);
            }
            Some((round, token)) => {
                e.put_u8(1);
                e.put_u64(round.as_u64());
                e.put_bytes(&token.0);
            }
        }
        match &self.dialing_round_state {
            None => {
                e.put_u8(0);
            }
            Some((round, num_mailboxes)) => {
                e.put_u8(1);
                e.put_u64(round.as_u64());
                e.put_u32(*num_mailboxes);
            }
        }
        match &self.unspent_rate_limit_token {
            None => {
                e.put_u8(0);
            }
            Some((kind, round, token)) => {
                e.put_u8(1);
                e.put_u8(round_kind_tag(*kind));
                e.put_u64(round.as_u64());
                e.put_bytes(&token.serial);
                e.put_bytes(&token.signature);
            }
        }
        e.put_bytes(&self.rng.state_bytes());
        e.finish()
    }

    fn decode_state_payload(payload: &[u8]) -> Result<Self, StorageError> {
        let mut d = alpenhorn_wire::Decoder::new(payload);
        let version = d.get_u8("client state version")?;
        if version != CLIENT_STATE_VERSION {
            return Err(StorageError::BadPayload {
                context: "unsupported client state version",
            });
        }
        let identity = get_identity(&mut d, "client identity")?;
        let config = ClientConfig {
            num_intents: d.get_u32("config num_intents")?,
            auto_accept_friends: d.get_u8("config auto_accept")? != 0,
            dialing_round_slack: d.get_u64("config slack")?,
            // Operational knob, not protocol state: a loaded client starts
            // with the default (no-retry) policy; re-apply via
            // `set_retry_policy` if wanted.
            retry: RetryPolicy::none(),
        };
        let signing_key =
            SigningKey::from_bytes(&d.get_array::<32>("signing key")?).map_err(|_| {
                StorageError::BadPayload {
                    context: "client signing key",
                }
            })?;
        // The count comes from disk: never reserve on its say-so.
        let pkg_key_count = d.get_u32("pkg key count")? as usize;
        let mut pkg_keys = Vec::new();
        for _ in 0..pkg_key_count {
            let bytes = d.get_array::<SIGNING_PK_LEN>("pkg key")?;
            pkg_keys.push(VerifyingKey::from_bytes(&bytes).map_err(|_| {
                StorageError::BadPayload {
                    context: "pkg verification key",
                }
            })?);
        }
        let registered = d.get_u8("registered flag")? != 0;

        let mut address_book = AddressBook::new();
        for _ in 0..d.get_u32("address book count")? {
            let identity = get_identity(&mut d, "address book identity")?;
            let long_term_key = match d.get_u8("address book key flag")? {
                0 => None,
                _ => Some(d.get_array::<SIGNING_PK_LEN>("address book key")?),
            };
            let key_out_of_band = d.get_u8("address book oob flag")? != 0;
            let status = status_from_tag(d.get_u8("address book status")?)?;
            address_book.insert(FriendEntry {
                identity,
                long_term_key,
                key_out_of_band,
                status,
            });
        }

        let mut keywheels = KeywheelTable::new();
        for _ in 0..d.get_u32("keywheel count")? {
            let friend = get_identity(&mut d, "keywheel identity")?;
            let secret = d.get_array::<32>("keywheel secret")?;
            let round = Round(d.get_u64("keywheel round")?);
            keywheels.insert(friend, secret, round);
        }

        let mut outgoing_add_friend = VecDeque::new();
        for _ in 0..d.get_u32("outgoing add-friend count")? {
            let item = match d.get_u8("outgoing add-friend tag")? {
                0 => OutgoingAddFriend::Initiate {
                    to: get_identity(&mut d, "initiate recipient")?,
                },
                1 => OutgoingAddFriend::Reply {
                    to: get_identity(&mut d, "reply recipient")?,
                    their_dh_key: d.get_array::<{ alpenhorn_wire::DH_PK_LEN }>("reply dh key")?,
                    their_round: Round(d.get_u64("reply round")?),
                },
                _ => {
                    return Err(StorageError::BadPayload {
                        context: "outgoing add-friend tag",
                    })
                }
            };
            outgoing_add_friend.push_back(item);
        }

        let mut pending_outgoing = HashMap::new();
        for _ in 0..d.get_u32("pending outgoing count")? {
            let to = get_identity(&mut d, "pending outgoing identity")?;
            let dh_secret = DhSecret::from_bytes(&d.get_array::<32>("pending outgoing secret")?)
                .map_err(|_| StorageError::BadPayload {
                    context: "pending outgoing DH secret",
                })?;
            let proposed_round = Round(d.get_u64("pending outgoing round")?);
            pending_outgoing.insert(
                to,
                PendingOutgoing {
                    dh_secret,
                    proposed_round,
                },
            );
        }

        let mut pending_incoming = HashMap::new();
        for _ in 0..d.get_u32("pending incoming count")? {
            let from = get_identity(&mut d, "pending incoming identity")?;
            let their_key = d.get_array::<SIGNING_PK_LEN>("pending incoming key")?;
            let their_dh_key =
                d.get_array::<{ alpenhorn_wire::DH_PK_LEN }>("pending incoming dh key")?;
            let their_round = Round(d.get_u64("pending incoming round")?);
            pending_incoming.insert(
                from,
                PendingIncoming {
                    their_key,
                    their_dh_key,
                    their_round,
                },
            );
        }

        let mut outgoing_calls = VecDeque::new();
        for _ in 0..d.get_u32("outgoing call count")? {
            let friend = get_identity(&mut d, "outgoing call identity")?;
            let intent = d.get_u32("outgoing call intent")?;
            outgoing_calls.push_back(OutgoingCall { friend, intent });
        }

        let next_dialing_round = Round(d.get_u64("next dialing round")?);
        let sent_dial_token = match d.get_u8("sent token flag")? {
            0 => None,
            _ => {
                let round = Round(d.get_u64("sent token round")?);
                let token = DialToken(d.get_array::<32>("sent token")?);
                Some((round, token))
            }
        };
        let dialing_round_state = match d.get_u8("dialing state flag")? {
            0 => None,
            _ => {
                let round = Round(d.get_u64("dialing state round")?);
                let num_mailboxes = d.get_u32("dialing state mailboxes")?;
                Some((round, num_mailboxes))
            }
        };
        let unspent_rate_limit_token = match d.get_u8("unspent token flag")? {
            0 => None,
            _ => {
                let kind = round_kind_from_tag(d.get_u8("unspent token kind")?)?;
                let round = Round(d.get_u64("unspent token round")?);
                let serial = d.get_array::<RATE_LIMIT_SERIAL_LEN>("unspent token serial")?;
                let signature =
                    d.get_array::<{ alpenhorn_wire::SIGNATURE_LEN }>("unspent token signature")?;
                Some((kind, round, RateLimitToken { serial, signature }))
            }
        };
        let rng_state = d.get_array::<{ ChaChaRng::STATE_LEN }>("rng state")?;
        let rng = ChaChaRng::from_state_bytes(&rng_state).ok_or(StorageError::BadPayload {
            context: "client rng state",
        })?;
        d.finish()?;

        Ok(Client {
            identity_point: hash_identity(identity.as_bytes()),
            identity,
            config,
            signing_key,
            pkg_aggregate_key: aggregate_pkg_keys(&pkg_keys),
            pkg_keys,
            registered,
            address_book,
            keywheels,
            outgoing_add_friend,
            pending_outgoing,
            pending_incoming,
            outgoing_calls,
            // Round-scoped secrets are never persisted (forward secrecy):
            // a reloaded client starts outside any open round.
            round_identity_key: None,
            last_add_friend: None,
            dialing_round_state,
            announced_dialing: None,
            next_dialing_round,
            sent_dial_token,
            unspent_rate_limit_token,
            payload_scratch: Vec::new(),
            rng,
            // Jitter only — any deterministic derivation works; the saved
            // RNG state is secret material, so hash it rather than reuse it.
            retry_rng: derive_retry_rng(&rng_state),
        })
    }
}

impl core::fmt::Debug for Client {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Client")
            .field("identity", &self.identity)
            .field("registered", &self.registered)
            .field("friends", &self.address_book.len())
            .field("keywheels", &self.keywheels.len())
            .finish()
    }
}
