//! The versioned client ↔ coordinator RPC protocol.
//!
//! The paper deploys Alpenhorn as real network services: clients talk to an
//! untrusted entry server (the coordinator) that fronts the PKGs and the
//! mixnet chain. This module defines that service boundary as an explicit,
//! versioned request/response API with fixed-layout binary encodings built on
//! the crate's [`Encoder`]/[`Decoder`]. On the wire every message travels
//! inside a [`crate::codec::Frame`], so malformed, mis-versioned, or
//! corrupted traffic is rejected before message decoding runs.
//!
//! The request surface covers the full round lifecycle:
//!
//! * account management: [`Request::Register`],
//!   [`Request::CompleteRegistration`], [`Request::Deregister`];
//! * round discovery: [`Request::GetAddFriendRoundInfo`],
//!   [`Request::GetDialingRoundInfo`], [`Request::GetPkgKeys`];
//! * the add-friend protocol: [`Request::ExtractIdentityKeys`],
//!   [`Request::SubmitAddFriend`], [`Request::FetchAddFriendMailbox`];
//! * the dialing protocol: [`Request::SubmitDialing`],
//!   [`Request::FetchDialingMailbox`];
//! * rate limiting (§9): [`Request::IssueRateLimitToken`] plus the
//!   [`RateLimitToken`] carried by submissions;
//! * round administration (the operator side of the entry server):
//!   [`Request::BeginAddFriendRound`] and friends;
//! * [`Request::Batch`]: up to [`MAX_BATCH_MEMBERS`] of the replay-idempotent
//!   pre-submit calls in one frame, answered by one [`Response::Batch`].
//!
//! Decoding is total: any byte sequence either decodes to a message or
//! returns a typed [`WireError`]; nothing in this module panics on input.

use crate::codec::{Decoder, Encoder};
use crate::constants::{G1_LEN, G2_LEN, SIGNATURE_LEN, SIGNING_PK_LEN};
use crate::error::WireError;
use crate::friend_request::AddFriendEnvelope;
use crate::identity::{get_identity, put_identity, Identity};
use crate::mailbox::MailboxId;
use crate::round::{Round, RoundKind};

/// Length of the client-chosen random serial inside a rate-limit token.
pub const RATE_LIMIT_SERIAL_LEN: usize = 16;

/// Upper bound on the number of mixnet servers (onion keys) announced per
/// round; a count beyond this is rejected as hostile input.
pub const MAX_CHAIN_KEYS: usize = 64;

/// Upper bound on the number of PKG key shares per round / response.
pub const MAX_PKG_KEYS: usize = 64;

/// Upper bound on free-form detail strings carried in errors.
pub const MAX_DETAIL_LEN: usize = 256;

/// Most members a [`Request::Batch`] (and its [`Response::Batch`]) carries:
/// one each of round info, key extraction and token issuance.
pub const MAX_BATCH_MEMBERS: usize = 3;

/// A spendable rate-limit token: a client-chosen random serial plus the
/// unblinded BLS signature over the spend message for (protocol, round,
/// serial). The coordinator verifies the signature against the issuer key and
/// records the token against double spending; because issuance used a blind
/// signature, spending does not identify the client the token was issued to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitToken {
    /// Client-chosen random serial, embedded in the signed spend message so
    /// tokens are single-use.
    pub serial: [u8; RATE_LIMIT_SERIAL_LEN],
    /// Unblinded BLS signature over the spend message.
    pub signature: [u8; SIGNATURE_LEN],
}

/// Everything a client needs to participate in the open add-friend round, in
/// wire form (compressed curve points as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddFriendRoundWire {
    /// The round number.
    pub round: Round,
    /// Onion public keys of the mixnet servers, in chain order.
    pub onion_keys: Vec<[u8; G1_LEN]>,
    /// Each PKG's revealed master public key for the round; the client
    /// aggregates these into the Anytrust-IBE encryption key.
    pub pkg_publics: Vec<[u8; G1_LEN]>,
    /// Number of add-friend mailboxes this round.
    pub num_mailboxes: u32,
    /// The fixed size of a client submission (onion) this round.
    pub onion_len: u32,
    /// Whether submissions this round must carry a [`RateLimitToken`].
    pub rate_limited: bool,
}

/// Everything a client needs to participate in the open dialing round, in
/// wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DialingRoundWire {
    /// The round number.
    pub round: Round,
    /// Onion public keys of the mixnet servers, in chain order.
    pub onion_keys: Vec<[u8; G1_LEN]>,
    /// Number of dialing mailboxes this round.
    pub num_mailboxes: u32,
    /// The fixed size of a client submission (onion) this round.
    pub onion_len: u32,
    /// Whether submissions this round must carry a [`RateLimitToken`].
    pub rate_limited: bool,
}

/// One PKG's response to an identity-key extraction, in wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityKeyShareWire {
    /// The user's IBE identity private key share for the round (G2 point).
    pub identity_key: [u8; G2_LEN],
    /// The PKG's attestation signature over (identity, signing key, round).
    pub attestation: [u8; SIGNATURE_LEN],
}

/// Round statistics returned when an admin closes a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStatsWire {
    /// Messages submitted by clients.
    pub client_messages: u64,
    /// Noise messages added across all servers.
    pub total_noise: u64,
    /// Messages in the final batch (clients + noise - dropped).
    pub final_messages: u64,
}

/// A request from a client (or round-driving operator) to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Start registration of an identity under a long-term signing key; every
    /// PKG sends a confirmation email.
    Register {
        /// The identity (email address) to register.
        identity: Identity,
        /// The long-term signing public key to bind to it.
        signing_key: [u8; SIGNING_PK_LEN],
    },
    /// Complete registration by confirming the emailed tokens (in this
    /// reproduction the simulated inbox is read server-side; this request
    /// plays the role of the user clicking the confirmation links).
    CompleteRegistration {
        /// The identity being confirmed.
        identity: Identity,
    },
    /// Deregister an identity (signature over the deregistration message by
    /// the registered key).
    Deregister {
        /// The identity to deregister.
        identity: Identity,
        /// Signature authorizing the deregistration.
        signature: [u8; SIGNATURE_LEN],
    },
    /// Fetch the PKGs' long-term verification keys. Real clients ship with
    /// these keys (§3.3); the RPC exists for tooling and tests.
    GetPkgKeys,
    /// Fetch the currently open add-friend round's parameters.
    GetAddFriendRoundInfo,
    /// Fetch the currently open dialing round's parameters.
    GetDialingRoundInfo,
    /// Extract this round's IBE identity key shares from every PKG.
    ExtractIdentityKeys {
        /// The identity whose round key is extracted.
        identity: Identity,
        /// The add-friend round the extraction is for.
        round: Round,
        /// Signature over the extraction request message by the registered
        /// key.
        auth: [u8; SIGNATURE_LEN],
    },
    /// Request one blind-signed rate-limit token (§9). The blinded message
    /// hides the token from the issuer; `auth` proves account ownership the
    /// same way key extraction does.
    IssueRateLimitToken {
        /// The requesting identity (issuance is budgeted per user per day).
        identity: Identity,
        /// The blinded token message (G1 point).
        blinded: [u8; G1_LEN],
        /// Signature over the issuance message by the registered key.
        auth: [u8; SIGNATURE_LEN],
    },
    /// Submit one fixed-size (possibly cover) onion for the open add-friend
    /// round.
    SubmitAddFriend {
        /// The round being submitted to.
        round: Round,
        /// The onion-wrapped request, exactly `onion_len` bytes.
        onion: Vec<u8>,
        /// Rate-limit token, required when the round is rate limited.
        token: Option<RateLimitToken>,
    },
    /// Submit one fixed-size (possibly cover) dial onion for the open dialing
    /// round.
    SubmitDialing {
        /// The round being submitted to.
        round: Round,
        /// The mailbox count the dial request inside the onion was addressed
        /// for. A client that built the onion from an announcement the round
        /// was not opened with gets [`RpcError::StaleRoundInfo`], before
        /// intake and before its token is spent.
        num_mailboxes: u32,
        /// The onion-wrapped request, exactly `onion_len` bytes.
        onion: Vec<u8>,
        /// Rate-limit token, required when the round is rate limited.
        token: Option<RateLimitToken>,
    },
    /// Download one add-friend mailbox (a list of IBE ciphertexts) from the
    /// CDN.
    FetchAddFriendMailbox {
        /// The closed round to fetch from.
        round: Round,
        /// The mailbox to download.
        mailbox: MailboxId,
    },
    /// Download one dialing mailbox (a Golomb-coded set of dial tokens)
    /// from the CDN.
    FetchDialingMailbox {
        /// The closed round to fetch from.
        round: Round,
        /// The mailbox to download.
        mailbox: MailboxId,
    },
    /// Admin: open an add-friend round sized for the expected number of real
    /// requests.
    BeginAddFriendRound {
        /// The round number to open.
        round: Round,
        /// Expected number of real requests (drives mailbox sizing).
        expected_real: u64,
    },
    /// Admin: close the open add-friend round, running the mixnet and
    /// publishing mailboxes.
    CloseAddFriendRound {
        /// The round number to close.
        round: Round,
    },
    /// Admin: open a dialing round sized for the expected number of real
    /// tokens.
    BeginDialingRound {
        /// The round number to open.
        round: Round,
        /// Expected number of real dial tokens (drives mailbox sizing).
        expected_real: u64,
    },
    /// Admin: close the open dialing round.
    CloseDialingRound {
        /// The round number to close.
        round: Round,
    },
    /// Admin: fetch the process's metrics exposition and recent spans
    /// (see `docs/OBSERVABILITY.md`).
    GetTelemetry,
    /// 1 to [`MAX_BATCH_MEMBERS`] requests in one frame, each one for which
    /// [`Request::batchable`] holds. The server runs them in order and stops
    /// after the first one answered with [`Response::Error`]; the
    /// [`Response::Batch`] holds the replies of the members it ran. Only
    /// replay-idempotent calls qualify, so resending a whole batch whose
    /// reply was lost is as safe as resending each call.
    Batch(Vec<Request>),
}

/// Why a submission or issuance was rate limited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateLimitReason {
    /// The round requires a token and the submission carried none.
    MissingToken,
    /// The token's signature did not verify under the issuer key.
    InvalidToken,
    /// The token was already spent.
    DoubleSpend,
    /// The user exhausted today's issuance budget.
    BudgetExhausted,
    /// Rate limiting is not enabled on this deployment.
    NotEnabled,
}

impl RateLimitReason {
    fn code(self) -> u8 {
        match self {
            RateLimitReason::MissingToken => 0,
            RateLimitReason::InvalidToken => 1,
            RateLimitReason::DoubleSpend => 2,
            RateLimitReason::BudgetExhausted => 3,
            RateLimitReason::NotEnabled => 4,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            0 => RateLimitReason::MissingToken,
            1 => RateLimitReason::InvalidToken,
            2 => RateLimitReason::DoubleSpend,
            3 => RateLimitReason::BudgetExhausted,
            4 => RateLimitReason::NotEnabled,
            _ => {
                return Err(WireError::InvalidValue {
                    context: "rate limit reason",
                })
            }
        })
    }
}

impl core::fmt::Display for RateLimitReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RateLimitReason::MissingToken => write!(f, "submission carried no rate-limit token"),
            RateLimitReason::InvalidToken => write!(f, "rate-limit token is invalid"),
            RateLimitReason::DoubleSpend => write!(f, "rate-limit token was already spent"),
            RateLimitReason::BudgetExhausted => write!(f, "daily token budget exhausted"),
            RateLimitReason::NotEnabled => write!(f, "rate limiting is not enabled"),
        }
    }
}

/// A typed error reported by the coordinator over the RPC boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// An operation referred to a round that is not currently open.
    RoundNotOpen {
        /// The round that was requested.
        requested: Round,
    },
    /// No round of this protocol is currently open to query.
    NoOpenRound {
        /// Which protocol's round was queried.
        kind: RoundKind,
    },
    /// A round of this protocol is already open; close it first.
    RoundAlreadyOpen,
    /// A submitted request did not have the fixed size required this round.
    WrongRequestSize {
        /// Expected size in bytes.
        expected: u32,
        /// Actual size in bytes.
        actual: u32,
    },
    /// The requested mailbox does not exist for that round.
    UnknownMailbox,
    /// A PKG's revealed round key did not match its prior commitment.
    CommitmentMismatch {
        /// Index of the offending PKG.
        pkg_index: u32,
    },
    /// A PKG rejected the operation.
    Pkg {
        /// Stable numeric code for the PKG error variant.
        code: u8,
        /// Human-readable description.
        detail: String,
    },
    /// The operation was rate limited.
    RateLimited {
        /// Why the operation was rejected.
        reason: RateLimitReason,
    },
    /// The request was structurally valid but semantically unusable (bad
    /// point encoding, unknown identity, failed authentication, ...).
    BadRequest {
        /// Human-readable description.
        detail: String,
    },
    /// A dialing submission was built for a mailbox count other than the
    /// open round's: the announcement it came from went stale when the
    /// round opened with a different size. The client fetches the round
    /// info and resubmits.
    StaleRoundInfo {
        /// The open round's mailbox count.
        expected: u32,
        /// The count the submission was addressed for.
        actual: u32,
    },
    /// A transient server-side fault (e.g. the durable journal could not be
    /// written, or the server is shedding load). Unlike
    /// [`RpcError::BadRequest`], retrying the same request later is expected
    /// to succeed.
    Unavailable {
        /// Human-readable description.
        detail: String,
        /// Server's backoff hint: how long the client should wait before
        /// retrying, in milliseconds. `0` means "no hint" (retry on the
        /// client's own schedule).
        retry_after_ms: u32,
    },
}

impl core::fmt::Display for RpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RpcError::RoundNotOpen { requested } => {
                write!(f, "round {} is not open", requested.0)
            }
            RpcError::NoOpenRound { kind } => write!(f, "no {kind} round is open"),
            RpcError::RoundAlreadyOpen => write!(f, "a round is already open"),
            RpcError::WrongRequestSize { expected, actual } => {
                write!(f, "request must be {expected} bytes, got {actual}")
            }
            RpcError::UnknownMailbox => write!(f, "unknown mailbox"),
            RpcError::CommitmentMismatch { pkg_index } => {
                write!(
                    f,
                    "PKG {pkg_index} revealed a key not matching its commitment"
                )
            }
            RpcError::StaleRoundInfo { expected, actual } => write!(
                f,
                "round info is stale: the round has {expected} mailboxes, not {actual}"
            ),
            RpcError::Pkg { detail, .. } => write!(f, "PKG error: {detail}"),
            RpcError::RateLimited { reason } => write!(f, "rate limited: {reason}"),
            RpcError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            RpcError::Unavailable {
                detail,
                retry_after_ms,
            } => {
                write!(f, "server temporarily unavailable: {detail}")?;
                if *retry_after_ms > 0 {
                    write!(f, " (retry after {retry_after_ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// A response from the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded and carries no payload.
    Ack,
    /// The PKGs' long-term verification keys, in PKG order.
    PkgKeys(Vec<[u8; SIGNING_PK_LEN]>),
    /// Parameters of the open add-friend round.
    AddFriendRoundInfo(AddFriendRoundWire),
    /// Parameters of the open dialing round.
    DialingRoundInfo(DialingRoundWire),
    /// One identity key share + attestation per PKG, in PKG order.
    IdentityKeys(Vec<IdentityKeyShareWire>),
    /// A blind-signed rate-limit token.
    TokenIssued {
        /// The blinded signature; the client unblinds it into the spendable
        /// token.
        blind_signature: [u8; G1_LEN],
    },
    /// Contents of one add-friend mailbox: fixed-size IBE ciphertexts.
    AddFriendMailbox {
        /// The ciphertexts, each exactly
        /// [`AddFriendEnvelope::CIPHERTEXT_LEN`] bytes.
        contents: Vec<Vec<u8>>,
    },
    /// Contents of one dialing mailbox: an encoded dial set, plus the
    /// next dialing round's parameters when the round's close announced
    /// them. Encoded as the tag followed by the mailbox's CDN blob
    /// ([`crate::cdn::encode_dialing_blob`]), so the origin and the shard
    /// fleet serve the same bytes.
    DialingMailbox {
        /// The dial set, as produced by `alpenhorn_bloom::DialSet::to_bytes`.
        /// The wire carries it as opaque bytes; its meaning changed from a
        /// Bloom filter in frame version 11.
        filter: Vec<u8>,
        /// Round r + 1's parameters, fixed when round r closed.
        next_round: Option<DialingRoundWire>,
    },
    /// A round was closed; summary statistics.
    RoundClosed(RoundStatsWire),
    /// The process's telemetry: metrics exposition text and recent spans.
    Telemetry(TelemetryWire),
    /// The request failed with a typed error.
    Error(RpcError),
    /// The replies to a [`Request::Batch`]'s members, in order: one per
    /// member up to and including the first [`Response::Error`].
    Batch(Vec<Response>),
}

/// Upper bound on the metrics exposition text in a telemetry response
/// (1 MiB; a full registry is a few tens of KiB).
pub const MAX_TELEMETRY_TEXT_LEN: usize = 1 << 20;

/// Upper bound on the spans in a telemetry response (matches the span ring
/// capacity in `alpenhorn-obs`).
pub const MAX_TELEMETRY_SPANS: usize = 4096;

/// One process's telemetry, in wire form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryWire {
    /// The metric registry's text exposition (`name{label="v"} value` lines).
    pub exposition: String,
    /// Recently finished spans, oldest first.
    pub spans: Vec<SpanWire>,
}

/// One finished span, in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanWire {
    /// The component that recorded it (`"coordinator"`, `"mixd"`, `"cdn"`, ...).
    pub component: String,
    /// What the interval covered (`"mix.round"`, `"cdn.put_shard"`, ...).
    pub name: String,
    /// Round correlation id (0 = not round-scoped).
    pub correlation: u64,
    /// Start, microseconds since the recording process started.
    pub start_us: u64,
    /// Duration in microseconds.
    pub duration_us: u64,
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

fn put_point_list<const N: usize>(e: &mut Encoder, points: &[[u8; N]]) {
    e.put_u16(points.len() as u16);
    for p in points {
        e.put_bytes(p);
    }
}

fn get_point_list<const N: usize>(
    d: &mut Decoder<'_>,
    max: usize,
    context: &'static str,
) -> Result<Vec<[u8; N]>, WireError> {
    let count = d.get_u16(context)? as usize;
    if count > max || count * N > d.remaining() {
        return Err(WireError::InvalidValue { context });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(d.get_array::<N>(context)?);
    }
    Ok(out)
}

fn put_token(e: &mut Encoder, token: &Option<RateLimitToken>) {
    match token {
        None => {
            e.put_u8(0);
        }
        Some(t) => {
            e.put_u8(1);
            e.put_bytes(&t.serial);
            e.put_bytes(&t.signature);
        }
    }
}

fn get_token(d: &mut Decoder<'_>) -> Result<Option<RateLimitToken>, WireError> {
    match d.get_u8("token flag")? {
        0 => Ok(None),
        1 => Ok(Some(RateLimitToken {
            serial: d.get_array("token serial")?,
            signature: d.get_array("token signature")?,
        })),
        _ => Err(WireError::InvalidValue {
            context: "token flag",
        }),
    }
}

pub(crate) fn put_detail(e: &mut Encoder, detail: &str) {
    let bytes = detail.as_bytes();
    let take = bytes.len().min(MAX_DETAIL_LEN);
    // Truncate on a char boundary so decoding back to UTF-8 cannot fail.
    let mut end = take;
    while end > 0 && !detail.is_char_boundary(end) {
        end -= 1;
    }
    e.put_var_bytes(&bytes[..end]);
}

pub(crate) fn get_detail(d: &mut Decoder<'_>, context: &'static str) -> Result<String, WireError> {
    let raw = d.get_var_bytes(context)?;
    if raw.len() > MAX_DETAIL_LEN {
        return Err(WireError::InvalidValue { context });
    }
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidValue { context })
}

pub(crate) fn put_telemetry(e: &mut Encoder, telemetry: &TelemetryWire) {
    let text = telemetry.exposition.as_bytes();
    let mut end = text.len().min(MAX_TELEMETRY_TEXT_LEN);
    while end > 0 && !telemetry.exposition.is_char_boundary(end) {
        end -= 1;
    }
    e.put_var_bytes(&text[..end]);
    let spans = &telemetry.spans[..telemetry.spans.len().min(MAX_TELEMETRY_SPANS)];
    e.put_u32(spans.len() as u32);
    for span in spans {
        put_detail(e, &span.component);
        put_detail(e, &span.name);
        e.put_u64(span.correlation);
        e.put_u64(span.start_us);
        e.put_u64(span.duration_us);
    }
}

pub(crate) fn get_telemetry(d: &mut Decoder<'_>) -> Result<TelemetryWire, WireError> {
    let raw = d.get_var_bytes("telemetry exposition")?;
    if raw.len() > MAX_TELEMETRY_TEXT_LEN {
        return Err(WireError::InvalidValue {
            context: "telemetry exposition",
        });
    }
    let exposition = String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidValue {
        context: "telemetry exposition",
    })?;
    let count = d.get_u32("telemetry span count")? as usize;
    // Every span costs at least its three u64 fields on the wire, so the
    // count is bounded by the remaining bytes before any allocation.
    if count > MAX_TELEMETRY_SPANS || count * 24 > d.remaining() {
        return Err(WireError::InvalidValue {
            context: "telemetry span count",
        });
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        spans.push(SpanWire {
            component: get_detail(d, "telemetry span component")?,
            name: get_detail(d, "telemetry span name")?,
            correlation: d.get_u64("telemetry span correlation")?,
            start_us: d.get_u64("telemetry span start")?,
            duration_us: d.get_u64("telemetry span duration")?,
        });
    }
    Ok(TelemetryWire { exposition, spans })
}

fn round_kind_code(kind: RoundKind) -> u8 {
    match kind {
        RoundKind::AddFriend => 0,
        RoundKind::Dialing => 1,
    }
}

fn round_kind_from_code(code: u8) -> Result<RoundKind, WireError> {
    match code {
        0 => Ok(RoundKind::AddFriend),
        1 => Ok(RoundKind::Dialing),
        _ => Err(WireError::InvalidValue {
            context: "round kind",
        }),
    }
}

// ---------------------------------------------------------------------------
// Request encoding
// ---------------------------------------------------------------------------

const REQ_REGISTER: u8 = 1;
const REQ_COMPLETE_REGISTRATION: u8 = 2;
const REQ_DEREGISTER: u8 = 3;
const REQ_GET_PKG_KEYS: u8 = 4;
const REQ_GET_ADD_FRIEND_ROUND: u8 = 5;
const REQ_GET_DIALING_ROUND: u8 = 6;
const REQ_EXTRACT_IDENTITY_KEYS: u8 = 7;
const REQ_ISSUE_RATE_LIMIT_TOKEN: u8 = 8;
const REQ_SUBMIT_ADD_FRIEND: u8 = 9;
const REQ_SUBMIT_DIALING: u8 = 10;
const REQ_FETCH_ADD_FRIEND_MAILBOX: u8 = 11;
const REQ_FETCH_DIALING_MAILBOX: u8 = 12;
const REQ_BEGIN_ADD_FRIEND_ROUND: u8 = 13;
const REQ_CLOSE_ADD_FRIEND_ROUND: u8 = 14;
const REQ_BEGIN_DIALING_ROUND: u8 = 15;
const REQ_CLOSE_DIALING_ROUND: u8 = 16;
// 17: retired (the CDN stats request); decodes as an unknown tag, never reused.
const REQ_GET_TELEMETRY: u8 = 18;
const REQ_BATCH: u8 = 19;

/// Tags of the requests a batch may carry ([`Request::batchable`]).
const BATCHABLE_REQUEST_TAGS: [u8; 3] = [
    REQ_GET_ADD_FRIEND_ROUND,
    REQ_EXTRACT_IDENTITY_KEYS,
    REQ_ISSUE_RATE_LIMIT_TOKEN,
];

/// A batch is a tag, a member count and the members' own encodings back to
/// back (every batchable message is self-delimiting). Reads the count, then
/// each member's tag — checked against `allowed` *before* the member is
/// decoded, so a batch can never hold another batch and hostile input
/// cannot make the decoder recurse — then the member body.
fn decode_batch<T>(
    d: &mut Decoder<'_>,
    allowed: &[u8],
    mut decode_body: impl FnMut(u8, &mut Decoder<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = d.get_u8("batch member count")? as usize;
    if !(1..=MAX_BATCH_MEMBERS).contains(&count) {
        return Err(WireError::InvalidValue {
            context: "batch member count",
        });
    }
    let mut members = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = d.get_u8("batch member tag")?;
        if !allowed.contains(&tag) {
            return Err(WireError::InvalidValue {
                context: "batch member tag",
            });
        }
        members.push(decode_body(tag, d)?);
    }
    Ok(members)
}

impl Request {
    /// A stable, lowercase name for this request kind, suitable as a metric
    /// label value (`coordinator_rpc_total{rpc="submit_add_friend"}`).
    pub fn name(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::CompleteRegistration { .. } => "complete_registration",
            Request::Deregister { .. } => "deregister",
            Request::GetPkgKeys => "get_pkg_keys",
            Request::GetAddFriendRoundInfo => "get_add_friend_round_info",
            Request::GetDialingRoundInfo => "get_dialing_round_info",
            Request::ExtractIdentityKeys { .. } => "extract_identity_keys",
            Request::IssueRateLimitToken { .. } => "issue_rate_limit_token",
            Request::SubmitAddFriend { .. } => "submit_add_friend",
            Request::SubmitDialing { .. } => "submit_dialing",
            Request::FetchAddFriendMailbox { .. } => "fetch_add_friend_mailbox",
            Request::FetchDialingMailbox { .. } => "fetch_dialing_mailbox",
            Request::BeginAddFriendRound { .. } => "begin_add_friend_round",
            Request::CloseAddFriendRound { .. } => "close_add_friend_round",
            Request::BeginDialingRound { .. } => "begin_dialing_round",
            Request::CloseDialingRound { .. } => "close_dialing_round",
            Request::GetTelemetry => "get_telemetry",
            Request::Batch(_) => "batch",
        }
    }

    /// Whether this request may travel inside a [`Request::Batch`]: the
    /// add-friend round info, key extraction and token issuance — the calls
    /// a client makes before it submits, all replay-idempotent.
    pub fn batchable(&self) -> bool {
        matches!(
            self,
            Request::GetAddFriendRoundInfo
                | Request::ExtractIdentityKeys { .. }
                | Request::IssueRateLimitToken { .. }
        )
    }

    /// The `(protocol, round)` a round-scoped request operates on, used to
    /// derive its telemetry correlation id. `None` for requests that are not
    /// tied to a specific round (registration, key fetches, telemetry).
    pub fn round_scope(&self) -> Option<(crate::RoundKind, crate::Round)> {
        use crate::RoundKind;
        match self {
            Request::ExtractIdentityKeys { round, .. }
            | Request::SubmitAddFriend { round, .. }
            | Request::FetchAddFriendMailbox { round, .. }
            | Request::BeginAddFriendRound { round, .. }
            | Request::CloseAddFriendRound { round } => Some((RoundKind::AddFriend, *round)),
            Request::SubmitDialing { round, .. }
            | Request::FetchDialingMailbox { round, .. }
            | Request::BeginDialingRound { round, .. }
            | Request::CloseDialingRound { round } => Some((RoundKind::Dialing, *round)),
            _ => None,
        }
    }

    /// Encodes the request into its wire form (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(128);
        self.encode_into(&mut e);
        e.finish()
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            Request::Register {
                identity,
                signing_key,
            } => {
                e.put_u8(REQ_REGISTER);
                put_identity(e, identity);
                e.put_bytes(signing_key);
            }
            Request::CompleteRegistration { identity } => {
                e.put_u8(REQ_COMPLETE_REGISTRATION);
                put_identity(e, identity);
            }
            Request::Deregister {
                identity,
                signature,
            } => {
                e.put_u8(REQ_DEREGISTER);
                put_identity(e, identity);
                e.put_bytes(signature);
            }
            Request::GetPkgKeys => {
                e.put_u8(REQ_GET_PKG_KEYS);
            }
            Request::GetAddFriendRoundInfo => {
                e.put_u8(REQ_GET_ADD_FRIEND_ROUND);
            }
            Request::GetDialingRoundInfo => {
                e.put_u8(REQ_GET_DIALING_ROUND);
            }
            Request::ExtractIdentityKeys {
                identity,
                round,
                auth,
            } => {
                e.put_u8(REQ_EXTRACT_IDENTITY_KEYS);
                put_identity(e, identity);
                e.put_u64(round.0);
                e.put_bytes(auth);
            }
            Request::IssueRateLimitToken {
                identity,
                blinded,
                auth,
            } => {
                e.put_u8(REQ_ISSUE_RATE_LIMIT_TOKEN);
                put_identity(e, identity);
                e.put_bytes(blinded);
                e.put_bytes(auth);
            }
            Request::SubmitAddFriend {
                round,
                onion,
                token,
            } => {
                e.put_u8(REQ_SUBMIT_ADD_FRIEND);
                e.put_u64(round.0);
                put_token(e, token);
                e.put_var_bytes(onion);
            }
            Request::SubmitDialing {
                round,
                num_mailboxes,
                onion,
                token,
            } => {
                e.put_u8(REQ_SUBMIT_DIALING);
                e.put_u64(round.0);
                e.put_u32(*num_mailboxes);
                put_token(e, token);
                e.put_var_bytes(onion);
            }
            Request::FetchAddFriendMailbox { round, mailbox } => {
                e.put_u8(REQ_FETCH_ADD_FRIEND_MAILBOX);
                e.put_u64(round.0);
                e.put_u32(mailbox.0);
            }
            Request::FetchDialingMailbox { round, mailbox } => {
                e.put_u8(REQ_FETCH_DIALING_MAILBOX);
                e.put_u64(round.0);
                e.put_u32(mailbox.0);
            }
            Request::BeginAddFriendRound {
                round,
                expected_real,
            } => {
                e.put_u8(REQ_BEGIN_ADD_FRIEND_ROUND);
                e.put_u64(round.0);
                e.put_u64(*expected_real);
            }
            Request::CloseAddFriendRound { round } => {
                e.put_u8(REQ_CLOSE_ADD_FRIEND_ROUND);
                e.put_u64(round.0);
            }
            Request::BeginDialingRound {
                round,
                expected_real,
            } => {
                e.put_u8(REQ_BEGIN_DIALING_ROUND);
                e.put_u64(round.0);
                e.put_u64(*expected_real);
            }
            Request::CloseDialingRound { round } => {
                e.put_u8(REQ_CLOSE_DIALING_ROUND);
                e.put_u64(round.0);
            }
            Request::GetTelemetry => {
                e.put_u8(REQ_GET_TELEMETRY);
            }
            Request::Batch(members) => {
                e.put_u8(REQ_BATCH);
                e.put_u8(members.len() as u8);
                for member in members {
                    member.encode_into(e);
                }
            }
        }
    }

    /// Decodes a request from its wire form. Total: returns a typed error on
    /// any malformed input and never panics.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let request = match d.get_u8("request tag")? {
            REQ_BATCH => Request::Batch(decode_batch(
                &mut d,
                &BATCHABLE_REQUEST_TAGS,
                Self::decode_body,
            )?),
            tag => Self::decode_body(tag, &mut d)?,
        };
        d.finish()?;
        Ok(request)
    }

    /// Decodes the fields after `tag`. Never recurses: a batch tag is
    /// unknown here.
    fn decode_body(tag: u8, d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            REQ_REGISTER => Request::Register {
                identity: get_identity(d, "register identity")?,
                signing_key: d.get_array("register signing key")?,
            },
            REQ_COMPLETE_REGISTRATION => Request::CompleteRegistration {
                identity: get_identity(d, "complete-registration identity")?,
            },
            REQ_DEREGISTER => Request::Deregister {
                identity: get_identity(d, "deregister identity")?,
                signature: d.get_array("deregister signature")?,
            },
            REQ_GET_PKG_KEYS => Request::GetPkgKeys,
            REQ_GET_ADD_FRIEND_ROUND => Request::GetAddFriendRoundInfo,
            REQ_GET_DIALING_ROUND => Request::GetDialingRoundInfo,
            REQ_EXTRACT_IDENTITY_KEYS => Request::ExtractIdentityKeys {
                identity: get_identity(d, "extract identity")?,
                round: Round(d.get_u64("extract round")?),
                auth: d.get_array("extract auth")?,
            },
            REQ_ISSUE_RATE_LIMIT_TOKEN => Request::IssueRateLimitToken {
                identity: get_identity(d, "issue identity")?,
                blinded: d.get_array("issue blinded message")?,
                auth: d.get_array("issue auth")?,
            },
            REQ_SUBMIT_ADD_FRIEND => Request::SubmitAddFriend {
                round: Round(d.get_u64("submit round")?),
                token: get_token(d)?,
                onion: d.get_var_bytes("submit onion")?.to_vec(),
            },
            REQ_SUBMIT_DIALING => Request::SubmitDialing {
                round: Round(d.get_u64("submit round")?),
                num_mailboxes: d.get_u32("submit mailbox count")?,
                token: get_token(d)?,
                onion: d.get_var_bytes("submit onion")?.to_vec(),
            },
            REQ_FETCH_ADD_FRIEND_MAILBOX => Request::FetchAddFriendMailbox {
                round: Round(d.get_u64("fetch round")?),
                mailbox: MailboxId(d.get_u32("fetch mailbox")?),
            },
            REQ_FETCH_DIALING_MAILBOX => Request::FetchDialingMailbox {
                round: Round(d.get_u64("fetch round")?),
                mailbox: MailboxId(d.get_u32("fetch mailbox")?),
            },
            REQ_BEGIN_ADD_FRIEND_ROUND => Request::BeginAddFriendRound {
                round: Round(d.get_u64("begin round")?),
                expected_real: d.get_u64("begin expected")?,
            },
            REQ_CLOSE_ADD_FRIEND_ROUND => Request::CloseAddFriendRound {
                round: Round(d.get_u64("close round")?),
            },
            REQ_BEGIN_DIALING_ROUND => Request::BeginDialingRound {
                round: Round(d.get_u64("begin round")?),
                expected_real: d.get_u64("begin expected")?,
            },
            REQ_CLOSE_DIALING_ROUND => Request::CloseDialingRound {
                round: Round(d.get_u64("close round")?),
            },
            REQ_GET_TELEMETRY => Request::GetTelemetry,
            _ => {
                return Err(WireError::InvalidValue {
                    context: "request tag",
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

const RESP_ACK: u8 = 1;
const RESP_PKG_KEYS: u8 = 2;
const RESP_ADD_FRIEND_ROUND: u8 = 3;
const RESP_DIALING_ROUND: u8 = 4;
const RESP_IDENTITY_KEYS: u8 = 5;
const RESP_TOKEN_ISSUED: u8 = 6;
const RESP_ADD_FRIEND_MAILBOX: u8 = 7;
const RESP_DIALING_MAILBOX: u8 = 8;
const RESP_ROUND_CLOSED: u8 = 9;
const RESP_ERROR: u8 = 10;
// 11: retired (the CDN stats reply); decodes as an unknown tag, never reused.
const RESP_TELEMETRY: u8 = 12;
const RESP_BATCH: u8 = 13;

/// Tags of the replies a batch's members can get.
const BATCHABLE_RESPONSE_TAGS: [u8; 4] = [
    RESP_ADD_FRIEND_ROUND,
    RESP_IDENTITY_KEYS,
    RESP_TOKEN_ISSUED,
    RESP_ERROR,
];

const ERR_ROUND_NOT_OPEN: u8 = 1;
const ERR_NO_OPEN_ROUND: u8 = 2;
const ERR_ROUND_ALREADY_OPEN: u8 = 3;
const ERR_WRONG_REQUEST_SIZE: u8 = 4;
const ERR_UNKNOWN_MAILBOX: u8 = 5;
const ERR_COMMITMENT_MISMATCH: u8 = 6;
const ERR_PKG: u8 = 7;
const ERR_RATE_LIMITED: u8 = 8;
const ERR_BAD_REQUEST: u8 = 9;
const ERR_UNAVAILABLE: u8 = 10;
const ERR_STALE_ROUND_INFO: u8 = 11;

impl RpcError {
    fn encode_into(&self, e: &mut Encoder) {
        match self {
            RpcError::RoundNotOpen { requested } => {
                e.put_u8(ERR_ROUND_NOT_OPEN);
                e.put_u64(requested.0);
            }
            RpcError::NoOpenRound { kind } => {
                e.put_u8(ERR_NO_OPEN_ROUND);
                e.put_u8(round_kind_code(*kind));
            }
            RpcError::RoundAlreadyOpen => {
                e.put_u8(ERR_ROUND_ALREADY_OPEN);
            }
            RpcError::WrongRequestSize { expected, actual } => {
                e.put_u8(ERR_WRONG_REQUEST_SIZE);
                e.put_u32(*expected);
                e.put_u32(*actual);
            }
            RpcError::UnknownMailbox => {
                e.put_u8(ERR_UNKNOWN_MAILBOX);
            }
            RpcError::CommitmentMismatch { pkg_index } => {
                e.put_u8(ERR_COMMITMENT_MISMATCH);
                e.put_u32(*pkg_index);
            }
            RpcError::StaleRoundInfo { expected, actual } => {
                e.put_u8(ERR_STALE_ROUND_INFO);
                e.put_u32(*expected);
                e.put_u32(*actual);
            }
            RpcError::Pkg { code, detail } => {
                e.put_u8(ERR_PKG);
                e.put_u8(*code);
                put_detail(e, detail);
            }
            RpcError::RateLimited { reason } => {
                e.put_u8(ERR_RATE_LIMITED);
                e.put_u8(reason.code());
            }
            RpcError::BadRequest { detail } => {
                e.put_u8(ERR_BAD_REQUEST);
                put_detail(e, detail);
            }
            RpcError::Unavailable {
                detail,
                retry_after_ms,
            } => {
                e.put_u8(ERR_UNAVAILABLE);
                put_detail(e, detail);
                e.put_u32(*retry_after_ms);
            }
        }
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = d.get_u8("error tag")?;
        Ok(match tag {
            ERR_ROUND_NOT_OPEN => RpcError::RoundNotOpen {
                requested: Round(d.get_u64("error round")?),
            },
            ERR_NO_OPEN_ROUND => RpcError::NoOpenRound {
                kind: round_kind_from_code(d.get_u8("error round kind")?)?,
            },
            ERR_ROUND_ALREADY_OPEN => RpcError::RoundAlreadyOpen,
            ERR_WRONG_REQUEST_SIZE => RpcError::WrongRequestSize {
                expected: d.get_u32("error expected size")?,
                actual: d.get_u32("error actual size")?,
            },
            ERR_UNKNOWN_MAILBOX => RpcError::UnknownMailbox,
            ERR_COMMITMENT_MISMATCH => RpcError::CommitmentMismatch {
                pkg_index: d.get_u32("error pkg index")?,
            },
            ERR_STALE_ROUND_INFO => RpcError::StaleRoundInfo {
                expected: d.get_u32("error expected mailboxes")?,
                actual: d.get_u32("error actual mailboxes")?,
            },
            ERR_PKG => RpcError::Pkg {
                code: d.get_u8("error pkg code")?,
                detail: get_detail(d, "error pkg detail")?,
            },
            ERR_RATE_LIMITED => RpcError::RateLimited {
                reason: RateLimitReason::from_code(d.get_u8("error rate limit reason")?)?,
            },
            ERR_BAD_REQUEST => RpcError::BadRequest {
                detail: get_detail(d, "error detail")?,
            },
            ERR_UNAVAILABLE => RpcError::Unavailable {
                detail: get_detail(d, "error detail")?,
                retry_after_ms: d.get_u32("error retry-after hint")?,
            },
            _ => {
                return Err(WireError::InvalidValue {
                    context: "error tag",
                })
            }
        })
    }
}

fn put_round_common(
    e: &mut Encoder,
    round: Round,
    num_mailboxes: u32,
    onion_len: u32,
    rate_limited: bool,
) {
    e.put_u64(round.0);
    e.put_u32(num_mailboxes);
    e.put_u32(onion_len);
    e.put_u8(rate_limited as u8);
}

pub(crate) fn get_bool(d: &mut Decoder<'_>, context: &'static str) -> Result<bool, WireError> {
    match d.get_u8(context)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::InvalidValue { context }),
    }
}

/// Writes a dialing round's parameters: the body of
/// [`Response::DialingRoundInfo`] and of a dialing blob's announcement.
pub(crate) fn put_dialing_round(e: &mut Encoder, info: &DialingRoundWire) {
    put_round_common(
        e,
        info.round,
        info.num_mailboxes,
        info.onion_len,
        info.rate_limited,
    );
    put_point_list(e, &info.onion_keys);
}

/// Reads what [`put_dialing_round`] wrote.
pub(crate) fn get_dialing_round(d: &mut Decoder<'_>) -> Result<DialingRoundWire, WireError> {
    let round = Round(d.get_u64("round")?);
    let num_mailboxes = d.get_u32("num mailboxes")?;
    let onion_len = d.get_u32("onion len")?;
    let rate_limited = get_bool(d, "rate limited flag")?;
    let onion_keys = get_point_list(d, MAX_CHAIN_KEYS, "onion keys")?;
    Ok(DialingRoundWire {
        round,
        onion_keys,
        num_mailboxes,
        onion_len,
        rate_limited,
    })
}

impl Response {
    /// Encodes the response into its wire form (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(128);
        self.encode_into(&mut e);
        e.finish()
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            Response::Ack => {
                e.put_u8(RESP_ACK);
            }
            Response::PkgKeys(keys) => {
                e.put_u8(RESP_PKG_KEYS);
                put_point_list(e, keys);
            }
            Response::AddFriendRoundInfo(info) => {
                e.put_u8(RESP_ADD_FRIEND_ROUND);
                put_round_common(
                    e,
                    info.round,
                    info.num_mailboxes,
                    info.onion_len,
                    info.rate_limited,
                );
                put_point_list(e, &info.onion_keys);
                put_point_list(e, &info.pkg_publics);
            }
            Response::DialingRoundInfo(info) => {
                e.put_u8(RESP_DIALING_ROUND);
                put_dialing_round(e, info);
            }
            Response::IdentityKeys(shares) => {
                e.put_u8(RESP_IDENTITY_KEYS);
                e.put_u16(shares.len() as u16);
                for share in shares {
                    e.put_bytes(&share.identity_key);
                    e.put_bytes(&share.attestation);
                }
            }
            Response::TokenIssued { blind_signature } => {
                e.put_u8(RESP_TOKEN_ISSUED);
                e.put_bytes(blind_signature);
            }
            Response::AddFriendMailbox { contents } => {
                e.put_u8(RESP_ADD_FRIEND_MAILBOX);
                e.put_u32(contents.len() as u32);
                for ciphertext in contents {
                    debug_assert_eq!(ciphertext.len(), AddFriendEnvelope::CIPHERTEXT_LEN);
                    e.put_bytes(ciphertext);
                }
            }
            Response::DialingMailbox { filter, next_round } => {
                e.put_u8(RESP_DIALING_MAILBOX);
                crate::cdn::put_dialing_blob(e, filter, next_round.as_ref());
            }
            Response::RoundClosed(stats) => {
                e.put_u8(RESP_ROUND_CLOSED);
                e.put_u64(stats.client_messages);
                e.put_u64(stats.total_noise);
                e.put_u64(stats.final_messages);
            }
            Response::Telemetry(telemetry) => {
                e.put_u8(RESP_TELEMETRY);
                put_telemetry(e, telemetry);
            }
            Response::Error(err) => {
                e.put_u8(RESP_ERROR);
                err.encode_into(e);
            }
            Response::Batch(members) => {
                e.put_u8(RESP_BATCH);
                e.put_u8(members.len() as u8);
                for member in members {
                    member.encode_into(e);
                }
            }
        }
    }

    /// Decodes a response from its wire form. Total: returns a typed error on
    /// any malformed input and never panics.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let response = match d.get_u8("response tag")? {
            RESP_BATCH => Response::Batch(decode_batch(
                &mut d,
                &BATCHABLE_RESPONSE_TAGS,
                Self::decode_body,
            )?),
            tag => Self::decode_body(tag, &mut d)?,
        };
        d.finish()?;
        Ok(response)
    }

    /// Decodes the fields after `tag`. Never recurses: a batch tag is
    /// unknown here.
    fn decode_body(tag: u8, d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            RESP_ACK => Response::Ack,
            RESP_PKG_KEYS => Response::PkgKeys(get_point_list(d, MAX_PKG_KEYS, "pkg keys")?),
            RESP_ADD_FRIEND_ROUND => {
                let round = Round(d.get_u64("round")?);
                let num_mailboxes = d.get_u32("num mailboxes")?;
                let onion_len = d.get_u32("onion len")?;
                let rate_limited = get_bool(d, "rate limited flag")?;
                let onion_keys = get_point_list(d, MAX_CHAIN_KEYS, "onion keys")?;
                let pkg_publics = get_point_list(d, MAX_PKG_KEYS, "pkg publics")?;
                Response::AddFriendRoundInfo(AddFriendRoundWire {
                    round,
                    onion_keys,
                    pkg_publics,
                    num_mailboxes,
                    onion_len,
                    rate_limited,
                })
            }
            RESP_DIALING_ROUND => Response::DialingRoundInfo(get_dialing_round(d)?),
            RESP_IDENTITY_KEYS => {
                let count = d.get_u16("identity key count")? as usize;
                if count > MAX_PKG_KEYS || count * (G2_LEN + SIGNATURE_LEN) > d.remaining() {
                    return Err(WireError::InvalidValue {
                        context: "identity key count",
                    });
                }
                let mut shares = Vec::with_capacity(count);
                for _ in 0..count {
                    shares.push(IdentityKeyShareWire {
                        identity_key: d.get_array("identity key")?,
                        attestation: d.get_array("attestation")?,
                    });
                }
                Response::IdentityKeys(shares)
            }
            RESP_TOKEN_ISSUED => Response::TokenIssued {
                blind_signature: d.get_array("blind signature")?,
            },
            RESP_ADD_FRIEND_MAILBOX => {
                let count = d.get_u32("mailbox entry count")? as usize;
                if count * AddFriendEnvelope::CIPHERTEXT_LEN != d.remaining() {
                    return Err(WireError::InvalidValue {
                        context: "mailbox entry count",
                    });
                }
                let mut contents = Vec::with_capacity(count);
                for _ in 0..count {
                    contents.push(
                        d.get_bytes(AddFriendEnvelope::CIPHERTEXT_LEN, "mailbox ciphertext")?
                            .to_vec(),
                    );
                }
                Response::AddFriendMailbox { contents }
            }
            RESP_DIALING_MAILBOX => {
                let (filter, next_round) = crate::cdn::get_dialing_blob(d)?;
                Response::DialingMailbox {
                    filter: filter.to_vec(),
                    next_round,
                }
            }
            RESP_ROUND_CLOSED => Response::RoundClosed(RoundStatsWire {
                client_messages: d.get_u64("client messages")?,
                total_noise: d.get_u64("total noise")?,
                final_messages: d.get_u64("final messages")?,
            }),
            RESP_ERROR => Response::Error(RpcError::decode_from(d)?),
            RESP_TELEMETRY => Response::Telemetry(get_telemetry(d)?),
            _ => {
                return Err(WireError::InvalidValue {
                    context: "response tag",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(s: &str) -> Identity {
        Identity::new(s).unwrap()
    }

    #[test]
    fn request_round_trips() {
        let requests = vec![
            Request::Register {
                identity: identity("alice@example.com"),
                signing_key: [1u8; SIGNING_PK_LEN],
            },
            Request::CompleteRegistration {
                identity: identity("alice@example.com"),
            },
            Request::Deregister {
                identity: identity("bob@x.org"),
                signature: [2u8; SIGNATURE_LEN],
            },
            Request::GetPkgKeys,
            Request::GetAddFriendRoundInfo,
            Request::GetDialingRoundInfo,
            Request::ExtractIdentityKeys {
                identity: identity("alice@example.com"),
                round: Round(7),
                auth: [3u8; SIGNATURE_LEN],
            },
            Request::IssueRateLimitToken {
                identity: identity("alice@example.com"),
                blinded: [4u8; G1_LEN],
                auth: [5u8; SIGNATURE_LEN],
            },
            Request::SubmitAddFriend {
                round: Round(9),
                onion: vec![6u8; 100],
                token: None,
            },
            Request::SubmitDialing {
                round: Round(9),
                num_mailboxes: 12,
                onion: vec![7u8; 50],
                token: Some(RateLimitToken {
                    serial: [8u8; RATE_LIMIT_SERIAL_LEN],
                    signature: [9u8; SIGNATURE_LEN],
                }),
            },
            Request::FetchAddFriendMailbox {
                round: Round(3),
                mailbox: MailboxId(5),
            },
            Request::FetchDialingMailbox {
                round: Round(3),
                mailbox: MailboxId::COVER,
            },
            Request::BeginAddFriendRound {
                round: Round(1),
                expected_real: 100,
            },
            Request::CloseAddFriendRound { round: Round(1) },
            Request::BeginDialingRound {
                round: Round(2),
                expected_real: 500,
            },
            Request::CloseDialingRound { round: Round(2) },
        ];
        for request in requests {
            let encoded = request.encode();
            assert_eq!(Request::decode(&encoded).unwrap(), request, "{request:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let responses = vec![
            Response::Ack,
            Response::PkgKeys(vec![[1u8; SIGNING_PK_LEN]; 3]),
            Response::AddFriendRoundInfo(AddFriendRoundWire {
                round: Round(4),
                onion_keys: vec![[2u8; G1_LEN]; 3],
                pkg_publics: vec![[3u8; G1_LEN]; 3],
                num_mailboxes: 16,
                onion_len: 500,
                rate_limited: true,
            }),
            Response::DialingRoundInfo(DialingRoundWire {
                round: Round(4),
                onion_keys: vec![[2u8; G1_LEN]; 3],
                num_mailboxes: 16,
                onion_len: 228,
                rate_limited: false,
            }),
            Response::IdentityKeys(vec![
                IdentityKeyShareWire {
                    identity_key: [4u8; G2_LEN],
                    attestation: [5u8; SIGNATURE_LEN],
                };
                3
            ]),
            Response::TokenIssued {
                blind_signature: [6u8; G1_LEN],
            },
            Response::AddFriendMailbox {
                contents: vec![vec![7u8; AddFriendEnvelope::CIPHERTEXT_LEN]; 4],
            },
            Response::DialingMailbox {
                filter: vec![8u8; 64],
                next_round: None,
            },
            Response::DialingMailbox {
                filter: vec![8u8; 64],
                next_round: Some(DialingRoundWire {
                    round: Round(5),
                    onion_keys: vec![[2u8; G1_LEN]; 3],
                    num_mailboxes: 16,
                    onion_len: 228,
                    rate_limited: true,
                }),
            },
            Response::RoundClosed(RoundStatsWire {
                client_messages: 10,
                total_noise: 300,
                final_messages: 310,
            }),
            Response::Error(RpcError::RoundNotOpen {
                requested: Round(9),
            }),
            Response::Error(RpcError::NoOpenRound {
                kind: RoundKind::Dialing,
            }),
            Response::Error(RpcError::RoundAlreadyOpen),
            Response::Error(RpcError::WrongRequestSize {
                expected: 500,
                actual: 499,
            }),
            Response::Error(RpcError::UnknownMailbox),
            Response::Error(RpcError::CommitmentMismatch { pkg_index: 2 }),
            Response::Error(RpcError::StaleRoundInfo {
                expected: 2,
                actual: 1,
            }),
            Response::Error(RpcError::Pkg {
                code: 3,
                detail: "identity not registered".into(),
            }),
            Response::Error(RpcError::RateLimited {
                reason: RateLimitReason::DoubleSpend,
            }),
            Response::Error(RpcError::BadRequest {
                detail: "malformed point".into(),
            }),
        ];
        for response in responses {
            let encoded = response.encode();
            assert_eq!(
                Response::decode(&encoded).unwrap(),
                response,
                "{response:?}"
            );
        }
    }

    #[test]
    fn detail_strings_are_truncated_on_char_boundaries() {
        let long = "é".repeat(MAX_DETAIL_LEN); // 2 bytes per char
        let response = Response::Error(RpcError::BadRequest { detail: long });
        let decoded = Response::decode(&response.encode()).unwrap();
        let Response::Error(RpcError::BadRequest { detail }) = decoded else {
            panic!("wrong variant");
        };
        assert!(detail.len() <= MAX_DETAIL_LEN);
        assert!(detail.chars().all(|c| c == 'é'));
    }

    #[test]
    fn oversized_point_counts_rejected_without_allocation() {
        // A response claiming 65535 onion keys but carrying none must fail
        // cleanly (count bound + remaining-bytes check).
        let mut e = Encoder::new();
        e.put_u8(RESP_PKG_KEYS);
        e.put_u16(u16::MAX);
        assert!(Response::decode(&e.finish()).is_err());
    }

    #[test]
    fn mailbox_count_must_match_remaining_bytes() {
        let mut e = Encoder::new();
        e.put_u8(RESP_ADD_FRIEND_MAILBOX);
        e.put_u32(1_000_000);
        e.put_bytes(&[0u8; 64]);
        assert!(Response::decode(&e.finish()).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        // 0xff was never assigned; the others are retired tags (the CDN
        // stats messages), reserved so that no later message reuses them.
        let invalid = |context| Some(WireError::InvalidValue { context });
        for tag in [0xff, 17] {
            assert_eq!(Request::decode(&[tag]).err(), invalid("request tag"));
        }
        for tag in [0xff, 11] {
            assert_eq!(Response::decode(&[tag]).err(), invalid("response tag"));
        }
        let cdn_request = crate::CdnRequest::decode(&[4]);
        assert_eq!(cdn_request.err(), invalid("cdn request tag"));
        let cdn_response = crate::CdnResponse::decode(&[4]);
        assert_eq!(cdn_response.err(), invalid("cdn response tag"));
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = Request::GetPkgKeys.encode();
        encoded.push(0);
        assert!(matches!(
            Request::decode(&encoded),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn malformed_batches_rejected() {
        let count = Some(WireError::InvalidValue {
            context: "batch member count",
        });
        let member = Some(WireError::InvalidValue {
            context: "batch member tag",
        });
        let info = || Request::GetAddFriendRoundInfo;
        let extract = Request::ExtractIdentityKeys {
            identity: identity("alice@example.com"),
            round: Round(2),
            auth: [3u8; SIGNATURE_LEN],
        };
        let batch = Request::Batch(vec![info(), extract]);
        assert_eq!(Request::decode(&batch.encode()), Ok(batch.clone()));

        let decode = |request: Request| Request::decode(&request.encode()).err();
        assert_eq!(decode(Request::Batch(vec![])), count);
        assert_eq!(decode(Request::Batch(vec![info(); 4])), count);
        assert_eq!(decode(Request::Batch(vec![batch])), member);
        for disallowed in [
            Request::SubmitAddFriend {
                round: Round(2),
                onion: vec![1u8; 40],
                token: None,
            },
            Request::BeginAddFriendRound {
                round: Round(2),
                expected_real: 1,
            },
            Request::Register {
                identity: identity("alice@example.com"),
                signing_key: [1u8; SIGNING_PK_LEN],
            },
        ] {
            assert!(!disallowed.batchable());
            assert_eq!(decode(Request::Batch(vec![info(), disallowed])), member);
        }

        let decode = |response: Response| Response::decode(&response.encode()).err();
        assert_eq!(decode(Response::Batch(vec![])), count);
        assert_eq!(decode(Response::Batch(vec![Response::Ack; 4])), count);
        assert_eq!(decode(Response::Batch(vec![Response::Ack])), member);
        assert_eq!(
            decode(Response::Batch(vec![Response::Batch(vec![Response::Ack])])),
            member
        );

        // 1 MiB of nested batch headers (tag, count 1, tag, count 1, ...):
        // rejected at the first member tag, so a decoder that recursed per
        // header — and overflowed the stack — fails here.
        let request_bomb = [REQ_BATCH, 1].repeat(1 << 19);
        assert_eq!(Request::decode(&request_bomb).err(), member);
        let response_bomb = [RESP_BATCH, 1].repeat(1 << 19);
        assert_eq!(Response::decode(&response_bomb).err(), member);
    }
}
