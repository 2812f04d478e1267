//! Property tests for the RPC codec and the frame layer.
//!
//! Round-trips cover every `Request` and `Response` variant (batches of one
//! to three members included), every `MixerRequest` and `CdnRequest`
//! variant the `mixd`/`cdnd` daemons decode, and the dialing mailbox blob,
//! with generated payloads, and every strict prefix of each encoding is
//! rejected; the adversarial suite feeds truncated frames and messages, bad
//! version bytes, corrupted checksums, oversized length prefixes, arbitrary
//! byte soup and single bit flips to the decoders, which must fail cleanly
//! (typed errors) and never panic. Below the frame, a flipped bit either
//! fails to decode or decodes to a different message that encodes back to
//! exactly the flipped bytes: no decoder accepts a non-canonical encoding.

use proptest::prelude::*;

use alpenhorn_wire::cdn::{decode_dialing_blob, encode_dialing_blob};
use alpenhorn_wire::rpc::{
    AddFriendRoundWire, DialingRoundWire, IdentityKeyShareWire, RoundStatsWire,
    RATE_LIMIT_SERIAL_LEN,
};
use alpenhorn_wire::{
    AddFriendEnvelope, CdnRequest, CdnResponse, CdnStatsWire, Frame, Identity, MailboxId,
    MixerRequest, MixerResponse, RateLimitReason, RateLimitToken, Request, Response, Round,
    RoundKind, RpcError, ShardHeader, WireError, G1_LEN, G2_LEN, SIGNATURE_LEN, SIGNING_PK_LEN,
};

fn arb_identity() -> impl Strategy<Value = Identity> {
    ("[a-z0-9]{1,12}", "[a-z0-9]{1,10}", "[a-z]{2,5}")
        .prop_map(|(local, domain, tld)| Identity::new(&format!("{local}@{domain}.{tld}")).unwrap())
}

/// Builds one of every `Request` variant from a handful of generated values,
/// so each proptest case exercises the complete request surface, plus a batch
/// of one, two and three of the batchable ones.
fn all_requests(
    identity: Identity,
    round: u64,
    fill: u8,
    onion_len: usize,
    with_token: bool,
) -> Vec<Request> {
    let token = with_token.then_some(RateLimitToken {
        serial: [fill; RATE_LIMIT_SERIAL_LEN],
        signature: [fill.wrapping_add(1); SIGNATURE_LEN],
    });
    let mut requests = vec![
        Request::Register {
            identity: identity.clone(),
            signing_key: [fill; SIGNING_PK_LEN],
        },
        Request::CompleteRegistration {
            identity: identity.clone(),
        },
        Request::Deregister {
            identity: identity.clone(),
            signature: [fill; SIGNATURE_LEN],
        },
        Request::GetPkgKeys,
        Request::GetAddFriendRoundInfo,
        Request::GetDialingRoundInfo,
        Request::ExtractIdentityKeys {
            identity: identity.clone(),
            round: Round(round),
            auth: [fill; SIGNATURE_LEN],
        },
        Request::IssueRateLimitToken {
            identity,
            blinded: [fill; G1_LEN],
            auth: [fill.wrapping_add(2); SIGNATURE_LEN],
        },
        Request::SubmitAddFriend {
            round: Round(round),
            onion: vec![fill; onion_len],
            token,
        },
        Request::SubmitDialing {
            round: Round(round),
            num_mailboxes: u32::from(fill) + 1,
            onion: vec![fill.wrapping_add(3); onion_len],
            token,
        },
        Request::FetchAddFriendMailbox {
            round: Round(round),
            mailbox: MailboxId(fill as u32),
        },
        Request::FetchDialingMailbox {
            round: Round(round),
            mailbox: MailboxId::COVER,
        },
        Request::BeginAddFriendRound {
            round: Round(round),
            expected_real: round ^ 0x55,
        },
        Request::CloseAddFriendRound {
            round: Round(round),
        },
        Request::BeginDialingRound {
            round: Round(round),
            expected_real: round.wrapping_mul(3),
        },
        Request::CloseDialingRound {
            round: Round(round),
        },
        Request::GetCdnStats,
    ];
    let batchable: Vec<Request> = requests.iter().filter(|r| r.batchable()).cloned().collect();
    for members in 1..=batchable.len() {
        requests.push(Request::Batch(batchable[..members].to_vec()));
    }
    requests
}

/// Builds one of every `Response` variant (including every error variant),
/// plus batches of one, two and three member replies and one that stops at
/// an error.
fn all_responses(round: u64, fill: u8, counts: (usize, usize), detail: String) -> Vec<Response> {
    let (num_keys, num_entries) = counts;
    let mut responses = vec![
        Response::Ack,
        Response::PkgKeys(vec![[fill; SIGNING_PK_LEN]; num_keys]),
        Response::AddFriendRoundInfo(AddFriendRoundWire {
            round: Round(round),
            onion_keys: vec![[fill; G1_LEN]; num_keys],
            pkg_publics: vec![[fill.wrapping_add(1); G1_LEN]; num_keys],
            num_mailboxes: fill as u32 + 1,
            onion_len: 500,
            rate_limited: fill.is_multiple_of(2),
        }),
        Response::DialingRoundInfo(dialing_round(round, fill, num_keys)),
        Response::IdentityKeys(vec![
            IdentityKeyShareWire {
                identity_key: [fill; G2_LEN],
                attestation: [fill.wrapping_add(2); SIGNATURE_LEN],
            };
            num_keys
        ]),
        Response::TokenIssued {
            blind_signature: [fill; G1_LEN],
        },
        Response::AddFriendMailbox {
            contents: vec![vec![fill; AddFriendEnvelope::CIPHERTEXT_LEN]; num_entries],
        },
        Response::DialingMailbox {
            filter: vec![fill; num_entries * 8 + 20],
            next_round: None,
        },
        Response::DialingMailbox {
            filter: vec![fill; num_entries * 8 + 20],
            next_round: Some(dialing_round(round, fill, num_keys)),
        },
        Response::RoundClosed(RoundStatsWire {
            client_messages: round,
            total_noise: round.wrapping_mul(7),
            final_messages: round.wrapping_add(99),
        }),
        Response::CdnStats(CdnStatsWire {
            bytes_served: round,
            downloads: round.wrapping_mul(3),
            parity_bytes_served: round.wrapping_mul(5),
            shard_fetches: round.wrapping_add(1),
        }),
    ];
    let errors = vec![
        RpcError::RoundNotOpen {
            requested: Round(round),
        },
        RpcError::NoOpenRound {
            kind: if fill.is_multiple_of(2) {
                RoundKind::AddFriend
            } else {
                RoundKind::Dialing
            },
        },
        RpcError::RoundAlreadyOpen,
        RpcError::WrongRequestSize {
            expected: fill as u32 + 1,
            actual: fill as u32,
        },
        RpcError::UnknownMailbox,
        RpcError::CommitmentMismatch {
            pkg_index: fill as u32,
        },
        RpcError::StaleRoundInfo {
            expected: u32::from(fill) + 1,
            actual: u32::from(fill),
        },
        RpcError::Pkg {
            code: fill,
            detail: detail.clone(),
        },
        RpcError::RateLimited {
            reason: match fill % 5 {
                0 => RateLimitReason::MissingToken,
                1 => RateLimitReason::InvalidToken,
                2 => RateLimitReason::DoubleSpend,
                3 => RateLimitReason::BudgetExhausted,
                _ => RateLimitReason::NotEnabled,
            },
        },
        RpcError::BadRequest {
            detail: detail.clone(),
        },
        RpcError::Unavailable {
            detail,
            retry_after_ms: fill as u32 * 100,
        },
    ];
    let batched: Vec<Response> = responses
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::AddFriendRoundInfo(_)
                    | Response::IdentityKeys(_)
                    | Response::TokenIssued { .. }
            )
        })
        .cloned()
        .collect();
    for members in 1..=batched.len() {
        responses.push(Response::Batch(batched[..members].to_vec()));
    }
    responses.push(Response::Batch(vec![
        batched[0].clone(),
        Response::Error(errors[errors.len() - 1].clone()),
    ]));
    responses.extend(errors.into_iter().map(Response::Error));
    responses
}

fn dialing_round(round: u64, fill: u8, num_keys: usize) -> DialingRoundWire {
    DialingRoundWire {
        round: Round(round),
        onion_keys: vec![[fill; G1_LEN]; num_keys],
        num_mailboxes: fill as u32 + 1,
        onion_len: 228,
        rate_limited: !fill.is_multiple_of(2),
    }
}

/// The bit-flip property below the frame: `encoded` with bit `bit`
/// flipped either fails to decode, or decodes to a message other than
/// `original` whose encoding is exactly the flipped bytes.
fn flipped_is_rejected_or_canonical<T: PartialEq + std::fmt::Debug>(
    original: &T,
    encoded: &[u8],
    bit: usize,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    let bit = bit % (encoded.len() * 8);
    let mut flipped = encoded.to_vec();
    flipped[bit / 8] ^= 1 << (bit % 8);
    if let Ok(decoded) = decode(&flipped) {
        prop_assert!(&decoded != original, "bit {bit} flip went unnoticed");
        prop_assert!(
            encode(&decoded) == flipped,
            "non-canonical decode after bit {bit}: {decoded:?}"
        );
    }
    Ok(())
}

/// One of every `MixerResponse` variant (the `mixd` → coordinator surface).
fn all_mixer_responses(fill: u8, onions: usize, detail: String) -> Vec<MixerResponse> {
    vec![
        MixerResponse::RoundKey([fill; G1_LEN]),
        MixerResponse::Processed {
            batch: vec![vec![fill; 40]; onions],
            noise_added: u64::from(fill) * 3,
            dropped: u64::from(fill),
        },
        MixerResponse::Ack,
        MixerResponse::Error(detail),
    ]
}

/// One of every `CdnResponse` variant (the `cdnd` → coordinator/client
/// surface) but telemetry.
fn all_cdn_responses(round: u64, fill: u8, shard_len: usize, detail: String) -> Vec<CdnResponse> {
    vec![
        CdnResponse::Ack,
        CdnResponse::Shard {
            header: ShardHeader {
                data_shards: 3,
                parity_shards: 1,
                blob_len: round,
            },
            shard: vec![fill; shard_len],
        },
        CdnResponse::NotFound,
        CdnResponse::Stats {
            shards_stored: round,
            bytes_stored: round.wrapping_mul(3),
            shard_fetches: u64::from(fill),
            bytes_served: round.wrapping_add(7),
        },
        CdnResponse::Error(detail),
    ]
}

fn round_kind(fill: u8) -> RoundKind {
    if fill.is_multiple_of(2) {
        RoundKind::AddFriend
    } else {
        RoundKind::Dialing
    }
}

/// One of every `MixerRequest` variant (the coordinator → `mixd` surface).
fn all_mixer_requests(
    round: u64,
    fill: u8,
    keys: usize,
    batch: (usize, usize),
) -> Vec<MixerRequest> {
    let (protocol, round) = (round_kind(fill), Round(round));
    let (onions, onion_len) = batch;
    vec![
        MixerRequest::BeginRound { protocol, round },
        MixerRequest::Process {
            protocol,
            round,
            num_mailboxes: fill as u32 + 1,
            noise_mu: f64::from(fill).to_bits(),
            noise_b: (f64::from(fill) / 7.0).to_bits(),
            downstream: vec![[fill; G1_LEN]; keys],
            batch: vec![vec![fill.wrapping_add(1); onion_len]; onions],
        },
        MixerRequest::EndRound { protocol, round },
        MixerRequest::GetTelemetry,
    ]
}

/// One of every `CdnRequest` variant (the coordinator/client → `cdnd`
/// surface).
fn all_cdn_requests(round: u64, fill: u8, shard_len: usize) -> Vec<CdnRequest> {
    let (kind, round, mailbox) = (round_kind(fill), Round(round), MailboxId(fill as u32));
    let index = u16::from(fill % 4);
    vec![
        CdnRequest::PutShard {
            kind,
            round,
            mailbox,
            index,
            header: ShardHeader {
                data_shards: 3,
                parity_shards: 1,
                blob_len: round.0,
            },
            shard: vec![fill; shard_len],
        },
        CdnRequest::GetShard {
            kind,
            round,
            mailbox,
            index,
        },
        CdnRequest::Expire { keep_from: round },
        CdnRequest::GetStats,
        CdnRequest::GetTelemetry,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_variant_round_trips(
        identity in arb_identity(),
        round in 0u64..u64::MAX,
        fill in any::<u8>(),
        onion_len in 0usize..600,
        with_token in any::<bool>(),
    ) {
        for request in all_requests(identity, round, fill, onion_len, with_token) {
            let encoded = request.encode();
            for cut in 0..encoded.len() {
                prop_assert!(Request::decode(&encoded[..cut]).is_err(), "{request:?} cut at {cut}");
            }
            prop_assert_eq!(Request::decode(&encoded).unwrap(), request);
        }
    }

    #[test]
    fn every_response_variant_round_trips(
        round in 0u64..u64::MAX,
        fill in any::<u8>(),
        num_keys in 0usize..8,
        num_entries in 0usize..6,
        detail in "[ -~]{0,40}",
    ) {
        for response in all_responses(round, fill, (num_keys, num_entries), detail.clone()) {
            let encoded = response.encode();
            for cut in 0..encoded.len() {
                prop_assert!(Response::decode(&encoded[..cut]).is_err(), "{response:?} cut at {cut}");
            }
            prop_assert_eq!(Response::decode(&encoded).unwrap(), response);
        }
    }

    #[test]
    fn request_and_response_survive_framing(
        identity in arb_identity(),
        round in 0u64..1_000_000,
        fill in any::<u8>(),
    ) {
        for request in all_requests(identity, round, fill, 64, true) {
            let framed = Frame::encode(&request.encode());
            let payload = Frame::decode(&framed).unwrap();
            prop_assert_eq!(Request::decode(payload).unwrap(), request);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any result is fine; what matters is that nothing panics and errors
        // are typed.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = Frame::decode(&bytes);
        let _ = MixerRequest::decode(&bytes);
        let _ = MixerResponse::decode(&bytes);
        let _ = CdnRequest::decode(&bytes);
        let _ = CdnResponse::decode(&bytes);
        let _ = decode_dialing_blob(&bytes);
        // The same bytes behind a batch header (tag + member count), so the
        // member loop sees them too.
        let request_batch = Request::Batch(vec![Request::GetAddFriendRoundInfo]).encode();
        let _ = Request::decode(&[&request_batch[..2], &bytes].concat());
        let response_batch = Response::Batch(vec![Response::Ack]).encode();
        let _ = Response::decode(&[&response_batch[..2], &bytes].concat());
    }

    #[test]
    fn every_mixer_request_variant_round_trips_and_rejects_every_strict_prefix(
        round in any::<u64>(),
        fill in any::<u8>(),
        keys in 0usize..4,
        onions in 0usize..4,
        onion_len in 0usize..48,
    ) {
        for request in all_mixer_requests(round, fill, keys, (onions, onion_len)) {
            let encoded = request.encode();
            for cut in 0..encoded.len() {
                prop_assert!(MixerRequest::decode(&encoded[..cut]).is_err(), "{request:?} cut at {cut}");
            }
            prop_assert_eq!(MixerRequest::decode(&encoded).unwrap(), request);
        }
    }

    #[test]
    fn every_cdn_request_variant_round_trips_and_rejects_every_strict_prefix(
        round in any::<u64>(),
        fill in any::<u8>(),
        shard_len in 0usize..64,
    ) {
        for request in all_cdn_requests(round, fill, shard_len) {
            let encoded = request.encode();
            for cut in 0..encoded.len() {
                prop_assert!(CdnRequest::decode(&encoded[..cut]).is_err(), "{request:?} cut at {cut}");
            }
            prop_assert_eq!(CdnRequest::decode(&encoded).unwrap(), request);
        }
    }

    #[test]
    fn dialing_blob_round_trips_and_rejects_every_strict_prefix(
        round in any::<u64>(),
        fill in any::<u8>(),
        filter_len in 0usize..96,
        num_keys in 0usize..5,
        announced in any::<bool>(),
    ) {
        let filter = vec![fill; filter_len];
        let next_round = announced.then(|| dialing_round(round, fill, num_keys));
        let blob = encode_dialing_blob(&filter, next_round.as_ref());
        for cut in 0..blob.len() {
            prop_assert!(decode_dialing_blob(&blob[..cut]).is_err(), "cut at {}", cut);
        }
        let (decoded, decoded_next) = decode_dialing_blob(&blob).unwrap();
        prop_assert_eq!(decoded, &filter[..]);
        prop_assert_eq!(&decoded_next, &next_round);
        // The origin's reply is the tag followed by the very same bytes.
        let reply = Response::DialingMailbox { filter, next_round };
        prop_assert_eq!(&reply.encode()[1..], &blob[..]);
    }

    #[test]
    fn bit_flips_in_dialing_encodings_are_rejected_or_canonical(
        round in any::<u64>(),
        fill in any::<u8>(),
        filter_len in 0usize..64,
        num_keys in 0usize..4,
        bit in any::<usize>(),
    ) {
        let filter = vec![fill; filter_len];
        for next_round in [None, Some(dialing_round(round, fill, num_keys))] {
            let parts = (filter.clone(), next_round.clone());
            let blob = encode_dialing_blob(&filter, next_round.as_ref());
            flipped_is_rejected_or_canonical(
                &parts,
                &blob,
                bit,
                |bytes| decode_dialing_blob(bytes).map(|(f, n)| (f.to_vec(), n)),
                |(f, n)| encode_dialing_blob(f, n.as_ref()),
            )?;
            let reply = Response::DialingMailbox { filter: filter.clone(), next_round };
            flipped_is_rejected_or_canonical(&reply, &reply.encode(), bit, Response::decode, Response::encode)?;
        }
        for token in [None, Some(RateLimitToken {
            serial: [fill; RATE_LIMIT_SERIAL_LEN],
            signature: [fill.wrapping_add(1); SIGNATURE_LEN],
        })] {
            let submit = Request::SubmitDialing {
                round: Round(round),
                num_mailboxes: u32::from(fill),
                onion: vec![fill; filter_len],
                token,
            };
            flipped_is_rejected_or_canonical(&submit, &submit.encode(), bit, Request::decode, Request::encode)?;
        }
    }

    #[test]
    fn bit_flips_in_client_messages_are_rejected_or_canonical(
        identity in arb_identity(),
        round in any::<u64>(),
        fill in any::<u8>(),
        onion_len in 0usize..48,
        with_token in any::<bool>(),
        num_keys in 0usize..4,
        num_entries in 0usize..3,
        detail in "[ -~]{0,24}",
        bit in any::<usize>(),
    ) {
        for request in all_requests(identity, round, fill, onion_len, with_token) {
            flipped_is_rejected_or_canonical(&request, &request.encode(), bit, Request::decode, Request::encode)?;
        }
        for response in all_responses(round, fill, (num_keys, num_entries), detail) {
            flipped_is_rejected_or_canonical(&response, &response.encode(), bit, Response::decode, Response::encode)?;
        }
    }

    #[test]
    fn bit_flips_in_mixer_and_cdn_messages_are_rejected_or_canonical(
        round in any::<u64>(),
        fill in any::<u8>(),
        keys in 0usize..4,
        onions in 0usize..4,
        len in 0usize..48,
        detail in "[ -~]{0,24}",
        bit in any::<usize>(),
    ) {
        for request in all_mixer_requests(round, fill, keys, (onions, len)) {
            flipped_is_rejected_or_canonical(&request, &request.encode(), bit, MixerRequest::decode, MixerRequest::encode)?;
        }
        for response in all_mixer_responses(fill, onions, detail.clone()) {
            flipped_is_rejected_or_canonical(&response, &response.encode(), bit, MixerResponse::decode, MixerResponse::encode)?;
        }
        for request in all_cdn_requests(round, fill, len) {
            flipped_is_rejected_or_canonical(&request, &request.encode(), bit, CdnRequest::decode, CdnRequest::encode)?;
        }
        for response in all_cdn_responses(round, fill, len, detail.clone()) {
            flipped_is_rejected_or_canonical(&response, &response.encode(), bit, CdnResponse::decode, CdnResponse::encode)?;
        }
    }

    #[test]
    fn truncated_frames_fail_cleanly(
        identity in arb_identity(),
        cut in any::<u16>(),
    ) {
        let request = Request::CompleteRegistration { identity };
        let framed = Frame::encode(&request.encode());
        let cut = (cut as usize) % framed.len();
        // Every strict prefix must be rejected, never panic.
        prop_assert!(Frame::decode(&framed[..cut]).is_err());
    }

    #[test]
    fn bit_flips_anywhere_are_rejected_or_caught_by_checksum(
        identity in arb_identity(),
        bit in any::<u32>(),
    ) {
        let request = Request::CompleteRegistration { identity };
        let mut framed = Frame::encode(&request.encode());
        let bit = (bit as usize) % (framed.len() * 8);
        framed[bit / 8] ^= 1 << (bit % 8);
        // A single flipped bit anywhere (magic, version, length, payload,
        // checksum) must make decoding fail: everything before the trailer
        // is covered by the CRC and the header fields are validated
        // explicitly.
        prop_assert!(Frame::decode(&framed).is_err());
        prop_assert!(Frame::read_from(&mut &framed[..]).is_err());
    }

    #[test]
    fn bursts_up_to_32_bits_are_always_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        start in any::<u32>(),
        pattern in 1u32..u32::MAX,
    ) {
        // The guarantee a CRC gives and a truncated hash does not: an error
        // confined to 32 consecutive bits is caught with certainty, not with
        // probability 1 - 2^-32. "Consecutive" is in the CRC's own bit order
        // (least significant bit of each byte first), and holds across the
        // trailer boundary because the trailer is stored little-endian.
        let mut framed = Frame::encode(&payload);
        let start = (start as usize) % (framed.len() * 8 - 31);
        for offset in (0..32).filter(|offset| pattern >> offset & 1 == 1) {
            let bit = start + offset;
            framed[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert!(Frame::decode(&framed).is_err());
    }
}

#[test]
fn bad_version_byte_is_rejected_with_typed_error() {
    let mut framed = Frame::encode(b"payload");
    framed[2] = Frame::VERSION + 1;
    assert_eq!(
        Frame::decode(&framed),
        Err(WireError::UnsupportedVersion {
            version: Frame::VERSION + 1
        })
    );
    // read_from agrees.
    let mut cursor = std::io::Cursor::new(framed);
    assert!(Frame::read_from(&mut cursor).is_err());
}

#[test]
fn bad_magic_is_rejected() {
    let mut framed = Frame::encode(b"payload");
    framed[0] = b'X';
    assert_eq!(Frame::decode(&framed), Err(WireError::BadMagic));
}

#[test]
fn corrupted_checksum_is_rejected() {
    let mut framed = Frame::encode(b"payload");
    let last = framed.len() - 1;
    framed[last] ^= 0x01;
    assert_eq!(Frame::decode(&framed), Err(WireError::ChecksumMismatch));
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // Claim a payload far beyond MAX_PAYLOAD_LEN; the decoder must reject it
    // from the header alone (no attempt to read or allocate the payload).
    let mut framed = Frame::encode(b"x").to_vec();
    framed[3..7].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        Frame::decode(&framed),
        Err(WireError::FrameTooLarge {
            claimed: u32::MAX as usize
        })
    );
    let mut cursor = std::io::Cursor::new(framed);
    assert!(Frame::read_from(&mut cursor).is_err());
}

#[test]
fn lying_length_prefix_within_bounds_is_caught() {
    // A length prefix that is in-bounds but does not match the actual
    // payload shifts the checksum window and must fail.
    let framed = Frame::encode(b"hello world");
    let mut shorter = framed.clone();
    let true_len = u32::from_be_bytes([framed[3], framed[4], framed[5], framed[6]]);
    shorter[3..7].copy_from_slice(&(true_len - 1).to_be_bytes());
    assert!(Frame::decode(&shorter).is_err());
}
