//! The coordinator/client ↔ CDN node (`cdnd`) RPC protocol, plus the
//! mailbox blob codecs the erasure layer shards.
//!
//! The paper's CDN (§7) serves each closed round's public mailbox state so
//! the coordinator doesn't have to. Here that state is erasure coded: a
//! mailbox blob is split into `k` data + `m` parity shards, shard `i` lands
//! on node `i mod n`, and a reader reconstructs from any `k` of the
//! `k + m` shards. Each stored shard carries its coding geometry
//! (`data_shards`, `parity_shards`, `blob_len`) so a reader needs no side
//! channel to decode.
//!
//! Two blob codecs live here so the coordinator and clients agree on the
//! bytes being sharded: an add-friend mailbox is its ciphertext list
//! ([`encode_add_friend_blob`]), and a dialing mailbox is its Bloom filter
//! plus the next dialing round's parameters when the round's close
//! announced them ([`encode_dialing_blob`]).

use crate::codec::{Decoder, Encoder};
use crate::error::WireError;
use crate::friend_request::AddFriendEnvelope;
use crate::mailbox::MailboxId;
use crate::round::{Round, RoundKind};
use crate::rpc::{
    get_bool, get_detail, get_dialing_round, put_detail, put_dialing_round, DialingRoundWire,
};

/// Upper bound on shard counts (`k + m`) a node will accept.
pub const MAX_SHARDS: usize = 256;

/// Geometry of one stored shard: enough for a reader to reconstruct the
/// blob without any metadata service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Number of data shards (k) in the blob's encoding.
    pub data_shards: u16,
    /// Number of parity shards (m) in the blob's encoding.
    pub parity_shards: u16,
    /// Original blob length in bytes (strips the zero padding).
    pub blob_len: u64,
}

/// A request to one `cdnd` node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdnRequest {
    /// Store one shard of a mailbox blob (coordinator → node, at round
    /// close).
    PutShard {
        /// Which protocol's mailbox the shard belongs to.
        kind: RoundKind,
        /// The closed round.
        round: Round,
        /// The mailbox within the round.
        mailbox: MailboxId,
        /// Shard index within the encoding (`0..k` data, `k..k+m` parity).
        index: u16,
        /// The blob's coding geometry.
        header: ShardHeader,
        /// The shard bytes.
        shard: Vec<u8>,
    },
    /// Fetch one shard (client/coordinator → node).
    GetShard {
        /// Which protocol's mailbox to read.
        kind: RoundKind,
        /// The closed round.
        round: Round,
        /// The mailbox within the round.
        mailbox: MailboxId,
        /// Shard index within the encoding.
        index: u16,
    },
    /// Drop all shards for rounds before `keep_from` (both protocols).
    Expire {
        /// First round to keep.
        keep_from: Round,
    },
    /// Admin: fetch the node's metrics exposition and recent spans
    /// (see `docs/OBSERVABILITY.md`).
    GetTelemetry,
}

/// A response from a `cdnd` node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdnResponse {
    /// The request succeeded and carries no payload.
    Ack,
    /// The requested shard.
    Shard {
        /// The blob's coding geometry, echoed from the store.
        header: ShardHeader,
        /// The shard bytes.
        shard: Vec<u8>,
    },
    /// The node does not hold that shard (never stored, expired, or lost).
    NotFound,
    /// The node's telemetry: metrics exposition text and recent spans.
    Telemetry(crate::rpc::TelemetryWire),
    /// The request failed.
    Error(
        /// Human-readable description.
        String,
    ),
}

const CREQ_PUT_SHARD: u8 = 1;
const CREQ_GET_SHARD: u8 = 2;
const CREQ_EXPIRE: u8 = 3;
// 4: retired (the node stats request); decodes as an unknown tag, never reused.
const CREQ_GET_TELEMETRY: u8 = 5;

const CRESP_ACK: u8 = 1;
const CRESP_SHARD: u8 = 2;
const CRESP_NOT_FOUND: u8 = 3;
// 4: retired (the node stats reply); decodes as an unknown tag, never reused.
const CRESP_ERROR: u8 = 5;
const CRESP_TELEMETRY: u8 = 6;

fn put_kind(e: &mut Encoder, kind: RoundKind) {
    e.put_u8(match kind {
        RoundKind::AddFriend => 0,
        RoundKind::Dialing => 1,
    });
}

fn get_kind(d: &mut Decoder<'_>) -> Result<RoundKind, WireError> {
    match d.get_u8("cdn round kind")? {
        0 => Ok(RoundKind::AddFriend),
        1 => Ok(RoundKind::Dialing),
        _ => Err(WireError::InvalidValue {
            context: "cdn round kind",
        }),
    }
}

fn put_header(e: &mut Encoder, header: &ShardHeader) {
    e.put_u16(header.data_shards);
    e.put_u16(header.parity_shards);
    e.put_u64(header.blob_len);
}

fn get_header(d: &mut Decoder<'_>) -> Result<ShardHeader, WireError> {
    let header = ShardHeader {
        data_shards: d.get_u16("shard header data count")?,
        parity_shards: d.get_u16("shard header parity count")?,
        blob_len: d.get_u64("shard header blob len")?,
    };
    if header.data_shards == 0
        || header.data_shards as usize + header.parity_shards as usize > MAX_SHARDS
    {
        return Err(WireError::InvalidValue {
            context: "shard header shape",
        });
    }
    Ok(header)
}

impl CdnRequest {
    /// A stable, lowercase name for this request kind, suitable as a metric
    /// label value.
    pub fn name(&self) -> &'static str {
        match self {
            CdnRequest::PutShard { .. } => "put_shard",
            CdnRequest::GetShard { .. } => "get_shard",
            CdnRequest::Expire { .. } => "expire",
            CdnRequest::GetTelemetry => "get_telemetry",
        }
    }

    /// The (protocol, round) this request addresses, when it is round-scoped.
    /// Drives span correlation ids at the CDN boundary.
    pub fn round_scope(&self) -> Option<(RoundKind, Round)> {
        match self {
            CdnRequest::PutShard { kind, round, .. } | CdnRequest::GetShard { kind, round, .. } => {
                Some((*kind, *round))
            }
            CdnRequest::Expire { .. } | CdnRequest::GetTelemetry => None,
        }
    }

    /// Encodes the request into its wire form (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            CdnRequest::PutShard {
                kind,
                round,
                mailbox,
                index,
                header,
                shard,
            } => {
                e.put_u8(CREQ_PUT_SHARD);
                put_kind(&mut e, *kind);
                e.put_u64(round.0);
                e.put_u32(mailbox.0);
                e.put_u16(*index);
                put_header(&mut e, header);
                e.put_var_bytes(shard);
            }
            CdnRequest::GetShard {
                kind,
                round,
                mailbox,
                index,
            } => {
                e.put_u8(CREQ_GET_SHARD);
                put_kind(&mut e, *kind);
                e.put_u64(round.0);
                e.put_u32(mailbox.0);
                e.put_u16(*index);
            }
            CdnRequest::Expire { keep_from } => {
                e.put_u8(CREQ_EXPIRE);
                e.put_u64(keep_from.0);
            }
            CdnRequest::GetTelemetry => {
                e.put_u8(CREQ_GET_TELEMETRY);
            }
        }
        e.finish()
    }

    /// Decodes a request from its wire form. Total: typed errors, no panics.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let tag = d.get_u8("cdn request tag")?;
        let request = match tag {
            CREQ_PUT_SHARD => CdnRequest::PutShard {
                kind: get_kind(&mut d)?,
                round: Round(d.get_u64("cdn round")?),
                mailbox: MailboxId(d.get_u32("cdn mailbox")?),
                index: d.get_u16("cdn shard index")?,
                header: get_header(&mut d)?,
                shard: d.get_var_bytes("cdn shard bytes")?.to_vec(),
            },
            CREQ_GET_SHARD => CdnRequest::GetShard {
                kind: get_kind(&mut d)?,
                round: Round(d.get_u64("cdn round")?),
                mailbox: MailboxId(d.get_u32("cdn mailbox")?),
                index: d.get_u16("cdn shard index")?,
            },
            CREQ_EXPIRE => CdnRequest::Expire {
                keep_from: Round(d.get_u64("cdn keep-from round")?),
            },
            CREQ_GET_TELEMETRY => CdnRequest::GetTelemetry,
            _ => {
                return Err(WireError::InvalidValue {
                    context: "cdn request tag",
                })
            }
        };
        d.finish()?;
        Ok(request)
    }
}

impl CdnResponse {
    /// Encodes the response into its wire form (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            CdnResponse::Ack => {
                e.put_u8(CRESP_ACK);
            }
            CdnResponse::Shard { header, shard } => {
                e.put_u8(CRESP_SHARD);
                put_header(&mut e, header);
                e.put_var_bytes(shard);
            }
            CdnResponse::NotFound => {
                e.put_u8(CRESP_NOT_FOUND);
            }
            CdnResponse::Telemetry(telemetry) => {
                e.put_u8(CRESP_TELEMETRY);
                crate::rpc::put_telemetry(&mut e, telemetry);
            }
            CdnResponse::Error(detail) => {
                e.put_u8(CRESP_ERROR);
                put_detail(&mut e, detail);
            }
        }
        e.finish()
    }

    /// Decodes a response from its wire form. Total: typed errors, no panics.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let tag = d.get_u8("cdn response tag")?;
        let response = match tag {
            CRESP_ACK => CdnResponse::Ack,
            CRESP_SHARD => CdnResponse::Shard {
                header: get_header(&mut d)?,
                shard: d.get_var_bytes("cdn shard bytes")?.to_vec(),
            },
            CRESP_NOT_FOUND => CdnResponse::NotFound,
            CRESP_ERROR => CdnResponse::Error(get_detail(&mut d, "cdn error detail")?),
            CRESP_TELEMETRY => CdnResponse::Telemetry(crate::rpc::get_telemetry(&mut d)?),
            _ => {
                return Err(WireError::InvalidValue {
                    context: "cdn response tag",
                })
            }
        };
        d.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Mailbox blob codecs
// ---------------------------------------------------------------------------

/// Serializes an add-friend mailbox (a list of fixed-size IBE ciphertexts)
/// into the canonical blob the erasure layer shards.
pub fn encode_add_friend_blob(contents: &[Vec<u8>]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(4 + contents.len() * AddFriendEnvelope::CIPHERTEXT_LEN);
    e.put_u32(contents.len() as u32);
    for ciphertext in contents {
        debug_assert_eq!(ciphertext.len(), AddFriendEnvelope::CIPHERTEXT_LEN);
        e.put_bytes(ciphertext);
    }
    e.finish()
}

/// Parses an add-friend mailbox blob back into its ciphertext list.
pub fn decode_add_friend_blob(blob: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    let mut d = Decoder::new(blob);
    let count = d.get_u32("blob ciphertext count")? as usize;
    if count * AddFriendEnvelope::CIPHERTEXT_LEN != d.remaining() {
        return Err(WireError::InvalidValue {
            context: "blob ciphertext count",
        });
    }
    let mut contents = Vec::with_capacity(count);
    for _ in 0..count {
        contents.push(
            d.get_bytes(AddFriendEnvelope::CIPHERTEXT_LEN, "blob ciphertext")?
                .to_vec(),
        );
    }
    d.finish()?;
    Ok(contents)
}

/// Serializes a dialing mailbox into the canonical blob the erasure layer
/// shards and the origin serves inside
/// [`Response::DialingMailbox`](crate::Response::DialingMailbox): the Bloom
/// filter bytes (length-prefixed), then a presence byte and, when present,
/// the parameters of the next dialing round, which the round's close fixed.
pub fn encode_dialing_blob(filter: &[u8], next_round: Option<&DialingRoundWire>) -> Vec<u8> {
    let mut e = Encoder::with_capacity(filter.len() + 192);
    put_dialing_blob(&mut e, filter, next_round);
    e.finish()
}

/// Parses a dialing mailbox blob into its filter bytes and the announced
/// next round, rejecting trailing bytes.
pub fn decode_dialing_blob(blob: &[u8]) -> Result<(&[u8], Option<DialingRoundWire>), WireError> {
    let mut d = Decoder::new(blob);
    let parts = get_dialing_blob(&mut d)?;
    d.finish()?;
    Ok(parts)
}

/// The length of [`encode_dialing_blob`]'s output for a filter of
/// `filter_len` bytes, without encoding it.
pub fn dialing_blob_len(filter_len: usize, next_round: Option<&DialingRoundWire>) -> usize {
    // Filter length prefix and presence byte; then round, mailbox count,
    // onion length, rate-limit flag and key count ahead of the keys.
    4 + filter_len
        + 1
        + next_round.map_or(0, |info| {
            8 + 4 + 4 + 1 + 2 + info.onion_keys.len() * crate::G1_LEN
        })
}

pub(crate) fn put_dialing_blob(
    e: &mut Encoder,
    filter: &[u8],
    next_round: Option<&DialingRoundWire>,
) {
    e.put_var_bytes(filter);
    e.put_u8(next_round.is_some() as u8);
    if let Some(info) = next_round {
        put_dialing_round(e, info);
    }
}

pub(crate) fn get_dialing_blob<'a>(
    d: &mut Decoder<'a>,
) -> Result<(&'a [u8], Option<DialingRoundWire>), WireError> {
    let filter = d.get_var_bytes("dialing filter")?;
    let next_round = match get_bool(d, "dialing announcement flag")? {
        true => Some(get_dialing_round(d)?),
        false => None,
    };
    Ok((filter, next_round))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ShardHeader {
        ShardHeader {
            data_shards: 3,
            parity_shards: 1,
            blob_len: 1000,
        }
    }

    #[test]
    fn cdn_messages_round_trip() {
        let requests = vec![
            CdnRequest::PutShard {
                kind: RoundKind::AddFriend,
                round: Round(5),
                mailbox: MailboxId(2),
                index: 3,
                header: header(),
                shard: vec![1u8; 334],
            },
            CdnRequest::GetShard {
                kind: RoundKind::Dialing,
                round: Round(5),
                mailbox: MailboxId(2),
                index: 0,
            },
            CdnRequest::Expire {
                keep_from: Round(4),
            },
            CdnRequest::GetTelemetry,
        ];
        for request in requests {
            assert_eq!(
                CdnRequest::decode(&request.encode()).unwrap(),
                request,
                "{request:?}"
            );
        }
        let responses = vec![
            CdnResponse::Ack,
            CdnResponse::Shard {
                header: header(),
                shard: vec![2u8; 334],
            },
            CdnResponse::NotFound,
            CdnResponse::Error("shard index out of range".into()),
        ];
        for response in responses {
            assert_eq!(
                CdnResponse::decode(&response.encode()).unwrap(),
                response,
                "{response:?}"
            );
        }
    }

    #[test]
    fn degenerate_shard_headers_rejected() {
        // k = 0 and k + m > MAX_SHARDS are both hostile.
        for (data, parity) in [(0u16, 1u16), (200, 200)] {
            let request = CdnRequest::PutShard {
                kind: RoundKind::AddFriend,
                round: Round(1),
                mailbox: MailboxId(0),
                index: 0,
                header: ShardHeader {
                    data_shards: data,
                    parity_shards: parity,
                    blob_len: 10,
                },
                shard: vec![0u8; 4],
            };
            assert!(CdnRequest::decode(&request.encode()).is_err());
        }
    }

    #[test]
    fn add_friend_blob_round_trips() {
        let contents = vec![
            vec![7u8; AddFriendEnvelope::CIPHERTEXT_LEN],
            vec![9u8; AddFriendEnvelope::CIPHERTEXT_LEN],
        ];
        let blob = encode_add_friend_blob(&contents);
        assert_eq!(decode_add_friend_blob(&blob).unwrap(), contents);
        assert_eq!(
            decode_add_friend_blob(&encode_add_friend_blob(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn dialing_blob_round_trips_and_is_the_origin_reply_body() {
        let next = DialingRoundWire {
            round: Round(8),
            onion_keys: vec![[3u8; crate::G1_LEN]; 3],
            num_mailboxes: 2,
            onion_len: 228,
            rate_limited: false,
        };
        for next_round in [None, Some(next)] {
            let blob = encode_dialing_blob(&[5u8; 40], next_round.as_ref());
            assert_eq!(blob.len(), dialing_blob_len(40, next_round.as_ref()));
            let (filter, decoded) = decode_dialing_blob(&blob).unwrap();
            assert_eq!((filter, &decoded), (&[5u8; 40][..], &next_round));
            let reply = crate::Response::DialingMailbox {
                filter: filter.to_vec(),
                next_round,
            };
            assert_eq!(reply.encode()[1..], blob[..]);
            let mut longer = blob.clone();
            longer.push(0);
            assert!(decode_dialing_blob(&longer).is_err());
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let contents = vec![vec![7u8; AddFriendEnvelope::CIPHERTEXT_LEN]];
        let mut blob = encode_add_friend_blob(&contents);
        blob.pop();
        assert!(decode_add_friend_blob(&blob).is_err());
    }
}
