//! The coordinator ↔ mix-server daemon (`mixd`) RPC protocol.
//!
//! The paper deploys the mixnet as N independent servers chained over the
//! network (§7); the coordinator drives them in sequence each round. This
//! module is that boundary: three requests per (protocol, round) — a
//! begin-round key exchange, the batch hand-off, and an end-round — each
//! carried inside a checksummed [`crate::codec::Frame`], mirroring the
//! client ↔ coordinator API in [`crate::rpc`].
//!
//! Every request names its round explicitly, and a mix server derives all
//! per-round randomness (onion keypair, noise, shuffle) from (seed, round id)
//! alone. Repeating a request for the same round therefore reproduces the
//! byte-identical response, so coordinator-side retries after connection
//! drops or timeouts are safe with no replay cache and no rng rewind.
//!
//! A `process` batch travels in one frame, bounding it by
//! [`Frame::MAX_PAYLOAD_LEN`](crate::Frame::MAX_PAYLOAD_LEN) (16 MiB) —
//! ample for this reproduction's round sizes; a deployment at the paper's
//! scale would stream chunks.

use crate::codec::{Decoder, Encoder};
use crate::constants::G1_LEN;
use crate::error::WireError;
use crate::round::{Round, RoundKind};
use crate::rpc::{get_detail, put_detail};

/// Upper bound on the number of onions in one `process` batch.
pub const MAX_BATCH_ONIONS: usize = 1 << 20;

/// A request from the coordinator to one `mixd` daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixerRequest {
    /// Start a round: the server ratchets its per-round onion keypair and
    /// returns the public half for inclusion in the round announcement.
    BeginRound {
        /// Which protocol's chain this round belongs to.
        protocol: RoundKind,
        /// The round number (replay key for idempotent retries).
        round: Round,
    },
    /// Hand the server the full onion batch for one round. The server peels
    /// its layer, injects noise onions addressed through the remaining
    /// (downstream) servers, drops malformed onions, shuffles, and returns
    /// the permuted batch.
    Process {
        /// Which protocol's chain this round belongs to.
        protocol: RoundKind,
        /// The round number.
        round: Round,
        /// Mailbox count this round (noise onions address a random mailbox).
        num_mailboxes: u32,
        /// Noise distribution location parameter (`mu`), as IEEE-754 bits so
        /// the value survives the wire exactly.
        noise_mu: u64,
        /// Noise distribution scale parameter (`b`), as IEEE-754 bits.
        noise_b: u64,
        /// Onion public keys of the servers *after* this one, in chain
        /// order; noise onions are wrapped for these layers.
        downstream: Vec<[u8; G1_LEN]>,
        /// The onion batch, one entry per message.
        batch: Vec<Vec<u8>>,
    },
    /// Close the round: the server discards its per-round secret.
    EndRound {
        /// Which protocol's chain this round belongs to.
        protocol: RoundKind,
        /// The round number.
        round: Round,
    },
    /// Admin: fetch the daemon's metrics exposition and recent spans
    /// (see `docs/OBSERVABILITY.md`).
    GetTelemetry,
}

/// A response from a `mixd` daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixerResponse {
    /// The round is open; the server's per-round onion public key.
    RoundKey(
        /// Compressed G1 point bytes of the round public key.
        [u8; G1_LEN],
    ),
    /// The processed (peeled + noised + shuffled) batch.
    Processed {
        /// The permuted output batch.
        batch: Vec<Vec<u8>>,
        /// Noise onions this server injected.
        noise_added: u64,
        /// Malformed onions this server dropped.
        dropped: u64,
    },
    /// `EndRound` succeeded.
    Ack,
    /// The daemon's telemetry: metrics exposition text and recent spans.
    Telemetry(crate::rpc::TelemetryWire),
    /// The request failed (wrong round, decode failure, ...). The
    /// coordinator treats this as fatal for the round: mixers cannot be
    /// asked to redo work without desynchronizing their rng streams.
    Error(
        /// Human-readable description.
        String,
    ),
}

const MREQ_BEGIN_ROUND: u8 = 1;
const MREQ_PROCESS: u8 = 2;
const MREQ_END_ROUND: u8 = 3;
const MREQ_GET_TELEMETRY: u8 = 4;

const MRESP_ROUND_KEY: u8 = 1;
const MRESP_PROCESSED: u8 = 2;
const MRESP_ACK: u8 = 3;
const MRESP_ERROR: u8 = 4;
const MRESP_TELEMETRY: u8 = 5;

fn put_protocol(e: &mut Encoder, protocol: RoundKind) {
    e.put_u8(match protocol {
        RoundKind::AddFriend => 0,
        RoundKind::Dialing => 1,
    });
}

fn get_protocol(d: &mut Decoder<'_>) -> Result<RoundKind, WireError> {
    match d.get_u8("mixer protocol")? {
        0 => Ok(RoundKind::AddFriend),
        1 => Ok(RoundKind::Dialing),
        _ => Err(WireError::InvalidValue {
            context: "mixer protocol",
        }),
    }
}

fn put_batch(e: &mut Encoder, batch: &[Vec<u8>]) {
    e.put_u32(batch.len() as u32);
    for onion in batch {
        e.put_var_bytes(onion);
    }
}

fn get_batch(d: &mut Decoder<'_>) -> Result<Vec<Vec<u8>>, WireError> {
    let count = d.get_u32("batch count")? as usize;
    if count > MAX_BATCH_ONIONS || count * 4 > d.remaining() {
        return Err(WireError::InvalidValue {
            context: "batch count",
        });
    }
    let mut batch = Vec::with_capacity(count);
    for _ in 0..count {
        batch.push(d.get_var_bytes("batch onion")?.to_vec());
    }
    Ok(batch)
}

impl MixerRequest {
    /// A stable, lowercase name for this request kind, suitable as a metric
    /// label value.
    pub fn name(&self) -> &'static str {
        match self {
            MixerRequest::BeginRound { .. } => "begin_round",
            MixerRequest::Process { .. } => "process",
            MixerRequest::EndRound { .. } => "end_round",
            MixerRequest::GetTelemetry => "get_telemetry",
        }
    }

    /// The (protocol, round) this request addresses, when it is round-scoped
    /// (everything except `GetTelemetry`). Drives span correlation ids.
    pub fn round_scope(&self) -> Option<(RoundKind, Round)> {
        match self {
            MixerRequest::BeginRound { protocol, round }
            | MixerRequest::Process {
                protocol, round, ..
            }
            | MixerRequest::EndRound { protocol, round } => Some((*protocol, *round)),
            MixerRequest::GetTelemetry => None,
        }
    }

    /// Encodes the request into its wire form (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            MixerRequest::BeginRound { protocol, round } => {
                e.put_u8(MREQ_BEGIN_ROUND);
                put_protocol(&mut e, *protocol);
                e.put_u64(round.0);
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
                e.put_u8(MREQ_PROCESS);
                put_protocol(&mut e, *protocol);
                e.put_u64(round.0);
                e.put_u32(*num_mailboxes);
                e.put_u64(*noise_mu);
                e.put_u64(*noise_b);
                e.put_u16(downstream.len() as u16);
                for key in downstream {
                    e.put_bytes(key);
                }
                put_batch(&mut e, batch);
            }
            MixerRequest::EndRound { protocol, round } => {
                e.put_u8(MREQ_END_ROUND);
                put_protocol(&mut e, *protocol);
                e.put_u64(round.0);
            }
            MixerRequest::GetTelemetry => {
                e.put_u8(MREQ_GET_TELEMETRY);
            }
        }
        e.finish()
    }

    /// Decodes a request from its wire form. Total: typed errors, no panics.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let tag = d.get_u8("mixer request tag")?;
        let request = match tag {
            MREQ_BEGIN_ROUND => MixerRequest::BeginRound {
                protocol: get_protocol(&mut d)?,
                round: Round(d.get_u64("mixer round")?),
            },
            MREQ_PROCESS => {
                let protocol = get_protocol(&mut d)?;
                let round = Round(d.get_u64("mixer round")?);
                let num_mailboxes = d.get_u32("mixer num mailboxes")?;
                let noise_mu = d.get_u64("mixer noise mu")?;
                let noise_b = d.get_u64("mixer noise b")?;
                let count = d.get_u16("downstream count")? as usize;
                if count * G1_LEN > d.remaining() {
                    return Err(WireError::InvalidValue {
                        context: "downstream count",
                    });
                }
                let mut downstream = Vec::with_capacity(count);
                for _ in 0..count {
                    downstream.push(d.get_array::<G1_LEN>("downstream key")?);
                }
                MixerRequest::Process {
                    protocol,
                    round,
                    num_mailboxes,
                    noise_mu,
                    noise_b,
                    downstream,
                    batch: get_batch(&mut d)?,
                }
            }
            MREQ_END_ROUND => MixerRequest::EndRound {
                protocol: get_protocol(&mut d)?,
                round: Round(d.get_u64("mixer round")?),
            },
            MREQ_GET_TELEMETRY => MixerRequest::GetTelemetry,
            _ => {
                return Err(WireError::InvalidValue {
                    context: "mixer request tag",
                })
            }
        };
        d.finish()?;
        Ok(request)
    }
}

impl MixerResponse {
    /// Encodes the response into its wire form (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            MixerResponse::RoundKey(key) => {
                e.put_u8(MRESP_ROUND_KEY);
                e.put_bytes(key);
            }
            MixerResponse::Processed {
                batch,
                noise_added,
                dropped,
            } => {
                e.put_u8(MRESP_PROCESSED);
                e.put_u64(*noise_added);
                e.put_u64(*dropped);
                put_batch(&mut e, batch);
            }
            MixerResponse::Ack => {
                e.put_u8(MRESP_ACK);
            }
            MixerResponse::Telemetry(telemetry) => {
                e.put_u8(MRESP_TELEMETRY);
                crate::rpc::put_telemetry(&mut e, telemetry);
            }
            MixerResponse::Error(detail) => {
                e.put_u8(MRESP_ERROR);
                put_detail(&mut e, detail);
            }
        }
        e.finish()
    }

    /// Decodes a response from its wire form. Total: typed errors, no panics.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(buf);
        let tag = d.get_u8("mixer response tag")?;
        let response = match tag {
            MRESP_ROUND_KEY => MixerResponse::RoundKey(d.get_array("round key")?),
            MRESP_PROCESSED => {
                let noise_added = d.get_u64("noise added")?;
                let dropped = d.get_u64("dropped")?;
                MixerResponse::Processed {
                    batch: get_batch(&mut d)?,
                    noise_added,
                    dropped,
                }
            }
            MRESP_ACK => MixerResponse::Ack,
            MRESP_ERROR => MixerResponse::Error(get_detail(&mut d, "mixer error detail")?),
            MRESP_TELEMETRY => MixerResponse::Telemetry(crate::rpc::get_telemetry(&mut d)?),
            _ => {
                return Err(WireError::InvalidValue {
                    context: "mixer response tag",
                })
            }
        };
        d.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixer_messages_round_trip() {
        let requests = vec![
            MixerRequest::BeginRound {
                protocol: RoundKind::AddFriend,
                round: Round(7),
            },
            MixerRequest::Process {
                protocol: RoundKind::Dialing,
                round: Round(7),
                num_mailboxes: 16,
                noise_mu: 300.0f64.to_bits(),
                noise_b: 13.8f64.to_bits(),
                downstream: vec![[9u8; G1_LEN]; 2],
                batch: vec![vec![1u8; 40], vec![2u8; 40]],
            },
            MixerRequest::EndRound {
                protocol: RoundKind::AddFriend,
                round: Round(8),
            },
        ];
        for request in requests {
            assert_eq!(
                MixerRequest::decode(&request.encode()).unwrap(),
                request,
                "{request:?}"
            );
        }
        let responses = vec![
            MixerResponse::RoundKey([3u8; G1_LEN]),
            MixerResponse::Processed {
                batch: vec![vec![4u8; 12]; 3],
                noise_added: 310,
                dropped: 2,
            },
            MixerResponse::Ack,
            MixerResponse::Error("round 9 is not open".into()),
        ];
        for response in responses {
            assert_eq!(
                MixerResponse::decode(&response.encode()).unwrap(),
                response,
                "{response:?}"
            );
        }
    }

    #[test]
    fn noise_params_survive_bit_exactly() {
        let mu = core::f64::consts::PI * 100.0;
        let request = MixerRequest::Process {
            protocol: RoundKind::AddFriend,
            round: Round(1),
            num_mailboxes: 1,
            noise_mu: mu.to_bits(),
            noise_b: (mu / 7.0).to_bits(),
            downstream: vec![],
            batch: vec![],
        };
        let MixerRequest::Process {
            noise_mu, noise_b, ..
        } = MixerRequest::decode(&request.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(f64::from_bits(noise_mu), mu);
        assert_eq!(f64::from_bits(noise_b), mu / 7.0);
    }

    #[test]
    fn hostile_batch_counts_rejected() {
        let mut e = Encoder::new();
        e.put_u8(MREQ_PROCESS);
        e.put_u8(0);
        e.put_u64(1);
        e.put_u32(1);
        e.put_u64(0);
        e.put_u64(0);
        e.put_u16(0);
        e.put_u32(u32::MAX); // claims 4 billion onions, carries none
        assert!(MixerRequest::decode(&e.finish()).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(MixerRequest::decode(&[0xee]).is_err());
        assert!(MixerResponse::decode(&[0xee]).is_err());
        assert!(MixerRequest::decode(&[]).is_err());
        assert!(MixerResponse::decode(&[]).is_err());
    }
}
