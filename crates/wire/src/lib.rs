//! Wire formats and common protocol types shared by every Alpenhorn component.
//!
//! This crate defines the on-the-wire representation of the protocol objects
//! from the paper:
//!
//! * identities (email addresses, §3) and mailbox IDs (§3.1 step 3),
//! * rounds for the add-friend and dialing protocols (§4.4, §5),
//! * the `FriendRequest` structure (Figure 3),
//! * dial tokens produced by the keywheel (§5),
//! * onion envelopes carried through the mixnet (§6, Algorithm 1 step 3),
//! * the fixed request sizes that drive the bandwidth analysis in §8.2.
//!
//! All encodings are hand-rolled fixed-layout binary (see [`codec`]): requests
//! must be fixed-size so that cover traffic is indistinguishable from real
//! traffic, and the exact sizes feed the evaluation's bandwidth model.
//!
//! The [`rpc`] module defines the versioned client ↔ coordinator RPC API
//! (requests, responses, typed errors), carried inside the checksummed
//! [`codec::Frame`]; see `docs/ARCHITECTURE.md` for the layering. The
//! [`server`] module is the one TCP serve loop all three daemons run that
//! protocol family behind, with its client-side [`server::connect`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdn;
pub mod codec;
pub mod constants;
mod crc32c;
pub mod dial;
pub mod error;
pub mod friend_request;
pub mod identity;
pub mod mailbox;
pub mod mixer;
pub mod onion;
pub mod round;
pub mod rpc;
pub mod server;

pub use cdn::{CdnRequest, CdnResponse, ShardHeader};
pub use codec::{Decoder, Encoder, Frame, FrameIoError};
pub use constants::*;
pub use dial::{DialRequest, DialToken};
pub use error::WireError;
pub use friend_request::{AddFriendEnvelope, FriendRequest};
pub use identity::Identity;
pub use mailbox::MailboxId;
pub use mixer::{MixerRequest, MixerResponse};
pub use onion::{OnionEnvelope, OnionEnvelopeRef};
pub use round::{Round, RoundKind};
pub use rpc::{
    CdnStatsWire, RateLimitReason, RateLimitToken, Request, Response, RpcError, SpanWire,
    TelemetryWire,
};
