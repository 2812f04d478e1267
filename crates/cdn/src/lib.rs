//! Erasure-coded mailbox CDN nodes and the any-k-of-n client layer.
//!
//! The paper's deployment (§7) serves each closed round's public mailbox
//! state from a CDN so the coordinator doesn't have to. This crate is that
//! tier, erasure coded so it also survives node loss:
//!
//! * [`CdnNodeState`] — one node's shard store behind the
//!   [`CdnRequest`](alpenhorn_wire::CdnRequest) protocol, optionally
//!   mirrored to a data directory so an acknowledged shard survives a node
//!   restart.
//! * [`server_config`] — how the `cdnd` binary runs a [`CdnNodeState`] in
//!   the serve loop all three daemons share,
//!   [`alpenhorn_wire::server::serve`] (as `Mutex<CdnNodeState>`).
//! * [`NodeClient`] — a handle to one node: [`LoopbackNode`] (in-process,
//!   full codec, with a liveness switch for scripted node loss) or
//!   [`TcpNode`] (framed TCP, lazy reconnect).
//! * [`ShardedCdn`] — the fleet layer: each mailbox blob is `k` data + `m`
//!   parity shift-XOR shards ([`alpenhorn_erasure`]), shard `i` on node
//!   `i mod n`. Reads are data-first (no decoding when the fleet is
//!   healthy) and fall back to XOR-only parity reconstruction when up to
//!   `m` shards are unreachable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod node;
pub mod sharded;

pub use client::{LoopbackNode, NodeClient, TcpNode};
pub use error::CdnError;
pub use node::{server_config, CdnNodeState};
pub use sharded::{CdnFleetStats, FetchOutcome, PublishOutcome, ShardedCdn};
