//! Networked mix-server daemons and the coordinator-side chain driving them.
//!
//! The paper deploys the mixnet as N independent servers on separate
//! machines (§7); this crate is that deployment surface:
//!
//! * [`MixdServer`] — one daemon's state: the add-friend and dialing
//!   [`MixServer`](alpenhorn_mixnet::MixServer)s for one chain position,
//!   dispatching [`MixerRequest`](alpenhorn_wire::MixerRequest)s. Because
//!   every per-round byte a mix server produces is derived from
//!   (seed, chain position, round id), the daemon is **stateless across
//!   requests**: retried RPCs reproduce identical responses and no replay
//!   cache exists.
//! * [`server_config`] — how the `mixd` binary runs a [`MixdServer`] in the
//!   serve loop all three daemons share, [`alpenhorn_wire::server::serve`]
//!   (as `Mutex<MixdServer>`: requests are serialized through the daemon
//!   mutex; rounds are driven by one coordinator, so contention is not the
//!   bottleneck, the mixing is).
//! * [`Mixer`] — the coordinator's view of one mix server, with two
//!   implementations: [`LoopbackMixer`] (in-process, still routed through
//!   the wire codec) and [`RemoteMixer`] (framed TCP with
//!   reconnect-and-retry, mirroring the client transport's recovery
//!   policy).
//! * [`RemoteMixChain`] — mirrors the in-process
//!   [`MixChain`](alpenhorn_mixnet::MixChain) API over a row of [`Mixer`]s,
//!   passing each round's batch through them in chain order. Outputs are
//!   byte-identical to `MixChain` for every mixer count and transport
//!   (`tests/loopback_equivalence`).
//!
//! Seed derivation for daemons is shared with the coordinator via
//! [`chain_seed`] and [`alpenhorn_mixnet::server_seed`], so a daemon given
//! only (cluster seed, index) joins the chain byte-compatibly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod daemon;
pub mod error;
pub mod mixer;
pub mod seeds;

pub use chain::RemoteMixChain;
pub use daemon::{server_config, MixdServer};
pub use error::MixdError;
pub use mixer::{LoopbackMixer, MixRetryPolicy, Mixer, ProcessedBatch, RemoteMixer};
pub use seeds::chain_seed;
