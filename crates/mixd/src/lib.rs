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
//! * [`Mixer`] — the coordinator's view of one mix server: a way to
//!   deliver a [`MixerRequest`](alpenhorn_wire::MixerRequest). A
//!   [`MixdServer`] in the same process answers directly; a
//!   [`LoopbackMixer`] routes through the wire codec; a [`RemoteMixer`]
//!   speaks framed TCP with reconnect-and-retry, mirroring the client
//!   transport's recovery policy.
//! * [`MixChain`] — the one chain driver: it passes each round's batch
//!   through a row of [`Mixer`]s in chain order, for in-process and
//!   distributed deployments alike. Outputs are byte-identical for every
//!   mixer kind and transport (`tests/loopback_equivalence`).
//!
//! Seed derivation lives in [`seeds`]: a daemon given only (cluster seed,
//! index) derives the same servers wherever it runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod daemon;
pub mod error;
pub mod mixer;
pub mod seeds;

pub use chain::MixChain;
pub use daemon::{server_config, MixdServer};
pub use error::MixdError;
pub use mixer::{LoopbackMixer, MixRetryPolicy, Mixer, RemoteMixer};
