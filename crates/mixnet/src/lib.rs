//! Anytrust mixnet substrate (the Vuvuzela design used by Alpenhorn, §6).
//!
//! Clients onion-encrypt each request for a chain of mixnet servers. Every
//! round, each server peels its layer, adds Laplace-distributed noise
//! addressed to every mailbox, and randomly permutes the batch before
//! forwarding it. As long as one server is honest (keeps its permutation and
//! round key secret, and actually adds its noise), an adversary observing the
//! mailboxes cannot tell which client sent which request — formally, the
//! observable mailbox counts are differentially private.
//!
//! Modules:
//!
//! * [`onion`] — client-side onion wrapping and server-side peeling.
//! * [`noise`] — Laplace noise sampling and the differential-privacy
//!   accounting used to pick the paper's parameters (§8.1).
//! * [`server`] — a single mixnet server's per-round processing.
//! * [`chain`] — a chain round's statistics and the scripted compromised
//!   server of malicious-mixer scenarios (the chain driver is
//!   `alpenhorn_mixd::MixChain`).
//! * [`mailbox`] — partitioning the final batch into mailboxes and encoding
//!   dialing mailboxes as Golomb-coded dial-token sets (§5.2), plus the
//!   mailbox-count
//!   policy of §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod mailbox;
pub mod noise;
pub mod onion;
pub mod server;

pub use chain::{MixAdversary, MixMisbehavior, RoundStats};
pub use mailbox::{AddFriendMailboxes, DialingMailboxes, MailboxPolicy};
pub use noise::{DpParameters, NoiseConfig};
pub use onion::{peel_layer, peel_layer_in_place, wrap_onion, wrap_onion_into};
pub use server::{MixServer, ProcessedBatch};
