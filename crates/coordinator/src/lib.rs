//! Alpenhorn entry server and round coordination.
//!
//! The paper's prototype (§7) runs an untrusted *entry server* that batches
//! client requests, announces rounds, and forwards batches to the mixnet, and
//! uses a CDN to distribute mailbox contents. This crate provides those
//! pieces and a [`cluster::Cluster`] that assembles a complete Alpenhorn
//! deployment — PKGs, mixnet chain, entry server, CDN, simulated email — in
//! one process. The client library (`alpenhorn` crate) and the evaluation
//! harness drive a `Cluster` exactly the way a real client would drive a
//! remote deployment: register, extract round keys, submit onions, download
//! mailboxes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdn;
pub mod cluster;
pub mod control;
pub mod error;
pub mod persist;
pub mod ratelimit;
pub mod rounds;
pub mod server;
pub mod service;
pub mod shard;
pub mod shared;
pub mod telemetry;

pub use cdn::Cdn;
pub use cluster::{AddFriendRoundInfo, Cluster, ClusterConfig, DialingRoundInfo};
pub use control::DurableController;
pub use error::CoordinatorError;
pub use ratelimit::{TokenIssuer, TokenVerifier};
pub use rounds::RoundTiming;
pub use server::serve;
pub use service::{CoordinatorService, RateLimitPolicy, ServiceConfig};
pub use shard::SubmissionIntake;
pub use shared::{ServiceWriteGuard, SharedCoordinator};
