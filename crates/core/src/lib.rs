//! # Alpenhorn client library
//!
//! Alpenhorn bootstraps secure communication between two users who only know
//! each other's email address, without leaking metadata (who is friending or
//! calling whom) and with forward secrecy for that metadata. This crate is
//! the client side of the system described in the OSDI 2016 paper
//! *"Alpenhorn: Bootstrapping Secure Communication without Leaking
//! Metadata"* by Lazar and Zeldovich; the server substrates live in the
//! sibling crates (`alpenhorn-pkg`, `alpenhorn-mixnet`,
//! `alpenhorn-coordinator`).
//!
//! ## Functionality (paper Figure 1)
//!
//! | Paper API | This crate |
//! |---|---|
//! | `Register(email)` | [`Client::new`] + [`Client::register`] |
//! | `MySigningKey()` | [`Client::signing_public_key`] |
//! | `AddFriend(email, key?)` | [`Client::add_friend`] |
//! | `Call(email, intent)` | [`Client::call`] |
//! | `NewFriend` callback | [`ClientEvent::FriendRequestReceived`] (+ auto-accept policy or [`Client::accept_friend_request`]) |
//! | `IncomingCall` callback | [`ClientEvent::IncomingCall`] |
//!
//! The prototype's callbacks are represented as [`ClientEvent`] values
//! returned from the round-processing methods, which suits Rust ownership
//! better than reentrant callbacks; an application drains the events after
//! each round.
//!
//! ## Round-driven operation
//!
//! Alpenhorn is round based. Each add-friend round a client extracts its IBE
//! identity keys, submits exactly one fixed-size (possibly cover) request,
//! and later downloads and trial-decrypts its mailbox. Each dialing round a
//! client submits one (possibly cover) dial token and scans the round's dial
//! set for calls from its friends. See the `quickstart` example for the
//! full loop against an in-process cluster.
//!
//! ## Transports
//!
//! The client reaches its coordinator through the [`Transport`] trait: the
//! deterministic in-process [`LoopbackTransport`] (tests, simulation) or
//! [`TcpTransport`] against a networked `alpenhornd` daemon. Both carry the
//! same versioned RPC protocol ([`alpenhorn_wire::rpc`]); see
//! `docs/ARCHITECTURE.md`.
//!
//! ## Fault tolerance
//!
//! Every RPC runs under the client's [`RetryPolicy`] ([`crate::retry`]):
//! transport failures and typed `Unavailable` server faults are retried with
//! jittered exponential backoff and per-call deadlines, repairing poisoned
//! connections via [`Transport::reset`] along the way. For testing,
//! [`FaultyTransport`] wraps any transport and injects a deterministic,
//! seed-driven schedule of drops, delays, disconnects, corruption, and
//! partitions from a declarative [`FaultPlan`] ([`crate::fault`]); see
//! "Fault model & retry semantics" in `docs/ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addressbook;
pub mod client;
#[cfg(test)]
mod client_tests;
pub mod error;
pub mod events;
pub mod fault;
pub mod retry;
pub mod transport;

pub use addressbook::{AddressBook, FriendEntry, FriendStatus};
pub use client::{Client, ClientConfig};
pub use error::ClientError;
pub use events::ClientEvent;
pub use fault::{
    FaultPlan, FaultProbabilities, FaultyTransport, FlakyWindow, InjectedFault, PartitionWindow,
};
pub use retry::RetryPolicy;
pub use transport::{
    CdnRoutedTransport, LoopbackTransport, TcpTransport, Transport, TransportError,
};

pub use alpenhorn_keywheel::{Intent, SessionKey};
pub use alpenhorn_wire::{Identity, Round};
