//! Error type for the Alpenhorn client.
//!
//! Boundary errors are unified here: wire-codec failures
//! ([`alpenhorn_wire::WireError`]), transport failures
//! ([`crate::transport::TransportError`]), typed server errors reported over
//! the RPC boundary ([`alpenhorn_wire::RpcError`]), and in-process
//! coordinator errors ([`alpenhorn_coordinator::CoordinatorError`]) all
//! convert into typed [`ClientError`] variants via `From`, so call sites
//! use `?` instead of ad-hoc mapping.

use alpenhorn_wire::{Identity, RateLimitReason, RpcError, WireError};

use crate::transport::TransportError;

/// Errors returned by [`crate::Client`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The client has not completed registration with the PKGs yet.
    NotRegistered,
    /// The named user is not in the address book (or has no keywheel yet).
    NotAFriend(Identity),
    /// There is no pending incoming friend request from this user.
    NoPendingRequest(Identity),
    /// The friend request's out-of-band key did not match the key carried in
    /// the request (possible man-in-the-middle).
    KeyMismatch(Identity),
    /// An intent value was outside the configured range.
    InvalidIntent {
        /// The intent that was passed.
        intent: u32,
        /// The number of intents the client was configured with.
        num_intents: u32,
    },
    /// The coordinator returned a different number of PKG extraction
    /// responses than the client has configured PKG verification keys, so the
    /// anytrust attestation check cannot cover the whole aggregate.
    PkgResponseCount {
        /// Number of configured PKG verification keys.
        expected: usize,
        /// Number of responses the coordinator returned.
        actual: usize,
    },
    /// A PKG's identity key share does not match its revealed round master
    /// public key for this client's identity: e(mpkᵢ, H₂(id)) ≠ e(g₁, dᵢ).
    /// Scanning with the aggregate would silently decrypt nothing.
    IdentityKeyShareMismatch {
        /// The position of the PKG whose share failed, in PKG order.
        pkg_index: usize,
    },
    /// The client has no stored round state to process a mailbox against
    /// (participate was not called for this round).
    NoRoundState,
    /// An error from the coordinator/cluster.
    Coordinator(alpenhorn_coordinator::CoordinatorError),
    /// An error from the keywheel (e.g. dialing a round whose key is erased).
    Keywheel(alpenhorn_keywheel::KeywheelError),
    /// The coordinator did not have a mailbox the client expected to
    /// download.
    MissingMailbox,
    /// The submission or token issuance was rate limited by the coordinator.
    RateLimited(RateLimitReason),
    /// The transport failed (connection, framing, codec).
    Transport(TransportError),
    /// The transport was reused after an earlier failure poisoned it; the
    /// boxed error is the original failure (e.g. the framing error that
    /// desynchronized the stream). The connection must be replaced — retrying
    /// on it cannot succeed.
    TransportPoisoned {
        /// The failure that poisoned the connection.
        original: Box<TransportError>,
    },
    /// A wire encoding or decoding failed client-side.
    Wire(WireError),
    /// The coordinator reported a typed error with no more specific client
    /// mapping (e.g. a PKG rejection).
    Rpc(RpcError),
    /// The coordinator returned a structurally valid but semantically
    /// unusable response (wrong variant, undecodable curve point, ...).
    UnexpectedResponse {
        /// What the client was trying to do.
        context: &'static str,
    },
    /// The per-call deadline configured in the client's
    /// [`crate::retry::RetryPolicy`] expired before a retryable call
    /// succeeded; `last` is the failure observed on the final attempt.
    Deadline {
        /// How many attempts were made before the deadline expired.
        attempts: u32,
        /// The error from the last attempt.
        last: Box<ClientError>,
    },
    /// Every attempt permitted by the client's
    /// [`crate::retry::RetryPolicy`] failed with a retryable error; `last`
    /// is the failure observed on the final attempt.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The error from the last attempt.
        last: Box<ClientError>,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::NotRegistered => write!(f, "client is not registered"),
            ClientError::NotAFriend(id) => write!(f, "{id} is not a confirmed friend"),
            ClientError::NoPendingRequest(id) => {
                write!(f, "no pending friend request from {id}")
            }
            ClientError::KeyMismatch(id) => {
                write!(
                    f,
                    "signing key in request from {id} does not match the expected key"
                )
            }
            ClientError::InvalidIntent {
                intent,
                num_intents,
            } => {
                write!(
                    f,
                    "intent {intent} out of range (client configured for {num_intents})"
                )
            }
            ClientError::PkgResponseCount { expected, actual } => {
                write!(
                    f,
                    "coordinator returned {actual} PKG responses but {expected} PKG keys are configured"
                )
            }
            ClientError::IdentityKeyShareMismatch { pkg_index } => {
                write!(
                    f,
                    "PKG {pkg_index} returned an identity key share that does not match its round master public key"
                )
            }
            ClientError::NoRoundState => {
                write!(f, "no stored round state (participate was not called)")
            }
            ClientError::Coordinator(e) => write!(f, "coordinator error: {e}"),
            ClientError::Keywheel(e) => write!(f, "keywheel error: {e}"),
            ClientError::MissingMailbox => write!(f, "expected mailbox was not available"),
            ClientError::RateLimited(reason) => write!(f, "rate limited: {reason}"),
            ClientError::Transport(e) => write!(f, "transport error: {e}"),
            ClientError::TransportPoisoned { original } => {
                write!(
                    f,
                    "transport reused after being poisoned by: {original}; reconnect"
                )
            }
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Rpc(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse { context } => {
                write!(f, "unexpected coordinator response while {context}")
            }
            ClientError::Deadline { attempts, last } => {
                write!(
                    f,
                    "call deadline expired after {attempts} attempt(s); last error: {last}"
                )
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempt(s); last error: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<alpenhorn_coordinator::CoordinatorError> for ClientError {
    fn from(e: alpenhorn_coordinator::CoordinatorError) -> Self {
        ClientError::Coordinator(e)
    }
}

impl From<alpenhorn_keywheel::KeywheelError> for ClientError {
    fn from(e: alpenhorn_keywheel::KeywheelError) -> Self {
        ClientError::Keywheel(e)
    }
}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        match e {
            // Reuse-after-poisoning gets its own typed variant so callers
            // can distinguish "replace the connection" from transient I/O.
            TransportError::Poisoned { original } => ClientError::TransportPoisoned { original },
            other => ClientError::Transport(other),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<RpcError> for ClientError {
    fn from(e: RpcError) -> Self {
        use alpenhorn_coordinator::CoordinatorError;
        match e {
            // Server errors with an exact in-process equivalent map back to
            // the typed coordinator variants, so loopback and TCP behave
            // identically and pre-RPC matches keep working.
            RpcError::RoundNotOpen { requested } => {
                ClientError::Coordinator(CoordinatorError::RoundNotOpen { requested })
            }
            RpcError::RoundAlreadyOpen => {
                ClientError::Coordinator(CoordinatorError::RoundAlreadyOpen)
            }
            RpcError::WrongRequestSize { expected, actual } => {
                ClientError::Coordinator(CoordinatorError::WrongRequestSize {
                    expected: expected as usize,
                    actual: actual as usize,
                })
            }
            RpcError::CommitmentMismatch { pkg_index } => {
                ClientError::Coordinator(CoordinatorError::CommitmentMismatch {
                    pkg_index: pkg_index as usize,
                })
            }
            RpcError::UnknownMailbox => ClientError::MissingMailbox,
            RpcError::RateLimited { reason } => ClientError::RateLimited(reason),
            other => ClientError::Rpc(other),
        }
    }
}
