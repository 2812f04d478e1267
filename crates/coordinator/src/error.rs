//! Error type for coordinator operations.

use alpenhorn_wire::Round;

/// Errors returned by the entry server / cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorError {
    /// An operation referred to a round that is not currently open.
    RoundNotOpen {
        /// The round that was requested.
        requested: Round,
    },
    /// A round of this protocol is already open; close it first.
    RoundAlreadyOpen,
    /// A submitted request did not have the fixed size required this round.
    WrongRequestSize {
        /// Expected size in bytes.
        expected: usize,
        /// Actual size in bytes.
        actual: usize,
    },
    /// The requested mailbox does not exist for that round.
    UnknownMailbox,
    /// A PKG returned an error.
    Pkg(alpenhorn_pkg::PkgError),
    /// A PKG's revealed round key did not match its prior commitment — the
    /// server is misbehaving and the round must be aborted.
    CommitmentMismatch {
        /// Index of the offending PKG.
        pkg_index: usize,
    },
    /// The mix chain failed past its retry budget; the round is lost.
    Mixnet(String),
}

impl core::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoordinatorError::RoundNotOpen { requested } => {
                write!(f, "round {} is not open", requested.0)
            }
            CoordinatorError::RoundAlreadyOpen => write!(f, "a round is already open"),
            CoordinatorError::WrongRequestSize { expected, actual } => {
                write!(f, "request must be {expected} bytes, got {actual}")
            }
            CoordinatorError::UnknownMailbox => write!(f, "unknown mailbox"),
            CoordinatorError::Pkg(e) => write!(f, "PKG error: {e}"),
            CoordinatorError::CommitmentMismatch { pkg_index } => {
                write!(
                    f,
                    "PKG {pkg_index} revealed a key that does not match its commitment"
                )
            }
            CoordinatorError::Mixnet(detail) => write!(f, "mixnet failure: {detail}"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

impl From<alpenhorn_pkg::PkgError> for CoordinatorError {
    fn from(e: alpenhorn_pkg::PkgError) -> Self {
        CoordinatorError::Pkg(e)
    }
}

impl From<alpenhorn_mixd::MixdError> for CoordinatorError {
    fn from(e: alpenhorn_mixd::MixdError) -> Self {
        CoordinatorError::Mixnet(e.to_string())
    }
}

/// Stable numeric code for each [`alpenhorn_pkg::PkgError`] variant, carried
/// in [`alpenhorn_wire::RpcError::Pkg`] so clients keep a typed (if coarse)
/// view of PKG failures across the RPC boundary.
pub fn pkg_error_code(e: &alpenhorn_pkg::PkgError) -> u8 {
    use alpenhorn_pkg::PkgError;
    match e {
        PkgError::AlreadyRegistered => 1,
        PkgError::NoPendingRegistration => 2,
        PkgError::BadConfirmationToken => 3,
        PkgError::UnknownIdentity => 4,
        PkgError::AuthenticationFailed => 5,
        PkgError::LockedOut { .. } => 6,
        PkgError::WrongRound { .. } => 7,
        PkgError::WrongPhase => 8,
    }
}

impl From<CoordinatorError> for alpenhorn_wire::RpcError {
    fn from(e: CoordinatorError) -> Self {
        use alpenhorn_wire::RpcError;
        match e {
            CoordinatorError::RoundNotOpen { requested } => RpcError::RoundNotOpen { requested },
            CoordinatorError::RoundAlreadyOpen => RpcError::RoundAlreadyOpen,
            CoordinatorError::WrongRequestSize { expected, actual } => RpcError::WrongRequestSize {
                expected: expected as u32,
                actual: actual as u32,
            },
            CoordinatorError::UnknownMailbox => RpcError::UnknownMailbox,
            CoordinatorError::Pkg(pkg) => RpcError::Pkg {
                code: pkg_error_code(&pkg),
                detail: pkg.to_string(),
            },
            CoordinatorError::CommitmentMismatch { pkg_index } => RpcError::CommitmentMismatch {
                pkg_index: pkg_index as u32,
            },
            // A mix outage is transient from the client's point of view: the
            // coordinator abandons the round and opens a fresh one.
            CoordinatorError::Mixnet(detail) => RpcError::Unavailable {
                detail: format!("mixnet failure: {detail}"),
                retry_after_ms: 0,
            },
        }
    }
}
