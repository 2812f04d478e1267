//! Typed errors for the coordinator ↔ `mixd` boundary.

use alpenhorn_wire::WireError;

/// Why driving a mix server failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixdError {
    /// A message or frame failed to encode or decode.
    Wire(WireError),
    /// The connection to the daemon failed.
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The daemon reported a request-level failure (wrong round, bad key,
    /// ...). Terminal: retrying the identical request returns the identical
    /// answer.
    Mixer(
        /// The daemon's description of the failure.
        String,
    ),
    /// The daemon answered with a response variant the request cannot
    /// produce — a protocol violation, not a transient fault.
    UnexpectedResponse,
    /// Every attempt allowed by the [`MixRetryPolicy`] failed with a
    /// retryable error; `last` is the final failure.
    ///
    /// [`MixRetryPolicy`]: crate::mixer::MixRetryPolicy
    Exhausted {
        /// Attempts made, including the first.
        attempts: u32,
        /// The last failure observed.
        last: Box<MixdError>,
    },
}

impl core::fmt::Display for MixdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MixdError::Wire(e) => write!(f, "mixer wire error: {e}"),
            MixdError::Io { kind, detail } => {
                write!(f, "mixer I/O error ({kind:?}): {detail}")
            }
            MixdError::Mixer(detail) => write!(f, "mix server error: {detail}"),
            MixdError::UnexpectedResponse => {
                write!(f, "mix server sent a response of the wrong kind")
            }
            MixdError::Exhausted { attempts, last } => {
                write!(f, "mixer unreachable after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for MixdError {}

impl From<WireError> for MixdError {
    fn from(e: WireError) -> Self {
        MixdError::Wire(e)
    }
}

impl From<std::io::Error> for MixdError {
    fn from(e: std::io::Error) -> Self {
        MixdError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<alpenhorn_wire::codec::FrameIoError> for MixdError {
    fn from(e: alpenhorn_wire::codec::FrameIoError) -> Self {
        match e {
            alpenhorn_wire::codec::FrameIoError::Io(e) => e.into(),
            alpenhorn_wire::codec::FrameIoError::Wire(e) => e.into(),
        }
    }
}

impl MixdError {
    /// Whether a retry might succeed: connection-level failures are
    /// retryable (the daemon re-derives identical bytes for a repeated
    /// round), daemon-reported and protocol errors are not — nor is
    /// `InvalidInput`, which is how [`alpenhorn_wire::Frame::write_to`]
    /// refuses a request too large for one frame: the same request is
    /// refused again.
    pub fn is_retryable(&self) -> bool {
        match self {
            MixdError::Io { kind, .. } => *kind != std::io::ErrorKind::InvalidInput,
            MixdError::Wire(_) => true,
            _ => false,
        }
    }
}
