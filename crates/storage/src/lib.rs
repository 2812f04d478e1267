//! # Durable state for Alpenhorn: log-structured WAL + snapshots
//!
//! Alpenhorn's servers and clients are long-lived: keywheels, registrations,
//! rate-limit budgets, and PKG key ratchets must survive process restarts, or
//! one crash deregisters the entire user base. This crate provides the
//! on-disk substrate:
//!
//! * [`record`] — the checksummed, versioned record format shared by the log
//!   and the snapshots. It reuses the magic + version + length + SHA-256
//!   framing discipline of `alpenhorn_wire::codec::Frame`, so torn writes,
//!   truncation, and bit flips are all caught before a byte of payload is
//!   trusted.
//! * [`wal`] — an append-only write-ahead log of records. Opening a log
//!   replays it and *truncates at the first bad record*: a torn tail from a
//!   crash mid-append costs at most the records after the last sync, never
//!   the whole log.
//! * [`snapshot`] — atomically-renamed full-state snapshots. A snapshot is
//!   one record in its own file, written to a temp path, fsynced, then
//!   renamed, so a crash mid-snapshot leaves the previous generation intact.
//! * [`durable`] — [`Durable<T: Persist>`](durable::Durable), the generic
//!   replay engine tying the two together: state is recovered as
//!   *snapshot + log suffix*, mutations append effect records, and
//!   checkpoints — run only where the owner calls `checkpoint_if_due`, never
//!   inside an append — compact the log into a fresh snapshot generation.
//! * [`group`] — [`GroupWal`], one WAL shared by every
//!   appender, where each record names its
//!   [`Durability`] class (fsynced before the append
//!   returns, or buffered until the owner's next `sync`), plus the cloneable
//!   [`Journal`] handle that syncs it without borrowing the `Durable`
//!   store.
//!
//! The design follows the append-only, sequential-write discipline of
//! log-structured storage (cf. LogRAID, arXiv:2402.17963): all writes are
//! appends or whole-file replacements, the on-disk contract is explicit and
//! versioned, and recovery is a single forward scan.
//!
//! Consumers: the coordinator (`alpenhorn-coordinator`) journals cluster
//! registrations, round counters and open counts, and rate-limit budgets,
//! and keeps the PKG ratchet positions out of the journal in one small
//! secret file it replaces with [`snapshot::write_atomic`] at every
//! add-friend open; the client (`alpenhorn`) saves and loads its full state
//! (see `Client::save_state`). See `docs/ARCHITECTURE.md` § "Durability &
//! recovery" for the format and compatibility rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod group;
pub mod record;
pub mod snapshot;
pub mod wal;

/// Shared payload codec helpers for [`Persist`] implementations, so every
/// consumer (coordinator journal, client saves) encodes common protocol
/// types the same way.
pub mod codec {
    use alpenhorn_wire::{Decoder, Encoder, Identity};

    use crate::StorageError;

    /// Appends an identity as length-prefixed UTF-8 bytes.
    pub fn put_identity(e: &mut Encoder, identity: &Identity) {
        e.put_var_bytes(identity.as_bytes());
    }

    /// Reads an identity written by [`put_identity`], re-validating it.
    pub fn get_identity(
        d: &mut Decoder<'_>,
        context: &'static str,
    ) -> Result<Identity, StorageError> {
        let bytes = d.get_var_bytes(context)?;
        let s = core::str::from_utf8(bytes).map_err(|_| StorageError::BadPayload { context })?;
        Identity::new(s).map_err(|_| StorageError::BadPayload { context })
    }
}

pub use durable::{Durable, Persist, RecoveryReport, StorageConfig};
pub use group::{Durability, GroupWal, Journal};
pub use record::{LogRecord, RecordError};
pub use wal::Wal;

/// Errors from the storage subsystem.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record or snapshot failed structural validation (bad magic, version,
    /// length, or checksum). Recovery treats this as end-of-log; direct
    /// readers surface it.
    Corrupt(RecordError),
    /// A snapshot or record payload decoded structurally but its contents
    /// were not a valid encoding of the expected state.
    BadPayload {
        /// What was being decoded.
        context: &'static str,
    },
    /// A record kind that the replaying state does not understand. Replay
    /// stops: newer-format logs are not silently skipped over.
    UnknownRecordKind {
        /// The unrecognised kind byte.
        kind: u8,
    },
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(e) => write!(f, "corrupt record: {e}"),
            StorageError::BadPayload { context } => {
                write!(f, "invalid payload while {context}")
            }
            StorageError::UnknownRecordKind { kind } => {
                write!(f, "unknown record kind {kind:#04x}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<RecordError> for StorageError {
    fn from(e: RecordError) -> Self {
        StorageError::Corrupt(e)
    }
}

impl From<alpenhorn_wire::WireError> for StorageError {
    fn from(_: alpenhorn_wire::WireError) -> Self {
        StorageError::BadPayload {
            context: "decoding a record payload",
        }
    }
}
