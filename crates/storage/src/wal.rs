//! The append-only write-ahead log.
//!
//! A WAL file is a concatenation of [`record`](crate::record) frames.
//! Opening a log scans it front to back; the scan stops at the first byte
//! range that fails validation and *truncates the file there* — a torn tail
//! from a crash mid-append (the only corruption an append-only discipline can
//! produce on an honest disk) costs exactly the records that had not finished
//! writing, never the prefix. Mid-file corruption (a bit flip under the torn
//! tail) truncates the same way: everything after the flip is gone, but the
//! validated prefix is recovered intact, and the caller learns how many bytes
//! were dropped.
//!
//! A `Wal` never decides when to fsync: [`Wal::append`] writes through to
//! the OS (the record survives the process dying) and [`Wal::sync`] makes
//! everything appended so far survive the machine dying. Which records need
//! which is the caller's contract — see [`crate::group`], where every record
//! carries a [`Durability`](crate::group::Durability) class.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use alpenhorn_obs::{Counter, Histogram};

use crate::record::{self, LogRecord, RecordError};
use crate::StorageError;

/// Cached handles into the global registry so the append hot path never
/// touches the registry lock. Durations observed here are wall-clock side
/// channels only — nothing deterministic reads them back. (Fsyncs are
/// counted where they are scheduled, in [`crate::group`].)
struct WalMetrics {
    append_us: Arc<Histogram>,
    appends_total: Arc<Counter>,
    append_errors_total: Arc<Counter>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        WalMetrics {
            append_us: r.histogram("storage_wal_append_us", &[]),
            appends_total: r.counter("storage_wal_appends_total", &[]),
            append_errors_total: r.counter("storage_wal_append_errors_total", &[]),
        }
    })
}

/// What `Wal::open` found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every valid record, in append order.
    pub records: Vec<LogRecord>,
    /// Bytes discarded from the tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// The validation failure that ended the scan, if the log did not end
    /// cleanly. [`RecordError::Truncated`] is the benign torn-tail case.
    pub tail_error: Option<RecordError>,
}

/// An open, append-only log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of validated/appended records currently in the file.
    len: u64,
    /// Set when a failed append may have left a partial record that could
    /// not be rolled back; every later append is refused (appending after
    /// mid-file garbage would be silently discarded at the next recovery).
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, validating and returning
    /// its contents. A torn or corrupt tail is truncated away so the file
    /// ends at the last valid record before any new append.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, WalRecovery), StorageError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        let mut records = Vec::new();
        let mut offset = 0usize;
        let mut tail_error = None;
        while offset < bytes.len() {
            match record::decode_at(&bytes, offset) {
                Ok((record, consumed)) => {
                    records.push(record);
                    offset += consumed;
                }
                Err(e) => {
                    tail_error = Some(e);
                    break;
                }
            }
        }
        let truncated_bytes = (bytes.len() - offset) as u64;

        let mut options = OpenOptions::new();
        options.create(true).append(true);
        let file = options.open(&path)?;
        if truncated_bytes > 0 {
            // Drop the bad tail so future appends start at a record boundary.
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        let wal = Wal {
            file,
            path,
            len: offset as u64,
            poisoned: false,
        };
        Ok((
            wal,
            WalRecovery {
                records,
                truncated_bytes,
                tail_error,
            },
        ))
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of records currently in the log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Whether a failed append has poisoned this log (reopen to recover).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one record: written through to the OS, not fsynced.
    ///
    /// `Err` means *this record is not in the log*: a failed write is rolled
    /// back by truncating the file to the previous record boundary, so
    /// callers can safely undo the in-memory mutation the record described,
    /// and a partial record never sits mid-file where it would silently
    /// discard every later append at the next recovery. If the rollback
    /// itself fails, the log poisons itself and refuses further appends
    /// (reopening revalidates and truncates).
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
        if self.poisoned {
            wal_metrics().append_errors_total.inc();
            return Err(StorageError::Io(std::io::Error::other(
                "WAL poisoned by an earlier failed append; reopen to recover",
            )));
        }
        let started = Instant::now();
        let encoded = record::encode(kind, payload);
        if let Err(e) = self.file.write_all(&encoded) {
            self.truncate_to(self.len);
            wal_metrics().append_errors_total.inc();
            return Err(e.into());
        }
        self.len += encoded.len() as u64;
        let m = wal_metrics();
        m.appends_total.inc();
        m.append_us.observe_since(started);
        Ok(())
    }

    /// Forces every appended record to stable storage (one `fdatasync`).
    pub fn sync(&self) -> Result<(), StorageError> {
        Ok(self.file.sync_data()?)
    }

    /// Truncates the file back to `len`, a record boundary at or below the
    /// current length (the rollback of a record whose append or sync
    /// failed). Poisons the log if the truncation itself fails.
    pub(crate) fn truncate_to(&mut self, len: u64) {
        debug_assert!(len <= self.len);
        if self.file.set_len(len).is_ok() {
            self.len = len;
        } else {
            self.poisoned = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alpenhorn-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_reopen() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.log");
        {
            let (mut wal, recovery) = Wal::open(&path).unwrap();
            assert!(recovery.records.is_empty());
            wal.append(1, b"first").unwrap();
            wal.append(2, b"second").unwrap();
            wal.sync().unwrap();
        }
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.tail_error, None);
        assert_eq!(
            recovery.records,
            vec![
                LogRecord::new(1, b"first".to_vec()),
                LogRecord::new(2, b"second".to_vec()),
            ]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let full_len;
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(1, b"keep me").unwrap();
            wal.append(2, b"torn away").unwrap();
            wal.sync().unwrap();
            full_len = wal.len_bytes();
        }
        // Tear the second record mid-payload.
        let keep = record::encode(1, b"keep me").len() as u64;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(keep + 5).unwrap();
        drop(file);
        assert!(keep + 5 < full_len);

        let (mut wal, recovery) = Wal::open(&path).unwrap();
        assert_eq!(
            recovery.records,
            vec![LogRecord::new(1, b"keep me".to_vec())]
        );
        assert_eq!(recovery.truncated_bytes, 5);
        assert_eq!(recovery.tail_error, Some(RecordError::Truncated));
        // New appends land cleanly after the truncated tail.
        wal.append(3, b"after recovery").unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(
            recovery.records,
            vec![
                LogRecord::new(1, b"keep me".to_vec()),
                LogRecord::new(3, b"after recovery".to_vec()),
            ]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bit_flip_truncates_from_the_flip() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for i in 0..5u8 {
                wal.append(i, &[i; 9]).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let one = record::encode(0, &[0; 9]).len();
        // Flip a bit inside the third record's payload.
        bytes[2 * one + 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.tail_error, Some(RecordError::ChecksumMismatch));
        assert_eq!(recovery.truncated_bytes, 3 * one as u64);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
