//! Atomically-replaced full-state snapshots.
//!
//! A snapshot file holds exactly one [`record`] frame, so the
//! same checksum machinery that guards the WAL guards the snapshot: a torn or
//! bit-flipped snapshot is detected on read, and recovery falls back to the
//! previous generation (see [`crate::durable`]).
//!
//! Writes are crash-safe by construction: the record is written to a `.tmp`
//! sibling, fsynced, and atomically renamed over the final name; the
//! directory is then fsynced so the rename itself is durable. At no point is
//! a partially-written file visible under the final name, and the rename
//! unlinks the file it replaces — which is why the coordinator also keeps
//! its one rotating secret (`pkg-ratchets.key`) in a file written this way.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::record::{self, LogRecord};
use crate::StorageError;

/// The record kind used for snapshot frames.
pub const SNAPSHOT_RECORD_KIND: u8 = 0xff;

/// Fsyncs the directory containing `path`, making a completed rename durable.
/// Best-effort on platforms where directories cannot be opened for sync.
fn sync_dir(path: &Path) -> Result<(), StorageError> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

/// Atomically writes `payload` as the snapshot at `path`
/// (write-temp → fsync → rename → fsync-dir).
pub fn write_atomic(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), StorageError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    let encoded = record::encode(SNAPSHOT_RECORD_KIND, payload);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&encoded)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path)
}

/// Reads and validates the snapshot at `path`, returning its payload.
///
/// Returns `Ok(None)` if the file does not exist; a file that exists but
/// fails validation is an error the caller may treat as "fall back to an
/// older generation".
pub fn read(path: impl AsRef<Path>) -> Result<Option<Vec<u8>>, StorageError> {
    let bytes = match std::fs::read(path.as_ref()) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let LogRecord { kind, payload } = record::decode_exact(&bytes)?;
    if kind != SNAPSHOT_RECORD_KIND {
        return Err(StorageError::BadPayload {
            context: "reading a snapshot record",
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alpenhorn-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("state.snap");
        assert!(read(&path).unwrap().is_none());
        write_atomic(&path, b"the full state").unwrap();
        assert_eq!(read(&path).unwrap().unwrap(), b"the full state");
        // Overwrite is atomic-by-rename, so the new content fully replaces.
        write_atomic(&path, b"newer state").unwrap();
        assert_eq!(read(&path).unwrap().unwrap(), b"newer state");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("state.snap");
        write_atomic(&path, b"important").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let byte = bytes.len() / 2;
        bytes[byte] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read(&path).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn leftover_tmp_file_does_not_shadow_snapshot() {
        // A crash between writing .tmp and the rename leaves only the tmp
        // file; the snapshot name itself reads as absent, not corrupt.
        let dir = tmpdir("tmpfile");
        let path = dir.join("state.snap");
        std::fs::write(path.with_extension("tmp"), b"half-written garbage").unwrap();
        assert!(read(&path).unwrap().is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
