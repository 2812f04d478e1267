//! One WAL shared by every appender, with a durability class per record and
//! an explicit sync point.
//!
//! A [`GroupWal`] is a [`Wal`] behind one mutex. Every append names its
//! [`Durability`]:
//!
//! * [`Durability::Synced`] — written, then fsynced before `append` returns.
//!   For records whose acknowledgement promises permanence (a completed
//!   registration, a round open that precedes serving round info).
//! * [`Durability::Buffered`] — written to the OS and acknowledged without an
//!   fsync. The record survives the process dying; it survives the machine
//!   dying once the next [`GroupWal::sync`] (or synced append) covers it.
//!
//! The owner decides where the buffered suffix becomes durable by calling
//! [`GroupWal::sync`] — the coordinator does so once per round, after sealing
//! the round's intake and before mixing it (the *barrier*; see
//! `docs/ARCHITECTURE.md` § "Durability & recovery" for why that point
//! covers every record the recovery argument needs). One fsync then covers
//! every record appended since the previous one: the group commit is the
//! barrier, not a protocol between appenders.
//!
//! Synced appends run on the coordinator's exclusive path and buffered ones
//! never fsync, so there is never a second fsync to overlap with: an fsync
//! is simply done under the mutex.
//!
//! **Failure contract**: `Err` from [`GroupWal::append`] means *this record
//! is not in the log* — a failed write, or a failed fsync of a synced
//! record, is rolled back by truncating to the previous record boundary, so
//! the caller can undo the in-memory mutation the record described. Earlier
//! buffered records stay: they were acknowledged at their class. A failed
//! [`GroupWal::sync`] leaves the suffix in the file, unsynced; the caller
//! treats it as not durable (the coordinator abandons the round).
//!
//! **Checkpoint barrier**: [`GroupWal::checkpoint_swap`] replaces the WAL
//! with a fresh one for the next snapshot generation *under the mutex*. The
//! snapshot is encoded inside that critical section, so every record
//! appended before the swap — buffered or synced — has its effect captured
//! by the snapshot (appenders apply the in-memory mutation before appending,
//! and the mutex orders the append before the encode), and the snapshot is
//! made durable by its own atomic write.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use alpenhorn_obs::{Counter, Histogram};

use crate::wal::Wal;
use crate::StorageError;

/// When an appended record must be on stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Fsynced before the append returns.
    Synced,
    /// Written to the OS; durable at the next [`GroupWal::sync`].
    Buffered,
}

/// Fsync telemetry: one observation per WAL fsync, and how many records it
/// made durable. Cached so the append path never hits the registry lock.
struct GroupMetrics {
    fsync_us: Arc<Histogram>,
    batch_records: Arc<Histogram>,
    fsyncs_total: Arc<Counter>,
}

fn group_metrics() -> &'static GroupMetrics {
    static METRICS: OnceLock<GroupMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        GroupMetrics {
            fsync_us: r.histogram("storage_group_fsync_us", &[]),
            batch_records: r.histogram("storage_group_commit_batch_records", &[]),
            fsyncs_total: r.counter("storage_group_fsyncs_total", &[]),
        }
    })
}

struct Inner {
    wal: Wal,
    /// Records appended since the last fsync: what a machine crash may lose.
    unsynced: u64,
    /// Appends since the last checkpoint swap (drives
    /// `Durable::checkpoint_if_due`).
    appends_since_swap: u64,
    /// Fsyncs issued by this log (a per-store count; the registry's
    /// `storage_group_fsyncs_total` is process-wide).
    fsyncs: u64,
}

impl Inner {
    fn sync(&mut self) -> Result<(), StorageError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let started = Instant::now();
        self.wal.sync()?;
        let m = group_metrics();
        m.fsync_us.observe_since(started);
        m.fsyncs_total.inc();
        m.batch_records.observe(self.unsynced);
        self.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }
}

/// A [`Wal`] shared by concurrent appenders; see the module docs.
pub struct GroupWal {
    inner: Mutex<Inner>,
}

impl GroupWal {
    /// Wraps an open WAL. `replayed` seeds the append counter that drives
    /// `Durable::checkpoint_if_due` (the records recovered into the current
    /// WAL).
    pub fn new(wal: Wal, replayed: u64) -> Self {
        GroupWal {
            inner: Mutex::new(Inner {
                wal,
                unsynced: 0,
                appends_since_swap: replayed,
                fsyncs: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Inner state is consistent whenever the lock is released, so a
        // panic elsewhere does not invalidate it.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records appended since the last checkpoint swap (or open).
    pub fn appends_since_swap(&self) -> u64 {
        self.lock().appends_since_swap
    }

    /// Fsyncs this log has issued since it was opened.
    pub fn fsyncs(&self) -> u64 {
        self.lock().fsyncs
    }

    /// Appends one record at `durability`. See the module docs for the
    /// failure contract.
    pub fn append(
        &self,
        kind: u8,
        payload: &[u8],
        durability: Durability,
    ) -> Result<(), StorageError> {
        let mut g = self.lock();
        let before = g.wal.len_bytes();
        g.wal.append(kind, payload)?;
        g.unsynced += 1;
        g.appends_since_swap += 1;
        if durability == Durability::Synced {
            if let Err(e) = g.sync() {
                // The caller is about to undo this record's effect: take the
                // record back out so a crash cannot replay it.
                g.wal.truncate_to(before);
                g.unsynced -= 1;
                g.appends_since_swap -= 1;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Makes every record appended so far durable with one fsync (none if
    /// nothing is pending).
    pub fn sync(&self) -> Result<(), StorageError> {
        self.lock().sync()
    }

    /// Replaces the WAL under the mutex (the checkpoint barrier).
    ///
    /// Calls `f` while holding the lock — `f` encodes the snapshot, writes
    /// it atomically, and opens the next generation's WAL.
    /// On `Ok`, the old WAL is dropped (the snapshot `f` just made durable
    /// holds every effect it recorded) and the counters reset. On `Err`,
    /// nothing changes.
    pub fn checkpoint_swap<F>(&self, f: F) -> Result<(), StorageError>
    where
        F: FnOnce() -> Result<Wal, StorageError>,
    {
        let mut g = self.lock();
        g.wal = f()?;
        g.unsynced = 0;
        g.appends_since_swap = 0;
        Ok(())
    }
}

/// A cloneable handle that syncs a [`Durable`] store's WAL without holding a
/// reference to the store itself.
///
/// It is how an owner whose state is borrowed elsewhere reaches
/// [`GroupWal::sync`]: the coordinator's round close runs its WAL barrier
/// through one while the cluster is mutably borrowed for the close. Records
/// are appended only through [`Durable::record`]. A handle from an
/// ephemeral store syncs nothing, so call sites need not branch on whether
/// durability is configured.
///
/// [`Durable`]: crate::Durable
/// [`Durable::record`]: crate::Durable::record
#[derive(Clone, Default)]
pub struct Journal {
    wal: Option<Arc<GroupWal>>,
}

impl Journal {
    /// A journal with nothing to sync (ephemeral stores).
    pub fn ephemeral() -> Self {
        Journal { wal: None }
    }

    pub(crate) fn backed(wal: Arc<GroupWal>) -> Self {
        Journal { wal: Some(wal) }
    }

    /// Makes every record appended so far durable (see [`GroupWal::sync`]).
    pub fn sync(&self) -> Result<(), StorageError> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Whether the store's records reach a disk (false for ephemeral
    /// handles).
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("durable", &self.is_durable())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use Durability::{Buffered, Synced};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alpenhorn-group-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_group(path: &PathBuf) -> GroupWal {
        let (wal, _) = Wal::open(path).unwrap();
        GroupWal::new(wal, 0)
    }

    #[test]
    fn concurrent_appends_are_all_recovered() {
        let dir = tmpdir("concurrent");
        let path = dir.join("wal.log");
        let group = Arc::new(open_group(&path));
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let group = Arc::clone(&group);
                s.spawn(move || {
                    for i in 0..50u8 {
                        let class = if i % 10 == 0 { Synced } else { Buffered };
                        group.append(t, &[t, i], class).unwrap();
                    }
                });
            }
        });
        drop(group);
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.records.len(), 8 * 50);
        let mut per_thread = [0u8; 8];
        for record in &recovery.records {
            // Appends from one thread stay in that thread's order.
            let t = record.payload[0] as usize;
            assert_eq!(record.payload[1], per_thread[t]);
            per_thread[t] += 1;
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn buffered_appends_wait_for_one_sync() {
        let dir = tmpdir("classes");
        let path = dir.join("wal.log");
        let group = open_group(&path);
        for i in 0..20u8 {
            group.append(0, &[i], Buffered).unwrap();
        }
        assert_eq!(group.fsyncs(), 0, "buffered appends never fsync");
        group.sync().unwrap();
        assert_eq!(group.fsyncs(), 1, "one fsync covers the whole suffix");
        group.sync().unwrap();
        assert_eq!(group.fsyncs(), 1, "nothing pending, nothing to sync");
        group.append(1, b"synced", Synced).unwrap();
        assert_eq!(
            group.fsyncs(),
            2,
            "a synced append fsyncs before it returns"
        );
        group.append(0, b"buffered", Buffered).unwrap();
        group.append(1, b"synced", Synced).unwrap();
        assert_eq!(
            group.fsyncs(),
            3,
            "and covers the buffered records before it"
        );
        drop(group);
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.records.len(), 23);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_swap_redirects_appends_to_the_new_wal() {
        let dir = tmpdir("swap");
        let old_path = dir.join("wal-0.log");
        let new_path = dir.join("wal-1.log");
        let group = open_group(&old_path);
        group.append(1, b"old-a", Synced).unwrap();
        group.append(1, b"old-b", Buffered).unwrap();
        group
            .checkpoint_swap(|| Ok(Wal::open(&new_path)?.0))
            .unwrap();
        assert_eq!(group.appends_since_swap(), 0);
        group.sync().unwrap();
        assert_eq!(group.fsyncs(), 1, "the swapped-out suffix is not re-synced");
        group.append(2, b"new-a", Buffered).unwrap();
        drop(group);
        let (_, old) = Wal::open(&old_path).unwrap();
        let (_, new) = Wal::open(&new_path).unwrap();
        assert_eq!(old.records.len(), 2);
        assert_eq!(new.records.len(), 1);
        assert_eq!(new.records[0].payload, b"new-a");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_checkpoint_swap_leaves_the_group_usable() {
        let dir = tmpdir("swapfail");
        let path = dir.join("wal.log");
        let group = open_group(&path);
        group.append(1, b"before", Buffered).unwrap();
        let err = group.checkpoint_swap(|| {
            Err(StorageError::BadPayload {
                context: "injected",
            })
        });
        assert!(err.is_err());
        group.append(1, b"after", Synced).unwrap();
        drop(group);
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.records.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn ephemeral_journal_is_inert() {
        let journal = Journal::ephemeral();
        assert!(!journal.is_durable());
        journal.sync().unwrap();
        let cloned = journal.clone();
        assert!(!cloned.is_durable());
        cloned.sync().unwrap();
    }
}
