//! Group commit: concurrent appenders share one WAL and batch their fsyncs.
//!
//! A [`Wal`] is single-writer: every append takes `&mut self`, and with
//! `sync_every = 1` every append pays a full fsync (~100 µs on commodity
//! disks). That is fine while the coordinator serializes all mutations behind
//! one lock, but once submission intake is sharded across worker threads the
//! per-append fsync would re-serialize exactly the path the sharding freed.
//!
//! [`GroupWal`] keeps the same durability contract while letting appends
//! overlap:
//!
//! * appends interleave under a short mutex hold (buffered write, no fsync);
//! * the first appender that needs durability becomes the **leader**: it
//!   clones the file handle, drops the lock, and issues one `fsync` that
//!   covers every record appended so far — including records that landed
//!   *while it was waiting to become leader*;
//! * the other appenders park on a condvar until the leader's fsync covers
//!   their record's end offset, then return without ever touching the disk.
//!
//! Under concurrency, N appenders pay ~1 fsync instead of N. Under a single
//! thread, behaviour is byte-identical to a plain `Wal` with the same
//! `sync_every`.
//!
//! **Failure contract** (same as [`Wal::append`]): `Err` means *this record
//! is not in the log*. When a group fsync fails, the file is truncated back
//! to the last durable offset and every parked appender whose record was
//! rolled back gets an `Err`, so each caller can undo the in-memory mutation
//! its record described. With `sync_every > 1`, records acknowledged before
//! reaching the batching threshold are rolled back too — the same exposure
//! window the plain `Wal` documents for a crash.
//!
//! **Checkpoint barrier**: [`GroupWal::checkpoint_swap`] replaces the WAL
//! with a fresh one for the next snapshot generation *under the group lock*,
//! after waiting out any in-flight leader fsync. The snapshot is encoded
//! inside that critical section, so every record appended before the barrier
//! has its effect captured by the snapshot (appenders apply the in-memory
//! mutation before appending, and the mutex orders the append before the
//! encode). Parked appenders from the old generation are released with `Ok`:
//! the snapshot that superseded their record is already durable.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use alpenhorn_obs::{Counter, Histogram};

use crate::wal::Wal;
use crate::StorageError;

/// Group-commit telemetry: how big the batches are and how long the leader's
/// fsync takes. Cached so the append path never hits the registry lock.
struct GroupMetrics {
    fsync_us: Arc<Histogram>,
    batch_records: Arc<Histogram>,
    fsyncs_total: Arc<Counter>,
    rollbacks_total: Arc<Counter>,
}

fn group_metrics() -> &'static GroupMetrics {
    static METRICS: OnceLock<GroupMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = alpenhorn_obs::global();
        GroupMetrics {
            fsync_us: r.histogram("storage_group_fsync_us", &[]),
            batch_records: r.histogram("storage_group_commit_batch_records", &[]),
            fsyncs_total: r.counter("storage_group_fsyncs_total", &[]),
            rollbacks_total: r.counter("storage_group_rollbacks_total", &[]),
        }
    })
}

struct Inner {
    wal: Wal,
    /// Group-commit threshold: fsync once this many records are pending.
    sync_every: u32,
    /// End offsets of records appended but not yet durable, in append order.
    pending: VecDeque<u64>,
    /// File length known to be on stable storage.
    durable_len: u64,
    /// A leader fsync is in flight outside the lock.
    leader: bool,
    /// Bumped by [`GroupWal::checkpoint_swap`]; a parked appender that
    /// observes a bump returns `Ok` — the new snapshot supersedes its record.
    generation: u64,
    /// Appends since the last checkpoint swap (drives
    /// `Durable::checkpoint_if_due`).
    appends_since_swap: u64,
}

/// A [`Wal`] shared by concurrent appenders with leader-based fsync batching.
pub struct GroupWal {
    inner: Mutex<Inner>,
    cond: Condvar,
}

fn group_io_error(detail: &'static str) -> StorageError {
    StorageError::Io(std::io::Error::other(detail))
}

impl GroupWal {
    /// Wraps an open WAL. `wal` should have been opened with a batching
    /// threshold it never reaches (`u32::MAX`): the group owns all fsync
    /// scheduling. `replayed` seeds the append counter that drives
    /// `Durable::checkpoint_if_due` (the records recovered into the current
    /// WAL).
    pub fn new(wal: Wal, sync_every: u32, replayed: u64) -> Self {
        let durable_len = wal.len_bytes();
        GroupWal {
            inner: Mutex::new(Inner {
                wal,
                sync_every: sync_every.max(1),
                pending: VecDeque::new(),
                durable_len,
                leader: false,
                generation: 0,
                appends_since_swap: replayed,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Inner state is kept consistent at every await point, so a panic
        // elsewhere does not invalidate it.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records appended since the last checkpoint swap (or open).
    pub fn appends_since_swap(&self) -> u64 {
        self.lock().appends_since_swap
    }

    /// Appends one record and returns once it is durable (or, below the
    /// `sync_every` threshold, once it is buffered). See the module docs for
    /// the group-commit protocol and failure contract.
    pub fn append(&self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
        let mut g = self.lock();
        g.wal.append(kind, payload)?;
        g.appends_since_swap += 1;
        let my_end = g.wal.len_bytes();
        let my_gen = g.generation;
        g.pending.push_back(my_end);
        if (g.pending.len() as u32) < g.sync_every {
            return Ok(());
        }
        loop {
            if g.generation != my_gen {
                // A checkpoint snapshot captured this record's effect and is
                // already durable; the record itself died with the old WAL.
                return Ok(());
            }
            if g.durable_len >= my_end {
                return Ok(());
            }
            if g.wal.len_bytes() < my_end {
                // A failed group fsync truncated this record away.
                return Err(group_io_error(
                    "group fsync failed; record rolled back from the WAL",
                ));
            }
            if !g.leader {
                g.leader = true;
                let target = g.wal.len_bytes();
                match g.wal.try_clone_file() {
                    Ok(file) => {
                        drop(g);
                        let started = Instant::now();
                        let result = file.sync_data();
                        group_metrics().fsync_us.observe_since(started);
                        g = self.lock();
                        g.leader = false;
                        Self::finish_sync(&mut g, target, result.map_err(StorageError::from));
                    }
                    Err(_) => {
                        // Cannot fsync outside the lock; do it inline. Still
                        // one fsync for the whole pending batch.
                        let started = Instant::now();
                        let result = g.wal.sync();
                        group_metrics().fsync_us.observe_since(started);
                        let target = g.wal.len_bytes();
                        g.leader = false;
                        Self::finish_sync(&mut g, target, result);
                    }
                }
                self.cond.notify_all();
                continue;
            }
            g = self.cond.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Applies the outcome of a leader fsync that targeted file length
    /// `target`. On failure, rolls the file back to the last durable offset
    /// so every in-flight appender sees its record gone and returns `Err`.
    fn finish_sync(g: &mut Inner, target: u64, result: Result<(), StorageError>) {
        match result {
            Ok(()) => {
                if target > g.durable_len {
                    g.durable_len = target;
                }
                let mut covered = 0u64;
                while matches!(g.pending.front(), Some(&end) if end <= target) {
                    g.pending.pop_front();
                    covered += 1;
                }
                if g.wal.len_bytes() == target {
                    g.wal.mark_synced();
                }
                let m = group_metrics();
                m.fsyncs_total.inc();
                m.batch_records.observe(covered);
            }
            Err(_) => {
                let durable = g.durable_len;
                g.wal.truncate_to(durable);
                g.pending.clear();
                group_metrics().rollbacks_total.inc();
            }
        }
    }

    /// Forces every pending record to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        let mut g = self.lock();
        while g.leader {
            g = self.cond.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        if g.pending.is_empty() {
            return Ok(());
        }
        let target = g.wal.len_bytes();
        let result = g.wal.sync();
        let failed = result.is_err();
        Self::finish_sync(&mut g, target, result);
        drop(g);
        self.cond.notify_all();
        if failed {
            return Err(group_io_error("sync failed; pending records rolled back"));
        }
        Ok(())
    }

    /// Replaces the WAL under the group lock (the checkpoint barrier).
    ///
    /// Waits out any in-flight leader fsync, then calls `f` with the old WAL
    /// while holding the lock — `f` encodes the snapshot, writes it
    /// atomically, and opens the next generation's WAL. On `Ok`, the old WAL
    /// is dropped, pending appenders are released (their effects live in the
    /// snapshot `f` just made durable), and the append counter resets. On
    /// `Err`, nothing changes.
    pub fn checkpoint_swap<F>(&self, f: F) -> Result<(), StorageError>
    where
        F: FnOnce(&mut Wal) -> Result<Wal, StorageError>,
    {
        let mut g = self.lock();
        while g.leader {
            g = self.cond.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        let new_wal = f(&mut g.wal)?;
        g.wal = new_wal;
        g.durable_len = g.wal.len_bytes();
        g.pending.clear();
        g.generation += 1;
        g.appends_since_swap = 0;
        drop(g);
        self.cond.notify_all();
        Ok(())
    }
}

/// A cloneable handle for appending effect records to a [`Durable`] store's
/// WAL without holding a reference to the store itself.
///
/// This is the concurrent fast path: a reader thread that mutated shared
/// interior-mutable state (e.g. a striped spent-token set) journals the
/// effect through its `Journal` while other threads do the same, and the
/// group commit batches their fsyncs. A handle from an ephemeral store
/// accepts and discards every record, so call sites need not branch on
/// whether durability is configured.
///
/// [`Durable`]: crate::Durable
#[derive(Clone, Default)]
pub struct Journal {
    wal: Option<Arc<GroupWal>>,
}

impl Journal {
    /// A journal that discards every record (ephemeral stores).
    pub fn ephemeral() -> Self {
        Journal { wal: None }
    }

    pub(crate) fn backed(wal: Arc<GroupWal>) -> Self {
        Journal { wal: Some(wal) }
    }

    /// Appends one effect record; `Err` means the record is **not** durable
    /// and the caller should undo the in-memory mutation it described.
    pub fn append(&self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
        match &self.wal {
            Some(wal) => wal.append(kind, payload),
            None => Ok(()),
        }
    }

    /// Whether records actually reach a disk (false for ephemeral handles).
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

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alpenhorn-group-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_group(path: &PathBuf, sync_every: u32) -> GroupWal {
        let (wal, _) = Wal::open(path, u32::MAX).unwrap();
        GroupWal::new(wal, sync_every, 0)
    }

    #[test]
    fn concurrent_appends_are_all_recovered() {
        let dir = tmpdir("concurrent");
        let path = dir.join("wal.log");
        let group = Arc::new(open_group(&path, 1));
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let group = Arc::clone(&group);
                s.spawn(move || {
                    for i in 0..50u8 {
                        group.append(t, &[t, i]).unwrap();
                    }
                });
            }
        });
        drop(group);
        let (_, recovery) = Wal::open(&path, 1).unwrap();
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
    fn sync_every_batches_and_explicit_sync_flushes() {
        let dir = tmpdir("batch");
        let path = dir.join("wal.log");
        let group = open_group(&path, 8);
        for i in 0..20u8 {
            group.append(0, &[i]).unwrap();
        }
        // 20 appends with sync_every=8 leaves 4 pending; explicit sync
        // flushes them.
        assert_eq!(group.lock().pending.len(), 4);
        group.sync().unwrap();
        assert_eq!(group.lock().pending.len(), 0);
        drop(group);
        let (_, recovery) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovery.records.len(), 20);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_swap_redirects_appends_to_the_new_wal() {
        let dir = tmpdir("swap");
        let old_path = dir.join("wal-0.log");
        let new_path = dir.join("wal-1.log");
        let group = open_group(&old_path, 1);
        group.append(1, b"old-a").unwrap();
        group.append(1, b"old-b").unwrap();
        group
            .checkpoint_swap(|_old| Ok(Wal::open(&new_path, u32::MAX)?.0))
            .unwrap();
        assert_eq!(group.appends_since_swap(), 0);
        group.append(2, b"new-a").unwrap();
        drop(group);
        let (_, old) = Wal::open(&old_path, 1).unwrap();
        let (_, new) = Wal::open(&new_path, 1).unwrap();
        assert_eq!(old.records.len(), 2);
        assert_eq!(new.records.len(), 1);
        assert_eq!(new.records[0].payload, b"new-a");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_checkpoint_swap_leaves_the_group_usable() {
        let dir = tmpdir("swapfail");
        let path = dir.join("wal.log");
        let group = open_group(&path, 1);
        group.append(1, b"before").unwrap();
        let err = group.checkpoint_swap(|_old| {
            Err(StorageError::BadPayload {
                context: "injected",
            })
        });
        assert!(err.is_err());
        group.append(1, b"after").unwrap();
        drop(group);
        let (_, recovery) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovery.records.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn ephemeral_journal_is_inert() {
        let journal = Journal::ephemeral();
        assert!(!journal.is_durable());
        journal.append(1, b"nowhere").unwrap();
        let cloned = journal.clone();
        cloned.append(2, b"still nowhere").unwrap();
    }
}
