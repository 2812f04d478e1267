//! The generic snapshot + log-suffix replay engine.
//!
//! [`Durable<T>`] wraps a state object implementing [`Persist`] and keeps it
//! recoverable on disk as *one snapshot generation plus a WAL suffix*:
//!
//! ```text
//! data-dir/
//!   snapshot-<gen>.snap   one checksummed record: T::encode_snapshot()
//!   wal-<gen>.log         effect records appended since that snapshot
//! ```
//!
//! Mutation protocol (a write-behind redo log): the caller mutates the live
//! state through [`Durable::state_mut`], then appends an *effect record*
//! describing the completed mutation with [`Durable::record`], at the
//! [`Durability`] class the mutation's acknowledgement needs; buffered
//! records become durable at the owner's next [`Journal::sync`]. During
//! recovery the snapshot is restored and each logged record is re-applied via
//! [`Persist::apply_record`]; effect records therefore must capture the
//! mutation's result (inserted account, advanced ratchet, refreshed
//! inactivity window), never
//! non-deterministic inputs.
//!
//! Checkpointing bumps the generation: the new snapshot is written atomically
//! (temp + fsync + rename), a fresh WAL is started, and only then are the old
//! generation's files deleted. A crash at any point leaves at least one
//! recoverable generation on disk:
//!
//! * crash mid-snapshot-write → only a `.tmp` file; the previous generation's
//!   snapshot + WAL are untouched;
//! * crash after the rename but before cleanup → both generations valid; the
//!   newest wins and the stale one is deleted on open;
//! * torn WAL tail → truncated to the last valid record (see [`crate::wal`]).
//!
//! Checkpoints are a compaction mechanism only, and they never run inside
//! [`Durable::record`]: the owner decides when a full-state encode is
//! affordable and calls [`Durable::checkpoint_if_due`] there (the
//! coordinator does so at round boundaries). A secret that must be erased
//! when it rotates does not belong in the snapshot, whose cadence follows
//! log length; keep it in its own small file replaced with
//! [`snapshot::write_atomic`] (the coordinator's `pkg-ratchets.key`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::group::{Durability, GroupWal, Journal};
use crate::record::LogRecord;
use crate::wal::Wal;
use crate::{snapshot, StorageError};

/// State that can be made durable by [`Durable`].
pub trait Persist {
    /// Encodes the complete current state for a snapshot.
    fn encode_snapshot(&self) -> Vec<u8>;

    /// Restores the complete state from a snapshot payload, replacing the
    /// receiver's contents.
    fn restore_snapshot(&mut self, payload: &[u8]) -> Result<(), StorageError>;

    /// Re-applies one logged effect record during recovery. Records arrive in
    /// append order, after the snapshot (if any) has been restored.
    fn apply_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError>;
}

/// Tuning for a durable store. (When records reach stable storage is not
/// tuning: each record names its [`Durability`] class.)
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// [`Durable::checkpoint_if_due`] checkpoints once this many records
    /// have accumulated in the WAL. Explicit [`Durable::checkpoint`] calls
    /// reset the counter too.
    pub checkpoint_every_records: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            checkpoint_every_records: 4096,
        }
    }
}

/// What recovery found on disk when opening a durable store.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Whether any prior state (snapshot or records) was recovered.
    pub recovered: bool,
    /// The snapshot generation in use after open.
    pub generation: u64,
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Number of WAL records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Bytes discarded from a torn or corrupt WAL tail.
    pub truncated_bytes: u64,
    /// Number of corrupt newer snapshot generations that were skipped before
    /// a valid one was found.
    pub snapshot_fallbacks: u32,
}

struct Backing {
    dir: PathBuf,
    wal: Arc<GroupWal>,
    generation: u64,
    config: StorageConfig,
}

/// A state object kept recoverable as snapshot + WAL suffix.
///
/// The ephemeral mode ([`Durable::ephemeral`]) keeps the exact same API with
/// no backing files, so call sites need not branch on whether durability is
/// configured.
pub struct Durable<T: Persist> {
    state: T,
    backing: Option<Backing>,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation}.snap"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// Parses `<stem>-<gen>.<ext>` file names, returning the generation.
fn parse_generation(name: &str, stem: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(stem)?
        .strip_prefix('-')?
        .strip_suffix(ext)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

impl<T: Persist> Durable<T> {
    /// Wraps `state` with no backing storage: `record` and `checkpoint` are
    /// no-ops. Used by deployments that opt out of durability (tests, the
    /// in-process simulator).
    pub fn ephemeral(state: T) -> Self {
        Durable {
            state,
            backing: None,
        }
    }

    /// Opens (creating if needed) the durable store in `dir`, recovering any
    /// existing state into `initial` as snapshot + log suffix.
    pub fn open(
        mut initial: T,
        dir: impl AsRef<Path>,
        config: StorageConfig,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut snapshot_gens = Vec::new();
        let mut wal_gens = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(gen) = parse_generation(name, "snapshot", "snap") {
                snapshot_gens.push(gen);
            } else if let Some(gen) = parse_generation(name, "wal", "log") {
                wal_gens.push(gen);
            }
        }
        snapshot_gens.sort_unstable_by(|a, b| b.cmp(a));

        let mut report = RecoveryReport::default();
        let mut generation = None;
        for &gen in &snapshot_gens {
            match snapshot::read(snapshot_path(&dir, gen)) {
                Ok(Some(payload)) => {
                    initial.restore_snapshot(&payload)?;
                    report.snapshot_loaded = true;
                    generation = Some(gen);
                    break;
                }
                // A corrupt newer generation: fall back to the previous one
                // (its files are still present — cleanup only runs after a
                // newer snapshot is durable).
                Ok(None) | Err(StorageError::Corrupt(_)) => report.snapshot_fallbacks += 1,
                Err(e) => return Err(e),
            }
        }
        // No valid snapshot. That is only legitimate before the first
        // checkpoint (a bare `wal-0.log` over the initial state); if
        // snapshot files exist but none decodes, the WAL suffix alone is NOT
        // the state — refuse to "recover" into a silently emptied deployment
        // (and leave every file untouched for offline repair).
        if generation.is_none() && !snapshot_gens.is_empty() {
            return Err(StorageError::BadPayload {
                context: "every snapshot generation is corrupt; refusing to recover from the \
                          WAL suffix alone (files left in place for offline repair)",
            });
        }
        let generation = generation.unwrap_or_else(|| wal_gens.iter().copied().max().unwrap_or(0));
        report.generation = generation;

        let (wal, wal_recovery) = Wal::open(wal_path(&dir, generation))?;
        for LogRecord { kind, payload } in &wal_recovery.records {
            initial.apply_record(*kind, payload)?;
        }
        report.records_replayed = wal_recovery.records.len();
        report.truncated_bytes = wal_recovery.truncated_bytes;
        report.recovered = report.snapshot_loaded || report.records_replayed > 0;

        let replayed = wal_recovery.records.len() as u64;
        let mut durable = Durable {
            state: initial,
            backing: Some(Backing {
                dir,
                wal: Arc::new(GroupWal::new(wal, replayed)),
                generation,
                config,
            }),
        };
        durable.cleanup_stale_generations();
        Ok((durable, report))
    }

    /// Removes files from generations *older* than the live one, plus
    /// leftover snapshot temp files. Files from newer generations are kept:
    /// after a corrupt-snapshot fallback, the newer generation's WAL holds
    /// valid records that exist nowhere else, and deleting them would
    /// foreclose offline repair. (A later checkpoint into that generation
    /// number atomically replaces its snapshot and clears its WAL anyway.)
    /// Best-effort: a failure here only costs disk.
    fn cleanup_stale_generations(&mut self) {
        let Some(backing) = &self.backing else { return };
        let Ok(entries) = std::fs::read_dir(&backing.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = match (
                parse_generation(name, "snapshot", "snap"),
                parse_generation(name, "wal", "log"),
            ) {
                (Some(gen), _) | (_, Some(gen)) => gen < backing.generation,
                _ => name.ends_with(".tmp"),
            };
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The wrapped state.
    pub fn state(&self) -> &T {
        &self.state
    }

    /// Mutable access to the wrapped state. Callers that change durable state
    /// must follow the mutation with a [`Durable::record`] describing it, or
    /// the change will not survive a restart.
    pub fn state_mut(&mut self) -> &mut T {
        &mut self.state
    }

    /// Whether this store has backing files (false for ephemeral).
    pub fn is_durable(&self) -> bool {
        self.backing.is_some()
    }

    /// The live snapshot generation (0 for ephemeral stores).
    pub fn generation(&self) -> u64 {
        self.backing.as_ref().map_or(0, |b| b.generation)
    }

    /// The data directory (`None` for ephemeral stores).
    pub fn dir(&self) -> Option<&Path> {
        self.backing.as_ref().map(|b| b.dir.as_path())
    }

    /// Appends one effect record describing an already-applied mutation, at
    /// `durability` (see [`GroupWal::append`]). Never checkpoints: compaction
    /// runs only where the owner calls [`Durable::checkpoint_if_due`], so no
    /// append pays for a full-state encode.
    ///
    /// An `Err` means the record is **not** in the log (the WAL rolls a
    /// failed append back), so callers may undo the in-memory mutation and
    /// have the client retry. Takes `&self`: appends serialize on the WAL's
    /// own mutex, so owners that mutate interior-mutable state under a
    /// shared borrow journal it the same way.
    pub fn record(
        &self,
        kind: u8,
        payload: &[u8],
        durability: Durability,
    ) -> Result<(), StorageError> {
        match &self.backing {
            Some(backing) => backing.wal.append(kind, payload, durability),
            None => Ok(()),
        }
    }

    /// Checkpoints if at least [`StorageConfig::checkpoint_every_records`]
    /// records have been appended since the last checkpoint. On failure the
    /// counter stays above the threshold, so the next call retries.
    pub fn checkpoint_if_due(&mut self) -> Result<(), StorageError> {
        match &self.backing {
            Some(backing)
                if backing.wal.appends_since_swap() >= backing.config.checkpoint_every_records =>
            {
                self.checkpoint()
            }
            _ => Ok(()),
        }
    }

    /// A cloneable handle that syncs this store's WAL without borrowing the
    /// store (see [`Journal`]); handles from ephemeral stores sync nothing.
    pub fn journal(&self) -> Journal {
        match &self.backing {
            Some(backing) => Journal::backed(Arc::clone(&backing.wal)),
            None => Journal::ephemeral(),
        }
    }

    /// Writes a fresh snapshot generation and starts an empty WAL, then
    /// deletes the previous generation's files (compaction). No-op for
    /// ephemeral stores.
    ///
    /// Failure-atomic: if starting the new generation's WAL fails after its
    /// snapshot was written, the snapshot is removed again before returning,
    /// so a process that keeps journalling to the old generation can never
    /// be shadowed by a newer frozen snapshot at the next recovery.
    /// Concurrency: this takes `&mut self` and [`Durable::record`] takes
    /// `&self`, so no record of this store is appended during a checkpoint.
    /// An owner that records from many threads shares the store behind a
    /// lock whose exclusive side checkpoints (the coordinator's service
    /// lock): each record is then either captured by the snapshot or
    /// appended to the new generation's WAL. The snapshot is also encoded
    /// under the WAL mutex ([`GroupWal::checkpoint_swap`]), so a swap and an
    /// append never interleave inside the WAL.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        let Some(backing) = &mut self.backing else {
            return Ok(());
        };
        let state = &self.state;
        let next = backing.generation + 1;
        let dir = backing.dir.clone();
        backing.wal.checkpoint_swap(|| {
            let payload = state.encode_snapshot();
            let next_snapshot_path = snapshot_path(&dir, next);
            snapshot::write_atomic(&next_snapshot_path, &payload)?;
            // A crashed earlier attempt at this generation may have left a
            // WAL; it contains nothing the fresh snapshot does not, so
            // clear it.
            let next_wal_path = wal_path(&dir, next);
            let _ = std::fs::remove_file(&next_wal_path);
            match Wal::open(next_wal_path) {
                Ok((wal, _)) => Ok(wal),
                Err(e) => {
                    let _ = std::fs::remove_file(&next_snapshot_path);
                    Err(e)
                }
            }
        })?;
        let old = backing.generation;
        backing.generation = next;
        let _ = std::fs::remove_file(wal_path(&backing.dir, old));
        let _ = std::fs::remove_file(snapshot_path(&backing.dir, old));
        Ok(())
    }

    /// WAL fsyncs this store has issued since it was opened (0 for
    /// ephemeral stores).
    pub fn fsyncs(&self) -> u64 {
        self.backing.as_ref().map_or(0, |b| b.wal.fsyncs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_wire::{Decoder, Encoder};

    /// A toy durable state: an append-only tally of (key, amount) additions.
    #[derive(Default, Debug, PartialEq)]
    struct Tally {
        totals: std::collections::BTreeMap<u8, u64>,
    }

    const ADD: u8 = 1;

    impl Tally {
        fn add(&mut self, key: u8, amount: u64) -> (u8, Vec<u8>) {
            *self.totals.entry(key).or_default() += amount;
            let mut e = Encoder::new();
            e.put_u8(key).put_u64(amount);
            (ADD, e.finish())
        }
    }

    impl Persist for Tally {
        fn encode_snapshot(&self) -> Vec<u8> {
            let mut e = Encoder::new();
            e.put_u32(self.totals.len() as u32);
            for (key, total) in &self.totals {
                e.put_u8(*key).put_u64(*total);
            }
            e.finish()
        }

        fn restore_snapshot(&mut self, payload: &[u8]) -> Result<(), StorageError> {
            let mut d = Decoder::new(payload);
            let count = d.get_u32("tally count")?;
            let mut totals = std::collections::BTreeMap::new();
            for _ in 0..count {
                let key = d.get_u8("tally key")?;
                let total = d.get_u64("tally total")?;
                totals.insert(key, total);
            }
            d.finish()?;
            self.totals = totals;
            Ok(())
        }

        fn apply_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
            if kind != ADD {
                return Err(StorageError::UnknownRecordKind { kind });
            }
            let mut d = Decoder::new(payload);
            let key = d.get_u8("add key")?;
            let amount = d.get_u64("add amount")?;
            d.finish()?;
            *self.totals.entry(key).or_default() += amount;
            Ok(())
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alpenhorn-durable-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn commit(d: &mut Durable<Tally>, key: u8, amount: u64) {
        let (kind, payload) = d.state_mut().add(key, amount);
        d.record(kind, &payload, Durability::Synced).unwrap();
    }

    fn commit_buffered(d: &mut Durable<Tally>, key: u8, amount: u64) {
        let (kind, payload) = d.state_mut().add(key, amount);
        d.record(kind, &payload, Durability::Buffered).unwrap();
    }

    #[test]
    fn recovery_replays_snapshot_plus_suffix() {
        let dir = tmpdir("replay");
        {
            let (mut d, report) =
                Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
            assert!(!report.recovered);
            commit(&mut d, 1, 10);
            commit(&mut d, 2, 20);
            d.checkpoint().unwrap();
            commit(&mut d, 1, 5); // suffix after the snapshot
        }
        let (d, report) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert!(report.recovered);
        assert!(report.snapshot_loaded);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(d.state().totals.get(&1), Some(&15));
        assert_eq!(d.state().totals.get(&2), Some(&20));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_without_snapshot_replays_bare_wal() {
        let dir = tmpdir("bare");
        {
            let (mut d, _) =
                Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
            commit(&mut d, 7, 7);
        }
        let (d, report) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(d.state().totals.get(&7), Some(&7));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_compacts_the_wal() {
        let dir = tmpdir("auto");
        let config = StorageConfig {
            checkpoint_every_records: 4,
        };
        let (mut d, _) = Durable::open(Tally::default(), &dir, config).unwrap();
        d.checkpoint_if_due().unwrap();
        assert_eq!(d.generation(), 0, "nothing due on an empty WAL");
        for i in 0..10 {
            commit(&mut d, 1, i);
        }
        assert_eq!(d.generation(), 0, "appends never checkpoint by themselves");
        d.checkpoint_if_due().unwrap();
        assert_eq!(d.generation(), 1, "ten records are past the threshold");
        d.checkpoint_if_due().unwrap();
        assert_eq!(d.generation(), 1, "the checkpoint reset the counter");
        for i in 10..13 {
            commit(&mut d, 1, i);
        }
        d.checkpoint_if_due().unwrap();
        assert_eq!(d.generation(), 1, "three records are below the threshold");
        drop(d);
        let (d, report) = Durable::open(Tally::default(), &dir, config).unwrap();
        assert_eq!(d.state().totals.get(&1), Some(&78));
        assert_eq!(report.records_replayed, 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn buffered_records_survive_reopen_sync_and_checkpoints() {
        let dir = tmpdir("buffered");
        {
            let (mut d, _) =
                Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
            for i in 0..5 {
                commit_buffered(&mut d, 1, i);
            }
            assert_eq!(d.fsyncs(), 0, "buffered records wait for a sync");
        }
        // Dropping the store is a process exit: the OS still holds the
        // buffered records, so a clean reopen replays every one.
        let (mut d, report) =
            Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(d.state().totals.get(&1), Some(&10));

        commit_buffered(&mut d, 2, 7);
        commit_buffered(&mut d, 2, 8);
        d.journal().sync().unwrap();
        assert_eq!(d.fsyncs(), 1, "one sync covers both buffered records");
        d.journal().sync().unwrap();
        assert_eq!(d.fsyncs(), 1, "and a second sync has nothing to do");

        // A checkpoint captures buffered effects in its snapshot without
        // syncing the WAL they were appended to.
        commit_buffered(&mut d, 3, 30);
        d.checkpoint().unwrap();
        assert_eq!(d.fsyncs(), 1);
        drop(d);
        let (d, report) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(d.state().totals.get(&1), Some(&10));
        assert_eq!(d.state().totals.get(&2), Some(&15));
        assert_eq!(d.state().totals.get(&3), Some(&30));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous_generation() {
        let dir = tmpdir("fallback");
        let (mut d, _) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        commit(&mut d, 1, 100);
        d.checkpoint().unwrap(); // generation 1
        let gen1_snap = snapshot_path(&dir, 1);
        let gen1_bytes = std::fs::read(&gen1_snap).unwrap();
        commit(&mut d, 2, 200);
        d.checkpoint().unwrap(); // generation 2
        drop(d);
        // Corrupt generation 2's snapshot and resurrect generation 1's files
        // (as if cleanup had not run before the corruption hit).
        let gen2_snap = snapshot_path(&dir, 2);
        let mut bytes = std::fs::read(&gen2_snap).unwrap();
        let byte = bytes.len() - 1;
        bytes[byte] ^= 0xff;
        std::fs::write(&gen2_snap, &bytes).unwrap();
        std::fs::write(&gen1_snap, &gen1_bytes).unwrap();
        std::fs::write(wal_path(&dir, 1), b"").unwrap();

        let (d, report) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.generation, 1);
        assert_eq!(d.state().totals.get(&1), Some(&100));
        assert_eq!(d.state().totals.get(&2), None);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn all_snapshots_corrupt_refuses_to_recover_and_preserves_files() {
        // With every snapshot generation corrupt, the WAL suffix alone is
        // not the state: open must fail (not serve an emptied deployment)
        // and must leave the files in place for offline repair.
        let dir = tmpdir("allcorrupt");
        {
            let (mut d, _) =
                Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
            commit(&mut d, 1, 10);
            d.checkpoint().unwrap();
            commit(&mut d, 1, 5);
        }
        let snap = snapshot_path(&dir, 1);
        let mut bytes = std::fs::read(&snap).unwrap();
        let byte = bytes.len() / 2;
        bytes[byte] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();

        assert!(matches!(
            Durable::open(Tally::default(), &dir, StorageConfig::default()),
            Err(StorageError::BadPayload { .. })
        ));
        assert!(snap.exists(), "corrupt snapshot preserved for repair");
        assert!(
            wal_path(&dir, 1).exists(),
            "WAL suffix preserved for repair"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mid_snapshot_crash_leaves_previous_generation_intact() {
        let dir = tmpdir("midsnap");
        {
            let (mut d, _) =
                Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
            commit(&mut d, 3, 30);
            d.checkpoint().unwrap();
            commit(&mut d, 3, 3);
        }
        // Simulate a crash mid-checkpoint: a half-written snapshot temp file
        // for the next generation, rename never happened.
        std::fs::write(dir.join("snapshot-2.tmp"), b"AL\x01\xffgarbage").unwrap();
        let (d, report) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(d.state().totals.get(&3), Some(&33));
        assert!(!dir.join("snapshot-2.tmp").exists(), "tmp cleaned up");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn ephemeral_mode_is_inert() {
        let mut d = Durable::ephemeral(Tally::default());
        commit(&mut d, 1, 1);
        d.checkpoint().unwrap();
        d.journal().sync().unwrap();
        assert!(!d.is_durable());
        assert_eq!(d.state().totals.get(&1), Some(&1));
        assert!(!d.journal().is_durable());
    }

    /// A buffered record made durable through the journal handle (the
    /// close barrier's path) survives a restart.
    #[test]
    fn journal_handle_records_survive_restart() {
        let dir = tmpdir("journal");
        {
            let (mut d, _) =
                Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
            let journal = d.journal();
            let (kind, payload) = d.state_mut().add(4, 40);
            d.record(kind, &payload, Durability::Buffered).unwrap();
            assert_eq!(d.fsyncs(), 0);
            journal.sync().unwrap();
            assert_eq!(d.fsyncs(), 1);
        }
        let (d, report) = Durable::open(Tally::default(), &dir, StorageConfig::default()).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(d.state().totals.get(&4), Some(&40));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A set of serials mutated through shared references, the way the
    /// coordinator's PKG path refreshes accounts under its service read
    /// lock: insert first, then record the (idempotent) effect.
    #[derive(Default)]
    struct SerialSet {
        serials: std::sync::Mutex<std::collections::BTreeSet<u64>>,
    }

    const INSERT: u8 = 9;

    impl SerialSet {
        fn insert(&self, serial: u64) -> (u8, Vec<u8>) {
            self.serials.lock().unwrap().insert(serial);
            let mut e = Encoder::new();
            e.put_u64(serial);
            (INSERT, e.finish())
        }
    }

    impl Persist for SerialSet {
        fn encode_snapshot(&self) -> Vec<u8> {
            let serials = self.serials.lock().unwrap();
            let mut e = Encoder::new();
            e.put_u32(serials.len() as u32);
            for serial in serials.iter() {
                e.put_u64(*serial);
            }
            e.finish()
        }

        fn restore_snapshot(&mut self, payload: &[u8]) -> Result<(), StorageError> {
            let mut d = Decoder::new(payload);
            let count = d.get_u32("serial count")?;
            let mut serials = std::collections::BTreeSet::new();
            for _ in 0..count {
                serials.insert(d.get_u64("serial")?);
            }
            d.finish()?;
            *self.serials.get_mut().unwrap() = serials;
            Ok(())
        }

        fn apply_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
            if kind != INSERT {
                return Err(StorageError::UnknownRecordKind { kind });
            }
            let mut d = Decoder::new(payload);
            let serial = d.get_u64("serial")?;
            d.finish()?;
            self.serials.get_mut().unwrap().insert(serial);
            Ok(())
        }
    }

    /// Effects recorded by concurrent threads through [`Durable::record`]
    /// are never lost across the generation swaps of checkpoints taken
    /// between them — each one is either captured by a snapshot or replayed
    /// from the live WAL suffix. The threads record under a read lock and
    /// the checkpoints take the write lock, as the coordinator's PKG path
    /// records under its service read lock and its round close checkpoints
    /// under the write lock.
    #[test]
    fn concurrent_journal_with_checkpoints_recovers_every_effect() {
        let dir = tmpdir("barrier");
        let shared: Arc<SerialSet> = Arc::new(SerialSet::default());
        // `Durable` owns its state; wrap the Arc so the recording threads and
        // the recovery machinery mutate the same shared set.
        struct SharedSet(Arc<SerialSet>);
        impl Persist for SharedSet {
            fn encode_snapshot(&self) -> Vec<u8> {
                self.0.encode_snapshot()
            }
            fn restore_snapshot(&mut self, payload: &[u8]) -> Result<(), StorageError> {
                let mut inner = SerialSet::default();
                inner.restore_snapshot(payload)?;
                let restored = std::mem::take(inner.serials.get_mut().unwrap());
                *self.0.serials.lock().unwrap() = restored;
                Ok(())
            }
            fn apply_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
                let mut inner = SerialSet::default();
                inner.apply_record(kind, payload)?;
                let applied = std::mem::take(inner.serials.get_mut().unwrap());
                self.0.serials.lock().unwrap().extend(applied);
                Ok(())
            }
        }
        {
            let (d, _) = Durable::open(
                SharedSet(Arc::clone(&shared)),
                &dir,
                StorageConfig::default(),
            )
            .unwrap();
            let d = std::sync::RwLock::new(d);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let d = &d;
                    let shared = Arc::clone(&shared);
                    s.spawn(move || {
                        for i in 0..25u64 {
                            let d = d.read().unwrap();
                            let (kind, payload) = shared.insert(t * 1000 + i);
                            d.record(kind, &payload, Durability::Buffered).unwrap();
                        }
                    });
                }
                // Checkpoint repeatedly while the recorders run.
                for _ in 0..5 {
                    d.write().unwrap().checkpoint().unwrap();
                }
            });
            d.write().unwrap().checkpoint().unwrap();
        }
        let recovered: Arc<SerialSet> = Arc::new(SerialSet::default());
        let (_, report) = Durable::open(
            SharedSet(Arc::clone(&recovered)),
            &dir,
            StorageConfig::default(),
        )
        .unwrap();
        assert!(report.recovered);
        let serials = recovered.serials.lock().unwrap();
        assert_eq!(serials.len(), 100, "every journalled effect recovered");
        for t in 0..4u64 {
            for i in 0..25u64 {
                assert!(serials.contains(&(t * 1000 + i)));
            }
        }
        drop(serials);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
