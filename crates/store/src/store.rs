//! The store directory: snapshot files + WAL, with atomic publication,
//! checkpointing and recovery.
//!
//! ```text
//! <dir>/
//!   snapshot-00000000000000000042.tqs   one engine image per checkpoint
//!   snapshot-00000000000000000117.tqs   (newest valid one wins on open)
//!   wal.tql                             Update batches since the newest
//! ```
//!
//! Invariants the layout maintains:
//!
//! * a snapshot file becomes visible **atomically** (written to a `.tmp`
//!   name, fsynced, renamed into place, directory fsynced) — a reader or
//!   a crash never observes a half-written snapshot under its final name;
//! * the WAL is truncated only **after** the checkpoint snapshot is
//!   durably in place, so every state is recoverable at every instant:
//!   a crash between the two leaves a new snapshot plus the *previous*
//!   checkpoint's WAL, which recovery discards by its lineage header
//!   (and would skip record-by-record via epoch stamps regardless);
//! * opening never trusts file names: each candidate snapshot (newest
//!   epoch first) is read and CRC-verified — read errors count as
//!   corruption — and the first valid one is used, so a corrupt latest
//!   snapshot degrades to the previous checkpoint instead of failing the
//!   open. The WAL replays only onto the exact checkpoint it continues
//!   ([`wal`] module docs): records of a lost newer lineage are
//!   discarded rather than silently replayed onto older state.

use crate::snapshot::{self, SnapshotFile, SnapshotMeta};
use crate::wal::{self, SyncPolicy, WalRecord, WalSummary, WalWriter};
use crate::StoreError;
use bytes::Bytes;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Registry handles for the store's metrics, interned once. WAL append
/// latency includes the fsync when the [`SyncPolicy`] syncs per append —
/// that *is* the acknowledged-batch durability cost operators care about.
struct StoreMetrics {
    wal_appends: &'static tq_obs::Counter,
    wal_append_ns: &'static tq_obs::Histogram,
    wal_bytes: &'static tq_obs::Counter,
    checkpoints: &'static tq_obs::Counter,
    checkpoint_stage_ns: &'static tq_obs::Histogram,
    checkpoint_commit_ns: &'static tq_obs::Histogram,
    checkpoint_bytes: &'static tq_obs::Gauge,
    recoveries: &'static tq_obs::Counter,
    recovery_ns: &'static tq_obs::Histogram,
    recovery_wal_records: &'static tq_obs::Gauge,
}

fn metrics() -> &'static StoreMetrics {
    static M: OnceLock<StoreMetrics> = OnceLock::new();
    M.get_or_init(|| StoreMetrics {
        wal_appends: tq_obs::counter("tq_wal_appends_total", ""),
        wal_append_ns: tq_obs::histogram("tq_wal_append_ns", ""),
        wal_bytes: tq_obs::counter("tq_wal_bytes_total", ""),
        checkpoints: tq_obs::counter("tq_checkpoints_total", ""),
        checkpoint_stage_ns: tq_obs::histogram("tq_checkpoint_stage_ns", ""),
        checkpoint_commit_ns: tq_obs::histogram("tq_checkpoint_commit_ns", ""),
        checkpoint_bytes: tq_obs::gauge("tq_checkpoint_bytes", ""),
        recoveries: tq_obs::counter("tq_recoveries_total", ""),
        recovery_ns: tq_obs::histogram("tq_recovery_ns", ""),
        recovery_wal_records: tq_obs::gauge("tq_recovery_wal_records", ""),
    })
}

/// Name of the WAL file inside a store directory.
pub const WAL_FILE: &str = "wal.tql";
/// Prefix of snapshot files inside a store directory.
pub const SNAPSHOT_PREFIX: &str = "snapshot-";
/// Extension of snapshot files.
pub const SNAPSHOT_EXT: &str = "tqs";
/// Scratch name a WAL rebase writes before renaming over [`WAL_FILE`].
const WAL_REBASE_FILE: &str = "wal.tql.new";

/// Tunables of a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// When WAL appends reach the disk ([`SyncPolicy::Always`] by
    /// default: an acknowledged batch is a durable batch).
    pub sync: SyncPolicy,
    /// Auto-checkpoint threshold: after this many WAL batches the engine
    /// writes a fresh snapshot and truncates the WAL on its own. `0`
    /// disables the threshold (checkpoints happen only on explicit
    /// `Engine::checkpoint` calls).
    pub checkpoint_every: usize,
    /// How many snapshot files to retain after a checkpoint (at least 1;
    /// keeping 2 means a corrupt newest snapshot still recovers from the
    /// previous one).
    pub keep_snapshots: usize,
    /// Run threshold auto-checkpoints on a background thread instead of
    /// the write path: the engine encodes the image from its published
    /// immutable snapshot and stages it to disk off-thread, so an apply
    /// that trips [`StoreConfig::checkpoint_every`] acks without waiting
    /// for the snapshot write. Update batches appended while the image is
    /// staging are rebased onto the new checkpoint when it commits
    /// ([`Store::commit_snapshot`]). Explicit checkpoints stay
    /// synchronous. Off by default.
    pub background_checkpoints: bool,
    /// Age-based checkpoint scheduling: once the newest checkpoint is
    /// older than this *and* the WAL holds at least one batch, the store
    /// reports a checkpoint due ([`Store::checkpoint_due_by_age`]) even
    /// though [`StoreConfig::checkpoint_every`] hasn't tripped — so a
    /// long-idle primary still compacts its log instead of carrying a
    /// short WAL tail forever. The timer is *polled*, not threaded: the
    /// single-writer funnel's housekeeping tick asks under the writer's
    /// lock and routes a due checkpoint through the same (background, when
    /// configured) path as the batch-count threshold. `None` (the
    /// default) disables it.
    pub checkpoint_max_age: Option<Duration>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            sync: SyncPolicy::Always,
            checkpoint_every: 512,
            keep_snapshots: 2,
            background_checkpoints: false,
            checkpoint_max_age: None,
        }
    }
}

/// What [`Store::open`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// The newest valid snapshot.
    pub snapshot: SnapshotFile,
    /// The *replayable* WAL records: the valid prefix of a log whose
    /// lineage header matches the recovered snapshot (empty otherwise).
    /// Records at or below the snapshot epoch are already reflected in
    /// the snapshot and must still be skipped by the replayer.
    pub wal_records: Vec<WalRecord>,
    /// The WAL read summary (tail/lineage diagnostics).
    pub wal_summary: WalSummary,
}

/// An open store directory: the durable half of an engine.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    writer: WalWriter,
    wal_batches: usize,
    last_checkpoint: Instant,
}

/// Lists `(epoch, path)` of every well-named snapshot file, newest first
/// — the one listing recovery ([`Store::open`]), diagnostics (`inspect`)
/// *and* replication catch-up use, so none of them can disagree about
/// what a store contains.
pub fn snapshot_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|s| s.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
        else {
            continue;
        };
        if let Ok(epoch) = stem.parse::<u64>() {
            out.push((epoch, path));
        }
    }
    out.sort_by_key(|(epoch, _)| std::cmp::Reverse(*epoch));
    Ok(out)
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{epoch:020}.{SNAPSHOT_EXT}"))
}

/// Removes `snapshot-*.tmp` and `wal.tql.new` leftovers of interrupted
/// checkpoints. They are invisible to recovery (never under their final
/// names) but would otherwise leak one full engine image per crashed
/// checkpoint forever.
fn remove_stale_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let is_stale_tmp = path.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
            (n.starts_with(SNAPSHOT_PREFIX) && n.ends_with(".tmp")) || n == WAL_REBASE_FILE
        });
        if is_stale_tmp {
            let _ = fs::remove_file(path);
        }
    }
}

/// Best-effort directory fsync (makes the rename itself durable; not
/// supported on every platform, hence not fatal).
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Store {
    /// Creates a fresh store in `dir` (creating the directory if needed).
    /// Refuses with [`StoreError::AlreadyExists`] when the directory
    /// already holds a store — open that with `Engine::open` instead of
    /// silently overwriting its history.
    pub fn create(dir: &Path, config: StoreConfig) -> Result<Store, StoreError> {
        fs::create_dir_all(dir)?;
        remove_stale_tmp(dir);
        if !snapshot_files(dir)?.is_empty() || dir.join(WAL_FILE).exists() {
            return Err(StoreError::AlreadyExists(dir.to_path_buf()));
        }
        // Parent epoch 0 is a placeholder: the caller's first checkpoint
        // recreates the log bound to the real snapshot epoch, and records
        // without any snapshot can never replay anyway.
        let writer = WalWriter::create(&dir.join(WAL_FILE), 0, config.sync)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            config,
            writer,
            wal_batches: 0,
            last_checkpoint: Instant::now(),
        })
    }

    /// Seeds a store directory from a received snapshot image — the
    /// follower side of replication bootstrap. Writes the image under its
    /// final `snapshot-{epoch}.tqs` name (atomic tmp + rename, synced)
    /// and a fresh empty WAL bound to it, after which a normal
    /// `Engine::open` recovers the transferred state exactly. Refuses a
    /// directory that already holds a store, like [`Store::create`].
    pub fn bootstrap(
        dir: &Path,
        config: StoreConfig,
        epoch: u64,
        snapshot_bytes: &[u8],
    ) -> Result<(), StoreError> {
        fs::create_dir_all(dir)?;
        remove_stale_tmp(dir);
        if !snapshot_files(dir)?.is_empty() || dir.join(WAL_FILE).exists() {
            return Err(StoreError::AlreadyExists(dir.to_path_buf()));
        }
        // Validate before publishing: a corrupted transfer must fail the
        // bootstrap, not plant a snapshot recovery will refuse later.
        let decoded = snapshot::decode(Bytes::from(snapshot_bytes.to_vec()))?;
        if decoded.meta.epoch != epoch {
            return Err(StoreError::Corrupt(format!(
                "bootstrap snapshot declares epoch {}, transfer said {epoch}",
                decoded.meta.epoch
            )));
        }
        let tmp_path = snapshot_path(dir, epoch).with_extension("tmp");
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(snapshot_bytes)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp_path, snapshot_path(dir, epoch))?;
        sync_dir(dir);
        WalWriter::create(&dir.join(WAL_FILE), epoch, config.sync)?;
        Ok(())
    }

    /// Opens an existing store: picks the newest snapshot that passes
    /// CRC validation (falling back to older ones), reads the WAL's
    /// longest valid prefix, truncates any torn tail so subsequent
    /// appends extend the valid prefix, and returns both.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<(Store, Recovered), StoreError> {
        let start = Instant::now();
        remove_stale_tmp(dir);
        let candidates = snapshot_files(dir)?;
        if candidates.is_empty() {
            return Err(StoreError::NoSnapshot);
        }
        let mut snapshot = None;
        for (_, path) in &candidates {
            // A read error is treated exactly like a CRC failure: disk rot
            // often surfaces as EIO, and the point of keeping older
            // checkpoints is surviving precisely that.
            let Ok(raw) = fs::read(path) else { continue };
            match snapshot::decode(Bytes::from(raw)) {
                Ok(file) => {
                    snapshot = Some(file);
                    break;
                }
                Err(_) => continue, // corrupt — try the previous checkpoint
            }
        }
        let snapshot = snapshot.ok_or(StoreError::NoSnapshot)?;

        let epoch = snapshot.meta.epoch;
        let wal_path = dir.join(WAL_FILE);
        let (wal_records, wal_summary, writer) = if wal_path.exists() {
            let (records, mut summary) = wal::read(&wal_path)?;
            if summary.parent_epoch.is_some_and(|parent| parent <= epoch) {
                // Exact lineage, or an *ancestor*: the log is bound to an
                // older checkpoint of the same linear history (a crash
                // landed between a background checkpoint's snapshot
                // rename and its WAL rebase). The snapshot descends from
                // every record at or below its epoch, so the replayer's
                // stamp skip lands exactly on the suffix the snapshot
                // lacks.
                let writer = WalWriter::open_after_recovery(
                    &wal_path,
                    summary.valid_bytes,
                    summary.parent_epoch.unwrap_or(epoch),
                    config.sync,
                )?;
                (records, summary, writer)
            } else {
                // The log continues a *newer* checkpoint, now lost to
                // corruption. Its records presuppose state this snapshot
                // does not have — replaying them would silently corrupt
                // the engine — so recovery lands on this checkpoint's
                // exact state and the log restarts bound to it.
                summary.tail_note = Some(format!(
                    "records discarded: log continues checkpoint epoch {:?}, \
                     recovered snapshot is epoch {epoch}",
                    summary.parent_epoch
                ));
                let writer = WalWriter::create(&wal_path, epoch, config.sync)?;
                (Vec::new(), summary, writer)
            }
        } else {
            // A store without a WAL (e.g. copied snapshot only) is a
            // store with zero pending batches.
            let writer = WalWriter::create(&wal_path, epoch, config.sync)?;
            (
                Vec::new(),
                WalSummary {
                    parent_epoch: Some(epoch),
                    records: 0,
                    valid_bytes: 0,
                    total_bytes: 0,
                    epoch_range: None,
                    tail_note: None,
                },
                writer,
            )
        };
        let store = Store {
            dir: dir.to_path_buf(),
            config,
            writer,
            // Records the snapshot already contains don't count against
            // the next checkpoint threshold.
            wal_batches: wal_records.iter().filter(|r| r.epoch > epoch).count(),
            // File mtimes are not trustworthy across hosts; age-based
            // scheduling restarts its clock at open.
            last_checkpoint: Instant::now(),
        };
        metrics().recovery_ns.record(start.elapsed());
        metrics().recoveries.incr();
        metrics().recovery_wal_records.set(wal_records.len() as u64);
        Ok((
            store,
            Recovered {
                snapshot,
                wal_records,
                wal_summary,
            },
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of batches currently in the WAL (since the last checkpoint).
    pub fn wal_batches(&self) -> usize {
        self.wal_batches
    }

    /// Whether the auto-checkpoint threshold has been reached.
    pub fn should_checkpoint(&self) -> bool {
        self.config.checkpoint_every > 0 && self.wal_batches >= self.config.checkpoint_every
    }

    /// Whether [`StoreConfig::checkpoint_max_age`] has elapsed since the
    /// last checkpoint (or open) with batches still sitting in the WAL.
    /// Always `false` when no age is configured or the WAL is empty — an
    /// idle store with nothing to compact never churns snapshots.
    pub fn checkpoint_due_by_age(&self) -> bool {
        self.config
            .checkpoint_max_age
            .is_some_and(|age| self.wal_batches > 0 && self.last_checkpoint.elapsed() >= age)
    }

    /// Appends one encoded batch to the WAL (fsynced per the
    /// [`SyncPolicy`]). Called *before* the batch publishes.
    pub fn append_batch(&mut self, epoch: u64, payload: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        self.writer.append(epoch, payload)?;
        metrics().wal_append_ns.record(start.elapsed());
        self.wal_batches += 1;
        metrics().wal_appends.incr();
        metrics().wal_bytes.add(payload.len() as u64);
        Ok(())
    }

    /// Checkpoints: durably writes a new snapshot (atomic tmp + rename),
    /// **then** rebases the WAL onto it and prunes snapshots beyond
    /// [`StoreConfig::keep_snapshots`]. Returns the snapshot path.
    pub fn checkpoint(&mut self, meta: &SnapshotMeta, body: &[u8]) -> Result<PathBuf, StoreError> {
        let tmp_path = Store::stage_snapshot(&self.dir, meta, body)?;
        self.commit_snapshot(meta.epoch, &tmp_path)
    }

    /// The slow half of a checkpoint: encodes and durably writes the
    /// snapshot image under its `.tmp` name. Needs no store handle — a
    /// background checkpoint runs this without blocking WAL appends; the
    /// image becomes part of the store only at [`Store::commit_snapshot`].
    pub fn stage_snapshot(
        dir: &Path,
        meta: &SnapshotMeta,
        body: &[u8],
    ) -> Result<PathBuf, StoreError> {
        let start = Instant::now();
        let tmp_path = snapshot_path(dir, meta.epoch).with_extension("tmp");
        let encoded = snapshot::encode(meta, body);
        metrics().checkpoint_bytes.set(encoded.len() as u64);
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(encoded.as_ref())?;
        f.sync_data()?;
        metrics().checkpoint_stage_ns.record(start.elapsed());
        Ok(tmp_path)
    }

    /// The fast half of a checkpoint: renames a staged snapshot into
    /// place, **then** rebases the WAL onto it — batches appended while
    /// the image was staging (stamped above `epoch`) are carried into a
    /// fresh log bound to the new checkpoint; the rest are dropped. Both
    /// transitions are rename-atomic, and a crash between them leaves the
    /// old log as a valid *ancestor* lineage that [`Store::open`] still
    /// replays, so no acknowledged batch is ever lost.
    pub fn commit_snapshot(&mut self, epoch: u64, tmp_path: &Path) -> Result<PathBuf, StoreError> {
        let start = Instant::now();
        let final_path = snapshot_path(&self.dir, epoch);
        fs::rename(tmp_path, &final_path)?;
        sync_dir(&self.dir);

        let wal_path = self.dir.join(WAL_FILE);
        let (records, _) = wal::read(&wal_path)?;
        let rebase_path = self.dir.join(WAL_REBASE_FILE);
        let mut writer = WalWriter::create(&rebase_path, epoch, self.config.sync)?;
        let mut survivors = 0usize;
        for record in records.iter().filter(|r| r.epoch > epoch) {
            writer.append(record.epoch, record.payload.as_ref())?;
            survivors += 1;
        }
        writer.sync()?;
        fs::rename(&rebase_path, &wal_path)?;
        sync_dir(&self.dir);
        // The writer's descriptor follows the rename: it now appends to
        // the live `wal.tql`.
        self.writer = writer;
        self.wal_batches = survivors;
        self.last_checkpoint = Instant::now();

        for (_, stale) in snapshot_files(&self.dir)?
            .into_iter()
            .skip(self.config.keep_snapshots.max(1))
        {
            let _ = fs::remove_file(stale);
        }
        metrics().checkpoint_commit_ns.record(start.elapsed());
        metrics().checkpoints.incr();
        Ok(final_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::BACKEND_TQTREE;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tq-store-dir-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(epoch: u64) -> SnapshotMeta {
        SnapshotMeta {
            epoch,
            backend: BACKEND_TQTREE,
            scenario: 0,
            users: 10,
            live: 10,
            facilities: 3,
            tree_nodes: 1,
            tree_items: 10,
        }
    }

    #[test]
    fn create_checkpoint_open_cycle() {
        let dir = tmp_dir("cycle");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        store.checkpoint(&meta(0), b"state at epoch zero").unwrap();
        store.append_batch(1, b"batch one").unwrap();
        store.append_batch(2, b"batch two").unwrap();
        drop(store);

        let (store, recovered) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.snapshot.meta.epoch, 0);
        assert_eq!(recovered.snapshot.body.as_ref(), b"state at epoch zero");
        assert_eq!(recovered.wal_records.len(), 2);
        assert_eq!(store.wal_batches(), 2);
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = tmp_dir("refuse");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        store.checkpoint(&meta(0), b"x").unwrap();
        drop(store);
        assert!(matches!(
            Store::create(&dir, StoreConfig::default()),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn checkpoint_truncates_wal_and_prunes() {
        let dir = tmp_dir("prune");
        let cfg = StoreConfig {
            keep_snapshots: 2,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, cfg).unwrap();
        store.checkpoint(&meta(0), b"s0").unwrap();
        for e in [5u64, 9, 12] {
            store.append_batch(e, b"b").unwrap();
            store.checkpoint(&meta(e), format!("s{e}").as_bytes()).unwrap();
            assert_eq!(store.wal_batches(), 0);
        }
        let files = snapshot_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "pruned to keep_snapshots");
        assert_eq!(files[0].0, 12);
        assert_eq!(files[1].0, 9);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        store.checkpoint(&meta(3), b"good old state").unwrap();
        store.checkpoint(&meta(8), b"bad new state").unwrap();
        // Corrupt the newest file.
        let newest = snapshot_path(&dir, 8);
        let mut raw = fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&newest, raw).unwrap();

        let (_, recovered) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.snapshot.meta.epoch, 3);
        assert_eq!(recovered.snapshot.body.as_ref(), b"good old state");
    }

    #[test]
    fn wal_of_a_lost_newer_checkpoint_is_discarded_not_replayed() {
        // checkpoint A → checkpoint B (WAL recreated, bound to B) →
        // append records on B's lineage → B's snapshot rots away.
        let dir = tmp_dir("lineage");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        store.checkpoint(&meta(3), b"state A").unwrap();
        store.checkpoint(&meta(8), b"state B").unwrap();
        store.append_batch(9, b"presupposes state B").unwrap();
        drop(store);
        let newest = snapshot_path(&dir, 8);
        let mut raw = fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&newest, raw).unwrap();

        let (store, recovered) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.snapshot.meta.epoch, 3);
        assert!(
            recovered.wal_records.is_empty(),
            "records of the lost lineage must not replay onto epoch 3"
        );
        assert!(recovered.wal_summary.tail_note.is_some());
        assert_eq!(store.wal_batches(), 0);
        // The recreated log is bound to the recovered checkpoint.
        let (_, summary) = wal::read(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(summary.parent_epoch, Some(3));
    }

    #[test]
    fn open_without_snapshot_errors() {
        let dir = tmp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Store::open(&dir, StoreConfig::default()),
            Err(StoreError::NoSnapshot)
        ));
    }

    #[test]
    fn commit_rebases_batches_appended_while_staging() {
        // Background-checkpoint interleaving: batches land in the WAL
        // after the image is staged but before it commits. The commit
        // must carry exactly the batches the snapshot lacks.
        let dir = tmp_dir("rebase");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        store.checkpoint(&meta(0), b"s0").unwrap();
        store.append_batch(1, b"in the image").unwrap();
        store.append_batch(2, b"in the image too").unwrap();
        let tmp = Store::stage_snapshot(&dir, &meta(2), b"s2").unwrap();
        store.append_batch(3, b"staged past me").unwrap();
        store.append_batch(4, b"me too").unwrap();
        store.commit_snapshot(2, &tmp).unwrap();
        assert_eq!(store.wal_batches(), 2);
        store.append_batch(5, b"after commit").unwrap();
        drop(store);

        let (store, recovered) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.snapshot.meta.epoch, 2);
        let epochs: Vec<u64> = recovered.wal_records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![3, 4, 5]);
        assert_eq!(recovered.wal_records[0].payload.as_ref(), b"staged past me");
        assert_eq!(store.wal_batches(), 3);
    }

    #[test]
    fn ancestor_lineage_wal_replays_after_crash_before_rebase() {
        // A crash between a committed snapshot's rename and its WAL
        // rebase leaves the log bound to the *previous* checkpoint. The
        // snapshot descends from that lineage, so the records above its
        // epoch must replay rather than be discarded.
        let dir = tmp_dir("ancestor");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        store.checkpoint(&meta(0), b"s0").unwrap();
        store.append_batch(1, b"b1").unwrap();
        store.append_batch(2, b"b2").unwrap();
        store.append_batch(3, b"b3").unwrap();
        // Simulate the crash: the epoch-2 snapshot lands, the rebase
        // never runs (the WAL stays bound to epoch 0).
        let tmp = Store::stage_snapshot(&dir, &meta(2), b"s2").unwrap();
        fs::rename(&tmp, snapshot_path(&dir, 2)).unwrap();
        drop(store);

        let (store, recovered) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.snapshot.meta.epoch, 2);
        // All records come back (the replayer skips by stamp), but only
        // the post-snapshot ones count against the threshold.
        assert_eq!(recovered.wal_records.len(), 3);
        assert_eq!(store.wal_batches(), 1);
        assert!(recovered.wal_summary.tail_note.is_none());
    }

    #[test]
    fn checkpoint_age_needs_both_elapsed_time_and_pending_batches() {
        let dir = tmp_dir("age");
        let cfg = StoreConfig {
            checkpoint_every: 1_000_000,
            checkpoint_max_age: Some(Duration::from_millis(30)),
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, cfg).unwrap();
        store.checkpoint(&meta(0), b"s0").unwrap();
        // Idle with an empty WAL: never due, no matter how old.
        std::thread::sleep(Duration::from_millis(60));
        assert!(!store.checkpoint_due_by_age());
        // A pending batch alone isn't enough either — the clock restarts
        // at the checkpoint above, not at the append.
        store.append_batch(1, b"b1").unwrap();
        assert!(store.checkpoint_due_by_age(), "age elapsed with a pending batch");
        store.checkpoint(&meta(1), b"s1").unwrap();
        store.append_batch(2, b"b2").unwrap();
        assert!(!store.checkpoint_due_by_age(), "fresh checkpoint resets the clock");
        std::thread::sleep(Duration::from_millis(60));
        assert!(store.checkpoint_due_by_age());
        // No age configured: always false.
        let dir2 = tmp_dir("age-off");
        let mut plain = Store::create(&dir2, StoreConfig::default()).unwrap();
        plain.checkpoint(&meta(0), b"s0").unwrap();
        plain.append_batch(1, b"b").unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(!plain.checkpoint_due_by_age());
    }

    #[test]
    fn bootstrap_seeds_an_openable_store() {
        // Encode a snapshot the way a primary's checkpoint would, ship
        // its raw file bytes, and bootstrap a fresh directory from them.
        let src = tmp_dir("bootstrap-src");
        let mut primary = Store::create(&src, StoreConfig::default()).unwrap();
        let path = primary.checkpoint(&meta(7), b"shipped state").unwrap();
        let image = fs::read(path).unwrap();

        let dst = tmp_dir("bootstrap-dst");
        Store::bootstrap(&dst, StoreConfig::default(), 7, &image).unwrap();
        let (store, recovered) = Store::open(&dst, StoreConfig::default()).unwrap();
        assert_eq!(recovered.snapshot.meta.epoch, 7);
        assert_eq!(recovered.snapshot.body.as_ref(), b"shipped state");
        assert_eq!(store.wal_batches(), 0);
        let (_, summary) = wal::read(&dst.join(WAL_FILE)).unwrap();
        assert_eq!(summary.parent_epoch, Some(7));

        // Refuses an existing store and a corrupted/mislabeled image.
        assert!(matches!(
            Store::bootstrap(&dst, StoreConfig::default(), 7, &image),
            Err(StoreError::AlreadyExists(_))
        ));
        let dst2 = tmp_dir("bootstrap-bad");
        assert!(Store::bootstrap(&dst2, StoreConfig::default(), 8, &image).is_err());
        let mut bad = image.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(Store::bootstrap(&dst2, StoreConfig::default(), 7, &bad).is_err());
    }

    #[test]
    fn should_checkpoint_threshold() {
        let dir = tmp_dir("threshold");
        let cfg = StoreConfig {
            checkpoint_every: 2,
            ..StoreConfig::default()
        };
        let mut store = Store::create(&dir, cfg).unwrap();
        store.checkpoint(&meta(0), b"s").unwrap();
        assert!(!store.should_checkpoint());
        store.append_batch(1, b"b").unwrap();
        assert!(!store.should_checkpoint());
        store.append_batch(2, b"b").unwrap();
        assert!(store.should_checkpoint());
    }
}
