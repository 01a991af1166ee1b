//! Engine persistence: snapshot + WAL durability for the
//! [`Engine`], built on [`tq_store`].
//!
//! # What is durable
//!
//! A persisted engine writes two artifacts into its store directory (see
//! [`tq_store::store`] for the file layout):
//!
//! * **snapshots** — the full engine state at one epoch: one entry per
//!   trajectory id ever assigned (the points of a live trajectory, an
//!   empty list for a removed one — ids stay stable and the image follows
//!   the live set, not the history), the live bitmap, the facilities, the [`ServiceModel`], the backend build
//!   parameters, and — for the TQ-tree backend — the **entire node arena**
//!   (every slot, free list, z-partitions, assigned z-ids), so
//!   [`Engine::open`] is `O(read)`, not `O(rebuild)`;
//! * **a WAL** — one record per [`Engine::apply`] batch, appended (and
//!   fsynced per [`SyncPolicy`]) *after validation but before the batch
//!   publishes*, stamped with the epoch the batch publishes.
//!
//! The snapshot also carries the **warmed full-facility `ServedTable`**
//! when the engine has one — re-evaluating it is the dominant cost of a
//! *serving* cold start, so a warmed engine's checkpoints carry it (`tqd`
//! warms at start) and the next `Engine::open` answers its first query
//! from it. It is the only
//! table an engine keeps; every answer is bit-identical either way (the
//! table is a deterministic function of the rest of the state).
//!
//! # Recovery
//!
//! [`Engine::open`] loads the newest snapshot that passes CRC validation
//! (falling back to the previous checkpoint if the newest is damaged),
//! re-checks the decoded TQ-tree with
//! [`validate_with_count`](crate::tqtree::TqTree::validate_with_count),
//! then replays the WAL's longest valid prefix: records at or below the
//! snapshot epoch (leftovers of a crash between checkpoint-write and
//! WAL-truncate) are skipped by their stamp; the rest re-apply exactly,
//! and the engine resumes at the last replayed stamp. Torn tails and
//! bit-flipped records are cut off by CRC — never panicked on. The
//! reopened engine answers every query **bit-identical** to the engine
//! that wrote the files (`tests/persistence.rs` proves it per byte of
//! truncation).
//!
//! # Epochs
//!
//! WAL stamps are publication epochs, so they are increasing but not
//! dense — epochs spent installing the full-facility table
//! ([`Engine::warm`], or an [`Engine::run`] that built it) leave gaps, and
//! being pure cache activity they are not logged. A recovered engine
//! therefore resumes at the epoch of the last durable batch (or the
//! checkpoint epoch when the WAL is empty).
//!
//! # Example
//!
//! ```
//! use tq_core::engine::{Engine, Query};
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_geometry::Point;
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let dir = std::env::temp_dir().join(format!("tq-persist-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(UserSet::from_vec(vec![
//!         Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
//!     ]))
//!     .facilities(FacilitySet::from_vec(vec![
//!         Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
//!     ]))
//!     .persist_to(&dir)
//!     .build()
//!     .unwrap();
//! let want = engine.run(Query::top_k(1)).unwrap();
//! drop(engine);
//!
//! let mut reopened = Engine::open(&dir).unwrap();
//! let got = reopened.run(Query::top_k(1)).unwrap();
//! assert_eq!(got.ranked(), want.ranked());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::baseline::BaselineIndex;
use crate::dynamic::Update;
use crate::engine::{Backend, Engine, EngineError};
use crate::eval::EvalStats;
use crate::maxcov::{Column, ServedTable};
use crate::service::{MaskView, PointMask, Scenario, ServiceModel};
use crate::tqtree::{self, Placement};
use crate::engine::Snapshot;
use bytes::{BufMut, BytesMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use tq_store::codec::{decode_bitmap, encode_bitmap, put_varint_u32, Decode, Encode, Reader};
use tq_store::snapshot::{SnapshotMeta, BACKEND_BASELINE, BACKEND_TQTREE};
use tq_store::store::Store;
use tq_store::StoreError;
pub use tq_store::{StoreConfig, SyncPolicy};
use tq_trajectory::{FacilitySet, TrajectoryId, UserSet};

/// Test-only knob: milliseconds a *background* checkpoint sleeps between
/// encoding its image and staging it to disk, to widen the apply/
/// checkpoint overlap deterministically. Zero (the default) is free.
#[doc(hidden)]
pub static BG_CHECKPOINT_DELAY_MS: AtomicU64 = AtomicU64::new(0);

/// The durable half an engine carries once persistence is attached.
///
/// The store sits behind a mutex so a background checkpoint
/// ([`StoreConfig::background_checkpoints`]) can commit its staged image
/// concurrently with the engine's WAL appends; the lock is held only for
/// the O(1) append and the commit's renames, never while an image is
/// encoded or written.
#[derive(Debug)]
pub(crate) struct Durable {
    pub(crate) store: Arc<Mutex<Store>>,
    /// The in-flight background checkpoint, if any. At most one at a
    /// time; harvested on the next threshold check, explicit checkpoint,
    /// or drop.
    pub(crate) worker: Option<JoinHandle<Result<PathBuf, StoreError>>>,
}

impl Durable {
    pub(crate) fn new(store: Store) -> Durable {
        Durable {
            store: Arc::new(Mutex::new(store)),
            worker: None,
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A read-only description of an engine's attached store, for reports.
#[derive(Debug, Clone)]
pub struct PersistStatus {
    /// The store directory.
    pub dir: PathBuf,
    /// Batches currently in the WAL (appended since the last checkpoint).
    pub wal_batches: usize,
    /// The auto-checkpoint threshold (`0` = manual checkpoints only).
    pub checkpoint_every: usize,
}

impl std::fmt::Display for PersistStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store {} ({} WAL batches, checkpoint every {})",
            self.dir.display(),
            self.wal_batches,
            self.checkpoint_every
        )
    }
}

fn persist_err(e: StoreError) -> EngineError {
    EngineError::Persist(e.to_string())
}

fn corrupt(why: impl Into<String>) -> StoreError {
    StoreError::Corrupt(why.into())
}

// ---------------------------------------------------------------------------
// Scenario / model codec
// ---------------------------------------------------------------------------

pub(crate) fn scenario_tag(s: Scenario) -> u8 {
    match s {
        Scenario::Transit => 0,
        Scenario::PointCount => 1,
        Scenario::Length => 2,
    }
}

fn scenario_of_tag(tag: u8) -> Result<Scenario, StoreError> {
    match tag {
        0 => Ok(Scenario::Transit),
        1 => Ok(Scenario::PointCount),
        2 => Ok(Scenario::Length),
        other => Err(corrupt(format!("scenario tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Update-batch codec (the WAL payload)
// ---------------------------------------------------------------------------

/// Encodes one `Update` batch as a WAL record payload.
///
/// The layout is the length-prefixed [`Vec<Update>`] encoding from
/// [`crate::wire`] (`u32` count, then tagged updates) — the WAL payload and
/// the `tq-net` apply-request body are the same bytes by construction.
pub(crate) fn encode_batch(updates: &[Update]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(16 + updates.len() * 8);
    buf.put_u32_le(updates.len() as u32);
    for u in updates {
        u.encode(&mut buf);
    }
    buf
}

/// Decodes a WAL record payload back into an `Update` batch.
pub(crate) fn decode_batch(r: &mut Reader) -> Result<Vec<Update>, StoreError> {
    Vec::<Update>::decode(r)
}

/// Encodes one `Update` batch as WAL-payload bytes — the exact bytes a
/// primary's WAL record carries and a replication feed ships.
pub fn encode_update_batch(updates: &[Update]) -> bytes::Bytes {
    encode_batch(updates).freeze()
}

/// Decodes WAL-payload bytes back into an `Update` batch, refusing
/// trailing garbage. The inverse of [`encode_update_batch`].
pub fn decode_update_batch(payload: &[u8]) -> Result<Vec<Update>, StoreError> {
    let mut r = Reader::new(bytes::Bytes::from(payload.to_vec()));
    let updates = decode_batch(&mut r)?;
    r.finish()?;
    Ok(updates)
}

// ---------------------------------------------------------------------------
// ServedTable codec (the warmed full-facility table)
// ---------------------------------------------------------------------------

/// Mask words are width-fitted: almost every trajectory has few points
/// (two, for trips), so its served mask fits one byte.
///
/// The byte layout predates the word-block mask rewrite and is unchanged by
/// it — ≤64-point masks write their single live word at the narrowest width
/// that holds it (tags 1–4), longer masks write tag 5 plus exactly their
/// `⌈n/64⌉` live words (the in-memory cache-line padding is never encoded).
/// Snapshots recorded by the old `Small`/`Large` enum decode byte-for-byte.
pub(crate) fn put_mask(m: MaskView<'_>, buf: &mut BytesMut) {
    if m.nbits() <= 64 {
        let word = m.words().first().copied().unwrap_or(0);
        if word <= u8::MAX as u64 {
            buf.put_u8(1);
            buf.put_u8(word as u8);
        } else if word <= u16::MAX as u64 {
            buf.put_u8(2);
            buf.put_u16_le(word as u16);
        } else if word <= u32::MAX as u64 {
            buf.put_u8(3);
            buf.put_u32_le(word as u32);
        } else {
            buf.put_u8(4);
            buf.put_u64_le(word);
        }
    } else {
        let words = m.words();
        buf.put_u8(5);
        buf.put_u32_le(words.len() as u32);
        for w in words {
            buf.put_u64_le(*w);
        }
    }
}

fn get_mask(r: &mut Reader, n_points: usize) -> Result<PointMask, StoreError> {
    let tag = r.u8()?;
    if (1..=4).contains(&tag) && n_points > 64 {
        return Err(corrupt("inline mask for a >64-point trajectory"));
    }
    let word = match tag {
        1 => r.u8()? as u64,
        2 => r.u16()? as u64,
        3 => r.u32()? as u64,
        4 => r.u64()?,
        5 => {
            let n = r.count(8)?;
            if n_points <= 64 || n != n_points.div_ceil(64) {
                return Err(corrupt(format!(
                    "{n}-word heap mask for a {n_points}-point trajectory"
                )));
            }
            let mut words = Vec::with_capacity(n);
            for _ in 0..n {
                words.push(r.u64()?);
            }
            if !n_points.is_multiple_of(64) && words[n - 1] >> (n_points % 64) != 0 {
                return Err(corrupt("mask bits beyond the trajectory's points"));
            }
            return Ok(PointMask::from_words(n_points, &words));
        }
        other => return Err(corrupt(format!("mask tag {other}"))),
    };
    if n_points < 64 && word >> n_points != 0 {
        return Err(corrupt("mask bits beyond the trajectory's points"));
    }
    Ok(PointMask::from_word(n_points, word))
}

/// Encodes the warmed full-facility [`ServedTable`] — the expensive
/// artifact a *serving* cold start otherwise re-evaluates from scratch.
///
/// Layout: per facility (ids are implicit — a full table is `0..n` by
/// construction), one length-prefixed blob ([`put_column`]). The length
/// prefixes are what let [`get_table`] hand each facility's blob to a
/// different thread.
fn put_table(table: &ServedTable, buf: &mut BytesMut) {
    buf.put_u32_le(table.ids.len() as u32);
    let mut blob = BytesMut::with_capacity(1 << 16);
    for (value, column) in table.values.iter().zip(&table.masks) {
        put_column(*value, column, &mut blob);
        buf.put_u32_le(blob.len() as u32);
        buf.put_slice(blob.as_ref());
        blob.clear(); // keep the allocation for the next facility
    }
    for n in [
        table.stats.nodes_visited,
        table.stats.items_tested,
        table.stats.items_pruned,
        table.stats.distance_checks,
        table.stats.parallel_tasks,
    ] {
        buf.put_u64_le(n as u64);
    }
}

/// One facility's blob: its value, then the served-mask entries
/// delta-varint-coded in the column's ascending trajectory order (which
/// buys the 1-byte deltas). The per-user values a column caches are not
/// encoded; [`get_column`] recomputes them.
pub(crate) fn put_column(value: f64, column: &Column, blob: &mut BytesMut) {
    blob.put_f64_le(value);
    put_varint_u32(blob, column.len() as u32);
    let mut prev: u32 = 0;
    for (traj, mask) in column.iter() {
        // First delta is from 0, later ones from predecessor + 1
        // (ids strictly increase).
        put_varint_u32(blob, traj - prev);
        prev = traj + 1;
        put_mask(mask, blob);
    }
}

/// Decodes one facility's blob of [`put_column`].
pub(crate) fn get_column(
    blob: &bytes::Bytes,
    users: &UserSet,
    model: &ServiceModel,
) -> Result<(f64, Column), StoreError> {
    let mut r = Reader::new(blob.clone());
    let value = r.f64()?;
    let entries = r.varint_u32()? as usize;
    if entries.saturating_mul(2) > r.remaining() {
        return Err(corrupt(format!(
            "{entries} mask entries exceed the {} bytes remaining",
            r.remaining()
        )));
    }
    let mut column = Column::default();
    let mut next: u64 = 0;
    for _ in 0..entries {
        let traj = next + r.varint_u32()? as u64;
        if traj >= users.len() as u64 {
            return Err(corrupt(format!(
                "mask entry names trajectory {traj} of {}",
                users.len()
            )));
        }
        next = traj + 1;
        let t = users
            .try_get(traj as u32)
            .ok_or_else(|| corrupt(format!("mask entry names removed trajectory {traj}")))?;
        let mask = get_mask(&mut r, t.len())?;
        // The delta coding makes the ids strictly ascending: a push.
        column.push(traj as u32, mask.view(), model.value(t, &mask));
    }
    r.finish()?;
    Ok((value, column))
}

fn get_table(
    r: &mut Reader,
    users: &UserSet,
    model: &ServiceModel,
    n_facilities: usize,
) -> Result<ServedTable, StoreError> {
    let n = r.count(4)?;
    if n != n_facilities {
        return Err(corrupt(format!(
            "full table covers {n} of {n_facilities} facilities"
        )));
    }
    let mut blobs = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u32()? as usize;
        blobs.push(r.take(len)?);
    }
    // Blobs are independent — fan the column reconstruction out (this is
    // the bulkiest section of a warmed snapshot).
    let decoded = crate::parallel::par_map(&blobs, |blob| get_column(blob, users, model));
    let mut values = Vec::with_capacity(n);
    let mut masks = Vec::with_capacity(n);
    for d in decoded {
        let (value, column) = d?;
        values.push(value);
        masks.push(Arc::new(column));
    }
    let mut stats_fields = [0usize; 5];
    for f in &mut stats_fields {
        *f = r.u64()? as usize;
    }
    Ok(ServedTable {
        ids: (0..n as u32).collect(),
        masks,
        values,
        stats: EvalStats {
            nodes_visited: stats_fields[0],
            items_tested: stats_fields[1],
            items_pruned: stats_fields[2],
            distance_checks: stats_fields[3],
            parallel_tasks: stats_fields[4],
        },
    })
}

// ---------------------------------------------------------------------------
// Engine-state codec (the snapshot body)
// ---------------------------------------------------------------------------

/// Two body fields that once held engine knobs — the patch-vs-rebuild
/// fraction and the subset-table memo capacity — neither of which exists
/// any more. The body keeps their bytes so the format needs no new
/// version: they are written with the knobs' last defaults and ignored on
/// read.
const RETIRED_REBUILD_FRACTION: f64 = 0.25;
const RETIRED_SUBSET_TABLES: u64 = 8;

/// Encodes the engine's full durable state and the snapshot header
/// metadata describing it.
pub(crate) fn encode_engine(engine: &Engine) -> Result<(SnapshotMeta, BytesMut), EngineError> {
    encode_snapshot(&engine.snapshot())
}

/// [`encode_engine`] over a published immutable [`Snapshot`], so a
/// background checkpoint can encode without borrowing the engine.
///
/// A [`Backend::Sharded`] front has no single-store image — its durable
/// form is one store per shard plus the routing log — so it is refused
/// with [`EngineError::Sharded`].
pub(crate) fn encode_snapshot(
    snapshot: &Snapshot,
) -> Result<(SnapshotMeta, BytesMut), EngineError> {
    let (users, facilities, model) = (snapshot.users(), snapshot.facilities(), *snapshot.model());
    let (backend, full_table, epoch) = (snapshot.backend(), snapshot.full_table(), snapshot.epoch());
    // The live bitmap is the complement of the user set's retired ids; it
    // stays in the image as the ground truth a decoder checks against.
    let live: Vec<bool> = (0..users.len() as TrajectoryId)
        .map(|id| !users.is_retired(id))
        .collect();
    let mut buf = BytesMut::with_capacity(64 + users.total_points() * 16);
    buf.put_u8(scenario_tag(model.scenario));
    buf.put_f64_le(model.psi);
    buf.put_f64_le(RETIRED_REBUILD_FRACTION);
    buf.put_u64_le(RETIRED_SUBSET_TABLES);
    buf.put_u64_le(epoch);
    users.encode(&mut buf);
    encode_bitmap(&live, &mut buf);
    facilities.encode(&mut buf);

    let (backend_tag, tree_nodes, tree_items) = match backend {
        Backend::TqTree(tree) => {
            buf.put_u8(BACKEND_TQTREE);
            tqtree::persist::encode_tree(tree, &mut buf);
            (BACKEND_TQTREE, tree.node_count() as u64, tree.item_count() as u64)
        }
        Backend::Baseline(bl) => {
            buf.put_u8(BACKEND_BASELINE);
            buf.put_u64_le(bl.capacity() as u64);
            (BACKEND_BASELINE, 0, 0)
        }
        Backend::Sharded(_) => {
            return Err(EngineError::Sharded(
                "a sharded front end has no single-store snapshot image; \
                 checkpoint it through ShardedEngine::checkpoint"
                    .into(),
            ))
        }
    };
    // The warmed full-facility ServedTable, when the engine carries one —
    // the other half of a serving cold start.
    match full_table {
        Some(table) => {
            buf.put_u8(1);
            put_table(table, &mut buf);
        }
        None => buf.put_u8(0),
    }
    let meta = SnapshotMeta {
        epoch,
        backend: backend_tag,
        scenario: scenario_tag(model.scenario),
        users: users.len() as u64,
        live: users.present() as u64,
        facilities: facilities.len() as u64,
        tree_nodes,
        tree_items,
    };
    Ok((meta, buf))
}

/// Decodes an engine from a validated snapshot file. The TQ-tree arena is
/// additionally structure-checked with `validate_with_count` — corrupt
/// state that slipped past the CRCs is an error, never a panic or a
/// silently wrong engine.
pub(crate) fn decode_engine(
    file: &tq_store::SnapshotFile,
) -> Result<Engine, StoreError> {
    let mut r = Reader::new(file.body.clone());
    let scenario = scenario_of_tag(r.u8()?)?;
    let psi = r.f64()?;
    if !psi.is_finite() || psi < 0.0 {
        return Err(corrupt(format!("ψ = {psi}")));
    }
    let model = ServiceModel::new(scenario, psi);
    // The two retired knob fields: ignored, but a value no engine could
    // have written still marks the body corrupt.
    let rebuild_fraction = r.f64()?;
    if !rebuild_fraction.is_finite() || rebuild_fraction < 0.0 {
        return Err(corrupt(format!("rebuild fraction {rebuild_fraction}")));
    }
    r.u64()?;
    let epoch = r.u64()?;
    if epoch != file.meta.epoch {
        return Err(corrupt(format!(
            "body epoch {epoch} disagrees with header epoch {}",
            file.meta.epoch
        )));
    }
    let mut users = UserSet::decode(&mut r)?;
    let live = decode_bitmap(&mut r)?;
    if live.len() != users.len() {
        return Err(corrupt(format!(
            "live bitmap covers {} of {} trajectories",
            live.len(),
            users.len()
        )));
    }
    // The bitmap is the ground truth of liveness. A version-1 body still
    // carries the points of its removed trajectories: give them up here,
    // as the apply that removed them does today.
    for (id, &live) in live.iter().enumerate() {
        let id = id as TrajectoryId;
        if !live {
            users.retire(id);
        } else if users.is_retired(id) {
            return Err(corrupt(format!("live trajectory {id} has no points")));
        }
    }
    let facilities = FacilitySet::decode(&mut r)?;

    let backend = match r.u8()? {
        BACKEND_TQTREE => {
            let tree = tqtree::persist::decode_tree(&mut r, &users)?;
            let expected: usize = match tree.config().placement {
                Placement::TwoPoint | Placement::FullTrajectory => users.present(),
                Placement::Segmented => users.total_segments(),
            };
            if tree.item_count() != expected {
                return Err(corrupt(format!(
                    "tree stores {} items but the live set implies {expected}",
                    tree.item_count()
                )));
            }
            tree.validate_with_count(&users, expected)
                .map_err(|why| corrupt(format!("tree validation failed: {why}")))?;
            Backend::TqTree(tree)
        }
        BACKEND_BASELINE => {
            let capacity = r.u64()? as usize;
            if capacity == 0 || capacity > 1 << 20 {
                return Err(corrupt(format!("baseline leaf capacity {capacity}")));
            }
            if live.iter().any(|&l| !l) {
                return Err(corrupt("baseline backend with removed trajectories"));
            }
            Backend::Baseline(BaselineIndex::build_with_capacity(&users, capacity))
        }
        other => return Err(corrupt(format!("backend tag {other}"))),
    };
    let full_table = match r.u8()? {
        0 => None,
        1 => Some(get_table(&mut r, &users, &model, facilities.len())?),
        other => return Err(corrupt(format!("table tag {other}"))),
    };
    r.finish()?;
    Ok(Engine::from_restored(
        users, facilities, model, backend, epoch, full_table,
    ))
}

// ---------------------------------------------------------------------------
// The Engine-facing API
// ---------------------------------------------------------------------------

impl Engine {
    /// Opens a persisted engine from its store directory with the default
    /// [`StoreConfig`]: loads the newest valid snapshot, replays the
    /// WAL's longest valid prefix, resumes at the recovered epoch, and
    /// keeps the store attached (subsequent [`Engine::apply`] calls
    /// append to the WAL; [`Engine::checkpoint`] compacts it).
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine, EngineError> {
        Engine::open_with(dir, StoreConfig::default())
    }

    /// [`Engine::open`] with explicit store tunables.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<Engine, EngineError> {
        let (store, recovered) = Store::open(dir.as_ref(), config).map_err(persist_err)?;
        let mut engine = decode_engine(&recovered.snapshot).map_err(persist_err)?;
        for record in &recovered.wal_records {
            if record.epoch <= engine.epoch() {
                // Logged before the snapshot's checkpoint (a crash landed
                // between snapshot-write and WAL-truncate): already
                // reflected in the loaded state.
                continue;
            }
            // The record passed its CRC, so these bytes are exactly what
            // the writer logged; a batch that fails to decode or
            // re-validate here is writer corruption, not bit rot, and
            // aborts the open rather than silently dropping an
            // acknowledged batch.
            let mut r = Reader::new(record.payload.clone());
            let updates = decode_batch(&mut r)
                .and_then(|u| r.finish().map(|()| u))
                .map_err(persist_err)?;
            engine.replay_batch(&updates, record.epoch)?;
        }
        engine.attach_store(store);
        Ok(engine)
    }

    /// Writes a fresh snapshot of the engine's current state to the
    /// attached store — durably, atomically — then truncates the WAL and
    /// prunes old snapshots. The WAL-before-publish ordering in
    /// [`Engine::apply`] plus the snapshot-before-truncate ordering here
    /// means every instant of a durable engine's life is recoverable.
    ///
    /// Returns the path of the snapshot file. Errors with
    /// [`EngineError::NotDurable`] when no store is attached.
    ///
    /// Explicit checkpoints are synchronous and act as a barrier: an
    /// in-flight background checkpoint is joined first (its verdict is
    /// superseded — the image written here is a superset of its state).
    pub fn checkpoint(&mut self) -> Result<PathBuf, EngineError> {
        if self.durable.is_none() {
            return Err(EngineError::NotDurable);
        }
        let _ = self.harvest_checkpoint_worker(true);
        let (meta, body) = encode_engine(self)?;
        let durable = self.durable.as_ref().expect("checked above");
        durable
            .lock()
            .checkpoint(&meta, body.freeze().as_ref())
            .map_err(persist_err)
    }

    /// The attached store's status, or `None` for an in-memory engine.
    pub fn persistence(&self) -> Option<PersistStatus> {
        self.durable.as_ref().map(|d| {
            let store = d.lock();
            PersistStatus {
                dir: store.dir().to_path_buf(),
                wal_batches: store.wal_batches(),
                checkpoint_every: store.config().checkpoint_every,
            }
        })
    }

    /// Appends a validated batch to the WAL, stamped with the epoch it
    /// will publish. Called by [`Engine::apply`] after validation and
    /// before any state mutation; a WAL failure therefore rejects the
    /// batch with the engine untouched.
    pub(crate) fn wal_append(&mut self, updates: &[Update]) -> Result<(), EngineError> {
        self.wal_append_at(updates, self.epoch() + 1)
    }

    /// [`Engine::wal_append`] at an explicit stamp — the replicated-apply
    /// path logs at the epoch the *primary* stamped, not `epoch + 1`.
    pub(crate) fn wal_append_at(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<(), EngineError> {
        if let Some(durable) = self.durable.as_ref() {
            let payload = encode_batch(updates);
            durable
                .lock()
                .append_batch(stamp, payload.freeze().as_ref())
                .map_err(persist_err)?;
        }
        Ok(())
    }

    /// Runs the threshold checkpoint after a successful apply. The batch
    /// is already applied, published and WAL-logged at this point, so a
    /// failure here is remapped to [`EngineError::CheckpointFailed`] —
    /// callers must be able to tell "batch rejected" from "batch durable
    /// but compaction failed" (retrying the batch would double-apply it).
    ///
    /// With [`StoreConfig::background_checkpoints`] the snapshot is
    /// encoded from the just-published immutable [`Snapshot`] and staged
    /// on a worker thread, so the apply acks without waiting for the
    /// image write; the worker's verdict (including
    /// [`EngineError::CheckpointFailed`]) surfaces on a later apply, by
    /// which point the batch it covered has long been durable in the WAL.
    pub(crate) fn maybe_auto_checkpoint(&mut self) -> Result<(), EngineError> {
        self.run_checkpoint_policy(Store::should_checkpoint)
    }

    /// Idle-time housekeeping for a durable engine: harvests a finished
    /// background checkpoint's verdict and runs the **age-based**
    /// checkpoint policy ([`StoreConfig::checkpoint_max_age`]) — the
    /// batch-count threshold never fires on a quiet engine, so a writer
    /// hub calls this from its idle tick to bound how stale the newest
    /// snapshot can get while batches sit in the WAL. A no-op for
    /// in-memory engines and stores without an age limit.
    pub fn maintain(&mut self) -> Result<(), EngineError> {
        self.run_checkpoint_policy(Store::checkpoint_due_by_age)
    }

    /// The shared checkpoint policy behind the post-apply threshold check
    /// (batch-count) and [`Engine::maintain`] (age threshold):
    /// harvest the worker, ask `due`, then checkpoint synchronously or
    /// stage one in the background per [`StoreConfig`].
    fn run_checkpoint_policy(
        &mut self,
        due: impl Fn(&Store) -> bool,
    ) -> Result<(), EngineError> {
        if self.durable.is_none() {
            return Ok(());
        }
        if let Some(e) = self.harvest_checkpoint_worker(false) {
            return Err(EngineError::CheckpointFailed(e.to_string()));
        }
        let (due, background) = {
            let durable = self.durable.as_ref().expect("checked above");
            let store = durable.lock();
            (due(&store), store.config().background_checkpoints)
        };
        if !due {
            return Ok(());
        }
        if !background {
            return self.checkpoint().map(|_| ()).map_err(|e| match e {
                EngineError::Persist(why) => EngineError::CheckpointFailed(why),
                other => other,
            });
        }
        if self.durable.as_ref().expect("checked above").worker.is_some() {
            // One image at a time: the threshold stays tripped and the
            // next apply re-checks once this worker is harvested.
            return Ok(());
        }
        self.spawn_background_checkpoint();
        Ok(())
    }

    /// Stages a checkpoint of the engine's current published state on a
    /// worker thread: encode from the immutable snapshot, write the image
    /// to its `.tmp` name (both without the store lock), then take the
    /// lock briefly to rename it live and rebase the WAL.
    fn spawn_background_checkpoint(&mut self) {
        let snapshot: Arc<Snapshot> = self.snapshot();
        let durable = self.durable.as_mut().expect("caller checked durability");
        let store = Arc::clone(&durable.store);
        let dir = durable.lock().dir().to_path_buf();
        let handle = std::thread::Builder::new()
            .name("tq-checkpoint".into())
            .spawn(move || {
                let (meta, body) =
                    encode_snapshot(&snapshot).map_err(|e| StoreError::Corrupt(e.to_string()))?;
                let delay = BG_CHECKPOINT_DELAY_MS.load(Ordering::Relaxed);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                let tmp = Store::stage_snapshot(&dir, &meta, body.freeze().as_ref())?;
                store
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .commit_snapshot(meta.epoch, &tmp)
            })
            .expect("spawn checkpoint worker");
        durable.worker = Some(handle);
    }

    /// Collects a background checkpoint's verdict: the worker's error if
    /// it finished (or, with `wait`, once it finishes) unsuccessfully.
    fn harvest_checkpoint_worker(&mut self, wait: bool) -> Option<StoreError> {
        let durable = self.durable.as_mut()?;
        let done = durable.worker.as_ref().is_some_and(|w| w.is_finished());
        let joinable = wait && durable.worker.is_some();
        if !done && !joinable {
            return None;
        }
        match durable.worker.take()?.join() {
            Ok(Ok(_)) => None,
            Ok(Err(e)) => Some(e),
            Err(_) => Some(StoreError::Corrupt(
                "background checkpoint worker panicked".into(),
            )),
        }
    }
}

/// Creates the store for [`EngineBuilder::persist_to`](crate::engine::EngineBuilder::persist_to)
/// and writes the engine's initial checkpoint into it.
pub(crate) fn attach_new_store(
    engine: &mut Engine,
    dir: &Path,
    config: StoreConfig,
) -> Result<(), EngineError> {
    let store = Store::create(dir, config).map_err(persist_err)?;
    engine.attach_store(store);
    if let Err(e) = engine.checkpoint() {
        // Don't brick the directory: a WAL without any snapshot would
        // make both a retried `persist_to` (AlreadyExists) and
        // `Engine::open` (NoSnapshot) refuse it. Remove what `create`
        // made so the failed build is retryable.
        engine.durable = None;
        let _ = std::fs::remove_file(dir.join(tq_store::store::WAL_FILE));
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_geometry::Point;
    use tq_trajectory::Trajectory;

    #[test]
    fn batch_codec_roundtrip() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let batch = vec![
            Update::Insert(Trajectory::two_point(p(0.0, 0.0), p(1.0, 1.0))),
            Update::Remove(7),
            Update::Insert(Trajectory::new(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0)])),
        ];
        let buf = encode_batch(&batch);
        let mut r = Reader::new(buf.freeze());
        let back = decode_batch(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 3);
        match (&batch[0], &back[0]) {
            (Update::Insert(a), Update::Insert(b)) => assert_eq!(a, b),
            _ => panic!("variant mismatch"),
        }
        assert!(matches!(back[1], Update::Remove(7)));
    }

    #[test]
    fn bad_update_tag_is_corrupt() {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u32_le(1);
        buf.put_u8(9);
        assert!(decode_batch(&mut Reader::new(buf.freeze())).is_err());
    }

    /// The two retired knob fields sit after the scenario tag and ψ. They
    /// are written with the knobs' last defaults; whatever an older engine
    /// wrote there decodes to the same engine, and a value no engine could
    /// have written is still corrupt.
    #[test]
    fn retired_knob_fields_are_written_as_defaults_and_ignored_on_read() {
        use crate::engine::Query;
        use crate::service::{Scenario, ServiceModel};
        let p = |x: f64, y: f64| Point::new(x, y);
        let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(UserSet::from_vec(vec![
                Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
                Trajectory::two_point(p(0.5, 0.0), p(9.5, 0.0)),
            ]))
            .facilities(FacilitySet::from_vec(vec![
                tq_trajectory::Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
                tq_trajectory::Facility::new(vec![p(50.0, 50.0)]),
            ]))
            .build()
            .unwrap();
        engine.warm();
        let (meta, body) = encode_engine(&engine).unwrap();
        let body = body.as_ref().to_vec();
        assert_eq!(body[9..17], 0.25f64.to_le_bytes());
        assert_eq!(body[17..25], 8u64.to_le_bytes());

        let decode = |fraction: f64, capacity: u64| {
            let mut patched = body.clone();
            patched[9..17].copy_from_slice(&fraction.to_le_bytes());
            patched[17..25].copy_from_slice(&capacity.to_le_bytes());
            decode_engine(&tq_store::SnapshotFile {
                meta,
                body: patched.into(),
            })
        };
        let want = engine.run(Query::max_cov(1)).unwrap();
        for (fraction, capacity) in [(0.25, 8), (0.0, 0), (1.0, 3)] {
            let mut back = decode(fraction, capacity).expect("an old engine's knobs decode");
            let got = back.run(Query::max_cov(1)).unwrap();
            assert!(got.explain.cache.is_hit(), "the warmed table came back");
            assert_eq!(got.cover().value.to_bits(), want.cover().value.to_bits());
        }
        for fraction in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(decode(fraction, 8).is_err(), "fraction {fraction} accepted");
        }
    }
}
