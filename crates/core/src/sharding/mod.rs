//! Multi-shard scatter–gather: [`ShardedEngine`] partitions the user
//! trajectories across N independent [`Engine`]s and serves the same
//! typed [`Query`] API over them, **bit-identical** to one engine over
//! the union.
//!
//! # Why sharding composes exactly
//!
//! Everything a query answers is derived from per-user served-point
//! masks, and every reported value is the fold of a
//! [`Column`](crate::maxcov::Column) — per-user values in ascending
//! trajectory-id order. Users live on exactly one shard and shard-local
//! ids are assigned in ascending *global*-id order, so:
//!
//! * a per-candidate column is the **disjoint union** of the shards'
//!   columns (translated local→global), and
//! * the global canonical fold order is the k-way merge of the shards'
//!   canonical orders — which is literally how the merged column is made.
//!
//! A merged table ([`ShardSet`], `set.rs`) is therefore a real
//! [`ServedTable`] over the global id space carrying the exact bits a
//! single engine computes, and nothing downstream of it needs to know it
//! was merged: top-k ranks it, and greedy, two-step, exact and genetic
//! max-cov run on it through the same `engine::session` code a single
//! engine uses — one comparator, one accumulation order.
//!
//! # Sharding is an `Index`
//!
//! [`ShardSet`] — the per-shard [`Snapshot`]s plus the monotone
//! local→global id maps — implements [`Index`](crate::engine::Index) and
//! sits behind [`Backend::Sharded`]. The [`ShardedEngine`] is a second
//! single-writer control plane: it publishes ordinary [`Snapshot`]s
//! (global users, the merged full table, that backend) through ordinary
//! [`Reader`] handles, so the read plane, the writer hub and the network
//! server are the single engine's own. What stays sharding-specific is the
//! write side: update batches are validated globally, split into per-shard
//! sub-batches by the [`Partitioner`], and applied to the shards **in
//! parallel** — each shard revalidates and WAL-logs its sub-batch
//! independently. Warming is the one other write: [`ShardedEngine::warm`]
//! warms every shard, scattered like an apply, and publishes the merge of
//! their full tables, which each shard's apply then maintains and the
//! front re-merges after every batch. A restricted-candidate query on a
//! warmed front projects its table from the merged full table
//! (`engine::session`), so it reaches no shard — no scatter, no thread
//! scope; an unwarmed front builds its tables on the shards per query and
//! keeps none.
//!
//! # Durability: per-shard stores + a routing log
//!
//! A durable sharded engine owns a directory of one `tq-store` per shard
//! plus two front-end files: a [`manifest`](tq_store::manifest) (shard
//! count + partitioner) and a routing log (`routing.rs` — which global id
//! lives where, with per-shard WAL stamps). [`Engine::open_sharded`]
//! recovers every shard in parallel, then replays the routing log with
//! the same epoch-stamp rule single-engine recovery uses — composed per
//! shard, so each shard independently recovers its longest valid prefix
//! and the front end re-derives a consistent global id space over
//! whatever survived (see `recover.rs`).

mod partition;
mod recover;
mod routing;
mod set;

pub use partition::Partitioner;
pub use set::ShardSet;

use crate::dynamic::{BatchOutcome, Update, UpdateError};
use crate::engine::{
    session, Answer, Backend, BackendChoice, Engine, EngineBuilder, EngineError, Query, Reader,
    Snapshot, SnapshotSlot,
};
use crate::fasthash::FxHashSet;
use crate::maxcov::ServedTable;
use crate::persist::StoreConfig;
use routing::{RouteEvent, RoutingRecord};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tq_geometry::Rect;
use tq_store::manifest::{is_sharded_dir, ShardManifest, ROUTING_FILE};
use tq_store::wal::WalWriter;
use tq_trajectory::{FacilityId, TrajectoryId, UserSet};

/// Where one global trajectory id lives: its owning shard and its
/// shard-local id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteEntry {
    pub(crate) shard: u16,
    pub(crate) lid: TrajectoryId,
}

/// The durable half of a sharded front end: the root directory, the open
/// routing log, and the store tunables shared by every shard.
#[derive(Debug)]
pub(crate) struct ShardedDurable {
    root: PathBuf,
    log: WalWriter,
    config: StoreConfig,
    /// Sequence number the next routing record will carry (`0` is the
    /// initial placement, then one per applied batch).
    batch_seq: u64,
}

/// The sharded single-writer control plane: N independent [`Engine`]s,
/// one global id space routed over them, and — once warmed — the merge of
/// the shards' full-facility tables. See the [module docs](self) for the
/// bit-identity argument and the durability layout.
#[derive(Debug)]
pub struct ShardedEngine {
    engines: Vec<Engine>,
    partitioner: Partitioner,
    /// Global id → owning shard + local id (the inverse, local → global,
    /// is published in the snapshot's [`ShardSet`]).
    routing: Vec<RouteEntry>,
    slot: Arc<SnapshotSlot>,
    snapshot: Arc<Snapshot>,
    durable: Option<ShardedDurable>,
    /// Explicit tree bounds (always `Some` for TQ-tree shards — the
    /// builder enforces it — `None` for baseline shards).
    bounds: Option<Rect>,
}

fn persist_err(e: tq_store::StoreError) -> EngineError {
    EngineError::Persist(e.to_string())
}

impl ShardedEngine {
    // -- construction -------------------------------------------------------

    /// Builds the front end from a prepared [`EngineBuilder`] — the
    /// implementation behind [`EngineBuilder::build_sharded`].
    pub(crate) fn from_builder(mut b: EngineBuilder) -> Result<ShardedEngine, EngineError> {
        let shards = b.shards.max(1);
        let is_tree = matches!(b.backend, BackendChoice::TqTree(_));
        if is_tree && b.bounds.is_none() {
            return Err(EngineError::Sharded(
                "a sharded TQ-tree engine needs explicit EngineBuilder::bounds \
                 (every shard must index the same rectangle)"
                    .into(),
            ));
        }
        if let (true, Some(bounds)) = (is_tree, b.bounds) {
            for (id, t) in b.users.iter() {
                if t.points().iter().any(|p| !bounds.contains(p)) {
                    return Err(EngineError::TrajectoryOutOfBounds { id });
                }
            }
        }
        let partitioner = if b.spatial {
            let root = match b.bounds.or_else(|| b.users.mbr()) {
                Some(r) => r,
                None => {
                    return Err(EngineError::Sharded(
                        "the z-range partitioner needs bounds or a non-empty \
                         initial user set"
                            .into(),
                    ))
                }
            };
            Partitioner::z_range(root, &b.users, shards)
        } else {
            Partitioner::Hash
        };

        // Partition the initial users in ascending global-id order, so
        // each shard's local ids are assigned monotonically in global-id
        // order — the invariant every merge in this module leans on.
        let mut locals: Vec<Vec<TrajectoryId>> = vec![Vec::new(); shards];
        let mut routing: Vec<RouteEntry> = Vec::with_capacity(b.users.len());
        let mut per_shard: Vec<Vec<tq_trajectory::Trajectory>> = vec![Vec::new(); shards];
        for (gid, t) in b.users.iter() {
            let s = partitioner.shard_of(t, shards);
            routing.push(RouteEntry {
                shard: s as u16,
                lid: per_shard[s].len() as TrajectoryId,
            });
            locals[s].push(gid);
            per_shard[s].push(t.clone());
        }

        // Durable scaffolding first: manifest + routing record 0, so a
        // crash between shard creations leaves a recognizable (if
        // incomplete) sharded directory rather than orphan stores.
        let persist = b.persist.take();
        let mut durable = None;
        if let Some((dir, config)) = &persist {
            if is_sharded_dir(dir) {
                return Err(EngineError::Persist(format!(
                    "{} already holds a sharded store — open it with \
                     Engine::open_sharded instead of overwriting",
                    dir.display()
                )));
            }
            std::fs::create_dir_all(dir).map_err(|e| EngineError::Persist(e.to_string()))?;
            ShardManifest {
                shards: shards as u16,
                partitioner: partitioner.spec(),
            }
            .write(dir)
            .map_err(persist_err)?;
            let mut log =
                routing::create_log(&dir.join(ROUTING_FILE), config.sync).map_err(persist_err)?;
            let placement = RoutingRecord {
                seq: 0,
                events: routing
                    .iter()
                    .map(|e| RouteEvent::Insert {
                        shard: e.shard,
                        alive: true,
                    })
                    .collect(),
                stamps: vec![0; shards],
            };
            log.append(0, placement.encode().as_ref())
                .map_err(persist_err)?;
            durable = Some(ShardedDurable {
                root: dir.clone(),
                log,
                config: *config,
                batch_seq: 1,
            });
        }

        let users = std::mem::replace(&mut b.users, UserSet::new());
        let template = b;
        let mut engines = Vec::with_capacity(shards);
        for (s, shard_users) in per_shard.into_iter().enumerate() {
            let mut sb = template.clone();
            sb.users = UserSet::from_vec(shard_users);
            sb.shards = 1;
            sb.persist = persist
                .as_ref()
                .map(|(dir, config)| (ShardManifest::shard_dir(dir, s), *config));
            engines.push(sb.build()?);
        }

        let bounds = if is_tree { template.bounds } else { None };
        Ok(ShardedEngine::assemble(
            engines, partitioner, routing, locals, users, durable, bounds,
        ))
    }

    /// Final assembly shared by the builder and [`recover`]: publishes
    /// epoch 0 over the given state.
    pub(crate) fn assemble(
        engines: Vec<Engine>,
        partitioner: Partitioner,
        routing: Vec<RouteEntry>,
        locals: Vec<Vec<TrajectoryId>>,
        users: UserSet,
        durable: Option<ShardedDurable>,
        bounds: Option<Rect>,
    ) -> ShardedEngine {
        let shard0 = engines[0].snapshot();
        let snapshot = Arc::new(Snapshot {
            epoch: 0,
            users: Arc::new(users),
            // Shard 0's allocation, not a copy: its identity is how
            // `ShardSet::shard_tables` tells the registered set from a
            // restricted sub-set.
            facilities: shard0.facilities.clone(),
            model: shard0.model,
            backend: Arc::new(Backend::Sharded(ShardSet {
                shards: engines.iter().map(|e| e.snapshot()).collect(),
                locals: locals.into_iter().map(Arc::new).collect(),
            })),
            full: None,
        });
        ShardedEngine {
            engines,
            partitioner,
            routing,
            slot: Arc::new(SnapshotSlot::new(snapshot.clone())),
            snapshot,
            durable,
            bounds,
        }
    }

    /// The published shard set.
    fn shard_set(&self) -> &ShardSet {
        match self.snapshot.backend() {
            Backend::Sharded(set) => set,
            _ => unreachable!("a sharded engine only publishes sharded snapshots"),
        }
    }

    /// The shards' current snapshots under the given id maps.
    fn current_shards(&self, locals: Vec<Arc<Vec<TrajectoryId>>>) -> ShardSet {
        ShardSet {
            shards: self.engines.iter().map(|e| e.snapshot()).collect(),
            locals,
        }
    }

    /// Atomically publishes the successor snapshot at the next epoch and
    /// keeps the writer's handle in sync — the sharded sibling of the
    /// single engine's `publish`.
    fn publish(&mut self, users: Arc<UserSet>, set: ShardSet, full: Option<Arc<ServedTable>>) {
        let snapshot = Arc::new(Snapshot {
            epoch: self.snapshot.epoch + 1,
            users,
            facilities: self.snapshot.facilities.clone(),
            model: self.snapshot.model,
            backend: Arc::new(Backend::Sharded(set)),
            full,
        });
        self.snapshot = snapshot.clone();
        self.slot.store(snapshot);
    }

    /// The merged full-facility table over `set`'s shards: each shard's
    /// own full table where it carries one, a shard-side build otherwise.
    fn merge_full(&self, set: &ShardSet) -> Arc<ServedTable> {
        let snap = &self.snapshot;
        let all: Vec<FacilityId> = snap.facilities.iter().map(|(id, _)| id).collect();
        let parts = set.shard_tables(&snap.model, &snap.facilities, &all);
        Arc::new(set.merge(&all, &parts))
    }

    // -- queries ------------------------------------------------------------

    /// Answers a typed [`Query`] on the published snapshot — the same
    /// `session::execute` every [`Reader`] runs. A full-candidate query
    /// that had to build the merged full table warms the front
    /// ([`ShardedEngine::warm`]), so every shard holds the part its applies
    /// maintain; any other table a query builds is discarded.
    /// Bit-identical to [`Engine::run`] on one engine over the union of
    /// the shards' users.
    pub fn run(&mut self, query: Query) -> Result<Answer, EngineError> {
        let (answer, built) = session::execute(&self.snapshot, &query)?;
        if built.is_some() {
            self.warm();
        }
        Ok(answer)
    }

    /// Warms every shard ([`Engine::warm`], one thread per shard, like an
    /// apply's scatter), then publishes the merge of their full-facility
    /// tables: the sharded sibling of [`Engine::warm`].
    pub fn warm(&mut self) -> &ServedTable {
        if self.snapshot.full.is_none() {
            std::thread::scope(|scope| {
                for engine in &mut self.engines {
                    scope.spawn(move || {
                        engine.warm();
                    });
                }
            });
            let set = self.current_shards(self.shard_set().locals.clone());
            let full = self.merge_full(&set);
            self.publish(self.snapshot.users.clone(), set, Some(full));
        }
        self.snapshot.full_table().expect("installed above")
    }

    // -- updates ------------------------------------------------------------

    /// Applies one batch of updates across the shards and publishes the
    /// resulting sharded snapshot.
    ///
    /// The batch is validated **globally** first (bounds, liveness,
    /// double-removal — the same rules as [`Engine::apply`], in the
    /// global id space), split into per-shard sub-batches by the
    /// partitioner, then applied to the shards in parallel; each durable
    /// shard WAL-logs its own sub-batch. On a durable front end the
    /// routing record (batch events + per-shard WAL stamps) is appended
    /// and fsynced **before** the shard applies, so the routing log is
    /// always a superset of shard state and recovery's stamp rule can
    /// skip exactly the sub-batches that never reached their shard.
    ///
    /// All-or-nothing at the front: a validation or routing-log failure
    /// rejects the batch with nothing mutated. A *shard* apply failure
    /// after that is reported as the shard's error with the front end
    /// unpublished — on a durable engine, reopen with
    /// [`Engine::open_sharded`] to resynchronize; an in-memory engine
    /// cannot recover the split batch and should be discarded.
    ///
    /// [`EngineError::CheckpointFailed`] from a shard's threshold
    /// checkpoint is the one post-publish error: the batch **is** applied
    /// and published everywhere (do not retry it), only that shard's log
    /// compaction failed.
    pub fn apply(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        if !matches!(self.engines[0].backend(), Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_global(updates).map_err(EngineError::Update)?;

        // Split into per-shard sub-batches, translating global ids to
        // shard-local ids (including ids inserted earlier in this batch).
        let shards = self.engines.len();
        let mut subs: Vec<Vec<Update>> = vec![Vec::new(); shards];
        let mut events: Vec<RouteEvent> = Vec::with_capacity(updates.len());
        let mut pending: Vec<RouteEntry> = Vec::new();
        let mut next_lid: Vec<u32> = self
            .engines
            .iter()
            .map(|e| e.users().len() as u32)
            .collect();
        for u in updates {
            match u {
                Update::Insert(t) => {
                    let s = self.partitioner.shard_of(t, shards);
                    pending.push(RouteEntry {
                        shard: s as u16,
                        lid: next_lid[s],
                    });
                    next_lid[s] += 1;
                    subs[s].push(Update::Insert(t.clone()));
                    events.push(RouteEvent::Insert {
                        shard: s as u16,
                        alive: true,
                    });
                }
                Update::Remove(gid) => {
                    let entry = if (*gid as usize) < self.routing.len() {
                        self.routing[*gid as usize]
                    } else {
                        pending[*gid as usize - self.routing.len()]
                    };
                    subs[entry.shard as usize].push(Update::Remove(entry.lid));
                    events.push(RouteEvent::Remove { gid: *gid });
                }
            }
        }
        // Per-shard WAL stamps: the epoch each shard's own WAL will carry
        // this sub-batch under (0 = no events for that shard) — what lets
        // recovery decide, per shard, whether the sub-batch survived.
        let stamps: Vec<u64> = (0..shards)
            .map(|s| {
                if subs[s].is_empty() {
                    0
                } else {
                    self.engines[s].epoch() + 1
                }
            })
            .collect();
        if let Some(d) = self.durable.as_mut() {
            let record = RoutingRecord {
                seq: d.batch_seq,
                events,
                stamps,
            };
            d.log
                .append(record.seq, record.encode().as_ref())
                .map_err(persist_err)?;
            d.batch_seq += 1;
        }

        // Scatter: parallel per-shard applies (shards without events keep
        // their epoch — their WAL sees nothing, matching their stamp 0).
        let results: Vec<Option<Result<BatchOutcome, EngineError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .engines
                    .iter_mut()
                    .zip(&subs)
                    .map(|(engine, sub)| {
                        if sub.is_empty() {
                            None
                        } else {
                            Some(scope.spawn(move || engine.apply(sub)))
                        }
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("shard apply panicked")))
                    .collect()
            });
        let mut outcome = BatchOutcome::default();
        let mut checkpoint_failed: Option<EngineError> = None;
        for result in results.into_iter().flatten() {
            match result {
                Ok(o) => {
                    outcome.removed += o.removed;
                    outcome.untouched += o.untouched;
                    outcome.patched += o.patched;
                }
                Err(EngineError::CheckpointFailed(why)) => {
                    checkpoint_failed
                        .get_or_insert(EngineError::CheckpointFailed(why));
                }
                Err(e) => return Err(e),
            }
        }

        // Gather: fold the batch into the global id space.
        let mut users = UserSet::clone(&self.snapshot.users);
        let mut locals = self.shard_set().locals.clone();
        let mut pending = pending.into_iter();
        for u in updates {
            match u {
                Update::Insert(t) => {
                    let gid = users.push(t.clone());
                    outcome.inserted.push(gid);
                    let entry = pending.next().expect("one route per insert");
                    self.routing.push(entry);
                    // Copies a shard's map once per batch that inserts
                    // into it; untouched shards keep sharing theirs.
                    Arc::make_mut(&mut locals[entry.shard as usize]).push(gid);
                }
                Update::Remove(gid) => users.retire(*gid),
            }
        }

        // Re-merge the front's full table from the shards' freshly
        // maintained ones.
        let set = self.current_shards(locals);
        let full = self.snapshot.full.as_ref().map(|_| self.merge_full(&set));
        self.publish(Arc::new(users), set, full);
        match checkpoint_failed {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Global-id-space batch validation — the same rules as the single
    /// engine's, against the front end's bounds and liveness.
    fn validate_global(&self, updates: &[Update]) -> Result<(), UpdateError> {
        let Some(bounds) = self.bounds else {
            return Ok(());
        };
        let mut next_id = self.snapshot.users.len() as TrajectoryId;
        let mut batch_removed: FxHashSet<TrajectoryId> = Default::default();
        for (index, u) in updates.iter().enumerate() {
            match u {
                Update::Insert(t) => {
                    if t.points().iter().any(|p| !bounds.contains(p)) {
                        return Err(UpdateError::OutOfBounds { index });
                    }
                    next_id += 1;
                }
                Update::Remove(id) => {
                    let live = if (*id as usize) < self.snapshot.users.len() {
                        !self.snapshot.users.is_retired(*id)
                    } else {
                        *id < next_id
                    };
                    if !live || !batch_removed.insert(*id) {
                        return Err(UpdateError::NotLive { index, id: *id });
                    }
                }
            }
        }
        Ok(())
    }

    // -- durability ---------------------------------------------------------

    /// Idle-time housekeeping: [`Engine::maintain`] on every shard — each
    /// harvests its background checkpoint worker and runs its age-based
    /// checkpoint policy. Every shard is visited even after a failure; the
    /// first error is the one reported.
    pub fn maintain(&mut self) -> Result<(), EngineError> {
        let mut first = Ok(());
        for engine in &mut self.engines {
            let result = engine.maintain();
            if first.is_ok() {
                first = result;
            }
        }
        first
    }

    /// Checkpoints every shard (fresh snapshot, truncated WAL) and
    /// compacts the routing log down to a single full-placement record.
    /// Returns the store's root directory. Fails with
    /// [`EngineError::NotDurable`] on an in-memory front end.
    pub fn checkpoint(&mut self) -> Result<PathBuf, EngineError> {
        if self.durable.is_none() {
            return Err(EngineError::NotDurable);
        }
        for engine in &mut self.engines {
            engine.checkpoint()?;
        }
        self.rewrite_routing().map_err(persist_err)?;
        Ok(self.durable.as_ref().expect("checked durable").root.clone())
    }

    /// The attached store's status — the sharded root directory, with
    /// pending WAL batches summed across the shard stores — or `None`
    /// for an in-memory front end.
    pub fn persistence(&self) -> Option<crate::persist::PersistStatus> {
        let durable = self.durable.as_ref()?;
        Some(crate::persist::PersistStatus {
            dir: durable.root.clone(),
            wal_batches: self
                .engines
                .iter()
                .filter_map(|e| e.persistence())
                .map(|s| s.wal_batches)
                .sum(),
            checkpoint_every: durable.config.checkpoint_every,
        })
    }

    /// Replaces the routing log with one full-placement record covering
    /// the current state (every event stamp 0 = snapshot-covered).
    /// Crash-safe: written to a temp file, then renamed over the old log.
    fn rewrite_routing(&mut self) -> Result<(), tq_store::StoreError> {
        let durable = self.durable.as_mut().expect("checked durable");
        let record = RoutingRecord {
            seq: 0,
            events: (0..)
                .zip(&self.routing)
                .map(|(gid, entry)| RouteEvent::Insert {
                    shard: entry.shard,
                    alive: !self.snapshot.users.is_retired(gid),
                })
                .collect(),
            stamps: vec![0; self.engines.len()],
        };
        let tmp = durable.root.join("routing.tql.tmp");
        let mut log = routing::create_log(&tmp, durable.config.sync)?;
        log.append(0, record.encode().as_ref())?;
        std::fs::rename(&tmp, durable.root.join(ROUTING_FILE))?;
        std::fs::File::open(&durable.root)?.sync_all()?;
        durable.log = log;
        durable.batch_seq = 1;
        Ok(())
    }

    // -- accessors ----------------------------------------------------------

    /// A cloneable handle for serving threads — follows every publication
    /// of this engine.
    pub fn reader(&self) -> Reader {
        Reader {
            slot: self.slot.clone(),
        }
    }

    /// The currently published snapshot (its backend is
    /// [`Backend::Sharded`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot.clone()
    }

    /// The current front-end publication epoch (restarts at 0 on reopen;
    /// the durable epochs are the per-shard ones).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Shard `i`'s engine (read access — all writes go through the front
    /// end to keep the routing map consistent).
    pub fn shard(&self, i: usize) -> &Engine {
        &self.engines[i]
    }

    /// The partitioner routing inserts to shards.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The global user set: every id ever assigned, removed ones retired.
    pub fn users(&self) -> &UserSet {
        self.snapshot.users()
    }

    /// Number of live (not removed) trajectories across all shards.
    pub fn live_users(&self) -> usize {
        self.snapshot.live_users()
    }

    /// Whether global trajectory `id` is currently live.
    pub fn is_live(&self, id: TrajectoryId) -> bool {
        let users = &self.snapshot.users;
        (id as usize) < users.len() && !users.is_retired(id)
    }

    /// A compacted [`UserSet`] of the live trajectories in ascending
    /// global id order — the set a single-engine cross-check should
    /// index (see [`Engine::live_set`]).
    pub fn live_set(&self) -> UserSet {
        UserSet::from_vec(self.snapshot.users.iter().map(|(_, t)| t.clone()).collect())
    }

    /// The merged full-facility table (see [`ShardedEngine::warm`]);
    /// `None` until the front is warmed.
    pub fn full_table(&self) -> Option<&ServedTable> {
        self.snapshot.full_table()
    }
}

impl Engine {
    /// Opens a sharded store directory (created by
    /// [`EngineBuilder::build_sharded`] with persistence) with default
    /// [`StoreConfig`] — see [`Engine::open_sharded_with`].
    pub fn open_sharded(dir: impl AsRef<Path>) -> Result<ShardedEngine, EngineError> {
        Engine::open_sharded_with(dir, StoreConfig::default())
    }

    /// Opens a sharded store directory: recovers every shard's store in
    /// parallel (each to its own longest valid prefix), then replays the
    /// routing log under the per-shard epoch-stamp rule to rebuild a
    /// consistent global id space over exactly the batches that survived.
    /// Never panics on torn or corrupt state; unreconcilable directories
    /// fail with [`EngineError::Persist`] / [`EngineError::Sharded`].
    pub fn open_sharded_with(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<ShardedEngine, EngineError> {
        recover::open_sharded(dir.as_ref(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Scenario, ServiceModel};
    use tq_geometry::Point;
    use tq_trajectory::{Facility, FacilitySet, Trajectory};

    /// A sharded front has no single-store image: handing its snapshot's
    /// parts to the snapshot codec, or to the store-attaching path behind
    /// `persist_to`, is a typed refusal that leaves no store behind.
    #[test]
    fn a_sharded_front_is_refused_by_the_single_store_codec() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let sharded = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(UserSet::from_vec(vec![
                Trajectory::two_point(p(1.0, 1.0), p(9.0, 1.0)),
                Trajectory::two_point(p(1.0, 5.0), p(9.0, 5.0)),
            ]))
            .facilities(FacilitySet::from_vec(vec![Facility::new(vec![
                p(1.0, 2.0),
                p(9.0, 2.0),
            ])]))
            .bounds(Rect::new(p(0.0, 0.0), p(10.0, 10.0)))
            .shards(2)
            .build_sharded()
            .unwrap();
        let front = sharded.snapshot();
        let mut engine = Engine::new(
            front.users().clone(),
            front.facilities().clone(),
            *front.model(),
            front.backend().clone(),
        );
        assert!(matches!(
            crate::persist::encode_engine(&engine),
            Err(EngineError::Sharded(_))
        ));

        let dir = std::env::temp_dir().join(format!("tq-sharded-codec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let refused = crate::persist::attach_new_store(&mut engine, &dir, StoreConfig::default());
        assert!(matches!(refused, Err(EngineError::Sharded(_))), "{refused:?}");
        assert!(engine.persistence().is_none());
        assert!(Engine::open(&dir).is_err(), "no single-store image was written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `warm` warms every shard and publishes the merge of their tables —
    /// once, however often it is called — equal to one engine's table over
    /// the same users.
    #[test]
    fn warm_publishes_the_merge_of_every_shard_table() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let users = UserSet::from_vec(
            (0..40)
                .map(|i| {
                    let (x, y) = ((i / 10 % 2) as f64 * 4.0, (i % 10) as f64 + 0.25);
                    Trajectory::two_point(p(x, y), p(x + 4.0, y))
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..5)
                .map(|i| {
                    let y = i as f64 * 2.0 + 0.5;
                    Facility::new(vec![p(0.0, y), p(4.0, y), p(8.0, y)])
                })
                .collect(),
        );
        let builder = || {
            Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
                .users(users.clone())
                .facilities(facilities.clone())
                .bounds(Rect::new(p(0.0, 0.0), p(10.0, 10.0)))
        };
        let mut single = builder().build().unwrap();
        let mut sharded = builder().shards(2).build_sharded().unwrap();
        let epoch = sharded.epoch();
        let shard_epochs: Vec<u64> = (0..2).map(|s| sharded.shard(s).epoch()).collect();
        assert!(sharded.full_table().is_none());

        let merged: *const ServedTable = sharded.warm();
        assert_eq!(sharded.epoch(), epoch + 1);
        for (s, shard_epoch) in shard_epochs.iter().enumerate() {
            assert!(sharded.shard(s).full_table().is_some(), "shard {s} was not warmed");
            assert_eq!(sharded.shard(s).epoch(), shard_epoch + 1, "shard {s}");
        }
        sharded.warm();
        assert_eq!(sharded.epoch(), epoch + 1, "a second warm republished");
        assert!(std::ptr::eq(sharded.full_table().unwrap(), merged));

        let (got, want) = (sharded.full_table().unwrap(), single.warm());
        assert_eq!(got.ids, want.ids);
        assert_eq!(got.masks, want.masks);
        let value_bits = |t: &ServedTable| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(value_bits(got), value_bits(want));
        assert!(want.values.iter().any(|v| *v > 0.0), "setup: some route serves someone");
    }
}
