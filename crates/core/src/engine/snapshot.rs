//! The read plane: immutable, epoch-numbered [`Snapshot`]s and the
//! [`Reader`] handle that always yields the latest published one.
//!
//! A snapshot owns (via `Arc`) everything a query needs — the user
//! trajectories, the candidate facilities, the service model, the backend
//! index, and, once the engine was warmed, the frozen full-facility
//! [`ServedTable`] — and never changes after publication. That one table
//! is also every subset's table: a restricted-candidate query projects its
//! columns out of it instead of evaluating anything, so on a warmed engine
//! the index is written by updates and read only by the table's
//! maintenance. [`Snapshot::run`] therefore takes `&self` and acquires
//! **zero locks**: any number of threads can answer queries over the same
//! snapshot concurrently, each bit-identical to a serial execution over
//! that snapshot's data. Writers never touch a published snapshot; the
//! control plane ([`Engine`](super::Engine)) builds a *new* snapshot per
//! update batch (copy-on-write for the touched parts, `Arc`-shared for the
//! rest) and publishes it atomically. Old epochs stay valid for the
//! readers still holding them and are reclaimed by the `Arc` refcount when
//! the last reader drops — there is no epoch garbage collector and no
//! reader quiescence protocol.

use super::session::{self, Answer, Query};
use super::{Backend, BackendKind, EngineError};
use crate::maxcov::ServedTable;
use crate::service::ServiceModel;
use crate::tqtree::TqTree;
use std::sync::{Arc, RwLock};
use std::time::Instant;
use tq_trajectory::{FacilitySet, UserSet};

/// One immutable, epoch-numbered version of the engine's entire queryable
/// state. Obtained from [`Engine::snapshot`](super::Engine::snapshot) or a
/// [`Reader`]; shared freely across threads (`Arc<Snapshot>` is the unit
/// of sharing).
///
/// Queries through [`Snapshot::run`] are lock-free and read-only: a query
/// takes its table from the full-facility table when the snapshot carries
/// one (the table itself, or a projection of it), and otherwise builds it
/// locally through the index and discards it afterwards (only the control
/// plane installs a table, and only the full one — see
/// [`Engine::run`](super::Engine::run)).
#[derive(Debug)]
pub struct Snapshot {
    /// Publication sequence number, strictly increasing per engine.
    pub(crate) epoch: u64,
    /// The indexed trajectories; removed ones are retired ids in the set.
    pub(crate) users: Arc<UserSet>,
    /// The candidate facilities (immutable for the engine's lifetime).
    pub(crate) facilities: Arc<FacilitySet>,
    /// The service semantics.
    pub(crate) model: ServiceModel,
    /// The backend index over exactly `users`.
    pub(crate) backend: Arc<Backend>,
    /// The frozen full-facility [`ServedTable`] of a warmed engine: what a
    /// full-candidate query hits and a restricted-candidate one projects
    /// its table from. The table, and the columns inside it, are
    /// `Arc`-shared across epochs: an update batch copies only the columns
    /// it changes.
    pub(crate) full: Option<Arc<ServedTable>>,
}

impl Snapshot {
    /// Answers a typed [`Query`] against this snapshot's frozen state.
    ///
    /// `&self`, no locks, no interior mutability: safe to call from any
    /// number of threads concurrently, and bit-identical to running the
    /// same query on any other thread (or on the engine itself at this
    /// epoch). Validation errors are returned before any evaluation work
    /// happens, exactly as in [`Engine::run`](super::Engine::run).
    pub fn run(&self, query: Query) -> Result<Answer, EngineError> {
        let (answer, _discarded_table) = session::execute(self, &query)?;
        Ok(answer)
    }

    /// This snapshot's publication sequence number. Epochs are strictly
    /// monotone per engine: a larger epoch was published later. Answers
    /// carry it in [`Explain::snapshot_epoch`](super::Explain::snapshot_epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The trajectories this snapshot indexes; a removed trajectory is a
    /// retired id of the set (see [`Snapshot::live_users`]).
    pub fn users(&self) -> &UserSet {
        &self.users
    }

    /// The registered candidate facilities.
    pub fn facilities(&self) -> &FacilitySet {
        &self.facilities
    }

    /// The registered service model.
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// The backend index.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The TQ-tree, when that is the backend.
    pub fn tree(&self) -> Option<&TqTree> {
        match &*self.backend {
            Backend::TqTree(t) => Some(t),
            Backend::Baseline(_) | Backend::Sharded(_) => None,
        }
    }

    /// Number of live (inserted and not yet removed) trajectories at this
    /// epoch.
    pub fn live_users(&self) -> usize {
        self.users.present()
    }

    /// The frozen full-facility table (see
    /// [`Engine::warm`](super::Engine::warm)).
    pub fn full_table(&self) -> Option<&ServedTable> {
        self.full.as_deref()
    }
}

/// The publication slot: the one place a writer and its readers share.
///
/// Readers take the read half only long enough to clone the `Arc` (an
/// O(1) pointer copy — never held across query execution); the writer
/// takes the write half only for the O(1) pointer swap of
/// [`Engine::publish`](super::Engine). All real work on both sides happens
/// outside the lock, against immutable snapshots.
#[derive(Debug)]
pub(crate) struct SnapshotSlot {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotSlot {
    pub(crate) fn new(snapshot: Arc<Snapshot>) -> SnapshotSlot {
        SnapshotSlot {
            current: RwLock::new(snapshot),
        }
    }

    pub(crate) fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
    }
}

/// A point-in-time description of a published [`Snapshot`] — what a
/// daemon's hello/status frames report about the engine behind them.
#[derive(Debug, Clone, Copy)]
pub struct PlaneInfo {
    /// The latest published epoch.
    pub epoch: u64,
    /// The backend kind (homogeneous across the shards of a sharded engine).
    pub backend: BackendKind,
    /// Trajectory ids assigned, retired (removed) ones included.
    pub users: usize,
    /// Live (not removed) trajectories.
    pub live_users: usize,
    /// Registered candidate facilities.
    pub facilities: usize,
}

/// A cloneable, `Send + Sync` handle to an engine's latest published
/// [`Snapshot`] — the address a serving thread holds.
///
/// Obtained from [`Engine::reader`](super::Engine::reader) or
/// [`ShardedEngine::reader`](crate::sharding::ShardedEngine::reader) (the
/// two control planes publish the same snapshot type); cheap to clone
/// (one `Arc`). [`Reader::snapshot`] returns the snapshot current at call
/// time; the reader then queries that immutable snapshot for as long as it
/// likes (typically one request) while the writer publishes newer epochs
/// behind it. Successive `snapshot()` calls observe strictly monotone
/// epochs.
///
/// ```
/// use tq_core::dynamic::Update;
/// use tq_core::engine::{Engine, Query};
/// use tq_core::service::{Scenario, ServiceModel};
/// use tq_geometry::{Point, Rect};
/// use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
///
/// let p = |x: f64, y: f64| Point::new(x, y);
/// let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
///     .users(UserSet::from_vec(vec![
///         Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
///     ]))
///     .facilities(FacilitySet::from_vec(vec![
///         Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
///         Facility::new(vec![p(50.0, 51.0), p(60.0, 51.0)]),
///     ]))
///     .bounds(Rect::new(p(-100.0, -100.0), p(100.0, 100.0)))
///     .build()
///     .unwrap();
///
/// let reader = engine.reader();
/// let held = reader.snapshot(); // pin the current epoch
/// std::thread::scope(|s| {
///     // A serving thread answers while this thread writes.
///     let serving = reader.clone();
///     let answer = s.spawn(move || serving.query(Query::top_k(1)).unwrap());
///     engine
///         .apply(&[Update::Insert(Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)))])
///         .unwrap();
///     assert!(answer.join().unwrap().explain.snapshot_epoch <= engine.epoch());
/// });
/// assert!(reader.epoch() > held.epoch());
/// assert_eq!(held.live_users(), 1); // a held epoch never changes
/// assert_eq!(reader.snapshot().live_users(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Reader {
    pub(crate) slot: Arc<SnapshotSlot>,
}

impl Reader {
    /// The latest published snapshot. O(1): a pointer clone under a
    /// briefly-held read lock (the lock is never held during query
    /// execution, and the writer holds its write half only for the O(1)
    /// publication swap).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load()
    }

    /// The latest published epoch (shorthand for
    /// `self.snapshot().epoch()`).
    pub fn epoch(&self) -> u64 {
        self.slot.load().epoch
    }

    /// Takes the latest snapshot and answers `query` on it. The
    /// snapshot-grab time is recorded into the answer's
    /// [`Explain::queued`](super::Explain::queued).
    pub fn query(&self, query: Query) -> Result<Answer, EngineError> {
        let arrived = Instant::now();
        let snapshot = self.snapshot();
        let queued = arrived.elapsed();
        let mut answer = snapshot.run(query)?;
        answer.explain.queued = queued;
        session::note_slow_query(&answer.explain);
        Ok(answer)
    }

    /// Describes the latest snapshot for status reporting.
    pub fn info(&self) -> PlaneInfo {
        let snap = self.snapshot();
        PlaneInfo {
            epoch: snap.epoch(),
            backend: snap.backend().kind(),
            users: snap.users().len(),
            live_users: snap.live_users(),
            facilities: snap.facilities().len(),
        }
    }
}
