//! The unified query engine, split into a shared read plane and a
//! single-writer control plane for concurrent serving.
//!
//! The paper frames kMaxRRST and MaxkCovRST as two queries over one index
//! family (the TQ-tree versus the BL baseline); this module gives that
//! frame a session-style API built for many readers and one writer:
//!
//! * **[`Snapshot`]** — the read plane: an immutable, epoch-numbered
//!   version of the entire queryable state (users + facilities +
//!   [`ServiceModel`] + backend index + the frozen full-facility
//!   [`ServedTable`] once warmed, all behind `Arc`). [`Snapshot::run`]
//!   answers typed [`Query`]s through `&self` with **zero locks** — any
//!   number of threads serve queries concurrently, each answer
//!   bit-identical to serial execution.
//! * **[`Engine`]** — the single-writer control plane: owns the
//!   publication slot, answers queries itself ([`Engine::run`], which
//!   additionally installs a full-facility table a query built), and
//!   applies streaming [`Update`] batches ([`Engine::apply`]) by
//!   copy-on-write: the user set, the TQ-tree and the table are persistent
//!   structures, so a batch copies the tail user chunk, the q-node headers
//!   and β-runs on the paths it writes and the table columns in which a
//!   mask changes;
//!   everything else is `Arc`-shared with the previous epoch, and the new
//!   snapshot is published atomically.
//!   Readers never wait out a batch — they keep answering on the epoch
//!   they hold, and old epochs drain via `Arc` refcounts.
//! * **[`Reader`]** — the cloneable, `Send + Sync` handle serving threads
//!   hold; [`Reader::snapshot`] yields the latest published epoch. The
//!   `tq-net` server answers every connection's queries off one.
//!
//! # Request flow
//!
//! ```text
//!                     writer (one thread)             readers (N threads)
//!                 ┌───────────────────────┐        ┌──────────────────────┐
//! Engine::apply ─►│ validate → CoW-patch  │        │ reader.snapshot()    │
//!                 │ index + touched tables│        │   └► Arc<Snapshot>   │
//!                 │ → publish epoch e+1 ──┼──swap──┼──►                   │
//! Engine::run ───►│ execute on epoch e;   │ (slot) │ snapshot.run(query)  │
//!                 │ install a full table  │        │   &self, zero locks  │
//!                 └───────────────────────┘        └──────────────────────┘
//!        Query::top_k(k) / Query::max_cov(k).algorithm(..) → Answer + Explain
//!        (epoch e stays valid for readers still on it; freed by refcount)
//! ```
//!
//! # The full-facility table
//!
//! The expensive artifact every MaxkCovRST solver consumes — the
//! [`ServedTable`] of complete served-point masks — is kept for **all**
//! registered facilities in the published snapshot, once the engine is
//! warmed ([`Engine::warm`], or any full-candidate coverage query through
//! [`Engine::run`]). A full-candidate query is then answered straight from
//! the frozen table ([`CacheStatus::Hit`] in [`Explain`]). A facility's
//! column does not depend on which other candidates a query names, so
//! every restricted-candidate query — top-k and coverage alike, on either
//! plane — takes its table as a [`ServedTable::project`]ion of it: one
//! `Arc` bump per candidate, no index work ([`CacheStatus::Miss`] with zero
//! counters), nothing published. A snapshot carries that one table or
//! none.
//!
//! Installing it is a *control-plane* action: [`Engine::run`] publishes a
//! successor snapshot carrying a full-facility table its query built,
//! while [`Snapshot::run`] on the read plane builds what it misses locally
//! and discards it — readers never mutate shared state. An *unwarmed*
//! engine builds every subset table per query and keeps none; its queries
//! run the paper's best-first search and per-candidate evaluation — the
//! cold path, and the reference the projection is tested against
//! (`maxcov/project_proptests.rs`).
//!
//! [`Engine::apply`] keeps the table in sync incrementally (the
//! [`dynamic`](crate::dynamic)-engine invalidation rule: facilities whose
//! ψ-expanded EMBR misses every delta MBR are untouched — their columns,
//! and the table when no facility is touched, stay `Arc`-shared with the
//! previous epoch at zero cost — touched ones are patched delta-by-delta,
//! copying a column only when one of its masks changes).
//!
//! # Bit-identity
//!
//! Answers are **bit-identical across backends, histories, and planes**:
//! both backends sum service values in the canonical
//! ascending-trajectory-id order ([`crate::maxcov::Column`]), so
//! `Engine` over [`Backend::TqTree`] and over [`Backend::Baseline`] return
//! identical floats; an engine that has applied update batches answers
//! exactly like a freshly built one; and a query run on any reader's
//! snapshot equals the same query run serially on the engine at that epoch
//! (`tests/engine_api.rs`, `tests/dynamic_equivalence.rs` and
//! `tests/concurrent_serving.rs` enforce all three).
//!
//! One caveat scopes the cross-backend half: the two backends must
//! *expose the same trajectory points*. The BL baseline indexes every
//! point of every trajectory, while a TQ-tree under
//! [`Placement::TwoPoint`](crate::tqtree::Placement::TwoPoint) anchors
//! only each trajectory's source and destination — an intentional
//! endpoint approximation for multipoint data (see `eval.rs`). So over
//! two-point trajectories (taxi-like trips) the backends agree under
//! every placement, and over multipoint data they agree when the tree
//! uses [`Placement::Segmented`](crate::tqtree::Placement::Segmented) or
//! [`Placement::FullTrajectory`](crate::tqtree::Placement::FullTrajectory);
//! two-point placement over multipoint data answers a *different*
//! (endpoint-only) question than the baseline under the partial
//! scenarios.
//!
//! # Example
//!
//! ```
//! use tq_core::engine::{Algorithm, Engine, Query};
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_geometry::Point;
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let users = UserSet::from_vec(vec![
//!     Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
//!     Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)),
//! ]);
//! let routes = FacilitySet::from_vec(vec![
//!     Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
//!     Facility::new(vec![p(50.0, 51.0), p(60.0, 51.0)]),
//! ]);
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(users)
//!     .facilities(routes)
//!     .build()
//!     .unwrap();
//!
//! // kMaxRRST: the best facility.
//! let top = engine.run(Query::top_k(1)).unwrap();
//! assert_eq!(top.ranked()[0].1, 1.0);
//!
//! // MaxkCovRST: the best pair, greedily.
//! let cover = engine
//!     .run(Query::max_cov(2).algorithm(Algorithm::Greedy))
//!     .unwrap();
//! assert_eq!(cover.cover().value, 2.0);
//!
//! // The greedy query built a ServedTable for all candidates; a top-k
//! // query over the same candidates now hits that cache — on the engine
//! // and on every snapshot published since.
//! let again = engine.run(Query::top_k(2)).unwrap();
//! assert!(again.explain.cache.is_hit());
//! assert_eq!(again.ranked()[0].1, top.ranked()[0].1);
//!
//! // The read plane: a Reader is Send + Sync + Clone, and snapshots
//! // answer through &self — hand them to as many threads as you like.
//! let reader = engine.reader();
//! let snap = reader.snapshot();
//! let served = snap.run(Query::top_k(2)).unwrap();
//! assert_eq!(served.ranked(), again.ranked());
//! assert_eq!(served.explain.snapshot_epoch, snap.epoch());
//! ```

#![deny(missing_docs)]

pub(crate) mod session;
mod snapshot;

pub use session::{Algorithm, Answer, CacheStatus, Explain, Query, QueryResult};
pub use snapshot::{PlaneInfo, Reader, Snapshot};

pub(crate) use snapshot::SnapshotSlot;

use crate::baseline::BaselineIndex;
use crate::dynamic::{BatchOutcome, Update, UpdateError, UpdateStats};
use crate::eval::EvalOutcome;
use crate::fasthash::FxHashSet;
use crate::maxcov::ServedTable;
use crate::parallel;
use crate::persist::{Durable, StoreConfig};
use crate::service::ServiceModel;
use crate::sharding::ShardSet;
use crate::topk::{top_k_facilities, TopKOutcome};
use crate::tqtree::{TqTree, TqTreeConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tq_geometry::Rect;
use tq_trajectory::{Facility, FacilityId, FacilitySet, TrajectoryId, UserSet};

// ---------------------------------------------------------------------------
// The Index trait and the Backend enum
// ---------------------------------------------------------------------------

/// What a query backend must provide: per-facility evaluation with complete
/// served-point masks, an accelerated (or exhaustive) top-k, and
/// [`ServedTable`] construction for a candidate subset.
///
/// Implemented by [`TqTree`] (the paper's contribution), [`BaselineIndex`]
/// (the paper's BL reference) and [`ShardSet`] (either of them, partitioned
/// by user); [`Backend`] dispatches between them. All implementations must
/// report values summed in the canonical ascending-trajectory-id order
/// ([`crate::maxcov::Column`]) so answers are bit-identical across
/// backends whenever the backends expose the same trajectory points (see
/// the [module docs](self) for the one placement caveat).
pub trait Index {
    /// Which backend this is, for [`Explain`] reports.
    fn backend_kind(&self) -> BackendKind;

    /// Evaluates one facility with **complete** served-point masks (the
    /// flavour MaxkCovRST's `AGG` union requires).
    fn evaluate(&self, users: &UserSet, model: &ServiceModel, facility: &Facility)
        -> EvalOutcome;

    /// The `k` facilities with the highest service value, best first, ties
    /// broken by ascending facility id.
    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome;

    /// Builds the complete [`ServedTable`] for the given candidate ids.
    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable;
}

impl Index for TqTree {
    fn backend_kind(&self) -> BackendKind {
        BackendKind::TqTree
    }

    fn evaluate(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facility: &Facility,
    ) -> EvalOutcome {
        crate::eval::evaluate_masks(self, users, model, facility)
    }

    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome {
        top_k_facilities(self, users, model, facilities, k)
    }

    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        ServedTable::build_for(self, users, model, facilities, candidates)
    }
}

impl Index for BaselineIndex {
    fn backend_kind(&self) -> BackendKind {
        BackendKind::Baseline
    }

    fn evaluate(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facility: &Facility,
    ) -> EvalOutcome {
        BaselineIndex::evaluate(self, users, model, facility)
    }

    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome {
        BaselineIndex::top_k(self, users, model, facilities, k)
    }

    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        // Same fan-out shape as the TQ-tree table build: independent
        // per-candidate evaluations, ordered reduction, canonical values.
        let outcomes = parallel::par_map(candidates, |&fid| {
            BaselineIndex::evaluate(self, users, model, facilities.get(fid))
        });
        ServedTable::from_outcomes(candidates.to_vec(), outcomes)
    }
}

/// The index behind an [`Engine`].
#[derive(Debug, Clone)]
pub enum Backend {
    /// The paper's TQ-tree — TQ(B) or TQ(Z) depending on its
    /// [`TqTreeConfig`]. The only backend that supports
    /// [`Engine::apply`] updates.
    TqTree(TqTree),
    /// The paper's BL point-quadtree baseline (exhaustive top-k, range
    /// query + verification per facility).
    Baseline(BaselineIndex),
    /// The users partitioned across independent shard snapshots — what a
    /// [`ShardedEngine`](crate::sharding::ShardedEngine) publishes. Tables
    /// are the shards' tables merged into the global id space, so every
    /// query family answers bit-identically to one index over the union.
    Sharded(ShardSet),
}

impl Backend {
    pub(crate) fn as_index(&self) -> &dyn Index {
        match self {
            Backend::TqTree(t) => t,
            Backend::Baseline(b) => b,
            Backend::Sharded(s) => s,
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> BackendKind {
        self.as_index().backend_kind()
    }
}

/// The index family behind a [`Backend`], carried by [`Explain`] (a
/// [`Backend::Sharded`] reports its shards' family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`Backend::TqTree`].
    TqTree,
    /// [`Backend::Baseline`].
    Baseline,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::TqTree => write!(f, "tq-tree"),
            BackendKind::Baseline => write!(f, "baseline"),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed errors of the [`Engine`] API — every condition the older free
/// functions answered with a panic or silent truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query's candidate set is empty (no facilities registered, or an
    /// explicit empty [`Query::candidates`] list).
    EmptyCandidates,
    /// `k == 0` — the query asks for nothing.
    ZeroK,
    /// `k` exceeds the number of candidate facilities.
    KExceedsCandidates {
        /// The requested `k`.
        k: usize,
        /// The number of candidates actually available.
        candidates: usize,
    },
    /// A [`Query::candidates`] id does not name a registered facility.
    UnknownCandidate {
        /// The offending id.
        id: FacilityId,
    },
    /// An update batch was rejected (out-of-bounds insert, or a removal
    /// naming a trajectory id that is not live). The batch was applied not
    /// at all.
    Update(UpdateError),
    /// [`Engine::apply`] was called on a backend without update support
    /// (the BL baseline is a static index).
    UpdatesUnsupported,
    /// An initial trajectory lies outside the explicit engine bounds passed
    /// to [`EngineBuilder::bounds`].
    TrajectoryOutOfBounds {
        /// The offending trajectory id.
        id: TrajectoryId,
    },
    /// The exact branch-and-bound solver exhausted its node budget before
    /// proving optimality (raise [`Query::node_budget`], lower `k`, or use
    /// [`Algorithm::Greedy`]).
    ExactBudgetExhausted,
    /// A persistence operation failed — I/O, a corrupt store, a refused
    /// WAL append. Carries the rendered [`tq_store::StoreError`]. A WAL
    /// failure inside [`Engine::apply`] rejects the batch with the
    /// in-memory engine untouched.
    Persist(String),
    /// The *post-publish* threshold checkpoint inside [`Engine::apply`]
    /// failed. Unlike [`EngineError::Persist`], the batch itself **was
    /// applied, published and durably WAL-logged** — do not retry it;
    /// only the log compaction failed (it will be retried by the next
    /// apply over threshold, or an explicit [`Engine::checkpoint`]).
    CheckpointFailed(String),
    /// [`Engine::checkpoint`] was called on an engine without an attached
    /// store (build with
    /// [`EngineBuilder::persist_to`] or load with [`Engine::open`] to get
    /// one).
    NotDurable,
    /// A sharded-engine configuration or consistency problem — a front end
    /// that cannot be built as requested ([`EngineBuilder::build_sharded`])
    /// or a sharded store whose shards and routing log disagree beyond
    /// what recovery can reconcile ([`Engine::open_sharded`]).
    Sharded(String),
    /// The write was sent to a replication follower. Followers apply only
    /// batches shipped from their primary; direct writes must go to the
    /// named primary address instead.
    ReadOnly {
        /// Address of the primary this follower replicates from.
        primary: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyCandidates => {
                write!(f, "the query's candidate facility set is empty")
            }
            EngineError::ZeroK => write!(f, "k must be at least 1"),
            EngineError::KExceedsCandidates { k, candidates } => write!(
                f,
                "k = {k} exceeds the {candidates} candidate facilities available"
            ),
            EngineError::UnknownCandidate { id } => {
                write!(f, "candidate id {id} does not name a registered facility")
            }
            EngineError::Update(e) => write!(f, "update batch rejected: {e}"),
            EngineError::UpdatesUnsupported => {
                write!(f, "the baseline backend is static and cannot apply updates")
            }
            EngineError::TrajectoryOutOfBounds { id } => {
                write!(f, "initial trajectory {id} lies outside the engine bounds")
            }
            EngineError::ExactBudgetExhausted => write!(
                f,
                "exact search exceeded its node budget before proving optimality"
            ),
            EngineError::Persist(why) => write!(f, "persistence failed: {why}"),
            EngineError::CheckpointFailed(why) => write!(
                f,
                "batch applied and WAL-logged, but the threshold checkpoint failed: {why}"
            ),
            EngineError::NotDurable => {
                write!(f, "no store attached (build with persist_to or Engine::open)")
            }
            EngineError::Sharded(why) => write!(f, "sharded engine: {why}"),
            EngineError::ReadOnly { primary } => write!(
                f,
                "this node is a read-only follower; send writes to the primary at {primary}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<UpdateError> for EngineError {
    fn from(e: UpdateError) -> Self {
        EngineError::Update(e)
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum BackendChoice {
    TqTree(TqTreeConfig),
    Baseline { capacity: usize },
}

/// Fluent constructor for [`Engine`] — see [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    pub(crate) model: ServiceModel,
    pub(crate) users: UserSet,
    pub(crate) facilities: FacilitySet,
    pub(crate) backend: BackendChoice,
    pub(crate) bounds: Option<Rect>,
    pub(crate) persist: Option<(PathBuf, StoreConfig)>,
    /// Shard count for [`EngineBuilder::build_sharded`]; ignored by
    /// [`EngineBuilder::build`].
    pub(crate) shards: usize,
    /// `true` = z-range spatial partitioner, `false` = hash partitioner.
    pub(crate) spatial: bool,
}

impl EngineBuilder {
    /// Registers the user trajectories the engine indexes and serves.
    pub fn users(mut self, users: UserSet) -> EngineBuilder {
        self.users = users;
        self
    }

    /// Registers the candidate facilities queries rank and combine.
    pub fn facilities(mut self, facilities: FacilitySet) -> EngineBuilder {
        self.facilities = facilities;
        self
    }

    /// Uses a TQ-tree backend with this configuration (the default backend
    /// uses [`TqTreeConfig::default`]).
    pub fn tree_config(mut self, config: TqTreeConfig) -> EngineBuilder {
        self.backend = BackendChoice::TqTree(config);
        self
    }

    /// Uses the BL point-quadtree baseline backend instead of the TQ-tree.
    pub fn baseline(self) -> EngineBuilder {
        self.baseline_capacity(crate::baseline::DEFAULT_LEAF_CAPACITY)
    }

    /// [`EngineBuilder::baseline`] with an explicit quadtree leaf capacity.
    pub fn baseline_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.backend = BackendChoice::Baseline { capacity };
        self
    }

    /// Fixes the TQ-tree bounds (required when [`Engine::apply`] will
    /// insert trajectories outside the initial data extent, e.g. the full
    /// city rectangle). Initial trajectories outside the bounds fail the
    /// build with [`EngineError::TrajectoryOutOfBounds`]. Ignored by the
    /// baseline backend.
    pub fn bounds(mut self, bounds: Rect) -> EngineBuilder {
        self.bounds = Some(bounds);
        self
    }

    /// Makes the engine durable: creates a fresh
    /// [`tq_store`] directory at `dir`, writes the built engine's initial
    /// snapshot into it, and attaches the store so every
    /// [`Engine::apply`] batch is WAL-logged before it publishes and
    /// [`Engine::checkpoint`] (explicit or threshold-triggered) compacts
    /// the log into a new snapshot.
    ///
    /// The build fails with [`EngineError::Persist`] when `dir` already
    /// holds a store — reopen existing state with [`Engine::open`]
    /// instead of silently overwriting its history.
    pub fn persist_to(self, dir: impl AsRef<Path>) -> EngineBuilder {
        self.persist_with(dir, StoreConfig::default())
    }

    /// [`EngineBuilder::persist_to`] with explicit store tunables (fsync
    /// policy, auto-checkpoint threshold, snapshot retention).
    pub fn persist_with(mut self, dir: impl AsRef<Path>, config: StoreConfig) -> EngineBuilder {
        self.persist = Some((dir.as_ref().to_path_buf(), config));
        self
    }

    /// Number of shards for [`EngineBuilder::build_sharded`] (clamped to at
    /// least 1). Users are partitioned across `n` independent engines by
    /// the hash partitioner unless [`EngineBuilder::partition_by_space`]
    /// selects z-range splitting. Ignored by plain [`EngineBuilder::build`].
    pub fn shards(mut self, n: usize) -> EngineBuilder {
        self.shards = n.max(1);
        self
    }

    /// Selects the spatial z-range partitioner for
    /// [`EngineBuilder::build_sharded`]: shard boundaries are quantile
    /// splits of the initial users' source-point Z-curve codes, so
    /// spatially close trajectories land on the same shard. Requires
    /// explicit [`EngineBuilder::bounds`] or a non-empty initial user set
    /// (the split root rectangle).
    pub fn partition_by_space(mut self) -> EngineBuilder {
        self.spatial = true;
        self
    }

    /// Builds a [`crate::sharding::ShardedEngine`] front end over
    /// [`EngineBuilder::shards`] independent shard engines — same model,
    /// facilities, backend and tuning, each indexing its partition of the
    /// users. With [`EngineBuilder::persist_with`], `dir` becomes a
    /// *sharded* store directory: a shard manifest, a routing log and one
    /// plain store per shard (reopen with [`Engine::open_sharded`]).
    pub fn build_sharded(self) -> Result<crate::sharding::ShardedEngine, EngineError> {
        crate::sharding::ShardedEngine::from_builder(self)
    }

    /// Builds the backend index and the engine.
    pub fn build(self) -> Result<Engine, EngineError> {
        let backend = match self.backend {
            BackendChoice::TqTree(config) => match self.bounds {
                Some(bounds) => {
                    for (id, t) in self.users.iter() {
                        if t.points().iter().any(|p| !bounds.contains(p)) {
                            return Err(EngineError::TrajectoryOutOfBounds { id });
                        }
                    }
                    Backend::TqTree(TqTree::build_with_bounds(&self.users, config, bounds))
                }
                None => Backend::TqTree(TqTree::build(&self.users, config)),
            },
            BackendChoice::Baseline { capacity } => {
                Backend::Baseline(BaselineIndex::build_with_capacity(&self.users, capacity))
            }
        };
        let mut engine = Engine::new(self.users, self.facilities, self.model, backend);
        if let Some((dir, config)) = self.persist {
            crate::persist::attach_new_store(&mut engine, &dir, config)?;
        }
        Ok(engine)
    }
}

// ---------------------------------------------------------------------------
// Write-path attribution
// ---------------------------------------------------------------------------

const STAGE_COPY: usize = 0;
const STAGE_TREE: usize = 1;
const STAGE_TABLES: usize = 2;
const STAGE_PUBLISH: usize = 3;

/// Registry handles for `tq_engine_apply_stage_ns{stage=…}`: where one
/// batch's apply time goes — the opening clones, the index mutation, the
/// table maintenance, and the publication (which includes releasing the
/// previous epoch).
fn apply_stage_metrics() -> &'static [&'static tq_obs::Histogram; 4] {
    static M: OnceLock<[&'static tq_obs::Histogram; 4]> = OnceLock::new();
    M.get_or_init(|| {
        ["copy", "tree", "tables", "publish"]
            .map(|stage| tq_obs::histogram("tq_engine_apply_stage_ns", &format!("stage=\"{stage}\"")))
    })
}

/// The stopwatch of one apply. Each [`StageClock::lap`] books the time
/// since the previous one to a stage, so the stages partition the span
/// from `start` to the last lap exactly. Reads no clock while recording is
/// off.
struct StageClock(Option<Instant>);

impl StageClock {
    fn start() -> StageClock {
        StageClock(tq_obs::enabled().then(Instant::now))
    }

    fn lap(&mut self, stage: usize) {
        if let Some(last) = self.0 {
            let now = Instant::now();
            apply_stage_metrics()[stage].record(now - last);
            self.0 = Some(now);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine (the control plane)
// ---------------------------------------------------------------------------

/// The single-writer control plane over one user set, service model and
/// backend: publishes [`Snapshot`]s for the read plane, answers queries
/// itself (installing a full-facility table it built), and applies
/// [`Update`] batches by copy-on-write. See the [module docs](self) for the
/// two-plane design, the full-facility table and the bit-identity
/// guarantees.
#[derive(Debug)]
pub struct Engine {
    /// The publication slot shared with every [`Reader`].
    slot: Arc<SnapshotSlot>,
    /// The writer's handle to the currently published snapshot (always the
    /// same `Arc` the slot holds).
    snapshot: Arc<Snapshot>,
    /// Per-facility ψ-expanded stop bounding rectangles (EMBRs) — the
    /// update-invalidation test. Facilities are immutable, so this never
    /// changes after construction.
    embrs: Vec<Rect>,
    stats: UpdateStats,
    /// The attached store when the engine is durable (see
    /// [`crate::persist`]); `None` for in-memory engines.
    pub(crate) durable: Option<Durable>,
}

impl Clone for Engine {
    /// Clones the control plane into an *independent* engine with its own
    /// publication slot seeded at the current snapshot. Readers of the
    /// original keep following the original; the clone starts a separate
    /// epoch history (continuing from the current epoch number).
    ///
    /// The clone is always **in-memory**: a store has one WAL and one
    /// writer, and that is the engine being cloned. Persist the fork to a
    /// different directory if it needs its own durability.
    fn clone(&self) -> Engine {
        Engine {
            slot: Arc::new(SnapshotSlot::new(self.snapshot.clone())),
            snapshot: self.snapshot.clone(),
            embrs: self.embrs.clone(),
            stats: self.stats,
            durable: None,
        }
    }
}

impl Engine {
    /// Starts a fluent [`EngineBuilder`] (TQ-tree backend with default
    /// configuration unless overridden).
    pub fn builder(model: ServiceModel) -> EngineBuilder {
        EngineBuilder {
            model,
            users: UserSet::new(),
            facilities: FacilitySet::new(),
            backend: BackendChoice::TqTree(TqTreeConfig::default()),
            bounds: None,
            persist: None,
            shards: 1,
            spatial: false,
        }
    }

    /// Wraps a pre-built backend. The backend must index exactly `users`
    /// (e.g. `Backend::TqTree(TqTree::build(&users, cfg))`).
    pub fn new(
        users: UserSet,
        facilities: FacilitySet,
        model: ServiceModel,
        backend: Backend,
    ) -> Engine {
        Engine::from_restored(users, facilities, model, backend, 0, None)
    }

    /// Reassembles an engine from decoded snapshot state — the
    /// deserialization counterpart of [`Engine::new`] that additionally
    /// restores the publication epoch and the warmed table (liveness
    /// arrives inside `users`).
    pub(crate) fn from_restored(
        users: UserSet,
        facilities: FacilitySet,
        model: ServiceModel,
        backend: Backend,
        epoch: u64,
        full_table: Option<ServedTable>,
    ) -> Engine {
        let embrs = facilities.iter().map(|(_, f)| f.embr(model.psi)).collect();
        let snapshot = Arc::new(Snapshot {
            epoch,
            users: Arc::new(users),
            facilities: Arc::new(facilities),
            model,
            backend: Arc::new(backend),
            full: full_table.map(Arc::new),
        });
        Engine {
            slot: Arc::new(SnapshotSlot::new(snapshot.clone())),
            snapshot,
            embrs,
            stats: UpdateStats::default(),
            durable: None,
        }
    }

    /// Attaches an opened store (see [`crate::persist`]).
    pub(crate) fn attach_store(&mut self, store: tq_store::Store) {
        self.durable = Some(Durable::new(store));
    }

    // -- the read plane -----------------------------------------------------

    /// A cloneable, `Send + Sync` [`Reader`] handle that always yields the
    /// engine's latest published snapshot — the thing to hand to serving
    /// threads.
    pub fn reader(&self) -> Reader {
        Reader {
            slot: self.slot.clone(),
        }
    }

    /// The currently published snapshot (readers obtained it through
    /// [`Engine::reader`]; the writer gets the same `Arc` here without
    /// touching the slot).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot.clone()
    }

    /// The current publication epoch. Starts at 0; bumped by every
    /// publication — update batches ([`Engine::apply`]) and the
    /// installation of the full-facility table ([`Engine::warm`], or an
    /// [`Engine::run`] whose full-candidate query built it).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// Atomically publishes a successor snapshot and keeps the writer's
    /// handle in sync. The one and only place epochs advance.
    fn publish(&mut self, snapshot: Snapshot) {
        debug_assert!(snapshot.epoch > self.snapshot.epoch, "epochs are monotone");
        let arc = Arc::new(snapshot);
        self.snapshot = arc.clone();
        self.slot.store(arc);
    }

    // -- queries ------------------------------------------------------------

    /// Answers a typed [`Query`]. A full-candidate query that had to build
    /// the full-facility [`ServedTable`] installs it in a newly published
    /// snapshot — that *is* warming (see [`Engine::warm`]), so subsequent
    /// queries on the engine and on every reader take their tables from
    /// it. Any other table a query builds is discarded: on an unwarmed
    /// engine a repeated subset query builds its table again and publishes
    /// nothing.
    ///
    /// Validation errors ([`EngineError::EmptyCandidates`],
    /// [`EngineError::ZeroK`], [`EngineError::KExceedsCandidates`],
    /// [`EngineError::UnknownCandidate`]) are returned before any
    /// evaluation work happens.
    pub fn run(&mut self, query: Query) -> Result<Answer, EngineError> {
        let (answer, built) = session::execute(&self.snapshot, &query)?;
        if let Some(table) = built {
            self.install_full_table(table);
        }
        Ok(answer)
    }

    /// Publishes a successor snapshot carrying `table` as the
    /// full-facility table.
    fn install_full_table(&mut self, table: Arc<ServedTable>) {
        self.publish(Snapshot {
            epoch: self.snapshot.epoch + 1,
            users: self.snapshot.users.clone(),
            facilities: self.snapshot.facilities.clone(),
            model: self.snapshot.model,
            backend: self.snapshot.backend.clone(),
            full: Some(table),
        });
    }

    /// Pre-evaluates the [`ServedTable`] over **all** registered
    /// facilities, so subsequent full-candidate queries hit it,
    /// restricted-candidate ones are projected from it, and
    /// [`Engine::apply`] maintains it incrementally from the start.
    /// Publishes the snapshot carrying it and returns the table.
    pub fn warm(&mut self) -> &ServedTable {
        if self.snapshot.full.is_none() {
            let all: Vec<FacilityId> = self.snapshot.facilities.iter().map(|(id, _)| id).collect();
            let table = self.snapshot.backend.as_index().served_table(
                &self.snapshot.users,
                &self.snapshot.model,
                &self.snapshot.facilities,
                &all,
            );
            self.install_full_table(Arc::new(table));
        }
        self.snapshot.full_table().expect("installed above")
    }

    /// The full-facility table (see [`Engine::warm`]); `None` until the
    /// engine is warmed.
    pub fn full_table(&self) -> Option<&ServedTable> {
        self.snapshot.full_table()
    }

    // -- updates ------------------------------------------------------------

    /// Applies one batch of updates and publishes the resulting snapshot:
    /// validates the batch, copy-on-write-mutates the index and user set
    /// (copying the runs, q-node headers and tail user chunk the batch
    /// touches — not the state), patches the full-facility table back in
    /// sync when the engine is warmed (every column no mask of which
    /// changes stays `Arc`-shared with the previous epoch at zero cost;
    /// the others are patched delta-by-delta, as counted by
    /// [`Engine::stats`]), then swaps the new epoch into the publication
    /// slot. Readers keep answering on the old
    /// epoch until they next ask for a snapshot; the old epoch is freed by
    /// its `Arc` refcount.
    ///
    /// All-or-nothing: a batch with an out-of-bounds insert or a dead
    /// removal id is rejected without touching the engine
    /// ([`EngineError::Update`]). The baseline backend rejects all updates
    /// with [`EngineError::UpdatesUnsupported`].
    ///
    /// On a durable engine (built with [`EngineBuilder::persist_to`] or
    /// loaded with [`Engine::open`]) the validated batch is appended to
    /// the write-ahead log — fsynced per the configured
    /// [`crate::persist::SyncPolicy`] — **before** any state mutates, so
    /// an acknowledged batch survives a crash at any later instant (a
    /// WAL failure surfaces as [`EngineError::Persist`] with the batch
    /// rejected and the engine untouched); and once the store's
    /// `checkpoint_every` threshold is reached the apply finishes by
    /// checkpointing (fresh snapshot, truncated WAL). A failure of that
    /// post-publish compaction is the one error after which the batch
    /// *is* applied — it is reported distinctly as
    /// [`EngineError::CheckpointFailed`] so callers never retry an
    /// already-durable batch.
    pub fn apply(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        if !matches!(&*self.snapshot.backend, Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_batch(updates)?;
        self.wal_append(updates)?;
        let outcome = self.apply_validated(updates, self.snapshot.epoch + 1);
        self.maybe_auto_checkpoint()?;
        Ok(outcome)
    }

    /// Re-applies one WAL batch during [`Engine::open`] recovery: same
    /// validation and mutation as [`Engine::apply`], but publishing at
    /// the epoch the original apply stamped into the record (so the
    /// recovered engine resumes exactly where the writer was) and without
    /// re-appending to the WAL.
    pub(crate) fn replay_batch(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        if !matches!(&*self.snapshot.backend, Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_batch(updates)?;
        Ok(self.apply_validated(updates, stamp))
    }

    /// Applies one batch shipped from a replication primary, publishing at
    /// the epoch the primary stamped it with.
    ///
    /// The stamp makes this **idempotent**: a batch at or below the
    /// engine's current epoch is already reflected in the state (the
    /// follower saw it through catch-up *and* the live feed, or through a
    /// reconnect replaying an overlap) and is skipped with an empty
    /// [`BatchOutcome`]. Stamps above the current epoch may legitimately
    /// skip epochs — WAL stamps are increasing but not dense (see
    /// [`crate::persist`]) — and publish exactly at the primary's stamp,
    /// the same rule the WAL replay of [`Engine::open`] follows.
    ///
    /// On a durable follower the batch lands in the local WAL at the
    /// primary's stamp *before* it publishes — exactly the
    /// WAL-before-publish ordering of [`Engine::apply`] — so a follower
    /// crash replays to the same epoch it acknowledged.
    pub fn apply_replicated(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        if stamp <= self.snapshot.epoch {
            return Ok(BatchOutcome::default());
        }
        if !matches!(&*self.snapshot.backend, Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_batch(updates)?;
        self.wal_append_at(updates, stamp)?;
        let outcome = self.apply_validated(updates, stamp);
        self.maybe_auto_checkpoint()?;
        Ok(outcome)
    }

    /// The mutation half of [`Engine::apply`]: the batch must already be
    /// validated (and WAL-logged when durable); publishes at `new_epoch`.
    fn apply_validated(&mut self, updates: &[Update], new_epoch: u64) -> BatchOutcome {
        let mut clock = StageClock::start();
        // Copy-on-write of the mutable halves: readers may still hold the
        // published snapshot, so it is never mutated in place. The user
        // set, the tree and the table are persistent — these clones copy a
        // chunk directory, a node-pointer arena and one `Arc`, and the
        // batch below then copies only what it writes (the tail user chunk,
        // the q-node headers on its paths, the runs it rewrites, the table
        // columns it changes).
        let mut users = UserSet::clone(&self.snapshot.users);
        let Backend::TqTree(tree_ref) = &*self.snapshot.backend else {
            unreachable!("checked above");
        };
        let mut tree = tree_ref.clone();
        let mut full = self.snapshot.full.clone();
        clock.lap(STAGE_COPY);

        // Phase 1: mutate the index, collecting the delta list
        // (id, inserted?, trajectory MBR) per event, in order.
        let mut outcome = BatchOutcome::default();
        let mut deltas: Vec<(TrajectoryId, bool, Rect)> = Vec::with_capacity(updates.len());
        for u in updates {
            match u {
                Update::Insert(t) => {
                    let mbr = t.mbr();
                    let id = tree
                        .insert(&mut users, t.clone())
                        .expect("validated against the bounds");
                    self.stats.inserts += 1;
                    outcome.inserted.push(id);
                    deltas.push((id, true, mbr));
                }
                Update::Remove(id) => {
                    tree.remove(&users, *id).expect("validated as live");
                    self.stats.removes += 1;
                    outcome.removed += 1;
                    deltas.push((*id, false, users.get(*id).mbr()));
                    // The index and the delta list were the last readers
                    // of its points: the id stays, the trajectory goes.
                    users.retire(*id);
                }
            }
        }
        clock.lap(STAGE_TREE);

        // Phase 2: patch the full-facility table, classifying its
        // facilities by the EMBR∩delta-MBR rule. The table header (ids,
        // values, one pointer per column) is copied at the first touched
        // facility, so a batch that touches none keeps the previous epoch's
        // table; a column is copied only when one of its masks changes, and
        // every other column stays shared.
        if let Some(shared) = &mut full {
            let placement = tree.config().placement;
            for ti in 0..shared.ids.len() {
                let fid = shared.ids[ti];
                let embr = &self.embrs[fid as usize];
                let mut relevant = deltas
                    .iter()
                    .filter(|(_, _, mbr)| embr.intersects(mbr))
                    .peekable();
                if relevant.peek().is_none() {
                    self.stats.facilities_untouched += 1;
                    outcome.untouched += 1;
                    continue;
                }
                let table = Arc::make_mut(shared);
                let facility = self.snapshot.facilities.get(fid);
                let column = &mut table.masks[ti];
                for &(id, inserted, _) in relevant {
                    if inserted && users.is_retired(id) {
                        // Arrived and expired within this batch: its
                        // removal delta would only undo the mask again.
                        continue;
                    }
                    if inserted {
                        self.stats.patch_evaluations += 1;
                        if let Some(mask) = session::delta_mask(
                            &users,
                            &self.snapshot.model,
                            placement,
                            id,
                            facility,
                        ) {
                            // An arrival's id is larger than every id the
                            // column holds: the patch appends.
                            let val = self.snapshot.model.value(users.get(id), &mask);
                            Arc::make_mut(column).push(id, mask.view(), val);
                        }
                    } else if column.get(id).is_some() {
                        Arc::make_mut(column).remove(id);
                    }
                }
                table.values[ti] = column.value();
                self.stats.facilities_patched += 1;
                outcome.patched += 1;
            }
        }
        self.stats.batches += 1;
        clock.lap(STAGE_TABLES);
        // Replacing the writer's handle releases the previous epoch: with
        // no reader still on it, that frees exactly what this batch
        // replaced — everything else lives on in the new snapshot.
        self.publish(Snapshot {
            epoch: new_epoch,
            users: Arc::new(users),
            facilities: self.snapshot.facilities.clone(),
            model: self.snapshot.model,
            backend: Arc::new(Backend::TqTree(tree)),
            full,
        });
        clock.lap(STAGE_PUBLISH);
        outcome
    }

    /// Validates a batch without mutating anything: bounds for inserts,
    /// liveness (accounting for earlier events of the same batch) for
    /// removals.
    fn validate_batch(&self, updates: &[Update]) -> Result<(), UpdateError> {
        let Backend::TqTree(tree) = &*self.snapshot.backend else {
            return Ok(());
        };
        let bounds = tree.bounds();
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
                        // Inserted earlier in this batch?
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

    // -- accessors ----------------------------------------------------------

    /// The registered user trajectories: every id ever assigned, the
    /// removed ones retired (see [`Engine::is_live`]).
    pub fn users(&self) -> &UserSet {
        self.snapshot.users()
    }

    /// The registered candidate facilities.
    pub fn facilities(&self) -> &FacilitySet {
        self.snapshot.facilities()
    }

    /// The registered service model.
    pub fn model(&self) -> &ServiceModel {
        self.snapshot.model()
    }

    /// The backend index.
    pub fn backend(&self) -> &Backend {
        self.snapshot.backend()
    }

    /// The TQ-tree, when that is the backend.
    pub fn tree(&self) -> Option<&TqTree> {
        self.snapshot.tree()
    }

    /// Number of live (inserted and not yet removed) trajectories.
    pub fn live_users(&self) -> usize {
        self.snapshot.live_users()
    }

    /// Whether trajectory `id` is currently live.
    pub fn is_live(&self, id: TrajectoryId) -> bool {
        let users = &self.snapshot.users;
        (id as usize) < users.len() && !users.is_retired(id)
    }

    /// Ids of the live trajectories, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = TrajectoryId> + '_ {
        self.snapshot.users.iter().map(|(id, _)| id)
    }

    /// A compacted [`UserSet`] of just the live trajectories, in ascending
    /// id order — the set a fresh build should index when cross-checking
    /// the engine against build-from-scratch.
    ///
    /// Compaction renumbers ids but is *monotone*, which is what keeps the
    /// canonical (ascending-id) value summation order — and with it the
    /// bit-identity guarantee — intact across the two id spaces.
    pub fn live_set(&self) -> UserSet {
        UserSet::from_vec(self.snapshot.users.iter().map(|(_, t)| t.clone()).collect())
    }

    /// Accumulated update-work counters across every applied batch (the
    /// facility counters move only while the engine is warmed).
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scenario;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::Point;
    use tq_trajectory::Trajectory;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn small_instance() -> (UserSet, FacilitySet) {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
            Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)),
            Trajectory::two_point(p(0.5, 0.0), p(9.5, 0.0)),
        ]);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
            Facility::new(vec![p(50.0, 51.0), p(60.0, 51.0)]),
            Facility::new(vec![p(90.0, 90.0)]),
        ]);
        (users, facilities)
    }

    fn engine() -> Engine {
        let (users, facilities) = small_instance();
        Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .build()
            .unwrap()
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut e = engine();
        assert_eq!(e.run(Query::top_k(0)).unwrap_err(), EngineError::ZeroK);
        assert_eq!(
            e.run(Query::top_k(4)).unwrap_err(),
            EngineError::KExceedsCandidates { k: 4, candidates: 3 }
        );
        assert_eq!(
            e.run(Query::top_k(1).candidates(&[])).unwrap_err(),
            EngineError::EmptyCandidates
        );
        assert_eq!(
            e.run(Query::top_k(1).candidates(&[7])).unwrap_err(),
            EngineError::UnknownCandidate { id: 7 }
        );
    }

    #[test]
    fn candidate_restriction_maps_ids_back() {
        let mut e = engine();
        let ans = e.run(Query::top_k(1).candidates(&[1, 2])).unwrap();
        assert_eq!(ans.ranked()[0].0, 1);
        assert_eq!(ans.ranked()[0].1, 1.0);
    }

    #[test]
    fn maxcov_then_topk_hits_cache_with_identical_values() {
        let mut e = engine();
        let fresh = e.run(Query::top_k(3)).unwrap();
        assert_eq!(fresh.explain.cache, CacheStatus::Unused);

        let cov = e.run(Query::max_cov(2)).unwrap();
        assert_eq!(cov.explain.cache, CacheStatus::Miss);
        let cached = e.run(Query::top_k(3)).unwrap();
        assert!(cached.explain.cache.is_hit());
        assert_eq!(cached.explain.eval.items_tested, 0, "no work on a hit");
        for (a, b) in fresh.ranked().iter().zip(cached.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }

        // Second coverage query over the same candidates also hits.
        let cov2 = e.run(Query::max_cov(2)).unwrap();
        assert!(cov2.explain.cache.is_hit());
        assert_eq!(cov2.cover().value.to_bits(), cov.cover().value.to_bits());
    }

    #[test]
    fn snapshot_answers_match_engine_and_never_publish() {
        let mut e = engine();
        e.warm();
        let epoch_before = e.epoch();
        let reader = e.reader();
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), epoch_before);

        // Cache hit from the frozen full table.
        let hit = snap.run(Query::top_k(3)).unwrap();
        assert!(hit.explain.cache.is_hit());
        assert_eq!(hit.explain.snapshot_epoch, epoch_before);

        // Subset miss: the warmed snapshot projects the table from its
        // full one, answers correctly, and memoizes nothing (no
        // publication).
        let miss = snap.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(miss.explain.cache, CacheStatus::Miss);
        assert_eq!(reader.epoch(), epoch_before, "snapshot runs never publish");
        let again = snap.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(again.explain.cache, CacheStatus::Miss);
        assert_eq!(again.cover().value.to_bits(), miss.cover().value.to_bits());

        // The engine's answers at the same epoch are bit-identical.
        let own = e.run(Query::top_k(3)).unwrap();
        for (a, b) in own.ranked().iter().zip(hit.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn readers_observe_published_epochs_old_snapshots_stay_valid() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        e.warm();
        let reader = e.reader();
        let old = reader.snapshot();
        let old_top = old.run(Query::top_k(3)).unwrap();

        e.apply(&[Update::Insert(Trajectory::two_point(
            p(0.2, 0.0),
            p(9.8, 0.0),
        ))])
        .unwrap();

        // The reader handle sees the new epoch; the held snapshot still
        // answers exactly as before (no torn state).
        let new = reader.snapshot();
        assert!(new.epoch() > old.epoch());
        assert_eq!(new.live_users(), 4);
        assert_eq!(old.live_users(), 3);
        let old_again = old.run(Query::top_k(3)).unwrap();
        for (a, b) in old_top.ranked().iter().zip(old_again.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let new_top = new.run(Query::top_k(3)).unwrap();
        assert!(new_top.ranked()[0].1 > old_top.ranked()[0].1);
    }

    #[test]
    fn reader_queries_answer_and_fail_on_serving_threads() {
        let mut e = engine();
        e.warm();
        let reader = e.reader();
        let epoch = e.epoch();
        let answers: Vec<Answer> = std::thread::scope(|s| {
            let serving: Vec<_> = (0..2)
                .map(|_| {
                    let reader = reader.clone();
                    s.spawn(move || {
                        // A bad query is a typed error on the serving
                        // thread, not a panic, and the next one answers.
                        assert_eq!(
                            reader.query(Query::top_k(99)).unwrap_err(),
                            EngineError::KExceedsCandidates { k: 99, candidates: 3 }
                        );
                        reader.query(Query::top_k(2)).unwrap()
                    })
                })
                .collect();
            serving.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let own = e.run(Query::top_k(2)).unwrap();
        for answer in &answers {
            assert_eq!(answer.explain.snapshot_epoch, epoch);
            for (a, b) in own.ranked().iter().zip(answer.ranked()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    #[test]
    fn clone_is_an_independent_writer() {
        // Unwarmed, so the full-candidate cover below builds — and
        // publishes — the full table.
        let e = engine();
        let reader = e.reader();
        let mut fork = e.clone();
        let fork_reader = fork.reader();
        // A publication on the fork is invisible to the original's readers.
        fork.run(Query::max_cov(1)).unwrap();
        assert!(fork_reader.epoch() > reader.epoch());
        assert_eq!(reader.epoch(), e.epoch());
    }

    #[test]
    fn baseline_backend_rejects_updates() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .baseline()
            .build()
            .unwrap();
        let batch = vec![Update::Insert(Trajectory::two_point(
            p(1.0, 1.0),
            p(2.0, 2.0),
        ))];
        assert_eq!(e.apply(&batch).unwrap_err(), EngineError::UpdatesUnsupported);
    }

    #[test]
    fn builder_bounds_check() {
        let (users, facilities) = small_instance();
        let err = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(20.0, 20.0)))
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::TrajectoryOutOfBounds { id: 1 });
    }

    #[test]
    fn apply_maintains_the_full_table() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities.clone())
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        // A full-candidate cover installs the full table.
        e.run(Query::max_cov(1)).unwrap();
        assert!(e.full_table().is_some());

        // A commuter arrives near facility 0.
        e.apply(&[Update::Insert(Trajectory::two_point(
            p(0.2, 0.0),
            p(9.8, 0.0),
        ))])
        .unwrap();

        // The maintained table, and a subset's table taken from it after
        // the batch, answer like a fresh (unwarmed) engine's search and
        // build.
        let mut fresh = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(e.live_set())
            .facilities(facilities)
            .build()
            .unwrap();
        let bits = |a: &Answer| -> Vec<u64> {
            match &a.result {
                QueryResult::TopK(r) => {
                    r.iter().flat_map(|(id, v)| [u64::from(*id), v.to_bits()]).collect()
                }
                QueryResult::MaxCov(c) => c
                    .chosen
                    .iter()
                    .map(|id| u64::from(*id))
                    .chain([c.value.to_bits(), c.users_served as u64])
                    .collect(),
            }
        };
        for q in [
            Query::top_k(3),
            Query::top_k(2).candidates(&[0, 1]),
            Query::max_cov(1).candidates(&[0, 1]),
        ] {
            let got = e.run(q.clone()).unwrap();
            assert_eq!(got.explain.cache.is_hit(), q.candidates.is_none(), "{q:?}");
            let want = fresh.run(q.clone()).unwrap();
            assert_eq!(bits(&got), bits(&want), "{q:?}");
        }
        let sub = e.run(Query::top_k(2).candidates(&[0, 1])).unwrap();
        assert_eq!(sub.ranked()[0].1, 3.0);
        let maintained = e.full_table().unwrap();
        let built = fresh.warm();
        assert_eq!(maintained.masks, built.masks);
        let value_bits = |t: &ServedTable| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(value_bits(maintained), value_bits(built));
    }

    #[test]
    fn untouched_columns_stay_arc_shared_across_epochs() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        e.warm();
        let before = e.snapshot();
        // A batch near facility 0: facilities 1 and 2 (far corners) are
        // untouched, and their columns must be the *same allocation* in
        // the new epoch; facility 0's column must be a fresh copy.
        e.apply(&[Update::Insert(Trajectory::two_point(
            p(0.2, 0.0),
            p(9.8, 0.0),
        ))])
        .unwrap();
        let after = e.snapshot();
        let (old, new) = (before.full_table().unwrap(), after.full_table().unwrap());
        assert!(!Arc::ptr_eq(&old.masks[0], &new.masks[0]));
        assert!(Arc::ptr_eq(&old.masks[1], &new.masks[1]));
        assert!(Arc::ptr_eq(&old.masks[2], &new.masks[2]));
        // A batch that touches no facility keeps the whole table.
        e.apply(&[Update::Insert(Trajectory::two_point(
            p(30.0, 30.0),
            p(35.0, 30.0),
        ))])
        .unwrap();
        let later = e.snapshot();
        assert!(Arc::ptr_eq(after.full.as_ref().unwrap(), later.full.as_ref().unwrap()));
    }

    #[test]
    fn exact_budget_exhaustion_is_typed() {
        // Source-only and destination-only facilities: every per-facility
        // potential is 1 but no single facility serves anyone, so the
        // branch-and-bound must actually explore nodes — which a zero
        // budget forbids.
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0))]);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.5)]),
            Facility::new(vec![p(10.0, 0.5)]),
        ]);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
            .users(users)
            .facilities(facilities)
            .build()
            .unwrap();
        let err = e
            .run(Query::max_cov(2).algorithm(Algorithm::Exact).node_budget(0))
            .unwrap_err();
        assert_eq!(err, EngineError::ExactBudgetExhausted);
        // With the default budget the same query completes.
        let ok = e.run(Query::max_cov(2).algorithm(Algorithm::Exact)).unwrap();
        assert_eq!(ok.cover().value, 1.0);
    }

    fn grid_instance(extra_facilities: usize) -> (UserSet, FacilitySet) {
        let users = UserSet::from_vec(
            (0..4)
                .map(|i| {
                    let y = i as f64;
                    Trajectory::two_point(p(0.0, y), p(10.0, y))
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..extra_facilities)
                .map(|i| {
                    let y = (i % 4) as f64;
                    Facility::new(vec![p(0.0, y + 0.5), p(10.0, y + 0.5)])
                })
                .collect(),
        );
        (users, facilities)
    }

    /// Once the snapshot carries the full table, a subset query is a
    /// projection of it — the same answer as the unwarmed engine's search
    /// and build, no index work, no publication.
    #[test]
    fn a_warmed_engine_projects_subset_queries_and_memoizes_none() {
        let (users, facilities) = grid_instance(6);
        let build = || {
            Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
                .users(users.clone())
                .facilities(facilities.clone())
                .build()
                .unwrap()
        };
        let subset = [1, 2, 4];
        let queries = [
            Query::max_cov(2).candidates(&subset),
            Query::max_cov(2).candidates(&subset).algorithm(Algorithm::TwoStep).k_prime(2),
            Query::top_k(2).candidates(&subset),
        ];
        let mut warmed = build();
        warmed.warm();
        let epoch = warmed.epoch();
        let snap = warmed.snapshot();
        for q in queries {
            let cold = build().run(q.clone()).unwrap();
            assert!(cold.explain.eval.nodes_visited > 0, "setup: the unwarmed engine searched");
            for pass in 0..2 {
                for got in [warmed.run(q.clone()).unwrap(), snap.run(q.clone()).unwrap()] {
                    assert_eq!(got.explain.cache, CacheStatus::Miss, "pass {pass}");
                    assert_eq!(got.explain.eval.nodes_visited, 0);
                    assert_eq!(got.explain.eval.items_tested, 0);
                    assert_eq!(got.explain.relaxations, 0);
                    match (&got.result, &cold.result) {
                        (QueryResult::TopK(g), QueryResult::TopK(c)) => {
                            assert_eq!(g.len(), c.len());
                            for (g, c) in g.iter().zip(c) {
                                assert_eq!((g.0, g.1.to_bits()), (c.0, c.1.to_bits()));
                            }
                        }
                        (QueryResult::MaxCov(g), QueryResult::MaxCov(c)) => {
                            assert_eq!(g.chosen, c.chosen);
                            assert_eq!(g.value.to_bits(), c.value.to_bits());
                            assert_eq!(g.users_served, c.users_served);
                        }
                        _ => unreachable!("same query, same family"),
                    }
                }
            }
        }
        assert_eq!(warmed.epoch(), epoch, "a projection publishes nothing");
    }

    /// A snapshot holds at most the full table. Before the warm, no number
    /// of distinct subset covers installs a table; after it, none of them
    /// displaces the full one — the same allocation serves throughout.
    #[test]
    fn subset_queries_never_install_or_displace_a_table() {
        let (users, facilities) = grid_instance(12);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
            .users(users)
            .facilities(facilities)
            .build()
            .unwrap();
        let epoch = e.epoch();
        for i in 0..11u32 {
            let got = e.run(Query::max_cov(1).candidates(&[i, i + 1])).unwrap();
            assert_eq!(got.explain.cache, CacheStatus::Miss, "query {i}");
            assert!(e.snapshot.full.is_none(), "query {i} installed a table");
        }
        assert_eq!(e.epoch(), epoch, "an unwarmed subset query publishes nothing");

        e.warm();
        let (epoch, pinned) = (e.epoch(), e.snapshot.full.clone().unwrap());
        for i in 0..10u32 {
            e.run(Query::max_cov(1).candidates(&[i, i + 2])).unwrap();
            let full = e.snapshot.full.as_ref().expect("the full table stays");
            assert!(Arc::ptr_eq(full, &pinned), "query {i} replaced the full table");
        }
        assert_eq!(e.epoch(), epoch, "a projection publishes nothing");
        assert!(e.run(Query::max_cov(1)).unwrap().explain.cache.is_hit());
    }

    /// The two installers of the full table — a full-candidate query that
    /// had to build it, and `warm` — publish once and agree bit for bit;
    /// after either, the other is a no-op. A reader's snapshot builds the
    /// same table and discards it.
    #[test]
    fn a_full_cover_miss_installs_what_warm_installs() {
        let mut by_query = engine();
        let snap = by_query.snapshot();
        for _ in 0..2 {
            let got = snap.run(Query::max_cov(2)).unwrap();
            assert_eq!(got.explain.cache, CacheStatus::Miss);
        }
        assert!(snap.full_table().is_none() && by_query.full_table().is_none());

        let epoch = by_query.epoch();
        let miss = by_query.run(Query::max_cov(2)).unwrap();
        assert_eq!(miss.explain.cache, CacheStatus::Miss);
        assert_eq!(by_query.epoch(), epoch + 1, "the miss published the table");
        let installed = by_query.snapshot.full.clone().unwrap();
        by_query.warm();
        assert_eq!(by_query.epoch(), epoch + 1, "warm after the install republished");
        assert!(Arc::ptr_eq(by_query.snapshot.full.as_ref().unwrap(), &installed));

        let mut by_warm = engine();
        by_warm.warm();
        assert_eq!(by_warm.epoch(), epoch + 1);
        let hit = by_warm.run(Query::max_cov(2)).unwrap();
        assert!(hit.explain.cache.is_hit());
        assert_eq!(by_warm.epoch(), epoch + 1, "a hit publishes nothing");
        assert_eq!(hit.cover().chosen, miss.cover().chosen);
        assert_eq!(hit.cover().value.to_bits(), miss.cover().value.to_bits());
        let (a, b) = (by_query.full_table().unwrap(), by_warm.full_table().unwrap());
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.masks, b.masks);
        let value_bits = |t: &ServedTable| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(value_bits(a), value_bits(b));
    }

    /// Without a full table there is nothing to patch: an unwarmed
    /// engine's batch publishes no table and classifies no facility, and
    /// warming afterwards builds exactly a fresh engine's table.
    #[test]
    fn an_unwarmed_apply_keeps_no_table() {
        let (users, facilities) = small_instance();
        let build = |users: UserSet| {
            Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
                .users(users)
                .facilities(facilities.clone())
                .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
                .build()
                .unwrap()
        };
        let mut e = build(users);
        let epoch = e.epoch();
        let outcome = e
            .apply(&[
                Update::Insert(Trajectory::two_point(p(0.2, 0.0), p(9.8, 0.0))),
                Update::Insert(Trajectory::two_point(p(50.5, 50.0), p(59.5, 50.0))),
            ])
            .unwrap();
        assert_eq!(outcome.inserted, vec![3, 4]);
        assert_eq!((outcome.untouched, outcome.patched), (0, 0));
        assert_eq!(e.epoch(), epoch + 1);
        assert!(e.full_table().is_none(), "an apply installed a table");
        let stats = e.stats();
        assert_eq!((stats.batches, stats.inserts), (1, 2));
        assert_eq!(stats.rebuild_evaluations(), 0, "a facility was classified");

        let mut fresh = build(e.live_set());
        e.warm();
        fresh.warm();
        let (got, want) = (e.full_table().unwrap(), fresh.full_table().unwrap());
        assert_eq!(got.masks, want.masks);
        let value_bits = |t: &ServedTable| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(value_bits(got), value_bits(want));
        assert_eq!(value_bits(got), [3.0f64, 2.0, 0.0].map(f64::to_bits));
    }

    /// A seeded city for the persistence tests: `n` random two-point trips
    /// and 8 three-stop routes in a 1000 × 1000 square, unwarmed so every
    /// query walks the tree and the user set.
    fn random_engine(n: usize, rng: &mut StdRng) -> Engine {
        let users = UserSet::from_vec((0..n).map(|_| random_trip(rng)).collect());
        let facilities = FacilitySet::from_vec(
            (0..8)
                .map(|_| Facility::new((0..3).map(|_| random_point(rng)).collect()))
                .collect(),
        );
        Engine::builder(ServiceModel::new(Scenario::Transit, 60.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(1000.0, 1000.0)))
            .build()
            .unwrap()
    }

    fn random_point(rng: &mut StdRng) -> Point {
        p(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))
    }

    fn random_trip(rng: &mut StdRng) -> Trajectory {
        Trajectory::two_point(random_point(rng), random_point(rng))
    }

    /// `inserts` arrivals and the expiry of `removes` distinct live ids.
    fn random_batch(e: &Engine, inserts: usize, removes: usize, rng: &mut StdRng) -> Vec<Update> {
        let mut live: Vec<TrajectoryId> = e.live_ids().collect();
        let mut batch: Vec<Update> =
            (0..inserts).map(|_| Update::Insert(random_trip(rng))).collect();
        for _ in 0..removes {
            batch.push(Update::Remove(live.swap_remove(rng.gen_range(0..live.len()))));
        }
        batch
    }

    /// Every id and value bit of a tree-walking top-k and a greedy cover.
    fn answer_bits(snapshot: &Snapshot) -> Vec<u64> {
        let top = snapshot.run(Query::top_k(5)).unwrap();
        let cover = snapshot
            .run(Query::max_cov(3).algorithm(Algorithm::Greedy))
            .unwrap();
        let mut bits: Vec<u64> = top
            .ranked()
            .iter()
            .flat_map(|(id, v)| [u64::from(*id), v.to_bits()])
            .collect();
        bits.extend(cover.cover().chosen.iter().map(|id| u64::from(*id)));
        bits.push(cover.cover().value.to_bits());
        bits
    }

    #[test]
    fn a_held_epoch_is_untouched_by_later_batches() {
        let rng = &mut StdRng::seed_from_u64(0xE90C);
        let mut e = random_engine(3_000, rng);
        // A little history first, so epoch e already shares with its past.
        for _ in 0..3 {
            let batch = random_batch(&e, 30, 20, rng);
            e.apply(&batch).unwrap();
        }
        let held = e.snapshot();
        let recorded = answer_bits(&held);
        for _ in 0..20 {
            let batch = random_batch(&e, 25, 25, rng);
            e.apply(&batch).unwrap();
        }
        assert_eq!(e.epoch(), held.epoch() + 20);
        held.tree()
            .unwrap()
            .validate_with_count(held.users(), held.live_users())
            .expect("the held epoch's tree is intact");
        assert_eq!(answer_bits(&held), recorded, "a later batch wrote into a held epoch");
        // What the later batches removed is retired in their epochs only.
        let expired: Vec<TrajectoryId> = (0..held.users().len() as TrajectoryId)
            .filter(|id| !held.users().is_retired(*id) && !e.is_live(*id))
            .collect();
        assert!(!expired.is_empty(), "setup: the batches removed something the epoch held");
        for id in expired {
            assert!(held.users().try_get(id).is_some() && e.users().try_get(id).is_none());
        }
        assert_ne!(answer_bits(&e.snapshot()), recorded, "setup: the batches changed answers");
    }

    /// Between two consecutive epochs: the user slots at a different
    /// address, the q-nodes that are a different allocation although their
    /// content did not change, and — over the nodes whose shape did not
    /// change — the runs the new epoch does not share with the old one.
    fn unshared(old: &Snapshot, new: &Snapshot) -> (Vec<TrajectoryId>, usize, usize) {
        let moved_users = old
            .users()
            .iter()
            .filter(|(id, t)| new.users().try_get(*id).is_some_and(|n| !std::ptr::eq(*t, n)))
            .map(|(id, _)| id)
            .collect();
        let (a, b) = (old.tree().unwrap(), new.tree().unwrap());
        let mut copied_unchanged = 0;
        let mut fresh_runs = 0;
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            if Arc::ptr_eq(x, y) || x.dead != y.dead || x.children != y.children {
                continue;
            }
            if x.sub == y.sub && x.list.len() == y.list.len() {
                copied_unchanged += 1;
            }
            fresh_runs += y
                .list
                .items()
                .arcs()
                .iter()
                .filter(|run| !x.list.items().arcs().iter().any(|r| Arc::ptr_eq(r, run)))
                .count();
        }
        (moved_users, copied_unchanged, fresh_runs)
    }

    #[test]
    fn a_batch_copies_what_it_touches_not_the_state() {
        let rng = &mut StdRng::seed_from_u64(0x5AAE);
        let mut e = random_engine(20_000, rng);
        // All arrivals, then all expiries: every node on a touched path then
        // changes its `sub` count, so "copied yet unchanged" can only mean
        // "copied without being touched".
        for (inserts, removes) in [(50, 0), (0, 50)] {
            let old = e.snapshot();
            let batch = random_batch(&e, inserts, removes, rng);
            e.apply(&batch).unwrap();
            let new = e.snapshot();
            let (moved_users, copied_unchanged, fresh_runs) = unshared(&old, &new);
            // Only the tail chunk may move: a suffix, and a small one.
            let n = old.users().len();
            assert!(moved_users.len() * 10 < n, "{} of {n} users copied", moved_users.len());
            assert!(
                moved_users.iter().rev().zip((0..n as u32).rev()).all(|(a, b)| *a == b),
                "copied users are not the tail"
            );
            assert_eq!(moved_users.is_empty(), inserts == 0, "removals copy no users");
            assert_eq!(copied_unchanged, 0, "q-nodes off the touched paths were copied");
            assert!(fresh_runs <= 2 * batch.len(), "{fresh_runs} runs rewritten by 50 events");
            let shared_nodes = old
                .tree()
                .unwrap()
                .nodes
                .iter()
                .zip(&new.tree().unwrap().nodes)
                .filter(|(x, y)| Arc::ptr_eq(x, y))
                .count();
            assert!(shared_nodes > 0, "setup: some node is off every touched path");
        }

        // The same for the warmed table's columns, under a batch confined
        // to one corner of the extent: trips around route 0's first stop
        // arrive, and some that arrived there a batch earlier expire.
        e.warm();
        let stop = e.facilities().get(0).stops()[0];
        let corner = Rect::new(
            p((stop.x - 50.0).max(0.0), (stop.y - 50.0).max(0.0)),
            p((stop.x + 50.0).min(1000.0), (stop.y + 50.0).min(1000.0)),
        );
        let mut local_trips = |n: usize| -> Vec<Update> {
            let mut at = || {
                p(
                    rng.gen_range(corner.min.x..corner.max.x),
                    rng.gen_range(corner.min.y..corner.max.y),
                )
            };
            (0..n).map(|_| Update::Insert(Trajectory::two_point(at(), at()))).collect()
        };
        let earlier = e.apply(&local_trips(50)).unwrap().inserted;
        let mut batch = local_trips(25);
        batch.extend(earlier.iter().take(25).map(|id| Update::Remove(*id)));
        let held = e.snapshot();
        let recorded = answer_bits(&held);
        e.apply(&batch).unwrap();
        let new = e.snapshot();
        let (before, after) = (held.full_table().unwrap(), new.full_table().unwrap());
        let (mut untouched, mut unchanged, mut changed) = (0, 0, 0);
        for (ti, fid) in before.ids.iter().enumerate() {
            let shared = Arc::ptr_eq(&before.masks[ti], &after.masks[ti]);
            if !e.embrs[*fid as usize].intersects(&corner) {
                assert!(shared, "facility {fid} met no delta, yet its column was copied");
                untouched += 1;
            } else if before.masks[ti] == after.masks[ti] {
                assert!(shared, "facility {fid}: a patch that changed no mask copied the column");
                unchanged += 1;
            } else {
                assert!(!shared, "facility {fid}: epoch e's column was written in place");
                changed += 1;
            }
        }
        assert!(
            untouched > 0 && unchanged > 0 && changed > 0,
            "setup: {untouched} untouched / {unchanged} patched unchanged / {changed} changed"
        );
        // And a held epoch keeps answering from the columns it shares.
        for _ in 0..20 {
            let batch = random_batch(&e, 25, 25, rng);
            e.apply(&batch).unwrap();
        }
        assert_eq!(answer_bits(&held), recorded, "a later batch wrote into a held column");
    }

    #[test]
    fn update_errors_are_wrapped() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        let err = e.apply(&[Update::Remove(99)]).unwrap_err();
        assert_eq!(
            err,
            EngineError::Update(UpdateError::NotLive { index: 0, id: 99 })
        );
        let err = e
            .apply(&[Update::Insert(Trajectory::two_point(
                p(-5.0, 0.0),
                p(1.0, 1.0),
            ))])
            .unwrap_err();
        assert_eq!(err, EngineError::Update(UpdateError::OutOfBounds { index: 0 }));
    }
}
