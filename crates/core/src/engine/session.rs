//! The query vocabulary ([`Query`], [`Answer`], [`Explain`]) and the
//! execution path shared by both planes.
//!
//! Everything here runs against an immutable [`Snapshot`] through `&self`:
//! [`execute`] is the one code path behind both
//! [`Snapshot::run`](super::Snapshot::run) (the lock-free read plane) and
//! [`Engine::run`](super::Engine::run) (the control plane, which
//! additionally installs a full-facility table the query built into the
//! next published snapshot). Execution itself never mutates anything.
//!
//! A query over a candidate set gets its [`ServedTable`] from the first of
//! three places that has it:
//!
//! 1. **the full table** — the snapshot carries the full-facility table
//!    ([`Engine::warm`](super::Engine::warm), kept bit-identical to a fresh
//!    build by every [`Engine::apply`](super::Engine::apply)) and the query
//!    names every facility ([`CacheStatus::Hit`]);
//! 2. **a projection of it** — a facility's column does not depend on
//!    which other candidates are asked about, so a subset's table is
//!    [`ServedTable::project`]: one `Arc` bump per candidate, no
//!    evaluation ([`CacheStatus::Miss`] with zero work counters);
//! 3. **the index** — the paper's best-first search (top-k, Alg. 4) or a
//!    per-candidate evaluation through the backend (max-cov, Alg. 3). A
//!    built full-facility table is handed back so the control plane can
//!    install it; any other built table is discarded. This is the cold
//!    path, the only one an unwarmed engine has, and the reference the
//!    other two are tested against.
//!
//! Which one runs is decided by what the snapshot holds, not by an option.

use super::{EngineError, Snapshot};
use crate::maxcov::{exact, genetic, greedy, CovOutcome, GeneticConfig, ServedTable};
use crate::parallel;
use crate::tqtree::Placement;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tq_trajectory::{FacilityId, FacilitySet};

use super::BackendKind;
use crate::eval::EvalStats;

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

/// Which MaxkCovRST solver a [`Query::max_cov`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Straightforward greedy over the full candidate [`ServedTable`]
    /// (G-BL / G-TQ in the paper, depending on the backend).
    #[default]
    Greedy,
    /// The paper's two-step greedy: a kMaxRRST pass narrows the pool to the
    /// `k′` individually best candidates ([`Query::k_prime`]), greedy runs
    /// on those only.
    TwoStep,
    /// Exact branch-and-bound (for approximation-ratio studies; bounded by
    /// [`Query::node_budget`]).
    Exact,
    /// The paper's Gn genetic-algorithm competitor (deterministic under
    /// [`Query::seed`]).
    Genetic,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryKind {
    TopK,
    MaxCov,
}

/// A typed query, built fluently and answered by
/// [`Engine::run`](super::Engine::run) or
/// [`Snapshot::run`](super::Snapshot::run).
///
/// ```
/// use tq_core::engine::{Algorithm, Query};
/// let q = Query::max_cov(4)
///     .algorithm(Algorithm::TwoStep)
///     .k_prime(16)
///     .threads(2);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    // Fields are crate-visible (not public) so the wire codec in
    // [`crate::wire`] can transport queries while the builder methods stay
    // the only outside way to construct one.
    pub(crate) kind: QueryKind,
    pub(crate) k: usize,
    pub(crate) algorithm: Algorithm,
    pub(crate) candidates: Option<Vec<FacilityId>>,
    pub(crate) threads: Option<usize>,
    pub(crate) seed: Option<u64>,
    pub(crate) k_prime: Option<usize>,
    pub(crate) node_budget: Option<usize>,
}

impl Query {
    fn new(kind: QueryKind, k: usize) -> Query {
        Query {
            kind,
            k,
            algorithm: Algorithm::default(),
            candidates: None,
            threads: None,
            seed: None,
            k_prime: None,
            node_budget: Some(100_000_000),
        }
    }

    /// A kMaxRRST query: the `k` individually best facilities.
    pub fn top_k(k: usize) -> Query {
        Query::new(QueryKind::TopK, k)
    }

    /// A MaxkCovRST query: the size-`k` subset with the best combined
    /// (overlap counted once) service. Defaults to [`Algorithm::Greedy`].
    pub fn max_cov(k: usize) -> Query {
        Query::new(QueryKind::MaxCov, k)
    }

    /// Selects the MaxkCovRST solver (ignored by top-k queries).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Query {
        self.algorithm = algorithm;
        self
    }

    /// Restricts the query to a subset of the registered facilities.
    /// Ids are deduplicated; unknown ids fail with
    /// [`EngineError::UnknownCandidate`].
    pub fn candidates(mut self, ids: &[FacilityId]) -> Query {
        self.candidates = Some(ids.to_vec());
        self
    }

    /// Runs the query with an explicit thread count (`0` = one per core).
    /// Without this, the process-wide setting
    /// ([`crate::parallel::set_threads`]) applies — scoped per querying
    /// thread, so concurrent sessions with different budgets compose (see
    /// [`crate::parallel`]). Results are identical at any thread count.
    pub fn threads(mut self, threads: usize) -> Query {
        self.threads = Some(threads);
        self
    }

    /// RNG seed for [`Algorithm::Genetic`] (defaults to
    /// [`GeneticConfig::default`]'s seed; the solver is deterministic under
    /// a fixed seed).
    pub fn seed(mut self, seed: u64) -> Query {
        self.seed = Some(seed);
        self
    }

    /// Candidate-pool size `k′ ≥ k` for [`Algorithm::TwoStep`] (defaults to
    /// `max(4k, 32)`, clamped to the candidate count).
    pub fn k_prime(mut self, k_prime: usize) -> Query {
        self.k_prime = Some(k_prime);
        self
    }

    /// DFS node budget for [`Algorithm::Exact`]; exhausting it fails with
    /// [`EngineError::ExactBudgetExhausted`] rather than returning a result
    /// mislabeled "exact". Defaults to 10⁸ nodes.
    pub fn node_budget(mut self, nodes: usize) -> Query {
        self.node_budget = Some(nodes);
        self
    }
}

// ---------------------------------------------------------------------------
// Answer + Explain
// ---------------------------------------------------------------------------

/// Whether a query could be answered from the snapshot's full-facility
/// [`ServedTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStatus {
    /// The query neither needed nor found a served table: a top-k answered
    /// by the backend's own search (the paper's best-first search on a
    /// TQ-tree). Only a snapshot without the full-facility table reports
    /// this — one that has it answers every top-k from it, as a
    /// [`CacheStatus::Hit`] or a projected [`CacheStatus::Miss`].
    #[default]
    Unused,
    /// The query needed a table for a candidate set the snapshot does not
    /// hold as such. Either it was built for this query through the index —
    /// on a snapshot without the full-facility table, every time: a subset
    /// table is discarded after its query, and a full-facility one is
    /// installed only when the engine's control plane ran the query — or,
    /// on a snapshot carrying the full-facility table, it was projected
    /// from that table: no evaluation, all-zero [`Explain::eval`] and
    /// [`Explain::relaxations`]. The `tq_query_projected_total` counter
    /// tells the two apart.
    Miss,
    /// The query named every facility and the snapshot carries the
    /// full-facility table — no facility evaluation at all.
    Hit,
}

impl CacheStatus {
    /// `true` for [`CacheStatus::Hit`].
    pub fn is_hit(self) -> bool {
        self == CacheStatus::Hit
    }
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheStatus::Unused => write!(f, "unused"),
            CacheStatus::Miss => write!(f, "miss"),
            CacheStatus::Hit => write!(f, "hit"),
        }
    }
}

/// How a query was executed: backend, snapshot epoch, work counters, cache
/// outcome, wall time. Returned with every [`Answer`].
#[derive(Debug, Clone, Default)]
pub struct Explain {
    /// Which backend answered.
    pub backend: Option<BackendKind>,
    /// Epoch of the [`Snapshot`] that answered — the serving-path
    /// attribution: any two answers with the same epoch were computed over
    /// identical data and are bit-identical.
    pub snapshot_epoch: u64,
    /// Number of candidate facilities after [`Query::candidates`]
    /// restriction.
    pub candidates: usize,
    /// Aggregated evaluation counters (nodes visited, items tested/pruned,
    /// distance checks, parallel tasks): the index work this query did.
    /// Zero on a cache hit and on a miss answered by projecting the
    /// snapshot's full-facility table (see [`CacheStatus::Miss`]).
    pub eval: EvalStats,
    /// Best-first state relaxations (top-k on the TQ-tree backend only;
    /// zero whenever a table answered instead of the search).
    pub relaxations: usize,
    /// Where the query's [`ServedTable`] came from. A projected table
    /// reports [`CacheStatus::Miss`].
    pub cache: CacheStatus,
    /// Worker threads active for the query.
    pub threads: usize,
    /// Time the request waited between arrival and execution start. Zero
    /// for direct [`Engine::run`](super::Engine::run) /
    /// [`Snapshot::run`](super::Snapshot::run) calls;
    /// [`Reader::query`](super::Reader::query) records its snapshot grab
    /// here.
    pub queued: Duration,
    /// Wall-clock execution time (excluding [`Explain::queued`]).
    pub wall: Duration,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend={} epoch={} candidates={} cache={} nodes={} tested={} pruned={} \
             dist-checks={} relaxations={} threads={} queued={:.3}ms wall={:.3}ms",
            self.backend.map_or("?".into(), |b| b.to_string()),
            self.snapshot_epoch,
            self.candidates,
            self.cache,
            self.eval.nodes_visited,
            self.eval.items_tested,
            self.eval.items_pruned,
            self.eval.distance_checks,
            self.relaxations,
            self.threads,
            self.queued.as_secs_f64() * 1e3,
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

/// The result payload of a [`Query`].
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// Answer to [`Query::top_k`]: facilities with their exact service
    /// values, best first.
    TopK(Vec<(FacilityId, f64)>),
    /// Answer to [`Query::max_cov`]: the chosen subset with its combined
    /// value and served-user count.
    MaxCov(CovOutcome),
}

/// A query answer: the typed result plus its [`Explain`] report.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The result payload.
    pub result: QueryResult,
    /// How the query was executed.
    pub explain: Explain,
}

impl Answer {
    /// The ranked `(facility, value)` list of a top-k answer.
    ///
    /// # Panics
    /// Panics when the answer belongs to a max-cov query.
    pub fn ranked(&self) -> &[(FacilityId, f64)] {
        match &self.result {
            QueryResult::TopK(r) => r,
            QueryResult::MaxCov(_) => panic!("Answer::ranked on a max-cov answer"),
        }
    }

    /// The coverage outcome of a max-cov answer.
    ///
    /// # Panics
    /// Panics when the answer belongs to a top-k query.
    pub fn cover(&self) -> &CovOutcome {
        match &self.result {
            QueryResult::MaxCov(c) => c,
            QueryResult::TopK(_) => panic!("Answer::cover on a top-k answer"),
        }
    }

    /// The headline value: the best facility's service value (top-k) or the
    /// combined service value of the chosen subset (max-cov).
    pub fn value(&self) -> f64 {
        match &self.result {
            QueryResult::TopK(r) => r.first().map_or(0.0, |(_, v)| *v),
            QueryResult::MaxCov(c) => c.value,
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Registry handles for the query path, interned once per process and
/// indexed by backend so steady-state recording never formats a label or
/// touches the registry lock.
struct QueryMetrics {
    queries: [&'static tq_obs::Counter; 2],
    latency: [&'static tq_obs::Histogram; 2],
    cache_hits: &'static tq_obs::Counter,
    cache_misses: &'static tq_obs::Counter,
    projected: &'static tq_obs::Counter,
    nodes_visited: &'static tq_obs::Counter,
    items_tested: &'static tq_obs::Counter,
    items_pruned: &'static tq_obs::Counter,
    distance_checks: &'static tq_obs::Counter,
}

fn query_metrics() -> &'static QueryMetrics {
    static M: OnceLock<QueryMetrics> = OnceLock::new();
    M.get_or_init(|| QueryMetrics {
        queries: [
            tq_obs::counter("tq_queries_total", "backend=\"tq-tree\""),
            tq_obs::counter("tq_queries_total", "backend=\"baseline\""),
        ],
        latency: [
            tq_obs::histogram("tq_query_latency_ns", "backend=\"tq-tree\""),
            tq_obs::histogram("tq_query_latency_ns", "backend=\"baseline\""),
        ],
        cache_hits: tq_obs::counter("tq_query_cache_hits_total", ""),
        cache_misses: tq_obs::counter("tq_query_cache_misses_total", ""),
        projected: tq_obs::counter("tq_query_projected_total", ""),
        nodes_visited: tq_obs::counter("tq_eval_nodes_visited_total", ""),
        items_tested: tq_obs::counter("tq_eval_items_tested_total", ""),
        items_pruned: tq_obs::counter("tq_eval_items_pruned_total", ""),
        distance_checks: tq_obs::counter("tq_eval_distance_checks_total", ""),
    })
}

/// Rolls one completed query's [`Explain`] into the metrics registry;
/// `projected` says its miss was served by projection rather than built. A
/// handful of `Relaxed` atomic adds; one load-and-branch when recording is
/// off.
fn note_query(explain: &Explain, projected: bool) {
    if !tq_obs::enabled() {
        return;
    }
    let m = query_metrics();
    let i = match explain.backend {
        Some(BackendKind::Baseline) => 1,
        _ => 0,
    };
    m.queries[i].incr();
    m.latency[i].record_ns(tq_obs::duration_ns(explain.wall));
    match explain.cache {
        CacheStatus::Hit => m.cache_hits.incr(),
        CacheStatus::Miss => m.cache_misses.incr(),
        CacheStatus::Unused => {}
    }
    if projected {
        m.projected.incr();
    }
    m.nodes_visited.add(explain.eval.nodes_visited as u64);
    m.items_tested.add(explain.eval.items_tested as u64);
    m.items_pruned.add(explain.eval.items_pruned as u64);
    m.distance_checks.add(explain.eval.distance_checks as u64);
}

/// Offers a completed query to the slow-query log, queue delay included.
/// Called from the read-plane handles — the only place
/// [`Explain::queued`] is known — so a retained entry tells the full
/// serving-path story.
pub(crate) fn note_slow_query(explain: &Explain) {
    let total =
        tq_obs::duration_ns(explain.wall).saturating_add(tq_obs::duration_ns(explain.queued));
    tq_obs::record_slow(total, || format!("query {explain}"));
}

// ---------------------------------------------------------------------------
// Execution (shared by Snapshot::run and Engine::run)
// ---------------------------------------------------------------------------

/// What one execution leaves behind besides its answer.
#[derive(Default)]
struct Effects {
    /// The full-facility table this query built through the index — what
    /// the control plane installs.
    built: Option<Arc<ServedTable>>,
    /// A table of this query was projected from the snapshot's full one.
    projected: bool,
}

/// Executes a query against one immutable snapshot. Pure with respect to
/// the snapshot: all scratch state is local, so any number of threads may
/// call this concurrently on the same snapshot. Besides the answer, hands
/// back the full-facility table the query built, if it built one; the
/// read plane discards it.
pub(crate) fn execute(
    snap: &Snapshot,
    query: &Query,
) -> Result<(Answer, Option<Arc<ServedTable>>), EngineError> {
    let start = Instant::now();
    let cand = resolve_candidates(snap, query)?;
    if query.k == 0 {
        return Err(EngineError::ZeroK);
    }
    if query.k > cand.len() {
        return Err(EngineError::KExceedsCandidates {
            k: query.k,
            candidates: cand.len(),
        });
    }
    let mut explain = Explain {
        backend: Some(snap.backend.kind()),
        snapshot_epoch: snap.epoch,
        candidates: cand.len(),
        ..Explain::default()
    };
    let mut effects = Effects::default();
    let result = match query.threads {
        Some(n) => parallel::with_threads(n, || {
            explain.threads = parallel::current_threads();
            dispatch(snap, query, &cand, &mut explain, &mut effects)
        })?,
        None => {
            explain.threads = parallel::current_threads();
            dispatch(snap, query, &cand, &mut explain, &mut effects)?
        }
    };
    explain.wall = start.elapsed();
    note_query(&explain, effects.projected);
    Ok((Answer { result, explain }, effects.built))
}

/// Sorted, deduplicated, validated candidate ids for a query.
fn resolve_candidates(snap: &Snapshot, query: &Query) -> Result<Vec<FacilityId>, EngineError> {
    let facilities = &snap.facilities;
    let mut cand = match &query.candidates {
        Some(ids) => {
            let mut ids = ids.clone();
            ids.sort_unstable();
            ids.dedup();
            for &id in &ids {
                if id as usize >= facilities.len() {
                    return Err(EngineError::UnknownCandidate { id });
                }
            }
            ids
        }
        None => facilities.iter().map(|(id, _)| id).collect(),
    };
    cand.shrink_to_fit();
    if cand.is_empty() {
        return Err(EngineError::EmptyCandidates);
    }
    Ok(cand)
}

fn dispatch(
    snap: &Snapshot,
    query: &Query,
    cand: &[FacilityId],
    explain: &mut Explain,
    effects: &mut Effects,
) -> Result<QueryResult, EngineError> {
    match query.kind {
        QueryKind::TopK => Ok(QueryResult::TopK(run_top_k(
            snap, cand, query.k, explain, effects,
        ))),
        QueryKind::MaxCov => run_max_cov(snap, query, cand, explain, effects),
    }
}

/// The table for a (sorted) candidate set out of the snapshot's
/// full-facility table, when it carries one: that table itself for the
/// full set, a projection of it for any other.
fn from_full(
    snap: &Snapshot,
    key: &[FacilityId],
    explain: &mut Explain,
    effects: &mut Effects,
) -> Option<Arc<ServedTable>> {
    let full = snap.full.as_ref()?;
    if key.len() == full.len() {
        explain.cache = CacheStatus::Hit;
        return Some(full.clone());
    }
    explain.cache = CacheStatus::Miss;
    effects.projected = true;
    Some(Arc::new(full.project(key)))
}

/// Top-k over a candidate set: ranked from the full table or a projection
/// of it when the snapshot carries that (zero evaluation work either way),
/// otherwise through the backend's search.
fn run_top_k(
    snap: &Snapshot,
    cand: &[FacilityId],
    k: usize,
    explain: &mut Explain,
    effects: &mut Effects,
) -> Vec<(FacilityId, f64)> {
    if let Some(table) = from_full(snap, cand, explain, effects) {
        return rank_table(&table, k);
    }
    let out = if cand.len() == snap.facilities.len() {
        snap.backend
            .as_index()
            .top_k(&snap.users, &snap.model, &snap.facilities, k)
    } else {
        // Restricted candidate set: search over a sub-facility-set and
        // map the dense sub-ids back. `cand` is sorted, so sub-id order
        // equals real-id order and tie-breaking is preserved.
        let sub = FacilitySet::from_vec(
            cand.iter()
                .map(|&id| snap.facilities.get(id).clone())
                .collect(),
        );
        let mut out = snap
            .backend
            .as_index()
            .top_k(&snap.users, &snap.model, &sub, k);
        for (id, _) in &mut out.ranked {
            *id = cand[*id as usize];
        }
        out
    };
    explain.eval.add(&out.stats);
    explain.relaxations += out.relaxations;
    out.ranked
}

fn run_max_cov(
    snap: &Snapshot,
    query: &Query,
    cand: &[FacilityId],
    explain: &mut Explain,
    effects: &mut Effects,
) -> Result<QueryResult, EngineError> {
    let k = query.k;
    let pool: Vec<FacilityId> = match query.algorithm {
        Algorithm::TwoStep => {
            // Step 1: kMaxRRST narrows the pool to the k′ individually
            // best candidates.
            let kp = query
                .k_prime
                .unwrap_or_else(|| (4 * k).max(32))
                .max(k)
                .min(cand.len());
            let mut top = run_top_k(snap, cand, kp, explain, effects);
            let mut ids: Vec<FacilityId> = top.drain(..).map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        }
        _ => cand.to_vec(),
    };
    let table = resolve_table(snap, &pool, explain, effects);
    let out = match query.algorithm {
        Algorithm::Greedy | Algorithm::TwoStep => greedy(&table, &snap.users, &snap.model, k),
        Algorithm::Genetic => {
            let cfg = GeneticConfig {
                seed: query.seed.unwrap_or(GeneticConfig::default().seed),
                ..GeneticConfig::default()
            };
            genetic(&table, &snap.users, &snap.model, k, &cfg)
        }
        Algorithm::Exact => exact(&table, &snap.users, &snap.model, k, query.node_budget)
            .ok_or(EngineError::ExactBudgetExhausted)?,
    };
    Ok(QueryResult::MaxCov(out))
}

/// The [`ServedTable`] for a (sorted) candidate set: out of the snapshot's
/// full table when it carries one, else built locally through the index.
/// The build mutates nothing; a built full-facility table is left in
/// `effects` for the caller to install or discard.
fn resolve_table(
    snap: &Snapshot,
    key: &[FacilityId],
    explain: &mut Explain,
    effects: &mut Effects,
) -> Arc<ServedTable> {
    if let Some(table) = from_full(snap, key, explain, effects) {
        return table;
    }
    explain.cache = CacheStatus::Miss;
    let table =
        snap.backend
            .as_index()
            .served_table(&snap.users, &snap.model, &snap.facilities, key);
    explain.eval.add(&table.stats);
    let table = Arc::new(table);
    if key.len() == snap.facilities.len() {
        effects.built = Some(table.clone());
    }
    table
}

/// Ranks a table's candidates by service value (descending, ties by
/// ascending facility id), truncated to `k`.
pub(crate) fn rank_table(table: &ServedTable, k: usize) -> Vec<(FacilityId, f64)> {
    let mut ranked: Vec<(FacilityId, f64)> = table
        .ids
        .iter()
        .zip(&table.values)
        .map(|(id, v)| (*id, *v))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// The served-point mask of one trajectory against one facility, restricted
/// to the points the index placement exposes — two-point placement anchors
/// only the source and destination, so interior points of multipoint
/// trajectories are invisible to the indexed evaluation and must stay
/// invisible to the patch path too (otherwise patched answers would diverge
/// from a fresh build+query).
///
/// Returns `None` when no exposed point is served.
pub(crate) fn delta_mask(
    users: &tq_trajectory::UserSet,
    model: &crate::service::ServiceModel,
    placement: Placement,
    id: tq_trajectory::TrajectoryId,
    facility: &tq_trajectory::Facility,
) -> Option<crate::service::PointMask> {
    let t = users.get(id);
    let psi = model.psi;
    let mut mask = crate::service::PointMask::empty(t.len());
    let mut any = false;
    let mut test = |i: usize, p: &tq_geometry::Point| {
        if facility.serves_point(p, psi) {
            mask.set(i);
            any = true;
        }
    };
    match placement {
        Placement::TwoPoint => {
            let (src, dst) = (t.source(), t.destination());
            test(0, &src);
            test(t.len() - 1, &dst);
        }
        Placement::Segmented | Placement::FullTrajectory => {
            for (i, p) in t.points().iter().enumerate() {
                test(i, p);
            }
        }
    }
    any.then_some(mask)
}
