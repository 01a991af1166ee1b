//! [`ShardSet`]: sharding as an [`Index`] — the backend a
//! [`ShardedEngine`](super::ShardedEngine) publishes inside ordinary
//! [`Snapshot`]s, so sharded queries run through the one
//! `engine::session` path like any other backend's.
//!
//! The merge invariant, stated once: **a merged table is a real
//! [`ServedTable`] over the global id space** — per candidate, the union
//! of the shards' disjoint mask maps (local ids translated through the
//! shard's monotone local→global map) with values recomputed by
//! [`canonical_value`] over the global user set. Masks are pure functions
//! of (trajectory, facility, model, placement), so the union equals what a
//! single engine computes, and the canonical summation fixes the fold
//! order by content — merged values are bit-identical to single-engine
//! values by construction, not by accident of scheduling. Every solver
//! then runs on the merged table exactly as it does on a single engine's.

use crate::engine::{session, BackendKind, Index, Snapshot};
use crate::eval::{canonical_value, EvalOutcome, EvalStats};
use crate::fasthash::FxHashMap;
use crate::maxcov::ServedTable;
use crate::service::{PointMask, ServiceModel};
use crate::topk::TopKOutcome;
use std::sync::Arc;
use std::time::Instant;
use tq_trajectory::{Facility, FacilityId, FacilitySet, TrajectoryId, UserSet};

/// One immutable version of every shard plus the id maps that stitch
/// their local id spaces into the global one.
#[derive(Debug, Clone)]
pub struct ShardSet {
    pub(crate) shards: Vec<Arc<Snapshot>>,
    /// Per shard: local id → global id, monotone (ascending local id ⇒
    /// ascending global id) — the property that makes per-shard canonical
    /// orders concatenate into the global canonical order.
    pub(crate) locals: Vec<Arc<Vec<TrajectoryId>>>,
}

impl ShardSet {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s snapshot.
    pub fn shard(&self, i: usize) -> &Arc<Snapshot> {
        &self.shards[i]
    }

    /// Per-shard tables for a key: each shard's memoized table when it has
    /// one, a scatter of local builds otherwise (one thread per missing
    /// shard).
    ///
    /// Shard memos are keyed by *registered* facility ids, so they are
    /// consulted only when `facilities` is the registered set itself — the
    /// front end shares shard 0's allocation. Any other set (the dense
    /// sub-set of a restricted-candidate top-k) is always built.
    pub(crate) fn shard_tables(
        &self,
        model: &ServiceModel,
        facilities: &FacilitySet,
        key: &[FacilityId],
    ) -> Vec<Arc<ServedTable>> {
        let registered = std::ptr::eq(facilities, self.shards[0].facilities());
        let cached: Vec<Option<Arc<ServedTable>>> = self
            .shards
            .iter()
            .map(|shard| shard.tables.get(key).filter(|_| registered).cloned())
            .collect();
        let missing: Vec<usize> = (0..cached.len()).filter(|&s| cached[s].is_none()).collect();
        let fanout = Instant::now();
        let built = std::thread::scope(|scope| {
            let handles: Vec<_> = missing
                .iter()
                .map(|&s| {
                    let shard = &self.shards[s];
                    scope.spawn(move || {
                        let start = Instant::now();
                        let table = shard.backend().as_index().served_table(
                            shard.users(),
                            model,
                            facilities,
                            key,
                        );
                        (Arc::new(table), start.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard table build panicked"))
                .collect::<Vec<_>>()
        });
        // Scatter timing. Label formatting and the registry lookup are
        // confined to the memo-miss path, where a full table build dwarfs
        // them.
        if tq_obs::enabled() && !missing.is_empty() {
            tq_obs::histogram("tq_shard_fanout_ns", "").record(fanout.elapsed());
            for (&s, (_, elapsed)) in missing.iter().zip(&built) {
                let label = format!("shard=\"{s}\"");
                tq_obs::histogram("tq_shard_build_ns", &label).record(*elapsed);
                tq_obs::counter("tq_shard_tables_built_total", &label).incr();
            }
        }
        let mut built = built.into_iter().map(|(table, _)| table);
        cached
            .into_iter()
            .map(|hit| hit.unwrap_or_else(|| built.next().expect("one build per missing shard")))
            .collect()
    }

    /// The merge itself: disjoint union of translated per-shard masks,
    /// canonical value recomputation over the global user set, evaluation
    /// counters summed over the parts.
    pub(crate) fn merge(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        key: &[FacilityId],
        per_shard: &[Arc<ServedTable>],
    ) -> ServedTable {
        let masks = (0..key.len())
            .map(|ci| self.globalize(per_shard.iter().map(|table| &table.masks[ci])))
            .collect();
        let mut stats = EvalStats::default();
        for table in per_shard {
            stats.add(&table.stats);
        }
        ServedTable::from_masks(users, model, key.to_vec(), masks, stats)
    }

    /// One global mask map from one local mask map per shard.
    fn globalize<'a>(
        &self,
        per_shard: impl Iterator<Item = &'a FxHashMap<TrajectoryId, PointMask>>,
    ) -> FxHashMap<TrajectoryId, PointMask> {
        let mut merged = FxHashMap::default();
        for (locals, masks) in self.locals.iter().zip(per_shard) {
            for (lid, mask) in masks {
                merged.insert(locals[*lid as usize], mask.clone());
            }
        }
        merged
    }
}

impl Index for ShardSet {
    /// The shards' kind (homogeneous — they are built from one builder).
    fn backend_kind(&self) -> BackendKind {
        self.shards[0].backend().kind()
    }

    fn evaluate(&self, users: &UserSet, model: &ServiceModel, facility: &Facility) -> EvalOutcome {
        let outcomes: Vec<EvalOutcome> = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .backend()
                    .as_index()
                    .evaluate(shard.users(), model, facility)
            })
            .collect();
        let mut stats = EvalStats::default();
        for out in &outcomes {
            stats.add(&out.stats);
        }
        let masks = self.globalize(outcomes.iter().map(|out| &out.masks));
        EvalOutcome {
            value: canonical_value(users, model, &masks),
            masks,
            stats,
        }
    }

    /// Ranks the merged table over all of `facilities`. There is no
    /// best-first search across shards, so `relaxations` stays 0 and the
    /// counters are the table builds'.
    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome {
        let all: Vec<FacilityId> = facilities.iter().map(|(id, _)| id).collect();
        let table = self.served_table(users, model, facilities, &all);
        TopKOutcome {
            ranked: session::rank_table(&table, k),
            stats: table.stats,
            relaxations: 0,
        }
    }

    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        self.served_table_parts(users, model, facilities, candidates)
            .0
    }

    fn served_table_parts(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> (ServedTable, Vec<Arc<ServedTable>>) {
        let parts = self.shard_tables(model, facilities, candidates);
        (self.merge(users, model, candidates, &parts), parts)
    }
}
