//! [`ShardSet`]: sharding as an [`Index`] — the backend a
//! [`ShardedEngine`](super::ShardedEngine) publishes inside ordinary
//! [`Snapshot`]s, so sharded queries run through the one
//! `engine::session` path like any other backend's.
//!
//! The merge invariant, stated once: **a merged table is a real
//! [`ServedTable`] over the global id space** — per candidate, the merge
//! of the shards' disjoint columns (local ids translated through the
//! shard's monotone local→global map, so each is a sorted run) with the
//! value re-folded over the merged column. Masks — and with them the
//! per-user values a column caches — are pure functions of (trajectory,
//! facility, model, placement), so the merge equals what a single engine
//! computes, and the column fixes the fold order by content — merged
//! values are bit-identical to single-engine values by construction, not
//! by accident of scheduling. Every solver then runs on the merged table
//! exactly as it does on a single engine's.

use crate::engine::{session, BackendKind, Index, Snapshot};
use crate::eval::{EvalOutcome, EvalStats};
use crate::maxcov::{Column, ServedTable};
use crate::service::ServiceModel;
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

    /// Per-shard tables for a key: each shard's full-facility table when
    /// the key names every registered facility and the shard carries one,
    /// a scatter of local builds otherwise (one thread per missing shard).
    ///
    /// A shard's full table is the table of the *registered* facilities, so
    /// it is consulted only when `facilities` is the registered set itself
    /// — the front end shares shard 0's allocation. Any other set (the
    /// dense sub-set of a restricted-candidate top-k) is always built.
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
            .map(|shard| {
                shard
                    .full
                    .clone()
                    .filter(|full| registered && full.len() == key.len())
            })
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
        // confined to the build path, where a table build dwarfs them.
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

    /// The merge itself: per candidate one [`Column::merged`] over the
    /// shards' columns, evaluation counters summed over the parts.
    pub(crate) fn merge(&self, key: &[FacilityId], per_shard: &[Arc<ServedTable>]) -> ServedTable {
        let masks: Vec<Arc<Column>> = (0..key.len())
            .map(|ci| Arc::new(self.merged(per_shard.iter().map(|table| &*table.masks[ci]))))
            .collect();
        let mut stats = EvalStats::default();
        for table in per_shard {
            stats.add(&table.stats);
        }
        ServedTable {
            ids: key.to_vec(),
            values: masks.iter().map(|col| col.value()).collect(),
            masks,
            stats,
        }
    }

    /// One global column from one local column per shard.
    fn merged<'a>(&'a self, per_shard: impl Iterator<Item = &'a Column>) -> Column {
        Column::merged(self.locals.iter().map(|l| l.as_slice()).zip(per_shard))
    }
}

impl Index for ShardSet {
    /// The shards' kind (homogeneous — they are built from one builder).
    fn backend_kind(&self) -> BackendKind {
        self.shards[0].backend().kind()
    }

    /// The shards evaluate over their own user sets; the global one is
    /// not consulted — merged columns carry their values.
    fn evaluate(&self, _users: &UserSet, model: &ServiceModel, facility: &Facility) -> EvalOutcome {
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
        let masks = self.merged(outcomes.iter().map(|out| &out.masks));
        EvalOutcome {
            value: masks.value(),
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

    /// The shards build over their own user sets; the global one is not
    /// consulted.
    fn served_table(
        &self,
        _users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        self.merge(
            candidates,
            &self.shard_tables(model, facilities, candidates),
        )
    }
}
