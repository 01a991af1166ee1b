//! MaxkCovRST: maximum k-coverage over trajectories (paper §V).
//!
//! The query asks for the size-`k` subset of facilities maximizing the
//! *combined* service `SO(U, F') = Σ_u AGG_{f∈F'} S(u, f)`, where service a
//! user receives from several facilities is counted once. The problem is
//! NP-hard and — unlike classic maximum coverage — **non-submodular**
//! (paper Lemma 1; demonstrated by a unit test below), so Feige's greedy
//! guarantee does not apply. The paper answers it with a greedy
//! approximation over TQ-tree evaluations; we implement:
//!
//! * [`greedy::greedy`] — the straightforward greedy over a full
//!   [`ServedTable`] (the paper's G-BL / G-TQ(B) / G-TQ(Z), depending on
//!   which evaluator built the table),
//! * [`greedy::two_step_greedy`] — the paper's two-step variant: a
//!   kMaxRRST pass selects `k' ≥ k` candidates, greedy runs on those only,
//! * [`exact::exact`] — branch-and-bound exact solver (for approximation
//!   ratios, Fig. 11),
//! * [`genetic::genetic`] — the Gn baseline: a genetic algorithm over
//!   k-subsets (20 iterations in the paper).
//!
//! The overlap-aware aggregation `AGG` is realized by [`Coverage`]: the
//! union of per-user served-point masks, under which every scenario's value
//! function is monotone.
//!
//! Served masks have **one resident form**, the [`Column`]: a facility's
//! `(trajectory, mask, value)` entries flat and sorted by trajectory id. An
//! evaluation turns its scratch hash map into a column once, when it
//! finishes ([`Column::from_map`]); from there on — the [`ServedTable`] a
//! query builds, the table an engine keeps warm and patches per batch, the
//! snapshot codec, a sharded merge, every solver — code only streams
//! columns, so no consumer sorts, hashes or re-values a mask again.

mod column;
pub mod exact;
pub mod genetic;
pub mod greedy;
#[cfg(test)]
mod project_proptests;
#[cfg(test)]
mod proptests;

use crate::eval::{EvalOutcome, EvalStats};
use crate::fasthash::FxHashMap;
use crate::parallel;
use crate::service::{MaskSizeMismatch, PointMask, ServiceModel};
use crate::tqtree::TqTree;
use std::sync::Arc;
use tq_trajectory::{FacilityId, FacilitySet, TrajectoryId, UserSet};

pub use column::Column;
pub use exact::exact;
pub use genetic::{genetic, GeneticConfig};
pub use greedy::{greedy, two_step_greedy};

/// Complete served-point masks for a set of candidate facilities, the input
/// to every MaxkCovRST solver.
///
/// Built once per query; the builder is what distinguishes the paper's
/// method families (baseline vs TQ(B) vs TQ(Z) evaluation).
///
/// The table *is* the solvers' arena: each candidate's masks are one
/// [`Column`], streamed in place. Columns sit behind `Arc`s so that a clone
/// of a table — and the next epoch of a table
/// [`Engine::apply`](crate::engine::Engine::apply) patched — shares every
/// column that did not change.
#[derive(Debug, Clone)]
pub struct ServedTable {
    /// Candidate facility ids, parallel to `masks` / `values`.
    pub ids: Vec<FacilityId>,
    /// Per-candidate served masks.
    pub masks: Vec<Arc<Column>>,
    /// Per-candidate individual service values ([`Column::value`]).
    pub values: Vec<f64>,
    /// Aggregated evaluation counters.
    pub stats: EvalStats,
}

impl ServedTable {
    /// Evaluates every facility of `facilities` through the TQ-tree.
    pub fn build(
        tree: &TqTree,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
    ) -> ServedTable {
        let ids: Vec<FacilityId> = facilities.iter().map(|(id, _)| id).collect();
        Self::build_for(tree, users, model, facilities, &ids)
    }

    /// Evaluates only the given candidate ids (the two-step greedy's second
    /// phase).
    ///
    /// The per-candidate evaluations fan out across threads through
    /// [`crate::parallel::par_evaluate_candidates`]; the resulting table is
    /// bit-identical to a sequential build (ordered reduction, pure
    /// per-facility work).
    pub fn build_for(
        tree: &TqTree,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        let outcomes =
            parallel::par_evaluate_candidates(tree, users, model, facilities, candidates, true);
        Self::from_outcomes(candidates.to_vec(), outcomes)
    }

    /// [`ServedTable::build`] with an explicit thread count (`1` forces the
    /// serial path, `0` means one thread per core). Results are identical
    /// to the sequential build — order, values and masks.
    pub fn build_parallel(
        tree: &TqTree,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        threads: usize,
    ) -> ServedTable {
        parallel::with_threads(threads, || Self::build(tree, users, model, facilities))
    }

    /// Collects per-candidate evaluation outcomes (parallel to `ids`) into a
    /// table — every backend's table build ends here, so `G-BL` flows
    /// through the same solvers.
    pub(crate) fn from_outcomes(
        ids: Vec<FacilityId>,
        outcomes: impl IntoIterator<Item = EvalOutcome>,
    ) -> ServedTable {
        let mut masks = Vec::with_capacity(ids.len());
        let mut values = Vec::with_capacity(ids.len());
        let mut stats = EvalStats::default();
        for out in outcomes {
            stats.add(&out.stats);
            values.push(out.value);
            masks.push(Arc::new(out.masks));
        }
        ServedTable {
            ids,
            masks,
            values,
            stats,
        }
    }

    /// The sub-table over the candidates `key` (ascending, each one of
    /// `self.ids`): every column shared with this table — one `Arc` bump
    /// per candidate, no evaluation — and every value copied, so the
    /// result equals [`ServedTable::build_for`] over `key` on the state
    /// this table was built (or kept in sync) for, bit for bit. `stats` is
    /// zero: a projection evaluates nothing.
    ///
    /// # Panics
    /// Panics when `key` names a candidate this table does not hold.
    pub fn project(&self, key: &[FacilityId]) -> ServedTable {
        let mut table = ServedTable {
            ids: key.to_vec(),
            masks: Vec::with_capacity(key.len()),
            values: Vec::with_capacity(key.len()),
            stats: EvalStats::default(),
        };
        // Both id lists ascend: one forward walk finds every row.
        let mut have = self.ids.iter().enumerate();
        for id in key {
            let (row, _) = have
                .find(|(_, h)| *h == id)
                .expect("projected candidate is in the table");
            table.masks.push(self.masks[row].clone());
            table.values.push(self.values[row]);
        }
        table
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the table has no candidates.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Undo journal for one [`Coverage::add`] (used by the branch-and-bound
/// solver to backtrack cheaply).
pub struct CoverageUndo {
    changed: Vec<(TrajectoryId, Option<PointMask>)>,
    old_value: f64,
}

/// The union coverage state of a facility subset: per-user OR of masks plus
/// the resulting combined value — the paper's `AGG` made explicit.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    masks: FxHashMap<TrajectoryId, PointMask>,
    value: f64,
}

impl Coverage {
    /// Empty coverage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current combined value `SO(U, F')`.
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of users with a strictly positive combined value.
    pub fn users_served(&self, users: &UserSet, model: &ServiceModel) -> usize {
        self.masks
            .iter()
            .filter(|(id, m)| model.value(users.get(**id), m) > 0.0)
            .count()
    }

    /// The marginal gain of adding a facility's `column`, without applying
    /// it.
    ///
    /// Per-user gains accumulate in the column's ascending trajectory id
    /// order, so the gain is bit-identical for any two content-equal
    /// columns. Every greedy round re-scores every remaining candidate, so
    /// this path never materializes a union: a streamed
    /// [`PointMask::union_would_change`] word test decides whether the user
    /// can gain at all, and [`ServiceModel::value_union`] evaluates the
    /// would-be union directly from the two word sets — bit-identical to
    /// cloning and unioning, without the allocation.
    pub fn marginal(&self, users: &UserSet, model: &ServiceModel, column: &Column) -> f64 {
        let mut gain = 0.0;
        for (id, fview) in column.iter() {
            let t = users.get(id);
            match self.masks.get(&id) {
                None => gain += model.value_view(t, fview),
                Some(cur) => {
                    if cur.union_would_change(fview) {
                        gain += model.value_union(t, cur.view(), fview) - model.value(t, cur);
                    }
                }
            }
        }
        gain
    }

    /// Adds a facility's `column`, returning the realized marginal gain.
    pub fn add(&mut self, users: &UserSet, model: &ServiceModel, column: &Column) -> f64 {
        self.add_with_undo(users, model, column, None)
    }

    /// [`Coverage::add`] with the mask sizes validated up front: when any
    /// incoming mask disagrees with its trajectory's point count or with the
    /// coverage mask already held for that user, returns the typed
    /// [`MaskSizeMismatch`] **without mutating** the coverage. This is the
    /// entry point for masks originating from decoded (untrusted) data —
    /// snapshots, WAL records, wire frames — where [`Coverage::add`]'s
    /// panic would turn corruption into a crash.
    pub fn try_add(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        column: &Column,
    ) -> Result<f64, MaskSizeMismatch> {
        for (id, fview) in column.iter() {
            let expect = match self.masks.get(&id) {
                Some(cur) => cur.nbits(),
                None => users.get(id).len(),
            };
            if fview.nbits() != expect {
                return Err(MaskSizeMismatch {
                    dst: expect,
                    src: fview.nbits(),
                });
            }
        }
        Ok(self.add_with_undo(users, model, column, None))
    }

    /// Like [`Coverage::add`], recording an undo journal.
    pub fn add_undoable(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        column: &Column,
    ) -> CoverageUndo {
        let mut undo = CoverageUndo {
            changed: Vec::new(),
            old_value: self.value,
        };
        self.add_with_undo(users, model, column, Some(&mut undo));
        undo
    }

    fn add_with_undo(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        column: &Column,
        mut undo: Option<&mut CoverageUndo>,
    ) -> f64 {
        let mut gain = 0.0;
        for (id, fview) in column.iter() {
            let t = users.get(id);
            match self.masks.get_mut(&id) {
                None => {
                    let v = model.value_view(t, fview);
                    gain += v;
                    self.value += v;
                    self.masks.insert(id, fview.to_mask());
                    if let Some(u) = undo.as_deref_mut() {
                        u.changed.push((id, None));
                    }
                }
                Some(cur) => {
                    // Clone for the undo journal only when the union will
                    // actually change the mask — the common no-op case
                    // (already-covered user) costs one streamed word test.
                    if cur.union_would_change(fview) {
                        let before = model.value(t, cur);
                        if let Some(u) = undo.as_deref_mut() {
                            u.changed.push((id, Some(cur.clone())));
                        }
                        cur.union_view(fview);
                        let after = model.value(t, cur);
                        gain += after - before;
                        self.value += after - before;
                    }
                }
            }
        }
        gain
    }

    /// Reverts an [`Coverage::add_undoable`].
    pub fn undo(&mut self, undo: CoverageUndo) {
        for (id, old) in undo.changed.into_iter().rev() {
            match old {
                None => {
                    self.masks.remove(&id);
                }
                Some(mask) => {
                    self.masks.insert(id, mask);
                }
            }
        }
        self.value = undo.old_value;
    }

    /// Combined value of an arbitrary subset of table candidates, computed
    /// from scratch (the genetic solver's fitness, and tests).
    pub fn value_of_subset(
        table: &ServedTable,
        users: &UserSet,
        model: &ServiceModel,
        subset: &[usize],
    ) -> f64 {
        let mut cov = Coverage::new();
        for &i in subset {
            cov.add(users, model, &table.masks[i]);
        }
        cov.value()
    }
}

/// Result of a MaxkCovRST solver.
#[derive(Debug, Clone)]
pub struct CovOutcome {
    /// Chosen facility ids (in selection order for greedy).
    pub chosen: Vec<FacilityId>,
    /// Combined service value of the chosen subset.
    pub value: f64,
    /// Number of users with positive combined service.
    pub users_served: usize,
    /// Evaluation counters inherited from the table build (if any).
    pub stats: EvalStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scenario;
    use tq_geometry::Point;
    use tq_trajectory::{Facility, Trajectory};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// The Lemma-1 instance: adding facility `x` to a small set gains
    /// nothing, but adding it to a superset gains a user — the diminishing
    /// returns property fails, i.e. SO is non-submodular.
    #[test]
    fn service_function_is_non_submodular() {
        // User u: source at (0,0), destination at (10,0).
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0))]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        // a: near nothing relevant. b: serves only the source.
        // x: serves only the destination.
        let fa = Facility::new(vec![p(50.0, 50.0)]);
        let fb = Facility::new(vec![p(0.0, 0.5)]);
        let fx = Facility::new(vec![p(10.0, 0.5)]);
        let facilities = FacilitySet::from_vec(vec![fa, fb, fx]);
        let tree = TqTree::build(&users, crate::tqtree::TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);

        let g = |subset: &[usize]| Coverage::value_of_subset(&table, &users, &model, subset);
        // A = {a} ⊆ B = {a, b}; x = {x}.
        let gain_a = g(&[0, 2]) - g(&[0]); // adding x to A: still unserved → 0
        let gain_b = g(&[0, 1, 2]) - g(&[0, 1]); // adding x to B: completes u → 1
        assert_eq!(gain_a, 0.0);
        assert_eq!(gain_b, 1.0);
        assert!(
            gain_a < gain_b,
            "submodularity would require gain_a ≥ gain_b"
        );
    }

    #[test]
    fn coverage_counts_overlap_once() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0))]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let f1 = Facility::new(vec![p(0.0, 0.5), p(4.0, 0.5)]);
        let facilities = FacilitySet::from_vec(vec![f1.clone(), f1]);
        let tree = TqTree::build(&users, crate::tqtree::TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let mut cov = Coverage::new();
        let g1 = cov.add(&users, &model, &table.masks[0]);
        let g2 = cov.add(&users, &model, &table.masks[1]);
        assert_eq!(g1, 1.0);
        assert_eq!(g2, 0.0, "identical facility adds nothing new");
        assert_eq!(cov.value(), 1.0);
        assert_eq!(cov.users_served(&users, &model), 1);
    }

    #[test]
    fn marginal_matches_applied_gain() {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0)),
            Trajectory::two_point(p(10.0, 0.0), p(14.0, 0.0)),
        ]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.5), p(4.0, 0.5)]),
            Facility::new(vec![p(4.0, 0.5), p(10.0, 0.5), p(14.0, 0.5)]),
        ]);
        let tree = TqTree::build(&users, crate::tqtree::TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let mut cov = Coverage::new();
        cov.add(&users, &model, &table.masks[0]);
        let predicted = cov.marginal(&users, &model, &table.masks[1]);
        let applied = cov.add(&users, &model, &table.masks[1]);
        assert!((predicted - applied).abs() < 1e-12);
        assert_eq!(cov.value(), 2.0);
    }

    #[test]
    fn try_add_rejects_mismatched_masks_without_mutating() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0))]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let mut mask = PointMask::empty(2);
        mask.set(0);
        mask.set(1);
        let mut good = Column::default();
        good.push(0, mask.view(), 1.0);
        let mut cov = Coverage::new();
        assert_eq!(cov.try_add(&users, &model, &good), Ok(1.0));
        // A decoded mask claiming the wrong point count must be refused
        // with the typed error, leaving the coverage untouched.
        let mut bad = Column::default();
        bad.push(0, PointMask::empty(130).view(), 0.0);
        let err = cov.try_add(&users, &model, &bad).unwrap_err();
        assert_eq!(err, crate::service::MaskSizeMismatch { dst: 2, src: 130 });
        assert_eq!(cov.value(), 1.0);
    }

    #[test]
    fn undo_restores_state_exactly() {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0)),
            Trajectory::two_point(p(1.0, 0.0), p(5.0, 0.0)),
        ]);
        let model = ServiceModel::new(Scenario::PointCount, 1.5);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.5)]),
            Facility::new(vec![p(4.0, 0.5)]),
        ]);
        let tree = TqTree::build(&users, crate::tqtree::TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let mut cov = Coverage::new();
        cov.add(&users, &model, &table.masks[0]);
        let before_masks = cov.masks.clone();
        let before_value = cov.value();
        let undo = cov.add_undoable(&users, &model, &table.masks[1]);
        assert!(cov.value() > before_value);
        cov.undo(undo);
        assert_eq!(cov.value(), before_value);
        assert_eq!(cov.masks, before_masks);
    }

    #[test]
    fn parallel_table_identical_to_sequential() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let users = UserSet::from_vec(
            (0..300)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                        p(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..9)
                .map(|_| {
                    Facility::new(vec![
                        p(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                        p(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                    ])
                })
                .collect(),
        );
        let model = ServiceModel::new(Scenario::Transit, 4.0);
        let tree = TqTree::build(&users, crate::tqtree::TqTreeConfig::default());
        let seq = ServedTable::build(&tree, &users, &model, &facilities);
        for threads in [1usize, 2, 4, 16] {
            let par = ServedTable::build_parallel(&tree, &users, &model, &facilities, threads);
            assert_eq!(par.ids, seq.ids, "{threads} threads");
            assert_eq!(par.values, seq.values, "{threads} threads");
            assert_eq!(par.masks, seq.masks, "{threads} threads");
        }
    }

    #[test]
    fn table_from_outcomes_carries_column_values() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0))]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let mut m = FxHashMap::default();
        let mut mask = PointMask::empty(2);
        mask.set(0);
        mask.set(1);
        m.insert(0u32, mask);
        let masks = Column::from_map(&users, &model, &m);
        let out = EvalOutcome {
            value: masks.value(),
            masks,
            stats: EvalStats::default(),
        };
        let table = ServedTable::from_outcomes(vec![7], [out]);
        assert_eq!(table.values, vec![1.0]);
        assert_eq!(table.ids, vec![7]);
        assert_eq!(table.len(), 1);
    }
}
