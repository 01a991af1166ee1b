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

pub mod exact;
pub mod genetic;
pub mod greedy;

use crate::eval::EvalStats;
use crate::fasthash::FxHashMap;
use crate::parallel;
use crate::service::{MaskSizeMismatch, MaskView, PointMask, ServiceModel};
use crate::tqtree::TqTree;
use tq_trajectory::{FacilityId, FacilitySet, TrajectoryId, UserSet};

pub use exact::exact;
pub use genetic::{genetic, GeneticConfig};
pub use greedy::{greedy, two_step_greedy};

/// Complete served-point masks for a set of candidate facilities, the input
/// to every MaxkCovRST solver.
///
/// Built once per query; the builder is what distinguishes the paper's
/// method families (baseline vs TQ(B) vs TQ(Z) evaluation).
#[derive(Debug, Clone)]
pub struct ServedTable {
    /// Candidate facility ids, parallel to `masks` / `values`.
    pub ids: Vec<FacilityId>,
    /// Per-candidate served masks.
    pub masks: Vec<FxHashMap<TrajectoryId, PointMask>>,
    /// Per-candidate individual service values.
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
        let mut masks = Vec::with_capacity(candidates.len());
        let mut values = Vec::with_capacity(candidates.len());
        let mut stats = EvalStats::default();
        for out in outcomes {
            stats.add(&out.stats);
            values.push(out.value);
            masks.push(out.masks);
        }
        ServedTable {
            ids: candidates.to_vec(),
            masks,
            values,
            stats,
        }
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

    /// Builds a table from externally computed masks (used by the baseline
    /// crate so `G-BL` flows through the same solvers).
    pub fn from_masks(
        users: &UserSet,
        model: &ServiceModel,
        ids: Vec<FacilityId>,
        masks: Vec<FxHashMap<TrajectoryId, PointMask>>,
        stats: EvalStats,
    ) -> ServedTable {
        let values = masks
            .iter()
            .map(|m| crate::eval::canonical_value(users, model, m))
            .collect();
        ServedTable {
            ids,
            masks,
            values,
            stats,
        }
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

/// Returns a mask map's entries sorted by ascending trajectory id — the
/// canonical accumulation order shared with
/// [`canonical_value`](crate::eval::canonical_value).
pub(crate) fn sorted_entries(
    masks: &FxHashMap<TrajectoryId, PointMask>,
) -> Vec<(TrajectoryId, &PointMask)> {
    let mut entries: Vec<(TrajectoryId, &PointMask)> =
        masks.iter().map(|(id, m)| (*id, m)).collect();
    entries.sort_unstable_by_key(|(id, _)| *id);
    entries
}

/// Adapts sorted `(id, &mask)` entries to the streamed-view form the
/// [`Coverage`] kernels take.
fn entry_views<'a>(
    entries: &'a [(TrajectoryId, &'a PointMask)],
) -> impl Iterator<Item = (TrajectoryId, MaskView<'a>)> {
    entries.iter().map(|&(id, m)| (id, m.view()))
}

/// Every candidate's served masks flattened into one contiguous word arena,
/// in canonical (ascending trajectory id) order per candidate — built **once
/// per solve**.
///
/// The solvers' inner loops (greedy rounds, genetic fitness, branch-and-bound
/// nodes) re-visit the same immutable masks thousands of times; walking a
/// hash map of boxed masks per visit pointer-chases all over the heap. The
/// arena stores every candidate's `(trajectory, mask)` entries back to back —
/// ids and offsets in one vector, all mask words in another — so scoring one
/// candidate is a single linear sweep through memory.
#[derive(Debug, Clone)]
pub struct MaskArena {
    /// All candidates' live mask words, concatenated.
    words: Vec<u64>,
    /// All candidates' entries, concatenated: id, word offset, point count.
    entries: Vec<ArenaEntry>,
    /// Per-candidate `entries` span.
    ranges: Vec<(u32, u32)>,
}

#[derive(Debug, Clone, Copy)]
struct ArenaEntry {
    id: TrajectoryId,
    off: u32,
    nbits: u32,
}

impl MaskArena {
    /// Flattens one mask map per candidate, each in canonical ascending-id
    /// order (the accumulation order of
    /// [`canonical_value`](crate::eval::canonical_value)).
    pub fn from_maps<'a>(
        maps: impl IntoIterator<Item = &'a FxHashMap<TrajectoryId, PointMask>>,
    ) -> MaskArena {
        let mut arena = MaskArena {
            words: Vec::new(),
            entries: Vec::new(),
            ranges: Vec::new(),
        };
        for map in maps {
            let start = arena.entries.len() as u32;
            for (id, mask) in sorted_entries(map) {
                let off = arena.words.len() as u32;
                arena.words.extend_from_slice(mask.view().words());
                arena.entries.push(ArenaEntry {
                    id,
                    off,
                    nbits: mask.nbits() as u32,
                });
            }
            arena.ranges.push((start, arena.entries.len() as u32));
        }
        arena
    }

    /// The arena of a full [`ServedTable`] (one candidate per table row).
    pub fn from_table(table: &ServedTable) -> MaskArena {
        Self::from_maps(table.masks.iter())
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` when the arena has no candidates.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Streams candidate `ci`'s `(trajectory, mask)` entries in canonical
    /// ascending-id order.
    pub fn candidate(&self, ci: usize) -> ArenaCandidate<'_> {
        let (start, end) = self.ranges[ci];
        ArenaCandidate {
            arena: self,
            idx: start as usize..end as usize,
        }
    }
}

/// Iterator over one arena candidate's `(TrajectoryId, MaskView)` entries.
#[derive(Debug, Clone)]
pub struct ArenaCandidate<'a> {
    arena: &'a MaskArena,
    idx: std::ops::Range<usize>,
}

impl<'a> Iterator for ArenaCandidate<'a> {
    type Item = (TrajectoryId, MaskView<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let e = self.arena.entries[self.idx.next()?];
        let nwords = (e.nbits as usize).div_ceil(64);
        let words = &self.arena.words[e.off as usize..e.off as usize + nwords];
        Some((e.id, MaskView::new(e.nbits as usize, words)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.idx.size_hint()
    }
}

impl ExactSizeIterator for ArenaCandidate<'_> {}

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

    /// The marginal gain of adding `facility_masks`, without applying it.
    ///
    /// Per-user gains accumulate in ascending trajectory id order (the same
    /// canonical order as [`crate::eval::canonical_value`]), so the gain is
    /// bit-identical for any two content-equal mask maps regardless of their
    /// internal hash-map layout.
    pub fn marginal(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facility_masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> f64 {
        self.marginal_views(users, model, entry_views(&sorted_entries(facility_masks)))
    }

    /// [`Coverage::marginal`] over streamed views in canonical ascending-id
    /// order (as produced by [`MaskArena::candidate`]). Callers evaluating
    /// the same facility repeatedly — every greedy round re-scores every
    /// remaining candidate — flatten once into an arena and stream instead
    /// of paying the sort per call.
    ///
    /// This path never materializes a union: a streamed
    /// [`PointMask::union_would_change`] word test decides whether the user
    /// can gain at all, and [`ServiceModel::value_union`] evaluates the
    /// would-be union directly from the two word sets — bit-identical to
    /// cloning and unioning, without the allocation.
    pub fn marginal_views<'a>(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        entries: impl IntoIterator<Item = (TrajectoryId, MaskView<'a>)>,
    ) -> f64 {
        let mut gain = 0.0;
        for (id, fview) in entries {
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

    /// Adds a facility's masks, returning the realized marginal gain.
    pub fn add(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        facility_masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> f64 {
        self.add_with_undo_views(users, model, entry_views(&sorted_entries(facility_masks)), None)
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
        facility_masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> Result<f64, MaskSizeMismatch> {
        let entries = sorted_entries(facility_masks);
        for &(id, fmask) in &entries {
            let expect = match self.masks.get(&id) {
                Some(cur) => cur.nbits(),
                None => users.get(id).len(),
            };
            if fmask.nbits() != expect {
                return Err(MaskSizeMismatch {
                    dst: expect,
                    src: fmask.nbits(),
                });
            }
        }
        Ok(self.add_with_undo_views(users, model, entry_views(&entries), None))
    }

    /// [`Coverage::add`] over streamed views (see [`MaskArena::candidate`]).
    pub fn add_views<'a>(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        entries: impl IntoIterator<Item = (TrajectoryId, MaskView<'a>)>,
    ) -> f64 {
        self.add_with_undo_views(users, model, entries, None)
    }

    /// Like [`Coverage::add`], recording an undo journal.
    pub fn add_undoable(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        facility_masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> CoverageUndo {
        self.add_undoable_views(users, model, entry_views(&sorted_entries(facility_masks)))
    }

    /// [`Coverage::add_undoable`] over streamed views.
    pub fn add_undoable_views<'a>(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        entries: impl IntoIterator<Item = (TrajectoryId, MaskView<'a>)>,
    ) -> CoverageUndo {
        let mut undo = CoverageUndo {
            changed: Vec::new(),
            old_value: self.value,
        };
        self.add_with_undo_views(users, model, entries, Some(&mut undo));
        undo
    }

    fn add_with_undo_views<'a>(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        entries: impl IntoIterator<Item = (TrajectoryId, MaskView<'a>)>,
        mut undo: Option<&mut CoverageUndo>,
    ) -> f64 {
        let mut gain = 0.0;
        for (id, fview) in entries {
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
    /// from scratch (used for genetic fitness and tests).
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

    /// [`Coverage::value_of_subset`] streaming candidates out of a
    /// pre-built [`MaskArena`] — the genetic solver's fitness hot path.
    pub fn value_of_subset_arena(
        arena: &MaskArena,
        users: &UserSet,
        model: &ServiceModel,
        subset: &[usize],
    ) -> f64 {
        let mut cov = Coverage::new();
        for &i in subset {
            cov.add_views(users, model, arena.candidate(i));
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
        let mut good = FxHashMap::default();
        let mut mask = PointMask::empty(2);
        mask.set(0);
        mask.set(1);
        good.insert(0u32, mask);
        let mut cov = Coverage::new();
        assert_eq!(cov.try_add(&users, &model, &good), Ok(1.0));
        // A decoded mask claiming the wrong point count must be refused
        // with the typed error, leaving the coverage untouched.
        let mut bad = FxHashMap::default();
        bad.insert(0u32, PointMask::empty(130));
        let err = cov.try_add(&users, &model, &bad).unwrap_err();
        assert_eq!(err, crate::service::MaskSizeMismatch { dst: 2, src: 130 });
        assert_eq!(cov.value(), 1.0);
    }

    #[test]
    fn arena_streams_canonical_entries() {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0)),
            Trajectory::two_point(p(1.0, 0.0), p(5.0, 0.0)),
        ]);
        let model = ServiceModel::new(Scenario::PointCount, 2.0);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.5), p(4.0, 0.5)]),
            Facility::new(vec![p(5.0, 0.5)]),
        ]);
        let tree = TqTree::build(&users, crate::tqtree::TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let arena = MaskArena::from_table(&table);
        assert_eq!(arena.len(), table.len());
        for ci in 0..table.len() {
            let streamed: Vec<(TrajectoryId, PointMask)> = arena
                .candidate(ci)
                .map(|(id, v)| (id, v.to_mask()))
                .collect();
            let sorted: Vec<(TrajectoryId, PointMask)> = sorted_entries(&table.masks[ci])
                .into_iter()
                .map(|(id, m)| (id, m.clone()))
                .collect();
            assert_eq!(streamed, sorted, "candidate {ci}");
            // And the streamed marginal agrees bitwise with the map-based one.
            let cov = Coverage::new();
            assert_eq!(
                cov.marginal_views(&users, &model, arena.candidate(ci)).to_bits(),
                cov.marginal(&users, &model, &table.masks[ci]).to_bits(),
            );
        }
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
    fn table_from_masks_computes_values() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(4.0, 0.0))]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let mut m = FxHashMap::default();
        let mut mask = PointMask::empty(2);
        mask.set(0);
        mask.set(1);
        m.insert(0u32, mask);
        let table =
            ServedTable::from_masks(&users, &model, vec![7], vec![m], EvalStats::default());
        assert_eq!(table.values, vec![1.0]);
        assert_eq!(table.ids, vec![7]);
        assert_eq!(table.len(), 1);
    }
}
