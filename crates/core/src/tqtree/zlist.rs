//! Z-ordered trajectory lists ("z-nodes") and the `zReduce` pruning step.
//!
//! Inside every q-node the TQ(Z) index keeps its trajectory list sorted by
//! the pair *(start z-id, end z-id)* assigned by two [`ZPartition`]s over the
//! node's rectangle, stored as the paper's z-ordered blocks (§IV): a
//! [`Runs`] of copy-on-write runs of ≤ 2β items. **A run of ≤ 2β items is
//! the unit of storage and of copy-on-write** — an update rewrites the run
//! it lands in, never the list; the partitions are immutable once built and
//! sit behind `Arc`, so cloning a z-list (which every q-node header copy
//! does) copies a run directory and two pointers.
//!
//! `zReduce` (paper §IV, Example 4) prunes the list for a facility
//! component in two phases: first the stretches of items whose start z-cell
//! the component can reach, then a per-survivor check of the end z-cell. Both
//! phases are binary searches — of the run directory, then inside one run —
//! over the flattened sorted sequence, never a scan of the whole list.

use super::item::StoredItem;
use super::runs::{Pos, Runs};
use super::zpartition::ZPartition;
use std::sync::Arc;
use tq_geometry::{Point, Rect, ZId};

/// How `zReduce` may prune items, derived from the service scenario and the
/// index placement (see `DESIGN.md` §5 and `eval::EvalCtx::new`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceMode {
    /// Keep an item only when **both** its start and end z-cells are
    /// reachable. Exact for binary (Scenario 1) service of two-point items,
    /// where service requires both endpoints — the paper's two-step reduce.
    Both,
    /// Keep an item when **either** z-cell is reachable. Sound whenever the
    /// item's servable points are exactly its two anchors (two-point or
    /// segment items, any scenario; full items under Scenario 1).
    Either,
    /// Do not z-prune; the caller falls back to a per-item MBR test.
    /// Required for partial service of full-trajectory items, whose interior
    /// points are invisible to the anchor z-ids.
    Scan,
}

/// Reusable scratch buffers for [`ZList::z_reduce`] so the hot path never
/// allocates.
#[derive(Debug, Default)]
pub struct ReduceScratch {
    start_ranges: Vec<(ZId, ZId)>,
    end_ranges: Vec<(ZId, ZId)>,
}

/// A q-node's trajectory list in TQ(Z) form: items sorted along the Z-curve
/// in copy-on-write runs, with the two partitions that assigned the ids.
#[derive(Debug, Clone)]
pub struct ZList {
    items: Runs,
    starts: Arc<ZPartition>,
    ends: Arc<ZPartition>,
}

/// The z-list sort key.
fn key(it: &StoredItem) -> (ZId, ZId, u32, u32) {
    (it.start_z, it.end_z, it.traj, it.seg)
}

impl ZList {
    /// Builds the z-ordered list for `items` over the q-node rectangle
    /// `rect` with bucket size `beta`.
    pub fn build(rect: Rect, mut items: Vec<StoredItem>, beta: usize) -> ZList {
        let start_pts: Vec<Point> = items.iter().map(|i| i.start).collect();
        let (starts, start_ids) = ZPartition::build(rect, &start_pts, beta, None);
        for (item, z) in items.iter_mut().zip(&start_ids) {
            item.start_z = *z;
        }
        let end_pts: Vec<Point> = items.iter().map(|i| i.end).collect();
        let (ends, end_ids) = ZPartition::build(rect, &end_pts, beta, Some(&start_ids));
        for (item, z) in items.iter_mut().zip(&end_ids) {
            item.end_z = *z;
        }
        items.sort_unstable_by_key(key);
        ZList::from_raw_parts(&items, starts, ends, beta)
    }

    /// The sorted items.
    #[inline]
    pub fn items(&self) -> &Runs {
        &self.items
    }

    /// The sorted items, for in-place maintenance by the owning tree.
    pub(super) fn items_mut(&mut self) -> &mut Runs {
        &mut self.items
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Diagnostics: `(start partition leaves, end partition leaves)` — the
    /// z-node ("bucket") counts of the paper.
    pub fn bucket_counts(&self) -> (usize, usize) {
        (self.starts.leaf_count(), self.ends.leaf_count())
    }

    /// The start-point partition, for persistence.
    pub(crate) fn starts(&self) -> &ZPartition {
        &self.starts
    }

    /// The end-point partition, for persistence.
    pub(crate) fn ends(&self) -> &ZPartition {
        &self.ends
    }

    /// Reassembles a z-list from persisted parts — the items must already
    /// carry their z-ids and be in the sorted order [`ZList::build`]
    /// produces (the decoder verifies the sort; `TqTree::validate` checks
    /// it again on load). They are cut into fresh runs of `beta`.
    pub(crate) fn from_raw_parts(
        items: &[StoredItem],
        starts: ZPartition,
        ends: ZPartition,
        beta: usize,
    ) -> ZList {
        ZList {
            items: Runs::from_sorted(items, beta),
            starts: Arc::new(starts),
            ends: Arc::new(ends),
        }
    }

    /// Incremental insert: assigns z-ids from the *existing* partitions
    /// (the cells containing the item's anchors), finds the item's run by
    /// binary search and rewrites that one run with the item in place — a
    /// copy of ≤ 2β items however long the list is. A run that outgrows 2β
    /// splits in half.
    ///
    /// The partitions are not refined (they are shared, immutable), so a
    /// z-cell may temporarily map to more than β points; `zReduce` stays
    /// sound (coverage tests are purely geometric) and only marginally
    /// less selective until the node is next rebuilt. The cost is the
    /// paper's `O(β)` reassignment within one z-node, without its
    /// repartitioning bookkeeping.
    pub fn insert_item(&mut self, mut item: StoredItem, beta: usize) {
        item.start_z = self.starts.locate(&item.start);
        item.end_z = self.ends.locate(&item.end);
        let at = key(&item);
        let pos = self.items.partition_point(|x| key(x) < at);
        self.items.insert(pos, item, beta);
    }

    /// Where the item with this identity sits: keyed by the z-ids the
    /// partitions give its anchors, with [`Runs::find`]'s scan by identity
    /// behind it should a stored item carry other z-ids than
    /// [`ZPartition::locate`] reproduces.
    pub(super) fn find(&self, traj: u32, seg: u32, start: &Point, end: &Point) -> Option<Pos> {
        let at = (self.starts.locate(start), self.ends.locate(end), traj, seg);
        self.items
            .find(|x| key(x) < at, |x| (x.traj, x.seg) == (traj, seg))
    }

    /// Incremental removal of the item with this identity. Returns `true`
    /// when found. Rewrites the one run that held the item (a copy of
    /// < 2β items); a run that falls below β/2 merges with a neighbour.
    pub fn remove_item(
        &mut self,
        traj: u32,
        seg: u32,
        start: &Point,
        end: &Point,
        beta: usize,
    ) -> bool {
        self.find(traj, seg, start, end)
            .map(|pos| self.items.remove(pos, beta))
            .is_some()
    }

    /// The two-phase `zReduce` of the paper: visits the indices of items
    /// that survive pruning for a facility component (`stops`, threshold
    /// `psi`), in list order.
    ///
    /// Returns the number of items *pruned* (for instrumentation). With
    /// [`ReduceMode::Scan`] the list is filtered only by an O(1) per-item
    /// rectangle test against the component's EMBR (sound for any item: a
    /// servable point lies within ψ of a stop, hence inside the EMBR).
    pub fn z_reduce<F: FnMut(&StoredItem)>(
        &self,
        stops: &[Point],
        psi: f64,
        mode: ReduceMode,
        scratch: &mut ReduceScratch,
        mut visit: F,
    ) -> usize {
        if self.items.is_empty() || stops.is_empty() {
            return self.items.len();
        }
        let comp_embr = Rect::bounding(stops.iter())
            .expect("non-empty stops")
            .expand(psi);
        if mode == ReduceMode::Scan {
            let mut visited = 0usize;
            for it in &self.items {
                if comp_embr.intersects(&it.mbr) {
                    visited += 1;
                    visit(it);
                }
            }
            return self.items.len() - visited;
        }
        self.starts
            .covered_ranges(stops, psi, &mut scratch.start_ranges);
        self.ends.covered_ranges(stops, psi, &mut scratch.end_ranges);
        let items = &self.items;
        let mut visited = 0usize;
        match mode {
            ReduceMode::Both => {
                // Phase 1: contiguous stretches of covered start z-ids.
                for &(lo, hi) in &scratch.start_ranges {
                    let from = items.partition_point(|it| it.start_z < lo);
                    let to = items.partition_point(|it| it.start_z <= hi);
                    // Phase 2: per-survivor end z-id check.
                    for run in items.between(from, to) {
                        for it in run {
                            if ZPartition::ranges_cover(&scratch.end_ranges, &it.end_z) {
                                visited += 1;
                                visit(it);
                            }
                        }
                    }
                }
            }
            ReduceMode::Either => {
                // Visit covered-start stretches; outside them, rescue items
                // whose end could still be reachable — a cheap O(1) rectangle
                // test first, the end z-id binary search only for survivors.
                // Stretches are disjoint and sorted, so we walk the gaps
                // between them.
                let rescue = |it: &StoredItem, visited: &mut usize, visit: &mut F| {
                    if comp_embr.intersects(&it.mbr)
                        && ZPartition::ranges_cover(&scratch.end_ranges, &it.end_z)
                    {
                        *visited += 1;
                        visit(it);
                    }
                };
                let mut cursor: Pos = (0, 0);
                for &(lo, hi) in &scratch.start_ranges {
                    let from = items.partition_point(|it| it.start_z < lo);
                    let to = items.partition_point(|it| it.start_z <= hi);
                    for run in items.between(cursor.min(from), from) {
                        for it in run {
                            rescue(it, &mut visited, &mut visit);
                        }
                    }
                    for run in items.between(from, to) {
                        for it in run {
                            visited += 1;
                            visit(it);
                        }
                    }
                    cursor = cursor.max(to);
                }
                for run in items.between(cursor, items.end()) {
                    for it in run {
                        rescue(it, &mut visited, &mut visit);
                    }
                }
            }
            ReduceMode::Scan => unreachable!(),
        }
        items.len() - visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn unit() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    fn random_items(n: usize, seed: u64) -> Vec<StoredItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let s = Point::new(rng.gen(), rng.gen());
                let e = Point::new(rng.gen(), rng.gen());
                StoredItem {
                    traj: i as u32,
                    seg: u32::MAX,
                    start: s,
                    end: e,
                    mbr: Rect::new(s, e),
                    start_z: ZId::root(),
                    end_z: ZId::root(),
                }
            })
            .collect()
    }

    #[test]
    fn build_sorts_by_zid_pair() {
        let zl = ZList::build(unit(), random_items(200, 1), 8);
        assert!(zl
            .items()
            .to_vec()
            .windows(2)
            .all(|w| (w[0].start_z, w[0].end_z) <= (w[1].start_z, w[1].end_z)));
        assert_eq!(zl.len(), 200);
    }

    #[test]
    fn assigned_ids_locate_points() {
        let zl = ZList::build(unit(), random_items(100, 2), 4);
        for it in zl.items() {
            assert!(it.start_z.cell(&unit()).contains(&it.start));
            assert!(it.end_z.cell(&unit()).contains(&it.end));
        }
    }

    /// Brute-force reference: which items would an exhaustive scan keep?
    fn reference_keep(
        items: &[StoredItem],
        stops: &[Point],
        psi: f64,
        both: bool,
    ) -> Vec<u32> {
        let reach = |p: &Point| stops.iter().any(|s| s.within(p, psi));
        items
            .iter()
            .filter(|it| {
                if both {
                    reach(&it.start) && reach(&it.end)
                } else {
                    reach(&it.start) || reach(&it.end)
                }
            })
            .map(|it| it.traj)
            .collect()
    }

    #[test]
    fn both_mode_never_prunes_servable_items() {
        let mut rng = StdRng::seed_from_u64(3);
        let items = random_items(500, 4);
        let zl = ZList::build(unit(), items.clone(), 8);
        let mut scratch = ReduceScratch::default();
        for _ in 0..20 {
            let stops: Vec<Point> = (0..3)
                .map(|_| Point::new(rng.gen(), rng.gen()))
                .collect();
            let psi = rng.gen_range(0.01..0.2);
            let mut kept = Vec::new();
            zl.z_reduce(&stops, psi, ReduceMode::Both, &mut scratch, |it| {
                kept.push(it.traj)
            });
            let must_keep = reference_keep(&items, &stops, psi, true);
            for t in must_keep {
                assert!(kept.contains(&t), "Both-mode pruned servable item {t}");
            }
        }
    }

    #[test]
    fn either_mode_never_prunes_partially_servable_items() {
        let mut rng = StdRng::seed_from_u64(5);
        let items = random_items(500, 6);
        let zl = ZList::build(unit(), items.clone(), 8);
        let mut scratch = ReduceScratch::default();
        for _ in 0..20 {
            let stops: Vec<Point> = (0..3)
                .map(|_| Point::new(rng.gen(), rng.gen()))
                .collect();
            let psi = rng.gen_range(0.01..0.2);
            let mut kept = Vec::new();
            zl.z_reduce(&stops, psi, ReduceMode::Either, &mut scratch, |it| {
                kept.push(it.traj)
            });
            let must_keep = reference_keep(&items, &stops, psi, false);
            for t in must_keep {
                assert!(kept.contains(&t), "Either-mode pruned servable item {t}");
            }
        }
    }

    #[test]
    fn reduce_actually_prunes() {
        // A tight facility in one corner should prune most of a scattered
        // list.
        let items = random_items(1000, 7);
        let zl = ZList::build(unit(), items, 16);
        let mut scratch = ReduceScratch::default();
        let stops = [Point::new(0.1, 0.1)];
        let mut kept = 0usize;
        let pruned = zl.z_reduce(&stops, 0.05, ReduceMode::Both, &mut scratch, |_| kept += 1);
        assert_eq!(kept + pruned, 1000);
        assert!(
            pruned > 900,
            "expected heavy pruning, only pruned {pruned} of 1000"
        );
    }

    #[test]
    fn either_visits_each_item_at_most_once() {
        let items = random_items(300, 8);
        let zl = ZList::build(unit(), items, 8);
        let mut scratch = ReduceScratch::default();
        let stops = [Point::new(0.5, 0.5), Point::new(0.2, 0.8)];
        let mut seen = std::collections::HashSet::new();
        zl.z_reduce(&stops, 0.3, ReduceMode::Either, &mut scratch, |it| {
            assert!(seen.insert(it.traj), "item {} visited twice", it.traj);
        });
    }

    #[test]
    fn scan_mode_visits_everything_in_reach() {
        let items = random_items(50, 9);
        let zl = ZList::build(unit(), items, 8);
        let mut scratch = ReduceScratch::default();
        // A stop whose EMBR covers the whole unit square → nothing pruned.
        let mut count = 0;
        let pruned = zl.z_reduce(
            &[Point::new(0.5, 0.5)],
            2.0,
            ReduceMode::Scan,
            &mut scratch,
            |_| count += 1,
        );
        assert_eq!(count, 50);
        assert_eq!(pruned, 0);
        // No stops → everything pruned.
        let mut count = 0;
        let pruned = zl.z_reduce(&[], 0.1, ReduceMode::Scan, &mut scratch, |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(pruned, 50);
        // A far-away tight stop prunes by the EMBR rectangle test.
        let mut count = 0;
        let pruned = zl.z_reduce(
            &[Point::new(10.0, 10.0)],
            0.01,
            ReduceMode::Scan,
            &mut scratch,
            |_| count += 1,
        );
        assert_eq!(count, 0);
        assert_eq!(pruned, 50);
    }

    #[test]
    fn empty_list_is_noop() {
        let zl = ZList::build(unit(), vec![], 8);
        let mut scratch = ReduceScratch::default();
        let mut count = 0;
        zl.z_reduce(
            &[Point::new(0.5, 0.5)],
            0.5,
            ReduceMode::Both,
            &mut scratch,
            |_| count += 1,
        );
        assert_eq!(count, 0);
        assert!(zl.is_empty());
    }

    #[test]
    fn no_stops_prunes_everything_in_both_mode() {
        let items = random_items(100, 10);
        let zl = ZList::build(unit(), items, 8);
        let mut scratch = ReduceScratch::default();
        let mut count = 0;
        let pruned = zl.z_reduce(&[], 0.5, ReduceMode::Both, &mut scratch, |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(pruned, 100);
    }
}
