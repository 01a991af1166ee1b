//! The run container: a q-node's sorted item list as copy-on-write runs.
//!
//! Both [`NodeList`](super::NodeList) flavours keep their items in one
//! [`Runs`]: a sorted sequence of *runs*, each an `Arc<[StoredItem]>` of at
//! most 2β items allocated at its exact length. **A run of ≤ 2β items is
//! the unit of storage and of copy-on-write** — the paper's β-sized z-node
//! (§IV) made the thing an update actually touches:
//!
//! * an insert or a removal rewrites the one run it lands in, whatever the
//!   length of the list around it; a run that outgrows 2β splits in half,
//!   one that falls below β/2 merges with a neighbour;
//! * cloning a list clones its *directory* (one `Arc` per run, and each
//!   run's first item beside it so a binary search of the directory reads
//!   one flat array), so two epochs of a tree share every run neither has
//!   rewritten;
//! * a bulk build emits runs of β.
//!
//! Run boundaries are an in-memory layout only: every consumer — `zReduce`,
//! the linear scan, the arena codec, [`TqTree::validate`](super::TqTree) —
//! sees the *flattened* sequence, the same items in the same order whatever
//! history drew the boundaries.

use super::item::StoredItem;
use std::sync::Arc;

/// A position in a [`Runs`]: `(run, offset)` with `offset` inside `run`, or
/// `(number of runs, 0)` for the end. Positions compare like the flat
/// indices they stand for.
pub(crate) type Pos = (usize, usize);

/// The flattened item iterator of a [`Runs`].
pub type Iter<'a> = std::iter::FlatMap<
    std::slice::Iter<'a, Arc<[StoredItem]>>,
    std::slice::Iter<'a, StoredItem>,
    fn(&'a Arc<[StoredItem]>) -> std::slice::Iter<'a, StoredItem>,
>;

/// A sorted item sequence stored as copy-on-write runs of ≤ 2β items (see
/// the [module docs](self)). The sort key belongs to the owner: `(traj,
/// seg)` for TQ(B) lists, `(start z, end z, traj, seg)` for z-lists.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    runs: Vec<Arc<[StoredItem]>>,
    /// `runs[r][0]` for every run, side by side: the directory's binary
    /// search probes these instead of chasing a pointer into each run.
    heads: Vec<StoredItem>,
    len: usize,
}

/// The shortest a run may be while it has a neighbour to merge with.
fn min_run(beta: usize) -> usize {
    (beta / 2).max(1)
}

/// `items` as one run, or as two halves when longer than a run may be.
fn pack(items: &[StoredItem], beta: usize) -> Vec<Arc<[StoredItem]>> {
    if items.len() > 2 * beta {
        let (a, b) = items.split_at(items.len() / 2);
        vec![a.into(), b.into()]
    } else {
        vec![items.into()]
    }
}

impl Runs {
    /// Bulk build: cuts an already sorted sequence into runs of β (a tail
    /// shorter than β/2 rides with the run before it).
    pub(crate) fn from_sorted(items: &[StoredItem], beta: usize) -> Runs {
        let mut out = Runs::default();
        let mut rest = items;
        while !rest.is_empty() {
            let take = if rest.len() < beta + min_run(beta) {
                rest.len()
            } else {
                beta
            };
            let (run, tail) = rest.split_at(take);
            out.runs.push(run.into());
            out.heads.push(run[0]);
            rest = tail;
        }
        out.len = items.len();
        out
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no items are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs in order, each a sorted slice of 1..=2β items — what hot
    /// loops iterate.
    pub fn slices(&self) -> impl Iterator<Item = &[StoredItem]> + '_ {
        self.runs.iter().map(|run| &run[..])
    }

    /// The items in order, across run boundaries.
    pub fn iter(&self) -> Iter<'_> {
        let items: fn(&Arc<[StoredItem]>) -> std::slice::Iter<'_, StoredItem> = |run| run.iter();
        self.runs.iter().flat_map(items)
    }

    /// The flattened sequence as one vector.
    pub fn to_vec(&self) -> Vec<StoredItem> {
        let mut out = Vec::with_capacity(self.len);
        for run in self.slices() {
            out.extend_from_slice(run);
        }
        out
    }

    /// The end position.
    pub(crate) fn end(&self) -> Pos {
        (self.runs.len(), 0)
    }

    /// The item at `pos`, `None` at the end.
    pub(crate) fn get(&self, (run, off): Pos) -> Option<&StoredItem> {
        self.runs.get(run)?.get(off)
    }

    /// `slice::partition_point` over the flattened sequence: a binary
    /// search of the run directory (by each run's first item), then of the
    /// one run that holds the boundary.
    pub(crate) fn partition_point(&self, pred: impl Fn(&StoredItem) -> bool) -> Pos {
        let after = self.heads.partition_point(&pred);
        let Some(run) = after.checked_sub(1) else {
            return (0, 0);
        };
        let off = self.runs[run].partition_point(&pred);
        if off == self.runs[run].len() {
            (after, 0)
        } else {
            (run, off)
        }
    }

    /// Where the item `is` accepts sits, in a sequence sorted so that
    /// `before` holds for exactly the items ahead of it: the keyed binary
    /// search, then — should the item not sit where its key says — a scan
    /// by identity before reporting absence.
    pub(crate) fn find(
        &self,
        before: impl Fn(&StoredItem) -> bool,
        is: impl Fn(&StoredItem) -> bool,
    ) -> Option<Pos> {
        let pos = self.partition_point(before);
        if self.get(pos).is_some_and(&is) {
            return Some(pos);
        }
        self.runs
            .iter()
            .enumerate()
            .find_map(|(run, items)| Some((run, items.iter().position(&is)?)))
    }

    /// The items of `from..to` as per-run slices (`from <= to`).
    pub(crate) fn between(&self, from: Pos, to: Pos) -> impl Iterator<Item = &[StoredItem]> + '_ {
        let last = to.0 - from.0;
        self.runs[from.0..self.runs.len().min(to.0 + 1)]
            .iter()
            .enumerate()
            .map(move |(i, run)| {
                let lo = if i == 0 { from.1 } else { 0 };
                let hi = if i == last { to.1 } else { run.len() };
                &run[lo..hi]
            })
    }

    /// Inserts `item` before `pos`, rewriting one run (two when it splits).
    pub(crate) fn insert(&mut self, pos: Pos, item: StoredItem, beta: usize) {
        self.len += 1;
        // The end has no run of its own: append to the last one.
        let (r, off) = match self.runs.len() {
            0 => return self.replace(0..0, vec![[item].into()]),
            n if pos.0 == n => (n - 1, self.runs[n - 1].len()),
            _ => pos,
        };
        let run = &self.runs[r];
        let mut grown = Vec::with_capacity(run.len() + 1);
        grown.extend_from_slice(&run[..off]);
        grown.push(item);
        grown.extend_from_slice(&run[off..]);
        self.replace(r..r + 1, pack(&grown, beta));
    }

    /// Puts `runs` in place of the runs of `range`, heads alongside.
    fn replace(&mut self, range: std::ops::Range<usize>, runs: Vec<Arc<[StoredItem]>>) {
        self.heads
            .splice(range.clone(), runs.iter().map(|run| run[0]));
        self.runs.splice(range, runs);
    }

    /// Removes the item at `pos`, rewriting one run — or two, when the run
    /// falls below β/2 and merges with a neighbour.
    pub(crate) fn remove(&mut self, (r, off): Pos, beta: usize) {
        let run = &self.runs[r];
        self.len -= 1;
        let mut kept = Vec::with_capacity(run.len() - 1);
        kept.extend_from_slice(&run[..off]);
        kept.extend_from_slice(&run[off + 1..]);
        if kept.is_empty() {
            self.replace(r..r + 1, Vec::new());
        } else if kept.len() >= min_run(beta) || self.runs.len() == 1 {
            self.replace(r..r + 1, vec![kept.into()]);
        } else if let Some(next) = self.runs.get(r + 1) {
            kept.extend_from_slice(next);
            self.replace(r..r + 2, pack(&kept, beta));
        } else {
            let mut merged = self.runs[r - 1].to_vec();
            merged.append(&mut kept);
            self.replace(r - 1..r + 1, pack(&merged, beta));
        }
    }

    /// Keeps only the items `keep` accepts, in order, re-cut into runs.
    pub(crate) fn retain(&mut self, beta: usize, keep: impl Fn(&StoredItem) -> bool) {
        let kept: Vec<StoredItem> = self.iter().filter(|it| keep(it)).copied().collect();
        *self = Runs::from_sorted(&kept, beta);
    }

    /// Checks the layout invariants: every run holds 1..=2β items, no run
    /// with a neighbour is shorter than β/2, the heads mirror the runs and
    /// the lengths add up.
    pub(crate) fn check(&self, beta: usize) -> Result<(), String> {
        let floor = if self.runs.len() > 1 {
            min_run(beta)
        } else {
            1
        };
        for (r, run) in self.runs.iter().enumerate() {
            if run.len() < floor || run.len() > 2 * beta {
                return Err(format!(
                    "run {r} of {} holds {} items, outside {floor}..={}",
                    self.runs.len(),
                    run.len(),
                    2 * beta
                ));
            }
        }
        let heads = self.heads.iter().map(|it| (it.traj, it.seg));
        if !heads.eq(self.runs.iter().map(|run| (run[0].traj, run[0].seg))) {
            return Err("the heads beside the directory are not the runs' first items".into());
        }
        let total: usize = self.runs.iter().map(|run| run.len()).sum();
        if total != self.len {
            return Err(format!("runs hold {total} items, list says {}", self.len));
        }
        Ok(())
    }

    /// The run allocations, for the sharing tests.
    #[cfg(test)]
    pub(crate) fn arcs(&self) -> &[Arc<[StoredItem]>] {
        &self.runs
    }
}

impl<'a> IntoIterator for &'a Runs {
    type Item = &'a StoredItem;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
