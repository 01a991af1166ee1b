//! [`Column`]: the one resident form of a facility's served masks.

use crate::fasthash::FxHashMap;
use crate::service::{MaskView, PointMask, ServiceModel};
use tq_trajectory::{TrajectoryId, UserSet};

/// One facility's served users — `(trajectory id, served-point mask,
/// per-user service value)` entries in **strictly ascending trajectory id**
/// order, stored flat: the ids in one vector, every mask's live words back
/// to back in another, and the value `S(u, f)` of each mask cached beside
/// it.
///
/// This is the canonical accumulation order made a data structure. Floating
/// point addition is not associative, so the same per-user values summed in
/// different orders can differ in the last bits; every finalized value this
/// crate reports (evaluation outcomes, kMaxRRST exact values,
/// [`ServedTable`](super::ServedTable) values, the tables
/// [`Engine::apply`](crate::engine::Engine::apply) maintains incrementally,
/// merged sharded tables) is [`Column::value`] — the left fold of `vals` in
/// id order — so *any* two states with identical mask contents report
/// bit-identical values, no matter what history (bulk build, incremental
/// updates, different tree shapes, a snapshot decode) produced them. The
/// order is fixed in exactly two places, [`Column::from_map`] (the one sort)
/// and the sharded merge (`Column::merged`, a merge of already sorted
/// runs); everything else appends past the last id or streams.
///
/// The solvers' inner loops (greedy rounds, genetic fitness,
/// branch-and-bound nodes) re-visit the same immutable masks thousands of
/// times; [`Column::iter`] is one linear sweep through memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Column {
    ids: Vec<TrajectoryId>,
    /// Per entry: offset of its first word in `words`, and its point count
    /// (an entry owns `⌈nbits / 64⌉` words).
    spans: Vec<(u32, u32)>,
    words: Vec<u64>,
    /// Per entry: `model.value(trajectory, mask)`.
    vals: Vec<f64>,
    /// `vals` folded left to right from `+0.0`.
    value: f64,
}

impl Column {
    /// The one hash map → column conversion: sorts the scratch map of an
    /// evaluation by trajectory id, once, and values every mask.
    pub fn from_map(
        users: &UserSet,
        model: &ServiceModel,
        masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> Column {
        let mut entries: Vec<(TrajectoryId, &PointMask)> =
            masks.iter().map(|(id, m)| (*id, m)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let mut col = Column {
            ids: Vec::with_capacity(entries.len()),
            spans: Vec::with_capacity(entries.len()),
            words: Vec::with_capacity(entries.len()),
            vals: Vec::with_capacity(entries.len()),
            value: 0.0,
        };
        for (id, mask) in entries {
            col.push(id, mask.view(), model.value(users.get(id), mask));
        }
        col
    }

    /// One global column from one local column per shard, each paired with
    /// its shard's local → global id map. The maps are monotone and their
    /// images disjoint, so every translated column is a sorted run and the
    /// result is their merge. A mask's value depends on its trajectory's
    /// points, not on its id, so `vals` travel with their entries.
    pub(crate) fn merged<'a>(
        parts: impl IntoIterator<Item = (&'a [TrajectoryId], &'a Column)>,
    ) -> Column {
        let mut runs: Vec<_> = parts
            .into_iter()
            .map(|(locals, col)| {
                col.iter()
                    .zip(&col.vals)
                    .map(move |((lid, mask), &val)| (locals[lid as usize], mask, val))
                    .peekable()
            })
            .collect();
        let mut col = Column::default();
        while let Some((_, r)) = (0..runs.len())
            .filter_map(|r| runs[r].peek().map(|&(gid, ..)| (gid, r)))
            .min()
        {
            let (gid, mask, val) = runs[r].next().expect("peeked");
            col.push(gid, mask, val);
        }
        col
    }

    /// Appends an entry whose id is larger than every id already present;
    /// `val` is the mask's service value.
    ///
    /// The cached fold continues by one `+ val`, which has the bits of a
    /// from-scratch `vals.iter().sum::<f64>() + 0.0`: `f64::sum` starts from
    /// `-0.0` and this fold from `+0.0`, and two folds that differ only in
    /// the sign of a zero accumulator agree again at the first non-zero
    /// addend (`±0.0 + v == v`) and stay `±0.0` until then — the one
    /// difference the trailing `+ 0.0` normalises.
    ///
    /// # Panics
    /// Panics when `id` would break the ascending order.
    pub(crate) fn push(&mut self, id: TrajectoryId, mask: MaskView<'_>, val: f64) {
        assert!(
            self.ids.last().is_none_or(|&last| last < id),
            "column ids must ascend: {id} after {:?}",
            self.ids.last()
        );
        let off = u32::try_from(self.words.len()).expect("column exceeds 2^32 mask words");
        self.ids.push(id);
        self.spans.push((off, mask.nbits() as u32));
        self.words.extend_from_slice(mask.words());
        self.vals.push(val);
        self.value += val;
    }

    /// Deletes the entry of `id`, if there is one, and re-sums the values.
    pub(crate) fn remove(&mut self, id: TrajectoryId) -> bool {
        let Ok(i) = self.ids.binary_search(&id) else {
            return false;
        };
        let words = self.word_range(i);
        for (later, _) in &mut self.spans[i + 1..] {
            *later -= words.len() as u32;
        }
        self.words.drain(words);
        self.ids.remove(i);
        self.spans.remove(i);
        self.vals.remove(i);
        // `f64::sum` folds from -0.0; `+ 0.0` makes an empty column (and one
        // of only zero-value entries) report +0.0, and is the bitwise
        // identity for every other sum.
        self.value = self.vals.iter().sum::<f64>() + 0.0;
        true
    }

    /// Number of served users (entries).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the facility serves no point of any user.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The served trajectory ids, ascending.
    pub fn ids(&self) -> &[TrajectoryId] {
        &self.ids
    }

    /// Entry `i`'s words within `words`.
    fn word_range(&self, i: usize) -> std::ops::Range<usize> {
        let (off, nbits) = self.spans[i];
        off as usize..off as usize + (nbits as usize).div_ceil(64)
    }

    fn view(&self, i: usize) -> MaskView<'_> {
        MaskView::new(self.spans[i].1 as usize, &self.words[self.word_range(i)])
    }

    /// Streams the `(trajectory, mask)` entries in ascending id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TrajectoryId, MaskView<'_>)> {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, self.view(i)))
    }

    /// The mask of trajectory `id`, if it is served.
    pub fn get(&self, id: TrajectoryId) -> Option<MaskView<'_>> {
        self.ids.binary_search(&id).ok().map(|i| self.view(i))
    }

    /// The facility's service value `Σ_u S(u, f)` over the entries, summed
    /// in ascending id order; `+0.0` for an empty column.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of users with a strictly positive service value.
    pub fn users_served(&self) -> usize {
        self.vals.iter().filter(|&&v| v > 0.0).count()
    }
}
