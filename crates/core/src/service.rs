//! Service value semantics.
//!
//! The paper defines three application scenarios for how a facility serves a
//! user trajectory (§II):
//!
//! * **Scenario 1** (`Transit`) — binary: served iff both the source and the
//!   destination are within `ψ` of facility stops;
//! * **Scenario 2** (`PointCount`) — partial: the fraction of the user's
//!   points within `ψ` of stops;
//! * **Scenario 3** (`Length`) — partial: the fraction of the user's path
//!   length covered (we credit a segment when both its endpoints are served,
//!   see DESIGN.md §5).
//!
//! All three are evaluated through a per-user [`PointMask`] recording *which*
//! points have been served so far. Masks are monotone (bits only get set),
//! which makes them suitable both for incremental best-first exploration
//! (kMaxRRST) and for the overlap-aware union aggregation `AGG` that
//! MaxkCovRST requires: the combined service of several facilities is the
//! value of the OR of their masks.
//!
//! # Word-block kernels
//!
//! Masks are fixed-width blocks of 64-bit words (see [`PointMask`] for the
//! layout) and every hot operation streams whole words instead of touching
//! bits one at a time:
//!
//! * coverage counting is a per-word `count_ones()` popcount;
//! * union / changed-detection fold `new & !old` across the words;
//! * the Scenario-3 segment test is word-parallel: segment `s` is served iff
//!   bits `s` and `s+1` are both set, so `w & (w >> 1)` yields all served
//!   segments of one word at once, with the cross-word pair
//!   (bit 63 of `wᵢ`, bit 0 of `wᵢ₊₁`) carried in explicitly. Set bits of
//!   the pair word are then walked in ascending order (`trailing_zeros`), so
//!   the per-segment length summation runs in **exactly** the order of the
//!   scalar loop it replaced — which keeps every reported value bit-identical
//!   (float addition is order-sensitive).
//!
//! [`MaskView`] is the borrowed form of a mask (length + word slice); it lets
//! solver hot paths stream masks out of a flat column
//! ([`crate::maxcov::Column`]) without per-user allocations, and
//! [`ServiceModel::value_union`] evaluates the value of the OR of two masks
//! without materializing it.

use std::fmt;
use tq_trajectory::Trajectory;

/// Which of the paper's three service semantics to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Scenario 1: binary source+destination service (e.g. commuting).
    Transit,
    /// Scenario 2: fraction of trajectory points served (e.g. tourist POIs).
    PointCount,
    /// Scenario 3: fraction of trajectory length served (e.g. on-board
    /// Wi-Fi / advertisement exposure).
    Length,
}

impl Scenario {
    /// All scenarios, for parameterized tests and benches.
    pub const ALL: [Scenario; 3] = [Scenario::Transit, Scenario::PointCount, Scenario::Length];

    /// Returns `true` for the scenarios where a user can be served
    /// *partially* (any served point contributes).
    #[inline]
    pub fn is_partial(self) -> bool {
        !matches!(self, Scenario::Transit)
    }
}

/// The service model: a scenario plus the distance threshold `ψ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Service semantics.
    pub scenario: Scenario,
    /// Distance threshold `ψ`: a user point is served by a stop within `ψ`.
    pub psi: f64,
}

impl ServiceModel {
    /// Creates a model.
    ///
    /// # Panics
    /// Panics when `psi` is negative or non-finite.
    pub fn new(scenario: Scenario, psi: f64) -> Self {
        assert!(psi.is_finite() && psi >= 0.0, "ψ must be finite and ≥ 0");
        ServiceModel { scenario, psi }
    }

    /// The service value `S(u, ·)` of a user given its served-point mask.
    ///
    /// Monotone in the mask: setting more bits never lowers the value.
    #[inline]
    pub fn value(&self, u: &Trajectory, mask: &PointMask) -> f64 {
        self.value_view(u, mask.view())
    }

    /// [`ServiceModel::value`] over a borrowed [`MaskView`] — the form the
    /// solver hot paths use to stream masks out of a flat column.
    pub fn value_view(&self, u: &Trajectory, mask: MaskView<'_>) -> f64 {
        debug_assert_eq!(mask.nbits(), u.len(), "mask/trajectory length mismatch");
        match self.scenario {
            Scenario::Transit => {
                if mask.get(0) && mask.get(u.len() - 1) {
                    1.0
                } else {
                    0.0
                }
            }
            Scenario::PointCount => mask.count_ones() as f64 / u.len() as f64,
            Scenario::Length => {
                let total = u.length();
                if total <= 0.0 {
                    // Degenerate zero-length trajectory: fall back to the
                    // binary semantics so the value stays in [0, 1].
                    return if mask.count_ones() as usize == u.len() {
                        1.0
                    } else {
                        0.0
                    };
                }
                let words = mask.words();
                segment_sum(u, words.len(), |i| words[i]) / total
            }
        }
    }

    /// The value of `a ∪ b` without materializing the union — the same
    /// word kernels as [`ServiceModel::value_view`] run over `aᵢ | bᵢ`, so
    /// the result is bit-identical to unioning into a fresh mask and
    /// evaluating that. This is what makes the greedy marginal-gain round
    /// allocation-free: the old path cloned the coverage mask per candidate
    /// per user just to ask "what would the union be worth?".
    pub fn value_union(&self, u: &Trajectory, a: MaskView<'_>, b: MaskView<'_>) -> f64 {
        debug_assert_eq!(a.nbits(), b.nbits(), "mask size mismatch");
        debug_assert_eq!(a.nbits(), u.len(), "mask/trajectory length mismatch");
        let (aw, bw) = (a.words(), b.words());
        match self.scenario {
            Scenario::Transit => {
                let last = u.len() - 1;
                let first_set = (aw[0] | bw[0]) & 1 == 1;
                let last_set = ((aw[last >> 6] | bw[last >> 6]) >> (last & 63)) & 1 == 1;
                if first_set && last_set {
                    1.0
                } else {
                    0.0
                }
            }
            Scenario::PointCount => {
                let ones: u32 = aw.iter().zip(bw).map(|(&x, &y)| (x | y).count_ones()).sum();
                ones as f64 / u.len() as f64
            }
            Scenario::Length => {
                let total = u.length();
                if total <= 0.0 {
                    let ones: u32 =
                        aw.iter().zip(bw).map(|(&x, &y)| (x | y).count_ones()).sum();
                    return if ones as usize == u.len() { 1.0 } else { 0.0 };
                }
                segment_sum(u, aw.len(), |i| aw[i] | bw[i]) / total
            }
        }
    }

    /// The largest value any facility could contribute for `u`
    /// (i.e. the value of the all-ones mask): always `1.0` under the
    /// normalized semantics.
    #[inline]
    pub fn max_value(&self, _u: &Trajectory) -> f64 {
        1.0
    }

    /// Admissible upper bound (`sub` in the paper, §III) contributed by one
    /// *stored item* of the index for scenario-specific best-first search.
    ///
    /// See [`ServiceBounds`] for how per-node aggregates are formed.
    pub fn bound_of(&self, b: &ServiceBounds) -> f64 {
        match self.scenario {
            Scenario::Transit => b.s1,
            Scenario::PointCount => b.s2,
            Scenario::Length => b.s3,
        }
    }
}

/// The word-parallel Scenario-3 kernel: Σ `segment_length(s)` over every
/// segment `s` whose endpoint bits `s` and `s+1` are both set in the mask
/// words produced by `word(i)`.
///
/// Per word, `w & (w >> 1)` has bit `j` set iff bits `j` and `j+1` are both
/// set; the pair straddling the word boundary (bit 63 of `wᵢ` with bit 0 of
/// `wᵢ₊₁`) is carried in explicitly. Set bits are then visited in ascending
/// order via `trailing_zeros`, so the float accumulation order is exactly
/// the scalar `for s in 0..num_segments` loop's — bit-identical sums.
///
/// Mask bits at or beyond `nbits` are zero by [`PointMask`]'s invariant, so
/// no pair bit beyond the last real segment can ever be set.
#[inline]
fn segment_sum(u: &Trajectory, nwords: usize, word: impl Fn(usize) -> u64) -> f64 {
    // One cache fetch up front; the loop then indexes the slice directly.
    let seg_len = u.segment_lengths();
    let mut served = 0.0;
    let mut w = if nwords > 0 { word(0) } else { 0 };
    for wi in 0..nwords {
        let next = if wi + 1 < nwords { word(wi + 1) } else { 0 };
        let mut pairs = (w & (w >> 1)) | (((w >> 63) & next & 1) << 63);
        while pairs != 0 {
            let s = (wi << 6) | pairs.trailing_zeros() as usize;
            served += seg_len[s];
            pairs &= pairs - 1;
        }
        w = next;
    }
    served
}

/// Words per cache block: heap-allocated masks are padded to a multiple of
/// four words (32 bytes), so the union/count/segment kernels always stream
/// whole blocks and the tail never needs scalar handling.
const WORDS_PER_BLOCK: usize = 4;

/// Number of 64-bit words that actually carry bits of an `nbits`-point mask.
#[inline]
const fn live_words(nbits: u32) -> usize {
    (nbits as usize).div_ceil(64)
}

/// Word-streaming union: ORs `src` into `dst`, returning nonzero iff any
/// new bit was set (`src & !dst` folded across the words).
#[inline]
fn union_words(dst: &mut [u64], src: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    let mut fresh = 0u64;
    for (x, &y) in dst.iter_mut().zip(src) {
        fresh |= y & !*x;
        *x |= y;
    }
    fresh
}

/// Sizes of the two masks involved in a failed union — the typed form of
/// the "mask size mismatch" panic, for callers whose masks come from
/// decoded (untrusted) data rather than from a single in-process build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskSizeMismatch {
    /// Point count of the mask being unioned into.
    pub dst: usize,
    /// Point count of the mask being unioned from.
    pub src: usize,
}

impl fmt::Display for MaskSizeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mask size mismatch: cannot union a {}-point mask into a {}-point mask \
             (masks must describe the same trajectory)",
            self.src, self.dst
        )
    }
}

impl std::error::Error for MaskSizeMismatch {}

/// A monotone bitmask over the points of one user trajectory.
///
/// Bit `i` set means point `i` of the trajectory has been served (is within
/// `ψ` of a stop of some facility considered so far).
///
/// # Layout
///
/// ```text
/// nbits ≤ 128   Inline([u64; 2])        — no allocation; covers the
///                                          overwhelming majority of real
///                                          trajectories (trips are 2-point)
/// nbits > 128   Heap(Box<[u64]>)        — padded up to a multiple of 4
///                                          words (32-byte blocks) so the
///                                          word kernels never need a
///                                          scalar tail
/// ```
///
/// Invariant: every bit at index ≥ `nbits` (the padding) is zero. All word
/// kernels rely on it — popcounts may sum the raw words, and the Scenario-3
/// pair kernel cannot produce a phantom segment past the trajectory's end.
///
/// # Contracts
///
/// `get`/`set` debug-assert `i < nbits` (both representations — the old
/// small/large split disagreed here). [`PointMask::union_with`] panics on a
/// size mismatch; [`PointMask::try_union_with`] is the typed-error form for
/// masks originating from decoded, untrusted data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointMask {
    /// Number of trajectory points the mask describes.
    nbits: u32,
    words: Words,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    /// Inline storage for masks of ≤ 128 points.
    Inline([u64; 2]),
    /// Heap storage, padded to a multiple of [`WORDS_PER_BLOCK`] words.
    Heap(Box<[u64]>),
}

impl PointMask {
    /// An empty (all-unserved) mask for a trajectory of `n_points` points.
    pub fn empty(n_points: usize) -> Self {
        let nbits = u32::try_from(n_points).expect("trajectory too long for a mask");
        let words = if n_points <= 128 {
            Words::Inline([0; 2])
        } else {
            Words::Heap(
                vec![0u64; live_words(nbits).next_multiple_of(WORDS_PER_BLOCK)]
                    .into_boxed_slice(),
            )
        };
        PointMask { nbits, words }
    }

    /// Reconstructs a ≤64-point mask from its single storage word (the
    /// snapshot codec's width-fitted inline encoding).
    ///
    /// The caller must have validated that no bit at index ≥ `n_points` is
    /// set; this is debug-asserted.
    pub fn from_word(n_points: usize, word: u64) -> Self {
        debug_assert!(n_points <= 64);
        debug_assert!(n_points == 64 || word >> n_points == 0, "stray mask bits");
        let mut mask = PointMask::empty(n_points);
        mask.words_raw_mut()[0] = word;
        mask
    }

    /// Reconstructs a mask from its unpadded live words (exactly
    /// `⌈n_points / 64⌉` of them). Padding-bit validation is the caller's
    /// job (the snapshot codec rejects stray bits before constructing);
    /// this is debug-asserted.
    pub fn from_words(n_points: usize, words: &[u64]) -> Self {
        let mut mask = PointMask::empty(n_points);
        let live = live_words(mask.nbits);
        debug_assert_eq!(words.len(), live);
        debug_assert!(
            n_points.is_multiple_of(64) || words.last().is_none_or(|w| w >> (n_points % 64) == 0),
            "stray mask bits"
        );
        mask.words_raw_mut()[..live].copy_from_slice(words);
        mask
    }

    /// Number of trajectory points the mask describes (its bit width).
    #[inline]
    pub fn nbits(&self) -> usize {
        self.nbits as usize
    }

    /// The raw storage words, padding included.
    #[inline]
    fn words_raw(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => a,
            Words::Heap(b) => b,
        }
    }

    #[inline]
    fn words_raw_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(a) => a,
            Words::Heap(b) => b,
        }
    }

    /// Borrowed view of the mask: its length and live words.
    #[inline]
    pub fn view(&self) -> MaskView<'_> {
        MaskView {
            nbits: self.nbits,
            words: &self.words_raw()[..live_words(self.nbits)],
        }
    }

    /// Returns bit `i`. Contract: `i < nbits()`, debug-asserted for both
    /// representations; out-of-range reads in release builds return `false`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits as usize, "point index out of range");
        let raw = self.words_raw();
        (i >> 6) < raw.len() && (raw[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Sets bit `i`, returning `true` when it was previously clear.
    /// Contract: `i < nbits()`, debug-asserted for both representations.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.nbits as usize, "point index out of range");
        let word = &mut self.words_raw_mut()[i >> 6];
        let bit = 1u64 << (i & 63);
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// Number of set bits — a streamed per-word popcount (padding words are
    /// zero by invariant, so the raw words can be summed directly).
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words_raw().iter().map(|w| w.count_ones()).sum()
    }

    /// Returns `true` when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words_raw().iter().all(|&w| w == 0)
    }

    /// In-place union with `other` (same trajectory). Returns `true` when
    /// any new bit was set.
    ///
    /// # Panics
    /// Panics when the masks describe different point counts; use
    /// [`PointMask::try_union_with`] for untrusted inputs.
    #[inline]
    pub fn union_with(&mut self, other: &PointMask) -> bool {
        self.try_union_with(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PointMask::union_with`] with a typed size-mismatch error instead
    /// of a panic — for masks decoded from snapshots, WAL records, or wire
    /// frames, where a mismatch means corrupt or foreign data rather than
    /// a programming error. On `Err` the mask is unchanged.
    pub fn try_union_with(&mut self, other: &PointMask) -> Result<bool, MaskSizeMismatch> {
        if self.nbits != other.nbits {
            return Err(MaskSizeMismatch {
                dst: self.nbits as usize,
                src: other.nbits as usize,
            });
        }
        // Same nbits ⇒ same representation ⇒ same raw width; padding of
        // `other` is zero, so ORing the raw words preserves the invariant.
        Ok(union_words(self.words_raw_mut(), other.words_raw()) != 0)
    }

    /// In-place union with a borrowed view (same trajectory). Returns
    /// `true` when any new bit was set.
    ///
    /// # Panics
    /// Panics when the sizes differ, like [`PointMask::union_with`].
    #[inline]
    pub fn union_view(&mut self, v: MaskView<'_>) -> bool {
        if self.nbits != v.nbits {
            let e = MaskSizeMismatch {
                dst: self.nbits as usize,
                src: v.nbits as usize,
            };
            panic!("{e}");
        }
        let live = live_words(self.nbits);
        union_words(&mut self.words_raw_mut()[..live], v.words) != 0
    }

    /// Would unioning `v` set any new bit? A pure streamed read — the
    /// no-allocation test the marginal-gain round uses before paying for
    /// value kernels.
    #[inline]
    pub fn union_would_change(&self, v: MaskView<'_>) -> bool {
        debug_assert_eq!(self.nbits, v.nbits, "mask size mismatch");
        self.words_raw()
            .iter()
            .zip(v.words)
            .any(|(&cur, &new)| new & !cur != 0)
    }
}

/// A borrowed mask: point count plus exactly `⌈nbits / 64⌉` live words.
///
/// This is how the solvers stream masks out of a flat
/// [`crate::maxcov::Column`] — same kernels, no per-mask ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskView<'a> {
    nbits: u32,
    words: &'a [u64],
}

impl<'a> MaskView<'a> {
    /// A view over `words`, which must be exactly the `⌈n_points / 64⌉`
    /// live words with no stray bits past `n_points`.
    #[inline]
    pub fn new(n_points: usize, words: &'a [u64]) -> MaskView<'a> {
        let nbits = u32::try_from(n_points).expect("trajectory too long for a mask");
        debug_assert_eq!(words.len(), live_words(nbits));
        MaskView { nbits, words }
    }

    /// Number of trajectory points the mask describes.
    #[inline]
    pub fn nbits(&self) -> usize {
        self.nbits as usize
    }

    /// The live words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Returns bit `i`. Contract: `i < nbits()`, debug-asserted.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits as usize, "point index out of range");
        (i >> 6) < self.words.len() && (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Materializes the view into an owned mask.
    pub fn to_mask(&self) -> PointMask {
        PointMask::from_words(self.nbits as usize, self.words)
    }
}

/// Aggregated admissible service upper bounds for a set of stored items —
/// the paper's per-node `sub` values, one per scenario so the index serves
/// all scenarios without rebuilding.
///
/// * `s1` — number of stored items (each can make at most one user served);
/// * `s2` — Σ (points of the item) / |u| (an item can serve at most its own
///   points once, so this dominates any point-count gain);
/// * `s3` — Σ (length of the item) / length(u) (likewise for length; a
///   whole-trajectory item contributes `1`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceBounds {
    /// Scenario-1 bound (item count).
    pub s1: f64,
    /// Scenario-2 bound (normalized point mass).
    pub s2: f64,
    /// Scenario-3 bound (normalized length mass).
    pub s3: f64,
}

impl ServiceBounds {
    /// The zero bound.
    pub const ZERO: ServiceBounds = ServiceBounds {
        s1: 0.0,
        s2: 0.0,
        s3: 0.0,
    };

    /// Component-wise accumulation.
    #[inline]
    pub fn add(&mut self, other: &ServiceBounds) {
        self.s1 += other.s1;
        self.s2 += other.s2;
        self.s3 += other.s3;
    }

    /// Bound contribution of a whole-trajectory item (two-point or
    /// full-trajectory placement) for user `u`.
    pub fn whole_trajectory(_u: &Trajectory) -> ServiceBounds {
        ServiceBounds {
            s1: 1.0,
            s2: 1.0,
            s3: 1.0,
        }
    }

    /// Bound contribution of a single-segment item (`seg`) of user `u`.
    ///
    /// A segment can reveal at most its two endpoint points and its own
    /// length; `s1` is the loose-but-admissible `1` (a segment alone can at
    /// most complete a user's binary service).
    pub fn segment(u: &Trajectory, seg: usize) -> ServiceBounds {
        let total_len = u.length();
        ServiceBounds {
            s1: 1.0,
            s2: 2.0 / u.len() as f64,
            s3: if total_len > 0.0 {
                u.segment_length(seg) / total_len
            } else {
                1.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_geometry::Point;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn three_point() -> Trajectory {
        // lengths: 3 then 1 → total 4
        Trajectory::new(vec![p(0.0, 0.0), p(3.0, 0.0), p(3.0, 1.0)])
    }

    #[test]
    fn transit_requires_both_endpoints() {
        let m = ServiceModel::new(Scenario::Transit, 1.0);
        let u = three_point();
        let mut mask = PointMask::empty(3);
        assert_eq!(m.value(&u, &mask), 0.0);
        mask.set(0);
        assert_eq!(m.value(&u, &mask), 0.0);
        mask.set(2);
        assert_eq!(m.value(&u, &mask), 1.0);
        // The middle point is irrelevant for Transit.
        let mut only_mid = PointMask::empty(3);
        only_mid.set(1);
        assert_eq!(m.value(&u, &only_mid), 0.0);
    }

    #[test]
    fn point_count_is_fraction() {
        let m = ServiceModel::new(Scenario::PointCount, 1.0);
        let u = three_point();
        let mut mask = PointMask::empty(3);
        mask.set(1);
        assert!((m.value(&u, &mask) - 1.0 / 3.0).abs() < 1e-12);
        mask.set(0);
        mask.set(2);
        assert_eq!(m.value(&u, &mask), 1.0);
    }

    #[test]
    fn length_credits_served_segments() {
        let m = ServiceModel::new(Scenario::Length, 1.0);
        let u = three_point();
        let mut mask = PointMask::empty(3);
        mask.set(0);
        mask.set(1);
        // First segment (length 3 of 4) served.
        assert!((m.value(&u, &mask) - 0.75).abs() < 1e-12);
        mask.set(2);
        assert_eq!(m.value(&u, &mask), 1.0);
        // Endpoints only (no adjacent pair) → nothing credited.
        let mut ends = PointMask::empty(3);
        ends.set(0);
        ends.set(2);
        assert_eq!(m.value(&u, &ends), 0.0);
    }

    #[test]
    fn values_are_monotone_in_mask() {
        let u = three_point();
        for scenario in Scenario::ALL {
            let m = ServiceModel::new(scenario, 1.0);
            let mut mask = PointMask::empty(3);
            let mut last = m.value(&u, &mask);
            for i in 0..3 {
                mask.set(i);
                let v = m.value(&u, &mask);
                assert!(v >= last, "{scenario:?} not monotone");
                last = v;
            }
            assert!(last <= m.max_value(&u) + 1e-12);
        }
    }

    #[test]
    fn small_mask_operations() {
        let mut m = PointMask::empty(2);
        assert!(m.is_empty());
        assert!(m.set(1));
        assert!(!m.set(1), "setting twice reports no change");
        assert!(m.get(1));
        assert!(!m.get(0));
        assert_eq!(m.count_ones(), 1);
        assert_eq!(m.nbits(), 2);
    }

    #[test]
    fn large_mask_operations() {
        let mut m = PointMask::empty(130);
        assert!(m.set(0));
        assert!(m.set(64));
        assert!(m.set(129));
        assert_eq!(m.count_ones(), 3);
        assert!(m.get(64));
        assert!(!m.get(65));
        assert_eq!(m.nbits(), 130);
    }

    #[test]
    fn inline_covers_up_to_128_points_without_padding_blocks() {
        // ≤ 128 points: two inline words, no allocation.
        let m = PointMask::empty(128);
        assert!(matches!(m.words, Words::Inline(_)));
        assert_eq!(m.view().words().len(), 2);
        // > 128 points: heap words, padded to whole 4-word blocks, with the
        // view exposing only the live words.
        let m = PointMask::empty(129);
        assert!(matches!(m.words, Words::Heap(_)));
        assert_eq!(m.words_raw().len(), 4);
        assert_eq!(m.view().words().len(), 3);
        let m = PointMask::empty(257);
        assert_eq!(m.words_raw().len(), 8);
        assert_eq!(m.view().words().len(), 5);
    }

    #[test]
    fn from_word_and_from_words_round_trip() {
        let mut a = PointMask::empty(50);
        a.set(0);
        a.set(49);
        assert_eq!(PointMask::from_word(50, a.view().words()[0]), a);
        let mut b = PointMask::empty(200);
        for i in [0usize, 63, 64, 127, 128, 199] {
            b.set(i);
        }
        assert_eq!(PointMask::from_words(200, b.view().words()), b);
        assert_eq!(b.view().to_mask(), b);
    }

    #[test]
    fn union_with_reports_changes() {
        let mut a = PointMask::empty(10);
        a.set(1);
        let mut b = PointMask::empty(10);
        b.set(1);
        assert!(!a.union_with(&b));
        b.set(3);
        assert!(a.union_with(&b));
        assert!(a.get(3));
    }

    #[test]
    fn union_would_change_is_a_pure_predicate() {
        let mut a = PointMask::empty(70);
        a.set(1);
        a.set(65);
        let mut b = PointMask::empty(70);
        b.set(65);
        assert!(!a.union_would_change(b.view()));
        b.set(69);
        assert!(a.union_would_change(b.view()));
        assert!(!a.get(69), "predicate must not mutate");
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn union_mismatched_sizes_panics() {
        let mut a = PointMask::empty(10);
        let b = PointMask::empty(130);
        a.union_with(&b);
    }

    #[test]
    fn try_union_reports_sizes_without_mutating() {
        let mut a = PointMask::empty(10);
        a.set(3);
        let b = PointMask::empty(130);
        let err = a.try_union_with(&b).unwrap_err();
        assert_eq!(err, MaskSizeMismatch { dst: 10, src: 130 });
        assert!(err.to_string().contains("mask size mismatch"));
        assert_eq!(a.count_ones(), 1, "failed union must not mutate");
        let mut ok = PointMask::empty(130);
        assert_eq!(ok.try_union_with(&b), Ok(false));
    }

    #[test]
    fn value_union_matches_materialized_union() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for n in [2usize, 5, 63, 64, 65, 127, 128, 129, 200] {
            let mut x = 0.0;
            let u = Trajectory::new(
                (0..n)
                    .map(|_| {
                        x += rng.gen_range(0.1..2.0);
                        p(x, rng.gen_range(-1.0..1.0))
                    })
                    .collect(),
            );
            let mut a = PointMask::empty(n);
            let mut b = PointMask::empty(n);
            for i in 0..n {
                if rng.gen_bool(0.4) {
                    a.set(i);
                }
                if rng.gen_bool(0.4) {
                    b.set(i);
                }
            }
            let mut merged = a.clone();
            merged.union_with(&b);
            for scenario in Scenario::ALL {
                let m = ServiceModel::new(scenario, 1.0);
                assert_eq!(
                    m.value_union(&u, a.view(), b.view()).to_bits(),
                    m.value(&u, &merged).to_bits(),
                    "{scenario:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn bounds_accumulate() {
        let u = three_point();
        let mut total = ServiceBounds::ZERO;
        total.add(&ServiceBounds::whole_trajectory(&u));
        total.add(&ServiceBounds::segment(&u, 0));
        assert_eq!(total.s1, 2.0);
        assert!((total.s2 - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
        assert!((total.s3 - (1.0 + 0.75)).abs() < 1e-12);
    }

    #[test]
    fn bound_of_selects_scenario() {
        let b = ServiceBounds {
            s1: 1.0,
            s2: 2.0,
            s3: 3.0,
        };
        assert_eq!(ServiceModel::new(Scenario::Transit, 1.0).bound_of(&b), 1.0);
        assert_eq!(
            ServiceModel::new(Scenario::PointCount, 1.0).bound_of(&b),
            2.0
        );
        assert_eq!(ServiceModel::new(Scenario::Length, 1.0).bound_of(&b), 3.0);
    }

    #[test]
    #[should_panic(expected = "ψ")]
    fn negative_psi_rejected() {
        ServiceModel::new(Scenario::Transit, -1.0);
    }

    #[test]
    fn zero_length_trajectory_degenerate_value() {
        let u = Trajectory::new(vec![p(1.0, 1.0), p(1.0, 1.0)]);
        let m = ServiceModel::new(Scenario::Length, 1.0);
        let mut mask = PointMask::empty(2);
        assert_eq!(m.value(&u, &mask), 0.0);
        mask.set(0);
        mask.set(1);
        assert_eq!(m.value(&u, &mask), 1.0);
    }
}
