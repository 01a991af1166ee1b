use std::sync::Arc;
use tq_geometry::{Point, Rect};

/// Identifier of a user trajectory: its index in the owning [`UserSet`].
pub type TrajectoryId = u32;

/// A reference to one segment (consecutive point pair) of a user trajectory.
///
/// The segmented TQ-tree variant indexes these instead of whole trajectories;
/// `seg` is the index of the segment's first point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentRef {
    /// The owning trajectory.
    pub traj: TrajectoryId,
    /// Index of the segment within the trajectory (`0..points.len()-1`).
    pub seg: u32,
}

/// A user trajectory: an ordered sequence of visited point locations.
///
/// For two-point data (taxi trips) the sequence is `[source, destination]`;
/// multipoint data (check-ins, GPS traces) may have arbitrarily many points.
#[derive(Debug, Clone)]
pub struct Trajectory {
    points: Vec<Point>,
    /// Lazily cached segment lengths + total. Service evaluation touches
    /// these on every mask fold, so they are computed once per trajectory
    /// instead of a sqrt per call — but only on first use: snapshot
    /// recovery decodes millions of trajectories and must not pay a
    /// distance pass on the cold-start path.
    lengths: std::sync::OnceLock<Lengths>,
}

/// The computed length cache: per-segment distances and their sum.
#[derive(Debug, Clone)]
struct Lengths {
    seg: Box<[f64]>,
    /// `Σ seg`, folded in ascending segment order — the exact sum the
    /// on-demand `length()` produced, so cached values stay bit-identical.
    total: f64,
}

/// Trajectories are equal iff their points are: the length cache is a
/// pure function of the points and must not affect equality.
impl PartialEq for Trajectory {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl Trajectory {
    /// Creates a trajectory from its points.
    ///
    /// # Panics
    /// Panics when fewer than two points are supplied or any coordinate is
    /// non-finite — a trajectory is a movement, not a location.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "a trajectory needs at least two points");
        assert!(
            points.iter().all(Point::is_finite),
            "trajectory coordinates must be finite"
        );
        Trajectory {
            points,
            lengths: std::sync::OnceLock::new(),
        }
    }

    #[inline]
    fn lengths(&self) -> &Lengths {
        self.lengths.get_or_init(|| {
            let seg: Box<[f64]> = self.points.windows(2).map(|w| w[0].dist(&w[1])).collect();
            let total = seg.iter().sum();
            Lengths { seg, total }
        })
    }

    /// Convenience constructor for two-point (source → destination) trips.
    pub fn two_point(source: Point, destination: Point) -> Self {
        Trajectory::new(vec![source, destination])
    }

    /// The ordered points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of points, `|u|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` (a trajectory has ≥ 2 points); present to satisfy the
    /// `len`/`is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The source (first) point.
    #[inline]
    pub fn source(&self) -> Point {
        self.points[0]
    }

    /// The destination (last) point.
    #[inline]
    pub fn destination(&self) -> Point {
        *self.points.last().expect("non-empty by construction")
    }

    /// Number of segments, `|u| - 1`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.points.len() - 1
    }

    /// The endpoints of segment `seg`.
    #[inline]
    pub fn segment(&self, seg: usize) -> (Point, Point) {
        (self.points[seg], self.points[seg + 1])
    }

    /// Length of segment `seg` (cached on first use).
    #[inline]
    pub fn segment_length(&self, seg: usize) -> f64 {
        self.lengths().seg[seg]
    }

    /// All segment lengths, indexed by segment (cached on first use).
    /// Hot loops should fetch this once and index the slice rather than
    /// calling [`Trajectory::segment_length`] per segment.
    #[inline]
    pub fn segment_lengths(&self) -> &[f64] {
        &self.lengths().seg
    }

    /// Total path length, `length(u)` — the sum of segment lengths
    /// (cached on first use).
    #[inline]
    pub fn length(&self) -> f64 {
        self.lengths().total
    }

    /// Minimum bounding rectangle of all points.
    pub fn mbr(&self) -> Rect {
        Rect::bounding(self.points.iter()).expect("non-empty by construction")
    }
}

/// Trajectories per [`UserSet`] chunk, as a power of two: an id splits into
/// `(id >> CHUNK_BITS, id & CHUNK_MASK)`.
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK - 1;
/// Words of the retired bitmap per chunk.
const CHUNK_WORDS: usize = CHUNK / 64;

/// An indexed collection of user trajectories.
///
/// Trajectory ids are dense indices into this set; every index structure in
/// the workspace refers to trajectories through their [`TrajectoryId`]. Ids
/// are never reused: a removed trajectory is [retired](UserSet::retire) —
/// its id stays taken, its points are given up.
///
/// The set is **persistent**: trajectories live in fixed-size chunks behind
/// `Arc`, every chunk but the last exactly full. The set only ever grows at
/// its end, so a clone shares every chunk with its source and a
/// [`UserSet::push`] into the clone copies at most the tail chunk — the
/// writer's copy-on-write of the user set costs one chunk, not the set.
/// Retiring writes one bit of a flat bitmap (copied with the clone, one
/// bit per id) and never a chunk; a chunk whose trajectories have all been
/// retired is released whole, so memory follows the live set.
#[derive(Debug, Clone, Default)]
pub struct UserSet {
    /// Full chunks, then the growing tail. A released chunk is empty.
    chunks: Vec<Arc<Vec<Trajectory>>>,
    len: usize,
    /// One bit per id, [`CHUNK_WORDS`] words per chunk: set once retired.
    retired: Vec<u64>,
    retired_len: usize,
}

/// Sets are equal when they assigned the same ids, retired the same ones
/// and agree on every trajectory still present — whether or not the
/// memory of a retired one has been released yet.
impl PartialEq for UserSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.retired == other.retired && self.iter().eq(other.iter())
    }
}

impl UserSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from trajectories, assigning ids by position.
    pub fn from_vec(trajectories: Vec<Trajectory>) -> Self {
        let len = trajectories.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        let mut rest = trajectories.into_iter();
        while !rest.as_slice().is_empty() {
            chunks.push(Arc::new(rest.by_ref().take(CHUNK).collect()));
        }
        let retired = vec![0; chunks.len() * CHUNK_WORDS];
        UserSet {
            chunks,
            len,
            retired,
            retired_len: 0,
        }
    }

    /// Adds a trajectory, returning its id. Copies the tail chunk first
    /// when a clone of this set still shares it.
    pub fn push(&mut self, t: Trajectory) -> TrajectoryId {
        let id = self.len as TrajectoryId;
        if self.len & CHUNK_MASK == 0 {
            self.chunks.push(Arc::new(vec![t]));
            self.retired.resize(self.chunks.len() * CHUNK_WORDS, 0);
        } else {
            let tail = self.chunks.last_mut().expect("a partial tail chunk");
            Arc::make_mut(tail).push(t);
        }
        self.len += 1;
        id
    }

    /// Assigns the next id to a trajectory that is already retired — how a
    /// decoder restores a retired slot.
    pub fn push_retired(&mut self) -> TrajectoryId {
        let id = self.push(Trajectory {
            points: Vec::new(),
            lengths: std::sync::OnceLock::new(),
        });
        self.retire(id);
        id
    }

    /// Retires trajectory `id`: the id stays assigned (ids are never
    /// reused) but the trajectory is gone — [`UserSet::iter`] skips it,
    /// [`UserSet::try_get`] answers `None`, and its points are released
    /// once every trajectory of its chunk has been retired. Idempotent.
    pub fn retire(&mut self, id: TrajectoryId) {
        let id = id as usize;
        assert!(id < self.len, "retiring unassigned id {id}");
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if self.retired[word] & bit != 0 {
            return;
        }
        self.retired[word] |= bit;
        self.retired_len += 1;
        let chunk = id >> CHUNK_BITS;
        let bits = &self.retired[chunk * CHUNK_WORDS..][..CHUNK_WORDS];
        if (chunk + 1) << CHUNK_BITS <= self.len && bits.iter().all(|w| *w == u64::MAX) {
            self.chunks[chunk] = Arc::default();
        }
    }

    /// Whether `id` has been retired.
    #[inline]
    pub fn is_retired(&self, id: TrajectoryId) -> bool {
        self.retired[id as usize / 64] & (1 << (id % 64)) != 0
    }

    /// Number of ids assigned, `|U|` including retired ones.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of trajectories present (assigned and not retired).
    #[inline]
    pub fn present(&self) -> usize {
        self.len - self.retired_len
    }

    /// Returns `true` when no id has been assigned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trajectory with id `id`, which must not have been retired.
    #[inline]
    pub fn get(&self, id: TrajectoryId) -> &Trajectory {
        debug_assert!(!self.is_retired(id), "trajectory {id} was retired");
        let id = id as usize;
        &self.chunks[id >> CHUNK_BITS][id & CHUNK_MASK]
    }

    /// The trajectory with id `id`, or `None` once it has been retired.
    pub fn try_get(&self, id: TrajectoryId) -> Option<&Trajectory> {
        (!self.is_retired(id)).then(|| self.get(id))
    }

    /// Iterates the `(id, trajectory)` pairs present, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TrajectoryId, &Trajectory)> {
        self.chunks
            .iter()
            .enumerate()
            .flat_map(|(c, chunk)| {
                let base = c << CHUNK_BITS;
                chunk
                    .iter()
                    .enumerate()
                    .map(move |(i, t)| ((base + i) as TrajectoryId, t))
            })
            .filter(|(id, _)| !self.is_retired(*id))
    }

    /// Minimum bounding rectangle of the trajectories present, or `None`
    /// when there are none.
    pub fn mbr(&self) -> Option<Rect> {
        let mut it = self.iter().map(|(_, t)| t.mbr());
        let mut r = it.next()?;
        for m in it {
            r = r.union(&m);
        }
        Some(r)
    }

    /// Total number of points across the trajectories present.
    pub fn total_points(&self) -> usize {
        self.iter().map(|(_, t)| t.len()).sum()
    }

    /// Total number of segments across the trajectories present
    /// (`Σ_u |u| - 1`, the storage bound of the segmented TQ-tree).
    pub fn total_segments(&self) -> usize {
        self.iter().map(|(_, t)| t.num_segments()).sum()
    }

    /// A truncated copy containing only the first `n` ids (used by the
    /// user-count parameter sweeps). Whole chunks of the prefix are shared
    /// with `self`.
    pub fn truncated(&self, n: usize) -> UserSet {
        let len = n.min(self.len);
        let mut out = UserSet {
            chunks: self.chunks[..len >> CHUNK_BITS].to_vec(),
            len: len & !CHUNK_MASK,
            retired: self.retired[..(len >> CHUNK_BITS) * CHUNK_WORDS].to_vec(),
            retired_len: 0,
        };
        out.retired_len = out.retired.iter().map(|w| w.count_ones() as usize).sum();
        for id in out.len..len {
            match self.try_get(id as TrajectoryId) {
                Some(t) => out.push(t.clone()),
                None => out.push_retired(),
            };
        }
        out
    }
}

impl std::ops::Index<TrajectoryId> for UserSet {
    type Output = Trajectory;
    #[inline]
    fn index(&self, id: TrajectoryId) -> &Trajectory {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn two_point_accessors() {
        let t = Trajectory::two_point(p(0.0, 0.0), p(3.0, 4.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.source(), p(0.0, 0.0));
        assert_eq!(t.destination(), p(3.0, 4.0));
        assert_eq!(t.length(), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_rejected() {
        Trajectory::new(vec![p(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        Trajectory::new(vec![p(0.0, 0.0), p(f64::NAN, 1.0)]);
    }

    #[test]
    fn multipoint_segments_and_length() {
        let t = Trajectory::new(vec![p(0.0, 0.0), p(3.0, 4.0), p(3.0, 10.0)]);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.segment(0), (p(0.0, 0.0), p(3.0, 4.0)));
        assert_eq!(t.segment(1), (p(3.0, 4.0), p(3.0, 10.0)));
        assert_eq!(t.length(), 11.0);
        assert_eq!(t.segment_length(1), 6.0);
    }

    #[test]
    fn mbr_covers_all_points() {
        let t = Trajectory::new(vec![p(1.0, 5.0), p(-2.0, 0.5), p(4.0, 2.0)]);
        let r = t.mbr();
        for pt in t.points() {
            assert!(r.contains(pt));
        }
        assert_eq!(r.min, p(-2.0, 0.5));
        assert_eq!(r.max, p(4.0, 5.0));
    }

    #[test]
    fn user_set_ids_are_dense() {
        let mut u = UserSet::new();
        assert!(u.is_empty());
        let a = u.push(Trajectory::two_point(p(0.0, 0.0), p(1.0, 1.0)));
        let b = u.push(Trajectory::two_point(p(2.0, 2.0), p(3.0, 3.0)));
        assert_eq!((a, b), (0, 1));
        assert_eq!(u.len(), 2);
        assert_eq!(u[b].source(), p(2.0, 2.0));
        let ids: Vec<_> = u.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn user_set_aggregates() {
        let u = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(1.0, 0.0)),
            Trajectory::new(vec![p(0.0, 1.0), p(1.0, 1.0), p(2.0, 1.0)]),
        ]);
        assert_eq!(u.total_points(), 5);
        assert_eq!(u.total_segments(), 3);
        let r = u.mbr().unwrap();
        assert_eq!(r, Rect::new(p(0.0, 0.0), p(2.0, 1.0)));
    }

    #[test]
    fn truncated_takes_prefix() {
        let u = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(1.0, 0.0)),
            Trajectory::two_point(p(0.0, 1.0), p(1.0, 1.0)),
            Trajectory::two_point(p(0.0, 2.0), p(1.0, 2.0)),
        ]);
        let t = u.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].source(), p(0.0, 1.0));
        assert_eq!(u.truncated(99).len(), 3);
    }

    fn line(i: usize) -> Trajectory {
        Trajectory::two_point(p(i as f64, 0.0), p(i as f64, 1.0))
    }

    #[test]
    fn from_vec_and_push_agree_across_chunk_boundaries() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7] {
            let bulk = UserSet::from_vec((0..n).map(line).collect());
            let mut pushed = UserSet::new();
            for i in 0..n {
                assert_eq!(pushed.push(line(i)) as usize, i);
            }
            assert_eq!(bulk, pushed, "layouts differ at n = {n}");
            assert_eq!(bulk.len(), n);
            assert_eq!(bulk.iter().count(), n);
            for (id, t) in bulk.iter() {
                assert_eq!(t, &line(id as usize));
                assert_eq!(bulk.get(id), t);
            }
            assert_eq!(bulk.truncated(n / 2), UserSet::from_vec((0..n / 2).map(line).collect()));
        }
    }

    #[test]
    fn a_push_into_a_clone_copies_only_the_tail_chunk() {
        let old = UserSet::from_vec((0..2 * CHUNK + 5).map(line).collect());
        let mut new = old.clone();
        new.push(line(9));
        assert_eq!(old.len(), 2 * CHUNK + 5, "the source set is untouched");
        assert_eq!(new.len(), old.len() + 1);
        let shared: Vec<bool> = old
            .chunks
            .iter()
            .zip(&new.chunks)
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect();
        assert_eq!(shared, [true, true, false]);
        assert_eq!(new.truncated(old.len()), old);
    }

    #[test]
    fn retiring_keeps_ids_and_releases_whole_chunks() {
        let n = 2 * CHUNK + 5;
        let old = UserSet::from_vec((0..n).map(line).collect());
        let mut new = old.clone();
        // Everything in chunk 0 but one id, one id of chunk 1, one of the tail.
        for id in (1..CHUNK).chain([CHUNK + 3, 2 * CHUNK + 1]) {
            new.retire(id as TrajectoryId);
            new.retire(id as TrajectoryId); // idempotent
        }
        assert_eq!((new.len(), new.present()), (n, n - CHUNK - 1));
        assert!(new.is_retired(7) && new.try_get(7).is_none());
        assert_eq!(new.try_get(0), Some(&line(0)));
        let ids: Vec<u32> = new.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), new.present());
        assert!(ids.windows(2).all(|w| w[0] < w[1]) && !ids.contains(&(CHUNK as u32 + 3)));
        assert_eq!(new.total_points(), 2 * new.present());
        assert!(Arc::ptr_eq(&old.chunks[0], &new.chunks[0]), "retiring copies no chunk");
        // The last survivor of chunk 0 goes: the chunk is released, the
        // source set still holds it, and pushing still assigns the next id.
        new.retire(0);
        assert!(new.chunks[0].is_empty() && old.chunks[0].len() == CHUNK);
        assert_eq!((old.present(), old.try_get(0)), (n, Some(&line(0))));
        assert_eq!(new.push(line(9)) as usize, n);

        // A decoder restores the same set without ever seeing the points.
        let mut decoded = UserSet::new();
        for id in 0..new.len() as TrajectoryId {
            match new.try_get(id) {
                Some(t) => decoded.push(t.clone()),
                None => decoded.push_retired(),
            };
        }
        assert_eq!(decoded, new);
        assert!(decoded.chunks[0].is_empty());
        assert_ne!(decoded, old.truncated(decoded.len()));
        assert_eq!(new.truncated(CHUNK + 10).present(), 9);
    }

    #[test]
    fn empty_set_mbr_none() {
        assert!(UserSet::new().mbr().is_none());
    }
}
