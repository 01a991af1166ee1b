//! Dynamic-workload types: the update vocabulary [`Engine::apply`] speaks.
//!
//! The paper presents the TQ-tree as an updatable index (§III-C discusses
//! insertion alongside the bulk `constructTQtree`), but its experiments are
//! static: build once, query once. Real trajectory traffic — taxi trips
//! arriving and aging out of a sliding window — is a stream of updates with
//! queries interleaved. This module defines the vocabulary of that workload
//! ([`Update`], [`UpdateError`], [`UpdateStats`], [`BatchOutcome`]); the
//! *maintenance machinery itself lives in the unified engine's
//! single-writer control plane* — [`Engine::apply`] keeps the warmed
//! full-facility [`ServedTable`](crate::maxcov::ServedTable) in sync across
//! batches and publishes each batch as a
//! new immutable [`Snapshot`](crate::engine::Snapshot) epoch, so static,
//! streaming and concurrent-serving callers share one type (see
//! [`Reader`](crate::engine::Reader) for the multi-reader side).
//!
//! # The invalidation rule
//!
//! A facility's cached masks can only change when some updated trajectory
//! has a point within ψ of one of its stops; every such point lies inside
//! the facility's ψ-expanded bounding rectangle (the paper's EMBR). So per
//! batch, a facility whose EMBR is disjoint from the MBR of **every**
//! inserted/removed trajectory is *untouched* — zero work. A touched
//! facility is *patched*: only the delta trajectories are tested against
//! its stops (masks are independent per trajectory, so a patch is exact,
//! not an approximation). Patching is the only maintenance path: it stays
//! cheaper than re-evaluating a touched facility through the tree even for
//! batches as large as half the live set.
//!
//! # Bit-identity
//!
//! After any event sequence the engine's answers are **bit-identical** to
//! building a fresh index over the live trajectories and querying it. Two
//! properties make this exact rather than approximate:
//!
//! 1. masks are pure geometry — a point is served iff it lies within ψ of a
//!    stop — so patched masks equal freshly evaluated ones bit-for-bit;
//! 2. every value this crate reports is summed in the canonical
//!    ascending-trajectory-id order ([`crate::maxcov::Column`]), so
//!    content-equal mask states yield identical floats no matter which
//!    history produced them. (`tests/dynamic_equivalence.rs` asserts this
//!    after every batch of seeded event traces.)
//!
//! # Example
//!
//! A warmed [`Engine`] maintains its full-facility table across batches:
//!
//! ```
//! use tq_core::dynamic::Update;
//! use tq_core::engine::{Engine, Query};
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_geometry::{Point, Rect};
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let users = UserSet::from_vec(vec![
//!     Trajectory::two_point(p(10.0, 10.0), p(20.0, 10.0)),
//!     Trajectory::two_point(p(80.0, 80.0), p(90.0, 80.0)),
//! ]);
//! let routes = FacilitySet::from_vec(vec![
//!     Facility::new(vec![p(10.0, 11.0), p(20.0, 11.0)]), // serves user 0
//!     Facility::new(vec![p(80.0, 81.0), p(90.0, 81.0)]), // serves user 1
//! ]);
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(users)
//!     .facilities(routes)
//!     .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
//!     .build()
//!     .unwrap();
//! engine.warm();
//!
//! // Both routes serve one user each.
//! let top = engine.run(Query::top_k(2)).unwrap();
//! assert_eq!(top.ranked(), [(0, 1.0), (1, 1.0)]);
//!
//! // A second commuter arrives near route 0; the batch never touches
//! // route 1, so its cached result is reused as-is.
//! let batch = vec![Update::Insert(Trajectory::two_point(
//!     p(10.5, 10.0),
//!     p(19.5, 10.0),
//! ))];
//! engine.apply(&batch).unwrap();
//! let top = engine.run(Query::top_k(2)).unwrap();
//! assert_eq!(top.ranked(), [(0, 2.0), (1, 1.0)]);
//! assert_eq!(engine.stats().facilities_untouched, 1);
//!
//! // Expiring a trajectory is just as cheap — the engine drops its mask
//! // entries and the index items, no facility re-evaluation needed.
//! engine.apply(&[Update::Remove(0)]).unwrap();
//! assert_eq!(engine.full_table().unwrap().values[0], 1.0);
//! assert_eq!(engine.live_users(), 2);
//! // Removing the same trajectory twice is an error, and rejected batches
//! // leave the engine untouched.
//! assert!(engine.apply(&[Update::Remove(0)]).is_err());
//! assert_eq!(engine.live_users(), 2);
//! ```

#[cfg(doc)]
use crate::engine::Engine;
use tq_trajectory::{Trajectory, TrajectoryId};
/// One event of a dynamic trajectory workload.
#[derive(Debug, Clone)]
pub enum Update {
    /// A new trajectory arrives and must be indexed. The engine assigns the
    /// next dense [`TrajectoryId`].
    Insert(Trajectory),
    /// The trajectory with this id expires: it is unindexed and stops
    /// contributing to every query answer. Ids are never reused: the id
    /// stays assigned in the [`UserSet`](tq_trajectory::UserSet), retired,
    /// and the trajectory's points are given up.
    Remove(TrajectoryId),
}

/// Errors rejected by [`Engine::apply`]. A rejected batch is applied not
/// at all (all-or-nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An inserted trajectory has points outside the engine's fixed bounds.
    OutOfBounds {
        /// Index of the offending event within the batch.
        index: usize,
    },
    /// A removal names an id that is not live at that point of the batch
    /// (never inserted, or already removed).
    NotLive {
        /// Index of the offending event within the batch.
        index: usize,
        /// The id the event named.
        id: TrajectoryId,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::OutOfBounds { index } => {
                write!(f, "event {index}: trajectory outside the engine bounds")
            }
            UpdateError::NotLive { index, id } => {
                write!(f, "event {index}: trajectory {id} is not live")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Work counters accumulated across every applied batch, proving how much
/// facility evaluation the incremental path avoided versus rebuilding.
///
/// A rebuild-from-scratch strategy performs `|F|` full facility evaluations
/// per batch. The engine instead classifies each facility per batch as
/// *untouched* (EMBR disjoint from every delta — zero work) or *patched*
/// (only the delta trajectories tested against its stops).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Batches applied.
    pub batches: u64,
    /// Trajectories inserted.
    pub inserts: u64,
    /// Trajectories removed.
    pub removes: u64,
    /// Facility×batch pairs with zero work (EMBR disjoint from all deltas).
    pub facilities_untouched: u64,
    /// Facility×batch pairs updated by delta patching.
    pub facilities_patched: u64,
    /// Exact point-vs-stop mask computations performed while patching
    /// (one per relevant (facility, inserted trajectory) pair).
    pub patch_evaluations: u64,
}

impl UpdateStats {
    /// Accumulates `other` into `self` (e.g. across engine generations in a
    /// long-running benchmark).
    pub fn add(&mut self, other: &UpdateStats) {
        self.batches += other.batches;
        self.inserts += other.inserts;
        self.removes += other.removes;
        self.facilities_untouched += other.facilities_untouched;
        self.facilities_patched += other.facilities_patched;
        self.patch_evaluations += other.patch_evaluations;
    }

    /// Facility evaluations a rebuild-every-batch strategy would have done.
    pub fn rebuild_evaluations(&self) -> u64 {
        self.facilities_untouched + self.facilities_patched
    }

    /// Fraction of facility×batch pairs that required no work at all.
    pub fn untouched_fraction(&self) -> f64 {
        let total = self.rebuild_evaluations();
        if total == 0 {
            return 0.0;
        }
        self.facilities_untouched as f64 / total as f64
    }
}

/// Outcome summary of one applied batch.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Ids assigned to the batch's inserted trajectories, in event order.
    pub inserted: Vec<TrajectoryId>,
    /// Number of removals applied.
    pub removed: usize,
    /// Facilities with zero work this batch.
    pub untouched: usize,
    /// Facilities updated by delta patching.
    pub patched: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineError, Query};
    use crate::maxcov::{greedy, CovOutcome, ServedTable};
    use crate::service::{Scenario, ServiceModel};
    use crate::top_k_facilities;
    use crate::tqtree::{TqTree, TqTreeConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::{Point, Rect};
    use tq_trajectory::{Facility, FacilityId, FacilitySet, UserSet};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_users(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )
                })
                .collect(),
        )
    }

    fn random_facilities(n: usize, seed: u64) -> FacilitySet {
        let mut rng = StdRng::seed_from_u64(seed);
        FacilitySet::from_vec(
            (0..n)
                .map(|_| {
                    let mut x = rng.gen_range(10.0..90.0);
                    let mut y = rng.gen_range(10.0..90.0);
                    Facility::new(
                        (0..5)
                            .map(|_| {
                                x = (x + rng.gen_range(-5.0..5.0f64)).clamp(0.0, 100.0);
                                y = (y + rng.gen_range(-5.0..5.0f64)).clamp(0.0, 100.0);
                                p(x, y)
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    fn bounds() -> Rect {
        Rect::new(p(0.0, 0.0), p(100.0, 100.0))
    }

    /// A warmed TQ-tree engine: the full-facility table is memoized up
    /// front, so every batch maintains it incrementally.
    fn warmed(
        users: UserSet,
        facilities: FacilitySet,
        model: ServiceModel,
        tree: TqTreeConfig,
    ) -> Engine {
        let mut engine = Engine::builder(model)
            .users(users)
            .facilities(facilities)
            .tree_config(tree)
            .bounds(bounds())
            .build()
            .unwrap();
        engine.warm();
        engine
    }

    fn top_k(engine: &mut Engine, k: usize) -> Vec<(FacilityId, f64)> {
        let answer = engine.run(Query::top_k(k)).unwrap();
        assert!(answer.explain.cache.is_hit(), "served from the maintained table");
        answer.ranked().to_vec()
    }

    fn greedy_cover(engine: &mut Engine, k: usize) -> CovOutcome {
        engine.run(Query::max_cov(k)).unwrap().cover().clone()
    }

    /// Fresh-build reference: index only the live trajectories (compacted
    /// ids) and answer both queries from scratch.
    fn fresh_answers(engine: &Engine, tree: TqTreeConfig, k: usize) -> (Vec<f64>, CovOutcome) {
        let live = engine.live_set();
        let tree = TqTree::build_with_bounds(&live, tree, bounds());
        let top = top_k_facilities(&tree, &live, engine.model(), engine.facilities(), k);
        let table = ServedTable::build(&tree, &live, engine.model(), engine.facilities());
        let cov = greedy(&table, &live, engine.model(), k);
        (top.ranked.iter().map(|(_, v)| *v).collect(), cov)
    }

    #[test]
    fn matches_fresh_build_after_random_batches() {
        let mut rng = StdRng::seed_from_u64(71);
        let tree = TqTreeConfig::default().with_beta(8);
        let mut engine = warmed(
            random_users(300, 72),
            random_facilities(24, 73),
            ServiceModel::new(Scenario::Transit, 4.0),
            tree,
        );
        for _ in 0..6 {
            let mut batch = Vec::new();
            for _ in 0..20 {
                if rng.gen_bool(0.5) && engine.live_users() > 50 {
                    let live: Vec<TrajectoryId> = engine.live_ids().collect();
                    let id = live[rng.gen_range(0..live.len())];
                    // Skip ids already removed in this batch.
                    if batch.iter().any(
                        |u| matches!(u, Update::Remove(r) if *r == id),
                    ) {
                        continue;
                    }
                    batch.push(Update::Remove(id));
                } else {
                    batch.push(Update::Insert(Trajectory::two_point(
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )));
                }
            }
            engine.apply(&batch).unwrap();
            let got_top = top_k(&mut engine, 5);
            let (want_top, want_cov) = fresh_answers(&engine, tree, 5);
            let got_vals: Vec<f64> = got_top.iter().map(|(_, v)| *v).collect();
            assert_eq!(got_vals, want_top, "top-k values diverged");
            let got_cov = greedy_cover(&mut engine, 5);
            assert_eq!(got_cov.chosen, want_cov.chosen);
            assert_eq!(got_cov.value, want_cov.value);
            assert_eq!(got_cov.users_served, want_cov.users_served);
        }
        assert!(engine.stats().batches == 6);
    }

    /// One batch of 250 events over 200 live trips: some facility meets
    /// more relevant deltas than a quarter of the live set, and patching —
    /// the only maintenance path — still lands on a fresh build's table.
    #[test]
    fn a_batch_heavy_on_one_facility_patches_exactly() {
        let users = random_users(200, 81);
        let facilities = random_facilities(16, 82);
        let model = ServiceModel::new(Scenario::PointCount, 5.0);
        let tree = TqTreeConfig::default().with_beta(8);
        let mut engine = warmed(users.clone(), facilities.clone(), model, tree);
        let extra = random_users(150, 83);
        let batch: Vec<Update> = extra
            .iter()
            .map(|(_, t)| Update::Insert(t.clone()))
            .chain((0..100).map(Update::Remove))
            .collect();
        let live = users.len() + 150 - 100;
        let quarter = (0.25 * live as f64).ceil() as usize;
        let heaviest = facilities
            .iter()
            .map(|(_, f)| {
                let embr = f.embr(model.psi);
                batch
                    .iter()
                    .filter(|u| {
                        let mbr = match u {
                            Update::Insert(t) => t.mbr(),
                            Update::Remove(id) => users.get(*id).mbr(),
                        };
                        embr.intersects(&mbr)
                    })
                    .count()
            })
            .max()
            .unwrap();
        assert!(heaviest > quarter, "setup: {heaviest} relevant deltas, a quarter is {quarter}");

        let outcome = engine.apply(&batch).unwrap();
        assert_eq!(outcome.untouched + outcome.patched, facilities.len());
        assert!(outcome.patched > 0);
        assert_eq!(engine.live_users(), live);

        let got_top = top_k(&mut engine, 4);
        let (want_top, want_cov) = fresh_answers(&engine, tree, 4);
        let got_vals: Vec<f64> = got_top.iter().map(|(_, v)| *v).collect();
        assert_eq!(got_vals, want_top);
        let got_cov = greedy_cover(&mut engine, 4);
        assert_eq!(got_cov.chosen, want_cov.chosen);
        assert_eq!(got_cov.value.to_bits(), want_cov.value.to_bits());
        let live_set = engine.live_set();
        let fresh_tree = TqTree::build_with_bounds(&live_set, tree, bounds());
        let fresh = ServedTable::build(&fresh_tree, &live_set, &model, &facilities);
        let table = engine.full_table().unwrap();
        for (fi, (got, want)) in table.values.iter().zip(&fresh.values).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "facility {fi}");
        }
    }

    #[test]
    fn rejected_batches_leave_engine_untouched() {
        let mut engine = warmed(
            random_users(50, 91),
            random_facilities(8, 92),
            ServiceModel::new(Scenario::Transit, 4.0),
            TqTreeConfig::default(),
        );
        let top_before = top_k(&mut engine, 8);
        // Insert fine, then remove a dead id: whole batch rejected.
        let batch = vec![
            Update::Insert(Trajectory::two_point(p(1.0, 1.0), p(2.0, 2.0))),
            Update::Remove(9999),
        ];
        assert_eq!(
            engine.apply(&batch).unwrap_err(),
            EngineError::Update(UpdateError::NotLive { index: 1, id: 9999 })
        );
        assert_eq!(engine.live_users(), 50);
        assert_eq!(engine.users().len(), 50, "no partial insert applied");
        assert_eq!(top_k(&mut engine, 8), top_before);
        // Out-of-bounds insert likewise.
        let batch = vec![Update::Insert(Trajectory::two_point(
            p(1.0, 1.0),
            p(200.0, 2.0),
        ))];
        assert_eq!(
            engine.apply(&batch).unwrap_err(),
            EngineError::Update(UpdateError::OutOfBounds { index: 0 })
        );
        // Double-remove within one batch.
        let batch = vec![Update::Remove(3), Update::Remove(3)];
        assert_eq!(
            engine.apply(&batch).unwrap_err(),
            EngineError::Update(UpdateError::NotLive { index: 1, id: 3 })
        );
        assert_eq!(engine.stats().batches, 0);
    }

    #[test]
    fn untouched_facilities_do_no_work() {
        // Users and facility A in one corner, facility B far away: a batch
        // near A must leave B untouched.
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(5.0, 5.0), p(8.0, 5.0))]);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(5.0, 6.0), p(8.0, 6.0)]),
            Facility::new(vec![p(90.0, 90.0), p(95.0, 90.0)]),
        ]);
        let mut engine = warmed(
            users,
            facilities,
            ServiceModel::new(Scenario::Transit, 2.0),
            TqTreeConfig::default(),
        );
        engine
            .apply(&[Update::Insert(Trajectory::two_point(
                p(5.5, 5.0),
                p(7.5, 5.0),
            ))])
            .unwrap();
        assert_eq!(engine.stats().facilities_untouched, 1);
        assert_eq!(engine.stats().facilities_patched, 1);
        let values = &engine.full_table().unwrap().values;
        assert_eq!(values[0], 2.0);
        assert_eq!(values[1], 0.0);
        assert!(engine.stats().untouched_fraction() == 0.5);
    }

    #[test]
    fn batch_insert_then_remove_same_id_nets_out() {
        let mut engine = warmed(
            random_users(40, 95),
            random_facilities(6, 96),
            ServiceModel::new(Scenario::Transit, 5.0),
            TqTreeConfig::default(),
        );
        let top_before = top_k(&mut engine, 6);
        // The arriving trajectory gets id 40 and expires within the batch.
        let t = Trajectory::two_point(p(50.0, 50.0), p(55.0, 50.0));
        let out = engine
            .apply(&[Update::Insert(t), Update::Remove(40)])
            .unwrap();
        assert_eq!(out.inserted, vec![40]);
        assert_eq!(out.removed, 1);
        assert_eq!(engine.live_users(), 40);
        assert_eq!(top_k(&mut engine, 6), top_before);
    }
}
