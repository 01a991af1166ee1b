//! Property test of [`ServedTable::project`] and of the query path that
//! rests on it, against the cold path it stands in for.
//!
//! A *warmed* engine (its snapshots carry the full-facility table, kept in
//! sync by every `apply`) answers a restricted-candidate query from a
//! projection of that table. The oracle is an *unwarmed* twin fed the same
//! batches, which has nothing to project and so runs the paper's algorithms:
//! a per-candidate evaluation through the index for a table, the best-first
//! search over a sub-`FacilitySet` for a top-k. Whatever the seed draws, on
//! every backend, placement and scenario, before and after every batch and
//! on a sharded front as on a plain engine:
//!
//! * `full.project(key)` is the unwarmed index's `served_table(key)` — ids,
//!   value **bits**, every entry of every column — sharing the full table's
//!   columns and having evaluated nothing;
//! * a projected top-k is the built table's ranking and — see the caveat —
//!   the search's ranked list (ids, bits, tie order), and a projected cover
//!   is the built table's cover;
//! * the comparison can fail: the previous epoch's table, projected, is
//!   *not* the current build wherever the batch changed a column.
//!
//! **The caveat, found by this test.** The best-first search orders its
//! heap by a facility's *running* sum (accumulated in visit order) and only
//! reports the canonical fold, so under the fractional scenarios two
//! facilities whose values agree to the last few ulps can leave the search
//! in the other order than their reported values — it then disagrees with
//! *any* ranking of a table, memo hits included. That is the search's
//! property, not the projection's, so where two candidates of a key are
//! that close (and are not copies of one route, which tie exactly in both)
//! the search is not consulted and the ranking of the built table is the
//! only oracle; everywhere else both are.

use super::{Column, ServedTable};
use crate::dynamic::Update;
use crate::engine::session::rank_table;
use crate::engine::{
    Algorithm, Answer, CacheStatus, Engine, EngineBuilder, Query, QueryResult, Snapshot,
};
use crate::eval::EvalStats;
use crate::service::{Scenario, ServiceModel};
use crate::tqtree::{Placement, TqTreeConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use tq_geometry::{Point, Rect};
use tq_trajectory::{Facility, FacilityId, FacilitySet, Trajectory, TrajectoryId, UserSet};

const EXTENT: f64 = 1_000.0;
const PSI: f64 = 90.0;
const PLACEMENTS: [Placement; 3] = [
    Placement::TwoPoint,
    Placement::Segmented,
    Placement::FullTrajectory,
];

/// The three index families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// TQ(B): one unordered list per q-node.
    Basic,
    /// TQ(Z): z-ordered β-buckets.
    ZOrder,
    /// BL: the static point quadtree.
    Baseline,
}

const FAMILIES: [Family; 3] = [Family::Basic, Family::ZOrder, Family::Baseline];

/// Candidate subsets drawn per warmed snapshot and state.
const KEYS: usize = 4;

/// A walk of 2–5 points with short legs, so trips are local and a route
/// serves some of their points but rarely all.
fn random_trip(rng: &mut StdRng) -> Trajectory {
    let mut at = Point::new(rng.gen_range(0.0..EXTENT), rng.gen_range(0.0..EXTENT));
    let points = (0..rng.gen_range(2..=5))
        .map(|_| {
            let here = at;
            at = Point::new(
                (at.x + rng.gen_range(-120.0..120.0)).clamp(0.0, EXTENT - 1.0),
                (at.y + rng.gen_range(-120.0..120.0)).clamp(0.0, EXTENT - 1.0),
            );
            here
        })
        .collect();
    Trajectory::new(points)
}

/// Eight routes of 2–4 stops plus a copy of route 0, whose value ties with
/// the original's in every state — tie order is part of the contract.
fn random_routes(rng: &mut StdRng) -> FacilitySet {
    let mut routes: Vec<Facility> = (0..8)
        .map(|_| {
            Facility::new(
                (0..rng.gen_range(2..=4))
                    .map(|_| Point::new(rng.gen_range(0.0..EXTENT), rng.gen_range(0.0..EXTENT)))
                    .collect(),
            )
        })
        .collect();
    routes.push(routes[0].clone());
    FacilitySet::from_vec(routes)
}

fn builder(
    family: Family,
    placement: Placement,
    model: ServiceModel,
    users: &UserSet,
    routes: &FacilitySet,
) -> EngineBuilder {
    let b = Engine::builder(model)
        .users(users.clone())
        .facilities(routes.clone())
        .bounds(Rect::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)));
    match family {
        Family::Basic => b.tree_config(TqTreeConfig::basic(placement).with_beta(8)),
        Family::ZOrder => b.tree_config(TqTreeConfig::z_order(placement).with_beta(8)),
        Family::Baseline => b.baseline(),
    }
}

/// Arrivals, expiries of live ids, and one trip that arrives and expires
/// within the batch.
fn random_batch(rng: &mut StdRng, users: &UserSet) -> Vec<Update> {
    let mut live: Vec<TrajectoryId> = users.iter().map(|(id, _)| id).collect();
    let mut batch: Vec<Update> = (0..rng.gen_range(5..25))
        .map(|_| Update::Insert(random_trip(rng)))
        .collect();
    let ephemeral = users.len() as TrajectoryId + rng.gen_range(0..batch.len()) as TrajectoryId;
    for _ in 0..rng.gen_range(3..15).min(live.len()) {
        batch.push(Update::Remove(
            live.swap_remove(rng.gen_range(0..live.len())),
        ));
    }
    batch.insert(
        rng.gen_range(batch.len() - 2..=batch.len()),
        Update::Remove(ephemeral),
    );
    batch
}

/// A sorted, duplicate-free, non-empty proper subset of `0..n`.
fn random_key(rng: &mut StdRng, n: usize) -> Vec<FacilityId> {
    loop {
        let keep = rng.gen_range(0.2..0.9);
        let key: Vec<FacilityId> = (0..n as FacilityId)
            .filter(|_| rng.gen_bool(keep))
            .collect();
        if !key.is_empty() && key.len() < n {
            return key;
        }
    }
}

/// Ids, value bits, and every entry of every column.
///
/// `anchors_only` is the one combination where a column is not a function
/// of the state: under [`Scenario::Transit`] only a trip's two end points
/// carry value, and a [`Placement::FullTrajectory`] tree prunes by them
/// (`eval.rs`, `ReduceMode::Either`), so whether an interior point that
/// happens to be in reach is recorded depends on the list it was met in —
/// a z-pruned one, a scanned one, or `apply`'s patch. There the entries are
/// compared by what a value can depend on: the two end bits, entries with
/// neither dropped.
fn same_table(got: &ServedTable, want: &ServedTable, anchors_only: bool) -> bool {
    let bits = |t: &ServedTable| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let entries = |c: &Column| -> Vec<(TrajectoryId, Vec<bool>)> {
        c.iter()
            .map(|(id, m)| {
                let m = m.to_mask();
                let served: Vec<bool> = (0..m.nbits()).map(|i| m.get(i)).collect();
                if anchors_only {
                    (id, vec![served[0], served[served.len() - 1]])
                } else {
                    (id, served)
                }
            })
            .filter(|(_, served)| !anchors_only || served.contains(&true))
            .collect()
    };
    got.ids == want.ids
        && bits(got) == bits(want)
        && got.masks.len() == want.masks.len()
        && got.masks.iter().zip(&want.masks).all(|(g, w)| {
            (anchors_only || g == w)
                && g.value().to_bits() == w.value().to_bits()
                && entries(g) == entries(w)
        })
}

/// Ids, value bits and order of a ranked list; choice, value bits and
/// served count of a cover.
fn same_result(got: &Answer, want: &Answer) -> bool {
    match (&got.result, &want.result) {
        (QueryResult::TopK(g), QueryResult::TopK(w)) => {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
        }
        (QueryResult::MaxCov(g), QueryResult::MaxCov(w)) => {
            g.chosen == w.chosen
                && g.value.to_bits() == w.value.to_bits()
                && g.users_served == w.users_served
        }
        _ => false,
    }
}

fn anchors_only(snap: &Snapshot) -> bool {
    snap.model().scenario == Scenario::Transit
        && snap
            .tree()
            .is_some_and(|t| t.config().placement == Placement::FullTrajectory)
}

/// Whether the best-first search's order over `table` is decided by more
/// than rounding: every two candidates either differ beyond a few ulps or
/// are copies of one route (see the module docs).
fn search_is_decisive(table: &ServedTable, routes: &FacilitySet) -> bool {
    (0..table.len()).all(|i| {
        (0..i).all(|j| {
            let (a, b) = (table.values[i], table.values[j]);
            (a - b).abs() > 1e-9 * a.abs().max(b.abs()).max(1.0)
                || routes.get(table.ids[i]).stops() == routes.get(table.ids[j]).stops()
        })
    })
}

/// Every property of the module docs, for keys drawn from `rng`, between
/// one warmed snapshot and the unwarmed snapshot of the same state. Returns
/// how many of the keys had the search consulted.
fn assert_projects_like_the_cold_path(
    rng: &mut StdRng,
    warmed: &Snapshot,
    cold: &Snapshot,
    what: &str,
) -> usize {
    let full = warmed
        .full
        .as_ref()
        .expect("the warmed side carries the full table");
    assert!(cold.full.is_none(), "{what}: the oracle must stay unwarmed");
    let n = cold.facilities().len();
    let anchors_only = anchors_only(cold);
    let mut searched = 0;
    for _ in 0..KEYS {
        let key = random_key(rng, n);
        let built = cold.backend().as_index().served_table(
            cold.users(),
            cold.model(),
            cold.facilities(),
            &key,
        );
        let projected = full.project(&key);
        assert!(
            same_table(&projected, &built, anchors_only),
            "{what}: table over {key:?}"
        );
        assert_eq!(
            projected.stats,
            EvalStats::default(),
            "{what}: a projection evaluated"
        );
        for (column, &id) in projected.masks.iter().zip(&key) {
            assert!(
                Arc::ptr_eq(column, &full.masks[id as usize]),
                "{what}: column {id} was copied"
            );
        }

        let k = rng.gen_range(1..=key.len());
        let top = Query::top_k(k).candidates(&key);
        let ranked = warmed.run(top.clone()).unwrap();
        assert_eq!(
            ranked
                .ranked()
                .iter()
                .map(|(id, v)| (*id, v.to_bits()))
                .collect::<Vec<_>>(),
            rank_table(&built, k)
                .iter()
                .map(|(id, v)| (*id, v.to_bits()))
                .collect::<Vec<_>>(),
            "{what}: ranking over {key:?}"
        );

        // The two-step cover's pool is a top-k′, so it leans on the search
        // as the top-k itself does; the plain cover never does.
        let decisive = search_is_decisive(&built, cold.facilities());
        searched += usize::from(decisive);
        let two_step = Query::max_cov(k)
            .candidates(&key)
            .algorithm(Algorithm::TwoStep)
            .k_prime(rng.gen_range(k..=key.len()));
        for (q, through_search) in [
            (top, true),
            (two_step, true),
            (Query::max_cov(k).candidates(&key), false),
        ] {
            let got = warmed.run(q.clone()).unwrap();
            assert_eq!(got.explain.cache, CacheStatus::Miss, "{what}: {q:?}");
            assert_eq!(got.explain.eval, EvalStats::default(), "{what}: {q:?}");
            assert_eq!(got.explain.relaxations, 0, "{what}: {q:?}");
            if through_search && !decisive {
                continue;
            }
            let want = cold.run(q.clone()).unwrap();
            assert!(
                same_result(&got, &want),
                "{what}: {q:?}\n got {got:?}\nwant {want:?}"
            );
            assert_ne!(
                want.explain.cache,
                CacheStatus::Hit,
                "{what}: the oracle hit a memo"
            );
        }
    }
    searched
}

/// What a combination's run adds to its case's tallies.
#[derive(Default)]
struct Tally {
    /// Keys checked, and how many of them had the search consulted.
    keys: usize,
    searched: usize,
    /// Batches after which the stale control ran (and held).
    stale_caught: usize,
}

/// One scenario × placement × backend family: an unwarmed oracle, a warmed
/// plain engine and warmed fronts of 1 / 2 / 4 shards, checked before and
/// after each of three batches (the baseline, a static index, before only).
fn check_combination(
    rng: &mut StdRng,
    tally: &mut Tally,
    what: &str,
    model: ServiceModel,
    placement: Placement,
    family: Family,
) {
    let users = UserSet::from_vec(
        (0..rng.gen_range(60..140))
            .map(|_| random_trip(rng))
            .collect(),
    );
    let routes = random_routes(rng);
    let build = || builder(family, placement, model, &users, &routes);

    let mut cold = build().build().unwrap();
    let mut plain = build().build().unwrap();
    plain.warm();
    let mut fronts: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let b = build().shards(shards);
            let b = if rng.gen_bool(0.5) {
                b.partition_by_space()
            } else {
                b
            };
            let mut front = b.build_sharded().unwrap();
            front.warm();
            (shards, front)
        })
        .collect();

    let batches = if family == Family::Baseline { 0 } else { 3 };
    for round in 0..=batches {
        let what = format!("{what} after {round} batches");
        tally.searched +=
            assert_projects_like_the_cold_path(rng, &plain.snapshot(), &cold.snapshot(), &what);
        for (shards, front) in &fronts {
            tally.searched += assert_projects_like_the_cold_path(
                rng,
                &front.snapshot(),
                &cold.snapshot(),
                &format!("{what}, {shards} shards"),
            );
        }
        tally.keys += KEYS * (1 + fronts.len());
        if round == batches {
            break;
        }

        let stale = plain.snapshot();
        let batch = random_batch(rng, cold.users());
        let ids = cold.apply(&batch).unwrap().inserted;
        assert_eq!(plain.apply(&batch).unwrap().inserted, ids);
        for (_, front) in &mut fronts {
            assert_eq!(front.apply(&batch).unwrap().inserted, ids);
        }

        // The comparator sees staleness: wherever this batch changed a
        // column, last epoch's projection is not this epoch's build. (An
        // interior bit alone is a change `anchors_only` cannot see.)
        let (old, new) = (stale.full.as_ref().unwrap(), plain.full_table().unwrap());
        let changed: Vec<FacilityId> = (0..old.len())
            .filter(|&i| old.masks[i] != new.masks[i])
            .map(|i| old.ids[i])
            .collect();
        let now = cold.snapshot();
        let anchors_only = anchors_only(&now);
        if !same_table(&old.project(&changed), &new.project(&changed), anchors_only) {
            let built = now.backend().as_index().served_table(
                now.users(),
                now.model(),
                now.facilities(),
                &changed,
            );
            assert!(
                same_table(&new.project(&changed), &built, anchors_only),
                "{what}"
            );
            assert!(
                !same_table(&old.project(&changed), &built, anchors_only),
                "{what}"
            );
            tally.stale_caught += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn projection_is_the_cold_path_on_every_backend_and_history(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut tally = Tally::default();
        for scenario in Scenario::ALL {
            for placement in PLACEMENTS {
                for family in FAMILIES {
                    let what = format!("seed {seed:#x} {scenario:?} {placement:?} {family:?}");
                    let model = ServiceModel::new(scenario, PSI);
                    check_combination(rng, &mut tally, &what, model, placement, family);
                }
            }
        }
        prop_assert!(tally.stale_caught > 0, "no batch changed a column: the control never ran");
        prop_assert!(
            2 * tally.searched > tally.keys,
            "the search was the oracle of only {} of {} keys",
            tally.searched,
            tally.keys
        );
    }
}
