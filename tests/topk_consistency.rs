//! kMaxRRST consistency across all three methods and against exhaustive
//! evaluation, plus best-first-specific guarantees.

use tq::baseline::BaselineIndex;
use tq::core::tqtree::{Placement, Storage, TqTreeConfig};
use tq::core::{brute_force_value, top_k_facilities};
use tq::prelude::*;

fn setup() -> (UserSet, FacilitySet, ServiceModel) {
    let c = CityModel::synthetic(202, 9, 9_000.0);
    let users = taxi_trips(&c, 4_000, 11);
    let routes = bus_routes(&c, 40, 12, 3_500.0, 12);
    (users, routes, ServiceModel::new(Scenario::Transit, 200.0))
}

#[test]
fn all_methods_return_identical_topk_values() {
    let (users, routes, model) = setup();
    let bl = BaselineIndex::build(&users);
    let want: Vec<f64> = bl
        .top_k(&users, &model, &routes, 10)
        .ranked
        .iter()
        .map(|(_, v)| *v)
        .collect();
    for storage in [Storage::Basic, Storage::ZOrder] {
        let tree = TqTree::build(
            &users,
            TqTreeConfig {
                beta: 32,
                storage,
                placement: Placement::TwoPoint,
                max_depth: 14,
            },
        );
        let got: Vec<f64> = top_k_facilities(&tree, &users, &model, &routes, 10)
            .ranked
            .iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{storage:?}: {g} vs {w}");
        }
    }
}

#[test]
fn topk_values_match_per_facility_oracle() {
    let (users, routes, model) = setup();
    let tree = TqTree::build(&users, TqTreeConfig::default());
    let out = top_k_facilities(&tree, &users, &model, &routes, 5);
    for (id, v) in &out.ranked {
        let oracle = brute_force_value(&users, &model, routes.get(*id));
        assert!((v - oracle).abs() < 1e-9, "facility {id}");
    }
    // No facility outside the top-k may beat the k-th value.
    let kth = out.ranked.last().unwrap().1;
    for (id, f) in routes.iter() {
        if !out.ranked.iter().any(|(rid, _)| *rid == id) {
            assert!(
                brute_force_value(&users, &model, f) <= kth + 1e-9,
                "facility {id} should have been in the top-k"
            );
        }
    }
}

#[test]
fn topk_across_scenarios_and_placements() {
    let c = CityModel::synthetic(203, 8, 8_000.0);
    let users = checkins(&c, 1_500, 21);
    let routes = bus_routes(&c, 16, 10, 3_000.0, 22);
    for placement in [Placement::Segmented, Placement::FullTrajectory] {
        for scenario in Scenario::ALL {
            let model = ServiceModel::new(scenario, 220.0);
            let tree = TqTree::build(
                &users,
                TqTreeConfig::z_order(placement).with_beta(16),
            );
            let got = top_k_facilities(&tree, &users, &model, &routes, 4);
            let mut want: Vec<f64> = routes
                .iter()
                .map(|(_, f)| brute_force_value(&users, &model, f))
                .collect();
            want.sort_by(|a, b| b.total_cmp(a));
            for (i, (_, v)) in got.ranked.iter().enumerate() {
                assert!(
                    (v - want[i]).abs() < 1e-9,
                    "{placement:?}/{scenario:?} rank {i}: {v} vs {}",
                    want[i]
                );
            }
        }
    }
}

#[test]
fn inserts_keep_queries_exact() {
    // Build from a prefix, insert the rest dynamically, and verify the
    // incremental index answers exactly like a bulk-built one.
    let c = CityModel::synthetic(204, 8, 8_000.0);
    let all = taxi_trips(&c, 3_000, 31);
    let routes = bus_routes(&c, 12, 10, 3_000.0, 32);
    let model = ServiceModel::new(Scenario::Transit, 200.0);

    let mut users = all.truncated(2_000);
    let mut tree = TqTree::build_with_bounds(
        &users,
        TqTreeConfig::default().with_beta(16),
        all.mbr().unwrap().expand(1.0),
    );
    for (_, t) in all.iter().skip(2_000) {
        tree.insert(&mut users, t.clone()).unwrap();
    }
    tree.validate(&users).unwrap();

    let bulk = TqTree::build(&all, TqTreeConfig::default().with_beta(16));
    let got = top_k_facilities(&tree, &users, &model, &routes, 6);
    let want = top_k_facilities(&bulk, &all, &model, &routes, 6);
    for ((_, g), (_, w)) in got.ranked.iter().zip(&want.ranked) {
        assert!((g - w).abs() < 1e-9);
    }
}

/// The TQ-tree's pruning on the benchmark's own state, pinned as exact
/// integer totals.
///
/// `loadgen` reports `core.eval.{nodes,tested,pruned,dist_checks}_per_miss`,
/// `core.eval.prune_ratio` and `core.topk.relaxations_per_miss` from its
/// *warmed* node, where a restricted-candidate query is a projection of the
/// full table and searches nothing — those rows read 0 there. The search
/// still answers every unwarmed engine, so its work is held here instead:
/// an unwarmed engine over the benchmark's state (`ny_city`, 20 000 trips,
/// 128 routes of 16 stops, state seed `0x9A5`, Transit ψ = 200 m, TQ(Z)
/// β = 64) asked the benchmark's questions (`top_k(8)` and greedy
/// `max_cov(4)` over 64 seeded 24-candidate subsets, drawn as
/// `loadgen --seed 11` draws them). A change that prunes less — or visits,
/// tests or relaxes more — moves a total; one that prunes more should
/// re-record them and say so.
#[test]
fn pruning_on_the_benchmark_state_is_pinned() {
    const STATE_SEED: u64 = 0x9A5;
    let city = presets::ny_city();
    let engine = Engine::builder(ServiceModel::new(Scenario::Transit, presets::DEFAULT_PSI))
        .users(taxi_trips(&city, 20_000, STATE_SEED))
        .facilities(bus_routes(&city, 128, 16, presets::ROUTE_LENGTH, STATE_SEED ^ 0xB05))
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(64))
        .bounds(city.bounds)
        .build()
        .unwrap();
    let snap = engine.snapshot();
    assert!(snap.full_table().is_none(), "the pinned work is the unwarmed engine's");

    // splitmix64 behind a Fisher–Yates shuffle, as in the benchmark's `Mix`.
    let mut state = 11u64 ^ 0x5B5E_7500;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    // (nodes, tested, pruned, distance checks, relaxations) per family.
    let mut totals = [(0, 0, 0, 0, 0); 2];
    for _ in 0..64 {
        let mut ids: Vec<u32> = (0..128).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, below(i + 1));
        }
        ids.truncate(24);
        for (total, query) in totals.iter_mut().zip([Query::top_k(8), Query::max_cov(4)]) {
            let explain = snap.run(query.candidates(&ids).threads(1)).unwrap().explain;
            assert_ne!(explain.cache, CacheStatus::Hit);
            total.0 += explain.eval.nodes_visited;
            total.1 += explain.eval.items_tested;
            total.2 += explain.eval.items_pruned;
            total.3 += explain.eval.distance_checks;
            total.4 += explain.relaxations;
        }
    }
    // Per query (÷ 64), top-k: 286.8 nodes, 2 704 tested, 99 941 pruned,
    // 25 272 distance checks, 106.7 relaxations — every state the search
    // touched, ranked or not. Max-cov: 306.3 nodes, 19 879 tested,
    // 166 170 pruned, 187 598 distance checks; it evaluates all 24
    // candidates to the end, so no unfinished state is left to count.
    assert_eq!(
        totals,
        [
            (18_352, 173_024, 6_396_199, 1_617_433, 6_829),
            (19_600, 1_272_274, 10_634_861, 12_006_300, 0),
        ]
    );
}
