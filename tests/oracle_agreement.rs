//! Cross-crate ground-truth agreement, exercised **entirely through the
//! unified `Engine`/`Query` API**: every backend/configuration combination
//! must produce *exactly* the service values and masks of the brute-force
//! oracle on realistic synthetic workloads. This is the central correctness
//! contract — the TQ-tree (and the engine in front of it) is an
//! accelerator, never an approximation.

use tq::core::tqtree::{Storage, TqTreeConfig};
use tq::core::{brute_force_masks, brute_force_value};
use tq::prelude::*;

fn city() -> CityModel {
    CityModel::synthetic(101, 10, 8_000.0)
}

/// Oracle reference: every facility's brute-force value, sorted best-first
/// (ties by ascending facility id — the engine's documented order).
fn oracle_ranking(users: &UserSet, model: &ServiceModel, routes: &FacilitySet) -> Vec<f64> {
    let mut vals: Vec<(u32, f64)> = routes
        .iter()
        .map(|(id, f)| (id, brute_force_value(users, model, f)))
        .collect();
    vals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    vals.into_iter().map(|(_, v)| v).collect()
}

/// Asserts that a full-k top-k answer through the engine matches the
/// brute-force oracle ranking for every rank.
fn assert_engine_matches_oracle(
    engine: &mut Engine,
    users: &UserSet,
    model: &ServiceModel,
    routes: &FacilitySet,
    label: &str,
) {
    let answer = engine.run(Query::top_k(routes.len())).expect(label);
    let want = oracle_ranking(users, model, routes);
    assert_eq!(answer.ranked().len(), want.len(), "{label}: rank count");
    for (i, ((_, got), want)) in answer.ranked().iter().zip(&want).enumerate() {
        assert!(
            (got - want).abs() < 1e-9,
            "{label} rank {i}: {got} vs {want}"
        );
    }
}

#[test]
fn two_point_trips_all_variants_match_oracle() {
    let c = city();
    let users = taxi_trips(&c, 3_000, 1);
    let routes = bus_routes(&c, 12, 14, 3_000.0, 2);
    for storage in [Storage::Basic, Storage::ZOrder] {
        for scenario in Scenario::ALL {
            let model = ServiceModel::new(scenario, 180.0);
            let cfg = TqTreeConfig {
                beta: 16,
                storage,
                placement: Placement::TwoPoint,
                max_depth: 14,
            };
            let mut engine = Engine::builder(model)
                .users(users.clone())
                .facilities(routes.clone())
                .tree_config(cfg)
                .build()
                .unwrap();
            assert_engine_matches_oracle(
                &mut engine,
                &users,
                &model,
                &routes,
                &format!("{storage:?}/{scenario:?}"),
            );
        }
    }
}

#[test]
fn multipoint_checkins_all_variants_match_oracle() {
    let c = city();
    let users = checkins(&c, 2_000, 3);
    let routes = bus_routes(&c, 8, 12, 3_000.0, 4);
    for placement in [Placement::Segmented, Placement::FullTrajectory] {
        for storage in [Storage::Basic, Storage::ZOrder] {
            for scenario in Scenario::ALL {
                let model = ServiceModel::new(scenario, 200.0);
                let cfg = TqTreeConfig {
                    beta: 16,
                    storage,
                    placement,
                    max_depth: 14,
                };
                let mut engine = Engine::builder(model)
                    .users(users.clone())
                    .facilities(routes.clone())
                    .tree_config(cfg)
                    .build()
                    .unwrap();
                assert_engine_matches_oracle(
                    &mut engine,
                    &users,
                    &model,
                    &routes,
                    &format!("{placement:?}/{storage:?}/{scenario:?}"),
                );
            }
        }
    }
}

#[test]
fn gps_traces_segmented_match_oracle() {
    let c = city();
    let users = gps_traces(&c, 400, 5);
    let routes = bus_routes(&c, 6, 16, 4_000.0, 6);
    let model = ServiceModel::new(Scenario::Length, 250.0);
    let mut engine = Engine::builder(model)
        .users(users.clone())
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(Placement::Segmented).with_beta(32))
        .build()
        .unwrap();
    assert_engine_matches_oracle(&mut engine, &users, &model, &routes, "gps/segmented");
}

/// The per-facility masks behind both backends — surfaced through each
/// engine's warmed [`ServedTable`] — must equal the oracle masks
/// bit-for-bit (the MaxkCovRST `AGG` union depends on it).
#[test]
fn baseline_masks_equal_tqtree_masks_equal_oracle() {
    let c = city();
    let users = taxi_trips(&c, 2_000, 7);
    let routes = bus_routes(&c, 10, 10, 3_000.0, 8);
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let mut tq_engine = Engine::builder(model)
        .users(users.clone())
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::default().with_beta(16))
        .build()
        .unwrap();
    let mut bl_engine = Engine::builder(model)
        .users(users.clone())
        .facilities(routes.clone())
        .baseline()
        .build()
        .unwrap();
    let tq_table = tq_engine.warm().clone();
    let bl_table = bl_engine.warm();
    for (fi, (_, f)) in routes.iter().enumerate() {
        let want = brute_force_masks(&users, &model, f);
        let from_tq = &tq_table.masks[fi];
        let from_bl = &bl_table.masks[fi];
        assert_eq!(from_bl.len(), want.len());
        assert_eq!(from_tq.len(), want.len());
        for (id, m) in &want {
            assert_eq!(from_bl.get(*id), Some(m.view()), "baseline mask for user {id}");
            assert_eq!(from_tq.get(*id), Some(m.view()), "tq-tree mask for user {id}");
        }
        assert_eq!(
            tq_table.values[fi].to_bits(),
            bl_table.values[fi].to_bits(),
            "facility {fi} value across backends"
        );
    }
}

#[test]
fn psi_zero_and_huge_psi_edge_cases() {
    let c = city();
    let users = taxi_trips(&c, 500, 9);
    let routes = bus_routes(&c, 4, 8, 2_000.0, 10);
    // ψ = 0: only exact coincidences are served (value 0 in practice).
    let zero = ServiceModel::new(Scenario::Transit, 0.0);
    let mut engine = Engine::builder(zero)
        .users(users.clone())
        .facilities(routes.clone())
        .build()
        .unwrap();
    assert_engine_matches_oracle(&mut engine, &users, &zero, &routes, "psi=0");
    // ψ larger than the city: every facility serves every user.
    let huge = ServiceModel::new(Scenario::Transit, 1e6);
    let mut engine = Engine::builder(huge)
        .users(users.clone())
        .facilities(routes.clone())
        .build()
        .unwrap();
    let answer = engine.run(Query::top_k(routes.len())).unwrap();
    for (_, v) in answer.ranked() {
        assert_eq!(*v, users.len() as f64);
    }
}
