//! Dynamic-workload equivalence: after **every** batch of a seeded
//! arrival/expiry event trace, a warmed [`Engine`]'s kMaxRRST top-k and
//! greedy MaxkCovRST answers must be **bit-identical** to building a fresh
//! TQ-tree over the live trajectories and querying it from scratch.
//!
//! Three presets are exercised (NYT-like taxi trips, NYF-like check-ins,
//! BJG-like GPS traces), each paired with a different service scenario so
//! all three value semantics cross the incremental path, with ≥ 200 events
//! per preset.

use tq::core::maxcov::{greedy, ServedTable};
use tq::core::top_k_facilities;
use tq::datagen::{bus_routes, stream_scenario, StreamEvent, StreamKind};
use tq::prelude::*;

const EVENTS: usize = 240;
const BATCH: usize = 40;
const INITIAL: usize = 1_200;
const K: usize = 10;
const COVER_K: usize = 4;

/// A TQ-tree engine with its full-facility table warmed, so every batch
/// maintains that table incrementally.
fn warmed_engine(
    trace: &StreamScenario,
    routes: &FacilitySet,
    model: ServiceModel,
    tree_cfg: TqTreeConfig,
) -> Engine {
    let mut engine = Engine::builder(model)
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .tree_config(tree_cfg)
        .bounds(trace.bounds)
        .build()
        .expect("generated traces start inside their bounds");
    engine.warm();
    engine
}

/// The maintained table's top-k: a memo hit, never a fresh search.
fn maintained_top_k(engine: &mut Engine, k: usize) -> Vec<(u32, f64)> {
    let answer = engine.run(Query::top_k(k)).unwrap();
    assert!(answer.explain.cache.is_hit());
    answer.ranked().to_vec()
}

/// Runs one preset end to end, checking both query families after every
/// batch.
fn check_preset(
    kind: StreamKind,
    scenario: Scenario,
    placement: Placement,
    city: CityModel,
    seed: u64,
) {
    let trace = stream_scenario(&city, kind, INITIAL, EVENTS, 0.5, seed);
    let routes = bus_routes(&city, 32, 8, 14_000.0, seed ^ 0xFACE);
    let model = ServiceModel::new(scenario, 200.0);
    let tree_cfg = TqTreeConfig::z_order(placement).with_beta(32);
    let mut engine = warmed_engine(&trace, &routes, model, tree_cfg);

    let mut batches_checked = 0;
    for chunk in trace.events.chunks(BATCH) {
        let updates: Vec<Update> = chunk
            .iter()
            .map(|e| match e {
                StreamEvent::Arrive(t) => Update::Insert(t.clone()),
                StreamEvent::Expire(id) => Update::Remove(*id),
            })
            .collect();
        engine.apply(&updates).expect("generated traces are valid");

        // Fresh build over the live set (`live_set` documents why the id
        // compaction preserves the canonical value summation order).
        let live = engine.live_set();
        assert_eq!(live.len(), engine.live_users());
        let fresh_tree = TqTree::build_with_bounds(&live, tree_cfg, trace.bounds);

        // kMaxRRST: identical facility ranking, bit-identical values.
        let got = maintained_top_k(&mut engine, K);
        let want = top_k_facilities(&fresh_tree, &live, &model, &routes, K).ranked;
        assert_eq!(got.len(), want.len());
        for (i, ((gid, gv), (wid, wv))) in got.iter().zip(&want).enumerate() {
            assert_eq!(gid, wid, "{kind:?}/{scenario:?} rank {i}: facility id");
            assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "{kind:?}/{scenario:?} rank {i}: value {gv} vs {wv}"
            );
        }

        // Greedy MaxkCovRST: identical chosen set, bit-identical combined
        // value, identical served-user count.
        let got_cov = engine.run(Query::max_cov(COVER_K)).unwrap().cover().clone();
        let fresh_table = ServedTable::build(&fresh_tree, &live, &model, &routes);
        let want_cov = greedy(&fresh_table, &live, &model, COVER_K);
        assert_eq!(got_cov.chosen, want_cov.chosen, "{kind:?}/{scenario:?}");
        assert_eq!(
            got_cov.value.to_bits(),
            want_cov.value.to_bits(),
            "{kind:?}/{scenario:?}: {} vs {}",
            got_cov.value,
            want_cov.value
        );
        assert_eq!(got_cov.users_served, want_cov.users_served);

        // The maintained per-facility masks equal the fresh ones up to the
        // monotone id compaction: compare sizes and values.
        let table = engine.full_table().expect("warmed at construction");
        assert_eq!(table.values.len(), fresh_table.values.len());
        for (fi, (gv, wv)) in table.values.iter().zip(&fresh_table.values).enumerate() {
            assert_eq!(
                gv.to_bits(),
                wv.to_bits(),
                "{kind:?}/{scenario:?} facility {fi} table value"
            );
            assert_eq!(table.masks[fi].len(), fresh_table.masks[fi].len());
        }
        batches_checked += 1;
    }
    assert_eq!(batches_checked, EVENTS / BATCH);
    let stats = engine.stats();
    assert_eq!(stats.inserts + stats.removes, EVENTS as u64);
}

#[test]
fn nyt_taxi_transit_bit_identical() {
    check_preset(
        StreamKind::Taxi,
        Scenario::Transit,
        Placement::TwoPoint,
        tq::datagen::presets::ny_city(),
        11,
    );
}

#[test]
fn nyf_checkins_pointcount_bit_identical() {
    check_preset(
        StreamKind::Checkins,
        Scenario::PointCount,
        Placement::Segmented,
        tq::datagen::presets::ny_city(),
        22,
    );
}

#[test]
fn bjg_gps_length_bit_identical() {
    check_preset(
        StreamKind::Gps,
        Scenario::Length,
        Placement::FullTrajectory,
        tq::datagen::presets::bj_city(),
        33,
    );
}

/// The engine must also stay bit-identical under a batch heavy enough
/// that some facility meets more relevant deltas than a quarter of the
/// live set — where patching is still the one maintenance path. The trace
/// is replayed as one bulk batch: the engine starts from the first
/// `START` initial trips, and the batch carries the remaining ones (which
/// keep their ids) followed by the trace's own events. Heaviness is read
/// off the trace, per facility: a delta is relevant when its MBR meets the
/// facility's ψ-expanded EMBR.
#[test]
fn heavy_batch_patches_bit_identical() {
    const START: usize = 50;
    let city = tq::datagen::presets::ny_city();
    let trace = stream_scenario(&city, StreamKind::Taxi, 800, 200, 0.5, 44);
    let routes = bus_routes(&city, 24, 8, 14_000.0, 45);
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let tree_cfg = TqTreeConfig::default().with_beta(32);
    let start = StreamScenario {
        initial: UserSet::from_vec(
            trace
                .initial
                .iter()
                .take(START)
                .map(|(_, t)| t.clone())
                .collect(),
        ),
        events: Vec::new(),
        bounds: trace.bounds,
    };
    let mut engine = warmed_engine(&start, &routes, model, tree_cfg);

    // Every trip the trace names, by id: the initial ones, then the
    // arrivals in event order.
    let trips: Vec<Trajectory> = trace
        .initial
        .iter()
        .map(|(_, t)| t.clone())
        .chain(trace.events.iter().filter_map(|e| match e {
            StreamEvent::Arrive(t) => Some(t.clone()),
            StreamEvent::Expire(_) => None,
        }))
        .collect();
    let batch: Vec<Update> = trips[START..trace.initial.len()]
        .iter()
        .map(|t| Update::Insert(t.clone()))
        .chain(trace.events.iter().map(StreamEvent::to_update))
        .collect();
    let live = trace.initial.len() + trace.arrivals() - trace.expiries();
    let quarter = (0.25 * live as f64).ceil() as usize;
    let heaviest = routes
        .iter()
        .map(|(_, route)| {
            let embr = route.embr(model.psi);
            batch
                .iter()
                .filter(|u| {
                    let mbr = match u {
                        Update::Insert(t) => t.mbr(),
                        Update::Remove(id) => trips[*id as usize].mbr(),
                    };
                    embr.intersects(&mbr)
                })
                .count()
        })
        .max()
        .unwrap();
    assert!(
        heaviest > quarter,
        "setup: {heaviest} relevant deltas, a quarter is {quarter}"
    );

    engine.apply(&batch).expect("generated traces are valid");
    assert_eq!(engine.live_users(), live);
    let live_set = engine.live_set();
    let fresh_tree = TqTree::build_with_bounds(&live_set, tree_cfg, trace.bounds);
    let want = top_k_facilities(&fresh_tree, &live_set, &model, &routes, 8).ranked;
    for ((gid, gv), (wid, wv)) in maintained_top_k(&mut engine, 8).iter().zip(&want) {
        assert_eq!(gid, wid);
        assert_eq!(gv.to_bits(), wv.to_bits());
    }
    let fresh_table = ServedTable::build(&fresh_tree, &live_set, &model, &routes);
    let table = engine.full_table().expect("warmed at construction");
    for (fi, (gv, wv)) in table.values.iter().zip(&fresh_table.values).enumerate() {
        assert_eq!(gv.to_bits(), wv.to_bits(), "facility {fi} table value");
        assert_eq!(table.masks[fi].len(), fresh_table.masks[fi].len());
    }
}
