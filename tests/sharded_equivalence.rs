//! Cross-shard equivalence: a [`ShardedEngine`] must answer **bit-identical**
//! to one [`Engine`] over the union of its shards' users — same top-k ids and
//! value bits, same max-cov choices / value bits / served counts for every
//! solver, and the same explain cache semantics — at every tested shard
//! count, across both backends, both partitioners and seeded scenarios.
//!
//! The merge argument being tested (see `tq_core::sharding`): masks are
//! per-user and users live on exactly one shard, so per-candidate tables are
//! disjoint unions; every reported value is a canonical ascending-id
//! summation, and shard-local ids are assigned in ascending global-id order,
//! so per-shard canonical orders merge back into the global canonical order.
//! Nothing here asserts approximate equality — every float is compared by
//! its bits.

use tq::prelude::*;

// ---------------------------------------------------------------------------
// Workload + fingerprints
// ---------------------------------------------------------------------------

fn small_workload(seed: u64, kind: StreamKind) -> (StreamScenario, FacilitySet) {
    let city = CityModel::synthetic(seed, 4, 4_000.0);
    let trace = stream_scenario(&city, kind, 70, 50, 0.4, seed);
    let routes = bus_routes(&city, 8, 6, 1_500.0, seed ^ 0xB05);
    (trace, routes)
}

fn tree_builder(
    model: ServiceModel,
    trace: &StreamScenario,
    routes: &FacilitySet,
) -> EngineBuilder {
    Engine::builder(model)
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(8))
        .bounds(trace.bounds)
}

fn baseline_builder(
    model: ServiceModel,
    trace: &StreamScenario,
    routes: &FacilitySet,
) -> EngineBuilder {
    Engine::builder(model)
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .baseline()
}

/// Every query family's answer reduced to exactly comparable bits, plus
/// the explain-level cache verdicts (the sharded front end must make the
/// same hit/miss/unused decisions the single engine makes, in the same
/// query order).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    top_k: Vec<(u32, u64)>,
    top_cache: String,
    /// Restricted-candidate top-k: never memoized. Until the first
    /// full-candidate cover warms the engine, the sharded front takes the
    /// sub-`FacilitySet` search through `ShardSet::top_k` (dense sub-ids
    /// mapped back to real ids); from then on both engines rank a
    /// projection of their full table.
    top_subset: Vec<(u32, u64)>,
    top_subset_cache: String,
    covers: Vec<(Vec<u32>, u64, usize, String)>,
}

/// A non-contiguous subset of the workload's 8 routes.
const SUBSET: [u32; 5] = [1, 2, 4, 5, 7];

fn ranked_bits(answer: &Answer) -> Vec<(u32, u64)> {
    answer
        .ranked()
        .iter()
        .map(|(id, v)| (*id, v.to_bits()))
        .collect()
}

fn fingerprint(run: &mut dyn FnMut(Query) -> Answer, full: bool) -> Fingerprint {
    let top = run(Query::top_k(3));
    let top_k = ranked_bits(&top);
    let top_cache = format!("{:?}", top.explain.cache);
    let sub = run(Query::top_k(3).candidates(&SUBSET));
    let top_subset = ranked_bits(&sub);
    let top_subset_cache = format!("{:?}", sub.explain.cache);
    let mut algorithms = vec![Algorithm::Greedy];
    if full {
        algorithms.extend([Algorithm::TwoStep, Algorithm::Genetic, Algorithm::Exact]);
    }
    let covers = algorithms
        .into_iter()
        .map(|alg| {
            let q = Query::max_cov(2)
                .algorithm(alg)
                .seed(0x5EED)
                .node_budget(200_000);
            let ans = run(q);
            let cache = format!("{:?}", ans.explain.cache);
            let c = ans.cover();
            (c.chosen.clone(), c.value.to_bits(), c.users_served, cache)
        })
        .collect();
    Fingerprint {
        top_k,
        top_cache,
        top_subset,
        top_subset_cache,
        covers,
    }
}

fn engine_fingerprint(engine: &mut Engine, full: bool) -> Fingerprint {
    fingerprint(&mut |q| engine.run(q).unwrap(), full)
}

fn sharded_fingerprint(engine: &mut ShardedEngine, full: bool) -> Fingerprint {
    fingerprint(&mut |q| engine.run(q).unwrap(), full)
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------------
// Static equivalence: shard counts × backends × partitioners × scenarios
// ---------------------------------------------------------------------------

#[test]
fn sharded_answers_are_bit_identical_across_counts_backends_and_partitioners() {
    for seed in [3u64, 29] {
        for scenario in [Scenario::Transit, Scenario::PointCount] {
            let model = ServiceModel::new(scenario, 220.0);
            let (trace, routes) = small_workload(seed, StreamKind::Taxi);
            for baseline in [false, true] {
                let builder = |spatial: bool| {
                    let b = if baseline {
                        baseline_builder(model, &trace, &routes)
                    } else {
                        tree_builder(model, &trace, &routes)
                    };
                    if spatial {
                        b.partition_by_space()
                    } else {
                        b
                    }
                };
                let mut single = builder(false).build().unwrap();
                let want = engine_fingerprint(&mut single, true);
                for shards in SHARD_COUNTS {
                    for spatial in [false, true] {
                        let mut sharded =
                            builder(spatial).shards(shards).build_sharded().unwrap();
                        assert_eq!(sharded.shard_count(), shards);
                        assert_eq!(
                            sharded.users().len(),
                            single.users().len(),
                            "partitioning lost users"
                        );
                        let got = sharded_fingerprint(&mut sharded, true);
                        assert_eq!(
                            got, want,
                            "{shards} shards, baseline={baseline}, spatial={spatial}, \
                             {scenario:?}, seed {seed}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic equivalence: identical update streams, compared after every batch
// ---------------------------------------------------------------------------

#[test]
fn sharded_tracks_single_engine_through_update_batches() {
    for seed in [7u64, 41] {
        for spatial in [false, true] {
            let model = ServiceModel::new(Scenario::Transit, 200.0);
            let (trace, routes) = small_workload(seed, StreamKind::Taxi);
            let batches = trace.update_batches(10);
            assert!(batches.len() >= 4, "need a multi-batch stream");

            let single = tree_builder(model, &trace, &routes).build().unwrap();
            let base = tree_builder(model, &trace, &routes);
            let base = if spatial { base.partition_by_space() } else { base };
            for shards in SHARD_COUNTS {
                let mut sharded = base.clone().shards(shards).build_sharded().unwrap();
                let mut reference = single.clone();
                for (i, batch) in batches.iter().enumerate() {
                    let got = sharded.apply(batch).unwrap();
                    let want = reference.apply(batch).unwrap();
                    assert_eq!(got.inserted, want.inserted, "global id assignment");
                    assert_eq!(got.removed, want.removed);
                    assert_eq!(sharded.live_users(), reference.live_users());
                    assert_eq!(
                        sharded_fingerprint(&mut sharded, false),
                        engine_fingerprint(&mut reference, false),
                        "batch {i}, {shards} shards, spatial={spatial}, seed {seed}"
                    );
                }
                // The compacted live sets agree trajectory-for-trajectory.
                assert_eq!(
                    sharded.live_set().len(),
                    reference.live_set().len()
                );
                // And full solvers still agree after the whole stream.
                assert_eq!(
                    sharded_fingerprint(&mut sharded, true),
                    engine_fingerprint(&mut reference, true),
                    "final, {shards} shards, spatial={spatial}, seed {seed}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache semantics: warm, hits, and what an unwarmed front keeps
// ---------------------------------------------------------------------------

#[test]
fn warm_and_cached_queries_hit_identically() {
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let (trace, routes) = small_workload(13, StreamKind::Taxi);
    let mut single = tree_builder(model, &trace, &routes).build().unwrap();
    let mut sharded = tree_builder(model, &trace, &routes)
        .shards(4)
        .build_sharded()
        .unwrap();

    // Subset max-cov on the unwarmed pair: Miss then Miss — an unwarmed
    // engine keeps no subset table — mirrored.
    let ids: Vec<u32> = routes.iter().map(|(id, _)| id).take(4).collect();
    let q = || Query::max_cov(2).candidates(&ids);
    let mut unwarmed = None;
    for pass in 1..=2 {
        let a = single.run(q()).unwrap();
        let b = sharded.run(q()).unwrap();
        assert_eq!(a.explain.cache, CacheStatus::Miss, "single pass {pass}");
        assert_eq!(b.explain.cache, CacheStatus::Miss, "sharded pass {pass}");
        assert_eq!(a.cover().chosen, b.cover().chosen);
        assert_eq!(a.cover().value.to_bits(), b.cover().value.to_bits());
        unwarmed = Some(a);
    }
    let unwarmed = unwarmed.expect("two passes ran");

    // Warm both: merged full table must carry the single engine's bits.
    let want: Vec<(u32, u64)> = {
        let t = single.warm();
        t.ids
            .iter()
            .copied()
            .zip(t.values.iter().map(|v| v.to_bits()))
            .collect()
    };
    let got: Vec<(u32, u64)> = {
        let t = sharded.warm();
        t.ids
            .iter()
            .copied()
            .zip(t.values.iter().map(|v| v.to_bits()))
            .collect()
    };
    assert_eq!(got, want, "merged warm table diverges");
    assert!(sharded.full_table().is_some());

    // First post-warm query is a Hit on both, same bits.
    let a = single.run(Query::top_k(3)).unwrap();
    let b = sharded.run(Query::top_k(3)).unwrap();
    assert!(a.explain.cache.is_hit());
    assert!(b.explain.cache.is_hit());
    assert_eq!(a.ranked(), b.ranked());

    // The mirror on the warmed pair: a subset is projected from the
    // (merged) full table — Miss, Miss, nothing published on the front or
    // on any shard, no shard consulted, and the bits of an unwarmed
    // engine's build.
    let other: Vec<u32> = routes.iter().map(|(id, _)| id).skip(2).take(4).collect();
    let want = tree_builder(model, &trace, &routes)
        .build()
        .unwrap()
        .run(Query::max_cov(2).candidates(&other))
        .unwrap();
    assert!(want.explain.eval.nodes_visited > 0, "setup: the unwarmed engine evaluated");
    let (epoch_a, epoch_b) = (single.epoch(), sharded.epoch());
    let shard_epochs: Vec<u64> = (0..4).map(|s| sharded.shard(s).epoch()).collect();
    for pass in 1..=2 {
        let a = single.run(Query::max_cov(2).candidates(&other)).unwrap();
        let b = sharded.run(Query::max_cov(2).candidates(&other)).unwrap();
        for (name, got) in [("single", &a), ("sharded", &b)] {
            assert_eq!(got.explain.cache, CacheStatus::Miss, "{name} pass {pass}");
            assert_eq!(got.explain.eval.nodes_visited, 0, "{name} pass {pass}");
            assert_eq!(got.cover().chosen, want.cover().chosen);
            assert_eq!(got.cover().value.to_bits(), want.cover().value.to_bits());
            assert_eq!(got.cover().users_served, want.cover().users_served);
        }
    }
    assert_eq!((single.epoch(), sharded.epoch()), (epoch_a, epoch_b));
    for (s, epoch) in shard_epochs.iter().enumerate() {
        assert_eq!(sharded.shard(s).epoch(), *epoch, "shard {s} was touched");
    }
    // The subset queried before the warm is now projected too, with the
    // bits it had.
    let a = single.run(q()).unwrap();
    let b = sharded.run(q()).unwrap();
    assert_eq!(
        (a.explain.cache, b.explain.cache),
        (CacheStatus::Miss, CacheStatus::Miss)
    );
    assert_eq!(a.cover().value.to_bits(), unwarmed.cover().value.to_bits());
    assert_eq!(b.cover().value.to_bits(), unwarmed.cover().value.to_bits());
}

/// An unwarmed engine keeps no subset table: a repeated subset cover is
/// built twice, publishes nothing and answers the same bits, on a plain
/// engine and on a sharded front alike. A full-candidate cover is what
/// warms: on the front it warms every shard too, and later applies keep
/// the front's maintained table equal to the plain engine's.
#[test]
fn an_unwarmed_engine_rebuilds_subset_tables_and_a_full_cover_warms_every_shard() {
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let (trace, routes) = small_workload(17, StreamKind::Taxi);
    let subset: Vec<u32> = routes.iter().map(|(id, _)| id).take(3).collect();
    let mut single = tree_builder(model, &trace, &routes).build().unwrap();
    let mut sharded = tree_builder(model, &trace, &routes)
        .shards(2)
        .build_sharded()
        .unwrap();

    let mut bits = Vec::new();
    for pass in 1..=2 {
        let epochs = (single.epoch(), sharded.epoch());
        let a = single.run(Query::max_cov(2).candidates(&subset)).unwrap();
        let b = sharded.run(Query::max_cov(2).candidates(&subset)).unwrap();
        for (name, got) in [("single", &a), ("sharded", &b)] {
            assert_eq!(got.explain.cache, CacheStatus::Miss, "{name} pass {pass}");
            assert!(
                got.explain.eval.nodes_visited > 0,
                "{name} pass {pass}: built"
            );
        }
        assert_eq!(
            (single.epoch(), sharded.epoch()),
            epochs,
            "pass {pass} published"
        );
        assert_eq!(a.cover().chosen, b.cover().chosen);
        assert_eq!(a.cover().value.to_bits(), b.cover().value.to_bits());
        bits.push((a.cover().chosen.clone(), a.cover().value.to_bits()));
    }
    assert_eq!(bits[0], bits[1], "the rebuilt table answered differently");
    assert!(single.full_table().is_none() && sharded.full_table().is_none());

    // A full-candidate cover warms the front and every shard.
    let a = single.run(Query::max_cov(2)).unwrap();
    let b = sharded.run(Query::max_cov(2)).unwrap();
    assert_eq!(a.cover().value.to_bits(), b.cover().value.to_bits());
    assert!(single.full_table().is_some());
    assert!(sharded.full_table().is_some(), "the front was not warmed");
    for s in 0..sharded.shard_count() {
        assert!(
            sharded.shard(s).full_table().is_some(),
            "shard {s} was not warmed"
        );
    }

    // Applies maintain the shards' tables, and the front re-merges them.
    for batch in trace.update_batches(10).iter().take(3) {
        single.apply(batch).unwrap();
        sharded.apply(batch).unwrap();
        let table_bits =
            |t: &ServedTable| -> Vec<u64> { t.values.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            table_bits(sharded.full_table().unwrap()),
            table_bits(single.full_table().unwrap())
        );
        assert_eq!(
            sharded_fingerprint(&mut sharded, false),
            engine_fingerprint(&mut single, false)
        );
    }
}

// ---------------------------------------------------------------------------
// Read plane: snapshots and readers answer identically, without memoizing
// ---------------------------------------------------------------------------

/// Read-plane answers through the one [`Reader`] type both engines hand
/// out: every query is a memo miss built and discarded on the snapshot,
/// and none of them publishes.
fn read_plane_misses(reader: &Reader, queries: &[Query]) -> Vec<(Vec<u32>, u64, usize)> {
    let epoch = reader.epoch();
    let answers = queries
        .iter()
        .map(|q| {
            let answer = reader.query(q.clone()).unwrap();
            assert_eq!(answer.explain.cache, CacheStatus::Miss);
            assert_eq!(answer.explain.snapshot_epoch, epoch);
            let c = answer.cover();
            (c.chosen.clone(), c.value.to_bits(), c.users_served)
        })
        .collect();
    assert_eq!(reader.epoch(), epoch, "read-plane misses never publish");
    answers
}

#[test]
fn sharded_snapshots_and_readers_answer_like_single_engine_snapshots() {
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let (trace, routes) = small_workload(19, StreamKind::Taxi);
    let mut single = tree_builder(model, &trace, &routes).build().unwrap();
    let mut sharded = tree_builder(model, &trace, &routes)
        .shards(4)
        .build_sharded()
        .unwrap();
    let reader = sharded.reader();
    assert_eq!(reader.epoch(), 0);

    let misses = [
        Query::max_cov(2).algorithm(Algorithm::Greedy),
        Query::max_cov(2).algorithm(Algorithm::TwoStep).k_prime(4),
        Query::max_cov(2).candidates(&SUBSET),
    ];
    assert_eq!(
        read_plane_misses(&reader, &misses),
        read_plane_misses(&single.reader(), &misses)
    );

    let q = || Query::max_cov(2).algorithm(Algorithm::Greedy);
    let want = single.snapshot().run(q()).unwrap();
    let snap = reader.snapshot();
    let got = snap.run(q()).unwrap();
    assert_eq!(got.cover().chosen, want.cover().chosen);
    assert_eq!(got.cover().value.to_bits(), want.cover().value.to_bits());
    // Read-plane queries never memoize: the same snapshot misses again…
    assert!(!snap.run(q()).unwrap().explain.cache.is_hit());
    // …but a control-plane run absorbs the table and publishes, and the
    // reader observes the new epoch with a warm cache.
    sharded.run(q()).unwrap();
    single.run(q()).unwrap();
    assert!(reader.epoch() > 0);
    assert!(reader.snapshot().run(q()).unwrap().explain.cache.is_hit());
    assert_eq!(
        sharded_fingerprint(&mut sharded, false),
        engine_fingerprint(&mut single, false)
    );
}

// ---------------------------------------------------------------------------
// Builder contract edges
// ---------------------------------------------------------------------------

#[test]
fn sharded_tree_engine_requires_explicit_bounds() {
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let (trace, routes) = small_workload(23, StreamKind::Taxi);
    let err = Engine::builder(model)
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .shards(2)
        .build_sharded()
        .unwrap_err();
    assert!(matches!(err, EngineError::Sharded(_)), "{err}");
}

#[test]
fn baseline_shards_reject_updates_like_a_single_baseline() {
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let (trace, routes) = small_workload(27, StreamKind::Taxi);
    let mut sharded = baseline_builder(model, &trace, &routes)
        .shards(2)
        .build_sharded()
        .unwrap();
    let t = trace.initial.get(0).clone();
    assert!(matches!(
        sharded.apply(&[Update::Insert(t)]),
        Err(EngineError::UpdatesUnsupported)
    ));
}

#[test]
fn global_validation_rejects_bad_batches_all_or_nothing() {
    let model = ServiceModel::new(Scenario::Transit, 220.0);
    let (trace, routes) = small_workload(31, StreamKind::Taxi);
    let mut sharded = tree_builder(model, &trace, &routes)
        .shards(4)
        .build_sharded()
        .unwrap();
    let before = sharded.epoch();
    // Dead removal id.
    assert!(matches!(
        sharded.apply(&[Update::Remove(99_999)]),
        Err(EngineError::Update(_))
    ));
    // Double removal inside one batch.
    assert!(matches!(
        sharded.apply(&[Update::Remove(0), Update::Remove(0)]),
        Err(EngineError::Update(_))
    ));
    assert_eq!(sharded.epoch(), before, "rejected batches must not publish");
    assert_eq!(sharded.live_users(), trace.initial.len());
}
