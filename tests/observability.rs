//! Metrics-consistency tests for the `tq-obs` layer: the registry's
//! totals must be *exactly* the sum of what each thread, shard and
//! connection observed — no samples dropped, none double-counted — and
//! instrumentation must never change an answer's bits.
//!
//! The registry is process-global and cumulative, so every test takes
//! before/after [`tq::obs::snapshot`]s and asserts on the deltas, and
//! all tests serialize on one static mutex (they would otherwise count
//! each other's queries).

use std::sync::{Mutex, MutexGuard, OnceLock};

use tq::core::tqtree::TqTreeConfig;
use tq::obs;
use tq::prelude::*;

/// Serializes the tests in this binary: the metrics registry is global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn build_unwarmed(baseline: bool) -> Engine {
    let city = CityModel::synthetic(5, 5, 1_000.0);
    let users = taxi_trips(&city, 250, 5);
    let routes = bus_routes(&city, 12, 6, 400.0, 0xB05);
    let b = Engine::builder(ServiceModel::new(Scenario::Transit, 60.0))
        .users(users)
        .facilities(routes)
        .tree_config(TqTreeConfig::default().with_beta(8))
        .bounds(city.bounds.expand(1.0));
    if baseline { b.baseline() } else { b }
        .build()
        .expect("test engine builds")
}

fn build(baseline: bool) -> Engine {
    let mut engine = build_unwarmed(baseline);
    engine.warm();
    engine
}

/// Both solver families, over all facilities and over a subset. On a
/// warmed engine the first two hit the memo and the last two are projected
/// from the full table; on an unwarmed one the top-ks search the index
/// (no table) and the covers build theirs.
fn script() -> Vec<Query> {
    vec![
        Query::top_k(4),
        Query::max_cov(2),
        Query::top_k(3).candidates(&[0, 2, 4, 6]),
        Query::max_cov(2).candidates(&[1, 3, 5, 7, 9]),
    ]
}

/// Every id and value bit the script produces on one snapshot.
fn fingerprint(snapshot: &Snapshot) -> Vec<u64> {
    let mut bits = Vec::new();
    for q in script() {
        let ans = snapshot.run(q).expect("script queries are valid");
        match &ans.result {
            QueryResult::TopK(ranked) => {
                for (id, v) in ranked {
                    bits.push(u64::from(*id));
                    bits.push(v.to_bits());
                }
            }
            QueryResult::MaxCov(cov) => {
                for id in &cov.chosen {
                    bits.push(u64::from(*id));
                }
                bits.push(cov.value.to_bits());
                bits.push(cov.users_served as u64);
            }
        }
    }
    bits
}

fn hist_count(s: &obs::MetricsSnapshot, name: &str, labels: &str) -> u64 {
    s.histogram(name, labels).map_or(0, |h| h.count)
}

/// The tentpole identity on both backends: with reader threads racing,
/// the per-backend query counter and latency-histogram count both land
/// on exactly the number of queries the threads ran.
#[test]
fn registry_totals_match_concurrent_observations_on_both_backends() {
    let _guard = lock();
    obs::set_enabled(true);
    const THREADS: usize = 4;
    const ROUNDS: usize = 5;
    for (baseline, warmed, label) in [
        (false, true, "backend=\"tq-tree\""),
        (true, true, "backend=\"baseline\""),
        (false, false, "backend=\"tq-tree\""),
        (true, false, "backend=\"baseline\""),
    ] {
        let engine = if warmed { build(baseline) } else { build_unwarmed(baseline) };
        let what = format!("{label}, warmed={warmed}");
        let reader = engine.reader();
        let before = obs::snapshot();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let reader = reader.clone();
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let snap = reader.snapshot();
                        for q in script() {
                            snap.run(q).expect("script queries are valid");
                        }
                    }
                });
            }
        });
        let after = obs::snapshot();
        let ran = (THREADS * ROUNDS * script().len()) as u64;

        let counted =
            after.counter("tq_queries_total", label) - before.counter("tq_queries_total", label);
        assert_eq!(counted, ran, "{what}: query counter vs queries run");
        let hist = hist_count(&after, "tq_query_latency_ns", label)
            - hist_count(&before, "tq_query_latency_ns", label);
        assert_eq!(hist, ran, "{what}: histogram count vs queries run");

        // Cache verdicts are exactly the queries that read a table: all
        // four of the script on a warmed engine (two memo hits, two
        // projections), the two covers on an unwarmed one (both built).
        // And a projection is a kind of miss, never more than them.
        let moved = |name: &str| after.counter(name, "") - before.counter(name, "");
        let hits = moved("tq_query_cache_hits_total");
        let misses = moved("tq_query_cache_misses_total");
        let projected = moved("tq_query_projected_total");
        let with_table = if warmed { ran } else { ran / 2 };
        assert_eq!(hits + misses, with_table, "{what}: {hits} hits + {misses} misses");
        assert!(projected <= misses, "{what}: {projected} projected > {misses} misses");
        if warmed {
            assert_eq!(hits, ran / 2, "{what}: warmed full-set queries never hit the memo");
            assert_eq!(projected, misses, "{what}: a warmed node built a subset table");
        } else {
            assert_eq!((hits, projected), (0, 0), "{what}: nothing to hit or project from");
        }
    }
}

/// Sharded scatter–gather: one table-building query builds exactly one
/// table per shard, the per-shard labelled counters sum to the registry
/// total, and once the front is warmed the same query (a projection of
/// the merged full table) builds none.
#[test]
fn sharded_shard_builds_sum_to_the_registry_total() {
    let _guard = lock();
    obs::set_enabled(true);
    const SHARDS: usize = 4;
    let city = CityModel::synthetic(9, 5, 1_000.0);
    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 60.0))
        .users(taxi_trips(&city, 300, 9))
        .facilities(bus_routes(&city, 12, 6, 400.0, 0x1B05))
        .tree_config(TqTreeConfig::default().with_beta(8))
        .bounds(city.bounds.expand(1.0))
        .shards(SHARDS)
        .build_sharded()
        .expect("sharded engine builds");

    // A subset *coverage* query on the unwarmed front builds its merged
    // table on the shards and keeps none of it.
    let q = Query::max_cov(2)
        .candidates(&[0, 2, 4, 6, 8])
        .algorithm(Algorithm::Greedy);
    let before = obs::snapshot();
    engine.run(q.clone()).expect("subset query runs");
    let mid = obs::snapshot();
    engine.warm();
    let warmed = obs::snapshot();
    engine.run(q).expect("repeat query runs");
    let after = obs::snapshot();

    let built = |s: &obs::MetricsSnapshot| s.counter_total("tq_shard_tables_built_total");
    assert_eq!(built(&mid) - built(&before), SHARDS as u64, "one build per shard");
    assert_eq!(built(&after) - built(&warmed), 0, "the projection must build nothing");

    let mut per_shard = 0u64;
    for i in 0..SHARDS {
        let label = format!("shard=\"{i}\"");
        per_shard += mid.counter("tq_shard_tables_built_total", &label)
            - before.counter("tq_shard_tables_built_total", &label);
        assert_eq!(
            hist_count(&mid, "tq_shard_build_ns", &label)
                - hist_count(&before, "tq_shard_build_ns", &label),
            1,
            "shard {i}: build latency recorded once"
        );
    }
    assert_eq!(per_shard, built(&mid) - built(&before), "labelled counters sum to the total");

    assert_eq!(
        hist_count(&mid, "tq_shard_fanout_ns", "") - hist_count(&before, "tq_shard_fanout_ns", ""),
        1,
        "fan-out timed once per miss"
    );
    // Both runs counted as queries at the top level — the per-shard
    // builds inside the scatter never double-count.
    assert_eq!(
        after.counter("tq_queries_total", "backend=\"tq-tree\"")
            - before.counter("tq_queries_total", "backend=\"tq-tree\""),
        2
    );
}

/// The writer funnel: batch counters and latency histograms move in
/// lockstep, the queue-depth gauge drains back to zero, and with the
/// threshold floored both the apply path and the read path land in the
/// slow-query log with their queueing visible.
#[test]
fn writer_funnel_counts_batches_and_slow_logs_both_paths() {
    let _guard = lock();
    obs::set_enabled(true);
    let engine = build(false);
    let reader = engine.reader();
    let before = obs::snapshot();
    let hub = WriterHub::spawn(engine);
    let handle = hub.handle();

    obs::set_slow_threshold_ns(0); // retain everything
    for id in 0..3u32 {
        handle.apply(vec![Update::Remove(id)]).expect("funnel applies");
    }
    reader.query(Query::top_k(3)).expect("funnel read plane answers");
    obs::set_slow_threshold_ns(obs::DEFAULT_SLOW_THRESHOLD_NS);

    let after = obs::snapshot();
    let batches = after.counter("tq_writer_batches_total", "")
        - before.counter("tq_writer_batches_total", "");
    assert_eq!(batches, 3);
    assert_eq!(
        hist_count(&after, "tq_writer_batch_ns", "") - hist_count(&before, "tq_writer_batch_ns", ""),
        3,
        "batch latency recorded once per batch"
    );
    assert_eq!(
        hist_count(&after, "tq_writer_queued_ns", "")
            - hist_count(&before, "tq_writer_queued_ns", ""),
        3,
        "queueing recorded once per batch"
    );
    assert_eq!(after.gauge("tq_writer_queue_depth", ""), Some(0), "queue drained");

    let applies: Vec<&obs::SlowEntry> = after
        .slow
        .iter()
        .filter(|e| e.detail.starts_with("apply (1 updates)"))
        .collect();
    assert!(applies.len() >= 3, "apply batches missing from the slow log");
    assert!(
        applies.iter().all(|e| e.detail.contains("queued=")),
        "write-side queueing must show in the slow log"
    );
    assert!(
        after.slow.iter().any(|e| e.detail.starts_with("query ")
            && e.detail.contains("queued=")
            && e.detail.contains("wall=")),
        "the read path's full explain must be retained"
    );

    hub.stop(false).expect("hub returns the engine");
}

/// Durable-store identities: one WAL append (counter and histogram) per
/// applied batch, checkpoint commits equal the checkpoint counter, and
/// reopening the directory records exactly one recovery.
#[test]
fn store_metrics_count_appends_checkpoints_and_recovery() {
    let _guard = lock();
    obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("tq-obs-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let city = CityModel::synthetic(13, 5, 1_000.0);
    let before = obs::snapshot();
    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 60.0))
        .users(taxi_trips(&city, 200, 13))
        .facilities(bus_routes(&city, 10, 6, 400.0, 0x2B05))
        .tree_config(TqTreeConfig::default().with_beta(8))
        .bounds(city.bounds.expand(1.0))
        .persist_with(&dir, StoreConfig::default())
        .build()
        .expect("durable engine builds");
    engine.warm();
    const BATCHES: u64 = 4;
    for id in 0..BATCHES as u32 {
        engine.apply(&[Update::Remove(id)]).expect("batch applies");
    }
    engine.checkpoint().expect("explicit checkpoint");
    drop(engine);

    let mid = obs::snapshot();
    let appends =
        mid.counter("tq_wal_appends_total", "") - before.counter("tq_wal_appends_total", "");
    assert_eq!(appends, BATCHES);
    assert_eq!(
        hist_count(&mid, "tq_wal_append_ns", "") - hist_count(&before, "tq_wal_append_ns", ""),
        BATCHES,
        "append latency recorded once per append"
    );
    assert!(
        mid.counter("tq_wal_bytes_total", "") > before.counter("tq_wal_bytes_total", ""),
        "WAL bytes must accumulate"
    );
    let checkpoints =
        mid.counter("tq_checkpoints_total", "") - before.counter("tq_checkpoints_total", "");
    assert!(checkpoints >= 1);
    assert_eq!(
        hist_count(&mid, "tq_checkpoint_commit_ns", "")
            - hist_count(&before, "tq_checkpoint_commit_ns", ""),
        checkpoints,
        "every checkpoint times its commit"
    );

    let reopened = Engine::open(&dir).expect("store reopens");
    let after = obs::snapshot();
    assert_eq!(
        after.counter("tq_recoveries_total", "") - mid.counter("tq_recoveries_total", ""),
        1
    );
    assert_eq!(
        hist_count(&after, "tq_recovery_ns", "") - hist_count(&mid, "tq_recovery_ns", ""),
        1
    );
    assert_eq!(
        after.gauge("tq_recovery_wal_records", ""),
        Some(0),
        "a post-checkpoint recovery replays an empty WAL"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live daemon under concurrent clients: the per-connection query
/// counts sum to the wire-level frame counter, the engine-level query
/// counter, and the status report — three independent tallies, one
/// number.
#[test]
fn live_daemon_sums_per_connection_observations() {
    let _guard = lock();
    obs::set_enabled(true);
    let engine = build(false);
    let before = obs::snapshot();
    let handle = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("ephemeral bind");
    let addr = handle.addr().to_string();

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 4;
    let per_conn: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = &addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    for _ in 0..PER_CLIENT {
                        client.query(Query::top_k(3)).expect("query over the wire");
                    }
                    PER_CLIENT as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let total: u64 = per_conn.iter().sum();

    let mut probe = Client::connect(&addr).expect("probe connects");
    let status = probe.status().expect("status report");
    assert_eq!(status.queries_served, total, "status vs per-connection sum");
    assert_eq!(status.panics, 0);
    assert!(
        status.connections_total > CLIENTS as u64,
        "cumulative connections must count every client (got {})",
        status.connections_total
    );

    let text = probe.metrics().expect("metrics over the wire");
    let after = obs::snapshot();
    assert_eq!(
        after.counter("tq_net_frames_total", "kind=\"query\"")
            - before.counter("tq_net_frames_total", "kind=\"query\""),
        total,
        "wire frame counter vs per-connection sum"
    );
    assert_eq!(
        after.counter("tq_queries_total", "backend=\"tq-tree\"")
            - before.counter("tq_queries_total", "backend=\"tq-tree\""),
        total,
        "engine query counter vs per-connection sum"
    );
    assert!(
        after.counter("tq_net_bytes_in_total", "") > before.counter("tq_net_bytes_in_total", ""),
        "received frames must count their bytes"
    );

    // The rendered text a scraper sees carries the same non-zero counts.
    let rendered_queries = text
        .lines()
        .find(|l| l.starts_with("tq_queries_total{backend=\"tq-tree\"}"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("rendered query counter parses");
    assert!(rendered_queries >= total);

    drop(probe);
    assert_eq!(handle.panics(), 0);
    handle.shutdown().expect("graceful shutdown");
}

/// One arrival and one expiry per batch, the same on every call.
fn churn(batch: u32) -> Vec<Update> {
    let at = 100.0 + 40.0 * f64::from(batch);
    vec![
        Update::Remove(batch),
        Update::Insert(Trajectory::two_point(Point::new(at, 150.0), Point::new(at + 100.0, 900.0))),
    ]
}

/// Write-path attribution: every applied batch books one observation to
/// each `tq_engine_apply_stage_ns` stage; the four stages nest inside the
/// funnel's `tq_writer_batch_ns` span — the engine-side span they
/// partition, on an in-memory engine — so they never sum to more, and on
/// the quietest batch what they leave over (batch validation, the funnel's
/// own bookkeeping) is clock-resolution small.
#[test]
fn apply_stages_partition_the_engine_side_of_a_batch() {
    const STAGES: [&str; 4] = ["copy", "tree", "tables", "publish"];
    let stage = |s: &obs::MetricsSnapshot, stage: &str| {
        s.histogram("tq_engine_apply_stage_ns", &format!("stage=\"{stage}\""))
            .map_or((0, 0), |h| (h.count, h.sum_ns))
    };
    let span = |s: &obs::MetricsSnapshot| {
        s.histogram("tq_writer_batch_ns", "").map_or(0, |h| h.sum_ns)
    };
    let _guard = lock();
    obs::set_enabled(true);
    let hub = WriterHub::spawn(build(false));
    let handle = hub.handle();

    let mut leftover = Vec::new();
    for batch in 0..20 {
        let before = obs::snapshot();
        handle.apply(churn(batch)).expect("funnel applies");
        let after = obs::snapshot();
        let mut stages_ns = 0;
        for name in STAGES {
            let ((c0, s0), (c1, s1)) = (stage(&before, name), stage(&after, name));
            assert_eq!(c1 - c0, 1, "stage {name} recorded once per batch");
            stages_ns += s1 - s0;
        }
        let batch_ns = span(&after) - span(&before);
        assert!(stages_ns <= batch_ns, "stages {stages_ns} ns exceed their span {batch_ns} ns");
        leftover.push(batch_ns - stages_ns);
    }
    let quietest = leftover.iter().min().expect("20 batches");
    assert!(*quietest < 100_000, "the stages leave {quietest} ns of a batch unattributed");

    hub.stop(false).expect("hub returns the engine");
}

/// Instrumentation must never touch the answer path: the same batches and
/// the same script on identical engines, metrics on versus off, are
/// bit-identical.
#[test]
fn answers_are_bit_identical_with_metrics_on_and_off() {
    let run = || {
        let mut engine = build(false);
        for batch in 0..5 {
            engine.apply(&churn(batch)).expect("batch applies");
        }
        fingerprint(&engine.snapshot())
    };
    let _guard = lock();
    obs::set_enabled(true);
    let on = run();
    obs::set_enabled(false);
    let off = run();
    obs::set_enabled(true);
    assert_eq!(on, off, "metrics changed an answer's bits");
}
