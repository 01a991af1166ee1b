//! Background threshold checkpoints: tripping
//! [`StoreConfig::checkpoint_every`] must not stall `Engine::apply` acks
//! — the image is encoded from the published immutable snapshot and
//! staged on a worker thread — while batches applied *during* the
//! staging are rebased onto the committed checkpoint and survive reopen.

use tq::core::persist::BG_CHECKPOINT_DELAY_MS;
use tq::core::writer::WriterOptions;
use tq::prelude::*;
use tq::store::manifest::ShardManifest;
use tq::store::snapshot_files;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The delay hook is a process-global; serialize the tests that set it.
static HOOK: Mutex<()> = Mutex::new(());

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!(
            "tq-bg-checkpoint-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn workload(seed: u64) -> (StreamScenario, FacilitySet) {
    let city = CityModel::synthetic(seed, 4, 4_000.0);
    let trace = stream_scenario(&city, StreamKind::Taxi, 60, 40, 0.4, seed);
    let routes = bus_routes(&city, 8, 6, 1_500.0, seed ^ 0xB05);
    (trace, routes)
}

fn builder(trace: &StreamScenario, routes: &FacilitySet) -> EngineBuilder {
    Engine::builder(ServiceModel::new(Scenario::Transit, 200.0))
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(8))
        .bounds(trace.bounds)
}

fn fingerprint(engine: &mut Engine) -> (Vec<(u32, u64)>, Vec<u32>, u64) {
    let top = engine.run(Query::top_k(3)).unwrap();
    let cov = engine.run(Query::max_cov(2)).unwrap();
    (
        top.ranked().iter().map(|(id, v)| (*id, v.to_bits())).collect(),
        cov.cover().chosen.clone(),
        cov.cover().value.to_bits(),
    )
}

#[test]
fn threshold_apply_acks_without_waiting_for_the_image() {
    let _hook = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, routes) = workload(61);
    let scratch = Scratch::new("no-stall");

    let config = StoreConfig {
        checkpoint_every: 2,
        background_checkpoints: true,
        ..StoreConfig::default()
    };
    let mut engine = builder(&trace, &routes)
        .persist_with(&scratch.0, config)
        .build()
        .unwrap();

    // Make the staged image take ~800ms; an apply that waited for it
    // would visibly stall.
    BG_CHECKPOINT_DELAY_MS.store(800, Ordering::Relaxed);
    let mut reference = builder(&trace, &routes).build().unwrap();
    let batches = trace.update_batches(8);
    let mut slowest = Duration::ZERO;
    for batch in &batches {
        let t = Instant::now();
        engine.apply(batch).unwrap();
        slowest = slowest.max(t.elapsed());
        reference.apply(batch).unwrap();
    }
    BG_CHECKPOINT_DELAY_MS.store(0, Ordering::Relaxed);
    assert!(
        slowest < Duration::from_millis(400),
        "an apply stalled {slowest:?} — the threshold checkpoint is back on the write path"
    );

    // The checkpoints really happen: the explicit checkpoint joins the
    // in-flight worker, and the store ends compacted at the live epoch.
    engine.checkpoint().unwrap();
    let status = engine.persistence().unwrap();
    assert_eq!(status.wal_batches, 0);
    let want = fingerprint(&mut reference);
    assert_eq!(fingerprint(&mut engine), want);
    drop(engine);
    let mut reopened = Engine::open(&scratch.0).unwrap();
    assert_eq!(fingerprint(&mut reopened), want);
}

#[test]
fn batches_applied_while_an_image_stages_survive_reopen() {
    let _hook = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, routes) = workload(67);
    let scratch = Scratch::new("rebase");

    let config = StoreConfig {
        checkpoint_every: 1, // every batch trips the threshold
        background_checkpoints: true,
        ..StoreConfig::default()
    };
    let mut engine = builder(&trace, &routes)
        .persist_with(&scratch.0, config)
        .build()
        .unwrap();
    let mut reference = builder(&trace, &routes).build().unwrap();

    // The first apply spawns a slow background checkpoint; the rest land
    // in the WAL while its image stages and must be rebased — not
    // truncated away — when it commits.
    BG_CHECKPOINT_DELAY_MS.store(400, Ordering::Relaxed);
    for batch in trace.update_batches(8) {
        engine.apply(&batch).unwrap();
        reference.apply(&batch).unwrap();
    }
    BG_CHECKPOINT_DELAY_MS.store(0, Ordering::Relaxed);
    let want = fingerprint(&mut reference);
    assert_eq!(fingerprint(&mut engine), want);
    drop(engine); // joins the worker

    // (No epoch comparison: the fingerprint queries above spent memo
    // absorption epochs, which are pure cache activity and not durable.)
    let mut reopened = Engine::open(&scratch.0).unwrap();
    assert_eq!(fingerprint(&mut reopened), want);
}

#[test]
fn sharded_engines_inherit_background_checkpoints() {
    let _hook = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let (trace, routes) = workload(71);
    let scratch = Scratch::new("sharded");

    let config = StoreConfig {
        checkpoint_every: 1,
        background_checkpoints: true,
        ..StoreConfig::default()
    };
    let mut sharded = builder(&trace, &routes)
        .shards(2)
        .persist_with(&scratch.0, config)
        .build_sharded()
        .unwrap();
    let mut reference = builder(&trace, &routes).build().unwrap();

    BG_CHECKPOINT_DELAY_MS.store(200, Ordering::Relaxed);
    for batch in trace.update_batches(8) {
        sharded.apply(&batch).unwrap();
        reference.apply(&batch).unwrap();
    }
    BG_CHECKPOINT_DELAY_MS.store(0, Ordering::Relaxed);

    let top = sharded.run(Query::top_k(3)).unwrap();
    let want = reference.run(Query::top_k(3)).unwrap();
    assert_eq!(top.ranked(), want.ranked());
    drop(sharded);

    let mut reopened = Engine::open_sharded(&scratch.0).unwrap();
    let top = reopened.run(Query::top_k(3)).unwrap();
    assert_eq!(top.ranked(), want.ranked());
}

#[test]
fn an_idle_sharded_writer_runs_every_shards_housekeeping() {
    let (trace, routes) = workload(73);
    let scratch = Scratch::new("sharded-idle");

    // Threshold checkpoints off; only the age policy may compact.
    let config = StoreConfig {
        checkpoint_every: 0,
        checkpoint_max_age: Some(Duration::from_millis(50)),
        ..StoreConfig::default()
    };
    let sharded = builder(&trace, &routes)
        .shards(2)
        .persist_with(&scratch.0, config)
        .build_sharded()
        .unwrap();
    let images = || -> usize {
        (0..2)
            .map(|s| {
                let dir = ShardManifest::shard_dir(&scratch.0, s);
                snapshot_files(&dir).unwrap().len()
            })
            .sum()
    };
    let images_before = images();

    let hub = WriterHub::spawn_with(
        sharded,
        WriterOptions {
            tick: Some(Duration::from_millis(20)),
            ..WriterOptions::default()
        },
    );
    let ack = hub
        .handle()
        .apply(trace.update_batches(8)[0].clone())
        .unwrap();
    // One pending WAL batch per shard the batch touched.
    assert!(ack.wal_batches >= 1, "no threshold checkpoint may fire");

    // The idle tick must reach every shard: each one holding an aging WAL
    // tail writes a fresh image.
    let deadline = Instant::now() + Duration::from_secs(10);
    while images() < images_before + ack.wal_batches as usize {
        assert!(
            Instant::now() < deadline,
            "the idle tick never ran the shards' age-based checkpoints"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let engine = hub.stop(false).unwrap();
    for s in 0..engine.shard_count() {
        let status = engine.shard(s).persistence().unwrap();
        assert_eq!(status.wal_batches, 0, "shard {s} kept its WAL tail");
    }
}
