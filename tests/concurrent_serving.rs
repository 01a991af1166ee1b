//! Concurrency stress tests for the two-plane engine: N reader threads
//! interleaved with single-writer update batches must always see answers
//! **bit-identical to some serial snapshot history** — no torn reads, no
//! stale-mixed state, strictly monotone epochs per reader — on the TqTree
//! and Baseline backends, and on a sharded engine.
//!
//! The protocol: the writer publishes epochs (update batches on the
//! TQ-tree backend; the warm publication on the static baseline) and records,
//! for every epoch it published, the *serial* answer fingerprint of a
//! fixed query script (computed single-threadedly on that epoch's
//! snapshot, plus — on the updatable backend — cross-checked against a
//! fresh build over the live set). Reader threads race against the
//! writer, each logging `(epoch, fingerprint)` observations. After the
//! join, every observation must equal the serial fingerprint recorded for
//! its epoch: a reader that ever saw half-applied state would fingerprint
//! a state no serial history contains. Every reader observes the epoch the
//! race starts on and the one it ends on, so a writer that publishes at
//! all is raced by construction.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tq::core::tqtree::TqTreeConfig;
use tq::prelude::*;

/// How many reader threads race the writer. CI runs this test in release
/// mode with a high `--test-threads` so several stress tests contend for
/// the machine at once.
const READERS: usize = 8;

/// The fixed query script fingerprinted on every snapshot: exercises the
/// full-table path (full-set queries after `warm`), the projection path
/// (subset queries after `warm`), the build-locally path (every query
/// before it), and two solver families.
fn script() -> Vec<Query> {
    vec![
        Query::top_k(5),
        Query::max_cov(3),
        Query::top_k(3).candidates(&[0, 2, 4, 6, 8]),
        Query::max_cov(2).algorithm(Algorithm::TwoStep).k_prime(6),
    ]
}

/// The exact bits of every id and value the script produces on one
/// snapshot — the unit of "bit-identical".
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

fn users(n: usize, seed: u64) -> UserSet {
    let city = CityModel::synthetic(seed, 6, 1_000.0);
    taxi_trips(&city, n, seed)
}

fn routes(n: usize, seed: u64) -> FacilitySet {
    let city = CityModel::synthetic(seed, 6, 1_000.0);
    bus_routes(&city, n, 8, 400.0, seed ^ 0xB05)
}

/// Runs `writer` (which should publish epochs and record serial
/// fingerprints) while `READERS` threads log `(epoch, fingerprint)`
/// observations off `reader` — the handle of the control plane `engine`
/// — then checks every observation against the serial history and that
/// the readers saw the writer publish (at least two distinct epochs).
fn race_readers_against<E>(
    engine: &mut E,
    reader: Reader,
    writer: impl FnOnce(&mut E, &mut HashMap<u64, Vec<u64>>),
) {
    let mut serial: HashMap<u64, Vec<u64>> = HashMap::new();
    serial.insert(reader.epoch(), fingerprint(&reader.snapshot()));

    let stop = AtomicBool::new(false);
    let started = AtomicUsize::new(0);
    let observations: Vec<Vec<(u64, Vec<u64>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let reader = reader.clone();
                let (stop, started) = (&stop, &started);
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let mut last_epoch = 0u64;
                    loop {
                        // Read before the snapshot: `stop` is stored
                        // (Release) after the writer's last publication, so
                        // the observation that ends the loop is of the
                        // final epoch.
                        let done = stop.load(Ordering::Acquire);
                        let snap = reader.snapshot();
                        assert!(
                            snap.epoch() >= last_epoch,
                            "epoch regressed: {} after {last_epoch}",
                            snap.epoch()
                        );
                        last_epoch = snap.epoch();
                        seen.push((snap.epoch(), fingerprint(&snap)));
                        if seen.len() == 1 {
                            started.fetch_add(1, Ordering::Release);
                        }
                        if done {
                            return seen;
                        }
                    }
                })
            })
            .collect();

        // Every reader observes the starting epoch before the writer
        // publishes anything (each counts itself in, Release, after its
        // first observation).
        while started.load(Ordering::Acquire) < READERS {
            std::thread::yield_now();
        }
        writer(engine, &mut serial);
        // Give the racing readers a moment on the final epoch too.
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });

    let mut total = 0usize;
    let mut epochs = BTreeSet::new();
    for (r, seen) in observations.iter().enumerate() {
        assert!(!seen.is_empty(), "reader {r} made no observations");
        for (epoch, bits) in seen {
            let expected = serial
                .get(epoch)
                .unwrap_or_else(|| panic!("reader {r} saw unpublished epoch {epoch}"));
            assert_eq!(
                bits, expected,
                "reader {r} at epoch {epoch}: answers diverged from the serial history"
            );
            epochs.insert(*epoch);
            total += 1;
        }
    }
    // Sanity: the race actually exercised concurrency.
    assert!(total >= READERS, "too few observations: {total}");
    assert!(
        epochs.len() >= 2,
        "the readers raced no publication: epochs {epochs:?}"
    );
}

#[test]
fn tqtree_readers_match_serial_history_under_update_batches() {
    let city = CityModel::synthetic(3, 6, 1_000.0);
    let trace = stream_scenario(&city, StreamKind::Taxi, 300, 180, 0.5, 7);
    let bounds = trace.bounds;
    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 40.0))
        .users(trace.initial.clone())
        .facilities(routes(12, 4))
        .tree_config(TqTreeConfig::default().with_beta(8))
        .bounds(bounds)
        .build()
        .unwrap();
    engine.warm();

    let reader = engine.reader();
    race_readers_against(&mut engine, reader, |engine, serial| {
        for batch in trace.update_batches(30) {
            engine.apply(&batch).unwrap();

            // Record this epoch's serial truth...
            let snap = engine.snapshot();
            let bits = fingerprint(&snap);
            // ...and pin it to a from-scratch build over the live set: the
            // serial history itself is bit-identical to fresh execution.
            let mut fresh = Engine::builder(*engine.model())
                .users(engine.live_set())
                .facilities(engine.facilities().clone())
                .tree_config(*engine.tree().unwrap().config())
                .bounds(bounds)
                .build()
                .unwrap();
            fresh.warm();
            assert_eq!(
                bits,
                fingerprint(&fresh.snapshot()),
                "published epoch {} diverged from a fresh build",
                snap.epoch()
            );
            serial.insert(snap.epoch(), bits);
        }
    });
}

#[test]
fn baseline_readers_match_serial_history_across_the_warm_publication() {
    // Unwarmed: the race starts on the epoch every query builds its table
    // on, and straddles the one publication the static baseline makes.
    let mut engine = Engine::builder(ServiceModel::new(Scenario::PointCount, 40.0))
        .users(users(250, 11))
        .facilities(routes(12, 12))
        .baseline()
        .build()
        .unwrap();

    let reader = engine.reader();
    race_readers_against(&mut engine, reader, |engine, serial| {
        // Subset covers on both sides of `warm`: built and discarded
        // before it, projected after it, publishing nothing either way.
        // Data never changes, so both epochs' serial fingerprints and both
        // sides' covers are the same bits — and every racing reader must
        // agree.
        let subsets: [&[u32]; 4] = [&[0, 1, 2], &[3, 4, 5], &[6, 7, 8], &[9, 10, 11]];
        let covers = |engine: &mut Engine, warmed: bool| -> Vec<u64> {
            let epoch = engine.epoch();
            let bits = subsets
                .iter()
                .flat_map(|sub| {
                    let ans = engine.run(Query::max_cov(2).candidates(sub)).unwrap();
                    assert_eq!(ans.explain.cache, CacheStatus::Miss);
                    assert_eq!(
                        ans.explain.eval.items_tested == 0,
                        warmed,
                        "warmed: {warmed}"
                    );
                    [ans.cover().value.to_bits(), ans.cover().users_served as u64]
                })
                .collect();
            assert_eq!(engine.epoch(), epoch, "a subset cover published");
            bits
        };
        let cold = covers(engine, false);
        engine.warm();
        serial.insert(engine.epoch(), fingerprint(&engine.snapshot()));
        assert_eq!(covers(engine, true), cold);
        let mut truths = serial.values();
        let first = truths.next().expect("two epochs recorded");
        assert!(truths.all(|t| t == first), "static data, different answers");
        // Updates stay rejected on the static backend.
        assert_eq!(
            engine.apply(&[Update::Remove(0)]).unwrap_err(),
            EngineError::UpdatesUnsupported
        );
    });
}

#[test]
fn sharded_readers_match_a_single_engine_under_update_batches() {
    // The sharded engine publishes the same `Snapshot` type behind the
    // same `Reader`; its scatter–gather must be as tear-free as one
    // engine's, and every epoch it publishes must carry the single
    // engine's bits for the same stream.
    let city = CityModel::synthetic(5, 6, 1_000.0);
    let trace = stream_scenario(&city, StreamKind::Taxi, 240, 120, 0.5, 9);
    let builder = Engine::builder(ServiceModel::new(Scenario::Transit, 40.0))
        .users(trace.initial.clone())
        .facilities(routes(12, 6))
        .tree_config(TqTreeConfig::default().with_beta(8))
        .bounds(trace.bounds);
    let mut single = builder.clone().build().unwrap();
    let mut sharded = builder.shards(2).build_sharded().unwrap();
    single.warm();
    sharded.warm();
    assert_eq!(
        fingerprint(&sharded.snapshot()),
        fingerprint(&single.snapshot())
    );

    let reader = sharded.reader();
    race_readers_against(&mut sharded, reader, |sharded, serial| {
        for batch in trace.update_batches(30) {
            let got = sharded.apply(&batch).unwrap();
            let want = single.apply(&batch).unwrap();
            assert_eq!(got.inserted, want.inserted, "global id assignment");
            let snap = sharded.snapshot();
            let bits = fingerprint(&snap);
            assert_eq!(
                bits,
                fingerprint(&single.snapshot()),
                "sharded epoch {} diverged from the single engine",
                snap.epoch()
            );
            serial.insert(snap.epoch(), bits);
        }
    });
}

#[test]
fn snapshots_outlive_the_engine_and_later_epochs() {
    let city = CityModel::synthetic(21, 5, 800.0);
    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 40.0))
        .users(taxi_trips(&city, 200, 21))
        .facilities(bus_routes(&city, 10, 6, 300.0, 22))
        .bounds(city.bounds)
        .build()
        .unwrap();
    engine.warm();
    let old = engine.snapshot();
    let before = fingerprint(&old);

    let newcomers = taxi_trips(&city, 40, 23);
    let batch: Vec<Update> = newcomers
        .iter()
        .map(|(_, t)| Update::Insert(t.clone()))
        .collect();
    engine.apply(&batch).unwrap();
    drop(engine); // the writer is gone; the epoch the reader holds survives

    assert_eq!(fingerprint(&old), before, "old epoch changed after drop");
}

/// Stopping the hub while four threads keep applying through it: every
/// applier ends on [`WriterError::Stopped`] within a deadline, the acked
/// epochs are exactly the ones the returned engine published, and the
/// store reopens on that epoch with the same answer bits (acked ⇒
/// durable).
#[test]
fn stop_racing_appliers_keeps_every_ack_durable() {
    let dir = std::env::temp_dir().join(format!("tq-stop-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let city = CityModel::synthetic(8, 6, 1_000.0);
    let engine = Engine::builder(ServiceModel::new(Scenario::Transit, 40.0))
        .users(users(200, 8))
        .facilities(routes(12, 8))
        .tree_config(TqTreeConfig::default().with_beta(8))
        .bounds(city.bounds)
        .persist_to(&dir)
        .build()
        .unwrap();
    let e0 = engine.epoch();
    let hub = WriterHub::spawn(engine);

    let acks = Arc::new(AtomicUsize::new(0));
    let appliers: Vec<_> = (0..4u64)
        .map(|i| {
            let handle = hub.handle();
            let acks = Arc::clone(&acks);
            let newcomers: Vec<Trajectory> = taxi_trips(&city, 50, 80 + i)
                .iter()
                .map(|(_, t)| t.clone())
                .collect();
            std::thread::spawn(move || {
                let mut epochs = Vec::new();
                for t in newcomers.iter().cycle() {
                    match handle.apply(vec![Update::Insert(t.clone())]) {
                        Ok(ack) => {
                            epochs.push(ack.epoch);
                            acks.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(WriterError::Stopped) => return epochs,
                        Err(e) => panic!("apply failed: {e}"),
                    }
                }
                unreachable!("the supply cycles forever")
            })
        })
        .collect();
    while acks.load(Ordering::SeqCst) < 20 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let engine = hub.stop(true).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while !appliers.iter().all(|a| a.is_finished()) {
        assert!(Instant::now() < deadline, "an applier hung past stop");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut acked: Vec<u64> = appliers
        .into_iter()
        .flat_map(|a| a.join().unwrap())
        .collect();
    acked.sort_unstable();
    // Every apply that published was acked to its caller, and nothing
    // applied after the engine was taken back.
    assert!(acked.len() >= 20);
    assert_eq!(acked, (e0 + 1..=engine.epoch()).collect::<Vec<_>>());

    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.epoch(), engine.epoch());
    assert_eq!(reopened.live_users(), engine.live_users());
    assert_eq!(fingerprint(&reopened.snapshot()), fingerprint(&engine.snapshot()));
    drop((engine, reopened));
    let _ = std::fs::remove_dir_all(&dir);
}
