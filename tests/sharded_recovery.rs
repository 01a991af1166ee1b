//! Sharded fault injection: per-shard crash damage must never panic
//! `Engine::open_sharded`, each shard must recover to its own longest
//! valid prefix independently, and the recovered front end must answer
//! **bit-identically** to an engine built from exactly the batches that
//! survived.
//!
//! The oracle: the repo's standing bit-identity invariant says an engine
//! with tombstones answers identically to a fresh build over its
//! compacted live set (monotone renumbering preserves every canonical
//! ascending-id summation). So after every injected fault we rebuild a
//! fresh single engine from `sharded.live_set()` — the union of exactly
//! the surviving per-shard histories — and compare bits.

use tq::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!(
            "tq-sharded-recovery-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Scratch(path)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recursive copy — sharded stores are a directory of directories.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn workload(seed: u64) -> (StreamScenario, FacilitySet) {
    let city = CityModel::synthetic(seed, 4, 4_000.0);
    let trace = stream_scenario(&city, StreamKind::Taxi, 60, 40, 0.4, seed);
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

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    top_k: Vec<(u32, u64)>,
    cover: (Vec<u32>, u64, usize),
}

fn sharded_fingerprint(engine: &mut ShardedEngine) -> Fingerprint {
    let top = engine.run(Query::top_k(3)).unwrap();
    let cov = engine.run(Query::max_cov(2)).unwrap();
    let c = cov.cover();
    Fingerprint {
        top_k: top.ranked().iter().map(|(id, v)| (*id, v.to_bits())).collect(),
        cover: (c.chosen.clone(), c.value.to_bits(), c.users_served),
    }
}

/// The surviving-batches oracle: a fresh single engine over the recovered
/// front end's compacted live set.
fn oracle_fingerprint(
    model: ServiceModel,
    bounds: Rect,
    routes: &FacilitySet,
    survivors: UserSet,
) -> Fingerprint {
    let mut fresh = Engine::builder(model)
        .users(survivors)
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(8))
        .bounds(bounds)
        .build()
        .unwrap();
    let top = fresh.run(Query::top_k(3)).unwrap();
    let cov = fresh.run(Query::max_cov(2)).unwrap();
    let c = cov.cover();
    Fingerprint {
        top_k: top.ranked().iter().map(|(id, v)| (*id, v.to_bits())).collect(),
        cover: (c.chosen.clone(), c.value.to_bits(), c.users_served),
    }
}

/// Writes a 2-shard golden store with a multi-batch WAL on every shard.
fn write_golden(
    scratch: &Scratch,
    model: ServiceModel,
    trace: &StreamScenario,
    routes: &FacilitySet,
    shards: usize,
) -> PathBuf {
    let golden = scratch.join("golden");
    let config = StoreConfig {
        checkpoint_every: 0, // keep every batch in the shard WALs
        ..StoreConfig::default()
    };
    let mut writer = tree_builder(model, trace, routes)
        .shards(shards)
        .persist_with(&golden, config)
        .build_sharded()
        .unwrap();
    for batch in trace.update_batches(8) {
        writer.apply(&batch).unwrap();
    }
    golden
}

// ---------------------------------------------------------------------------
// One shard's WAL truncated at every byte boundary
// ---------------------------------------------------------------------------

#[test]
fn one_shard_wal_truncated_at_every_byte_recovers_its_longest_prefix() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(11);
    let scratch = Scratch::new("truncate");
    let golden = write_golden(&scratch, model, &trace, &routes, 2);

    let shard0_wal = std::fs::read(golden.join("shard-000").join("wal.tql")).unwrap();
    assert!(shard0_wal.len() > 100, "shard 0 needs a real WAL to cut");
    let work = scratch.join("work");
    let mut recovered_sizes = Vec::new();
    for cut in 0..=shard0_wal.len() {
        let _ = std::fs::remove_dir_all(&work);
        copy_tree(&golden, &work);
        std::fs::write(work.join("shard-000").join("wal.tql"), &shard0_wal[..cut]).unwrap();

        let mut sharded = Engine::open_sharded(&work)
            .unwrap_or_else(|e| panic!("open_sharded failed at cut {cut}: {e}"));
        // Shard 1 was untouched: it must recover its *complete* history,
        // independent of how much shard 0 lost.
        assert_eq!(
            sharded.shard(1).users().len() + sharded.shard(0).users().len(),
            sharded.users().len(),
            "cut {cut}: global id space out of sync with the shards"
        );
        let got = sharded_fingerprint(&mut sharded);
        let want = oracle_fingerprint(model, trace.bounds, &routes, sharded.live_set());
        assert_eq!(got, want, "cut {cut}: diverges from the surviving-batch oracle");
        recovered_sizes.push(sharded.shard(0).users().len());
    }
    // Longest-valid-prefix: what shard 0 recovers grows monotonically with
    // the cut, reaching its full history at the end.
    assert!(recovered_sizes.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        *recovered_sizes.last().unwrap(),
        recovered_sizes.iter().copied().max().unwrap()
    );
    assert!(
        recovered_sizes[0] < *recovered_sizes.last().unwrap(),
        "cutting the whole WAL should lose shard-0 batches"
    );
}

// ---------------------------------------------------------------------------
// Another shard's newest snapshot bit-flipped
// ---------------------------------------------------------------------------

fn newest_snapshot(shard_dir: &Path) -> PathBuf {
    let mut snapshots: Vec<_> = std::fs::read_dir(shard_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tqs"))
        .collect();
    snapshots.sort();
    snapshots.pop().expect("shard has no snapshot")
}

#[test]
fn bit_flipped_shard_snapshot_falls_back_without_panicking() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(23);
    let scratch = Scratch::new("bitflip");
    let golden = scratch.join("golden");
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut writer = tree_builder(model, &trace, &routes)
        .shards(2)
        .persist_with(&golden, config)
        .build_sharded()
        .unwrap();
    let batches = trace.update_batches(8);
    let (first, rest) = batches.split_at(batches.len() / 2);
    for batch in first {
        writer.apply(batch).unwrap();
    }
    // Checkpoint: every shard gets a post-history snapshot (and the
    // default retention keeps the epoch-0 one as fallback).
    writer.checkpoint().unwrap();
    for batch in rest {
        writer.apply(batch).unwrap();
    }
    drop(writer);

    let snap_path = newest_snapshot(&golden.join("shard-001"));
    let snap = std::fs::read(&snap_path).unwrap();
    let rel = snap_path.file_name().unwrap().to_owned();
    let work = scratch.join("work");
    for byte in (0..snap.len()).step_by(7) {
        let _ = std::fs::remove_dir_all(&work);
        copy_tree(&golden, &work);
        let mut bad = snap.clone();
        bad[byte] ^= 0x10;
        std::fs::write(work.join("shard-001").join(&rel), &bad).unwrap();

        // Never a panic: either the shard falls back to an older intact
        // snapshot (recovering a valid prefix — the oracle must agree) or
        // the store is unrecoverable and the open fails loudly.
        match Engine::open_sharded(&work) {
            Ok(mut sharded) => {
                let got = sharded_fingerprint(&mut sharded);
                let want =
                    oracle_fingerprint(model, trace.bounds, &routes, sharded.live_set());
                assert_eq!(got, want, "flip at byte {byte}");
            }
            Err(EngineError::Persist(_)) | Err(EngineError::Sharded(_)) => {}
            Err(e) => panic!("flip at byte {byte}: unexpected error class {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Both faults at once
// ---------------------------------------------------------------------------

#[test]
fn truncated_wal_and_flipped_snapshot_on_different_shards_compose() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(37);
    let scratch = Scratch::new("both");
    let golden = scratch.join("golden");
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut writer = tree_builder(model, &trace, &routes)
        .shards(4)
        .persist_with(&golden, config)
        .build_sharded()
        .unwrap();
    let batches = trace.update_batches(8);
    let (first, rest) = batches.split_at(batches.len() / 2);
    for batch in first {
        writer.apply(batch).unwrap();
    }
    writer.checkpoint().unwrap();
    for batch in rest {
        writer.apply(batch).unwrap();
    }
    drop(writer);

    let wal = std::fs::read(golden.join("shard-000").join("wal.tql")).unwrap();
    let snap_path = newest_snapshot(&golden.join("shard-002"));
    let snap = std::fs::read(&snap_path).unwrap();
    let rel = snap_path.file_name().unwrap().to_owned();
    let work = scratch.join("work");
    for (cut, byte) in [(0usize, 0usize), (wal.len() / 3, snap.len() / 2), (wal.len() / 2, 9)]
    {
        let _ = std::fs::remove_dir_all(&work);
        copy_tree(&golden, &work);
        std::fs::write(work.join("shard-000").join("wal.tql"), &wal[..cut]).unwrap();
        let mut bad = snap.clone();
        bad[byte] ^= 0x80;
        std::fs::write(work.join("shard-002").join(&rel), &bad).unwrap();

        match Engine::open_sharded(&work) {
            Ok(mut sharded) => {
                let got = sharded_fingerprint(&mut sharded);
                let want =
                    oracle_fingerprint(model, trace.bounds, &routes, sharded.live_set());
                assert_eq!(got, want, "cut {cut}, flip {byte}");
            }
            Err(EngineError::Persist(_)) | Err(EngineError::Sharded(_)) => {}
            Err(e) => panic!("cut {cut}, flip {byte}: unexpected error class {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Routing log damage: loud errors or oracle-identical recovery, never panic
// ---------------------------------------------------------------------------

#[test]
fn routing_log_truncation_never_panics() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(41);
    let scratch = Scratch::new("routing");
    let golden = write_golden(&scratch, model, &trace, &routes, 2);

    let routing = std::fs::read(golden.join("routing.tql")).unwrap();
    let work = scratch.join("work");
    for cut in (0..=routing.len()).step_by(5) {
        let _ = std::fs::remove_dir_all(&work);
        copy_tree(&golden, &work);
        std::fs::write(work.join("routing.tql"), &routing[..cut]).unwrap();

        // Most cuts leave the shard WALs *ahead* of the routing log —
        // something a crash cannot produce (the routing record is fsynced
        // before the shard applies), so a loud Persist error is the
        // correct verdict; an Ok must still match the oracle.
        match Engine::open_sharded(&work) {
            Ok(mut sharded) => {
                let got = sharded_fingerprint(&mut sharded);
                let want =
                    oracle_fingerprint(model, trace.bounds, &routes, sharded.live_set());
                assert_eq!(got, want, "cut {cut}");
            }
            Err(EngineError::Persist(_)) | Err(EngineError::Sharded(_)) => {}
            Err(e) => panic!("cut {cut}: unexpected error class {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery composes with continued writing, and rebases converge
// ---------------------------------------------------------------------------

#[test]
fn lossy_recovery_rebases_and_the_next_open_is_clean() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(47);
    let scratch = Scratch::new("rebase");
    let golden = write_golden(&scratch, model, &trace, &routes, 2);

    // Chop shard 0's WAL in half: a lossy recovery.
    let work = scratch.join("work");
    copy_tree(&golden, &work);
    let wal = std::fs::read(work.join("shard-000").join("wal.tql")).unwrap();
    std::fs::write(work.join("shard-000").join("wal.tql"), &wal[..wal.len() / 2]).unwrap();

    let mut first = Engine::open_sharded(&work).unwrap();
    let want = sharded_fingerprint(&mut first);
    let survivors = first.live_users();
    drop(first);

    // The lossy open rebased (fresh shard checkpoints + compacted routing
    // log): a second open must see a *clean* store with identical answers.
    let mut second = Engine::open_sharded(&work).unwrap();
    assert_eq!(second.live_users(), survivors);
    assert_eq!(sharded_fingerprint(&mut second), want);

    // And the recovered front end keeps writing: new batches apply and
    // survive another reopen. Re-feed the original trace's arrivals only
    // (ids from the pre-crash world may be gone, so removes are dropped;
    // the arrivals are in-bounds by construction).
    for batch in trace.update_batches(6) {
        let inserts: Vec<Update> = batch
            .iter()
            .filter(|u| matches!(u, Update::Insert(_)))
            .cloned()
            .collect();
        if !inserts.is_empty() {
            second.apply(&inserts).unwrap();
        }
    }
    let want = sharded_fingerprint(&mut second);
    drop(second);
    let mut third = Engine::open_sharded(&work).unwrap();
    assert_eq!(sharded_fingerprint(&mut third), want);
}

// ---------------------------------------------------------------------------
// A warmed store reopens from its persisted tables
// ---------------------------------------------------------------------------

#[test]
fn a_warmed_sharded_store_reopens_serving_its_persisted_tables() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(61);
    let scratch = Scratch::new("warmed");
    let dir = scratch.join("store");
    let mut writer = tree_builder(model, &trace, &routes)
        .shards(4)
        .persist_to(&dir)
        .build_sharded()
        .unwrap();
    writer.warm();
    for batch in trace.update_batches(8) {
        writer.apply(&batch).unwrap();
    }
    writer.checkpoint().unwrap();
    let want = sharded_fingerprint(&mut writer);
    drop(writer);

    // Every shard recovers its table and the front re-merges them, so the
    // first answer is a hit, and every answer keeps its bits.
    let mut reopened = Engine::open_sharded(&dir).unwrap();
    assert!(
        reopened.full_table().is_some(),
        "merged table lost over reopen"
    );
    let first = reopened.run(Query::top_k(3)).unwrap();
    assert!(
        first.explain.cache.is_hit(),
        "first query after reopen missed"
    );
    assert_eq!(sharded_fingerprint(&mut reopened), want);
}

// ---------------------------------------------------------------------------
// Contract edges
// ---------------------------------------------------------------------------

#[test]
fn open_sharded_rejects_non_sharded_and_missing_directories() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = workload(59);
    let scratch = Scratch::new("edges");

    // A plain single-engine store is not a sharded directory.
    let plain = scratch.join("plain");
    tree_builder(model, &trace, &routes)
        .persist_to(&plain)
        .build()
        .unwrap();
    assert!(matches!(
        Engine::open_sharded(&plain),
        Err(EngineError::Persist(_))
    ));

    // Missing and empty directories error cleanly.
    assert!(Engine::open_sharded(scratch.join("nope")).is_err());
    let empty = scratch.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(Engine::open_sharded(&empty).is_err());

    // And a sharded build refuses to overwrite an existing sharded store.
    let dir = scratch.join("store");
    tree_builder(model, &trace, &routes)
        .shards(2)
        .persist_to(&dir)
        .build_sharded()
        .unwrap();
    let err = tree_builder(model, &trace, &routes)
        .shards(2)
        .persist_to(&dir)
        .build_sharded()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Persist(ref why) if why.contains("already")),
        "{err}"
    );
    // The original store still opens.
    assert!(Engine::open_sharded(&dir).is_ok());
}
