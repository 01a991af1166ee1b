//! Crash-recovery and bit-identity tests for the `tq-store` persistence
//! layer wired through `Engine` (`persist_to` / `open` / `checkpoint`).
//!
//! The two headline guarantees under test:
//!
//! 1. **Paranoid recovery** — a WAL truncated at *every* byte boundary,
//!    or with any byte flipped, never panics `Engine::open` and always
//!    recovers a valid *batch prefix* (and the snapshot fallback path
//!    survives a corrupted newest snapshot).
//! 2. **Bit-identity** — a reopened engine answers top-k and every
//!    max-cov solver bit-identical to the engine that wrote the files,
//!    resuming at the recovered epoch, across both backends, all three
//!    scenarios/placements, and seeded datagen workloads.

use tq::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!(
            "tq-persistence-test-{}-{}-{tag}",
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

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Workloads and answer fingerprints
// ---------------------------------------------------------------------------

/// A small seeded workload: initial users, facilities, bounds and update
/// batches, sized so thousands of `Engine::open`s stay fast.
fn small_workload(seed: u64, kind: StreamKind) -> (StreamScenario, FacilitySet) {
    let city = CityModel::synthetic(seed, 4, 4_000.0);
    let trace = stream_scenario(&city, kind, 60, 40, 0.4, seed);
    let routes = bus_routes(&city, 8, 6, 1_500.0, seed ^ 0xB05);
    (trace, routes)
}

fn builder_for(
    model: ServiceModel,
    trace: &StreamScenario,
    routes: &FacilitySet,
    placement: Placement,
) -> EngineBuilder {
    Engine::builder(model)
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(placement).with_beta(8))
        .bounds(trace.bounds)
}

/// Every query family's answer, reduced to comparable bits.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    epoch: u64,
    top_k: Vec<(u32, u64)>,
    covers: Vec<(Vec<u32>, u64)>,
}

fn fingerprint(engine: &mut Engine, full: bool) -> Fingerprint {
    let k = 3.min(engine.facilities().len());
    let top = engine.run(Query::top_k(k)).unwrap();
    let top_k = top
        .ranked()
        .iter()
        .map(|(id, v)| (*id, v.to_bits()))
        .collect();
    let mut algorithms = vec![Algorithm::Greedy];
    if full {
        algorithms.extend([Algorithm::TwoStep, Algorithm::Genetic, Algorithm::Exact]);
    }
    let covers = algorithms
        .into_iter()
        .map(|alg| {
            let q = Query::max_cov(2).algorithm(alg).seed(0x5EED).node_budget(200_000);
            let ans = engine.run(q).unwrap();
            let c = ans.cover();
            (c.chosen.clone(), c.value.to_bits())
        })
        .collect();
    Fingerprint {
        epoch: engine.epoch(),
        top_k,
        covers,
    }
}

// ---------------------------------------------------------------------------
// WAL truncation at every byte boundary
// ---------------------------------------------------------------------------

#[test]
fn wal_truncated_at_every_byte_recovers_a_valid_batch_prefix() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(11, StreamKind::Taxi);
    let batches = trace.update_batches(10);
    assert!(batches.len() >= 4, "need a multi-batch log");

    let scratch = Scratch::new("truncate");
    let golden = scratch.join("golden");
    // checkpoint_every: 0 — keep every batch in the WAL.
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut writer = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_with(&golden, config)
        .build()
        .unwrap();

    // Reference fingerprints: after 0, 1, … n batches, from a parallel
    // in-memory engine (identical by construction).
    let mut reference = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .build()
        .unwrap();
    let mut expected = vec![fingerprint(&mut reference, false)];
    for batch in &batches {
        writer.apply(batch).unwrap();
        reference.apply(batch).unwrap();
        expected.push(fingerprint(&mut reference, false));
    }
    drop(writer);

    let wal = std::fs::read(golden.join("wal.tql")).unwrap();
    let work = scratch.join("work");
    let mut recovered_counts = Vec::new();
    for cut in 0..=wal.len() {
        let _ = std::fs::remove_dir_all(&work);
        copy_dir(&golden, &work);
        std::fs::write(work.join("wal.tql"), &wal[..cut]).unwrap();

        let mut engine = Engine::open(&work)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        // Stamps are 1..=n here (epoch 0 snapshot, no memo absorptions),
        // so the recovered epoch *is* the recovered batch count.
        let recovered = engine.epoch() as usize;
        assert!(
            recovered <= batches.len(),
            "cut {cut} recovered {recovered} of {} batches",
            batches.len()
        );
        let got = fingerprint(&mut engine, false);
        assert_eq!(
            got, expected[recovered],
            "cut {cut}: answers diverge from the {recovered}-batch reference"
        );
        recovered_counts.push(recovered);
    }
    // Monotone in the cut, 0 at the start, complete at the end.
    assert_eq!(recovered_counts[0], 0);
    assert_eq!(*recovered_counts.last().unwrap(), batches.len());
    assert!(recovered_counts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn wal_bit_flips_never_panic_and_recover_a_prefix() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(23, StreamKind::Taxi);
    let batches = trace.update_batches(10);

    let scratch = Scratch::new("bitflip");
    let golden = scratch.join("golden");
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut writer = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_with(&golden, config)
        .build()
        .unwrap();
    let mut reference = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .build()
        .unwrap();
    let mut expected = vec![fingerprint(&mut reference, false)];
    for batch in &batches {
        writer.apply(batch).unwrap();
        reference.apply(batch).unwrap();
        expected.push(fingerprint(&mut reference, false));
    }
    drop(writer);

    let wal = std::fs::read(golden.join("wal.tql")).unwrap();
    let work = scratch.join("work");
    for byte in (0..wal.len()).step_by(3) {
        for bit in [0x01u8, 0x80] {
            let _ = std::fs::remove_dir_all(&work);
            copy_dir(&golden, &work);
            let mut bad = wal.clone();
            bad[byte] ^= bit;
            std::fs::write(work.join("wal.tql"), &bad).unwrap();

            // A flip inside the 18-byte file header (magic, version,
            // lineage, header CRC) makes the WAL unrecognizable or
            // untrustworthy — that must be a loud error, not a panic and
            // not a silent discard of acknowledged records.
            match Engine::open(&work) {
                Ok(mut engine) => {
                    let recovered = engine.epoch() as usize;
                    assert!(recovered <= batches.len());
                    let got = fingerprint(&mut engine, false);
                    assert_eq!(
                        got, expected[recovered],
                        "flip {byte}:{bit:#x} recovered a corrupted prefix"
                    );
                }
                Err(_) if byte < 18 => {}
                Err(e) => panic!("flip {byte}:{bit:#x} failed the open: {e}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Save → load → query bit-identity, both backends × scenarios × kinds
// ---------------------------------------------------------------------------

#[test]
fn save_load_query_bit_identity_across_backends_and_scenarios() {
    // (stream kind, placement that sees all its points)
    let kinds = [
        (StreamKind::Taxi, Placement::TwoPoint),
        (StreamKind::Checkins, Placement::Segmented),
        (StreamKind::Gps, Placement::FullTrajectory),
    ];
    for seed in [1u64, 42] {
        for &(kind, placement) in &kinds {
            for scenario in Scenario::ALL {
                let model = ServiceModel::new(scenario, 220.0);
                let (trace, routes) = small_workload(seed, kind);

                // TQ-tree backend: apply the update stream, then compare
                // writer vs reopened, including all four max-cov solvers.
                let scratch = Scratch::new("identity");
                let dir = scratch.join("store");
                let mut writer = builder_for(model, &trace, &routes, placement)
                    .persist_to(&dir)
                    .build()
                    .unwrap();
                for batch in trace.update_batches(15) {
                    writer.apply(&batch).unwrap();
                }
                let want = fingerprint(&mut writer, true);
                drop(writer);
                let mut reopened = Engine::open(&dir).unwrap();
                let got = fingerprint(&mut reopened, true);
                assert_eq!(
                    got, want,
                    "tq-tree {kind:?}/{placement:?}/{scenario:?} seed {seed}"
                );

                // Baseline backend: static save/load (the baseline
                // rejects updates), same bit-identity bar.
                let bl_dir = scratch.join("baseline");
                let mut bl_writer = Engine::builder(model)
                    .users(trace.initial.clone())
                    .facilities(routes.clone())
                    .baseline()
                    .persist_to(&bl_dir)
                    .build()
                    .unwrap();
                let want = fingerprint(&mut bl_writer, true);
                drop(bl_writer);
                let mut bl_reopened = Engine::open(&bl_dir).unwrap();
                let got = fingerprint(&mut bl_reopened, true);
                assert_eq!(
                    got, want,
                    "baseline {kind:?}/{scenario:?} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn reopened_engine_continues_writing_the_same_history() {
    let model = ServiceModel::new(Scenario::PointCount, 250.0);
    let (trace, routes) = small_workload(7, StreamKind::Checkins);
    let batches = trace.update_batches(8);
    let (first, rest) = batches.split_at(batches.len() / 2);

    let scratch = Scratch::new("continue");
    let dir = scratch.join("store");
    let mut writer = builder_for(model, &trace, &routes, Placement::Segmented)
        .persist_to(&dir)
        .build()
        .unwrap();
    let mut reference = builder_for(model, &trace, &routes, Placement::Segmented)
        .build()
        .unwrap();
    for batch in first {
        writer.apply(batch).unwrap();
        reference.apply(batch).unwrap();
    }
    drop(writer);

    // Reopen mid-history, keep applying — the WAL keeps growing.
    let mut reopened = Engine::open(&dir).unwrap();
    for batch in rest {
        reopened.apply(batch).unwrap();
        reference.apply(batch).unwrap();
    }
    assert_eq!(
        fingerprint(&mut reopened, true),
        fingerprint(&mut reference, true),
        "writer that crossed a reopen diverged from the uninterrupted one"
    );
    drop(reopened);

    // And a final cold start sees the whole history.
    let mut last = Engine::open(&dir).unwrap();
    assert_eq!(fingerprint(&mut last, true), fingerprint(&mut reference, true));
}

#[test]
fn warmed_table_is_persisted_and_served_from_cache_after_reopen() {
    // Every (kind, placement) exercises a different mask shape: small
    // two-bit words, segment masks, and >64-point heap masks.
    let kinds = [
        (StreamKind::Taxi, Placement::TwoPoint, Scenario::Transit),
        (StreamKind::Checkins, Placement::Segmented, Scenario::PointCount),
        (StreamKind::Gps, Placement::FullTrajectory, Scenario::Length),
    ];
    for &(kind, placement, scenario) in &kinds {
        let model = ServiceModel::new(scenario, 220.0);
        let (trace, routes) = small_workload(13, kind);
        let scratch = Scratch::new("warmtable");
        let dir = scratch.join("store");
        let mut writer = builder_for(model, &trace, &routes, placement)
            .persist_to(&dir)
            .build()
            .unwrap();
        writer.warm();
        for batch in trace.update_batches(12) {
            writer.apply(&batch).unwrap();
        }
        writer.checkpoint().unwrap();
        let want = fingerprint(&mut writer, true);
        drop(writer);

        let mut reopened = Engine::open(&dir).unwrap();
        assert!(
            reopened.full_table().is_some(),
            "warmed table lost over checkpoint ({kind:?})"
        );
        let first = reopened.run(Query::top_k(2)).unwrap();
        assert!(
            first.explain.cache.is_hit(),
            "first query after reopen should hit the persisted table ({kind:?})"
        );
        assert_eq!(fingerprint(&mut reopened, true), want, "{kind:?}");
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_compacts_and_stale_wal_records_are_skipped_by_stamp() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(31, StreamKind::Taxi);
    let batches = trace.update_batches(8);

    let scratch = Scratch::new("checkpoint");
    let dir = scratch.join("store");
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut writer = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_with(&dir, config)
        .build()
        .unwrap();
    for batch in &batches {
        writer.apply(batch).unwrap();
    }
    // Preserve the pre-checkpoint WAL, then checkpoint (truncates it).
    let stale_wal = std::fs::read(dir.join("wal.tql")).unwrap();
    writer.checkpoint().unwrap();
    assert_eq!(writer.persistence().unwrap().wal_batches, 0);
    let want = fingerprint(&mut writer, true);
    drop(writer);

    // Simulate a crash that wrote the checkpoint snapshot but never got
    // to truncate the WAL: put the stale records back. Their stamps are
    // all ≤ the checkpoint epoch, so recovery must skip every one.
    std::fs::write(dir.join("wal.tql"), &stale_wal).unwrap();
    let mut reopened = Engine::open(&dir).unwrap();
    assert_eq!(fingerprint(&mut reopened, true), want);
}

#[test]
fn auto_checkpoint_threshold_fires_during_apply() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(5, StreamKind::Taxi);
    let batches = trace.update_batches(10);
    assert!(batches.len() >= 3);

    let scratch = Scratch::new("auto");
    let dir = scratch.join("store");
    let config = StoreConfig {
        checkpoint_every: 2,
        ..StoreConfig::default()
    };
    let mut writer = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_with(&dir, config)
        .build()
        .unwrap();
    writer.apply(&batches[0]).unwrap();
    assert_eq!(writer.persistence().unwrap().wal_batches, 1);
    writer.apply(&batches[1]).unwrap();
    assert_eq!(
        writer.persistence().unwrap().wal_batches,
        0,
        "threshold checkpoint should have compacted the WAL"
    );
    writer.apply(&batches[2]).unwrap();
    let want = fingerprint(&mut writer, false);
    drop(writer);
    let mut reopened = Engine::open(&dir).unwrap();
    assert_eq!(fingerprint(&mut reopened, false), want);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_the_previous_checkpoint() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(17, StreamKind::Taxi);
    let batches = trace.update_batches(10);

    let scratch = Scratch::new("fallback");
    let dir = scratch.join("store");
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut writer = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_with(&dir, config)
        .build()
        .unwrap();
    writer.apply(&batches[0]).unwrap();
    writer.checkpoint().unwrap();
    let want_old = fingerprint(&mut writer, false);
    writer.apply(&batches[1]).unwrap();
    writer.checkpoint().unwrap();
    // One more batch after the (about to rot) newest checkpoint: its WAL
    // record presupposes that checkpoint's state and must be *discarded*
    // by the lineage check, never replayed onto the older snapshot (it
    // would silently mis-assign trajectory ids there).
    writer.apply(&batches[2]).unwrap();
    drop(writer);

    // Corrupt the newest snapshot body; recovery must degrade to the
    // previous checkpoint's exact state instead of failing (everything
    // since it — compacted batches and the orphaned WAL record — is lost
    // to the rot; bit rot after checkpoint is outside the crash model,
    // surviving it at the older epoch is the contract).
    let mut snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tqs"))
        .collect();
    snapshots.sort();
    assert_eq!(snapshots.len(), 2, "keep_snapshots retains two");
    let newest = snapshots.pop().unwrap();
    let mut raw = std::fs::read(&newest).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    std::fs::write(&newest, raw).unwrap();

    let mut reopened = Engine::open(&dir).unwrap();
    assert_eq!(fingerprint(&mut reopened, false), want_old);
}

// ---------------------------------------------------------------------------
// API contract edges
// ---------------------------------------------------------------------------

#[test]
fn persist_to_refuses_an_existing_store() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(3, StreamKind::Taxi);
    let scratch = Scratch::new("refuse");
    let dir = scratch.join("store");
    builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_to(&dir)
        .build()
        .unwrap();
    let err = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_to(&dir)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Persist(ref why) if why.contains("already")),
        "{err}"
    );
    // The original store is untouched and still opens.
    assert!(Engine::open(&dir).is_ok());
}

#[test]
fn checkpoint_on_an_in_memory_engine_is_a_typed_error() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(3, StreamKind::Taxi);
    let mut engine = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .build()
        .unwrap();
    assert!(matches!(engine.checkpoint(), Err(EngineError::NotDurable)));
    assert!(engine.persistence().is_none());
}

#[test]
fn open_of_missing_or_empty_directory_errors_cleanly() {
    let scratch = Scratch::new("missing");
    assert!(Engine::open(scratch.join("nope")).is_err());
    let empty = scratch.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(matches!(
        Engine::open(&empty),
        Err(EngineError::Persist(_))
    ));
}

#[test]
fn rejected_batches_are_not_logged() {
    let model = ServiceModel::new(Scenario::Transit, 200.0);
    let (trace, routes) = small_workload(9, StreamKind::Taxi);
    let scratch = Scratch::new("rejected");
    let dir = scratch.join("store");
    let mut writer = builder_for(model, &trace, &routes, Placement::TwoPoint)
        .persist_to(&dir)
        .build()
        .unwrap();
    // A batch with a dead removal id is rejected all-or-nothing…
    assert!(writer.apply(&[Update::Remove(9999)]).is_err());
    assert_eq!(writer.persistence().unwrap().wal_batches, 0);
    let want = fingerprint(&mut writer, false);
    drop(writer);
    // …and a reopen sees no trace of it.
    let mut reopened = Engine::open(&dir).unwrap();
    assert_eq!(fingerprint(&mut reopened, false), want);
}

/// Every id, value bit and count the version-1 fixture's writer recorded.
fn fixture_fingerprint(engine: &mut Engine) -> String {
    let mut out = String::new();
    for (id, v) in engine.run(Query::top_k(4)).unwrap().ranked() {
        out.push_str(&format!("{id} {:016x}\n", v.to_bits()));
    }
    let cover = engine.run(Query::max_cov(2)).unwrap();
    out.push_str(&format!(
        "cover {:?} {:016x}\n",
        cover.cover().chosen,
        cover.cover().value.to_bits()
    ));
    out.push_str(&format!(
        "epoch {} users {} live {}\n",
        engine.epoch(),
        engine.users().len(),
        engine.live_users()
    ));
    out
}

/// `tests/fixtures/store_v1` was written by the last build whose snapshots
/// (format version 1) carried the points of removed trajectories: five of
/// them in the newest image, one more removed by the WAL tail. It still
/// opens and answers with the recorded bits; the removed ids come back
/// retired; and the next checkpoint writes a version-2 image, which
/// reopens to the same answers.
#[test]
fn a_version_1_store_with_removed_trajectories_still_opens() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_v1");
    let want = std::fs::read_to_string(fixture.join("FINGERPRINT.txt")).unwrap();
    let scratch = Scratch::new("store-v1");
    let dir = scratch.join("store");
    copy_dir(&fixture, &dir);

    let mut opened = Engine::open(&dir).unwrap();
    assert_eq!(fixture_fingerprint(&mut opened), want);
    for removed in [3u32, 5, 17, 18, 40, 61] {
        assert!(!opened.is_live(removed));
        assert!(opened.users().try_get(removed).is_none(), "id {removed} kept its points");
    }
    assert_eq!(opened.users().present(), opened.live_users());

    let version = |path: &Path| {
        let raw = std::fs::read(path).unwrap();
        u16::from_le_bytes([raw[4], raw[5]])
    };
    assert_eq!(version(&dir.join("snapshot-00000000000000000003.tqs")), 1);
    assert_eq!(version(&opened.checkpoint().unwrap()), 2);
    drop(opened);
    let mut reopened = Engine::open(&dir).unwrap();
    assert_eq!(fixture_fingerprint(&mut reopened), want);
}
