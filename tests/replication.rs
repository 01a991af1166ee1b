//! End-to-end replication tests: a warm-standby follower bootstrapped
//! from a live primary serves **bit-identical** answers once caught up,
//! survives primary loss through promotion, and never panics on a
//! corrupted feed.
//!
//! The suite mirrors the serving tests' discipline: "identical" means
//! the answer's wire bytes (every `f64` by bit pattern) for ranked
//! results, and the chosen-set/value/served bytes for coverage results
//! (whose evaluation counters legitimately depend on how the served
//! table was built — incrementally on the primary, from scratch on the
//! follower).
//!
//! Followers are deliberately never [`Engine::warm`]ed: memo absorption
//! publishes an epoch with no WAL record, which would desynchronize the
//! follower's epoch counter from the primary's stamps.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use tq::core::persist::encode_update_batch;
use tq::core::writer::WriterOptions;
use tq::net::frame::write_frame;
use tq::net::proto::kind;
use tq::net::{
    bootstrap_follower, ingest, open_feed, FollowerParts, IngestEnd, ServerRole,
    DEFAULT_MAX_FRAME,
};
use tq::prelude::*;
use tq::repl::proto::ReplRecord;
use tq::store::{snapshot_files, Encode};

// ---------------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!(
            "tq-replication-test-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// Workload and comparison helpers
// ---------------------------------------------------------------------------

fn workload(seed: u64) -> (StreamScenario, FacilitySet) {
    let city = CityModel::synthetic(seed, 4, 4_000.0);
    let trace = stream_scenario(&city, StreamKind::Taxi, 80, 48, 0.4, seed);
    let routes = bus_routes(&city, 10, 6, 1_500.0, seed ^ 0xB05);
    (trace, routes)
}

/// A batch that is valid at any point after the stream: one brand-new
/// trajectory (replaying a stream batch would collide with itself).
fn newcomer_batch(seed: u64) -> Vec<Update> {
    let city = CityModel::synthetic(seed, 4, 4_000.0);
    vec![Update::Insert(taxi_trips(&city, 1, seed ^ 0x9E37).get(0).clone())]
}

fn builder_for(trace: &StreamScenario, routes: &FacilitySet, baseline: bool) -> EngineBuilder {
    let b = Engine::builder(ServiceModel::new(Scenario::Transit, 300.0))
        .users(trace.initial.clone())
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(8))
        .bounds(trace.bounds);
    if baseline {
        b.baseline()
    } else {
        b
    }
}

/// The exact wire bytes of an answer's result payload.
fn result_bits(answer: &Answer) -> Vec<u8> {
    let mut buf = BytesMut::new();
    answer.result.encode(&mut buf);
    buf.as_ref().to_vec()
}

/// The semantic bytes of an answer: ranked list bits, or the chosen
/// subset with its value and served count (coverage evaluation counters
/// depend on served-table history, which differs across nodes).
fn semantic_bits(answer: &Answer) -> Vec<u8> {
    match &answer.result {
        QueryResult::TopK(_) => result_bits(answer),
        QueryResult::MaxCov(out) => {
            let mut bytes = Vec::new();
            for id in &out.chosen {
                bytes.extend_from_slice(&id.to_le_bytes());
            }
            bytes.extend_from_slice(&out.value.to_bits().to_le_bytes());
            bytes.extend_from_slice(&(out.users_served as u64).to_le_bytes());
            bytes
        }
    }
}

fn query_mix() -> Vec<Query> {
    vec![
        Query::top_k(3),
        Query::top_k(1),
        Query::max_cov(2).algorithm(Algorithm::Greedy),
        Query::max_cov(3).algorithm(Algorithm::TwoStep),
    ]
}

// ---------------------------------------------------------------------------
// Follower harness: what `tqd --follow` does, in-process
// ---------------------------------------------------------------------------

/// A running follower: its server handle, the promotion/stop surface,
/// and the ingest thread applying the primary's feed.
struct Follower {
    handle: ServerHandle,
    parts: FollowerParts,
    ingest: thread::JoinHandle<()>,
}

/// Bootstraps a follower store in `dir` from the primary and starts it
/// serving; the ingest loop runs until the feed drops or the node stops
/// being a follower. The engine is deliberately not warmed (see the
/// module docs).
fn start_follower(dir: &Path, primary: &str) -> Follower {
    let boot = bootstrap_follower(dir, StoreConfig::default(), primary, &ConnectConfig::default())
        .expect("follower bootstrap");
    let handle = Server::start(
        boot.engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(dir.to_path_buf()),
            follow: Some(primary.to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let parts = handle.follower_parts();
    let mut stream = boot.stream;
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let loop_parts = parts.clone();
    let ingest = thread::spawn(move || {
        let done = || loop_parts.stopping() || !loop_parts.is_follower();
        // One connection's worth of feed; the tests drive reconnects
        // explicitly where they exercise them.
        match ingest(&mut stream, loop_parts.writer(), DEFAULT_MAX_FRAME, done) {
            Ok(_) | Err(_) => {}
        }
    });
    Follower {
        handle,
        parts,
        ingest,
    }
}

/// Polls the daemon at `addr` until its served epoch reaches `target`.
fn await_epoch(addr: &str, target: u64) -> u64 {
    let mut client = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let epoch = client.status().unwrap().info.epoch;
        if epoch >= target {
            return epoch;
        }
        assert!(
            Instant::now() < deadline,
            "follower stuck at epoch {epoch}, waiting for {target}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// Asserts both daemons answer the full query mix identically, from the
/// same epoch.
fn assert_identical_serving(primary_addr: &str, follower_addr: &str) {
    let mut primary = Client::connect(primary_addr).unwrap();
    let mut follower = Client::connect(follower_addr).unwrap();
    for query in query_mix() {
        let a = primary.query(query.clone()).unwrap();
        let b = follower.query(query).unwrap();
        assert_eq!(
            a.explain.snapshot_epoch, b.explain.snapshot_epoch,
            "primary and follower answered from different epochs"
        );
        assert_eq!(
            semantic_bits(&a),
            semantic_bits(&b),
            "follower diverged from the primary at epoch {}",
            a.explain.snapshot_epoch
        );
    }
}

// ---------------------------------------------------------------------------
// Catch-up + live identity, TQ-tree backend
// ---------------------------------------------------------------------------

#[test]
fn a_follower_bootstrapped_mid_stream_catches_up_and_serves_identical_bits() {
    let (trace, routes) = workload(41);
    let batches = trace.update_batches(8);
    assert!(batches.len() >= 4, "need a multi-batch stream");
    let scratch = Scratch::new("catchup");
    let primary_dir = scratch.0.join("primary");
    let follower_dir = scratch.0.join("follower");

    let mut engine = builder_for(&trace, &routes, false)
        .persist_with(&primary_dir, StoreConfig::default())
        .build()
        .unwrap();
    engine.warm();
    let primary = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(primary_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let primary_addr = primary.addr().to_string();

    // First half of the stream lands before the follower exists; its
    // bootstrap is a snapshot transfer plus WAL catch-up over these.
    let mut client = Client::connect(&primary_addr).unwrap();
    let split = batches.len() / 2;
    for batch in &batches[..split] {
        client.apply(batch.clone()).unwrap();
    }

    let follower = start_follower(&follower_dir, &primary_addr);
    let follower_addr = follower.handle.addr().to_string();

    // Second half streams live while the follower ingests.
    let mut last_ack = 0;
    for batch in &batches[split..] {
        last_ack = client.apply(batch.clone()).unwrap().epoch;
    }
    assert_eq!(await_epoch(&follower_addr, last_ack), last_ack);

    // The follower identifies itself and names its primary.
    let follower_client = Client::connect(&follower_addr).unwrap();
    assert_eq!(follower_client.info().role, ServerRole::Follower);
    assert_eq!(follower_client.info().primary, primary_addr);
    drop(follower_client);

    assert_identical_serving(&primary_addr, &follower_addr);

    // The primary's hub saw the follower acknowledge everything shipped.
    // (The follower publishes the batch just before its ack lands back,
    // so give the last in-flight ack a moment.)
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = primary.repl_status().expect("primary serves feeds");
        if status.followers.len() == 1 && status.min_acked == Some(status.last_shipped) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower lag never reached zero: {status:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }

    // Direct writes to the follower's funnel are refused with a typed
    // error naming the primary.
    let refused = follower
        .parts
        .writer()
        .apply(batches[0].clone())
        .expect_err("a follower refuses direct writes");
    assert!(
        refused.to_string().contains(&primary_addr),
        "read-only refusal must name the primary: {refused}"
    );

    // A client writing through the follower is redirected to the primary
    // and succeeds; the write then replicates back.
    let mut writer_client = Client::connect(&follower_addr).unwrap();
    let redirected = writer_client.apply(newcomer_batch(41)).unwrap().epoch;
    assert!(redirected > last_ack, "redirected write must land on the primary");
    assert_eq!(await_epoch(&follower_addr, redirected), redirected);
    assert_identical_serving(&primary_addr, &follower_addr);

    assert_eq!(follower.handle.panics(), 0);
    assert_eq!(primary.panics(), 0);
    follower.handle.shutdown().unwrap();
    follower.ingest.join().unwrap();
    primary.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Snapshot bootstrap on the baseline backend (static: query identity)
// ---------------------------------------------------------------------------

#[test]
fn a_follower_serves_identical_bits_on_the_baseline_backend() {
    let (trace, routes) = workload(43);
    let scratch = Scratch::new("baseline");
    let primary_dir = scratch.0.join("primary");
    let follower_dir = scratch.0.join("follower");

    // Not warmed: the baseline primary takes no updates, so a memo epoch
    // would leave the follower one (recordless) epoch behind forever.
    let engine = builder_for(&trace, &routes, true)
        .persist_with(&primary_dir, StoreConfig::default())
        .build()
        .unwrap();
    let epoch = engine.epoch();
    let primary = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(primary_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let primary_addr = primary.addr().to_string();

    let follower = start_follower(&follower_dir, &primary_addr);
    let follower_addr = follower.handle.addr().to_string();
    assert_eq!(await_epoch(&follower_addr, epoch), epoch);
    assert_identical_serving(&primary_addr, &follower_addr);

    assert_eq!(follower.handle.panics(), 0);
    follower.handle.shutdown().unwrap();
    follower.ingest.join().unwrap();
    primary.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Empty-store bootstrap lands on the primary's exact epoch
// ---------------------------------------------------------------------------

#[test]
fn an_empty_store_bootstraps_to_the_primary_epoch_and_reopens_its_feed() {
    let (trace, routes) = workload(47);
    let batches = trace.update_batches(4);
    let scratch = Scratch::new("bootstrap");
    let primary_dir = scratch.0.join("primary");
    let follower_dir = scratch.0.join("follower");

    // An idle, unwarmed primary: the snapshot transfer alone must bring
    // the follower to the identical epoch.
    let engine = builder_for(&trace, &routes, false)
        .persist_with(&primary_dir, StoreConfig::default())
        .build()
        .unwrap();
    let built_epoch = engine.epoch();
    let primary = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(primary_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let primary_addr = primary.addr().to_string();

    let boot = bootstrap_follower(
        &follower_dir,
        StoreConfig::default(),
        &primary_addr,
        &ConnectConfig::default(),
    )
    .unwrap();
    assert_eq!(boot.engine.epoch(), built_epoch);
    // Abandon the bootstrap feed connection entirely: the running-daemon
    // reconnect path (`open_feed`) must be able to replace it.
    drop(boot.stream);

    let handle = Server::start(
        boot.engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(follower_dir.clone()),
            follow: Some(primary_addr.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let parts = handle.follower_parts();
    let follower_addr = handle.addr().to_string();

    let mut stream = open_feed(&primary_addr, built_epoch, &ConnectConfig::default()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let loop_parts = parts.clone();
    let ingest_thread = thread::spawn(move || {
        let done = || loop_parts.stopping() || !loop_parts.is_follower();
        let _ = ingest(&mut stream, loop_parts.writer(), DEFAULT_MAX_FRAME, done);
    });

    let mut client = Client::connect(&primary_addr).unwrap();
    let mut last_ack = 0;
    for batch in &batches {
        last_ack = client.apply(batch.clone()).unwrap().epoch;
    }
    assert_eq!(await_epoch(&follower_addr, last_ack), last_ack);
    assert_identical_serving(&primary_addr, &follower_addr);

    handle.shutdown().unwrap();
    ingest_thread.join().unwrap();
    primary.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Primary killed → follower promoted → bit-identical to the dead store
// ---------------------------------------------------------------------------

#[test]
fn a_promoted_follower_is_bit_identical_to_reopening_the_dead_primarys_store() {
    let (trace, routes) = workload(53);
    let batches = trace.update_batches(8);
    let scratch = Scratch::new("promote");
    let primary_dir = scratch.0.join("primary");
    let follower_dir = scratch.0.join("follower");

    // checkpoint_every: 0 — the dead primary's store holds the startup
    // snapshot plus the full WAL tail, so the reopen replays everything.
    let config = StoreConfig {
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let mut engine = builder_for(&trace, &routes, false)
        .persist_with(&primary_dir, config)
        .build()
        .unwrap();
    engine.warm();
    let primary = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(primary_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let primary_addr = primary.addr().to_string();

    let follower = start_follower(&follower_dir, &primary_addr);
    let follower_addr = follower.handle.addr().to_string();

    let mut client = Client::connect(&primary_addr).unwrap();
    let mut last_ack = 0;
    for batch in &batches {
        last_ack = client.apply(batch.clone()).unwrap().epoch;
    }
    assert_eq!(await_epoch(&follower_addr, last_ack), last_ack);
    drop(client);

    // SIGKILL stand-in: no drain, no final checkpoint.
    let killed = primary.abort().unwrap();
    let epoch_at_kill = killed.epoch();
    let live_at_kill = killed.live_users();
    drop(killed);
    follower.ingest.join().unwrap();

    // Promote over the wire — the `tq promote --connect` path.
    let mut follower_client = Client::connect(&follower_addr).unwrap();
    let promoted = follower_client.promote().unwrap();
    assert_eq!(promoted.epoch, epoch_at_kill);

    // Ground truth: reopen the dead primary's store in-process.
    let recovered = Engine::open(&primary_dir).unwrap();
    assert_eq!(recovered.epoch(), epoch_at_kill);
    assert_eq!(recovered.live_users(), live_at_kill);
    let truth = recovered.reader().snapshot();
    for query in query_mix() {
        let networked = follower_client.query(query.clone()).unwrap();
        assert_eq!(networked.explain.snapshot_epoch, epoch_at_kill);
        let expected = truth.run(query).unwrap();
        assert_eq!(
            semantic_bits(&networked),
            semantic_bits(&expected),
            "promoted follower diverged from the dead primary's store"
        );
    }

    // The promoted node now takes writes directly.
    let ack = follower_client.apply(newcomer_batch(53)).unwrap();
    assert_eq!(ack.epoch, epoch_at_kill + 1);
    assert!(!follower.parts.is_follower());

    assert_eq!(follower.handle.panics(), 0);
    follower.handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Feed torture: truncations and bit flips never panic the ingest loop
// ---------------------------------------------------------------------------

/// An in-memory feed: `ingest` reads the canned bytes and its acks are
/// swallowed.
struct FeedStream {
    input: std::io::Cursor<Vec<u8>>,
}

impl Read for FeedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for FeedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_ingest(writer: &WriterHandle, bytes: Vec<u8>) -> Result<IngestEnd, NetError> {
    let mut stream = FeedStream {
        input: std::io::Cursor::new(bytes),
    };
    ingest(&mut stream, writer, DEFAULT_MAX_FRAME, || false)
}

#[test]
fn ingest_survives_every_truncation_and_seeded_bit_flips_without_panicking() {
    let (trace, routes) = workload(59);
    let batches = trace.update_batches(4);
    let engine = builder_for(&trace, &routes, false).build().unwrap();
    let base_epoch = engine.epoch();

    // A well-formed feed: the opening position marker, then one record
    // per batch at consecutive stamps.
    let mut feed: Vec<u8> = Vec::new();
    let mut body = BytesMut::new();
    ReplRecord {
        epoch: base_epoch,
        payload: bytes::Bytes::new(),
    }
    .encode(&mut body);
    write_frame(&mut feed, kind::S_REPL_RECORD, body.as_ref()).unwrap();
    for (i, batch) in batches.iter().enumerate() {
        let mut body = BytesMut::new();
        ReplRecord {
            epoch: base_epoch + 1 + i as u64,
            payload: encode_update_batch(batch),
        }
        .encode(&mut body);
        write_frame(&mut feed, kind::S_REPL_RECORD, body.as_ref()).unwrap();
    }

    let reader = engine.reader();
    let hub = WriterHub::spawn(engine);
    let writer = hub.handle();

    // Every truncation point: applied prefixes replay as duplicates on
    // later rounds (the stamp dedup), torn frames surface typed errors.
    for cut in 0..=feed.len() {
        let end = run_ingest(&writer, feed[..cut].to_vec());
        match end {
            Ok(IngestEnd::Disconnected) => {}
            Ok(IngestEnd::Stopped) => panic!("no stop was requested"),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
    // The final full-length round left the engine fully caught up.
    assert_eq!(reader.epoch(), base_epoch + batches.len() as u64);

    // Seeded single-bit flips: the CRC (or the header validation) must
    // reject every one as a typed error — never a panic, never a
    // silently applied corruption (the engine is already at the final
    // stamp, so any applied record would be a dedup no-op anyway).
    let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut flipped_errors = 0usize;
    for _ in 0..400 {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let pos = (seed as usize) % feed.len();
        let bit = (seed >> 32) % 8;
        let mut copy = feed.clone();
        copy[pos] ^= 1 << bit;
        match run_ingest(&writer, copy) {
            Err(e) => {
                assert!(!e.to_string().is_empty());
                flipped_errors += 1;
            }
            Ok(IngestEnd::Disconnected) => {
                // A flip past the last fully-read frame can go unread.
            }
            Ok(IngestEnd::Stopped) => panic!("no stop was requested"),
        }
    }
    assert!(
        flipped_errors > 300,
        "almost every bit flip must surface a typed error (got {flipped_errors}/400)"
    );
    assert_eq!(reader.epoch(), base_epoch + batches.len() as u64);

    let final_engine = hub.stop(false).unwrap();
    assert_eq!(final_engine.epoch(), base_epoch + batches.len() as u64);
}

// ---------------------------------------------------------------------------
// Age-based checkpointing fires from the writer's idle tick
// ---------------------------------------------------------------------------

#[test]
fn an_idle_writer_checkpoints_a_wal_tail_older_than_the_age_threshold() {
    let (trace, routes) = workload(61);
    let batches = trace.update_batches(2);
    let scratch = Scratch::new("age");
    let store_dir = scratch.0.join("store");

    // Threshold checkpoints off; only the age policy may compact.
    let config = StoreConfig {
        checkpoint_every: 0,
        checkpoint_max_age: Some(Duration::from_millis(150)),
        ..StoreConfig::default()
    };
    let engine = builder_for(&trace, &routes, false)
        .persist_with(&store_dir, config)
        .build()
        .unwrap();
    let snapshots_before = snapshot_files(&store_dir).unwrap().len();

    let hub = WriterHub::spawn_with(
        engine,
        WriterOptions {
            tick: Some(Duration::from_millis(25)),
            ..WriterOptions::default()
        },
    );
    let writer = hub.handle();
    let ack = writer.apply(batches[0].clone()).unwrap();
    assert_eq!(ack.wal_batches, 1, "no threshold checkpoint may fire");

    // The idle tick must notice the aging WAL tail and checkpoint it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if snapshot_files(&store_dir).unwrap().len() > snapshots_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "age-based checkpoint never fired from the idle tick"
        );
        thread::sleep(Duration::from_millis(25));
    }

    // The WAL was compacted: the next batch starts a fresh tail.
    let ack = writer.apply(batches[1].clone()).unwrap();
    assert_eq!(ack.wal_batches, 1, "the aged WAL tail was not compacted");
    hub.stop(false).unwrap();
}
