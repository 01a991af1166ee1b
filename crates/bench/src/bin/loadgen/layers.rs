//! The one file of the benchmark that calls into the workspace crates.
//!
//! Everything the workloads drive (`Dataset`, `Serving`, `Conn`, `Sink`,
//! `Recovered`) and every layer probe of the traced pass lives here, one
//! function per per-layer metric row, so a later change to a crate's API
//! touches this file and no other. The other files see only the
//! vocabulary types re-exported below.

pub use tq_core::{Answer, Query, Update};

use bytes::BytesMut;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tq_core::engine::{CacheStatus, Engine, EngineBuilder, QueryResult, Reader, Snapshot};
use tq_core::maxcov::{greedy, ServedTable};
use tq_core::persist::encode_update_batch;
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTreeConfig};
use tq_core::writer::WriterHub;
use tq_core::{evaluate_masks, top_k_facilities, StoreConfig, SyncPolicy};
use tq_datagen::{bus_routes, presets, taxi_trips};
use tq_geometry::Rect;
use tq_net::frame::{frame, read_frame, read_frame_interruptible, write_frame, Polled};
use tq_net::proto::kind;
use tq_net::{
    open_feed, Client, ConnectConfig, Request, Response, Server, ServerConfig, ServerHandle,
    DEFAULT_MAX_FRAME,
};
use tq_repl::{ReplAck, ReplRecord, ReplicationHub};
use tq_store::codec::Reader as CodecReader;
use tq_store::crc::crc32;
use tq_store::{snapshot_files, Store};
use tq_trajectory::{FacilitySet, Trajectory, UserSet};

/// Events per update batch, on every workload.
pub const BATCH_EVENTS: usize = 50;
/// WAL batches between foreground checkpoints. One ack in 50 carries a
/// checkpoint, so the p99 of the acks is the median checkpoint stall —
/// the steadiest point of the stalls' distribution, not its edge.
pub const CHECKPOINT_EVERY: usize = 50;
/// Distinct trajectories the update stream's arrivals cycle through.
const ARRIVAL_POOL: usize = 16_384;
/// The seed of the initial state — users and routes — on every run, the
/// one the repo's other serving benches use. `--seed` drives the traffic
/// (arrivals, expiries, candidate subsets, query order), not the state:
/// route placement alone moves the cost of an apply or of a miss by tens
/// of percent, which would drown a regression in the choice of seed.
const STATE_SEED: u64 = 0x9A5;

/// The flush policy every durable store of the benchmark runs under,
/// stamped into each result file.
pub const FLUSH_POLICY: &str =
    "SyncPolicy::Always (fsync per WAL record), foreground checkpoint every 50 batches, 2 snapshots kept";

fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Always,
        checkpoint_every: CHECKPOINT_EVERY,
        keep_snapshots: 2,
        ..StoreConfig::default()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Mean ns per call of `f` over `reps` back-to-back calls — for calls too
/// short for one clock read each.
fn time_ns<T>(reps: u32, mut f: impl FnMut() -> T) -> u64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    nanos(start.elapsed()) / u64::from(reps)
}

// ---------------------------------------------------------------------------
// datagen: the seeded inputs
// ---------------------------------------------------------------------------

/// A workload's generated inputs: NYT-like two-point users, bus routes,
/// and the pool the update stream draws its arrivals from.
pub struct Dataset {
    users: UserSet,
    facilities: FacilitySet,
    pool: UserSet,
    bounds: Rect,
}

impl Dataset {
    /// `datagen.generate_ms`: the fixed initial state, and the arrival
    /// pool from the seed.
    pub fn generate(users: usize, routes: usize, stops: usize, seed: u64) -> Dataset {
        let city = presets::ny_city();
        Dataset {
            users: taxi_trips(&city, users, STATE_SEED),
            facilities: bus_routes(
                &city,
                routes,
                stops,
                presets::ROUTE_LENGTH,
                STATE_SEED ^ 0xB05,
            ),
            pool: taxi_trips(&city, ARRIVAL_POOL, seed ^ 0x05EE_DA11),
            bounds: city.bounds,
        }
    }

    pub fn users(&self) -> usize {
        self.users.len()
    }

    pub fn routes(&self) -> usize {
        self.facilities.len()
    }

    /// The `nth` arrival of the update stream. The engine numbers inserts
    /// densely, so it will live under id `users() + nth`.
    pub fn arrival(&self, nth: usize) -> Update {
        Update::Insert(self.arrival_trajectory(nth).clone())
    }

    fn arrival_trajectory(&self, nth: usize) -> &Trajectory {
        self.pool.get((nth % self.pool.len()) as u32)
    }

    fn trajectory(&self, id: u32) -> &Trajectory {
        match (id as usize).checked_sub(self.users.len()) {
            None => self.users.get(id),
            Some(nth) => self.arrival_trajectory(nth),
        }
    }

    /// Bytes of user data behind the live ids: 16 B per point.
    pub fn live_bytes(&self, live_ids: &[u32]) -> u64 {
        live_ids
            .iter()
            .map(|&id| 16 * self.trajectory(id).len() as u64)
            .sum()
    }

    fn builder(&self, users: UserSet) -> EngineBuilder {
        Engine::builder(ServiceModel::new(Scenario::Transit, presets::DEFAULT_PSI))
            .users(users)
            .facilities(self.facilities.clone())
            .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(64))
            .bounds(self.bounds)
    }

    /// `core.tqtree.build_ms`: `Engine::builder().build()` in memory.
    pub fn build_in_memory_ns(&self) -> u64 {
        let users = self.users.clone();
        let start = Instant::now();
        let engine = self.builder(users).build().expect("generated inputs build");
        let took = nanos(start.elapsed());
        drop(engine);
        took
    }

    /// The answers a freshly built engine over exactly `live_ids` (in
    /// ascending order) gives — the reference every ingest run ends on.
    pub fn fresh_answers(&self, live_ids: &[u32], queries: &[Query]) -> Vec<Answer> {
        debug_assert!(live_ids.windows(2).all(|w| w[0] < w[1]));
        let users = UserSet::from_vec(
            live_ids
                .iter()
                .map(|&id| self.trajectory(id).clone())
                .collect(),
        );
        let mut engine = self.builder(users).build().expect("the live set builds");
        queries
            .iter()
            .map(|q| engine.run(q.clone()).expect("reference query"))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The serving node: engine + store + tq-net server, in process
// ---------------------------------------------------------------------------

/// How long each step of [`Serving::start`] took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Durable `Engine::builder().build()`: index build + store bootstrap.
    pub build_ns: u64,
    /// `core.engine.warm_ms`.
    pub warm_ns: u64,
    /// The checkpoint that puts the warmed table into the base snapshot.
    pub checkpoint_ns: u64,
    /// `net.server.start_ms`.
    pub start_ns: u64,
}

/// A durable engine behind an in-process `tq_net::Server` — the loop
/// `tqd` runs — serving replication feeds from its store directory.
pub struct Serving {
    handle: ServerHandle<Engine>,
    reader: Reader,
    addr: String,
    dir: PathBuf,
}

impl Serving {
    pub fn start(ds: &Dataset, dir: &Path) -> (Serving, SetupTimes) {
        let mut times = SetupTimes::default();
        let users = ds.users.clone();
        let t = Instant::now();
        let mut engine = ds
            .builder(users)
            .persist_with(dir, store_config())
            .build()
            .expect("generated inputs build");
        times.build_ns = nanos(t.elapsed());
        let t = Instant::now();
        engine.warm();
        times.warm_ns = nanos(t.elapsed());
        let t = Instant::now();
        engine.checkpoint().expect("base checkpoint");
        times.checkpoint_ns = nanos(t.elapsed());
        let reader = engine.reader();
        let t = Instant::now();
        let handle = Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                repl_dir: Some(dir.to_path_buf()),
                ..ServerConfig::default()
            },
        )
        .expect("ephemeral loopback bind");
        times.start_ns = nanos(t.elapsed());
        let addr = handle.addr().to_string();
        (
            Serving {
                handle,
                reader,
                addr,
                dir: dir.to_path_buf(),
            },
            times,
        )
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// The same query on the in-process snapshot of the current epoch.
    pub fn local_answer(&self, query: &Query) -> Answer {
        self.reader
            .snapshot()
            .run(query.clone())
            .expect("generated queries are valid")
    }

    /// `core.tqtree.nodes`, `core.tqtree.depth`.
    pub fn tree_shape(&self) -> (usize, usize) {
        let snap = self.reader.snapshot();
        let tree = snap.tree().expect("TQ-tree backend");
        (tree.node_count(), tree.height())
    }

    /// Replication feed positions: `(last shipped, lowest acked, any feed
    /// overflowed)`.
    pub fn feed_positions(&self) -> (u64, Option<u64>, bool) {
        let status = self.handle.repl_status().expect("the node serves feeds");
        (
            status.last_shipped,
            status.min_acked,
            status.followers.iter().any(|f| f.overflowed),
        )
    }

    pub fn handler_panics(&self) -> u64 {
        self.handle.panics()
    }

    /// Bytes of the durable artifacts in the store directory: snapshot
    /// files and the WAL.
    pub fn store_bytes(&self) -> u64 {
        let len = |p: PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());
        let snapshots: u64 = snapshot_files(&self.dir)
            .expect("store directory lists")
            .into_iter()
            .map(|(_, path)| len(path))
            .sum();
        snapshots + len(self.dir.join(tq_store::store::WAL_FILE))
    }

    /// The kill stand-in: stop without a final checkpoint and close the
    /// store. What the directory holds afterwards is what a crash leaves.
    pub fn abort(self) {
        drop(
            self.handle
                .abort()
                .expect("the writer thread hands the engine back"),
        );
    }
}

// ---------------------------------------------------------------------------
// tq-net client
// ---------------------------------------------------------------------------

pub struct Conn(Client);

/// What an apply acknowledgement says.
pub struct Acked {
    pub epoch: u64,
    /// Ids the engine assigned to the batch's inserts, in event order.
    pub inserted: Vec<u32>,
    /// WAL batches pending since the last checkpoint.
    pub wal_batches: u64,
}

impl Conn {
    /// `net.client.connect_us`: dial + handshake.
    pub fn connect(addr: &str) -> Conn {
        Conn(Client::connect(addr).expect("loopback connect"))
    }

    /// `net.client.roundtrip_us`: one query round trip. Transport errors
    /// and typed refusals come back as text.
    pub fn query(&mut self, query: Query) -> Result<Answer, String> {
        self.0.query(query).map_err(|e| e.to_string())
    }

    /// `net.client.apply_roundtrip_us`: one batch, send → ack.
    pub fn apply(&mut self, batch: Vec<Update>) -> Result<Acked, String> {
        let ack = self.0.apply(batch).map_err(|e| e.to_string())?;
        Ok(Acked {
            epoch: ack.epoch,
            inserted: ack.outcome.map(|o| o.inserted).unwrap_or_default(),
            wal_batches: ack.wal_batches,
        })
    }

    /// `obs.scrape_us`: the metrics round trip; returns the text's length.
    pub fn scrape(&mut self) -> Result<usize, String> {
        self.0
            .metrics()
            .map(|text| text.len())
            .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Answers: bits, facts
// ---------------------------------------------------------------------------

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Combines two digests, order-sensitively.
pub fn fold_digest(h: u64, v: u64) -> u64 {
    fold(fold(h, v >> 32), v & 0xFFFF_FFFF)
}

/// FNV-style fold of everything that makes two answers the same answer:
/// ids, order, and every `f64` by its bits. The epoch and the timings in
/// `Explain` are not part of it.
pub fn digest(answer: &Answer) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    match &answer.result {
        QueryResult::TopK(ranked) => {
            h = fold(h, 1);
            for (id, value) in ranked {
                h = fold(fold(h, u64::from(*id)), value.to_bits());
            }
        }
        QueryResult::MaxCov(cover) => {
            h = fold(h, 2);
            for id in &cover.chosen {
                h = fold(h, u64::from(*id));
            }
            h = fold(fold(h, cover.value.to_bits()), cover.users_served as u64);
        }
    }
    h
}

/// How the memo served a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memo {
    Hit,
    Miss,
    Unused,
}

/// The counters `Answer::explain` carries.
#[derive(Debug, Clone, Copy)]
pub struct Facts {
    pub epoch: u64,
    pub memo: Memo,
    pub nodes: u64,
    pub tested: u64,
    pub pruned: u64,
    pub dist_checks: u64,
    pub relaxations: u64,
}

pub fn facts(answer: &Answer) -> Facts {
    let e = &answer.explain;
    Facts {
        epoch: e.snapshot_epoch,
        memo: match e.cache {
            CacheStatus::Hit => Memo::Hit,
            CacheStatus::Miss => Memo::Miss,
            CacheStatus::Unused => Memo::Unused,
        },
        nodes: e.eval.nodes_visited as u64,
        tested: e.eval.items_tested as u64,
        pruned: e.eval.items_pruned as u64,
        dist_checks: e.eval.distance_checks as u64,
        relaxations: e.relaxations as u64,
    }
}

// ---------------------------------------------------------------------------
// repl: the ack-only follower
// ---------------------------------------------------------------------------

/// An ack-only replication sink: drains the feed and acknowledges every
/// record without applying anything, so the primary pays for shipping
/// and nothing on this box pays for a second apply.
pub struct Sink {
    stop: Arc<AtomicBool>,
    /// Returns the records acknowledged.
    thread: JoinHandle<u64>,
}

impl Sink {
    pub fn attach(serving: &Serving) -> Sink {
        let mut feed = open_feed(serving.addr(), serving.epoch(), &ConnectConfig::default())
            .expect("the feed opens");
        feed.set_read_timeout(Some(Duration::from_millis(20)))
            .expect("read timeout");
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut acknowledged = 0;
            loop {
                let polled = read_frame_interruptible(&mut feed, DEFAULT_MAX_FRAME, || {
                    stopping.load(Ordering::SeqCst)
                });
                let Ok(Polled::Frame { kind: k, body }) = polled else {
                    return acknowledged;
                };
                if k != kind::S_REPL_RECORD {
                    return acknowledged;
                }
                let Ok(record) = ReplRecord::decode(&mut CodecReader::new(body)) else {
                    return acknowledged;
                };
                let mut ack = BytesMut::new();
                ReplAck {
                    epoch: record.epoch,
                }
                .encode(&mut ack);
                if write_frame(&mut feed, kind::REPL_ACK, ack.as_ref()).is_err() {
                    return acknowledged;
                }
                acknowledged += 1;
            }
        });
        Sink { stop, thread }
    }

    /// Stops the sink; returns how many records it acknowledged.
    pub fn detach(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("the sink thread panicked")
    }
}

fn frame_len(body: usize) -> u64 {
    (tq_net::frame::HEADER_LEN + body + tq_net::frame::TRAILER_LEN) as u64
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// The engine reopened from a store directory.
pub struct Recovered(Engine);

impl Recovered {
    /// `Engine::open`: newest valid snapshot + WAL replay.
    pub fn open(dir: &Path) -> Result<Recovered, String> {
        Engine::open_with(dir, store_config())
            .map(Recovered)
            .map_err(|e| e.to_string())
    }

    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    pub fn answer(&mut self, query: Query) -> Answer {
        self.0.run(query).expect("generated queries are valid")
    }

    pub fn live_users(&self) -> usize {
        self.0.live_users()
    }
}

/// `store.recover.open_ms`: `Store::open` alone — snapshot read + CRC and
/// the WAL's valid prefix, no engine decode.
pub fn store_open_ns(dir: &Path) -> u64 {
    let start = Instant::now();
    let opened = Store::open(dir, store_config()).expect("the store opens");
    let took = nanos(start.elapsed());
    drop(opened);
    took
}

// ---------------------------------------------------------------------------
// tq-obs: the program's own counters
// ---------------------------------------------------------------------------

/// A point-in-time copy of the process-global metrics registry. The
/// registry outlives every set-up of a run, so callers subtract two.
pub struct Obs(tq_obs::MetricsSnapshot);

pub fn obs() -> Obs {
    Obs(tq_obs::snapshot())
}

impl Obs {
    /// A counter summed over its labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter_total(name)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.0.gauge(name, "").unwrap_or(0)
    }

    /// `(count, sum_ns, p99_ns, max_ns)` of a histogram.
    pub fn histogram(&self, name: &str) -> (u64, u64, u64, u64) {
        self.0
            .histogram(name, "")
            .map_or((0, 0, 0, 0), |h| (h.count, h.sum_ns, h.p99_ns, h.max_ns))
    }
}

// ---------------------------------------------------------------------------
// Layer probes of the read path
// ---------------------------------------------------------------------------

/// One read operation taken apart: each layer's public function called
/// directly on the operation's real payload. Times are ns per call.
#[derive(Debug, Clone, Copy)]
pub struct ReadParts {
    /// `net.proto.request_encode_ns`: `Request::to_frame` + `frame::frame`.
    pub request_encode_ns: u64,
    /// `net.frame.request_decode_ns`: `read_frame` (header + CRC) over an
    /// in-memory cursor + `Request::from_frame`.
    pub request_decode_ns: u64,
    /// `core.engine.reader_snapshot_ns`: `Reader::snapshot`.
    pub snapshot_ns: u64,
    /// `core.engine.run_*`: `Snapshot::run`.
    pub run_ns: u64,
    /// `net.proto.answer_encode_ns`.
    pub answer_encode_ns: u64,
    /// `net.frame.answer_decode_ns`.
    pub answer_decode_ns: u64,
    /// `net.request_bytes`, `net.answer_bytes`: whole frames.
    pub request_bytes: u64,
    pub answer_bytes: u64,
    pub facts: Facts,
}

/// Calls per clock read for the sub-microsecond codec functions.
const CODEC_REPS: u32 = 16;

pub fn read_parts(serving: &Serving, query: &Query) -> ReadParts {
    let request = Request::Query(query.clone());
    let encode_request = || {
        let (k, body) = request.to_frame();
        frame(k, body.as_ref())
    };
    let request_wire = encode_request();
    let request_encode_ns = time_ns(CODEC_REPS, encode_request);
    let request_decode_ns = time_ns(CODEC_REPS, || {
        let (k, body) = read_frame(&mut Cursor::new(request_wire.as_ref()), DEFAULT_MAX_FRAME)
            .expect("own frame reads back");
        Request::from_frame(k, body).expect("own frame decodes")
    });
    let snapshot_ns = time_ns(CODEC_REPS, || serving.reader.snapshot());
    let snap = serving.reader.snapshot();
    let start = Instant::now();
    let answer = snap
        .run(query.clone())
        .expect("generated queries are valid");
    let mut run_ns = nanos(start.elapsed());
    if run_ns < 20_000 {
        run_ns = time_ns(CODEC_REPS, || snap.run(query.clone()).expect("valid"));
    }
    let facts = facts(&answer);
    let response = Response::Answer(Box::new(answer));
    let encode_answer = || {
        let (k, body) = response.to_frame();
        frame(k, body.as_ref())
    };
    let answer_wire = encode_answer();
    let answer_encode_ns = time_ns(CODEC_REPS, encode_answer);
    let answer_decode_ns = time_ns(CODEC_REPS, || {
        let (k, body) = read_frame(&mut Cursor::new(answer_wire.as_ref()), DEFAULT_MAX_FRAME)
            .expect("own frame reads back");
        Response::from_frame(k, body).expect("own frame decodes")
    });
    ReadParts {
        request_encode_ns,
        request_decode_ns,
        snapshot_ns,
        run_ns,
        answer_encode_ns,
        answer_decode_ns,
        request_bytes: request_wire.len() as u64,
        answer_bytes: answer_wire.len() as u64,
        facts,
    }
}

/// Direct calls into the evaluation kernels on the current snapshot, one
/// candidate subset at a time; ns per call.
pub struct EvalParts {
    /// `core.topk.search_us`: `top_k_facilities` on `snapshot.tree()` over
    /// the subset.
    pub topk_search_ns: u64,
    /// `core.maxcov.table_build_us`: `ServedTable` build for the subset.
    pub table_build_ns: u64,
    /// `core.eval.masks_us_per_facility`: `evaluate_masks`, per facility
    /// of the subset.
    pub masks_ns_per_facility: u64,
}

pub fn eval_parts(serving: &Serving, subset: &[u32], k: usize) -> EvalParts {
    let snap = serving.reader.snapshot();
    let tree = snap.tree().expect("TQ-tree backend");
    let (users, model, all) = (snap.users(), snap.model(), snap.facilities());
    let sub = FacilitySet::from_vec(subset.iter().map(|&id| all.get(id).clone()).collect());
    tq_core::parallel::with_threads(1, || {
        let t = Instant::now();
        std::hint::black_box(top_k_facilities(tree, users, model, &sub, k));
        let topk_search_ns = nanos(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(ServedTable::build_for(tree, users, model, all, subset));
        let table_build_ns = nanos(t.elapsed());
        let t = Instant::now();
        for (_, facility) in sub.iter() {
            std::hint::black_box(evaluate_masks(tree, users, model, facility));
        }
        EvalParts {
            topk_search_ns,
            table_build_ns,
            masks_ns_per_facility: nanos(t.elapsed()) / subset.len() as u64,
        }
    })
}

/// `core.maxcov.greedy_us`: `maxcov::greedy(k)` over the frozen
/// full-facility table — the pure mask-arena kernel.
pub fn greedy_ns(serving: &Serving, k: usize) -> u64 {
    let snap: Arc<Snapshot> = serving.reader.snapshot();
    let table = snap.full_table().expect("the node was warmed");
    tq_core::parallel::with_threads(1, || {
        let t = Instant::now();
        std::hint::black_box(greedy(table, snap.users(), snap.model(), k));
        nanos(t.elapsed())
    })
}

// ---------------------------------------------------------------------------
// Layer probes of the write path
// ---------------------------------------------------------------------------

/// One apply taken apart; ns per call.
#[derive(Debug, Clone, Copy)]
pub struct WriteParts {
    /// `net.proto.apply_encode_us`: `Request::Apply` → whole frame.
    pub apply_encode_ns: u64,
    /// `net.frame.apply_decode_us`: `read_frame` + `Request::from_frame`.
    pub apply_decode_ns: u64,
    /// `core.engine.apply_compute_us`: `Engine::apply` on a non-durable
    /// clone.
    pub compute_ns: u64,
    /// `core.writer.hop_us`: one request/reply through an in-process
    /// `WriterHub` that costs the writer thread nothing (`promote` on a
    /// writable hub): channel send, thread wake, reply.
    pub hop_ns: u64,
    /// `core.engine.apply_durable_us`: `Engine::apply` on the durable
    /// engine (WAL append + fsync, and every 50th a checkpoint, inside).
    pub durable_ns: u64,
    /// `core.wire.batch_encode_us`: `encode_update_batch`.
    pub batch_encode_ns: u64,
    /// `store.wal.append_us`: `Store::append_batch` under
    /// `SyncPolicy::Always` on a scratch store.
    pub wal_append_ns: u64,
    /// `repl.hub.publish_ns`: `ReplicationHub::publish`, one feed.
    pub publish_ns: u64,
}

/// The bench the write path is taken apart on: the recovered durable
/// engine, an in-memory clone of it, a writer hub, a scratch WAL and a
/// replication hub with one registered feed. Both engines are fed the
/// same batches, so they stay the same state.
pub struct WriteLab {
    durable: Recovered,
    direct: Engine,
    hub: Option<WriterHub<Engine>>,
    scratch: Store,
    scratch_epoch: u64,
    repl: Arc<ReplicationHub>,
    feed: std::sync::mpsc::Receiver<ReplRecord>,
}

impl WriteLab {
    pub fn new(durable: Recovered, scratch_dir: &Path) -> WriteLab {
        let direct = durable.0.clone();
        let hub = WriterHub::spawn(durable.0.clone());
        let scratch = Store::create(scratch_dir, store_config()).expect("scratch store");
        let repl = ReplicationHub::new(None);
        let (_, feed) = repl.register("loadgen-probe");
        WriteLab {
            durable,
            direct,
            hub: Some(hub),
            scratch,
            scratch_epoch: 0,
            repl,
            feed,
        }
    }

    pub fn live_users(&self) -> usize {
        self.durable.live_users()
    }

    pub fn take_apart(&mut self, batch: &[Update]) -> WriteParts {
        let request = Request::Apply(batch.to_vec());
        let encode = || {
            let (k, body) = request.to_frame();
            frame(k, body.as_ref())
        };
        let wire = encode();
        let apply_encode_ns = time_ns(4, encode);
        let apply_decode_ns = time_ns(4, || {
            let (k, body) = read_frame(&mut Cursor::new(wire.as_ref()), DEFAULT_MAX_FRAME)
                .expect("own frame reads back");
            Request::from_frame(k, body).expect("own frame decodes")
        });

        let t = Instant::now();
        self.direct
            .apply(batch)
            .expect("the stream is valid on the clone");
        let compute_ns = nanos(t.elapsed());

        let handle = self.hub.as_ref().expect("hub runs until finish").handle();
        let t = Instant::now();
        handle.promote().expect("the probe hub answers");
        let hop_ns = nanos(t.elapsed());

        let t = Instant::now();
        self.durable
            .0
            .apply(batch)
            .expect("the stream is valid on the durable engine");
        let durable_ns = nanos(t.elapsed());

        let batch_encode_ns = time_ns(4, || encode_update_batch(batch));
        let payload = encode_update_batch(batch);
        self.scratch_epoch += 1;
        let t = Instant::now();
        self.scratch
            .append_batch(self.scratch_epoch, payload.as_ref())
            .expect("scratch WAL append");
        let wal_append_ns = nanos(t.elapsed());

        let t = Instant::now();
        self.repl.publish(self.scratch_epoch, batch);
        let publish_ns = nanos(t.elapsed());
        // Keep the bounded feed queue from overflowing.
        while self.feed.try_recv().is_ok() {}

        WriteParts {
            apply_encode_ns,
            apply_decode_ns,
            compute_ns,
            hop_ns,
            durable_ns,
            batch_encode_ns,
            wal_append_ns,
            publish_ns,
        }
    }

    /// `store.snapshot.checkpoint_ms`: `Engine::checkpoint` wall on the
    /// durable engine. Leaves the store with an empty WAL tail.
    pub fn checkpoint_ns(&mut self) -> u64 {
        let t = Instant::now();
        self.durable.0.checkpoint().expect("probe checkpoint");
        nanos(t.elapsed())
    }

    /// Stops the hub and closes the store.
    pub fn finish(mut self) {
        if let Some(hub) = self.hub.take() {
            drop(
                hub.stop(false)
                    .expect("the probe hub hands its engine back"),
            );
        }
    }
}

/// `net.apply_bytes`: the whole frame an apply request travels as.
pub fn apply_frame_bytes(batch: &[Update]) -> u64 {
    frame_len(Request::Apply(batch.to_vec()).to_frame().1.len())
}

/// `store.crc.ns_per_kib`: `crc32` over 1 MiB.
pub fn crc_ns_per_kib() -> f64 {
    let block: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 + 7) as u8).collect();
    let mut best = u64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(crc32(std::hint::black_box(&block)));
        best = best.min(nanos(t.elapsed()));
    }
    best as f64 / 1024.0
}
