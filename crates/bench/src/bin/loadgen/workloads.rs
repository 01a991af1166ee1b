//! The four workloads and the life every one of them leads:
//!
//! ```text
//! set up (×N, median) → read phase → ingest phase → last answers →
//! abort (no final checkpoint) → reopen (×N, median) → fresh-build check
//! ```
//!
//! What differs between workloads is the state size, the read traffic and
//! how `--seconds` is split between the two phases; see `WORKLOADS` and
//! the README for why each exists. The traced pass spends half the time
//! on traffic — every phase plain, then recording one root span per
//! operation — and the other half taking sampled operations apart layer
//! by layer.

use crate::layerpass;
use crate::layers::{
    self, Answer, Conn, Dataset, Memo, Query, Recovered, Serving, SetupTimes, Sink, Update,
    BATCH_EVENTS, CHECKPOINT_EVERY,
};
use crate::openloop::{run_paced, Arrival};
use crate::report::RunResult;
use crate::stats::{describe, median, median_window, percentile, Rng, Samples};
use crate::trace::Trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The read traffic of a workload's read phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reads {
    /// Closed loop, one full-candidate `top_k(8)` memo hit after another
    /// on each of the two connections.
    ClosedHits,
    /// Open loop: the evaluation mix at a fixed arrival rate, the two
    /// connections pulling the next due arrival from a shared cursor.
    PacedEval { rate_hz: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and `--list`.
    pub why: &'static str,
    pub users: usize,
    pub routes: usize,
    pub stops: usize,
    pub reads: Reads,
    /// Share of `--seconds` the read phase gets; the ingest phase gets
    /// the rest.
    pub read_share: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hit_wire",
        why: "memo-hit top-k over loopback: frame codec, CRC, syscalls and dispatch own the round trip, engine work is ~2 us",
        users: 20_000,
        routes: 128,
        stops: 16,
        reads: Reads::ClosedHits,
        read_share: 0.7,
    },
    Spec {
        name: "eval_paced",
        why: "open loop at 600 req/s of memo-miss top-k and max-cov on rotating subsets: evaluation owns latency, the wire is noise",
        users: 20_000,
        routes: 128,
        stops: 16,
        reads: Reads::PacedEval { rate_hz: 600.0 },
        read_share: 0.7,
    },
    Spec {
        name: "ingest_big",
        why: "50-event batches into 150k users: the O(state) clone in Engine::apply owns the ack, checkpoints own its tail",
        users: 150_000,
        routes: 128,
        stops: 16,
        reads: Reads::ClosedHits,
        read_share: 0.2,
    },
    Spec {
        name: "ingest_small",
        why: "the same write path over 4k users: per-batch fixed costs (decode, funnel hop, WAL fsync, publish, feed) own the ack",
        users: 4_000,
        routes: 64,
        stops: 12,
        reads: Reads::ClosedHits,
        read_share: 0.2,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where stores, traces and result files go.
    pub out: PathBuf,
    /// Test hook: flip one bit of one expected answer, so the run must
    /// report a failed operation.
    pub corrupt_expected: bool,
}

/// Set-ups per untraced run, `setup_s` being their median: at least the
/// first figure, and more — up to the second — while they have taken
/// under a second in all. A 40 ms set-up carries up to 15 ms of the
/// server's accept-poll phase, so the cheap ones need the most repeats.
const SETUP_REPS: (usize, usize) = (5, 15);
/// Reopens of the aborted store per untraced run; `recover_s` is their
/// median.
const RECOVER_REPS: usize = 5;
/// WAL batches every run leaves behind the last checkpoint at abort, so
/// that recovery is the same work on every run: one snapshot decode plus
/// this many replays.
pub(crate) const WAL_TAIL: u64 = 20;
/// Acks after which the writer reads the store's size and the exact
/// counters: one full checkpoint cycle plus the tail, the shape the store
/// has at abort, at a point of the stream every run reaches.
pub(crate) const PREFIX_ACKS: u64 = CHECKPOINT_EVERY as u64 + WAL_TAIL;
/// Root spans kept per connection and traced phase.
const ROOTS_KEPT: usize = 20_000;
/// Reads taken apart per waterfall.
pub(crate) const READS_TAKEN_APART: usize = 1_500;
/// Applies taken apart per waterfall. Each one lands on the bench's
/// engines and grows their state by ~25 tombstones, so few enough that
/// the state stays the one the traced operations ran on.
pub(crate) const WRITES_TAKEN_APART: usize = 120;

// ---------------------------------------------------------------------------
// The query mix
// ---------------------------------------------------------------------------

pub(crate) const K_TOP: usize = 8;
const K_COV_SUBSET: usize = 4;
const SUBSET_LEN: usize = 24;
/// Far more subsets than the engine's 8-entry subset memo could hold —
/// and the network read plane never memoizes anyway.
pub(crate) const SUBSETS: usize = 64;

/// The distinct queries of a workload, by index:
/// `0` full-candidate `top_k(8)` (memo hit), `1` full-candidate greedy
/// `max_cov(8)` (memo hit, pure mask-kernel work), then per subset `s`
/// `2 + s` = `top_k(8)` over 24 candidates (best-first search, memo
/// unused) and `2 + SUBSETS + s` = greedy `max_cov(4)` over them (memo
/// miss: table build + greedy). Every query pins one evaluation thread.
pub struct Mix {
    subsets: Vec<Vec<u32>>,
    seed: u64,
}

pub const Q_TOPK_HIT: usize = 0;
pub const Q_COV_HIT: usize = 1;

impl Mix {
    pub fn new(routes: usize, seed: u64) -> Mix {
        let mut rng = Rng::new(seed ^ 0x5B5E_7500);
        let subsets = (0..SUBSETS)
            .map(|_| {
                let mut ids: Vec<u32> = (0..routes as u32).collect();
                rng.shuffle(&mut ids);
                ids.truncate(SUBSET_LEN);
                ids.sort_unstable();
                ids
            })
            .collect();
        Mix { subsets, seed }
    }

    pub fn distinct(&self) -> usize {
        2 + 2 * SUBSETS
    }

    pub fn subset(&self, s: usize) -> &[u32] {
        &self.subsets[s]
    }

    pub fn query(&self, index: usize) -> Query {
        let q = match index {
            Q_TOPK_HIT => Query::top_k(K_TOP),
            Q_COV_HIT => Query::max_cov(K_TOP),
            i if i < 2 + SUBSETS => Query::top_k(K_TOP).candidates(&self.subsets[i - 2]),
            i => Query::max_cov(K_COV_SUBSET).candidates(&self.subsets[i - 2 - SUBSETS]),
        };
        q.threads(1)
    }

    /// The query of the `n`th open-loop arrival: each block of four
    /// arrivals is two subset top-k, one subset max-cov and one
    /// full-candidate max-cov in a seeded order, each on a seeded subset.
    pub fn arrival(&self, n: usize) -> usize {
        let mut order = [0u8, 0, 1, 2];
        Rng::new(self.seed ^ (n as u64 / 4).wrapping_mul(0x9E6D_55A1)).shuffle(&mut order);
        let s = Rng::new(self.seed ^ (n as u64).wrapping_mul(0xC2B2_AE3D)).below(SUBSETS);
        match order[n % 4] {
            0 => 2 + s,
            1 => 2 + SUBSETS + s,
            _ => Q_COV_HIT,
        }
    }
}

// ---------------------------------------------------------------------------
// The update stream
// ---------------------------------------------------------------------------

/// The seeded update stream: every event is an expiry of a uniformly
/// chosen live trajectory or a fresh arrival, half and half, so the live
/// set stays near its initial size. Tracks the live ids under the
/// engine's dense numbering, which is also the model the final answers
/// are checked against.
pub struct UpdateStream {
    seed: u64,
    rng: Rng,
    live: Vec<u32>,
    initial: usize,
    arrivals: usize,
}

impl UpdateStream {
    pub fn new(initial_users: usize, seed: u64) -> UpdateStream {
        UpdateStream {
            seed,
            rng: Rng::new(seed ^ 0x05EE_DE7E),
            live: (0..initial_users as u32).collect(),
            initial: initial_users,
            arrivals: 0,
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next batch and the ids the engine must assign to its inserts.
    pub fn next_batch(&mut self, ds: &Dataset) -> (Vec<Update>, Vec<u32>) {
        let mut batch = Vec::with_capacity(BATCH_EVENTS);
        let mut inserted = Vec::new();
        for _ in 0..BATCH_EVENTS {
            if self.live.len() > self.initial / 2 && self.rng.next_u64() & 1 == 1 {
                let at = self.rng.below(self.live.len());
                batch.push(Update::Remove(self.live.swap_remove(at)));
            } else {
                let id = (self.initial + self.arrivals) as u32;
                batch.push(ds.arrival(self.arrivals));
                self.arrivals += 1;
                self.live.push(id);
                inserted.push(id);
            }
        }
        (batch, inserted)
    }

    pub fn live_sorted(&self) -> Vec<u32> {
        let mut ids = self.live.clone();
        ids.sort_unstable();
        ids
    }
}

// ---------------------------------------------------------------------------
// One set-up
// ---------------------------------------------------------------------------

pub(crate) struct Stage {
    pub ds: Dataset,
    pub serving: Serving,
    pub conns: Vec<Conn>,
    sink: Sink,
    dir: PathBuf,
    times: StageTimes,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageTimes {
    pub generate_ns: u64,
    pub node: SetupTimes,
    pub connect_ns: [u64; 2],
    pub feed_ns: u64,
}

pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Stage {
    /// Everything `setup_s` covers: inputs from the seed, durable build,
    /// warm, base checkpoint, server start, two connects, the feed.
    fn set_up(spec: &Spec, seed: u64, dir: &Path) -> Stage {
        let _ = std::fs::remove_dir_all(dir);
        let mut times = StageTimes::default();
        let t = Instant::now();
        let ds = Dataset::generate(spec.users, spec.routes, spec.stops, seed);
        times.generate_ns = nanos(t.elapsed());
        let (serving, node) = Serving::start(&ds, dir);
        times.node = node;
        let mut conns = Vec::new();
        for slot in &mut times.connect_ns {
            let t = Instant::now();
            conns.push(Conn::connect(serving.addr()));
            *slot = nanos(t.elapsed());
        }
        let t = Instant::now();
        let sink = Sink::attach(&serving);
        times.feed_ns = nanos(t.elapsed());
        Stage {
            ds,
            serving,
            conns,
            sink,
            dir: dir.to_path_buf(),
            times,
        }
    }

    fn tear_down(self) {
        drop(self.conns);
        self.sink.detach();
        self.serving.abort();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------------
// Read traffic
// ---------------------------------------------------------------------------

/// One operation of a traced slice, in ns since the run's time base. In a
/// closed loop `due_ns == sent_ns`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Root {
    pub query: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

/// What one connection saw of its answers.
pub(crate) struct ReadTally {
    /// Closed loops: send → answer, per window by the time the operation
    /// was sent.
    windows: Vec<Samples>,
    seed: u64,
    pub failed: u64,
    pub hits: u64,
    /// Per distinct query, how often it was asked.
    pub asked: Vec<u64>,
    last_epoch: u64,
    /// Per distinct query, the last `(epoch, digest)` answered.
    last: Vec<Option<(u64, u64)>>,
    /// Every distinct `(query, epoch, digest)` seen.
    distinct: Vec<(usize, u64, u64)>,
    /// Traced slices only, capped at `ROOTS_KEPT`.
    pub roots: Vec<Root>,
    first_error: Option<String>,
}

impl ReadTally {
    fn new(distinct_queries: usize, seed: u64) -> ReadTally {
        ReadTally {
            windows: Vec::new(),
            seed,
            failed: 0,
            hits: 0,
            asked: vec![0; distinct_queries],
            last_epoch: 0,
            last: vec![None; distinct_queries],
            distinct: Vec::new(),
            roots: Vec::new(),
            first_error: None,
        }
    }

    /// Checks one answer: epochs never go back on a connection, and one
    /// query at one epoch has one answer.
    fn note(&mut self, index: usize, answer: Result<Answer, String>) {
        self.asked[index] += 1;
        let answer = match answer {
            Ok(a) => a,
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                return;
            }
        };
        let (facts, digest) = (layers::facts(&answer), layers::digest(&answer));
        self.hits += u64::from(facts.memo == Memo::Hit);
        let mut ok = facts.epoch >= self.last_epoch;
        self.last_epoch = self.last_epoch.max(facts.epoch);
        match self.last[index] {
            Some((epoch, seen)) if epoch == facts.epoch => ok &= seen == digest,
            _ => {
                self.last[index] = Some((facts.epoch, digest));
                self.distinct.push((index, facts.epoch, digest));
            }
        }
        if !ok {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| {
                format!(
                    "query {index}: epoch went back, or two answers within epoch {}",
                    facts.epoch
                )
            });
        }
    }
}

/// The operations of one window of a read phase, µs ascending.
pub(crate) struct Window {
    /// Client-observed latency: send → answer in a closed loop, due →
    /// answer in the open loop.
    latency_us: Vec<f64>,
    /// Send → answer, where that is not `latency_us` itself: open loop
    /// only, empty otherwise.
    roundtrip_us: Vec<f64>,
    ops: u64,
}

/// One measured stretch of read traffic, cut into windows. Every
/// reported read figure is the median over the windows of that figure
/// within a window (see `stats::median_window`).
pub(crate) struct ReadPhase {
    windows: Vec<Window>,
    window_s: f64,
    /// Open loop only: arrivals answered per second from the start of the
    /// schedule to the last answer. Every window of an open loop holds
    /// the same number of arrivals, so a per-window rate says nothing;
    /// this falls below the offered rate when answers come late.
    achieved_qps: Option<f64>,
    pub ops: u64,
    pub elapsed_s: f64,
    pub tallies: Vec<ReadTally>,
    /// Open loop only.
    pub arrivals: Vec<Arrival>,
}

/// Pause between two reads of the connection beside the writer. A reader
/// that hammers there competes with the writer for the box's two cores,
/// and which of the two wins a core moves the ack latency by a third
/// from run to run; with this pause the reads take a few percent of a
/// core, the acks repeat, and a read still shows what a write costs it.
const BESIDE_WRITER_THINK: Duration = Duration::from_micros(500);

/// Window length of back-to-back closed-loop reads: ~20 000 reads per
/// connection.
const HAMMER_WINDOW: Duration = Duration::from_millis(250);
/// Window length of the open loop (600 arrivals) and of the reads beside
/// the writer (under 2 000 reads).
const PACED_WINDOW: Duration = Duration::from_secs(1);

impl ReadPhase {
    /// `windows[i]` holds the operations sent in the `i`th `window` of the
    /// phase. A trailing partial window is dropped unless it is the only
    /// one.
    fn new(
        window: Duration,
        elapsed: Duration,
        mut windows: Vec<Window>,
        tallies: Vec<ReadTally>,
        arrivals: Vec<Arrival>,
    ) -> ReadPhase {
        let whole = (elapsed.as_nanos() / window.as_nanos()) as usize;
        windows.truncate(whole.max(1));
        ReadPhase {
            ops: tallies.iter().map(|t| t.asked.iter().sum::<u64>()).sum(),
            achieved_qps: arrivals
                .iter()
                .map(|a| a.done_ns)
                .max()
                .map(|last| arrivals.len() as f64 / (last as f64 / 1e9)),
            windows,
            window_s: if whole == 0 {
                elapsed.as_secs_f64()
            } else {
                window.as_secs_f64()
            },
            elapsed_s: elapsed.as_secs_f64(),
            tallies,
            arrivals,
        }
    }

    /// Reads completed per second: the median window's in a closed loop.
    pub fn qps(&self) -> f64 {
        self.achieved_qps
            .unwrap_or_else(|| median_window(&self.windows, |w| w.ops as f64 / self.window_s))
    }

    /// Reads per second over the whole phase.
    pub fn mean_qps(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    pub fn latency_us(&self, p: f64) -> f64 {
        median_window(&self.windows, |w| percentile(&w.latency_us, p))
    }

    /// Send → answer.
    pub fn roundtrip_us(&self, p: f64) -> f64 {
        median_window(&self.windows, |w| {
            let sent_to_answer = if w.roundtrip_us.is_empty() {
                &w.latency_us
            } else {
                &w.roundtrip_us
            };
            percentile(sent_to_answer, p)
        })
    }

    /// Sample count and latency spread of the median-sized window.
    pub fn describe(&self) -> String {
        let mut by_size: Vec<&Window> = self.windows.iter().collect();
        by_size.sort_by_key(|w| w.ops);
        format!(
            "{} windows of {:.2} s, {} reads in all; a window: {}",
            self.windows.len(),
            self.window_s,
            self.ops,
            describe(&by_size[by_size.len() / 2].latency_us)
        )
    }

    pub fn roots(&self) -> Vec<Root> {
        let mut roots: Vec<Root> = self
            .tallies
            .iter()
            .flat_map(|t| t.roots.iter().copied())
            .collect();
        roots.sort_unstable_by_key(|r| r.due_ns);
        roots
    }
}

/// How one connection's closed loop of memo hits is paced and cut.
#[derive(Clone, Copy)]
struct Pace {
    /// Pause after every answer.
    think: Duration,
    window: Duration,
}

/// One connection's closed loop of memo hits while `keep_going()`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conn: &mut Conn,
    mix: &Mix,
    tally: &mut ReadTally,
    pace: Pace,
    origin: Instant,
    phase_start: Instant,
    traced: bool,
    mut keep_going: impl FnMut() -> bool,
) {
    let query = mix.query(Q_TOPK_HIT);
    while keep_going() {
        if !pace.think.is_zero() {
            std::thread::sleep(pace.think);
        }
        let start = Instant::now();
        let answer = conn.query(query.clone());
        let took = nanos(start.elapsed());
        let window =
            (start.duration_since(phase_start).as_nanos() / pace.window.as_nanos()) as usize;
        while tally.windows.len() <= window {
            let seed = tally.seed ^ tally.windows.len() as u64;
            tally.windows.push(Samples::new(Samples::WINDOW, seed));
        }
        tally.windows[window].record(took);
        if traced && tally.roots.len() < ROOTS_KEPT {
            let sent_ns = nanos(start.duration_since(origin));
            tally.roots.push(Root {
                query: Q_TOPK_HIT,
                due_ns: sent_ns,
                sent_ns,
                done_ns: sent_ns + took,
            });
        }
        tally.note(Q_TOPK_HIT, answer);
    }
}

/// Merges the connections' windows index by index.
fn finish_closed(mut tallies: Vec<ReadTally>, window: Duration, elapsed: Duration) -> ReadPhase {
    let mut per_conn: Vec<_> = tallies
        .iter_mut()
        .map(|t| std::mem::take(&mut t.windows).into_iter())
        .collect();
    let mut windows = Vec::new();
    while let Some(merged) = per_conn
        .iter_mut()
        .filter_map(Iterator::next)
        .reduce(Samples::merge)
    {
        windows.push(Window {
            ops: merged.offered(),
            latency_us: merged.sorted_us(),
            roundtrip_us: Vec::new(),
        });
    }
    ReadPhase::new(window, elapsed, windows, tallies, Vec::new())
}

/// Open-loop reads: arrival `n` asks the mix's `n`th query, on whichever
/// of `conns` is free first.
fn paced_reads(
    conns: &mut [Conn],
    mix: &Mix,
    rate_hz: f64,
    duration: Duration,
    origin: Instant,
    traced: bool,
    seed: u64,
) -> ReadPhase {
    let workers: Vec<(&mut Conn, ReadTally)> = conns
        .iter_mut()
        .enumerate()
        .map(|(i, c)| (c, ReadTally::new(mix.distinct(), seed ^ i as u64)))
        .collect();
    let offset_ns = nanos(origin.elapsed());
    let (arrivals, workers) = run_paced(workers, rate_hz, duration, |(conn, tally), n| {
        let index = mix.arrival(n);
        let answer = conn.query(mix.query(index));
        tally.note(index, answer);
    });
    let mut tallies: Vec<ReadTally> = workers.into_iter().map(|(_, t)| t).collect();
    if traced {
        // The driver timed every arrival; keep them on the first tally,
        // shifted to the run's time base.
        tallies[0].roots = arrivals
            .iter()
            .take(ROOTS_KEPT)
            .map(|a| Root {
                query: mix.arrival(a.index),
                due_ns: offset_ns + a.due_ns,
                sent_ns: offset_ns + a.sent_ns,
                done_ns: offset_ns + a.done_ns,
            })
            .collect();
    }
    // Windows by due time, so that every window holds the same number of
    // arrivals however late they were answered.
    let window_ns = PACED_WINDOW.as_nanos() as u64;
    let mut windows: Vec<Window> = Vec::new();
    for a in &arrivals {
        let at = ((a.due_ns - 1) / window_ns) as usize;
        if windows.len() <= at {
            windows.resize_with(at + 1, || Window {
                latency_us: Vec::new(),
                roundtrip_us: Vec::new(),
                ops: 0,
            });
        }
        windows[at].latency_us.push(a.latency_ns() as f64 / 1e3);
        windows[at]
            .roundtrip_us
            .push((a.done_ns - a.sent_ns) as f64 / 1e3);
        windows[at].ops += 1;
    }
    for w in &mut windows {
        w.latency_us.sort_by(f64::total_cmp);
        w.roundtrip_us.sort_by(f64::total_cmp);
    }
    ReadPhase::new(PACED_WINDOW, duration, windows, tallies, arrivals)
}

fn read_phase(
    spec: &Spec,
    conns: &mut [Conn],
    mix: &Mix,
    duration: Duration,
    origin: Instant,
    traced: bool,
    seed: u64,
) -> ReadPhase {
    let new_tally = |i: usize| ReadTally::new(mix.distinct(), seed ^ i as u64);
    match spec.reads {
        Reads::ClosedHits => {
            let hammer = Pace {
                think: Duration::ZERO,
                window: HAMMER_WINDOW,
            };
            let start = Instant::now();
            let deadline = start + duration;
            let tallies: Vec<ReadTally> = std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(i, conn)| {
                        let mut tally = new_tally(i);
                        scope.spawn(move || {
                            closed_loop(
                                conn,
                                mix,
                                &mut tally,
                                hammer,
                                origin,
                                start,
                                traced,
                                || Instant::now() < deadline,
                            );
                            tally
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a reader panicked"))
                    .collect()
            });
            finish_closed(tallies, HAMMER_WINDOW, start.elapsed())
        }
        Reads::PacedEval { rate_hz } => {
            paced_reads(conns, mix, rate_hz, duration, origin, traced, seed)
        }
    }
}

/// Every distinct answer of the (static-epoch) read phase against
/// `Snapshot::run` of the same query on the in-process snapshot.
/// Returns how many in-process reference queries it ran, and how many of
/// them the memo served — the engine's counters see those too.
fn verify_static_reads(
    r: &mut RunResult,
    serving: &Serving,
    mix: &Mix,
    slices: &[ReadPhase],
    corrupt_expected: bool,
) -> (u64, u64) {
    let epoch = serving.epoch();
    let mut expected: Vec<Option<u64>> = vec![None; mix.distinct()];
    let mut seen: Vec<(usize, u64, u64)> = slices
        .iter()
        .flat_map(|p| &p.tallies)
        .flat_map(|t| t.distinct.iter().copied())
        .collect();
    seen.sort_unstable();
    let mut corrupt = corrupt_expected;
    for (index, at_epoch, digest) in seen {
        let want = *expected[index].get_or_insert_with(|| {
            let flip = u64::from(std::mem::take(&mut corrupt));
            layers::digest(&serving.local_answer(&mix.query(index))) ^ flip
        });
        r.check(at_epoch == epoch && digest == want, || {
            format!("networked answer to query {index} differs from the in-process snapshot's at epoch {epoch}")
        });
    }
    for (index, want) in expected.iter().enumerate() {
        if let Some(want) = want {
            r.answer_digest =
                layers::fold_digest(layers::fold_digest(r.answer_digest, index as u64), *want);
        }
    }
    let asked = |q: usize| u64::from(expected[q].is_some());
    (
        expected.iter().flatten().count() as u64,
        asked(Q_TOPK_HIT) + asked(Q_COV_HIT),
    )
}

// ---------------------------------------------------------------------------
// Ingest traffic
// ---------------------------------------------------------------------------

/// What the writer read at ack `PREFIX_ACKS`.
pub(crate) struct Prefix {
    pub store_bytes: u64,
    pub live_bytes: u64,
    pub obs: layers::Obs,
}

pub(crate) struct WritePhase {
    /// Send → ack, µs ascending.
    pub ack_us: Vec<f64>,
    pub acked: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub last_epoch: u64,
    pub last_wal_batches: u64,
    pub prefix: Option<Prefix>,
    /// Traced slices only: `(sent_ns, acked_ns)`, capped.
    pub roots: Vec<(u64, u64)>,
    first_error: Option<String>,
}

impl WritePhase {
    pub fn batches_per_s(&self) -> f64 {
        self.acked as f64 / self.elapsed_s
    }
}

/// The writer's closed loop: batches back to back until `done(acked)`.
#[allow(clippy::too_many_arguments)]
fn write_loop(
    conn: &mut Conn,
    ds: &Dataset,
    stream: &mut UpdateStream,
    serving: &Serving,
    acked_before: u64,
    origin: Instant,
    traced: bool,
    done: impl Fn(u64) -> bool,
) -> WritePhase {
    let mut samples = Samples::new(Samples::PHASE, 0);
    let mut phase = WritePhase {
        ack_us: Vec::new(),
        acked: 0,
        failed: 0,
        elapsed_s: 0.0,
        last_epoch: 0,
        last_wal_batches: 0,
        prefix: None,
        roots: Vec::new(),
        first_error: None,
    };
    let begin = Instant::now();
    while !done(acked_before + phase.acked) {
        let (batch, expect_inserted) = stream.next_batch(ds);
        let start = Instant::now();
        let ack = conn.apply(batch);
        let took = nanos(start.elapsed());
        let ack = match ack {
            Ok(ack) => ack,
            Err(e) => {
                // The stream's model has moved on without the engine;
                // nothing after a refused batch can be checked.
                phase.failed += 1;
                phase.first_error.get_or_insert(e);
                break;
            }
        };
        samples.record(took);
        phase.acked += 1;
        if ack.epoch <= phase.last_epoch || ack.inserted != expect_inserted {
            phase.failed += 1;
            phase.first_error.get_or_insert_with(|| {
                format!(
                    "ack at epoch {} after epoch {}, or unexpected insert ids",
                    ack.epoch, phase.last_epoch
                )
            });
        }
        phase.last_epoch = ack.epoch;
        phase.last_wal_batches = ack.wal_batches;
        if traced && phase.roots.len() < ROOTS_KEPT {
            let sent_ns = nanos(start.duration_since(origin));
            phase.roots.push((sent_ns, sent_ns + took));
        }
        if acked_before + phase.acked == PREFIX_ACKS {
            phase.prefix = Some(Prefix {
                store_bytes: serving.store_bytes(),
                live_bytes: ds.live_bytes(&stream.live),
                obs: layers::obs(),
            });
        }
    }
    phase.elapsed_s = begin.elapsed().as_secs_f64();
    phase.ack_us = samples.sorted_us();
    phase
}

/// The ingest phase: one writer, and one reader issuing hits until the
/// writer is done.
#[allow(clippy::too_many_arguments)]
fn ingest_phase(
    stage: &mut Stage,
    mix: &Mix,
    stream: &mut UpdateStream,
    acked_before: u64,
    origin: Instant,
    traced: bool,
    seed: u64,
    done: impl Fn(u64) -> bool,
) -> (WritePhase, ReadPhase) {
    let (ds, serving) = (&stage.ds, &stage.serving);
    let (writer_conn, reader_conn) = stage.conns.split_at_mut(1);
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let pace = Pace {
                think: BESIDE_WRITER_THINK,
                window: PACED_WINDOW,
            };
            let mut tally = ReadTally::new(mix.distinct(), seed ^ 0xBE5);
            let start = Instant::now();
            closed_loop(
                &mut reader_conn[0],
                mix,
                &mut tally,
                pace,
                origin,
                start,
                traced,
                || !writer_done.load(Ordering::Relaxed),
            );
            finish_closed(vec![tally], PACED_WINDOW, start.elapsed())
        });
        let written = write_loop(
            &mut writer_conn[0],
            ds,
            stream,
            serving,
            acked_before,
            origin,
            traced,
            done,
        );
        writer_done.store(true, Ordering::Relaxed);
        (
            written,
            reader
                .join()
                .expect("the reader beside the writer panicked"),
        )
    })
}

/// Waits (at most 10 s) for the sink to have acknowledged everything
/// shipped; returns the feed's end positions.
fn await_feed(serving: &Serving, last_ack_epoch: u64) -> (u64, Option<u64>, bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (shipped, acked, overflowed) = serving.feed_positions();
        let settled = acked == Some(shipped) && shipped >= last_ack_epoch;
        if settled || overflowed || Instant::now() >= deadline {
            return (shipped, acked, overflowed);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The slice of each phase that records root spans, in the traced pass.
pub(crate) const TRACED_SLICE: usize = 1;

/// What the traffic of one run left behind, for the traced pass to read.
pub(crate) struct Traffic {
    /// Read-phase slices. Slice 0 is plain; in the traced pass slice 1 is
    /// the traced one.
    pub read_slices: Vec<ReadPhase>,
    /// The reader beside the writer, one per ingest slice.
    pub beside_slices: Vec<ReadPhase>,
    pub write_slices: Vec<WritePhase>,
    /// In-process reference queries run within `read_obs`, and how many
    /// of them were memo hits.
    pub reference_queries: (u64, u64),
    /// The registry before the read phase and after its answers were
    /// checked.
    pub read_obs: (layers::Obs, layers::Obs),
    /// The registry before the ingest phase and after the last answers.
    pub ingest_obs: (layers::Obs, layers::Obs),
}

impl Traffic {
    pub fn prefix(&self) -> &Prefix {
        self.write_slices
            .iter()
            .find_map(|w| w.prefix.as_ref())
            .expect("every run passes the prefix point")
    }
}

pub fn run(spec: &Spec, opts: &Options) -> RunResult {
    let mut r = RunResult {
        workload: spec.name.to_string(),
        trace: opts.trace,
        ..RunResult::default()
    };
    let work = opts
        .out
        .join(format!("{}-{}", spec.name, std::process::id()));
    let seed = opts.seed;

    // -- set up, several times; the last one is used ---------------------
    let mut setup_s = Vec::new();
    let mut stage: Option<Stage> = None;
    let reps = if opts.trace { (1, 1) } else { SETUP_REPS };
    for rep in 0..reps.1 {
        if rep >= reps.0 && setup_s.iter().sum::<f64>() >= 1.0 {
            break;
        }
        if let Some(previous) = stage.take() {
            previous.tear_down();
        }
        let t = Instant::now();
        stage = Some(Stage::set_up(
            spec,
            seed,
            &work.join(format!("store-{rep}")),
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");
    let mix = Mix::new(stage.ds.routes(), seed);
    let mut stream = UpdateStream::new(stage.ds.users(), seed);
    let origin = Instant::now();

    // The traced pass spends half of `--seconds` on traffic, each phase
    // in two slices: plain, then traced (recording root spans). The
    // traced slice comes last so that the state the write path is taken
    // apart on afterwards is the state its operations ran on.
    let slices: &[(bool, f64)] = if opts.trace {
        &[(false, 0.25), (true, 0.25)]
    } else {
        &[(false, 1.0)]
    };
    let slice_len =
        |phase_share: f64, part: f64| Duration::from_secs_f64(opts.seconds * phase_share * part);
    let obs_start = layers::obs();

    // -- read phase: static epoch, every answer checked bit for bit ------
    let mut read_slices = Vec::new();
    for &(traced, part) in slices {
        let len = slice_len(spec.read_share, part);
        read_slices.push(read_phase(
            spec,
            &mut stage.conns,
            &mix,
            len,
            origin,
            traced,
            seed,
        ));
    }
    let reference_queries = verify_static_reads(
        &mut r,
        &stage.serving,
        &mix,
        &read_slices,
        opts.corrupt_expected,
    );

    let read_obs = (obs_start, layers::obs());

    // The traced pass takes the read path apart here, between the phases:
    // on the state every run of this workload starts from, so that the
    // counts it reads repeat exactly whatever the run's pace will be.
    let mut trace = Trace::default();
    if opts.trace {
        layerpass::reads(
            &mut r,
            &mut trace,
            &mut stage,
            &mix,
            &read_slices[TRACED_SLICE],
            opts.seconds,
        );
    }

    // -- ingest phase ------------------------------------------------------
    let obs_before_ingest = layers::obs();
    let mut write_slices: Vec<WritePhase> = Vec::new();
    let mut beside_slices = Vec::new();
    let mut acked = 0u64;
    for (i, &(traced, part)) in slices.iter().enumerate() {
        let deadline = Instant::now() + slice_len(1.0 - spec.read_share, part);
        let last = i + 1 == slices.len();
        // The last slice runs on past its deadline until the prefix point
        // is behind and the WAL tail is exactly `WAL_TAIL` batches.
        let done = |acked: u64| {
            Instant::now() >= deadline
                && (!last || (acked >= PREFIX_ACKS && acked % CHECKPOINT_EVERY as u64 == WAL_TAIL))
        };
        let (written, beside) = ingest_phase(
            &mut stage,
            &mix,
            &mut stream,
            acked,
            origin,
            traced,
            seed,
            done,
        );
        acked += written.acked;
        write_slices.push(written);
        beside_slices.push(beside);
    }

    // -- the last answers, the feed, the counters ---------------------------
    let last_ack_epoch = write_slices.last().map_or(0, |w| w.last_epoch);
    let final_queries = [mix.query(Q_TOPK_HIT), mix.query(Q_COV_HIT)];
    let final_answers: Vec<Result<Answer, String>> = final_queries
        .iter()
        .map(|q| stage.conns[0].query(q.clone()))
        .collect();
    let (last_shipped, min_acked, overflowed) = await_feed(&stage.serving, last_ack_epoch);
    let traffic = Traffic {
        read_slices,
        beside_slices,
        write_slices,
        reference_queries,
        read_obs,
        ingest_obs: (obs_before_ingest, layers::obs()),
    };
    let rss = peak_rss_mb();

    for w in &traffic.write_slices {
        r.attempted += w.acked + w.failed;
        r.failed += w.failed;
        r.notes
            .extend(w.first_error.iter().map(|e| format!("FAILED WRITE: {e}")));
    }
    for t in traffic
        .read_slices
        .iter()
        .chain(&traffic.beside_slices)
        .flat_map(|p| &p.tallies)
    {
        r.attempted += t.asked.iter().sum::<u64>();
        r.failed += t.failed;
        r.notes
            .extend(t.first_error.iter().map(|e| format!("FAILED READ: {e}")));
    }
    let wal_tail = traffic
        .write_slices
        .last()
        .map_or(0, |w| w.last_wal_batches);
    r.check(wal_tail == WAL_TAIL, || {
        format!("the WAL tail at abort is {wal_tail}, not {WAL_TAIL}")
    });
    r.check(min_acked == Some(last_shipped) && last_shipped >= last_ack_epoch && !overflowed, || {
        format!(
            "the feed ended at shipped {last_shipped}, acked {min_acked:?}, overflowed {overflowed}; \
             the last ack was epoch {last_ack_epoch}"
        )
    });
    r.check(stage.serving.handler_panics() == 0, || {
        "the server caught a handler panic".into()
    });
    let delta =
        |name: &str| traffic.ingest_obs.1.counter(name) - traffic.ingest_obs.0.counter(name);
    let (appends, checkpoints) = (delta("tq_wal_appends_total"), delta("tq_checkpoints_total"));
    r.check(appends == acked, || {
        format!("{appends} WAL appends for {acked} acked batches")
    });
    r.check(checkpoints == acked / CHECKPOINT_EVERY as u64, || {
        format!("{checkpoints} checkpoints over {acked} batches")
    });

    // -- abort, reopen, compare -------------------------------------------------
    let Stage {
        ds,
        serving,
        conns,
        sink,
        dir,
        times,
    } = stage;
    drop(conns);
    let sunk = sink.detach();
    r.check(sunk == acked, || {
        format!("the sink acknowledged {sunk} records for {acked} acked batches")
    });
    serving.abort();

    let mut recover_s = Vec::new();
    let mut reopened = None;
    for _ in 0..if opts.trace { 1 } else { RECOVER_REPS } {
        drop(reopened.take());
        let t = Instant::now();
        let mut engine = Recovered::open(&dir).expect("the aborted store reopens");
        let first = engine.answer(final_queries[0].clone());
        recover_s.push(t.elapsed().as_secs_f64());
        r.check(engine.epoch() == last_ack_epoch, || {
            format!(
                "reopened at epoch {}, the last ack was epoch {last_ack_epoch}",
                engine.epoch()
            )
        });
        reopened = Some((engine, first));
    }
    let replayed = layers::obs().gauge("tq_recovery_wal_records");
    r.check(replayed == WAL_TAIL, || {
        format!("recovery read {replayed} WAL records, not {WAL_TAIL}")
    });
    let (mut engine, first) = reopened.expect("at least one reopen");
    let recovered = [first, engine.answer(final_queries[1].clone())];
    let fresh = ds.fresh_answers(&stream.live_sorted(), &final_queries);
    for (i, name) in ["top_k(8)", "max_cov(8)"].iter().enumerate() {
        let want = layers::digest(&fresh[i]);
        let networked = final_answers[i]
            .as_ref()
            .map(|a| (layers::digest(a), layers::facts(a).epoch));
        r.check(networked == Ok((want, last_ack_epoch)), || {
            format!(
                "networked {name} after the last ack differs from a fresh build over the live set"
            )
        });
        r.check(layers::digest(&recovered[i]) == want, || {
            format!("{name} of the reopened engine differs from a fresh build over the live set")
        });
    }

    // -- the numbers -------------------------------------------------------------
    let (reads, writes) = (&traffic.read_slices[0], &traffic.write_slices[0]);
    r.notes.push(format!("reads:  {}", reads.describe()));
    r.notes
        .push(format!("writes: {}", describe(&writes.ack_us)));
    r.notes.push(format!(
        "{} users, {} routes; {acked} batches acked, {checkpoints} checkpoints, {sunk} records sunk, \
         {WAL_TAIL} WAL records replayed at reopen",
        ds.users(),
        ds.routes()
    ));
    if let Reads::PacedEval { rate_hz } = spec.reads {
        let worst = |f: fn(&Arrival) -> u64| reads.arrivals.iter().map(f).max().unwrap_or(0);
        r.notes.push(format!(
            "open loop: offered {rate_hz} req/s, achieved {:.2}; generator at most {:.3} ms late; \
             at most {} arrivals waiting",
            reads.qps(),
            worst(Arrival::generator_late_ns) as f64 / 1e6,
            worst(|a| a.backlog as u64)
        ));
    }
    if opts.trace {
        layerpass::writes_and_recovery(
            &mut r,
            &mut trace,
            layerpass::Dead {
                engine,
                ds: &ds,
                stream: &mut stream,
                dir: &dir,
                scratch: &work.join("scratch-wal"),
                times: &times,
                setup_s: setup_s[0],
                reopen_with_tail_s: recover_s[0],
                feed_lag: last_shipped - min_acked.unwrap_or(0),
            },
            &traffic,
            opts.seconds,
        );
        let path = opts.out.join(format!("trace-{}.json", spec.name));
        if let Err(e) = std::fs::write(&path, trace.to_json()) {
            r.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    } else {
        drop(engine);
        let prefix = traffic.prefix();
        r.set("setup_s", median(&mut setup_s));
        r.set("read_qps", reads.qps());
        r.set("read_p50_us", reads.latency_us(0.5));
        r.set("read_p99_us", reads.latency_us(0.99));
        r.set("write_batches_per_s", writes.batches_per_s());
        r.set("write_p50_us", percentile(&writes.ack_us, 0.5));
        r.set("write_p99_us", percentile(&writes.ack_us, 0.99));
        r.set("recover_s", median(&mut recover_s));
        r.set(
            "store_bytes_per_live_byte",
            prefix.store_bytes as f64 / prefix.live_bytes as f64,
        );
        r.set("peak_rss_mb", rss);
    }
    let _ = std::fs::remove_dir_all(&work);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `tq-obs` registry the runs' checks read is process-global, so
    /// whole-life tests take turns.
    static ONE_LIFE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn smoke_options(tag: &str, trace: bool) -> Options {
        Options {
            seed: 11,
            seconds: 0.2,
            trace,
            out: std::env::temp_dir().join(format!("loadgen-test-{}-{tag}", std::process::id())),
            corrupt_expected: false,
        }
    }

    #[test]
    fn the_mix_and_the_stream_repeat_under_a_seed() {
        let (a, b, c) = (Mix::new(128, 11), Mix::new(128, 11), Mix::new(128, 12));
        assert_eq!(a.subsets, b.subsets);
        assert_ne!(a.subsets, c.subsets);
        for s in &a.subsets {
            assert_eq!(s.len(), SUBSET_LEN);
            assert!(s.windows(2).all(|w| w[0] < w[1]) && *s.last().unwrap() < 128);
        }
        // Every block of four arrivals is 2 subset top-k, 1 subset max-cov
        // and 1 full-candidate max-cov: 25 % memo hits by construction.
        for block in 0..100 {
            let kinds: Vec<usize> = (0..4).map(|i| a.arrival(block * 4 + i)).collect();
            assert_eq!(kinds.iter().filter(|&&q| q == Q_COV_HIT).count(), 1);
            assert_eq!(
                kinds
                    .iter()
                    .filter(|&&q| (2..2 + SUBSETS).contains(&q))
                    .count(),
                2
            );
            assert_eq!(
                kinds,
                (0..4).map(|i| b.arrival(block * 4 + i)).collect::<Vec<_>>()
            );
        }
        assert!((0..400).any(|n| a.arrival(n) != c.arrival(n)));

        let ds = Dataset::generate(200, 8, 4, 11);
        let (mut s1, mut s2) = (UpdateStream::new(200, 11), UpdateStream::new(200, 11));
        let mut next_id = 200;
        for _ in 0..20 {
            let (batch, inserted) = s1.next_batch(&ds);
            assert_eq!(batch.len(), BATCH_EVENTS);
            assert_eq!(inserted, s2.next_batch(&ds).1);
            for id in inserted {
                assert_eq!(id, next_id, "insert ids are dense");
                next_id += 1;
            }
            assert!(s1.live.len() >= 100);
        }
        let live = s1.live_sorted();
        assert!(live.windows(2).all(|w| w[0] < w[1]));
    }

    /// The whole life at smoke size: traffic, abort, reopen, fresh-build
    /// comparison — and the result line carries exactly the contract's
    /// metrics.
    #[test]
    fn ingest_small_smoke_survives_abort_and_reopen() {
        let _turn = ONE_LIFE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let opts = smoke_options("smoke", false);
        let r = run(find("ingest_small").unwrap(), &opts);
        assert_eq!(r.failed, 0, "{}", r.render());
        assert!(r.attempted > PREFIX_ACKS);
        let line = crate::report::ResultLine::parse(&r.contract_line()).unwrap();
        assert!(line.correct);
        assert_eq!(line.metrics.len(), crate::report::END_TO_END.len());
        assert!(line.metrics.iter().all(|(_, v)| *v > 0.0), "{line:?}");
        let _ = std::fs::remove_dir_all(&opts.out);
    }

    #[test]
    fn a_corrupted_expected_answer_fails_the_run() {
        let _turn = ONE_LIFE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let mut opts = smoke_options("corrupt", false);
        opts.corrupt_expected = true;
        let r = run(find("ingest_small").unwrap(), &opts);
        assert!(r.failed >= 1, "{}", r.render());
        assert!(r.contract_line().starts_with("{\"correct\": false"));
        assert_ne!(crate::exit_code(&[r]), 0);
        let _ = std::fs::remove_dir_all(&opts.out);
    }
}
