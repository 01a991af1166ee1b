//! The `Serve` driver: a sharded worker pool fanning a mixed query/update
//! workload across published [`Snapshot`](crate::engine::Snapshot)s.
//!
//! This is the layer that turns the two-plane engine
//! ([`Snapshot`](crate::engine::Snapshot) read plane, single-writer
//! [`Engine`](crate::engine::Engine) control plane) into a serving loop:
//! [`serve`] spawns one **client shard** per requested client thread,
//! hands each a cloned [`Reader`], and drives the engine's update stream
//! from the calling thread (the single writer) until the configured
//! duration elapses. The loop is generic over the [`ControlPlane`], so a
//! [`ShardedEngine`](crate::sharding::ShardedEngine) is served by the same
//! code — its readers hold the same [`Reader`] type, over snapshots whose
//! backend scatter–gathers across the engine's shards, bit-identical to a
//! single engine. Each shard owns its slice of the load —
//! its own query cursor (offset by shard id so shards interleave the
//! script differently), its own counters, its own latency accumulators —
//! so the hot path shares nothing but the publication slot and one stop
//! flag; shard state is merged into the [`ServeReport`] only at join
//! time.
//!
//! Per request a shard takes the latest snapshot (an O(1) `Arc` clone),
//! records how long the request waited between arrival and execution
//! start into [`Explain::queued`](crate::engine::Explain::queued), and
//! answers through [`Snapshot::run`](crate::engine::Snapshot::run) —
//! lock-free, on whatever epoch was current when the request started.
//! Updates never stall readers: while the writer copy-on-write-patches
//! the next epoch, every shard keeps answering on the epochs it holds.
//!
//! Evaluation fan-out composes instead of oversubscribing: each shard
//! installs a per-session thread budget
//! ([`parallel::session_thread_budget`]) around its loop, so `N` clients
//! each running table builds stay within the machine's core count.
//!
//! ```
//! use std::time::Duration;
//! use tq_core::engine::{Engine, Query};
//! use tq_core::serve::{serve, ServeConfig, Workload};
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_geometry::Point;
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let users = UserSet::from_vec(vec![
//!     Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
//!     Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)),
//! ]);
//! let routes = FacilitySet::from_vec(vec![
//!     Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
//!     Facility::new(vec![p(50.0, 51.0), p(60.0, 51.0)]),
//! ]);
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(users)
//!     .facilities(routes)
//!     .build()
//!     .unwrap();
//! engine.warm();
//!
//! let workload = Workload {
//!     queries: vec![Query::top_k(2), Query::max_cov(1)],
//!     update_batches: Vec::new(),
//! };
//! let config = ServeConfig {
//!     clients: 2,
//!     duration: Duration::from_millis(20),
//!     ..ServeConfig::default()
//! };
//! let report = serve(&mut engine, &workload, &config).unwrap();
//! assert!(report.queries >= 2, "every shard answers at least once");
//! assert_eq!(report.epoch_regressions(), 0);
//! ```

use crate::dynamic::Update;
use crate::engine::{Answer, EngineError, Query, Reader};
use crate::parallel;
use crate::writer::ControlPlane;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The load to serve: a query script the client shards cycle through, and
/// the update batches the single writer applies while they do.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The query script. Shard `s` starts at script position `s` and
    /// cycles, so different shards interleave the script at different
    /// phases. Must be non-empty.
    pub queries: Vec<Query>,
    /// Update batches the writer applies in order (each at most once —
    /// update events name absolute trajectory ids, so a batch cannot
    /// replay). When the stream runs out before the duration does, the
    /// writer idles and the readers keep serving the final epoch.
    pub update_batches: Vec<Vec<Update>>,
}

/// Knobs of one [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of client shards (reader threads). Must be at least 1.
    pub clients: usize,
    /// How long to serve. Every shard answers at least one query even at
    /// zero duration.
    pub duration: Duration,
    /// Evaluation threads each shard may fan out to per query; `0` picks
    /// [`parallel::session_thread_budget`]`(clients + 1)` (the `+ 1`
    /// reserves a share for the writer).
    pub threads_per_client: usize,
    /// Writer pacing: sleep between consecutive update batches
    /// (`Duration::ZERO` = apply back-to-back).
    pub update_pause: Duration,
    /// On a durable engine (see [`crate::persist`]), finish the run with
    /// an [`Engine::checkpoint`](crate::engine::Engine::checkpoint) so the
    /// whole serving session's updates are compacted into one fresh
    /// snapshot and the WAL is empty for the next cold start. Ignored
    /// (no-op) on in-memory engines. During the run itself every applied
    /// batch is already WAL-logged by
    /// [`Engine::apply`](crate::engine::Engine::apply) before it publishes.
    pub final_checkpoint: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            clients: 4,
            duration: Duration::from_secs(1),
            threads_per_client: 0,
            update_pause: Duration::ZERO,
            final_checkpoint: false,
        }
    }
}

/// One client shard's share of a [`ServeReport`].
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Queries this shard answered.
    pub queries: u64,
    /// First and last snapshot epochs this shard observed.
    pub first_epoch: u64,
    /// See [`ClientStats::first_epoch`].
    pub last_epoch: u64,
    /// Times an observed epoch was *smaller* than the one before — always
    /// 0 unless snapshot publication is broken.
    pub epoch_regressions: u64,
    /// Summed query execution time (the [`Explain::wall`] values).
    ///
    /// [`Explain::wall`]: crate::engine::Explain::wall
    pub busy: Duration,
    /// Summed queue delay (the [`Explain::queued`] values).
    ///
    /// [`Explain::queued`]: crate::engine::Explain::queued
    pub queued: Duration,
    /// Worst single queue delay.
    pub max_queued: Duration,
    /// The shard's final answer — a representative sample for `explain:`
    /// reporting.
    pub last_answer: Option<Answer>,
}

/// What a [`serve`] run did: aggregate throughput, writer-side stall
/// numbers, and the per-shard breakdown.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Client shard count.
    pub clients: usize,
    /// Total wall time of the run.
    pub wall: Duration,
    /// Total queries answered across all shards.
    pub queries: u64,
    /// Aggregate read throughput: `queries / wall`.
    pub qps: f64,
    /// Update batches the writer applied.
    pub batches_applied: u64,
    /// Epoch published when the run started.
    pub first_epoch: u64,
    /// Epoch published when the run ended.
    pub last_epoch: u64,
    /// Total writer time spent applying + publishing batches — the whole
    /// write-plane cost; none of it stalls a reader.
    pub writer_busy: Duration,
    /// Worst single batch apply+publish time (the longest any *new*
    /// snapshot request could lag behind the freshest data, not a pause
    /// in query service).
    pub max_publish: Duration,
    /// Per-shard breakdown.
    pub per_client: Vec<ClientStats>,
}

impl ServeReport {
    /// Total epoch regressions across shards (0 unless publication is
    /// broken).
    pub fn epoch_regressions(&self) -> u64 {
        self.per_client.iter().map(|c| c.epoch_regressions).sum()
    }

    /// Mean queue delay across all answered queries.
    pub fn mean_queued(&self) -> Duration {
        let total: Duration = self.per_client.iter().map(|c| c.queued).sum();
        if self.queries == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(total.as_secs_f64() / self.queries as f64)
        }
    }

    /// A representative answer (the first shard's last), for `explain:`
    /// reporting.
    pub fn sample_answer(&self) -> Option<&Answer> {
        self.per_client.iter().find_map(|c| c.last_answer.as_ref())
    }

    /// A multi-line human-readable summary (what `tq serve` prints).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "served {} queries from {} clients in {:.3}s — {:.0} qps aggregate\n\
             epochs {}..={} ({} update batches; writer busy {:.3}s, worst publish {:.3}ms)\n\
             mean queue delay {:.3}ms",
            self.queries,
            self.clients,
            self.wall.as_secs_f64(),
            self.qps,
            self.first_epoch,
            self.last_epoch,
            self.batches_applied,
            self.writer_busy.as_secs_f64(),
            self.max_publish.as_secs_f64() * 1e3,
            self.mean_queued().as_secs_f64() * 1e3,
        );
        for (i, c) in self.per_client.iter().enumerate() {
            s.push_str(&format!(
                "\n  client {i}: {} queries, epochs {}..={}, busy {:.3}s, max queued {:.3}ms",
                c.queries,
                c.first_epoch,
                c.last_epoch,
                c.busy.as_secs_f64(),
                c.max_queued.as_secs_f64() * 1e3,
            ));
        }
        s
    }
}

/// Serves `workload` from `engine` for the configured duration: `clients`
/// reader shards answer the query script off published snapshots while
/// the calling thread — the single writer — applies the update stream and
/// publishes epochs. Returns the merged [`ServeReport`].
///
/// Errors surface from either plane: a query validation error from any
/// shard, or an update rejection from the writer (e.g.
/// [`EngineError::UpdatesUnsupported`] on a baseline backend with a
/// non-empty update stream). The workload is deterministic per shard, so
/// an error is reproducible by re-running the offending query/batch
/// directly.
///
/// # Panics
/// Panics when `config.clients == 0` or `workload.queries` is empty.
pub fn serve<C: ControlPlane>(
    engine: &mut C,
    workload: &Workload,
    config: &ServeConfig,
) -> Result<ServeReport, EngineError> {
    assert!(config.clients >= 1, "serve needs at least one client");
    assert!(!workload.queries.is_empty(), "serve needs a query script");
    let reader = engine.reader();
    let first_epoch = engine.current_epoch();
    let budget = if config.threads_per_client > 0 {
        config.threads_per_client
    } else {
        parallel::session_thread_budget(config.clients + 1)
    };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + config.duration;

    let mut batches_applied = 0u64;
    let mut writer_busy = Duration::ZERO;
    let mut max_publish = Duration::ZERO;
    let mut writer_err: Option<EngineError> = None;

    let shard_results: Vec<Result<ClientStats, EngineError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.clients)
            .map(|shard| {
                let reader = reader.clone();
                let stop = &stop;
                let queries = &workload.queries;
                s.spawn(move || client_shard(shard, &reader, queries, stop, budget))
            })
            .collect();

        // The single writer: apply the update stream until it runs out,
        // the deadline passes, or a shard reports an error (a shard's
        // queries are deterministic — once one fails, the run's outcome
        // is Err and waiting out the duration would only burn CPU).
        // Sleeps are sliced so that signal is noticed promptly.
        let mut batches = workload.update_batches.iter();
        let idle_slice = Duration::from_millis(20);
        loop {
            let now = Instant::now();
            if now >= deadline || writer_err.is_some() || stop.load(Ordering::Relaxed) {
                break;
            }
            match batches.next() {
                Some(batch) => {
                    let t = Instant::now();
                    // The writer works under the same per-session budget
                    // as each client shard — the `+ 1` share the budget
                    // reserved — so rebuild-heavy batches don't fan out
                    // to every core under the readers.
                    match parallel::with_threads(budget, || engine.apply_batch(batch)) {
                        Ok(_) => {
                            let took = t.elapsed();
                            writer_busy += took;
                            max_publish = max_publish.max(took);
                            batches_applied += 1;
                        }
                        Err(e) => writer_err = Some(e),
                    }
                    let pause_until = Instant::now() + config.update_pause.min(
                        deadline.saturating_duration_since(Instant::now()),
                    );
                    while Instant::now() < pause_until && !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(
                            idle_slice.min(pause_until.saturating_duration_since(Instant::now())),
                        );
                    }
                }
                None => {
                    // Stream exhausted: readers keep serving the final
                    // epoch until the deadline.
                    std::thread::sleep(
                        idle_slice.min(deadline.saturating_duration_since(Instant::now())),
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client shard panicked"))
            .collect()
    });

    if let Some(e) = writer_err {
        return Err(e);
    }
    let mut per_client = Vec::with_capacity(shard_results.len());
    for r in shard_results {
        per_client.push(r?);
    }
    if config.final_checkpoint && engine.persist_status().is_some() {
        engine.write_checkpoint()?;
    }
    let wall = start.elapsed();
    let queries: u64 = per_client.iter().map(|c| c.queries).sum();
    Ok(ServeReport {
        clients: config.clients,
        wall,
        queries,
        qps: queries as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        batches_applied,
        first_epoch,
        last_epoch: engine.current_epoch(),
        writer_busy,
        max_publish,
        per_client,
    })
}

/// One client shard's serving loop: pick the next scripted query, take
/// the latest snapshot, answer lock-free, account. Runs under the shard's
/// evaluation thread budget so concurrent shards' fan-outs compose.
fn client_shard(
    shard: usize,
    reader: &Reader,
    queries: &[Query],
    stop: &AtomicBool,
    budget: usize,
) -> Result<ClientStats, EngineError> {
    parallel::with_threads(budget, || {
        let mut stats = ClientStats::default();
        let mut cursor = shard;
        loop {
            let query = queries[cursor % queries.len()].clone();
            cursor += 1;
            let answer = match reader.query(query) {
                Ok(a) => a,
                Err(e) => {
                    // Wave the whole run off: the script is deterministic,
                    // so the serve() result is already known to be Err —
                    // no point letting the other shards and the writer run
                    // out the clock.
                    stop.store(true, Ordering::Relaxed);
                    return Err(e);
                }
            };
            let queued = answer.explain.queued;

            let epoch = answer.explain.snapshot_epoch;
            if stats.queries == 0 {
                stats.first_epoch = epoch;
            } else if epoch < stats.last_epoch {
                stats.epoch_regressions += 1;
            }
            stats.last_epoch = stats.last_epoch.max(epoch);
            stats.queries += 1;
            stats.busy += answer.explain.wall;
            stats.queued += queued;
            stats.max_queued = stats.max_queued.max(queued);
            stats.last_answer = Some(answer);

            // Check the flag *after* answering so even a zero-duration run
            // serves one query per shard.
            if stop.load(Ordering::Relaxed) {
                return Ok(stats);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::service::{Scenario, ServiceModel};
    use tq_geometry::{Point, Rect};
    use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn engine() -> Engine {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(1.0, 1.0), p(9.0, 1.0)),
            Trajectory::two_point(p(1.0, 5.0), p(9.0, 5.0)),
        ]);
        let routes = FacilitySet::from_vec(vec![
            Facility::new(vec![p(1.0, 2.0), p(9.0, 2.0)]),
            Facility::new(vec![p(1.0, 6.0), p(9.0, 6.0)]),
        ]);
        Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(routes)
            .bounds(Rect::new(p(0.0, 0.0), p(10.0, 10.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn serves_queries_and_updates_concurrently() {
        let mut e = engine();
        e.warm();
        let workload = Workload {
            queries: vec![Query::top_k(2), Query::max_cov(1)],
            update_batches: vec![
                vec![Update::Insert(Trajectory::two_point(p(2.0, 1.0), p(8.0, 1.0)))],
                vec![Update::Remove(2)],
            ],
        };
        let config = ServeConfig {
            clients: 3,
            duration: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let report = serve(&mut e, &workload, &config).unwrap();
        assert_eq!(report.batches_applied, 2);
        assert!(report.queries >= 3);
        assert_eq!(report.epoch_regressions(), 0);
        assert_eq!(report.last_epoch, e.epoch());
        assert!(report.last_epoch >= report.first_epoch + 2);
        assert!(report.sample_answer().is_some());
        assert!(report.summary().contains("qps"));
    }

    #[test]
    fn zero_duration_still_answers_once_per_shard() {
        let mut e = engine();
        let workload = Workload {
            queries: vec![Query::top_k(1)],
            update_batches: Vec::new(),
        };
        let config = ServeConfig {
            clients: 2,
            duration: Duration::ZERO,
            ..ServeConfig::default()
        };
        let report = serve(&mut e, &workload, &config).unwrap();
        assert!(report.queries >= 2);
        for c in &report.per_client {
            assert!(c.queries >= 1);
        }
    }

    #[test]
    fn shard_query_errors_surface_and_end_the_run_early() {
        let mut e = engine();
        let workload = Workload {
            queries: vec![Query::top_k(99)],
            update_batches: Vec::new(),
        };
        // A long configured duration must not delay the error: the first
        // failing shard waves the whole run off.
        let config = ServeConfig {
            clients: 2,
            duration: Duration::from_secs(600),
            ..ServeConfig::default()
        };
        let start = std::time::Instant::now();
        let err = serve(&mut e, &workload, &config).unwrap_err();
        assert_eq!(err, EngineError::KExceedsCandidates { k: 99, candidates: 2 });
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "run should end at the first shard error, not at the deadline"
        );
    }

    #[test]
    fn sharded_serving_matches_the_single_engine() {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(1.0, 1.0), p(9.0, 1.0)),
            Trajectory::two_point(p(1.0, 5.0), p(9.0, 5.0)),
            Trajectory::two_point(p(2.0, 1.0), p(8.0, 1.0)),
        ]);
        let routes = FacilitySet::from_vec(vec![
            Facility::new(vec![p(1.0, 2.0), p(9.0, 2.0)]),
            Facility::new(vec![p(1.0, 6.0), p(9.0, 6.0)]),
        ]);
        let bounds = Rect::new(p(0.0, 0.0), p(10.0, 10.0));
        let build = || {
            Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
                .users(users.clone())
                .facilities(routes.clone())
                .bounds(bounds)
        };
        let mut sharded = build().shards(2).build_sharded().unwrap();
        let mut single = build().build().unwrap();

        let workload = Workload {
            queries: vec![Query::top_k(2), Query::max_cov(1)],
            update_batches: vec![
                vec![Update::Insert(Trajectory::two_point(p(2.0, 5.0), p(8.0, 5.0)))],
                vec![Update::Remove(0)],
            ],
        };
        let config = ServeConfig {
            clients: 2,
            duration: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let report = serve(&mut sharded, &workload, &config).unwrap();
        assert_eq!(report.batches_applied, 2);
        assert!(report.queries >= 2);
        assert_eq!(report.epoch_regressions(), 0);
        assert_eq!(report.last_epoch, sharded.epoch());

        // The served answers are the single engine's answers, bit for bit.
        for batch in &workload.update_batches {
            single.apply(batch).unwrap();
        }
        let want = single.run(Query::top_k(2)).unwrap();
        let got = sharded.run(Query::top_k(2)).unwrap();
        assert_eq!(got.ranked(), want.ranked());
    }

    #[test]
    fn writer_errors_surface() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(1.0, 1.0), p(2.0, 2.0))]);
        let routes = FacilitySet::from_vec(vec![Facility::new(vec![p(1.0, 1.5)])]);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(routes)
            .baseline()
            .build()
            .unwrap();
        let workload = Workload {
            queries: vec![Query::top_k(1)],
            update_batches: vec![vec![Update::Remove(0)]],
        };
        let config = ServeConfig {
            clients: 1,
            duration: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let err = serve(&mut e, &workload, &config).unwrap_err();
        assert_eq!(err, EngineError::UpdatesUnsupported);
    }
}
