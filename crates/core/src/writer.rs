//! The single-writer funnel: share one [`Engine`] behind one lock and
//! expose a cloneable, thread-safe handle that serializes update batches
//! and checkpoints through it.
//!
//! The engine's concurrency model is many lock-free readers (clone a
//! [`Reader`] before spawning them) and **exactly
//! one** writer. An in-process program can keep the writer on the calling
//! thread; a daemon with many client connections needs the opposite
//! shape — any connection may carry an update batch, but only one of
//! them may write at a time. [`WriterHub::spawn`] is that shape:
//!
//! ```
//! use tq_core::engine::{Engine, Query};
//! use tq_core::dynamic::Update;
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_core::writer::WriterHub;
//! use tq_geometry::{Point, Rect};
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(UserSet::from_vec(vec![
//!         Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
//!     ]))
//!     .facilities(FacilitySet::from_vec(vec![
//!         Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
//!     ]))
//!     .bounds(Rect::new(p(-50.0, -50.0), p(50.0, 50.0)))
//!     .build()
//!     .unwrap();
//!
//! let reader = engine.reader();          // lock-free read plane, any thread
//! let hub = WriterHub::spawn(engine);    // engine moves behind the funnel's lock
//! let handle = hub.handle();             // Clone one per connection thread
//!
//! let ack = handle
//!     .apply(vec![Update::Insert(Trajectory::two_point(p(1.0, 0.0), p(2.0, 0.0)))])
//!     .unwrap();
//! assert_eq!(ack.outcome.inserted, vec![1]);
//! assert_eq!(reader.snapshot().epoch(), ack.epoch);
//!
//! let mut engine = hub.stop(false).unwrap(); // engine moves back to the caller
//! assert_eq!(engine.live_users(), 2);
//! # let _ = engine.run(Query::top_k(1)).unwrap();
//! ```
//!
//! Readers are unaffected while a batch applies — they keep answering from
//! the snapshot the writer last published. A request runs on the
//! *calling* thread while it holds the funnel's lock: batches from
//! different handles apply in lock order, one handle's batches in call
//! order (each call blocks until its ack), and an acknowledged batch has
//! already passed through the engine's WAL-before-publish path when the
//! engine is durable.

use crate::dynamic::{BatchOutcome, Update};
use crate::engine::{Engine, EngineError, Explain, Reader};
use crate::persist::PersistStatus;
use crate::sharding::ShardedEngine;
use std::any::Any;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry handles for the writer funnel. The batch histogram's tail
/// *is* the publish-stall story: a batch applies copy-on-write under the
/// funnel's lock and publishes at the end, so its wall time is exactly
/// how long the funnel was busy (readers are never blocked either way).
struct WriterMetrics {
    queue_depth: &'static tq_obs::Gauge,
    queued_ns: &'static tq_obs::Histogram,
    batch_ns: &'static tq_obs::Histogram,
    batches: &'static tq_obs::Counter,
}

fn writer_metrics() -> &'static WriterMetrics {
    static M: OnceLock<WriterMetrics> = OnceLock::new();
    M.get_or_init(|| WriterMetrics {
        queue_depth: tq_obs::gauge("tq_writer_queue_depth", ""),
        queued_ns: tq_obs::histogram("tq_writer_queued_ns", ""),
        batch_ns: tq_obs::histogram("tq_writer_batch_ns", ""),
        batches: tq_obs::counter("tq_writer_batches_total", ""),
    })
}

/// Rolls one funneled batch into the registry and offers it to the
/// slow-query log — the write-side sibling of the read path's
/// [`Explain::queued`] accounting, so write stalls surface in the same
/// place slow queries do.
fn note_apply(updates: usize, queued: Duration, wall: Duration, epoch: Option<u64>) {
    if !tq_obs::enabled() {
        return;
    }
    let m = writer_metrics();
    m.batches.incr();
    m.queued_ns.record(queued);
    m.batch_ns.record(wall);
    let total = tq_obs::duration_ns(queued).saturating_add(tq_obs::duration_ns(wall));
    tq_obs::record_slow(total, || {
        let explain = Explain {
            snapshot_epoch: epoch.unwrap_or(0),
            queued,
            wall,
            ..Explain::default()
        };
        format!("apply ({updates} updates) {explain}")
    });
}

/// A single-writer control plane a [`WriterHub`] can own: the engine-side
/// contract of the funnel — all-or-nothing batch application, epoch
/// publication, and explicit checkpoints. Implemented by [`Engine`] and
/// by the sharded front end ([`ShardedEngine`]), so one daemon codebase
/// serves both (`tqd --shards N` funnels batches through the exact same
/// hub). `Any` lets [`WriterHub::stop`] hand back the concrete type the
/// hub was spawned with.
pub trait ControlPlane: Any + Send {
    /// A cloneable read handle following every publication of this
    /// engine. Clone before moving the engine into a [`WriterHub`].
    fn reader(&self) -> Reader;
    /// Applies one update batch, all-or-nothing ([`Engine::apply`]).
    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError>;
    /// The current published epoch.
    fn current_epoch(&self) -> u64;
    /// The attached store's status, `None` for in-memory.
    fn persist_status(&self) -> Option<PersistStatus>;
    /// Writes an explicit checkpoint, returning the snapshot path (the
    /// store's root directory for a sharded plane).
    fn write_checkpoint(&mut self) -> Result<PathBuf, EngineError>;
    /// Applies a batch shipped from a replication primary, publishing at
    /// the primary's stamp ([`Engine::apply_replicated`]). Control planes
    /// without replication support refuse it typed, never silently.
    fn apply_replicated(
        &mut self,
        _updates: &[Update],
        _stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        Err(EngineError::Sharded(
            "this control plane cannot apply replicated batches".into(),
        ))
    }
    /// Idle-time housekeeping ([`Engine::maintain`]): age-based
    /// checkpointing and background-worker harvesting. Defaults to a
    /// no-op.
    fn maintain(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

impl ControlPlane for Engine {
    fn reader(&self) -> Reader {
        Engine::reader(self)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        self.apply(updates)
    }

    fn current_epoch(&self) -> u64 {
        self.epoch()
    }

    fn persist_status(&self) -> Option<PersistStatus> {
        self.persistence()
    }

    fn write_checkpoint(&mut self) -> Result<PathBuf, EngineError> {
        self.checkpoint()
    }

    fn apply_replicated(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        Engine::apply_replicated(self, updates, stamp)
    }

    fn maintain(&mut self) -> Result<(), EngineError> {
        Engine::maintain(self)
    }
}

impl ControlPlane for ShardedEngine {
    fn reader(&self) -> Reader {
        ShardedEngine::reader(self)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        self.apply(updates)
    }

    fn current_epoch(&self) -> u64 {
        self.epoch()
    }

    fn persist_status(&self) -> Option<PersistStatus> {
        self.persistence()
    }

    fn write_checkpoint(&mut self) -> Result<PathBuf, EngineError> {
        self.checkpoint()
    }

    fn maintain(&mut self) -> Result<(), EngineError> {
        ShardedEngine::maintain(self)
    }
}

/// Acknowledgement of one applied batch: what it did and where it left the
/// engine.
#[derive(Debug, Clone)]
pub struct BatchAck {
    /// The epoch the batch published — readers observing this epoch (or a
    /// later one) see the batch.
    pub epoch: u64,
    /// Per-batch work summary from [`Engine::apply`].
    pub outcome: BatchOutcome,
    /// WAL records pending since the last checkpoint (`0` for an in-memory
    /// engine, and right after an auto-checkpoint).
    pub wal_batches: u64,
}

/// Acknowledgement of an explicit checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointAck {
    /// The epoch the snapshot captured.
    pub epoch: u64,
    /// The snapshot file written.
    pub path: PathBuf,
}

/// Why a [`WriterHandle`] request failed.
#[derive(Debug)]
pub enum WriterError {
    /// The engine rejected the request (the engine itself is fine; for
    /// [`EngineError::CheckpointFailed`] the batch *is* applied and
    /// durable — see [`Engine::apply`]).
    Engine(EngineError),
    /// The hub has stopped, or a writer panicked holding the funnel's
    /// lock; no writer holds the engine anymore.
    Stopped,
}

impl std::fmt::Display for WriterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriterError::Engine(e) => write!(f, "{e}"),
            WriterError::Stopped => write!(f, "the writer has stopped"),
        }
    }
}

impl std::error::Error for WriterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriterError::Engine(e) => Some(e),
            WriterError::Stopped => None,
        }
    }
}

/// A post-WAL observer of every batch the writer publishes: called
/// under the funnel's lock, so in apply order, with the published epoch
/// and the batch, *after* the batch is applied and WAL-logged and before
/// its caller gets the ack. A replication primary installs one to feed
/// its followers; the tap must never block, since every writer waits on
/// it (the [`tq_repl` hub]'s queues are bounded `try_send` for exactly
/// that reason).
///
/// [`tq_repl` hub]: ../../tq_repl/index.html
pub type BatchTap = Box<dyn Fn(u64, &[Update]) + Send>;

/// Tunables for [`WriterHub::spawn_with`]. The [`Default`] options are
/// exactly [`WriterHub::spawn`]: no tap, writable, half-second tick.
#[derive(Default)]
pub struct WriterOptions {
    /// Observer of every published batch — see [`BatchTap`]. Fires for
    /// direct *and* replicated applies, so a promoted (or chained)
    /// follower feeds its own followers.
    pub tap: Option<BatchTap>,
    /// `Some(primary_addr)` starts the hub read-only: direct
    /// [`WriterHandle::apply`] calls are refused with
    /// [`EngineError::ReadOnly`] naming that address, while replicated
    /// applies (and [`WriterHandle::promote`]) still work.
    pub read_only: Option<String>,
    /// Interval between [`ControlPlane::maintain`] calls, made whether or
    /// not requests arrive; each holds the funnel's lock while it runs.
    /// Defaults to 500 ms.
    pub tick: Option<Duration>,
}

/// What the funnel's one lock guards.
struct Funnel {
    /// `None` once [`WriterHub::stop`] has taken the engine back.
    engine: Option<Box<dyn ControlPlane>>,
    /// `Some(primary_addr)` while the hub is read-only.
    read_only: Option<String>,
    tap: Option<BatchTap>,
}

/// A cloneable, sendable handle into the funnel. Each call runs on the
/// calling thread under the funnel's lock and blocks until it is done.
#[derive(Clone)]
pub struct WriterHandle {
    funnel: Arc<Mutex<Funnel>>,
}

impl WriterHandle {
    /// A writer that panicked holding the lock leaves the funnel
    /// poisoned: every later request reads as [`WriterError::Stopped`].
    fn lock(&self) -> Result<MutexGuard<'_, Funnel>, WriterError> {
        self.funnel.lock().map_err(|_| WriterError::Stopped)
    }

    /// Applies one update batch through the single writer. All-or-nothing,
    /// exactly as [`Engine::apply`]: a rejected batch leaves the engine (and
    /// its WAL) untouched.
    pub fn apply(&self, batch: Vec<Update>) -> Result<BatchAck, WriterError> {
        self.write(&batch, None)
    }

    /// Takes an explicit checkpoint ([`Engine::checkpoint`]). Errors with
    /// [`EngineError::NotDurable`] through [`WriterError::Engine`] when the
    /// engine has no attached store.
    pub fn checkpoint(&self) -> Result<CheckpointAck, WriterError> {
        let mut funnel = self.lock()?;
        let engine = funnel.engine.as_deref_mut().ok_or(WriterError::Stopped)?;
        let path = engine.write_checkpoint().map_err(WriterError::Engine)?;
        Ok(CheckpointAck {
            epoch: engine.current_epoch(),
            path,
        })
    }

    /// Applies a batch shipped from a replication primary at the
    /// primary's epoch stamp ([`Engine::apply_replicated`]). Works on a
    /// read-only hub — this *is* the follower's write path.
    pub fn apply_replicated(
        &self,
        batch: Vec<Update>,
        stamp: u64,
    ) -> Result<BatchAck, WriterError> {
        self.write(&batch, Some(stamp))
    }

    /// Lifts a read-only hub into a writable one (follower promotion) and
    /// returns the epoch it promotes at. Idempotent; a no-op on a hub
    /// that is already writable.
    pub fn promote(&self) -> Result<u64, WriterError> {
        let mut funnel = self.lock()?;
        let epoch = funnel.engine.as_deref().ok_or(WriterError::Stopped)?.current_epoch();
        funnel.read_only = None;
        Ok(epoch)
    }

    /// The write path of [`WriterHandle::apply`] (no `stamp`) and
    /// [`WriterHandle::apply_replicated`]. The wait for the lock is the
    /// batch's [`Explain::queued`].
    fn write(&self, batch: &[Update], stamp: Option<u64>) -> Result<BatchAck, WriterError> {
        let depth = writer_metrics().queue_depth;
        depth.inc();
        let waiting = Instant::now();
        let out = self.lock().and_then(|mut funnel| {
            let queued = waiting.elapsed();
            let Funnel {
                engine,
                read_only,
                tap,
            } = &mut *funnel;
            let engine = engine.as_deref_mut().ok_or(WriterError::Stopped)?;
            if let (Some(primary), None) = (read_only.as_ref(), stamp) {
                return Err(WriterError::Engine(EngineError::ReadOnly {
                    primary: primary.clone(),
                }));
            }
            let before = engine.current_epoch();
            let applying = Instant::now();
            let applied = match stamp {
                None => engine.apply_batch(batch),
                Some(stamp) => engine.apply_replicated(batch, stamp),
            };
            let ack = applied.map(|outcome| BatchAck {
                epoch: engine.current_epoch(),
                outcome,
                wal_batches: engine
                    .persist_status()
                    .map_or(0, |s| s.wal_batches as u64),
            });
            // A stamp-skipped (already-reflected) replicated batch leaves
            // the epoch in place and must not re-ship.
            let ship = ack.as_ref().map(|a| a.epoch).ok().filter(|&e| e > before);
            note_apply(batch.len(), queued, applying.elapsed(), ship);
            // Still under the lock, so the feed sees batches in apply
            // order, each after its WAL append. Replicated applies feed
            // the tap too, so a chained or later-promoted follower can
            // serve followers of its own.
            if let (Some(tap), Some(epoch)) = (tap.as_ref(), ship) {
                tap(epoch, batch);
            }
            ack.map_err(WriterError::Engine)
        });
        depth.dec();
        out
    }
}

/// Owns the funnel's lifecycle and its housekeeping ticker. Keep the hub
/// where the engine's lifecycle is managed; pass [`WriterHandle`] clones
/// to everything else.
///
/// Generic over the [`ControlPlane`] it owns — a plain [`Engine`] (the
/// default) or a [`ShardedEngine`] front end; the handles are identical
/// either way.
pub struct WriterHub<C: ControlPlane = Engine> {
    funnel: Arc<Mutex<Funnel>>,
    ticker: JoinHandle<()>,
    /// Dropped by [`WriterHub::stop`] (or with the hub) to end the ticker.
    stop_ticker: Sender<()>,
    plane: PhantomData<fn() -> C>,
}

impl<C: ControlPlane> WriterHub<C> {
    /// Moves the control plane behind the funnel's lock and starts its
    /// housekeeping ticker. Clone a [`Reader`] (and warm, if wanted)
    /// *before* spawning — the hub gives the engine back only on
    /// [`WriterHub::stop`].
    pub fn spawn(engine: C) -> WriterHub<C> {
        WriterHub::spawn_with(engine, WriterOptions::default())
    }

    /// [`WriterHub::spawn`] with explicit [`WriterOptions`]: a post-WAL
    /// batch tap (the replication feed point), an initial read-only state
    /// (a follower hub), and the [`ControlPlane::maintain`] tick.
    pub fn spawn_with(engine: C, options: WriterOptions) -> WriterHub<C> {
        let funnel = Arc::new(Mutex::new(Funnel {
            engine: Some(Box::new(engine)),
            read_only: options.read_only,
            tap: options.tap,
        }));
        let tick = options.tick.unwrap_or(Duration::from_millis(500));
        let (stop_ticker, stopped) = channel::<()>();
        let ticker = {
            let funnel = Arc::clone(&funnel);
            std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                    let Ok(mut funnel) = funnel.lock() else { break };
                    if let Some(engine) = funnel.engine.as_deref_mut() {
                        // Housekeeping. An error here (a failed age-based
                        // checkpoint) has no requester to carry it; the
                        // WAL still holds every acked batch, and the
                        // verdict resurfaces on the next apply's harvest.
                        let _ = engine.maintain();
                    }
                }
            })
        };
        WriterHub {
            funnel,
            ticker,
            stop_ticker,
            plane: PhantomData,
        }
    }

    /// A new funnel handle for another thread.
    pub fn handle(&self) -> WriterHandle {
        WriterHandle {
            funnel: Arc::clone(&self.funnel),
        }
    }

    /// Stops the writer and returns the engine. With `final_checkpoint`
    /// set, a durable engine writes one last snapshot first (a checkpoint
    /// failure surfaces here — the WAL still holds every acknowledged
    /// batch, so nothing is lost). Calls already holding the lock finish
    /// first; calls that take it afterwards, from handles that outlive
    /// the hub, get [`WriterError::Stopped`].
    pub fn stop(self, final_checkpoint: bool) -> Result<C, EngineError> {
        let panicked = || EngineError::Persist("the writer panicked".into());
        drop(self.stop_ticker);
        self.ticker.join().map_err(|_| panicked())?;
        let engine = self.funnel.lock().map_err(|_| panicked())?.engine.take();
        let engine: Box<dyn Any> = engine.expect("only `stop` takes the engine");
        let mut engine = *engine.downcast::<C>().expect("the hub was spawned with a `C`");
        if final_checkpoint && engine.persist_status().is_some() {
            engine.write_checkpoint()?;
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Query;
    use crate::service::{Scenario, ServiceModel};
    use tq_geometry::{Point, Rect};
    use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};

    fn small_engine() -> Engine {
        let p = |x: f64, y: f64| Point::new(x, y);
        Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(UserSet::from_vec(vec![
                Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
                Trajectory::two_point(p(0.0, 5.0), p(10.0, 5.0)),
            ]))
            .facilities(FacilitySet::from_vec(vec![
                Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
                Facility::new(vec![p(0.0, 4.0), p(10.0, 4.0)]),
            ]))
            .bounds(Rect::new(p(-100.0, -100.0), p(100.0, 100.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn concurrent_handles_serialize_batches() {
        let engine = small_engine();
        let reader = engine.reader();
        let e0 = engine.epoch();
        let hub = WriterHub::spawn(engine);
        let p = |x: f64, y: f64| Point::new(x, y);

        let threads: Vec<_> = (0..4)
            .map(|i| {
                let handle = hub.handle();
                std::thread::spawn(move || {
                    let y = 10.0 + i as f64;
                    handle
                        .apply(vec![Update::Insert(Trajectory::two_point(
                            p(0.0, y),
                            p(10.0, y),
                        ))])
                        .unwrap()
                })
            })
            .collect();
        let mut epochs: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap().epoch).collect();
        epochs.sort_unstable();
        // One publication per batch, strictly ordered: the funnel
        // serialized four concurrent writers.
        assert_eq!(epochs, (e0 + 1..=e0 + 4).collect::<Vec<_>>());
        assert_eq!(reader.snapshot().epoch(), e0 + 4);
        assert_eq!(reader.snapshot().live_users(), 6);

        let engine = hub.stop(false).unwrap();
        assert_eq!(engine.live_users(), 6);
    }

    /// One insert per batch, told apart by its `y`.
    fn insert_at(y: f64) -> Vec<Update> {
        let p = |x: f64, y: f64| Point::new(x, y);
        vec![Update::Insert(Trajectory::two_point(p(0.0, y), p(10.0, y)))]
    }

    /// What a recording tap was fed, as `(epoch, batch)`; `Update` has no
    /// `PartialEq`, so a batch is held as its `Debug` text.
    type Fed = Arc<Mutex<Vec<(u64, String)>>>;

    fn recording_tap() -> (BatchTap, Fed) {
        let fed: Fed = Arc::default();
        let sink = Arc::clone(&fed);
        let tap: BatchTap = Box::new(move |epoch, batch| {
            sink.lock().unwrap().push((epoch, format!("{batch:?}")));
        });
        (tap, fed)
    }

    #[test]
    fn the_feed_sees_racing_batches_in_apply_order() {
        let engine = small_engine();
        let e0 = engine.epoch();
        let (tap, fed) = recording_tap();
        let hub = WriterHub::spawn_with(
            engine,
            WriterOptions {
                tap: Some(tap),
                ..WriterOptions::default()
            },
        );
        let racers: Vec<_> = (0..4)
            .map(|i| {
                let handle = hub.handle();
                std::thread::spawn(move || {
                    (0..25)
                        .map(|j| {
                            let batch = insert_at(10.0 + 0.5 * f64::from(i * 25 + j));
                            let ack = handle.apply(batch.clone()).unwrap();
                            (ack.epoch, format!("{batch:?}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut acked: Vec<(u64, String)> =
            racers.into_iter().flat_map(|r| r.join().unwrap()).collect();
        acked.sort();
        let fed = std::mem::take(&mut *fed.lock().unwrap());
        // Fed in apply order: strictly increasing and dense epochs...
        let epochs: Vec<u64> = fed.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, (e0 + 1..=e0 + 100).collect::<Vec<_>>());
        // ...each carrying exactly the batch acked at that epoch.
        assert_eq!(fed, acked);
        let engine = hub.stop(false).unwrap();
        assert_eq!(engine.epoch(), e0 + 100);
    }

    #[test]
    fn a_read_only_hub_refuses_direct_writes_and_never_reships_a_stamp() {
        let engine = small_engine();
        let e0 = engine.epoch();
        let (tap, fed) = recording_tap();
        let hub = WriterHub::spawn_with(
            engine,
            WriterOptions {
                tap: Some(tap),
                read_only: Some("primary:7000".into()),
                tick: None,
            },
        );
        let handle = hub.handle();
        match handle.apply(insert_at(20.0)).unwrap_err() {
            WriterError::Engine(EngineError::ReadOnly { primary }) => {
                assert_eq!(primary, "primary:7000");
            }
            other => panic!("expected a read-only refusal, got {other:?}"),
        }
        // The follower's write path publishes at the primary's stamp and
        // feeds the tap.
        let ack = handle.apply_replicated(insert_at(21.0), e0 + 3).unwrap();
        assert_eq!(ack.epoch, e0 + 3);
        // A stamp already reflected is acked, leaves the epoch where it
        // was, and is not fed again.
        let skipped = handle.apply_replicated(insert_at(22.0), e0 + 2).unwrap();
        assert_eq!(skipped.epoch, e0 + 3);
        assert!(skipped.outcome.inserted.is_empty());
        assert_eq!(*fed.lock().unwrap(), vec![(e0 + 3, format!("{:?}", insert_at(21.0)))]);
        // Promotion lifts the refusal.
        assert_eq!(handle.promote().unwrap(), e0 + 3);
        assert_eq!(handle.apply(insert_at(23.0)).unwrap().epoch, e0 + 4);
        assert_eq!(fed.lock().unwrap().len(), 2);
        let engine = hub.stop(false).unwrap();
        assert_eq!(engine.epoch(), e0 + 4);
        assert_eq!(engine.live_users(), 4);
    }

    #[test]
    fn rejected_batches_leave_the_engine_untouched() {
        let engine = small_engine();
        let e0 = engine.epoch();
        let hub = WriterHub::spawn(engine);
        let handle = hub.handle();
        let err = handle.apply(vec![Update::Remove(999)]).unwrap_err();
        assert!(matches!(err, WriterError::Engine(EngineError::Update(_))));
        // Checkpoint on an in-memory engine is a typed refusal, not a panic.
        assert!(matches!(
            handle.checkpoint().unwrap_err(),
            WriterError::Engine(EngineError::NotDurable)
        ));
        let mut engine = hub.stop(false).unwrap();
        assert_eq!(engine.epoch(), e0);
        assert_eq!(engine.live_users(), 2);
        assert!(handle.apply(vec![]).is_err(), "handle outlived the hub");
        let _ = engine.run(Query::top_k(1)).unwrap();
    }

    #[test]
    fn a_static_backend_refuses_updates_through_the_funnel() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(UserSet::from_vec(vec![Trajectory::two_point(p(1.0, 1.0), p(2.0, 2.0))]))
            .facilities(FacilitySet::from_vec(vec![Facility::new(vec![p(1.0, 1.5)])]))
            .baseline()
            .build()
            .unwrap();
        let e0 = engine.epoch();
        let hub = WriterHub::spawn(engine);
        let err = hub.handle().apply(vec![Update::Remove(0)]).unwrap_err();
        assert!(matches!(err, WriterError::Engine(EngineError::UpdatesUnsupported)));
        let engine = hub.stop(false).unwrap();
        assert_eq!(engine.epoch(), e0);
        assert_eq!(engine.live_users(), 1);
    }

    #[test]
    fn a_sharded_engine_behind_the_funnel_answers_like_one_engine() {
        let p = |x: f64, y: f64| Point::new(x, y);
        let builder = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(UserSet::from_vec(vec![
                Trajectory::two_point(p(1.0, 1.0), p(9.0, 1.0)),
                Trajectory::two_point(p(1.0, 5.0), p(9.0, 5.0)),
                Trajectory::two_point(p(2.0, 1.0), p(8.0, 1.0)),
            ]))
            .facilities(FacilitySet::from_vec(vec![
                Facility::new(vec![p(1.0, 2.0), p(9.0, 2.0)]),
                Facility::new(vec![p(1.0, 6.0), p(9.0, 6.0)]),
            ]))
            .bounds(Rect::new(p(0.0, 0.0), p(10.0, 10.0)));
        let mut single = builder.clone().build().unwrap();
        let sharded = builder.shards(2).build_sharded().unwrap();
        let reader = sharded.reader();
        let e0 = sharded.epoch();
        let hub = WriterHub::spawn(sharded);
        let batches = [
            vec![Update::Insert(Trajectory::two_point(p(2.0, 5.0), p(8.0, 5.0)))],
            vec![Update::Remove(0)],
        ];
        for (i, batch) in batches.iter().enumerate() {
            let ack = hub.handle().apply(batch.clone()).unwrap();
            assert_eq!(ack.outcome.inserted, single.apply(batch).unwrap().inserted);
            assert_eq!(ack.epoch, e0 + 1 + i as u64);
            assert_eq!(reader.epoch(), ack.epoch);
        }
        // The funnel's read plane answers with the single engine's bits.
        let bits = |a: &crate::engine::Answer| -> Vec<(u32, u64)> {
            a.ranked().iter().map(|&(id, v)| (id, v.to_bits())).collect()
        };
        let got = reader.query(Query::top_k(2)).unwrap();
        assert_eq!(bits(&got), bits(&single.run(Query::top_k(2)).unwrap()));
        let sharded = hub.stop(false).unwrap();
        assert_eq!(sharded.live_users(), single.live_users());
    }
}
