//! The primary-side replication hub: fan-out from the single-writer
//! funnel's post-WAL batch tap to per-follower feed queues.
//!
//! One [`ReplicationHub`] lives next to the primary's `WriterHub`. The
//! writer calls [`ReplicationHub::publish`] (through the [`BatchTap`]
//! from [`ReplicationHub::tap`]) under the funnel's lock after every
//! applied, WAL-logged batch; each feed connection registers a bounded
//! queue, drains it to its follower, and reports acknowledgements back.
//! Everything the write path touches is `try_send` on a bounded channel
//! — **the tap never blocks**: a follower whose queue fills (or whose
//! feed thread died) is marked overflowed, its feed drops the
//! connection, and the follower reconnects and re-catches-up from disk,
//! where every record it missed still is.

use crate::proto::ReplRecord;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Registry handles for replication health: the shipped/acked positions
/// and their gap (the follower lag, in epochs — one record per epoch, so
/// the same number reads as records behind), plus the overflow drops
/// that force a follower back to disk catch-up.
struct HubMetrics {
    followers: &'static tq_obs::Gauge,
    last_shipped: &'static tq_obs::Gauge,
    min_acked: &'static tq_obs::Gauge,
    lag: &'static tq_obs::Gauge,
    records_shipped: &'static tq_obs::Counter,
    overflow_drops: &'static tq_obs::Counter,
}

fn metrics() -> &'static HubMetrics {
    static M: OnceLock<HubMetrics> = OnceLock::new();
    M.get_or_init(|| HubMetrics {
        followers: tq_obs::gauge("tq_repl_followers", ""),
        last_shipped: tq_obs::gauge("tq_repl_last_shipped_epoch", ""),
        min_acked: tq_obs::gauge("tq_repl_min_acked_epoch", ""),
        lag: tq_obs::gauge("tq_repl_lag_epochs", ""),
        records_shipped: tq_obs::counter("tq_repl_records_shipped_total", ""),
        overflow_drops: tq_obs::counter("tq_repl_overflow_drops_total", ""),
    })
}

impl HubInner {
    /// Refreshes the position gauges from this state — called under the
    /// hub lock wherever positions move, so the gauges never lag the
    /// status frames.
    fn sync_gauges(&self) {
        if !tq_obs::enabled() {
            return;
        }
        let m = metrics();
        m.followers.set(self.followers.len() as u64);
        m.last_shipped.set(self.last_shipped);
        let min_acked = self.followers.values().map(|s| s.acked).min().unwrap_or(0);
        m.min_acked.set(min_acked);
        m.lag.set(self.last_shipped.saturating_sub(min_acked));
    }
}
use tq_core::dynamic::Update;
use tq_core::persist::encode_update_batch;
use tq_core::writer::BatchTap;
use tq_store::ReplMeta;

/// Records a feed queue may hold before its follower counts as fallen
/// behind. Sized so a briefly stalled follower survives a burst, while a
/// genuinely stuck one is dropped long before the primary notices any
/// memory pressure.
pub const FEED_QUEUE_DEPTH: usize = 1024;

/// Minimum spacing between advisory `repl.tqr` rewrites. A feed can
/// acknowledge hundreds of records per second; rewriting (create +
/// rename) the position file for each would double the primary store
/// directory's metadata traffic and contend with the WAL's fsyncs. The
/// file is advisory, so a throttled snapshot is exactly as useful.
const META_WRITE_INTERVAL: Duration = Duration::from_millis(200);

struct FollowerSlot {
    tx: SyncSender<ReplRecord>,
    peer: String,
    acked: u64,
    overflowed: bool,
}

struct HubInner {
    next_id: u64,
    followers: HashMap<u64, FollowerSlot>,
    last_shipped: u64,
    /// When the advisory position file was last rewritten.
    meta_stamp: Option<Instant>,
}

impl HubInner {
    fn meta(&self) -> ReplMeta {
        ReplMeta {
            last_shipped: self.last_shipped,
            last_acked: self.followers.values().map(|s| s.acked).min().unwrap_or(0),
        }
    }
}

/// One follower's position, as [`HubStatus`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerStatus {
    /// The hub-assigned feed id.
    pub id: u64,
    /// The follower's peer address, as its feed connection reported it.
    pub peer: String,
    /// Newest epoch this follower has acknowledged.
    pub acked: u64,
    /// Whether the follower overran its feed queue and is about to be
    /// dropped by its feed thread.
    pub overflowed: bool,
}

/// A point-in-time summary of the hub, for status frames and `tq status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubStatus {
    /// Every registered follower, in feed-id order.
    pub followers: Vec<FollowerStatus>,
    /// Epoch of the newest record offered to any feed.
    pub last_shipped: u64,
    /// The slowest follower's acknowledged epoch — `last_shipped` minus
    /// this is the replication lag. `None` with no followers connected.
    pub min_acked: Option<u64>,
}

/// The primary-side fan-out point — see the [module docs](self).
pub struct ReplicationHub {
    inner: Mutex<HubInner>,
    /// Store directory to drop the advisory `repl.tqr` position file
    /// into, when the primary is durable.
    dir: Option<PathBuf>,
}

impl ReplicationHub {
    /// A hub with no followers yet. `dir` names the primary's store
    /// directory so follower acknowledgements leave an advisory
    /// [`ReplMeta`] behind for `tq inspect`; pass `None` for an
    /// in-memory primary.
    pub fn new(dir: Option<PathBuf>) -> Arc<ReplicationHub> {
        Arc::new(ReplicationHub {
            inner: Mutex::new(HubInner {
                next_id: 0,
                followers: HashMap::new(),
                last_shipped: 0,
                meta_stamp: None,
            }),
            dir,
        })
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The [`BatchTap`] to install into the writer funnel
    /// ([`tq_core::writer::WriterOptions::tap`]); it forwards every
    /// applied batch to [`ReplicationHub::publish`].
    pub fn tap(self: &Arc<Self>) -> BatchTap {
        let hub = Arc::clone(self);
        Box::new(move |epoch, updates| hub.publish(epoch, updates))
    }

    /// Fans one applied batch out to every follower feed. Called under
    /// the writer funnel's lock — O(1) channel pushes, one batch encoding,
    /// no blocking, nothing at all when no follower is connected.
    pub fn publish(&self, epoch: u64, updates: &[Update]) {
        let mut inner = self.lock();
        if inner.followers.is_empty() {
            return;
        }
        if epoch > inner.last_shipped {
            inner.last_shipped = epoch;
        }
        let payload = encode_update_batch(updates);
        for slot in inner.followers.values_mut() {
            if slot.overflowed {
                continue;
            }
            let record = ReplRecord {
                epoch,
                payload: payload.clone(),
            };
            if let Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) =
                slot.tx.try_send(record)
            {
                // Never wait for a slow follower: flag it; its feed
                // thread drops the connection and the follower re-syncs
                // from the store, where this record durably is.
                slot.overflowed = true;
                metrics().overflow_drops.incr();
            } else {
                metrics().records_shipped.incr();
            }
        }
        inner.sync_gauges();
    }

    /// Registers a follower feed and returns its id and the live-record
    /// queue. Call **before** reading the store for catch-up: the WAL
    /// append happens-before the tap, so a record is always either on
    /// disk already or delivered through this queue (duplicates are
    /// deduped by epoch stamp on the follower).
    pub fn register(&self, peer: impl Into<String>) -> (u64, Receiver<ReplRecord>) {
        let (tx, rx) = sync_channel(FEED_QUEUE_DEPTH);
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.followers.insert(
            id,
            FollowerSlot {
                tx,
                peer: peer.into(),
                acked: 0,
                overflowed: false,
            },
        );
        inner.sync_gauges();
        (id, rx)
    }

    /// Removes a follower feed (connection closed or overflowed),
    /// flushing the advisory position file with the departing follower's
    /// final acknowledgement still counted.
    pub fn deregister(&self, id: u64) {
        let meta = {
            let mut inner = self.lock();
            let meta = inner.meta();
            inner.followers.remove(&id);
            inner.meta_stamp = Some(Instant::now());
            inner.sync_gauges();
            meta
        };
        if let Some(dir) = &self.dir {
            let _ = meta.write(dir);
        }
    }

    /// Records that a feed handed `epoch` to its follower from the disk
    /// catch-up phase (live-phase records advance the mark in
    /// [`ReplicationHub::publish`]).
    pub fn note_shipped(&self, epoch: u64) {
        let mut inner = self.lock();
        if epoch > inner.last_shipped {
            inner.last_shipped = epoch;
        }
        metrics().records_shipped.incr();
        inner.sync_gauges();
    }

    /// Records a follower acknowledgement and (rate-limited, one write
    /// per `META_WRITE_INTERVAL`) refreshes the advisory `repl.tqr`
    /// position file. A failed or skipped advisory write costs nothing —
    /// replication correctness rests on epoch stamps, not on this file,
    /// and [`ReplicationHub::deregister`] flushes the final position.
    pub fn note_ack(&self, id: u64, epoch: u64) {
        let meta = {
            let mut inner = self.lock();
            if let Some(slot) = inner.followers.get_mut(&id) {
                if epoch > slot.acked {
                    slot.acked = epoch;
                }
            }
            inner.sync_gauges();
            if inner
                .meta_stamp
                .is_some_and(|at| at.elapsed() < META_WRITE_INTERVAL)
            {
                return;
            }
            inner.meta_stamp = Some(Instant::now());
            inner.meta()
        };
        if let Some(dir) = &self.dir {
            let _ = meta.write(dir);
        }
    }

    /// Whether `id`'s queue overflowed — its feed thread polls this and
    /// drops the connection so the follower re-syncs from disk.
    pub fn is_overflowed(&self, id: u64) -> bool {
        self.lock().followers.get(&id).is_none_or(|s| s.overflowed)
    }

    /// A point-in-time summary for status reporting.
    pub fn status(&self) -> HubStatus {
        let inner = self.lock();
        let mut followers: Vec<FollowerStatus> = inner
            .followers
            .iter()
            .map(|(&id, s)| FollowerStatus {
                id,
                peer: s.peer.clone(),
                acked: s.acked,
                overflowed: s.overflowed,
            })
            .collect();
        followers.sort_by_key(|f| f.id);
        HubStatus {
            last_shipped: inner.last_shipped,
            min_acked: followers.iter().map(|f| f.acked).min(),
            followers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_every_follower_without_blocking() {
        let hub = ReplicationHub::new(None);
        let (a, rx_a) = hub.register("peer-a");
        let (b, rx_b) = hub.register("peer-b");
        assert_ne!(a, b);

        hub.publish(5, &[Update::Remove(0)]);
        let got_a = rx_a.recv().unwrap();
        let got_b = rx_b.recv().unwrap();
        assert_eq!(got_a.epoch, 5);
        assert_eq!(got_a, got_b);
        // The shipped payload is the WAL payload for the same batch.
        assert_eq!(got_a.payload, encode_update_batch(&[Update::Remove(0)]));

        let status = hub.status();
        assert_eq!(status.last_shipped, 5);
        assert_eq!(status.min_acked, Some(0));
        assert_eq!(status.followers.len(), 2);
    }

    #[test]
    fn no_followers_means_no_work_and_no_shipped_mark() {
        let hub = ReplicationHub::new(None);
        hub.publish(9, &[Update::Remove(0)]);
        assert_eq!(hub.status().last_shipped, 0);
        assert_eq!(hub.status().min_acked, None);
    }

    #[test]
    fn overflow_flags_the_follower_and_never_blocks() {
        let hub = ReplicationHub::new(None);
        let (id, rx) = hub.register("slow");
        for epoch in 1..=(FEED_QUEUE_DEPTH as u64 + 8) {
            hub.publish(epoch, &[Update::Remove(0)]);
        }
        assert!(hub.is_overflowed(id));
        // The queue still holds the prefix that fit; nothing corrupted.
        assert_eq!(rx.recv().unwrap().epoch, 1);
        hub.deregister(id);
        assert!(hub.is_overflowed(id), "unknown ids read as overflowed");
    }

    #[test]
    fn acks_track_the_slowest_follower_and_write_the_position_file() {
        let dir = std::env::temp_dir().join(format!("tq-hub-ack-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let hub = ReplicationHub::new(Some(dir.clone()));
        let (fast, _rx_fast) = hub.register("fast");
        let (slow, _rx_slow) = hub.register("slow");
        hub.publish(7, &[Update::Remove(0)]);
        // The first ack writes the file immediately; the second lands
        // inside the write-throttle window and is only flushed by the
        // feed's deregistration.
        hub.note_ack(fast, 7);
        hub.note_ack(slow, 3);

        let status = hub.status();
        assert_eq!(status.last_shipped, 7);
        assert_eq!(status.min_acked, Some(3));

        let meta = ReplMeta::read(&dir).unwrap();
        assert_eq!(meta.last_shipped, 7);
        assert_eq!(meta.last_acked, 0, "the slow ack is throttled");

        hub.deregister(slow);
        let meta = ReplMeta::read(&dir).unwrap();
        assert_eq!(meta.last_shipped, 7);
        assert_eq!(meta.last_acked, 3, "deregistration flushes the final position");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
