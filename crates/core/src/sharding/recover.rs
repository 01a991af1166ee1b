//! Sharded crash recovery: per-shard longest-valid-prefix recovery,
//! composed into one consistent global id space by replaying the routing
//! log under the epoch-stamp rule.
//!
//! # The walk
//!
//! Each shard store recovers independently ([`Engine::open_with`]):
//! newest intact snapshot plus its WAL's longest valid prefix. Lost
//! batches therefore form a **suffix** of each shard's history. The
//! routing log (fsynced before every shard apply, so always a superset
//! of shard state) is then walked in record order; a record's events for
//! shard `s` are *materialized* iff its stamp for `s` is covered by the
//! shard's recovered epoch (`stamp == 0` means snapshot-covered / no
//! events). Because lost batches are suffixes, materialized events per
//! shard are prefix-closed — a materialized remove can never reference a
//! skipped insert.
//!
//! The walk assigns **fresh dense global ids** to materialized inserts
//! in original event order. When nothing was lost this renumbering is the
//! identity; when batches were lost it is a *monotone* compaction of the
//! surviving ids — which preserves every canonical (ascending-id)
//! summation order, so the recovered front end is bit-identical to an
//! engine built from exactly the surviving batches. A lossy walk ends by
//! checkpointing every shard and rewriting the routing log as one full
//! placement record ([`super::ShardedEngine::checkpoint`]), so the
//! renumbered id space becomes the durable one.

use super::routing::{self, RouteEvent};
use super::{persist_err, Partitioner, RouteEntry, ShardedDurable, ShardedEngine};
use crate::engine::{Engine, EngineError};
use crate::persist::StoreConfig;
use std::path::Path;
use tq_store::manifest::{ShardManifest, ROUTING_FILE};
use tq_trajectory::{TrajectoryId, UserSet};

/// The implementation behind [`Engine::open_sharded_with`].
pub(crate) fn open_sharded(dir: &Path, config: StoreConfig) -> Result<ShardedEngine, EngineError> {
    let manifest = ShardManifest::read(dir).map_err(persist_err)?;
    let shards = manifest.shards as usize;
    if shards == 0 {
        return Err(EngineError::Persist(
            "shard manifest names zero shards".into(),
        ));
    }
    let partitioner = Partitioner::from_spec(&manifest.partitioner).map_err(EngineError::Sharded)?;

    // Recover every shard in parallel — each one independently finds its
    // newest intact snapshot and replays its own WAL prefix.
    let opened: Vec<Result<Engine, EngineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|s| {
                let shard_dir = ShardManifest::shard_dir(dir, s);
                scope.spawn(move || Engine::open_with(shard_dir, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard open panicked"))
            .collect()
    });
    let mut engines = Vec::with_capacity(shards);
    for (s, result) in opened.into_iter().enumerate() {
        engines.push(result.map_err(|e| match e {
            EngineError::Persist(why) => EngineError::Persist(format!("shard {s}: {why}")),
            other => other,
        })?);
    }
    for (s, engine) in engines.iter().enumerate().skip(1) {
        if engine.facilities().len() != engines[0].facilities().len() {
            return Err(EngineError::Sharded(format!(
                "shard {s} recovered {} facilities where shard 0 has {} — \
                 the shard stores are not siblings of one front end",
                engine.facilities().len(),
                engines[0].facilities().len()
            )));
        }
    }

    let routing_path = dir.join(ROUTING_FILE);
    let (records, summary) = routing::read_log(&routing_path).map_err(persist_err)?;
    if records.is_empty() {
        return Err(EngineError::Persist(
            "routing log has no readable initial-placement record".into(),
        ));
    }

    // The walk (see the module docs).
    let epochs: Vec<u64> = engines.iter().map(|e| e.epoch()).collect();
    let mut lossy = summary.tail_note.is_some();
    let mut users = UserSet::new();
    let mut routing_map: Vec<RouteEntry> = Vec::new();
    let mut locals: Vec<Vec<TrajectoryId>> = vec![Vec::new(); shards];
    // Shard owners in the *original* id space (holes included), so a
    // remove can be attributed to its shard even when its insert was on
    // a lost suffix.
    let mut orig_shard: Vec<u16> = Vec::new();
    for record in &records {
        if record.stamps.len() != shards {
            return Err(EngineError::Persist(format!(
                "routing record {} carries {} stamps for {} shards",
                record.seq,
                record.stamps.len(),
                shards
            )));
        }
        let materialized: Vec<bool> = record
            .stamps
            .iter()
            .enumerate()
            .map(|(s, &stamp)| stamp == 0 || stamp <= epochs[s])
            .collect();
        for event in &record.events {
            match *event {
                RouteEvent::Insert { shard, alive: _ } => {
                    let s = shard as usize;
                    if s >= shards {
                        return Err(EngineError::Persist(format!(
                            "routing record {} routes an insert to unknown shard {s}",
                            record.seq
                        )));
                    }
                    orig_shard.push(shard);
                    if materialized[s] {
                        let lid = locals[s].len() as TrajectoryId;
                        if (lid as usize) >= engines[s].users().len() {
                            return Err(EngineError::Persist(format!(
                                "the routing log accounts for more trajectories on \
                                 shard {s} than its store recovered — the routing \
                                 log survived ahead of the shard's WAL"
                            )));
                        }
                        // The shard's recovered state is the liveness
                        // ground truth (it already accounts for every
                        // materialized remove and, in rebased logs, for
                        // the `alive: false` flag): a trajectory it has
                        // removed comes back as the retired id it is.
                        let gid = match engines[s].users().try_get(lid) {
                            Some(t) => users.push(t.clone()),
                            None => users.push_retired(),
                        };
                        locals[s].push(gid);
                        routing_map.push(RouteEntry { shard, lid });
                    } else {
                        lossy = true;
                    }
                }
                RouteEvent::Remove { gid } => {
                    let original = gid as usize;
                    if original >= orig_shard.len() {
                        return Err(EngineError::Persist(format!(
                            "routing record {} removes unknown global id {gid}",
                            record.seq
                        )));
                    }
                    if !materialized[orig_shard[original] as usize] {
                        lossy = true;
                    }
                }
            }
        }
    }
    // Completeness: every trajectory a shard recovered must be accounted
    // for by a materialized routing insert.
    for (s, engine) in engines.iter().enumerate() {
        if locals[s].len() != engine.users().len() {
            return Err(EngineError::Persist(format!(
                "shard {s} recovered {} trajectories but the routing log \
                 accounts for {} — the shard's WAL survived ahead of the \
                 routing log",
                engine.users().len(),
                locals[s].len()
            )));
        }
    }

    let bounds = engines[0].tree().map(|t| t.bounds());
    let log = routing::open_log(&routing_path, summary.valid_bytes, config.sync)
        .map_err(persist_err)?;
    let durable = Some(ShardedDurable {
        root: dir.to_path_buf(),
        log,
        config,
        batch_seq: records.len() as u64,
    });
    let all_warm = engines
        .iter()
        .all(|e| e.full_table().is_some());
    let mut engine = ShardedEngine::assemble(
        engines,
        partitioner,
        routing_map,
        locals,
        users,
        durable,
        bounds,
    );
    // A lossy recovery rebases: the renumbered id space is checkpointed
    // into every shard and the routing log collapses to one
    // full-placement record, so the next open is clean.
    if lossy {
        engine.checkpoint()?;
    }
    // When every shard recovered a warmed full-facility table, re-merge
    // it so the front end cold-starts warm too (mirroring single-engine
    // open, which recovers the warmed table from its snapshot).
    if all_warm && !engine.snapshot.facilities.is_empty() {
        engine.warm();
    }
    Ok(engine)
}
