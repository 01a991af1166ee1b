//! `tqd` — the trajectory-query daemon: serve a durable store over TCP.
//!
//! ```text
//! tq save city.tqd --store /var/lib/tq       # build + persist an engine
//! tqd --persist /var/lib/tq --addr 127.0.0.1:7071
//! tq query  --connect 127.0.0.1:7071 --k 8   # from any shell
//! tq status --connect 127.0.0.1:7071
//! tq shutdown --connect 127.0.0.1:7071       # graceful: drain + checkpoint
//! ```
//!
//! The daemon cold-starts the engine from the store (newest snapshot plus
//! WAL replay), serves any number of concurrent connections — queries
//! answer lock-free from published snapshots, update batches funnel
//! through the single writer and hit the WAL before they are acked — and
//! on graceful shutdown (the protocol `shutdown` frame) drains
//! connections and writes a final checkpoint. A killed daemon loses
//! nothing acked: reopening the store replays the WAL tail.
//!
//! Sharded store directories (created by `tq save --shards N` or
//! [`EngineBuilder::build_sharded`](tq_core::engine::EngineBuilder))
//! are detected automatically: the daemon recovers every shard in
//! parallel and serves scatter–gather queries over the
//! [`ShardedEngine`](tq_core::sharding::ShardedEngine) front end — same
//! wire protocol, bit-identical answers.
//!
//! ## Replication
//!
//! Any durable single-store daemon serves WAL-shipping feeds; start a
//! **warm standby** with `--follow`:
//!
//! ```text
//! tqd --persist /var/lib/tq-standby --follow 127.0.0.1:7071 --addr :7072
//! ```
//!
//! The standby bootstraps from the primary (snapshot transfer when its
//! local store is empty or too far behind, WAL records otherwise),
//! serves queries from its own read plane while records stream in, and
//! refuses writes with a typed `read-only` error naming the primary.
//! `tq promote --connect` flips it to primary; `--promote-after SECS`
//! does the same automatically once the primary has been unreachable
//! that long.

#[path = "../args.rs"]
#[allow(dead_code)]
mod args;

use args::{Command, Flag};
use std::path::Path;
use std::time::{Duration, Instant};
use tq_core::engine::Engine;
use tq_core::writer::ControlPlane;
use tq_core::StoreConfig;
use tq_net::{
    bootstrap_follower, ingest, open_feed, ConnectConfig, IngestEnd, Server, ServerConfig,
    ServerHandle,
};

const TQD: Command = Command {
    name: "tqd",
    summary: "serve a durable engine store over TCP",
    positional: "",
    flags: &[
        Flag { name: "persist", meta: "DIR", default: "", help: "store directory to open (tq save / tq stream --wal); sharded directories are detected automatically" },
        Flag { name: "addr", meta: "HOST:PORT", default: "127.0.0.1:7071", help: "listen address (port 0 = ephemeral, printed on stdout)" },
        Flag { name: "checkpoint-every", meta: "N", default: "512", help: "auto-checkpoint after N WAL batches (0 = manual only)" },
        Flag { name: "checkpoint-max-age", meta: "SECS", default: "0", help: "also checkpoint when the WAL tail is older than SECS (0 = batch threshold only)" },
        Flag { name: "bg-checkpoints", meta: "true|false", default: "false", help: "stage threshold checkpoints on a worker thread, off the write path" },
        Flag { name: "follow", meta: "HOST:PORT", default: "", help: "run as a read-only follower replicating from the primary at this address" },
        Flag { name: "promote-after", meta: "SECS", default: "0", help: "auto-promote to primary after the followed primary has been unreachable SECS seconds (0 = manual promote only)" },
        Flag { name: "threads", meta: "N", default: "0", help: "evaluation threads per query (0 = one per core)" },
        Flag { name: "slow-query-ms", meta: "MS", default: "1000", help: "retain queries slower than MS (incl. funnel queueing) in the slow-query log (tq metrics --connect)" },
    ],
};

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(a) = TQD.parse(raw)? else {
        print!("{}", TQD.usage().replace("tq tqd", "tqd"));
        return Ok(());
    };
    let dir = a.required("persist")?;
    let addr = a.get("addr").unwrap_or("127.0.0.1:7071");
    let checkpoint_every: usize = a.get_or("checkpoint-every", 512, "integer")?;
    let checkpoint_max_age: u64 = a.get_or("checkpoint-max-age", 0, "integer")?;
    let background_checkpoints: bool = a.get_or("bg-checkpoints", false, "true|false")?;
    let follow = a.get("follow").filter(|f| !f.is_empty()).map(str::to_string);
    let promote_after: u64 = a.get_or("promote-after", 0, "integer")?;
    tq_core::set_threads(a.get_or("threads", 0, "integer")?);
    let slow_ms: u64 = a.get_or("slow-query-ms", 1000, "integer")?;
    tq_obs::set_slow_threshold_ns(slow_ms.saturating_mul(1_000_000));
    let config = StoreConfig {
        checkpoint_every,
        background_checkpoints,
        checkpoint_max_age: (checkpoint_max_age > 0)
            .then(|| Duration::from_secs(checkpoint_max_age)),
        ..StoreConfig::default()
    };

    if tq_store::manifest::is_sharded_dir(Path::new(dir)) {
        if follow.is_some() {
            return Err("replication does not support sharded stores yet; \
                        --follow needs a single-store directory"
                .into());
        }
        let t = std::time::Instant::now();
        let mut engine = Engine::open_sharded_with(dir, config)?;
        engine.warm();
        let secs = t.elapsed().as_secs_f64();
        announce(&engine, dir, secs, &format!("{} shards", engine.shard_count()));
        let handle = Server::start(engine, addr, ServerConfig::default())?;
        println!("tqd: listening on {}", handle.addr());
        finish(handle.wait()?)
    } else if let Some(primary) = follow {
        serve_follower(dir, config, addr, &primary, promote_after)
    } else {
        let t = std::time::Instant::now();
        let mut engine = Engine::open_with(dir, config)?;
        // Seed the served-table memo up front so the first coverage query
        // (and every funneled batch) maintains it incrementally.
        engine.warm();
        let secs = t.elapsed().as_secs_f64();
        announce(&engine, dir, secs, "single store");
        let handle = Server::start(
            engine,
            addr,
            ServerConfig {
                repl_dir: Some(Path::new(dir).to_path_buf()),
                ..ServerConfig::default()
            },
        )?;
        println!("tqd: listening on {} (serving replication feeds)", handle.addr());
        finish(handle.wait()?)
    }
}

/// The follower daemon: bootstrap from the primary, serve reads, apply
/// the shipped record stream on a side thread, reconnect on feed loss,
/// and optionally self-promote when the primary stays gone.
fn serve_follower(
    dir: &str,
    config: StoreConfig,
    addr: &str,
    primary: &str,
    promote_after: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let t = std::time::Instant::now();
    let follower = bootstrap_follower(
        Path::new(dir),
        config,
        primary,
        &ConnectConfig::default(),
    )?;
    // Deliberately NOT warmed: `warm` publishes a memo epoch with no WAL
    // record, which would desynchronize the follower's epoch counter
    // from the primary's stamps (a shipped record at the consumed stamp
    // would be wrongly skipped as a duplicate). Coverage queries build
    // their tables per-query instead.
    let secs = t.elapsed().as_secs_f64();
    announce(&follower.engine, dir, secs, &format!("follower of {primary}"));

    let reader = follower.engine.reader();
    let handle: ServerHandle = Server::start(
        follower.engine,
        addr,
        ServerConfig {
            repl_dir: Some(Path::new(dir).to_path_buf()),
            follow: Some(primary.to_string()),
            ..ServerConfig::default()
        },
    )?;
    println!(
        "tqd: listening on {} (read-only follower of {primary})",
        handle.addr()
    );

    let parts = handle.follower_parts();
    let primary = primary.to_string();
    let ingest_thread = std::thread::spawn(move || {
        // One dial per reconnect round; the loop paces retries itself so
        // the promote-after deadline is checked between attempts.
        let redial = ConnectConfig {
            attempts: 1,
            ..ConnectConfig::default()
        };
        let mut stream = follower.stream;
        // A read timeout lets the ingest loop poll the stop/role flags
        // while the feed is idle.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let mut lost_since: Option<Instant> = None;
        loop {
            let done = || parts.stopping() || !parts.is_follower();
            let end = ingest(&mut stream, parts.writer(), redial.max_frame, done);
            if done() {
                return;
            }
            match end {
                Ok(IngestEnd::Stopped) => return,
                Ok(IngestEnd::Disconnected) => {}
                Err(e) => eprintln!("tqd: replication feed error: {e}"),
            }
            let since = *lost_since.get_or_insert_with(Instant::now);
            if promote_after > 0 && since.elapsed() >= Duration::from_secs(promote_after) {
                match parts.promote() {
                    Ok(epoch) => println!(
                        "tqd: primary unreachable for {promote_after}s — \
                         promoted to primary at epoch {epoch}"
                    ),
                    Err(e) => eprintln!("tqd: auto-promotion failed: {e}"),
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(200));
            match open_feed(&primary, reader.epoch(), &redial) {
                Ok(s) => {
                    stream = s;
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                    lost_since = None;
                    println!("tqd: replication feed reconnected to {primary}");
                }
                Err(_) => continue,
            }
        }
    });

    let engine = handle.wait()?;
    let _ = ingest_thread.join();
    finish(engine)
}

fn announce<C: ControlPlane>(engine: &C, dir: &str, secs: f64, shape: &str) {
    let info = engine.reader().info();
    println!(
        "tqd: recovered {dir} ({shape}) in {secs:.3}s — epoch {}, {} backend, \
         {} live of {} trajectories, {} facilities",
        info.epoch, info.backend, info.live_users, info.users, info.facilities,
    );
}

/// The common shutdown tail: report where the engine ended up.
fn finish<C: ControlPlane>(engine: C) -> Result<(), Box<dyn std::error::Error>> {
    let info = engine.reader().info();
    println!(
        "tqd: shut down at epoch {} ({} live trajectories); final checkpoint written",
        info.epoch, info.live_users,
    );
    if let Some(status) = engine.persist_status() {
        println!("tqd: {status}");
    }
    Ok(())
}
