//! `tq` — trajectory coverage queries from the command line.
//!
//! ```text
//! tq generate --kind nyt --users 50000 --routes 128 --stops 32 --out city.tqd
//! tq import-taxi --trips trips.csv --routes stops.csv --out nyc.tqd
//! tq stats   city.tqd
//! tq topk    city.tqd --k 8 --psi 200 --scenario transit
//! tq maxcov  city.tqd --k 4 --psi 200 --method two-step
//! tq stream  --kind nyt --users 20000 --events 2000 --batch 200 --k 8
//! tq save    city.tqd --store ./city-store --shards 4
//! ```
//!
//! Every query command runs through the unified [`tq_core::engine::Engine`]
//! / [`tq_core::engine::Query`] API, so `--backend`/`--method` switch
//! between the TQ-tree variants and the BL baseline without touching the
//! query logic, typed [`tq_core::engine::EngineError`]s become non-zero
//! exit codes with readable messages, and each answer prints its
//! [`tq_core::engine::Explain`] report. `tq <command> --help` prints
//! per-command flag documentation (generated from the same tables that
//! drive parsing — see [`args`]).
//!
//! Datasets travel as `.tqd` snapshot files (`tq-trajectory::snapshot`);
//! *engines* travel as `tq-store` directories (arena snapshot + update
//! WAL): `tq save` persists a built engine, `tq load` cold-starts from
//! one (replaying the WAL tail), `tq inspect` diagnoses store files from
//! the shell, and `tq stream --wal` runs its update stream durably. `tqd`
//! serves a saved store (sharded ones too) over TCP.

mod args;

use args::{global_usage, Args, Command, Flag};
use tq_core::engine::{Algorithm, Engine, EngineBuilder, Query};
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};
use tq_datagen::StreamKind;
use tq_trajectory::{snapshot, FacilitySet, UserSet};

const GENERATE: Command = Command {
    name: "generate",
    summary: "synthesize a seeded dataset file",
    positional: "",
    flags: &[
        Flag { name: "kind", meta: "nyt|nyf|bjg", default: "nyt", help: "taxi trips / check-ins / GPS traces" },
        Flag { name: "users", meta: "N", default: "50000", help: "number of user trajectories" },
        Flag { name: "routes", meta: "N", default: "128", help: "number of candidate routes" },
        Flag { name: "stops", meta: "S", default: "32", help: "stops per route" },
        Flag { name: "seed", meta: "SEED", default: "1", help: "RNG seed (fully deterministic)" },
        Flag { name: "out", meta: "FILE", default: "", help: "output .tqd snapshot path" },
    ],
};

const IMPORT_TAXI: Command = Command {
    name: "import-taxi",
    summary: "import NYC TLC trips + route stops",
    positional: "",
    flags: &[
        Flag { name: "trips", meta: "FILE", default: "", help: "TLC yellow-taxi CSV (2015 schema)" },
        Flag { name: "routes", meta: "FILE", default: "", help: "route_id,seq,lat,lon stops CSV" },
        Flag { name: "out", meta: "FILE", default: "", help: "output .tqd snapshot path" },
    ],
};

const STATS: Command = Command {
    name: "stats",
    summary: "dataset and index statistics",
    positional: "FILE",
    flags: &[
        Flag { name: "beta", meta: "B", default: "64", help: "TQ-tree bucket size β" },
    ],
};

const TOPK: Command = Command {
    name: "topk",
    summary: "kMaxRRST: the k individually best facilities",
    positional: "FILE",
    flags: &[
        Flag { name: "k", meta: "K", default: "8", help: "result count" },
        Flag { name: "psi", meta: "METRES", default: "200", help: "service radius ψ" },
        Flag { name: "scenario", meta: "transit|points|length", default: "transit", help: "service semantics (paper scenarios 1-3)" },
        Flag { name: "placement", meta: "two-point|segmented|full", default: "two-point", help: "trajectory-to-item mapping (TQ / S-TQ / F-TQ)" },
        Flag { name: "backend", meta: "tq-z|tq-b|bl", default: "tq-z", help: "index backend: TQ(Z), TQ(B) or the BL baseline" },
        Flag { name: "beta", meta: "B", default: "64", help: "TQ-tree bucket size β" },
        Flag { name: "threads", meta: "N", default: "0", help: "worker threads (0 = one per core)" },
    ],
};

const MAXCOV: Command = Command {
    name: "maxcov",
    summary: "MaxkCovRST: the size-k subset with the best combined service",
    positional: "FILE",
    flags: &[
        Flag { name: "k", meta: "K", default: "4", help: "subset size" },
        Flag { name: "psi", meta: "METRES", default: "200", help: "service radius ψ" },
        Flag { name: "scenario", meta: "transit|points|length", default: "transit", help: "service semantics (paper scenarios 1-3)" },
        Flag { name: "placement", meta: "two-point|segmented|full", default: "two-point", help: "trajectory-to-item mapping (TQ / S-TQ / F-TQ)" },
        Flag { name: "method", meta: "greedy|two-step|genetic|exact", default: "two-step", help: "MaxkCovRST solver" },
        Flag { name: "backend", meta: "tq-z|tq-b|bl", default: "tq-z", help: "index backend: TQ(Z), TQ(B) or the BL baseline" },
        Flag { name: "beta", meta: "B", default: "64", help: "TQ-tree bucket size β" },
        Flag { name: "k-prime", meta: "K'", default: "max(4k, 32)", help: "two-step candidate-pool size k′" },
        Flag { name: "seed", meta: "SEED", default: "0x5EED", help: "genetic-algorithm RNG seed" },
        Flag { name: "threads", meta: "N", default: "0", help: "worker threads (0 = one per core)" },
    ],
};

const SAVE: Command = Command {
    name: "save",
    summary: "build an engine over a dataset and persist it to a store directory",
    positional: "FILE",
    flags: &[
        Flag { name: "store", meta: "DIR", default: "", help: "store directory to create (must not already hold one)" },
        Flag { name: "psi", meta: "METRES", default: "200", help: "service radius ψ" },
        Flag { name: "scenario", meta: "transit|points|length", default: "transit", help: "service semantics (paper scenarios 1-3)" },
        Flag { name: "placement", meta: "two-point|segmented|full", default: "two-point", help: "trajectory-to-item mapping (TQ / S-TQ / F-TQ)" },
        Flag { name: "backend", meta: "tq-z|tq-b|bl", default: "tq-z", help: "index backend: TQ(Z), TQ(B) or the BL baseline" },
        Flag { name: "beta", meta: "B", default: "64", help: "TQ-tree bucket size β" },
        Flag { name: "shards", meta: "N", default: "1", help: "partition users across N engines, one store per shard (tqd detects it); queries scatter–gather, bit-identical to 1" },
    ],
};

const LOAD: Command = Command {
    name: "load",
    summary: "cold-start an engine from a store (newest snapshot + WAL replay)",
    positional: "",
    flags: &[
        Flag { name: "store", meta: "DIR", default: "", help: "store directory written by save / persist_to" },
        Flag { name: "k", meta: "K", default: "0", help: "also answer a top-k query from the loaded engine (0 = summary only)" },
        Flag { name: "threads", meta: "N", default: "0", help: "worker threads (0 = one per core)" },
    ],
};

const INSPECT: Command = Command {
    name: "inspect",
    summary: "describe a store directory, snapshot file or WAL file (even corrupt ones)",
    positional: "PATH",
    flags: &[],
};

const STREAM: Command = Command {
    name: "stream",
    summary: "dynamic workload: batched arrivals/expiries, incremental answers",
    positional: "",
    flags: &[
        Flag { name: "connect", meta: "HOST:PORT", default: "", help: "stream the batches to a tqd daemon instead of applying in-process (expiry ids refer to the daemon's dataset — seed it from the same generate flags)" },
        Flag { name: "wal", meta: "DIR", default: "", help: "persist the run: store directory for the snapshot + update WAL" },
        Flag { name: "kind", meta: "nyt|nyf|bjg", default: "nyt", help: "taxi trips / check-ins / GPS traces" },
        Flag { name: "users", meta: "N", default: "20000", help: "initial trajectory count" },
        Flag { name: "events", meta: "N", default: "2000", help: "total arrival/expiry events" },
        Flag { name: "batch", meta: "B", default: "200", help: "events per applied batch" },
        Flag { name: "expire", meta: "RATIO", default: "0.5", help: "expiry share of events (0..1)" },
        Flag { name: "routes", meta: "N", default: "128", help: "number of candidate routes" },
        Flag { name: "stops", meta: "S", default: "16", help: "stops per route" },
        Flag { name: "k", meta: "K", default: "8", help: "top-k reported after the stream" },
        Flag { name: "psi", meta: "METRES", default: "preset", help: "service radius ψ" },
        Flag { name: "scenario", meta: "transit|points|length", default: "transit", help: "service semantics" },
        Flag { name: "placement", meta: "two-point|segmented|full", default: "per kind", help: "defaults to the variant that sees all of a kind's points" },
        Flag { name: "beta", meta: "B", default: "64", help: "TQ-tree bucket size β" },
        Flag { name: "seed", meta: "SEED", default: "1", help: "trace RNG seed" },
        Flag { name: "threads", meta: "N", default: "0", help: "worker threads (0 = one per core)" },
        Flag { name: "verify", meta: "true|false", default: "false", help: "cross-check the final top-k against a fresh build" },
    ],
};

const QUERY: Command = Command {
    name: "query",
    summary: "run one query against a tqd daemon",
    positional: "",
    flags: &[
        Flag { name: "connect", meta: "HOST:PORT", default: "", help: "tqd address" },
        Flag { name: "k", meta: "K", default: "8", help: "result count / subset size" },
        Flag { name: "mode", meta: "topk|maxcov", default: "topk", help: "kMaxRRST ranking or MaxkCovRST subset" },
        Flag { name: "method", meta: "greedy|two-step|genetic|exact", default: "two-step", help: "MaxkCovRST solver (maxcov mode)" },
    ],
};

const STATUS: Command = Command {
    name: "status",
    summary: "report a tqd daemon's serving status",
    positional: "",
    flags: &[
        Flag { name: "connect", meta: "HOST:PORT", default: "", help: "tqd address" },
    ],
};

const METRICS: Command = Command {
    name: "metrics",
    summary: "dump a tqd daemon's metrics (counters, latency quantiles, slow queries)",
    positional: "",
    flags: &[
        Flag { name: "connect", meta: "HOST:PORT", default: "", help: "tqd address" },
        Flag { name: "watch", meta: "SECS", default: "0", help: "re-poll every SECS seconds, top-style (0 = print once)" },
        Flag { name: "grep", meta: "SUBSTR", default: "", help: "only print lines containing SUBSTR" },
    ],
};

const SHUTDOWN: Command = Command {
    name: "shutdown",
    summary: "gracefully stop a tqd daemon (drain + final checkpoint)",
    positional: "",
    flags: &[
        Flag { name: "connect", meta: "HOST:PORT", default: "", help: "tqd address" },
    ],
};

const PROMOTE: Command = Command {
    name: "promote",
    summary: "promote a follower tqd daemon to primary (it accepts writes from the ack on)",
    positional: "",
    flags: &[
        Flag { name: "connect", meta: "HOST:PORT", default: "", help: "follower tqd address" },
    ],
};

const COMMANDS: [&Command; 14] = [
    &GENERATE,
    &IMPORT_TAXI,
    &STATS,
    &TOPK,
    &MAXCOV,
    &SAVE,
    &LOAD,
    &INSPECT,
    &STREAM,
    &QUERY,
    &STATUS,
    &METRICS,
    &SHUTDOWN,
    &PROMOTE,
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| "help".into());
    let rest: Vec<String> = argv.collect();
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "import-taxi" => cmd_import_taxi(rest),
        "stats" => cmd_stats(rest),
        "topk" => cmd_topk(rest),
        "maxcov" => cmd_maxcov(rest),
        "save" => cmd_save(rest),
        "load" => cmd_load(rest),
        "inspect" => cmd_inspect(rest),
        "stream" => cmd_stream(rest),
        "query" => cmd_query(rest),
        "status" => cmd_status(rest),
        "metrics" => cmd_metrics(rest),
        "shutdown" => cmd_shutdown(rest),
        "promote" => cmd_promote(rest),
        "help" | "--help" | "-h" => {
            print!("{}", global_usage(&COMMANDS));
            Ok(())
        }
        other => {
            // Unknown commands get the full synopsis, not just an error.
            eprint!("{}", global_usage(&COMMANDS));
            Err(format!("unknown command {other:?}").into())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Parses against a command table; `Ok(None)` means help was printed.
fn parse(cmd: &Command, raw: Vec<String>) -> Result<Option<Args>, Box<dyn std::error::Error>> {
    match cmd.parse(raw)? {
        Some(a) => Ok(Some(a)),
        None => {
            print!("{}", cmd.usage());
            Ok(None)
        }
    }
}

fn load(path: &str) -> Result<(UserSet, FacilitySet), Box<dyn std::error::Error>> {
    let raw = std::fs::read(path)?;
    Ok(snapshot::decode(raw.into())?)
}

fn scenario_of(name: &str) -> Result<Scenario, String> {
    match name {
        "transit" => Ok(Scenario::Transit),
        "points" => Ok(Scenario::PointCount),
        "length" => Ok(Scenario::Length),
        other => Err(format!("unknown scenario {other:?} (transit|points|length)")),
    }
}

fn placement_of(name: &str) -> Result<Placement, String> {
    match name {
        "two-point" => Ok(Placement::TwoPoint),
        "segmented" => Ok(Placement::Segmented),
        "full" => Ok(Placement::FullTrajectory),
        other => Err(format!(
            "unknown placement {other:?} (two-point|segmented|full)"
        )),
    }
}

/// Applies the `--backend` flag to an [`EngineBuilder`].
fn backend_of(
    builder: EngineBuilder,
    name: &str,
    placement: Placement,
    beta: usize,
) -> Result<EngineBuilder, String> {
    match name {
        "tq-z" => Ok(builder.tree_config(TqTreeConfig::z_order(placement).with_beta(beta))),
        "tq-b" => Ok(builder.tree_config(TqTreeConfig::basic(placement).with_beta(beta))),
        "bl" => Ok(builder.baseline()),
        other => Err(format!("unknown backend {other:?} (tq-z|tq-b|bl)")),
    }
}

fn cmd_generate(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&GENERATE, raw)? else { return Ok(()) };
    let kind = a.get("kind").unwrap_or("nyt");
    let users_n: usize = a.get_or("users", 50_000, "integer")?;
    let routes_n: usize = a.get_or("routes", 128, "integer")?;
    let stops: usize = a.get_or("stops", 32, "integer")?;
    let seed: u64 = a.get_or("seed", 1, "integer")?;
    let out = a.required("out")?;

    let (users, city) = match kind {
        "nyt" => (
            tq_datagen::taxi_trips(&tq_datagen::presets::ny_city(), users_n, seed),
            tq_datagen::presets::ny_city(),
        ),
        "nyf" => (
            tq_datagen::checkins(&tq_datagen::presets::ny_city(), users_n, seed),
            tq_datagen::presets::ny_city(),
        ),
        "bjg" => (
            tq_datagen::gps_traces(&tq_datagen::presets::bj_city(), users_n, seed),
            tq_datagen::presets::bj_city(),
        ),
        other => return Err(format!("unknown kind {other:?} (nyt|nyf|bjg)").into()),
    };
    let facilities = tq_datagen::bus_routes(
        &city,
        routes_n,
        stops,
        tq_datagen::presets::ROUTE_LENGTH,
        seed ^ 0xB05,
    );
    std::fs::write(out, snapshot::encode(&users, &facilities))?;
    println!(
        "wrote {out}: {} {kind} trajectories ({} points), {} routes × {} stops",
        users.len(),
        users.total_points(),
        facilities.len(),
        stops
    );
    Ok(())
}

fn cmd_import_taxi(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&IMPORT_TAXI, raw)? else { return Ok(()) };
    let trips_path = a.required("trips")?;
    let routes_path = a.required("routes")?;
    let out = a.required("out")?;
    let trips_csv = std::fs::read_to_string(trips_path)?;
    let (users, proj) = tq_trajectory::io::parse_nyc_taxi_csv(&trips_csv)?;
    let routes_csv = std::fs::read_to_string(routes_path)?;
    let facilities = tq_trajectory::io::parse_route_stops_csv(&routes_csv, &proj)?;
    std::fs::write(out, snapshot::encode(&users, &facilities))?;
    println!(
        "wrote {out}: {} trips, {} routes (projected to metres around the data centroid)",
        users.len(),
        facilities.len()
    );
    Ok(())
}

fn cmd_stats(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&STATS, raw)? else { return Ok(()) };
    let [path] = a.positional() else {
        return Err("stats needs one dataset file".into());
    };
    let beta: usize = a.get_or("beta", 64, "integer")?;
    let (users, facilities) = load(path)?;
    println!(
        "dataset: {} user trajectories ({} points, {} segments), {} facilities ({} stops)",
        users.len(),
        users.total_points(),
        users.total_segments(),
        facilities.len(),
        facilities.total_stops()
    );
    if let Some(mbr) = users.mbr() {
        println!(
            "extent:  {:.0} × {:.0} units",
            mbr.width(),
            mbr.height()
        );
    }
    let tree = TqTree::build(
        &users,
        TqTreeConfig::z_order(Placement::TwoPoint).with_beta(beta),
    );
    let s = tree.stats();
    println!(
        "TQ(Z):   {} nodes ({} leaves), height {}, {} items ({} inter-node), \
         max list {}, {} z-buckets, {:.1} MiB",
        s.nodes,
        s.leaves,
        s.height,
        s.items,
        s.internal_items,
        s.max_list,
        s.z_buckets,
        s.memory_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("items per level: {:?}", s.items_per_level);
    Ok(())
}

fn cmd_topk(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&TOPK, raw)? else { return Ok(()) };
    let [path] = a.positional() else {
        return Err("topk needs one dataset file".into());
    };
    let k: usize = a.get_or("k", 8, "integer")?;
    let psi: f64 = a.get_or("psi", 200.0, "number")?;
    let scenario = scenario_of(a.get("scenario").unwrap_or("transit"))?;
    let placement = placement_of(a.get("placement").unwrap_or("two-point"))?;
    let beta: usize = a.get_or("beta", 64, "integer")?;
    let backend = a.get("backend").unwrap_or("tq-z");
    let threads: usize = a.get_or("threads", 0, "integer")?;
    tq_core::set_threads(threads);
    let (users, facilities) = load(path)?;
    let model = ServiceModel::new(scenario, psi);

    let builder = Engine::builder(model).users(users).facilities(facilities);
    let mut engine = backend_of(builder, backend, placement, beta)?.build()?;
    let answer = engine.run(Query::top_k(k))?;
    println!(
        "kMaxRRST top-{k} ({backend}, {scenario:?}, ψ={psi}) in {:.3}s:",
        answer.explain.wall.as_secs_f64()
    );
    for (rank, (id, value)) in answer.ranked().iter().enumerate() {
        println!("  #{:<3} facility {:>5}   service {:>12.3}", rank + 1, id, value);
    }
    println!("explain: {}", answer.explain);
    Ok(())
}

fn cmd_maxcov(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&MAXCOV, raw)? else { return Ok(()) };
    let [path] = a.positional() else {
        return Err("maxcov needs one dataset file".into());
    };
    let k: usize = a.get_or("k", 4, "integer")?;
    let psi: f64 = a.get_or("psi", 200.0, "number")?;
    let scenario = scenario_of(a.get("scenario").unwrap_or("transit"))?;
    let placement = placement_of(a.get("placement").unwrap_or("two-point"))?;
    let beta: usize = a.get_or("beta", 64, "integer")?;
    let method = a.get("method").unwrap_or("two-step");
    let backend = a.get("backend").unwrap_or("tq-z");
    tq_core::set_threads(a.get_or("threads", 0, "integer")?);
    let (users, facilities) = load(path)?;
    let model = ServiceModel::new(scenario, psi);

    let builder = Engine::builder(model).users(users).facilities(facilities);
    let mut engine = backend_of(builder, backend, placement, beta)?.build()?;
    let mut query = Query::max_cov(k);
    query = match method {
        "greedy" => query.algorithm(Algorithm::Greedy),
        "two-step" => {
            let kp: usize = a.get_or("k-prime", (4 * k).max(32), "integer")?;
            query.algorithm(Algorithm::TwoStep).k_prime(kp)
        }
        "genetic" => {
            let seed: u64 = a.get_or("seed", 0x5EED, "integer")?;
            query.algorithm(Algorithm::Genetic).seed(seed)
        }
        "exact" => query.algorithm(Algorithm::Exact),
        other => {
            return Err(
                format!("unknown method {other:?} (greedy|two-step|genetic|exact)").into(),
            )
        }
    };
    let answer = engine.run(query)?;
    let out = answer.cover();
    println!(
        "MaxkCovRST k={k} ({method}, {backend}, {scenario:?}, ψ={psi}) in {:.3}s: \
         combined service {:.3}, {} users served",
        answer.explain.wall.as_secs_f64(),
        out.value,
        out.users_served
    );
    println!("  facilities: {:?}", out.chosen);
    println!("explain: {}", answer.explain);
    Ok(())
}

fn cmd_save(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&SAVE, raw)? else { return Ok(()) };
    let [path] = a.positional() else {
        return Err("save needs one dataset file".into());
    };
    let store = a.required("store")?;
    let psi: f64 = a.get_or("psi", 200.0, "number")?;
    let scenario = scenario_of(a.get("scenario").unwrap_or("transit"))?;
    let placement = placement_of(a.get("placement").unwrap_or("two-point"))?;
    let backend = a.get("backend").unwrap_or("tq-z");
    let beta: usize = a.get_or("beta", 64, "integer")?;
    let shards: usize = a.get_or("shards", 1, "integer")?;
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    let (users, facilities) = load(path)?;
    let n_users = users.len();
    let n_facilities = facilities.len();
    // A sharded TQ-tree needs explicit bounds: the users' MBR padded by
    // 0.1 %, the root an unsharded tree picks for itself, so both accept
    // the same inserts.
    let bounds = users
        .mbr()
        .map(|r| r.expand((r.width().max(r.height()) * 1e-3).max(1e-9)));

    let t = std::time::Instant::now();
    let builder = Engine::builder(ServiceModel::new(scenario, psi))
        .users(users)
        .facilities(facilities)
        .persist_to(store);
    let builder = backend_of(builder, backend, placement, beta)?;
    let (epoch, status) = if shards > 1 {
        let bounds = bounds.ok_or("save --shards needs at least one trajectory")?;
        let engine = builder.bounds(bounds).shards(shards).build_sharded()?;
        (engine.epoch(), engine.persistence())
    } else {
        let engine = builder.build()?;
        (engine.epoch(), engine.persistence())
    };
    println!(
        "saved epoch {epoch}: {n_users} trajectories, {n_facilities} facilities \
         ({backend}, {scenario:?}, ψ={psi}, {shards} shard(s)) in {:.3}s",
        t.elapsed().as_secs_f64()
    );
    if let Some(status) = status {
        println!("{status}");
    }
    if shards > 1 {
        println!("serve it with: tqd --persist {store}");
    } else {
        println!("reload it with: tq load --store {store}");
    }
    Ok(())
}

fn cmd_load(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&LOAD, raw)? else { return Ok(()) };
    let store = a.required("store")?;
    let k: usize = a.get_or("k", 0, "integer")?;
    tq_core::set_threads(a.get_or("threads", 0, "integer")?);

    let t = std::time::Instant::now();
    let mut engine = Engine::open(store)?;
    let load_secs = t.elapsed().as_secs_f64();
    println!(
        "loaded {} in {load_secs:.3}s: epoch {}, {} backend, {} live of {} trajectories, \
         {} facilities",
        store,
        engine.epoch(),
        engine.backend().kind(),
        engine.live_users(),
        engine.users().len(),
        engine.facilities().len(),
    );
    if let Some(status) = engine.persistence() {
        println!("{status}");
    }
    if k > 0 {
        let answer = engine.run(Query::top_k(k))?;
        println!("kMaxRRST top-{k} from the recovered epoch:");
        for (rank, (id, value)) in answer.ranked().iter().enumerate() {
            println!("  #{:<3} facility {:>5}   service {:>12.3}", rank + 1, id, value);
        }
        println!("explain: {}", answer.explain);
    }
    Ok(())
}

fn cmd_inspect(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&INSPECT, raw)? else { return Ok(()) };
    let [path] = a.positional() else {
        return Err("inspect needs one path (store directory, .tqs or .tql file)".into());
    };
    print!("{}", tq_store::inspect::report(std::path::Path::new(path))?);
    Ok(())
}

fn cmd_stream(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&STREAM, raw)? else { return Ok(()) };
    let kind_name = a.get("kind").unwrap_or("nyt");
    let users_n: usize = a.get_or("users", 20_000, "integer")?;
    let events_n: usize = a.get_or("events", 2_000, "integer")?;
    let batch: usize = a.get_or("batch", 200, "integer")?;
    let expire: f64 = a.get_or("expire", 0.5, "number")?;
    let routes_n: usize = a.get_or("routes", 128, "integer")?;
    let stops: usize = a.get_or("stops", 16, "integer")?;
    let k: usize = a.get_or("k", 8, "integer")?;
    let psi: f64 = a.get_or("psi", tq_datagen::presets::DEFAULT_PSI, "number")?;
    let scenario = scenario_of(a.get("scenario").unwrap_or("transit"))?;
    // Multipoint kinds default to the placement that sees all their points
    // (two-point placement would evaluate trace endpoints only).
    let default_placement = match kind_name {
        "nyf" => "segmented",
        "bjg" => "full",
        _ => "two-point",
    };
    let placement = placement_of(a.get("placement").unwrap_or(default_placement))?;
    let beta: usize = a.get_or("beta", 64, "integer")?;
    let seed: u64 = a.get_or("seed", 1, "integer")?;
    let verify: bool = a.get_or("verify", false, "boolean")?;
    tq_core::set_threads(a.get_or("threads", 0, "integer")?);
    if batch == 0 {
        return Err("--batch must be positive".into());
    }
    if !(0.0..=1.0).contains(&expire) {
        return Err("--expire must be between 0 and 1".into());
    }

    let (city, kind) = match kind_name {
        "nyt" => (tq_datagen::presets::ny_city(), StreamKind::Taxi),
        "nyf" => (tq_datagen::presets::ny_city(), StreamKind::Checkins),
        "bjg" => (tq_datagen::presets::bj_city(), StreamKind::Gps),
        other => return Err(format!("unknown kind {other:?} (nyt|nyf|bjg)").into()),
    };
    let scenario_trace = tq_datagen::stream_scenario(&city, kind, users_n, events_n, expire, seed);
    let facilities = tq_datagen::bus_routes(
        &city,
        routes_n,
        stops,
        tq_datagen::presets::ROUTE_LENGTH,
        seed ^ 0xB05,
    );
    let model = ServiceModel::new(scenario, psi);
    let tree_cfg = TqTreeConfig::z_order(placement).with_beta(beta);
    println!(
        "stream: {} initial {kind_name} trajectories, {} events ({} arrivals / {} expiries), \
         batches of {batch}, {} routes × {stops} stops",
        scenario_trace.initial.len(),
        scenario_trace.events.len(),
        scenario_trace.arrivals(),
        scenario_trace.expiries(),
        facilities.len(),
    );
    let batches = scenario_trace.update_batches(batch);
    if let Some(addr) = a.get("connect") {
        return stream_remote(addr, &batches, k);
    }
    let t = std::time::Instant::now();
    let mut builder = Engine::builder(model)
        .users(scenario_trace.initial)
        .facilities(facilities.clone())
        .tree_config(tree_cfg)
        .bounds(scenario_trace.bounds);
    if let Some(dir) = a.get("wal") {
        builder = builder.persist_to(dir);
    }
    let mut engine = builder.build()?;
    // Install the full served table so every batch patches it
    // incrementally instead of the final query paying one full evaluation.
    engine.warm();
    println!("build:  index + initial evaluation in {:.3}s", t.elapsed().as_secs_f64());

    let mut apply_secs = 0.0f64;
    for (i, updates) in batches.iter().enumerate() {
        let t = std::time::Instant::now();
        let out = engine.apply(updates)?;
        let secs = t.elapsed().as_secs_f64();
        apply_secs += secs;
        println!(
            "batch {:>3}: {:>4} events in {:>7.1}ms | {} live | facilities: \
             {} untouched, {} patched",
            i + 1,
            updates.len(),
            secs * 1e3,
            engine.live_users(),
            out.untouched,
            out.patched,
        );
    }
    let s = *engine.stats();
    println!(
        "totals: {} batches ({} inserts, {} removes) in {apply_secs:.3}s incremental",
        s.batches, s.inserts, s.removes
    );
    if let Some(status) = engine.persistence() {
        println!(
            "durable: {status} — every batch was WAL-logged before publishing; \
             `tq load --store {}` replays the tail",
            status.dir.display()
        );
    }
    println!(
        "        rebuild-every-batch would evaluate {} facilities; the engine patched \
         {} and left {:.1}% untouched outright ({} delta mask tests)",
        s.rebuild_evaluations(),
        s.facilities_patched,
        100.0 * s.untouched_fraction(),
        s.patch_evaluations,
    );
    let answer = engine.run(Query::top_k(k))?;
    println!("kMaxRRST top-{k} ({scenario:?}, ψ={psi}) over the final live set:");
    for (rank, (id, value)) in answer.ranked().iter().enumerate() {
        println!("  #{:<3} facility {:>5}   service {:>12.3}", rank + 1, id, value);
    }
    println!(
        "explain: {} (answered from the incrementally maintained table)",
        answer.explain
    );

    if verify {
        let t = std::time::Instant::now();
        let mut fresh = Engine::builder(model)
            .users(engine.live_set())
            .facilities(facilities)
            .tree_config(tree_cfg)
            .bounds(scenario_trace.bounds)
            .build()?;
        let want = fresh.run(Query::top_k(k))?;
        let fresh_secs = t.elapsed().as_secs_f64();
        let got = answer.ranked();
        let ok = got.len() == want.ranked().len()
            && got
                .iter()
                .zip(want.ranked())
                .all(|((_, gv), (_, fv))| gv.to_bits() == fv.to_bits());
        if ok {
            println!(
                "verify: OK — top-{k} bit-identical to a fresh build+query \
                 (rebuild took {fresh_secs:.3}s)"
            );
        } else {
            return Err(format!(
                "verify FAILED: incremental {got:?} vs fresh {:?}",
                want.ranked()
            )
            .into());
        }
    }
    Ok(())
}

/// The `stream --connect` path: ship each update batch to a tqd daemon as
/// an `apply` frame and keep going past per-batch engine rejections (a
/// rejected batch leaves the daemon's engine and WAL untouched).
fn stream_remote(
    addr: &str,
    batches: &[Vec<tq_core::dynamic::Update>],
    k: usize,
) -> CliResult {
    let mut client = tq_net::Client::connect(addr)?;
    let info = client.info().clone();
    println!(
        "connected to {addr}: epoch {}, {} backend, {} live of {} trajectories, durable {}",
        info.epoch, info.backend, info.live_users, info.users, info.durable
    );
    let (mut acked, mut rejected) = (0usize, 0usize);
    for (i, updates) in batches.iter().enumerate() {
        let t = std::time::Instant::now();
        match client.apply(updates.clone()) {
            Ok(ack) => {
                acked += 1;
                let out = ack.outcome.unwrap_or_default();
                println!(
                    "batch {:>3}: {:>4} events in {:>7.1}ms | epoch {:>4} | \
                     {} inserted, {} removed | {} wal batches pending",
                    i + 1,
                    updates.len(),
                    t.elapsed().as_secs_f64() * 1e3,
                    ack.epoch,
                    out.inserted.len(),
                    out.removed,
                    ack.wal_batches,
                );
            }
            Err(tq_net::NetError::Remote(e)) => {
                rejected += 1;
                println!("batch {:>3}: rejected by the daemon ({e}); continuing", i + 1);
            }
            Err(e) => return Err(e.into()),
        }
    }
    println!("totals: {acked} batches acked, {rejected} rejected");
    let answer = client.query(Query::top_k(k))?;
    println!("kMaxRRST top-{k} at the daemon's epoch:");
    for (rank, (id, value)) in answer.ranked().iter().enumerate() {
        println!("  #{:<3} facility {:>5}   service {:>12.3}", rank + 1, id, value);
    }
    println!("explain: {}", answer.explain);
    Ok(())
}

fn cmd_query(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&QUERY, raw)? else { return Ok(()) };
    let addr = a.required("connect")?;
    let k: usize = a.get_or("k", 8, "integer")?;
    let mode = a.get("mode").unwrap_or("topk");
    let mut client = tq_net::Client::connect(addr)?;
    match mode {
        "topk" => {
            let answer = client.query(Query::top_k(k))?;
            println!("kMaxRRST top-{k} from {addr}:");
            for (rank, (id, value)) in answer.ranked().iter().enumerate() {
                println!("  #{:<3} facility {:>5}   service {:>12.3}", rank + 1, id, value);
            }
            println!("explain: {}", answer.explain);
        }
        "maxcov" => {
            let mut query = Query::max_cov(k);
            query = match a.get("method").unwrap_or("two-step") {
                "greedy" => query.algorithm(Algorithm::Greedy),
                "two-step" => query.algorithm(Algorithm::TwoStep),
                "genetic" => query.algorithm(Algorithm::Genetic),
                "exact" => query.algorithm(Algorithm::Exact),
                other => {
                    return Err(
                        format!("unknown method {other:?} (greedy|two-step|genetic|exact)").into(),
                    )
                }
            };
            let answer = client.query(query)?;
            let out = answer.cover();
            println!(
                "MaxkCovRST k={k} from {addr}: combined service {:.3}, {} users served",
                out.value, out.users_served
            );
            println!("  facilities: {:?}", out.chosen);
            println!("explain: {}", answer.explain);
        }
        other => return Err(format!("unknown mode {other:?} (topk|maxcov)").into()),
    }
    Ok(())
}

fn cmd_status(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&STATUS, raw)? else { return Ok(()) };
    let addr = a.required("connect")?;
    let mut client = tq_net::Client::connect(addr)?;
    println!("{}", client.status()?);
    Ok(())
}

fn cmd_metrics(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&METRICS, raw)? else { return Ok(()) };
    let addr = a.required("connect")?;
    let watch: f64 = a.get_or("watch", 0.0, "number")?;
    let filter = a.get("grep").unwrap_or("");
    let mut client = tq_net::Client::connect(addr)?;
    loop {
        let text = client.metrics()?;
        let shown: String = if filter.is_empty() {
            text
        } else {
            text.lines()
                .filter(|l| l.contains(filter))
                .fold(String::new(), |mut out, l| {
                    out.push_str(l);
                    out.push('\n');
                    out
                })
        };
        if watch <= 0.0 {
            print!("{shown}");
            return Ok(());
        }
        // Top-style: clear, home, redraw with a timestamped header.
        print!("\x1b[2J\x1b[H{addr} — every {watch}s (ctrl-c to stop)\n\n{shown}");
        use std::io::Write as _;
        std::io::stdout().flush()?;
        std::thread::sleep(std::time::Duration::from_secs_f64(watch));
    }
}

fn cmd_shutdown(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&SHUTDOWN, raw)? else { return Ok(()) };
    let addr = a.required("connect")?;
    let client = tq_net::Client::connect(addr)?;
    let ack = client.shutdown_server()?;
    println!(
        "daemon at {addr} acknowledged shutdown at epoch {} ({} wal batches pending \
         before the final checkpoint)",
        ack.epoch, ack.wal_batches
    );
    Ok(())
}

fn cmd_promote(raw: Vec<String>) -> CliResult {
    let Some(a) = parse(&PROMOTE, raw)? else { return Ok(()) };
    let addr = a.required("connect")?;
    let mut client = tq_net::Client::connect(addr)?;
    let ack = client.promote()?;
    println!(
        "daemon at {addr} promoted to primary at epoch {} — writes are accepted there now",
        ack.epoch
    );
    Ok(())
}
