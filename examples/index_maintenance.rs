//! Operating the engine as a long-lived service: batched dynamic updates
//! with incremental answer maintenance, structural statistics, and parallel
//! facility evaluation.
//!
//! ```text
//! cargo run --release --example index_maintenance
//! TQ_EXAMPLE_SCALE=0.05 cargo run --release --example index_maintenance
//! ```

use tq::prelude::*;

/// Scales a workload size by the `TQ_EXAMPLE_SCALE` env var (CI runs the
/// examples at a small fraction of the default size).
fn scaled(n: usize) -> usize {
    match std::env::var("TQ_EXAMPLE_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        Some(s) if s > 0.0 => ((n as f64 * s) as usize).max(64),
        _ => n,
    }
}

fn main() -> Result<(), EngineError> {
    let city = CityModel::synthetic(71, 10, 15_000.0);
    let day1 = taxi_trips(&city, scaled(40_000), 1);
    let routes = bus_routes(&city, 96, 24, 8_000.0, 2);

    // Day 1: bulk build, then warm the served-table memo so later batches
    // maintain it incrementally instead of re-evaluating facilities.
    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 250.0))
        .users(day1)
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint))
        .bounds(city.bounds.expand(1.0))
        .build()?;
    engine.warm();
    let s = engine.tree().expect("tq backend").stats();
    println!(
        "day 1: {} items | {} nodes ({} leaves), height {} | max list {} | {} z-buckets | {:.1} MiB",
        s.items,
        s.nodes,
        s.leaves,
        s.height,
        s.max_list,
        s.z_buckets,
        s.memory_bytes as f64 / (1024.0 * 1024.0)
    );

    // Day 2: new trips arrive, the oldest expire (a sliding window), as one
    // update batch through the same engine that answers the queries.
    let day2 = taxi_trips(&city, scaled(10_000), 2);
    let expired = scaled(10_000) as u32;
    let batch: Vec<Update> = day2
        .iter()
        .map(|(_, t)| Update::Insert(t.clone()))
        .chain((0..expired).map(Update::Remove))
        .collect();
    let t = std::time::Instant::now();
    let out = engine.apply(&batch)?;
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "day 2: +{}/-{} trips in {apply_ms:.0} ms ({} live; facilities: \
         {} untouched, {} patched)",
        out.inserted.len(),
        out.removed,
        engine.live_users(),
        out.untouched,
        out.patched,
    );
    let stats = engine.stats();
    println!(
        "maintenance: no facility re-evaluated vs rebuild-every-batch; {:.1}% untouched, \
         {} delta mask tests",
        100.0 * stats.untouched_fraction(),
        stats.patch_evaluations
    );

    // Plan 4 routes over the live window. The answer comes straight from
    // the incrementally maintained table (a cache hit); an explicit thread
    // count shows the scoped parallelism control.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let plan = engine.run(Query::max_cov(4).threads(threads))?;
    println!(
        "best 4 = {:?} serving {} active commuters (cache {}, {} threads, {:.0} ms)",
        plan.cover().chosen,
        plan.cover().users_served,
        plan.explain.cache,
        plan.explain.threads,
        plan.explain.wall.as_secs_f64() * 1e3,
    );
    Ok(())
}
