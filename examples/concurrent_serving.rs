//! Concurrent serving: a query fleet over immutable snapshots while
//! update batches stream through the single writer.
//!
//! A ride-hailing dashboard keeps asking "which routes matter right now"
//! from many frontends at once, while trips keep arriving and expiring.
//! The engine's two-plane split serves both without either waiting: the
//! frontends read lock-free from published [`Snapshot`]s (each answer
//! stamped with its epoch), and the writer publishes a new epoch per
//! applied batch. Here four dashboard threads each hold a cloned
//! [`Reader`] while the calling thread applies the update stream; `tqd`
//! serves the same two planes over TCP.
//!
//! ```text
//! cargo run --release --example concurrent_serving
//! TQ_EXAMPLE_SCALE=0.05 cargo run --release --example concurrent_serving
//! ```
//!
//! [`Snapshot`]: tq::core::engine::Snapshot
//! [`Reader`]: tq::core::engine::Reader

use std::sync::atomic::{AtomicBool, Ordering};
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
    let city = CityModel::synthetic(31, 10, 16_000.0);
    let trace = stream_scenario(
        &city,
        StreamKind::Taxi,
        scaled(20_000),
        scaled(4_000),
        0.5,
        17,
    );
    let routes = bus_routes(&city, 96, 16, 7_000.0, 18);

    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 250.0))
        .users(trace.initial.clone())
        .facilities(routes)
        .bounds(trace.bounds)
        .build()?;
    engine.warm(); // publish epoch 1 with the memoized full table
    println!(
        "engine ready: {} trips, {} candidate routes, epoch {}",
        engine.live_users(),
        engine.facilities().len(),
        engine.epoch()
    );

    // --- 4 dashboard readers + the update stream on this thread ---------
    let script = [Query::top_k(8), Query::max_cov(4)];
    let batches = trace.update_batches(scaled(400));
    let reader = engine.reader();
    let done = AtomicBool::new(false);
    let clients: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|client| {
                let (reader, script, done) = (reader.clone(), &script, &done);
                s.spawn(move || -> Result<(u64, u64, u64), EngineError> {
                    let (mut queries, mut first, mut last) = (0u64, None, 0u64);
                    // Every reader answers at least once, and keeps going
                    // until the writer has published its last batch.
                    while queries == 0 || !done.load(Ordering::Acquire) {
                        let snapshot = reader.snapshot(); // the latest epoch, O(1)
                        let query = script[(client + queries as usize) % script.len()].clone();
                        let answer = snapshot.run(query)?;
                        let epoch = answer.explain.snapshot_epoch;
                        assert!(epoch >= last, "epochs are monotone: {epoch} after {last}");
                        first.get_or_insert(epoch);
                        last = epoch;
                        queries += 1;
                    }
                    Ok((queries, first.unwrap_or(last), last))
                })
            })
            .collect();
        // Control plane, concurrently: each batch publishes a new epoch.
        let applied = batches
            .iter()
            .try_for_each(|batch| engine.apply(batch).map(|_| ()));
        done.store(true, Ordering::Release);
        let answered = workers
            .into_iter()
            .map(|w| w.join().expect("reader thread"));
        applied.and_then(|()| answered.collect())
    })?;
    println!(
        "\n{} update batches applied while 4 readers answered {} queries:",
        batches.len(),
        clients.iter().map(|c| c.0).sum::<u64>()
    );
    for (client, (queries, first, last)) in clients.iter().enumerate() {
        println!("  reader {client}: {queries:>6} queries, epochs {first}..={last}");
    }
    assert!(clients.iter().all(|&(_, _, last)| last <= engine.epoch()));

    // --- readers keep old epochs alive ---------------------------------
    let held = reader.snapshot(); // pin the current epoch
    let before = held.run(Query::top_k(1))?;
    let newcomers = taxi_trips(&city, scaled(2_000), 19);
    engine.apply(
        &newcomers
            .iter()
            .map(|(_, t)| Update::Insert(t.clone()))
            .collect::<Vec<_>>(),
    )?;
    let fresh = reader.snapshot();
    println!(
        "\nwriter published epoch {} — a pinned reader still answers on epoch {}:",
        fresh.epoch(),
        held.epoch()
    );
    let still = held.run(Query::top_k(1))?;
    assert_eq!(
        before.ranked()[0].1.to_bits(),
        still.ranked()[0].1.to_bits(),
        "a held snapshot never changes"
    );
    println!(
        "  epoch {}: best route {} serves {:>7.0}",
        held.epoch(),
        still.ranked()[0].0,
        still.ranked()[0].1
    );
    let now = fresh.run(Query::top_k(1))?;
    println!(
        "  epoch {}: best route {} serves {:>7.0} (after {} arrivals)",
        fresh.epoch(),
        now.ranked()[0].0,
        now.ranked()[0].1,
        newcomers.len()
    );
    assert!(now.ranked()[0].1 >= still.ranked()[0].1);
    Ok(())
}
