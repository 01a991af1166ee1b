//! Observability overhead gate: the instrumented query path versus the same
//! path with recording switched off must be within 2 % (best ratio over
//! chunk-interleaved reps), and answers must be bit-identical either way.
//!
//! One warmed engine over a seeded NYT-like state answers the serving mix —
//! top-k and max-cov, both from the maintained full table — on the calling
//! thread. Run with `cargo bench -p tq-bench --bench obs_overhead`; it exits
//! non-zero when the gate fails.

use std::time::Instant;
use tq_core::engine::{Answer, Engine, Query, QueryResult};
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTreeConfig};
use tq_datagen::{presets, taxi_trips};

const USERS: usize = 4_000;
const ROUTES: usize = 64;
const STOPS: usize = 12;
const K: usize = 8;
const SEED: u64 = 0x9A5;
/// Reps per gate estimate; each interleaves both arms and the gate keeps
/// the cleanest rep — the noise-robust shape on a shared CI box.
const GATE_REPS: usize = 5;
/// Queries per gate rep, split evenly across the two arms.
const GATE_QUERIES: usize = 2_000;
/// Off/on chunk pairs interleaved within each gate rep.
const GATE_CHUNKS: usize = 4;
/// The observability overhead ceiling: instrumented ≤ 1.02× bare.
const OBS_GATE: f64 = 1.02;

fn build_engine() -> Engine {
    let city = presets::ny_city();
    let facilities =
        tq_datagen::bus_routes(&city, ROUTES, STOPS, presets::ROUTE_LENGTH, SEED ^ 0xB05);
    let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, presets::DEFAULT_PSI))
        .users(taxi_trips(&city, USERS, SEED))
        .facilities(facilities)
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(64))
        .bounds(city.bounds)
        .build()
        .expect("bench engine builds");
    engine.warm();
    engine
}

/// The serving mix, one evaluation thread per query: both query families
/// answered from the maintained full table.
fn queries() -> Vec<Query> {
    vec![Query::top_k(K).threads(1), Query::max_cov(K).threads(1)]
}

fn ranked_bits(answer: &Answer) -> Vec<(u32, u64)> {
    match &answer.result {
        QueryResult::TopK(ranked) => ranked.iter().map(|(id, v)| (*id, v.to_bits())).collect(),
        QueryResult::MaxCov(cov) => cov
            .chosen
            .iter()
            .map(|id| (*id, cov.value.to_bits()))
            .chain([(cov.users_served as u32, cov.users_served as u64)])
            .collect(),
    }
}

fn main() {
    println!(
        "observability overhead: {USERS} trajectories, {ROUTES} routes × {STOPS} stops, \
         top-{K} + max-cov-{K} ({GATE_QUERIES} queries per rep, {GATE_CHUNKS} interleaved \
         off/on chunk pairs, best of {GATE_REPS} reps)"
    );
    let mut engine = build_engine();
    let script = queries();
    let chunk_len = GATE_QUERIES / (2 * GATE_CHUNKS);
    let run_chunk = |engine: &mut Engine| {
        let t = Instant::now();
        for i in 0..chunk_len {
            engine
                .run(script[i % script.len()].clone())
                .expect("bench queries are valid");
        }
        t.elapsed().as_secs_f64()
    };
    // Warm caches before either arm measures.
    run_chunk(&mut engine);
    // Per-query recording is a handful of relaxed integer atomics
    // (~100ns against ~30µs table-hit queries), far below a shared box's
    // scheduling drift — so each rep interleaves short off/on chunks
    // (drift hits both arms alike) and the gate takes the *cleanest*
    // rep's on/off ratio, the noise-robust estimator for a true ratio
    // this close to 1.
    let mut reps: Vec<(f64, f64)> = Vec::with_capacity(GATE_REPS);
    for _ in 0..GATE_REPS {
        let (mut off, mut on) = (0.0, 0.0);
        for _ in 0..GATE_CHUNKS {
            tq_obs::set_enabled(false);
            off += run_chunk(&mut engine);
            tq_obs::set_enabled(true);
            on += run_chunk(&mut engine);
        }
        reps.push((off, on));
    }
    let &(off_best, on_best) = reps
        .iter()
        .min_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)))
        .expect("GATE_REPS > 0");
    let overhead = on_best / off_best - 1.0;

    tq_obs::set_enabled(false);
    let bare: Vec<Vec<(u32, u64)>> = queries()
        .into_iter()
        .map(|q| ranked_bits(&engine.run(q).expect("bench queries are valid")))
        .collect();
    tq_obs::set_enabled(true);
    let instrumented: Vec<Vec<(u32, u64)>> = queries()
        .into_iter()
        .map(|q| ranked_bits(&engine.run(q).expect("bench queries are valid")))
        .collect();
    assert_eq!(
        bare, instrumented,
        "answers must be bit-identical with metrics enabled and disabled"
    );
    println!(
        "  metrics off {:.1}ms, metrics on {:.1}ms — {:.2}% overhead \
         (gate ≤{:.0}%), answers bit-identical",
        off_best * 1e3,
        on_best * 1e3,
        overhead * 100.0,
        (OBS_GATE - 1.0) * 100.0,
    );
    assert!(
        on_best <= off_best * OBS_GATE,
        "always-on metrics must cost under {:.0}% qps \
         (measured {:.2}%: on {:.1}ms vs off {:.1}ms)",
        (OBS_GATE - 1.0) * 100.0,
        overhead * 100.0,
        on_best * 1e3,
        off_best * 1e3,
    );
}
