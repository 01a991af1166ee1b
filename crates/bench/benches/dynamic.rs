//! Dynamic-workload bench: incremental [`Engine::apply`] batches versus
//! rebuild-from-scratch, at several update rates.
//!
//! Each iteration applies one batch of a pre-generated NYT-like
//! arrival/expiry trace (50% expiries, so the live set stays near its
//! initial size). The *incremental* arm drives a persistent, warmed
//! [`Engine`]; the *rebuild* arm applies the same batch to a plain
//! trajectory store and then rebuilds the TQ-tree and the full
//! [`ServedTable`] — what a static pipeline must do to stay correct.
//!
//! At the end of each rate the bench checks that the incremental engine's
//! full table — ids and value bits — equals the rebuild arm's table built
//! from scratch over the engine's live set, and exits non-zero if not.
//! After the timed runs it prints the engine's accumulated
//! [`UpdateStats`]: how many facilities each batch left untouched or
//! patched, where the rebuild arm evaluates every one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tq_core::dynamic::{Update, UpdateStats};
use tq_core::engine::Engine;
use tq_core::maxcov::ServedTable;
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};
use tq_datagen::{presets, stream_scenario, StreamKind, StreamScenario};
use tq_geometry::Rect;
use tq_trajectory::{FacilitySet, Trajectory, UserSet};

const USERS: usize = 10_000;
const ROUTES: usize = 64;
const STOPS: usize = 12;
/// Update rates as a fraction of the live set per batch.
const RATES: [f64; 3] = [0.001, 0.01, 0.05];
/// Pre-generated batches per rate; iterations beyond this wrap around by
/// resetting the engine (the reset cost lands in one outlier sample).
const BATCHES: usize = 400;

fn tree_config() -> TqTreeConfig {
    TqTreeConfig::z_order(Placement::TwoPoint).with_beta(64)
}

fn scenario_for(rate: f64) -> (StreamScenario, Vec<Vec<Update>>) {
    let batch = ((rate * USERS as f64).round() as usize).max(1);
    let city = presets::ny_city();
    let trace = stream_scenario(
        &city,
        StreamKind::Taxi,
        USERS,
        batch * BATCHES,
        0.5,
        0xD1A,
    );
    let batches = trace.update_batches(batch);
    (trace, batches)
}

/// The rebuild arm's trajectory store: id-indexed, `None` = expired.
struct RebuildState {
    all: Vec<Option<Trajectory>>,
}

impl RebuildState {
    fn new(initial: &UserSet) -> RebuildState {
        RebuildState {
            all: initial.iter().map(|(_, t)| Some(t.clone())).collect(),
        }
    }

    fn apply(&mut self, batch: &[Update]) {
        for u in batch {
            match u {
                Update::Insert(t) => self.all.push(Some(t.clone())),
                Update::Remove(id) => self.all[*id as usize] = None,
            }
        }
    }

    fn live(&self) -> UserSet {
        UserSet::from_vec(self.all.iter().flatten().cloned().collect())
    }
}

/// The rebuild arm's work per batch: a fresh TQ-tree and full table over
/// the live set.
fn rebuild(
    live: &UserSet,
    model: &ServiceModel,
    facilities: &FacilitySet,
    bounds: Rect,
) -> ServedTable {
    let tree = TqTree::build_with_bounds(live, tree_config(), bounds);
    ServedTable::build(&tree, live, model, facilities)
}

/// A table's ids and value bits — what the two arms must agree on.
fn table_bits(table: &ServedTable) -> Vec<(u32, u64)> {
    table
        .ids
        .iter()
        .zip(&table.values)
        .map(|(id, v)| (*id, v.to_bits()))
        .collect()
}

fn bench_incremental_vs_rebuild(c: &mut Criterion) {
    let model = ServiceModel::new(Scenario::Transit, presets::DEFAULT_PSI);
    let facilities: FacilitySet = presets::ny_bus(ROUTES, STOPS);

    let mut group = c.benchmark_group("dynamic_incremental_vs_rebuild");
    group.sample_size(9);
    let mut stats_per_rate: Vec<(f64, UpdateStats)> = Vec::new();

    for rate in RATES {
        let (trace, batches) = scenario_for(rate);
        let label = format!("{:.1}%", rate * 100.0);

        // Incremental: one persistent engine, one batch per iteration.
        let mk_engine = || {
            let mut engine = Engine::builder(model)
                .users(trace.initial.clone())
                .facilities(facilities.clone())
                .tree_config(tree_config())
                .bounds(trace.bounds)
                .build()
                .expect("the trace starts inside its bounds");
            engine.warm();
            engine
        };
        let mut engine = mk_engine();
        let mut accumulated = UpdateStats::default();
        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &batches,
            |b, batches| {
                b.iter(|| {
                    if idx == batches.len() {
                        accumulated.add(engine.stats());
                        engine = mk_engine();
                        idx = 0;
                    }
                    let out = engine.apply(&batches[idx]).expect("valid trace");
                    idx += 1;
                    out.patched
                })
            },
        );
        accumulated.add(engine.stats());
        stats_per_rate.push((rate, accumulated));
        let maintained = engine.full_table().expect("warmed at construction");
        let fresh = rebuild(&engine.live_set(), &model, &facilities, trace.bounds);
        assert_eq!(
            table_bits(maintained),
            table_bits(&fresh),
            "{label}: the incremental table diverged from a rebuild over the same live set \
             after {} batches",
            engine.stats().batches
        );

        // Rebuild: apply the batch, then rebuild index + ServedTable.
        let mut state = RebuildState::new(&trace.initial);
        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("rebuild", &label),
            &batches,
            |b, batches| {
                b.iter(|| {
                    if idx == batches.len() {
                        state = RebuildState::new(&trace.initial);
                        idx = 0;
                    }
                    state.apply(&batches[idx]);
                    idx += 1;
                    rebuild(&state.live(), &model, &facilities, trace.bounds).len()
                })
            },
        );
    }
    group.finish();

    println!(
        "\nUpdateStats per rate ({USERS} users, {ROUTES} routes, batches of rate×users events):"
    );
    for (rate, s) in &stats_per_rate {
        println!(
            "  {:>5.1}%: {:>5} batches | full facility evaluations: rebuild strategy {:>7}, \
             engine 0 → {:.1}% untouched, {} patched ({} delta patches)",
            rate * 100.0,
            s.batches,
            s.rebuild_evaluations(),
            100.0 * s.untouched_fraction(),
            s.facilities_patched,
            s.patch_evaluations,
        );
    }
}

criterion_group!(benches, bench_incremental_vs_rebuild);
criterion_main!(benches);
