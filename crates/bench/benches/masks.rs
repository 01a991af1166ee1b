//! Mask-kernel bench: the word-block `PointMask` + arena greedy rounds
//! versus the seed implementation, at paper scale.
//!
//! The seed implementation (the pre-word-block `Small(u64)`/`Large` enum,
//! per-bit Scenario-3 value loop, and clone-per-candidate marginal-gain
//! fold) is embedded verbatim below so the comparison survives the old
//! code's deletion. Three sections, all on one seeded BJG-like GPS
//! dataset under the Length scenario (multipoint masks — the regime the
//! word kernels exist for):
//!
//! 1. **table build** — `ServedTable::build` wall time (reported; the
//!    gate is on greedy, where old and new do identical algorithmic work
//!    over identical inputs).
//! 2. **greedy rounds** — `k` marginal-gain rounds over the full table:
//!    seed fold (sorted map entries, clone + union + two per-bit value
//!    evaluations per overlapping user) versus the arena fold
//!    (`Column` streaming, `union_would_change` word test,
//!    `value_union` without materializing). Both run single-threaded and
//!    must pick **identical facilities with bit-identical values**; the
//!    CI gate asserts the arena fold is **≥2x** faster (minimum of
//!    interleaved reps).
//! 3. **Scenario-3 segment kernel** — the word-parallel
//!    `w & (w >> 1)`-with-carry value against the definitional
//!    per-segment `get(s) && get(s+1)` loop across word-boundary
//!    lengths, bit-identical sums.
//!
//! Alongside the human output the bench writes `BENCH_masks.json` (to the
//! working directory) with the measured times, speedups, and gate verdict
//! for machine consumption.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tq_core::fasthash::FxHashMap;
use tq_core::maxcov::{greedy, ServedTable};
use tq_core::service::{MaskView, PointMask, Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};
use tq_datagen::presets;
use tq_trajectory::{Trajectory, TrajectoryId, UserSet};

const USERS: usize = 10_000;
const ROUTES: usize = 96;
const STOPS: usize = 24;
const K: usize = 8;
/// Gate estimates compare minima of interleaved reps — the noise-robust
/// estimator for deterministic work on a shared CI box.
const GATE_REPS: usize = 5;
/// The CI gate: arena greedy rounds vs the seed fold.
const GREEDY_GATE: f64 = 2.0;

// ---------------------------------------------------------------------------
// Seed implementation (pre-word-block), embedded for comparison
// ---------------------------------------------------------------------------

/// The seed mask: `Small`/`Large` enum, no width, no view.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SeedMask {
    Small(u64),
    Large(Box<[u64]>),
}

impl SeedMask {
    fn empty(n_points: usize) -> Self {
        if n_points <= 64 {
            SeedMask::Small(0)
        } else {
            SeedMask::Large(vec![0u64; n_points.div_ceil(64)].into_boxed_slice())
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        match self {
            SeedMask::Small(w) => (i < 64) && (w >> i) & 1 == 1,
            SeedMask::Large(ws) => (ws[i / 64] >> (i % 64)) & 1 == 1,
        }
    }

    #[inline]
    fn set(&mut self, i: usize) -> bool {
        match self {
            SeedMask::Small(w) => {
                let bit = 1u64 << i;
                let newly = *w & bit == 0;
                *w |= bit;
                newly
            }
            SeedMask::Large(ws) => {
                let bit = 1u64 << (i % 64);
                let word = &mut ws[i / 64];
                let newly = *word & bit == 0;
                *word |= bit;
                newly
            }
        }
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        match self {
            SeedMask::Small(w) => w.count_ones(),
            SeedMask::Large(ws) => ws.iter().map(|w| w.count_ones()).sum(),
        }
    }

    fn union_with(&mut self, other: &SeedMask) -> bool {
        match (self, other) {
            (SeedMask::Small(a), SeedMask::Small(b)) => {
                let before = *a;
                *a |= b;
                *a != before
            }
            (SeedMask::Large(a), SeedMask::Large(b)) => {
                let mut changed = false;
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    let before = *x;
                    *x |= y;
                    changed |= *x != before;
                }
                changed
            }
            _ => panic!("mask size mismatch"),
        }
    }
}

/// The seed `ServiceModel::value`: per-bit loops, notably the
/// per-segment `get(s) && get(s + 1)` Scenario-3 test.
fn seed_value(model: &ServiceModel, u: &Trajectory, mask: &SeedMask) -> f64 {
    match model.scenario {
        Scenario::Transit => {
            if mask.get(0) && mask.get(u.len() - 1) {
                1.0
            } else {
                0.0
            }
        }
        Scenario::PointCount => mask.count_ones() as f64 / u.len() as f64,
        Scenario::Length => {
            let total = u.length();
            if total <= 0.0 {
                return if mask.count_ones() as usize == u.len() {
                    1.0
                } else {
                    0.0
                };
            }
            let mut served = 0.0;
            for s in 0..u.num_segments() {
                if mask.get(s) && mask.get(s + 1) {
                    served += u.segment_length(s);
                }
            }
            served / total
        }
    }
}

/// The seed `Coverage`: hash map of owned masks plus the running value,
/// with the clone-on-overlap marginal fold and the clone-always add.
#[derive(Default)]
struct SeedCoverage {
    masks: FxHashMap<TrajectoryId, SeedMask>,
    value: f64,
}

type SeedEntries = Vec<Vec<(TrajectoryId, SeedMask)>>;

impl SeedCoverage {
    fn marginal(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        entries: &[(TrajectoryId, SeedMask)],
    ) -> f64 {
        let mut gain = 0.0;
        for (id, fmask) in entries {
            let t = users.get(*id);
            match self.masks.get(id) {
                None => gain += seed_value(model, t, fmask),
                Some(cur) => {
                    let mut merged = cur.clone();
                    if merged.union_with(fmask) {
                        gain += seed_value(model, t, &merged) - seed_value(model, t, cur);
                    }
                }
            }
        }
        gain
    }

    fn add(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        entries: &[(TrajectoryId, SeedMask)],
    ) {
        for (id, fmask) in entries {
            let t = users.get(*id);
            match self.masks.get_mut(id) {
                None => {
                    let v = seed_value(model, t, fmask);
                    self.value += v;
                    self.masks.insert(*id, fmask.clone());
                }
                Some(cur) => {
                    let before = seed_value(model, t, cur);
                    let _saved = cur.clone();
                    if cur.union_with(fmask) {
                        let after = seed_value(model, t, cur);
                        self.value += after - before;
                    }
                }
            }
        }
    }
}

/// The seed greedy rounds: same comparator, serial gains.
fn seed_greedy(
    ids: &[u32],
    entries: &SeedEntries,
    users: &UserSet,
    model: &ServiceModel,
    k: usize,
) -> (Vec<u32>, f64) {
    let n = ids.len();
    let mut cov = SeedCoverage::default();
    let mut used = vec![false; n];
    let mut chosen = Vec::with_capacity(k.min(n));
    for _ in 0..k.min(n) {
        let mut best: Option<(usize, f64)> = None;
        for i in (0..n).filter(|&i| !used[i]) {
            let gain = cov.marginal(users, model, &entries[i]);
            let take = match best {
                Some((bi, bg)) => gain > bg + 1e-12 || (gain > bg - 1e-12 && ids[i] < ids[bi]),
                None => true,
            };
            if take {
                best = Some((i, gain));
            }
        }
        let Some((bi, _)) = best else { break };
        used[bi] = true;
        cov.add(users, model, &entries[bi]);
        chosen.push(ids[bi]);
    }
    (chosen, cov.value)
}

/// Converts a word-block mask to the seed representation, bit by bit.
fn seed_from_mask(m: MaskView<'_>) -> SeedMask {
    let mut sm = SeedMask::empty(m.nbits());
    for i in 0..m.nbits() {
        if m.get(i) {
            sm.set(i);
        }
    }
    sm
}

/// Per-candidate seed entries in canonical ascending-id order — the
/// table's own column order.
fn seed_entries(table: &ServedTable) -> SeedEntries {
    table
        .masks
        .iter()
        .map(|column| column.iter().map(|(id, m)| (id, seed_from_mask(m))).collect())
        .collect()
}

// ---------------------------------------------------------------------------

fn minimum(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[0]
}

fn bench_masks(c: &mut Criterion) {
    let model = ServiceModel::new(Scenario::Length, presets::DEFAULT_PSI);
    let city = presets::bj_city();
    let users = tq_datagen::gps_traces(&city, USERS, 0x3A5C);
    let routes = tq_datagen::bus_routes(&city, ROUTES, STOPS, presets::ROUTE_LENGTH, 0xB05);
    let tree_config = TqTreeConfig::z_order(Placement::FullTrajectory).with_beta(64);
    let tree = TqTree::build(&users, tree_config);

    let build = || {
        tq_core::parallel::with_threads(1, || ServedTable::build(&tree, &users, &model, &routes))
    };
    let table = build();
    let entries = seed_entries(&table);
    let served_users: usize = table.masks.iter().map(|m| m.len()).sum();

    let run_seed = || seed_greedy(&table.ids, &entries, &users, &model, K);
    let run_new = || {
        tq_core::parallel::with_threads(1, || {
            let out = greedy(&table, &users, &model, K);
            (out.chosen, out.value)
        })
    };

    // Identical picks and bit-identical values before any timing: the
    // speedup must never be bought with a different answer.
    let (seed_chosen, seed_val) = run_seed();
    let (new_chosen, new_val) = run_new();
    assert_eq!(seed_chosen, new_chosen, "greedy picks diverged");
    assert_eq!(
        seed_val.to_bits(),
        new_val.to_bits(),
        "greedy value bits diverged"
    );

    let mut group = c.benchmark_group("masks");
    group.sample_size(10);
    group.bench_function("served_table_build", |b| b.iter(|| build().len()));
    group.bench_function("greedy_rounds_seed", |b| b.iter(|| run_seed().1));
    group.bench_function("greedy_rounds_arena", |b| b.iter(|| run_new().1));
    group.finish();

    // -- gate: minima over interleaved reps ------------------------------
    let mut build_secs = Vec::with_capacity(GATE_REPS);
    let mut seed_secs = Vec::with_capacity(GATE_REPS);
    let mut new_secs = Vec::with_capacity(GATE_REPS);
    for _ in 0..GATE_REPS {
        let t = std::time::Instant::now();
        black_box(build().len());
        build_secs.push(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        black_box(run_seed().1);
        seed_secs.push(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        black_box(run_new().1);
        new_secs.push(t.elapsed().as_secs_f64());
    }
    let build_min = minimum(build_secs);
    let seed_min = minimum(seed_secs);
    let new_min = minimum(new_secs);
    let greedy_speedup = seed_min / new_min;

    // -- Scenario-3 segment kernel across word boundaries ----------------
    // Random-density masks at one-below/at/one-above word-boundary
    // lengths; both arms fold the same masks in the same order, so the
    // accumulated sums must agree to the bit. splitmix64 keeps the data
    // deterministic without pulling a rand dependency into the bench.
    let mut rng_state = 0x5E6u64;
    let mut next_u64 = move || {
        rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut unit = move || next_u64() as f64 / u64::MAX as f64;
    let kernel_cases: Vec<(Trajectory, PointMask, SeedMask)> = [63usize, 64, 65, 127, 128, 129,
        511, 512, 513]
        .iter()
        .flat_map(|&n| {
            let mut x = 0.0f64;
            let pts = (0..n)
                .map(|_| {
                    x += 0.1 + 1.9 * unit();
                    tq_geometry::Point::new(x, 2.0 * unit() - 1.0)
                })
                .collect();
            let u = Trajectory::new(pts);
            let mut mask = PointMask::empty(n);
            for i in 0..n {
                if unit() < 0.5 {
                    mask.set(i);
                }
            }
            let sm = seed_from_mask(mask.view());
            std::iter::once((u, mask, sm))
        })
        .collect();
    const KERNEL_ITERS: usize = 2_000;
    let t = std::time::Instant::now();
    let mut seed_sum = 0.0;
    for _ in 0..KERNEL_ITERS {
        for (u, _, sm) in &kernel_cases {
            seed_sum += seed_value(&model, u, sm);
        }
    }
    let kernel_seed = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let mut new_sum = 0.0;
    for _ in 0..KERNEL_ITERS {
        for (u, m, _) in &kernel_cases {
            new_sum += model.value(u, m);
        }
    }
    let kernel_new = t.elapsed().as_secs_f64();
    assert_eq!(
        seed_sum.to_bits(),
        new_sum.to_bits(),
        "segment kernel bits diverged"
    );
    let kernel_speedup = kernel_seed / kernel_new;

    println!(
        "\nmask kernels over {USERS} GPS traces × {ROUTES} routes (Length scenario, \
         {served_users} served-mask entries, min of {GATE_REPS}):\n  \
         table build {:.1}ms\n  \
         greedy k={K}: seed fold {:.1}ms vs arena fold {:.1}ms — {greedy_speedup:.1}x \
         (gate ≥{GREEDY_GATE}x)\n  \
         segment kernel: per-bit {:.1}ms vs word-parallel {:.1}ms — {kernel_speedup:.1}x",
        build_min * 1e3,
        seed_min * 1e3,
        new_min * 1e3,
        kernel_seed * 1e3,
        kernel_new * 1e3,
    );

    let json = format!(
        "{{\n  \"users\": {USERS},\n  \"routes\": {ROUTES},\n  \"k\": {K},\n  \
         \"scenario\": \"Length\",\n  \"build_ms\": {:.3},\n  \
         \"greedy_seed_ms\": {:.3},\n  \"greedy_arena_ms\": {:.3},\n  \
         \"greedy_speedup\": {greedy_speedup:.3},\n  \
         \"segment_seed_ms\": {:.3},\n  \"segment_word_ms\": {:.3},\n  \
         \"segment_speedup\": {kernel_speedup:.3},\n  \
         \"gate\": \"greedy_speedup >= {GREEDY_GATE}\",\n  \"pass\": {}\n}}\n",
        build_min * 1e3,
        seed_min * 1e3,
        new_min * 1e3,
        kernel_seed * 1e3,
        kernel_new * 1e3,
        greedy_speedup >= GREEDY_GATE,
    );
    let json_path = std::env::current_dir().unwrap().join("BENCH_masks.json");
    std::fs::write(&json_path, json).unwrap();
    println!("wrote {}", json_path.display());

    assert!(
        greedy_speedup >= GREEDY_GATE,
        "arena greedy rounds must be ≥{GREEDY_GATE}x the seed fold, measured {greedy_speedup:.1}x"
    );
}

criterion_group!(masks, bench_masks);
criterion_main!(masks);
