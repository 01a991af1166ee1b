//! Criterion bench behind the index-construction table (paper §VI-B.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tq_core::baseline::BaselineIndex;
use tq_bench::data;
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for n in [20_000usize, 40_000, 80_000] {
        let users = data::nyt(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("BL", n), &n, |b, _| {
            b.iter(|| BaselineIndex::build_with_capacity(&users, data::defaults::BETA))
        });
        group.bench_with_input(BenchmarkId::new("TQ(B)", n), &n, |b, _| {
            b.iter(|| {
                TqTree::build(
                    &users,
                    TqTreeConfig::basic(Placement::TwoPoint).with_beta(data::defaults::BETA),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("TQ(Z)", n), &n, |b, _| {
            b.iter(|| {
                TqTree::build(
                    &users,
                    TqTreeConfig::z_order(Placement::TwoPoint).with_beta(data::defaults::BETA),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
