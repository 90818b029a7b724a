//! Sweep-engine cost: world materialization (cold vs. warm) and a small
//! policy sweep through the shared-world runner.
//!
//! The reconstruction suite is ~15 sweeps of 2–13 points each; what the
//! shared-world engine saves is exactly the cold-materialization cost this
//! bench isolates: `world/cold` pays `Workload::generate` + trace
//! synthesis + directory placement on every call, `world/warm` clones
//! three `Arc`s out of a populated cache. `sweep/policies` then measures a
//! real 4-point sweep end to end the way the suite runs one (pool +
//! global world cache), at the medium cluster scale the figures use.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gm_bench::run_tagged;
use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::{World, WorldCache};

fn bench_materialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("world");
    // The medium config is what the figures sweep: 100k-object directory,
    // medium-week workload, 168-slot solar trace.
    let cfg = ExperimentConfig::medium(42);

    group.bench_function("cold", |b| {
        b.iter(|| {
            let world = World::try_materialize(black_box(&cfg)).expect("materialises");
            black_box(world.workload.batch_jobs().len())
        })
    });

    let cache = WorldCache::new();
    cache.get_or_materialize(&cfg).expect("prime the cache");
    group.bench_function("warm", |b| {
        b.iter(|| {
            let world = cache.get_or_materialize(black_box(&cfg)).expect("cached");
            black_box(world.workload.batch_jobs().len())
        })
    });
    group.finish();
}

fn bench_policy_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    // One world, four policies — the canonical shape of the suite's
    // sweeps. Runs through the real pool + global cache path.
    group.bench_function("policies", |b| {
        b.iter(|| {
            let configs = [
                PolicyKind::AllOn,
                PolicyKind::PowerProportional,
                PolicyKind::GreedyGreen,
                PolicyKind::GreenMatch { delay_fraction: 1.0 },
            ]
            .iter()
            .map(|&p| (format!("{p:?}"), ExperimentConfig::small_demo(42).with_policy(p)))
            .collect();
            let results = run_tagged(configs);
            black_box(results.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_materialization, bench_policy_sweep);
criterion_main!(benches);
