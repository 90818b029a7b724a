//! End-to-end slot-loop throughput: one simulated day of the small
//! configuration per policy. This is the unit of cost behind every sweep
//! in the reconstructed evaluation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn bench_harness(c: &mut Criterion) {
    let mut group = c.benchmark_group("harness_day");
    group.sample_size(10);
    for (name, policy) in [
        ("all-on", PolicyKind::AllOn),
        ("greedy-green", PolicyKind::GreedyGreen),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
    ] {
        group.bench_with_input(BenchmarkId::new("policy", name), &policy, |b, &policy| {
            b.iter(|| {
                let mut cfg = ExperimentConfig::small_demo(42);
                cfg.slots = 24;
                cfg.policy = policy;
                let sim = Simulation::builder(&cfg).build().expect("config materialises");
                black_box(sim.run_to_end().brown_kwh)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_harness);
criterion_main!(benches);
