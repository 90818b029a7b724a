//! End-to-end determinism and seed-sensitivity across the whole pipeline.

use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_demo(seed);
    cfg.slots = 48;
    cfg.policy = PolicyKind::GreenMatch { delay_fraction: 0.5 };
    cfg
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = Simulation::builder(&cfg(99)).build().expect("config materialises").run_to_end();
    let b = Simulation::builder(&cfg(99)).build().expect("config materialises").run_to_end();
    assert_eq!(a.brown_kwh.to_bits(), b.brown_kwh.to_bits());
    assert_eq!(a.load_kwh.to_bits(), b.load_kwh.to_bits());
    assert_eq!(a.curtailed_kwh.to_bits(), b.curtailed_kwh.to_bits());
    assert_eq!(a.latency.count, b.latency.count);
    assert_eq!(a.latency.p99_s.to_bits(), b.latency.p99_s.to_bits());
    assert_eq!(a.gears_series, b.gears_series);
    assert_eq!(a.brown_series_wh, b.brown_series_wh);
    assert_eq!(a.spinups, b.spinups);
    assert_eq!(a.batch, b.batch);
}

#[test]
fn different_seeds_change_the_workload() {
    let a = Simulation::builder(&cfg(1)).build().expect("config materialises").run_to_end();
    let b = Simulation::builder(&cfg(2)).build().expect("config materialises").run_to_end();
    assert_ne!(a.latency.count, b.latency.count, "different request streams");
    assert_ne!(a.green_produced_kwh.to_bits(), b.green_produced_kwh.to_bits(), "different clouds");
}

#[test]
fn policies_see_identical_workload_and_weather() {
    // Same seed, different policies: production and request count must be
    // byte-identical — the property that makes A/B comparisons valid.
    let mut a_cfg = cfg(7);
    a_cfg.policy = PolicyKind::AllOn;
    let mut b_cfg = cfg(7);
    b_cfg.policy = PolicyKind::GreedyGreen;
    let a = Simulation::builder(&a_cfg).build().expect("config materialises").run_to_end();
    let b = Simulation::builder(&b_cfg).build().expect("config materialises").run_to_end();
    assert_eq!(a.latency.count, b.latency.count);
    assert_eq!(a.green_produced_kwh.to_bits(), b.green_produced_kwh.to_bits());
    assert_eq!(a.batch.jobs_submitted, b.batch.jobs_submitted);
    assert_eq!(a.batch.bytes_submitted, b.batch.bytes_submitted);
}
