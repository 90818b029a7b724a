//! Quickstart: run one week of a small solar-powered storage cluster under
//! the GreenMatch policy and print the report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn main() {
    // A 6-server, 12-disk cluster with a 40 m² PV array and a 10 kWh
    // lithium-ion battery, driven by a scaled-down week of interactive
    // streams and deferrable batch jobs.
    let cfg = ExperimentConfig::small_demo(42)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });

    println!("Running one simulated week ({} slots)...\n", cfg.slots);
    let report = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
    println!("{report}");

    // The same week, energy-oblivious, for contrast.
    let cfg = cfg.with_policy(PolicyKind::AllOn);
    let baseline = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
    println!("--- energy-oblivious baseline ---\n{baseline}");

    let saving = (1.0 - report.brown_kwh / baseline.brown_kwh.max(1e-9)) * 100.0;
    println!("GreenMatch used {saving:.0}% less grid energy than All-On.");
}
