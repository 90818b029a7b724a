//! Failure injection and renewable-aware rebuild.
//!
//! Runs the small cluster for a week with an (accelerated) disk-failure
//! process under two policies and reports the reliability picture next to
//! the energy picture: rebuild work is deferrable, but deferring it extends
//! the under-replication exposure window, and gear cycling itself adds
//! start-stop wear — energy savings and reliability pull in opposite
//! directions.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use gm_storage::FailureSpec;
use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn main() {
    // ~100× accelerated AFR so a single simulated week shows the dynamics.
    let fail_spec = FailureSpec { afr: 3.0, standby_factor: 0.5, spinup_wear_hours: 10.0 };

    println!(
        "{:<14} | {:>9} | {:>8} | {:>7} | {:>6} | {:>9} | {:>10}",
        "policy", "brown kWh", "failures", "repairs", "lost", "degraded", "rebuild GB"
    );
    println!("{}", "-".repeat(84));

    for (name, policy) in [
        ("all-on", PolicyKind::AllOn),
        ("power-prop", PolicyKind::PowerProportional),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
    ] {
        let cfg = ExperimentConfig::small_demo(42).with_policy(policy).with_failures(fail_spec);
        let r = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
        println!(
            "{:<14} | {:>9.1} | {:>8} | {:>7} | {:>6} | {:>9} | {:>10.1}",
            name,
            r.brown_kwh,
            r.failures,
            r.repairs_completed,
            r.lost_objects,
            r.degraded_reads,
            r.rebuild_bytes as f64 / 1e9,
        );
    }

    println!("\nParked disks fail less (standby factor), but every gear cycle adds");
    println!("start-stop wear, and deferred rebuilds widen the exposure window —");
    println!("the reliability face of renewable-aware power-gating.");
}
