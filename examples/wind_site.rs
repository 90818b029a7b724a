//! Wind-powered site: the paper family's future-work question — does the
//! scheduling/storage trade-off survive a production profile that is not
//! diurnal?
//!
//! Runs the policy set under a steady-coastal wind turbine instead of PV
//! and prints brown energy, green utilisation and deadline misses. Wind
//! produces at night too, so the battery matters less and opportunistic
//! deferral matters differently than under solar.
//!
//! ```text
//! cargo run --release --example wind_site
//! ```

use gm_energy::wind::WindProfile;
use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn main() {
    let policies = [
        ("all-on (ESD-only)", PolicyKind::AllOn),
        ("power-prop", PolicyKind::PowerProportional),
        ("greedy-green", PolicyKind::GreedyGreen),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
    ];

    println!(
        "{:<20} | {:>10} | {:>9} | {:>9} | {:>8}",
        "policy", "brown kWh", "green use", "coverage", "misses"
    );
    println!("{}", "-".repeat(68));

    for (name, policy) in policies {
        let cfg = ExperimentConfig::small_demo(42)
            .with_policy(policy)
            .with_wind(6_000.0, WindProfile::SteadyCoastal);
        let r = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
        println!(
            "{:<20} | {:>10.1} | {:>8.1}% | {:>8.1}% | {:>8}",
            name,
            r.brown_kwh,
            r.green_utilization * 100.0,
            r.green_coverage * 100.0,
            r.batch.deadline_misses + r.batch.unfinished_late,
        );
    }

    println!("\nWind blows at night: direct consumption replaces much of the battery's");
    println!("role, and deferral targets lulls rather than darkness.");
}
