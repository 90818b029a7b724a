//! Battery sizing study: how much ESD does each policy actually need?
//!
//! Sweeps lithium-ion battery capacities for the ESD-only policy and for
//! GreenMatch on the same cluster/workload/solar week, printing the brown
//! energy at each size. The takeaway mirrors the reconstruction's R-Fig4:
//! GreenMatch reaches its brown-energy floor at a markedly smaller battery
//! than the ESD-only approach, because deferred work consumes solar energy
//! directly instead of round-tripping it through the battery.
//!
//! ```text
//! cargo run --release --example battery_sizing
//! ```

use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn main() {
    let sizes_kwh = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0];

    println!("{:>10} | {:>16} | {:>16}", "batt kWh", "ESD-only brown", "GreenMatch brown");
    println!("{}", "-".repeat(50));

    for &kwh in &sizes_kwh {
        let mut brown = Vec::new();
        for policy in [PolicyKind::AllOn, PolicyKind::GreenMatch { delay_fraction: 1.0 }] {
            let cfg = ExperimentConfig::small_demo(42)
                .with_policy(policy)
                .with_solar(60.0, SolarProfile::SunnySummer)
                .with_battery((kwh > 0.0).then(|| BatterySpec::lithium_ion(kwh * 1000.0)));
            let sim = Simulation::builder(&cfg).build().expect("config materialises");
            brown.push(sim.run_to_end().brown_kwh);
        }
        println!("{:>10.0} | {:>12.1} kWh | {:>12.1} kWh", kwh, brown[0], brown[1]);
    }

    println!("\nLook for the size where each column stops improving: that is the");
    println!("battery the policy actually needs. GreenMatch's knee comes earlier.");
}
