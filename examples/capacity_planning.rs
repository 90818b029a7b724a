//! Capacity planning: find the PV area that drives grid consumption to
//! (near) zero for a given workload, under an idealised oversized battery —
//! the reconstruction's R-Fig3 methodology at example scale.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use greenmatch::config::ExperimentConfig;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn brown_at(area_m2: f64, policy: PolicyKind) -> f64 {
    // Idealised ESD so only panel area limits greening (sizing methodology).
    let cfg = ExperimentConfig::small_demo(42)
        .with_policy(policy)
        .with_solar(area_m2, SolarProfile::SunnySummer)
        .with_battery(BatterySpec::ideal(1_000_000.0));
    let r = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
    // Warm-start brown: the battery starts empty, so the first night's
    // draw is a cold-start artefact independent of panel area.
    r.brown_series_wh.iter().skip(24).sum::<f64>() / 1000.0
}

fn main() {
    println!("Sweeping PV area with an idealised battery (sizing methodology):\n");
    println!("{:>9} | {:>16} | {:>16}", "area m²", "ESD-only brown", "GreenMatch brown");
    println!("{}", "-".repeat(49));

    let mut zero_allon = None;
    let mut zero_gm = None;
    for area in (0..=16).map(|i| i as f64 * 10.0) {
        let a = brown_at(area, PolicyKind::AllOn);
        let g = brown_at(area, PolicyKind::GreenMatch { delay_fraction: 1.0 });
        println!("{area:>9.0} | {a:>12.1} kWh | {g:>12.1} kWh");
        if a < 0.5 && zero_allon.is_none() {
            zero_allon = Some(area);
        }
        if g < 0.5 && zero_gm.is_none() {
            zero_gm = Some(area);
        }
        if zero_allon.is_some() && zero_gm.is_some() {
            break;
        }
    }

    match (zero_allon, zero_gm) {
        (Some(a), Some(g)) => {
            println!("\nZero-brown PV area: ESD-only needs ≈{a:.0} m², GreenMatch ≈{g:.0} m²");
            println!(
                "GreenMatch shrinks the required installation by {:.0}%.",
                (1.0 - g / a) * 100.0
            );
        }
        _ => println!("\nRange exhausted before reaching zero-brown; extend the sweep."),
    }
}
