//! Cross-crate integration: policy behaviour orderings the reconstruction's
//! headline claims rest on. Every run here uses the small cluster and a
//! shortened horizon so the suite stays fast in debug builds.

use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use greenmatch::config::{ExperimentConfig, SourceKind};
use greenmatch::policy::PolicyKind;
use greenmatch::report::RunReport;
use greenmatch::simulation::Simulation;

fn cfg(policy: PolicyKind, battery_wh: f64, area_m2: f64, slots: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_demo(1234);
    cfg.policy = policy;
    cfg.slots = slots;
    cfg.sites[0].source = SourceKind::Solar { area_m2, profile: SolarProfile::SunnySummer };
    cfg.sites[0].battery = (battery_wh > 0.0).then(|| BatterySpec::lithium_ion(battery_wh));
    cfg
}

fn run(policy: PolicyKind, battery_wh: f64, area_m2: f64) -> RunReport {
    Simulation::builder(&cfg(policy, battery_wh, area_m2, 72))
        .build()
        .expect("config materialises")
        .run_to_end()
}

#[test]
fn greenmatch_dominates_all_on_on_brown_energy() {
    let gm = run(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 0.0, 20.0);
    let allon = run(PolicyKind::AllOn, 0.0, 20.0);
    assert!(
        gm.brown_kwh < allon.brown_kwh * 0.9,
        "greenmatch {:.1} kWh should clearly beat all-on {:.1} kWh",
        gm.brown_kwh,
        allon.brown_kwh
    );
}

#[test]
fn greenmatch_beats_greedy_green_with_lookahead() {
    let gm = run(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 0.0, 20.0);
    let greedy = run(PolicyKind::GreedyGreen, 0.0, 20.0);
    assert!(
        gm.brown_kwh <= greedy.brown_kwh * 1.05,
        "greenmatch {:.1} kWh should be no worse than greedy {:.1} kWh",
        gm.brown_kwh,
        greedy.brown_kwh
    );
}

#[test]
fn battery_only_improves_over_no_battery() {
    let with = run(PolicyKind::AllOn, 10_000.0, 20.0);
    let without = run(PolicyKind::AllOn, 0.0, 20.0);
    assert!(with.brown_kwh <= without.brown_kwh + 1e-9);
    assert!(with.battery_out_kwh > 0.0, "battery actually cycled");
    assert!(with.curtailed_kwh <= without.curtailed_kwh + 1e-9, "storing surplus cuts curtailment");
}

#[test]
fn opportunistic_scheduling_reduces_required_battery() {
    // The companion-claim shape: at the battery size where GreenMatch has
    // already flattened, ESD-only still gains from more capacity.
    let gm_small = run(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 4_000.0, 30.0);
    let gm_large = run(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 20_000.0, 30.0);
    let esd_small = run(PolicyKind::AllOn, 4_000.0, 30.0);
    let esd_large = run(PolicyKind::AllOn, 20_000.0, 30.0);
    let gm_gain = gm_small.brown_kwh - gm_large.brown_kwh;
    let esd_gain = esd_small.brown_kwh - esd_large.brown_kwh;
    assert!(
        esd_gain > gm_gain,
        "ESD-only should depend more on battery size: esd gain {esd_gain:.2} vs gm gain {gm_gain:.2}"
    );
}

#[test]
fn every_policy_meets_most_deadlines() {
    for policy in [
        PolicyKind::AllOn,
        PolicyKind::PowerProportional,
        PolicyKind::Edf,
        PolicyKind::GreedyGreen,
        PolicyKind::GreenMatch { delay_fraction: 1.0 },
        PolicyKind::GreenMatch { delay_fraction: 0.3 },
    ] {
        let r = run(policy, 10_000.0, 20.0);
        assert!(
            r.batch.miss_rate() < 0.25,
            "{}: miss rate {:.1}%",
            r.policy,
            r.batch.miss_rate() * 100.0
        );
        assert!(r.latency.p99_s < 5.0, "{}: p99 {:.2}s", r.policy, r.latency.p99_s);
    }
}

#[test]
fn delay_fraction_interpolates_between_extremes() {
    let f0 = run(PolicyKind::GreenMatch { delay_fraction: 0.0 }, 0.0, 20.0);
    let f50 = run(PolicyKind::GreenMatch { delay_fraction: 0.5 }, 0.0, 20.0);
    let f100 = run(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 0.0, 20.0);
    // More deferral ⇒ no more brown energy (monotone within tolerance).
    assert!(f50.brown_kwh <= f0.brown_kwh * 1.05, "{} vs {}", f50.brown_kwh, f0.brown_kwh);
    assert!(f100.brown_kwh <= f50.brown_kwh * 1.05, "{} vs {}", f100.brown_kwh, f50.brown_kwh);
}

#[test]
fn gear_scaling_actually_moves_power() {
    // Double the batch volume: at the demo default the overnight backlog
    // (~1.3 TB expected) only exceeds one gear's hourly batch capacity
    // (~1.6 TB) on lucky workload draws, making gear-up a coin flip. At 2×
    // the morning green window needs a second gear on every seed tried.
    let mut c = cfg(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 0.0, 20.0, 72);
    c.workload.batch.mean_bytes *= 2.0;
    let gm = Simulation::builder(&c).build().expect("config materialises").run_to_end();
    let min_gear = *gm.gears_series.iter().min().expect("nonempty");
    let max_gear = *gm.gears_series.iter().max().expect("nonempty");
    assert_eq!(min_gear, 1, "nights should drop to one gear");
    assert!(max_gear >= 2, "green windows should raise gears");
    assert!(gm.spinups > 0, "gear cycling spins disks");
}

#[test]
fn carbon_aware_never_emits_more_than_plain() {
    let plain = run(PolicyKind::GreenMatch { delay_fraction: 1.0 }, 0.0, 20.0);
    let carbon = run(PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 }, 0.0, 20.0);
    // Same load must be served either way.
    assert!((plain.load_kwh - carbon.load_kwh).abs() / plain.load_kwh < 0.05);
    // Carbon-aware may not reduce kWh, but must not *increase* emissions
    // beyond noise.
    assert!(
        carbon.carbon_kg <= plain.carbon_kg * 1.05,
        "carbon-aware {:.1} kg vs plain {:.1} kg",
        carbon.carbon_kg,
        plain.carbon_kg
    );
    assert!(carbon.batch.miss_rate() < 0.25);
}

#[test]
fn economics_identities_hold() {
    let r = run(PolicyKind::AllOn, 10_000.0, 20.0);
    // Opex = grid + wear, each non-negative.
    assert!(r.cost_dollars >= 0.0 && r.battery_wear_dollars >= 0.0);
    assert!((r.opex_dollars() - (r.cost_dollars + r.battery_wear_dollars)).abs() < 1e-9);
    // Cycles are consistent with the energy delivered: EFC × usable ≈
    // battery_out (within rounding).
    let usable_kwh = 10.0 * 0.8;
    assert!(
        (r.battery_cycles * usable_kwh - r.battery_out_kwh).abs() < 0.01,
        "cycles {} × usable {} vs out {}",
        r.battery_cycles,
        usable_kwh,
        r.battery_out_kwh
    );
    // No battery ⇒ no wear.
    let dry = run(PolicyKind::AllOn, 0.0, 20.0);
    assert_eq!(dry.battery_wear_dollars, 0.0);
    assert_eq!(dry.battery_cycles, 0.0);
}

#[test]
fn zero_solar_means_all_brown_regardless_of_policy() {
    for policy in [PolicyKind::AllOn, PolicyKind::GreenMatch { delay_fraction: 1.0 }] {
        let r = run(policy, 10_000.0, 0.0);
        assert!((r.brown_kwh - r.load_kwh).abs() < 1e-6, "{}", r.policy);
        assert_eq!(r.green_produced_kwh, 0.0);
    }
}
