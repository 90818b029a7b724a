//! Property-based conservation checks over randomised configurations.
//!
//! Whatever the policy, battery, source or seed, the energy bookkeeping
//! identities must hold and every reported ratio must stay in range. Runs
//! are kept tiny (24 slots, scaled workload) so proptest can afford many
//! cases.

use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use gm_energy::wind::WindProfile;
use gm_workload::trace::WorkloadSpec;
use greenmatch::config::{ExperimentConfig, ForecastKind, SourceKind};
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::AllOn),
        Just(PolicyKind::PowerProportional),
        Just(PolicyKind::Edf),
        Just(PolicyKind::GreedyGreen),
        (0.0f64..=1.0).prop_map(|f| PolicyKind::GreenMatch { delay_fraction: f }),
    ]
}

fn source_strategy() -> impl Strategy<Value = SourceKind> {
    prop_oneof![
        Just(SourceKind::None),
        (0.0f64..60.0)
            .prop_map(|a| SourceKind::Solar { area_m2: a, profile: SolarProfile::SunnySummer }),
        (0.0f64..60.0)
            .prop_map(|a| SourceKind::Solar { area_m2: a, profile: SolarProfile::CloudySummer }),
        (1_000.0f64..20_000.0)
            .prop_map(|w| SourceKind::Wind { rated_w: w, profile: WindProfile::GustyContinental }),
    ]
}

fn tiny_cfg(
    seed: u64,
    policy: PolicyKind,
    source: SourceKind,
    battery_wh: f64,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_demo(seed);
    cfg.workload = WorkloadSpec::small_week(cfg.sites[0].cluster.objects).scaled(0.3);
    cfg.slots = 24;
    cfg.policy = policy;
    cfg.sites[0].source = source;
    cfg.sites[0].battery = (battery_wh > 0.0).then(|| BatterySpec::lithium_ion(battery_wh));
    cfg.sites[0].forecast = ForecastKind::Oracle;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn energy_identities_hold_for_random_configs(
        seed in 0u64..1_000,
        policy in policy_strategy(),
        source in source_strategy(),
        battery_wh in prop_oneof![Just(0.0), 100.0f64..20_000.0],
    ) {
        let r = Simulation::builder(&tiny_cfg(seed, policy, source.clone(), battery_wh)).build().expect("config materialises").run_to_end();

        // Supply identity: load is fully attributed.
        let served = r.green_direct_kwh + r.battery_out_kwh + r.brown_kwh;
        prop_assert!((served - r.load_kwh).abs() < 1e-6,
            "supply identity: {} vs load {}", served, r.load_kwh);

        // Production identity: green direct + battery input + curtailed =
        // produced. Battery input = out + losses + what's still stored, so
        // produced ≥ direct + out + eff-loss + curtailed (within ε).
        let accounted = r.green_direct_kwh + r.battery_out_kwh + r.battery_eff_loss_kwh
            + r.curtailed_kwh;
        prop_assert!(r.green_produced_kwh + 1e-6 >= accounted,
            "production overdrawn: produced {} < accounted {}", r.green_produced_kwh, accounted);

        // Ratios and counters stay in range.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.green_utilization));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.green_coverage));
        prop_assert!(r.brown_kwh >= -1e-9);
        prop_assert!(r.curtailed_kwh >= -1e-9);
        prop_assert!(r.battery_eff_loss_kwh >= -1e-9);
        prop_assert!(r.load_kwh > 0.0, "a cluster always burns something");
        prop_assert!(r.forced_spinups <= r.spinups);

        // Gear levels stay within the physical range.
        prop_assert!(r.gears_series.iter().all(|&g| (1..=3).contains(&g)));

        // No battery configured ⇒ no battery flows.
        if battery_wh == 0.0 {
            prop_assert_eq!(r.battery_out_kwh, 0.0);
            prop_assert_eq!(r.battery_eff_loss_kwh, 0.0);
        }
        // No source ⇒ everything brown.
        if matches!(source, SourceKind::None) {
            prop_assert!((r.brown_kwh - r.load_kwh).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_accounting_is_consistent(
        seed in 0u64..500,
        policy in policy_strategy(),
    ) {
        let r = Simulation::builder(&tiny_cfg(seed, policy,
            SourceKind::Solar { area_m2: 20.0, profile: SolarProfile::SunnySummer }, 5_000.0)).build().expect("config materialises").run_to_end();
        prop_assert!(r.batch.jobs_completed <= r.batch.jobs_submitted);
        prop_assert!(r.batch.deadline_misses <= r.batch.jobs_completed);
        prop_assert!(r.batch.bytes_completed <= r.batch.bytes_submitted);
        prop_assert!((0.0..=1.0).contains(&r.batch.miss_rate()));
    }
}
