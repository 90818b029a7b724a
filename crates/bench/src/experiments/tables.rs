//! Table-like experiments (R-Table1 … R-Table4).

use super::base::{medium_cfg, medium_cfg_no_battery, DEFAULT_AREA_M2};
use crate::runner::{run_and_archive, ExpContext};
use crate::table::{f1, f3, pct, Table};
use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use gm_energy::wind::WindProfile;
use gm_storage::{ClusterSpec, DiskSpec, ServerSpec};
use greenmatch::config::{ForecastKind, SourceKind};
use greenmatch::policy::PolicyKind;

/// R-Table1 — model parameters (no simulation; a provenance table).
pub fn table1(ctx: &ExpContext) -> String {
    let disk = DiskSpec::enterprise_sata();
    let server = ServerSpec::storage_node();
    let cluster = ClusterSpec::medium_dc();
    let la = BatterySpec::lead_acid(90_000.0);
    let li = BatterySpec::lithium_ion(90_000.0);

    let mut t = Table::new(vec!["parameter", "value", "unit"]);
    t.row(vec![
        "servers × disk bays".into(),
        format!("{} × {}", cluster.topology.servers, cluster.topology.bays),
        "".into(),
    ]);
    t.row(vec![
        "replication / gears".into(),
        format!("{} / {}", cluster.replication, cluster.topology.gears),
        "".into(),
    ]);
    t.row(vec![
        "disk active / idle / standby".into(),
        format!("{} / {} / {}", disk.active_w, disk.idle_w, disk.standby_w),
        "W".into(),
    ]);
    t.row(vec![
        "disk spin-up".into(),
        format!("{} s + {} J", disk.spinup_latency.as_secs_f64(), disk.spinup_extra_j),
        "".into(),
    ]);
    t.row(vec!["disk transfer".into(), f1(disk.transfer_bps / 1e6), "MB/s".into()]);
    t.row(vec![
        "server peak / idle / off".into(),
        format!("{} / {} / {}", server.peak_w, server.idle_w, server.off_w),
        "W".into(),
    ]);
    t.row(vec![
        "LA DoD / σ / charge-rate".into(),
        format!("{} / {} / {}%", la.dod, la.efficiency, la.charge_rate_per_hour * 100.0),
        "".into(),
    ]);
    t.row(vec![
        "LI DoD / σ / charge-rate".into(),
        format!("{} / {} / {}%", li.dod, li.efficiency, li.charge_rate_per_hour * 100.0),
        "".into(),
    ]);
    t.row(vec![
        "LA / LI self-discharge".into(),
        format!("{}% / {}%", la.self_discharge_per_day * 100.0, li.self_discharge_per_day * 100.0),
        "per day".into(),
    ]);
    t.row(vec![
        "LA / LI price".into(),
        format!("{} / {}", la.price_per_kwh, li.price_per_kwh),
        "$/kWh".into(),
    ]);
    t.row(vec![
        "LA / LI 90 kWh volume".into(),
        format!("{:.0} / {:.0}", la.volume_litres(), li.volume_litres()),
        "L".into(),
    ]);
    t.row(vec![
        "PV default area / efficiency".into(),
        format!("{DEFAULT_AREA_M2} / 0.174"),
        "m² / –".into(),
    ]);
    t.row(vec!["slot width / horizon".to_string(), "1 h / 168 slots".to_string(), String::new()]);

    ctx.write("table1_parameters.md", &t.to_markdown());
    ctx.write("table1_parameters.csv", &t.to_csv());
    format!("table1: {} parameter rows written", t.len())
}

/// The six headline policies of R-Table2.
fn headline_policies() -> Vec<(&'static str, PolicyKind, bool)> {
    vec![
        ("all-on (no ESD)", PolicyKind::AllOn, false),
        ("esd-only", PolicyKind::AllOn, true),
        ("power-prop", PolicyKind::PowerProportional, false),
        ("greedy-green", PolicyKind::GreedyGreen, false),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }, true),
        ("greenmatch30", PolicyKind::GreenMatch { delay_fraction: 0.3 }, true),
    ]
}

/// R-Table2 — policy summary on the default configuration.
pub fn table2(ctx: &ExpContext) -> String {
    let configs: Vec<(String, _)> = headline_policies()
        .into_iter()
        .map(|(name, policy, battery)| {
            let cfg =
                if battery { medium_cfg(ctx, policy) } else { medium_cfg_no_battery(ctx, policy) };
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "table2", configs);

    let mut t = Table::new(vec![
        "policy",
        "brown_kwh",
        "load_kwh",
        "green_util",
        "coverage",
        "curtailed_kwh",
        "losses_kwh",
        "miss_rate",
        "p99_ms",
        "spinups",
        "carbon_kg",
        "cost_usd",
    ]);
    for (name, r) in &results {
        t.row(vec![
            name.clone(),
            f1(r.brown_kwh),
            f1(r.load_kwh),
            pct(r.green_utilization),
            pct(r.green_coverage),
            f1(r.curtailed_kwh),
            f1(r.total_losses_kwh()),
            pct(r.batch.miss_rate()),
            f1(r.latency.p99_s * 1e3),
            r.spinups.to_string(),
            f1(r.carbon_kg),
            f1(r.cost_dollars),
        ]);
    }
    ctx.write("table2_policy_summary.md", &t.to_markdown());
    ctx.write("table2_policy_summary.csv", &t.to_csv());

    let esd = results.iter().find(|(n, _)| n == "esd-only").expect("esd-only present").1.brown_kwh;
    let gm =
        results.iter().find(|(n, _)| n == "greenmatch").expect("greenmatch present").1.brown_kwh;
    let saving = if esd > 0.0 { (1.0 - gm / esd) * 100.0 } else { 0.0 };
    format!("table2: 6 policies; greenmatch saves {saving:.0}% brown energy vs esd-only")
}

/// R-Table3 — sensitivity to the renewable source.
pub fn table3(ctx: &ExpContext) -> String {
    let sources: Vec<(&str, SourceKind)> = vec![
        (
            "solar",
            SourceKind::Solar { area_m2: DEFAULT_AREA_M2, profile: SolarProfile::SunnySummer },
        ),
        ("wind", SourceKind::Wind { rated_w: 25_000.0, profile: WindProfile::SteadyCoastal }),
        (
            "mixed",
            SourceKind::Mixed {
                area_m2: DEFAULT_AREA_M2 / 2.0,
                solar_profile: SolarProfile::SunnySummer,
                rated_w: 12_500.0,
                wind_profile: WindProfile::SteadyCoastal,
            },
        ),
    ];
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("esd-only", PolicyKind::AllOn),
        ("greedy-green", PolicyKind::GreedyGreen),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
    ];
    let mut configs = Vec::new();
    for (sname, source) in &sources {
        for (pname, policy) in &policies {
            let mut cfg = medium_cfg(ctx, *policy);
            cfg.sites[0].source = source.clone();
            configs.push((format!("{sname}/{pname}"), cfg));
        }
    }
    let results = run_and_archive(ctx, "table3", configs);

    let mut t =
        Table::new(vec!["source", "policy", "green_kwh", "brown_kwh", "green_util", "miss_rate"]);
    for (tag, r) in &results {
        let (s, p) = tag.split_once('/').expect("source/policy tag");
        t.row(vec![
            s.to_string(),
            p.to_string(),
            f1(r.green_produced_kwh),
            f1(r.brown_kwh),
            f3(r.green_utilization),
            f3(r.batch.miss_rate()),
        ]);
    }
    ctx.write("table3_sources.md", &t.to_markdown());
    ctx.write("table3_sources.csv", &t.to_csv());
    format!("table3: {} source × policy cells", results.len())
}

/// R-Table4 — sensitivity to forecast quality (GreenMatch only; the
/// baselines do not consult forecasts beyond the current slot).
pub fn table4(ctx: &ExpContext) -> String {
    let kinds: Vec<(&str, ForecastKind)> = vec![
        ("oracle", ForecastKind::Oracle),
        ("persistence", ForecastKind::Persistence),
        ("ewma", ForecastKind::Ewma { alpha: 0.5 }),
        ("noisy30", ForecastKind::Noisy { cv: 0.3 }),
    ];
    // No battery here: with an adequate ESD the current-slot ground truth
    // (the era's accurate next-hour prediction) fully determines behaviour
    // and the forecasters are indistinguishable — the sensitivity exists
    // only when deferral must aim at *future* windows unaided.
    let configs: Vec<(String, _)> = kinds
        .iter()
        .map(|(name, kind)| {
            let mut cfg =
                medium_cfg_no_battery(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 });
            cfg.sites[0].forecast = *kind;
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "table4", configs);

    let mut t =
        Table::new(vec!["forecast", "brown_kwh", "green_util", "curtailed_kwh", "miss_rate"]);
    for (name, r) in &results {
        t.row(vec![
            name.clone(),
            f3(r.brown_kwh),
            f3(r.green_utilization),
            f3(r.curtailed_kwh),
            f3(r.batch.miss_rate()),
        ]);
    }
    ctx.write("table4_forecasts.md", &t.to_markdown());
    ctx.write("table4_forecasts.csv", &t.to_csv());

    let oracle = results[0].1.brown_kwh;
    let worst = results.iter().map(|(_, r)| r.brown_kwh).fold(f64::NEG_INFINITY, f64::max);
    format!("table4: oracle brown {oracle:.1} kWh; worst forecaster {worst:.1} kWh")
}

/// R-Table5 — weekly operating economics: grid cost + battery wear per
/// policy × ESD sizing. The economic argument for opportunistic
/// scheduling: fewer stored kWh means both a smaller pack *and* slower
/// cycling wear on whatever pack is installed.
pub fn table5(ctx: &ExpContext) -> String {
    let batteries: Vec<(&str, f64)> =
        vec![("none", 0.0), ("40kWh", 40_000.0), ("110kWh", 110_000.0)];
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("esd-only", PolicyKind::AllOn),
        ("greedy-green", PolicyKind::GreedyGreen),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
        ("greenmatch30", PolicyKind::GreenMatch { delay_fraction: 0.3 }),
    ];
    let mut configs = Vec::new();
    for (bname, wh) in &batteries {
        for (pname, policy) in &policies {
            let mut cfg = medium_cfg(ctx, *policy);
            cfg.sites[0].battery = (*wh > 0.0).then(|| BatterySpec::lithium_ion(*wh));
            configs.push((format!("{bname}/{pname}"), cfg));
        }
    }
    let results = run_and_archive(ctx, "table5", configs);

    let mut t = Table::new(vec![
        "battery",
        "policy",
        "grid_usd_week",
        "battery_cycles",
        "wear_usd_week",
        "opex_usd_week",
        "brown_kwh",
    ]);
    for (tag, r) in &results {
        let (b, p) = tag.split_once('/').expect("battery/policy tag");
        t.row(vec![
            b.to_string(),
            p.to_string(),
            format!("{:.2}", r.cost_dollars),
            format!("{:.2}", r.battery_cycles),
            format!("{:.2}", r.battery_wear_dollars),
            format!("{:.2}", r.opex_dollars()),
            f1(r.brown_kwh),
        ]);
    }
    ctx.write("table5_economics.md", &t.to_markdown());
    ctx.write("table5_economics.csv", &t.to_csv());

    let best = results
        .iter()
        .min_by(|a, b| a.1.opex_dollars().partial_cmp(&b.1.opex_dollars()).expect("finite"))
        .expect("non-empty");
    format!("table5: lowest weekly opex {} at ${:.2}", best.0, best.1.opex_dollars())
}

/// R-Table6 — carbon-aware brown pricing: does steering unavoidable grid
/// draw into the grid's cleanest hours reduce emissions at equal energy?
/// Battery-free, undersized PV, so a meaningful amount of brown work must
/// be placed somewhere.
pub fn table6(ctx: &ExpContext) -> String {
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("esd-only", PolicyKind::AllOn),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
        ("greenmatch-carbon", PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 }),
    ];
    let configs: Vec<(String, _)> = policies
        .iter()
        .map(|(name, policy)| {
            let mut cfg = medium_cfg_no_battery(ctx, *policy);
            cfg.sites[0].source =
                SourceKind::Solar { area_m2: 60.0, profile: SolarProfile::CloudySummer };
            // Carbon steering needs room: with the default 12 h windows,
            // deadline-driven timing leaves no freedom across the diurnal
            // carbon cycle; 36 h windows let work choose between the
            // evening peak and the clean small hours.
            cfg.workload.batch.deadline_window = gm_sim::SimDuration::from_hours(36);
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "table6", configs);

    let mut t = Table::new(vec![
        "policy",
        "brown_kwh",
        "carbon_kg",
        "g_per_brown_kwh",
        "grid_usd",
        "miss_rate",
    ]);
    for (name, r) in &results {
        let intensity = if r.brown_kwh > 0.0 { r.carbon_kg * 1000.0 / r.brown_kwh } else { 0.0 };
        t.row(vec![
            name.clone(),
            f1(r.brown_kwh),
            f1(r.carbon_kg),
            f1(intensity),
            format!("{:.2}", r.cost_dollars),
            f3(r.batch.miss_rate()),
        ]);
    }
    ctx.write("table6_carbon.md", &t.to_markdown());
    ctx.write("table6_carbon.csv", &t.to_csv());

    let gm = &results[1].1;
    let ca = &results[2].1;
    let gm_int = gm.carbon_kg * 1000.0 / gm.brown_kwh.max(1e-9);
    let ca_int = ca.carbon_kg * 1000.0 / ca.brown_kwh.max(1e-9);
    format!(
        "table6: effective intensity {:.0} g/kWh (greenmatch) vs {:.0} g/kWh (carbon-aware)",
        gm_int, ca_int
    )
}
