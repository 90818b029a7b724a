//! Figure-like experiments (R-Fig1 … R-Fig8).

use super::base::{medium_cfg, medium_cfg_no_battery, thin, DEFAULT_AREA_M2};
use crate::runner::{run_and_archive, ExpContext};
use crate::table::{f1, f3, Table};
use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use gm_energy::wind::WindProfile;
use gm_sim::{RngFactory, SlotClock};
use greenmatch::config::SourceKind;
use greenmatch::policy::PolicyKind;
use greenmatch::report::RunReport;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache for sweeps shared between figure pairs (fig4/fig5, fig6/fig7),
/// keyed by (seed, scale-bits) so `all` does not run them twice.
type SweepCache = Mutex<Option<HashMap<(u64, u64, &'static str), Arc<Vec<(String, RunReport)>>>>>;
static CACHE: SweepCache = Mutex::new(None);

fn cached_sweep(
    ctx: &ExpContext,
    name: &'static str,
    build: impl FnOnce() -> Vec<(String, greenmatch::config::ExperimentConfig)>,
) -> Arc<Vec<(String, RunReport)>> {
    let key = (ctx.seed, ctx.scale.to_bits(), name);
    if let Some(hit) = CACHE.lock().unwrap().get_or_insert_with(HashMap::new).get(&key) {
        return hit.clone();
    }
    let results = Arc::new(run_and_archive(ctx, name, build()));
    CACHE.lock().unwrap().get_or_insert_with(HashMap::new).insert(key, results.clone());
    results
}

/// R-Fig1 — renewable production profiles (solar sunny/cloudy/winter at the
/// default area, wind coastal/gusty at a comparable nameplate) per slot.
pub fn fig1(ctx: &ExpContext) -> String {
    let clock = SlotClock::hourly();
    let slots = 7 * 24;
    let rngs = RngFactory::new(ctx.seed);
    let columns: Vec<(&str, SourceKind)> = vec![
        (
            "solar_sunny_w",
            SourceKind::Solar { area_m2: DEFAULT_AREA_M2, profile: SolarProfile::SunnySummer },
        ),
        (
            "solar_cloudy_w",
            SourceKind::Solar { area_m2: DEFAULT_AREA_M2, profile: SolarProfile::CloudySummer },
        ),
        (
            "solar_winter_w",
            SourceKind::Solar { area_m2: DEFAULT_AREA_M2, profile: SolarProfile::Winter },
        ),
        (
            "wind_coastal_w",
            SourceKind::Wind { rated_w: 15_000.0, profile: WindProfile::SteadyCoastal },
        ),
        (
            "wind_gusty_w",
            SourceKind::Wind { rated_w: 15_000.0, profile: WindProfile::GustyContinental },
        ),
    ];
    let traces: Vec<_> = columns
        .iter()
        .map(|(_, src)| src.try_materialize(clock, slots, &rngs).expect("synthetic source"))
        .collect();

    let mut headers = vec!["slot".to_string(), "hour_of_week".to_string()];
    headers.extend(columns.iter().map(|(n, _)| n.to_string()));
    let mut t = Table::new(headers);
    for s in 0..slots {
        let mut row = vec![s.to_string(), s.to_string()];
        row.extend(traces.iter().map(|tr| f1(tr.get(s))));
        t.row(row);
    }
    ctx.write("fig1_production_profiles.csv", &t.to_csv());

    let weekly: Vec<String> = columns
        .iter()
        .zip(&traces)
        .map(|((n, _), tr)| format!("{n}: {:.1} kWh/week", tr.energy_wh() / 1000.0))
        .collect();
    format!(
        "fig1: wrote {} slots × {} sources. Weekly energy — {}",
        slots,
        columns.len(),
        weekly.join(", ")
    )
}

/// R-Fig2 — cluster draw vs renewable supply timeline for three policies.
pub fn fig2(ctx: &ExpContext) -> String {
    let configs = vec![
        ("esd-only".to_string(), medium_cfg(ctx, PolicyKind::AllOn)),
        ("greedy-green".to_string(), medium_cfg_no_battery(ctx, PolicyKind::GreedyGreen)),
        ("greenmatch".to_string(), medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 })),
    ];
    let results = run_and_archive(ctx, "fig2", configs);

    let mut t = Table::new(vec![
        "policy",
        "slot",
        "green_wh",
        "load_wh",
        "brown_wh",
        "battery_out_wh",
        "curtailed_wh",
        "gears",
    ]);
    for (tag, r) in &results {
        for s in 0..r.slots {
            t.row(vec![
                tag.clone(),
                s.to_string(),
                f1(r.green_series_wh.get(s).copied().unwrap_or(0.0)),
                f1(r.load_series_wh.get(s).copied().unwrap_or(0.0)),
                f1(r.brown_series_wh.get(s).copied().unwrap_or(0.0)),
                f1(r.battery_out_series_wh.get(s).copied().unwrap_or(0.0)),
                f1(r.curtailed_series_wh.get(s).copied().unwrap_or(0.0)),
                r.gears_series.get(s).copied().unwrap_or(0).to_string(),
            ]);
        }
    }
    ctx.write("fig2_timeline.csv", &t.to_csv());

    let summary: Vec<String> =
        results.iter().map(|(tag, r)| format!("{tag} brown {:.1} kWh", r.brown_kwh)).collect();
    format!("fig2: per-slot timeline for 3 policies. {}", summary.join("; "))
}

/// R-Fig3 — brown energy vs solar panel area.
pub fn fig3(ctx: &ExpContext) -> String {
    let areas: Vec<f64> = vec![0.0, 40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 280.0, 320.0, 400.0];
    let areas = thin(&areas, ctx.is_quick());
    // Panel-sizing methodology: the battery variants use an *idealised*
    // oversized ESD (the "assume infinite battery to find the optimal
    // panel dimension" convention), so the area axis alone controls the
    // zero-brown crossing.
    let policies: Vec<(&str, PolicyKind, bool)> = vec![
        ("esd-only", PolicyKind::AllOn, true),
        ("greedy-green", PolicyKind::GreedyGreen, false),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }, false),
        ("greenmatch+esd", PolicyKind::GreenMatch { delay_fraction: 1.0 }, true),
    ];
    let mut configs = Vec::new();
    for &area in &areas {
        for (name, policy, battery) in &policies {
            let mut cfg = medium_cfg_no_battery(ctx, *policy);
            if *battery {
                cfg.sites[0].battery = Some(BatterySpec::ideal(1.0e9));
            }
            cfg.sites[0].source =
                SourceKind::Solar { area_m2: area, profile: SolarProfile::SunnySummer };
            configs.push((format!("{name}@{area:.0}m2"), cfg));
        }
    }
    let results = run_and_archive(ctx, "fig3", configs);

    let mut t = Table::new(vec![
        "policy",
        "area_m2",
        "brown_kwh",
        "brown_warm_kwh",
        "green_utilization",
        "load_kwh",
    ]);
    let mut idx = 0;
    for &area in &areas {
        for (name, _, _) in &policies {
            let (_, r) = &results[idx];
            idx += 1;
            t.row(vec![
                name.to_string(),
                f1(area),
                f3(r.brown_kwh),
                f3(r.brown_series_wh.iter().skip(24).sum::<f64>() / 1000.0),
                f3(r.green_utilization),
                f1(r.load_kwh),
            ]);
        }
    }
    ctx.write("fig3_area_sweep.csv", &t.to_csv());

    // Locate each policy's near-zero-brown area. Day 1 is excluded: the
    // battery starts empty, so the first night's draw is a cold-start
    // artefact independent of panel area.
    let warm_brown = |r: &greenmatch::report::RunReport| -> f64 {
        r.brown_series_wh.iter().skip(24).sum::<f64>() / 1000.0
    };
    let mut crossings = Vec::new();
    for (pi, (name, _, _)) in policies.iter().enumerate() {
        let series: Vec<(f64, f64)> = areas
            .iter()
            .enumerate()
            .map(|(ai, &a)| (a, warm_brown(&results[ai * policies.len() + pi].1)))
            .collect();
        let base = series[0].1.max(1e-9);
        let cross = series.iter().find(|(_, b)| *b < base * 0.02).map(|(a, _)| *a);
        crossings.push(match cross {
            Some(a) => format!("{name} ~zero-brown at {a:.0} m²"),
            None => format!("{name} never reaches zero-brown in range"),
        });
    }
    format!(
        "fig3: swept {} areas × {} policies. {}",
        areas.len(),
        policies.len(),
        crossings.join("; ")
    )
}

/// The fig4/fig5 shared sweep: battery capacity × policy.
fn battery_sweep(ctx: &ExpContext) -> Arc<Vec<(String, RunReport)>> {
    cached_sweep(ctx, "fig4", || {
        let sizes_kwh: Vec<f64> = vec![0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 110.0, 140.0, 160.0];
        let sizes = thin(&sizes_kwh, ctx.is_quick());
        let policies: Vec<(&str, PolicyKind)> = vec![
            ("esd-only", PolicyKind::AllOn),
            ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
            ("greenmatch30", PolicyKind::GreenMatch { delay_fraction: 0.3 }),
        ];
        let mut configs = Vec::new();
        for &kwh in &sizes {
            for (name, policy) in &policies {
                let mut cfg = medium_cfg(ctx, *policy);
                cfg.sites[0].battery = (kwh > 0.0).then(|| BatterySpec::lithium_ion(kwh * 1000.0));
                configs.push((format!("{name}@{kwh:.0}kWh"), cfg));
            }
        }
        configs
    })
}

fn parse_tag(tag: &str) -> (String, f64) {
    let (name, rest) = tag.split_once('@').expect("tag format name@NkWh");
    let kwh: f64 = rest.trim_end_matches("kWh").trim_end_matches("m2").parse().expect("numeric");
    (name.to_string(), kwh)
}

/// R-Fig4 — brown energy vs battery capacity.
pub fn fig4(ctx: &ExpContext) -> String {
    let results = battery_sweep(ctx);
    let mut t = Table::new(vec!["policy", "battery_kwh", "brown_kwh", "battery_out_kwh"]);
    for (tag, r) in results.iter() {
        let (name, kwh) = parse_tag(tag);
        t.row(vec![name, f1(kwh), f3(r.brown_kwh), f3(r.battery_out_kwh)]);
    }
    ctx.write("fig4_battery_sweep.csv", &t.to_csv());

    // Knee: smallest battery within 5% of each policy's best brown figure.
    let mut knees = Vec::new();
    for name in ["esd-only", "greenmatch", "greenmatch30"] {
        let series: Vec<(f64, f64)> = results
            .iter()
            .filter(|(tag, _)| tag.starts_with(name) && parse_tag(tag).0 == name)
            .map(|(tag, r)| (parse_tag(tag).1, r.brown_kwh))
            .collect();
        let best = series.iter().map(|(_, b)| *b).fold(f64::INFINITY, f64::min);
        if let Some((kwh, _)) = series.iter().find(|(_, b)| *b <= best * 1.05 + 0.5) {
            knees.push(format!("{name} knee ≈ {kwh:.0} kWh"));
        }
    }
    format!("fig4: battery sweep done. {}", knees.join("; "))
}

/// R-Fig5 — renewable energy lost (curtailed) vs battery capacity.
pub fn fig5(ctx: &ExpContext) -> String {
    let results = battery_sweep(ctx);
    let mut t = Table::new(vec!["policy", "battery_kwh", "curtailed_kwh", "green_utilization"]);
    for (tag, r) in results.iter() {
        let (name, kwh) = parse_tag(tag);
        t.row(vec![name, f1(kwh), f3(r.curtailed_kwh), f3(r.green_utilization)]);
    }
    ctx.write("fig5_curtailment.csv", &t.to_csv());
    format!("fig5: curtailment series written for {} runs", results.len())
}

/// The fig6/fig7 shared sweep: delay fraction.
fn delay_sweep(ctx: &ExpContext) -> Arc<Vec<(String, RunReport)>> {
    cached_sweep(ctx, "fig6", || {
        let fracs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let fracs = thin(&fracs, ctx.is_quick());
        fracs
            .iter()
            .map(|&f| {
                let cfg = medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: f });
                (format!("delay@{:.0}", f * 100.0), cfg)
            })
            .collect()
    })
}

/// R-Fig6 — loss breakdown (battery efficiency, self-discharge,
/// curtailment, spin-up, reclaim) vs delay fraction.
pub fn fig6(ctx: &ExpContext) -> String {
    let results = delay_sweep(ctx);
    let mut t = Table::new(vec![
        "delay_pct",
        "battery_eff_loss_kwh",
        "battery_selfdisch_kwh",
        "curtailed_kwh",
        "spinup_overhead_kwh",
        "reclaim_overhead_kwh",
        "total_losses_kwh",
        "brown_kwh",
    ]);
    for (tag, r) in results.iter() {
        let pct = tag.trim_start_matches("delay@").to_string();
        t.row(vec![
            pct,
            f3(r.battery_eff_loss_kwh),
            f3(r.battery_selfdisch_kwh),
            f3(r.curtailed_kwh),
            f3(r.spinup_overhead_kwh),
            f3(r.reclaim_overhead_kwh),
            f3(r.total_losses_kwh()),
            f3(r.brown_kwh),
        ]);
    }
    ctx.write("fig6_loss_breakdown.csv", &t.to_csv());
    let best = results
        .iter()
        .min_by(|a, b| a.1.total_losses_kwh().partial_cmp(&b.1.total_losses_kwh()).unwrap())
        .expect("non-empty sweep");
    format!(
        "fig6: loss breakdown over {} fractions; lowest total losses at {}",
        results.len(),
        best.0
    )
}

/// R-Fig7 — deadline miss rate and interactive latency vs delay fraction.
pub fn fig7(ctx: &ExpContext) -> String {
    let results = delay_sweep(ctx);
    let mut t = Table::new(vec![
        "delay_pct",
        "miss_rate",
        "p50_ms",
        "p99_ms",
        "jobs_done",
        "jobs_submitted",
    ]);
    for (tag, r) in results.iter() {
        t.row(vec![
            tag.trim_start_matches("delay@").to_string(),
            f3(r.batch.miss_rate()),
            f3(r.latency.p50_s * 1e3),
            f3(r.latency.p99_s * 1e3),
            r.batch.jobs_completed.to_string(),
            r.batch.jobs_submitted.to_string(),
        ]);
    }
    ctx.write("fig7_deadlines_latency.csv", &t.to_csv());
    let worst = results
        .iter()
        .max_by(|a, b| a.1.batch.miss_rate().partial_cmp(&b.1.batch.miss_rate()).unwrap())
        .expect("non-empty sweep");
    format!(
        "fig7: miss/latency over {} fractions; worst miss rate {:.2}% at {}",
        results.len(),
        worst.1.batch.miss_rate() * 100.0,
        worst.0
    )
}

/// R-Fig8 — gear level and green coverage over time for GreenMatch.
pub fn fig8(ctx: &ExpContext) -> String {
    let configs = vec![(
        "greenmatch".to_string(),
        medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 }),
    )];
    let results = run_and_archive(ctx, "fig8", configs);
    let (_, r) = &results[0];

    let mut t = Table::new(vec!["slot", "gears", "green_wh", "load_wh", "brown_wh", "coverage"]);
    for s in 0..r.slots {
        let load = r.load_series_wh[s].max(1e-9);
        let brown = r.brown_series_wh[s];
        t.row(vec![
            s.to_string(),
            r.gears_series[s].to_string(),
            f1(r.green_series_wh[s]),
            f1(r.load_series_wh[s]),
            f1(brown),
            f3(1.0 - brown / load),
        ]);
    }
    ctx.write("fig8_gears_timeline.csv", &t.to_csv());

    let gear_hours: usize = r.gears_series.iter().sum();
    let max_gear_hours = 3 * r.slots;
    format!(
        "fig8: greenmatch used {}/{} gear-hours ({:.0}%), overall green coverage {:.1}%",
        gear_hours,
        max_gear_hours,
        gear_hours as f64 / max_gear_hours as f64 * 100.0,
        r.green_coverage * 100.0
    )
}
