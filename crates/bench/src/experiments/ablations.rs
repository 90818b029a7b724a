//! Ablations of the design choices DESIGN.md §6 calls out.

use super::base::medium_cfg;
use crate::runner::{run_and_archive, ExpContext};
use crate::table::{f1, f3, Table};
use gm_sim::time::SimDuration;
use gm_sim::SlotClock;
use gm_storage::LayoutKind;
use greenmatch::policy::PolicyKind;

/// Planning-window ablation: GreenMatch with H ∈ {1, 6, 24, 48}. H = 1
/// degenerates to greedy one-slot matching; the gap to H = 24 is the value
/// of lookahead.
pub fn matcher_window(ctx: &ExpContext) -> String {
    let horizons = [1usize, 6, 24, 48];
    // Battery-free AND on a persistence forecast: an adequate ESD bridges
    // whatever the planner misses, and with an oracle *nowcast* the
    // hourly re-planning loop makes window length irrelevant (slot-0
    // decisions depend only on slot-0 information — a structural property
    // this ablation documents). Persistence makes the window consequential:
    // a short window cannot see tomorrow's (predicted) sun at all.
    let configs: Vec<(String, _)> = horizons
        .iter()
        .map(|&h| {
            let mut cfg = super::base::medium_cfg_no_battery(
                ctx,
                PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: h },
            );
            cfg.sites[0].forecast = greenmatch::config::ForecastKind::Persistence;
            (format!("H{h}"), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "ablate-matcher", configs);

    let mut t =
        Table::new(vec!["horizon", "brown_kwh", "curtailed_kwh", "losses_kwh", "miss_rate"]);
    for (tag, r) in &results {
        t.row(vec![
            tag.trim_start_matches('H').to_string(),
            f3(r.brown_kwh),
            f3(r.curtailed_kwh),
            f3(r.total_losses_kwh()),
            f3(r.batch.miss_rate()),
        ]);
    }
    ctx.write("ablate_matcher_window.csv", &t.to_csv());
    let h1 = results[0].1.brown_kwh;
    let h24 = results[2].1.brown_kwh;
    format!("ablate-matcher: brown H1 {h1:.1} vs H24 {h24:.1} kWh (lookahead value)")
}

/// Layout ablation: the gear layout vs random / chained / copyset under
/// the same GreenMatch policy. Non-gear layouts orphan reads when gears
/// power down, forcing availability spin-ups and latency stalls.
pub fn layout(ctx: &ExpContext) -> String {
    let layouts = [
        ("gear", LayoutKind::Gear),
        ("random", LayoutKind::Random),
        ("chained", LayoutKind::Chained),
        ("copyset", LayoutKind::Copyset),
    ];
    let configs: Vec<(String, _)> = layouts
        .iter()
        .map(|(name, kind)| {
            let mut cfg = medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 });
            cfg.sites[0].cluster.layout = *kind;
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "ablate-layout", configs);

    let mut t = Table::new(vec![
        "layout",
        "brown_kwh",
        "p99_ms",
        "max_latency_s",
        "forced_spinups",
        "spinups",
    ]);
    for (tag, r) in &results {
        t.row(vec![
            tag.clone(),
            f3(r.brown_kwh),
            f1(r.latency.p99_s * 1e3),
            f1(r.latency.max_s),
            r.forced_spinups.to_string(),
            r.spinups.to_string(),
        ]);
    }
    ctx.write("ablate_layout.csv", &t.to_csv());
    let gear_forced = results[0].1.forced_spinups;
    let rand_forced = results[1].1.forced_spinups;
    format!("ablate-layout: forced spin-ups gear {gear_forced} vs random {rand_forced}")
}

/// Failure-injection study: the policies under an (accelerated) disk
/// failure process. Renewable-aware scheduling treats rebuild as
/// deferrable work, but gear cycling adds start-stop wear, so aggressive
/// power-gating buys its energy savings with extra failures — the
/// reliability face of the energy trade-off.
pub fn failures(ctx: &ExpContext) -> String {
    // AFR accelerated ×50 so a one-week horizon produces a usable signal;
    // the *comparison* across policies is what matters.
    let fail_spec =
        gm_storage::FailureSpec { afr: 1.5, standby_factor: 0.5, spinup_wear_hours: 10.0 };
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("esd-only", PolicyKind::AllOn),
        ("power-prop", PolicyKind::PowerProportional),
        ("greedy-green", PolicyKind::GreedyGreen),
        ("greenmatch", PolicyKind::GreenMatch { delay_fraction: 1.0 }),
    ];
    let configs: Vec<(String, _)> = policies
        .iter()
        .map(|(name, policy)| {
            let mut cfg = medium_cfg(ctx, *policy);
            cfg.failures = Some(fail_spec);
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "ablate-failures", configs);

    let mut t = Table::new(vec![
        "policy",
        "brown_kwh",
        "failures",
        "repairs_done",
        "lost_objects",
        "degraded_reads",
        "rebuild_tb",
        "spinups",
    ]);
    for (tag, r) in &results {
        t.row(vec![
            tag.clone(),
            f3(r.brown_kwh),
            r.failures.to_string(),
            r.repairs_completed.to_string(),
            r.lost_objects.to_string(),
            r.degraded_reads.to_string(),
            format!("{:.2}", r.rebuild_bytes as f64 / 1e12),
            r.spinups.to_string(),
        ]);
    }
    ctx.write("ablate_failures.csv", &t.to_csv());
    let allon = results[0].1.failures;
    let gm = results[3].1.failures;
    format!(
        "ablate-failures: esd-only {} failures vs greenmatch {} (cycling wear), losses {} vs {}",
        allon, gm, results[0].1.lost_objects, results[3].1.lost_objects
    )
}

/// Battery discharge-timing ablation (Eager vs PeakOnly vs Reserve) under
/// the ESD-only policy, where the battery does all the matching: timing
/// changes *when* brown is drawn, so cost and carbon move even where total
/// brown energy barely does.
pub fn discharge(ctx: &ExpContext) -> String {
    use greenmatch::config::DischargeStrategy;
    let strategies: Vec<(&str, DischargeStrategy)> = vec![
        ("eager", DischargeStrategy::Eager),
        ("peak-only", DischargeStrategy::PeakOnly),
        ("reserve25", DischargeStrategy::Reserve(0.25)),
        ("reserve50", DischargeStrategy::Reserve(0.50)),
    ];
    let configs: Vec<(String, _)> = strategies
        .iter()
        .map(|(name, strat)| {
            let mut cfg = medium_cfg(ctx, PolicyKind::AllOn);
            cfg.discharge = *strat;
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "ablate-discharge", configs);

    let mut t = Table::new(vec![
        "strategy",
        "brown_kwh",
        "battery_out_kwh",
        "grid_usd",
        "carbon_kg",
        "battery_cycles",
    ]);
    for (tag, r) in &results {
        t.row(vec![
            tag.clone(),
            f3(r.brown_kwh),
            f3(r.battery_out_kwh),
            format!("{:.2}", r.cost_dollars),
            f1(r.carbon_kg),
            format!("{:.2}", r.battery_cycles),
        ]);
    }
    ctx.write("ablate_discharge.csv", &t.to_csv());
    format!(
        "ablate-discharge: grid cost eager ${:.2} vs peak-only ${:.2}; carbon {:.1} vs {:.1} kg",
        results[0].1.cost_dollars,
        results[1].1.cost_dollars,
        results[0].1.carbon_kg,
        results[1].1.carbon_kg
    )
}

/// Read-cache ablation: RAM absorbing hot reads changes both the latency
/// picture (hits bypass media and spin-up stalls) and, mildly, the energy
/// picture (fewer disk busy-seconds).
pub fn cache(ctx: &ExpContext) -> String {
    let sizes: Vec<(&str, u64)> =
        vec![("none", 0), ("32GiB", 32 << 30), ("128GiB", 128 << 30), ("512GiB", 512 << 30)];
    let configs: Vec<(String, _)> = sizes
        .iter()
        .map(|(name, bytes)| {
            let mut cfg = medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 });
            cfg.sites[0].cluster.cache_bytes = *bytes;
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "ablate-cache", configs);

    let mut t = Table::new(vec!["cache", "hit_ratio", "p50_ms", "p99_ms", "brown_kwh", "load_kwh"]);
    for (tag, r) in &results {
        t.row(vec![
            tag.clone(),
            f3(r.cache_hit_ratio),
            f3(r.latency.p50_s * 1e3),
            f3(r.latency.p99_s * 1e3),
            f3(r.brown_kwh),
            f1(r.load_kwh),
        ]);
    }
    ctx.write("ablate_cache.csv", &t.to_csv());
    format!(
        "ablate-cache: hit ratio none {:.2} → 512GiB {:.2}; p50 {:.1} → {:.1} ms",
        results[0].1.cache_hit_ratio,
        results[3].1.cache_hit_ratio,
        results[0].1.latency.p50_s * 1e3,
        results[3].1.latency.p50_s * 1e3
    )
}

/// Slot-length ablation: 15 min vs 1 h vs 4 h decision granularity over the
/// same 7-day horizon.
pub fn slot_length(ctx: &ExpContext) -> String {
    let widths: [(&str, SimDuration); 3] = [
        ("15min", SimDuration::from_mins(15)),
        ("1h", SimDuration::from_hours(1)),
        ("4h", SimDuration::from_hours(4)),
    ];
    let configs: Vec<(String, _)> = widths
        .iter()
        .map(|(name, w)| {
            let mut cfg = medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 });
            cfg.clock = SlotClock::new(*w);
            cfg.slots = (SimDuration::from_days(7).0 / w.0) as usize;
            (name.to_string(), cfg)
        })
        .collect();
    let results = run_and_archive(ctx, "ablate-slot", configs);

    let mut t =
        Table::new(vec!["slot", "slots", "brown_kwh", "curtailed_kwh", "miss_rate", "spinups"]);
    for (tag, r) in &results {
        t.row(vec![
            tag.clone(),
            r.slots.to_string(),
            f3(r.brown_kwh),
            f3(r.curtailed_kwh),
            f3(r.batch.miss_rate()),
            r.spinups.to_string(),
        ]);
    }
    ctx.write("ablate_slot_length.csv", &t.to_csv());
    format!(
        "ablate-slot: brown 15min {:.1} / 1h {:.1} / 4h {:.1} kWh",
        results[0].1.brown_kwh, results[1].1.brown_kwh, results[2].1.brown_kwh
    )
}
