//! Geo-distribution experiment: one big site vs three longitude-offset
//! sites at equal total capacity.
//!
//! The single-site configuration concentrates 36 servers and the whole PV
//! field at one location; the three-site configurations split the same
//! hardware into 12-server sites whose solar fields peak 8 hours apart
//! (offset longitudes), optionally replacing the third solar field with a
//! wind-heavy site. The WAN sweep prices cross-site placement from free to
//! ruinous, bracketing when follow-the-sun scheduling pays.

use super::base::thin;
use crate::runner::{run_and_archive, ExpContext};
use crate::table::{f1, f3, Table};
use gm_energy::solar::SolarProfile;
use gm_energy::wind::WindProfile;
use gm_storage::{ClusterSpec, Topology};
use gm_workload::trace::WorkloadSpec;
use greenmatch::config::{ExperimentConfig, ForecastKind, SiteConfig, SourceKind};
use greenmatch::policy::PolicyKind;

/// Total PV area (m²) across all sites. Deliberately scarce relative to
/// batch demand: with abundant green the single site absorbs every job in
/// its own daylight surplus and geo-distribution has nothing to move, so
/// the experiment probes the regime where green hours are the bottleneck.
pub const GEO_AREA_M2: f64 = 30.0;
/// Rated power (W) of the wind-heavy site, sized at rating parity with the
/// 10 m² solar field it replaces (25 kW ↔ 120 m² in R-Table3).
pub const GEO_WIND_RATED_W: f64 = 2_083.0;

/// A geo cluster: `servers` × 4 bays, 3 gears, medium-DC components and
/// object population (the object count is identical across topologies so
/// the interactive workload is, too).
fn geo_cluster(servers: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::medium_dc();
    spec.topology = Topology::new(servers, 4, 3);
    spec
}

/// A solar site holding one `share` of the total PV area, `offset_hours`
/// time zones west of the home site.
fn solar_site(name: &str, servers: usize, area_m2: f64, offset_hours: i64) -> SiteConfig {
    SiteConfig {
        name: name.to_string(),
        cluster: geo_cluster(servers),
        source: SourceKind::Solar { area_m2, profile: SolarProfile::SunnySummer },
        forecast: ForecastKind::Oracle,
        battery: None,
        utc_offset_hours: offset_hours,
    }
}

/// The base experiment config shared by every geo topology (no battery:
/// the point is time-shifting work, not energy).
fn geo_base(ctx: &ExpContext, policy: PolicyKind, cluster: ClusterSpec) -> ExperimentConfig {
    let workload = WorkloadSpec::medium_week(cluster.objects).scaled(ctx.scale);
    let mut cfg = ExperimentConfig::medium(ctx.seed);
    cfg.sites[0].cluster = cluster;
    cfg.workload = workload;
    cfg.sites[0].battery = None;
    cfg.policy = policy;
    cfg
}

/// One 36-server site with the whole PV field.
pub fn one_site_cfg(ctx: &ExpContext, policy: PolicyKind) -> ExperimentConfig {
    geo_base(ctx, policy, geo_cluster(36))
        .with_source(SourceKind::Solar { area_m2: GEO_AREA_M2, profile: SolarProfile::SunnySummer })
}

/// Three 12-server sites with the PV field split three ways and the solar
/// peaks offset 0 / +8 / +16 hours.
pub fn three_site_solar_cfg(
    ctx: &ExpContext,
    policy: PolicyKind,
    wan_cost_per_unit: i64,
) -> ExperimentConfig {
    let share = GEO_AREA_M2 / 3.0;
    let sites = vec![
        solar_site("west", 12, share, 0),
        solar_site("mid", 12, share, 8),
        solar_site("east", 12, share, 16),
    ];
    geo_base(ctx, policy, geo_cluster(12)).with_sites(sites).with_wan_cost(wan_cost_per_unit)
}

/// Like [`three_site_solar_cfg`], but the third site is wind-heavy: its
/// supply blows day and night instead of peaking 16 hours east.
pub fn three_site_wind_cfg(
    ctx: &ExpContext,
    policy: PolicyKind,
    wan_cost_per_unit: i64,
) -> ExperimentConfig {
    let share = GEO_AREA_M2 / 3.0;
    let mut windy = solar_site("windy", 12, share, 0);
    windy.source =
        SourceKind::Wind { rated_w: GEO_WIND_RATED_W, profile: WindProfile::SteadyCoastal };
    let sites = vec![solar_site("west", 12, share, 0), solar_site("mid", 12, share, 8), windy];
    geo_base(ctx, policy, geo_cluster(12)).with_sites(sites).with_wan_cost(wan_cost_per_unit)
}

/// The `geo` experiment: brown energy for one concentrated site vs three
/// offset sites, across WAN transfer costs and both site mixes.
pub fn geo(ctx: &ExpContext) -> String {
    let gm = PolicyKind::GreenMatch { delay_fraction: 1.0 };
    let wan_costs: Vec<i64> = thin(&[0i64, 200, 2_000], ctx.is_quick());

    let mut configs = Vec::new();
    configs.push(("1site/esd-only/wan0".to_string(), one_site_cfg(ctx, PolicyKind::AllOn)));
    configs.push(("1site/greenmatch/wan0".to_string(), one_site_cfg(ctx, gm)));
    for &wan in &wan_costs {
        configs
            .push((format!("3site-solar/greenmatch/wan{wan}"), three_site_solar_cfg(ctx, gm, wan)));
        configs
            .push((format!("3site-wind/greenmatch/wan{wan}"), three_site_wind_cfg(ctx, gm, wan)));
    }
    let results = run_and_archive(ctx, "geo", configs);

    let mut t = Table::new(vec![
        "topology",
        "policy",
        "wan_cost",
        "brown_kwh",
        "green_kwh",
        "green_util",
        "remote_exec_gib",
        "miss_rate",
    ]);
    let mut csv = String::from(
        "topology,policy,wan_cost,brown_kwh,green_produced_kwh,green_utilization,remote_exec_gib,miss_rate\n",
    );
    for (tag, r) in &results {
        let mut parts = tag.split('/');
        let (topo, policy, wan) = (
            parts.next().expect("topology"),
            parts.next().expect("policy"),
            parts.next().expect("wan").trim_start_matches("wan"),
        );
        let remote_gib =
            r.sites.iter().filter(|s| s.site > 0).map(|s| s.executed_batch_bytes).sum::<u64>()
                as f64
                / (1u64 << 30) as f64;
        t.row(vec![
            topo.to_string(),
            policy.to_string(),
            wan.to_string(),
            f1(r.brown_kwh),
            f1(r.green_produced_kwh),
            f3(r.green_utilization),
            f1(remote_gib),
            f3(r.batch.miss_rate()),
        ]);
        csv.push_str(&format!(
            "{topo},{policy},{wan},{:.3},{:.3},{:.4},{:.1},{:.4}\n",
            r.brown_kwh,
            r.green_produced_kwh,
            r.green_utilization,
            remote_gib,
            r.batch.miss_rate()
        ));
    }
    ctx.write("geo_sites.md", &t.to_markdown());
    ctx.write("geo_sites.csv", &csv);

    let b1 = results.iter().find(|(t, _)| t == "1site/greenmatch/wan0").expect("1site run");
    let b3 =
        results.iter().find(|(t, _)| t == "3site-solar/greenmatch/wan0").expect("3site solar run");
    format!(
        "Geo distribution: one 36-server site draws {:.1} kWh brown under GreenMatch; \
         splitting into three 12-server sites with solar peaks 8 h apart draws {:.1} kWh \
         at zero WAN cost (follow-the-sun matching ships deferred work to whichever site \
         is in daylight). Raising the per-unit WAN cost prices remote green against home \
         brown and the advantage tapers; the wind-heavy mix trades the 16 h offset for \
         night-time supply. Full sweep in geo_sites.csv.",
        b1.1.brown_kwh, b3.1.brown_kwh
    )
}
