//! Executable shape checks.
//!
//! EXPERIMENTS.md claims the reconstruction reproduces the *shapes* of the
//! paper family's results — monotonicities, orderings, knees. This module
//! turns each claim into a pass/fail check over a reduced sweep, so
//! "does the reproduction still reproduce?" is one command
//! (`cargo run -p gm-bench --release --bin validate`) instead of a manual
//! CSV inspection.

use crate::experiments::base::{medium_cfg, medium_cfg_no_battery};
use crate::experiments::geo;
use crate::runner::{run_tagged, ExpContext};
use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use gm_storage::LayoutKind;
use greenmatch::config::SourceKind;
use greenmatch::policy::PolicyKind;
use greenmatch::report::RunReport;

/// Outcome of one shape check.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Claim identifier (matches EXPERIMENTS.md).
    pub name: &'static str,
    /// Whether the claim held.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

fn check(name: &'static str, pass: bool, detail: String) -> ShapeCheck {
    ShapeCheck { name, pass, detail }
}

fn brown(results: &[(String, RunReport)], tag: &str) -> f64 {
    results
        .iter()
        .find(|(t, _)| t == tag)
        .unwrap_or_else(|| panic!("missing run {tag}"))
        .1
        .brown_kwh
}

/// The DESIGN.md §1.8 tiering claim as a standalone check: demoting cold
/// objects to erasure coding must pay off in at least one currency —
/// brown energy or raw capacity — at equal served demand, with its
/// migration traffic actually happening (the matcher defers it into
/// renewable-powered slots; the green share is reported as evidence).
/// Run by [`run_all`] and by `validate --check tiering` as a CI smoke.
pub fn tiering_check(ctx: &ExpContext) -> ShapeCheck {
    let gm = PolicyKind::GreenMatch { delay_fraction: 1.0 };
    let results = run_tagged(vec![
        ("tier-off".to_string(), medium_cfg(ctx, gm)),
        (
            "tier-on".to_string(),
            medium_cfg(ctx, gm).with_tiering(greenmatch::config::TieringConfig::default()),
        ),
    ]);
    let off = &results.iter().find(|(t, _)| t == "tier-off").expect("tier-off").1;
    let on = &results.iter().find(|(t, _)| t == "tier-on").expect("tier-on").1;
    check(
        "tiering-cuts-brown-or-capacity",
        (on.brown_kwh <= off.brown_kwh + 1e-6
            || on.capacity_in_use_bytes < off.capacity_in_use_bytes)
            && on.latency.count == off.latency.count
            && on.migrations_completed > 0,
        format!(
            "brown {:.1} → {:.1} kWh, raw {:.2} → {:.2} TiB, {} migrations ({:.0}% green)",
            off.brown_kwh,
            on.brown_kwh,
            off.capacity_in_use_bytes as f64 / (1u64 << 40) as f64,
            on.capacity_in_use_bytes as f64 / (1u64 << 40) as f64,
            on.migrations_completed,
            on.migration_green_share * 100.0
        ),
    )
}

/// The DESIGN.md §1.9 admission claim as a standalone check: under a
/// supply-constrained scenario, tightening the gate's confidence α must
/// not loosen it — work turned away (rejected plus still-held) grows
/// monotonically in α and the violation rate of what *was* admitted never
/// rises, because only work the α-confidence green lower band covers is
/// ever admitted. Brown energy must fall alongside — the admitted set
/// shrinks toward work the green band covers. The gate must also be
/// non-degenerately active (the tightest setting turns something away),
/// or the monotonicity holds vacuously. Run by [`run_all`] and by
/// `validate --check admission` as a CI smoke.
pub fn admission_check(ctx: &ExpContext) -> ShapeCheck {
    let alphas = [0.5f64, 0.9, 0.99];
    let configs = alphas
        .iter()
        .map(|&alpha| {
            (
                format!("a{:.0}", alpha * 100.0),
                crate::experiments::admission::scarce_cfg(ctx)
                    .with_admission(greenmatch::config::AdmissionConfig { alpha, defer_slots: 4 }),
            )
        })
        .collect();
    let results = run_tagged(configs);
    let mut pass = true;
    let mut prev_away = 0u64;
    let mut prev_miss = f64::INFINITY;
    let mut prev_brown = f64::INFINITY;
    let mut detail = String::new();
    for (i, &alpha) in alphas.iter().enumerate() {
        let r = &results[i].1;
        let adm = r.admission.clone().expect("gate ran");
        let away = adm.rejected + adm.pending_at_end as u64;
        let miss = r.batch.miss_rate();
        pass &= away >= prev_away && miss <= prev_miss + 1e-9 && r.brown_kwh <= prev_brown + 1e-6;
        if !detail.is_empty() {
            detail.push_str(", ");
        }
        detail.push_str(&format!(
            "α={alpha}: {away} away / {:.2}% miss / {:.1} brown kWh",
            miss * 100.0,
            r.brown_kwh
        ));
        prev_away = away;
        prev_miss = miss;
        prev_brown = r.brown_kwh;
    }
    pass &= prev_away > 0; // the tightest gate actually turned work away
    check("admission-tightens-violations", pass, detail)
}

/// Run every shape check. `ctx.scale` trades fidelity for speed.
pub fn run_all(ctx: &ExpContext) -> Vec<ShapeCheck> {
    let gm = PolicyKind::GreenMatch { delay_fraction: 1.0 };

    // One batched sweep covering all the claims.
    let mut configs = Vec::new();
    // Area monotonicity + policy ordering (no battery).
    for area in [40.0f64, 120.0, 240.0] {
        for (pname, policy) in
            [("gm", gm), ("greedy", PolicyKind::GreedyGreen), ("allon", PolicyKind::AllOn)]
        {
            let mut cfg = medium_cfg_no_battery(ctx, policy);
            cfg.sites[0].source =
                SourceKind::Solar { area_m2: area, profile: SolarProfile::SunnySummer };
            configs.push((format!("{pname}@{area:.0}"), cfg));
        }
    }
    // Battery knee (esd-only vs greenmatch at 40 and 110 kWh).
    for kwh in [40.0f64, 110.0] {
        for (pname, policy) in [("esd", PolicyKind::AllOn), ("gmb", gm)] {
            let mut cfg = medium_cfg(ctx, policy);
            cfg.sites[0].battery = Some(BatterySpec::lithium_ion(kwh * 1000.0));
            configs.push((format!("{pname}@{kwh:.0}kwh"), cfg));
        }
    }
    // Delay-fraction loss trend.
    for frac in [0.0f64, 1.0] {
        configs.push((
            format!("delay@{:.0}", frac * 100.0),
            medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: frac }),
        ));
    }
    // Layout availability.
    for (lname, layout) in [("gear", LayoutKind::Gear), ("random", LayoutKind::Random)] {
        let mut cfg = medium_cfg(ctx, gm);
        cfg.sites[0].cluster.layout = layout;
        configs.push((format!("layout@{lname}"), cfg));
    }
    let results = run_tagged(configs);

    let mut checks = Vec::new();

    // 1. Brown monotone non-increasing in PV area, every policy.
    for pname in ["gm", "greedy", "allon"] {
        let b40 = brown(&results, &format!("{pname}@40"));
        let b120 = brown(&results, &format!("{pname}@120"));
        let b240 = brown(&results, &format!("{pname}@240"));
        checks.push(check(
            "brown-monotone-in-area",
            b40 >= b120 - 1e-6 && b120 >= b240 - 1e-6,
            format!("{pname}: {b40:.1} ≥ {b120:.1} ≥ {b240:.1} kWh"),
        ));
    }

    // 2. Policy ordering at the default area (no battery).
    let (g, gr, ao) =
        (brown(&results, "gm@120"), brown(&results, "greedy@120"), brown(&results, "allon@120"));
    checks.push(check(
        "ordering-gm-le-greedy-le-allon",
        g <= gr * 1.05 && gr <= ao * 1.05,
        format!("gm {g:.1} ≤ greedy {gr:.1} ≤ all-on {ao:.1} kWh"),
    ));

    // 3. ESD-only depends on battery size more than GreenMatch (the knee
    //    claim: GreenMatch has already flattened by 40 kWh).
    let esd_gain = brown(&results, "esd@40kwh") - brown(&results, "esd@110kwh");
    let gm_gain = brown(&results, "gmb@40kwh") - brown(&results, "gmb@110kwh");
    checks.push(check(
        "greenmatch-needs-smaller-battery",
        esd_gain > gm_gain && esd_gain > 0.0,
        format!("40→110 kWh gain: esd-only {esd_gain:.1} vs greenmatch {gm_gain:.1} kWh"),
    ));

    // 4. Deferral reduces battery-efficiency loss and adds spin-ups.
    let d0 = &results.iter().find(|(t, _)| t == "delay@0").expect("delay@0").1;
    let d100 = &results.iter().find(|(t, _)| t == "delay@100").expect("delay@100").1;
    checks.push(check(
        "deferral-cuts-battery-loss",
        d100.battery_eff_loss_kwh <= d0.battery_eff_loss_kwh + 1e-6,
        format!(
            "{:.1} → {:.1} kWh battery loss",
            d0.battery_eff_loss_kwh, d100.battery_eff_loss_kwh
        ),
    ));
    checks.push(check(
        "deferral-adds-cycling",
        d100.spinups >= d0.spinups,
        format!("{} → {} spin-ups", d0.spinups, d100.spinups),
    ));

    // 5. Deadlines hold under the oracle convention.
    checks.push(check(
        "deadlines-hold",
        d100.batch.miss_rate() < 0.05,
        format!("miss rate {:.2}%", d100.batch.miss_rate() * 100.0),
    ));

    // 6. Gear layout never forces availability spin-ups; random does.
    let gear = &results.iter().find(|(t, _)| t == "layout@gear").expect("gear").1;
    let random = &results.iter().find(|(t, _)| t == "layout@random").expect("random").1;
    checks.push(check(
        "gear-layout-availability",
        gear.forced_spinups == 0 && random.forced_spinups > 0,
        format!(
            "forced spin-ups: gear {} vs random {}",
            gear.forced_spinups, random.forced_spinups
        ),
    ));

    // 7. Latency stays interactive everywhere except the random layout,
    //    whose spin-up stalls (≈10 s) must surface in the tail — both
    //    halves are claims.
    let worst_gear_p99 = results
        .iter()
        .filter(|(t, _)| t != "layout@random")
        .map(|(_, r)| r.latency.p99_s)
        .fold(0.0f64, f64::max);
    checks.push(check(
        "latency-bounded-under-gear-layout",
        worst_gear_p99 < 1.0,
        format!("worst p99 {:.1} ms", worst_gear_p99 * 1e3),
    ));
    checks.push(check(
        "random-layout-stalls-surface-in-tail",
        random.latency.max_s >= 5.0,
        format!("random layout max latency {:.1} s", random.latency.max_s),
    ));

    // 8. Geo-distribution: at zero WAN cost, three longitude-offset sites
    //    strictly reduce brown energy vs one site of equal total capacity
    //    (follow-the-sun matching reaches green hours the home site lacks).
    let geo_results = run_tagged(vec![
        ("geo1".to_string(), geo::one_site_cfg(ctx, gm)),
        ("geo3".to_string(), geo::three_site_solar_cfg(ctx, gm, 0)),
    ]);
    let (g1, g3) = (brown(&geo_results, "geo1"), brown(&geo_results, "geo3"));
    checks.push(check(
        "geo-offset-sites-cut-brown",
        g3 < g1,
        format!("1 site {g1:.1} vs 3 offset sites {g3:.1} kWh"),
    ));

    // 9. Temperature tiering (standalone so CI can smoke it alone).
    checks.push(tiering_check(ctx));

    // 9b. Admission control (standalone so CI can smoke it alone).
    checks.push(admission_check(ctx));

    // 10. Conservation audit: the headline configuration and a mini-fuzz
    //    over random configurations run clean under the per-slot auditor
    //    and the post-run deep audit.
    let headline = crate::fuzzgen::FuzzCase { cfg: medium_cfg(ctx, gm), feed: false };
    let (_, audit) = crate::fuzzgen::run_audited(&headline);
    checks.push(check(
        "conservation-audit-clean",
        audit.is_clean(),
        format!("{} over the headline config", audit.summary()),
    ));
    let mut fuzz_violations = 0usize;
    let mut fuzz_slots = 0usize;
    let fuzz_cases = 16u32;
    for case in 0..fuzz_cases {
        let mut rng = proptest::test_runner::TestRng::for_case("validate-fuzz", case);
        let sample = crate::fuzzgen::fuzz_case(&mut rng);
        let (_, audit) = crate::fuzzgen::run_audited(&sample);
        fuzz_violations += audit.total_violations();
        fuzz_slots += audit.slots_audited;
    }
    checks.push(check(
        "conservation-fuzz-clean",
        fuzz_violations == 0,
        format!(
            "{fuzz_violations} violations over {fuzz_cases} random configs ({fuzz_slots} slots)"
        ),
    ));

    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full shape suite at reduced scale — the reproduction's
    /// "does it still reproduce?" regression test.
    #[test]
    #[ignore = "several minutes of simulation; run with --ignored or the validate binary"]
    fn shapes_hold_at_reduced_scale() {
        let dir = std::env::temp_dir().join("gm-shapes-test");
        let ctx = ExpContext::new(dir, 42, 0.25);
        let checks = run_all(&ctx);
        let failures: Vec<_> = checks.iter().filter(|c| !c.pass).collect();
        assert!(failures.is_empty(), "failed shape checks: {failures:#?}");
    }
}
