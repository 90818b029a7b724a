//! Admission-control experiment: the goodput-vs-violation frontier.
//!
//! Every configuration faces the identical arrival stream under an
//! imperfect forecaster and a supply-constrained site (an eighth of the
//! default PV, no battery — see [`scarce_cfg`]); the gated runs
//! additionally pass each deferrable job through the α-confidence
//! admission gate before it can reach the matcher. Tightening α shrinks
//! the green lower band the gate trusts, so the gate turns away more work
//! — trading goodput (bytes completed) for lower brown draw and a
//! violation rate that never rises (only covered work is admitted). The
//! ungated baseline anchors the frontier's permissive end.

use super::base::{medium_cfg, thin, DEFAULT_AREA_M2};
use crate::runner::{run_and_archive, ExpContext};
use crate::table::{f1, f3, Table};
use greenmatch::config::{AdmissionConfig, ExperimentConfig, ForecastKind, SourceKind};
use greenmatch::policy::PolicyKind;
use greenmatch::report::AdmissionReport;

const GIB: f64 = (1u64 << 30) as f64;

/// The medium scenario made supply-constrained: an eighth of the default
/// PV and no battery. Under the default sizing the green lower band
/// covers the whole batch population at any α — the gate is an open door
/// and the frontier degenerates to a point. Scarcity is what gives the
/// gate a decision to make.
pub fn scarce_cfg(ctx: &ExpContext) -> ExperimentConfig {
    let mut cfg = medium_cfg(ctx, PolicyKind::GreenMatch { delay_fraction: 1.0 })
        .with_forecast(ForecastKind::Noisy { cv: 0.3 });
    if let SourceKind::Solar { area_m2, .. } = &mut cfg.sites[0].source {
        *area_m2 = DEFAULT_AREA_M2 / 8.0;
    }
    cfg.sites[0].battery = None;
    cfg
}

/// The `admission` experiment: ungated baseline vs the α-sweep of the
/// gate, under the noisy-oracle and EWMA forecasters.
pub fn admission(ctx: &ExpContext) -> String {
    let alphas: Vec<f64> = thin(&[0.5f64, 0.8, 0.9, 0.99], ctx.is_quick());
    let forecasters: &[(&str, ForecastKind)] =
        &[("noisy", ForecastKind::Noisy { cv: 0.3 }), ("ewma", ForecastKind::Ewma { alpha: 0.3 })];

    let mut configs = Vec::new();
    for (ftag, fk) in forecasters {
        configs.push((format!("{ftag}-off"), scarce_cfg(ctx).with_forecast(*fk)));
        for &alpha in &alphas {
            let cfg = scarce_cfg(ctx)
                .with_forecast(*fk)
                .with_admission(AdmissionConfig { alpha, defer_slots: 4 });
            configs.push((format!("{ftag}-a{:.0}", alpha * 100.0), cfg));
        }
    }
    let results = run_and_archive(ctx, "admission", configs);

    let mut t = Table::new(vec![
        "config",
        "accepted",
        "rejected",
        "held",
        "goodput_gib",
        "violation_rate",
        "brown_kwh",
        "p99_ms",
    ]);
    let mut csv = String::from(
        "config,accepted,rejected,pending_at_end,goodput_gib,violation_rate,brown_kwh,p99_ms\n",
    );
    for (tag, r) in &results {
        let adm = r.admission.clone().unwrap_or(AdmissionReport {
            accepted: r.batch.jobs_submitted as u64,
            ..AdmissionReport::default()
        });
        let goodput_gib = r.batch.bytes_completed as f64 / GIB;
        t.row(vec![
            tag.clone(),
            adm.accepted.to_string(),
            adm.rejected.to_string(),
            adm.pending_at_end.to_string(),
            f1(goodput_gib),
            f3(r.batch.miss_rate()),
            f1(r.brown_kwh),
            f1(r.latency.p99_s * 1e3),
        ]);
        csv.push_str(&format!(
            "{tag},{},{},{},{:.1},{:.4},{:.3},{:.2}\n",
            adm.accepted,
            adm.rejected,
            adm.pending_at_end,
            goodput_gib,
            r.batch.miss_rate(),
            r.brown_kwh,
            r.latency.p99_s * 1e3
        ));
    }
    ctx.write("admission.md", &t.to_markdown());
    ctx.write("admission.csv", &csv);

    let base = &results.iter().find(|(t, _)| t == "noisy-off").expect("baseline run").1;
    let tight = &results.last().expect("at least one gated run").1;
    let tight_adm = tight.admission.clone().unwrap_or_default();
    format!(
        "Admission control under scarce supply: ungated with a noisy forecast, {} of {} \
         jobs complete at a {:.1}% violation rate and {:.1} kWh of brown draw. Raising the \
         gate's confidence α turns away work the green lower band cannot cover ({} \
         rejected, {} still held at the tightest setting), tracing a goodput-vs-violation \
         frontier — brown draw and the violation rate fall monotonically in α because only \
         covered work is ever admitted. Full frontier in admission.csv.",
        base.batch.jobs_completed,
        base.batch.jobs_submitted,
        base.batch.miss_rate() * 100.0,
        base.brown_kwh,
        tight_adm.rejected,
        tight_adm.pending_at_end,
    )
}
