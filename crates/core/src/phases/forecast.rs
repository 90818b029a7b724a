//! Phase 1 — Forecast: battery relaxation and the policy's forward view.
//!
//! Applies one slot of battery self-discharge, asks the forecaster for the
//! green-energy outlook over the planning horizon, and fills in the
//! expected interactive busy-seconds per horizon slot (memoised on the
//! simulation — the expectation is a pure function of the absolute slot,
//! so each slot is computed once per run instead of once per horizon
//! overlap).

use super::{SlotContext, SlotScratch};
use crate::scheduler::DEFAULT_HORIZON;
use crate::simulation::Simulation;

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext, scratch: &mut SlotScratch) {
    for site in &mut sim.sites {
        site.battery.apply_self_discharge(ctx.width);
    }

    // The policy sees the forecaster's view of the whole window,
    // *including* the current slot. With the Oracle forecaster this
    // reproduces the era's accurate-next-slot-prediction convention
    // exactly; with imperfect forecasters the policy may misjudge even the
    // present — which is what forecast-sensitivity experiments measure.
    // Energy settlement always uses the truth.
    let n_remote = sim.sites.len() - 1;
    scratch.remote_green_forecast_wh.truncate(n_remote);
    while scratch.remote_green_forecast_wh.len() < n_remote {
        scratch.remote_green_forecast_wh.push(Vec::new());
    }

    // Home predicts into `green_forecast_wh`; remote site i + 1 into
    // `remote_green_forecast_wh[i]` (single-site runs have none).
    let bufs = std::iter::once(&mut scratch.green_forecast_wh)
        .chain(scratch.remote_green_forecast_wh.iter_mut());
    for (site, buf) in sim.sites.iter_mut().zip(bufs) {
        site.forecaster.predict_into(ctx.slot, DEFAULT_HORIZON, buf);
        for w in buf.iter_mut() {
            *w *= ctx.hours;
        }
    }

    // Admission gate's supply view: the α-confidence *lower* band per
    // horizon slot, summed across sites (accepted work may be placed at
    // any site, so the gate sees the fleet-wide conservative supply).
    // Runs as an extra sequential pass after the point forecasts — every
    // forecaster's bands are a pure function of its state and the slot
    // (the noisy oracle draws counter-based noise), so this pass perturbs
    // nothing the band-oblivious paths computed.
    if let Some(gate) = sim.cfg.admission {
        scratch.admission_lower_wh.clear();
        scratch.admission_lower_wh.resize(DEFAULT_HORIZON, 0.0);
        for site in &mut sim.sites {
            site.forecaster.predict_bands_into(
                ctx.slot,
                DEFAULT_HORIZON,
                gate.alpha,
                &mut scratch.band_point,
                &mut scratch.band_lower,
                &mut scratch.band_upper,
            );
            for (acc, lo) in scratch.admission_lower_wh.iter_mut().zip(&scratch.band_lower) {
                *acc += lo * ctx.hours;
            }
        }
    }

    scratch.interactive_busy_secs.clear();
    for k in 0..DEFAULT_HORIZON {
        let busy = sim.expected_busy_secs(ctx.slot + k);
        scratch.interactive_busy_secs.push(busy);
    }
}
