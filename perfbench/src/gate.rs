//! The correctness gate: checks on the simulated results, made in an
//! untimed verification pass. Model outputs are diagnostics, not checks.

use crate::json::Json;
use greenmatch::config::ExperimentConfig;
use greenmatch::{AuditReport, RunReport, Simulation, World};

pub fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("run report serialises")
}

/// Run `cfg` over `world` through the batch arrival cursor under the
/// conservation auditor plus the post-run audit.
pub fn audited(cfg: &ExperimentConfig, world: World) -> (RunReport, AuditReport) {
    let sim = Simulation::builder(cfg).world(world).build().unwrap_or_else(|e| panic!("{e}"));
    let (sim, audit) = sim.run_audited();
    (sim.into_report(), audit)
}

/// Requests synthesised for the run: the lengths of the world's memoised
/// slot batches (each was synthesised exactly once, by the run itself).
pub fn memo_requests(cfg: &ExperimentConfig, world: &World) -> u64 {
    (0..cfg.slots).map(|s| world.workload.slot_batch(cfg.clock, s).len() as u64).sum()
}

/// The memoised batch of each slot in `slots` equals a stateless
/// re-synthesis of that slot, request for request.
pub fn memo_matches_synthesis(
    cfg: &ExperimentConfig,
    world: &World,
    slots: &[usize],
) -> Result<(), String> {
    for &slot in slots {
        let fresh = world.workload.requests_in_slot(cfg.clock, slot);
        let memo = world.workload.slot_batch(cfg.clock, slot);
        if fresh.len() != memo.len() {
            return Err(format!("slot {slot}: {} fresh vs {} memoised", fresh.len(), memo.len()));
        }
        if let Some(i) = (0..fresh.len()).find(|&i| fresh[i] != memo.request(i)) {
            return Err(format!("slot {slot}: request {i} differs"));
        }
    }
    Ok(())
}

/// First, middle and last slot of a horizon.
pub fn spot_slots(slots: usize) -> Vec<usize> {
    let mut v = vec![0, slots / 2, slots - 1];
    v.dedup();
    v
}

/// Model outputs of a run, printed beside the reference seed's values.
pub fn diagnostics(r: &RunReport) -> Json {
    let mut d = Json::obj();
    d.set("brown_kwh", r.brown_kwh)
        .set("latency_p99_ms", r.latency.p99_s * 1e3)
        .set("requests_served", r.latency.count)
        .set("deadline_misses", (r.batch.deadline_misses + r.batch.unfinished_late) as u64)
        .set("cache_hit_ratio", r.cache_hit_ratio);
    if let Some(a) = &r.admission {
        d.set("admission_accepted", a.accepted)
            .set("admission_deferred", a.deferred)
            .set("admission_rejected", a.rejected);
    }
    d
}
