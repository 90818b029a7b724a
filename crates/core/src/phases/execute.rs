//! Phase 5 — Execute: serve the slot's work.
//!
//! Serves the interactive requests at the home site (recording latency
//! globally and into the scratch's per-slot histogram), then walks the
//! sites in order: each site spreads its decided batch bytes across its
//! active disks (repair jobs write onto their specific replacement disk),
//! and the home site runs the write-log reclaim budget last. Home executes
//! the decision's home list; every other site executes its remote
//! placements. Jobs are shared state, so bytes already run at an earlier
//! site this slot reduce what a later placement can still execute (the
//! cap by `remaining_bytes` makes double assignment harmless). Returns the
//! batch bytes actually executed (all sites).

use super::{SlotContext, SlotScratch};
use crate::policy::Decision;
use crate::simulation::{Simulation, SiteState};
use gm_sim::time::SimTime;
use gm_storage::Cluster;
use gm_workload::JobId;

pub(crate) fn run(
    sim: &mut Simulation,
    ctx: &SlotContext,
    scratch: &mut SlotScratch,
    decision: &Decision,
    gears: usize,
) -> u64 {
    let now = ctx.now;
    let multi_site = sim.sites.len() > 1;
    scratch.site_executed_bytes.clear();

    // The slot's interactive requests, enumerated through the advancing
    // live-set cursor (O(live + newly started), independent of the stream
    // population size) and memoised as a columnar batch. Byte-identical to
    // the stateless `slot_batch` path.
    let batch = {
        let live = sim.live_cursor.advance_to(sim.workload.interactive(), ctx.clock, ctx.slot);
        sim.workload.slot_batch_with_live(ctx.clock, ctx.slot, live)
    };

    // Interactive service: record globally (for the final report) and per
    // slot (for the outcome), in the same order as always. Interactive
    // traffic exists only at the home site.
    let home = &mut sim.sites[0].cluster;
    scratch.slot_hist.clear();
    for i in 0..batch.len() {
        let served = home.serve_request(&batch.request(i));
        scratch.slot_hist.record(served.latency.as_secs_f64());
    }
    // The global histogram is bucket-merged from the slot histogram rather
    // than recorded per request: identical bucket counts and max (so the
    // trace and report quantiles are unchanged), one record per request
    // instead of two. Only the report's mean can drift in its last ulps
    // (per-slot partial sums reassociate the float addition).
    sim.hist.merge(&scratch.slot_hist);

    let mut executed_batch_bytes = 0u64;
    for site_idx in 0..sim.sites.len() {
        let site_gears = if site_idx == 0 {
            gears
        } else {
            *sim.sites[site_idx].gears_series.last().expect("geared this slot")
        };
        let SiteState { cluster, rr_cursor, .. } = &mut sim.sites[site_idx];
        scratch.active_disks.clear();
        for g in 0..site_gears {
            scratch.active_disks.extend(cluster.topology().disks_in_gear_range(g));
        }
        let home_list: &[(JobId, u64)] = if site_idx == 0 { &decision.batch_bytes } else { &[] };
        let remote_list = decision
            .remote_batch_bytes
            .iter()
            .filter(|(s, ..)| site_idx > 0 && *s == site_idx)
            .map(|(_, id, b)| (id, *b));
        let mut site_executed = 0u64;
        for (job_id, bytes) in home_list.iter().map(|(id, b)| (id, *b)).chain(remote_list) {
            let Some(&idx) = sim.job_index.get(job_id) else { continue };
            let job = &mut sim.jobs[idx];
            let bytes = bytes.min(job.remaining_bytes);
            if bytes == 0 {
                continue;
            }
            let (assigned, completion) = match sim.repair_jobs.get(job_id) {
                Some(&disk) => (bytes, cluster.rebuild_step(disk, bytes, now).completion),
                None => spread(cluster, &scratch.active_disks, rr_cursor, bytes, now),
            };
            job.perform(assigned, completion);
            site_executed += assigned;
        }
        // Write-log reclaim.
        if site_idx == 0 && decision.reclaim_budget_bytes > 0 {
            cluster.reclaim(decision.reclaim_budget_bytes, now);
        }
        sim.sites[site_idx].executed_batch_bytes += site_executed;
        if multi_site {
            scratch.site_executed_bytes.push(site_executed);
        }
        executed_batch_bytes += site_executed;
    }
    executed_batch_bytes
}

/// Spread one job's `bytes` over up to 32 active disks (keeps chunks
/// sequential and large), starting at the site's round-robin cursor and
/// advancing it. Returns the bytes assigned — the per-disk floor division
/// can fall short of `bytes` — and the latest chunk completion.
fn spread(
    cluster: &mut Cluster,
    active_disks: &[usize],
    rr_cursor: &mut usize,
    bytes: u64,
    now: SimTime,
) -> (u64, SimTime) {
    let spread = active_disks.len().clamp(1, 32);
    let per = (bytes / spread as u64).max(1);
    let mut assigned = 0u64;
    let mut last_completion = now;
    for k in 0..spread {
        if assigned >= bytes {
            break;
        }
        let chunk = per.min(bytes - assigned);
        let disk = active_disks[(*rr_cursor + k) % active_disks.len()];
        let served = cluster.add_sequential_work(disk, chunk, now);
        last_completion = last_completion.max(served.completion);
        assigned += chunk;
    }
    *rr_cursor = (*rr_cursor + spread) % active_disks.len().max(1);
    (assigned, last_completion)
}
