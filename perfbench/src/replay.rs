//! Replays of the layers inside the Execute phase, outside any
//! `Simulation`: each layer's public functions called on the traced run's
//! world and seed, timed one layer at a time.

use gm_sim::{LogHistogram, WorkPool};
use gm_storage::Cluster;
use gm_workload::{EventFeed, LiveCursor, RequestBatch};
use greenmatch::config::ExperimentConfig;
use greenmatch::World;
use std::time::Instant;

/// Live-set size from which `Workload::requests_in_slot` shards synthesis,
/// and the streams each shard gets at least (mirrors `gm-workload`'s rule,
/// which is private to it).
const SHARD_THRESHOLD: usize = 8_192;
const STREAMS_PER_SHARD: usize = 2_048;

fn auto_shards(live: usize) -> usize {
    if live < SHARD_THRESHOLD {
        1
    } else {
        WorkPool::global().width().min(live / STREAMS_PER_SHARD).max(1)
    }
}

/// What the replays measured. Times in nanoseconds, summed over the
/// horizon's slots.
#[derive(Debug, Default)]
pub struct Replay {
    pub cursor_ns: u64,
    pub live_streams_sum: u64,
    pub requests: u64,
    pub max_shards: usize,
    pub synth_ns: u64,
    pub batch_build_ns: u64,
    pub serve_ns: u64,
    pub hist_record_ns: u64,
    pub hist_merge_ns: u64,
    pub end_slot_ns: u64,
    pub tier_step_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub feed_send_ns: u64,
}

/// Replay the request path of every slot over `world`, with the gear
/// levels the traced run chose (`gears[slot]`, home site).
pub fn replay(cfg: &ExperimentConfig, world: &World, gears: &[usize]) -> Replay {
    let clock = cfg.clock;
    let width = clock.width();
    let workload = &world.workload;
    let mut r = Replay::default();

    // gm-workload: the live-set cursor over the whole horizon.
    let mut cursor = LiveCursor::new();
    let t = Instant::now();
    for slot in 0..cfg.slots {
        r.live_streams_sum += cursor.advance_to(workload.interactive(), clock, slot).len() as u64;
    }
    r.cursor_ns = t.elapsed().as_nanos() as u64;

    // gm-storage + gm-sim: the serve chain on a fresh cluster over the
    // world's layout, one slot at a time.
    let mut cluster = Cluster::from_layout(world.layout().clone());
    cluster.set_slot_width(width);
    let max_migrations = match cfg.tiering {
        Some(t) => {
            cluster.enable_tiering(t.ewma, t.cold_fraction_target, t.ec_k, t.ec_m);
            t.max_migrations_per_slot
        }
        None => 0,
    };
    let mut slot_hist = LogHistogram::for_latency_secs();
    let mut run_hist = LogHistogram::for_latency_secs();
    let mut live = Vec::new();
    let mut latencies = Vec::new();
    for slot in 0..cfg.slots {
        live.clear();
        workload.interactive().live_streams_in_slot(clock, slot, &mut live);
        r.max_shards = r.max_shards.max(auto_shards(live.len()));

        let t = Instant::now();
        let requests = workload.requests_in_slot(clock, slot);
        r.synth_ns += t.elapsed().as_nanos() as u64;
        r.requests += requests.len() as u64;

        let t = Instant::now();
        let batch = RequestBatch::from_requests(&requests);
        r.batch_build_ns += t.elapsed().as_nanos() as u64;
        drop(requests);

        cluster.set_active_gears(gears.get(slot).copied().unwrap_or(1), clock.slot_start(slot));
        latencies.clear();
        let t = Instant::now();
        for i in 0..batch.len() {
            latencies.push(cluster.serve_request(&batch.request(i)).latency.as_secs_f64());
        }
        r.serve_ns += t.elapsed().as_nanos() as u64;

        slot_hist.clear();
        let t = Instant::now();
        for &x in &latencies {
            slot_hist.record(x);
        }
        r.hist_record_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        run_hist.merge(&slot_hist);
        r.hist_merge_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        cluster.end_slot(clock.slot_end(slot), width);
        r.end_slot_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        cluster.tier_step(clock.width_hours(), max_migrations);
        r.tier_step_ns += t.elapsed().as_nanos() as u64;
    }
    r.cache_hits = cluster.cache().hits();
    r.cache_misses = cluster.cache().misses();

    // gm-workload: the event feed's producer half over the whole horizon.
    let (mut tx, _feed) = EventFeed::new();
    for slot in 0..cfg.slots {
        let jobs = workload.batch_arrivals_in_slot(clock, slot);
        let t = Instant::now();
        tx.send_slot(slot, jobs);
        r.feed_send_ns += t.elapsed().as_nanos() as u64;
    }
    r
}

/// Materialisation time of each world component, built cold.
pub struct WorldParts {
    pub workload_gen_s: f64,
    pub trace_s: f64,
    pub layout_s: f64,
}

pub fn world_parts(cfg: &ExperimentConfig) -> WorldParts {
    let t = Instant::now();
    let workload = gm_workload::Workload::generate(cfg.workload.clone(), cfg.seed);
    let workload_gen_s = t.elapsed().as_secs_f64();
    drop(workload);
    let (mut trace_s, mut layout_s) = (0.0, 0.0);
    for (i, site) in cfg.site_configs().iter().enumerate() {
        let rngs = gm_sim::RngFactory::new(cfg.site_seed(i));
        let t = Instant::now();
        let trace = site.try_materialize_trace(cfg.clock, cfg.slots, &rngs);
        trace_s += t.elapsed().as_secs_f64();
        trace.unwrap_or_else(|e| panic!("{e}"));
        let t = Instant::now();
        let layout = gm_storage::ClusterLayout::new(site.cluster.clone());
        layout_s += t.elapsed().as_secs_f64();
        drop(layout);
    }
    WorldParts { workload_gen_s, trace_s, layout_s }
}
