//! The four workloads: their configurations and closed stepping loops.
//!
//! Every run calls `Simulation::step()` back to back on one thread
//! (closed loop) and times what the user of the simulator waits for. A
//! [`SpanLog`] turns a run into the traced variant: the phase observer
//! records the seven phase spans of each slot, the loop the step span
//! around them.

use crate::spans::{PhaseObserver, SpanLog};
use crate::sys::{self, Clocks};
use gm_bench::{ExpContext, JobPool};
use gm_storage::FailureSpec;
use gm_workload::EventFeed;
use greenmatch::config::{AdmissionConfig, ExperimentConfig, ForecastKind, TieringConfig};
use greenmatch::policy::PolicyKind;
use greenmatch::{RunReport, Simulation, SlotObserver, SlotOutcome, World, WorldCache};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Horizon of `geo_tiered`, in weeks.
pub const GEO_WEEKS: u64 = 4;
/// Share of the interactive rate `geo_tiered` keeps.
pub const GEO_INTERACTIVE_SHARE: f64 = 0.05;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    WeekCold,
    ServeMega,
    SweepCached,
    GeoTiered,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::WeekCold, Kind::ServeMega, Kind::SweepCached, Kind::GeoTiered];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WeekCold => "week_cold",
            Kind::ServeMega => "serve_mega",
            Kind::SweepCached => "sweep_cached",
            Kind::GeoTiered => "geo_tiered",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

pub const GREENMATCH: PolicyKind = PolicyKind::GreenMatch { delay_fraction: 1.0 };

/// The workload's configuration (for `sweep_cached`, its greenmatch point).
pub fn config(kind: Kind, seed: u64) -> ExperimentConfig {
    match kind {
        Kind::WeekCold | Kind::SweepCached => {
            ExperimentConfig::medium(seed).with_policy(GREENMATCH)
        }
        // The `gm-serve` service shape (noisy forecast bands, admission
        // gate) on the mega population at the preset's own rate over its
        // week: the ×35 rate over 24 slots is one run of 15–20 s whose
        // step median swings by a fifth between runs on a shared 2-core
        // host, too noisy to hold a bound.
        Kind::ServeMega => ExperimentConfig::mega(seed)
            .with_forecast(ForecastKind::Noisy { cv: 0.3 })
            .with_admission(AdmissionConfig { alpha: 0.9, defer_slots: 4 }),
        Kind::GeoTiered => {
            // The experiment context only names an output directory, which
            // building a config never touches.
            let ctx = ExpContext::new("results", seed, 1.0);
            let mut cfg = gm_bench::experiments::geo::three_site_solar_cfg(&ctx, GREENMATCH, 200)
                .with_tiering(TieringConfig::default())
                .with_failures(FailureSpec::nearline());
            let days = gm_sim::SimDuration::from_days(7 * GEO_WEEKS);
            cfg.workload = cfg.workload.clone().scaled(GEO_WEEKS as f64);
            cfg.workload.interactive.rate_rps *= GEO_INTERACTIVE_SHARE;
            cfg.workload.interactive.horizon = days;
            cfg.workload.batch.horizon = days;
            cfg.with_slots(GEO_WEEKS as usize * 7 * 24)
        }
    }
}

/// The policy sweep of `sweep_cached`, tagged by policy label.
pub fn sweep_configs(seed: u64) -> Vec<(String, ExperimentConfig)> {
    [
        PolicyKind::AllOn,
        PolicyKind::PowerProportional,
        GREENMATCH,
        PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
    ]
    .into_iter()
    .map(|p| (p.label(), config(Kind::SweepCached, seed).with_policy(p)))
    .collect()
}

/// Where a traced run takes its mid-horizon snapshot, and what it cost.
#[derive(Default)]
pub struct SnapshotProbe {
    pub at_slot: usize,
    pub snapshot_ms: f64,
    pub bytes: usize,
    pub resume_ms: f64,
    /// Wall seconds the probe took, kept out of the run's timing.
    pub excluded_s: f64,
}

impl SnapshotProbe {
    pub fn at(slot: usize) -> SnapshotProbe {
        SnapshotProbe { at_slot: slot, ..SnapshotProbe::default() }
    }

    /// Snapshot `sim`, serialise it, and time a resume of it over `world`.
    fn take(&mut self, sim: &Simulation, cfg: &ExperimentConfig, world: &World) {
        let start = Instant::now();
        let snap = sim.snapshot();
        let json = snap.to_json();
        self.snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
        self.bytes = json.len();
        let t = Instant::now();
        let resumed = Simulation::builder(cfg).world(world.clone()).resume_from(&snap).build();
        self.resume_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = resumed {
            panic!("resume from a mid-horizon snapshot failed: {e}");
        }
        drop(resumed);
        self.excluded_s = start.elapsed().as_secs_f64();
    }
}

/// One measured run (or, for `sweep_cached`, one measured sweep).
pub struct Unit {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// World materialisation time, for units that build their own world.
    pub setup_s: Option<f64>,
    pub steps_ms: Vec<f64>,
    pub reports: Vec<(String, RunReport)>,
    /// Interactive requests served, summed over the unit's slots.
    pub served: u64,
    /// The world the unit ran on (kept only when asked for).
    pub world: Option<World>,
    /// Per-run busy seconds of a traced sweep's own job closures.
    pub busy_s: Vec<f64>,
}

/// Step `sim` to the end, timing every step; returns requests served.
fn drive(
    sim: &mut Simulation,
    steps_ms: &mut Vec<f64>,
    spans: Option<&SpanLog>,
    mut probe: Option<(&mut SnapshotProbe, &ExperimentConfig, &World)>,
) -> u64 {
    let mut served = 0;
    loop {
        if let Some((p, cfg, world)) = probe.as_mut() {
            if sim.current_slot() == p.at_slot {
                p.take(sim, cfg, world);
            }
        }
        let t = Instant::now();
        let Some(outcome) = sim.step() else { break };
        let elapsed = t.elapsed();
        steps_ms.push(elapsed.as_secs_f64() * 1e3);
        served += outcome.latency.count;
        if let Some(spans) = spans {
            spans.step(outcome.slot, elapsed.as_nanos() as u64);
        }
    }
    served
}

/// A run over a freshly materialised world (`week_cold`, `serve_mega`,
/// `geo_tiered`). With `fed`, batch arrivals come as in `gm-serve`: a
/// producer thread pushes each slot's arrivals through an [`EventFeed`]
/// while the loop steps; otherwise through the batch arrival cursor.
pub fn run_fresh(
    cfg: &ExperimentConfig,
    fed: bool,
    spans: Option<&SpanLog>,
    mut probe: Option<&mut SnapshotProbe>,
    keep_world: bool,
) -> Unit {
    sys::reset_peak_rss();
    let t = Instant::now();
    let world = World::try_materialize(cfg).unwrap_or_else(|e| panic!("{e}"));
    let setup_s = t.elapsed().as_secs_f64();

    let clocks = Clocks::start();
    let mut builder = Simulation::builder(cfg).world(world.clone());
    let mut producer = None;
    if fed {
        let (mut tx, feed) = EventFeed::new();
        let workload = world.workload.clone();
        let (clock, slots) = (cfg.clock, cfg.slots);
        producer = Some(std::thread::spawn(move || {
            for slot in 0..slots {
                if !tx.send_slot(slot, workload.batch_arrivals_in_slot(clock, slot)) {
                    return;
                }
            }
        }));
        builder = builder.feed(feed);
    }
    if let Some(spans) = spans {
        builder = builder.observer(Box::new(PhaseObserver::new(spans.clone())));
    }
    let mut sim = builder.build().unwrap_or_else(|e| panic!("{e}"));
    let mut steps_ms = Vec::with_capacity(cfg.slots);
    let served =
        drive(&mut sim, &mut steps_ms, spans, probe.as_deref_mut().map(|p| (p, cfg, &world)));
    let report = sim.into_report();
    if let Some(producer) = producer {
        producer.join().expect("feed producer");
    }
    let (wall_s, cpu_s) = clocks.read();
    Unit {
        wall_s: wall_s - probe.map_or(0.0, |p| p.excluded_s),
        cpu_s,
        peak_rss_mb: sys::peak_rss_mb(),
        setup_s: Some(setup_s),
        steps_ms,
        reports: vec![(report.policy.clone(), report)],
        served,
        world: keep_world.then_some(world),
        busy_s: Vec::new(),
    }
}

/// Materialise the medium world into [`WorldCache::global`] and fill every
/// slot's request-batch memo: the set-up of `sweep_cached`. Returns the
/// world and `(materialise s, memo fill s)`.
pub fn fill_global_cache(cfg: &ExperimentConfig) -> (World, f64, f64) {
    let t = Instant::now();
    let world = WorldCache::global().get_or_materialize(cfg).unwrap_or_else(|e| panic!("{e}"));
    let materialise_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for slot in 0..cfg.slots {
        world.workload.slot_batch(cfg.clock, slot);
    }
    (world, materialise_s, t.elapsed().as_secs_f64())
}

/// Times the gap between consecutive slots of one run: each gap is one
/// `step()` (slot 0 has no predecessor and is not counted).
struct StepClock {
    last: Option<Instant>,
    gaps_ms: Arc<Mutex<Vec<f64>>>,
}

impl SlotObserver for StepClock {
    fn on_slot(&mut self, _outcome: &SlotOutcome) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps_ms.lock().expect("step clock").push((now - last).as_secs_f64() * 1e3);
        }
        self.last = Some(now);
    }
}

/// One policy sweep over the cached world through `gm_bench::run_tagged`
/// on the job pool — the way `experiments` drives the engine.
pub fn run_sweep(seed: u64) -> Unit {
    sys::reset_peak_rss();
    let gaps = Arc::new(Mutex::new(Vec::new()));
    let clocks = Clocks::start();
    let reports = gm_bench::runner::run_tagged_with(sweep_configs(seed), |_, _, _| {
        vec![Box::new(StepClock { last: None, gaps_ms: Arc::clone(&gaps) })
            as Box<dyn SlotObserver + Send>]
    });
    let (wall_s, cpu_s) = clocks.read();
    let served = reports.iter().map(|(_, r)| r.latency.count).sum();
    let steps_ms = std::mem::take(&mut *gaps.lock().expect("step clock"));
    Unit {
        wall_s,
        cpu_s,
        peak_rss_mb: sys::peak_rss_mb(),
        setup_s: None,
        steps_ms,
        reports,
        served,
        world: None,
        busy_s: Vec::new(),
    }
}

/// The traced form of [`run_sweep`]: the same runs submitted as the
/// benchmark's own job closures, each timing its steps and its busy time.
/// The greenmatch run carries the snapshot probe.
pub fn run_sweep_traced(seed: u64, spans: &[SpanLog], probe: &Arc<Mutex<SnapshotProbe>>) -> Unit {
    type Slot = Option<(String, RunReport, Vec<f64>, f64)>;
    let configs = sweep_configs(seed);
    let n = configs.len();
    assert_eq!(spans.len(), n, "one span log per sweep run");
    let results: Arc<Mutex<Vec<Slot>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let mut jobs: Vec<gm_bench::pool::Job> = Vec::with_capacity(n);
    for (i, (tag, cfg)) in configs.into_iter().enumerate() {
        let results = Arc::clone(&results);
        let spans = spans[i].clone();
        let probe = (cfg.policy == GREENMATCH).then(|| Arc::clone(probe));
        jobs.push(Box::new(move |scratch| {
            let t = Instant::now();
            let world =
                WorldCache::global().get_or_materialize(&cfg).unwrap_or_else(|e| panic!("{e}"));
            let mut sim = Simulation::builder(&cfg)
                .world(world.clone())
                .scratch(scratch)
                .observer(Box::new(PhaseObserver::new(spans.clone())))
                .build()
                .unwrap_or_else(|e| panic!("{e}"));
            let mut steps = Vec::with_capacity(cfg.slots);
            let mut probe = probe.as_ref().map(|p| p.lock().expect("probe"));
            let at = probe.as_deref_mut().map(|p| (p, &cfg, &world));
            drive(&mut sim, &mut steps, Some(&spans), at);
            let report = sim.into_report();
            let busy = t.elapsed().as_secs_f64() - probe.map_or(0.0, |p| p.excluded_s);
            results.lock().expect("results")[i] = Some((tag, report, steps, busy));
        }));
    }
    sys::reset_peak_rss();
    let clocks = Clocks::start();
    JobPool::global().run_batch(jobs);
    let (wall_s, cpu_s) = clocks.read();
    let mut unit = Unit {
        wall_s: wall_s - probe.lock().expect("probe").excluded_s,
        cpu_s,
        peak_rss_mb: sys::peak_rss_mb(),
        setup_s: None,
        steps_ms: Vec::new(),
        reports: Vec::new(),
        served: 0,
        world: None,
        busy_s: Vec::new(),
    };
    for slot in results.lock().expect("results").iter_mut() {
        let (tag, report, steps, busy) = slot.take().expect("every sweep run finished");
        unit.served += report.latency.count;
        unit.steps_ms.extend(steps);
        unit.busy_s.push(busy);
        unit.reports.push((tag, report));
    }
    unit
}
