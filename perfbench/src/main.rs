//! Host-time benchmark of the GreenMatch simulator.
//!
//! ```text
//! gm-perfbench --workload week_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) and prints one JSON line
//! of raw samples: with `--trace 0` the untraced timed runs, with
//! `--trace 1` the traced run's per-layer numbers. Each invocation first
//! passes the workload's correctness gate in an untimed verification
//! pass. `perfbench/run.py` builds this binary, runs it, and turns the
//! samples into the benchmark's metrics.

mod gate;
mod json;
mod replay;
mod spans;
mod sys;
mod workloads;

use json::Json;
use spans::{SpanLog, Spans, EXECUTE, PHASES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{Kind, SnapshotProbe, Unit};

/// Set-up repetitions reported per invocation (median taken downstream).
const SETUP_SAMPLES: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gm-perfbench --workload week_cold|serve_mega|sweep_cached|geo_tiered \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => kind = Kind::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (kind, seed, seconds, trace) {
        (Some(kind), Some(seed), Some(seconds), Some(trace)) => Args { kind, seed, seconds, trace },
        _ => usage(),
    }
}

/// Operations attempted and failed, and the gate's checks.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    checks: Vec<Json>,
    failed_checks: usize,
}

impl Ledger {
    /// Run one operation (a simulation run or a verification step); a
    /// panic counts it as failed and fails the gate.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.failed += 1;
                self.check(what, false, format!("panicked: {msg}"));
                None
            }
        }
    }

    fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.failed_checks += usize::from(!ok);
        eprintln!("  check {:<34} {} {detail}", name, if ok { "ok  " } else { "FAIL" });
        let mut c = Json::obj();
        c.set("name", name).set("ok", ok).set("detail", detail);
        self.checks.push(c);
    }

    /// Check a run's report against the reference report; a mismatch
    /// counts the run as failed.
    fn same_report(&mut self, name: &str, reference: Option<&str>, unit: &Unit) {
        let Some(reference) = reference else { return };
        for (tag, report) in &unit.reports {
            let ok = gate::report_json(report) == reference;
            if !ok {
                self.failed += 1;
            }
            self.check(name, ok, format!("{tag}: report JSON byte-identical to the reference"));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks == 0
    }

    /// Check that each tagged report of `runs` equals the same tag's
    /// report in `reference`; a mismatch counts the run as failed.
    fn same_tagged(&mut self, name: &str, reference: &[(String, String)], runs: &Unit) {
        for (tag, report) in &runs.reports {
            let Some((_, want)) = reference.iter().find(|(t, _)| t == tag) else { continue };
            let ok = gate::report_json(report) == *want;
            if !ok {
                self.failed += 1;
            }
            self.check(name, ok, format!("{tag}: report JSON byte-identical"));
        }
    }
}

/// What the verification pass leaves behind for the later checks.
#[derive(Default)]
struct Reference {
    json: Option<String>,
    diagnostics: Option<Json>,
    setup_s: Vec<f64>,
}

/// Verification pass: an audited batch-cursor run over a fresh world (or
/// the given one), served == synthesised, memo == stateless synthesis.
fn verify_run(
    ledger: &mut Ledger,
    cfg: &greenmatch::ExperimentConfig,
    world: Option<greenmatch::World>,
) -> Reference {
    let mut out = Reference::default();
    let run = ledger.attempt("verification run", || {
        let (world, setup) = match world {
            Some(w) => (w, None),
            None => {
                let t = Instant::now();
                let w = greenmatch::World::try_materialize(cfg).unwrap_or_else(|e| panic!("{e}"));
                (w, Some(t.elapsed().as_secs_f64()))
            }
        };
        let (report, audit) = gate::audited(cfg, world.clone());
        (report, audit, world, setup)
    });
    let Some((report, audit, world, setup)) = run else { return out };
    out.setup_s.extend(setup);
    ledger.check("conservation audit", audit.is_clean(), audit.summary());
    let synthesised = gate::memo_requests(cfg, &world);
    ledger.check(
        "served == synthesised",
        report.latency.count == synthesised,
        format!("{} served, {synthesised} synthesised", report.latency.count),
    );
    let spot = gate::memo_matches_synthesis(cfg, &world, &gate::spot_slots(cfg.slots));
    ledger.check(
        "memo == stateless synthesis",
        spot.is_ok(),
        spot.clone().err().unwrap_or_else(|| "first, middle and last slot".into()),
    );
    if !(audit.is_clean() && report.latency.count == synthesised && spot.is_ok()) {
        ledger.failed += 1;
    }
    out.json = Some(gate::report_json(&report));
    out.diagnostics = Some(gate::diagnostics(&report));
    out
}

/// The name of the check that a run's report equals the verification
/// run's: for the fed `serve_mega` runs it is `gm-serve --verify`'s check.
fn reference_check(kind: Kind) -> &'static str {
    if kind == Kind::ServeMega {
        "fed == batch replay"
    } else {
        "same-seed determinism"
    }
}

/// Repeat `unit` until `seconds` of measured time have passed (at least
/// twice), checking each unit with `verify`.
fn timed_units(
    ledger: &mut Ledger,
    seconds: f64,
    mut unit: impl FnMut() -> Unit,
    mut verify: impl FnMut(&mut Ledger, &Unit),
) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    let mut measured = 0.0;
    while units.len() < 2 || measured < seconds {
        let Some(u) = ledger.attempt("timed run", &mut unit) else { break };
        measured += u.wall_s;
        verify(ledger, &u);
        units.push(u);
    }
    units
}

/// Top up set-up samples with fresh cold materialisations.
fn top_up_setup(cfg: &greenmatch::ExperimentConfig, setup_s: &mut Vec<f64>, extra: f64) {
    while setup_s.len() < SETUP_SAMPLES {
        let t = Instant::now();
        let world = greenmatch::World::try_materialize(cfg).unwrap_or_else(|e| panic!("{e}"));
        setup_s.push(t.elapsed().as_secs_f64() + extra);
        drop(world);
    }
}

fn samples(units: &[Unit], setup_s: Vec<f64>) -> Json {
    let col = |f: &dyn Fn(&Unit) -> f64| Json::from(units.iter().map(f).collect::<Vec<f64>>());
    let steps: Vec<f64> = units.iter().flat_map(|u| u.steps_ms.iter().copied()).collect();
    let mut s = Json::obj();
    s.set("wall_s", col(&|u| u.wall_s))
        .set("cpu_s", col(&|u| u.cpu_s))
        .set("peak_rss_mb", col(&|u| u.peak_rss_mb))
        .set("step_ms", Json::from(steps))
        .set("setup_s", Json::from(setup_s));
    s
}

/// `--trace 0`: untraced timed runs. Returns samples, diagnostics and the
/// requests served per unit.
fn run_timed(args: &Args, ledger: &mut Ledger) -> (Json, Option<Json>, u64) {
    let cfg = workloads::config(args.kind, args.seed);
    if args.kind == Kind::SweepCached {
        return run_timed_sweep(args, &cfg, ledger);
    }
    let fed = args.kind == Kind::ServeMega;
    let reference = verify_run(ledger, &cfg, None);
    let units = timed_units(
        ledger,
        args.seconds,
        || workloads::run_fresh(&cfg, fed, None, None, false),
        |ledger, u| ledger.same_report(reference_check(args.kind), reference.json.as_deref(), u),
    );
    let mut setup = reference.setup_s;
    setup.extend(units.iter().filter_map(|u| u.setup_s));
    top_up_setup(&cfg, &mut setup, 0.0);
    let served = units.first().map_or(0, |u| u.served);
    (samples(&units, setup), reference.diagnostics, served)
}

fn run_timed_sweep(
    args: &Args,
    cfg: &greenmatch::ExperimentConfig,
    ledger: &mut Ledger,
) -> (Json, Option<Json>, u64) {
    let Some((world, materialise_s, fill_s)) =
        ledger.attempt("set-up", || workloads::fill_global_cache(cfg))
    else {
        return (Json::obj(), None, 0);
    };
    let reference = verify_run(ledger, cfg, Some(world));
    // Each policy's report must repeat across sweeps, and the greenmatch
    // one must equal the audited verification run.
    let mut per_tag: Vec<(String, String)> = Vec::new();
    per_tag.extend(reference.json.iter().map(|gm| (cfg.policy.label(), gm.clone())));
    let units = timed_units(
        ledger,
        args.seconds,
        || workloads::run_sweep(args.seed),
        |ledger, u| {
            // A sweep is one attempted operation per policy run.
            ledger.attempted += u.reports.len() as u64 - 1;
            for (tag, report) in &u.reports {
                if !per_tag.iter().any(|(t, _)| t == tag) {
                    per_tag.push((tag.clone(), gate::report_json(report)));
                }
            }
            ledger.same_tagged("same-seed determinism", &per_tag, u);
        },
    );
    let mut setup = vec![materialise_s + fill_s];
    top_up_setup(cfg, &mut setup, fill_s);
    let served = units.first().map_or(0, |u| u.served);
    (samples(&units, setup), reference.diagnostics, served)
}

/// Everything the per-layer metrics are computed from.
struct TracedRuns {
    untraced_wall_s: f64,
    traced: Unit,
    /// Span logs of the traced unit (one per run; four for the sweep).
    spans: Vec<Spans>,
    /// Index into `spans` of the run the replays mirror.
    replayed_run: usize,
    probe: SnapshotProbe,
    world: greenmatch::World,
    /// Whether the traced run synthesised requests inside Execute (false
    /// on a memoised world).
    synthesised: bool,
}

/// `--trace 1`, run part: verification, one untraced and one traced unit.
fn traced_runs(args: &Args, ledger: &mut Ledger) -> Option<(TracedRuns, Option<Json>)> {
    let cfg = workloads::config(args.kind, args.seed);
    let mut probe = SnapshotProbe::at(cfg.slots / 2);
    if args.kind == Kind::SweepCached {
        return traced_sweep(args, &cfg, ledger, probe);
    }
    let fed = args.kind == Kind::ServeMega;
    let log = SpanLog::new();
    let reference = verify_run(ledger, &cfg, None);
    let untraced =
        ledger.attempt("untraced run", || workloads::run_fresh(&cfg, fed, None, None, false))?;
    ledger.same_report(reference_check(args.kind), reference.json.as_deref(), &untraced);
    let mut traced = ledger.attempt("traced run", || {
        workloads::run_fresh(&cfg, fed, Some(&log), Some(&mut probe), true)
    })?;
    ledger.same_report("traced == untraced", reference.json.as_deref(), &traced);
    let world = traced.world.take().expect("the traced unit keeps its world");
    let runs = TracedRuns {
        untraced_wall_s: untraced.wall_s,
        traced,
        spans: vec![log.spans()],
        replayed_run: 0,
        probe,
        world,
        synthesised: true,
    };
    Some((runs, reference.diagnostics))
}

fn traced_sweep(
    args: &Args,
    cfg: &greenmatch::ExperimentConfig,
    ledger: &mut Ledger,
    probe: SnapshotProbe,
) -> Option<(TracedRuns, Option<Json>)> {
    let (world, _, _) = ledger.attempt("set-up", || workloads::fill_global_cache(cfg))?;
    let reference = verify_run(ledger, cfg, Some(world.clone()));
    let untraced = ledger.attempt("untraced sweep", || workloads::run_sweep(args.seed))?;
    let logs: Vec<SpanLog> = untraced.reports.iter().map(|_| SpanLog::new()).collect();
    let shared_probe = Arc::new(Mutex::new(probe));
    let traced = ledger
        .attempt("traced sweep", || workloads::run_sweep_traced(args.seed, &logs, &shared_probe))?;
    ledger.attempted += (untraced.reports.len() + traced.reports.len()) as u64 - 2;
    let mut expected: Vec<(String, String)> =
        untraced.reports.iter().map(|(t, r)| (t.clone(), gate::report_json(r))).collect();
    ledger.same_tagged("traced == untraced", &expected, &traced);
    expected.clear();
    expected.extend(reference.json.iter().map(|gm| (cfg.policy.label(), gm.clone())));
    ledger.same_tagged("sweep == audited run", &expected, &traced);
    let replayed_run = traced
        .reports
        .iter()
        .position(|(t, _)| *t == cfg.policy.label())
        .expect("the sweep has a greenmatch run");
    let probe = std::mem::take(&mut *shared_probe.lock().expect("probe"));
    let runs = TracedRuns {
        untraced_wall_s: untraced.wall_s,
        traced,
        spans: logs.iter().map(SpanLog::spans).collect(),
        replayed_run,
        probe,
        world,
        synthesised: false,
    };
    Some((runs, reference.diagnostics))
}

/// `--trace 1`: the per-layer metrics, as `name -> [value, unit]`.
fn run_traced(args: &Args, ledger: &mut Ledger) -> (Json, Option<Json>, u64) {
    let cfg = workloads::config(args.kind, args.seed);
    let Some((runs, diagnostics)) = traced_runs(args, ledger) else {
        return (Json::obj(), None, 0);
    };
    let gears = &runs.traced.reports[runs.replayed_run].1.gears_series;
    let Some(r) = ledger.attempt("layer replays", || replay::replay(&cfg, &runs.world, gears))
    else {
        return (Json::obj(), diagnostics, runs.traced.served);
    };
    let parts = replay::world_parts(&cfg);

    let mut layers = Json::obj();
    let mut put = |name: &str, value: f64, unit: &str| {
        layers.set(name, Json::Arr(vec![Json::Num(value), Json::Str(unit.into())]));
    };

    // Phase spans (greenmatch::phases), over every traced run.
    let slots: usize = runs.spans.iter().map(|s| s.steps.len()).sum();
    let step_ns: u64 = runs.spans.iter().flat_map(|s| s.steps.iter()).sum();
    let phase_ns: Vec<u64> =
        (0..PHASES.len()).map(|p| runs.spans.iter().map(|s| s.phase_total(p)).sum()).collect();
    let all_phases: u64 = phase_ns.iter().sum();
    for (p, (_, name)) in PHASES.iter().enumerate() {
        put(
            &format!("core.{name}.ms_per_slot"),
            phase_ns[p] as f64 / slots.max(1) as f64 / 1e6,
            "ms",
        );
        put(&format!("core.{name}.share"), phase_ns[p] as f64 / all_phases.max(1) as f64, "ratio");
    }

    // gm-workload.
    let slots_f = cfg.slots.max(1) as f64;
    let reqs = r.requests.max(1) as f64;
    put("workload.cursor.us_per_slot", r.cursor_ns as f64 / slots_f / 1e3, "us");
    put("workload.live_streams", r.live_streams_sum as f64 / slots_f, "count");
    put("workload.synth.ns_per_req", r.synth_ns as f64 / reqs, "ns");
    put("workload.synth.shards", r.max_shards as f64, "count");
    put("workload.batch_build.ns_per_req", r.batch_build_ns as f64 / reqs, "ns");
    put("workload.feed.send_ms", r.feed_send_ns as f64 / slots_f / 1e6, "ms");
    put("workload.requests_per_slot", r.requests as f64 / slots_f, "count");

    // gm-storage and gm-sim.
    let lookups = r.cache_hits + r.cache_misses;
    put("storage.serve.ns_per_req", r.serve_ns as f64 / reqs, "ns");
    put("storage.cache.hit_ratio", r.cache_hits as f64 / lookups.max(1) as f64, "ratio");
    put("storage.cache.lookups", lookups as f64, "count");
    put("storage.end_slot.us_per_slot", r.end_slot_ns as f64 / slots_f / 1e3, "us");
    put("storage.tier_step.us_per_slot", r.tier_step_ns as f64 / slots_f / 1e3, "us");
    put("sim.hist.ns_per_record", r.hist_record_ns as f64 / reqs, "ns");
    put("sim.hist.merge_us", r.hist_merge_ns as f64 / slots_f / 1e3, "us");

    // greenmatch::world and snapshot.
    put("world.workload_gen_s", parts.workload_gen_s, "s");
    put("world.trace_s", parts.trace_s, "s");
    put("world.layout_s", parts.layout_s, "s");
    let cache = greenmatch::WorldCache::global();
    put("world.cache.hits", cache.hits() as f64, "count");
    put("world.cache.misses", cache.misses() as f64, "count");
    put("core.snapshot.ms", runs.probe.snapshot_ms, "ms");
    put("core.snapshot.bytes", runs.probe.bytes as f64, "bytes");
    put("core.resume.ms", runs.probe.resume_ms, "ms");

    // gm-bench / gm_sim::pool: the sweep's own job closures.
    let width = gm_sim::WorkPool::global().width();
    put("bench.pool.width", width as f64, "count");
    let busy = &runs.traced.busy_s;
    let (util, straggle) = if busy.is_empty() {
        (0.0, 0.0)
    } else {
        let max = busy.iter().cloned().fold(f64::MIN, f64::max);
        let min = busy.iter().cloned().fold(f64::MAX, f64::min);
        (busy.iter().sum::<f64>() / (runs.traced.wall_s * width as f64), max / min)
    };
    put("bench.pool.util", util, "ratio");
    put("bench.run.max_over_min", straggle, "ratio");

    // Accounting.
    let overhead = (runs.traced.wall_s - runs.untraced_wall_s) / runs.untraced_wall_s * 100.0;
    put("trace.overhead_pct", overhead, "%");
    put("trace.phase_coverage", all_phases as f64 / step_ns.max(1) as f64, "ratio");
    let execute = runs.spans[runs.replayed_run].phase_total(EXECUTE);
    let replayed = if runs.synthesised { r.synth_ns } else { 0 }
        + r.serve_ns
        + r.hist_record_ns
        + r.hist_merge_ns;
    put("trace.execute_coverage", replayed as f64 / execute.max(1) as f64, "ratio");
    put("trace.step.ms_per_slot", step_ns as f64 / slots.max(1) as f64 / 1e6, "ms");
    (layers, diagnostics, runs.traced.served)
}

fn main() {
    let args = parse_args();
    // Thread budget: pool workers plus the helping submitter stay within
    // the host's cores. `gm-serve`'s feed producer is mostly idle and not
    // counted. A width of 1 turns sharded synthesis off.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    gm_bench::set_max_workers(nproc.saturating_sub(1).max(1));
    let width = gm_sim::WorkPool::global().width();
    eprintln!(
        "perfbench: {} seed {} ({}s, trace {}), nproc {nproc}, pool width {width}{}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if width == 1 { " (sharded synthesis off)" } else { "" }
    );

    let mut ledger = Ledger::default();
    let t = Instant::now();
    let (body, diagnostics, served) =
        if args.trace { run_traced(&args, &mut ledger) } else { run_timed(&args, &mut ledger) };
    let cfg = workloads::config(args.kind, args.seed);

    let mut provenance = Json::obj();
    provenance
        .set("nproc", nproc)
        .set("pool_width", width)
        .set("sharded_synthesis", width > 1)
        .set("seed", args.seed)
        .set("slots", cfg.slots)
        .set("requests_per_unit", served)
        .set("invocation_s", t.elapsed().as_secs_f64());
    let mut out = Json::obj();
    out.set("workload", args.kind.name())
        .set("trace", args.trace)
        .set("correct", ledger.correct())
        .set("attempted", ledger.attempted)
        .set("failed", ledger.failed)
        .set("checks", Json::Arr(std::mem::take(&mut ledger.checks)))
        .set("diagnostics", diagnostics.unwrap_or(Json::Null))
        .set("provenance", provenance)
        .set(if args.trace { "layers" } else { "samples" }, body);
    println!("{}", out.render());
}
