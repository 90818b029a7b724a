//! Snapshot/branch/resume contract tests.
//!
//! A checkpoint taken mid-run and restored under the same config must be
//! *invisible*: the resumed run emits exactly the trace bytes the cold run
//! would have emitted from that slot onward, and finishes with an
//! identical report. Restoring under a variant config (different policy,
//! battery) branches the checkpoint into a what-if continuation that must
//! still satisfy every conservation invariant. These tests pin both
//! halves of the contract, plus the rejection rules for snapshots that
//! cannot be resumed safely.

use std::io::Write;
use std::sync::{Arc, Mutex};

use greenmatch::config::ExperimentConfig;
use greenmatch::observe::{CsvSeriesObserver, JsonlTraceObserver};
use greenmatch::policy::PolicyKind;
use greenmatch::report::RunReport;
use greenmatch::simulation::Simulation;
use greenmatch::Snapshot;

/// `io::Write` sink whose bytes remain reachable after the observer (and
/// the simulation that owns it) is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const ALL_POLICIES: [PolicyKind; 8] = [
    PolicyKind::AllOn,
    PolicyKind::PowerProportional,
    PolicyKind::Edf,
    PolicyKind::GreedyGreen,
    PolicyKind::GreenMatch { delay_fraction: 1.0 },
    PolicyKind::GreenMatch { delay_fraction: 0.3 },
    PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 12 },
    PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
];

/// Run `cfg` cold to completion with a JSONL trace attached; return the
/// trace bytes and the final report.
fn cold_run(cfg: &ExperimentConfig) -> (Vec<u8>, RunReport) {
    let buf = SharedBuf::default();
    let report = Simulation::builder(cfg)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("config materialises")
        .run_to_end();
    (buf.contents(), report)
}

/// Run `cfg` up to (not including) `slot` and return the snapshot taken
/// there, after pushing it through a JSON round-trip so the serialized
/// form — not just the in-memory struct — is what gets restored.
fn snapshot_at(cfg: &ExperimentConfig, slot: usize) -> Snapshot {
    let mut sim = Simulation::builder(cfg).build().expect("config materialises");
    for _ in 0..slot {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = sim.snapshot();
    assert_eq!(snap.cursor, slot);
    Snapshot::from_json(&snap.to_json()).expect("snapshot survives a JSON round-trip")
}

/// The trailing bytes of a JSONL trace starting at line `from`.
fn trace_suffix(trace: &[u8], from: usize) -> Vec<u8> {
    let text = std::str::from_utf8(trace).expect("trace is UTF-8");
    let mut out = String::new();
    for line in text.lines().skip(from) {
        out.push_str(line);
        out.push('\n');
    }
    out.into_bytes()
}

#[test]
fn resumed_trace_is_byte_identical_for_every_policy() {
    for policy in ALL_POLICIES {
        let cfg = ExperimentConfig::small_demo(7).with_slots(48).with_policy(policy);
        let (cold_trace, cold_report) = cold_run(&cfg);
        let snap = snapshot_at(&cfg, 20);

        let buf = SharedBuf::default();
        let resumed_report = Simulation::builder(&cfg)
            .resume_from(&snap)
            .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
            .build()
            .expect("snapshot restores under its own config")
            .run_to_end();

        assert_eq!(
            buf.contents(),
            trace_suffix(&cold_trace, 20),
            "{policy:?}: resumed trace diverged from the cold run's suffix"
        );
        assert_eq!(
            serde_json::to_string(&resumed_report).unwrap(),
            serde_json::to_string(&cold_report).unwrap(),
            "{policy:?}: resumed report diverged from the cold run's"
        );
    }
}

#[test]
fn prefix_plus_resumed_trace_concatenates_to_the_cold_trace() {
    // The golden-trace config: interrupting it at an arbitrary slot and
    // appending the resumed output must reproduce the cold file byte for
    // byte — the property `run_once --checkpoint-every/--resume` relies on.
    let cfg = ExperimentConfig::small_demo(42);
    let (cold_trace, _) = cold_run(&cfg);

    let prefix = SharedBuf::default();
    let mut sim = Simulation::builder(&cfg)
        .observer(Box::new(JsonlTraceObserver::new(prefix.clone())))
        .build()
        .expect("config materialises");
    for _ in 0..13 {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = Snapshot::from_json(&sim.snapshot().to_json()).expect("round-trip");
    drop(sim);

    let tail = SharedBuf::default();
    Simulation::builder(&cfg)
        .resume_from(&snap)
        .observer(Box::new(JsonlTraceObserver::new(tail.clone())))
        .build()
        .expect("snapshot restores")
        .run_to_end();

    let mut stitched = prefix.contents();
    stitched.extend_from_slice(&tail.contents());
    assert_eq!(stitched, cold_trace, "prefix + resumed trace must equal the cold trace");
}

#[test]
fn csv_resume_appends_without_a_second_header() {
    let cfg = ExperimentConfig::small_demo(42);

    let cold = SharedBuf::default();
    Simulation::builder(&cfg)
        .observer(Box::new(CsvSeriesObserver::new(cold.clone())))
        .build()
        .expect("config materialises")
        .run_to_end();

    let prefix = SharedBuf::default();
    let mut sim = Simulation::builder(&cfg)
        .observer(Box::new(CsvSeriesObserver::new(prefix.clone())))
        .build()
        .expect("config materialises");
    for _ in 0..13 {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = sim.snapshot();
    drop(sim);

    let tail = SharedBuf::default();
    Simulation::builder(&cfg)
        .resume_from(&snap)
        .observer(Box::new(CsvSeriesObserver::new(tail.clone())))
        .build()
        .expect("snapshot restores")
        .run_to_end();

    let mut stitched = prefix.contents();
    stitched.extend_from_slice(&tail.contents());
    assert_eq!(
        stitched,
        cold.contents(),
        "prefix + resumed CSV must equal the cold CSV (exactly one header row)"
    );
}

#[test]
fn auditor_is_clean_across_a_restore() {
    let cfg = ExperimentConfig::small_demo(11)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let snap = snapshot_at(&cfg, 20);

    let sim = Simulation::builder(&cfg).resume_from(&snap).build().expect("snapshot restores");
    let (sim, report) = sim.run_audited();
    assert!(report.is_clean(), "resumed run violated conservation: {report:?}");
    assert_eq!(report.slots_audited, 48 - 20, "auditor sees only the resumed slots");
    assert!(sim.is_done());
}

#[test]
fn multi_site_resume_is_byte_identical_and_clean() {
    let base = ExperimentConfig::small_demo(7)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let mut sites = base.sites.clone();
    let mut east = sites[0].clone();
    east.name = "east".into();
    east.utc_offset_hours = 8;
    sites.push(east);
    let cfg = base.with_sites(sites).with_wan_cost(200);

    let (cold_trace, cold_report) = cold_run(&cfg);
    let snap = snapshot_at(&cfg, 20);

    let buf = SharedBuf::default();
    let sim = Simulation::builder(&cfg)
        .resume_from(&snap)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("snapshot restores");
    let (sim, audit) = sim.run_audited();
    let resumed_report = sim.into_report();

    assert!(audit.is_clean(), "multi-site resumed run violated conservation: {audit:?}");
    assert_eq!(
        buf.contents(),
        trace_suffix(&cold_trace, 20),
        "multi-site resumed trace diverged from the cold run's suffix"
    );
    assert_eq!(
        serde_json::to_string(&resumed_report).unwrap(),
        serde_json::to_string(&cold_report).unwrap(),
        "multi-site resumed report diverged from the cold run's"
    );
}

#[test]
fn branched_variants_complete_and_conserve() {
    // Take one checkpoint under GreenMatch, then branch it into what-if
    // continuations: a different policy, a bigger battery, no battery.
    // Each branch must run to completion with a clean audit.
    let base = ExperimentConfig::small_demo(11)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let snap = snapshot_at(&base, 20);

    let mut doubled = base.sites[0].battery.expect("small_demo has a battery");
    doubled.capacity_wh *= 2.0;
    let variants: Vec<(&str, ExperimentConfig)> = vec![
        ("policy→AllOn", base.clone().with_policy(PolicyKind::AllOn)),
        ("policy→Edf", base.clone().with_policy(PolicyKind::Edf)),
        ("battery→double", base.clone().with_battery(doubled)),
        ("battery→none", base.clone().with_battery(None)),
    ];

    for (name, cfg) in variants {
        let sim = Simulation::builder(&cfg)
            .resume_from(&snap)
            .build()
            .unwrap_or_else(|e| panic!("{name}: branch must restore: {e:?}"));
        let (sim, report) = sim.run_audited();
        assert!(report.is_clean(), "{name}: branched run violated conservation: {report:?}");
        assert_eq!(report.slots_audited, 48 - 20);
        let r = sim.into_report();
        assert_eq!(r.slots, 48, "{name}: branch must account for the full horizon");
    }
}

#[test]
fn branching_the_policy_actually_diverges() {
    // Sanity check that branches are real continuations, not clones: the
    // same checkpoint resumed under AllOn must emit a different trace
    // than resumed under GreenMatch.
    let base = ExperimentConfig::small_demo(7)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let snap = snapshot_at(&base, 20);

    let mut tails = Vec::new();
    for cfg in [base.clone(), base.clone().with_policy(PolicyKind::AllOn)] {
        let buf = SharedBuf::default();
        Simulation::builder(&cfg)
            .resume_from(&snap)
            .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
            .build()
            .expect("snapshot restores")
            .run_to_end();
        tails.push(buf.contents());
    }
    assert_ne!(tails[0], tails[1], "policy branch produced an identical continuation");
}

#[test]
fn resume_rejects_a_different_world() {
    let cfg = ExperimentConfig::small_demo(7).with_slots(48);
    let snap = snapshot_at(&cfg, 10);

    // Seed and horizon changes alter the world keys: the checkpointed
    // state would replay a workload/trace it never saw. Both must refuse.
    for (name, bad) in [
        ("different seed", cfg.clone().with_seed(8)),
        ("different horizon", cfg.clone().with_slots(96)),
    ] {
        let err = Simulation::builder(&bad)
            .resume_from(&snap)
            .build()
            .err()
            .unwrap_or_else(|| panic!("{name}: resume must be rejected"));
        let msg = format!("{err:?}");
        assert!(msg.contains("different world"), "{name}: unexpected error {msg}");
    }
}

#[test]
fn resume_rejects_unknown_versions_and_corrupt_json() {
    let cfg = ExperimentConfig::small_demo(7).with_slots(48);
    let mut snap = snapshot_at(&cfg, 10);
    snap.version = greenmatch::SNAPSHOT_VERSION + 1;

    let err = Snapshot::from_json(&snap.to_json()).expect_err("future version must be rejected");
    assert!(err.contains("version"), "unexpected error {err}");

    let err = Simulation::builder(&cfg)
        .resume_from(&snap)
        .build()
        .err()
        .expect("builder must also reject a future version");
    assert!(format!("{err:?}").contains("version"));

    let err = Snapshot::from_json("{not json").expect_err("corrupt snapshot must be rejected");
    assert!(err.contains("malformed"), "unexpected error {err}");
}

#[test]
fn snapshot_save_load_round_trips_on_disk() {
    let cfg = ExperimentConfig::small_demo(7).with_slots(48);
    let snap = snapshot_at(&cfg, 10);

    let dir = std::env::temp_dir().join(format!("gm-snapshot-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("checkpoint.json");
    snap.save(&path).expect("snapshot saves");
    let loaded = Snapshot::load(&path).expect("snapshot loads");
    assert_eq!(loaded.to_json(), snap.to_json(), "disk round-trip must be lossless");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Insert `keys` (comma-separated `"key":value` pairs) as the first
/// members of the JSON object that starts at the first `{` at or after
/// byte `from`.
fn inject_keys(json: &str, from: usize, keys: &str) -> String {
    let open = from + json[from..].find('{').expect("an object follows") + 1;
    format!("{}{keys},{}", &json[..open], &json[open..])
}

#[test]
fn archived_json_with_retired_knob_keys_loads_and_runs_identically() {
    // Configs and checkpoints written while the matcher warm-start,
    // per-site fan-out and self-replay feed switches existed may carry
    // their keys. Unknown keys are ignored on load, and the run is the
    // default run byte for byte.
    let base = ExperimentConfig::small_demo(7)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let mut sites = base.sites.clone();
    let mut east = sites[0].clone();
    east.name = "east".into();
    east.utc_offset_hours = 8;
    sites.push(east);
    let cfg = base.with_sites(sites).with_wan_cost(200);
    let cfg_json = serde_json::to_string(&cfg).unwrap();
    let (cold_trace, cold_report) = cold_run(&cfg);
    let cold_report = serde_json::to_string(&cold_report).unwrap();

    let retired =
        [r#""matcher_warm_start":false"#, r#""site_parallel":false"#, r#""feed_arrivals":true"#];
    let all = retired.join(",");
    for keys in retired.iter().copied().chain([all.as_str()]) {
        let archived = inject_keys(&cfg_json, 0, keys);
        let old: ExperimentConfig = serde_json::from_str(&archived)
            .unwrap_or_else(|e| panic!("{keys}: archived config must load: {e}"));
        assert_eq!(serde_json::to_string(&old).unwrap(), cfg_json, "{keys}: key is dropped");
    }
    let old: ExperimentConfig = serde_json::from_str(&inject_keys(&cfg_json, 0, &all)).unwrap();
    let (trace, report) = cold_run(&old);
    assert_eq!(trace, cold_trace, "archived config's trace diverged");
    assert_eq!(serde_json::to_string(&report).unwrap(), cold_report);

    let snap_json = snapshot_at(&cfg, 20).to_json();
    let cfg_at = snap_json.find("\"cfg\"").expect("snapshot embeds its config");
    let archived = inject_keys(&snap_json, cfg_at, &all);
    let snap = Snapshot::from_json(&archived).expect("archived snapshot must load");
    assert_eq!(snap.to_json(), snap_json, "retired keys are dropped on load");
    let buf = SharedBuf::default();
    let resumed = Simulation::builder(&snap.cfg)
        .resume_from(&snap)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("archived snapshot restores")
        .run_to_end();
    assert_eq!(buf.contents(), trace_suffix(&cold_trace, 20), "resumed trace diverged");
    assert_eq!(serde_json::to_string(&resumed).unwrap(), cold_report);
}
