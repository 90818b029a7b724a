//! End-to-end trace substitution: a measured-style supply CSV drives a full
//! run through `SourceKind::TraceCsv`, and a custom batch-job CSV replaces
//! the synthetic batch population.

use gm_energy::traces::{trace_from_csv, trace_to_csv};
use gm_sim::{SlotClock, TimeSeries};
use gm_workload::trace::{batch_jobs_from_csv, batch_jobs_to_csv, Workload, WorkloadSpec};
use greenmatch::config::{ExperimentConfig, SourceKind};
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

#[test]
fn supply_trace_csv_drives_a_full_run() {
    // Author a 48-slot square-wave "measured" trace: 2 kW during 08:00–18:00.
    let clock = SlotClock::hourly();
    let values: Vec<f64> =
        (0..48).map(|s| if (8..18).contains(&(s % 24)) { 2_000.0 } else { 0.0 }).collect();
    let trace = TimeSeries::from_values(clock, values);
    let dir = std::env::temp_dir().join(format!("gm-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("measured.csv");
    std::fs::write(&path, trace_to_csv(&trace)).expect("write trace");

    let mut cfg = ExperimentConfig::small_demo(9);
    cfg.slots = 48;
    cfg.policy = PolicyKind::GreenMatch { delay_fraction: 1.0 };
    cfg.sites[0].source =
        SourceKind::TraceCsv { label: "square".into(), path: path.to_string_lossy().into_owned() };
    let r = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();

    // Exactly the trace's energy was produced: 2 kW × 10 h × 2 days.
    assert!((r.green_produced_kwh - 40.0).abs() < 1e-6, "{}", r.green_produced_kwh);
    assert_eq!(r.source, "trace:square");
    // And the materialised trace round-trips through the parser.
    let parsed =
        trace_from_csv(&std::fs::read_to_string(&path).expect("read"), clock).expect("parse");
    assert_eq!(parsed.values().len(), 48);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_source_zero_pads_beyond_file_end() {
    let clock = SlotClock::hourly();
    let trace = TimeSeries::from_values(clock, vec![500.0; 24]); // one day only
    let dir = std::env::temp_dir().join(format!("gm-trace-pad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("short.csv");
    std::fs::write(&path, trace_to_csv(&trace)).expect("write");

    let mut cfg = ExperimentConfig::small_demo(3);
    cfg.slots = 72; // three days, trace covers one
    cfg.sites[0].source =
        SourceKind::TraceCsv { label: "short".into(), path: path.to_string_lossy().into_owned() };
    let r = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
    // Day 1 produced 12 kWh; days 2–3 produced nothing.
    assert!((r.green_produced_kwh - 12.0).abs() < 1e-6, "{}", r.green_produced_kwh);
    assert!(r.green_series_wh[30] == 0.0 && r.green_series_wh[60] == 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_trace_substitution_roundtrips_through_generation() {
    // The synthetic population, exported and re-imported, produces an
    // identical workload object — the substitution path is lossless.
    let spec = WorkloadSpec::small_week(500);
    let original = Workload::generate(spec.clone(), 17);
    let csv = batch_jobs_to_csv(original.batch_jobs());
    let substituted =
        Workload::generate(spec, 17).with_batch_jobs(batch_jobs_from_csv(&csv).expect("parse"));
    assert_eq!(original.batch_jobs(), substituted.batch_jobs());
    assert_eq!(original.total_batch_bytes(), substituted.total_batch_bytes());
}

#[test]
fn config_with_trace_source_roundtrips_json() {
    let mut cfg = ExperimentConfig::small_demo(1);
    cfg.sites[0].source =
        SourceKind::TraceCsv { label: "x".into(), path: "/tmp/nonexistent.csv".into() };
    let json = serde_json::to_string(&cfg).expect("serialise");
    let back: ExperimentConfig = serde_json::from_str(&json).expect("parse");
    match &back.sites[0].source {
        SourceKind::TraceCsv { label, path } => {
            assert_eq!(label, "x");
            assert_eq!(path, "/tmp/nonexistent.csv");
        }
        other => panic!("wrong variant: {other:?}"),
    }
}
