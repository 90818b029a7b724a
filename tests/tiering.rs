//! Temperature-tiering contract tests: classifier-driven migration jobs
//! through the full slot pipeline, byte conservation under the auditor,
//! EC behaviour under failure injection, and snapshot compatibility
//! (tiering-off snapshots stay v1-shaped; v1 snapshots still restore).

use std::io::Write;
use std::sync::{Arc, Mutex};

use greenmatch::config::{ExperimentConfig, TieringConfig};
use greenmatch::observe::JsonlTraceObserver;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;
use greenmatch::Snapshot;

/// `io::Write` sink whose bytes remain reachable after the observer is
/// dropped (same shape as the snapshot tests' helper).
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

fn tiered_cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig::small_demo(seed)
        .with_slots(72)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 })
        .with_tiering(TieringConfig::default())
}

#[test]
fn tiered_run_is_audit_clean_and_reduces_capacity() {
    let cfg = tiered_cfg(11);
    let baseline = Simulation::builder(&cfg.clone().with_tiering(None))
        .build()
        .expect("config materialises")
        .run_to_end();
    let (sim, audit) =
        Simulation::builder(&cfg).build().expect("config materialises").run_audited();
    assert!(audit.is_clean(), "tiered run violated conservation: {}", audit.summary());
    let r = sim.into_report();

    assert!(r.migrations_completed > 0, "cold objects must demote within 72 h");
    assert!(r.ec_objects > 0, "demotions leave objects on erasure coding");
    assert!(r.migrated_bytes > 0);
    assert!((0.0..=1.0).contains(&r.migration_green_share));
    assert!(
        r.capacity_in_use_bytes < baseline.capacity_in_use_bytes,
        "EC tiering must cut raw capacity: {} vs baseline {}",
        r.capacity_in_use_bytes,
        baseline.capacity_in_use_bytes
    );
    // Demand served is unchanged: same interactive trace, same batch pool.
    assert_eq!(r.latency.count, baseline.latency.count);
    assert_eq!(r.batch.jobs_submitted, baseline.batch.jobs_submitted);
}

#[test]
fn tiering_off_reports_no_tier_activity() {
    let r = Simulation::builder(&ExperimentConfig::small_demo(11).with_slots(24))
        .build()
        .expect("config materialises")
        .run_to_end();
    assert_eq!(r.migrations_completed, 0);
    assert_eq!(r.migrated_bytes, 0);
    assert_eq!(r.ec_objects, 0);
    assert_eq!(r.migration_green_share, 0.0);
    // Capacity is the static replicated footprint.
    let cfg = ExperimentConfig::small_demo(11);
    let expected = cfg.sites[0].cluster.objects as u64
        * cfg.sites[0].cluster.replication as u64
        * cfg.sites[0].cluster.object_size_bytes;
    assert_eq!(r.capacity_in_use_bytes, expected);
}

#[test]
fn tiered_run_with_failures_is_audit_clean() {
    // Failure injection on top of tiering: repairs and migrations share
    // the job pool, EC objects lose shards and rebuild, and every byte
    // identity must still hold exactly.
    let mut cfg = tiered_cfg(7).with_policy(PolicyKind::PowerProportional);
    cfg.failures =
        Some(gm_storage::FailureSpec { afr: 60.0, standby_factor: 0.5, spinup_wear_hours: 10.0 });
    let (sim, audit) =
        Simulation::builder(&cfg).build().expect("config materialises").run_audited();
    assert!(audit.is_clean(), "tiered failure run violated conservation: {}", audit.summary());
    let r = sim.into_report();
    assert!(r.failures > 0, "a 60% AFR run must fail disks");
    assert!(r.migrations_completed > 0, "failures must not starve migrations");
}

#[test]
fn tiered_snapshot_resume_is_byte_identical() {
    let cfg = tiered_cfg(7);
    let cold = SharedBuf::default();
    let cold_report = Simulation::builder(&cfg)
        .observer(Box::new(JsonlTraceObserver::new(cold.clone())))
        .build()
        .expect("config materialises")
        .run_to_end();

    // Snapshot mid-run — deliberately deep enough that migrations are in
    // flight — and resume through a JSON round-trip.
    let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
    for _ in 0..30 {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = Snapshot::from_json(&sim.snapshot().to_json()).expect("round-trip");
    drop(sim);

    let tail = SharedBuf::default();
    let resumed_report = Simulation::builder(&cfg)
        .resume_from(&snap)
        .observer(Box::new(JsonlTraceObserver::new(tail.clone())))
        .build()
        .expect("tiered snapshot restores")
        .run_to_end();

    let cold_bytes = cold.contents();
    let text = std::str::from_utf8(&cold_bytes).expect("trace is UTF-8");
    let suffix: String = text.lines().skip(30).flat_map(|l| [l, "\n"]).collect();
    assert_eq!(
        tail.contents(),
        suffix.into_bytes(),
        "tiered resumed trace diverged from the cold run's suffix"
    );
    assert_eq!(
        serde_json::to_string(&resumed_report).unwrap(),
        serde_json::to_string(&cold_report).unwrap(),
        "tiered resumed report diverged from the cold run's"
    );
}

#[test]
fn tiering_off_snapshot_stays_v1_shaped_and_v1_restores() {
    // A tiering-off run must write a snapshot with no migration fields at
    // all (every new field is skip-at-default), so the only difference
    // from a v1 file is the version number — and v1 files themselves must
    // still parse and resume.
    let cfg = ExperimentConfig::small_demo(42);
    let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
    for _ in 0..13 {
        sim.step().expect("prefix shorter than the run");
    }
    let json = sim.snapshot().to_json();
    drop(sim);
    assert!(!json.contains("migration"), "tiering-off snapshot must stay v1-shaped");
    let current = format!("\"version\":{}", greenmatch::SNAPSHOT_VERSION);
    assert!(json.contains(&current));

    // Rewind the version field: apart from the `cfg`, whose older flat
    // form tests/config_upgrade.rs covers, this is what a pre-tiering
    // build would have written.
    let v1_json = json.replace(&current, "\"version\":1");
    let snap = Snapshot::from_json(&v1_json).expect("v1 snapshots must still parse");
    assert_eq!(snap.version, 1);

    let report = Simulation::builder(&cfg)
        .resume_from(&snap)
        .build()
        .expect("v1 snapshot restores")
        .run_to_end();
    let cold = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&cold).unwrap(),
        "v1-resumed report diverged from the cold run's"
    );
}

#[test]
fn tiered_branch_from_untiered_checkpoint_is_rejected() {
    // Tiering changes the home cluster's state shape, so flipping it on
    // (or off) across a resume cannot be a valid branch.
    let base = ExperimentConfig::small_demo(7).with_slots(48);
    let mut sim = Simulation::builder(&base).build().expect("config materialises");
    for _ in 0..10 {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = sim.snapshot();
    drop(sim);

    let tiered = base.with_tiering(TieringConfig::default());
    let err = Simulation::builder(&tiered)
        .resume_from(&snap)
        .build()
        .err()
        .expect("tiering flip must be rejected");
    assert!(format!("{err:?}").contains("tiering"), "unexpected error: {err:?}");
}
