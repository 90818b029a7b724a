//! `sites` is the only site representation; older JSON keeps loading.
//!
//! Configs written before that describe the home site with flat `cluster`
//! and `energy` fields. `greenmatch::config::upgrade_legacy` rewrites them
//! on every decode: archived results, `--config` files and the `cfg`
//! inside older snapshots. These tests pin the upgrade against the
//! archived corpus, a malformed legacy file, and snapshots of every older
//! version, and check that the home-site builders edit only `sites[0]`.

use gm_energy::battery::BatterySpec;
use gm_energy::grid::Grid;
use gm_energy::solar::SolarProfile;
use gm_energy::wind::WindProfile;
use gm_storage::ClusterSpec;
use greenmatch::config::{
    upgrade_legacy, ConfigError, DischargeStrategy, ExperimentConfig, ForecastKind, SourceKind,
};
use greenmatch::simulation::Simulation;
use greenmatch::Snapshot;
use serde_json::Value;

const LEGACY_SMALL_DEMO: &str = "tests/golden/small_demo_legacy_config.json";
const LEGACY_TWO_SITE: &str = "tests/golden/two_site_legacy_config.json";

/// Decode the legacy field at `path`.
fn field<T: serde::Deserialize>(v: &Value, path: &[&str]) -> T {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    T::from_value(cur).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn json_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            json_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
}

#[test]
fn every_archived_config_loads_with_its_flat_site_as_home() {
    let mut files = Vec::new();
    json_files(std::path::Path::new("results/configs"), &mut files);
    assert!(files.len() > 100, "the archived corpus is there ({} files)", files.len());
    for path in files {
        let json = std::fs::read_to_string(&path).expect("readable config");
        let cfg: ExperimentConfig =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let raw: Value = serde_json::from_str(&json).expect("valid JSON");
        let home = &cfg.sites[0];
        let at = path.display();
        assert_eq!(cfg.sites.len(), 1, "{at}");
        assert_eq!(home.name, "site0", "{at}");
        assert_eq!(home.utc_offset_hours, 0, "{at}");
        assert_eq!(home.cluster, field::<ClusterSpec>(&raw, &["cluster"]), "{at}");
        assert_eq!(home.source, field::<SourceKind>(&raw, &["energy", "source"]), "{at}");
        assert_eq!(home.forecast, field::<ForecastKind>(&raw, &["energy", "forecast"]), "{at}");
        assert_eq!(
            home.battery,
            field::<Option<BatterySpec>>(&raw, &["energy", "battery"]),
            "{at}"
        );
        assert_eq!(cfg.grid, field::<Grid>(&raw, &["energy", "grid"]), "{at}");
        assert_eq!(
            cfg.discharge,
            field::<DischargeStrategy>(&raw, &["energy", "discharge"]),
            "{at}"
        );
    }
}

#[test]
fn legacy_home_site_that_disagrees_with_the_flat_fields_is_rejected() {
    let json = std::fs::read_to_string(LEGACY_TWO_SITE).expect("legacy fixture");
    let mismatched = json
        .replace(r#""forecast":"Oracle","discharge""#, r#""forecast":"Persistence","discharge""#);
    assert_ne!(json, mismatched, "the edit reaches the flat forecast");

    let value: Value = serde_json::from_str(&mismatched).expect("valid JSON");
    match upgrade_legacy(&value) {
        Err(ConfigError::Invalid { message }) => {
            assert!(message.contains("sites[0] disagrees"), "{message}")
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    let err = serde_json::from_str::<ExperimentConfig>(&mismatched).expect_err("rejected");
    assert!(err.to_string().contains("sites[0] disagrees"), "{err}");

    // The agreeing original upgrades to its own site list.
    let value: Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(upgrade_legacy(&value).is_ok());
}

#[test]
fn current_configs_pass_through_the_upgrade_unchanged() {
    let cfg = ExperimentConfig::small_demo(42);
    let json = serde_json::to_string(&cfg).unwrap();
    let value: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(upgrade_legacy(&value).expect("current shape"), value);
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn build_rejects_a_site_list_without_a_utc_home() {
    let no_sites = ExperimentConfig::small_demo(1).with_slots(4).with_sites(Vec::new());
    assert!(matches!(Simulation::builder(&no_sites).build(), Err(ConfigError::Invalid { .. })));
    let mut shifted = ExperimentConfig::small_demo(1).with_slots(4);
    shifted.sites[0].utc_offset_hours = 3;
    assert!(matches!(Simulation::builder(&shifted).build(), Err(ConfigError::Invalid { .. })));
}

#[test]
fn snapshots_of_every_older_version_carry_a_legacy_cfg_that_loads() {
    let cfg = ExperimentConfig::small_demo(42).with_slots(48);
    let cold = Simulation::builder(&cfg).build().expect("config materialises").run_to_end();
    let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
    for _ in 0..20 {
        sim.step().expect("slot within the horizon");
    }
    let snap_json = sim.snapshot().to_json();
    let legacy_cfg = std::fs::read_to_string(LEGACY_SMALL_DEMO)
        .expect("legacy fixture")
        .replace("\"slots\":168", "\"slots\":48");
    let current_cfg = serde_json::to_string(&cfg).unwrap();
    assert!(snap_json.contains(&current_cfg), "the snapshot embeds its cfg");

    for version in 1..=3 {
        let old = snap_json.replace(&current_cfg, &legacy_cfg).replace(
            &format!("\"version\":{}", greenmatch::SNAPSHOT_VERSION),
            &format!("\"version\":{version}"),
        );
        let snap = Snapshot::from_json(&old).unwrap_or_else(|e| panic!("v{version}: {e}"));
        assert_eq!(snap.version, version);
        assert_eq!(serde_json::to_string(&snap.cfg).unwrap(), current_cfg, "v{version}");
        let resumed = Simulation::builder(&snap.cfg)
            .resume_from(&snap)
            .build()
            .expect("older snapshot resumes")
            .run_to_end();
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "v{version} resume diverged from the cold run"
        );
    }
}

#[test]
fn home_site_builders_edit_only_the_home_site() {
    let json = std::fs::read_to_string(LEGACY_TWO_SITE).expect("legacy fixture");
    let two: ExperimentConfig = serde_json::from_str(&json).expect("legacy config loads");
    let two = two.with_slots(6);
    assert_eq!(two.sites.len(), 2);
    let edits = [
        ("with_source", two.clone().with_source(SourceKind::None)),
        ("with_solar", two.clone().with_solar(40.0, SolarProfile::CloudySummer)),
        ("with_wind", two.clone().with_wind(9_000.0, WindProfile::SteadyCoastal)),
        ("with_battery", two.clone().with_battery(None)),
        ("with_forecast", two.clone().with_forecast(ForecastKind::Noisy { cv: 0.2 })),
    ];
    for (name, edited) in edits {
        assert_ne!(edited.sites[0], two.sites[0], "{name} edits the home site");
        assert_eq!(edited.sites[1..], two.sites[1..], "{name} leaves the other sites alone");
        Simulation::builder(&edited).build().unwrap_or_else(|e| panic!("{name}: {e}")).run_to_end();
    }
}
