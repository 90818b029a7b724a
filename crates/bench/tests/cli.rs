//! The binaries report unusable input with exit code 2 and a message,
//! never a panic (exit code 101).

use std::path::PathBuf;
use std::process::Command;

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gm-cli-{}-{name}", std::process::id()))
}

/// The two-site legacy fixture with its flat forecast edited so it no
/// longer mirrors `sites[0]`.
fn mismatched_legacy_config() -> String {
    let fixture =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/two_site_legacy_config.json");
    let json = std::fs::read_to_string(fixture).expect("legacy fixture");
    let edited = json
        .replace(r#""forecast":"Oracle","discharge""#, r#""forecast":"Persistence","discharge""#);
    assert_ne!(json, edited, "the edit reaches the flat forecast");
    edited
}

#[test]
fn run_once_exits_2_on_a_mismatched_legacy_config() {
    let path = scratch("mismatched.json");
    std::fs::write(&path, mismatched_legacy_config()).expect("write config");
    let out = Command::new(env!("CARGO_BIN_EXE_run_once"))
        .arg("--config")
        .arg(&path)
        .output()
        .expect("run_once starts");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("bad config"), "{stderr}");
    assert!(stderr.contains("sites[0] disagrees with the flat cluster/energy fields"), "{stderr}");
}

#[test]
fn run_once_exits_2_on_unusable_files_and_a_rejected_build() {
    let missing = scratch("missing.json");
    let out = Command::new(env!("CARGO_BIN_EXE_run_once"))
        .arg("--config")
        .arg(&missing)
        .output()
        .expect("run_once starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_run_once"))
        .args(["--preset", "small", "--slots", "4", "--trace"])
        .arg(scratch("no-such-dir").join("t.jsonl"))
        .output()
        .expect("run_once starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot open trace file"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_run_once"))
        .args(["--preset", "small", "--slots", "0"])
        .output()
        .expect("run_once starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("at least one slot"), "{stderr}");
}

#[test]
fn gm_serve_exits_2_on_a_rejected_build() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--preset", "small", "--slots", "0"])
        .output()
        .expect("serve starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("at least one slot"), "{stderr}");
}
