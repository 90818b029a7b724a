//! Fuzz the conservation auditor across the full configuration space.
//!
//! Each case samples a random experiment (sites, chemistry, discharge
//! strategy, forecaster, policy, WAN cost, failures — the shared
//! `gm_bench::fuzzgen` generator, same one the `fuzz` binary and CI smoke
//! use) and runs it end to end under the per-slot
//! [`ConservationAuditor`](greenmatch::audit::ConservationAuditor) plus
//! the post-run deep audit. Any [`AuditViolation`] fails the case with the
//! offending configuration spelled out. Larger sweeps:
//! `cargo run --release -p gm-bench --bin fuzz -- --cases 500`.

use gm_bench::fuzzgen;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn random_configs_run_clean_under_the_auditor(case in 0u32..10_000) {
        let mut rng = TestRng::for_case("audit-fuzz", case);
        let sample = fuzzgen::fuzz_case(&mut rng);
        let (report, audit) = fuzzgen::run_audited(&sample);

        prop_assert!(
            audit.is_clean(),
            "case {case} [{}]: {}\n{}",
            fuzzgen::describe(&sample),
            audit.summary(),
            audit
                .violations
                .iter()
                .take(10)
                .map(|v| v.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
        prop_assert_eq!(audit.slots_audited, sample.cfg.slots);

        // The audited run still produces a sane report.
        prop_assert!(report.load_kwh >= 0.0);
        prop_assert!((0.0..=1.0).contains(&report.batch.miss_rate()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn random_configs_resume_byte_identically(case in 0u32..10_000) {
        // Snapshot at a random slot (including 0 and the final slot),
        // push the checkpoint through its serialized form, restore, and
        // finish under the auditor: the interruption must be invisible —
        // the stitched trace matches the cold trace byte for byte, the
        // reports are equal, and the resumed half conserves energy.
        let mut rng = TestRng::for_case("resume-fuzz", case);
        let sample = fuzzgen::fuzz_case(&mut rng);
        let fork = (rng.next_u64() % (sample.cfg.slots as u64 + 1)) as usize;
        let split = fuzzgen::run_split(&sample, fork);

        prop_assert!(
            split.resumed_audit.is_clean(),
            "case {case} fork {fork} [{}]: {}\n{}",
            fuzzgen::describe(&sample),
            split.resumed_audit.summary(),
            split
                .resumed_audit
                .violations
                .iter()
                .take(10)
                .map(|v| v.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
        prop_assert_eq!(split.resumed_audit.slots_audited, sample.cfg.slots - fork);
        prop_assert_eq!(
            String::from_utf8_lossy(&split.stitched_trace),
            String::from_utf8_lossy(&split.cold_trace),
            "case {} fork {} [{}]: resumed trace diverged",
            case,
            fork,
            fuzzgen::describe(&sample)
        );
        prop_assert_eq!(
            serde_json::to_string(&split.resumed_report).unwrap(),
            serde_json::to_string(&split.cold_report).unwrap(),
            "case {} fork {} [{}]: resumed report diverged",
            case,
            fork,
            fuzzgen::describe(&sample)
        );
    }
}
