//! Randomized conservation-auditor fuzz harness.
//!
//! Runs many short simulations over randomly sampled configurations
//! (sites × chemistry × discharge × forecaster × policy × WAN cost ×
//! failures, see `gm_bench::fuzzgen`), each under the per-slot
//! [`ConservationAuditor`](greenmatch::audit::ConservationAuditor) plus
//! the post-run deep audit, and fails loudly on any violation.
//!
//! ```text
//! fuzz                          # 500 cases, seed 42
//! fuzz --cases 40 --seed 7      # CI smoke shape
//! fuzz --out violations.json    # archive violations as JSON
//! fuzz --split                  # also checkpoint/restore each case at a
//!                               # random slot and require the resumed
//!                               # trace to be byte-identical
//! ```
//!
//! Cases are deterministic in `(seed, case index)`: a failure report names
//! the case, and `--seed S` replays it exactly. Exit code 1 if any case
//! produced violations.

use gm_bench::fuzzgen;
use proptest::test_runner::TestRng;
use serde::Serialize;

fn usage() -> ! {
    eprintln!("usage: fuzz [--cases N] [--seed N] [--out FILE] [--split]");
    std::process::exit(2)
}

/// One failed case in the archived JSON report.
#[derive(Serialize)]
struct FailedCase {
    case: u32,
    config: String,
    slots_audited: usize,
    violations: Vec<greenmatch::audit::AuditViolation>,
    suppressed: usize,
}

fn main() {
    let mut cases: u32 = 500;
    let mut seed: u64 = 42;
    let mut out: Option<String> = None;
    let mut split = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cases" => {
                cases = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--split" => split = true,
            _ => usage(),
        }
    }

    let scope = format!("fuzz-{seed}");
    let mut failed: Vec<FailedCase> = Vec::new();
    let mut slots_total = 0usize;
    for case in 0..cases {
        let mut rng = TestRng::for_case(&scope, case);
        let sample = fuzzgen::fuzz_case(&mut rng);
        let label = fuzzgen::describe(&sample);
        let audit = if split {
            // Interrupt the case at a random slot, restore from the
            // serialized checkpoint, and require the stitched trace to
            // match the cold trace byte for byte on top of a clean audit.
            let fork = (rng.next_u64() % (sample.cfg.slots as u64 + 1)) as usize;
            let run = fuzzgen::run_split(&sample, fork);
            if run.stitched_trace != run.cold_trace {
                eprintln!("case {case} FAILED [{label}]: resumed trace diverged at fork {fork}");
                failed.push(FailedCase {
                    case,
                    config: format!("{label} fork={fork}"),
                    slots_audited: run.resumed_audit.slots_audited,
                    violations: Vec::new(),
                    suppressed: 0,
                });
                continue;
            }
            run.resumed_audit
        } else {
            fuzzgen::run_audited(&sample).1
        };
        slots_total += audit.slots_audited;
        if !audit.is_clean() {
            eprintln!("case {case} FAILED [{label}]: {}", audit.summary());
            for v in audit.violations.iter().take(10) {
                eprintln!("  {}", v.render());
            }
            if audit.violations.len() > 10 {
                eprintln!("  ... and {} more", audit.total_violations() - 10);
            }
            failed.push(FailedCase {
                case,
                config: label,
                slots_audited: audit.slots_audited,
                violations: audit.violations,
                suppressed: audit.suppressed,
            });
        }
    }

    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&failed).expect("report serialises");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("violation report written to {path}");
    }
    if failed.is_empty() {
        println!("fuzz: {cases} cases clean (seed {seed}, {slots_total} slots audited)");
    } else {
        println!("fuzz: {}/{cases} cases FAILED (seed {seed})", failed.len());
        std::process::exit(1);
    }
}
