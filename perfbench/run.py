#!/usr/bin/env python3
"""Host-time benchmark of the GreenMatch simulator.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload week_cold --seed 1 --seconds 10 --trace 0

builds `perfbench/` (a cargo package of its own, target dir
`$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload and prints
as its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` gives the end-to-end
metrics of untraced runs, `--trace 1` the per-layer metrics of a traced
run. The line before it carries the provenance (revision, nproc, pool
width, rustc, seed, slots, requests). `--out FILE` appends the whole
record to a JSON-lines file for `compare`.

Other commands:

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl   # verdict per workload and metric
    python3 perfbench/run.py manifest > BENCHMARK.json      # the benchmark's declaration
    python3 perfbench/run.py record-reference               # rewrite perfbench/reference.json

See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_SECONDS = 15
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# The binary must finish well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 170
REFERENCE_SEED = 1

WORKLOADS = [
    ("week_cold", "cold medium week through the batch cursor: synthesis and the serve chain fill Execute; Plan and Classify are near zero"),
    ("serve_mega", "service mode on the mega population: 1e6 streams, live set past the shard threshold, event feed, admission gate, noisy forecast bands"),
    ("sweep_cached", "policy sweep on the job pool over a memoised world: synthesis skipped, serve chain, runner and pool carry the time"),
    ("geo_tiered", "three sites over four weeks with tiering and failures, light traffic: Classify, Plan and per-site Execute carry the time"),
]

# End-to-end metrics: name, unit, better, bound (share of the parent median).
# On a shared 2-core host, ten seeds of one workload spread by up to 0.14
# (quartile distance over median) in host time, and the host's speed drifts
# by more than that within minutes; hence the widest bound the benchmark
# may set on every timing. Peak RSS moves only with the seed's workload.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("step_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

PHASES = ["forecast", "classify", "admission", "plan", "gear", "execute", "settle"]

# Per-layer metrics of the traced run: name, unit, better.
PER_LAYER = (
    [(f"core.{p}.ms_per_slot", "ms", "lower") for p in PHASES]
    + [(f"core.{p}.share", "ratio", "lower") for p in PHASES]
    + [
        ("workload.cursor.us_per_slot", "us", "lower"),
        ("workload.live_streams", "count", "lower"),
        ("workload.synth.ns_per_req", "ns", "lower"),
        ("workload.synth.shards", "count", "higher"),
        ("workload.batch_build.ns_per_req", "ns", "lower"),
        ("workload.feed.send_ms", "ms", "lower"),
        ("workload.requests_per_slot", "count", "higher"),
        ("storage.serve.ns_per_req", "ns", "lower"),
        ("storage.cache.hit_ratio", "ratio", "higher"),
        ("storage.cache.lookups", "count", "higher"),
        ("storage.end_slot.us_per_slot", "us", "lower"),
        ("storage.tier_step.us_per_slot", "us", "lower"),
        ("sim.hist.ns_per_record", "ns", "lower"),
        ("sim.hist.merge_us", "us", "lower"),
        ("world.workload_gen_s", "s", "lower"),
        ("world.trace_s", "s", "lower"),
        ("world.layout_s", "s", "lower"),
        ("world.cache.hits", "count", "higher"),
        ("world.cache.misses", "count", "lower"),
        ("core.snapshot.ms", "ms", "lower"),
        ("core.snapshot.bytes", "bytes", "lower"),
        ("core.resume.ms", "ms", "lower"),
        ("bench.pool.width", "count", "higher"),
        ("bench.pool.util", "ratio", "higher"),
        ("bench.run.max_over_min", "ratio", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.phase_coverage", "ratio", "higher"),
        ("trace.execute_coverage", "ratio", "higher"),
        ("trace.step.ms_per_slot", "ms", "lower"),
    ]
)


def manifest():
    """The benchmark's declaration, as committed in BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --- statistics ------------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples`, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def tail_percentile(samples):
    """The highest of p99/p95/p90/p75 that has MIN_BEYOND samples beyond
    it, as (q, value), or None."""
    for q in (0.99, 0.95, 0.9, 0.75):
        v = percentile(samples, q)
        if v is not None:
            return q, v
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(samples):
    """End-to-end metrics from the binary's raw samples."""
    steps = samples["step_ms"]
    step_p50, step_p90 = percentile(steps, 0.5), percentile(steps, 0.9)
    if step_p90 is None:
        raise ValueError(f"too few steps for a p90: {len(steps)}")
    values = {
        "wall_s": statistics.median(samples["wall_s"]),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "step_p50_ms": step_p50,
        "step_p90_ms": step_p90,
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}


def per_layer(layers):
    """Per-layer metrics from the binary's `name -> [value, unit]` map."""
    out = {}
    for name, unit, _ in PER_LAYER:
        value, got_unit = layers[name]
        if got_unit != unit:
            raise ValueError(f"{name}: unit {got_unit}, declared {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def result_line(correct, attempted, failed, metrics):
    """The benchmark's result object; raises if it breaks the schema."""
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    check_result(result)
    return result


def check_result(result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            raise ValueError(f"{k} must be a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"{name}: keys {sorted(m)}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name}: value {v!r} is not a finite number")


# --- build, provenance, run ------------------------------------------------


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "gm-perfbench")


def source_digest(root):
    """sha256 over the simulator's and the benchmark's sources (the
    revision when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".rs", ".toml", ".lock", ".py", ".json"))]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(raw, args):
    p = dict(raw["provenance"])
    p.update({
        "workload": args["workload"],
        "trace": args["trace"],
        "seconds": args["seconds"],
        "git_revision": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_digest": source_digest(os.getcwd()),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
    })
    return p


def load_reference():
    try:
        with open(os.path.join(HERE, "reference.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def report_diagnostics(workload, seed, diagnostics):
    """Print the model outputs, flagging any that differ from the
    recorded reference seed. Diagnostics never fail a run."""
    reference = load_reference()
    recorded = reference.get("workloads", {}).get(workload) if seed == reference.get("seed") else None
    for key, value in sorted((diagnostics or {}).items()):
        note = ""
        if recorded is not None:
            want = recorded.get(key)
            same = want is not None and math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-12)
            note = "  (= reference)" if same else f"  DIFFERS from reference seed {seed}: {want}"
        print(f"  model {key:<22} {value}{note}", file=sys.stderr)


def summarise(raw, metrics):
    samples = raw.get("samples")
    if samples:
        steps = samples["step_ms"]
        tail = tail_percentile(steps)
        tail_txt = f", p{round(tail[0] * 100)} {tail[1]:.3f} ms" if tail else ""
        print(f"  steps: n={len(steps)}, p50 {metrics['step_p50_ms']['value']:.3f} ms, "
              f"p90 {metrics['step_p90_ms']['value']:.3f} ms{tail_txt}; "
              f"{len(samples['wall_s'])} timed run(s), {len(samples['setup_s'])} set-ups",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}", file=sys.stderr)


def parse_args(argv):
    args = {"out": None}
    flags = {"--workload": str, "--seed": int, "--seconds": int, "--trace": int, "--out": str}
    it = iter(argv)
    for flag in it:
        if flag not in flags:
            raise SystemExit(f"unknown argument {flag}\n{__doc__}")
        try:
            args[flag[2:]] = flags[flag](next(it))
        except (StopIteration, ValueError):
            raise SystemExit(f"bad value for {flag}")
    missing = [f for f in ("workload", "seed", "seconds", "trace") if f not in args]
    if missing:
        raise SystemExit(f"missing {', '.join('--' + m for m in missing)}\n{__doc__}")
    if args["workload"] not in [n for n, _ in WORKLOADS] or args["trace"] not in (0, 1):
        raise SystemExit(f"bad --workload or --trace\n{__doc__}")
    return args


def run(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args["workload"], "--seed", str(args["seed"]),
           "--seconds", str(args["seconds"]), "--trace", str(args["trace"])]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: run exited with {done.returncode}", file=sys.stderr)
        return 3
    raw = json.loads(lines[-1])
    try:
        metrics = per_layer(raw["layers"]) if args["trace"] else end_to_end(raw["samples"])
    except (KeyError, ValueError, TypeError) as e:
        print(f"perfbench: incomplete run: {e!r}", file=sys.stderr)
        return 3
    report_diagnostics(args["workload"], args["seed"], raw.get("diagnostics"))
    summarise(raw, metrics)
    result = result_line(raw["correct"], raw["attempted"], raw["failed"], metrics)
    prov = provenance(raw, args)
    if args["out"]:
        with open(args["out"], "a") as f:
            f.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --- compare ---------------------------------------------------------------


def load_records(path):
    """Records of one result set: {(workload, trace): [record, ...]}."""
    out = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["provenance"]["workload"], rec["provenance"]["trace"])
                out.setdefault(key, []).append(rec)
    return out


def verdict(base, new, better, bound):
    """improved / unchanged / worse / unresolved for two samples of one
    metric. `bound` is the share of the base median a change may worsen it
    by (None for per-layer metrics, which then use the base's spread)."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    if bm == 0:
        return "unchanged" if nm == 0 else "unresolved"
    gain = sign * (bm - nm) / abs(bm)  # > 0: new is better
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    all_worse = all(sign * (b - n) < 0 for b in base for n in new)
    limit = bound if bound is not None else (b3 - b1) / abs(bm)
    if bound is not None and spread > bound:
        if all_better:
            return "improved"
        return "worse" if all_worse else "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if gain < -limit:
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and abs(bm - nm) > (b3 - b1) and gain > 0:
        return "improved"
    return "unchanged"


def compare(argv):
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare BASE.jsonl NEW.jsonl")
    base, new = load_records(argv[0]), load_records(argv[1])
    declared = {n: (b, bound) for n, _, b, bound in END_TO_END}
    declared.update({n: (b, None) for n, _, b in PER_LAYER})
    print(f"{'workload':<14} {'metric':<34} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34}  verdict")
    for key in sorted(set(base) & set(new)):
        names = sorted({m for r in base[key] + new[key] for m in r["result"]["metrics"]})
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in base[key] if name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in new[key] if name in r["result"]["metrics"]]
            if not a or not b or name not in declared:
                continue
            better, bound = declared[name]
            qa, qb = quartiles(a), quartiles(b)
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{key[0]:<14} {name:<34} {fmt(qa):>34} {fmt(qb):>34}  "
                  f"{verdict(a, b, better, bound)}")
    return 0


# --- reference diagnostics -------------------------------------------------


def record_reference():
    """Run every workload once at the reference seed and store its model
    outputs in perfbench/reference.json."""
    binary = build()
    if binary is None:
        return 2
    recorded = {}
    for name, _ in WORKLOADS:
        done = subprocess.run(
            [binary, "--workload", name, "--seed", str(REFERENCE_SEED), "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        if not raw["correct"]:
            raise SystemExit(f"{name}: the correctness gate failed; not recording")
        recorded[name] = raw["diagnostics"]
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump({"seed": REFERENCE_SEED, "workloads": recorded}, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["manifest"]:
        print(json.dumps(manifest(), indent=2))
        return 0
    if argv[:1] == ["record-reference"]:
        return record_reference()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
