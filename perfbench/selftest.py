#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload:
  * the untraced run prints every end-to-end metric of BENCHMARK.json
    with its unit, and the traced run every per-layer metric;
  * both runs pass their reference checks and exit 0;
  * a deliberately wrong reference digest makes the run fail (nonzero
    exit, "correct": false, at least one failed operation).
And once: month_sharded's tiny size is the golden world, so its seed-1
run prints the golden fleet digest f94c66488def6938.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = "f94c66488def6938"
# Figures each workload must print on its detail line (issue-level
# metrics that apply to one workload only).
DETAIL = {
    "month_sharded": {"shards": "count", "workers": "count", "failed_share": "ratio"},
    "halfyear_union_ckpt": {"resume_s": "s", "shards": "count", "failed_share": "ratio"},
    "live_hourly": {
        "freshness_p50_ms": "ms", "freshness_p90_ms": "ms",
        "freshness_tail_ms": "ms", "freshness_samples": "count",
        "catchup_epochs_per_s": "1/s", "query_p50_us": "us",
        "epoch_service_ms": "ms", "open_loop_utilization": "ratio",
        "open_feed_waits": "count", "open_feed_peak_depth": "count",
        "tick_lateness_p50_us": "us", "tick_lateness_max_us": "us",
        "query_lateness_p50_us": "us", "query_lateness_max_us": "us",
        "snapshot_mb_peak": "MB", "failed_share": "ratio",
    },
}

failures = []


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail, digest = {}, None
    for line in lines:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
        elif line.startswith('{"digest"'):
            digest = json.loads(line)["digest"]
    return done.returncode, result, detail, digest, done.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_metrics(name, result, wanted):
    got = result["metrics"] if result else {}
    for m in wanted:
        entry = got.get(m["name"])
        expect(entry is not None and entry.get("unit") == m["unit"]
               and isinstance(entry.get("value"), (int, float)),
               f"{name}: prints {m['name']} [{m['unit']}]")


for workload in (w["name"] for w in BENCH["workloads"]):
    for trace, wanted in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        code, result, detail, digest, err = run(workload, trace, "--tiny")
        label = f"{workload} trace={trace}"
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and result["attempted"] >= 1,
               f"{label}: passes its reference checks" + ("" if code == 0 else f"\n{err[-800:]}"))
        expect(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{label}: result line has exactly the four keys")
        check_metrics(label, result, wanted)
        if trace == 0:
            for key, unit in DETAIL[workload].items():
                entry = detail.get(key)
                expect(entry is not None and entry["unit"] == unit,
                       f"{label}: detail prints {key} [{unit}]")
            if workload == "month_sharded":
                expect(digest == GOLDEN,
                       f"{label}: seed 1 at 2,000 blocks reproduces {GOLDEN} (got {digest})")
    code, result, _, _, _ = run(workload, 0, "--tiny", "--corrupt-reference")
    expect(code != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
           f"{workload}: a wrong reference digest fails the run")

print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
