#!/usr/bin/env python3
"""What a bench run must satisfy: python3 bench/gates.py BENCH_JSON prints each gated key with
its value and exits 1 if a row fails or a file, key or bench is missing.  Checked-in BENCH_*.json
files are read from the repository root, found from this file, so any directory works."""
import json
import operator
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ref(bench, key="fleet_digest"):
    return (f"BENCH_{bench}.json", key)


# Row: bench, key ("a+b" sums a and b), check, want[, guard key: the row applies while it is
# true].  want is a literal or a (file, key) pair; file None is the bench's own JSON.
GATES = (
    ("fleet", "fleet_digest", "==", ref("fleet")),
    ("fleet", "world_blocks", "==", ref("fleet", "world_blocks")),
    ("fleet", "world_seed", "==", ref("fleet", "world_seed")),
    ("fleet", "dataset", "==", ref("fleet", "dataset")),
    ("fleet", "deterministic", "true", None),
    ("stream", "equivalent", "true", None),
    ("stream", "fleet_digest", "==", ref("fleet")),
    ("analysis", "mode", "==", "batched"),
    ("analysis", "fleet_digest", "==", ref("fleet")),
    ("analysis", "stl_batch_bitwise", "true", None),
    ("analysis", "fft_batch_bitwise", "true", None),
    ("analysis", "dispatch_generic+dispatch_avx2", "true", None),
    ("analysis", "span_allocs_per_block", "==", 0),
    ("analysis", "batch_allocs_per_block", "==", 0),
    ("analysis", "workspace_pool_miss_delta", "==", 0),
    ("analysis", "stl_batch_speedup", ">=", 2.0),
    ("fault", "all_deterministic", "true", None),
    ("fault", "scenarios.none.degraded_blocks", "==", 0),
    ("fault", "scenarios.none.low_confidence_blocks", "==", 0),
    ("shard", "equivalence.digests_match", "true", None),
    ("shard", "equivalence.fleet_digest", "==", ref("shard", "equivalence.fleet_digest")),
    ("shard", "equivalence.fleet_digest", "==", ref("fleet")),
    ("shard", "capacity.peak_rss_kb", "<=", ref("shard", "peak_rss_budget_kb"),
     "capacity.rss_valid"),
    ("shard", "capacity.peak_resident", "<=", (None, "capacity.max_resident")),
    ("serve", "equivalent", "true", None),
    ("serve", "fleet_digest", "==", ref("fleet")),
    ("serve", "readers", ">=", 4),
    ("serve", "within_budget", "true", None),
    ("serve", "final_snapshot", "true", None),
    ("serve", "epochs", "==", ref("serve", "epochs")),
    ("checkpoint", "snapshot.restore_digest_match", "true", None),
    ("checkpoint", "snapshot.fleet_digest", "==", ref("fleet")),
    ("checkpoint", "resume_10k.digest_match", "true", None),
    ("checkpoint", "capacity.digest_match", "true", None),
    ("checkpoint", "corrupt_rejected", "true", None),
    ("checkpoint", "resume_under_10pct", "true", None),
    ("checkpoint", "capacity.resume_peak_rss_kb", "<=", ref("checkpoint", "peak_rss_budget_kb"),
     "capacity.rss_valid"),
    ("checkpoint", "state_format_version", "==", ref("checkpoint", "state_format_version")),
    ("checkpoint", "snapshot.image_bytes", "==", ref("checkpoint", "snapshot.image_bytes")),
    ("checkpoint", "snapshot.image_crc32", "==", ref("checkpoint", "snapshot.image_crc32")),
)

# Logged after the gated keys.  Each field must exist and take its format, or the run fails.
SUMMARY = {
    "stream": "{epochs} epochs",
    "analysis": "fft {fft_batch_speedup:.2f}x scalar; isa detected={simd_isa_detected} "
                "active={simd_isa_active}; {sampled_blocks} blocks",
    "shard": "{equivalence[cases]} configs; {capacity[blocks]} blocks at "
             "{capacity[blocks_per_sec]:.0f}/s",
    "serve": "{queries} queries, p99 {query_p99_us:.0f}us (budget {p99_budget_us:.0f}us)",
    "checkpoint": "resume {capacity[resume_ratio]:.1%} of full; rejected as {reject_kind}",
}

CHECKS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
          "true": lambda got, _: bool(got)}


def lookup(doc, key, where):
    total = None
    for part in key.split("+"):
        value = doc
        for name in part.split("."):
            if not isinstance(value, dict) or name not in value:
                raise LookupError(f"{where} has no key {part!r}")
            value = value[name]
        total = value if total is None else total + value
    return total


def evaluate(doc, where):
    """Yields (row, line, failed) for each row of the bench in doc."""
    for row in (r for r in GATES if r[0] == doc["bench"]):
        _, key, check, want, *guard = row
        try:
            got = lookup(doc, key, where)
            if isinstance(want, tuple):
                src = doc if want[0] is None else json.loads((ROOT / want[0]).read_text())
                want = lookup(src, want[1], want[0] or where)
            line = f"{key} = {got!r}"
            if guard and not lookup(doc, guard[0], where):
                ok, line = True, f"{line} (unchecked: {guard[0]} false)"
            else:
                ok = CHECKS[check](got, want)
                line += "" if check == "true" else f" ({check} {want!r})"
        except (LookupError, OSError, TypeError, ValueError) as e:
            ok, line = False, f"{key}: {e}"
        yield row, line, not ok


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: gates.py BENCH_JSON")
    failed = 0
    try:
        doc = json.loads(Path(argv[1]).read_text())
        bench = doc.get("bench") if isinstance(doc, dict) else None
        if not any(r[0] == bench for r in GATES):
            raise LookupError(f"unknown bench {bench!r}")
        for _, line, bad in evaluate(doc, argv[1]):
            print(f"FAIL {bench} {line}" if bad else f"  {line}")
            failed += bad
        if bench in SUMMARY:
            print("  " + SUMMARY[bench].format(**doc))
    except (LookupError, OSError, TypeError, ValueError) as e:
        print(f"FAIL {argv[1]}: {type(e).__name__}: {e}")
        return 1
    print(f"{bench}: {failed} gate(s) FAILED" if failed else f"{bench}: all gates pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
