#!/usr/bin/env python3
"""Tests bench/gates.py: every checked-in BENCH file that CI gates passes, and a
copy with one key corrupted or removed fails on exactly the rows that read it.

    python3 tests/test_gates.py [BenchGates.test<Case>]
"""
import copy
import json
import re
import string
import subprocess
import sys
import tempfile
import unittest
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = spec_from_file_location("gates", ROOT / "bench" / "gates.py")
gates = module_from_spec(spec)
spec.loader.exec_module(gates)
BENCHES = sorted({row[0] for row in gates.GATES})


def checked_in(bench):
    return json.loads((ROOT / f"BENCH_{bench}.json").read_text())


def rows_of(bench):
    return [row for row in gates.GATES if row[0] == bench]


def keys_read(row):
    """Keys of the bench's own JSON that a row reads."""
    _, key, _, want, *guard = row
    keys = set(key.split("+")) | set(guard)
    if isinstance(want, tuple) and want[0] is None:
        keys.add(want[1])
    return keys


def failing(doc):
    return {row for row, _, bad in gates.evaluate(doc, "ci.json") if bad}


def set_key(doc, key, value):
    *head, last = key.split(".")
    for name in head:
        doc = doc[name]
    if value is None:
        del doc[last]
    else:
        doc[last] = value


def corrupted(doc, row):
    """A copy of doc whose value for row's key no longer satisfies the row."""
    _, key, check, want, *_ = row
    bad = copy.deepcopy(doc)
    if isinstance(want, tuple):
        src = doc if want[0] is None else json.loads((ROOT / want[0]).read_text())
        want = gates.lookup(src, want[1], "want")
    got = gates.lookup(doc, key, "doc")
    for part in key.split("+"):
        if check == "true":
            value = False
        elif check == "<=":
            value = want + 1
        elif check == ">=":
            value = want - 1
        elif isinstance(got, bool):
            value = not got
        else:
            value = got + (1 if isinstance(got, (int, float)) else "x")
        set_key(bad, part, value)
    return bad


def summary_keys(bench):
    fields = (f for _, f, _, _ in string.Formatter().parse(gates.SUMMARY.get(bench, "")) if f)
    return [re.sub(r"\[(\w+)\]", r".\1", f) for f in fields]


def run_gates(doc, cwd):
    path = Path(cwd).resolve() / "ci.json"
    path.write_text(json.dumps(doc))
    return subprocess.run([sys.executable, str(ROOT / "bench" / "gates.py"), str(path)],
                          cwd=cwd, capture_output=True, text=True)


class BenchGates(unittest.TestCase):
    def testCheckedInFilesPass(self):
        self.assertEqual(BENCHES, ["analysis", "checkpoint", "fault", "fleet", "serve",
                                   "shard", "stream"])
        self.assertEqual(len(gates.GATES), 40)
        for bench in BENCHES:
            doc = checked_in(bench)
            self.assertEqual(failing(doc), set(), bench)
            with tempfile.TemporaryDirectory(dir=".") as cwd:
                result = run_gates(doc, cwd)
            self.assertEqual(result.returncode, 0, result.stdout)
            self.assertIn(f"{bench}: all gates pass", result.stdout)

    def testCorruptedValueFailsItsRows(self):
        for bench in BENCHES:
            doc = checked_in(bench)
            for row in rows_of(bench):
                parts = set(row[1].split("+"))
                want = {r for r in rows_of(bench) if keys_read(r) & parts}
                self.assertEqual(failing(corrupted(doc, row)), want, row)

    def testRemovedKeyFailsItsRows(self):
        for bench in BENCHES:
            doc = checked_in(bench)
            for key in set().union(*map(keys_read, rows_of(bench))):
                gone = copy.deepcopy(doc)
                set_key(gone, key, None)
                want = {r for r in rows_of(bench) if key in keys_read(r)}
                self.assertEqual(failing(gone), want, key)

    def testGuardFalseSkipsItsRow(self):
        for bench in BENCHES:
            for row in (r for r in rows_of(bench) if len(r) > 4):
                off = corrupted(checked_in(bench), row)
                set_key(off, row[4], False)
                self.assertEqual(failing(off), set(), row)

    def testRunFailsOnBadInput(self):
        with tempfile.TemporaryDirectory(dir=".") as cwd:
            doc = checked_in("serve")
            bad = run_gates(corrupted(doc, ("serve", "readers", ">=", 4)), cwd)
            self.assertEqual(bad.returncode, 1)
            self.assertIn("FAIL serve readers = 3 (>= 4)", bad.stdout)
            for bench in BENCHES:
                for key in summary_keys(bench):
                    gone = copy.deepcopy(checked_in(bench))
                    set_key(gone, key, None)
                    self.assertEqual(run_gates(gone, cwd).returncode, 1, key)
            self.assertEqual(run_gates({"bench": "nope"}, cwd).returncode, 1)
            self.assertEqual(run_gates({"mode": "batched"}, cwd).returncode, 1)
            missing = subprocess.run([sys.executable, str(ROOT / "bench" / "gates.py"),
                                      str(Path(cwd) / "no-such.json")],
                                     capture_output=True, text=True)
            self.assertEqual(missing.returncode, 1)


if __name__ == "__main__":
    unittest.main()
