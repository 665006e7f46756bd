#!/usr/bin/env python3
"""Tests tools/reach_audit.py: its table logic over canned symbol sets, and that
every seam in its table is a strong function of the given library archives.

    python3 tests/test_reach_audit.py [ReachAudit.test<Case>] [-- LIB.a...]
"""
import subprocess
import sys
import unittest
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "reach_audit.py"
spec = spec_from_file_location("reach_audit", SCRIPT)
audit = module_from_spec(spec)
spec.loader.exec_module(audit)
ARCHIVES = []  # the libdiurnal_*.a files given after "--"


def clean_reach():
    """Every seam kept by tests alone; every other function by some program."""
    reach = {fn: {"tests"} for fn in audit.SEAMS}
    reach["diurnal::core::run_fleet(diurnal::sim::World const&)"] = {
        "tools", "examples", "benches", "perfbench", "tests"}
    reach["diurnal::analysis::stl_decompose(double)"] = {"benches", "tests"}
    reach["diurnal::core::classify_block(double)"] = {"perfbench"}
    return reach


class ReachAudit(unittest.TestCase):
    def testCleanSetPasses(self):
        self.assertEqual(len(audit.SEAMS), 7)
        self.assertEqual(audit.judge(clean_reach()), [])

    def testNewUnreachedFunctionFailsByName(self):
        reach = clean_reach()
        reach["diurnal::util::called_by_tests()"] = {"tests"}
        reach["diurnal::util::called_by_nothing()"] = set()
        self.assertEqual(audit.judge(reach), [
            "unreached by any program and not a seam (nothing): "
            "diurnal::util::called_by_nothing()",
            "unreached by any program and not a seam (tests only): "
            "diurnal::util::called_by_tests()",
        ])

    def testStaleSeamFailsByName(self):
        for seam in audit.SEAMS:
            reach = clean_reach()
            del reach[seam]
            self.assertEqual(audit.judge(reach),
                             [f"stale seam, no strong library function: {seam}"])

    def testProgramReachedSeamFailsByName(self):
        seam = sorted(audit.SEAMS)[0]
        for group, kept_by in (("tools", "a tool or example"),
                               ("examples", "a tool or example"),
                               ("benches", "benches only"),
                               ("perfbench", "perfbench only")):
            reach = clean_reach()
            reach[seam].add(group)
            self.assertEqual(audit.judge(reach), [f"seam kept by {kept_by}: {seam}"])

    def testSeamsAreLibraryFunctions(self):
        self.assertTrue(ARCHIVES, "pass the libdiurnal_*.a files after --")
        self.assertEqual(audit.seams_defined(ARCHIVES), [])
        run = subprocess.run([sys.executable, str(SCRIPT), "--seams-defined", *ARCHIVES],
                             capture_output=True, text=True)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("reach audit passes", run.stdout)
        # A table entry the libraries do not define is named.
        stale = "diurnal::util::no_such_function()"
        audit.SEAMS[stale] = "a seam whose function is gone"
        try:
            self.assertEqual(audit.seams_defined(ARCHIVES),
                             [f"stale seam, no strong library function: {stale}"])
        finally:
            del audit.SEAMS[stale]


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--" in args:
        ARCHIVES.extend(args[args.index("--") + 1:])
        args = args[:args.index("--")]
    unittest.main(argv=[sys.argv[0], *args])
