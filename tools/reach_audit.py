#!/usr/bin/env python3
"""Which programs keep each library function.

    python3 tools/reach_audit.py BUILD_DIR PERFBENCH_DRIVER
    python3 tools/reach_audit.py --seams-defined LIB.a...

Build the tree and perfbench_driver with

    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

so that every function sits in its own section, the linker drops each one
its program never calls, and no caller is hidden by inlining.  The audit
lists the strong (non-inline, non-template) functions of BUILD_DIR's
libdiurnal_*.a files and reads which of them each linked executable kept.
The programs are the tools, the examples, the benches and perfbench_driver;
the test executables only tell a test-reached function from one nothing
calls.  It prints the functions counted by the programs that keep them, and
exits 1 naming each function unless the set that no program keeps is
exactly SEAMS: a new unreached function, a seam that is no longer a library
function, and a seam a program now keeps all fail.

--seams-defined checks only that every seam is a strong function of the
given archives (any build type); the tier-1 tests run it on their build.
Needs the standard library, nm and c++filt.
"""
import os
import subprocess
import sys
from pathlib import Path

# The library functions no program calls, each kept because a test pins
# behaviour through it (each one's header says which).
SEAMS = {
    "diurnal::analysis::loess_smooth_batch(double const*, unsigned long, "
    "unsigned long, diurnal::analysis::LoessOptions const&, double const*, double*)":
        "SoA LOESS over whole lanes; test_batch_kernels holds it bitwise to loess_smooth",
    "diurnal::analysis::loess_smooth_extended_batch(double const*, unsigned long, "
    "unsigned long, diurnal::analysis::LoessOptions const&, double const*, double*)":
        "SoA extended LOESS; test_batch_kernels holds it bitwise to the scalar kernel",
    "diurnal::analysis::moving_average_batch(double const*, unsigned long, "
    "unsigned long, int, double*)":
        "SoA moving average; test_batch_kernels holds it bitwise to the scalar kernel",
    "diurnal::analysis::goertzel_power_batch(double const*, unsigned long, "
    "unsigned long, double, double*)":
        "SoA Goertzel; test_batch_kernels holds it bitwise to goertzel_power",
    "diurnal::core::EpochSnapshot::answers_digest() const":
        "hash of every answer a snapshot serves; SnapshotServerGolden pins it",
    "diurnal::analysis::simd::force_level(diurnal::analysis::simd::IsaLevel)":
        "pins the dispatch level; BatchKernels holds the generic clone bitwise "
        "to the active one",
    "diurnal::analysis::simd::clear_forced_level()":
        "undoes force_level after such a test",
}

# Reach classes, most production-like first: a function's class is the
# first whose test its set of keeping groups passes.
CLASSES = (
    ("a tool or example", lambda g: bool(g & {"tools", "examples"})),
    ("perfbench and benches", lambda g: {"perfbench", "benches"} <= g),
    ("perfbench only", lambda g: "perfbench" in g),
    ("benches only", lambda g: "benches" in g),
    ("tests only", lambda g: "tests" in g),
    ("nothing", lambda g: True),
)
PROGRAMS = {"tools", "examples", "benches", "perfbench"}


def reach_class(groups):
    return next(name for name, test in CLASSES if test(groups))


def judge(reach):
    """reach maps each strong library function to the set of groups that
    keep it.  Returns one line per finding; an empty list passes."""
    errors = []
    for fn in sorted(reach):
        if not reach[fn] & PROGRAMS and fn not in SEAMS:
            errors.append(f"unreached by any program and not a seam "
                          f"({reach_class(reach[fn])}): {fn}")
    for fn in sorted(SEAMS):
        if fn not in reach:
            errors.append(f"stale seam, no strong library function: {fn}")
        elif reach[fn] & PROGRAMS:
            errors.append(f"seam kept by {reach_class(reach[fn])}: {fn}")
    return errors


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), capture_output=True,
                         text=True, check=True).stdout.splitlines()
    return dict(zip(names, out))


def defined(path, types):
    """Mangled names of the symbols of the given nm types defined in path."""
    out = subprocess.run(["nm", "--defined-only", "-P", str(path)],
                         capture_output=True, text=True, check=True).stdout
    found = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in types:
            found.add(parts[0])
    return found


def strong_functions(archives):
    """Demangled name -> mangled names of the global text symbols (nm type
    T).  The constructor and destructor variants share one name."""
    mangled = set().union(*(defined(a, "T") for a in archives))
    functions = {}
    for name, pretty in demangle(mangled).items():
        functions.setdefault(pretty, set()).add(name)
    return functions


def executables(directory):
    found = []
    for entry in sorted(os.scandir(directory), key=lambda e: e.name):
        if entry.is_file() and os.access(entry.path, os.X_OK):
            with open(entry.path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(Path(entry.path))
    return found


def audit(build, driver):
    archives = sorted(Path(build, "src").glob("*/libdiurnal_*.a"))
    if not archives:
        raise FileNotFoundError(f"no libdiurnal_*.a under {build}/src")
    functions = strong_functions(archives)
    groups = {g: executables(Path(build, d)) for g, d in
              (("tools", "tools"), ("examples", "examples"), ("benches", "bench"),
               ("tests", "tests"))}
    groups["perfbench"] = [Path(driver)]
    for g, paths in groups.items():
        if not paths:
            raise FileNotFoundError(f"no {g} executables under {build}")
    reach = {fn: set() for fn in functions}
    for g, paths in groups.items():
        for path in paths:
            kept = defined(path, "TtWw")
            for fn, names in functions.items():
                if names & kept:
                    reach[fn].add(g)
    # Counts are of symbols: a constructor's or destructor's variants
    # (C1/C2, D0/D1/D2) each count, under one name.
    def count(fns):
        return sum(len(functions[fn]) for fn in fns)

    print(f"reach audit: {count(functions)} strong function symbols "
          f"({len(functions)} names) in {len(archives)} libraries; "
          + ", ".join(f"{len(groups[g])} {g}" for g in
                      ("tools", "examples", "benches", "perfbench", "tests")))
    for name, _ in CLASSES:
        print(f"  {count(fn for fn, g in reach.items() if reach_class(g) == name):5d}"
              f"  kept by {name}")
    unreached = count(fn for fn, g in reach.items() if not g & PROGRAMS)
    print(f"no program keeps {unreached}; the seam table names {len(SEAMS)}")
    return reach


def seams_defined(archives):
    functions = strong_functions(archives)
    return [f"stale seam, no strong library function: {fn}"
            for fn in sorted(SEAMS) if fn not in functions]


def main(argv):
    if len(argv) >= 2 and argv[1] == "--seams-defined":
        errors = seams_defined(argv[2:])
    elif len(argv) == 3:
        errors = judge(audit(argv[1], argv[2]))
    else:
        sys.exit(__doc__.split("\n\n")[1])
    for line in errors:
        print(f"FAIL {line}")
    print(f"{len(errors)} finding(s)" if errors else "reach audit passes")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
