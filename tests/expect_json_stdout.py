#!/usr/bin/env python3
"""Runs one command and passes only when it exits 0 and its stdout is
exactly one JSON document (nothing before or after it).

    python3 expect_json_stdout.py <command> [args...]
"""
import json
import subprocess
import sys

proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, check=False)
if proc.returncode != 0:
    sys.exit(f"{sys.argv[1]} exited {proc.returncode}")
try:
    json.loads(proc.stdout)
except json.JSONDecodeError as e:
    sys.exit(f"stdout is not one JSON document: {e}")
