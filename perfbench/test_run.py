#!/usr/bin/env python3
"""Self-test of the benchmark's result checks.

Runs a short clean pass, which must report every result correct, then the
same pass with every 50th checked result corrupted by one ulp, which must
count the wrong results as failures, report correct: false and exit 1.
Run from the root of a source checkout:

    python3 perfbench/test_run.py
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "specproxy", "--seed", "1",
         "--seconds", "2", "--trace", "0"] + extra,
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    code, clean = run([])
    expect(code == 0, "clean run exited %d" % code)
    expect(clean["correct"] and clean["failed"] == 0,
           "clean run reported failures: %r" % clean)
    expect(clean["attempted"] > 1000, "clean run attempted too little")

    code, corrupt = run(["--corrupt-every", "50"])
    expect(code == 1, "corrupted run exited %d, want 1" % code)
    expect(corrupt is not None and not corrupt["correct"],
           "corrupted run reported correct")
    expect(corrupt["failed"] >= corrupt["attempted"] // 50 - 1,
           "corrupted run counted %d failures of %d attempts"
           % (corrupt["failed"], corrupt["attempted"]))
    print("ok: %d of %d corrupted results counted as failed"
          % (corrupt["failed"], corrupt["attempted"]))


if __name__ == "__main__":
    main()
