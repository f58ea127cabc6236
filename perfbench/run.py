#!/usr/bin/env python3
"""Build and run the repository benchmark; print one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload polybench --seed 7 --seconds 40 --trace 0

The benchmark is built from the checkout's sources into the directory named
by CARGO_TARGET_DIR (default .bench_build), then perfbench/main.cc's driver
measures the workload. The last stdout line is

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and every
per_layer metric with --trace 1. A traced run measures the workload twice
with the same seed, half of --seconds each: untraced, then with spans and
the sampling profiler on; only the traced half serves requests. The
per-layer figures come from the second half, and trace_overhead.<metric>
is the traced end-to-end value minus the untraced one for each metric both
halves report. Build output and the driver's tables go to stderr.

Exits 1 when any result was wrong (after printing the result), and 2 when
the benchmark cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
PROFILE_HZ = "997"


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (re)build the driver; returns its path."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        fail("no sources at %s/src to build from" % SOURCE_ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_driver(binary, args, seconds, trace):
    # The benchmark fixes its own configuration: LNB_* knobs from the
    # caller's environment would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LNB_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if trace:
        env["LNB_PROF_HZ"] = PROFILE_HZ
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.trace.json" % (args.workload, args.seed))]
    if args.corrupt_every:
        cmd += ["--corrupt-every", str(args.corrupt_every)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=seconds * 2 + 120)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("driver exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def declared_metrics(kind):
    with open(os.path.join(SOURCE_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec[kind]]


def pick(metrics, names):
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("driver did not report: " + ", ".join(missing))
    return {n: metrics[n] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="self-test: corrupt every Nth checked result")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    if not args.trace:
        result = run_driver(binary, args, args.seconds, trace=False)
        runs = [result]
        metrics = pick(result["end_to_end"], declared_metrics("end_to_end"))
    else:
        plain = run_driver(binary, args, args.seconds / 2, trace=False)
        traced = run_driver(binary, args, args.seconds / 2, trace=True)
        runs = [plain, traced]
        # The driver's end-to-end figures that BENCHMARK.json lists per
        # layer (serving latency and capacity) come from the traced half.
        layer = dict(traced["end_to_end"])
        layer.update(traced["per_layer"])
        for name, m in traced["end_to_end"].items():
            if name in plain["end_to_end"]:
                layer["trace_overhead." + name] = {
                    "value": m["value"] - plain["end_to_end"][name]["value"],
                    "unit": m["unit"]}
        metrics = pick(layer, declared_metrics("per_layer"))

    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
