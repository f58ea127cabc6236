#!/usr/bin/env python3
"""Print EXPERIMENTS.md's Fig. 1, Fig. 2a and §4.4 tables from a BENCH point.

    python3 scripts/experiments_tables.py BENCH_27.json

Every number comes from the change side's traced run on each workload
(`traced` in the file, written by `scripts/bench_pairs.py --traced`):

  Fig. 1   jit_base's mprotect and trap overhead vs `none`, with the
           bootstrap CI (`overhead.jit_base.<strategy>[.ci_lo|.ci_hi]`);
  Fig. 2a  engine x strategy geomean vs native
           (`jit.<engine>.<strategy>.x_native`, `interp.<strategy>.x_native`);
  §4.4     Titzer's interpreter / baseline-JIT ratio at mprotect on
           polybench and Jangda's jit_base slowdown on specproxy.

Exits 1, naming the metric, when one the tables need is missing.
"""

import json
import os
import sys

WORKLOADS = ["polybench", "specproxy"]
STRATEGIES = ["none", "clamp", "trap", "mprotect", "uffd"]
ENGINES = [("jit-opt", "jit.jit_opt.{}.x_native"),
           ("jit-base", "jit.jit_base.{}.x_native"),
           ("interp-threaded", "interp.{}.x_native")]


def fail(message):
    print(f"experiments_tables: {message}", file=sys.stderr)
    sys.exit(1)


def traced_metrics(point):
    """{workload: {metric: value}} from the change side's traced runs."""
    runs = {r["workload"]: r["result"]["metrics"]
            for r in point.get("traced", []) if r["side"] == "change"}
    for w in WORKLOADS:
        if w not in runs:
            fail(f"no traced change-side run for workload {w}")
    return runs


def metric(runs, workload, name):
    try:
        return runs[workload][name]["value"]
    except KeyError:
        fail(f"metric {name} missing from the {workload} traced run")


def overhead_cell(runs, workload, strategy):
    name = f"overhead.jit_base.{strategy}"
    value = metric(runs, workload, name)
    lo = metric(runs, workload, name + ".ci_lo")
    hi = metric(runs, workload, name + ".ci_hi")
    return f"{value:+.1f}% [{lo:+.1f}, {hi:+.1f}]"


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_N.json")
    path = sys.argv[1]
    try:
        with open(path, encoding="utf-8") as handle:
            point = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    runs = traced_metrics(point)
    source = (f"Source: `{os.path.basename(path)}`, the change side's "
              f"traced run on each workload.")

    print("### Fig. 1: jit-base overhead vs `none` (95% bootstrap CI)\n")
    print("| workload | mprotect | trap |")
    print("|---|---|---|")
    for w in WORKLOADS:
        print(f"| {w} | {overhead_cell(runs, w, 'mprotect')} | "
              f"{overhead_cell(runs, w, 'trap')} |")
    print(f"\n{source}\n")

    print("### Fig. 2a: geomean of per-kernel time / native\n")
    print("| workload | engine | " + " | ".join(STRATEGIES) + " |")
    print("|---|---|" + "---|" * len(STRATEGIES))
    for w in WORKLOADS:
        for label, pattern in ENGINES:
            cells = [f"{metric(runs, w, pattern.format(s)):.2f}x"
                     for s in STRATEGIES]
            print(f"| {w} | {label} | " + " | ".join(cells) + " |")
    print(f"\n{source}\n")

    interp = metric(runs, "polybench", "interp.mprotect.x_native")
    jit = metric(runs, "polybench", "jit.jit_base.mprotect.x_native")
    spec = metric(runs, "specproxy", "jit.jit_base.mprotect.x_native")
    print("### §4.4: replication of prior results\n")
    print("| Prior result | Paper's measurement | Ours |")
    print("|---|---|---|")
    print(f"| Titzer 2022: wasm3 ≈ 10× slower than V8-TurboFan on "
          f"PolyBench | 6-11× | interp-threaded / jit-base at mprotect: "
          f"{interp:.2f}x / {jit:.2f}x = **{interp / jit:.1f}×** |")
    print(f"| Jangda 2019: SPEC on V8 1.55× native (geomean) | 1.69× | "
          f"jit-base at mprotect on specproxy: **{spec:.2f}×** |")
    print(f"\n{source}")


if __name__ == "__main__":
    main()
