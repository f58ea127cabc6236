#!/usr/bin/env python3
"""Run alternating parent/change pairs of the repository benchmark and
write one BENCH point.

Run from the root of the change's checkout:

    python3 scripts/bench_pairs.py --point 21 \\
        --change "what the change does" --claim specproxy:code_kb

The parent revision (--parent, default HEAD~1) is checked out into a
temporary `git worktree` (removed afterwards), or taken from an existing
checkout with --parent-src. While the change is uncommitted, HEAD itself
is its parent, so the HEAD~1 default is refused on a dirty tree: pass
--parent HEAD or --parent-src. Each side builds perfbench/ from its own
sources into its own CARGO_TARGET_DIR under a temporary directory. For
every workload of BENCHMARK.json and every seed 1..--pairs, both sides
run `perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds back to
back, the parent first at odd seeds and the change first at even seeds.
--traced adds one `--trace 1` run per side and workload.

BENCH_<point>.json records each side's commit and whether its checkout
had uncommitted changes, and holds, per workload and end-to-end metric:
  summary     each side's median over the pairs;
  pair_stats  the pairs where the change read lower / higher, each side's
              quartiles (inclusive method), interquartile range and range;
  verdict     the change's median relative to the parent's, against the
              metric's BENCHMARK.json bound;
  claims      for each --claim: pairs the change won, and whether it won at
              least nine in ten and its median moved by more than the
              parent's interquartile range;
plus every pair and every raw run.

Exits 1 when a bound is breached, a claim is not met, a run reports a
wrong result, or the change fails a larger share of operations than the
parent; 2 when a side cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_side(src, build_dir, workload, seed, seconds, trace):
    """One perfbench/run.py invocation; returns its parsed result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("bench_pairs: %s failed (exit %d)" % (" ".join(cmd),
                                                  proc.returncode))
        sys.exit(2)
    return json.loads(lines[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def analyse(pairs, metrics):
    """summary, pair_stats, verdict for one workload's pairs."""
    summary, stats, verdict = {}, {}, {}
    for m in metrics:
        name = m["name"]
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        mp, mc = statistics.median(par), statistics.median(chg)
        summary[name] = {"parent": round(mp, 4), "change": round(mc, 4)}
        pq, cq = quartiles(par), quartiles(chg)
        stats[name] = {
            "change_lower_in": sum(c < p for p, c in zip(par, chg)),
            "change_higher_in": sum(c > p for p, c in zip(par, chg)),
            "parent_q1_q3": pq, "change_q1_q3": cq,
            "parent_iqr": round(pq[1] - pq[0], 4),
            "change_iqr": round(cq[1] - cq[0], 4),
            "parent_range": [round(min(par), 4), round(max(par), 4)],
            "change_range": [round(min(chg), 4), round(max(chg), 4)],
        }
        pct = (mc - mp) / mp * 100 if mp else 0.0
        worse = pct if m["better"] == "lower" else -pct
        verdict[name] = {"median_change_pct": round(pct, 2),
                         "bound_pct": round(m["bound"] * 100, 2),
                         "within_bound": worse <= m["bound"] * 100}
    return summary, stats, verdict


def claim_result(pairs, metric, better):
    par = [p["parent"][metric] for p in pairs]
    chg = [p["change"][metric] for p in pairs]
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
    q = quartiles(par)
    shift = sign * (statistics.median(par) - statistics.median(chg))
    return {"change_won_in": wins, "pairs": len(pairs),
            "median_shift": round(shift, 4),
            "parent_iqr": round(q[1] - q[0], 4),
            "met": wins * 10 >= 9 * len(pairs) and shift > q[1] - q[0]}


def revision(src):
    """The checkout's commit and whether it has uncommitted changes."""
    def git(*cmd):
        return subprocess.run(["git", "-C", src] + list(cmd), check=True,
                              stdout=subprocess.PIPE, text=True).stdout
    return {"commit": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain").strip())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--point", type=int, required=True)
    source = ap.add_mutually_exclusive_group()
    source.add_argument("--parent",
                        help="parent revision (default HEAD~1; refused "
                             "while the change is uncommitted)")
    source.add_argument("--parent-src",
                        help="existing checkout of the parent instead of "
                             "a temporary worktree")
    ap.add_argument("--change", default="", help="one-line description")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}

    change_rev = revision(ROOT)
    if (args.parent is None and args.parent_src is None and
            change_rev["dirty"]):
        log("bench_pairs: the change is uncommitted, so HEAD is its "
            "parent, not HEAD~1; pass --parent HEAD or --parent-src")
        return 2

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    worktree = None
    pairs, runs, traced = {}, [], []
    wrong = False
    try:
        parent_src = args.parent_src
        if parent_src is None:
            worktree = os.path.join(tmp, "parent")
            subprocess.run(["git", "-C", ROOT, "worktree", "add",
                            "--detach", worktree, args.parent or "HEAD~1"],
                           check=True, stdout=sys.stderr)
            parent_src = worktree
            origin = "a temporary worktree of %s" % (args.parent or "HEAD~1")
        else:
            origin = "an existing checkout (--parent-src)"
        parent_rev = revision(parent_src)
        sides = {"parent": (parent_src, os.path.join(tmp, "build-parent")),
                 "change": (ROOT, os.path.join(tmp, "build-change"))}
        for w in workloads:
            pairs[w] = []
            for seed in range(1, args.pairs + 1):
                order = (["parent", "change"] if seed % 2
                         else ["change", "parent"])
                pair = {"workload": w, "seed": seed, "first": order[0]}
                for side in order:
                    log("bench_pairs: %s seed %d %s" % (w, seed, side))
                    result = run_side(*sides[side], w, seed, seconds, False)
                    runs.append({"side": side, "workload": w, "seed": seed,
                                 "trace": 0, "result": result})
                    pair[side] = {k: round(v, 4)
                                  for k, v in values(result).items()}
                    pair[side + "_failed"] = result["failed"]
                    pair[side + "_attempted"] = result["attempted"]
                    pair[side + "_correct"] = result["correct"]
                    wrong |= not result["correct"]
                pairs[w].append(pair)
            if args.traced:
                for side in ("parent", "change"):
                    log("bench_pairs: %s traced %s" % (w, side))
                    result = run_side(*sides[side], w, 1, seconds, True)
                    traced.append({"side": side, "workload": w, "seed": 1,
                                   "trace": 1, "result": result})
    finally:
        if worktree is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", worktree], stdout=sys.stderr)
        shutil.rmtree(tmp, ignore_errors=True)

    out = {"point": args.point, "change": args.change,
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      "--seconds %g --trace 0" % seconds,
           "revisions": {"parent": parent_rev, "change": change_rev},
           "protocol": "parent (commit %s, from %s) and change (commit "
                       "%s%s) each built from its own checkout into its "
                       "own build directory; %d pairs per workload at "
                       "seeds 1-%d, the parent first at odd seeds and the "
                       "change first at even seeds"
                       % (parent_rev["commit"][:7], origin,
                          change_rev["commit"][:7],
                          " plus uncommitted changes"
                          if change_rev["dirty"] else "",
                          args.pairs, args.pairs),
           "summary": {}, "verdict": {}, "pair_stats": {}, "claims": {},
           "pairs": [p for w in workloads for p in pairs[w]], "runs": runs}
    breached = wrong
    for w in workloads:
        summary, stats, verdict = analyse(pairs[w], metrics)
        out["summary"][w], out["pair_stats"][w] = summary, stats
        out["verdict"][w] = verdict
        share = {side: sum(p[side + "_failed"] for p in pairs[w]) /
                 max(1, sum(p[side + "_attempted"] for p in pairs[w]))
                 for side in ("parent", "change")}
        out["verdict"][w]["failed_share"] = share
        breached |= share["change"] > share["parent"]
        breached |= not all(v["within_bound"] for k, v in verdict.items()
                            if k != "failed_share")
    for claim in args.claim:
        w, metric = claim.split(":", 1)
        result = claim_result(pairs[w], metric, better[metric])
        out["claims"][claim] = result
        breached |= not result["met"]
    if traced:
        out["traced"] = traced

    path = os.path.join(ROOT, "BENCH_%d.json" % args.point)
    with open(path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    for w in workloads:
        for name, v in out["verdict"][w].items():
            if name != "failed_share":
                log("%-10s %-20s %+7.2f%% (bound %g%%)%s" % (
                    w, name, v["median_change_pct"], v["bound_pct"],
                    "" if v["within_bound"] else "  BREACHED"))
    for claim, r in out["claims"].items():
        log("claim %s: won %d/%d, %s" % (claim, r["change_won_in"],
                                         r["pairs"],
                                         "met" if r["met"] else "NOT met"))
    log("bench_pairs: wrote %s" % path)
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
