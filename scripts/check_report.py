#!/usr/bin/env python3
"""Tier-2 smoke check for the observability artifacts.

Default mode runs a small slice of the micro_bounds benchmark with
LNB_JSON_DIR and LNB_TRACE_FILE set, then validates that

  * the process-exit metrics dump is valid JSON with the expected schema
    and the counters the exercised paths must have bumped, and
  * the trace file is well-formed Chrome trace_event JSON with at least
    one span.

--svc mode drives a short open-loop load through the lnb_svc serving
harness instead and validates the per-strategy lnb.bench_result.v1
reports: request latencies present, and the svc.* cache/pool/scheduler
counters bumped by the exercised paths. It then repeats the load with
--engine=tiered and validates the tier.* metrics and the report's tier
block (requests/ups, the time-to-peak curve).

--threads mode runs the fig3 shared-memory mode (N threads x 5 bounds
strategies hammering one growable shared linear memory) and validates
the per-(strategy, threads) reports: the bench's own bit-exact checksum
verdict (exit code), and the threads.* / mem.shared_grow_* counters in
every lnb.bench_result.v1 document. It then runs the whole bench once
more with LNB_CSV_DIR and validates the instance-churn table behind
Figs. 3-5: one row per engine x strategy x thread count, none failed,
mprotect rows with resize syscalls and blocking operations, and no
resize syscall under none/clamp/trap.

--deadline mode runs the adversarial-tenant ablation: the same load
twice, deadlines off then on, and validates the deadline-kill counters
(svc.requests_deadline_killed, rt.interrupts_*) plus the victim-tenant
p99 the deadlines must restore.

--coldstart mode runs two lnb_svc processes sharing a persistent
LNB_CODE_CACHE_DIR: the second process must skip compilation entirely
(0 compile scopes in its trace; the artifact deserialized from disk,
pooled instances restored from the snapshot template) and its
first-request module-acquire latency must drop >= 5x.

Usage: check_report.py <path-to-micro_bounds>
       check_report.py --svc <path-to-lnb_svc>
       check_report.py --deadline <path-to-lnb_svc>
       check_report.py --threads <path-to-fig3_thread_scaling>
       check_report.py --coldstart <path-to-lnb_svc>
"""

import csv
import json
import os
import subprocess
import sys
import tempfile


def fail(message):
    print(f"check_report: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")


def check_metrics(report_dir):
    dumps = [
        name
        for name in os.listdir(report_dir)
        if name.startswith("metrics_") and name.endswith(".json")
    ]
    if len(dumps) != 1:
        fail(f"expected exactly one metrics dump in {report_dir}, "
             f"found {dumps}")
    doc = load_json(os.path.join(report_dir, dumps[0]))

    if doc.get("schema") != "lnb.metrics.v1":
        fail(f"bad metrics schema: {doc.get('schema')!r}")

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail("metrics dump has no counters object")
    # BM_MemoryGrow + BM_InstanceChurn must have driven all of these,
    # and the BM_LoopVersioning ablation the opt.* check-elimination
    # counter.
    required = [
        "mem.memories_created",
        "mem.mmap_calls",
        "mem.grow_calls",
        "mem.resize_syscalls",
        "rt.instances_created",
        "jit.modules_compiled",
        "opt.loops_versioned",
    ]
    for name in required:
        value = counters.get(name)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"counter {name} missing or zero: {value!r}")
    # Registered by the runtime even when no guard ever fails; the smoke
    # kernels stay in bounds, so only presence is required.
    if "opt.guard_fallbacks" not in counters:
        fail("counter opt.guard_fallbacks not registered")

    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        fail("metrics dump has no histograms object")
    grow = histograms.get("mem.grow_ns")
    if not grow or grow.get("count", 0) <= 0:
        fail(f"histogram mem.grow_ns missing or empty: {grow!r}")
    for stat in ("sum", "mean", "p50", "p90", "p99"):
        if stat not in grow:
            fail(f"histogram mem.grow_ns lacks {stat}")
    print(f"check_report: metrics OK ({len(counters)} counters, "
          f"{len(histograms)} histograms)")


def check_trace(trace_path):
    doc = load_json(trace_path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace file has no traceEvents")
    for event in events:
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                fail(f"trace event lacks {key}: {event!r}")
        phase = event["ph"]
        if phase == "X":
            if "dur" not in event:
                fail(f"complete event lacks dur: {event!r}")
        elif phase in ("b", "e"):
            if "id" not in event:
                fail(f"async event lacks id: {event!r}")
        elif phase != "i":
            fail(f"unexpected event phase: {phase!r}")
    names = {event["name"] for event in events}
    if "mem.create" not in names:
        fail(f"expected a mem.create span, got {sorted(names)}")
    print(f"check_report: trace OK ({len(events)} events)")


def check_svc_report(doc, path, strategies):
    if doc.get("schema") != "lnb.bench_result.v1":
        fail(f"{path}: bad schema: {doc.get('schema')!r}")
    config = doc.get("config", {})
    if config.get("strategy") not in strategies:
        fail(f"{path}: unexpected strategy {config.get('strategy')!r}")
    if not doc.get("ok"):
        fail(f"{path}: run not ok: {doc.get('error')!r}")
    latency = doc.get("latency", {})
    if latency.get("iterations", 0) <= 0:
        fail(f"{path}: no request latencies recorded")
    for stat in ("p50Seconds", "p99Seconds"):
        if stat not in latency:
            fail(f"{path}: latency lacks {stat}")

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: no counters object")
    # The serving path must have driven the cache, the pool and the
    # scheduler. (Totals are process-lifetime, so any positive value
    # proves the path ran.)
    required = [
        "svc.requests_submitted",
        "svc.requests_completed",
        "svc.cache_misses",
        "svc.pool_cold_acquires",
        "svc.pool_warm_acquires",
        "rt.instances_recycled",
    ]
    for name in required:
        value = counters.get(name)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"{path}: counter {name} missing or zero: {value!r}")
    # Recycling goes through the snapshot-restore fast path when a
    # template was captured (the default) and the legacy madvise-zap
    # reset otherwise (LNB_SNAPSHOT=0, uffd emulation): one of the two
    # must have fired.
    if (counters.get("mem.reset_calls", 0) <= 0 and
            counters.get("mem.restore_calls", 0) <= 0):
        fail(f"{path}: neither mem.reset_calls nor mem.restore_calls "
             f"is positive")
    if counters.get("svc.requests_trapped", 0) > 0:
        fail(f"{path}: requests trapped during smoke load")

    histograms = doc.get("histograms", {})
    for name in ("svc.request_ns", "svc.queue_wait_ns",
                 "svc.acquire_warm_ns",
                 "svc.phase_acquire_ns", "svc.phase_exec_ns",
                 "svc.phase_respond_ns"):
        hist = histograms.get(name)
        if not hist or hist.get("count", 0) <= 0:
            fail(f"{path}: histogram {name} missing or empty: {hist!r}")
    reset_hist = histograms.get("mem.reset_ns") or {}
    restore_hist = histograms.get("mem.restore_ns") or {}
    if (reset_hist.get("count", 0) <= 0 and
            restore_hist.get("count", 0) <= 0):
        fail(f"{path}: neither mem.reset_ns nor mem.restore_ns recorded")
    return config.get("strategy")


PROFILE_CATEGORIES = [
    "other", "interp", "jit_body", "jit_bounds_check", "tier_compile",
    "host_wasi", "mem", "svc",
]


def check_profile_block(doc, path, expected_hz):
    """Validate the sampling-profiler block of a bench_result report
    produced with LNB_PROF_HZ set."""
    profile = doc.get("profile")
    if not isinstance(profile, dict):
        fail(f"{path}: report lacks a profile block (LNB_PROF_HZ set)")
    if profile.get("samples", 0) <= 0:
        fail(f"{path}: profiler took no samples: {profile!r}")
    if profile.get("hz") != expected_hz:
        fail(f"{path}: profile hz {profile.get('hz')!r}, "
             f"expected {expected_hz}")
    categories = profile.get("categories")
    if not isinstance(categories, dict):
        fail(f"{path}: profile block lacks categories")
    for name in PROFILE_CATEGORIES:
        if name not in categories:
            fail(f"{path}: profile categories lack {name}")
    if sum(categories.values()) != profile["samples"]:
        fail(f"{path}: category sum {sum(categories.values())} != "
             f"samples {profile['samples']}")
    pct = profile.get("boundsCheckPct")
    if not isinstance(pct, (int, float)) or not 0 <= pct <= 100:
        fail(f"{path}: boundsCheckPct out of range: {pct!r}")
    funcs = profile.get("funcs")
    if not isinstance(funcs, list):
        fail(f"{path}: profile block lacks funcs")
    for func in funcs:
        for key in ("funcIdx", "tier", "samples", "boundsSamples"):
            if key not in func:
                fail(f"{path}: profile func lacks {key}: {func!r}")
        if func["boundsSamples"] > func["samples"]:
            fail(f"{path}: boundsSamples > samples: {func!r}")


def run_svc(lnb_svc, profiled=False):
    strategies = ["mprotect", "uffd"]
    prof_hz = 997
    with tempfile.TemporaryDirectory(prefix="lnb_check_svc_") as tmp:
        env = dict(os.environ)
        env["LNB_JSON_DIR"] = tmp
        if profiled:
            # Arm the sampling profiler so the reports carry a profile
            # block (and SIGPROF runs alongside the SIGSEGV strategies).
            env["LNB_PROF_HZ"] = str(prof_hz)
        cmd = [
            lnb_svc,
            "--strategies=" + ",".join(strategies),
            "--rate=300",
            "--seconds=2",
            "--workers=2",
            "--queue-depth=64",
        ]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            fail(f"{' '.join(cmd)} exited with {proc.returncode}")

        # Skip the process-exit metrics_<pid>.json dump the obs layer
        # also writes into LNB_JSON_DIR.
        reports = sorted(
            name
            for name in os.listdir(tmp)
            if name.endswith(".json") and not name.startswith("metrics_")
        )
        if len(reports) != len(strategies):
            fail(f"expected {len(strategies)} svc reports, got {reports}")
        seen = []
        for name in reports:
            path = os.path.join(tmp, name)
            doc = load_json(path)
            seen.append(check_svc_report(doc, path, strategies))
            if profiled:
                check_profile_block(doc, path, prof_hz)
        if sorted(seen) != sorted(strategies):
            fail(f"reports cover {seen}, expected {strategies}")
    mode = "profiled svc" if profiled else "svc"
    print(f"check_report: {mode} OK ({len(reports)} strategy reports)")
    if profiled:
        run_svc_versioning_ablation(lnb_svc)
    run_svc_tiered(lnb_svc)
    print("check_report: PASS")


def run_svc_versioning_ablation(lnb_svc):
    """Profiled jit-opt x trap load with loop versioning off, then on:
    the versioned fast paths must show up as a lower (ideally zero)
    profile.boundsCheckPct, and the opt.* counters must record the
    versioned loops."""
    prof_hz = 997
    results = {}
    for versioning in (0, 1):
        with tempfile.TemporaryDirectory(
                prefix=f"lnb_check_vers{versioning}_") as tmp:
            env = dict(os.environ)
            env["LNB_JSON_DIR"] = tmp
            env["LNB_PROF_HZ"] = str(prof_hz)
            env["LNB_OPT_VERSIONING"] = str(versioning)
            cmd = [
                lnb_svc,
                "--engine=jit-opt",
                "--strategies=trap",
                "--rate=300",
                "--seconds=2",
                "--workers=2",
                "--queue-depth=64",
            ]
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                fail(f"{' '.join(cmd)} exited with {proc.returncode}")
            reports = [
                name
                for name in os.listdir(tmp)
                if name.endswith(".json")
                and not name.startswith("metrics_")
            ]
            if len(reports) != 1:
                fail(f"expected one trap report, got {reports}")
            path = os.path.join(tmp, reports[0])
            doc = load_json(path)
            check_svc_report(doc, path, ["trap"])
            check_profile_block(doc, path, prof_hz)
            results[versioning] = doc

    counters = results[1].get("counters", {})
    if counters.get("opt.loops_versioned", 0) <= 0:
        fail("versioned run recorded no opt.loops_versioned")
    if "opt.guard_fallbacks" not in counters:
        fail("counter opt.guard_fallbacks not registered")
    pct_off = results[0]["profile"]["boundsCheckPct"]
    pct_on = results[1]["profile"]["boundsCheckPct"]
    if pct_on > pct_off:
        fail(f"boundsCheckPct rose with versioning: "
             f"off={pct_off:.2f} on={pct_on:.2f}")
    # Only demand a strict drop when the baseline spent visible time in
    # checks; below ~1% the comparison is sampling noise.
    if pct_off >= 1.0 and not pct_on < pct_off:
        fail(f"boundsCheckPct did not drop with versioning: "
             f"off={pct_off:.2f} on={pct_on:.2f}")
    print(f"check_report: versioning ablation OK "
          f"(boundsCheckPct {pct_off:.2f} -> {pct_on:.2f})")


def run_svc_tiered(lnb_svc):
    with tempfile.TemporaryDirectory(prefix="lnb_check_tier_") as tmp:
        env = dict(os.environ)
        env["LNB_JSON_DIR"] = tmp
        # Low threshold so the smoke load reliably tiers the kernel up.
        env["LNB_TIER_THRESHOLD"] = "2048"
        cmd = [
            lnb_svc,
            "--engine=tiered",
            "--strategies=trap",
            "--rate=300",
            "--seconds=2",
            "--workers=2",
            "--queue-depth=64",
        ]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            fail(f"{' '.join(cmd)} exited with {proc.returncode}")

        reports = [
            name
            for name in os.listdir(tmp)
            if name.endswith(".json") and not name.startswith("metrics_")
        ]
        if len(reports) != 1:
            fail(f"expected one tiered svc report, got {reports}")
        path = os.path.join(tmp, reports[0])
        doc = load_json(path)
        check_svc_report(doc, path, ["trap"])

        config = doc.get("config", {})
        if config.get("engine") != "tiered":
            fail(f"{path}: engine label {config.get('engine')!r}, "
                 f"expected 'tiered'")
        if config.get("tiered") is not True:
            fail(f"{path}: config.tiered not set")

        tier = doc.get("tier")
        if not isinstance(tier, dict):
            fail(f"{path}: tiered report lacks a tier block")
        if tier.get("requests", 0) <= 0 or tier.get("ups", 0) <= 0:
            fail(f"{path}: no tier-up happened under load: {tier!r}")
        if tier.get("failures", 0) > 0:
            fail(f"{path}: background compiles failed: {tier!r}")
        for key in ("timeToPeakSeconds", "steadySeconds"):
            if key not in tier:
                fail(f"{path}: tier block lacks {key}")
        curve = tier.get("curveSeconds")
        if not isinstance(curve, list) or not curve:
            fail(f"{path}: tier block lacks the latency curve")

        counters = doc.get("counters", {})
        for name in ("tier.requests", "tier.ups", "tier.calls_interp",
                     "tier.calls_jit"):
            value = counters.get(name)
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{path}: counter {name} missing or zero: {value!r}")
        if counters.get("tier.compile_failures", 0) > 0:
            fail(f"{path}: tier.compile_failures nonzero")

        histograms = doc.get("histograms", {})
        for name in ("tier.compile_ns", "tier.queue_depth"):
            hist = histograms.get(name)
            if not hist or hist.get("count", 0) <= 0:
                fail(f"{path}: histogram {name} missing or empty: "
                     f"{hist!r}")
    print("check_report: tiered svc OK (tier-up observed under load)")


def run_svc_deadline(lnb_svc):
    """Adversarial-tenant ablation: a slow-spinning 'adversary' tenant
    shares the workers with a 'victim' tenant, once with deadlines off
    and once with a short deadline. The deadline run must actually kill
    (svc.requests_deadline_killed, rt.interrupts_*) and must restore the
    victim p99 the adversary wrecked. The victim is deadline-exempt, so
    the comparison isolates queue/worker contention."""
    results = {}
    for deadline_ms in (0, 10):
        with tempfile.TemporaryDirectory(
                prefix=f"lnb_check_dl{deadline_ms}_") as tmp:
            env = dict(os.environ)
            env["LNB_JSON_DIR"] = tmp
            cmd = [
                lnb_svc,
                "--adversarial",
                "--strategies=trap",
                "--rate=200",
                "--seconds=2",
                "--workers=2",
                "--queue-depth=128",
                f"--deadline-ms={deadline_ms}",
            ]
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                fail(f"{' '.join(cmd)} exited with {proc.returncode}")
            reports = [
                name
                for name in os.listdir(tmp)
                if name.endswith(".json")
                and not name.startswith("metrics_")
            ]
            if len(reports) != 1:
                fail(f"expected one adversarial report, got {reports}")
            path = os.path.join(tmp, reports[0])
            doc = load_json(path)
            if doc.get("schema") != "lnb.bench_result.v1":
                fail(f"{path}: bad schema: {doc.get('schema')!r}")
            if not doc.get("ok"):
                fail(f"{path}: run not ok (non-deadline traps): "
                     f"{doc.get('error')!r}")
            latency = doc.get("latency", {})
            if latency.get("iterations", 0) <= 0:
                fail(f"{path}: no victim latencies recorded")
            results[deadline_ms] = doc

    # Counters are process-lifetime totals within each run's process.
    off = results[0].get("counters", {})
    on = results[10].get("counters", {})
    if off.get("svc.requests_deadline_killed", 0) != 0:
        fail("deadline-off run killed requests")
    for name in ("svc.requests_deadline_killed", "rt.interrupts_requested",
                 "rt.interrupts_delivered"):
        value = on.get(name)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"deadline run: counter {name} missing or zero: "
                 f"{value!r}")
    # The epoch mechanism must be registered even in the off run (the
    # counters exist; nothing fired).
    for name in ("rt.interrupts_requested", "rt.interrupts_delivered"):
        if name not in off:
            fail(f"counter {name} not registered in deadline-off run")

    p99_off = results[0]["latency"]["p99Seconds"]
    p99_on = results[10]["latency"]["p99Seconds"]
    # Each un-killed adversary request holds a worker for tens of ms, so
    # the off-run victim p99 sits well above the 10 ms deadline. Demand a
    # real improvement (with slack for scheduler noise) only when the
    # adversary visibly hurt the baseline; on an unloaded box both runs
    # can be fast and the comparison is noise.
    if p99_off >= 0.03 and p99_on > p99_off * 0.9:
        fail(f"deadlines did not restore victim p99: "
             f"off={p99_off * 1e3:.2f}ms on={p99_on * 1e3:.2f}ms")
    print(f"check_report: deadline ablation OK (victim p99 "
          f"{p99_off * 1e3:.2f}ms -> {p99_on * 1e3:.2f}ms, "
          f"{on['svc.requests_deadline_killed']:.0f} killed)")
    print("check_report: PASS")


def run_threads_scaling(fig3):
    """Run the fig3 shared-memory mode and validate its reports. The
    bench itself verifies the cross-strategy checksums (nonzero exit on
    mismatch); this validates the emitted lnb.bench_result.v1 docs."""
    strategies = ["none", "clamp", "trap", "mprotect", "uffd"]
    thread_counts = [1, 2, 4, 8]
    with tempfile.TemporaryDirectory(prefix="lnb_check_threads_") as tmp:
        env = dict(os.environ)
        env["LNB_JSON_DIR"] = tmp
        env["LNB_QUICK"] = "1"
        cmd = [fig3, "--shared"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            fail(f"{' '.join(cmd)} exited with {proc.returncode} "
                 f"(checksum mismatch or failed run)")

        reports = sorted(
            name
            for name in os.listdir(tmp)
            if name.endswith(".json") and not name.startswith("metrics_")
        )
        expected = len(strategies) * len(thread_counts)
        if len(reports) != expected:
            fail(f"expected {expected} shared-memory reports, "
                 f"got {reports}")
        seen = set()
        for name in reports:
            path = os.path.join(tmp, name)
            doc = load_json(path)
            if doc.get("schema") != "lnb.bench_result.v1":
                fail(f"{path}: bad schema: {doc.get('schema')!r}")
            if not doc.get("ok"):
                fail(f"{path}: run not ok: {doc.get('error')!r}")
            config = doc.get("config", {})
            strategy = config.get("strategy")
            threads = config.get("numThreads")
            if strategy not in strategies:
                fail(f"{path}: unexpected strategy {strategy!r}")
            if threads not in thread_counts:
                fail(f"{path}: unexpected thread count {threads!r}")
            if config.get("engine") != "shared-threads":
                fail(f"{path}: engine label {config.get('engine')!r}, "
                     f"expected 'shared-threads'")
            seen.add((strategy, threads))

            counters = doc.get("counters")
            if not isinstance(counters, dict):
                fail(f"{path}: no counters object")
            # Process-lifetime totals: the spawn path and thread 0's
            # periodic grows must have run by the first report.
            for cname in ("threads.spawns", "threads.threads_run",
                          "mem.shared_grow_calls"):
                value = counters.get(cname)
                if not isinstance(value, (int, float)) or value <= 0:
                    fail(f"{path}: counter {cname} missing or zero: "
                         f"{value!r}")
            # Registered by the exercised subsystems even when the bench
            # never parks a waiter; only presence is required.
            for cname in ("threads.waits", "threads.wakes",
                          "threads.notifies", "threads.wait_timeouts",
                          "mem.shared_grow_contended"):
                if cname not in counters:
                    fail(f"{path}: counter {cname} not registered")

            per_thread = doc.get("perThread")
            if not isinstance(per_thread, list) or \
                    len(per_thread) != threads:
                fail(f"{path}: perThread has "
                     f"{len(per_thread or [])} entries, "
                     f"expected {threads}")
            # Per-run deltas: every mprotect grow re-protects the guard
            # region; every uffd run faults its touched pages in.
            if strategy == "mprotect" and \
                    doc.get("resizeSyscalls", 0) <= 0:
                fail(f"{path}: mprotect run recorded no resize "
                     f"syscalls")
            if strategy == "uffd" and doc.get("faultsHandled", 0) <= 0:
                fail(f"{path}: uffd run handled no faults")
        if len(seen) != expected:
            fail(f"reports cover {sorted(seen)}, expected every "
                 f"strategy x thread count")
    print(f"check_report: threads scaling OK ({expected} reports, "
          f"checksums bit-exact)")
    check_churn_table(fig3)
    print("check_report: PASS")


def check_churn_table(fig3):
    """Run the whole fig3 bench (churn mode, then shared mode) and
    validate the churn table it writes as fig3_thread_scaling.csv."""
    engines = ["jit-base", "jit-opt", "interp-threaded"]
    strategies = ["none", "clamp", "trap", "mprotect", "uffd"]
    thread_counts = [1, 2, 4]
    cpus = os.sysconf("SC_NPROCESSORS_ONLN")
    if cpus > thread_counts[-1]:
        thread_counts.append(cpus)
    with tempfile.TemporaryDirectory(prefix="lnb_check_churn_") as tmp:
        env = dict(os.environ)
        env.pop("LNB_JSON_DIR", None)
        env["LNB_CSV_DIR"] = tmp
        env["LNB_QUICK"] = "1"
        proc = subprocess.run([fig3], env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            fail(f"{fig3} exited with {proc.returncode}")
        path = os.path.join(tmp, "fig3_thread_scaling.csv")
        try:
            with open(path, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
        except OSError as err:
            fail(f"{path}: {err}")
    keys = [(r["engine"], r["strategy"], int(r["threads"])) for r in rows]
    expected = [(e, s, t) for e in engines for s in strategies
                for t in thread_counts]
    if sorted(keys) != sorted(expected):
        fail(f"churn table rows {keys}, expected one per engine x "
             f"strategy x thread count {thread_counts}")
    for row, key in zip(rows, keys):
        if "fail" in row.values():
            fail(f"churn table: {key} failed")
        resizes = int(row["resize-syscalls"])
        blocking = float(row["mm-blocking-ops/s"])
        if not row["cpu-util"].endswith("%"):
            fail(f"churn table: {key} cpu-util {row['cpu-util']!r}")
        if key[1] == "mprotect" and (resizes <= 0 or blocking <= 0):
            fail(f"churn table: {key} has {resizes} resize syscalls and "
                 f"{blocking} blocking ops/s, expected both > 0")
        if key[1] in ("none", "clamp", "trap") and resizes != 0:
            fail(f"churn table: {key} has {resizes} resize syscalls, "
                 f"expected 0")
    print(f"check_report: churn table OK ({len(rows)} rows)")


def coldstart_run(lnb_svc, cache_dir, json_dir, trace_path=None):
    """One lnb_svc process against the shared code-cache dir; returns
    (report doc, report path)."""
    os.makedirs(json_dir)
    env = dict(os.environ)
    env["LNB_CODE_CACHE_DIR"] = cache_dir
    env["LNB_SNAPSHOT"] = "1"
    env["LNB_JSON_DIR"] = json_dir
    if trace_path is not None:
        env["LNB_TRACE_FILE"] = trace_path
    cmd = [
        lnb_svc,
        "--kernel=3mm",
        "--engine=jit-opt",
        "--strategies=trap",
        "--scale=2",
        "--rate=50",
        "--seconds=0.3",
        "--workers=1",
        "--queue-depth=64",
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    reports = [
        name
        for name in os.listdir(json_dir)
        if name.endswith(".json") and not name.startswith("metrics_")
    ]
    if len(reports) != 1:
        fail(f"expected 1 coldstart report, got {reports}")
    path = os.path.join(json_dir, reports[0])
    return load_json(path), path


# Trace scopes that mark a trip through the compilation pipeline. The
# second (disk-warm) coldstart process must emit none of them.
COMPILE_SCOPES = ("rt.compile", "jit.compile", "svc.cache_compile")


def coldstart_attempt(lnb_svc, attempt):
    """One cold-vs-warm process pair sharing LNB_CODE_CACHE_DIR.

    The structural invariants (second process compiles nothing, serves
    the artifact from disk, and restores pooled instances from the
    snapshot template) are deterministic and fail the check outright.
    Returns the first-request speedup ratio, which is timing and left
    to the caller's retry policy.
    """
    with tempfile.TemporaryDirectory(prefix="lnb_coldstart_") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        os.makedirs(cache_dir)
        trace_path = os.path.join(tmp, "trace2.json")
        cold, cold_path = coldstart_run(
            lnb_svc, cache_dir, os.path.join(tmp, "run1"))
        warm, warm_path = coldstart_run(
            lnb_svc, cache_dir, os.path.join(tmp, "run2"), trace_path)

        cold_counters = cold.get("counters", {})
        warm_counters = warm.get("counters", {})
        if cold_counters.get("svc.cache_persist_misses", 0) < 1:
            fail(f"{cold_path}: cold run recorded no persist miss")
        if cold_counters.get("jit.modules_compiled", 0) < 1:
            fail(f"{cold_path}: cold run compiled no module")
        if warm_counters.get("svc.cache_persist_hits", 0) < 1:
            fail(f"{warm_path}: warm run served no persisted artifact")
        if warm_counters.get("svc.cache_persist_misses", 0) != 0:
            fail(f"{warm_path}: warm run missed the disk cache")
        if warm_counters.get("jit.modules_compiled", 0) != 0:
            fail(f"{warm_path}: warm run recompiled the module")
        if warm_counters.get("rt.snapshot_restores", 0) <= 0:
            fail(f"{warm_path}: warm run restored no snapshot instances")

        # The warm process must not enter the compilation pipeline at
        # all: zero compile scopes in its trace (the load path is
        # traced as svc.cache_load instead).
        trace = load_json(trace_path)
        events = trace.get("traceEvents")
        if not isinstance(events, list) or not events:
            fail(f"{trace_path}: warm run produced no trace events")
        compiles = [e for e in events if e.get("name") in COMPILE_SCOPES]
        if compiles:
            fail(f"{trace_path}: warm run emitted compile scopes: "
                 f"{sorted({e['name'] for e in compiles})}")
        names = {e.get("name") for e in events}
        if "svc.cache_load" not in names:
            fail(f"{trace_path}: warm run has no svc.cache_load scope")

        cold_first = cold.get("compileSeconds", 0.0)
        warm_first = warm.get("compileSeconds", 0.0)
        if cold_first <= 0 or warm_first <= 0:
            fail(f"coldstart reports lack compileSeconds "
                 f"(cold={cold_first}, warm={warm_first})")
        ratio = cold_first / warm_first
        print(f"check_report: coldstart attempt {attempt}: first request "
              f"{cold_first * 1e6:.0f} us cold vs {warm_first * 1e6:.0f} us "
              f"disk-warm ({ratio:.1f}x)")
        return ratio


def run_coldstart(lnb_svc):
    """Two lnb_svc processes sharing a persistent code cache: the second
    must skip compilation entirely (0 compile scopes in its trace, the
    artifact served from disk, pooled instances restored from the
    snapshot template) and its first request must be >= 5x faster. The
    structural checks are exact on every attempt; the timing ratio is
    retried against scheduler noise."""
    attempts = 3
    ratios = []
    for attempt in range(1, attempts + 1):
        ratio = coldstart_attempt(lnb_svc, attempt)
        ratios.append(ratio)
        if ratio >= 5.0:
            print(f"check_report: coldstart OK ({ratio:.1f}x first-request "
                  f"speedup, 0 compile scopes in the warm process)")
            print("check_report: PASS")
            return
    fail(f"warm-cache first-request speedup below 5x on all "
         f"{attempts} attempts: {', '.join(f'{r:.1f}x' for r in ratios)}")


def main():
    if len(sys.argv) == 3 and sys.argv[1] in ("--svc", "--svc-profiled"):
        lnb_svc = sys.argv[2]
        if not os.access(lnb_svc, os.X_OK):
            fail(f"not executable: {lnb_svc}")
        run_svc(lnb_svc, profiled=sys.argv[1] == "--svc-profiled")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--ablation":
        # Standalone entry for the CI tier-2 sweep: just the loop
        # versioning off/on profiled comparison, no other svc checks.
        lnb_svc = sys.argv[2]
        if not os.access(lnb_svc, os.X_OK):
            fail(f"not executable: {lnb_svc}")
        run_svc_versioning_ablation(lnb_svc)
        print("check_report: PASS")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--deadline":
        lnb_svc = sys.argv[2]
        if not os.access(lnb_svc, os.X_OK):
            fail(f"not executable: {lnb_svc}")
        run_svc_deadline(lnb_svc)
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--threads":
        fig3 = sys.argv[2]
        if not os.access(fig3, os.X_OK):
            fail(f"not executable: {fig3}")
        run_threads_scaling(fig3)
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--coldstart":
        lnb_svc = sys.argv[2]
        if not os.access(lnb_svc, os.X_OK):
            fail(f"not executable: {lnb_svc}")
        run_coldstart(lnb_svc)
        return
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} "
             f"[--svc|--svc-profiled|--ablation|--deadline|--threads"
             f"|--coldstart] <path-to-binary>")
    micro_bounds = sys.argv[1]
    if not os.access(micro_bounds, os.X_OK):
        fail(f"not executable: {micro_bounds}")

    with tempfile.TemporaryDirectory(prefix="lnb_check_report_") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        env = dict(os.environ)
        env["LNB_JSON_DIR"] = tmp
        env["LNB_TRACE_FILE"] = trace_path
        cmd = [
            micro_bounds,
            "--benchmark_filter=BM_MemoryGrow|BM_InstanceChurn"
            "|BM_LoopVersioning",
            "--benchmark_min_time=0.01",
        ]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            fail(f"{' '.join(cmd)} exited with {proc.returncode}")

        check_metrics(tmp)
        check_trace(trace_path)
    print("check_report: PASS")


if __name__ == "__main__":
    main()
