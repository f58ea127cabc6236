/**
 * @file
 * perfbench: the repository benchmark driver. One process runs the
 * phases of a workload (see bench.h) for a seeded input order and prints
 * one JSON object as its last stdout line:
 *
 *   {"correct": bool, "attempted": N, "failed": N,
 *    "end_to_end": {name: {"value", "unit"}},
 *    "per_layer": {name: {"value", "unit"}}}        (--trace 1 only)
 *
 *   perfbench --workload polybench --seed 7 --seconds 40 --trace 0
 *
 * Every wasm call, native call and serving request is checked bit for bit
 * against the kernel's native checksum; any trap, mismatch or rejection
 * makes the run exit 1 after printing its result. --trace 1 additionally
 * runs the serving phase, records spans around each layer call, reads
 * the deltas of the registry's counters and histograms, and reports the
 * profiler's category split (LNB_PROF_HZ must be set for the profile).
 */
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "obs/profiler.h"
#include "support/clock.h"

using namespace lnb;
using namespace lnb::perfbench;

namespace {

/** Share of --seconds steady and cold_start measure for. */
constexpr double kSteadyShare = 0.6;
constexpr double kColdShare = 0.4;
/** A traced run serves for this share of --seconds on top, plus its rate
 * ladder. */
constexpr double kServeShare = 0.2;
/** Measurement slices per run; see Phase. */
constexpr int kSlices = 10;
/** Spans written to the trace file at most (the self times use all). */
constexpr size_t kMaxTraceSpans = 200000;

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload polybench|specproxy "
                 "--seed N --seconds S --trace 0|1\n"
                 "                 [--trace-out FILE] [--corrupt-every N]\n");
}

bool
parseArgs(int argc, char** argv, Options& opts)
{
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            return false;
        }
        const char* value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            opts.trace = std::strtol(value, &end, 10) != 0;
        } else if (arg == "--trace-out") {
            opts.traceOut = value;
        } else if (arg == "--corrupt-every") {
            opts.corruptEvery = std::strtoull(value, &end, 10);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return false;
        }
        if (end != nullptr && *end != '\0') {
            std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(),
                         value);
            return false;
        }
    }
    if (opts.workload.empty() || !(opts.seconds > 0)) {
        std::fprintf(stderr, "--workload and a positive --seconds are "
                             "required\n");
        return false;
    }
    return true;
}

void
merge(Metrics& into, const Metrics& from)
{
    into.insert(from.begin(), from.end());
}

std::string
jsonMetrics(const Metrics& metrics)
{
    std::string out = "{";
    char buf[96];
    for (const auto& [name, m] : metrics) {
        if (out.size() > 1)
            out += ", ";
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    return out + "}";
}

void
printTable(const char* title, const Metrics& metrics)
{
    std::fprintf(stderr, "[%s]\n", title);
    for (const auto& [name, m] : metrics)
        std::fprintf(stderr, "  %-40s %14.4f %s\n", name.c_str(), m.value,
                     m.unit.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    Workload workload;
    if (!findWorkload(opts.workload, workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    Checker checker(opts.corruptEvery);
    Tracer tracer(opts.trace);
    obs::ProfileSnapshot prof_before = obs::snapshotProfile();

    PhaseContext ctx{opts, workload, checker, tracer};
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(makeSteady(ctx));
    phases.push_back(makeCold(ctx));
    std::vector<double> shares = {kSteadyShare, kColdShare};
    // Serving figures are per-layer only, so an untraced run skips the
    // phase.
    if (opts.trace) {
        phases.push_back(makeServe(ctx));
        shares.push_back(kServeShare);
    }
    for (auto& phase : phases) {
        if (!phase->setUp()) {
            std::fprintf(stderr, "set-up failed\n");
            return 2;
        }
    }

    // setup_s: before every slice, on the next CPU, steady and cold_start
    // are set up afresh on state that is then dropped, and setup_s is the
    // fast-state estimate of these ten set-ups, so work moved into set-up
    // shows without the slow state deciding the figure: one run's
    // set-ups ranged over 0.55-0.96 s as vCPUs changed state. The
    // measured phases are not rebuilt: moving their code and memory
    // between slices made x_native and rss_peak_mb wander between runs.
    // Serving's set-up stays out, so setup_s means the same in a traced
    // run.
    std::vector<double> setups;
    for (int slice = 0; slice < kSlices; slice++) {
        rotateCpu(uint64_t(slice));
        double steady_seconds = 0;
        std::unique_ptr<Phase> cold = makeCold(ctx);
        uint64_t t0 = monotonicNanos();
        bool cold_ok = cold->setUp();
        double cold_seconds = double(monotonicNanos() - t0) * 1e-9;
        if (!cold_ok || !rehearseSteadySetUp(ctx, &steady_seconds)) {
            std::fprintf(stderr, "set-up failed\n");
            return 2;
        }
        setups.push_back(cold_seconds + steady_seconds);
        for (size_t i = 0; i < phases.size(); i++)
            phases[i]->measure(opts.seconds * shares[i] / kSlices);
    }

    Metrics end_to_end;
    Metrics per_layer;
    for (auto& phase : phases) {
        PhaseOutput out = phase->finish();
        merge(end_to_end, out.endToEnd);
        merge(per_layer, out.perLayer);
    }
    end_to_end["setup_s"] = {fastStateEstimate(setups), "s"};
    struct rusage usage_self;
    getrusage(RUSAGE_SELF, &usage_self);
    end_to_end["rss_peak_mb"] = {double(usage_self.ru_maxrss) / 1024, "MB"};

    if (opts.trace) {
        obs::ProfileSnapshot prof =
            obs::profileDelta(prof_before, obs::snapshotProfile());
        for (int i = 0; i < obs::kNumProfCategories; i++) {
            per_layer[std::string("prof.") + obs::profCategoryName(i) +
                      "_pct"] = {prof.samples > 0
                                     ? 100.0 * double(prof.categories[i]) /
                                           double(prof.samples)
                                     : 0,
                                 "%"};
        }
        for (const auto& [name, micros] : tracer.meanSelfMicros())
            per_layer["self_us." + name] = {micros, "us"};
        per_layer["error_rate"] = {
            double(checker.failed()) /
                double(std::max<uint64_t>(checker.attempted(), 1)),
            "ratio"};
        if (!opts.traceOut.empty() &&
            !tracer.write(opts.traceOut, kMaxTraceSpans))
            std::fprintf(stderr, "warning: could not write %s\n",
                         opts.traceOut.c_str());
        printTable("per layer", per_layer);
    }
    printTable("end to end", end_to_end);

    bool correct = checker.failed() == 0;
    std::fprintf(stderr, "attempted %llu, failed %llu (%llu mismatches)\n",
                 (unsigned long long)checker.attempted(),
                 (unsigned long long)checker.failed(),
                 (unsigned long long)checker.mismatches());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"end_to_end\": %s, \"per_layer\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)checker.attempted(),
                (unsigned long long)checker.failed(),
                jsonMetrics(end_to_end).c_str(),
                jsonMetrics(per_layer).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
