#include "harness/bench_runner.h"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <thread>

#include "harness/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/clock.h"
#include "support/env.h"
#include "support/stats.h"
#include "support/sysinfo.h"

namespace lnb::harness {

namespace {

/** Workers record each measured iteration into this histogram; the
 * registry shards per thread, so there is no cross-worker contention. */
struct HarnessMetrics
{
    obs::Counter iterationsMeasured = obs::registerCounter(
        "harness.iterations_measured");
    obs::Counter benchRuns = obs::registerCounter("harness.bench_runs");
    obs::Histogram iterationLatency = obs::registerHistogram(
        "harness.iteration_ns");
};

HarnessMetrics&
harnessMetrics()
{
    static HarnessMetrics m;
    return m;
}

} // namespace

BenchResult
driveThreads(const BenchSpec& spec,
             const std::function<IterSample(int thread_id)>& iteration,
             const std::function<uint64_t(int thread_id)>& blocking_events)
{
    LNB_TRACE_SCOPE("harness.run");
    harnessMetrics().benchRuns.add();
    BenchResult result;
    int num_threads = spec.numThreads;
    result.threads.resize(size_t(num_threads));

    std::atomic<int> still_measuring{num_threads};
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> rss_peak{0};

    // Memory sampler (paper Fig. 6): poll RSS during the run phase.
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
        while (sampling.load(std::memory_order_relaxed)) {
            uint64_t rss = readOwnRssBytes();
            uint64_t prev = rss_peak.load(std::memory_order_relaxed);
            while (rss > prev &&
                   !rss_peak.compare_exchange_weak(prev, rss)) {
            }
            sleepNanos(20'000'000);
        }
    });

    // Profile delta brackets the run phase (warm-up included: the worker
    // threads register with the sampler on their first iteration anyway,
    // and warm-up work is the same code the measured phase runs).
    obs::ProfileSnapshot prof_before = obs::snapshotProfile();
    uint64_t wall_start = monotonicNanos();
    std::vector<std::thread> workers;
    workers.reserve(size_t(num_threads));
    for (int tid = 0; tid < num_threads; tid++) {
        workers.emplace_back([&, tid] {
            if (spec.pinThreads)
                pinThreadToCpu(tid);
            ThreadStats& stats = result.threads[size_t(tid)];
            uint64_t cpu_start = threadCpuNanos();

            // Warm-up.
            for (int w = 0; w < spec.warmupIterations; w++)
                stats.checksum = iteration(tid).checksum;

            // Measured iterations.
            int reps = spec.iterations;
            double measured = 0;
            int done = 0;
            while (true) {
                if (failed.load(std::memory_order_relaxed))
                    break;
                IterSample sample = iteration(tid);
                stats.checksum = sample.checksum;
                stats.iterationSeconds.push_back(sample.seconds);
                harnessMetrics().iterationsMeasured.add();
                harnessMetrics().iterationLatency.record(
                    uint64_t(sample.seconds * 1e9));
                measured += sample.seconds;
                done++;
                if (reps > 0) {
                    if (done >= reps)
                        break;
                } else if ((measured >= spec.targetSeconds &&
                            done >= spec.minIterations) ||
                           done >= spec.maxIterations) {
                    break;
                }
            }

            // Cool-down: keep the core busy until everyone finished
            // measuring (paper §3.5).
            still_measuring.fetch_sub(1, std::memory_order_acq_rel);
            while (still_measuring.load(std::memory_order_acquire) > 0 &&
                   !failed.load(std::memory_order_relaxed)) {
                iteration(tid);
            }
            // Read after the cool-down: the window wallSeconds spans.
            stats.cpuSeconds =
                double(threadCpuNanos() - cpu_start) * 1e-9;
            stats.blockingEvents = blocking_events(tid);
        });
    }
    for (std::thread& worker : workers)
        worker.join();
    result.wallSeconds = double(monotonicNanos() - wall_start) * 1e-9;
    result.profile = obs::profileDelta(prof_before,
                                       obs::snapshotProfile());

    sampling.store(false, std::memory_order_relaxed);
    sampler.join();
    result.rssPeakBytes = rss_peak.load(std::memory_order_relaxed);

    // Aggregates.
    std::vector<double> all_iterations;
    double cpu_total = 0;
    uint64_t blocking_total = 0;
    for (const ThreadStats& stats : result.threads) {
        all_iterations.insert(all_iterations.end(),
                              stats.iterationSeconds.begin(),
                              stats.iterationSeconds.end());
        cpu_total += stats.cpuSeconds;
        blocking_total += stats.blockingEvents;
    }
    result.medianIterationSeconds = median(std::move(all_iterations));
    result.cpuUtilizationPercent =
        100.0 * cpu_total / std::max(result.wallSeconds, 1e-9);
    result.blockingEventsPerSec =
        double(blocking_total) / std::max(result.wallSeconds, 1e-9);
    result.ok = !failed.load();
    return result;
}

void
computeTimeToPeak(TierCurve& tier)
{
    const std::vector<double>& curve = tier.curveSeconds;
    if (curve.size() < 4)
        return;
    std::vector<double> tail(curve.end() - ptrdiff_t(curve.size() / 4),
                             curve.end());
    tier.steadySeconds = median(std::move(tail));
    double bound = tier.steadySeconds * 1.10;
    size_t settled = 0;
    for (size_t i = curve.size(); i-- > 0;) {
        if (curve[i] > bound) {
            settled = i + 1;
            break;
        }
    }
    for (size_t i = 0; i < settled; i++)
        tier.timeToPeakSeconds += curve[i];
}

BenchResult
runBenchmark(const BenchSpec& spec)
{
    BenchResult failure;
    if (spec.kernel == nullptr) {
        failure.error = "no kernel";
        return failure;
    }

    // Compile once; all instances share the artifact (paper §3.5: "the
    // wasm code is fully loaded into the runtime and compiled" first).
    rt::Engine engine(spec.engineConfig);
    double compile_seconds = 0;
    std::shared_ptr<const rt::CompiledModule> compiled;
    {
        ScopedTimer timer(compile_seconds);
        auto result = engine.compile(spec.kernel->buildModule(spec.scale));
        if (!result.isOk()) {
            failure.error = result.status().toString();
            return failure;
        }
        compiled = result.takeValue();
    }

    struct PerThread
    {
        std::unique_ptr<rt::Instance> instance;
        uint64_t blockingEvents = 0;
    };
    std::vector<PerThread> per_thread(size_t(spec.numThreads));

    auto iteration = [&](int tid) -> IterSample {
        PerThread& slot = per_thread[size_t(tid)];
        // Instance setup/teardown is NOT part of the reported time
        // (paper SS3.5) — but it is what stresses the kernel MM path,
        // so it still happens between measured runs.
        if (spec.freshInstancePerIteration || !slot.instance) {
            // Account the outgoing instance's counters before dropping it.
            if (slot.instance) {
                slot.blockingEvents += slot.instance->blockingEvents();
                slot.instance.reset();
            }
            auto inst = rt::Instance::create(compiled);
            if (!inst.isOk())
                return {0, -1};
            slot.instance = inst.takeValue();
        }
        IterSample sample;
        uint64_t t0 = monotonicNanos();
        rt::CallOutcome out = slot.instance->callExport("run", {});
        sample.seconds = double(monotonicNanos() - t0) * 1e-9;
        sample.checksum = out.ok() ? out.results[0].f64 : -1;
        return sample;
    };
    auto blocking = [&](int tid) -> uint64_t {
        PerThread& slot = per_thread[size_t(tid)];
        uint64_t events = slot.blockingEvents;
        if (slot.instance)
            events += slot.instance->blockingEvents();
        return events;
    };

    const obs::MetricsSnapshot before = obs::snapshotMetrics();
    BenchResult result = driveThreads(spec, iteration, blocking);
    result.compileSeconds = compile_seconds;
    // Registry deltas: every grow-path syscall and every resolved fault
    // lands in these counters no matter which instance or worker produced
    // it, including instances created and destroyed mid-run.
    const obs::MetricsSnapshot after = obs::snapshotMetrics();
    result.resizeSyscalls = after.counter("mem.resize_syscalls") -
                            before.counter("mem.resize_syscalls");
    result.faultsHandled = after.counter("mem.faults_resolved") -
                           before.counter("mem.faults_resolved");
    if (compiled->config().tiered) {
        rt::TierStats tier_stats = compiled->tierStats();
        result.tier.tiered = true;
        result.tier.requests = tier_stats.requests;
        result.tier.ups = tier_stats.ups;
        result.tier.failures = tier_stats.failures;
        result.tier.compileSeconds =
            double(tier_stats.compileNanos) * 1e-9;
        if (!result.threads.empty())
            result.tier.curveSeconds =
                result.threads[0].iterationSeconds;
        computeTimeToPeak(result.tier);
    }
    maybeWriteJsonReport(spec, result);
    return result;
}

bool
quickMode()
{
    const char* env = std::getenv("LNB_QUICK");
    return env != nullptr && env[0] != '0';
}

int
benchScale()
{
    int def = quickMode() ? 4 : 1;
    return int(envInt("LNB_SCALE", def, 1, 1 << 20));
}

} // namespace lnb::harness
