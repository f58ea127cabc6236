/**
 * @file
 * The benchmarking harness, reproducing the protocol of paper §3.5:
 *
 *  - the module is compiled once; each worker thread gets its own
 *    Instance (the runtimes "spawn one instance of the runtime for each
 *    benchmark instance, all contained within the same process in
 *    isolated threads");
 *  - worker threads are pinned to CPU cores;
 *  - a warm-up phase runs before timing starts;
 *  - only module execution is timed; per-iteration instance setup and
 *    tear-down is excluded from the reported time (but is what stresses
 *    the memory-management path);
 *  - after finishing its measured iterations each thread keeps running
 *    cool-down iterations until every thread has finished measuring, so
 *    late measurements are not flattered by idle cores.
 *
 * The single-thread wasm-vs-native figures (paper Figs. 1, 2a, §4.4)
 * are measured by perfbench's steady phase instead, which interleaves
 * native with every cell (perfbench/README.md).
 */
#ifndef LNB_HARNESS_BENCH_RUNNER_H
#define LNB_HARNESS_BENCH_RUNNER_H

#include <functional>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "obs/profiler.h"
#include "runtime/engine.h"
#include "runtime/instance.h"

namespace lnb::harness {

/** One benchmark configuration. */
struct BenchSpec
{
    const kernels::Kernel* kernel = nullptr;
    rt::EngineConfig engineConfig;
    int scale = 1;
    int numThreads = 1;
    /** Measured iterations per thread; 0 = adaptive (run until
     * targetSeconds of measured time, at least minIterations). */
    int iterations = 0;
    int minIterations = 3;
    int maxIterations = 2000;
    double targetSeconds = 0.4;
    int warmupIterations = 1;
    bool pinThreads = true;
    /**
     * Create a fresh Instance (fresh linear memory) per iteration — the
     * per-task isolation pattern of the paper's serverless scenario that
     * drives the mprotect-vs-uffd scaling difference. When false, one
     * instance is reused per thread.
     */
    bool freshInstancePerIteration = true;
};

/** Per-thread measurements. */
struct ThreadStats
{
    std::vector<double> iterationSeconds;
    /** Thread CPU time over the run phase, warm-up and cool-down
     * included: the window BenchResult::wallSeconds spans. */
    double cpuSeconds = 0;
    uint64_t blockingEvents = 0; ///< over the same window
    double checksum = 0;        ///< kernel result, for validation
};

/**
 * Tiered-execution telemetry for one run (zeros unless the module was
 * compiled with EngineConfig::tiered). The curve is the paper-style
 * time-to-peak-performance view: early iterations run in the profiled
 * interpreter, later ones in background-compiled JIT code.
 */
struct TierCurve
{
    bool tiered = false;
    uint64_t requests = 0;     ///< tier-up requests (hotness crossings)
    uint64_t ups = 0;          ///< functions published at the jit tier
    uint64_t failures = 0;     ///< background compiles that failed
    double compileSeconds = 0; ///< background compile time, summed
    /** Thread 0's measured per-iteration latency, in run order. */
    std::vector<double> curveSeconds;
    /** Steady-state per-iteration latency: median of the curve's final
     * quartile. */
    double steadySeconds = 0;
    /**
     * Measured seconds before the curve settles: cumulative iteration
     * time up to the first iteration after which every sample stays
     * within 10% of steadySeconds. 0 when the first iteration is
     * already at steady state (fixed-tier JIT behavior).
     */
    double timeToPeakSeconds = 0;
};

/** Aggregate result of one benchmark run. */
struct BenchResult
{
    bool ok = false;
    std::string error;

    std::vector<ThreadStats> threads;
    double wallSeconds = 0;     ///< run-phase wall time
    double compileSeconds = 0;

    /** Median of all measured iteration times (paper's per-benchmark
     * statistic). */
    double medianIterationSeconds = 0;
    /** Total CPU utilization during the run phase; 100% = one core
     * (paper Fig. 4 quantity, portable provider). */
    double cpuUtilizationPercent = 0;
    /** Peak resident set during the run (paper Fig. 6 quantity). */
    uint64_t rssPeakBytes = 0;
    /** Virtual-memory syscalls issued on grow paths (all instances). */
    uint64_t resizeSyscalls = 0;
    /** Lazily populated pages (uffd strategies). */
    uint64_t faultsHandled = 0;
    /** Runtime blocking events per second (paper Fig. 5 substitute). */
    double blockingEventsPerSec = 0;
    /** Tier-up telemetry and the time-to-peak curve (tiered runs). */
    TierCurve tier;
    /**
     * Sampling-profiler delta over the run phase (zeros unless
     * LNB_PROF_HZ enabled the sampler): self-time by category and by
     * (function, tier), including the bounds-check share.
     */
    obs::ProfileSnapshot profile;
    /** Path of the JSON run report, when LNB_JSON_DIR was set. */
    std::string jsonReportPath;
};

/**
 * Fill TierCurve::steadySeconds (median of the curve's final quartile)
 * and timeToPeakSeconds (cumulative time before the suffix of
 * iterations that all stay within 10% of steady state) from
 * TierCurve::curveSeconds. No-op on curves shorter than 4 samples.
 */
void computeTimeToPeak(TierCurve& tier);

/** Run a wasm benchmark under the given spec. */
BenchResult runBenchmark(const BenchSpec& spec);

/** One iteration's outcome: the measured execution time covers only the
 * module run, not instance setup/teardown (paper SS3.5). */
struct IterSample
{
    double seconds = 0;
    double checksum = 0;
};

/**
 * The multithreaded timed-loop driver behind runBenchmark: runs
 * spec.numThreads workers, each doing spec.warmupIterations, then its
 * measured iterations (fixed or adaptive), then cool-down iterations
 * until every worker finished measuring. @p iteration runs one
 * iteration for a thread id, timing the execution phase itself;
 * @p blocking_events reads a thread's blocking count, after its
 * cool-down. Fills the threads, wall time, CPU, RSS and profile fields
 * of the result (spec.kernel is not used).
 */
BenchResult
driveThreads(const BenchSpec& spec,
             const std::function<IterSample(int thread_id)>& iteration,
             const std::function<uint64_t(int thread_id)>& blocking_events);

/** True if the LNB_QUICK environment variable requests a fast pass. */
bool quickMode();

/** Scale factor for benches: 1 normally, larger under LNB_QUICK. */
int benchScale();

} // namespace lnb::harness

#endif // LNB_HARNESS_BENCH_RUNNER_H
