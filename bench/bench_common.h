/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 */
#ifndef LNB_BENCH_BENCH_COMMON_H
#define LNB_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_runner.h"
#include "harness/report.h"
#include "kernels/kernel.h"
#include "mem/linear_memory.h"
#include "runtime/engine.h"
#include "support/sysinfo.h"

namespace lnb::bench {

using harness::BenchResult;
using harness::BenchSpec;
using harness::Table;
using harness::cell;
using kernels::Kernel;
using mem::BoundsStrategy;
using rt::EngineKind;

inline const std::vector<BoundsStrategy>&
allStrategies()
{
    static const std::vector<BoundsStrategy> strategies = {
        BoundsStrategy::none, BoundsStrategy::clamp, BoundsStrategy::trap,
        BoundsStrategy::mprotect, BoundsStrategy::uffd};
    return strategies;
}

/** Run one wasm config with a standard short protocol. */
inline BenchResult
runConfig(const Kernel& kernel, EngineKind engine, BoundsStrategy strategy,
          int scale, int threads, double target_seconds,
          bool fresh_instance = false)
{
    BenchSpec spec;
    spec.kernel = &kernel;
    spec.engineConfig.kind = engine;
    spec.engineConfig.strategy = strategy;
    spec.scale = scale;
    spec.numThreads = threads;
    spec.targetSeconds = target_seconds;
    spec.minIterations = 2;
    spec.freshInstancePerIteration = fresh_instance;
    return harness::runBenchmark(spec);
}

/** Short kernels suitable for the thread-scaling/contention benches. */
inline std::vector<const Kernel*>
shortKernels()
{
    std::vector<const Kernel*> out;
    for (const char* name :
         {"jacobi-1d", "trisolv", "gesummv", "atax", "bicg"}) {
        const Kernel* kernel = kernels::findKernel(name);
        if (kernel != nullptr)
            out.push_back(kernel);
    }
    return out;
}

} // namespace lnb::bench

#endif // LNB_BENCH_BENCH_COMMON_H
