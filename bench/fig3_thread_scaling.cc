/**
 * @file
 * Figures 3-5 reproduction (real-host part): "Performance scaling with
 * increased number of threads", "Average CPU load" and "Number of
 * context switches".
 *
 * The paper runs 1/4/16 benchmark copies pinned to cores and shows that
 * mprotect-based memory management scales worst, because short-running
 * benchmarks allocate and free memory frequently and every resize
 * serializes on the kernel's VMA lock; the same runs show mprotect
 * losing CPU utilization (Fig. 4) and context-switching an order of
 * magnitude more (Fig. 5). This binary reproduces the experiment in two
 * parts:
 *
 *  1. Instance-churn mode (the paper's setup, one run set for Figs.
 *     3-5): per-iteration instance churn on short kernels for
 *     {jit-base, jit-opt, interp-threaded} x 5 strategies at 1, 2 and 4
 *     threads, plus every online CPU when there are more. Each row
 *     reports throughput, CPU utilization (100% = one core,
 *     CLOCK_THREAD_CPUTIME_ID) and memory-management blocking
 *     operations per second: grow-path syscalls plus runtime blocking
 *     events, the operations that cause involuntary context switches
 *     (DESIGN.md substitution 7). The 16-thread shape, with exact
 *     simulated context switches, is reproduced by
 *     fig3_simkernel_scaling.
 *
 *  2. Shared-memory mode (threads proposal): N threads hammer ONE
 *     growable shared linear memory with atomic RMWs while thread 0
 *     periodically calls memory.grow, so every strategy's grow path
 *     (mprotect re-protection, uffd bounds-word store, flat remap) is
 *     exercised under concurrency. Each run's checksum is deterministic
 *     by construction and must be bit-exact across all five strategies;
 *     the measured scaling is then compared against src/simkernel's
 *     predicted scaling for the same thread counts.
 */
#include "bench/bench_common.h"

#include <cinttypes>
#include <map>

#include "runtime/instance.h"
#include "runtime/threads.h"
#include "simkernel/mm_sim.h"
#include "support/clock.h"
#include "support/stats.h"
#include "wasm/builder.h"

using namespace lnb;
using namespace lnb::bench;

namespace {

/**
 * Shared-memory hammer module. Each thread runs `run(tid) -> i64`:
 * per iteration it (a) increments a shared hot counter with
 * i32.atomic.rmw.add, (b) stores/loads an i64 on its private lane at
 * 128 + tid*8 and folds the loaded value into an accumulator, (c) does
 * an i64.atomic.store at the current tail of memory (memory.size-based,
 * always in bounds because growth is monotone), and (d) on thread 0,
 * grows the memory one page every `grow_every` iterations. The returned
 * accumulator depends only on (tid, iters) — never on interleaving — so
 * the combined checksum is bit-exact across strategies and engines.
 */
wasm::Module
buildSharedHammerModule(uint32_t iters, uint32_t grow_every)
{
    using wasm::Op;
    using wasm::ValType;
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 64, /*shared=*/true);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i64});
    auto& f = mb.addFunction(t);
    uint32_t i = f.addLocal(ValType::i32);
    uint32_t acc = f.addLocal(ValType::i64);
    auto loop = f.loop();
    // (a) shared hot counter at 8 += 1
    f.i32Const(8);
    f.i32Const(1);
    f.memOp(Op::i32_atomic_rmw_add);
    f.drop();
    // (b) private lane at 128 + tid*8: store i, load back, fold
    f.localGet(0);
    f.i32Const(3);
    f.emit(Op::i32_shl);
    f.i32Const(128);
    f.emit(Op::i32_add);
    f.localGet(i);
    f.emit(Op::i64_extend_i32_u);
    f.memOp(Op::i64_atomic_store);
    f.localGet(acc);
    f.i64Const(131);
    f.emit(Op::i64_mul);
    f.localGet(0);
    f.i32Const(3);
    f.emit(Op::i32_shl);
    f.i32Const(128);
    f.emit(Op::i32_add);
    f.memOp(Op::i64_atomic_load);
    f.emit(Op::i64_add);
    f.localSet(acc);
    // (c) moving-tail store at memory.size * 64KiB - 8
    f.memorySize();
    f.i32Const(16);
    f.emit(Op::i32_shl);
    f.i32Const(8);
    f.emit(Op::i32_sub);
    f.localGet(i);
    f.emit(Op::i64_extend_i32_u);
    f.memOp(Op::i64_atomic_store);
    // (d) thread 0 grows one page every grow_every iterations
    f.localGet(0);
    f.emit(Op::i32_eqz);
    f.localGet(i);
    f.i32Const(int32_t(grow_every));
    f.emit(Op::i32_rem_u);
    f.i32Const(int32_t(grow_every - 1));
    f.emit(Op::i32_eq);
    f.emit(Op::i32_and);
    f.ifElse();
    f.i32Const(1);
    f.memoryGrow();
    f.drop();
    f.end();
    // i++ and loop
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(i);
    f.i32Const(int32_t(iters));
    f.emit(Op::i32_ne);
    f.brIf(loop);
    f.end();
    f.localGet(acc);
    mb.exportFunc("run", f.finish());

    uint32_t tr = mb.addType({}, {ValType::i32});
    auto& g = mb.addFunction(tr);
    g.i32Const(8);
    g.memOp(Op::i32_atomic_load);
    mb.exportFunc("counter", g.finish());
    return mb.build();
}

struct SharedRunResult
{
    bool ok = false;
    double wallSeconds = 0;
    double throughput = 0; ///< total iterations / wall second
    uint64_t checksum = 0;
    uint64_t growCalls = 0;
    uint64_t growContended = 0;
    uint64_t resizeSyscalls = 0;
    uint64_t faultsHandled = 0;
    std::vector<uint64_t> perThread;
};

/** One shared-memory run: N threads against one shared linear memory. */
SharedRunResult
runShared(mem::BoundsStrategy strategy, uint32_t num_threads,
          uint32_t iters, uint32_t grow_every)
{
    SharedRunResult r;
    rt::EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = strategy;
    rt::Engine engine(config);
    auto compiled =
        engine.compile(buildSharedHammerModule(iters, grow_every));
    if (!compiled.isOk())
        return r;
    auto inst = rt::Instance::create(compiled.takeValue());
    if (!inst.isOk())
        return r;
    auto owned = inst.takeValue();

    const auto* memory = owned->memory();
    uint64_t grows0 = memory->sharedGrowCalls();
    uint64_t contended0 = memory->sharedGrowContended();
    uint64_t resizes0 = memory->resizeSyscalls();
    uint64_t faults0 = memory->faultsHandled();

    uint64_t t0 = monotonicNanos();
    auto outcomes =
        rt::spawnThreads(*owned, "run", num_threads, [](uint32_t tid) {
            return std::vector<wasm::Value>{wasm::Value::fromI32(tid)};
        });
    r.wallSeconds = double(monotonicNanos() - t0) * 1e-9;
    if (!outcomes.isOk())
        return r;

    // Order-independent combine of the deterministic per-thread folds,
    // then mix in the exact shared-counter total and final size: equal
    // across strategies iff no increment, store or grow was lost.
    uint64_t combined = 0;
    for (uint32_t i = 0; i < num_threads; i++) {
        const rt::CallOutcome& out = outcomes.value()[i];
        if (!out.ok())
            return r;
        uint64_t thread_acc = uint64_t(out.results[0].i64);
        r.perThread.push_back(thread_acc);
        combined ^= thread_acc * 0x9E3779B97F4A7C15ull;
    }
    rt::CallOutcome counter = owned->callExport("counter", {});
    if (!counter.ok())
        return r;
    r.checksum = combined ^ (uint64_t(uint32_t(counter.results[0].i32)) *
                             1000003ull) ^
                 (memory->sizeBytes() / wasm::kPageSize << 48);

    r.growCalls = memory->sharedGrowCalls() - grows0;
    r.growContended = memory->sharedGrowContended() - contended0;
    r.resizeSyscalls = memory->resizeSyscalls() - resizes0;
    r.faultsHandled = memory->faultsHandled() - faults0;
    r.throughput = double(num_threads) * double(iters) / r.wallSeconds;
    r.ok = true;
    return r;
}

/** Emit one lnb.bench_result.v1 report for a shared-memory run, so the
 * threads.* and mem.shared_grow_* counters land in LNB_JSON_DIR runs. */
void
writeSharedJsonReport(mem::BoundsStrategy strategy, uint32_t num_threads,
                      uint32_t iters, const SharedRunResult& run)
{
    BenchSpec spec;
    spec.kernel = nullptr; // synthetic shared-memory hammer, no kernel
    spec.engineConfig.kind = EngineKind::jit_base;
    spec.engineConfig.strategy = strategy;
    spec.engineConfig.sharedMemory = true;
    spec.numThreads = int(num_threads);
    BenchResult result;
    result.ok = run.ok;
    if (!run.ok)
        result.error = "shared-memory run failed";
    result.wallSeconds = run.wallSeconds;
    result.medianIterationSeconds =
        iters > 0 ? run.wallSeconds / double(iters) : 0;
    result.resizeSyscalls = run.resizeSyscalls;
    result.faultsHandled = run.faultsHandled;
    for (uint64_t acc : run.perThread) {
        harness::ThreadStats stats;
        // double-precision mantissa view of the fold; the exact value is
        // cross-checked in-process before this report is written.
        stats.checksum = double(acc & ((uint64_t(1) << 52) - 1));
        result.threads.push_back(std::move(stats));
    }
    harness::maybeWriteJsonReport(spec, result, "shared-threads");
}

/** The paper-style instance-churn part (Figs. 3a, 4 and 5). */
void
runChurnMode()
{
    int scale = std::max(harness::benchScale(), 2);
    double target = harness::quickMode() ? 0.06 : 0.2;
    std::vector<int> thread_counts = {1, 2, 4};
    if (onlineCpuCount() > thread_counts.back())
        thread_counts.push_back(onlineCpuCount());
    std::vector<const Kernel*> workload = shortKernels();

    Table table({"engine", "strategy", "threads", "median-iter(ms)",
                 "throughput(iters/s)", "cpu-util", "mm-blocking-ops/s",
                 "resize-syscalls", "faults"});
    for (EngineKind engine :
         {EngineKind::jit_base, EngineKind::jit_opt,
          EngineKind::interp_threaded}) {
        for (BoundsStrategy strategy : allStrategies()) {
            for (int threads : thread_counts) {
                // Aggregate across the short-kernel workload: cpu-util
                // and blocking ops/s are per-kernel means, throughput
                // and counts are totals.
                double total_iters_per_sec = 0;
                std::vector<double> medians;
                uint64_t resizes = 0, faults = 0;
                double util = 0, blocking_per_sec = 0;
                bool ok = true;
                for (const Kernel* kernel : workload) {
                    BenchResult result =
                        runConfig(*kernel, engine, strategy, scale,
                                  threads, target, /*fresh_instance=*/true);
                    if (!result.ok) {
                        ok = false;
                        break;
                    }
                    size_t iters = 0;
                    for (const auto& t : result.threads)
                        iters += t.iterationSeconds.size();
                    total_iters_per_sec +=
                        double(iters) / result.wallSeconds;
                    medians.push_back(result.medianIterationSeconds);
                    resizes += result.resizeSyscalls;
                    faults += result.faultsHandled;
                    util += result.cpuUtilizationPercent;
                    blocking_per_sec +=
                        result.blockingEventsPerSec +
                        double(result.resizeSyscalls) / result.wallSeconds;
                }
                std::vector<std::string> row = {engineKindName(engine),
                                                boundsStrategyName(strategy),
                                                cell("%d", threads)};
                if (!ok) {
                    row.insert(row.end(), {"fail", "", "", "", "", ""});
                    table.addRow(std::move(row));
                    continue;
                }
                double runs = double(workload.size());
                row.insert(row.end(),
                           {cell("%.3f", median(medians) * 1e3),
                            cell("%.0f", total_iters_per_sec),
                            cell("%.0f%%", util / runs),
                            cell("%.0f", blocking_per_sec / runs),
                            cell("%lu", (unsigned long)resizes),
                            cell("%lu", (unsigned long)faults)});
                table.addRow(std::move(row));
            }
        }
    }
    std::fputs(table.toString().c_str(), stdout);
    table.maybeWriteCsv("fig3_thread_scaling");
}

/** Shared-memory mode: N threads, ONE growable memory per strategy. */
int
runSharedMode()
{
    const uint32_t iters = harness::quickMode() ? 4000 : 20000;
    const uint32_t grow_every = iters / 8; // 8 grows per run, any N
    const std::vector<uint32_t> thread_counts = {1, 2, 4, 8};

    std::printf("\nshared-memory mode: %u iters/thread, grow every %u "
                "(thread 0 only)\n",
                iters, grow_every);

    Table table({"strategy", "threads", "wall(ms)", "throughput(it/s)",
                 "checksum", "grow-calls", "grow-contended",
                 "resize-syscalls", "faults"});
    // measured[strategy index][thread-count index] = throughput
    std::vector<std::vector<double>> measured(
        allStrategies().size(),
        std::vector<double>(thread_counts.size(), 0));
    std::map<uint32_t, uint64_t> reference_checksum; // per thread count
    int mismatches = 0;
    bool all_ok = true;

    for (size_t si = 0; si < allStrategies().size(); si++) {
        BoundsStrategy strategy = allStrategies()[si];
        for (size_t ti = 0; ti < thread_counts.size(); ti++) {
            uint32_t threads = thread_counts[ti];
            SharedRunResult run =
                runShared(strategy, threads, iters, grow_every);
            writeSharedJsonReport(strategy, threads, iters, run);
            if (!run.ok) {
                all_ok = false;
                table.addRow({boundsStrategyName(strategy),
                              cell("%u", threads), "fail", "", "", "",
                              "", "", ""});
                continue;
            }
            measured[si][ti] = run.throughput;
            auto [it, inserted] = reference_checksum.try_emplace(
                threads, run.checksum);
            if (!inserted && it->second != run.checksum) {
                mismatches++;
                std::printf("CHECKSUM MISMATCH: %s x %u threads: "
                            "%016" PRIx64 " != %016" PRIx64 "\n",
                            boundsStrategyName(strategy), threads,
                            run.checksum, it->second);
            }
            table.addRow(
                {boundsStrategyName(strategy), cell("%u", threads),
                 cell("%.2f", run.wallSeconds * 1e3),
                 cell("%.0f", run.throughput),
                 cell("%016" PRIx64, run.checksum),
                 cell("%" PRIu64, run.growCalls),
                 cell("%" PRIu64, run.growContended),
                 cell("%" PRIu64, run.resizeSyscalls),
                 cell("%" PRIu64, run.faultsHandled)});
        }
    }
    std::fputs(table.toString().c_str(), stdout);
    table.maybeWriteCsv("fig3_shared_memory");
    if (mismatches == 0 && all_ok)
        std::printf("checksums bit-exact across all strategies for "
                    "every thread count\n");

    // Predicted-vs-measured scaling: calibrate the simkernel's
    // per-iteration compute cost from each strategy's own 1-thread
    // measurement, then compare relative speedups. The sim models the
    // mmap-lock/TLB-shootdown serialization (paper Fig. 3b); the
    // measured column is this host's shared-grow contention.
    Table model({"strategy", "threads", "sim-x", "measured-x",
                 "sim-util", "sim-lock-wait"});
    for (size_t si = 0; si < allStrategies().size(); si++) {
        BoundsStrategy strategy = allStrategies()[si];
        if (measured[si][0] <= 0)
            continue; // 1-thread baseline failed; nothing to scale
        double compute_ns = 1e9 / measured[si][0];
        double sim_base = 0;
        for (size_t ti = 0; ti < thread_counts.size(); ti++) {
            simk::SimConfig sim;
            sim.numThreads = int(thread_counts[ti]);
            sim.numCpus = onlineCpuCount();
            sim.iterations = int(iters);
            sim.computeNsPerIteration = compute_ns;
            sim.arenaPages = 1;
            sim.strategy = strategy;
            sim.poolArenas = true;
            simk::SimResult predicted = simk::simulateContention(sim);
            if (ti == 0)
                sim_base = predicted.throughputPerSec;
            double measured_x = measured[si][ti] > 0
                                    ? measured[si][ti] / measured[si][0]
                                    : 0;
            model.addRow(
                {boundsStrategyName(strategy),
                 cell("%u", thread_counts[ti]),
                 cell("%.2f", sim_base > 0
                                  ? predicted.throughputPerSec / sim_base
                                  : 0),
                 cell("%.2f", measured_x),
                 cell("%.0f%%", predicted.cpuUtilizationPercent),
                 cell("%.1f%%", predicted.lockWaitFraction * 100)});
        }
    }
    std::printf("\npredicted (simkernel) vs measured scaling, relative "
                "to 1 thread:\n");
    std::fputs(model.toString().c_str(), stdout);
    model.maybeWriteCsv("fig3_shared_scaling_model");
    return (mismatches == 0 && all_ok) ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    bool shared_only = argc > 1 && std::string(argv[1]) == "--shared";
    harness::printBanner("fig3: thread scaling (real host)",
                         "paper Figures 3a, 4a/4c, 5a (short tasks)");

    if (!shared_only)
        runChurnMode();
    int rc = runSharedMode();
    std::printf("\nNote: run fig3_simkernel_scaling for the paper's "
                "16-thread regime and its exact context-switch counts "
                "(this host has %d cores).\n",
                onlineCpuCount());
    return rc;
}
