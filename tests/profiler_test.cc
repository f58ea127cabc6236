/**
 * @file
 * Tests for the sampling profiler (obs/profiler.h) and its JIT code map
 * (mem/code_registry.h JitCodeInfo): PC classification unit tests, the
 * profiled-vs-unprofiled bit-exactness smoke across all five bounds
 * strategies and three engine setups, direct bounds-check attribution
 * (soft-check JIT shows jit_bounds_check samples, guard/raw JIT shows
 * none), folded-stack output, Prometheus exposition, and SIGPROF
 * coexistence with the SIGSEGV trap machinery.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "mem/code_registry.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/clock.h"
#include "wasm/builder.h"

namespace lnb {
namespace {

using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::EngineConfig;
using rt::EngineKind;
using wasm::Op;
using wasm::ValType;
using wasm::Value;

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::none,     BoundsStrategy::mprotect,
    BoundsStrategy::uffd,     BoundsStrategy::clamp,
    BoundsStrategy::trap,
};

/** Restores the profiler to "off" even when a test fails mid-way. */
struct ProfilerGuard
{
    explicit ProfilerGuard(int hz) { obs::setProfilerHzForTesting(hz); }
    ~ProfilerGuard() { obs::setProfilerHzForTesting(0); }
};

/**
 * A memory-traffic-heavy workload:
 *
 *   churn(n) -> i64 checksum; n loop iterations, each doing one i32
 *   store and two i32 loads at in-bounds addresses
 *
 * so soft bounds strategies (clamp/trap) spend a meaningful share of
 * cycles inside emitted check sequences — the property the direct
 * attribution tests measure.
 */
wasm::Module
churnModule()
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 2);

    auto& churn =
        mb.addFunction(mb.addType({ValType::i32}, {ValType::i64}));
    uint32_t acc = churn.addLocal(ValType::i64);
    uint32_t i = churn.addLocal(ValType::i32);
    uint32_t addr = churn.addLocal(ValType::i32);
    auto exit = churn.block();
    churn.localGet(0);
    churn.emit(Op::i32_eqz);
    churn.brIf(exit);
    auto head = churn.loop();
    // addr = (i * 37) & 0xFFC
    churn.localGet(i);
    churn.i32Const(37);
    churn.emit(Op::i32_mul);
    churn.i32Const(0xFFC);
    churn.emit(Op::i32_and);
    churn.localSet(addr);
    // mem[addr] = i ^ (i << 13)
    churn.localGet(addr);
    churn.localGet(i);
    churn.localGet(i);
    churn.i32Const(13);
    churn.emit(Op::i32_shl);
    churn.emit(Op::i32_xor);
    churn.memOp(Op::i32_store);
    // acc = acc * 31 + mem[addr] + mem[(addr + 512) & 0xFFC]
    churn.localGet(acc);
    churn.i64Const(31);
    churn.emit(Op::i64_mul);
    churn.localGet(addr);
    churn.memOp(Op::i32_load);
    churn.localGet(addr);
    churn.i32Const(512);
    churn.emit(Op::i32_add);
    churn.i32Const(0xFFC);
    churn.emit(Op::i32_and);
    churn.memOp(Op::i32_load);
    churn.emit(Op::i32_add);
    churn.emit(Op::i64_extend_i32_u);
    churn.emit(Op::i64_add);
    churn.localSet(acc);
    // i++; continue while i < n
    churn.localGet(i);
    churn.i32Const(1);
    churn.emit(Op::i32_add);
    churn.localSet(i);
    churn.localGet(i);
    churn.localGet(0);
    churn.emit(Op::i32_lt_u);
    churn.brIf(head);
    churn.end();
    churn.end();
    churn.localGet(acc);
    mb.exportFunc("churn", churn.finish());
    return mb.build();
}

/** A module whose oob(x) export loads out of bounds when x >= 64 KiB. */
wasm::Module
oobModule()
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    auto& oob = mb.addFunction(mb.addType({ValType::i32}, {ValType::i32}));
    oob.localGet(0);
    oob.memOp(Op::i32_load);
    mb.exportFunc("oob", oob.finish());
    return mb.build();
}

uint64_t
callChurn(rt::Instance& instance, int32_t n)
{
    Value arg;
    arg.i32 = uint32_t(n);
    CallOutcome out = instance.callExport("churn", {arg});
    EXPECT_TRUE(out.ok()) << "churn trapped: "
                          << trapKindName(out.trap);
    return out.ok() ? out.results[0].i64 : 0;
}

std::unique_ptr<rt::Instance>
makeInstance(const wasm::Module& module, const EngineConfig& config)
{
    rt::Engine engine(config);
    auto compiled = engine.compile(module);
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    if (!compiled.isOk())
        return nullptr;
    auto instance = rt::Instance::create(compiled.takeValue());
    EXPECT_TRUE(instance.isOk()) << instance.status().toString();
    return instance.isOk() ? instance.takeValue() : nullptr;
}

/** Sum of a snapshot's per-category counts. */
uint64_t
categorySum(const obs::ProfileSnapshot& snap)
{
    uint64_t sum = 0;
    for (int i = 0; i < obs::kNumProfCategories; i++)
        sum += snap.categories[i];
    return sum;
}

/** Run churn(n) repeatedly until at least min_nanos elapse. */
uint64_t
churnFor(rt::Instance& instance, int32_t n, uint64_t min_nanos)
{
    uint64_t checksum = 0;
    uint64_t start = monotonicNanos();
    do {
        checksum = callChurn(instance, n);
    } while (monotonicNanos() - start < min_nanos);
    return checksum;
}

// ---------------------------------------------------- code map (unit)

TEST(JitCodeMap, ClassifyAttributesFunctionTierAndBoundsRanges)
{
    // A fake 64-byte "code" region: functions at offsets 8 and 32, a
    // bounds-check range at [16, 24) inside the first function.
    alignas(16) static const uint8_t code[64] = {};
    mem::JitCodeInfo info;
    info.tier = obs::kProfTierJitOpt;
    info.funcStarts = {8, 32};
    info.funcIndices = {5, 9};
    info.checkStarts = {16};
    info.checkEnds = {24};

    auto* region = mem::CodeRegionRegistry::add(code, sizeof code, &info);
    ASSERT_NE(region, nullptr);

    mem::JitPcInfo out;
    // Before the first function: region matches, no function.
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 4, &out));
    EXPECT_EQ(out.funcIdx, mem::JitPcInfo::kNoFunc);

    // Inside function 5, outside any check range.
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 10, &out));
    EXPECT_EQ(out.funcIdx, 5u);
    EXPECT_EQ(out.tier, obs::kProfTierJitOpt);
    EXPECT_FALSE(out.inBoundsCheck);

    // Inside the bounds-check range (inclusive start, exclusive end).
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 16, &out));
    EXPECT_TRUE(out.inBoundsCheck);
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 23, &out));
    EXPECT_TRUE(out.inBoundsCheck);
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 24, &out));
    EXPECT_FALSE(out.inBoundsCheck);

    // Second function, to the region's last byte.
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 32, &out));
    EXPECT_EQ(out.funcIdx, 9u);
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 63, &out));
    EXPECT_EQ(out.funcIdx, 9u);

    // One past the end: not in the region.
    EXPECT_FALSE(
        mem::CodeRegionRegistry::classify(code + sizeof code, &out));

    mem::CodeRegionRegistry::remove(region);
    EXPECT_FALSE(mem::CodeRegionRegistry::classify(code + 10, &out));
}

TEST(JitCodeMap, RegionWithoutInfoClassifiesAsAnonymousJit)
{
    alignas(16) static const uint8_t code[32] = {};
    auto* region = mem::CodeRegionRegistry::add(code, sizeof code);
    ASSERT_NE(region, nullptr);

    mem::JitPcInfo out;
    ASSERT_TRUE(mem::CodeRegionRegistry::classify(code + 1, &out));
    EXPECT_EQ(out.funcIdx, mem::JitPcInfo::kNoFunc);
    EXPECT_FALSE(out.inBoundsCheck);

    mem::CodeRegionRegistry::remove(region);
}

// ------------------------------------------------- profiled smoke runs

struct SmokeCase
{
    const char* label;
    EngineConfig config;
};

std::vector<SmokeCase>
smokeCases()
{
    std::vector<SmokeCase> cases;
    for (BoundsStrategy strategy : kAllStrategies) {
        {
            EngineConfig c;
            c.kind = EngineKind::interp_threaded;
            c.strategy = strategy;
            cases.push_back({"interp_threaded", c});
        }
        {
            EngineConfig c;
            c.kind = EngineKind::jit_opt;
            c.strategy = strategy;
            cases.push_back({"jit_opt", c});
        }
        {
            EngineConfig c;
            c.strategy = strategy;
            c.tiered = true;
            c.tierThreshold = 64;
            cases.push_back({"tiered", c});
        }
    }
    return cases;
}

/**
 * The core smoke guarantee, 5 strategies x {interp, jit, tiered}: with
 * the sampler firing at 2 kHz the workload (a) computes bit-identical
 * results to an unprofiled run, (b) produces a nonzero sample count,
 * and (c) every sample lands in exactly one category (sums match).
 */
TEST(ProfilerSmoke, SampledRunsAreBitExactAndFullyAttributed)
{
    constexpr int32_t kIters = 4000;

    // Unprofiled steady-state reference (one strategy suffices: the
    // checksum is strategy-invariant for in-bounds traffic by the
    // differential suite's guarantees). The first call runs on fresh
    // zeroed memory; every later call sees the deterministic memory
    // image the stores leave behind, so compare against call >= 2.
    uint64_t expected;
    {
        EngineConfig config;
        config.kind = EngineKind::interp_threaded;
        config.strategy = BoundsStrategy::none;
        auto instance = makeInstance(churnModule(), config);
        ASSERT_NE(instance, nullptr);
        callChurn(*instance, kIters);
        expected = callChurn(*instance, kIters);
        ASSERT_EQ(callChurn(*instance, kIters), expected);
    }

    ProfilerGuard guard(2000);
    ASSERT_TRUE(obs::profilerEnabled());
    ASSERT_EQ(obs::profilerHz(), 2000);

    for (const SmokeCase& test_case : smokeCases()) {
        SCOPED_TRACE(std::string(test_case.label) + "/" +
                     boundsStrategyName(test_case.config.strategy));
        auto instance = makeInstance(churnModule(), test_case.config);
        ASSERT_NE(instance, nullptr);

        obs::ProfileSnapshot before = obs::snapshotProfile();
        // ~60 ms per configuration keeps the whole matrix fast while
        // guaranteeing dozens of 2 kHz ticks.
        EXPECT_EQ(churnFor(*instance, kIters, 60'000'000), expected);
        obs::ProfileSnapshot delta =
            obs::profileDelta(before, obs::snapshotProfile());

        EXPECT_GT(delta.samples, 0u) << "sampler took no samples";
        EXPECT_EQ(categorySum(delta), delta.samples)
            << "samples must land in exactly one category";
        for (const auto& func : delta.funcs)
            EXPECT_LE(func.boundsSamples, func.samples);
    }
}

// -------------------------------------------- bounds-check attribution

/**
 * The paper's central quantity, measured directly: under soft-check JIT
 * (clamp/trap) a store/load-heavy loop shows samples inside emitted
 * bounds-check sequences; raw and guard-page JIT (none/mprotect/uffd)
 * emit no check code, so the jit_bounds_check category stays empty.
 */
TEST(ProfilerBoundsAttribution, SoftCheckJitShowsBoundsSamples)
{
    ProfilerGuard guard(4000);
    for (BoundsStrategy strategy :
         {BoundsStrategy::clamp, BoundsStrategy::trap}) {
        SCOPED_TRACE(boundsStrategyName(strategy));
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = strategy;
        auto instance = makeInstance(churnModule(), config);
        ASSERT_NE(instance, nullptr);

        obs::ProfileSnapshot before = obs::snapshotProfile();
        churnFor(*instance, 20000, 300'000'000);
        obs::ProfileSnapshot delta =
            obs::profileDelta(before, obs::snapshotProfile());

        ASSERT_GT(delta.samples, 100u);
        uint64_t bounds =
            delta.categories[int(obs::ProfCategory::jit_bounds_check)];
        uint64_t body =
            delta.categories[int(obs::ProfCategory::jit_body)];
        EXPECT_GT(bounds, 0u)
            << "soft-check JIT must show bounds-check samples";
        EXPECT_GT(body, 0u);
        EXPECT_GT(delta.boundsCheckPct(), 0.0);
    }
}

TEST(ProfilerBoundsAttribution, GuardAndRawJitShowNoBoundsSamples)
{
    ProfilerGuard guard(4000);
    for (BoundsStrategy strategy :
         {BoundsStrategy::none, BoundsStrategy::mprotect,
          BoundsStrategy::uffd}) {
        SCOPED_TRACE(boundsStrategyName(strategy));
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = strategy;
        auto instance = makeInstance(churnModule(), config);
        ASSERT_NE(instance, nullptr);

        obs::ProfileSnapshot before = obs::snapshotProfile();
        churnFor(*instance, 20000, 120'000'000);
        obs::ProfileSnapshot delta =
            obs::profileDelta(before, obs::snapshotProfile());

        ASSERT_GT(delta.samples, 0u);
        EXPECT_EQ(
            delta.categories[int(obs::ProfCategory::jit_bounds_check)],
            0u)
            << "no check code is emitted, so no sample can land in it";
        EXPECT_EQ(delta.boundsCheckPct(), 0.0);
    }
}

// ------------------------------------------------------- folded stacks

TEST(ProfilerFoldedStacks, InterpRunYieldsSymbolizedStacks)
{
    ProfilerGuard guard(2000);
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    config.strategy = BoundsStrategy::clamp;
    auto instance = makeInstance(churnModule(), config);
    ASSERT_NE(instance, nullptr);

    churnFor(*instance, 4000, 100'000'000);
    auto stacks = obs::collectFoldedStacks();
    ASSERT_FALSE(stacks.empty());

    // The hot frame is churn (the module's only function, index 0) in
    // the interp tier; some stack must contain it.
    bool found = false;
    for (const auto& [stack, count] : stacks) {
        EXPECT_GT(count, 0u);
        if (stack.find("f0@interp") != std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found) << "expected a f0@interp frame in some stack";

    // writeFoldedStacks drains the remainder into "stack count" lines.
    churnFor(*instance, 4000, 50'000'000);
    std::string path = testing::TempDir() + "lnb_folded_test.txt";
    ASSERT_TRUE(obs::writeFoldedStacks(path));
    std::ifstream file(path);
    ASSERT_TRUE(file.is_open());
    std::string line;
    size_t lines = 0;
    while (std::getline(file, line)) {
        if (line.empty())
            continue;
        lines++;
        size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    }
    EXPECT_GT(lines, 0u);
    std::remove(path.c_str());
}

/**
 * Mid-run folds must coexist with live SIGPROF handlers: a worker
 * thread samples at high rate while this thread repeatedly collects
 * folded stacks. The fold gate (ProfThreadState::ringFolding/
 * ringWriters) is what keeps the non-atomic ring entries tear-free —
 * this is the TSAN regression for folding a live thread's ring.
 */
TEST(ProfilerFoldedStacks, ConcurrentCollectWhileSamplingIsTearFree)
{
    ProfilerGuard guard(4000);
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    config.strategy = BoundsStrategy::clamp;
    auto instance = makeInstance(churnModule(), config);
    ASSERT_NE(instance, nullptr);

    std::atomic<bool> done{false};
    std::thread worker([&] {
        while (!done.load(std::memory_order_relaxed))
            callChurn(*instance, 4000);
    });

    uint64_t total = 0;
    uint64_t start = monotonicNanos();
    while (monotonicNanos() - start < 300'000'000) {
        for (const auto& [stack, count] : obs::collectFoldedStacks()) {
            EXPECT_FALSE(stack.empty());
            EXPECT_GT(count, 0u);
            total += count;
        }
    }
    done.store(true, std::memory_order_relaxed);
    worker.join();

    // The collects raced a live handler; across 300ms at 4kHz some of
    // them must have drained real samples.
    EXPECT_GT(total, 0u);
}

// ------------------------------------------------- prometheus encoding

TEST(Prometheus, SnapshotRendersCountersAndHistograms)
{
    // Touch a counter so the snapshot is non-trivial.
    static obs::Counter probe =
        obs::registerCounter("test.prom_probe_total");
    probe.add(41);
    probe.add(1);

    std::string text = obs::metricsToPrometheus(obs::snapshotMetrics());
    EXPECT_NE(text.find("# TYPE lnb_test_prom_probe_total counter"),
              std::string::npos)
        << text.substr(0, 400);
    EXPECT_NE(text.find("lnb_test_prom_probe_total 42"),
              std::string::npos);

    // Histograms render cumulative le-buckets with _sum and _count.
    static obs::Histogram hist =
        obs::registerHistogram("test.prom_probe_ns");
    hist.record(3);
    hist.record(100);
    text = obs::metricsToPrometheus(obs::snapshotMetrics());
    EXPECT_NE(text.find("# TYPE lnb_test_prom_probe_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("lnb_test_prom_probe_ns_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("lnb_test_prom_probe_ns_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("lnb_test_prom_probe_ns_sum 103"),
              std::string::npos);
}

// ------------------------------------ SIGPROF vs SIGSEGV coexistence

/**
 * The two signal machineries must interleave safely: with the sampler
 * at full rate, repeatedly take genuine out-of-bounds traps under the
 * guard-page strategy (SIGSEGV -> siglongjmp unwind) and verify every
 * trap is still classified correctly and in-bounds calls still work.
 */
TEST(ProfilerSignalSafety, SamplesDuringGuardPageTrapsAndUnwinds)
{
    ProfilerGuard guard(4000);
    for (BoundsStrategy strategy :
         {BoundsStrategy::mprotect, BoundsStrategy::uffd,
          BoundsStrategy::trap}) {
        SCOPED_TRACE(boundsStrategyName(strategy));
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = strategy;
        auto instance = makeInstance(oobModule(), config);
        ASSERT_NE(instance, nullptr);

        obs::ProfileSnapshot before = obs::snapshotProfile();
        uint64_t deadline = monotonicNanos() + 200'000'000;
        int round = 0;
        while (monotonicNanos() < deadline) {
            Value arg;
            // Far past the 64 KiB memory: every strategy must trap.
            arg.i32 = 0x40000000u + uint32_t(round % 64) * 4096;
            CallOutcome bad = instance->callExport("oob", {arg});
            ASSERT_FALSE(bad.ok());
            EXPECT_EQ(bad.trap, wasm::TrapKind::out_of_bounds_memory);

            // The unwind restored the profiler mark: an in-bounds call
            // still succeeds and the chain is intact.
            arg.i32 = 64;
            CallOutcome good = instance->callExport("oob", {arg});
            ASSERT_TRUE(good.ok());
            round++;
        }
        EXPECT_GT(round, 10);
        obs::ProfileSnapshot delta =
            obs::profileDelta(before, obs::snapshotProfile());
        EXPECT_EQ(categorySum(delta), delta.samples);
    }
}

/** Toggling the rate off stops sampling; back on resumes it. */
TEST(ProfilerLifecycle, DisarmStopsSampling)
{
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    config.strategy = BoundsStrategy::none;
    auto instance = makeInstance(churnModule(), config);
    ASSERT_NE(instance, nullptr);

    {
        ProfilerGuard guard(2000);
        churnFor(*instance, 4000, 50'000'000);
    }
    ASSERT_FALSE(obs::profilerEnabled());

    obs::ProfileSnapshot before = obs::snapshotProfile();
    churnFor(*instance, 4000, 50'000'000);
    obs::ProfileSnapshot delta =
        obs::profileDelta(before, obs::snapshotProfile());
    EXPECT_EQ(delta.samples, 0u) << "disarmed sampler must not fire";
}

} // namespace
} // namespace lnb
