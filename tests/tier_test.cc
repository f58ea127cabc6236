/**
 * @file
 * Tests for per-function tiered execution (DESIGN.md §10): bit-exact
 * mid-run tier-up against both fixed tiers under every bounds strategy,
 * the entry-publication protocol under concurrent callers, per-instance
 * profile reset on Instance::recycle(), and the four EngineKinds as
 * degenerate fixed-tier configurations.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "runtime/engine.h"
#include "runtime/instance.h"
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

/**
 * The tiering workhorse module. Exercises every cross-tier call edge:
 * direct calls (run -> mix), indirect calls through the funcref table
 * (run -> mul3/add7), loops (back-edge profiling), in-bounds memory
 * traffic (so all five bounds strategies execute their check paths) and
 * int/float conversions.
 *
 *   run(n) -> i64 checksum over n iterations
 *
 * Function index space: 0=mul3, 1=add7, 2=mix, 3=run.
 */
wasm::Module
computeModule()
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 2);
    mb.addTable(2);
    uint32_t unary = mb.addType({ValType::i32}, {ValType::i32});

    auto& mul3 = mb.addFunction(unary);
    mul3.localGet(0);
    mul3.i32Const(3);
    mul3.emit(Op::i32_mul);
    mul3.i32Const(1);
    mul3.emit(Op::i32_add);
    uint32_t mul3_idx = mul3.finish();

    auto& add7 = mb.addFunction(unary);
    add7.localGet(0);
    add7.i32Const(7);
    add7.emit(Op::i32_add);
    uint32_t add7_idx = add7.finish();

    mb.addElem(0, {mul3_idx, add7_idx});

    // mix(x) = (x * phi) ^ (x >> 7), a cheap avalanche.
    auto& mix = mb.addFunction(unary);
    mix.localGet(0);
    mix.i32Const(int32_t(0x9E3779B9u));
    mix.emit(Op::i32_mul);
    mix.localGet(0);
    mix.i32Const(7);
    mix.emit(Op::i32_shr_u);
    mix.emit(Op::i32_xor);
    uint32_t mix_idx = mix.finish();

    auto& run = mb.addFunction(mb.addType({ValType::i32}, {ValType::i64}));
    uint32_t acc = run.addLocal(ValType::i64);
    uint32_t i = run.addLocal(ValType::i32);
    uint32_t t = run.addLocal(ValType::i32);
    auto exit = run.block();
    run.localGet(0);
    run.emit(Op::i32_eqz);
    run.brIf(exit);
    auto head = run.loop();
    // t = mix(i) ^ table[i & 1](mix(i))
    run.localGet(i);
    run.call(mix_idx);
    run.localSet(t);
    run.localGet(t);
    run.localGet(t);
    run.localGet(i);
    run.i32Const(1);
    run.emit(Op::i32_and);
    run.callIndirect(unary);
    run.emit(Op::i32_xor);
    run.localSet(t);
    // store t at (i*4) & 0xFFC, reload it
    run.localGet(i);
    run.i32Const(4);
    run.emit(Op::i32_mul);
    run.i32Const(0xFFC);
    run.emit(Op::i32_and);
    run.localGet(t);
    run.memOp(Op::i32_store);
    run.localGet(i);
    run.i32Const(4);
    run.emit(Op::i32_mul);
    run.i32Const(0xFFC);
    run.emit(Op::i32_and);
    run.memOp(Op::i32_load);
    // fold through f64: trunc_sat(reload * 1.5 + 0.25)
    run.emit(Op::f64_convert_i32_s);
    run.f64Const(1.5);
    run.emit(Op::f64_mul);
    run.f64Const(0.25);
    run.emit(Op::f64_add);
    run.emit(Op::i32_trunc_sat_f64_s);
    // acc = acc * 31 + extend_u(folded)
    run.emit(Op::i64_extend_i32_u);
    run.localGet(acc);
    run.i64Const(31);
    run.emit(Op::i64_mul);
    run.emit(Op::i64_add);
    run.localSet(acc);
    // i++; continue while i < n
    run.localGet(i);
    run.i32Const(1);
    run.emit(Op::i32_add);
    run.localSet(i);
    run.localGet(i);
    run.localGet(0);
    run.emit(Op::i32_lt_u);
    run.brIf(head);
    run.end();
    run.end();
    run.localGet(acc);
    mb.exportFunc("run", run.finish());
    return mb.build();
}

uint64_t
callRun(rt::Instance& instance, int32_t n)
{
    Value arg;
    arg.i32 = uint32_t(n);
    CallOutcome out = instance.callExport("run", {arg});
    EXPECT_TRUE(out.ok()) << "run(" << n
                          << ") trapped: " << trapKindName(out.trap);
    return out.ok() ? out.results[0].i64 : 0;
}

std::shared_ptr<const rt::CompiledModule>
compileCompute(const EngineConfig& config)
{
    rt::Engine engine(config);
    auto compiled = engine.compile(computeModule());
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    return compiled.takeValue();
}

/** The run(n) sequence every differential test replays. */
std::vector<int32_t>
runSequence()
{
    std::vector<int32_t> seq;
    for (int32_t k = 0; k < 40; k++)
        seq.push_back(3 + 11 * k);
    return seq;
}

// -------------------------------------------------------- differential

/**
 * The core tentpole guarantee: a module that tiers up mid-run produces
 * bit-identical results to both pure interp_threaded and pure AOT
 * jit_opt, under every bounds strategy. The tier threshold is set low
 * enough that the sequence crosses it after a few calls, so late calls
 * run a mix of interpreted and JIT-compiled functions.
 */
TEST(TierDifferential, MidRunTierUpIsBitExact)
{
    for (BoundsStrategy strategy : kAllStrategies) {
        SCOPED_TRACE(boundsStrategyName(strategy));

        EngineConfig interp_config;
        interp_config.kind = EngineKind::interp_threaded;
        interp_config.strategy = strategy;
        auto interp_cm = compileCompute(interp_config);
        ASSERT_NE(interp_cm, nullptr);
        auto interp_inst = rt::Instance::create(interp_cm);
        ASSERT_TRUE(interp_inst.isOk()) << interp_inst.status().toString();

        EngineConfig jit_config;
        jit_config.kind = EngineKind::jit_opt;
        jit_config.strategy = strategy;
        auto jit_cm = compileCompute(jit_config);
        ASSERT_NE(jit_cm, nullptr);
        auto jit_inst = rt::Instance::create(jit_cm);
        ASSERT_TRUE(jit_inst.isOk()) << jit_inst.status().toString();

        EngineConfig tiered_config;
        tiered_config.strategy = strategy;
        tiered_config.tiered = true;
        tiered_config.tierThreshold = 256;
        auto tiered_cm = compileCompute(tiered_config);
        ASSERT_NE(tiered_cm, nullptr);
        ASSERT_TRUE(tiered_cm->config().tiered);
        auto tiered_inst = rt::Instance::create(tiered_cm);
        ASSERT_TRUE(tiered_inst.isOk()) << tiered_inst.status().toString();

        std::vector<int32_t> seq = runSequence();
        for (size_t k = 0; k < seq.size(); k++) {
            uint64_t expected = callRun(*interp_inst.value(), seq[k]);
            EXPECT_EQ(callRun(*jit_inst.value(), seq[k]), expected)
                << "jit_opt diverges at call " << k;
            EXPECT_EQ(callRun(*tiered_inst.value(), seq[k]), expected)
                << "tiered diverges at call " << k;
            // Halfway in, force every pending tier-up to land so the
            // back half of the sequence definitely runs JIT code.
            if (k == seq.size() / 2)
                tiered_cm->drainTierQueue();
        }
        tiered_cm->drainTierQueue();

        rt::TierStats stats = tiered_cm->tierStats();
        EXPECT_GE(stats.ups, 1u) << "no function ever tiered up";
        EXPECT_EQ(stats.failures, 0u);
        // The hot loop function must have made it to the top tier.
        uint32_t run_idx =
            tiered_inst.value()->exportedFunc("run").value();
        EXPECT_EQ(tiered_cm->funcTier(run_idx), exec::Tier::jit);
    }
}

// ------------------------------------------------------- race stress

/**
 * Publication-race stress: many threads, each with its own instance of
 * one shared tiered module, call through the code table while the
 * background compiler publishes new entries. Every call must return the
 * reference checksum regardless of which tier served it. Run under
 * ThreadSanitizer in CI, this also proves the acquire/release protocol
 * has no data race.
 */
TEST(TierStress, ConcurrentCallersDuringPublication)
{
    EngineConfig reference_config;
    reference_config.kind = EngineKind::interp_threaded;
    reference_config.strategy = BoundsStrategy::trap;
    auto reference_cm = compileCompute(reference_config);
    ASSERT_NE(reference_cm, nullptr);
    auto reference = rt::Instance::create(reference_cm);
    ASSERT_TRUE(reference.isOk());
    const uint64_t expected = callRun(*reference.value(), 37);

    EngineConfig config;
    config.strategy = BoundsStrategy::trap;
    config.tiered = true;
    config.tierThreshold = 64;
    config.tierCompileThreads = 2;
    auto cm = compileCompute(config);
    ASSERT_NE(cm, nullptr);
    ASSERT_NE(cm->tierController(), nullptr);

    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 200;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&] {
            auto inst = rt::Instance::create(cm);
            ASSERT_TRUE(inst.isOk()) << inst.status().toString();
            for (int k = 0; k < kCallsPerThread; k++) {
                Value arg;
                arg.i32 = 37;
                CallOutcome out = inst.value()->callExport("run", {arg});
                if (!out.ok() || out.results[0].i64 != expected)
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);

    cm->drainTierQueue();
    rt::TierStats stats = cm->tierStats();
    EXPECT_GE(stats.ups, 1u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.queueDepth, 0u);
    // Dedup invariant: one request per function at most, no matter how
    // many threads crossed the threshold concurrently.
    EXPECT_LE(stats.requests, uint64_t(cm->numFuncs()));
}

// ---------------------------------------------------- recycle profile

/**
 * Instance::recycle() must zero per-instance hotness: a recycled
 * instance may neither inherit hotness toward a spurious tier-up nor
 * stop profiling. pulse() has no loop, so each call adds exactly
 * kEntryHotness (8) units; with threshold 80 that is 10 calls.
 */
TEST(TierRecycle, RecycleResetsProfile)
{
    wasm::ModuleBuilder mb;
    auto& pulse = mb.addFunction(mb.addType({}, {ValType::i32}));
    pulse.i32Const(41);
    pulse.i32Const(1);
    pulse.emit(Op::i32_add);
    uint32_t pulse_idx = pulse.finish();
    mb.exportFunc("pulse", pulse_idx);

    EngineConfig config;
    config.strategy = BoundsStrategy::none;
    config.tiered = true;
    config.tierThreshold = 10 * exec::kEntryHotness;
    rt::Engine engine(config);
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto cm = compiled.takeValue();
    auto inst_or = rt::Instance::create(cm);
    ASSERT_TRUE(inst_or.isOk()) << inst_or.status().toString();
    rt::Instance& inst = *inst_or.value();
    const uint32_t* hotness = inst.context().funcHotness;
    ASSERT_NE(hotness, nullptr);

    // Nine calls: one entry short of the threshold.
    for (int k = 0; k < 9; k++)
        EXPECT_EQ(inst.callExport("pulse", {}).results[0].i32, 42u);
    EXPECT_EQ(hotness[pulse_idx], 9 * exec::kEntryHotness);
    EXPECT_EQ(cm->tierStats().requests, 0u);

    ASSERT_TRUE(inst.recycle().isOk());
    EXPECT_EQ(hotness[pulse_idx], 0u) << "recycle left stale hotness";

    // Nine more: without the reset this would be 18 entries and a
    // spurious tier-up request.
    for (int k = 0; k < 9; k++)
        EXPECT_EQ(inst.callExport("pulse", {}).results[0].i32, 42u);
    EXPECT_EQ(hotness[pulse_idx], 9 * exec::kEntryHotness);
    EXPECT_EQ(cm->tierStats().requests, 0u)
        << "recycled instance inherited hotness";

    // Profiling still works after recycle: the tenth call crosses the
    // threshold, flushes to the shared slot and fires exactly one
    // request.
    EXPECT_EQ(inst.callExport("pulse", {}).results[0].i32, 42u);
    EXPECT_EQ(hotness[pulse_idx], 0u) << "threshold crossing must flush";
    EXPECT_EQ(cm->tierStats().requests, 1u);
    cm->drainTierQueue();
    EXPECT_EQ(cm->tierStats().ups, 1u);
    EXPECT_EQ(cm->funcTier(pulse_idx), exec::Tier::jit);
    EXPECT_EQ(inst.callExport("pulse", {}).results[0].i32, 42u);
}

// --------------------------------------------------- branch-form loops

/**
 * count() spins i up to kTrips; the rewrite turns the loop test
 * `i < kTrips` into a jri that is also the back edge. The profiled
 * interpreter credits it exactly like a plain jump_if, so each call adds
 * kEntryHotness + (kTrips - 1) units and the function tiers up on the
 * fourth call, the budget of the stack-form loop.
 */
TEST(TierBranchForm, JriBackEdgeTiersUpWithinTheSameCallBudget)
{
    constexpr int32_t kTrips = 50;
    wasm::ModuleBuilder mb;
    auto& count = mb.addFunction(mb.addType({}, {ValType::i32}));
    uint32_t i = count.addLocal(ValType::i32);
    auto head = count.loop();
    count.localGet(i);
    count.i32Const(1);
    count.emit(Op::i32_add);
    count.localSet(i);
    count.localGet(i);
    count.i32Const(kTrips);
    count.emit(Op::i32_lt_u);
    count.brIf(head);
    count.end();
    count.localGet(i);
    uint32_t count_idx = count.finish();
    mb.exportFunc("count", count_idx);
    const wasm::Module module = mb.build();

    constexpr uint32_t kPerCall = exec::kEntryHotness + kTrips - 1;
    for (BoundsStrategy strategy : kAllStrategies) {
        SCOPED_TRACE(boundsStrategyName(strategy));
        EngineConfig config;
        config.strategy = strategy;
        config.tiered = true;
        config.tierThreshold = 4 * kPerCall;
        auto compiled = rt::Engine(config).compile(wasm::Module(module));
        ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
        auto cm = compiled.takeValue();

        // The loop's back edge is a jri to an earlier pc.
        bool jri_back_edge = false;
        const wasm::LoweredFunc& func = cm->lowered().funcs[0];
        for (uint32_t pc = 0; pc < func.code.size(); pc++) {
            const wasm::LInst& inst = func.code[pc];
            jri_back_edge |=
                inst.op == wasm::formOp(wasm::IrForm::jri, Op::i32_lt_u) &&
                inst.a <= pc;
        }
        ASSERT_TRUE(jri_back_edge);

        auto inst_or = rt::Instance::create(cm);
        ASSERT_TRUE(inst_or.isOk()) << inst_or.status().toString();
        rt::Instance& inst = *inst_or.value();
        for (int k = 0; k < 3; k++) {
            CallOutcome out = inst.callExport("count", {});
            ASSERT_TRUE(out.ok()) << trapKindName(out.trap);
            EXPECT_EQ(out.results[0].i32, uint32_t(kTrips));
        }
        EXPECT_EQ(inst.context().funcHotness[count_idx], 3 * kPerCall);
        EXPECT_EQ(cm->tierStats().requests, 0u);
        EXPECT_EQ(inst.callExport("count", {}).results[0].i32,
                  uint32_t(kTrips));
        EXPECT_EQ(cm->tierStats().requests, 1u);
        cm->drainTierQueue();
        EXPECT_EQ(cm->funcTier(count_idx), exec::Tier::jit);
        EXPECT_EQ(inst.callExport("count", {}).results[0].i32,
                  uint32_t(kTrips));
    }
}

// ------------------------------------------------- degenerate configs

/**
 * The four EngineKinds survive as fixed-tier configurations: no
 * controller, no profiling state, correct results, and every defined
 * function pinned to its configured tier.
 */
TEST(TierFixed, EngineKindsAreDegenerateFixedTiers)
{
    for (int kind = 0; kind < rt::kNumEngineKinds; kind++) {
        SCOPED_TRACE(engineKindName(EngineKind(kind)));
        EngineConfig config;
        config.kind = EngineKind(kind);
        config.strategy = BoundsStrategy::clamp;
        auto cm = compileCompute(config);
        ASSERT_NE(cm, nullptr);
        EXPECT_EQ(cm->tierController(), nullptr);
        EXPECT_EQ(cm->tierStats().requests, 0u);

        auto inst = rt::Instance::create(cm);
        ASSERT_TRUE(inst.isOk()) << inst.status().toString();
        EXPECT_EQ(inst.value()->context().funcHotness, nullptr)
            << "fixed-tier instances must not profile";

        uint64_t first = callRun(*inst.value(), 25);
        EXPECT_EQ(callRun(*inst.value(), 25), first);
        exec::Tier want = engineIsJit(config.kind) ? exec::Tier::jit
                                                   : exec::Tier::interp;
        for (uint32_t f = 0; f < cm->numFuncs(); f++)
            EXPECT_EQ(cm->funcTier(f), want);
    }
}

/** LNB_TIER_DISABLED pins a tiered config to the interpreter. */
TEST(TierFixed, EnvKillSwitchDisablesTierUp)
{
    ::setenv("LNB_TIER_DISABLED", "1", 1);
    EngineConfig config;
    config.strategy = BoundsStrategy::none;
    config.tiered = true;
    config.tierThreshold = 16;
    auto cm = compileCompute(config);
    ::unsetenv("LNB_TIER_DISABLED");
    ASSERT_NE(cm, nullptr);
    EXPECT_FALSE(cm->config().tiered)
        << "effective config must reflect the kill switch";
    EXPECT_EQ(cm->tierController(), nullptr);

    auto inst = rt::Instance::create(cm);
    ASSERT_TRUE(inst.isOk());
    uint64_t first = callRun(*inst.value(), 50);
    for (int k = 0; k < 20; k++)
        EXPECT_EQ(callRun(*inst.value(), 50), first);
    uint32_t run_idx = inst.value()->exportedFunc("run").value();
    EXPECT_EQ(cm->funcTier(run_idx), exec::Tier::interp);
}

} // namespace
} // namespace lnb
