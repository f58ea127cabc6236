/**
 * @file
 * The wasm-threads subsystem: shared linear memory, the atomic opcode
 * subset, memory.atomic.wait/notify on the runtime waitlist, the
 * spawnThreads host API, and concurrent memory.grow against in-flight
 * accesses under every bounds strategy. The 8-thread wait/notify +
 * concurrent-grow stress at the bottom is the TSAN centerpiece.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "runtime/threads.h"
#include "runtime/waitlist.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace lnb {
namespace {

using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::Instance;
using wasm::Instr;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::TrapKind;
using wasm::ValType;
using wasm::Value;

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::none, BoundsStrategy::clamp, BoundsStrategy::trap,
    BoundsStrategy::mprotect, BoundsStrategy::uffd};

/** Engine configurations every semantics test sweeps: both interpreters,
 * both JIT tiers, plus the tiered pipeline with eager tier-up. */
std::vector<EngineConfig>
sweepConfigs(BoundsStrategy strategy)
{
    std::vector<EngineConfig> configs;
    for (int kind = 0; kind < rt::kNumEngineKinds; kind++) {
        EngineConfig config;
        config.kind = EngineKind(kind);
        config.strategy = strategy;
        configs.push_back(config);
    }
    EngineConfig tiered;
    tiered.tiered = true;
    tiered.tierThreshold = 1;
    tiered.strategy = strategy;
    configs.push_back(tiered);
    return configs;
}

std::string
configName(const EngineConfig& config)
{
    return std::string(config.tiered ? "tiered"
                                     : engineKindName(config.kind)) +
           "/" + boundsStrategyName(config.strategy);
}

std::unique_ptr<Instance>
instantiate(const EngineConfig& config, wasm::Module module)
{
    Engine engine(config);
    auto compiled = engine.compile(std::move(module));
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    if (!compiled.isOk())
        return nullptr;
    auto inst = Instance::create(compiled.takeValue());
    EXPECT_TRUE(inst.isOk()) << inst.status().toString();
    if (!inst.isOk())
        return nullptr;
    auto owned = inst.takeValue();
    owned->module().drainTierQueue();
    return owned;
}

class ThreadsStrategyTest : public testing::TestWithParam<BoundsStrategy>
{};

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ThreadsStrategyTest, testing::ValuesIn(kAllStrategies),
    [](const testing::TestParamInfo<BoundsStrategy>& info) {
        return mem::boundsStrategyName(info.param);
    });

// ---------------------------------------------------------------------
// Single-threaded atomic semantics, bit-exact across every engine
// ---------------------------------------------------------------------

/** The fold both the wasm body and the host-side oracle use. */
uint64_t
fold(uint64_t acc, uint64_t r)
{
    return acc * 131 + r;
}

/** Emits `acc = acc * 131 + <top-of-stack as i64>` into @p acc_local. */
void
foldResult(wasm::FunctionBuilder& f, uint32_t acc_local, bool from_i32)
{
    if (from_i32)
        f.emit(Op::i64_extend_i32_u);
    f.localGet(acc_local);
    f.i64Const(131);
    f.emit(Op::i64_mul);
    f.emit(Op::i64_add);
    f.localSet(acc_local);
}

/** A fixed atomic instruction sequence whose result checksum is computed
 * by hand on the host; any engine divergence shows up as a mismatch. */
wasm::Module
buildRmwModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 8, /*shared=*/true);
    uint32_t t = mb.addType({}, {ValType::i64});
    auto& f = mb.addFunction(t);
    uint32_t acc = f.addLocal(ValType::i64);

    auto rmw32 = [&](Op op, uint32_t operand) {
        f.i32Const(16);
        f.i32Const(int32_t(operand));
        f.memOp(op);
        foldResult(f, acc, /*from_i32=*/true);
    };
    // i32 lane at address 16.
    f.i32Const(16);
    f.i32Const(5);
    f.memOp(Op::i32_atomic_store); // mem=5
    rmw32(Op::i32_atomic_rmw_add, 7);   // ->5,  mem=12
    rmw32(Op::i32_atomic_rmw_sub, 2);   // ->12, mem=10
    rmw32(Op::i32_atomic_rmw_and, 6);   // ->10, mem=2
    rmw32(Op::i32_atomic_rmw_or, 9);    // ->2,  mem=11
    rmw32(Op::i32_atomic_rmw_xor, 3);   // ->11, mem=8
    rmw32(Op::i32_atomic_rmw_xchg, 100); // ->8, mem=100
    f.i32Const(16);
    f.i32Const(100);
    f.i32Const(55);
    f.memOp(Op::i32_atomic_rmw_cmpxchg); // expected matches: ->100, mem=55
    foldResult(f, acc, true);
    f.i32Const(16);
    f.i32Const(77);
    f.i32Const(99);
    f.memOp(Op::i32_atomic_rmw_cmpxchg); // mismatch: ->55, mem stays 55
    foldResult(f, acc, true);
    f.i32Const(16);
    f.memOp(Op::i32_atomic_load); // ->55
    foldResult(f, acc, true);

    // i64 lane at address 32, exercising high bits.
    auto rmw64 = [&](Op op, uint64_t operand) {
        f.i32Const(32);
        f.i64Const(int64_t(operand));
        f.memOp(op);
        foldResult(f, acc, /*from_i32=*/false);
    };
    const uint64_t big = 0x1122334455667788ull;
    f.i32Const(32);
    f.i64Const(int64_t(big));
    f.memOp(Op::i64_atomic_store);
    rmw64(Op::i64_atomic_rmw_add, 0x100000001ull);
    rmw64(Op::i64_atomic_rmw_xor, 0xFFFF0000FFFF0000ull);
    rmw64(Op::i64_atomic_rmw_xchg, 42);
    f.i32Const(32);
    f.i64Const(42);
    f.i64Const(int64_t(~0ull));
    f.memOp(Op::i64_atomic_rmw_cmpxchg);
    foldResult(f, acc, false);
    f.i32Const(32);
    f.memOp(Op::i64_atomic_load);
    foldResult(f, acc, false);

    f.localGet(acc);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/** Host-side oracle for buildRmwModule(). */
uint64_t
rmwOracle()
{
    uint64_t acc = 0;
    uint32_t m32 = 5;
    auto step32 = [&](uint32_t result, uint32_t after) {
        acc = fold(acc, result);
        m32 = after;
    };
    step32(m32, m32 + 7);        // add
    step32(m32, m32 - 2);        // sub
    step32(m32, m32 & 6);        // and
    step32(m32, m32 | 9);        // or
    step32(m32, m32 ^ 3);        // xor
    step32(m32, 100);            // xchg
    step32(m32, 55);             // cmpxchg hit
    step32(m32, m32);            // cmpxchg miss
    acc = fold(acc, m32);        // load

    uint64_t m64 = 0x1122334455667788ull;
    auto step64 = [&](uint64_t result, uint64_t after) {
        acc = fold(acc, result);
        m64 = after;
    };
    step64(m64, m64 + 0x100000001ull);
    step64(m64, m64 ^ 0xFFFF0000FFFF0000ull);
    step64(m64, 42);
    step64(m64, ~0ull); // cmpxchg hit (expected 42)
    acc = fold(acc, m64);
    return acc;
}

TEST_P(ThreadsStrategyTest, AtomicRmwBitExactAcrossEngines)
{
    const uint64_t expected = rmwOracle();
    wasm::Module module = buildRmwModule();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    for (const EngineConfig& config : sweepConfigs(GetParam())) {
        wasm::Module copy = module;
        auto inst = instantiate(config, std::move(copy));
        ASSERT_NE(inst, nullptr) << configName(config);
        CallOutcome out = inst->callExport("run", {});
        ASSERT_TRUE(out.ok())
            << configName(config) << ": " << trapKindName(out.trap);
        EXPECT_EQ(out.results[0].i64, expected) << configName(config);
    }
}

// ---------------------------------------------------------------------
// Alignment and bounds
// ---------------------------------------------------------------------

TEST(ThreadsValidation, NonNaturalAlignmentRejected)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1, true);
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.i32Const(0);
    f.i32Const(1);
    // align exponent 0; i32.atomic.rmw.add requires exactly 2.
    f.emit(Instr::withAB(Op::i32_atomic_rmw_add, 0, 0));
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    EXPECT_FALSE(wasm::validateModule(mb.build()).isOk());
}

TEST(ThreadsValidation, SharedMemoryRequiresMax)
{
    ModuleBuilder mb;
    mb.addMemory(1, UINT32_MAX, true);
    EXPECT_FALSE(wasm::validateModule(mb.build()).isOk());
}

TEST(ThreadsValidation, SiblingRefusesAMemoryBelowItsDeclaredMinimum)
{
    // The opt pass proves loops in bounds against the declared minimum,
    // so a sibling must not adopt a smaller shared memory: a one-page
    // memory cannot back a module that declares two.
    auto shared_module = [](uint32_t min) {
        ModuleBuilder mb;
        mb.addMemory(min, 4, true);
        uint32_t t = mb.addType({}, {ValType::i32});
        auto& f = mb.addFunction(t);
        f.i32Const(0);
        mb.exportFunc("run", f.finish());
        return mb.build();
    };
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::clamp;
    Engine engine(config);
    auto owner_module = engine.compile(shared_module(1));
    ASSERT_TRUE(owner_module.isOk());
    auto owner = Instance::create(owner_module.takeValue());
    ASSERT_TRUE(owner.isOk());
    for (uint32_t min : {1u, 2u}) {
        auto sibling_module = engine.compile(shared_module(min));
        ASSERT_TRUE(sibling_module.isOk());
        auto sibling = Instance::create(sibling_module.takeValue(), {},
                                        owner.value()->memoryShared());
        EXPECT_EQ(sibling.isOk(), min == 1) << "declared minimum " << min;
    }
}

TEST_P(ThreadsStrategyTest, MisalignedAddressTrapsAtRuntime)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, true);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.i32Const(1);
    f.memOp(Op::i32_atomic_rmw_add);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    wasm::Module module = mb.build();

    for (const EngineConfig& config : sweepConfigs(GetParam())) {
        wasm::Module copy = module;
        auto inst = instantiate(config, std::move(copy));
        ASSERT_NE(inst, nullptr) << configName(config);
        CallOutcome ok = inst->callExport("run", {Value::fromI32(8)});
        EXPECT_TRUE(ok.ok()) << configName(config);
        CallOutcome bad = inst->callExport("run", {Value::fromI32(2)});
        EXPECT_EQ(bad.trap, TrapKind::unaligned_atomic)
            << configName(config);
    }
}

/** Atomics never clamp: out-of-bounds traps under every strategy that
 * detects OOB at all (none deliberately detects nothing). */
TEST_P(ThreadsStrategyTest, OutOfBoundsAtomicTraps)
{
    if (GetParam() == BoundsStrategy::none)
        GTEST_SKIP() << "strategy none performs no checks by design";
    ModuleBuilder mb;
    mb.addMemory(1, 1, true);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.i32Const(1);
    f.memOp(Op::i32_atomic_rmw_add);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    wasm::Module module = mb.build();

    for (const EngineConfig& config : sweepConfigs(GetParam())) {
        wasm::Module copy = module;
        auto inst = instantiate(config, std::move(copy));
        ASSERT_NE(inst, nullptr) << configName(config);
        CallOutcome out =
            inst->callExport("run", {Value::fromI32(65536)});
        EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory)
            << configName(config);
    }
}

// ---------------------------------------------------------------------
// wait / notify semantics
// ---------------------------------------------------------------------

wasm::Module
buildWaitModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, true);
    {
        // wait32(addr, expected, timeout_ns) -> result
        uint32_t t = mb.addType(
            {ValType::i32, ValType::i32, ValType::i64}, {ValType::i32});
        auto& f = mb.addFunction(t);
        f.localGet(0);
        f.localGet(1);
        f.localGet(2);
        f.memOp(Op::memory_atomic_wait32);
        mb.exportFunc("wait32", f.finish());
    }
    {
        uint32_t t = mb.addType(
            {ValType::i32, ValType::i64, ValType::i64}, {ValType::i32});
        auto& f = mb.addFunction(t);
        f.localGet(0);
        f.localGet(1);
        f.localGet(2);
        f.memOp(Op::memory_atomic_wait64);
        mb.exportFunc("wait64", f.finish());
    }
    {
        // notify(addr, count) -> woken
        uint32_t t = mb.addType({ValType::i32, ValType::i32},
                                {ValType::i32});
        auto& f = mb.addFunction(t);
        f.localGet(0);
        f.localGet(1);
        f.memOp(Op::memory_atomic_notify);
        mb.exportFunc("notify", f.finish());
    }
    return mb.build();
}

TEST_P(ThreadsStrategyTest, WaitMismatchTimeoutAndNotify)
{
    wasm::Module module = buildWaitModule();
    for (const EngineConfig& config : sweepConfigs(GetParam())) {
        wasm::Module copy = module;
        auto inst = instantiate(config, std::move(copy));
        ASSERT_NE(inst, nullptr) << configName(config);

        // Memory holds 0 everywhere: expected=1 mismatches -> 1.
        CallOutcome out = inst->callExport(
            "wait32", {Value::fromI32(0), Value::fromI32(1),
                       Value::fromI64(-1)});
        ASSERT_TRUE(out.ok()) << configName(config);
        EXPECT_EQ(out.results[0].i32, 1u) << configName(config);

        // Matching expected with a short timeout -> 2 (timed out).
        out = inst->callExport(
            "wait32", {Value::fromI32(0), Value::fromI32(0),
                       Value::fromI64(1'000'000)}); // 1 ms
        ASSERT_TRUE(out.ok()) << configName(config);
        EXPECT_EQ(out.results[0].i32, 2u) << configName(config);

        // Same pair for the 64-bit flavor.
        out = inst->callExport(
            "wait64", {Value::fromI32(8), Value::fromI64(7),
                       Value::fromI64(-1)});
        ASSERT_TRUE(out.ok()) << configName(config);
        EXPECT_EQ(out.results[0].i32, 1u) << configName(config);
        out = inst->callExport(
            "wait64", {Value::fromI32(8), Value::fromI64(0),
                       Value::fromI64(1'000'000)});
        ASSERT_TRUE(out.ok()) << configName(config);
        EXPECT_EQ(out.results[0].i32, 2u) << configName(config);

        // Nobody is waiting: notify wakes 0.
        out = inst->callExport(
            "notify", {Value::fromI32(0), Value::fromI32(100)});
        ASSERT_TRUE(out.ok()) << configName(config);
        EXPECT_EQ(out.results[0].i32, 0u) << configName(config);

        // Misaligned / out-of-bounds wait traps before touching the
        // waitlist, under every strategy.
        out = inst->callExport(
            "wait32", {Value::fromI32(2), Value::fromI32(0),
                       Value::fromI64(-1)});
        EXPECT_EQ(out.trap, TrapKind::unaligned_atomic)
            << configName(config);
        out = inst->callExport(
            "wait32", {Value::fromI32(1 << 20), Value::fromI32(0),
                       Value::fromI64(-1)});
        EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory)
            << configName(config);
    }
}

TEST(ThreadsWait, WaitOnUnsharedMemoryTraps)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2); // NOT shared
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.i32Const(0);
    f.i32Const(0);
    f.i64Const(-1);
    f.memOp(Op::memory_atomic_wait32);
    mb.exportFunc("wait", f.finish());
    uint32_t tn = mb.addType({}, {ValType::i32});
    auto& g = mb.addFunction(tn);
    g.i32Const(0);
    g.i32Const(5);
    g.memOp(Op::memory_atomic_notify);
    mb.exportFunc("notify", g.finish());

    EngineConfig config;
    config.kind = EngineKind::jit_base;
    auto inst = instantiate(config, mb.build());
    ASSERT_NE(inst, nullptr);
    CallOutcome out = inst->callExport("wait", {});
    EXPECT_EQ(out.trap, TrapKind::atomic_wait_unshared);
    // notify on unshared memory validates and returns 0, per spec.
    out = inst->callExport("notify", {});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, 0u);
}

// ---------------------------------------------------------------------
// spawnThreads + shared memory lifecycle
// ---------------------------------------------------------------------

TEST(ThreadsSpawn, RequiresSharedMemory)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    mb.exportFunc("id", f.finish());
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    auto inst = instantiate(config, mb.build());
    ASSERT_NE(inst, nullptr);
    auto outcomes = rt::spawnThreads(*inst, "id", 2);
    EXPECT_FALSE(outcomes.isOk());
}

TEST(ThreadsSpawn, SharedInstancesCannotRecycle)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, true);
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.i32Const(7);
    mb.exportFunc("seven", f.finish());
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    auto inst = instantiate(config, mb.build());
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->memory()->shared());
    EXPECT_FALSE(inst->recycle().isOk());
}

TEST(ThreadsSpawn, EnvKnobForcesSharedMemory)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2); // module itself is not shared
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.i32Const(7);
    mb.exportFunc("seven", f.finish());
    ::setenv("LNB_SHARED_MEM", "1", 1);
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    auto inst = instantiate(config, mb.build());
    ::unsetenv("LNB_SHARED_MEM");
    ASSERT_NE(inst, nullptr);
    EXPECT_TRUE(inst->memory()->shared());
    EXPECT_TRUE(inst->module().config().sharedMemory);
}

/** Data segments are applied once by the primary, not by siblings: a
 * sibling spawn must not clobber bytes the primary already mutated. */
TEST(ThreadsSpawn, SiblingsSkipDataSegments)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, true);
    mb.addData(0, {1, 2, 3, 4});
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.memOp(Op::i32_atomic_load);
    mb.exportFunc("peek", f.finish());
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    auto inst = instantiate(config, mb.build());
    ASSERT_NE(inst, nullptr);

    // Overwrite the segment bytes, then spawn: the value must survive.
    auto* word = reinterpret_cast<std::atomic<uint32_t>*>(
        inst->memory()->base());
    word->store(0xDEADBEEF, std::memory_order_seq_cst);
    auto outcomes = rt::spawnThreads(*inst, "peek", 2, [](uint32_t) {
        return std::vector<Value>{Value::fromI32(0)};
    });
    ASSERT_TRUE(outcomes.isOk()) << outcomes.status().toString();
    for (const CallOutcome& out : outcomes.value()) {
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out.results[0].i32, 0xDEADBEEFu);
    }
}

// ---------------------------------------------------------------------
// Real blocking: wait/notify wakeups across threads
// ---------------------------------------------------------------------

/**
 * Thread 0 publishes 1 to the futex word and notifies until the other
 * threads checked in; threads 1..N-1 wait on the word. A waiter either
 * parks before the store (woken: result 0) or observes the new value
 * (mismatch: result 1); a 10 s timeout (result 2) means a lost wakeup.
 */
wasm::Module
buildWakeupModule(uint32_t num_waiters)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, true);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t woken = f.addLocal(ValType::i32);
    f.localGet(0);
    f.emit(Op::i32_eqz);
    f.ifElse(ValType::i32);
    {
        // Notifier: flip the word, then notify until all checked in.
        f.i32Const(0);
        f.i32Const(1);
        f.memOp(Op::i32_atomic_store);
        auto loop = f.loop();
        f.i32Const(0);
        f.i32Const(int32_t(num_waiters));
        f.memOp(Op::memory_atomic_notify);
        f.localGet(woken);
        f.emit(Op::i32_add);
        f.localSet(woken);
        // done-counter at 64 reaches num_waiters when all returned.
        f.i32Const(64);
        f.memOp(Op::i32_atomic_load);
        f.i32Const(int32_t(num_waiters));
        f.emit(Op::i32_ne);
        f.brIf(loop);
        f.end();
        f.localGet(woken);
    }
    f.elseBranch();
    {
        // Waiter: wait for the word to leave 0, then check in.
        f.i32Const(0);
        f.i32Const(0);
        f.i64Const(10'000'000'000); // 10 s safety net
        f.memOp(Op::memory_atomic_wait32);
        f.localSet(woken);
        f.i32Const(64);
        f.i32Const(1);
        f.memOp(Op::i32_atomic_rmw_add);
        f.drop();
        f.localGet(woken);
    }
    f.end();
    mb.exportFunc("run", f.finish());
    return mb.build();
}

TEST_P(ThreadsStrategyTest, WaitNotifyWakeups)
{
    constexpr uint32_t kThreads = 8; // 1 notifier + 7 waiters
    rt::WaitListStats before = rt::waitListStats();
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = GetParam();
    auto inst = instantiate(config, buildWakeupModule(kThreads - 1));
    ASSERT_NE(inst, nullptr);
    auto outcomes =
        rt::spawnThreads(*inst, "run", kThreads, [](uint32_t i) {
            return std::vector<Value>{Value::fromI32(i)};
        });
    ASSERT_TRUE(outcomes.isOk()) << outcomes.status().toString();

    uint32_t woken_reported = 0, wakes = 0, mismatches = 0;
    for (uint32_t i = 0; i < kThreads; i++) {
        const CallOutcome& out = outcomes.value()[i];
        ASSERT_TRUE(out.ok()) << "thread " << i << ": "
                              << trapKindName(out.trap);
        if (i == 0) {
            woken_reported = out.results[0].i32;
        } else {
            uint32_t r = out.results[0].i32;
            EXPECT_NE(r, 2u) << "thread " << i << " timed out "
                             << "(lost wakeup) under "
                             << boundsStrategyName(GetParam());
            wakes += r == 0;
            mismatches += r == 1;
        }
    }
    EXPECT_EQ(wakes + mismatches, kThreads - 1);
    // The notifier's woken tally matches the number of parked waiters.
    EXPECT_EQ(woken_reported, wakes);
    rt::WaitListStats after = rt::waitListStats();
    EXPECT_GE(after.notifies - before.notifies, 1u);
    EXPECT_EQ(after.wakes - before.wakes, wakes);
}

// ---------------------------------------------------------------------
// Concurrent memory.grow vs in-flight accesses (all strategies)
// ---------------------------------------------------------------------

/**
 * Per-thread body: ITERS rounds of (a) atomic increment of a hot shared
 * counter and (b) an atomic store at the current last 8 bytes of memory
 * — an address that chases the moving end while thread 0 grows, so
 * guard/bounds re-protection races against in-flight accesses. Returns
 * the thread's round count (deterministic under any interleaving).
 */
wasm::Module
buildGrowStressModule(uint32_t iters, uint32_t grow_every)
{
    ModuleBuilder mb;
    mb.addMemory(1, 64, true);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t i = f.addLocal(ValType::i32);
    auto loop = f.loop();
    // counter at 8 += 1
    f.i32Const(8);
    f.i32Const(1);
    f.memOp(Op::i32_atomic_rmw_add);
    f.drop();
    // i64.atomic.store(memory.size * 64KiB - 8, i): in bounds by
    // construction — memory only grows after the size read.
    f.memorySize();
    f.i32Const(16);
    f.emit(Op::i32_shl);
    f.i32Const(8);
    f.emit(Op::i32_sub);
    f.localGet(0);
    f.emit(Op::i64_extend_i32_u);
    f.memOp(Op::i64_atomic_store);
    // thread 0 grows one page every grow_every rounds
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
    f.localGet(i);
    mb.exportFunc("run", f.finish());

    uint32_t tr = mb.addType({}, {ValType::i32});
    auto& g = mb.addFunction(tr);
    g.i32Const(8);
    g.memOp(Op::i32_atomic_load);
    mb.exportFunc("counter", g.finish());
    return mb.build();
}

TEST_P(ThreadsStrategyTest, ConcurrentGrowVsInFlightAccesses)
{
    constexpr uint32_t kThreads = 8;
    constexpr uint32_t kIters = 2000;
    constexpr uint32_t kGrowEvery = 250;
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = GetParam();
    auto inst = instantiate(
        config, buildGrowStressModule(kIters, kGrowEvery));
    ASSERT_NE(inst, nullptr);
    uint64_t grows_before = inst->memory()->sharedGrowCalls();

    auto outcomes =
        rt::spawnThreads(*inst, "run", kThreads, [](uint32_t i) {
            return std::vector<Value>{Value::fromI32(i)};
        });
    ASSERT_TRUE(outcomes.isOk()) << outcomes.status().toString();
    for (uint32_t i = 0; i < kThreads; i++) {
        const CallOutcome& out = outcomes.value()[i];
        ASSERT_TRUE(out.ok())
            << "thread " << i << " under "
            << boundsStrategyName(GetParam()) << ": "
            << trapKindName(out.trap);
        EXPECT_EQ(out.results[0].i32, kIters);
    }

    // Every increment arrived: the hot counter is exact.
    CallOutcome counter = inst->callExport("counter", {});
    ASSERT_TRUE(counter.ok());
    EXPECT_EQ(counter.results[0].i32, kThreads * kIters);
    // Thread 0 grew kIters / kGrowEvery pages past the initial one.
    EXPECT_EQ(inst->memory()->sizeBytes(),
              (1 + kIters / kGrowEvery) * uint64_t(wasm::kPageSize));
    EXPECT_EQ(inst->memory()->sharedGrowCalls() - grows_before,
              uint64_t(kIters / kGrowEvery));
}

} // namespace
} // namespace lnb
