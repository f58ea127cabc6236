/**
 * @file
 * Preemptible execution: the epoch-interrupt mechanism (Instance::
 * interrupt() observed at loop back edges and function entries in every
 * engine), killable memory.atomic.wait (the waitlist's interrupted wake
 * reason), deadline enforcement and bounded shutdown in the execution
 * service, and the DRR fair dequeue that keeps an adversarial tenant
 * from owning the queue. The mid-loop kill sweep is the bit-exactness
 * centerpiece: the same module killed under all 5 bounds strategies x
 * every engine leaves identical side effects up to the poll boundary.
 */
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "runtime/threads.h"
#include "runtime/waitlist.h"
#include "svc/scheduler.h"
#include "svc/service.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"

namespace lnb {
namespace {

using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::Instance;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::TrapKind;
using wasm::ValType;
using wasm::Value;

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::none, BoundsStrategy::clamp, BoundsStrategy::trap,
    BoundsStrategy::mprotect, BoundsStrategy::uffd};

/** Both interpreters, both JIT tiers, plus tiered with eager tier-up. */
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

/** jit_base, jit_opt and tiered: the configurations whose loops run as
 * JIT code. */
std::vector<EngineConfig>
jitConfigs(BoundsStrategy strategy)
{
    std::vector<EngineConfig> configs;
    for (const EngineConfig& config : sweepConfigs(strategy)) {
        if (config.tiered || rt::engineIsJit(config.kind))
            configs.push_back(config);
    }
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

class PreemptStrategyTest : public testing::TestWithParam<BoundsStrategy>
{};

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PreemptStrategyTest, testing::ValuesIn(kAllStrategies),
    [](const testing::TestParamInfo<BoundsStrategy>& info) {
        return mem::boundsStrategyName(info.param);
    });

// ---------------------------------------------------------------------
// Mid-loop kill: clean unwind at a poll boundary, bit-exact effects
// ---------------------------------------------------------------------

/**
 * run(iters) spins, bumping two i64 counters at mem[0] and mem[8] each
 * round; iters == 0 loops forever. The two stores bracket the back edge,
 * so a kill that unwound anywhere but the poll boundary would leave them
 * unequal — the invariant the sweep below checks after every kill.
 */
wasm::Module
buildKillableSpinModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 2);
    auto& f = mb.addFunction(mb.addType({ValType::i32}, {ValType::i64}));
    uint32_t i = f.addLocal(ValType::i32);
    auto loop = f.loop();
    // mem[0] += 1
    f.i32Const(0);
    f.i32Const(0);
    f.memOp(Op::i64_load);
    f.i64Const(1);
    f.emit(Op::i64_add);
    f.memOp(Op::i64_store);
    // mem[8] += 1
    f.i32Const(8);
    f.i32Const(8);
    f.memOp(Op::i64_load);
    f.i64Const(1);
    f.emit(Op::i64_add);
    f.memOp(Op::i64_store);
    // i++; loop while iters == 0 or i != iters
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localSet(i);
    f.localGet(0);
    f.emit(Op::i32_eqz);
    f.localGet(i);
    f.localGet(0);
    f.emit(Op::i32_ne);
    f.emit(Op::i32_or);
    f.brIf(loop);
    f.end();
    // return mem[0]
    f.i32Const(0);
    f.memOp(Op::i64_load);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

uint64_t
readI64(Instance& inst, uint32_t addr)
{
    uint64_t v = 0;
    std::memcpy(&v, inst.memory()->base() + addr, sizeof(v));
    return v;
}

/**
 * The tentpole sweep: an infinite loop is killed mid-flight by a host
 * interrupt under every strategy x engine. The trap is the requested
 * kind, the two counters agree (unwind happened at a poll boundary, not
 * mid-iteration), and the very same instance then runs a finite call
 * after recycle() — interrupt state does not leak into reuse.
 */
TEST_P(PreemptStrategyTest, DeadlineKillMidLoopThenReuse)
{
    wasm::Module module = buildKillableSpinModule();
    for (const EngineConfig& config : sweepConfigs(GetParam())) {
        wasm::Module copy = module;
        auto inst = instantiate(config, std::move(copy));
        ASSERT_NE(inst, nullptr) << configName(config);

        std::thread killer([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            inst->interrupt(TrapKind::deadline_exceeded);
        });
        CallOutcome out = inst->callExport("run", {Value::fromI32(0)});
        killer.join();
        EXPECT_EQ(out.trap, TrapKind::deadline_exceeded)
            << configName(config);
        uint64_t a = readI64(*inst, 0);
        uint64_t b = readI64(*inst, 8);
        EXPECT_GT(a, 0u) << configName(config);
        EXPECT_EQ(a, b) << configName(config)
                        << ": kill unwound mid-iteration";

        // Recycle restores freshness: the finite call must complete.
        ASSERT_TRUE(inst->recycle().isOk()) << configName(config);
        CallOutcome again =
            inst->callExport("run", {Value::fromI32(10)});
        ASSERT_TRUE(again.ok())
            << configName(config) << ": " << trapKindName(again.trap);
        EXPECT_EQ(again.results[0].i64, 10);
    }
}

/**
 * spin(n) bumps a counter while n == 0: the rewrite makes the loop test
 * a jri whose target is the loop header, so the JIT's only poll site in
 * the loop hangs off a branch form. Killing it mid-loop still works.
 */
TEST_P(PreemptStrategyTest, JriBackEdgeSpinIsInterrupted)
{
    ModuleBuilder mb;
    auto& f = mb.addFunction(mb.addType({ValType::i32}, {ValType::i32}));
    uint32_t i = f.addLocal(ValType::i32);
    auto loop = f.loop();
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localSet(i);
    f.localGet(0);
    f.i32Const(0);
    f.emit(Op::i32_eq);
    f.brIf(loop);
    f.end();
    f.localGet(i);
    mb.exportFunc("spin", f.finish());
    wasm::Module module = mb.build();

    for (const EngineConfig& config : jitConfigs(GetParam())) {
        auto inst = instantiate(config, wasm::Module(module));
        ASSERT_NE(inst, nullptr) << configName(config);
        bool jri = false;
        for (const wasm::LInst& op : inst->module().lowered().funcs[0].code)
            jri |= op.op == wasm::formOp(wasm::IrForm::jri, Op::i32_eq);
        ASSERT_TRUE(jri) << configName(config);
        // Tiered: the first call tiers spin() up; later calls run JIT code.
        CallOutcome done = inst->callExport("spin", {Value::fromI32(1)});
        ASSERT_TRUE(done.ok()) << configName(config);
        inst->module().drainTierQueue();
        EXPECT_EQ(inst->module().funcTier(inst->exportedFunc("spin").value()),
                  exec::Tier::jit)
            << configName(config);

        std::thread killer([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            inst->interrupt(TrapKind::deadline_exceeded);
        });
        CallOutcome out = inst->callExport("spin", {Value::fromI32(0)});
        killer.join();
        EXPECT_EQ(out.trap, TrapKind::deadline_exceeded) << configName(config);
    }
}

/** An interrupt posted to an idle instance kills the NEXT call — the
 * flag is one-shot and cleared on delivery, so the call after that one
 * runs to completion without a recycle. */
TEST(Preempt, PendingInterruptKillsNextCallOnly)
{
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    auto inst = instantiate(config, buildKillableSpinModule());
    ASSERT_NE(inst, nullptr);

    inst->interrupt();
    CallOutcome out = inst->callExport("run", {Value::fromI32(1000)});
    EXPECT_EQ(out.trap, TrapKind::interrupted);
    CallOutcome again = inst->callExport("run", {Value::fromI32(5)});
    ASSERT_TRUE(again.ok()) << trapKindName(again.trap);
}

/** With epoch checks compiled out (LNB_EPOCH_CHECKS=0 equivalent), a
 * finite loop still completes and an interrupt is simply not observed —
 * the ablation baseline the bench compares against. */
TEST(Preempt, EpochChecksDisabledRunsToCompletion)
{
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.epochChecks = false;
    auto inst = instantiate(config, buildKillableSpinModule());
    ASSERT_NE(inst, nullptr);
    inst->interrupt();
    CallOutcome out = inst->callExport("run", {Value::fromI32(100)});
    ASSERT_TRUE(out.ok()) << trapKindName(out.trap);
    EXPECT_EQ(out.results[0].i64, 100);
}

// ---------------------------------------------------------------------
// The JIT's poll page: kills arrive as poll faults; stale arms and
// stale kills are harmless
// ---------------------------------------------------------------------

/** The spin module with run() already JIT code (tiered: after one
 * warm-up call and its tier-up). */
std::unique_ptr<Instance>
instantiateJitSpin(const EngineConfig& config)
{
    auto inst = instantiate(config, buildKillableSpinModule());
    if (inst == nullptr)
        return nullptr;
    EXPECT_TRUE(inst->callExport("run", {Value::fromI32(1)}).ok());
    inst->module().drainTierQueue();
    EXPECT_EQ(inst->module().funcTier(inst->exportedFunc("run").value()),
              exec::Tier::jit)
        << configName(config);
    return inst;
}

uint64_t
counterValue(const char* name)
{
    return obs::snapshotMetrics().counter(name);
}

/** Every kill that reaches a running JIT loop is delivered by a poll
 * fault: one mem.poll_faults per delivered interrupt. */
TEST_P(PreemptStrategyTest, JitKillsAreDeliveredByPollFaults)
{
    for (const EngineConfig& config : jitConfigs(GetParam())) {
        auto inst = instantiateJitSpin(config);
        ASSERT_NE(inst, nullptr) << configName(config);
        uint64_t faults = counterValue("mem.poll_faults");
        uint64_t delivered = counterValue("rt.interrupts_delivered");
        std::thread killer([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            inst->interrupt(TrapKind::deadline_exceeded);
        });
        CallOutcome out = inst->callExport("run", {Value::fromI32(0)});
        killer.join();
        EXPECT_EQ(out.trap, TrapKind::deadline_exceeded)
            << configName(config);
        EXPECT_EQ(counterValue("rt.interrupts_delivered") - delivered, 1u)
            << configName(config);
        EXPECT_EQ(counterValue("mem.poll_faults") - faults, 1u)
            << configName(config);
        // Delivery disarmed the page: the next call completes.
        CallOutcome again = inst->callExport("run", {Value::fromI32(10)});
        ASSERT_TRUE(again.ok())
            << configName(config) << ": " << trapKindName(again.trap);
    }
}

/** A kill posted to an idle instance dies with its recycle: the flag
 * clears and the page is readable again, so the next long call runs to
 * completion. */
TEST(Preempt, StaleKillDiesWithRecycle)
{
    for (const EngineConfig& config : jitConfigs(BoundsStrategy::none)) {
        auto inst = instantiateJitSpin(config);
        ASSERT_NE(inst, nullptr) << configName(config);
        inst->interrupt();
        ASSERT_TRUE(inst->recycle().isOk()) << configName(config);
        CallOutcome out = inst->callExport("run", {Value::fromI32(200000)});
        ASSERT_TRUE(out.ok())
            << configName(config) << ": " << trapKindName(out.trap);
        EXPECT_EQ(out.results[0].i64, 200000) << configName(config);
    }
}

/** An arm that lost the race with the flag's clearing leaves the page
 * unreadable with the flag at 0: the poll's fault handler disarms it,
 * and the poll retries and passes. */
TEST(Preempt, StaleArmIsDisarmedByTheHandler)
{
    for (const EngineConfig& config : jitConfigs(BoundsStrategy::none)) {
        auto inst = instantiateJitSpin(config);
        ASSERT_NE(inst, nullptr) << configName(config);
        inst->interrupt();
        inst->context().interruptFlag.store(0);
        uint64_t stale = counterValue("mem.poll_stale_disarms");
        uint64_t faults = counterValue("mem.poll_faults");
        CallOutcome out = inst->callExport("run", {Value::fromI32(1000)});
        ASSERT_TRUE(out.ok())
            << configName(config) << ": " << trapKindName(out.trap);
        EXPECT_EQ(out.results[0].i64, 1001) << configName(config);
        EXPECT_EQ(counterValue("mem.poll_stale_disarms") - stale, 1u)
            << configName(config);
        EXPECT_EQ(counterValue("mem.poll_faults") - faults, 0u)
            << configName(config);
    }
}

/** Read one word without leaving a core file behind. */
void
readWithoutCore(const volatile uint32_t* word)
{
    struct rlimit no_core = {0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    (void)*word;
}

/** The handler claims only faults at a JIT pc: a plain C++ read of an
 * armed poll page still kills the process with SIGSEGV. */
TEST(PreemptDeathTest, ArmedPollPageReadOutsideJitCodeCrashes)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    auto inst = instantiate(config, buildKillableSpinModule());
    ASSERT_NE(inst, nullptr);
    inst->interrupt();
    auto* poll = reinterpret_cast<const volatile uint32_t*>(
        reinterpret_cast<const uint8_t*>(&inst->context()) +
        exec::kEpochPollDisp);
    EXPECT_EXIT(readWithoutCore(poll), testing::KilledBySignal(SIGSEGV),
                "");
}

// ---------------------------------------------------------------------
// Killing a parked memory.atomic.wait
// ---------------------------------------------------------------------

wasm::Module
buildParkModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, /*shared=*/true);
    // park() -> wait result: waits forever on addr 0 (expected 0).
    auto& f = mb.addFunction(mb.addType({}, {ValType::i32}));
    f.i32Const(0);
    f.i32Const(0);
    f.i64Const(-1);
    f.memOp(Op::memory_atomic_wait32);
    mb.exportFunc("park", f.finish());
    return mb.build();
}

TEST_P(PreemptStrategyTest, KillWhileParkedInAtomicWait)
{
    rt::WaitListStats before = rt::waitListStats();
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = GetParam();
    config.sharedMemory = true;
    auto inst = instantiate(config, buildParkModule());
    ASSERT_NE(inst, nullptr);

    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        inst->interrupt(TrapKind::deadline_exceeded);
    });
    auto start = std::chrono::steady_clock::now();
    CallOutcome out = inst->callExport("park", {});
    auto elapsed = std::chrono::steady_clock::now() - start;
    killer.join();
    // An infinite wait returned at all only because the interrupt woke
    // it; well under the 10 s an accidental timeout would need.
    EXPECT_EQ(out.trap, TrapKind::deadline_exceeded)
        << boundsStrategyName(GetParam());
    EXPECT_LT(elapsed, std::chrono::seconds(10));
    rt::WaitListStats after = rt::waitListStats();
    EXPECT_GE(after.interrupts - before.interrupts, 1u);
}

// ---------------------------------------------------------------------
// waitListWait regression: INT64_MAX timeout must not overflow
// ---------------------------------------------------------------------

/**
 * Regression: `now + INT64_MAX ns` overflows steady_clock::time_point,
 * which made wait_until see a deadline in the past and return timed_out
 * immediately. Oversized timeouts must take the infinite-wait path: the
 * waiter is still parked after a real delay and a notify wakes it.
 */
TEST(WaitList, Int64MaxTimeoutClampsToInfiniteWait)
{
    alignas(8) std::atomic<uint32_t> word{0};
    std::atomic<int> result{-1};
    std::thread waiter([&] {
        result.store(int(rt::waitListWait(&word, 0, /*is64=*/false,
                                          INT64_MAX)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // The broken code has already returned timed_out by now.
    EXPECT_EQ(result.load(), -1) << "INT64_MAX timeout expired early";
    word.store(1);
    uint32_t woken = 0;
    // The waiter may not have parked yet; notify until it has.
    while ((woken = rt::waitListNotify(&word, 1)) == 0 &&
           result.load() == -1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    waiter.join();
    // ok when the notify landed on a parked waiter; not_equal if the
    // waiter was slow to park and saw the store first. Never timed_out —
    // that is the overflow bug this guards against.
    EXPECT_TRUE(result.load() == int(rt::WaitResult::ok) ||
                result.load() == int(rt::WaitResult::not_equal))
        << "result " << result.load();
}

// ---------------------------------------------------------------------
// spawnThreads: a trapping sibling cancels parked siblings
// ---------------------------------------------------------------------

/**
 * run(tid): tid 0 bumps the check-in counter then hits unreachable;
 * everyone else parks forever on a word nobody will ever notify. The old
 * unconditional join deadlocked here; now the trap cascades an interrupt
 * to the parked siblings and the fork returns.
 */
wasm::Module
buildTrapAndParkModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, /*shared=*/true);
    auto& f = mb.addFunction(mb.addType({ValType::i32}, {ValType::i32}));
    f.localGet(0);
    f.emit(Op::i32_eqz);
    f.ifElse(ValType::i32);
    {
        // Trapper: wait until all siblings checked in so they are
        // really parked, then trap.
        auto loop = f.loop();
        f.i32Const(64);
        f.memOp(Op::i32_atomic_load);
        f.i32Const(2);
        f.emit(Op::i32_ne);
        f.brIf(loop);
        f.end();
        f.emit(Op::unreachable);
        f.i32Const(0); // unreachable, but keeps the type checker happy
    }
    f.elseBranch();
    {
        f.i32Const(64);
        f.i32Const(1);
        f.memOp(Op::i32_atomic_rmw_add);
        f.drop();
        f.i32Const(0);
        f.i32Const(0);
        f.i64Const(-1); // forever; only the cascade can end this
        f.memOp(Op::memory_atomic_wait32);
    }
    f.end();
    mb.exportFunc("run", f.finish());
    return mb.build();
}

TEST_P(PreemptStrategyTest, SiblingTrapInterruptsParkedSiblings)
{
    EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = GetParam();
    auto inst = instantiate(config, buildTrapAndParkModule());
    ASSERT_NE(inst, nullptr);
    auto outcomes =
        rt::spawnThreads(*inst, "run", 3, [](uint32_t i) {
            return std::vector<Value>{Value::fromI32(int32_t(i))};
        });
    ASSERT_TRUE(outcomes.isOk()) << outcomes.status().toString();
    EXPECT_EQ(outcomes.value()[0].trap, TrapKind::unreachable);
    for (int i = 1; i < 3; i++) {
        EXPECT_EQ(outcomes.value()[i].trap, TrapKind::interrupted)
            << "sibling " << i << " under "
            << boundsStrategyName(GetParam());
    }
}

/** Interrupting the primary cancels the whole fork, parked siblings
 * included — the hook Service::stop() and the deadline reaper use. */
TEST(Preempt, PrimaryInterruptCancelsFork)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, /*shared=*/true);
    auto& f = mb.addFunction(mb.addType({ValType::i32}, {ValType::i32}));
    f.i32Const(0);
    f.i32Const(0);
    f.i64Const(-1);
    f.memOp(Op::memory_atomic_wait32);
    mb.exportFunc("run", f.finish());

    EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.sharedMemory = true;
    auto inst = instantiate(config, mb.build());
    ASSERT_NE(inst, nullptr);

    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        inst->interrupt(TrapKind::deadline_exceeded);
    });
    auto outcomes = rt::spawnThreads(*inst, "run", 3, [](uint32_t i) {
        return std::vector<Value>{Value::fromI32(int32_t(i))};
    });
    killer.join();
    ASSERT_TRUE(outcomes.isOk()) << outcomes.status().toString();
    for (int i = 0; i < 3; i++) {
        EXPECT_EQ(outcomes.value()[i].trap, TrapKind::deadline_exceeded)
            << "sibling " << i;
    }
}

// ---------------------------------------------------------------------
// Kill racing a guard-page fault
// ---------------------------------------------------------------------

/** run() hammers an out-of-bounds store in a loop while the host posts
 * an interrupt: whichever trap wins, the unwind must be clean and the
 * instance reusable. Exercises the epoch poll and the SIGSEGV recovery
 * path against each other under the guard-page strategy. */
TEST(Preempt, KillRacingGuardPageFault)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(mb.addType({}, {ValType::i32}));
    f.i32Const(1 << 20); // far past the single page
    f.i32Const(7);
    f.memOp(Op::i32_store);
    f.i32Const(0);
    mb.exportFunc("run", f.finish());

    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::mprotect;
    auto inst = instantiate(config, mb.build());
    ASSERT_NE(inst, nullptr);

    for (int round = 0; round < 50; round++) {
        std::thread killer([&] { inst->interrupt(); });
        CallOutcome out = inst->callExport("run", {});
        killer.join();
        ASSERT_TRUE(out.trap == TrapKind::out_of_bounds_memory ||
                    out.trap == TrapKind::interrupted)
            << "round " << round << ": " << trapKindName(out.trap);
        ASSERT_TRUE(inst->recycle().isOk()) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// FairQueue (DRR) unit tests
// ---------------------------------------------------------------------

TEST(FairQueue, SingleTenantIsFifo)
{
    svc::FairQueue<int> q(16);
    for (int i = 0; i < 5; i++)
        ASSERT_TRUE(q.tryPush("a", int(i)));
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(q.pop().value(), i);
    q.close();
    EXPECT_FALSE(q.pop().has_value());
}

TEST(FairQueue, RoundRobinInterleavesEqualWeights)
{
    svc::FairQueue<int> q(16);
    // a enqueues 4 before b shows up; DRR still alternates.
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(q.tryPush("a", 100 + i));
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(q.tryPush("b", 200 + i));
    std::vector<int> order;
    for (int i = 0; i < 8; i++)
        order.push_back(q.pop().value());
    std::vector<int> expect = {100, 200, 101, 201, 102, 202, 103, 203};
    EXPECT_EQ(order, expect);
}

TEST(FairQueue, WeightsGrantProportionalQuanta)
{
    svc::FairQueue<int> q(16);
    q.setWeight("a", 2);
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(q.tryPush("a", 100 + i));
    for (int i = 0; i < 2; i++)
        ASSERT_TRUE(q.tryPush("b", 200 + i));
    std::vector<int> order;
    for (int i = 0; i < 6; i++)
        order.push_back(q.pop().value());
    // a serves 2 per visit, b serves 1.
    std::vector<int> expect = {100, 101, 200, 102, 103, 201};
    EXPECT_EQ(order, expect);
}

TEST(FairQueue, DepthBoundsTotalAcrossTenants)
{
    svc::FairQueue<int> q(3);
    EXPECT_TRUE(q.tryPush("a", 1));
    EXPECT_TRUE(q.tryPush("b", 2));
    EXPECT_TRUE(q.tryPush("c", 3));
    EXPECT_FALSE(q.tryPush("d", 4));
    EXPECT_EQ(q.size(), 3u);
}

TEST(FairQueue, CloseAndDrainReturnsPending)
{
    svc::FairQueue<int> q(8);
    ASSERT_TRUE(q.tryPush("a", 1));
    ASSERT_TRUE(q.tryPush("b", 2));
    std::vector<int> drained = q.closeAndDrain();
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_FALSE(q.tryPush("a", 3));
    EXPECT_FALSE(q.pop().has_value());
}

// ---------------------------------------------------------------------
// Service: deadlines, shutdown, fair dequeue end to end
// ---------------------------------------------------------------------

/** run() spins for @p iterations (0 = forever) with a memory store per
 * round so the loop cannot be folded away. */
wasm::Module
svcSpinModule(int32_t iterations)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(mb.addType({}, {ValType::i32}));
    uint32_t i = f.addLocal(ValType::i32);
    auto loop = f.loop();
    f.i32Const(0);
    f.localGet(i);
    f.memOp(Op::i32_store);
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localSet(i);
    f.i32Const(iterations == 0 ? 1 : 0);
    f.localGet(i);
    f.i32Const(iterations);
    f.emit(Op::i32_lt_s);
    f.emit(Op::i32_or);
    f.brIf(loop);
    f.end();
    f.localGet(i);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

TEST(PreemptService, StopInterruptsInflightInfiniteLoop)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.pinWorkers = false;
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    auto loaded = service.loadModule(
        wasm::encodeModule(svcSpinModule(0)), engine_config);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();

    svc::Request request;
    request.tenant = "wedge";
    request.module = loaded.value();
    auto submitted = service.submit(std::move(request));
    ASSERT_TRUE(submitted.isOk());
    // Let the worker pick it up and enter the loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    auto t0 = std::chrono::steady_clock::now();
    service.stop();
    auto stop_elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(stop_elapsed, std::chrono::seconds(10))
        << "stop() blocked on an unkillable request";
    svc::Response response = submitted.value().get();
    EXPECT_EQ(response.outcome.trap, TrapKind::interrupted);
}

TEST(PreemptService, DeadlineKillsSpinThenWorkerIsReused)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.pinWorkers = false;
    config.deadlineMillis = 25;
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    auto spin = service.loadModule(
        wasm::encodeModule(svcSpinModule(0)), engine_config);
    ASSERT_TRUE(spin.isOk()) << spin.status().toString();
    auto quick = service.loadModule(
        wasm::encodeModule(svcSpinModule(100)), engine_config);
    ASSERT_TRUE(quick.isOk()) << quick.status().toString();

    svc::Request hog;
    hog.tenant = "hog";
    hog.module = spin.value();
    auto t0 = std::chrono::steady_clock::now();
    auto killed = service.call(std::move(hog));
    auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_TRUE(killed.isOk());
    EXPECT_EQ(killed.value().outcome.trap, TrapKind::deadline_exceeded);
    // Acceptance bound is 2x the deadline; allow generous CI slack on
    // top, while still proving the kill was deadline-driven.
    EXPECT_LT(elapsed, std::chrono::seconds(5));

    // Same worker, same module pool: the next request must succeed on a
    // recycled instance.
    svc::Request next;
    next.tenant = "hog";
    next.module = spin.value();
    next.deadlineMillis = 25;
    auto killed2 = service.call(std::move(next));
    ASSERT_TRUE(killed2.isOk());
    EXPECT_EQ(killed2.value().outcome.trap, TrapKind::deadline_exceeded);
    EXPECT_TRUE(killed2.value().warmInstance)
        << "deadline kill burned the pooled instance";

    svc::Request ok;
    ok.tenant = "victim";
    ok.module = quick.value();
    auto fine = service.call(std::move(ok));
    ASSERT_TRUE(fine.isOk());
    EXPECT_TRUE(fine.value().outcome.ok())
        << trapKindName(fine.value().outcome.trap);

    auto tenants = service.tenantStats();
    for (const auto& [name, stats] : tenants) {
        if (name == "hog") {
            EXPECT_EQ(stats.deadlineKilled, 2u);
            EXPECT_EQ(stats.trapped, 2u);
        }
    }
}

TEST(PreemptService, PerTenantDeadlineOverridesGlobal)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.pinWorkers = false;
    config.deadlineMillis = 20;
    config.tenantDeadlineMillis["exempt"] = 0; // explicit 0: unkillable
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    auto mod = service.loadModule(
        wasm::encodeModule(svcSpinModule(5'000'000)), engine_config);
    ASSERT_TRUE(mod.isOk()) << mod.status().toString();

    // The exempt tenant's slow-ish request survives the global 20 ms.
    svc::Request exempt;
    exempt.tenant = "exempt";
    exempt.module = mod.value();
    auto exempt_resp = service.call(std::move(exempt));
    ASSERT_TRUE(exempt_resp.isOk());
    EXPECT_TRUE(exempt_resp.value().outcome.ok())
        << trapKindName(exempt_resp.value().outcome.trap);
}

/**
 * The adversarial-tenant p99 story in miniature: one worker, a hog that
 * floods 16 slow requests, then a victim submitting 8 quick ones. Under
 * the old global FIFO every victim request waited behind the whole hog
 * backlog; under DRR the victim's last completion beats the hog's.
 */
TEST(PreemptService, FairDequeueBoundsVictimLatency)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.queueDepth = 64;
    config.pinWorkers = false;
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    auto slow = service.loadModule(
        wasm::encodeModule(svcSpinModule(4'000'000)), engine_config);
    ASSERT_TRUE(slow.isOk()) << slow.status().toString();
    auto quick = service.loadModule(
        wasm::encodeModule(svcSpinModule(1000)), engine_config);
    ASSERT_TRUE(quick.isOk()) << quick.status().toString();

    // A long opener pins the worker so the backlog below builds up and
    // dequeue order (not race luck) decides completion order.
    svc::Request opener;
    opener.tenant = "hog";
    opener.module = slow.value();
    auto opener_future = service.submit(std::move(opener));
    ASSERT_TRUE(opener_future.isOk());
    while (service.queueSize() != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<std::future<svc::Response>> hog_futures;
    for (int i = 0; i < 16; i++) {
        svc::Request r;
        r.tenant = "hog";
        r.module = slow.value();
        auto s = service.submit(std::move(r));
        ASSERT_TRUE(s.isOk()) << "hog " << i;
        hog_futures.push_back(s.takeValue());
    }
    std::vector<std::future<svc::Response>> victim_futures;
    for (int i = 0; i < 8; i++) {
        svc::Request r;
        r.tenant = "victim";
        r.module = quick.value();
        auto s = service.submit(std::move(r));
        ASSERT_TRUE(s.isOk()) << "victim " << i;
        victim_futures.push_back(s.takeValue());
    }

    auto t0 = std::chrono::steady_clock::now();
    std::chrono::steady_clock::duration victim_done{};
    for (auto& f : victim_futures) {
        svc::Response r = f.get();
        EXPECT_TRUE(r.outcome.ok());
        victim_done = std::chrono::steady_clock::now() - t0;
    }
    std::chrono::steady_clock::duration hog_done{};
    opener_future.value().get();
    for (auto& f : hog_futures) {
        svc::Response r = f.get();
        EXPECT_TRUE(r.outcome.ok());
        hog_done = std::chrono::steady_clock::now() - t0;
    }
    // DRR alternates the tenants, so the 8 quick victim requests all
    // complete while slow hog work is still queued. Under FIFO the
    // victim would finish last by construction.
    EXPECT_LT(victim_done, hog_done)
        << "victim waited behind the full hog backlog (FIFO behavior)";
}

} // namespace
} // namespace lnb
